//! pcg_streaming — the streaming-fusion experiment for the momentum PCG
//! solve, on both legs of the reproduction.
//!
//! **Host leg (measured wall-clock):** `pcg_solve_ws` with the fused
//! streaming kernels (`spmv_dot`, `axpy2_nrm2`, `precond_dot_update`)
//! against the unfused launch-per-op loop, on banded SPD systems shaped
//! like the kinematic mass matrix at orders Q1-Q4 (band widens, system
//! grows with order). Both paths are pinned to the same iteration count
//! (tolerances set unreachably tight) and to the *serial* drive (pool
//! size 1) so the ratio isolates kernel fusion from pool scheduling.
//! Rounds interleave the two paths; the reported times are min-of-rounds as
//! in `host_kernels`, the gated speedup is the median of the per-round
//! ratios (see [`ShapeResult::speedup`]).
//!
//! **Lock-step block (measured wall-clock):** the momentum solve's `d`
//! velocity components share one matrix, and the stored host leg advances
//! them in lock step over one `d`-wide CSR row sweep
//! (`pcg_solve_lockstep_ws` / `stream::spmv_constrained_dot_wide`). On the
//! three stored `BENCHMARK.json` matrices — built through
//! `assemble_kinematic_mass`, reflecting walls masked per component —
//! `d` scalar `pcg_solve_ws` solves are timed against one lock-step solve
//! of the same systems, both pinned to the same iteration count, same
//! serial drive, interleaved rounds and median-of-ratios statistic as
//! above; the row sweep alone is timed at `d` = 1, 2 and 3.
//!
//! **GPU-sim leg (modeled, deterministic):** `GpuPcg` fused (3 launches
//! per iteration) vs unfused (8 per iteration) on a Q2-3D-like system —
//! launch counts, modeled device time, and modeled energy from the §6
//! cost model.
//!
//! The binary (`cargo run -p blast-bench --release --bin pcg_streaming`)
//! writes `BENCH_pcg_streaming.json` and exits non-zero if fusion loses on
//! any order >= 2 host shape, if the lock-step solve loses to the scalar
//! solves on a `d` = 3 matrix, or if fusion fails to cut the modeled
//! launch count / device time / energy — the CI pcg-stream-smoke gate.

use std::time::Instant;

use blast_fem::mass::assemble_kinematic_mass;
use blast_fem::{quad_points_1d, CartMesh, H1Space, TensorRule};
use blast_kernels::k9::GpuPcg;
use blast_la::stream;
use blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_ws, ConstrainedOp, CsrBuilder, CsrMatrix, DiagPrecond,
    PcgOptions, PcgWorkspace,
};
use gpu_sim::GpuDevice;

use crate::table;
use gpu_sim::DeviceCatalog;

/// Host shapes `(n, half_band, label, gated)`: DOF count and semi-bandwidth
/// of the banded SPD stand-in for the kinematic mass matrix per FE order.
/// Narrow bands keep the solve BLAS-1-heavy — the regime fusion targets.
pub const SHAPES: [(usize, usize, &str, bool); 4] = [
    (20_000, 2, "Q1", false),
    (120_000, 2, "Q2", true),
    (200_000, 3, "Q3", true),
    (300_000, 4, "Q4", true),
];

/// Iterations each timed solve is pinned to (identical work per variant).
const FULL_ITERS: usize = 30;
const SMOKE_ITERS: usize = 12;

/// Interleaved fused/unfused rounds per shape, in either budget.
const ROUNDS: usize = 15;

/// Measured host result on one shape.
#[derive(Clone, Debug)]
pub struct ShapeResult {
    /// FE-order label.
    pub label: &'static str,
    /// System size (DOFs).
    pub n: usize,
    /// Semi-bandwidth.
    pub half_band: usize,
    /// Participates in the CI gate (order >= 2)?
    pub gated: bool,
    /// Best fused solve time, seconds.
    pub fused_s: f64,
    /// Best unfused solve time, seconds.
    pub unfused_s: f64,
    /// Unfused over fused — the gate metric; > 1 means fusion pays off.
    /// Median over rounds of that round's `unfused / fused`. The two solves
    /// of a round run back to back, so a slow spell on a shared host, which
    /// outlasts a round, slows both and cancels; the ratio of the two
    /// independent minima has no such pairing (0.98-1.18x measured for a
    /// true 1.08x).
    pub speedup: f64,
}

/// Measured lock-step result on one stored workload matrix.
#[derive(Clone, Debug)]
pub struct LockstepResult {
    /// Mesh and order of the `BENCHMARK.json` workload the matrix is from.
    pub label: &'static str,
    /// Velocity components (systems per momentum solve).
    pub d: usize,
    /// Scalar DOFs per component.
    pub n: usize,
    /// Stored non-zeros of the kinematic mass matrix.
    pub nnz: usize,
    /// Participates in the CI gate (`d` = 3)?
    pub gated: bool,
    /// Iterations every solve is pinned to.
    pub iterations: usize,
    /// Best time of the `d` scalar solves together, seconds.
    pub scalar_s: f64,
    /// Best time of the one lock-step solve, seconds.
    pub lockstep_s: f64,
    /// Lock-step over scalar — the gate metric; < 1 means one sweep for
    /// all components pays off. Median over rounds of that round's
    /// `lockstep / scalar` (the pairing argument of
    /// [`ShapeResult::speedup`]).
    pub ratio: f64,
    /// Best time of one constrained row sweep + dots feeding 1, 2 and 3
    /// components, microseconds.
    pub sweep_us: [f64; 3],
}

/// Modeled GPU-sim comparison.
#[derive(Clone, Debug)]
pub struct GpuLeg {
    /// System size (DOFs).
    pub n: usize,
    /// Semi-bandwidth.
    pub half_band: usize,
    /// Iterations both solves ran.
    pub iterations: usize,
    /// Total kernel launches, fused path.
    pub fused_launches: usize,
    /// Total kernel launches, unfused path.
    pub unfused_launches: usize,
    /// Modeled device time, fused path, seconds.
    pub fused_time_s: f64,
    /// Modeled device time, unfused path, seconds.
    pub unfused_time_s: f64,
    /// Modeled device energy, fused path, joules.
    pub fused_energy_j: f64,
    /// Modeled device energy, unfused path, joules.
    pub unfused_energy_j: f64,
}

impl GpuLeg {
    /// Modeled energy greenup (unfused / fused).
    pub fn greenup(&self) -> f64 {
        self.unfused_energy_j / self.fused_energy_j
    }
}

/// Full experiment result.
#[derive(Clone, Debug)]
pub struct PcgStreaming {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<ShapeResult>,
    /// The three stored workload matrices, scalar vs lock-step.
    pub lockstep: Vec<LockstepResult>,
    /// The modeled GPU-sim leg.
    pub gpu: GpuLeg,
    /// Whether FMA streaming clones were active.
    pub fma_active: bool,
    /// Whether the reduced smoke budget was used.
    pub smoke: bool,
}

impl PcgStreaming {
    /// Gate: fused must beat unfused on every order >= 2 host shape, the
    /// lock-step solve must beat the scalar solves on both `d` = 3
    /// matrices, and the modeled GPU leg must cut launches, device time,
    /// and energy.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for l in self.lockstep.iter().filter(|l| l.gated && l.ratio >= 1.0) {
            fails.push(format!(
                "lockstep {}: lock-step {:.3} ms vs {} scalar solves {:.3} ms (ratio {:.2} >= 1)",
                l.label,
                l.lockstep_s * 1e3,
                l.d,
                l.scalar_s * 1e3,
                l.ratio
            ));
        }
        for s in self.shapes.iter().filter(|s| s.gated && s.speedup < 1.0) {
            fails.push(format!(
                "host {}: fused {:.3} ms vs unfused {:.3} ms ({:.2}x < 1x)",
                s.label,
                s.fused_s * 1e3,
                s.unfused_s * 1e3,
                s.speedup
            ));
        }
        let g = &self.gpu;
        if g.fused_launches >= g.unfused_launches {
            fails.push(format!(
                "gpu: fused launches {} >= unfused {}",
                g.fused_launches, g.unfused_launches
            ));
        }
        if g.fused_time_s >= g.unfused_time_s {
            fails.push(format!(
                "gpu: fused modeled time {:.4}s >= unfused {:.4}s",
                g.fused_time_s, g.unfused_time_s
            ));
        }
        if g.fused_energy_j >= g.unfused_energy_j {
            fails.push(format!(
                "gpu: fused modeled energy {:.3}J >= unfused {:.3}J",
                g.fused_energy_j, g.unfused_energy_j
            ));
        }
        fails
    }

    /// Machine-readable artifact (`BENCH_pcg_streaming.json`).
    pub fn to_json(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.shapes {
            rows.push(format!(
                "    {{\"label\": \"{}\", \"n\": {}, \"half_band\": {}, \"gated\": {}, \
                 \"fused_ms\": {:.4}, \"unfused_ms\": {:.4}, \"speedup\": {:.4}}}",
                s.label,
                s.n,
                s.half_band,
                s.gated,
                s.fused_s * 1e3,
                s.unfused_s * 1e3,
                s.speedup,
            ));
        }
        let lockstep: Vec<String> = self
            .lockstep
            .iter()
            .map(|l| {
                format!(
                    "    {{\"label\": \"{}\", \"d\": {}, \"n\": {}, \"nnz\": {}, \"gated\": {}, \
                     \"iterations\": {}, \"scalar_ms\": {:.4}, \"lockstep_ms\": {:.4}, \
                     \"ratio\": {:.4}, \"sweep_us\": [{:.1}, {:.1}, {:.1}]}}",
                    l.label,
                    l.d,
                    l.n,
                    l.nnz,
                    l.gated,
                    l.iterations,
                    l.scalar_s * 1e3,
                    l.lockstep_s * 1e3,
                    l.ratio,
                    l.sweep_us[0],
                    l.sweep_us[1],
                    l.sweep_us[2],
                )
            })
            .collect();
        let g = &self.gpu;
        format!(
            "{{\n  \"experiment\": \"pcg_streaming\",\n  \"fma_active\": {},\n  \
             \"smoke\": {},\n  \"shapes\": [\n{}\n  ],\n  \"lockstep\": [\n{}\n  ],\n  \
             \"gpu\": {{\n    \
             \"n\": {}, \"half_band\": {}, \"iterations\": {},\n    \
             \"fused_launches\": {}, \"unfused_launches\": {},\n    \
             \"fused_time_s\": {:.6}, \"unfused_time_s\": {:.6},\n    \
             \"fused_energy_j\": {:.4}, \"unfused_energy_j\": {:.4}, \
             \"greenup\": {:.4}\n  }}\n}}\n",
            self.fma_active,
            self.smoke,
            rows.join(",\n"),
            lockstep.join(",\n"),
            g.n,
            g.half_band,
            g.iterations,
            g.fused_launches,
            g.unfused_launches,
            g.fused_time_s,
            g.unfused_time_s,
            g.fused_energy_j,
            g.unfused_energy_j,
            g.greenup(),
        )
    }
}

fn banded_spd(n: usize, half_band: usize) -> CsrMatrix {
    let mut b = CsrBuilder::new(n, n);
    for i in 0..n {
        b.add(i, i, 2.0 * half_band as f64);
        for o in 1..=half_band {
            if i >= o {
                b.add(i, i - o, -0.5);
            }
            if i + o < n {
                b.add(i, i + o, -0.5);
            }
        }
    }
    b.build()
}

/// Measures one host shape: fused vs unfused, pinned to `iters`
/// iterations, over [`ROUNDS`] interleaved rounds.
fn measure_shape(
    n: usize,
    half_band: usize,
    label: &'static str,
    gated: bool,
    iters: usize,
) -> ShapeResult {
    let a = banded_spd(n, half_band);
    let pre = DiagPrecond::from_diagonal(&a.diagonal());
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let fused = PcgOptions { rel_tol: 0.0, abs_tol: 1e-300, max_iter: iters, fused: true };
    let unfused = PcgOptions { fused: false, ..fused };
    let mut ws = PcgWorkspace::new();
    let mut x = vec![0.0; n];

    let time_variant = |opts: &PcgOptions, ws: &mut PcgWorkspace, x: &mut Vec<f64>| {
        x.iter_mut().for_each(|v| *v = 0.0);
        let t0 = Instant::now();
        pcg_solve_ws(&mut (&a), &pre, &b, x, opts, ws);
        t0.elapsed().as_secs_f64()
    };

    // Warm-up both paths off the clock (grows the workspace, faults pages).
    time_variant(&fused, &mut ws, &mut x);
    time_variant(&unfused, &mut ws, &mut x);

    let (mut fused_s, mut unfused_s) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = [0.0; ROUNDS];
    for ratio in &mut ratios {
        let f = time_variant(&fused, &mut ws, &mut x);
        let u = time_variant(&unfused, &mut ws, &mut x);
        fused_s = fused_s.min(f);
        unfused_s = unfused_s.min(u);
        *ratio = u / f;
    }
    ratios.sort_by(f64::total_cmp);

    ShapeResult { label, n, half_band, gated, fused_s, unfused_s, speedup: ratios[ROUNDS / 2] }
}

/// Timed row sweeps per sample of [`LockstepResult::sweep_us`].
const SWEEP_CALLS: usize = 20;

/// Measures one workload matrix: `D` scalar solves vs one lock-step solve
/// pinned to `iters` iterations, and the row sweep at 1, 2 and 3
/// components, over [`ROUNDS`] interleaved rounds.
fn measure_lockstep<const D: usize>(
    label: &'static str,
    zones: usize,
    order: usize,
    iters: usize,
) -> LockstepResult {
    // The solver's kinematic mass matrix on the unit box (rho0 = 1).
    let mesh = CartMesh::<D>::unit(zones);
    let space = H1Space::new(mesh.clone(), order);
    let rule = TensorRule::<D>::gauss(quad_points_1d(order));
    let table = space.basis().tabulate(&rule.points);
    let detj: f64 = mesh.zone_size().iter().product();
    let a = assemble_kinematic_mass(&space, &rule, &table, &vec![detj; mesh.num_zones() * rule.len()]);
    let n = a.rows();
    let pre = DiagPrecond::from_diagonal(&a.diagonal());
    // Reflecting walls: component `c` is held on the faces normal to axis
    // `c`; a third mask lets the 2D matrix time the 3-wide sweep too.
    let masks: Vec<Vec<bool>> = (0..3)
        .map(|c| {
            let mut mask = vec![false; n];
            space.boundary_dofs(c % D).into_iter().for_each(|i| mask[i] = true);
            mask
        })
        .collect();
    let masks: Vec<&[bool]> = masks.iter().map(|m| &m[..]).collect();
    let mut b: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.013).sin()).collect();
    for (c, mask) in masks.iter().enumerate() {
        mask.iter().enumerate().filter(|(_, &m)| m).for_each(|(i, _)| b[c * n + i] = 0.0);
    }
    let opts = PcgOptions { rel_tol: 0.0, abs_tol: 1e-300, max_iter: iters, fused: true };
    let mut ws = PcgWorkspace::new();
    let mut x = vec![0.0; D * n];

    let scalar = |ws: &mut PcgWorkspace, x: &mut [f64]| {
        x.fill(0.0);
        let t0 = Instant::now();
        for c in 0..D {
            let at = c * n..(c + 1) * n;
            ws.with_operator_scratch(n, |tmp, ws| {
                let mut op = ConstrainedOp { a: &a, masks: &masks[c..c + 1], tmp };
                pcg_solve_ws(&mut op, &pre, &b[at.clone()], &mut x[at], &opts, ws)
            });
        }
        t0.elapsed().as_secs_f64()
    };
    let lockstep = |ws: &mut PcgWorkspace, x: &mut [f64]| {
        x.fill(0.0);
        let t0 = Instant::now();
        ws.with_operator_scratch(stream::wide_lanes(D) * n, |tmp, ws| {
            let mut op = ConstrainedOp { a: &a, masks: &masks[..D], tmp };
            pcg_solve_lockstep_ws::<D, _>(&mut op, &pre, &b[..D * n], x, &opts, ws)
        });
        t0.elapsed().as_secs_f64()
    };
    let mut y = vec![0.0; 3 * n];
    let mut tmp = vec![0.0; 4 * n];
    let mut sweep = |d: usize| {
        let tmp = &mut tmp[..stream::wide_lanes(d) * n];
        let t0 = Instant::now();
        for _ in 0..SWEEP_CALLS {
            let mut dots = [0.0; 3];
            stream::spmv_constrained_dot_wide(
                &a,
                &b[..d * n],
                &masks[..d],
                tmp,
                &mut y[..d * n],
                &mut dots[..d],
            );
            std::hint::black_box(dots);
        }
        t0.elapsed().as_secs_f64() * 1e6 / SWEEP_CALLS as f64
    };

    // Warm-up off the clock, and the equivalence the timing rests on.
    scalar(&mut ws, &mut x);
    let x_scalar = x.clone();
    lockstep(&mut ws, &mut x);
    assert_eq!(x, x_scalar, "{label}: lock-step and scalar solves must agree bit for bit");
    for d in 1..=3 {
        sweep(d);
    }

    let (mut scalar_s, mut lockstep_s) = (f64::INFINITY, f64::INFINITY);
    let mut sweep_us = [f64::INFINITY; 3];
    let mut ratios = [0.0; ROUNDS];
    for ratio in &mut ratios {
        let s = scalar(&mut ws, &mut x);
        let l = lockstep(&mut ws, &mut x);
        scalar_s = scalar_s.min(s);
        lockstep_s = lockstep_s.min(l);
        *ratio = l / s;
        for (d, us) in sweep_us.iter_mut().enumerate() {
            *us = us.min(sweep(d + 1));
        }
    }
    ratios.sort_by(f64::total_cmp);

    LockstepResult {
        label,
        d: D,
        n,
        nnz: a.nnz(),
        gated: D == 3,
        iterations: iters,
        scalar_s,
        lockstep_s,
        ratio: ratios[ROUNDS / 2],
        sweep_us,
    }
}

/// Runs the modeled GPU-sim comparison (deterministic — safe to gate).
fn measure_gpu(iters: usize) -> GpuLeg {
    let (n, half_band) = (20_000, 40); // Q2-3D-like FEM row density
    let a = banded_spd(n, half_band);
    let pre = DiagPrecond::from_diagonal(&a.diagonal());
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).cos()).collect();
    let none = vec![false; n];

    let leg = |fused: bool| {
        let opts = PcgOptions { rel_tol: 0.0, abs_tol: 1e-300, max_iter: iters, fused };
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x = vec![0.0; n];
        let res = GpuPcg { opts }
            .solve(&dev, &a, &pre, &b, &none, &mut x)
            .expect("no faults injected");
        let launches: usize = dev.kernel_summary().iter().map(|&(_, _, c)| c).sum();
        (res.iterations, launches, dev.now(), dev.energy_joules())
    };
    let (it_f, l_f, t_f, e_f) = leg(true);
    let (it_u, l_u, t_u, e_u) = leg(false);
    assert_eq!(it_f, it_u, "pinned iteration counts must agree");

    GpuLeg {
        n,
        half_band,
        iterations: it_f,
        fused_launches: l_f,
        unfused_launches: l_u,
        fused_time_s: t_f,
        unfused_time_s: t_u,
        fused_energy_j: e_f,
        unfused_energy_j: e_u,
    }
}

/// Runs the full sweep. `smoke` shrinks the budget for the CI lane; the
/// shape list and every gate stay complete.
pub fn measure_with_budget(smoke: bool) -> PcgStreaming {
    let iters = if smoke { SMOKE_ITERS } else { FULL_ITERS };
    // Serial drive only: fusion vs launch-per-op, no pool scheduling.
    let (shapes, lockstep) = rayon::Pool::new(1).install(|| {
        let shapes = SHAPES
            .iter()
            .map(|&(n, hb, label, gated)| measure_shape(n, hb, label, gated, iters))
            .collect();
        // The stored `BENCHMARK.json` workloads' matrices: `sedov2d_q2_*`,
        // `sedov3d_q2_gpu`, `sedov3d_q3_stored`.
        let lockstep = vec![
            measure_lockstep::<2>("32^2 Q2", 32, 2, iters),
            measure_lockstep::<3>("8^3 Q2", 8, 2, iters),
            measure_lockstep::<3>("5^3 Q3", 5, 3, iters),
        ];
        (shapes, lockstep)
    });
    let gpu = measure_gpu(if smoke { SMOKE_ITERS } else { 25 });
    PcgStreaming { shapes, lockstep, gpu, fma_active: stream::fma_active(), smoke }
}

/// Full-budget sweep (the experiment registry entry point).
pub fn measure() -> PcgStreaming {
    measure_with_budget(false)
}

/// Renders the human-readable tables.
pub fn render(r: &PcgStreaming) -> String {
    let rows: Vec<Vec<String>> = r
        .shapes
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                format!("{}", s.n),
                format!("{}", s.half_band),
                format!("{:.3}", s.fused_s * 1e3),
                format!("{:.3}", s.unfused_s * 1e3),
                format!("{:.2}x", s.speedup),
            ]
        })
        .collect();
    let mut out = table::render(
        "pcg_streaming — measured fused vs unfused PCG solve time on mass-matrix-like systems (ms, serial)",
        &["order", "n", "band", "fused", "unfused", "speedup"],
        &rows,
    );
    let rows: Vec<Vec<String>> = r
        .lockstep
        .iter()
        .map(|l| {
            vec![
                l.label.to_string(),
                format!("{}", l.d),
                format!("{}", l.n),
                format!("{:.1}", l.nnz as f64 / l.n as f64),
                format!("{:.3}", l.scalar_s * 1e3),
                format!("{:.3}", l.lockstep_s * 1e3),
                format!("{:.2}", l.ratio),
                format!("{:.0} / {:.0} / {:.0}", l.sweep_us[0], l.sweep_us[1], l.sweep_us[2]),
            ]
        })
        .collect();
    out.push('\n');
    out.push_str(&table::render(
        "lock-step momentum solve — d scalar solves vs one lock-step solve on the stored workload matrices (ms, serial)",
        &["matrix", "d", "n", "nnz/row", "d scalar", "lock-step", "ratio", "sweep us d=1/2/3"],
        &rows,
    ));
    let g = &r.gpu;
    out.push_str(&format!(
        "\nGPU-sim leg (n={}, band={}, {} iterations): {} launches vs {} \
         ({:.1} vs {:.1} per iteration), modeled time {:.4}s vs {:.4}s, \
         modeled energy {:.2}J vs {:.2}J (greenup {:.2}x).\n",
        g.n,
        g.half_band,
        g.iterations,
        g.fused_launches,
        g.unfused_launches,
        g.fused_launches as f64 / g.iterations as f64,
        g.unfused_launches as f64 / g.iterations as f64,
        g.fused_time_s,
        g.unfused_time_s,
        g.fused_energy_j,
        g.unfused_energy_j,
        g.greenup(),
    ));
    out.push_str(&format!(
        "FMA streaming clones {}; {ROUNDS} interleaved rounds per shape: times are the \
         best round, speedup the median round's unfused/fused.\n",
        if r.fma_active { "active" } else { "inactive" },
    ));
    out
}

/// Regenerates the artifact.
pub fn report() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn smoke_sweep_covers_all_shapes_and_emits_json() {
        let r = measure_with_budget(true);
        assert_eq!(r.shapes.len(), SHAPES.len());
        for s in &r.shapes {
            assert!(s.fused_s > 0.0 && s.unfused_s > 0.0);
        }
        assert_eq!(r.shapes.iter().filter(|s| s.gated).count(), 3);
        assert_eq!(r.lockstep.iter().map(|l| l.d).collect::<Vec<_>>(), [2, 3, 3]);
        assert!(r.lockstep.iter().all(|l| l.sweep_us.iter().all(|&us| us > 0.0)));
        assert!(r.gpu.iterations > 0);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"pcg_streaming\""));
        assert!(json.contains("\"Q3\""));
        assert!(json.contains("\"lockstep\"") && json.contains("\"5^3 Q3\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    /// The modeled GPU leg is deterministic: fusion must always cut
    /// launches, device time, and energy, in any build profile.
    #[test]
    fn gpu_leg_greenup_is_deterministic() {
        let g = measure_gpu(SMOKE_ITERS);
        assert!(g.fused_launches < g.unfused_launches);
        assert!(g.fused_time_s < g.unfused_time_s);
        assert!(g.fused_energy_j < g.unfused_energy_j);
        assert!(g.greenup() > 1.0);
    }

    /// The ISSUE acceptance gate: fused beats unfused on every order >= 2
    /// shape. Wall-clock — debug builds skip it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn fused_beats_unfused_on_gated_shapes() {
        let r = measure_with_budget(true);
        let fails = r.gate_failures();
        assert!(fails.is_empty(), "{fails:?}");
    }
}
