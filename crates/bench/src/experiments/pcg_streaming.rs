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
//! **GPU-sim leg (modeled, deterministic):** `GpuPcg` fused (3 launches
//! per iteration) vs unfused (8 per iteration) on a Q2-3D-like system —
//! launch counts, modeled device time, and modeled energy from the §6
//! cost model.
//!
//! The binary (`cargo run -p blast-bench --release --bin pcg_streaming`)
//! writes `BENCH_pcg_streaming.json` and exits non-zero if fusion loses on
//! any order >= 2 host shape or fails to cut the modeled launch count /
//! device time / energy — the CI pcg-stream-smoke gate.

use std::time::Instant;

use blast_kernels::k9::GpuPcg;
use blast_la::stream;
use blast_la::{pcg_solve_ws, CsrBuilder, CsrMatrix, DiagPrecond, PcgOptions, PcgWorkspace};
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
    /// The modeled GPU-sim leg.
    pub gpu: GpuLeg,
    /// Whether FMA streaming clones were active.
    pub fma_active: bool,
    /// Whether the reduced smoke budget was used.
    pub smoke: bool,
}

impl PcgStreaming {
    /// Gate: fused must beat unfused on every order >= 2 host shape, and
    /// the modeled GPU leg must cut launches, device time, and energy.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
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
        let g = &self.gpu;
        format!(
            "{{\n  \"experiment\": \"pcg_streaming\",\n  \"fma_active\": {},\n  \
             \"smoke\": {},\n  \"shapes\": [\n{}\n  ],\n  \"gpu\": {{\n    \
             \"n\": {}, \"half_band\": {}, \"iterations\": {},\n    \
             \"fused_launches\": {}, \"unfused_launches\": {},\n    \
             \"fused_time_s\": {:.6}, \"unfused_time_s\": {:.6},\n    \
             \"fused_energy_j\": {:.4}, \"unfused_energy_j\": {:.4}, \
             \"greenup\": {:.4}\n  }}\n}}\n",
            self.fma_active,
            self.smoke,
            rows.join(",\n"),
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
    let shapes = rayon::Pool::new(1).install(|| {
        SHAPES
            .iter()
            .map(|&(n, hb, label, gated)| measure_shape(n, hb, label, gated, iters))
            .collect()
    });
    let gpu = measure_gpu(if smoke { SMOKE_ITERS } else { 25 });
    PcgStreaming { shapes, gpu, fma_active: stream::fma_active(), smoke }
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
        assert!(r.gpu.iterations > 0);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"pcg_streaming\""));
        assert!(json.contains("\"Q3\""));
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
