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
//!
//! **Lock-step block (measured wall-clock):** the momentum solve's `d`
//! velocity components share one matrix, and the stored host leg advances
//! them in lock step over one `d`-wide CSR row sweep
//! (`pcg_solve_lockstep_ws` / `stream::spmv_constrained_dot_wide`). On the
//! three stored `BENCHMARK.json` matrices — built through
//! `assemble_kinematic_mass`, reflecting walls masked per component —
//! `d` scalar `pcg_solve_ws` solves are timed against one lock-step solve
//! of the same systems, both pinned to the same iteration count and the
//! serial drive; the row sweep alone is timed at `d` = 1, 2 and 3.
//!
//! **Matrix-free lock-step block (measured wall-clock):** the same
//! comparison through the solver's sum-factorized operator
//! (`MatFreeConstrainedOp`, one zone pass feeding every component) on the
//! `sedov3d_q3_matfree` system (5³ Q3, `d` = 3) and a 32² Q2 one (`d` = 2).
//!
//! **GPU-sim leg (modeled, deterministic):** `GpuPcg` fused (3 launches
//! per iteration) vs unfused (8 per iteration) on a Q2-3D-like system —
//! launch counts, modeled device time, and modeled energy from the §6
//! cost model.
//!
//! Rows and gates: `PcgStreaming::report` (`BENCH_pcg_streaming.json`, the
//! CI pcg-stream-smoke lane).

use blast_core::MatFreeConstrainedOp;
use blast_fem::mass::assemble_kinematic_mass;
use blast_fem::{quad_points_1d, CartMesh, H1Space, TensorRule};
use blast_kernels::k9::GpuPcg;
use blast_kernels::sumfac::{SumfacFactors, SumfacMassKernel};
use blast_kernels::ProblemShape;
use blast_la::stream;
use blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_ws, ConstrainedOp, CsrBuilder, CsrMatrix, DiagPrecond,
    PcgOptions, PcgWorkspace,
};
use gpu_sim::{DeviceCatalog, GpuDevice};

use crate::harness::{self, Block, Budget, Cell, Experiment, Gate, Report, Timing};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "pcg_streaming",
    artifact: Some("BENCH_pcg_streaming.json"),
    run: |smoke| measure(smoke).report(),
};

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

/// 15 interleaved rounds in either budget (the smoke budget pins fewer
/// iterations); a solve is one call per sample, a row sweep is repeated.
const BUDGET: Budget = Budget { rounds: 15, sample_s: 2e-3 };

/// Measured host result on one shape.
#[derive(Clone, Debug)]
struct ShapeResult {
    /// FE-order label.
    pub label: &'static str,
    /// System size (DOFs).
    pub n: usize,
    /// Semi-bandwidth.
    pub half_band: usize,
    /// Participates in the CI gate (order >= 2)?
    pub gated: bool,
    /// Seconds per solve: variant 0 fused, 1 unfused.
    pub t: Timing,
}

impl ShapeResult {
    /// Unfused over fused — the gate metric; > 1 means fusion pays off.
    pub fn speedup(&self) -> f64 {
        self.t.median_ratio(&[1], &[0])
    }
}

/// Measured lock-step result on one stored workload matrix.
#[derive(Clone, Debug)]
struct LockstepResult {
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
    /// Seconds per call: variant 0 the `d` scalar solves together, 1 the
    /// one lock-step solve, 2-4 one constrained row sweep + dots feeding
    /// 1, 2 and 3 components.
    pub t: Timing,
}

impl LockstepResult {
    /// Lock-step over scalar — the gate metric; < 1 means one sweep for
    /// all components pays off.
    pub fn ratio(&self) -> f64 {
        self.t.median_ratio(&[1], &[0])
    }
}

/// Measured lock-step result on one matrix-free momentum system.
#[derive(Clone, Debug)]
struct MatfreeLockstepResult {
    /// Mesh and order of the system.
    pub label: &'static str,
    /// Velocity components (systems per momentum solve).
    pub d: usize,
    /// Scalar DOFs per component.
    pub n: usize,
    /// Iterations every solve is pinned to.
    pub iterations: usize,
    /// Seconds per call: variant 0 the `d` scalar solves together, 1 the
    /// one lock-step solve.
    pub t: Timing,
}

impl MatfreeLockstepResult {
    /// Lock-step over scalar — the gate metric; < 1 means one zone pass for
    /// all components pays off.
    pub fn ratio(&self) -> f64 {
        self.t.median_ratio(&[1], &[0])
    }
}

/// Modeled GPU-sim comparison.
#[derive(Clone, Debug)]
struct GpuLeg {
    /// System size (DOFs).
    pub n: usize,
    /// Semi-bandwidth.
    pub half_band: usize,
    /// Iterations both solves ran.
    pub iterations: usize,
    /// Total kernel launches, `[fused, unfused]`.
    pub launches: [usize; 2],
    /// Modeled device time, seconds, `[fused, unfused]`.
    pub time_s: [f64; 2],
    /// Modeled device energy, joules, `[fused, unfused]`.
    pub energy_j: [f64; 2],
}

impl GpuLeg {
    /// Modeled energy greenup (unfused / fused).
    pub fn greenup(&self) -> f64 {
        self.energy_j[1] / self.energy_j[0]
    }
}

/// Full experiment result.
#[derive(Clone, Debug)]
struct PcgStreaming {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<ShapeResult>,
    /// The three stored workload matrices, scalar vs lock-step.
    pub lockstep: Vec<LockstepResult>,
    /// The two matrix-free systems, scalar vs lock-step.
    pub matfree_lockstep: Vec<MatfreeLockstepResult>,
    /// The modeled GPU-sim leg.
    pub gpu: GpuLeg,
}

impl PcgStreaming {
    /// The rows and gates of this result. Gated: fusion does not lose on an
    /// order >= 2 host shape, the lock-step solve beats the scalar solves on
    /// both `d` = 3 matrices and on both matrix-free systems, and fusion
    /// cuts the modeled launch count, device time and energy.
    pub fn report(&self) -> Report {
        let mut gates = Vec::new();
        let shapes = self.shapes.iter().map(|s| {
            if s.gated {
                let detail = format!("unfused / fused = {:.2}x, need >= 1x", s.speedup());
                gates.push(Gate::new(format!("host {}", s.label), s.speedup() >= 1.0, detail));
            }
            vec![
                Cell::new("label", s.label),
                Cell::new("n", s.n),
                Cell::new("half_band", s.half_band),
                Cell::new("gated", s.gated),
                Cell::new("fused_ms", s.t.min(0) * 1e3),
                Cell::new("unfused_ms", s.t.min(1) * 1e3),
                Cell::times("speedup", s.speedup()),
            ]
        });
        let shapes = shapes.collect();
        let lockstep = self.lockstep.iter().map(|l| {
            if l.gated {
                let detail =
                    format!("lock-step / {} scalar solves = {:.2}, need < 1", l.d, l.ratio());
                gates.push(Gate::new(format!("lockstep {}", l.label), l.ratio() < 1.0, detail));
            }
            let mut row = vec![
                Cell::new("label", l.label),
                Cell::new("d", l.d),
                Cell::new("n", l.n),
                Cell::new("nnz", l.nnz),
                Cell::new("gated", l.gated),
                Cell::new("iterations", l.iterations),
                Cell::new("scalar_ms", l.t.min(0) * 1e3),
                Cell::new("lockstep_ms", l.t.min(1) * 1e3),
                Cell::times("ratio", l.ratio()),
            ];
            row.extend((1..=3).map(|d| Cell::new(format!("sweep_d{d}_us"), l.t.min(1 + d) * 1e6)));
            row
        });
        let lockstep = lockstep.collect();
        let matfree = self.matfree_lockstep.iter().map(|l| {
            let detail = format!("lock-step / {} scalar solves = {:.2}, need < 1", l.d, l.ratio());
            gates.push(Gate::new(format!("matfree lockstep {}", l.label), l.ratio() < 1.0, detail));
            vec![
                Cell::new("label", l.label),
                Cell::new("d", l.d),
                Cell::new("n", l.n),
                Cell::new("iterations", l.iterations),
                Cell::new("scalar_ms", l.t.min(0) * 1e3),
                Cell::new("lockstep_ms", l.t.min(1) * 1e3),
                Cell::times("ratio", l.ratio()),
            ]
        });
        let matfree = matfree.collect();
        let g = &self.gpu;
        for (what, [fused, unfused]) in [
            ("launches", g.launches.map(|l| l as f64)),
            ("modeled time", g.time_s),
            ("modeled energy", g.energy_j),
        ] {
            let detail = format!("fused {fused:.4} vs unfused {unfused:.4}, need fused < unfused");
            gates.push(Gate::new(format!("gpu {what}"), fused < unfused, detail));
        }
        let gpu = vec![
            Cell::new("n", g.n),
            Cell::new("half_band", g.half_band),
            Cell::new("iterations", g.iterations),
            Cell::new("fused_launches", g.launches[0]),
            Cell::new("unfused_launches", g.launches[1]),
            Cell::new("fused_time_s", g.time_s[0]),
            Cell::new("unfused_time_s", g.time_s[1]),
            Cell::new("fused_energy_j", g.energy_j[0]),
            Cell::new("unfused_energy_j", g.energy_j[1]),
            Cell::times("greenup", g.greenup()),
        ];
        Report {
            blocks: vec![
                Block::table("shapes", "fused vs unfused PCG solve, ms, serial", shapes),
                Block::table("lockstep", "d scalar vs one lock-step solve, ms, serial", lockstep),
                Block::table(
                    "matfree_lockstep",
                    "matrix-free: d scalar vs one lock-step solve, ms, serial",
                    matfree,
                ),
                Block::record("gpu", "modeled fused vs launch-per-op GpuPcg", gpu),
            ],
            gates,
        }
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
/// iterations.
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
    let opts = [fused, PcgOptions { fused: false, ..fused }];
    let mut ws = PcgWorkspace::new();
    let mut x = vec![0.0; n];
    // The warm-up call grows the workspace and faults the pages in.
    let t = harness::time_interleaved(2, BUDGET, &mut |v| {
        x.fill(0.0);
        pcg_solve_ws(&mut (&a), &pre, &b, &mut x, &opts[v], &mut ws);
    });
    ShapeResult { label, n, half_band, gated, t }
}

/// Measures one workload matrix: `D` scalar solves vs one lock-step solve
/// pinned to `iters` iterations, and the row sweep at 1, 2 and 3
/// components.
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
    let a =
        assemble_kinematic_mass(&space, &rule, &table, &vec![detj; mesh.num_zones() * rule.len()]);
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
        for c in 0..D {
            let at = c * n..(c + 1) * n;
            ws.with_operator_scratch(n, |tmp, ws| {
                let mut op = ConstrainedOp { a: &a, masks: &masks[c..c + 1], tmp };
                pcg_solve_ws(&mut op, &pre, &b[at.clone()], &mut x[at], &opts, ws)
            });
        }
    };
    let lockstep = |ws: &mut PcgWorkspace, x: &mut [f64]| {
        x.fill(0.0);
        ws.with_operator_scratch(stream::wide_lanes(D) * n, |tmp, ws| {
            let mut op = ConstrainedOp { a: &a, masks: &masks[..D], tmp };
            pcg_solve_lockstep_ws::<D, _>(&mut op, &pre, &b[..D * n], x, &opts, ws)
        });
    };
    let mut y = vec![0.0; 3 * n];
    let mut tmp = vec![0.0; 4 * n];
    let mut sweep = |d: usize| {
        let mut dots = [0.0; 3];
        stream::spmv_constrained_dot_wide(
            &a,
            &b[..d * n],
            &masks[..d],
            &mut tmp[..stream::wide_lanes(d) * n],
            &mut y[..d * n],
            &mut dots[..d],
        );
        std::hint::black_box(dots);
    };

    // The equivalence the timing rests on.
    scalar(&mut ws, &mut x);
    let x_scalar = x.clone();
    lockstep(&mut ws, &mut x);
    assert_eq!(x, x_scalar, "{label}: lock-step and scalar solves must agree bit for bit");

    let t = harness::time_interleaved(5, BUDGET, &mut |v| match v {
        0 => scalar(&mut ws, &mut x),
        1 => lockstep(&mut ws, &mut x),
        _ => sweep(v - 1),
    });
    LockstepResult { label, d: D, n, nnz: a.nnz(), gated: D == 3, iterations: iters, t }
}

/// Measures one matrix-free momentum system (unit `zones^D` mesh, `rho0 =
/// 1`, reflecting walls masked per component): `D` scalar solves vs one
/// lock-step solve, pinned to `iters` iterations.
fn measure_matfree_lockstep<const D: usize>(
    label: &'static str,
    zones: usize,
    order: usize,
    iters: usize,
) -> MatfreeLockstepResult {
    let mesh = CartMesh::<D>::unit(zones);
    let space = H1Space::new(mesh.clone(), order);
    let rule = TensorRule::<D>::gauss(quad_points_1d(order));
    let nz = mesh.num_zones();
    let shape = ProblemShape::new(D, order, nz);
    let factors = SumfacFactors::for_shape(&shape);
    let detj: f64 = mesh.zone_size().iter().product();
    let svals: Vec<f64> =
        (0..nz * rule.len()).map(|p| rule.weights[p % rule.len()] * detj).collect();
    let zone_dofs: Vec<usize> = (0..nz).flat_map(|z| space.zone_dofs(z).to_vec()).collect();
    let n = space.num_dofs();
    let pre = DiagPrecond::from_diagonal(
        &SumfacMassKernel.diagonal(&shape, &factors, &svals, &zone_dofs, n),
    );
    let masks: Vec<Vec<bool>> = (0..D)
        .map(|c| {
            let mut mask = vec![false; n];
            space.boundary_dofs(c).into_iter().for_each(|i| mask[i] = true);
            mask
        })
        .collect();
    let masks: Vec<&[bool]> = masks.iter().map(|m| &m[..]).collect();
    let mut b: Vec<f64> = (0..D * n).map(|i| (i as f64 * 0.013).sin()).collect();
    for (bc, mask) in b.chunks_exact_mut(n).zip(&masks) {
        bc.iter_mut().zip(*mask).filter(|(_, &m)| m).for_each(|(x, _)| *x = 0.0);
    }
    let opts = PcgOptions { rel_tol: 0.0, abs_tol: 1e-300, max_iter: iters, fused: true };
    let mut ws = PcgWorkspace::new();
    let mut local = Vec::new();
    let mut x = vec![0.0; D * n];
    // Variant 0: the `D` scalar solves, one mask each; 1: one lock-step solve.
    let mut solve = |v: usize, x: &mut [f64], ws: &mut PcgWorkspace| {
        x.fill(0.0);
        let mut op = MatFreeConstrainedOp {
            shape: &shape,
            factors: &factors,
            svals: &svals,
            zone_dofs: &zone_dofs,
            n,
            masks: &masks,
            local: &mut local,
        };
        if v == 1 {
            pcg_solve_lockstep_ws::<D, _>(&mut op, &pre, &b, x, &opts, ws);
        } else {
            for (c, (bc, xc)) in b.chunks_exact(n).zip(x.chunks_exact_mut(n)).enumerate() {
                op.masks = &masks[c..c + 1];
                pcg_solve_ws(&mut op, &pre, bc, xc, &opts, ws);
            }
        }
    };
    // The equivalence the timing rests on.
    solve(0, &mut x, &mut ws);
    let x_scalar = x.clone();
    solve(1, &mut x, &mut ws);
    assert_eq!(x, x_scalar, "{label}: lock-step and scalar solves must agree bit for bit");

    let t = harness::time_interleaved(2, BUDGET, &mut |v| solve(v, &mut x, &mut ws));
    MatfreeLockstepResult { label, d: D, n, iterations: iters, t }
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
        let res =
            GpuPcg { opts }.solve(&dev, &a, &pre, &b, &none, &mut x).expect("no faults injected");
        let launches: usize = dev.kernel_summary().iter().map(|&(_, _, c)| c).sum();
        (res.iterations, launches, dev.now(), dev.energy_joules())
    };
    let (f, u) = (leg(true), leg(false));
    assert_eq!(f.0, u.0, "pinned iteration counts must agree");
    let (launches, time_s, energy_j) = ([f.1, u.1], [f.2, u.2], [f.3, u.3]);
    GpuLeg { n, half_band, iterations: f.0, launches, time_s, energy_j }
}

/// Runs the full sweep. `smoke` shrinks the budget for the CI lane; the
/// shape list and every gate stay complete.
fn measure(smoke: bool) -> PcgStreaming {
    let iters = if smoke { SMOKE_ITERS } else { FULL_ITERS };
    // Serial drive only: fusion vs launch-per-op, no pool scheduling.
    let (shapes, lockstep, matfree_lockstep) = rayon::Pool::new(1).install(|| {
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
        // `sedov3d_q3_matfree`'s system and a 2D one.
        let matfree = vec![
            measure_matfree_lockstep::<2>("32^2 Q2", 32, 2, iters),
            measure_matfree_lockstep::<3>("5^3 Q3", 5, 3, iters),
        ];
        (shapes, lockstep, matfree)
    });
    let gpu = measure_gpu(if smoke { SMOKE_ITERS } else { 25 });
    PcgStreaming { shapes, lockstep, matfree_lockstep, gpu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_telemetry::chrome::Json;

    #[test]
    fn artifact_of_a_hand_made_result_parses_and_gates() {
        let pair = |a: f64, b: f64| vec![vec![a; 3], vec![b; 3]];
        let mut r = PcgStreaming {
            shapes: vec![ShapeResult {
                label: "Q3",
                n: 200_000,
                half_band: 3,
                gated: true,
                t: Timing::from_samples(pair(0.02, 0.022)),
            }],
            lockstep: vec![LockstepResult {
                label: "5^3 Q3",
                d: 3,
                n: 4096,
                nnz: 438_976,
                gated: true,
                iterations: 12,
                t: Timing::from_samples([pair(0.016, 0.006), vec![vec![4e-4; 3]; 3]].concat()),
            }],
            matfree_lockstep: vec![MatfreeLockstepResult {
                label: "5^3 Q3",
                d: 3,
                n: 4096,
                iterations: 12,
                t: Timing::from_samples(pair(0.004, 0.003)),
            }],
            gpu: measure_gpu(SMOKE_ITERS),
        };
        assert!(r.report().failures().is_empty());
        let json = harness::render_json(EXPERIMENT.name, true, &r.report());
        let doc = harness::parse_artifact(&json).unwrap();
        let shape = &doc.get("shapes").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(shape.get("label").and_then(Json::as_str), Some("Q3"));
        assert_eq!(shape.get("speedup").and_then(Json::as_f64), Some(1.1));
        let lock = &doc.get("lockstep").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(lock.get("label").and_then(Json::as_str), Some("5^3 Q3"));
        assert_eq!(lock.get("ratio").and_then(Json::as_f64), Some(0.375));
        assert_eq!(lock.get("sweep_d3_us").and_then(Json::as_f64), Some(400.0));
        let matfree = &doc.get("matfree_lockstep").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(matfree.get("ratio").and_then(Json::as_f64), Some(0.75));
        let gpu = doc.get("gpu").unwrap();
        assert_eq!(gpu.get("fused_launches").and_then(Json::as_f64), Some(40.0));
        assert_eq!(doc.get("gates").and_then(Json::as_arr).unwrap().len(), 6);

        // Fusion losing on a gated shape, and lock-step losing on d = 3,
        // stored and matrix-free.
        r.shapes[0].t = Timing::from_samples(pair(0.022, 0.02));
        r.lockstep[0].t =
            Timing::from_samples([pair(0.006, 0.016), vec![vec![4e-4; 3]; 3]].concat());
        r.matfree_lockstep[0].t = Timing::from_samples(pair(0.003, 0.004));
        let report = r.report();
        let failed: Vec<&str> = report.failures().iter().map(|g| &*g.name).collect();
        assert_eq!(failed, ["host Q3", "lockstep 5^3 Q3", "matfree lockstep 5^3 Q3"]);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn smoke_sweep_covers_all_shapes() {
        let r = measure(true);
        assert_eq!(r.shapes.len(), SHAPES.len());
        assert_eq!(r.shapes.iter().filter(|s| s.gated).count(), 3);
        assert_eq!(r.lockstep.iter().map(|l| l.d).collect::<Vec<_>>(), [2, 3, 3]);
        assert!(r.lockstep.iter().all(|l| (0..5).all(|v| l.t.min(v) > 0.0)));
        assert_eq!(r.matfree_lockstep.iter().map(|l| l.d).collect::<Vec<_>>(), [2, 3]);
        assert!(r.gpu.iterations > 0);
        // The acceptance gate: fused beats unfused on every order >= 2
        // shape, lock-step beats scalar on both d = 3 matrices and on both
        // matrix-free systems.
        let report = r.report();
        assert!(report.failures().is_empty(), "{:?}", report.failures());
    }

    /// The modeled GPU leg is deterministic: fusion must always cut
    /// launches, device time, and energy, in any build profile.
    #[test]
    fn gpu_leg_greenup_is_deterministic() {
        let g = measure_gpu(SMOKE_ITERS);
        assert!(g.launches[0] < g.launches[1]);
        assert!(g.time_s[0] < g.time_s[1]);
        assert!(g.energy_j[0] < g.energy_j[1]);
        assert!(g.greenup() > 1.0);
    }
}
