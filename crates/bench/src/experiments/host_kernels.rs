//! host_kernels — *measured* single-thread wall-clock of the host GEMM
//! micro-kernels on the paper's Table-3 corner-force shapes (kernel 7's
//! `(nvdof, nthermo, npts)` per zone): the pre-tiling naive kernel, the
//! cache-blocked register-tiled generic body `tile::gemm_generic`, and what
//! production runs, `tile::gemm` (at SIMD level 2 its zmm register tile, at
//! lower levels the generic body).
//!
//! The `az_kernels` block measures the other two batched small GEMMs of
//! the stored force evaluation — the host bodies of kernels 3 and 4 —
//! against their point-by-point `reference` oracles, with flops from the
//! kernels' own `traffic()` and each rate also given as a fraction of the
//! best GEMM rate of the same run (the ceiling next door; it fuses each
//! multiply-add, which kernels 3 and 4 forgo to stay bit-identical to
//! their references). The `az_fz` block times kernels 4 and
//! 7 as the solver runs them — one zone loop, each `A_z` multiplied while
//! it is in cache (`FzKernel::compute_fused`) — against the two batch
//! passes that store the whole `A_z` batch and read it back, in ns per
//! zone, outputs asserted bit-equal first. The `point_physics` block is
//! [`super::point_physics`]: the stress half layer by layer — kernels 1, 2,
//! 3, 5, 6 and the matrix-free force against their point-at-a-time
//! references, in ns per point. The `setup` block is
//! [`super::setup_phases`]: the one-time phases of a solver build on the
//! benchmark's 3D workloads, each body against the loop it replaced, in ms.
//!
//! Every number is real hardware time, taken by [`crate::harness`]. Rows
//! and gates: `HostKernels::report` (`BENCH_host_kernels.json`, the CI
//! bench-smoke lane).

use blast_kernels::k3::{self, CoefGradKernel, PointMajorGrads};
use blast_kernels::k4::{self, AzKernel};
use blast_kernels::k7::FzKernel;
use blast_kernels::ProblemShape;
use blast_la::dense::naive;
use blast_la::tile::{self, Op};
use blast_la::{BatchedMats, DMatrix};

use super::point_physics::{self, PointPhysicsResult};
use super::setup_phases::{self, SetupPhaseResult};
use crate::harness::{self, Block, Budget, Cell, Experiment, Gate, Report, Timing};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "host_kernels",
    artifact: Some("BENCH_host_kernels.json"),
    run: |smoke| measure(smoke).report(),
};

/// The Table-3 corner-force `F_z` shapes `(dim, order, label)`: Q1-Q4 in
/// 3D plus the 2D Q4 shape. Each row's GEMM is `gemm_shape`.
pub const SHAPES: [(usize, usize, &str); 5] =
    [(3, 1, "Q1 3D"), (2, 4, "Q4 2D"), (3, 2, "Q2 3D"), (3, 3, "Q3 3D"), (3, 4, "Q4 3D")];

/// Kernel 7's per-zone GEMM `(m, n, k)` = `(nvdof, nthermo, npts)` of a
/// Q`order`-`dim`D problem: `F_z (m x n) = A_z (m x k) B^T`.
fn gemm_shape(dim: usize, order: usize) -> (usize, usize, usize) {
    let shape = ProblemShape::new(dim, order, 1);
    (shape.nvdof(), shape.nthermo, shape.npts)
}

/// The `A_z` kernel shapes `(dim, order, zones, label)`, at the zone counts
/// of the end-to-end benchmark's workloads (32², 8³, 5³) plus Q4 on 3³, so
/// the `A_z` batch has its real size (41.5 MB at Q3-3D) and not a
/// cache-resident one.
const AZ_SHAPES: [(usize, usize, usize, &str); 4] =
    [(2, 2, 1024, "Q2 2D"), (3, 2, 512, "Q2 3D"), (3, 3, 125, "Q3 3D"), (3, 4, 27, "Q4 3D")];

/// Kernels 3 and 4 together must beat their references together by this
/// factor on the gated `A_z` shapes (measured 2.4-5.1x at Q4-3D, 3.9-7.3x
/// at Q3-3D, 4.1-8.6x at Q2-3D over sixty smoke runs). The gate is on the
/// pair because that is what a force evaluation pays, and because kernel 4
/// alone has little room here: timed as a batch, at Q3/Q4-3D its time is
/// the single-core store stream of the 41.5 MB `A_z` batch, which its
/// reference pays too (1.6-2.8x there, against 4.2-6.7x for kernel 3) —
/// while the pair still fails the gate if either kernel falls back to
/// reference speed. The solver pays no such stream: it runs kernel 4 inside
/// kernel 7's zone loop, which the `az_fz` block times.
const AZ_GATE_SPEEDUP: f64 = 2.0;

/// Measured time of kernels 3 and 4 on one shape.
#[derive(Clone, Debug)]
struct AzKernelResult {
    /// Shape label, e.g. `"Q3 3D"`.
    pub label: &'static str,
    /// Spatial dimension.
    pub dim: usize,
    /// Kinematic order.
    pub order: usize,
    /// Zones in the batch.
    pub zones: usize,
    /// 3D of order >= 2 (participates in the CI gate)?
    pub gated: bool,
    /// Flops of one kernel-3 call (`CoefGradKernel::traffic`).
    pub k3_flops: f64,
    /// Flops of one kernel-4 call (`AzKernel::traffic`).
    pub k4_flops: f64,
    /// Variants `CoefGradKernel::compute`, `k3::reference`,
    /// `AzKernel::compute`, `k4::reference`.
    pub t: Timing,
}

impl AzKernelResult {
    /// GFLOP/s of `[k3, k3 reference, k4, k4 reference]`, best round.
    pub fn gflops(&self) -> [f64; 4] {
        let flops = [self.k3_flops, self.k3_flops, self.k4_flops, self.k4_flops];
        std::array::from_fn(|v| flops[v] / self.t.min(v) / 1e9)
    }

    /// Both kernels over both references — the gate metric.
    pub fn speedup(&self) -> f64 {
        self.t.median_ratio(&[1, 3], &[0, 2])
    }
}

/// Measured time of kernels 4 + 7 on one `A_z` shape, two ways.
#[derive(Clone, Debug)]
struct AzFzResult {
    /// Shape label, e.g. `"Q3 3D"`.
    pub label: &'static str,
    /// Zones in the batch.
    pub zones: usize,
    /// 3D of order >= 3 (participates in the CI gate)?
    pub gated: bool,
    /// Variants: two-pass (`AzKernel::compute` into the batch, then
    /// `FzKernel::compute` over it), fused (`FzKernel::compute_fused`).
    pub t: Timing,
}

impl AzFzResult {
    /// Nanoseconds per zone of variant `v`, best round.
    fn ns_per_zone(&self, v: usize) -> f64 {
        self.t.min(v) / self.zones as f64 * 1e9
    }

    /// Fused over two-pass — the gate metric.
    fn ratio(&self) -> f64 {
        self.t.median_ratio(&[1], &[0])
    }
}

/// Timing variants of a [`ShapeResult`]: `dense::naive`, the generic body
/// `tile::gemm_generic`, and what production runs, `tile::gemm`.
const NAIVE: usize = 0;
/// See [`NAIVE`].
const GENERIC: usize = 1;
/// See [`NAIVE`].
const PRODUCTION: usize = 2;

/// Measured throughput on one shape.
#[derive(Clone, Debug)]
struct ShapeResult {
    /// Table-3 label, e.g. `"Q3 3D"`.
    pub label: &'static str,
    /// GEMM rows (velocity dofs per zone).
    pub m: usize,
    /// GEMM columns (thermodynamic basis functions).
    pub n: usize,
    /// Contraction length (quadrature points).
    pub k: usize,
    /// Order >= 2 (participates in the CI gate)?
    pub gated: bool,
    /// 3D of order >= 2 on a SIMD level 2 host: `tile::gemm` runs its zmm
    /// tile and must not lose to the generic body.
    pub production_gated: bool,
    /// Variants [`NAIVE`], [`GENERIC`], [`PRODUCTION`].
    pub t: Timing,
}

impl ShapeResult {
    /// GFLOP/s of variant `v`, best round.
    fn gflops(&self, v: usize) -> f64 {
        (2 * self.m * self.n * self.k) as f64 / self.t.min(v) / 1e9
    }

    /// The generic body over naive — the gate metric.
    pub fn speedup(&self) -> f64 {
        self.t.median_ratio(&[NAIVE], &[GENERIC])
    }

    /// `tile::gemm` over naive.
    fn production_speedup(&self) -> f64 {
        self.t.median_ratio(&[NAIVE], &[PRODUCTION])
    }

    /// `tile::gemm` over the generic body — the production gate metric.
    fn production_vs_generic(&self) -> f64 {
        self.t.median_ratio(&[GENERIC], &[PRODUCTION])
    }
}

/// Full experiment result.
#[derive(Clone, Debug)]
struct HostKernels {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<ShapeResult>,
    /// One entry per [`AZ_SHAPES`] row.
    pub az_kernels: Vec<AzKernelResult>,
    /// One entry per [`AZ_SHAPES`] row.
    pub az_fz: Vec<AzFzResult>,
    /// Two entries (initial, mid-run) per [`point_physics::POINT_SHAPES`] row.
    pub point_physics: Vec<PointPhysicsResult>,
    /// One entry per phase of each [`setup_phases::SETUP_WORKLOADS`] row.
    pub setup: Vec<SetupPhaseResult>,
}

impl HostKernels {
    /// Best GEMM rate of this run, generic body or `tile::gemm` — the
    /// ceiling the `A_z` kernel rates are reported against.
    fn best_tiled_gflops(&self) -> f64 {
        let best = |s: &ShapeResult| s.gflops(GENERIC).max(s.gflops(PRODUCTION));
        self.shapes.iter().map(best).fold(0.0, f64::max)
    }

    /// The rows and gates of this result. Gated: the generic body does not
    /// lose to naive on a shape of order >= 2; at SIMD level 2,
    /// `tile::gemm` does not lose to the generic body on a 3D shape of
    /// order >= 2; kernels 3 and 4
    /// together reach [`AZ_GATE_SPEEDUP`] x their references on such a shape
    /// in 3D; fused kernels 4 + 7 beat the two batch passes on a 3D shape
    /// of order 3 or more; every lock-step per-point body beats its scalar
    /// reference on a mid-run state; at SIMD level 1 or more, `M_V`'s zone
    /// blocks run at twice their reference loop's speed.
    pub fn report(&self) -> Report {
        let peak = self.best_tiled_gflops();
        let mut gates = Vec::new();
        let shapes = self.shapes.iter().map(|s| {
            let (speedup, vs_generic) = (s.speedup(), s.production_vs_generic());
            if s.gated {
                let detail = format!("gemm_generic is {speedup:.2}x naive, need >= 1x");
                gates.push(Gate::new(format!("gemm {}", s.label), speedup >= 1.0, detail));
            }
            if s.production_gated {
                let detail = format!("tile::gemm is {vs_generic:.2}x gemm_generic, need >= 1x");
                let name = format!("gemm production {}", s.label);
                gates.push(Gate::new(name, vs_generic >= 1.0, detail));
            }
            vec![
                Cell::new("label", s.label),
                Cell::new("m", s.m),
                Cell::new("n", s.n),
                Cell::new("k", s.k),
                Cell::new("gated", s.gated),
                Cell::new("naive_gflops", s.gflops(NAIVE)),
                Cell::new("generic_gflops", s.gflops(GENERIC)),
                Cell::times("speedup", speedup),
                Cell::new("production_gflops", s.gflops(PRODUCTION)),
                Cell::times("production_speedup", s.production_speedup()),
                Cell::times("production_vs_generic", vs_generic),
            ]
        });
        let shapes = shapes.collect();
        let az_kernels = self.az_kernels.iter().map(|a| {
            let [k3, k3_ref, k4, k4_ref] = a.gflops();
            let (k3x, k4x) = (a.t.median_ratio(&[1], &[0]), a.t.median_ratio(&[3], &[2]));
            let both = a.speedup();
            if a.gated {
                let detail = format!(
                    "{both:.2}x of reference (k3 {k3x:.2}x, k4 {k4x:.2}x), need {AZ_GATE_SPEEDUP:.1}x"
                );
                let name = format!("az_kernels {}", a.label);
                gates.push(Gate::new(name, both >= AZ_GATE_SPEEDUP, detail));
            }
            vec![
                Cell::new("label", a.label),
                Cell::new("dim", a.dim).hidden(),
                Cell::new("order", a.order).hidden(),
                Cell::new("zones", a.zones),
                Cell::new("gated", a.gated),
                Cell::new("k3_gflops", k3),
                Cell::new("k3_reference_gflops", k3_ref),
                Cell::times("k3_speedup", k3x),
                Cell::new("k3_frac_of_gemm", k3 / peak),
                Cell::new("k4_gflops", k4),
                Cell::new("k4_reference_gflops", k4_ref),
                Cell::times("k4_speedup", k4x),
                Cell::new("k4_frac_of_gemm", k4 / peak),
                Cell::times("speedup", both),
            ]
        });
        let az_kernels = az_kernels.collect();
        let az_fz = self.az_fz.iter().map(|a| {
            let ratio = a.ratio();
            if a.gated {
                let detail = format!("fused / two-pass = {ratio:.2}, need < 1");
                gates.push(Gate::new(format!("az_fz {}", a.label), ratio < 1.0, detail));
            }
            vec![
                Cell::new("label", a.label),
                Cell::new("zones", a.zones),
                Cell::new("gated", a.gated),
                Cell::new("two_pass_ns_per_zone", a.ns_per_zone(0)),
                Cell::new("fused_ns_per_zone", a.ns_per_zone(1)),
                Cell::times("ratio", ratio),
            ]
        });
        let az_fz = az_fz.collect();
        let point_physics = self.point_physics.iter().map(|p| p.row(&mut gates)).collect();
        let setup = self.setup.iter().map(|p| p.row(&mut gates)).collect();
        let summary = vec![
            Cell::new("threads", 1usize),
            Cell::new("best_tiled_gflops", peak),
            Cell::new("az_gate_speedup", AZ_GATE_SPEEDUP),
        ];
        Report {
            blocks: vec![
                Block::table("shapes", "Table-3 GEMM shapes, GFLOP/s, one thread", shapes),
                Block::table("az_kernels", "kernels 3 and 4 vs references, GFLOP/s", az_kernels),
                Block::table("az_fz", "kernels 4 + 7, two-pass vs fused, ns per zone", az_fz),
                Block::table("point_physics", "body vs reference, ns per point", point_physics),
                Block::table("setup", "solver build phases, body vs reference, ms", setup),
                Block::record("summary", "summary", summary),
            ],
            gates,
        }
    }
}

/// Deterministic operand fill.
fn fill(buf: &mut [f64], seed: usize) {
    for (i, v) in buf.iter_mut().enumerate() {
        let s = i.wrapping_mul(2654435761).wrapping_add(seed) % 1000;
        *v = (s as f64 - 500.0) * 1e-3;
    }
}

/// `len` values of [`fill`] with `seed`.
fn filled(len: usize, seed: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    fill(&mut v, seed);
    v
}

/// Kernel 4's inputs on `shape`: the gradient tables, the per-point `S`
/// and the quadrature weights.
fn k4_inputs(shape: &ProblemShape) -> (Vec<DMatrix>, BatchedMats, Vec<f64>) {
    let (dim, nkin, npts, total) = (shape.dim, shape.nkin, shape.npts, shape.total_points());
    let grads =
        (0..dim).map(|g| DMatrix::from_col_major(nkin, npts, filled(nkin * npts, 4 + g))).collect();
    let s = BatchedMats::from_data(dim, dim, total, filled(dim * dim * total, 7));
    (grads, s, filled(npts, 8))
}

/// Measures kernels 3 and 4 and their references on one `A_z` shape.
fn measure_az(
    dim: usize,
    order: usize,
    zones: usize,
    label: &'static str,
    budget: Budget,
) -> AzKernelResult {
    let shape = ProblemShape::new(dim, order, zones);
    let (nkin, npts, total) = (shape.nkin, shape.npts, shape.total_points());
    let ndofs = zones * nkin;
    let zone_dofs: Vec<usize> = (0..ndofs).map(|j| j.wrapping_mul(2654435761) % ndofs).collect();
    let u = filled(dim * ndofs, 3);
    let (grads, s, alpha) = k4_inputs(&shape);
    let table = PointMajorGrads::from_tables(&grads);
    let mut c = BatchedMats::zeros(dim, dim, total);
    let mut az = BatchedMats::zeros(shape.nvdof(), npts, zones);

    let t = harness::time_interleaved(4, budget, &mut |v| match v {
        0 => CoefGradKernel::compute(&shape, &u, ndofs, &zone_dofs, &table, &mut c),
        1 => k3::reference(&shape, &u, ndofs, &zone_dofs, &grads, &mut c),
        2 => AzKernel::compute(&shape, &s, &grads, &alpha, &mut az),
        _ => k4::reference(&shape, &s, &grads, &alpha, &mut az),
    });

    AzKernelResult {
        label,
        dim,
        order,
        zones,
        gated: dim == 3 && order >= 2,
        k3_flops: CoefGradKernel::tuned().traffic(&shape).flops,
        k4_flops: AzKernel::tuned().traffic(&shape).flops,
        t,
    }
}

/// Measures kernels 4 + 7 on one `A_z` shape: the two batch passes
/// against the fused zone loop, after checking they agree to the bit.
fn measure_az_fz(
    dim: usize,
    order: usize,
    zones: usize,
    label: &'static str,
    budget: Budget,
) -> AzFzResult {
    let shape = ProblemShape::new(dim, order, zones);
    let (grads, s, alpha) = k4_inputs(&shape);
    let (nth, npts) = (shape.nthermo, shape.npts);
    let b = DMatrix::from_col_major(nth, npts, filled(nth * npts, 9));
    let mut az = BatchedMats::zeros(shape.nvdof(), npts, zones);
    let two_pass = |az: &mut BatchedMats, fz: &mut BatchedMats| {
        AzKernel::compute(&shape, &s, &grads, &alpha, az);
        FzKernel::compute(&shape, az, &b, fz);
    };
    let fused = |fz: &mut BatchedMats| {
        FzKernel::compute_fused(&shape, &s, &grads, &alpha, &b, fz, None);
    };
    let [mut fz0, mut fz1] = [0, 1].map(|_| BatchedMats::zeros(shape.nvdof(), nth, zones));
    two_pass(&mut az, &mut fz0);
    fused(&mut fz1);
    let bits = |f: &BatchedMats| f.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fz0), bits(&fz1), "{label}: fused and two-pass F_z differ");
    let t = harness::time_interleaved(2, budget, &mut |v| match v {
        0 => two_pass(&mut az, &mut fz0),
        _ => fused(&mut fz1),
    });
    AzFzResult { label, zones, gated: dim == 3 && order >= 3, t }
}

/// Measures one shape: naive, the generic body and `tile::gemm`.
fn measure_shape(
    (dim, order, label): (usize, usize, &'static str),
    budget: Budget,
) -> ShapeResult {
    let (m, n, k) = gemm_shape(dim, order);
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; n * k]; // B^T operand of the NT product: n x k.
    let mut c = vec![0.0; m * n];
    fill(&mut a, 1);
    fill(&mut b, 2);

    let t = harness::time_interleaved(3, budget, &mut |v| match v {
        NAIVE => naive::gemm_nt_raw(m, n, k, 1.0, &a, &b, 0.0, &mut c),
        GENERIC => tile::gemm_generic(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c),
        _ => tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c),
    });
    // Q1 is excluded from the gates: at 24x1x8 a call is a few hundred ns
    // and dispatch overhead dominates any tiling.
    let production_gated = dim == 3 && order >= 2 && blast_la::simd::level() >= 2;
    ShapeResult { label, m, n, k, gated: label != "Q1 3D", production_gated, t }
}

/// Runs the full sweep. `smoke` shrinks the budget (fewer rounds, shorter
/// samples) for the CI bench-smoke lane; the shape list stays complete so
/// the gate still covers every Q2+ shape.
fn measure(smoke: bool) -> HostKernels {
    let budget = if smoke {
        Budget { rounds: 5, sample_s: 2e-4 }
    } else {
        Budget { rounds: 25, sample_s: 1e-3 }
    };
    let shapes = SHAPES.iter().map(|&shape| measure_shape(shape, budget)).collect();
    // The host bodies of kernels 1 to 4 and 7 fan out over the pool; one
    // thread, like the GEMM rows above.
    rayon::Pool::new(1).install(|| {
        let az_kernels = AZ_SHAPES
            .iter()
            .map(|&(dim, order, zones, label)| measure_az(dim, order, zones, label, budget))
            .collect();
        let az_fz = AZ_SHAPES
            .iter()
            .map(|&(dim, order, zones, label)| measure_az_fz(dim, order, zones, label, budget))
            .collect();
        let point_physics = point_physics::measure(budget);
        let setup = setup_phases::measure(budget);
        HostKernels { shapes, az_kernels, az_fz, point_physics, setup }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_telemetry::chrome::Json;

    #[test]
    fn artifact_of_a_hand_made_result_parses_and_gates() {
        // Two rounds; naive 4 s, the generic body 1 s, `tile::gemm` 0.5 s.
        let gemm = |naive: f64, generic: f64, production: f64| {
            Timing::from_samples(vec![vec![naive; 2], vec![generic; 2], vec![production; 2]])
        };
        let az = Timing::from_samples(vec![vec![1.0; 2], vec![5.0; 2], vec![2.0; 2], vec![4.0; 2]]);
        let mut r = HostKernels {
            shapes: vec![ShapeResult {
                label: "Q3 3D",
                m: 192,
                n: 27,
                k: 216,
                gated: true,
                production_gated: true,
                t: gemm(4.0, 1.0, 0.5),
            }],
            az_kernels: vec![AzKernelResult {
                label: "Q3 3D",
                dim: 3,
                order: 3,
                zones: 125,
                gated: true,
                k3_flops: 1e9,
                k4_flops: 2e9,
                t: az,
            }],
            // Two rounds of 25 zones: two-pass 5 s, fused 4 s.
            az_fz: vec![AzFzResult {
                label: "Q3 3D",
                zones: 25,
                gated: true,
                t: Timing::from_samples(vec![vec![5.0; 2], vec![4.0; 2]]),
            }],
            point_physics: Vec::new(),
            setup: Vec::new(),
        };
        assert!(r.report().failures().is_empty());
        let json = harness::render_json(EXPERIMENT.name, true, &r.report());
        let doc = harness::parse_artifact(&json).unwrap();
        let shape = &doc.get("shapes").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(shape.get("label").and_then(Json::as_str), Some("Q3 3D"));
        assert_eq!(shape.get("speedup").and_then(Json::as_f64), Some(4.0));
        let production = shape.get("production_gflops").and_then(Json::as_f64).unwrap();
        assert!((production - 2.0 * 192.0 * 27.0 * 216.0 / 0.5e9).abs() < 1e-6, "{production}");
        assert_eq!(shape.get("production_speedup").and_then(Json::as_f64), Some(8.0));
        assert_eq!(shape.get("production_vs_generic").and_then(Json::as_f64), Some(2.0));
        let az = &doc.get("az_kernels").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(az.get("speedup").and_then(Json::as_f64), Some(3.0));
        assert_eq!(az.get("k4_gflops").and_then(Json::as_f64), Some(1.0));
        let az_fz = &doc.get("az_fz").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(az_fz.get("fused_ns_per_zone").and_then(Json::as_f64), Some(0.16e9));
        assert_eq!(az_fz.get("ratio").and_then(Json::as_f64), Some(0.8));
        assert_eq!(doc.get("gates").and_then(Json::as_arr).unwrap().len(), 4);

        // The generic body losing to naive, `tile::gemm` losing to the
        // generic body, and the fused loop losing to the two passes, each
        // fail their gate by name.
        r.shapes[0].t = gemm(0.5, 1.0, 1.5);
        r.az_fz[0].t = Timing::from_samples(vec![vec![4.0; 2], vec![4.0; 2]]);
        let report = r.report();
        let failed: Vec<_> = report.failures().iter().map(|g| g.name.clone()).collect();
        assert_eq!(failed, ["gemm Q3 3D", "gemm production Q3 3D", "az_fz Q3 3D"]);
        // Below SIMD level 2 `tile::gemm` is the generic body: no gate.
        r.shapes[0].production_gated = false;
        assert_eq!(r.report().gates.len(), 3);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn smoke_sweep_covers_all_shapes() {
        let r = measure(true);
        assert_eq!(r.shapes.len(), SHAPES.len());
        assert_eq!(r.shapes.iter().filter(|s| s.gated).count(), 4);
        assert_eq!(r.az_kernels.len(), AZ_SHAPES.len());
        for a in &r.az_kernels {
            assert!(a.gflops().iter().all(|&gf| gf > 0.0 && gf.is_finite()));
        }
        assert_eq!(r.az_kernels.iter().filter(|a| a.gated).count(), 3);
        assert_eq!(r.az_fz.len(), AZ_SHAPES.len());
        assert_eq!(r.az_fz.iter().filter(|a| a.gated).count(), 2);
        assert_eq!(r.point_physics.len(), 2 * point_physics::POINT_SHAPES.len());
        for p in &r.point_physics {
            assert_eq!(p.gated, p.state == "mid-run");
        }
        // Stored workloads: 5 phases, the matrix-free one 4.
        assert_eq!(r.setup.len(), 14);
        let gated: Vec<&str> =
            r.setup.iter().filter(|p| p.bar.is_some()).map(|p| p.phase).collect();
        let blocks = gated.iter().filter(|&&p| p == "kinematic_blocks").count();
        assert_eq!(blocks, if blast_la::simd::level() >= 1 { 2 } else { 0 });
        assert_eq!(gated.len(), 2 + blocks, "{gated:?}: the two scatter rows are gated");
        // 4 GEMM (+ 3 production at level 2) + 3 A_z + 2 A_z F_z + 3
        // mid-run states (two 3D, one 2D) x 6 stress-half bodies + 2 scatter
        // rows (+ 2 kinematic-block rows at level 1 or more).
        let production = r.shapes.iter().filter(|s| s.production_gated).count();
        assert_eq!(production, if blast_la::simd::level() >= 2 { 3 } else { 0 });
        assert_eq!(r.report().gates.len(), 29 + production + blocks);
    }

    /// Both bodies production runs, the generic one and `tile::gemm`, reach
    /// 2x naive on the Q3/Q4 Table-3 shapes, single thread, release.
    /// Wall clock, and read from the best round of timings taken under
    /// whatever else its test binary runs: it runs alone, in CI's "Tiled GEMM
    /// core, alone" step (`--ignored --test-threads=1`).
    #[test]
    #[ignore = "wall clock: runs alone, release, with --ignored --test-threads=1"]
    fn tiled_core_is_2x_naive_on_q3_q4() {
        let r = measure(false);
        for want in ["Q3 3D", "Q4 3D"] {
            let s = r.shapes.iter().find(|s| s.label == want).unwrap();
            let bodies = [("gemm_generic", s.speedup()), ("tile::gemm", s.production_speedup())];
            for (body, x) in bodies {
                assert!(x >= 2.0, "{want}: {body} is {x:.2}x naive < 2x");
            }
        }
    }
}
