//! host_kernels — *measured* single-thread wall-clock of the host GEMM
//! micro-kernels on the paper's Table-3 corner-force shapes: the
//! pre-tiling naive kernel vs the cache-blocked register-tiled core.
//!
//! The `az_kernels` block measures the other two batched small GEMMs of
//! the stored force evaluation — the host bodies of kernels 3 and 4 —
//! against their point-by-point `reference` oracles, with flops from the
//! kernels' own `traffic()` and each rate also given as a fraction of the
//! best tiled-GEMM rate of the same run (the ceiling next door; it uses
//! FMA where the host has it, which kernels 3 and 4 forgo to stay
//! bit-identical across ISA levels). The `point_physics` block is
//! [`super::point_physics`]: the per-point bodies of kernels 1 and 2 and of
//! the matrix-free force against their point-at-a-time references.
//!
//! Every number is real hardware time, taken by [`crate::harness`]. Rows
//! and gates: [`HostKernels::report`] (`BENCH_host_kernels.json`, the CI
//! bench-smoke lane).

use blast_kernels::k3::{self, CoefGradKernel, PointMajorGrads};
use blast_kernels::k4::{self, AzKernel};
use blast_kernels::ProblemShape;
use blast_la::dense::naive;
use blast_la::tile::{self, Op, CANDIDATES};
use blast_la::{BatchedMats, DMatrix};

use super::point_physics::{self, PointPhysicsResult};
use crate::harness::{self, Block, Budget, Cell, Experiment, Gate, Report, Timing};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "host_kernels",
    artifact: "BENCH_host_kernels.json",
    run: |smoke| measure(smoke).report(),
};

/// The Table-3 corner-force `F_z` shapes `(m, n, k, label)`: Q1-Q4 in 3D
/// plus the 2D Q4 shape (same constants as the tiled-GEMM property tests).
pub const SHAPES: [(usize, usize, usize, &str); 5] = [
    (24, 1, 8, "Q1 3D"),
    (50, 16, 36, "Q4 2D"),
    (81, 8, 64, "Q2 3D"),
    (192, 27, 125, "Q3 3D"),
    (375, 64, 216, "Q4 3D"),
];

/// The `A_z` kernel shapes `(dim, order, zones, label)`, at the zone counts
/// of the end-to-end benchmark's workloads (32², 8³, 5³) plus Q4 on 3³, so
/// the `A_z` batch has its real size (41.5 MB at Q3-3D) and not a
/// cache-resident one.
pub const AZ_SHAPES: [(usize, usize, usize, &str); 4] =
    [(2, 2, 1024, "Q2 2D"), (3, 2, 512, "Q2 3D"), (3, 3, 125, "Q3 3D"), (3, 4, 27, "Q4 3D")];

/// Kernels 3 and 4 together must beat their references together by this
/// factor on the gated `A_z` shapes (measured 2.4-5.1x at Q4-3D, 3.9-7.3x
/// at Q3-3D, 4.1-8.6x at Q2-3D over sixty smoke runs). The gate is on the
/// pair because that is what a force evaluation pays, and because kernel 4 alone has little room: at
/// Q3/Q4-3D its time is the single-core store stream of the 41.5 MB `A_z`
/// batch, which its reference pays too (1.6-2.8x there, against 4.2-6.7x
/// for kernel 3) — while the pair still fails the gate if either kernel
/// falls back to reference speed.
pub const AZ_GATE_SPEEDUP: f64 = 2.0;

/// Measured time of kernels 3 and 4 on one shape.
#[derive(Clone, Debug)]
pub struct AzKernelResult {
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

/// Measured throughput on one shape.
#[derive(Clone, Debug)]
pub struct ShapeResult {
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
    /// Variant 0 is the naive kernel, `1 + i` tile candidate `i`.
    pub t: Timing,
}

impl ShapeResult {
    /// GFLOP/s of variant `v`, best round.
    fn gflops(&self, v: usize) -> f64 {
        (2 * self.m * self.n * self.k) as f64 / self.t.min(v) / 1e9
    }

    /// Index of the fastest tile candidate.
    pub fn tiled_index(&self) -> usize {
        let best =
            (0..CANDIDATES.len()).min_by(|&x, &y| self.t.min(1 + x).total_cmp(&self.t.min(1 + y)));
        best.unwrap_or(0)
    }

    /// Best tiled candidate over naive — the gate metric.
    pub fn speedup(&self) -> f64 {
        self.t.median_ratio(&[0], &[1 + self.tiled_index()])
    }
}

/// Full experiment result.
#[derive(Clone, Debug)]
pub struct HostKernels {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<ShapeResult>,
    /// One entry per [`AZ_SHAPES`] row.
    pub az_kernels: Vec<AzKernelResult>,
    /// Two entries (initial, mid-run) per [`point_physics::POINT_SHAPES`] row.
    pub point_physics: Vec<PointPhysicsResult>,
}

impl HostKernels {
    /// Best tiled-GEMM rate of this run — the ceiling the `A_z` kernel
    /// rates are reported against.
    pub fn best_tiled_gflops(&self) -> f64 {
        self.shapes.iter().map(|s| s.gflops(1 + s.tiled_index())).fold(0.0, f64::max)
    }

    /// The rows and gates of this result. Gated: the best tile candidate
    /// does not lose to naive on a shape of order >= 2; kernels 3 and 4
    /// together reach [`AZ_GATE_SPEEDUP`] x their references on such a shape
    /// in 3D; every lock-step per-point body beats its scalar reference on a
    /// mid-run state.
    pub fn report(&self) -> Report {
        let peak = self.best_tiled_gflops();
        let mut gates = Vec::new();
        let shapes = self.shapes.iter().map(|s| {
            let (cfg, speedup) = (s.tiled_index(), s.speedup());
            if s.gated {
                let detail = format!("tiled cfg{cfg} is {speedup:.2}x naive, need >= 1x");
                gates.push(Gate::new(format!("gemm {}", s.label), speedup >= 1.0, detail));
            }
            vec![
                Cell::new("label", s.label),
                Cell::new("m", s.m),
                Cell::new("n", s.n),
                Cell::new("k", s.k),
                Cell::new("gated", s.gated),
                Cell::new("naive_gflops", s.gflops(0)),
                Cell::new("tiled_gflops", s.gflops(1 + cfg)),
                Cell::new("tiled_candidate", cfg),
                Cell::times("speedup", speedup),
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
        let point_physics = self.point_physics.iter().map(|p| p.row(&mut gates)).collect();
        let summary = vec![
            Cell::new("threads", 1usize),
            Cell::new("best_tiled_gflops", peak),
            Cell::new("az_gate_speedup", AZ_GATE_SPEEDUP),
        ];
        Report {
            blocks: vec![
                Block::table("shapes", "Table-3 GEMM shapes, GFLOP/s, one thread", shapes),
                Block::table("az_kernels", "kernels 3 and 4 vs references, GFLOP/s", az_kernels),
                Block::table("point_physics", "lock-step vs scalar, ns per point", point_physics),
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
    let filled = |len: usize, seed: usize| {
        let mut v = vec![0.0; len];
        fill(&mut v, seed);
        v
    };
    let ndofs = zones * nkin;
    let zone_dofs: Vec<usize> = (0..ndofs).map(|j| j.wrapping_mul(2654435761) % ndofs).collect();
    let u = filled(dim * ndofs, 3);
    let grads: Vec<DMatrix> =
        (0..dim).map(|g| DMatrix::from_col_major(nkin, npts, filled(nkin * npts, 4 + g))).collect();
    let table = PointMajorGrads::from_tables(&grads);
    let s = BatchedMats::from_data(dim, dim, total, filled(dim * dim * total, 7));
    let alpha = filled(npts, 8);
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

/// Measures one shape: naive and the 12 tile candidates.
fn measure_shape(m: usize, n: usize, k: usize, label: &'static str, budget: Budget) -> ShapeResult {
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; n * k]; // B^T operand of the NT product: n x k.
    let mut c = vec![0.0; m * n];
    fill(&mut a, 1);
    fill(&mut b, 2);

    let t = harness::time_interleaved(1 + CANDIDATES.len(), budget, &mut |v| {
        if v == 0 {
            naive::gemm_nt_raw(m, n, k, 1.0, &a, &b, 0.0, &mut c);
        } else {
            let cfg = CANDIDATES[v - 1];
            tile::gemm_tiled_direct(cfg, m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c);
        }
    });
    // Q1 is excluded from the gate: at 24x1x8 a call is a few hundred ns
    // and dispatch overhead dominates any tiling.
    ShapeResult { label, m, n, k, gated: label != "Q1 3D", t }
}

/// Runs the full sweep. `smoke` shrinks the budget (fewer rounds, shorter
/// samples) for the CI bench-smoke lane; the shape list stays complete so
/// the gate still covers every Q2+ shape.
pub fn measure(smoke: bool) -> HostKernels {
    let budget = if smoke {
        Budget { rounds: 5, sample_s: 2e-4 }
    } else {
        Budget { rounds: 25, sample_s: 1e-3 }
    };
    let shapes =
        SHAPES.iter().map(|&(m, n, k, label)| measure_shape(m, n, k, label, budget)).collect();
    // The host bodies of kernels 1 to 4 fan out over the pool; one thread,
    // like the GEMM rows above.
    let (az_kernels, point_physics) = rayon::Pool::new(1).install(|| {
        let az = AZ_SHAPES
            .iter()
            .map(|&(dim, order, zones, label)| measure_az(dim, order, zones, label, budget))
            .collect();
        (az, point_physics::measure(budget))
    });
    HostKernels { shapes, az_kernels, point_physics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_telemetry::chrome::Json;

    #[test]
    fn artifact_of_a_hand_made_result_parses_and_gates() {
        // Two rounds; naive 4 s, candidate 2 the best at 1 s.
        let gemm = |naive: f64| {
            let mut samples = vec![vec![3.0, 3.0]; 1 + CANDIDATES.len()];
            (samples[0], samples[3]) = (vec![naive, naive], vec![1.0, 1.0]);
            Timing::from_samples(samples)
        };
        let az = Timing::from_samples(vec![vec![1.0; 2], vec![5.0; 2], vec![2.0; 2], vec![4.0; 2]]);
        let mut r = HostKernels {
            shapes: vec![ShapeResult {
                label: "Q3 3D",
                m: 192,
                n: 27,
                k: 125,
                gated: true,
                t: gemm(4.0),
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
            point_physics: Vec::new(),
        };
        assert!(r.report().failures().is_empty());
        let json = harness::render_json(EXPERIMENT.name, true, &r.report());
        let doc = harness::parse_artifact(&json).unwrap();
        let shape = &doc.get("shapes").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(shape.get("label").and_then(Json::as_str), Some("Q3 3D"));
        assert_eq!(shape.get("tiled_candidate").and_then(Json::as_f64), Some(2.0));
        assert_eq!(shape.get("speedup").and_then(Json::as_f64), Some(4.0));
        let az = &doc.get("az_kernels").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(az.get("speedup").and_then(Json::as_f64), Some(3.0));
        assert_eq!(az.get("k4_gflops").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("gates").and_then(Json::as_arr).unwrap().len(), 2);

        // The tiled core losing to naive fails its gate by name.
        r.shapes[0].t = gemm(0.5);
        let report = r.report();
        assert_eq!(report.failures().iter().map(|g| &*g.name).collect::<Vec<_>>(), ["gemm Q3 3D"]);
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
        assert_eq!(r.point_physics.len(), 2 * point_physics::POINT_SHAPES.len());
        for p in &r.point_physics {
            assert_eq!(p.gated, p.state == "mid-run");
        }
        // 4 GEMM + 3 A_z + 2 mid-run states x 3 per-point bodies.
        assert_eq!(r.report().gates.len(), 13);
    }

    /// The ISSUE acceptance gate: >= 2x over naive on the Q3/Q4 Table-3
    /// shapes, single thread, release. Wall-clock — debug builds skip it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn tiled_core_is_2x_naive_on_q3_q4() {
        let r = measure(false);
        for want in ["Q3 3D", "Q4 3D"] {
            let s = r.shapes.iter().find(|s| s.label == want).unwrap();
            assert!(s.speedup() >= 2.0, "{want}: tiled is {:.2}x naive < 2x", s.speedup());
        }
    }
}
