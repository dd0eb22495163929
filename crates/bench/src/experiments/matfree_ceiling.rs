//! matfree_ceiling — the matrix-free sum-factorization experiment: break
//! the paper's §4.1 Q4-Q3 memory ceiling.
//!
//! **Host leg (measured wall-clock):** the *differential* per-zone work
//! of the two assemblies — the stored path's `A_z` materialization +
//! `F_z` GEMM against the sum-factorized evaluation chains — per
//! `(dimension, order)`, timed by [`crate::harness`]. The per-point physics
//! (EOS, geometry, viscosity) is identical in both modes and is excluded.
//! The gate requires matrix-free to win on every gated shape (see
//! [`SHAPES`]): past the memory ceiling matrix-free is the only mode that
//! runs, and this is the evidence it is also the faster one there.
//!
//! **Ceiling leg (gpu-sim, deterministic physics):** Q4-Q3 3D on the K20
//! device model, above the 16³ limit of Table 8 (24³ smoke / 32³ full).
//! The stored build must fail with the *typed* `OutOfMemory` error —
//! both byte counts populated — and the matrix-free build must run real
//! time steps on the same device, with the modeled launch/DRAM accounting
//! capturing the flop/byte shift (force traffic collapse, SpMV-free mass
//! applies at higher arithmetic intensity, resident-bytes collapse).
//!
//! The gates are in `BENCH_matfree.json` (the CI matfree-smoke lane).

use std::sync::Arc;

use blast_core::exec::{
    cg_iteration_traffic, cg_iteration_traffic_matfree, corner_force_traffic,
    corner_force_traffic_matfree,
};
use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, HydroError, Sedov};
use blast_fem::sumfac::{backward, forward, SumfacScratch};
use blast_kernels::sumfac::{SumfacFactors, SumfacMassKernel};
use blast_kernels::ProblemShape;
use blast_la::tile::{self, Op};
use blast_la::PcgOptions;
use gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

use crate::harness::{self, Block, Budget, Cell, Experiment, Gate, Report, Timing};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "matfree_ceiling",
    artifact: "BENCH_matfree.json",
    run: |smoke| measure(smoke).report(),
};

/// Host proxy shapes `(dim, order, gated)`. Gated: every 3D order >= 3
/// shape plus 2D Q4 — the shapes where the per-zone batch is large enough
/// that sum-factorization must win for the tentpole to hold. 2D Q2/Q3 and
/// 3D Q2 are reported but allowed to go either way: their stored batches
/// are small (cache-resident `A_z`, tiny GEMMs), the stored path
/// legitimately wins, and no 2D low-order problem is anywhere near the
/// memory ceiling.
pub const SHAPES: [(usize, usize, bool); 6] =
    [(2, 2, false), (2, 3, false), (2, 4, true), (3, 2, false), (3, 3, true), (3, 4, true)];

/// Measured host proxy result on one `(dim, order)` shape.
#[derive(Clone, Debug)]
struct HostShape {
    /// Mesh dimension.
    pub dim: usize,
    /// FE order `k`.
    pub order: usize,
    /// Participates in the CI gate (3D order >= 3, 2D Q4)?
    pub gated: bool,
    /// Seconds per zone: variant 0 the stored proxy, 1 the matrix-free one.
    pub t: Timing,
}

impl HostShape {
    /// Stored over matrix-free — the gate metric; > 1 means the
    /// sum-factorized path pays off.
    pub fn speedup(&self) -> f64 {
        self.t.median_ratio(&[0], &[1])
    }
}

/// Deterministic cost-model facts at the ceiling shape (no measurement).
#[derive(Clone, Debug)]
struct ModeledShift {
    /// Corner-force flops, stored over matrix-free (the `A_z`/`F_z` GEMM
    /// collapse).
    pub force_flops_ratio: f64,
    /// Corner-force DRAM bytes, stored over matrix-free.
    pub force_dram_ratio: f64,
    /// Corner-force arithmetic intensity (flops per DRAM byte), stored.
    pub force_ai_stored: f64,
    /// Corner-force arithmetic intensity, matrix-free.
    pub force_ai_matfree: f64,
    /// Mass-apply (CG iteration) arithmetic intensity, stored CSR SpMV.
    pub mass_ai_stored: f64,
    /// Mass-apply arithmetic intensity, sum-factorized (SpMV-free).
    pub mass_ai_matfree: f64,
    /// Modeled device-resident bytes, stored path.
    pub stored_resident: usize,
    /// Modeled device-resident bytes, matrix-free path.
    pub matfree_resident: usize,
}

/// The gpu-sim ceiling run.
#[derive(Clone, Debug)]
struct CeilingLeg {
    /// Zones per axis of the Q4-Q3 3D mesh.
    pub zones_axis: usize,
    /// Device DRAM capacity (K20: 5 GiB).
    pub capacity: usize,
    /// Did the stored build fail with the typed OOM?
    pub stored_oom: bool,
    /// The stored build's error message (must carry both byte counts).
    pub oom_message: String,
    /// `required` from the typed error (0 when the build unexpectedly
    /// succeeded).
    pub oom_required: usize,
    /// Time steps the matrix-free build completed.
    pub matfree_steps: usize,
    /// Simulation time reached.
    pub final_t: f64,
    /// Modeled device time of the matrix-free run, seconds.
    pub device_time_s: f64,
    /// Modeled device energy of the matrix-free run, joules.
    pub device_energy_j: f64,
    /// The cost-model facts at this shape.
    pub modeled: ModeledShift,
}

/// Full experiment result.
#[derive(Clone, Debug)]
struct MatfreeCeiling {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<HostShape>,
    /// The gpu-sim ceiling leg.
    pub ceiling: CeilingLeg,
}

impl MatfreeCeiling {
    /// The rows and gates of this result. Gated: matrix-free wins every
    /// gated host proxy, the stored Q4 ceiling build fails with the typed
    /// OOM, the matrix-free build runs, and the modeled shift holds (>= 10x
    /// force flop *and* DRAM collapse, > 4x mass-apply intensity, resident
    /// bytes straddling the device capacity). Corner-force arithmetic
    /// *intensity* is deliberately not gated — the stored `k7` GEMM is
    /// already high-AI, the win is doing 10x less of everything.
    pub fn report(&self) -> Report {
        let mut gates = Vec::new();
        let shapes = self.shapes.iter().map(|s| {
            if s.gated {
                let detail = format!("stored / matrix-free = {:.2}x, need >= 1x", s.speedup());
                let name = format!("host {}D Q{}", s.dim, s.order);
                gates.push(Gate::new(name, s.speedup() >= 1.0, detail));
            }
            vec![
                Cell::new("dim", s.dim),
                Cell::new("order", s.order),
                Cell::new("gated", s.gated),
                Cell::new("stored_us", s.t.min(0) * 1e6),
                Cell::new("matfree_us", s.t.min(1) * 1e6),
                Cell::times("speedup", s.speedup()),
            ]
        });
        let shapes = shapes.collect();
        let (c, m) = (&self.ceiling, &self.ceiling.modeled);
        let oom = c.stored_oom && c.oom_message.contains("out of device memory");
        gates.push(Gate::new("ceiling: stored build returns OutOfMemory", oom, &*c.oom_message));
        let ran = c.matfree_steps > 0 && c.final_t.is_finite() && c.final_t > 0.0;
        let steps = format!("{} step(s) to t = {:.3e}", c.matfree_steps, c.final_t);
        gates.push(Gate::new("ceiling: matrix-free build completes steps", ran, steps));
        let (ff, fd, cap) = (m.force_flops_ratio, m.force_dram_ratio, c.capacity);
        let (mass, spmv) = (m.mass_ai_matfree, m.mass_ai_stored);
        let (stored, matfree) = (m.stored_resident, m.matfree_resident);
        for (name, ok, detail) in [
            ("force flop collapse", ff >= 10.0, format!("{ff:.1}x, need >= 10x")),
            ("force DRAM collapse", fd >= 10.0, format!("{fd:.1}x, need >= 10x")),
            ("mass-apply intensity", mass >= 4.0 * spmv, format!("{mass:.2} vs {spmv:.2} flop/B")),
            ("stored bytes exceed the device", stored > cap, format!("{stored} B vs {cap} B")),
            ("matrix-free bytes fit the device", matfree <= cap, format!("{matfree} B vs {cap} B")),
        ] {
            gates.push(Gate::new(name, ok, detail));
        }
        let ceiling = vec![
            Cell::new("zones_axis", c.zones_axis),
            Cell::new("capacity_bytes", c.capacity),
            Cell::new("stored_oom", c.stored_oom),
            Cell::new("oom_required_bytes", c.oom_required),
            Cell::new("matfree_steps", c.matfree_steps),
            Cell::new("final_t", c.final_t),
            Cell::new("device_time_s", c.device_time_s),
            Cell::new("device_energy_j", c.device_energy_j),
            Cell::new("stored_resident_bytes", m.stored_resident),
            Cell::new("matfree_resident_bytes", m.matfree_resident),
            Cell::times("force_flops_ratio", m.force_flops_ratio),
            Cell::times("force_dram_ratio", m.force_dram_ratio),
            Cell::new("force_ai_stored", m.force_ai_stored),
            Cell::new("force_ai_matfree", m.force_ai_matfree),
            Cell::new("mass_ai_stored", m.mass_ai_stored),
            Cell::new("mass_ai_matfree", m.mass_ai_matfree),
        ];
        Report {
            blocks: vec![
                Block::table("shapes", "stored vs matrix-free force proxy, us per zone", shapes),
                Block::record("ceiling", "Q4-Q3 3D ceiling on the K20 model", ceiling),
            ],
            gates,
        }
    }
}

/// The deterministic cost-model shift at a Q4-Q3 3D `za³` mesh: traffic
/// ratios from the kernel models, resident bytes from the builder's
/// estimators. Pure arithmetic — identical in every build profile.
fn modeled_shift(zones_axis: usize) -> ModeledShift {
    let nz = zones_axis.pow(3);
    let shape = ProblemShape::new(3, 4, nz);
    let n = (4 * zones_axis + 1).pow(3);
    let factors = SumfacFactors::new(3, 4);

    let stored = corner_force_traffic(&shape);
    let matfree = corner_force_traffic_matfree(&shape, &factors);

    // The stored mass matrix cannot be assembled at this shape (that is
    // the point), so its SpMV traffic uses the same FEM sparsity estimate
    // as the footprint model: `(2k+1)^3` stencil entries per row.
    let nnz_est = n * (2 * 4 + 1usize).pow(3);
    let spmv = cg_iteration_traffic(nnz_est, n);
    let sumfac =
        cg_iteration_traffic_matfree(&SumfacMassKernel.traffic(&shape, &factors, n), n, false);

    let req = Hydro::<3>::builder(&Sedov::default(), [zones_axis; 3]).order(4).required_bytes();

    ModeledShift {
        force_flops_ratio: stored.flops / matfree.flops,
        force_dram_ratio: stored.dram_bytes / matfree.dram_bytes,
        force_ai_stored: stored.flops / stored.dram_bytes,
        force_ai_matfree: matfree.flops / matfree.dram_bytes,
        mass_ai_stored: spmv.flops / spmv.dram_bytes,
        mass_ai_matfree: sumfac.flops / sumfac.dram_bytes,
        stored_resident: req.stored,
        matfree_resident: req.matrix_free,
    }
}

/// Runs the gpu-sim ceiling leg at a Q4-Q3 3D `za³` mesh on the K20 model.
fn measure_ceiling(zones_axis: usize, steps: usize) -> CeilingLeg {
    let problem = Sedov::default();
    let capacity = DeviceCatalog::gpu("k20").dram_capacity;
    let gpu_exec = |dev: &Arc<GpuDevice>| {
        Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(dev.clone()),
        )
    };

    // Stored: must fail with the typed OOM before any assembly work.
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    let (stored_oom, oom_message, oom_required) =
        match Hydro::<3>::builder(&problem, [zones_axis; 3])
            .order(4)
            .executor(gpu_exec(&dev))
            .assembly(AssemblyMode::Stored)
            .build()
        {
            Err(e @ HydroError::OutOfMemory { required, .. }) => (true, e.to_string(), required),
            Err(e) => (false, e.to_string(), 0),
            Ok(_) => (false, String::from("build unexpectedly succeeded"), 0),
        };

    // Matrix-free: build on a fresh device and run real steps. Loose PCG
    // keeps the (single-core) run short; the physics is still the real
    // RK2-average scheme end to end.
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    let pcg = PcgOptions { rel_tol: 1e-6, max_iter: 400, ..PcgOptions::default() };
    let mut hydro = Hydro::<3>::builder(&problem, [zones_axis; 3])
        .order(4)
        .executor(gpu_exec(&dev))
        .assembly(AssemblyMode::MatrixFree)
        .pcg(pcg)
        .build()
        .expect("matrix-free Q4 fits the K20 where stored cannot");
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    let mut done = 0;
    for _ in 0..steps {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
        done += 1;
    }

    CeilingLeg {
        zones_axis,
        capacity,
        stored_oom,
        oom_message,
        oom_required,
        matfree_steps: done,
        final_t: state.t,
        device_time_s: dev.now(),
        device_energy_j: dev.energy_joules(),
        modeled: modeled_shift(zones_axis),
    }
}

/// The *stored-mode differential* work for one zone: the `F_z`
/// contraction (`nvdof x nthermo` from `nvdof x npts`, kernel 7) plus the
/// `A_z` batch fill the matrix-free path never performs (kernel 4's
/// `nvdof x npts` write).
fn stored_proxy(shape: &ProblemShape, bt: &[f64], az: &mut [f64], fz: &mut [f64]) {
    let nvdof = shape.nvdof();
    // Kernel-4 stand-in: the A_z batch materialization.
    for (i, a) in az.iter_mut().enumerate() {
        *a = (i % 97) as f64 * 1.0e-2;
    }
    // Kernel-7 stand-in: F_z = A_z B^T (shapes after transposition).
    tile::gemm(nvdof, shape.nthermo, shape.npts, 1.0, az, Op::N, bt, Op::T, 0.0, fz);
}

/// The *matrix-free differential* work for one zone: `2d²` forward
/// gradient transforms (geometry + velocity), `d²` backward transforms
/// (momentum), one thermo forward and one thermo backward (energy
/// interpolation + projection) — the real [`blast_fem::sumfac`] chains.
fn matfree_proxy(
    shape: &ProblemShape,
    f: &SumfacFactors,
    u: &[f64],
    et: &[f64],
    q: &mut [f64],
    out_kin: &mut [f64],
    out_thermo: &mut [f64],
    ws: &mut SumfacScratch,
) {
    let d = shape.dim;
    for g in 0..d {
        for c in 0..d {
            let comp = &u[c * shape.nkin..(c + 1) * shape.nkin];
            forward(&f.kin, d, comp, Some(g), q, ws);
            forward(&f.kin, d, comp, Some(g), q, ws);
        }
        backward(&f.kin, d, q, Some(g), if g == 0 { 0.0 } else { 1.0 }, out_kin, ws);
    }
    forward(&f.thermo, d, et, None, q, ws);
    backward(&f.thermo, d, q, None, 0.0, out_thermo, ws);
}

/// Times both proxies for `(dim, order)`: variant 0 stored, 1 matrix-free,
/// seconds per zone. The same budget with and without `--smoke`.
fn measure_assembly_proxies(dim: usize, order: usize) -> Timing {
    let shape = ProblemShape::new(dim, order, 1);
    let f = SumfacFactors::new(dim, order);
    let nvdof = shape.nvdof();
    // B^T operand of kernel 7 (npts x nthermo column-major values).
    let bt: Vec<f64> =
        (0..shape.npts * shape.nthermo).map(|i| ((i % 13) as f64 - 6.0) * 1.0e-2).collect();
    let mut az = vec![0.0; nvdof * shape.npts];
    let mut fz = vec![0.0; nvdof * shape.nthermo];
    let u: Vec<f64> = (0..dim * shape.nkin).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
    let et: Vec<f64> = (0..shape.nthermo).map(|i| (i % 7) as f64 * 0.1).collect();
    let mut q = vec![0.0; shape.npts];
    let mut out_kin = vec![0.0; shape.nkin];
    let mut out_thermo = vec![0.0; shape.nthermo];
    let mut ws = SumfacScratch::default();

    harness::time_interleaved(2, Budget { rounds: 9, sample_s: 2e-4 }, &mut |v| match v {
        0 => stored_proxy(&shape, &bt, &mut az, &mut fz),
        _ => matfree_proxy(&shape, &f, &u, &et, &mut q, &mut out_kin, &mut out_thermo, &mut ws),
    })
}

/// Runs the full sweep. `smoke` drops the ceiling mesh from 32³ to 24³
/// (both well above the paper's 16³ stored-path limit); the host shape
/// list and every gate stay complete.
fn measure(smoke: bool) -> MatfreeCeiling {
    let shapes = SHAPES
        .iter()
        .map(|&(dim, order, gated)| HostShape {
            dim,
            order,
            gated,
            t: measure_assembly_proxies(dim, order),
        })
        .collect();
    let (axis, steps) = if smoke { (24, 1) } else { (32, 2) };
    MatfreeCeiling { shapes, ceiling: measure_ceiling(axis, steps) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_telemetry::chrome::Json;

    /// The modeled shift is pure arithmetic — gate it in every profile.
    /// These are the numbers that make the tentpole: at the smoke ceiling
    /// shape the stored path no longer fits the K20 while matrix-free has
    /// ~an order of magnitude of headroom, and both traffic collapses
    /// clear the 10x bar.
    #[test]
    fn modeled_shift_clears_every_bar_at_the_ceiling_shapes() {
        let cap = DeviceCatalog::gpu("k20").dram_capacity;
        for za in [24usize, 32] {
            let m = modeled_shift(za);
            assert!(m.stored_resident > cap, "{za}^3 stored {} fits {cap}", m.stored_resident);
            assert!(
                m.matfree_resident <= cap,
                "{za}^3 matfree {} exceeds {cap}",
                m.matfree_resident
            );
            assert!(m.force_flops_ratio >= 10.0, "{za}^3 flop ratio {}", m.force_flops_ratio);
            assert!(m.force_dram_ratio >= 10.0, "{za}^3 DRAM ratio {}", m.force_dram_ratio);
            assert!(
                m.mass_ai_matfree > 4.0 * m.mass_ai_stored,
                "{za}^3 mass AI {} vs SpMV {}",
                m.mass_ai_matfree,
                m.mass_ai_stored
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn high_order_proxy_prefers_matrix_free() {
        // At Q4 in 3D the stored contraction is 375 x 512 x 64 per zone
        // (~24.6 MFLOP) vs ~0.4 MFLOP of thin transforms; the measured
        // proxy should agree with the asymptotics by a wide margin.
        let t = measure_assembly_proxies(3, 4);
        assert!(t.median_ratio(&[0], &[1]) > 1.0, "matfree proxy should beat stored at Q4-3D");
    }

    /// A result with `(stored, matfree)` seconds per host shape that passes
    /// every gate.
    fn good() -> MatfreeCeiling {
        let shape = |dim, order, gated, stored: f64, matfree: f64| HostShape {
            dim,
            order,
            gated,
            t: Timing::from_samples(vec![vec![stored; 3], vec![matfree; 3]]),
        };
        MatfreeCeiling {
            shapes: vec![shape(2, 2, false, 1.0, 2.0), shape(3, 4, true, 2.0, 1.0)],
            ceiling: CeilingLeg {
                zones_axis: 24,
                capacity: DeviceCatalog::gpu("k20").dram_capacity,
                stored_oom: true,
                oom_message: "out of device memory: ...".into(),
                oom_required: 8 << 30,
                matfree_steps: 1,
                final_t: 2.5e-4,
                device_time_s: 0.5,
                device_energy_j: 42.0,
                modeled: modeled_shift(24),
            },
        }
    }

    /// Gate logic on synthetic results: a losing gated shape and a missing
    /// OOM must both fail; the reference configuration passes.
    #[test]
    fn gate_failures_catch_regressions() {
        let failed = |r: &MatfreeCeiling| -> Vec<String> {
            r.report().failures().iter().map(|g| format!("{}: {}", g.name, g.detail)).collect()
        };
        assert!(failed(&good()).is_empty(), "{:?}", failed(&good()));

        let mut lost_host = good();
        lost_host.shapes[1].t = Timing::from_samples(vec![vec![2.0; 3], vec![3.0; 3]]);
        assert!(failed(&lost_host).iter().any(|f| f.contains("3D Q4")));

        let mut no_oom = good();
        no_oom.ceiling.stored_oom = false;
        assert!(failed(&no_oom).iter().any(|f| f.contains("OutOfMemory")));

        let mut no_run = good();
        no_run.ceiling.matfree_steps = 0;
        assert!(failed(&no_run).iter().any(|f| f.contains("completes steps")));
    }

    #[test]
    fn artifact_of_a_hand_made_result_parses() {
        let json = harness::render_json(EXPERIMENT.name, true, &good().report());
        let doc = harness::parse_artifact(&json).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("matfree_ceiling"));
        let shape = &doc.get("shapes").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(shape.get("order").and_then(Json::as_f64), Some(4.0));
        assert_eq!(shape.get("speedup").and_then(Json::as_f64), Some(2.0));
        let ceiling = doc.get("ceiling").unwrap();
        assert_eq!(ceiling.get("stored_oom"), Some(&Json::Bool(true)));
        assert!(ceiling.get("matfree_resident_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap();
        assert!(gates.len() == 8 && gates.iter().all(|g| g.get("ok") == Some(&Json::Bool(true))));
    }
}
