//! matfree_ceiling — the matrix-free sum-factorization experiment: break
//! the paper's §4.1 Q4-Q3 memory ceiling.
//!
//! Q4-Q3 3D on the K20 device model at 24³ zones, above the 16³ limit of
//! Table 8. The stored build must fail with the *typed* `OutOfMemory`
//! error — both byte counts populated — and the matrix-free build must
//! take a real time step on the same device, with the modeled
//! launch/DRAM accounting capturing the flop/byte shift (force traffic
//! collapse, SpMV-free mass applies at higher arithmetic intensity,
//! resident-bytes collapse). Every number is off the simulated clock; the
//! gates are in `BENCH_paper.json`. Where stored and matrix-free both fit,
//! their wall-clock cost is read from whole runs: the benchmark's
//! `sedov3d_q3_stored` / `sedov3d_q3_matfree` pair.

use std::sync::Arc;

use blast_core::exec::{
    cg_iteration_traffic, cg_iteration_traffic_matfree, corner_force_traffic,
    corner_force_traffic_matfree,
};
use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, HydroError, Sedov};
use blast_kernels::sumfac::{SumfacFactors, SumfacMassKernel};
use blast_kernels::ProblemShape;
use blast_la::PcgOptions;
use gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment =
    Experiment::modeled("matfree_ceiling", |_| measure_ceiling(ZONES_AXIS).report());

/// Zones per axis of the ceiling mesh, past the paper's 16³ stored-path
/// limit on the K20. The run peaks at about 2 GB resident.
const ZONES_AXIS: usize = 24;

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

impl CeilingLeg {
    /// The record and gates of this result. Gated: the stored Q4 build
    /// fails with the typed OOM, the matrix-free build runs, and the
    /// modeled shift holds (>= 10x force flop *and* DRAM collapse, > 4x
    /// mass-apply intensity, resident bytes straddling the device
    /// capacity). Corner-force arithmetic *intensity* is deliberately not
    /// gated — the stored `k7` GEMM is already high-AI, the win is doing
    /// 10x less of everything.
    pub fn report(&self) -> Report {
        let (c, m) = (self, &self.modeled);
        let oom = c.stored_oom && c.oom_message.contains("out of device memory");
        let mut gates =
            vec![Gate::new("ceiling: stored build returns OutOfMemory", oom, &*c.oom_message)];
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
            blocks: vec![Block::record("ceiling", "Q4-Q3 3D ceiling on the K20 model", ceiling)],
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

/// Runs the gpu-sim ceiling leg at a Q4-Q3 3D `za³` mesh on the K20 model:
/// the stored build, then one matrix-free step.
fn measure_ceiling(zones_axis: usize) -> CeilingLeg {
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

    // Matrix-free: build on a fresh device and run a real step. Loose PCG
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
    let dt = hydro.suggest_dt(&state);
    let matfree_steps = usize::from(hydro.try_step(&mut state, dt).is_ok());

    CeilingLeg {
        zones_axis,
        capacity,
        stored_oom,
        oom_message,
        oom_required,
        matfree_steps,
        final_t: state.t,
        device_time_s: dev.now(),
        device_energy_j: dev.energy_joules(),
        modeled: modeled_shift(zones_axis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use blast_telemetry::chrome::Json;

    /// The modeled shift is pure arithmetic — gate it in every profile.
    /// These are the numbers that make the tentpole: at the ceiling shape
    /// the stored path no longer fits the K20 while matrix-free has ~an
    /// order of magnitude of headroom, and both traffic collapses clear
    /// the 10x bar.
    #[test]
    fn modeled_shift_clears_every_bar_at_the_ceiling_shape() {
        let cap = DeviceCatalog::gpu("k20").dram_capacity;
        let m = modeled_shift(ZONES_AXIS);
        assert!(m.stored_resident > cap, "stored {} fits {cap}", m.stored_resident);
        assert!(m.matfree_resident <= cap, "matfree {} exceeds {cap}", m.matfree_resident);
        assert!(m.force_flops_ratio >= 10.0, "flop ratio {}", m.force_flops_ratio);
        assert!(m.force_dram_ratio >= 10.0, "DRAM ratio {}", m.force_dram_ratio);
        let (mass, spmv) = (m.mass_ai_matfree, m.mass_ai_stored);
        assert!(mass > 4.0 * spmv, "mass AI {mass} vs SpMV {spmv}");
    }

    /// A result that passes every gate.
    fn good() -> CeilingLeg {
        CeilingLeg {
            zones_axis: ZONES_AXIS,
            capacity: DeviceCatalog::gpu("k20").dram_capacity,
            stored_oom: true,
            oom_message: "out of device memory: ...".into(),
            oom_required: 8 << 30,
            matfree_steps: 1,
            final_t: 2.5e-4,
            device_time_s: 0.5,
            device_energy_j: 42.0,
            modeled: modeled_shift(ZONES_AXIS),
        }
    }

    /// Gate logic on synthetic results: a missing OOM, a run that took no
    /// step and a modeled shift that fell short must each fail; the
    /// reference configuration passes.
    #[test]
    fn gate_failures_catch_regressions() {
        let failed = |r: &CeilingLeg| -> Vec<String> {
            r.report().failures().iter().map(|g| format!("{}: {}", g.name, g.detail)).collect()
        };
        assert!(failed(&good()).is_empty(), "{:?}", failed(&good()));

        let no_oom = CeilingLeg { stored_oom: false, ..good() };
        assert!(failed(&no_oom).iter().any(|f| f.contains("OutOfMemory")));

        let no_run = CeilingLeg { matfree_steps: 0, ..good() };
        assert!(failed(&no_run).iter().any(|f| f.contains("completes steps")));

        let mut no_shift = good();
        no_shift.modeled.force_flops_ratio = 9.0;
        no_shift.modeled.matfree_resident = no_shift.capacity + 1;
        let names: Vec<String> = failed(&no_shift);
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names[0].starts_with("force flop collapse"), "{names:?}");
        assert!(names[1].starts_with("matrix-free bytes fit the device"), "{names:?}");
    }

    #[test]
    fn artifact_of_a_hand_made_result_parses() {
        let json = harness::render_json(EXPERIMENT.name, false, &good().report());
        let doc = harness::parse_artifact(&json).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("matfree_ceiling"));
        let ceiling = doc.get("ceiling").unwrap();
        assert_eq!(ceiling.get("stored_oom"), Some(&Json::Bool(true)));
        assert_eq!(ceiling.get("zones_axis").and_then(Json::as_f64), Some(24.0));
        assert!(ceiling.get("matfree_resident_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap();
        assert!(gates.len() == 7 && gates.iter().all(|g| g.get("ok") == Some(&Json::Bool(true))));
    }
}
