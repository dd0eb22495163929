//! The five workloads and the one way a rep of any of them is run.
//!
//! A rep builds a fresh solver (timed: `setup_s`), takes two untimed
//! warm-up steps, then times one `Hydro::run` call with a fixed step
//! budget. Mesh, order, assembly mode and executor never change; only the
//! step budget was sized to fit the driver's time cap.

use std::time::Instant;

use blast_repro::blast_core::{
    AssemblyMode, ExecMode, Hydro, HydroError, HydroState, RunConfig, Sedov,
};
use blast_repro::gpu_sim::DeviceCatalog;

use crate::rng::SplitMix64;
use crate::sys;

/// Untimed steps before the timed call (scratch pools grow, caches fill).
pub const WARMUP_STEPS: usize = 2;

/// Largest relative total-energy change a rep may show (Table 6 conserves
/// to PCG tolerance; 1e-8 leaves four orders of slack).
pub const ENERGY_DRIFT_TOL: f64 = 1e-8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// `ExecMode::CpuSerial`.
    Serial,
    /// `ExecMode::CpuParallel { threads }`.
    Threads(u32),
    /// `ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 }` on
    /// catalog device `k20`.
    GpuK20,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dim: usize,
    pub zones_per_axis: usize,
    pub order: usize,
    pub assembly: AssemblyMode,
    pub exec: Exec,
    /// Host pool size (`rayon::set_active_threads`).
    pub pool: usize,
    /// Step budget of the timed `Hydro::run` call.
    pub steps: usize,
}

impl Workload {
    pub fn zones(&self) -> usize {
        self.zones_per_axis.pow(self.dim as u32)
    }

    /// The same problem on `CpuSerial` with a 1-thread pool — the baseline
    /// `rayon.threads_speedup` and the thread-invariance check compare to.
    pub fn serial_twin(&self) -> Workload {
        Workload {
            exec: Exec::Serial,
            pool: 1,
            ..*self
        }
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sedov2d_q2_serial",
        why: "Plain single-thread baseline (2D Sedov 32x32 Q2-Q1, stored): smallest per-step work, so core glue, gpu_sim accounting and telemetry have their largest share.",
        dim: 2,
        zones_per_axis: 32,
        order: 2,
        assembly: AssemblyMode::Stored,
        exec: Exec::Serial,
        pool: 1,
        steps: 20,
    },
    Workload {
        name: "sedov2d_q2_threads",
        why: "Same problem through a 2-thread rayon pool at fine grain: the pool dominates here and does nothing in the serial twin, so a pool change must move this and leave the twin alone.",
        dim: 2,
        zones_per_axis: 32,
        order: 2,
        assembly: AssemblyMode::Stored,
        exec: Exec::Threads(2),
        pool: 2,
        steps: 20,
    },
    Workload {
        name: "sedov3d_q3_stored",
        why: "High-order stored assembly (3D Sedov 5^3 Q3-Q2): batched tiled GEMM dominates and CSR PCG is the rest; where la::tile and solver-decomposition changes show.",
        dim: 3,
        zones_per_axis: 5,
        order: 3,
        assembly: AssemblyMode::Stored,
        exec: Exec::Serial,
        pool: 1,
        steps: 4,
    },
    Workload {
        name: "sedov3d_q3_matfree",
        why: "Same physics matrix-free: sum-factorized force and SpMV-free PCG; tiled-GEMM tuning should barely move it and CSR/spmv_dot changes not at all.",
        dim: 3,
        zones_per_axis: 5,
        order: 3,
        assembly: AssemblyMode::MatrixFree,
        exec: Exec::Serial,
        pool: 1,
        steps: 4,
    },
    Workload {
        name: "sedov3d_q2_gpu",
        why: "The paper's headline configuration (3D Sedov 8^3 Q2-Q1, simulated K20, GPU PCG, 8 queues): the only workload with kernel launches, transfers and GPU power billing; host time is simulator speed.",
        dim: 3,
        zones_per_axis: 8,
        order: 2,
        assembly: AssemblyMode::Stored,
        exec: Exec::GpuK20,
        pool: 1,
        steps: 6,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The solver inputs a seed generates: the Sedov blast energy in
/// `[0.20, 0.30]`. The solver never sees the seed itself.
pub fn sedov_for_seed(seed: u64) -> Sedov {
    let energy = SplitMix64::new(seed).uniform(0.20, 0.30);
    Sedov {
        energy,
        ..Sedov::default()
    }
}

/// Builds the workload's solver. GPU device creation is part of the build.
pub fn build<const D: usize>(w: &Workload, problem: &Sedov) -> Result<Hydro<D>, HydroError> {
    let builder = Hydro::<D>::builder(problem, [w.zones_per_axis; D])
        .order(w.order)
        .assembly(w.assembly);
    match w.exec {
        Exec::Serial => builder.mode(ExecMode::CpuSerial),
        Exec::Threads(threads) => builder.mode(ExecMode::CpuParallel { threads }),
        Exec::GpuK20 => builder
            .device(&DeviceCatalog::get("k20"))
            .mode(ExecMode::Gpu {
                base: false,
                gpu_pcg: true,
                mpi_queues: 8,
            }),
    }
    .build()
}

/// How a finished run ended: the bits every rep of a workload must share,
/// and the first violated correctness condition, if any.
#[derive(Clone, Debug)]
pub struct Ending {
    /// CRC-32 footer of the final checkpoint image (state + PCG warm start).
    pub digest: u32,
    /// `Hydro::wall_time()` at the end of the run (simulated seconds).
    pub sim_time_s: f64,
    pub sim_host_energy_j: f64,
    pub sim_gpu_energy_j: f64,
    pub violation: Option<String>,
}

impl Ending {
    pub fn sim_energy_j(&self) -> f64 {
        self.sim_host_energy_j + self.sim_gpu_energy_j
    }

    /// Whether two runs ended in the same bits.
    pub fn same_bits(&self, other: &Ending) -> bool {
        let key = |e: &Ending| (e.digest, e.sim_time_s.to_bits(), e.sim_energy_j().to_bits());
        key(self) == key(other)
    }
}

/// Everything one rep measured and checked.
#[derive(Clone, Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub end: Ending,
}

/// Digest, simulated totals and the correctness conditions of a finished
/// run — shared by the untraced reps and the traced pass.
pub fn finish<const D: usize>(
    hydro: &Hydro<D>,
    state: &HydroState,
    e_total0: f64,
    steps_done: usize,
    budget: usize,
) -> Ending {
    let end = hydro.wall_time();
    let exec = hydro.executor();
    let sim_host_energy_j = exec.host.power_trace().energy(0.0, end);
    let sim_gpu_energy_j = exec
        .gpu
        .as_ref()
        .map_or(0.0, |g| g.power_trace().energy(0.0, end));
    // The image ends in the CRC-32 of everything before it; that footer is
    // the digest (the CRC of the whole image is the same constant residue
    // for every state).
    let image = hydro
        .make_checkpoint(state, 0.0, steps_done as u64, 0)
        .to_bytes();
    let digest = u32::from_le_bytes(image[image.len() - 4..].try_into().expect("4-byte footer"));
    let drift = (hydro.energies(state).total() - e_total0).abs() / e_total0.abs();
    let finite = [&state.v, &state.e, &state.x]
        .iter()
        .all(|f| f.iter().all(|x| x.is_finite()));
    let violation = if steps_done != budget {
        Some(format!("committed {steps_done} of {budget} steps"))
    } else if !finite {
        Some("non-finite field".to_string())
    } else if drift.is_nan() || drift > ENERGY_DRIFT_TOL {
        Some(format!(
            "total energy changed by {drift:.3e} (limit {ENERGY_DRIFT_TOL:e})"
        ))
    } else if exec.is_degraded() {
        Some("executor degraded to CPU".to_string())
    } else {
        None
    };
    Ending {
        digest,
        sim_time_s: end,
        sim_host_energy_j,
        sim_gpu_energy_j,
        violation,
    }
}

/// The timed set-up: build the solver and its initial state.
pub fn timed_setup<const D: usize>(
    w: &Workload,
    problem: &Sedov,
) -> Result<(Hydro<D>, HydroState, f64), HydroError> {
    let t = Instant::now();
    let hydro = build::<D>(w, problem)?;
    let state = hydro.initial_state();
    let setup_s = t.elapsed().as_secs_f64();
    Ok((hydro, state, setup_s))
}

/// One untraced rep: set up, warm up, time `Hydro::run`.
pub fn run_rep<const D: usize>(w: &Workload, problem: &Sedov) -> Result<Rep, HydroError> {
    let (mut hydro, mut state, setup_s) = timed_setup::<D>(w, problem)?;
    let e_total0 = hydro.energies(&state).total();

    let mut dt = hydro.try_suggest_dt(&state)?;
    for _ in 0..WARMUP_STEPS {
        dt = hydro.try_advance(&mut state, dt)?.dt_next;
    }

    let cpu0 = sys::cpu_seconds();
    let t_run = Instant::now();
    let stats = hydro.run(&mut state, RunConfig::to(f64::INFINITY).max_steps(w.steps))?;
    let run_s = t_run.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let end = finish(&hydro, &state, e_total0, stats.steps, w.steps);
    Ok(Rep {
        setup_s,
        run_s,
        cpu_s,
        end,
    })
}
