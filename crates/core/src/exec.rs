//! Execution modes and the executor state (devices, balancer).

use std::sync::Arc;

use autotune::AutoBalancer;
use blast_telemetry::{names, Telemetry, TelemetrySink, Track};
use gpu_sim::{CpuDevice, CpuSpec, GpuDevice, Traffic};
use powermon::{CpuPowerState, ResilienceReport};

use blast_kernels::base::MonolithicCornerForce;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::sumfac::{
    SumfacEnergyKernel, SumfacFactors, SumfacForceKernel, SumfacMomentumKernel,
};
use blast_kernels::ProblemShape;

/// Fraction of CPU peak the corner-force inner loops sustain at low order
/// (irregular, hard-to-vectorize per-quadrature-point code).
const CF_CPU_EFF: f64 = 0.15;

/// Order-dependent CPU corner-force efficiency: the higher-order corner
/// force spends most of its time in larger dense batched products
/// (e.g. 375x512 `A_z` tiles at Q4), which vectorize far better than the
/// scalar-heavy SVD/eigenvalue work that dominates at Q2.
fn cf_cpu_eff(order: usize) -> f64 {
    match order {
        0..=2 => CF_CPU_EFF,
        3 => 0.22,
        _ => 0.30,
    }
}

/// Fraction of CPU peak the sparse CG solver sustains when compute-bound
/// (it is memory-bound in practice; the roofline takes the max).
pub const CG_CPU_EFF: f64 = 0.30;

/// How the corner force (and optionally the momentum solve) executes.
///
/// # Derivation from a device inventory
///
/// Fleet-aware entry points ([`HydroBuilder::device`] and the
/// [`crate::fleet`] predictor) do not take a mode — they derive one
/// from the `gpu_sim::DeviceSpec` they are handed:
///
/// | device inventory                | derived mode                                      |
/// |---------------------------------|---------------------------------------------------|
/// | has a GPU                       | `Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }` |
/// | CPU-only, `host.cores == 1`     | `CpuSerial`                                       |
/// | CPU-only, `host.cores > 1`      | `CpuParallel { threads: host.cores }`             |
///
/// The GPU default keeps the momentum solve on the device (`gpu_pcg:
/// true`) because transferring `dv/dt` beats transferring `-F·1` on every
/// catalog GPU; routing additionally *candidates* the `gpu_pcg: false`
/// variant per job (the paper's per-phase CPU/GPU placement, §4.2) and
/// lets the measured pilot decide. [`Hybrid`](ExecMode::Hybrid) is never
/// derived — the §3.3 auto-balanced split stays an explicit opt-in.
/// Thread counts come from the *spec* (`host.cores`), never from the
/// ambient rayon pool, so derived modes are identical across
/// `BLAST_THREADS` settings.
///
/// [`HydroBuilder::device`]: crate::HydroBuilder::device
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded CPU reference.
    CpuSerial,
    /// Rayon-parallel CPU (the OpenMP analog).
    CpuParallel {
        /// Worker threads (must not exceed the CPU's core count).
        threads: u32,
    },
    /// Simulated GPU.
    Gpu {
        /// Use the monolithic base kernel instead of the optimized ones.
        base: bool,
        /// Solve the momentum system on the GPU (kernel 9) instead of the
        /// host ("Whether the vector dv/dt after kernel 9 or the vector
        /// -F·1 after kernel 8 is transferred to the host depends on
        /// turning on/off the CUDA-PCG solver").
        gpu_pcg: bool,
        /// MPI ranks sharing the device through Hyper-Q.
        mpi_queues: u32,
    },
    /// CPU + GPU with the §3.3 auto-balanced zone split.
    Hybrid {
        /// CPU worker threads for the OpenMP share.
        threads: u32,
    },
}

/// Simulated seconds a recovery barrier quiesces both devices: in-flight
/// work drains and survivors synchronize before restoring (billed at idle
/// watts on host and device).
pub const RECOVERY_QUIESCE_S: f64 = 5e-3;

/// Executor state: devices and (for hybrid) the balancer.
pub struct Executor {
    /// The execution mode.
    pub mode: ExecMode,
    /// The host CPU (always present: integration and setup run here).
    pub host: CpuDevice,
    /// The GPU, when the mode uses one.
    pub gpu: Option<Arc<GpuDevice>>,
    /// The auto-balancer, for hybrid mode.
    pub balancer: Option<AutoBalancer>,
    /// Why a persistent device fault forced execution onto the CPU, once
    /// one has.
    degraded: Option<String>,
    /// Running totals of what the resilience machinery cost, bumped by the
    /// `bill_*` / `note_*` calls: the fields of the report this executor
    /// owns (the device's fault stats and the degraded flag join them in
    /// [`Self::resilience_report`]).
    ledger: ResilienceReport,
    /// The unified telemetry recorder both devices emit into (shared, so
    /// host phases and GPU launches land on one simulated-time axis).
    telemetry: TelemetrySink,
    /// Catalog id of the device this executor models
    /// (`gpu_sim::DeviceCatalog`), when a fleet-aware caller pinned one.
    device_id: Option<String>,
}

impl Executor {
    /// Builds an executor for `mode` with the given host CPU and optional
    /// GPU.
    pub fn new(mode: ExecMode, host_spec: CpuSpec, gpu: Option<Arc<GpuDevice>>) -> Self {
        Self::with_telemetry(mode, host_spec, gpu, Telemetry::sink())
    }

    /// [`Executor::new`] with a caller-supplied telemetry sink — the hook
    /// for sharing one recorder across several executors (e.g. the ranks
    /// of a cluster campaign) or for a prereserved ring capacity.
    pub fn with_telemetry(
        mode: ExecMode,
        host_spec: CpuSpec,
        gpu: Option<Arc<GpuDevice>>,
        telemetry: TelemetrySink,
    ) -> Self {
        match &mode {
            ExecMode::CpuSerial => {}
            ExecMode::CpuParallel { threads } | ExecMode::Hybrid { threads } => {
                assert!(
                    *threads >= 1 && *threads <= host_spec.cores,
                    "thread count {threads} out of range for {}",
                    host_spec.name
                );
            }
            ExecMode::Gpu { .. } => {}
        }
        let needs_gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. });
        assert!(
            !needs_gpu || gpu.is_some(),
            "mode {mode:?} requires a GPU device"
        );
        if let (ExecMode::Gpu { mpi_queues, .. }, Some(dev)) = (&mode, &gpu) {
            dev.set_active_queues(*mpi_queues);
        }
        let balancer = matches!(mode, ExecMode::Hybrid { .. }).then(|| AutoBalancer::new(0.5));
        let host = CpuDevice::new(host_spec);
        host.attach_telemetry(telemetry.clone());
        if let Some(dev) = &gpu {
            dev.attach_telemetry(telemetry.clone());
        }
        Self {
            mode,
            host,
            gpu,
            balancer,
            degraded: None,
            ledger: ResilienceReport::default(),
            telemetry,
            device_id: None,
        }
    }

    /// Pins the catalog device id this executor models (fleet-aware
    /// builders and routers set it; standalone executors leave it unset).
    pub fn set_device_id(&mut self, id: impl Into<String>) {
        self.device_id = Some(id.into());
    }

    /// The pinned catalog device id, when a fleet-aware caller set one.
    pub fn device_id(&self) -> Option<&str> {
        self.device_id.as_deref()
    }

    /// The unified telemetry recorder this executor's devices emit into.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Charges what the calling thread's current pool (the installed one,
    /// else the default) did since `prev` — a [`rayon::pool_stats`]
    /// snapshot taken under the same pool — to this executor's telemetry:
    /// steal/block/parallel-call counters plus the pool-width gauge. A
    /// solver running on a pool of its own is charged its own calls only.
    pub fn record_pool_counters(&self, prev: rayon::PoolStats) {
        let now = rayon::pool_stats();
        let tel = &self.telemetry;
        tel.counter_add(names::counters::POOL_CALLS, now.parallel_calls - prev.parallel_calls);
        tel.counter_add(names::counters::POOL_BLOCKS, now.blocks_executed - prev.blocks_executed);
        tel.counter_add(names::counters::POOL_STEALS, now.steals - prev.steals);
        tel.gauge_set(names::gauges::POOL_THREADS, rayon::current_num_threads() as f64);
    }

    /// Corner-force flop efficiency fed to the roofline: the *measured*
    /// tiled micro-kernel throughput when the host spec was calibrated
    /// (`CpuSpec::calibrate_host_gflops`, fed by `bench::host_speedup`),
    /// else the modeled order-dependent default `cf_cpu_eff`.
    pub fn cf_eff(&self, order: usize) -> f64 {
        self.host.spec().host_flop_efficiency().unwrap_or_else(|| cf_cpu_eff(order))
    }

    /// Whether a persistent device fault has forced all execution onto the
    /// CPU path for the rest of the run.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Marks the executor as degraded: every subsequent force evaluation
    /// and energy solve runs on the CPU, regardless of `mode`. Idempotent —
    /// only the first call's reason is kept (and logged).
    pub fn degrade_to_cpu(&mut self, reason: impl Into<String>) {
        if self.degraded.is_some() {
            return;
        }
        let reason = reason.into();
        eprintln!("blast-core: GPU fault persisted past retries, degrading to CPU: {reason}");
        self.telemetry.instant(Track::Host, names::phases::DEGRADE_TO_CPU, self.host.now());
        self.degraded = Some(reason);
    }

    /// The package state the CG and integration phases bill under: a
    /// GPU-mode host waits on the device (`GpuOffload`) — also after
    /// [`Self::degrade_to_cpu`] — and every other mode computes (`Busy`).
    pub(crate) fn host_power_state(&self) -> CpuPowerState {
        if matches!(self.mode, ExecMode::Gpu { .. }) {
            CpuPowerState::GpuOffload
        } else {
            CpuPowerState::Busy
        }
    }

    /// Assembles the resilience report for a finished (or in-flight) run:
    /// the device's fault counters, the retry backoff charged as idle-power
    /// energy, the checkpoint/restore/rank-death ledger, and whether the
    /// run degraded to the CPU path. `steps_redone` is the solver's
    /// rollback counter (`RunStats::retries`).
    pub fn resilience_report(&self, steps_redone: usize) -> ResilienceReport {
        let stats = self.gpu.as_ref().map(|g| g.fault_stats()).unwrap_or_default();
        ResilienceReport {
            faults_injected: stats.injected,
            retries: stats.retries,
            recovered: stats.recovered,
            exhausted: stats.failed,
            steps_redone,
            backoff_s: stats.backoff_s,
            backoff_energy_j: stats.backoff_s * self.gpu_idle_w(),
            degraded_to_cpu: self.is_degraded(),
            degraded_reason: self.degraded.clone(),
            ..self.ledger.clone()
        }
    }

    /// The executor's clock: the later of the host's and the device's.
    pub fn now(&self) -> f64 {
        self.host.now().max(self.gpu.as_ref().map_or(0.0, |g| g.now()))
    }

    /// Traffic of serializing/deserializing one checkpoint image on the
    /// host: the state streams out of DRAM and the image streams back in
    /// (or vice versa on restore), plus the cheap CRC pass.
    fn checkpoint_traffic(bytes: usize) -> Traffic {
        Traffic {
            flops: bytes as f64, // ~1 table lookup + xor/shift per byte
            dram_bytes: 2.0 * bytes as f64,
            ..Default::default()
        }
    }

    /// One billed host phase around `body`; an attached device idles through
    /// it. Returns `body`'s result and the modeled seconds.
    pub(crate) fn host_phase<R>(
        &self,
        name: &'static str,
        traffic: &Traffic,
        threads: u32,
        eff: f64,
        state: CpuPowerState,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        let (out, t) = self.host.run_phase(name, traffic, threads, eff, state, body);
        if let Some(g) = &self.gpu {
            g.idle(t);
        }
        (out, t)
    }

    /// Watts an attached device draws through a host phase (0 without one).
    fn gpu_idle_w(&self) -> f64 {
        self.gpu.as_ref().map_or(0.0, |g| g.spec().idle_w)
    }

    /// A single-thread busy host phase (checkpoint traffic, an audit) while
    /// the device quiesces; returns its modeled seconds and joules.
    fn serial_phase(&self, name: &'static str, traffic: &Traffic) -> (f64, f64) {
        let ((), t) = self.host_phase(name, traffic, 1, CG_CPU_EFF, CpuPowerState::Busy, || ());
        let util = 1.0 / self.host.spec().cores as f64;
        let reading = self.host.spec().power.read(CpuPowerState::Busy, util);
        (t, t * (reading.pkg_watts + reading.dram_watts + self.gpu_idle_w()))
    }

    /// Runs a resilience phase on the host timeline (the device quiesces —
    /// idles — for its duration) and charges its energy to the ledger.
    fn bill_phase(&mut self, name: &'static str, bytes: usize) -> f64 {
        let (t, joules) = self.serial_phase(name, &Self::checkpoint_traffic(bytes));
        self.ledger.resilience_s += t;
        self.ledger.resilience_energy_j += joules;
        t
    }

    /// Bills one coordinated checkpoint write of `bytes` serialized bytes:
    /// a DRAM-write phase on the host while the device quiesces at idle
    /// watts. Returns the modeled seconds.
    pub(crate) fn bill_checkpoint_write(&mut self, bytes: usize) -> f64 {
        self.ledger.checkpoints_written += 1;
        self.ledger.checkpoint_bytes += bytes as u64;
        self.telemetry.counter_add(names::counters::CHECKPOINTS_WRITTEN, 1);
        self.bill_phase(names::phases::CHECKPOINT_WRITE, bytes)
    }

    /// Bills one checkpoint restore of `bytes` (validation + decode + state
    /// rewrite). Returns the modeled seconds.
    pub(crate) fn bill_checkpoint_restore(&mut self, bytes: usize) -> f64 {
        self.ledger.restores += 1;
        self.telemetry.counter_add(names::counters::CHECKPOINT_RESTORES, 1);
        self.bill_phase(names::phases::CHECKPOINT_RESTORE, bytes)
    }

    /// Bills a recovery quiesce barrier ([`RECOVERY_QUIESCE_S`] by
    /// default): both devices sit idle while survivors drain in-flight work
    /// and agree on the dead set.
    pub fn bill_recovery_quiesce(&mut self, seconds: f64) {
        self.telemetry.span(
            Track::Cluster,
            names::phases::RECOVERY_QUIESCE,
            self.host.now(),
            seconds,
        );
        self.host.idle(seconds);
        if let Some(g) = &self.gpu {
            g.idle(seconds);
        }
        let power = &self.host.spec().power;
        let joules = seconds * (power.idle_pkg_w + power.idle_dram_w + self.gpu_idle_w());
        self.ledger.resilience_s += seconds;
        self.ledger.resilience_energy_j += joules;
    }

    /// Records peer ranks declared permanently dead.
    pub fn note_rank_deaths(&mut self, n: u64) {
        self.ledger.rank_deaths += n;
        for _ in 0..n {
            self.telemetry.instant(Track::Cluster, names::phases::RANK_DEATH, self.host.now());
        }
    }

    /// Records device faults that fired during a rollback redo attempt
    /// (threaded from the solver's redo path so the report's retry totals
    /// include them).
    pub(crate) fn note_redo_faults(&mut self, n: u64) {
        self.ledger.redo_faults += n;
    }

    /// Bills one physics-invariant audit of a completed step: a host phase
    /// sized by the audit's actual arithmetic (`flops` covers the energy
    /// spmv/dots, geometry pass, symmetry probe, and any ABFT checksum
    /// flops drained since the last audit; `dram_bytes` the state and
    /// matrix traffic it streamed). The device idles for the duration —
    /// auditing is host work. Returns the modeled seconds.
    pub(crate) fn bill_audit(&mut self, traffic: &Traffic) -> f64 {
        self.telemetry.counter_add(names::counters::SDC_AUDITS, 1);
        let (t, joules) = self.serial_phase(names::phases::SDC_AUDIT, traffic);
        self.ledger.audits_run += 1;
        self.ledger.audit_s += t;
        self.ledger.audit_energy_j += joules;
        t
    }

    /// Records one detected silent-corruption event (audit trip or ABFT
    /// checksum violation) in the ledger, counters, and the trace.
    pub(crate) fn note_corruption_detected(&mut self) {
        self.ledger.corruptions_detected += 1;
        self.telemetry.counter_add(names::counters::SDC_DETECTED, 1);
        self.telemetry.instant(Track::Host, names::phases::SDC_DETECTED, self.host.now());
    }

    /// Records silent bit flips the active `SdcPlan` actually landed.
    pub(crate) fn note_sdc_flips(&mut self, n: u64) {
        self.ledger.sdc_flips_injected += n;
        self.telemetry.counter_add(names::counters::SDC_FLIPS_INJECTED, n);
    }

    /// Threads used by CPU phases under this mode.
    pub fn cpu_threads(&self) -> u32 {
        match self.mode {
            ExecMode::CpuSerial => 1,
            ExecMode::CpuParallel { threads } | ExecMode::Hybrid { threads } => threads,
            // In GPU mode every MPI rank keeps its own core busy with the
            // non-accelerated phases (CG, integration) — "only corner force
            // is accelerated on the GPU" (§4.2).
            ExecMode::Gpu { mpi_queues, .. } => mpi_queues.max(1).min(self.host.spec().cores),
        }
    }
}

/// Aggregate corner-force traffic of one force evaluation (the A_z pipeline
/// plus kernels 7, 8, 10) — used to cost the CPU path and the hybrid CPU
/// share with the *same* operation counts as the GPU path.
pub fn corner_force_traffic(shape: &ProblemShape) -> Traffic {
    MonolithicCornerForce
        .optimized_equivalent_traffic(shape)
        .add(&FzKernel::tuned().traffic(shape))
        .add(&MomentumRhsKernel.traffic(shape))
        .add(&EnergyRhsKernel.traffic(shape))
}

/// Whole-phase corner-force traffic of the *matrix-free* pipeline: the
/// fused sum-factorized force sweep plus the momentum and energy
/// right-hand-side transforms. Same physics as [`corner_force_traffic`]
/// in roughly an order of magnitude fewer flops *and* DRAM bytes at Q4 —
/// the stored path's dense `nvdof x npts x nthermo` contraction and its
/// `A_z`/`F_z` batch round-trips both disappear.
pub fn corner_force_traffic_matfree(shape: &ProblemShape, factors: &SumfacFactors) -> Traffic {
    SumfacForceKernel { use_viscosity: true }
        .traffic(shape, factors)
        .add(&SumfacMomentumKernel.traffic(shape, factors))
        .add(&SumfacEnergyKernel.traffic(shape, factors))
}

/// Per-iteration CG traffic of one scalar-component solve on the host:
/// one SpMV over the kinematic mass matrix plus the vector operations. The
/// caller bills the sum of the `D` velocity components' iterations, so the
/// *model* streams the matrix once per component iteration — the paper's
/// solver, one component after another. Neither stored leg runs that way:
/// both advance all `D` in lock step over one row sweep
/// (`blast_la::pcg_solve_on`), the same bits in about 0.4× the wall time
/// at `D` = 3, and the device leg still bills kernel 9 per component, the
/// launches of `D` scalar solves. The modeled clock is deliberately not
/// re-billed on either leg (it moves with its own claim), so the
/// benchmark's `gpu_sim.host_model_ratio` — modeled over measured seconds —
/// reads higher on the stored workloads than the model's accuracy alone
/// would put it.
///
/// When the matrix fits the package's L3 (20 MB on the E5-2670), repeated
/// iterations serve most of the stream from cache — this is why the 2D CG
/// solves are comparatively cheap in Table 1.
pub fn cg_iteration_traffic(nnz: usize, n: usize) -> Traffic {
    let matrix_bytes = nnz as f64 * (8.0 + 4.0);
    let l3_factor = if matrix_bytes < 16e6 { 0.25 } else { 1.0 };
    Traffic {
        flops: 2.0 * nnz as f64 + 10.0 * n as f64,
        dram_bytes: matrix_bytes * l3_factor + 10.0 * n as f64 * 8.0,
        ..Default::default()
    }
}

/// Per-iteration CG traffic with the fused streaming kernels active: the
/// matrix stream is unchanged, but fusing SpMV+dot, the paired axpys+norm,
/// and the precondition+dot+direction update drops the vector transits from
/// ~10n words to ~7n (z is never materialized; p, Ap, x, r each stream once
/// per fused sweep instead of once per BLAS-1 call).
pub fn cg_iteration_traffic_fused(nnz: usize, n: usize) -> Traffic {
    let matrix_bytes = nnz as f64 * (8.0 + 4.0);
    let l3_factor = if matrix_bytes < 16e6 { 0.25 } else { 1.0 };
    Traffic {
        flops: 2.0 * nnz as f64 + 10.0 * n as f64,
        dram_bytes: matrix_bytes * l3_factor + 7.0 * n as f64 * 8.0,
        ..Default::default()
    }
}

/// Per-iteration CG traffic of the SpMV-free momentum solve: one
/// sum-factorized mass apply (per scalar component, like the stored
/// billing — there is no matrix to stream, so no `nnz` term and no L3
/// discount to model) plus the same vector transits as the stored solve
/// (10n words, 7n fused).
pub fn cg_iteration_traffic_matfree(apply: &Traffic, n: usize, fused: bool) -> Traffic {
    let vec_words = if fused { 7.0 } else { 10.0 };
    let mut t = *apply;
    t.flops += 10.0 * n as f64;
    t.dram_bytes += vec_words * n as f64 * 8.0;
    t
}

/// Host-side integration traffic per RK2-average step (vector AXPYs over
/// the full state, twice per step).
pub fn integration_traffic(state_len: usize) -> Traffic {
    Traffic {
        flops: 6.0 * state_len as f64,
        dram_bytes: 18.0 * state_len as f64 * 8.0,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceCatalog;
    use gpu_sim::GpuSpec;

    #[test]
    fn cpu_modes_need_no_gpu() {
        let ex = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
        assert_eq!(ex.cpu_threads(), 1);
        let ex8 = Executor::new(
            ExecMode::CpuParallel { threads: 8 },
            CpuSpec::e5_2670(),
            None,
        );
        assert_eq!(ex8.cpu_threads(), 8);
    }

    #[test]
    #[should_panic(expected = "requires a GPU device")]
    fn gpu_mode_without_device_panics() {
        Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            None,
        );
    }

    #[test]
    fn gpu_mode_sets_queues() {
        let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let _ex = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 },
            CpuSpec::e5_2670(),
            Some(dev.clone()),
        );
        assert_eq!(dev.active_queues(), 8);
    }

    #[test]
    fn hybrid_gets_a_balancer() {
        let dev = Arc::new(GpuDevice::new(GpuSpec::c2050()));
        let ex = Executor::new(
            ExecMode::Hybrid { threads: 6 },
            CpuSpec::x5660(),
            Some(dev),
        );
        assert!(ex.balancer.is_some());
        assert_eq!(ex.cpu_threads(), 6);
    }

    #[test]
    fn traffic_helpers_scale_with_size() {
        let small = corner_force_traffic(&ProblemShape::new(3, 2, 64));
        let big = corner_force_traffic(&ProblemShape::new(3, 2, 128));
        assert!((big.flops / small.flops - 2.0).abs() < 0.01);
        let cg = cg_iteration_traffic(1000, 100);
        assert!(cg.flops > 0.0 && cg.dram_bytes > 0.0);
        let it = integration_traffic(1000);
        assert!(it.dram_bytes > it.flops);
    }

    #[test]
    fn degradation_is_sticky_and_keeps_first_reason() {
        let mut ex = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
        assert!(!ex.is_degraded());
        assert_eq!(ex.resilience_report(0).degraded_reason, None);
        ex.degrade_to_cpu("kernel launch failed after 4 attempts");
        ex.degrade_to_cpu("second fault");
        assert!(ex.is_degraded());
        assert_eq!(
            ex.resilience_report(0).degraded_reason.as_deref(),
            Some("kernel launch failed after 4 attempts")
        );
    }

    #[test]
    fn resilience_billing_lands_in_the_report_and_traces() {
        let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let mut ex = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(dev.clone()),
        );
        let t_w = ex.bill_checkpoint_write(1 << 20);
        let t_r = ex.bill_checkpoint_restore(1 << 20);
        assert!(t_w > 0.0 && t_r > 0.0);
        ex.bill_recovery_quiesce(RECOVERY_QUIESCE_S);
        ex.note_rank_deaths(2);
        ex.note_redo_faults(3);
        let rep = ex.resilience_report(0);
        assert_eq!(rep.checkpoints_written, 1);
        assert_eq!(rep.checkpoint_bytes, 1 << 20);
        assert_eq!(rep.restores, 1);
        assert_eq!(rep.rank_deaths, 2);
        assert_eq!(rep.redo_faults, 3);
        assert!(rep.resilience_s >= t_w + t_r + RECOVERY_QUIESCE_S - 1e-12);
        assert!(rep.resilience_energy_j > 0.0);
        // Both timelines advanced through the billed phases.
        assert!(ex.host.now() >= t_w + t_r + RECOVERY_QUIESCE_S - 1e-12);
        assert!(dev.now() >= t_w + t_r + RECOVERY_QUIESCE_S - 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_threads_rejected() {
        Executor::new(ExecMode::CpuParallel { threads: 99 }, CpuSpec::x5660(), None);
    }
}
