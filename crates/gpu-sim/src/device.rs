//! The simulated GPU device: launch accounting, timing, power, transfers.

use std::sync::Mutex;

use blast_telemetry::{names, TelemetrySink, Track};
use powermon::{PowerTrace, WINDOW};

use crate::cpu::{add_to_totals, lock, Totals};
use crate::fault::{FaultKind, FaultPlan, FaultStats, GpuError, RetryPolicy, TransferDir};
use crate::occupancy::{occupancy, LaunchConfig, Occupancy};
use crate::spec::GpuSpec;
use crate::traffic::Traffic;

/// Modeled outcome of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelStats {
    /// Simulated execution time, seconds (includes launch overhead).
    pub time_s: f64,
    /// Mean board power during the kernel, watts.
    pub power_w: f64,
    /// Occupancy analysis of the launch.
    pub occupancy: Occupancy,
    /// Achieved double-precision rate, GFLOP/s.
    pub gflops: f64,
    /// Achieved DRAM bandwidth (including spills), GB/s.
    pub dram_bw_gbs: f64,
    /// Achieved L2 bandwidth, GB/s.
    pub l2_bw_gbs: f64,
    /// Achieved shared/L1 bandwidth, GB/s.
    pub shared_bw_gbs: f64,
}

/// A recorded device event (kernel or transfer).
#[derive(Clone, Debug)]
pub struct KernelEvent {
    /// Kernel (or transfer) name (static: kernel names are compile-time
    /// known, and a `String` here would allocate on every launch).
    pub name: &'static str,
    /// Simulated start time.
    pub start_s: f64,
    /// Stats of the launch.
    pub stats: KernelStats,
    /// Declared traffic.
    pub traffic: Traffic,
    /// Launch configuration (zeroed for transfers).
    pub config: LaunchConfig,
}

#[derive(Debug)]
struct DeviceState {
    clock_s: f64,
    trace: PowerTrace,
    /// The newest events, at most [`WINDOW`], and every name's totals.
    events: Vec<KernelEvent>,
    totals: Totals,
    active_queues: u32,
    allocated: usize,
    faults: FaultPlan,
    retry: RetryPolicy,
    /// Per-site operation counters driving the deterministic fault draws.
    fault_ops: [u64; crate::fault::NUM_FAULT_KINDS],
    fault_stats: FaultStats,
    sink: Option<TelemetrySink>,
}

impl DeviceState {
    /// Bills `event` at the current clock — power segment, event window,
    /// per-name totals — advances the clock, and returns the start.
    fn record(&mut self, mut event: KernelEvent) -> f64 {
        let (start, time_s) = (self.clock_s, event.stats.time_s);
        event.start_s = start;
        self.trace.push(start, time_s, event.stats.power_w);
        add_to_totals(&mut self.totals, event.name, time_s);
        if self.events.len() == WINDOW {
            self.events.drain(..WINDOW / 2);
        }
        self.events.push(event);
        self.clock_s += time_s;
        start
    }
}

/// A simulated CUDA device.
///
/// Kernels launched through [`GpuDevice::launch`] really execute (the body
/// runs, typically fanning out over rayon); the device records the *modeled*
/// time/power and advances its simulated clock. See the crate docs for the
/// model description.
#[derive(Debug)]
pub struct GpuDevice {
    spec: GpuSpec,
    state: Mutex<DeviceState>,
}

impl GpuDevice {
    /// Creates a device from a spec.
    pub fn new(spec: GpuSpec) -> Self {
        let idle = spec.idle_w;
        Self {
            spec,
            state: Mutex::new(DeviceState {
                clock_s: 0.0,
                trace: PowerTrace::new(idle),
                events: Vec::new(),
                totals: Vec::with_capacity(64), // past the names billed: no launch allocates
                active_queues: 1,
                allocated: 0,
                faults: FaultPlan::none(),
                retry: RetryPolicy::default(),
                fault_ops: [0; crate::fault::NUM_FAULT_KINDS],
                fault_stats: FaultStats::default(),
                sink: None,
            }),
        }
    }

    /// Device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Attaches a telemetry sink: every subsequent launch/transfer is
    /// mirrored as a [`Track::Gpu`] span at the exact `(start, duration)`
    /// the power trace bills, along with launch/traffic counters and
    /// occupancy gauges.
    pub fn attach_telemetry(&self, sink: TelemetrySink) {
        lock(&self.state).sink = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<TelemetrySink> {
        lock(&self.state).sink.clone()
    }

    /// Sets the number of host processes sharing the device through Hyper-Q
    /// work queues. Clamped to the hardware queue count (1 on Fermi: extra
    /// processes would serialize, which callers model by submitting
    /// sequentially).
    pub fn set_active_queues(&self, n: u32) {
        let q = n.clamp(1, self.spec.hyperq_queues);
        lock(&self.state).active_queues = q;
    }

    /// Current active queue count.
    pub fn active_queues(&self) -> u32 {
        lock(&self.state).active_queues
    }

    /// Installs a fault-injection plan (and resets the per-site operation
    /// counters, so scheduled faults count from this moment).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut st = lock(&self.state);
        st.faults = plan;
        st.fault_ops = [0; crate::fault::NUM_FAULT_KINDS];
    }

    /// Sets the retry policy applied to transient faults.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        lock(&self.state).retry = policy;
    }

    /// Cumulative fault/recovery counters.
    pub fn fault_stats(&self) -> FaultStats {
        lock(&self.state).fault_stats
    }

    /// Runs the fault/retry protocol for one operation checked against
    /// `kinds`. Returns `Ok` when the operation may proceed; on a fault,
    /// retries up to the policy bound with exponential backoff charged to
    /// the simulated clock (the trace bills those gaps at idle power).
    fn fault_gate(
        &self,
        kinds: &[FaultKind],
        err: impl Fn(FaultKind, u32) -> GpuError,
    ) -> Result<(), GpuError> {
        let mut st = lock(&self.state);
        if !st.faults.is_active() {
            return Ok(());
        }
        let ops: Vec<u64> = kinds
            .iter()
            .map(|k| {
                let i = st.fault_ops[k.index()];
                st.fault_ops[k.index()] += 1;
                i
            })
            .collect();
        let mut attempt: u32 = 0;
        loop {
            let hit = kinds
                .iter()
                .zip(&ops)
                .find(|(k, &op)| st.faults.injects(**k, op, attempt))
                .map(|(k, _)| *k);
            match hit {
                None => {
                    if attempt > 0 {
                        st.fault_stats.recovered += 1;
                    }
                    return Ok(());
                }
                Some(kind) => {
                    st.fault_stats.injected += 1;
                    if attempt >= st.retry.max_retries {
                        st.fault_stats.failed += 1;
                        return Err(err(kind, attempt + 1));
                    }
                    let backoff = st.retry.backoff_s(attempt);
                    st.clock_s += backoff;
                    st.fault_stats.backoff_s += backoff;
                    st.fault_stats.retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// Allocates device memory; fails when capacity is exceeded (the paper
    /// hit exactly this: 16^3 was "the maximum size we were able to allocate
    /// with Q4-Q3 elements because of memory limitation for K20") or when
    /// the fault plan injects an allocator OOM. OOM is never retried — the
    /// memory is simply not there.
    pub fn alloc(&self, bytes: usize) -> Result<(), GpuError> {
        let mut st = lock(&self.state);
        let oom = |st: &DeviceState| GpuError::Oom {
            device: self.spec.name.to_string(),
            requested: bytes,
            in_use: st.allocated,
            capacity: self.spec.dram_capacity,
        };
        if st.faults.is_active() {
            let op = st.fault_ops[FaultKind::AllocOom.index()];
            st.fault_ops[FaultKind::AllocOom.index()] += 1;
            if st.faults.injects(FaultKind::AllocOom, op, 0) {
                st.fault_stats.injected += 1;
                st.fault_stats.failed += 1;
                return Err(oom(&st));
            }
        }
        if st.allocated + bytes > self.spec.dram_capacity {
            return Err(oom(&st));
        }
        st.allocated += bytes;
        Ok(())
    }

    /// Releases device memory.
    pub fn free(&self, bytes: usize) {
        let mut st = lock(&self.state);
        st.allocated = st.allocated.saturating_sub(bytes);
    }

    /// Currently allocated device memory, bytes.
    #[cfg(test)]
    pub fn allocated_bytes(&self) -> usize {
        lock(&self.state).allocated
    }

    /// Pure timing/power model of a launch (no execution, no recording).
    ///
    /// Panics if the configuration cannot run at all (zero occupancy) —
    /// invalid configurations must be pruned beforehand via
    /// [`crate::occupancy::occupancy`], which is what the autotuner does.
    pub fn model_kernel(&self, cfg: &LaunchConfig, traffic: &Traffic) -> KernelStats {
        let queues = lock(&self.state).active_queues;
        self.model_kernel_with_queues(cfg, traffic, queues)
    }

    fn model_kernel_with_queues(
        &self,
        cfg: &LaunchConfig,
        traffic: &Traffic,
        queues: u32,
    ) -> KernelStats {
        let s = &self.spec;
        let occ = occupancy(s, cfg);
        assert!(
            occ.fraction > 0.0,
            "invalid launch config on {}: {:?}",
            s.name,
            cfg
        );
        // Hyper-Q: concurrent work from other queues fills idle SMs, so the
        // effective device fill of a small grid improves with queue count.
        let fill = (occ.device_fill * queues as f64).min(1.0);
        let eff_c = (occ.fraction / s.occ_sat_compute).min(1.0) * fill;
        let eff_m = (occ.fraction / s.occ_sat_memory).min(1.0) * fill;

        let t_flop = traffic.flops / (s.peak_gflops_dp * 1e9 * eff_c);
        let t_dram = traffic.total_dram_bytes() / (s.dram_bw_gbs * 1e9 * eff_m);
        let t_l2 = traffic.l2_bytes / (s.l2_bw_gbs * 1e9 * eff_m);
        let t_sh = traffic.shared_bytes / (s.shared_bw_gbs * 1e9 * eff_m);
        let t_exec = t_flop.max(t_dram).max(t_l2).max(t_sh);
        let time_s = s.launch_overhead_us * 1e-6 + t_exec;

        // Energy-based power: every flop/byte costs its per-event energy;
        // spilled (local) bytes pay the row-locality surcharge.
        let dyn_j = (s.e_flop_pj * traffic.flops
            + s.e_dram_pj * traffic.dram_bytes
            + s.e_dram_pj * s.local_energy_factor * traffic.local_bytes
            + s.e_l2_pj * traffic.l2_bytes
            + s.e_shared_pj * traffic.shared_bytes)
            * 1e-12;
        // SM-utilization floor: issue/scheduler/clock power the per-event
        // coefficients miss. On-chip-streaming kernels keep the SMs busy
        // every cycle (sm_busy ~ 1) while paying almost nothing per byte,
        // so without this term their power is badly underestimated — the
        // Fig. 15 Q4-vs-Q2 divergence. DRAM-bound kernels stall the SMs
        // waiting on memory (sm_busy << 1) and gain little.
        let sm_busy = (t_flop.max(t_sh) / t_exec).min(1.0);
        let power_w = (s.active_floor_w
            + s.sm_util_w * fill * sm_busy
            + dyn_j / time_s
            + s.hyperq_w_per_queue * (queues.saturating_sub(1)) as f64)
            .min(s.tdp_w);

        KernelStats {
            time_s,
            power_w,
            occupancy: occ,
            gflops: traffic.flops / time_s / 1e9,
            dram_bw_gbs: traffic.total_dram_bytes() / time_s / 1e9,
            l2_bw_gbs: traffic.l2_bytes / time_s / 1e9,
            shared_bw_gbs: traffic.shared_bytes / time_s / 1e9,
        }
    }

    /// Launches a kernel: runs `body` (the real computation), records the
    /// modeled event, advances the simulated clock, and returns the body's
    /// result alongside the stats.
    ///
    /// Fault injection happens *before* the body runs — a failed launch
    /// never executed, so transient faults retried here and persistent
    /// faults recovered by a CPU fallback both leave the numerics
    /// bit-identical to a fault-free run. Errors surface only once the
    /// retry policy is exhausted.
    pub fn launch<R>(
        &self,
        name: &'static str,
        cfg: &LaunchConfig,
        traffic: &Traffic,
        body: impl FnOnce() -> R,
    ) -> Result<(R, KernelStats), GpuError> {
        self.fault_gate(&[FaultKind::LaunchFail, FaultKind::EccError], |kind, attempts| {
            match kind {
                FaultKind::EccError => GpuError::Ecc { kernel: name.to_string(), attempts },
                _ => GpuError::LaunchFailed { kernel: name.to_string(), attempts },
            }
        })?;
        let result = body();
        let stats = self.model_kernel(cfg, traffic);
        let mut st = lock(&self.state);
        let start =
            st.record(KernelEvent { name, start_s: 0.0, stats, traffic: *traffic, config: *cfg });
        if let Some(sink) = &st.sink {
            sink.span(Track::Gpu, name, start, stats.time_s);
            sink.counter_add(names::counters::GPU_LAUNCHES, 1);
            sink.counter_add(names::counters::GPU_DRAM_BYTES, traffic.total_dram_bytes() as u64);
            sink.gauge_set(names::gauges::GPU_OCCUPANCY, stats.occupancy.fraction);
            sink.gauge_set(
                names::gauges::GPU_DRAM_UTIL,
                (stats.dram_bw_gbs / self.spec.dram_bw_gbs).min(1.0),
            );
        }
        Ok((result, stats))
    }

    fn transfer(&self, dir: TransferDir, bytes: usize) -> Result<f64, GpuError> {
        let kind = match dir {
            TransferDir::H2d => FaultKind::H2dFail,
            TransferDir::D2h => FaultKind::D2hFail,
        };
        self.fault_gate(&[kind], |_, attempts| GpuError::Transfer {
            direction: dir,
            bytes,
            attempts,
        })?;
        let name = match dir {
            TransferDir::H2d => names::phases::MEMCPY_H2D,
            TransferDir::D2h => names::phases::MEMCPY_D2H,
        };
        let s = &self.spec;
        let time_s = s.pcie_latency_us * 1e-6 + bytes as f64 / (s.pcie_bw_gbs * 1e9);
        // Transfers keep the board awake but exercise little silicon.
        let power_w = s.active_floor_w * 0.85;
        let mut st = lock(&self.state);
        let start = st.record(KernelEvent {
            name,
            start_s: 0.0,
            stats: KernelStats {
                time_s,
                power_w,
                occupancy: Occupancy {
                    blocks_per_sm: 0,
                    warps_per_sm: 0,
                    fraction: 0.0,
                    limiter: crate::occupancy::Limiter::Invalid,
                    device_fill: 0.0,
                },
                gflops: 0.0,
                dram_bw_gbs: 0.0,
                l2_bw_gbs: 0.0,
                shared_bw_gbs: 0.0,
            },
            traffic: Traffic::default(),
            config: LaunchConfig::new(0, 0, 0, 0),
        });
        if let Some(sink) = &st.sink {
            sink.span(Track::Gpu, name, start, time_s);
            let ctr = match dir {
                TransferDir::H2d => names::counters::H2D_BYTES,
                TransferDir::D2h => names::counters::D2H_BYTES,
            };
            sink.counter_add(ctr, bytes as u64);
        }
        Ok(time_s)
    }

    /// Host-to-device copy over PCIe; returns the transfer time. "This leads
    /// to significant reduction in the amount of data transferred between
    /// the CPU and GPU via the relatively slow PCI-E bus" (§3.1.2) — the
    /// hydro GPU path ships only `(v, e, x)` down and the RHS vectors up,
    /// never the full matrix `F`. Fails only when the fault plan injects a
    /// persistent PCIe error (transient ones are retried internally).
    pub fn h2d(&self, bytes: usize) -> Result<f64, GpuError> {
        self.transfer(TransferDir::H2d, bytes)
    }

    /// Device-to-host copy over PCIe; returns the transfer time.
    pub fn d2h(&self, bytes: usize) -> Result<f64, GpuError> {
        self.transfer(TransferDir::D2h, bytes)
    }

    /// Pre-grows the event window and power trace so the next `ops`
    /// launches and transfers do not reallocate — the device counterpart of
    /// `CpuDevice::reserve_telemetry`, used by the zero-allocation harness
    /// before its measurement window (the span ring is preallocated).
    pub fn reserve_telemetry(&self, ops: usize) {
        let st = &mut *lock(&self.state);
        st.events.reserve(ops.min(WINDOW - st.events.len()));
        st.trace.reserve(ops);
    }

    /// Advances the simulated clock through an idle gap (host-side work).
    pub fn idle(&self, seconds: f64) {
        assert!(seconds >= 0.0);
        lock(&self.state).clock_s += seconds;
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        lock(&self.state).clock_s
    }

    /// Snapshot of the power trace.
    pub fn power_trace(&self) -> PowerTrace {
        lock(&self.state).trace.clone()
    }

    /// Snapshot of the newest events: all of them until there were [`WINDOW`].
    pub fn events(&self) -> Vec<KernelEvent> {
        lock(&self.state).events.clone()
    }

    /// Total energy since t = 0, joules (gaps billed at idle power).
    pub fn energy_joules(&self) -> f64 {
        let st = lock(&self.state);
        st.trace.energy(0.0, st.clock_s)
    }

    /// Per-name totals `(name, total_time_s, calls)` since t = 0 by
    /// descending time (ties in first-billed order) — the Fig. 6 breakdown.
    pub fn kernel_summary(&self) -> Vec<(&'static str, f64, usize)> {
        let mut totals = lock(&self.state).totals.clone();
        totals.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite times"));
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DeviceCatalog;

    fn k20() -> GpuDevice {
        GpuDevice::new(DeviceCatalog::gpu("k20"))
    }

    fn full_cfg(blocks: u32) -> LaunchConfig {
        LaunchConfig::new(blocks, 256, 0, 32)
    }

    #[test]
    fn compute_bound_kernel_near_peak() {
        let dev = k20();
        // 1 Gflop of pure compute at full occupancy: ~1/1170 s.
        let t = Traffic::compute(1e9);
        let stats = dev.model_kernel(&full_cfg(10_000), &t);
        assert!(stats.gflops > 0.9 * 1170.0, "{}", stats.gflops);
    }

    #[test]
    fn bandwidth_bound_kernel_near_peak_bw() {
        let dev = k20();
        let t = Traffic { dram_bytes: 1e9, flops: 1e6, ..Default::default() };
        let stats = dev.model_kernel(&full_cfg(10_000), &t);
        assert!(stats.dram_bw_gbs > 0.9 * 208.0, "{}", stats.dram_bw_gbs);
        assert!(stats.dram_bw_gbs <= 208.0 + 1e-9);
    }

    #[test]
    fn local_memory_spills_slow_kernels_down() {
        // Fig. 4 mechanism: the same kernel with its workspace spilled to
        // local memory pays DRAM for every access.
        let dev = k20();
        let regs = Traffic { flops: 1e8, dram_bytes: 1e7, ..Default::default() };
        let spilled = Traffic { local_bytes: 4e8, ..regs };
        let t_regs = dev.model_kernel(&full_cfg(10_000), &regs).time_s;
        let t_spill = dev.model_kernel(&full_cfg(10_000), &spilled).time_s;
        assert!(t_spill > 2.0 * t_regs, "{t_spill} vs {t_regs}");
    }

    #[test]
    fn low_occupancy_hurts_throughput() {
        let dev = k20();
        let t = Traffic::compute(1e9);
        // 8 KB smem per block at 64 threads: occupancy-limited.
        let starved = LaunchConfig::new(10_000, 64, 16 * 1024, 32);
        let full = full_cfg(10_000);
        let s1 = dev.model_kernel(&starved, &t);
        let s2 = dev.model_kernel(&full, &t);
        assert!(s1.occupancy.fraction < s2.occupancy.fraction);
        assert!(s1.time_s > s2.time_s);
    }

    #[test]
    fn launch_executes_body_and_advances_clock() {
        let dev = k20();
        let t = Traffic::compute(1e9);
        let (value, stats) = dev.launch("k_test", &full_cfg(1000), &t, || 41 + 1).unwrap();
        assert_eq!(value, 42);
        assert!(stats.time_s > 0.0);
        assert!((dev.now() - stats.time_s).abs() < 1e-15);
        assert_eq!(dev.events().len(), 1);
        assert_eq!(dev.events()[0].name, "k_test");
    }

    #[test]
    fn power_between_floor_and_tdp() {
        let dev = k20();
        let stats = dev.model_kernel(
            &full_cfg(10_000),
            &Traffic { flops: 1e9, dram_bytes: 5e8, shared_bytes: 1e9, ..Default::default() },
        );
        assert!(stats.power_w >= dev.spec().active_floor_w);
        assert!(stats.power_w <= dev.spec().tdp_w);
    }

    #[test]
    fn dram_heavy_kernel_draws_more_power_than_shared_heavy() {
        // The §5.2 mechanism: for kernels of the same *duration* and flops,
        // bytes served from DRAM cost ~50x more energy than from shared
        // memory, so the DRAM-bound kernel draws more board power. The
        // shared traffic here is sized so both kernels bind at the same
        // execution time (DRAM at 208 GB/s vs shared at 1300 GB/s).
        let dev = k20();
        let cfg = full_cfg(10_000);
        let dram = Traffic { flops: 1e8, dram_bytes: 2e8, ..Default::default() };
        let shared =
            Traffic { flops: 1e8, dram_bytes: 2e7, shared_bytes: 1.25e9, ..Default::default() };
        let p_dram = dev.model_kernel(&cfg, &dram);
        let p_shared = dev.model_kernel(&cfg, &shared);
        assert!(
            (p_dram.time_s - p_shared.time_s).abs() < 0.1 * p_dram.time_s,
            "durations should match: {} vs {}",
            p_dram.time_s,
            p_shared.time_s
        );
        assert!(
            p_dram.power_w > p_shared.power_w,
            "{} vs {}",
            p_dram.power_w,
            p_shared.power_w
        );
        // And the shared-heavy kernel moves 6x the bytes for less energy.
        let e_dram = p_dram.power_w * p_dram.time_s;
        let e_shared = p_shared.power_w * p_shared.time_s;
        assert!(e_shared < e_dram);
    }

    #[test]
    fn hyperq_sharing_adds_power_and_fills_device() {
        let dev = k20();
        let small_grid = LaunchConfig::new(13, 256, 0, 32); // 1 block per SM
        let t = Traffic::compute(1e8);
        let solo = dev.model_kernel(&small_grid, &t);
        dev.set_active_queues(8);
        let shared = dev.model_kernel(&small_grid, &t);
        // More queues -> better fill -> faster per-queue kernels...
        assert!(shared.time_s < solo.time_s);
        // ...but extra power (Fig. 15: 8 MPI draws more than 1 MPI).
        assert!(shared.power_w > solo.power_w);
    }

    #[test]
    fn fermi_has_no_hyperq() {
        let dev = GpuDevice::new(GpuSpec::c2050());
        dev.set_active_queues(8);
        assert_eq!(dev.active_queues(), 1);
    }

    #[test]
    fn transfers_take_pcie_time() {
        let dev = k20();
        let t = dev.h2d(600_000_000).unwrap(); // 0.6 GB
        // 0.6 GB at 6 GB/s = 0.1 s (+latency).
        assert!((t - 0.1).abs() < 1e-3, "{t}");
        assert!(dev.now() >= t);
        let back = dev.d2h(600_000_000).unwrap();
        assert!((back - 0.1).abs() < 1e-3);
        assert_eq!(dev.events().len(), 2);
    }

    #[test]
    fn oom_at_capacity() {
        let dev = k20();
        assert!(dev.alloc(4 * 1024 * 1024 * 1024).is_ok());
        let err = dev.alloc(2 * 1024 * 1024 * 1024).unwrap_err();
        assert!(err.to_string().contains("out of device memory"));
        assert!(!err.is_retryable());
        dev.free(4 * 1024 * 1024 * 1024);
        assert!(dev.alloc(1024).is_ok());
    }

    #[test]
    fn kernel_summary_aggregates_and_sorts() {
        let dev = k20();
        let cfg = full_cfg(1000);
        let big = Traffic::compute(1e9);
        let small = Traffic::compute(1e7);
        dev.launch("small", &cfg, &small, || ()).unwrap();
        dev.launch("big", &cfg, &big, || ()).unwrap();
        dev.launch("small", &cfg, &small, || ()).unwrap();
        let summary = dev.kernel_summary();
        assert_eq!(summary[0].0, "big");
        assert_eq!(summary[1].2, 2); // "small" called twice
    }

    #[test]
    fn energy_integrates_trace() {
        let dev = k20();
        let cfg = full_cfg(1000);
        let (_, stats) = dev.launch("k", &cfg, &Traffic::compute(1e9), || ()).unwrap();
        let e = dev.energy_joules();
        assert!((e - stats.power_w * stats.time_s).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid launch config")]
    fn invalid_config_panics_in_model() {
        let dev = k20();
        dev.model_kernel(&LaunchConfig::new(10, 4096, 0, 32), &Traffic::compute(1.0));
    }

    #[test]
    fn transient_launch_fault_is_retried_and_charged_as_backoff() {
        let dev = k20();
        dev.set_fault_plan(FaultPlan::seeded(1).with_transient(FaultKind::LaunchFail, 0));
        let policy = RetryPolicy::default();
        let (v, stats) = dev.launch("k", &full_cfg(1000), &Traffic::compute(1e9), || 7).unwrap();
        assert_eq!(v, 7, "the body ran exactly once, after recovery");
        let fs = dev.fault_stats();
        assert_eq!(fs.injected, 1);
        assert_eq!(fs.retries, 1);
        assert_eq!(fs.recovered, 1);
        assert_eq!(fs.failed, 0);
        assert!((fs.backoff_s - policy.backoff_s(0)).abs() < 1e-15);
        // The clock carries kernel time plus the backoff, and the trace
        // bills the backoff gap at idle power.
        assert!((dev.now() - (stats.time_s + fs.backoff_s)).abs() < 1e-15);
        let idle_energy = dev.spec().idle_w * fs.backoff_s;
        let total = dev.energy_joules();
        assert!((total - (stats.power_w * stats.time_s + idle_energy)).abs() < 1e-9);
    }

    #[test]
    fn device_retry_ladder_bills_the_jittered_backoff_as_idle_time() {
        // A transient launch fault with a jittered policy: the device's
        // retry ladder must charge exactly the policy's (jittered) wait.
        let dev = k20();
        dev.set_fault_plan(FaultPlan::seeded(3).with_transient(FaultKind::LaunchFail, 0));
        let policy = RetryPolicy::default().with_jitter(0.5, 7).with_cap(1.0);
        dev.set_retry_policy(policy);
        dev.launch("k", &LaunchConfig::new(1, 128, 0, 32), &Traffic::default(), || ()).unwrap();
        let stats = dev.fault_stats();
        assert_eq!(stats.retries, 1);
        assert!((stats.backoff_s - policy.backoff_s(0)).abs() < 1e-18);
        assert!(stats.backoff_s != RetryPolicy::default().backoff_s(0), "jitter moved the wait");
    }

    #[test]
    fn persistent_launch_fault_exhausts_retries_and_errors() {
        let dev = k20();
        dev.set_fault_plan(FaultPlan::seeded(1).with_persistent(FaultKind::LaunchFail, 0));
        let mut ran = false;
        let err = dev
            .launch("k_dead", &full_cfg(1000), &Traffic::compute(1e9), || ran = true)
            .unwrap_err();
        assert!(!ran, "a failed launch must never execute its body");
        assert_eq!(err, GpuError::LaunchFailed { kernel: "k_dead".into(), attempts: 4 });
        let fs = dev.fault_stats();
        assert_eq!(fs.injected, 4); // initial attempt + 3 retries
        assert_eq!(fs.retries, 3);
        assert_eq!(fs.failed, 1);
        assert_eq!(fs.recovered, 0);
    }

    #[test]
    fn ecc_fault_reports_its_own_error_type() {
        let dev = k20();
        dev.set_fault_plan(FaultPlan::seeded(1).with_persistent(FaultKind::EccError, 0));
        dev.set_retry_policy(RetryPolicy::no_retries());
        let err = dev.launch("k", &full_cfg(1000), &Traffic::compute(1e9), || ()).unwrap_err();
        assert!(matches!(err, GpuError::Ecc { attempts: 1, .. }), "{err:?}");
    }

    #[test]
    fn transfer_faults_attribute_direction() {
        let dev = k20();
        dev.set_fault_plan(
            FaultPlan::seeded(1)
                .with_persistent(FaultKind::H2dFail, 0)
                .with_persistent(FaultKind::D2hFail, 0),
        );
        dev.set_retry_policy(RetryPolicy::no_retries());
        let up = dev.h2d(1024).unwrap_err();
        let down = dev.d2h(2048).unwrap_err();
        assert_eq!(
            up,
            GpuError::Transfer { direction: TransferDir::H2d, bytes: 1024, attempts: 1 }
        );
        assert_eq!(
            down,
            GpuError::Transfer { direction: TransferDir::D2h, bytes: 2048, attempts: 1 }
        );
    }

    #[test]
    fn injected_alloc_oom_reports_capacity_error() {
        let dev = k20();
        dev.set_fault_plan(FaultPlan::seeded(1).with_transient(FaultKind::AllocOom, 0));
        let err = dev.alloc(1024).unwrap_err();
        assert!(err.to_string().contains("out of device memory"));
        assert_eq!(dev.allocated_bytes(), 0);
        // The schedule was transient: the next allocation succeeds.
        assert!(dev.alloc(1024).is_ok());
    }

    #[test]
    fn rate_faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let dev = k20();
            dev.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultKind::LaunchFail, 0.4));
            dev.set_retry_policy(RetryPolicy::no_retries());
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(
                    dev.launch("k", &full_cfg(1000), &Traffic::compute(1e6), || ()).is_ok(),
                );
            }
            outcomes
        };
        assert_eq!(run(5), run(5), "same seed, same fault pattern");
        assert_ne!(run(5), run(6), "different seeds diverge (w.h.p.)");
        let ok = run(5).iter().filter(|&&o| o).count();
        assert!(ok > 20 && ok < 60, "rate 0.4 without retries: {ok}/64 succeeded");
    }

    #[test]
    fn attached_sink_mirrors_launches_and_transfers() {
        let dev = k20();
        let sink = blast_telemetry::Telemetry::sink();
        dev.attach_telemetry(sink.clone());
        let t = Traffic { flops: 1e9, dram_bytes: 1e8, ..Default::default() };
        dev.launch("k_test", &full_cfg(1000), &t, || ()).unwrap();
        dev.h2d(1024).unwrap();
        dev.d2h(2048).unwrap();
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "k_test");
        assert_eq!(spans[1].name, names::phases::MEMCPY_H2D);
        assert_eq!(sink.counter(names::counters::GPU_LAUNCHES), 1);
        assert_eq!(sink.counter(names::counters::GPU_DRAM_BYTES), 1e8 as u64);
        assert_eq!(sink.counter(names::counters::H2D_BYTES), 1024);
        assert_eq!(sink.counter(names::counters::D2H_BYTES), 2048);
        assert!(sink.gauge(names::gauges::GPU_OCCUPANCY).unwrap() > 0.0);
        // Spans reproduce the event timeline exactly and sit inside the
        // power-trace extent.
        let events = dev.events();
        let end = dev.power_trace().end_time();
        for (s, e) in spans.iter().zip(&events) {
            assert_eq!(s.start_s, e.start_s);
            assert_eq!(s.dur_s, e.stats.time_s);
            assert!(s.end_s() <= end + 1e-15);
        }
    }

    #[test]
    fn inactive_plan_costs_nothing() {
        let dev = k20();
        let (_, stats) = dev.launch("k", &full_cfg(1000), &Traffic::compute(1e9), || ()).unwrap();
        assert_eq!(dev.fault_stats(), FaultStats::default());
        assert!((dev.now() - stats.time_s).abs() < 1e-15, "no hidden backoff");
    }
}
