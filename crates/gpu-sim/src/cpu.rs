//! CPU cost model — the host side of the hybrid system.
//!
//! The paper's baselines run on Xeon X5660 (Westmere, Fermi clusters),
//! Xeon E5-2670 (Sandy Bridge, single-node tests), and AMD Opteron
//! (Titan). For apples-to-apples comparisons against the simulated GPU, CPU
//! phases are costed with the same roofline approach: time is the max of
//! compute time (scaled by the threads in use) and memory time (shared
//! bandwidth), with an imperfect-parallel-scaling factor for the OpenMP
//! analog.

use blast_telemetry::{TelemetrySink, Track};
use parking_lot::Mutex;
use powermon::{CpuPowerModel, CpuPowerState, PowerTrace};

use crate::traffic::Traffic;

/// Static description of a CPU socket (package).
///
/// `PartialEq` compares every field exactly (floats bitwise via `==`),
/// which is what the catalog delegation-parity tests rely on.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores in the package.
    pub cores: u32,
    /// Peak double-precision GFLOP/s of the whole package.
    pub peak_gflops_dp: f64,
    /// Memory bandwidth of the package, GB/s.
    pub dram_bw_gbs: f64,
    /// Parallel efficiency at full thread count (memory contention, NUMA).
    pub parallel_efficiency: f64,
    /// Single-thread GFLOP/s the tiled host micro-kernels actually
    /// sustain on the corner-force GEMM shape (`None` until
    /// [`CpuSpec::calibrate_host_gflops`] has been fed a measurement,
    /// e.g. from the `host_speedup` experiment).
    pub measured_host_gflops: Option<f64>,
    /// RAPL-style power model.
    pub power: CpuPowerModel,
}

impl CpuSpec {
    /// Intel Xeon E5-2670: 8 cores, 2.6 GHz, AVX (8 DP flops/cycle/core).
    pub fn e5_2670() -> Self {
        Self {
            name: "Xeon E5-2670",
            cores: 8,
            peak_gflops_dp: 166.4,
            dram_bw_gbs: 51.2,
            parallel_efficiency: 0.85,
            measured_host_gflops: None,
            power: CpuPowerModel::e5_2670(),
        }
    }

    /// Intel Xeon X5660: 6 cores, 2.8 GHz, SSE (4 DP flops/cycle/core).
    pub fn x5660() -> Self {
        Self {
            name: "Xeon X5660",
            cores: 6,
            peak_gflops_dp: 67.2,
            dram_bw_gbs: 32.0,
            parallel_efficiency: 0.82,
            measured_host_gflops: None,
            power: CpuPowerModel::x5660(),
        }
    }

    /// AMD Opteron 6274 (Titan): 16 integer cores / 8 FP modules, 2.2 GHz.
    pub fn opteron_6274() -> Self {
        Self {
            name: "Opteron 6274",
            cores: 16,
            peak_gflops_dp: 140.8,
            dram_bw_gbs: 51.2,
            parallel_efficiency: 0.78,
            measured_host_gflops: None,
            power: CpuPowerModel::opteron_6274(),
        }
    }

    /// Ice-Lake-class Xeon (Platinum 8380-like): 40 cores, 2.3 GHz,
    /// AVX-512 (16 DP flops/cycle/core) — the modern host the device
    /// catalog pairs with the FP64-tensor-core GPU.
    pub fn xeon_8380() -> Self {
        Self {
            name: "Xeon Platinum 8380",
            cores: 40,
            peak_gflops_dp: 1472.0,
            dram_bw_gbs: 204.8,
            parallel_efficiency: 0.80,
            measured_host_gflops: None,
            power: CpuPowerModel::xeon_8380(),
        }
    }

    /// Xeon-Phi-class wide-SIMD coprocessor (Knights-Corner-like): 61
    /// in-order cores with 512-bit vectors and GDDR5 — the third leg of
    /// the arXiv:1709.09713 CPU/GPU/Phi energy comparison. Low parallel
    /// efficiency reflects the irregular-code penalty those cores pay.
    pub fn xeon_phi_7120() -> Self {
        Self {
            name: "Xeon Phi 7120",
            cores: 61,
            peak_gflops_dp: 1208.0,
            dram_bw_gbs: 352.0,
            parallel_efficiency: 0.70,
            measured_host_gflops: None,
            power: CpuPowerModel::xeon_phi_7120(),
        }
    }

    /// Every named preset — catalog-wide sanity tests iterate this, so
    /// new presets are covered without editing the tests.
    pub fn presets() -> Vec<CpuSpec> {
        vec![
            Self::e5_2670(),
            Self::x5660(),
            Self::opteron_6274(),
            Self::xeon_8380(),
            Self::xeon_phi_7120(),
        ]
    }

    /// Replaces `parallel_efficiency` with the value inverted from a
    /// measured speedup curve and returns it.
    ///
    /// `samples` holds `(threads, speedup_vs_1_thread)` pairs from a
    /// wall-clock sweep (e.g. the `host_speedup` experiment). The
    /// compute-bound roofline predicts `S(T) = T * (1 + (pe - 1)(T - 1)
    /// / (C - 1))`, so each sample with `T > 1` inverts to
    /// `pe = 1 + (S/T - 1)(C - 1)/(T - 1)`; the calibration averages
    /// those estimates, clamped to `[0.05, 1.0]`. Single-thread samples
    /// carry no efficiency information and are skipped; with no usable
    /// sample the spec is left untouched.
    pub fn calibrate_parallel_efficiency(&mut self, samples: &[(u32, f64)]) -> f64 {
        let c = self.cores as f64;
        let mut acc = 0.0;
        let mut n = 0usize;
        for &(t, s) in samples {
            if t <= 1 || s <= 0.0 {
                continue;
            }
            let t = (t as f64).min(c);
            let pe = 1.0 + (s / t - 1.0) * (c - 1.0) / (t - 1.0);
            acc += pe.clamp(0.05, 1.0);
            n += 1;
        }
        if n > 0 {
            self.parallel_efficiency = acc / n as f64;
        }
        self.parallel_efficiency
    }

    /// Records the single-thread GFLOP/s measured on the tiled host
    /// micro-kernels (e.g. by the `host_speedup` experiment) and returns
    /// the implied corner-force flop efficiency. Non-finite or
    /// non-positive measurements are ignored.
    pub fn calibrate_host_gflops(&mut self, gflops: f64) -> Option<f64> {
        if gflops.is_finite() && gflops > 0.0 {
            self.measured_host_gflops = Some(gflops);
        }
        self.host_flop_efficiency()
    }

    /// Fraction of one core's DP peak the measured host micro-kernels
    /// sustain — the *measured* replacement for the modeled
    /// order-dependent corner-force efficiency once
    /// [`CpuSpec::calibrate_host_gflops`] has run. Clamped to `(0, 1]`;
    /// `None` until a measurement is recorded.
    pub fn host_flop_efficiency(&self) -> Option<f64> {
        let per_core_peak = self.peak_gflops_dp / self.cores as f64;
        self.measured_host_gflops.map(|g| (g / per_core_peak).clamp(1e-3, 1.0))
    }

    /// Roofline time for a phase run on `threads` cores. CPU code achieves a
    /// fraction of peak well below 1 even when compute-bound; BLAST's corner
    /// force sustains ~15% of peak on Xeon (unvectorized irregular inner
    /// loops), which `flop_efficiency` captures.
    pub fn phase_time(&self, traffic: &Traffic, threads: u32, flop_efficiency: f64) -> f64 {
        assert!(threads >= 1 && threads <= self.cores, "thread count out of range");
        let frac = threads as f64 / self.cores as f64;
        let par_eff = if threads == 1 {
            1.0
        } else {
            // Linear interpolation between perfect single-thread and
            // `parallel_efficiency` at full package.
            1.0 + (self.parallel_efficiency - 1.0) * (threads - 1) as f64
                / (self.cores - 1) as f64
        };
        let gflops = self.peak_gflops_dp * frac * par_eff * flop_efficiency;
        let t_flop = traffic.flops / (gflops * 1e9);
        // Memory bandwidth is shared by the package; a single thread can
        // drive roughly 40% of it.
        let bw = self.dram_bw_gbs * (0.4 + 0.6 * frac);
        let t_mem = traffic.total_dram_bytes() / (bw * 1e9);
        t_flop.max(t_mem)
    }
}

/// One recorded CPU phase.
#[derive(Clone, Debug)]
pub struct CpuEvent {
    /// Phase name (a static label: phase names are compile-time known, and
    /// a `String` here would put one heap allocation in every hot-path
    /// phase).
    pub name: &'static str,
    /// Simulated start time.
    pub start_s: f64,
    /// Duration, seconds.
    pub time_s: f64,
    /// Package power during the phase, watts.
    pub power_w: f64,
}

#[derive(Debug)]
struct CpuState {
    clock_s: f64,
    trace: PowerTrace,
    events: Vec<CpuEvent>,
    sink: Option<TelemetrySink>,
}

/// A simulated CPU package with a timeline and power trace.
#[derive(Debug)]
pub struct CpuDevice {
    spec: CpuSpec,
    state: Mutex<CpuState>,
}

impl CpuDevice {
    /// Creates a device from a spec.
    pub fn new(spec: CpuSpec) -> Self {
        let idle = spec.power.idle_pkg_w + spec.power.idle_dram_w;
        Self {
            spec,
            state: Mutex::new(CpuState {
                clock_s: 0.0,
                trace: PowerTrace::new(idle),
                events: Vec::new(),
                sink: None,
            }),
        }
    }

    /// Device specification.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Attaches a telemetry sink: every subsequent phase is mirrored as a
    /// [`Track::Host`] span at the exact `(start, duration)` the power
    /// trace bills, so spans and power segments share one time axis.
    pub fn attach_telemetry(&self, sink: TelemetrySink) {
        self.state.lock().sink = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<TelemetrySink> {
        self.state.lock().sink.clone()
    }

    /// Runs a phase: `body` executes for real; the modeled time/power are
    /// recorded and the simulated clock advances. Returns the body's result
    /// and the modeled time.
    pub fn run_phase<R>(
        &self,
        name: &'static str,
        traffic: &Traffic,
        threads: u32,
        flop_efficiency: f64,
        state: CpuPowerState,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        let result = body();
        let time_s = self.spec.phase_time(traffic, threads, flop_efficiency);
        let util = threads as f64 / self.spec.cores as f64;
        let reading = self.spec.power.read(state, util);
        let power_w = reading.pkg_watts + reading.dram_watts;
        let mut st = self.state.lock();
        let start = st.clock_s;
        st.trace.push(start, time_s, power_w);
        st.events.push(CpuEvent { name, start_s: start, time_s, power_w });
        st.clock_s += time_s;
        if let Some(sink) = &st.sink {
            sink.span(Track::Host, name, start, time_s);
        }
        (result, time_s)
    }

    /// Pre-grows the event log and power trace so the next `phases` phase
    /// recordings do not reallocate. Steady-state timesteps are otherwise
    /// allocation-free; this keeps the telemetry side quiet too (used by
    /// the zero-allocation harness before its measurement window).
    pub fn reserve_telemetry(&self, phases: usize) {
        let mut st = self.state.lock();
        st.events.reserve(phases);
        st.trace.reserve(phases);
        if let Some(sink) = &st.sink {
            sink.reserve_spans(phases);
        }
    }

    /// Advances the clock through an idle / waiting gap.
    pub fn idle(&self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.state.lock().clock_s += seconds;
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.state.lock().clock_s
    }

    /// Snapshot of the power trace.
    pub fn power_trace(&self) -> PowerTrace {
        self.state.lock().trace.clone()
    }

    /// Snapshot of recorded events.
    pub fn events(&self) -> Vec<CpuEvent> {
        self.state.lock().events.clone()
    }

    /// Total energy since t = 0, joules.
    pub fn energy_joules(&self) -> f64 {
        let st = self.state.lock();
        st.trace.energy(0.0, st.clock_s)
    }

    /// Clears the timeline.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.clock_s = 0.0;
        st.trace = PowerTrace::new(self.spec.power.idle_pkg_w + self.spec.power.idle_dram_w);
        st.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_is_faster_but_sublinear() {
        let s = CpuSpec::e5_2670();
        let t = Traffic::compute(1e10);
        let t1 = s.phase_time(&t, 1, 0.5);
        let t8 = s.phase_time(&t, 8, 0.5);
        assert!(t8 < t1);
        let speedup = t1 / t8;
        assert!(speedup > 5.0 && speedup < 8.0, "speedup {speedup}");
    }

    #[test]
    fn memory_bound_phase_limited_by_bandwidth() {
        let s = CpuSpec::e5_2670();
        let t = Traffic { flops: 1e6, dram_bytes: 5.12e9, ..Default::default() };
        let time = s.phase_time(&t, 8, 0.5);
        // 5.12 GB at 51.2 GB/s = 0.1 s.
        assert!((time - 0.1).abs() < 1e-6, "{time}");
    }

    #[test]
    fn phase_recording_advances_clock() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        let (v, t) =
            dev.run_phase("corner_force", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || 7);
        assert_eq!(v, 7);
        assert!(t > 0.0);
        assert!((dev.now() - t).abs() < 1e-15);
        assert_eq!(dev.events().len(), 1);
    }

    #[test]
    fn busy_power_matches_rapl_model() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        dev.run_phase("cf", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        let p = dev.events()[0].power_w;
        // Fully busy E5-2670: 95 W pkg + 15 W DRAM.
        assert!((p - 110.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn offload_power_lower_than_busy() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        dev.run_phase("cf", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        dev.run_phase("cf_gpu", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::GpuOffload, || ());
        let ev = dev.events();
        assert!(ev[1].power_w < ev[0].power_w);
    }

    #[test]
    fn energy_accumulates_across_phases() {
        let dev = CpuDevice::new(CpuSpec::x5660());
        dev.run_phase("a", &Traffic::compute(1e9), 6, 0.3, CpuPowerState::Busy, || ());
        dev.idle(0.5);
        dev.run_phase("b", &Traffic::compute(1e9), 6, 0.3, CpuPowerState::Busy, || ());
        let e = dev.energy_joules();
        assert!(e > 0.0);
        // Idle gap billed at idle power.
        let ev = dev.events();
        let active: f64 = ev.iter().map(|e| e.power_w * e.time_s).sum();
        let idle_e = 0.5 * (dev.spec().power.idle_pkg_w + dev.spec().power.idle_dram_w);
        assert!((e - active - idle_e).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "thread count out of range")]
    fn too_many_threads_panics() {
        CpuSpec::x5660().phase_time(&Traffic::compute(1.0), 12, 0.5);
    }

    #[test]
    fn calibration_round_trips_model_speedups() {
        // Speedups generated by the model itself must invert back to
        // the parallel_efficiency that produced them.
        let reference = CpuSpec::e5_2670();
        let t = Traffic::compute(1e10);
        let t1 = reference.phase_time(&t, 1, 0.5);
        let samples: Vec<(u32, f64)> =
            [2u32, 4, 8].iter().map(|&n| (n, t1 / reference.phase_time(&t, n, 0.5))).collect();
        let mut calibrated = CpuSpec { parallel_efficiency: 0.5, ..CpuSpec::e5_2670() };
        let pe = calibrated.calibrate_parallel_efficiency(&samples);
        assert!((pe - reference.parallel_efficiency).abs() < 1e-12, "pe {pe}");
    }

    #[test]
    fn calibration_ignores_unusable_samples() {
        let mut s = CpuSpec::e5_2670();
        let before = s.parallel_efficiency;
        let after = s.calibrate_parallel_efficiency(&[(1, 1.0), (4, -2.0)]);
        assert_eq!(before, after);
    }

    #[test]
    fn attached_sink_mirrors_phases_on_the_power_time_axis() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        let sink = blast_telemetry::Telemetry::sink();
        dev.attach_telemetry(sink.clone());
        dev.run_phase("corner_force", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        dev.idle(0.25);
        dev.run_phase("cg_solver", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        let spans = sink.spans();
        let events = dev.events();
        assert_eq!(spans.len(), events.len());
        for (s, e) in spans.iter().zip(&events) {
            assert_eq!(s.name, e.name);
            assert_eq!(s.start_s, e.start_s);
            assert_eq!(s.dur_s, e.time_s);
        }
        // Every span sits inside the power-trace extent.
        let end = dev.power_trace().end_time();
        assert!(spans.iter().all(|s| s.start_s >= 0.0 && s.end_s() <= end + 1e-15));
    }

    #[test]
    fn presets_have_sane_ratios() {
        // Sandy Bridge has ~2.5x the DP peak of Westmere (paper context for
        // the single-node speedups).
        let snb = CpuSpec::e5_2670();
        let wsm = CpuSpec::x5660();
        assert!(snb.peak_gflops_dp / wsm.peak_gflops_dp > 2.0);
        // Catalog-wide: every preset must be a usable roofline input.
        let presets = CpuSpec::presets();
        assert!(presets.len() >= 5, "preset registry lost entries");
        for s in presets {
            assert!(s.cores >= 1, "{}", s.name);
            assert!(s.peak_gflops_dp > 0.0 && s.dram_bw_gbs > 0.0, "{}", s.name);
            assert!(
                s.parallel_efficiency > 0.0 && s.parallel_efficiency <= 1.0,
                "{}",
                s.name
            );
            assert!(s.measured_host_gflops.is_none(), "{}: presets ship uncalibrated", s.name);
            // Full-package phase_time must be finite and ordered vs 1 thread.
            let t = Traffic::compute(1e9);
            let t1 = s.phase_time(&t, 1, 0.5);
            let tn = s.phase_time(&t, s.cores, 0.5);
            assert!(t1.is_finite() && tn.is_finite() && tn <= t1, "{}", s.name);
        }
        // Every standard-catalog host must be drawn from this registry,
        // so the catalog can never carry a CPU the sweep above missed.
        let names: Vec<&str> = CpuSpec::presets().iter().map(|s| s.name).collect();
        for dev in crate::DeviceCatalog::standard().devices() {
            assert!(
                names.contains(&dev.host.name),
                "catalog device {} uses non-preset host {}",
                dev.id,
                dev.host.name
            );
        }
    }
}
