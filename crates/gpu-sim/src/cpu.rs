//! CPU cost model — the host side of the hybrid system.
//!
//! The paper's baselines run on Xeon X5660 (Westmere, Fermi clusters),
//! Xeon E5-2670 (Sandy Bridge, single-node tests), and AMD Opteron
//! (Titan). For apples-to-apples comparisons against the simulated GPU, CPU
//! phases are costed with the same roofline approach: time is the max of
//! compute time (scaled by the threads in use) and memory time (shared
//! bandwidth), with an imperfect-parallel-scaling factor for the OpenMP
//! analog.

use std::sync::{Mutex, MutexGuard, PoisonError};

use blast_telemetry::{TelemetrySink, Track};
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

    /// Roofline time for a phase run on `threads` cores. CPU code achieves a
    /// fraction of peak well below 1 even when compute-bound; BLAST's corner
    /// force sustains ~15% of peak on Xeon (unvectorized irregular inner
    /// loops), which `flop_efficiency` captures.
    fn phase_time(&self, traffic: &Traffic, threads: u32, flop_efficiency: f64) -> f64 {
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

/// Rows the per-phase totals table is preallocated with: twice the eight
/// host phase names the solver bills, so recording a phase does not
/// allocate.
const PHASE_ROWS: usize = 16;

/// `(name, seconds, calls)` per billed name, in first-billed order. Names
/// are static labels (compile-time known), so a row costs no heap allocation.
pub(crate) type Totals = Vec<(&'static str, f64, usize)>;

/// Locks a device's state, taking a poisoned lock as it stands: a thread
/// that panicked while holding it leaves the simulated ledgers readable.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `seconds` and one call to `name`'s row, appending it on first use.
pub(crate) fn add_to_totals(rows: &mut Totals, name: &'static str, seconds: f64) {
    match rows.iter_mut().find(|row| row.0 == name) {
        Some(row) => {
            row.1 += seconds;
            row.2 += 1;
        }
        None => rows.push((name, seconds, 1)),
    }
}

#[derive(Debug)]
struct CpuState {
    clock_s: f64,
    trace: PowerTrace,
    totals: Totals,
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
                totals: Vec::with_capacity(PHASE_ROWS),
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
        lock(&self.state).sink = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<TelemetrySink> {
        lock(&self.state).sink.clone()
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
        let mut st = lock(&self.state);
        let start = st.clock_s;
        st.trace.push(start, time_s, power_w);
        add_to_totals(&mut st.totals, name, time_s);
        st.clock_s += time_s;
        if let Some(sink) = &st.sink {
            sink.span(Track::Host, name, start, time_s);
        }
        (result, time_s)
    }

    /// Pre-grows the power trace so the next `phases` phase recordings do
    /// not reallocate. Steady-state timesteps are otherwise allocation-free;
    /// this keeps the telemetry side quiet too (used by the zero-allocation
    /// harness before its measurement window).
    pub fn reserve_telemetry(&self, phases: usize) {
        let mut st = lock(&self.state);
        st.trace.reserve(phases);
        if let Some(sink) = &st.sink {
            sink.reserve_spans(phases);
        }
    }

    /// Advances the clock through an idle / waiting gap.
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

    /// Per-phase totals `(name, seconds, calls)` since t = 0 — Table 1's
    /// CPU profile — sorted by descending seconds (a stable sort, so
    /// equal totals keep their first-billed order).
    pub fn phase_totals(&self) -> Vec<(&'static str, f64, usize)> {
        let mut totals = lock(&self.state).totals.clone();
        totals.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        totals
    }

    /// Total energy since t = 0, joules.
    pub fn energy_joules(&self) -> f64 {
        let st = lock(&self.state);
        st.trace.energy(0.0, st.clock_s)
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
        assert_eq!(dev.power_trace().segments().len(), 1);
    }

    #[test]
    fn busy_power_matches_rapl_model() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        dev.run_phase("cf", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        let p = dev.power_trace().segments()[0].watts;
        // Fully busy E5-2670: 95 W pkg + 15 W DRAM.
        assert!((p - 110.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn offload_power_lower_than_busy() {
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        dev.run_phase("cf", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::Busy, || ());
        dev.run_phase("cf_gpu", &Traffic::compute(1e9), 8, 0.2, CpuPowerState::GpuOffload, || ());
        let trace = dev.power_trace();
        let seg = trace.segments();
        assert!(seg[1].watts < seg[0].watts);
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
        let active: f64 =
            dev.power_trace().segments().iter().map(|s| s.watts * s.duration).sum();
        let idle_e = 0.5 * (dev.spec().power.idle_pkg_w + dev.spec().power.idle_dram_w);
        assert!((e - active - idle_e).abs() < 1e-9);
    }

    #[test]
    fn phase_totals_are_the_trace_summed_by_name() {
        // Many phases over three names leave three rows, each the sum of
        // its name's power-trace segments taken in billing order (so bit
        // for bit what summing a per-phase log would give).
        const NAMES: [&str; 3] = ["corner_force", "cg_solver", "integration"];
        let dev = CpuDevice::new(CpuSpec::e5_2670());
        let calls = 10_000;
        for i in 0..calls {
            let traffic = Traffic::compute(1e6 * (1 + i % 7) as f64 * (1 + i % 3) as f64);
            dev.run_phase(NAMES[i % 3], &traffic, 8, 0.2, CpuPowerState::Busy, || ());
        }
        let totals = dev.phase_totals();
        assert_eq!(totals.len(), 3);
        let trace = dev.power_trace();
        for (k, name) in NAMES.iter().enumerate() {
            let want: f64 =
                trace.segments().iter().skip(k).step_by(3).fold(0.0, |acc, s| acc + s.duration);
            let row = totals.iter().find(|row| row.0 == *name).expect("a row per name");
            assert_eq!(row.1.to_bits(), want.to_bits(), "{name}");
            assert_eq!(row.2, calls / 3 + usize::from(k < calls % 3), "{name}");
        }
        assert!(totals.windows(2).all(|w| w[0].1 >= w[1].1), "sorted by descending seconds");
    }

    #[test]
    #[should_panic(expected = "thread count out of range")]
    fn too_many_threads_panics() {
        CpuSpec::x5660().phase_time(&Traffic::compute(1.0), 12, 0.5);
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
        let trace = dev.power_trace();
        assert_eq!(spans.len(), trace.segments().len());
        let names = ["corner_force", "cg_solver"];
        for ((s, seg), name) in spans.iter().zip(trace.segments()).zip(names) {
            assert_eq!(s.name, name);
            assert_eq!(s.start_s, seg.start);
            assert_eq!(s.dur_s, seg.duration);
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
