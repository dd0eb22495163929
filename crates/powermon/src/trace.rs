//! Power traces and energy counters.
//!
//! A [`PowerTrace`] is a right-continuous step function of instantaneous
//! power over *simulated* time. Devices append one segment per activity
//! (kernel launch, memory transfer, idle gap); the energy of an interval is
//! the exact integral — the model-world analog of RAPL's energy MSRs and
//! NVML's sampled board power.

/// One constant-power segment of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Segment start time, seconds.
    pub start: f64,
    /// Segment duration, seconds (>= 0).
    pub duration: f64,
    /// Power during the segment, watts.
    pub watts: f64,
}

/// A step-function power trace over simulated time.
///
/// Segments are appended in nondecreasing time order; gaps between segments
/// are billed at `idle_watts`.
#[derive(Clone, Debug)]
pub struct PowerTrace {
    idle_watts: f64,
    segments: Vec<Segment>,
}

impl PowerTrace {
    /// New trace with the given idle (baseline) power.
    pub fn new(idle_watts: f64) -> Self {
        Self { idle_watts, segments: Vec::new() }
    }

    /// Baseline power between recorded segments.
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Appends a segment. Panics if it starts before the end of the last
    /// segment (traces are strictly sequential, like a device timeline).
    pub fn push(&mut self, start: f64, duration: f64, watts: f64) {
        assert!(duration >= 0.0, "negative segment duration");
        if let Some(last) = self.segments.last() {
            assert!(
                start >= last.start + last.duration - 1e-12,
                "segment overlaps previous ({start} < {})",
                last.start + last.duration
            );
        }
        self.segments.push(Segment { start, duration, watts });
    }

    /// All recorded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Pre-grows the segment storage so the next `additional` pushes do
    /// not reallocate (lets callers keep a measurement window heap-quiet).
    pub fn reserve(&mut self, additional: usize) {
        self.segments.reserve(additional);
    }

    /// End time of the last segment (0 for an empty trace).
    pub fn end_time(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.start + s.duration)
    }

    /// Instantaneous power at time `t` (NVML-style sample).
    pub fn sample(&self, t: f64) -> f64 {
        for s in &self.segments {
            if t >= s.start && t < s.start + s.duration {
                return s.watts;
            }
        }
        self.idle_watts
    }

    /// Exact energy over `[t0, t1]` in joules, gaps billed at idle power.
    pub fn energy(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0, "inverted energy interval");
        let mut active = 0.0;
        let mut covered = 0.0;
        for s in &self.segments {
            let lo = s.start.max(t0);
            let hi = (s.start + s.duration).min(t1);
            if hi > lo {
                active += s.watts * (hi - lo);
                covered += hi - lo;
            }
        }
        active + self.idle_watts * ((t1 - t0) - covered)
    }

    /// Mean power over `[t0, t1]` in watts.
    #[cfg(test)]
    pub fn mean_power(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return self.idle_watts;
        }
        self.energy(t0, t1) / (t1 - t0)
    }

    /// Mean power over the *active* segments only (what "the stable value of
    /// the y-axis" in Fig. 15 refers to: power while kernels are running).
    pub fn mean_active_power(&self) -> f64 {
        let mut e = 0.0;
        let mut t = 0.0;
        for s in &self.segments {
            e += s.watts * s.duration;
            t += s.duration;
        }
        if t > 0.0 {
            e / t
        } else {
            self.idle_watts
        }
    }

    /// Samples the trace at a fixed period (NVML / nvidia-smi polling).
    pub fn sample_series(&self, period: f64, until: f64) -> Vec<(f64, f64)> {
        assert!(period > 0.0, "sampling period must be positive");
        let mut out = Vec::new();
        let mut t = 0.0;
        while t <= until {
            out.push((t, self.sample(t)));
            t += period;
        }
        out
    }
}

/// Running energy counter for a device — the model analog of the RAPL MSR
/// that accumulates microjoules.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyCounter {
    joules: f64,
}

impl EnergyCounter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `watts * seconds`.
    pub fn add(&mut self, watts: f64, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.joules += watts * seconds;
    }

    /// Total accumulated energy, joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PowerTrace {
        let mut t = PowerTrace::new(20.0);
        t.push(0.0, 1.0, 100.0);
        t.push(1.0, 0.5, 50.0);
        // gap [1.5, 2.0) at idle
        t.push(2.0, 1.0, 80.0);
        t
    }

    #[test]
    fn sample_inside_and_outside_segments() {
        let t = trace();
        assert_eq!(t.sample(0.5), 100.0);
        assert_eq!(t.sample(1.25), 50.0);
        assert_eq!(t.sample(1.75), 20.0); // gap -> idle
        assert_eq!(t.sample(10.0), 20.0); // after end -> idle
    }

    #[test]
    fn energy_is_exact_integral() {
        let t = trace();
        // [0, 3]: 100*1 + 50*0.5 + 20*0.5 + 80*1 = 215
        assert!((t.energy(0.0, 3.0) - 215.0).abs() < 1e-12);
    }

    #[test]
    fn energy_partial_overlap() {
        let t = trace();
        // [0.5, 1.25]: 100*0.5 + 50*0.25 = 62.5
        assert!((t.energy(0.5, 1.25) - 62.5).abs() < 1e-12);
    }

    #[test]
    fn mean_power_over_window() {
        let t = trace();
        let p = t.mean_power(0.0, 3.0);
        assert!((p - 215.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_active_power_ignores_gaps() {
        let t = trace();
        // (100*1 + 50*0.5 + 80*1) / 2.5 = 205/2.5 = 82
        assert!((t.mean_active_power() - 82.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_defaults_to_idle() {
        let t = PowerTrace::new(25.0);
        assert_eq!(t.sample(1.0), 25.0);
        assert_eq!(t.mean_active_power(), 25.0);
        assert!((t.energy(0.0, 2.0) - 50.0).abs() < 1e-12);
        assert_eq!(t.end_time(), 0.0);
    }

    #[test]
    fn sample_series_has_fixed_period() {
        let t = trace();
        let s = t.sample_series(0.5, 2.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], (0.0, 100.0));
        assert_eq!(s[3], (1.5, 20.0));
    }

    #[test]
    #[should_panic(expected = "overlaps previous")]
    fn overlapping_segments_rejected() {
        let mut t = PowerTrace::new(0.0);
        t.push(0.0, 1.0, 10.0);
        t.push(0.5, 1.0, 10.0);
    }

    #[test]
    fn energy_counter_accumulates() {
        let mut c = EnergyCounter::new();
        c.add(100.0, 2.0);
        c.add(50.0, 1.0);
        assert!((c.joules() - 250.0).abs() < 1e-12);
    }
}
