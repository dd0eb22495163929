//! Power traces.
//!
//! A [`PowerTrace`] is a right-continuous step function of instantaneous
//! power over *simulated* time. Devices append one segment per activity
//! (kernel launch, memory transfer, idle gap); the energy of an interval is
//! the exact integral — the model-world analog of RAPL's energy MSRs and
//! NVML's sampled board power: exact running totals, a [`WINDOW`] of detail.

/// Entries a device ledger keeps for windowed reads: when a log is full its
/// oldest half is dropped, never its totals.
pub const WINDOW: usize = 16 * 1024;

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

/// A step-function power trace over simulated time `t >= 0`.
///
/// Segments are appended in nondecreasing time order; gaps between segments
/// are billed at `idle_watts`. A query reaching before the window panics.
#[derive(Clone, Debug)]
pub struct PowerTrace {
    idle_watts: f64,
    /// The newest segments, at most [`WINDOW`].
    segments: Vec<Segment>,
    /// Latest end among the dropped segments, and their `(joules, covered seconds)`.
    dropped_end: f64,
    dropped: (f64, f64),
    /// `(Σ watts·duration, Σ duration)`, for `mean_active_power`.
    busy: (f64, f64),
}

impl PowerTrace {
    /// New trace with the given idle (baseline) power.
    pub fn new(idle_watts: f64) -> Self {
        Self {
            idle_watts,
            segments: Vec::new(),
            dropped_end: 0.0,
            dropped: (0.0, 0.0),
            busy: (0.0, 0.0),
        }
    }

    /// Baseline power between recorded segments.
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Appends a segment. Panics if it starts before t = 0 or the end of the
    /// last segment (traces are strictly sequential, like a device timeline).
    pub fn push(&mut self, start: f64, duration: f64, watts: f64) {
        assert!(start >= 0.0 && duration >= 0.0, "segment before t = 0 or of negative duration");
        if let Some(last) = self.segments.last() {
            assert!(
                start >= last.start + last.duration - 1e-12,
                "segment overlaps previous ({start} < {})",
                last.start + last.duration
            );
        }
        if self.segments.len() == WINDOW {
            // Billed as `energy` bills a covered segment: `end - start`, not `duration`.
            for s in self.segments.drain(..WINDOW / 2) {
                let (lo, hi) = (s.start, s.start + s.duration);
                if hi > lo {
                    self.dropped.0 += s.watts * (hi - lo);
                    self.dropped.1 += hi - lo;
                }
                self.dropped_end = self.dropped_end.max(hi);
            }
        }
        self.busy.0 += watts * duration;
        self.busy.1 += duration;
        self.segments.push(Segment { start, duration, watts });
    }

    /// Appends `other` shifted by `offset`: its window segment by segment,
    /// and the stretch it dropped as one segment at that stretch's mean power
    /// (idle gaps included), so `other`'s whole energy carries over.
    pub fn extend_shifted(&mut self, other: &PowerTrace, offset: f64) {
        if other.dropped_end > 0.0 {
            let ((joules, covered), stretch) = (other.dropped, other.dropped_end);
            self.push(offset, stretch, (joules + other.idle_watts * (stretch - covered)) / stretch);
        }
        for s in &other.segments {
            self.push(s.start + offset, s.duration, s.watts);
        }
    }

    /// The newest segments: all of them until the trace has held [`WINDOW`].
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Pre-grows the segment storage so the next `additional` pushes do
    /// not reallocate (lets callers keep a measurement window heap-quiet).
    pub fn reserve(&mut self, additional: usize) {
        self.segments.reserve(additional.min(WINDOW - self.segments.len()));
    }

    /// End time of the last segment (0 for an empty trace).
    pub fn end_time(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.start + s.duration)
    }

    /// Instantaneous power at time `t` (NVML-style sample).
    pub fn sample(&self, t: f64) -> f64 {
        assert!(t >= self.dropped_end, "sample at {t} s is older than the trace's window");
        let i = self.segments.partition_point(|s| s.start <= t);
        match i.checked_sub(1).map(|i| self.segments[i]) {
            Some(s) if t < s.start + s.duration => s.watts,
            _ => self.idle_watts,
        }
    }

    /// Exact energy over `[t0, t1]` in joules, gaps billed at idle power.
    pub fn energy(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0, "inverted energy interval");
        assert!(
            t1 >= self.dropped_end && (t0 <= 0.0 || t0 >= self.dropped_end),
            "energy query [{t0}, {t1}] reaches before the trace's window"
        );
        // From t <= 0 the dropped segments count whole, in push order.
        let (mut active, mut covered) = if t0 <= 0.0 { self.dropped } else { (0.0, 0.0) };
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

    /// Mean power over the *active* segments only (what "the stable value of
    /// the y-axis" in Fig. 15 refers to: power while kernels are running).
    pub fn mean_active_power(&self) -> f64 {
        let (e, t) = self.busy;
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

    /// `n` contiguous one-second segments at 100 W, 1..=n s.
    fn long_trace(n: usize) -> PowerTrace {
        let mut t = PowerTrace::new(10.0);
        for k in 0..n {
            t.push(k as f64, 1.0, 100.0);
        }
        t
    }

    #[test]
    fn a_full_window_drops_its_oldest_half_and_keeps_the_totals() {
        let t = long_trace(WINDOW + 3);
        assert_eq!(t.segments().len(), WINDOW / 2 + 3);
        assert_eq!(t.segments()[0].start, (WINDOW / 2) as f64);
        let end = (WINDOW + 3) as f64;
        assert_eq!(t.end_time(), end);
        assert_eq!(t.energy(0.0, end + 1.0), 100.0 * end + 10.0);
        assert_eq!(t.mean_active_power(), 100.0);
        // Windowed queries still read the newest detail.
        assert_eq!(t.energy(end - 2.0, end - 0.5), 150.0);
        assert_eq!(t.sample(end - 0.5), 100.0);
    }

    #[test]
    fn a_shifted_copy_of_a_long_trace_carries_its_whole_energy() {
        let mut src = PowerTrace::new(10.0);
        for k in 0..WINDOW + 3 {
            // One-second segments at 100 W, every other second idle.
            src.push(2.0 * k as f64 + 1.0, 1.0, 100.0);
        }
        let end = src.end_time();
        let mut dst = PowerTrace::new(10.0);
        dst.push(0.0, 5.0, 50.0);
        dst.extend_shifted(&src, 5.0);
        assert_eq!(dst.end_time(), end + 5.0);
        let want = 250.0 + src.energy(0.0, end);
        assert!((dst.energy(0.0, end + 5.0) - want).abs() <= 1e-12 * want);
        // The window comes over segment by segment, after one dropped stretch.
        assert_eq!(dst.segments().len(), 2 + src.segments().len());
        assert_eq!(dst.segments()[2].start, src.segments()[0].start + 5.0);
    }

    #[test]
    #[should_panic(expected = "before the trace's window")]
    fn an_energy_query_older_than_the_window_panics() {
        long_trace(WINDOW + 1).energy(1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "older than the trace's window")]
    fn a_sample_older_than_the_window_panics() {
        long_trace(WINDOW + 1).sample(0.5);
    }
}
