//! Property tests on the power trace: its running sums and its window
//! answer with the bits a scan of every segment gives.

use powermon::trace::Segment;
use powermon::{PowerTrace, WINDOW};
use proptest::prelude::*;

const IDLE_W: f64 = 17.5;

/// `energy` as a scan of every segment, clipped to `[t0, t1]`, in push order.
fn scan_energy(segs: &[Segment], t0: f64, t1: f64) -> f64 {
    let (mut active, mut covered) = (0.0, 0.0);
    for s in segs {
        let lo = s.start.max(t0);
        let hi = (s.start + s.duration).min(t1);
        if hi > lo {
            active += s.watts * (hi - lo);
            covered += hi - lo;
        }
    }
    active + IDLE_W * ((t1 - t0) - covered)
}

fn scan_mean_active_power(segs: &[Segment]) -> f64 {
    let (mut e, mut t) = (0.0, 0.0);
    for s in segs {
        e += s.watts * s.duration;
        t += s.duration;
    }
    if t > 0.0 {
        e / t
    } else {
        IDLE_W
    }
}

fn scan_sample(segs: &[Segment], t: f64) -> f64 {
    segs.iter().find(|s| t >= s.start && t < s.start + s.duration).map_or(IDLE_W, |s| s.watts)
}

/// A device timeline from `(duration, watts, gap)` draws, re-emitted at
/// `offset` the way a supervisor shifts an attempt into a worker's trace:
/// each segment starts where the device clock stands, about a third last
/// zero seconds, and some are followed by an idle gap. Returns the
/// segments and `offset + clock`.
fn timeline(draws: &[(f64, f64, f64)], offset: f64) -> (Vec<Segment>, f64) {
    let mut clock = 0.0;
    let mut segs = Vec::with_capacity(draws.len());
    for &(d, watts, gap) in draws {
        let duration = if d < 7e-4 { 0.0 } else { d };
        segs.push(Segment { start: clock + offset, duration, watts });
        clock += duration;
        if gap > 0.7 {
            clock += gap * 1e-3;
        }
    }
    (segs, offset + clock)
}

fn trace_of(segs: &[Segment]) -> PowerTrace {
    let mut t = PowerTrace::new(IDLE_W);
    for s in segs {
        t.push(s.start, s.duration, s.watts);
    }
    t
}

fn draw() -> (std::ops::Range<f64>, std::ops::Range<f64>, std::ops::Range<f64>) {
    (0.0..2e-3, 10.0..250.0, 0.0..1.0)
}

proptest! {
    #[test]
    fn whole_run_figures_are_the_full_scan(
        draws in collection::vec(draw(), 0..200),
        shifted in true,
        offset in 0.0..10.0f64,
        past in 0.0..1.0f64,
    ) {
        let (segs, clock) = timeline(&draws, if shifted { offset } else { 0.0 });
        let trace = trace_of(&segs);
        let end = trace.end_time();
        // `clock` may sit an ulp short of `end`: the supervisor's query.
        for t1 in [clock, end, end + past] {
            prop_assert_eq!(trace.energy(0.0, t1).to_bits(), scan_energy(&segs, 0.0, t1).to_bits());
        }
        let mean = scan_mean_active_power(&segs);
        prop_assert_eq!(trace.mean_active_power().to_bits(), mean.to_bits());
    }

    #[test]
    fn the_binary_search_sample_is_the_linear_scan(
        draws in collection::vec(draw(), 0..200),
        probes in collection::vec(0.0..1.1f64, 0..40),
    ) {
        let (segs, clock) = timeline(&draws, 0.0);
        let trace = trace_of(&segs);
        let bounds = segs.iter().flat_map(|s| [s.start, s.start + s.duration]);
        for t in probes.iter().map(|f| f * clock).chain(bounds) {
            prop_assert_eq!(trace.sample(t), scan_sample(&segs, t), "at t = {}", t);
        }
    }

    #[test]
    fn the_window_holds_the_newest_segments_and_the_sums_all_of_them(
        draws in collection::vec(draw(), WINDOW..3 * WINDOW),
        offset in 0.0..10.0f64,
        cut in 0.0..1.0f64,
    ) {
        let (segs, clock) = timeline(&draws, offset);
        let trace = trace_of(&segs);
        let mut kept = 0;
        for _ in &segs {
            if kept == WINDOW {
                kept = WINDOW / 2;
            }
            kept += 1;
        }
        prop_assert!(trace.segments().len() <= WINDOW);
        prop_assert_eq!(trace.segments(), &segs[segs.len() - kept..]);
        for t1 in [clock, trace.end_time()] {
            prop_assert_eq!(trace.energy(0.0, t1).to_bits(), scan_energy(&segs, 0.0, t1).to_bits());
        }
        let mean = scan_mean_active_power(&segs);
        prop_assert_eq!(trace.mean_active_power().to_bits(), mean.to_bits());
        // A windowed query inside the newest detail.
        let first = trace.segments()[0].start + trace.segments()[0].duration;
        let t0 = first + cut * (clock - first);
        prop_assert_eq!(trace.energy(t0, clock).to_bits(), scan_energy(&segs, t0, clock).to_bits());
        // Shifted into another trace, the dropped stretch as one segment.
        let mut copy = PowerTrace::new(IDLE_W);
        copy.extend_shifted(&trace, 3.0);
        let want = scan_energy(&segs, 0.0, clock) + 3.0 * IDLE_W;
        prop_assert!((copy.energy(0.0, clock + 3.0) - want).abs() <= 1e-12 * want);
    }
}
