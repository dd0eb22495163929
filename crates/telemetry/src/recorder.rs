//! The span/counter recorder: a preallocated ring of raw spans plus exact
//! per-phase aggregates, behind one shared, thread-safe handle.

use std::sync::{Arc, Mutex};

/// Number of timeline tracks (Chrome-trace lanes).
pub const NUM_TRACKS: usize = 5;

/// Which simulated timeline a span belongs to. Every track shares the one
/// simulated-time axis (seconds since run start) that the power traces
/// also use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// The host CPU package (solver phases, checkpoint writes).
    Host,
    /// The simulated GPU (kernel launches, PCIe transfers).
    Gpu,
    /// The MPI-like cluster runtime (messages, recovery events).
    Cluster,
    /// The work-stealing host pool (parallel-call markers).
    Pool,
    /// The job supervisor (`blast-serve`): admissions, job lifecycle
    /// markers, preemptions, worker deaths — on the service-global
    /// simulated clock.
    Serve,
}

impl Track {
    /// Dense index (Chrome-trace `tid`).
    pub fn index(self) -> usize {
        match self {
            Track::Host => 0,
            Track::Gpu => 1,
            Track::Cluster => 2,
            Track::Pool => 3,
            Track::Serve => 4,
        }
    }

    /// Human-readable lane name.
    pub fn name(self) -> &'static str {
        match self {
            Track::Host => "host",
            Track::Gpu => "gpu",
            Track::Cluster => "cluster",
            Track::Pool => "pool",
            Track::Serve => "serve",
        }
    }

    /// All tracks, in `tid` order.
    pub fn all() -> [Track; NUM_TRACKS] {
        [Track::Host, Track::Gpu, Track::Cluster, Track::Pool, Track::Serve]
    }
}

/// Span vs point-in-time marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An interval `[start, start + dur]`.
    Span,
    /// A zero-duration event (degrade-to-CPU, rank death, ...).
    Instant,
}

/// One recorded span. Copy, fixed-size, name interned — the ring holds
/// these inline so recording is allocation-free.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Unique id (monotonic across the recorder).
    pub id: u64,
    /// Id of the enclosing open span on the same track, if any.
    pub parent: Option<u64>,
    /// Interned phase name.
    pub name: &'static str,
    /// Timeline lane.
    pub track: Track,
    /// Start, simulated seconds.
    pub start_s: f64,
    /// Duration, simulated seconds (0 for instants).
    pub dur_s: f64,
    /// Nesting depth at record time (0 = top level).
    pub depth: u16,
    /// Span or instant.
    pub kind: EventKind,
}

impl SpanRecord {
    /// End time, simulated seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// Exact per-phase aggregate — survives ring wrap-around.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTotal {
    /// Timeline lane.
    pub track: Track,
    /// Interned phase name.
    pub name: &'static str,
    /// Total seconds across all calls.
    pub seconds: f64,
    /// Number of recorded spans.
    pub calls: u64,
}

#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    id: u64,
    name: &'static str,
    start_s: f64,
}

#[derive(Debug)]
struct Inner {
    ring: Vec<SpanRecord>,
    /// Ring capacity: fixed unless grown by [`Telemetry::reserve_spans`]
    /// before the ring wraps.
    cap: usize,
    /// Next overwrite position once `ring.len() == cap`.
    head: usize,
    /// Oldest spans overwritten by wrap-around.
    dropped: u64,
    next_id: u64,
    open: [Vec<OpenSpan>; NUM_TRACKS],
    phases: Vec<PhaseTotal>,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
}

/// Shared handle to a [`Telemetry`] recorder — every instrumented surface
/// (devices, solver, cluster) holds one of these.
pub type TelemetrySink = Arc<Telemetry>;

/// The recorder. Interior-mutable and `Sync`: devices append from behind
/// `&self` exactly like they append to their power traces.
#[derive(Debug)]
pub struct Telemetry {
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Default ring capacity: enough for the raw spans of a mid-size
/// instrumented run (~16k spans × 72 B ≈ 1.2 MB); aggregates are exact
/// regardless.
const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// Reserved slots for distinct phase names / counters / gauges. The
/// workspace uses ~30 distinct names; recording an already-seen name never
/// allocates, and the first sight of a name only allocates past this many
/// distinct names.
const NAME_TABLE_CAPACITY: usize = 128;

impl Telemetry {
    /// Recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Recorder whose ring holds `spans` raw spans. All storage is
    /// preallocated here: recording is allocation-free until more than
    /// [`NAME_TABLE_CAPACITY`] distinct names appear.
    pub fn with_capacity(spans: usize) -> Self {
        let cap = spans.max(1);
        Self {
            inner: Mutex::new(Inner {
                ring: Vec::with_capacity(cap),
                cap,
                head: 0,
                dropped: 0,
                next_id: 0,
                open: std::array::from_fn(|_| Vec::with_capacity(32)),
                phases: Vec::with_capacity(NAME_TABLE_CAPACITY),
                counters: Vec::with_capacity(NAME_TABLE_CAPACITY),
                gauges: Vec::with_capacity(NAME_TABLE_CAPACITY),
            }),
        }
    }

    /// Convenience: a fresh recorder behind a shared sink handle.
    pub fn sink() -> TelemetrySink {
        Arc::new(Self::new())
    }

    /// Grows the ring so at least `additional` more spans fit before any
    /// wrap-around overwrite. Only effective before the ring has wrapped
    /// (afterwards the ring is already recycling its fixed storage).
    pub fn reserve_spans(&self, additional: usize) {
        let mut st = self.lock();
        if st.dropped == 0 {
            let want = st.ring.len() + additional;
            if want > st.cap {
                st.cap = want;
                let len = st.ring.len();
                st.ring.reserve_exact(want - len);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    // ----------------------------------------------------------------
    // Recording
    // ----------------------------------------------------------------

    /// Opens a hierarchical span on `track` at simulated time `start_s`.
    /// Returns the span id; close with [`Telemetry::end`].
    pub fn begin(&self, track: Track, name: &'static str, start_s: f64) -> u64 {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.open[track.index()].push(OpenSpan { id, name, start_s });
        id
    }

    /// Closes the innermost open span on `track` at simulated time
    /// `end_s`, recording it. Unbalanced `end` calls are ignored.
    pub fn end(&self, track: Track, end_s: f64) {
        let mut st = self.lock();
        if let Some(open) = st.open[track.index()].pop() {
            let depth = st.open[track.index()].len() as u16;
            let parent = st.open[track.index()].last().map(|o| o.id);
            let rec = SpanRecord {
                id: open.id,
                parent,
                name: open.name,
                track,
                start_s: open.start_s,
                dur_s: (end_s - open.start_s).max(0.0),
                depth,
                kind: EventKind::Span,
            };
            st.record(rec);
        }
    }

    /// Records a complete leaf span `[start_s, start_s + dur_s]` on
    /// `track`. The innermost open span on the track becomes its parent.
    pub fn span(&self, track: Track, name: &'static str, start_s: f64, dur_s: f64) {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        let depth = st.open[track.index()].len() as u16;
        let parent = st.open[track.index()].last().map(|o| o.id);
        let rec = SpanRecord {
            id,
            parent,
            name,
            track,
            start_s,
            dur_s: dur_s.max(0.0),
            depth,
            kind: EventKind::Span,
        };
        st.record(rec);
    }

    /// Records a zero-duration marker (degrade event, rank death, ...).
    pub fn instant(&self, track: Track, name: &'static str, t_s: f64) {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        let depth = st.open[track.index()].len() as u16;
        let parent = st.open[track.index()].last().map(|o| o.id);
        let rec = SpanRecord {
            id,
            parent,
            name,
            track,
            start_s: t_s,
            dur_s: 0.0,
            depth,
            kind: EventKind::Instant,
        };
        st.record(rec);
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut st = self.lock();
        if let Some(slot) = st.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += delta;
        } else {
            st.counters.push((name, delta));
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let mut st = self.lock();
        if let Some(slot) = st.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            st.gauges.push((name, value));
        }
    }

    // ----------------------------------------------------------------
    // Reading
    // ----------------------------------------------------------------

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// All counters, in first-touch order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.lock().counters.clone()
    }

    /// All gauges, in first-touch order.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        self.lock().gauges.clone()
    }

    /// The raw spans still in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let st = self.lock();
        if st.dropped == 0 {
            st.ring.clone()
        } else {
            let mut out = Vec::with_capacity(st.ring.len());
            out.extend_from_slice(&st.ring[st.head..]);
            out.extend_from_slice(&st.ring[..st.head]);
            out
        }
    }

    /// Spans overwritten by ring wrap-around (aggregates still count them).
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped
    }

    /// Exact per-phase totals, optionally filtered to one track, sorted by
    /// descending total time.
    pub fn phase_totals(&self, track: Option<Track>) -> Vec<PhaseTotal> {
        let st = self.lock();
        let mut out: Vec<PhaseTotal> = st
            .phases
            .iter()
            .filter(|p| track.is_none_or(|t| p.track == t))
            .copied()
            .collect();
        out.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).expect("finite phase totals"));
        out
    }
}

impl Inner {
    fn record(&mut self, rec: SpanRecord) {
        // Aggregate (exact, survives wrap-around). Instants count calls
        // but no time.
        if rec.kind == EventKind::Span {
            if let Some(slot) = self
                .phases
                .iter_mut()
                .find(|p| p.track == rec.track && p.name == rec.name)
            {
                slot.seconds += rec.dur_s;
                slot.calls += 1;
            } else {
                self.phases.push(PhaseTotal {
                    track: rec.track,
                    name: rec.name,
                    seconds: rec.dur_s,
                    calls: 1,
                });
            }
        }
        // Ring write.
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            let head = self.head;
            self.ring[head] = rec;
            self.head = (head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spans_aggregate_exactly() {
        let t = Telemetry::new();
        t.span(Track::Host, "corner_force", 0.0, 1.0);
        t.span(Track::Host, "corner_force", 1.0, 0.5);
        t.span(Track::Host, "cg_solver", 1.5, 0.25);
        let totals = t.phase_totals(Some(Track::Host));
        assert_eq!(totals[0].name, "corner_force");
        assert!((totals[0].seconds - 1.5).abs() < 1e-15);
        assert_eq!(totals[0].calls, 2);
        assert_eq!(totals[1].name, "cg_solver");
    }

    #[test]
    fn begin_end_nesting_assigns_parents_and_depth() {
        let t = Telemetry::new();
        let step = t.begin(Track::Host, "step", 0.0);
        t.span(Track::Host, "corner_force", 0.0, 0.4);
        let inner = t.begin(Track::Host, "cg_solver", 0.4);
        t.span(Track::Host, "spmv", 0.4, 0.1);
        t.end(Track::Host, 0.6); // cg_solver
        t.end(Track::Host, 1.0); // step
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("corner_force").parent, Some(step));
        assert_eq!(by_name("corner_force").depth, 1);
        assert_eq!(by_name("spmv").parent, Some(inner));
        assert_eq!(by_name("spmv").depth, 2);
        assert_eq!(by_name("cg_solver").parent, Some(step));
        assert_eq!(by_name("step").parent, None);
        assert_eq!(by_name("step").depth, 0);
        // Children are contained in their parents on the time axis.
        for s in &spans {
            if let Some(pid) = s.parent {
                let p = spans.iter().find(|q| q.id == pid).unwrap();
                assert!(p.start_s <= s.start_s && s.end_s() <= p.end_s() + 1e-15);
            }
        }
    }

    #[test]
    fn ring_wraps_but_aggregates_stay_exact() {
        let t = Telemetry::with_capacity(4);
        for i in 0..10 {
            t.span(Track::Gpu, "k", i as f64, 0.5);
        }
        assert_eq!(t.dropped_spans(), 6);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        // Oldest-first after wrap.
        assert!(spans.windows(2).all(|w| w[0].start_s < w[1].start_s));
        assert!((spans[0].start_s - 6.0).abs() < 1e-15);
        let totals = t.phase_totals(None);
        assert_eq!(totals[0].calls, 10);
        assert!((totals[0].seconds - 5.0).abs() < 1e-15);
    }

    #[test]
    fn reserve_spans_prevents_wrap() {
        let t = Telemetry::with_capacity(2);
        t.reserve_spans(10);
        for i in 0..10 {
            t.span(Track::Host, "p", i as f64, 0.1);
        }
        assert_eq!(t.dropped_spans(), 0);
        assert_eq!(t.spans().len(), 10);
    }

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::new();
        t.counter_add("pcg_iterations", 7);
        t.counter_add("pcg_iterations", 3);
        t.gauge_set("occupancy", 0.5);
        t.gauge_set("occupancy", 0.75);
        assert_eq!(t.counter("pcg_iterations"), 10);
        assert_eq!(t.counter("untouched"), 0);
        assert_eq!(t.gauge("occupancy"), Some(0.75));
    }

    #[test]
    fn instants_count_calls_but_no_time() {
        let t = Telemetry::new();
        t.instant(Track::Host, "degrade_to_cpu", 1.0);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].kind, EventKind::Instant);
        assert!(t.phase_totals(None).is_empty());
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let t = Telemetry::new();
        t.end(Track::Host, 1.0);
        assert!(t.spans().is_empty());
    }
}
