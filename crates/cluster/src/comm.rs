//! A functional MPI-like runtime: ranks as threads over one shared wire,
//! on a virtual clock, with deterministic fault injection.
//!
//! This is the execution substrate for the distributed algorithms; the
//! *cost* of communication is modeled separately in [`crate::netmodel`]
//! (the two are decoupled exactly like the functional/performance split of
//! the GPU simulator). The wire borrows one number from the model: a
//! message's point-to-point time, which dates its arrival.
//!
//! ## Virtual time
//!
//! Every rank carries a clock in simulated seconds, starting at 0. A message
//! arrives at its sender's clock plus Shannon's point-to-point time for its
//! payload (never before an earlier message on the same link), and a
//! receive's deadline is the receiver's clock plus its timeout. A receive
//! that returns moves the clock to the arrival; one that times out moves it
//! to the deadline. A receive with nothing matching queued waits, and times
//! out only when no rank is running, no waiting rank has a match queued,
//! and its `(deadline, rank)` is the smallest of the waiting ranks': by then
//! nothing can still arrive before that deadline. So every outcome is a
//! function of the rank bodies and the fault seed alone, and a rank that is
//! slow but alive is never timed out.
//!
//! ## Fault model
//!
//! A [`ClusterFaultPlan`] injects three MPI failure classes, all drawn from
//! a seeded counter-based RNG so a given `(seed, rank, message index)`
//! always produces the same faults regardless of thread interleaving:
//!
//! - **dropped messages** — the send is charged but never delivered; the
//!   receiver surfaces it as [`CommError::Timeout`] instead of hanging,
//! - **corrupted messages** — payload bits are flipped in flight; every
//!   message carries an FNV checksum and the receiver reports
//!   [`CommError::Corrupted`],
//! - **rank deaths** — from a scheduled send index onward the rank stops
//!   transmitting *permanently*. Peers cannot distinguish a dead rank from
//!   an unlucky run of drops by one timeout alone, so the communicator
//!   carries an optional failure detector: `K` consecutive timeouts against
//!   the same peer escalate to [`CommError::PeerDead`] (off by default —
//!   [`Communicator::set_suspicion_threshold`] arms it).

use crate::detector::FailureDetector;
use crate::netmodel::Machine;
use blast_telemetry::{names, TelemetrySink};
use gpu_sim::fault_draw;
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Virtual seconds a [`Communicator::recv`] waits before declaring the peer
/// stalled: about 2 × 10⁴ point-to-point latencies, so only a message that
/// was never sent (dropped, or its sender dead or exited) misses it.
const RECV_TIMEOUT_S: f64 = 0.025;

/// A communication failure, attributed to the peer rank that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived by the virtual deadline: the peer is
    /// dead, exited, or its message was dropped in flight.
    Timeout {
        /// The rank whose message never arrived.
        from: usize,
        /// The tag being waited for.
        tag: u64,
    },
    /// A matching message arrived but its checksum does not cover its
    /// payload (in-flight corruption).
    Corrupted {
        /// The sending rank.
        from: usize,
        /// The message tag.
        tag: u64,
    },
    /// The failure detector declared the peer permanently dead: `K`
    /// consecutive receive timeouts against it with no message from it in
    /// between (see [`Communicator::set_suspicion_threshold`]).
    PeerDead {
        /// The rank declared dead.
        from: usize,
        /// The tag being waited for when suspicion crossed the threshold.
        tag: u64,
    },
    /// A rank's body panicked before returning a result, so the harness
    /// has no value for it (see [`try_run_ranks_with_faults`]).
    RankPanicked {
        /// The rank whose thread panicked.
        rank: usize,
        /// The panic payload when it was a string, else a placeholder.
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "timeout waiting for rank {from} (tag {tag}): rank stalled or message dropped")
            }
            CommError::Corrupted { from, tag } => {
                write!(f, "corrupted message from rank {from} (tag {tag}): checksum mismatch")
            }
            CommError::PeerDead { from, tag } => {
                write!(f, "rank {from} declared dead (tag {tag}): consecutive timeouts crossed the suspicion threshold")
            }
            CommError::RankPanicked { rank, detail } => {
                write!(f, "rank {rank} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A message: raw `f64` payload plus a tag, an integrity checksum and its
/// virtual arrival time.
#[derive(Clone, Debug)]
struct Message {
    from: usize,
    tag: u64,
    data: Vec<f64>,
    checksum: u64,
    arrival: f64,
}

/// FNV-1a over the payload bit patterns.
fn payload_checksum(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What a rank is doing, as the wire sees it.
#[derive(Clone, Copy, Debug)]
enum Status {
    /// Between receives: it may still send anything.
    Running,
    /// Blocked in a receive from `from` under `tag` until `deadline`.
    Waiting { from: usize, tag: u64, deadline: f64 },
    /// Its body returned or panicked: it sends nothing more.
    Exited,
}

/// The one wire all ranks of a run share: every inbox, the latest arrival
/// on every link and every rank's status, under one lock.
struct Wire {
    state: Mutex<WireState>,
    /// Signalled whenever a message is posted or a rank starts waiting or
    /// exits — the only events that can resolve a waiting receive.
    changed: Condvar,
}

struct WireState {
    /// `inboxes[to]`: messages sent to `to` and not yet received, in send
    /// order.
    inboxes: Vec<Vec<Message>>,
    /// `last_arrival[from * size + to]`: the latest arrival on that link.
    last_arrival: Vec<f64>,
    status: Vec<Status>,
}

impl WireState {
    /// Index in `to`'s inbox of the first message from `from` under `tag`.
    fn queued(&self, to: usize, from: usize, tag: u64) -> Option<usize> {
        self.inboxes[to].iter().position(|m| m.from == from && m.tag == tag)
    }

    /// Whether waiting rank `rank` may time out at `deadline`: no rank is
    /// running, no waiting rank has a match queued, and `(deadline, rank)`
    /// is the smallest wait. Every other rank then resumes at a later clock,
    /// so nothing it sends can arrive by `deadline`.
    fn may_time_out(&self, rank: usize, deadline: f64) -> bool {
        self.status.iter().enumerate().all(|(r, s)| match *s {
            Status::Running => false,
            Status::Exited => true,
            Status::Waiting { from, tag, deadline: d } => {
                self.queued(r, from, tag).is_none() && (deadline, rank) <= (d, r)
            }
        })
    }
}

impl Wire {
    fn new(size: usize) -> Self {
        Self {
            state: Mutex::new(WireState {
                inboxes: vec![Vec::new(); size],
                last_arrival: vec![0.0; size * size],
                status: vec![Status::Running; size],
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WireState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `msg` for `to`, sent at virtual time `sent_at`.
    fn post(&self, to: usize, mut msg: Message, sent_at: f64) {
        let mut st = self.lock();
        let link = msg.from * st.status.len() + to;
        let p2p = Machine::Shannon.network().p2p_time(msg.data.len() * 8);
        msg.arrival = st.last_arrival[link].max(sent_at + p2p);
        st.last_arrival[link] = msg.arrival;
        st.inboxes[to].push(msg);
        drop(st);
        self.changed.notify_all();
    }

    /// `rank`'s first message from `from` under `tag` if it arrives by
    /// `deadline`; `None` once it cannot.
    fn take(&self, rank: usize, from: usize, tag: u64, deadline: f64) -> Option<Message> {
        let mut st = self.lock();
        let mut announced = false;
        loop {
            if let Some(at) = st.queued(rank, from, tag) {
                st.status[rank] = Status::Running;
                // A later match on the link cannot arrive any sooner.
                return (st.inboxes[rank][at].arrival <= deadline)
                    .then(|| st.inboxes[rank].remove(at));
            }
            st.status[rank] = Status::Waiting { from, tag, deadline };
            if st.may_time_out(rank, deadline) {
                st.status[rank] = Status::Running;
                return None;
            }
            if !std::mem::replace(&mut announced, true) {
                self.changed.notify_all();
            }
            st = self.changed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn exit(&self, rank: usize) {
        self.lock().status[rank] = Status::Exited;
        self.changed.notify_all();
    }
}

/// A scheduled permanent rank death: from the rank's `after_sends`-th send
/// onward, nothing it transmits reaches the wire. The thread keeps running
/// (the harness body checks [`Communicator::is_dead`] and exits), but to
/// every peer the rank has gone silent for good.
#[derive(Clone, Copy, Debug)]
pub struct RankDeath {
    /// The dying rank.
    pub rank: usize,
    /// The 0-based send index at which it dies (0 = never sends anything).
    pub after_sends: u64,
}

/// Seeded fault-injection plan for a [`run_ranks_with_faults`] execution.
#[derive(Clone, Debug, Default)]
pub struct ClusterFaultPlan {
    /// RNG seed; the same seed reproduces the same faults.
    pub seed: u64,
    /// Probability each sent message is silently dropped.
    pub drop_rate: f64,
    /// Probability each delivered message has payload bits flipped.
    pub corrupt_rate: f64,
    /// Scheduled permanent rank deaths.
    pub deaths: Vec<RankDeath>,
}

impl ClusterFaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Seeded plan with message drop and corruption rates.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Like [`ClusterFaultPlan::seeded`], but the `BLAST_FAULT_SEED`
    /// environment variable overrides `default_seed` when set (the same
    /// single parse point as the device plans: [`gpu_sim::fault_seed_from_env`]).
    pub fn seeded_from_env(default_seed: u64) -> Self {
        Self::seeded(gpu_sim::fault_seed_from_env().unwrap_or(default_seed))
    }

    /// Sets the message drop rate.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate out of [0,1]");
        self.drop_rate = rate;
        self
    }

    /// Sets the message corruption rate.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "corrupt rate out of [0,1]");
        self.corrupt_rate = rate;
        self
    }

    /// Adds a scheduled permanent rank death.
    pub fn with_rank_death(mut self, rank: usize, after_sends: u64) -> Self {
        self.deaths.push(RankDeath { rank, after_sends });
        self
    }

    fn is_active(&self) -> bool {
        self.drop_rate > 0.0 || self.corrupt_rate > 0.0 || !self.deaths.is_empty()
    }
}

/// Per-rank fault counters, reported after a faulty run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommFaultStats {
    /// Messages silently dropped on this rank's sends.
    pub dropped: usize,
    /// Messages corrupted on this rank's sends.
    pub corrupted: usize,
    /// Sends suppressed because this rank was scheduled dead.
    pub suppressed: usize,
}

/// Per-rank communicator handle. Dropping it (the rank body returned or
/// panicked) marks the rank exited on the wire.
pub struct Communicator {
    rank: usize,
    size: usize,
    wire: Arc<Wire>,
    /// This rank's virtual clock, simulated seconds.
    clock: f64,
    /// Shared fault plan (empty plan when faults are off).
    faults: Arc<ClusterFaultPlan>,
    /// This rank's send counter (drives deterministic fault draws).
    sends: Cell<u64>,
    /// Observed fault statistics for this rank.
    stats: Cell<CommFaultStats>,
    /// Consecutive receive-timeout failure detector (disarmed by default —
    /// a plain timeout keeps surfacing as [`CommError::Timeout`]). The
    /// same [`FailureDetector`] component backs the job supervisor's
    /// worker-death declarations.
    detector: FailureDetector,
    /// Optional telemetry sink: message/byte/drop/death counters (see
    /// `blast_telemetry::names::counters::MSGS_*`).
    sink: Option<TelemetrySink>,
}

impl Drop for Communicator {
    fn drop(&mut self) {
        self.wire.exit(self.rank);
    }
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Fault statistics observed on this rank's sends.
    pub fn fault_stats(&self) -> CommFaultStats {
        self.stats.get()
    }

    /// Attaches a telemetry sink: subsequent sends and failure-detector
    /// verdicts are accumulated into its monotonic counters (messages,
    /// payload bytes, drops, rank deaths). The sink is shared, so all
    /// ranks of a job may feed one recorder.
    pub fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = Some(sink);
    }

    /// Arms the failure detector: `k` consecutive receive timeouts against
    /// the same peer (with no message received from it in between) escalate
    /// the `k`-th to [`CommError::PeerDead`]. Pass `u32::MAX` to disarm.
    pub fn set_suspicion_threshold(&mut self, k: u32) {
        self.detector.set_threshold(k);
    }

    /// Whether this rank's scheduled death has already triggered (its sends
    /// are being suppressed). The harness body checks this to exit a dead
    /// rank's loop.
    pub fn is_dead(&self) -> bool {
        let idx = self.sends.get();
        self.faults.deaths.iter().any(|d| d.rank == self.rank && idx >= d.after_sends)
    }

    /// Sends `data` to rank `to` under `tag` (non-blocking, buffered),
    /// stamped to arrive one point-to-point time after this rank's clock.
    ///
    /// Under an active fault plan the message may be dropped or corrupted
    /// in flight, and a rank scheduled dead sends nothing.
    pub fn send(&self, to: usize, tag: u64, mut data: Vec<f64>) {
        assert!(to < self.size, "send to out-of-range rank {to}");
        let idx = self.sends.get();
        self.sends.set(idx + 1);
        let mut stats = self.stats.get();
        if let Some(sink) = &self.sink {
            sink.counter_add(names::counters::MSGS_SENT, 1);
            sink.counter_add(names::counters::MSG_BYTES, (data.len() * 8) as u64);
        }

        // A dead rank transmits nothing, ever again. Checked against the
        // pre-increment index so `after_sends: 0` means "never sent once".
        if self.faults.deaths.iter().any(|d| d.rank == self.rank && idx >= d.after_sends) {
            stats.suppressed += 1;
            self.stats.set(stats);
            return;
        }

        let mut checksum = payload_checksum(&data);
        if self.faults.is_active() {
            // Counter-based draws: stream 0 decides drops, stream 1 decides
            // corruption, so the two rates are independent.
            if fault_draw(self.faults.seed, self.rank as u64, idx * 2) < self.faults.drop_rate {
                stats.dropped += 1;
                self.stats.set(stats);
                if let Some(sink) = &self.sink {
                    sink.counter_add(names::counters::MSGS_DROPPED, 1);
                }
                return; // charged but never delivered
            }
            if fault_draw(self.faults.seed, self.rank as u64, idx * 2 + 1)
                < self.faults.corrupt_rate
            {
                stats.corrupted += 1;
                match data.first_mut() {
                    Some(v) => *v = f64::from_bits(v.to_bits() ^ 0x1), // single bit flip
                    None => checksum ^= 1, // empty payload: corrupt the checksum instead
                }
            }
        }
        self.stats.set(stats);
        // A receiver that already exited is not this rank's failure.
        let msg = Message { from: self.rank, tag, data, checksum, arrival: 0.0 };
        self.wire.post(to, msg, self.clock);
    }

    /// Receives the next message from `from` with `tag`, waiting at most
    /// the default virtual timeout (out-of-order messages stay queued).
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.recv_timeout(from, tag, RECV_TIMEOUT_S)
    }

    /// Receives the next message from `from` with `tag` if it arrives
    /// within `timeout_s` simulated seconds of this rank's clock. A missing
    /// message surfaces as [`CommError::Timeout`] naming the stalled peer
    /// instead of blocking forever; a checksum mismatch surfaces as
    /// [`CommError::Corrupted`]. How long the wait takes in real time does
    /// not matter: see the module docs.
    pub fn recv_timeout(
        &mut self,
        from: usize,
        tag: u64,
        timeout_s: f64,
    ) -> Result<Vec<f64>, CommError> {
        assert!(timeout_s >= 0.0, "receive timeout must be a non-negative number of seconds");
        let deadline = self.clock + timeout_s;
        let Some(msg) = self.wire.take(self.rank, from, tag, deadline) else {
            self.clock = deadline;
            if self.detector.record_miss(from) {
                if let Some(sink) = &self.sink {
                    sink.counter_add(names::counters::RANK_DEATHS, 1);
                }
                return Err(CommError::PeerDead { from, tag });
            }
            return Err(CommError::Timeout { from, tag });
        };
        self.clock = self.clock.max(msg.arrival);
        // A received message — even a corrupted one — is liveness evidence.
        self.detector.record_evidence(from);
        if payload_checksum(&msg.data) != msg.checksum {
            return Err(CommError::Corrupted { from, tag });
        }
        Ok(msg.data)
    }

    /// Reduction to rank 0 then broadcast — functionally exact; the
    /// log-tree *cost* is modeled by
    /// [`crate::netmodel::NetworkModel::allreduce_time`]. On failure the
    /// error names the rank whose contribution never arrived.
    fn allreduce(&mut self, value: f64, op: impl Fn(f64, f64) -> f64) -> Result<f64, CommError> {
        const TAG_GATHER: u64 = u64::MAX - 1;
        const TAG_BCAST: u64 = u64::MAX - 2;
        if self.rank == 0 {
            let mut acc = value;
            for r in 1..self.size {
                let v = self.recv(r, TAG_GATHER)?;
                acc = op(acc, v[0]);
            }
            for r in 1..self.size {
                self.send(r, TAG_BCAST, vec![acc]);
            }
            Ok(acc)
        } else {
            self.send(0, TAG_GATHER, vec![value]);
            Ok(self.recv(0, TAG_BCAST)?[0])
        }
    }

    /// Global minimum — the paper's step 5: "An MPI reduction is used to
    /// find the global minimum time step."
    pub fn allreduce_min(&mut self, value: f64) -> Result<f64, CommError> {
        self.allreduce(value, f64::min)
    }

    /// Global sum (dot products of the distributed PCG).
    fn allreduce_sum(&mut self, value: f64) -> Result<f64, CommError> {
        self.allreduce(value, |a, b| a + b)
    }

    /// Element-wise global sum of a vector (shared-DOF assembly).
    pub fn allreduce_sum_vec(&mut self, values: &mut [f64]) -> Result<(), CommError> {
        const TAG_VGATHER: u64 = u64::MAX - 3;
        const TAG_VBCAST: u64 = u64::MAX - 4;
        if self.rank == 0 {
            for r in 1..self.size {
                let v = self.recv(r, TAG_VGATHER)?;
                assert_eq!(v.len(), values.len(), "vector allreduce length mismatch");
                for (a, b) in values.iter_mut().zip(v) {
                    *a += b;
                }
            }
            for r in 1..self.size {
                self.send(r, TAG_VBCAST, values.to_vec());
            }
        } else {
            self.send(0, TAG_VGATHER, values.to_vec());
            let v = self.recv(0, TAG_VBCAST)?;
            values.copy_from_slice(&v);
        }
        Ok(())
    }

    /// Barrier (allreduce of a dummy value). A rank that never arrives
    /// (dead, exited, or its message dropped) turns the barrier into an
    /// error rather than a hang.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.allreduce_sum(0.0).map(|_| ())
    }
}

/// Spawns `size` ranks, each running `body(comm)`, and returns their
/// results in rank order (no fault injection).
pub fn run_ranks<R: Send>(size: usize, body: impl Fn(Communicator) -> R + Sync) -> Vec<R> {
    run_ranks_with_faults(size, ClusterFaultPlan::none(), body)
}

/// Spawns `size` ranks under a fault plan; each runs `body(comm)`.
///
/// The body observes injected faults as `CommError`s from its receive /
/// collective calls and decides how to react (retry, abort, report) — the
/// harness itself never hangs on a dropped message.
pub fn run_ranks_with_faults<R: Send>(
    size: usize,
    plan: ClusterFaultPlan,
    body: impl Fn(Communicator) -> R + Sync,
) -> Vec<R> {
    try_run_ranks_with_faults(size, plan, body).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_ranks_with_faults`] with a typed failure path: a rank body that
/// panics surfaces as [`CommError::RankPanicked`] (with the rank id and
/// the panic message) instead of tearing down the caller with a bare
/// `expect` — resilience drivers want to bill the failure, not inherit it.
pub fn try_run_ranks_with_faults<R: Send>(
    size: usize,
    plan: ClusterFaultPlan,
    body: impl Fn(Communicator) -> R + Sync,
) -> Result<Vec<R>, CommError> {
    assert!(size >= 1, "need at least one rank");
    let plan = Arc::new(plan);
    let wire = Arc::new(Wire::new(size));
    let body = &body;
    let comms: Vec<Communicator> = (0..size)
        .map(|rank| Communicator {
            rank,
            size,
            wire: wire.clone(),
            clock: 0.0,
            faults: plan.clone(),
            sends: Cell::new(0),
            stats: Cell::new(CommFaultStats::default()),
            detector: FailureDetector::disarmed(size),
            sink: None,
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || body(comm)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().map_err(|payload| {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    CommError::RankPanicked { rank, detail }
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_ids() {
        let ids = run_ranks(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn rank_panic_surfaces_as_typed_error_with_rank_and_message() {
        let res = try_run_ranks_with_faults(3, ClusterFaultPlan::none(), |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploded");
            }
            c.rank()
        });
        match res {
            Err(CommError::RankPanicked { rank, detail }) => {
                assert_eq!(rank, 1);
                assert!(detail.contains("rank 1 exploded"), "detail: {detail}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn healthy_ranks_return_ok_through_the_typed_path() {
        let res = try_run_ranks_with_faults(3, ClusterFaultPlan::none(), |c| c.rank() * 2)
            .expect("no rank panicked");
        assert_eq!(res, vec![0, 2, 4]);
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its id to the next; total received = sum of ids.
        let got = run_ranks(5, |mut c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, vec![c.rank() as f64]);
            c.recv(prev, 7).expect("healthy ring")[0]
        });
        let sum: f64 = got.iter().sum();
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn allreduce_min_finds_global_minimum() {
        let results = run_ranks(6, |mut c| {
            let local_dt = 0.1 + c.rank() as f64; // rank 0 has the minimum
            c.allreduce_min(local_dt).unwrap()
        });
        assert!(results.iter().all(|&v| v == 0.1));
    }

    #[test]
    fn allreduce_sum_is_exactly_the_sum() {
        let results = run_ranks(8, |mut c| c.allreduce_sum((c.rank() + 1) as f64).unwrap());
        assert!(results.iter().all(|&v| v == 36.0));
    }

    #[test]
    fn vector_allreduce_assembles_contributions() {
        let results = run_ranks(3, |mut c| {
            let mut v = vec![0.0; 4];
            v[c.rank()] = 1.0;
            v[3] = c.rank() as f64;
            c.allreduce_sum_vec(&mut v).unwrap();
            v
        });
        for v in results {
            assert_eq!(v, vec![1.0, 1.0, 1.0, 3.0]);
        }
    }

    #[test]
    fn out_of_order_messages_are_stashed() {
        let results = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                c.send(1, 2, vec![2.0]);
                c.send(1, 1, vec![1.0]);
                0.0
            } else {
                let first = c.recv(0, 1).unwrap()[0];
                let second = c.recv(0, 2).unwrap()[0];
                first * 10.0 + second
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let r = run_ranks(1, |mut c| {
            c.barrier().unwrap();
            c.allreduce_min(0.5).unwrap()
        });
        assert_eq!(r, vec![0.5]);
    }

    #[test]
    fn barrier_synchronizes() {
        // No deadlock across repeated barriers.
        let r = run_ranks(4, |mut c| {
            for _ in 0..10 {
                c.barrier().unwrap();
            }
            c.rank()
        });
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let results = run_ranks(2, |mut c| {
            if c.rank() == 1 {
                // Rank 0 never sends: rank 1 must get a timeout, not hang.
                c.recv_timeout(0, 9, 20e-3)
            } else {
                Err(CommError::Timeout { from: 99, tag: 0 }) // placeholder
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout { from: 0, tag: 9 }));
    }

    #[test]
    fn dropped_message_surfaces_as_timeout_naming_the_rank() {
        let plan = ClusterFaultPlan::seeded(42).with_drop_rate(1.0);
        let results = run_ranks_with_faults(2, plan, |mut c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![1.0]);
                Ok(vec![])
            } else {
                c.recv_timeout(0, 5, 20e-3)
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout { from: 0, tag: 5 }));
    }

    #[test]
    fn corrupted_message_detected_by_checksum() {
        let plan = ClusterFaultPlan::seeded(7).with_corrupt_rate(1.0);
        let results = run_ranks_with_faults(2, plan, |mut c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![3.25, -1.5]);
                Ok(vec![])
            } else {
                c.recv_timeout(0, 5, 200e-3)
            }
        });
        assert_eq!(results[1], Err(CommError::Corrupted { from: 0, tag: 5 }));
    }

    #[test]
    fn allreduce_reports_the_failed_rank() {
        // Every send is dropped, so no contribution reaches rank 0.
        let plan = ClusterFaultPlan::seeded(3).with_drop_rate(1.0);
        let results = run_ranks_with_faults(3, plan, |mut c| c.allreduce_sum(c.rank() as f64));
        // Rank 0 times out waiting for rank 1's (dropped) contribution.
        assert_eq!(results[0], Err(CommError::Timeout { from: 1, tag: u64::MAX - 1 }));
        // Non-root ranks time out on the broadcast that never comes.
        assert_eq!(results[1], Err(CommError::Timeout { from: 0, tag: u64::MAX - 2 }));
    }

    #[test]
    fn dead_rank_stops_transmitting_permanently() {
        // Rank 1 dies after 2 sends: the first two arrive, the rest never do.
        let plan = ClusterFaultPlan::none().with_rank_death(1, 2);
        let results = run_ranks_with_faults(2, plan, |mut c| {
            if c.rank() == 1 {
                assert!(!c.is_dead(), "alive before the scheduled point");
                for i in 0..5 {
                    c.send(0, i, vec![i as f64]);
                }
                assert!(c.is_dead(), "dead after the scheduled point");
                c.fault_stats().suppressed as f64
            } else {
                let a = c.recv_timeout(1, 0, 100e-3).unwrap()[0];
                let b = c.recv_timeout(1, 1, 100e-3).unwrap()[0];
                let lost = c.recv_timeout(1, 2, 20e-3);
                assert_eq!(lost, Err(CommError::Timeout { from: 1, tag: 2 }));
                a + b
            }
        });
        assert_eq!(results[0], 1.0, "pre-death sends delivered");
        assert_eq!(results[1], 3.0, "three post-death sends suppressed");
    }

    #[test]
    fn suspicion_threshold_escalates_to_peer_dead() {
        let plan = ClusterFaultPlan::none().with_rank_death(0, 0);
        let results = run_ranks_with_faults(2, plan, |mut c| {
            if c.rank() == 1 {
                c.set_suspicion_threshold(3);
                let mut last = Ok(vec![]);
                for _ in 0..3 {
                    last = c.recv_timeout(0, 9, 10e-3);
                }
                last
            } else {
                Ok(vec![])
            }
        });
        assert_eq!(results[1], Err(CommError::PeerDead { from: 0, tag: 9 }));
    }

    #[test]
    fn arrival_evidence_resets_suspicion() {
        // Two timeouts, then a real message, then two more timeouts: with
        // threshold 3 the counter must have reset, so no PeerDead.
        let results = run_ranks(2, |mut c| {
            if c.rank() == 1 {
                c.set_suspicion_threshold(3);
                for _ in 0..2 {
                    let e = c.recv_timeout(0, 9, 10e-3);
                    assert_eq!(e, Err(CommError::Timeout { from: 0, tag: 9 }));
                }
                let v = c.recv_timeout(0, 1, 200e-3).unwrap();
                for _ in 0..2 {
                    let e = c.recv_timeout(0, 9, 10e-3);
                    assert_eq!(e, Err(CommError::Timeout { from: 0, tag: 9 }), "counter reset");
                }
                v[0]
            } else {
                // Idle 30 virtual ms, past rank 1's two timeouts.
                assert!(c.recv_timeout(1, 0, 30e-3).is_err());
                c.send(1, 1, vec![5.0]);
                0.0
            }
        });
        assert_eq!(results[1], 5.0);
    }

    #[test]
    fn detector_off_by_default_keeps_plain_timeouts() {
        let results = run_ranks(2, |mut c| {
            if c.rank() == 1 {
                let mut last = Ok(vec![]);
                for _ in 0..5 {
                    last = c.recv_timeout(0, 9, 5e-3);
                }
                last
            } else {
                Ok(vec![])
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout { from: 0, tag: 9 }));
    }

    #[test]
    fn env_seed_reaches_the_cluster_plan() {
        // No env mutation here (racy across test binaries): the default
        // path must just pass through.
        let p = ClusterFaultPlan::seeded_from_env(123);
        if gpu_sim::fault_seed_from_env().is_none() {
            assert_eq!(p.seed, 123);
        }
    }

    #[test]
    fn attached_sink_counts_messages_bytes_and_drops() {
        let sink = blast_telemetry::Telemetry::sink();
        let plan = ClusterFaultPlan::seeded(11).with_drop_rate(0.5);
        let sink2 = sink.clone();
        let dropped = run_ranks_with_faults(2, plan, move |mut c| {
            if c.rank() == 0 {
                c.attach_telemetry(sink2.clone());
                for i in 0..16 {
                    c.send(1, i, vec![i as f64; 4]);
                }
                c.fault_stats().dropped
            } else {
                0
            }
        })[0];
        assert_eq!(sink.counter(names::counters::MSGS_SENT), 16);
        assert_eq!(sink.counter(names::counters::MSG_BYTES), 16 * 4 * 8);
        assert_eq!(sink.counter(names::counters::MSGS_DROPPED), dropped as u64);
    }

    #[test]
    fn attached_sink_counts_rank_deaths() {
        let sink = blast_telemetry::Telemetry::sink();
        let plan = ClusterFaultPlan::none().with_rank_death(0, 0);
        let sink2 = sink.clone();
        run_ranks_with_faults(2, plan, move |mut c| {
            if c.rank() == 1 {
                c.attach_telemetry(sink2.clone());
                c.set_suspicion_threshold(2);
                for _ in 0..2 {
                    let _ = c.recv_timeout(0, 9, 5e-3);
                }
            }
        });
        assert_eq!(sink.counter(names::counters::RANK_DEATHS), 1);
    }

    #[test]
    fn fault_injection_is_deterministic_under_a_seed() {
        let run = |seed: u64| {
            let plan = ClusterFaultPlan::seeded(seed).with_drop_rate(0.5);
            run_ranks_with_faults(2, plan, |c| {
                if c.rank() == 0 {
                    for i in 0..32 {
                        c.send(1, i, vec![i as f64]);
                    }
                    c.fault_stats().dropped
                } else {
                    0
                }
            })[0]
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed must drop the same messages");
        assert!(a > 0 && a < 32, "rate 0.5 should drop some but not all: {a}");
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn the_clock_moves_to_arrivals_and_deadlines() {
        // Rank 1's 1 ms wait times out first (smallest deadline), then rank
        // 0's 3 ms one; its message lands one point-to-point time later.
        let p2p = Machine::Shannon.network().p2p_time(8);
        let clocks = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                assert_eq!(c.recv_timeout(1, 9, 3e-3), Err(CommError::Timeout { from: 1, tag: 9 }));
                c.send(1, 1, vec![1.0]);
            } else {
                assert_eq!(c.recv_timeout(0, 1, 1e-3), Err(CommError::Timeout { from: 0, tag: 1 }));
                assert_eq!(c.clock, 1e-3);
                assert_eq!(c.recv_timeout(0, 1, 5e-3), Ok(vec![1.0]));
            }
            c.clock
        });
        assert_eq!(clocks, vec![3e-3, 3e-3 + p2p]);
    }

    #[test]
    fn a_late_message_times_out_and_stays_queued() {
        // Rank 0 sends half a point-to-point time before rank 1's deadline:
        // the message is on the wire but arrives too late for that receive,
        // and the next receive takes it.
        let p2p = Machine::Shannon.network().p2p_time(8);
        let results = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                assert!(c.recv_timeout(1, 9, 1e-3 - p2p / 2.0).is_err());
                c.send(1, 1, vec![7.0]);
                vec![]
            } else {
                assert_eq!(c.recv_timeout(0, 1, 1e-3), Err(CommError::Timeout { from: 0, tag: 1 }));
                let got = c.recv_timeout(0, 1, 1e-3).expect("the late message stays queued");
                assert_eq!(c.clock, 1e-3 - p2p / 2.0 + p2p);
                got
            }
        });
        assert_eq!(results[1], vec![7.0]);
    }

    #[test]
    fn an_exited_peer_resolves_as_a_timeout_at_the_deadline() {
        // Rank 0 returns and rank 1 panics without sending: rank 2's waits
        // on both end at their deadlines instead of hanging.
        let waited = std::sync::Mutex::new(None);
        let res = try_run_ranks_with_faults(3, ClusterFaultPlan::none(), |mut c| match c.rank() {
            0 => {}
            1 => panic!("rank 1 exploded"),
            _ => {
                let got = [c.recv_timeout(0, 4, 2e-3), c.recv_timeout(1, 4, 2e-3)];
                *waited.lock().unwrap() = Some((got, c.clock));
            }
        });
        assert!(matches!(res, Err(CommError::RankPanicked { rank: 1, .. })), "{res:?}");
        let (got, clock) = waited.into_inner().unwrap().expect("rank 2 returned");
        let timeout = |from| Err(CommError::Timeout { from, tag: 4 });
        assert_eq!(got, [timeout(0), timeout(1)]);
        assert_eq!(clock, 4e-3);
    }
}
