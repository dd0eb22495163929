//! The job supervisor: admission, scheduling, deadlines, retry/backoff,
//! checkpoint-backed preemption, worker-death recovery, and per-tenant
//! energy billing — all on the simulated-time axis.
//!
//! # Time and energy model
//!
//! Each worker owns a continuous simulated clock and a pair of power
//! traces (host + optional GPU) covering its whole lifetime. A job
//! attempt runs on a *fresh* solver whose devices start at `t = 0`; when
//! the attempt ends (completion, fault, preemption, worker death,
//! cancellation) its device traces are re-emitted into the worker traces
//! shifted by the attempt's start offset, and the attempt's metered
//! joules are billed to the owning tenant. Retry backoffs and
//! arrival-wait gaps advance the worker clock without segments, so the
//! worker trace bills them at idle watts — exactly what the supervisor
//! charges (backoffs to the tenant, arrival waits to the idle bucket).
//! The ledger gate checks the two accountings agree to 1e-9.
//!
//! # Determinism
//!
//! Scheduling is a single-threaded discrete-event loop with total tie
//! ordering (worker id, job id); chaos is drawn from the counter-based
//! [`fault_draw`] stream keyed by the config seed. Physics is
//! bit-deterministic regardless of `BLAST_THREADS`, so the whole job
//! ledger digest is reproducible from the seed alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use blast_core::checkpoint::{CheckpointPolicy, CheckpointStore};
use blast_core::solver::MAX_STEP_REDOS;
use blast_core::state::HydroState;
use blast_core::{AuditConfig, ExecMode, Executor, Hydro, HydroError, RunCursor};
use blast_telemetry::names::{counters, gauges, phases};
use blast_telemetry::{Telemetry, TelemetrySink, Track};
use cluster_sim::FailureDetector;
use gpu_sim::fault::{fault_draw, RetryPolicy};
use gpu_sim::{derive_fault, CpuSpec, FaultPlan, GpuDevice, GpuSpec, SdcSite};
use powermon::{PowerTrace, ResilienceReport};

use crate::admission::AdmissionError;
use crate::job::{CancelReason, JobId, JobOutcome, JobRecord, JobSpec};
use crate::ledger::ServeReport;
use gpu_sim::DeviceCatalog;

/// Chaos stream id for the supervisor's per-quantum fault draws (disjoint
/// from the device fault streams and the retry jitter stream).
pub const SERVE_CHAOS_STREAM: u64 = 0x05E2_FE57;

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission queue bound: at most this many admitted-but-unfinished
    /// jobs; further submissions bounce with `QueueFull`.
    pub queue_capacity: usize,
    /// Accepted steps per scheduling quantum (preemption and worker
    /// death are observed at quantum boundaries).
    pub quantum_steps: usize,
    /// Whole-job retry policy template. Each job gets its own jitter
    /// seed derived from `seed` and the job id.
    pub retry: RetryPolicy,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub worker_death_threshold: u32,
    /// Seed for the supervisor's chaos and jitter streams.
    pub seed: u64,
    /// Per-quantum probability a job draws a lethal fault burst (more
    /// consecutive recoverable faults than the solver's redo budget).
    pub kill_rate: f64,
    /// Per-quantum probability of a survivable redo burst (absorbed by
    /// rollback with dt halving).
    pub redo_rate: f64,
    /// Per-quantum probability of a silent-data-corruption burst: a
    /// replayable bit flip armed in the attempt's next step. When this is
    /// nonzero every attempt runs with the physics-invariant auditor
    /// installed, so a corrupted job is either healed in place (audit +
    /// same-dt redo), retried after a typed `CorruptionDetected`, or
    /// failed typed — never completed silently wrong.
    pub sdc_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            quantum_steps: 8,
            retry: RetryPolicy::default().with_cap(1.0),
            worker_death_threshold: 3,
            seed: 42,
            kill_rate: 0.0,
            redo_rate: 0.0,
            sdc_rate: 0.0,
        }
    }
}

/// A worker blueprint: the host CPU, optionally a GPU (with a standing
/// fault plan installed on every attempt), and an optional scripted
/// death time on the worker's clock.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Catalog device id this worker advertises (`gpu_sim::DeviceCatalog`)
    /// — the key routed jobs are matched against, and the bucket its
    /// energy lands under in `ServeReport::device_energy_j`.
    pub device_id: String,
    /// Host CPU model.
    pub host: CpuSpec,
    /// GPU model, when the worker runs the offloaded path.
    pub gpu: Option<GpuSpec>,
    /// Fault plan installed on the (fresh) device of every attempt —
    /// the hook for persistent-fault storms that force CPU degradation.
    pub gpu_fault_plan: Option<FaultPlan>,
    /// Clock time at which this worker silently dies (missed heartbeats
    /// then escalate through the failure detector).
    pub die_at_s: Option<f64>,
}

impl WorkerSpec {
    /// A worker realizing one catalog device: its host CPU, its GPU when
    /// the spec carries one, and the catalog id routed jobs match on.
    pub fn from_device(dev: &gpu_sim::DeviceSpec) -> Self {
        Self {
            device_id: dev.id.clone(),
            host: dev.host.clone(),
            gpu: dev.gpu.clone(),
            gpu_fault_plan: None,
            die_at_s: None,
        }
    }

    /// A CPU-only worker (serial E5-2670 host) — the catalog's
    /// `"cpu-e5-2670"` entry.
    pub fn cpu() -> Self {
        Self::from_device(&DeviceCatalog::get("cpu-e5-2670"))
    }

    /// Scripts this worker to die once its clock reaches `t`.
    #[must_use]
    pub fn dying_at(mut self, t: f64) -> Self {
        self.die_at_s = Some(t);
        self
    }

    /// Installs a standing device fault plan on every attempt.
    #[must_use]
    pub fn with_gpu_faults(mut self, plan: FaultPlan) -> Self {
        self.gpu_fault_plan = Some(plan);
        self
    }

    fn idle_watts(&self) -> f64 {
        let host = self.host.power.idle_pkg_w + self.host.power.idle_dram_w;
        host + self.gpu.as_ref().map_or(0.0, |g| g.idle_w)
    }
}

/// One in-flight attempt: a fresh solver whose device clocks started at
/// zero when the worker clock was `offset`.
struct Attempt {
    hydro: Hydro<2>,
    state: HydroState,
    /// Where the job's accepted-step loop stands (dt, steps, redos).
    cursor: RunCursor,
    /// Redo count inherited from the checkpoint (excluded from this
    /// attempt's resilience delta).
    redos0: usize,
    /// Worker clock at attempt start.
    offset: f64,
}

struct Running {
    job: usize,
    attempt: Option<Attempt>,
}

struct Worker {
    id: usize,
    spec: WorkerSpec,
    clock: f64,
    alive: bool,
    host_trace: PowerTrace,
    gpu_trace: Option<PowerTrace>,
    current: Option<Running>,
}

struct Job {
    id: JobId,
    spec: JobSpec,
    record: JobRecord,
    store: CheckpointStore,
    policy: RetryPolicy,
    /// Attempts that died to faults so far.
    failures: u32,
    /// Monotone per-job quantum counter feeding the chaos stream.
    quanta: u64,
}

impl Job {
    fn terminal(&self) -> bool {
        self.record.outcome.is_some()
    }
}

/// The fault-tolerant multi-tenant job supervisor.
pub struct Supervisor {
    cfg: ServeConfig,
    workers: Vec<Worker>,
    jobs: Vec<Job>,
    /// Indices of admitted jobs not currently running and not terminal.
    pending: Vec<usize>,
    detector: FailureDetector,
    budgets: BTreeMap<String, f64>,
    telemetry: TelemetrySink,
    resilience: ResilienceReport,
    idle_energy_j: f64,
    rejected: u64,
    workers_lost: u64,
}

impl Supervisor {
    /// Builds a supervisor over the given worker pool.
    pub fn new(cfg: ServeConfig, workers: Vec<WorkerSpec>) -> Self {
        assert!(!workers.is_empty(), "a supervisor needs at least one worker");
        assert!(cfg.quantum_steps >= 1, "quantum must be at least one step");
        assert!(
            cfg.kill_rate + cfg.redo_rate + cfg.sdc_rate <= 1.0,
            "chaos rates must sum to at most 1"
        );
        let n = workers.len();
        let workers = workers
            .into_iter()
            .enumerate()
            .map(|(id, spec)| {
                let host_idle = spec.host.power.idle_pkg_w + spec.host.power.idle_dram_w;
                let gpu_trace = spec.gpu.as_ref().map(|g| PowerTrace::new(g.idle_w));
                Worker {
                    id,
                    spec,
                    clock: 0.0,
                    alive: true,
                    host_trace: PowerTrace::new(host_idle),
                    gpu_trace,
                    current: None,
                }
            })
            .collect();
        let detector = FailureDetector::new(n, cfg.worker_death_threshold);
        Self {
            cfg,
            workers,
            jobs: Vec::new(),
            pending: Vec::new(),
            detector,
            budgets: BTreeMap::new(),
            telemetry: Telemetry::sink(),
            resilience: ResilienceReport::default(),
            idle_energy_j: 0.0,
            rejected: 0,
            workers_lost: 0,
        }
    }

    /// The supervisor's telemetry recorder (SERVE-track instants, job
    /// counters, queue-depth gauge).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Caps `tenant`'s total admitted energy estimates at `joules`;
    /// submissions past the cap bounce with `OverBudget`.
    pub fn set_tenant_budget(&mut self, tenant: impl Into<String>, joules: f64) {
        self.budgets.insert(tenant.into(), joules);
    }

    /// Admission control: bounded queue, per-tenant energy budgets.
    /// Rejected submissions consume nothing.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        self.telemetry.counter_add(counters::JOBS_SUBMITTED, 1);
        if self.pending.len() >= self.cfg.queue_capacity {
            self.rejected += 1;
            self.telemetry.counter_add(counters::JOBS_REJECTED, 1);
            return Err(AdmissionError::QueueFull { capacity: self.cfg.queue_capacity });
        }
        if let Some(&budget_j) = self.budgets.get(&spec.tenant) {
            let committed_j: f64 = self
                .jobs
                .iter()
                .filter(|j| j.spec.tenant == spec.tenant)
                .map(|j| j.spec.energy_est_j)
                .sum();
            if committed_j + spec.energy_est_j > budget_j {
                self.rejected += 1;
                self.telemetry.counter_add(counters::JOBS_REJECTED, 1);
                return Err(AdmissionError::OverBudget {
                    tenant: spec.tenant.clone(),
                    budget_j,
                    committed_j,
                    requested_j: spec.energy_est_j,
                });
            }
        }
        let id = JobId(self.jobs.len() as u64);
        let record = JobRecord::new(id, &spec);
        let mut policy = self.cfg.retry;
        if policy.jitter > 0.0 {
            let mix = self.cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 + 1);
            policy = policy.with_jitter(policy.jitter, mix);
        }
        self.telemetry.instant(Track::Serve, phases::JOB_ADMITTED, spec.arrival_s);
        self.jobs.push(Job {
            id,
            spec,
            record,
            store: CheckpointStore::in_memory(),
            policy,
            failures: 0,
            quanta: 0,
        });
        self.pending.push(self.jobs.len() - 1);
        self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, self.pending.len() as f64);
        Ok(id)
    }

    /// Routes `spec` through the energy-aware router and submits it with
    /// the resulting placement pinned: the job will only run on workers
    /// advertising the routed catalog device, under the routed mode.
    /// Admission control is unchanged; a rejected submission consumes
    /// nothing (the routing decision is returned either way, inside the
    /// error-free arm or discarded by the caller on rejection).
    pub fn submit_routed(
        &mut self,
        router: &mut crate::routing::Router,
        mut spec: JobSpec,
    ) -> Result<(JobId, crate::routing::RoutingDecision), AdmissionError> {
        let decision = router.route(&spec).map_err(|e| AdmissionError::Unroutable {
            scenario: spec.scenario.name(),
            error: e.to_string(),
        })?;
        spec.placement = Some(decision.placement.clone());
        self.telemetry.counter_add(counters::JOBS_ROUTED, 1);
        if decision.slo_forced {
            self.telemetry.counter_add(counters::ROUTE_SLO_FORCED, 1);
        }
        self.telemetry.instant(Track::Serve, phases::JOB_ROUTED, spec.arrival_s);
        let id = self.submit(spec)?;
        Ok((id, decision))
    }

    /// Drives every admitted job to a terminal state and returns the
    /// ledger. Deterministic for a fixed config + submission sequence.
    pub fn run_to_completion(&mut self) -> ServeReport {
        loop {
            self.process_deaths();
            self.cancel_unplaceable();
            if self.jobs.iter().all(Job::terminal) {
                break;
            }
            if !self.workers.iter().any(|w| w.alive) {
                self.cancel_survivorless();
                break;
            }
            if self.try_dispatch() {
                continue;
            }
            // No dispatch possible: run the busy worker furthest behind.
            let busy = self
                .workers
                .iter()
                .filter(|w| w.alive && w.current.is_some())
                .min_by(|a, b| a.clock.total_cmp(&b.clock).then(a.id.cmp(&b.id)))
                .map(|w| w.id);
            if let Some(wid) = busy {
                self.run_quantum(wid);
                continue;
            }
            // Everyone idle: advance a *compatible* worker to the next
            // arrival, billing the wait to the unowned idle bucket. A
            // placed job only ever pulls a worker of its pinned device
            // forward (the unplaceable sweep above guarantees one is
            // alive); without placements this reduces to the legacy
            // earliest-arrival / earliest-worker rule bit for bit.
            let mut pick: Option<(f64, usize)> = None;
            for &j in &self.pending {
                let spec = &self.jobs[j].spec;
                let wid = self
                    .workers
                    .iter()
                    .filter(|w| w.alive && w.current.is_none())
                    .filter(|w| {
                        spec.placement.as_ref().is_none_or(|p| p.device_id == w.spec.device_id)
                    })
                    .min_by(|a, b| a.clock.total_cmp(&b.clock).then(a.id.cmp(&b.id)))
                    .map(|w| w.id);
                if let Some(wid) = wid {
                    let better = pick.is_none_or(|(t, w)| {
                        spec.arrival_s.total_cmp(&t).then(wid.cmp(&w)).is_lt()
                    });
                    if better {
                        pick = Some((spec.arrival_s, wid));
                    }
                }
            }
            let Some((t, wid)) = pick else {
                debug_assert!(false, "non-terminal jobs but nothing runnable");
                break;
            };
            let w = &mut self.workers[wid];
            if t > w.clock {
                self.idle_energy_j += (t - w.clock) * w.spec.idle_watts();
                w.clock = t;
            }
        }
        self.finalize()
    }

    // ------------------------------------------------------------------
    // Scheduling internals
    // ------------------------------------------------------------------

    /// Declares workers whose scripted death time has passed, billing
    /// their in-flight work and re-queueing their jobs (progress since
    /// the last checkpoint is lost; the checkpoint store survives).
    fn process_deaths(&mut self) {
        for wid in 0..self.workers.len() {
            let w = &self.workers[wid];
            if !w.alive || w.spec.die_at_s.is_none_or(|d| w.clock < d) {
                continue;
            }
            // The worker went silent: consecutive missed heartbeats
            // escalate through the shared failure detector.
            while !self.detector.record_miss(wid) {}
            self.workers[wid].alive = false;
            self.workers_lost += 1;
            self.telemetry.counter_add(counters::WORKER_DEATHS, 1);
            self.telemetry.instant(Track::Serve, phases::WORKER_DEAD, self.workers[wid].clock);
            if let Some(running) = self.workers[wid].current.take() {
                if running.attempt.is_some() {
                    self.harvest(wid, running.job, running.attempt);
                }
                self.pending.push(running.job);
                self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, self.pending.len() as f64);
            }
        }
    }

    /// Cancels pending *placed* jobs whose pinned device has no alive
    /// worker left — no future dispatch could ever serve them, so they
    /// terminate as `WorkerLost` (zero additional energy) instead of
    /// wedging the event loop.
    fn cancel_unplaceable(&mut self) {
        let orphans: Vec<usize> = self
            .pending
            .iter()
            .copied()
            .filter(|&j| {
                self.jobs[j].spec.placement.as_ref().is_some_and(|p| {
                    !self.workers.iter().any(|w| w.alive && w.spec.device_id == p.device_id)
                })
            })
            .collect();
        for j in orphans {
            self.pending.retain(|&x| x != j);
            self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, self.pending.len() as f64);
            let t = self.wall_now();
            self.finish(j, JobOutcome::Cancelled { reason: CancelReason::WorkerLost }, t);
        }
    }

    /// Cancels every non-terminal job once no worker survives.
    fn cancel_survivorless(&mut self) {
        for idx in 0..self.jobs.len() {
            if !self.jobs[idx].terminal() {
                let t = self.wall_now();
                self.finish(idx, JobOutcome::Cancelled { reason: CancelReason::WorkerLost }, t);
            }
        }
        self.pending.clear();
        self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, 0.0);
    }

    /// The pending job an idle worker at `clock` should take: arrived,
    /// compatible with the worker's device (a placed job only matches
    /// workers advertising its pinned catalog id), highest priority
    /// first, then FIFO by arrival, then job id.
    fn pick_pending(&self, clock: f64, min_priority: Option<u8>, device: &str) -> Option<usize> {
        self.pending
            .iter()
            .copied()
            .filter(|&j| self.jobs[j].spec.arrival_s <= clock)
            .filter(|&j| {
                self.jobs[j].spec.placement.as_ref().is_none_or(|p| p.device_id == device)
            })
            .filter(|&j| min_priority.is_none_or(|p| self.jobs[j].spec.priority > p))
            .min_by(|&a, &b| {
                let (ja, jb) = (&self.jobs[a], &self.jobs[b]);
                jb.spec
                    .priority
                    .cmp(&ja.spec.priority)
                    .then(ja.spec.arrival_s.total_cmp(&jb.spec.arrival_s))
                    .then(ja.id.cmp(&jb.id))
            })
    }

    /// Tries to start one pending job on an idle worker. Pending jobs
    /// whose deadline already lapsed are cancelled here (zero energy —
    /// they never ran). Returns whether any state changed (a dispatch
    /// *or* a dead-on-arrival cancellation — the caller must re-evaluate
    /// either way).
    fn try_dispatch(&mut self) -> bool {
        let mut changed = false;
        let mut idle: Vec<usize> = self
            .workers
            .iter()
            .filter(|w| w.alive && w.current.is_none())
            .map(|w| w.id)
            .collect();
        idle.sort_by(|&a, &b| {
            self.workers[a]
                .clock
                .total_cmp(&self.workers[b].clock)
                .then(a.cmp(&b))
        });
        for wid in idle {
            loop {
                let clock = self.workers[wid].clock;
                let Some(job_idx) =
                    self.pick_pending(clock, None, &self.workers[wid].spec.device_id)
                else {
                    break;
                };
                self.pending.retain(|&j| j != job_idx);
                self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, self.pending.len() as f64);
                let spec = &self.jobs[job_idx].spec;
                if spec.deadline_s.is_some_and(|d| clock - spec.arrival_s > d) {
                    // Dead on arrival at this worker: cancel unstarted.
                    self.telemetry.counter_add(counters::DEADLINE_MISSES, 1);
                    self.finish(
                        job_idx,
                        JobOutcome::Cancelled { reason: CancelReason::DeadlineExceeded },
                        clock,
                    );
                    changed = true;
                    continue;
                }
                if self.jobs[job_idx].record.started_s.is_none() {
                    self.jobs[job_idx].record.started_s = Some(clock);
                    self.telemetry.instant(Track::Serve, phases::JOB_STARTED, clock);
                }
                self.workers[wid].current = Some(Running { job: job_idx, attempt: None });
                return true;
            }
        }
        changed
    }

    /// Runs one scheduling quantum on busy worker `wid`: preemption
    /// check, attempt (re)build with chaos injection, up to
    /// `quantum_steps` accepted steps with deadline enforcement.
    fn run_quantum(&mut self, wid: usize) {
        let running = self.workers[wid].current.take().expect("worker is busy");
        let job_idx = running.job;
        let clock = self.workers[wid].clock;

        // Deadline may have lapsed between quanta (e.g. during backoff).
        let spec = &self.jobs[job_idx].spec;
        if spec.deadline_s.is_some_and(|d| clock - spec.arrival_s > d) {
            self.harvest(wid, job_idx, running.attempt);
            self.telemetry.counter_add(counters::DEADLINE_MISSES, 1);
            let t = self.workers[wid].clock;
            self.finish(
                job_idx,
                JobOutcome::Cancelled { reason: CancelReason::DeadlineExceeded },
                t,
            );
            return;
        }

        // Checkpoint-backed preemption: a strictly higher-priority
        // arrival evicts this job at the quantum boundary.
        let cur_priority = self.jobs[job_idx].spec.priority;
        if self
            .pick_pending(clock, Some(cur_priority), &self.workers[wid].spec.device_id)
            .is_some()
        {
            let mut attempt = running.attempt;
            if let Some(a) = attempt.as_mut() {
                if let Err(e) =
                    a.hydro.checkpoint_now(&a.state, &mut a.cursor, &mut self.jobs[job_idx].store)
                {
                    // An unwritable checkpoint is an attempt fault.
                    self.harvest(wid, job_idx, attempt);
                    self.fault_attempt(wid, job_idx, e);
                    self.requeue_if_waiting(wid);
                    return;
                }
            }
            self.harvest(wid, job_idx, attempt);
            self.jobs[job_idx].record.preemptions += 1;
            self.telemetry.counter_add(counters::JOB_PREEMPTIONS, 1);
            self.telemetry.instant(Track::Serve, phases::JOB_PREEMPTED, self.workers[wid].clock);
            self.pending.push(job_idx);
            self.telemetry.gauge_set(gauges::SERVE_QUEUE_DEPTH, self.pending.len() as f64);
            return;
        }

        // (Re)build the attempt: fresh solver, resume from the job's
        // checkpoint store when it is ahead of a fresh initial state.
        let mut attempt = match running.attempt {
            Some(a) => a,
            None => match self.build_attempt(wid, job_idx) {
                Ok(a) => a,
                Err(e) => {
                    self.fault_attempt(wid, job_idx, e);
                    self.requeue_if_waiting(wid);
                    return;
                }
            },
        };

        // Chaos: one draw per (job, quantum) from the seeded stream.
        let job = &mut self.jobs[job_idx];
        if !job.spec.fault_immune {
            let counter = (job.id.0 << 32) | job.quanta;
            job.quanta += 1;
            let u = fault_draw(self.cfg.seed, SERVE_CHAOS_STREAM, counter);
            if u < self.cfg.kill_rate {
                // Lethal burst: one more consecutive recoverable fault
                // than the rollback budget absorbs.
                attempt.hydro.inject_step_faults(MAX_STEP_REDOS + 1);
            } else if u < self.cfg.kill_rate + self.cfg.redo_rate {
                // Survivable burst: absorbed by rollback with dt halving.
                attempt.hydro.inject_step_faults(2);
            } else if u < self.cfg.kill_rate + self.cfg.redo_rate + self.cfg.sdc_rate {
                // Silent-corruption burst: a replayable bit flip lands in
                // the attempt's next step (state array, transfer payload,
                // or device buffer — a GEMM-panel flip only lands in a
                // solver built with `AuditConfig::abft`, which serve jobs are
                // not; the `sdc_campaign` experiment exercises that site).
                // A transient flip is caught by the auditor and healed by
                // the same-dt redo inside the quantum; a persistent one
                // exhausts the redo budget and surfaces a typed
                // `CorruptionDetected`, which the retry ladder absorbs
                // with a fresh (clean) attempt.
                let sub = fault_draw(self.cfg.seed, SERVE_CHAOS_STREAM ^ 0x5DC, counter);
                let site = match (sub * 3.0) as u32 {
                    0 => SdcSite::DeviceBuffer,
                    1 => SdcSite::TransferPayload,
                    _ => SdcSite::HostState,
                };
                let persistent =
                    fault_draw(self.cfg.seed, SERVE_CHAOS_STREAM ^ 0xABF7, counter) < 0.25;
                let at_step = attempt.hydro.sdc_attempts() + 1;
                attempt
                    .hydro
                    .arm_sdc_fault(derive_fault(self.cfg.seed, site, at_step, counter, persistent));
            }
        }

        let (t_final, max_steps, arrival, deadline, policy) = {
            let s = &self.jobs[job_idx].spec;
            let policy = CheckpointPolicy::EverySteps(s.checkpoint_every);
            (s.t_final, s.max_steps, s.arrival_s, s.deadline_s, policy)
        };
        for _ in 0..self.cfg.quantum_steps {
            if attempt.cursor.done(&attempt.state, t_final, max_steps) {
                let steps = attempt.cursor.steps;
                let t = attempt.state.t;
                let final_state = attempt.state.clone();
                self.harvest(wid, job_idx, Some(attempt));
                self.jobs[job_idx].record.final_state = Some(final_state);
                let now = self.workers[wid].clock;
                self.finish(job_idx, JobOutcome::Completed { steps, t }, now);
                return;
            }
            // A failed step and an unwritable checkpoint are both attempt
            // faults.
            if let Err(e) = attempt.hydro.advance(
                &mut attempt.state,
                &mut attempt.cursor,
                t_final,
                policy,
                &mut self.jobs[job_idx].store,
            ) {
                self.harvest(wid, job_idx, Some(attempt));
                self.fault_attempt(wid, job_idx, e);
                self.requeue_if_waiting(wid);
                return;
            }
            // Deadline enforcement at step granularity: the consumed
            // energy stays billed.
            let service = attempt.offset + attempt.hydro.executor().now();
            if deadline.is_some_and(|d| service - arrival > d) {
                self.harvest(wid, job_idx, Some(attempt));
                self.telemetry.counter_add(counters::DEADLINE_MISSES, 1);
                let now = self.workers[wid].clock;
                self.finish(
                    job_idx,
                    JobOutcome::Cancelled { reason: CancelReason::DeadlineExceeded },
                    now,
                );
                return;
            }
        }

        // Quantum exhausted with the attempt alive: update the worker
        // clock, report a live heartbeat, and park the attempt.
        self.workers[wid].clock = attempt.offset + attempt.hydro.executor().now();
        self.detector.record_evidence(wid);
        self.workers[wid].current = Some(Running { job: job_idx, attempt: Some(attempt) });
    }

    /// Builds a fresh attempt for `job_idx` on worker `wid`, resuming
    /// from the job's newest valid checkpoint when one exists.
    fn build_attempt(&mut self, wid: usize, job_idx: usize) -> Result<Attempt, HydroError> {
        let w = &self.workers[wid];
        let offset = w.clock;
        // A routed job carries the mode its winning pilot measured; an
        // unplaced job keeps the worker's legacy default (the digest-
        // stable path the serve-chaos CI lanes diff).
        let placed_mode = self.jobs[job_idx].spec.placement.as_ref().map(|p| p.mode.clone());
        let mut exec = match &w.spec.gpu {
            Some(gspec) => {
                let gpu = Arc::new(GpuDevice::new(gspec.clone()));
                if let Some(plan) = &w.spec.gpu_fault_plan {
                    gpu.set_fault_plan(plan.clone());
                }
                // A placed CPU mode on a GPU node still carries the
                // device: it idles for the attempt's duration and the
                // idle joules are billed like any other worker idle time.
                let mode = placed_mode
                    .unwrap_or(ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 });
                Executor::new(mode, w.spec.host.clone(), Some(gpu))
            }
            None => {
                Executor::new(placed_mode.unwrap_or(ExecMode::CpuSerial), w.spec.host.clone(), None)
            }
        };
        exec.set_device_id(w.spec.device_id.clone());
        let job = &mut self.jobs[job_idx];
        let spec = &job.spec;
        // SDC chaos without an auditor would be silent wrong answers by
        // construction; install the detector on every attempt.
        let audit = (self.cfg.sdc_rate > 0.0).then(AuditConfig::default);
        let mut hydro = spec.scenario.build(spec.zones, spec.order, exec, audit)?;
        let mut state = hydro.initial_state();
        job.record.attempts += 1;
        let cursor = hydro.begin(&mut state, &job.store)?;
        // A fresh initial state sits at step 0; only a restored generation
        // starts further on.
        if cursor.steps > 0 {
            job.record.restores += 1;
            self.telemetry.instant(Track::Serve, phases::JOB_RESUMED, offset);
        }
        Ok(Attempt { hydro, state, cursor, redos0: cursor.retries, offset })
    }

    /// Bills a finished attempt: tenant energy from the attempt's own
    /// device meters (plus straggler idle up to the attempt's wall), the
    /// device traces re-emitted into the worker timeline, resilience
    /// deltas merged, and the worker clock advanced.
    fn harvest(&mut self, wid: usize, job_idx: usize, attempt: Option<Attempt>) {
        let Some(attempt) = attempt else { return };
        let w = &mut self.workers[wid];
        let exec = attempt.hydro.executor();
        let host_now = exec.host.now();
        let wall = exec.now();
        let host_idle = w.host_trace.idle_watts();
        let mut energy = exec.host.energy_joules() + (wall - host_now) * host_idle;
        let host_trace = exec.host.power_trace();
        for seg in host_trace.segments() {
            w.host_trace.push(seg.start + attempt.offset, seg.duration, seg.watts);
        }
        if let Some(gpu) = exec.gpu.as_ref() {
            energy += gpu.energy_joules() + (wall - gpu.now()) * gpu.spec().idle_w;
            let trace = gpu.power_trace();
            let wt = w.gpu_trace.as_mut().expect("gpu worker has a gpu trace");
            for seg in trace.segments() {
                wt.push(seg.start + attempt.offset, seg.duration, seg.watts);
            }
        }
        w.clock = attempt.offset + wall;
        let record = &mut self.jobs[job_idx].record;
        record.energy_j += energy;
        record.wall_s += wall;
        record.steps = attempt.cursor.steps;
        record.redos = attempt.cursor.retries;
        record.degraded |= exec.is_degraded();
        let rep = exec.resilience_report(attempt.cursor.retries - attempt.redos0);
        self.resilience.merge(&rep);
    }

    /// Handles a dead attempt: retry with jittered exponential backoff
    /// (the worker waits in place at idle watts, billed to the tenant),
    /// or a terminal `Failed` once the retry budget is spent.
    fn fault_attempt(&mut self, wid: usize, job_idx: usize, err: HydroError) {
        self.jobs[job_idx].failures += 1;
        let failures = self.jobs[job_idx].failures;
        let policy = self.jobs[job_idx].policy;
        if policy.gives_up_after(failures - 1) {
            let attempts = self.jobs[job_idx].record.attempts;
            let now = self.workers[wid].clock;
            self.workers[wid].current = None;
            self.finish(
                job_idx,
                JobOutcome::Failed { attempts, error: err.to_string() },
                now,
            );
            return;
        }
        let wait = policy.backoff_s(failures - 1);
        let w = &mut self.workers[wid];
        let joules = wait * w.spec.idle_watts();
        self.telemetry.instant(Track::Serve, phases::RETRY_BACKOFF, w.clock);
        w.clock += wait;
        let record = &mut self.jobs[job_idx].record;
        record.backoff_s += wait;
        record.backoff_energy_j += joules;
        record.energy_j += joules;
        record.wall_s += wait;
        self.telemetry.counter_add(counters::JOB_RETRIES, 1);
        // The worker keeps the job; the next quantum rebuilds the
        // attempt from the checkpoint store.
        self.workers[wid].current = Some(Running { job: job_idx, attempt: None });
    }

    /// After `fault_attempt`, drops the worker's claim when the job
    /// actually reached a terminal state (no retry was granted).
    fn requeue_if_waiting(&mut self, wid: usize) {
        if let Some(running) = &self.workers[wid].current {
            if self.jobs[running.job].terminal() {
                self.workers[wid].current = None;
            }
        }
    }

    /// Seals a job's terminal state and emits its telemetry.
    fn finish(&mut self, job_idx: usize, outcome: JobOutcome, now: f64) {
        let (phase, counter) = match &outcome {
            JobOutcome::Completed { .. } => (phases::JOB_COMPLETED, counters::JOBS_COMPLETED),
            JobOutcome::Cancelled { .. } => (phases::JOB_CANCELLED, counters::JOBS_CANCELLED),
            JobOutcome::Failed { .. } => (phases::JOB_FAILED, counters::JOBS_FAILED),
        };
        let record = &mut self.jobs[job_idx].record;
        debug_assert!(record.outcome.is_none(), "job finished twice");
        record.outcome = Some(outcome);
        record.finished_s = Some(now);
        self.telemetry.instant(Track::Serve, phase, now);
        self.telemetry.counter_add(counter, 1);
    }

    fn wall_now(&self) -> f64 {
        self.workers.iter().map(|w| w.clock).fold(0.0, f64::max)
    }

    /// Builds the final ledger: tenant totals, the independent trace
    /// integration, and the aggregated resilience report.
    fn finalize(&mut self) -> ServeReport {
        let mut tenants: BTreeMap<String, f64> = BTreeMap::new();
        for job in &self.jobs {
            *tenants.entry(job.record.tenant.clone()).or_insert(0.0) += job.record.energy_j;
        }
        let mut resilience = self.resilience.clone();
        for (tenant, j) in &tenants {
            resilience.attribute_tenant_energy(tenant, *j);
        }
        let mut devices: BTreeMap<String, f64> = BTreeMap::new();
        for w in &self.workers {
            let joules = w.host_trace.energy(0.0, w.clock)
                + w.gpu_trace.as_ref().map_or(0.0, |t| t.energy(0.0, w.clock));
            *devices.entry(w.spec.device_id.clone()).or_insert(0.0) += joules;
        }
        let trace_energy_j = devices.values().sum();
        ServeReport {
            jobs: self.jobs.iter().map(|j| j.record.clone()).collect(),
            tenant_energy_j: tenants.into_iter().collect(),
            device_energy_j: devices.into_iter().collect(),
            idle_energy_j: self.idle_energy_j,
            trace_energy_j,
            wall_s: self.wall_now(),
            workers_lost: self.workers_lost,
            rejected: self.rejected,
            resilience,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cpu()` advertises the catalog's CPU-only entry.
    #[test]
    fn cpu_preset_is_the_catalog_cpu_entry() {
        let w = WorkerSpec::cpu();
        assert_eq!(w.device_id, "cpu-e5-2670");
        assert!(w.gpu.is_none());
        assert_eq!(w.host, DeviceCatalog::host("cpu-e5-2670"));
    }
}
