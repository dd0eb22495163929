//! Job-facing types: what a tenant submits ([`JobSpec`]), the handle it
//! gets back ([`JobId`]), and the per-job ledger row the supervisor
//! maintains ([`JobRecord`]).

use blast_core::state::HydroState;
use blast_core::{
    AuditConfig, ExecMode, Executor, Hydro, HydroError, Problem, Sedov, TaylorGreen, TriplePoint,
};

/// Opaque handle of an admitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The scenarios a tenant can submit (the repo's three 2D problems).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Sedov point blast.
    Sedov,
    /// Three-material triple-point shock interaction.
    TriplePoint,
    /// Taylor-Green vortex (smooth flow).
    TaylorGreen,
}

impl Scenario {
    /// Scenario name for ledgers and logs.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Sedov => "sedov",
            Scenario::TriplePoint => "triple_point",
            Scenario::TaylorGreen => "taylor_green",
        }
    }

    /// The problem behind this scenario: the one place a scenario becomes a
    /// concrete problem, for attempts ([`Self::build`]) and router pilots
    /// alike.
    pub(crate) fn problem(self) -> Box<dyn Problem<2>> {
        match self {
            Scenario::Sedov => Box::new(Sedov::default()),
            Scenario::TriplePoint => Box::new(TriplePoint::default()),
            Scenario::TaylorGreen => Box::new(TaylorGreen::default()),
        }
    }

    /// Builds a solver for this scenario on the given executor, with the
    /// step auditor when `audit` names one.
    pub fn build(
        self,
        zones: [usize; 2],
        order: usize,
        exec: Executor,
        audit: Option<AuditConfig>,
    ) -> Result<Hydro<2>, HydroError> {
        let problem = self.problem();
        let builder = Hydro::<2>::builder(&*problem, zones).order(order).executor(exec);
        match audit {
            Some(cfg) => builder.audit(cfg),
            None => builder,
        }
        .build()
    }
}

/// A routing pin: which fleet device a job must run on, and the
/// execution mode the router's winning pilot measured there. Produced by
/// `Router::route` (or built by hand); the scheduler dispatches a placed
/// job only to workers advertising the same catalog device id, and the
/// attempt builder realizes exactly this mode instead of the worker's
/// legacy default.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Catalog device id (`gpu_sim::DeviceCatalog`) the job is pinned to.
    pub device_id: String,
    /// Execution mode the attempt must run under.
    pub mode: ExecMode,
}

/// A scenario submission: what to run, who pays, and the robustness
/// envelope (deadline, priority, checkpoint cadence, admission estimate).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Billing tenant.
    pub tenant: String,
    /// Which problem to run.
    pub scenario: Scenario,
    /// Mesh zones per axis.
    pub zones: [usize; 2],
    /// Kinematic order.
    pub order: usize,
    /// Simulation time to integrate to.
    pub t_final: f64,
    /// Accepted-step budget.
    pub max_steps: usize,
    /// Scheduling priority (higher preempts lower).
    pub priority: u8,
    /// Service-time arrival of the submission, seconds on the shared
    /// simulated clock.
    pub arrival_s: f64,
    /// Service-time deadline measured from `arrival_s`; a job that is
    /// still running past it is cancelled at step granularity (the
    /// consumed energy stays billed). `None` = no deadline.
    pub deadline_s: Option<f64>,
    /// Checkpoint every `n` accepted steps (0 = only the checkpoints
    /// preemption itself writes).
    pub checkpoint_every: usize,
    /// Admission-time energy estimate charged against the tenant's budget.
    pub energy_est_j: f64,
    /// Exempt from injected chaos (used by bit-identity probe jobs).
    pub fault_immune: bool,
    /// Routing pin: restricts the job to workers of one fleet device and
    /// fixes the attempt's execution mode. `None` (the default) keeps the
    /// legacy any-worker scheduling and per-worker default modes —
    /// unplaced workloads are byte-identical to pre-routing builds.
    pub placement: Option<Placement>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            tenant: "default".to_string(),
            scenario: Scenario::Sedov,
            zones: [4, 4],
            order: 2,
            t_final: 0.05,
            max_steps: 400,
            priority: 0,
            arrival_s: 0.0,
            deadline_s: None,
            checkpoint_every: 4,
            energy_est_j: 0.0,
            fault_immune: false,
            placement: None,
        }
    }
}

/// Why a job was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The service-time deadline passed (at step granularity, or before
    /// the job ever started).
    DeadlineExceeded,
    /// Every worker died before the job could finish.
    WorkerLost,
}

/// Terminal state of an admitted job. Every admitted job reaches exactly
/// one of these — the storm gate checks there are no limbo jobs.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Reached `t_final` (or its step budget).
    Completed {
        /// Accepted steps taken.
        steps: usize,
        /// Final simulation time.
        t: f64,
    },
    /// Cancelled by the supervisor.
    Cancelled {
        /// Why.
        reason: CancelReason,
    },
    /// Died to faults and exhausted the retry budget.
    Failed {
        /// Total attempts made (1 + retries).
        attempts: u32,
        /// The final typed error, rendered.
        error: String,
    },
}

impl JobOutcome {
    /// Dense tag for digests.
    pub fn tag(&self) -> u8 {
        match self {
            JobOutcome::Completed { .. } => 0,
            JobOutcome::Cancelled { reason: CancelReason::DeadlineExceeded } => 1,
            JobOutcome::Cancelled { reason: CancelReason::WorkerLost } => 2,
            JobOutcome::Failed { .. } => 3,
        }
    }
}

/// One job's ledger row: identity, terminal state, and the billed costs.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Handle.
    pub id: JobId,
    /// Billing tenant.
    pub tenant: String,
    /// Scenario name.
    pub scenario: &'static str,
    /// Terminal state (`None` only while the job is still live).
    pub outcome: Option<JobOutcome>,
    /// Joules billed to the tenant for this job (compute attempts +
    /// retry-backoff idle waits).
    pub energy_j: f64,
    /// Simulated seconds of worker time the job consumed (attempt wall +
    /// backoff waits).
    pub wall_s: f64,
    /// Accepted steps at the end.
    pub steps: usize,
    /// Rollback/CFL redos absorbed inside accepted steps.
    pub redos: usize,
    /// Attempts made (1 + whole-job retries).
    pub attempts: u32,
    /// Checkpoint-backed evictions suffered.
    pub preemptions: u64,
    /// Checkpoint restores performed (resume after preemption, retry, or
    /// worker death).
    pub restores: u64,
    /// Seconds spent in retry backoff (subset of `wall_s`).
    pub backoff_s: f64,
    /// Joules of those backoff waits (subset of `energy_j`).
    pub backoff_energy_j: f64,
    /// Whether any attempt degraded to CPU-only execution.
    pub degraded: bool,
    /// Service time the job first started executing.
    pub started_s: Option<f64>,
    /// Service time the job reached its terminal state.
    pub finished_s: Option<f64>,
    /// Final hydro state of a completed job (bit-identity probes diff
    /// this against an uninterrupted run).
    pub final_state: Option<HydroState>,
}

impl JobRecord {
    pub(crate) fn new(id: JobId, spec: &JobSpec) -> Self {
        Self {
            id,
            tenant: spec.tenant.clone(),
            scenario: spec.scenario.name(),
            outcome: None,
            energy_j: 0.0,
            wall_s: 0.0,
            steps: 0,
            redos: 0,
            attempts: 0,
            preemptions: 0,
            restores: 0,
            backoff_s: 0.0,
            backoff_energy_j: 0.0,
            degraded: false,
            started_s: None,
            finished_s: None,
            final_state: None,
        }
    }

    /// FNV-1a digest over the physics-bearing bits of this row (outcome
    /// tag, counters, final state, energy) — the unit the serve-chaos CI
    /// lane diffs across `BLAST_THREADS`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.id.0.to_le_bytes());
        eat(self.tenant.as_bytes());
        eat(&[self.outcome.as_ref().map(|o| o.tag()).unwrap_or(u8::MAX)]);
        eat(&(self.steps as u64).to_le_bytes());
        eat(&(self.redos as u64).to_le_bytes());
        eat(&self.attempts.to_le_bytes());
        eat(&self.preemptions.to_le_bytes());
        eat(&self.energy_j.to_bits().to_le_bytes());
        eat(&self.wall_s.to_bits().to_le_bytes());
        if let Some(s) = &self.final_state {
            for v in s.v.iter().chain(&s.e).chain(&s.x).chain(std::iter::once(&s.t)) {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }
}
