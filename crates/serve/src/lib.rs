//! # blast-serve
//!
//! A fault-tolerant, multi-tenant **job supervisor** over the simulated
//! BLAST stack: many scenario jobs multiplexed onto a shared pool of
//! CPU/GPU workers, with every robustness mechanism the lower layers
//! grew — checkpoint/restart, retry policies, fault injection, failure
//! detection, power tracing — composed into one service-shaped control
//! loop, entirely on the simulated-time axis.
//!
//! The pieces:
//!
//! - **Admission control** ([`Supervisor::submit`]): a bounded queue and
//!   per-tenant energy budgets; rejections are typed
//!   ([`AdmissionError::QueueFull`], [`AdmissionError::OverBudget`]) and
//!   consume nothing.
//! - **Deadlines**: enforced at step granularity; a cancelled job's
//!   partial energy stays billed to its tenant.
//! - **Retry/backoff**: jobs that die to injected faults retry under the
//!   capped, jittered, deterministic [`gpu_sim::RetryPolicy`]; the
//!   waiting worker idles in place and the wait is billed at idle watts.
//! - **Checkpoint-backed preemption**: a higher-priority arrival evicts
//!   a running job at a quantum boundary through a coordinated
//!   checkpoint; the resumed job's trajectory is bit-identical to an
//!   uninterrupted run (`tests/serve_supervision.rs` gates on it).
//! - **Worker death**: scripted silent deaths escalate through the same
//!   consecutive-miss [`cluster_sim::FailureDetector`] the rank runtime
//!   uses; in-flight jobs lose only the progress since their last
//!   checkpoint.
//! - **Degradation**: a standing device fault plan on a worker forces
//!   its attempts down to the CPU path (flagged per job); with no
//!   workers left, remaining jobs terminate as cancelled, never hang.
//! - **Energy accounting**: every joule is billed exactly once — to a
//!   tenant or to the idle bucket — and reconciled against the
//!   independently integrated per-worker power traces to 1e-9
//!   ([`ServeReport::reconciliation_error`]).
//! - **Energy-aware routing** ([`Supervisor::submit_routed`]): the
//!   greenup-driven [`Router`] pilots the job's scenario on every fleet
//!   device (`gpu_sim::DeviceCatalog`), predicts per-device wall time
//!   and energy off the billing meters themselves, and pins the job to
//!   the cheapest-energy device that meets its latency SLO (fastest
//!   device when none does). Unrouted submissions are byte-identical to
//!   pre-routing builds.
//!
//! Everything is deterministic: scheduling is a single-threaded
//! discrete-event loop with total tie ordering, and chaos comes from
//! counter-based seeded streams, so [`ServeReport::ledger_digest`] is
//! reproducible bit-for-bit from the seed — across reruns and across
//! `BLAST_THREADS` settings (the serve-chaos CI lane diffs it).

pub mod admission;
pub mod job;
pub mod ledger;
pub mod routing;
pub mod supervisor;

pub use admission::AdmissionError;
pub use job::{CancelReason, JobId, JobOutcome, JobRecord, JobSpec, Placement, Scenario};
pub use ledger::ServeReport;
pub use routing::{Router, RoutingDecision};
pub use supervisor::{ServeConfig, Supervisor, WorkerSpec, SERVE_CHAOS_STREAM};
