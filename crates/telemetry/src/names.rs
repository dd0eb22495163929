//! Interned phase / counter / gauge names shared across the workspace.
//!
//! Every instrumented surface refers to these constants instead of
//! spelling string literals, so the solver's `CpuEvent` names, the
//! telemetry spans, and the report tables can never drift apart.

/// Span / phase names (one per timeline lane entry).
pub mod phases {
    /// Corner-force (Kernels 1-6) host phase.
    pub const CORNER_FORCE: &str = "corner_force";
    /// Hybrid split: GPU side of the corner-force launch.
    pub const CORNER_FORCE_HYBRID: &str = "corner_force(hybrid)";
    /// Hybrid split: CPU side of the corner-force phase.
    pub const CORNER_FORCE_HYBRID_CPU: &str = "corner_force(hybrid cpu)";
    /// Momentum CG solve (PCG on the mass matrix).
    pub const CG_SOLVER: &str = "cg_solver";
    /// Energy RHS solve (local L2 mass inversions).
    pub const ENERGY_SOLVE: &str = "energy_solve";
    /// RK2 state integration / axpy updates.
    pub const INTEGRATION: &str = "integration";
    /// One full RK2 timestep (parent span of the four phases above).
    pub const STEP: &str = "step";
    /// Checkpoint image serialization + write.
    pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
    /// Checkpoint image read + restore.
    pub const CHECKPOINT_RESTORE: &str = "checkpoint_restore";
    /// Cluster quiesce while recovering from a rank death.
    pub const RECOVERY_QUIESCE: &str = "recovery_quiesce";
    /// Instant: executor permanently degraded to CPU-only execution.
    pub const DEGRADE_TO_CPU: &str = "degrade_to_cpu";
    /// Instant: a rank was declared dead by the failure detector.
    pub const RANK_DEATH: &str = "rank_death";
    /// Instant: cluster recovery completed (membership shrunk, state restored).
    pub const RECOVERY_COMPLETE: &str = "recovery_complete";
    /// Host→device PCIe transfer.
    pub const MEMCPY_H2D: &str = "memcpy_h2d";
    /// Device→host PCIe transfer.
    pub const MEMCPY_D2H: &str = "memcpy_d2h";
    /// Retry-backoff wait: both devices idle through the gap.
    pub const RETRY_BACKOFF: &str = "retry_backoff";
    /// Instant: a job was admitted into the supervisor's queue.
    pub const JOB_ADMITTED: &str = "job_admitted";
    /// Instant: a job attempt started executing on a worker.
    pub const JOB_STARTED: &str = "job_started";
    /// Instant: a running job was checkpointed and evicted for a
    /// higher-priority one.
    pub const JOB_PREEMPTED: &str = "job_preempted";
    /// Instant: a preempted/faulted job resumed from its checkpoint.
    pub const JOB_RESUMED: &str = "job_resumed";
    /// Instant: a job reached `t_final` (terminal, success).
    pub const JOB_COMPLETED: &str = "job_completed";
    /// Instant: a job was cancelled (deadline miss or worker loss).
    pub const JOB_CANCELLED: &str = "job_cancelled";
    /// Instant: a job exhausted its retry budget (terminal, failure).
    pub const JOB_FAILED: &str = "job_failed";
    /// Instant: the failure detector declared a worker dead.
    pub const WORKER_DEAD: &str = "worker_dead";
    /// Instant: the energy-aware router placed a job on a fleet device.
    pub const JOB_ROUTED: &str = "job_routed";
    /// Physics-invariant audit of a completed step (SDC detection).
    pub const SDC_AUDIT: &str = "sdc_audit";
    /// Instant: an audit tripped — silent corruption detected.
    pub const SDC_DETECTED: &str = "sdc_detected";
}

/// Monotonic counter names.
pub mod counters {
    /// Completed RK2 steps.
    pub const STEPS: &str = "steps";
    /// Steps redone after rollback (fault or CFL violation).
    pub const STEP_REDOS: &str = "step_redos";
    /// Total PCG iterations across all momentum solves.
    pub const PCG_ITERATIONS: &str = "pcg_iterations";
    /// PCG solves started.
    pub const PCG_SOLVES: &str = "pcg_solves";
    /// PCG preconditioner breakdowns (restarts with identity).
    pub const PCG_BREAKDOWNS: &str = "pcg_breakdowns";
    /// Kernel launches on the simulated GPU.
    pub const GPU_LAUNCHES: &str = "gpu_launches";
    /// Modeled DRAM traffic moved by GPU kernels, bytes.
    pub const GPU_DRAM_BYTES: &str = "gpu_dram_bytes";
    /// Host→device bytes over PCIe.
    pub const H2D_BYTES: &str = "h2d_bytes";
    /// Device→host bytes over PCIe.
    pub const D2H_BYTES: &str = "d2h_bytes";
    /// Successful steals in the work-stealing host pool.
    pub const POOL_STEALS: &str = "pool_steals";
    /// Blocks executed by the host pool (owner-run + stolen).
    pub const POOL_BLOCKS: &str = "pool_blocks";
    /// Parallel drives issued to the host pool.
    pub const POOL_CALLS: &str = "pool_calls";
    /// Point-to-point messages sent through the cluster communicator.
    pub const MSGS_SENT: &str = "msgs_sent";
    /// Payload bytes sent through the cluster communicator.
    pub const MSG_BYTES: &str = "msg_bytes";
    /// Messages dropped by injected faults.
    pub const MSGS_DROPPED: &str = "msgs_dropped";
    /// Ranks declared dead by the failure detector.
    pub const RANK_DEATHS: &str = "rank_deaths";
    /// Checkpoint images written.
    pub const CHECKPOINTS_WRITTEN: &str = "checkpoints_written";
    /// Checkpoint restores performed.
    pub const CHECKPOINT_RESTORES: &str = "checkpoint_restores";
    /// Jobs admitted by the supervisor.
    pub const JOBS_SUBMITTED: &str = "jobs_submitted";
    /// Submissions rejected by admission control (queue full / over budget).
    pub const JOBS_REJECTED: &str = "jobs_rejected";
    /// Jobs that reached `t_final`.
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Jobs cancelled (deadline miss or worker loss).
    pub const JOBS_CANCELLED: &str = "jobs_cancelled";
    /// Jobs that exhausted their retry budget.
    pub const JOBS_FAILED: &str = "jobs_failed";
    /// Checkpoint-backed evictions performed by the scheduler.
    pub const JOB_PREEMPTIONS: &str = "job_preemptions";
    /// Whole-job retry attempts after a fault death.
    pub const JOB_RETRIES: &str = "job_retries";
    /// Jobs placed by the energy-aware router.
    pub const JOBS_ROUTED: &str = "jobs_routed";
    /// Routed jobs where the latency SLO forced a pick that was not the
    /// cheapest-energy candidate.
    pub const ROUTE_SLO_FORCED: &str = "route_slo_forced";
    /// Host-calibration searches that found no usable multi-core sample
    /// and silently kept the preset efficiency (see `host_speedup`).
    pub const HOST_CALIBRATION_KEPT: &str = "host_calibration_kept";
    /// Deadline misses (a subset of `jobs_cancelled`).
    pub const DEADLINE_MISSES: &str = "deadline_misses";
    /// Workers declared dead by the supervisor's failure detector.
    pub const WORKER_DEATHS: &str = "worker_deaths";
    /// Physics-invariant audits executed after accepted steps.
    pub const SDC_AUDITS: &str = "sdc_audits";
    /// Audit/ABFT detections of silent data corruption.
    pub const SDC_DETECTED: &str = "sdc_detected";
    /// Silent bit flips injected by the active `SdcPlan`.
    pub const SDC_FLIPS_INJECTED: &str = "sdc_flips_injected";
}

/// Gauge names (last-write-wins samples).
pub mod gauges {
    /// Occupancy of the most recent GPU kernel launch (0..1).
    pub const GPU_OCCUPANCY: &str = "gpu_occupancy";
    /// DRAM bandwidth utilization of the most recent launch (0..1).
    pub const GPU_DRAM_UTIL: &str = "gpu_dram_util";
    /// Active host pool threads at last sample.
    pub const POOL_THREADS: &str = "pool_threads";
    /// Jobs waiting in the supervisor's admission queue at last sample.
    pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
}
