//! # cluster-sim
//!
//! The MPI level of the reproduction (§3.4 and §4.3).
//!
//! BLAST's MPI parallelism comes from MFEM: the domain is split into
//! per-task subdomains (Fig. 9); finite element DOFs shared by several
//! tasks are grouped, each group owned by a *master* task (Fig. 10); corner
//! forces are local, while matrix assembly and the global minimum-timestep
//! reduction need communication.
//!
//! Without a physical cluster, this crate provides:
//!
//! - [`comm`]: a functional message-passing runtime — one OS thread per
//!   rank over one shared wire, on a virtual clock (a message arrives at its
//!   sender's clock plus [`NetworkModel`]'s point-to-point time; a receive
//!   times out at a virtual deadline, once no rank can still send in time)
//!   — with `send`/`recv`, `allreduce_min/sum`, `barrier`, used to *really
//!   execute* distributed algorithms (the tests run a distributed
//!   corner-force assembly and compare against the serial reference).
//! - [`partition`]: structured domain splitting and the shared-DOF group
//!   structure of Fig. 10.
//! - [`netmodel`]: interconnect cost models (ORNL Titan's Gemini, SNL
//!   Shannon's InfiniBand) for point-to-point and log-tree collectives.
//! - [`scaling`]: the weak/strong scaling harness reproducing Figs. 12-13,
//!   combining per-node compute costs from `gpu-sim` with the network
//!   model.
//! - [`recovery`]: coordinated checkpoint/restart plus rank-death recovery
//!   under a chaos campaign — the coordinator detects dead ranks through
//!   consecutive receive timeouts, survivors agree, shrink the partition,
//!   and restore from the last coordinated checkpoint. Every outcome is a
//!   function of the fault seed: no wall clock decides a timeout.

pub mod comm;
pub mod detector;
pub mod netmodel;
pub mod partition;
pub mod recovery;
pub mod scaling;

pub use comm::{
    run_ranks, try_run_ranks_with_faults, ClusterFaultPlan, CommError, Communicator, RankDeath,
};
pub use detector::FailureDetector;
pub use netmodel::{Machine, NetworkModel};
pub use partition::Partition;
pub use recovery::{
    campaign_overhead_pct, run_chaos_campaign, CampaignConfig, RankOutcome, RankResult,
};
pub use scaling::{strong_scaling, weak_scaling, ScalingPoint};
