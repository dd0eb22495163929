//! # powermon
//!
//! Power and energy instrumentation for the BLAST reproduction.
//!
//! The paper measures CPU power with Intel RAPL (package / PP0 / DRAM
//! domains, §5.1) and GPU board power with NVML (§5.2), then derives the
//! *greenup* — energy efficiency relative to the CPU-only run — as
//! `greenup = powerup x speedup` (§5.3).
//!
//! Real RAPL/NVML need the corresponding silicon; this crate provides the
//! same interfaces backed by *models*:
//!
//! - [`trace::PowerTrace`]: a (time, watts) step function that any simulated
//!   device appends to; energy is its exact integral, kept as running totals
//!   like RAPL's counter. NVML-style sampling ([`trace::PowerTrace::sample`])
//!   reads the newest [`WINDOW`] segments with the millisecond-granularity
//!   semantics the paper relies on ("our CUDA kernels time is around several
//!   to tens milliseconds ... so the computation will not be missed by NVML").
//! - [`rapl`]: a Sandy Bridge package/PP0/DRAM power model with the levels
//!   the paper reports in Figs. 14 and 16.
//! - [`greenup`]: speedup/powerup/greenup accounting reproducing Table 7.
//! - [`catalog`]: the GFLOPS-per-watt hardware catalog behind Fig. 1.

pub mod catalog;
pub mod greenup;
pub mod rapl;
pub mod resilience;
pub mod trace;

pub use greenup::{EnergyReport, Greenup};
pub use rapl::{CpuPowerModel, CpuPowerState, RaplReading};
pub use resilience::ResilienceReport;
pub use trace::{PowerTrace, WINDOW};
