//! # blast-telemetry
//!
//! The unified observability layer of the BLAST reproduction: one
//! span/counter API that every simulated surface — the hydro solver's CPU
//! phases, gpu-sim kernel launches and PCIe transfers, the PCG solver, the
//! work-stealing host pool, and cluster-sim recovery — emits into, on the
//! **same simulated-time axis** that [`powermon::PowerTrace`] bills energy
//! on. Compute spans, transfers, checkpoint writes, and power segments
//! therefore line up on one timeline, which is what makes performance /
//! energy attribution credible (the paper correlates its Table 1 / Fig. 6
//! time breakdowns with the Figs. 14-16 power traces by hand; here the
//! correlation is structural).
//!
//! ## Model
//!
//! - A [`Telemetry`] recorder holds a **preallocated ring buffer** of
//!   [`SpanRecord`]s: recording a span performs no heap allocation, so the
//!   solver's zero-allocation steady-state contract
//!   (`tests/zero_alloc_steady_state.rs`) holds with tracing enabled. When
//!   the ring wraps, the oldest raw spans are overwritten but the
//!   **per-phase aggregates** (total seconds, call counts) stay exact.
//! - Spans are **hierarchical**: [`Telemetry::begin`]/[`Telemetry::end`]
//!   nest on a per-track stack, and leaf spans recorded with
//!   [`Telemetry::span`] adopt the innermost open span as parent. Phase
//!   names are interned `&'static str`s (see [`names::phases`]) — no
//!   per-record `String`.
//! - [`Track`]s are the model's devices/subsystems: host CPU, GPU,
//!   cluster, pool. Each maps to one Chrome-trace thread lane.
//! - **Counters** are monotonic (`u64`), **gauges** are last-write-wins
//!   (`f64`).
//!
//! ## Exporters
//!
//! - [`chrome::chrome_trace`] / [`chrome::chrome_trace_with_power`]: Chrome
//!   trace-event JSON, loadable in `about://tracing` or Perfetto, with
//!   power traces rendered as counter lanes next to the spans.
//!   [`chrome::validate_chrome_trace`] re-parses an export and checks
//!   structure, monotonic timestamps, and parent/child containment — the
//!   round-trip contract the CI `trace-smoke` lane enforces.
//!
//! Tables are not rendered here: [`Telemetry::phase_totals`] and
//! [`Telemetry::counters`] hand the aggregates over as data, and the bench
//! harness (`blast_bench::harness`) declares them as typed cells like every
//! other experiment's rows.

pub mod chrome;
pub mod names;
pub mod recorder;

pub use recorder::{
    EventKind, PhaseTotal, SpanRecord, Telemetry, TelemetrySink, Track, WallClock, WallTotal,
    NUM_TRACKS,
};
