//! Unified-telemetry profile — the observability layer's own artifact: one
//! instrumented triple-point run, reported straight from the telemetry
//! sink (per-phase tables on the host and GPU lanes plus the counters),
//! with no hand-rolled aggregation in between.

use blast_core::{ExecMode, RunConfig};
use blast_telemetry::names::{counters, phases};
use blast_telemetry::Track;

use crate::experiments::phase_table;
use crate::experiments::scenarios::triple_point;
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("telemetry_profile", run);

/// Runs a short instrumented 2D triple point in GPU mode and reports the
/// telemetry sink's view of it.
fn run(_smoke: bool) -> Report {
    let (mut h, mut s) =
        triple_point(2, 2, ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 });
    h.run(&mut s, RunConfig::to(0.02).max_steps(12)).expect("short instrumented run");
    let tel = h.executor().telemetry().clone();
    let totals = |track| {
        let totals = tel.phase_totals(Some(track));
        totals.iter().map(|p| (p.name, p.seconds, p.calls)).collect::<Vec<_>>()
    };
    let (host, gpu) = (totals(Track::Host), totals(Track::Gpu));
    let mut counts = tel.counters();
    counts.sort_by(|a, b| a.0.cmp(b.0));
    // How often the host pool's workers steal depends on thread timing, not
    // on the simulated run; left out, the artifact is the same run to run.
    counts.retain(|c| c.0 != counters::POOL_STEALS);
    let count = |name: &str| counts.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
    let host_has = |name: &str| host.iter().any(|p| p.0 == name && p.2 > 0);
    let rows = counts
        .iter()
        .map(|&(name, value)| vec![Cell::new("counter", name), Cell::new("value", value as usize)]);
    // GPU mode: the corner force lives on the GPU lane as kernels; the host
    // lane still carries the step envelope and integration.
    let (steps, launches) = (count(counters::STEPS), count(counters::GPU_LAUNCHES));
    Report {
        blocks: vec![
            phase_table(
                "host",
                "Telemetry — host phases (spans on the simulated-time axis)",
                &host,
            ),
            phase_table("gpu", "Telemetry — GPU kernels and transfers", &gpu),
            Block::table(
                "counters",
                "Telemetry — counters; the same sink feeds the Chrome trace exporter \
                 (examples/trace_run.rs writes a Perfetto-loadable JSON of this run)",
                rows.collect(),
            ),
        ],
        gates: vec![
            Gate::new(
                "host lane carries step and integration",
                host_has(phases::STEP) && host_has(phases::INTEGRATION),
                format!("`{}` and `{}` among the host phases", phases::STEP, phases::INTEGRATION),
            ),
            Gate::new(
                "steps and launches counted",
                steps > 0 && launches > 0,
                format!("{steps} steps, {launches} GPU launches"),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_phases_and_counters() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
