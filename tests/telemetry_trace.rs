//! Acceptance tests for the unified observability layer: the Chrome
//! trace-event export round-trips through the in-crate JSON parser with its
//! structural contract intact, every span lies inside the power-trace
//! extent of its lane (one simulated-time axis), and the per-phase span
//! totals reconcile with the solver's `phase_profile()` to 1e-9 s.

use blast_repro::blast_core::{ExecMode, Hydro, RunConfig, Sedov};
use blast_repro::blast_telemetry::{chrome, names, EventKind, Track};
use gpu_sim::DeviceCatalog;

fn instrumented_run(mode: ExecMode, gpu: bool) -> Hydro<2> {
    let problem = Sedov::default();
    let mut b = Hydro::<2>::builder(&problem, [6, 6]);
    if gpu {
        b = b.device(&DeviceCatalog::get("k20"));
    }
    let mut hydro = b.mode(mode).build().expect("setup");
    let mut state = hydro.initial_state();
    let stats = hydro.run(&mut state, RunConfig::to(0.03).max_steps(10)).expect("run");
    assert!(stats.steps >= 3, "need a few steps: {}", stats.steps);
    hydro
}

#[test]
fn chrome_export_round_trips_with_nesting_intact() {
    let hydro = instrumented_run(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        true,
    );
    let exec = hydro.executor();
    let tel = exec.telemetry().clone();
    let host_power = exec.host.power_trace();
    let gpu_power = exec.gpu.as_ref().expect("gpu").power_trace();

    let json = chrome::chrome_trace_with_power(
        &tel,
        &[(Track::Host, &host_power), (Track::Gpu, &gpu_power)],
    );
    // Round trip: the validator re-parses the JSON and enforces the
    // structural contract (finite non-negative timestamps, non-negative
    // durations, parent/child containment per lane).
    let summary = chrome::validate_chrome_trace(&json).expect("valid chrome trace");
    assert!(summary.spans > 0, "export must carry spans");
    assert!(summary.counter_samples > 0, "power lanes must be sampled");

    // The nesting in the export matches the recorder's parent/child order:
    // every child follows its parent in emission order and sits one level
    // deeper, inside the parent's interval.
    let spans = tel.spans();
    let eps = 1e-12;
    let mut nested = 0;
    for s in spans.iter().filter(|s| s.kind == EventKind::Span) {
        if let Some(pid) = s.parent {
            let parent = spans
                .iter()
                .find(|p| p.id == pid)
                .unwrap_or_else(|| panic!("span {} has unknown parent {pid}", s.name));
            assert!(pid < s.id, "parent must be emitted before child");
            assert_eq!(parent.track, s.track, "nesting never crosses lanes");
            assert_eq!(parent.depth + 1, s.depth, "child sits one level deeper");
            assert!(
                s.start_s + eps >= parent.start_s
                    && s.start_s + s.dur_s <= parent.start_s + parent.dur_s + eps,
                "child {} [{}, {}] escapes parent {} [{}, {}]",
                s.name,
                s.start_s,
                s.start_s + s.dur_s,
                parent.name,
                parent.start_s,
                parent.start_s + parent.dur_s
            );
            nested += 1;
        }
    }
    assert!(nested > 0, "the solver must emit nested phase spans");
}

#[test]
fn every_span_lies_inside_the_power_trace_extent() {
    let hydro = instrumented_run(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        true,
    );
    let exec = hydro.executor();
    let tel = exec.telemetry().clone();
    let host_end = exec.host.power_trace().end_time();
    let gpu_end = exec.gpu.as_ref().expect("gpu").power_trace().end_time();

    let spans = tel.spans();
    assert!(!spans.is_empty());
    let eps = 1e-9;
    for s in &spans {
        assert!(s.start_s >= -eps, "span {} starts before t = 0: {}", s.name, s.start_s);
        let end = s.start_s + s.dur_s;
        match s.track {
            Track::Host => assert!(
                end <= host_end + eps,
                "host span {} ends at {end} past the power trace ({host_end})",
                s.name
            ),
            Track::Gpu => assert!(
                end <= gpu_end + eps,
                "gpu span {} ends at {end} past the power trace ({gpu_end})",
                s.name
            ),
            // Cluster/pool lanes ride the host clock.
            _ => assert!(end <= host_end + eps, "span {} past host extent", s.name),
        }
    }
}

#[test]
fn phase_totals_reconcile_with_the_solver_profile() {
    let hydro = instrumented_run(ExecMode::CpuSerial, false);
    let tel = hydro.executor().telemetry().clone();
    let totals = tel.phase_totals(Some(Track::Host));

    // Every profiled phase appears in the telemetry totals with the same
    // accumulated seconds (to 1e-9) and the same call count.
    let profile = hydro.phase_profile();
    assert!(!profile.is_empty());
    for (name, seconds, calls) in profile {
        let tot = totals
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("phase {name} missing from telemetry totals"));
        assert!(
            (tot.seconds - seconds).abs() < 1e-9,
            "phase {name}: telemetry {} vs profile {seconds}",
            tot.seconds
        );
        assert_eq!(tot.calls, calls as u64, "phase {name} call count");
    }

    // And the step counter matches the STEP spans actually recorded.
    let steps = tel.counter(names::counters::STEPS);
    assert!(steps >= 3);
}
