//! The traced pass: the driver steps the solver itself, records a
//! wall-clock span per phase and step from outside, and reads the
//! solver's own counters afterwards.
//!
//! The call sequence is exactly what an untraced rep executes (build,
//! `try_suggest_dt`, two warm-up `try_advance`s, then the body of
//! `Hydro::run`: `try_suggest_dt` and one `try_advance` per budgeted
//! step), so the final state must carry the reps' digest.

use std::time::Instant;

use blast_repro::blast_core::{Hydro, HydroError, Sedov};
use blast_repro::blast_kernels::k7::FzKernel;
use blast_repro::blast_kernels::k8_10::EnergyRhsKernel;
use blast_repro::blast_kernels::sumfac::SumfacEnergyKernel;
use blast_repro::blast_telemetry::chrome::{chrome_trace, validate_chrome_trace};
use blast_repro::blast_telemetry::{names, Telemetry, Track};

use crate::sys;
use crate::workloads::{self, Ending, Workload, WARMUP_STEPS};

/// Solver-side totals read from outside at one instant.
#[derive(Clone, Copy, Debug, Default)]
struct Snapshot {
    force_evals: u64,
    energy_evals: u64,
    step_redos: u64,
    gpu_launches: u64,
    spans: u64,
}

fn snapshot<const D: usize>(hydro: &Hydro<D>) -> Snapshot {
    let exec = hydro.executor();
    let tel = exec.telemetry();
    let profile = hydro.phase_profile();
    let kernels = exec.gpu.as_ref().map_or(Vec::new(), |g| g.kernel_summary());
    let calls = |table: &[(&'static str, f64, usize)], name: &str| {
        table
            .iter()
            .find(|row| row.0 == name)
            .map_or(0, |row| row.2 as u64)
    };
    let (host_calls, gpu_calls) = (|n| calls(&profile, n), |n| calls(&kernels, n));
    Snapshot {
        // A force evaluation is one host corner-force phase or, on the
        // device, one `F_z` (kernel 7) launch; likewise the energy rate.
        force_evals: host_calls(names::phases::CORNER_FORCE) + gpu_calls(FzKernel::NAME),
        energy_evals: host_calls(names::phases::ENERGY_SOLVE)
            + gpu_calls(EnergyRhsKernel::NAME)
            + gpu_calls(SumfacEnergyKernel::NAME),
        step_redos: tel.counter(names::counters::STEP_REDOS),
        gpu_launches: tel.counter(names::counters::GPU_LAUNCHES),
        spans: tel.spans().len() as u64 + tel.dropped_spans(),
    }
}

/// What the traced pass measured over its timed steps.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Wall seconds of each timed `try_advance`.
    pub step_s: Vec<f64>,
    /// Wall seconds of the timed part (`try_suggest_dt` + all steps).
    pub run_s: f64,
    pub sim_run_s: f64,
    pub end: Ending,
    pub pcg_iterations: u64,
    pub force_evals: u64,
    pub energy_evals: u64,
    pub step_redos: u64,
    pub gpu_launches: u64,
    pub spans: u64,
    pub dropped_spans: u64,
    pub heap_ops: u64,
    pub pool_calls: u64,
    pub pool_steals: u64,
    pub trace_segments: u64,
    /// Share of the device's simulated clock covered by kernel and
    /// transfer events (0 without a device).
    pub sim_gpu_busy_share: f64,
    /// Chrome trace JSON of the outside spans (validated).
    pub chrome_json: String,
}

pub fn traced_pass<const D: usize>(w: &Workload, problem: &Sedov) -> Result<Traced, HydroError> {
    // Wall-clock seconds fed into a private recorder: the solver's own
    // recorder (simulated seconds) is left untouched.
    let tel = Telemetry::with_capacity(w.steps + 16);
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();

    tel.begin(Track::Host, "traced_pass", now());
    tel.begin(Track::Host, "setup", now());
    let mut hydro = workloads::build::<D>(w, problem)?;
    let mut state = hydro.initial_state();
    tel.end(Track::Host, now());
    let e_total0 = hydro.energies(&state).total();

    tel.begin(Track::Host, "warmup", now());
    let mut dt = hydro.try_suggest_dt(&state)?;
    for _ in 0..WARMUP_STEPS {
        dt = hydro.try_advance(&mut state, dt)?.dt_next;
    }
    tel.end(Track::Host, now());

    let before = snapshot(&hydro);
    let sim0 = hydro.wall_time();
    let mut step_s = Vec::with_capacity(w.steps);
    let mut pcg_iterations = 0u64;
    // Nothing this pass does inside the timed part allocates: the private
    // recorder and `step_s` are pre-sized.
    let (heap0, pool0) = (sys::heap_ops(), rayon::pool_stats());
    let t_run = now();
    tel.begin(Track::Host, "run", t_run);
    let t0 = now();
    dt = hydro.try_suggest_dt(&state)?;
    tel.span(Track::Host, "suggest_dt", t0, now() - t0);
    for _ in 0..w.steps {
        let t0 = now();
        let adv = hydro.try_advance(&mut state, dt)?;
        let dur = now() - t0;
        tel.span(Track::Host, names::phases::STEP, t0, dur);
        step_s.push(dur);
        pcg_iterations += adv.outcome.cg_iterations as u64;
        dt = adv.dt_next;
    }
    let t_end = now();
    tel.end(Track::Host, t_end);
    let (heap1, pool1) = (sys::heap_ops(), rayon::pool_stats());
    let after = snapshot(&hydro);
    tel.end(Track::Host, now());

    let mut end = workloads::finish(&hydro, &state, e_total0, step_s.len(), w.steps);
    let exec = hydro.executor();
    let gpu = exec.gpu.as_ref();
    let trace_segments = exec.host.power_trace().segments().len()
        + gpu.map_or(0, |g| g.power_trace().segments().len());
    let sim_gpu_busy_share = gpu.map_or(0.0, |g| {
        g.events().iter().map(|e| e.stats.time_s).sum::<f64>() / g.now()
    });

    let chrome_json = chrome_trace(&tel);
    if end.violation.is_none() {
        end.violation = validate_chrome_trace(&chrome_json)
            .err()
            .map(|e| format!("chrome trace invalid: {e}"));
    }
    Ok(Traced {
        step_s,
        run_s: t_end - t_run,
        sim_run_s: end.sim_time_s - sim0,
        end,
        pcg_iterations,
        force_evals: after.force_evals - before.force_evals,
        energy_evals: after.energy_evals - before.energy_evals,
        step_redos: after.step_redos - before.step_redos,
        gpu_launches: after.gpu_launches - before.gpu_launches,
        spans: after.spans - before.spans,
        dropped_spans: exec.telemetry().dropped_spans(),
        heap_ops: heap1 - heap0,
        pool_calls: pool1.parallel_calls - pool0.parallel_calls,
        pool_steals: pool1.steals - pool0.steals,
        trace_segments: trace_segments as u64,
        sim_gpu_busy_share,
        chrome_json,
    })
}
