//! One workload, one process: the end-to-end measurement (`--trace 0`)
//! or the per-layer measurement (`--trace 1`), with the correctness gate.

use std::time::Instant;

use blast_repro::blast_core::{ExecMode, Hydro, HydroError, RunConfig, Sedov};
use blast_repro::powermon::{EnergyReport, Greenup};

use crate::metrics::{zip_values, Value, END_TO_END, PER_LAYER};
use crate::probes;
use crate::rng::SplitMix64;
use crate::stats::{hi_percentile, median, Ops};
use crate::sys;
use crate::trace::{traced_pass, Traced};
use crate::workloads::{self, run_rep, Ending, Exec, Rep, Workload};

/// Fewest timed reps a run reports a median over.
const MIN_REPS: usize = 3;

/// Set-up-only builds after every rep of an end-to-end run: with the rep's
/// own build, three `setup_s` samples per rep, spread over the whole run so
/// the host's drift averages out of their median as it does out of `run_s`.
const EXTRA_SETUPS_PER_REP: usize = 2;

/// Share of `--seconds` the per-layer run spends on untraced reps (the
/// base of `telemetry.tracing_overhead_ratio`).
const TRACE_UNTRACED_SHARE: f64 = 0.2;

/// Steps of each leg of the greenup twin.
const GREENUP_STEPS: usize = 3;

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Value>,
    /// Final-state digest shared by every rep, when they agreed.
    pub digest: Option<u32>,
    /// Correctness violations; empty means the gate passed.
    pub violations: Vec<String>,
    /// Human-readable context: rep counts, picks, sizes.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match (w.dim, trace) {
        (2, false) => end_to_end::<2>(w, seed, seconds),
        (2, true) => per_layer::<2>(w, seed, seconds),
        (3, false) => end_to_end::<3>(w, seed, seconds),
        (3, true) => per_layer::<3>(w, seed, seconds),
        _ => unreachable!("workloads are 2D or 3D"),
    }
}

/// Untraced reps plus the gate's bookkeeping.
struct Reps {
    reps: Vec<Rep>,
    /// Wall seconds of every timed set-up: one per rep plus the extras.
    setups: Vec<f64>,
    ops: Ops,
    violations: Vec<String>,
}

impl Reps {
    fn new() -> Reps {
        Reps {
            reps: Vec::new(),
            setups: Vec::new(),
            ops: Ops::default(),
            violations: Vec::new(),
        }
    }

    /// Runs reps of `w`, each followed by `extra_setups` set-up-only
    /// builds, until `seconds` have passed and at least [`MIN_REPS`] are
    /// in. A rep that errors ends the loop: the workload is broken, not
    /// noisy.
    fn measure<const D: usize>(
        w: &Workload,
        problem: &Sedov,
        seconds: f64,
        extra_setups: usize,
    ) -> Reps {
        let mut out = Reps::new();
        let start = Instant::now();
        while out.reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
            if !out.push(w, run_rep::<D>(w, problem)) {
                break;
            }
            for _ in 0..extra_setups {
                if let Ok((hydro, state, setup_s)) = workloads::timed_setup::<D>(w, problem) {
                    std::hint::black_box((hydro, state));
                    out.setups.push(setup_s);
                }
            }
        }
        out
    }

    /// Books one rep; returns whether it ran to completion.
    fn push(&mut self, w: &Workload, rep: Result<Rep, HydroError>) -> bool {
        match rep {
            Ok(rep) => {
                self.ops.record_rep(w.steps, rep.end.violation.is_none());
                self.violations
                    .extend(rep.end.violation.iter().map(|v| format!("{}: {v}", w.name)));
                self.setups.push(rep.setup_s);
                self.reps.push(rep);
                true
            }
            Err(e) => {
                self.ops.record_rep(w.steps, false);
                self.violations.push(format!("{}: rep failed: {e}", w.name));
                false
            }
        }
    }

    /// Every rep of one workload — and the traced pass, when there is one
    /// — must end in the same bits: state digest, simulated clock and
    /// simulated energy. Returns the shared digest.
    fn check_identical(&mut self, traced: Option<&Ending>) -> Option<u32> {
        let first = &self.reps.first()?.end;
        let others = self.reps.iter().map(|r| &r.end).chain(traced);
        let differing = others.filter(|e| !e.same_bits(first)).count();
        if differing > 0 {
            self.violations.push(format!(
                "{differing} run(s) differ from rep 0 in digest, simulated clock or simulated energy"
            ));
        }
        (differing == 0).then_some(first.digest)
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    fn into_outcome(self, metrics: Vec<Value>, digest: Option<u32>, notes: Vec<String>) -> Outcome {
        Outcome {
            ops: self.ops,
            metrics,
            digest,
            violations: self.violations,
            notes,
        }
    }
}

/// The repo's bitwise thread-invariance contract: the same problem on a
/// 1-thread pool must end in the same state. Returns the twin's reps.
fn serial_twin_reps<const D: usize>(
    w: &Workload,
    problem: &Sedov,
    count: usize,
    main: &mut Reps,
) -> Vec<Rep> {
    let twin = w.serial_twin();
    rayon::set_active_threads(twin.pool);
    let mut reps = Reps::new();
    for _ in 0..count {
        if !reps.push(&twin, run_rep::<D>(&twin, problem)) {
            break;
        }
    }
    rayon::set_active_threads(w.pool);
    main.ops.attempted += reps.ops.attempted;
    main.ops.failed += reps.ops.failed;
    main.violations.append(&mut reps.violations);
    if let (Some(a), Some(b)) = (main.reps.first(), reps.reps.first()) {
        if a.end.digest != b.end.digest {
            main.violations.push(format!(
                "thread invariance broken: digest {:08x} on {} threads, {:08x} on 1",
                a.end.digest, w.pool, b.end.digest
            ));
        }
    }
    reps.reps
}

fn oversubscribed_note(w: &Workload, notes: &mut Vec<String>) {
    if w.pool > sys::nproc() {
        notes.push(format!(
            "pool of {} threads on {} core(s): timings are oversubscribed, make no speed-up claim",
            w.pool,
            sys::nproc()
        ));
    }
}

fn end_to_end<const D: usize>(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    rayon::set_active_threads(w.pool);
    let problem = workloads::sedov_for_seed(seed);
    let mut reps = Reps::measure::<D>(w, &problem, seconds, EXTRA_SETUPS_PER_REP);
    let mut notes = vec![format!(
        "{} reps of {} steps, pool {}",
        reps.reps.len(),
        w.steps,
        w.pool
    )];
    oversubscribed_note(w, &mut notes);
    if w.pool > 1 {
        serial_twin_reps::<D>(w, &problem, 1, &mut reps);
    }
    let digest = reps.check_identical(None);
    if reps.reps.is_empty() {
        return reps.into_outcome(Vec::new(), digest, notes);
    }
    notes.push(format!("setup_s: median of {} builds", reps.setups.len()));

    let run_s = reps.median_of(|r| r.run_s);
    let first = &reps.reps[0].end;
    let metrics = zip_values(
        &END_TO_END,
        &[
            ("zone_updates_per_s", (w.zones() * w.steps) as f64 / run_s),
            ("run_s", run_s),
            ("cpu_core_s", reps.median_of(|r| r.cpu_s)),
            ("setup_s", median(&reps.setups)),
            ("peak_rss_mib", sys::peak_rss_mib()),
            ("sim_time_s", first.sim_time_s),
            ("sim_energy_j", first.sim_energy_j()),
        ],
    );
    reps.into_outcome(metrics, digest, notes)
}

/// Simulated greenup of the GPU configuration over a CPU-only twin (8
/// OpenMP-analog threads on the same E5-2670 host), a few steps each.
fn greenup<const D: usize>(w: &Workload, problem: &Sedov) -> Result<f64, HydroError> {
    let leg = |gpu: bool| -> Result<EnergyReport, HydroError> {
        let mut hydro = if gpu {
            workloads::build::<D>(w, problem)?
        } else {
            // The builder's default host is the catalog k20's E5-2670.
            Hydro::<D>::builder(problem, [w.zones_per_axis; D])
                .order(w.order)
                .assembly(w.assembly)
                .mode(ExecMode::CpuParallel { threads: 8 })
                .build()?
        };
        let mut state = hydro.initial_state();
        hydro.run(
            &mut state,
            RunConfig::to(f64::INFINITY).max_steps(GREENUP_STEPS),
        )?;
        let end = hydro.wall_time();
        let exec = hydro.executor();
        let joules = exec.host.power_trace().energy(0.0, end)
            + exec
                .gpu
                .as_ref()
                .map_or(0.0, |g| g.power_trace().energy(0.0, end));
        Ok(EnergyReport::new(end, joules / end))
    };
    Ok(Greenup::compare(leg(false)?, leg(true)?).greenup)
}

fn per_layer<const D: usize>(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    rayon::set_active_threads(w.pool);
    let problem = workloads::sedov_for_seed(seed);
    // Probe operands come from the generator's stream after the energy.
    let mut rng = SplitMix64::new(seed);
    rng.next_u64();
    let mut notes = Vec::new();
    oversubscribed_note(w, &mut notes);

    let clock = Instant::now();
    let mut phase_s = Vec::new();
    let mut lap =
        |name: &'static str| phase_s.push(format!("{name} {:.1} s", clock.elapsed().as_secs_f64()));

    let machine = probes::machine(&mut rng);
    lap("ceilings done at");
    notes.push(format!(
        "triad arrays {:.0} MiB each, LLC {:.0} MiB, capped: {}",
        machine.triad_array_mib, machine.llc_mib, machine.triad_capped
    ));

    let mut reps = Reps::measure::<D>(w, &problem, seconds * TRACE_UNTRACED_SHARE, 0);
    let traced = match traced_pass::<D>(w, &problem) {
        Ok(t) => {
            reps.ops.record_rep(w.steps, t.end.violation.is_none());
            reps.violations
                .extend(t.end.violation.iter().map(|v| format!("traced pass: {v}")));
            Some(t)
        }
        Err(e) => {
            reps.ops.record_rep(w.steps, false);
            reps.violations.push(format!("traced pass failed: {e}"));
            None
        }
    };
    lap("reps + traced pass at");
    let digest = reps.check_identical(traced.as_ref().map(|t| &t.end));
    let (Some(t), false) = (traced, reps.reps.is_empty()) else {
        return reps.into_outcome(Vec::new(), digest, notes);
    };
    let untraced_run_s = reps.median_of(|r| r.run_s);
    notes.push(format!(
        "{} untraced reps + 1 traced pass of {} steps, pool {}; probes: min of {} interleaved rounds",
        reps.reps.len(),
        w.steps,
        w.pool,
        probes::ROUNDS
    ));

    let threads_speedup = if w.pool > 1 {
        let twin = serial_twin_reps::<D>(w, &problem, MIN_REPS, &mut reps);
        if twin.is_empty() {
            0.0
        } else {
            median(&twin.iter().map(|r| r.run_s).collect::<Vec<_>>()) / untraced_run_s
        }
    } else {
        1.0 // the workload is its own serial twin
    };

    let layers = match workloads::build::<D>(w, &problem) {
        Ok(hydro) => probes::layers(&hydro, &mut rng),
        Err(e) => {
            reps.violations.push(format!("probe set-up failed: {e}"));
            probes::Layers::default()
        }
    };
    let greenup_vs_cpu = if w.exec == Exec::GpuK20 {
        greenup::<D>(w, &problem).unwrap_or_else(|e| {
            reps.violations.push(format!("greenup twin failed: {e}"));
            0.0
        })
    } else {
        0.0 // not applicable: the workload has no device
    };

    lap("twins + probes at");
    notes.push(format!("run timeline: {}", phase_s.join(", ")));
    if let Err(e) = write_trace(w, &t) {
        notes.push(format!("chrome trace not written: {e}"));
    }
    let metrics = layer_metrics(
        w,
        &machine,
        &layers,
        &t,
        untraced_run_s,
        threads_speedup,
        greenup_vs_cpu,
        &mut notes,
    );
    reps.into_outcome(metrics, digest, notes)
}

/// `benchmark/out`, from the repository root or from `benchmark/` itself.
pub fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn write_trace(w: &Workload, t: &Traced) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{}.trace.json", w.name)), &t.chrome_json)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    m: &probes::Machine,
    l: &probes::Layers,
    t: &Traced,
    untraced_run_s: f64,
    threads_speedup: f64,
    greenup_vs_cpu: f64,
    notes: &mut Vec<String>,
) -> Vec<Value> {
    let steps = w.steps as f64;
    let step_ms: Vec<f64> = t.step_s.iter().map(|s| s * 1e3).collect();
    let hi = hi_percentile(&step_ms);
    notes.push(format!(
        "core.step_ms_hi is {} of {} steps",
        hi.label, hi.samples
    ));

    // One PCG solve per velocity component per force evaluation; the timed
    // steps make two evaluations each.
    let solves = 2.0 * w.dim as f64 * steps;
    let iters_per_solve = t.pcg_iterations as f64 / solves;
    let pcg_gbps = l.pcg_iter_bytes / (l.pcg_us_per_iter * 1e-6) / 1e9;

    // Outside view of where the traced run went: probe time x call count.
    let matfree = w.assembly.is_matrix_free();
    let force_s = if matfree {
        l.sumfac_force_ms * 1e-3
    } else {
        (l.az_pipeline_ms + l.fz_ms + l.momentum_rhs_ms) * 1e-3
    };
    let energy_s = if matfree { 0.0 } else { l.energy_rhs_ms * 1e-3 };
    let iter_s = if matfree {
        l.sumfac_mass_apply_us
    } else {
        l.pcg_us_per_iter
    } * 1e-6;
    let pcg_iters_total = iters_per_solve * w.dim as f64 * t.force_evals as f64;
    let explained = t.force_evals as f64 * force_s
        + t.energy_evals as f64 * energy_s
        + pcg_iters_total * iter_s;

    zip_values(
        &PER_LAYER,
        &[
            ("machine.triad_gbps", m.triad_gbps),
            ("machine.triad_array_mib", m.triad_array_mib),
            ("machine.llc_mib", m.llc_mib),
            ("machine.triad_capped", f64::from(u8::from(m.triad_capped))),
            ("machine.gemm_peak_gflops", m.gemm_peak_gflops),
            ("machine.thread_spawn_us", m.thread_spawn_us),
            ("la.gemm_gflops", l.gemm_gflops),
            ("la.gemm_frac_of_peak", l.gemm_gflops / m.gemm_peak_gflops),
            ("la.pcg_iters_per_solve", iters_per_solve),
            ("la.pcg_us_per_iter", l.pcg_us_per_iter),
            ("la.pcg_gbps", pcg_gbps),
            ("la.pcg_frac_of_triad", pcg_gbps / m.triad_gbps),
            ("la.spmv_dot_us", l.spmv_dot_us),
            ("fem.mass_assembly_ms", l.mass_assembly_ms),
            ("fem.tables_ms", l.tables_ms),
            ("fem.sumfac_apply_us", l.sumfac_apply_us),
            ("kernels.az_pipeline_ms", l.az_pipeline_ms),
            ("kernels.az_pipeline_gflops", l.az_pipeline_gflops),
            ("kernels.fz_ms", l.fz_ms),
            ("kernels.momentum_rhs_ms", l.momentum_rhs_ms),
            ("kernels.energy_rhs_ms", l.energy_rhs_ms),
            ("kernels.sumfac_force_ms", l.sumfac_force_ms),
            ("kernels.sumfac_mass_apply_us", l.sumfac_mass_apply_us),
            ("gpu_sim.launch_ns", l.launch_ns),
            ("gpu_sim.run_phase_ns", l.run_phase_ns),
            ("gpu_sim.launches_per_step", t.gpu_launches as f64 / steps),
            ("gpu_sim.sim_gpu_busy_share", t.sim_gpu_busy_share),
            ("gpu_sim.host_model_ratio", t.sim_run_s / t.run_s),
            ("powermon.sim_host_energy_j", t.end.sim_host_energy_j),
            ("powermon.sim_gpu_energy_j", t.end.sim_gpu_energy_j),
            (
                "powermon.sim_mean_power_w",
                t.end.sim_energy_j() / t.end.sim_time_s,
            ),
            ("powermon.trace_segments", t.trace_segments as f64),
            ("powermon.greenup_vs_cpu", greenup_vs_cpu),
            ("telemetry.span_ns", l.span_ns),
            ("telemetry.spans_per_step", t.spans as f64 / steps),
            ("telemetry.dropped_spans", t.dropped_spans as f64),
            ("telemetry.tracing_overhead_ratio", t.run_s / untraced_run_s),
            ("rayon.par_call_us", l.par_call_us),
            ("rayon.pool_calls_per_step", t.pool_calls as f64 / steps),
            ("rayon.steals_per_step", t.pool_steals as f64 / steps),
            ("rayon.threads_speedup", threads_speedup),
            ("core.step_ms_p50", median(&step_ms)),
            ("core.step_ms_hi", hi.value),
            ("core.step_redos", t.step_redos as f64),
            ("core.force_evals", t.force_evals as f64),
            ("core.allocs_per_step", t.heap_ops as f64 / steps),
            ("core.explained_share", explained / t.run_s),
        ],
    )
}
