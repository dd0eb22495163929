//! in_run_phases — *measured* milliseconds per force evaluation of each
//! phase of a whole `Hydro::run`, on the end-to-end benchmark's five
//! workloads: the paper's Table 1, timed instead of modeled.
//!
//! Each workload is built as the benchmark builds it (mesh, order,
//! assembly, execution mode, pool width, step budget), with an executor
//! whose telemetry sink keeps a `blast_telemetry::WallClock`. The solver
//! then times, per evaluation, every kernel launch of the corner force and
//! of the energy rate (`blast_kernels::launch::Timed` around the host or
//! device backend), the verdict point (`cfl_control`: mesh guard and CFL
//! control), the constraint projection and the momentum solve (`cg_solver`,
//! with kernel 9's bill as `sweep_bill` on a device); per step, the state
//! vector updates and snapshot (`integration`); and the enclosing phases:
//! the corner force, the energy rate (`energy_solve`), each accepted step
//! (`step`) and the run's first force evaluation (`suggest_dt`). After two
//! untimed warm-up steps, the one timed `Hydro::run` of each repetition is
//! measured by `Instant`. The repetitions run round-robin across the
//! workloads, so a slow stretch of the host lands on every workload alike.
//!
//! Rows are milliseconds per corner-force evaluation (`force_evals` counts
//! them), the median over the repetitions with their min and max beside it;
//! the `runs` block gives evaluations per step and the share of the
//! measured run the leaf phases explain, medians too. Gates, on every
//! repetition (each gate names its worst): the phases nest (a phase's
//! children never sum past it), the leaf phases explain the measured run
//! within 2 %, and, as a check on the harness, the top-level phases sum to
//! it within 2 %.

use std::sync::Arc;
use std::time::Instant;

use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, RunConfig, Sedov};
use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k11::SpmvKernel;
use blast_kernels::k2::StressKernel;
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::k4::AzKernel;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::sumfac::{SumfacEnergyKernel, SumfacForceKernel, SumfacMomentumKernel};
use blast_telemetry::{names::phases, Telemetry, WallTotal};
use gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The gate bin `in_run_phases` writes `BENCH_phases.json`.
pub const EXPERIMENT: Experiment = Experiment {
    name: "in_run_phases",
    artifact: Some("BENCH_phases.json"),
    run: |smoke| measure(smoke).report(),
};

/// How a workload executes.
#[derive(Clone, Copy, Debug)]
enum Exec {
    Serial,
    Threads(u32),
    GpuK20,
}

/// `(name, dim, zones per axis, order, assembly, exec, pool, steps)`: the
/// end-to-end benchmark's workloads, step budgets included.
const WORKLOADS: [(&str, usize, usize, usize, AssemblyMode, Exec, usize, usize); 5] = [
    ("sedov2d_q2_serial", 2, 32, 2, AssemblyMode::Stored, Exec::Serial, 1, 20),
    ("sedov2d_q2_threads", 2, 32, 2, AssemblyMode::Stored, Exec::Threads(2), 2, 20),
    ("sedov3d_q3_stored", 3, 5, 3, AssemblyMode::Stored, Exec::Serial, 1, 4),
    ("sedov3d_q3_matfree", 3, 5, 3, AssemblyMode::MatrixFree, Exec::Serial, 1, 4),
    ("sedov3d_q2_gpu", 3, 8, 2, AssemblyMode::Stored, Exec::GpuK20, 1, 6),
];

/// Untimed steps before the timed run, as in the benchmark.
const WARMUP_STEPS: usize = 2;

/// The leaf phases, and the top-level ones, must sum to the measured run
/// within this share.
const SUM_TOLERANCE: f64 = 0.02;

/// A reported row: its label and the wall-clock names it sums. A row
/// nests inside the phase named by its `parent`.
struct Row {
    label: &'static str,
    names: &'static [&'static str],
    parent: Option<&'static str>,
}

/// The parent of the phases under both top-level ones: a force
/// evaluation, a momentum solve or an energy rate runs in `suggest_dt` or
/// in a `step`.
const TOP: &str = "suggest_dt+step";

/// The rows of the table, children after their parent. The kernel rows
/// are the leaves, together with the verdict point, the constraint
/// projection, the momentum solve and the state-vector updates.
const ROWS: &[Row] = &[
    Row { label: "suggest_dt", names: &[phases::SUGGEST_DT], parent: None },
    Row { label: "step", names: &[phases::STEP], parent: None },
    Row { label: "corner_force", names: &[phases::CORNER_FORCE], parent: Some(TOP) },
    Row { label: "k3", names: &[CoefGradKernel::NAME], parent: Some("corner_force") },
    Row { label: "k1", names: &[AdjugateDetKernel::NAME], parent: Some("corner_force") },
    Row { label: "k5", names: &["kernel_NN_dgemmBatched"], parent: Some("corner_force") },
    Row { label: "k2", names: &[StressKernel::NAME], parent: Some("corner_force") },
    Row { label: "k6", names: &["kernel_NT_dgemmBatched"], parent: Some("corner_force") },
    Row { label: "k4+k7", names: &[AzKernel::NAME, FzKernel::NAME], parent: Some("corner_force") },
    Row { label: "k8", names: &[MomentumRhsKernel::NAME], parent: Some("corner_force") },
    Row { label: "sumfac_force", names: &[SumfacForceKernel::NAME], parent: Some("corner_force") },
    Row {
        label: "sumfac_momentum",
        names: &[SumfacMomentumKernel::NAME],
        parent: Some("corner_force"),
    },
    Row { label: "cfl_control", names: &[phases::CFL_CONTROL], parent: Some("corner_force") },
    Row { label: "constraint_projection", names: &[phases::CONSTRAINTS], parent: Some(TOP) },
    Row { label: "k9_momentum_solve", names: &[phases::CG_SOLVER], parent: Some(TOP) },
    Row { label: "k9_bill", names: &[phases::SWEEP_BILL], parent: Some("k9_momentum_solve") },
    Row { label: "energy_rate", names: &[phases::ENERGY_SOLVE], parent: Some(TOP) },
    Row {
        label: "k10",
        names: &[EnergyRhsKernel::NAME, SumfacEnergyKernel::NAME],
        parent: Some("energy_rate"),
    },
    Row { label: "k11", names: &[SpmvKernel::NAME], parent: Some("energy_rate") },
    Row { label: "integration", names: &[phases::INTEGRATION], parent: Some(TOP) },
];

/// The leaf rows: what "explained" sums.
const LEAVES: &[&str] = &[
    "k3",
    "k1",
    "k5",
    "k2",
    "k6",
    "k4+k7",
    "k8",
    "sumfac_force",
    "sumfac_momentum",
    "cfl_control",
    "constraint_projection",
    "k9_momentum_solve",
    "k10",
    "k11",
    "integration",
];

/// One repetition of a workload's timed run.
#[derive(Clone, Debug)]
struct PhaseRun {
    /// Benchmark workload name.
    workload: &'static str,
    /// Measured seconds of the timed `Hydro::run`.
    run_s: f64,
    /// Accepted steps of the timed run.
    steps: usize,
    /// The wall-clock table's growth over the timed run.
    totals: Vec<WallTotal>,
}

impl PhaseRun {
    fn row_ns(&self, row: &Row) -> (u64, u64) {
        let hits = self.totals.iter().filter(|w| row.names.contains(&w.name));
        hits.fold((0, 0), |(ns, calls), w| (ns + w.ns, calls + w.calls))
    }

    fn ns_of(&self, label: &str) -> u64 {
        ROWS.iter().find(|r| r.label == label).map_or(0, |r| self.row_ns(r).0)
    }

    /// Corner-force evaluations in the timed run.
    fn force_evals(&self) -> u64 {
        ROWS.iter().find(|r| r.label == "corner_force").map_or(0, |r| self.row_ns(r).1)
    }

    /// This repetition's gate checks, each with its slack: how far inside
    /// its bound it landed, negative when it failed.
    fn checks(&self) -> Vec<Check> {
        let run_ns = self.run_s * 1e9;
        let mut checks = Vec::new();
        for row in ROWS {
            let (ns, calls) = self.row_ns(row);
            if calls == 0 {
                continue;
            }
            // Nesting: the children of this row never sum past it.
            let children: u64 =
                ROWS.iter().filter(|c| c.parent == Some(row.label)).map(|c| self.row_ns(c).0).sum();
            if children > 0 {
                let (c_ms, ms) = (children as f64 * 1e-6, ns as f64 * 1e-6);
                checks.push(Check {
                    name: format!("in_run_phases {} {} nests", self.workload, row.label),
                    slack: ns as f64 - children as f64,
                    detail: format!("children {c_ms:.3} ms <= {ms:.3} ms"),
                });
            }
        }
        let top = (self.ns_of("suggest_dt") + self.ns_of("step")) as f64;
        let under_top: u64 =
            ROWS.iter().filter(|c| c.parent == Some(TOP)).map(|c| self.row_ns(c).0).sum();
        checks.push(Check {
            name: format!("in_run_phases {} {TOP} nests", self.workload),
            slack: top - under_top as f64,
            detail: format!("children {:.3} ms <= {:.3} ms", under_top as f64 * 1e-6, top * 1e-6),
        });
        let leaves = LEAVES.iter().map(|l| self.ns_of(l)).sum::<u64>() as f64;
        let (leaf_ms, need) = (leaves * 1e-6, 100.0 * (1.0 - SUM_TOLERANCE));
        checks.push(Check {
            name: format!("in_run_phases {} leaves explain the run", self.workload),
            slack: leaves - (1.0 - SUM_TOLERANCE) * run_ns,
            detail: format!(
                "leaf phases {leaf_ms:.2} ms of a {:.2} ms run ({:.2} %, need >= {need:.0} %)",
                run_ns * 1e-6,
                100.0 * leaves / run_ns
            ),
        });
        let gap = (top - run_ns).abs() / run_ns;
        let (top_ms, run_ms, bar) = (top * 1e-6, run_ns * 1e-6, 100.0 * SUM_TOLERANCE);
        checks.push(Check {
            name: format!("in_run_phases {} sums to the run", self.workload),
            slack: SUM_TOLERANCE - gap,
            detail: format!(
                "top-level phases {top_ms:.2} ms of a {run_ms:.2} ms run ({:.2} % apart, need <= {bar:.0} %)",
                100.0 * gap
            ),
        });
        checks
    }

    /// Shares of the run: the top-level phases', then the leaves'.
    fn shares(&self) -> (f64, f64) {
        let run_ns = self.run_s * 1e9;
        let top = (self.ns_of("suggest_dt") + self.ns_of("step")) as f64;
        let leaves = LEAVES.iter().map(|l| self.ns_of(l)).sum::<u64>() as f64;
        (top / run_ns, leaves / run_ns)
    }
}

/// One gate's reading on one repetition.
struct Check {
    name: String,
    /// Distance inside the bound, in the check's own unit; `< 0` fails.
    slack: f64,
    detail: String,
}

/// `(median, min, max)` of `x`.
fn spread(mut x: Vec<f64>) -> (f64, f64, f64) {
    x.sort_by(f64::total_cmp);
    (x[x.len() / 2], x[0], x[x.len() - 1])
}

/// One gate per check name any repetition emitted, in first-seen order,
/// holding on the worst repetition's reading of that check; a repetition
/// that did not emit it fails the gate.
fn worst_of(checks: &[Vec<Check>]) -> Vec<Gate> {
    let mut names: Vec<&str> = Vec::new();
    for c in checks.iter().flatten() {
        if !names.contains(&c.name.as_str()) {
            names.push(&c.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let reading = checks.iter().map(|rep| rep.iter().find(|c| c.name == name));
            let missing = reading.clone().filter(Option::is_none).count();
            let worst = reading.flatten().min_by(|a, b| a.slack.total_cmp(&b.slack));
            let worst = worst.expect("every name comes from some repetition");
            let detail = match missing {
                0 => format!("{} (worst of {} reps)", worst.detail, checks.len()),
                m => format!("{}; missing from {m} of {} reps", worst.detail, checks.len()),
            };
            Gate::new(name.to_string(), missing == 0 && worst.slack >= 0.0, detail)
        })
        .collect()
}

/// The repetitions of one workload: its phase rows, its run record, and
/// its gates, each gate held on every repetition.
fn blocks(
    reps: &[PhaseRun],
    rows: &mut Vec<Vec<Cell>>,
    runs: &mut Vec<Vec<Cell>>,
    gates: &mut Vec<Gate>,
) {
    let first = &reps[0];
    let evals = first.force_evals().max(1) as f64;
    let over_reps = |f: &dyn Fn(&PhaseRun) -> f64| spread(reps.iter().map(f).collect());
    for row in ROWS {
        let calls = first.row_ns(row).1;
        if calls == 0 {
            continue;
        }
        let (ms, min, max) = over_reps(&|r| r.row_ns(row).0 as f64 * 1e-6 / evals);
        let (share, _, _) = over_reps(&|r| r.row_ns(row).0 as f64 / (r.run_s * 1e9));
        rows.push(vec![
            Cell::new("workload", first.workload),
            Cell::new("phase", row.label),
            Cell::new("parent", row.parent.unwrap_or("run")),
            Cell::new("ms_per_eval", ms),
            Cell::new("min_ms_per_eval", min),
            Cell::new("max_ms_per_eval", max),
            Cell::pct("share_of_run", share),
            Cell::new("calls", calls as usize),
        ]);
    }
    gates.extend(worst_of(&reps.iter().map(PhaseRun::checks).collect::<Vec<_>>()));
    let (run_ms, min_run_ms, max_run_ms) = over_reps(&|r| r.run_s * 1e3);
    let (top_share, _, _) = over_reps(&|r| r.shares().0);
    let (explained, _, _) = over_reps(&|r| r.shares().1);
    runs.push(vec![
        Cell::new("workload", first.workload),
        Cell::new("reps", reps.len()),
        Cell::new("run_ms", run_ms),
        Cell::new("min_run_ms", min_run_ms),
        Cell::new("max_run_ms", max_run_ms),
        Cell::new("steps", first.steps),
        Cell::new("force_evals", evals as usize),
        Cell::new("evals_per_step", evals / first.steps.max(1) as f64),
        Cell::new("ms_per_eval", run_ms / evals),
        Cell::pct("top_level_share", top_share),
        Cell::pct("explained_share", explained),
    ]);
}

/// Every workload's timed runs.
#[derive(Clone, Debug)]
struct InRunPhases {
    /// One entry per benchmark workload: its repetitions.
    runs: Vec<Vec<PhaseRun>>,
}

impl InRunPhases {
    /// The artifact: the phase table, the per-run record, the gates.
    fn report(&self) -> Report {
        let (mut rows, mut runs, mut gates) = (Vec::new(), Vec::new(), Vec::new());
        for reps in &self.runs {
            blocks(reps, &mut rows, &mut runs, &mut gates);
        }
        let blocks = vec![
            Block::table("phases", "measured ms per force evaluation, by phase, median of reps", rows),
            Block::table("runs", "the timed runs of each workload", runs),
        ];
        Report { blocks, gates }
    }
}

/// The growth of `after` over `before`, row by row.
fn delta(before: &[WallTotal], after: &[WallTotal]) -> Vec<WallTotal> {
    after
        .iter()
        .map(|a| match before.iter().find(|b| b.name == a.name) {
            Some(b) => WallTotal { name: a.name, ns: a.ns - b.ns, calls: a.calls - b.calls },
            None => *a,
        })
        .collect()
}

/// One repetition of `workload`: build, warm up, time one `Hydro::run`.
fn rep<const D: usize>(
    name: &'static str,
    zones: usize,
    order: usize,
    assembly: AssemblyMode,
    exec: Exec,
    steps: usize,
) -> PhaseRun {
    let (sink, cpu) = (Arc::new(Telemetry::with_wall_clock()), CpuSpec::e5_2670());
    let executor = match exec {
        Exec::Serial => Executor::with_telemetry(ExecMode::CpuSerial, cpu, None, sink.clone()),
        Exec::Threads(threads) => {
            Executor::with_telemetry(ExecMode::CpuParallel { threads }, cpu, None, sink.clone())
        }
        Exec::GpuK20 => {
            let dev = DeviceCatalog::get("k20");
            let gpu = dev.gpu.clone().map(|g| Arc::new(GpuDevice::new(g)));
            let mode = ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 };
            Executor::with_telemetry(mode, dev.host.clone(), gpu, sink.clone())
        }
    };
    let problem = Sedov::default();
    let mut hydro = Hydro::<D>::builder(&problem, [zones; D])
        .order(order)
        .assembly(assembly)
        .executor(executor)
        .build()
        .expect("the benchmark's workloads build");
    let mut state = hydro.initial_state();
    let mut dt = hydro.try_suggest_dt(&state).expect("initial dt");
    for _ in 0..WARMUP_STEPS {
        dt = hydro.try_advance(&mut state, dt).expect("warm-up step").dt_next;
    }
    let clock = sink.wall_clock().expect("the sink keeps a clock");
    let before = clock.totals();
    let start = Instant::now();
    let stats =
        hydro.run(&mut state, RunConfig::to(f64::MAX).max_steps(steps)).expect("the timed run");
    let run_s = start.elapsed().as_secs_f64();
    PhaseRun { workload: name, run_s, steps: stats.steps, totals: delta(&before, &clock.totals()) }
}

/// Every workload, `reps` repetitions each on its own pool, round-robin:
/// repetition `r` of every workload before repetition `r + 1` of any.
fn measure(smoke: bool) -> InRunPhases {
    let reps = if smoke { 3 } else { 7 };
    let mut runs = vec![Vec::with_capacity(reps); WORKLOADS.len()];
    for _ in 0..reps {
        for (runs, &(name, dim, zones, order, assembly, exec, pool, steps)) in
            runs.iter_mut().zip(&WORKLOADS)
        {
            runs.push(rayon::Pool::new(pool).install(|| match dim {
                2 => rep::<2>(name, zones, order, assembly, exec, steps),
                _ => rep::<3>(name, zones, order, assembly, exec, steps),
            }));
        }
    }
    InRunPhases { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_telemetry::chrome::Json;

    fn total(name: &'static str, ms: f64, calls: u64) -> WallTotal {
        WallTotal { name, ns: (ms * 1e6) as u64, calls }
    }

    /// A hand-made run: 10 ms of steps and 0.1 ms of `suggest_dt` in a
    /// 10.1 ms run, two evaluations, leaves 9.9 ms. A kernel row past its
    /// parent fails the nesting gate; a run the phases do not cover fails
    /// both sums; and leaves that leave a run's glue untimed fail the leaf
    /// sum alone.
    #[test]
    fn a_hand_made_run_reports_per_evaluation_and_gates() {
        let mut run = PhaseRun {
            workload: "demo",
            run_s: 10.1e-3,
            steps: 1,
            totals: vec![
                total(phases::SUGGEST_DT, 0.1, 1),
                total(phases::STEP, 10.0, 1),
                total(phases::CORNER_FORCE, 6.0, 2),
                total(AdjugateDetKernel::NAME, 2.0, 2),
                total(StressKernel::NAME, 3.9, 2),
                total(phases::CG_SOLVER, 3.0, 2),
                total(phases::INTEGRATION, 1.0, 1),
            ],
        };
        let report = InRunPhases { runs: vec![vec![run.clone()]] }.report();
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        let json = crate::harness::render_json(EXPERIMENT.name, true, &report);
        let doc = crate::harness::parse_artifact(&json).unwrap();
        let rows = doc.get("phases").and_then(Json::as_arr).unwrap();
        let k1 = rows.iter().find(|r| r.get("phase").and_then(Json::as_str) == Some("k1")).unwrap();
        assert_eq!(k1.get("ms_per_eval").and_then(Json::as_f64), Some(1.0));
        assert_eq!(k1.get("parent").and_then(Json::as_str), Some("corner_force"));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get("force_evals").and_then(Json::as_f64), Some(2.0));

        let failures = |run: PhaseRun| -> Vec<String> {
            let report = InRunPhases { runs: vec![vec![run]] }.report();
            report.failures().iter().map(|g| g.name.clone()).collect()
        };
        let mut glue = run.clone();
        glue.totals.pop();
        assert_eq!(failures(glue), ["in_run_phases demo leaves explain the run"]);

        run.totals[3] = total(AdjugateDetKernel::NAME, 7.0, 2);
        run.run_s = 20e-3;
        assert_eq!(
            failures(run),
            [
                "in_run_phases demo corner_force nests",
                "in_run_phases demo leaves explain the run",
                "in_run_phases demo sums to the run"
            ]
        );
    }

    /// Three repetitions of one workload, round-robin with no other: a
    /// row is the median of the reps with their min and max, and a gate
    /// that fails on one repetition alone fails, naming that repetition's
    /// reading.
    #[test]
    fn rows_are_medians_and_every_rep_is_gated() {
        let rep = |k1_ms: f64, run_ms: f64| PhaseRun {
            workload: "demo",
            run_s: run_ms * 1e-3,
            steps: 1,
            totals: vec![
                total(phases::STEP, run_ms, 1),
                total(phases::CORNER_FORCE, run_ms, 2),
                total(AdjugateDetKernel::NAME, k1_ms, 2),
                total(StressKernel::NAME, run_ms - k1_ms, 2),
            ],
        };
        let report = |reps: Vec<PhaseRun>| InRunPhases { runs: vec![reps] }.report();
        let json = crate::harness::render_json(EXPERIMENT.name, true, &report(vec![
            rep(4.0, 10.0),
            rep(2.0, 10.0),
            rep(6.0, 12.0),
        ]));
        let doc = crate::harness::parse_artifact(&json).unwrap();
        let rows = doc.get("phases").and_then(Json::as_arr).unwrap();
        let k1 = rows.iter().find(|r| r.get("phase").and_then(Json::as_str) == Some("k1")).unwrap();
        let at = |key| k1.get(key).and_then(Json::as_f64);
        let spread = (at("ms_per_eval"), at("min_ms_per_eval"), at("max_ms_per_eval"));
        assert_eq!(spread, (Some(2.0), Some(1.0), Some(3.0)));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get("run_ms").and_then(Json::as_f64), Some(10.0));
        assert_eq!(runs[0].get("max_run_ms").and_then(Json::as_f64), Some(12.0));

        // The middle repetition's kernel runs past its parent.
        let r = report(vec![rep(4.0, 10.0), rep(11.0, 10.0), rep(6.0, 12.0)]);
        let failed: Vec<&str> = r.failures().iter().map(|g| g.name.as_str()).collect();
        assert_eq!(failed, ["in_run_phases demo corner_force nests"]);
        let detail = &r.failures()[0].detail;
        assert!(detail.starts_with("children 11.000 ms <= 10.000 ms"), "{detail}");
    }

    /// Repetitions' checks are matched by name, whatever their order, and
    /// a check one repetition did not emit fails its gate.
    #[test]
    fn gates_match_checks_by_name() {
        let check = |name: &str, slack: f64| Check { name: name.into(), slack, detail: format!("{name} {slack}") };
        let gates = worst_of(&[
            vec![check("a", 1.0), check("b", 5.0)],
            vec![check("b", 0.5), check("a", 3.0)],
        ]);
        let read: Vec<(&str, bool, &str)> =
            gates.iter().map(|g| (g.name.as_str(), g.ok, g.detail.as_str())).collect();
        assert_eq!(read, [("a", true, "a 1 (worst of 2 reps)"), ("b", true, "b 0.5 (worst of 2 reps)")]);
        let gates = worst_of(&[vec![check("a", 1.0), check("b", 5.0)], vec![check("b", 2.0)]]);
        assert_eq!((gates[0].ok, gates[0].detail.as_str()), (false, "a 1; missing from 1 of 2 reps"));
        assert!(gates[1].ok);
    }

    /// The batched `d x d` products' rows name what kernels 5 and 6 launch.
    #[test]
    fn the_dim_gemm_rows_name_the_launched_kernels() {
        use blast_kernels::k56::BatchedDimGemm;
        let names = |label| ROWS.iter().find(|r| r.label == label).unwrap().names;
        assert_eq!(names("k5"), [BatchedDimGemm::nn_tuned().name()]);
        assert_eq!(names("k6"), [BatchedDimGemm::nt_tuned().name()]);
    }
}
