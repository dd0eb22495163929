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
//! measured by `Instant`, and the repetition with the shortest run is
//! reported.
//!
//! Rows are milliseconds per corner-force evaluation (`force_evals` counts
//! them); the `runs` block gives evaluations per step and the share of the
//! measured run the leaf phases explain. Gates: the phases nest (a phase's
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

/// One workload's timed run.
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

    /// This workload's phase rows, its run record, and its gates.
    fn blocks(&self, rows: &mut Vec<Vec<Cell>>, runs: &mut Vec<Vec<Cell>>, gates: &mut Vec<Gate>) {
        let evals = self.force_evals().max(1) as f64;
        let run_ns = self.run_s * 1e9;
        for row in ROWS {
            let (ns, calls) = self.row_ns(row);
            if calls == 0 {
                continue;
            }
            rows.push(vec![
                Cell::new("workload", self.workload),
                Cell::new("phase", row.label),
                Cell::new("parent", row.parent.unwrap_or("run")),
                Cell::new("ms_per_eval", ns as f64 * 1e-6 / evals),
                Cell::pct("share_of_run", ns as f64 / run_ns),
                Cell::new("calls", calls as usize),
            ]);
            // Nesting: the children of this row never sum past it.
            let children: u64 =
                ROWS.iter().filter(|c| c.parent == Some(row.label)).map(|c| self.row_ns(c).0).sum();
            if children > 0 {
                let (c_ms, ms) = (children as f64 * 1e-6, ns as f64 * 1e-6);
                let detail = format!("children {c_ms:.3} ms <= {ms:.3} ms");
                let name = format!("in_run_phases {} {} nests", self.workload, row.label);
                gates.push(Gate::new(name, children <= ns, detail));
            }
        }
        let top = (self.ns_of("suggest_dt") + self.ns_of("step")) as f64;
        let under_top: u64 =
            ROWS.iter().filter(|c| c.parent == Some(TOP)).map(|c| self.row_ns(c).0).sum();
        let detail = format!("children {:.3} ms <= {:.3} ms", under_top as f64 * 1e-6, top * 1e-6);
        let name = format!("in_run_phases {} {TOP} nests", self.workload);
        gates.push(Gate::new(name, under_top as f64 <= top, detail));
        let leaves = LEAVES.iter().map(|l| self.ns_of(l)).sum::<u64>() as f64;
        let (leaf_ms, need) = (leaves * 1e-6, 100.0 * (1.0 - SUM_TOLERANCE));
        let detail = format!(
            "leaf phases {leaf_ms:.2} ms of a {:.2} ms run ({:.2} %, need >= {need:.0} %)",
            run_ns * 1e-6,
            100.0 * leaves / run_ns
        );
        let name = format!("in_run_phases {} leaves explain the run", self.workload);
        gates.push(Gate::new(name, leaves >= (1.0 - SUM_TOLERANCE) * run_ns, detail));
        let gap = (top - run_ns).abs() / run_ns;
        let (top_ms, run_ms, bar) = (top * 1e-6, run_ns * 1e-6, 100.0 * SUM_TOLERANCE);
        let detail = format!(
            "top-level phases {top_ms:.2} ms of a {run_ms:.2} ms run ({:.2} % apart, need <= {bar:.0} %)",
            100.0 * gap
        );
        let name = format!("in_run_phases {} sums to the run", self.workload);
        gates.push(Gate::new(name, gap <= SUM_TOLERANCE, detail));
        runs.push(vec![
            Cell::new("workload", self.workload),
            Cell::new("run_ms", self.run_s * 1e3),
            Cell::new("steps", self.steps),
            Cell::new("force_evals", evals as usize),
            Cell::new("evals_per_step", evals / self.steps.max(1) as f64),
            Cell::new("ms_per_eval", self.run_s * 1e3 / evals),
            Cell::pct("top_level_share", top / run_ns),
            Cell::pct("explained_share", leaves / run_ns),
        ]);
    }
}

/// Every workload's timed run.
#[derive(Clone, Debug)]
struct InRunPhases {
    /// One entry per benchmark workload.
    runs: Vec<PhaseRun>,
}

impl InRunPhases {
    /// The artifact: the phase table, the per-run record, the gates.
    fn report(&self) -> Report {
        let (mut rows, mut runs, mut gates) = (Vec::new(), Vec::new(), Vec::new());
        for r in &self.runs {
            r.blocks(&mut rows, &mut runs, &mut gates);
        }
        let blocks = vec![
            Block::table("phases", "measured ms per force evaluation, by phase", rows),
            Block::table("runs", "the timed run of each workload", runs),
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

/// Every workload, `reps` repetitions each on its own pool; the shortest
/// run is kept.
fn measure(smoke: bool) -> InRunPhases {
    let reps = if smoke { 3 } else { 7 };
    let runs = WORKLOADS
        .iter()
        .map(|&(name, dim, zones, order, assembly, exec, pool, steps)| {
            rayon::Pool::new(pool).install(|| {
                (0..reps)
                    .map(|_| match dim {
                        2 => rep::<2>(name, zones, order, assembly, exec, steps),
                        _ => rep::<3>(name, zones, order, assembly, exec, steps),
                    })
                    .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
                    .expect("at least one repetition")
            })
        })
        .collect();
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
        let report = InRunPhases { runs: vec![run.clone()] }.report();
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
            let report = InRunPhases { runs: vec![run] }.report();
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

    /// The batched `d x d` products' rows name what kernels 5 and 6 launch.
    #[test]
    fn the_dim_gemm_rows_name_the_launched_kernels() {
        use blast_kernels::k56::BatchedDimGemm;
        let names = |label| ROWS.iter().find(|r| r.label == label).unwrap().names;
        assert_eq!(names("k5"), [BatchedDimGemm::nn_tuned().name()]);
        assert_eq!(names("k6"), [BatchedDimGemm::nt_tuned().name()]);
    }
}
