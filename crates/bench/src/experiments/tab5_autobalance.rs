//! Table 5 — CUDA + OpenMP auto-balance: fraction of zones assigned to the
//! GPU and periods to convergence on a six-core Westmere + C2050 node.
//!
//! Paper: 2D Sedov 75% in 14 periods; 2D triple point 77% in 12 periods.

use std::sync::Arc;

use blast_core::{ExecMode, Executor, Hydro, Problem, Sedov, TriplePoint};
use gpu_sim::{CpuSpec, GpuDevice, GpuSpec};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("tab5_autobalance", run);

/// Runs `problem` in hybrid mode on the Westmere + Fermi node until the
/// balancer converges (at most 40 steps); returns `(GPU ratio, periods)`.
fn balance(problem: &dyn Problem<2>, zones: [usize; 2]) -> (f64, usize) {
    let dev = Arc::new(GpuDevice::new(GpuSpec::c2050()));
    let exec = Executor::new(ExecMode::Hybrid { threads: 6 }, CpuSpec::x5660(), Some(dev));
    let mut h = Hydro::<2>::builder(problem, zones).executor(exec).build().expect("fits");
    let mut s = h.initial_state();
    let mut dt = h.suggest_dt(&s);
    for _ in 0..40 {
        dt = h.step(&mut s, dt).dt_next();
        if h.executor().balancer.as_ref().expect("hybrid").is_converged() {
            break;
        }
    }
    let bal = h.executor().balancer.as_ref().expect("hybrid");
    (bal.ratio(), bal.convergence_periods().unwrap_or(bal.periods()))
}

/// Table 5: both problems' converged ratio and period count.
fn run(_smoke: bool) -> Report {
    let measured = [
        ("2D: Sedov", balance(&Sedov::default(), [16, 16])),
        ("2D: Triple-pt", balance(&TriplePoint::default(), [21, 9])),
    ];
    let mut gates = Vec::new();
    let rows = measured.map(|(problem, (ratio, periods))| {
        gates.push(Gate::new(
            format!("{problem} converges GPU-favoured"),
            ratio > 0.6 && ratio < 0.95 && (4..=30).contains(&periods),
            format!("ratio {ratio:.3} (0.6..0.95) in {periods} periods (4..=30)"),
        ));
        vec![
            Cell::new("problem", problem),
            Cell::pct("gpu_ratio", ratio),
            Cell::new("convergence_periods", periods),
        ]
    });
    Report {
        blocks: vec![Block::table(
            "balance",
            "Table 5 — auto-balance on X5660 (6 cores) + C2050; paper: Sedov 75% in 14 \
             periods, triple-pt 77% in 12 periods",
            rows.into(),
        )],
        gates,
    }
}
