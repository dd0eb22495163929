//! Table 1 — BLAST profile on the Xeon CPU: the corner force takes 55-75%
//! of total time and the CG solver 20-34%, with the corner-force share
//! growing with the order.

use blast_core::{ExecMode, Hydro};

use crate::experiments::scenarios::{run_steps, sedov2d, sedov3d, triple_point};
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("tab1_cpu_profile", run);

/// `(corner-force share, CG share)` of a run's phase profile.
fn shares<const D: usize>(hydro: &Hydro<D>) -> (f64, f64) {
    let prof = hydro.phase_profile();
    let total: f64 = prof.iter().map(|(_, t, _)| t).sum();
    let share =
        |phase| prof.iter().find(|(n, _, _)| *n == phase).map_or(0.0, |(_, t, _)| t / total);
    (share("corner_force"), share("cg_solver"))
}

/// The three Table 1 rows (shares; the paper's absolute seconds depend on
/// its undisclosed domain sizes).
fn run(_smoke: bool) -> Report {
    let mode = || ExecMode::CpuParallel { threads: 8 };
    let (mut h, mut s) = sedov2d(4, 8, mode());
    run_steps(&mut h, &mut s, 3);
    let q4_2d = shares(&h);
    // The triple point, as in the paper's mixed workloads.
    let (mut h, mut s) = triple_point(3, 2, mode());
    run_steps(&mut h, &mut s, 3);
    let q3_2d = shares(&h);
    // Large enough that the CG matrix exceeds the L3.
    let (mut h, mut s) = sedov3d(2, 12, mode());
    run_steps(&mut h, &mut s, 3);
    let q2_3d = shares(&h);

    let measured = [("2D: Q4-Q3", q4_2d), ("2D: Q3-Q2", q3_2d), ("3D: Q2-Q1", q2_3d)];
    let mut gates = Vec::new();
    let rows = measured.map(|(method, (cf, cg))| {
        gates.push(Gate::new(
            format!("{method} corner force dominates"),
            cf > 0.45 && cf < 0.9 && cg > 0.05 && cg < 0.45 && cf > cg,
            format!("corner force {cf:.3} (0.45..0.9), CG {cg:.3} (0.05..0.45)"),
        ));
        vec![Cell::new("method", method), Cell::pct("corner_force", cf), Cell::pct("cg_solver", cg)]
    });
    // Within a fixed dimension, p-refinement makes the corner force grow
    // faster than the CG solver (paper: 2D Q4 75.6% vs 2D Q3 70%).
    // Cross-dimension shares are not comparable (different domains).
    gates.push(Gate::new(
        "corner force grows with order",
        q4_2d.0 > q3_2d.0,
        format!("2D Q4-Q3 {:.3} vs 2D Q3-Q2 {:.3}", q4_2d.0, q3_2d.0),
    ));
    Report {
        blocks: vec![Block::table(
            "profile",
            "Table 1 — CPU profile (Sedov / triple point, 8 threads on E5-2670); paper: corner \
             force 55-75% (growing with order), CG solver 20-34%",
            rows.into(),
        )],
        gates,
    }
}
