//! Table 6 — validation of the CUDA code: CPU and GPU runs of the 2D
//! triple-point problem (Q3-Q2) both preserve total energy to machine
//! precision and agree with each other.

use blast_core::ExecMode;

use crate::experiments::scenarios::{run_steps, triple_point};
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("tab6_validation", run);

/// Runs the triple point on CPU and GPU and compares their energies.
fn run(_smoke: bool) -> Report {
    let steps = 25;
    let platforms = [
        ("CPU", ExecMode::CpuSerial),
        ("GPU", ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }),
    ];
    let mut rows = Vec::new();
    let mut gates = Vec::new();
    let mut totals = Vec::new();
    for (name, mode) in platforms {
        let (mut h, mut s) = triple_point(3, 1, mode);
        let e0 = h.energies(&s);
        run_steps(&mut h, &mut s, steps);
        let e1 = h.energies(&s);
        let drift = e1.relative_change(&e0);
        gates.push(Gate::new(
            format!("{name} conserves total energy"),
            drift.abs() < 1e-11 && e1.kinetic > 0.0,
            format!("relative drift {drift:.3e}, need < 1e-11 with kinetic energy developed"),
        ));
        totals.push(e1.total());
        rows.push(vec![
            Cell::new("platform", name),
            Cell::new("final_t", s.t),
            Cell::sci("kinetic", e1.kinetic, 13),
            Cell::sci("internal", e1.internal, 13),
            Cell::sci("total", e1.total(), 12),
            Cell::sci("total_change", e1.total() - e0.total(), 6),
        ]);
    }
    let rel = (totals[0] - totals[1]).abs() / totals[0];
    gates.push(Gate::new(
        "CPU and GPU agree",
        rel < 1e-10,
        format!("relative difference of the totals {rel:.3e}, need < 1e-10"),
    ));
    Report {
        blocks: vec![Block::table(
            "energies",
            "Table 6 — 2D triple point, Q3-Q2: energy conservation (CPU vs GPU); paper: both \
             platforms preserve total energy to machine precision (changes ~1e-13 absolute on \
             a total of ~10)",
            rows,
        )],
        gates,
    }
}
