//! Fig. 11 — single-node speedup of CPU-GPU over CPU-only: 1.9x with Q2-Q1
//! elements, 2.5x with Q4-Q3 (8 MPI tasks sharing one K20 via Hyper-Q;
//! only the corner force is accelerated).

use crate::experiments::scenarios::cpu_vs_hybrid;
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig11_speedup", run);

/// Simulated CPU-only and CPU-GPU times per order. Functional domains are
/// scaled so the point counts match (16^3 at Q2, 8^3 at Q4 — identical
/// total quadrature points; the modeled times carry the order-dependent
/// operand shapes).
fn run(_smoke: bool) -> Report {
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (order, zones_axis) in [(2usize, 16usize), (4, 8)] {
        let (cpu, hybrid) = cpu_vs_hybrid(order, zones_axis);
        speedups.push(cpu.time_s / hybrid.time_s);
        rows.push(vec![
            Cell::new("method", format!("Q{}-Q{}", order, order - 1)),
            Cell::new("cpu_s", cpu.time_s),
            Cell::new("cpu_gpu_s", hybrid.time_s),
            Cell::times("speedup", cpu.time_s / hybrid.time_s),
        ]);
    }
    let (q2, q4) = (speedups[0], speedups[1]);
    // The model's corner-force acceleration is somewhat stronger than the
    // paper's measured end-to-end 1.9x / 2.5x; the defining shape holds.
    Report {
        blocks: vec![Block::table(
            "speedup",
            "Fig. 11 — 3D Sedov speedup, CPU-GPU vs CPU (E5-2670 + K20, 8 MPI); paper: 1.9x \
             (Q2-Q1) and 2.5x (Q4-Q3), higher order -> larger corner-force share -> more GPU \
             benefit",
            rows,
        )],
        gates: vec![
            Gate::new("Q2-Q1 speedup", q2 > 1.4 && q2 < 3.2, format!("{q2:.2}x, need 1.4x..3.2x")),
            Gate::new("Q4-Q3 speedup", q4 > 1.8 && q4 < 5.5, format!("{q4:.2}x, need 1.8x..5.5x")),
            Gate::new(
                "higher order benefits more",
                q4 > q2,
                format!("Q4-Q3 {q4:.2}x vs Q2-Q1 {q2:.2}x"),
            ),
        ],
    }
}
