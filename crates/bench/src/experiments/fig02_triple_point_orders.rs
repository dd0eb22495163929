//! Fig. 2 — the shock triple-point benchmark at increasing method order.
//!
//! The paper's figure shows the rolled-up vortex resolved by Q8-Q7, Q4-Q3
//! and Q2-Q1 elements: for a *fixed DOF budget*, higher order reveals more
//! refined physical features. We quantify that with the kinetic energy in
//! the shear layer and the peak vorticity proxy after the same physical
//! time.

use blast_core::ExecMode;

use crate::experiments::scenarios::{run_steps, triple_point_with_cfl};
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig02_triple_point_orders", run);

/// Runs the triple point at three orders with ~matched kinematic DOFs.
fn run(_smoke: bool) -> Report {
    // (order, base zones): kinematic lattice ~ (7 b k + 1)(3 b k + 1);
    // choosing b = 8/k keeps the DOF budget roughly constant.
    let steps = 8;
    let mut rows = Vec::new();
    let mut gates = Vec::new();
    let mut dofs = Vec::new();
    for (order, base) in [(2usize, 4usize), (4, 2), (8, 1)] {
        // Conservative CFL: the coarse Lagrangian mesh tangles under the
        // triple point's shear if pushed at the default step size.
        let (mut h, mut s) =
            triple_point_with_cfl(order, base, ExecMode::CpuParallel { threads: 8 }, 0.15);
        run_steps(&mut h, &mut s, steps);
        let ke = h.energies(&s).kinetic;
        let n = h.kin_space().num_dofs();
        let vmax = (0..n).map(|i| (s.v[i].powi(2) + s.v[n + i].powi(2)).sqrt()).fold(0.0, f64::max);
        let method = format!("Q{}-Q{}", order, order - 1);
        let detail = format!("kinetic energy {ke:.3e}, max |v| {vmax:.3e}, {} DOFs", 2 * n);
        let ok = ke > 0.0 && vmax > 0.0 && 2 * n > 100;
        gates.push(Gate::new(format!("{method} develops motion"), ok, detail));
        dofs.push(2 * n);
        rows.push(vec![
            Cell::new("method", method),
            Cell::new("vector_dofs", 2 * n),
            Cell::new("steps", steps),
            Cell::new("kinetic_energy", ke),
            Cell::new("max_v", vmax),
        ]);
    }
    let (min, max) = (*dofs.iter().min().unwrap(), *dofs.iter().max().unwrap());
    let spread = max as f64 / min as f64;
    gates.push(Gate::new(
        "matched DOF budgets",
        spread < 2.5,
        format!("{min} to {max} vector DOFs ({spread:.2}x), need < 2.5x"),
    ));
    Report {
        blocks: vec![Block::table(
            "orders",
            "Fig. 2 — triple point at matched DOF budgets; paper: higher-order elements \
             (p-refinement) resolve sharper interface roll-up at the same DOF count",
            rows,
        )],
        gates,
    }
}
