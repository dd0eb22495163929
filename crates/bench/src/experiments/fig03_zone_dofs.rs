//! Fig. 3 — schematic of bilinear (Q1-Q0), biquadratic (Q2-Q1), and bicubic
//! (Q3-Q2) zones: kinematic (continuous) vs thermodynamic (discontinuous)
//! degrees of freedom of one 2D zone.

use blast_fem::TensorBasis;

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig03_zone_dofs", run);

/// The Fig. 3 DOF counts per method and the Q2-Q1 zone's node positions.
fn run(_smoke: bool) -> Report {
    let counts = (1..=3).map(|k| {
        let (kin, thermo) = (TensorBasis::<2>::h1(k), TensorBasis::<2>::l2(k - 1));
        vec![
            Cell::new("method", format!("Q{}-Q{}", k, k - 1)),
            Cell::new("kin_scalar", kin.ndof()),
            Cell::new("kin_vector", 2 * kin.ndof()),
            Cell::new("thermo", thermo.ndof()),
            Cell::new("quad_pts_per_axis", 2 * k),
        ]
    });
    // Kinematic nodes on the Lobatto lattice (edges shared with
    // neighbours), thermodynamic nodes strictly interior.
    let (kin, thermo) = (TensorBasis::<2>::h1(2), TensorBasis::<2>::l2(1));
    let mut nodes = Vec::new();
    let mut interior = true;
    for (kind, basis) in [("kinematic", &kin), ("thermodynamic", &thermo)] {
        for j in 0..basis.ndof() {
            let p = basis.node(j);
            if kind == "thermodynamic" {
                interior &= p.iter().all(|&c| c > 0.0 && c < 1.0);
            }
            nodes.push(vec![Cell::new("kind", kind), Cell::new("x", p[0]), Cell::new("y", p[1])]);
        }
    }
    let q2 = (kin.ndof(), 2 * kin.ndof(), thermo.ndof());
    Report {
        blocks: vec![
            Block::table("methods", "Fig. 3 — 2D zone DOF structure per method", counts.collect()),
            Block::table("q2_nodes", "Q2-Q1 zone schematic: node positions", nodes),
        ],
        gates: vec![
            Gate::new(
                "Q2-Q1 zone DOFs",
                q2 == (9, 18, 4),
                format!("{q2:?} kinematic scalar / vector, thermodynamic; need (9, 18, 4)"),
            ),
            Gate::new(
                "thermodynamic nodes interior",
                interior,
                "every Q1 thermodynamic node strictly inside the zone",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_match_methods() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
