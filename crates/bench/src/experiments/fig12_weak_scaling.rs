//! Fig. 12 — weak scaling on ORNL Titan: 512 zones per node, 8x more
//! nodes per refinement, time for 5 cycles from 8 to 4096 nodes.

use cluster_sim::weak_scaling;

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig12_weak_scaling", run);

/// The modeled weak-scaling series.
fn run(_smoke: bool) -> Report {
    let pts = weak_scaling(4);
    let rows = pts.iter().map(|p| {
        vec![
            Cell::new("nodes", p.nodes),
            Cell::new("mpi_ranks", p.nodes * 16),
            Cell::new("zones", p.nodes * 512),
            Cell::new("time_s", p.time_s),
        ]
    });
    let (first, last) = (&pts[0], &pts[pts.len() - 1]);
    let ratio = last.time_s / first.time_s;
    Report {
        blocks: vec![
            Block::table(
                "weak",
                "Fig. 12 — weak scaling on Titan (3D Q2-Q1, 512 zones/node, 5 cycles)",
                rows.collect(),
            ),
            Block::record(
                "growth",
                "time growth over the series; paper: 0.85 s at 8 nodes -> 1.83 s at 4096 \
                 nodes, limited by the global min-dt reduction and MFEM communication",
                vec![Cell::times("ratio", ratio)],
            ),
        ],
        gates: vec![
            Gate::new(
                "8 to 4096 nodes",
                (first.nodes, last.nodes, pts.len()) == (8, 4096, 4),
                format!("{} points, {} to {} nodes", pts.len(), first.nodes, last.nodes),
            ),
            Gate::new(
                "time growth",
                ratio > 1.7 && ratio < 2.7,
                format!("{ratio:.2}x from 8 to 4096 nodes, need 1.7x..2.7x"),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_matches_paper() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
