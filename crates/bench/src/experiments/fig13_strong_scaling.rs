//! Fig. 13 — strong scaling on SNL Shannon: fixed 32^3 domain, 1-16 nodes
//! (two K20m per node), run time on a log scale.

use cluster_sim::strong_scaling;

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig13_strong_scaling", run);

/// The modeled strong-scaling series.
fn run(_smoke: bool) -> Report {
    let pts = strong_scaling(&[1, 2, 4, 8, 16]);
    let t1 = pts[0].time_s;
    let rows = pts.iter().map(|p| {
        vec![
            Cell::new("nodes", p.nodes),
            Cell::new("time_s", p.time_s),
            Cell::times("speedup", t1 / p.time_s),
            Cell::pct("efficiency", t1 / p.time_s / p.nodes as f64),
        ]
    });
    let speedup = t1 / pts[4].time_s;
    Report {
        blocks: vec![Block::table(
            "strong",
            "Fig. 13 — strong scaling on Shannon (3D Q2-Q1, 32^3 zones, 5 cycles); paper: \
             \"linear strong scaling on this machine\"",
            rows.collect(),
        )],
        gates: vec![Gate::new(
            "near-linear to 16 nodes",
            speedup > 6.0 && speedup / 16.0 > 0.4,
            format!("{speedup:.2}x on 16 nodes, need > 6x and > 40% efficiency"),
        )],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn near_linear_regime() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
