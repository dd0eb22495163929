//! Fig. 14 — RAPL power of the two E5-2670 packages: one fully loaded with
//! the 3D Q2-Q1 run (8 MPI tasks, no GPU), the other idle.

use powermon::{CpuPowerModel, CpuPowerState, PowerTrace};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig14_cpu_power", run);

/// The Fig. 14 levels and a sampled trace like the plot.
fn run(_smoke: bool) -> Report {
    let m = CpuPowerModel::e5_2670();
    let busy = m.read(CpuPowerState::Busy, 1.0);
    let idle = m.read(CpuPowerState::Idle, 0.0);
    let (bp, bd, ip, id) = (busy.pkg_watts, busy.dram_watts, idle.pkg_watts, idle.dram_watts);
    let level = |package: &str, pkg: f64, dram: f64| {
        vec![Cell::new("package", package), Cell::new("pkg_w", pkg), Cell::new("dram_w", dram)]
    };
    // Load ramps on at t = 2 s and off at t = 12 s.
    let mut trace = PowerTrace::new(m.idle_pkg_w + m.idle_dram_w);
    for (start, dur, watts) in [(0.0, 2.0, ip + id), (2.0, 10.0, bp + bd), (12.0, 3.0, ip + id)] {
        trace.push(start, dur, watts);
    }
    let samples = trace.sample_series(1.0, 14.0).into_iter();
    let samples = samples.map(|(t, w)| vec![Cell::new("t_s", t), Cell::new("w", w)]);
    Report {
        blocks: vec![
            Block::table(
                "levels",
                "Fig. 14 — dual E5-2670 RAPL power during a CPU-only 3D Q2-Q1 run (W)",
                vec![level("package 0 (loaded)", bp, bd), level("package 1 (idle)", ip, id)],
            ),
            Block::record(
                "tdp",
                "loaded package vs TDP; paper: 95 W = 82% of 115 W, \"confirms the AMD reports \
                 of the normal range of Average CPU Power\"",
                vec![Cell::new("tdp_w", m.tdp_w), Cell::pct("loaded_of_tdp", bp / m.tdp_w)],
            ),
            Block::table("trace", "sampled package-0 trace (1 s period)", samples.collect()),
        ],
        gates: vec![
            Gate::new(
                "loaded package at 95 W + 15 W DRAM",
                (bp - 95.0).abs() < 1e-9 && (bd - 15.0).abs() < 1e-9,
                format!("pkg {bp} W, dram {bd} W"),
            ),
            Gate::new(
                "idle package below 20 W + 1 W DRAM",
                ip < 20.0 && id < 1.0,
                format!("pkg {ip} W, dram {id} W"),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn levels_match_fig14() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
