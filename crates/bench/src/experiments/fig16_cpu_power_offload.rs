//! Fig. 16 — CPU power while the corner force runs on the GPU: both
//! packages busy orchestrating, the package power drops by ~20 W relative
//! to the CPU-only run (mostly the DRAM domain).

use powermon::{CpuPowerModel, CpuPowerState};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig16_cpu_power_offload", run);

/// The offload readings next to the paper's, and the drop from the
/// CPU-only run.
fn run(_smoke: bool) -> Report {
    let m = CpuPowerModel::e5_2670();
    let off = m.read(CpuPowerState::GpuOffload, 1.0);
    let busy = m.read(CpuPowerState::Busy, 1.0);
    let (pkg, pp0, drop) = (off.pkg_watts, off.pp0_watts, busy.pkg_watts - off.pkg_watts);
    let domain = |name: &str, w: f64, paper: &str| {
        vec![Cell::new("domain", name), Cell::new("measured_w", w), Cell::new("paper", paper)]
    };
    Report {
        blocks: vec![
            Block::table(
                "domains",
                "Fig. 16 — E5-2670 package power with the corner force on the GPU (W)",
                vec![
                    domain("pkg_watts", pkg, "~75"),
                    domain("pp0_watts", pp0, "~60"),
                    domain("dram_watts", off.dram_watts, "(pkg - PP0 mostly DRAM)"),
                ],
            ),
            Block::record(
                "reduction",
                "package power drop vs the CPU-only run; paper: \"CPU power is reduced by \
                 20W\", with no significant dependence on the method order",
                vec![Cell::new("drop_w", drop)],
            ),
        ],
        gates: vec![
            Gate::new(
                "offload levels",
                (pkg - 75.0).abs() < 2.0 && (pp0 - 60.0).abs() < 3.0,
                format!("pkg {pkg} W (75 +- 2), PP0 {pp0} W (60 +- 3)"),
            ),
            Gate::new("20 W drop", (drop - 20.0).abs() < 1.0, format!("{drop} W, need 20 +- 1")),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn offload_levels_match_fig16() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
