//! Fig. 1 — double-precision GFLOPS per watt of NVIDIA GPUs vs Intel CPUs
//! (theoretical peak / TDP, the paper's methodology).

use powermon::catalog::{catalog, fig1_series, Vendor};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig01_perf_per_watt", run);

/// The Fig. 1 series and the GPU lead over the CPUs.
fn run(_smoke: bool) -> Report {
    let parts = catalog();
    let rows = parts.iter().map(|part| {
        vec![
            Cell::new("part", part.name),
            Cell::new(
                "vendor",
                match part.vendor {
                    Vendor::NvidiaGpu => "NVIDIA GPU",
                    Vendor::IntelCpu => "Intel CPU",
                },
            ),
            Cell::new("year", part.year as usize),
            Cell::new("peak_gflops", part.peak_gflops_dp),
            Cell::new("tdp_w", part.tdp_w),
            Cell::new("gflops_per_w", part.gflops_per_watt()),
        ]
    });
    let best = |v| fig1_series(v).iter().map(|&(_, g)| g).fold(0.0, f64::max);
    let (gpu, cpu) = (best(Vendor::NvidiaGpu), best(Vendor::IntelCpu));
    let node = ["Tesla K20", "Xeon E5-2670 (Sandy Bridge)"];
    let listed = node.iter().all(|n| parts.iter().any(|p| p.name == *n));
    Report {
        blocks: vec![
            Block::table(
                "parts",
                "Fig. 1 — DP GFLOPS per watt (theoretical peak / TDP)",
                rows.collect(),
            ),
            Block::record(
                "lead",
                "best GPU vs best CPU; paper: GPUs lead by several-x, K20-class systems \
                 exceeded 3 GF/W on the Green500",
                vec![
                    Cell::new("best_gpu_gflops_per_w", gpu),
                    Cell::new("best_cpu_gflops_per_w", cpu),
                    Cell::times("advantage", gpu / cpu),
                ],
            ),
        ],
        gates: vec![
            Gate::new("the paper's node parts", listed, format!("{node:?} in the series")),
            Gate::new(
                "GPUs lead in GF/W",
                gpu > cpu,
                format!("best GPU {gpu:.2} GF/W vs best CPU {cpu:.2} GF/W, need GPU > CPU"),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_series_and_conclusion() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
