//! Fig. 7 — kernels 3, 4, 7 at optimization levels v1/v2/v3, plus the
//! `cublasDgemmBatched` alternative for kernel 7 (3D Q2-Q1 on K20).

use blast_kernels::cublas_like::CublasDgemmBatchedLarge;
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::k4::AzKernel;
use blast_kernels::k7::FzKernel;
use blast_kernels::{GemmVariant, ProblemShape};
use gpu_sim::{DeviceCatalog, GpuDevice, LaunchConfig, Traffic};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig07_kernel_variants", run);

/// Modeled time of each kernel at each optimization level.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    let time = |(cfg, traffic): (LaunchConfig, Traffic)| dev.model_kernel(&cfg, &traffic).time_s;
    let variants = [GemmVariant::V1, GemmVariant::V2, GemmVariant::V3];
    let k3 = variants.map(|v| {
        let k = match v {
            GemmVariant::V3 => CoefGradKernel::tuned(),
            _ => CoefGradKernel { variant: v, zones_per_block: 1 },
        };
        time((k.config(&shape), k.traffic(&shape)))
    });
    let k4 = variants.map(|v| {
        let k = match v {
            GemmVariant::V3 => AzKernel::tuned(),
            _ => AzKernel { variant: v, pts_per_block: 1 },
        };
        time((k.config(&shape), k.traffic(&shape)))
    });
    let k7 = variants.map(|v| {
        let k = match v {
            GemmVariant::V3 => FzKernel::tuned(),
            _ => FzKernel { variant: v, col_block: 0 },
        };
        time((k.config(&shape), k.traffic(&shape)))
    });
    let lib = CublasDgemmBatchedLarge;
    let cublas = time((lib.config(&shape), lib.traffic(&shape)));

    let mut rows = Vec::new();
    let mut gates = Vec::new();
    for (kernel, [v1, v2, v3]) in [("kernel 3", k3), ("kernel 4", k4), ("kernel 7", k7)] {
        for (v, t) in variants.iter().zip([v1, v2, v3]) {
            let label = format!("{kernel} {v:?}");
            rows.push(vec![Cell::new("kernel_variant", label), Cell::new("time_ms", t * 1e3)]);
        }
        gates.push(Gate::new(
            format!("{kernel} improves monotonically"),
            v2 < v1 && v3 <= v2,
            format!(
                "v1 {:.4} / v2 {:.4} / v3 {:.4} ms, need v3 <= v2 < v1",
                v1 * 1e3,
                v2 * 1e3,
                v3 * 1e3
            ),
        ));
    }
    let label = "kernel 7 cublasDgemmBatched";
    rows.push(vec![Cell::new("kernel_variant", label), Cell::new("time_ms", cublas * 1e3)]);
    gates.push(Gate::new(
        "kernel 7 v3 beats cublasDgemmBatched",
        k7[2] < cublas,
        format!("{:.4} ms vs {:.4} ms", k7[2] * 1e3, cublas * 1e3),
    ));
    Report {
        blocks: vec![Block::table(
            "variants",
            "Fig. 7 — kernels 3, 4, 7: v1 (naive) / v2 (shared) / v3 (tuned), 3D Q2-Q1 on K20; \
             paper: the custom v3 beats cublasDgemmBatched",
            rows,
        )],
        gates,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_kernel_improves_monotonically() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
