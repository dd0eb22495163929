//! Table 4 — batched DGEMV on one C2050: streamed `cublasDgemv` vs the
//! custom kernel 8 vs the theoretical (bandwidth-bound) peak.
//!
//! Paper: 0.2 / 18 / 35.5 GFLOP/s for 4096 batches of 81x8.

use blast_kernels::cublas_like::StreamedDgemv;
use blast_kernels::k8_10::MomentumRhsKernel;
use blast_kernels::ProblemShape;
use gpu_sim::{GpuDevice, GpuSpec};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("tab4_batched_dgemv", run);

/// Table 4: the modeled rates and the custom kernel's gain.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(GpuSpec::c2050());
    let flops = 2.0 * shape.nvdof() as f64 * shape.nthermo as f64 * shape.zones as f64;

    let streamed = StreamedDgemv;
    // One library call per zone, modeled without executing.
    let per_call =
        dev.model_kernel(&streamed.config_single(&shape), &streamed.traffic_single(&shape));
    let t_lib = per_call.time_s * shape.zones as f64;
    let lib = flops / t_lib / 1e9;

    let k8 = MomentumRhsKernel;
    let custom = dev.model_kernel(&k8.config(&shape), &k8.traffic(&shape)).gflops;

    // Theoretical bandwidth-bound peak: read the matrix once.
    let m = shape.nvdof() as f64;
    let n = shape.nthermo as f64;
    let fpb = (2.0 * m * n) / ((m * n + m + n) * 8.0);
    let theory = dev.spec().bandwidth_bound_gflops(fpb);
    let speedup = custom / lib;
    Report {
        blocks: vec![Block::record(
            "rates",
            "Table 4 — batched DGEMV, 4096 batches of 81x8 on one C2050 (GFLOP/s); paper: \
             0.2 / 18 / 35.5 GFLOP/s, the custom kernel ~90x the streamed library",
            vec![
                Cell::new("streamed_cublas_dgemv", lib),
                Cell::new("kernel_8", custom),
                Cell::new("theoretical", theory),
                Cell::times("speedup", speedup),
            ],
        )],
        gates: vec![
            Gate::new(
                "streamed library rate",
                lib > 0.05 && lib < 0.6,
                format!("{lib:.3}, need 0.05..0.6"),
            ),
            Gate::new(
                "kernel 8 below the bound",
                custom > 10.0 && custom < theory,
                format!("{custom:.2} GF/s, need 10..{theory:.2}"),
            ),
            Gate::new(
                "bandwidth bound near 35.5",
                (theory - 35.5).abs() < 4.0,
                format!("{theory:.2} GF/s, need 35.5 +- 4"),
            ),
            Gate::new("kernel 8 gain", speedup > 30.0, format!("{speedup:.1}x, need > 30x")),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn values_in_paper_bands() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
