//! Table 4 — batched DGEMV on one C2050: streamed `cublasDgemv` vs the
//! custom kernel 8 vs the theoretical (bandwidth-bound) peak.
//!
//! Paper: 0.2 / 18 / 35.5 GFLOP/s for 4096 batches of 81x8.

use blast_kernels::cublas_like::StreamedDgemv;
use blast_kernels::k8_10::MomentumRhsKernel;
use blast_kernels::ProblemShape;
use gpu_sim::{GpuDevice, GpuSpec};

use crate::table;

/// Measured Table 4 values from the model.
pub fn measure() -> (f64, f64, f64) {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(GpuSpec::c2050());
    let flops = 2.0 * shape.nvdof() as f64 * shape.nthermo as f64 * shape.zones as f64;

    let streamed = StreamedDgemv;
    // One library call per zone, modeled without executing.
    let per_call =
        dev.model_kernel(&streamed.config_single(&shape), &streamed.traffic_single(&shape));
    let t_lib = per_call.time_s * shape.zones as f64;
    let gflops_lib = flops / t_lib / 1e9;

    let k8 = MomentumRhsKernel;
    let stats = dev.model_kernel(&k8.config(&shape), &k8.traffic(&shape));

    // Theoretical bandwidth-bound peak: read the matrix once.
    let m = shape.nvdof() as f64;
    let n = shape.nthermo as f64;
    let fpb = (2.0 * m * n) / ((m * n + m + n) * 8.0);
    let theoretical = dev.spec().bandwidth_bound_gflops(fpb);

    (gflops_lib, stats.gflops, theoretical)
}

/// Regenerates Table 4.
pub fn report() -> String {
    let (lib, custom, theory) = measure();
    let rows = vec![vec![
        table::f(lib),
        table::f(custom),
        table::f(theory),
        format!("{:.0}x", custom / lib),
    ]];
    let mut out = table::render(
        "Table 4 — batched DGEMV, 4096 batches of 81x8 on one C2050 (GFLOP/s)",
        &["streamed cublasDgemv", "kernel 8", "theoretical", "speedup"],
        &rows,
    );
    out.push_str("\nPaper: 0.2 / 18 / 35.5 GFLOP/s (custom kernel ~90x the streamed library).\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn values_in_paper_bands() {
        let (lib, custom, theory) = super::measure();
        assert!(lib > 0.05 && lib < 0.6, "streamed {lib}");
        assert!(custom > 10.0 && custom < theory, "custom {custom}");
        assert!((theory - 35.5).abs() < 4.0, "theory {theory}");
        assert!(custom / lib > 30.0, "speedup {}", custom / lib);
    }
}
