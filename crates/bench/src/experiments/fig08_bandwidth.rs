//! Fig. 8 — achieved memory bandwidth of the base vs optimized kernels at
//! the three levels of the hierarchy (L1/shared, L2, device memory) on K20
//! (peak device bandwidth 208 GB/s).

use blast_kernels::base::MonolithicCornerForce;
use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::StressKernel;
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::k4::AzKernel;
use blast_kernels::k56::BatchedDimGemm;
use blast_kernels::k7::FzKernel;
use blast_kernels::{ProblemShape, Workspace};
use gpu_sim::{DeviceCatalog, GpuDevice, KernelStats};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig08_bandwidth", run);

/// K20 peak device bandwidth, GB/s.
const PEAK_GBS: f64 = 208.0;

/// Modeled bandwidths of the base kernel and of each optimized one.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    let base = MonolithicCornerForce;
    let mut kernels: Vec<(&str, KernelStats)> = vec![(
        "base (loop_quadrature_point)",
        dev.model_kernel(&base.config(&shape, 255), &base.traffic(&shape)),
    )];
    let k1 = AdjugateDetKernel { workspace: Workspace::Registers };
    kernels.push(("kernel 1", dev.model_kernel(&k1.config(&shape), &k1.traffic(&shape))));
    let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
    kernels.push(("kernel 2", dev.model_kernel(&k2.config(&shape), &k2.traffic(&shape))));
    let k3 = CoefGradKernel::tuned();
    kernels.push(("kernel 3", dev.model_kernel(&k3.config(&shape), &k3.traffic(&shape))));
    let k4 = AzKernel::tuned();
    kernels.push(("kernel 4", dev.model_kernel(&k4.config(&shape), &k4.traffic(&shape))));
    let (dim, points) = (shape.dim, shape.total_points());
    for (name, k) in
        [("kernel 5", BatchedDimGemm::nn_tuned()), ("kernel 6", BatchedDimGemm::nt_tuned())]
    {
        kernels.push((name, dev.model_kernel(&k.config(dim, points), &k.traffic(dim, points))));
    }
    let k7 = FzKernel::tuned();
    kernels.push(("kernel 7", dev.model_kernel(&k7.config(&shape), &k7.traffic(&shape))));

    let rows = kernels.iter().map(|(name, s)| {
        vec![
            Cell::new("kernel", *name),
            Cell::new("shared_gbs", s.shared_bw_gbs),
            Cell::new("l2_gbs", s.l2_bw_gbs),
            Cell::new("device_gbs", s.dram_bw_gbs),
        ]
    });
    let base = &kernels[0].1;
    let best_shared = kernels[1..].iter().map(|(_, s)| s.shared_bw_gbs).fold(0.0, f64::max);
    let (top, top_dram) = kernels
        .iter()
        .map(|(n, s)| (*n, s.dram_bw_gbs))
        .fold(("none", 0.0), |a, b| if b.1 > a.1 { b } else { a });
    Report {
        blocks: vec![Block::table(
            "bandwidth",
            "Fig. 8 — achieved bandwidth, GB/s (3D Q2-Q1, K20; device peak 208); paper: \
             optimized kernels exceed the base implementation in L1/shared and device \
             bandwidth, and on-chip bandwidth has the greater impact on performance",
            rows.collect(),
        )],
        gates: vec![
            Gate::new(
                "shared memory: base none, optimized > 100 GB/s",
                base.shared_bw_gbs == 0.0 && best_shared > 100.0,
                format!(
                    "base {:.1} GB/s, best optimized {best_shared:.1} GB/s",
                    base.shared_bw_gbs
                ),
            ),
            Gate::new(
                "device bandwidth within the peak",
                top_dram <= PEAK_GBS + 1e-9,
                format!("{top} reaches {top_dram:.1} GB/s of {PEAK_GBS}"),
            ),
            Gate::new(
                "base kernel is DRAM-saturated",
                base.dram_bw_gbs > 0.8 * PEAK_GBS,
                format!("{:.1} GB/s, need > 80% of {PEAK_GBS}", base.dram_bw_gbs),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::assert_gates_hold;

    #[test]
    fn optimized_kernels_beat_base_on_shared_bandwidth() {
        assert_gates_hold(&super::run(false), &["shared memory"]);
    }

    #[test]
    fn device_bandwidth_below_peak() {
        assert_gates_hold(&super::run(false), &["device bandwidth"]);
    }

    #[test]
    fn base_kernel_is_dram_saturated() {
        assert_gates_hold(&super::run(false), &["base kernel"]);
    }
}
