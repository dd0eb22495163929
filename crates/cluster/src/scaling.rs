//! Weak and strong scaling models (Figs. 12-13).
//!
//! Per-node compute times come from the `gpu-sim` kernel models (the same
//! ones the single-node results use); communication comes from
//! [`crate::netmodel`]. The weak-scaling growth is driven by the global
//! collectives — "the limiting factor is the MPI global reduction to find
//! the minimum time step after corner force computation and MPI
//! communication in MFEM" — whose cost rises with `log2(ranks)` while the
//! per-node work stays fixed.

use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::StressKernel;
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::k4::AzKernel;
use blast_kernels::k56::BatchedDimGemm;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::{ProblemShape, Workspace};
use gpu_sim::GpuDevice;

use crate::netmodel::Machine;
use gpu_sim::DeviceCatalog;

/// One point of a scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Compute nodes.
    pub nodes: usize,
    /// Modeled time, seconds (for the stated number of cycles).
    pub time_s: f64,
}

/// Modeled device time of one optimized corner-force evaluation over
/// `shape` (two kernel-3 calls, kernels 1/5/2/6/4/7/8/10).
fn corner_force_gpu_time(dev: &GpuDevice, shape: &ProblemShape) -> f64 {
    let mut t = 0.0;
    let k3 = CoefGradKernel::tuned();
    t += 2.0 * dev.model_kernel(&k3.config(shape), &k3.traffic(shape)).time_s;
    let k1 = AdjugateDetKernel { workspace: Workspace::Registers };
    t += dev.model_kernel(&k1.config(shape), &k1.traffic(shape)).time_s;
    for k in [BatchedDimGemm::nn_tuned(), BatchedDimGemm::nt_tuned()] {
        t += dev
            .model_kernel(
                &k.config(shape.dim, shape.total_points()),
                &k.traffic(shape.dim, shape.total_points()),
            )
            .time_s;
    }
    let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
    t += dev.model_kernel(&k2.config(shape), &k2.traffic(shape)).time_s;
    let k4 = AzKernel::tuned();
    t += dev.model_kernel(&k4.config(shape), &k4.traffic(shape)).time_s;
    let k7 = FzKernel::tuned();
    t += dev.model_kernel(&k7.config(shape), &k7.traffic(shape)).time_s;
    let k8 = MomentumRhsKernel;
    t += dev.model_kernel(&k8.config(shape), &k8.traffic(shape)).time_s;
    let k10 = EnergyRhsKernel;
    t += dev.model_kernel(&k10.config(shape), &k10.traffic(shape)).time_s;
    t
}

/// Collective operations per time step charged by the scaling model: the
/// minimum-dt reduction plus the distributed PCG's dot products and the
/// MFEM local-to-global translations (step 5 of §2). Calibrated against
/// the Fig. 12 base point.
const COLLECTIVES_PER_STEP: usize = 150;

/// Per-node, per-step host-side cost that does not shrink with scale
/// (MFEM form translations, integration, launch orchestration), seconds.
/// Calibrated against the Fig. 12 base point (8 nodes, 0.85 s / 5 cycles).
const NODE_STEP_OVERHEAD_S: f64 = 0.012;

/// Weak scaling on Titan (Fig. 12): 512 zones per node in 3D `Q2`-`Q1`
/// (the paper: "we fixed a domain size of 512 for each computing node, and
/// used 8x more nodes for every refinement"), 5 cycles, starting at 8
/// nodes.
pub fn weak_scaling(levels: usize) -> Vec<ScalingPoint> {
    let machine = Machine::Titan;
    let net = machine.network();
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20m"));
    // Per-node subdomain: 512 zones, shared by the node's 16 MPI ranks
    // through Hyper-Q.
    dev.set_active_queues(machine.ranks_per_node() as u32);
    let shape = ProblemShape::new(3, 2, 512);
    // Two force evaluations per RK2-average step.
    let cf = 2.0 * corner_force_gpu_time(&dev, &shape);
    // CG on the node's share of the kinematic system.
    let n_node = 4913; // (2*8+1)^3 lattice of one node's subdomain
    let nnz = n_node * 125;
    let cg_iters = 60.0;
    let cg = cg_iters * (nnz as f64 * 20.0) / (51.2e9);
    let steps = 5.0;

    (0..levels)
        .map(|l| {
            let nodes = 8usize * 8usize.pow(l as u32);
            let ranks = nodes * machine.ranks_per_node();
            let comm_per_step =
                COLLECTIVES_PER_STEP as f64 * net.allreduce_time(ranks, 8)
                    + net.halo_exchange_time(6, 9 * 289 * 8); // 6 faces x Q2 face DOFs
            ScalingPoint {
                nodes,
                time_s: steps * (cf + cg + NODE_STEP_OVERHEAD_S + comm_per_step),
            }
        })
        .collect()
}

/// Strong scaling on Shannon (Fig. 13): a fixed `32^3` 3D `Q2`-`Q1` domain
/// split across 1..=`max_nodes` nodes (two K20m per node).
pub fn strong_scaling(node_counts: &[usize]) -> Vec<ScalingPoint> {
    let machine = Machine::Shannon;
    let net = machine.network();
    let total_zones = 32usize.pow(3);
    let steps = 5.0;
    node_counts
        .iter()
        .map(|&nodes| {
            let gpus = nodes * 2;
            let zones_per_gpu = (total_zones / gpus).max(1);
            let dev = GpuDevice::new(DeviceCatalog::gpu("k20m"));
            dev.set_active_queues(8);
            let shape = ProblemShape::new(3, 2, zones_per_gpu);
            let cf = 2.0 * corner_force_gpu_time(&dev, &shape);
            let n_local = shape.zones * 27; // ~local kinematic DOFs
            let cg = 60.0 * (n_local as f64 * 125.0 * 20.0) / 51.2e9;
            let ranks = nodes * machine.ranks_per_node();
            let comm = COLLECTIVES_PER_STEP as f64 * net.allreduce_time(ranks, 8)
                + net.halo_exchange_time(6, 2 * 1156 * 8);
            ScalingPoint { nodes, time_s: steps * (cf + cg + NODE_STEP_OVERHEAD_S / 4.0 + comm) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_matches_fig12_endpoints() {
        // Fig. 12: 8 nodes -> 0.85 s, 4096 nodes -> 1.83 s for 5 cycles.
        let pts = weak_scaling(4);
        assert_eq!(pts[0].nodes, 8);
        assert_eq!(pts[3].nodes, 4096);
        let t8 = pts[0].time_s;
        let t4096 = pts[3].time_s;
        assert!((t8 - 0.85).abs() / 0.85 < 0.25, "8-node time {t8}");
        assert!((t4096 - 1.83).abs() / 1.83 < 0.25, "4096-node time {t4096}");
        // The defining shape: growth factor ~2.15x across three octuplings.
        let ratio = t4096 / t8;
        assert!(ratio > 1.7 && ratio < 2.7, "growth ratio {ratio}");
    }

    #[test]
    fn weak_scaling_monotonically_degrades() {
        let pts = weak_scaling(4);
        for w in pts.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
            assert_eq!(w[1].nodes, 8 * w[0].nodes);
        }
    }

    #[test]
    fn weak_scaling_growth_is_logarithmic_not_linear() {
        // Each octupling adds a roughly constant increment (log-tree
        // collectives), unlike linear-in-nodes degradation.
        let pts = weak_scaling(4);
        let d1 = pts[1].time_s - pts[0].time_s;
        let d2 = pts[2].time_s - pts[1].time_s;
        let d3 = pts[3].time_s - pts[2].time_s;
        assert!((d2 / d1 - 1.0).abs() < 0.3, "{d1} {d2} {d3}");
        assert!((d3 / d2 - 1.0).abs() < 0.3);
    }

    #[test]
    fn strong_scaling_is_near_linear_then_flattens() {
        // Fig. 13: linear strong scaling over Shannon's node counts.
        let pts = strong_scaling(&[1, 2, 4, 8, 16]);
        // Speedup from 1 to 16 nodes should be substantial (> 6x) but
        // sub-ideal (< 16x).
        let speedup = pts[0].time_s / pts[4].time_s;
        assert!(speedup > 6.0 && speedup < 16.0, "speedup {speedup}");
        // Monotone decreasing.
        for w in pts.windows(2) {
            assert!(w[1].time_s < w[0].time_s);
        }
    }

    #[test]
    fn corner_force_time_scales_with_zones() {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20m"));
        let t512 = corner_force_gpu_time(&dev, &ProblemShape::new(3, 2, 512));
        let t4096 = corner_force_gpu_time(&dev, &ProblemShape::new(3, 2, 4096));
        let ratio = t4096 / t512;
        assert!(ratio > 4.0 && ratio < 9.0, "ratio {ratio}");
    }
}
