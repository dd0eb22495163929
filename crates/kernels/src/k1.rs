//! Kernel 1 — `kernel_CalcAjugate_det`: per-quadrature-point adjugate,
//! determinant, and SVD-based length scale of the zone Jacobian.
//!
//! "Independent operations are performed on each quadrature point (thread).
//! Each thread implements routines for computing SVDs and eigenvalues for
//! DIM x DIM matrices." The per-thread `DIM x DIM` workspaces are the
//! subject of the Fig. 4 ablation: kept in register arrays they are free;
//! spilled to local memory every access pays DRAM bandwidth and energy.
//!
//! The host body keeps the thread-per-point mapping with SIMD lanes for
//! threads: [`crate::point::geometry`] on groups of `W` points.

use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::point;
use crate::shapes::ProblemShape;
use crate::Workspace;

/// Kernel 1: adjugate + determinant + minimum singular value of `J`.
#[derive(Clone, Copy, Debug)]
pub struct AdjugateDetKernel {
    /// Workspace placement (the Fig. 4 ablation knob).
    pub workspace: Workspace,
}

/// Threads per block used by the per-point kernels.
pub const POINT_KERNEL_BLOCK: u32 = 128;

/// One zone of kernel 1, `W` points at a time.
#[inline(always)]
fn zone_body<const D: usize, const W: usize>(
    jac: &[f64],
    adj: &mut [f64],
    det: &mut [f64],
    hmin: &mut [f64],
) {
    let groups = jac.chunks(W * D * D).zip(adj.chunks_mut(W * D * D));
    for ((j, a), (d, h)) in groups.zip(det.chunks_mut(W).zip(hmin.chunks_mut(W))) {
        point::geometry::<D, W>(j, a, d, h);
    }
}

isa_clones! {
    /// [`zone_body`] as compiled for `isa`.
    fn zone = lanes zone_body(jac: &[f64], adj: &mut [f64], det: &mut [f64], hmin: &mut [f64])
}

impl AdjugateDetKernel {
    /// Kernel name as it appears in the paper's Table 2.
    pub const NAME: &'static str = "kernel_CalcAjugate_det";

    /// Launch configuration for `shape`.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let count = shape.total_points() as u32;
        let grid = count.div_ceil(POINT_KERNEL_BLOCK);
        let regs = match (self.workspace, shape.dim) {
            // Register arrays: the whole workspace lives in registers.
            (Workspace::Registers, 2) => 48,
            (Workspace::Registers, _) => 110,
            // The local-memory variant keeps register pressure low.
            (Workspace::LocalMemory, 2) => 28,
            (Workspace::LocalMemory, _) => 32,
        };
        LaunchConfig::new(grid, POINT_KERNEL_BLOCK, 0, regs)
    }

    /// Declared traffic for `shape`.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let n = shape.total_points() as f64;
        let d = shape.dim as f64;
        let d2 = d * d;
        // Adjugate + det: ~2 flops per cofactor entry; SVD via eig(J^T J):
        // operation counts of the blast-la routines.
        let flops_per_pt = if shape.dim == 2 { 90.0 } else { 520.0 };
        // Useful data: read J, write adj + det + svd-min.
        let dram = n * (d2 * 8.0 + d2 * 8.0 + 16.0);
        // In the local-memory variant the workspace spills: J copy, J^T J,
        // rotation accumulators — ~3 matrices re-touched ~4 times each
        // (the L1 absorbs the hottest re-reads even when spilled).
        let local = match self.workspace {
            Workspace::Registers => 0.0,
            Workspace::LocalMemory => n * 3.0 * d2 * 8.0 * 4.0,
        };
        Traffic { flops: n * flops_per_pt, dram_bytes: dram, local_bytes: local, ..Default::default() }
    }

    /// Pure computation (shared by GPU launch body and CPU reference).
    ///
    /// Inputs: `jac` (`dim x dim`, one per point). Outputs per point: `adj`
    /// (adjugate of `J`), `det` (`|J|`), and `hmin` (minimum singular value
    /// of `J` — the reference-to-physical compression scale driving the CFL
    /// timestep as `h_min = sigma_min(J) / k` at the hydro level).
    pub fn compute(
        shape: &ProblemShape,
        jac: &BatchedMats,
        adj: &mut BatchedMats,
        det: &mut [f64],
        hmin: &mut [f64],
    ) {
        Self::compute_at(Isa::detect(), shape, jac, adj, det, hmin);
    }

    /// [`AdjugateDetKernel::compute`] through the zone body compiled for
    /// `isa`.
    fn compute_at(
        isa: Isa,
        shape: &ProblemShape,
        jac: &BatchedMats,
        adj: &mut BatchedMats,
        det: &mut [f64],
        hmin: &mut [f64],
    ) {
        let d = shape.dim;
        let npts = shape.npts;
        assert_eq!(jac.shape(), (d, d));
        assert_eq!(jac.count(), shape.total_points());
        assert_eq!(adj.shape(), (d, d));
        assert_eq!(adj.count(), shape.total_points());
        assert_eq!(det.len(), shape.total_points());
        assert_eq!(hmin.len(), shape.total_points());

        let jac_data = jac.as_slice();
        let stride = npts * d * d;
        adj.as_mut_slice()
            .par_chunks_exact_mut(stride)
            .zip(det.par_chunks_exact_mut(npts))
            .zip(hmin.par_chunks_exact_mut(npts))
            .enumerate()
            .for_each(|(z, ((adj_z, det_z), hmin_z))| {
                let jac_z = &jac_data[z * stride..(z + 1) * stride];
                if d == 2 {
                    zone::<2>(isa, jac_z, adj_z, det_z, hmin_z);
                } else {
                    zone::<3>(isa, jac_z, adj_z, det_z, hmin_z);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_la::SmallMat;
    use crate::launch::{testing::on_device, Launch};
    use gpu_sim::{DeviceCatalog, GpuDevice, GpuSpec};

    fn shape2d() -> ProblemShape {
        ProblemShape::new(2, 2, 5)
    }

    fn sample_jacobians(shape: &ProblemShape) -> BatchedMats {
        let d = shape.dim;
        BatchedMats::from_fn(d, d, shape.total_points(), |p, i, j| {
            // Diagonal-dominant, well-conditioned "mesh-like" Jacobians.
            if i == j {
                1.0 + 0.1 * ((p + i) as f64 * 0.7).sin()
            } else {
                0.15 * ((p * 3 + i * 5 + j) as f64 * 0.3).cos()
            }
        })
    }

    #[test]
    fn adjugate_det_identity_relation_2d() {
        let shape = shape2d();
        let jac = sample_jacobians(&shape);
        let mut adj = BatchedMats::zeros(2, 2, shape.total_points());
        let mut det = vec![0.0; shape.total_points()];
        let mut hmin = vec![0.0; shape.total_points()];
        AdjugateDetKernel::compute(&shape, &jac, &mut adj, &mut det, &mut hmin);
        for p in 0..shape.total_points() {
            let j = SmallMat::<2>::from_col_slice(jac.mat(p));
            let a = SmallMat::<2>::from_col_slice(adj.mat(p));
            let prod = j * a;
            assert!((prod[(0, 0)] - det[p]).abs() < 1e-13);
            assert!(prod[(0, 1)].abs() < 1e-13);
            assert!(hmin[p] > 0.0);
        }
    }

    #[test]
    fn hmin_is_min_singular_value_3d() {
        // Diagonal Jacobian: singular values are |diagonal| entries.
        let shape = ProblemShape::new(3, 1, 4);
        let n = shape.total_points();
        let h = [0.5, 0.25, 2.0];
        let jac = BatchedMats::from_fn(3, 3, n, |_, i, j| if i == j { h[i] } else { 0.0 });
        let mut adj = BatchedMats::zeros(3, 3, n);
        let mut det = vec![0.0; n];
        let mut hmin = vec![0.0; n];
        AdjugateDetKernel::compute(&shape, &jac, &mut adj, &mut det, &mut hmin);
        for p in 0..n {
            assert!((hmin[p] - 0.25).abs() < 1e-12);
            assert!((det[p] - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn compression_reduces_hmin() {
        // Compress the zone along y to 40%: hmin drops to 0.4.
        let shape = ProblemShape::new(2, 1, 1);
        let n = shape.total_points();
        let jac = BatchedMats::from_fn(2, 2, n, |_, i, j| match (i, j) {
            (0, 0) => 1.0,
            (1, 1) => 0.4,
            _ => 0.0,
        });
        let mut adj = BatchedMats::zeros(2, 2, n);
        let mut det = vec![0.0; n];
        let mut hmin = vec![0.0; n];
        AdjugateDetKernel::compute(&shape, &jac, &mut adj, &mut det, &mut hmin);
        assert!((hmin[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn register_variant_faster_than_local() {
        // The Fig. 4 mechanism on the simulated K20.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let shape = ProblemShape::new(3, 2, 512);
        let time = |workspace: Workspace| {
            let k = AdjugateDetKernel { workspace };
            dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).time_s
        };
        let (reg, loc) = (time(Workspace::Registers), time(Workspace::LocalMemory));
        assert!(loc > 1.5 * reg, "{loc} vs {reg}");
    }

    #[test]
    fn every_workspace_variant_launches_on_the_k20_model() {
        // A variant is a config and a traffic figure around the one static
        // `compute`: what can differ is whether the device accepts it.
        let shape = shape2d();
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        for ws in [Workspace::Registers, Workspace::LocalMemory] {
            let k = AdjugateDetKernel { workspace: ws };
            let what = Launch::new(AdjugateDetKernel::NAME, k.config(&shape), k.traffic(&shape));
            on_device(&dev, what, || ());
        }
    }

    #[test]
    fn fermi_cannot_hold_3d_workspace_in_registers() {
        // On C2050 (63 regs/thread max) the 3D register variant exceeds the
        // per-thread register file -> the occupancy calculator rejects it,
        // which is why the base implementation spilled on Fermi.
        let shape = ProblemShape::new(3, 2, 64);
        let k = AdjugateDetKernel { workspace: Workspace::Registers };
        let cfg = k.config(&shape);
        let occ = gpu_sim::occupancy(&GpuSpec::c2050(), &cfg);
        assert_eq!(occ.fraction, 0.0);
        // On K20 it runs fine.
        let occ_k20 = gpu_sim::occupancy(&DeviceCatalog::gpu("k20"), &cfg);
        assert!(occ_k20.fraction > 0.0);
    }

    #[test]
    fn every_isa_clone_matches_the_scalar_reference_bitwise() {
        use crate::isa::bits;
        // Q2 (64 points a zone: full groups at every width) and Q3 (216:
        // a ragged last group at W = 16), at one, two and eight threads.
        for (order, zones) in [(2, 7), (3, 4)] {
            let shape = ProblemShape::new(3, order, zones);
            let n = shape.total_points();
            let jac = crate::point::shocked::state(&shape, 11 + order as u64).jac;
            let mut want_adj = BatchedMats::zeros(3, 3, n);
            let (mut want_det, mut want_hmin) = (vec![0.0; n], vec![0.0; n]);
            crate::point::reference::k1(&jac, &mut want_adj, &mut want_det, &mut want_hmin);
            for isa in Isa::available() {
                for threads in [1, 2, 8] {
                    let mut adj = BatchedMats::from_fn(3, 3, n, |_, _, _| f64::NAN);
                    let (mut det, mut hmin) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                    rayon::Pool::new(threads).install(|| {
                        AdjugateDetKernel::compute_at(
                            isa, &shape, &jac, &mut adj, &mut det, &mut hmin,
                        )
                    });
                    let what = format!("{isa:?} Q{order} {threads} threads");
                    assert_eq!(bits(adj.as_slice()), bits(want_adj.as_slice()), "adj, {what}");
                    assert_eq!(bits(&det), bits(&want_det), "det, {what}");
                    assert_eq!(bits(&hmin), bits(&want_hmin), "hmin, {what}");
                }
            }
        }
    }
}
