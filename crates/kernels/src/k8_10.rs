//! Kernels 8 and 10 — batched DGEMV.
//!
//! Kernel 8 (`kernel_loop_zones_dv_dt`) computes the momentum right-hand
//! side `-F · 1` and kernel 10 (`kernel_dgemvt`) the energy right-hand side
//! `F^T · v`; "each thread block does a matrix-vector multiplication
//! (DGEMV) and computes part of a big vector. All thread blocks assemble
//! the result vector. The two kernels can be expressed as batched DGEMV."
//!
//! CUBLAS has **no** batched DGEMV; the recommended workaround — one
//! `cublasDgemv` per zone in its own stream — collapses under per-call
//! launch overhead (Table 4: 0.2 vs 18 GFLOP/s; see
//! [`crate::cublas_like::StreamedDgemv`]).
//!
//! These kernels also perform the local-to-global assembly: kernel 8
//! scatter-adds zone contributions into the global kinematic RHS (shared H1
//! DOFs receive several zones' contributions — on the real GPU via atomics,
//! here via a deterministic serial scatter after the parallel per-zone
//! products); kernel 10's L2 outputs are zone-local so they assemble
//! trivially.

use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::shapes::ProblemShape;

/// Kernel 8: `rhs_v = -Σ_z scatter(F_z · 1)` (momentum RHS).
#[derive(Clone, Copy, Debug, Default)]
pub struct MomentumRhsKernel;

impl MomentumRhsKernel {
    /// Table 2 kernel name.
    pub const NAME: &'static str = "kernel_loop_zones_dv_dt";

    /// Launch configuration: one block per zone.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(shape.zones as u32, (shape.nvdof() as u32).clamp(64, 512), 0, 24)
    }

    /// Declared traffic: read every `F_z`, write the local results, plus
    /// the scatter traffic into the global vector.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let z = shape.zones as f64;
        let nvdof = shape.nvdof() as f64;
        let nth = shape.nthermo as f64;
        Traffic {
            flops: z * 2.0 * nvdof * nth,
            dram_bytes: z * (nvdof * nth * 8.0 + nvdof * 8.0 * 2.0),
            shared_bytes: z * nvdof * 8.0,
            ..Default::default()
        }
    }

    /// Pure computation. `fz` is the corner-force batch; `zone_dofs` maps
    /// zone-local scalar kinematic DOFs to global ones (`nkin` per zone);
    /// the output `rhs` is component-major over `num_h1_dofs` and is
    /// **accumulated** (callers zero it first).
    pub fn compute(
        shape: &ProblemShape,
        fz: &BatchedMats,
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        rhs: &mut [f64],
    ) {
        let mut local = Vec::new();
        Self::compute_with(shape, fz, zone_dofs, num_h1_dofs, rhs, &mut local);
    }

    /// Like [`MomentumRhsKernel::compute`], but stages the per-zone row sums
    /// in the caller-provided `local` buffer (grown once, reused across
    /// timesteps) so the hot path stays allocation-free.
    pub fn compute_with(
        shape: &ProblemShape,
        fz: &BatchedMats,
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        rhs: &mut [f64],
        local: &mut Vec<f64>,
    ) {
        let d = shape.dim;
        let nkin = shape.nkin;
        let nvdof = shape.nvdof();
        let nth = shape.nthermo;
        assert_eq!(fz.shape(), (nvdof, nth));
        assert_eq!(fz.count(), shape.zones);
        assert_eq!(zone_dofs.len(), shape.zones * nkin);
        assert_eq!(rhs.len(), d * num_h1_dofs);

        // Parallel per-zone row sums (the DGEMV against the ones vector)...
        local.truncate(shape.zones * nvdof);
        local.iter_mut().for_each(|x| *x = 0.0);
        local.resize(shape.zones * nvdof, 0.0);
        local
            .par_chunks_exact_mut(nvdof)
            .enumerate()
            .for_each(|(z, out)| {
                let m = fz.mat(z);
                for j in 0..nth {
                    let col = &m[j * nvdof..(j + 1) * nvdof];
                    for (o, &v) in out.iter_mut().zip(col) {
                        *o += v;
                    }
                }
            });
        // ...then a deterministic scatter-add into shared global DOFs.
        for z in 0..shape.zones {
            let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
            let loc = &local[z * nvdof..(z + 1) * nvdof];
            for c in 0..d {
                for (m, &dof) in dofs.iter().enumerate() {
                    rhs[c * num_h1_dofs + dof] -= loc[c * nkin + m];
                }
            }
        }
    }
}

/// Kernel 10: `rhs_e = F^T · v` (energy RHS; zone-local L2 output).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyRhsKernel;

impl EnergyRhsKernel {
    /// Table 2 kernel name.
    pub const NAME: &'static str = "kernel_dgemvt";

    /// Launch configuration: one block per zone.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(shape.zones as u32, (shape.nvdof() as u32).clamp(64, 512), 0, 24)
    }

    /// Declared traffic.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let z = shape.zones as f64;
        let nvdof = shape.nvdof() as f64;
        let nth = shape.nthermo as f64;
        Traffic {
            flops: z * 2.0 * nvdof * nth,
            dram_bytes: z * (nvdof * nth * 8.0 + nvdof * 8.0 + nth * 8.0),
            shared_bytes: z * nvdof * 8.0,
            ..Default::default()
        }
    }

    /// Pure computation: for each zone, gathers the local velocity from the
    /// global component-major vector `v` and computes `F_z^T v_z` into the
    /// zone's slice of the L2-global `rhs_e`.
    pub fn compute(
        shape: &ProblemShape,
        fz: &BatchedMats,
        v: &[f64],
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        rhs_e: &mut [f64],
    ) {
        let d = shape.dim;
        let nkin = shape.nkin;
        let nvdof = shape.nvdof();
        let nth = shape.nthermo;
        assert_eq!(fz.shape(), (nvdof, nth));
        assert_eq!(fz.count(), shape.zones);
        assert_eq!(v.len(), d * num_h1_dofs);
        assert_eq!(rhs_e.len(), shape.zones * nth);

        rhs_e
            .par_chunks_exact_mut(nth)
            .enumerate()
            .for_each(|(z, out)| {
                let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
                let m = fz.mat(z);
                // v_z gathered on the fly (component-major local layout).
                for j in 0..nth {
                    let col = &m[j * nvdof..(j + 1) * nvdof];
                    let mut acc = 0.0;
                    for c in 0..d {
                        for (mm, &dof) in dofs.iter().enumerate() {
                            acc += col[c * nkin + mm] * v[c * num_h1_dofs + dof];
                        }
                    }
                    out[j] = acc;
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuDevice, GpuSpec};

    /// Two Q1 zones sharing a face (same synthetic layout as k3 tests).
    fn setup() -> (ProblemShape, Vec<usize>, usize) {
        let shape = ProblemShape::new(2, 1, 2);
        let zone_dofs = vec![0, 1, 3, 4, 1, 2, 4, 5];
        (shape, zone_dofs, 6)
    }

    #[test]
    fn momentum_rhs_row_sums_and_scatter() {
        let (shape, zone_dofs, ndofs) = setup();
        let nvdof = shape.nvdof();
        let fz = BatchedMats::from_fn(nvdof, shape.nthermo, 2, |z, i, j| {
            (z * 100 + i * 10 + j) as f64
        });
        let mut rhs = vec![0.0; 2 * ndofs];
        MomentumRhsKernel::compute(&shape, &fz, &zone_dofs, ndofs, &mut rhs);
        // Hand-check: zone 0, local kinematic dof 0, comp 0 = row 0 sum.
        let row0: f64 = (0..shape.nthermo).map(|j| fz.get(0, 0, j)).sum();
        // DOF 0 only belongs to zone 0.
        assert!((rhs[0] + row0).abs() < 1e-13);
        // Shared DOF 1: local 1 of zone 0 + local 0 of zone 1.
        let r01: f64 = (0..shape.nthermo).map(|j| fz.get(0, 1, j)).sum();
        let r10: f64 = (0..shape.nthermo).map(|j| fz.get(1, 0, j)).sum();
        assert!((rhs[1] + r01 + r10).abs() < 1e-12);
    }

    #[test]
    fn energy_rhs_matches_manual_gemv_t() {
        let (shape, zone_dofs, ndofs) = setup();
        let nvdof = shape.nvdof();
        let fz = BatchedMats::from_fn(nvdof, shape.nthermo, 2, |z, i, j| {
            ((z * 13 + i * 3 + j) as f64 * 0.21).sin()
        });
        let v: Vec<f64> = (0..2 * ndofs).map(|i| (i as f64 * 0.4).cos()).collect();
        let mut rhs_e = vec![0.0; 2 * shape.nthermo];
        EnergyRhsKernel::compute(&shape, &fz, &v, &zone_dofs, ndofs, &mut rhs_e);
        for z in 0..2 {
            let dofs = &zone_dofs[z * shape.nkin..(z + 1) * shape.nkin];
            for j in 0..shape.nthermo {
                let mut expect = 0.0;
                for c in 0..2 {
                    for (m, &dof) in dofs.iter().enumerate() {
                        expect += fz.get(z, c * shape.nkin + m, j) * v[c * ndofs + dof];
                    }
                }
                assert!((rhs_e[z * shape.nthermo + j] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn duality_energy_vs_momentum() {
        // The discrete energy-conservation identity: 1^T (F^T v) summed over
        // zones equals -v^T rhs_v where rhs_v = -scatter(F 1). This is the
        // core of Table 6's machine-precision conservation.
        let (shape, zone_dofs, ndofs) = setup();
        let nvdof = shape.nvdof();
        let fz = BatchedMats::from_fn(nvdof, shape.nthermo, 2, |z, i, j| {
            ((z * 17 + i * 5 + j * 2) as f64 * 0.13).sin()
        });
        let v: Vec<f64> = (0..2 * ndofs).map(|i| (i as f64 * 0.7).sin()).collect();

        let mut rhs_v = vec![0.0; 2 * ndofs];
        MomentumRhsKernel::compute(&shape, &fz, &zone_dofs, ndofs, &mut rhs_v);
        let mut rhs_e = vec![0.0; 2 * shape.nthermo];
        EnergyRhsKernel::compute(&shape, &fz, &v, &zone_dofs, ndofs, &mut rhs_e);

        let vt_rhs: f64 = v.iter().zip(&rhs_v).map(|(a, b)| a * b).sum();
        let ones_e: f64 = rhs_e.iter().sum();
        assert!((vt_rhs + ones_e).abs() < 1e-12, "{vt_rhs} vs {ones_e}");
    }

    #[test]
    fn kernel8_hits_table4_performance_class() {
        // Table 4 setup: 4096 batches of 81x8 on one C2050. The custom
        // kernel reaches ~18 GFLOP/s = ~50% of the 35.5 theoretical peak.
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(GpuSpec::c2050());
        let k = MomentumRhsKernel;
        let stats = dev.model_kernel(&k.config(&shape), &k.traffic(&shape));
        assert!(
            stats.gflops > 10.0 && stats.gflops < 36.0,
            "kernel 8 at {} GFLOP/s",
            stats.gflops
        );
    }

    #[test]
    fn rhs_accumulates_not_overwrites() {
        let (shape, zone_dofs, ndofs) = setup();
        let fz = BatchedMats::from_fn(shape.nvdof(), shape.nthermo, 2, |_, _, _| 1.0);
        let mut rhs = vec![5.0; 2 * ndofs];
        MomentumRhsKernel::compute(&shape, &fz, &zone_dofs, ndofs, &mut rhs);
        // Prior contents remain (accumulation semantics).
        assert!(rhs.iter().all(|&x| x != 0.0));
        assert!((rhs[0] - (5.0 - shape.nthermo as f64)).abs() < 1e-13);
    }
}
