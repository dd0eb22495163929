//! Kernel 4 — `kernel_Phi_sigma_hat_z`: assembles the columns of `A_z`
//! from the transformed stress.
//!
//! With `S_{z,k} = σ̂(q̂_k) adj(J_z(q̂_k))^T` (from kernel 6; note
//! `|J| J^{-T} = adj(J)^T`), eq. (5) becomes, for the vector basis function
//! with component `c` and scalar index `m`:
//!
//! ```text
//! (A_z)_{(c,m), k} = α_k (S_{z,k} Ĝ_{m,k})_c
//! ```
//!
//! where `Ĝ_{m,k} = ∇̂ŵ_m(q̂_k)` comes from the constant gradient table.
//! Table 3: num A = zones * points (the `S` matrices), num B = points (the
//! gradient-table blocks), num C = zones * points (the `A_z` columns). The
//! variant/tuning story mirrors kernel 3.
//!
//! # The host body
//!
//! As in kernel 3 the variants only change the *modeled* cost. The math is
//! one zone body: [`AzKernel::compute`] runs it over the whole batch, and a
//! stored force evaluation runs it inside kernel 7's zone loop
//! (`FzKernel::compute_fused`), so the solver never stores the batch. Per
//! point `k` and component `c` one `A_z` column segment is a `1 x d` by
//! `d x nkin` product,
//!
//! ```text
//! A_z[(c, :), k] = α_k (0.0 + S[c,0] Ĝ_0[:, k] + S[c,1] Ĝ_1[:, k] (+ S[c,2] Ĝ_2[:, k]))
//! ```
//!
//! whose vector dimension is the basis index `m` — contiguous both in the
//! FEM tables (`nkin x npts`, column-major) and in the `A_z` column, so no
//! repacked table is needed here. The reduction runs over the `d` axes
//! inside each lane, left to right from a `+0.0` start exactly as the
//! scalar loop did (so `-0.0` products come out as they always have), each
//! product rounded before its sum: no fused multiply-add is asked for,
//! and the `#[target_feature]` clones enable `avx2` / `avx512f` only
//! (see `crate::isa`), so every build of the body yields the same bits.
//!
//! [`reference`](fn@reference) keeps the previous per-entry loop as the oracle the
//! property tests compare against; nothing dispatches to it.

use blast_la::{BatchedMats, DMatrix};
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::shapes::ProblemShape;
use crate::GemmVariant;

/// One zone of kernel 4: the `nvdof x npts` column-major `az_z` from the
/// zone's `npts` blocks of `S` (`D x D`, column-major) in `s_z`;
/// `grads[g]` is the column-major `nkin x npts` table of axis `g`.
#[inline(always)]
fn zone_body<const D: usize>(
    s_z: &[f64],
    grads: &[&[f64]; D],
    alpha: &[f64],
    nkin: usize,
    az_z: &mut [f64],
) {
    let cols = az_z.chunks_exact_mut(D * nkin);
    for (k, ((col, sp), &ak)) in cols.zip(s_z.chunks_exact(D * D)).zip(alpha).enumerate() {
        let gk: [&[f64]; D] = std::array::from_fn(|g| &grads[g][k * nkin..(k + 1) * nkin]);
        // `m` outermost: one load of Ĝ_{m,k} feeds all `D` components.
        for m in 0..nkin {
            let gm: [f64; D] = std::array::from_fn(|g| gk[g][m]);
            for c in 0..D {
                let mut acc = 0.0;
                for g in 0..D {
                    acc += sp[c + g * D] * gm[g];
                }
                col[c * nkin + m] = ak * acc;
            }
        }
    }
}

isa_clones! {
    /// [`zone_body`] as compiled for `isa`.
    fn zone = zone_body(
        s_z: &[f64],
        grads: &[&[f64]; D],
        alpha: &[f64],
        nkin: usize,
        az_z: &mut [f64],
    )
}

/// One zone of kernel 4 as compiled for `isa`: every entry of the
/// `nvdof x npts` column-major `az_z` from the zone's `S` blocks `s_z`. The
/// batch kernel and kernel 7's fused zone loop both call it.
pub(crate) fn zone_into(
    isa: Isa,
    s_z: &[f64],
    grads: &[DMatrix],
    alpha: &[f64],
    nkin: usize,
    az_z: &mut [f64],
) {
    if grads.len() == 2 {
        zone::<2>(isa, s_z, &[grads[0].as_slice(), grads[1].as_slice()], alpha, nkin, az_z);
    } else {
        let g = [grads[0].as_slice(), grads[1].as_slice(), grads[2].as_slice()];
        zone::<3>(isa, s_z, &g, alpha, nkin, az_z);
    }
}

/// The argument checks of kernel 4 (shared with kernel 7's fused loop).
pub(crate) fn check_inputs(
    shape: &ProblemShape,
    s: &BatchedMats,
    grads: &[DMatrix],
    alpha: &[f64],
) {
    let d = shape.dim;
    assert_eq!(s.count(), shape.total_points());
    assert_eq!(s.shape(), (d, d));
    assert_eq!(grads.len(), d);
    for g in grads {
        assert_eq!(g.shape(), (shape.nkin, shape.npts));
    }
    assert_eq!(alpha.len(), shape.npts);
}

/// The per-entry loop [`AzKernel::compute`] replaced, kept as the bitwise
/// oracle for the property tests (same arguments).
pub fn reference(
    shape: &ProblemShape,
    s: &BatchedMats,
    grads: &[DMatrix],
    alpha: &[f64],
    az: &mut BatchedMats,
) {
    let d = shape.dim;
    let nkin = shape.nkin;
    let npts = shape.npts;
    assert_eq!(s.count(), shape.total_points());
    assert_eq!(s.shape(), (d, d));
    assert_eq!(grads.len(), d);
    assert_eq!(alpha.len(), npts);
    assert_eq!(az.count(), shape.zones);
    assert_eq!(az.shape(), (shape.nvdof(), npts));

    let nvdof = d * nkin;
    for z in 0..shape.zones {
        for k in 0..npts {
            let sp = s.mat(z * npts + k);
            let ak = alpha[k];
            for m in 0..nkin {
                // g_vec = Ĝ_{m,k}; y = S g_vec.
                let mut y = [0.0f64; 3];
                for c in 0..d {
                    let mut acc = 0.0;
                    for g in 0..d {
                        acc += sp[c + g * d] * grads[g][(m, k)];
                    }
                    y[c] = acc;
                }
                for c in 0..d {
                    az.mat_mut(z)[(c * nkin + m) + k * nvdof] = ak * y[c];
                }
            }
        }
    }
}

/// Kernel 4: `A_z` column assembly.
#[derive(Clone, Copy, Debug)]
pub struct AzKernel {
    /// Optimization variant (v1 global, v2 shared, v3 tuned multi-`A`).
    pub variant: GemmVariant,
    /// Points packed per thread block (v3 tuning knob).
    pub pts_per_block: u32,
}

impl AzKernel {
    /// Table 2 kernel name.
    pub const NAME: &'static str = "kernel_Phi_sigma_hat_z";

    /// Tuned default.
    pub fn tuned() -> Self {
        Self { variant: GemmVariant::V3, pts_per_block: 8 }
    }

    fn pts_per_block(&self) -> u32 {
        match self.variant {
            GemmVariant::V1 | GemmVariant::V2 => 1,
            GemmVariant::V3 => self.pts_per_block.max(1),
        }
    }

    /// Launch configuration.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let np = self.pts_per_block();
        let grid = (shape.total_points() as u32).div_ceil(np);
        let threads = (np * 64).clamp(64, 512);
        let shared = match self.variant {
            GemmVariant::V1 => 0,
            GemmVariant::V2 | GemmVariant::V3 => {
                // S matrices for the block + one gradient-table chunk.
                np * (shape.dim * shape.dim * 8) as u32
                    + (shape.nkin * shape.dim * 8) as u32
            }
        };
        LaunchConfig::new(grid, threads, shared, 36)
    }

    /// Declared traffic.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let n = shape.total_points() as f64;
        let d = shape.dim as f64;
        let nkin = shape.nkin as f64;
        let flops = n * nkin * 2.0 * d * d;
        let s_read = n * d * d * 8.0;
        let az_write = n * d * nkin * 8.0;
        let table = (shape.nkin * shape.dim * shape.npts * 8) as f64;
        let blocks = (shape.total_points() as f64 / self.pts_per_block() as f64).ceil();
        match self.variant {
            // v1: gradient table re-read from global memory by every block.
            GemmVariant::V1 => Traffic {
                flops,
                dram_bytes: s_read + az_write + table * (1.0 + 0.4 * (blocks / shape.npts as f64)),
                l2_bytes: table * 0.6 * (blocks / shape.npts as f64),
                ..Default::default()
            },
            GemmVariant::V2 | GemmVariant::V3 => Traffic {
                flops,
                dram_bytes: s_read + az_write + table,
                l2_bytes: table * (blocks / shape.npts as f64),
                shared_bytes: flops * 8.0 * 0.5,
                ..Default::default()
            },
        }
    }

    /// Pure computation.
    ///
    /// `s` holds `S_{z,k}` per point, `grads[g]` the `nkin x npts` gradient
    /// tables, `alpha` the quadrature weights. Output `az` is a batch of
    /// `nvdof x npts` matrices, one per zone, with component-major row
    /// indexing `i = c * nkin + m`. Every entry of `az` is stored, whatever
    /// it held before.
    pub fn compute(
        shape: &ProblemShape,
        s: &BatchedMats,
        grads: &[DMatrix],
        alpha: &[f64],
        az: &mut BatchedMats,
    ) {
        Self::compute_at(Isa::detect(), shape, s, grads, alpha, az);
    }

    /// [`AzKernel::compute`] through the zone body compiled for `isa`.
    fn compute_at(
        isa: Isa,
        shape: &ProblemShape,
        s: &BatchedMats,
        grads: &[DMatrix],
        alpha: &[f64],
        az: &mut BatchedMats,
    ) {
        check_inputs(shape, s, grads, alpha);
        assert_eq!(az.count(), shape.zones);
        assert_eq!(az.shape(), (shape.nvdof(), shape.npts));

        let zone_stride = shape.npts * shape.dim * shape.dim;
        az.par_mats_mut().for_each(|(z, az_z)| {
            let s_z = &s.as_slice()[z * zone_stride..(z + 1) * zone_stride];
            zone_into(isa, s_z, grads, alpha, shape.nkin, az_z);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::signed_zero_mix as mix;
    use crate::launch::{testing::on_device, Launch};
    use gpu_sim::{DeviceCatalog, GpuDevice};

    fn setup(dim: usize) -> (ProblemShape, BatchedMats, Vec<DMatrix>, Vec<f64>) {
        let shape = ProblemShape::new(dim, 1, 3);
        let s = BatchedMats::from_fn(dim, dim, shape.total_points(), |z, i, j| {
            ((z + i * 2 + j) as f64 * 0.31).cos()
        });
        let grads: Vec<DMatrix> = (0..dim)
            .map(|g| {
                DMatrix::from_fn(shape.nkin, shape.npts, |m, k| {
                    ((g * 13 + m * 5 + k) as f64 * 0.17).sin()
                })
            })
            .collect();
        let alpha: Vec<f64> = (0..shape.npts).map(|k| 0.1 + 0.01 * k as f64).collect();
        (shape, s, grads, alpha)
    }

    #[test]
    fn matches_direct_formula_2d() {
        let (shape, s, grads, alpha) = setup(2);
        let mut az = BatchedMats::zeros(shape.nvdof(), shape.npts, shape.zones);
        AzKernel::compute(&shape, &s, &grads, &alpha, &mut az);
        let d = 2;
        for z in 0..shape.zones {
            for k in 0..shape.npts {
                let sp = s.mat(z * shape.npts + k);
                for m in 0..shape.nkin {
                    for c in 0..d {
                        let mut expect = 0.0;
                        for g in 0..d {
                            expect += sp[c + g * d] * grads[g][(m, k)];
                        }
                        expect *= alpha[k];
                        let got = az.get(z, c * shape.nkin + m, k);
                        assert!((got - expect).abs() < 1e-13, "z={z} k={k} m={m} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn identity_stress_projects_gradients() {
        // S = I: A_z entries are alpha_k * Ĝ components.
        let (shape, _, grads, alpha) = setup(3);
        let s = BatchedMats::from_fn(3, 3, shape.total_points(), |_, i, j| {
            if i == j { 1.0 } else { 0.0 }
        });
        let mut az = BatchedMats::zeros(shape.nvdof(), shape.npts, shape.zones);
        AzKernel::compute(&shape, &s, &grads, &alpha, &mut az);
        for k in 0..shape.npts {
            for m in 0..shape.nkin {
                for c in 0..3 {
                    let got = az.get(0, c * shape.nkin + m, k);
                    let expect = alpha[k] * grads[c][(m, k)];
                    assert!((got - expect).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn gemm_variants_launch_on_the_k20_model_and_are_ordered() {
        let (shape, ..) = setup(2);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut times = Vec::new();
        for k in [
            AzKernel { variant: GemmVariant::V1, pts_per_block: 1 },
            AzKernel { variant: GemmVariant::V2, pts_per_block: 1 },
            AzKernel::tuned(),
        ] {
            // A variant is a config and a traffic figure around the one
            // static `compute`: the device must accept it.
            let what = Launch::new(AzKernel::NAME, k.config(&shape), k.traffic(&shape));
            on_device(&dev, what, || ());
            // Model at realistic scale for the ordering check.
            let big = ProblemShape::new(3, 2, 4096);
            times.push(dev.model_kernel(&k.config(&big), &k.traffic(&big)).time_s);
        }
        assert!(times[1] < times[0], "v2 {} !< v1 {}", times[1], times[0]);
        assert!(times[2] <= times[1], "v3 {} !<= v2 {}", times[2], times[1]);
    }

    #[test]
    fn every_isa_clone_matches_the_scalar_body_and_the_reference_bitwise() {
        let levels = Isa::available();
        if levels.len() < 3 {
            eprintln!("note: host lacks avx2 and/or avx512f; comparing {levels:?} only");
        }
        // Exact +0.0 / -0.0 entries: `-0.0` products must still come out of
        // the `+0.0`-started chain as before.
        for (dim, order) in [(3, 3), (3, 4), (2, 2)] {
            let shape = ProblemShape::new(dim, order, 3);
            let (nkin, npts, total) = (shape.nkin, shape.npts, shape.total_points());
            let s = BatchedMats::from_data(dim, dim, total, mix(dim * dim * total, 23));
            let grads: Vec<DMatrix> = (0..dim)
                .map(|g| DMatrix::from_col_major(nkin, npts, mix(nkin * npts, 31 + g as u64)))
                .collect();
            let alpha = mix(npts, 41);
            let mut expect = BatchedMats::zeros(shape.nvdof(), npts, shape.zones);
            reference(&shape, &s, &grads, &alpha, &mut expect);
            for &isa in &levels {
                // NaN-filled: the body must store every entry.
                let nan = vec![f64::NAN; expect.as_slice().len()];
                let mut got = BatchedMats::from_data(shape.nvdof(), npts, shape.zones, nan);
                AzKernel::compute_at(isa, &shape, &s, &grads, &alpha, &mut got);
                for (p, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} Q{order}-{dim}D entry {p}");
                }
            }
        }
    }

    #[test]
    fn az_shape_matches_paper() {
        // Q2-Q1 3D: A_z is 81 x 64 per zone.
        let shape = ProblemShape::new(3, 2, 10);
        let az = BatchedMats::zeros(shape.nvdof(), shape.npts, shape.zones);
        assert_eq!(az.shape(), (81, 64));
    }
}
