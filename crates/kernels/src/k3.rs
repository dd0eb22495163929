//! Kernel 3 — `kernel_PzVz_Phi_F`: custom batched DGEMM evaluating
//! `∇̂v̂(q̂_k)` and `J_z(q̂_k)`.
//!
//! Per zone `z` and point `k` it computes the `DIM x DIM` product
//! `C_{z,k} = Coef_z * Ĝ_k`, where `Coef_z` (`DIM x nkin`) gathers the
//! zone's H1 vector coefficients (positions for `J`, velocities for `∇̂v̂`)
//! and `Ĝ_k` (`nkin x DIM`) is the k-th block of the constant gradient
//! table. Table 3: num A = zones, num B = points, num C = zones * points —
//! "the number of matrices B is much smaller compared to that of A", which
//! drives the optimization story:
//!
//! - **v1** reads `B` through the texture cache ("we hope they fit the
//!   cache"), `A` through shared memory;
//! - **v2** stages `B` in shared memory too ("reading B via cached texture
//!   memory is still not as fast as shared memory");
//! - **v3** additionally packs several `A` matrices per thread block, which
//!   raises occupancy *and* amortizes each `B` load across more zones; the
//!   pack count is autotuned (Fig. 5: 60% of the theoretical batched-DGEMM
//!   peak on K20).
//!
//! # The host body
//!
//! The variants above only differ in their *modeled* cost. The math itself
//! runs on the host in [`CoefGradKernel::compute`], on every stored force
//! evaluation of every execution mode, so it is written as the batched
//! small GEMM the paper describes and not as a loop over points: per zone
//! `C (d² x npts) = Coef (d² x nkin, gathered once) · Ĝ (nkin x npts)`,
//! accumulated over a 64-point stack tile (`TILE`) and then transposed into
//! the `d x d`-per-point output.
//!
//! **Why a point-major table.** The reduction runs over the basis index
//! `i`; the vector dimension has to be the one it does *not* run over, the
//! point index `k`, or lanes would have to be summed across and the
//! rounding order would change. The FEM tables are `nkin x npts`
//! column-major (`i` contiguous), so the kernel walks a
//! [`PointMajorGrads`] copy, `[g][i][k]` with `k` contiguous.
//!
//! **Why the bits do not move.** Every output entry is the same chain as
//! in the scalar loop: start at `+0.0`, then `acc = acc + coef_i * ĝ_ik`
//! for `i` ascending, the product rounded before the sum. No lane ever
//! holds a partial sum of another entry, nothing here asks for a fused
//! multiply-add, and the `#[target_feature]` clones enable `avx2` /
//! `avx512f` only — never the fused-multiply-add feature — so
//! scalar, AVX2 and AVX-512 builds of the body agree to the bit and the
//! level is picked from CPU detection alone (see `crate::isa`).
//!
//! [`reference`] keeps the previous point-by-point loop as the oracle the
//! property tests compare against (the role `stream::reference` and
//! `dense::naive` play in `blast-la`); nothing dispatches to it.

use blast_la::{BatchedMats, DMatrix};
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::shapes::ProblemShape;
use crate::GemmVariant;

/// Points per accumulation tile of the host body: `d²` rows of this many
/// doubles live on the stack (4.5 KiB in 3D) and stay in L1 across the
/// whole reduction. Q3-3D has 216 points and Q4-3D 512, so both the tile
/// loop and its ragged tail are exercised.
const TILE: usize = 64;

/// Coefficients gathered per chunk of the basis index. One chunk covers
/// Q4-3D (`nkin = 125`); higher orders walk several chunks in ascending
/// `i`, so there is no order cap and no heap in the zone body.
const COEF_CHUNK: usize = 128;

/// Point-major copy of the gradient tables: entry `(g, i, k)` — the
/// derivative of basis function `i` along reference axis `g` at point `k`
/// — at `(g * nkin + i) * npts + k`, so a fixed `(g, i)` row is contiguous
/// in `k`. Empty by default; grow-only: [`PointMajorGrads::refill`] reuses
/// the buffer.
#[derive(Clone, Debug, Default)]
pub struct PointMajorGrads {
    dim: usize,
    nkin: usize,
    npts: usize,
    data: Vec<f64>,
}

impl PointMajorGrads {
    /// Builds the point-major copy of `grads` (`grads[g]` is `nkin x npts`).
    pub fn from_tables(grads: &[DMatrix]) -> Self {
        let mut t = Self::default();
        t.refill(grads);
        t
    }

    /// Overwrites `self` with the point-major copy of `grads`, allocating
    /// only when the tables outgrow the buffer.
    pub fn refill(&mut self, grads: &[DMatrix]) {
        let (nkin, npts) = grads.first().map_or((0, 0), |g| g.shape());
        self.dim = grads.len();
        self.nkin = nkin;
        self.npts = npts;
        self.data.resize(grads.len() * nkin * npts, 0.0);
        if npts == 0 {
            return;
        }
        for (g, rows) in grads.iter().zip(self.data.chunks_exact_mut(nkin * npts)) {
            assert_eq!(g.shape(), (nkin, npts), "gradient tables must share one shape");
            for (i, row) in rows.chunks_exact_mut(npts).enumerate() {
                for (k, w) in row.iter_mut().enumerate() {
                    *w = g[(i, k)];
                }
            }
        }
    }

    /// `(dim, nkin, npts)` of the tables this was filled from.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.dim, self.nkin, self.npts)
    }
}

/// One zone of kernel 3: `cz` (`npts` blocks of `D x D`, column-major)
/// from the zone's `dofs` of the component-major field `u`.
///
/// Adding `coef * 0.0` where the old loop skipped a zero table entry
/// changes no bit for finite inputs: every accumulator starts at `+0.0`
/// and can never become `-0.0` (a sum of two floats is `-0.0` only when
/// both are), and `x + ±0.0 == x` for any `x` that is not `-0.0`.
/// Non-finite fields end in `HydroError::NonFinite` on either path.
#[inline(always)]
fn zone_body<const D: usize>(
    u: &[f64],
    num_h1_dofs: usize,
    dofs: &[usize],
    table: &[f64],
    npts: usize,
    cz: &mut [f64],
) {
    let nkin = dofs.len();
    let mut coef = [[0.0f64; COEF_CHUNK]; D];
    // First `i` of the chunk `coef` holds: a zone that fits one chunk
    // gathers once, not once per tile.
    let mut loaded = usize::MAX;
    for k0 in (0..npts).step_by(TILE) {
        let tw = TILE.min(npts - k0);
        // acc[g][comp][k] is output entry (comp, g) of point k0 + k.
        let mut acc = [[[0.0f64; TILE]; D]; D];
        for i0 in (0..nkin).step_by(COEF_CHUNK) {
            let iw = COEF_CHUNK.min(nkin - i0);
            if loaded != i0 {
                for (comp, row) in coef.iter_mut().enumerate() {
                    let uc = &u[comp * num_h1_dofs..(comp + 1) * num_h1_dofs];
                    for (c, &dof) in row[..iw].iter_mut().zip(&dofs[i0..i0 + iw]) {
                        *c = uc[dof];
                    }
                }
                loaded = i0;
            }
            for ii in 0..iw {
                for (g, acc_g) in acc.iter_mut().enumerate() {
                    let row = &table[(g * nkin + i0 + ii) * npts + k0..][..tw];
                    for (comp, acc_gc) in acc_g.iter_mut().enumerate() {
                        let c = coef[comp][ii];
                        for (a, &w) in acc_gc[..tw].iter_mut().zip(row) {
                            *a += c * w;
                        }
                    }
                }
            }
        }
        for (k, out) in cz[k0 * D * D..(k0 + tw) * D * D].chunks_exact_mut(D * D).enumerate() {
            for g in 0..D {
                for comp in 0..D {
                    out[comp + g * D] = acc[g][comp][k];
                }
            }
        }
    }
}

isa_clones! {
    /// [`zone_body`] as compiled for `isa`.
    fn zone = zone_body(
        u: &[f64],
        num_h1_dofs: usize,
        dofs: &[usize],
        table: &[f64],
        npts: usize,
        cz: &mut [f64],
    )
}

/// The point-by-point loop [`CoefGradKernel::compute`] replaced, kept as
/// the bitwise oracle for the property tests: same arguments except that
/// it reads the FEM tables directly (`grads[g]` is `nkin x npts`).
pub fn reference(
    shape: &ProblemShape,
    u: &[f64],
    num_h1_dofs: usize,
    zone_dofs: &[usize],
    grads: &[DMatrix],
    c: &mut BatchedMats,
) {
    let d = shape.dim;
    let nkin = shape.nkin;
    let npts = shape.npts;
    assert_eq!(u.len(), d * num_h1_dofs);
    assert_eq!(zone_dofs.len(), shape.zones * nkin);
    assert_eq!(grads.len(), d);
    for g in grads {
        assert_eq!(g.shape(), (nkin, npts));
    }
    assert_eq!(c.count(), shape.total_points());
    assert_eq!(c.shape(), (d, d));

    let stride = d * d;
    for (z, cz) in c.as_mut_slice().chunks_exact_mut(npts * stride).enumerate() {
        let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
        for k in 0..npts {
            let out = &mut cz[k * stride..(k + 1) * stride];
            out.iter_mut().for_each(|v| *v = 0.0);
            for (i, &dof) in dofs.iter().enumerate() {
                for g in 0..d {
                    let dw = grads[g][(i, k)];
                    if dw != 0.0 {
                        for comp in 0..d {
                            out[comp + g * d] += u[comp * num_h1_dofs + dof] * dw;
                        }
                    }
                }
            }
        }
    }
}

/// Kernel 3: coefficient-gradient batched DGEMM.
#[derive(Clone, Copy, Debug)]
pub struct CoefGradKernel {
    /// Optimization variant.
    pub variant: GemmVariant,
    /// Zones (A matrices) packed per thread block — the Fig. 5 tuning knob.
    /// Only meaningful for `V3`; v1/v2 process one zone per block.
    pub zones_per_block: u32,
}

impl CoefGradKernel {
    /// Kernel name as in Table 2.
    pub const NAME: &'static str = "kernel_PzVz_Phi_F";

    /// Tuned default (the autotuner refines this per order).
    pub fn tuned() -> Self {
        Self { variant: GemmVariant::V3, zones_per_block: 8 }
    }

    fn zones_per_block(&self) -> u32 {
        match self.variant {
            GemmVariant::V1 | GemmVariant::V2 => 1,
            GemmVariant::V3 => self.zones_per_block.max(1),
        }
    }

    /// Bytes of the shared gradient table (`B`: nkin x DIM per point).
    fn table_bytes(shape: &ProblemShape) -> f64 {
        (shape.nkin * shape.dim * shape.npts * 8) as f64
    }

    /// Launch configuration for `shape`.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let na = self.zones_per_block();
        let grid = (shape.zones as u32).div_ceil(na);
        // One warp-friendly thread per (zone-in-block, point) tile.
        let threads = (na * 64).clamp(64, 512);
        let coef_bytes = na * (shape.dim * shape.nkin * 8) as u32;
        let shared = match self.variant {
            // v1: only A staged in shared.
            GemmVariant::V1 => coef_bytes,
            // v2/v3: A plus a double-buffered chunk of B.
            GemmVariant::V2 | GemmVariant::V3 => {
                coef_bytes + 2 * (shape.nkin * shape.dim * 8) as u32
            }
        };
        LaunchConfig::new(grid, threads, shared, 40)
    }

    /// Declared traffic for one invocation over the whole subdomain.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let z = shape.zones as f64;
        let d = shape.dim as f64;
        let flops = z * shape.npts as f64 * 2.0 * d * d * shape.nkin as f64;
        let coef = z * (d * shape.nkin as f64 * 8.0 + shape.nkin as f64 * 4.0);
        let table = Self::table_bytes(shape);
        let out = z * shape.npts as f64 * d * d * 8.0;
        let blocks = (shape.zones as f64 / self.zones_per_block() as f64).ceil();
        match self.variant {
            // v1: the texture cache misses on about half of each block's B
            // re-reads at these working-set sizes, and misses fall through
            // to DRAM.
            GemmVariant::V1 => Traffic {
                flops,
                dram_bytes: coef + out + table * (1.0 + 0.5 * (blocks - 1.0)),
                l2_bytes: table * 0.5 * (blocks - 1.0).max(0.0),
                shared_bytes: coef,
                ..Default::default()
            },
            // v2/v3: B loaded once per block (first touch from DRAM, later
            // blocks from L2); operands stream through shared memory with
            // register-level reuse inside the tile.
            GemmVariant::V2 | GemmVariant::V3 => Traffic {
                flops,
                dram_bytes: coef + out + table,
                l2_bytes: table * (blocks - 1.0).max(0.0),
                shared_bytes: flops * 8.0 * 0.125,
                ..Default::default()
            },
        }
    }

    /// Pure computation: gathers `Coef_z` from the global component-major
    /// vector `u` (via `zone_dofs`, `nkin` indices per zone) and multiplies
    /// against the point-major gradient table (see the module docs).
    ///
    /// Output: `c[(i, g)]` of batch member `z * npts + k` is
    /// `∂ u_i / ∂ x̂_g` at point `k` of zone `z`. Every entry of `c` is
    /// stored, whatever it held before.
    pub fn compute(
        shape: &ProblemShape,
        u: &[f64],
        num_h1_dofs: usize,
        zone_dofs: &[usize],
        grads: &PointMajorGrads,
        c: &mut BatchedMats,
    ) {
        Self::compute_at(Isa::detect(), shape, u, num_h1_dofs, zone_dofs, grads, c);
    }

    /// [`CoefGradKernel::compute`] through the zone body compiled for `isa`.
    fn compute_at(
        isa: Isa,
        shape: &ProblemShape,
        u: &[f64],
        num_h1_dofs: usize,
        zone_dofs: &[usize],
        grads: &PointMajorGrads,
        c: &mut BatchedMats,
    ) {
        let d = shape.dim;
        let nkin = shape.nkin;
        let npts = shape.npts;
        assert_eq!(u.len(), d * num_h1_dofs);
        assert_eq!(zone_dofs.len(), shape.zones * nkin);
        assert_eq!(grads.shape(), (d, nkin, npts));
        assert_eq!(c.count(), shape.total_points());
        assert_eq!(c.shape(), (d, d));

        let table = grads.data.as_slice();
        c.as_mut_slice()
            .par_chunks_exact_mut(npts * d * d)
            .enumerate()
            .for_each(|(z, cz)| {
                let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
                if d == 2 {
                    zone::<2>(isa, u, num_h1_dofs, dofs, table, npts, cz);
                } else {
                    zone::<3>(isa, u, num_h1_dofs, dofs, table, npts, cz);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::signed_zero_mix;
    use crate::launch::{testing::on_device, Launch};
    use gpu_sim::{DeviceCatalog, GpuDevice};

    /// A tiny synthetic "space": 2 zones in 1 row, Q1, with a shared face.
    fn synthetic_2d() -> (ProblemShape, Vec<usize>, Vec<DMatrix>, usize) {
        let shape = ProblemShape::new(2, 1, 2);
        // Global lattice 3 x 2 = 6 dofs; zone 0: {0,1,3,4}, zone 1: {1,2,4,5}.
        let zone_dofs = vec![0, 1, 3, 4, 1, 2, 4, 5];
        // Q1 gradient tables at the 2x2 Gauss points of [0,1]^2 — use exact
        // bilinear derivatives: w00 = (1-x)(1-y) etc. with dof order
        // (axis0 fastest): [w00, w10, w01, w11].
        let g = 0.5 - 1.0 / (2.0 * 3.0_f64.sqrt());
        let pts = [[g, g], [1.0 - g, g], [g, 1.0 - g], [1.0 - g, 1.0 - g]];
        let mut gx = DMatrix::zeros(4, 4);
        let mut gy = DMatrix::zeros(4, 4);
        for (k, p) in pts.iter().enumerate() {
            let (x, y) = (p[0], p[1]);
            gx[(0, k)] = -(1.0 - y);
            gx[(1, k)] = 1.0 - y;
            gx[(2, k)] = -y;
            gx[(3, k)] = y;
            gy[(0, k)] = -(1.0 - x);
            gy[(1, k)] = -x;
            gy[(2, k)] = 1.0 - x;
            gy[(3, k)] = x;
        }
        (shape, zone_dofs, vec![gx, gy], 6)
    }

    #[test]
    fn linear_field_gradient_exact() {
        let (shape, zone_dofs, grads, ndofs) = synthetic_2d();
        // Node coordinates of the 3x2 lattice on [0,2]x[0,1].
        let xs = [0.0, 1.0, 2.0, 0.0, 1.0, 2.0];
        let ys = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        // u = (3x + y, -2y): reference gradient of component i w.r.t. ref
        // axis g equals d u_i / d ref = J^T-weighted; on zone [0,1]^2 the
        // map is identity in x (zone 0), so ref grad = spatial grad.
        let mut u = vec![0.0; 2 * ndofs];
        for i in 0..ndofs {
            u[i] = 3.0 * xs[i] + ys[i];
            u[ndofs + i] = -2.0 * ys[i];
        }
        let mut c = BatchedMats::zeros(2, 2, shape.total_points());
        CoefGradKernel::compute(&shape, &u, ndofs, &zone_dofs, &PointMajorGrads::from_tables(&grads), &mut c);
        // Zone 0 occupies [0,1]x[0,1] with unit mapping: ∇̂u = [[3,1],[0,-2]].
        for k in 0..shape.npts {
            let m = c.mat(k);
            assert!((m[0] - 3.0).abs() < 1e-12); // d u_0/d x̂
            assert!((m[1] - 0.0).abs() < 1e-12); // d u_1/d x̂
            assert!((m[2] - 1.0).abs() < 1e-12); // d u_0/d ŷ
            assert!((m[3] + 2.0).abs() < 1e-12); // d u_1/d ŷ
        }
    }

    #[test]
    fn position_field_gives_jacobian() {
        let (shape, zone_dofs, grads, ndofs) = synthetic_2d();
        let xs = [0.0, 1.0, 2.0, 0.0, 1.0, 2.0];
        let ys = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut x = vec![0.0; 2 * ndofs];
        x[..6].copy_from_slice(&xs);
        x[6..].copy_from_slice(&ys);
        let mut c = BatchedMats::zeros(2, 2, shape.total_points());
        CoefGradKernel::compute(&shape, &x, ndofs, &zone_dofs, &PointMajorGrads::from_tables(&grads), &mut c);
        // Both zones are unit squares: J = I.
        for p in 0..shape.total_points() {
            let m = c.mat(p);
            assert!((m[0] - 1.0).abs() < 1e-12);
            assert!((m[3] - 1.0).abs() < 1e-12);
            assert!(m[1].abs() < 1e-12 && m[2].abs() < 1e-12);
        }
    }

    #[test]
    fn every_gemm_variant_launches_on_the_k20_model() {
        // A variant is a config and a traffic figure around the one static
        // `compute`: what can differ is whether the device accepts it.
        let (shape, ..) = synthetic_2d();
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        for k in [
            CoefGradKernel { variant: GemmVariant::V1, zones_per_block: 1 },
            CoefGradKernel { variant: GemmVariant::V2, zones_per_block: 1 },
            CoefGradKernel { variant: GemmVariant::V3, zones_per_block: 4 },
        ] {
            let what = Launch::new(CoefGradKernel::NAME, k.config(&shape), k.traffic(&shape));
            on_device(&dev, what, || ());
        }
    }

    #[test]
    fn every_isa_clone_matches_the_scalar_body_and_the_reference_bitwise() {
        let levels = Isa::available();
        if levels.len() < 3 {
            eprintln!("note: host lacks avx2 and/or avx512f; comparing {levels:?} only");
        }
        // Q3-3D: 216 points = three full tiles and a ragged tail of 24;
        // Q4-3D: 512 points, eight tiles; Q2-2D: a single short tile.
        for (dim, order) in [(3, 3), (3, 4), (2, 2)] {
            let shape = ProblemShape::new(dim, order, 3);
            let (nkin, npts) = (shape.nkin, shape.npts);
            let ndofs = shape.zones * nkin - 5;
            let zone_dofs: Vec<usize> = (0..shape.zones * nkin).map(|j| (j * 7) % ndofs).collect();
            let u = signed_zero_mix(dim * ndofs, 11);
            let grads: Vec<DMatrix> = (0..dim)
                .map(|g| {
                    DMatrix::from_col_major(nkin, npts, signed_zero_mix(nkin * npts, 3 + g as u64))
                })
                .collect();
            let table = PointMajorGrads::from_tables(&grads);
            let mut expect = BatchedMats::zeros(dim, dim, shape.total_points());
            reference(&shape, &u, ndofs, &zone_dofs, &grads, &mut expect);
            for &isa in &levels {
                // NaN-filled: the body must store every entry.
                let len = shape.total_points() * dim * dim;
                let mut got =
                    BatchedMats::from_data(dim, dim, shape.total_points(), vec![f64::NAN; len]);
                CoefGradKernel::compute_at(isa, &shape, &u, ndofs, &zone_dofs, &table, &mut got);
                for (p, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} Q{order}-{dim}D entry {p}");
                }
            }
        }
    }

    #[test]
    fn coefficient_chunks_beyond_one_panel_keep_the_order() {
        // Q5-3D has nkin = 216 > COEF_CHUNK: two chunks, regathered per tile.
        let shape = ProblemShape::new(3, 5, 1);
        assert!(shape.nkin > COEF_CHUNK);
        let ndofs = shape.nkin;
        let zone_dofs: Vec<usize> = (0..ndofs).rev().collect();
        let u = signed_zero_mix(3 * ndofs, 5);
        let grads: Vec<DMatrix> = (0..3)
            .map(|g| {
                DMatrix::from_col_major(
                    shape.nkin,
                    shape.npts,
                    signed_zero_mix(shape.nkin * shape.npts, 17 + g),
                )
            })
            .collect();
        let mut expect = BatchedMats::zeros(3, 3, shape.total_points());
        reference(&shape, &u, ndofs, &zone_dofs, &grads, &mut expect);
        let mut got = BatchedMats::zeros(3, 3, shape.total_points());
        let table = PointMajorGrads::from_tables(&grads);
        CoefGradKernel::compute(&shape, &u, ndofs, &zone_dofs, &table, &mut got);
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn v3_faster_than_v2_faster_than_v1() {
        // The Fig. 7 ordering on a realistically sized 3D Q2-Q1 subdomain.
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let time = |k: CoefGradKernel| {
            let cfg = k.config(&shape);
            let traffic = k.traffic(&shape);
            dev.model_kernel(&cfg, &traffic).time_s
        };
        let t1 = time(CoefGradKernel { variant: GemmVariant::V1, zones_per_block: 1 });
        let t2 = time(CoefGradKernel { variant: GemmVariant::V2, zones_per_block: 1 });
        let t3 = time(CoefGradKernel::tuned());
        assert!(t2 < t1, "v2 {t2} !< v1 {t1}");
        assert!(t3 < t2, "v3 {t3} !< v2 {t2}");
    }

    #[test]
    fn tuning_the_pack_count_pays_off() {
        // Packing several zones per block amortizes the B loads (Fig. 5).
        // The tuner's search space spans feasible pack counts; the best one
        // must clearly beat the naive single-zone block.
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut times = Vec::new();
        for na in [1u32, 2, 4, 8, 16, 32] {
            let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: na };
            let cfg = k.config(&shape);
            let occ = gpu_sim::occupancy(dev.spec(), &cfg);
            if occ.fraction == 0.0 {
                continue; // pruned by the tuner ("artificial values ... eliminated")
            }
            times.push((na, dev.model_kernel(&cfg, &k.traffic(&shape)).time_s));
        }
        assert!(times.len() >= 3, "most pack counts must be feasible");
        let best = times.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        let naive = times.iter().find(|&&(na, _)| na == 1).unwrap();
        assert!(best.0 > 1, "best pack count {} should exceed 1", best.0);
        assert!(
            naive.1 / best.1 > 1.5,
            "tuning gain {} too small",
            naive.1 / best.1
        );
    }
}
