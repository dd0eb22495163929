//! Kernels 5 and 6 — `kernel_NN_dgemmBatched` / `kernel_NT_dgemmBatched`:
//! auxiliary batched DGEMM where **all matrices are `DIM x DIM`**.
//!
//! "These kernels multiply Jacobian matrices `J_z`, gradients of basis
//! functions and stress tensor values together." In the corner-force
//! pipeline, the NN form builds the spatial velocity gradient
//! `∇v = ∇̂v̂ · adj(J)/|J|` and the NT form builds `S = σ̂ · adj(J)^T`
//! (since `|J| J^{-T} = adj(J)^T`).
//!
//! Optimization: "each thread block performed multiple matrix operations.
//! This avoided an unaligned memory access problem in the case of one
//! thread block reading one matrix size of 4 or 9" — the matrices-per-block
//! count is the autotuned parameter (98.3% occupancy at N = 32), and small
//! N pays an uncoalesced-access replay on its DRAM traffic.
//!
//! # The host body
//!
//! [`BatchedDimGemm::compute`] runs the batch over a fixed grid of
//! 256-product chunks (`CHUNK`), each chunk in groups of `W` products, one
//! SIMD lane per product (the `lanes` form of `isa_clones!`: `W` = 4 / 8 /
//! 16 at baseline / `avx2` / `avx512f`) — the host form of the paper's
//! several matrices per thread block. A group is transposed into
//! `[[[f64; W]; D]; D]` lanes (`op(B)` resolved while loading, so no
//! transpose mode reaches the arithmetic), every lane runs the scalar chain
//! of [`reference`](fn@reference) — `0.0 + a_0 b_0 + a_1 b_1 (+ a_2 b_2)`
//! over ascending `p`, then `s * acc` with `s = 1.0 / det` formed per
//! product in the lane group (kernel 5's `1/|J|`), also when `det` is
//! `None` (`s = 1.0`) — and the group is transposed back; a ragged last group repeats
//! its last product in the spare lanes and stores only its own. No lane
//! reads another and nothing asks for a fused multiply-add, so every level
//! gives every product the bits of the reference.

use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::shapes::ProblemShape;

/// Products per chunk of the host body's fixed grid: the pool's unit of
/// work, independent of the thread count (16 lane groups at `avx512f`).
const CHUNK: usize = 256;

/// One chunk of kernel 5 / 6: `c` (`count` blocks of `D x D`) from the
/// same-length chunks of `a` and `b` and `count` determinants (or none),
/// `W` products at a time.
#[inline(always)]
fn chunk_body<const D: usize, const W: usize>(
    a: &[f64],
    b: &[f64],
    det: Option<&[f64]>,
    nt: bool,
    c: &mut [f64],
) {
    let d2 = D * D;
    let count = c.len() / d2;
    for m0 in (0..count).step_by(W) {
        let n = W.min(count - m0);
        // al[p][row][l] = A[row, p] and bl[col][p][l] = op(B)[p, col] of
        // product m0 + l; the spare lanes of a ragged group repeat its last.
        let mut al = [[[0.0f64; W]; D]; D];
        let mut bl = [[[0.0f64; W]; D]; D];
        let mut s = [1.0f64; W];
        if n == W {
            let (ga, gb) = (&a[m0 * d2..][..W * d2], &b[m0 * d2..][..W * d2]);
            transpose_in::<D, W>(ga, gb, nt, &mut al, &mut bl);
            if let Some(dt) = det {
                for (sl, &dl) in s.iter_mut().zip(&dt[m0..m0 + W]) {
                    *sl = 1.0 / dl;
                }
            }
        } else {
            let mut ga = [[[0.0f64; D]; D]; W];
            let mut gb = [[[0.0f64; D]; D]; W];
            for l in 0..W {
                let m = (m0 + l).min(count - 1);
                for col in 0..D {
                    ga[l][col].copy_from_slice(&a[m * d2 + col * D..][..D]);
                    gb[l][col].copy_from_slice(&b[m * d2 + col * D..][..D]);
                }
                if let Some(dt) = det {
                    s[l] = 1.0 / dt[m];
                }
            }
            transpose_in::<D, W>(
                ga.as_flattened().as_flattened(),
                gb.as_flattened().as_flattened(),
                nt,
                &mut al,
                &mut bl,
            );
        }
        let mut cl = [[[0.0f64; W]; D]; D];
        for col in 0..D {
            for row in 0..D {
                let mut acc = [0.0f64; W];
                for p in 0..D {
                    for l in 0..W {
                        acc[l] += al[p][row][l] * bl[col][p][l];
                    }
                }
                for l in 0..W {
                    cl[col][row][l] = s[l] * acc[l];
                }
            }
        }
        for (l, cm) in c[m0 * d2..(m0 + n) * d2].chunks_exact_mut(d2).enumerate() {
            for col in 0..D {
                for row in 0..D {
                    cm[row + col * D] = cl[col][row][l];
                }
            }
        }
    }
}

/// Loads `W` column-major `D x D` products of `ga` / `gb` into lanes:
/// `al[p][row][l] = A_l[row, p]`, `bl[col][p][l] = op(B_l)[p, col]`.
#[inline(always)]
fn transpose_in<const D: usize, const W: usize>(
    ga: &[f64],
    gb: &[f64],
    nt: bool,
    al: &mut [[[f64; W]; D]; D],
    bl: &mut [[[f64; W]; D]; D],
) {
    let d2 = D * D;
    let (ga, gb) = (&ga[..W * d2], &gb[..W * d2]);
    for l in 0..W {
        for x in 0..D {
            for y in 0..D {
                al[x][y][l] = ga[l * d2 + y + x * D];
                bl[x][y][l] = if nt { gb[l * d2 + x + y * D] } else { gb[l * d2 + y + x * D] };
            }
        }
    }
}

isa_clones! {
    /// [`chunk_body`] as compiled for `isa`.
    fn chunk = lanes chunk_body(
        a: &[f64],
        b: &[f64],
        det: Option<&[f64]>,
        nt: bool,
        c: &mut [f64],
    )
}

/// The per-matrix loop [`BatchedDimGemm::compute`] replaced, kept as the
/// bitwise oracle of its tests and of `host_kernels`' `point_physics`
/// rows: `C_i = (1 / det_i) * A_i op(B_i)`, one product at a time.
pub fn reference(
    transpose: Transpose,
    a: &BatchedMats,
    b: &BatchedMats,
    det: Option<&[f64]>,
    c: &mut BatchedMats,
) {
    let (d, _) = a.shape();
    let sa = a.stride();
    for i in 0..c.count() {
        let ai = &a.as_slice()[i * sa..(i + 1) * sa];
        let bi = &b.as_slice()[i * sa..(i + 1) * sa];
        let s = det.map_or(1.0, |d| 1.0 / d[i]);
        let ci = &mut c.as_mut_slice()[i * sa..(i + 1) * sa];
        for col in 0..d {
            for row in 0..d {
                let mut acc = 0.0;
                for p in 0..d {
                    let bval = match transpose {
                        Transpose::NN => bi[p + col * d],
                        Transpose::NT => bi[col + p * d],
                    };
                    acc += ai[row + p * d] * bval;
                }
                ci[row + col * d] = s * acc;
            }
        }
    }
}

/// Transpose mode of the second operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// `C_i = A_i B_i` (kernel 5).
    NN,
    /// `C_i = A_i B_i^T` (kernel 6).
    NT,
}

/// Kernels 5/6: `DIM x DIM` batched DGEMM with an optional per-element
/// divisor (`C_i = (1 / det_i) * A_i op(B_i)` — kernel 5's `1/|J|` is formed
/// per product in the chunk loop and rides along for free).
#[derive(Clone, Copy, Debug)]
pub struct BatchedDimGemm {
    /// NN (kernel 5) or NT (kernel 6).
    pub transpose: Transpose,
    /// Matrices processed per thread block (autotuned; paper found 32).
    pub mats_per_block: u32,
}

impl BatchedDimGemm {
    /// Kernel 5 (NN) with the paper's tuned batch factor.
    pub fn nn_tuned() -> Self {
        Self { transpose: Transpose::NN, mats_per_block: 32 }
    }

    /// Kernel 6 (NT) with the paper's tuned batch factor.
    pub fn nt_tuned() -> Self {
        Self { transpose: Transpose::NT, mats_per_block: 32 }
    }

    /// Table 2 kernel name.
    pub fn name(&self) -> &'static str {
        match self.transpose {
            Transpose::NN => "kernel_NN_dgemmBatched",
            Transpose::NT => "kernel_NT_dgemmBatched",
        }
    }

    /// Uncoalesced-access replay factor: one `DIM x DIM` matrix per block
    /// loads 32-128 B out of each 128 B transaction; packing N >= 8
    /// matrices restores full-width coalesced loads.
    fn replay(&self) -> f64 {
        let n = self.mats_per_block.max(1) as f64;
        if n >= 8.0 {
            1.0
        } else {
            1.0 + 3.0 * (8.0 - n) / 7.0
        }
    }

    /// Launch configuration for a batch of `count` matrices of size `dim`.
    pub fn config(&self, dim: usize, count: usize) -> LaunchConfig {
        let n = self.mats_per_block.max(1);
        let grid = (count as u32).div_ceil(n);
        // Reading/writing: threads organized 1D over the packed data;
        // multiplication: 2D `dim x dim` per matrix.
        let threads = (n * (dim * dim) as u32).clamp(32, 1024);
        let shared = n * (3 * dim * dim * 8) as u32;
        LaunchConfig::new(grid, threads, shared, 28)
    }

    /// Declared traffic for a batch of `count` matrices of size `dim`.
    pub fn traffic(&self, dim: usize, count: usize) -> Traffic {
        let d = dim as f64;
        let n = count as f64;
        let flops = n * 2.0 * d * d * d;
        let useful = n * 3.0 * d * d * 8.0;
        Traffic {
            flops,
            dram_bytes: useful * self.replay(),
            shared_bytes: useful,
            ..Default::default()
        }
    }

    /// Pure computation: `C_i = (1 / det_i) * A_i op(B_i)`, the reciprocal
    /// rounded once per product; `det` may be `None` (all ones) or one
    /// divisor per matrix.
    pub fn compute(
        &self,
        a: &BatchedMats,
        b: &BatchedMats,
        det: Option<&[f64]>,
        c: &mut BatchedMats,
    ) {
        let (d, d2) = a.shape();
        assert_eq!(d, d2, "kernels 5/6 take square DIM x DIM matrices");
        assert!(d == 2 || d == 3, "kernels 5/6 are 2D or 3D");
        assert_eq!(b.shape(), (d, d));
        assert_eq!(c.shape(), (d, d));
        assert!(a.count() == b.count() && b.count() == c.count(), "batch count mismatch");
        if let Some(dt) = det {
            assert_eq!(dt.len(), a.count());
        }
        self.compute_at(Isa::detect(), a, b, det, c);
    }

    /// [`BatchedDimGemm::compute`] through the chunk body compiled for
    /// `isa`.
    fn compute_at(
        &self,
        isa: Isa,
        a: &BatchedMats,
        b: &BatchedMats,
        det: Option<&[f64]>,
        c: &mut BatchedMats,
    ) {
        let d = a.shape().0;
        let (sa, nt) = (a.stride(), self.transpose == Transpose::NT);
        let (a, b) = (a.as_slice(), b.as_slice());
        c.as_mut_slice().par_chunks_mut(CHUNK * sa).enumerate().for_each(|(j, cj)| {
            let mats = j * CHUNK..j * CHUNK + cj.len() / sa;
            let (aj, bj) = (&a[mats.start * sa..mats.end * sa], &b[mats.start * sa..mats.end * sa]);
            let dj = det.map(|dt| &dt[mats]);
            if d == 2 {
                chunk::<2>(isa, aj, bj, dj, nt, cj);
            } else {
                chunk::<3>(isa, aj, bj, dj, nt, cj);
            }
        });
    }

    /// Convenience: shape-level traffic for the corner-force pipeline
    /// (one product per quadrature point).
    pub fn traffic_for(&self, shape: &ProblemShape) -> Traffic {
        self.traffic(shape.dim, shape.total_points())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceCatalog, GpuDevice};
    use blast_la::batched_gemm_nn;
    

    fn batch(d: usize, n: usize, seed: f64) -> BatchedMats {
        BatchedMats::from_fn(d, d, n, |z, i, j| ((z * 7 + i * 3 + j) as f64 * seed).sin())
    }

    #[test]
    fn nn_matches_blast_la_reference() {
        let a = batch(3, 20, 0.37);
        let b = batch(3, 20, 0.81);
        let mut c = BatchedMats::zeros(3, 3, 20);
        BatchedDimGemm::nn_tuned().compute(&a, &b, None, &mut c);
        let mut expect = BatchedMats::zeros(3, 3, 20);
        batched_gemm_nn(1.0, &a, &b, 0.0, &mut expect);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = batch(2, 15, 0.41);
        let b = batch(2, 15, 0.67);
        let bt = BatchedMats::from_fn(2, 2, 15, |z, i, j| b.get(z, j, i));
        let mut c_nt = BatchedMats::zeros(2, 2, 15);
        let mut c_nn = BatchedMats::zeros(2, 2, 15);
        BatchedDimGemm::nt_tuned().compute(&a, &b, None, &mut c_nt);
        BatchedDimGemm::nn_tuned().compute(&a, &bt, None, &mut c_nn);
        assert_eq!(c_nt, c_nn);
    }

    #[test]
    fn per_element_scale_applied() {
        let a = batch(2, 4, 0.3);
        let b = batch(2, 4, 0.6);
        let det = [1.0, 0.5, -2.0, f64::INFINITY];
        let mut c1 = BatchedMats::zeros(2, 2, 4);
        let mut c2 = BatchedMats::zeros(2, 2, 4);
        let k = BatchedDimGemm::nn_tuned();
        k.compute(&a, &b, None, &mut c1);
        k.compute(&a, &b, Some(&det), &mut c2);
        for z in 0..4 {
            for e in 0..4 {
                assert!((c2.mat(z)[e] - c1.mat(z)[e] / det[z]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn every_isa_clone_matches_the_reference_bitwise() {
        use crate::isa::{bits, signed_zero_mix};
        // Two whole chunks and a ragged third whose last lane group is
        // ragged at every width (37 = 2 x 16 + 5 = 4 x 8 + 5 = 9 x 4 + 1).
        let count = 2 * CHUNK + 37;
        for d in [2, 3] {
            let mats =
                |seed| BatchedMats::from_data(d, d, count, signed_zero_mix(d * d * count, seed));
            let (a, b) = (mats(3), mats(5));
            let det = signed_zero_mix(count, 7);
            for (k, det) in [
                (BatchedDimGemm::nn_tuned(), Some(&det[..])),
                (BatchedDimGemm::nn_tuned(), None),
                (BatchedDimGemm::nt_tuned(), Some(&det[..])),
                (BatchedDimGemm::nt_tuned(), None),
            ] {
                let mut want = BatchedMats::zeros(d, d, count);
                reference(k.transpose, &a, &b, det, &mut want);
                for isa in Isa::available() {
                    for threads in [1, 8] {
                        // NaN-filled: the body must store every entry.
                        let nan = vec![f64::NAN; d * d * count];
                        let mut got = BatchedMats::from_data(d, d, count, nan);
                        rayon::Pool::new(threads)
                            .install(|| k.compute_at(isa, &a, &b, det, &mut got));
                        let what = format!(
                            "{} {d}D det {} {isa:?} {threads} threads",
                            k.name(),
                            det.is_some()
                        );
                        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_batch_factor_pays_replay() {
        let k1 = BatchedDimGemm { transpose: Transpose::NN, mats_per_block: 1 };
        let k32 = BatchedDimGemm { transpose: Transpose::NN, mats_per_block: 32 };
        let t1 = k1.traffic(3, 100_000);
        let t32 = k32.traffic(3, 100_000);
        assert!(t1.dram_bytes > 3.0 * t32.dram_bytes);
        assert_eq!(t1.flops, t32.flops);
    }

    #[test]
    fn tuned_kernel_reaches_bandwidth_bound_fraction() {
        // Fig. 5: the tuned kernel reaches ~60% of the theoretical
        // (bandwidth-bound) peak of batched DIM x DIM DGEMM on K20.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let k = BatchedDimGemm::nn_tuned();
        let count = 4096 * 64; // Q2-Q1 3D: zones * points
        let stats = dev.model_kernel(&k.config(3, count), &k.traffic(3, count));
        let theoretical = dev.spec().bandwidth_bound_gflops(2.0 * 3.0 / (3.0 * 8.0));
        let frac = stats.gflops / theoretical;
        assert!(frac > 0.45 && frac <= 1.0, "fraction {frac} ({} GF/s)", stats.gflops);
    }

    #[test]
    fn occupancy_at_tuned_config_is_high() {
        // "We find 32 delivered the best performance with an occupancy
        // 98.3%."
        let k = BatchedDimGemm::nn_tuned();
        let occ = gpu_sim::occupancy(&DeviceCatalog::gpu("k20"), &k.config(3, 100_000));
        assert!(occ.fraction > 0.85, "occupancy {}", occ.fraction);
    }

    #[test]
    fn scale_vector_length_checked() {
        let a = batch(2, 4, 0.3);
        let b = batch(2, 4, 0.6);
        let mut c = BatchedMats::zeros(2, 2, 4);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchedDimGemm::nn_tuned().compute(&a, &b, Some(&[1.0, 2.0]), &mut c);
        }));
        assert!(res.is_err());
    }
}
