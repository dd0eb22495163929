//! The weighted Gram product of a tabulated basis: `G = B·diag(w)·Bᵀ`, the
//! local block of a mass matrix (`B` the `n × npts` table of basis values at
//! the quadrature points, `w` the zone's per-point `α_k ρ|J|`).
//!
//! # Bits
//!
//! Entry `G[j·n + i]` is the chain of the scalar triple loop this replaced:
//! start at `+0.0`, then for `k` ascending `acc + (w_k·b_jk)·b_ik`, each
//! product rounded before the next operation and never fused. The loop
//! skipped `k` where `w_k == 0` and `j` where `b_jk == 0`; the tile adds
//! those terms, and for finite inputs that changes no bit: each is `±0.0`,
//! an accumulator that starts at `+0.0` never becomes `-0.0` (a sum is
//! `-0.0` only when both addends are), and `x + ±0.0 == x` for every other
//! `x`. No lane holds a partial sum of another entry, so every clone of the
//! body — scalar, AVX2, AVX-512 — gives the same bits.

use crate::dense::DMatrix;
use crate::simd::fma_clones;

/// Rows and columns of `G` per register tile: 8 accumulators of 8 lanes,
/// 8 zmm at SIMD level 2 and 16 ymm at level 1 (16 rows spilled the AVX2
/// tile).
const W: usize = 8;

/// A basis table packed for [`WeightedGram::compute`]: per block of 8
/// basis functions one zero-padded slice per point, so a tile walks its
/// panels front to back with no index arithmetic.
#[derive(Clone, Debug)]
pub struct WeightedGram {
    n: usize,
    npts: usize,
    /// `[block][k]`: entries `W·block..` of table column `k`.
    panels: Vec<[f64; W]>,
}

impl WeightedGram {
    /// Packs the `n × npts` table `b` (`b[(i, k)] = ŵ_i(q̂_k)`).
    pub fn new(b: &DMatrix) -> Self {
        let (n, npts) = b.shape();
        let mut panels = vec![[0.0; W]; n.div_ceil(W) * npts];
        for (at, panel) in panels.iter_mut().enumerate() {
            let (block, k) = (at / npts, at % npts);
            for (l, x) in panel.iter_mut().enumerate().take(n - block * W) {
                *x = b[(block * W + l, k)];
            }
        }
        Self { n, npts, panels }
    }

    /// `g[j·n + i] = Σ_k (w_k·b_jk)·b_ik` for every `i, j < n` (column-major
    /// `n × n`, fully overwritten); see the module docs for the chain.
    pub fn compute(&self, w: &[f64], g: &mut [f64]) {
        self.compute_at(crate::simd::level(), w, g);
    }

    /// [`Self::compute`] through the clone of `level` (at most
    /// `simd::level()`).
    fn compute_at(&self, level: u8, w: &[f64], g: &mut [f64]) {
        assert_eq!(w.len(), self.npts, "one weight per point");
        assert_eq!(g.len(), self.n * self.n, "an n x n output");
        gram(level, self.n, self.npts, &self.panels, w, g);
    }
}

/// A register tile: `[ii][jj]` is entry `(i, j)` of its block pair.
type Tile = [[f64; W]; W];

/// One block pair's reduction over every point, `k` ascending: lane `jj`
/// of row `ii` adds `(w_k·b_jk)·b_ik`. The loop order is what keeps the tile
/// in registers: LLVM vectorizes the `jj` loop, whose lanes are one row of
/// `acc`, and unrolls `ii` into one accumulator per row. With `ii` outside
/// `jj` it vectorized across rows instead and kept the tile on the stack
/// (gathers and scatters every point, slower than the scalar loop).
#[inline(always)]
fn tile(rpanel: &[[f64; W]], cpanel: &[[f64; W]], w: &[f64]) -> Tile {
    let mut acc: Tile = [[0.0; W]; W];
    for ((bi, bj), &wk) in rpanel.iter().zip(cpanel).zip(w) {
        for jj in 0..W {
            let s = wk * bj[jj];
            for ii in 0..W {
                acc[ii][jj] += s * bi[ii];
            }
        }
    }
    acc
}

/// `g` one [`tile`] at a time: every block pair of 8 rows by 8 columns,
/// held in registers over the whole reduction, then written out through
/// constant-trip loops with a skip for the padding.
#[inline(always)]
fn gram_body(n: usize, npts: usize, panels: &[[f64; W]], w: &[f64], g: &mut [f64]) {
    for (jb, cpanel) in panels.chunks_exact(npts).enumerate() {
        for (ib, rpanel) in panels.chunks_exact(npts).enumerate() {
            let acc = tile(rpanel, cpanel, w);
            for (ii, a) in acc.iter().enumerate() {
                let i = ib * W + ii;
                for (jj, &x) in a.iter().enumerate() {
                    let j = jb * W + jj;
                    if i < n && j < n {
                        g[j * n + i] = x;
                    }
                }
            }
        }
    }
}

fma_clones! {
    /// [`gram_body`] as compiled for `level`.
    fn gram(level) = gram_body(
        n: usize,
        npts: usize,
        panels: &[[f64; W]],
        w: &[f64],
        g: &mut [f64],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar triple loop of the mass assemblies, zero skips included.
    fn scalar_chain(b: &DMatrix, w: &[f64]) -> Vec<f64> {
        let (n, npts) = b.shape();
        let mut g = vec![0.0; n * n];
        for k in 0..npts {
            let s = w[k];
            if s == 0.0 {
                continue;
            }
            for j in 0..n {
                let bj = b[(j, k)];
                if bj == 0.0 {
                    continue;
                }
                let sj = s * bj;
                for i in 0..n {
                    g[j * n + i] += sj * b[(i, k)];
                }
            }
        }
        g
    }

    /// Deterministic values in (-1, 1) with a sprinkling of `+0.0` and
    /// `-0.0`.
    fn signed_zero_mix(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
                }
            })
            .collect()
    }

    #[test]
    fn weighted_gram_every_clone_matches_setup_oracle() {
        let top = crate::simd::level();
        if top < 2 {
            eprintln!("note: host SIMD level {top}; comparing clones 0..={top} only");
        }
        // Kinematic and thermodynamic block sizes of Q1-Q4 in 2D and 3D, at
        // their point counts, and a ragged count of points.
        let cases = [(4, 4), (8, 8), (9, 16), (16, 36), (25, 64), (27, 64), (64, 216), (125, 512), (27, 7)];
        for (case, &(n, npts)) in cases.iter().enumerate() {
            let b = DMatrix::from_col_major(n, npts, signed_zero_mix(n * npts, 3 + case as u64));
            let mut w = signed_zero_mix(npts, 40 + case as u64);
            w[npts / 2] = 0.0; // a zero weight besides the mix's ±0
            let want = scalar_chain(&b, &w);
            let gram = WeightedGram::new(&b);
            for level in 0..=top {
                let mut got = vec![f64::NAN; n * n];
                gram.compute_at(level, &w, &mut got);
                for (at, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n {n} npts {npts} level {level} entry {at}");
                }
            }
        }
    }
}
