//! Block-diagonal matrices (the thermodynamic mass matrix `M_E`).
//!
//! `M_E` is the density-weighted Gram matrix of the *discontinuous*
//! thermodynamic basis, so it decouples zone by zone into dense blocks. BLAST
//! inverts every block once at initialization ([`BlockDiag::inverse`]) and
//! then applies `M_E^{-1}` each timestep as a sparse operation — the paper's
//! kernel 11 (a CUSPARSE SpMV on the block-diagonal inverse).
//!
//! The blocks live in one batch: one allocation for `M_E`, one for
//! `M_E^{-1}`, block `z` at `z·n²` column-major.
//!
//! # Bits
//!
//! The inverse is one batched kernel, every block independent, and each
//! block is [`LuFactors::inverse`](crate::LuFactors::inverse) of
//! [`LuFactors::factor`](crate::LuFactors::factor) bit for bit (the
//! two stay as its oracle). The factorization is `dgetrf` with the same
//! pivot (the first strict maximum of `|a_ik|`, `i ≥ k`), the same full-row
//! swap and the same multipliers `l_i = a_ik / a_kk`; the update
//! `a_ij − l_i·u_kj` runs column by column (step `k` reads only the pivot
//! row, which it does not write, so the order changes no operand) and is a
//! select on `l_i ≠ 0`, so a skipped entry keeps its bits (`−0.0 − (−0.0)`
//! would be `+0.0`). The `n` unit right-hand sides are permuted as the
//! pivots were found and solved together, right-hand-side index innermost:
//! forward with the unit `L`, then back with `U` and the division by
//! `u_ii`. Each entry is the ascending chain `solve_in_place` runs on its
//! unit vector, every product rounded before its subtraction and never
//! fused, so every clone — scalar, AVX2, AVX-512 — and every pool width
//! gives the same bits.

use rayon::prelude::*;
use rayon::BlockConsumer;

use crate::csr::{CsrBuilder, CsrMatrix};
use crate::simd::fma_clones;

/// A square block-diagonal matrix with uniform block size.
#[derive(Clone, Debug)]
pub struct BlockDiag {
    block_size: usize,
    /// Every block, zone by zone, each `block_size²` entries column-major.
    batch: Vec<f64>,
}

impl BlockDiag {
    /// Takes `batch` as its blocks: block `z` is `batch[z·n²..(z+1)·n²]`,
    /// column-major, `n = block_size`. Panics unless the batch is a
    /// non-zero number of whole blocks.
    pub fn from_batch(block_size: usize, batch: Vec<f64>) -> Self {
        let len = block_size * block_size;
        assert!(len > 0 && !batch.is_empty(), "block-diagonal matrix needs >= 1 block");
        assert!(batch.len().is_multiple_of(len), "inconsistent block shape");
        Self { block_size, batch }
    }

    /// Block dimension.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.batch.len() / (self.block_size * self.block_size)
    }

    /// Total matrix dimension.
    pub fn dim(&self) -> usize {
        self.batch.len() / self.block_size
    }

    /// Block `z`, column-major: entry `(i, j)` at `j·n + i`.
    pub fn block(&self, z: usize) -> &[f64] {
        let len = self.block_size * self.block_size;
        &self.batch[z * len..(z + 1) * len]
    }

    fn blocks(&self) -> std::slice::ChunksExact<'_, f64> {
        self.batch.chunks_exact(self.block_size * self.block_size)
    }

    /// `y = A x`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "apply x length mismatch");
        assert_eq!(y.len(), self.dim(), "apply y length mismatch");
        let bs = self.block_size;
        for ((block, xs), ys) in self.blocks().zip(x.chunks_exact(bs)).zip(y.chunks_exact_mut(bs)) {
            crate::dense::gemv_n_raw(bs, bs, 1.0, block, xs, 0.0, ys);
        }
    }

    /// Inverts every block in one batched kernel (see the module docs), the
    /// blocks over the pool's fixed grid. Panics if any block is singular —
    /// a singular `M_E` block means a degenerate zone, which is fatal for
    /// the simulation anyway.
    pub fn inverse(&self) -> BlockDiag {
        self.inverse_at(crate::simd::level())
    }

    /// [`Self::inverse`] through the clone of `level` (at most
    /// `simd::level()`).
    fn inverse_at(&self, level: u8) -> BlockDiag {
        let n = self.block_size;
        let group = lock_step(n) * n * n;
        let mut batch = vec![0.0; self.batch.len()];
        let groups = batch.par_chunks_mut(group).zip(self.batch.par_chunks(group));
        groups.drive_blocks(Inverter { n, level });
        BlockDiag { block_size: n, batch }
    }

    /// Exports as CSR (this is what the paper feeds to the CUSPARSE SpMV of
    /// kernel 11: the block-diagonal inverse stored as a general sparse
    /// matrix).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.dim();
        let bs = self.block_size;
        let mut builder = CsrBuilder::new(n, n);
        for (z, block) in self.blocks().enumerate() {
            let base = z * bs;
            for i in 0..bs {
                for j in 0..bs {
                    builder.add(base + i, base + j, block[j * bs + i]);
                }
            }
        }
        builder.build()
    }

    /// Maximum symmetry defect across blocks.
    pub fn asymmetry(&self) -> f64 {
        let bs = self.block_size;
        let mut worst: f64 = 0.0;
        for b in self.blocks() {
            for i in 0..bs {
                for j in (i + 1)..bs {
                    worst = worst.max((b[j * bs + i] - b[i * bs + j]).abs());
                }
            }
        }
        worst
    }
}

/// Right-hand sides per vector: a row of the solve's scratch is padded to a
/// multiple of 8 at the runtime size, so every clone runs whole vectors.
const W: usize = 8;

/// Blocks of size `n` inverted in lock step, step by step: a 4² or 8²
/// block's factorization and solves are chains of dependent steps, and
/// interleaving 4 independent blocks hides their latency. One block at 27,
/// whose steps are wide enough, and at the runtime sizes.
fn lock_step(n: usize) -> usize {
    if matches!(n, 4 | 8) { 4 } else { 1 }
}

/// One grid block of groups of [`lock_step`] zones, `(inverse blocks,
/// blocks)` pairs: the scratch is made once per grid block (on the stack
/// at the compile-time sizes), then every group is inverted through the
/// clone of `level`.
struct Inverter {
    n: usize,
    level: u8,
}

impl<'a> BlockConsumer<(&'a mut [f64], &'a [f64]), ()> for Inverter {
    fn consume<I: Iterator<Item = (&'a mut [f64], &'a [f64])>>(&self, groups: I) {
        match self.n {
            // The thermodynamic blocks the benchmark's workloads invert: 2D
            // Q2 (4), 3D Q2 (8) and Q3 (27). Every other size, Q1 and Q4
            // among them, runs at the runtime size.
            4 => fixed::<4, 4, 4>(self.level, groups),
            8 => fixed::<8, 8, 4>(self.level, groups),
            27 => fixed::<27, 32, 1>(self.level, groups),
            n => {
                let p = n.next_multiple_of(W);
                let (mut lu, mut lv, mut y) = (vec![0.0; n * p], vec![0.0; p], vec![0.0; n * p]);
                for (out, a) in groups {
                    let ok = invert::<0, 0>(self.level, n, a, out, &mut lu, &mut lv, &mut y);
                    assert!(ok, "singular thermodynamic mass block");
                }
            }
        }
    }
}

/// [`Inverter::consume`] at the compile-time size `N`, rows padded to `P`,
/// groups of `B` blocks. Not inlined: each size's stack frame is its own,
/// so a small block does not probe the 14 KiB the `N = 27` scratch takes.
#[inline(never)]
fn fixed<'a, const N: usize, const P: usize, const B: usize>(
    level: u8,
    groups: impl Iterator<Item = (&'a mut [f64], &'a [f64])>,
) {
    debug_assert_eq!(lock_step(N), B);
    let (mut lu, mut lv, mut y) = ([[[0.0; P]; N]; B], [[0.0; P]; B], [[[0.0; P]; N]; B]);
    for (out, a) in groups {
        let (lu, lv, y) = (lu.as_flattened_mut(), lv.as_flattened_mut(), y.as_flattened_mut());
        let ok = invert::<N, P>(level, N, a, out, lu.as_flattened_mut(), lv, y.as_flattened_mut());
        assert!(ok, "singular thermodynamic mass block");
    }
}

/// Inverts the `n × n` column-major blocks of `a` into `out` (see the module
/// docs for the chain), each through its `lu` (the packed factors, `n`
/// columns of stride `p`), `lv` (`p`, the step's multipliers) and `y` (`n`
/// rows of `p` right-hand sides), `p ≥ n`; `false` on a zero pivot. The
/// blocks run in lock step, one step of every block before the next step.
/// At `N = 0` the sizes are the runtime `n` and its padding to a multiple
/// of 8, otherwise the constants `N` and `P`. The padding lanes are never
/// read into a result.
#[inline(always)]
fn invert_body<const N: usize, const P: usize>(
    n: usize,
    a: &[f64],
    out: &mut [f64],
    lu: &mut [f64],
    lv: &mut [f64],
    y: &mut [f64],
) -> bool {
    let (n, p) = if N == 0 { (n, n.next_multiple_of(W)) } else { (N, P) };
    let nb = a.len() / (n * n);
    let (lu, lv, y) = (&mut lu[..nb * n * p], &mut lv[..nb * p], &mut y[..nb * n * p]);
    for ((lu, _, y), a) in each_block(n, p, lu, lv, y).zip(a.chunks_exact(n * n)) {
        for (col, a) in lu.chunks_exact_mut(p).zip(a.chunks_exact(n)) {
            col[..n].copy_from_slice(a);
        }
        y.fill(0.0);
        for i in 0..n {
            y[i * p + i] = 1.0;
        }
    }
    for k in 0..n {
        for (lu, lv, y) in each_block(n, p, lu, lv, y) {
            if !factor_step(k, n, p, lu, lv, y) {
                return false;
            }
        }
    }
    // Forward with the unit L, every right-hand side at once.
    for i in 1..n {
        for (lu, _, y) in each_block(n, p, lu, lv, y) {
            let (done, rest) = y.split_at_mut(i * p);
            subtract_rows::<N, P>(p, &mut rest[..p], done, |m| lu[m * p + i], 1.0);
        }
    }
    // Back with U.
    for i in (0..n).rev() {
        for (lu, _, y) in each_block(n, p, lu, lv, y) {
            let (head, done) = y.split_at_mut((i + 1) * p);
            let (yi, uii) = (&mut head[i * p..], lu[i * p + i]);
            subtract_rows::<N, P>(p, yi, done, |m| lu[(i + 1 + m) * p + i], uii);
        }
    }
    for (out, y) in out.chunks_exact_mut(n * n).zip(y.chunks_exact(n * p)) {
        for (j, col) in out.chunks_exact_mut(n).enumerate() {
            for (i, x) in col.iter_mut().enumerate() {
                *x = y[i * p + j];
            }
        }
    }
    true
}

/// Every block's `(lu, lv, y)` of a group's scratch.
#[inline(always)]
fn each_block<'a>(
    n: usize,
    p: usize,
    lu: &'a mut [f64],
    lv: &'a mut [f64],
    y: &'a mut [f64],
) -> impl Iterator<Item = (&'a mut [f64], &'a mut [f64], &'a mut [f64])> {
    let blocks = lu.chunks_exact_mut(n * p).zip(lv.chunks_exact_mut(p));
    blocks.zip(y.chunks_exact_mut(n * p)).map(|((lu, lv), y)| (lu, lv, y))
}

/// Step `k` of one block's factorization: the pivot, the row swap (in the
/// factors and the right-hand sides), the multipliers and the update of
/// every later column; `false` on a zero pivot.
#[inline(always)]
fn factor_step(
    k: usize,
    n: usize,
    p: usize,
    lu: &mut [f64],
    lv: &mut [f64],
    y: &mut [f64],
) -> bool {
    // Pivot: the first strict maximum of |lu[i, k]|, k <= i < n.
    let col = &lu[k * p..k * p + n];
    let (mut piv, mut pmax) = (k, col[k].abs());
    for (i, v) in col.iter().enumerate().skip(k + 1) {
        if v.abs() > pmax {
            (piv, pmax) = (i, v.abs());
        }
    }
    if pmax == 0.0 {
        return false;
    }
    if piv != k {
        for j in 0..n {
            lu.swap(j * p + k, j * p + piv);
        }
        let (head, tail) = y.split_at_mut(piv * p);
        head[k * p..(k + 1) * p].swap_with_slice(&mut tail[..p]);
    }
    // The multipliers below the pivot, and `+0.0` at and above it and in
    // the padding, so the update runs whole columns and leaves every other
    // row alone.
    let (left, right) = lu.split_at_mut((k + 1) * p);
    let colk = &mut left[k * p..];
    let pivot = colk[k];
    for (i, (l, x)) in lv.iter_mut().zip(colk.iter_mut()).enumerate() {
        let below = i > k && i < n;
        *l = if below { *x / pivot } else { 0.0 };
        *x = if below { *l } else { *x };
    }
    for colj in right.chunks_exact_mut(p) {
        let ukj = colj[k];
        for (x, &l) in colj.iter_mut().zip(lv.iter()) {
            *x = if l != 0.0 { *x - l * ukj } else { *x };
        }
    }
    true
}

/// `yi[c] = (yi[c] − Σ_m s(m)·rows[m][c]) / d` for every lane `c < p`, each
/// product rounded and subtracted in turn, `m` ascending, and the division
/// skipped at `d = 1`: the whole row of `P` lanes held in registers at a
/// compile-time size, 8 lanes at a time at the runtime one.
#[inline(always)]
fn subtract_rows<const N: usize, const P: usize>(
    p: usize,
    yi: &mut [f64],
    rows: &[f64],
    s: impl Fn(usize) -> f64,
    d: f64,
) {
    if N == 0 {
        for c0 in (0..p).step_by(W) {
            let lanes = rows.chunks_exact(p).map(|r| &r[c0..c0 + W]);
            subtract_lanes::<W>(&mut yi[c0..c0 + W], lanes, &s, d);
        }
    } else {
        subtract_lanes::<P>(&mut yi[..P], rows.chunks_exact(P), &s, d);
    }
}

/// [`subtract_rows`] over `L` lanes accumulated in a local array.
#[inline(always)]
fn subtract_lanes<'a, const L: usize>(
    yi: &mut [f64],
    rows: impl Iterator<Item = &'a [f64]>,
    s: &impl Fn(usize) -> f64,
    d: f64,
) {
    let mut acc: [f64; L] = std::array::from_fn(|c| yi[c]);
    for (m, row) in rows.enumerate() {
        let (s, row) = (s(m), &row[..L]);
        for (x, &v) in acc.iter_mut().zip(row) {
            *x -= s * v;
        }
    }
    for (out, x) in yi.iter_mut().zip(acc) {
        *out = if d == 1.0 { x } else { x / d };
    }
}

fma_clones! {
    /// [`invert_body`] as compiled for `level`.
    fn invert<N: usize, P: usize>(level) = invert_body(
        n: usize,
        a: &[f64],
        out: &mut [f64],
        lu: &mut [f64],
        lv: &mut [f64],
        y: &mut [f64],
    ) -> bool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::dense::DMatrix;
    use crate::lu::LuFactors;

    fn two_blocks() -> BlockDiag {
        BlockDiag::from_batch(2, vec![2.0, 1.0, 1.0, 2.0, 4.0, 0.0, 0.0, 0.5])
    }

    #[test]
    fn apply_acts_blockwise() {
        let a = two_blocks();
        let mut y = vec![0.0; 4];
        a.apply(&[1.0, 1.0, 1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = two_blocks();
        let inv = a.inverse();
        let x = [0.3, -1.2, 5.0, 0.25];
        let mut ax = vec![0.0; 4];
        a.apply(&x, &mut ax);
        let mut back = vec![0.0; 4];
        inv.apply(&ax, &mut back);
        for (u, v) in back.iter().zip(&x) {
            assert!(approx_eq(*u, *v, 1e-13));
        }
    }

    #[test]
    fn csr_export_matches_apply() {
        let a = two_blocks();
        let csr = a.to_csr();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = vec![0.0; 4];
        a.apply(&x, &mut y1);
        let y2 = csr.spmv(&x);
        assert_eq!(y1, y2);
        // Structural zeros inside block 1 are dropped by the CSR builder.
        assert_eq!(csr.nnz(), 6);
    }

    /// Deterministic values in (-1, 1).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = 0x9e3779b97f4a7c15u64 ^ seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    /// The solver applies `M_E^{-1}` through [`BlockDiag::apply`] on every
    /// leg and bills the device for the CSR export's SpMV: the two must be
    /// the same arithmetic, bit for bit, including where `apply` skips a
    /// zero `x` entry and where the export drops a zero block entry.
    #[test]
    fn apply_is_bitwise_the_csr_export_spmv() {
        let mut next = lcg(0);
        for bs in [1, 3, 4, 8, 27] {
            let batch = (0..5 * bs * bs)
                .map(|_| {
                    let v = next();
                    if v.abs() < 0.05 { 0.0 } else { v * 1e3 }
                })
                .collect();
            let a = BlockDiag::from_batch(bs, batch);
            let x: Vec<f64> = (0..a.dim())
                .map(|i| match i % 7 {
                    2 => 0.0,
                    5 => -0.0,
                    _ => next(),
                })
                .collect();
            let mut y = vec![f64::NAN; a.dim()];
            a.apply(&x, &mut y);
            let y_csr = a.to_csr().spmv(&x);
            for (i, (u, v)) in y.iter().zip(&y_csr).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "bs={bs}, row {i}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn dims_and_access() {
        let a = two_blocks();
        assert_eq!(a.dim(), 4);
        assert_eq!(a.num_blocks(), 2);
        assert_eq!(a.block_size(), 2);
        assert_eq!(a.block(1)[0], 4.0);
    }

    #[test]
    fn symmetric_blocks_have_zero_asymmetry() {
        assert_eq!(two_blocks().asymmetry(), 0.0);
        let bd = BlockDiag::from_batch(2, vec![1.0, 0.0, 2.0, 1.0]);
        assert_eq!(bd.asymmetry(), 2.0);
    }

    #[test]
    #[should_panic(expected = "singular thermodynamic mass block")]
    fn singular_block_panics_on_inverse() {
        BlockDiag::from_batch(2, vec![1.0, 2.0, 2.0, 4.0]).inverse();
    }

    #[test]
    #[should_panic(expected = "inconsistent block shape")]
    fn mixed_block_sizes_rejected() {
        BlockDiag::from_batch(3, vec![0.0; 4 + 9]);
    }

    /// Every block of `a` inverted by the kernel at every SIMD level up to
    /// the host's and at pool widths 1 / 2 / 8, against
    /// [`LuFactors::inverse`] block by block, bit for bit.
    fn assert_inverse_is_the_oracle(a: &BlockDiag, what: &str) {
        let n = a.block_size();
        let want: Vec<Vec<u64>> = (0..a.num_blocks())
            .map(|z| {
                let lu = LuFactors::factor(&DMatrix::from_col_major(n, n, a.block(z).to_vec()));
                assert!(!lu.is_singular(), "{what}: block {z} is singular");
                lu.inverse().as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        for level in 0..=crate::simd::level() {
            for threads in [1, 2, 8] {
                let inv = rayon::Pool::new(threads).install(|| a.inverse_at(level));
                for (z, want) in want.iter().enumerate() {
                    let got: Vec<u64> = inv.block(z).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(&got, want, "{what}: block {z}, level {level}, {threads} threads");
                }
            }
        }
    }

    /// A batch of `count` diagonally weighted blocks of size `n`.
    fn random_batch(n: usize, count: usize, seed: u64) -> BlockDiag {
        let mut next = lcg(seed);
        let batch = (0..count * n * n)
            .map(|p| next() + if (p % (n * n)).is_multiple_of(n + 1) { n as f64 } else { 0.0 })
            .collect();
        BlockDiag::from_batch(n, batch)
    }

    #[test]
    fn batched_inverse_block_sizes_match_setup_oracle() {
        for n in (1..=9).chain([16, 27, 64, 30]) {
            let a = random_batch(n, 5, n as u64);
            assert_inverse_is_the_oracle(&a, &format!("n = {n}"));
        }
    }

    /// Small diagonals force a row swap at most steps; exact `+0.0` and
    /// `-0.0` entries below a pivot give zero multipliers, whose updates
    /// are skipped, beside `-0.0` entries a taken update would turn into
    /// `+0.0`.
    #[test]
    fn batched_inverse_pivots_and_zero_multipliers_match_setup_oracle() {
        for n in [3, 4, 8, 9, 27] {
            let mut next = lcg(100 + n as u64);
            let batch = (0..4 * n * n)
                .map(|p| {
                    let (j, i) = (p % (n * n) / n, p % n);
                    match (i + 2 * j + p / (n * n)) % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ if i == j => 1e-3 * next(),
                        _ => next(),
                    }
                })
                .collect();
            let a = BlockDiag::from_batch(n, batch);
            assert_inverse_is_the_oracle(&a, &format!("hostile n = {n}"));
        }
        // A permutation: every multiplier is zero and every step swaps.
        let shift = (0..64).map(|p| if (p / 8 + 1) % 8 == p % 8 { 2.0 } else { -0.0 }).collect();
        assert_inverse_is_the_oracle(&BlockDiag::from_batch(8, shift), "cyclic shift");
    }

    /// Entries spread over 300 decades, 1e-150 to 1e150, row and column
    /// scales mixed so pivots, multipliers and the solve span the range.
    #[test]
    fn batched_inverse_extreme_magnitudes_match_setup_oracle() {
        for n in [2, 4, 8, 27] {
            let mut next = lcg(200 + n as u64);
            let batch = (0..3 * n * n)
                .map(|p| {
                    let (j, i) = (p % (n * n) / n, p % n);
                    let e = ((i * 7 + j * 13 + p / (n * n) * 5) % 31) as i32 * 10 - 150;
                    next() * 10f64.powi(e)
                })
                .collect();
            let a = BlockDiag::from_batch(n, batch);
            assert_inverse_is_the_oracle(&a, &format!("1e+-150 n = {n}"));
        }
    }

    /// A singular block among regular ones, on a pool of 2, still panics
    /// with the oracle's message.
    #[test]
    #[should_panic(expected = "singular thermodynamic mass block")]
    fn singular_block_in_a_batch_panics_setup_oracle() {
        let mut a = random_batch(27, 40, 7);
        let z = 33 * 27 * 27;
        a.batch[z..z + 27].fill(0.0); // block 33's first column
        rayon::Pool::new(2).install(|| a.inverse());
    }
}
