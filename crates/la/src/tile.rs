//! Cache-blocked, register-tiled GEMM micro-kernels (the host-side analog
//! of the paper's batched CUDA kernels).
//!
//! One generic body, [`gemm_generic`], serves every transpose variant: the
//! operand layout is absorbed by the strided loads of the register tile,
//! and operands are read in place — no packing, no workspace, so the
//! batched per-zone calls stay allocation-free on every thread. [`gemm`] is
//! what callers use: at SIMD level 2 an `op_a = N` product runs the zmm
//! register tile (the `zmm` module), otherwise the generic body.
//!
//! Blocking scheme of the generic body:
//!
//! * `MR x NR` register tile: a fixed-size `[[f64; MR]; NR]` accumulator
//!   that LLVM keeps entirely in vector registers; fixed-size array views
//!   eliminate bounds checks so the inner loop autovectorizes. That holds
//!   up to about 12 x 4; wider generic tiles spill, which is why level 2
//!   names its zmm accumulators in `core::arch` intrinsics instead.
//! * `KC`: the k-dimension cache block. C is read into registers once per
//!   KC block and written back once, instead of once per rank-1 update as
//!   the naive axpy loop does — that store-traffic reduction is where the
//!   speedup comes from at the paper's Table-3 shapes.
//!
//! # Determinism contract
//!
//! Every element of C is produced by one accumulation chain: `c = beta*c`
//! first, then one update per `p` in ascending order, with C round-tripping
//! through memory exactly (f64 store/load is lossless) between KC blocks.
//! The blocking therefore never changes a bit: the zmm tile, which holds
//! the whole `k` range in registers, is bitwise the generic body, and the
//! thread-count determinism guarantee (`tests/golden_lattice.rs`) does
//! not depend on either.
//!
//! Every update is one fused multiply-add (`simd::fmadd`) at every SIMD
//! level, so every clone of the generic body, the zmm tile included, gives
//! the same bits on every host. Relative to the naive reference
//! ([`crate::dense::naive`], which rounds twice and skips terms whose
//! folded B entry is exactly `0.0`) results are ULP-bounded-close, not
//! equal. The TN variant additionally trades the reference's dot-product
//! accumulation for the same axpy order as NN/NT.

/// Whether `blast_la`'s kernels fuse their multiply-adds: always, at every
/// SIMD level. Kept as a constant for the benchmark's run stamp, which
/// records it; nothing in the library branches on it.
pub const fn fma_active() -> bool {
    true
}

use crate::simd::{avx512_clone, fma_clones, fmadd};

/// Operand orientation for [`gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored (column-major).
    N,
    /// Use the transpose of the stored operand.
    T,
}

/// Rows of the generic register tile. 12 x 4 with a 64-deep `KC` block
/// was the fastest of the twelve tiles timed against each other on the
/// Table-3 `F_z` shapes (4 x 4, 8 x 4, 12 x 4, 4 x 8 by `KC` 64, 128,
/// 256; EXPERIMENTS.md, "One generic GEMM tile"): 1.1-1.3x the former
/// 8 x 4 / 256 default on Q3 and Q4 3D at SIMD levels 0, 1 and 2.
const MR: usize = 12;
/// Columns of the generic register tile (see [`MR`]).
const NR: usize = 4;
/// The k-dimension cache block of the generic body (see [`MR`]).
const KC: usize = 64;

/// `C = alpha * op_a(A) * op_b(B) + beta * C` on column-major slices: at
/// SIMD level 2 an `op_a = N` product runs the zmm register tile, otherwise
/// [`gemm_generic`], to the same bits. `(m, n, k)` are the shapes *after*
/// applying the transpositions; `A^T B^T` is not supported (no caller
/// needs it).
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    op_a: Op,
    b: &[f64],
    op_b: Op,
    beta: f64,
    c: &mut [f64],
) {
    debug_assert!(a.len() >= m * k);
    debug_assert!(b.len() >= k * n);
    debug_assert!(c.len() >= m * n);
    if op_a == Op::N && k > 0 && alpha != 0.0 {
        let ran = match op_b {
            Op::N => gemm_zmm::<false>(m, n, k, alpha, a, b, beta, c),
            Op::T => gemm_zmm::<true>(m, n, k, alpha, a, b, beta, c),
        };
        if ran {
            return;
        }
    }
    gemm_generic(m, n, k, alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm`]'s generic body at every level: the `MR x NR` register tile
/// over `KC` blocks, operands read in place. It is what levels 0 and 1 and
/// every `op_a = T` product run, and the zmm tile's bitwise oracle.
pub fn gemm_generic(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    op_a: Op,
    b: &[f64],
    op_b: Op,
    beta: f64,
    c: &mut [f64],
) {
    generic_at(crate::simd::level(), m, n, k, alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm_generic`] through the clone of `level` (at most `simd::level()`).
#[allow(clippy::too_many_arguments)]
fn generic_at(
    level: u8,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    op_a: Op,
    b: &[f64],
    op_b: Op,
    beta: f64,
    c: &mut [f64],
) {
    assert!(!(op_a == Op::T && op_b == Op::T), "gemm: A^T * B^T is not supported");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_like_naive(beta, &mut c[..m * n]);
        return;
    }
    match (op_a, op_b) {
        (Op::N, Op::N) => direct::<false, false>(level, m, n, k, alpha, a, b, beta, c),
        (Op::N, Op::T) => direct::<false, true>(level, m, n, k, alpha, a, b, beta, c),
        (Op::T, _) => direct::<true, false>(level, m, n, k, alpha, a, b, beta, c),
    }
}

/// The `beta`-only degenerate case, matching the naive reference's exact
/// branch structure (`beta == 1` leaves C untouched bitwise).
fn scale_like_naive(beta: f64, c: &mut [f64]) {
    if beta == 0.0 {
        c.iter_mut().for_each(|x| *x = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }
}

/// Loads the C tile into the accumulator. On the first KC block `beta` is
/// applied exactly as the naive reference does; later blocks resume from
/// the stored partial sums.
#[inline(always)]
fn load_acc(
    m: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    beta: f64,
    first: bool,
    c: &[f64],
    acc: &mut [[f64; MR]; NR],
) {
    for (jr, accj) in acc.iter_mut().enumerate().take(nr_eff) {
        let cj = &c[(j0 + jr) * m + i0..(j0 + jr) * m + i0 + mr_eff];
        for (av, &cv) in accj.iter_mut().zip(cj) {
            *av = if !first {
                cv
            } else if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                cv
            } else {
                cv * beta
            };
        }
    }
}

/// Writes the valid lanes of the accumulator back to C.
#[inline(always)]
fn store_acc(
    m: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    c: &mut [f64],
    acc: &[[f64; MR]; NR],
) {
    for (jr, accj) in acc.iter().enumerate().take(nr_eff) {
        let cj = &mut c[(j0 + jr) * m + i0..(j0 + jr) * m + i0 + mr_eff];
        cj.copy_from_slice(&accj[..mr_eff]);
    }
}

/// Full `MR x W` register tile (`W` is `NR`, or the ragged column count),
/// compile-time loop bounds throughout: the accumulator stays in vector
/// registers for the whole KC block, so C is loaded and stored once per
/// block instead of once per rank-1 update.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_full<const W: usize, const AT: bool, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    j0: usize,
    p0: usize,
    kc: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    first: bool,
    c: &mut [f64],
) {
    let mut acc = [[0.0f64; MR]; W];
    for (jr, accj) in acc.iter_mut().enumerate() {
        let cj: &[f64; MR] = c[(j0 + jr) * m + i0..][..MR].try_into().expect("full tile");
        for (av, &cv) in accj.iter_mut().zip(cj) {
            *av = if !first {
                cv
            } else if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                cv
            } else {
                cv * beta
            };
        }
    }
    for p in p0..p0 + kc {
        let av: [f64; MR] = if AT {
            core::array::from_fn(|ir| a[p + (i0 + ir) * k])
        } else {
            *<&[f64; MR]>::try_from(&a[p * m + i0..][..MR]).expect("full tile")
        };
        // Fold alpha into the B row up front (`1.0 * x == x` bitwise, so
        // the alpha == 1 fast path changes nothing).
        let bv: [f64; W] = core::array::from_fn(|jr| {
            let bpj = if BT { b[(j0 + jr) + p * n] } else { b[p + (j0 + jr) * k] };
            if alpha == 1.0 {
                bpj
            } else {
                alpha * bpj
            }
        });
        for (accj, &bpj) in acc.iter_mut().zip(&bv) {
            for (cv, &avv) in accj.iter_mut().zip(&av) {
                *cv = fmadd(*cv, avv, bpj);
            }
        }
    }
    for (jr, accj) in acc.iter().enumerate() {
        c[(j0 + jr) * m + i0..][..MR].copy_from_slice(accj);
    }
}

/// Ragged-edge tile: runtime `mr_eff x nr_eff` bounds, same accumulation
/// order as the full tile (padded A lanes are zero and padded B columns
/// are skipped, so only the valid lanes are ever written back).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_edge<const AT: bool, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    j0: usize,
    p0: usize,
    kc: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    first: bool,
    c: &mut [f64],
) {
    let mr_eff = MR.min(m - i0);
    let nr_eff = NR.min(n - j0);
    let mut acc = [[0.0f64; MR]; NR];
    load_acc(m, i0, j0, mr_eff, nr_eff, beta, first, c, &mut acc);
    for p in p0..p0 + kc {
        let mut av = [0.0f64; MR];
        if AT {
            for (ir, lane) in av.iter_mut().enumerate().take(mr_eff) {
                *lane = a[p + (i0 + ir) * k];
            }
        } else {
            for (lane, &ai) in av.iter_mut().zip(&a[p * m + i0..p * m + i0 + mr_eff]) {
                *lane = ai;
            }
        }
        for (jr, accj) in acc.iter_mut().enumerate().take(nr_eff) {
            let bpj = alpha * if BT { b[(j0 + jr) + p * n] } else { b[p + (j0 + jr) * k] };
            for (cv, &avv) in accj.iter_mut().zip(&av) {
                *cv = fmadd(*cv, avv, bpj);
            }
        }
    }
    store_acc(m, i0, j0, mr_eff, nr_eff, c, &acc);
}

fma_clones! {
    /// [`direct_body`] as compiled for `level`: every clone runs the same
    /// loop nest in the same order, so results never depend on the width.
    fn direct<AT: bool, BT: bool>(level) = direct_body(
        m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64],
    )
}

/// Direct-path driver: `KC` blocking over `k` (ascending, so the
/// per-element accumulation order matches the reference), register tiles
/// over `(m, n)`, operands read in place through the transpose flags.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn direct_body<const AT: bool, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    let m_full = m - m % MR;
    let n_full = n - n % NR;
    let mut p0 = 0;
    let mut first = true;
    while p0 < k {
        let kc = KC.min(k - p0);
        let mut j0 = 0;
        while j0 < n_full {
            let mut i0 = 0;
            while i0 < m_full {
                tile_full::<NR, AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
                i0 += MR;
            }
            if i0 < m {
                tile_edge::<AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
            }
            j0 += NR;
        }
        if j0 < n {
            // Ragged column strip: re-dispatch the full i-tiles to a
            // narrower const-width register tile so only the bottom-right
            // corner pays the runtime-bounded edge cost.
            let nr_eff = n - j0;
            let mut i0 = 0;
            while i0 < m_full {
                jedge_full::<AT, BT>(m, n, k, i0, j0, p0, kc, nr_eff, alpha, a, b, beta, first, c);
                i0 += MR;
            }
            if i0 < m {
                tile_edge::<AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
            }
        }
        p0 += kc;
        first = false;
    }
}

/// Dispatches a full-height, ragged-width tile (`MR x nr_eff`) to the
/// matching const-width instantiation of [`tile_full`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn jedge_full<const AT: bool, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    j0: usize,
    p0: usize,
    kc: usize,
    nr_eff: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    first: bool,
    c: &mut [f64],
) {
    match nr_eff {
        1 => tile_full::<1, AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        2 => tile_full::<2, AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        3 => tile_full::<3, AT, BT>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        _ => unreachable!("nr_eff < NR = 4"),
    }
}

avx512_clone! {
    /// [`zmm::gemm_n`] at level 2; `false` (nothing run) below it.
    fn gemm_zmm<BT: bool> = zmm::gemm_n(
        m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64],
    )
}

/// The level-2 register tile of [`gemm`] with `op_a = N`, in `core::arch`
/// intrinsics: LLVM does not keep a generic `[[f64; MR]; NR]` tile wider than
/// 12 x 4 in registers (a generic 16 x 8 ran at 2.6–3.3 GF/s), so the zmm
/// accumulators are named here.
///
/// A tile is `8·V` rows of C in `V` zmm accumulators per column by `W`
/// columns. The shape is a function of `(m, n)` alone: `R = 3` vectors (24
/// rows) by `NR = 8` columns, row blocks outer so a block's `A` rows stay in
/// L1 across the column strips; the ragged rows run as one tile of
/// `ceil(rows / 8)` vectors whose last vector is masked
/// (`_mm512_maskz_loadu_pd` / `_mm512_mask_storeu_pd`), the ragged columns
/// as a narrower const-`W` instance.
///
/// Every element runs the chain of the module docs: the `beta` start as in
/// `load_acc`, `alpha` folded into B, ascending `p`, one FMA per step. So
/// each output is bitwise [`gemm_generic`]'s. The
/// accumulators hold the whole `k` range: C round-trips through memory
/// exactly between `KC` blocks, so skipping the round trips changes no bit.
#[cfg(target_arch = "x86_64")]
mod zmm {
    use core::arch::x86_64::*;

    /// Row vectors of a full tile: 24 rows.
    const R: usize = 3;
    /// Columns of a full tile: `R·NR` accumulators, `R` A vectors and a B
    /// broadcast fill 28 of the 32 zmm registers.
    const NR: usize = 8;

    /// `C = alpha·A·op_b(B) + beta·C` for column-major `A` (`m × k`); `B` is
    /// `k × n`, or at `BT` its transpose stored `n × k`. Expects `k > 0` and
    /// `alpha != 0` (the caller's degenerate cases).
    ///
    /// # Safety
    ///
    /// The CPU supports `avx512f`, and the caller enables it.
    // SAFETY: callers keep the contract above; the operand lengths are
    // checked here, before any pointer is formed.
    #[inline(always)]
    pub(super) unsafe fn gemm_n<const BT: bool>(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &mut [f64],
    ) {
        assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n, "gemm: short operand");
        let g = Gemm { m, n, k, alpha, beta, a: a.as_ptr(), b: b.as_ptr(), c: c.as_mut_ptr() };
        if alpha == 1.0 {
            g.run::<BT, false>();
        } else {
            g.run::<BT, true>();
        }
    }

    /// One product's operands: the pointers are to slices `gemm_n` has
    /// checked against `(m, n, k)`.
    struct Gemm {
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    }

    impl Gemm {
        /// Every row block of C: full `8·R`-row ones, then the ragged rows
        /// with their last vector masked to `last`. `SCALED`: `alpha != 1`.
        ///
        /// # Safety
        ///
        /// As [`gemm_n`], and `self` is the one `gemm_n` built.
        // SAFETY: every row block passed on starts below `m`, and `last`
        // keeps the ragged block's lanes below `m`.
        #[inline(always)]
        unsafe fn run<const BT: bool, const SCALED: bool>(&self) {
            let mut i0 = 0;
            while i0 + 8 * R <= self.m {
                self.rows::<R, BT, SCALED>(i0, 0xff);
                i0 += 8 * R;
            }
            let rows = self.m - i0;
            let last = 0xffu8 >> ((8 - rows % 8) % 8);
            match rows.div_ceil(8) {
                0 => {}
                1 => self.rows::<1, BT, SCALED>(i0, last),
                2 => self.rows::<2, BT, SCALED>(i0, last),
                _ => self.rows::<3, BT, SCALED>(i0, last),
            }
        }

        /// The `V`-vector row block at `i0`, every column strip: full
        /// `NR`-column tiles, then the ragged columns as one narrower tile.
        ///
        /// # Safety
        ///
        /// As `run`, and rows `i0..i0 + 8·V` limited by `last` lie below `m`.
        // SAFETY: every column strip passed on ends at or below `n`.
        #[inline(always)]
        unsafe fn rows<const V: usize, const BT: bool, const SCALED: bool>(
            &self,
            i0: usize,
            last: __mmask8,
        ) {
            let mut j0 = 0;
            while j0 + NR <= self.n {
                self.tile::<V, NR, BT, SCALED>(i0, j0, last);
                j0 += NR;
            }
            match self.n - j0 {
                0 => {}
                1 => self.tile::<V, 1, BT, SCALED>(i0, j0, last),
                2 => self.tile::<V, 2, BT, SCALED>(i0, j0, last),
                3 => self.tile::<V, 3, BT, SCALED>(i0, j0, last),
                4 => self.tile::<V, 4, BT, SCALED>(i0, j0, last),
                5 => self.tile::<V, 5, BT, SCALED>(i0, j0, last),
                6 => self.tile::<V, 6, BT, SCALED>(i0, j0, last),
                _ => self.tile::<V, 7, BT, SCALED>(i0, j0, last),
            }
        }

        /// Rows `i0..i0 + 8·V` (the last vector's lanes limited to `last`)
        /// by columns `j0..j0 + W`, accumulated over the whole `k` range.
        ///
        /// # Safety
        ///
        /// As `rows`, and `j0 + W <= n`.
        // SAFETY: every unmasked lane read or written is at row `< m`,
        // column `< n` and `p < k` of a checked slice; a masked-off lane is
        // neither read nor written, and cannot fault.
        #[inline(always)]
        unsafe fn tile<const V: usize, const W: usize, const BT: bool, const SCALED: bool>(
            &self,
            i0: usize,
            j0: usize,
            last: __mmask8,
        ) {
            let Gemm { m, n, k, alpha, beta, a, b, c } = *self;
            let mask = |v: usize| if v + 1 == V { last } else { 0xff };
            let mut acc = [[_mm512_setzero_pd(); V]; W];
            if beta != 0.0 {
                let scale = _mm512_set1_pd(beta);
                for (j, accj) in acc.iter_mut().enumerate() {
                    let cj = c.add((j0 + j) * m + i0);
                    for (v, x) in accj.iter_mut().enumerate() {
                        let cv = _mm512_maskz_loadu_pd(mask(v), cj.add(8 * v));
                        *x = if beta == 1.0 { cv } else { _mm512_mul_pd(cv, scale) };
                    }
                }
            }
            for p in 0..k {
                let ap = a.add(p * m + i0);
                let mut av = [_mm512_setzero_pd(); V];
                for (v, x) in av.iter_mut().enumerate() {
                    *x = _mm512_maskz_loadu_pd(mask(v), ap.add(8 * v));
                }
                for (j, accj) in acc.iter_mut().enumerate() {
                    let bpj = if BT { *b.add(j0 + j + p * n) } else { *b.add(p + (j0 + j) * k) };
                    let bv = _mm512_set1_pd(if SCALED { alpha * bpj } else { bpj });
                    for (x, &avv) in accj.iter_mut().zip(&av) {
                        *x = _mm512_fmadd_pd(avv, bv, *x);
                    }
                }
            }
            for (j, accj) in acc.iter().enumerate() {
                let cj = c.add((j0 + j) * m + i0);
                for (v, &x) in accj.iter().enumerate() {
                    _mm512_mask_storeu_pd(cj.add(8 * v), mask(v), x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::naive;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Mix in exact zeros.
                if s.is_multiple_of(11) {
                    0.0
                } else {
                    (s % 1000) as f64 / 500.0 - 1.0
                }
            })
            .collect()
    }

    /// The contract from the module docs: every clone of the generic body up
    /// to the host's level is bitwise the level-0 clone, and that chain is
    /// ULP-bounded-close to the naive reference.
    fn check_clones_and_naive(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = fill(m * k, (m * 31 + k) as u64);
        let c0 = fill(m * n, (n * 7 + m) as u64);
        for (op_b, blen) in [(Op::N, k * n), (Op::T, n * k)] {
            let b = fill(blen, (k * 13 + n) as u64);
            let mut c_ref = c0.clone();
            match op_b {
                Op::N => naive::gemm_nn_raw(m, n, k, alpha, &a, &b, beta, &mut c_ref),
                Op::T => naive::gemm_nt_raw(m, n, k, alpha, &a, &b, beta, &mut c_ref),
            }
            let mut c = c0.clone();
            generic_at(0, m, n, k, alpha, &a, Op::N, &b, op_b, beta, &mut c);
            let at = format!("{m}x{n}x{k} {op_b:?}");
            for (x, y) in c.iter().zip(&c_ref) {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!((x - y).abs() <= 1e-12 * scale, "{x} vs naive {y} at {at}");
            }
            for level in 1..=crate::simd::level() {
                let mut got = c0.clone();
                generic_at(level, m, n, k, alpha, &a, Op::N, &b, op_b, beta, &mut got);
                assert!(
                    got.iter().zip(&c).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "level {level} differs from level 0 at {at}"
                );
            }
        }
    }

    #[test]
    fn every_clone_is_the_level_0_chain_on_table3_shapes() {
        // Per-zone F_z = A_z B^T shapes for Q1..Q4 (3D), plus ragged edges.
        for (m, n, k) in [(24, 1, 8), (81, 8, 64), (192, 27, 125), (375, 64, 216)] {
            check_clones_and_naive(m, n, k, 1.0, 0.0);
        }
        for (m, n, k) in [(1, 1, 1), (5, 3, 7), (17, 9, 33), (13, 1, 2)] {
            for (alpha, beta) in [(1.0, 0.0), (2.5, 1.0), (-0.5, 3.0), (0.0, 2.0), (1.0, 1.0)] {
                check_clones_and_naive(m, n, k, alpha, beta);
            }
        }
    }

    /// The level-2 zmm tile of [`gemm`] against the chain it replaces, bit
    /// for bit: a seeded grid of ragged shapes and the kernel-7 `F_z` shapes
    /// (Q1–Q4 3D, Q2 and Q4 2D), every `alpha`, `beta` (0 over a NaN-filled
    /// C, so a read of C would show) and `op_b`.
    #[test]
    fn zmm_tile_is_bitwise_the_default_chain() {
        let level = crate::simd::level();
        if level < 2 {
            eprintln!("note: SIMD level {level} < 2, so `gemm` runs no zmm tile; skipped");
            return;
        }
        let cases: [(f64, f64, Op); 18] = core::array::from_fn(|i| {
            ([1.0, 0.75, 0.0][i % 3], [0.0, 1.0, -0.5][i / 3 % 3], [Op::N, Op::T][i / 9])
        });
        let mut seed = 0x5eed_u64;
        let mut next = |below: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % below as u64) as usize
        };
        // Every ragged (m, n) once, at a seeded k and case; the kernel-7
        // shapes at every case.
        let mut runs = Vec::new();
        for (m, n) in (1..=40).flat_map(|m| (1..=13).map(move |n| (m, n))) {
            runs.push((m, n, next(301), cases[next(18)]));
        }
        let kernel7 =
            [(24, 1, 8), (18, 4, 16), (50, 16, 64), (81, 8, 64), (192, 27, 216), (375, 64, 512)];
        for (m, n, k) in kernel7 {
            runs.extend(cases.map(|case| (m, n, k, case)));
        }
        for (m, n, k, (alpha, beta, op_b)) in runs {
            let a = fill(m * k, (m * 31 + k) as u64);
            let b = fill(k * n, (k * 13 + n) as u64);
            let c0 = if beta == 0.0 { vec![f64::NAN; m * n] } else { fill(m * n, 5) };
            let (mut want, mut got) = (c0.clone(), c0);
            gemm_generic(m, n, k, alpha, &a, Op::N, &b, op_b, beta, &mut want);
            gemm(m, n, k, alpha, &a, Op::N, &b, op_b, beta, &mut got);
            assert!(
                got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "zmm tile differs at {m}x{n}x{k} alpha={alpha} beta={beta} {op_b:?}"
            );
        }
    }

    #[test]
    fn tn_matches_naive_within_ulps() {
        for (m, n, k) in [(5, 3, 7), (27, 81, 64), (33, 9, 17)] {
            let a = fill(k * m, 3);
            let b = fill(k * n, 4);
            let c0 = fill(m * n, 5);
            let mut c_ref = c0.clone();
            naive::gemm_tn_raw(m, n, k, 1.5, &a, &b, 0.5, &mut c_ref);
            let mut c = c0.clone();
            gemm_generic(m, n, k, 1.5, &a, Op::T, &b, Op::N, 0.5, &mut c);
            for (x, y) in c.iter().zip(&c_ref) {
                let scale = y.abs().max(1.0);
                assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn k_zero_and_alpha_zero_match_naive_beta_semantics() {
        let c0 = fill(12, 9);
        for beta in [0.0, 1.0, 2.0] {
            let mut c_ref = c0.clone();
            naive::gemm_nn_raw(3, 4, 0, 1.0, &[], &[], beta, &mut c_ref);
            let mut c = c0.clone();
            gemm(3, 4, 0, 1.0, &[], Op::N, &[], Op::N, beta, &mut c);
            assert_eq!(c, c_ref);
            let a = fill(6, 1);
            let b = fill(8, 2);
            let mut c_ref = c0.clone();
            naive::gemm_nn_raw(3, 4, 2, 0.0, &a, &b, beta, &mut c_ref);
            let mut c = c0.clone();
            gemm(3, 4, 2, 0.0, &a, Op::N, &b, Op::N, beta, &mut c);
            assert_eq!(c, c_ref);
        }
    }
}
