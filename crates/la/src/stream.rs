//! Streaming fused PCG kernels (the solver-phase analog of the `tile.rs`
//! GEMM treatment, after Chalmers & Warburton, arXiv:2009.10917).
//!
//! The unfused PCG iteration makes one full memory sweep per BLAS-1 call:
//! SpMV, `dot(p, Ap)`, two `axpy`s, `nrm2(r)`, the Jacobi apply, `dot(r, z)`
//! and the direction update each stream the iteration vectors through DRAM
//! again. On a memory-bound host that is ~14 vector transits per iteration
//! for ~10 flops per entry. This module fuses the chains into three
//! single-pass kernels:
//!
//! * [`spmv_dot`] — SpMV that produces `p·Ap` in the same sweep (the freshly
//!   written `y` rows are still cache-hot when the block-local dot reads
//!   them back);
//! * [`axpy2_nrm2`] — the paired `x += αp; r -= αAp` updates with the new
//!   `‖r‖²` reduction fused in (4 reads + 2 writes instead of 7 transits);
//! * [`precond_dot_update`] — Jacobi apply + `r·z` + direction update in one
//!   call, never materializing `z` (`z_i = m_i r_i` costs one multiply to
//!   recompute, cheaper than a round-trip through DRAM).
//!
//! # The `d`-wide row sweep
//!
//! A CSR row is one dependent multiply-add chain (the contract below fixes
//! its order: ascending `k`), so a scalar row sweep runs at FMA latency,
//! not at memory bandwidth. The `d` velocity components of a momentum
//! solve are `d` independent chains over the *same* values and column
//! indices, and [`spmv_constrained_dot_wide`] runs them side by side: the
//! `d` masked inputs are staged interleaved, `tmp[W·i + c]` = component
//! `c` of entry `i`, padded to `W` = [`wide_lanes`]`(d)` lanes (2 for
//! `d` = 2, 4 for `d` = 3), so a non-zero costs one load of its value, one
//! of its column index, and one `W`-wide multiply-add against
//! `tmp[W·col..]`. Outputs come back de-interleaved per 64-row sub-block
//! into the component-blocked `y_c`, where the constrained-row fix-up and
//! the per-component dot lanes see them exactly as the scalar sweep
//! leaves them.
//!
//! The widening is bitwise-invisible because SIMD lanes never mix: lane
//! `c` of the vector multiply-add *is* the scalar multiply-add of component
//! `c` (same operands, same rounding, same order), the padding lanes
//! multiply staged zeros and are dropped, and each component keeps its own
//! 8 dot lanes and its own 64 block partials. So per component the sweep
//! equals `spmv_constrained_dot` bit for bit, at every thread count and
//! in both regimes below — which is what lets the lock-step PCG
//! (`pcg::pcg_solve_on`) replace `d` scalar solves without moving a digest.
//!
//! # Determinism contract
//!
//! Every reduction runs over a **fixed block grid** that depends only on the
//! element count: `ceil(n / 64)`-sized chunks, one per pool block (the pool's
//! `MAX_BLOCKS` grid, PR 3), with per-block partials combined in block-index
//! order. Within a block, sums use a fixed 8-lane accumulator structure
//! (element `j` goes to lane `j mod 8`; the tail is accumulated separately
//! and folded first) — this grouping is *defined semantics*, not an
//! optimization detail, which is what makes the fused kernels bitwise-equal
//! to their unfused counterparts. Consequences:
//!
//! * results are **bitwise identical at every `BLAST_THREADS`**: each op
//!   names its grid once, as a block producer, and the one `walk` hands the
//!   same blocks in the same order to the pool or to the caller;
//! * the fused and launch-per-op loops (`PcgOptions::fused`) produce
//!   **bitwise-identical** solver trajectories, on the pool or serially,
//!   so the choice never shows in the determinism digests;
//! * against the scalar [`reference`](mod@reference) oracle there are two regimes, the
//!   ones `tile.rs` has, chosen by the level both modules share
//!   (`crate::simd`): at level 0 the kernels perform the reference's
//!   two-rounding updates and match **bitwise**; with the AVX2 / AVX-512
//!   FMA clones active ([`fma_active`]) each update is one fused rounding
//!   and results are ULP-bounded-close instead.
//!
//! Steady state performs **zero heap allocations**: per-block partials live
//! in a stack `[AtomicU64; 64]`, and the pool's `for_each` drive is
//! allocation-free for unit results.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::{prelude::*, Producer};

use crate::csr::CsrMatrix;
use crate::dense::nrm2_scaled;
pub use crate::simd::fma_active;
use crate::simd::{fma_clones, fmadd};

/// Reduction block grid: same cap as the pool's `MAX_BLOCKS`, so each chunk
/// maps to exactly one pool block and the grid depends only on `n`.
const STREAM_BLOCKS: usize = 64;

/// Fixed accumulator lanes per block (element `j` → lane `j mod LANES`).
const LANES: usize = 8;

/// Smallest vector sweep worth a pool dispatch, in `f64` elements streamed
/// (operand vectors x length); below it the sweep takes the
/// (bitwise-identical) caller-side walk. A dispatch costs 3-8 us against
/// ~0.1 ns per streamed element, and the measured pool-2 / serial crossover
/// of `dot`, `axpy2_nrm2` and `precond_dot_update` lies between 100k and
/// 200k elements (EXPERIMENTS.md, "stream grain"). A fixed constant, never
/// thread-count-derived, so the block schedule stays deterministic.
const PAR_MIN_SWEPT: usize = 1 << 17;

/// Smallest CSR row sweep worth a pool dispatch, in stored non-zeros: a row
/// sweep costs ~0.6 ns per non-zero, and the measured crossover lies
/// between 18k and 25k non-zeros whatever the band width.
const PAR_MIN_NNZ: usize = 1 << 15;

/// Folds the fixed lane accumulators in lane order, tail first. Part of the
/// defined reduction semantics — every reduction in this module (fused or
/// not) finishes a block through this exact chain.
#[inline(always)]
fn fold_lanes(lanes: [f64; LANES], tail: f64) -> f64 {
    lanes.iter().fold(tail, |acc, &l| acc + l)
}

/// Chunk length of the fixed block grid for an `n`-element sweep.
#[inline]
fn block_len(n: usize) -> usize {
    n.div_ceil(STREAM_BLOCKS).max(1)
}

/// Whether a sweep streaming `vectors` operands of `n` elements each
/// should use the worker pool.
#[inline]
fn sweep_on_pool(vectors: usize, n: usize) -> bool {
    vectors * n >= PAR_MIN_SWEPT
}

/// Whether a row sweep over `a` should use the worker pool.
#[inline]
fn rows_on_pool(a: &CsrMatrix) -> bool {
    a.nnz() >= PAR_MIN_NNZ
}

/// The one walk of a block grid: `f` on every block of `blocks`, handed to
/// the pool or run on the caller — the same blocks in the same order, the
/// pool's grid being the producer's own split points. Every op below names
/// its grid once, as `blocks`, and says nothing else about where it runs.
#[inline(always)]
fn walk<P: Producer>(on_pool: bool, blocks: P, f: impl Fn(P::Item) + Sync) {
    if on_pool {
        blocks.for_each(f)
    } else {
        Producer::into_iter(blocks).for_each(f)
    }
}

/// [`walk`] for a reduction: block `b`'s partial goes to slot `b` of a
/// stack array (f64 bits through relaxed atomic stores, so pool workers
/// and the caller share it without locks or heap allocation), and the
/// slots are summed in block-index order.
#[inline(always)]
fn walk_sum<P: Producer>(on_pool: bool, blocks: P, f: impl Fn(P::Item) -> f64 + Sync) -> f64 {
    let nblocks = blocks.len();
    let partials = Partials::new();
    walk(on_pool, blocks.enumerate(), |(b, block)| partials.set(b, f(block)));
    partials.fold(nblocks)
}

/// Per-block partial store: one slot per grid block, written exactly once,
/// folded in block-index order.
struct Partials([AtomicU64; STREAM_BLOCKS]);

impl Partials {
    fn new() -> Self {
        // 0u64 is the bit pattern of +0.0.
        Self([const { AtomicU64::new(0) }; STREAM_BLOCKS])
    }

    #[inline]
    fn set(&self, block: usize, v: f64) {
        self.0[block].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Combines the first `nblocks` partials in index order.
    fn fold(&self, nblocks: usize) -> f64 {
        self.0[..nblocks]
            .iter()
            .fold(0.0, |acc, s| acc + f64::from_bits(s.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------------------
// Block bodies: one const-generic scalar body per kernel; `fma_clones!`
// below turns `x_body` into the `x` that runs it at the level.
// ---------------------------------------------------------------------------

/// Block dot product with the fixed lane structure.
#[inline(always)]
fn dot_block_body<const FMA: bool>(x: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut xs = x.chunks_exact(LANES);
    let mut ys = y.chunks_exact(LANES);
    for (xv, yv) in (&mut xs).zip(&mut ys) {
        for ((l, &a), &b) in lanes.iter_mut().zip(xv).zip(yv) {
            *l = fmadd::<FMA>(*l, a, b);
        }
    }
    let mut tail = 0.0;
    for (&a, &b) in xs.remainder().iter().zip(ys.remainder()) {
        tail = fmadd::<FMA>(tail, a, b);
    }
    fold_lanes(lanes, tail)
}

/// Block `y += alpha * x`.
#[inline(always)]
fn axpy_block_body<const FMA: bool>(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = fmadd::<FMA>(*yi, alpha, xi);
    }
}

/// Fused block `x += alpha*p; r += malpha*ap; return sum(r_new^2)` — the
/// squared-norm lanes see exactly the values and grouping `dot(r, r)` would.
#[inline(always)]
fn axpy2_nrm2_block_body<const FMA: bool>(
    alpha: f64,
    malpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut ps = p.chunks_exact(LANES);
    let mut aps = ap.chunks_exact(LANES);
    let mut xs = x.chunks_exact_mut(LANES);
    let mut rs = r.chunks_exact_mut(LANES);
    for (((pv, apv), xv), rv) in (&mut ps).zip(&mut aps).zip(&mut xs).zip(&mut rs) {
        for (xi, &pi) in xv.iter_mut().zip(pv) {
            *xi = fmadd::<FMA>(*xi, alpha, pi);
        }
        for (ri, &api) in rv.iter_mut().zip(apv) {
            *ri = fmadd::<FMA>(*ri, malpha, api);
        }
        for (l, &ri) in lanes.iter_mut().zip(rv.iter()) {
            *l = fmadd::<FMA>(*l, ri, ri);
        }
    }
    let mut tail = 0.0;
    let (pr, apr) = (ps.remainder(), aps.remainder());
    let it = xs.into_remainder().iter_mut().zip(rs.into_remainder()).zip(pr).zip(apr);
    for (((xi, ri), &pi), &api) in it {
        *xi = fmadd::<FMA>(*xi, alpha, pi);
        *ri = fmadd::<FMA>(*ri, malpha, api);
        tail = fmadd::<FMA>(tail, *ri, *ri);
    }
    fold_lanes(lanes, tail)
}

/// Block `r·z` with `z_i = minv_i * r_i` recomputed on the fly: the same
/// single-rounding multiply the Jacobi apply stores, fed to the same dot
/// lanes — bitwise-equal to apply-then-dot.
#[inline(always)]
fn rz_block_body<const FMA: bool>(minv: &[f64], r: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut ms = minv.chunks_exact(LANES);
    let mut rs = r.chunks_exact(LANES);
    for (mv, rv) in (&mut ms).zip(&mut rs) {
        for ((l, &mi), &ri) in lanes.iter_mut().zip(mv).zip(rv) {
            *l = fmadd::<FMA>(*l, ri, mi * ri);
        }
    }
    let mut tail = 0.0;
    for (&mi, &ri) in ms.remainder().iter().zip(rs.remainder()) {
        tail = fmadd::<FMA>(tail, ri, mi * ri);
    }
    fold_lanes(lanes, tail)
}

/// Block direction update `p = z + beta*p` with `z` recomputed from `minv`
/// and `r`.
#[inline(always)]
fn dir_update_block_body<const FMA: bool>(minv: &[f64], r: &[f64], beta: f64, p: &mut [f64]) {
    for ((pi, &mi), &ri) in p.iter_mut().zip(minv).zip(r) {
        *pi = fmadd::<FMA>(mi * ri, beta, *pi);
    }
}

/// Block direction update `p = z + beta*p` from a stored `z` (unfused leg).
#[inline(always)]
fn dir_update_z_block_body<const FMA: bool>(z: &[f64], beta: f64, p: &mut [f64]) {
    for (pi, &zi) in p.iter_mut().zip(z) {
        *pi = fmadd::<FMA>(zi, beta, *pi);
    }
}

/// Block CSR row sweep: `y[lo..] = A[lo.., :] x`. Non-FMA matches
/// `CsrMatrix::spmv_into` bitwise (same ascending-k accumulation).
#[inline(always)]
fn spmv_rows_body<const FMA: bool>(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    lo: usize,
    x: &[f64],
    y: &mut [f64],
) {
    for (i, yi) in y.iter_mut().enumerate() {
        let (start, end) = (row_ptr[lo + i], row_ptr[lo + i + 1]);
        let mut acc = 0.0;
        for (&v, &c) in values[start..end].iter().zip(&col_idx[start..end]) {
            acc = fmadd::<FMA>(acc, v, x[c]);
        }
        *yi = acc;
    }
}

/// Folds a finished row group into dot lanes carried across the groups of
/// one block. Groups are multiples of [`LANES`] long except the block's
/// last, so element `j` of the block lands in lane `j % 8` and the block's
/// last `len % 8` in `tail` — [`dot_block_body`]'s grouping.
#[inline(always)]
fn fold_group<const FMA: bool>(x: &[f64], y: &[f64], lanes: &mut [f64; LANES], tail: &mut f64) {
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xg, yg) in (&mut xc).zip(&mut yc) {
        for ((l, &a), &b) in lanes.iter_mut().zip(xg).zip(yg) {
            *l = fmadd::<FMA>(*l, a, b);
        }
    }
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        *tail = fmadd::<FMA>(*tail, a, b);
    }
}

/// Block CSR row sweep with the dot fused into row production: `y[lo..] =
/// A[lo.., :] x` and `x[lo..]·y[lo..]` in one pass, accumulating each
/// row's contribution while it is still in a register — `y` is written
/// once and never re-read. Row `i` of the block lands in lane `i % 8`
/// (the last `len % 8` rows in the scalar tail), exactly the grouping
/// [`dot_block_body`] applies to the finished block, so the fusion is
/// bitwise-invisible.
#[inline(always)]
fn spmv_rows_dot_body<const FMA: bool>(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    lo: usize,
    x: &[f64],
    y: &mut [f64],
) -> f64 {
    // Row-group staging: produce a 64-row subblock with the plain SpMV
    // loop (vectorizes exactly like `spmv_rows_body`), then fold it into
    // the dot lanes while it still sits in L1 — a second tight SIMD loop
    // instead of per-row lane bookkeeping that would wreck the row loop's
    // codegen. 64 is a multiple of the lane width, so carrying the lanes
    // across subblocks assigns element `j` of the block to lane `j % 8` —
    // exactly [`dot_block_body`]'s grouping, making the staging invisible.
    const SUB: usize = 64;
    let mut lanes = [0.0f64; LANES];
    let mut tail = 0.0;
    let len = y.len();
    let mut s = 0;
    while s < len {
        let e = (s + SUB).min(len);
        spmv_rows_body::<FMA>(row_ptr, col_idx, values, lo + s, x, &mut y[s..e]);
        fold_group::<FMA>(&x[lo + s..lo + e], &y[s..e], &mut lanes, &mut tail);
        s = e;
    }
    fold_lanes(lanes, tail)
}

/// Block `d`-wide CSR row sweep with the dot fused in: rows `lo..lo + len`
/// of `A` applied to `D` masked inputs at once. `xw[i]` holds the `D`
/// components of staged entry `i` side by side (padded to `W` lanes), so a
/// non-zero costs one load of its value and column index and one `W`-wide
/// multiply-add; lane `c` performs exactly [`spmv_rows_body`]'s
/// ascending-`k` chain on component `c`, and lanes never mix. Each 64-row
/// sub-block lands in a stack stage and is then de-interleaved into the
/// component outputs `ys[c]` — constrained rows overwritten with `xs[c]`,
/// the identity block of `P A P + (I − P)` — and folded into component
/// `c`'s dot lanes with [`spmv_rows_dot_body`]'s grouping (row `j` of the
/// block → lane `j mod 8`, tail first). Returns the `D` block partials.
#[inline(always)]
fn wide_rows_dot_body<const FMA: bool, const D: usize, const W: usize>(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    lo: usize,
    xw: &[[f64; W]],
    xs: &[&[f64]; D],
    masks: &[&[bool]; D],
    ys: [&mut [f64]; D],
) -> [f64; D] {
    const SUB: usize = 64;
    let mut stage = [[0.0f64; W]; SUB];
    let mut lanes = [[0.0f64; LANES]; D];
    let mut tail = [0.0f64; D];
    let len = ys[0].len();
    let mut s = 0;
    while s < len {
        let e = (s + SUB).min(len);
        for (i, out) in stage[..e - s].iter_mut().enumerate() {
            let (start, end) = (row_ptr[lo + s + i], row_ptr[lo + s + i + 1]);
            let mut acc = [0.0f64; W];
            for (&v, &col) in values[start..end].iter().zip(&col_idx[start..end]) {
                for (a, &xl) in acc.iter_mut().zip(&xw[col]) {
                    *a = fmadd::<FMA>(*a, v, xl);
                }
            }
            *out = acc;
        }
        for c in 0..D {
            let yv = &mut ys[c][s..e];
            let xv = &xs[c][lo + s..lo + e];
            let mv = &masks[c][lo + s..lo + e];
            for (((yi, row), &xi), &fixed) in yv.iter_mut().zip(&stage).zip(xv).zip(mv) {
                *yi = if fixed { xi } else { row[c] };
            }
            fold_group::<FMA>(xv, yv, &mut lanes[c], &mut tail[c]);
        }
        s = e;
    }
    std::array::from_fn(|c| fold_lanes(lanes[c], tail[c]))
}

fma_clones!(fn dot_block = dot_block_body(x: &[f64], y: &[f64]) -> f64);
fma_clones!(fn axpy_block = axpy_block_body(alpha: f64, x: &[f64], y: &mut [f64]));
fma_clones!(fn axpy2_nrm2_block = axpy2_nrm2_block_body(
    alpha: f64, malpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64],
) -> f64);
fma_clones!(fn rz_block = rz_block_body(minv: &[f64], r: &[f64]) -> f64);
fma_clones!(fn dir_update_block = dir_update_block_body(
    minv: &[f64], r: &[f64], beta: f64, p: &mut [f64],
));
fma_clones!(fn dir_update_z_block = dir_update_z_block_body(z: &[f64], beta: f64, p: &mut [f64]));
fma_clones!(fn spmv_rows = spmv_rows_body(
    row_ptr: &[usize], col_idx: &[usize], values: &[f64], lo: usize, x: &[f64], y: &mut [f64],
));
fma_clones!(fn spmv_rows_dot = spmv_rows_dot_body(
    row_ptr: &[usize], col_idx: &[usize], values: &[f64], lo: usize, x: &[f64], y: &mut [f64],
) -> f64);
fma_clones!(fn wide_rows_dot<D: usize, W: usize> = wide_rows_dot_body(
    row_ptr: &[usize], col_idx: &[usize], values: &[f64], lo: usize, xw: &[[f64; W]],
    xs: &[&[f64]; D], masks: &[&[bool]; D], ys: [&mut [f64]; D],
) -> [f64; D]);

// ---------------------------------------------------------------------------
// Public streaming ops. Each names its block grid once and hands it to `walk`
// / `walk_sum`. An empty operand is an empty grid: no update, a +0.0 sum.
// ---------------------------------------------------------------------------

/// Streaming dot product. Panics on length mismatch.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "stream::dot length mismatch");
    let bl = block_len(x.len());
    let blocks = x.par_chunks(bl).zip(y.par_chunks(bl));
    walk_sum(sweep_on_pool(2, x.len()), blocks, |(xv, yv)| dot_block(xv, yv))
}

/// Streaming squared Euclidean norm (`dot(x, x)` with the same grid).
fn nrm2_sq(x: &[f64]) -> f64 {
    let blocks = x.par_chunks(block_len(x.len()));
    walk_sum(sweep_on_pool(1, x.len()), blocks, |xv| dot_block(xv, xv))
}

/// Finalizes a Euclidean norm from a precomputed squared sum: `sqrt` on the
/// fast path, falling back to the scaled two-pass accumulation when the
/// squared sum over- or underflowed (see `dense::nrm2_from_sumsq`).
pub fn nrm2_from_sumsq(sumsq: f64, x: &[f64]) -> f64 {
    if sumsq.is_finite() && sumsq >= f64::MIN_POSITIVE {
        sumsq.sqrt()
    } else {
        nrm2_scaled(x)
    }
}

/// Streaming overflow-safe Euclidean norm.
pub fn nrm2(x: &[f64]) -> f64 {
    nrm2_from_sumsq(nrm2_sq(x), x)
}

/// Streaming `y += alpha * x`. Panics on length mismatch.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "stream::axpy length mismatch");
    let bl = block_len(x.len());
    let blocks = y.par_chunks_mut(bl).zip(x.par_chunks(bl));
    walk(sweep_on_pool(2, x.len()), blocks, |(yv, xv)| axpy_block(alpha, xv, yv));
}

/// Streaming CSR SpMV `y = A x` over the row block grid.
pub fn spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "stream::spmv x length mismatch");
    assert_eq!(y.len(), a.rows(), "stream::spmv y length mismatch");
    let bl = block_len(a.rows());
    let (rp, ci, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let blocks = y.par_chunks_mut(bl).enumerate();
    walk(rows_on_pool(a), blocks, |(b, yv)| spmv_rows(rp, ci, vals, b * bl, x, yv));
}

/// Fused SpMV + dot: `y = A x` and `x·y` in one sweep. Requires a square
/// operator. The per-block dot reads the freshly written `y` rows while
/// they are cache-hot — bitwise-equal to `spmv` followed by [`dot`].
pub fn spmv_dot(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(a.rows(), a.cols(), "stream::spmv_dot needs a square operator");
    assert_eq!(x.len(), a.cols(), "stream::spmv_dot x length mismatch");
    assert_eq!(y.len(), a.rows(), "stream::spmv_dot y length mismatch");
    let bl = block_len(a.rows());
    let (rp, ci, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let blocks = y.par_chunks_mut(bl).enumerate();
    walk_sum(rows_on_pool(a), blocks, |(b, yv)| spmv_rows_dot(rp, ci, vals, b * bl, x, yv))
}

/// Masks `x` into `tmp` (constrained entries zeroed) — phase 1 of the
/// projected operator `P A P + (I - P)`.
fn mask_into(x: &[f64], mask: &[bool], tmp: &mut [f64]) {
    let bl = block_len(x.len());
    let blocks = tmp.par_chunks_mut(bl).zip(x.par_chunks(bl)).zip(mask.par_chunks(bl));
    walk(sweep_on_pool(3, x.len()), blocks, |((tv, xv), mv)| {
        for ((t, &xi), &c) in tv.iter_mut().zip(xv).zip(mv) {
            *t = if c { 0.0 } else { xi };
        }
    });
}

/// One row-block of the constrained operator: `y = A tmp`, then constrained
/// rows overwritten with `x` (identity block keeps the system SPD).
#[inline]
fn constrained_rows(
    a: &CsrMatrix,
    lo: usize,
    x: &[f64],
    mask: &[bool],
    tmp: &[f64],
    yv: &mut [f64],
) {
    spmv_rows(a.row_ptr(), a.col_idx(), a.values(), lo, tmp, yv);
    let hi = lo + yv.len();
    for ((yi, &xi), &c) in yv.iter_mut().zip(&x[lo..hi]).zip(&mask[lo..hi]) {
        if c {
            *yi = xi;
        }
    }
}

/// The operand shapes of the two scalar constrained sweeps; returns `n`.
fn constrained_shapes(a: &CsrMatrix, x: &[f64], mask: &[bool], tmp: &[f64], y: &[f64]) -> usize {
    let n = a.rows();
    assert_eq!(a.cols(), n, "stream::spmv_constrained needs a square operator");
    assert_eq!(x.len(), n, "stream::spmv_constrained x length mismatch");
    assert_eq!(mask.len(), n, "stream::spmv_constrained mask length mismatch");
    assert_eq!(tmp.len(), n, "stream::spmv_constrained tmp length mismatch");
    assert_eq!(y.len(), n, "stream::spmv_constrained y length mismatch");
    n
}

/// Constrained operator apply `y = (P A P + (I - P)) x` using `tmp` as the
/// masked-input scratch (the unfused leg of [`spmv_constrained_dot`]).
fn spmv_constrained(a: &CsrMatrix, x: &[f64], mask: &[bool], tmp: &mut [f64], y: &mut [f64]) {
    let bl = block_len(constrained_shapes(a, x, mask, tmp, y));
    mask_into(x, mask, tmp);
    let blocks = y.par_chunks_mut(bl).enumerate();
    walk(rows_on_pool(a), blocks, |(b, yv)| constrained_rows(a, b * bl, x, mask, tmp, yv));
}

/// Fused constrained apply + dot: [`spmv_constrained`] producing `x·y` in
/// the same row sweep (the fixup runs before the block dot, exactly as the
/// unfused apply-then-dot sequence sees it).
fn spmv_constrained_dot(
    a: &CsrMatrix,
    x: &[f64],
    mask: &[bool],
    tmp: &mut [f64],
    y: &mut [f64],
) -> f64 {
    let bl = block_len(constrained_shapes(a, x, mask, tmp, y));
    mask_into(x, mask, tmp);
    let blocks = y.par_chunks_mut(bl).enumerate();
    walk_sum(rows_on_pool(a), blocks, |(b, yv)| {
        let lo = b * bl;
        constrained_rows(a, lo, x, mask, tmp, yv);
        dot_block(&x[lo..lo + yv.len()], yv)
    })
}

/// Staging `n`-vectors the `d`-wide constrained sweep needs: the `d`
/// masked inputs interleaved and padded to a power of two, so one non-zero
/// is one 128-bit (`d` = 2) or 256-bit (`d` = 3) multiply-add. Every other
/// `d` walks the components one scalar sweep at a time over a single
/// `n`-vector.
pub const fn wide_lanes(d: usize) -> usize {
    match d {
        2 => 2,
        3 => 4,
        _ => 1,
    }
}

/// The fixed row-block grid over `D` component-blocked output vectors:
/// item `b` is `[y_0[b·bl..], …, y_{D−1}[b·bl..]]`, the rows of block `b`
/// in every component — what one block of the `d`-wide sweep writes.
struct WideBlocks<'a, const D: usize> {
    comps: [&'a mut [f64]; D],
    bl: usize,
}

impl<'a, const D: usize> WideBlocks<'a, D> {
    /// Splits the first `rows` rows (or what is left) off every component.
    fn take_rows(&mut self, rows: usize) -> [&'a mut [f64]; D] {
        std::array::from_fn(|c| {
            let v = std::mem::take(&mut self.comps[c]);
            let (head, tail) = v.split_at_mut(rows.min(v.len()));
            self.comps[c] = tail;
            head
        })
    }
}

impl<'a, const D: usize> Iterator for WideBlocks<'a, D> {
    type Item = [&'a mut [f64]; D];
    fn next(&mut self) -> Option<Self::Item> {
        (!self.comps[0].is_empty()).then(|| self.take_rows(self.bl))
    }
}

impl<'a, const D: usize> Producer for WideBlocks<'a, D> {
    type Item = [&'a mut [f64]; D];
    type IntoIter = Self;
    fn len(&self) -> usize {
        self.comps[0].len().div_ceil(self.bl)
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let left = self.take_rows(index * self.bl);
        (Self { comps: left, bl: self.bl }, self)
    }
    fn into_iter(self) -> Self {
        self
    }
}

/// Phase 1 of the `d`-wide projected operator: the `D` masked inputs
/// interleaved into `tmp[i] = [x_0[i], …, x_{D−1}[i], 0…]`, constrained
/// entries zeroed — per lane the values [`mask_into`] stages. Every lane
/// of every row is written, the padding with zeros.
fn mask_wide_into<const D: usize, const W: usize>(
    xs: &[&[f64]; D],
    masks: &[&[bool]; D],
    tmp: &mut [[f64; W]],
) {
    let n = tmp.len();
    let bl = block_len(n);
    let blocks = tmp.par_chunks_mut(bl).enumerate();
    walk(sweep_on_pool(2 * D + W, n), blocks, |(b, rows)| {
        for (i, row) in (b * bl..).zip(rows) {
            *row = std::array::from_fn(|c| {
                if c < D && !masks[c][i] {
                    xs[c][i]
                } else {
                    0.0
                }
            });
        }
    });
}

/// The `D`-wide constrained apply + dot over the fixed row-block grid (see
/// [`spmv_constrained_dot_wide`]).
fn constrained_wide<const D: usize, const W: usize>(
    a: &CsrMatrix,
    x: &[f64],
    masks: &[&[bool]],
    tmp: &mut [f64],
    y: &mut [f64],
) -> [f64; D] {
    const { assert!(W == wide_lanes(D), "the staging width is a function of `D`") };
    let n = a.rows();
    assert_eq!(a.cols(), n, "stream::spmv_constrained_wide needs a square operator");
    assert_eq!(x.len(), D * n, "stream::spmv_constrained_wide x length mismatch");
    assert_eq!(y.len(), D * n, "stream::spmv_constrained_wide y length mismatch");
    assert_eq!(tmp.len(), W * n, "stream::spmv_constrained_wide tmp length mismatch");
    assert_eq!(masks.len(), D, "stream::spmv_constrained_wide needs one mask per component");
    for mask in masks {
        assert_eq!(mask.len(), n, "stream::spmv_constrained_wide mask length mismatch");
    }
    let xs: [&[f64]; D] = std::array::from_fn(|c| &x[c * n..(c + 1) * n]);
    let masks: [&[bool]; D] = std::array::from_fn(|c| masks[c]);
    let (xw, _) = tmp.as_chunks_mut::<W>();
    mask_wide_into(&xs, &masks, xw);
    let xw = &*xw;

    let bl = block_len(n);
    let (rp, ci, vals) = (a.row_ptr(), a.col_idx(), a.values());
    // `y` holds the `D` components back to back, `n` rows each.
    let mut rest = y;
    let comps = std::array::from_fn(|_| rest.split_off_mut(..n).expect("`y` holds `D` components"));
    let blocks = WideBlocks::<D> { comps, bl };
    let nblocks = blocks.len();
    let partials: [Partials; D] = std::array::from_fn(|_| Partials::new());
    walk(rows_on_pool(a), IndexedParallelIterator::enumerate(blocks), |(b, ys)| {
        let dots = wide_rows_dot(rp, ci, vals, b * bl, xw, &xs, &masks, ys);
        for (p, &dot) in partials.iter().zip(&dots) {
            p.set(b, dot);
        }
    });
    partials.map(|p| p.fold(nblocks))
}

/// `d`-wide constrained apply: `y_c = (P_c A P_c + (I − P_c)) x_c` for the
/// `d = masks.len()` component blocks `[c·n..(c+1)·n]` of `x` and `y`, the
/// matrix streamed once for all of them (`d` = 2, 3; any other `d` is `d`
/// scalar `spmv_constrained` sweeps). `tmp` is the masked-input staging,
/// [`wide_lanes`]`(d)·n` long and fully overwritten. Per component
/// bitwise-equal to `spmv_constrained`.
pub fn spmv_constrained_wide(
    a: &CsrMatrix,
    x: &[f64],
    masks: &[&[bool]],
    tmp: &mut [f64],
    y: &mut [f64],
) {
    let n = a.rows();
    match masks.len() {
        // The shared sweep produces the dots anyway; they are dropped.
        d @ (2 | 3) => spmv_constrained_dot_wide(a, x, masks, tmp, y, &mut [0.0; 3][..d]),
        _ => {
            for (c, mask) in masks.iter().enumerate() {
                let at = c * n..(c + 1) * n;
                spmv_constrained(a, &x[at.clone()], mask, tmp, &mut y[at]);
            }
        }
    }
}

/// Fused [`spmv_constrained_wide`] + the `d` dots `dots[c] = x_c·y_c` from
/// the same row sweep: per component bitwise-equal to
/// `spmv_constrained_dot` (the wide sweep keeps each component's
/// ascending-`k` row chain, its 8 dot lanes and its 64 block partials).
pub fn spmv_constrained_dot_wide(
    a: &CsrMatrix,
    x: &[f64],
    masks: &[&[bool]],
    tmp: &mut [f64],
    y: &mut [f64],
    dots: &mut [f64],
) {
    let n = a.rows();
    assert_eq!(dots.len(), masks.len(), "stream::spmv_constrained_dot_wide dots length mismatch");
    match masks.len() {
        2 => dots.copy_from_slice(&constrained_wide::<2, 2>(a, x, masks, tmp, y)),
        3 => dots.copy_from_slice(&constrained_wide::<3, 4>(a, x, masks, tmp, y)),
        _ => {
            for ((c, mask), dot) in masks.iter().enumerate().zip(dots) {
                let at = c * n..(c + 1) * n;
                *dot = spmv_constrained_dot(a, &x[at.clone()], mask, tmp, &mut y[at]);
            }
        }
    }
}

/// Fused pair update: `x += alpha*p; r -= alpha*ap`, returning the new
/// `sum(r_i^2)` from the same sweep (finalize with [`nrm2_from_sumsq`]).
pub fn axpy2_nrm2(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = p.len();
    assert_eq!(ap.len(), n, "stream::axpy2_nrm2 ap length mismatch");
    assert_eq!(x.len(), n, "stream::axpy2_nrm2 x length mismatch");
    assert_eq!(r.len(), n, "stream::axpy2_nrm2 r length mismatch");
    let bl = block_len(n);
    let blocks =
        x.par_chunks_mut(bl).zip(r.par_chunks_mut(bl)).zip(p.par_chunks(bl)).zip(ap.par_chunks(bl));
    walk_sum(sweep_on_pool(4, n), blocks, |(((xv, rv), pv), apv)| {
        axpy2_nrm2_block(alpha, -alpha, pv, apv, xv, rv)
    })
}

/// Fused Jacobi apply + `r·z` + direction update, never materializing `z`:
///
/// * `rz_prev = None` (setup): `p = z` and `r·z` is returned;
/// * `rz_prev = Some(rz)`: `beta = r·z_new / rz`, then `p = z + beta*p`.
///
/// Returns `r·z_new`. Bitwise-equal to apply / dot / update as three sweeps.
pub fn precond_dot_update(minv: &[f64], r: &[f64], rz_prev: Option<f64>, p: &mut [f64]) -> f64 {
    let n = r.len();
    assert_eq!(minv.len(), n, "stream::precond_dot_update minv length mismatch");
    assert_eq!(p.len(), n, "stream::precond_dot_update p length mismatch");
    let bl = block_len(n);
    // Phase A: the r·z reduction (needs every block before beta exists).
    let blocks = minv.par_chunks(bl).zip(r.par_chunks(bl));
    let rz = walk_sum(sweep_on_pool(2, n), blocks, |(mv, rv)| rz_block(mv, rv));

    // Phase B: direction update with z recomputed (one multiply per entry,
    // cheaper than a DRAM round-trip for a stored z).
    let blocks = p.par_chunks_mut(bl).zip(minv.par_chunks(bl)).zip(r.par_chunks(bl));
    match rz_prev {
        // Setup: p = z exactly (same bits as a Jacobi apply + copy).
        None => walk(sweep_on_pool(3, n), blocks, |((pv, mv), rv)| {
            for ((pi, &mi), &ri) in pv.iter_mut().zip(mv).zip(rv) {
                *pi = mi * ri;
            }
        }),
        Some(prev) => {
            let beta = rz / prev;
            walk(sweep_on_pool(3, n), blocks, |((pv, mv), rv)| dir_update_block(mv, rv, beta, pv));
        }
    }
    rz
}

/// Direction update `p = z + beta*p` from a stored `z` (the unfused leg;
/// same FMA regime as the fused [`precond_dot_update`] phase B).
pub fn update_direction(beta: f64, z: &[f64], p: &mut [f64]) {
    assert_eq!(z.len(), p.len(), "stream::update_direction length mismatch");
    let bl = block_len(z.len());
    let blocks = p.par_chunks_mut(bl).zip(z.par_chunks(bl));
    walk(sweep_on_pool(2, z.len()), blocks, |(pv, zv)| dir_update_z_block(zv, beta, pv));
}

/// Scalar serial oracle: the same block grid and lane structure as the
/// dispatched kernels, instantiated with `FMA = false` and driven serially —
/// the `dense::naive`-style reference the property tests pin against.
/// Bitwise-equal to the dispatched ops on hosts without FMA clones
/// ([`fma_active`]` == false`), ULP-bounded-close otherwise.
pub mod reference {
    use super::*;

    /// Reference dot product.
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "reference dot length mismatch");
        let n = x.len();
        if n == 0 {
            return 0.0;
        }
        let bl = block_len(n);
        x.chunks(bl)
            .zip(y.chunks(bl))
            .fold(0.0, |acc, (xv, yv)| acc + dot_block_body::<false>(xv, yv))
    }

    /// Reference squared norm.
    fn nrm2_sq(x: &[f64]) -> f64 {
        let n = x.len();
        if n == 0 {
            return 0.0;
        }
        let bl = block_len(n);
        x.chunks(bl).fold(0.0, |acc, xv| acc + dot_block_body::<false>(xv, xv))
    }

    /// Reference overflow-safe norm.
    pub fn nrm2(x: &[f64]) -> f64 {
        nrm2_from_sumsq(nrm2_sq(x), x)
    }

    /// Reference `y += alpha * x` (identical to `dense::axpy`).
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "reference axpy length mismatch");
        axpy_block_body::<false>(alpha, x, y);
    }

    /// Reference fused pair update (serial, two-rounding).
    pub fn axpy2_nrm2(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
        let n = p.len();
        if n == 0 {
            return 0.0;
        }
        let bl = block_len(n);
        let malpha = -alpha;
        let it = x.chunks_mut(bl).zip(r.chunks_mut(bl)).zip(p.chunks(bl)).zip(ap.chunks(bl));
        it.fold(0.0, |acc, (((xv, rv), pv), apv)| {
            acc + axpy2_nrm2_block_body::<false>(alpha, malpha, pv, apv, xv, rv)
        })
    }

    /// Reference fused precondition + dot + update (serial, two-rounding).
    pub fn precond_dot_update(minv: &[f64], r: &[f64], rz_prev: Option<f64>, p: &mut [f64]) -> f64 {
        let n = r.len();
        if n == 0 {
            return 0.0;
        }
        let bl = block_len(n);
        let rz = minv
            .chunks(bl)
            .zip(r.chunks(bl))
            .fold(0.0, |acc, (mv, rv)| acc + rz_block_body::<false>(mv, rv));
        match rz_prev {
            None => {
                for ((pi, &mi), &ri) in p.iter_mut().zip(minv).zip(r) {
                    *pi = mi * ri;
                }
            }
            Some(prev) => {
                let beta = rz / prev;
                dir_update_block_body::<false>(minv, r, beta, p);
            }
        }
        rz
    }

    /// Reference direction update from a stored `z`.
    pub fn update_direction(beta: f64, z: &[f64], p: &mut [f64]) {
        assert_eq!(z.len(), p.len(), "reference update_direction length mismatch");
        dir_update_z_block_body::<false>(z, beta, p);
    }

    /// Reference SpMV (identical to `CsrMatrix::spmv_into`).
    pub fn spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        a.spmv_into(x, y);
    }

    /// Reference SpMV + dot as two serial sweeps.
    pub fn spmv_dot(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
        a.spmv_into(x, y);
        dot(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 101) as f64 * 0.013 - 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 53 + 7) % 89) as f64 * 0.017 - 0.7).collect();
        (x, y)
    }

    fn banded(n: usize, half_band: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0 * half_band as f64 + 1.0);
            for o in 1..=half_band {
                if i >= o {
                    b.add(i, i - o, -0.4);
                }
                if i + o < n {
                    b.add(i, i + o, -0.4);
                }
            }
        }
        b.build()
    }

    const SIZES: [usize; 10] = [0, 1, 2, 7, 8, 63, 64, 65, 500, 4097];

    #[test]
    fn dot_matches_reference_regimes() {
        for &n in &SIZES {
            let (x, y) = vecs(n);
            let fused = dot(&x, &y);
            let oracle = reference::dot(&x, &y);
            if fma_active() {
                let tol = 1e-13 * oracle.abs().max(1.0);
                assert!((fused - oracle).abs() <= tol, "n={n}: {fused} vs {oracle}");
            } else {
                assert_eq!(fused.to_bits(), oracle.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn spmv_dot_equals_spmv_then_dot_bitwise() {
        // Fused vs unfused *dispatched* paths share every rounding: equal
        // bits in both regimes.
        for &n in &[1usize, 7, 64, 65, 500] {
            let a = banded(n, 3.min(n.saturating_sub(1)).max(1));
            let (x, _) = vecs(n);
            let mut y1 = vec![0.0; n];
            let fused = spmv_dot(&a, &x, &mut y1);
            let mut y2 = vec![0.0; n];
            spmv(&a, &x, &mut y2);
            let unfused = dot(&x, &y2);
            assert_eq!(y1, y2, "n={n}");
            assert_eq!(fused.to_bits(), unfused.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy2_nrm2_equals_two_axpys_and_dot_bitwise() {
        for &n in &[1usize, 9, 64, 129, 1000] {
            let (p, ap) = vecs(n);
            let (x0, r0) = vecs(n);
            let alpha = 0.37;

            let (mut x1, mut r1) = (x0.clone(), r0.clone());
            let sumsq = axpy2_nrm2(alpha, &p, &ap, &mut x1, &mut r1);

            let (mut x2, mut r2) = (x0.clone(), r0.clone());
            axpy(alpha, &p, &mut x2);
            axpy(-alpha, &ap, &mut r2);
            assert_eq!(x1, x2, "n={n}");
            assert_eq!(r1, r2, "n={n}");
            assert_eq!(sumsq.to_bits(), nrm2_sq(&r2).to_bits(), "n={n}");
        }
    }

    #[test]
    fn precond_dot_update_equals_unfused_bitwise() {
        for &n in &[1usize, 9, 64, 129, 1000] {
            let (r, minv_raw) = vecs(n);
            let minv: Vec<f64> = minv_raw.iter().map(|&m| m.abs() + 0.1).collect();
            let (p0, _) = vecs(n);

            // Setup (rz_prev = None) == apply + copy.
            let mut p1 = p0.clone();
            let rz1 = precond_dot_update(&minv, &r, None, &mut p1);
            let z: Vec<f64> = minv.iter().zip(&r).map(|(&m, &ri)| m * ri).collect();
            assert_eq!(p1, z, "n={n}");
            assert_eq!(rz1.to_bits(), dot(&r, &z).to_bits(), "n={n}");

            // Update (rz_prev = Some) == apply + dot + update_direction.
            let mut p2 = p0.clone();
            let rz2 = precond_dot_update(&minv, &r, Some(rz1), &mut p2);
            let mut p3 = p0.clone();
            update_direction(rz2 / rz1, &z, &mut p3);
            assert_eq!(p2, p3, "n={n}");
        }
    }

    #[test]
    fn thread_count_invariance() {
        let n = 70_000; // 2n elements swept: above `PAR_MIN_SWEPT`
        let (x, y) = vecs(n);
        let base = dot(&x, &y);
        for threads in [1usize, 2, 4, 8] {
            let got = rayon::Pool::new(threads).install(|| dot(&x, &y));
            assert_eq!(got.to_bits(), base.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_element_operands() {
        // Every public op on an empty grid (`n = 0`: sums are `+0.0`, updates touch
        // nothing) and on one block of one element (the single product, exact).
        for n in [0usize, 1] {
            let (k, bits) = (n as f64, |v: f64| v.to_bits());
            let mut diag = CsrBuilder::new(n, n);
            (0..n).for_each(|i| diag.add(i, i, 3.0));
            let a = diag.build();
            let (x, free, fixed) = (vec![2.0; n], vec![false; n], vec![true; n]);
            assert_eq!(bits(dot(&x, &x)), bits(4.0 * k));
            assert_eq!(bits(nrm2_sq(&x)), bits(4.0 * k));
            assert_eq!(bits(nrm2(&x)), bits(2.0 * k));
            let (mut y, mut tmp) = (vec![1.0; n], vec![f64::NAN; n]);
            axpy(3.0, &x, &mut y);
            assert_eq!(y, vec![7.0; n]);
            spmv(&a, &x, &mut y);
            assert_eq!(y, vec![6.0; n]);
            assert_eq!(bits(spmv_dot(&a, &x, &mut y)), bits(12.0 * k));
            spmv_constrained(&a, &x, &fixed, &mut tmp, &mut y);
            assert_eq!(y, x, "a constrained row is the identity");
            assert_eq!(bits(spmv_constrained_dot(&a, &x, &free, &mut tmp, &mut y)), bits(12.0 * k));
            for d in 1..=3 {
                let (xs, masks) = (vec![2.0; d * n], vec![&free[..]; d]);
                let (mut ys, mut dots) = (vec![0.0; d * n], vec![f64::NAN; d]);
                let mut tmp = vec![f64::NAN; wide_lanes(d) * n];
                spmv_constrained_wide(&a, &xs, &masks, &mut tmp, &mut ys);
                assert_eq!(ys, vec![6.0; d * n], "d={d}");
                spmv_constrained_dot_wide(&a, &xs, &masks, &mut tmp, &mut ys, &mut dots);
                assert!(dots.iter().all(|&dot| bits(dot) == bits(12.0 * k)), "d={d}: {dots:?}");
            }
            // y = 6 + 0.5·2, r = 5 − 0.5·2; z = 2·4, r·z = 32; β = 2, p = 8 + 2·8; p = 2 + 24/2.
            let (mut r, mut p) = (vec![5.0; n], vec![f64::NAN; n]);
            assert_eq!(bits(axpy2_nrm2(0.5, &x, &x, &mut y, &mut r)), bits(16.0 * k));
            assert_eq!((y, &r), (vec![7.0; n], &vec![4.0; n]));
            assert_eq!(bits(precond_dot_update(&x, &r, None, &mut p)), bits(32.0 * k));
            assert_eq!(bits(precond_dot_update(&x, &r, Some(16.0), &mut p)), bits(32.0 * k));
            update_direction(0.5, &x, &mut p);
            assert_eq!(p, vec![14.0; n]);
        }
    }

    /// `d` component vectors back to back, and a distinct mask per component.
    fn wide_inputs(n: usize, d: usize) -> (Vec<f64>, Vec<Vec<bool>>) {
        let x = (0..d * n).map(|i| ((i * 29 + 5) % 97) as f64 * 0.021 - 0.9).collect();
        let masks = (0..d).map(|c| (0..n).map(|i| (i + 3 * c) % (5 + 2 * c) == 0).collect()).collect();
        (x, masks)
    }

    fn wide_sweep(a: &CsrMatrix, x: &[f64], masks: &[Vec<bool>]) -> (Vec<f64>, Vec<f64>) {
        let (n, d) = (a.rows(), masks.len());
        let masks: Vec<&[bool]> = masks.iter().map(|m| &m[..]).collect();
        // Stale staging must not matter: every lane is rewritten per call.
        let mut tmp = vec![f64::NAN; wide_lanes(d) * n];
        let mut y = vec![f64::NAN; d * n];
        let mut dots = vec![f64::NAN; d];
        spmv_constrained_dot_wide(a, x, &masks, &mut tmp, &mut y, &mut dots);
        let mut y_apply = vec![f64::NAN; d * n];
        spmv_constrained_wide(a, x, &masks, &mut tmp, &mut y_apply);
        assert_eq!(y, y_apply, "n={n} d={d}: apply and apply+dot must write the same rows");
        (y, dots)
    }

    #[test]
    fn constrained_wide_equals_scalar_constrained_dot_bitwise() {
        // One row sweep for `d` components vs `d` scalar sweeps, both
        // dispatched: every component shares every rounding, in both regimes.
        for d in 1..=4usize {
            for &n in &[1usize, 7, 63, 64, 65, 500, 4097] {
                let a = banded(n, 5.min(n - 1));
                let (x, masks) = wide_inputs(n, d);
                let (y, dots) = wide_sweep(&a, &x, &masks);
                for c in 0..d {
                    let at = c * n..(c + 1) * n;
                    let mut tmp = vec![0.0; n];
                    let mut y_c = vec![0.0; n];
                    let dot = spmv_constrained_dot(&a, &x[at.clone()], &masks[c], &mut tmp, &mut y_c);
                    assert_eq!(y[at], y_c, "n={n} d={d} c={c}");
                    assert_eq!(dots[c].to_bits(), dot.to_bits(), "n={n} d={d} c={c}");
                }
            }
        }
    }

    #[test]
    fn constrained_wide_matches_reference_regimes() {
        for d in 2..=3usize {
            for &n in &[1usize, 65, 500, 4097] {
                let a = banded(n, 4.min(n - 1));
                let (x, masks) = wide_inputs(n, d);
                let (y, dots) = wide_sweep(&a, &x, &masks);
                for c in 0..d {
                    let x_c = &x[c * n..(c + 1) * n];
                    let staged: Vec<f64> =
                        x_c.iter().zip(&masks[c]).map(|(&v, &m)| if m { 0.0 } else { v }).collect();
                    let mut oracle = vec![0.0; n];
                    reference::spmv(&a, &staged, &mut oracle);
                    for i in (0..n).filter(|&i| masks[c][i]) {
                        oracle[i] = x_c[i];
                    }
                    let dot = reference::dot(x_c, &oracle);
                    let y_c = &y[c * n..(c + 1) * n];
                    if fma_active() {
                        let tol = |v: f64| 1e-13 * v.abs().max(1.0);
                        assert!((dots[c] - dot).abs() <= tol(dot), "n={n} d={d} c={c}");
                        assert!(y_c.iter().zip(&oracle).all(|(u, v)| (u - v).abs() <= tol(*v)));
                    } else {
                        assert_eq!(dots[c].to_bits(), dot.to_bits(), "n={n} d={d} c={c}");
                        assert_eq!(y_c, oracle, "n={n} d={d} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn constrained_wide_thread_count_invariance() {
        // Above both pool thresholds: 2^15 non-zeros for the row sweep,
        // 2^17 streamed elements for the interleaving mask pass.
        let n = 22_000;
        let a = banded(n, 3);
        for d in 2..=3usize {
            let (x, masks) = wide_inputs(n, d);
            let base = wide_sweep(&a, &x, &masks);
            for threads in [1usize, 2, 4, 8] {
                let got = rayon::Pool::new(threads).install(|| wide_sweep(&a, &x, &masks));
                assert_eq!(got.0, base.0, "d={d} threads={threads}");
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.1), bits(&base.1), "d={d} threads={threads}");
            }
        }
    }

    #[test]
    fn constrained_dot_matches_manual_projection() {
        let n = 200;
        let a = banded(n, 4);
        let (x, _) = vecs(n);
        let mask: Vec<bool> = (0..n).map(|i| i % 17 == 0).collect();
        let mut tmp = vec![0.0; n];
        let mut y1 = vec![0.0; n];
        let pap = spmv_constrained_dot(&a, &x, &mask, &mut tmp, &mut y1);

        let mut tmp2 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_constrained(&a, &x, &mask, &mut tmp2, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(pap.to_bits(), dot(&x, &y2).to_bits());
        for i in (0..n).filter(|i| mask[*i]) {
            assert_eq!(y1[i], x[i], "constrained row {i} must be identity");
        }
    }
}
