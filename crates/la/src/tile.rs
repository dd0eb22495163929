//! Cache-blocked, register-tiled GEMM micro-kernels (the host-side analog
//! of the paper's batched CUDA kernels).
//!
//! One generic core serves all three public transpose variants
//! (`gemm_nn/nt/tn`): the operand layout is absorbed by the strided loads
//! of the register tile, and operands are read in place — no packing, no
//! workspace, so the batched per-zone calls stay allocation-free on every
//! thread.
//!
//! Blocking scheme:
//!
//! * `MR x NR` register tile: a fixed-size `[[f64; MR]; NR]` accumulator
//!   that LLVM keeps entirely in vector registers; fixed-size array views
//!   eliminate bounds checks so the inner loop autovectorizes.
//! * `KC`: the k-dimension cache block. C is read into registers once per
//!   KC block and written back once, instead of once per rank-1 update as
//!   the naive axpy loop does — that store-traffic reduction is where the
//!   speedup comes from at the paper's Table-3 shapes.
//!
//! # Determinism contract
//!
//! Every element of C is produced by the same accumulation chain
//! regardless of the tile configuration: `c = beta*c` first, then one
//! update per `p` in ascending order, with C round-tripping through
//! memory exactly (f64 store/load is lossless) between KC blocks. The
//! results are therefore **bitwise independent of the tile
//! configuration** (any `MR`, `NR`, `KC`): a tile sweep measures speed
//! only, and the PR-3 thread-count determinism guarantee
//! (`tests/host_determinism.rs`) does not depend on the choice.
//!
//! Relative to the naive reference ([`crate::dense::naive`]) there are
//! two regimes, selected once per process by the level (`crate::simd`,
//! shared with [`crate::stream`]; [`fma_active`] reads it):
//!
//! * **Scalar baseline** (level 0): the update is the reference's
//!   exact two-rounding `c += (alpha*b[p,j]) * a[i,p]`, including its
//!   skip of terms whose folded B entry is exactly `0.0` — NN/NT results
//!   are *bitwise identical* to the reference.
//! * **Wide clones** (AVX2+FMA or AVX-512+FMA): the update is a single
//!   fused multiply-add (one rounding) and the zero-skip is dropped, so
//!   results are ULP-bounded-close to the reference rather than equal.
//!   Still fully deterministic: the same host always produces the same
//!   bits at any thread count and any tile configuration.
//!
//! The TN variant additionally trades the reference's dot-product
//! accumulation for the same axpy order as NN/NT, so it is ULP-close to
//! its naive counterpart in both regimes.

pub use crate::simd::fma_active;
use crate::simd::{fma_clones, fmadd};

/// Operand orientation for [`gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored (column-major).
    N,
    /// Use the transpose of the stored operand.
    T,
}

/// Register micro-tile shapes the core is monomorphized over.
///
/// `Mr8Nr4` is the default: 8 accumulator lanes per column x 4 columns
/// fills about 11 of the 16 AVX2 vector registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroTile {
    /// 4 x 4 register tile.
    Mr4Nr4,
    /// 8 x 4 register tile.
    Mr8Nr4,
    /// 12 x 4 register tile (fills the AVX2 register file).
    Mr12Nr4,
    /// 4 x 8 register tile.
    Mr4Nr8,
}

impl MicroTile {
    /// Rows of the register tile.
    pub fn mr(&self) -> usize {
        match self {
            MicroTile::Mr4Nr4 | MicroTile::Mr4Nr8 => 4,
            MicroTile::Mr8Nr4 => 8,
            MicroTile::Mr12Nr4 => 12,
        }
    }

    /// Columns of the register tile.
    pub fn nr(&self) -> usize {
        match self {
            MicroTile::Mr4Nr4 | MicroTile::Mr8Nr4 | MicroTile::Mr12Nr4 => 4,
            MicroTile::Mr4Nr8 => 8,
        }
    }
}

/// Host tile parameters: the register tile plus the `KC` cache block.
/// These are the knobs the `host_kernels` sweep times per FE order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileConfig {
    /// Register micro-tile shape.
    pub micro: MicroTile,
    /// k-dimension cache block.
    pub kc: usize,
}

impl TileConfig {
    /// The configuration [`gemm`] runs.
    pub const DEFAULT: TileConfig = TileConfig { micro: MicroTile::Mr8Nr4, kc: 256 };
}

/// The candidate grid the host-tile sweeps time (each passed explicitly to
/// [`gemm_tiled_direct`]). Every candidate produces bitwise-identical NN/NT
/// results (see the module docs).
pub const CANDIDATES: [TileConfig; 12] = [
    TileConfig { micro: MicroTile::Mr4Nr4, kc: 64 },
    TileConfig { micro: MicroTile::Mr4Nr4, kc: 128 },
    TileConfig { micro: MicroTile::Mr4Nr4, kc: 256 },
    TileConfig { micro: MicroTile::Mr8Nr4, kc: 64 },
    TileConfig { micro: MicroTile::Mr8Nr4, kc: 128 },
    TileConfig { micro: MicroTile::Mr8Nr4, kc: 256 },
    TileConfig { micro: MicroTile::Mr12Nr4, kc: 64 },
    TileConfig { micro: MicroTile::Mr12Nr4, kc: 128 },
    TileConfig { micro: MicroTile::Mr12Nr4, kc: 256 },
    TileConfig { micro: MicroTile::Mr4Nr8, kc: 64 },
    TileConfig { micro: MicroTile::Mr4Nr8, kc: 128 },
    TileConfig { micro: MicroTile::Mr4Nr8, kc: 256 },
];

/// `C = alpha * op_a(A) * op_b(B) + beta * C` on column-major slices, via
/// [`TileConfig::DEFAULT`]. `(m, n, k)` are the shapes *after*
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
    assert!(!(op_a == Op::T && op_b == Op::T), "gemm: A^T * B^T is not supported");
    debug_assert!(a.len() >= m * k);
    debug_assert!(b.len() >= k * n);
    debug_assert!(c.len() >= m * n);
    gemm_tiled_direct(TileConfig::DEFAULT, m, n, k, alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm`] under an explicit tile configuration (the tile sweeps time
/// candidates through this): register tiling + KC blocking,
/// operands read in place.
pub fn gemm_tiled_direct(
    cfg: TileConfig,
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
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_like_naive(beta, &mut c[..m * n]);
        return;
    }
    match (cfg.micro, op_a, op_b) {
        (MicroTile::Mr4Nr4, Op::N, Op::N) => {
            direct::<4, 4, false, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr4Nr4, Op::N, Op::T) => {
            direct::<4, 4, false, true>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr4Nr4, Op::T, _) => {
            direct::<4, 4, true, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr8Nr4, Op::N, Op::N) => {
            direct::<8, 4, false, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr8Nr4, Op::N, Op::T) => {
            direct::<8, 4, false, true>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr8Nr4, Op::T, _) => {
            direct::<8, 4, true, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr12Nr4, Op::N, Op::N) => {
            direct::<12, 4, false, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr12Nr4, Op::N, Op::T) => {
            direct::<12, 4, false, true>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr12Nr4, Op::T, _) => {
            direct::<12, 4, true, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr4Nr8, Op::N, Op::N) => {
            direct::<4, 8, false, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr4Nr8, Op::N, Op::T) => {
            direct::<4, 8, false, true>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
        (MicroTile::Mr4Nr8, Op::T, _) => {
            direct::<4, 8, true, false>(m, n, k, alpha, a, b, beta, c, cfg.kc)
        }
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
fn load_acc<const MR: usize, const NR: usize>(
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
fn store_acc<const MR: usize, const NR: usize>(
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

/// Full `MR x NR` register tile, compile-time loop bounds throughout: the
/// accumulator stays in vector registers for the whole KC block, so C is
/// loaded and stored once per block instead of once per rank-1 update.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_full<const MR: usize, const NR: usize, const AT: bool, const BT: bool, const FMA: bool>(
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
    let mut acc = [[0.0f64; MR]; NR];
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
        // the alpha == 1 fast path changes nothing), then hoist the naive
        // reference's zero short-circuit: one predictable branch per row
        // instead of one per column keeps the common all-nonzero body
        // branchless. Skipping only fires on folded entries that are
        // exactly 0.0, exactly as the reference skips them.
        let bv: [f64; NR] = core::array::from_fn(|jr| {
            let bpj = if BT { b[(j0 + jr) + p * n] } else { b[p + (j0 + jr) * k] };
            if alpha == 1.0 {
                bpj
            } else {
                alpha * bpj
            }
        });
        if FMA || bv.iter().all(|&x| x != 0.0) {
            for (accj, &bpj) in acc.iter_mut().zip(&bv) {
                for (cv, &avv) in accj.iter_mut().zip(&av) {
                    *cv = fmadd::<FMA>(*cv, avv, bpj);
                }
            }
        } else {
            for (accj, &bpj) in acc.iter_mut().zip(&bv) {
                if bpj != 0.0 {
                    for (cv, &avv) in accj.iter_mut().zip(&av) {
                        *cv = fmadd::<FMA>(*cv, avv, bpj);
                    }
                }
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
fn tile_edge<const MR: usize, const NR: usize, const AT: bool, const BT: bool, const FMA: bool>(
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
            if FMA || bpj != 0.0 {
                for (cv, &avv) in accj.iter_mut().zip(&av) {
                    *cv = fmadd::<FMA>(*cv, avv, bpj);
                }
            }
        }
    }
    store_acc(m, i0, j0, mr_eff, nr_eff, c, &acc);
}

fma_clones! {
    /// [`direct_body`] at the level: every clone runs the same loop nest in the
    /// same order, so results depend on the regime (`FMA`), never on the width.
    fn direct<MR: usize, NR: usize, AT: bool, BT: bool> = direct_body(
        m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64],
        kc_blk: usize,
    )
}

/// Direct-path driver: `KC` blocking over `k` (ascending, so the
/// per-element accumulation order matches the reference), register tiles
/// over `(m, n)`, operands read in place through the transpose flags.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn direct_body<const FMA: bool, const MR: usize, const NR: usize, const AT: bool, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    kc_blk: usize,
) {
    let m_full = m - m % MR;
    let n_full = n - n % NR;
    let mut p0 = 0;
    let mut first = true;
    while p0 < k {
        let kc = kc_blk.min(k - p0);
        let mut j0 = 0;
        while j0 < n_full {
            let mut i0 = 0;
            while i0 < m_full {
                tile_full::<MR, NR, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
                i0 += MR;
            }
            if i0 < m {
                tile_edge::<MR, NR, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
            }
            j0 += NR;
        }
        if j0 < n {
            // Ragged column strip: re-dispatch the full i-tiles to a
            // narrower const-NR register tile so only the bottom-right
            // corner pays the runtime-bounded edge cost.
            let nr_eff = n - j0;
            let mut i0 = 0;
            while i0 < m_full {
                jedge_full::<MR, AT, BT, FMA>(
                    m, n, k, i0, j0, p0, kc, nr_eff, alpha, a, b, beta, first, c,
                );
                i0 += MR;
            }
            if i0 < m {
                tile_edge::<MR, NR, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c);
            }
        }
        p0 += kc;
        first = false;
    }
}

/// Dispatches a full-height, ragged-width tile (`MR x nr_eff`) to the
/// matching const-NR instantiation of [`tile_full`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn jedge_full<const MR: usize, const AT: bool, const BT: bool, const FMA: bool>(
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
        1 => tile_full::<MR, 1, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        2 => tile_full::<MR, 2, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        3 => tile_full::<MR, 3, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        4 => tile_full::<MR, 4, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        5 => tile_full::<MR, 5, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        6 => tile_full::<MR, 6, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        7 => tile_full::<MR, 7, AT, BT, FMA>(m, n, k, i0, j0, p0, kc, alpha, a, b, beta, first, c),
        _ => unreachable!("nr_eff < NR <= 8"),
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
                // Mix in exact zeros so the zero-skip path is exercised.
                if s.is_multiple_of(11) {
                    0.0
                } else {
                    (s % 1000) as f64 / 500.0 - 1.0
                }
            })
            .collect()
    }

    /// The contract from the module docs: every config is bitwise
    /// identical to every other; vs the naive reference the results are
    /// bitwise equal on non-FMA hosts and ULP-bounded otherwise.
    fn check_bitwise_nn_nt(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = fill(m * k, (m * 31 + k) as u64);
        let c0 = fill(m * n, (n * 7 + m) as u64);
        for (op_b, blen) in [(Op::N, k * n), (Op::T, n * k)] {
            let b = fill(blen, (k * 13 + n) as u64);
            let mut c_ref = c0.clone();
            match op_b {
                Op::N => naive::gemm_nn_raw(m, n, k, alpha, &a, &b, beta, &mut c_ref),
                Op::T => naive::gemm_nt_raw(m, n, k, alpha, &a, &b, beta, &mut c_ref),
            }
            let mut first: Option<Vec<f64>> = None;
            for cfg in CANDIDATES {
                let mut c = c0.clone();
                gemm_tiled_direct(cfg, m, n, k, alpha, &a, Op::N, &b, op_b, beta, &mut c);
                match &first {
                    None => {
                        if fma_active() {
                            for (x, y) in c.iter().zip(&c_ref) {
                                let scale = x.abs().max(y.abs()).max(1.0);
                                assert!(
                                    (x - y).abs() <= 1e-12 * scale,
                                    "{x} vs naive {y} at {m}x{n}x{k} {op_b:?}"
                                );
                            }
                        } else {
                            assert!(
                                c.iter().zip(&c_ref).all(|(x, y)| x.to_bits() == y.to_bits()),
                                "non-FMA host must match naive bitwise at {m}x{n}x{k} {op_b:?}"
                            );
                        }
                        first = Some(c);
                    }
                    Some(c1) => assert!(
                        c.iter().zip(c1).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "direct {cfg:?} {op_b:?} config-dependent at {m}x{n}x{k} a={alpha} b={beta}"
                    ),
                }
            }
        }
    }

    #[test]
    fn bitwise_equal_to_naive_on_table3_shapes() {
        // Per-zone F_z = A_z B^T shapes for Q1..Q4 (3D), plus ragged edges.
        for (m, n, k) in [(24, 1, 8), (81, 8, 64), (192, 27, 125), (375, 64, 216)] {
            check_bitwise_nn_nt(m, n, k, 1.0, 0.0);
        }
        for (m, n, k) in [(1, 1, 1), (5, 3, 7), (17, 9, 33), (13, 1, 2)] {
            for (alpha, beta) in [(1.0, 0.0), (2.5, 1.0), (-0.5, 3.0), (0.0, 2.0), (1.0, 1.0)] {
                check_bitwise_nn_nt(m, n, k, alpha, beta);
            }
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
            for cfg in CANDIDATES {
                let mut c = c0.clone();
                gemm_tiled_direct(cfg, m, n, k, 1.5, &a, Op::T, &b, Op::N, 0.5, &mut c);
                for (x, y) in c.iter().zip(&c_ref) {
                    let scale = y.abs().max(1.0);
                    assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
                }
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
