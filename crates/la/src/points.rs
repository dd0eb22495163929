//! A field's values at every tabulated point with the points as vector
//! lanes, `v_r(q̂_k) = Σ_i c_{r,i} t_i(q̂_k)`, for a few tables `t` and
//! coefficient rows `r` at once (a zone's Jacobian: the `D` gradient tables
//! against the `D` position components).
//!
//! # Bits
//!
//! Every value is the chain of the scalar loop this replaced: start at
//! `+0.0`, then for `i` ascending `acc + c_{r,i}·t_i(q̂_k)`, the product
//! rounded before the add and never fused. That loop skipped `i` where
//! `t_i(q̂_k) == 0`; here such a term is a `+0.0` chosen by a select, never
//! the product, so a non-finite coefficient times a zero table entry does
//! not turn into NaN. An accumulator that starts at `+0.0` never becomes
//! `-0.0` (a sum is `-0.0` only when both addends are), and `x + 0.0 == x`
//! for every other `x`, NaN and infinities included: adding the `+0.0`
//! changes no bit. No lane holds a partial sum of another point, so every
//! clone of the body — scalar, AVX2, AVX-512 — gives the same bits.

use crate::dense::DMatrix;
use crate::simd::fma_clones;

/// Points per block: one zmm of accumulators per `(table, row)` at SIMD
/// level 2.
const W: usize = 8;

/// `NT` tables of one shape (`n` basis functions by `npts` points) packed
/// for a pass over many zones: per block of 8 points, per basis function,
/// the tables' values at those points, zero-padded past `npts`. Packing
/// costs one read of the tables.
#[derive(Clone, Debug)]
pub struct PointTables<const NT: usize> {
    n: usize,
    npts: usize,
    /// `[block][i][t][lane]`: table `t` at basis function `i` and point
    /// `W·block + lane`.
    panels: Vec<[[f64; W]; NT]>,
}

impl<const NT: usize> PointTables<NT> {
    /// Packs `tables` (each `n × npts`, entry `(i, k)` = basis function `i`
    /// at point `k`).
    pub fn new(tables: [&DMatrix; NT]) -> Self {
        let (n, npts) = shape_of(&tables);
        let mut panels = vec![[[0.0; W]; NT]; npts.div_ceil(W) * n];
        for (at, panel) in panels.iter_mut().enumerate() {
            let (k0, i) = (at / n * W, at % n);
            for (lanes, table) in panel.iter_mut().zip(tables) {
                for (lane, x) in lanes.iter_mut().enumerate().take(npts - k0) {
                    *x = table[(i, k0 + lane)];
                }
            }
        }
        Self { n, npts, panels }
    }

    /// `at_point(k, v)` for every point `k` ascending, with `v[t][r] =
    /// Σ_i c_{r,i} t_i(q̂_k)` for each packed table `t` and `c_{r,i} =
    /// x[r·stride + dofs[i]]`: the coefficients gathered from a
    /// component-major global vector. See the module docs for the chain.
    pub fn eval<const R: usize>(
        &self,
        x: &[f64],
        stride: usize,
        dofs: &[usize],
        at_point: impl FnMut(usize, [[f64; R]; NT]),
    ) {
        self.eval_at(crate::simd::level(), x, stride, dofs, at_point);
    }

    /// [`Self::eval`] through the clone of `level` (at most
    /// `simd::level()`).
    fn eval_at<const R: usize>(
        &self,
        level: u8,
        x: &[f64],
        stride: usize,
        dofs: &[usize],
        mut at_point: impl FnMut(usize, [[f64; R]; NT]),
    ) {
        check_coefficients::<R>(self.n, x, stride, dofs);
        if self.n == 0 {
            return;
        }
        for (block, panels) in self.panels.chunks_exact(self.n).enumerate() {
            let acc = packed_block::<NT, R>(level, panels, x, stride, dofs);
            emit(block * W, self.npts, &acc, &mut at_point);
        }
    }
}

/// The common `(n, npts)` of `tables`.
fn shape_of<const NT: usize>(tables: &[&DMatrix; NT]) -> (usize, usize) {
    let shape = tables.first().map_or((0, 0), |t| t.shape());
    assert!(tables.iter().all(|t| t.shape() == shape), "tables of one shape");
    shape
}

/// One DOF per basis function, each coefficient inside `x`.
fn check_coefficients<const R: usize>(n: usize, x: &[f64], stride: usize, dofs: &[usize]) {
    assert_eq!(dofs.len(), n, "one DOF per basis function");
    assert!(R == 0 || dofs.iter().all(|&d| (R - 1) * stride + d < x.len()), "DOF outside x");
}

/// Hands the block at `k0` to `at_point`, point by point, up to `npts`.
fn emit<const NT: usize, const R: usize>(
    k0: usize,
    npts: usize,
    acc: &[[[f64; W]; R]; NT],
    at_point: &mut impl FnMut(usize, [[f64; R]; NT]),
) {
    for lane in 0..W.min(npts - k0) {
        at_point(k0 + lane, std::array::from_fn(|t| std::array::from_fn(|r| acc[t][r][lane])));
    }
}

/// One block of points: `acc[t][r][lane]` runs the chain over `i`
/// ascending on the block's packed panels (`[i][t]`). The lane loops are
/// innermost, so LLVM vectorizes them and keeps one register of lanes per
/// `(t, r)`; the select is one masked multiply.
#[inline(always)]
fn packed_block_body<const NT: usize, const R: usize>(
    panels: &[[[f64; W]; NT]],
    x: &[f64],
    stride: usize,
    dofs: &[usize],
) -> [[[f64; W]; R]; NT] {
    let mut acc = [[[0.0; W]; R]; NT];
    for (&dof, panel) in dofs.iter().zip(panels) {
        let c: [f64; R] = std::array::from_fn(|r| x[r * stride + dof]);
        for (acc_t, row) in acc.iter_mut().zip(panel) {
            for (acc_r, &cr) in acc_t.iter_mut().zip(&c) {
                for (a, &b) in acc_r.iter_mut().zip(row) {
                    *a += if b != 0.0 { cr * b } else { 0.0 };
                }
            }
        }
    }
    acc
}

fma_clones! {
    /// [`packed_block_body`] as compiled for `level`.
    fn packed_block<NT: usize, R: usize>(level) = packed_block_body(
        panels: &[[[f64; W]; NT]],
        x: &[f64],
        stride: usize,
        dofs: &[usize],
    ) -> [[[f64; W]; R]; NT]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar loop of the initial geometry: point outer, basis function
    /// inner, a zero table entry skipped.
    fn scalar_chain<const NT: usize, const R: usize>(
        tables: [&DMatrix; NT],
        x: &[f64],
        stride: usize,
        dofs: &[usize],
    ) -> Vec<[[f64; R]; NT]> {
        let npts = tables[0].cols();
        let mut out = vec![[[0.0; R]; NT]; npts];
        for (k, o) in out.iter_mut().enumerate() {
            for (i, &dof) in dofs.iter().enumerate() {
                for t in 0..NT {
                    let b = tables[t][(i, k)];
                    if b != 0.0 {
                        for r in 0..R {
                            o[t][r] += x[r * stride + dof] * b;
                        }
                    }
                }
            }
        }
        out
    }

    /// Deterministic values in (-1, 1), a sprinkling of `±0.0`.
    fn mix(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
                }
            })
            .collect()
    }

    fn case<const NT: usize, const R: usize>(n: usize, npts: usize, x: &[f64], seed: u64) {
        let top = crate::simd::level();
        let owned: Vec<DMatrix> = (0..NT)
            .map(|t| DMatrix::from_col_major(n, npts, mix(n * npts, seed + t as u64)))
            .collect();
        let tables: [&DMatrix; NT] = std::array::from_fn(|t| &owned[t]);
        let stride = x.len() / R.max(1);
        let dofs: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % stride).collect();
        let want = scalar_chain::<NT, R>(tables, x, stride, &dofs);
        let packed = PointTables::new(tables);
        for level in 0..=top {
            let mut got = Vec::new();
            packed.eval_at(level, x, stride, &dofs, |k, v: [[f64; R]; NT]| got.push((k, v)));
            assert_eq!(got.len(), npts);
            for (k, v) in got {
                for (t, (a, b)) in v.iter().zip(&want[k]).enumerate() {
                    for (r, (p, q)) in a.iter().zip(b).enumerate() {
                        let what = format!("n {n} npts {npts} level {level} point {k}");
                        assert_eq!(p.to_bits(), q.to_bits(), "{what} ({t}, {r}): {p} vs {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_tables_every_clone_match_setup_oracle() {
        let top = crate::simd::level();
        if top < 2 {
            eprintln!("note: host SIMD level {top}; comparing clones 0..={top} only");
        }
        // Kinematic shapes of Q1-Q4 in 2D and 3D at their point counts, and
        // ragged point counts on both sides of a block.
        let shapes = [(4, 4), (8, 8), (9, 9), (27, 27), (16, 16), (64, 64), (25, 25), (125, 125)];
        let shapes = shapes.into_iter().chain([(9, 7), (27, 17)]);
        for (at, (n, npts)) in shapes.enumerate() {
            let seed = 5 + 10 * at as u64;
            let x = mix(3 * 40, seed + 9);
            case::<3, 3>(n, npts, &x, seed);
            case::<1, 3>(n, npts, &x, seed);
            case::<2, 2>(n, npts, &x[..80], seed);
            case::<1, 2>(n, npts, &x[..80], seed);
        }
        // Non-finite coefficients: a zero table entry skips them in the
        // scalar loop, and the select keeps them out here.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut x = mix(3 * 40, 77);
            x[3] = bad;
            x[40 + 10] = bad;
            case::<3, 3>(27, 27, &x, 31);
            case::<1, 3>(64, 64, &x, 41);
        }
    }
}
