//! Property-based tests for the linear-algebra kernels.

use blast_la::dense::{gemm_nn, gemm_nt, gemv_n, naive, DMatrix};
use blast_la::eig::{identity3_lanes, sym_eig3_lanes, sym_eigvals3_lanes};
use blast_la::tile::{self, Op};
use blast_la::{
    approx_eq, batched_gemm_nn, pcg_solve, sym_eig2, sym_eig3, svd2, svd3, BatchedMats,
    CsrBuilder, DiagPrecond, LuFactors, PcgOptions, SmallMat,
};
use proptest::prelude::*;

fn finite_small() -> impl Strategy<Value = f64> {
    // Keep magnitudes moderate so condition numbers stay testable.
    -50.0..50.0f64
}

fn mat2() -> impl Strategy<Value = SmallMat<2>> {
    proptest::array::uniform4(finite_small())
        .prop_map(|v| SmallMat::from_fn(|i, j| v[i * 2 + j]))
}

fn mat3() -> impl Strategy<Value = SmallMat<3>> {
    proptest::array::uniform9(finite_small())
        .prop_map(|v| SmallMat::from_fn(|i, j| v[i * 3 + j]))
}

proptest! {
    #[test]
    fn svd2_reconstructs(a in mat2()) {
        let s = svd2(&a);
        let r = s.reconstruct();
        let scale = a.norm().max(1.0);
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!((r[(i,j)] - a[(i,j)]).abs() <= 1e-9 * scale);
            }
        }
        prop_assert!(s.values[0] >= s.values[1]);
        prop_assert!(s.values[1] >= 0.0);
    }

    #[test]
    fn svd3_reconstructs(a in mat3()) {
        let s = svd3(&a);
        let r = s.reconstruct();
        let scale = a.norm().max(1.0);
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((r[(i,j)] - a[(i,j)]).abs() <= 1e-8 * scale);
            }
        }
        prop_assert!(s.values[0] >= s.values[1] && s.values[1] >= s.values[2]);
        prop_assert!(s.values[2] >= 0.0);
    }

    #[test]
    fn svd3_frobenius_invariant(a in mat3()) {
        // ||A||_F^2 = sum of squared singular values.
        let s = svd3(&a);
        let f2: f64 = s.values.iter().map(|x| x * x).sum();
        let n2 = a.ddot(&a);
        prop_assert!((f2 - n2).abs() <= 1e-8 * n2.max(1.0));
    }

    #[test]
    fn sym_eig2_reconstructs(v in proptest::array::uniform3(finite_small())) {
        let a = SmallMat::<2>::from_fn(|i, j| {
            let m = [[v[0], v[1]], [v[1], v[2]]];
            m[i][j]
        });
        let e = sym_eig2(&a);
        let r = e.reconstruct();
        let scale = a.norm().max(1.0);
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!((r[(i,j)] - a[(i,j)]).abs() <= 1e-10 * scale);
            }
        }
    }

    #[test]
    fn sym_eig3_reconstructs_and_orders(v in proptest::array::uniform6(finite_small())) {
        let rows = [[v[0], v[1], v[2]], [v[1], v[3], v[4]], [v[2], v[4], v[5]]];
        let a = SmallMat::<3>::from_fn(|i, j| rows[i][j]);
        let e = sym_eig3(&a);
        prop_assert!(e.values[0] >= e.values[1] && e.values[1] >= e.values[2]);
        let r = e.reconstruct();
        let scale = a.norm().max(1.0);
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((r[(i,j)] - a[(i,j)]).abs() <= 1e-9 * scale);
            }
        }
        // Trace invariant.
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() <= 1e-10 * scale);
    }

    /// Every lane of the lock-step solve is `sym_eig3` on that lane's
    /// matrix, bit for bit, whatever sits in the other lanes — here a
    /// ragged group of random matrices, some with exact-zero off-diagonals,
    /// padded with identity lanes.
    #[test]
    fn sym_eig3_lanes_match_scalar_bitwise(
        mats in proptest::collection::vec(proptest::array::uniform6(finite_small()), 1..=8),
        zeroed in 0usize..64,
    ) {
        let group: Vec<SmallMat<3>> = mats
            .iter()
            .enumerate()
            .map(|(l, v)| {
                // Bits of `zeroed + l` pick which off-diagonals are exact zeros.
                let off = |k: usize, x: f64| if (zeroed + l) >> k & 1 == 1 { 0.0 } else { x };
                let rows = [
                    [v[0], off(0, v[1]), off(1, v[2])],
                    [off(0, v[1]), v[3], off(2, v[4])],
                    [off(1, v[2]), off(2, v[4]), v[5]],
                ];
                SmallMat::from_fn(|i, j| rows[i][j])
            })
            .collect();
        let mut a = identity3_lanes::<8>();
        for (l, m) in group.iter().enumerate() {
            for i in 0..3 {
                for j in 0..=i {
                    a[i][j][l] = m[(i, j)];
                }
            }
        }
        let (values, vectors) = sym_eig3_lanes(&a);
        let values_only = sym_eigvals3_lanes(&a);
        for (l, m) in group.iter().enumerate() {
            let want = sym_eig3(m);
            for k in 0..3 {
                prop_assert_eq!(values[k][l].to_bits(), want.values[k].to_bits());
                prop_assert_eq!(values_only[k][l].to_bits(), want.values[k].to_bits());
                for i in 0..3 {
                    prop_assert_eq!(vectors[i][k][l].to_bits(), want.vectors[(i, k)].to_bits());
                }
            }
        }
    }

    #[test]
    fn adjugate3_identity(a in mat3()) {
        let p = a * a.adjugate();
        let d = a.det();
        let scale = a.norm().powi(3).max(1.0);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { d } else { 0.0 };
                prop_assert!((p[(i,j)] - expect).abs() <= 1e-9 * scale);
            }
        }
    }

    #[test]
    fn gemm_associativity_with_vector(
        a in proptest::collection::vec(finite_small(), 6),
        b in proptest::collection::vec(finite_small(), 6),
        x in proptest::array::uniform2(finite_small()),
    ) {
        // (A B) x == A (B x) for A (3x2), B (2x... ) wait shapes: A 3x2, B 2x2? keep simple:
        let am = DMatrix::from_col_major(3, 2, a);
        let bm = DMatrix::from_col_major(2, 3, b);
        // C = A*B (3x3), y1 = C * [x0,x1,x2]? dims mismatch; use x in R^3:
        let xv = [x[0], x[1], x[0] - x[1]];
        let mut c = DMatrix::zeros(3, 3);
        gemm_nn(1.0, &am, &bm, 0.0, &mut c);
        let mut y1 = [0.0; 3];
        gemv_n(1.0, &c, &xv, 0.0, &mut y1);
        let mut bx = [0.0; 2];
        gemv_n(1.0, &bm, &xv, 0.0, &mut bx);
        let mut y2 = [0.0; 3];
        gemv_n(1.0, &am, &bx, 0.0, &mut y2);
        for k in 0..3 {
            prop_assert!((y1[k] - y2[k]).abs() <= 1e-9 * y1[k].abs().max(1.0));
        }
    }

    #[test]
    fn gemm_nt_equals_nn_with_transpose(
        a in proptest::collection::vec(finite_small(), 8),
        b in proptest::collection::vec(finite_small(), 12),
    ) {
        let am = DMatrix::from_col_major(2, 4, a);
        let bm = DMatrix::from_col_major(3, 4, b);
        let mut c1 = DMatrix::zeros(2, 3);
        gemm_nt(1.0, &am, &bm, 0.0, &mut c1);
        let mut c2 = DMatrix::zeros(2, 3);
        gemm_nn(1.0, &am, &bm.transpose(), 0.0, &mut c2);
        for i in 0..2 {
            for j in 0..3 {
                prop_assert!(approx_eq(c1[(i,j)], c2[(i,j)], 1e-12));
            }
        }
    }

    #[test]
    fn lu_solve_residual_small(
        vals in proptest::collection::vec(finite_small(), 16),
        rhs in proptest::array::uniform4(finite_small()),
    ) {
        let mut a = DMatrix::from_col_major(4, 4, vals);
        // Diagonal boost guarantees nonsingularity.
        for i in 0..4 {
            let v = a[(i, i)];
            a[(i, i)] = v + 200.0;
        }
        let lu = LuFactors::factor(&a);
        prop_assert!(!lu.is_singular());
        let x = lu.solve(&rhs);
        let mut r = rhs;
        gemv_n(-1.0, &a, &x, 1.0, &mut r);
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(rn <= 1e-9);
    }

    #[test]
    fn csr_spmv_matches_dense(
        entries in proptest::collection::vec((0usize..6, 0usize..6, finite_small()), 0..30),
        x in proptest::collection::vec(finite_small(), 6),
    ) {
        let mut b = CsrBuilder::new(6, 6);
        for &(i, j, v) in &entries {
            b.add(i, j, v);
        }
        let a = b.build();
        let y = a.spmv(&x);
        let dense = a.to_dense();
        let mut expect = vec![0.0; 6];
        gemv_n(1.0, &dense, &x, 0.0, &mut expect);
        for (u, v) in y.iter().zip(&expect) {
            prop_assert!((u - v).abs() <= 1e-10 * u.abs().max(1.0));
        }
    }

    #[test]
    fn pcg_solves_random_spd(
        vals in proptest::collection::vec(finite_small(), 25),
        rhs in proptest::collection::vec(finite_small(), 5),
    ) {
        // SPD via B^T B + 60 I, assembled into CSR.
        let b = DMatrix::from_col_major(5, 5, vals);
        let mut spd = DMatrix::zeros(5, 5);
        blast_la::dense::gemm_tn(1.0, &b, &b, 0.0, &mut spd);
        let mut builder = CsrBuilder::new(5, 5);
        for i in 0..5 {
            for j in 0..5 {
                let v = spd[(i, j)] + if i == j { 60.0 } else { 0.0 };
                builder.add(i, j, v);
            }
        }
        let a = builder.build();
        let mut x = vec![0.0; 5];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let res = pcg_solve(&mut (&a), &pre, &rhs, &mut x, &PcgOptions::default());
        prop_assert!(res.converged);
        let mut r = a.spmv(&x);
        for (ri, bi) in r.iter_mut().zip(&rhs) {
            *ri = bi - *ri;
        }
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(rn <= 1e-7);
    }

    #[test]
    fn batched_gemm_matches_singleton_loop(
        data_a in proptest::collection::vec(finite_small(), 4 * 6),
        data_b in proptest::collection::vec(finite_small(), 4 * 6),
    ) {
        // 6 batches of 2x2 times 2x2.
        let a = BatchedMats::from_data(2, 2, 6, data_a);
        let b = BatchedMats::from_data(2, 2, 6, data_b);
        let mut c = BatchedMats::zeros(2, 2, 6);
        batched_gemm_nn(1.0, &a, &b, 0.0, &mut c);
        for z in 0..6 {
            let am = DMatrix::from_col_major(2, 2, a.mat(z).to_vec());
            let bm = DMatrix::from_col_major(2, 2, b.mat(z).to_vec());
            let mut cm = DMatrix::zeros(2, 2);
            gemm_nn(1.0, &am, &bm, 0.0, &mut cm);
            for i in 0..2 {
                for j in 0..2 {
                    prop_assert!(approx_eq(c.get(z, i, j), cm[(i, j)], 1e-12));
                }
            }
        }
    }

    #[test]
    fn tiled_gemm_matches_naive_and_is_config_invariant(
        dims in (1usize..26, 1usize..26, 1usize..26),
        coeff in (0usize..3, 0usize..3, 0usize..2),
        data_a in proptest::collection::vec(finite_small(), 26 * 26),
        data_b in proptest::collection::vec(finite_small(), 26 * 26),
        data_c in proptest::collection::vec(finite_small(), 26 * 26),
    ) {
        let (m, n, k) = dims;
        let alpha = [1.0, 0.0, 0.37][coeff.0];
        let beta = [0.0, 1.0, -0.625][coeff.1];
        let op_b = [Op::N, Op::T][coeff.2];
        // The N and T layouts of B hold the same k*n element count, so one
        // random buffer serves both operand shapes.
        let a = &data_a[..m * k];
        let b = &data_b[..n * k];

        let mut c_naive = data_c[..m * n].to_vec();
        match op_b {
            Op::N => naive::gemm_nn_raw(m, n, k, alpha, a, b, beta, &mut c_naive),
            Op::T => naive::gemm_nt_raw(m, n, k, alpha, a, b, beta, &mut c_naive),
        }

        // The generic body and whatever `tile::gemm` runs at this level
        // (the zmm tile at level 2) must agree bit for bit: each element's
        // accumulation chain is the same under either blocking.
        let mut c_ref = data_c[..m * n].to_vec();
        tile::gemm_generic(m, n, k, alpha, a, Op::N, b, op_b, beta, &mut c_ref);
        let mut c_gemm = data_c[..m * n].to_vec();
        tile::gemm(m, n, k, alpha, a, Op::N, b, op_b, beta, &mut c_gemm);
        for (g, r) in c_gemm.iter().zip(&c_ref) {
            prop_assert!(g.to_bits() == r.to_bits(), "tile::gemm {g} vs generic {r}");
        }

        // vs naive: ULP-bounded, the tile fusing each multiply-add (see
        // tile.rs determinism contract).
        let tol = 1e-11 * (k as f64 + 1.0) * 2500.0;
        for (t, nv) in c_ref.iter().zip(&c_naive) {
            prop_assert!((t - nv).abs() <= tol, "tiled {t} vs naive {nv}");
        }
    }

    #[test]
    fn blocked_gemv_bitwise_matches_naive(
        dims in (1usize..41, 1usize..41),
        coeff in (0usize..3, 0usize..3),
        data_a in proptest::collection::vec(finite_small(), 41 * 41),
        data_x in proptest::collection::vec(finite_small(), 41),
        data_y in proptest::collection::vec(finite_small(), 41),
    ) {
        let (m, n) = dims;
        let alpha = [1.0, 0.0, 0.37][coeff.0];
        let beta = [0.0, 1.0, -0.625][coeff.1];
        let a = &data_a[..m * n];
        let x = &data_x[..n];
        let mut y_naive = data_y[..m].to_vec();
        naive::gemv_n_raw(m, n, alpha, a, x, beta, &mut y_naive);
        let mut y_blocked = data_y[..m].to_vec();
        blast_la::dense::gemv_n_raw(m, n, alpha, a, x, beta, &mut y_blocked);
        // The blocked GEMV preserves the naive accumulation order exactly,
        // so equality is bitwise on every host.
        for (u, v) in y_blocked.iter().zip(&y_naive) {
            prop_assert!(u.to_bits() == v.to_bits(), "gemv {u} vs {v}");
        }
    }

    #[test]
    fn small_inverse_roundtrip_2(a in mat2()) {
        prop_assume!(a.det().abs() > 1e-3);
        let p = a * a.inverse();
        for i in 0..2 {
            for j in 0..2 {
                let id = if i == j { 1.0 } else { 0.0 };
                prop_assert!((p[(i,j)] - id).abs() <= 1e-6);
            }
        }
    }

    #[test]
    fn small_inverse_roundtrip_3(a in mat3()) {
        prop_assume!(a.det().abs() > 1e-2);
        let p = a * a.inverse();
        let cond_guard = a.norm().powi(2) / a.det().abs();
        prop_assume!(cond_guard < 1e6);
        for i in 0..3 {
            for j in 0..3 {
                let id = if i == j { 1.0 } else { 0.0 };
                prop_assert!((p[(i,j)] - id).abs() <= 1e-6);
            }
        }
    }
}

/// Table-3 operand shapes (the `F_z`-style NT products, Q1-Q4): the tiled
/// path must agree with naive on exactly the shapes the solver runs,
/// including the ragged register-tile edges they produce.
#[test]
fn tiled_gemm_matches_naive_on_table3_shapes() {
    let shapes =
        [(24usize, 1usize, 8usize), (50, 16, 36), (81, 8, 64), (192, 27, 125), (375, 64, 216)];
    for &(m, n, k) in &shapes {
        let a: Vec<f64> =
            (0..m * k).map(|i| ((i * 2654435761 % 1000) as f64 - 500.0) * 1e-3).collect();
        let b: Vec<f64> =
            (0..n * k).map(|i| ((i * 40503 % 1000) as f64 - 500.0) * 1e-3).collect();
        let mut c_naive = vec![0.0; m * n];
        naive::gemm_nt_raw(m, n, k, 1.0, &a, &b, 0.0, &mut c_naive);
        let tol = 1e-12 * (k as f64 + 1.0);
        let mut c_direct = vec![0.0; m * n];
        tile::gemm_generic(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c_direct);
        for (d, nv) in c_direct.iter().zip(&c_naive) {
            assert!((d - nv).abs() <= tol, "{d} vs naive {nv} at {m}x{n}x{k}");
        }
    }
}

/// An `A` operand above the 2^18-element size at which `tile::gemm` once
/// switched data paths (523 x 521, ragged against every register tile):
/// the one remaining path must hold the same naive-reference contract
/// there as on the small shapes, NN and NT.
#[test]
fn tiled_gemm_matches_naive_on_a_large_ragged_operand() {
    let (m, n, k) = (523usize, 7usize, 521usize);
    assert!(m * k > 1 << 18);
    let a: Vec<f64> =
        (0..m * k).map(|i| ((i * 2654435761 % 1000) as f64 - 500.0) * 1e-3).collect();
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 40503 % 1000) as f64 - 500.0) * 1e-3).collect();
    let c0: Vec<f64> = (0..m * n).map(|i| ((i * 7919 % 1000) as f64 - 500.0) * 1e-3).collect();
    let tol = 1e-12 * (k as f64 + 1.0);
    for op_b in [Op::N, Op::T] {
        let mut c_naive = c0.clone();
        match op_b {
            Op::N => naive::gemm_nn_raw(m, n, k, 0.75, &a, &b, -0.5, &mut c_naive),
            Op::T => naive::gemm_nt_raw(m, n, k, 0.75, &a, &b, -0.5, &mut c_naive),
        }
        let mut c = c0.clone();
        tile::gemm(m, n, k, 0.75, &a, Op::N, &b, op_b, -0.5, &mut c);
        for (t, nv) in c.iter().zip(&c_naive) {
            assert!((t - nv).abs() <= tol, "{t} vs naive {nv} ({op_b:?})");
        }
    }
}
