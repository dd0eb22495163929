//! Property tests pinning the fused streaming kernels to the unfused
//! oracle.
//!
//! The contract (see `stream`'s module docs): every fused kernel computes
//! the *same defined reduction* — fixed 64-block grid, fixed 8-lane
//! accumulator structure — as its unfused counterpart, so
//!
//! - fused vs unfused-dispatched results are **bitwise identical** in all
//!   regimes (both sides take the same SIMD path);
//! - fused vs the serial scalar `stream::reference` oracle is bitwise
//!   identical on hosts without FMA dispatch, and ULP-bounded when the
//!   dispatched path contracts multiply-adds;
//! - results are invariant under the pool thread count and under
//!   `PcgOptions::fused`.
//!
//! Exercised across proptest-random sizes, Table-3-like solver sizes, and
//! ragged sizes straddling the lane width and the block grid.

use blast_la::stream;
use blast_la::{
    pcg_solve_ws, pcg_solve_ws_reference, CsrBuilder, CsrMatrix, DiagPrecond, PcgOptions,
    PcgWorkspace,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill (golden-ratio hashing).
fn vecs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn banded(n: usize, half_band: usize) -> CsrMatrix {
    let mut b = CsrBuilder::new(n, n);
    for i in 0..n {
        b.add(i, i, 2.0 * half_band as f64 + 1.0);
        for o in 1..=half_band {
            if i >= o {
                b.add(i, i - o, -0.5);
            }
            if i + o < n {
                b.add(i, i + o, -0.5);
            }
        }
    }
    b.build()
}

/// Relative tolerance for the FMA-contracted dispatch vs the scalar
/// oracle: a handful of ULPs per reduction term.
const FMA_TOL: f64 = 1e-13;

fn close(a: f64, b: f64) -> bool {
    if stream::fma_active() {
        (a - b).abs() <= FMA_TOL * a.abs().max(b.abs()).max(1.0)
    } else {
        a.to_bits() == b.to_bits()
    }
}

fn close_slice(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y))
}

/// Ragged sizes straddling the 8-lane width, the 64-block grid, and the
/// pool-dispatch thresholds (2^15 non-zeros at 7 per row; 2^17 streamed
/// elements at 4, 3, 2 and 1 operand vectors) — plus Table-3-like
/// momentum-system sizes.
const SIZES: &[usize] = &[
    0, 1, 7, 8, 9, 63, 64, 65, 511, 513, 4095, 4681, 4683, 6000, 32767, 32769, 43691, 65535,
    65537, 131073,
];

#[test]
fn fused_kernels_match_reference_across_fixed_sizes() {
    for &n in SIZES {
        let p = vecs(n, 1);
        let ap = vecs(n, 2);
        let minv: Vec<f64> = vecs(n, 3).iter().map(|v| v.abs() + 0.5).collect();

        assert!(close(stream::dot(&p, &ap), stream::reference::dot(&p, &ap)), "dot n={n}");
        assert!(close(stream::nrm2(&p), stream::reference::nrm2(&p)), "nrm2 n={n}");

        let mut x_f = vecs(n, 4);
        let mut r_f = vecs(n, 5);
        let mut x_o = x_f.clone();
        let mut r_o = r_f.clone();
        let s_f = stream::axpy2_nrm2(0.37, &p, &ap, &mut x_f, &mut r_f);
        let s_o = stream::reference::axpy2_nrm2(0.37, &p, &ap, &mut x_o, &mut r_o);
        assert!(close(s_f, s_o), "axpy2_nrm2 sum n={n}");
        assert!(close_slice(&x_f, &x_o) && close_slice(&r_f, &r_o), "axpy2_nrm2 vecs n={n}");

        let mut p_f = vecs(n, 6);
        let mut p_o = p_f.clone();
        let rz_f = stream::precond_dot_update(&minv, &r_f, Some(1.25), &mut p_f);
        let rz_o = stream::reference::precond_dot_update(&minv, &r_o, Some(1.25), &mut p_o);
        assert!(close(rz_f, rz_o), "precond rz n={n}");
        assert!(close_slice(&p_f, &p_o), "precond p n={n}");

        if n > 0 {
            let a = banded(n, 3.min(n - 1));
            let mut y_f = vec![0.0; n];
            let mut y_o = vec![0.0; n];
            let d_f = stream::spmv_dot(&a, &p, &mut y_f);
            let d_o = stream::reference::spmv_dot(&a, &p, &mut y_o);
            assert!(close(d_f, d_o), "spmv_dot n={n}");
            assert!(close_slice(&y_f, &y_o), "spmv n={n}");
        }
    }
}

#[test]
fn fused_results_are_variant_and_thread_invariant() {
    let n = 66_000; // the row sweep and every multi-vector sweep go to the pool
    let p = vecs(n, 10);
    let ap = vecs(n, 11);
    let a = banded(n, 9);
    let pre = DiagPrecond::from_diagonal(&a.diagonal());
    let b = vecs(n, 14);
    let run = |fused: bool| {
        let mut x = vecs(n, 12);
        let mut r = vecs(n, 13);
        let s = stream::axpy2_nrm2(0.61, &p, &ap, &mut x, &mut r);
        let d = stream::dot(&x, &r);
        let opts = PcgOptions { rel_tol: 1e-10, fused, ..Default::default() };
        let mut sol = vec![0.0; n];
        let res = pcg_solve_ws(&mut (&a), &pre, &b, &mut sol, &opts, &mut PcgWorkspace::new());
        (s.to_bits(), d.to_bits(), x, r, res.iterations, res.residual.to_bits(), sol)
    };
    let baseline = run(true);
    assert!(baseline.4 > 1, "the solve must iterate for the comparison to mean anything");
    for fused in [true, false] {
        for threads in [1usize, 2, 4, 8] {
            let got = rayon::Pool::new(threads).install(|| run(fused));
            assert_eq!(got, baseline, "fused {fused} threads {threads}");
        }
    }
}

#[test]
fn fused_solver_matches_reference_solver_on_table3_like_systems() {
    // Whole-solver pin: `pcg_solve_ws` (fused streaming path) against
    // `pcg_solve_ws_reference` (serial scalar oracle) on systems shaped
    // like the momentum solves (banded SPD, FEM-like density).
    for &(n, half_band) in &[(500usize, 2usize), (1200, 9), (4097, 27)] {
        let a = banded(n, half_band);
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let b = vecs(n, 21);
        let opts = PcgOptions { rel_tol: 1e-10, ..Default::default() };
        let mut ws = PcgWorkspace::new();

        let mut x_f = vec![0.0; n];
        let res_f = pcg_solve_ws(&mut (&a), &pre, &b, &mut x_f, &opts, &mut ws);
        let mut x_o = vec![0.0; n];
        let res_o = pcg_solve_ws_reference(&mut (&a), &pre, &b, &mut x_o, &opts, &mut ws);

        assert!(res_f.converged && res_o.converged, "n={n}");
        if stream::fma_active() {
            // Contracted rounding can shift the convergence trajectory by
            // an iteration; the answers still agree to solver tolerance.
            assert!(
                (res_f.iterations as i64 - res_o.iterations as i64).abs() <= 2,
                "n={n}: {} vs {} iterations",
                res_f.iterations,
                res_o.iterations
            );
            for (f, o) in x_f.iter().zip(&x_o) {
                assert!((f - o).abs() <= 1e-8 * f.abs().max(o.abs()).max(1.0), "n={n}");
            }
        } else {
            assert_eq!(res_f.iterations, res_o.iterations, "n={n}");
            assert_eq!(x_f, x_o, "n={n}");
        }
    }
}

proptest! {
    #[test]
    fn prop_fused_dot_matches_reference(n in 0usize..3000, seed in 0u64..1000) {
        let x = vecs(n, seed);
        let y = vecs(n, seed.wrapping_add(1));
        prop_assert!(close(stream::dot(&x, &y), stream::reference::dot(&x, &y)));
    }

    #[test]
    fn prop_fused_axpy2_matches_two_axpys_and_dot(
        n in 1usize..2000,
        seed in 0u64..500,
        alpha in -2.0f64..2.0,
    ) {
        let p = vecs(n, seed);
        let ap = vecs(n, seed.wrapping_add(7));
        let mut x_f = vecs(n, seed.wrapping_add(14));
        let mut r_f = vecs(n, seed.wrapping_add(21));
        let mut x_u = x_f.clone();
        let mut r_u = r_f.clone();

        let sumsq = stream::axpy2_nrm2(alpha, &p, &ap, &mut x_f, &mut r_f);
        // Unfused equivalent through the *dispatched* kernels: always
        // bitwise, FMA or not — fusion must not change the arithmetic.
        stream::axpy(alpha, &p, &mut x_u);
        stream::axpy(-alpha, &ap, &mut r_u);
        let rr = stream::dot(&r_u, &r_u);

        prop_assert_eq!(x_f, x_u);
        prop_assert_eq!(r_f, r_u);
        prop_assert_eq!(sumsq.to_bits(), rr.to_bits());
    }

    #[test]
    fn prop_fused_spmv_dot_matches_spmv_then_dot(
        n in 1usize..800,
        half_band in 0usize..6,
        seed in 0u64..500,
    ) {
        let hb = half_band.min(n - 1);
        let a = banded(n, hb);
        let x = vecs(n, seed);
        let mut y_f = vec![0.0; n];
        let mut y_u = vec![0.0; n];

        let d_f = stream::spmv_dot(&a, &x, &mut y_f);
        stream::spmv(&a, &x, &mut y_u);
        let d_u = stream::dot(&x, &y_u);

        prop_assert_eq!(y_f, y_u);
        prop_assert_eq!(d_f.to_bits(), d_u.to_bits());
    }
}
