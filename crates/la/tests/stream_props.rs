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
//!   `PcgOptions::fused`;
//! - a lock-step solve of `d` systems over one `d`-wide row sweep walks,
//!   per system, the **bitwise** trajectory of that system's scalar solve
//!   (and, without FMA dispatch, of the `reference` oracle's).
//!
//! Exercised across proptest-random sizes, Table-3-like solver sizes, and
//! ragged sizes straddling the lane width and the block grid.

use blast_la::stream;
use blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_ws, pcg_solve_ws_reference, ConstrainedOp, CsrBuilder,
    CsrMatrix, DiagPrecond, PcgOptions, PcgResult, PcgWorkspace,
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

/// Golden-ratio hash of a pair, for structure (not values).
fn hash2(i: usize, j: usize) -> u64 {
    ((i as u64) << 32 | j as u64).wrapping_add(0x51).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
}

/// Symmetric, strictly diagonally dominant band matrix whose rows keep a
/// hashed subset of the band: ragged row lengths (1 to 13, mostly not
/// multiples of 8) — the remainder handling of every row chain is on the
/// path. `pivot` overrides one diagonal entry (a negative one makes the
/// operator indefinite on exactly that row).
fn ragged_spd(n: usize, pivot: Option<(usize, f64)>) -> CsrMatrix {
    const HALF_BAND: usize = 6;
    let kept = |i: usize, o: usize| !hash2(i, o).is_multiple_of(4);
    let weight = |i: usize, o: usize| -0.2 - (hash2(o, i) % 7) as f64 * 0.05;
    let mut b = CsrBuilder::new(n, n);
    for i in 0..n {
        let mut off = 0.0;
        for o in 1..=HALF_BAND {
            if i >= o && kept(i - o, o) {
                b.add(i, i - o, weight(i - o, o));
                off += weight(i - o, o).abs();
            }
            if i + o < n && kept(i, o) {
                b.add(i, i + o, weight(i, o));
                off += weight(i, o).abs();
            }
        }
        let diag = match pivot {
            Some((row, value)) if row == i => value,
            _ => 2.0 * off + 0.5 + (i % 5) as f64 * 0.1,
        };
        b.add(i, i, diag);
    }
    b.build()
}

/// `D` systems over one matrix: component-blocked right-hand side and
/// initial guess, one mask per component.
struct Systems<const D: usize> {
    a: CsrMatrix,
    pre: DiagPrecond,
    masks: [Vec<bool>; D],
    b: Vec<f64>,
    x0: Vec<f64>,
}

impl<const D: usize> Systems<D> {
    /// Distinct masks, right-hand sides and (non-zero) warm starts per
    /// component; nothing is zeroed on the constrained entries, so the
    /// identity block of the projected operator does real work.
    fn random(a: CsrMatrix, seed: u64) -> Self {
        let n = a.rows();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let masks = std::array::from_fn(|c| (0..n).map(|i| (i + 2 * c) % (4 + 3 * c) == 1).collect());
        Self { a, pre, masks, b: vecs(D * n, seed), x0: vecs(D * n, seed + 1) }
    }

    fn n(&self) -> usize {
        self.a.rows()
    }

    fn at(&self, c: usize) -> std::ops::Range<usize> {
        c * self.n()..(c + 1) * self.n()
    }

    /// Component `c` alone: through the scalar entry point, or through the
    /// scalar serial oracle.
    fn alone(
        &self,
        c: usize,
        opts: &PcgOptions,
        ws: &mut PcgWorkspace,
        oracle: bool,
    ) -> (Vec<f64>, PcgResult) {
        let mut x = self.x0[self.at(c)].to_vec();
        let b = &self.b[self.at(c)];
        let res = ws.with_operator_scratch(self.n(), |tmp, ws| {
            let mut op = ConstrainedOp { a: &self.a, masks: &[&self.masks[c]], tmp };
            if oracle {
                pcg_solve_ws_reference(&mut op, &self.pre, b, &mut x, opts, ws)
            } else {
                pcg_solve_ws(&mut op, &self.pre, b, &mut x, opts, ws)
            }
        });
        (x, res)
    }

    /// All `D` in lock step.
    fn lockstep(&self, opts: &PcgOptions, ws: &mut PcgWorkspace) -> (Vec<f64>, [PcgResult; D]) {
        let mut x = self.x0.clone();
        let masks: [&[bool]; D] = std::array::from_fn(|c| &self.masks[c][..]);
        let res = ws.with_operator_scratch(stream::wide_lanes(D) * self.n(), |tmp, ws| {
            let mut op = ConstrainedOp { a: &self.a, masks: &masks, tmp };
            pcg_solve_lockstep_ws(&mut op, &self.pre, &self.b, &mut x, opts, ws)
        });
        (x, res)
    }

    /// The contract: under `opts`, and under every smaller iteration cap
    /// (which exposes the iterate after *each* iteration, and freezes the
    /// slower systems at the cap while the faster ones converge), every
    /// system of the lock-step solve ends bit-identical to its scalar
    /// solve. Returns the scalar outcomes under `opts`.
    fn assert_lockstep_is_scalar(&self, opts: &PcgOptions, what: &str) -> [PcgResult; D] {
        let ws = &mut PcgWorkspace::new();
        let full: [PcgResult; D] = std::array::from_fn(|c| self.alone(c, opts, ws, false).1);
        let longest = full.iter().map(|r| r.iterations).max().unwrap_or(0);
        // Unoptimised builds thin the caps of the pool-sized case; the
        // release lane walks every one.
        let stride = if cfg!(debug_assertions) && self.n() > 1000 { 8 } else { 1 };
        for cap in (0..longest).step_by(stride).chain([opts.max_iter]) {
            let opts = PcgOptions { max_iter: cap, ..*opts };
            let (x, res) = self.lockstep(&opts, ws);
            for c in 0..D {
                let ctx = format!("{what} n={} d={D} c={c} cap={cap}", self.n());
                let (x_c, res_c) = self.alone(c, &opts, ws, false);
                assert_eq!(x[self.at(c)], x_c, "{ctx}: iterate");
                assert_eq!(res[c].iterations, res_c.iterations, "{ctx}: iterations");
                assert_eq!(res[c].converged, res_c.converged, "{ctx}: converged");
                assert_eq!(res[c].residual.to_bits(), res_c.residual.to_bits(), "{ctx}: residual");
                if !stream::fma_active() {
                    // Two-rounding regime: the dispatched kernels *are* the
                    // reference's arithmetic, so the oracle pins it too.
                    let (x_o, res_o) = self.alone(c, &opts, ws, true);
                    assert_eq!(x[self.at(c)], x_o, "{ctx}: oracle iterate");
                    assert_eq!(res[c].iterations, res_o.iterations, "{ctx}: oracle iterations");
                    assert_eq!(res[c].residual.to_bits(), res_o.residual.to_bits(), "{ctx}: oracle");
                }
            }
        }
        full
    }
}

/// Every `(fused, pool width)` cell of the lock-step sample.
fn for_each_drive(mut f: impl FnMut(bool, &str)) {
    for fused in [true, false] {
        for width in [1usize, 2, 8] {
            rayon::Pool::new(width).install(|| f(fused, &format!("fused={fused} width={width}")));
        }
    }
}

fn lockstep_sample<const D: usize>() {
    for_each_drive(|fused, what| {
        let opts = PcgOptions { rel_tol: 1e-6, fused, ..Default::default() };
        // 4097 rows carry > 2^15 non-zeros: the row sweep is on the pool.
        for &n in &[1usize, 63, 64, 65, 500, 4097] {
            let sys = Systems::<D>::random(ragged_spd(n, None), 31 + n as u64);
            assert!(n < 4097 || sys.a.nnz() > 1 << 15, "the large case must reach the pool");
            let res = sys.assert_lockstep_is_scalar(&opts, what);
            assert!(res.iter().all(|r| r.converged), "{what} n={n} d={D}");
        }
    });
}

#[test]
fn lockstep_one_system_is_the_scalar_solve() {
    lockstep_sample::<1>();
}

#[test]
fn lockstep_two_systems_match_their_scalar_solves_bitwise() {
    lockstep_sample::<2>();
}

#[test]
fn lockstep_three_systems_match_their_scalar_solves_bitwise() {
    lockstep_sample::<3>();
}

#[test]
fn lockstep_systems_leave_the_iteration_at_different_times() {
    for_each_drive(|fused, what| {
        let opts = PcgOptions { rel_tol: 1e-10, fused, ..Default::default() };
        let mut sys = Systems::<3>::random(ragged_spd(500, None), 77);
        let n = sys.n();
        // System 0 is done before the first iteration: zero right-hand side
        // and a zero initial guess.
        sys.b[..n].fill(0.0);
        sys.x0[..n].fill(0.0);
        // System 1 starts from its own converged answer at a looser
        // tolerance, so it needs fewer iterations than system 2's cold-ish
        // start.
        let loose = PcgOptions { rel_tol: 1e-5, ..opts };
        let (warm, _) = sys.alone(1, &loose, &mut PcgWorkspace::new(), false);
        sys.x0[n..2 * n].copy_from_slice(&warm);

        let res = sys.assert_lockstep_is_scalar(&opts, what);
        assert!(res.iter().all(|r| r.converged), "{what}");
        assert_eq!(res[0].iterations, 0, "{what}");
        assert!(
            0 < res[1].iterations && res[1].iterations + 2 < res[2].iterations,
            "{what}: {} vs {} iterations",
            res[1].iterations,
            res[2].iterations
        );
        // `assert_lockstep_is_scalar` walked every cap below the slowest
        // count, so it saw system 2 stalled at `max_iter` while 0 and 1
        // converged. Pin one such cap by hand as well.
        let cap = PcgOptions { max_iter: res[1].iterations + 1, ..opts };
        let (_, capped) = sys.lockstep(&cap, &mut PcgWorkspace::new());
        assert!(capped[0].converged && capped[1].converged && !capped[2].converged, "{what}");
        assert_eq!(capped[2].iterations, cap.max_iter, "{what}");
    });
}

#[test]
fn lockstep_breakdown_freezes_one_system_and_spares_the_others() {
    for_each_drive(|fused, what| {
        let opts = PcgOptions { rel_tol: 1e-10, fused, ..Default::default() };
        // One negative pivot: the operator is indefinite for every system
        // that sees row 40 — system 1 alone, the other masks constrain it.
        let mut sys = Systems::<3>::random(ragged_spd(200, Some((40, -3.0))), 5);
        for (c, mask) in sys.masks.iter_mut().enumerate() {
            mask[40] = c != 1;
        }
        // Aim system 1 at the bad row so `p·Ap` goes negative at once.
        let n = sys.n();
        sys.b[n..2 * n].fill(0.0);
        sys.b[n + 40] = 1.0;
        sys.x0[n..2 * n].fill(0.0);

        let res = sys.assert_lockstep_is_scalar(&opts, what);
        assert!(res[0].converged && res[2].converged, "{what}");
        assert!(!res[1].converged && res[1].iterations == 1, "{what}: {:?}", res[1]);
    });
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
