//! Preconditioned conjugate gradient with a diagonal (Jacobi) preconditioner.
//!
//! The paper solves the momentum equation `M_V dv/dt = -F·1` with "a simple
//! PCG solver" (step 6 of the algorithm) — diagonal preconditioner, one SpMV
//! and two dot products per iteration. Kernel 9 is this same loop built from
//! CUSPARSE SpMV + `cublasDdot`; our GPU path reuses this module with the
//! operator supplied by the simulated-GPU SpMV so the iteration structure
//! (and therefore the SpMV call count that dominates Fig. 6) is identical.

use crate::csr::CsrMatrix;
use crate::stream;

/// Abstract SPD operator `y = A x` for the CG loop.
///
/// Implemented by [`CsrMatrix`] directly and by the simulated-GPU SpMV
/// kernel, so one PCG drives both the CPU and GPU paths.
pub trait LinearOperator {
    /// Problem dimension.
    fn dim(&self) -> usize;
    /// `y = A x`; `y` is pre-sized to `dim()`.
    fn apply(&mut self, x: &[f64], y: &mut [f64]);
    /// Fused `y = A x` returning `x·y` from the same sweep. The default
    /// runs [`apply`](Self::apply) followed by a streaming dot — exactly
    /// the unfused sequence, so overriding with a genuinely fused kernel
    /// (as [`CsrMatrix`] does) must not change the bits.
    fn apply_dot(&mut self, x: &[f64], y: &mut [f64]) -> f64 {
        self.apply(x, y);
        stream::dot(x, y)
    }
    /// Scalar-reference apply for the [`pcg_solve_ws_reference`] oracle.
    /// Defaults to [`apply`](Self::apply); [`CsrMatrix`] pins it to the
    /// serial `spmv_into`.
    fn apply_reference(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply(x, y);
    }
}

impl LinearOperator for &CsrMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        stream::spmv(self, x, y);
    }
    fn apply_dot(&mut self, x: &[f64], y: &mut [f64]) -> f64 {
        stream::spmv_dot(self, x, y)
    }
    fn apply_reference(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }
}

/// Diagonal (Jacobi) preconditioner `M^{-1} = diag(a_ii)^{-1}`.
#[derive(Clone, Debug)]
pub struct DiagPrecond {
    inv_diag: Vec<f64>,
}

impl DiagPrecond {
    /// Builds from the matrix diagonal. Zero diagonal entries (possible for
    /// constrained DOFs) fall back to 1.0 so they act as identity.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Self { inv_diag }
    }

    /// Identity preconditioner (plain CG).
    pub fn identity(n: usize) -> Self {
        Self { inv_diag: vec![1.0; n] }
    }

    /// `z = M^{-1} r`.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        for ((zi, &ri), &mi) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = mi * ri;
        }
    }

    /// The stored inverse diagonal (the fused `precond_dot_update` kernel
    /// recomputes `z = M^{-1} r` from it on the fly instead of storing `z`).
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

/// PCG stopping options and loop variant.
#[derive(Clone, Copy, Debug)]
pub struct PcgOptions {
    /// Relative residual tolerance `|r| <= rel_tol * |b|`.
    pub rel_tol: f64,
    /// Absolute residual floor (stops early for `b ~ 0`).
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// `true` (default): three fused single-pass kernels per iteration.
    /// `false`: one streaming sweep per BLAS-1 op — the paper's
    /// launch-per-op CUDA-PCG, kept for the Fig. 6 ledger and as the
    /// fusion baseline. Bitwise-identical trajectories either way.
    pub fused: bool,
}

impl Default for PcgOptions {
    fn default() -> Self {
        // BLAST's defaults: tight tolerance so that timestep-to-timestep
        // energy bookkeeping is not polluted by solver error.
        Self { rel_tol: 1e-12, abs_tol: 1e-300, max_iter: 2000, fused: true }
    }
}

/// PCG outcome.
#[derive(Clone, Debug)]
pub struct PcgResult {
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
    /// Iterations performed (equals SpMV count).
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
}

/// Reusable iteration vectors for [`pcg_solve_ws`]. **Grow-only**: the
/// backing vectors track the high-water problem size and each solve takes
/// `[..n]` slices, so a worker alternating between two mesh sizes performs
/// no heap allocation after warm-up (the steady-state zero-alloc contract;
/// the old `len != n` resize reallocated all four vectors on every
/// alternation).
#[derive(Clone, Debug, Default)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl PcgWorkspace {
    /// Empty workspace (vectors grow on first solve).
    pub fn new() -> Self {
        Self::default()
    }

    /// High-water capacity in elements (tests assert the grow-only
    /// behavior through this).
    pub fn capacity(&self) -> usize {
        self.r.len()
    }

    /// Grow-only `(r, z, p, ap)` slices for an `n`-dimensional solve;
    /// contents are whatever the previous solve left.
    pub fn vectors(&mut self, n: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        if self.r.len() < n {
            self.r.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.ap.resize(n, 0.0);
        }
        (&mut self.r[..n], &mut self.z[..n], &mut self.p[..n], &mut self.ap[..n])
    }
}

/// Solves `A x = b` by preconditioned CG. `x` holds the initial guess on
/// entry and the solution on exit.
///
/// The operator must be symmetric positive definite; with an indefinite
/// operator the iteration may stagnate, which is reported via
/// `converged = false` rather than a panic.
pub fn pcg_solve<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
) -> PcgResult {
    pcg_solve_ws(op, precond, b, x, opts, &mut PcgWorkspace::new())
}

/// [`pcg_solve`] with caller-provided iteration vectors (allocation-free
/// once the workspace has warmed up).
///
/// Dispatches on [`PcgOptions::fused`]: the fused path runs three
/// single-pass kernels per iteration (`spmv_dot`, `axpy2_nrm2`,
/// `precond_dot_update`); the unfused path runs one streaming sweep per
/// BLAS-1 op. Both produce **bitwise-identical** trajectories (see the
/// `stream` module docs), so the choice is purely about memory transits.
pub fn pcg_solve_ws<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> PcgResult {
    if opts.fused {
        pcg_solve_fused(op, precond, b, x, opts, ws)
    } else {
        pcg_solve_unfused(op, precond, b, x, opts, ws)
    }
}

/// The fused loop: 3 kernel sweeps per iteration instead of ~8.
fn pcg_solve_fused<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> PcgResult {
    let n = op.dim();
    assert_eq!(b.len(), n, "pcg rhs length mismatch");
    assert_eq!(x.len(), n, "pcg solution length mismatch");
    let minv = precond.inv_diag();
    assert_eq!(minv.len(), n, "pcg preconditioner dimension mismatch");

    let (r, _z, p, ap) = ws.vectors(n);

    // r = b - A x
    op.apply(x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let bnorm = stream::nrm2(b).max(opts.abs_tol);
    let target = (opts.rel_tol * bnorm).max(opts.abs_tol);

    let mut rnorm = stream::nrm2(r);
    if rnorm <= target {
        return PcgResult { converged: true, iterations: 0, residual: rnorm };
    }

    // Jacobi apply + r·z + p = z, one sweep, z never materialized.
    let mut rz = stream::precond_dot_update(minv, r, None, p);

    for iter in 1..=opts.max_iter {
        // SpMV producing p·Ap in the same sweep.
        let pap = op.apply_dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Operator not SPD (or breakdown): report non-convergence.
            return PcgResult { converged: false, iterations: iter, residual: rnorm };
        }
        let alpha = rz / pap;
        // x += alpha p; r -= alpha Ap; |r|^2 — one sweep.
        let sumsq = stream::axpy2_nrm2(alpha, p, ap, x, r);
        rnorm = stream::nrm2_from_sumsq(sumsq, r);
        if rnorm <= target {
            return PcgResult { converged: true, iterations: iter, residual: rnorm };
        }
        // Jacobi apply + r·z + direction update — one sweep.
        rz = stream::precond_dot_update(minv, r, Some(rz), p);
    }
    PcgResult { converged: false, iterations: opts.max_iter, residual: rnorm }
}

/// The unfused loop: one streaming sweep per op (the launch-per-op
/// baseline the bench gate compares against).
fn pcg_solve_unfused<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> PcgResult {
    let n = op.dim();
    assert_eq!(b.len(), n, "pcg rhs length mismatch");
    assert_eq!(x.len(), n, "pcg solution length mismatch");

    let (r, z, p, ap) = ws.vectors(n);

    // r = b - A x
    op.apply(x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let bnorm = stream::nrm2(b).max(opts.abs_tol);
    let target = (opts.rel_tol * bnorm).max(opts.abs_tol);

    let mut rnorm = stream::nrm2(r);
    if rnorm <= target {
        return PcgResult { converged: true, iterations: 0, residual: rnorm };
    }

    precond.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = stream::dot(r, z);

    for iter in 1..=opts.max_iter {
        op.apply(p, ap);
        let pap = stream::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return PcgResult { converged: false, iterations: iter, residual: rnorm };
        }
        let alpha = rz / pap;
        stream::axpy(alpha, p, x);
        stream::axpy(-alpha, ap, r);
        rnorm = stream::nrm2(r);
        if rnorm <= target {
            return PcgResult { converged: true, iterations: iter, residual: rnorm };
        }
        precond.apply(r, z);
        let rz_new = stream::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        stream::update_direction(beta, z, p);
    }
    PcgResult { converged: false, iterations: opts.max_iter, residual: rnorm }
}

/// Scalar serial oracle solver: the original pre-fusion loop built from
/// `stream::reference` ops (two-rounding, serial, same fixed block grid).
/// The property tests pin [`pcg_solve_ws`] against this — bitwise on hosts
/// without FMA clones, ULP-bounded with them.
pub fn pcg_solve_ws_reference<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> PcgResult {
    use stream::reference as sref;

    let n = op.dim();
    assert_eq!(b.len(), n, "pcg rhs length mismatch");
    assert_eq!(x.len(), n, "pcg solution length mismatch");

    let (r, z, p, ap) = ws.vectors(n);

    op.apply_reference(x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let bnorm = sref::nrm2(b).max(opts.abs_tol);
    let target = (opts.rel_tol * bnorm).max(opts.abs_tol);

    let mut rnorm = sref::nrm2(r);
    if rnorm <= target {
        return PcgResult { converged: true, iterations: 0, residual: rnorm };
    }

    precond.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = sref::dot(r, z);

    for iter in 1..=opts.max_iter {
        op.apply_reference(p, ap);
        let pap = sref::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return PcgResult { converged: false, iterations: iter, residual: rnorm };
        }
        let alpha = rz / pap;
        sref::axpy(alpha, p, x);
        sref::axpy(-alpha, ap, r);
        rnorm = sref::nrm2(r);
        if rnorm <= target {
            return PcgResult { converged: true, iterations: iter, residual: rnorm };
        }
        precond.apply(r, z);
        let rz_new = sref::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        sref::update_direction(beta, z, p);
    }
    PcgResult { converged: false, iterations: opts.max_iter, residual: rnorm }
}

/// [`pcg_solve_ws`] with iteration telemetry: the solve's iteration count
/// (= SpMV count, the Fig. 6 `csrMv_ci_kernel` driver), solve count, and
/// any SPD breakdown are accumulated into `tel`'s monotonic counters (see
/// `blast_telemetry::names::counters::PCG_*`). Recording is allocation-free
/// so the solver's steady-state contract is preserved.
pub fn pcg_solve_instrumented<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    tel: &blast_telemetry::Telemetry,
) -> PcgResult {
    use blast_telemetry::names::counters;
    let res = pcg_solve_ws(op, precond, b, x, opts, ws);
    tel.counter_add(counters::PCG_SOLVES, 1);
    tel.counter_add(counters::PCG_ITERATIONS, res.iterations as u64);
    if opts.fused {
        // 3 fused sweeps per iteration + the setup precond_dot_update.
        tel.counter_add(counters::PCG_FUSED_SWEEPS, 3 * res.iterations as u64 + 1);
    }
    if !res.converged {
        tel.counter_add(counters::PCG_BREAKDOWNS, 1);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::dense::{nrm2, DMatrix};
    use crate::lu::LuFactors;

    /// 1D Laplacian (tridiagonal SPD) of size n.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn solves_laplacian_to_tolerance() {
        let a = laplacian(50);
        let b: Vec<f64> = (0..50).map(|i| ((i + 1) as f64).sin()).collect();
        let mut x = vec![0.0; 50];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let res = pcg_solve(&mut (&a), &pre, &b, &mut x, &PcgOptions::default());
        assert!(res.converged, "residual {}", res.residual);
        let mut r = a.spmv(&x);
        for (ri, bi) in r.iter_mut().zip(&b) {
            *ri = bi - *ri;
        }
        assert!(nrm2(&r) <= 1e-10);
    }

    #[test]
    fn matches_direct_solve() {
        let a = laplacian(20);
        let b: Vec<f64> = (0..20).map(|i| (i as f64) * 0.1 - 1.0).collect();
        let mut x = vec![0.0; 20];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        pcg_solve(&mut (&a), &pre, &b, &mut x, &PcgOptions::default());
        let direct = LuFactors::factor(&a.to_dense()).solve(&b);
        for (u, v) in x.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn cg_exact_in_n_iterations() {
        // Unpreconditioned CG converges in at most n steps in exact
        // arithmetic; with n = 8 we should be at machine precision by 8.
        let a = laplacian(8);
        let b = vec![1.0; 8];
        let mut x = vec![0.0; 8];
        let pre = DiagPrecond::identity(8);
        let res = pcg_solve(&mut (&a), &pre, &b, &mut x, &PcgOptions::default());
        assert!(res.converged);
        assert!(res.iterations <= 8, "took {}", res.iterations);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplacian(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let pre = DiagPrecond::identity(10);
        let res = pcg_solve(&mut (&a), &pre, &b, &mut x, &PcgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_costs_fewer_iterations() {
        let a = laplacian(40);
        let b: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());

        let mut cold = vec![0.0; 40];
        let res_cold = pcg_solve(&mut (&a), &pre, &b, &mut cold, &PcgOptions::default());

        // Warm start from the converged answer: 0 or 1 iterations.
        let mut warm = cold.clone();
        let res_warm = pcg_solve(&mut (&a), &pre, &b, &mut warm, &PcgOptions::default());
        assert!(res_warm.iterations <= 1);
        assert!(res_cold.iterations > res_warm.iterations);
    }

    #[test]
    fn indefinite_operator_reports_failure() {
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, -1.0); // indefinite
        let a = b.build();
        let rhs = [1.0, 1.0];
        let mut x = [0.0, 0.0];
        let pre = DiagPrecond::identity(2);
        let res = pcg_solve(&mut (&a), &pre, &rhs, &mut x, &PcgOptions::default());
        // Either it detects non-SPD via p^T A p <= 0 or fails to converge;
        // it must not panic and must not claim convergence with a bad answer.
        if res.converged {
            let mut r = a.spmv(&x);
            for (ri, bi) in r.iter_mut().zip(&rhs) {
                *ri = bi - *ri;
            }
            assert!(nrm2(&r) < 1e-8);
        }
    }

    #[test]
    fn jacobi_preconditioner_helps_on_scaled_system() {
        // Smoothly graded diagonal over three decades with weak coupling:
        // plain CG sees condition number ~1e3, Jacobi sees ~1.
        let n = 100;
        let scale = |i: usize| 10f64.powf(3.0 * i as f64 / (n - 1) as f64);
        let mut bl = CsrBuilder::new(n, n);
        for i in 0..n {
            bl.add(i, i, scale(i));
            if i > 0 {
                bl.add(i, i - 1, -0.05 * scale(i - 1).min(scale(i)));
            }
            if i + 1 < n {
                bl.add(i, i + 1, -0.05 * scale(i).min(scale(i + 1)));
            }
        }
        let a = bl.build();
        let b = vec![1.0; n];
        let opts = PcgOptions { rel_tol: 1e-10, ..Default::default() };

        let mut x1 = vec![0.0; n];
        let plain = pcg_solve(&mut (&a), &DiagPrecond::identity(n), &b, &mut x1, &opts);
        let mut x2 = vec![0.0; n];
        let jacobi = pcg_solve(
            &mut (&a),
            &DiagPrecond::from_diagonal(&a.diagonal()),
            &b,
            &mut x2,
            &opts,
        );
        assert!(jacobi.converged);
        assert!(
            jacobi.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            jacobi.iterations,
            plain.iterations
        );
    }

    #[test]
    fn instrumented_solve_counts_iterations() {
        use blast_telemetry::names::counters;
        let a = laplacian(30);
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let tel = blast_telemetry::Telemetry::new();
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; 30];
        let r1 = pcg_solve_instrumented(
            &mut (&a), &pre, &b, &mut x, &PcgOptions::default(), &mut ws, &tel,
        );
        let mut x2 = vec![0.0; 30];
        let r2 = pcg_solve_instrumented(
            &mut (&a), &pre, &b, &mut x2, &PcgOptions::default(), &mut ws, &tel,
        );
        assert_eq!(tel.counter(counters::PCG_SOLVES), 2);
        assert_eq!(
            tel.counter(counters::PCG_ITERATIONS),
            (r1.iterations + r2.iterations) as u64
        );
        assert_eq!(tel.counter(counters::PCG_BREAKDOWNS), 0);
        // And the instrumented path returns bit-identical results.
        assert_eq!(x, x2);
    }

    #[test]
    fn dense_spd_via_operator_trait() {
        struct DenseOp(DMatrix);
        impl LinearOperator for DenseOp {
            fn dim(&self) -> usize {
                self.0.rows()
            }
            fn apply(&mut self, x: &[f64], y: &mut [f64]) {
                crate::dense::gemv_n(1.0, &self.0, x, 0.0, y);
            }
        }
        let n = 10;
        let base = DMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 / 5.0);
        let mut spd = DMatrix::zeros(n, n);
        crate::dense::gemm_tn(1.0, &base, &base, 0.0, &mut spd);
        for i in 0..n {
            spd[(i, i)] += n as f64;
        }
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let diag: Vec<f64> = (0..n).map(|i| spd[(i, i)]).collect();
        let mut op = DenseOp(spd);
        let res = pcg_solve(&mut op, &DiagPrecond::from_diagonal(&diag), &b, &mut x, &PcgOptions::default());
        assert!(res.converged);
    }
}
