//! Preconditioned conjugate gradient with a diagonal (Jacobi) preconditioner.
//!
//! The paper solves the momentum equation `M_V dv/dt = -F·1` with "a simple
//! PCG solver" (step 6 of the algorithm) — diagonal preconditioner, one SpMV
//! and two dot products per iteration — and its kernel 9 is the same
//! algorithm run on the device. Here the iteration is written once,
//! [`pcg_solve_on`], over two axes: the [`LinearOperator`] it applies and
//! the [`SweepLauncher`] every streaming sweep is issued through, told which
//! systems the sweep covers. The host launcher ([`HostSweeps`]) runs the
//! sweep and nothing else; kernel 9's (`blast_kernels::k9`) runs it too and
//! logs it with those systems, then bills each system's launches after the
//! solve. Both legs therefore execute the same arithmetic in the same
//! order, which is what makes a degraded-to-CPU redo bit-identical to a
//! pure-CPU run.
//!
//! The same loop advances `D ≥ 1` systems that share the operator in
//! **lock step** — the momentum solve's `d` velocity components: vectors
//! are component-blocked, every system keeps its own scalars, and only the
//! operator sweep is shared ([`LinearOperator::apply_dot_wide`]; for the
//! stored [`ConstrainedOp`] one CSR row sweep feeds all `d`, for the
//! solver's sum-factorized operator one zone pass). No value
//! crosses between systems, so each walks, bit for bit, the trajectory of
//! its scalar solve; [`pcg_solve_ws`] is the loop at `D = 1`.

use std::convert::Infallible;

use crate::csr::CsrMatrix;
use crate::stream;

/// Abstract SPD operator `y = A x` for the CG loop.
///
/// Implemented by `&CsrMatrix`, by [`ConstrainedOp`] (the stored momentum
/// operator of the host *and* device legs) and by the solver's
/// sum-factorized operator. An implementation supplies the scalar apply;
/// the `d`-wide pair a lock-step solve calls defaults to looping it, so
/// only an operator with something to share across components overrides
/// it: [`ConstrainedOp`] (one CSR row sweep) and the solver's
/// `MatFreeConstrainedOp` (one zone pass over the basis tables and `svals`).
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
    /// serial `stream::reference::spmv`.
    fn apply_reference(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply(x, y);
    }
    /// `d`-wide apply for a lock-step solve: `x` and `y` hold `d`
    /// component blocks `[c·n..(c+1)·n]`, `n = dim()`, and `y_c = A x_c`.
    /// The default applies the operator `d` times; an operator that can
    /// feed all `d` inputs from one pass over its data overrides it
    /// ([`ConstrainedOp`], `MatFreeConstrainedOp`) — without changing any
    /// component's bits.
    fn apply_wide(&mut self, x: &[f64], y: &mut [f64]) {
        let n = self.dim().max(1);
        for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
            self.apply(xc, yc);
        }
    }
    /// Fused [`apply_wide`](Self::apply_wide) with `dots[c] = x_c·y_c`
    /// (`dots.len()` is `d`). The default is `d` [`apply_dot`](Self::apply_dot)s.
    fn apply_dot_wide(&mut self, x: &[f64], y: &mut [f64], dots: &mut [f64]) {
        let n = self.dim();
        for (c, dot) in dots.iter_mut().enumerate() {
            *dot = self.apply_dot(&x[c * n..(c + 1) * n], &mut y[c * n..(c + 1) * n]);
        }
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
        stream::reference::spmv(self, x, y);
    }
}

/// The stored constrained operator `P_c A P_c + (I − P_c)` of `d ≥ 1`
/// systems that share the matrix `A`, `P_c` zeroing the entries component
/// `c`'s mask marks (reflecting-wall DOFs): identity on constrained DOFs
/// keeps the projected operator SPD, and a solution whose right-hand side
/// and initial guess are zero there (as the solver's are) stays exactly
/// zero there. With one mask it is a scalar operator; with `d` it applies
/// to `d` component-blocked vectors from one sweep over `A`
/// (`stream::spmv_constrained_dot_wide`).
pub struct ConstrainedOp<'a> {
    /// The unconstrained operator.
    pub a: &'a CsrMatrix,
    /// One mask per component; `true` marks a constrained entry.
    pub masks: &'a [&'a [bool]],
    /// Masked-input staging, `stream::wide_lanes(d) · a.rows()` long
    /// (fully overwritten per apply).
    pub tmp: &'a mut [f64],
}

impl LinearOperator for ConstrainedOp<'_> {
    fn dim(&self) -> usize {
        self.a.rows()
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply_wide(x, y);
    }
    fn apply_dot(&mut self, x: &[f64], y: &mut [f64]) -> f64 {
        let mut dot = [0.0];
        self.apply_dot_wide(x, y, &mut dot);
        dot[0]
    }
    fn apply_wide(&mut self, x: &[f64], y: &mut [f64]) {
        stream::spmv_constrained_wide(self.a, x, self.masks, self.tmp, y);
    }
    // Fused SpMV + `x_c . A x_c` sweep (one pass over the matrix).
    fn apply_dot_wide(&mut self, x: &[f64], y: &mut [f64], dots: &mut [f64]) {
        stream::spmv_constrained_dot_wide(self.a, x, self.masks, self.tmp, y, dots);
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
    fn inv_diag(&self) -> &[f64] {
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
    /// Operator staging, lent by [`Self::with_operator_scratch`].
    op: Vec<f64>,
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
    fn vectors(&mut self, n: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        if self.r.len() < n {
            self.r.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.ap.resize(n, 0.0);
        }
        (&mut self.r[..n], &mut self.z[..n], &mut self.p[..n], &mut self.ap[..n])
    }

    /// Lends `f` a fifth grow-only `n`-vector next to the workspace itself:
    /// the staging buffer an operator such as [`ConstrainedOp`] holds while
    /// the solve it is passed to borrows the iteration vectors. Contents
    /// are whatever the previous borrower left.
    pub fn with_operator_scratch<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut [f64], &mut Self) -> R,
    ) -> R {
        let mut op = std::mem::take(&mut self.op);
        if op.len() < n {
            op.resize(n, 0.0);
        }
        let out = f(&mut op[..n], self);
        self.op = op;
        out
    }
}

/// One streaming sweep of the PCG iteration — the unit a [`SweepLauncher`]
/// issues, and the unit kernel 9 bills as one device launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `y = A x` (the residual set-up; every iteration when launch-per-op).
    Apply,
    /// Overflow-safe Euclidean norm.
    Nrm2,
    /// Dot product.
    Dot,
    /// `y += αx`.
    Axpy,
    /// Jacobi apply `z = M⁻¹ r`.
    Precond,
    /// Direction update `p = z + βp`.
    UpdateDirection,
    /// Fused `y = A x` producing `x·y`.
    ApplyDot,
    /// Fused `x += αp; r -= αAp` producing `‖r‖²`.
    Axpy2Nrm2,
    /// Fused Jacobi apply + `r·z` + direction update.
    PrecondDotUpdate,
}

/// Where the sweeps of [`pcg_solve_on`] run: `sweep` executes `body` — the
/// sweep's arithmetic, identical on every backend — exactly once, or
/// returns an error *without* running it (a failed device launch never
/// executed, so the iterate is untouched).
pub trait SweepLauncher {
    /// Why a sweep could not be issued.
    type Error;
    /// Issues one sweep on behalf of the systems `live` marks (`live[c]`:
    /// system `c`'s scalar solve issues this sweep too; `live.len()` is the
    /// solve's `D`).
    fn sweep<R>(
        &mut self,
        which: Sweep,
        live: &[bool],
        body: impl FnOnce() -> R,
    ) -> Result<R, Self::Error>;
}

/// The host backend: a sweep is its body.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSweeps;

impl SweepLauncher for HostSweeps {
    type Error = Infallible;
    #[inline(always)]
    fn sweep<R>(
        &mut self,
        _: Sweep,
        _: &[bool],
        body: impl FnOnce() -> R,
    ) -> Result<R, Infallible> {
        Ok(body())
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
/// once the workspace has warmed up): [`pcg_solve_on`] the host, one
/// system.
pub fn pcg_solve_ws<Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> PcgResult {
    let [res] = pcg_solve_lockstep_ws(op, precond, b, x, opts, ws);
    res
}

/// [`pcg_solve_on`] the host: the `D` component blocks of `b` and `x`
/// solved in lock step, one [`PcgResult`] per system.
pub fn pcg_solve_lockstep_ws<const D: usize, Op: LinearOperator>(
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> [PcgResult; D] {
    match pcg_solve_on(&mut HostSweeps, op, precond, b, x, opts, ws) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// The PCG iteration, every sweep issued through `launcher`, advancing
/// `D ≥ 1` systems that share the operator and the preconditioner in
/// **lock step**: `b` and `x` hold `D` component blocks `[c·n..(c+1)·n]`
/// and every system owns its scalars (`r·z`, `α`, target, outcome). A
/// vector sweep runs today's scalar kernel on each live component's block;
/// the operator sweep is one [`LinearOperator::apply_dot_wide`] for all
/// `D`. Systems never exchange a value, so each one's trajectory — every
/// iterate, its residual, its iteration count — is **bitwise** that of the
/// `D = 1` solve of its block alone.
///
/// A system that converges, breaks down (`p·Ap ≤ 0`) or is still
/// iterating at `max_iter` freezes with its state and drops out of the
/// vector sweeps, while the operator sweep keeps its lane (masking, not
/// early exit); the solve ends when the last one has frozen. It freezes
/// exactly where its scalar solve returns, so the sweeps whose `live`
/// argument marks system `c` are, in order, the sweeps the `D = 1` solve of
/// block `c` issues — which is what kernel 9 bills per component.
///
/// [`PcgOptions::fused`] decides how each of the three per-iteration steps
/// is issued: as one fused single-pass kernel (`spmv_dot`, `axpy2_nrm2`,
/// `precond_dot_update`), or as its two or three constituent BLAS-1
/// sweeps. Both produce **bitwise-identical** trajectories (see the
/// `stream` module docs), so the choice is purely about memory transits
/// and launch counts: `4 + 3·iters` sweeps against `5 + 8·iters`, each
/// sweep covering every live system.
///
/// A launcher error ends the solve at once; `x` then holds a partial
/// iterate the caller must discard.
pub fn pcg_solve_on<const D: usize, L: SweepLauncher, Op: LinearOperator>(
    launcher: &mut L,
    op: &mut Op,
    precond: &DiagPrecond,
    b: &[f64],
    x: &mut [f64],
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> Result<[PcgResult; D], L::Error> {
    let n = op.dim();
    assert_eq!(b.len(), D * n, "pcg rhs length mismatch");
    assert_eq!(x.len(), D * n, "pcg solution length mismatch");
    let minv = precond.inv_diag();
    assert_eq!(minv.len(), n, "pcg preconditioner dimension mismatch");
    let fused = opts.fused;
    // Block `c` of a component-blocked vector.
    let at = |c: usize| c * n..(c + 1) * n;

    // (`z` is written by the launch-per-op sweeps only.)
    let (r, z, p, ap) = ws.vectors(D * n);

    // r = b - A x. Every scalar solve issues the set-up sweeps.
    let all = [true; D];
    launcher.sweep(Sweep::Apply, &all, || op.apply_wide(x, r))?;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let bnorm: [f64; D] =
        launcher.sweep(Sweep::Nrm2, &all, || std::array::from_fn(|c| stream::nrm2(&b[at(c)])))?;
    let target = bnorm.map(|bn| (opts.rel_tol * bn.max(opts.abs_tol)).max(opts.abs_tol));

    let mut rnorm: [f64; D] =
        launcher.sweep(Sweep::Nrm2, &all, || std::array::from_fn(|c| stream::nrm2(&r[at(c)])))?;
    // Which systems are still iterating, and the outcome of the others (a
    // system that never freezes ran out of iterations).
    let mut live = [true; D];
    let mut out: [PcgResult; D] = std::array::from_fn(|_| PcgResult {
        converged: false,
        iterations: opts.max_iter,
        residual: f64::NAN,
    });
    for c in 0..D {
        if rnorm[c] <= target[c] {
            live[c] = false;
            out[c] = PcgResult { converged: true, iterations: 0, residual: rnorm[c] };
        }
    }
    if !live.contains(&true) {
        return Ok(out);
    }

    // z = M⁻¹ r; p = z; rz = r·z.
    let mut rz = [0.0; D];
    if fused {
        launcher.sweep(Sweep::PrecondDotUpdate, &live, || {
            for c in each(live) {
                rz[c] = stream::precond_dot_update(minv, &r[at(c)], None, &mut p[at(c)]);
            }
        })?;
    } else {
        launcher.sweep(Sweep::Precond, &live, || {
            for c in each(live) {
                precond.apply(&r[at(c)], &mut z[at(c)]);
            }
        })?;
        for c in each(live) {
            p[at(c)].copy_from_slice(&z[at(c)]);
        }
        launcher.sweep(Sweep::Dot, &live, || {
            for c in each(live) {
                rz[c] = stream::dot(&r[at(c)], &z[at(c)]);
            }
        })?;
    }

    for iter in 1..=opts.max_iter {
        // Ap and p·Ap: the one sweep that serves every system at once (a
        // frozen system's lane is computed and ignored).
        let mut pap = [0.0; D];
        if fused {
            launcher.sweep(Sweep::ApplyDot, &live, || op.apply_dot_wide(p, ap, &mut pap))?;
        } else {
            launcher.sweep(Sweep::Apply, &live, || op.apply_wide(p, ap))?;
            launcher.sweep(Sweep::Dot, &live, || {
                for c in each(live) {
                    pap[c] = stream::dot(&p[at(c)], &ap[at(c)]);
                }
            })?;
        }
        for c in each(live) {
            if pap[c] <= 0.0 || !pap[c].is_finite() {
                // Operator not SPD (or breakdown): report non-convergence.
                live[c] = false;
                out[c] = PcgResult { converged: false, iterations: iter, residual: rnorm[c] };
            }
        }
        if !live.contains(&true) {
            break;
        }
        let alpha: [f64; D] = std::array::from_fn(|c| rz[c] / pap[c]);
        // x += alpha p; r -= alpha Ap; |r|. Finishing the norm from the
        // fused sweep's sum of squares is scalar work, not a sweep.
        if fused {
            launcher.sweep(Sweep::Axpy2Nrm2, &live, || {
                for c in each(live) {
                    let (xc, rc) = (&mut x[at(c)], &mut r[at(c)]);
                    let sumsq = stream::axpy2_nrm2(alpha[c], &p[at(c)], &ap[at(c)], xc, rc);
                    rnorm[c] = stream::nrm2_from_sumsq(sumsq, rc);
                }
            })?;
        } else {
            launcher.sweep(Sweep::Axpy, &live, || {
                for c in each(live) {
                    stream::axpy(alpha[c], &p[at(c)], &mut x[at(c)]);
                }
            })?;
            launcher.sweep(Sweep::Axpy, &live, || {
                for c in each(live) {
                    stream::axpy(-alpha[c], &ap[at(c)], &mut r[at(c)]);
                }
            })?;
            launcher.sweep(Sweep::Nrm2, &live, || {
                for c in each(live) {
                    rnorm[c] = stream::nrm2(&r[at(c)]);
                }
            })?;
        }
        for c in each(live) {
            if rnorm[c] <= target[c] {
                live[c] = false;
                out[c] = PcgResult { converged: true, iterations: iter, residual: rnorm[c] };
            }
        }
        if !live.contains(&true) {
            break;
        }
        // z = M⁻¹ r; beta = r·z / rz; p = z + beta p.
        if fused {
            launcher.sweep(Sweep::PrecondDotUpdate, &live, || {
                for c in each(live) {
                    rz[c] =
                        stream::precond_dot_update(minv, &r[at(c)], Some(rz[c]), &mut p[at(c)]);
                }
            })?;
        } else {
            launcher.sweep(Sweep::Precond, &live, || {
                for c in each(live) {
                    precond.apply(&r[at(c)], &mut z[at(c)]);
                }
            })?;
            let mut beta = [0.0; D];
            launcher.sweep(Sweep::Dot, &live, || {
                for c in each(live) {
                    let rz_new = stream::dot(&r[at(c)], &z[at(c)]);
                    beta[c] = rz_new / rz[c];
                    rz[c] = rz_new;
                }
            })?;
            launcher.sweep(Sweep::UpdateDirection, &live, || {
                for c in each(live) {
                    stream::update_direction(beta[c], &z[at(c)], &mut p[at(c)]);
                }
            })?;
        }
    }
    for c in each(live) {
        out[c].residual = rnorm[c];
    }
    Ok(out)
}

/// The systems of a lock-step solve that are still iterating, in component
/// order.
fn each<const D: usize>(live: [bool; D]) -> impl Iterator<Item = usize> {
    (0..D).filter(move |&c| live[c])
}

/// Scalar serial oracle solver: the original pre-fusion loop built from
/// `stream::reference` ops (serial, same fixed block grid and block bodies).
/// The property tests pin [`pcg_solve_ws`] against this, bit for bit.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::dense::DMatrix;
    use crate::stream::nrm2;
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

    /// Test backend: logs every sweep it issues with the systems it
    /// covers, and refuses the one with ordinal `fail_at` without running it.
    #[derive(Default)]
    struct Recording {
        log: Vec<Sweep>,
        live: Vec<Vec<bool>>,
        fail_at: Option<usize>,
    }

    impl SweepLauncher for Recording {
        type Error = usize;
        fn sweep<R>(
            &mut self,
            which: Sweep,
            live: &[bool],
            body: impl FnOnce() -> R,
        ) -> Result<R, usize> {
            if self.fail_at == Some(self.log.len()) {
                return Err(self.log.len());
            }
            self.log.push(which);
            self.live.push(live.to_vec());
            Ok(body())
        }
    }

    impl Recording {
        /// The sweeps that covered system `c`, in issue order.
        fn of(&self, c: usize) -> Vec<Sweep> {
            self.log.iter().zip(&self.live).filter(|(_, live)| live[c]).map(|(&s, _)| s).collect()
        }
    }

    fn system(n: usize) -> (CsrMatrix, DiagPrecond, Vec<f64>) {
        let a = laplacian(n);
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        (a, pre, (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect())
    }

    #[test]
    fn sweep_sequence_is_exact_and_bits_match_the_host_solve() {
        use Sweep::*;
        let n = 200;
        let (a, pre, b) = system(n);
        for fused in [true, false] {
            // Set-up, one iteration, and how much of the last iteration a
            // converging solve issues (it ends at its norm).
            let (setup, iteration, to_norm): (&[Sweep], &[Sweep], usize) = if fused {
                (&[Apply, Nrm2, Nrm2, PrecondDotUpdate], &[ApplyDot, Axpy2Nrm2, PrecondDotUpdate], 2)
            } else {
                (
                    &[Apply, Nrm2, Nrm2, Precond, Dot],
                    &[Apply, Dot, Axpy, Axpy, Nrm2, Precond, Dot, UpdateDirection],
                    5,
                )
            };
            // Pinned at 12 iterations, the shape of BENCH_pcg_streaming.json's
            // gpu block: 40 launches fused, 101 launch-per-op.
            let pinned = PcgOptions { rel_tol: 0.0, abs_tol: 1e-300, max_iter: 12, fused };
            let converging = PcgOptions { fused, ..Default::default() };
            for opts in [pinned, converging] {
                let mut rec = Recording::default();
                let mut x = vec![0.0; n];
                let ws = &mut PcgWorkspace::new();
                let [res] =
                    pcg_solve_on(&mut rec, &mut (&a), &pre, &b, &mut x, &opts, ws).unwrap();

                let mut x_host = vec![0.0; n];
                let res_host = pcg_solve_ws(&mut (&a), &pre, &b, &mut x_host, &opts, ws);
                assert_eq!(x, x_host, "fused={fused}");
                assert_eq!(res.iterations, res_host.iterations);
                assert_eq!(res.residual.to_bits(), res_host.residual.to_bits());

                let whole = if res.converged { res.iterations - 1 } else { res.iterations };
                let mut expected = setup.to_vec();
                expected.extend(iteration.iter().cycle().take(iteration.len() * whole));
                if res.converged {
                    expected.extend(&iteration[..to_norm]);
                } else {
                    assert_eq!(expected.len(), if fused { 1 + 2 + 1 + 3 * 12 } else { 5 + 8 * 12 });
                }
                assert_eq!(rec.log, expected, "fused={fused}");
            }
        }
    }

    #[test]
    fn lockstep_issues_each_sweep_once_for_all_systems() {
        // Three systems over `&CsrMatrix` (the default `d`-wide apply: the
        // scalar one per block): the sweep log is that of the slowest
        // system alone, every block ends as its own scalar solve does, and
        // the sweeps marked live for a system are those its scalar solve
        // issues, in order (what kernel 9 bills per component).
        let n = 120;
        let (a, pre, b0) = system(n);
        let mut b = b0.clone();
        // An eigenvector of the Laplacian: converges in one iteration.
        b.extend((1..=n).map(|i| (std::f64::consts::PI * i as f64 / (n + 1) as f64).sin()));
        b.extend(std::iter::repeat_n(0.0, n)); // done before the first iteration
        // Converging, and capped so that the first system is still iterating
        // at `max_iter` (it freezes after a whole iteration, not at a norm).
        let cases = [true, false].map(|fused| [2000, 3].map(|max_iter| (fused, max_iter)));
        for (fused, max_iter) in cases.into_iter().flatten() {
            let opts = PcgOptions { fused, max_iter, ..Default::default() };
            let ws = &mut PcgWorkspace::new();
            let mut rec = Recording::default();
            let mut x = vec![0.0; 3 * n];
            let res: [PcgResult; 3] =
                pcg_solve_on(&mut rec, &mut (&a), &pre, &b, &mut x, &opts, ws).unwrap();

            let mut longest = Recording::default();
            for c in 0..3 {
                let mut alone = Recording::default();
                let mut x_c = vec![0.0; n];
                let b_c = &b[c * n..(c + 1) * n];
                let [res_c] =
                    pcg_solve_on(&mut alone, &mut (&a), &pre, b_c, &mut x_c, &opts, ws).unwrap();
                assert_eq!(x[c * n..(c + 1) * n], x_c, "fused={fused} c={c}");
                assert_eq!(res[c].iterations, res_c.iterations, "fused={fused} c={c}");
                assert_eq!(res[c].residual.to_bits(), res_c.residual.to_bits());
                assert_eq!(rec.of(c), alone.log, "fused={fused} c={c}");
                assert!(alone.live.iter().all(|live| live == &[true]), "fused={fused} c={c}");
                if alone.log.len() > longest.log.len() {
                    longest = alone;
                }
            }
            assert_eq!(res[2].iterations, 0);
            assert_ne!(res[0].iterations, res[1].iterations, "the sample must desynchronise");
            assert_eq!(res[0].converged, max_iter > 3, "fused={fused}");
            assert_eq!(rec.log, longest.log, "fused={fused}");
        }
    }

    #[test]
    fn a_refused_sweep_ends_the_solve_with_its_error() {
        let (a, pre, b) = system(24);
        for fused in [true, false] {
            let opts = PcgOptions { fused, ..Default::default() };
            let solve = |rec: &mut Recording| {
                let ws = &mut PcgWorkspace::new();
                pcg_solve_on::<1, _, _>(rec, &mut (&a), &pre, &b, &mut [0.0; 24], &opts, ws)
            };
            let mut clean = Recording::default();
            solve(&mut clean).unwrap();
            for k in 0..clean.log.len() {
                let mut rec = Recording { fail_at: Some(k), ..Default::default() };
                assert_eq!(solve(&mut rec).unwrap_err(), k, "fused={fused}");
                // Nothing is issued past the refusal.
                assert_eq!(rec.log, clean.log[..k], "fused={fused}, k={k}");
            }
        }
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
