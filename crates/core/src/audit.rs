//! Physics-invariant step auditing — the silent-data-corruption detector.
//!
//! A bit flip that escapes the hardware (no ECC trap, no NaN) produces a
//! state that is *numerically plausible but physically wrong*. The only
//! defense at the application layer is to check invariants the discrete
//! scheme guarantees:
//!
//! - **Energy**: the RK2-average integrator conserves the total energy
//!   `½ vᵀ M_V v + 1ᵀ M_E e` exactly in real arithmetic (Table 6); in
//!   floating point it drifts by solver tolerance per step. A flip in
//!   `v`, `e`, `de/dt`, or the acceleration breaks `M_V a = -F·1` and
//!   shows up as a drift orders of magnitude above the band.
//! - **Mass / geometry**: `ρ|J|` is frozen in the Lagrangian frame, so
//!   density at a quadrature point is `ρ₀|J₀|/|J|`. A corrupted mesh
//!   coordinate moves `|J|`: negative determinants or compression beyond
//!   a slack factor of the ideal-gas strong-shock limit `(γ+1)/(γ-1)`
//!   are impossible in a sane run.
//! - **Symmetry**: a problem whose initial data is symmetric under the
//!   diagonal mirror `x ↔ y` (e.g. the origin-centered Sedov blast on a
//!   square mesh) stays symmetric to roundoff; a single flipped entry is
//!   maximally asymmetric.
//! - **Finite / range**: NaN/Inf scans and mesh coordinates leaving an
//!   expanded bounding box catch exponent-bit flips immediately.
//!
//! The auditor runs on a configurable cadence ([`AuditConfig::every_steps`])
//! after each accepted step candidate. Cadence is the cost/latency dial:
//! cadence 1 catches a flip before it is ever committed (the in-place
//! snapshot redo suffices); cadence `k` amortizes the audit cost over `k`
//! steps but means a corrupted state can be *committed* for up to `k-1`
//! steps — recovery then needs the checkpoint rollback in `Hydro::run`.
//! All audit scratch is owned by the auditor and grows once, preserving
//! the zero-allocation steady-state contract.

use blast_fem::geom::GeomAtPoint;
use gpu_sim::Traffic;

use crate::solver::ENERGY_RECONCILE_TOL;

/// Tuning knobs of the physics-invariant step auditor.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Audit every this-many accepted steps (1 = every step). A failed
    /// audit keeps the cadence armed, so the redo of a corrupted step is
    /// re-audited regardless of cadence.
    pub every_steps: u64,
    /// Per-step relative drift band of the discrete energy identity
    /// (scaled by the number of steps since the last audited reference).
    pub energy_tol: f64,
    /// Relative asymmetry band of the diagonal-mirror probe (vs roundoff
    /// at ~1e-12 and injected flips at >= ~4e-4).
    pub symmetry_tol: f64,
    /// Slack factor on the ideal-gas strong-shock compression limit
    /// `(γ+1)/(γ-1)` before the geometry audit trips.
    pub compression_slack: f64,
    /// Fraction of the initial domain extent the mesh may legitimately
    /// expand beyond before the range audit trips.
    pub range_slack: f64,
    /// Also verify kernel 7's per-zone GEMMs with Huang–Abraham column
    /// checksums ([`blast_la::Abft`]) — what catches a `SdcSite::GemmPanel`
    /// flip before the step commits. Off by default: checksums bill audit
    /// energy that an un-opted-in run must not see.
    pub abft: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            every_steps: 1,
            energy_tol: ENERGY_RECONCILE_TOL,
            symmetry_tol: 1e-7,
            compression_slack: 2.0,
            range_slack: 0.5,
            abft: false,
        }
    }
}

impl AuditConfig {
    /// Sets the audit cadence (accepted steps between audits).
    #[must_use]
    pub fn every_steps(mut self, n: u64) -> Self {
        assert!(n >= 1, "audit cadence must be at least 1");
        self.every_steps = n;
        self
    }

    /// Sets the per-step energy drift band.
    #[must_use]
    pub fn energy_tol(mut self, tol: f64) -> Self {
        self.energy_tol = tol;
        self
    }

    /// Sets the symmetry-probe band.
    #[must_use]
    pub fn symmetry_tol(mut self, tol: f64) -> Self {
        self.symmetry_tol = tol;
        self
    }

    /// Switches the ABFT GEMM checksums on or off.
    #[must_use]
    pub fn abft(mut self, on: bool) -> Self {
        self.abft = on;
        self
    }
}

/// Auditor state + owned scratch; owned by `Hydro` behind a `RefCell`,
/// installed via `Hydro::set_audit` / `HydroBuilder::audit`.
pub(crate) struct StepAuditor<const D: usize> {
    pub(crate) cfg: AuditConfig,
    /// Accepted step candidates since the last *passing* audit. Reset
    /// only on a pass, so a failed audit's redo is audited again.
    pub(crate) since_pass: u64,
    /// Total energy at the last trusted point (`None` = recompute from
    /// the next pre-step state, which is trusted by construction).
    pub(crate) e_ref: Option<f64>,
    /// Diagonal-mirror DOF pairing (`Some` only when the initial data is
    /// bitwise symmetric under `x ↔ y` — auto-detected at install).
    pub(crate) pairing: Option<Vec<usize>>,
    /// Expanded legal bounding box of mesh coordinates, per axis.
    pub(crate) lo: [f64; D],
    pub(crate) hi: [f64; D],
    /// `|J₀|` per (zone, quadrature point) — the compression reference.
    pub(crate) det0: Vec<f64>,
    /// Estimated cost of one audit pass (billed via `Executor::bill_audit`).
    pub(crate) traffic: Traffic,
    // Scratch (grown once, then reused).
    pub(crate) mv_v: Vec<f64>,
    pub(crate) me_e: Vec<f64>,
    pub(crate) geom: Vec<GeomAtPoint<D>>,
}

impl<const D: usize> StepAuditor<D> {
    pub(crate) fn new(cfg: AuditConfig) -> Self {
        Self {
            cfg,
            since_pass: 0,
            e_ref: None,
            pairing: None,
            lo: [f64::NEG_INFINITY; D],
            hi: [f64::INFINITY; D],
            det0: Vec::new(),
            traffic: Traffic::default(),
            mv_v: Vec::new(),
            me_e: Vec::new(),
            geom: Vec::new(),
        }
    }

    /// Ticks the cadence for one accepted step candidate; `true` when an
    /// audit is due. The counter is only reset by [`Self::note_pass`], so
    /// once due, every redo attempt stays due until one passes.
    pub(crate) fn due(&mut self) -> bool {
        self.since_pass += 1;
        self.since_pass >= self.cfg.every_steps
    }

    /// Records a passing audit: the measured energy becomes the new
    /// reference and the cadence restarts.
    pub(crate) fn note_pass(&mut self, e_total: f64) {
        self.e_ref = Some(e_total);
        self.since_pass = 0;
    }

    /// Whether the energy reference must be (re)established from a
    /// trusted state before the next audit.
    pub(crate) fn needs_reference(&self) -> bool {
        self.e_ref.is_none()
    }

    /// Establishes the energy reference from a trusted state's total.
    pub(crate) fn set_reference(&mut self, e_total: f64) {
        self.e_ref = Some(e_total);
    }

    /// Drops the energy reference — called after any checkpoint restore,
    /// because the restored state's energy differs from the last audited
    /// point's.
    pub(crate) fn reset_reference(&mut self) {
        self.e_ref = None;
    }

    /// The energy drift band for the current audit: per-step tolerance
    /// scaled by the steps accumulated since the last audited reference.
    pub(crate) fn energy_band(&self) -> f64 {
        self.cfg.energy_tol * self.since_pass.max(1) as f64
    }

    /// Whether the current state just passed an audit. Checkpoints are
    /// only written from audited-clean states — otherwise a flip that
    /// commits between an audit and a checkpoint poisons the very
    /// generation rollback would restore.
    pub(crate) fn audited_clean(&self) -> bool {
        self.since_pass == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_stays_due_until_a_pass() {
        let mut a = StepAuditor::<2>::new(AuditConfig::default().every_steps(3));
        assert!(!a.due());
        assert!(!a.due());
        assert!(a.due(), "third candidate is due");
        // A failed audit leaves the cadence armed: the redo is re-audited.
        assert!(a.due());
        a.note_pass(1.0);
        assert!(!a.due(), "cadence restarts after a pass");
        assert_eq!(a.e_ref, Some(1.0));
    }

    #[test]
    fn energy_band_scales_with_steps_since_reference() {
        let mut a = StepAuditor::<2>::new(AuditConfig::default().every_steps(4));
        for _ in 0..4 {
            a.due();
        }
        assert!((a.energy_band() - 4.0 * ENERGY_RECONCILE_TOL).abs() < 1e-24);
        a.note_pass(0.5);
        a.due();
        assert!((a.energy_band() - ENERGY_RECONCILE_TOL).abs() < 1e-24);
    }

    #[test]
    fn reference_lifecycle() {
        let mut a = StepAuditor::<2>::new(AuditConfig::default());
        assert!(a.needs_reference());
        a.set_reference(2.5);
        assert!(!a.needs_reference());
        a.reset_reference();
        assert!(a.needs_reference());
    }
}
