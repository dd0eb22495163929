//! Time stepping: the RK2-average step, the adaptive run loop with
//! rollback / CFL redos, checkpoint and restart, and the SDC audit glue.

use blast_fem::geom::{zone_geometry_pass, zone_jacobians};
use blast_la::{Abft, AbftViolation};
use blast_telemetry::{names, Track};
use gpu_sim::{apply_flip, SdcSite, Traffic, FAULT_SEED_ENV};

use super::force::Assembly;
use super::{
    overshoots, same_bits, AdvanceOutcome, Held, Hydro, Reach, RunStats, StageVectors,
    StepOutcome, StepScratch, MAX_STEP_REDOS,
};
use crate::audit::{AuditConfig, StepAuditor, COMPRESSION_SLACK, RANGE_SLACK, SYMMETRY_TOL};
use crate::checkpoint::{Checkpoint, CheckpointPolicy, CheckpointStore, LoadedCheckpoint};
use crate::error::HydroError;
use crate::exec::{integration_traffic, CG_CPU_EFF};
use crate::state::HydroState;

/// Declarative configuration for one [`Hydro::run`] call: the target
/// time, a step budget, and (optionally) a checkpoint policy + store.
///
/// Built fluently:
///
/// ```ignore
/// hydro.run(&mut state, RunConfig::to(0.1))?;
/// hydro.run(&mut state, RunConfig::to(0.1).max_steps(50))?;
/// hydro.run(&mut state, RunConfig::to(0.1).checkpointed(policy, &mut store))?;
/// ```
pub struct RunConfig<'a> {
    /// Simulation time to run until.
    pub t_final: f64,
    /// Accepted-step budget (defaults to effectively unbounded).
    pub max_steps: usize,
    /// Checkpoint cadence ([`CheckpointPolicy::Never`] unless
    /// [`Self::checkpointed`] sets one).
    pub policy: CheckpointPolicy,
    /// Where checkpoint generations go (and where restart looks on entry).
    /// `None` runs with a throwaway in-memory store.
    pub store: Option<&'a mut CheckpointStore>,
}

impl<'a> RunConfig<'a> {
    /// Runs until `t_final` with no step budget and no checkpointing.
    pub fn to(t_final: f64) -> RunConfig<'static> {
        RunConfig { t_final, max_steps: usize::MAX, policy: CheckpointPolicy::Never, store: None }
    }

    /// Caps the number of accepted steps.
    #[must_use]
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Enables coordinated checkpoint/restart against `store` (restart
    /// resumes from the newest valid generation ahead of the state).
    #[must_use]
    pub fn checkpointed(
        self,
        policy: CheckpointPolicy,
        store: &'a mut CheckpointStore,
    ) -> RunConfig<'a> {
        RunConfig { policy, store: Some(store), ..self }
    }
}

/// Where an accepted-step loop stands — the dt and counters a
/// [`Checkpoint`] stores beside the state, plus the distance to the last
/// generation.
/// Made by [`Hydro::begin`], moved by [`Hydro::advance`]; lives on the
/// driver's stack, so the loop can be left and re-entered at any step.
#[derive(Clone, Copy, Debug)]
pub struct RunCursor {
    /// Adaptive dt for the next step (a driver that agrees on a dt with
    /// its peers overwrites it before [`Hydro::advance`]).
    pub dt: f64,
    /// Accepted steps from the beginning of the logical run.
    pub steps: usize,
    /// Redone steps (rollback + CFL), likewise.
    pub retries: usize,
    /// Accepted steps since the last generation was written or restored.
    steps_since_ckpt: usize,
    /// Host clock when that happened.
    wall_at_ckpt: f64,
}

impl RunCursor {
    /// Whether the run is over: `state` reached `t_final` or the cursor
    /// spent its step budget.
    pub fn done(&self, state: &HydroState, t_final: f64, max_steps: usize) -> bool {
        state.t >= t_final - 1e-14 || self.steps >= max_steps
    }
}

/// What the state in hand owes the auditor at a point of
/// [`Hydro::try_advance`].
#[derive(Clone, Copy, PartialEq)]
enum Audit {
    /// Entering the step: the energy reference, when none is set, from the
    /// trusted pre-step state (initial conditions or a CRC-validated
    /// restore).
    Reference,
    /// The restored pre-step state after a recoverable failure, when it
    /// carries steps no audit has passed.
    Pending,
    /// An accepted candidate, when the cadence says so.
    Due,
}

impl<const D: usize> Hydro<D> {
    pub(super) fn build_auditor(&self, cfg: AuditConfig) -> StepAuditor<D> {
        let mut aud = StepAuditor::new(cfg);
        let n = self.kin.num_dofs();
        let npts = self.rule.len();
        let x0 = &self.initial.x;
        // Legal coordinate box: the initial bounds, padded by the slack.
        for d in 0..D {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in &x0[d * n..(d + 1) * n] {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let pad = RANGE_SLACK * (hi - lo).max(f64::MIN_POSITIVE);
            aud.lo[d] = lo - pad;
            aud.hi[d] = hi + pad;
        }
        // `|J0|` reference for the strong-mass-conservation audit, in one
        // lane pass over the mesh (bitwise the per-zone `zone_jacobians`);
        // the per-audit scratch is grown here all the same.
        aud.det0.resize(self.shape.zones * npts, 0.0);
        zone_geometry_pass(&self.kin, &self.kin_table, x0, |z, geom, _| {
            for (d, g) in aud.det0[z * npts..(z + 1) * npts].iter_mut().zip(geom) {
                *d = g.det;
            }
        });
        aud.geom.reserve(npts);
        aud.pairing = self.mirror_pairing();
        // Estimated cost of one audit pass, billed per audit: Jacobians
        // for every zone, one kinetic/internal energy evaluation, and
        // the finite/range/symmetry scans.
        let vlen = (D * n) as f64;
        let elen = self.me.dim() as f64;
        let jac = (self.shape.zones * npts * 2 * D * D * self.shape.nkin) as f64;
        let (mass_flops, mass_words) = self.assembly.mass_apply_cost(&self.shape, n, D);
        let energy = mass_flops + 2.0 * elen * self.shape.nthermo as f64;
        let scans = 4.0 * (2.0 * vlen + elen);
        aud.traffic = Traffic {
            flops: jac + energy + scans,
            dram_bytes: 8.0
                * (mass_words
                    + 3.0 * vlen
                    + 2.0 * elen
                    + (self.shape.zones * npts) as f64),
            ..Traffic::default()
        };
        aud
    }

    /// Diagonal-mirror (`x ↔ y`) DOF pairing, when the mesh is bitwise
    /// symmetric under the swap and the initial velocity respects it
    /// (origin-anchored square problems like Sedov). `None` disables the
    /// symmetry probe (e.g. the 7x3 triple-point domain, or Taylor-Green
    /// whose velocity field is not mirror-symmetric).
    fn mirror_pairing(&self) -> Option<Vec<usize>> {
        if D != 2 {
            return None;
        }
        let n = self.kin.num_dofs();
        let x0 = &self.initial.x;
        let mut map = std::collections::HashMap::with_capacity(n);
        for i in 0..n {
            map.insert((x0[i].to_bits(), x0[n + i].to_bits()), i);
        }
        let mut pairing = Vec::with_capacity(n);
        for i in 0..n {
            pairing.push(*map.get(&(x0[n + i].to_bits(), x0[i].to_bits()))?);
        }
        let v0 = &self.initial.v;
        for (i, &p) in pairing.iter().enumerate() {
            if v0[i].to_bits() != v0[n + p].to_bits() {
                return None;
            }
        }
        Some(pairing)
    }

    /// Runs every invariant check against a candidate state. Returns the
    /// first violated audit as `(name, measured, tolerance)`, or `None`
    /// when the state passes (which also advances the energy reference).
    fn execute_audit(
        &self,
        state: &HydroState,
        aud: &mut StepAuditor<D>,
    ) -> Option<(&'static str, f64, f64)> {
        let n = self.kin.num_dofs();
        // NaN/Inf scans catch exponent flips and their cascades first.
        for field in [&state.v, &state.e, &state.x] {
            if let Some(&bad) = field.iter().find(|v| !v.is_finite()) {
                return Some(("finite", bad, f64::MAX));
            }
        }
        // Mesh coordinates escaping the padded initial box.
        for d in 0..D {
            let (lo, hi) = (aud.lo[d], aud.hi[d]);
            for &xv in &state.x[d * n..(d + 1) * n] {
                if xv < lo || xv > hi {
                    return Some(("range", xv, if xv < lo { lo } else { hi }));
                }
            }
        }
        // Geometry / strong mass conservation: rho/rho0 = |J0|/|J| must
        // stay positive and below the slacked strong-shock limit.
        let npts = self.rule.len();
        for z in 0..self.shape.zones {
            zone_jacobians(&self.kin, &self.kin_table, &state.x, z, &mut aud.geom);
            let g = self.consts.gamma[z];
            let limit = COMPRESSION_SLACK * (g + 1.0) / (g - 1.0);
            for k in 0..npts {
                let det = aud.geom[k].det;
                // NaN dets must trip too, not slip through the comparison.
                if det <= 0.0 || det.is_nan() {
                    return Some(("geometry", det, 0.0));
                }
                let compression = aud.det0[z * npts + k] / det;
                if compression > limit {
                    return Some(("geometry", compression, limit));
                }
            }
        }
        // Discrete energy identity vs the trusted reference.
        let total = self.energies_into(state, aud.energy.each_mut()).total();
        if let Some(e_ref) = aud.e_ref {
            let drift = (total - e_ref).abs() / e_ref.abs().max(f64::MIN_POSITIVE);
            let band = aud.energy_band();
            if drift > band {
                return Some(("energy", drift, band));
            }
        }
        // Diagonal-mirror symmetry probe (v and x; flips in e are the
        // energy audit's job). The pairing is an involution, so checking
        // `f_x[i]` against `f_y[p[i]]` for every `i` covers both halves.
        if let Some(p) = &aud.pairing {
            for field in [&state.v, &state.x] {
                let (fx, fy) = field.split_at(n);
                let scale = field
                    .iter()
                    .fold(0.0f64, |m, &v| m.max(v.abs()))
                    .max(f64::MIN_POSITIVE);
                let mut worst = 0.0f64;
                for i in 0..n {
                    worst = worst.max((fx[i] - fy[p[i]]).abs());
                }
                let asym = worst / scale;
                if asym > SYMMETRY_TOL {
                    return Some(("symmetry", asym, SYMMETRY_TOL));
                }
            }
        }
        aud.note_pass(total);
        None
    }

    /// The one billed audit of a step: runs what `point` owes the state in
    /// hand — nothing without an auditor or when nothing is owed — and
    /// bills it. A reference pass bills the energy evaluation alone; every
    /// other pass also drains the ABFT verify flops accumulated since the
    /// last one. A failed audit comes back as the typed corruption error,
    /// unreported: [`Self::try_advance`] reports every corruption it sees.
    /// The auditor is lent to the pass and put back before the bill.
    fn billed_audit(&mut self, state: &HydroState, point: Audit) -> Result<(), HydroError> {
        let Some(mut aud) = self.audit.take() else { return Ok(()) };
        let verdict = match point {
            Audit::Reference if aud.needs_reference() => {
                let total = self.energies_into(state, aud.energy.each_mut()).total();
                aud.set_reference(total);
                Some(None)
            }
            Audit::Pending if !aud.audited_clean() => Some(self.execute_audit(state, &mut aud)),
            // `due` ticks the cadence: only an accepted candidate asks.
            Audit::Due if aud.due() => Some(self.execute_audit(state, &mut aud)),
            // Nothing owed: nothing run, nothing billed.
            _ => None,
        };
        let mut traffic = aud.traffic;
        self.audit = Some(aud);
        let Some(verdict) = verdict else { return Ok(()) };
        // A reference pass checks nothing, so the verify flops wait for the
        // next audit that does.
        if point != Audit::Reference {
            if let Some(abft) = &self.abft {
                traffic.flops += abft.take_verify_flops() as f64;
            }
        }
        self.exec.bill_audit(&traffic);
        match verdict {
            None => Ok(()),
            Some((audit, measured, tolerance)) => Err(HydroError::CorruptionDetected {
                step: self.sdc_attempt,
                audit,
                measured,
                tolerance,
            }),
        }
    }

    /// Prints the replayable corruption log line (seed, step, measured vs
    /// tolerance) and records the detection in the ledger + trace; any
    /// other error is not a detection and passes unreported.
    fn report_corruption(&mut self, err: &HydroError) {
        if let HydroError::CorruptionDetected { step, audit, measured, tolerance } = err {
            let seed = self.sdc_plan.seed;
            eprintln!(
                "[sdc] {FAULT_SEED_ENV}={seed} step-attempt {step}: {audit} audit measured \
                 {measured:.6e} against tolerance {tolerance:.6e} (rerun with \
                 {FAULT_SEED_ENV}={seed} to replay)"
            );
            self.exec.note_corruption_detected();
        }
    }

    /// Suggested CFL dt for a state (runs one force evaluation; this is
    /// step 3 of the paper's algorithm, "compute initial time step").
    ///
    /// Panics on unrecoverable solver errors; see [`Self::try_suggest_dt`].
    pub fn suggest_dt(&mut self, state: &HydroState) -> f64 {
        self.try_suggest_dt(state).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::suggest_dt`]. The evaluation is left in
    /// the scratch: the next attempt, when it starts from these very state
    /// bits, runs no corner force of its own for stage 1 (DESIGN §8).
    pub fn try_suggest_dt(&mut self, state: &HydroState) -> Result<f64, HydroError> {
        let tel = self.exec.telemetry().clone();
        tel.timed(names::phases::SUGGEST_DT, || self.suggest_dt_lent(state))
    }

    /// [`Self::try_suggest_dt`] on the lent scratch.
    fn suggest_dt_lent(&mut self, state: &HydroState) -> Result<f64, HydroError> {
        self.lend_scratch(|hydro, ws| {
            let StepScratch { eval, stage, held, .. } = ws;
            *held = Held::Nothing;
            stage.s0_v.clone_from(&state.v);
            stage.s0_e.clone_from(&state.e);
            stage.s0_x.clone_from(&state.x);
            let s0 = (&stage.s0_v[..], &stage.s0_e[..], &stage.s0_x[..]);
            let ev = hydro.eval_force(s0, Reach::Whole, eval)?;
            *held = Held::CornerForce;
            Ok(hydro.dt_est(ev.cfl.max_inv_dt))
        })
    }

    /// Lends the step scratch to `f` and takes it back on its one exit,
    /// success or failure: every phase under `f` reads and writes the
    /// scratch in place, so no buffer ever leaves it.
    fn lend_scratch<R>(&mut self, f: impl FnOnce(&mut Self, &mut StepScratch) -> R) -> R {
        let mut ws = std::mem::take(&mut self.scratch);
        let out = f(self, &mut ws);
        self.scratch = ws;
        out
    }

    /// One RK2-average step (the energy-conserving scheme of the BLAST
    /// reference implementation): each sub-step evaluates the force, then
    /// updates the energy with the *midpoint* velocity and moves the mesh
    /// with the same velocity.
    ///
    /// Panics on unrecoverable solver errors; see [`Self::try_step`].
    pub fn step(&mut self, state: &mut HydroState, dt: f64) -> StepOutcome {
        self.try_step(state, dt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::step`]. On error, `state` is left
    /// exactly as it was — all failures surface before the state vectors
    /// are written — so the caller can roll back by simply retrying with a
    /// smaller dt (which is what [`Self::run`] does). A step that overshoots
    /// its CFL bound is completed and committed all the same: only
    /// [`Self::try_advance`] stops an attempt at its verdict.
    pub fn try_step(&mut self, state: &mut HydroState, dt: f64) -> Result<StepOutcome, HydroError> {
        self.attempt(state, dt, false)
    }

    /// One step attempt. With `verdict`, an attempt whose stage-2 CFL
    /// control overshoots `dt` ends at that verdict with `state` untouched,
    /// returning the estimate as its `dt_est` (DESIGN §8).
    ///
    /// Every attempt is wrapped in a `step` telemetry span on the host
    /// track, so the four phase spans it bills nest underneath it in the
    /// exported trace. The span closes on both success and error paths.
    fn attempt(
        &mut self,
        state: &mut HydroState,
        dt: f64,
        verdict: bool,
    ) -> Result<StepOutcome, HydroError> {
        let tel = self.exec.telemetry().clone();
        tel.begin(Track::Host, names::phases::STEP, self.exec.host.now());
        let res = self.try_step_inner(state, dt, verdict);
        tel.end(Track::Host, self.exec.host.now());
        let Some(abft) = &self.abft else { return res };
        // A GEMM-panel flip armed for this attempt either landed inside
        // its victim panel's verified GEMM (then `disarm` finds nothing)
        // or never got the chance (attempt aborted first).
        if std::mem::replace(&mut self.sdc_gemm_armed, false) && !abft.disarm() {
            self.exec.note_sdc_flips(1);
        }
        // A corrupted GEMM can cascade into NaN/Inf or a tangled mesh
        // before the step's own checksum poll runs; the violation is the
        // root cause, so surface it as detected corruption (the consumed
        // flip makes the redo clean).
        match (res, abft.take_violation()) {
            (Err(_), Some(v)) => Err(self.abft_corruption(v)),
            (res, _) => res,
        }
    }

    fn abft_corruption(&self, v: AbftViolation) -> HydroError {
        HydroError::CorruptionDetected {
            step: self.sdc_attempt,
            audit: "abft",
            measured: v.measured,
            tolerance: v.tolerance,
        }
    }

    fn try_step_inner(
        &mut self,
        state: &mut HydroState,
        dt: f64,
        verdict: bool,
    ) -> Result<StepOutcome, HydroError> {
        assert!(dt > 0.0, "dt must be positive");
        // What the scratch holds serves this attempt or none.
        let held = self.scratch.held;
        self.scratch.held = Held::Nothing;
        if self.step_fault_budget > 0 {
            // Injected step fault: fires before any work, so the state is
            // trivially untouched and the failure rolls back cleanly.
            self.step_fault_budget -= 1;
            return Err(HydroError::NonFinite { what: "injected step fault", index: 0 });
        }
        // This attempt's ordinal on the SDC plan's clock (redos included,
        // so a consumed transient flip cannot re-fire on the redo).
        self.sdc_attempt += 1;
        let attempt = self.sdc_attempt;
        // Without ABFT there is no checked multiply for a GEMM-panel flip
        // to land in; the plan still consumes it.
        if let (Some(f), Some(abft)) = (self.sdc_plan.take(SdcSite::GemmPanel, attempt), &self.abft)
        {
            // Exponent-MSB flips in a GEMM panel overflow into Inf more
            // often than they corrupt silently; cap the armed bit so the
            // flip stays in the band the checksums must catch.
            let panel = (f.lane % self.shape.zones as u64) as usize;
            abft.arm_flip(panel, f.lane, f.bit.min(55));
            self.sdc_gemm_armed = true;
        }
        self.lend_scratch(|hydro, ws| hydro.rk2_average(state, dt, attempt, verdict, held, ws))
    }

    /// The two RK2-average stages of [`Self::try_step`]: each reads its
    /// stage vectors and writes the force / energy buffers beside them, in
    /// place, so a failure anywhere is a plain return. Stage 1 runs what
    /// `held` does not already hold of it; with `verdict`, stage 2 ends the
    /// attempt at a CFL verdict that dooms it, leaving stage 1 held when a
    /// stored evaluation kept it.
    fn rk2_average(
        &mut self,
        state: &mut HydroState,
        dt: f64,
        attempt: u64,
        verdict: bool,
        held: Held,
        ws: &mut StepScratch,
    ) -> Result<StepOutcome, HydroError> {
        let StepScratch { eval, stage, held: keep, .. } = ws;
        let StageVectors { s0_v, s0_e, s0_x, v_half, e_half, x_half, v_avg } = stage;
        let vlen = D * self.kin.num_dofs();
        // The state-vector updates are timed as `integration` when the sink
        // keeps a wall clock.
        let tel = self.exec.telemetry().clone();
        let held = tel.timed(names::phases::INTEGRATION, || {
            let same_state = || {
                same_bits(s0_v, &state.v) && same_bits(s0_e, &state.e) && same_bits(s0_x, &state.x)
            };
            let held = match held {
                Held::CornerForce | Held::Stage1 { .. } if same_state() => held,
                _ => Held::Nothing,
            };
            s0_v.clone_from(&state.v);
            s0_e.clone_from(&state.e);
            s0_x.clone_from(&state.x);
            held
        });
        let t0 = state.t;

        // -- Stage 1: evaluate at S0 (or take what is held of it), advance
        // to the midpoint.
        let s0 = (&s0_v[..], &s0_e[..], &s0_x[..]);
        let cg1 = match held {
            Held::Nothing => self.eval_force(s0, Reach::Whole, eval)?.cg_iterations,
            Held::CornerForce => self.eval_force(s0, Reach::Tail, eval)?.cg_iterations,
            // The doomed attempt's acceleration is the warm start its stage
            // 2 would have solved from.
            Held::Stage1 { cg_iterations } => {
                self.accel_prev.copy_from_slice(&eval.accel);
                cg_iterations
            }
        };
        if !matches!(held, Held::Nothing) {
            self.exec.telemetry().counter_add(names::counters::STAGE1_REUSED, 1);
        }
        tel.timed(names::phases::INTEGRATION, || {
            v_half.clone_from(s0_v);
            blast_la::dense::axpy(0.5 * dt, &eval.accel, v_half);
        });
        self.energy_rate(v_half, eval)?;
        tel.timed(names::phases::INTEGRATION, || {
            e_half.clone_from(s0_e);
            blast_la::dense::axpy(0.5 * dt, &eval.de, e_half);
            x_half.clone_from(s0_x);
            blast_la::dense::axpy(0.5 * dt, v_half, x_half);
        });

        // -- Stage 2: evaluate at the midpoint, take the full step with the
        // averaged velocity (v0 + v_new)/2 = v0 + dt/2 * accel2.
        let reach = if verdict { Reach::UnlessOvershoot(dt) } else { Reach::Whole };
        let ev2 = self.eval_force((v_half, e_half, x_half), reach, eval)?;
        let dt_est = self.dt_est(ev2.cfl.max_inv_dt);
        if ev2.cfl.doomed {
            // Stage 1's GEMMs are the attempt's only ones: a checksum
            // violation in them outranks the verdict, and voids stage 1.
            if let Some(v) = self.abft.as_ref().and_then(Abft::take_violation) {
                return Err(self.abft_corruption(v));
            }
            self.exec.telemetry().counter_add(names::counters::CFL_VERDICTS, 1);
            // Stored, the verdict came before kernel 7: `F_z` and `accel`
            // are still stage 1's. Matrix-free, the sweep overwrote `D_z`.
            if matches!(self.assembly, Assembly::Stored { .. }) {
                *keep = Held::Stage1 { cg_iterations: cg1 };
            }
            return Ok(StepOutcome { dt_used: dt, dt_est, cg_iterations: cg1 });
        }
        // SdcSite::DeviceBuffer: a strike on the device-resident
        // acceleration buffer, before it propagates into v, e, and x.
        self.strike(SdcSite::DeviceBuffer, attempt, [&mut eval.accel]);
        tel.timed(names::phases::INTEGRATION, || {
            v_avg.clone_from(s0_v);
            blast_la::dense::axpy(0.5 * dt, &eval.accel, v_avg);
        });
        self.energy_rate(v_avg, eval)?;
        // SdcSite::TransferPayload: a strike on the energy-rate vector in
        // flight back to the host.
        self.strike(SdcSite::TransferPayload, attempt, [&mut eval.de]);

        // ABFT checkpoint: all of the attempt's GEMMs have run, and the
        // state vectors are still untouched — a checksum violation here
        // means "roll back by simply retrying", exactly like the other
        // pre-commit failures.
        if let Some(v) = self.abft.as_ref().and_then(Abft::take_violation) {
            return Err(self.abft_corruption(v));
        }

        tel.timed(names::phases::INTEGRATION, || {
            state.v.copy_from_slice(s0_v);
            blast_la::dense::axpy(dt, &eval.accel, &mut state.v);
            state.e.copy_from_slice(s0_e);
            blast_la::dense::axpy(dt, &eval.de, &mut state.e);
            state.x.copy_from_slice(s0_x);
            blast_la::dense::axpy(dt, v_avg, &mut state.x);
        });
        state.t = t0 + dt;
        // SdcSite::HostState: a strike on a committed state array after
        // the step lands. Past every in-step guard by construction; only
        // the auditor can catch it.
        self.strike(SdcSite::HostState, attempt, [&mut state.v, &mut state.e, &mut state.x]);

        // Host-side time integration cost ("the time integration ... is
        // still done on CPU").
        let pstate = self.exec.host_power_state();
        let traffic = integration_traffic(2 * vlen + state.e.len());
        self.host_phase(names::phases::INTEGRATION, &traffic, CG_CPU_EFF, pstate, || ());

        let cg_iterations = cg1 + ev2.cg_iterations;
        Ok(StepOutcome { dt_used: dt, dt_est, cg_iterations })
    }

    /// Lands the flip the SDC plan holds for `site` on this attempt, if
    /// any, in one of `targets` — the fault's lane picks which (v, e or x
    /// for a host-state strike) — and counts it when it hit data.
    fn strike<const N: usize>(&mut self, site: SdcSite, attempt: u64, targets: [&mut [f64]; N]) {
        let Some(f) = self.sdc_plan.take(site, attempt) else { return };
        if apply_flip(targets[(f.lane % N as u64) as usize], &f).is_some() {
            self.exec.note_sdc_flips(1);
        }
    }

    /// Runs the solver under a declarative [`RunConfig`] — the single run
    /// entry point, with or without checkpointing.
    ///
    /// Stepping: adaptive dt (grow by 2% per accepted step, redo at 85%
    /// of the estimate on a CFL overshoot discovered mid-step). A step
    /// that fails recoverably (mesh inversion, PCG breakdown, NaN/Inf) is
    /// rolled back and redone with dt halved, up to [`MAX_STEP_REDOS`]
    /// consecutive times. Redone steps count into [`RunStats::retries`].
    /// Persistent GPU faults never surface here — `eval_force` degrades
    /// to the CPU path internally and continues.
    ///
    /// Checkpointing (when [`RunConfig::checkpointed`] enables it):
    /// on entry, if the store holds a valid checkpoint *ahead* of
    /// `state`, the run resumes from it (state, warm-start cache, dt, and
    /// counters restored; the restore is billed to the power trace).
    /// Corrupt or truncated generations are skipped via their CRC.
    /// During the run the policy decides when to write a new generation;
    /// each write is billed as a host DRAM phase with the device
    /// quiescing at idle watts. The returned [`RunStats`] counts from the
    /// beginning of the logical run, including steps replayed from the
    /// checkpoint's counters.
    ///
    /// On return the executor's pool counters (`pool_calls`,
    /// `pool_blocks`, `pool_steals`, `pool_threads`) are refreshed in the
    /// telemetry sink.
    pub fn run(
        &mut self,
        state: &mut HydroState,
        cfg: RunConfig<'_>,
    ) -> Result<RunStats, HydroError> {
        let RunConfig { t_final, max_steps, policy, store } = cfg;
        let pool_before = rayon::pool_stats();
        let mut scratch_store;
        let store = match store {
            Some(s) => s,
            None => {
                scratch_store = CheckpointStore::in_memory();
                &mut scratch_store
            }
        };
        let mut cursor = self.begin(state, store)?;
        let mut corruption_restores = 0usize;
        let res = loop {
            if cursor.done(state, t_final, max_steps) {
                break Ok(RunStats {
                    steps: cursor.steps,
                    retries: cursor.retries,
                    t: state.t,
                    wall_s: self.exec.host.now(),
                });
            }
            if let Err(e) = self.advance(state, &mut cursor, t_final, policy, store) {
                // Every in-place redo kept failing the audit: a corrupted
                // state was committed before the audit cadence caught it,
                // so the pre-step snapshot replays the damage. Fall back
                // to the newest checkpoint (behind us, by construction)
                // and replay forward — consumed transient flips stay
                // consumed, so the replay is clean.
                let rolled_back = matches!(e, HydroError::CorruptionDetected { .. })
                    && corruption_restores < MAX_STEP_REDOS
                    && self.rollback(state, &mut cursor, store);
                if !rolled_back {
                    break Err(e);
                }
                corruption_restores += 1;
            }
        };
        self.exec.record_pool_counters(pool_before);
        res
    }

    /// Opens an accepted-step loop on `state`: when `store` holds a valid
    /// generation *ahead* of `state`, restores it (state, PCG warm-start
    /// cache, dt and counters; the restore is billed) and continues from
    /// there; otherwise starts at step 0 with a freshly suggested dt.
    /// Corrupt or truncated generations are skipped via their CRC
    /// ([`CheckpointStore::latest_valid`]).
    pub fn begin(
        &mut self,
        state: &mut HydroState,
        store: &CheckpointStore,
    ) -> Result<RunCursor, HydroError> {
        match store.latest_valid().filter(|l| l.checkpoint.state.t > state.t) {
            Some(loaded) => Ok(self.restore_loaded(loaded, state)),
            None => {
                let dt = self.try_suggest_dt(state)?;
                Ok(self.cursor_at(dt, 0, 0))
            }
        }
    }

    /// One accepted step of the loop [`Self::begin`] opened: clamps the
    /// cursor's dt onto `t_final`, steps through [`Self::try_advance`],
    /// counts the step and its redos, and writes a generation when
    /// `policy` says one is due ([`Self::checkpoint_now`]). Allocates
    /// nothing when the policy writes nothing.
    pub fn advance(
        &mut self,
        state: &mut HydroState,
        cursor: &mut RunCursor,
        t_final: f64,
        policy: CheckpointPolicy,
        store: &mut CheckpointStore,
    ) -> Result<(), HydroError> {
        let adv = self.try_advance(state, cursor.dt.min(t_final - state.t))?;
        cursor.retries += adv.redos;
        cursor.steps += 1;
        cursor.steps_since_ckpt += 1;
        cursor.dt = adv.dt_next;
        if policy.due(cursor.steps_since_ckpt, self.exec.host.now() - cursor.wall_at_ckpt) {
            self.checkpoint_now(state, cursor, store)?;
        }
        Ok(())
    }

    /// Writes (and bills) a generation at the cursor, off the policy's
    /// cadence — unless the state has steps on it that no audit has seen:
    /// with auditing on a cadence > 1, a corrupted state committed between
    /// audits must never become the generation a rollback restores.
    pub fn checkpoint_now(
        &mut self,
        state: &HydroState,
        cursor: &mut RunCursor,
        store: &mut CheckpointStore,
    ) -> Result<(), HydroError> {
        if self.audit.as_ref().is_some_and(|a| !a.audited_clean()) {
            return Ok(());
        }
        let ck = self.make_checkpoint(state, cursor.dt, cursor.steps as u64, cursor.retries as u64);
        let bytes = store
            .write(&ck)
            .map_err(|e| HydroError::Checkpoint { detail: e.to_string() })?;
        self.exec.bill_checkpoint_write(bytes);
        cursor.steps_since_ckpt = 0;
        cursor.wall_at_ckpt = self.exec.host.now();
        Ok(())
    }

    /// Puts `state` and `cursor` back on the newest valid generation even
    /// when it is *behind* `state` — the recovery for a corrupted state
    /// committed between audits, and for a peer's death. `false` (nothing
    /// touched) when the store holds no valid generation.
    pub fn rollback(
        &mut self,
        state: &mut HydroState,
        cursor: &mut RunCursor,
        store: &CheckpointStore,
    ) -> bool {
        let Some(loaded) = store.latest_valid() else { return false };
        *cursor = self.restore_loaded(loaded, state);
        true
    }

    /// A cursor that has just written or restored a generation.
    fn cursor_at(&self, dt: f64, steps: usize, retries: usize) -> RunCursor {
        RunCursor { dt, steps, retries, steps_since_ckpt: 0, wall_at_ckpt: self.exec.host.now() }
    }

    /// Takes exactly one *accepted* step at (at most) `dt`, absorbing
    /// rollback and CFL redos internally — the step under
    /// [`Self::advance`], which owns the bookkeeping around it.
    ///
    /// Each outcome of an attempt is one arm naming the dt of its redo and
    /// the budget the redo draws on (the ladder of DESIGN §8): ABFT
    /// corruption caught before the commit and a failed due audit redo at
    /// the same dt, a recoverable failure at half dt (after auditing the
    /// restored state when an audit is pending), each on the
    /// [`MAX_STEP_REDOS`] budget; a CFL overshoot redoes at 85 % of the
    /// estimate on a budget of its own. While that budget lasts, an attempt
    /// ends at its stage-2 CFL verdict, and the redo starts from the stage 1
    /// it left behind. Every corruption seen is reported.
    /// Device faults that fire during a redo attempt are threaded into the
    /// executor's resilience ledger (`redo_faults`). On error the state is
    /// never a mid-rollback intermediate: it is the pre-step state, or the
    /// candidate whose audit failed once the budget was spent.
    pub fn try_advance(
        &mut self,
        state: &mut HydroState,
        dt: f64,
    ) -> Result<AdvanceOutcome, HydroError> {
        let tel = self.exec.telemetry().clone();
        tel.timed(names::phases::STEP, || self.advance_ladder(state, dt))
    }

    /// The redo ladder of [`Self::try_advance`].
    fn advance_ladder(
        &mut self,
        state: &mut HydroState,
        dt: f64,
    ) -> Result<AdvanceOutcome, HydroError> {
        // CFL redos shrink dt by >= 15% each time, so this bound exists
        // only to guarantee termination; spent, the overshooting step stands.
        const MAX_CFL_REDOS: usize = 64;
        let mut dt = dt;
        let (mut rollback_redos, mut cfl_redos) = (0usize, 0usize);
        self.billed_audit(state, Audit::Reference)?;
        // Snapshot the pre-step state into the scratch (reused every step,
        // so accepted steps snapshot without allocating).
        let (ws, accel_prev) = (&mut self.scratch, &self.accel_prev);
        self.exec.telemetry().timed(names::phases::INTEGRATION, || {
            ws.saved_v.clone_from(&state.v);
            ws.saved_e.clone_from(&state.e);
            ws.saved_x.clone_from(&state.x);
            ws.saved_accel.clone_from(accel_prev);
        });
        let saved_t = state.t;
        loop {
            let redos = rollback_redos + cfl_redos;
            // On a redo attempt, watch the device fault counter across the
            // step so faults injected *during the redo* are accounted.
            let pre_injected = (redos > 0)
                .then(|| self.exec.gpu.as_ref().map(|g| g.fault_stats().injected).unwrap_or(0));
            let res = self.attempt(state, dt, cfl_redos < MAX_CFL_REDOS);
            if let Some(before) = pre_injected {
                let after = self.exec.gpu.as_ref().map(|g| g.fault_stats().injected).unwrap_or(0);
                if after > before {
                    self.exec.note_redo_faults(after - before);
                }
            }
            // `Ok((dt, budget, corruption seen, halved))` redoes, `Err` fails.
            let rung = match res {
                Ok(out) if overshoots(out.dt_est, dt) && cfl_redos < MAX_CFL_REDOS => {
                    Ok((0.85 * out.dt_est, &mut cfl_redos, None, false))
                }
                // A failed audit keeps the cadence armed, so the same-dt
                // redo is audited again; if the snapshot itself is corrupted
                // (cadence > 1) the budget drains and `run` falls back to the
                // newest checkpoint.
                Ok(out) => match self.billed_audit(state, Audit::Due) {
                    Ok(()) => {
                        let tel = self.exec.telemetry();
                        tel.counter_add(names::counters::STEPS, 1);
                        if redos > 0 {
                            tel.counter_add(names::counters::STEP_REDOS, redos as u64);
                        }
                        return Ok(AdvanceOutcome { outcome: out, redos, dt_next: out.dt_next() });
                    }
                    Err(err) if rollback_redos < MAX_STEP_REDOS => {
                        Ok((dt, &mut rollback_redos, Some(err), false))
                    }
                    Err(err) => Err(err),
                },
                // The consumed transient flip makes the same-dt redo
                // bit-identical to a fault-free step; halving dt would fork
                // the trajectory from the clean run.
                Err(err @ HydroError::CorruptionDetected { .. })
                    if rollback_redos < MAX_STEP_REDOS =>
                {
                    Ok((dt, &mut rollback_redos, Some(err), false))
                }
                Err(err) if err.recoverable_by_rollback() && rollback_redos < MAX_STEP_REDOS => {
                    Ok((0.5 * dt, &mut rollback_redos, None, true))
                }
                Err(err) => Err(err),
            };
            // Every redo starts from the snapshot. With an audit pending, a
            // recoverable blow-up may be committed corruption crashing the
            // next step rather than a numeric hiccup: a failed audit of the
            // restored state fails the step as `CorruptionDetected`, so
            // `run` can fall back to the newest trusted checkpoint instead
            // of halving on a poisoned snapshot.
            let rung = rung.and_then(|(next_dt, budget, seen, halved)| {
                self.restore_saved(state, saved_t);
                if halved {
                    self.billed_audit(state, Audit::Pending)?;
                }
                Ok((next_dt, budget, seen))
            });
            if let Ok((_, _, Some(err))) | Err(err) = &rung {
                self.report_corruption(err);
            }
            let (next_dt, budget, _) = rung?;
            dt = next_dt;
            *budget += 1;
        }
    }

    /// Copies the scratch's pre-step snapshot back into `state` (the
    /// rollback half of [`Self::try_advance`]'s redo loop).
    fn restore_saved(&mut self, state: &mut HydroState, saved_t: f64) {
        let ws = &self.scratch;
        state.v.copy_from_slice(&ws.saved_v);
        state.e.copy_from_slice(&ws.saved_e);
        state.x.copy_from_slice(&ws.saved_x);
        // The PCG warm start is part of the numerical trajectory:
        // restoring it makes the redone step bit-identical to a
        // fault-free first try (the SDC campaign's recovery criterion).
        self.accel_prev.copy_from_slice(&ws.saved_accel);
        state.t = saved_t;
    }

    /// Restores a decoded generation (state, PCG warm-start cache, audit
    /// baseline), bills the restore, and returns the cursor it holds.
    fn restore_loaded(&mut self, loaded: LoadedCheckpoint, state: &mut HydroState) -> RunCursor {
        let ck = loaded.checkpoint;
        assert_eq!(
            ck.accel_prev.len(),
            self.accel_prev.len(),
            "checkpoint is from a different problem shape"
        );
        *state = ck.state;
        self.accel_prev.copy_from_slice(&ck.accel_prev);
        self.scratch.held = Held::Nothing;
        // The restored state's energy differs from the last audited
        // point's; re-baseline from the (trusted) restored state.
        if let Some(aud) = &mut self.audit {
            aud.reset_reference();
        }
        self.exec.bill_checkpoint_restore(loaded.bytes);
        self.cursor_at(ck.dt, ck.steps as usize, ck.retries as usize)
    }

    /// Snapshots the run into a [`Checkpoint`] (state + PCG warm-start
    /// cache + adaptive dt + counters).
    pub fn make_checkpoint(
        &self,
        state: &HydroState,
        dt: f64,
        steps: u64,
        retries: u64,
    ) -> Checkpoint {
        Checkpoint { state: state.clone(), accel_prev: self.accel_prev.clone(), dt, steps, retries }
    }

    /// Host-phase profile: `(name, total_seconds, calls)` aggregated over
    /// the run — Table 1's corner-force / CG breakdown. Names are the
    /// interned [`blast_telemetry::names::phases`] constants, so they can
    /// be compared by value against telemetry span names without
    /// allocating.
    pub fn phase_profile(&self) -> Vec<(&'static str, f64, usize)> {
        self.exec.host.phase_totals()
    }

    /// Simulated wall-clock so far (host timeline, includes GPU waits).
    pub fn wall_time(&self) -> f64 {
        self.exec.host.now()
    }

    /// Pre-grows the host telemetry buffers for `steps` upcoming
    /// timesteps so recording them does not reallocate. A CPU step logs
    /// seven phases (2x corner_force, 2x cg_solver, 2x energy_solve, one
    /// integration) plus an `sdc_audit` phase when the auditor is on, and
    /// one enclosing `step` span; the zero-allocation harness calls this
    /// before its measurement window.
    pub fn reserve_host_telemetry(&self, steps: usize) {
        self.exec.host.reserve_telemetry(steps * 8);
        // One STEP span plus up to eight phase/solver child spans per step.
        self.exec.telemetry().reserve_spans(steps * 9);
    }
}
