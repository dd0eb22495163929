//! Time stepping: the RK2-average step, the adaptive run loop with
//! rollback / CFL redos, checkpoint and restart, and the SDC audit glue.

use blast_fem::geom::zone_jacobians;
use blast_la::{Abft, AbftViolation};
use blast_telemetry::{names, Track};
use gpu_sim::{apply_flip, SdcSite, Traffic, FAULT_SEED_ENV};
use powermon::CpuPowerState;

use super::{
    ensure_zeroed, AdvanceOutcome, ForceEval, Hydro, RunStats, StageVectors, StepOutcome,
    MAX_STEP_REDOS,
};
use crate::audit::{AuditConfig, StepAuditor};
use crate::checkpoint::{Checkpoint, CheckpointPolicy, CheckpointStore, LoadedCheckpoint};
use crate::error::HydroError;
use crate::exec::{integration_traffic, ExecMode, CG_CPU_EFF};
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
    /// Checkpoint cadence; `None` falls back to the solver's builder-time
    /// default policy ([`CheckpointPolicy::Never`] unless overridden).
    pub policy: Option<CheckpointPolicy>,
    /// Where checkpoint generations go (and where restart looks on entry).
    /// `None` runs with a throwaway in-memory store.
    pub store: Option<&'a mut CheckpointStore>,
}

impl<'a> RunConfig<'a> {
    /// Runs until `t_final` with no step budget and no checkpointing.
    pub fn to(t_final: f64) -> RunConfig<'static> {
        RunConfig { t_final, max_steps: usize::MAX, policy: None, store: None }
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
        RunConfig { policy: Some(policy), store: Some(store), ..self }
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
            let pad = cfg.range_slack * (hi - lo).max(f64::MIN_POSITIVE);
            aud.lo[d] = lo - pad;
            aud.hi[d] = hi + pad;
        }
        // `|J0|` reference for the strong-mass-conservation audit.
        aud.det0.resize(self.shape.zones * npts, 0.0);
        for z in 0..self.shape.zones {
            zone_jacobians(&self.kin, &self.kin_table, x0, z, &mut aud.geom);
            for k in 0..npts {
                aud.det0[z * npts + k] = aud.geom[k].det;
            }
        }
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

    /// Total energy computed through the auditor's scratch (alloc-free
    /// once the buffers reach their high-water size).
    fn audited_energy(&self, state: &HydroState, aud: &mut StepAuditor<D>) -> f64 {
        let n = self.kin.num_dofs();
        ensure_zeroed(&mut aud.mv_v, n);
        let mut kinetic = 0.0;
        for c in 0..D {
            let vc = &state.v[c * n..(c + 1) * n];
            self.assembly.mass_apply(&self.shape, &self.zone_dofs, vc, &mut aud.mv_v);
            kinetic += 0.5 * blast_la::dense::dot(vc, &aud.mv_v);
        }
        ensure_zeroed(&mut aud.me_e, self.me.dim());
        self.me.apply(&state.e, &mut aud.me_e);
        kinetic + aud.me_e.iter().sum::<f64>()
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
            let limit = aud.cfg.compression_slack * (g + 1.0) / (g - 1.0);
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
        let total = self.audited_energy(state, aud);
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
                if asym > aud.cfg.symmetry_tol {
                    return Some(("symmetry", asym, aud.cfg.symmetry_tol));
                }
            }
        }
        aud.note_pass(total);
        None
    }

    /// Runs [`Self::execute_audit`] and bills it (the pass itself plus the
    /// ABFT verification flops accumulated since the last audit). A failed
    /// audit is reported and returned as the typed corruption error.
    fn billed_audit(
        &self,
        state: &HydroState,
        aud: &mut StepAuditor<D>,
    ) -> Result<(), HydroError> {
        let verdict = self.execute_audit(state, aud);
        let mut traffic = aud.traffic;
        if let Some(abft) = &self.abft {
            traffic.flops += abft.take_verify_flops() as f64;
        }
        self.exec.bill_audit(&traffic);
        let Some((audit, measured, tolerance)) = verdict else {
            return Ok(());
        };
        let err = HydroError::CorruptionDetected {
            step: self.sdc_attempt.get(),
            audit,
            measured,
            tolerance,
        };
        self.report_corruption(&err);
        Err(err)
    }

    /// Prints the replayable corruption log line (seed, step, measured vs
    /// tolerance) and records the detection in the ledger + trace.
    fn report_corruption(&self, err: &HydroError) {
        if let HydroError::CorruptionDetected { step, audit, measured, tolerance } = err {
            let seed = self.sdc_plan.borrow().seed;
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

    /// Fallible variant of [`Self::suggest_dt`].
    pub fn try_suggest_dt(&mut self, state: &HydroState) -> Result<f64, HydroError> {
        let ev = self.eval_force(&state.v, &state.e, &state.x)?;
        let dt = self.cfl / ev.max_inv_dt.max(1e-300);
        self.recycle(ev, None);
        Ok(dt)
    }

    /// Hands a force evaluation's pool buffers (and the energy rate computed
    /// from it, if any) back to the step scratch.
    fn recycle(&self, ev: ForceEval, de: Option<Vec<f64>>) {
        let mut ws = self.scratch.borrow_mut();
        ws.fz = ev.fz;
        ws.accel = ev.accel;
        if let Some(de) = de {
            ws.de = de;
        }
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
    /// smaller dt (which is what [`Self::run`] does).
    ///
    /// Every attempt is wrapped in a `step` telemetry span on the host
    /// track, so the four phase spans it bills nest underneath it in the
    /// exported trace. The span closes on both success and error paths.
    pub fn try_step(&mut self, state: &mut HydroState, dt: f64) -> Result<StepOutcome, HydroError> {
        let tel = self.exec.telemetry().clone();
        tel.begin(Track::Host, names::phases::STEP, self.exec.host.now());
        let res = self.try_step_inner(state, dt);
        tel.end(Track::Host, self.exec.host.now());
        let Some(abft) = &self.abft else { return res };
        // A GEMM-panel flip armed for this attempt either landed inside
        // its victim panel's verified GEMM (then `disarm` finds nothing)
        // or never got the chance (attempt aborted first).
        if self.sdc_gemm_armed.replace(false) && !abft.disarm() {
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
            step: self.sdc_attempt.get(),
            audit: "abft",
            measured: v.measured,
            tolerance: v.tolerance,
        }
    }

    fn try_step_inner(
        &mut self,
        state: &mut HydroState,
        dt: f64,
    ) -> Result<StepOutcome, HydroError> {
        assert!(dt > 0.0, "dt must be positive");
        if self.step_fault_budget.get() > 0 {
            // Injected step fault: fires before any work, so the state is
            // trivially untouched and the failure rolls back cleanly.
            self.step_fault_budget.set(self.step_fault_budget.get() - 1);
            return Err(HydroError::NonFinite { what: "injected step fault", index: 0 });
        }
        // This attempt's ordinal on the SDC plan's clock (redos included,
        // so a consumed transient flip cannot re-fire on the redo).
        let attempt = self.sdc_attempt.get() + 1;
        self.sdc_attempt.set(attempt);
        // Without ABFT there is no checked multiply for a GEMM-panel flip
        // to land in; the plan still consumes it.
        if let (Some(f), Some(abft)) =
            (self.sdc_plan.borrow().take(SdcSite::GemmPanel, attempt), &self.abft)
        {
            // Exponent-MSB flips in a GEMM panel overflow into Inf more
            // often than they corrupt silently; cap the armed bit so the
            // flip stays in the band the checksums must catch.
            let panel = (f.lane % self.shape.zones as u64) as usize;
            abft.arm_flip(panel, f.lane, f.bit.min(55));
            self.sdc_gemm_armed.set(true);
        }
        // Stage vectors come from the step scratch and go back on every
        // exit, so neither steady-state steps nor the redo of a failed
        // attempt allocate.
        let mut stage = std::mem::take(&mut self.scratch.borrow_mut().stage);
        let res = self.rk2_average(state, dt, attempt, &mut stage);
        self.scratch.borrow_mut().stage = stage;
        res
    }

    /// The two RK2-average stages of [`Self::try_step`] on lent stage
    /// vectors. A stage that fails hands the pool buffers of the force
    /// evaluation it was consuming back before it returns.
    fn rk2_average(
        &mut self,
        state: &mut HydroState,
        dt: f64,
        attempt: u64,
        stage: &mut StageVectors,
    ) -> Result<StepOutcome, HydroError> {
        let StageVectors { s0_v, s0_e, s0_x, v_half, e_half, x_half, v_avg } = stage;
        let vlen = D * self.kin.num_dofs();
        s0_v.clone_from(&state.v);
        s0_e.clone_from(&state.e);
        s0_x.clone_from(&state.x);
        let t0 = state.t;
        let mut cg_total = 0;

        // -- Stage 1: evaluate at S0, advance to the midpoint.
        let ev1 = self.eval_force(s0_v, s0_e, s0_x)?;
        cg_total += ev1.cg_iterations;
        v_half.clone_from(s0_v);
        blast_la::dense::axpy(0.5 * dt, &ev1.accel, v_half);
        let de1 = match self.energy_rate(&ev1.fz, v_half) {
            Ok(de) => de,
            Err(e) => {
                self.recycle(ev1, None);
                return Err(e);
            }
        };
        e_half.clone_from(s0_e);
        blast_la::dense::axpy(0.5 * dt, &de1, e_half);
        x_half.clone_from(s0_x);
        blast_la::dense::axpy(0.5 * dt, v_half, x_half);
        // Stage 1's outputs are fully consumed: hand the buffers back to
        // the pools so stage 2 reuses them.
        self.recycle(ev1, Some(de1));

        // -- Stage 2: evaluate at the midpoint, take the full step with the
        // averaged velocity (v0 + v_new)/2 = v0 + dt/2 * accel2.
        let mut ev2 = self.eval_force(v_half, e_half, x_half)?;
        cg_total += ev2.cg_iterations;
        // SdcSite::DeviceBuffer: a strike on the device-resident
        // acceleration buffer, before it propagates into v, e, and x.
        if let Some(f) = self.sdc_plan.borrow().take(SdcSite::DeviceBuffer, attempt) {
            if apply_flip(&mut ev2.accel, &f).is_some() {
                self.exec.note_sdc_flips(1);
            }
        }
        v_avg.clone_from(s0_v);
        blast_la::dense::axpy(0.5 * dt, &ev2.accel, v_avg);
        let mut de2 = match self.energy_rate(&ev2.fz, v_avg) {
            Ok(de) => de,
            Err(e) => {
                self.recycle(ev2, None);
                return Err(e);
            }
        };
        // SdcSite::TransferPayload: a strike on the energy-rate vector in
        // flight back to the host.
        if let Some(f) = self.sdc_plan.borrow().take(SdcSite::TransferPayload, attempt) {
            if apply_flip(&mut de2, &f).is_some() {
                self.exec.note_sdc_flips(1);
            }
        }

        // ABFT checkpoint: all of the attempt's GEMMs have run, and the
        // state vectors are still untouched — a checksum violation here
        // means "roll back by simply retrying", exactly like the other
        // pre-commit failures.
        if let Some(v) = self.abft.as_ref().and_then(Abft::take_violation) {
            self.recycle(ev2, Some(de2));
            return Err(self.abft_corruption(v));
        }

        state.v.copy_from_slice(s0_v);
        blast_la::dense::axpy(dt, &ev2.accel, &mut state.v);
        state.e.copy_from_slice(s0_e);
        blast_la::dense::axpy(dt, &de2, &mut state.e);
        state.x.copy_from_slice(s0_x);
        blast_la::dense::axpy(dt, v_avg, &mut state.x);
        state.t = t0 + dt;
        // SdcSite::HostState: a strike on a committed state array after
        // the step lands — the lane picks v, e, or x. Past every in-step
        // guard by construction; only the auditor can catch it.
        if let Some(f) = self.sdc_plan.borrow().take(SdcSite::HostState, attempt) {
            let target: &mut [f64] = match f.lane % 3 {
                0 => &mut state.v,
                1 => &mut state.e,
                _ => &mut state.x,
            };
            if apply_flip(target, &f).is_some() {
                self.exec.note_sdc_flips(1);
            }
        }

        // Host-side time integration cost ("the time integration ... is
        // still done on CPU").
        let pstate = if matches!(self.exec.mode, ExecMode::Gpu { .. }) {
            CpuPowerState::GpuOffload
        } else {
            CpuPowerState::Busy
        };
        let traffic = integration_traffic(2 * vlen + state.e.len());
        self.host_phase(names::phases::INTEGRATION, &traffic, CG_CPU_EFF, pstate, || ());

        let dt_est = self.cfl / ev2.max_inv_dt.max(1e-300);
        self.recycle(ev2, Some(de2));
        Ok(StepOutcome { dt_used: dt, dt_est, cg_iterations: cg_total })
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
    /// Checkpointing (when the config or the builder default enables it):
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
        let policy = policy.unwrap_or(self.default_ckpt_policy);
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
        &self,
        state: &HydroState,
        cursor: &mut RunCursor,
        store: &mut CheckpointStore,
    ) -> Result<(), HydroError> {
        if self.audit.as_ref().is_some_and(|a| !a.borrow().audited_clean()) {
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
        &self,
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
    /// Device faults that fire during a redo attempt are threaded into the
    /// executor's resilience ledger (`redo_faults`). On error the state is
    /// the last good (pre-step) state, never a mid-rollback intermediate.
    pub fn try_advance(
        &mut self,
        state: &mut HydroState,
        dt: f64,
    ) -> Result<AdvanceOutcome, HydroError> {
        // CFL redos shrink dt by >= 15% each time, so this bound exists
        // only to guarantee termination (the legacy loop bounded them by
        // the global retry budget).
        const MAX_CFL_REDOS: usize = 64;
        let mut dt = dt;
        let mut redos = 0usize;
        let mut rollback_redos = 0usize;
        let mut cfl_redos = 0usize;
        // The auditor's energy reference comes from a *trusted* state:
        // initial conditions or a CRC-validated checkpoint restore — both
        // of which land here as the pre-step state with no reference set.
        if let Some(aud) = &self.audit {
            if aud.borrow().needs_reference() {
                let mut a = aud.borrow_mut();
                let e_total = self.audited_energy(state, &mut a);
                a.set_reference(e_total);
                self.exec.bill_audit(&a.traffic);
            }
        }
        loop {
            // Snapshot the pre-step state into the scratch (reused every
            // iteration, so accepted steps snapshot without allocating).
            {
                let mut ws = self.scratch.borrow_mut();
                ws.saved_v.clone_from(&state.v);
                ws.saved_e.clone_from(&state.e);
                ws.saved_x.clone_from(&state.x);
                ws.saved_accel.clone_from(&self.accel_prev.borrow());
            }
            let saved_t = state.t;
            // On a redo attempt, watch the device fault counter across the
            // step so faults injected *during the redo* are accounted.
            let pre_injected = (redos > 0)
                .then(|| self.exec.gpu.as_ref().map(|g| g.fault_stats().injected).unwrap_or(0));
            let res = self.try_step(state, dt);
            if let Some(before) = pre_injected {
                let after =
                    self.exec.gpu.as_ref().map(|g| g.fault_stats().injected).unwrap_or(0);
                if after > before {
                    self.exec.note_redo_faults(after - before);
                }
            }
            let out = match res {
                Ok(out) => out,
                Err(err @ HydroError::CorruptionDetected { .. })
                    if rollback_redos < MAX_STEP_REDOS =>
                {
                    // Corruption caught *before* the state commit (an ABFT
                    // checksum): redo at the SAME dt — the transient flip
                    // was consumed, so the redo is bit-identical to a
                    // fault-free step. Halving dt would needlessly fork
                    // the trajectory from the clean run.
                    self.report_corruption(&err);
                    self.restore_saved(state, saved_t);
                    redos += 1;
                    rollback_redos += 1;
                    continue;
                }
                Err(e) if e.recoverable_by_rollback() && rollback_redos < MAX_STEP_REDOS => {
                    // Roll back to the pre-step state, redo with half dt.
                    self.restore_saved(state, saved_t);
                    // With an audit pending (cadence > 1), a recoverable
                    // blow-up may be committed corruption crashing the
                    // *next* step rather than a numeric hiccup. Audit the
                    // restored pre-step state before burning redos on a
                    // poisoned snapshot: a failed audit converts to
                    // `CorruptionDetected` so `run` can fall back to the
                    // newest trusted checkpoint.
                    if let Some(aud) = &self.audit {
                        if !aud.borrow().audited_clean() {
                            self.billed_audit(state, &mut aud.borrow_mut())?;
                        }
                    }
                    dt *= 0.5;
                    redos += 1;
                    rollback_redos += 1;
                    continue;
                }
                Err(e) => {
                    if matches!(e, HydroError::CorruptionDetected { .. }) {
                        self.report_corruption(&e);
                    }
                    return Err(e);
                }
            };
            if out.dt_est < dt * 0.999 && cfl_redos < MAX_CFL_REDOS {
                // Overshot the CFL bound: redo with a safer dt.
                self.restore_saved(state, saved_t);
                dt = 0.85 * out.dt_est;
                redos += 1;
                cfl_redos += 1;
                continue;
            }
            // Audit the accepted candidate before committing to it (the
            // SDC detector's cadence; a failed audit keeps the cadence
            // armed so the redo is re-audited).
            if let Some(aud) = &self.audit {
                if aud.borrow_mut().due() {
                    let verdict = self.billed_audit(state, &mut aud.borrow_mut());
                    if let Err(err) = verdict {
                        if rollback_redos < MAX_STEP_REDOS {
                            // Same-dt redo from the pre-step snapshot. If
                            // the snapshot itself is corrupted (cadence >
                            // 1), the redo fails the audit again and the
                            // budget drains — `run` then falls back to
                            // the newest checkpoint.
                            self.restore_saved(state, saved_t);
                            redos += 1;
                            rollback_redos += 1;
                            continue;
                        }
                        return Err(err);
                    }
                }
            }
            let dt_next = out.dt_next();
            let tel = self.exec.telemetry();
            tel.counter_add(names::counters::STEPS, 1);
            if redos > 0 {
                tel.counter_add(names::counters::STEP_REDOS, redos as u64);
            }
            return Ok(AdvanceOutcome { outcome: out, redos, dt_next });
        }
    }

    /// Copies the scratch's pre-step snapshot back into `state` (the
    /// rollback half of [`Self::try_advance`]'s redo loop).
    fn restore_saved(&self, state: &mut HydroState, saved_t: f64) {
        let ws = self.scratch.borrow();
        state.v.copy_from_slice(&ws.saved_v);
        state.e.copy_from_slice(&ws.saved_e);
        state.x.copy_from_slice(&ws.saved_x);
        // The PCG warm start is part of the numerical trajectory:
        // restoring it makes the redone step bit-identical to a
        // fault-free first try (the SDC campaign's recovery criterion).
        self.accel_prev.borrow_mut().copy_from_slice(&ws.saved_accel);
        state.t = saved_t;
    }

    /// Restores a decoded generation (state, PCG warm-start cache, audit
    /// baseline), bills the restore, and returns the cursor it holds.
    fn restore_loaded(&self, loaded: LoadedCheckpoint, state: &mut HydroState) -> RunCursor {
        let ck = loaded.checkpoint;
        assert_eq!(
            ck.accel_prev.len(),
            self.accel_prev.borrow().len(),
            "checkpoint is from a different problem shape"
        );
        *state = ck.state;
        self.accel_prev.borrow_mut().copy_from_slice(&ck.accel_prev);
        // The restored state's energy differs from the last audited
        // point's; re-baseline from the (trusted) restored state.
        if let Some(aud) = &self.audit {
            aud.borrow_mut().reset_reference();
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
        Checkpoint {
            state: state.clone(),
            accel_prev: self.accel_prev.borrow().clone(),
            dt,
            steps,
            retries,
        }
    }

    /// Host-phase profile: `(name, total_seconds, calls)` aggregated over
    /// the run — Table 1's corner-force / CG breakdown. Names are the
    /// interned [`blast_telemetry::names::phases`] constants, so they can
    /// be compared by value against telemetry span names without
    /// allocating.
    pub fn phase_profile(&self) -> Vec<(&'static str, f64, usize)> {
        let mut agg: Vec<(&'static str, f64, usize)> = Vec::new();
        for ev in self.exec.host.events() {
            if let Some(slot) = agg.iter_mut().find(|(n, _, _)| *n == ev.name) {
                slot.1 += ev.time_s;
                slot.2 += 1;
            } else {
                agg.push((ev.name, ev.time_s, 1));
            }
        }
        agg.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        agg
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
