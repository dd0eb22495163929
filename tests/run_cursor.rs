//! The re-entrant run driver (`Hydro::{begin, advance, checkpoint_now,
//! rollback}` over a `RunCursor`): a loop left at any accepted step and
//! re-entered in a fresh solver through the store is the loop `Hydro::run`
//! drives, and no generation it writes — on the policy's cadence or on
//! demand — holds a state the auditor has not passed.

mod common;

use std::sync::Arc;

use blast_repro::blast_core::{
    AssemblyMode, AuditConfig, Checkpoint, CheckpointPolicy, CheckpointStore, ExecMode, Executor,
    Hydro, HydroError, RunConfig, Sedov,
};
use blast_repro::gpu_sim::{derive_fault, CpuSpec, DeviceCatalog, GpuDevice, SdcPlan, SdcSite};
use common::{state_digest, SEED};

const T_FINAL: f64 = 1.0; // never reached: every run here ends on its step budget

fn solver(
    assembly: AssemblyMode,
    on_device: bool,
    audit: Option<(AuditConfig, SdcPlan)>,
) -> Hydro<2> {
    let exec = if on_device {
        let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let mode = ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 };
        Executor::new(mode, CpuSpec::e5_2670(), Some(gpu))
    } else {
        Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None)
    };
    let problem = Sedov::default();
    let builder = Hydro::<2>::builder(&problem, [6, 6]).assembly(assembly).executor(exec);
    match audit {
        Some((audit, plan)) => builder.audit(audit).sdc_plan(plan),
        None => builder,
    }
    .build()
    .expect("problem fits")
}

/// Simulated clock and metered joules of a solver's devices, as bits.
fn meters(hydro: &Hydro<2>) -> (u64, u64) {
    let exec = hydro.executor();
    let joules =
        exec.host.energy_joules() + exec.gpu.as_ref().map_or(0.0, |g| g.energy_joules());
    (hydro.wall_time().to_bits(), joules.to_bits())
}

/// Every retained generation, oldest first.
fn images(store: &mut CheckpointStore) -> Vec<Vec<u8>> {
    (0..store.generations()).rev().map(|i| store.image_mut(i).expect("retained").clone()).collect()
}

fn decoded(store: &mut CheckpointStore) -> Vec<Checkpoint> {
    images(store).iter().map(|image| Checkpoint::from_bytes(image).expect("valid image")).collect()
}

#[test]
fn a_loop_left_and_reentered_through_the_store_is_the_run() {
    const N: usize = 8;
    const K: usize = 4;
    let policy = CheckpointPolicy::EverySteps(2);
    for assembly in [AssemblyMode::Stored, AssemblyMode::MatrixFree] {
        for on_device in [false, true] {
            let cell = format!("{assembly:?}, device: {on_device}");
            let fresh = || {
                let hydro = solver(assembly, on_device, None);
                let state = hydro.initial_state();
                (hydro, state)
            };
            let run_to = |steps: usize, store: &mut CheckpointStore| {
                let (mut hydro, mut state) = fresh();
                let cfg = RunConfig::to(T_FINAL).max_steps(steps).checkpointed(policy, store);
                let stats = hydro.run(&mut state, cfg).expect("fault-free run");
                assert_eq!(stats.steps, steps, "{cell}");
                (hydro, state)
            };

            // `run`, whole and in two legs (the second resumes from the store).
            let mut store_whole = CheckpointStore::in_memory();
            let (_, s_whole) = run_to(N, &mut store_whole);
            let mut store_run = CheckpointStore::in_memory();
            let (h_run1, _) = run_to(K, &mut store_run);
            let (h_run2, s_run) = run_to(N, &mut store_run);

            // The cursor by hand: K steps, solver and state dropped, the
            // rest in a fresh solver that finds its place in the store.
            let mut store = CheckpointStore::in_memory();
            let (mut h1, mut s1) = fresh();
            let mut cursor = h1.begin(&mut s1, &store).expect("initial dt");
            for _ in 0..K {
                h1.advance(&mut s1, &mut cursor, T_FINAL, policy, &mut store).expect("first leg");
            }
            let (mut h2, mut s2) = fresh();
            let mut cursor = h2.begin(&mut s2, &store).expect("resume");
            assert_eq!((cursor.steps, s2.t > 0.0), (K, true), "{cell}: resumed at the generation");
            while !cursor.done(&s2, T_FINAL, N) {
                h2.advance(&mut s2, &mut cursor, T_FINAL, policy, &mut store).expect("second leg");
            }

            assert_eq!(cursor.steps, N, "{cell}");
            assert_eq!(state_digest(&s2), state_digest(&s_run), "{cell}: state, two legs");
            assert_eq!(state_digest(&s2), state_digest(&s_whole), "{cell}: state, whole run");
            assert_eq!(meters(&h1), meters(&h_run1), "{cell}: clock and joules, first leg");
            assert_eq!(meters(&h2), meters(&h_run2), "{cell}: clock and joules, second leg");
            assert_eq!(images(&mut store), images(&mut store_run), "{cell}: generations");
            assert_eq!(images(&mut store), images(&mut store_whole), "{cell}: generations");
        }
    }
}

/// Audits every third step, a generation asked for after every step and once
/// more on demand: only the audited states are written.
#[test]
fn every_generation_comes_from_a_state_whose_audit_just_passed() {
    let audit = AuditConfig::default().every_steps(3);
    let mut hydro = solver(AssemblyMode::Stored, false, Some((audit, SdcPlan::seeded(SEED))));
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory().keep_generations(64);
    let mut cursor = hydro.begin(&mut state, &store).expect("initial dt");
    hydro.checkpoint_now(&state, &mut cursor, &mut store).expect("generation 0");
    for step in 1..=10 {
        let before = store.generations();
        hydro
            .advance(&mut state, &mut cursor, T_FINAL, CheckpointPolicy::EverySteps(1), &mut store)
            .expect("fault-free step");
        hydro.checkpoint_now(&state, &mut cursor, &mut store).expect("on demand");
        let written = store.generations() - before;
        assert_eq!(written, if step % 3 == 0 { 2 } else { 0 }, "after step {step}");
    }
    let steps: Vec<u64> = decoded(&mut store).iter().map(|ck| ck.steps).collect();
    assert_eq!(steps, [0, 3, 3, 6, 6, 9, 9]);
}

/// A flip committed by step 4 waits for the audit of step 6. Nothing written
/// on the way there may hold it, or the rollback would restore the damage.
#[test]
fn a_flip_landed_between_two_audits_is_in_no_stored_generation() {
    let audit = AuditConfig::default().every_steps(3);
    let policy = CheckpointPolicy::EverySteps(1);
    // Returns the generations, the digest of the state after each step and
    // the solver.
    let drive = |flip: bool| -> (Vec<Checkpoint>, Vec<u64>, Hydro<2>) {
        let mut hydro = solver(AssemblyMode::Stored, false, Some((audit, SdcPlan::seeded(SEED))));
        let mut state = hydro.initial_state();
        let mut store = CheckpointStore::in_memory().keep_generations(64);
        let mut cursor = hydro.begin(&mut state, &store).expect("initial dt");
        hydro.checkpoint_now(&state, &mut cursor, &mut store).expect("generation 0");
        let mut trajectory = vec![state_digest(&state); 10];
        let mut rollbacks = 0;
        while !cursor.done(&state, T_FINAL, 9) {
            if flip && cursor.steps == 3 && hydro.sdc_attempts() == 3 + cursor.retries as u64 {
                // The next attempt, on the first pass only: the replay is clean.
                let at = hydro.sdc_attempts() + 1;
                hydro.arm_sdc_fault(derive_fault(SEED, SdcSite::HostState, at, 7, false));
            }
            match hydro.advance(&mut state, &mut cursor, T_FINAL, policy, &mut store) {
                Ok(()) => {
                    hydro.checkpoint_now(&state, &mut cursor, &mut store).expect("on demand");
                    trajectory[cursor.steps] = state_digest(&state);
                }
                Err(HydroError::CorruptionDetected { .. }) => {
                    rollbacks += 1;
                    assert!(rollbacks <= 2, "the newest generation replays the damage");
                    assert!(hydro.rollback(&mut state, &mut cursor, &store), "generation 0 exists");
                }
                Err(e) => panic!("{e}"),
            }
        }
        (decoded(&mut store), trajectory, hydro)
    };
    let (clean, clean_trajectory, _) = drive(false);
    let (healed, healed_trajectory, hydro) = drive(true);

    let report = hydro.executor().resilience_report(0);
    assert_eq!(report.sdc_flips_injected, 1, "the flip must land");
    assert!(report.corruptions_detected >= 1 && report.restores >= 1, "{report:?}");
    assert_eq!(healed_trajectory, clean_trajectory, "the replay heals every step");
    assert!(healed.len() >= clean.len());
    for ck in &healed {
        // (The replay's audits fall on other steps than the first pass's.)
        let clean_state = clean_trajectory[ck.steps as usize];
        assert_eq!(state_digest(&ck.state), clean_state, "generation of step {}", ck.steps);
    }
}
