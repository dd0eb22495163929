//! The parallelism admissibility contract: running the solver on 1 pool
//! thread and on 8 must produce *bitwise identical* physics. Asserted at
//! the strongest level available — the serialized checkpoint images of
//! the two runs must be byte-for-byte equal, so any drift anywhere in
//! `(v, e, x, t)` or the adaptive dt fails the test.

use blast_repro::blast_core::{
    Checkpoint, CheckpointStore, ExecMode, Executor, Hydro, Sedov,
};
use blast_repro::gpu_sim::CpuSpec;

/// Runs a short 2D Sedov on `threads` pool threads and returns the
/// serialized checkpoint image of the final state.
fn sedov_checkpoint_image(threads: usize) -> Vec<u8> {
    rayon::Pool::new(threads).install(|| {
        let exec = Executor::new(
            ExecMode::CpuParallel { threads: threads as u32 },
            CpuSpec::e5_2670(),
            None,
        );
        let problem = Sedov::default();
        let mut hydro = Hydro::<2>::builder(&problem, [8, 8]).executor(exec).build()
            .expect("problem fits");
        let mut state = hydro.initial_state();
        let mut dt = hydro.suggest_dt(&state);
        let steps = 5u64;
        for _ in 0..steps {
            let out = hydro.step(&mut state, dt);
            dt = out.dt_next();
        }
        let ck = Checkpoint { state, accel_prev: Vec::new(), dt, steps, retries: 0 };
        let mut store = CheckpointStore::in_memory();
        store.write(&ck).expect("in-memory write cannot fail");
        ck.to_bytes()
    })
}

#[test]
fn one_thread_and_eight_thread_checkpoints_are_byte_identical() {
    let reference = sedov_checkpoint_image(1);
    assert!(!reference.is_empty());
    for threads in [2usize, 4, 8] {
        let image = sedov_checkpoint_image(threads);
        assert_eq!(
            reference, image,
            "checkpoint image at {threads} threads diverged from the 1-thread run"
        );
    }
}
