//! The allocation-free hot-path contract of `zero_alloc_steady_state.rs`
//! on a **two-thread pool**, counting every thread's heap operations.
//!
//! A parallel call dispatches from the caller's stack frame (blocks,
//! partials, panic slot) to workers that were created with the pool, and
//! the kernels' per-thread scratch (`kernels::sumfac`, `la::abft`) lives
//! as long as those workers do — so once every pool thread has grown its
//! scratch, steady-state steps are heap-quiet on all of them.
//!
//! The counter is process-wide, so this binary holds this one test: a
//! sibling's set-up would land in the measured window.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use blast_repro::blast_core::{AssemblyMode, ExecMode};
use rayon::prelude::*;

/// System allocator wrapper that counts every thread's allocation and
/// reallocation calls.
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_steps_do_not_touch_the_heap_on_two_threads() {
    const WIDTH: usize = 2;
    let mode = || ExecMode::CpuParallel { threads: WIDTH as u32 };
    let pool = rayon::Pool::new(WIDTH);
    pool.install(|| {
        for assembly in [AssemblyMode::Stored, AssemblyMode::MatrixFree] {
            // Which thread runs which zone block is a race, so a worker
            // could meet a kernel for the first time inside the measured
            // window. Grow every pool thread's kernel scratch up front: one
            // item per thread, and the barrier keeps a fast thread from
            // taking both (the solver inside runs serially, nested).
            let every_thread = Barrier::new(WIDTH);
            (0..WIDTH).into_par_iter().for_each(|_| {
                every_thread.wait();
                common::warmed_up_solver(assembly, mode());
            });
            let (mut hydro, mut state, cursor) = common::warmed_up_solver(assembly, mode());
            let calls_before = pool.stats().parallel_calls;
            common::assert_steady_state_is_heap_quiet(&mut hydro, &mut state, cursor, heap_ops);
            assert!(
                pool.stats().parallel_calls > calls_before,
                "the measured window must have dispatched to the pool"
            );
        }
    });
}
