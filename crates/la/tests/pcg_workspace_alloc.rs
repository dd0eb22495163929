//! Regression for the workspace-thrash bug: `PcgWorkspace` used to resize
//! its four iteration vectors whenever `len != n`, so a caller alternating
//! between two problem sizes (e.g. a multi-tenant worker interleaving a 2D
//! and a 3D job) reallocated every vector on **every** solve. The
//! workspace is now grow-only — after one warm-up at each size, alternating
//! solves perform zero heap allocations. Asserted with a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use blast_la::{pcg_solve_ws, CsrBuilder, CsrMatrix, DiagPrecond, PcgOptions, PcgWorkspace};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

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
fn alternating_problem_sizes_do_not_thrash_the_workspace() {
    let sizes = [120usize, 64];
    let systems: Vec<(CsrMatrix, DiagPrecond, Vec<f64>)> = sizes
        .iter()
        .map(|&n| {
            let a = laplacian(n);
            let pre = DiagPrecond::from_diagonal(&a.diagonal());
            let b: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.11).sin()).collect();
            (a, pre, b)
        })
        .collect();
    let opts = PcgOptions::default();
    let mut ws = PcgWorkspace::new();
    let mut x = vec![0.0; 120];

    // Warm-up: one solve at each size grows the workspace to the
    // high-water mark (120) and exercises both slice lengths once.
    for (a, pre, b) in &systems {
        let n = b.len();
        x[..n].fill(0.0);
        let res = pcg_solve_ws(&mut (&*a), pre, b, &mut x[..n], &opts, &mut ws);
        assert!(res.converged);
    }
    assert_eq!(ws.capacity(), 120);

    // Measured window: ten alternations between the two sizes must not
    // touch the heap (the old `len != n` resize reallocated all four
    // vectors on every single one of these solves).
    let before = heap_ops();
    for round in 0..10 {
        let (a, pre, b) = &systems[round % systems.len()];
        let n = b.len();
        x[..n].fill(0.0);
        let res = pcg_solve_ws(&mut (&*a), pre, b, &mut x[..n], &opts, &mut ws);
        assert!(res.converged);
    }
    let delta = heap_ops() - before;
    assert_eq!(delta, 0, "alternating solves performed {delta} heap ops");
    assert_eq!(ws.capacity(), 120, "workspace must stay at the high-water mark");

}
