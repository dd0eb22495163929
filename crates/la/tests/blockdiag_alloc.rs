//! `M_E⁻¹` is one batch: [`BlockDiag::inverse`] allocates the inverse's
//! blocks once, whatever the block count, and nothing per block — the
//! factorization and the solves run in scratch on the stack. Asserted with
//! a counting global allocator, per thread, on a pool of one so the whole
//! inverse runs on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blast_la::BlockDiag;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor touches torn-down TLS.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_heap_op() {
    let _ = HEAP_OPS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_op();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_op();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap operations performed so far by the calling thread.
fn heap_ops() -> u64 {
    HEAP_OPS.with(|c| c.get())
}

/// `count` diagonally dominant blocks of size `n`, no two alike.
fn batch(n: usize, count: usize) -> BlockDiag {
    let entry = |p: usize| {
        let (z, q) = (p / (n * n), p % (n * n));
        let diag = if q.is_multiple_of(n + 1) { n as f64 } else { 0.0 };
        diag + ((p * 37 + z) % 101) as f64 * 0.01
    };
    BlockDiag::from_batch(n, (0..count * n * n).map(entry).collect())
}

#[test]
fn batched_inverse_allocates_one_batch_setup_oracle() {
    // The SIMD level is read once per process, `BLAST_SIMD` included.
    blast_la::simd::level();
    rayon::Pool::new(1).install(|| {
        // The workloads' block sizes (2D Q2, 3D Q2, 3D Q3) at 1 to 1024 blocks.
        for n in [4, 8, 27] {
            for count in [1, 3, 125, 1024] {
                let a = batch(n, count);
                let before = heap_ops();
                let inv = a.inverse();
                let ops = heap_ops() - before;
                let what = format!("n = {n}, {count} blocks: {ops} heap operations");
                assert_eq!(ops, 1, "{what}, want the batch alone");
                assert_eq!(inv.num_blocks(), count);
            }
        }
    });
}
