//! `CsrMatrix` stores its column indices in 4 bytes, so a matrix wider than
//! 2^32 columns is refused, and refused before the constructor allocates:
//! a counting global allocator (per thread) reads the heap operations up to
//! the moment the panic hook runs. The refusal's message is a plain
//! literal, so the panic formats nothing before the hook.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blast_la::CsrBuilder;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor touches torn-down TLS.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
    static AT_PANIC: Cell<u64> = const { Cell::new(u64::MAX) };
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

#[test]
fn a_matrix_wider_than_32_bit_columns_is_refused_before_it_allocates() {
    // The one test of this binary: the hook is process-wide.
    std::panic::set_hook(Box::new(|_| AT_PANIC.with(|c| c.set(heap_ops()))));
    let before = heap_ops();
    let caught = std::panic::catch_unwind(|| CsrBuilder::new(1, u32::MAX as usize + 2).build());
    let _ = std::panic::take_hook();
    let at_panic = AT_PANIC.with(|c| c.get());
    let payload = caught.expect_err("2^32 + 1 columns must be refused");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(message.contains("32-bit column indices"), "message: {message:?}");
    assert_eq!(at_panic - before, 0, "heap operations before the refusal");
    // The widest matrix the indices can name is accepted.
    let widest = CsrBuilder::new(1, u32::MAX as usize + 1);
    assert_eq!(widest.build().cols(), u32::MAX as usize + 1);
}
