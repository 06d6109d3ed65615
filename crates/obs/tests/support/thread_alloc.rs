//! A counting global allocator for allocation-discipline tests, shared
//! by `#[path]` between the test binaries that need it.
//!
//! It counts **per thread**: libtest's own threads (and any other test
//! of the same binary) allocate whenever they like, and a process-wide
//! counter sees them inside the counted window. The flag and the
//! counter are `const`-initialised thread-locals of plain `Cell`s — no
//! lazy initialisation and no destructor, so reading them from inside
//! the allocator neither allocates nor recurses.
//!
//! Two counts: allocation calls (a `realloc` is one), and the bytes
//! they asked for (a `realloc` asks for its whole new size), so a
//! buffer that doubles its way up shows every block it passed through.

#![expect(unsafe_code, reason = "a counting GlobalAlloc over System")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note_alloc(bytes: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

// SAFETY: pure pass-through to the `System` allocator (which upholds
// the GlobalAlloc contract); the only addition is a bump of two
// thread-local `Cell`s, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same contract as ours; layout is forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which forwarded
        // to `System`, so returning them to `System` is well-paired.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from our pass-through `alloc`;
        // the caller guarantees `new_size` per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count the allocations (and reallocations) the calling thread makes
/// during `f`, and the bytes they ask for: `(allocations, bytes,
/// result)`. Work `f` hands to other threads is not counted.
pub(crate) fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.set(0);
    BYTES.set(0);
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    (ALLOCS.get(), BYTES.get(), r)
}
