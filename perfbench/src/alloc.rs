//! The benchmark binary's global allocator: [`dynar_bench::CountingAllocator`]
//! (allocation counts while enabled) wrapped with a live-byte gauge, so the
//! heap held per vehicle is read from outside the program.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering};

use dynar_bench::CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Counts allocations through [`CountingAllocator`] and tracks live bytes.
pub struct ByteCountingAllocator;

/// Bytes currently allocated through the global allocator.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn size_delta(size: usize) -> i64 {
    i64::try_from(size).expect("allocation sizes fit in i64")
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAllocator`, which forwards them to `System`; the wrapper only
// updates a statistics counter and never touches the memory.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = CountingAllocator.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(size_delta(layout.size()), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = CountingAllocator.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(size_delta(layout.size()), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = CountingAllocator.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(
                size_delta(new_size) - size_delta(layout.size()),
                Ordering::Relaxed,
            );
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAllocator.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(size_delta(layout.size()), Ordering::Relaxed);
    }
}
