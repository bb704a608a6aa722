//! A counting global allocator for allocation-regression harnesses.
//!
//! The zero-allocation claims of the federation hot path ("a quiescent fleet
//! tick touches the allocator zero times") are easy to regress silently: one
//! stray `clone()` or `collect()` and the steady state allocates again
//! without any test noticing.  [`CountingAllocator`] makes the claim
//! checkable: install it as the `#[global_allocator]` of a test binary,
//! wrap the code under measurement in [`CountingAllocator::count`], and
//! assert on the returned allocation count.
//!
//! Counting is gated on an explicit enable flag so test-harness bookkeeping
//! (output capture, panic machinery) outside the measured window does not
//! pollute the numbers.  [`CountingAllocator::retained`] gates a second
//! gauge the same way: the heap bytes a stretch of work leaves allocated.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let (allocations, _) = CountingAllocator::count(|| fleet.step());
//! assert_eq!(allocations, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static MEASURING_BYTES: AtomicBool = AtomicBool::new(false);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

/// A [`System`]-backed allocator that counts allocations while enabled.
///
/// Deallocations are intentionally not counted: the regression target is
/// "no fresh heap traffic on the steady-state path", and frees of buffers
/// acquired during warm-up are legitimate.
pub struct CountingAllocator;

impl CountingAllocator {
    /// Starts counting allocations.
    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Stops counting allocations.
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Allocations observed since the last [`CountingAllocator::reset`].
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::SeqCst)
    }

    /// Resets the allocation counter to zero.
    pub fn reset() {
        ALLOCATIONS.store(0, Ordering::SeqCst);
    }

    /// Runs `f` with counting enabled and returns `(allocations, result)`.
    pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
        Self::reset();
        Self::enable();
        let result = f();
        Self::disable();
        (Self::allocations(), result)
    }

    /// Runs `f` and returns `(bytes, result)`, where `bytes` is the heap `f`
    /// retained: bytes allocated minus bytes freed while it ran (negative
    /// if it freed more than it allocated).  Independent of the allocation
    /// count, which keeps its cost off windows that only count.
    pub fn retained<R>(f: impl FnOnce() -> R) -> (i64, R) {
        NET_BYTES.store(0, Ordering::SeqCst);
        MEASURING_BYTES.store(true, Ordering::SeqCst);
        let result = f();
        MEASURING_BYTES.store(false, Ordering::SeqCst);
        (NET_BYTES.load(Ordering::SeqCst), result)
    }
}

/// Adds `bytes` to the retained-heap gauge while it measures.
fn track(bytes: i64) {
    if MEASURING_BYTES.load(Ordering::Relaxed) {
        NET_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation sizes fit in i64")
}

// SAFETY: every method delegates directly to `System`; the wrapper only
// updates atomic counters and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track(signed(layout.size()));
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            track(signed(new_size) - signed(layout.size()));
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-signed(layout.size()));
    }
}
