//! Shared pieces for the `ablations` harness binary and the `bench-gate`
//! regression gate.
//!
//! The sweep machinery lives in `disp-campaign` (grids, seeds, the trial
//! pipeline) and `disp-analysis` (row formatting); the `table1` and
//! `figures` sweeps are `disp-campaign run --campaign table1|figures`
//! campaigns. What remains local is [`gate`].

// `count-allocs` swaps in a counting global allocator, whose `GlobalAlloc`
// impl has no safe-Rust expression — that build carries the crate's single
// unsafe item (so `deny` + a scoped allow); every other build forbids
// unsafe entirely.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod gate;

/// A counting global allocator (behind the `count-allocs` feature): every
/// heap allocation and reallocation in the process bumps one relaxed
/// counter, which the bench gate samples around a workload run to report
/// allocations-per-trial. Deallocation is deliberately not counted — the
/// gate tracks allocator pressure, and frees mirror allocs.
#[cfg(feature = "count-allocs")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator with an allocation counter bolted on.
    pub struct CountingAllocator;

    #[allow(unsafe_code)]
    // SAFETY: pure delegation to `System`; the counter has no effect on
    // the returned pointers or layouts.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocations (+ reallocations) since process start.
    pub fn current() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn allocations_are_observed() {
            let before = super::current();
            let v: Vec<u64> = std::hint::black_box((0..4096).collect());
            assert!(super::current() > before);
            drop(v);
        }
    }
}
