//! Peak heap: the system allocator, wrapped to count the bytes the
//! program holds. Unlike the peak RSS, the count does not depend on
//! which malloc arena each worker thread lands in (that moved the peak
//! RSS of a 25-MB run by up to 15% on one seed), so one seed always
//! gives one peak.
//!
//! Counting costs two atomic operations per allocation, ~3% of a route
//! request, so the harness stops it once the set-ups and the first op
//! have run; the timed ops after that run at full speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// Bytes allocated and not yet freed, while counting. Statistics only:
/// they publish no other data, so relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(true);

pub struct Counting;

fn grow(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees carry over.
// The counters only record sizes; they never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Stops counting for the rest of the process; [`peak_bytes`] keeps
/// the peak seen so far.
pub fn stop_counting() {
    COUNTING.store(false, Relaxed);
}

/// The most bytes the process held at once while counting.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_covers_a_live_allocation() {
        let buf = vec![1u8; 64 << 20];
        assert!(super::peak_bytes() >= buf.len());
    }
}
