//! A counting global allocator (standard library only). Only the traced
//! binary installs it, so the untraced measurement runs on the system
//! allocator untouched; without it every counter reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts allocator calls that hand out memory
/// (`alloc`, `alloc_zeroed`, `realloc`), the bytes they hand out, and the
/// live-heap high-water mark. The counters are statistics that publish no
/// other data, so every access is `Relaxed`.
pub struct CountingAlloc;

fn grew(old: usize, new: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(new as u64, Ordering::Relaxed);
    let live = if new >= old {
        LIVE.fetch_add((new - old) as u64, Ordering::Relaxed) + (new - old) as u64
    } else {
        LIVE.fetch_sub((old - new) as u64, Ordering::Relaxed) - (old - new) as u64
    };
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, so `System`'s guarantees are the caller's; the counters
// touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(layout.size(), new_size);
        }
        p
    }
}

/// `(allocator calls, bytes handed out)` so far.
pub fn counts() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Live-heap high-water mark in bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
