//! Memory pins for program data images, measured by a counting global
//! allocator. This file is its own test binary, so no other test runs on
//! the counting allocator, and its tests take one lock, so the counters
//! see one test's allocations at a time.
//!
//! * Building the long-suite strhash and fsm programs peaks at no more
//!   than 1.1 times the finished image's heap bytes: the input array is
//!   generated straight into the image's pages (no staging copy), and
//!   the page vector never reallocates under the array.
//! * Booting a memory or a functional machine on the fsm image allocates
//!   less than one page's worth of bytes: boots share the image's pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tp_isa::func::Machine;
use tp_isa::mem::{PagedMem, PAGE_WORDS};
use tp_isa::{Program, Word};
use tp_rv::corpus::{fsm, strhash};

/// The long-suite iteration scale (`tp_workloads::Size::Long`).
const LONG: u32 = 60_000;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static HANDED_OUT: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// Forwards to [`System`], counting the live heap, its high-water mark and
/// the bytes handed out. A moving `realloc` holds both blocks for a
/// moment, so it counts the new block before releasing the old one.
struct Counting;

fn grow(bytes: usize) {
    HANDED_OUT.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, the live-heap peak above the heap at the call, and the
/// bytes handed out during the call.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let handed = HANDED_OUT.load(Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (out, peak, HANDED_OUT.load(Ordering::Relaxed) - handed)
}

#[test]
fn long_builds_peak_within_a_tenth_of_the_image() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for build in [strhash as fn(u32) -> Program, fsm] {
        let (p, peak, _) = measure(|| build(LONG));
        let image = p.image().heap_bytes();
        assert!(image > 1 << 20, "{}: a {image}-byte image is not the long one", p.name());
        assert!(
            peak as f64 <= 1.1 * image as f64,
            "{}: building peaked at {peak} bytes for a {image}-byte image",
            p.name()
        );
    }
}

#[test]
fn boots_share_the_image() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let p = fsm(LONG);
    let page = PAGE_WORDS * std::mem::size_of::<Word>();
    let (mem, _, bytes) = measure(|| PagedMem::from_program(&p));
    assert!(bytes < page, "PagedMem::from_program allocated {bytes} bytes");
    drop(mem);
    let (machine, _, bytes) = measure(|| Machine::new(&p));
    assert!(bytes < page, "Machine::new allocated {bytes} bytes");
    drop(machine);
}
