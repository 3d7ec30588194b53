//! Allocation budget of the detailed core, measured by a counting global
//! allocator. This file is its own test binary, so no other test runs on
//! the counting allocator, and the allocator counts per thread, so the
//! cells measured on parallel test threads do not mix.
//!
//! Each cell runs one workload under one model: a 20,000-instruction
//! warm-up (trace cache, predictors, register file and scratch buffers
//! fill), then a measured window. The allocator calls per thousand
//! retired instructions in the window must not exceed the checked-in
//! budget, which was set at the measured numbers, so it can only fall.
//! `just allocs` prints the measured table to refresh it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_workloads::{by_name, Size};

/// Instructions retired before counting starts.
const WARMUP: u64 = 20_000;
/// Instructions retired while counting.
const WINDOW: u64 = 30_000;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting this thread's allocator calls
/// (allocations, zeroed allocations and reallocations).
struct Counting;

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Allocator calls per thousand retired instructions in the measured
/// window of `workload` under `model`.
fn allocs_per_kinstr(workload: &str, model: CiModel) -> f64 {
    let w = by_name(workload, Size::Full).expect("known workload");
    let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(model));
    sim.run_interval(WARMUP).expect("warm-up runs");
    let (calls_before, retired_before) = (calls(), sim.stats().retired_instrs);
    let r = sim.run_interval(WINDOW).expect("window runs");
    let retired = r.stats.retired_instrs - retired_before;
    assert!(retired >= WINDOW / 2, "{workload}/{}: only {retired} instructions", model.name());
    (calls() - calls_before) as f64 * 1000.0 / retired as f64
}

/// Checked-in budgets, allocator calls per kinstr, in `CiModel::ALL` order
/// (base, RET, MLB-RET, FG, FG+MLB-RET).
/// Before the trace-built slot template and the recycled ARB lists and
/// load buckets, crc32/FG made 1,856 calls per kinstr and qsort/base 898;
/// before repair and construction reused the trace cache's traces and the
/// load registry kept small buckets inline, 438.6 and 155.1. What is left
/// is mostly the traces the cache does not hold (crc32 under base and RET).
const BUDGET: [(&str, [f64; 5]); 4] = [
    ("go", [4.9, 11.0, 11.0, 1.0, 1.0]),
    ("compress", [1.3, 6.9, 6.9, 10.1, 10.1]),
    ("qsort", [5.0, 5.1, 4.6, 10.5, 10.3]),
    ("crc32", [49.5, 53.9, 2.7, 3.9, 4.7]),
];

fn check(workload: &str) {
    let budget = BUDGET.iter().find(|(w, _)| *w == workload).expect("budgeted").1;
    let measured = CiModel::ALL.map(|m| allocs_per_kinstr(workload, m));
    let row: Vec<String> = measured.iter().map(|a| format!("{a:8.1}")).collect();
    println!("{workload:>10} {}", row.join(" "));
    for ((model, got), limit) in CiModel::ALL.iter().zip(measured).zip(budget) {
        assert!(
            got <= limit,
            "{workload}/{}: {got:.1} allocator calls per kinstr, budget {limit:.1}",
            model.name()
        );
    }
}

#[test]
fn go_stays_within_budget() {
    check("go");
}

#[test]
fn compress_stays_within_budget() {
    check("compress");
}

#[test]
fn qsort_stays_within_budget() {
    check("qsort");
}

#[test]
fn crc32_stays_within_budget() {
    check("crc32");
}
