//! Resident cost of a solved thermal trace at scale-onr's size.  A counting
//! global allocator records every allocation the test thread makes while
//! `ThermalTrace::solve` runs, so the assert sees only the solve.
//!
//! A trace stores each sample's surface row once — `modules × samples`
//! `f64`s — plus three per-sample scalars (time, ambient, ideal power).  The
//! per-module ΔT is derived into one reused scratch row, never stored, so
//! the solve must not allocate a second `modules × samples` grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teg_harvest::sim::{Scenario, ThermalTrace};

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with` keeps the allocator usable while a thread's locals are
    // being torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes requested on this thread
/// while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let bytes = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - bytes)
}

const MODULES: usize = 400;
const SAMPLES: usize = 800;
const F64: usize = std::mem::size_of::<f64>();
/// Headroom for fixed-size bookkeeping, far below one per-module row.
const SLACK_BYTES: usize = 1024;

#[test]
fn a_solved_trace_stores_its_module_grid_once() {
    let scenario = Scenario::builder()
        .module_count(MODULES)
        .duration_seconds(SAMPLES)
        .seed(1)
        .build()
        .expect("valid scenario");

    let (trace, bytes) = counted(|| ThermalTrace::solve(&scenario).expect("solve"));
    assert_eq!(trace.len(), SAMPLES);
    assert_eq!(trace.width(), MODULES);

    let grid = MODULES * SAMPLES * F64;
    let scalars = 3 * SAMPLES * F64;
    let scratch_row = MODULES * F64;
    let budget = grid + scalars + scratch_row + SLACK_BYTES;
    assert!(
        bytes <= budget,
        "solving {MODULES} modules × {SAMPLES} samples allocated {bytes} B, over the \
         {budget} B of one surface grid ({grid} B), three scalar columns ({scalars} B) \
         and one ΔT scratch row ({scratch_row} B)"
    );
}
