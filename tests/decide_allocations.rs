//! Heap traffic of the scan-based schemes' decisions at scale-onr's array
//! size.  A counting global allocator records every allocation the test
//! thread makes, so the asserts see only the decision under test.
//!
//! * INOR on a new ΔT row allocates exactly the returned `Configuration`
//!   and the memo's copy of it: the ΔT row, the module terms and the
//!   candidate buffers are all reused.
//! * A DNOR evaluation allocates exactly INOR's candidate `Configuration`:
//!   its MLR model and training series, solver, forecast rows and ΔT rows
//!   are all reused, and that one allocation is smaller than one
//!   per-module `f64` buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teg_harvest::array::{Configuration, TegArray};
use teg_harvest::device::{TegDatasheet, TegModule};
use teg_harvest::reconfig::{Dnor, Inor, Reconfigurer, TelemetryWindow};
use teg_harvest::units::Celsius;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with` keeps the allocator usable while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps two thread-local counters, which never allocate.
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

/// Runs `f` and returns its result with the number of allocations and the
/// bytes requested on this thread while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
    )
}

const MODULES: usize = 400;

fn array() -> TegArray {
    TegArray::uniform(
        TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
        MODULES,
    )
}

/// A radiator-like history: a decaying gradient along the chain that warms
/// by `shift` °C per row, so every row is a new ΔT row.
fn history(rows: usize, shift: f64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|t| {
            (0..MODULES)
                .map(|i| {
                    let x = i as f64 / MODULES as f64;
                    25.0 + 70.0 * (-0.8 * x).exp() + shift * t as f64 + (0.3 * t as f64).sin()
                })
                .collect()
        })
        .collect()
}

#[test]
fn inor_decide_on_a_new_row_allocates_only_the_configuration_and_its_memo_copy() {
    let a = array();
    let ambient = Celsius::new(25.0);
    let rows = history(2, 4.0);
    let first = TelemetryWindow::new(&a, &rows[..1], ambient).expect("window");
    let second = TelemetryWindow::new(&a, &rows[1..], ambient).expect("window");
    let current = Configuration::uniform(MODULES, 10).expect("valid");
    let mut inor = Inor::default();
    // Warm-up: both rows once, so every buffer has grown to its size.
    for window in [&first, &second] {
        inor.decide(window, &current).expect("decide");
    }

    // `first` is a new row again: the memo holds `second`.
    let (decision, allocations, _) = counted(|| inor.decide(&first, &current));
    assert!(decision.expect("decide").configuration().is_some());
    assert_eq!(allocations, 2, "one Configuration returned, one memoised");

    // A memo hit allocates only the returned copy.
    let (_, allocations, _) = counted(|| inor.decide(&first, &current));
    assert_eq!(allocations, 1);
}

#[test]
fn dnor_evaluation_allocates_no_per_module_buffer() {
    let a = array();
    let ambient = Celsius::new(25.0);
    let mut dnor = Dnor::default();
    let lookback = dnor.lookback();
    let rows = history(lookback + 1, 0.05);
    let earlier = TelemetryWindow::new(&a, &rows[..lookback], ambient).expect("window");
    let later = TelemetryWindow::new(&a, &rows[1..], ambient).expect("window");
    let current = Configuration::uniform(MODULES, 10).expect("valid");
    // One evaluation to warm up, then the `t_p` skipped periods.
    assert!(dnor.decide(&earlier, &current).expect("decide").evaluated());
    for _ in 0..dnor.config().prediction_horizon() {
        assert!(!dnor.decide(&earlier, &current).expect("decide").evaluated());
    }

    let (decision, allocations, bytes) = counted(|| dnor.decide(&later, &current));
    assert!(decision.expect("decide").evaluated());
    assert_eq!(allocations, 1, "only INOR's candidate Configuration");
    let per_module_buffer = MODULES * std::mem::size_of::<f64>();
    assert!(
        bytes < per_module_buffer,
        "a {MODULES}-module evaluation allocated {bytes} bytes, \
         at least one per-module buffer ({per_module_buffer} bytes)"
    );
}
