//! Integration tests of the cross-cell thermal trace cache: sharing must be
//! observationally invisible (bit-identical traces and sweep reports, for
//! any worker count) while collapsing the radiator work of samples with
//! equal thermal inputs to a single solve.

use proptest::prelude::*;
use teg_harvest::array::ideal_power;
use teg_harvest::device::TegModule;
use teg_harvest::reconfig::TelemetryWindow;
use teg_harvest::sim::{
    FaultProfile, FaultSeverity, RuntimePolicy, Scenario, ScenarioGrid, SchemeLineup, SweepRunner,
    ThermalTrace, TraceCache,
};
use teg_harvest::units::Seconds;

const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

/// A grid whose fault axis triples the samples without touching the
/// radiator inputs: 2 seeds × 3 fault profiles = 6 samples, 2 unique
/// thermal keys.
fn shared_key_grid() -> ScenarioGrid {
    ScenarioGrid::builder()
        .module_counts([8])
        .seeds([1, 2])
        .duration_seconds(15)
        .faults([
            FaultProfile::none(),
            FaultProfile::random("light", FaultSeverity::light()),
            FaultProfile::random("severe", FaultSeverity::severe()),
        ])
        .lineups([SchemeLineup::paper()])
        .build()
        .expect("valid grid")
}

#[test]
fn cached_sweeps_are_worker_count_independent() {
    let run = |workers: usize| {
        SweepRunner::new()
            .workers(workers)
            .runtime_policy(POLICY)
            .run(&shared_key_grid())
            .expect("sweep")
    };
    let serial = run(1);
    let parallel = run(4);
    // Full-report equality covers every record, summary and the (shared,
    // unique-key) thermal solve count.
    assert_eq!(serial, parallel);
    assert_eq!(parallel.thermal_solves(), 2 * 15);
}

#[test]
fn unique_solve_count_is_pinned_for_a_shared_key_grid() {
    let grid = shared_key_grid();
    assert_eq!(grid.samples().len(), 6);
    assert_eq!(grid.expected_thermal_solves(), 2 * 15);

    let report = SweepRunner::new()
        .workers(3)
        .runtime_policy(POLICY)
        .run(&grid)
        .expect("sweep");
    // Exactly one radiator solve per drive second of each unique key, and
    // the cache accounting agrees: each of the 6 samples looks its trace up
    // once, on demand, so the lookups split 2 misses (one per key) and
    // 4 hits however the 3 workers interleave.
    assert_eq!(report.thermal_solves(), 2 * 15);
    assert_eq!(grid.thermal_solve_count(), 2 * 15);
    let cache = grid.trace_cache().expect("sharing is on by default");
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 4);
}

/// Strict bitwise trace equality — stronger than `PartialEq` (which would
/// accept `-0.0 == 0.0`).  ΔT is not stored: each ideal power must be the
/// bound of the ΔT derived from its own row and ambient.
fn assert_traces_bit_identical(modules: &[TegModule], fresh: &ThermalTrace, cached: &ThermalTrace) {
    assert_eq!(fresh.len(), cached.len());
    assert_eq!(fresh.width(), cached.width());
    for i in 0..fresh.len() {
        assert_eq!(fresh.time(i), cached.time(i));
        assert_eq!(
            fresh.ambient(i).value().to_bits(),
            cached.ambient(i).value().to_bits()
        );
        for (a, b) in fresh.row(i).iter().zip(cached.row(i)) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        let derived = TelemetryWindow::deltas_from_row(cached.row(i), cached.ambient(i));
        let bound = ideal_power(modules, &derived).expect("ideal bound");
        assert_eq!(
            cached.ideal(i).value().to_bits(),
            bound.value().to_bits(),
            "derived ideal {i}"
        );
        assert_eq!(
            fresh.ideal(i).value().to_bits(),
            cached.ideal(i).value().to_bits(),
            "ideal {i}"
        );
    }
}

proptest! {
    #[test]
    fn cached_traces_are_bitwise_identical_to_fresh_solves(
        modules in 1usize..24,
        seconds in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let build = |cache: Option<TraceCache>| {
            let mut b = Scenario::builder()
                .module_count(modules)
                .duration_seconds(seconds)
                .seed(seed);
            if let Some(cache) = cache {
                b = b.trace_cache(cache);
            }
            b.build().expect("valid scenario")
        };
        let fresh = build(None);
        let cache = TraceCache::new();
        let first = build(Some(cache.clone()));
        let second = build(Some(cache.clone()));
        // Warm the cache through `first`; `second` must then share.
        let first_trace = first.thermal_trace().expect("solve");
        let second_trace = second.thermal_trace().expect("share");
        let fresh_trace = fresh.thermal_trace().expect("solve");
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(second.thermal_solve_count(), 0);
        let modules = fresh.array().modules();
        assert_traces_bit_identical(modules, fresh_trace, first_trace);
        assert_traces_bit_identical(modules, fresh_trace, second_trace);
    }
}
