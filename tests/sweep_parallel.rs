//! Integration tests of the parallel scenario-sweep subsystem: the
//! serial/parallel equivalence guarantee, the one-solve-per-sample cache
//! invariant for any worker count, and the deterministic grid ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teg_harvest::array::Configuration;
use teg_harvest::reconfig::{
    ReconfigDecision, ReconfigError, Reconfigurer, SchemeSpec, TelemetryWindow,
};
use teg_harvest::sim::{
    DriveProfile, FaultProfile, FaultSeverity, GridSpec, RuntimePolicy, ScenarioGrid, SchemeLineup,
    SweepReport, SweepRunner, TraceCache,
};
use teg_harvest::units::Seconds;

/// A 12-cell grid: 2 module counts × 3 seeds × 1 drive, each sample replayed
/// by two lineups (so 6 distinct scenario samples feed 12 cells).
///
/// The lineups use only schemes whose decisions are pure functions of the
/// telemetry (INOR, EHTR, the baseline), so with a fixed runtime charge the
/// whole sweep is bit-reproducible.
fn grid() -> ScenarioGrid {
    GridSpec::new()
        .module_counts([6, 9])
        .seeds([1, 2, 3])
        .drives([DriveProfile::named("short", 20)])
        .lineups([
            SchemeLineup::parameterised("inor-vs-baseline", |n| {
                vec![SchemeSpec::inor(), SchemeSpec::baseline_square_grid(n)]
            }),
            SchemeLineup::fixed("heuristics", vec![SchemeSpec::inor(), SchemeSpec::ehtr()]),
        ])
        .to_grid()
        .expect("valid grid")
}

const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

/// The 6 samples of [`grid`] under the plain `paper` lineup, whose DNOR
/// gate weighs the session's fixed charge.
fn paper_grid() -> ScenarioGrid {
    GridSpec::new()
        .module_counts([6, 9])
        .seeds([1, 2, 3])
        .drives([DriveProfile::named("short", 20)])
        .lineups([SchemeLineup::paper()])
        .to_grid()
        .expect("valid grid")
}

#[test]
fn one_worker_and_four_workers_produce_identical_reports() {
    for (make, cells) in [(grid as fn() -> ScenarioGrid, 12), (paper_grid, 6)] {
        // Two *fresh* grids so each run pays (and proves) its own solves.
        let serial_grid = make();
        let parallel_grid = make();
        assert_eq!(serial_grid.len(), cells);

        let serial = SweepRunner::new()
            .workers(1)
            .runtime_policy(POLICY)
            .run(&serial_grid)
            .expect("serial sweep");
        let parallel = SweepRunner::new()
            .workers(4)
            .runtime_policy(POLICY)
            .run(&parallel_grid)
            .expect("parallel sweep");

        // The headline guarantee: identical reports — per-cell records,
        // energies, runtime statistics, summaries, solve counts —
        // regardless of how the pool interleaved the cells.
        assert_eq!(serial, parallel);
    }
}

/// Runs a small faulted grid over one lineup token under [`POLICY`].
fn run_lineup(token: &str) -> SweepReport {
    let grid = GridSpec::new()
        .module_counts([8])
        .seeds([3, 4])
        .drives([DriveProfile::named("short", 25)])
        .faults([
            FaultProfile::none(),
            FaultProfile::random("severe", FaultSeverity::severe()),
        ])
        .lineups([SchemeLineup::parse(token).expect(token)])
        .to_grid()
        .expect("valid grid");
    SweepRunner::new()
        .workers(2)
        .runtime_policy(POLICY)
        .run(&grid)
        .expect("sweep")
}

#[test]
fn legacy_aliases_equal_their_plain_lineups_bit_for_bit() {
    // `paper-fixed:<s>` fields the plain paper schemes and keeps only its
    // name: every per-scheme record matches, and the cell keys differ in
    // the lineup name alone.
    let alias = run_lineup("paper-fixed:0.002");
    let plain = run_lineup("paper");
    assert_eq!(alias.cells().len(), 4);
    assert_eq!(alias.summaries(), plain.summaries());
    for (a, p) in alias.cells().iter().zip(plain.cells()) {
        assert_eq!(a.report(), p.report());
        assert_eq!(a.key().lineup(), "paper-fixed");
        assert_eq!(p.key().lineup(), "paper");
        assert_eq!(
            a.key().to_string().replace("paper-fixed", "paper"),
            p.key().to_string()
        );
    }
    // `dnor-det:<s>` ignores its seconds: the session's charge (2 ms here)
    // is what DNOR's gate weighs, not the alias's 5 ms.
    assert_eq!(
        run_lineup("fixed:x:dnor-det:0.005+inor"),
        run_lineup("fixed:x:dnor+inor")
    );
}

#[test]
fn thermal_solves_are_one_per_sample_regardless_of_worker_count() {
    for workers in [1, 4] {
        let g = grid();
        // 6 distinct samples × 20 drive seconds; the 12 cells (two lineups
        // per sample, possibly on different workers) share the solves.
        // Every sample here has distinct thermal inputs (module count ×
        // seed), so the cross-sample cache cannot reduce further.
        let report = SweepRunner::new()
            .workers(workers)
            .runtime_policy(POLICY)
            .run(&g)
            .expect("sweep");
        assert_eq!(g.expected_thermal_solves(), 6 * 20);
        assert_eq!(
            report.thermal_solves(),
            g.expected_thermal_solves(),
            "trace cache failed with {workers} workers"
        );
        assert_eq!(g.thermal_solve_count(), g.expected_thermal_solves());
    }
}

#[test]
fn fault_axes_reduce_thermal_solves_to_unique_keys() {
    // Three fault profiles over the same (module count, seed, drive)
    // coordinates triple the samples but leave the radiator inputs
    // untouched, so the shared trace cache must collapse the solves back to
    // one per unique key — for any worker count.
    let grid = |shared: bool| {
        let spec = GridSpec::new()
            .module_counts([6, 9])
            .seeds([1, 2])
            .drives([DriveProfile::named("short", 20)])
            .faults([
                FaultProfile::none(),
                FaultProfile::random("light", FaultSeverity::light()),
                FaultProfile::random("severe", FaultSeverity::severe()),
            ])
            .lineups([SchemeLineup::paper()]);
        spec.to_grid_with_cache(shared.then(TraceCache::new))
            .expect("valid grid")
    };
    for workers in [1, 4] {
        let g = grid(true);
        assert_eq!(g.samples().len(), 12);
        // 12 samples, 4 unique thermal keys: a 3x reduction.
        assert_eq!(g.expected_thermal_solves(), 4 * 20);
        let report = SweepRunner::new()
            .workers(workers)
            .runtime_policy(POLICY)
            .run(&g)
            .expect("sweep");
        assert_eq!(
            report.thermal_solves(),
            4 * 20,
            "unique-key sharing failed with {workers} workers"
        );
        let cache = g.trace_cache().expect("grids share traces by default");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
        // Each of the 12 samples looks its trace up once, on demand: the
        // first sample of each key misses and solves, the other 8 hit —
        // also when workers miss one key at the same time, because the
        // in-flight marker makes the losers wait for the winner's solve.
        assert_eq!(cache.hits(), 8);
    }
    // The isolated grid pays the historical one-solve-per-sample cost and
    // still produces the identical report.
    let shared_report = SweepRunner::new()
        .workers(4)
        .runtime_policy(POLICY)
        .run(&grid(true))
        .expect("shared sweep");
    let isolated = grid(false);
    assert_eq!(isolated.expected_thermal_solves(), 12 * 20);
    let isolated_report = SweepRunner::new()
        .workers(4)
        .runtime_policy(POLICY)
        .run(&isolated)
        .expect("isolated sweep");
    assert_eq!(isolated_report.thermal_solves(), 12 * 20);
    assert_eq!(shared_report.cells(), isolated_report.cells());
    assert_eq!(shared_report.summaries(), isolated_report.summaries());
}

#[test]
fn cells_are_reported_in_grid_order_with_full_coordinates() {
    let g = grid();
    let report = SweepRunner::new()
        .workers(4)
        .runtime_policy(POLICY)
        .run(&g)
        .expect("sweep");

    assert_eq!(report.cells().len(), 12);
    for (i, cell) in report.cells().iter().enumerate() {
        assert_eq!(cell.key().index(), i);
        assert_eq!(cell.key().drive(), "short");
        // Every cell carries its lineup's full field.
        assert_eq!(cell.report().reports().len(), 2);
    }
    // Lineups alternate fastest; module counts slowest.
    assert_eq!(report.cells()[0].key().lineup(), "inor-vs-baseline");
    assert_eq!(report.cells()[1].key().lineup(), "heuristics");
    assert_eq!(report.cells()[0].key().module_count(), 6);
    assert_eq!(report.cells()[11].key().module_count(), 9);

    // INOR ran in all 12 cells, the baseline and EHTR in 6 each.
    assert_eq!(report.summary("INOR").expect("ran").cells(), 12);
    assert_eq!(report.summary("Baseline").expect("ran").cells(), 6);
    assert_eq!(report.summary("EHTR").expect("ran").cells(), 6);
}

#[test]
fn faulted_grids_keep_the_serial_parallel_equivalence() {
    // The acceptance grid: a fault axis (healthy + two degraded profiles)
    // crossed with the bit-reproducible paper lineup.  Module, switch and
    // sensor faults all fire mid-drive, and one worker must still equal
    // four workers bit-for-bit.
    let grid = || {
        GridSpec::new()
            .module_counts([8, 12])
            .seeds([3, 4])
            .drives([DriveProfile::named("degraded-short", 25)])
            .faults([
                FaultProfile::none(),
                FaultProfile::random("light", FaultSeverity::light()),
                FaultProfile::random("severe", FaultSeverity::severe()),
            ])
            .lineups([SchemeLineup::paper()])
            .to_grid()
            .expect("valid faulted grid")
    };
    let run = |workers: usize| {
        SweepRunner::new()
            .workers(workers)
            .runtime_policy(POLICY)
            .run(&grid())
            .expect("faulted sweep")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);

    // The grid really contains degraded cells, and they really degrade:
    // every severe cell harvests less than its healthy sibling.
    assert_eq!(parallel.cells().len(), 12);
    let g = grid();
    assert!(g
        .cells()
        .iter()
        .any(|c| !g.scenario(c).fault_plan().is_empty()));
    for chunk in parallel.cells().chunks(3) {
        let (healthy, severe) = (&chunk[0], &chunk[2]);
        assert_eq!(healthy.key().fault(), "healthy");
        assert_eq!(severe.key().fault(), "severe");
        for scheme in ["DNOR", "INOR", "EHTR", "Baseline"] {
            let h = healthy.report().report(scheme).expect("ran");
            let s = severe.report().report(scheme).expect("ran");
            assert!(
                s.net_energy() < h.net_energy(),
                "{scheme} in {} must lose energy to severe faults",
                severe.key()
            );
            assert_eq!(h.runtime().faulted_invocations(), 0);
            assert!(s.runtime().faulted_invocations() > 0);
        }
    }
}

/// A trivial scheme that counts its decisions through a shared counter —
/// the completion probe for the panic-confinement test.
struct Counting(Arc<AtomicUsize>);

impl Reconfigurer for Counting {
    fn name(&self) -> &'static str {
        "Counting"
    }
    fn period(&self) -> Seconds {
        Seconds::new(1.0)
    }
    fn decide(
        &mut self,
        _window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(ReconfigDecision::new(
            current.clone(),
            Seconds::ZERO,
            false,
            false,
        ))
    }
}

/// Panics for 7-module arrays, behaves like a no-op everywhere else.
struct PanicsOnSeven;

impl Reconfigurer for PanicsOnSeven {
    fn name(&self) -> &'static str {
        "PanicsOnSeven"
    }
    fn period(&self) -> Seconds {
        Seconds::new(1.0)
    }
    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        assert_ne!(window.array().len(), 7, "scheme bug on 7-module arrays");
        Ok(ReconfigDecision::new(
            current.clone(),
            Seconds::ZERO,
            false,
            false,
        ))
    }
}

#[test]
fn a_panicking_cell_is_confined_while_every_other_cell_completes() {
    const STEPS: usize = 6;
    let counter = Arc::new(AtomicUsize::new(0));
    let probe = Arc::clone(&counter);
    let grid = GridSpec::new()
        .module_counts([6, 7])
        .seeds([1, 2])
        .duration_seconds(STEPS)
        .lineups([
            SchemeLineup::fixed(
                "counting",
                vec![SchemeSpec::new(move || Counting(Arc::clone(&probe)))],
            ),
            SchemeLineup::fixed("panicky", vec![SchemeSpec::new(|| PanicsOnSeven)]),
        ])
        .to_grid()
        .expect("valid grid");
    assert_eq!(grid.len(), 8); // 4 samples × 2 lineups; 2 cells will panic

    let err = SweepRunner::new()
        .workers(3)
        .run(&grid)
        .expect_err("the 7-module panicky cells must fail the sweep");
    // The panic surfaces as the (lowest-indexed) failing cell's error…
    let message = err.to_string();
    assert!(message.contains("panicked"), "{message}");
    assert!(message.contains("7mod"), "{message}");
    assert!(message.contains("panicky"), "{message}");

    // …while every other cell ran to completion: the counting lineup saw
    // all four samples through every step.
    assert_eq!(
        counter.load(Ordering::Relaxed),
        4 * STEPS,
        "counting cells must complete despite the sibling panic"
    );
    // And every sample's thermal trace was solved in full — including the
    // 7-module samples whose panicky sibling died after the solve.
    assert_eq!(grid.thermal_solve_count(), 4 * STEPS);
}

#[test]
fn paper_lineup_sweeps_run_all_four_schemes() {
    // DNOR's switch economics consult its own measured runtime, so the
    // paper lineup is exercised for structure rather than bit-equality.
    let g = GridSpec::new()
        .module_counts([10])
        .seeds([5, 6])
        .duration_seconds(15)
        .lineups([SchemeLineup::paper()])
        .to_grid()
        .expect("valid grid");
    let report = SweepRunner::new().workers(2).run(&g).expect("sweep");
    assert_eq!(report.cells().len(), 2);
    assert_eq!(report.thermal_solves(), 2 * 15);
    for scheme in ["DNOR", "INOR", "EHTR", "Baseline"] {
        let summary = report.summary(scheme).expect("scheme ran");
        assert_eq!(summary.cells(), 2);
        assert!(summary.mean_net_energy().value() > 0.0);
        assert!(summary.mean_power_ratio() > 0.0);
    }
}
