//! Property tests for the two-level thermal parallelization added with the
//! sweep pre-solve planner.
//!
//! Two contracts are pinned to the bit:
//!
//! 1. **Row-parallel solve ≡ serial solve.**  `ThermalTrace::solve_chunked`
//!    splits the sample range into fixed chunks whose boundaries are a pure
//!    function of the cycle length, so any worker count and any chunk size
//!    must reproduce the serial trace exactly — every time, ambient, row,
//!    delta and ideal-power entry compared by `to_bits`.
//! 2. **Planner-on ≡ planner-off.**  The pre-solve planner only moves *when*
//!    traces are solved, never what they contain, so a sweep with the
//!    planner enabled must produce a `SweepReport` equal to the planner-off
//!    report at any worker count.
//!
//! The no-re-bless rule in TESTING.md leans on both properties: neither the
//! chunked solver nor the planner may move a golden.

use proptest::prelude::*;
use teg_reconfig::SchemeSpec;
use teg_sim::{
    FaultProfile, FaultSeverity, RuntimePolicy, Scenario, ScenarioGrid, SchemeLineup, SweepReport,
    SweepRunner, ThermalTrace,
};
use teg_units::Seconds;

fn scenario(modules: usize, seconds: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn assert_traces_bit_identical(serial: &ThermalTrace, chunked: &ThermalTrace, context: &str) {
    assert_eq!(serial.len(), chunked.len(), "{context}: length");
    for i in 0..serial.len() {
        assert_eq!(
            serial.time(i).value().to_bits(),
            chunked.time(i).value().to_bits(),
            "{context}: time {i}"
        );
        assert_eq!(
            serial.ambient(i).value().to_bits(),
            chunked.ambient(i).value().to_bits(),
            "{context}: ambient {i}"
        );
        for (j, (a, b)) in serial.row(i).iter().zip(chunked.row(i)).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: row {i} module {j}");
        }
        for (j, (a, b)) in serial.deltas(i).iter().zip(chunked.deltas(i)).enumerate() {
            assert_eq!(
                a.kelvin().to_bits(),
                b.kelvin().to_bits(),
                "{context}: delta {i} module {j}"
            );
        }
        assert_eq!(
            serial.ideal(i).value().to_bits(),
            chunked.ideal(i).value().to_bits(),
            "{context}: ideal {i}"
        );
    }
}

fn grid(modules: usize, seeds: [u64; 2], seconds: usize) -> ScenarioGrid {
    ScenarioGrid::builder()
        .module_counts([modules, modules + 2])
        .seeds(seeds)
        .duration_seconds(seconds)
        .faults([
            FaultProfile::none(),
            FaultProfile::random("moderate", FaultSeverity::moderate()),
        ])
        .lineups([SchemeLineup::fixed(
            "duo",
            vec![SchemeSpec::inor(), SchemeSpec::ehtr()],
        )])
        .build()
        .expect("valid grid")
}

fn run(grid: &ScenarioGrid, workers: usize, presolve: bool) -> SweepReport {
    SweepRunner::new()
        .workers(workers)
        .presolve(presolve)
        .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
        .run(grid)
        .expect("sweep succeeds")
}

proptest! {
    #[test]
    fn chunked_parallel_solve_is_bit_identical_to_the_serial_solve(
        modules in 4usize..24,
        seconds in 10usize..60,
        seed in 0u64..1000,
        threads in 1usize..9,
        chunk in 1usize..64,
    ) {
        let s = scenario(modules, seconds, seed);
        let serial = ThermalTrace::solve(&s).expect("serial solve");
        let chunked = ThermalTrace::solve_chunked(&s, threads, chunk).expect("chunked solve");
        assert_traces_bit_identical(
            &serial,
            &chunked,
            &format!("{modules}mod/{seconds}s/seed{seed} threads={threads} chunk={chunk}"),
        );
    }

    #[test]
    fn planner_on_report_equals_planner_off_at_one_and_four_workers(
        modules in 4usize..10,
        seed in 0u64..500,
        seconds in 4usize..9,
    ) {
        let seeds = [seed, seed + 1];
        for workers in [1usize, 4] {
            // Fresh grids per run so each pays its own thermal solves and
            // the reports' solve counters are comparable.
            let on = run(&grid(modules, seeds, seconds), workers, true);
            let off = run(&grid(modules, seeds, seconds), workers, false);
            assert_eq!(on, off, "workers={workers}");
            prop_assert!(on.presolve().is_some());
            prop_assert!(off.presolve().is_none());
        }
    }
}
