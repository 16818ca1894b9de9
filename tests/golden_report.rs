//! Golden-trace regression harness.
//!
//! The headline report artefacts — Table I for the `paper_field` lineup
//! (healthy and degraded) and a sweep summary over a grid with a fault axis
//! — are regenerated under the bit-reproducible configuration
//! (`RuntimePolicy::Fixed`, whose charge the session also hands to DNOR's
//! switch gate) and compared byte-for-byte against snapshots committed
//! under `tests/golden/`.
//!
//! Any drift in the physics, the schemes, the fault model or the report
//! formatting fails these tests.  After an *intended* change, re-bless the
//! snapshots with:
//!
//! ```sh
//! TEG_BLESS=1 cargo test --test golden_report
//! ```
//!
//! and commit the regenerated files (see TESTING.md for the determinism
//! contract this relies on).

use std::fs;
use std::path::PathBuf;

use teg_harvest::reconfig::SchemeSpec;
use teg_harvest::sim::{
    Comparison, FaultPlan, FaultProfile, FaultSeverity, GridSpec, RuntimePolicy, Scenario,
    SchemeLineup, SweepRunner,
};
use teg_harvest::units::Seconds;

/// The fixed per-decision computation charge every deterministic artefact
/// runs under.
const FIXED_CHARGE: Seconds = Seconds::new(0.002);

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot when `TEG_BLESS=1` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("TEG_BLESS").is_some_and(|v| v == "1") {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with TEG_BLESS=1 cargo test \
             --test golden_report",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden snapshot; if the change is intended, re-bless with \
         TEG_BLESS=1 cargo test --test golden_report"
    );
}

fn paper_field_table1(plan: FaultPlan) -> String {
    let scenario = Scenario::builder()
        .module_count(20)
        .duration_seconds(120)
        .seed(2024)
        .fault_plan(plan.clone())
        .build()
        .expect("scenario");
    let specs = SchemeSpec::paper_field(20);
    let report = Comparison::from_specs(&scenario, &specs)
        .runtime_policy(RuntimePolicy::Fixed(FIXED_CHARGE))
        .run()
        .expect("comparison");
    format!(
        "# paper_field lineup, 20 modules, 120 s drive, seed 2024, fixed 2 ms charge\n\
         # fault plan: {plan}\n{}",
        report.table1()
    )
}

#[test]
fn table1_healthy_reproduces_bit_identically() {
    assert_matches_golden("table1_healthy.txt", &paper_field_table1(FaultPlan::none()));
}

#[test]
fn table1_degraded_reproduces_bit_identically() {
    let plan = FaultPlan::random(20, 120, FaultSeverity::moderate(), 2024);
    assert!(
        !plan.is_empty(),
        "the degraded snapshot must contain faults"
    );
    assert_matches_golden("table1_degraded.txt", &paper_field_table1(plan));
}

#[test]
fn sweep_summary_reproduces_bit_identically_for_any_worker_count() {
    let grid = || {
        GridSpec::new()
            .module_counts([10, 14])
            .seeds([1, 2])
            .duration_seconds(40)
            .faults([
                FaultProfile::none(),
                FaultProfile::random("moderate", FaultSeverity::moderate()),
            ])
            .lineups([SchemeLineup::paper()])
            .to_grid()
            .expect("grid")
    };
    let run = |workers: usize| {
        SweepRunner::new()
            .workers(workers)
            .runtime_policy(RuntimePolicy::Fixed(FIXED_CHARGE))
            .run(&grid())
            .expect("sweep")
    };
    let serial = run(1);
    let parallel = run(4);
    // The golden file also certifies worker-count independence: both runs
    // must match the identical snapshot.
    assert_eq!(serial, parallel);
    // "paper-fixed" in the header reads "the paper lineup under a fixed
    // charge"; the wording stays so the snapshot stays byte-identical.
    let rendered = format!(
        "# paper-fixed lineup sweep: 2 module counts x 2 seeds x (healthy, moderate faults), \
         40 s drives, fixed 2 ms charge\n{}",
        parallel.summary_table()
    );
    assert_matches_golden("sweep_summary.txt", &rendered);
}
