//! Scalability of INOR (O(N)) versus the prior-work EHTR re-implementation
//! as the array grows — the motivation for the paper's claim that the
//! approach pays off most on industrial boilers and heat exchangers.
//!
//! Rebuilt on the scenario-sweep subsystem: each array size is one
//! [`ScenarioGrid`](teg_harvest::sim::ScenarioGrid) executed by the work-stealing [`SweepRunner`], and the
//! per-scheme mean runtimes come from the sweep's summaries instead of a
//! hand-rolled timing loop.
//!
//! Run with `cargo run --release --example scalability_study`.

use teg_harvest::sim::{GridSpec, SchemeLineup, SweepRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "modules", "INOR (ms)", "EHTR (ms)", "ratio"
    );

    for &n in &[25usize, 50, 100, 200, 400] {
        let grid = GridSpec::new()
            .module_counts([n])
            .seeds([7, 8])
            .duration_seconds(30)
            .lineups([
                SchemeLineup::parse("fixed:heuristics:inor+ehtr").expect("a valid lineup token")
            ])
            .to_grid()?;
        // One worker: the study times decisions, so concurrent cells must
        // not contend for the cores being measured.
        let report = SweepRunner::new().workers(1).run(&grid)?;
        let inor_ms = report.summary("INOR").expect("ran").mean_runtime().value();
        let ehtr_ms = report.summary("EHTR").expect("ran").mean_runtime().value();
        println!(
            "{n:>8} {inor_ms:>14.4} {ehtr_ms:>14.4} {:>10.1}",
            ehtr_ms / inor_ms
        );
    }
    println!("\nThe ratio grows with N: INOR stays linear while EHTR's DP blows up.");
    Ok(())
}
