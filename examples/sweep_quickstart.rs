//! Quickstart for the parallel scenario-sweep subsystem: build a parameter
//! grid, run it across all cores, and read the aggregated report.
//!
//! Run with `cargo run --release --example sweep_quickstart`.

use teg_harvest::device::VariationModel;
use teg_harvest::sim::{DriveProfile, GridSpec, SchemeLineup, SweepRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The cross-product of every axis: 2 module counts × 3 seeds × 1 drive
    // × 2 variation models × 1 lineup = 12 scenario samples = 12 cells.
    let grid = GridSpec::new()
        .module_counts([50, 100])
        .seeds([1, 2, 3])
        .drives([DriveProfile::named("city", 120)])
        .variations([VariationModel::none(), VariationModel::new(0.03, 0.05)?])
        .lineups([SchemeLineup::paper()])
        .to_grid()?;
    println!(
        "grid: {} cells over {} distinct scenario samples",
        grid.len(),
        grid.samples().len()
    );

    // The runner defaults to one worker per available core; results are
    // ordered by cell index no matter how the pool interleaves, and each
    // sample's thermal trace is solved exactly once.
    let report = SweepRunner::new().run(&grid)?;
    println!(
        "thermal solves: {} (expected {})\n",
        report.thermal_solves(),
        grid.expected_thermal_solves()
    );

    println!("{report}");
    for cell in report.cells().iter().take(2) {
        println!("{}:", cell.key());
        print!("{}", cell.report().table1());
    }
    if let Some(best) = report.best_scheme() {
        println!(
            "\nbest scheme by mean net energy: {} ({:.1} J over {} cells)",
            best.scheme(),
            best.mean_net_energy().value(),
            best.cells()
        );
    }
    Ok(())
}
