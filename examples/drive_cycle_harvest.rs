//! Full-chain harvesting comparison over a synthetic drive-cycle window:
//! DNOR vs INOR vs EHTR vs the static baseline (the experiment behind
//! Figs. 6–7 and Table I, on a shorter window so it runs quickly in debug
//! builds).
//!
//! Run with `cargo run --release --example drive_cycle_harvest`.

use teg_harvest::reconfig::SchemeSpec;
use teg_harvest::sim::{Scenario, SimSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::builder()
        .module_count(100)
        .duration_seconds(120)
        .seed(2024)
        .build()?;

    println!(
        "{:<10} {:>14} {:>16} {:>10} {:>16}",
        "scheme", "energy (J)", "overhead (J)", "switches", "avg runtime (ms)"
    );
    // The shared preset, so this example can never drift from the lineup
    // Table I and the sweep subsystem use.
    for spec in SchemeSpec::paper_field(100) {
        let mut scheme = spec.build();
        let report = SimSession::new(&scenario, scheme.as_mut())?.run()?;
        let (energy, overhead, runtime) = report.table1_row();
        println!(
            "{:<10} {:>14.1} {:>16.2} {:>10} {:>16.3}",
            report.scheme(),
            energy,
            overhead,
            report.switch_count(),
            runtime
        );
    }
    println!("\n(120-second window; run the teg-bench `table1_comparison` binary for the full 800 s drive)");
    Ok(())
}
