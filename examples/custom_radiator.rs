//! Using the library on a different heat source: an industrial-boiler
//! economiser with a much longer flow path and a larger module count —
//! the "larger scale systems" the paper's conclusion points at.
//!
//! Run with `cargo run --release --example custom_radiator`.

use teg_harvest::reconfig::SchemeSpec;
use teg_harvest::sim::{Scenario, SimSession};
use teg_harvest::thermal::RadiatorGeometry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::builder()
        .module_count(200)
        .duration_seconds(90)
        .seed(11)
        .geometry(RadiatorGeometry::industrial_boiler())
        .build()?;
    println!(
        "industrial heat-exchanger path: {} with {} modules",
        scenario.radiator().geometry().flow_path_length(),
        scenario.module_count()
    );

    let specs = [
        SchemeSpec::dnor(),
        SchemeSpec::inor(),
        SchemeSpec::baseline_square_grid(200),
    ];

    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>14}",
        "scheme", "energy (J)", "overhead (J)", "switches", "ideal frac"
    );
    for spec in specs {
        let mut scheme = spec.build();
        let report = SimSession::new(&scenario, scheme.as_mut())?.run()?;
        println!(
            "{:<10} {:>14.1} {:>14.2} {:>12} {:>14.3}",
            report.scheme(),
            report.net_energy().value(),
            report.overhead_energy().value(),
            report.switch_count(),
            report.ideal_fraction()
        );
    }
    Ok(())
}
