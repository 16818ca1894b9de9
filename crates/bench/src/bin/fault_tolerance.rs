//! Table I under degradation — how much of each scheme's energy gain
//! survives module, switch and sensor faults.
//!
//! For each fault severity (healthy → severe) the paper's four-scheme field
//! runs over the same drives with seeded random fault plans injected, under
//! the bit-reproducible fixed runtime policy.  The report shows each
//! scheme's mean net energy, its retention relative to its own healthy run,
//! and the fault-exposure accounting (events fired, share of decisions made
//! under active faults).

use teg_sim::{
    FaultProfile, FaultSeverity, GridSpec, RuntimePolicy, SchemeLineup, SweepReport, SweepRunner,
};
use teg_units::Seconds;

const FIXED_CHARGE: Seconds = Seconds::new(0.002);
const MODULES: usize = 40;
const DRIVE_SECONDS: usize = 300;
const SEEDS: [u64; 2] = [7, 11];

fn sweep(label: &str, severity: FaultSeverity) -> SweepReport {
    let grid = GridSpec::new()
        .module_counts([MODULES])
        .seeds(SEEDS)
        .duration_seconds(DRIVE_SECONDS)
        .faults([if label == "healthy" {
            FaultProfile::none()
        } else {
            FaultProfile::random(label.to_owned(), severity)
        }])
        .lineups([SchemeLineup::paper()])
        .to_grid()
        .expect("valid grid");
    let report = SweepRunner::new()
        .runtime_policy(RuntimePolicy::Fixed(FIXED_CHARGE))
        .run(&grid)
        .expect("sweep");
    for cell in report.cells() {
        let plan = grid
            .scenario(&grid.cells()[cell.key().index()])
            .fault_plan();
        println!("#   {} plan: {}", cell.key(), plan);
    }
    report
}

fn main() {
    println!(
        "# Table I under degradation: {MODULES}-module array, {DRIVE_SECONDS}-second drives, \
         seeds {SEEDS:?}, fixed {} ms runtime charge",
        FIXED_CHARGE.to_milliseconds().value()
    );

    let severities = [
        ("healthy", FaultSeverity::none()),
        ("light", FaultSeverity::light()),
        ("moderate", FaultSeverity::moderate()),
        ("severe", FaultSeverity::severe()),
    ];

    let mut healthy_energy: Vec<(String, f64)> = Vec::new();
    for (label, severity) in severities {
        println!("\n## severity: {label}");
        let report = sweep(label, severity);
        if label == "healthy" {
            healthy_energy = report
                .summaries()
                .iter()
                .map(|s| (s.scheme().to_owned(), s.mean_net_energy().value()))
                .collect();
        }
        println!("{report}");
        println!("# retention vs healthy run and fault exposure:");
        for summary in report.summaries() {
            let healthy = healthy_energy
                .iter()
                .find(|(name, _)| name == summary.scheme())
                .map_or(f64::NAN, |(_, e)| *e);
            let mut fault_events = 0usize;
            let mut faulted = 0usize;
            let mut invocations = 0usize;
            for cell in report.cells() {
                if let Some(scheme_report) = cell.report().report(summary.scheme()) {
                    fault_events += scheme_report
                        .records()
                        .iter()
                        .map(teg_sim::StepRecord::fault_events)
                        .sum::<usize>();
                    faulted += scheme_report.runtime().faulted_invocations();
                    invocations += scheme_report.runtime().invocations();
                }
            }
            println!(
                "#   {:<10} {:>7.1} J  retained {:>5.1} %   fault events {:>3}   \
                 {:>5.1} % of decisions under faults",
                summary.scheme(),
                summary.mean_net_energy().value(),
                100.0 * summary.mean_net_energy().value() / healthy,
                fault_events,
                100.0 * faulted as f64 / invocations.max(1) as f64,
            );
        }
    }
}
