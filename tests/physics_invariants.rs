//! Physical invariants checked on every step of every scheme: no wiring
//! harvests more than the unconstrained ideal — nor, on a healthy array,
//! more than the certified optimum over every wiring — and the net energy
//! of a step is its gross harvest less the switching overhead charged to
//! it, floored at zero.  The charger never delivers more than it is fed,
//! and every session total is the in-order sum of its per-step energies.
//! Checked over small seeded arrays, healthy and under severe degradation,
//! for the scalability lineup and the paper's Table I field.

use teg_harvest::reconfig::{certified_optimum, TelemetryWindow, CERTIFIED_GAP};
use teg_harvest::sim::{
    DriveProfile, FaultProfile, GridSpec, RuntimePolicy, Scenario, SchemeLineup, SimSession,
};
use teg_harvest::units::{Joules, Seconds};

const CHARGE: Seconds = Seconds::new(0.002);

/// Each step's certified upper bound on the MPP power of every wiring
/// (group counts `1..=N`) at the step's true ΔT.
fn optimum_bounds(scenario: &Scenario) -> Vec<f64> {
    let trace = scenario.thermal_trace().expect("trace");
    let modules = scenario.module_count();
    let mut deltas = Vec::with_capacity(modules);
    (0..trace.len())
        .map(|i| {
            deltas.clear();
            TelemetryWindow::deltas_from_row_into(trace.row(i), trace.ambient(i), &mut deltas);
            certified_optimum(scenario.array(), &deltas, None, 1..=modules)
                .expect("oracle")
                .upper_bound()
                .value()
        })
        .collect()
}

#[test]
fn no_step_beats_the_ideal_and_net_is_gross_less_overhead() {
    let grid = GridSpec::new()
        .module_counts([5, 9, 16, 24])
        .seeds([3, 11, 29])
        .drives([DriveProfile::parse("city:30").expect("drive token")])
        .faults([
            FaultProfile::none(),
            FaultProfile::parse("random:severe:severe").expect("fault token"),
        ])
        .lineups([
            SchemeLineup::parse("fixed:onr:dnor-det:0.002+inor+baseline").expect("lineup"),
            SchemeLineup::parse("paper-fixed:0.002").expect("lineup"),
        ])
        .to_grid()
        .expect("grid");

    let mut steps_checked = 0;
    let mut faulted_steps = 0;
    let mut optimum_checked = 0;
    for cell in grid.cells() {
        let scenario = grid.scenario(cell);
        let step = scenario.step();
        // Computed once per step and shared by the lineup's schemes.
        let bounds = if scenario.fault_plan().events().is_empty() {
            optimum_bounds(scenario)
        } else {
            Vec::new()
        };
        for spec in grid.lineup(cell).specs(cell.key().module_count()) {
            let mut scheme = spec.build();
            let mut session = SimSession::new(scenario, scheme.as_mut())
                .expect("session")
                .with_runtime_policy(RuntimePolicy::Fixed(CHARGE));
            let mut index = 0;
            // Per-step energies summed in step order, as the session does.
            let mut totals = [Joules::ZERO; 5];
            while let Some(record) = session.step().expect("step") {
                let context = format!("{} / {} at t={}", cell.key(), spec.name(), record.time());
                let ideal = record.ideal_power().value();
                assert!(
                    record.array_power().value() <= ideal * (1.0 + 1e-9),
                    "{context}: array power {} exceeds the ideal {ideal}",
                    record.array_power()
                );
                if let Some(&bound) = bounds.get(index) {
                    assert!(
                        record.array_power().value() <= bound * (1.0 + CERTIFIED_GAP),
                        "{context}: array power {} exceeds the certified optimum {bound}",
                        record.array_power()
                    );
                    optimum_checked += 1;
                }
                index += 1;
                assert!(record.overhead_energy().value() >= 0.0, "{context}");
                let gross = record.array_power() * step;
                let net = (gross - record.overhead_energy()).max(Joules::ZERO);
                assert_eq!(
                    record.net_power().value().to_bits(),
                    net.average_power(step).value().to_bits(),
                    "{context}: net power is not gross less overhead"
                );
                let delivered = record.delivered_power();
                assert!(
                    delivered.value() >= 0.0 && delivered <= record.net_power(),
                    "{context}: delivered power {delivered} outside [0, net {}]",
                    record.net_power()
                );
                let energies = [
                    gross,
                    net,
                    delivered * step,
                    record.overhead_energy(),
                    record.ideal_power() * step,
                ];
                for (total, energy) in totals.iter_mut().zip(energies) {
                    *total += energy;
                }
                steps_checked += 1;
                faulted_steps += usize::from(record.faults_active() > 0);
            }
            let summary = session.summary();
            let reported = [
                ("gross", summary.gross_energy()),
                ("net", summary.net_energy()),
                ("delivered", summary.delivered_energy()),
                ("overhead", summary.overhead_energy()),
                ("ideal", summary.ideal_energy()),
            ];
            for ((name, reported), summed) in reported.into_iter().zip(totals) {
                assert_eq!(
                    reported.value().to_bits(),
                    summed.value().to_bits(),
                    "{} / {}: {name} energy {reported} is not the sum of its steps {summed}",
                    cell.key(),
                    spec.name()
                );
            }
        }
    }
    // 24 cells per lineup: 3 schemes + 4 schemes, 30 steps each.
    assert_eq!(steps_checked, 24 * (3 + 4) * 30);
    // Half the cells are healthy.
    assert_eq!(optimum_checked, 12 * (3 + 4) * 30);
    assert!(
        faulted_steps > 0,
        "the severe profile must degrade some steps"
    );
}
