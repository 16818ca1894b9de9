//! End-to-end fault-injection tests: the "Table I under degradation" story
//! across the whole stack — scenario fault plans, the degraded electrical
//! solve, sensor corruption, per-scheme fault accounting and the comparison
//! artefacts built on top.

use teg_harvest::array::{ModuleFault, SwitchStuck};
use teg_harvest::reconfig::SchemeSpec;
use teg_harvest::sim::{
    Comparison, FaultAction, FaultEvent, FaultPlan, FaultSeverity, RuntimePolicy, Scenario,
    SimSession,
};
use teg_harvest::units::Seconds;

const CHARGE: Seconds = Seconds::new(0.002);

fn scenario_with(plan: FaultPlan, modules: usize, seconds: usize) -> Scenario {
    Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(17)
        .fault_plan(plan)
        .build()
        .expect("scenario")
}

#[test]
fn every_scheme_survives_a_degraded_drive_and_loses_energy_to_it() {
    let plan = FaultPlan::random(16, 60, FaultSeverity::moderate(), 17);
    assert!(!plan.is_empty());
    let healthy = scenario_with(FaultPlan::none(), 16, 60);
    let degraded = scenario_with(plan, 16, 60);

    let run = |scenario: &Scenario| {
        Comparison::from_specs(scenario, &SchemeSpec::paper_field(16))
            .runtime_policy(RuntimePolicy::Fixed(CHARGE))
            .run()
            .expect("comparison")
    };
    let healthy_report = run(&healthy);
    let degraded_report = run(&degraded);

    for scheme in ["DNOR", "INOR", "EHTR", "Baseline"] {
        let h = healthy_report.report(scheme).expect("ran healthy");
        let d = degraded_report.report(scheme).expect("ran degraded");
        // All 60 steps complete despite open/short/stuck/sensor faults…
        assert_eq!(d.records().len(), 60);
        // …the degradation costs real energy…
        assert!(
            d.net_energy() < h.net_energy(),
            "{scheme} must lose energy under faults"
        );
        assert!(
            d.net_energy().value() > 0.0,
            "{scheme} must keep harvesting"
        );
        // …and the fault exposure is accounted per scheme.
        assert!(d.runtime().faulted_invocations() > 0);
        assert_eq!(h.runtime().faulted_invocations(), 0);
        assert!(d.runtime().fault_share() > 0.0);
    }
    // The degraded table still renders (the bench bin's report path).
    let table = degraded_report.table1();
    assert!(table.contains("DNOR"), "{table}");
}

#[test]
fn parallel_groups_ride_through_a_dead_module_that_breaks_a_series_string() {
    // A module open-circuits early in a 9-module array.  The square-grid
    // baseline (3 parallel groups of 3) keeps delivering through the two
    // surviving neighbours; a fault-blind reconfigurer that ever isolates
    // the dead module into its own group breaks the whole series string —
    // the failure mode the paper's motivation describes.
    let plan = || {
        FaultPlan::new(vec![FaultEvent::new(
            5,
            FaultAction::Module {
                module: 3,
                fault: ModuleFault::OpenCircuit,
            },
        )])
    };

    let scenario = scenario_with(plan(), 9, 30);
    let mut baseline = teg_harvest::reconfig::StaticBaseline::square_grid(9);
    let mut session = SimSession::new(&scenario, &mut baseline).expect("session");
    let mut powers = Vec::new();
    while let Some(record) = session.step().expect("step") {
        powers.push(record.array_power().value());
    }
    let summary = session.summary();
    assert_eq!(summary.faulted_steps(), 25);
    assert_eq!(summary.fault_events(), 1);
    // The parallel group absorbs the hole: power stays positive throughout.
    assert!(powers[5..].iter().all(|&p| p > 0.0));
    assert!(summary.net_energy().value() > 0.0);

    // INOR cannot see the electrical fault through its (healthy) telemetry;
    // on this near-uniform array it wires the dead module into a tiny
    // group and the string goes dead — strictly worse than never touching
    // the wiring.  This is the blindness the fault axis exists to expose.
    let scenario = scenario_with(plan(), 9, 30);
    let mut inor = teg_harvest::reconfig::Inor::default();
    let mut session = SimSession::new(&scenario, &mut inor).expect("session");
    let mut inor_powers = Vec::new();
    while let Some(record) = session.step().expect("step") {
        inor_powers.push(record.array_power().value());
    }
    let inor_summary = session.summary();
    assert!(
        inor_powers[5..].contains(&0.0),
        "fault-blind INOR should break the string on this array"
    );
    assert!(inor_summary.net_energy() < summary.net_energy());
}

#[test]
fn stuck_switches_bound_what_the_controller_can_realise() {
    // Weld every link shut: whatever the scheme commands, the fabric can
    // only realise the all-parallel wiring, so all schemes deliver exactly
    // the same energy.
    let weld_all = |n: usize| {
        FaultPlan::new(
            (0..n - 1)
                .map(|link| {
                    FaultEvent::new(
                        0,
                        FaultAction::Switch {
                            link,
                            stuck: SwitchStuck::Closed,
                        },
                    )
                })
                .collect(),
        )
    };
    let scenario = scenario_with(weld_all(8), 8, 20);
    let report = Comparison::from_specs(&scenario, &SchemeSpec::paper_field(8))
        .runtime_policy(RuntimePolicy::Fixed(CHARGE))
        .run()
        .expect("comparison");
    let energies: Vec<f64> = report
        .reports()
        .iter()
        .map(|r| r.gross_energy().value())
        .collect();
    for pair in energies.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < 1e-9,
            "welded fabric must equalise all schemes' gross output: {energies:?}"
        );
    }
}

#[test]
fn fault_plans_serialise_into_session_artefacts() {
    let plan = FaultPlan::random(12, 50, FaultSeverity::light(), 3);
    let scenario = scenario_with(plan.clone(), 12, 50);
    // The scenario exposes the plan for session records / CSV captions…
    assert_eq!(scenario.fault_plan(), &plan);
    let spec = scenario.fault_plan().spec();
    if !plan.is_empty() {
        assert!(spec.contains(':'), "{spec}");
    }
    // …and the spec is stable across identical generations (the substance
    // of "seeded, deterministic, serializable").
    let again = FaultPlan::random(12, 50, FaultSeverity::light(), 3);
    assert_eq!(spec, again.spec());
}
