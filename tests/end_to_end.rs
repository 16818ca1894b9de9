//! End-to-end comparison of all four schemes on one shared scenario —
//! asserting the qualitative shape of the paper's Table I.

use teg_harvest::reconfig::{Dnor, Ehtr, Inor, Reconfigurer, StaticBaseline};
use teg_harvest::sim::{Scenario, SimSession, SimulationReport};

fn run_all(modules: usize, seconds: usize, seed: u64) -> [SimulationReport; 4] {
    let scenario = Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(seed)
        .build()
        .expect("valid scenario");
    let run = |scheme: &mut dyn Reconfigurer| {
        SimSession::new(&scenario, scheme)
            .and_then(SimSession::run)
            .expect("run")
    };
    [
        run(&mut Dnor::default()),
        run(&mut Inor::default()),
        run(&mut Ehtr::default()),
        run(&mut StaticBaseline::square_grid(modules)),
    ]
}

#[test]
fn table1_ordering_holds_on_a_short_drive() {
    let [dnor, inor, ehtr, baseline] = run_all(40, 60, 99);

    // Every reconfiguring scheme beats the static wiring on net energy.
    assert!(dnor.net_energy().value() > baseline.net_energy().value());
    assert!(inor.net_energy().value() > baseline.net_energy().value());
    assert!(ehtr.net_energy().value() > baseline.net_energy().value());

    // DNOR's whole point: drastically lower switching overhead than the
    // fixed-period schemes, with at least comparable energy.
    assert!(dnor.overhead_energy().value() < 0.25 * inor.overhead_energy().value());
    assert!(dnor.overhead_energy().value() < 0.25 * ehtr.overhead_energy().value());
    assert!(dnor.net_energy().value() >= 0.98 * inor.net_energy().value());

    // The two instantaneous schemes deliver nearly identical energy.
    let ratio = inor.net_energy().value() / ehtr.net_energy().value();
    assert!(
        (0.97..=1.03).contains(&ratio),
        "INOR/EHTR energy ratio {ratio}"
    );

    // And the baseline never switches (it starts from its own wiring).
    assert_eq!(baseline.switch_count(), 0);
}

#[test]
fn dnor_switches_orders_of_magnitude_less_than_fixed_period_schemes() {
    let [dnor, inor, ehtr, _] = run_all(30, 80, 5);
    // The fixed-period schemes re-apply their configuration every 0.5 s
    // (160 applications over 80 s) and therefore accumulate dead-time
    // overhead on every period; DNOR only pays for its rare actual switches.
    assert_eq!(inor.runtime().invocations(), 160);
    assert_eq!(ehtr.runtime().invocations(), 160);
    assert!(dnor.switch_count() <= inor.switch_count());
    assert!(
        dnor.overhead_energy().value() * 20.0 < inor.overhead_energy().value(),
        "DNOR overhead {} should be well over an order of magnitude below INOR {}",
        dnor.overhead_energy(),
        inor.overhead_energy()
    );
    assert!(dnor.overhead_energy().value() * 20.0 < ehtr.overhead_energy().value());
}

#[test]
fn runtime_ordering_matches_complexity() {
    let [_, inor, ehtr, baseline] = run_all(60, 30, 17);
    // EHTR's DP is asymptotically (and practically) slower than INOR.
    assert!(
        ehtr.runtime().total().value() > inor.runtime().total().value(),
        "EHTR total runtime {} should exceed INOR {}",
        ehtr.runtime().total(),
        inor.runtime().total()
    );
    // The baseline does no work at all.
    assert_eq!(baseline.average_runtime().value(), 0.0);
}

#[test]
fn reports_are_internally_consistent() {
    let [dnor, inor, ehtr, baseline] = run_all(25, 45, 3);
    for report in [&dnor, &inor, &ehtr, &baseline] {
        assert_eq!(report.records().len(), 45);
        assert!(report.net_energy() <= report.gross_energy());
        assert!(report.net_energy().value() <= report.ideal_energy().value() + 1e-6);
        assert!(report.ideal_fraction() > 0.0 && report.ideal_fraction() <= 1.0);
        assert_eq!(report.switch_times().len(), report.switch_count());
        // Gross minus net equals the overhead actually charged (up to the
        // clamping that prevents negative per-step power).
        let diff = report.gross_energy().value() - report.net_energy().value();
        assert!(diff <= report.overhead_energy().value() + 1e-6);
    }
}

#[test]
fn results_scale_with_the_gradient_seed() {
    // Different drive-cycle seeds change absolute numbers but not the
    // qualitative ordering.
    for seed in [1u64, 7, 23] {
        let [dnor, _inor, _ehtr, baseline] = run_all(30, 40, seed);
        assert!(
            dnor.net_energy().value() > baseline.net_energy().value(),
            "seed {seed}: DNOR {} vs baseline {}",
            dnor.net_energy(),
            baseline.net_energy()
        );
    }
}
