//! Switching-overhead accounting across the whole stack: the Section III-C
//! model, the session's bookkeeping and the DNOR switch decision.

use teg_harvest::array::{Configuration, SwitchingOverheadModel};
use teg_harvest::reconfig::{Dnor, DnorConfig, Inor, InorConfig};
use teg_harvest::sim::{Scenario, SimSession};
use teg_harvest::units::{Joules, Seconds, Watts};

#[test]
fn overhead_model_charges_more_for_bigger_reconfigurations() {
    let model = SwitchingOverheadModel::default();
    let small = Configuration::uniform(60, 6).unwrap();
    let nearby = Configuration::new(
        {
            let mut starts: Vec<usize> = small.group_starts().to_vec();
            starts[3] += 1;
            starts
        },
        60,
    )
    .unwrap();
    let distant = Configuration::uniform(60, 12).unwrap();

    let few_toggles = small.switch_toggles_to(&nearby).unwrap();
    let many_toggles = small.switch_toggles_to(&distant).unwrap();
    assert!(few_toggles < many_toggles);

    let power = Watts::new(60.0);
    let compute = Seconds::new(0.003);
    let cheap = model.event(power, compute, few_toggles).total_energy();
    let expensive = model.event(power, compute, many_toggles).total_energy();
    assert!(cheap < expensive);
}

#[test]
fn engine_charges_overhead_only_when_something_happens() {
    let scenario = Scenario::builder()
        .module_count(20)
        .duration_seconds(30)
        .seed(77)
        .build()
        .unwrap();
    let report = SimSession::new(&scenario, &mut Inor::default())
        .unwrap()
        .run()
        .unwrap();
    // INOR evaluates twice per second, so every step carries at least the
    // evaluation-only overhead.
    assert!(report
        .records()
        .iter()
        .all(|r| r.overhead_energy().value() > 0.0));
    // Steps that switched cost more than steps that only evaluated.
    let switched: Vec<f64> = report
        .records()
        .iter()
        .filter(|r| r.switched())
        .map(|r| r.overhead_energy().value())
        .collect();
    let unswitched: Vec<f64> = report
        .records()
        .iter()
        .filter(|r| !r.switched())
        .map(|r| r.overhead_energy().value())
        .collect();
    if !switched.is_empty() && !unswitched.is_empty() {
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&switched) > avg(&unswitched));
    }
}

#[test]
fn inflated_overhead_makes_dnor_refuse_to_switch() {
    // With an absurdly expensive switch, DNOR should stay on its initial
    // wiring for the whole run.
    let huge = SwitchingOverheadModel::new(
        Seconds::new(0.004),
        Seconds::new(0.008),
        Seconds::new(0.006),
        Joules::new(1.0e6),
    );
    let config = DnorConfig::new(InorConfig::default(), 2, 5, huge, Seconds::new(1.0)).unwrap();
    let scenario = Scenario::builder()
        .module_count(20)
        .duration_seconds(40)
        .seed(13)
        .build()
        .unwrap();
    let report = SimSession::new(&scenario, &mut Dnor::new(config))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        report.switch_count(),
        0,
        "an infinite switch cost must freeze DNOR"
    );

    // With the normal overhead model it does reconfigure at least once.
    let report = SimSession::new(&scenario, &mut Dnor::default())
        .unwrap()
        .run()
        .unwrap();
    assert!(report.switch_count() >= 1);
}

#[test]
fn zero_overhead_collapses_dnor_towards_inor_behaviour() {
    let zero =
        SwitchingOverheadModel::new(Seconds::ZERO, Seconds::ZERO, Seconds::ZERO, Joules::ZERO);
    let scenario = Scenario::builder()
        .module_count(20)
        .duration_seconds(40)
        .seed(21)
        .overhead(zero)
        .build()
        .unwrap();
    let dnor_cfg = DnorConfig::new(InorConfig::default(), 2, 5, zero, Seconds::new(1.0)).unwrap();
    let dnor = SimSession::new(&scenario, &mut Dnor::new(dnor_cfg))
        .unwrap()
        .run()
        .unwrap();
    let inor = SimSession::new(&scenario, &mut Inor::default())
        .unwrap()
        .run()
        .unwrap();
    // With no switching penalty at all, both schemes harvest essentially the
    // same energy.
    let ratio = dnor.net_energy().value() / inor.net_energy().value();
    assert!((0.97..=1.03).contains(&ratio), "ratio {ratio}");
    // The only residual overhead is the measured algorithm computation time
    // (microseconds) multiplied by the array power — a few millijoules.
    assert!(dnor.overhead_energy().value() < 0.5);
    assert!(inor.overhead_energy().value() < 0.5);
}
