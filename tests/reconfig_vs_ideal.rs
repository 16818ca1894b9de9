//! INOR's output against the physical upper bound `P_ideal`, across array
//! sizes and temperature profiles.

use teg_harvest::array::{ideal_power, ArraySolver, Configuration, TegArray};
use teg_harvest::device::{TegDatasheet, TegModule, VariationModel};
use teg_harvest::reconfig::Inor;
use teg_harvest::units::{TemperatureDelta, Watts};

fn array(n: usize) -> TegArray {
    TegArray::uniform(
        TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
        n,
    )
}

fn mpp_power(a: &TegArray, config: &Configuration, deltas: &[TemperatureDelta]) -> Watts {
    let mut solver = ArraySolver::new();
    solver.load(a, deltas, None).unwrap();
    solver.mpp(config).unwrap().power()
}

fn exponential_profile(n: usize, hot: f64, decay: f64) -> Vec<TemperatureDelta> {
    (0..n)
        .map(|i| TemperatureDelta::new(hot * (-(i as f64) * decay / n as f64).exp()))
        .collect()
}

#[test]
fn inor_captures_most_of_the_ideal_power_across_sizes() {
    let inor = Inor::default();
    for &n in &[10usize, 25, 50, 100, 200] {
        let a = array(n);
        let deltas = exponential_profile(n, 70.0, 1.2);
        let (_, power) = inor.optimise(&a, &deltas).expect("INOR optimisation");
        let ideal = ideal_power(a.modules(), &deltas).expect("ideal power");
        let fraction = power.value() / ideal.value();
        assert!(
            fraction > 0.88 && fraction <= 1.0 + 1e-9,
            "N={n}: INOR captured only {fraction:.3} of ideal"
        );
    }
}

#[test]
fn inor_advantage_grows_with_the_gradient_steepness() {
    let inor = Inor::default();
    let n = 100;
    let a = array(n);
    let mut last_gain = 0.0;
    for &decay in &[0.2_f64, 0.8, 1.6, 2.4] {
        let deltas = exponential_profile(n, 75.0, decay);
        let (_, inor_power) = inor.optimise(&a, &deltas).unwrap();
        let grid = Configuration::uniform(n, 10).unwrap();
        let grid_power = mpp_power(&a, &grid, &deltas);
        let gain = inor_power.value() / grid_power.value();
        assert!(gain >= 1.0 - 1e-9, "INOR must never lose to the fixed grid");
        assert!(
            gain + 1e-6 >= last_gain,
            "gain should not shrink as the gradient steepens (decay {decay}: {gain:.4} vs {last_gain:.4})"
        );
        last_gain = gain;
    }
    assert!(
        last_gain > 1.02,
        "steep gradients should show a clear INOR advantage, got {last_gain:.4}"
    );
}

#[test]
fn module_variation_does_not_break_near_optimality() {
    let nominal = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
    let modules = VariationModel::new(0.05, 0.08)
        .expect("valid tolerances")
        .apply(&nominal, 60, 123)
        .expect("variation");
    let a = TegArray::new(modules).expect("array");
    let deltas = exponential_profile(60, 65.0, 1.0);
    let (config, power) = Inor::default().optimise(&a, &deltas).unwrap();
    let ideal = ideal_power(a.modules(), &deltas).unwrap();
    assert!(power.value() / ideal.value() > 0.85);
    assert_eq!(config.module_count(), 60);
}

#[test]
fn flat_profiles_make_every_scheme_equivalent() {
    let n = 50;
    let a = array(n);
    let deltas = vec![TemperatureDelta::new(55.0); n];
    let (_, inor_power) = Inor::default().optimise(&a, &deltas).unwrap();
    let grid_power = mpp_power(&a, &Configuration::uniform(n, 10).unwrap(), &deltas);
    let ideal = ideal_power(a.modules(), &deltas).unwrap();
    assert!((inor_power.value() - ideal.value()).abs() < 1e-6);
    assert!((grid_power.value() - ideal.value()).abs() < 1e-6);
}
