//! The TEG array and the electrical model every solve uses.
//!
//! Under a configuration the array is a series string of parallel groups.
//! Each module is a linear Thévenin source, so a parallel group of modules
//! `m ∈ g` with conductances `G_m = 1/R_m` and EMFs `E_m` collapses to a
//! Norton equivalent: at string current `I` the group voltage is
//!
//! ```text
//! V_g(I) = (Σ G_m·E_m − I) / Σ G_m
//! ```
//!
//! The array voltage is the sum of group voltages and the delivered power
//! `P(I) = I·ΣV_g(I)` is a concave parabola in `I`, whose maximum
//!
//! ```text
//! I* = (Σ_g S_g/G_g) / (2·Σ_g 1/G_g),   S_g = Σ G_m·E_m,  G_g = Σ G_m
//! ```
//!
//! is the array MPP that the charger's MPPT converges to.
//!
//! [`TegArray`] holds the modules; [`ArraySolver`](crate::ArraySolver)
//! evaluates this model for any wiring of them.

use teg_device::TegModule;
use teg_units::{Amps, TemperatureDelta};

use crate::error::ArrayError;
use crate::fault::{FaultState, ModuleFault};

/// A chain of TEG modules, ordered from the radiator entrance to the exit.
/// [`ArraySolver`](crate::ArraySolver) solves any configuration of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TegArray {
    modules: Vec<TegModule>,
}

impl TegArray {
    /// Creates an array from an explicit list of (possibly non-identical)
    /// modules, ordered from the radiator entrance to the exit.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::EmptyArray`] if no modules are supplied.
    pub fn new(modules: Vec<TegModule>) -> Result<Self, ArrayError> {
        if modules.is_empty() {
            return Err(ArrayError::EmptyArray);
        }
        Ok(Self { modules })
    }

    /// Creates an array of `count` identical modules (the paper's setting).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn uniform(module: TegModule, count: usize) -> Self {
        assert!(count > 0, "array needs at least one module");
        Self {
            modules: vec![module; count],
        }
    }

    /// Number of modules in the array.
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Returns `true` if the array holds no modules (never true for a
    /// constructed array; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The modules in entrance-to-exit order.
    #[must_use]
    pub fn modules(&self) -> &[TegModule] {
        &self.modules
    }

    /// Per-module MPP currents for the given temperature differences — the
    /// `I_MPP,i` vector consumed by Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::DimensionMismatch`] if the ΔT vector length does
    /// not match the module count.
    pub fn mpp_currents(&self, deltas: &[TemperatureDelta]) -> Result<Vec<Amps>, ArrayError> {
        self.check_deltas(deltas)?;
        Ok(self
            .modules
            .iter()
            .zip(deltas.iter())
            .map(|(m, &dt)| m.mpp(dt).current())
            .collect())
    }

    /// The effective Thévenin source of one module under an optional fault
    /// state: `None` for an open-circuited module, otherwise its conductance
    /// and (possibly derated) EMF.  Short circuits are a *group*-level
    /// condition and are handled by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a module of the array.
    #[must_use]
    pub fn module_source(
        &self,
        index: usize,
        delta: TemperatureDelta,
        faults: Option<&FaultState>,
    ) -> Option<(f64, f64)> {
        let fault = faults.and_then(|f| f.module_fault(index));
        if matches!(fault, Some(ModuleFault::OpenCircuit)) {
            return None;
        }
        let g = self.modules[index].internal_conductance(delta);
        let mut e = self.modules[index].open_circuit_voltage(delta).value();
        if let Some(ModuleFault::Derated(factor)) = fault {
            e *= factor;
        }
        Some((g, e))
    }

    fn check_deltas(&self, deltas: &[TemperatureDelta]) -> Result<(), ArrayError> {
        if deltas.len() != self.modules.len() {
            return Err(ArrayError::DimensionMismatch {
                modules: self.modules.len(),
                temperatures: deltas.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configuration::Configuration;
    use crate::ideal::ideal_power;
    use crate::reference::{self, fault_pattern};
    use crate::solver::{ArraySolver, SolvedPoint};
    use proptest::prelude::*;
    use teg_device::TegDatasheet;
    use teg_units::{Volts, Watts};

    fn module() -> TegModule {
        TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8())
    }

    fn gradient_deltas(n: usize) -> Vec<TemperatureDelta> {
        // Roughly what the radiator profile produces: hot near the entrance,
        // cooler towards the exit.
        (0..n)
            .map(|i| TemperatureDelta::new(70.0 - 35.0 * i as f64 / (n.max(2) - 1) as f64))
            .collect()
    }

    fn mpp(
        array: &TegArray,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        faults: Option<&FaultState>,
    ) -> SolvedPoint {
        let mut solver = ArraySolver::new();
        solver.load(array, deltas, faults).unwrap();
        solver.mpp(config).unwrap()
    }

    fn operate_at(
        array: &TegArray,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        faults: Option<&FaultState>,
        current: Amps,
    ) -> SolvedPoint {
        let mut solver = ArraySolver::new();
        solver.load(array, deltas, faults).unwrap();
        solver.operate_at(config, current).unwrap()
    }

    fn mpp_power(array: &TegArray, config: &Configuration, deltas: &[TemperatureDelta]) -> Watts {
        mpp(array, config, deltas, None).power()
    }

    #[test]
    fn empty_array_is_rejected() {
        assert!(matches!(TegArray::new(vec![]), Err(ArrayError::EmptyArray)));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let array = TegArray::uniform(module(), 10);
        let short = vec![TemperatureDelta::new(50.0); 9];
        assert!(array.mpp_currents(&short).is_err());
        let mut solver = ArraySolver::new();
        assert!(solver.load(&array, &short, None).is_err());
        let wrong_config = Configuration::uniform(12, 2).unwrap();
        let deltas = vec![TemperatureDelta::new(50.0); 10];
        solver.load(&array, &deltas, None).unwrap();
        assert!(solver.mpp(&wrong_config).is_err());
    }

    #[test]
    fn uniform_array_uniform_temperature_matches_hand_calculation() {
        // 4 identical modules at the same ΔT split 2+2: each parallel pair has
        // E = Voc, R = R/2; the string of two pairs has Voc_total = 2·Voc and
        // R_total = R.  P_mpp = (2·Voc)²/(4·R).
        let m = module();
        let dt = TemperatureDelta::new(60.0);
        let voc = m.open_circuit_voltage(dt).value();
        let r = m.internal_resistance(dt).value();
        let array = TegArray::uniform(m, 4);
        let config = Configuration::uniform(4, 2).unwrap();
        let op = mpp(&array, &config, &[dt; 4], None);
        let expected = (2.0 * voc) * (2.0 * voc) / (4.0 * r);
        assert!((op.power().value() - expected).abs() < 1e-9);
        // The MPP voltage of a symmetric array is half its total Voc.
        assert!((op.voltage().value() - voc).abs() < 1e-9);
    }

    #[test]
    fn uniform_conditions_make_all_configurations_equivalent() {
        // With identical modules at identical ΔT every partition extracts the
        // same maximum power (only the voltage/current split changes).
        let array = TegArray::uniform(module(), 12);
        let deltas = vec![TemperatureDelta::new(55.0); 12];
        let p1 = mpp_power(&array, &Configuration::uniform(12, 1).unwrap(), &deltas);
        let p3 = mpp_power(&array, &Configuration::uniform(12, 3).unwrap(), &deltas);
        let p12 = mpp_power(&array, &Configuration::uniform(12, 12).unwrap(), &deltas);
        assert!((p1.value() - p3.value()).abs() < 1e-9);
        assert!((p3.value() - p12.value()).abs() < 1e-9);
    }

    #[test]
    fn gradient_makes_partition_choice_matter() {
        // Under a temperature gradient a pure series string wastes power
        // compared to the ideal sum of module MPPs, and a well chosen
        // grouping recovers part of the loss — this is the premise of the
        // whole paper.
        let array = TegArray::uniform(module(), 20);
        let deltas = gradient_deltas(20);
        let ideal = ideal_power(array.modules(), &deltas).unwrap();
        let series = mpp_power(&array, &Configuration::all_series(20).unwrap(), &deltas);
        assert!(series < ideal);
        let grouped = mpp_power(&array, &Configuration::uniform(20, 5).unwrap(), &deltas);
        assert!(grouped.value() <= ideal.value() + 1e-9);
    }

    #[test]
    fn no_configuration_beats_the_ideal_power() {
        let array = TegArray::uniform(module(), 15);
        let deltas = gradient_deltas(15);
        let ideal = ideal_power(array.modules(), &deltas).unwrap();
        for groups in 1..=15 {
            let config = Configuration::uniform(15, groups).unwrap();
            let p = mpp_power(&array, &config, &deltas);
            assert!(
                p.value() <= ideal.value() + 1e-9,
                "{groups} groups exceeded ideal"
            );
        }
    }

    #[test]
    fn analytic_mpp_beats_nearby_currents() {
        let array = TegArray::uniform(module(), 10);
        let deltas = gradient_deltas(10);
        let config = Configuration::uniform(10, 5).unwrap();
        let op = mpp(&array, &config, &deltas, None);
        for factor in [0.8_f64, 0.9, 0.95, 1.05, 1.1, 1.2] {
            let other = operate_at(&array, &config, &deltas, None, op.current() * factor);
            assert!(other.power().value() <= op.power().value() + 1e-9);
        }
    }

    #[test]
    fn power_equals_voltage_times_current_and_sums_over_groups() {
        let array = TegArray::uniform(module(), 9);
        let deltas = gradient_deltas(9);
        let config = Configuration::uniform(9, 3).unwrap();
        let op = operate_at(&array, &config, &deltas, None, Amps::new(0.6));
        let reference = reference::operate_at(&array, &config, &deltas, None, 0.6);
        assert_eq!(op.power().value().to_bits(), reference.power.to_bits());
        let group_power: f64 = reference.group_voltages.iter().map(|v| v * 0.6).sum();
        assert!((group_power - op.power().value()).abs() < 1e-9);
        let vi = (op.voltage() * op.current()).value();
        assert!((vi - op.power().value()).abs() < 1e-9);
        let group_voltage: f64 = reference.group_voltages.iter().sum();
        assert!((group_voltage - op.voltage().value()).abs() < 1e-9);
    }

    #[test]
    fn zero_delta_t_yields_zero_power() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::ZERO; 6];
        let config = Configuration::uniform(6, 3).unwrap();
        let op = mpp(&array, &config, &deltas, None);
        assert_eq!(op.current(), Amps::ZERO);
        assert_eq!(op.power(), Watts::ZERO);
    }

    #[test]
    fn non_uniform_modules_are_supported() {
        let hot = module().scaled(1.1, 0.95).unwrap();
        let cold = module().scaled(0.9, 1.05).unwrap();
        let array = TegArray::new(vec![hot, cold, module(), module()]).unwrap();
        assert_eq!(array.len(), 4);
        assert!(!array.is_empty());
        let deltas = vec![TemperatureDelta::new(50.0); 4];
        let p = mpp_power(&array, &Configuration::uniform(4, 2).unwrap(), &deltas);
        assert!(p.value() > 0.0);
    }

    #[test]
    fn open_circuit_module_drops_out_of_its_group() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(60.0); 6];
        let config = Configuration::uniform(6, 2).unwrap();
        let mut faults = FaultState::healthy(6);
        faults
            .set_module_fault(1, ModuleFault::OpenCircuit)
            .unwrap();
        let healthy = mpp_power(&array, &config, &deltas);
        let degraded = mpp(&array, &config, &deltas, Some(&faults)).power();
        assert!(degraded.value() > 0.0);
        assert!(degraded < healthy);
    }

    #[test]
    fn fully_open_group_breaks_the_string() {
        let array = TegArray::uniform(module(), 4);
        let deltas = vec![TemperatureDelta::new(60.0); 4];
        let config = Configuration::uniform(4, 2).unwrap();
        let mut faults = FaultState::healthy(4);
        faults
            .set_module_fault(0, ModuleFault::OpenCircuit)
            .unwrap();
        faults
            .set_module_fault(1, ModuleFault::OpenCircuit)
            .unwrap();
        let op = mpp(&array, &config, &deltas, Some(&faults));
        assert_eq!(op.power(), Watts::ZERO);
        assert_eq!(op.current(), Amps::ZERO);
        assert_eq!(op.voltage(), Volts::ZERO);
        // The imposed-current solve collapses the same way.
        let forced = operate_at(&array, &config, &deltas, Some(&faults), Amps::new(0.5));
        assert_eq!(forced.power(), Watts::ZERO);
    }

    #[test]
    fn shorted_group_is_pinned_to_zero_volts_but_passes_current() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(60.0); 6];
        let config = Configuration::uniform(6, 3).unwrap();
        let mut faults = FaultState::healthy(6);
        faults
            .set_module_fault(2, ModuleFault::ShortCircuit)
            .unwrap();
        let op = mpp(&array, &config, &deltas, Some(&faults));
        let reference = reference::mpp(&array, &config, &deltas, Some(&faults));
        assert_eq!(op.power().value().to_bits(), reference.power.to_bits());
        // Group 1 (modules 2..4) is shorted: zero volts, zero power.
        assert_eq!(reference.group_voltages[1], 0.0);
        // The other two groups still deliver through the short.
        assert!(op.power().value() > 0.0);
        assert!(op.current().value() > 0.0);
        let healthy = mpp_power(&array, &config, &deltas);
        assert!(op.power() < healthy);
    }

    #[test]
    fn every_group_shorted_means_a_dead_array() {
        let array = TegArray::uniform(module(), 4);
        let deltas = vec![TemperatureDelta::new(60.0); 4];
        let config = Configuration::uniform(4, 2).unwrap();
        let mut faults = FaultState::healthy(4);
        faults
            .set_module_fault(0, ModuleFault::ShortCircuit)
            .unwrap();
        faults
            .set_module_fault(2, ModuleFault::ShortCircuit)
            .unwrap();
        let op = mpp(&array, &config, &deltas, Some(&faults));
        assert_eq!(op.power(), Watts::ZERO);
        assert!(op.power().value().is_finite());
    }

    #[test]
    fn derated_module_scales_power_down_continuously() {
        let array = TegArray::uniform(module(), 5);
        let deltas = gradient_deltas(5);
        let config = Configuration::uniform(5, 5).unwrap();
        let healthy = mpp_power(&array, &config, &deltas);
        let mut previous = healthy.value();
        for factor in [0.8, 0.5, 0.2] {
            let mut faults = FaultState::healthy(5);
            faults
                .set_module_fault(0, ModuleFault::Derated(factor))
                .unwrap();
            let degraded = mpp(&array, &config, &deltas, Some(&faults)).power().value();
            assert!(degraded < previous, "factor {factor} must lose more power");
            assert!(degraded > 0.0);
            previous = degraded;
        }
    }

    #[test]
    fn healthy_fault_state_matches_the_plain_solver_bitwise() {
        let array = TegArray::uniform(module(), 9);
        let deltas = gradient_deltas(9);
        let config = Configuration::uniform(9, 3).unwrap();
        let faults = FaultState::healthy(9);
        let plain = mpp(&array, &config, &deltas, None);
        let faulted = mpp(&array, &config, &deltas, Some(&faults));
        assert_eq!(plain, faulted);
    }

    #[test]
    fn mismatched_fault_state_is_rejected() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(50.0); 6];
        let faults = FaultState::healthy(5);
        assert!(ArraySolver::new()
            .load(&array, &deltas, Some(&faults))
            .is_err());
    }

    proptest! {
        /// For any configuration and any fault set, the faulted array never
        /// delivers more than the healthy ideal power (sum of module MPPs).
        #[test]
        fn prop_faulted_power_is_bounded_by_the_healthy_ideal(
            n in 2usize..24,
            groups in 1usize..8,
            base in 10.0_f64..80.0,
            span in 0.0_f64..50.0,
            mask in 0u64..u64::MAX,
        ) {
            prop_assume!(groups <= n);
            let array = TegArray::uniform(module(), n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(base + span * i as f64 / n as f64))
                .collect();
            let config = Configuration::uniform(n, groups).unwrap();
            let faults = fault_pattern(n, mask);
            let p = mpp(&array, &config, &deltas, Some(&faults)).power();
            let ideal = ideal_power(array.modules(), &deltas).unwrap();
            prop_assert!(p.value().is_finite());
            prop_assert!(p.value() >= 0.0);
            prop_assert!(p.value() <= ideal.value() + 1e-6);
        }

        /// Kirchhoff consistency of the solved faulted state: every series
        /// group carries the same string current (the connected modules of a
        /// non-shorted group source exactly the string current between them),
        /// group voltages sum to the terminal voltage, and P = V·I at both
        /// group and array level.  The solver reports no per-group detail,
        /// so the group voltages come from the first-principles reference,
        /// whose totals the solver matches bit for bit.
        #[test]
        fn prop_faulted_solve_is_kirchhoff_consistent(
            n in 2usize..24,
            groups in 1usize..8,
            base in 10.0_f64..80.0,
            span in 0.0_f64..50.0,
            frac in 0.1_f64..1.5,
            mask in 0u64..u64::MAX,
        ) {
            prop_assume!(groups <= n);
            let array = TegArray::uniform(module(), n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(base + span * i as f64 / n as f64))
                .collect();
            let config = Configuration::uniform(n, groups).unwrap();
            let faults = fault_pattern(n, mask);
            let point = mpp(&array, &config, &deltas, Some(&faults));
            let op = operate_at(&array, &config, &deltas, Some(&faults), point.current() * frac);
            let current = op.current().value();
            let reference = reference::operate_at(&array, &config, &deltas, Some(&faults), current);
            prop_assert_eq!(op.voltage().value().to_bits(), reference.voltage.to_bits());
            prop_assert_eq!(op.power().value().to_bits(), reference.power.to_bits());

            // A group that is fully open (and not shorted) breaks the series
            // string: the solver reports the dead operating point, which is
            // trivially consistent but carries no branch currents to check.
            let string_broken = config.groups().any(|group| {
                let shorted = group
                    .indices()
                    .any(|i| faults.module_fault(i) == Some(ModuleFault::ShortCircuit));
                !shorted
                    && group
                        .indices()
                        .all(|i| faults.module_fault(i) == Some(ModuleFault::OpenCircuit))
            });
            if string_broken {
                prop_assert_eq!(op.power().value(), 0.0);
                prop_assert_eq!(op.current().value(), 0.0);
            } else {
                // Terminal voltage is the series sum of group voltages.
                let group_voltage: f64 = reference.group_voltages.iter().sum();
                prop_assert!((group_voltage - op.voltage().value()).abs() < 1e-9);
                // P = V·I at the array level and summed over the groups.
                prop_assert!(
                    ((op.voltage() * op.current()).value() - op.power().value()).abs() < 1e-9
                );
                let group_power: f64 = reference.group_voltages.iter().map(|v| v * current).sum();
                prop_assert!((group_power - op.power().value()).abs() < 1e-9);

                // Within each non-shorted group the parallel modules share
                // the group voltage and their branch currents
                // i_m = G_m·(E_m − V_g) sum to the string current (KCL at
                // the group's output node).
                for (j, group) in config.groups().enumerate() {
                    let v_g = reference.group_voltages[j];
                    let shorted = group
                        .indices()
                        .any(|i| faults.module_fault(i) == Some(ModuleFault::ShortCircuit));
                    if shorted {
                        prop_assert_eq!(v_g, 0.0);
                        continue;
                    }
                    let mut branch_sum = 0.0;
                    for i in group.indices() {
                        let Some((g, e)) = reference::module_source(&array, i, deltas[i], Some(&faults)) else {
                            continue; // open module: zero branch current
                        };
                        branch_sum += g * (e - v_g);
                    }
                    prop_assert!(
                        (branch_sum - current).abs() < 1e-9,
                        "group {} branch currents {} != string current {}",
                        j,
                        branch_sum,
                        current
                    );
                }
            }
        }
    }

    proptest! {
        /// The analytic MPP current maximises the concave power parabola: any
        /// sampled current delivers no more power.
        #[test]
        fn prop_analytic_mpp_is_global(
            n in 2usize..40,
            groups in 1usize..10,
            base in 10.0_f64..90.0,
            span in 0.0_f64..60.0,
            frac in 0.0_f64..2.0,
        ) {
            prop_assume!(groups <= n);
            let array = TegArray::uniform(module(), n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(base + span * i as f64 / n as f64))
                .collect();
            let config = Configuration::uniform(n, groups).unwrap();
            let op = mpp(&array, &config, &deltas, None);
            let probe = operate_at(&array, &config, &deltas, None, op.current() * frac);
            prop_assert!(probe.power().value() <= op.power().value() + 1e-6);
        }

        /// No configuration can extract more than the sum of module MPPs.
        #[test]
        fn prop_ideal_power_is_an_upper_bound(
            n in 2usize..30,
            groups in 1usize..8,
            base in 5.0_f64..80.0,
            span in 0.0_f64..70.0,
        ) {
            prop_assume!(groups <= n);
            let array = TegArray::uniform(module(), n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(base + span * (i as f64 / n as f64)))
                .collect();
            let config = Configuration::uniform(n, groups).unwrap();
            let p = mpp_power(&array, &config, &deltas);
            let ideal = ideal_power(array.modules(), &deltas).unwrap();
            prop_assert!(p.value() <= ideal.value() + 1e-6);
        }
    }
}
