//! Electrical solver for a configured TEG array.
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

use teg_device::TegModule;
use teg_units::{Amps, TemperatureDelta, Volts, Watts};

use crate::configuration::Configuration;
use crate::error::ArrayError;
use crate::fault::{FaultState, ModuleFault};
use crate::solver::{ArraySolver, SolvedPoint};

/// The solved state of one parallel group at a given string current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupOperatingPoint {
    voltage: Volts,
    power: Watts,
}

impl GroupOperatingPoint {
    /// Builds a group point — the solve kernel is the only producer.
    pub(crate) const fn new(voltage: Volts, power: Watts) -> Self {
        Self { voltage, power }
    }

    /// Terminal voltage of the group.
    #[must_use]
    pub const fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Power delivered by the group (negative if the string current drives
    /// the group above its open-circuit point).
    #[must_use]
    pub const fn power(&self) -> Watts {
        self.power
    }
}

/// The solved state of the whole array at a given string current.
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_units::TemperatureDelta;
///
/// # fn main() -> Result<(), teg_array::ArrayError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 8);
/// let deltas = vec![TemperatureDelta::new(60.0); 8];
/// let config = Configuration::uniform(8, 4)?;
/// let op = array.maximum_power_point(&config, &deltas)?;
/// assert!(op.voltage().value() > 0.0);
/// assert!((op.power().value() - (op.voltage() * op.current()).value()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayOperatingPoint {
    current: Amps,
    voltage: Volts,
    power: Watts,
    groups: Vec<GroupOperatingPoint>,
}

impl ArrayOperatingPoint {
    /// Assembles the legacy owned operating point from a kernel solve.
    pub(crate) fn from_solver(point: SolvedPoint, groups: &[GroupOperatingPoint]) -> Self {
        Self {
            current: point.current(),
            voltage: point.voltage(),
            power: point.power(),
            groups: groups.to_vec(),
        }
    }

    /// String current flowing through every group.
    #[must_use]
    pub const fn current(&self) -> Amps {
        self.current
    }

    /// Total array terminal voltage.
    #[must_use]
    pub const fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Total delivered power.
    #[must_use]
    pub const fn power(&self) -> Watts {
        self.power
    }

    /// Per-group operating points in series order.
    #[must_use]
    pub fn groups(&self) -> &[GroupOperatingPoint] {
        &self.groups
    }
}

/// A chain of TEG modules plus the electrical solver that evaluates any
/// configuration of them.
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

    /// Solves the array at an imposed string current.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::DimensionMismatch`] if the ΔT vector length does
    /// not match the module count, or [`ArrayError::InvalidConfiguration`] if
    /// the configuration covers a different module count.
    pub fn operate_at(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        current: Amps,
    ) -> Result<ArrayOperatingPoint, ArrayError> {
        self.check_config(config)?;
        self.check_deltas(deltas)?;
        Ok(self.operate_at_with(config, deltas, current, None))
    }

    /// Solves the array at an imposed string current with the given
    /// electrical faults active.
    ///
    /// Open-circuit modules drop out of their group's Norton sums; a group
    /// whose every module is open breaks the series string and the whole
    /// array collapses to the zero operating point.  A short-circuited
    /// module pins its group to zero volts (the group still passes the
    /// string current).  Derated modules contribute a scaled EMF.
    ///
    /// Note that `config` is the configuration *realised by the fabric* —
    /// callers with stuck switch faults resolve the commanded configuration
    /// through [`FaultState::effective_configuration`] first.
    ///
    /// # Errors
    ///
    /// The failure modes of [`TegArray::operate_at`], plus
    /// [`ArrayError::InvalidConfiguration`] when the fault state covers a
    /// different module count.
    pub fn operate_at_faulted(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        current: Amps,
        faults: &FaultState,
    ) -> Result<ArrayOperatingPoint, ArrayError> {
        self.check_config(config)?;
        self.check_deltas(deltas)?;
        self.check_faults(faults)?;
        Ok(self.operate_at_with(config, deltas, current, Some(faults)))
    }

    /// Analytic maximum power point of the array under a configuration.
    ///
    /// The optimum string current is clamped at zero: with every module at
    /// ΔT = 0 the array cannot deliver power.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TegArray::operate_at`].
    pub fn maximum_power_point(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
    ) -> Result<ArrayOperatingPoint, ArrayError> {
        self.check_config(config)?;
        self.check_deltas(deltas)?;
        Ok(self.maximum_power_point_with(config, deltas, None))
    }

    /// Analytic maximum power point with the given electrical faults active
    /// (same fault semantics as [`TegArray::operate_at_faulted`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TegArray::operate_at_faulted`].
    pub fn maximum_power_point_faulted(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        faults: &FaultState,
    ) -> Result<ArrayOperatingPoint, ArrayError> {
        self.check_config(config)?;
        self.check_deltas(deltas)?;
        self.check_faults(faults)?;
        Ok(self.maximum_power_point_with(config, deltas, Some(faults)))
    }

    /// Total array power at the analytic MPP — shorthand used by the
    /// reconfiguration algorithms' inner loops.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TegArray::operate_at`].
    pub fn mpp_power(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
    ) -> Result<Watts, ArrayError> {
        Ok(self.maximum_power_point(config, deltas)?.power())
    }

    /// Total array MPP power with the given electrical faults active.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TegArray::operate_at_faulted`].
    pub fn mpp_power_faulted(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        faults: &FaultState,
    ) -> Result<Watts, ArrayError> {
        Ok(self
            .maximum_power_point_faulted(config, deltas, faults)?
            .power())
    }

    // The `_with` methods are thin wrappers over the shared solve kernel
    // (`crate::solver`), so the healthy and degraded paths — and the
    // batched candidate scans the schemes run — are one implementation.
    // Hot-path callers hold an `ArraySolver` themselves and
    // skip the per-call scratch these compatibility entry points pay for.

    fn maximum_power_point_with(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        faults: Option<&FaultState>,
    ) -> ArrayOperatingPoint {
        let mut solver = ArraySolver::new();
        solver
            .load(self, deltas, faults)
            .expect("dimensions validated by the caller");
        let point = solver
            .mpp(config)
            .expect("configuration validated by the caller");
        ArrayOperatingPoint::from_solver(point, solver.group_points())
    }

    fn operate_at_with(
        &self,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        current: Amps,
        faults: Option<&FaultState>,
    ) -> ArrayOperatingPoint {
        let mut solver = ArraySolver::new();
        solver
            .load(self, deltas, faults)
            .expect("dimensions validated by the caller");
        let point = solver
            .operate_at(config, current)
            .expect("configuration validated by the caller");
        ArrayOperatingPoint::from_solver(point, solver.group_points())
    }

    /// The effective Thévenin source of one module under an optional fault
    /// state: `None` for an open-circuited module, otherwise its conductance
    /// and (possibly derated) EMF.  Short circuits are a *group*-level
    /// condition and are handled by the caller.
    pub(crate) fn module_source(
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

    fn check_faults(&self, faults: &FaultState) -> Result<(), ArrayError> {
        if faults.module_count() != self.modules.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "fault state covers {} modules but the array has {}",
                    faults.module_count(),
                    self.modules.len()
                ),
            });
        }
        Ok(())
    }

    fn check_config(&self, config: &Configuration) -> Result<(), ArrayError> {
        if config.module_count() != self.modules.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "configuration covers {} modules but the array has {}",
                    config.module_count(),
                    self.modules.len()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::ideal_power;
    use proptest::prelude::*;
    use teg_device::TegDatasheet;

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

    #[test]
    fn empty_array_is_rejected() {
        assert!(matches!(TegArray::new(vec![]), Err(ArrayError::EmptyArray)));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let array = TegArray::uniform(module(), 10);
        let config = Configuration::uniform(10, 2).unwrap();
        let short = vec![TemperatureDelta::new(50.0); 9];
        assert!(array.mpp_currents(&short).is_err());
        assert!(array.operate_at(&config, &short, Amps::new(0.1)).is_err());
        let wrong_config = Configuration::uniform(12, 2).unwrap();
        let deltas = vec![TemperatureDelta::new(50.0); 10];
        assert!(array.maximum_power_point(&wrong_config, &deltas).is_err());
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
        let op = array.maximum_power_point(&config, &[dt; 4]).unwrap();
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
        let p1 = array
            .mpp_power(&Configuration::uniform(12, 1).unwrap(), &deltas)
            .unwrap();
        let p3 = array
            .mpp_power(&Configuration::uniform(12, 3).unwrap(), &deltas)
            .unwrap();
        let p12 = array
            .mpp_power(&Configuration::uniform(12, 12).unwrap(), &deltas)
            .unwrap();
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
        let series = array
            .mpp_power(&Configuration::all_series(20).unwrap(), &deltas)
            .unwrap();
        assert!(series < ideal);
        let grouped = array
            .mpp_power(&Configuration::uniform(20, 5).unwrap(), &deltas)
            .unwrap();
        assert!(grouped.value() <= ideal.value() + 1e-9);
    }

    #[test]
    fn no_configuration_beats_the_ideal_power() {
        let array = TegArray::uniform(module(), 15);
        let deltas = gradient_deltas(15);
        let ideal = ideal_power(array.modules(), &deltas).unwrap();
        for groups in 1..=15 {
            let config = Configuration::uniform(15, groups).unwrap();
            let p = array.mpp_power(&config, &deltas).unwrap();
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
        let op = array.maximum_power_point(&config, &deltas).unwrap();
        for factor in [0.8_f64, 0.9, 0.95, 1.05, 1.1, 1.2] {
            let other = array
                .operate_at(&config, &deltas, op.current() * factor)
                .unwrap();
            assert!(other.power().value() <= op.power().value() + 1e-9);
        }
    }

    #[test]
    fn power_equals_voltage_times_current_and_sums_over_groups() {
        let array = TegArray::uniform(module(), 9);
        let deltas = gradient_deltas(9);
        let config = Configuration::uniform(9, 3).unwrap();
        let op = array.operate_at(&config, &deltas, Amps::new(0.6)).unwrap();
        let group_power: f64 = op.groups().iter().map(|g| g.power().value()).sum();
        assert!((group_power - op.power().value()).abs() < 1e-9);
        let vi = (op.voltage() * op.current()).value();
        assert!((vi - op.power().value()).abs() < 1e-9);
        let group_voltage: f64 = op.groups().iter().map(|g| g.voltage().value()).sum();
        assert!((group_voltage - op.voltage().value()).abs() < 1e-9);
    }

    #[test]
    fn zero_delta_t_yields_zero_power() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::ZERO; 6];
        let config = Configuration::uniform(6, 3).unwrap();
        let op = array.maximum_power_point(&config, &deltas).unwrap();
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
        let p = array
            .mpp_power(&Configuration::uniform(4, 2).unwrap(), &deltas)
            .unwrap();
        assert!(p.value() > 0.0);
    }

    #[test]
    fn open_circuit_module_drops_out_of_its_group() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(60.0); 6];
        let config = Configuration::uniform(6, 2).unwrap();
        let mut faults = crate::FaultState::healthy(6);
        faults
            .set_module_fault(1, crate::ModuleFault::OpenCircuit)
            .unwrap();
        let healthy = array.mpp_power(&config, &deltas).unwrap();
        let degraded = array.mpp_power_faulted(&config, &deltas, &faults).unwrap();
        assert!(degraded.value() > 0.0);
        assert!(degraded < healthy);
    }

    #[test]
    fn fully_open_group_breaks_the_string() {
        let array = TegArray::uniform(module(), 4);
        let deltas = vec![TemperatureDelta::new(60.0); 4];
        let config = Configuration::uniform(4, 2).unwrap();
        let mut faults = crate::FaultState::healthy(4);
        faults
            .set_module_fault(0, crate::ModuleFault::OpenCircuit)
            .unwrap();
        faults
            .set_module_fault(1, crate::ModuleFault::OpenCircuit)
            .unwrap();
        let op = array
            .maximum_power_point_faulted(&config, &deltas, &faults)
            .unwrap();
        assert_eq!(op.power(), Watts::ZERO);
        assert_eq!(op.current(), Amps::ZERO);
        assert_eq!(op.voltage(), Volts::ZERO);
        // The imposed-current solve collapses the same way.
        let forced = array
            .operate_at_faulted(&config, &deltas, Amps::new(0.5), &faults)
            .unwrap();
        assert_eq!(forced.power(), Watts::ZERO);
    }

    #[test]
    fn shorted_group_is_pinned_to_zero_volts_but_passes_current() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(60.0); 6];
        let config = Configuration::uniform(6, 3).unwrap();
        let mut faults = crate::FaultState::healthy(6);
        faults
            .set_module_fault(2, crate::ModuleFault::ShortCircuit)
            .unwrap();
        let op = array
            .maximum_power_point_faulted(&config, &deltas, &faults)
            .unwrap();
        // Group 1 (modules 2..4) is shorted: zero volts, zero power.
        assert_eq!(op.groups()[1].voltage(), Volts::ZERO);
        assert_eq!(op.groups()[1].power(), Watts::ZERO);
        // The other two groups still deliver through the short.
        assert!(op.power().value() > 0.0);
        assert!(op.current().value() > 0.0);
        let healthy = array.mpp_power(&config, &deltas).unwrap();
        assert!(op.power() < healthy);
    }

    #[test]
    fn every_group_shorted_means_a_dead_array() {
        let array = TegArray::uniform(module(), 4);
        let deltas = vec![TemperatureDelta::new(60.0); 4];
        let config = Configuration::uniform(4, 2).unwrap();
        let mut faults = crate::FaultState::healthy(4);
        faults
            .set_module_fault(0, crate::ModuleFault::ShortCircuit)
            .unwrap();
        faults
            .set_module_fault(2, crate::ModuleFault::ShortCircuit)
            .unwrap();
        let op = array
            .maximum_power_point_faulted(&config, &deltas, &faults)
            .unwrap();
        assert_eq!(op.power(), Watts::ZERO);
        assert!(op.power().value().is_finite());
    }

    #[test]
    fn derated_module_scales_power_down_continuously() {
        let array = TegArray::uniform(module(), 5);
        let deltas = gradient_deltas(5);
        let config = Configuration::uniform(5, 5).unwrap();
        let healthy = array.mpp_power(&config, &deltas).unwrap();
        let mut previous = healthy.value();
        for factor in [0.8, 0.5, 0.2] {
            let mut faults = crate::FaultState::healthy(5);
            faults
                .set_module_fault(0, crate::ModuleFault::Derated(factor))
                .unwrap();
            let degraded = array
                .mpp_power_faulted(&config, &deltas, &faults)
                .unwrap()
                .value();
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
        let faults = crate::FaultState::healthy(9);
        let plain = array.maximum_power_point(&config, &deltas).unwrap();
        let faulted = array
            .maximum_power_point_faulted(&config, &deltas, &faults)
            .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn mismatched_fault_state_is_rejected() {
        let array = TegArray::uniform(module(), 6);
        let deltas = vec![TemperatureDelta::new(50.0); 6];
        let config = Configuration::uniform(6, 2).unwrap();
        let faults = crate::FaultState::healthy(5);
        assert!(array
            .maximum_power_point_faulted(&config, &deltas, &faults)
            .is_err());
        assert!(array
            .operate_at_faulted(&config, &deltas, Amps::new(0.1), &faults)
            .is_err());
    }

    /// Deterministically derives a fault pattern from a bit mask: two bits
    /// per module select healthy / open / short / derated.
    fn fault_pattern(n: usize, mask: u64) -> crate::FaultState {
        let mut faults = crate::FaultState::healthy(n);
        for i in 0..n {
            match (mask >> ((2 * i) % 64)) & 0b11 {
                1 => faults
                    .set_module_fault(i, crate::ModuleFault::OpenCircuit)
                    .unwrap(),
                2 => faults
                    .set_module_fault(i, crate::ModuleFault::ShortCircuit)
                    .unwrap(),
                3 => faults
                    .set_module_fault(i, crate::ModuleFault::Derated(0.6))
                    .unwrap(),
                _ => {}
            }
        }
        faults
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
            let p = array.mpp_power_faulted(&config, &deltas, &faults).unwrap();
            let ideal = ideal_power(array.modules(), &deltas).unwrap();
            prop_assert!(p.value().is_finite());
            prop_assert!(p.value() >= 0.0);
            prop_assert!(p.value() <= ideal.value() + 1e-6);
        }

        /// Kirchhoff consistency of the solved faulted state: every series
        /// group carries the same string current (the connected modules of a
        /// non-shorted group source exactly the string current between them),
        /// group voltages sum to the terminal voltage, and P = V·I at both
        /// group and array level.
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
            let mpp = array
                .maximum_power_point_faulted(&config, &deltas, &faults)
                .unwrap();
            let op = array
                .operate_at_faulted(&config, &deltas, mpp.current() * frac, &faults)
                .unwrap();
            let current = op.current().value();

            // A group that is fully open (and not shorted) breaks the series
            // string: the solver reports the dead operating point, which is
            // trivially consistent but carries no branch currents to check.
            let string_broken = config.groups().any(|group| {
                let shorted = group
                    .indices()
                    .any(|i| faults.module_fault(i) == Some(crate::ModuleFault::ShortCircuit));
                !shorted
                    && group
                        .indices()
                        .all(|i| faults.module_fault(i) == Some(crate::ModuleFault::OpenCircuit))
            });
            if string_broken {
                prop_assert_eq!(op.power().value(), 0.0);
                prop_assert_eq!(op.current().value(), 0.0);
            } else {
                // Terminal voltage is the series sum of group voltages.
                let group_voltage: f64 = op.groups().iter().map(|g| g.voltage().value()).sum();
                prop_assert!((group_voltage - op.voltage().value()).abs() < 1e-9);
                // P = V·I at the array level and summed over the groups.
                prop_assert!(
                    ((op.voltage() * op.current()).value() - op.power().value()).abs() < 1e-9
                );
                let group_power: f64 = op.groups().iter().map(|g| g.power().value()).sum();
                prop_assert!((group_power - op.power().value()).abs() < 1e-9);

                // Within each non-shorted group the parallel modules share
                // the group voltage and their branch currents
                // i_m = G_m·(E_m − V_g) sum to the string current (KCL at
                // the group's output node).
                for (j, group) in config.groups().enumerate() {
                    let shorted = group
                        .indices()
                        .any(|i| faults.module_fault(i) == Some(crate::ModuleFault::ShortCircuit));
                    if shorted {
                        prop_assert_eq!(op.groups()[j].voltage().value(), 0.0);
                        continue;
                    }
                    let v_g = op.groups()[j].voltage().value();
                    let mut branch_sum = 0.0;
                    for i in group.indices() {
                        let Some((g, e)) = array.module_source(i, deltas[i], Some(&faults)) else {
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
            let op = array.maximum_power_point(&config, &deltas).unwrap();
            let probe = array.operate_at(&config, &deltas, op.current() * frac).unwrap();
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
            let p = array.mpp_power(&config, &deltas).unwrap();
            let ideal = ideal_power(array.modules(), &deltas).unwrap();
            prop_assert!(p.value() <= ideal.value() + 1e-6);
        }
    }
}
