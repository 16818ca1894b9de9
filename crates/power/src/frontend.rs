//! The harvesting front-end: charger + battery bookkeeping for one array.

use teg_array::{Configuration, SolvedPoint, TegArray};
use teg_units::{Joules, Seconds, TemperatureDelta, Watts};

use crate::battery::LeadAcidBattery;
use crate::converter::Charger;
use crate::error::PowerError;
use crate::mppt::PerturbObserve;

/// Summary of one harvesting interval processed by the front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestReport {
    array_point: SolvedPoint,
    converter_efficiency: f64,
    delivered_power: Watts,
    delivered_energy: Joules,
}

impl HarvestReport {
    /// The array operating point the MPPT settled on.
    #[must_use]
    pub const fn array_point(&self) -> &SolvedPoint {
        &self.array_point
    }

    /// Charger efficiency at that operating point.
    #[must_use]
    pub const fn converter_efficiency(&self) -> f64 {
        self.converter_efficiency
    }

    /// Power delivered into the battery during the interval.
    #[must_use]
    pub const fn delivered_power(&self) -> Watts {
        self.delivered_power
    }

    /// Energy delivered into the battery during the interval.
    #[must_use]
    pub const fn delivered_energy(&self) -> Joules {
        self.delivered_energy
    }
}

/// Charger plus battery, metering harvested energy for a configured array.
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_power::{Charger, HarvestingFrontEnd, LeadAcidBattery};
/// use teg_units::{Seconds, TemperatureDelta};
///
/// # fn main() -> Result<(), teg_power::PowerError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 10);
/// let deltas = vec![TemperatureDelta::new(60.0); 10];
/// let config = Configuration::uniform(10, 4).map_err(teg_power::PowerError::from)?;
/// let battery = LeadAcidBattery::vehicle_12v(60.0, 0.6)?;
/// let mut frontend = HarvestingFrontEnd::new(Charger::ltm4607_lead_acid(), battery);
/// let report = frontend.harvest(&array, &config, &deltas, Seconds::new(1.0))?;
/// assert!(report.delivered_energy().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestingFrontEnd {
    charger: Charger,
    battery: LeadAcidBattery,
    mppt: PerturbObserve,
    mppt_iterations: usize,
    total_delivered: Joules,
}

impl HarvestingFrontEnd {
    /// Creates a front-end from a charger model and a battery.
    #[must_use]
    pub fn new(charger: Charger, battery: LeadAcidBattery) -> Self {
        Self {
            charger,
            battery,
            mppt: PerturbObserve::default(),
            mppt_iterations: 150,
            total_delivered: Joules::ZERO,
        }
    }

    /// Replaces the MPPT tracker and its per-interval iteration budget.
    #[must_use]
    pub fn with_mppt(mut self, mppt: PerturbObserve, iterations: usize) -> Self {
        self.mppt = mppt;
        self.mppt_iterations = iterations;
        self
    }

    /// The charger model in use.
    #[must_use]
    pub const fn charger(&self) -> &Charger {
        &self.charger
    }

    /// The battery being charged.
    #[must_use]
    pub const fn battery(&self) -> &LeadAcidBattery {
        &self.battery
    }

    /// Total energy delivered into the battery so far.
    #[must_use]
    pub const fn total_delivered(&self) -> Joules {
        self.total_delivered
    }

    /// Tracks the array MPP with P&O, converts the harvested power through
    /// the charger and charges the battery for `duration`.
    ///
    /// # Errors
    ///
    /// Propagates array-solver errors as [`PowerError::Array`].
    pub fn harvest(
        &mut self,
        array: &TegArray,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        duration: Seconds,
    ) -> Result<HarvestReport, PowerError> {
        let outcome = self
            .mppt
            .track(array, config, deltas, self.mppt_iterations)?;
        let point = *outcome.operating_point();
        let efficiency = self.charger.efficiency(point.voltage());
        let delivered_power = self.charger.output_power(point.voltage(), point.power());
        let delivered_energy = delivered_power * duration;
        self.battery.accept(delivered_energy);
        self.total_delivered += delivered_energy;
        Ok(HarvestReport {
            array_point: point,
            converter_efficiency: efficiency,
            delivered_power,
            delivered_energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_array::{ArrayError, ArraySolver};
    use teg_device::{TegDatasheet, TegModule};

    fn setup(n: usize) -> (TegArray, Vec<TemperatureDelta>, HarvestingFrontEnd) {
        let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
        let array = TegArray::uniform(module, n);
        let deltas = (0..n)
            .map(|i| TemperatureDelta::new(70.0 - 30.0 * i as f64 / n as f64))
            .collect();
        let battery = LeadAcidBattery::vehicle_12v(60.0, 0.5).unwrap();
        let frontend = HarvestingFrontEnd::new(Charger::ltm4607_lead_acid(), battery);
        (array, deltas, frontend)
    }

    #[test]
    fn harvesting_charges_the_battery() {
        let (array, deltas, mut frontend) = setup(20);
        let config = Configuration::uniform(20, 4).unwrap();
        let soc_before = frontend.battery().state_of_charge();
        let report = frontend
            .harvest(&array, &config, &deltas, Seconds::new(1.0))
            .unwrap();
        assert!(report.delivered_power().value() > 0.0);
        assert!(report.converter_efficiency() > 0.0);
        assert!(frontend.battery().state_of_charge() > soc_before);
        assert_eq!(frontend.total_delivered(), report.delivered_energy());
    }

    #[test]
    fn delivered_energy_accumulates_over_intervals() {
        let (array, deltas, mut frontend) = setup(16);
        let config = Configuration::uniform(16, 4).unwrap();
        let mut sum = Joules::ZERO;
        for _ in 0..5 {
            let report = frontend
                .harvest(&array, &config, &deltas, Seconds::new(2.0))
                .unwrap();
            sum += report.delivered_energy();
        }
        assert!((frontend.total_delivered().value() - sum.value()).abs() < 1e-9);
    }

    #[test]
    fn delivered_power_is_bounded_by_array_power() {
        let (array, deltas, mut frontend) = setup(24);
        let config = Configuration::uniform(24, 6).unwrap();
        let report = frontend
            .harvest(&array, &config, &deltas, Seconds::new(1.0))
            .unwrap();
        assert!(report.delivered_power().value() <= report.array_point().power().value() + 1e-9);
    }

    #[test]
    fn badly_matched_configuration_loses_conversion_efficiency() {
        let (array, deltas, mut frontend) = setup(24);
        // One huge parallel group: array voltage ~ one module's MPP voltage,
        // far below 13.8 V, so the charger efficiency suffers.
        let flat = Configuration::uniform(24, 1).unwrap();
        // A sensible series/parallel split keeps the voltage near the battery.
        let good = Configuration::uniform(24, 6).unwrap();
        let report_flat = frontend
            .harvest(&array, &config_clone(&flat), &deltas, Seconds::new(1.0))
            .unwrap();
        let report_good = frontend
            .harvest(&array, &config_clone(&good), &deltas, Seconds::new(1.0))
            .unwrap();
        assert!(report_good.converter_efficiency() > report_flat.converter_efficiency());
    }

    fn config_clone(c: &Configuration) -> Configuration {
        c.clone()
    }

    #[test]
    fn mismatched_dimensions_error() {
        let (array, _deltas, mut frontend) = setup(10);
        let config = Configuration::uniform(10, 2).unwrap();
        let wrong = vec![TemperatureDelta::new(50.0); 9];
        assert!(frontend
            .harvest(&array, &config, &wrong, Seconds::new(1.0))
            .is_err());
    }

    #[test]
    fn configuration_covering_more_modules_is_an_error_not_a_panic() {
        // A 12-module wiring on a 10-module array: the tracker and the
        // front-end return the solver's own error for it.
        let (array, deltas, mut frontend) = setup(10);
        let config = Configuration::uniform(12, 3).unwrap();
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();
        let expected = PowerError::Array(solver.mpp(&config).unwrap_err());
        assert!(matches!(
            expected,
            PowerError::Array(ArrayError::InvalidConfiguration { .. })
        ));
        let tracked = PerturbObserve::default().track(&array, &config, &deltas, 10);
        assert_eq!(tracked.unwrap_err(), expected);
        let harvested = frontend.harvest(&array, &config, &deltas, Seconds::new(1.0));
        assert_eq!(harvested.unwrap_err(), expected);
        assert_eq!(frontend.total_delivered(), Joules::ZERO);
    }

    #[test]
    fn custom_mppt_is_honoured() {
        let (array, deltas, frontend) = setup(12);
        let mut frontend = frontend.with_mppt(
            PerturbObserve::new(
                teg_units::Amps::new(0.02),
                teg_units::Amps::new(0.0005),
                0.5,
            )
            .unwrap(),
            400,
        );
        let config = Configuration::uniform(12, 4).unwrap();
        let report = frontend
            .harvest(&array, &config, &deltas, Seconds::new(1.0))
            .unwrap();
        assert!(report.delivered_power().value() > 0.0);
    }
}
