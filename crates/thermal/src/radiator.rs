//! The assembled radiator model: ε-NTU energy balance plus the 1-D surface
//! temperature profile of the paper's Eq. 1.

use teg_units::Celsius;

use crate::distribution::SurfaceProfile;
use crate::error::ThermalError;
use crate::fluid::{AirProperties, AmbientState, CoolantProperties, CoolantState};
use crate::geometry::RadiatorGeometry;
use crate::ntu::{effectiveness, ExchangerArrangement};

/// A finned-tube cross-flow radiator with fixed geometry and fluid property
/// models.
///
/// The radiator turns an instantaneous `(coolant state, ambient state)` pair
/// into either a global operating point (heat duty, outlet temperatures) or a
/// 1-D surface-temperature profile that the TEG array samples.
///
/// # Examples
///
/// ```
/// use teg_thermal::{Radiator, RadiatorGeometry, CoolantState, AmbientState};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_thermal::ThermalError> {
/// let radiator = Radiator::new(RadiatorGeometry::porter_ii());
/// let op = radiator.operating_point(
///     &CoolantState::new(Celsius::new(95.0), 0.8),
///     &AmbientState::new(Celsius::new(25.0), 1.2),
/// )?;
/// assert!(op.heat_duty_watts() > 0.0);
/// assert!(op.coolant_outlet() < Celsius::new(95.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Radiator {
    geometry: RadiatorGeometry,
    coolant_props: CoolantProperties,
    air_props: AirProperties,
    arrangement: ExchangerArrangement,
}

impl Radiator {
    /// Creates a radiator with the given core geometry and default fluid
    /// models (50/50 glycol coolant, standard air, cross-flow both unmixed).
    #[must_use]
    pub fn new(geometry: RadiatorGeometry) -> Self {
        Self {
            geometry,
            coolant_props: CoolantProperties::default(),
            air_props: AirProperties::default(),
            arrangement: ExchangerArrangement::CrossFlowBothUnmixed,
        }
    }

    /// Replaces the coolant property model.
    #[must_use]
    pub fn with_coolant(mut self, props: CoolantProperties) -> Self {
        self.coolant_props = props;
        self
    }

    /// Replaces the air property model.
    #[must_use]
    pub fn with_air(mut self, props: AirProperties) -> Self {
        self.air_props = props;
        self
    }

    /// Replaces the flow arrangement used for the ε-NTU balance.
    #[must_use]
    pub fn with_arrangement(mut self, arrangement: ExchangerArrangement) -> Self {
        self.arrangement = arrangement;
        self
    }

    /// Returns the core geometry.
    #[must_use]
    pub const fn geometry(&self) -> &RadiatorGeometry {
        &self.geometry
    }

    /// Solves the global ε-NTU energy balance for one instant.
    ///
    /// # Errors
    ///
    /// Returns an error if either flow rate is non-positive, any input is
    /// non-finite, or the coolant is not hotter than the ambient air.
    pub fn operating_point(
        &self,
        coolant: &CoolantState,
        ambient: &AmbientState,
    ) -> Result<RadiatorOperatingPoint, ThermalError> {
        let c_hot = coolant.capacity_rate(&self.coolant_props)?;
        let c_cold = ambient.capacity_rate(&self.air_props)?;
        let t_hot_in = coolant.inlet_temperature();
        let t_cold_in = ambient.temperature();
        if t_hot_in.value() <= t_cold_in.value() {
            return Err(ThermalError::InvertedTemperatures {
                coolant_c: t_hot_in.value(),
                ambient_c: t_cold_in.value(),
            });
        }

        let c_min = c_hot.min(c_cold);
        let c_max = c_hot.max(c_cold);
        let c_r = c_min / c_max;
        let ntu = self.geometry.overall_conductance() / c_min;
        let eps = effectiveness(self.arrangement, ntu, c_r);

        let q_max = c_min * (t_hot_in.value() - t_cold_in.value());
        let q = eps * q_max;
        let t_hot_out = Celsius::new(t_hot_in.value() - q / c_hot);
        let t_cold_out = Celsius::new(t_cold_in.value() + q / c_cold);

        Ok(RadiatorOperatingPoint {
            heat_duty: q,
            effectiveness: eps,
            ntu,
            capacity_ratio: c_r,
            coolant_capacity_rate: c_hot,
            air_capacity_rate: c_cold,
            coolant_inlet: t_hot_in,
            coolant_outlet: t_hot_out,
            air_inlet: t_cold_in,
            air_outlet: t_cold_out,
        })
    }

    /// Builds the 1-D surface-temperature profile of Eq. 1 for one instant.
    ///
    /// The profile decays from the coolant inlet temperature towards the mean
    /// air temperature with decay constant `K / C_c` per metre of flow path,
    /// where `K` is the overall heat-transfer coefficient per unit length and
    /// `C_c` the air-side capacity rate.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Radiator::operating_point`].
    pub fn surface_profile(
        &self,
        coolant: &CoolantState,
        ambient: &AmbientState,
    ) -> Result<SurfaceProfile, ThermalError> {
        let op = self.operating_point(coolant, ambient)?;
        let k_per_length = self.geometry.overall_coefficient_per_length();
        let decay_per_meter = k_per_length / op.air_capacity_rate;
        SurfaceProfile::new(
            op.coolant_inlet,
            op.mean_air_temperature(),
            decay_per_meter,
            self.geometry.flow_path_length(),
        )
    }
}

/// The solved global energy balance of the radiator at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiatorOperatingPoint {
    heat_duty: f64,
    effectiveness: f64,
    ntu: f64,
    capacity_ratio: f64,
    coolant_capacity_rate: f64,
    air_capacity_rate: f64,
    coolant_inlet: Celsius,
    coolant_outlet: Celsius,
    air_inlet: Celsius,
    air_outlet: Celsius,
}

impl RadiatorOperatingPoint {
    /// Heat rejected from coolant to air, in watts.
    #[must_use]
    pub const fn heat_duty_watts(&self) -> f64 {
        self.heat_duty
    }

    /// Exchanger effectiveness ε at this operating point.
    #[must_use]
    pub const fn effectiveness(&self) -> f64 {
        self.effectiveness
    }

    /// Number of transfer units `UA / C_min`.
    #[must_use]
    pub const fn ntu(&self) -> f64 {
        self.ntu
    }

    /// Capacity-rate ratio `C_min / C_max`.
    #[must_use]
    pub const fn capacity_ratio(&self) -> f64 {
        self.capacity_ratio
    }

    /// Coolant-side capacity rate in W/K.
    #[must_use]
    pub const fn coolant_capacity_rate(&self) -> f64 {
        self.coolant_capacity_rate
    }

    /// Air-side capacity rate in W/K (`C_c` in Eq. 1).
    #[must_use]
    pub const fn air_capacity_rate(&self) -> f64 {
        self.air_capacity_rate
    }

    /// Coolant temperature at the radiator inlet.
    #[must_use]
    pub const fn coolant_inlet(&self) -> Celsius {
        self.coolant_inlet
    }

    /// Coolant temperature at the radiator outlet.
    #[must_use]
    pub const fn coolant_outlet(&self) -> Celsius {
        self.coolant_outlet
    }

    /// Air temperature entering the core.
    #[must_use]
    pub const fn air_inlet(&self) -> Celsius {
        self.air_inlet
    }

    /// Air temperature leaving the core.
    #[must_use]
    pub const fn air_outlet(&self) -> Celsius {
        self.air_outlet
    }

    /// Arithmetic mean of the air inlet and outlet temperatures, `T_c,a` in
    /// Eq. 1 of the paper.
    #[must_use]
    pub fn mean_air_temperature(&self) -> Celsius {
        Celsius::new(0.5 * (self.air_inlet.value() + self.air_outlet.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_units::Meters;

    fn radiator() -> Radiator {
        Radiator::new(RadiatorGeometry::porter_ii())
    }

    fn hot() -> CoolantState {
        CoolantState::new(Celsius::new(95.0), 0.8)
    }

    fn cool_air() -> AmbientState {
        AmbientState::new(Celsius::new(25.0), 1.2)
    }

    #[test]
    fn energy_balance_is_consistent() {
        let op = radiator().operating_point(&hot(), &cool_air()).unwrap();
        // q = C_h (T_h,i − T_h,o) = C_c (T_c,o − T_c,i)
        let q_hot =
            op.coolant_capacity_rate() * (op.coolant_inlet().value() - op.coolant_outlet().value());
        let q_cold = op.air_capacity_rate() * (op.air_outlet().value() - op.air_inlet().value());
        assert!((q_hot - op.heat_duty_watts()).abs() < 1e-6);
        assert!((q_cold - op.heat_duty_watts()).abs() < 1e-6);
    }

    #[test]
    fn outlet_temperatures_lie_between_inlets() {
        let op = radiator().operating_point(&hot(), &cool_air()).unwrap();
        assert!(op.coolant_outlet() < op.coolant_inlet());
        assert!(op.coolant_outlet() > op.air_inlet());
        assert!(op.air_outlet() > op.air_inlet());
        assert!(op.air_outlet() < op.coolant_inlet());
        assert!((0.0..=1.0).contains(&op.effectiveness()));
    }

    #[test]
    fn more_airflow_rejects_more_heat() {
        let r = radiator();
        let q_low = r
            .operating_point(&hot(), &AmbientState::new(Celsius::new(25.0), 0.6))
            .unwrap();
        let q_high = r
            .operating_point(&hot(), &AmbientState::new(Celsius::new(25.0), 2.0))
            .unwrap();
        assert!(q_high.heat_duty_watts() > q_low.heat_duty_watts());
    }

    #[test]
    fn hotter_coolant_rejects_more_heat() {
        let r = radiator();
        let q_cool = r
            .operating_point(&CoolantState::new(Celsius::new(80.0), 0.8), &cool_air())
            .unwrap();
        let q_hot = r
            .operating_point(&CoolantState::new(Celsius::new(100.0), 0.8), &cool_air())
            .unwrap();
        assert!(q_hot.heat_duty_watts() > q_cool.heat_duty_watts());
    }

    #[test]
    fn inverted_temperatures_are_rejected() {
        let err = radiator()
            .operating_point(
                &CoolantState::new(Celsius::new(20.0), 0.8),
                &AmbientState::new(Celsius::new(25.0), 1.2),
            )
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvertedTemperatures { .. }));
    }

    #[test]
    fn profile_decays_from_inlet_towards_mean_air() {
        let r = radiator();
        let profile = r.surface_profile(&hot(), &cool_air()).unwrap();
        let op = r.operating_point(&hot(), &cool_air()).unwrap();
        let entrance = profile.at_distance(Meters::ZERO).unwrap();
        assert!((entrance.value() - 95.0).abs() < 1e-9);
        let exit = profile
            .at_distance(r.geometry().flow_path_length())
            .unwrap();
        assert!(exit < entrance);
        assert!(exit > op.mean_air_temperature());
    }

    #[test]
    fn profile_exit_consistent_with_energy_balance_scale() {
        // The paper's Eq. 1 describes the *surface* temperature seen by the
        // TEG hot sides, which sits between the local coolant temperature and
        // the air stream.  Its exit value must therefore lie below the ε-NTU
        // coolant outlet temperature and above the mean air temperature.
        let r = radiator();
        let profile = r.surface_profile(&hot(), &cool_air()).unwrap();
        let op = r.operating_point(&hot(), &cool_air()).unwrap();
        let exit = profile
            .at_distance(r.geometry().flow_path_length())
            .unwrap();
        assert!(
            exit < op.coolant_outlet(),
            "exit {exit} vs outlet {}",
            op.coolant_outlet()
        );
        assert!(exit > op.mean_air_temperature());
        // And the profile must show a material gradient for a 100-module
        // array to be worth reconfiguring: at least 10 K end to end.
        let entrance = profile.at_distance(Meters::ZERO).unwrap();
        assert!(entrance.value() - exit.value() > 10.0);
    }

    #[test]
    fn builder_style_customisation() {
        let r = radiator()
            .with_coolant(CoolantProperties::water())
            .with_air(AirProperties::standard())
            .with_arrangement(ExchangerArrangement::CounterFlow);
        let op = r.operating_point(&hot(), &cool_air()).unwrap();
        assert!(op.heat_duty_watts() > 0.0);
        // Counterflow is at least as effective as crossflow for same inputs.
        let cross = radiator().with_coolant(CoolantProperties::water());
        let op_cross = cross.operating_point(&hot(), &cool_air()).unwrap();
        assert!(op.effectiveness() + 1e-12 >= op_cross.effectiveness());
    }

    #[test]
    fn typical_vehicle_heat_duty_magnitude() {
        // A 3.0 L diesel at moderate load rejects tens of kW through the
        // radiator; the model should land in a plausible range rather than
        // watts or megawatts.
        let op = radiator().operating_point(&hot(), &cool_air()).unwrap();
        let q = op.heat_duty_watts();
        assert!(q > 3_000.0 && q < 100_000.0, "implausible heat duty {q} W");
    }
}
