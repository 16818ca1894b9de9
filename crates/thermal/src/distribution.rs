//! The 1-D surface-temperature profile along the radiator (Eq. 1 of the
//! paper) and helpers to sample it at TEG module positions.

use teg_units::{Celsius, Meters, TemperatureDelta};

use crate::error::ThermalError;
use crate::placement::SShapedPlacement;

/// The exponential surface-temperature profile
/// `T(d) = (T_h,i − T_c,a)·exp(−k·d) + T_c,a` along the radiator flow path.
///
/// `k = K / C_c` is the decay constant per metre.  A profile is produced by
/// [`Radiator::surface_profile`](crate::Radiator::surface_profile) for each
/// simulation step and then sampled at the module positions of an
/// [`SShapedPlacement`].
///
/// # Examples
///
/// ```
/// use teg_thermal::SurfaceProfile;
/// use teg_units::{Celsius, Meters};
///
/// # fn main() -> Result<(), teg_thermal::ThermalError> {
/// let profile = SurfaceProfile::new(
///     Celsius::new(95.0),
///     Celsius::new(30.0),
///     0.4,
///     Meters::new(3.2),
/// )?;
/// let entrance = profile.at_distance(Meters::new(0.0))?;
/// let exit = profile.at_distance(Meters::new(3.2))?;
/// assert!(entrance > exit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceProfile {
    hot_inlet: Celsius,
    cold_mean: Celsius,
    decay_per_meter: f64,
    path_length: Meters,
}

impl SurfaceProfile {
    /// Creates a profile from the coolant inlet temperature, the mean air
    /// temperature, the decay constant (1/m) and the flow-path length.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvertedTemperatures`] if the inlet is not
    /// hotter than the mean air temperature, [`ThermalError::InvalidGeometry`]
    /// if the path length is not positive, and
    /// [`ThermalError::NonFiniteInput`] for NaN/infinite inputs or a negative
    /// decay constant.
    pub fn new(
        hot_inlet: Celsius,
        cold_mean: Celsius,
        decay_per_meter: f64,
        path_length: Meters,
    ) -> Result<Self, ThermalError> {
        if !hot_inlet.is_finite()
            || !cold_mean.is_finite()
            || !decay_per_meter.is_finite()
            || !path_length.is_finite()
        {
            return Err(ThermalError::NonFiniteInput {
                what: "surface profile",
            });
        }
        if decay_per_meter < 0.0 {
            return Err(ThermalError::NonFiniteInput {
                what: "decay constant",
            });
        }
        if hot_inlet.value() <= cold_mean.value() {
            return Err(ThermalError::InvertedTemperatures {
                coolant_c: hot_inlet.value(),
                ambient_c: cold_mean.value(),
            });
        }
        if path_length.value() <= 0.0 {
            return Err(ThermalError::InvalidGeometry {
                reason: "flow path length must be positive".to_owned(),
            });
        }
        Ok(Self {
            hot_inlet,
            cold_mean,
            decay_per_meter,
            path_length,
        })
    }

    /// Coolant inlet temperature `T_h,i`.
    #[must_use]
    pub const fn hot_inlet(&self) -> Celsius {
        self.hot_inlet
    }

    /// Mean air temperature `T_c,a` towards which the profile decays.
    #[must_use]
    pub const fn cold_mean(&self) -> Celsius {
        self.cold_mean
    }

    /// Decay constant `K / C_c` in 1/m.
    #[must_use]
    pub const fn decay_per_meter(&self) -> f64 {
        self.decay_per_meter
    }

    /// Total flow-path length covered by the profile.
    #[must_use]
    pub const fn path_length(&self) -> Meters {
        self.path_length
    }

    /// Surface temperature at a distance `d` from the radiator entrance.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PositionOutOfRange`] if `d` is negative or
    /// beyond the flow-path length.
    pub fn at_distance(&self, distance: Meters) -> Result<Celsius, ThermalError> {
        let frac = distance.value() / self.path_length.value();
        if !(0.0..=1.0 + 1e-12).contains(&frac) {
            return Err(ThermalError::PositionOutOfRange { fraction: frac });
        }
        Ok(self.evaluate(distance.value()))
    }

    /// Surface temperature at a fractional position along the path
    /// (`0.0` = entrance, `1.0` = exit).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PositionOutOfRange`] if the fraction is outside
    /// `[0, 1]`.
    pub fn at_fraction(&self, fraction: f64) -> Result<Celsius, ThermalError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(ThermalError::PositionOutOfRange { fraction });
        }
        Ok(self.evaluate(fraction * self.path_length.value()))
    }

    fn evaluate(&self, distance_m: f64) -> Celsius {
        let excess = self.hot_inlet.value() - self.cold_mean.value();
        Celsius::new(self.cold_mean.value() + excess * (-self.decay_per_meter * distance_m).exp())
    }

    /// Samples the profile at every module position of a placement, returning
    /// the hot-side temperature of each module (entrance-first order).
    ///
    /// This is a thin wrapper over [`SurfaceProfile::sample_into`] — one
    /// sampling loop exists, so the two can never drift apart.
    #[must_use]
    pub fn sample(&self, placement: &SShapedPlacement) -> Vec<Celsius> {
        let mut sampled = Vec::with_capacity(placement.module_count());
        self.sample_into(placement, &mut sampled);
        sampled.into_iter().map(Celsius::new).collect()
    }

    /// Appends the sampled hot-side temperatures (°C, entrance-first) to an
    /// existing buffer instead of allocating a fresh vector — the allocation-
    /// free path the per-sample thermal solve loop writes its strided trace
    /// rows through.  Performs exactly the same evaluations in the same order
    /// as [`SurfaceProfile::sample`], so the two are bit-identical.
    pub fn sample_into(&self, placement: &SShapedPlacement, out: &mut Vec<f64>) {
        out.extend(
            placement
                .positions(self.path_length)
                .map(|d| self.evaluate(d.value()).value()),
        );
    }

    /// [`SurfaceProfile::sample_into`] writing into an exact-length slice
    /// instead of appending — the chunk-safe form a parallel trace solver
    /// uses to fill disjoint strided ranges of one preallocated buffer.
    /// Performs exactly the same evaluations in the same order as
    /// [`SurfaceProfile::sample_into`], so the written values are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != placement.module_count()`.
    pub fn sample_into_slice(&self, placement: &SShapedPlacement, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            placement.module_count(),
            "slice length must equal the placement's module count"
        );
        for (slot, d) in out.iter_mut().zip(placement.positions(self.path_length)) {
            *slot = self.evaluate(d.value()).value();
        }
    }

    /// Samples the profile at every module position and subtracts the
    /// heatsink/ambient temperature, returning each module's ΔT clamped at
    /// zero.
    ///
    /// The paper assumes the heatsink sits at the ambient temperature, so this
    /// is the ΔT that drives the electrical model (Eq. 2).
    #[must_use]
    pub fn sample_deltas(
        &self,
        placement: &SShapedPlacement,
        heatsink: Celsius,
    ) -> Vec<TemperatureDelta> {
        self.sample(placement)
            .into_iter()
            .map(|t| (t - heatsink).clamp_non_negative())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> SurfaceProfile {
        SurfaceProfile::new(
            Celsius::new(95.0),
            Celsius::new(30.0),
            0.4,
            Meters::new(3.2),
        )
        .unwrap()
    }

    #[test]
    fn entrance_matches_inlet_temperature() {
        let p = profile();
        assert!((p.at_distance(Meters::ZERO).unwrap().value() - 95.0).abs() < 1e-12);
        assert!((p.at_fraction(0.0).unwrap().value() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn profile_is_monotonically_decreasing() {
        let p = profile();
        let mut last = f64::INFINITY;
        for i in 0..=32 {
            let frac = f64::from(i) / 32.0;
            let t = p.at_fraction(frac).unwrap().value();
            assert!(t < last, "profile must strictly decrease");
            assert!(
                t > p.cold_mean().value(),
                "profile stays above the air mean"
            );
            last = t;
        }
    }

    #[test]
    fn closed_form_matches_equation_one() {
        let p = profile();
        for d in [0.0_f64, 0.5, 1.0, 2.0, 3.2] {
            let expected = 30.0 + (95.0 - 30.0) * (-0.4 * d).exp();
            let got = p.at_distance(Meters::new(d)).unwrap().value();
            assert!((got - expected).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn out_of_range_positions_are_rejected() {
        let p = profile();
        assert!(p.at_distance(Meters::new(-0.1)).is_err());
        assert!(p.at_distance(Meters::new(3.3)).is_err());
        assert!(p.at_fraction(-0.01).is_err());
        assert!(p.at_fraction(1.01).is_err());
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(SurfaceProfile::new(
            Celsius::new(20.0),
            Celsius::new(30.0),
            0.4,
            Meters::new(3.2)
        )
        .is_err());
        assert!(SurfaceProfile::new(
            Celsius::new(95.0),
            Celsius::new(30.0),
            -0.4,
            Meters::new(3.2)
        )
        .is_err());
        assert!(SurfaceProfile::new(
            Celsius::new(95.0),
            Celsius::new(30.0),
            0.4,
            Meters::new(0.0)
        )
        .is_err());
        assert!(SurfaceProfile::new(
            Celsius::new(f64::NAN),
            Celsius::new(30.0),
            0.4,
            Meters::new(3.2)
        )
        .is_err());
    }

    #[test]
    fn sampling_returns_one_temperature_per_module() {
        let p = profile();
        let placement = SShapedPlacement::new(100).unwrap();
        let temps = p.sample(&placement);
        assert_eq!(temps.len(), 100);
        // Entrance-side modules are hotter than exit-side ones.
        assert!(temps[0] > temps[99]);
        // All samples lie inside the profile's bounds.
        for t in &temps {
            assert!(t.value() <= 95.0 && t.value() >= 30.0);
        }
    }

    #[test]
    fn sample_into_is_bit_identical_to_sample() {
        let p = profile();
        let placement = SShapedPlacement::new(33).unwrap();
        let allocated = p.sample(&placement);
        let mut appended = vec![-1.0_f64]; // existing content must survive
        p.sample_into(&placement, &mut appended);
        assert_eq!(appended.len(), 34);
        assert_eq!(appended[0], -1.0);
        for (a, b) in allocated.iter().zip(&appended[1..]) {
            assert_eq!(a.value().to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sample_deltas_clamps_below_heatsink() {
        let p = profile();
        let placement = SShapedPlacement::new(10).unwrap();
        // Heatsink hotter than the coldest part of the profile: clamp to zero
        // rather than producing negative ΔT.
        let deltas = p.sample_deltas(&placement, Celsius::new(94.0));
        assert!(deltas.iter().all(|d| d.kelvin() >= 0.0));
        // A realistic heatsink at ambient gives strictly positive ΔT.
        let deltas = p.sample_deltas(&placement, Celsius::new(25.0));
        assert!(deltas.iter().all(|d| d.kelvin() > 0.0));
        // Ordered the same way as the temperatures.
        assert!(deltas[0] > deltas[9]);
    }

    #[test]
    fn zero_decay_gives_flat_profile() {
        let p = SurfaceProfile::new(
            Celsius::new(90.0),
            Celsius::new(30.0),
            0.0,
            Meters::new(3.0),
        )
        .unwrap();
        let a = p.at_fraction(0.0).unwrap();
        let b = p.at_fraction(1.0).unwrap();
        assert!((a.value() - b.value()).abs() < 1e-12);
    }
}
