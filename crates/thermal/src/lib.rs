//! Radiator thermal substrate for the TEG reconfiguration suite.
//!
//! The paper harvests energy from a vehicle radiator: hot engine coolant flows
//! through a finned-tube cross-flow heat exchanger while ambient air is pulled
//! across the fins.  The coolant temperature decays exponentially along the
//! tube (effectiveness-NTU derivation, Eq. 1 of the paper):
//!
//! ```text
//! T(d) = (T_h,i − T_c,a) · exp(−K·d / C_c) + T_c,a
//! ```
//!
//! where `T_h,i` is the coolant inlet temperature, `T_c,a` the arithmetic mean
//! of the air inlet and outlet temperatures, `K` the overall heat-transfer
//! coefficient per unit length, and `C_c` the cold-fluid capacity rate.
//!
//! This crate provides every thermal piece the rest of the suite needs:
//!
//! * [`CoolantProperties`]/[`AirProperties`] — fluid property models and
//!   capacity rates,
//! * [`RadiatorGeometry`] — finned-tube radiator core geometry,
//! * [`effectiveness`] — effectiveness-NTU relations for common exchanger
//!   arrangements,
//! * [`Radiator`] — the assembled radiator model producing decay constants,
//!   outlet temperatures and heat duty,
//! * [`SurfaceProfile`] — the 1-D surface-temperature profile sampled at
//!   module positions,
//! * [`SShapedPlacement`] — S-shaped placement of N TEG modules along the fin
//!   path,
//! * [`TimeSeries`] — generic time-series containers,
//! * [`DriveCycle`] — a synthetic, seeded drive-cycle generator substituting
//!   for the paper's measured 800-second Hyundai Porter II trace.
//!
//! # Examples
//!
//! ```
//! use teg_thermal::{Radiator, RadiatorGeometry, CoolantState, AmbientState};
//! use teg_units::Celsius;
//!
//! # fn main() -> Result<(), teg_thermal::ThermalError> {
//! let radiator = Radiator::new(RadiatorGeometry::porter_ii());
//! let coolant = CoolantState::new(Celsius::new(95.0), 0.8);
//! let ambient = AmbientState::new(Celsius::new(25.0), 1.2);
//! let profile = radiator.surface_profile(&coolant, &ambient)?;
//! // Temperature decays along the radiator.
//! assert!(profile.at_fraction(0.9)? < profile.at_fraction(0.1)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
mod drive_cycle;
mod error;
mod fluid;
mod geometry;
mod ntu;
mod placement;
mod radiator;
mod trace;

pub use distribution::SurfaceProfile;
pub use drive_cycle::{DriveCycle, DriveCycleBuilder, DrivePhase, DriveSample};
pub use error::ThermalError;
pub use fluid::{AirProperties, AmbientState, CoolantProperties, CoolantState};
pub use geometry::{RadiatorGeometry, RadiatorGeometryBuilder};
pub use ntu::{effectiveness, ExchangerArrangement};
pub use placement::SShapedPlacement;
pub use radiator::{Radiator, RadiatorOperatingPoint};
pub use trace::{TimeSeries, TracePoint};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// The parallel scenario sweep in `teg-sim` shares drive cycles,
    /// radiators and placements across worker threads by reference; every
    /// thermal type must therefore be `Send + Sync`.  This is a
    /// compile-time audit: it fails to build if a future change introduces
    /// interior mutability that is not thread-safe.
    #[test]
    fn thermal_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DriveCycle>();
        assert_send_sync::<DriveSample>();
        assert_send_sync::<Radiator>();
        assert_send_sync::<RadiatorGeometry>();
        assert_send_sync::<SShapedPlacement>();
        assert_send_sync::<SurfaceProfile>();
        assert_send_sync::<TimeSeries>();
        assert_send_sync::<CoolantState>();
        assert_send_sync::<AmbientState>();
    }
}
