//! Physical-quantity newtypes shared by the TEG harvesting suite.
//!
//! Every crate in the workspace exchanges physical values (temperatures,
//! voltages, currents, energies, distances, durations).  Bare `f64`s make it
//! far too easy to add a Celsius reading to a kelvin difference or to feed a
//! power where an energy is expected, so this crate provides thin, zero-cost
//! wrappers with:
//!
//! * explicit constructors and accessors (`Celsius::new`, [`Celsius::value`]),
//! * only the arithmetic that is physically meaningful (e.g. subtracting two
//!   [`Celsius`] yields a [`TemperatureDelta`], multiplying [`Volts`] by
//!   [`Amps`] yields [`Watts`], integrating [`Watts`] over [`Seconds`] yields
//!   [`Joules`]),
//! * conversions between related representations (Celsius ↔ Kelvin),
//! * `Display` implementations with units for report output.
//!
//! # Examples
//!
//! ```
//! use teg_units::{Celsius, Volts, Amps, Seconds};
//!
//! let hot = Celsius::new(96.0);
//! let ambient = Celsius::new(25.0);
//! let delta = hot - ambient;
//! assert!((delta.kelvin() - 71.0).abs() < 1e-12);
//!
//! let power = Volts::new(12.0) * Amps::new(2.5);
//! let energy = power * Seconds::new(10.0);
//! assert!((energy.value() - 300.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod electrical;
mod energy;
mod geometry;
mod temperature;
mod time;

pub use electrical::{Amps, Ohms, Siemens, Volts, Watts};
pub use energy::Joules;
pub use geometry::{Meters, SquareMeters};
pub use temperature::{Celsius, Kelvin, TemperatureDelta};
pub use time::{Hertz, Milliseconds, Seconds};

/// Helper used across the workspace for approximate floating point
/// comparisons in tests and validation code.
///
/// Returns `true` when `a` and `b` are within `tol` of each other, where the
/// comparison is absolute for small magnitudes and relative for large ones.
///
/// # Examples
///
/// ```
/// assert!(teg_units::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!teg_units::approx_eq(1.0, 1.1, 1e-3));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_for_small_values() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e9, 1e9 + 10.0, 1e-6));
        assert!(!approx_eq(1e9, 1.1e9, 1e-6));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Celsius>();
        assert_send_sync::<Kelvin>();
        assert_send_sync::<TemperatureDelta>();
        assert_send_sync::<Volts>();
        assert_send_sync::<Amps>();
        assert_send_sync::<Ohms>();
        assert_send_sync::<Watts>();
        assert_send_sync::<Joules>();
        assert_send_sync::<Seconds>();
    }
}
