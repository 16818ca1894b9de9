//! Power-electronics substrate: the charger (DC-DC converter) model.
//!
//! The paper's harvesting chain is `TEG array → charger → lead-acid battery`.
//! The charger (an LTM4607-class buck-boost converter) tracks the array's
//! maximum power point and converts the array voltage to the battery's
//! 13.8 V charging voltage.  Its conversion efficiency peaks when the input
//! voltage is close to the output voltage and falls off as the ratio
//! deviates — this is why the reconfiguration algorithms restrict the
//! number of series groups `n` to a window `[n_min, n_max]` that keeps the
//! array MPP voltage near 13.8 V (Section III-B / V-A of the paper).
//!
//! MPP tracking is not simulated as a loop: the harvested power is the
//! array's closed-form MPP (`teg_array::ArraySolver::mpp`), and each
//! reconfiguration pays a constant tracker re-convergence dead time
//! (`teg_array::SwitchingOverheadModel::mppt_settling`).  The battery is
//! only the charger's fixed output voltage: the simulation meters delivered
//! power as [`Charger::output_power`] of the net array power.
//!
//! Provided types:
//!
//! * [`Charger`] — conversion-efficiency model and the voltage window it
//!   implies,
//! * [`PowerError`] — the error its constructor raises.
//!
//! # Examples
//!
//! ```
//! use teg_power::Charger;
//! use teg_units::Volts;
//!
//! let charger = Charger::ltm4607_lead_acid();
//! // Efficiency peaks near the battery voltage…
//! let near = charger.efficiency(Volts::new(13.8));
//! // …and degrades for a badly matched array voltage.
//! let far = charger.efficiency(Volts::new(3.0));
//! assert!(near > far);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is used deliberately throughout: unlike
// `x <= 0.0` it also rejects NaN parameters.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod converter;
mod error;

pub use converter::Charger;
pub use error::PowerError;
