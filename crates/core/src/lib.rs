//! TEG array reconfiguration algorithms — the paper's primary contribution.
//!
//! Four schemes are provided behind the common [`Reconfigurer`] trait:
//!
//! * [`Inor`] — **I**nstantaneous **N**ear-**O**ptimal **R**econfiguration
//!   (Algorithm 1): an `O(N)` greedy that, for every feasible group count
//!   `n ∈ [n_min, n_max]`, balances the sum of module MPP currents across the
//!   `n` groups and keeps the configuration with the highest array MPP power.
//! * [`Dnor`] — **D**urable **N**ear-**O**ptimal **R**econfiguration
//!   (Algorithm 2): runs INOR every `t_p + 1` seconds, predicts the module
//!   temperatures for the next `t_p` seconds with a per-module MLR, and only
//!   adopts the new configuration when its predicted energy advantage exceeds
//!   the switching-overhead energy.
//! * [`Ehtr`] — a re-implementation of the prior-work **E**fficient
//!   **H**euristic **T**EG **R**econfiguration (Baek et al., ISLPED'17): a
//!   dynamic program over group boundaries that is near-optimal but has
//!   polynomial (≫ linear) complexity and reconfigures every period.
//! * [`StaticBaseline`] — the fixed 10 × 10 wiring the paper compares
//!   against; it never reconfigures.
//!
//! [`certified_optimum`] is the yardstick for the first three: the exact best
//! contiguous wiring in a group-count window, with a certified upper bound
//! on every wiring there, so "near-optimal" is a measured distance rather
//! than a name.
//!
//! The trait produces a [`ReconfigDecision`] per invocation; the simulation
//! engine (crate `teg-sim`) charges switching overhead, meters harvested
//! energy and produces the rows of Table I and the traces of Figs. 6–7.
//!
//! # Examples
//!
//! ```
//! use teg_device::{TegDatasheet, TegModule};
//! use teg_array::{Configuration, TegArray};
//! use teg_reconfig::{Inor, Reconfigurer, TelemetryWindow};
//! use teg_units::Celsius;
//!
//! # fn main() -> Result<(), teg_reconfig::ReconfigError> {
//! let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
//! let array = TegArray::uniform(module, 20);
//! // A falling temperature profile along the radiator.
//! let temps: Vec<f64> = (0..20).map(|i| 95.0 - 1.5 * i as f64).collect();
//! let history = vec![temps];
//! let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
//! let mut inor = Inor::default();
//! let current = Configuration::uniform(20, 4).expect("valid");
//! let decision = inor.decide(&inputs, &current)?;
//! assert!(decision.configuration().expect("INOR proposes").group_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style validation is used deliberately throughout: unlike
// `x <= 0.0` it also rejects NaN parameters.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod baseline;
mod dnor;
mod ehtr;
mod error;
mod factory;
mod inor;
mod memo;
mod optimum;
mod runtime;
mod sensor;
mod telemetry;
mod traits;

pub use baseline::StaticBaseline;
pub use dnor::{Dnor, DnorConfig};
pub use ehtr::Ehtr;
pub use error::ReconfigError;
pub use factory::SchemeSpec;
pub use inor::{Inor, InorConfig};
pub use optimum::{certified_optimum, CertifiedOptimum, CERTIFIED_GAP};
pub use runtime::RuntimeStats;
pub use sensor::{SensorFault, SensorFaultInjector};
pub use telemetry::{TelemetryBuffer, TelemetryWindow};
pub use traits::{ReconfigDecision, Reconfigurer};
