//! Reconfigurable TEG array substrate: switch fabric, configurations,
//! electrical solving and switching-overhead accounting.
//!
//! The paper's architecture (its Fig. 4) places three switches between every
//! pair of adjacent TEG modules — one series switch `S_S,i` and two parallel
//! switches `S_PT,i`/`S_PB,i` — so that the chain of `N` modules can be wired
//! as `n` series-connected groups, each group being a parallel bank of
//! consecutive modules.  A [`Configuration`] names such a partition by the
//! index of each group's first module, exactly like the `C(g_1, …, g_n)`
//! notation of Algorithm 1.
//!
//! [`TegArray`] owns the modules and [`ArraySolver`] solves the electrical
//! network for a configuration and a string current: within a parallel
//! group all modules share one voltage and their currents add, while all
//! groups carry the same string current.  Because every module is a linear
//! Thévenin source, each group reduces to a Norton/Thévenin equivalent and
//! the whole array's power is a concave parabola in the string current, so
//! the array MPP has a closed form that the charger's MPPT then tracks.
//! The solver loads one ΔT vector's module terms (+ faults) once and solves
//! any number of wirings or currents against them with reusable scratch and
//! zero per-call allocation (see the [`solver`-module docs](ArraySolver)).
//!
//! [`SwitchingOverheadModel`] reproduces the paper's Section III-C accounting:
//! every reconfiguration costs a dead time (sensing + computation +
//! reconfiguration + MPPT settling) during which output power is lost, plus a
//! per-toggle switch actuation energy.
//!
//! # Examples
//!
//! ```
//! use teg_array::{ArraySolver, Configuration, TegArray};
//! use teg_device::{TegDatasheet, TegModule};
//! use teg_units::TemperatureDelta;
//!
//! # fn main() -> Result<(), teg_array::ArrayError> {
//! let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
//! let array = TegArray::uniform(module, 10);
//! let deltas: Vec<_> = (0..10).map(|i| TemperatureDelta::new(40.0 + 3.0 * i as f64)).collect();
//! let config = Configuration::uniform(10, 5)?;
//! let mut solver = ArraySolver::new();
//! solver.load(&array, &deltas, None)?;
//! let op = solver.mpp(&config)?;
//! assert!(op.power().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod configuration;
mod electrical;
mod error;
mod fault;
mod ideal;
mod overhead;
#[cfg(test)]
mod reference;
mod solver;
mod switches;

pub use configuration::{Configuration, Group};
pub use electrical::TegArray;
pub use error::ArrayError;
pub use fault::{FaultState, ModuleFault, SwitchStuck};
pub use ideal::ideal_power;
pub use overhead::{OverheadBreakdown, SwitchingOverheadModel};
pub use solver::{mpp_power_from_group_sums, ArraySolver, SolvedPoint};
pub use switches::{PairLink, SwitchBank};
