//! Electrical fault state of a degraded TEG array.
//!
//! Real automotive arrays do not stay healthy: modules crack (open-circuit),
//! solder bridges or insulation failures short a parallel bank, aging derates
//! output, and the reconfiguration switch fabric itself sticks.  The paper's
//! schemes exist precisely to harvest well under such mismatch, so the
//! electrical solver must be able to answer "what does this configuration
//! deliver *with these faults present*".
//!
//! [`FaultState`] captures the active faults of one array instant:
//!
//! * per-module faults ([`ModuleFault`]): open-circuit (the module drops out
//!   of its parallel group), short-circuit (the module shorts its whole
//!   group to zero volts), or output derating (the Seebeck EMF is scaled
//!   down, as an aged or delaminated module behaves);
//! * per-link switch faults ([`SwitchStuck`]): the parallel switch pair
//!   between adjacent modules stuck open (the modules can no longer be
//!   paralleled — a commanded group splits there) or stuck closed (the
//!   modules are welded into one group — a commanded boundary disappears).
//!
//! Switch faults act on the *commanded* configuration through
//! [`FaultState::effective_configuration`]; module faults act on the group
//! sums inside the solver (pass the state to [`ArraySolver::load`]).
//! The state is plain data — `Clone + PartialEq`, no interior mutability —
//! so simulation sessions can evolve it deterministically from a timed
//! fault plan.
//!
//! [`ArraySolver::load`]: crate::ArraySolver::load
//!
//! # Examples
//!
//! ```
//! use teg_array::{ArraySolver, Configuration, FaultState, ModuleFault, SwitchStuck, TegArray};
//! use teg_device::{TegDatasheet, TegModule};
//! use teg_units::TemperatureDelta;
//!
//! # fn main() -> Result<(), teg_array::ArrayError> {
//! let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
//! let array = TegArray::uniform(module, 8);
//! let deltas = vec![TemperatureDelta::new(60.0); 8];
//! let config = Configuration::uniform(8, 4)?;
//!
//! let mut faults = FaultState::healthy(8);
//! faults.set_module_fault(3, ModuleFault::OpenCircuit)?;
//! faults.set_switch_fault(1, SwitchStuck::Closed)?;
//!
//! let effective = faults.effective_configuration(&config)?;
//! assert_eq!(effective.group_count(), 3); // the boundary at module 2 is welded shut
//! let mut solver = ArraySolver::new();
//! solver.load(&array, &deltas, None)?;
//! let healthy = solver.mpp(&config)?.power();
//! solver.load(&array, &deltas, Some(&faults))?;
//! let degraded = solver.mpp(&effective)?.power();
//! assert!(degraded < healthy);
//! # Ok(())
//! # }
//! ```

#[cfg(test)]
use std::collections::BTreeSet;
use std::fmt;

use crate::configuration::Configuration;
use crate::error::ArrayError;

/// An electrical fault of one TEG module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModuleFault {
    /// The module is disconnected: it contributes neither EMF nor
    /// conductance to its parallel group.  A group whose every module is
    /// open breaks the series string — the whole array delivers no power.
    OpenCircuit,
    /// The module is a short across its parallel group: the group is pinned
    /// to zero volts (and zero power) but still passes the string current.
    ShortCircuit,
    /// The module's Seebeck EMF is scaled by the given factor in `(0, 1)` —
    /// the aging/delamination model.
    Derated(f64),
}

impl ModuleFault {
    /// Compact tag used by fault-plan serialisations.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::OpenCircuit => "open",
            Self::ShortCircuit => "short",
            Self::Derated(_) => "derate",
        }
    }
}

impl fmt::Display for ModuleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OpenCircuit => write!(f, "open-circuit"),
            Self::ShortCircuit => write!(f, "short-circuit"),
            Self::Derated(factor) => write!(f, "derated({factor:.2})"),
        }
    }
}

/// A stuck fault of the parallel switch pair between two adjacent modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchStuck {
    /// The parallel switches cannot close: the two modules can never share a
    /// group, so any commanded group spanning the link splits there.
    Open,
    /// The parallel switches cannot open: the two modules are welded into
    /// one group, so any commanded boundary at the link disappears.
    Closed,
}

impl fmt::Display for SwitchStuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Open => write!(f, "stuck-open"),
            Self::Closed => write!(f, "stuck-closed"),
        }
    }
}

/// The complete electrical fault state of an `N`-module array: one optional
/// [`ModuleFault`] per module and one optional [`SwitchStuck`] per adjacent
/// link (`N − 1` links).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    modules: Vec<Option<ModuleFault>>,
    links: Vec<Option<SwitchStuck>>,
}

impl FaultState {
    /// A fault-free state for an array of `module_count` modules.
    ///
    /// # Panics
    ///
    /// Panics if `module_count` is zero.
    #[must_use]
    pub fn healthy(module_count: usize) -> Self {
        assert!(module_count > 0, "fault state needs at least one module");
        Self {
            modules: vec![None; module_count],
            links: vec![None; module_count - 1],
        }
    }

    /// Number of modules the state covers.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Number of adjacent links (`module_count − 1`).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` while no module or switch fault is active.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.modules.iter().all(Option::is_none) && self.links.iter().all(Option::is_none)
    }

    /// Number of active faults (modules plus links).
    #[must_use]
    pub fn active_fault_count(&self) -> usize {
        self.modules.iter().filter(|f| f.is_some()).count()
            + self.links.iter().filter(|f| f.is_some()).count()
    }

    /// The active fault of one module, if any.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    #[must_use]
    pub fn module_fault(&self, module: usize) -> Option<ModuleFault> {
        self.modules[module]
    }

    /// The active stuck fault of one link, if any.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn switch_fault(&self, link: usize) -> Option<SwitchStuck> {
        self.links[link]
    }

    /// Activates (or replaces) a module fault.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the module index is
    /// out of range or a derating factor is outside `(0, 1)` / non-finite.
    pub fn set_module_fault(
        &mut self,
        module: usize,
        fault: ModuleFault,
    ) -> Result<(), ArrayError> {
        if module >= self.modules.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "fault targets module {module} but the array has {} modules",
                    self.modules.len()
                ),
            });
        }
        if let ModuleFault::Derated(factor) = fault {
            if !(factor > 0.0 && factor < 1.0) {
                return Err(ArrayError::InvalidConfiguration {
                    reason: format!("derating factor {factor} must lie strictly inside (0, 1)"),
                });
            }
        }
        self.modules[module] = Some(fault);
        Ok(())
    }

    /// Clears the fault of one module (a repair event).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the index is out of
    /// range.
    pub fn clear_module_fault(&mut self, module: usize) -> Result<(), ArrayError> {
        if module >= self.modules.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "repair targets module {module} but the array has {} modules",
                    self.modules.len()
                ),
            });
        }
        self.modules[module] = None;
        Ok(())
    }

    /// Activates (or replaces) a stuck fault on the link between modules
    /// `link` and `link + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the link index is
    /// out of range.
    pub fn set_switch_fault(&mut self, link: usize, stuck: SwitchStuck) -> Result<(), ArrayError> {
        if link >= self.links.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "fault targets link {link} but the array has {} links",
                    self.links.len()
                ),
            });
        }
        self.links[link] = Some(stuck);
        Ok(())
    }

    /// Clears the stuck fault of one link (a repair event).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the index is out of
    /// range.
    pub fn clear_switch_fault(&mut self, link: usize) -> Result<(), ArrayError> {
        if link >= self.links.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "repair targets link {link} but the array has {} links",
                    self.links.len()
                ),
            });
        }
        self.links[link] = None;
        Ok(())
    }

    /// The configuration actually realised by the switch fabric when
    /// `commanded` is applied with this state's stuck switches.
    ///
    /// Stuck-closed links weld their boundary shut (the commanded boundary
    /// at `link + 1` disappears); stuck-open links force a boundary at
    /// `link + 1` (the commanded group splits).  Module faults do not change
    /// the wiring, only the solve.  The result is always a valid
    /// configuration of the same module count.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the commanded
    /// configuration covers a different module count than this state.
    pub fn effective_configuration(
        &self,
        commanded: &Configuration,
    ) -> Result<Configuration, ArrayError> {
        if commanded.module_count() != self.modules.len() {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "commanded configuration covers {} modules but the fault state covers {}",
                    commanded.module_count(),
                    self.modules.len()
                ),
            });
        }
        if self.links.iter().all(Option::is_none) {
            return Ok(commanded.clone());
        }
        // Merge walk over the commanded boundaries after module 0 and the
        // boundaries `link + 1` of the stuck links, both ascending: a stuck
        // link decides its boundary, every other commanded one survives.
        let mut commanded_starts = commanded.group_starts()[1..].iter().copied().peekable();
        let mut stuck_links = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(link, stuck)| stuck.map(|stuck| (link + 1, stuck)))
            .peekable();
        let mut starts = Vec::with_capacity(commanded.group_count() + 1);
        starts.push(0);
        loop {
            let next_start = commanded_starts.peek().copied();
            match stuck_links.peek().copied() {
                Some((boundary, stuck)) if next_start.is_none_or(|start| boundary <= start) => {
                    if next_start == Some(boundary) {
                        commanded_starts.next();
                    }
                    if stuck == SwitchStuck::Open {
                        starts.push(boundary);
                    }
                    stuck_links.next();
                }
                _ => match commanded_starts.next() {
                    Some(start) => starts.push(start),
                    None => break,
                },
            }
        }
        Configuration::new(starts, commanded.module_count())
    }

    /// The set-based realisation [`FaultState::effective_configuration`]
    /// replaced, kept as its test oracle.
    #[cfg(test)]
    fn effective_configuration_by_set(
        &self,
        commanded: &Configuration,
    ) -> Result<Configuration, ArrayError> {
        let mut boundaries: BTreeSet<usize> = commanded.group_starts().iter().copied().collect();
        for (link, stuck) in self.links.iter().enumerate() {
            match stuck {
                Some(SwitchStuck::Closed) => {
                    boundaries.remove(&(link + 1));
                }
                Some(SwitchStuck::Open) => {
                    boundaries.insert(link + 1);
                }
                None => {}
            }
        }
        boundaries.insert(0);
        Configuration::new(boundaries.into_iter().collect(), commanded.module_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn healthy_state_has_no_faults() {
        let state = FaultState::healthy(5);
        assert!(state.is_healthy());
        assert_eq!(state.module_count(), 5);
        assert_eq!(state.link_count(), 4);
        assert_eq!(state.active_fault_count(), 0);
        assert_eq!(state.module_fault(0), None);
        assert_eq!(state.switch_fault(0), None);
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn zero_module_state_is_rejected() {
        let _ = FaultState::healthy(0);
    }

    #[test]
    fn setting_and_clearing_faults_round_trips() {
        let mut state = FaultState::healthy(6);
        state.set_module_fault(2, ModuleFault::OpenCircuit).unwrap();
        state
            .set_module_fault(4, ModuleFault::Derated(0.5))
            .unwrap();
        state.set_switch_fault(1, SwitchStuck::Open).unwrap();
        assert!(!state.is_healthy());
        assert_eq!(state.active_fault_count(), 3);
        assert_eq!(state.module_fault(2), Some(ModuleFault::OpenCircuit));
        assert_eq!(state.switch_fault(1), Some(SwitchStuck::Open));
        state.clear_module_fault(2).unwrap();
        state.clear_module_fault(4).unwrap();
        state.clear_switch_fault(1).unwrap();
        assert!(state.is_healthy());
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut state = FaultState::healthy(4);
        assert!(state.set_module_fault(4, ModuleFault::OpenCircuit).is_err());
        assert!(state.clear_module_fault(4).is_err());
        assert!(state.set_switch_fault(3, SwitchStuck::Open).is_err());
        assert!(state.clear_switch_fault(3).is_err());
    }

    #[test]
    fn invalid_derating_factors_are_rejected() {
        let mut state = FaultState::healthy(4);
        for factor in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                state
                    .set_module_fault(0, ModuleFault::Derated(factor))
                    .is_err(),
                "factor {factor} must be rejected"
            );
        }
        assert!(state.set_module_fault(0, ModuleFault::Derated(0.5)).is_ok());
    }

    #[test]
    fn stuck_closed_welds_a_boundary_shut() {
        let mut state = FaultState::healthy(8);
        state.set_switch_fault(3, SwitchStuck::Closed).unwrap(); // boundary at 4
        let commanded = Configuration::uniform(8, 4).unwrap(); // starts 0,2,4,6
        let effective = state.effective_configuration(&commanded).unwrap();
        assert_eq!(effective.group_starts(), &[0, 2, 6]);
    }

    #[test]
    fn stuck_open_splits_a_group() {
        let mut state = FaultState::healthy(8);
        state.set_switch_fault(2, SwitchStuck::Open).unwrap(); // boundary at 3
        let commanded = Configuration::uniform(8, 2).unwrap(); // starts 0,4
        let effective = state.effective_configuration(&commanded).unwrap();
        assert_eq!(effective.group_starts(), &[0, 3, 4]);
    }

    #[test]
    fn stuck_faults_compose_and_first_boundary_survives() {
        let mut state = FaultState::healthy(6);
        // Welding link 0 shut removes boundary 1; forcing link 3 open adds
        // boundary 4; boundary 0 is always retained.
        state.set_switch_fault(0, SwitchStuck::Closed).unwrap();
        state.set_switch_fault(3, SwitchStuck::Open).unwrap();
        let commanded = Configuration::all_series(6).unwrap();
        let effective = state.effective_configuration(&commanded).unwrap();
        assert_eq!(effective.group_starts(), &[0, 2, 3, 4, 5]);
        assert_eq!(effective.module_count(), 6);
    }

    #[test]
    fn healthy_switch_fabric_returns_the_commanded_configuration() {
        let mut state = FaultState::healthy(6);
        state
            .set_module_fault(1, ModuleFault::ShortCircuit)
            .unwrap();
        let commanded = Configuration::uniform(6, 3).unwrap();
        // Module faults never rewire; only switch faults do.
        assert_eq!(
            state.effective_configuration(&commanded).unwrap(),
            commanded
        );
    }

    #[test]
    fn mismatched_module_counts_are_rejected() {
        let state = FaultState::healthy(6);
        let commanded = Configuration::uniform(8, 2).unwrap();
        assert!(state.effective_configuration(&commanded).is_err());
    }

    #[test]
    fn display_renders_fault_kinds() {
        assert_eq!(ModuleFault::OpenCircuit.to_string(), "open-circuit");
        assert_eq!(ModuleFault::ShortCircuit.to_string(), "short-circuit");
        assert_eq!(ModuleFault::Derated(0.5).to_string(), "derated(0.50)");
        assert_eq!(SwitchStuck::Open.to_string(), "stuck-open");
        assert_eq!(SwitchStuck::Closed.to_string(), "stuck-closed");
        assert_eq!(ModuleFault::Derated(0.5).tag(), "derate");
        assert_eq!(ModuleFault::OpenCircuit.tag(), "open");
        assert_eq!(ModuleFault::ShortCircuit.tag(), "short");
    }

    proptest! {
        /// The merge walk realises exactly the configuration the set-based
        /// oracle does, for arbitrary commanded partitions and stuck-switch
        /// masks: each link draws a commanded boundary bit and one of
        /// healthy / stuck-open / stuck-closed.
        #[test]
        fn prop_merge_walk_matches_the_set_oracle(
            links in collection::vec(0usize..6, 0..90),
        ) {
            let n = links.len() + 1;
            let mut starts = vec![0];
            let mut state = FaultState::healthy(n);
            for (link, &code) in links.iter().enumerate() {
                if code % 2 == 1 {
                    starts.push(link + 1);
                }
                match code / 2 {
                    1 => state.set_switch_fault(link, SwitchStuck::Open).unwrap(),
                    2 => state.set_switch_fault(link, SwitchStuck::Closed).unwrap(),
                    _ => {}
                }
            }
            let commanded = Configuration::new(starts, n).unwrap();
            let realised = state.effective_configuration(&commanded).unwrap();
            let oracle = state.effective_configuration_by_set(&commanded).unwrap();
            prop_assert_eq!(realised, oracle);
        }
    }
}
