//! Perturb-and-observe maximum power point tracking.
//!
//! The paper's charger finds the overall maximum output power of the
//! configured array with the classic perturb-and-observe (P&O) MPPT of
//! Femia et al.: perturb the operating current by a small step, keep going in
//! the same direction while the measured power increases, reverse otherwise.

use teg_array::{ArraySolver, Configuration, SolvedPoint, TegArray};
use teg_units::{Amps, TemperatureDelta};

use crate::error::PowerError;

/// Result of running the MPPT loop against a configured array.
#[derive(Debug, Clone, PartialEq)]
pub struct MpptOutcome {
    operating_point: SolvedPoint,
    iterations: usize,
    converged: bool,
}

impl MpptOutcome {
    /// The operating point the tracker settled on.
    #[must_use]
    pub const fn operating_point(&self) -> &SolvedPoint {
        &self.operating_point
    }

    /// Number of perturbation steps executed.
    #[must_use]
    pub const fn iterations(&self) -> usize {
        self.iterations
    }

    /// `true` when the tracker stopped because the step size collapsed below
    /// its resolution rather than because it ran out of iterations.
    #[must_use]
    pub const fn converged(&self) -> bool {
        self.converged
    }
}

/// Perturb-and-observe MPPT state machine operating on the array string
/// current.
///
/// # Examples
///
/// ```
/// use teg_array::{ArraySolver, Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_power::PerturbObserve;
/// use teg_units::TemperatureDelta;
///
/// # fn main() -> Result<(), teg_power::PowerError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 10);
/// let deltas = vec![TemperatureDelta::new(60.0); 10];
/// let config = Configuration::uniform(10, 5).map_err(teg_power::PowerError::from)?;
/// let mut mppt = PerturbObserve::default();
/// let outcome = mppt.track(&array, &config, &deltas, 200)?;
/// // P&O lands within a few percent of the analytic MPP.
/// let mut solver = ArraySolver::new();
/// solver.load(&array, &deltas, None).map_err(teg_power::PowerError::from)?;
/// let analytic = solver.mpp(&config).map_err(teg_power::PowerError::from)?;
/// assert!(outcome.operating_point().power().value() > 0.97 * analytic.power().value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbObserve {
    initial_step: Amps,
    minimum_step: Amps,
    shrink_factor: f64,
}

impl PerturbObserve {
    /// Creates a tracker with the given initial perturbation step, the step
    /// below which it declares convergence, and the factor by which the step
    /// shrinks every time the search direction reverses.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the steps are not positive,
    /// the minimum step exceeds the initial step, or the shrink factor is not
    /// in `(0, 1)`.
    pub fn new(
        initial_step: Amps,
        minimum_step: Amps,
        shrink_factor: f64,
    ) -> Result<Self, PowerError> {
        if !(initial_step.value() > 0.0) {
            return Err(PowerError::InvalidParameter {
                name: "initial step",
                value: initial_step.value(),
            });
        }
        if !(minimum_step.value() > 0.0) || minimum_step.value() > initial_step.value() {
            return Err(PowerError::InvalidParameter {
                name: "minimum step",
                value: minimum_step.value(),
            });
        }
        if !(shrink_factor > 0.0 && shrink_factor < 1.0) {
            return Err(PowerError::InvalidParameter {
                name: "shrink factor",
                value: shrink_factor,
            });
        }
        Ok(Self {
            initial_step,
            minimum_step,
            shrink_factor,
        })
    }

    /// Runs the P&O loop against a configured array and temperature state.
    ///
    /// The search starts from half of the sum of module MPP currents of the
    /// first group (a cheap, always-feasible seed), perturbs the string
    /// current and keeps the best point seen.  At most `max_iterations` steps
    /// are taken.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`](teg_array::ArrayError) from the solver as
    /// [`PowerError::Array`], including a configuration that covers a
    /// different module count than the array.
    pub fn track(
        &mut self,
        array: &TegArray,
        config: &Configuration,
        deltas: &[TemperatureDelta],
        max_iterations: usize,
    ) -> Result<MpptOutcome, PowerError> {
        // The wiring and the temperatures are fixed for the whole loop: load
        // the module terms once and let the solver's scratch absorb the
        // hundreds of perturbation solves without a single per-iteration
        // allocation or module re-derivation.
        let mut solver = ArraySolver::new();
        solver.load(array, deltas, None)?;
        // A solve rejects a wiring of another module count with the
        // solver's own error, before the seed indexes per-module currents.
        solver.operate_at(config, Amps::ZERO)?;

        let mpp_currents = array.mpp_currents(deltas)?;
        // Seed: the mean of the per-group MPP-current sums, halved.
        let mut group_sum_mean = 0.0;
        for group in config.groups() {
            group_sum_mean += group
                .indices()
                .map(|i| mpp_currents[i].value())
                .sum::<f64>();
        }
        group_sum_mean /= config.group_count() as f64;
        let mut current = Amps::new((group_sum_mean * 0.5).max(1e-3));

        let mut step = self.initial_step;
        let mut direction = 1.0_f64;
        let first = solver.operate_at(config, current)?;
        let mut last_power = first.power();
        let mut best = first;
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..max_iterations {
            iterations += 1;
            let candidate = Amps::new((current.value() + direction * step.value()).max(0.0));
            let op = solver.operate_at(config, candidate)?;
            let power = op.power();
            if power > best.power() {
                best = op;
            }
            if power > last_power {
                current = candidate;
            } else {
                // Reverse and refine.
                direction = -direction;
                step = step * self.shrink_factor;
                if step.value() < self.minimum_step.value() {
                    converged = true;
                    last_power = power;
                    break;
                }
            }
            last_power = power;
        }
        let _ = last_power;

        Ok(MpptOutcome {
            operating_point: best,
            iterations,
            converged,
        })
    }
}

impl Default for PerturbObserve {
    /// Step sizes suited to arrays sourcing a few amperes: 50 mA initial
    /// perturbation, 1 mA resolution, halving on every reversal.
    fn default() -> Self {
        Self {
            initial_step: Amps::new(0.05),
            minimum_step: Amps::new(0.001),
            shrink_factor: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_device::{TegDatasheet, TegModule};

    fn array(n: usize) -> TegArray {
        TegArray::uniform(
            TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
            n,
        )
    }

    fn gradient(n: usize) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| TemperatureDelta::new(75.0 - 40.0 * i as f64 / n as f64))
            .collect()
    }

    fn analytic_mpp(
        a: &TegArray,
        config: &Configuration,
        deltas: &[TemperatureDelta],
    ) -> SolvedPoint {
        let mut solver = ArraySolver::new();
        solver.load(a, deltas, None).unwrap();
        solver.mpp(config).unwrap()
    }

    #[test]
    fn tracker_approaches_analytic_mpp() {
        let a = array(20);
        let deltas = gradient(20);
        let config = Configuration::uniform(20, 5).unwrap();
        let analytic = analytic_mpp(&a, &config, &deltas);
        let outcome = PerturbObserve::default()
            .track(&a, &config, &deltas, 500)
            .unwrap();
        let ratio = outcome.operating_point().power().value() / analytic.power().value();
        assert!(
            ratio > 0.97,
            "P&O reached only {ratio:.3} of the analytic MPP"
        );
        assert!(ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn tracker_converges_before_iteration_budget() {
        let a = array(10);
        let deltas = gradient(10);
        let config = Configuration::uniform(10, 5).unwrap();
        let outcome = PerturbObserve::default()
            .track(&a, &config, &deltas, 10_000)
            .unwrap();
        assert!(outcome.converged());
        assert!(outcome.iterations() < 10_000);
    }

    #[test]
    fn zero_iteration_budget_returns_seed_point() {
        let a = array(10);
        let deltas = gradient(10);
        let config = Configuration::uniform(10, 2).unwrap();
        let outcome = PerturbObserve::default()
            .track(&a, &config, &deltas, 0)
            .unwrap();
        assert_eq!(outcome.iterations(), 0);
        assert!(!outcome.converged());
        assert!(outcome.operating_point().power().value() > 0.0);
    }

    #[test]
    fn parameter_validation() {
        assert!(PerturbObserve::new(Amps::new(0.0), Amps::new(0.001), 0.5).is_err());
        assert!(PerturbObserve::new(Amps::new(0.05), Amps::new(0.0), 0.5).is_err());
        assert!(PerturbObserve::new(Amps::new(0.05), Amps::new(0.1), 0.5).is_err());
        assert!(PerturbObserve::new(Amps::new(0.05), Amps::new(0.001), 1.0).is_err());
        assert!(PerturbObserve::new(Amps::new(0.05), Amps::new(0.001), 0.0).is_err());
        assert!(PerturbObserve::new(Amps::new(0.05), Amps::new(0.001), 0.5).is_ok());
    }

    #[test]
    fn dimension_mismatch_is_propagated() {
        let a = array(10);
        let deltas = gradient(9);
        let config = Configuration::uniform(10, 2).unwrap();
        let err = PerturbObserve::default()
            .track(&a, &config, &deltas, 10)
            .unwrap_err();
        assert!(matches!(err, PowerError::Array(_)));
    }

    #[test]
    fn uniform_temperatures_are_tracked_too() {
        let a = array(16);
        let deltas = vec![TemperatureDelta::new(55.0); 16];
        let config = Configuration::uniform(16, 4).unwrap();
        let analytic = analytic_mpp(&a, &config, &deltas);
        let outcome = PerturbObserve::default()
            .track(&a, &config, &deltas, 300)
            .unwrap();
        assert!(outcome.operating_point().power().value() > 0.95 * analytic.power().value());
    }
}
