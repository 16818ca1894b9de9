//! The common interface of all reconfiguration schemes.

use teg_array::Configuration;
use teg_units::Seconds;

use crate::error::ReconfigError;
use crate::telemetry::TelemetryWindow;

/// The outcome of one reconfiguration decision.
///
/// The decision carries the configuration the controller should use from now
/// on — `Some(new)` to adopt a replacement, `None` to keep the current
/// wiring without cloning it — how long the algorithm took to compute it,
/// whether the algorithm actually evaluated a fresh candidate on this
/// invocation (DNOR skips evaluation between its prediction periods), and
/// whether the controller must *apply* the configuration — i.e. actuate the
/// switch matrix and restart MPPT, which is what costs dead time.
/// Fixed-period schemes (INOR, EHTR) re-apply on every period, which is why
/// they accumulate the large switching overhead of Table I; DNOR applies only
/// when it decides to switch and returns [`ReconfigDecision::keep`]
/// otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigDecision {
    configuration: Option<Configuration>,
    computation: Seconds,
    evaluated: bool,
    applied: bool,
}

impl ReconfigDecision {
    /// Creates a decision carrying a (possibly unchanged) configuration.
    #[must_use]
    pub fn new(
        configuration: Configuration,
        computation: Seconds,
        evaluated: bool,
        applied: bool,
    ) -> Self {
        Self {
            configuration: Some(configuration),
            computation,
            evaluated,
            applied,
        }
    }

    /// Creates a decision that keeps the current wiring as-is, without
    /// cloning it into the record — the cheap path for schemes that decided
    /// not to change anything (DNOR's skipped periods and rejected
    /// switches, the settled static baseline).
    #[must_use]
    pub const fn keep(computation: Seconds, evaluated: bool, applied: bool) -> Self {
        Self {
            configuration: None,
            computation,
            evaluated,
            applied,
        }
    }

    /// The configuration the array should use after this decision, or
    /// `None` when the decision keeps the current wiring.
    #[must_use]
    pub const fn configuration(&self) -> Option<&Configuration> {
        self.configuration.as_ref()
    }

    /// Consumes the decision and returns the configuration, or `None` when
    /// the decision keeps the current wiring.
    #[must_use]
    pub fn into_configuration(self) -> Option<Configuration> {
        self.configuration
    }

    /// `true` when the decision keeps the current wiring unchanged.
    #[must_use]
    pub const fn keeps_current(&self) -> bool {
        self.configuration.is_none()
    }

    /// Wall-clock time the algorithm spent computing this decision.
    #[must_use]
    pub const fn computation(&self) -> Seconds {
        self.computation
    }

    /// `true` when the algorithm ran its optimisation (or prediction) on this
    /// invocation rather than returning early.
    #[must_use]
    pub const fn evaluated(&self) -> bool {
        self.evaluated
    }

    /// `true` when the controller must actuate the switch matrix and restart
    /// the MPPT loop, interrupting harvesting for the reconfiguration dead
    /// time.
    #[must_use]
    pub const fn applied(&self) -> bool {
        self.applied
    }
}

/// A reconfiguration scheme: INOR, DNOR, EHTR or the static baseline.
///
/// Implementations are stateful (DNOR remembers when it last evaluated and
/// keeps its fitted predictors); the simulation engine invokes
/// [`Reconfigurer::decide`] once per reconfiguration period and applies the
/// returned configuration, charging switching overhead whenever it differs
/// from the current one.
///
/// The trait requires [`Send`] so sessions (and the boxed schemes a
/// [`SchemeSpec`](crate::SchemeSpec) builds) can be moved to the worker
/// threads of a parallel scenario sweep.  Every scheme is plain data, so
/// this costs implementors nothing.
pub trait Reconfigurer: Send {
    /// Human-readable scheme name as used in the paper's tables and figures.
    fn name(&self) -> &'static str;

    /// The period at which the controller should invoke this scheme.
    fn period(&self) -> Seconds;

    /// Number of recent telemetry rows the scheme needs to see in its
    /// [`TelemetryWindow`].
    ///
    /// The simulation session sizes its bounded ring buffer from this value,
    /// which is what keeps every invocation `O(window)` instead of `O(T)` in
    /// the run length.  Instantaneous schemes (INOR, EHTR, the baseline)
    /// only read the latest row, hence the default of 1; predictive schemes
    /// such as DNOR declare the training span their predictors require.
    fn lookback(&self) -> usize {
        1
    }

    /// Proposes the configuration to use from this instant on.
    ///
    /// `window` carries the bounded recent telemetry; `current` is the
    /// configuration presently wired, and schemes that decide not to change
    /// anything return [`ReconfigDecision::keep`] instead of cloning it.
    /// A scheme whose decision weighs its own computation time uses the
    /// window's [`fixed_charge`](TelemetryWindow::fixed_charge) when the
    /// caller set one, and its measured wall time only otherwise.
    ///
    /// A scheme sees telemetry only — the temperature rows as the sensors
    /// report them, corruption included — and never the plant's electrical
    /// [`FaultState`](teg_array::FaultState).  Every scheme therefore
    /// decides fault-blind: open, shorted or derated modules and stuck
    /// switches act only when the plant solves the realised wiring (see the
    /// README section "Fault scenarios: degraded arrays and lying
    /// sensors").
    ///
    /// # Errors
    ///
    /// Implementations return [`ReconfigError`] when the inputs are
    /// inconsistent with the array or an underlying substrate fails.
    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError>;

    /// Resets any internal state (fitted predictors, evaluation phase).  The
    /// default implementation does nothing, which suits stateless schemes.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        let config = Configuration::uniform(10, 2).unwrap();
        let d = ReconfigDecision::new(config.clone(), Seconds::new(0.004), true, false);
        assert_eq!(d.configuration(), Some(&config));
        assert_eq!(d.computation(), Seconds::new(0.004));
        assert!(d.evaluated());
        assert!(!d.applied());
        assert!(!d.keeps_current());
        assert_eq!(d.into_configuration(), Some(config));
    }

    #[test]
    fn keep_decisions_carry_no_configuration() {
        let d = ReconfigDecision::keep(Seconds::new(0.002), true, false);
        assert!(d.keeps_current());
        assert_eq!(d.configuration(), None);
        assert_eq!(d.computation(), Seconds::new(0.002));
        assert!(d.evaluated());
        assert!(!d.applied());
        assert_eq!(d.into_configuration(), None);
    }
}
