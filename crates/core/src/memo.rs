//! A one-entry decision memo for the stateless fixed-period schemes.
//!
//! INOR and EHTR derive their decision purely from the telemetry window's
//! current ΔT row (the array a session hands them never changes while the
//! session runs): identical inputs always produce the identical partition.
//! Sub-second periods make repeated identical inputs the *common* case — a
//! 0.5 s period over a 1 s simulation step invokes the scheme twice per step
//! against the same telemetry row, so every other partition search is
//! redundant.  The memo short-circuits those repeats with the cached
//! configuration, which is bit-identical to re-running the search by
//! construction.
//!
//! The memo is invalidated by [`Reconfigurer::reset`] (sessions reset their
//! scheme before the first step, so a memo never leaks across arrays).
//!
//! [`Reconfigurer::reset`]: crate::Reconfigurer::reset

use teg_array::Configuration;
use teg_units::TemperatureDelta;

/// The last (ΔT row → chosen configuration) pair a scheme computed.
///
/// An empty memo matches nothing.  Recording copies the row into the
/// memo's own buffer, so after the first decision a record allocates only
/// the cached configuration.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecisionMemo {
    deltas: Vec<TemperatureDelta>,
    configuration: Option<Configuration>,
}

impl DecisionMemo {
    /// Records a fresh decision, replacing the previous one.
    pub(crate) fn record(&mut self, deltas: &[TemperatureDelta], configuration: Configuration) {
        self.deltas.clear();
        self.deltas.extend_from_slice(deltas);
        self.configuration = Some(configuration);
    }

    /// The cached configuration, if `deltas` matches the memoised input
    /// exactly (bitwise; a NaN never matches, so a poisoned row recomputes).
    pub(crate) fn lookup(&self, deltas: &[TemperatureDelta]) -> Option<&Configuration> {
        self.configuration
            .as_ref()
            .filter(|_| self.deltas.as_slice() == deltas)
    }

    /// Forgets the recorded decision (the row buffer is kept for reuse).
    pub(crate) fn clear(&mut self) {
        self.configuration = None;
    }
}
