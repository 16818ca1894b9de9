//! Bounded telemetry history and the borrowed per-invocation window every
//! reconfiguration algorithm consumes.
//!
//! The paper's controller accumulates per-module hot-side temperatures from
//! its thermocouple/flow measurements through the radiator model.  Earlier
//! revisions of this crate handed each algorithm the *entire* history since
//! simulation start, which made every invocation `O(T)` in the run length
//! (and the whole run `O(T²)`).  The streaming redesign bounds the history:
//!
//! * [`TelemetryBuffer`] — an owned ring buffer holding the most recent
//!   `capacity` temperature rows, recycling row allocations once warm;
//! * [`TelemetryWindow`] — a cheap borrowed view (array + ordered rows +
//!   ambient) passed to [`Reconfigurer::decide`]; its size is derived from
//!   the scheme's declared [`Reconfigurer::lookback`].
//!
//! [`Reconfigurer::decide`]: crate::Reconfigurer::decide
//! [`Reconfigurer::lookback`]: crate::Reconfigurer::lookback

use std::collections::VecDeque;

use teg_array::TegArray;
use teg_units::{Celsius, Seconds, TemperatureDelta};

use crate::error::ReconfigError;

/// A bounded ring buffer of per-module temperature rows (°C), oldest first.
///
/// Pushing beyond `capacity` drops the oldest row and recycles its
/// allocation, so a warmed-up buffer performs no heap allocation per step —
/// the property the streaming simulation session relies on.
///
/// # Examples
///
/// ```
/// use teg_reconfig::TelemetryBuffer;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let mut buffer = TelemetryBuffer::new(3, 2)?;
/// buffer.push_row(&[90.0, 85.0, 80.0])?;
/// buffer.push_row(&[91.0, 86.0, 81.0])?;
/// buffer.push_row(&[92.0, 87.0, 82.0])?; // evicts the first row
/// assert_eq!(buffer.len(), 2);
/// assert_eq!(buffer.row(0), &[91.0, 86.0, 81.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBuffer {
    module_count: usize,
    capacity: usize,
    rows: VecDeque<Vec<f64>>,
}

impl TelemetryBuffer {
    /// Creates an empty buffer for `module_count` modules keeping at most
    /// `capacity` rows.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] when either argument is
    /// zero.
    pub fn new(module_count: usize, capacity: usize) -> Result<Self, ReconfigError> {
        if module_count == 0 {
            return Err(ReconfigError::InvalidParameter {
                name: "module count",
                value: 0.0,
            });
        }
        if capacity == 0 {
            return Err(ReconfigError::InvalidParameter {
                name: "telemetry capacity",
                value: 0.0,
            });
        }
        Ok(Self {
            module_count,
            capacity,
            rows: VecDeque::with_capacity(capacity),
        })
    }

    /// Number of modules each row must cover.
    #[must_use]
    pub const fn module_count(&self) -> usize {
        self.module_count
    }

    /// Maximum number of rows retained.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` while no row has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `index`-th retained row, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn row(&self, index: usize) -> &[f64] {
        &self.rows[index]
    }

    /// Appends one temperature row, evicting (and recycling) the oldest row
    /// once the buffer is full.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InconsistentHistory`] when the row length
    /// differs from the module count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), ReconfigError> {
        if row.len() != self.module_count {
            return Err(ReconfigError::InconsistentHistory {
                modules: self.module_count,
                row_len: row.len(),
            });
        }
        let mut storage = if self.rows.len() == self.capacity {
            let mut recycled = self.rows.pop_front().expect("full buffer is non-empty");
            recycled.clear();
            recycled
        } else {
            Vec::with_capacity(self.module_count)
        };
        storage.extend_from_slice(row);
        self.rows.push_back(storage);
        Ok(())
    }

    /// Clears all rows (keeping the allocation) — used when a session resets.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Borrows the buffered history as a [`TelemetryWindow`] for `array` at
    /// the given ambient temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::EmptyHistory`] while the buffer is empty and
    /// [`ReconfigError::InconsistentHistory`] when the array's module count
    /// differs from the buffer's.
    pub fn window<'a>(
        &'a self,
        array: &'a TegArray,
        ambient: Celsius,
    ) -> Result<TelemetryWindow<'a>, ReconfigError> {
        if self.rows.is_empty() {
            return Err(ReconfigError::EmptyHistory);
        }
        if array.len() != self.module_count {
            return Err(ReconfigError::InconsistentHistory {
                modules: array.len(),
                row_len: self.module_count,
            });
        }
        let (older, newer) = self.rows.as_slices();
        Ok(TelemetryWindow {
            array,
            older,
            newer,
            ambient,
            fixed_charge: None,
        })
    }
}

/// Everything a reconfigurer may consult when proposing a configuration: the
/// array, the ambient (heatsink) temperature, and a bounded window of recent
/// per-module hot-side temperatures (most recent row last, one entry per
/// module, in °C).
///
/// The window borrows its rows — either the two chronological segments of a
/// [`TelemetryBuffer`] ring or a plain caller-owned slice — so constructing
/// one per invocation costs nothing beyond validation.  DNOR's per-module
/// predictors are trained on the window while INOR/EHTR only consume the
/// latest row.
///
/// The window also carries the per-decision computation charge when the
/// caller fixes one ([`TelemetryWindow::with_fixed_charge`]): a scheme whose
/// decision weighs its own computation time (DNOR's switch gate) uses that
/// charge instead of its wall clock, so the decision is a pure function of
/// the window.
///
/// # Examples
///
/// ```
/// use teg_array::TegArray;
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::TelemetryWindow;
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 4);
/// let history = vec![vec![90.0, 85.0, 80.0, 75.0]];
/// let window = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
/// let deltas = window.current_deltas();
/// assert_eq!(deltas.len(), 4);
/// assert!(deltas[0] > deltas[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TelemetryWindow<'a> {
    array: &'a TegArray,
    older: &'a [Vec<f64>],
    newer: &'a [Vec<f64>],
    ambient: Celsius,
    fixed_charge: Option<Seconds>,
}

impl<'a> TelemetryWindow<'a> {
    /// Creates a window over a caller-owned slice of rows, validating that
    /// the history is non-empty and every row has one temperature per module.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::EmptyHistory`] for an empty history and
    /// [`ReconfigError::InconsistentHistory`] when any row's length differs
    /// from the array's module count.
    pub fn new(
        array: &'a TegArray,
        history: &'a [Vec<f64>],
        ambient: Celsius,
    ) -> Result<Self, ReconfigError> {
        if history.is_empty() {
            return Err(ReconfigError::EmptyHistory);
        }
        for row in history {
            if row.len() != array.len() {
                return Err(ReconfigError::InconsistentHistory {
                    modules: array.len(),
                    row_len: row.len(),
                });
            }
        }
        Ok(Self {
            array,
            older: history,
            newer: &[],
            ambient,
            fixed_charge: None,
        })
    }

    /// Fixes the computation time charged for the decision made on this
    /// window.  The simulation session attaches its `RuntimePolicy::Fixed`
    /// charge here, so every scheme and the session's overhead accounting
    /// see the same value and no decision consults the wall clock.
    #[must_use]
    pub const fn with_fixed_charge(mut self, charge: Seconds) -> Self {
        self.fixed_charge = Some(charge);
        self
    }

    /// The fixed per-decision computation charge, or `None` when the
    /// decision's own measured wall time is what gets charged.
    #[must_use]
    pub const fn fixed_charge(&self) -> Option<Seconds> {
        self.fixed_charge
    }

    /// The TEG array under control.
    #[must_use]
    pub const fn array(&self) -> &'a TegArray {
        self.array
    }

    /// The ambient / heatsink temperature.
    #[must_use]
    pub const fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Number of history rows in the window.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.older.len() + self.newer.len()
    }

    /// The `index`-th row of the window (°C), oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range; callers iterate `0..history_len()`.
    #[must_use]
    pub fn row(&self, index: usize) -> &'a [f64] {
        if index < self.older.len() {
            &self.older[index]
        } else {
            &self.newer[index - self.older.len()]
        }
    }

    /// Iterator over the window's rows in chronological order.
    pub fn rows(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        self.older
            .iter()
            .chain(self.newer.iter())
            .map(Vec::as_slice)
    }

    /// The most recent per-module temperatures (°C).
    #[must_use]
    pub fn current_temperatures(&self) -> &'a [f64] {
        self.newer
            .last()
            .or_else(|| self.older.last())
            .expect("validated non-empty")
    }

    /// The most recent per-module temperature differences ΔT relative to the
    /// ambient (clamped at zero) — the quantity Eq. 2 consumes.
    #[must_use]
    pub fn current_deltas(&self) -> Vec<TemperatureDelta> {
        Self::deltas_from_row(self.current_temperatures(), self.ambient)
    }

    /// Converts an arbitrary temperature row (°C) into ΔT values against the
    /// same ambient, clamped at zero.
    #[must_use]
    pub fn deltas_from_row(row: &[f64], ambient: Celsius) -> Vec<TemperatureDelta> {
        let mut out = Vec::with_capacity(row.len());
        Self::deltas_from_row_into(row, ambient, &mut out);
        out
    }

    /// Appends the ΔT values of a temperature row to an existing buffer —
    /// the allocation-free sibling of [`TelemetryWindow::deltas_from_row`],
    /// performing the identical per-module operation so the two agree bit
    /// for bit.  The simulation's plant derives each step's true ΔT from
    /// the stored surface row through it.
    pub fn deltas_from_row_into(row: &[f64], ambient: Celsius, out: &mut Vec<TemperatureDelta>) {
        out.extend(
            row.iter()
                .map(|&t| (Celsius::new(t) - ambient).clamp_non_negative()),
        );
    }

    /// [`TelemetryWindow::deltas_from_row_into`] writing into an
    /// exact-length slice instead of appending — the form the thermal-trace
    /// solve uses for its reused ΔT scratch row.  Same per-module operation,
    /// so the written values are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != row.len()`.
    pub fn deltas_from_row_into_slice(row: &[f64], ambient: Celsius, out: &mut [TemperatureDelta]) {
        assert_eq!(out.len(), row.len(), "slice length must equal the row's");
        for (slot, &t) in out.iter_mut().zip(row) {
            *slot = (Celsius::new(t) - ambient).clamp_non_negative();
        }
    }

    /// The windowed history of a single module as a scalar series (°C),
    /// oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `module_index` is out of range; callers iterate over
    /// `0..array.len()`.
    #[must_use]
    pub fn module_series(&self, module_index: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.history_len());
        self.module_series_into(module_index, &mut out);
        out
    }

    /// [`TelemetryWindow::module_series`] into a reused buffer (cleared
    /// first): the same values, without allocating once `out` has grown.
    ///
    /// # Panics
    ///
    /// Panics if `module_index` is out of range.
    pub fn module_series_into(&self, module_index: usize, out: &mut Vec<f64>) {
        assert!(module_index < self.array.len(), "module index out of range");
        out.clear();
        out.extend(self.rows().map(|row| row[module_index]));
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

    #[test]
    fn window_validation() {
        let a = array(3);
        assert!(matches!(
            TelemetryWindow::new(&a, &[], Celsius::new(25.0)),
            Err(ReconfigError::EmptyHistory)
        ));
        let bad = vec![vec![90.0, 80.0]];
        assert!(matches!(
            TelemetryWindow::new(&a, &bad, Celsius::new(25.0)),
            Err(ReconfigError::InconsistentHistory { .. })
        ));
    }

    #[test]
    fn accessors_and_deltas() {
        let a = array(3);
        let history = vec![vec![80.0, 75.0, 70.0], vec![90.0, 85.0, 20.0]];
        let window = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        assert_eq!(window.history_len(), 2);
        assert_eq!(window.current_temperatures(), &[90.0, 85.0, 20.0]);
        let deltas = window.current_deltas();
        assert!((deltas[0].kelvin() - 65.0).abs() < 1e-12);
        assert!((deltas[1].kelvin() - 60.0).abs() < 1e-12);
        // Below-ambient modules clamp to zero instead of going negative.
        assert_eq!(deltas[2].kelvin(), 0.0);
        assert_eq!(window.ambient(), Celsius::new(25.0));
        assert_eq!(window.array().len(), 3);
        assert_eq!(window.row(0), &[80.0, 75.0, 70.0]);
        assert_eq!(window.rows().count(), 2);
    }

    #[test]
    fn module_series_extracts_columns() {
        let a = array(2);
        let history = vec![vec![80.0, 70.0], vec![81.0, 71.0], vec![82.0, 72.0]];
        let window = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        assert_eq!(window.module_series(0), vec![80.0, 81.0, 82.0]);
        assert_eq!(window.module_series(1), vec![70.0, 71.0, 72.0]);
    }

    #[test]
    #[should_panic(expected = "module index out of range")]
    fn module_series_bounds_checked() {
        let a = array(2);
        let history = vec![vec![80.0, 70.0]];
        let window = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let _ = window.module_series(2);
    }

    #[test]
    fn buffer_validation() {
        assert!(TelemetryBuffer::new(0, 4).is_err());
        assert!(TelemetryBuffer::new(4, 0).is_err());
        let mut buffer = TelemetryBuffer::new(2, 4).unwrap();
        assert!(matches!(
            buffer.push_row(&[1.0, 2.0, 3.0]),
            Err(ReconfigError::InconsistentHistory {
                modules: 2,
                row_len: 3
            })
        ));
        let a = array(2);
        assert!(matches!(
            buffer.window(&a, Celsius::new(25.0)),
            Err(ReconfigError::EmptyHistory)
        ));
        buffer.push_row(&[90.0, 80.0]).unwrap();
        let wrong_array = array(3);
        assert!(buffer.window(&wrong_array, Celsius::new(25.0)).is_err());
    }

    #[test]
    fn buffer_evicts_oldest_and_stays_bounded() {
        let mut buffer = TelemetryBuffer::new(1, 3).unwrap();
        for t in 0..10 {
            buffer.push_row(&[f64::from(t)]).unwrap();
            assert!(buffer.len() <= 3);
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.row(0), &[7.0]);
        assert_eq!(buffer.row(2), &[9.0]);
        assert_eq!(buffer.capacity(), 3);
        assert_eq!(buffer.module_count(), 1);
        buffer.clear();
        assert!(buffer.is_empty());
    }

    #[test]
    fn ring_window_spans_the_wraparound() {
        // Force the ring to wrap so the window sees two segments.
        let a = array(2);
        let mut buffer = TelemetryBuffer::new(2, 3).unwrap();
        for t in 0..5 {
            let base = 80.0 + f64::from(t);
            buffer.push_row(&[base, base - 10.0]).unwrap();
        }
        let window = buffer.window(&a, Celsius::new(25.0)).unwrap();
        assert_eq!(window.history_len(), 3);
        assert_eq!(window.current_temperatures(), &[84.0, 74.0]);
        assert_eq!(window.module_series(0), vec![82.0, 83.0, 84.0]);
        assert_eq!(window.module_series(1), vec![72.0, 73.0, 74.0]);
        let rows: Vec<_> = window.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], &[82.0, 72.0]);
        assert_eq!(window.row(2), &[84.0, 74.0]);
    }
}
