//! The solved thermal history of a scenario, computed once and shared.
//!
//! Earlier revisions re-ran the ε-NTU radiator solve inside every scheme's
//! run, so comparing the paper's four schemes solved the identical thermal
//! problem four times.  [`ThermalTrace`] hoists that work out of the
//! simulation loop: it is computed lazily, cached on the [`Scenario`], and
//! borrowed by every session and comparison that replays the same drive
//! cycle.  A trace stores each sample's surface row once; the per-module ΔT
//! is derived from that row and the ambient by the simulation's plant, once
//! per step for its whole lockstep field.
//!
//! [`Scenario`]: crate::Scenario

use teg_array::ideal_power;
use teg_reconfig::TelemetryWindow;
use teg_units::{Celsius, Seconds, TemperatureDelta, Watts};

use crate::error::SimError;
use crate::scenario::Scenario;

/// Per-module surface temperatures (and the ambient) for every sample of a
/// scenario's drive cycle — the radiator model solved exactly once.
///
/// # Examples
///
/// ```
/// use teg_sim::Scenario;
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::builder().module_count(10).duration_seconds(30).seed(1).build()?;
/// let trace = scenario.thermal_trace()?;
/// assert_eq!(trace.len(), 30);
/// // The entrance module is hotter than the exit module at every step.
/// assert!(trace.row(0)[0] > trace.row(0)[9]);
/// // The cache makes the second access free: still exactly 30 solves.
/// let again = scenario.thermal_trace()?;
/// assert_eq!(again.len(), 30);
/// assert_eq!(scenario.thermal_solve_count(), 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTrace {
    times: Vec<Seconds>,
    ambients: Vec<Celsius>,
    // Structure-of-arrays storage: `width` consecutive entries per sample in
    // one contiguous buffer, rather than one heap allocation per sample.
    // The solve loop streams rows cache-linearly and `row(i)` hands out
    // strided slices.  ΔT is not stored: the plant derives it from
    // `row(i)` and `ambient(i)` once per step, so each trace holds its
    // `width × len` grid once.
    rows: Vec<f64>,
    ideal: Vec<Watts>,
    width: usize,
    step: Seconds,
}

impl ThermalTrace {
    /// Solves the radiator model for every sample of the scenario's drive
    /// cycle.  Normally reached through [`Scenario::thermal_trace`], which
    /// caches the result; each sample solved is counted against the
    /// scenario's [`Scenario::thermal_solve_count`].
    ///
    /// The loop writes each sample's temperatures straight into the trace's
    /// strided buffer and derives its ΔT into one reused `width`-long
    /// scratch row for the ideal-power bound, so it performs no per-sample
    /// heap allocation — the buffers are reserved once for the whole cycle.
    ///
    /// The arithmetic (profile evaluation order, ΔT clamping, ideal-power
    /// sum) is identical to the historical row-per-`Vec` layout, so solved
    /// traces are bit-identical to earlier revisions.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Thermal`] from the radiator solve and
    /// [`SimError::Array`] from the ideal-power bound.
    pub fn solve(scenario: &Scenario) -> Result<Self, SimError> {
        let array = scenario.array();
        let placement = scenario.placement();
        let samples = scenario.drive_cycle().samples();
        let width = placement.module_count();
        let len = samples.len();

        let mut times = Vec::with_capacity(len);
        let mut ambients = Vec::with_capacity(len);
        let mut rows = vec![0.0; len * width];
        let mut delta = vec![TemperatureDelta::ZERO; width];
        let mut ideal = Vec::with_capacity(len);

        for (index, sample) in samples.iter().enumerate() {
            let profile = scenario
                .radiator()
                .surface_profile(&sample.coolant(), &sample.ambient())?;
            let row = &mut rows[index * width..(index + 1) * width];
            profile.sample_into_slice(placement, row);
            scenario.count_thermal_solve();
            let ambient = sample.ambient().temperature();
            TelemetryWindow::deltas_from_row_into_slice(row, ambient, &mut delta);
            ideal.push(ideal_power(array.modules(), &delta)?);
            times.push(sample.time());
            ambients.push(ambient);
        }

        Ok(Self {
            times,
            ambients,
            rows,
            ideal,
            width,
            step: scenario.step(),
        })
    }

    /// Copies the `[start, end)` sample range into a standalone trace.
    ///
    /// [`DriveCycle::window`](teg_thermal::DriveCycle::window) keeps the
    /// original sample timestamps, so the result is bit-identical to freshly
    /// solving the windowed cycle — the basis for [`Scenario::window`]
    /// reusing the parent's solved trace.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub(crate) fn slice(&self, start: usize, end: usize) -> Self {
        Self {
            times: self.times[start..end].to_vec(),
            ambients: self.ambients[start..end].to_vec(),
            rows: self.rows[start * self.width..end * self.width].to_vec(),
            ideal: self.ideal[start..end].to_vec(),
            width: self.width,
            step: self.step,
        }
    }

    /// Number of solved samples (one per drive-cycle second).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` for a trace over an empty drive cycle.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of modules per sample (the stride of [`ThermalTrace::row`]
    /// slices).
    #[inline]
    #[must_use]
    pub const fn width(&self) -> usize {
        self.width
    }

    /// The sampling step the trace was solved at.
    #[inline]
    #[must_use]
    pub const fn step(&self) -> Seconds {
        self.step
    }

    /// Simulation time of the `index`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn time(&self, index: usize) -> Seconds {
        self.times[index]
    }

    /// Per-module surface temperatures (°C) at the `index`-th sample — a
    /// `width`-long slice into the trace's contiguous storage.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn row(&self, index: usize) -> &[f64] {
        &self.rows[index * self.width..(index + 1) * self.width]
    }

    /// Ambient (heatsink) temperature at the `index`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn ambient(&self, index: usize) -> Celsius {
        self.ambients[index]
    }

    /// The unconstrained upper bound `P_ideal` (sum of module MPPs) at the
    /// `index`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn ideal(&self, index: usize) -> Watts {
        self.ideal[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(modules: usize, seconds: usize, seed: u64) -> Scenario {
        Scenario::builder()
            .module_count(modules)
            .duration_seconds(seconds)
            .seed(seed)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn trace_covers_the_whole_cycle() {
        let s = scenario(12, 40, 3);
        let trace = s.thermal_trace().unwrap();
        assert_eq!(trace.len(), 40);
        assert!(!trace.is_empty());
        assert_eq!(trace.step(), s.step());
        assert_eq!(trace.row(0).len(), 12);
        assert_eq!(trace.time(5), Seconds::new(5.0));
        assert!(trace.ambient(0).value() > 0.0);
    }

    #[test]
    fn cache_solves_each_sample_exactly_once() {
        let s = scenario(8, 25, 9);
        assert_eq!(s.thermal_solve_count(), 0);
        let _ = s.thermal_trace().unwrap();
        let _ = s.thermal_trace().unwrap();
        let _ = s.thermal_trace().unwrap();
        assert_eq!(s.thermal_solve_count(), 25);
    }

    #[test]
    fn clones_share_an_already_solved_trace() {
        let s = scenario(6, 15, 4);
        let _ = s.thermal_trace().unwrap();
        let cloned = s.clone();
        let _ = cloned.thermal_trace().unwrap();
        // The clone reuses the solved trace: no further solves counted.
        assert_eq!(cloned.thermal_solve_count(), 15);
    }

    #[test]
    fn clones_made_before_the_solve_also_share_it() {
        // The cache cell sits behind an Arc, so even a clone taken while
        // the trace is still unsolved shares the eventual solve.
        let s = scenario(6, 15, 4);
        let cloned = s.clone();
        let _ = s.thermal_trace().unwrap();
        let _ = cloned.thermal_trace().unwrap();
        assert_eq!(s.thermal_solve_count(), 15);
    }

    #[test]
    fn windowing_slices_an_already_solved_parent_trace() {
        let s = scenario(6, 50, 4);
        let _ = s.thermal_trace().unwrap();
        let w = s.window(10, 30).unwrap();
        let trace = w.thermal_trace().unwrap();
        assert_eq!(trace.len(), 20);
        // The window reuses the parent's solved samples instead of
        // re-running the radiator over its sub-range: the shared counter
        // still reads the parent's 50 solves, nothing more.
        assert_eq!(s.thermal_solve_count(), 50);
    }

    #[test]
    fn windowing_an_unsolved_parent_solves_only_the_window() {
        let s = scenario(6, 50, 4);
        let w = s.window(10, 30).unwrap();
        let trace = w.thermal_trace().unwrap();
        assert_eq!(trace.len(), 20);
        // Nothing to slice yet: the window solves its own 20-sample cycle.
        assert_eq!(s.thermal_solve_count(), 20);
    }

    #[test]
    fn sliced_window_trace_matches_a_fresh_window_solve_bit_for_bit() {
        // `DriveCycle::window` keeps the original timestamps, so slicing the
        // parent's solved trace must reproduce exactly what solving the
        // windowed cycle from scratch produces — every row, delta, ideal
        // power, timestamp and ambient down to the last bit.
        let build = || {
            Scenario::builder()
                .module_count(9)
                .duration_seconds(60)
                .seed(13)
                .build()
                .expect("valid scenario")
        };
        let solved_parent = build();
        let _ = solved_parent.thermal_trace().unwrap();
        let sliced = solved_parent.window(15, 45).unwrap();
        let fresh = build().window(15, 45).unwrap();
        let a = sliced.thermal_trace().unwrap();
        let b = fresh.thermal_trace().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.time(0), Seconds::new(15.0), "window keeps timestamps");
        for i in 0..a.len() {
            for (x, y) in a.row(i).iter().zip(b.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}");
            }
            assert_eq!(a.ideal(i), b.ideal(i), "ideal {i}");
        }
    }

    #[test]
    fn strided_rows_match_a_fresh_per_sample_solve() {
        // The SoA buffer must hand out exactly the values the radiator
        // produces for each sample, and each ideal power must be the bound
        // of the ΔT `TelemetryWindow::deltas_from_row` derives from that row
        // and ambient, bit for bit.
        use teg_reconfig::TelemetryWindow;

        let s = scenario(9, 12, 6);
        let trace = s.thermal_trace().unwrap();
        assert_eq!(trace.width(), 9);
        for (i, sample) in s.drive_cycle().iter().enumerate() {
            let profile = s
                .radiator()
                .surface_profile(&sample.coolant(), &sample.ambient())
                .unwrap();
            let fresh: Vec<f64> = profile
                .sample(s.placement())
                .iter()
                .map(|t| t.value())
                .collect();
            let row = trace.row(i);
            assert_eq!(row.len(), 9);
            for (a, b) in fresh.iter().zip(row) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
            assert_eq!(
                trace.ambient(i).value().to_bits(),
                sample.ambient().temperature().value().to_bits(),
                "ambient {i}"
            );
            let derived = TelemetryWindow::deltas_from_row(row, trace.ambient(i));
            let bound = ideal_power(s.array().modules(), &derived).unwrap();
            assert_eq!(
                trace.ideal(i).value().to_bits(),
                bound.value().to_bits(),
                "ideal {i}"
            );
        }
    }

    #[test]
    fn presolve_populates_the_scenario_and_reports_who_solved() {
        let s = scenario(6, 30, 2);
        assert!(s.presolve(4).unwrap(), "first presolve runs the solve");
        assert!(!s.presolve(4).unwrap(), "second presolve finds it done");
        assert_eq!(s.thermal_solve_count(), 30);
        let trace = s.thermal_trace().unwrap();
        assert_eq!(trace.len(), 30);
        // Still exactly one solve: thermal_trace() reused the presolved one.
        assert_eq!(s.thermal_solve_count(), 30);
    }

    #[test]
    fn temperatures_decay_along_the_radiator() {
        let s = scenario(20, 10, 7);
        let trace = s.thermal_trace().unwrap();
        for i in 0..trace.len() {
            let row = trace.row(i);
            assert!(row[0] > row[19], "entrance hotter than exit at step {i}");
        }
    }
}
