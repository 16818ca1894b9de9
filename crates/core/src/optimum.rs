//! The exact, certified optimum of the reconfiguration problem — the
//! yardstick the near-optimal schemes are measured against.
//!
//! A wiring's MPP power has the closed form the solver ends in:
//! `P = max_I Σ_g (I·S_g − I²)/G_g` over the string current `I ≥ 0`, where
//! `S_g = Σ G·E` and `G_g = Σ G` are each group's Norton sums.  For a fixed
//! `I` the sum is additive over groups, so the best contiguous partition
//! with a group count in a window is a dynamic program over group
//! boundaries.  [`certified_optimum`] branches and bounds over `I`:
//!
//! * the **upper bound** of an interval `[a, b]` is the same program with
//!   each group's term taken at its own best current `S_g/2` clamped to
//!   `[a, b]`;
//! * the **lower bound** is the program's partition at the interval's
//!   midpoint, scored by [`ArraySolver::mpp`].
//!
//! It stops once the highest open upper bound is within [`CERTIFIED_GAP`]
//! of the best wiring found, so the returned wiring is optimal to that
//! relative gap and the bound caps every wiring in the window.  The fault
//! rules are the solver's: open modules drop out of their group's sums, a
//! group holding a shorted module contributes nothing, and a group whose
//! every module is open breaks the string (the wiring delivers nothing).

use std::ops::RangeInclusive;

use teg_array::{ArraySolver, Configuration, FaultState, ModuleFault, TegArray};
use teg_units::{TemperatureDelta, Watts};

use crate::error::ReconfigError;

/// The relative gap every certificate closes to:
/// `upper_bound − power ≤ CERTIFIED_GAP · upper_bound`.
pub const CERTIFIED_GAP: f64 = 1e-9;

/// Relative headroom added to the bound for the rounding difference
/// between the program's per-group terms and the solver's closed form.
/// Both start from bit-identical group sums, so the two differ by a few
/// ulps per group; this is orders of magnitude above that and below
/// [`CERTIFIED_GAP`].
const ROUNDING_SLACK: f64 = 1e-12;

/// A wiring with its solved MPP power and a certified upper bound on the
/// MPP power of every wiring in the searched group-count window.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedOptimum {
    configuration: Configuration,
    power: Watts,
    upper_bound: Watts,
}

impl CertifiedOptimum {
    /// The optimal wiring (to within [`CERTIFIED_GAP`]).
    #[must_use]
    pub const fn configuration(&self) -> &Configuration {
        &self.configuration
    }

    /// The wiring's MPP power, bit for bit as [`ArraySolver::mpp`] reports
    /// it.
    #[must_use]
    pub const fn power(&self) -> Watts {
        self.power
    }

    /// No wiring in the window delivers more than this.
    #[must_use]
    pub const fn upper_bound(&self) -> Watts {
        self.upper_bound
    }
}

/// Finds the best contiguous partition of `array` at `deltas` (under
/// `faults`) whose group count lies in `groups`, with a certificate that
/// `upper_bound − power ≤ CERTIFIED_GAP · upper_bound`.  Over the full
/// window `1..=N` each bound costs `O(N²)`; a narrower window adds a
/// group-count dimension, `O(n_max · N²)`.  The earliest best partition of
/// each program wins ties, so the result is deterministic.
///
/// # Errors
///
/// Returns [`ReconfigError::InvalidParameter`] for an empty window or one
/// reaching outside `1..=N`, and [`ReconfigError::Array`] when `deltas` or
/// `faults` does not cover the array.
///
/// # Examples
///
/// ```
/// use teg_array::TegArray;
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::{certified_optimum, Inor, CERTIFIED_GAP};
/// use teg_units::TemperatureDelta;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 24);
/// let deltas: Vec<_> = (0..24).map(|i| TemperatureDelta::new(70.0 - 1.5 * i as f64)).collect();
/// let opt = certified_optimum(&array, &deltas, None, 1..=24)?;
/// let bound = opt.upper_bound().value();
/// assert!(bound - opt.power().value() <= CERTIFIED_GAP * bound);
/// let (_, inor) = Inor::default().optimise(&array, &deltas)?;
/// assert!(inor.value() <= bound);
/// # Ok(())
/// # }
/// ```
pub fn certified_optimum(
    array: &TegArray,
    deltas: &[TemperatureDelta],
    faults: Option<&FaultState>,
    groups: RangeInclusive<usize>,
) -> Result<CertifiedOptimum, ReconfigError> {
    let n = array.len();
    let (lo, hi) = (*groups.start(), *groups.end());
    if lo == 0 || lo > hi || hi > n {
        return Err(ReconfigError::InvalidParameter {
            name: "group-count window",
            value: if lo == 0 || lo > hi { lo } else { hi } as f64,
        });
    }
    let mut solver = ArraySolver::new();
    solver.load(array, deltas, faults)?;
    let mut program = Program::new(array, deltas, faults, lo, hi);

    // Every wiring's MPP current is a 1/G-weighted mean of its groups'
    // S_g/2, so no optimum lies above the largest span's S/2.
    let top = program
        .spans
        .iter()
        .filter(|span| !span.shorted)
        .fold(0.0_f64, |top, span| top.max(span.s / 2.0));

    let mut best = None;
    let mut live = Vec::new();
    program.branch(&mut solver, (0.0, top), &mut best, &mut live)?;
    loop {
        let floor = best
            .as_ref()
            .map_or(0.0, |(_, power): &(_, Watts)| power.value());
        let highest = live
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.bound.total_cmp(&y.bound))
            .map(|(index, interval)| (index, interval.bound));
        let ceiling = highest.map_or(floor, |(_, bound)| bound.max(floor));
        let upper_bound = ceiling * (1.0 + ROUNDING_SLACK);
        match highest {
            Some((index, _)) if upper_bound - floor > CERTIFIED_GAP * upper_bound => {
                let Interval { a, b, .. } = live.swap_remove(index);
                let mid = 0.5 * (a + b);
                program.branch(&mut solver, (a, mid), &mut best, &mut live)?;
                program.branch(&mut solver, (mid, b), &mut best, &mut live)?;
            }
            _ => {
                let (configuration, power) = match best {
                    Some(found) => found,
                    // Every wiring in the window breaks the string.
                    None => {
                        let configuration = Configuration::uniform(n, lo)?;
                        let power = solver.mpp(&configuration)?.power();
                        (configuration, power)
                    }
                };
                return Ok(CertifiedOptimum {
                    configuration,
                    power,
                    upper_bound: Watts::new(upper_bound),
                });
            }
        }
    }
}

/// A current interval still open, with its upper bound.
struct Interval {
    a: f64,
    b: f64,
    bound: f64,
}

/// One contiguous span of modules as a group: its Norton sums, accumulated
/// in module order exactly as the solver accumulates them, and its state.
#[derive(Clone, Copy)]
struct Span {
    s: f64,
    g: f64,
    shorted: bool,
}

impl Span {
    /// The group's power term at string current `current`: zero when
    /// shorted, `None` when every module is open (the string breaks).
    fn term(self, current: f64) -> Option<f64> {
        if self.shorted {
            Some(0.0)
        } else if self.g > 0.0 {
            Some((current * self.s - current * current) / self.g)
        } else {
            None
        }
    }

    /// The group's tangent at `mid` read at `end`: its term at `end` plus
    /// `(end − mid)²/G`.  The tangent lies on or above the concave term, and
    /// a wiring's summed tangents are linear in the current, so over an
    /// interval around `mid` their larger end value caps the wiring — a
    /// bound that tightens with the square of the interval's width.
    fn tangent(self, mid: f64, end: f64) -> Option<f64> {
        let curvature = if self.shorted {
            0.0
        } else {
            (end - mid) * (end - mid) / self.g
        };
        self.term(end).map(|term| term + curvature)
    }
}

/// The partition program: every span's sums (span `start..end` at
/// `start * n + end - 1`), the window and reusable tables.
struct Program {
    n: usize,
    lo: usize,
    hi: usize,
    spans: Vec<Span>,
    values: Vec<f64>,
    best: Vec<f64>,
    from: Vec<usize>,
}

impl Program {
    fn new(
        array: &TegArray,
        deltas: &[TemperatureDelta],
        faults: Option<&FaultState>,
        lo: usize,
        hi: usize,
    ) -> Self {
        let n = array.len();
        let terms: Vec<(f64, f64, bool)> = (0..n)
            .map(|i| {
                let shorted =
                    faults.is_some_and(|f| f.module_fault(i) == Some(ModuleFault::ShortCircuit));
                let (g, ge) = array
                    .module_source(i, deltas[i], faults)
                    .map_or((0.0, 0.0), |(g, e)| (g, g * e));
                (g, ge, shorted)
            })
            .collect();
        let mut spans = Vec::with_capacity(n * n);
        for start in 0..n {
            let mut span = Span {
                s: 0.0,
                g: 0.0,
                shorted: false,
            };
            // Spans ending before `start` are never read.
            spans.resize(start * n + start, span);
            for &(g, ge, shorted) in &terms[start..] {
                span.s += ge;
                span.g += g;
                span.shorted |= shorted;
                spans.push(span);
            }
        }
        Self {
            n,
            lo,
            hi,
            spans,
            values: vec![0.0; n * n],
            best: Vec::new(),
            from: Vec::new(),
        }
    }

    /// Bounds the interval, scores its midpoint's partition with the solver
    /// and keeps the interval open when it may still beat the best wiring.
    fn branch(
        &mut self,
        solver: &mut ArraySolver,
        (a, b): (f64, f64),
        best: &mut Option<(Configuration, Watts)>,
        live: &mut Vec<Interval>,
    ) -> Result<(), ReconfigError> {
        let Some((clamped, _)) = self.solve(|span| span.term((span.s / 2.0).clamp(a, b))) else {
            return Ok(());
        };
        let mid = 0.5 * (a + b);
        let mut tangent = |end: f64| {
            self.solve(|span| span.tangent(mid, end))
                .map_or(f64::NEG_INFINITY, |(total, _)| total)
        };
        let bound = clamped.min(tangent(a).max(tangent(b)));
        let (_, starts) = self
            .solve(|span| span.term(mid))
            .expect("a window with a feasible partition has one at every current");
        let configuration = Configuration::new(starts, self.n)?;
        let power = solver.mpp(&configuration)?.power();
        if best.as_ref().is_none_or(|(_, top)| power > *top) {
            *best = Some((configuration, power));
        }
        if best.as_ref().is_some_and(|(_, top)| bound > top.value()) {
            live.push(Interval { a, b, bound });
        }
        Ok(())
    }

    /// The best partition under per-span values `value(span)` and its
    /// group starts; `None` when every partition in the window breaks the
    /// string.  The earliest best wins ties.
    fn solve(&mut self, value: impl Fn(Span) -> Option<f64>) -> Option<(f64, Vec<usize>)> {
        let n = self.n;
        for start in 0..n {
            for end in start + 1..=n {
                let index = start * n + end - 1;
                self.values[index] = value(self.spans[index]).unwrap_or(f64::NEG_INFINITY);
            }
        }
        // best[k * (n + 1) + end]: the best split of modules 0..end into k
        // groups; over the full window one row with a free count suffices.
        let free = self.lo == 1 && self.hi == n;
        let width = n + 1;
        let rows = if free { 1 } else { self.hi + 1 };
        self.best.clear();
        self.best.resize(rows * width, f64::NEG_INFINITY);
        self.from.clear();
        self.from.resize(rows * width, 0);
        self.best[0] = 0.0;
        for row in usize::from(!free)..rows {
            let prev = row.saturating_sub(1) * width;
            for end in 1..=n {
                let (mut top, mut arg) = (f64::NEG_INFINITY, 0);
                for start in 0..end {
                    let candidate = self.best[prev + start] + self.values[start * n + end - 1];
                    if candidate > top {
                        top = candidate;
                        arg = start;
                    }
                }
                self.best[row * width + end] = top;
                self.from[row * width + end] = arg;
            }
        }
        let mut row = if free { 0 } else { self.lo };
        for k in self.lo + 1..rows {
            if self.best[k * width + n] > self.best[row * width + n] {
                row = k;
            }
        }
        let total = self.best[row * width + n];
        if total == f64::NEG_INFINITY {
            return None;
        }
        let mut starts = Vec::with_capacity(row.max(1));
        let mut end = n;
        while end > 0 {
            let start = self.from[row * width + end];
            starts.push(start);
            end = start;
            row = row.saturating_sub(usize::from(!free));
        }
        starts.reverse();
        Some((total, starts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ehtr, Inor};
    use proptest::prelude::*;
    use teg_device::{TegDatasheet, TegModule, VariationModel};

    fn array(n: usize, tolerance: f64, seed: u64) -> TegArray {
        let nominal = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
        let variation = VariationModel::new(tolerance, tolerance).expect("valid tolerance");
        TegArray::new(variation.apply(&nominal, n, seed).expect("in range")).expect("non-empty")
    }

    fn gradient(n: usize) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| TemperatureDelta::new(70.0 * (-0.9 * i as f64 / n as f64).exp()))
            .collect()
    }

    /// The contiguous partition whose group boundaries are the set bits of
    /// `mask` (bit `i − 1` ⇒ a group starts at module `i`).
    fn partition(n: usize, mask: u64) -> Configuration {
        let starts = std::iter::once(0)
            .chain((1..n).filter(|i| mask >> (i - 1) & 1 == 1))
            .collect();
        Configuration::new(starts, n).expect("increasing starts")
    }

    /// Two bits per module select healthy / open / short / derated.
    fn fault_state(n: usize, mask: u64, derating: f64) -> FaultState {
        let mut faults = FaultState::healthy(n);
        for i in 0..n {
            let fault = match mask >> (2 * i) & 0b11 {
                1 => ModuleFault::OpenCircuit,
                2 => ModuleFault::ShortCircuit,
                3 => ModuleFault::Derated(derating),
                _ => continue,
            };
            faults.set_module_fault(i, fault).expect("in range");
        }
        faults
    }

    #[test]
    fn windows_outside_the_array_and_mismatched_inputs_are_refused() {
        let a = array(6, 0.0, 1);
        let deltas = gradient(6);
        for (lo, hi) in [(0, 3), (4, 3), (1, 7)] {
            let err = certified_optimum(&a, &deltas, None, lo..=hi).unwrap_err();
            assert!(
                matches!(err, ReconfigError::InvalidParameter { .. }),
                "{lo}..={hi}"
            );
        }
        assert!(matches!(
            certified_optimum(&a, &deltas[..5], None, 1..=6),
            Err(ReconfigError::Array(_))
        ));
        let faults = FaultState::healthy(5);
        assert!(certified_optimum(&a, &deltas, Some(&faults), 1..=6).is_err());
    }

    #[test]
    fn an_array_that_cannot_deliver_is_certified_at_zero() {
        let a = array(5, 0.0, 1);
        let deltas = gradient(5);
        let mut faults = FaultState::healthy(5);
        for i in 0..5 {
            faults
                .set_module_fault(i, ModuleFault::OpenCircuit)
                .unwrap();
        }
        let opt = certified_optimum(&a, &deltas, Some(&faults), 2..=3).unwrap();
        assert_eq!(opt.power(), Watts::ZERO);
        assert_eq!(opt.upper_bound(), Watts::ZERO);
        assert_eq!(opt.configuration().group_count(), 2);
        let cold = vec![TemperatureDelta::new(0.0); 5];
        let opt = certified_optimum(&a, &cold, None, 1..=5).unwrap();
        assert_eq!(opt.power().value(), 0.0);
        assert_eq!(opt.upper_bound().value(), 0.0);
    }

    #[test]
    fn the_greedy_schemes_stay_under_the_certificate_and_near_it() {
        for seed in [3, 17] {
            let a = array(40, 0.2, seed);
            let deltas = gradient(40);
            let (n_min, n_max) = Inor::default().group_bounds(&a, &deltas);
            let opt = certified_optimum(&a, &deltas, None, n_min..=n_max).unwrap();
            let full = certified_optimum(&a, &deltas, None, 1..=40).unwrap();
            assert!(opt.upper_bound() <= full.upper_bound());
            for (_, power) in [
                Inor::default().optimise(&a, &deltas).unwrap(),
                Ehtr::default().optimise(&a, &deltas).unwrap(),
            ] {
                assert!(power <= opt.upper_bound(), "seed {seed}");
                assert!(power.value() >= 0.99 * opt.power().value(), "seed {seed}");
            }
        }
    }

    proptest! {
        /// Against exhaustive enumeration of every contiguous partition:
        /// the returned wiring is in the window, covers every module, solves
        /// to its reported power, lies within the certified gap of the
        /// enumeration maximum, and no in-window wiring beats the bound —
        /// healthy and faulted (open, short, derated).
        #[test]
        fn prop_the_certificate_holds_against_exhaustive_enumeration(
            n in 1usize..13,
            tolerance in 0.0_f64..0.4,
            variation_seed in 0u64..u64::MAX,
            temperatures in collection::vec(-10.0_f64..90.0, 12),
            fault_mask in 0u64..u64::MAX,
            derating in 0.05_f64..1.0,
            lo in 1usize..13,
            span in 0usize..13,
        ) {
            let a = array(n, tolerance, variation_seed);
            let deltas: Vec<_> = temperatures[..n].iter().copied().map(TemperatureDelta::new).collect();
            let faults = fault_state(n, fault_mask, derating);
            let lo = lo.min(n);
            let hi = (lo + span).min(n);
            let mut solver = ArraySolver::new();
            for active in [None, Some(&faults)] {
                let opt = certified_optimum(&a, &deltas, active, lo..=hi).unwrap();
                let bound = opt.upper_bound().value();
                prop_assert!(bound - opt.power().value() <= CERTIFIED_GAP * bound);

                let config = opt.configuration();
                prop_assert_eq!(config.module_count(), n);
                prop_assert_eq!(config.group_starts()[0], 0);
                prop_assert!(config.group_starts().windows(2).all(|w| w[0] < w[1]));
                prop_assert!((lo..=hi).contains(&config.group_count()));

                solver.load(&a, &deltas, active).unwrap();
                let solved = solver.mpp(config).unwrap().power();
                prop_assert_eq!(solved.value().to_bits(), opt.power().value().to_bits());

                let mut enumerated = f64::NEG_INFINITY;
                for mask in 0..1u64 << (n - 1) {
                    let wiring = partition(n, mask);
                    if !(lo..=hi).contains(&wiring.group_count()) {
                        continue;
                    }
                    let power = solver.mpp(&wiring).unwrap().power().value();
                    prop_assert!(power <= bound, "{wiring:?}: {power} above the bound {bound}");
                    enumerated = enumerated.max(power);
                }
                prop_assert!(opt.power().value() <= enumerated);
                prop_assert!(enumerated - opt.power().value() <= CERTIFIED_GAP * bound);
            }
        }
    }
}
