//! The reusable, batched electrical solver.
//!
//! The reconfiguration algorithms are candidate scans: INOR/EHTR evaluate
//! every feasible group count and DNOR additionally integrates predicted
//! power over a forecast horizon.  Routing each candidate through
//! [`TegArray::mpp_power`] re-validates the configuration, re-walks the
//! module list and re-derives every module's Seebeck EMF and internal
//! conductance from scratch — twice (once for the optimum current, once for
//! the operating point).  [`ArraySolver`] splits that work by how often it
//! changes: caller-owned scratch buffers plus the one solve kernel, so that
//! after the buffers warm up every solve is allocation-free.
//! [`ArraySolver::load`] derives the per-module EMF/conductance terms for
//! one ΔT vector (and optional [`FaultState`]) **once**; every later solve
//! only accumulates its configuration's group sums against them.
//!
//! The kernel performs the same IEEE-754 operations in the same order as
//! the original per-call path, so results are **bit-identical** — the
//! golden traces and the property suite below pin this down.
//!
//! # When to use which API
//!
//! * Scanning many candidate partitions at one ΔT vector (a reconfiguration
//!   inner loop): [`ArraySolver::load`] + [`ArraySolver::evaluate_candidates`]
//!   (or per-candidate [`ArraySolver::mpp_power`]).
//! * Solving several wirings, or one wiring at many currents, at one ΔT
//!   vector (a simulation step shared by every scheme of a lockstep field,
//!   an MPPT loop): [`ArraySolver::load`] once, then [`ArraySolver::mpp`] /
//!   [`ArraySolver::operate_at`] per wiring or current.
//! * One-off solves where convenience beats throughput: the original
//!   [`TegArray`] methods, which are now thin wrappers over this kernel.
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
//! let array = TegArray::uniform(module, 12);
//! let deltas: Vec<_> = (0..12).map(|i| TemperatureDelta::new(70.0 - 2.0 * i as f64)).collect();
//!
//! // Batched candidate scan: module terms derived once, shared by all.
//! let candidates: Vec<_> = (1..=6)
//!     .map(|n| Configuration::uniform(12, n).expect("valid"))
//!     .collect();
//! let mut solver = ArraySolver::new();
//! let mut powers = Vec::new();
//! solver.load(&array, &deltas, None)?;
//! solver.evaluate_candidates(&candidates, &mut powers)?;
//! assert_eq!(powers.len(), 6);
//!
//! // Full operating points against the same loaded terms.
//! let point = solver.mpp(&candidates[3])?;
//! assert_eq!(point.power(), powers[3]);
//! let half = solver.operate_at(&candidates[3], point.current() * 0.5)?;
//! assert!(half.power() < point.power());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use teg_units::{Amps, TemperatureDelta, Volts, Watts};

use crate::configuration::Configuration;
use crate::electrical::{GroupOperatingPoint, TegArray};
use crate::error::ArrayError;
use crate::fault::{FaultState, ModuleFault};

/// The solved array state one kernel invocation produces: string current,
/// terminal voltage and delivered power.  Per-group detail stays in the
/// solver's scratch ([`ArraySolver::group_points`]) so the summary is
/// `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolvedPoint {
    current: Amps,
    voltage: Volts,
    power: Watts,
}

impl SolvedPoint {
    /// String current flowing through every group.
    #[must_use]
    pub const fn current(&self) -> Amps {
        self.current
    }

    /// Total array terminal voltage.
    #[must_use]
    pub const fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Total delivered power.
    #[must_use]
    pub const fn power(&self) -> Watts {
        self.power
    }
}

/// Every `load` stamps the solver with a fresh value from this
/// process-wide counter, so a [`GroupSumMemo`] can tell "same terms" apart
/// from "anything changed" — even across distinct
/// solver instances sharing one memo.
static LOAD_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    LOAD_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// An old/new incremental table for search-style candidate scans: memoised
/// per-range group sums `(S_g, G_g, shorted)` keyed by the half-open module
/// range `(start, end)`.
///
/// Population-based searches (the ACO scheme) evaluate many partitions that
/// differ from the incumbent in only a few boundaries, so most of their
/// group ranges repeat across ants and generations.  The per-candidate MPP
/// cost is dominated by the O(modules) range accumulation;
/// [`ArraySolver::evaluate_candidates_with_memo`] reuses a cached sum for
/// every range it has already accumulated under the current load generation
/// and falls back to the range kernel on a miss — cached or not, the value
/// is produced by the same function, so results are **bit-identical** to
/// [`ArraySolver::evaluate_candidates`].
///
/// The memo self-invalidates: [`ArraySolver::load`] stamps the solver with
/// a fresh generation, and a memo whose generation disagrees is cleared
/// before use.
/// Stale reuse is therefore impossible, even when one memo is passed
/// between different solvers.
#[derive(Debug, Clone, Default)]
pub struct GroupSumMemo {
    generation: u64,
    entries: HashMap<(usize, usize), (f64, f64, bool)>,
    hits: u64,
    computed: u64,
}

impl GroupSumMemo {
    /// Creates an empty memo; it binds to a solver's loaded terms on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Range lookups served from the table since construction (cumulative
    /// across invalidations).
    #[must_use]
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Range sums computed and inserted since construction (cumulative
    /// across invalidations).
    #[must_use]
    pub const fn computed(&self) -> u64 {
        self.computed
    }

    /// Number of distinct ranges currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table currently caches nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached ranges (the statistics counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.generation = 0;
    }
}

/// The reusable electrical solve kernel with caller-owned scratch.
///
/// All buffers grow to the largest array solved and are then recycled:
/// after warm-up no method allocates.  A solver is cheap to create and
/// carries no observable state — only scratch — so cloning or defaulting
/// one anywhere is always correct.  Group sums run in module order with the
/// reference rounding, matching the legacy per-call path bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ArraySolver {
    // Per-module terms of the loaded ΔT vector (zero while nothing loaded).
    loaded_modules: usize,
    // Stamp of the currently loaded terms; see `LOAD_GENERATION`.
    load_generation: u64,
    g: Vec<f64>,
    ge: Vec<f64>,
    connected: Vec<bool>,
    short: Vec<bool>,
    // Per-group Norton sums of the most recent evaluation.
    group_s: Vec<f64>,
    group_g: Vec<f64>,
    group_shorted: Vec<bool>,
    // Per-group operating points of the most recent full solve.
    groups: Vec<GroupOperatingPoint>,
}

impl ArraySolver {
    /// Creates an empty solver; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the per-module EMF/conductance terms for one ΔT vector and
    /// optional fault state, to be shared by every subsequent candidate
    /// evaluation ([`ArraySolver::mpp`], [`ArraySolver::mpp_power`],
    /// [`ArraySolver::operate_at`], [`ArraySolver::evaluate_candidates`]).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::DimensionMismatch`] when the ΔT vector length
    /// does not match the array, or [`ArrayError::InvalidConfiguration`]
    /// when the fault state covers a different module count.
    pub fn load(
        &mut self,
        array: &TegArray,
        deltas: &[TemperatureDelta],
        faults: Option<&FaultState>,
    ) -> Result<(), ArrayError> {
        let n = array.len();
        if deltas.len() != n {
            return Err(ArrayError::DimensionMismatch {
                modules: n,
                temperatures: deltas.len(),
            });
        }
        if let Some(faults) = faults {
            if faults.module_count() != n {
                return Err(ArrayError::InvalidConfiguration {
                    reason: format!(
                        "fault state covers {} modules but the array has {n}",
                        faults.module_count()
                    ),
                });
            }
        }
        self.reset_terms(n);
        // Parallel indexing of the scratch arrays and the ΔT vector.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            self.short[i] =
                faults.is_some_and(|f| f.module_fault(i) == Some(ModuleFault::ShortCircuit));
            match array.module_source(i, deltas[i], faults) {
                Some((g, e)) => {
                    self.g[i] = g;
                    self.ge[i] = g * e;
                    self.connected[i] = true;
                }
                None => self.connected[i] = false,
            }
        }
        Ok(())
    }

    fn reset_terms(&mut self, n: usize) {
        self.load_generation = next_generation();
        self.loaded_modules = n;
        self.g.clear();
        self.g.resize(n, 0.0);
        self.ge.clear();
        self.ge.resize(n, 0.0);
        self.connected.clear();
        self.connected.resize(n, true);
        self.short.clear();
        self.short.resize(n, false);
    }

    /// Analytic maximum power point of one candidate against the loaded
    /// terms (see [`TegArray::maximum_power_point`] for the electrical
    /// semantics; results are bit-identical).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when no terms are
    /// loaded or the candidate covers a different module count.
    pub fn mpp(&mut self, candidate: &Configuration) -> Result<SolvedPoint, ArrayError> {
        self.check_candidate(candidate)?;
        Ok(self.mpp_validated(candidate))
    }

    /// [`ArraySolver::mpp`] for a candidate that has already passed
    /// [`ArraySolver::check_candidate`] — the infallible inner scan.
    fn mpp_validated(&mut self, candidate: &Configuration) -> SolvedPoint {
        let n = candidate.group_count();
        if !self.accumulate_groups(candidate.group_starts(), self.loaded_modules) {
            return self.zero_point(n);
        }
        self.mpp_from_groups(n)
    }

    /// Total MPP power of one candidate against the loaded terms.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ArraySolver::mpp`].
    pub fn mpp_power(&mut self, candidate: &Configuration) -> Result<Watts, ArrayError> {
        Ok(self.mpp(candidate)?.power())
    }

    /// Solves one candidate at an imposed string current against the loaded
    /// terms (see [`TegArray::operate_at`]; results are bit-identical).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ArraySolver::mpp`].
    pub fn operate_at(
        &mut self,
        candidate: &Configuration,
        current: Amps,
    ) -> Result<SolvedPoint, ArrayError> {
        self.check_candidate(candidate)?;
        let n = candidate.group_count();
        if !self.accumulate_groups(candidate.group_starts(), self.loaded_modules) {
            return Ok(self.zero_point(n));
        }
        Ok(self.operate_from_groups(n, current))
    }

    /// Evaluates the MPP power of every candidate against the loaded terms,
    /// pushing one result per candidate into `out` (cleared first).  The
    /// per-module terms are computed once by [`ArraySolver::load`] and
    /// shared — the amortisation the reconfiguration scans rely on.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ArraySolver::mpp`], but every candidate is
    /// validated **up front**: on error `out` is left untouched (never
    /// partially filled), and the scan itself runs branch-free with no
    /// per-candidate early exit.
    pub fn evaluate_candidates(
        &mut self,
        candidates: &[Configuration],
        out: &mut Vec<Watts>,
    ) -> Result<(), ArrayError> {
        for candidate in candidates {
            self.check_candidate(candidate)?;
        }
        out.clear();
        out.reserve(candidates.len());
        for candidate in candidates {
            let point = self.mpp_validated(candidate);
            out.push(point.power());
        }
        Ok(())
    }

    /// [`ArraySolver::evaluate_candidates`] with an old/new incremental
    /// table: per-range group sums already accumulated under the current
    /// load generation are reused instead of re-summed, so candidates that
    /// share ranges with earlier ones (a search population mutating a few
    /// boundaries of an incumbent) cost O(groups) hash lookups instead of
    /// O(modules) arithmetic.  Results are bit-identical to the unmemoised
    /// scan — the cached value is whatever the range kernel produced on
    /// first sight.
    ///
    /// A memo bound to different loaded terms is cleared automatically before use; pass the same memo across calls
    /// between two `load`s to accumulate reuse.
    ///
    /// # Errors
    ///
    /// Same contract as [`ArraySolver::evaluate_candidates`]: every
    /// candidate is validated up front and `out` is never partially filled.
    pub fn evaluate_candidates_with_memo(
        &mut self,
        candidates: &[Configuration],
        memo: &mut GroupSumMemo,
        out: &mut Vec<Watts>,
    ) -> Result<(), ArrayError> {
        for candidate in candidates {
            self.check_candidate(candidate)?;
        }
        if memo.generation != self.load_generation {
            memo.entries.clear();
            memo.generation = self.load_generation;
        }
        out.clear();
        out.reserve(candidates.len());
        for candidate in candidates {
            let n = candidate.group_count();
            let point =
                if self.accumulate_groups_memo(candidate.group_starts(), self.loaded_modules, memo)
                {
                    self.mpp_from_groups(n)
                } else {
                    self.zero_point(n)
                };
            out.push(point.power());
        }
        Ok(())
    }

    /// Per-group operating points of the most recent full solve, in series
    /// order (valid until the next solver call).
    #[must_use]
    pub fn group_points(&self) -> &[GroupOperatingPoint] {
        &self.groups
    }

    fn check_candidate(&self, candidate: &Configuration) -> Result<(), ArrayError> {
        if self.loaded_modules == 0 {
            return Err(ArrayError::InvalidConfiguration {
                reason: "solver has no ΔT terms loaded; call ArraySolver::load first".to_owned(),
            });
        }
        if candidate.module_count() != self.loaded_modules {
            return Err(ArrayError::InvalidConfiguration {
                reason: format!(
                    "configuration covers {} modules but the array has {}",
                    candidate.module_count(),
                    self.loaded_modules
                ),
            });
        }
        Ok(())
    }

    /// Accumulates the per-group Norton sums `S_g = Σ G·E`, `G_g = Σ G` and
    /// short flags for the partition described by `starts`.  Returns
    /// `false` when a fully open, non-shorted group breaks the string (the
    /// caller reports the dead operating point).
    fn accumulate_groups(&mut self, starts: &[usize], module_count: usize) -> bool {
        let n = starts.len();
        self.group_s.clear();
        self.group_g.clear();
        self.group_shorted.clear();
        let mut broken = false;
        for j in 0..n {
            let start = starts[j];
            let end = starts.get(j + 1).copied().unwrap_or(module_count);
            let (s_g, g_g, shorted) = self.sum_range(start, end);
            broken |= g_g <= 0.0 && !shorted;
            self.group_s.push(s_g);
            self.group_g.push(g_g);
            self.group_shorted.push(shorted);
        }
        !broken
    }

    /// [`ArraySolver::accumulate_groups`] through a [`GroupSumMemo`]: each
    /// range sum is looked up first and computed only on a miss, so repeated ranges across a candidate
    /// population are accumulated exactly once.
    fn accumulate_groups_memo(
        &mut self,
        starts: &[usize],
        module_count: usize,
        memo: &mut GroupSumMemo,
    ) -> bool {
        let n = starts.len();
        self.group_s.clear();
        self.group_g.clear();
        self.group_shorted.clear();
        let mut broken = false;
        for j in 0..n {
            let start = starts[j];
            let end = starts.get(j + 1).copied().unwrap_or(module_count);
            let (s_g, g_g, shorted) = match memo.entries.get(&(start, end)) {
                Some(&sums) => {
                    memo.hits += 1;
                    sums
                }
                None => {
                    let sums = self.sum_range(start, end);
                    memo.computed += 1;
                    memo.entries.insert((start, end), sums);
                    sums
                }
            };
            broken |= g_g <= 0.0 && !shorted;
            self.group_s.push(s_g);
            self.group_g.push(g_g);
            self.group_shorted.push(shorted);
        }
        !broken
    }

    /// Sums the loaded terms over `start..end` in module order — the same
    /// order (and therefore the same rounding) as the legacy per-call path.
    fn sum_range(&self, start: usize, end: usize) -> (f64, f64, bool) {
        let mut s_g = 0.0;
        let mut g_g = 0.0;
        let mut shorted = false;
        for i in start..end {
            shorted |= self.short[i];
            if !self.connected[i] {
                continue;
            }
            s_g += self.ge[i];
            g_g += self.g[i];
        }
        (s_g, g_g, shorted)
    }

    /// Derives the optimum string current from the accumulated group sums
    /// and solves the operating point there.
    fn mpp_from_groups(&mut self, n: usize) -> SolvedPoint {
        let shorted = &self.group_shorted;
        let current = optimum_current(&self.group_s[..n], &self.group_g[..n], |j| shorted[j]);
        self.operate_from_groups(n, current)
    }

    /// Solves the operating point at an imposed current from the
    /// accumulated group sums.
    fn operate_from_groups(&mut self, n: usize, current: Amps) -> SolvedPoint {
        self.groups.clear();
        let mut total_voltage = Volts::ZERO;
        for j in 0..n {
            let voltage = group_voltage(
                self.group_s[j],
                self.group_g[j],
                self.group_shorted[j],
                current,
            );
            let power = voltage * current;
            total_voltage += voltage;
            self.groups.push(GroupOperatingPoint::new(voltage, power));
        }
        SolvedPoint {
            current,
            voltage: total_voltage,
            power: total_voltage * current,
        }
    }

    /// The dead operating point of a string broken by an all-open group.
    fn zero_point(&mut self, n: usize) -> SolvedPoint {
        self.groups.clear();
        self.groups
            .resize(n, GroupOperatingPoint::new(Volts::ZERO, Watts::ZERO));
        SolvedPoint {
            current: Amps::ZERO,
            voltage: Volts::ZERO,
            power: Watts::ZERO,
        }
    }
}

/// Total MPP power of a fault-free series string, from each group's Norton
/// sums `S_g = Σ G·E` and `G_g = Σ G` (every `G_g > 0`).
///
/// This is the closed form every [`ArraySolver`] MPP solve ends in, so a
/// caller that accumulates the sums itself — in module order, from
/// `G = 1 / R_teg` and `G·E` — gets exactly the bits
/// [`ArraySolver::mpp_power`] returns for that partition without loading
/// per-module terms or building a [`Configuration`].
///
/// # Panics
///
/// Panics if the two slices differ in length.
#[must_use]
pub fn mpp_power_from_group_sums(group_s: &[f64], group_g: &[f64]) -> Watts {
    assert_eq!(
        group_s.len(),
        group_g.len(),
        "one S_g and one G_g per group"
    );
    let current = optimum_current(group_s, group_g, |_| false);
    let voltage = group_s
        .iter()
        .zip(group_g)
        .fold(Volts::ZERO, |total, (&s_g, &g_g)| {
            total + group_voltage(s_g, g_g, false, current)
        });
    voltage * current
}

/// The MPP string current `Σ(S_g/G_g) / (2·Σ 1/G_g)`, clamped at zero.
/// Shorted groups (zero volts, zero resistance) drop out of both sums; a
/// string whose groups are all shorted is a dead short and gets zero.
fn optimum_current(group_s: &[f64], group_g: &[f64], shorted: impl Fn(usize) -> bool) -> Amps {
    let mut sum_voc = 0.0; // Σ_g S_g / G_g  (total open-circuit voltage)
    let mut sum_res = 0.0; // Σ_g 1 / G_g    (total series resistance)
    for (j, (&s_g, &g_g)) in group_s.iter().zip(group_g).enumerate() {
        if shorted(j) {
            continue;
        }
        sum_voc += s_g / g_g;
        sum_res += 1.0 / g_g;
    }
    let optimum = if sum_res > 0.0 {
        (sum_voc / (2.0 * sum_res)).max(0.0)
    } else {
        0.0
    };
    Amps::new(optimum)
}

/// One group's terminal voltage `(S_g − I) / G_g` at string current `I`
/// (zero when shorted).
fn group_voltage(s_g: f64, g_g: f64, shorted: bool, current: Amps) -> Volts {
    if shorted {
        Volts::ZERO
    } else {
        Volts::new((s_g - current.value()) / g_g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teg_device::{TegDatasheet, TegModule};

    fn module() -> TegModule {
        TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8())
    }

    fn gradient_deltas(n: usize, base: f64, span: f64) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| TemperatureDelta::new(base + span * i as f64 / n as f64))
            .collect()
    }

    /// Deterministically derives a fault pattern from a bit mask: two bits
    /// per module select healthy / open / short / derated (the same scheme
    /// the electrical proptests use).
    fn fault_pattern(n: usize, mask: u64) -> FaultState {
        let mut faults = FaultState::healthy(n);
        for i in 0..n {
            match (mask >> ((2 * i) % 64)) & 0b11 {
                1 => faults
                    .set_module_fault(i, ModuleFault::OpenCircuit)
                    .unwrap(),
                2 => faults
                    .set_module_fault(i, ModuleFault::ShortCircuit)
                    .unwrap(),
                3 => faults
                    .set_module_fault(i, ModuleFault::Derated(0.6))
                    .unwrap(),
                _ => {}
            }
        }
        faults
    }

    /// Derives an arbitrary (but always valid) partition from a bit mask:
    /// bit `i − 1` set ⇒ a group boundary before module `i`.
    fn partition_from_mask(n: usize, mask: u64) -> Configuration {
        let mut starts = vec![0usize];
        for i in 1..n {
            if (mask >> ((i - 1) % 64)) & 1 == 1 {
                starts.push(i);
            }
        }
        Configuration::new(starts, n).expect("mask-derived starts are strictly increasing")
    }

    #[test]
    fn solver_rejects_unloaded_and_mismatched_candidates() {
        let array = TegArray::uniform(module(), 6);
        let deltas = gradient_deltas(6, 40.0, 20.0);
        let config = Configuration::uniform(6, 2).unwrap();
        let mut solver = ArraySolver::new();
        assert!(solver.mpp(&config).is_err());
        solver.load(&array, &deltas, None).unwrap();
        let wrong = Configuration::uniform(8, 2).unwrap();
        assert!(solver.mpp(&wrong).is_err());
        assert!(solver.operate_at(&wrong, Amps::new(0.1)).is_err());
        let short = gradient_deltas(5, 40.0, 20.0);
        assert!(solver.load(&array, &short, None).is_err());
        let faults = FaultState::healthy(5);
        assert!(solver.load(&array, &deltas, Some(&faults)).is_err());
    }

    #[test]
    fn loaded_solves_match_the_legacy_methods_bitwise() {
        let array = TegArray::uniform(module(), 9);
        let deltas = gradient_deltas(9, 35.0, 30.0);
        let config = Configuration::new(vec![0, 2, 5], 9).unwrap();
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();

        let legacy = array.maximum_power_point(&config, &deltas).unwrap();
        let point = solver.mpp(&config).unwrap();
        assert_eq!(point.current(), legacy.current());
        assert_eq!(point.voltage(), legacy.voltage());
        assert_eq!(point.power(), legacy.power());
        assert_eq!(solver.group_points(), legacy.groups());

        let legacy = array.operate_at(&config, &deltas, Amps::new(0.42)).unwrap();
        let point = solver.operate_at(&config, Amps::new(0.42)).unwrap();
        assert_eq!(point.voltage(), legacy.voltage());
        assert_eq!(point.power(), legacy.power());
        assert_eq!(solver.group_points(), legacy.groups());
    }

    #[test]
    fn loaded_solves_validate_dimensions() {
        let array = TegArray::uniform(module(), 6);
        let other = TegArray::uniform(module(), 8);
        let config = Configuration::uniform(6, 3).unwrap();
        let mut solver = ArraySolver::new();
        let deltas = gradient_deltas(6, 40.0, 10.0);
        // A ΔT vector of the wrong length never loads.
        assert!(solver.load(&other, &deltas, None).is_err());
        let short = gradient_deltas(5, 40.0, 10.0);
        assert!(solver.load(&array, &short, None).is_err());
        // A wiring of another array size never solves against loaded terms.
        solver
            .load(&other, &gradient_deltas(8, 40.0, 10.0), None)
            .unwrap();
        assert!(solver.mpp(&config).is_err());
        assert!(solver.operate_at(&config, Amps::new(0.1)).is_err());
    }

    #[test]
    fn batch_results_arrive_in_candidate_order() {
        let array = TegArray::uniform(module(), 12);
        let deltas = gradient_deltas(12, 30.0, 35.0);
        let candidates: Vec<_> = (1..=12)
            .map(|n| Configuration::uniform(12, n).unwrap())
            .collect();
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();
        let mut powers = Vec::new();
        solver
            .evaluate_candidates(&candidates, &mut powers)
            .unwrap();
        assert_eq!(powers.len(), candidates.len());
        for (candidate, power) in candidates.iter().zip(&powers) {
            assert_eq!(*power, array.mpp_power(candidate, &deltas).unwrap());
        }
        // The output buffer is cleared on reuse, not appended to.
        solver
            .evaluate_candidates(&candidates[..3], &mut powers)
            .unwrap();
        assert_eq!(powers.len(), 3);
    }

    #[test]
    fn invalid_candidate_leaves_batch_output_untouched() {
        let array = TegArray::uniform(module(), 6);
        let deltas = gradient_deltas(6, 40.0, 20.0);
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();
        let mut powers = vec![Watts::new(1.0), Watts::new(2.0)];
        let candidates = vec![
            Configuration::uniform(6, 2).unwrap(),
            Configuration::uniform(8, 2).unwrap(), // wrong module count
        ];
        assert!(solver
            .evaluate_candidates(&candidates, &mut powers)
            .is_err());
        // Up-front validation: the stale contents survive, nothing partial.
        assert_eq!(powers.len(), 2);
        assert_eq!(powers[0], Watts::new(1.0));
    }

    #[test]
    fn an_all_open_group_breaks_the_string() {
        let array = TegArray::uniform(module(), 8);
        let deltas = gradient_deltas(8, 40.0, 10.0);
        let mut faults = FaultState::healthy(8);
        for i in 0..4 {
            faults
                .set_module_fault(i, ModuleFault::OpenCircuit)
                .unwrap();
        }
        let config = Configuration::new(vec![0, 4], 8).unwrap();
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, Some(&faults)).unwrap();
        let point = solver.mpp(&config).unwrap();
        assert_eq!(point.power(), Watts::ZERO);
        assert_eq!(point.current(), Amps::ZERO);
    }

    #[test]
    fn scratch_is_reusable_across_array_sizes() {
        let mut solver = ArraySolver::new();
        for n in [4usize, 16, 7] {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, 45.0, 15.0);
            let config = Configuration::uniform(n, (n / 2).max(1)).unwrap();
            solver.load(&array, &deltas, None).unwrap();
            let power = solver.mpp_power(&config).unwrap();
            assert_eq!(power, array.mpp_power(&config, &deltas).unwrap());
            assert_eq!(solver.group_points().len(), config.group_count());
        }
    }

    proptest! {
        /// The batched candidate API is exactly — bit for bit — the legacy
        /// per-candidate `mpp_power` / `mpp_power_faulted`, for arbitrary
        /// partitions, ΔT vectors and fault masks.  This is the contract
        /// that lets the schemes and the session switch to the kernel
        /// without re-blessing any golden trace.
        #[test]
        fn prop_batch_equals_legacy_per_candidate(
            n in 2usize..24,
            base in 0.0_f64..80.0,
            span in -30.0_f64..50.0,
            partition_seed in 0u64..u64::MAX,
            fault_mask in 0u64..u64::MAX,
        ) {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, base, span);
            let faults = fault_pattern(n, fault_mask);
            // A spread of candidates: every uniform split plus three
            // mask-derived arbitrary partitions.
            let mut candidates: Vec<_> = (1..=n)
                .map(|groups| Configuration::uniform(n, groups).unwrap())
                .collect();
            for rotate in [0, 13, 37] {
                candidates.push(partition_from_mask(n, partition_seed.rotate_left(rotate)));
            }

            let mut solver = ArraySolver::new();
            let mut powers = Vec::new();

            // Healthy: batch ≡ per-candidate mpp_power.
            solver.load(&array, &deltas, None).unwrap();
            solver.evaluate_candidates(&candidates, &mut powers).unwrap();
            for (candidate, power) in candidates.iter().zip(&powers) {
                let legacy = array.mpp_power(candidate, &deltas).unwrap();
                prop_assert_eq!(power.value().to_bits(), legacy.value().to_bits());
            }

            // Faulted: batch ≡ per-candidate mpp_power_faulted.
            solver.load(&array, &deltas, Some(&faults)).unwrap();
            solver.evaluate_candidates(&candidates, &mut powers).unwrap();
            for (candidate, power) in candidates.iter().zip(&powers) {
                let legacy = array.mpp_power_faulted(candidate, &deltas, &faults).unwrap();
                prop_assert_eq!(power.value().to_bits(), legacy.value().to_bits());
            }
        }

        /// The public closed form over caller-accumulated group sums is the
        /// solver's own healthy MPP power, bit for bit.
        #[test]
        fn prop_group_sum_power_matches_the_solver(
            n in 1usize..40,
            base in 0.0_f64..80.0,
            span in -30.0_f64..50.0,
            partition_seed in 0u64..u64::MAX,
        ) {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, base, span);
            let config = partition_from_mask(n, partition_seed);
            let mut solver = ArraySolver::new();
            solver.load(&array, &deltas, None).unwrap();
            let expected = solver.mpp_power(&config).unwrap();
            let (mut group_s, mut group_g) = (Vec::new(), Vec::new());
            for group in config.groups() {
                let (mut s_g, mut g_g) = (0.0, 0.0);
                for i in group.indices() {
                    let g = array.modules()[i].internal_conductance(deltas[i]);
                    s_g += g * array.modules()[i].open_circuit_voltage(deltas[i]).value();
                    g_g += g;
                }
                group_s.push(s_g);
                group_g.push(g_g);
            }
            let power = mpp_power_from_group_sums(&group_s, &group_g);
            prop_assert_eq!(power.value().to_bits(), expected.value().to_bits());
        }

        /// Terms loaded once per ΔT vector and solved per wiring match the
        /// legacy whole-operating-point methods bitwise, healthy and
        /// faulted, at the MPP and at arbitrary imposed currents.
        #[test]
        fn prop_loaded_solver_matches_legacy_operating_points(
            n in 2usize..20,
            base in 0.0_f64..80.0,
            span in -30.0_f64..50.0,
            partition_seed in 0u64..u64::MAX,
            fault_mask in 0u64..u64::MAX,
            frac in 0.0_f64..2.0,
        ) {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, base, span);
            let config = partition_from_mask(n, partition_seed);
            let faults = fault_pattern(n, fault_mask);
            let mut solver = ArraySolver::new();

            for active in [None, Some(&faults)] {
                solver.load(&array, &deltas, active).unwrap();
                let legacy_mpp = match active {
                    None => array.maximum_power_point(&config, &deltas).unwrap(),
                    Some(f) => array
                        .maximum_power_point_faulted(&config, &deltas, f)
                        .unwrap(),
                };
                let point = solver.mpp(&config).unwrap();
                prop_assert_eq!(point.current(), legacy_mpp.current());
                prop_assert_eq!(point.voltage(), legacy_mpp.voltage());
                prop_assert_eq!(point.power().value().to_bits(), legacy_mpp.power().value().to_bits());
                prop_assert_eq!(solver.group_points(), legacy_mpp.groups());

                let probe = legacy_mpp.current() * frac;
                let legacy_at = match active {
                    None => array.operate_at(&config, &deltas, probe).unwrap(),
                    Some(f) => array
                        .operate_at_faulted(&config, &deltas, probe, f)
                        .unwrap(),
                };
                let at = solver.operate_at(&config, probe).unwrap();
                prop_assert_eq!(at.current(), legacy_at.current());
                prop_assert_eq!(at.voltage(), legacy_at.voltage());
                prop_assert_eq!(at.power().value().to_bits(), legacy_at.power().value().to_bits());
            }
        }

        /// The memoised candidate scan is bit-identical to the direct one,
        /// for arbitrary partitions and fault patterns —
        /// whether a range sum is served from the table or freshly computed
        /// must be unobservable in the results.
        #[test]
        fn prop_memoised_scan_matches_direct_scan_bitwise(
            n in 2usize..20,
            base in 0.0_f64..80.0,
            span in -30.0_f64..50.0,
            seeds in collection::vec(0u64..u64::MAX, 1..8),
            fault_mask in 0u64..u64::MAX,
        ) {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, base, span);
            let faults = fault_pattern(n, fault_mask);
            let candidates: Vec<_> = seeds
                .iter()
                .map(|&s| partition_from_mask(n, s))
                .collect();
            let mut solver = ArraySolver::new();
            solver.load(&array, &deltas, Some(&faults)).unwrap();
            let mut direct = Vec::new();
            solver.evaluate_candidates(&candidates, &mut direct).unwrap();
            let mut memo = GroupSumMemo::new();
            let mut memoised = Vec::new();
            // Twice through the same memo: the second pass is all hits.
            for _ in 0..2 {
                solver
                    .evaluate_candidates_with_memo(&candidates, &mut memo, &mut memoised)
                    .unwrap();
                for (a, b) in direct.iter().zip(&memoised) {
                    prop_assert_eq!(a.value().to_bits(), b.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn memo_reuses_ranges_and_invalidates_on_reload() {
        let array = TegArray::uniform(module(), 8);
        let deltas = gradient_deltas(8, 50.0, 20.0);
        let candidates = vec![
            Configuration::new(vec![0, 4], 8).unwrap(),
            // Shares the leading [0, 4) range with the first candidate.
            Configuration::new(vec![0, 4, 6], 8).unwrap(),
        ];
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();
        let mut memo = GroupSumMemo::new();
        let mut out = Vec::new();
        solver
            .evaluate_candidates_with_memo(&candidates, &mut memo, &mut out)
            .unwrap();
        // Ranges [0,4) and [4,8) computed for the first candidate; the
        // second reuses [0,4) and computes [4,6) and [6,8).
        assert_eq!((memo.hits(), memo.computed()), (1, 4));
        assert_eq!(memo.len(), 4);

        // Same load generation: a repeat scan is served entirely from the
        // table.
        solver
            .evaluate_candidates_with_memo(&candidates, &mut memo, &mut out)
            .unwrap();
        assert_eq!((memo.hits(), memo.computed()), (6, 4));

        // Reloading the same terms still invalidates — the memo cannot tell
        // equal inputs apart and must never trust a stale generation.
        solver.load(&array, &deltas, None).unwrap();
        solver
            .evaluate_candidates_with_memo(&candidates, &mut memo, &mut out)
            .unwrap();
        assert_eq!((memo.hits(), memo.computed()), (7, 8));

        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn memoised_scan_validates_like_the_direct_scan() {
        let array = TegArray::uniform(module(), 6);
        let deltas = gradient_deltas(6, 40.0, 10.0);
        let mut solver = ArraySolver::new();
        let mut memo = GroupSumMemo::new();
        let mut out = vec![Watts::ZERO];
        let ok = Configuration::uniform(6, 2).unwrap();
        let wrong = Configuration::uniform(8, 2).unwrap();
        assert!(solver
            .evaluate_candidates_with_memo(std::slice::from_ref(&ok), &mut memo, &mut out)
            .is_err());
        solver.load(&array, &deltas, None).unwrap();
        assert!(solver
            .evaluate_candidates_with_memo(&[ok, wrong], &mut memo, &mut out)
            .is_err());
        // On error `out` is untouched, exactly like the direct scan.
        assert_eq!(out.len(), 1);
    }
}
