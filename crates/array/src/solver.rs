//! The electrical solver: the one way to solve a wired array.
//!
//! The reconfiguration algorithms are candidate scans: INOR/EHTR evaluate
//! every feasible group count and DNOR additionally integrates predicted
//! power over a forecast horizon.  [`ArraySolver`] splits the work of a
//! solve by how often it changes: caller-owned scratch buffers plus one
//! solve kernel, so that after the buffers warm up every solve is
//! allocation-free.  [`ArraySolver::load`] derives the per-module
//! EMF/conductance terms for one ΔT vector (and optional [`FaultState`])
//! **once**; every later solve only accumulates its configuration's group
//! sums against them and evaluates the closed form of the
//! [`TegArray`] model.
//!
//! Group sums run in module order — `S_g` and `G_g` in one fused pass, each
//! its own add chain — so every solve of one partition at one ΔT vector
//! produces the same bits whichever entry point asks for it — the
//! golden traces and the property suite below pin this down against an
//! independent first-principles reference.
//!
//! # When to use which API
//!
//! * Scanning many candidate partitions at one ΔT vector (a reconfiguration
//!   inner loop): [`ArraySolver::load`] + [`ArraySolver::evaluate_candidates`].
//! * Solving several wirings at one ΔT vector (a simulation step shared by
//!   every scheme of a lockstep field, a one-off solve):
//!   [`ArraySolver::load`] once, then [`ArraySolver::mpp`] per wiring.
//! * Group sums accumulated by the caller (INOR's fused scan):
//!   [`mpp_power_from_group_sums`].
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
//! # Ok(())
//! # }
//! ```

use teg_units::{Amps, TemperatureDelta, Volts, Watts};

use crate::configuration::Configuration;
use crate::electrical::TegArray;
use crate::error::ArrayError;
use crate::fault::{FaultState, ModuleFault};

/// The solved array state one kernel invocation produces: string current,
/// terminal voltage and delivered power.
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

/// The reusable electrical solve kernel with caller-owned scratch.
///
/// All buffers grow to the largest array solved and are then recycled:
/// after warm-up no method allocates.  A solver is cheap to create and
/// carries no observable state — only scratch — so cloning or defaulting
/// one anywhere is always correct.  Group sums run in module order.
#[derive(Debug, Clone, Default)]
pub struct ArraySolver {
    // Per-module terms of the loaded ΔT vector (zero while nothing loaded).
    loaded_modules: usize,
    g: Vec<f64>,
    ge: Vec<f64>,
    short: Vec<bool>,
    // Whether any loaded module is shorted: without one, no group can be.
    any_short: bool,
    // Per-group Norton sums of the most recent evaluation.
    group_s: Vec<f64>,
    group_g: Vec<f64>,
    group_shorted: Vec<bool>,
}

impl ArraySolver {
    /// Creates an empty solver; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the per-module EMF/conductance terms for one ΔT vector and
    /// optional fault state, to be shared by every subsequent candidate
    /// evaluation ([`ArraySolver::mpp`],
    /// [`ArraySolver::evaluate_candidates`]).
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
            self.any_short |= self.short[i];
            // An open module keeps the zero terms `reset_terms` wrote.
            if let Some((g, e)) = array.module_source(i, deltas[i], faults) {
                self.g[i] = g;
                self.ge[i] = g * e;
            }
        }
        Ok(())
    }

    fn reset_terms(&mut self, n: usize) {
        self.loaded_modules = n;
        self.g.clear();
        self.g.resize(n, 0.0);
        self.ge.clear();
        self.ge.resize(n, 0.0);
        self.short.clear();
        self.short.resize(n, false);
        self.any_short = false;
    }

    /// Analytic maximum power point of one candidate against the loaded
    /// terms.
    ///
    /// The optimum string current is clamped at zero: with every module at
    /// ΔT = 0 the array cannot deliver power.  Open-circuit modules drop
    /// out of their group's Norton sums; a group whose every module is open
    /// breaks the series string and the whole array collapses to the zero
    /// operating point.  A short-circuited module pins its group to zero
    /// volts (the group still passes the string current).  Derated modules
    /// contribute a scaled EMF.  Callers with stuck switch faults pass the
    /// configuration the fabric realises
    /// ([`FaultState::effective_configuration`]).
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
        if !self.accumulate_groups(candidate.group_starts(), self.loaded_modules) {
            return ZERO_POINT;
        }
        let current = optimum_current(&self.group_s, &self.group_g, |j| self.group_shorted[j]);
        self.operate_from_groups(current)
    }

    /// Solves one candidate at an imposed string current against the loaded
    /// terms, with the fault semantics of [`ArraySolver::mpp`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ArraySolver::mpp`].
    #[cfg(test)]
    pub(crate) fn operate_at(
        &mut self,
        candidate: &Configuration,
        current: Amps,
    ) -> Result<SolvedPoint, ArrayError> {
        self.check_candidate(candidate)?;
        if !self.accumulate_groups(candidate.group_starts(), self.loaded_modules) {
            return Ok(ZERO_POINT);
        }
        Ok(self.operate_from_groups(current))
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

    /// Sums the loaded terms over `start..end` in module order.  Open
    /// modules contribute their `+0.0` terms: a sum that starts at `+0.0`
    /// never becomes `-0.0` under round-to-nearest, so adding `+0.0` is the
    /// identity and skipping them would give the same bits.
    ///
    /// `S_g` and `G_g` are two independent add chains, each in module
    /// order; one fused pass lets them overlap without reordering either.
    /// The short flags are scanned only when the loaded state has a short.
    fn sum_range(&self, start: usize, end: usize) -> (f64, f64, bool) {
        let (mut s_g, mut g_g) = (0.0, 0.0);
        for (&ge, &g) in self.ge[start..end].iter().zip(&self.g[start..end]) {
            s_g += ge;
            g_g += g;
        }
        let shorted = self.any_short && self.short[start..end].contains(&true);
        (s_g, g_g, shorted)
    }

    /// Solves the operating point at an imposed current from the
    /// accumulated group sums.
    fn operate_from_groups(&self, current: Amps) -> SolvedPoint {
        let mut total_voltage = Volts::ZERO;
        for ((&s_g, &g_g), &shorted) in self
            .group_s
            .iter()
            .zip(&self.group_g)
            .zip(&self.group_shorted)
        {
            total_voltage += group_voltage(s_g, g_g, shorted, current);
        }
        SolvedPoint {
            current,
            voltage: total_voltage,
            power: total_voltage * current,
        }
    }
}

/// The dead operating point of a string broken by an all-open group.
const ZERO_POINT: SolvedPoint = SolvedPoint {
    current: Amps::ZERO,
    voltage: Volts::ZERO,
    power: Watts::ZERO,
};

/// Total MPP power of a fault-free series string, from each group's Norton
/// sums `S_g = Σ G·E` and `G_g = Σ G` (every `G_g > 0`).
///
/// This is the closed form every [`ArraySolver`] MPP solve ends in, so a
/// caller that accumulates the sums itself — in module order, from
/// `G = 1 / R_teg` and `G·E` — gets exactly the power bits
/// [`ArraySolver::mpp`] returns for that partition without loading
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
    use crate::reference::{self, fault_pattern};
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

    /// `point` equals the reference point in every bit of its current,
    /// voltage and power.
    fn bits_match(point: SolvedPoint, reference: &reference::ReferencePoint) -> bool {
        point.current().value().to_bits() == reference.current.to_bits()
            && point.voltage().value().to_bits() == reference.voltage.to_bits()
            && point.power().value().to_bits() == reference.power.to_bits()
    }

    /// The bits of a point's current, voltage and power.
    fn point_bits(point: SolvedPoint) -> [u64; 3] {
        [
            point.current().value().to_bits(),
            point.voltage().value().to_bits(),
            point.power().value().to_bits(),
        ]
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
    fn loaded_solves_match_the_reference_bitwise() {
        let array = TegArray::uniform(module(), 9);
        let deltas = gradient_deltas(9, 35.0, 30.0);
        let config = Configuration::new(vec![0, 2, 5], 9).unwrap();
        let mut solver = ArraySolver::new();
        solver.load(&array, &deltas, None).unwrap();

        let point = solver.mpp(&config).unwrap();
        assert!(bits_match(
            point,
            &reference::mpp(&array, &config, &deltas, None)
        ));
        let point = solver.operate_at(&config, Amps::new(0.42)).unwrap();
        assert!(bits_match(
            point,
            &reference::operate_at(&array, &config, &deltas, None, 0.42)
        ));
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
            let expected = reference::mpp(&array, candidate, &deltas, None).power;
            assert_eq!(power.value().to_bits(), expected.to_bits());
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
            let point = solver.mpp(&config).unwrap();
            assert!(bits_match(
                point,
                &reference::mpp(&array, &config, &deltas, None)
            ));
        }
    }

    proptest! {
        /// The batched candidate scan returns, bit for bit, the first-principles
        /// reference MPP power of every candidate and the solver's own
        /// per-candidate `mpp`, for arbitrary partitions, ΔT vectors and
        /// fault masks, healthy and faulted.
        #[test]
        fn prop_batch_equals_reference_per_candidate(
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
            for active in [None, Some(&faults)] {
                solver.load(&array, &deltas, active).unwrap();
                solver.evaluate_candidates(&candidates, &mut powers).unwrap();
                for (candidate, power) in candidates.iter().zip(&powers) {
                    let expected = reference::mpp(&array, candidate, &deltas, active).power;
                    prop_assert_eq!(power.value().to_bits(), expected.to_bits());
                    let single = solver.mpp(candidate).unwrap().power();
                    prop_assert_eq!(power.value().to_bits(), single.value().to_bits());
                }
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
            let expected = solver.mpp(&config).unwrap().power();
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

        /// A warm solver that last loaded a state with a shorted module
        /// solves a later healthy state exactly like a fresh solver: the
        /// short flag of the earlier load never leaks into the next.
        #[test]
        fn prop_a_short_never_outlives_its_load(
            n in 2usize..24,
            base in 0.0_f64..80.0,
            span in -30.0_f64..50.0,
            partition_seed in 0u64..u64::MAX,
            fault_mask in 0u64..u64::MAX,
            shorted in 0usize..24,
            frac in 0.0_f64..2.0,
        ) {
            let array = TegArray::uniform(module(), n);
            let deltas = gradient_deltas(n, base, span);
            let mut faults = fault_pattern(n, fault_mask);
            faults.set_module_fault(shorted % n, ModuleFault::ShortCircuit).unwrap();
            let mut candidates: Vec<_> = (1..=n)
                .map(|groups| Configuration::uniform(n, groups).unwrap())
                .collect();
            candidates.push(partition_from_mask(n, partition_seed));

            let mut warm = ArraySolver::new();
            warm.load(&array, &deltas, Some(&faults)).unwrap();
            for candidate in &candidates {
                warm.mpp(candidate).unwrap();
            }
            let later = gradient_deltas(n, base + 3.0, span);
            let mut fresh = ArraySolver::new();
            for active in [None, Some(&FaultState::healthy(n))] {
                warm.load(&array, &later, active).unwrap();
                fresh.load(&array, &later, active).unwrap();
                for candidate in &candidates {
                    let expected = fresh.mpp(candidate).unwrap();
                    prop_assert_eq!(point_bits(warm.mpp(candidate).unwrap()), point_bits(expected));
                    let probe = expected.current() * frac;
                    prop_assert_eq!(
                        point_bits(warm.operate_at(candidate, probe).unwrap()),
                        point_bits(fresh.operate_at(candidate, probe).unwrap())
                    );
                }
            }
        }

        /// Terms loaded once per ΔT vector and solved per wiring match the
        /// first-principles reference in every bit of current, voltage and
        /// power, healthy and faulted, at the MPP and at arbitrary imposed
        /// currents.
        #[test]
        fn prop_loaded_solver_matches_reference_operating_points(
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
                let expected = reference::mpp(&array, &config, &deltas, active);
                let point = solver.mpp(&config).unwrap();
                prop_assert!(bits_match(point, &expected), "mpp {:?} vs {:?}", point, expected);

                let probe = expected.current * frac;
                let expected = reference::operate_at(&array, &config, &deltas, active, probe);
                let at = solver.operate_at(&config, Amps::new(probe)).unwrap();
                prop_assert!(bits_match(at, &expected), "operate_at {:?} vs {:?}", at, expected);
            }
        }
    }
}
