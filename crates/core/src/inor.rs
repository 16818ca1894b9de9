//! INOR — Instantaneous Near-Optimal Reconfiguration (Algorithm 1).

use std::time::Instant;

use teg_array::{mpp_power_from_group_sums, ArrayError, ArraySolver, Configuration, TegArray};
use teg_power::Charger;
use teg_units::{Amps, Seconds, TemperatureDelta, Watts};

use crate::error::ReconfigError;
use crate::memo::DecisionMemo;
use crate::telemetry::TelemetryWindow;
use crate::traits::{ReconfigDecision, Reconfigurer};

/// Tuning parameters of INOR.
///
/// The charger model and the efficiency floor determine the feasible range of
/// group counts `[n_min, n_max]`: the array MPP voltage is roughly `n` times
/// one group's MPP voltage and must stay inside the converter's efficient
/// input window (Section III-B of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct InorConfig {
    charger: Charger,
    min_converter_efficiency: f64,
    period: Seconds,
}

impl InorConfig {
    /// Creates a configuration from a charger model, the minimum acceptable
    /// converter efficiency and the reconfiguration period.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] if the efficiency is not
    /// in `(0, 1]` or the period is not strictly positive.
    pub fn new(
        charger: Charger,
        min_converter_efficiency: f64,
        period: Seconds,
    ) -> Result<Self, ReconfigError> {
        if !(min_converter_efficiency > 0.0 && min_converter_efficiency <= 1.0) {
            return Err(ReconfigError::InvalidParameter {
                name: "minimum converter efficiency",
                value: min_converter_efficiency,
            });
        }
        if !(period.value() > 0.0) {
            return Err(ReconfigError::InvalidParameter {
                name: "reconfiguration period",
                value: period.value(),
            });
        }
        Ok(Self {
            charger,
            min_converter_efficiency,
            period,
        })
    }

    /// The charger model used to derive the group-count window.
    #[must_use]
    pub const fn charger(&self) -> &Charger {
        &self.charger
    }

    /// The efficiency floor the array voltage must keep the charger above.
    #[must_use]
    pub const fn min_converter_efficiency(&self) -> f64 {
        self.min_converter_efficiency
    }

    /// The reconfiguration period.
    #[must_use]
    pub const fn period(&self) -> Seconds {
        self.period
    }

    /// The feasible group-count window for `modules` modules whose MPP
    /// voltages sum to `vmpp_sum` (see [`Inor::group_bounds`]).
    fn group_window(&self, vmpp_sum: f64, modules: usize) -> (usize, usize) {
        let mean_vmpp = vmpp_sum / modules as f64;
        if mean_vmpp <= 1e-9 {
            // No usable temperature difference anywhere: any wiring is as
            // good as any other.
            return (1, 1);
        }
        let Some((lo, hi)) = self.charger.voltage_window(self.min_converter_efficiency) else {
            return (1, modules);
        };
        let n_min = ((lo.value() / mean_vmpp).ceil() as usize).clamp(1, modules);
        let n_max = ((hi.value() / mean_vmpp).floor() as usize).clamp(n_min, modules);
        (n_min, n_max)
    }
}

impl Default for InorConfig {
    /// The paper's evaluation setting: LTM4607-class charger into a 13.8 V
    /// lead-acid battery, a 90 % converter-efficiency floor and a 0.5 s
    /// reconfiguration period (following the photovoltaic prior work).
    fn default() -> Self {
        Self {
            charger: Charger::ltm4607_lead_acid(),
            min_converter_efficiency: 0.90,
            period: Seconds::new(0.5),
        }
    }
}

/// The `O(N)` instantaneous near-optimal reconfiguration algorithm.
///
/// For every feasible group count `n`, the chain of modules is partitioned
/// greedily so that each group's summed MPP current is as close as possible
/// to the ideal share `Σ I_MPP / n`; the candidate with the highest array MPP
/// power wins.
///
/// The scan is one fused pass: each module's EMF and resistance are derived
/// once, and the greedy partition accumulates every group's Norton sums as
/// it takes modules, so a candidate is evaluated without a second walk over
/// the modules and without building its [`Configuration`].  Only the winner
/// becomes a `Configuration`.  The result is bit-identical to partitioning
/// with [`Inor::balanced_partition`] and scoring each candidate through
/// [`ArraySolver::evaluate_candidates`].
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::{Inor, Reconfigurer, TelemetryWindow};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 30);
/// let temps: Vec<f64> = (0..30).map(|i| 96.0 - 1.2 * i as f64).collect();
/// let history = vec![temps];
/// let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
/// let current = Configuration::uniform(30, 5).expect("valid");
/// let decision = Inor::default().decide(&inputs, &current)?;
/// assert!(decision.evaluated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Inor {
    config: InorConfig,
    // Last (ΔT row → partition) pair: a 0.5 s period over 1 s steps asks the
    // same question twice per step.
    memo: DecisionMemo,
    // The window's current ΔT row, refilled on every decide.
    deltas: Vec<TemperatureDelta>,
    scan: CandidateScan,
}

/// The memo and the scan buffers cache derived state only, so they stay out
/// of scheme identity.
impl PartialEq for Inor {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl Inor {
    /// Creates INOR with explicit tuning parameters.
    #[must_use]
    pub fn new(config: InorConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The tuning parameters in use.
    #[must_use]
    pub const fn config(&self) -> &InorConfig {
        &self.config
    }

    /// Derives the feasible group-count window `[n_min, n_max]` from the
    /// charger's efficient input-voltage window and the modules' current MPP
    /// voltages.
    #[must_use]
    pub fn group_bounds(&self, array: &TegArray, deltas: &[TemperatureDelta]) -> (usize, usize) {
        let vmpp_sum = array
            .modules()
            .iter()
            .zip(deltas.iter())
            .map(|(m, &dt)| m.mpp(dt).voltage().value())
            .sum::<f64>();
        self.config.group_window(vmpp_sum, array.len())
    }

    /// Greedily partitions the chain into `n` groups whose summed MPP
    /// currents are balanced around `Σ I_MPP / n` — the inner loop of
    /// Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the number of modules; callers derive
    /// `n` from [`Inor::group_bounds`], which respects both limits.
    #[must_use]
    pub fn balanced_partition(mpp_currents: &[Amps], n: usize) -> Configuration {
        let modules = mpp_currents.len();
        assert!(
            n >= 1 && n <= modules,
            "group count {n} out of range for {modules} modules"
        );
        let total: f64 = mpp_currents.iter().map(|i| i.value()).sum();
        let ideal = total / n as f64;

        let mut starts = Vec::with_capacity(n);
        starts.push(0usize);
        let mut index = 0usize;
        for group in 0..n - 1 {
            let remaining_groups = n - 1 - group;
            // Leave at least one module for each remaining group.
            let max_take = modules - index - remaining_groups;
            let mut sum = 0.0;
            let mut taken = 0usize;
            while taken < max_take {
                let candidate = sum + mpp_currents[index + taken].value();
                // Take at least one module, then keep taking while it brings
                // the group sum closer to the ideal share.
                if taken == 0 || (candidate - ideal).abs() <= (sum - ideal).abs() {
                    sum = candidate;
                    taken += 1;
                } else {
                    break;
                }
            }
            index += taken.max(1);
            starts.push(index);
        }
        Configuration::new(starts, modules).expect("greedy partition is always valid")
    }

    /// Runs Algorithm 1 on the given ΔT vector, returning the best
    /// configuration found and its array MPP power.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconfigError::Array`] if the ΔT vector does not match
    /// the array.
    pub fn optimise(
        &self,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        CandidateScan::default().optimise(&self.config, array, deltas)
    }

    /// [`Inor::optimise`] through the scan buffers this instance owns, so a
    /// looping controller allocates only the returned [`Configuration`]
    /// once the buffers have grown to the array size.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconfigError::Array`] if the ΔT vector does not match
    /// the array.
    pub fn optimise_with(
        &mut self,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        self.scan.optimise(&self.config, array, deltas)
    }
}

/// One module's terms for the fused scan, derived from a single EMF and
/// internal-resistance evaluation.
#[derive(Debug, Clone, Copy)]
struct ModuleTerms {
    /// `I_mpp = E / (2·R)`, the quantity the greedy balances.
    mpp_current: f64,
    /// `G = 1 / R`.
    g: f64,
    /// `G·E`.
    ge: f64,
}

/// The reusable buffers of INOR's fused candidate scan.
#[derive(Debug, Clone, Default)]
struct CandidateScan {
    terms: Vec<ModuleTerms>,
    // Norton sums of the candidate being evaluated, one entry per group.
    group_s: Vec<f64>,
    group_g: Vec<f64>,
    // Group starts of the candidate being evaluated and of the best so far.
    starts: Vec<usize>,
    best_starts: Vec<usize>,
}

impl CandidateScan {
    /// Algorithm 1 in one pass over the modules plus one greedy walk per
    /// feasible group count.
    ///
    /// Every value is computed with the expressions of the unfused path —
    /// `TegArray::mpp_currents`, [`Inor::group_bounds`], `ArraySolver::load`
    /// and `ArraySolver::sum_range` — in the same order, so the winner and
    /// its power are the same bits.  The scan never sees faults, so every
    /// group is healthy.
    fn optimise(
        &mut self,
        config: &InorConfig,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        let modules = array.len();
        if deltas.len() != modules {
            return Err(ArrayError::DimensionMismatch {
                modules,
                temperatures: deltas.len(),
            }
            .into());
        }
        self.terms.clear();
        // `-0.0` is the value `f64: Sum` starts from, so the two totals are
        // the `.sum()`s of the unfused path, sign of zero included.
        let mut vmpp_sum = -0.0;
        let mut total_current = -0.0;
        for (module, &dt) in array.modules().iter().zip(deltas) {
            let e = module.open_circuit_voltage(dt);
            let r = module.internal_resistance(dt);
            let g = 1.0 / r.value();
            let mpp_current = e.value() / (2.0 * r.value());
            vmpp_sum += (e / 2.0).value();
            total_current += mpp_current;
            self.terms.push(ModuleTerms {
                mpp_current,
                g,
                ge: g * e.value(),
            });
        }

        let (n_min, n_max) = config.group_window(vmpp_sum, modules);
        // The earliest maximum wins, as in `pick_best_candidate`.
        let mut best: Option<Watts> = None;
        for n in n_min..=n_max {
            let power = self.partition_power(n, total_current);
            if best.is_none_or(|best| power > best) {
                best = Some(power);
                std::mem::swap(&mut self.starts, &mut self.best_starts);
            }
        }
        let power = best.expect("window always contains at least one group count");
        let configuration = Configuration::new(self.best_starts.clone(), modules)
            .expect("greedy partition is always valid");
        Ok((configuration, power))
    }

    /// Partitions the loaded modules into `n` groups exactly as
    /// [`Inor::balanced_partition`] does, summing each group's Norton terms
    /// as it takes modules, and returns the partition's MPP power.  The
    /// partition's group starts are left in `self.starts`.
    fn partition_power(&mut self, n: usize, total_current: f64) -> Watts {
        let modules = self.terms.len();
        let ideal = total_current / n as f64;
        self.starts.clear();
        self.group_s.clear();
        self.group_g.clear();
        let mut broken = false;
        let mut index = 0;
        for group in 0..n {
            self.starts.push(index);
            let start = index;
            let last = group + 1 == n;
            // Leave at least one module for each remaining group.
            let max_end = modules - (n - 1 - group);
            let (mut sum, mut s_g, mut g_g) = (0.0, 0.0, 0.0);
            while index < max_end {
                let term = self.terms[index];
                let candidate = sum + term.mpp_current;
                // The last group takes every remaining module.  The others
                // take at least one, then keep taking while it brings the
                // group sum closer to the ideal share.
                if last || index == start || (candidate - ideal).abs() <= (sum - ideal).abs() {
                    sum = candidate;
                    s_g += term.ge;
                    g_g += term.g;
                    index += 1;
                } else {
                    break;
                }
            }
            // A group with no conductance breaks the string.
            broken |= g_g <= 0.0;
            self.group_s.push(s_g);
            self.group_g.push(g_g);
        }
        if broken {
            Watts::ZERO
        } else {
            mpp_power_from_group_sums(&self.group_s, &self.group_g)
        }
    }
}

/// The shared candidate scan of EHTR and the oracle of INOR's fused scan:
/// load the per-module EMF and conductance terms once, evaluate every
/// candidate through the batch kernel, and keep the earliest maximum (the
/// same tie-break the original per-candidate loop used).
pub(crate) fn pick_best_candidate(
    solver: &mut ArraySolver,
    array: &TegArray,
    deltas: &[TemperatureDelta],
    candidates: Vec<Configuration>,
) -> Result<(Configuration, Watts), ReconfigError> {
    solver.load(array, deltas, None)?;
    let mut powers = Vec::with_capacity(candidates.len());
    solver.evaluate_candidates(&candidates, &mut powers)?;
    let mut best = 0;
    for (i, power) in powers.iter().enumerate() {
        if *power > powers[best] {
            best = i;
        }
    }
    let power = powers[best];
    let configuration = candidates
        .into_iter()
        .nth(best)
        .expect("window always contains at least one group count");
    Ok((configuration, power))
}

impl Reconfigurer for Inor {
    fn name(&self) -> &'static str {
        "INOR"
    }

    fn period(&self) -> Seconds {
        self.config.period
    }

    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        _current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        let started = Instant::now();
        self.deltas.clear();
        TelemetryWindow::deltas_from_row_into(
            window.current_temperatures(),
            window.ambient(),
            &mut self.deltas,
        );
        let configuration = match self.memo.lookup(&self.deltas) {
            Some(cached) => cached.clone(),
            None => {
                let (configuration, _) =
                    self.scan
                        .optimise(&self.config, window.array(), &self.deltas)?;
                self.memo.record(&self.deltas, configuration.clone());
                configuration
            }
        };
        let elapsed = Seconds::new(started.elapsed().as_secs_f64());
        // The fixed-period controller re-applies its result every period,
        // paying the reconfiguration dead time even when nothing changed.
        Ok(ReconfigDecision::new(configuration, elapsed, true, true))
    }

    fn reset(&mut self) {
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teg_array::ideal_power;
    use teg_device::{TegDatasheet, TegModule, VariationModel};
    use teg_units::{Celsius, Volts};

    fn array(n: usize) -> TegArray {
        TegArray::uniform(
            TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
            n,
        )
    }

    fn mpp_power(a: &TegArray, config: &Configuration, deltas: &[TemperatureDelta]) -> Watts {
        let mut solver = ArraySolver::new();
        solver.load(a, deltas, None).unwrap();
        solver.mpp(config).unwrap().power()
    }

    fn radiator_like_deltas(n: usize) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| TemperatureDelta::new(70.0 * (-(i as f64) * 0.8 / n as f64).exp()))
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 0.0, Seconds::new(0.5)).is_err());
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 1.1, Seconds::new(0.5)).is_err());
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 0.9, Seconds::ZERO).is_err());
        let cfg = InorConfig::new(Charger::ltm4607_lead_acid(), 0.9, Seconds::new(0.5)).unwrap();
        assert_eq!(cfg.period(), Seconds::new(0.5));
        assert_eq!(cfg.min_converter_efficiency(), 0.9);
        assert!(cfg.charger().output_voltage().value() > 13.0);
    }

    #[test]
    fn group_bounds_bracket_the_battery_voltage() {
        let inor = Inor::default();
        let a = array(100);
        let deltas = vec![TemperatureDelta::new(60.0); 100];
        let (n_min, n_max) = inor.group_bounds(&a, &deltas);
        assert!(n_min >= 1 && n_max <= 100 && n_min <= n_max);
        // The implied array voltage window must straddle 13.8 V.
        let vmpp = a.modules()[0]
            .mpp(TemperatureDelta::new(60.0))
            .voltage()
            .value();
        assert!(n_min as f64 * vmpp <= 13.8 * 2.5);
        assert!(n_max as f64 * vmpp >= 13.8 * 0.4);
    }

    #[test]
    fn zero_delta_t_collapses_bounds() {
        let inor = Inor::default();
        let a = array(10);
        let deltas = vec![TemperatureDelta::ZERO; 10];
        assert_eq!(inor.group_bounds(&a, &deltas), (1, 1));
    }

    #[test]
    fn balanced_partition_covers_all_modules() {
        let currents: Vec<Amps> = (0..17).map(|i| Amps::new(1.0 + 0.1 * i as f64)).collect();
        for n in 1..=17 {
            let config = Inor::balanced_partition(&currents, n);
            assert_eq!(config.group_count(), n);
            assert_eq!(config.module_count(), 17);
            let covered: usize = config.groups().map(|g| g.len()).sum();
            assert_eq!(covered, 17);
        }
    }

    #[test]
    fn balanced_partition_balances_group_currents() {
        // A strongly decaying current profile: a naive equal-size split would
        // put far more current in the first group than the last.
        let currents: Vec<Amps> = (0..30)
            .map(|i| Amps::new(2.0 * (-(i as f64) * 0.1).exp()))
            .collect();
        let total: f64 = currents.iter().map(|c| c.value()).sum();
        let n = 5;
        let ideal = total / n as f64;
        let config = Inor::balanced_partition(&currents, n);
        for group in config.groups() {
            let sum: f64 = group.indices().map(|i| currents[i].value()).sum();
            // Every group is within one module's worth of current of the
            // ideal share (the greedy stops when crossing the ideal).
            assert!(
                (sum - ideal).abs() <= 2.0,
                "group {group:?} sum {sum:.2} too far from ideal {ideal:.2}"
            );
        }
    }

    #[test]
    fn inor_beats_the_static_grid_under_a_gradient() {
        let a = array(100);
        let deltas = radiator_like_deltas(100);
        let inor = Inor::default();
        let (best, power) = inor.optimise(&a, &deltas).unwrap();
        let baseline = Configuration::uniform(100, 10).unwrap();
        let baseline_power = mpp_power(&a, &baseline, &deltas);
        assert!(
            power.value() > baseline_power.value(),
            "INOR {power} should beat the 10x10 baseline {baseline_power}"
        );
        assert!(best.group_count() >= 1);
        // And it cannot exceed the physical upper bound.
        let ideal = ideal_power(a.modules(), &deltas).unwrap();
        assert!(power.value() <= ideal.value() + 1e-9);
    }

    #[test]
    fn inor_reaches_a_large_fraction_of_ideal_power() {
        let a = array(100);
        let deltas = radiator_like_deltas(100);
        let (_, power) = Inor::default().optimise(&a, &deltas).unwrap();
        let ideal = ideal_power(a.modules(), &deltas).unwrap();
        let ratio = power.value() / ideal.value();
        assert!(ratio > 0.9, "INOR reached only {ratio:.3} of ideal");
    }

    #[test]
    fn decide_reports_evaluation_and_runtime() {
        let a = array(40);
        let temps: Vec<f64> = (0..40).map(|i| 95.0 - 0.9 * i as f64).collect();
        let history = vec![temps];
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(40, 4).unwrap();
        let mut inor = Inor::default();
        assert_eq!(inor.name(), "INOR");
        assert_eq!(inor.period(), Seconds::new(0.5));
        let decision = inor.decide(&inputs, &current).unwrap();
        assert!(decision.evaluated());
        assert!(decision.computation().value() >= 0.0);
        let adopted = decision
            .configuration()
            .expect("INOR always proposes a configuration");
        assert_eq!(adopted.module_count(), 40);
    }

    /// The unfused scan `optimise_with` replaced: partition every feasible
    /// group count with `balanced_partition`, then score the candidates
    /// through the batch kernel.  Kept as the fused scan's oracle.
    fn oracle_optimise(
        inor: &Inor,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> (Configuration, Watts) {
        let currents = array.mpp_currents(deltas).unwrap();
        let (n_min, n_max) = inor.group_bounds(array, deltas);
        let candidates = (n_min..=n_max)
            .map(|n| Inor::balanced_partition(&currents, n))
            .collect();
        pick_best_candidate(&mut ArraySolver::new(), array, deltas, candidates).unwrap()
    }

    fn assert_fused_matches_oracle(inor: &mut Inor, array: &TegArray, deltas: &[TemperatureDelta]) {
        let (expected, expected_power) = oracle_optimise(inor, array, deltas);
        let (fused, fused_power) = inor.optimise_with(array, deltas).unwrap();
        let bounds = inor.group_bounds(array, deltas);
        assert_eq!(
            fused,
            expected,
            "{} modules, bounds {bounds:?}",
            array.len()
        );
        assert_eq!(
            fused_power.value().to_bits(),
            expected_power.value().to_bits(),
            "{} modules, bounds {bounds:?}",
            array.len()
        );
    }

    /// A charger whose efficiency never reaches INOR's 90 % floor, so it has
    /// no voltage window and every group count `1..=N` is a candidate.
    fn windowless_inor() -> Inor {
        let charger = Charger::new(Volts::new(13.8), 0.85, 0.1, 0.5, Volts::new(2.5)).unwrap();
        Inor::new(InorConfig::new(charger, 0.9, Seconds::new(0.5)).unwrap())
    }

    /// A charger with flat efficiency: the window is open above the minimum
    /// input voltage, so the group counts run from `n_min` to `N`.
    fn flat_charger_inor() -> Inor {
        let charger = Charger::new(Volts::new(13.8), 0.95, 0.0, 0.5, Volts::new(2.5)).unwrap();
        Inor::new(InorConfig::new(charger, 0.9, Seconds::new(0.5)).unwrap())
    }

    fn varied_array(modules: usize, seed: u64) -> TegArray {
        let nominal = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
        let spread = VariationModel::new(0.05, 0.08).unwrap();
        TegArray::new(spread.apply(&nominal, modules, seed).unwrap()).unwrap()
    }

    #[test]
    fn fused_scan_matches_the_oracle_at_every_size() {
        let mut inor = Inor::default();
        let mut windowless = windowless_inor();
        for modules in 1..=400 {
            let a = varied_array(modules, modules as u64);
            let zero = vec![TemperatureDelta::ZERO; modules];
            assert_eq!(inor.group_bounds(&a, &zero), (1, 1));
            assert_fused_matches_oracle(&mut inor, &a, &zero);
            let deltas = radiator_like_deltas(modules);
            assert_fused_matches_oracle(&mut inor, &a, &deltas);
            if modules % 23 == 1 {
                assert_eq!(windowless.group_bounds(&a, &deltas), (1, modules));
                assert_fused_matches_oracle(&mut windowless, &a, &deltas);
            }
        }
    }

    #[test]
    fn fused_scan_reports_a_dimension_mismatch_like_the_oracle() {
        let a = array(8);
        let short = radiator_like_deltas(7);
        let mut inor = Inor::default();
        let fused = inor.optimise_with(&a, &short).unwrap_err();
        let unfused = ReconfigError::from(a.mpp_currents(&short).unwrap_err());
        assert_eq!(fused, unfused);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_groups_is_rejected() {
        let currents = vec![Amps::new(1.0); 4];
        let _ = Inor::balanced_partition(&currents, 0);
    }

    proptest! {
        /// The greedy partition always produces a valid configuration whose
        /// MPP power never exceeds the ideal bound, for arbitrary gradients.
        #[test]
        fn prop_partition_valid_and_bounded(
            n in 2usize..60,
            groups in 1usize..12,
            hot in 40.0_f64..110.0,
            decay in 0.0_f64..2.0,
        ) {
            prop_assume!(groups <= n);
            let a = array(n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(hot * (-(i as f64) * decay / n as f64).exp()))
                .collect();
            let currents = a.mpp_currents(&deltas).unwrap();
            let config = Inor::balanced_partition(&currents, groups);
            prop_assert_eq!(config.group_count(), groups);
            let power = mpp_power(&a, &config, &deltas);
            let ideal = ideal_power(a.modules(), &deltas).unwrap();
            prop_assert!(power.value() <= ideal.value() + 1e-6);
        }

        /// The fused scan returns the oracle's configuration and the same
        /// power bits, across sizes, module spread, charger windows and
        /// ΔT rows with dead (zero) modules or no usable ΔT at all.  One
        /// scheme per charger scans every row and size in turn, so its
        /// buffers are reused across shrinking and growing arrays.
        #[test]
        fn prop_fused_scan_matches_the_oracle(
            modules in 1usize..401,
            seed in 0u64..u64::MAX,
            hot in 0.0_f64..110.0,
            decay in 0.0_f64..3.0,
            ripple in 0.0_f64..20.0,
            dead_mask in 0u64..u64::MAX,
        ) {
            let mut schemes = [Inor::default(), windowless_inor(), flat_charger_inor()];
            for size in [modules, modules / 3 + 1] {
                let a = varied_array(size, seed);
                let gradient: Vec<_> = (0..size)
                    .map(|i| {
                        let x = i as f64 / size as f64;
                        // The ripple can push the tail below zero ΔT.
                        TemperatureDelta::new(hot * (-decay * x).exp() - ripple * (7.0 * x).sin())
                    })
                    .collect();
                let with_dead: Vec<_> = gradient
                    .iter()
                    .enumerate()
                    .map(|(i, &dt)| if (dead_mask >> (i % 64)) & 1 == 1 { TemperatureDelta::ZERO } else { dt })
                    .collect();
                let zero = vec![TemperatureDelta::ZERO; size];
                for inor in &mut schemes {
                    for deltas in [&gradient, &with_dead, &zero] {
                        assert_fused_matches_oracle(inor, &a, deltas);
                    }
                }
            }
        }

        /// INOR's chosen configuration is never worse than every uniform
        /// split inside its own group window (it can only add candidates).
        #[test]
        fn prop_inor_at_least_as_good_as_uniform_splits(
            n in 4usize..50,
            hot in 40.0_f64..100.0,
        ) {
            let a = array(n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(hot * (1.0 - 0.6 * i as f64 / n as f64)))
                .collect();
            let inor = Inor::default();
            let (_, power) = inor.optimise(&a, &deltas).unwrap();
            let (n_min, n_max) = inor.group_bounds(&a, &deltas);
            for groups in n_min..=n_max {
                let uniform = Configuration::uniform(n, groups).unwrap();
                let uniform_power = mpp_power(&a, &uniform, &deltas);
                // Allow a tiny slack: the greedy balances currents, which is
                // not always identical to the best uniform split but must be
                // competitive.
                prop_assert!(power.value() >= 0.98 * uniform_power.value());
            }
        }
    }
}
