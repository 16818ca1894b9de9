//! DNOR — Durable Near-Optimal Reconfiguration (Algorithm 2).

use std::time::Instant;

use teg_array::{ArraySolver, Configuration, SwitchingOverheadModel};
use teg_predict::{MultipleLinearRegression, Predictor};
use teg_units::{Joules, Seconds, TemperatureDelta, Watts};

use crate::error::ReconfigError;
use crate::inor::{Inor, InorConfig};
use crate::telemetry::TelemetryWindow;
use crate::traits::{ReconfigDecision, Reconfigurer};

/// Tuning parameters of DNOR.
#[derive(Debug, Clone, PartialEq)]
pub struct DnorConfig {
    inor: InorConfig,
    prediction_horizon: usize,
    prediction_window: usize,
    overhead: SwitchingOverheadModel,
    period: Seconds,
}

impl DnorConfig {
    /// Creates a DNOR configuration.
    ///
    /// * `inor` — tuning of the inner INOR invocation,
    /// * `prediction_horizon` — `t_p`, the number of future seconds the
    ///   predictor looks ahead (the algorithm re-evaluates every `t_p + 1`
    ///   periods),
    /// * `prediction_window` — autoregressive window of the per-module MLR,
    /// * `overhead` — switching-overhead model used in the switch/no-switch
    ///   comparison,
    /// * `period` — how often the controller invokes DNOR (one second in the
    ///   paper, matching the 1 Hz temperature sampling).
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] if the horizon or window
    /// is zero or the period is not strictly positive.
    pub fn new(
        inor: InorConfig,
        prediction_horizon: usize,
        prediction_window: usize,
        overhead: SwitchingOverheadModel,
        period: Seconds,
    ) -> Result<Self, ReconfigError> {
        if prediction_horizon == 0 {
            return Err(ReconfigError::InvalidParameter {
                name: "prediction horizon",
                value: 0.0,
            });
        }
        if prediction_window == 0 {
            return Err(ReconfigError::InvalidParameter {
                name: "prediction window",
                value: 0.0,
            });
        }
        if !(period.value() > 0.0) {
            return Err(ReconfigError::InvalidParameter {
                name: "period",
                value: period.value(),
            });
        }
        Ok(Self {
            inor,
            prediction_horizon,
            prediction_window,
            overhead,
            period,
        })
    }

    /// The inner INOR tuning.
    #[must_use]
    pub const fn inor(&self) -> &InorConfig {
        &self.inor
    }

    /// The prediction horizon `t_p` in seconds/steps.
    #[must_use]
    pub const fn prediction_horizon(&self) -> usize {
        self.prediction_horizon
    }

    /// The autoregressive window of the per-module predictors.
    #[must_use]
    pub const fn prediction_window(&self) -> usize {
        self.prediction_window
    }

    /// The switching-overhead model used in the switch decision.
    #[must_use]
    pub const fn overhead(&self) -> &SwitchingOverheadModel {
        &self.overhead
    }

    /// The invocation period.
    #[must_use]
    pub const fn period(&self) -> Seconds {
        self.period
    }

    /// How many multiples of the autoregressive window the bounded history
    /// keeps for training.
    pub const TRAINING_SPAN_FACTOR: usize = 8;

    /// Telemetry rows DNOR asks the controller to retain: enough for the
    /// autoregressive MLR to fit on several multiples of its window (the
    /// fit needs `window + 2` rows at minimum; more rows stabilise the
    /// least-squares solve without reintroducing unbounded history).
    #[must_use]
    pub const fn lookback(&self) -> usize {
        self.prediction_window * Self::TRAINING_SPAN_FACTOR + 2
    }
}

impl Default for DnorConfig {
    /// The paper's setting: 2-second MLR prediction with a 5-sample window,
    /// default overhead model, invoked once per second.
    fn default() -> Self {
        Self {
            inor: InorConfig::default(),
            prediction_horizon: 2,
            prediction_window: 5,
            overhead: SwitchingOverheadModel::default(),
            period: Seconds::new(1.0),
        }
    }
}

/// The prediction-gated reconfiguration algorithm (the paper's headline
/// contribution).
///
/// Every `t_p + 1` invocations DNOR runs INOR on the current temperatures to
/// obtain a candidate configuration, forecasts each module's temperature for
/// the next `t_p` seconds with MLR, integrates the predicted array MPP power
/// of the old and new configurations over those `t_p + 1` seconds, and only
/// switches when the new configuration's predicted energy advantage exceeds
/// the energy cost of switching.
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::{Dnor, Reconfigurer, TelemetryWindow};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 20);
/// // Ten seconds of history with a stable gradient.
/// let history: Vec<Vec<f64>> = (0..10)
///     .map(|_| (0..20).map(|i| 94.0 - 1.3 * i as f64).collect())
///     .collect();
/// let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
/// let current = Configuration::uniform(20, 4).expect("valid");
/// let mut dnor = Dnor::default();
/// let decision = dnor.decide(&inputs, &current)?;
/// assert!(decision.evaluated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dnor {
    config: DnorConfig,
    inner: Inor,
    periods_until_evaluation: usize,
    evaluations: usize,
    switches: usize,
    // Evaluation scratch, reused across evaluations: the shared MLR (refit
    // on every evaluation) and its training series, the solver that
    // integrates the predicted energies, the forecast rows, and the current
    // and predicted ΔT rows.
    model: MultipleLinearRegression,
    series: Vec<f64>,
    solver: ArraySolver,
    forecast: Vec<Vec<f64>>,
    current_deltas: Vec<TemperatureDelta>,
    row_deltas: Vec<TemperatureDelta>,
}

/// The evaluation scratch caches derived state only, so it stays out of
/// scheme identity.
impl PartialEq for Dnor {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.inner == other.inner
            && self.periods_until_evaluation == other.periods_until_evaluation
            && self.evaluations == other.evaluations
            && self.switches == other.switches
    }
}

impl Dnor {
    /// Creates DNOR with explicit tuning parameters.
    #[must_use]
    pub fn new(config: DnorConfig) -> Self {
        let inner = Inor::new(config.inor().clone());
        let model = MultipleLinearRegression::new(config.prediction_window())
            .expect("window validated at construction");
        Self {
            config,
            inner,
            periods_until_evaluation: 0,
            evaluations: 0,
            switches: 0,
            model,
            series: Vec::new(),
            solver: ArraySolver::new(),
            forecast: Vec::new(),
            current_deltas: Vec::new(),
            row_deltas: Vec::new(),
        }
    }

    /// The tuning parameters in use.
    #[must_use]
    pub const fn config(&self) -> &DnorConfig {
        &self.config
    }

    /// Number of full evaluations (INOR + prediction) performed so far.
    #[must_use]
    pub const fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Number of times a new configuration was actually adopted.
    #[must_use]
    pub const fn switches(&self) -> usize {
        self.switches
    }

    /// Forecasts each module's temperature for the next `t_p` steps.
    ///
    /// All module temperatures are driven by the same coolant inlet signal
    /// through the radiator model, so their autoregressive dynamics are
    /// identical: one MLR is fitted on the entrance module (the strongest
    /// signal) and its coefficients are applied to every module's own recent
    /// window.  This keeps the prediction cost `O(N)` per evaluation, which
    /// is what lets DNOR undercut INOR's amortised runtime.  Modules with too
    /// little history fall back to persistence (repeating their latest
    /// temperature), which is also what the paper's controller would do
    /// before its history buffer fills.
    ///
    /// The MLR reads only the trailing `ar_window` samples, and one model
    /// serves every module, so each forecast row is computed lag by lag
    /// across all modules at once: every slot starts at `-0.0`, adds
    /// `x_k·w_k` in lag order (`x_k` from the trailing rows, then from the
    /// rows predicted so far) and finally the intercept.  That is exactly
    /// the sum `predict_next` forms per module, so the rows are
    /// bit-identical to forecasting every module's full series with
    /// `Predictor::forecast`, while the inner loop runs across modules.  The
    /// rows are written into the scheme's reused forecast buffer.
    fn predict_rows(&mut self, window: &TelemetryWindow<'_>) -> &[Vec<f64>] {
        let horizon = self.config.prediction_horizon;
        let ar_window = self.config.prediction_window;
        let history_len = window.history_len();
        let latest = window.current_temperatures();
        let rows = &mut self.forecast;
        rows.resize_with(horizon, Vec::new);

        let fitted = history_len >= ar_window + 2 && {
            window.module_series_into(0, &mut self.series);
            self.model.fit(&self.series).is_ok()
        };
        if !fitted {
            for row in rows.iter_mut() {
                row.clear();
                row.extend_from_slice(latest);
            }
            return rows;
        }

        let coefficients = self.model.coefficients().expect("fitted above");
        let (weights, intercept) = coefficients.split_at(ar_window);
        let intercept = intercept[0];
        for step in 0..horizon {
            let (predicted, rest) = rows.split_at_mut(step);
            let row = &mut rest[0];
            row.clear();
            row.resize(latest.len(), -0.0);
            for (lag, &weight) in weights.iter().enumerate() {
                // Position `step + lag` of the sequence "trailing rows, then
                // predictions" — the window `predict_next` sees at `step`.
                let k = step + lag;
                let inputs = if k < ar_window {
                    window.row(history_len - ar_window + k)
                } else {
                    predicted[k - ar_window].as_slice()
                };
                for (slot, &x) in row.iter_mut().zip(inputs) {
                    *slot += x * weight;
                }
            }
            for slot in row.iter_mut() {
                *slot += intercept;
            }
        }
        rows
    }

    /// Integrates the predicted array MPP energy of the incumbent and the
    /// candidate configuration over the current second (`current_deltas`)
    /// plus the `t_p` predicted seconds (the forecast rows), sharing one
    /// batch solve per ΔT row.
    ///
    /// Also returns the incumbent's instantaneous MPP power (the first term
    /// of its energy integral), which the switching-overhead gate needs —
    /// the kernel is deterministic, so reusing the solve is exact.
    fn predicted_energies(
        &mut self,
        window: &TelemetryWindow<'_>,
        incumbent: &Configuration,
        candidate: &Configuration,
    ) -> Result<(Joules, Joules, Watts), ReconfigError> {
        let step = self.config.period;
        let array = window.array();
        let solver = &mut self.solver;
        // The per-module EMF/conductance terms are derived once per ΔT row
        // and amortised over both configurations; each configuration's
        // energy still accumulates in row order, so the sums are
        // bit-identical to integrating the two configurations separately.
        // INOR's scan does not use this solver, so the current row is
        // loaded here before the predicted rows.
        solver.load(array, &self.current_deltas, None)?;
        let current_power = solver.mpp(incumbent)?.power();
        let mut energy_old = current_power * step;
        let mut energy_new = solver.mpp(candidate)?.power() * step;
        for row in &self.forecast {
            self.row_deltas.clear();
            TelemetryWindow::deltas_from_row_into(row, window.ambient(), &mut self.row_deltas);
            solver.load(array, &self.row_deltas, None)?;
            energy_old += solver.mpp(incumbent)?.power() * step;
            energy_new += solver.mpp(candidate)?.power() * step;
        }
        Ok((energy_old, energy_new, current_power))
    }
}

impl Default for Dnor {
    fn default() -> Self {
        Self::new(DnorConfig::default())
    }
}

impl Reconfigurer for Dnor {
    fn name(&self) -> &'static str {
        "DNOR"
    }

    fn period(&self) -> Seconds {
        self.config.period
    }

    fn lookback(&self) -> usize {
        self.config.lookback()
    }

    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        let started = Instant::now();
        let measured = || Seconds::new(started.elapsed().as_secs_f64());

        if self.periods_until_evaluation > 0 {
            self.periods_until_evaluation -= 1;
            return Ok(ReconfigDecision::keep(measured(), false, false));
        }

        self.evaluations += 1;
        self.current_deltas.clear();
        TelemetryWindow::deltas_from_row_into(
            window.current_temperatures(),
            window.ambient(),
            &mut self.current_deltas,
        );
        let (candidate, _) = self
            .inner
            .optimise_with(window.array(), &self.current_deltas)?;
        self.predict_rows(window);
        let (energy_old, energy_new, current_power) =
            self.predicted_energies(window, current, &candidate)?;

        let toggles = current.switch_toggles_to(&candidate)?;
        // The gate weighs the charge the caller fixed for this decision, so
        // under a fixed charge the decision is a pure function of the
        // window; only a caller that fixes none gets its own wall clock.
        let computation_so_far = window.fixed_charge().unwrap_or_else(measured);
        let overhead = self
            .config
            .overhead
            .event(current_power, computation_so_far, toggles)
            .total_energy();

        let switch = energy_old <= energy_new - overhead && &candidate != current;
        self.periods_until_evaluation = self.config.prediction_horizon;
        let elapsed = measured();
        // DNOR evaluates in the background while the array keeps harvesting;
        // only an actual switch interrupts the output.
        if switch {
            self.switches += 1;
            Ok(ReconfigDecision::new(candidate, elapsed, true, true))
        } else {
            Ok(ReconfigDecision::keep(elapsed, true, false))
        }
    }

    fn reset(&mut self) {
        self.periods_until_evaluation = 0;
        self.evaluations = 0;
        self.switches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryBuffer;
    use teg_array::TegArray;
    use teg_device::{TegDatasheet, TegModule};
    use teg_units::Celsius;

    fn array(n: usize) -> TegArray {
        TegArray::uniform(
            TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
            n,
        )
    }

    fn gradient_history(n: usize, steps: usize, hot: f64) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|_| (0..n).map(|i| hot - 1.2 * i as f64).collect())
            .collect()
    }

    /// A drifting, module-dependent history with enough texture that the
    /// MLR fit is non-trivial.
    fn textured_history(n: usize, steps: usize) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        let (t, i) = (t as f64, i as f64);
                        95.0 - 0.1 * i + 0.05 * t + 2.0 * (0.37 * t + 0.11 * i).sin()
                    })
                    .collect()
            })
            .collect()
    }

    /// The per-module `module_series` + `Predictor::forecast` path that
    /// `predict_rows` replaced, kept as its oracle.
    // `module` indexes both the window's series and the forecast rows.
    #[allow(clippy::needless_range_loop)]
    fn oracle_rows(dnor: &Dnor, window: &TelemetryWindow<'_>) -> Vec<Vec<f64>> {
        let horizon = dnor.config.prediction_horizon;
        let ar_window = dnor.config.prediction_window;
        let modules = window.array().len();
        let mut rows = vec![vec![0.0; modules]; horizon];
        let reference = window.module_series(0);
        let shared_model = if reference.len() >= ar_window + 2 {
            let mut mlr = MultipleLinearRegression::new(ar_window).unwrap();
            mlr.fit(&reference).ok().map(|()| mlr)
        } else {
            None
        };
        for module in 0..modules {
            let series = window.module_series(module);
            let persistence = vec![*series.last().unwrap(); horizon];
            let forecast = match &shared_model {
                Some(model) => model.forecast(&series, horizon).unwrap_or(persistence),
                None => persistence,
            };
            for (step, value) in forecast.into_iter().enumerate() {
                rows[step][module] = value;
            }
        }
        rows
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn predict_rows_match_the_per_module_forecast_oracle() {
        let overhead = SwitchingOverheadModel::default();
        let long_horizon =
            DnorConfig::new(InorConfig::default(), 7, 3, overhead, Seconds::new(1.0)).unwrap();
        for config in [DnorConfig::default(), long_horizon] {
            let mut dnor = Dnor::new(config.clone());
            let ar_window = config.prediction_window();
            for modules in [1, 7, 400] {
                let a = array(modules);
                // Persistence (too short to fit), exactly the fit minimum,
                // and the full lookback.
                for steps in [1, ar_window + 1, ar_window + 2, config.lookback()] {
                    let history = textured_history(modules, steps);
                    let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
                    assert_eq!(
                        bits(dnor.predict_rows(&inputs)),
                        bits(&oracle_rows(&dnor, &inputs)),
                        "{modules} modules, {steps} rows"
                    );
                }
                // Sensor dropouts inside the forecast's trailing rows: from
                // the second-to-last row on, every fifth module (the fitted
                // entrance module included) reads the ambient.
                let steps = config.lookback();
                let mut history = textured_history(modules, steps);
                for row in &mut history[steps - 2..] {
                    for reading in row.iter_mut().step_by(5) {
                        *reading = 25.0;
                    }
                }
                let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
                assert_eq!(
                    bits(dnor.predict_rows(&inputs)),
                    bits(&oracle_rows(&dnor, &inputs)),
                    "{modules} modules, dropout rows"
                );
                // A full ring buffer whose window spans the wrap-around.
                let mut buffer = TelemetryBuffer::new(modules, config.lookback()).unwrap();
                for row in textured_history(modules, config.lookback() + 13) {
                    buffer.push_row(&row).unwrap();
                }
                let inputs = buffer.window(&a, Celsius::new(25.0)).unwrap();
                assert_eq!(
                    bits(dnor.predict_rows(&inputs)),
                    bits(&oracle_rows(&dnor, &inputs)),
                    "{modules} modules, wrapped ring"
                );
            }
        }
    }

    #[test]
    fn config_validation() {
        let base = InorConfig::default();
        let overhead = SwitchingOverheadModel::default();
        assert!(DnorConfig::new(base.clone(), 0, 5, overhead, Seconds::new(1.0)).is_err());
        assert!(DnorConfig::new(base.clone(), 2, 0, overhead, Seconds::new(1.0)).is_err());
        assert!(DnorConfig::new(base.clone(), 2, 5, overhead, Seconds::ZERO).is_err());
        let cfg = DnorConfig::new(base, 3, 6, overhead, Seconds::new(1.0)).unwrap();
        assert_eq!(cfg.prediction_horizon(), 3);
        assert_eq!(cfg.prediction_window(), 6);
        assert!(cfg.overhead().per_toggle_energy().value() > 0.0);
        assert_eq!(cfg.period(), Seconds::new(1.0));
        assert_eq!(cfg.inor().min_converter_efficiency(), 0.9);
    }

    #[test]
    fn evaluation_happens_every_horizon_plus_one_periods() {
        let a = array(20);
        let history = gradient_history(20, 12, 94.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(20, 4).unwrap();
        let mut dnor = Dnor::default();
        let mut evaluated_pattern = Vec::new();
        let mut config = current;
        for _ in 0..9 {
            let decision = dnor.decide(&inputs, &config).unwrap();
            evaluated_pattern.push(decision.evaluated());
            if let Some(next) = decision.into_configuration() {
                config = next;
            }
        }
        // Horizon 2 → evaluate on one period, skip the next two, repeat.
        assert_eq!(
            evaluated_pattern,
            vec![true, false, false, true, false, false, true, false, false]
        );
        assert_eq!(dnor.evaluations(), 3);
    }

    #[test]
    fn stable_temperatures_lead_to_few_switches() {
        // With a constant gradient the first evaluation may adopt a better
        // configuration, but subsequent evaluations must find no advantage
        // worth the overhead and keep it — the core durability claim.
        let a = array(40);
        let history = gradient_history(40, 20, 95.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let mut config = Configuration::uniform(40, 4).unwrap();
        let mut dnor = Dnor::default();
        let mut switch_events = 0;
        for _ in 0..30 {
            let decision = dnor.decide(&inputs, &config).unwrap();
            if let Some(next) = decision.into_configuration() {
                assert_ne!(next, config, "a switch decision must change the wiring");
                switch_events += 1;
                config = next;
            }
        }
        assert!(
            switch_events <= 1,
            "expected at most one switch, saw {switch_events}"
        );
        assert_eq!(dnor.switches(), switch_events);
    }

    #[test]
    fn adopted_configuration_matches_inor_quality() {
        let a = array(50);
        let history = gradient_history(50, 15, 96.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let start = Configuration::uniform(50, 2).unwrap();
        let mut dnor = Dnor::default();
        let decision = dnor.decide(&inputs, &start).unwrap();
        let deltas = inputs.current_deltas();
        let adopted = decision.configuration().unwrap_or(&start);
        let mut solver = ArraySolver::new();
        solver.load(&a, &deltas, None).unwrap();
        let adopted_power = solver.mpp(adopted).unwrap().power();
        let (_, inor_power) = Inor::default().optimise(&a, &deltas).unwrap();
        // DNOR either adopted INOR's configuration or found the old one good
        // enough; in the latter case the start configuration was already
        // within the overhead margin of INOR.
        assert!(adopted_power.value() >= 0.8 * inor_power.value());
    }

    #[test]
    fn short_history_falls_back_to_persistence() {
        let a = array(10);
        let history = gradient_history(10, 2, 92.0); // far below window + 2
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(10, 2).unwrap();
        let mut dnor = Dnor::default();
        let decision = dnor.decide(&inputs, &current).unwrap();
        assert!(decision.evaluated());
        assert!(decision
            .configuration()
            .is_none_or(|c| c.module_count() == 10));
    }

    #[test]
    fn reset_restarts_the_evaluation_phase() {
        let a = array(10);
        let history = gradient_history(10, 10, 92.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(10, 2).unwrap();
        let mut dnor = Dnor::default();
        let first = dnor.decide(&inputs, &current).unwrap();
        assert!(first.evaluated());
        let second = dnor.decide(&inputs, &current).unwrap();
        assert!(!second.evaluated());
        dnor.reset();
        assert_eq!(dnor.evaluations(), 0);
        assert_eq!(dnor.switches(), 0);
        let third = dnor.decide(&inputs, &current).unwrap();
        assert!(third.evaluated());
    }

    #[test]
    fn trait_metadata() {
        let dnor = Dnor::default();
        assert_eq!(dnor.name(), "DNOR");
        assert_eq!(dnor.period(), Seconds::new(1.0));
    }

    #[test]
    fn the_windows_fixed_charge_drives_the_switch_gate() {
        // A two-group start under a steep gradient: INOR's candidate gains
        // far more than the switching cost at zero computation, but not
        // more than an hour of lost harvest.
        let a = array(24);
        let history = gradient_history(24, 12, 95.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        assert_eq!(inputs.fixed_charge(), None);
        let current = Configuration::uniform(24, 2).unwrap();
        let decide = |charge: f64| {
            let window = inputs.with_fixed_charge(Seconds::new(charge));
            assert_eq!(window.fixed_charge(), Some(Seconds::new(charge)));
            Dnor::default().decide(&window, &current).unwrap()
        };
        let cheap = decide(0.0);
        assert!(cheap.evaluated() && cheap.applied());
        assert!(cheap.configuration().is_some_and(|c| c != &current));
        let costly = decide(3600.0);
        assert!(costly.evaluated() && !costly.applied());
        assert_eq!(costly.configuration(), None);
    }

    #[test]
    fn a_fixed_charge_makes_decisions_bit_reproducible() {
        let a = array(24);
        let history = gradient_history(24, 12, 95.0);
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0))
            .unwrap()
            .with_fixed_charge(Seconds::new(0.002));
        let run = || {
            let mut dnor = Dnor::default();
            let mut current = Configuration::uniform(24, 4).unwrap();
            let mut trail = Vec::new();
            for _ in 0..9 {
                let decision = dnor.decide(&inputs, &current).unwrap();
                trail.push((
                    decision.configuration().cloned(),
                    decision.evaluated(),
                    decision.applied(),
                ));
                if let Some(next) = decision.into_configuration() {
                    current = next;
                }
            }
            trail
        };
        // Configurations and flags are identical across reruns: no
        // wall-clock jitter leaks into the gate.  `computation()` reports
        // the measured wall time, which the session replaces with the same
        // fixed charge.
        let first = run();
        assert!(first.iter().any(|(_, evaluated, _)| *evaluated));
        assert_eq!(first, run());
    }
}
