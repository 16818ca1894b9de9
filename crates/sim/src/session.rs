//! Streaming step-wise simulation sessions.
//!
//! [`SimSession`] replaces the monolithic simulation loop: it advances one
//! drive-cycle second per [`SimSession::step`] call, feeding the scheme a
//! bounded [`TelemetryWindow`] and emitting a [`StepRecord`] the caller can
//! consume immediately — through the return value, the [`Iterator`] adapter
//! or attached [`StepObserver`] sinks.  Per-session state stays `O(window)`
//! on top of the scenario's shared, precomputed thermal trace (`O(T ×
//! modules)`, solved once and shared by every session); only
//! [`SimSession::run`], which must assemble a full [`SimulationReport`],
//! buffers records.
//!
//! A step has two halves.  The scheme-independent *plant* (`crate::plant`)
//! fires the fault plan, corrupts the sensor view and loads the true ΔT
//! row's module terms into its solver; the per-scheme *controller* pushes
//! the sensor view into the scheme's window, runs its decisions and solves
//! its wiring against the loaded terms.  A session is one plant plus one
//! controller; a [`Comparison`](crate::Comparison) shares one plant among
//! all of its controllers.
//!
//! [`SimulationReport`]: crate::SimulationReport

use teg_array::{ArraySolver, Configuration, SolvedPoint};
use teg_reconfig::{Reconfigurer, RuntimeStats, TelemetryBuffer};
use teg_units::{Joules, Seconds};

use crate::error::SimError;
use crate::plant::{Plant, PlantStep};
use crate::record::StepRecord;
use crate::report::SimulationReport;
use crate::scenario::Scenario;

/// How a session accounts the computation time of each scheme decision.
///
/// The schemes measure their own wall-clock runtime, and that measurement
/// feeds the switching-overhead model (computation extends the dead time),
/// the report's runtime statistics and DNOR's switch gate — which makes two
/// otherwise identical runs differ by timing jitter.  A parallel scenario
/// sweep that must produce byte-identical results for any worker count
/// replaces the measurement with a fixed per-decision charge; the session
/// is its only owner and hands it to every decision through the
/// [`TelemetryWindow`](teg_reconfig::TelemetryWindow).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RuntimePolicy {
    /// Charge the wall-clock time each decision actually took (the default,
    /// matching the paper's measured "Average Runtime" column).
    #[default]
    Measured,
    /// Charge every decision the same fixed computation time, making the
    /// whole simulation deterministic for every scheme, DNOR included.
    Fixed(Seconds),
}

impl RuntimePolicy {
    /// Resolves the computation time to charge for one decision.
    #[must_use]
    pub fn charge(self, measured: Seconds) -> Seconds {
        match self {
            Self::Measured => measured,
            Self::Fixed(fixed) => fixed,
        }
    }
}

/// A recycling pool of [`ArraySolver`] scratch.
///
/// Sessions draw a warm solver on creation ([`SimSession::with_solver`])
/// and hand it back when done ([`SimSession::take_solver`]); a
/// [`Comparison`](crate::Comparison) draws one for its whole field.  A
/// caller that runs many of them — a sweep worker executing cell after
/// cell — reuses the same scratch allocations throughout.  Solvers carry no
/// observable state, so pooling never changes results.
#[derive(Debug, Default)]
pub struct SolverPool {
    solvers: Vec<ArraySolver>,
}

impl SolverPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of idle solvers currently in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Returns `true` while the pool holds no idle solver.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Draws a solver from the pool, creating a fresh one when empty.
    pub fn acquire(&mut self) -> ArraySolver {
        self.solvers.pop().unwrap_or_default()
    }

    /// Returns a solver to the pool for reuse.
    pub fn release(&mut self, solver: ArraySolver) {
        self.solvers.push(solver);
    }
}

/// A streaming sink notified as a session advances.
///
/// All methods have empty defaults, so a sink implements only what it needs
/// (a CSV exporter overrides `on_step`, a switch logger `on_switch`, a
/// progress bar perhaps both).
pub trait StepObserver {
    /// Called after every simulated step with the fresh record.
    fn on_step(&mut self, record: &StepRecord) {
        let _ = record;
    }

    /// Called additionally whenever the step actually rewired the array
    /// (the black dots of Fig. 7).
    fn on_switch(&mut self, record: &StepRecord) {
        let _ = record;
    }

    /// Called once, when the session has consumed its whole drive cycle.
    fn on_finish(&mut self, summary: &SessionSummary) {
        let _ = summary;
    }
}

/// A [`StepObserver`] built from a closure, for one-off streaming sinks.
///
/// # Examples
///
/// ```
/// use teg_reconfig::Inor;
/// use teg_sim::{Scenario, SimSession, StepFn};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// use std::cell::Cell;
/// let scenario = Scenario::builder().module_count(8).duration_seconds(10).seed(1).build()?;
/// let peak = Cell::new(0.0_f64);
/// let mut observer = StepFn::new(|record| {
///     peak.set(peak.get().max(record.array_power().value()));
/// });
/// let mut inor = Inor::default();
/// let mut session = SimSession::new(&scenario, &mut inor)?;
/// session.attach(&mut observer);
/// while session.step()?.is_some() {}
/// drop(session);
/// assert!(peak.get() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct StepFn<F: FnMut(&StepRecord)> {
    callback: F,
}

impl<F: FnMut(&StepRecord)> StepFn<F> {
    /// Wraps a closure as an observer invoked on every step.
    pub fn new(callback: F) -> Self {
        Self { callback }
    }
}

impl<F: FnMut(&StepRecord)> StepObserver for StepFn<F> {
    fn on_step(&mut self, record: &StepRecord) {
        (self.callback)(record);
    }
}

/// Running totals of a session — everything Table I needs, in `O(1)` memory.
///
/// Produced by [`SimSession::summary`] at any point of the run and handed to
/// [`StepObserver::on_finish`] when the drive cycle is exhausted.
///
/// Totals are accumulated per step from exact per-step energies, while a
/// [`SimulationReport`](crate::SimulationReport) re-derives them from its
/// buffered records' *power* values; the two agree exactly for the 1-second
/// step every preset uses (the round trip is `E / step * step`), which the
/// session tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    scheme: String,
    steps: usize,
    step: Seconds,
    gross_energy: Joules,
    net_energy: Joules,
    delivered_energy: Joules,
    overhead_energy: Joules,
    ideal_energy: Joules,
    switch_count: usize,
    runtime: RuntimeStats,
    fault_events: usize,
    faulted_steps: usize,
}

impl SessionSummary {
    /// Name of the scheme driving the session.
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Steps simulated so far.
    #[must_use]
    pub const fn steps(&self) -> usize {
        self.steps
    }

    /// Simulated duration so far.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.step * self.steps as f64
    }

    /// Array energy before switching overhead.
    #[must_use]
    pub const fn gross_energy(&self) -> Joules {
        self.gross_energy
    }

    /// Array energy net of switching overhead (Table I "Energy Output").
    #[must_use]
    pub const fn net_energy(&self) -> Joules {
        self.net_energy
    }

    /// Energy delivered into the battery after the charger.
    #[must_use]
    pub const fn delivered_energy(&self) -> Joules {
        self.delivered_energy
    }

    /// Total switching-overhead energy (Table I "Switch Overhead").
    #[must_use]
    pub const fn overhead_energy(&self) -> Joules {
        self.overhead_energy
    }

    /// The integral of `P_ideal` so far.
    #[must_use]
    pub const fn ideal_energy(&self) -> Joules {
        self.ideal_energy
    }

    /// Number of reconfiguration (switch) events so far.
    #[must_use]
    pub const fn switch_count(&self) -> usize {
        self.switch_count
    }

    /// Per-invocation runtime statistics so far.
    #[must_use]
    pub const fn runtime(&self) -> &RuntimeStats {
        &self.runtime
    }

    /// Fault-plan events fired so far.
    #[must_use]
    pub const fn fault_events(&self) -> usize {
        self.fault_events
    }

    /// Steps simulated while at least one module, switch or sensor fault
    /// was active.
    #[must_use]
    pub const fn faulted_steps(&self) -> usize {
        self.faulted_steps
    }

    /// Fraction of the ideal energy captured so far.
    #[must_use]
    pub fn ideal_fraction(&self) -> f64 {
        if self.ideal_energy.value() <= 0.0 {
            0.0
        } else {
            self.net_energy.value() / self.ideal_energy.value()
        }
    }
}

/// A step-wise driver running one reconfiguration scheme over one scenario.
///
/// The session borrows the scenario's cached [`ThermalTrace`] (solved once,
/// shared with every other session over the same scenario), keeps the
/// scheme's telemetry in a ring buffer bounded by
/// [`Reconfigurer::lookback`], and honours the scheme's invocation period
/// through a phase accumulator — a 4-second-period scheme really is invoked
/// every fourth 1-second step.
///
/// [`ThermalTrace`]: crate::ThermalTrace
///
/// # Examples
///
/// Streaming a run step by step:
///
/// ```
/// use teg_reconfig::Inor;
/// use teg_sim::{Scenario, SimSession};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::builder().module_count(10).duration_seconds(20).seed(1).build()?;
/// let mut inor = Inor::default();
/// let mut session = SimSession::new(&scenario, &mut inor)?;
/// while let Some(record) = session.step()? {
///     assert!(record.array_power().value() >= 0.0);
/// }
/// assert_eq!(session.summary().steps(), 20);
/// # Ok(())
/// # }
/// ```
///
/// Or through the iterator adapter:
///
/// ```
/// use teg_reconfig::Dnor;
/// use teg_sim::{Scenario, SimSession};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::builder().module_count(10).duration_seconds(15).seed(2).build()?;
/// let mut dnor = Dnor::default();
/// let session = SimSession::new(&scenario, &mut dnor)?;
/// let records: Result<Vec<_>, _> = session.collect();
/// assert_eq!(records?.len(), 15);
/// # Ok(())
/// # }
/// ```
pub struct SimSession<'s> {
    plant: Plant<'s>,
    controller: Controller<'s>,
    observers: Vec<&'s mut dyn StepObserver>,
    finished: bool,
}

impl<'s> SimSession<'s> {
    /// Opens a session for one scheme over one scenario, resetting the
    /// scheme and solving (or reusing) the scenario's thermal trace.
    ///
    /// Every session starts from the same square-grid wiring the baseline
    /// uses, so differences between schemes come from their decisions, not
    /// their start state.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the thermal solve or the initial
    /// configuration.
    pub fn new(scenario: &'s Scenario, scheme: &'s mut dyn Reconfigurer) -> Result<Self, SimError> {
        let plant = Plant::new(scenario)?;
        let controller = Controller::new(scenario, scheme, RuntimePolicy::Measured)?;
        Ok(Self {
            plant,
            controller,
            observers: Vec::new(),
            finished: false,
        })
    }

    /// Attaches a streaming sink notified on every subsequent step.
    pub fn attach(&mut self, observer: &'s mut dyn StepObserver) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Replaces the runtime-accounting policy (defaults to
    /// [`RuntimePolicy::Measured`]).  With [`RuntimePolicy::Fixed`] every
    /// decision is charged the same computation time, which makes the whole
    /// run — overhead energy, runtime statistics, records — deterministic.
    #[must_use]
    pub fn with_runtime_policy(mut self, policy: RuntimePolicy) -> Self {
        self.controller.runtime_policy = policy;
        self
    }

    /// The runtime-accounting policy in force.
    #[must_use]
    pub const fn runtime_policy(&self) -> RuntimePolicy {
        self.controller.runtime_policy
    }

    /// Seeds the session with a pre-warmed solver so its scratch buffers are
    /// reused instead of reallocated — sweep workers recycle solvers across
    /// the cells they execute.  Scratch carries no observable state, so
    /// seeding never changes results.
    #[must_use]
    pub fn with_solver(mut self, solver: ArraySolver) -> Self {
        self.plant.set_solver(solver);
        self
    }

    /// Takes the (now warm) solver back out of the session, leaving a fresh
    /// one behind — the other half of the recycling handshake.
    pub fn take_solver(&mut self) -> ArraySolver {
        self.plant.take_solver()
    }

    /// The scenario the session replays.
    #[must_use]
    pub fn scenario(&self) -> &'s Scenario {
        self.controller.scenario
    }

    /// Name of the scheme driving the session.
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        self.controller.scheme.name()
    }

    /// Steps simulated so far.
    #[must_use]
    pub const fn position(&self) -> usize {
        self.plant.position()
    }

    /// Steps remaining in the drive cycle.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.plant.remaining()
    }

    /// Advances the simulation by one drive-cycle second.
    ///
    /// Returns `Ok(None)` once the cycle is exhausted; the first such call
    /// notifies every observer's [`StepObserver::on_finish`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the array solve or the scheme's
    /// decision.
    pub fn step(&mut self) -> Result<Option<StepRecord>, SimError> {
        let Some(mut plant) = self.plant.advance()? else {
            if !self.finished {
                self.finished = true;
                // The summary owns its scheme name and runtime statistics,
                // so it is only materialised when someone is listening.
                if !self.observers.is_empty() {
                    let summary = self.summary();
                    for observer in &mut self.observers {
                        observer.on_finish(&summary);
                    }
                }
            }
            return Ok(None);
        };
        let record = self.controller.step(&mut plant)?;
        for observer in &mut self.observers {
            observer.on_step(&record);
            if record.switched() {
                observer.on_switch(&record);
            }
        }
        Ok(Some(record))
    }

    /// The running totals at this point of the session.
    #[must_use]
    pub fn summary(&self) -> SessionSummary {
        let controller = &self.controller;
        SessionSummary {
            scheme: controller.scheme.name().to_owned(),
            steps: self.plant.position(),
            step: controller.scenario.step(),
            gross_energy: controller.gross_energy,
            net_energy: controller.net_energy,
            delivered_energy: controller.delivered_energy,
            overhead_energy: controller.overhead_energy,
            ideal_energy: controller.ideal_energy,
            switch_count: controller.switch_count,
            runtime: controller.runtime.clone(),
            fault_events: self.plant.fault_events_fired(),
            faulted_steps: self.plant.faulted_steps(),
        }
    }

    /// Drives the session to the end of the drive cycle, buffering every
    /// record, and returns the full [`SimulationReport`].
    ///
    /// Only a fresh (never-stepped) session can be run: a report built from
    /// a tail of the records but whole-session switch counts and runtimes
    /// would be internally inconsistent.  Streaming callers that must not
    /// buffer — or that already stepped manually — use [`SimSession::step`]
    /// (or the [`Iterator`] adapter) plus [`SimSession::summary`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when the session has already
    /// been stepped, and propagates the first [`SimError`] any step
    /// produces.
    pub fn run(mut self) -> Result<SimulationReport, SimError> {
        if self.position() != 0 {
            return Err(SimError::InvalidScenario {
                reason: format!(
                    "SimSession::run needs a fresh session, but {} steps were already \
                     consumed; keep stepping and read summary() instead",
                    self.position()
                ),
            });
        }
        let mut records = Vec::with_capacity(self.remaining());
        while let Some(record) = self.step()? {
            records.push(record);
        }
        // The session is consumed, so the accumulated statistics move into
        // the report instead of being cloned.
        Ok(self.controller.into_report(records))
    }
}

impl Iterator for SimSession<'_> {
    type Item = Result<StepRecord, SimError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.step().transpose()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

/// The per-scheme half of a simulation step: the scheme, its telemetry
/// window, the commanded wiring and everything the scheme's run books.
///
/// A controller steps against a [`PlantStep`] — the drive second the
/// shared [`Plant`] has already replayed and loaded — so N controllers in
/// lockstep share one fault replay, one sensor view and one module-term
/// load per step.
pub(crate) struct Controller<'s> {
    scenario: &'s Scenario,
    scheme: &'s mut dyn Reconfigurer,
    buffer: TelemetryBuffer,
    config: Configuration,
    // The configuration the stuck switch fabric actually realises for the
    // commanded `config`, cached between steps and invalidated whenever a
    // fault event fires or the commanded configuration changes.
    realised_config: Option<Configuration>,
    runtime_policy: RuntimePolicy,
    invocation_phase: f64,
    runtime: RuntimeStats,
    switch_count: usize,
    gross_energy: Joules,
    net_energy: Joules,
    delivered_energy: Joules,
    overhead_energy: Joules,
    ideal_energy: Joules,
}

impl<'s> Controller<'s> {
    /// Opens a controller for one scheme under a runtime-accounting policy,
    /// resetting the scheme and wiring the array as the square grid the
    /// baseline uses.
    pub(crate) fn new(
        scenario: &'s Scenario,
        scheme: &'s mut dyn Reconfigurer,
        runtime_policy: RuntimePolicy,
    ) -> Result<Self, SimError> {
        let module_count = scenario.module_count();
        let initial_groups = (module_count as f64).sqrt().ceil().max(1.0) as usize;
        let config = Configuration::uniform(module_count, initial_groups.min(module_count))?;
        let buffer = TelemetryBuffer::new(module_count, scheme.lookback().max(1))?;
        let step = scenario.step().value();
        let period = scheme.period().value();
        // A zero/negative/NaN period would turn the per-step invocation
        // count infinite; the built-in schemes validate their periods, but
        // `Reconfigurer` is a public trait.
        if !(period > 0.0 && period.is_finite()) {
            return Err(SimError::InvalidScenario {
                reason: format!(
                    "scheme {} has a non-positive or non-finite period ({period} s)",
                    scheme.name()
                ),
            });
        }
        scheme.reset();
        Ok(Self {
            scenario,
            scheme,
            buffer,
            config,
            realised_config: None,
            runtime_policy,
            // Phase accumulator priming: the first invocation lands on the
            // first step even for periods longer than the step (the
            // controller configures the array at t = 0, then every period).
            invocation_phase: (1.0 - step / period).max(0.0),
            runtime: RuntimeStats::new(),
            switch_count: 0,
            gross_energy: Joules::ZERO,
            net_energy: Joules::ZERO,
            delivered_energy: Joules::ZERO,
            overhead_energy: Joules::ZERO,
            ideal_energy: Joules::ZERO,
        })
    }

    /// Runs the scheme's decisions due in one drive second and books the
    /// power the plant delivers through the resulting wiring.
    pub(crate) fn step(&mut self, plant: &mut PlantStep<'_>) -> Result<StepRecord, SimError> {
        if plant.fault_events > 0 {
            self.realised_config = None;
        }
        self.buffer.push_row(plant.telemetry)?;
        let scenario = self.scenario;
        let array = scenario.array();
        let step = scenario.step();

        // Invocation phase accumulator: schemes run every `period`, whether
        // that is shorter or longer than the simulation step.  The epsilon
        // absorbs float error from non-dyadic step/period ratios (e.g. a
        // 3-second period accumulating thirds) so invocations never slip a
        // step late.
        self.invocation_phase += step.value() / self.scheme.period().value();
        let invocations = (self.invocation_phase + 1e-9).floor() as usize;
        self.invocation_phase -= invocations as f64;

        let mut overhead_energy = Joules::ZERO;
        let mut computation_total = Seconds::ZERO;
        let mut switched_this_step = false;
        // The solved MPP of the active wiring at this step's ΔT row, shared
        // between the overhead gate and the plant output and invalidated
        // when a switch changes the wiring.  The kernel is deterministic,
        // so the reuse is exact — it just halves the per-step solves.
        let mut solved: Option<SolvedPoint> = None;

        for _ in 0..invocations {
            let mut window = self.buffer.window(array, plant.ambient)?;
            // A fixed charge travels in the window, so a scheme whose
            // decision weighs its own computation (DNOR's switch gate) sees
            // the same charge the session accounts below.
            if let RuntimePolicy::Fixed(charge) = self.runtime_policy {
                window = window.with_fixed_charge(charge);
            }
            let decision = self.scheme.decide(&window, &self.config)?;
            // The policy decides whether the measured wall clock or a fixed
            // deterministic charge flows into stats and overhead accounting.
            let computation = self.runtime_policy.charge(decision.computation());
            if plant.any_fault_active {
                self.runtime.record_faulted(computation);
            } else {
                self.runtime.record(computation);
            }
            computation_total += computation;
            let applied = decision.applied();
            let next = decision.into_configuration();
            if applied {
                // Applying a configuration (even an unchanged one, as the
                // fixed-period schemes do) interrupts harvesting for the
                // reconfiguration dead time and costs actuation energy for
                // every toggled switch.  The toggle diff and the MPP solve
                // feed only the overhead model, so un-applied decisions
                // (DNOR's skipped periods) pay for neither.  Toggles are
                // counted against the *commanded* wiring — the controller
                // actuates what it believes — while the interrupted power is
                // what the degraded plant actually delivered.
                let toggles = match &next {
                    Some(next) => self.config.switch_toggles_to(next)?,
                    None => 0,
                };
                let op = match solved {
                    Some(op) => op,
                    None => {
                        let op = self.active_mpp(plant)?;
                        solved = Some(op);
                        op
                    }
                };
                let event = scenario.overhead().event(op.power(), computation, toggles);
                overhead_energy += event.total_energy();
                if toggles > 0 {
                    switched_this_step = true;
                    self.switch_count += 1;
                    self.config = next.expect("a rewiring decision carries its configuration");
                    self.realised_config = None;
                    solved = None;
                }
            }
        }

        // The plant realises the commanded configuration through its (possibly
        // stuck) switch fabric and delivers power with its (possibly open,
        // shorted or derated) modules.
        let op = match solved {
            Some(op) => op,
            None => self.active_mpp(plant)?,
        };
        let array_power = op.power();
        let gross = array_power * step;
        let net = (gross - overhead_energy).max(Joules::ZERO);
        let net_power = net.average_power(step);
        let delivered_power = scenario.charger().output_power(op.voltage(), net_power);

        self.gross_energy += gross;
        self.net_energy += net;
        self.delivered_energy += delivered_power * step;
        self.overhead_energy += overhead_energy;
        self.ideal_energy += plant.ideal * step;

        Ok(StepRecord::new(
            plant.time,
            array_power,
            net_power,
            delivered_power,
            plant.ideal,
            self.config.group_count(),
            switched_this_step,
            overhead_energy,
            computation_total,
        )
        .with_faults(plant.faults_active, plant.fault_events))
    }

    /// Solves the MPP of the wiring the plant currently realises against the
    /// plant's loaded module terms; the realised wiring is derived at most
    /// once per (configuration, fault state) change.
    fn active_mpp(&mut self, plant: &mut PlantStep<'_>) -> Result<SolvedPoint, SimError> {
        let target = match plant.electrical_faults {
            Some(faults) => {
                if self.realised_config.is_none() {
                    self.realised_config = Some(faults.effective_configuration(&self.config)?);
                }
                self.realised_config.as_ref().expect("filled above")
            }
            None => &self.config,
        };
        Ok(plant.solver.mpp(target)?)
    }

    /// Assembles the scheme's report from its buffered records, moving the
    /// accumulated runtime statistics out.
    pub(crate) fn into_report(mut self, records: Vec<StepRecord>) -> SimulationReport {
        SimulationReport::new(
            self.scheme.name(),
            records,
            self.scenario.step(),
            self.switch_count,
            std::mem::take(&mut self.runtime),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_reconfig::{Dnor, Ehtr, Inor, InorConfig, StaticBaseline};

    fn scenario(modules: usize, seconds: usize, seed: u64) -> Scenario {
        Scenario::builder()
            .module_count(modules)
            .duration_seconds(seconds)
            .seed(seed)
            .build()
            .expect("valid scenario")
    }

    fn run(s: &Scenario, scheme: &mut dyn Reconfigurer) -> SimulationReport {
        SimSession::new(s, scheme).unwrap().run().unwrap()
    }

    #[test]
    fn report_has_one_record_per_second() {
        let s = scenario(12, 25, 1);
        let report = run(&s, &mut StaticBaseline::square_grid(12));
        assert_eq!(report.records().len(), 25);
        assert_eq!(report.scheme(), "Baseline");
        assert!(report.net_energy().value() > 0.0);
    }

    #[test]
    fn baseline_never_switches_after_initial_wiring() {
        let s = scenario(16, 30, 2);
        let report = run(&s, &mut StaticBaseline::square_grid(16));
        // The session already starts from the square grid, so the baseline
        // has nothing to change.
        assert_eq!(report.switch_count(), 0);
        assert_eq!(report.overhead_energy(), Joules::ZERO);
        assert_eq!(report.average_runtime().value(), 0.0);
    }

    #[test]
    fn inor_beats_the_baseline_on_energy() {
        let s = scenario(30, 40, 3);
        let inor = run(&s, &mut Inor::default());
        let baseline = run(&s, &mut StaticBaseline::square_grid(30));
        assert!(
            inor.net_energy().value() > baseline.net_energy().value(),
            "INOR {} should beat baseline {}",
            inor.net_energy(),
            baseline.net_energy()
        );
    }

    #[test]
    fn dnor_switches_far_less_and_accumulates_less_overhead_than_inor() {
        let s = scenario(24, 60, 4);
        let inor = run(&s, &mut Inor::default());
        let dnor = run(&s, &mut Dnor::default());
        assert!(dnor.switch_count() < inor.switch_count());
        assert!(dnor.overhead_energy().value() < inor.overhead_energy().value());
        // And its net energy is at least as good (it loses less to overhead).
        assert!(dnor.net_energy().value() >= 0.98 * inor.net_energy().value());
    }

    #[test]
    fn net_energy_never_exceeds_gross_or_ideal() {
        let s = scenario(20, 30, 5);
        for report in [
            run(&s, &mut Inor::default()),
            run(&s, &mut Dnor::default()),
            run(&s, &mut StaticBaseline::square_grid(20)),
        ] {
            assert!(report.net_energy() <= report.gross_energy());
            assert!(report.net_energy().value() <= report.ideal_energy().value() + 1e-6);
            assert!(report.ideal_fraction() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn ehtr_matches_inor_energy_but_runs_slower() {
        let s = scenario(20, 20, 7);
        let inor = run(&s, &mut Inor::default());
        let ehtr = run(&s, &mut Ehtr::default());
        let ratio = ehtr.net_energy().value() / inor.net_energy().value();
        assert!((0.95..=1.05).contains(&ratio), "energy ratio {ratio}");
        assert!(ehtr.runtime().total().value() >= inor.runtime().total().value());
    }

    #[test]
    fn runs_are_reproducible_up_to_timing_jitter() {
        // The physics and the decisions are deterministic; only the measured
        // wall-clock computation time (and hence a few millijoules of
        // overhead) varies between runs.
        let s = scenario(14, 20, 8);
        let a = run(&s, &mut Dnor::default());
        let b = run(&s, &mut Dnor::default());
        assert_eq!(a.switch_count(), b.switch_count());
        assert_eq!(a.gross_energy(), b.gross_energy());
        let diff = (a.net_energy().value() - b.net_energy().value()).abs();
        assert!(
            diff < 1.0,
            "net energy differs by {diff} J between identical runs"
        );
        // The array power trace (pre-overhead) is bit-identical.
        assert_eq!(a.power_trace(), b.power_trace());
    }

    #[test]
    fn stepping_matches_the_cycle_length() {
        let s = scenario(10, 25, 1);
        let mut inor = Inor::default();
        let mut session = SimSession::new(&s, &mut inor).unwrap();
        assert_eq!(session.remaining(), 25);
        assert_eq!(session.scheme_name(), "INOR");
        let mut steps = 0;
        while session.step().unwrap().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 25);
        assert_eq!(session.position(), 25);
        assert_eq!(session.remaining(), 0);
        // Stepping past the end keeps returning None.
        assert!(session.step().unwrap().is_none());
    }

    #[test]
    fn summary_totals_match_the_report() {
        let s = scenario(12, 30, 2);
        let mut a = Dnor::default();
        let mut session = SimSession::new(&s, &mut a).unwrap();
        while session.step().unwrap().is_some() {}
        let summary = session.summary();
        drop(session);

        let mut b = Dnor::default();
        let report = SimSession::new(&s, &mut b).unwrap().run().unwrap();
        assert_eq!(summary.scheme(), report.scheme());
        assert_eq!(summary.steps(), report.records().len());
        assert_eq!(summary.gross_energy(), report.gross_energy());
        assert_eq!(summary.switch_count(), report.switch_count());
        assert_eq!(summary.ideal_energy(), report.ideal_energy());
        assert!(summary.ideal_fraction() > 0.0);
        assert_eq!(summary.duration(), report.duration());
        assert!(summary.delivered_energy().value() > 0.0);
        assert!(summary.net_energy() <= summary.gross_energy());
        assert!(summary.overhead_energy().value() >= 0.0);
        assert!(summary.runtime().invocations() > 0);
    }

    #[test]
    fn iterator_adapter_yields_every_record() {
        let s = scenario(8, 12, 3);
        let mut inor = Inor::default();
        let session = SimSession::new(&s, &mut inor).unwrap();
        assert_eq!(session.size_hint(), (12, Some(12)));
        let records: Result<Vec<_>, _> = session.collect();
        assert_eq!(records.unwrap().len(), 12);
    }

    #[test]
    fn observers_see_steps_switches_and_finish() {
        struct Spy {
            steps: usize,
            switches: usize,
            finished: Option<SessionSummary>,
        }
        impl StepObserver for Spy {
            fn on_step(&mut self, _record: &StepRecord) {
                self.steps += 1;
            }
            fn on_switch(&mut self, record: &StepRecord) {
                assert!(record.switched());
                self.switches += 1;
            }
            fn on_finish(&mut self, summary: &SessionSummary) {
                self.finished = Some(summary.clone());
            }
        }

        let s = scenario(16, 20, 4);
        let mut spy = Spy {
            steps: 0,
            switches: 0,
            finished: None,
        };
        let mut inor = Inor::default();
        let mut session = SimSession::new(&s, &mut inor).unwrap();
        session.attach(&mut spy);
        while session.step().unwrap().is_some() {}
        let switch_count = session.summary().switch_count();
        drop(session);
        assert_eq!(spy.steps, 20);
        assert_eq!(spy.switches, switch_count);
        let finish = spy.finished.expect("on_finish fired");
        assert_eq!(finish.steps(), 20);
    }

    #[test]
    fn long_period_schemes_are_invoked_at_their_period() {
        // A 4-second period over 1-second steps must be honoured: one
        // invocation at t = 0 and one every 4 s after, not one per step
        // (the `.max(1.0)` regression in the pre-session engine).
        let s = scenario(10, 40, 5);
        let config = InorConfig::new(*s.charger(), 0.9, Seconds::new(4.0)).unwrap();
        let mut inor = Inor::new(config);
        let mut session = SimSession::new(&s, &mut inor).unwrap();
        while session.step().unwrap().is_some() {}
        assert_eq!(session.summary().runtime().invocations(), 10);
    }

    #[test]
    fn sub_second_periods_invoke_multiple_times_per_step() {
        let s = scenario(10, 10, 6);
        let mut inor = Inor::default(); // 0.5 s period
        let mut session = SimSession::new(&s, &mut inor).unwrap();
        while session.step().unwrap().is_some() {}
        assert_eq!(session.summary().runtime().invocations(), 20);
    }

    #[test]
    fn run_after_manual_stepping_is_rejected() {
        let s = scenario(8, 10, 12);
        let mut inor = Inor::default();
        let mut session = SimSession::new(&s, &mut inor).unwrap();
        session.step().unwrap();
        match session.run() {
            Err(SimError::InvalidScenario { reason }) => {
                assert!(reason.contains("1 steps"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_period_schemes_are_rejected_instead_of_hanging() {
        struct BrokenPeriod;
        impl Reconfigurer for BrokenPeriod {
            fn name(&self) -> &'static str {
                "Broken"
            }
            fn period(&self) -> Seconds {
                Seconds::ZERO
            }
            fn decide(
                &mut self,
                _window: &teg_reconfig::TelemetryWindow<'_>,
                current: &Configuration,
            ) -> Result<teg_reconfig::ReconfigDecision, teg_reconfig::ReconfigError> {
                Ok(teg_reconfig::ReconfigDecision::new(
                    current.clone(),
                    Seconds::ZERO,
                    false,
                    false,
                ))
            }
        }
        let s = scenario(6, 10, 9);
        let mut broken = BrokenPeriod;
        let err = match SimSession::new(&s, &mut broken) {
            Err(err) => err,
            Ok(_) => panic!("zero-period scheme must be rejected"),
        };
        assert!(matches!(err, SimError::InvalidScenario { .. }));
        assert!(err.to_string().contains("Broken"));
    }

    #[test]
    fn fault_plan_events_fire_at_their_steps_and_degrade_output() {
        use crate::fault::{FaultAction, FaultEvent, FaultPlan};
        use teg_array::ModuleFault;

        let healthy = scenario(10, 30, 8);
        let faulted = Scenario::builder()
            .module_count(10)
            .duration_seconds(30)
            .seed(8)
            .fault_plan(FaultPlan::new(vec![
                FaultEvent::new(
                    10,
                    FaultAction::Module {
                        module: 2,
                        fault: ModuleFault::OpenCircuit,
                    },
                ),
                FaultEvent::new(
                    10,
                    FaultAction::Module {
                        module: 5,
                        fault: ModuleFault::Derated(0.5),
                    },
                ),
                FaultEvent::new(20, FaultAction::ModuleRepair { module: 2 }),
            ]))
            .build()
            .unwrap();

        let run = |s: &Scenario| {
            let mut baseline = StaticBaseline::square_grid(10);
            let mut session = SimSession::new(s, &mut baseline).unwrap();
            let mut records = Vec::new();
            while let Some(record) = session.step().unwrap() {
                records.push(record);
            }
            (records, session.summary())
        };
        let (healthy_records, healthy_summary) = run(&healthy);
        let (faulted_records, faulted_summary) = run(&faulted);

        // Before the first event the two runs are identical; afterwards the
        // degraded plant delivers strictly less.
        for t in 0..10 {
            assert_eq!(healthy_records[t], faulted_records[t], "step {t}");
        }
        for t in 10..20 {
            assert!(
                faulted_records[t].array_power() < healthy_records[t].array_power(),
                "step {t} must be degraded"
            );
            assert!(faulted_records[t].faults_active() >= 1);
        }
        // After the repair only the derated module remains.
        assert_eq!(faulted_records[25].faults_active(), 1);
        assert_eq!(faulted_records[10].fault_events(), 2);
        assert_eq!(faulted_records[20].fault_events(), 1);
        assert!(faulted_summary.net_energy() < healthy_summary.net_energy());

        // Summary accounting: 20 faulted steps (10..30), 3 events, and the
        // scheme's invocations during them counted as fault-exposed.
        assert_eq!(faulted_summary.fault_events(), 3);
        assert_eq!(faulted_summary.faulted_steps(), 20);
        assert_eq!(faulted_summary.runtime().faulted_invocations(), 20);
        assert_eq!(healthy_summary.fault_events(), 0);
        assert_eq!(healthy_summary.faulted_steps(), 0);
        assert_eq!(healthy_summary.runtime().faulted_invocations(), 0);
    }

    #[test]
    fn sensor_faults_blind_the_scheme_without_touching_the_physics() {
        use crate::fault::{FaultAction, FaultEvent, FaultPlan};
        use teg_reconfig::SensorFault;

        // Every sensor drops out: the scheme sees ΔT = 0 everywhere, but the
        // static baseline never rewires, so the physical output is untouched
        // while the fault accounting records the blindness.
        let plan = FaultPlan::new(
            (0..6)
                .map(|m| {
                    FaultEvent::new(
                        0,
                        FaultAction::Sensor {
                            module: m,
                            fault: SensorFault::Dropout,
                        },
                    )
                })
                .collect(),
        );
        let healthy = scenario(6, 15, 3);
        let blinded = Scenario::builder()
            .module_count(6)
            .duration_seconds(15)
            .seed(3)
            .fault_plan(plan)
            .build()
            .unwrap();
        let run = |s: &Scenario| {
            let mut baseline = StaticBaseline::square_grid(6);
            let mut session = SimSession::new(s, &mut baseline).unwrap();
            while session.step().unwrap().is_some() {}
            session.summary()
        };
        let healthy_summary = run(&healthy);
        let blinded_summary = run(&blinded);
        assert_eq!(healthy_summary.net_energy(), blinded_summary.net_energy());
        assert_eq!(blinded_summary.faulted_steps(), 15);
        assert_eq!(blinded_summary.fault_events(), 6);
        assert_eq!(healthy_summary.faulted_steps(), 0);
    }

    #[test]
    fn faulted_sessions_replay_bit_identically() {
        use crate::fault::{FaultPlan, FaultSeverity};
        use teg_reconfig::Inor;

        let plan = FaultPlan::random(12, 40, FaultSeverity::severe(), 21);
        assert!(!plan.is_empty());
        let s = Scenario::builder()
            .module_count(12)
            .duration_seconds(40)
            .seed(4)
            .fault_plan(plan)
            .build()
            .unwrap();
        let run = || {
            let mut inor = Inor::default();
            let session = SimSession::new(&s, &mut inor)
                .unwrap()
                .with_runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)));
            let records: Result<Vec<_>, _> = session.collect();
            records.unwrap()
        };
        // Seeded sensor noise + fixed runtime charge: two replays agree on
        // every record bit.
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_stays_bounded_by_the_scheme_lookback() {
        let s = scenario(6, 50, 7);
        let mut baseline = StaticBaseline::square_grid(6);
        let mut session = SimSession::new(&s, &mut baseline).unwrap();
        while session.step().unwrap().is_some() {}
        // The baseline looks back one row, so the ring holds exactly one.
        assert_eq!(session.controller.buffer.len(), 1);
        assert_eq!(session.controller.buffer.capacity(), 1);

        let mut dnor = Dnor::default();
        let lookback = teg_reconfig::Reconfigurer::lookback(&dnor);
        let mut session = SimSession::new(&s, &mut dnor).unwrap();
        while session.step().unwrap().is_some() {}
        assert_eq!(session.controller.buffer.capacity(), lookback);
        assert!(session.controller.buffer.len() <= lookback);
    }
}
