//! Simulation scenarios: everything that stays fixed while schemes are
//! compared.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use teg_array::{SwitchingOverheadModel, TegArray};
use teg_device::{TegDatasheet, TegModule, VariationModel};
use teg_power::Charger;
use teg_thermal::{DriveCycle, DriveCycleBuilder, Radiator, RadiatorGeometry, SShapedPlacement};
use teg_units::Seconds;

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::thermal_trace::ThermalTrace;
use crate::trace_cache::TraceCache;

/// A fully specified experiment: drive cycle, radiator, module placement,
/// TEG array, charger and overhead model.
///
/// All four reconfiguration schemes are run against the *same* scenario so
/// that Table I and Figs. 6–7 compare algorithms rather than workloads.
///
/// `Scenario` is `Send + Sync`: the sweep workers of
/// [`SweepRunner`](crate::SweepRunner) share one scenario sample by
/// reference across threads.  The lazily solved trace cache stays safe
/// because the first solve is serialised behind a mutex and published
/// through a `OnceLock` — concurrent first readers race only for who runs
/// the solve, never on the result.
///
/// # Examples
///
/// ```
/// use teg_sim::Scenario;
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::paper_table1(42)?;
/// assert_eq!(scenario.module_count(), 100);
/// assert_eq!(scenario.drive_cycle().len(), 800);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    drive_cycle: DriveCycle,
    radiator: Radiator,
    placement: SShapedPlacement,
    array: TegArray,
    charger: Charger,
    overhead: SwitchingOverheadModel,
    fault_plan: FaultPlan,
    step: Seconds,
    // Lazily solved thermal history.  The cache cell itself sits behind an
    // Arc so every clone — made before *or* after the first solve — shares
    // one solve per drive cycle.
    trace: Arc<OnceLock<Arc<ThermalTrace>>>,
    // Serialises the initial solve so concurrent first accesses cannot run
    // it twice (which would also double-count `thermal_solves`).
    solve_lock: Arc<Mutex<()>>,
    // Total radiator solves performed through this scenario (shared across
    // clones) — the hook the comparison tests use to prove the trace is
    // solved exactly once.  With a `trace_cache` attached, a scenario whose
    // key was already solved elsewhere counts zero, so summing the counters
    // of a scenario family yields the number of *unique* solves.
    thermal_solves: Arc<AtomicUsize>,
    // Optional cross-scenario cache: scenarios attached to the same cache
    // with equal thermal inputs share one solved trace.
    trace_cache: Option<TraceCache>,
}

impl Scenario {
    /// The paper's main evaluation scenario: a 100-module array on the
    /// Porter II radiator over the 800-second drive.
    ///
    /// # Errors
    ///
    /// Propagates builder validation errors (never expected for the preset).
    pub fn paper_table1(seed: u64) -> Result<Self, SimError> {
        Self::builder()
            .module_count(100)
            .duration_seconds(800)
            .seed(seed)
            .build()
    }

    /// Returns a builder with the Porter II defaults.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The drive cycle the scenario replays.
    #[must_use]
    pub const fn drive_cycle(&self) -> &DriveCycle {
        &self.drive_cycle
    }

    /// The radiator model.
    #[must_use]
    pub const fn radiator(&self) -> &Radiator {
        &self.radiator
    }

    /// The module placement along the radiator.
    #[must_use]
    pub const fn placement(&self) -> &SShapedPlacement {
        &self.placement
    }

    /// The TEG array under control.
    #[must_use]
    pub const fn array(&self) -> &TegArray {
        &self.array
    }

    /// The charger model.
    #[must_use]
    pub const fn charger(&self) -> &Charger {
        &self.charger
    }

    /// The switching-overhead model.
    #[must_use]
    pub const fn overhead(&self) -> &SwitchingOverheadModel {
        &self.overhead
    }

    /// The timed fault plan every session over this scenario replays
    /// (empty — [`FaultPlan::none`] — for a healthy run).
    #[must_use]
    pub const fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The simulation step (1 s for the presets).
    #[must_use]
    pub const fn step(&self) -> Seconds {
        self.step
    }

    /// Number of modules in the array.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.array.len()
    }

    /// Restricts the scenario to a window of the drive cycle (sample indices
    /// `[start, end)`), e.g. the 120-second slice plotted in Figs. 6–7.
    ///
    /// When the parent's trace is already solved, the window *slices* it —
    /// [`DriveCycle::window`](teg_thermal::DriveCycle::window) keeps the
    /// original sample timestamps, so the sliced trace is bit-identical to
    /// freshly solving the windowed cycle, and no further radiator solves are
    /// counted.  An unsolved parent leaves the window to solve its own
    /// (shorter) cycle on first access; the solve counter stays shared with
    /// the parent either way.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Thermal`] if the window is empty or out of
    /// range.
    pub fn window(&self, start: usize, end: usize) -> Result<Self, SimError> {
        let mut out = self.clone();
        out.drive_cycle = self.drive_cycle.window(start, end)?;
        out.trace = Arc::new(OnceLock::new());
        if let Some(parent) = self.trace.get() {
            let _ = out.trace.set(Arc::new(parent.slice(start, end)));
        }
        Ok(out)
    }

    /// The solved thermal history of this scenario's drive cycle.
    ///
    /// The first call runs the radiator solve for every sample; subsequent
    /// calls — including through clones, whenever they were made — return
    /// the cached trace, so any number of schemes, sessions and comparisons
    /// share one thermal solve per drive-cycle second.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Thermal`] from the radiator solve.
    pub fn thermal_trace(&self) -> Result<&ThermalTrace, SimError> {
        self.thermal_trace_shared().map(Arc::as_ref)
    }

    /// Like [`Scenario::thermal_trace`] but returning the shared handle, for
    /// callers that need to outlive `&self` borrows (the session keeps one).
    pub(crate) fn thermal_trace_shared(&self) -> Result<&Arc<ThermalTrace>, SimError> {
        self.resolve_trace().map(|(trace, _)| trace)
    }

    /// Solves this scenario's thermal trace now rather than on first use.
    /// With a [`TraceCache`] attached the trace resolves through the cache,
    /// so every equal-keyed scenario shares it; otherwise it lands in this
    /// scenario's own slot.  Returns `true` when this call performed the
    /// solve, `false` when the trace was already available.
    ///
    /// The solve is always the serial loop of [`ThermalTrace::solve`];
    /// `threads` is ignored and kept only for source compatibility.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Thermal`] from the radiator solve.
    pub fn presolve(&self, _threads: usize) -> Result<bool, SimError> {
        self.resolve_trace().map(|(_, solved)| solved)
    }

    /// The cached trace, solved on first use, plus whether this call solved
    /// it.
    fn resolve_trace(&self) -> Result<(&Arc<ThermalTrace>, bool), SimError> {
        if let Some(trace) = self.trace.get() {
            return Ok((trace, false));
        }
        // Serialise the initial solve: without the lock two concurrent first
        // callers would both run the full radiator solve (discarding one
        // result) and double-count `thermal_solves`.
        let guard = self
            .solve_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(trace) = self.trace.get() {
            return Ok((trace, false));
        }
        // With a cache attached, an equal-keyed scenario's trace is shared
        // instead of re-solved (and this scenario then counts no solves).
        let (solved, fresh) = match &self.trace_cache {
            Some(cache) => cache.trace_for(self)?,
            None => (Arc::new(ThermalTrace::solve(self)?), true),
        };
        let stored = self.trace.get_or_init(|| solved);
        drop(guard);
        Ok((stored, fresh))
    }

    /// The cross-scenario trace cache this scenario resolves its thermal
    /// trace through, if one was attached.
    #[must_use]
    pub const fn trace_cache(&self) -> Option<&TraceCache> {
        self.trace_cache.as_ref()
    }

    /// Total number of radiator solves performed through this scenario (and
    /// its clones) so far — one per drive-cycle sample when the trace cache
    /// is working.
    #[must_use]
    pub fn thermal_solve_count(&self) -> usize {
        self.thermal_solves.load(Ordering::Relaxed)
    }

    /// Records one radiator solve (called by [`ThermalTrace::solve`]).
    pub(crate) fn count_thermal_solve(&self) {
        self.thermal_solves.fetch_add(1, Ordering::Relaxed);
    }
}

/// Builder for [`Scenario`] values.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    module_count: usize,
    duration_seconds: usize,
    seed: u64,
    geometry: RadiatorGeometry,
    charger: Charger,
    overhead: SwitchingOverheadModel,
    module_variation: VariationModel,
    datasheet: TegDatasheet,
    fault_plan: FaultPlan,
    trace_cache: Option<TraceCache>,
}

impl ScenarioBuilder {
    /// Creates a builder with the paper's defaults (100 modules, 800 s,
    /// Porter II radiator, TGM-199-1.4-0.8 modules, LTM4607 charger).
    #[must_use]
    pub fn new() -> Self {
        Self {
            module_count: 100,
            duration_seconds: 800,
            seed: 0,
            geometry: RadiatorGeometry::porter_ii(),
            charger: Charger::ltm4607_lead_acid(),
            overhead: SwitchingOverheadModel::default(),
            module_variation: VariationModel::none(),
            datasheet: TegDatasheet::tgm_199_1_4_0_8(),
            fault_plan: FaultPlan::none(),
            trace_cache: None,
        }
    }

    /// Sets the number of TEG modules along the radiator.
    #[must_use]
    pub fn module_count(mut self, count: usize) -> Self {
        self.module_count = count;
        self
    }

    /// Sets the drive duration in seconds (1 Hz sampling).
    #[must_use]
    pub fn duration_seconds(mut self, seconds: usize) -> Self {
        self.duration_seconds = seconds;
        self
    }

    /// Sets the drive-cycle RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the radiator geometry (e.g. the industrial-boiler preset for
    /// scalability studies).
    #[must_use]
    pub fn geometry(mut self, geometry: RadiatorGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Replaces the charger model.
    #[must_use]
    pub fn charger(mut self, charger: Charger) -> Self {
        self.charger = charger;
        self
    }

    /// Replaces the switching-overhead model.
    #[must_use]
    pub fn overhead(mut self, overhead: SwitchingOverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Enables module-to-module manufacturing variation.
    #[must_use]
    pub fn module_variation(mut self, variation: VariationModel) -> Self {
        self.module_variation = variation;
        self
    }

    /// Replaces the TEG module datasheet.
    #[must_use]
    pub fn datasheet(mut self, datasheet: TegDatasheet) -> Self {
        self.datasheet = datasheet;
        self
    }

    /// Installs a timed fault plan: module/switch/sensor fault events fired
    /// at fixed drive steps by every session over the built scenario.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Attaches a cross-scenario [`TraceCache`]: every scenario built
    /// against the same cache with equal thermal inputs (drive cycle,
    /// radiator, placement, step, module parameters) shares one solved
    /// [`ThermalTrace`] instead of re-running the radiator model.  Fault
    /// plans and scheme choices never enter the key, so degraded variants of
    /// one physical setup share its trace.
    #[must_use]
    pub fn trace_cache(mut self, cache: TraceCache) -> Self {
        self.trace_cache = Some(cache);
        self
    }

    /// Validates the parameters and assembles the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] for a zero module count or a
    /// zero duration, and propagates substrate errors (drive-cycle or
    /// placement construction).
    pub fn build(self) -> Result<Scenario, SimError> {
        if self.module_count == 0 {
            return Err(SimError::InvalidScenario {
                reason: "module count must be positive".into(),
            });
        }
        if self.duration_seconds == 0 {
            return Err(SimError::InvalidScenario {
                reason: "duration must be positive".into(),
            });
        }
        let drive_cycle = DriveCycleBuilder::new()
            .duration(Seconds::new(self.duration_seconds as f64))
            .seed(self.seed)
            .build()?;
        let radiator = Radiator::new(self.geometry);
        let placement = SShapedPlacement::new(self.module_count)?;
        let nominal = TegModule::from_datasheet(&self.datasheet);
        let modules = self
            .module_variation
            .apply(&nominal, self.module_count, self.seed.wrapping_add(1))
            .map_err(|e| SimError::InvalidScenario {
                reason: format!("module variation: {e}"),
            })?;
        let array = TegArray::new(modules)?;
        self.fault_plan.validate(self.module_count)?;
        Ok(Scenario {
            drive_cycle,
            radiator,
            placement,
            array,
            charger: self.charger,
            overhead: self.overhead,
            fault_plan: self.fault_plan,
            step: Seconds::new(1.0),
            trace: Arc::new(OnceLock::new()),
            solve_lock: Arc::new(Mutex::new(())),
            thermal_solves: Arc::new(AtomicUsize::new(0)),
            trace_cache: self.trace_cache,
        })
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_scenario_matches_the_paper_setup() {
        let s = Scenario::paper_table1(3).unwrap();
        assert_eq!(s.module_count(), 100);
        assert_eq!(s.drive_cycle().len(), 800);
        assert_eq!(s.step(), Seconds::new(1.0));
        assert_eq!(s.placement().module_count(), 100);
        assert!(s.charger().output_voltage().value() > 13.0);
        assert!(s.overhead().per_toggle_energy().value() > 0.0);
        assert!(s.radiator().geometry().flow_path_length().value() > 1.0);
    }

    #[test]
    fn builder_validation() {
        assert!(Scenario::builder().module_count(0).build().is_err());
        assert!(Scenario::builder().duration_seconds(0).build().is_err());
    }

    #[test]
    fn windowing_preserves_everything_but_the_cycle() {
        let s = Scenario::builder()
            .module_count(10)
            .duration_seconds(200)
            .seed(5)
            .build()
            .unwrap();
        let w = s.window(50, 170).unwrap();
        assert_eq!(w.drive_cycle().len(), 120);
        assert_eq!(w.module_count(), 10);
        assert!(s.window(10, 10).is_err());
        assert!(s.window(150, 300).is_err());
    }

    #[test]
    fn variation_changes_the_array() {
        let plain = Scenario::builder()
            .module_count(5)
            .duration_seconds(10)
            .build()
            .unwrap();
        let varied = Scenario::builder()
            .module_count(5)
            .duration_seconds(10)
            .module_variation(VariationModel::new(0.05, 0.05).unwrap())
            .build()
            .unwrap();
        assert_ne!(plain.array().modules(), varied.array().modules());
    }

    #[test]
    fn scenarios_and_traces_are_send_and_sync() {
        // The sweep shares scenarios (and their cached traces) across
        // worker threads by reference; this is the compile-time audit.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scenario>();
        assert_send_sync::<crate::ThermalTrace>();
    }

    #[test]
    fn concurrent_first_access_solves_the_trace_once() {
        let s = Scenario::builder()
            .module_count(6)
            .duration_seconds(20)
            .seed(11)
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let trace = s.thermal_trace().unwrap();
                    assert_eq!(trace.len(), 20);
                });
            }
        });
        // Eight concurrent first readers, one solve: 20 samples, not 160.
        assert_eq!(s.thermal_solve_count(), 20);
    }

    #[test]
    fn fault_plans_are_validated_at_build_time() {
        use crate::fault::{FaultAction, FaultEvent, FaultPlan};
        use teg_array::ModuleFault;

        let oob = FaultPlan::new(vec![FaultEvent::new(
            3,
            FaultAction::Module {
                module: 10,
                fault: ModuleFault::OpenCircuit,
            },
        )]);
        let err = Scenario::builder()
            .module_count(10)
            .duration_seconds(5)
            .fault_plan(oob.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("module 10"), "{err}");

        let ok = Scenario::builder()
            .module_count(11)
            .duration_seconds(5)
            .fault_plan(oob.clone())
            .build()
            .unwrap();
        assert_eq!(ok.fault_plan(), &oob);
        // The default scenario carries an empty plan.
        let healthy = Scenario::builder()
            .module_count(4)
            .duration_seconds(5)
            .build()
            .unwrap();
        assert!(healthy.fault_plan().is_empty());
    }

    #[test]
    fn same_seed_same_scenario() {
        let a = Scenario::builder()
            .module_count(8)
            .duration_seconds(30)
            .seed(9)
            .build()
            .unwrap();
        let b = Scenario::builder()
            .module_count(8)
            .duration_seconds(30)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(a.drive_cycle(), b.drive_cycle());
    }
}
