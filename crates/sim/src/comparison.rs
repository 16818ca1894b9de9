//! Lockstep comparison of several schemes over one shared thermal trace.
//!
//! The paper's headline artefacts (Table I, Figs. 6–7) all pit INOR, DNOR,
//! EHTR and the static baseline against each other on the *same* drive
//! cycle.  [`Comparison`] drives its schemes in lockstep — step 0 of every
//! scheme, then step 1, … — over the scenario's cached [`ThermalTrace`], so
//! the radiator model is solved exactly once per drive-cycle sample no
//! matter how many schemes compete.  Each step is replayed once for the
//! whole field: one plant fires the fault-plan events, corrupts the sensor
//! view and loads the module terms, and every scheme's controller then
//! decides and solves its wiring against it — exactly what a standalone
//! [`SimSession`] per scheme would compute, bit for bit.
//!
//! [`ThermalTrace`]: crate::ThermalTrace
//! [`SimSession`]: crate::SimSession

use std::collections::HashSet;
use std::fmt;

use teg_reconfig::{Dnor, Ehtr, Inor, Reconfigurer, SchemeSpec, StaticBaseline};

use crate::error::SimError;
use crate::plant::Plant;
use crate::record::StepRecord;
use crate::report::SimulationReport;
use crate::scenario::Scenario;
use crate::session::{Controller, RuntimePolicy, SolverPool};

/// A builder driving N schemes in lockstep over one scenario.
///
/// # Examples
///
/// ```
/// use teg_reconfig::{Inor, StaticBaseline};
/// use teg_sim::{Comparison, Scenario};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::builder().module_count(16).duration_seconds(30).seed(1).build()?;
/// let comparison = Comparison::new(&scenario)
///     .scheme(Inor::default())
///     .scheme(StaticBaseline::square_grid(16))
///     .run()?;
/// assert_eq!(comparison.reports().len(), 2);
/// // One thermal solve per drive-cycle second, not one per scheme.
/// assert_eq!(scenario.thermal_solve_count(), 30);
/// let inor = comparison.report("INOR").expect("ran");
/// assert!(inor.net_energy() >= comparison.report("Baseline").unwrap().net_energy());
/// # Ok(())
/// # }
/// ```
pub struct Comparison<'s> {
    scenario: &'s Scenario,
    schemes: Vec<Box<dyn Reconfigurer + 's>>,
    runtime_policy: RuntimePolicy,
    solver_pool: Option<&'s mut SolverPool>,
}

impl<'s> Comparison<'s> {
    /// Starts an empty comparison over the given scenario.
    #[must_use]
    pub fn new(scenario: &'s Scenario) -> Self {
        Self {
            scenario,
            schemes: Vec::new(),
            runtime_policy: RuntimePolicy::Measured,
            solver_pool: None,
        }
    }

    /// Adds one scheme to the field.
    #[must_use]
    pub fn scheme(mut self, scheme: impl Reconfigurer + 's) -> Self {
        self.schemes.push(Box::new(scheme));
        self
    }

    /// Adds a boxed scheme (for dynamically assembled fields).
    #[must_use]
    pub fn boxed_scheme(mut self, scheme: Box<dyn Reconfigurer + 's>) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds a fresh instance built from a [`SchemeSpec`] factory.
    #[must_use]
    pub fn spec(self, spec: &SchemeSpec) -> Self {
        self.boxed_scheme(spec.build())
    }

    /// Starts a comparison with one fresh instance per spec, in order — how
    /// a sweep worker assembles its per-cell field.
    #[must_use]
    pub fn from_specs(scenario: &'s Scenario, specs: &[SchemeSpec]) -> Self {
        specs.iter().fold(Self::new(scenario), |comparison, spec| {
            comparison.spec(spec)
        })
    }

    /// Replaces the runtime-accounting policy every scheme will run under
    /// (defaults to [`RuntimePolicy::Measured`]).
    #[must_use]
    pub fn runtime_policy(mut self, policy: RuntimePolicy) -> Self {
        self.runtime_policy = policy;
        self
    }

    /// Recycles electrical-solver scratch through the given pool: the run
    /// draws one warm solver for its shared plant before the first step and
    /// returns it after, so a caller running many comparisons (a sweep
    /// worker) reuses the same allocations throughout.  Results are
    /// unchanged — solvers carry scratch, not state.
    #[must_use]
    pub fn solver_pool(mut self, pool: &'s mut SolverPool) -> Self {
        self.solver_pool = Some(pool);
        self
    }

    /// The paper's Table I field: DNOR, INOR, EHTR and the square-grid
    /// baseline for this scenario's module count.
    #[must_use]
    pub fn paper_schemes(scenario: &'s Scenario) -> Self {
        let modules = scenario.module_count();
        Self::new(scenario)
            .scheme(Dnor::default())
            .scheme(Inor::default())
            .scheme(Ehtr::default())
            .scheme(StaticBaseline::square_grid(modules))
    }

    /// Number of schemes added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Returns `true` when no scheme has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// Drives every scheme over the whole drive cycle in lockstep and
    /// returns the collected reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when no scheme was added or two
    /// schemes share a name (which would make
    /// [`ComparisonReport::report`] ambiguous), and propagates the first
    /// error any step produces.
    pub fn run(mut self) -> Result<ComparisonReport, SimError> {
        if self.schemes.is_empty() {
            return Err(SimError::InvalidScenario {
                reason: "comparison needs at least one scheme".into(),
            });
        }
        let mut names = HashSet::new();
        for scheme in &self.schemes {
            if !names.insert(scheme.name()) {
                return Err(SimError::InvalidScenario {
                    reason: format!(
                        "comparison field contains scheme {:?} twice; per-name report \
                         lookup would be ambiguous",
                        scheme.name()
                    ),
                });
            }
        }
        let mut plant = Plant::new(self.scenario)?;
        let mut controllers = self
            .schemes
            .iter_mut()
            .map(|scheme| Controller::new(self.scenario, scheme.as_mut(), self.runtime_policy))
            .collect::<Result<Vec<_>, _>>()?;
        // The solver is drawn only once every controller exists, and
        // returned even when a step errors below, so a failing cell never
        // drains its worker's pool.
        let mut pool = self.solver_pool.take();
        if let Some(pool) = pool.as_deref_mut() {
            plant.set_solver(pool.acquire());
        }
        let steps = plant.remaining();
        let mut records: Vec<Vec<StepRecord>> = controllers
            .iter()
            .map(|_| Vec::with_capacity(steps))
            .collect();

        // Lockstep: the plant replays each drive second once — fault events,
        // sensor view, module terms — and every scheme steps against it
        // before the next, as the paper's shared testbed does.
        let outcome: Result<(), SimError> = (|| {
            while let Some(mut step) = plant.advance()? {
                for (controller, sink) in controllers.iter_mut().zip(records.iter_mut()) {
                    sink.push(controller.step(&mut step)?);
                }
            }
            Ok(())
        })();

        if let Some(pool) = pool {
            pool.release(plant.take_solver());
        }
        outcome?;

        let reports = controllers
            .into_iter()
            .zip(records)
            .map(|(controller, records)| controller.into_report(records))
            .collect();
        Ok(ComparisonReport { reports })
    }
}

/// The outcome of a [`Comparison`]: one [`SimulationReport`] per scheme, in
/// insertion order, plus Table I rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    reports: Vec<SimulationReport>,
}

impl ComparisonReport {
    /// Reassembles a comparison report from per-scheme simulation reports —
    /// the wire-codec inverse of [`ComparisonReport::reports`].  The order
    /// of `reports` is preserved verbatim (it is the scheme insertion
    /// order), so a report rebuilt from faithfully transported parts
    /// compares equal (`PartialEq`) to the in-process original.
    #[must_use]
    pub fn from_reports(reports: Vec<SimulationReport>) -> Self {
        Self { reports }
    }

    /// The per-scheme reports in the order the schemes were added.
    #[must_use]
    pub fn reports(&self) -> &[SimulationReport] {
        &self.reports
    }

    /// The report of the scheme with the given name, if it ran.
    #[must_use]
    pub fn report(&self, scheme: &str) -> Option<&SimulationReport> {
        self.reports.iter().find(|r| r.scheme() == scheme)
    }

    /// The scheme that harvested the most net energy.
    #[must_use]
    pub fn best(&self) -> Option<&SimulationReport> {
        self.reports
            .iter()
            .max_by(|a, b| a.net_energy().value().total_cmp(&b.net_energy().value()))
    }

    /// Renders the comparison as the paper's Table I: energy output, switch
    /// overhead, switch count, average runtime and fraction of ideal, one
    /// row per scheme.
    #[must_use]
    pub fn table1(&self) -> String {
        let mut out = String::from(
            "Scheme    | Energy Output (J) | Switch Overhead (J) | Switches | Avg Runtime (ms) | % of Ideal\n",
        );
        out.push_str(
            "----------+-------------------+---------------------+----------+------------------+-----------\n",
        );
        for report in &self.reports {
            let (energy, overhead, runtime) = report.table1_row();
            out.push_str(&format!(
                "{:<10}| {:>17.1} | {:>19.2} | {:>8} | {:>16.3} | {:>9.1}%\n",
                report.scheme(),
                energy,
                overhead,
                report.switch_count(),
                runtime,
                100.0 * report.ideal_fraction(),
            ));
        }
        out
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table1())
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
    fn empty_comparison_is_rejected() {
        let s = scenario(10, 10, 1);
        let c = Comparison::new(&s);
        assert!(c.is_empty());
        assert!(matches!(c.run(), Err(SimError::InvalidScenario { .. })));
    }

    #[test]
    fn paper_schemes_runs_all_four_with_one_thermal_solve_per_sample() {
        let s = scenario(20, 30, 2);
        let comparison = Comparison::paper_schemes(&s);
        assert_eq!(comparison.len(), 4);
        let report = comparison.run().unwrap();
        assert_eq!(report.reports().len(), 4);
        // The acceptance hook: four schemes over a 30-sample cycle cost
        // exactly 30 radiator solves, not 120.
        assert_eq!(s.thermal_solve_count(), 30);
        for scheme in ["DNOR", "INOR", "EHTR", "Baseline"] {
            let r = report.report(scheme).expect("scheme ran");
            assert_eq!(r.records().len(), 30);
        }
        assert!(report.report("nonesuch").is_none());
    }

    #[test]
    fn best_scheme_beats_the_baseline() {
        let s = scenario(24, 40, 3);
        let report = Comparison::paper_schemes(&s).run().unwrap();
        let best = report.best().expect("non-empty");
        let baseline = report.report("Baseline").unwrap();
        assert!(best.net_energy() >= baseline.net_energy());
        assert_ne!(best.scheme(), "Baseline");
    }

    #[test]
    fn table1_renders_one_row_per_scheme() {
        let s = scenario(12, 15, 4);
        let report = Comparison::paper_schemes(&s).run().unwrap();
        let table = report.table1();
        assert_eq!(table.lines().count(), 6); // header + separator + 4 rows
        for scheme in ["DNOR", "INOR", "EHTR", "Baseline"] {
            assert!(table.contains(scheme), "table missing {scheme}:\n{table}");
        }
        assert_eq!(report.to_string(), table);
    }

    #[test]
    fn boxed_schemes_are_accepted() {
        let s = scenario(9, 10, 5);
        let report = Comparison::new(&s)
            .boxed_scheme(Box::new(Inor::default()))
            .run()
            .unwrap();
        assert_eq!(report.reports().len(), 1);
    }

    #[test]
    fn duplicate_scheme_names_are_rejected() {
        let s = scenario(8, 10, 6);
        let err = Comparison::new(&s)
            .scheme(Inor::default())
            .scheme(Inor::default())
            .run()
            .unwrap_err();
        match err {
            SimError::InvalidScenario { reason } => {
                assert!(reason.contains("INOR"), "{reason}");
                assert!(reason.contains("twice"), "{reason}");
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn spec_built_fields_match_directly_assembled_ones() {
        use crate::session::RuntimePolicy;
        use teg_reconfig::SchemeSpec;
        use teg_units::Seconds;

        let s = scenario(10, 20, 7);
        let policy = RuntimePolicy::Fixed(Seconds::new(0.002));
        let specs = [SchemeSpec::inor(), SchemeSpec::baseline_square_grid(10)];
        let from_specs = Comparison::from_specs(&s, &specs)
            .runtime_policy(policy)
            .run()
            .unwrap();
        let by_hand = Comparison::new(&s)
            .scheme(Inor::default())
            .scheme(teg_reconfig::StaticBaseline::square_grid(10))
            .runtime_policy(policy)
            .run()
            .unwrap();
        // Under a fixed runtime policy the whole run is deterministic, so
        // the two assemblies agree exactly.
        assert_eq!(from_specs, by_hand);
    }

    #[test]
    fn fixed_runtime_policy_makes_reruns_identical() {
        use crate::session::RuntimePolicy;
        use teg_units::Seconds;

        let s = scenario(12, 25, 8);
        // INOR, EHTR and the baseline decide purely from telemetry; with a
        // fixed runtime charge the entire report is reproducible.  (DNOR is
        // excluded: its switch economics consult its own measured runtime.)
        let run = || {
            Comparison::new(&s)
                .scheme(Inor::default())
                .scheme(Ehtr::default())
                .scheme(StaticBaseline::square_grid(12))
                .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.001)))
                .run()
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
