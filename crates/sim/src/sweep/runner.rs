//! The work-stealing execution engine behind scenario sweeps.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::thread;

use crate::comparison::{Comparison, ComparisonReport};
use crate::error::SimError;
use crate::session::{RuntimePolicy, SolverPool};
use crate::sweep::grid::ScenarioGrid;
use crate::sweep::report::{SweepCellReport, SweepReport};

/// Executes every cell of a [`ScenarioGrid`] on a pool of scoped worker
/// threads.
///
/// Cells are distributed round-robin into per-worker deques; a worker that
/// drains its own deque steals from the back of its siblings', so an uneven
/// grid (an 800-second cell next to 30-second cells) still keeps every core
/// busy.  Results are written into a slot per cell index, which makes the
/// assembled [`SweepReport`] independent of completion order — the
/// serial-equivalence guarantee the integration tests pin down.
///
/// Thermal work is shared at two levels while the pool runs: cells of one
/// scenario sample reuse its `Arc`-cached trace, and samples with equal
/// thermal inputs (e.g. fault-profile variants) resolve through the grid's
/// [`TraceCache`](crate::TraceCache), so [`SweepReport::thermal_solves`]
/// counts one radiator solve per drive-cycle second of each *unique thermal
/// key*, whichever worker got there first.  Traces are solved on demand: a
/// worker that misses a key another worker is already solving waits for
/// that solve instead of repeating it.
///
/// # Examples
///
/// ```
/// use teg_sim::{RuntimePolicy, ScenarioGrid, SweepRunner};
/// use teg_units::Seconds;
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let grid = ScenarioGrid::builder()
///     .module_counts([10])
///     .seeds([1, 2, 3])
///     .duration_seconds(12)
///     .build()?;
/// let report = SweepRunner::new()
///     .workers(3)
///     .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
///     .run(&grid)?;
/// assert_eq!(report.cells().len(), 3);
/// // One radiator solve per drive second of each distinct sample.
/// assert_eq!(report.thermal_solves(), 3 * 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
    runtime_policy: RuntimePolicy,
}

impl SweepRunner {
    /// Creates a runner sized to the machine's available parallelism, with
    /// the default [`RuntimePolicy::Measured`] accounting.
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            runtime_policy: RuntimePolicy::Measured,
        }
    }

    /// Sets the number of worker threads (clamped to at least 1).  `1`
    /// reproduces the serial execution exactly.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The number of worker threads the runner will spawn (before clamping
    /// to the grid size).
    #[must_use]
    pub const fn worker_count(&self) -> usize {
        self.workers
    }

    /// Replaces the runtime-accounting policy every cell runs under.
    /// [`RuntimePolicy::Fixed`] makes the sweep bit-reproducible for any
    /// worker count and any lineup: every decision, DNOR's switch gate
    /// included, is charged the fixed computation time.
    #[must_use]
    pub fn runtime_policy(mut self, policy: RuntimePolicy) -> Self {
        self.runtime_policy = policy;
        self
    }

    /// Runs every cell of the grid and assembles the report in grid order.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell (deterministic
    /// for any worker count), or [`SimError::InvalidScenario`] for an empty
    /// grid.  A scheme that *panics* is confined to its cell and reported
    /// the same way, as that cell's [`SimError::InvalidScenario`].
    pub fn run(&self, grid: &ScenarioGrid) -> Result<SweepReport, SimError> {
        let cells = grid.cells();
        if cells.is_empty() {
            return Err(SimError::InvalidScenario {
                reason: "scenario grid has no cells".into(),
            });
        }
        let solves_before = grid.thermal_solve_count();
        let workers = self.workers.min(cells.len());
        let policy = self.runtime_policy;

        // Per-worker deques seeded round-robin; a slot per cell for results.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..cells.len()).step_by(workers).collect()))
            .collect();
        let results: Vec<Mutex<Option<Result<ComparisonReport, SimError>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for own in 0..workers {
                let queues = &queues;
                let results = &results;
                scope.spawn(move || {
                    // One solver pool per worker: the electrical-solver
                    // scratch warms up on the first cell and is reused by
                    // every later cell this worker executes.
                    let mut pool = SolverPool::new();
                    while let Some(index) = next_job(queues, own) {
                        let outcome = run_cell(grid, index, policy, &mut pool);
                        *results[index]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    }
                });
            }
        });

        let mut reports = Vec::with_capacity(cells.len());
        for (cell, slot) in cells.iter().zip(results) {
            let outcome = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // Defensive: `run_cell` contains panics, so every popped
                    // job fills its slot and an empty one would mean a
                    // scheduler bug.
                    Err(SimError::InvalidScenario {
                        reason: format!("sweep cell {} was abandoned by its worker", cell.key()),
                    })
                });
            reports.push(SweepCellReport::from_parts(cell.key().clone(), outcome?));
        }
        let thermal_solves = grid.thermal_solve_count() - solves_before;
        Ok(SweepReport::from_cells(reports, thermal_solves))
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// Pops the next cell index: the front of the worker's own deque, else a
/// steal from the back of the fullest sibling.
fn next_job(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    if let Some(index) = queues[own]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
    {
        return Some(index);
    }
    // Steal from the victim with the most remaining work so the tail of the
    // sweep stays balanced.
    let victim = (0..queues.len()).filter(|&w| w != own).max_by_key(|&w| {
        queues[w]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    })?;
    queues[victim]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_back()
}

/// Runs one cell of a grid: the single cell executor behind both
/// [`SweepRunner`]'s workers and the `teg-served` daemon's workers, so the
/// two produce the same result for the same cell.
///
/// It looks the cell up, builds its scenario and lineup, and runs the
/// lockstep [`Comparison`] under `policy`, reusing `pool`'s electrical-solver
/// scratch.  Everything runs inside panic containment: a scheme or solver
/// that panics becomes this cell's error instead of unwinding into the
/// caller's worker thread.  The state a panic can leave behind — the cell's
/// own fresh scheme instances and the worker-local solver scratch — is
/// local to the call, hence the `AssertUnwindSafe`.
///
/// # Errors
///
/// Returns [`SimError::InvalidScenario`] when `index` is outside the grid or
/// the cell panicked (the message names the cell key and says it panicked),
/// and otherwise whatever the comparison returns.
pub fn run_cell(
    grid: &ScenarioGrid,
    index: usize,
    policy: RuntimePolicy,
    pool: &mut SolverPool,
) -> Result<ComparisonReport, SimError> {
    let cell = grid
        .cells()
        .get(index)
        .ok_or_else(|| SimError::InvalidScenario {
            reason: format!("cell index {index} is outside the grid"),
        })?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let scenario = grid.scenario(cell);
        let specs = grid.lineup(cell).specs(cell.key().module_count());
        Comparison::from_specs(scenario, &specs)
            .runtime_policy(policy)
            .solver_pool(pool)
            .run()
    }))
    .unwrap_or_else(|_| {
        Err(SimError::InvalidScenario {
            reason: format!("sweep cell {} panicked in a scheme or solver", cell.key()),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSeverity;
    use crate::sweep::grid::{FaultProfile, ScenarioGrid, SchemeLineup};
    use teg_reconfig::SchemeSpec;
    use teg_units::Seconds;

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .module_counts([6, 8])
            .seeds([1, 2])
            .duration_seconds(8)
            .lineups([SchemeLineup::fixed(
                "duo",
                vec![SchemeSpec::inor(), SchemeSpec::baseline_square_grid(6)],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn runner_defaults_are_sane() {
        let runner = SweepRunner::new();
        assert!(runner.worker_count() >= 1);
        assert_eq!(SweepRunner::default().worker_count(), runner.worker_count());
        assert_eq!(SweepRunner::new().workers(0).worker_count(), 1);
    }

    #[test]
    fn sweep_runs_every_cell_and_counts_solves_once() {
        let grid = small_grid();
        let report = SweepRunner::new().workers(4).run(&grid).unwrap();
        assert_eq!(report.cells().len(), 4);
        // 4 distinct samples × 8 drive seconds, solved once each even with
        // more workers than samples.
        assert_eq!(report.thermal_solves(), 4 * 8);
        assert_eq!(grid.thermal_solve_count(), 4 * 8);
        for cell in report.cells() {
            assert_eq!(cell.report().reports().len(), 2);
        }
        let inor = report.summary("INOR").unwrap();
        assert_eq!(inor.cells(), 4);
        assert!(inor.mean_net_energy().value() > 0.0);
        assert!(report.summary("nonesuch").is_none());
        // On these short drives the winner can go either way; it must simply
        // be one of the two competitors.
        let best = report.best_scheme().unwrap().scheme();
        assert!(best == "INOR" || best == "Baseline", "{best}");

        // The worst case for demand solving: one thermal key fielding
        // 8 lineups on 4 workers, so every worker wants the same trace.  The
        // key is carried by two samples (a healthy and a faulted one), so
        // both the per-sample solve lock and the trace cache are on the
        // path; together they hold the sweep to one radiator solve per
        // drive second.  `barrier_released_same_key_misses_solve_exactly_once`
        // forces the simultaneous misses this grid can only invite.
        let one_key = || {
            let lineup = |i| SchemeLineup::fixed(format!("lineup-{i}"), vec![SchemeSpec::inor()]);
            ScenarioGrid::builder()
                .module_counts([6])
                .seeds([1])
                .duration_seconds(12)
                .faults([
                    FaultProfile::none(),
                    FaultProfile::random("moderate", FaultSeverity::moderate()),
                ])
                .lineups((0..8).map(lineup))
                .build()
                .unwrap()
        };
        let policy = RuntimePolicy::Fixed(Seconds::new(0.003));
        let grid = one_key();
        assert_eq!(grid.len(), 16);
        assert_eq!(grid.unique_sample_indices().len(), 1);
        let parallel = SweepRunner::new()
            .workers(4)
            .runtime_policy(policy)
            .run(&grid)
            .unwrap();
        assert_eq!(parallel.thermal_solves(), 12);
        let cache = grid.trace_cache().unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        let serial = SweepRunner::new()
            .workers(1)
            .runtime_policy(policy)
            .run(&one_key())
            .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn rerunning_a_warm_grid_costs_no_new_solves() {
        let grid = small_grid();
        let runner = SweepRunner::new().workers(2);
        let first = runner.run(&grid).unwrap();
        assert_eq!(first.thermal_solves(), 4 * 8);
        let second = runner.run(&grid).unwrap();
        // The per-sample trace cache is shared across runs of the same grid.
        assert_eq!(second.thermal_solves(), 0);
        assert_eq!(grid.thermal_solve_count(), 4 * 8);
    }

    #[test]
    fn worker_counts_beyond_the_grid_are_harmless() {
        let grid = ScenarioGrid::builder()
            .module_counts([5])
            .seeds([3])
            .duration_seconds(6)
            .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
            .build()
            .unwrap();
        let report = SweepRunner::new().workers(32).run(&grid).unwrap();
        assert_eq!(report.cells().len(), 1);
    }

    #[test]
    fn serial_and_parallel_reports_are_identical_under_fixed_runtime() {
        let policy = RuntimePolicy::Fixed(Seconds::new(0.003));
        let serial = SweepRunner::new()
            .workers(1)
            .runtime_policy(policy)
            .run(&small_grid())
            .unwrap();
        let parallel = SweepRunner::new()
            .workers(4)
            .runtime_policy(policy)
            .run(&small_grid())
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn a_panicking_scheme_becomes_that_cells_error() {
        let grid = panicking_grid();
        let err = SweepRunner::new().workers(2).run(&grid).unwrap_err();
        // The panic is confined to the cell and surfaced as its error
        // instead of tearing down the whole sweep scope.
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    /// A one-cell grid whose only scheme panics on its first decision.
    fn panicking_grid() -> ScenarioGrid {
        use teg_array::Configuration;
        use teg_reconfig::{ReconfigDecision, ReconfigError, Reconfigurer, TelemetryWindow};

        struct Panicking;
        impl Reconfigurer for Panicking {
            fn name(&self) -> &'static str {
                "Panicking"
            }
            fn period(&self) -> Seconds {
                Seconds::new(1.0)
            }
            fn decide(
                &mut self,
                _window: &TelemetryWindow<'_>,
                _current: &Configuration,
            ) -> Result<ReconfigDecision, ReconfigError> {
                panic!("scheme bug");
            }
        }

        ScenarioGrid::builder()
            .module_counts([5])
            .seeds([1])
            .duration_seconds(5)
            .lineups([SchemeLineup::fixed(
                "broken",
                vec![SchemeSpec::new(|| Panicking)],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn run_cell_rejects_an_index_outside_the_grid() {
        let grid = small_grid();
        let err = run_cell(
            &grid,
            grid.len(),
            RuntimePolicy::Measured,
            &mut SolverPool::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidScenario { .. }), "{err}");
        assert!(err.to_string().contains("outside the grid"), "{err}");
    }

    #[test]
    fn run_cell_turns_a_panic_into_an_error_naming_the_cell() {
        let grid = panicking_grid();
        let key = grid.cells()[0].key().to_string();
        let err = run_cell(&grid, 0, RuntimePolicy::Measured, &mut SolverPool::new()).unwrap_err();
        assert!(matches!(err, SimError::InvalidScenario { .. }), "{err}");
        let message = err.to_string();
        assert!(message.contains("panicked"), "{message}");
        assert!(message.contains(&key), "{message} should name {key}");
    }

    #[test]
    fn run_cell_matches_the_runners_report_for_that_cell() {
        let policy = RuntimePolicy::Fixed(Seconds::new(0.003));
        let report = SweepRunner::new()
            .workers(2)
            .runtime_policy(policy)
            .run(&small_grid())
            .unwrap();
        let grid = small_grid();
        let mut pool = SolverPool::new();
        for (index, cell) in report.cells().iter().enumerate() {
            let alone = run_cell(&grid, index, policy, &mut pool).unwrap();
            assert_eq!(&alone, cell.report(), "cell {index}");
        }
    }

    #[test]
    fn summary_table_lists_every_scheme() {
        let report = SweepRunner::new().workers(2).run(&small_grid()).unwrap();
        let table = report.summary_table();
        assert!(table.contains("INOR"), "{table}");
        assert!(table.contains("Baseline"), "{table}");
        assert_eq!(report.to_string(), table);
    }
}
