//! Sweeps run in process: the plain `SweepRunner` path that is timed, and
//! the traced path that rebuilds the sweep from the same public parts with
//! a span around every layer call.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use teg_array::Configuration;
use teg_reconfig::{ReconfigDecision, ReconfigError, Reconfigurer, TelemetryWindow};
use teg_sim::{
    Comparison, GridSpec, ScenarioGrid, SolverPool, SweepCellReport, SweepReport, SweepRunner,
};
use teg_units::Seconds;

use crate::trace;
use crate::POLICY;

fn grid(line: &str) -> Result<ScenarioGrid, String> {
    GridSpec::parse(line)
        .and_then(|spec| spec.to_grid())
        .map_err(|e| e.to_string())
}

/// One sweep as an in-process user runs it: parse the grid line, build the
/// grid, sweep it with `SweepRunner` on `workers` workers.
pub fn sweep(line: &str, workers: usize) -> Result<SweepReport, String> {
    SweepRunner::new()
        .workers(workers)
        .runtime_policy(POLICY)
        .run(&grid(line)?)
        .map_err(|e| e.to_string())
}

/// What the traced path counts besides spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub thermal_solves: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

/// The result of a traced sweep.
pub struct Traced {
    pub cells: Vec<SweepCellReport>,
    /// One span list per worker.
    pub spans: Vec<Vec<trace::Span>>,
    pub counts: Counts,
}

/// The traced twin of [`sweep`].  It does what `SweepRunner::run` does, in
/// the same order: the grid's unique thermal keys are pre-solved across the
/// workers, then cells are dealt round-robin into per-worker deques and an
/// idle worker steals from the fullest sibling.  Each worker's span runs
/// from its start until every worker is done, so its self time is the time
/// it spent neither solving nor running a cell.  With `epoch` `None` no
/// span is recorded, which gives the untraced time of the same work.
pub fn traced_sweep(line: &str, workers: usize, epoch: Option<Instant>) -> Result<Traced, String> {
    let grid = grid(line)?;
    let cells = grid.cells();
    let workers = workers.clamp(1, cells.len());
    let unique = grid.unique_sample_indices();
    let next_sample = AtomicUsize::new(0);
    let solves = AtomicUsize::new(0);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..cells.len()).step_by(workers).collect()))
        .collect();
    let results: Vec<Mutex<Option<Result<SweepCellReport, String>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(workers);
    let spans = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|own| {
                let (grid, unique, next_sample, solves) = (&grid, &unique, &next_sample, &solves);
                let (queues, results, barrier) = (&queues, &results, &barrier);
                scope.spawn(move || {
                    if let Some(epoch) = epoch {
                        trace::start(epoch);
                    }
                    let worker = trace::span("sweep.worker");
                    while let Some(&index) = unique.get(next_sample.fetch_add(1, Ordering::Relaxed))
                    {
                        let _span = trace::span("thermal.solve");
                        // As in the runner, a failed solve is left for the
                        // cell that needs it to re-attempt and report.
                        if let Ok(true) = grid.samples()[index].presolve(1) {
                            solves.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    barrier.wait();
                    let mut pool = SolverPool::new();
                    while let Some(index) = next_job(queues, own) {
                        trace::set_request(index as u64);
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| traced_cell(grid, index, &mut pool)))
                                .unwrap_or_else(|_| Err(format!("cell {index} panicked")));
                        *results[index]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    }
                    barrier.wait();
                    drop(worker);
                    trace::finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_default())
            .collect()
    });
    let cells = results
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err(format!("cell {index} never ran")))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cache = grid.trace_cache();
    Ok(Traced {
        cells,
        spans,
        counts: Counts {
            thermal_solves: solves.into_inner(),
            cache_hits: cache.map_or(0, |c| c.hits()),
            cache_misses: cache.map_or(0, |c| c.misses()),
        },
    })
}

/// The runner's scheduling rule: the front of the worker's own deque, else
/// the back of the fullest sibling's.
fn next_job(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    let lock = |w: usize| queues[w].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(index) = lock(own).pop_front() {
        return Some(index);
    }
    let victim = (0..queues.len())
        .filter(|&w| w != own)
        .max_by_key(|&w| lock(w).len())?;
    lock(victim).pop_back()
}

/// One cell, with its schemes wrapped in [`Timed`].
fn traced_cell(
    grid: &ScenarioGrid,
    index: usize,
    pool: &mut SolverPool,
) -> Result<SweepCellReport, String> {
    let cell = &grid.cells()[index];
    let _span = trace::span("sweep.cell");
    let mut comparison = Comparison::new(grid.scenario(cell)).runtime_policy(POLICY);
    for spec in grid.lineup(cell).specs(cell.key().module_count()) {
        comparison = comparison.boxed_scheme(Box::new(Timed::new(spec.build())));
    }
    let report = {
        let _span = trace::span("sim.session");
        comparison
            .solver_pool(pool)
            .run()
            .map_err(|e| e.to_string())?
    };
    Ok(SweepCellReport::from_parts(cell.key().clone(), report))
}

/// Wraps a scheme so each decision runs inside a `core.decide.<scheme>`
/// span.  It forwards everything a session reads from the scheme; the
/// kernel-mode hook keeps its default, which suits the default-mode grids
/// every workload builds.
struct Timed {
    inner: Box<dyn Reconfigurer>,
    layer: &'static str,
}

impl Timed {
    fn new(inner: Box<dyn Reconfigurer>) -> Self {
        let layer = decide_layer(inner.name());
        Self { inner, layer }
    }
}

pub fn decide_layer(scheme: &str) -> &'static str {
    match scheme {
        "EHTR" => "core.decide.ehtr",
        "DNOR" => "core.decide.dnor",
        "INOR" => "core.decide.inor",
        "Baseline" => "core.decide.baseline",
        _ => "core.decide.other",
    }
}

impl Reconfigurer for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn period(&self) -> Seconds {
        self.inner.period()
    }

    fn lookback(&self) -> usize {
        self.inner.lookback()
    }

    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        let _span = trace::span(self.layer);
        self.inner.decide(window, current)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
