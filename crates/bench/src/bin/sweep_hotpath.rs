//! Sweep hot-path benchmark — end-to-end cells/second of a scenario sweep
//! with the cross-cell thermal trace cache on and off.
//!
//! PR 4's `solver_hotpath` snapshot covers the electrical candidate scan;
//! this binary extends the perf trajectory to the full sweep pipeline, where
//! the radiator solve is the dominant shared cost and the EHTR partition
//! search dominates the paper lineup.  Before any timing it asserts the
//! correctness contracts: the cached and uncached (isolated-trace) sweeps
//! must produce identical cells and summaries, and one worker must equal four
//! workers bit for bit.  It then times both configurations end to end,
//! prints a table, writes `BENCH_sweep.json` and **exits non-zero** if the
//! headline grid's cached-vs-uncached speedup or a throughput-gated grid's
//! cached throughput drops below its committed floor — so CI catches a
//! regressing cache or decision pipeline.
//!
//! It also runs one scale-onr-shaped cell (400 modules, severe faults,
//! deterministic DNOR + INOR + baseline) and asserts, in release, that the
//! lockstep `Comparison` — one shared plant for the whole field — equals
//! the sequential standalone `SimSession` runs bit for bit, before timing
//! the comparison as `onr_cell_ms` (recorded, not gated).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use teg_bench::available_parallelism;
use teg_sim::{
    Comparison, FaultProfile, FaultSeverity, RuntimePolicy, ScenarioGrid, SchemeLineup, SimSession,
    SolverPool, SweepRunner, TraceCache,
};
use teg_units::Seconds;

/// Fixed per-decision charge: keeps every run bit-reproducible so the
/// equivalence gates below are exact.
const CHARGE: Seconds = Seconds::new(0.002);
/// Worker count used for the timed runs (fixed for comparable snapshots).
const WORKERS: usize = 4;
/// The committed floor for the headline (gating) grid's cached-vs-uncached
/// speedup.  The snapshot in `BENCH_sweep.json` shows the measured value;
/// the floor is deliberately conservative so CI noise cannot flake the gate.
const SPEEDUP_FLOOR: f64 = 1.5;
/// The committed end-to-end throughput of the paper-field grid at 4 workers
/// as of the PR-8 snapshot (cached, bit-exact, demand-solved traces), in
/// cells per second.  The throughput gate below holds the cached run to a
/// multiple of this absolute baseline rather than to a same-run ratio, so
/// the gate tracks the cumulative decision-memo and DP-layout win.
const THROUGHPUT_BASELINE_CPS: f64 = 39.7;
/// Committed floor on `cached_cells_per_s / THROUGHPUT_BASELINE_CPS` for
/// throughput-gated grids.
const THROUGHPUT_FLOOR: f64 = 2.0;

struct GridSpec {
    name: &'static str,
    /// Whether this case enforces `SPEEDUP_FLOOR` (cache gate).
    gating: bool,
    /// Whether this case enforces `THROUGHPUT_FLOOR` against
    /// `THROUGHPUT_BASELINE_CPS` (absolute throughput gate).
    throughput_gating: bool,
    build: fn(bool) -> ScenarioGrid,
}

/// The headline grid: a seed × fault-severity matrix over the paper's
/// 100-module array, replayed by the static field lineup (the monitoring
/// workload whose per-step cost is dominated by the thermal solve).  Thirty-three
/// of its 36 samples differ only by fault profile, so the cache
/// collapses 36 trace solves to 3.
fn monitoring_grid(shared: bool) -> ScenarioGrid {
    let spec = teg_sim::GridSpec::new()
        .module_counts([100])
        .seeds([1, 2, 3])
        .duration_seconds(160)
        .faults([FaultProfile::none()].into_iter().chain((0..11).map(|i| {
            // Electrical-degradation variants (aging derates and one
            // open circuit), deterministic in the cell coordinates.
            // All eleven replay the same radiator inputs as the healthy
            // profile, so they share its thermal key.
            FaultProfile::parameterised(format!("degraded-{i}"), move |modules, duration, seed| {
                let at = |k: usize| (k * duration / 4).min(duration - 1);
                let module = |k: usize| (seed as usize + i as usize * 3 + k * 7) % modules;
                teg_sim::FaultPlan::new(vec![
                    teg_sim::FaultEvent::new(
                        at(1),
                        teg_sim::FaultAction::Module {
                            module: module(0),
                            fault: teg_array::ModuleFault::Derated(0.5 + 0.04 * i as f64),
                        },
                    ),
                    teg_sim::FaultEvent::new(
                        at(2),
                        teg_sim::FaultAction::Module {
                            module: module(1),
                            fault: teg_array::ModuleFault::OpenCircuit,
                        },
                    ),
                    teg_sim::FaultEvent::new(
                        at(3),
                        teg_sim::FaultAction::ModuleRepair { module: module(1) },
                    ),
                ])
            })
        })))
        .lineups([SchemeLineup::parameterised("static-field", |n| {
            vec![teg_reconfig::SchemeSpec::baseline_square_grid(n)]
        })]);
    spec.to_grid_with_cache(shared.then(TraceCache::new))
        .expect("monitoring grid")
}

/// A full paper-lineup grid: all four schemes per cell.  The electrical
/// candidate search — above all the EHTR partition DP — dominates its
/// end-to-end cost, which makes it the gating case for the
/// absolute-throughput floor (the cumulative decision-memo and DP-layout
/// wins are what move this grid).
fn paper_grid(shared: bool) -> ScenarioGrid {
    let spec = teg_sim::GridSpec::new()
        .module_counts([40])
        .seeds([1, 2])
        .duration_seconds(120)
        .faults([
            FaultProfile::none(),
            FaultProfile::random("moderate", FaultSeverity::moderate()),
            FaultProfile::random("severe", FaultSeverity::severe()),
        ])
        .lineups([SchemeLineup::paper()]);
    spec.to_grid_with_cache(shared.then(TraceCache::new))
        .expect("paper grid")
}

/// One cell of the e2e-bench `scale-onr` workload's shape: the scalability
/// lineup at 400 modules over the 800 s paper drive, severely faulted.
const ONR_CELL: &str = "modules=400|seeds=1|drive=porter-ii-800s:800|var=none\
                        |fault=random:severe:severe|lineup=fixed:onr:dnor+inor+baseline";

/// Asserts the scale-onr-shaped cell's lockstep comparison equals its
/// sequential standalone sessions bit for bit, then returns the best-of-N
/// wall time of the comparison in milliseconds (thermal trace already
/// solved, solver drawn from a warm pool — the sweep worker's steady state).
fn measure_onr_cell() -> f64 {
    let grid = teg_sim::GridSpec::parse(ONR_CELL)
        .and_then(|spec| spec.to_grid())
        .expect("scale-onr cell grid");
    let cell = &grid.cells()[0];
    let scenario = grid.scenario(cell);
    assert!(
        !scenario.fault_plan().is_empty(),
        "the scale-onr cell must be faulted"
    );
    let specs = grid.lineup(cell).specs(cell.key().module_count());
    let policy = RuntimePolicy::Fixed(CHARGE);
    let lockstep = Comparison::from_specs(scenario, &specs)
        .runtime_policy(policy)
        .run()
        .expect("scale-onr lockstep comparison");
    for (spec, lock) in specs.iter().zip(lockstep.reports()) {
        let mut scheme = spec.build();
        let sequential = SimSession::new(scenario, scheme.as_mut())
            .map(|session| session.with_runtime_policy(policy))
            .and_then(SimSession::run)
            .expect("scale-onr standalone session");
        assert_eq!(
            lock,
            &sequential,
            "scale-onr cell: lockstep {} differs from its standalone session",
            sequential.scheme()
        );
        for (a, b) in lock.records().iter().zip(sequential.records()) {
            for (x, y) in [
                (a.array_power().value(), b.array_power().value()),
                (a.net_power().value(), b.net_power().value()),
                (a.overhead_energy().value(), b.overhead_energy().value()),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "scale-onr cell: lockstep {} record at t={} is not bit-identical",
                    sequential.scheme(),
                    a.time()
                );
            }
        }
    }

    let mut pool = SolverPool::new();
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let start = Instant::now();
        let report = Comparison::from_specs(scenario, &specs)
            .runtime_policy(policy)
            .solver_pool(&mut pool)
            .run()
            .expect("scale-onr comparison");
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            report, lockstep,
            "scale-onr cell: a rerun changed the report"
        );
    }
    best * 1e3
}

struct Case {
    name: &'static str,
    gating: bool,
    throughput_gating: bool,
    cells: usize,
    samples: usize,
    unique_solves: usize,
    isolated_solves: usize,
    uncached_cps: f64,
    cached_cps: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.cached_cps / self.uncached_cps
    }

    fn throughput_ratio(&self) -> f64 {
        self.cached_cps / THROUGHPUT_BASELINE_CPS
    }
}

fn runner(workers: usize) -> SweepRunner {
    SweepRunner::new()
        .workers(workers)
        .runtime_policy(RuntimePolicy::Fixed(CHARGE))
}

/// Best-of-N end-to-end run times for both timed configurations,
/// rebuilding a cold grid outside the timed region each iteration so every
/// run pays its own thermal solves.  The configurations are interleaved
/// within each iteration — a transient load spike on shared hardware then
/// hits every configuration about equally, which keeps the speedup *ratios*
/// the gates check far more stable than timing each configuration in its
/// own best-of-N window.
fn time_runs_secs(build: fn(bool) -> ScenarioGrid) -> [f64; 2] {
    // Trace sharing per slot: uncached, cached.
    let configs = [false, true];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (slot, &shared) in configs.iter().enumerate() {
            let grid = build(shared);
            let start = Instant::now();
            let report = runner(WORKERS).run(&grid).expect("sweep");
            let elapsed = start.elapsed().as_secs_f64();
            assert!(!report.cells().is_empty());
            best[slot] = best[slot].min(elapsed);
        }
    }
    best
}

fn measure(spec: &GridSpec) -> Case {
    // Correctness gates first: sharing must be observationally invisible
    // (identical cells and summaries cached vs isolated; the solve *count*
    // legitimately differs) and worker-count independent.
    let cached_serial = runner(1).run(&(spec.build)(true)).expect("serial");
    let cached_parallel = runner(WORKERS).run(&(spec.build)(true)).expect("parallel");
    let isolated = runner(WORKERS).run(&(spec.build)(false)).expect("isolated");
    assert_eq!(
        cached_serial, cached_parallel,
        "{}: cached sweep must be worker-count independent",
        spec.name
    );
    assert_eq!(
        cached_parallel.cells(),
        isolated.cells(),
        "{}: trace sharing changed a cell report",
        spec.name
    );
    assert_eq!(
        cached_parallel.summaries(),
        isolated.summaries(),
        "{}: trace sharing changed a summary",
        spec.name
    );
    let shared_grid = (spec.build)(true);
    let isolated_grid = (spec.build)(false);
    let [uncached_secs, cached_secs] = time_runs_secs(spec.build);
    let cells = shared_grid.len();
    Case {
        name: spec.name,
        gating: spec.gating,
        throughput_gating: spec.throughput_gating,
        cells,
        samples: shared_grid.samples().len(),
        unique_solves: shared_grid.expected_thermal_solves(),
        isolated_solves: isolated_grid.expected_thermal_solves(),
        uncached_cps: cells as f64 / uncached_secs,
        cached_cps: cells as f64 / cached_secs,
    }
}

fn render_json(cases: &[Case], onr_cell_ms: f64) -> String {
    let gating_speedup = cases
        .iter()
        .filter(|c| c.gating)
        .map(Case::speedup)
        .fold(f64::INFINITY, f64::min);
    let throughput_gating_ratio = cases
        .iter()
        .filter(|c| c.throughput_gating)
        .map(Case::throughput_ratio)
        .fold(f64::INFINITY, f64::min);
    let mut out = String::from("{\n  \"bench\": \"sweep_hotpath\",\n");
    out.push_str("  \"unit\": \"cells_per_second\",\n");
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},\n  \"workers\": {WORKERS},\n  \"cases\": [",
        available_parallelism()
    );
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"grid\": \"{}\", \"cells\": {}, \"samples\": {}, \
             \"unique_thermal_solves\": {}, \"isolated_thermal_solves\": {}, \
             \"uncached_cells_per_s\": {:.1}, \"cached_cells_per_s\": {:.1}, \
             \"speedup\": {:.2}, \"gating\": {}, \"throughput_gating\": {}}}{comma}",
            case.name,
            case.cells,
            case.samples,
            case.unique_solves,
            case.isolated_solves,
            case.uncached_cps,
            case.cached_cps,
            case.speedup(),
            case.gating,
            case.throughput_gating,
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"gating_speedup\": {gating_speedup:.2},\n  \
         \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"throughput_baseline_cells_per_s\": {THROUGHPUT_BASELINE_CPS},\n  \
         \"throughput_gating_ratio\": {throughput_gating_ratio:.2},\n  \
         \"throughput_floor\": {THROUGHPUT_FLOOR},\n  \
         \"onr_cell_ms\": {onr_cell_ms:.2}\n}}"
    );
    out
}

fn main() -> ExitCode {
    let specs = [
        GridSpec {
            name: "monitoring-100mod",
            gating: true,
            throughput_gating: false,
            build: monitoring_grid,
        },
        GridSpec {
            name: "paper-field-40mod",
            gating: false,
            throughput_gating: true,
            build: paper_grid,
        },
    ];
    let cases: Vec<Case> = specs.iter().map(measure).collect();
    let onr_cell_ms = measure_onr_cell();

    println!("# Sweep hot path: shared trace cache");
    println!("grid,cells,samples,unique_solves,isolated_solves,uncached_cps,cached_cps,speedup");
    for case in &cases {
        println!(
            "{},{},{},{},{},{:.1},{:.1},{:.2}",
            case.name,
            case.cells,
            case.samples,
            case.unique_solves,
            case.isolated_solves,
            case.uncached_cps,
            case.cached_cps,
            case.speedup()
        );
    }

    println!("# scale-onr cell: lockstep == sequential sessions; best {onr_cell_ms:.2} ms");

    let json = render_json(&cases, onr_cell_ms);
    if let Err(e) = std::fs::write("BENCH_sweep.json", &json) {
        eprintln!("failed to write BENCH_sweep.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("# wrote BENCH_sweep.json");

    let mut ok = true;
    for case in cases.iter().filter(|c| c.gating) {
        let speedup = case.speedup();
        println!(
            "# {} cache speedup {speedup:.2}x (committed floor: {SPEEDUP_FLOOR}x)",
            case.name
        );
        if speedup < SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: {} cached-vs-uncached speedup {speedup:.2}x fell below the \
                 committed floor {SPEEDUP_FLOOR}x",
                case.name
            );
            ok = false;
        }
    }
    for case in cases.iter().filter(|c| c.throughput_gating) {
        let ratio = case.throughput_ratio();
        println!(
            "# {} cached throughput {:.1} cells/s = {ratio:.2}x the committed \
             baseline {THROUGHPUT_BASELINE_CPS} cells/s (floor: {THROUGHPUT_FLOOR}x)",
            case.name, case.cached_cps
        );
        if ratio < THROUGHPUT_FLOOR {
            eprintln!(
                "FAIL: {} cached throughput {:.1} cells/s is {ratio:.2}x the \
                 committed baseline {THROUGHPUT_BASELINE_CPS} cells/s, below the \
                 floor {THROUGHPUT_FLOOR}x",
                case.name, case.cached_cps
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
