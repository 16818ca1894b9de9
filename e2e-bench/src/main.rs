//! End-to-end benchmark of teg-harvest: seeded sweep workloads run in
//! process through `SweepRunner`, checked and timed; the traced run also
//! serves a small grid through the teg-served daemon.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <paper-table1|scale-onr> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object.  See
//! `e2e-bench/README.md` for the workloads and the meaning of each metric.

mod check;
mod digest;
mod inproc;
mod replay;
mod served;
mod stats;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use teg_serve::StatsReply;
use teg_sim::RuntimePolicy;
use teg_units::Seconds;

use check::Reference;
use stats::{median, percentile};
use workload::Plan;

/// Every sweep charges a fixed 2 ms per decision instead of the measured
/// wall clock, so the work per sweep and its output are the same on every
/// run.
pub const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 40.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests of the traced run's served pass: enough for a median of the
/// per-request serve spans.
const SERVED_REQUESTS: usize = 100;
/// Unrecorded and recorded traced sweeps, alternated, for the overhead.
const TRACE_PAIRS: usize = 2;
/// Below this share of cell span time inside `Comparison::run`, the traced
/// run's layer attribution is not trusted and the run is not correct.
const MIN_COVERAGE_PCT: f64 = 95.0;
/// Digests of the default seed's reference results, one line per workload.
const PINNED: &str = include_str!("../pinned-digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("e2e-bench: {reason}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = workload::plan(&args.workload, args.seed) else {
        eprintln!(
            "e2e-bench: --workload must be one of {}",
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let work_root = root.join(".e2e-bench-work");
    let nonce = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let work = work_root.join(format!("{}-{nonce}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &plan, &work, &work_root));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            print!("{}", report.render(&args, &plan, &root));
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("e2e-bench: {reason}");
            ExitCode::FAILURE
        }
    }
}

/// What a run measured and checked.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    /// Correctness problems beyond failed requests.
    problems: Vec<String>,
    digest: Option<u64>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn render(&self, args: &Args, plan: &Plan, root: &Path) -> String {
        let pinned = pinned_digest(plan.name, args.seed);
        let pin_status = match (pinned, self.digest) {
            (None, _) => "unpinned",
            (Some(pin), Some(digest)) if pin == digest => "match",
            _ => "MISMATCH",
        };
        let correct = self.failed == 0
            && self.problems.is_empty()
            && self.digest.is_some()
            && pin_status != "MISMATCH"
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# e2e-bench workload={} seed={} seconds={} trace={} nproc={} profile={} revision={}",
            plan.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sys::nproc(),
            sys::profile(),
            sys::git_revision(root)
        );
        let digest = self
            .digest
            .map_or_else(|| "none".to_owned(), |d| format!("{d:016x}"));
        let _ = writeln!(
            out,
            "# attempted={} failed={} digest={digest} pinned={pin_status}",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            let _ = writeln!(out, "# PROBLEM: {problem}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        out
    }
}

fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (name, pin_seed, digest) = (fields.next()?, fields.next()?, fields.next()?);
        (name == workload && pin_seed.parse() == Ok(seed))
            .then(|| u64::from_str_radix(digest, 16).ok())
            .flatten()
    })
}

fn run(args: &Args, plan: &Plan, work: &Path, work_root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reference = Reference::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let setup_s: Vec<f64> = (0..reps)
        .map(|_| {
            let began = Instant::now();
            checked_sweep(plan, &reference, &mut report);
            began.elapsed().as_secs_f64()
        })
        .collect();
    if args.trace {
        traced(args, plan, &reference, work, work_root, &mut report)?;
    } else {
        timed(args, plan, &reference, &setup_s, &mut report)?;
    }
    let cells = reference.cells();
    report.digest = (!cells.is_empty()).then(|| digest::cells_digest(cells));
    Ok(report)
}

/// One sweep of the workload's grid on `nproc` workers, checked against the
/// reference.  Returns its cell count, or `None` when it failed.
fn checked_sweep(plan: &Plan, reference: &Reference, report: &mut Report) -> Option<usize> {
    report.attempted += 1;
    let outcome = inproc::sweep(&plan.grid, sys::nproc())
        .and_then(|sweep| reference.check(sweep.cells()).map(|()| sweep.cells().len()));
    outcome
        .map_err(|reason| {
            report.failed += 1;
            eprintln!("sweep failed: {reason}");
        })
        .ok()
}

/// Sweeps until `--seconds` have passed, whole sweeps only.  The rate is
/// the median of the sweeps' own rates, so a burst of CPU stolen by other
/// tenants of the machine moves a few sweeps, not the result.
fn timed(
    args: &Args,
    plan: &Plan,
    reference: &Reference,
    setup_s: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let mut rates = Vec::new();
    let steal_before = sys::cpu_ticks();
    let began = Instant::now();
    while rates.is_empty() || began.elapsed().as_secs_f64() < args.seconds {
        let sweep_began = Instant::now();
        let cells = checked_sweep(plan, reference, report).unwrap_or(0);
        rates.push(cells as f64 / sweep_began.elapsed().as_secs_f64());
    }
    let elapsed_s = began.elapsed().as_secs_f64();
    report.metric("cells_per_s", median(&rates), "cells/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric(
        "peak_rss_mb",
        sys::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        "MiB",
    );
    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.3}")).collect();
    report.notes.push(format!(
        "timed phase: {} sweeps in {elapsed_s:.3} s; cells/s per sweep: {}",
        rates.len(),
        rates.join(" ")
    ));
    if let (Some(before), Some(after)) = (steal_before, sys::cpu_ticks()) {
        report.notes.push(format!(
            "cpu steal during the timed phase: {:.1}% of cpu time",
            100.0 * after.steal_share_since(&before)
        ));
    }
    let setup: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    report
        .notes
        .push(format!("setup_s repetitions: {}", setup.join(" ")));
    Ok(())
}

fn traced(
    args: &Args,
    plan: &Plan,
    reference: &Reference,
    work: &Path,
    work_root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // The traced sweep alternates with the same sweep unrecorded; the ratio
    // of their fastest passes is the tracing overhead.
    let epoch = Instant::now();
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        for record in [false, true] {
            report.attempted += 1;
            let began = Instant::now();
            let outcome = inproc::traced_sweep(&plan.grid, sys::nproc(), record.then_some(epoch))
                .and_then(|traced| {
                    reference
                        .check(&traced.cells)
                        .map(|()| (traced.spans, traced.counts))
                });
            let took = began.elapsed().as_secs_f64();
            match outcome {
                Ok(traced) if record => {
                    traced_s = traced_s.min(took);
                    last = Some(traced);
                }
                Ok(_) => plain_s = plain_s.min(took),
                Err(reason) => {
                    report.failed += 1;
                    report.problems.push(format!("traced sweep: {reason}"));
                }
            }
        }
    }
    // Spans and counts of the last traced pass: every pass does the same work.
    let (mut spans, counts) = last.unwrap_or_default();

    let (served_spans, daemon_stats) = served_pass(plan, work, epoch, report)?;
    spans.extend(served_spans);

    report.attempted += 1;
    let costs = replay::replay(reference.cells(), &served::journal_dir(work), &plan.grid)
        .unwrap_or_else(|reason| {
            report.failed += 1;
            report.problems.push(format!("replay: {reason}"));
            replay::Costs::default()
        });

    let spans = trace::merge(spans);
    let layers = trace::layers(&spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let cells = layer("sweep.cell").count.max(1) as f64;
    let ms_per_cell = |ns: u64| ns as f64 / 1e6 / cells;
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64)
            .collect()
    };
    let p50 = |name: &str, scale: f64| {
        let samples = durations(name);
        percentile(&samples, 0.5)
            .map(|ns| ns / scale)
            .ok_or_else(|| format!("{name}: {} spans are too few for a median", samples.len()))
    };

    report.metric(
        "thermal.solve_ms",
        layer("thermal.solve").total_ns as f64 / 1e6 / counts.thermal_solves.max(1) as f64,
        "ms",
    );
    report.metric("thermal.solves", counts.thermal_solves as f64, "count");
    let lookups = (counts.cache_hits + counts.cache_misses).max(1);
    report.metric(
        "trace_cache.hit_ratio",
        counts.cache_hits as f64 / lookups as f64,
        "ratio",
    );
    for (scheme, ms_name, calls_name) in [
        ("EHTR", "core.decide.ehtr_ms", "core.decide.ehtr_calls"),
        ("DNOR", "core.decide.dnor_ms", "core.decide.dnor_calls"),
        ("INOR", "core.decide.inor_ms", "core.decide.inor_calls"),
        (
            "Baseline",
            "core.decide.baseline_ms",
            "core.decide.baseline_calls",
        ),
    ] {
        let decide = layer(inproc::decide_layer(scheme));
        report.metric(ms_name, ms_per_cell(decide.self_ns), "ms");
        report.metric(calls_name, decide.count as f64, "count");
    }
    report.metric(
        "sim.session_ms",
        ms_per_cell(layer("sim.session").self_ns),
        "ms",
    );
    report.metric(
        "sweep.idle_ms",
        ms_per_cell(layer("sweep.worker").self_ns),
        "ms",
    );
    report.metric(
        "compute.cell_us",
        layer("sweep.cell").total_ns as f64 / 1e3 / cells,
        "us",
    );
    let coverage =
        100.0 * layer("sim.session").total_ns as f64 / layer("sweep.cell").total_ns.max(1) as f64;
    if coverage < MIN_COVERAGE_PCT {
        report.problems.push(format!(
            "layer spans cover {coverage:.2}% of cell time, below {MIN_COVERAGE_PCT}%"
        ));
    }
    report.metric("trace.cell_coverage_pct", coverage, "%");
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    );
    report.metric("serve.admit_ms", p50("serve.admit", 1e6)?, "ms");
    report.metric(
        "serve.first_cell_wait_ms",
        p50("serve.first_cell_wait", 1e6)?,
        "ms",
    );
    report.metric("serve.cell_gap_us", p50("serve.cell_gap", 1e3)?, "us");
    report.metric("codec.encode_cell_us", costs.encode_us, "us");
    report.metric("codec.decode_cell_us", costs.decode_us, "us");
    report.metric("journal.append_us", costs.journal_append_us, "us");
    report.metric("wire.frame_roundtrip_us", costs.frame_roundtrip_us, "us");
    report.metric(
        "serve.payload_bytes_per_cell",
        costs.payload_bytes_per_cell,
        "bytes",
    );
    report.metric(
        "serve.completed",
        daemon_stats.completed_requests as f64,
        "count",
    );
    report.metric(
        "serve.presolve_solved",
        daemon_stats.presolve_solved as f64,
        "count",
    );
    report.metric(
        "serve.workers_respawned",
        daemon_stats.workers_respawned as f64,
        "count",
    );
    report.metric(
        "serve.connections_rejected",
        daemon_stats.connections_rejected as f64,
        "count",
    );

    report.notes.push(format!(
        "traced sweep: {} cells; fastest of {TRACE_PAIRS}: {plain_s:.3} s unrecorded, {traced_s:.3} s recorded",
        layer("sweep.cell").count
    ));
    let dump = work_root.join(format!("trace-{}-seed{}.tsv", plan.name, args.seed));
    std::fs::write(&dump, trace::to_tsv(&spans))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        dump.display()
    ));
    Ok(())
}

/// Serves the workload's tiny grid through a fresh daemon with client-side
/// spans, checking every served cell against an in-process sweep of the
/// same grid.  Returns the clients' spans and the daemon's idle STATS.
fn served_pass(
    plan: &Plan,
    work: &Path,
    epoch: Instant,
    report: &mut Report,
) -> Result<(Vec<Vec<trace::Span>>, StatsReply), String> {
    let reference = Reference::default();
    report.attempted += 1;
    if let Err(reason) = inproc::sweep(&plan.served_grid, sys::nproc())
        .and_then(|sweep| reference.check(sweep.cells()))
    {
        report.failed += 1;
        report
            .problems
            .push(format!("in-process served-grid reference: {reason}"));
    }
    let daemon = served::start(served::journal_dir(work)).map_err(|e| e.to_string())?;
    let mut clients = served::connect(&daemon)?;
    let pass = served::closed_loop(
        &mut clients,
        &plan.served_grid,
        &reference,
        SERVED_REQUESTS,
        epoch,
    );
    report.attempted += pass.requests;
    report.failed += pass.failed;
    let daemon_stats = served::idle_stats(&mut clients[0]);
    if let Err(reason) = served::stop(daemon, clients) {
        report.problems.push(reason);
    }
    Ok((pass.spans, daemon_stats?))
}
