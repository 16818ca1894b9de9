//! Solver hot-path microbenchmark — the candidate scan that dominates every
//! reconfiguration decision, measured as one-off solves (the `legacy`
//! column: a fresh `ArraySolver`, `load` and `mpp` per candidate, so every
//! candidate re-derives the module terms) against the batch path (the
//! `compiled` column: one `ArraySolver::load` + `evaluate_candidates` for
//! the whole candidate set).  For INOR it also times
//! the fused scan, `Inor::optimise_with`, which partitions and evaluates
//! every candidate in one pass; its `fused_ns` (and `fused_over_compiled`,
//! its ratio to the batch scan) covers the whole decision (bounds,
//! partitions and scoring), where the other two columns time only the
//! scoring of ready-made candidates.
//!
//! The compared paths of one case run interleaved: each of seven rounds
//! times one adaptively sized batch of every path, rotating which path runs
//! first, and each ratio is the median of the seven per-round ratios.  A
//! load spike on a shared host then hits both sides of a round instead of
//! one path's whole window, so the ratios are what the binary reports; the
//! absolute nanoseconds (each path's median round) are display-only.
//!
//! Emits a machine-readable `BENCH_solver.json` next to the working
//! directory (and a human-readable table on stdout) so CI can archive the
//! perf trajectory of the electrical kernel across commits.  The paths are
//! asserted to agree **bitwise** before any timing happens — the fused scan
//! must return the batch path's best configuration and power — so the
//! binary doubles as a release-mode equivalence smoke check.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use teg_array::{ArraySolver, Configuration, TegArray};
use teg_bench::{available_parallelism, exponential_deltas, paper_array};
use teg_reconfig::{Ehtr, Inor};
use teg_units::TemperatureDelta;

/// One measured case: a scheme's candidate set over an array size.
struct Case {
    scheme: &'static str,
    modules: usize,
    candidates: usize,
    /// Each path's median round; display-only.
    legacy_ns: f64,
    compiled_ns: f64,
    /// Median of the per-round `legacy / compiled` ratios.
    speedup: f64,
    /// INOR only: one whole `Inor::optimise_with` as its median round and
    /// the median of its per-round ratios to the batch scan.
    fused: Option<(f64, f64)>,
}

/// Timing rounds per case.
const ROUNDS: usize = 7;

fn median(mut values: [f64; ROUNDS]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[ROUNDS / 2]
}

/// Times the compared scans of one case in the same rounds.  Each scan
/// gets an adaptively sized batch of about 25 ms; every round runs each
/// batch once, starting at a different scan, and records nanoseconds per
/// scan.  Returns `rounds[path][round]`.
// `round` sets the rotation as well as indexing each path's row.
#[allow(clippy::needless_range_loop)]
fn time_rounds_ns(scans: &mut [&mut dyn FnMut()]) -> Vec<[f64; ROUNDS]> {
    let budget = Duration::from_millis(25).as_secs_f64();
    let iters: Vec<u64> = scans
        .iter_mut()
        .map(|scan| {
            let start = Instant::now();
            scan();
            let estimate = start.elapsed().max(Duration::from_nanos(100));
            ((budget / estimate.as_secs_f64()).ceil() as u64).clamp(1, 1_000_000)
        })
        .collect();
    let mut rounds = vec![[0.0; ROUNDS]; scans.len()];
    for round in 0..ROUNDS {
        for offset in 0..scans.len() {
            let path = (round + offset) % scans.len();
            let start = Instant::now();
            for _ in 0..iters[path] {
                scans[path]();
            }
            rounds[path][round] = start.elapsed().as_secs_f64() / iters[path] as f64 * 1e9;
        }
    }
    rounds
}

/// The median of the per-round ratios `numerator / denominator`.
fn ratio(numerator: &[f64; ROUNDS], denominator: &[f64; ROUNDS]) -> f64 {
    median(std::array::from_fn(|round| {
        numerator[round] / denominator[round]
    }))
}

/// The candidate set a scheme would scan: one partition per feasible group
/// count inside the charger-derived window.
fn candidates_for(
    scheme: &'static str,
    array: &TegArray,
    deltas: &[TemperatureDelta],
) -> Vec<Configuration> {
    let inor = Inor::default();
    let currents = array.mpp_currents(deltas).expect("deltas match the array");
    let (n_min, n_max) = inor.group_bounds(array, deltas);
    (n_min..=n_max)
        .map(|n| match scheme {
            "INOR" => Inor::balanced_partition(&currents, n),
            _ => Ehtr::optimal_partition(&currents, n),
        })
        .collect()
}

/// One candidate's MPP power solved from scratch: a fresh solver that loads
/// the module terms for this candidate alone.
fn one_off_mpp_power(
    array: &TegArray,
    candidate: &Configuration,
    deltas: &[TemperatureDelta],
) -> f64 {
    let mut solver = ArraySolver::new();
    solver.load(array, deltas, None).expect("load");
    solver
        .mpp(candidate)
        .expect("one-off solve")
        .power()
        .value()
}

fn measure(scheme: &'static str, modules: usize) -> Case {
    let array = paper_array(modules);
    let deltas = exponential_deltas(modules, 70.0, 0.8);
    let candidates = candidates_for(scheme, &array, &deltas);

    // Equivalence gate: the batch scan must reproduce the one-off solves bit
    // for bit before its speed means anything.
    let mut solver = ArraySolver::new();
    let mut powers = Vec::new();
    solver.load(&array, &deltas, None).expect("load");
    solver
        .evaluate_candidates(&candidates, &mut powers)
        .expect("batch evaluation");
    for (candidate, batch) in candidates.iter().zip(&powers) {
        let legacy = one_off_mpp_power(&array, candidate, &deltas);
        assert_eq!(
            batch.value().to_bits(),
            legacy.to_bits(),
            "batch scan diverged from the one-off solves on {scheme} n={modules}"
        );
    }

    // The fused INOR scan must pick the batch path's winner: the earliest
    // maximum, with the same power bits.
    let mut inor = Inor::default();
    if scheme == "INOR" {
        let mut best = 0;
        for (i, power) in powers.iter().enumerate() {
            if *power > powers[best] {
                best = i;
            }
        }
        let (configuration, power) = inor.optimise_with(&array, &deltas).expect("fused scan");
        assert_eq!(
            power.value().to_bits(),
            powers[best].value().to_bits(),
            "fused scan diverged from the batch path's best power on n={modules}"
        );
        assert_eq!(
            configuration, candidates[best],
            "fused scan picked another configuration than the batch path on n={modules}"
        );
    }

    let mut legacy = || {
        let mut acc = 0.0;
        for candidate in &candidates {
            acc += one_off_mpp_power(&array, black_box(candidate), &deltas);
        }
        black_box(acc);
    };
    let mut compiled = || {
        solver.load(&array, &deltas, None).expect("load");
        solver
            .evaluate_candidates(black_box(&candidates), &mut powers)
            .expect("batch evaluation");
        black_box(&powers);
    };
    let mut fused = || {
        black_box(
            inor.optimise_with(&array, black_box(&deltas))
                .expect("fused scan"),
        );
    };
    let rounds = if scheme == "INOR" {
        time_rounds_ns(&mut [&mut legacy, &mut compiled, &mut fused])
    } else {
        time_rounds_ns(&mut [&mut legacy, &mut compiled])
    };

    Case {
        scheme,
        modules,
        candidates: candidates.len(),
        legacy_ns: median(rounds[0]),
        compiled_ns: median(rounds[1]),
        speedup: ratio(&rounds[0], &rounds[1]),
        fused: rounds
            .get(2)
            .map(|fused| (median(*fused), ratio(fused, &rounds[1]))),
    }
}

fn render_json(cases: &[Case]) -> String {
    let min_speedup = cases
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    let mean_speedup = cases.iter().map(|c| c.speedup).sum::<f64>() / cases.len().max(1) as f64;
    let mut out = String::from("{\n  \"bench\": \"solver_hotpath\",\n");
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},",
        available_parallelism()
    );
    let _ = writeln!(
        out,
        "  \"unit\": \"ns_per_candidate_scan\",\n  \"rounds\": {ROUNDS},\n  \
         \"note\": \"ratios are medians of same-round ratios; *_ns are display-only\",\n  \
         \"cases\": ["
    );
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let (fused_ns, fused_over_compiled) = case.fused.map_or_else(
            || ("null".to_owned(), "null".to_owned()),
            |(ns, ratio)| (format!("{ns:.1}"), format!("{ratio:.2}")),
        );
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"modules\": {}, \"candidates\": {}, \
             \"legacy_ns\": {:.1}, \"compiled_ns\": {:.1}, \"speedup\": {:.2}, \
             \"fused_ns\": {fused_ns}, \"fused_over_compiled\": {fused_over_compiled}}}{comma}",
            case.scheme,
            case.modules,
            case.candidates,
            case.legacy_ns,
            case.compiled_ns,
            case.speedup,
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"min_speedup\": {min_speedup:.2},\n  \
         \"mean_speedup\": {mean_speedup:.2}\n}}"
    );
    out
}

fn main() -> ExitCode {
    let mut cases = Vec::new();
    for modules in [50usize, 100, 200] {
        cases.push(measure("INOR", modules));
    }
    for modules in [50usize, 100] {
        cases.push(measure("EHTR", modules));
    }

    println!("# Candidate-scan hot path: one batch scan vs one-off solves per candidate");
    println!(
        "scheme,modules,candidates,legacy_ns,compiled_ns,speedup,fused_ns,fused_over_compiled"
    );
    for case in &cases {
        let fused = case
            .fused
            .map_or_else(String::new, |(ns, ratio)| format!("{ns:.1},{ratio:.2}"));
        println!(
            "{},{},{},{:.1},{:.1},{:.2},{fused}",
            case.scheme,
            case.modules,
            case.candidates,
            case.legacy_ns,
            case.compiled_ns,
            case.speedup,
        );
    }
    let min = cases
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    println!("# min speedup {min:.2}x (acceptance floor: 2x)");

    let json = render_json(&cases);
    if let Err(e) = std::fs::write("BENCH_solver.json", &json) {
        eprintln!("failed to write BENCH_solver.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("# wrote BENCH_solver.json");
    ExitCode::SUCCESS
}
