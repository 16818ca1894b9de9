//! Solver hot-path microbenchmark — the candidate scan that dominates every
//! reconfiguration decision, measured as one-off solves (the `legacy`
//! column: a fresh `ArraySolver`, `load` and `mpp` per candidate, so every
//! candidate re-derives the module terms) against the batch path (the
//! `compiled` column: one `ArraySolver::load` + `evaluate_candidates` for
//! the whole candidate set).  For INOR it also times
//! the fused scan, `Inor::optimise_with`, which partitions and evaluates
//! every candidate in one pass; its `fused_ns` covers the whole decision
//! (bounds, partitions and scoring), where the other two columns time only
//! the scoring of ready-made candidates.
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
    legacy_ns: f64,
    compiled_ns: f64,
    /// INOR only: one whole `Inor::optimise_with`.
    fused_ns: Option<f64>,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.legacy_ns / self.compiled_ns
    }
}

/// Times one full candidate scan: best-of-seven samples of an adaptively
/// sized batch, reported as nanoseconds per scan.
fn time_scan_ns<F: FnMut()>(mut scan: F) -> f64 {
    let start = Instant::now();
    scan();
    let estimate = start.elapsed().max(Duration::from_nanos(100));
    let budget = Duration::from_millis(25).as_secs_f64();
    let iters = ((budget / estimate.as_secs_f64()).ceil() as u64).clamp(1, 1_000_000);
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..iters {
            scan();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best * 1e9
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

    let legacy_ns = time_scan_ns(|| {
        let mut acc = 0.0;
        for candidate in &candidates {
            acc += one_off_mpp_power(&array, black_box(candidate), &deltas);
        }
        black_box(acc);
    });
    let compiled_ns = time_scan_ns(|| {
        solver.load(&array, &deltas, None).expect("load");
        solver
            .evaluate_candidates(black_box(&candidates), &mut powers)
            .expect("batch evaluation");
        black_box(&powers);
    });
    let fused_ns = (scheme == "INOR").then(|| {
        time_scan_ns(|| {
            black_box(
                inor.optimise_with(&array, black_box(&deltas))
                    .expect("fused scan"),
            );
        })
    });

    Case {
        scheme,
        modules,
        candidates: candidates.len(),
        legacy_ns,
        compiled_ns,
        fused_ns,
    }
}

fn render_json(cases: &[Case]) -> String {
    let min_speedup = cases
        .iter()
        .map(Case::speedup)
        .fold(f64::INFINITY, f64::min);
    let mean_speedup = cases.iter().map(Case::speedup).sum::<f64>() / cases.len().max(1) as f64;
    let mut out = String::from("{\n  \"bench\": \"solver_hotpath\",\n");
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},",
        available_parallelism()
    );
    out.push_str("  \"unit\": \"ns_per_candidate_scan\",\n  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let fused = case
            .fused_ns
            .map_or_else(|| "null".to_owned(), |ns| format!("{ns:.1}"));
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"modules\": {}, \"candidates\": {}, \
             \"legacy_ns\": {:.1}, \"compiled_ns\": {:.1}, \"speedup\": {:.2}, \
             \"fused_ns\": {fused}}}{comma}",
            case.scheme,
            case.modules,
            case.candidates,
            case.legacy_ns,
            case.compiled_ns,
            case.speedup(),
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
    println!("scheme,modules,candidates,legacy_ns,compiled_ns,speedup,fused_ns");
    for case in &cases {
        println!(
            "{},{},{},{:.1},{:.1},{:.2},{}",
            case.scheme,
            case.modules,
            case.candidates,
            case.legacy_ns,
            case.compiled_ns,
            case.speedup(),
            case.fused_ns
                .map_or_else(String::new, |ns| format!("{ns:.1}")),
        );
    }
    let min = cases
        .iter()
        .map(Case::speedup)
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
