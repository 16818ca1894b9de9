//! Distance to the optimum: every scheme's array power against the exact,
//! certified optimum of the same step.
//!
//! The paper's schemes are *near-optimal* by name; this binary measures how
//! near.  The four-scheme field runs under the bit-reproducible fixed
//! runtime policy, and on strided steps each scheme's realised array power
//! is divided by [`certified_optimum`] over INOR's group-count window at the
//! step's true ΔT.  Two workloads: paper-table1 (100 modules, 800 s) and
//! 40-module arrays with mild / heavy / extreme module variation (120 s,
//! healthy).  The binary prints each scheme's mean and worst-step ratio,
//! writes `BENCH_optgap.json` and **exits non-zero** if any step's array
//! power exceeds the full-window (`1..=N`) certificate by more than
//! [`CERTIFIED_GAP`] relative, or any certificate's gap exceeds it.  It
//! gates on those invariants, never on the ratios.

use std::fmt::Write as _;
use std::process::ExitCode;

use teg_bench::available_parallelism;
use teg_device::VariationModel;
use teg_reconfig::{certified_optimum, Inor, SchemeSpec, TelemetryWindow, CERTIFIED_GAP};
use teg_sim::{Comparison, RuntimePolicy, Scenario};
use teg_units::Seconds;

/// Fixed per-decision charge: keeps every run bit-reproducible.
const CHARGE: Seconds = Seconds::new(0.002);
const TABLE1_SEEDS: [u64; 3] = [7, 11, 13];
const TABLE1_STRIDE: usize = 40;
const LADDER_MODULES: usize = 40;
const LADDER_SECONDS: usize = 120;
const LADDER_SEEDS: [u64; 4] = [7, 11, 13, 19];
const LADDER_STRIDE: usize = 4;
/// Module-to-module Seebeck and resistance tolerance of each ladder preset.
const LADDER: [(&str, f64); 3] = [("mild", 0.05), ("heavy", 0.20), ("extreme", 0.30)];

/// One scheme's ratios to the optimum over a case's sampled steps.
struct Ratios {
    scheme: String,
    sum: f64,
    worst: f64,
}

/// One workload: its scenarios' sampled steps against the optimum.
struct Case {
    name: &'static str,
    modules: usize,
    stride: usize,
    seeds: Vec<u64>,
    steps: usize,
    schemes: Vec<Ratios>,
    opt_over_ideal: f64,
    /// Largest `(upper_bound − power) / upper_bound` of any certificate.
    max_gap: f64,
    /// Largest `(array power − bound) / bound` against a step's
    /// full-window certificate: at most zero when no wiring beats it.
    max_excess: f64,
}

impl Case {
    fn new(name: &'static str, modules: usize, stride: usize, seeds: &[u64]) -> Self {
        Self {
            name,
            modules,
            stride,
            seeds: seeds.to_vec(),
            steps: 0,
            schemes: Vec::new(),
            opt_over_ideal: 0.0,
            max_gap: 0.0,
            max_excess: f64::NEG_INFINITY,
        }
    }

    /// Runs the field over `scenario` and folds its every `stride`-th step
    /// into the case.
    fn add(&mut self, scenario: &Scenario) {
        let modules = scenario.module_count();
        let field = SchemeSpec::paper_field(modules);
        let report = Comparison::from_specs(scenario, &field)
            .runtime_policy(RuntimePolicy::Fixed(CHARGE))
            .run()
            .expect("comparison runs");
        if self.schemes.is_empty() {
            self.schemes = report
                .reports()
                .iter()
                .map(|r| Ratios {
                    scheme: r.scheme().to_owned(),
                    sum: 0.0,
                    worst: f64::INFINITY,
                })
                .collect();
        }
        let trace = scenario.thermal_trace().expect("thermal trace");
        let array = scenario.array();
        let mut deltas = Vec::with_capacity(modules);
        for step in (0..trace.len()).step_by(self.stride) {
            deltas.clear();
            TelemetryWindow::deltas_from_row_into(
                trace.row(step),
                trace.ambient(step),
                &mut deltas,
            );
            let (n_min, n_max) = Inor::default().group_bounds(array, &deltas);
            let opt = certified_optimum(array, &deltas, None, n_min..=n_max).expect("oracle");
            let full = certified_optimum(array, &deltas, None, 1..=modules).expect("oracle");
            for certificate in [&opt, &full] {
                let bound = certificate.upper_bound().value();
                if bound > 0.0 {
                    let gap = (bound - certificate.power().value()) / bound;
                    self.max_gap = self.max_gap.max(gap);
                }
            }
            let optimum = opt.power().value();
            let bound = full.upper_bound().value();
            for (ratios, run) in self.schemes.iter_mut().zip(report.reports()) {
                let power = run.records()[step].array_power().value();
                let ratio = power / optimum;
                ratios.sum += ratio;
                ratios.worst = ratios.worst.min(ratio);
                self.max_excess = self.max_excess.max((power - bound) / bound);
            }
            self.opt_over_ideal += optimum / trace.ideal(step).value();
            self.steps += 1;
        }
    }

    fn passes(&self) -> bool {
        self.max_gap <= CERTIFIED_GAP && self.max_excess <= CERTIFIED_GAP
    }
}

fn render_json(cases: &[Case]) -> String {
    let mut out = String::from("{\n  \"bench\": \"opt_gap\",\n");
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},\n  \"certified_gap\": {CERTIFIED_GAP:e},\n  \
         \"charge_ms\": {},\n  \"cases\": [",
        available_parallelism(),
        CHARGE.to_milliseconds().value()
    );
    for (i, case) in cases.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"case\": \"{}\", \"modules\": {}, \"seeds\": {:?}, \"stride\": {}, \
             \"steps\": {}, \"mean_opt_over_ideal\": {:.6}, \"max_certificate_gap\": {:.3e}, \
             \"max_excess_over_bound\": {:.3e}, \"passes\": {}, \"schemes\": [",
            case.name,
            case.modules,
            case.seeds,
            case.stride,
            case.steps,
            case.opt_over_ideal / case.steps as f64,
            case.max_gap,
            case.max_excess,
            case.passes(),
        );
        for (j, ratios) in case.schemes.iter().enumerate() {
            let comma = if j + 1 < case.schemes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      {{\"scheme\": \"{}\", \"mean_ratio\": {:.6}, \"worst_step_ratio\": {:.6}}}{comma}",
                ratios.scheme,
                ratios.sum / case.steps as f64,
                ratios.worst,
            );
        }
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(out, "    ]}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    println!(
        "# Distance to the certified optimum (INOR's window, gap ≤ {CERTIFIED_GAP:e}), \
         fixed {} ms runtime charge",
        CHARGE.to_milliseconds().value()
    );
    let mut table1 = Case::new("paper-table1", 100, TABLE1_STRIDE, &TABLE1_SEEDS);
    for seed in TABLE1_SEEDS {
        table1.add(&Scenario::paper_table1(seed).expect("paper scenario"));
    }
    let mut cases = vec![table1];
    for (name, tolerance) in LADDER {
        let mut case = Case::new(name, LADDER_MODULES, LADDER_STRIDE, &LADDER_SEEDS);
        for seed in LADDER_SEEDS {
            let scenario = Scenario::builder()
                .module_count(LADDER_MODULES)
                .duration_seconds(LADDER_SECONDS)
                .seed(seed)
                .module_variation(VariationModel::new(tolerance, tolerance).expect("valid"))
                .build()
                .expect("variation scenario");
            case.add(&scenario);
        }
        cases.push(case);
    }

    println!("case,steps,scheme,mean_ratio,worst_step_ratio");
    for case in &cases {
        for ratios in &case.schemes {
            println!(
                "{},{},{},{:.6},{:.6}",
                case.name,
                case.steps,
                ratios.scheme,
                ratios.sum / case.steps as f64,
                ratios.worst
            );
        }
    }

    let json = render_json(&cases);
    if let Err(e) = std::fs::write("BENCH_optgap.json", &json) {
        eprintln!("failed to write BENCH_optgap.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("# wrote BENCH_optgap.json");

    let mut ok = true;
    for case in &cases {
        println!(
            "# {}: max certificate gap {:.3e}, max array-power excess over the full-window \
             bound {:.3e}",
            case.name, case.max_gap, case.max_excess
        );
        if !case.passes() {
            eprintln!(
                "FAIL: {} breaks the certificate (gap {:.3e}, excess {:.3e}; limit \
                 {CERTIFIED_GAP:e})",
                case.name, case.max_gap, case.max_excess
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
