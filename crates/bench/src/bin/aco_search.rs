//! ACO search vs the greedy heuristics on degraded arrays — the regime
//! where searching the full partition space pays.
//!
//! On a healthy, homogeneous array INOR's balanced-current greedy is
//! near-optimal and a metaheuristic can only match it.  Degrade the array —
//! strong module-to-module parameter variation plus injected electrical
//! faults — and the surrogate the greedy optimises (equal group currents)
//! pulls away from the true array MPP optimum, leaving energy on the table
//! that a search recovers.  This binary sweeps a degradation ladder with
//! ACO, INOR, EHTR and the static baseline in one lineup, prints a
//! Table-I-style report per preset, writes `BENCH_aco.json` and **exits
//! non-zero** if ACO's harvested energy drops below the committed floor
//! relative to the best greedy scheme on any gated preset (`heavy` and up).
//!
//! Before any comparison it asserts the determinism contracts: one worker
//! must equal four workers bit for bit, and rerunning the same grid must
//! reproduce the report exactly — the ACO colony is seeded, so the whole
//! sweep is a pure function of the grid.

use std::fmt::Write as _;
use std::process::ExitCode;

use teg_bench::available_parallelism;
use teg_device::VariationModel;
use teg_sim::{
    FaultProfile, FaultSeverity, RuntimePolicy, ScenarioGrid, SchemeLineup, SweepReport,
    SweepRunner,
};
use teg_units::Seconds;

/// Fixed per-decision charge: keeps every run bit-reproducible.
const CHARGE: Seconds = Seconds::new(0.002);
const MODULES: usize = 40;
const DRIVE_SECONDS: usize = 120;
const SEEDS: [u64; 4] = [7, 11, 13, 19];
const WORKERS: usize = 4;

/// The committed floor for ACO's mean net energy relative to the best
/// greedy scheme (INOR or EHTR) on every gated preset.  The colony is
/// seeded with INOR's own candidates, so per decision it can never find a
/// worse wiring; at the energy level the guarantee is kept with a little
/// headroom to spare (the snapshot in `BENCH_aco.json` shows the measured
/// advantage).  The results are seeded and bit-reproducible, so this gate
/// cannot flake — it moves only when the algorithms move.
const ADVANTAGE_FLOOR: f64 = 1.0;

struct Preset {
    name: &'static str,
    /// Module-to-module manufacturing variation (Seebeck, resistance).
    variation: (f64, f64),
    severity: FaultSeverity,
    /// Whether the preset enforces `ADVANTAGE_FLOOR` ("heavy" and up).
    gating: bool,
}

const PRESETS: [Preset; 3] = [
    Preset {
        name: "mild",
        variation: (0.05, 0.05),
        severity: FaultSeverity::light(),
        gating: false,
    },
    Preset {
        name: "heavy",
        variation: (0.20, 0.20),
        severity: FaultSeverity::severe(),
        gating: true,
    },
    Preset {
        name: "extreme",
        variation: (0.30, 0.30),
        severity: FaultSeverity::severe(),
        gating: true,
    },
];

fn grid(preset: &Preset) -> ScenarioGrid {
    let (seebeck, resistance) = preset.variation;
    ScenarioGrid::builder()
        .module_counts([MODULES])
        .seeds(SEEDS)
        .duration_seconds(DRIVE_SECONDS)
        .variations([VariationModel::new(seebeck, resistance).expect("valid tolerances")])
        .faults([FaultProfile::random(
            preset.name.to_owned(),
            preset.severity,
        )])
        // The search scheme registers through the ordinary lineup token
        // grammar — the same string works in a serve SUBMIT request.
        .lineups([
            SchemeLineup::parse("fixed:aco-field:aco+inor+ehtr+baseline")
                .expect("valid lineup token"),
        ])
        .build()
        .expect("valid grid")
}

fn runner(workers: usize) -> SweepRunner {
    SweepRunner::new()
        .workers(workers)
        .runtime_policy(RuntimePolicy::Fixed(CHARGE))
}

/// Runs the preset's grid with the determinism gates: serial ≡ parallel and
/// rerun ≡ first run, bit for bit.
fn sweep(preset: &Preset) -> SweepReport {
    let serial = runner(1).run(&grid(preset)).expect("serial sweep");
    let parallel = runner(WORKERS).run(&grid(preset)).expect("parallel sweep");
    assert_eq!(
        serial, parallel,
        "{}: the seeded search must be worker-count independent",
        preset.name
    );
    let again = runner(WORKERS).run(&grid(preset)).expect("repeat sweep");
    assert_eq!(
        parallel, again,
        "{}: the seeded search must be bit-reproducible across runs",
        preset.name
    );
    parallel
}

struct Case {
    name: &'static str,
    gating: bool,
    cells: usize,
    aco_energy: f64,
    best_greedy: String,
    best_greedy_energy: f64,
    baseline_energy: f64,
}

impl Case {
    fn advantage(&self) -> f64 {
        self.aco_energy / self.best_greedy_energy
    }
}

fn measure(preset: &Preset) -> Case {
    let report = sweep(preset);
    println!("\n## degradation: {}", preset.name);
    println!("{report}");
    let energy = |scheme: &str| {
        report
            .summary(scheme)
            .unwrap_or_else(|| panic!("{scheme} ran"))
            .mean_net_energy()
            .value()
    };
    let (best_greedy, best_greedy_energy) = [("INOR", energy("INOR")), ("EHTR", energy("EHTR"))]
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two greedy schemes");
    Case {
        name: preset.name,
        gating: preset.gating,
        cells: report.cells().len(),
        aco_energy: energy("ACO"),
        best_greedy: best_greedy.to_owned(),
        best_greedy_energy,
        baseline_energy: energy("Baseline"),
    }
}

fn render_json(cases: &[Case]) -> String {
    let gating_advantage = cases
        .iter()
        .filter(|c| c.gating)
        .map(Case::advantage)
        .fold(f64::INFINITY, f64::min);
    let mut out = String::from("{\n  \"bench\": \"aco_search\",\n");
    out.push_str("  \"unit\": \"mean_net_energy_joules\",\n");
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},\n  \"modules\": {MODULES},\n  \
         \"drive_seconds\": {DRIVE_SECONDS},\n  \"cases\": [",
        available_parallelism()
    );
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"preset\": \"{}\", \"cells\": {}, \"aco_energy\": {:.3}, \
             \"best_greedy\": \"{}\", \"best_greedy_energy\": {:.3}, \
             \"baseline_energy\": {:.3}, \"advantage\": {:.4}, \"gating\": {}}}{comma}",
            case.name,
            case.cells,
            case.aco_energy,
            case.best_greedy,
            case.best_greedy_energy,
            case.baseline_energy,
            case.advantage(),
            case.gating,
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"gating_advantage\": {gating_advantage:.4},\n  \
         \"advantage_floor\": {ADVANTAGE_FLOOR}\n}}"
    );
    out
}

fn main() -> ExitCode {
    println!(
        "# ACO search vs greedy heuristics: {MODULES}-module array, {DRIVE_SECONDS}-second \
         drives, seeds {SEEDS:?}, fixed {} ms runtime charge",
        CHARGE.to_milliseconds().value()
    );

    let cases: Vec<Case> = PRESETS.iter().map(measure).collect();

    println!("\npreset,cells,aco_energy,best_greedy,best_greedy_energy,baseline_energy,advantage");
    for case in &cases {
        println!(
            "{},{},{:.3},{},{:.3},{:.3},{:.4}",
            case.name,
            case.cells,
            case.aco_energy,
            case.best_greedy,
            case.best_greedy_energy,
            case.baseline_energy,
            case.advantage()
        );
    }

    let json = render_json(&cases);
    if let Err(e) = std::fs::write("BENCH_aco.json", &json) {
        eprintln!("failed to write BENCH_aco.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("# wrote BENCH_aco.json");

    let mut ok = true;
    for case in cases.iter().filter(|c| c.gating) {
        let advantage = case.advantage();
        println!(
            "# {} ACO advantage {advantage:.4}x over {} (committed floor: {ADVANTAGE_FLOOR}x)",
            case.name, case.best_greedy
        );
        if advantage < ADVANTAGE_FLOOR {
            eprintln!(
                "FAIL: {} ACO-vs-{} energy ratio {advantage:.4}x fell below the committed \
                 floor {ADVANTAGE_FLOOR}x",
                case.name, case.best_greedy
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
