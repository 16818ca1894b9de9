//! Quickstart: build a small TEG array on a radiator temperature gradient,
//! let INOR pick a configuration and compare it with the fixed grid.
//!
//! Run with `cargo run --example quickstart`.

use teg_harvest::array::{ideal_power, ArraySolver, Configuration, TegArray};
use teg_harvest::device::{TegDatasheet, TegModule};
use teg_harvest::reconfig::{Inor, Reconfigurer, TelemetryWindow};
use teg_harvest::units::Celsius;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 TGM-199-1.4-0.8 modules along the radiator, entrance first.
    let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
    let array = TegArray::uniform(module, 20);

    // A typical hot-to-cold surface profile (°C) and the ambient heatsink.
    let ambient = Celsius::new(25.0);
    let temperatures: Vec<f64> = (0..20).map(|i| 95.0 - 2.2 * i as f64).collect();
    let history = vec![temperatures];
    let inputs = TelemetryWindow::new(&array, &history, ambient)?;
    let deltas = inputs.current_deltas();
    let mut solver = ArraySolver::new();
    solver.load(&array, &deltas, None)?;

    // The fixed wiring a non-reconfigurable array would use.
    let grid = Configuration::uniform(20, 5)?;
    let grid_power = solver.mpp(&grid)?.power();

    // One INOR decision.
    let mut inor = Inor::default();
    let decision = inor.decide(&inputs, &grid)?;
    let chosen = decision
        .configuration()
        .expect("INOR always proposes a configuration");
    let inor_power = solver.mpp(chosen)?.power();
    let ideal = ideal_power(array.modules(), &deltas)?;

    println!("fixed grid          : {grid} -> {grid_power}");
    println!("INOR configuration  : {chosen} -> {inor_power}");
    println!("ideal (sum of MPPs) : {ideal}");
    println!(
        "INOR captures {:.1}% of ideal vs {:.1}% for the fixed grid (runtime {})",
        100.0 * (inor_power / ideal),
        100.0 * (grid_power / ideal),
        decision.computation().to_milliseconds(),
    );
    Ok(())
}
