//! Ablation — DNOR's sensitivity to its prediction horizon `t_p` and to the
//! magnitude of the switching-overhead model (a design-choice study that is
//! not in the paper but supports its Section III-C discussion).

use teg_array::SwitchingOverheadModel;
use teg_reconfig::{Dnor, DnorConfig, InorConfig};
use teg_sim::{Scenario, SimSession};
use teg_units::{Joules, Seconds};

fn scaled_overhead(factor: f64) -> SwitchingOverheadModel {
    let base = SwitchingOverheadModel::default();
    SwitchingOverheadModel::new(
        base.sensing_delay() * factor,
        base.reconfiguration_delay() * factor,
        base.mppt_settling() * factor,
        Joules::new(base.per_toggle_energy().value() * factor),
    )
}

fn main() {
    println!("# DNOR ablation over prediction horizon and overhead scale");
    println!("horizon_s,overhead_scale,energy_j,overhead_j,switches,avg_runtime_ms");
    for &horizon in &[1usize, 2, 4, 8] {
        for &scale in &[0.1_f64, 1.0, 10.0] {
            let overhead = scaled_overhead(scale);
            // A 240-second slice keeps the ablation grid affordable while
            // spanning several drive phases.
            let scenario = Scenario::builder()
                .module_count(100)
                .duration_seconds(240)
                .seed(2024)
                .overhead(overhead)
                .build()
                .expect("scenario");
            let config = DnorConfig::new(
                InorConfig::default(),
                horizon,
                5,
                overhead,
                Seconds::new(1.0),
            )
            .expect("config");
            let mut dnor = Dnor::new(config);
            let report = SimSession::new(&scenario, &mut dnor)
                .and_then(SimSession::run)
                .expect("simulation");
            println!(
                "{horizon},{scale},{:.1},{:.3},{},{:.4}",
                report.net_energy().value(),
                report.overhead_energy().value(),
                report.switch_count(),
                report.average_runtime().value()
            );
        }
    }
    println!("# Longer horizons amortise evaluation cost; inflated overhead suppresses switching.");
}
