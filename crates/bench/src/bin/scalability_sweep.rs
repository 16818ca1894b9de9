//! Scalability sweep — per-scheme decision runtime as the array grows,
//! measured end-to-end by the parallel scenario-sweep subsystem rather than
//! a hand-rolled timing loop.
//!
//! One [`ScenarioGrid`](teg_sim::ScenarioGrid) per array size spans three drive seeds for
//! stability; the [`SweepRunner`] executes the cells with a *single* worker
//! — the schemes time their own decisions with the wall clock, and
//! concurrent cells would contend for cache and turbo headroom, inflating
//! exactly the numbers this binary publishes — and its
//! [`SweepReport`](teg_sim::SweepReport)
//! summaries provide the mean per-invocation runtime of each scheme.  The
//! output backs the paper's claim that the linear-time algorithm is the one
//! that survives on industrial-scale systems: EHTR's dynamic program blows
//! up with N while INOR stays linear.

use teg_sim::{GridSpec, SchemeLineup, SimError, SweepRunner};

fn main() -> Result<(), SimError> {
    println!("# Scalability: mean per-invocation runtime (ms), 60 s drive x 3 seeds");
    println!("modules,inor_ms,dnor_ms,ehtr_ms,ehtr_over_inor");
    for &n in &[25usize, 50, 100, 200, 400] {
        let grid = GridSpec::new()
            .module_counts([n])
            .seeds([1, 2, 3])
            .duration_seconds(60)
            .lineups([SchemeLineup::paper()])
            .to_grid()?;
        // One worker: this grid exists to *time* decisions, and parallel
        // cells would contend for the cores being measured.
        let report = SweepRunner::new().workers(1).run(&grid)?;
        let runtime_ms = |scheme: &str| {
            report
                .summary(scheme)
                .map_or(f64::NAN, |s| s.mean_runtime().value())
        };
        let (inor, dnor, ehtr) = (runtime_ms("INOR"), runtime_ms("DNOR"), runtime_ms("EHTR"));
        println!("{n},{inor:.4},{dnor:.4},{ehtr:.4},{:.1}", ehtr / inor);
    }
    println!("# INOR grows linearly with N; EHTR's dynamic program grows polynomially.");
    Ok(())
}
