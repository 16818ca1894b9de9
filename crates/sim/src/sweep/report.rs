//! Aggregated results of a scenario sweep.

use std::fmt;

use teg_units::{Joules, Milliseconds};

use crate::comparison::ComparisonReport;
use crate::sweep::grid::CellKey;

/// One cell's outcome: its grid coordinates plus the full lockstep
/// comparison report of its lineup.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellReport {
    key: CellKey,
    report: ComparisonReport,
}

impl SweepCellReport {
    /// Reassembles a cell report from its coordinates and comparison report
    /// — the wire-codec inverse of [`SweepCellReport::key`] and
    /// [`SweepCellReport::report`].  Within one process, cell reports come
    /// from [`SweepRunner::run`](crate::SweepRunner::run).
    #[must_use]
    pub fn from_parts(key: CellKey, report: ComparisonReport) -> Self {
        Self { key, report }
    }

    /// The cell's grid coordinates.
    #[must_use]
    pub const fn key(&self) -> &CellKey {
        &self.key
    }

    /// The cell's per-scheme simulation reports.
    #[must_use]
    pub const fn report(&self) -> &ComparisonReport {
        &self.report
    }
}

/// Cross-cell statistics for one scheme name.
///
/// Energies are *not* normalised across cells — a scheme that ran on both
/// 10-module and 100-module samples averages over both — so summaries are
/// most meaningful per scheme *within* one grid, where every scheme of a
/// lineup saw exactly the same cells.  The power ratio (net energy over the
/// ideal bound) is scale-free and comparable across any mix of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    scheme: String,
    cells: usize,
    mean_net_energy: Joules,
    p50_net_energy: Joules,
    p95_net_energy: Joules,
    mean_power_ratio: f64,
    mean_runtime: Milliseconds,
    switch_total: usize,
}

impl SchemeSummary {
    /// The scheme name the statistics aggregate over.
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Number of cells the scheme ran in.
    #[must_use]
    pub const fn cells(&self) -> usize {
        self.cells
    }

    /// Mean net energy per cell.
    #[must_use]
    pub const fn mean_net_energy(&self) -> Joules {
        self.mean_net_energy
    }

    /// Median (nearest-rank) net energy across cells.
    #[must_use]
    pub const fn p50_net_energy(&self) -> Joules {
        self.p50_net_energy
    }

    /// 95th-percentile (nearest-rank) net energy across cells.
    #[must_use]
    pub const fn p95_net_energy(&self) -> Joules {
        self.p95_net_energy
    }

    /// Mean fraction of the ideal energy captured (Fig. 7's ratio,
    /// aggregated).
    #[must_use]
    pub const fn mean_power_ratio(&self) -> f64 {
        self.mean_power_ratio
    }

    /// Mean per-invocation algorithm runtime across cells.
    #[must_use]
    pub const fn mean_runtime(&self) -> Milliseconds {
        self.mean_runtime
    }

    /// Total switch events across cells.
    #[must_use]
    pub const fn switch_total(&self) -> usize {
        self.switch_total
    }
}

/// The outcome of a sweep: one [`SweepCellReport`] per grid cell in grid
/// order, per-scheme summary statistics, and the total thermal-solve count.
///
/// Everything in the report is ordered by cell index and first appearance,
/// never by completion order, so `PartialEq` between two reports is a
/// meaningful serial-vs-parallel equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    cells: Vec<SweepCellReport>,
    schemes: Vec<SchemeSummary>,
    thermal_solves: usize,
}

impl SweepReport {
    /// Reassembles a sweep report from per-cell reports and a thermal-solve
    /// count.  The per-scheme summaries are *recomputed* from the cells with
    /// the same deterministic aggregation [`SweepRunner`](crate::SweepRunner)
    /// uses, so a report rebuilt from faithfully transported cells compares
    /// equal (`PartialEq`) to the in-process original.
    #[must_use]
    pub fn from_cells(cells: Vec<SweepCellReport>, thermal_solves: usize) -> Self {
        let schemes = summarise(&cells);
        Self {
            cells,
            schemes,
            thermal_solves,
        }
    }

    /// The per-cell reports in grid order.
    #[must_use]
    pub fn cells(&self) -> &[SweepCellReport] {
        &self.cells
    }

    /// The per-scheme summaries, ordered by first appearance in the grid.
    #[must_use]
    pub fn summaries(&self) -> &[SchemeSummary] {
        &self.schemes
    }

    /// The summary of the scheme with the given name, if it ran.
    #[must_use]
    pub fn summary(&self, scheme: &str) -> Option<&SchemeSummary> {
        self.schemes.iter().find(|s| s.scheme() == scheme)
    }

    /// Radiator solves the sweep performed — one per drive-cycle second of
    /// each *distinct* scenario sample when the shared-trace cache held,
    /// however many cells and workers replayed each sample.
    #[must_use]
    pub const fn thermal_solves(&self) -> usize {
        self.thermal_solves
    }

    /// The scheme whose mean net energy is highest.
    #[must_use]
    pub fn best_scheme(&self) -> Option<&SchemeSummary> {
        self.schemes.iter().max_by(|a, b| {
            a.mean_net_energy()
                .value()
                .total_cmp(&b.mean_net_energy().value())
        })
    }

    /// Renders the per-scheme summaries as an aligned table.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::from(
            "Scheme    | Cells | Mean Energy (J) | p50 (J)  | p95 (J)  | Ratio | Avg Runtime (ms) | Switches\n",
        );
        out.push_str(
            "----------+-------+-----------------+----------+----------+-------+------------------+---------\n",
        );
        for s in &self.schemes {
            out.push_str(&format!(
                "{:<10}| {:>5} | {:>15.1} | {:>8.1} | {:>8.1} | {:>5.3} | {:>16.3} | {:>8}\n",
                s.scheme(),
                s.cells(),
                s.mean_net_energy().value(),
                s.p50_net_energy().value(),
                s.p95_net_energy().value(),
                s.mean_power_ratio(),
                s.mean_runtime().value(),
                s.switch_total(),
            ));
        }
        out
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary_table())
    }
}

/// Nearest-rank percentile of an unsorted sample (deterministic; `p` in
/// `[0, 100]`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    // Multiply before dividing: `p / 100.0` is inexact for most integer `p`
    // (0.95 rounds up in binary), so `p / 100.0 * n` can land a hair above
    // the exact rank and `ceil` then overshoots by one — at n=20 that made
    // p95 silently equal the max.  `p * n` is exact for integer inputs well
    // past any realistic cell count, and dividing an exact multiple of 100
    // by 100.0 is correctly rounded to the integer rank.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarise(cells: &[SweepCellReport]) -> Vec<SchemeSummary> {
    // Scheme order = first appearance in cell order: deterministic for any
    // worker count because cells are already in grid order.
    let mut order: Vec<&str> = Vec::new();
    for cell in cells {
        for report in cell.report().reports() {
            if !order.contains(&report.scheme()) {
                order.push(report.scheme());
            }
        }
    }
    order
        .into_iter()
        .map(|scheme| {
            let mut net = Vec::new();
            let mut ratio_sum = 0.0;
            let mut runtime_ms_sum = 0.0;
            let mut switches = 0;
            for cell in cells {
                if let Some(report) = cell.report().report(scheme) {
                    net.push(report.net_energy().value());
                    ratio_sum += report.ideal_fraction();
                    runtime_ms_sum += report.average_runtime().value();
                    switches += report.switch_count();
                }
            }
            let count = net.len();
            let mean = net.iter().sum::<f64>() / count as f64;
            net.sort_by(f64::total_cmp);
            SchemeSummary {
                scheme: scheme.to_owned(),
                cells: count,
                mean_net_energy: Joules::new(mean),
                p50_net_energy: Joules::new(percentile(&net, 50.0)),
                p95_net_energy: Joules::new(percentile(&net, 95.0)),
                mean_power_ratio: ratio_sum / count as f64,
                mean_runtime: Milliseconds::new(runtime_ms_sum / count as f64),
                switch_total: switches,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 95.0), 5.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn percentile_small_cell_counts_exact() {
        // n = 1: every percentile is the lone sample.
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);

        // n = 2: rank(50) = ceil(1.0) = 1 → lower sample; p95 → upper.
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 50.0), 1.0);
        assert_eq!(percentile(&two, 95.0), 2.0);

        // n = 3: rank(50) = ceil(1.5) = 2 → middle; rank(95) = ceil(2.85) = 3.
        let three = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&three, 50.0), 2.0);
        assert_eq!(percentile(&three, 95.0), 3.0);
    }

    #[test]
    fn percentile_rank_is_exact_at_n20() {
        // Regression: with `p / 100.0 * n`, 0.95 is not representable and
        // 0.95 * 20 lands at 19.000000000000004, so ceil gave rank 20 and
        // p95 of a 20-cell grid silently equalled the max.  The exact
        // nearest-rank answer is rank ceil(19.0) = 19.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(percentile(&values, 50.0), 10.0);
        assert_eq!(percentile(&values, 100.0), 20.0);
    }
}
