//! The output check: every sweep against the first, and the physics of the
//! first.

use std::sync::OnceLock;

use teg_sim::SweepCellReport;

/// The first result of a grid, against which every later result of that
/// grid is checked.
#[derive(Default)]
pub struct Reference {
    cells: OnceLock<Vec<SweepCellReport>>,
}

/// A scheme may never harvest more than the ideal per-module MPP sum.
const POWER_RATIO_LIMIT: f64 = 1.0 + 1e-9;

impl Reference {
    /// Records the first result after checking its physics, or checks a
    /// later one against it.
    pub fn check(&self, cells: &[SweepCellReport]) -> Result<(), String> {
        if let Some(expected) = self.cells.get() {
            return if expected.as_slice() == cells {
                Ok(())
            } else {
                Err("the sweep differs from the reference result".to_owned())
            };
        }
        power_ratios_hold(cells)?;
        self.cells.get_or_init(|| cells.to_vec());
        Ok(())
    }

    /// The reference cells; empty until the first result is recorded.
    pub fn cells(&self) -> &[SweepCellReport] {
        self.cells.get().map_or(&[], Vec::as_slice)
    }
}

fn power_ratios_hold(cells: &[SweepCellReport]) -> Result<(), String> {
    for cell in cells {
        for report in cell.report().reports() {
            let worst_step = report
                .records()
                .iter()
                .map(teg_sim::StepRecord::ideal_ratio)
                .fold(report.ideal_fraction(), f64::max);
            if worst_step.is_nan() || worst_step > POWER_RATIO_LIMIT {
                return Err(format!(
                    "{} in cell {} reached {worst_step} of the ideal power",
                    report.scheme(),
                    cell.key()
                ));
            }
        }
    }
    Ok(())
}
