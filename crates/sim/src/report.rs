//! End-of-run simulation reports (the rows of Table I).

use std::fmt;

use teg_reconfig::RuntimeStats;
use teg_units::{Joules, Milliseconds, Seconds, Watts};

use crate::record::StepRecord;

/// The summary of one scheme's run over one scenario.
///
/// # Examples
///
/// ```
/// use teg_reconfig::Inor;
/// use teg_sim::{Scenario, SimSession};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let scenario = Scenario::builder().module_count(10).duration_seconds(30).seed(1).build()?;
/// let report = SimSession::new(&scenario, &mut Inor::default())?.run()?;
/// assert_eq!(report.scheme(), "INOR");
/// assert!(report.net_energy().value() > 0.0);
/// assert!(report.net_energy() <= report.gross_energy());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    scheme: String,
    records: Vec<StepRecord>,
    step: Seconds,
    gross_energy: Joules,
    net_energy: Joules,
    delivered_energy: Joules,
    overhead_energy: Joules,
    ideal_energy: Joules,
    switch_count: usize,
    runtime: RuntimeStats,
}

impl SimulationReport {
    /// Assembles a report from the per-step records; normally only the
    /// engine does this.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        scheme: impl Into<String>,
        records: Vec<StepRecord>,
        step: Seconds,
        switch_count: usize,
        runtime: RuntimeStats,
    ) -> Self {
        let mut gross = Joules::ZERO;
        let mut net = Joules::ZERO;
        let mut delivered = Joules::ZERO;
        let mut overhead = Joules::ZERO;
        let mut ideal = Joules::ZERO;
        for r in &records {
            gross += r.array_power() * step;
            net += r.net_power() * step;
            delivered += r.delivered_power() * step;
            overhead += r.overhead_energy();
            ideal += r.ideal_power() * step;
        }
        Self {
            scheme: scheme.into(),
            records,
            step,
            gross_energy: gross,
            net_energy: net,
            delivered_energy: delivered,
            overhead_energy: overhead,
            ideal_energy: ideal,
            switch_count,
            runtime,
        }
    }

    /// Name of the scheme that produced this report.
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The per-step records in time order.
    #[must_use]
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Simulated duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.step * self.records.len() as f64
    }

    /// The step length the records were sampled at (the scenario's step).
    #[must_use]
    pub const fn step(&self) -> Seconds {
        self.step
    }

    /// Array energy before subtracting switching overhead.
    #[must_use]
    pub const fn gross_energy(&self) -> Joules {
        self.gross_energy
    }

    /// Array energy net of switching overhead — the "Energy Output" column
    /// of Table I.
    #[must_use]
    pub const fn net_energy(&self) -> Joules {
        self.net_energy
    }

    /// Energy delivered into the battery after the charger.
    #[must_use]
    pub const fn delivered_energy(&self) -> Joules {
        self.delivered_energy
    }

    /// Total switching-overhead energy — the "Switch Overhead" column of
    /// Table I.
    #[must_use]
    pub const fn overhead_energy(&self) -> Joules {
        self.overhead_energy
    }

    /// The integral of `P_ideal` over the run.
    #[must_use]
    pub const fn ideal_energy(&self) -> Joules {
        self.ideal_energy
    }

    /// Number of reconfiguration (switch) events.
    #[must_use]
    pub const fn switch_count(&self) -> usize {
        self.switch_count
    }

    /// Per-invocation runtime statistics.
    #[must_use]
    pub const fn runtime(&self) -> &RuntimeStats {
        &self.runtime
    }

    /// Average algorithm runtime per invocation — the "Average Runtime"
    /// column of Table I.
    #[must_use]
    pub fn average_runtime(&self) -> Milliseconds {
        self.runtime.mean_ms()
    }

    /// Average net output power over the run.
    #[must_use]
    pub fn average_power(&self) -> Watts {
        if self.records.is_empty() {
            Watts::ZERO
        } else {
            self.net_energy.average_power(self.duration())
        }
    }

    /// Fraction of the ideal energy the scheme captured (Fig. 7 aggregated
    /// over the run).
    #[must_use]
    pub fn ideal_fraction(&self) -> f64 {
        if self.ideal_energy.value() <= 0.0 {
            0.0
        } else {
            self.net_energy.value() / self.ideal_energy.value()
        }
    }

    /// The net power trace as `(time, watts)` pairs — the series plotted in
    /// Fig. 6.
    #[must_use]
    pub fn power_trace(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| (r.time().value(), r.array_power().value()))
            .collect()
    }

    /// The power-ratio trace `P / P_ideal` as `(time, ratio)` pairs — the
    /// series plotted in Fig. 7.
    #[must_use]
    pub fn ratio_trace(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| (r.time().value(), r.ideal_ratio()))
            .collect()
    }

    /// The times at which the scheme switched configuration (the black dots
    /// of Fig. 7).
    #[must_use]
    pub fn switch_times(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.switched())
            .map(|r| r.time().value())
            .collect()
    }

    /// One row of Table I: energy output (J), switch overhead (J) and
    /// average runtime (ms).
    #[must_use]
    pub fn table1_row(&self) -> (f64, f64, f64) {
        (
            self.net_energy.value(),
            self.overhead_energy.value(),
            self.average_runtime().value(),
        )
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: energy {:.1} J, overhead {:.1} J, {} switches, avg runtime {:.3} ms over {}",
            self.scheme,
            self.net_energy.value(),
            self.overhead_energy.value(),
            self.switch_count,
            self.average_runtime().value(),
            self.duration(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_units::Watts;

    fn record(t: f64, power: f64, overhead: f64, switched: bool) -> StepRecord {
        StepRecord::new(
            Seconds::new(t),
            Watts::new(power),
            Watts::new(power - overhead),
            Watts::new(power * 0.95),
            Watts::new(power * 1.2),
            4,
            switched,
            Joules::new(overhead),
            Seconds::new(0.001),
        )
    }

    fn report() -> SimulationReport {
        let mut runtime = RuntimeStats::new();
        runtime.record(Seconds::new(0.002));
        runtime.record(Seconds::new(0.004));
        SimulationReport::new(
            "TEST",
            vec![record(0.0, 50.0, 1.0, true), record(1.0, 52.0, 0.0, false)],
            Seconds::new(1.0),
            1,
            runtime,
        )
    }

    #[test]
    fn totals_are_consistent_with_records() {
        let r = report();
        assert_eq!(r.scheme(), "TEST");
        assert_eq!(r.records().len(), 2);
        assert!((r.gross_energy().value() - 102.0).abs() < 1e-9);
        assert!((r.net_energy().value() - 101.0).abs() < 1e-9);
        assert!((r.overhead_energy().value() - 1.0).abs() < 1e-9);
        assert!((r.delivered_energy().value() - 102.0 * 0.95).abs() < 1e-9);
        assert!((r.ideal_energy().value() - 102.0 * 1.2).abs() < 1e-9);
        assert_eq!(r.switch_count(), 1);
        assert_eq!(r.duration(), Seconds::new(2.0));
        assert!((r.average_power().value() - 50.5).abs() < 1e-9);
        assert!((r.average_runtime().value() - 3.0).abs() < 1e-9);
        assert!((r.ideal_fraction() - 101.0 / 122.4).abs() < 1e-9);
    }

    #[test]
    fn traces_and_switch_times() {
        let r = report();
        assert_eq!(r.power_trace(), vec![(0.0, 50.0), (1.0, 52.0)]);
        let ratios = r.ratio_trace();
        assert!((ratios[0].1 - 1.0 / 1.2).abs() < 1e-9);
        assert_eq!(r.switch_times(), vec![0.0]);
        let (energy, overhead, runtime) = r.table1_row();
        assert!((energy - 101.0).abs() < 1e-9);
        assert!((overhead - 1.0).abs() < 1e-9);
        assert!((runtime - 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_the_scheme_and_energy() {
        let text = report().to_string();
        assert!(text.contains("TEST"));
        assert!(text.contains("101.0 J"));
    }

    #[test]
    fn empty_report_is_harmless() {
        let r = SimulationReport::new("EMPTY", vec![], Seconds::new(1.0), 0, RuntimeStats::new());
        assert_eq!(r.average_power(), Watts::ZERO);
        assert_eq!(r.ideal_fraction(), 0.0);
        assert_eq!(r.duration(), Seconds::ZERO);
    }
}
