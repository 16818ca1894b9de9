//! Streaming co-simulation of the complete vehicle-radiator harvesting
//! system.
//!
//! One simulation step (1 s, matching the paper's measurement rate) chains:
//!
//! 1. the synthetic drive cycle (coolant inlet temperature + flow, ambient),
//! 2. the ε-NTU radiator model — solved **once per scenario** into a cached
//!    [`ThermalTrace`] shared by every scheme,
//! 3. the reconfiguration scheme under test
//!    ([`Reconfigurer`](teg_reconfig::Reconfigurer)), invoked at its own
//!    period over a bounded telemetry window and charged switching
//!    overhead per Section III-C,
//! 4. the array electrical solver at its MPP under the chosen configuration,
//! 5. the charger efficiency model metering the delivered power.
//!
//! # Entry points
//!
//! [`SimSession`] is the primary API: a step-wise driver yielding one
//! [`StepRecord`] per drive-cycle second, with [`StepObserver`] sinks
//! ([`CsvSink`], [`StepFn`], your own) for streaming export and an
//! [`Iterator`] adapter; [`SimSession::run`] drives it to completion and
//! returns the classic [`SimulationReport`].  [`Comparison`] drives several
//! schemes in lockstep over the shared thermal trace and renders Table I in
//! one pass.
//!
//! # Examples
//!
//! Streaming a session:
//!
//! ```
//! use teg_reconfig::Inor;
//! use teg_sim::{Scenario, SimSession};
//!
//! # fn main() -> Result<(), teg_sim::SimError> {
//! let scenario = Scenario::builder().module_count(20).duration_seconds(60).seed(7).build()?;
//! let mut inor = Inor::default();
//! let mut session = SimSession::new(&scenario, &mut inor)?;
//! while let Some(record) = session.step()? {
//!     // consume the record as it is produced: no buffering required
//!     let _ = record.array_power();
//! }
//! assert_eq!(session.summary().steps(), 60);
//! # Ok(())
//! # }
//! ```
//!
//! Comparing the paper's four schemes in lockstep (Table I):
//!
//! ```
//! use teg_sim::{Comparison, Scenario};
//!
//! # fn main() -> Result<(), teg_sim::SimError> {
//! let scenario = Scenario::builder().module_count(20).duration_seconds(40).seed(7).build()?;
//! let table = Comparison::paper_schemes(&scenario).run()?;
//! // One radiator solve per drive second, however many schemes compete.
//! assert_eq!(scenario.thermal_solve_count(), 40);
//! let dnor = table.report("DNOR").expect("ran");
//! assert!(dnor.net_energy() >= table.report("Baseline").unwrap().net_energy());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comparison;
mod csv;
mod error;
mod fault;
mod plant;
mod record;
mod report;
mod scenario;
mod session;
mod sweep;
mod thermal_trace;
mod trace_cache;

pub use comparison::{Comparison, ComparisonReport};
pub use csv::{records_to_csv, CsvSink, CSV_HEADER};
pub use error::SimError;
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultSeverity};
pub use record::StepRecord;
pub use report::SimulationReport;
pub use scenario::{Scenario, ScenarioBuilder};
pub use session::{RuntimePolicy, SessionSummary, SimSession, SolverPool, StepFn, StepObserver};
pub use sweep::{
    run_cell, CellKey, DriveProfile, FaultProfile, GridSpec, ScenarioGrid, SchemeLineup,
    SchemeSummary, SweepCell, SweepCellReport, SweepReport, SweepRunner,
};
pub use thermal_trace::ThermalTrace;
pub use trace_cache::TraceCache;
