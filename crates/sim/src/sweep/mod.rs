//! Parallel scenario sweeps: parameter grids executed across all cores with
//! deterministic, serial-equivalent results.
//!
//! The paper evaluates one scenario (100 modules, one 800-second drive) ×
//! four schemes.  This module scales that shape out: a [`ScenarioGrid`]
//! enumerates the cross-product of module counts × seeds × drive profiles ×
//! variation models × scheme lineups, and a [`SweepRunner`] executes every
//! grid cell on a work-stealing pool of `std::thread::scope` workers —
//! no external dependencies, no unsafe code.
//!
//! Three properties make the sweep cheap and trustworthy:
//!
//! * **One thermal solve per unique thermal key.**  Cells that differ only
//!   in their scheme lineup share one [`Scenario`](crate::Scenario), whose
//!   `Arc`-cached [`ThermalTrace`](crate::ThermalTrace) is solved by
//!   whichever worker arrives first and reused by everyone else.  On top of
//!   that, the grid attaches a [`TraceCache`](crate::TraceCache) to every
//!   sample it builds, so *samples* with bit-identical thermal inputs —
//!   the fault-profile variants of one (module count, seed, drive)
//!   coordinate — also share a single radiator solve.  Sharing is keyed by
//!   exact input equality (never a lossy hash), so a cached trace is the
//!   same value, bit for bit, a private solve would have produced.
//! * **Deterministic ordering.**  Results are keyed by cell index, not by
//!   completion order, so the assembled [`SweepReport`] lists cells in grid
//!   order no matter how the pool interleaves.
//! * **Serial-equivalence.**  Under [`RuntimePolicy::Fixed`] the physics is
//!   bit-reproducible for every lineup: one worker and N workers produce
//!   identical [`SweepReport`]s.  The session hands its fixed charge to each
//!   decision, so DNOR's switch gate weighs that charge rather than its own
//!   wall clock.  Under the default [`RuntimePolicy::Measured`] overhead
//!   accounting is measured, so results reproduce only up to wall-clock
//!   timing jitter.
//!
//! The grid also carries a **fault axis** ([`FaultProfile`]): each profile
//! produces one degraded variant of every scenario sample (seeded
//! [`FaultPlan`](crate::FaultPlan)s of module/switch/sensor faults), which
//! is how "Table I under degradation" reports sweep fault severity against
//! scheme choice.  Fault replay is deterministic, so every guarantee above
//! holds on grids containing faulted cells.
//!
//! [`RuntimePolicy::Fixed`]: crate::RuntimePolicy::Fixed
//! [`RuntimePolicy::Measured`]: crate::RuntimePolicy::Measured
//!
//! # Examples
//!
//! ```
//! use teg_sim::{ScenarioGrid, SchemeLineup, SweepRunner};
//!
//! # fn main() -> Result<(), teg_sim::SimError> {
//! let grid = ScenarioGrid::builder()
//!     .module_counts([8, 12])
//!     .seeds([1, 2])
//!     .duration_seconds(15)
//!     .lineups([SchemeLineup::paper()])
//!     .build()?;
//! assert_eq!(grid.len(), 4); // 2 module counts × 2 seeds × 1 lineup
//!
//! let report = SweepRunner::new().workers(2).run(&grid)?;
//! assert_eq!(report.cells().len(), 4);
//! let inor = report.summary("INOR").expect("INOR ran in every cell");
//! assert_eq!(inor.cells(), 4);
//! # Ok(())
//! # }
//! ```

mod grid;
mod report;
mod runner;
mod spec;

pub use grid::{
    CellKey, DriveProfile, FaultProfile, ScenarioGrid, ScenarioGridBuilder, SchemeLineup, SweepCell,
};
pub use report::{SchemeSummary, SweepCellReport, SweepReport};
pub use runner::{run_cell, SweepRunner};
pub use spec::GridSpec;
