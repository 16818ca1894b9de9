//! The scheme-independent half of a simulation step.
//!
//! Every scheme simulated over one scenario sees the same drive second: the
//! same thermal row, the same fault-plan events, the same corrupted sensor
//! readings and the same per-module EMF/conductance terms.  [`Plant`] owns
//! that half and advances it once per step; each scheme's controller (see
//! [`SimSession`](crate::SimSession)) then decides against the sensor view,
//! solves its wiring against the plant's already-loaded terms and books its
//! own energy.  A [`Comparison`](crate::Comparison) therefore replays the
//! plant once for its whole lockstep field instead of once per scheme.

use std::sync::Arc;

use teg_array::{ArraySolver, FaultState};
use teg_reconfig::{SensorFaultInjector, TelemetryWindow};
use teg_units::{Celsius, Seconds, TemperatureDelta, Watts};

use crate::error::SimError;
use crate::fault::FaultEvent;
use crate::scenario::Scenario;
use crate::thermal_trace::ThermalTrace;

/// The drive-cycle replay shared by every controller of one scenario: the
/// fault-plan cursor, the electrical fault state, the sensor injector with
/// its corrupted telemetry row, the true ΔT row and one solver loaded once
/// per step.
pub(crate) struct Plant<'s> {
    scenario: &'s Scenario,
    trace: Arc<ThermalTrace>,
    cursor: usize,
    fault_events: &'s [FaultEvent],
    next_fault_event: usize,
    electrical_faults: FaultState,
    sensors: SensorFaultInjector,
    corrupted_row: Vec<f64>,
    deltas: Vec<TemperatureDelta>,
    solver: ArraySolver,
    fault_events_fired: usize,
    faulted_steps: usize,
}

/// One drive second of the plant, as every controller sees it.
pub(crate) struct PlantStep<'p> {
    /// Time stamp of the step.
    pub(crate) time: Seconds,
    /// Ambient temperature of the step.
    pub(crate) ambient: Celsius,
    /// The ideal (per-module MPP) power of the true thermal state.
    pub(crate) ideal: Watts,
    /// The row the sensors report: the true hot-side temperatures, corrupted
    /// by every active sensor fault.
    pub(crate) telemetry: &'p [f64],
    /// The electrical fault state while any module or switch fault is
    /// active, `None` while the array is electrically healthy.
    pub(crate) electrical_faults: Option<&'p FaultState>,
    /// Whether any module, switch or sensor fault is active.
    pub(crate) any_fault_active: bool,
    /// Number of active module, switch and sensor faults.
    pub(crate) faults_active: usize,
    /// Fault-plan events fired at the start of this step.
    pub(crate) fault_events: usize,
    /// The plant's solver, loaded with this step's module terms under the
    /// active fault state: controllers only accumulate their wiring's group
    /// sums against it.
    pub(crate) solver: &'p mut ArraySolver,
}

impl<'s> Plant<'s> {
    /// Opens the plant of one scenario, solving (or reusing) its thermal
    /// trace.
    pub(crate) fn new(scenario: &'s Scenario) -> Result<Self, SimError> {
        let trace = Arc::clone(scenario.thermal_trace_shared()?);
        let module_count = scenario.module_count();
        let plan = scenario.fault_plan();
        let sensors = SensorFaultInjector::new(module_count, plan.sensor_seed())?;
        Ok(Self {
            scenario,
            trace,
            cursor: 0,
            fault_events: plan.events(),
            next_fault_event: 0,
            electrical_faults: FaultState::healthy(module_count),
            sensors,
            corrupted_row: Vec::new(),
            deltas: Vec::new(),
            solver: ArraySolver::new(),
            fault_events_fired: 0,
            faulted_steps: 0,
        })
    }

    /// Replaces the solver scratch with a pre-warmed one.
    pub(crate) fn set_solver(&mut self, solver: ArraySolver) {
        self.solver = solver;
    }

    /// Takes the (now warm) solver out, leaving a fresh one behind.
    pub(crate) fn take_solver(&mut self) -> ArraySolver {
        std::mem::take(&mut self.solver)
    }

    /// Steps advanced so far.
    pub(crate) const fn position(&self) -> usize {
        self.cursor
    }

    /// Steps remaining in the drive cycle.
    pub(crate) fn remaining(&self) -> usize {
        self.trace.len() - self.cursor
    }

    /// Fault-plan events fired so far.
    pub(crate) const fn fault_events_fired(&self) -> usize {
        self.fault_events_fired
    }

    /// Steps advanced while at least one fault was active.
    pub(crate) const fn faulted_steps(&self) -> usize {
        self.faulted_steps
    }

    /// Advances one drive second: fires every fault-plan event due at (or
    /// before) it, corrupts the sensor view, derives the true ΔT row from
    /// the trace's surface row and ambient into the plant's reused buffer
    /// and loads its module terms — once, for every controller.  Returns
    /// `Ok(None)` once the cycle is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from a fault event, the sensor injector or
    /// the term load.
    pub(crate) fn advance(&mut self) -> Result<Option<PlantStep<'_>>, SimError> {
        if self.cursor >= self.trace.len() {
            return Ok(None);
        }
        let index = self.cursor;
        self.cursor += 1;

        // Fire every fault-plan event due at (or before) this step, evolving
        // the electrical fault state and the sensor injector in plan order.
        let mut fault_events = 0;
        while self.next_fault_event < self.fault_events.len()
            && self.fault_events[self.next_fault_event].step() <= index
        {
            self.fault_events[self.next_fault_event]
                .action()
                .apply(&mut self.electrical_faults, &mut self.sensors)?;
            self.next_fault_event += 1;
            fault_events += 1;
        }
        self.fault_events_fired += fault_events;
        let electrical_active = !self.electrical_faults.is_healthy();
        let sensors_healthy = self.sensors.is_healthy();
        let any_fault_active = electrical_active || !sensors_healthy;
        if any_fault_active {
            self.faulted_steps += 1;
        }

        let trace = &*self.trace;
        let ambient = trace.ambient(index);
        // The schemes observe the telemetry *through* the sensors: faulted
        // sensors corrupt a scratch copy of the true row.  Physics below
        // always uses the true thermal state.
        let telemetry = if sensors_healthy {
            trace.row(index)
        } else {
            self.corrupted_row.clear();
            self.corrupted_row.extend_from_slice(trace.row(index));
            self.sensors.corrupt(&mut self.corrupted_row, ambient)?;
            &self.corrupted_row
        };
        let electrical_faults = electrical_active.then_some(&self.electrical_faults);
        self.deltas.clear();
        TelemetryWindow::deltas_from_row_into(trace.row(index), ambient, &mut self.deltas);
        self.solver
            .load(self.scenario.array(), &self.deltas, electrical_faults)?;
        Ok(Some(PlantStep {
            time: trace.time(index),
            ambient,
            ideal: trace.ideal(index),
            telemetry,
            electrical_faults,
            any_fault_active,
            faults_active: self.electrical_faults.active_fault_count()
                + self.sensors.active_fault_count(),
            fault_events,
            solver: &mut self.solver,
        }))
    }
}

#[cfg(test)]
mod tests {
    use teg_array::ideal_power;

    use super::*;
    use crate::fault::{FaultPlan, FaultSeverity};

    #[test]
    fn derived_deltas_are_the_trace_rows_against_their_ambient_bit_for_bit() {
        // The plant derives the true ΔT from the trace's surface row and
        // ambient; the trace's ideal power is the bound of that same
        // expression.  Sensor faults corrupt only the telemetry view, never
        // the ΔT the solver loads.
        let (modules, seconds) = (12, 60);
        let scenario = Scenario::builder()
            .module_count(modules)
            .duration_seconds(seconds)
            .seed(5)
            .fault_plan(FaultPlan::random(
                modules,
                seconds,
                FaultSeverity::severe(),
                3,
            ))
            .build()
            .expect("valid scenario");
        let trace = Arc::clone(scenario.thermal_trace_shared().unwrap());
        let mut plant = Plant::new(&scenario).unwrap();
        while let Some(step) = plant.advance().unwrap() {
            let ideal = step.ideal;
            let index = plant.position() - 1;
            let expected = TelemetryWindow::deltas_from_row(trace.row(index), trace.ambient(index));
            assert_eq!(plant.deltas.len(), modules);
            for (a, b) in plant.deltas.iter().zip(&expected) {
                assert_eq!(a.kelvin().to_bits(), b.kelvin().to_bits(), "ΔT {index}");
            }
            let bound = ideal_power(scenario.array().modules(), &expected).unwrap();
            assert_eq!(
                ideal.value().to_bits(),
                bound.value().to_bits(),
                "ideal {index}"
            );
        }
        assert_eq!(plant.position(), seconds);
        assert!(plant.faulted_steps() > 0, "the plan must strike mid-drive");
    }
}
