//! Sensor (telemetry) faults: corruption of the temperature rows the
//! reconfiguration schemes observe.
//!
//! The electrical fault model (crate `teg-array`) degrades what the array
//! *delivers*; this module degrades what the controller *sees*.  The two are
//! deliberately independent: a scheme steering a healthy array through a
//! noisy thermocouple harness mis-groups modules and pays real switching
//! overhead for imaginary gradients, which is a failure mode the paper's
//! fixed-period schemes (INOR, EHTR) and prediction-gated DNOR respond to
//! very differently.
//!
//! [`SensorFaultInjector`] sits between the true thermal trace and the
//! telemetry buffer: the simulation session hands it each true temperature
//! row and it applies the active per-module [`SensorFault`]s in place.
//! Everything is deterministic — noise comes from a seeded ChaCha stream —
//! so a faulted simulation replays bit-identically, which the parallel
//! scenario sweep's serial-equivalence guarantee relies on.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use teg_units::Celsius;

use crate::error::ReconfigError;

/// A fault of one module's hot-side temperature sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// The reading is lost; the acquisition chain substitutes the ambient
    /// temperature (a disconnected thermocouple reads its cold junction), so
    /// the scheme sees ΔT ≈ 0 for the module.
    Dropout,
    /// The reading freezes at the value observed when the fault began.
    Stuck,
    /// Zero-mean Gaussian noise of the given standard deviation (°C) is
    /// added to every reading.
    Noisy {
        /// Standard deviation of the additive noise, in °C.
        sigma: f64,
    },
}

impl SensorFault {
    /// Compact tag used by fault-plan serialisations.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Dropout => "dropout",
            Self::Stuck => "stuck",
            Self::Noisy { .. } => "noise",
        }
    }
}

/// Deterministic, seeded corruption of telemetry rows.
///
/// # Examples
///
/// ```
/// use teg_reconfig::{SensorFault, SensorFaultInjector};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let mut sensors = SensorFaultInjector::new(3, 42)?;
/// sensors.set_fault(0, SensorFault::Dropout)?;
/// sensors.set_fault(2, SensorFault::Stuck)?;
///
/// let mut row = [90.0, 85.0, 80.0];
/// sensors.corrupt(&mut row, Celsius::new(25.0))?;
/// assert_eq!(row, [25.0, 85.0, 80.0]); // dropout reads ambient
///
/// let mut next = [91.0, 86.0, 81.0];
/// sensors.corrupt(&mut next, Celsius::new(25.0))?;
/// assert_eq!(next[2], 80.0); // stuck at the onset value
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SensorFaultInjector {
    faults: Vec<Option<SensorFault>>,
    /// Frozen reading per module while a `Stuck` fault is active; captured
    /// from the first row corrupted after the fault begins.
    held: Vec<Option<f64>>,
    rng: ChaCha8Rng,
    active: usize,
}

impl SensorFaultInjector {
    /// Creates a healthy injector for `module_count` sensors whose noise
    /// stream is seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] when `module_count` is
    /// zero.
    pub fn new(module_count: usize, seed: u64) -> Result<Self, ReconfigError> {
        if module_count == 0 {
            return Err(ReconfigError::InvalidParameter {
                name: "module count",
                value: 0.0,
            });
        }
        Ok(Self {
            faults: vec![None; module_count],
            held: vec![None; module_count],
            rng: ChaCha8Rng::seed_from_u64(seed),
            active: 0,
        })
    }

    /// Number of sensors covered.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` while no sensor fault is active.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.active == 0
    }

    /// Number of active sensor faults.
    #[must_use]
    pub fn active_fault_count(&self) -> usize {
        self.active
    }

    /// The active fault of one sensor, if any.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    #[must_use]
    pub fn fault(&self, module: usize) -> Option<SensorFault> {
        self.faults[module]
    }

    /// Activates (or replaces) a sensor fault.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] when the module index is
    /// out of range or a noise sigma is negative / non-finite.
    pub fn set_fault(&mut self, module: usize, fault: SensorFault) -> Result<(), ReconfigError> {
        if module >= self.faults.len() {
            return Err(ReconfigError::InvalidParameter {
                name: "sensor module index",
                value: module as f64,
            });
        }
        if let SensorFault::Noisy { sigma } = fault {
            if !(sigma.is_finite() && sigma >= 0.0) {
                return Err(ReconfigError::InvalidParameter {
                    name: "sensor noise sigma",
                    value: sigma,
                });
            }
        }
        if self.faults[module].is_none() {
            self.active += 1;
        }
        self.faults[module] = Some(fault);
        self.held[module] = None;
        Ok(())
    }

    /// Clears the fault of one sensor (a repair event).
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] when the index is out of
    /// range.
    pub fn clear_fault(&mut self, module: usize) -> Result<(), ReconfigError> {
        if module >= self.faults.len() {
            return Err(ReconfigError::InvalidParameter {
                name: "sensor module index",
                value: module as f64,
            });
        }
        if self.faults[module].is_some() {
            self.active -= 1;
        }
        self.faults[module] = None;
        self.held[module] = None;
        Ok(())
    }

    /// Applies the active faults to one true temperature row (°C) in place.
    ///
    /// A healthy injector leaves the row untouched (and draws nothing from
    /// the noise stream), so routing every row through `corrupt` costs
    /// nothing until a fault activates.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InconsistentHistory`] when the row length
    /// differs from the sensor count.
    pub fn corrupt(&mut self, row: &mut [f64], ambient: Celsius) -> Result<(), ReconfigError> {
        if row.len() != self.faults.len() {
            return Err(ReconfigError::InconsistentHistory {
                modules: self.faults.len(),
                row_len: row.len(),
            });
        }
        if self.active == 0 {
            return Ok(());
        }
        // Indexing three parallel per-module vectors; an iterator zip would
        // fight the borrow on `self.rng` inside the noise arm.
        #[allow(clippy::needless_range_loop)]
        for module in 0..self.faults.len() {
            match self.faults[module] {
                None => {}
                Some(SensorFault::Dropout) => row[module] = ambient.value(),
                Some(SensorFault::Stuck) => {
                    let held = *self.held[module].get_or_insert(row[module]);
                    row[module] = held;
                }
                Some(SensorFault::Noisy { sigma }) => {
                    row[module] += sigma * self.standard_normal();
                }
            }
        }
        Ok(())
    }

    /// One standard-normal draw via Box–Muller on the seeded ChaCha stream.
    fn standard_normal(&mut self) -> f64 {
        // `gen` is uniform in [0, 1); flip to (0, 1] so the log is finite.
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AMBIENT: Celsius = Celsius::new(25.0);

    #[test]
    fn construction_validation() {
        assert!(SensorFaultInjector::new(0, 1).is_err());
        let injector = SensorFaultInjector::new(4, 1).unwrap();
        assert_eq!(injector.module_count(), 4);
        assert!(injector.is_healthy());
        assert_eq!(injector.active_fault_count(), 0);
    }

    #[test]
    fn healthy_injector_is_a_no_op() {
        let mut injector = SensorFaultInjector::new(3, 7).unwrap();
        let mut row = [90.0, 85.0, 80.0];
        injector.corrupt(&mut row, AMBIENT).unwrap();
        assert_eq!(row, [90.0, 85.0, 80.0]);
    }

    #[test]
    fn row_length_mismatches_are_rejected() {
        let mut injector = SensorFaultInjector::new(3, 7).unwrap();
        let mut short = [90.0, 85.0];
        assert!(matches!(
            injector.corrupt(&mut short, AMBIENT),
            Err(ReconfigError::InconsistentHistory { .. })
        ));
    }

    #[test]
    fn dropout_reads_the_ambient() {
        let mut injector = SensorFaultInjector::new(2, 7).unwrap();
        injector.set_fault(1, SensorFault::Dropout).unwrap();
        let mut row = [90.0, 85.0];
        injector.corrupt(&mut row, AMBIENT).unwrap();
        assert_eq!(row, [90.0, 25.0]);
    }

    #[test]
    fn stuck_sensor_freezes_at_the_onset_value() {
        let mut injector = SensorFaultInjector::new(2, 7).unwrap();
        injector.set_fault(0, SensorFault::Stuck).unwrap();
        let mut first = [90.0, 85.0];
        injector.corrupt(&mut first, AMBIENT).unwrap();
        assert_eq!(first, [90.0, 85.0]); // captured, unchanged
        let mut later = [96.0, 86.0];
        injector.corrupt(&mut later, AMBIENT).unwrap();
        assert_eq!(later, [90.0, 86.0]); // still reporting the onset value
                                         // Repair and refault: a fresh onset value is captured.
        injector.clear_fault(0).unwrap();
        injector.set_fault(0, SensorFault::Stuck).unwrap();
        let mut fresh = [70.0, 87.0];
        injector.corrupt(&mut fresh, AMBIENT).unwrap();
        assert_eq!(fresh[0], 70.0);
    }

    #[test]
    fn noise_is_seeded_and_deterministic() {
        let run = |seed: u64| {
            let mut injector = SensorFaultInjector::new(1, seed).unwrap();
            injector
                .set_fault(0, SensorFault::Noisy { sigma: 2.0 })
                .unwrap();
            let mut values = Vec::new();
            for _ in 0..32 {
                let mut row = [80.0];
                injector.corrupt(&mut row, AMBIENT).unwrap();
                values.push(row[0]);
            }
            values
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        // Zero-mean, sane spread: every draw within 6 sigma of the truth.
        for v in run(5) {
            assert!((v - 80.0).abs() < 12.0, "noise sample {v} too extreme");
        }
    }

    #[test]
    fn invalid_faults_and_indices_are_rejected() {
        let mut injector = SensorFaultInjector::new(2, 1).unwrap();
        assert!(injector.set_fault(2, SensorFault::Dropout).is_err());
        assert!(injector.clear_fault(2).is_err());
        assert!(injector
            .set_fault(0, SensorFault::Noisy { sigma: -1.0 })
            .is_err());
        assert!(injector
            .set_fault(0, SensorFault::Noisy { sigma: f64::NAN })
            .is_err());
    }

    #[test]
    fn fault_bookkeeping_tracks_activations() {
        let mut injector = SensorFaultInjector::new(3, 1).unwrap();
        injector.set_fault(0, SensorFault::Dropout).unwrap();
        injector.set_fault(0, SensorFault::Stuck).unwrap(); // replace, not add
        injector.set_fault(2, SensorFault::Dropout).unwrap();
        assert_eq!(injector.active_fault_count(), 2);
        assert_eq!(injector.fault(0), Some(SensorFault::Stuck));
        assert_eq!(injector.fault(1), None);
        injector.clear_fault(0).unwrap();
        injector.clear_fault(0).unwrap(); // double-clear is harmless
        assert_eq!(injector.active_fault_count(), 1);
        assert!(!injector.is_healthy());
    }

    #[test]
    fn tags_cover_every_kind() {
        assert_eq!(SensorFault::Dropout.tag(), "dropout");
        assert_eq!(SensorFault::Stuck.tag(), "stuck");
        assert_eq!(SensorFault::Noisy { sigma: 1.0 }.tag(), "noise");
    }
}
