//! A first-principles reference solve for the kernel's tests.
//!
//! It evaluates the closed form of the electrical model (see the
//! `electrical` module docs) group by group, in module order, straight from
//! each module's `open_circuit_voltage` and `internal_conductance`, and
//! applies the fault rules itself.  It shares no code with
//! [`ArraySolver`](crate::ArraySolver) or
//! [`mpp_power_from_group_sums`](crate::mpp_power_from_group_sums), so a
//! test that matches the kernel against it bit for bit checks the kernel
//! against an independent implementation, not against itself.

use teg_units::TemperatureDelta;

use crate::configuration::Configuration;
use crate::electrical::TegArray;
use crate::fault::{FaultState, ModuleFault};

/// The reference operating point of a whole array.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReferencePoint {
    pub(crate) current: f64,
    pub(crate) voltage: f64,
    pub(crate) power: f64,
    /// Terminal voltage of each group, in series order.
    pub(crate) group_voltages: Vec<f64>,
}

/// One parallel group's Norton sums `S = Σ G·E`, `G = Σ G` and its state.
struct Group {
    s: f64,
    g: f64,
    /// A shorted module pins the group to 0 V.
    shorted: bool,
    /// Every module is open: the series string is broken.
    open: bool,
}

/// One module's Thévenin source `(G, E)` under its fault: `None` when it is
/// open, an EMF scaled by the factor when it is derated.
pub(crate) fn module_source(
    array: &TegArray,
    index: usize,
    delta: TemperatureDelta,
    faults: Option<&FaultState>,
) -> Option<(f64, f64)> {
    let module = &array.modules()[index];
    let emf = module.open_circuit_voltage(delta).value();
    match faults.and_then(|f| f.module_fault(index)) {
        Some(ModuleFault::OpenCircuit) => None,
        Some(ModuleFault::Derated(factor)) => {
            Some((module.internal_conductance(delta), emf * factor))
        }
        Some(ModuleFault::ShortCircuit) | None => Some((module.internal_conductance(delta), emf)),
    }
}

fn groups(
    array: &TegArray,
    config: &Configuration,
    deltas: &[TemperatureDelta],
    faults: Option<&FaultState>,
) -> Vec<Group> {
    config
        .groups()
        .map(|group| {
            let mut out = Group {
                s: 0.0,
                g: 0.0,
                shorted: false,
                open: true,
            };
            for i in group.indices() {
                let fault = faults.and_then(|f| f.module_fault(i));
                out.shorted |= fault == Some(ModuleFault::ShortCircuit);
                if let Some((g, e)) = module_source(array, i, deltas[i], faults) {
                    out.s += g * e;
                    out.g += g;
                    out.open = false;
                }
            }
            out
        })
        .collect()
}

/// The array at string current `I`: `V_g = (S − I) / G` per group (0 V when
/// shorted), `V = Σ V_g`, `P = V·I`; a broken string delivers nothing.
fn solve(groups: &[Group], current: f64) -> ReferencePoint {
    if groups.iter().any(|group| group.open) {
        return ReferencePoint {
            current: 0.0,
            voltage: 0.0,
            power: 0.0,
            group_voltages: vec![0.0; groups.len()],
        };
    }
    let group_voltages: Vec<f64> = groups
        .iter()
        .map(|group| {
            if group.shorted {
                0.0
            } else {
                (group.s - current) / group.g
            }
        })
        .collect();
    let voltage = group_voltages.iter().fold(0.0, |total, v| total + v);
    ReferencePoint {
        current,
        voltage,
        power: voltage * current,
        group_voltages,
    }
}

/// The reference MPP: `I* = Σ(S/G) / (2·Σ 1/G)` over the groups that are
/// not shorted, clamped at zero (zero when every group is shorted).
pub(crate) fn mpp(
    array: &TegArray,
    config: &Configuration,
    deltas: &[TemperatureDelta],
    faults: Option<&FaultState>,
) -> ReferencePoint {
    let groups = groups(array, config, deltas, faults);
    let mut open_circuit_voltage = 0.0;
    let mut resistance = 0.0;
    for group in groups.iter().filter(|group| !group.shorted) {
        open_circuit_voltage += group.s / group.g;
        resistance += 1.0 / group.g;
    }
    let current = if resistance > 0.0 {
        (open_circuit_voltage / (2.0 * resistance)).max(0.0)
    } else {
        0.0
    };
    solve(&groups, current)
}

/// The reference operating point at an imposed string current.
pub(crate) fn operate_at(
    array: &TegArray,
    config: &Configuration,
    deltas: &[TemperatureDelta],
    faults: Option<&FaultState>,
    current: f64,
) -> ReferencePoint {
    solve(&groups(array, config, deltas, faults), current)
}

/// Deterministically derives a fault pattern from a bit mask: two bits per
/// module select healthy / open / short / derated.
pub(crate) fn fault_pattern(n: usize, mask: u64) -> FaultState {
    let mut faults = FaultState::healthy(n);
    for i in 0..n {
        let fault = match (mask >> ((2 * i) % 64)) & 0b11 {
            1 => ModuleFault::OpenCircuit,
            2 => ModuleFault::ShortCircuit,
            3 => ModuleFault::Derated(0.6),
            _ => continue,
        };
        faults
            .set_module_fault(i, fault)
            .expect("index is in range");
    }
    faults
}
