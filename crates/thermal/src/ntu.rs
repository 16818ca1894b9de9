//! Effectiveness-NTU relations for heat exchangers.
//!
//! The paper derives its 1-D temperature distribution with the
//! effectiveness-NTU (number of transfer units) method from Bergman,
//! *Introduction to Heat Transfer*.  This module provides the standard ε(NTU,
//! C_r) relations for the arrangements relevant to a vehicle radiator so the
//! radiator model can compute outlet temperatures and heat duty, and so tests
//! can cross-check the exponential profile of Eq. 1 against the global energy
//! balance.

/// Flow arrangement of a two-stream heat exchanger.
///
/// # Examples
///
/// ```
/// use teg_thermal::{effectiveness, ExchangerArrangement};
///
/// let eps = effectiveness(ExchangerArrangement::CrossFlowBothUnmixed, 1.2, 0.4);
/// assert!(eps > 0.0 && eps < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ExchangerArrangement {
    /// Counter-flow exchanger (upper bound on effectiveness).
    CounterFlow,
    /// Parallel-flow exchanger (lower bound on effectiveness).
    ParallelFlow,
    /// Cross-flow with both fluids unmixed — the standard model for a
    /// finned-tube automotive radiator and the one used by the paper.
    CrossFlowBothUnmixed,
    /// Cross-flow with the C_max fluid mixed and the C_min fluid unmixed.
    CrossFlowCmaxMixed,
    /// Any arrangement in the limit where one fluid changes phase or has an
    /// overwhelmingly larger capacity rate (C_r → 0).
    SingleStream,
}

/// Computes the effectiveness ε of a heat exchanger from its number of
/// transfer units `ntu = UA / C_min` and its capacity-rate ratio
/// `c_r = C_min / C_max`.
///
/// The returned value is clamped to `[0, 1]`; for `c_r` outside `[0, 1]` or a
/// negative `ntu` the inputs are clamped to their physical range first, so the
/// function is total and never returns NaN for finite inputs.
///
/// # Examples
///
/// ```
/// use teg_thermal::{effectiveness, ExchangerArrangement};
///
/// // With zero transfer units nothing is exchanged.
/// assert_eq!(effectiveness(ExchangerArrangement::CounterFlow, 0.0, 0.5), 0.0);
/// // A balanced counter-flow exchanger approaches NTU/(1+NTU).
/// let eps = effectiveness(ExchangerArrangement::CounterFlow, 2.0, 1.0);
/// assert!((eps - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[inline]
#[must_use]
pub fn effectiveness(arrangement: ExchangerArrangement, ntu: f64, c_r: f64) -> f64 {
    let ntu = ntu.max(0.0);
    let c_r = c_r.clamp(0.0, 1.0);
    let eps = match arrangement {
        ExchangerArrangement::SingleStream => single_stream(ntu),
        ExchangerArrangement::CounterFlow => counter_flow(ntu, c_r),
        ExchangerArrangement::ParallelFlow => parallel_flow(ntu, c_r),
        ExchangerArrangement::CrossFlowBothUnmixed => cross_flow_both_unmixed(ntu, c_r),
        ExchangerArrangement::CrossFlowCmaxMixed => cross_flow_cmax_mixed(ntu, c_r),
    };
    eps.clamp(0.0, 1.0)
}

#[inline]
fn single_stream(ntu: f64) -> f64 {
    1.0 - (-ntu).exp()
}

#[inline]
fn counter_flow(ntu: f64, c_r: f64) -> f64 {
    if c_r < 1e-12 {
        return single_stream(ntu);
    }
    if (c_r - 1.0).abs() < 1e-9 {
        return ntu / (1.0 + ntu);
    }
    let e = (-ntu * (1.0 - c_r)).exp();
    (1.0 - e) / (1.0 - c_r * e)
}

#[inline]
fn parallel_flow(ntu: f64, c_r: f64) -> f64 {
    if c_r < 1e-12 {
        return single_stream(ntu);
    }
    (1.0 - (-ntu * (1.0 + c_r)).exp()) / (1.0 + c_r)
}

#[inline]
fn cross_flow_both_unmixed(ntu: f64, c_r: f64) -> f64 {
    if c_r < 1e-12 {
        return single_stream(ntu);
    }
    if ntu <= 0.0 {
        return 0.0;
    }
    // Standard approximation (Incropera/Bergman Eq. 11.32):
    // ε = 1 − exp[ (1/Cr) · NTU^0.22 · ( exp(−Cr · NTU^0.78) − 1 ) ]
    let ntu022 = ntu.powf(0.22);
    let inner = (-c_r * ntu.powf(0.78)).exp() - 1.0;
    1.0 - ((ntu022 / c_r) * inner).exp()
}

#[inline]
fn cross_flow_cmax_mixed(ntu: f64, c_r: f64) -> f64 {
    if c_r < 1e-12 {
        return single_stream(ntu);
    }
    (1.0 / c_r) * (1.0 - (-c_r * (1.0 - (-ntu).exp())).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [ExchangerArrangement; 5] = [
        ExchangerArrangement::CounterFlow,
        ExchangerArrangement::ParallelFlow,
        ExchangerArrangement::CrossFlowBothUnmixed,
        ExchangerArrangement::CrossFlowCmaxMixed,
        ExchangerArrangement::SingleStream,
    ];

    #[test]
    fn zero_ntu_means_zero_effectiveness() {
        for arr in ALL {
            assert_eq!(effectiveness(arr, 0.0, 0.5), 0.0, "{arr:?}");
        }
    }

    #[test]
    fn effectiveness_is_bounded_and_monotone_in_ntu() {
        for arr in ALL {
            let mut last = 0.0;
            for i in 0..50 {
                let ntu = f64::from(i) * 0.2;
                let eps = effectiveness(arr, ntu, 0.6);
                assert!((0.0..=1.0).contains(&eps), "{arr:?} ntu={ntu} eps={eps}");
                assert!(eps + 1e-12 >= last, "{arr:?} not monotone at ntu={ntu}");
                last = eps;
            }
        }
    }

    #[test]
    fn counter_flow_dominates_parallel_flow() {
        for i in 1..30 {
            let ntu = f64::from(i) * 0.3;
            for j in 1..=10 {
                let c_r = f64::from(j) * 0.1;
                let cf = effectiveness(ExchangerArrangement::CounterFlow, ntu, c_r);
                let pf = effectiveness(ExchangerArrangement::ParallelFlow, ntu, c_r);
                assert!(
                    cf + 1e-12 >= pf,
                    "counterflow should dominate (ntu={ntu}, cr={c_r})"
                );
            }
        }
    }

    #[test]
    fn cross_flow_lies_between_parallel_and_counter_flow() {
        for i in 1..20 {
            let ntu = f64::from(i) * 0.4;
            let c_r = 0.75;
            let cf = effectiveness(ExchangerArrangement::CounterFlow, ntu, c_r);
            let xf = effectiveness(ExchangerArrangement::CrossFlowBothUnmixed, ntu, c_r);
            let pf = effectiveness(ExchangerArrangement::ParallelFlow, ntu, c_r);
            assert!(xf <= cf + 1e-9, "crossflow above counterflow at ntu={ntu}");
            assert!(
                xf + 1e-2 >= pf,
                "crossflow far below parallel flow at ntu={ntu}"
            );
        }
    }

    #[test]
    fn cr_zero_collapses_to_single_stream() {
        for arr in ALL {
            let a = effectiveness(arr, 1.7, 0.0);
            let b = effectiveness(ExchangerArrangement::SingleStream, 1.7, 0.0);
            assert!((a - b).abs() < 1e-12, "{arr:?}");
        }
    }

    #[test]
    fn balanced_counter_flow_closed_form() {
        for i in 1..=20 {
            let ntu = f64::from(i) * 0.5;
            let eps = effectiveness(ExchangerArrangement::CounterFlow, ntu, 1.0);
            assert!((eps - ntu / (1.0 + ntu)).abs() < 1e-12);
        }
    }

    #[test]
    fn textbook_crossflow_value() {
        // The standard approximation (Incropera/Bergman Eq. 11.32) evaluates
        // to ε ≈ 0.545 at NTU = 1, Cr = 0.5; the chart value lies within a
        // couple of percentage points of this.
        let eps = effectiveness(ExchangerArrangement::CrossFlowBothUnmixed, 1.0, 0.5);
        assert!((eps - 0.545).abs() < 0.02, "got {eps}");
        // And it must stay below the counter-flow bound at the same point.
        let cf = effectiveness(ExchangerArrangement::CounterFlow, 1.0, 0.5);
        assert!(eps < cf);
    }

    #[test]
    fn inputs_outside_physical_range_are_clamped() {
        let eps = effectiveness(ExchangerArrangement::CounterFlow, -3.0, 0.5);
        assert_eq!(eps, 0.0);
        let eps = effectiveness(ExchangerArrangement::CounterFlow, 2.0, 7.0);
        assert!((0.0..=1.0).contains(&eps));
        let eps = effectiveness(ExchangerArrangement::CrossFlowBothUnmixed, 2.0, -1.0);
        assert!((0.0..=1.0).contains(&eps));
    }

    #[test]
    fn large_ntu_saturates_towards_one() {
        let eps = effectiveness(ExchangerArrangement::CounterFlow, 50.0, 0.3);
        assert!(eps > 0.99);
        let eps = effectiveness(ExchangerArrangement::SingleStream, 50.0, 0.0);
        assert!(eps > 0.99);
    }
}
