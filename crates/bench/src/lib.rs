//! Shared helpers for the benchmark harness and the experiment binaries that
//! regenerate every table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artefact:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_iv_pv` | Fig. 1 — I-V / P-V characteristics of the TGM-199-1.4-0.8 |
//! | `fig5_prediction_error` | Fig. 5 — 1-second prediction error of MLR/BPNN/SVR |
//! | `fig6_power_trace` | Fig. 6 — output power of the four schemes over 120 s |
//! | `fig7_power_ratio` | Fig. 7 — output power ratio against `P_ideal` |
//! | `table1_comparison` | Table I — 800-second energy / overhead / runtime |
//! | `scalability_sweep` | §I/§VI scalability claim — runtime vs array size |
//! | `ablation_dnor` | (ours) DNOR sensitivity to horizon and overhead |
//! | `opt_gap` | (ours) each scheme's distance to the certified optimum |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use teg_array::TegArray;
use teg_device::{TegDatasheet, TegModule};
use teg_units::TemperatureDelta;

/// The module model every experiment uses (the paper's TGM-199-1.4-0.8).
#[must_use]
pub fn paper_module() -> TegModule {
    TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8())
}

/// A uniform array of `n` paper modules.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn paper_array(n: usize) -> TegArray {
    TegArray::uniform(paper_module(), n)
}

/// An exponential hot-to-cold ΔT profile like the radiator produces:
/// `ΔT_i = hot · exp(−decay · i / n)`.
#[must_use]
pub fn exponential_deltas(n: usize, hot: f64, decay: f64) -> Vec<TemperatureDelta> {
    (0..n)
        .map(|i| TemperatureDelta::new(hot * (-(i as f64) * decay / n as f64).exp()))
        .collect()
}

/// The number of threads the host can run in parallel, recorded in every
/// `BENCH_*.json` so a committed throughput figure names the hardware it
/// was measured on.  Falls back to 1 when the platform cannot say.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_shapes() {
        let array = paper_array(10);
        assert_eq!(array.len(), 10);
        let deltas = exponential_deltas(10, 70.0, 1.0);
        assert_eq!(deltas.len(), 10);
        assert!(deltas[0] > deltas[9]);
        assert!(available_parallelism() >= 1);
    }
}
