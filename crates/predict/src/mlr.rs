//! Multiple linear regression (the predictor the paper selects).

use crate::error::PredictError;
use crate::linalg::{dot, solve_in_place};
use crate::predictor::Predictor;

/// Autoregressive multiple linear regression fitted by ridge-regularised
/// normal equations.
///
/// The model predicts the next sample as an affine combination of the last
/// `window` samples:
///
/// ```text
/// ŷ_{t+1} = θ_1·y_{t−w+1} + … + θ_w·y_t + θ_0
/// ```
///
/// A tiny ridge term keeps the system well conditioned when the window
/// columns are nearly collinear, which is always the case for the slowly
/// varying coolant temperature.
///
/// # Examples
///
/// ```
/// use teg_predict::{MultipleLinearRegression, Predictor};
///
/// # fn main() -> Result<(), teg_predict::PredictError> {
/// // A noiseless linear ramp is forecast almost exactly.
/// let series: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
/// let mut mlr = MultipleLinearRegression::new(3)?;
/// mlr.fit(&series)?;
/// let next = mlr.predict_next(&series)?;
/// assert!((next - 100.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultipleLinearRegression {
    window: usize,
    ridge: f64,
    coefficients: Option<Vec<f64>>,
    // Fit scratch, reused across fits: the row-major `XᵀX + λI` followed by
    // `Xᵀy`, which the solve overwrites with the coefficients.
    system: Vec<f64>,
}

/// The fit scratch holds no state between fits, so it stays out of model
/// identity.
impl PartialEq for MultipleLinearRegression {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window
            && self.ridge == other.ridge
            && self.coefficients == other.coefficients
    }
}

impl MultipleLinearRegression {
    /// Creates an (unfitted) model with the given window length and the
    /// default ridge regularisation of `1e-6`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParameter`] if the window is zero.
    pub fn new(window: usize) -> Result<Self, PredictError> {
        Self::with_ridge(window, 1e-6)
    }

    /// Creates a model with an explicit ridge term.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParameter`] if the window is zero or
    /// the ridge term is negative/non-finite.
    pub fn with_ridge(window: usize, ridge: f64) -> Result<Self, PredictError> {
        if window == 0 {
            return Err(PredictError::InvalidParameter {
                name: "window",
                value: 0.0,
            });
        }
        if !ridge.is_finite() || ridge < 0.0 {
            return Err(PredictError::InvalidParameter {
                name: "ridge",
                value: ridge,
            });
        }
        Ok(Self {
            window,
            ridge,
            coefficients: None,
            system: Vec::new(),
        })
    }

    /// The fitted coefficients (window weights followed by the intercept), if
    /// the model has been fitted.
    #[must_use]
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coefficients.as_deref()
    }
}

impl Predictor for MultipleLinearRegression {
    fn name(&self) -> &'static str {
        "MLR"
    }

    fn window(&self) -> usize {
        self.window
    }

    /// Solves the ridge normal equations `(XᵀX + λI)·θ = Xᵀy`, where each
    /// row of `X` is one lagged window plus a bias `1.0` and `y` is the
    /// sample after it.
    ///
    /// `XᵀX` and `Xᵀy` are accumulated straight from the windows of
    /// `series`, sample by sample and row by column, the order
    /// [`gram_matrix`](crate::linalg::gram_matrix) and
    /// [`design_times_targets`](crate::linalg::design_times_targets) use
    /// over a [`SlidingWindowDataset`](crate::SlidingWindowDataset), so the
    /// coefficients are the same bits without building the design matrix.
    /// The system lives in one flat buffer reused across fits, so a refit
    /// of a fitted model allocates nothing.  A failed solve keeps the
    /// previous coefficients.
    fn fit(&mut self, series: &[f64]) -> Result<(), PredictError> {
        let window = self.window;
        let needed = window + 1;
        if series.len() < needed {
            return Err(PredictError::InsufficientData {
                needed,
                available: series.len(),
            });
        }
        let cols = window + 1;
        self.system.clear();
        self.system.resize(cols * cols + cols, 0.0);
        let (gram, rhs) = self.system.split_at_mut(cols * cols);
        for start in 0..=(series.len() - needed) {
            let lags = &series[start..start + window];
            let target = series[start + window];
            // Column `window` is the bias.
            let x = |i: usize| if i < window { lags[i] } else { 1.0 };
            for (i, gram_row) in gram.chunks_exact_mut(cols).enumerate() {
                let xi = x(i);
                for (j, entry) in gram_row.iter_mut().enumerate() {
                    *entry += xi * x(j);
                }
                rhs[i] += xi * target;
            }
        }
        for i in 0..cols {
            gram[i * cols + i] += self.ridge;
        }
        solve_in_place(gram, rhs)?;
        let coefficients = self.coefficients.get_or_insert_with(Vec::new);
        coefficients.clear();
        coefficients.extend_from_slice(rhs);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.coefficients.is_some()
    }

    fn predict_next(&self, history: &[f64]) -> Result<f64, PredictError> {
        let Some(coefficients) = &self.coefficients else {
            return Err(PredictError::NotFitted);
        };
        if history.len() < self.window {
            return Err(PredictError::InsufficientData {
                needed: self.window,
                available: history.len(),
            });
        }
        let tail = &history[history.len() - self.window..];
        let weights = &coefficients[..self.window];
        let intercept = coefficients[self.window];
        Ok(dot(tail, weights) + intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SlidingWindowDataset;
    use crate::linalg::{design_times_targets, gram_matrix, solve};
    use crate::metrics::mape;
    use proptest::prelude::*;

    #[test]
    fn construction_validation() {
        assert!(MultipleLinearRegression::new(0).is_err());
        assert!(MultipleLinearRegression::with_ridge(3, -1.0).is_err());
        assert!(MultipleLinearRegression::with_ridge(3, f64::NAN).is_err());
        let m = MultipleLinearRegression::new(3).unwrap();
        assert_eq!(m.window(), 3);
        assert_eq!(m.name(), "MLR");
        assert!(!m.is_fitted());
        assert!(m.coefficients().is_none());
    }

    #[test]
    fn unfitted_model_refuses_to_predict() {
        let m = MultipleLinearRegression::new(3).unwrap();
        assert!(matches!(
            m.predict_next(&[1.0, 2.0, 3.0]),
            Err(PredictError::NotFitted)
        ));
    }

    #[test]
    fn fits_a_linear_ramp_exactly() {
        let series: Vec<f64> = (0..40).map(|i| 5.0 + 0.25 * i as f64).collect();
        let mut m = MultipleLinearRegression::new(4).unwrap();
        m.fit(&series).unwrap();
        assert!(m.is_fitted());
        let next = m.predict_next(&series).unwrap();
        assert!((next - (5.0 + 0.25 * 40.0)).abs() < 1e-6);
        // Multi-step forecasts keep following the ramp.
        let forecast = m.forecast(&series, 5).unwrap();
        for (k, value) in forecast.iter().enumerate() {
            let expected = 5.0 + 0.25 * (40 + k) as f64;
            assert!(
                (value - expected).abs() < 1e-4,
                "step {k}: {value} vs {expected}"
            );
        }
    }

    #[test]
    fn fits_a_constant_series() {
        let series = vec![91.5; 30];
        let mut m = MultipleLinearRegression::new(5).unwrap();
        m.fit(&series).unwrap();
        let next = m.predict_next(&series).unwrap();
        assert!((next - 91.5).abs() < 1e-6);
    }

    #[test]
    fn tracks_a_slow_sinusoid_with_small_error() {
        // Representative of thermostat-regulated coolant temperature
        // oscillation; the 1-step MAPE should be a fraction of a percent, in
        // line with the paper's Fig. 5.
        let series: Vec<f64> = (0..400)
            .map(|i| 92.0 + 3.0 * (i as f64 * 0.05).sin())
            .collect();
        let mut m = MultipleLinearRegression::new(5).unwrap();
        m.fit(&series[..300]).unwrap();
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for t in 300..399 {
            predicted.push(m.predict_next(&series[..t]).unwrap());
            actual.push(series[t]);
        }
        let err = mape(&actual, &predicted).unwrap();
        assert!(err < 0.5, "MLR MAPE {err}% is too large");
    }

    #[test]
    fn too_short_series_is_rejected() {
        let mut m = MultipleLinearRegression::new(5).unwrap();
        assert!(matches!(
            m.fit(&[1.0, 2.0, 3.0]),
            Err(PredictError::InsufficientData { .. })
        ));
        // Fit on something valid, then predict with a short window.
        let series: Vec<f64> = (0..20).map(f64::from).collect();
        m.fit(&series).unwrap();
        assert!(matches!(
            m.predict_next(&[1.0, 2.0]),
            Err(PredictError::InsufficientData { .. })
        ));
    }

    /// The dataset + `gram_matrix` + `design_times_targets` fit that
    /// `fit` replaced, kept as its oracle.
    fn oracle_fit(window: usize, ridge: f64, series: &[f64]) -> Result<Vec<f64>, PredictError> {
        let dataset = SlidingWindowDataset::build(series, window, 1)?;
        let design = dataset.features_with_bias();
        let gram = gram_matrix(&design, ridge);
        let rhs = design_times_targets(&design, dataset.targets());
        solve(gram, rhs)
    }

    #[test]
    fn short_series_report_what_the_dataset_reported() {
        for window in 1..=8 {
            for len in 0..=window {
                let series: Vec<f64> = (0..len).map(|i| 90.0 + i as f64).collect();
                let mut m = MultipleLinearRegression::new(window).unwrap();
                assert_eq!(
                    m.fit(&series),
                    oracle_fit(window, 1e-6, &series).map(|_| ()),
                    "window {window}, {len} samples"
                );
                assert!(!m.is_fitted());
            }
        }
    }

    fn assert_fit_matches_oracle(window: usize, ridge: f64, series: &[f64]) {
        let mut m = MultipleLinearRegression::with_ridge(window, ridge).unwrap();
        let fitted = m.fit(series);
        match oracle_fit(window, ridge, series) {
            Ok(expected) => {
                assert_eq!(fitted, Ok(()));
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(m.coefficients().unwrap()), bits(&expected));
            }
            Err(expected) => assert_eq!(fitted, Err(expected)),
        }
    }

    /// The nested-`Vec` accumulation `fit` used before its system moved
    /// into one flat buffer, kept as its oracle.
    fn nested_fit(window: usize, ridge: f64, series: &[f64]) -> Result<Vec<f64>, PredictError> {
        let needed = window + 1;
        if series.len() < needed {
            return Err(PredictError::InsufficientData {
                needed,
                available: series.len(),
            });
        }
        let cols = window + 1;
        let mut gram = vec![vec![0.0; cols]; cols];
        let mut rhs = vec![0.0; cols];
        for start in 0..=(series.len() - needed) {
            let lags = &series[start..start + window];
            let target = series[start + window];
            let x = |i: usize| if i < window { lags[i] } else { 1.0 };
            for (i, gram_row) in gram.iter_mut().enumerate() {
                let xi = x(i);
                for (j, entry) in gram_row.iter_mut().enumerate() {
                    *entry += xi * x(j);
                }
                rhs[i] += xi * target;
            }
        }
        for (i, row) in gram.iter_mut().enumerate() {
            row[i] += ridge;
        }
        solve(gram, rhs)
    }

    #[test]
    fn a_failed_refit_keeps_the_previous_coefficients() {
        let ramp: Vec<f64> = (0..20).map(f64::from).collect();
        let mut m = MultipleLinearRegression::with_ridge(1, 0.0).unwrap();
        m.fit(&ramp).unwrap();
        let fitted = m.coefficients().unwrap().to_vec();
        // A constant series makes `XᵀX` singular without a ridge term.
        assert_eq!(m.fit(&[4.0; 12]), Err(PredictError::SingularSystem));
        assert_eq!(m.coefficients(), Some(fitted.as_slice()));
    }

    proptest! {
        /// The flat-buffer `fit`, fresh and as a refit of a model fitted on
        /// another series, gives the nested-`Vec` fit's coefficients bit
        /// for bit (or its error).
        #[test]
        fn prop_flat_fit_matches_the_nested_fit(
            window in 1usize..9,
            series in collection::vec(-200.0_f64..200.0, 1..80),
            earlier in collection::vec(-200.0_f64..200.0, 10..40),
            ridge in 0.0_f64..1e-3,
        ) {
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut fresh = MultipleLinearRegression::with_ridge(window, ridge).unwrap();
            let mut refit = fresh.clone();
            let _ = refit.fit(&earlier);
            let expected = nested_fit(window, ridge, &series);
            for m in [&mut fresh, &mut refit] {
                match (m.fit(&series), &expected) {
                    (Ok(()), Ok(expected)) => {
                        prop_assert_eq!(bits(m.coefficients().unwrap()), bits(expected));
                    }
                    (fitted, expected) => {
                        prop_assert_eq!(fitted, expected.clone().map(|_| ()));
                    }
                }
            }
        }

        /// Accumulating the normal equations straight from the windows
        /// gives the oracle's coefficients bit for bit (or its error), on
        /// arbitrary series and on a slowly drifting, nearly collinear
        /// coolant-like series, the case the ridge term exists for.
        #[test]
        fn prop_fit_matches_the_dataset_oracle(
            window in 1usize..9,
            series in collection::vec(-200.0_f64..200.0, 1..80),
            ridge in 0.0_f64..1e-3,
            len in 1usize..60,
            phase in 0.0_f64..6.3,
            drift in -0.2_f64..0.2,
        ) {
            assert_fit_matches_oracle(window, ridge, &series);
            let smooth: Vec<f64> = (0..len)
                .map(|t| 92.0 + drift * t as f64 + 3.0 * (0.05 * t as f64 + phase).sin())
                .collect();
            assert_fit_matches_oracle(window, 1e-6, &smooth);
        }
    }

    #[test]
    fn coefficients_have_window_plus_one_entries() {
        let series: Vec<f64> = (0..30).map(|i| (i as f64).sqrt()).collect();
        let mut m = MultipleLinearRegression::new(6).unwrap();
        m.fit(&series).unwrap();
        assert_eq!(m.coefficients().unwrap().len(), 7);
    }
}
