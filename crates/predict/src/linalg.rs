//! Minimal dense linear algebra used by the MLR predictor.
//!
//! Only the handful of operations the normal equations need are provided:
//! building `XᵀX` / `Xᵀy` and solving a small symmetric positive-definite
//! system by Gaussian elimination with partial pivoting.  The systems involved
//! have the size of the regression window (a handful of unknowns), so no
//! attention is paid to cache blocking or SIMD.

use crate::error::PredictError;

/// Solves the linear system `A·x = b` by Gaussian elimination with partial
/// pivoting, consuming the inputs.
///
/// # Errors
///
/// Returns [`PredictError::DimensionMismatch`] if `A` is not square or its
/// size disagrees with `b`, and [`PredictError::SingularSystem`] if a pivot
/// collapses to (numerical) zero.
///
/// # Examples
///
/// ```
/// use teg_predict::linalg::solve;
///
/// # fn main() -> Result<(), teg_predict::PredictError> {
/// let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
/// let b = vec![3.0, 5.0];
/// let x = solve(a, b)?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, PredictError> {
    let n = a.len();
    if b.len() != n {
        return Err(PredictError::DimensionMismatch {
            left: n,
            right: b.len(),
        });
    }
    for row in &a {
        if row.len() != n {
            return Err(PredictError::DimensionMismatch {
                left: n,
                right: row.len(),
            });
        }
    }
    let mut flat = a.concat();
    solve_in_place(&mut flat, &mut b)?;
    Ok(b)
}

/// [`solve`] on a row-major `n × n` matrix `a` with `n = b.len()`: the same
/// pivots and the same operations in the same order, so the same bits, with
/// no allocation.  Both `a` and `b` are overwritten; on success `b` holds
/// the solution `x`.
///
/// # Errors
///
/// Returns [`PredictError::DimensionMismatch`] if `a.len() != b.len()²` and
/// [`PredictError::SingularSystem`] if a pivot collapses to (numerical)
/// zero.
// Gaussian elimination over parallel row/column tables reads clearest with
// explicit indices.
#[allow(clippy::needless_range_loop)]
pub fn solve_in_place(a: &mut [f64], b: &mut [f64]) -> Result<(), PredictError> {
    let n = b.len();
    if a.len() != n * n {
        return Err(PredictError::DimensionMismatch {
            left: n * n,
            right: a.len(),
        });
    }
    for col in 0..n {
        // Partial pivoting: bring the largest remaining entry to the diagonal.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i * n + col]
                    .abs()
                    .partial_cmp(&a[j * n + col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if a[pivot_row * n + col].abs() < 1e-12 {
            return Err(PredictError::SingularSystem);
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }

        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution; `b[col]` already holds `x[col]` for every
    // `col > row`.
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row * n + col] * b[col];
        }
        b[row] = acc / a[row * n + row];
    }
    Ok(())
}

/// Computes `XᵀX + λI` for a design matrix stored row-wise.
///
/// The ridge term `λ` keeps the normal equations well conditioned when the
/// window columns are nearly collinear (as they are for a slowly varying
/// temperature signal).
#[must_use]
pub fn gram_matrix(design: &[Vec<f64>], ridge: f64) -> Vec<Vec<f64>> {
    let cols = design.first().map_or(0, Vec::len);
    let mut out = vec![vec![0.0; cols]; cols];
    for row in design {
        for i in 0..cols {
            for j in 0..cols {
                out[i][j] += row[i] * row[j];
            }
        }
    }
    for (i, row) in out.iter_mut().enumerate() {
        row[i] += ridge;
    }
    out
}

/// Computes `Xᵀy` for a design matrix stored row-wise.
///
/// # Panics
///
/// Panics if the number of design rows differs from the number of targets.
#[must_use]
pub fn design_times_targets(design: &[Vec<f64>], targets: &[f64]) -> Vec<f64> {
    assert_eq!(
        design.len(),
        targets.len(),
        "design and target row counts differ"
    );
    let cols = design.first().map_or(0, Vec::len);
    let mut out = vec![0.0; cols];
    for (row, &y) in design.iter().zip(targets.iter()) {
        for (i, &x) in row.iter().enumerate() {
            out[i] += x * y;
        }
    }
    out
}

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solves_identity_system() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let b = vec![4.0, -2.0, 7.5];
        let x = solve(a, b.clone()).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // The first pivot is zero, forcing a row swap.
        let a = vec![vec![0.0, 1.0], vec![2.0, 1.0]];
        let b = vec![3.0, 7.0];
        let x = solve(a, b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular_and_mismatched_systems() {
        let singular = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(
            solve(singular, vec![1.0, 2.0]).unwrap_err(),
            PredictError::SingularSystem
        );
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(matches!(
            solve(a, vec![1.0]).unwrap_err(),
            PredictError::DimensionMismatch { .. }
        ));
        let ragged = vec![vec![1.0, 0.0], vec![0.0]];
        assert!(matches!(
            solve(ragged, vec![1.0, 2.0]).unwrap_err(),
            PredictError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn gram_matrix_is_symmetric_with_ridge_on_diagonal() {
        let design = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let g = gram_matrix(&design, 0.5);
        assert_eq!(g.len(), 2);
        assert!((g[0][1] - g[1][0]).abs() < 1e-12);
        // Diagonal entries include the ridge.
        assert!((g[0][0] - (1.0 + 9.0 + 25.0 + 0.5)).abs() < 1e-12);
        assert!((g[1][1] - (4.0 + 16.0 + 36.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn design_times_targets_matches_hand_computation() {
        let design = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let y = vec![10.0, 20.0];
        let v = design_times_targets(&design, &y);
        assert_eq!(v, vec![1.0 * 10.0 + 3.0 * 20.0, 2.0 * 10.0 + 4.0 * 20.0]);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// The nested-`Vec` elimination `solve` ran before it moved onto one
    /// flat buffer, kept as the oracle of [`solve_in_place`].
    #[allow(clippy::needless_range_loop)]
    fn nested_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, PredictError> {
        let n = a.len();
        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&i, &j| {
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty range");
            if a[pivot_row][col].abs() < 1e-12 {
                return Err(PredictError::SingularSystem);
            }
            a.swap(col, pivot_row);
            b.swap(col, pivot_row);
            let pivot = a[col][col];
            for row in (col + 1)..n {
                let factor = a[row][col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row][k] -= factor * a[col][k];
                }
                b[row] -= factor * b[col];
            }
        }
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for col in (row + 1)..n {
                acc -= a[row][col] * x[col];
            }
            x[row] = acc / a[row][row];
        }
        Ok(x)
    }

    #[test]
    fn solve_in_place_rejects_a_non_square_buffer() {
        assert!(matches!(
            solve_in_place(&mut [1.0, 0.0, 0.0], &mut [1.0, 2.0]),
            Err(PredictError::DimensionMismatch { left: 4, right: 3 })
        ));
    }

    proptest! {
        /// The flat elimination returns the nested one's solution bit for
        /// bit (or its error) on arbitrary systems, where pivoting swaps
        /// rows, and on systems with repeated rows and zero columns, where
        /// pivots tie or collapse.
        #[test]
        fn prop_flat_solve_matches_the_nested_solve(
            n in 1usize..8,
            entries in proptest::collection::vec(-50.0_f64..50.0, 64),
            rhs in proptest::collection::vec(-50.0_f64..50.0, 8),
            degenerate in 0u64..u64::MAX,
        ) {
            let mut a: Vec<Vec<f64>> = (0..n)
                .map(|i| entries[i * 8..i * 8 + n].to_vec())
                .collect();
            if degenerate % 3 == 1 && n > 1 {
                a[n - 1] = a[0].clone();
            } else if degenerate % 3 == 2 {
                for row in &mut a {
                    row[(degenerate as usize / 3) % n] = 0.0;
                }
            }
            let b = rhs[..n].to_vec();
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let expected = nested_solve(a.clone(), b.clone()).map(bits);
            let (mut flat, mut x) = (a.concat(), b);
            let solved = solve_in_place(&mut flat, &mut x).map(|()| bits(x));
            prop_assert_eq!(solved, expected);
        }

        /// Solving `A·x = A·x0` recovers `x0` for well conditioned diagonally
        /// dominant matrices.
        #[test]
        fn prop_solve_round_trips(
            x0 in proptest::collection::vec(-10.0_f64..10.0, 1..6),
            seeds in proptest::collection::vec(-1.0_f64..1.0, 36),
        ) {
            let n = x0.len();
            // Build a diagonally dominant matrix from the seed values.
            let mut a = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    a[i][j] = seeds[(i * 6 + j) % seeds.len()];
                }
                a[i][i] = 10.0 + a[i][i].abs();
            }
            let b: Vec<f64> = (0..n).map(|i| dot(&a[i], &x0)).collect();
            let x = solve(a, b).unwrap();
            for (got, want) in x.iter().zip(x0.iter()) {
                prop_assert!((got - want).abs() < 1e-6);
            }
        }
    }
}
