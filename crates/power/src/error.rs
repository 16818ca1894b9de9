//! Error type for the power-electronics substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the charger model.
///
/// # Examples
///
/// ```
/// use teg_power::PowerError;
///
/// let err = PowerError::InvalidParameter { name: "efficiency", value: 1.4 };
/// assert!(err.to_string().contains("efficiency"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PowerError {
    /// A constructor argument was outside its physical range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter {name}")
            }
        }
    }
}

impl Error for PowerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_implements_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<PowerError>();
    }
}
