//! Error types for the math crate.

use std::error::Error;
use std::fmt;

/// Errors produced by exact arithmetic and polyhedral operations.
///
/// All operations in this crate are exact; the only failure modes are
/// arithmetic overflow of the fixed-width integer representation and
/// the simplex's pivot cap.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// An intermediate value exceeded the `i64`/`i128` representation.
    Overflow,
    /// Division by zero in rational arithmetic.
    DivisionByZero,
    /// The dual simplex reached its pivot cap: the system is neither
    /// proven feasible nor infeasible.
    PivotLimit,
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::Overflow => write!(f, "integer overflow in exact arithmetic"),
            MathError::DivisionByZero => write!(f, "division by zero"),
            MathError::PivotLimit => write!(f, "dual simplex reached its pivot cap"),
        }
    }
}

impl Error for MathError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MathError>;
