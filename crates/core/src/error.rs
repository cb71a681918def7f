//! Scheduler error types.

use std::error::Error;
use std::fmt;

/// Errors produced by the PolyTOPS scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A user fusion/distribution specification violates a dependence
    /// (paper §III-D: only custom constraints and fusion control can make
    /// the problem infeasible).
    IllegalFusion {
        /// Human-readable explanation.
        detail: String,
    },
    /// User custom constraints made every dimension infeasible.
    InfeasibleCustomConstraints {
        /// The scheduling dimension that could not be computed.
        dimension: usize,
    },
    /// A custom constraint string could not be parsed.
    ConstraintSyntax {
        /// The offending constraint text.
        text: String,
        /// What went wrong.
        detail: String,
    },
    /// The JSON configuration was malformed.
    Config {
        /// What went wrong.
        detail: String,
    },
    /// Internal exact-arithmetic failure (overflow).
    Math(polytops_math::MathError),
    /// A dimension's ILP was infeasible and the live dependence graph
    /// had nothing left to cut — indicates an internal modeling bug.
    UnschedulableDimension {
        /// The scheduling dimension that could not be computed.
        dimension: usize,
    },
    /// The scheduler exceeded its dimension budget without completing —
    /// indicates an internal bug; reported rather than looping forever.
    DimensionBudgetExceeded,
    /// The solved rows order some dependence backwards by the
    /// independent dependence oracle — indicates an internal bug; a
    /// schedule that fails the oracle never leaves the engine.
    Uncertified,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::IllegalFusion { detail } => {
                write!(f, "illegal fusion/distribution specification: {detail}")
            }
            ScheduleError::InfeasibleCustomConstraints { dimension } => write!(
                f,
                "custom constraints make scheduling dimension {dimension} infeasible"
            ),
            ScheduleError::ConstraintSyntax { text, detail } => {
                write!(f, "cannot parse constraint `{text}`: {detail}")
            }
            ScheduleError::Config { detail } => write!(f, "bad configuration: {detail}"),
            ScheduleError::Math(e) => write!(f, "arithmetic failure: {e}"),
            ScheduleError::UnschedulableDimension { dimension } => write!(
                f,
                "scheduling dimension {dimension} is unschedulable: the live \
                 dependence graph cannot be cut further"
            ),
            ScheduleError::DimensionBudgetExceeded => {
                write!(f, "scheduler exceeded its dimension budget")
            }
            ScheduleError::Uncertified => {
                write!(f, "internal error: schedule failed oracle certification")
            }
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<polytops_math::MathError> for ScheduleError {
    fn from(e: polytops_math::MathError) -> ScheduleError {
        ScheduleError::Math(e)
    }
}
