//! Exact mathematical foundations for the PolyTOPS polyhedral scheduler.
//!
//! This crate provides everything the scheduler stack needs and nothing
//! more, implemented from scratch with **exact** arithmetic:
//!
//! * [`Rat`] — rational numbers over `i128`, the values an LP reports;
//! * [`Echelon`] — the one exact rank test, a fraction-free row echelon
//!   form grown one row at a time, with the Pluto-style
//!   [`orthogonal_complement`] of the progression constraint and the
//!   [`integral_inverse`] of code generation built on it;
//! * [`ConstraintSystem`] — affine equality/inequality systems with exact,
//!   integer-tightening Fourier–Motzkin elimination;
//! * [`lp_minimize`] — exact simplex on an integer tableau (a dual
//!   phase 1 from the slack basis, a primal phase 2; one `i64`
//!   denominator per row; overflow is an error);
//! * [`ilp_minimize`] / [`ilp_lexmin`] / [`ilp_feasible`] — branch-and-
//!   bound ILP with the lexicographic minimization that drives schedule
//!   coefficient selection (one lexmin, its effort in [`IlpStats`]);
//! * [`farkas_nonneg`] — the affine form of Farkas' lemma, which turns
//!   "this affine form is non-negative on that dependence polyhedron"
//!   into linear constraints over schedule coefficients, through an
//!   irredundant [`farkas_cone`] per polyhedron.
//!
//! # Example: a miniature scheduling legality check
//!
//! ```
//! use polytops_math::{farkas_nonneg, ilp_lexmin, ConstraintSystem, IlpStats};
//!
//! // Dependence polyhedron for S(i) -> R(i), 0 <= i <= 9 (same i).
//! let mut dep = ConstraintSystem::new(2); // (i_S, i_R)
//! dep.add_eq(vec![1, -1, 0]);
//! dep.add_ineq(vec![1, 0, 0]);
//! dep.add_ineq(vec![-1, 0, 9]);
//!
//! // Schedule coefficients y = (t_S, t_R): require t_R*i_R - t_S*i_S >= 0.
//! let template = vec![
//!     vec![-1, 0, 0], // coeff of i_S: -t_S
//!     vec![0, 1, 0],  // coeff of i_R:  t_R
//!     vec![0, 0, 0],  // constant: 0
//! ];
//! let mut legal = farkas_nonneg(&dep, &template, 2).unwrap();
//! // Bound the coefficients and ask for the lexicographically smallest
//! // non-trivial solution.
//! legal.add_ineq(vec![1, 0, 0]);  // t_S >= 0
//! legal.add_ineq(vec![0, 1, 0]);  // t_R >= 0
//! legal.add_ineq(vec![1, 1, -1]); // t_S + t_R >= 1
//! let objectives = [vec![1, 1], vec![1, 0]];
//! let sol = ilp_lexmin(&legal, &objectives, &mut IlpStats::default()).unwrap();
//! assert_eq!(sol, Some(vec![0, 1]));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod consys;
mod error;
mod farkas;
mod ilp;
mod matrix;
mod num;
mod rat;
mod simplex;

/// The instrumentation crate the solver records into, for the crates
/// above this one that ask it questions and count them.
pub use polytops_obs as obs;

pub use consys::{ConstraintSystem, RowKind};
pub use error::{MathError, Result};
pub use farkas::{farkas_cone, farkas_nonneg, farkas_substitute};
pub use ilp::{
    ilp_feasible, ilp_feasible_point, ilp_lexmin, ilp_minimize, ineq_implied, IlpOutcome, IlpStats,
};
pub use matrix::{integral_inverse, orthogonal_complement, Echelon};
pub use num::{ceil_div, floor_div, gcd, gcd_slice, lcm, modulo, narrow};
pub use rat::Rat;
pub use simplex::{lp_feasible, lp_minimize, IncrementalLp, LpOutcome, Snapshot};
