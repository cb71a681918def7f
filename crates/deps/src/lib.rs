//! Polyhedral dependence analysis for PolyTOPS (a miniature Candl).
//!
//! [`analyze`] extracts one convex [`Dependence`] per conflicting access
//! pair and per dependence level (carried levels plus the
//! loop-independent level), each backed by an exact integer-feasibility
//! test. [`strongly_satisfies`], [`zero_distance`] and [`respects`]
//! answer the satisfaction questions the iterative scheduler asks at
//! every dimension, and [`schedule_respects_dependence`] is the
//! independent legality oracle used by the test suite. Each is the
//! one-question form of a [`Certifier`], which answers families of such
//! questions about one set of dependences on one live tableau per
//! dependence.
//!
//! # Example
//!
//! ```
//! use polytops_ir::{Aff, ScopBuilder};
//! use polytops_deps::{analyze, strongly_satisfies};
//!
//! // for (i = 1; i < N; i++) A[i] = A[i-1];
//! let mut b = ScopBuilder::new("chain");
//! let n = b.param("N");
//! let a = b.array("A", &[n.clone()], 8);
//! b.open_loop("i", Aff::val(1), n - 1);
//! b.stmt("S0")
//!     .read(a, &[Aff::var("i") - 1])
//!     .write(a, &[Aff::var("i")])
//!     .add(&mut b);
//! b.close_loop();
//! let scop = b.build().unwrap();
//!
//! let deps = analyze(&scop);
//! // Scheduling φ = i carries every dependence of the chain.
//! assert!(deps.iter().all(|d| strongly_satisfies(d, &[1, 0, 0], &[1, 0, 0])));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod graph;
mod satisfy;

pub use analysis::{analyze, common_loops, DepKind, Dependence};
pub use graph::{dependence_sccs, sccs_topological};
pub use satisfy::{
    distance_row, order_steps, order_steps_with_nodes, respects, schedule_respects_dependence,
    step_coincident, steps_respect_dependence, strongly_satisfies, zero_distance, Certifier,
    CertifierStats, OrderStep, StepDelta, StepSystem, Walk,
};
