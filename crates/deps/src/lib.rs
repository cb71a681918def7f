//! Polyhedral dependence analysis for PolyTOPS (a miniature Candl).
//!
//! [`analyze`] extracts one convex [`Dependence`] per conflicting access
//! pair and per dependence level (carried levels plus the
//! loop-independent level), each backed by an exact integer-feasibility
//! test. A [`Certifier`] answers the satisfaction questions the
//! iterative scheduler asks at every dimension
//! ([`Certifier::strongly_satisfies`], [`Certifier::zero_distance`],
//! [`Certifier::respects`]) and is the independent legality oracle of a
//! whole schedule ([`Certifier::certifies`],
//! [`Certifier::schedule_respects`]). It answers families of such
//! questions about one set of dependences, each question on a copy of
//! the tableau [`analyze`] solved for its dependence. A schedule tree
//! is certified by the walk over its flat rows and by post-processing's
//! permutability proof; the order of the tree itself is checked only by
//! the tests' from-scratch reference (`tests/reference`).
//!
//! # Example
//!
//! ```
//! use polytops_ir::{Aff, ScopBuilder};
//! use polytops_deps::{analyze, Certifier};
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
//! let mut oracle = Certifier::new(&deps);
//! assert!((0..deps.len()).all(|e| oracle.strongly_satisfies(e, &[1, 0, 0], &[1, 0, 0])));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod graph;
mod satisfy;

pub use analysis::{analyze, common_loops, polyhedron_classes, DepKind, Dependence};
pub use graph::{dependence_sccs, sccs_topological};
pub use satisfy::{distance_row, Certifier, CertifierStats};
