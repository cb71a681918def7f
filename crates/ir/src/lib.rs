//! Polyhedral intermediate representation for the PolyTOPS scheduler.
//!
//! A kernel is modelled as a [`Scop`] (static control part): statements
//! with polyhedral iteration domains, affine (or PolyMage-style div/mod)
//! array accesses, and 2d+1 textual positions. Two front doors produce
//! SCoPs:
//!
//! * [`ScopBuilder`] — programmatic construction mirroring source nesting;
//! * [`parse_scop`] / [`print_scop`] — a textual exchange format in the
//!   spirit of OpenScop, the form a host compiler hands SCoPs over in.
//!
//! Scheduling results are represented by [`Schedule`] (per-statement
//! affine rows plus band/parallelism metadata), shared by the scheduler,
//! the code generator and the machine models. Post-processing attaches
//! a structured [`ScheduleTree`] view (isl-style Band / Filter /
//! Sequence / Mark nodes, module [`tree`]) on which tiling, wavefront
//! skewing and vectorization are expressed as tree-to-tree transforms.
//!
//! # Example
//!
//! ```
//! use polytops_ir::{Aff, Schedule, ScopBuilder, StmtId};
//!
//! // for (i = 0; i < N; i++) A[i] = A[i] + 1;
//! let mut b = ScopBuilder::new("inc");
//! let n = b.param("N");
//! let a = b.array("A", &[n.clone()], 8);
//! b.open_loop("i", Aff::val(0), n - 1);
//! b.stmt("S0")
//!     .read(a, &[Aff::var("i")])
//!     .write(a, &[Aff::var("i")])
//!     .add(&mut b);
//! b.close_loop();
//! let scop = b.build().unwrap();
//!
//! let sched = Schedule::identity_2dp1(&scop);
//! assert_eq!(sched.timestamp(StmtId(0), &[5], &[10]), vec![0, 5, 0]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod expr;
mod openscop;
mod schedule;
mod scop;
pub mod tree;

pub use builder::{BuildError, ScopBuilder, StmtSpec, SubSpec};
pub use expr::{Aff, AffineExpr};
pub use openscop::{parse_scop, print_scop, ParseScopError};
pub use schedule::{Schedule, StmtSchedule};
pub use scop::{Access, AccessKind, ArrayId, ArrayInfo, Scop, Statement, StmtId, Subscript};
pub use tree::{
    instance_cmp_paths, BandMember, MarkKind, MemberTerm, PathStep, ScheduleTree, TreeNode,
};
