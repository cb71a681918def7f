//! The staged scheduling pipeline.
//!
//! The monolithic per-dimension driver is split into four explicit
//! stages, mirroring how Tiramisu and the performance-vocabulary line of
//! work separate schedule *search* from schedule *application*:
//!
//! ```text
//! legality ──► objectives ──► solve ──► postprocess ──► (codegen)
//! ```
//!
//! * [`legality`] — the Farkas cone of each dependence, eliminated once
//!   and kept in a [`FarkasCache`]; validity, proximity and Feautrier
//!   rows are substituted into it at every dimension — and, because the
//!   cache is `Send + Sync`, `Arc`-shareable and knows nothing of the
//!   ILP layout, at every *scenario* re-scheduling the same SCoP under
//!   any configuration (see [`crate::scenario`]);
//! * [`objectives`] — assembly of one dimension's ILP (progression,
//!   bounds, layered cost functions, custom constraints, directives,
//!   tie-break) over the engine's fixed [`IlpSpace`](crate::IlpSpace);
//! * [`solve`] — the iterative driver: one self-contained lexicographic
//!   ILP solve per dimension, with SCC-cut fallback, producing rows plus
//!   band metadata;
//!   with [`SchedulerConfig::heuristic_fast_path`](crate::SchedulerConfig)
//!   set, a fusion + dimension-matching heuristic (`fastpath`) proposes
//!   each dimension from the dependence structure first and only falls
//!   back to the ILP when validation fails;
//! * [`postprocess`] — the solver's schedule lowered to an explicit
//!   schedule tree, then tiling, wavefront skewing and intra-tile
//!   vectorization applied as certified tree-to-tree rewrites.
//!
//! Code generation (the tree-walking backend) lives in
//! `polytops_codegen`, downstream of this module.

pub(crate) mod fastpath;
pub mod legality;
pub mod objectives;
pub mod postprocess;
pub mod solve;

pub use legality::{CacheSession, FarkasCache};
pub use solve::{EngineOptions, PipelineStats};
