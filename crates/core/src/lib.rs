//! The PolyTOPS iterative scheduler core.
//!
//! This crate turns a [`polytops_ir::Scop`] plus a [`SchedulerConfig`]
//! into a legal [`polytops_ir::Schedule`], dimension by dimension
//! (paper Algorithm 1):
//!
//! * [`config`] — the compiled configuration and the JSON interface of
//!   the paper's Listing 2;
//! * [`strategy`] — dynamic strategies, the Rust analogue of the C++
//!   interface (Listing 3);
//! * [`space`] — the fixed ILP variable layout of a SCoP;
//! * [`costfn`] — Farkas templates plus the predefined cost functions
//!   (proximity, Feautrier, contiguity, big-loops-first, user variables);
//! * [`constraints`] — the custom-constraint mini-language (§III-A2);
//! * [`pipeline`] — the staged driver (legality → objectives → solve →
//!   postprocess), with its cached Farkas cones and one lexmin per dimension;
//! * [`scenario`] — the scenario engine: N (SCoP × config) jobs over
//!   SCoP slots, each a [`ScopEntry`] whose one Farkas cache its jobs
//!   share, executing on a work-stealing thread pool (the paper's
//!   per-scenario reconfiguration loop);
//! * [`registry`] — the cross-request persistence layer of the
//!   `polytopsd` service: SCoPs deduped by canonical fingerprint, their
//!   dependence analyses and Farkas caches kept resident under an LRU
//!   bound;
//! * [`tune`] — the autotuner: synthesizes a machine-derived lattice of
//!   configurations, runs it through the scenario engine and picks the
//!   winner under the static performance model
//!   (`polytops_machine::model`);
//! * [`scheduler`] — the stable entry points over the pipeline;
//! * [`json`] — the in-tree JSON parser behind
//!   [`SchedulerConfig::from_json`] and the benchmark reports;
//! * [`presets`] — ready-made Pluto/Pluto+/Feautrier/isl-style configs;
//! * [`error`] — the error type shared by every stage.
//!
//! # Example
//!
//! ```
//! use polytops_core::{schedule, SchedulerConfig};
//! use polytops_ir::{Aff, ScopBuilder, StmtId};
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
//! let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
//! assert_eq!(sched.stmt(StmtId(0)).rows()[0], vec![1, 0, 0]); // φ = i
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod constraints;
pub mod costfn;
pub mod error;
pub mod json;
pub mod pipeline;
pub mod presets;
pub mod registry;
pub mod scenario;
pub mod scheduler;
pub mod space;
pub mod strategy;
pub mod tune;

pub use config::{
    CostFn, DimMap, Directive, DirectiveKind, FusionControl, FusionHeuristic, PostProcess,
    SchedulerConfig,
};
pub use error::ScheduleError;
pub use pipeline::{CacheSession, EngineOptions, FarkasCache, PipelineStats};
pub use registry::{RegistryStats, ScopEntry, ScopRegistry};
pub use scenario::{winner, winner_by, Scenario, ScenarioReport, ScenarioResult, ScenarioSet};
pub use scheduler::{schedule, schedule_with_options, schedule_with_strategy};
pub use space::{IlpSpace, StmtBlock};
pub use strategy::{ConfigStrategy, DimSolution, DimensionPlan, Reaction, Strategy, StrategyState};
pub use tune::{explore, MachineModel, TuneBudget, TuneOutcome};
