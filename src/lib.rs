//! Umbrella crate re-exporting the PolyTOPS public API.
//!
//! PolyTOPS is a reconfigurable polyhedral scheduler: it takes a SCoP
//! (built with [`ScopBuilder`] or parsed from the textual exchange format
//! with [`parse_scop`]) plus a [`SchedulerConfig`] and produces a legal
//! affine [`Schedule`] via [`schedule`].
//!
//! The implementation lives in focused workspace crates, all re-exported
//! here:
//!
//! * [`math`](polytops_math) — exact rational/integer math kernel;
//! * [`ir`](polytops_ir) — SCoPs, schedules, builders, the exchange format;
//! * [`deps`](polytops_deps) — dependence analysis and legality oracles;
//! * [`core`](polytops_core) — configurations, cost functions, the
//!   iterative scheduling driver, the parallel scenario engine and the
//!   machine-driven autotuner ([`tune`]);
//! * [`codegen`] — schedule-tree code generation and schedule printing;
//! * [`machine`] — machine models and the static performance model
//!   ([`machine::model`]) the autotuner scores schedules with;
//! * [`workloads`] — reference polyhedral kernels, the standard
//!   scenario sweep ([`workloads::sweep`]) and the service
//!   request-stream generator ([`workloads::requests`]);
//! * [`server`] — `polytopsd`, the batching scheduler daemon over the
//!   scenario engine, with its wire protocol and client
//!   (see `docs/SERVICE.md`).
//!
//! # Example
//!
//! ```
//! use polytops::{schedule, SchedulerConfig, ScopBuilder, Aff, StmtId};
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

pub use polytops_codegen as codegen;
pub use polytops_machine as machine;
pub use polytops_server as server;
pub use polytops_workloads as workloads;

pub use polytops_core::{
    json, presets, registry, scenario, schedule, schedule_with_options, schedule_with_strategy,
    tune, ConfigStrategy, CostFn, DimMap, DimSolution, DimensionPlan, Directive, DirectiveKind,
    EngineOptions, FarkasCache, FusionControl, FusionHeuristic, IlpSpace, MachineModel,
    PipelineStats, PostProcess, Reaction, RegistryStats, ScenarioReport, ScenarioResult,
    ScenarioSet, ScheduleError, SchedulerConfig, ScopEntry, ScopRegistry, Strategy, StrategyState,
};
pub use polytops_deps::{
    analyze, dependence_sccs, order_steps, steps_respect_dependence, Certifier, DepKind,
    Dependence, OrderStep,
};
pub use polytops_ir::{
    parse_scop, print_scop, Aff, AffineExpr, ArrayId, ArrayInfo, BandMember, MarkKind, MemberTerm,
    PathStep, Schedule, ScheduleTree, Scop, ScopBuilder, Statement, StmtId, StmtSchedule,
    Subscript, TreeNode,
};
pub use polytops_math::{
    farkas_nonneg, ilp_feasible, ilp_lexmin, ilp_minimize, lp_minimize, ConstraintSystem,
    IlpOutcome, IlpStats, LpOutcome, Rat, RowKind,
};
