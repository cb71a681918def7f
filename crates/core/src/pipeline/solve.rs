//! Solve stage: the iterative per-dimension driver (paper Algorithm 1).
//!
//! [`run_shared`] is the one entry point: every schedule — a lone
//! [`crate::schedule`] call, a scenario-set solve group, an autotune
//! candidate — runs on a [`ScopEntry`], which owns the SCoP, its
//! dependence analysis and its Farkas cache. The engine borrows those
//! and owns only the mutable scheduling state (live dependences,
//! committed rows, progression bases, band metadata), walking one
//! dimension at a time:
//!
//! 1. the [`Strategy`] plans the dimension;
//! 2. [`objectives::assemble`] builds the dimension's ILP over the
//!    engine's **fixed** [`IlpSpace`], substituting into the cones of
//!    the [`FarkasCache`](crate::pipeline::legality::FarkasCache), from
//!    the dimension's [`IlpKey`] alone;
//! 3. [`polytops_math::ilp_lexmin`] solves it, from its own system
//!    alone: no point carries over from the previous dimension. In a
//!    scenario-set run, a key another solve group of the same SCoP
//!    already answered is taken from the run's [`DimMemo`] instead of
//!    being assembled and solved again;
//! 4. infeasibility falls back to an SCC cut of the live dependence
//!    graph ([`polytops_deps::sccs_topological`]);
//! 5. after the last dimension, the [`postprocess`] stage applies the
//!    configured tiling/wavefront transformations — once per
//!    configuration of a solve group ([`run_shared`]), each to its own
//!    copy of the solved schedule.
//!
//! The variable layout is fixed per SCoP (dependence-variable columns
//! exist for *all* dependences, pinned to zero while unused): one
//! [`IlpSpace`] serves every dimension, and a column means the same
//! thing at any dimension.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use polytops_deps::{sccs_topological, Certifier, Dependence};
use polytops_ir::{Schedule, Scop, StmtSchedule};
use polytops_math::{ilp_lexmin, Echelon, IlpStats};

use crate::config::{DirectiveKind, FusionHeuristic, SchedulerConfig};
use crate::error::ScheduleError;
use crate::pipeline::fastpath;
use crate::pipeline::legality::CacheSession;
use crate::pipeline::objectives::{self, expand_targets, DimensionContext, IlpKey};
use crate::pipeline::postprocess;
use crate::registry::ScopEntry;
use crate::space::IlpSpace;
use crate::strategy::{DimSolution, DimensionPlan, Reaction, Strategy, StrategyState};

/// Hard cap on strategy-driven recomputations of one dimension.
const MAX_RECOMPUTE: usize = 3;

/// Per-run engine options.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Observability context: when set, the run binds this link on its
    /// executing thread and records pipeline/dimension/solver spans
    /// under it. `None` (the default) makes every span call inert —
    /// tracing can never perturb a schedule, only watch it.
    pub trace: Option<polytops_obs::SpanLink>,
}

/// Counters describing one scheduling run.
///
/// In a solve group ([`run_shared`]) only the first member's counters
/// describe the solve. Every later member reports zero solver effort —
/// no Farkas lookups, no fast-path dimensions, a default [`IlpStats`] —
/// and only the [`dimensions`](Self::dimensions) of its own schedule, so
/// sums over a scenario set count each solve once. A dimension ILP that
/// another solve group of the run answered ([`DimMemo`]) counts in
/// [`ilp_dims`](Self::ilp_dims) and [`shared_dims`](Self::shared_dims)
/// only: which group solves a shared ILP and which takes its answer may
/// vary under concurrency, but `ilp_dims` does not.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Farkas lookups whose cone was resident in the cache.
    pub farkas_hits: usize,
    /// Farkas lookups that eliminated their polyhedron's cone.
    pub farkas_misses: usize,
    /// Scheduling dimensions emitted (including constant levels).
    pub dimensions: usize,
    /// Dimensions scheduled by the heuristic fast path (no ILP solve).
    pub fast_path_dims: usize,
    /// Dimensions where the fast path was attempted but could not
    /// produce a legal proposal, falling back to the ILP cascade.
    pub fast_path_fallbacks: usize,
    /// Dimension ILPs asked (recomputations and band-closing retries
    /// included), whether solved by this run or shared.
    pub ilp_dims: usize,
    /// Dimension ILPs answered by another solve group's solve in the
    /// same scenario-set run: neither assembled nor solved here.
    pub shared_dims: usize,
    /// Aggregated ILP solver effort.
    pub ilp: IlpStats,
}

impl PipelineStats {
    /// Folds this run's counters into a recorder's `solver.*` counters
    /// — the single accumulation path shared by the daemon's `stats`
    /// op, the tuner and the benches (replacing the per-layer counter
    /// structs that used to mirror these fields).
    pub fn accumulate_into(&self, recorder: &polytops_obs::Recorder) {
        recorder
            .counter("solver.dual_pivots")
            .add(self.ilp.dual_pivots as u64);
        recorder
            .counter("solver.phase1_passes")
            .add(self.ilp.phase1_passes as u64);
        recorder
            .counter("solver.fast_path_dims")
            .add(self.fast_path_dims as u64);
        recorder
            .counter("solver.fast_path_fallbacks")
            .add(self.fast_path_fallbacks as u64);
        recorder
            .counter("solver.dimensions")
            .add(self.dimensions as u64);
        recorder
            .counter("solver.farkas_hits")
            .add(self.farkas_hits as u64);
        recorder
            .counter("solver.farkas_misses")
            .add(self.farkas_misses as u64);
        recorder
            .counter("solver.shared_dims")
            .add(self.shared_dims as u64);
    }
}

/// Runs the staged pipeline on `entry`'s SCoP for a group of
/// configurations that differ only in post-processing: the engine's one
/// entry point, under [`crate::schedule`] and the scenario engine alike.
///
/// The group solves once, under `configs[0]`: post-processing does not
/// shape the ILPs, so every member's solve would be the same. Each
/// member then post-processes its own copy of the solved schedule, in
/// order, through the run's one dependence oracle and carried-at
/// record. The result has one entry per configuration. The first
/// reports the run's solver and Farkas counters; the others did no
/// solving and report only the [`dimensions`](PipelineStats::dimensions)
/// of their own schedule. An empty group solves nothing.
///
/// The run reads the entry's dependence analysis and looks up its cones
/// in the entry's [`FarkasCache`](crate::pipeline::legality::FarkasCache):
/// every run on one entry reuses
/// (instead of re-eliminating) the cones any earlier — or concurrent —
/// run eliminated, whatever its configuration. Reported
/// [`PipelineStats`] count only this run's lookups.
///
/// A `memo` shared with other groups over the same SCoP answers every
/// dimension ILP one of them already solved (and keeps this group's
/// answers for them); the answer is a function of the dimension's
/// [`IlpKey`], so sharing it changes no schedule.
///
/// # Errors
///
/// Same contract as [`crate::schedule`]; a failed solve fails the whole
/// group. A directive naming a statement the SCoP does not have fails
/// it with [`ScheduleError::Config`] before the first dimension.
pub fn run_shared(
    entry: &ScopEntry,
    configs: &[&SchedulerConfig],
    strategy: &mut dyn Strategy,
    options: &EngineOptions,
    memo: Option<Arc<DimMemo>>,
) -> Result<Vec<(Schedule, PipelineStats)>, ScheduleError> {
    let Some(&config) = configs.first() else {
        return Ok(Vec::new());
    };
    debug_assert!(
        configs.iter().all(|c| c.solve_key() == config.solve_key()),
        "a solve group's configurations differ only in post-processing"
    );
    check_directive_stmts(config, entry.scop().statements.len())?;
    Engine::new(entry, config, options.clone(), memo).run(strategy, configs)
}

/// Refuses a directive whose `stmts` names a statement past the SCoP's
/// last: every stage indexes statements by those ids. (Directives are in
/// the solve key, so the group's first configuration speaks for all.) An
/// `iterator` past a target's depth is not an error: directives are
/// soft, and each stage skips that statement.
fn check_directive_stmts(config: &SchedulerConfig, nstmts: usize) -> Result<(), ScheduleError> {
    for (i, d) in config.directives.iter().enumerate() {
        if let Some(&s) = d.stmts.iter().flatten().find(|&&s| s >= nstmts) {
            return Err(ScheduleError::Config {
                detail: format!(
                    "directives[{i}].stmts names statement {s}, but the SCoP has {nstmts}"
                ),
            });
        }
    }
    Ok(())
}

/// The dimension answers of one scenario-set run's solve groups over
/// one SCoP slot (and trace): the first group to ask an [`IlpKey`]
/// solves it, and every later or concurrent group that asks it takes the
/// answer, an infeasible one included. Errors are not kept, and a
/// racing duplicate solve adds nothing. The scenario engine builds one
/// only for a slot with two solve groups or more and drops it when the
/// run returns.
#[derive(Debug, Default)]
pub struct DimMemo {
    answers: Mutex<Vec<(IlpKey<'static>, Option<DimSolution>)>>,
}

impl DimMemo {
    /// The answer kept for `key`, if some group solved it.
    fn get(&self, key: &IlpKey<'_>) -> Option<Option<DimSolution>> {
        let answers = self.answers.lock().expect("dimension memo lock");
        answers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, answer)| answer.clone())
    }

    /// Keeps `answer` for `key` unless a racing group kept it first.
    fn insert(&self, key: IlpKey<'_>, answer: &Option<DimSolution>) {
        let mut answers = self.answers.lock().expect("dimension memo lock");
        if !answers.iter().any(|(k, _)| *k == key) {
            answers.push((key.into_owned(), answer.clone()));
        }
    }
}

/// Assembles and solves one dimension's ILP and reads its flags. It
/// reads nothing but `ctx` (its key and the SCoP-fixed data) and the
/// oracle over the same dependences, so the answer is a function of the
/// key: what lets [`DimMemo`] share it.
fn answer_key(
    ctx: &DimensionContext<'_>,
    oracle: &mut Certifier<'_>,
    stats: &mut IlpStats,
) -> Result<Option<DimSolution>, ScheduleError> {
    let (sys, objectives) = {
        let _span = polytops_obs::span("objectives");
        objectives::assemble(ctx)?
    };
    let point = {
        let _span = polytops_obs::span("ilp_solve");
        ilp_lexmin(&sys, &objectives, stats)?
    };
    let Some(point) = point else {
        return Ok(None);
    };
    let rows: Vec<Vec<i64>> = (0..ctx.scop.statements.len())
        .map(|s| ctx.space.extract_row(&point, s))
        .collect();
    let constant = ctx
        .scop
        .statements
        .iter()
        .enumerate()
        .all(|(s, stmt)| rows[s][..stmt.depth()].iter().all(|&c| c == 0));
    // Parallel iff no live dependence has a nonzero distance on this
    // dimension (vacuously true without live dependences).
    let parallel = ctx
        .live()
        .all(|(e, dep)| oracle.zero_distance(e, &rows[dep.src.0], &rows[dep.dst.0]));
    Ok(Some(DimSolution {
        rows,
        parallel,
        constant,
    }))
}

/// Mutable scheduling state threaded through the iterative algorithm.
struct Engine<'a> {
    scop: &'a Scop,
    /// The configuration's ILP-shaping part
    /// ([`SchedulerConfig::ilp_key`]): the strategy reads the rest.
    config: SchedulerConfig,
    options: EngineOptions,
    /// Fixed ILP variable layout shared by every dimension.
    space: IlpSpace,
    /// This run's session over the entry's (possibly scenario-shared)
    /// Farkas cones, keyed by dependence id.
    cache: CacheSession,
    /// The entry's dependences.
    deps: Arc<Vec<Dependence>>,
    /// The run's dimension answers, shared with the other solve groups
    /// of the SCoP (see [`run_shared`]).
    memo: Option<Arc<DimMemo>>,
    /// The flat dimension whose row first strongly satisfied (carried)
    /// dependence `e`; `None` while `e` is live. A dependence carried
    /// *inside* the currently open band (`bands[d]`) keeps contributing
    /// legality constraints (`Δ ≥ 0`) until the band closes, which is
    /// what makes emitted bands permutable (tilable). Post-processing
    /// reads the dependences live at a band's entry from it.
    carried_at: Vec<Option<usize>>,
    /// `rows[stmt][dim]`: committed schedule rows `[T_it, T_par, T_cst]`.
    rows: Vec<Vec<Vec<i64>>>,
    /// Per-statement echelon form of the committed iterator rows: its
    /// rank is how many independent rows the statement has.
    basis: Vec<Echelon>,
    /// Per-dimension band id and parallelism flag.
    bands: Vec<usize>,
    parallel: Vec<bool>,
    band_id: usize,
}

impl<'a> Engine<'a> {
    fn new(
        entry: &'a ScopEntry,
        config: &SchedulerConfig,
        options: EngineOptions,
        memo: Option<Arc<DimMemo>>,
    ) -> Engine<'a> {
        let (scop, deps) = (entry.scop(), entry.deps());
        let nstmts = scop.statements.len();
        // One layout for the whole SCoP: dependence-satisfaction columns
        // exist for every dependence (unused columns are pinned to
        // zero), built once instead of once a dimension.
        let space = IlpSpace::new(
            scop,
            config.new_variables.clone(),
            deps.len(),
            config.negative_coefficients,
            config.parametric_shift,
        );
        Engine {
            scop,
            config: config.ilp_key(),
            options,
            space,
            cache: CacheSession::new(entry.cache()),
            carried_at: vec![None; deps.len()],
            deps,
            memo,
            rows: vec![Vec::new(); nstmts],
            basis: scop
                .statements
                .iter()
                .map(|s| Echelon::new(s.depth()))
                .collect(),
            bands: Vec::new(),
            parallel: Vec::new(),
            band_id: 0,
        }
    }

    fn ranks(&self) -> Vec<usize> {
        self.basis.iter().map(Echelon::rank).collect()
    }

    fn complete(&self) -> bool {
        self.scop
            .statements
            .iter()
            .zip(&self.basis)
            .all(|(s, b)| b.rank() == s.depth())
    }

    /// Whether dependence `e` has not been strongly satisfied yet.
    fn is_live(&self, e: usize) -> bool {
        self.carried_at[e].is_none()
    }

    /// Whether dependence `e` was carried inside the currently open band.
    fn carried_in_band(&self, e: usize) -> bool {
        self.carried_at[e].is_some_and(|d| self.bands[d] == self.band_id)
    }

    fn live_count(&self) -> usize {
        (0..self.deps.len()).filter(|&e| self.is_live(e)).count()
    }

    fn live_deps(&self) -> Vec<(usize, &Dependence)> {
        self.deps
            .iter()
            .enumerate()
            .filter(|&(e, _)| self.is_live(e))
            .collect()
    }

    /// Live dependences plus those carried inside the currently open
    /// band — the set whose legality the next dimension must preserve.
    fn legality_deps(&self) -> Vec<(usize, &Dependence)> {
        self.deps
            .iter()
            .enumerate()
            .filter(|&(e, _)| self.is_live(e) || self.carried_in_band(e))
            .collect()
    }

    /// Whether some dependence was carried inside the currently open band.
    fn has_in_band_carried(&self) -> bool {
        (0..self.deps.len()).any(|e| self.carried_in_band(e))
    }

    /// Solves every dimension, then post-processes one copy of the
    /// schedule per configuration in `posts` (see [`run_shared`]).
    fn run(
        mut self,
        strategy: &mut dyn Strategy,
        posts: &[&SchedulerConfig],
    ) -> Result<Vec<(Schedule, PipelineStats)>, ScheduleError> {
        // Bind the caller's span context for the duration of the run:
        // every scoped span below (and in the stages this thread calls
        // into — objectives, simplex, postprocess) nests under it.
        let _ctx = self.options.trace.clone().map(|link| link.bind());
        let _pipeline = polytops_obs::span("pipeline");
        let max_depth = self.scop.max_depth();
        let nstmts = self.scop.statements.len();
        // Every dimension either grows a statement's rank or is a
        // distribution level; this budget is generous for both.
        let budget = 2 * (max_depth + nstmts) + 8;
        let mut stats = PipelineStats::default();
        // One oracle for the run: every dimension's carried / parallel
        // tests and every configuration's post-processing ask the same
        // dependences.
        let deps = Arc::clone(&self.deps);
        let oracle = &mut Certifier::new(&deps);
        let mut dim = 0usize;
        while !self.complete() {
            if dim >= budget {
                return Err(ScheduleError::DimensionBudgetExceeded);
            }
            let _dim_span = polytops_obs::span_arg("dimension", dim as i64);
            let ranks = self.ranks();
            let mut plan = strategy.plan(&StrategyState {
                dimension: dim,
                band: self.band_id,
                rows_so_far: &self.rows,
                parallel_so_far: &self.parallel,
                live_deps: self.live_count(),
                ranks: &ranks,
                recompute_count: 0,
            });
            let mut recompute = 0usize;
            loop {
                let (solution, band_break) =
                    self.solve_dimension(oracle, &plan, dim, &mut stats)?;
                let ranks = self.ranks();
                let state = StrategyState {
                    dimension: dim,
                    band: self.band_id,
                    rows_so_far: &self.rows,
                    parallel_so_far: &self.parallel,
                    live_deps: self.live_count(),
                    ranks: &ranks,
                    recompute_count: recompute,
                };
                match strategy.react(&state, &solution) {
                    Reaction::Recompute(next) if recompute < MAX_RECOMPUTE => {
                        plan = next;
                        recompute += 1;
                    }
                    _ => {
                        self.commit(oracle, &solution, band_break)?;
                        break;
                    }
                }
            }
            dim += 1;
        }
        self.finalize(oracle)?;
        stats.farkas_hits = self.cache.hits();
        stats.farkas_misses = self.cache.misses();
        Ok(self.postprocess(oracle, stats, posts))
    }

    // -----------------------------------------------------------------
    // One dimension.
    // -----------------------------------------------------------------

    /// Solves one dimension. The second component of the result is the
    /// *band break* flag: the dimension was only feasible after closing
    /// the current permutable band (dropping the legality constraints of
    /// dependences carried inside it).
    fn solve_dimension(
        &self,
        oracle: &mut Certifier<'_>,
        plan: &DimensionPlan,
        dim: usize,
        stats: &mut PipelineStats,
    ) -> Result<(DimSolution, bool), ScheduleError> {
        if let Some(groups) = &plan.distribute {
            return Ok((self.distribute(groups, true)?, false));
        }
        // Heuristic fast path: propose per-statement permutation/shift
        // rows directly from the dependence structure and validate them
        // with the exact legality check — no lexmin solve. Only plain
        // dimensions qualify: anything that shapes the ILP beyond
        // legality (custom constraints, user variables, directives)
        // needs the real cascade to be honored.
        if self.config.heuristic_fast_path
            && plan.extra_constraints.is_empty()
            && self.config.new_variables.is_empty()
            && self.config.directives.is_empty()
        {
            let legality = self.legality_deps();
            let live = self.live_deps();
            let proposed = {
                let _span = polytops_obs::span("fast_path");
                fastpath::propose(
                    oracle,
                    self.scop,
                    &self.basis,
                    &legality,
                    &live,
                    self.config.constant_bound,
                )
            };
            if let Some(solution) = proposed {
                stats.fast_path_dims += 1;
                return Ok((solution, false));
            }
            stats.fast_path_fallbacks += 1;
        }
        if let Some(solution) = self.solve_ilp(oracle, plan, true, stats)? {
            return Ok((solution, false));
        }
        // The band's permutability constraints may be what blocks the
        // dimension: close the band and retry with live legality only.
        if self.has_in_band_carried() {
            if let Some(solution) = self.solve_ilp(oracle, plan, false, stats)? {
                return Ok((solution, true));
            }
        }
        // Infeasible ILP. Custom constraints are the only *user* input
        // that can legitimately empty the space (paper §III-D) — but
        // blame them only if the dimension is solvable without them.
        if !plan.extra_constraints.is_empty() {
            let unconstrained = DimensionPlan {
                distribute: None,
                cost_functions: plan.cost_functions.clone(),
                extra_constraints: Vec::new(),
            };
            if self
                .solve_ilp(oracle, &unconstrained, false, stats)?
                .is_some()
            {
                return Err(ScheduleError::InfeasibleCustomConstraints { dimension: dim });
            }
        }
        // Otherwise fall back to cutting the live dependence graph
        // (Algorithm 1, UnfuseSCCs).
        let groups = self.scc_groups(dim)?;
        Ok((self.distribute(&groups, false)?, false))
    }

    /// Answers the ILP of one dimension: from the run's [`DimMemo`]
    /// when another solve group already solved its [`IlpKey`], else by
    /// [`answer_key`]. `Ok(None)` means the space is infeasible (caller
    /// decides whether to cut or fail); a solver overflow proves nothing
    /// of the kind and is [`ScheduleError::Math`].
    fn solve_ilp(
        &self,
        oracle: &mut Certifier<'_>,
        plan: &DimensionPlan,
        in_band_legality: bool,
        stats: &mut PipelineStats,
    ) -> Result<Option<DimSolution>, ScheduleError> {
        let ids = |deps: Vec<(usize, &Dependence)>| -> Vec<usize> {
            deps.into_iter().map(|(e, _)| e).collect()
        };
        let live = ids(self.live_deps());
        let legality = if in_band_legality {
            ids(self.legality_deps())
        } else {
            live.clone()
        };
        let key = IlpKey {
            config: Cow::Borrowed(&self.config),
            cost_functions: Cow::Borrowed(&plan.cost_functions),
            extra_constraints: Cow::Borrowed(&plan.extra_constraints),
            legality,
            live,
            rows: Cow::Borrowed(&self.rows),
        };
        stats.ilp_dims += 1;
        if let Some(answer) = self.memo.as_ref().and_then(|memo| memo.get(&key)) {
            stats.shared_dims += 1;
            return Ok(answer);
        }
        let ctx = DimensionContext {
            scop: self.scop,
            deps: &self.deps,
            space: &self.space,
            cache: &self.cache,
            basis: &self.basis,
            key: &key,
        };
        let answer = answer_key(&ctx, oracle, &mut stats.ilp)?;
        if let Some(memo) = &self.memo {
            memo.insert(key, &answer);
        }
        Ok(answer)
    }

    /// Emits a constant (splitting) dimension placing each fusion group
    /// at its index. `user` marks user-driven distribution, which is the
    /// only kind allowed to fail legality.
    fn distribute(&self, groups: &[Vec<usize>], user: bool) -> Result<DimSolution, ScheduleError> {
        let nstmts = self.scop.statements.len();
        let mut group_of: Vec<Option<usize>> = vec![None; nstmts];
        let mut next = 0usize;
        if groups.is_empty() {
            // Total distribution: every statement alone, textual order.
            for (s, g) in group_of.iter_mut().enumerate() {
                *g = Some(s);
            }
        } else {
            for (gi, group) in groups.iter().enumerate() {
                for &s in group {
                    if s >= nstmts {
                        return Err(ScheduleError::IllegalFusion {
                            detail: format!("statement {s} out of range in fusion group"),
                        });
                    }
                    if group_of[s].is_some() {
                        return Err(ScheduleError::IllegalFusion {
                            detail: format!("statement {s} listed in two fusion groups"),
                        });
                    }
                    group_of[s] = Some(gi);
                }
                next = gi + 1;
            }
            // Unlisted statements trail in textual order, one group each.
            for g in group_of.iter_mut() {
                if g.is_none() {
                    *g = Some(next);
                    next += 1;
                }
            }
        }
        let values: Vec<i64> = group_of
            .iter()
            .map(|g| g.expect("every statement grouped") as i64)
            .collect();
        let rows = self.constant_rows(&values);
        // Constant rows must still respect every live dependence.
        for (_, dep) in self.live_deps() {
            let src = values[dep.src.0];
            let dst = values[dep.dst.0];
            if dst < src {
                if user {
                    return Err(ScheduleError::IllegalFusion {
                        detail: format!(
                            "distribution places S{} (group {dst}) before its \
                             dependence source S{} (group {src})",
                            dep.dst.0, dep.src.0
                        ),
                    });
                }
                // Algorithm-driven cuts come from a topological SCC
                // order, so this cannot happen.
                unreachable!("SCC cut violated a dependence");
            }
        }
        Ok(DimSolution {
            rows,
            parallel: false,
            constant: true,
        })
    }

    /// Groups statements by live-dependence SCCs for an
    /// infeasibility-driven cut.
    ///
    /// The fusion heuristic only *merges* adjacent SCCs when doing so
    /// keeps a real cut: if heuristic merging collapses everything into
    /// one group (SmartFuse on equal-depth SCCs, or MaxFuse), the cut is
    /// mandatory — the ILP was infeasible — so we degrade to one group
    /// per SCC rather than fail.
    fn scc_groups(&self, dim: usize) -> Result<Vec<Vec<usize>>, ScheduleError> {
        let nstmts = self.scop.statements.len();
        let sccs = sccs_topological(
            nstmts,
            self.live_deps().iter().map(|(_, d)| (d.src.0, d.dst.0)),
        );
        if sccs.len() <= 1 {
            // Nothing to cut: the dimension is genuinely unschedulable.
            return Err(ScheduleError::UnschedulableDimension { dimension: dim });
        }
        let merged: Vec<Vec<usize>> = match self.config.fusion_heuristic {
            FusionHeuristic::NoFuse | FusionHeuristic::MaxFuse => sccs.clone(),
            FusionHeuristic::SmartFuse => {
                // Merge consecutive SCCs of equal dimensionality
                // (Pluto's smartfuse keeps same-depth nests together).
                let mut out: Vec<Vec<usize>> = Vec::new();
                let mut last_dim: Option<usize> = None;
                for scc in sccs.iter().cloned() {
                    let d = scc
                        .iter()
                        .map(|&s| self.scop.statements[s].depth())
                        .max()
                        .unwrap_or(0);
                    match (last_dim, out.last_mut()) {
                        (Some(ld), Some(cur)) if ld == d => cur.extend(scc),
                        _ => out.push(scc),
                    }
                    last_dim = Some(d);
                }
                out
            }
        };
        Ok(if merged.len() > 1 { merged } else { sccs })
    }

    // -----------------------------------------------------------------
    // Committing and finishing.
    // -----------------------------------------------------------------

    /// Commits a dimension's rows. A row joins its statement's basis
    /// when it is independent of the rows there; an overflow of that
    /// test is [`ScheduleError::Math`].
    fn commit(
        &mut self,
        oracle: &mut Certifier<'_>,
        solution: &DimSolution,
        band_break: bool,
    ) -> Result<(), ScheduleError> {
        if band_break && !solution.constant {
            // The dimension was solved with the previous band closed.
            self.band_id += 1;
        }
        let dim = self.bands.len();
        for (s, stmt) in self.scop.statements.iter().enumerate() {
            let row = solution.rows[s].clone();
            if !solution.constant {
                self.basis[s].insert(&row[..stmt.depth()])?;
            }
            self.rows[s].push(row);
        }
        // Retire strongly satisfied dependences, remembering the
        // dimension that carried them (its band id is pushed below;
        // constant dimensions get their own).
        let dim_band = if solution.constant {
            self.band_id + 1
        } else {
            self.band_id
        };
        for (e, dep) in self.deps.iter().enumerate() {
            if self.carried_at[e].is_none()
                && oracle.strongly_satisfies(
                    e,
                    &solution.rows[dep.src.0],
                    &solution.rows[dep.dst.0],
                )
            {
                self.carried_at[e] = Some(dim);
            }
        }
        // Bands: constant dimensions split permutable bands.
        let parallel = solution.parallel && !self.sequential_override(solution);
        if solution.constant {
            self.bands.push(dim_band);
            self.band_id += 2;
            self.parallel.push(false);
        } else {
            self.bands.push(dim_band);
            self.parallel.push(parallel);
        }
        Ok(())
    }

    /// Whether a `sequential` directive forbids marking this dimension
    /// parallel (the row schedules the directive's iterator).
    fn sequential_override(&self, solution: &DimSolution) -> bool {
        let nstmts = self.scop.statements.len();
        self.config
            .directives
            .iter()
            .filter(|d| d.kind == DirectiveKind::Sequential)
            .any(|d| {
                expand_targets(d.stmts.as_ref(), nstmts).iter().any(|&s| {
                    let stmt = &self.scop.statements[s];
                    d.iterator < stmt.depth() && solution.rows[s][d.iterator] != 0
                })
            })
    }

    /// One constant (splitting) row per statement, placing statement `s`
    /// at position `values[s]`, over its `(iters, params, 1)` columns.
    fn constant_rows(&self, values: &[i64]) -> Vec<Vec<i64>> {
        let np = self.scop.nparams();
        self.scop
            .statements
            .iter()
            .zip(values)
            .map(|(stmt, &v)| {
                let mut row = vec![0i64; stmt.depth() + np + 1];
                row[stmt.depth() + np] = v;
                row
            })
            .collect()
    }

    /// Orders any remaining live dependences with constant rows (the β
    /// dimension of the 2d+1 form), completing the solved rows.
    fn finalize(&mut self, oracle: &mut Certifier<'_>) -> Result<(), ScheduleError> {
        let nstmts = self.scop.statements.len();
        let mut rounds = 0usize;
        while self.live_deps().iter().any(|(_, d)| d.src != d.dst) {
            if rounds > nstmts {
                return Err(ScheduleError::DimensionBudgetExceeded);
            }
            rounds += 1;
            let order = sccs_topological(
                nstmts,
                self.live_deps()
                    .iter()
                    .filter(|(_, d)| d.src != d.dst)
                    .map(|(_, d)| (d.src.0, d.dst.0)),
            );
            let mut values = vec![0i64; nstmts];
            for (gi, scc) in order.iter().enumerate() {
                for &s in scc {
                    values[s] = gi as i64;
                }
            }
            let rows = self.constant_rows(&values);
            self.commit(
                oracle,
                &DimSolution {
                    rows,
                    parallel: false,
                    constant: true,
                },
                false,
            )?;
        }
        // If the SCoP has no statements or no dimensions at all, emit a
        // single constant dimension so downstream consumers always see a
        // total order.
        if nstmts > 0 && self.rows[0].is_empty() {
            let values: Vec<i64> = self.scop.statements.iter().map(|s| s.beta[0]).collect();
            let rows = self.constant_rows(&values);
            self.commit(
                oracle,
                &DimSolution {
                    rows,
                    parallel: false,
                    constant: true,
                },
                false,
            )?;
        }
        Ok(())
    }

    /// The solved [`Schedule`], assembled from the committed rows.
    fn schedule(&self) -> Schedule {
        let nstmts = self.scop.statements.len();
        let np = self.scop.nparams();
        let mut per_stmt = Vec::with_capacity(nstmts);
        for (s, stmt) in self.scop.statements.iter().enumerate() {
            let mut ss = StmtSchedule::new(stmt.depth(), np);
            for row in &self.rows[s] {
                ss.push_row(row.clone());
            }
            per_stmt.push(ss);
        }
        Schedule::from_parts(per_stmt, self.bands.clone(), self.parallel.clone())
    }

    /// The post-processing stage, once per configuration: builds its own
    /// copy of the solved schedule (its tree the lowering of the rows)
    /// and applies tiling, wavefront skewing, intra-tile vectorization
    /// and vectorize marks as tree-to-tree transforms, each proved
    /// against the dependence oracle before being committed. The first
    /// copy carries the run's solver counters, the others only their own
    /// dimension count.
    fn postprocess(
        &self,
        oracle: &mut Certifier<'_>,
        stats: PipelineStats,
        posts: &[&SchedulerConfig],
    ) -> Vec<(Schedule, PipelineStats)> {
        let mut out = Vec::with_capacity(posts.len());
        for (i, config) in posts.iter().enumerate() {
            let sched = {
                let _span = polytops_obs::span("postprocess");
                let mut sched = self.schedule();
                postprocess::apply(oracle, &mut sched, config, &self.carried_at);
                sched
            };
            let solver = if i == 0 {
                stats
            } else {
                PipelineStats::default()
            };
            let stats = PipelineStats {
                dimensions: sched.dims(),
                ..solver
            };
            out.push((sched, stats));
        }
        out
    }
}
