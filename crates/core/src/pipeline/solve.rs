//! Solve stage: the iterative per-dimension driver (paper Algorithm 1).
//!
//! The engine owns the mutable scheduling state (live dependences,
//! committed rows, progression bases, band metadata) and walks one
//! dimension at a time:
//!
//! 1. the [`Strategy`] plans the dimension;
//! 2. [`objectives::assemble`] builds the dimension's ILP over the
//!    engine's **fixed** [`IlpSpace`], substituting into the cones of
//!    the [`FarkasCache`];
//! 3. [`polytops_math::ilp_lexmin`] solves it, from its own system
//!    alone: no point carries over from the previous dimension;
//! 4. infeasibility falls back to an SCC cut of the live dependence
//!    graph ([`polytops_deps::sccs_topological`]);
//! 5. after the last dimension, the [`postprocess`] stage applies the
//!    configured tiling/wavefront transformations.
//!
//! The variable layout is fixed per SCoP (dependence-variable columns
//! exist for *all* dependences, pinned to zero while unused): one
//! [`IlpSpace`] serves every dimension, and a column means the same
//! thing at any dimension.

use std::sync::Arc;

use polytops_deps::{analyze, sccs_topological, Certifier, Dependence};
use polytops_ir::{Schedule, Scop, StmtSchedule};
use polytops_math::{ilp_lexmin, Echelon, IlpStats};

use crate::config::{DirectiveKind, FusionHeuristic, SchedulerConfig};
use crate::error::ScheduleError;
use crate::pipeline::fastpath;
use crate::pipeline::legality::{CacheSession, FarkasCache};
use crate::pipeline::objectives::{self, expand_targets, DimensionContext};
use crate::pipeline::postprocess;
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Farkas lookups whose cone was resident in the cache.
    pub farkas_hits: usize,
    /// Farkas lookups that eliminated their dependence's cone.
    pub farkas_misses: usize,
    /// Scheduling dimensions emitted (including constant levels).
    pub dimensions: usize,
    /// Dimensions scheduled by the heuristic fast path (no ILP solve).
    pub fast_path_dims: usize,
    /// Dimensions where the fast path was attempted but could not
    /// produce a legal proposal, falling back to the ILP cascade.
    pub fast_path_fallbacks: usize,
    /// Aggregated ILP solver effort.
    pub ilp: IlpStats,
}

impl PipelineStats {
    /// Fraction of Farkas lookups answered from the cache (0 when no
    /// lookup happened).
    pub fn farkas_hit_rate(&self) -> f64 {
        let total = self.farkas_hits + self.farkas_misses;
        if total == 0 {
            0.0
        } else {
            self.farkas_hits as f64 / total as f64
        }
    }

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
    }
}

/// Runs the full staged pipeline for one SCoP and reports statistics.
///
/// # Errors
///
/// Same contract as [`crate::schedule`].
pub fn run(
    scop: &Scop,
    config: &SchedulerConfig,
    strategy: &mut dyn Strategy,
    options: &EngineOptions,
) -> Result<(Schedule, PipelineStats), ScheduleError> {
    Engine::new(scop, config, options.clone(), None, None).run(strategy)
}

/// [`run`] with externally owned dependence analysis and
/// [`FarkasCache`] — the entry point of the scenario engine. Every run
/// sharing `cache` reuses (instead of re-eliminating) the Farkas cones
/// computed by any earlier — or concurrent — run over the same SCoP,
/// whatever its configuration, and the exact dependence analysis
/// (itself a stack of integer feasibility tests, 6–28% of a run on the
/// reference kernels) is done once per SCoP instead of once per
/// scenario.
///
/// `deps` must be [`analyze`]\ `(scop)` — cache entries are keyed by
/// position in that vector — and the cache must have been created for
/// its length (`FarkasCache::new(deps.len())`); a mis-sized cache
/// is ignored and a private one used instead, so sharing can never
/// corrupt a run. Reported [`PipelineStats`] count only this run's
/// lookups.
///
/// # Errors
///
/// Same contract as [`crate::schedule`].
pub fn run_shared(
    scop: &Scop,
    config: &SchedulerConfig,
    strategy: &mut dyn Strategy,
    options: &EngineOptions,
    deps: Arc<Vec<Dependence>>,
    cache: Arc<FarkasCache>,
) -> Result<(Schedule, PipelineStats), ScheduleError> {
    Engine::new(scop, config, options.clone(), Some(deps), Some(cache)).run(strategy)
}

/// Mutable scheduling state threaded through the iterative algorithm.
struct Engine<'a> {
    scop: &'a Scop,
    config: &'a SchedulerConfig,
    options: EngineOptions,
    /// Fixed ILP variable layout shared by every dimension.
    space: IlpSpace,
    /// This run's session over the (possibly scenario-shared) Farkas
    /// cones, keyed by dependence id.
    cache: CacheSession,
    /// The SCoP's dependences, possibly shared across scenarios (the
    /// analysis is deterministic, so a shared vector equals what this
    /// run would compute).
    deps: Arc<Vec<Dependence>>,
    /// `live[e]`: dependence `e` has not been strongly satisfied yet.
    live: Vec<bool>,
    /// Band id of the dimension that carried dependence `e`, once
    /// carried. A dependence carried *inside* the currently open band
    /// keeps contributing legality constraints (`Δ ≥ 0`) until the band
    /// closes, which is what makes emitted bands permutable (tilable).
    carried_band: Vec<Option<usize>>,
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
        scop: &'a Scop,
        config: &'a SchedulerConfig,
        options: EngineOptions,
        deps: Option<Arc<Vec<Dependence>>>,
        shared: Option<Arc<FarkasCache>>,
    ) -> Engine<'a> {
        let nstmts = scop.statements.len();
        let deps = deps
            .filter(|d| d.iter().all(|d| d.src.0 < nstmts && d.dst.0 < nstmts))
            .unwrap_or_else(|| Arc::new(analyze(scop)));
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
        let cache = shared
            .filter(|c| c.num_deps() == deps.len())
            .unwrap_or_else(|| Arc::new(FarkasCache::new(deps.len())));
        Engine {
            scop,
            config,
            options,
            space,
            cache: CacheSession::new(cache),
            live: vec![true; deps.len()],
            carried_band: vec![None; deps.len()],
            deps,
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

    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn live_deps(&self) -> Vec<(usize, &Dependence)> {
        self.deps
            .iter()
            .enumerate()
            .zip(&self.live)
            .filter_map(|((e, d), &l)| l.then_some((e, d)))
            .collect()
    }

    /// Live dependences plus those carried inside the currently open
    /// band — the set whose legality the next dimension must preserve.
    fn legality_deps(&self) -> Vec<(usize, &Dependence)> {
        self.deps
            .iter()
            .enumerate()
            .filter(|&(e, _)| self.live[e] || self.carried_band[e] == Some(self.band_id))
            .collect()
    }

    /// Whether some dependence was carried inside the currently open band.
    fn has_in_band_carried(&self) -> bool {
        self.carried_band.contains(&Some(self.band_id))
    }

    fn run(
        mut self,
        strategy: &mut dyn Strategy,
    ) -> Result<(Schedule, PipelineStats), ScheduleError> {
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
        // tests and the post-processing stage ask the same dependences.
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
        self.finalize(oracle, stats)
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

    /// Builds and solves the ILP of one dimension. `Ok(None)` means the
    /// space is infeasible (caller decides whether to cut or fail); a
    /// solver overflow proves nothing of the kind and is
    /// [`ScheduleError::Math`].
    fn solve_ilp(
        &self,
        oracle: &mut Certifier<'_>,
        plan: &DimensionPlan,
        in_band_legality: bool,
        stats: &mut PipelineStats,
    ) -> Result<Option<DimSolution>, ScheduleError> {
        let live = self.live_deps();
        let legality = if in_band_legality {
            self.legality_deps()
        } else {
            live.clone()
        };
        let ctx = DimensionContext {
            scop: self.scop,
            config: self.config,
            space: &self.space,
            cache: &self.cache,
            legality: &legality,
            live: &live,
            basis: &self.basis,
        };
        let (sys, objectives) = {
            let _span = polytops_obs::span("objectives");
            objectives::assemble(&ctx, plan)?
        };

        let point = {
            let _span = polytops_obs::span("ilp_solve");
            ilp_lexmin(&sys, &objectives, &mut stats.ilp)?
        };
        let Some(point) = point else {
            return Ok(None);
        };

        let rows: Vec<Vec<i64>> = (0..self.scop.statements.len())
            .map(|s| self.space.extract_row(&point, s))
            .collect();
        let constant = self
            .scop
            .statements
            .iter()
            .enumerate()
            .all(|(s, stmt)| rows[s][..stmt.depth()].iter().all(|&c| c == 0));
        // Parallel iff no live dependence has a nonzero distance on this
        // dimension (vacuously true without live dependences).
        let parallel = live
            .iter()
            .all(|&(e, dep)| oracle.zero_distance(e, &rows[dep.src.0], &rows[dep.dst.0]));
        Ok(Some(DimSolution {
            rows,
            parallel,
            constant,
        }))
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
            self.deps
                .iter()
                .zip(&self.live)
                .filter(|(_, &l)| l)
                .map(|(d, _)| (d.src.0, d.dst.0)),
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
        for (s, stmt) in self.scop.statements.iter().enumerate() {
            let row = solution.rows[s].clone();
            if !solution.constant {
                self.basis[s].insert(&row[..stmt.depth()])?;
            }
            self.rows[s].push(row);
        }
        // Retire strongly satisfied dependences, remembering the band
        // that carried them (constant dimensions get their own band id).
        let dim_band = if solution.constant {
            self.band_id + 1
        } else {
            self.band_id
        };
        for (e, dep) in self.deps.iter().enumerate() {
            if self.live[e]
                && oracle.strongly_satisfies(
                    e,
                    &solution.rows[dep.src.0],
                    &solution.rows[dep.dst.0],
                )
            {
                self.live[e] = false;
                self.carried_band[e] = Some(dim_band);
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
    /// dimension of the 2d+1 form), assembles the final [`Schedule`] and
    /// runs the post-processing stage on it.
    fn finalize(
        mut self,
        oracle: &mut Certifier<'_>,
        mut stats: PipelineStats,
    ) -> Result<(Schedule, PipelineStats), ScheduleError> {
        let nstmts = self.scop.statements.len();
        let mut rounds = 0usize;
        while self
            .deps
            .iter()
            .zip(&self.live)
            .any(|(d, &l)| l && d.src != d.dst)
        {
            if rounds > nstmts {
                return Err(ScheduleError::DimensionBudgetExceeded);
            }
            rounds += 1;
            let order = sccs_topological(
                nstmts,
                self.deps
                    .iter()
                    .zip(&self.live)
                    .filter(|(d, &l)| l && d.src != d.dst)
                    .map(|(d, _)| (d.src.0, d.dst.0)),
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

        let np = self.scop.nparams();
        let mut per_stmt = Vec::with_capacity(nstmts);
        for (s, stmt) in self.scop.statements.iter().enumerate() {
            let mut ss = StmtSchedule::new(stmt.depth(), np);
            for row in &self.rows[s] {
                ss.push_row(row.clone());
            }
            per_stmt.push(ss);
        }
        let mut sched = Schedule::from_parts(per_stmt, self.bands.clone(), self.parallel.clone());

        // Post-processing stage: lowers the schedule to its tree form
        // and applies tiling, wavefront skewing, intra-tile
        // vectorization and vectorize marks as tree-to-tree transforms,
        // each verified against the dependence oracle before being
        // committed.
        {
            let _span = polytops_obs::span("postprocess");
            postprocess::apply(oracle, &mut sched, self.config);
        }

        stats.dimensions = sched.dims();
        stats.farkas_hits = self.cache.hits();
        stats.farkas_misses = self.cache.misses();
        Ok((sched, stats))
    }
}
