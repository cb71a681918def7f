//! The scenario engine: the paper's per-scenario reconfiguration loop
//! as a first-class, parallel API.
//!
//! PolyTOPS's headline workflow (paper Fig. 1) schedules the *same* SCoP
//! many times under different configurations — presets, cost-function
//! stacks, tile-size candidates — and picks a winner. Run naively that
//! loop repeats the most expensive constraint-construction work (the
//! Farkas eliminations of every dependence) once per configuration and
//! uses one core. This module turns the loop into an engine:
//!
//! * a [`ScenarioSet`] holds N (SCoP × configuration) jobs
//!   ([`Scenario`]) over a shared pool of SCoPs;
//! * jobs are **grouped by SCoP**, each group sharing one dependence
//!   analysis and one `Arc`-wrapped [`FarkasCache`]: the first scenario
//!   to need a dependence eliminates its cone, every later (or
//!   concurrent) scenario — under any configuration, a cone knows
//!   nothing of the ILP layout — substitutes into it;
//!   [`PipelineStats::farkas_hits`] of the later scenarios measure
//!   exactly this cross-scenario amortization;
//! * [`ScenarioSet::run_sharded`] executes the jobs on a work-stealing
//!   pool of scoped threads claiming jobs from an atomic index
//!   (`std::thread::scope` — the build environment has no registry
//!   access, so no rayon/crossbeam); a pool of one is the caller itself;
//! * with [`ScenarioSet::split_components`] enabled, a SCoP whose
//!   dependence graph falls into several weakly connected components is
//!   dispatched as one **sub-job per component** (the groups a
//!   distribution cut would isolate anyway), solved in parallel and
//!   stitched back under a leading constant distribution dimension;
//! * [`winner`]/[`winner_by`] select the best report by a score (a
//!   static cost heuristic by default, or any user oracle).
//!
//! # Determinism
//!
//! Sharded execution is **bit-identical** to sequential execution: a
//! resident cone equals what a recomputation would eliminate, so no
//! result depends on which thread finished first.
//! The lexmin is total over the schedule coefficients, so no seed or
//! pivot order picks between schedules; ILP warm-start seeds — which
//! *can* still steer the other variables of a point — never leave the
//! run that produced them. Only the
//! per-scenario cache hit/miss *split* may vary under concurrency;
//! every schedule is reproducible at any thread count.
//!
//! # Example
//!
//! ```
//! use polytops_core::scenario::{winner, ScenarioSet};
//! use polytops_core::presets;
//! use polytops_ir::{Aff, ScopBuilder};
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
//!
//! let mut set = ScenarioSet::new();
//! let scop = set.add_scop("chain", b.build().unwrap());
//! set.add_scenario(scop, "pluto", presets::pluto());
//! set.add_scenario(scop, "feautrier", presets::feautrier());
//!
//! let results = set.run_sharded(2);
//! let best = winner(&results).expect("both scenarios schedule");
//! assert_eq!(best.schedule.dims(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use polytops_deps::{analyze, Dependence};
use polytops_ir::{Schedule, ScheduleTree, Scop, StmtId, StmtSchedule, TreeNode};

use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::pipeline::legality::FarkasCache;
use crate::pipeline::solve::{self, EngineOptions, PipelineStats};
use crate::registry::ScopEntry;
use crate::strategy::ConfigStrategy;

/// One scheduling job: a SCoP (by index into its [`ScenarioSet`])
/// paired with a complete configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label, reported back in the [`ScenarioReport`].
    pub name: String,
    /// Index of the SCoP (as returned by [`ScenarioSet::add_scop`]).
    pub scop: usize,
    /// The configuration this scenario schedules under.
    pub config: SchedulerConfig,
    /// Pipeline feature toggles (warm start; the Farkas cache is always
    /// shared by the scenario engine regardless of this flag).
    pub options: EngineOptions,
}

/// A successfully scheduled scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Index of the scenario in its [`ScenarioSet`].
    pub scenario: usize,
    /// Scenario label.
    pub name: String,
    /// Index of the scheduled SCoP.
    pub scop: usize,
    /// Name of the scheduled SCoP.
    pub scop_name: String,
    /// The legal schedule found.
    pub schedule: Schedule,
    /// This run's pipeline statistics (for component-split scenarios,
    /// the sum over all component sub-jobs).
    pub stats: PipelineStats,
    /// How many solver jobs the scenario dispatched (1 for a whole-SCoP
    /// solve, the component count when split).
    pub sub_jobs: usize,
}

/// The outcome of one scenario: a report, or the scheduling error.
pub type ScenarioResult = Result<ScenarioReport, ScheduleError>;

/// A batch of scenarios over a shared pool of SCoPs.
///
/// Adding the same SCoP once and referencing it from many scenarios is
/// what enables cross-scenario Farkas-cache sharing — scenarios of
/// *different* SCoPs never share cache entries.
#[derive(Debug, Default)]
pub struct ScenarioSet {
    scops: Vec<(String, Scop)>,
    /// Registry entries backing a SCoP slot, when admitted via
    /// [`add_resident_scop`](ScenarioSet::add_resident_scop): their
    /// whole-SCoP dependence analysis and Farkas cache are used instead
    /// of per-run ones, which is what carries amortization across runs.
    resident: Vec<Option<Arc<ScopEntry>>>,
    scenarios: Vec<Scenario>,
    split_components: bool,
}

impl ScenarioSet {
    /// Creates an empty set.
    pub fn new() -> ScenarioSet {
        ScenarioSet::default()
    }

    /// Registers a SCoP and returns its index for
    /// [`add_scenario`](ScenarioSet::add_scenario).
    pub fn add_scop(&mut self, name: impl Into<String>, scop: Scop) -> usize {
        self.scops.push((name.into(), scop));
        self.resident.push(None);
        self.scops.len() - 1
    }

    /// Registers a registry-resident SCoP (the admission API of the
    /// `polytopsd` service): scenarios over this slot reuse the entry's
    /// persistent dependence analysis and Farkas cache
    /// instead of building fresh ones for this run, so a SCoP the
    /// registry has seen before pays only the ILP solves.
    ///
    /// The scheduled SCoP is the entry's *representative*
    /// ([`ScopEntry::scop`]), making answers bit-identical across every
    /// client that deduped onto the entry — and, because a resident cone
    /// equals a fresh one, bit-identical to a fresh offline
    /// [`add_scop`](ScenarioSet::add_scop) run of the same SCoP.
    pub fn add_resident_scop(&mut self, entry: Arc<ScopEntry>) -> usize {
        self.scops
            .push((entry.name().to_string(), entry.scop().clone()));
        self.resident.push(Some(entry));
        self.scops.len() - 1
    }

    /// Adds a scenario over a registered SCoP with default
    /// [`EngineOptions`] and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `scop` is not an index returned by
    /// [`add_scop`](ScenarioSet::add_scop).
    pub fn add_scenario(
        &mut self,
        scop: usize,
        name: impl Into<String>,
        config: SchedulerConfig,
    ) -> usize {
        self.add_scenario_with_options(scop, name, config, EngineOptions::default())
    }

    /// [`add_scenario`](ScenarioSet::add_scenario) with explicit engine
    /// options.
    ///
    /// # Panics
    ///
    /// Panics if `scop` is not an index returned by
    /// [`add_scop`](ScenarioSet::add_scop).
    pub fn add_scenario_with_options(
        &mut self,
        scop: usize,
        name: impl Into<String>,
        config: SchedulerConfig,
        options: EngineOptions,
    ) -> usize {
        assert!(scop < self.scops.len(), "unknown SCoP index {scop}");
        self.scenarios.push(Scenario {
            name: name.into(),
            scop,
            config,
            options,
        });
        self.scenarios.len() - 1
    }

    /// Enables or disables component splitting: scenarios whose SCoP's
    /// dependence graph has several weakly connected components — and
    /// whose configuration sets no fusion controls, directives, custom
    /// constraints (those reference global statement ids) or tile sizes
    /// (tiling decisions are taken per band over the whole SCoP) — are
    /// solved as one sub-job per component and
    /// stitched back together under a leading constant distribution
    /// dimension. Configurations that do set any of those keep their
    /// whole-SCoP solve even when splitting is enabled.
    ///
    /// This changes the *scenario*, not just its execution: the joint
    /// solve would schedule unrelated components into common loops,
    /// while the split scenario distributes them. Splitting is
    /// therefore an explicit axis of the sweep, off by default; split
    /// results remain deterministic and oracle-legal.
    pub fn split_components(&mut self, enabled: bool) {
        self.split_components = enabled;
    }

    /// The registered scenarios.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The registered SCoPs as `(name, scop)` pairs.
    pub fn scops(&self) -> &[(String, Scop)] {
        &self.scops
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Runs every scenario on the calling thread, in scenario order,
    /// with cross-scenario cache sharing. This is the sequential
    /// baseline [`run_sharded`](ScenarioSet::run_sharded) is benchmarked
    /// against — same work, one worker.
    pub fn run_sequential(&self) -> Vec<ScenarioResult> {
        let runner = Runner::new(self);
        let slots = runner.slots();
        for job in &runner.jobs() {
            runner.execute(job, &slots);
        }
        runner.assemble(slots)
    }

    /// Runs every scenario on a pool of `threads` workers claiming jobs
    /// from a shared index (work-stealing: a free worker takes the next
    /// job whatever its scenario), then assembles results in scenario
    /// order. `threads` is clamped to `1..=jobs`; a pool of one — a
    /// one-job set, or `threads == 1` — is the calling thread itself and
    /// spawns nothing.
    ///
    /// Results are bit-identical to
    /// [`run_sequential`](ScenarioSet::run_sequential) — see the module
    /// docs for why.
    pub fn run_sharded(&self, threads: usize) -> Vec<ScenarioResult> {
        let runner = Runner::new(self);
        let slots = runner.slots();
        let jobs = runner.jobs();
        let workers = threads.clamp(1, jobs.len().max(1));
        // Relaxed: the index publishes nothing. Jobs are read-only and
        // results reach the caller through the scope's join.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                runner.execute(job, &slots);
            }
        };
        if workers == 1 {
            work();
        } else {
            // The caller only waits: as worker 0 of a wider pool its
            // solver temporaries land in its own malloc arena, beside
            // the data it keeps, and `sweep_ilp` peaks at 10.0 MiB
            // where this peaks at 8.5.
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(work);
                }
            });
        }
        runner.assemble(slots)
    }
}

/// Selects the best successful report under [`default_score`], ties
/// resolved toward the earlier scenario.
pub fn winner(results: &[ScenarioResult]) -> Option<&ScenarioReport> {
    winner_by(results, default_score)
}

/// Selects the best successful report under a custom score (higher is
/// better — plug in a model-driven oracle here), ties resolved toward
/// the earlier scenario.
pub fn winner_by<F: Fn(&ScenarioReport) -> i64>(
    results: &[ScenarioResult],
    score: F,
) -> Option<&ScenarioReport> {
    let mut best: Option<(&ScenarioReport, i64)> = None;
    for r in results.iter().flatten() {
        let s = score(r);
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((r, s));
        }
    }
    best.map(|(r, _)| r)
}

/// The built-in scenario score: a static cost heuristic over the found
/// schedule.
///
/// Rewards, in decreasing weight: an outermost non-constant dimension
/// that is parallel (coarse-grain parallelism, worth the most), every
/// parallel dimension, the width of the widest permutable band
/// (tilability), and — negatively — the total dimension count (deep
/// schedules mean distribution and lost fusion).
pub fn default_score(report: &ScenarioReport) -> i64 {
    let sched = &report.schedule;
    let mut score = 0i64;
    let outer_loop = (0..sched.dims())
        .find(|&d| (0..sched.num_statements()).any(|s| !sched.stmt(StmtId(s)).row_is_constant(d)));
    if let Some(d) = outer_loop {
        if sched.parallel().get(d).copied().unwrap_or(false) {
            score += 1000;
        }
    }
    score += 100 * sched.parallel().iter().filter(|&&p| p).count() as i64;
    score += 10
        * sched
            .band_ranges()
            .into_iter()
            .map(|(a, b)| b - a)
            .max()
            .unwrap_or(0) as i64;
    score -= sched.dims() as i64;
    score
}

// ---------------------------------------------------------------------
// Execution internals.
// ---------------------------------------------------------------------

/// A dependence-closed statement group of one SCoP, with the sub-SCoP
/// it is solved as.
#[derive(Debug)]
struct ComponentPlan {
    /// Original statement ids, sorted ascending.
    stmts: Vec<usize>,
    /// The extracted sub-SCoP (statements re-numbered, everything else
    /// shared with the parent).
    scop: Scop,
}

/// A unit of work for the pool, carrying its shared dependence analysis
/// and Farkas cache.
enum Job {
    /// Solve a scenario's whole SCoP.
    Whole {
        scenario: usize,
        deps: Arc<Vec<Dependence>>,
        cache: Arc<FarkasCache>,
        /// When the job was enqueued, for the pool's queue-wait
        /// histogram (recorded only for traced scenarios).
        queued: Instant,
    },
    /// Solve one dependence component of a split scenario.
    Component {
        scenario: usize,
        comp: usize,
        deps: Arc<Vec<Dependence>>,
        cache: Arc<FarkasCache>,
        /// See [`Job::Whole::queued`].
        queued: Instant,
    },
}

type EngineOutcome = Result<(Schedule, PipelineStats), ScheduleError>;

/// Result slots, one per dispatched job. `OnceLock` gives each slot a
/// single writer (the worker that ran the job) without locks around the
/// result vectors themselves.
struct Slots {
    whole: Vec<OnceLock<EngineOutcome>>,
    comps: Vec<Vec<OnceLock<EngineOutcome>>>,
}

/// One `run_*` call's precomputed state: component decompositions and
/// the parent-SCoP analyses feeding them.
struct Runner<'a> {
    set: &'a ScenarioSet,
    /// Per SCoP: its weakly-connected dependence components, when there
    /// are at least two (computed only for SCoPs some scenario can
    /// actually split).
    comp_sets: Vec<Option<Vec<ComponentPlan>>>,
    /// Per scenario: whether it runs as component sub-jobs.
    split: Vec<bool>,
    /// Analyses already computed during decomposition, seeding
    /// [`Runner::jobs`] so no SCoP is analyzed twice per run.
    analyses: BTreeMap<(usize, Option<usize>), Arc<Vec<Dependence>>>,
}

impl<'a> Runner<'a> {
    fn new(set: &'a ScenarioSet) -> Runner<'a> {
        let mut analyses: BTreeMap<(usize, Option<usize>), Arc<Vec<Dependence>>> = BTreeMap::new();
        // Registry-resident SCoPs bring their persistent whole-SCoP
        // analysis with them — seed the map so nothing re-analyzes them.
        for (i, entry) in set.resident.iter().enumerate() {
            if let Some(entry) = entry {
                analyses.insert((i, None), entry.deps());
            }
        }
        let comp_sets: Vec<Option<Vec<ComponentPlan>>> = set
            .scops
            .iter()
            .enumerate()
            .map(|(i, (_, scop))| {
                let wanted = set.split_components
                    && set
                        .scenarios
                        .iter()
                        .any(|sc| sc.scop == i && config_splittable(&sc.config));
                if !wanted {
                    return None;
                }
                let deps = Arc::clone(
                    analyses
                        .entry((i, None))
                        .or_insert_with(|| Arc::new(analyze(scop))),
                );
                components_of(scop, &deps)
            })
            .collect();
        let split: Vec<bool> = set
            .scenarios
            .iter()
            .map(|sc| comp_sets[sc.scop].is_some() && config_splittable(&sc.config))
            .collect();
        Runner {
            set,
            comp_sets,
            split,
            analyses,
        }
    }

    fn slots(&self) -> Slots {
        Slots {
            whole: self.set.scenarios.iter().map(|_| OnceLock::new()).collect(),
            comps: self
                .set
                .scenarios
                .iter()
                .enumerate()
                .map(|(i, sc)| {
                    let n = if self.split[i] {
                        self.comp_sets[sc.scop].as_ref().map_or(0, Vec::len)
                    } else {
                        0
                    };
                    (0..n).map(|_| OnceLock::new()).collect()
                })
                .collect(),
        }
    }

    /// Expands scenarios into pool jobs, resolving each job's shared
    /// dependence analysis and Farkas cache by (SCoP, component). The
    /// analysis — itself a stack of exact integer feasibility tests —
    /// and each cone elimination thus run once per SCoP instead of once
    /// per scenario.
    fn jobs(&self) -> Vec<Job> {
        type Shared = (Arc<Vec<Dependence>>, Arc<FarkasCache>);
        let mut groups: BTreeMap<(usize, Option<usize>), Shared> = BTreeMap::new();
        let mut jobs = Vec::new();
        for (i, sc) in self.set.scenarios.iter().enumerate() {
            let mut shared_for = |comp: Option<usize>, scop: &Scop| {
                // A resident whole-SCoP job draws both the analysis and
                // the cache from the registry entry, so its state
                // persists beyond this run (component sub-jobs keep
                // per-run sharing: their decompositions are run-local).
                if comp.is_none() {
                    if let Some(entry) = &self.set.resident[sc.scop] {
                        return (entry.deps(), entry.cache());
                    }
                }
                let key = (sc.scop, comp);
                groups
                    .entry(key)
                    .or_insert_with(|| {
                        let deps = match self.analyses.get(&key) {
                            Some(deps) => Arc::clone(deps),
                            None => Arc::new(analyze(scop)),
                        };
                        let cache = Arc::new(FarkasCache::new(deps.len()));
                        (deps, cache)
                    })
                    .clone()
            };
            if self.split[i] {
                let comps = self.comp_sets[sc.scop].as_ref().expect("split has comps");
                for (c, plan) in comps.iter().enumerate() {
                    let (deps, cache) = shared_for(Some(c), &plan.scop);
                    jobs.push(Job::Component {
                        scenario: i,
                        comp: c,
                        deps,
                        cache,
                        queued: Instant::now(),
                    });
                }
            } else {
                let (deps, cache) = shared_for(None, &self.set.scops[sc.scop].1);
                jobs.push(Job::Whole {
                    scenario: i,
                    deps,
                    cache,
                    queued: Instant::now(),
                });
            }
        }
        jobs
    }

    fn execute(&self, job: &Job, slots: &Slots) {
        match *job {
            Job::Whole {
                scenario,
                ref deps,
                ref cache,
                queued,
            } => {
                let sc = &self.set.scenarios[scenario];
                let scop = &self.set.scops[sc.scop].1;
                let (options, _job_span) = traced_options(&sc.options, scenario, queued);
                let outcome = solve_one(scop, &sc.config, &options, deps, cache);
                let _ = slots.whole[scenario].set(outcome);
            }
            Job::Component {
                scenario,
                comp,
                ref deps,
                ref cache,
                queued,
            } => {
                let sc = &self.set.scenarios[scenario];
                let plan = &self.comp_sets[sc.scop].as_ref().expect("split has comps")[comp];
                let (options, _job_span) = traced_options(&sc.options, scenario, queued);
                let outcome = solve_one(&plan.scop, &sc.config, &options, deps, cache);
                let _ = slots.comps[scenario][comp].set(outcome);
            }
        }
    }

    /// Collects slot contents into per-scenario results, stitching
    /// component sub-jobs back into one schedule.
    fn assemble(&self, slots: Slots) -> Vec<ScenarioResult> {
        let Slots { whole, comps } = slots;
        let mut out = Vec::with_capacity(self.set.scenarios.len());
        for (i, (w, c)) in whole.into_iter().zip(comps).enumerate() {
            let sc = &self.set.scenarios[i];
            let (scop_name, scop) = &self.set.scops[sc.scop];
            let result = if self.split[i] {
                let plans = self.comp_sets[sc.scop].as_ref().expect("split has comps");
                let mut solved = Vec::with_capacity(c.len());
                let mut err = None;
                for slot in c {
                    match slot.into_inner().expect("component job ran") {
                        Ok(ok) => solved.push(ok),
                        Err(e) => {
                            // First (in component order) error wins, so
                            // the reported error is deterministic.
                            err.get_or_insert(e);
                        }
                    }
                }
                match err {
                    Some(e) => Err(e),
                    None => Ok((plans.len(), stitch(scop, plans, solved))),
                }
            } else {
                w.into_inner()
                    .expect("whole job ran")
                    .map(|(schedule, stats)| (1, (schedule, stats)))
            };
            out.push(result.map(|(sub_jobs, (schedule, stats))| ScenarioReport {
                scenario: i,
                name: sc.name.clone(),
                scop: sc.scop,
                scop_name: scop_name.clone(),
                schedule,
                stats,
                sub_jobs,
            }));
        }
        out
    }
}

/// When the scenario carries a span link, records the job's queue wait
/// into the pool histogram and opens a per-job span (arg = scenario
/// index) that the engine's pipeline spans nest under on whichever
/// worker thread runs it. Untraced scenarios pay one `Option` check.
fn traced_options(
    options: &EngineOptions,
    scenario: usize,
    queued: Instant,
) -> (EngineOptions, Option<polytops_obs::SpanHandle>) {
    let Some(link) = &options.trace else {
        return (options.clone(), None);
    };
    let wait = u64::try_from(queued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    link.recorder().histogram("pool.queue_wait_ns").record(wait);
    let span = link.span_arg("job", scenario as i64);
    let mut options = options.clone();
    options.trace = span.link();
    (options, Some(span))
}

/// Runs one engine job under shared analysis and cache.
fn solve_one(
    scop: &Scop,
    config: &SchedulerConfig,
    options: &EngineOptions,
    deps: &Arc<Vec<Dependence>>,
    cache: &Arc<FarkasCache>,
) -> EngineOutcome {
    let mut strategy = ConfigStrategy::new(config.clone());
    solve::run_shared(
        scop,
        config,
        &mut strategy,
        options,
        Arc::clone(deps),
        Arc::clone(cache),
    )
}

/// Whether a configuration can be applied per component: fusion
/// controls, directives and custom constraints all reference global
/// statement ids, and tiling decisions are taken per band over the
/// whole SCoP (a split would tile each component against only its own
/// dependences, changing which bands tile), so any of them pins the
/// scenario to a whole-SCoP solve.
fn config_splittable(config: &SchedulerConfig) -> bool {
    config.fusion.is_empty()
        && config.directives.is_empty()
        && config.custom_constraints.values().all(Vec::is_empty)
        && config.post.tile_sizes.is_empty()
}

/// Weakly connected components of a SCoP's dependence graph (union-find
/// over the precomputed dependence endpoints), as solve-ready
/// [`ComponentPlan`]s ordered by smallest statement id. Returns `None`
/// for fewer than two components.
fn components_of(scop: &Scop, deps: &[Dependence]) -> Option<Vec<ComponentPlan>> {
    let n = scop.statements.len();
    if n < 2 {
        return None;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for dep in deps {
        let a = find(&mut parent, dep.src.0);
        let b = find(&mut parent, dep.dst.0);
        if a != b {
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for s in 0..n {
        let root = find(&mut parent, s);
        groups.entry(root).or_default().push(s);
    }
    if groups.len() < 2 {
        return None;
    }
    Some(
        groups
            .into_values()
            .enumerate()
            .map(|(c, stmts)| {
                let scop = component_scop(scop, &stmts, c);
                ComponentPlan { stmts, scop }
            })
            .collect(),
    )
}

/// Extracts the sub-SCoP of one component: selected statements
/// re-numbered, parameters/context/arrays shared with the parent (array
/// ids stay valid; β vectors keep their original values, preserving
/// textual order semantics).
fn component_scop(scop: &Scop, stmts: &[usize], comp: usize) -> Scop {
    Scop {
        name: format!("{}::c{comp}", scop.name),
        params: scop.params.clone(),
        context: scop.context.clone(),
        arrays: scop.arrays.clone(),
        statements: stmts
            .iter()
            .enumerate()
            .map(|(new_id, &s)| {
                let mut st = scop.statements[s].clone();
                st.id = StmtId(new_id);
                st
            })
            .collect(),
    }
}

/// Recombines component schedules into one schedule over the parent
/// SCoP:
///
/// * dimension 0 is a constant distribution row placing component `c`
///   at position `c` (legal: no dependence crosses components);
/// * dimension `d + 1` replays each component's dimension `d`, with
///   shorter components padded by constant-zero rows;
/// * a padded dimension's parallel flag is the conjunction over the
///   components that actually contribute a row, and band boundaries are
///   taken wherever *any* contributing component starts a band (the
///   conservative common refinement);
/// * the combined schedule *tree* is a [`TreeNode::Sequence`] of
///   [`TreeNode::Filter`]s over the component trees, remapped to parent
///   statement ids and shifted past the distribution level — marks and
///   band structure carry over verbatim.
fn stitch(
    scop: &Scop,
    plans: &[ComponentPlan],
    solved: Vec<(Schedule, PipelineStats)>,
) -> (Schedule, PipelineStats) {
    let np = scop.nparams();
    let nstmts = scop.statements.len();
    // Where each global statement lives: (component, local index).
    let mut home = vec![(0usize, 0usize); nstmts];
    for (c, plan) in plans.iter().enumerate() {
        for (local, &s) in plan.stmts.iter().enumerate() {
            home[s] = (c, local);
        }
    }
    let max_len = solved
        .iter()
        .map(|(sched, _)| sched.dims())
        .max()
        .unwrap_or(0);

    let mut per_stmt = Vec::with_capacity(nstmts);
    for (s, stmt) in scop.statements.iter().enumerate() {
        let (c, local) = home[s];
        let (sched, _) = &solved[c];
        let ss = sched.stmt(StmtId(local));
        let mut rows = StmtSchedule::new(stmt.depth(), np);
        let mut cut = vec![0i64; stmt.depth() + np + 1];
        cut[stmt.depth() + np] = c as i64;
        rows.push_row(cut);
        for d in 0..max_len {
            rows.push_row(if d < ss.len() {
                ss.rows()[d].clone()
            } else {
                vec![0i64; stmt.depth() + np + 1]
            });
        }
        per_stmt.push(rows);
    }

    let mut bands = vec![0usize];
    let mut parallel = vec![false];
    let mut next_band = 0usize;
    for d in 0..max_len {
        let contributing: Vec<&Schedule> = solved
            .iter()
            .map(|(sched, _)| sched)
            .filter(|sched| d < sched.dims())
            .collect();
        let boundary = d == 0
            || contributing
                .iter()
                .any(|sched| d < sched.dims() && sched.bands()[d] != sched.bands()[d - 1]);
        if boundary {
            next_band += 1;
        }
        bands.push(next_band);
        parallel
            .push(!contributing.is_empty() && contributing.iter().all(|sched| sched.parallel()[d]));
    }

    let mut combined = Schedule::from_parts(per_stmt, bands, parallel);
    // The combined tree is a sequence of filters over the component
    // trees: component `c` at position `c`, its statements renumbered
    // to the parent ids and every term's source dimension shifted past
    // the distribution level. Marks (tile sizes, wavefront, vectorize)
    // ride along structurally instead of being re-derived.
    let children: Vec<TreeNode> = plans
        .iter()
        .enumerate()
        .map(|(c, plan)| {
            let (sched, _) = &solved[c];
            let sub = sched.tree_or_lowered().remap(nstmts, &plan.stmts, 1);
            let mut stmts = plan.stmts.clone();
            stmts.sort_unstable();
            TreeNode::Filter {
                stmts,
                child: sub.root.boxed(),
            }
        })
        .collect();
    combined.set_tree(ScheduleTree {
        nstmts,
        root: TreeNode::Sequence(children),
    });
    let mut stats = PipelineStats::default();
    for (_, comp_stats) in &solved {
        stats.farkas_hits += comp_stats.farkas_hits;
        stats.farkas_misses += comp_stats.farkas_misses;
        stats.fast_path_dims += comp_stats.fast_path_dims;
        stats.fast_path_fallbacks += comp_stats.fast_path_fallbacks;
        stats.ilp.absorb(&comp_stats.ilp);
    }
    stats.dimensions = combined.dims();
    (combined, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use polytops_ir::{Aff, ScopBuilder};
    use polytops_workloads::stencil_chain as chain;

    /// Two independent loops over disjoint arrays: two components.
    fn two_components() -> Scop {
        let mut b = ScopBuilder::new("indep");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(1), n.clone() - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S1").write(c, &[Aff::var("j")]).add(&mut b);
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn sequential_and_sharded_agree() {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "pluto", presets::pluto());
        set.add_scenario(scop, "feautrier", presets::feautrier());
        let seq = set.run_sequential();
        let par = set.run_sharded(2);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn second_scenario_of_a_group_replays_the_first() {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "a", presets::pluto());
        set.add_scenario(scop, "b", presets::pluto());
        let results = set.run_sequential();
        let (a, b) = (results[0].as_ref().unwrap(), results[1].as_ref().unwrap());
        assert!(a.stats.farkas_misses > 0, "{:?}", a.stats);
        assert_eq!(b.stats.farkas_misses, 0, "{:?}", b.stats);
        assert!(b.stats.farkas_hits > 0, "{:?}", b.stats);
    }

    #[test]
    fn different_layouts_share_one_cone() {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "pluto", presets::pluto());
        set.add_scenario(scop, "pluto_plus", presets::pluto_plus());
        let results = set.run_sequential();
        // pluto+ widens the variable layout; a cone does not depend on
        // it, so pluto's eliminations serve pluto+ as well.
        let plus = results[1].as_ref().unwrap();
        assert_eq!(plus.stats.farkas_misses, 0, "{:?}", plus.stats);
        assert!(plus.stats.farkas_hits > 0, "{:?}", plus.stats);
    }

    #[test]
    fn split_scenarios_distribute_components() {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("indep", two_components());
        set.add_scenario(scop, "pluto", presets::pluto());
        set.split_components(true);
        let results = set.run_sequential();
        let report = results[0].as_ref().unwrap();
        assert_eq!(report.sub_jobs, 2);
        // Dimension 0 is the distribution cut: S0 at 0, S1 at 1.
        let sched = &report.schedule;
        assert!(sched.stmt(StmtId(0)).row_is_constant(0));
        assert_eq!(sched.stmt(StmtId(0)).rows()[0][2], 0);
        assert_eq!(sched.stmt(StmtId(1)).rows()[0][2], 1);
        // Both components keep full-rank schedules.
        for s in 0..2 {
            assert_eq!(sched.stmt(StmtId(s)).iter_matrix().rank(), 1);
        }
        // Sharded split execution agrees bit for bit.
        let par = set.run_sharded(3);
        assert_eq!(par[0].as_ref().unwrap().schedule, *sched);
    }

    #[test]
    fn tiled_configs_keep_their_whole_scop_solve_when_splitting() {
        // Tiling decisions are taken per band over the whole SCoP, so a
        // tiled scenario must pin to a whole-SCoP solve (and keep its
        // tile bands in the tree) even with splitting enabled.
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("indep", two_components());
        let mut tiled = presets::pluto();
        tiled.post.tile_sizes = vec![16];
        set.add_scenario(scop, "tiled", tiled);
        set.add_scenario(scop, "plain", presets::pluto());
        set.split_components(true);
        let results = set.run_sequential();
        let tiled_report = results[0].as_ref().unwrap();
        assert_eq!(tiled_report.sub_jobs, 1, "tiled scenario must not split");
        let tree = tiled_report.schedule.tree().expect("tree attached");
        assert!(
            tree.marks()
                .iter()
                .any(|m| matches!(m, polytops_ir::MarkKind::Tile(_))),
            "tile marks kept"
        );
        assert_eq!(results[1].as_ref().unwrap().sub_jobs, 2);
    }

    #[test]
    fn winner_prefers_parallelism() {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "pluto", presets::pluto());
        set.add_scenario(scop, "feautrier", presets::feautrier());
        let results = set.run_sharded(2);
        let best = winner(&results).expect("schedules exist");
        // Both chains are sequential 1-d schedules; the tie resolves to
        // the earlier scenario.
        assert_eq!(best.scenario, 0);
        // A custom oracle can invert the choice.
        let by_name = winner_by(&results, |r| i64::from(r.name == "feautrier"));
        assert_eq!(by_name.unwrap().scenario, 1);
    }
}
