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
//! * [`ScenarioSet::run_sharded`] executes one engine job per scenario
//!   on a work-stealing pool of scoped threads claiming jobs from an
//!   atomic index (`std::thread::scope` — the build environment has no
//!   registry access, so no rayon/crossbeam); a pool of one is the
//!   caller itself;
//! * [`winner`]/[`winner_by`] select the best report by a score (a
//!   static cost heuristic by default, or any user oracle).
//!
//! # Determinism
//!
//! Sharded execution is **bit-identical** to sequential execution: a
//! resident cone equals what a recomputation would eliminate, so no
//! result depends on which thread finished first.
//! The lexmin is total over the schedule coefficients, so no pivot
//! order picks between schedules, and each dimension's ILP solve reads
//! nothing but its own system. Only the
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use polytops_deps::{analyze, Dependence};
use polytops_ir::{Schedule, Scop, StmtId};

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
    /// Per-run engine options (the trace link the run's spans nest
    /// under).
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
    /// This run's pipeline statistics.
    pub stats: PipelineStats,
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
        self.run_sharded(1)
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
        let jobs = self.jobs();
        // One slot per scenario; `OnceLock` gives each a single writer
        // (the worker that ran the job) without a lock around the vector.
        let slots: Vec<OnceLock<EngineOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let workers = threads.clamp(1, jobs.len().max(1));
        // Relaxed: the index publishes nothing. Jobs are read-only and
        // results reach the caller through the scope's join.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                let _ = slots[job.scenario].set(self.execute(job));
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
        slots
            .into_iter()
            .zip(&self.scenarios)
            .enumerate()
            .map(|(i, (slot, sc))| {
                let (schedule, stats) = slot.into_inner().expect("every job ran")?;
                Ok(ScenarioReport {
                    scenario: i,
                    name: sc.name.clone(),
                    scop: sc.scop,
                    scop_name: self.scops[sc.scop].0.clone(),
                    schedule,
                    stats,
                })
            })
            .collect()
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

/// A unit of work for the pool: one scenario, carrying its SCoP's shared
/// dependence analysis and Farkas cache.
struct Job {
    scenario: usize,
    deps: Arc<Vec<Dependence>>,
    cache: Arc<FarkasCache>,
    /// When the job was enqueued, for the pool's queue-wait histogram
    /// (recorded only for traced scenarios).
    queued: Instant,
}

type EngineOutcome = Result<(Schedule, PipelineStats), ScheduleError>;

impl ScenarioSet {
    /// One job per scenario, each sharing its SCoP's dependence analysis
    /// and Farkas cache. The analysis — itself a stack of exact integer
    /// feasibility tests — and each cone elimination thus run once per
    /// SCoP instead of once per scenario. A registry-resident SCoP draws
    /// both from its entry, so its state persists beyond this run.
    fn jobs(&self) -> Vec<Job> {
        type Shared = (Arc<Vec<Dependence>>, Arc<FarkasCache>);
        let mut shared: Vec<Option<Shared>> = vec![None; self.scops.len()];
        self.scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let (deps, cache) =
                    shared[sc.scop].get_or_insert_with(|| match &self.resident[sc.scop] {
                        Some(entry) => (entry.deps(), entry.cache()),
                        None => {
                            let deps = Arc::new(analyze(&self.scops[sc.scop].1));
                            let cache = Arc::new(FarkasCache::new(deps.len()));
                            (deps, cache)
                        }
                    });
                Job {
                    scenario: i,
                    deps: Arc::clone(deps),
                    cache: Arc::clone(cache),
                    queued: Instant::now(),
                }
            })
            .collect()
    }

    /// Runs one job under its SCoP's shared analysis and cache.
    fn execute(&self, job: &Job) -> EngineOutcome {
        let sc = &self.scenarios[job.scenario];
        let (options, _job_span) = traced_options(&sc.options, job.scenario, job.queued);
        let mut strategy = ConfigStrategy::new(sc.config.clone());
        solve::run_shared(
            &self.scops[sc.scop].1,
            &sc.config,
            &mut strategy,
            &options,
            Arc::clone(&job.deps),
            Arc::clone(&job.cache),
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use polytops_workloads::stencil_chain as chain;

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
