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
//! * a [`ScenarioSet`] holds N (SCoP × configuration) scenarios
//!   ([`Scenario`]) over a pool of SCoP slots, each slot a
//!   [`ScopEntry`]: the SCoP with its dependence analysis and Farkas
//!   cache, built for the set ([`ScenarioSet::add_scop`]) or shared
//!   with a registry ([`ScenarioSet::add_resident_scop`]; one entry
//!   added twice is one slot);
//! * scenarios that differ only in post-processing (tile sizes,
//!   wavefront, intra-tile and auto vectorization) form one **solve
//!   group**: post-processing never shapes an ILP, so the group solves
//!   once and each member post-processes its own copy of the solved
//!   schedule. The group's first scenario reports the solver and Farkas
//!   counters; the others report zero solver effort;
//! * the groups of a slot share its entry's one dependence analysis and
//!   one `Arc`-wrapped
//!   [`FarkasCache`](crate::pipeline::legality::FarkasCache): the first
//!   group to need a
//!   dependence eliminates its cone, every later (or concurrent) group —
//!   under any configuration, a cone knows nothing of the ILP layout —
//!   substitutes into it; [`PipelineStats::farkas_hits`] of the later
//!   groups measure exactly this cross-scenario amortization;
//! * **dimension sharing**: when one SCoP slot has two solve groups or
//!   more in a run (untraced, or tracing into one trace), they share a
//!   [`DimMemo`]: a dimension ILP one group solved — keyed by exactly
//!   what the solve reads ([`IlpKey`](crate::pipeline::objectives::IlpKey)) —
//!   is answered for every other group that reaches it, without
//!   assembling or solving it again (the isl-style strategy's first try
//!   is pluto's dimension, its recomputation feautrier's;
//!   [`PipelineStats::shared_dims`] counts them). The memo lives for
//!   the run only, never in a registry entry;
//! * [`ScenarioSet::run_sharded`] executes one engine job per solve
//!   group on a work-stealing pool of scoped threads claiming jobs from
//!   an atomic index (`std::thread::scope` — the build environment has
//!   no registry access, so no rayon/crossbeam); a pool of one is the
//!   caller itself;
//! * [`winner`]/[`winner_by`] select the best report by a score (a
//!   static cost heuristic by default, or any user oracle).
//!
//! # Determinism
//!
//! Sharded execution is **bit-identical** to sequential execution: a
//! resident cone equals what a recomputation would eliminate, and a
//! shared dimension equals what a re-solve of its key would find, so no
//! result depends on which thread finished first. Grouping is invisible
//! in the schedules too: a member's copy is post-processed from exactly
//! the schedule its own solve would have produced, and the oracle it
//! asks answers the same whatever it was asked before.
//! The lexmin is total over the schedule coefficients, so no pivot
//! order picks between schedules, and each dimension's ILP solve reads
//! nothing but its own system. Only the
//! per-scenario cache hit/miss *split*, and which group solves a shared
//! dimension, may vary under concurrency; every schedule is
//! reproducible at any thread count.
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

use polytops_ir::{Schedule, Scop, StmtId};

use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::pipeline::solve::{self, DimMemo, EngineOptions, PipelineStats};
use crate::registry::ScopEntry;
use crate::strategy::ConfigStrategy;

/// One scheduling scenario: a SCoP (by index into its [`ScenarioSet`])
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

/// A batch of scenarios over a pool of SCoP slots.
///
/// Adding the same SCoP once and referencing it from many scenarios is
/// what enables cross-scenario Farkas-cache sharing — scenarios of
/// *different* slots never share cache entries. A slot's cones outlive
/// a run: a second run of the set finds resident what the first
/// eliminated.
#[derive(Debug, Default)]
pub struct ScenarioSet {
    /// One entry per slot, owning the slot's SCoP, dependence analysis
    /// and Farkas cache.
    scops: Vec<Arc<ScopEntry>>,
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Creates an empty set.
    pub fn new() -> ScenarioSet {
        ScenarioSet::default()
    }

    /// Registers a SCoP in a slot of its own — an entry that belongs to
    /// no registry, analyzed here — and returns the slot's index for
    /// [`add_scenario`](ScenarioSet::add_scenario).
    pub fn add_scop(&mut self, name: impl Into<String>, scop: Scop) -> usize {
        self.scops.push(Arc::new(ScopEntry::new(name, scop)));
        self.scops.len() - 1
    }

    /// Registers a shared entry (the admission API of the `polytopsd`
    /// service): scenarios over this slot use the entry's persistent
    /// dependence analysis and Farkas cache, so a SCoP the registry has
    /// seen before pays only the ILP solves. An entry already in the set
    /// ([`Arc::ptr_eq`]) keeps its slot, whose index is returned: two
    /// requests for one SCoP share its solve groups.
    ///
    /// The scheduled SCoP is the entry's *representative*
    /// ([`ScopEntry::scop`]), making answers bit-identical across every
    /// client that deduped onto the entry — and, because a resident cone
    /// equals a fresh one, bit-identical to a fresh offline
    /// [`add_scop`](ScenarioSet::add_scop) run of the same SCoP.
    pub fn add_resident_scop(&mut self, entry: Arc<ScopEntry>) -> usize {
        if let Some(slot) = self.scops.iter().position(|e| Arc::ptr_eq(e, &entry)) {
            return slot;
        }
        self.scops.push(entry);
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

    /// The SCoP slots' entries, by slot index.
    pub fn scops(&self) -> &[Arc<ScopEntry>] {
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
    /// job whatever its SCoP), then assembles results in scenario order.
    /// A job is one solve group: the scenarios over one SCoP slot whose
    /// configurations differ only in post-processing (and that trace
    /// into the same trace, or are all untraced). It solves once and
    /// post-processes once per member; a failed solve is every member's
    /// error. `threads` is clamped to `1..=jobs`; a pool of one — a
    /// one-job set, or `threads == 1` — is the calling thread itself and
    /// spawns nothing.
    ///
    /// Results are bit-identical to
    /// [`run_sequential`](ScenarioSet::run_sequential) — see the module
    /// docs for why.
    pub fn run_sharded(&self, threads: usize) -> Vec<ScenarioResult> {
        let jobs = self.jobs();
        // One slot per scenario; `OnceLock` gives each a single writer
        // (the worker that ran its group) without a lock around the
        // vector.
        let slots: Vec<OnceLock<EngineOutcome>> =
            self.scenarios.iter().map(|_| OnceLock::new()).collect();
        let workers = threads.clamp(1, jobs.len().max(1));
        // Relaxed: the index publishes nothing. Jobs are read-only and
        // results reach the caller through the scope's join.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                match self.execute(job) {
                    Ok(runs) => {
                        for (&i, run) in job.scenarios.iter().zip(runs) {
                            let _ = slots[i].set(Ok(run));
                        }
                    }
                    Err(err) => {
                        for &i in &job.scenarios {
                            let _ = slots[i].set(Err(err.clone()));
                        }
                    }
                }
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
                    scop_name: self.scops[sc.scop].name().to_string(),
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

/// A unit of work for the pool: one solve group of one slot, run on
/// the slot's entry.
struct Job {
    /// The group's scenarios in scenario order; the first one's
    /// slot, configuration and options drive the solve.
    scenarios: Vec<usize>,
    /// The dimension answers the job shares with the other solve groups
    /// of its SCoP slot and trace; `None` when it is their only one.
    memo: Option<Arc<DimMemo>>,
    /// When the job was enqueued, for the pool's queue-wait histogram
    /// (recorded only for traced scenarios).
    queued: Instant,
}

type EngineOutcome = Result<(Schedule, PipelineStats), ScheduleError>;

impl ScenarioSet {
    /// One job per solve group. Every group of a slot runs on the
    /// slot's entry, so its cones are eliminated once per slot instead
    /// of once per scenario, and each solve runs once per group. The
    /// groups of one slot and trace share a [`DimMemo`] when there are
    /// two or more of them, so each distinct dimension ILP is solved
    /// once a run; a lone group gets none and pays nothing for it.
    fn jobs(&self) -> Vec<Job> {
        // Each job's solve key, beside it.
        let mut jobs: Vec<(SchedulerConfig, Job)> = Vec::new();
        for (i, sc) in self.scenarios.iter().enumerate() {
            let key = sc.config.solve_key();
            let group = jobs
                .iter_mut()
                .find(|(k, job)| *k == key && self.peers(job.scenarios[0], i));
            if let Some((_, job)) = group {
                job.scenarios.push(i);
                continue;
            }
            let job = Job {
                scenarios: vec![i],
                memo: None,
                queued: Instant::now(),
            };
            jobs.push((key, job));
        }
        let mut jobs: Vec<Job> = jobs.into_iter().map(|(_, job)| job).collect();
        for j in 0..jobs.len() {
            let lead = jobs[j].scenarios[0];
            if jobs[j].memo.is_some()
                || !jobs[j + 1..]
                    .iter()
                    .any(|o| self.peers(lead, o.scenarios[0]))
            {
                continue;
            }
            let memo = Arc::new(DimMemo::default());
            for job in &mut jobs[j..] {
                if self.peers(lead, job.scenarios[0]) {
                    job.memo = Some(Arc::clone(&memo));
                }
            }
        }
        jobs
    }

    /// Whether scenarios `a` and `b` schedule the same SCoP slot into
    /// the same trace (or both untraced): the scenarios that may share a
    /// solve, or a solved dimension.
    fn peers(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.scenarios[a], &self.scenarios[b]);
        a.scop == b.scop && same_trace(&a.options, &b.options)
    }

    /// Runs one solve group on its slot's entry: one outcome per member,
    /// in the group's order.
    fn execute(&self, job: &Job) -> Result<Vec<(Schedule, PipelineStats)>, ScheduleError> {
        let lead = &self.scenarios[job.scenarios[0]];
        let (options, _job_span) = traced_options(&lead.options, job.scenarios[0], job.queued);
        let configs: Vec<&SchedulerConfig> = job
            .scenarios
            .iter()
            .map(|&i| &self.scenarios[i].config)
            .collect();
        let mut strategy = ConfigStrategy::new(lead.config.clone());
        solve::run_shared(
            &self.scops[lead.scop],
            &configs,
            &mut strategy,
            &options,
            job.memo.clone(),
        )
    }
}

/// Whether two scenarios trace into the same trace of the same
/// recorder, or both run untraced. Only such scenarios share a solve,
/// so a traced request never finds its engine spans in another's trace.
fn same_trace(a: &EngineOptions, b: &EngineOptions) -> bool {
    match (&a.trace, &b.trace) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            Arc::ptr_eq(a.recorder(), b.recorder()) && a.trace_id() == b.trace_id()
        }
        _ => false,
    }
}

/// When the group's first scenario carries a span link, records the
/// job's queue wait into the pool histogram and opens a per-job span
/// (arg = that scenario's index) that the engine's pipeline spans — the
/// one solve and every member's `postprocess` — nest under on whichever
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
    use crate::config::DimMap;
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
        // Two solve configurations (identical ones would share a solve):
        // the second re-solves, but substitutes into the first's cones.
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "a", presets::pluto());
        set.add_scenario(
            scop,
            "b",
            SchedulerConfig {
                coefficient_bound: 3,
                ..presets::pluto()
            },
        );
        let results = set.run_sequential();
        let (a, b) = (results[0].as_ref().unwrap(), results[1].as_ref().unwrap());
        assert!(a.stats.farkas_misses > 0, "{:?}", a.stats);
        assert_eq!(b.stats.farkas_misses, 0, "{:?}", b.stats);
        assert!(b.stats.farkas_hits > 0, "{:?}", b.stats);
    }

    #[test]
    fn jobs_group_post_only_variants_of_one_slot_and_trace() {
        let recorder = polytops_obs::Recorder::new(true);
        let root = recorder.root_span("test");
        let mut tiled = presets::pluto();
        tiled.post.tile_sizes = vec![16];
        tiled.auto_vectorize = true;
        let mut set = ScenarioSet::new();
        let a = set.add_scop("chain", chain());
        let b = set.add_scop("chain again", chain());
        set.add_scenario(a, "pluto", presets::pluto());
        set.add_scenario(a, "feautrier", presets::feautrier());
        set.add_scenario(a, "tiled", tiled.clone());
        set.add_scenario(b, "other slot", tiled.clone());
        let traced = EngineOptions { trace: root.link() };
        set.add_scenario_with_options(a, "traced", tiled.clone(), traced.clone());
        set.add_scenario_with_options(a, "traced twin", presets::pluto(), traced);
        set.add_scenario(a, "pluto again", presets::pluto());
        let groups: Vec<Vec<usize>> = set.jobs().into_iter().map(|j| j.scenarios).collect();
        assert_eq!(groups, vec![vec![0, 2, 6], vec![1], vec![3], vec![4, 5]]);
    }

    #[test]
    fn one_entry_added_twice_is_one_slot_and_one_solve_group() {
        let entry = Arc::new(ScopEntry::new("chain", chain()));
        let mut tiled = presets::pluto();
        tiled.post.tile_sizes = vec![16];
        let mut set = ScenarioSet::new();
        let a = set.add_resident_scop(Arc::clone(&entry));
        set.add_scenario(a, "pluto", presets::pluto());
        let b = set.add_resident_scop(Arc::clone(&entry));
        set.add_scenario(b, "tiled", tiled.clone());
        assert_eq!((a, set.scops().len()), (b, 1));
        let groups: Vec<Vec<usize>> = set.jobs().into_iter().map(|j| j.scenarios).collect();
        assert_eq!(groups, vec![vec![0, 1]]);
        for (result, config) in set.run_sequential().iter().zip([presets::pluto(), tiled]) {
            let lone = crate::schedule(&chain(), &config).unwrap();
            assert_eq!(result.as_ref().unwrap().schedule, lone);
        }
    }

    #[test]
    fn a_slot_of_its_own_and_a_resident_slot_agree_byte_for_byte() {
        let (entry, _) = crate::registry::ScopRegistry::new(1).resolve("chain", &chain());
        let mut set = ScenarioSet::new();
        let own = set.add_scop("chain", chain());
        let resident = set.add_resident_scop(entry);
        assert_ne!(own, resident);
        for slot in [own, resident] {
            set.add_scenario(slot, "pluto", presets::pluto());
            set.add_scenario(slot, "feautrier", presets::feautrier());
        }
        let results = set.run_sequential();
        let bytes = |r: &ScenarioResult| {
            let r = r.as_ref().unwrap();
            format!("{} {} {:?} {:?}", r.name, r.scop_name, r.schedule, r.stats)
        };
        for (a, b) in results[..2].iter().zip(&results[2..]) {
            assert_eq!(bytes(a), bytes(b));
        }
    }

    #[test]
    fn a_failed_solve_fails_every_member_of_its_group() {
        // The iterator coefficient is boxed to [0, 4]: no solve meets it.
        let mut infeasible = presets::pluto();
        infeasible.custom_constraints = DimMap::uniform(vec!["S0_it_0 >= 9".to_string()]);
        let mut tiled = infeasible.clone();
        tiled.post.tile_sizes = vec![8];
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("chain", chain());
        set.add_scenario(scop, "infeasible", infeasible);
        set.add_scenario(scop, "pluto", presets::pluto());
        set.add_scenario(scop, "infeasible/tile8", tiled);
        for threads in [1, 2] {
            let results = set.run_sharded(threads);
            let want = ScheduleError::InfeasibleCustomConstraints { dimension: 0 };
            assert_eq!(results[0].as_ref().err(), Some(&want));
            assert_eq!(results[2].as_ref().err(), Some(&want));
            assert!(results[1].is_ok());
        }
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
