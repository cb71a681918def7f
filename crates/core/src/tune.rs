//! The autotuner: machine-driven synthesis of scenario sweeps.
//!
//! Everything below the tuner is mechanism: the scenario engine runs N
//! (SCoP × config) jobs in parallel ([`crate::scenario`]), and the
//! static performance model scores the schedules they produce
//! ([`polytops_machine::model`]). This module supplies the *policy*:
//! [`candidate_lattice`] synthesizes a grid of [`SchedulerConfig`]s
//! from a [`MachineModel`] — base cost-function stacks crossed with
//! post-processing variants whose tile sizes are derived from the cache
//! budget — and [`explore`] runs the grid through a [`ScenarioSet`] on
//! the work-stealing pool, scores every legal schedule with
//! [`model_score`], and returns the winner with its feature vector,
//! model score and oracle verdict. [`explore`] wraps the SCoP in a
//! [`ScopEntry`] of its own and [`explore_entry`] explores on any entry
//! (a registry-resident one in the daemon), sharing its dependence
//! analysis and Farkas cones; no winner is remembered, so every call
//! explores.
//! [`pick`] is the scoring half on its own: the daemon schedules an
//! autotune's candidates inside the batch the request joins and picks
//! through it, so the offline tuner and the daemon pick alike.
//!
//! # Determinism
//!
//! The whole loop inherits the engine's bit-identity contract: the
//! candidate grid is a pure function of (SCoP, machine, budget),
//! sharded execution equals sequential execution bit for bit, feature
//! extraction and scoring are exact integer arithmetic, and score ties
//! resolve toward the earlier candidate — so [`explore`] picks the same
//! winner, with the same schedule bytes, on any thread count.
//! `crates/core/tests/model.rs` asserts exactly this.

use std::sync::Arc;

use polytops_deps::Certifier;
use polytops_ir::{Schedule, Scop};
use polytops_machine::model::{extract_features, model_score, ScheduleFeatures};
pub use polytops_machine::MachineModel;

use crate::config::{PostProcess, SchedulerConfig};
use crate::error::ScheduleError;
use crate::presets;
use crate::registry::ScopEntry;
use crate::scenario::{ScenarioReport, ScenarioResult, ScenarioSet};

/// How much exploration [`explore`] may spend.
#[derive(Debug, Clone)]
pub struct TuneBudget {
    /// Maximum candidate configurations (the lattice is truncated
    /// deterministically — plain presets first, then tiled variants).
    pub max_candidates: usize,
    /// Worker threads for the scenario engine's pool (the winner is
    /// identical for every value — see the module docs).
    pub threads: usize,
    /// Assumed trip count of parametric loops during feature
    /// extraction (the model's `param_estimate`). The default of 256 is
    /// deliberately larger than the scheduler's extent-heuristic
    /// estimate (64): ranking transformations means weighing loop work
    /// against fixed costs (barriers, fork/join), and tiny trip counts
    /// would make the model reject parallelism that pays off at any
    /// production size.
    pub param_estimate: i64,
}

impl Default for TuneBudget {
    /// 16 candidates on an engine pool sized like the service default.
    fn default() -> TuneBudget {
        TuneBudget {
            max_candidates: 16,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8)),
            param_estimate: 256,
        }
    }
}

/// One synthesized configuration of the lattice.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Lattice label, e.g. `pluto/tile32+wave`.
    pub name: String,
    /// The configuration itself.
    pub config: SchedulerConfig,
}

/// The outcome of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning scenario report (schedule + pipeline stats).
    pub winner: ScenarioReport,
    /// The winning configuration.
    pub config: SchedulerConfig,
    /// The winner's model score (negated estimated cycles).
    pub score: i64,
    /// The winner's extracted feature vector.
    pub features: ScheduleFeatures,
    /// Whether the winner passed the independent legality oracle
    /// ([`Certifier::certifies`]: every dependence). The
    /// engine schedules legally by construction, so this is `true`
    /// unless there is an internal bug — callers (the service, the
    /// bench) refuse to act on an uncertified winner.
    pub certified: bool,
    /// Every candidate with its model score (`None` when scheduling
    /// failed), in lattice order.
    pub candidates: Vec<(String, Option<i64>)>,
    /// How many candidate scenarios were scheduled: the length of
    /// [`candidates`](TuneOutcome::candidates).
    pub explored_scenarios: usize,
}

/// Largest power of two `≤ v`, clamped into `lo..=hi` (all powers).
/// Shared with [`crate::presets::for_machine`], which must stay
/// consistent with the lattice's tile-edge range.
pub(crate) fn pow2_floor(v: u64, lo: i64, hi: i64) -> i64 {
    let mut p = 1i64;
    while p * 2 <= i64::try_from(v).unwrap_or(i64::MAX) && p * 2 <= hi {
        p *= 2;
    }
    p.max(lo)
}

/// Tile edges worth trying for `scop` on `machine`: the largest
/// power-of-two square-tile edge whose per-array footprint fits the
/// cache budget (clamped into `8..=128`), its half, and the classic 32
/// when the derivation lands elsewhere — **ascending**, so budget
/// truncation keeps the smallest edge's variants (small tiles bound
/// both the footprint and the modeled barrier count of wavefronts;
/// larger edges only help when the small ones leave cache headroom
/// unused, which the scoring pass decides).
pub fn tile_edges(scop: &Scop, machine: &MachineModel) -> Vec<i64> {
    let element = scop
        .arrays
        .iter()
        .map(|a| a.element_size)
        .max()
        .unwrap_or(8)
        .max(1);
    let arrays = u32::try_from(scop.arrays.len().max(1)).unwrap_or(u32::MAX);
    let edge = pow2_floor(machine.square_tile_edge(element, arrays), 8, 128);
    let mut edges = vec![edge, (edge / 2).max(8), 32];
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Synthesizes the candidate lattice for `scop` on `machine`:
///
/// * **base cost stacks** — the `pluto`, `feautrier` and `isl_like`
///   presets (plain `pluto` is always first, so the tuner can never do
///   worse than the default preset under its own model);
/// * **× post-processing variants** — untouched, tiled at each
///   [`tile_edges`] edge, tiled + wavefront, tiled + wavefront +
///   vectorize, tiled + vectorize.
///
/// Truncated (never reordered) to `max` entries.
pub fn candidate_lattice(scop: &Scop, machine: &MachineModel, max: usize) -> Vec<Candidate> {
    let bases: [(&str, SchedulerConfig); 3] = [
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
    ];
    let mut out: Vec<Candidate> = bases
        .iter()
        .map(|(name, config)| Candidate {
            name: (*name).to_string(),
            config: config.clone(),
        })
        .collect();
    for edge in tile_edges(scop, machine) {
        for (base, config) in &bases {
            let variants: [(&str, bool, bool); 4] = [
                ("", false, false),
                ("+wave", true, false),
                ("+wave+vec", true, true),
                ("+vec", false, true),
            ];
            for (suffix, wavefront, vectorize) in variants {
                let mut config = config.clone();
                config.post = PostProcess {
                    tile_sizes: vec![edge],
                    wavefront,
                    intra_tile_vectorize: vectorize,
                };
                config.auto_vectorize = vectorize;
                out.push(Candidate {
                    name: format!("{base}/tile{edge}{suffix}"),
                    config,
                });
            }
        }
    }
    out.truncate(max.max(1));
    out
}

/// Explores the candidate lattice of `scop` on `machine` and returns
/// the model's pick.
///
/// Runs every candidate through one [`ScenarioSet`] on
/// `budget.threads` workers (sharing the SCoP's dependence analysis
/// and Farkas caches exactly like any other sweep; a base stack's
/// post-processing variants share its one solve), extracts features
/// and scores each legal schedule, and selects the highest score —
/// ties toward the earlier candidate. The winner is re-verified
/// against the independent legality oracle
/// ([`TuneOutcome::certified`]).
///
/// # Errors
///
/// Returns the first candidate's [`ScheduleError`] when *no* candidate
/// produces a schedule (a SCoP the engine cannot schedule at all).
pub fn explore(
    scop: &Scop,
    machine: &MachineModel,
    budget: &TuneBudget,
) -> Result<TuneOutcome, ScheduleError> {
    // One entry carries the dependence analysis for the engine, feature
    // extraction and certification alike: one analyze() per exploration.
    let entry = Arc::new(ScopEntry::new(scop.name.clone(), scop.clone()));
    explore_entry(&entry, machine, budget)
}

/// [`explore`] over an entry — a registry-resident one in the daemon:
/// autotune requests for a resident SCoP reuse its persistent
/// dependence analysis and Farkas cones instead of re-analyzing per
/// request. Every call explores the whole lattice;
/// nothing about a winner is remembered between calls. Tunes the
/// entry's *representative* SCoP (the same value the `schedule` op
/// answers from), so responses stay bit-stable across deduped clients.
///
/// # Errors
///
/// Same contract as [`explore`].
pub fn explore_entry(
    entry: &Arc<ScopEntry>,
    machine: &MachineModel,
    budget: &TuneBudget,
) -> Result<TuneOutcome, ScheduleError> {
    let candidates = candidate_lattice(entry.scop(), machine, budget.max_candidates);
    let mut set = ScenarioSet::new();
    let id = set.add_resident_scop(Arc::clone(entry));
    for c in &candidates {
        set.add_scenario(id, c.name.clone(), c.config.clone());
    }
    let results = set.run_sharded(budget.threads);
    pick(entry, machine, budget.param_estimate, &candidates, &results)
}

/// The scoring half of [`explore_entry`]: scores each candidate's
/// legal schedule under `machine` and picks the highest score, ties
/// toward the earlier candidate, then certifies the winner. `results`
/// holds one result per candidate, in lattice order, scheduled on
/// `entry` by any scenario set (the daemon schedules an autotune's
/// candidates inside the batch it joins).
///
/// # Errors
///
/// Same contract as [`explore`].
pub fn pick(
    entry: &ScopEntry,
    machine: &MachineModel,
    param_estimate: i64,
    candidates: &[Candidate],
    results: &[ScenarioResult],
) -> Result<TuneOutcome, ScheduleError> {
    let scop = entry.scop();
    let deps = entry.deps();
    let mut best: Option<(usize, i64, ScheduleFeatures)> = None;
    let mut scored = Vec::with_capacity(results.len());
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(report) => {
                let features = extract_features(scop, &report.schedule, &deps, param_estimate);
                let score = model_score(machine, &features);
                scored.push((candidates[i].name.clone(), Some(score)));
                if best.as_ref().is_none_or(|&(_, b, _)| score > b) {
                    best = Some((i, score, features));
                }
            }
            Err(_) => scored.push((candidates[i].name.clone(), None)),
        }
    }
    let Some((idx, score, features)) = best else {
        return Err(results
            .iter()
            .find_map(|r| r.as_ref().err().cloned())
            .unwrap_or(ScheduleError::Config {
                detail: "autotuner has no candidates".to_string(),
            }));
    };
    let winner = results[idx].as_ref().cloned().expect("best is Ok");
    let certified = Certifier::new(&deps).certifies(&winner.schedule);
    Ok(TuneOutcome {
        config: candidates[idx].config.clone(),
        winner,
        score,
        features,
        certified,
        candidates: scored,
        explored_scenarios: results.len(),
    })
}

/// Scores an already-built schedule under the model — the hook that
/// lines the tuner's pick up against a fixed preset's schedule, and
/// what the benchmark's `model_cycles_geomean` reads. Returns the
/// feature vector and its score. (Runs its own dependence analysis;
/// inside [`explore`] the analysis is shared instead.)
pub fn score_schedule(
    scop: &Scop,
    sched: &Schedule,
    machine: &MachineModel,
    param_estimate: i64,
) -> (ScheduleFeatures, i64) {
    let deps = polytops_deps::analyze(scop);
    let features = extract_features(scop, sched, &deps, param_estimate);
    let score = model_score(machine, &features);
    (features, score)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_leads_with_the_default_preset_and_truncates() {
        let scop = polytops_workloads::matmul();
        let machine = MachineModel::default();
        let lattice = candidate_lattice(&scop, &machine, 16);
        assert_eq!(lattice.len(), 16);
        assert_eq!(lattice[0].name, "pluto");
        assert_eq!(lattice[0].config, presets::pluto());
        assert!(lattice.iter().any(|c| c.name.contains("+wave")));
        let small = candidate_lattice(&scop, &machine, 2);
        assert_eq!(small.len(), 2);
        assert_eq!(small[0].name, "pluto");
    }

    #[test]
    fn a_second_exploration_repeats_the_first() {
        let scop = polytops_workloads::jacobi_1d();
        let machine = MachineModel::default();
        let budget = TuneBudget {
            max_candidates: 6,
            threads: 2,
            ..TuneBudget::default()
        };
        let entry = Arc::new(ScopEntry::new(scop.name.clone(), scop));
        let first = explore_entry(&entry, &machine, &budget).unwrap();
        assert_eq!(first.explored_scenarios, 6);
        assert_eq!(first.candidates.len(), 6);
        let again = explore_entry(&entry, &machine, &budget).unwrap();
        assert!(again.certified);
        assert_eq!(again.winner.name, first.winner.name);
        assert_eq!(again.winner.schedule, first.winner.schedule);
        assert_eq!(again.score, first.score);
        assert_eq!(again.features, first.features);
        assert_eq!(again.candidates, first.candidates);
        assert_eq!(again.explored_scenarios, first.explored_scenarios);
    }

    #[test]
    fn tile_edges_shrink_with_the_cache() {
        let scop = polytops_workloads::matmul();
        let big = tile_edges(&scop, &MachineModel::default());
        let small = tile_edges(
            &scop,
            &MachineModel {
                cache_bytes: 8 << 10,
                ..MachineModel::default()
            },
        );
        assert!(big[0] >= small[0], "{big:?} vs {small:?}");
        assert!(small.iter().all(|&e| e >= 8));
    }
}
