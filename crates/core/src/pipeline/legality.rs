//! Legality stage: cached Farkas linearization.
//!
//! Eliminating a dependence's Farkas multipliers (Fourier–Motzkin over
//! the dependence polyhedron) is the single most expensive constraint-
//! construction step of the scheduler, and the monolithic driver used to
//! redo it for every live dependence at every dimension. The resulting
//! system, however, only depends on the dependence polyhedron and the
//! ILP variable layout — neither changes across dimensions now that the
//! engine fixes one [`IlpSpace`] per SCoP — so [`FarkasCache`]
//! eliminates each dependence **once** and replays the cached affine
//! form at every later dimension.
//!
//! Since the per-scenario reconfiguration loop (paper Fig. 1) solves the
//! *same* SCoP many times under different configurations, the cache is
//! also shareable **across runs**: it is `Send + Sync` (entries behind
//! [`OnceLock`], counters atomic), so the scenario engine
//! ([`crate::scenario`]) wraps one cache per (SCoP, variable-layout)
//! group in an [`Arc`] and every scenario of that group replays the same
//! eliminations — including scenarios running concurrently on other
//! worker threads. Entries are keyed by dependence identity (the index
//! assigned by [`polytops_deps::analyze`], which is deterministic for a
//! given SCoP) and constraint kind (validity, proximity, Feautrier).
//!
//! Lookups happen for live dependences and — on the validity side — for
//! dependences carried inside the still-open band; that is fine because
//! an entry depends only on the dependence polyhedron and the fixed
//! variable layout, never on live/retired state. The cache additionally
//! pins the full [`IlpSpace`] of its first lookup and compares every
//! later lookup against it, recomputing (without storing) on mismatch —
//! so a mis-grouped share degrades to fresh eliminations instead of
//! corrupting the ILP, even when two layouts coincide in column count.
//!
//! Two counter sets exist: the cache's own atomic totals (aggregated
//! over every run that ever shared it — the scenario engine reports
//! these as cross-scenario hit rates) and the per-run [`CacheSession`]
//! counters that feed [`PipelineStats`](crate::pipeline::PipelineStats)
//! exactly even when other threads hit the same cache concurrently.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use polytops_deps::Dependence;
use polytops_math::ConstraintSystem;

use crate::costfn::{feautrier_rows, proximity_rows, validity_rows};
use crate::error::ScheduleError;
use crate::space::IlpSpace;

/// Per-SCoP cache of Farkas-eliminated constraint systems, shareable
/// across scheduling runs (and threads) of the same SCoP.
///
/// The cache is only sound while the ILP variable layout is stable: the
/// engine constructs one [`IlpSpace`] per SCoP (with dependence-variable
/// columns for *all* dependences, live or not) and shares it across
/// every dimension. Runs whose configuration changes the layout
/// (`negative_coefficients`, `parametric_shift`, `new_variables`) must
/// use a different cache — the scenario engine groups by exactly that
/// key — and the layout fingerprint pinned by the first lookup makes
/// every later lookup recompute rather than replay an entry built for
/// another layout.
#[derive(Debug)]
pub struct FarkasCache {
    /// The ILP variable layout the stored entries were eliminated
    /// under, pinned by the first lookup. Every later lookup compares
    /// its own layout against this fingerprint — equal column *counts*
    /// with different column *meanings* (e.g. parametric-shift columns
    /// vs user variables) must not replay each other's rows.
    space: OnceLock<IlpSpace>,
    validity: Vec<OnceLock<ConstraintSystem>>,
    proximity: Vec<OnceLock<ConstraintSystem>>,
    feautrier: Vec<OnceLock<ConstraintSystem>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl FarkasCache {
    /// Creates an empty cache for `num_deps` dependences.
    pub fn new(num_deps: usize) -> FarkasCache {
        FarkasCache {
            space: OnceLock::new(),
            validity: (0..num_deps).map(|_| OnceLock::new()).collect(),
            proximity: (0..num_deps).map(|_| OnceLock::new()).collect(),
            feautrier: (0..num_deps).map(|_| OnceLock::new()).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Number of dependences the cache was sized for (entry slots per
    /// constraint kind).
    pub fn num_deps(&self) -> usize {
        self.validity.len()
    }

    /// Total lookups answered from the cache, across every run (and
    /// thread) that shared it.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that ran a fresh Farkas elimination, across every
    /// run (and thread) that shared it.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Appends the validity system `Δ_e ≥ 0` of dependence `e` to `out`.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_validity(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.validity_hit(e, dep, space, out).map(|_| ())
    }

    /// Appends the proximity system `Δ_e ≤ u·N + w` of dependence `e`.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_proximity(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.proximity_hit(e, dep, space, out).map(|_| ())
    }

    /// Appends the Feautrier system `Δ_e ≥ x_e` of dependence `e` (the
    /// `0 ≤ x_e ≤ 1` box is the caller's, it is layout- not
    /// elimination-work).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_feautrier(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.feautrier_hit(e, dep, space, out).map(|_| ())
    }

    fn validity_hit(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<bool, ScheduleError> {
        self.replay(&self.validity[e], space, out, || validity_rows(dep, space))
    }

    fn proximity_hit(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<bool, ScheduleError> {
        self.replay(&self.proximity[e], space, out, || {
            proximity_rows(dep, space)
        })
    }

    fn feautrier_hit(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<bool, ScheduleError> {
        self.replay(&self.feautrier[e], space, out, || {
            feautrier_rows(dep, e, space)
        })
    }

    /// Replays `slot` into `out` when a cached system exists *and* the
    /// requesting run's variable layout equals the one the cache was
    /// pinned to by its first lookup; otherwise builds fresh (storing
    /// the result only when the layouts match — equal column counts
    /// with different column meanings must not replay each other's
    /// rows). Returns whether the lookup was a hit.
    fn replay(
        &self,
        slot: &OnceLock<ConstraintSystem>,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
        build: impl FnOnce() -> Result<ConstraintSystem, ScheduleError>,
    ) -> Result<bool, ScheduleError> {
        let matches = self.space.get_or_init(|| space.clone()) == space;
        if matches {
            if let Some(sys) = slot.get() {
                let _timing = polytops_obs::time("farkas.replay_ns");
                debug_assert_eq!(sys.num_vars(), out.num_vars(), "layout drift");
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.extend(sys);
                return Ok(true);
            }
        }
        // Empty slot, or a mis-grouped share: eliminate fresh, leaving
        // any stored entry (and the pinned layout) alone.
        let sys = {
            let _timing = polytops_obs::time("farkas.eliminate_ns");
            build()?
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        out.extend(&sys);
        if matches {
            let _ = slot.set(sys);
        }
        Ok(false)
    }
}

/// One run's view of a (possibly [`Arc`]-shared) [`FarkasCache`].
///
/// The cache's own counters aggregate over every run that shares it —
/// concurrent scenarios would otherwise pollute each other's
/// [`PipelineStats`](crate::pipeline::PipelineStats). A session wraps
/// the shared cache with thread-local hit/miss counters so each engine
/// run reports exactly the lookups *it* performed, while entries (and
/// the global totals) remain shared.
#[derive(Debug)]
pub struct CacheSession {
    cache: Arc<FarkasCache>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

impl CacheSession {
    /// Opens a session over a shared cache.
    pub fn new(cache: Arc<FarkasCache>) -> CacheSession {
        CacheSession {
            cache,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<FarkasCache> {
        &self.cache
    }

    /// Lookups this session answered from the cache (including entries
    /// eliminated by *other* sessions sharing the cache — that is the
    /// cross-scenario amortization being measured).
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    /// Lookups this session had to eliminate fresh.
    pub fn misses(&self) -> usize {
        self.misses.get()
    }

    /// Session-counted [`FarkasCache::extend_with_validity`].
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_validity(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.count(self.cache.validity_hit(e, dep, space, out)?);
        Ok(())
    }

    /// Session-counted [`FarkasCache::extend_with_proximity`].
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_proximity(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.count(self.cache.proximity_hit(e, dep, space, out)?);
        Ok(())
    }

    /// Session-counted [`FarkasCache::extend_with_feautrier`].
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination.
    pub fn extend_with_feautrier(
        &self,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        self.count(self.cache.feautrier_hit(e, dep, space, out)?);
        Ok(())
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.set(self.hits.get() + 1);
        } else {
            self.misses.set(self.misses.get() + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::analyze;
    use polytops_workloads::stencil_chain as chain;

    #[test]
    fn second_lookup_hits_and_replays_identical_rows() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = FarkasCache::new(deps.len());

        let mut first = ConstraintSystem::new(space.total());
        cache
            .extend_with_validity(0, &deps[0], &space, &mut first)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let mut second = ConstraintSystem::new(space.total());
        cache
            .extend_with_validity(0, &deps[0], &space, &mut second)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
    }

    #[test]
    fn sessions_count_locally_while_sharing_entries() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(deps.len()));

        let first = CacheSession::new(Arc::clone(&cache));
        let mut out = ConstraintSystem::new(space.total());
        first
            .extend_with_validity(0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((first.hits(), first.misses()), (0, 1));

        // A second session replays the first session's elimination: a
        // hit locally, and the global totals see both lookups.
        let second = CacheSession::new(Arc::clone(&cache));
        let mut out = ConstraintSystem::new(space.total());
        second
            .extend_with_validity(0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((second.hits(), second.misses()), (1, 0));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn layout_mismatch_recomputes_instead_of_replaying() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let wide = IlpSpace::new(&scop, vec![], deps.len(), true, true);
        assert_ne!(space.total(), wide.total());
        let cache = FarkasCache::new(deps.len());

        let mut out = ConstraintSystem::new(space.total());
        cache
            .extend_with_validity(0, &deps[0], &space, &mut out)
            .unwrap();
        // A lookup under a different layout must not replay the stored
        // entry (its columns would be misaligned) — it recomputes.
        let mut other = ConstraintSystem::new(wide.total());
        cache
            .extend_with_validity(0, &deps[0], &wide, &mut other)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(other.num_vars(), wide.total());
    }

    #[test]
    fn concurrent_sessions_share_one_elimination_soundly() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(deps.len()));
        let mut reference = ConstraintSystem::new(space.total());
        cache
            .extend_with_validity(0, &deps[0], &space, &mut reference)
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let session = CacheSession::new(Arc::clone(&cache));
                    let mut out = ConstraintSystem::new(space.total());
                    session
                        .extend_with_validity(0, &deps[0], &space, &mut out)
                        .unwrap();
                    assert_eq!(out, reference.clone());
                    assert_eq!((session.hits(), session.misses()), (1, 0));
                });
            }
        });
        assert_eq!(cache.hits(), 4);
    }
}
