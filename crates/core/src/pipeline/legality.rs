//! Legality stage: one Farkas cone per dependence.
//!
//! Validity (`Δ ≥ 0`), proximity (`u·N + w − Δ ≥ 0`) and Feautrier
//! (`Δ − x_e ≥ 0`) all ask which affine forms are non-negative on a
//! dependence polyhedron. The answer — the polyhedron's Farkas cone,
//! [`polytops_math::farkas_cone`] — is the expensive part (eliminating
//! the multipliers by Fourier–Motzkin, pruned as it runs so that no row
//! of the cone is redundant) and depends on the dependence alone: not on
//! the constraint kind, the dimension, the live set or the
//! configuration's ILP variable layout. [`FarkasCache`] eliminates it
//! **once** per dependence; every lookup then substitutes the asked
//! kind's [template](DepConstraint::template) over the asking run's
//! [`IlpSpace`] into it, which is a few multiplications per row — per
//! row the cone keeps, which is why it keeps none it does not need.
//!
//! The cache is `Send + Sync` (cones behind [`OnceLock`], counters
//! atomic), so the scenario engine ([`crate::scenario`]) shares one per
//! SCoP among all its scenarios whatever their configuration, and a
//! registry entry keeps one resident across
//! requests. Cones are keyed by dependence index (the one assigned by
//! [`polytops_deps::analyze`], deterministic for a given SCoP).
//!
//! Two counter sets exist: the cache's own atomic totals (aggregated
//! over every run that ever shared it) and the per-run [`CacheSession`]
//! counters that feed [`PipelineStats`](crate::pipeline::PipelineStats)
//! exactly even when other threads use the same cache concurrently. A
//! hit is a lookup that found its cone resident, a miss one that
//! eliminated it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use polytops_deps::Dependence;
use polytops_math::{farkas_cone, farkas_substitute, ConstraintSystem};

use crate::costfn::DepConstraint;
use crate::error::ScheduleError;
use crate::space::IlpSpace;

/// The Farkas cones of one SCoP's dependences, shareable across
/// scheduling runs (and threads) of that SCoP under any configuration.
#[derive(Debug)]
pub struct FarkasCache {
    cones: Vec<OnceLock<ConstraintSystem>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl FarkasCache {
    /// Creates an empty cache for `num_deps` dependences.
    pub fn new(num_deps: usize) -> FarkasCache {
        FarkasCache {
            cones: (0..num_deps).map(|_| OnceLock::new()).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Number of dependences the cache was sized for.
    pub fn num_deps(&self) -> usize {
        self.cones.len()
    }

    /// Total lookups that found their cone resident, across every run
    /// (and thread) that shared the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that eliminated a cone, across every run (and
    /// thread) that shared the cache.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The cone of dependence `e`, eliminated on first use, and whether
    /// it was resident already. Two threads racing on an empty slot both
    /// eliminate; the results are equal and one is kept.
    fn cone(&self, e: usize, dep: &Dependence) -> Result<(&ConstraintSystem, bool), ScheduleError> {
        let slot = &self.cones[e];
        let hit = slot.get().is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            let _timing = polytops_obs::time("farkas.eliminate_ns");
            let cone = farkas_cone(&dep.poly)?;
            polytops_obs::count("farkas.cone_rows", cone.len() as u64);
            let _ = slot.set(cone);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Ok((slot.get().expect("filled above"), hit))
    }

    /// Appends the `kind` constraints of dependence `e` over `space` to
    /// `out`. Returns whether the dependence's cone was resident.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination or the
    /// substitution.
    pub fn extend(
        &self,
        kind: DepConstraint,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<bool, ScheduleError> {
        let (cone, hit) = self.cone(e, dep)?;
        let _timing = polytops_obs::time("farkas.replay_ns");
        let template = kind.template(dep, e, space);
        out.extend(&farkas_substitute(cone, &template, space.total())?);
        Ok(hit)
    }

    /// Eliminates the cone of every dependence in `deps` that is not
    /// resident yet, so that no later lookup misses (the restore path's
    /// "serve warm" guarantee).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from an elimination.
    pub fn prewarm(&self, deps: &[Dependence]) -> Result<(), ScheduleError> {
        for (e, dep) in deps.iter().enumerate() {
            self.cone(e, dep)?;
        }
        Ok(())
    }
}

/// One run's view of a (possibly [`Arc`]-shared) [`FarkasCache`].
///
/// The cache's own counters aggregate over every run that shares it —
/// concurrent scenarios would otherwise pollute each other's
/// [`PipelineStats`](crate::pipeline::PipelineStats). A session wraps
/// the shared cache with thread-local hit/miss counters so each engine
/// run reports exactly the lookups *it* performed, while cones (and the
/// global totals) remain shared.
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

    /// Lookups of this session that found their cone resident
    /// (including cones eliminated by *other* sessions sharing the
    /// cache — that is the cross-scenario amortization being measured).
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    /// Cones this session had to eliminate.
    pub fn misses(&self) -> usize {
        self.misses.get()
    }

    /// Session-counted [`FarkasCache::extend`].
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination or the
    /// substitution.
    pub fn extend(
        &self,
        kind: DepConstraint,
        e: usize,
        dep: &Dependence,
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        let counter = if self.cache.extend(kind, e, dep, space, out)? {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::analyze;
    use polytops_math::{ineq_implied, RowKind};
    use polytops_workloads::stencil_chain as chain;
    use polytops_workloads::{all_kernels, synthetic::long_chain};

    fn validity(cache: &FarkasCache, dep: &Dependence, space: &IlpSpace) -> ConstraintSystem {
        let mut out = ConstraintSystem::new(space.total());
        cache
            .extend(DepConstraint::Validity, 0, dep, space, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn second_lookup_hits_and_replays_identical_rows() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = FarkasCache::new(deps.len());

        let first = validity(&cache, &deps[0], &space);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let second = validity(&cache, &deps[0], &space);
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
            .extend(DepConstraint::Validity, 0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((first.hits(), first.misses()), (0, 1));

        // A second session finds the first session's cone — under
        // another constraint kind too: a hit locally, and the global
        // totals see both lookups.
        let second = CacheSession::new(Arc::clone(&cache));
        let mut out = ConstraintSystem::new(space.total());
        second
            .extend(DepConstraint::Proximity, 0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((second.hits(), second.misses()), (1, 0));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn every_layout_substitutes_into_the_one_cone() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let wide = IlpSpace::new(&scop, vec!["x".into()], deps.len(), true, true);
        assert_ne!(space.total(), wide.total());
        let cache = FarkasCache::new(deps.len());

        let narrow_rows = validity(&cache, &deps[0], &space);
        let wide_rows = validity(&cache, &deps[0], &wide);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Each equals what a cold cache builds for that layout alone.
        let cold = FarkasCache::new(deps.len());
        assert_eq!(wide_rows, validity(&cold, &deps[0], &wide));
        let cold = FarkasCache::new(deps.len());
        assert_eq!(narrow_rows, validity(&cold, &deps[0], &space));
    }

    #[test]
    fn prewarm_leaves_nothing_to_eliminate() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(deps.len()));
        cache.prewarm(&deps).unwrap();
        assert_eq!(cache.misses(), deps.len());
        let session = CacheSession::new(Arc::clone(&cache));
        for kind in [
            DepConstraint::Validity,
            DepConstraint::Proximity,
            DepConstraint::Feautrier,
        ] {
            for (e, dep) in deps.iter().enumerate() {
                let mut out = ConstraintSystem::new(space.total());
                session.extend(kind, e, dep, &space, &mut out).unwrap();
            }
        }
        assert_eq!((session.hits(), session.misses()), (3 * deps.len(), 0));
    }

    #[test]
    fn bundled_cones_are_irredundant_and_pinned() {
        // Every cone row is substituted on every lookup and carried
        // through every ILP stage: a cone that keeps redundant rows again
        // fails here, not only in a bench.
        let mut scops: Vec<_> = all_kernels().into_iter().map(|(_, scop)| scop).collect();
        scops.extend([8, 12, 16].map(long_chain));
        let (mut deps, mut rows) = (0, 0);
        for scop in &scops {
            for dep in analyze(scop) {
                let cone = farkas_cone(&dep.poly).unwrap();
                deps += 1;
                rows += cone.len();
                for (i, (kind, row)) in cone.iter().enumerate() {
                    if kind != RowKind::Ineq {
                        continue;
                    }
                    let mut rest = ConstraintSystem::new(cone.num_vars());
                    for (j, (kind, other)) in cone.iter().enumerate() {
                        match kind {
                            _ if j == i => {}
                            RowKind::Eq => rest.add_eq(other.to_vec()),
                            RowKind::Ineq => rest.add_ineq(other.to_vec()),
                        }
                    }
                    assert!(!ineq_implied(&rest, row), "row {i} of {cone:?}");
                }
            }
        }
        assert_eq!((deps, rows), (107, 506));
    }

    #[test]
    fn concurrent_sessions_share_one_elimination_soundly() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(deps.len()));
        let reference = validity(&FarkasCache::new(deps.len()), &deps[0], &space);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let session = CacheSession::new(Arc::clone(&cache));
                    let mut out = ConstraintSystem::new(space.total());
                    for _ in 0..2 {
                        session
                            .extend(DepConstraint::Validity, 0, &deps[0], &space, &mut out)
                            .unwrap();
                    }
                    let mut twice = reference.clone();
                    twice.extend(&reference);
                    assert_eq!(out, twice);
                    // Racing sessions may each eliminate the empty slot,
                    // but never more than once.
                    assert!(session.misses() <= 1);
                    assert_eq!(session.hits() + session.misses(), 2);
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert!((1..=4).contains(&cache.misses()));
    }
}
