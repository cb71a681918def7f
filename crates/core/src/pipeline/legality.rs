//! Legality stage: one Farkas cone per dependence polyhedron.
//!
//! Validity (`Δ ≥ 0`), proximity (`u·N + w − Δ ≥ 0`) and Feautrier
//! (`Δ − x_e ≥ 0`) all ask which affine forms are non-negative on a
//! dependence polyhedron. The answer — the polyhedron's Farkas cone,
//! [`polytops_math::farkas_cone`] — is the expensive part (eliminating
//! the multipliers by Fourier–Motzkin, pruned as it runs so that no row
//! of the cone is redundant) and depends on the polyhedron alone: not on
//! the access pair or kind (flow, anti, output) that produced it, the
//! constraint kind, the dimension, the live set or the configuration's
//! ILP variable layout. [`FarkasCache`] eliminates it **once** per
//! polyhedron; every lookup then substitutes the asked
//! kind's [template](DepConstraint::template) over the asking run's
//! [`IlpSpace`] into it, which is a few multiplications per row — per
//! row the cone keeps, which is why it keeps none it does not need.
//!
//! The cache is `Send + Sync` (cones behind [`OnceLock`]), so the
//! scenario engine ([`crate::scenario`]) shares one per
//! SCoP among all its scenarios whatever their configuration, and a
//! registry entry keeps one resident across
//! requests. Cones are keyed by polyhedron: dependences that
//! [`polytops_deps::analyze`] gave one tableau
//! ([`Dependence::same_polyhedron`]) share one cone, and each dependence
//! index (deterministic for a given SCoP) maps to its polyhedron's slot.
//! Two dependences with one source, target and polyhedron also have one
//! validity and one proximity template, so
//! [`CacheSession::extend_classes`] replays such a class once.
//!
//! The cache counts nothing. Each run looks up through its own
//! [`CacheSession`], whose counters feed
//! [`PipelineStats`](crate::pipeline::PipelineStats) exactly even when
//! other threads use the same cache concurrently; a total over runs is
//! the sum of their sessions. A hit is a lookup that found its cone
//! resident, a miss one that eliminated it.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use polytops_deps::{polyhedron_classes, Dependence};
use polytops_math::{farkas_cone, ConstraintSystem};

use crate::costfn::DepConstraint;
use crate::error::ScheduleError;
use crate::space::IlpSpace;

/// The Farkas cones of one SCoP's dependence polyhedra, shareable
/// across scheduling runs (and threads) of that SCoP under any
/// configuration.
#[derive(Debug)]
pub struct FarkasCache {
    /// Per dependence, its polyhedron's slot in `cones`.
    slot: Vec<usize>,
    cones: Vec<OnceLock<ConstraintSystem>>,
}

impl FarkasCache {
    /// Creates an empty cache for `deps`, one slot per distinct
    /// polyhedron.
    pub fn new(deps: &[Dependence]) -> FarkasCache {
        let (mut slot, mut cones) = (Vec::with_capacity(deps.len()), Vec::new());
        for (e, first) in polyhedron_classes(deps).into_iter().enumerate() {
            if first == e {
                slot.push(cones.len());
                cones.push(OnceLock::new());
            } else {
                slot.push(slot[first]);
            }
        }
        FarkasCache { slot, cones }
    }

    /// The cone of dependence `e`'s polyhedron, eliminated on first use,
    /// and whether it was resident already. Two threads racing on an
    /// empty slot both eliminate; the results are equal and one is kept.
    fn cone(&self, e: usize, dep: &Dependence) -> Result<(&ConstraintSystem, bool), ScheduleError> {
        let slot = &self.cones[self.slot[e]];
        let hit = slot.get().is_some();
        if !hit {
            let _timing = polytops_obs::time("farkas.eliminate_ns");
            let cone = farkas_cone(dep.poly())?;
            polytops_obs::count("farkas.cone_rows", cone.len() as u64);
            let _ = slot.set(cone);
        }
        Ok((slot.get().expect("filled above"), hit))
    }

    /// Eliminates the cone of every polyhedron of `deps` (the
    /// dependences the cache was made for) that is not resident yet, so
    /// that no later lookup misses (the restore path's "serve warm"
    /// guarantee). Returns how many cones it eliminated.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from an elimination.
    pub fn prewarm(&self, deps: &[Dependence]) -> Result<usize, ScheduleError> {
        let mut eliminated = 0;
        for (e, dep) in deps.iter().enumerate() {
            eliminated += usize::from(!self.cone(e, dep)?.1);
        }
        Ok(eliminated)
    }
}

/// One run's view of a (possibly [`Arc`]-shared) [`FarkasCache`].
///
/// A session wraps the shared cache with its own hit/miss counters, so
/// each engine run reports exactly the lookups *it* performed — even
/// while concurrent scenarios look up in the same cache — and the cones
/// remain shared.
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

    /// Appends the `kind` constraints of dependence `e` over `space` to
    /// `out`, counting a hit when its polyhedron's cone was resident and
    /// a miss when it was eliminated here: the one lookup path of the
    /// cache.
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
        let (cone, hit) = self.cache.cone(e, dep)?;
        let _timing = polytops_obs::time("farkas.replay_ns");
        out.extend(&kind.substitute(cone, dep, e, space)?);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.set(counter.get() + 1);
        Ok(())
    }

    /// [`extend`](CacheSession::extend) of each dependence
    /// `deps[e]`, `e` in `ids`, once per (source, target, polyhedron): a
    /// repeat has the first one's cone and, for a `kind` other than
    /// Feautrier (whose template writes the dependence's own `x_e`
    /// column), its template, so it would only append rows that
    /// `normalize` drops.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the elimination or the
    /// substitution.
    pub fn extend_classes(
        &self,
        kind: DepConstraint,
        ids: &[usize],
        deps: &[Dependence],
        space: &IlpSpace,
        out: &mut ConstraintSystem,
    ) -> Result<(), ScheduleError> {
        debug_assert!(kind != DepConstraint::Feautrier, "x_e is per dependence");
        let class = |e: usize| (deps[e].src, deps[e].dst, self.cache.slot[e]);
        for (i, &e) in ids.iter().enumerate() {
            if ids[..i].iter().all(|&f| class(f) != class(e)) {
                self.extend(kind, e, &deps[e], space, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::analyze;
    use polytops_math::farkas_substitute;
    use polytops_math::{ineq_implied, RowKind};
    use polytops_workloads::all_kernels;
    use polytops_workloads::stencil_chain as chain;
    use polytops_workloads::synthetic::{long_chain, offset_chain};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn validity(session: &CacheSession, dep: &Dependence, space: &IlpSpace) -> ConstraintSystem {
        let mut out = ConstraintSystem::new(space.total());
        session
            .extend(DepConstraint::Validity, 0, dep, space, &mut out)
            .unwrap();
        out
    }

    fn session(deps: &[Dependence]) -> CacheSession {
        CacheSession::new(Arc::new(FarkasCache::new(deps)))
    }

    #[test]
    fn second_lookup_hits_and_replays_identical_rows() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = session(&deps);

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
        let cache = Arc::new(FarkasCache::new(&deps));

        let first = CacheSession::new(Arc::clone(&cache));
        let mut out = ConstraintSystem::new(space.total());
        first
            .extend(DepConstraint::Validity, 0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((first.hits(), first.misses()), (0, 1));

        // A second session finds the first session's cone — under
        // another constraint kind too: a hit locally, and the sum over
        // sessions sees both lookups.
        let second = CacheSession::new(Arc::clone(&cache));
        let mut out = ConstraintSystem::new(space.total());
        second
            .extend(DepConstraint::Proximity, 0, &deps[0], &space, &mut out)
            .unwrap();
        assert_eq!((second.hits(), second.misses()), (1, 0));
        let hits = first.hits() + second.hits();
        assert_eq!((hits, first.misses() + second.misses()), (1, 1));
    }

    #[test]
    fn every_layout_substitutes_into_the_one_cone() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let wide = IlpSpace::new(&scop, vec!["x".into()], deps.len(), true, true);
        assert_ne!(space.total(), wide.total());
        let cache = session(&deps);

        let narrow_rows = validity(&cache, &deps[0], &space);
        let wide_rows = validity(&cache, &deps[0], &wide);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Each equals what a cold cache builds for that layout alone.
        assert_eq!(wide_rows, validity(&session(&deps), &deps[0], &wide));
        assert_eq!(narrow_rows, validity(&session(&deps), &deps[0], &space));
    }

    #[test]
    fn prewarm_leaves_nothing_to_eliminate() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(&deps));
        assert_eq!(cache.prewarm(&deps).unwrap(), distinct_polyhedra(&deps));
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
        let (mut deps, mut polyhedra, mut rows) = (0, 0, 0);
        for scop in &scops {
            let analysis = analyze(scop);
            polyhedra += distinct_polyhedra(&analysis);
            for dep in analysis {
                let cone = farkas_cone(dep.poly()).unwrap();
                deps += 1;
                rows += cone.len();
                for (i, (kind, row)) in cone.iter().enumerate() {
                    if kind != RowKind::Ineq {
                        continue;
                    }
                    let mut rest = ConstraintSystem::new(cone.num_vars());
                    for (j, (kind, other)) in cone.iter().enumerate() {
                        if j != i {
                            rest.add_row(kind, other);
                        }
                    }
                    assert!(!ineq_implied(&rest, row), "row {i} of {cone:?}");
                }
            }
        }
        // One cone per polyhedron: 26 eliminations serve the 107
        // dependences.
        assert_eq!((deps, polyhedra, rows), (107, 26, 506));
    }

    fn distinct_polyhedra(deps: &[Dependence]) -> usize {
        (deps.iter().enumerate())
            .filter(|&(e, dep)| deps[..e].iter().all(|d| d.poly() != dep.poly()))
            .count()
    }

    #[test]
    fn every_dependence_reads_its_own_polyhedrons_cone() {
        // Whichever twin eliminated the shared cone, every dependence's
        // rows, under every kind and layout, are those of its own cone;
        // and replaying a kind once per (source, target, polyhedron)
        // leaves the normalized system of replaying it per dependence.
        let mut scops: Vec<_> = all_kernels().into_iter().map(|(_, scop)| scop).collect();
        scops.extend([8, 12, 16].map(long_chain));
        scops.push(offset_chain(&[(0, 1, 2), (1, 0, 3), (2, 2, 0), (0, 3, 1)]));
        for scop in &scops {
            let deps = analyze(scop);
            let narrow = IlpSpace::new(scop, vec![], deps.len(), false, false);
            let wide = IlpSpace::new(scop, vec!["x".into()], deps.len(), true, true);
            let cache = Arc::new(FarkasCache::new(&deps));
            let session = CacheSession::new(Arc::clone(&cache));
            for (e, dep) in deps.iter().enumerate() {
                let own = farkas_cone(dep.poly()).unwrap();
                for space in [&narrow, &wide] {
                    for kind in [
                        DepConstraint::Validity,
                        DepConstraint::Proximity,
                        DepConstraint::Feautrier,
                    ] {
                        let mut out = ConstraintSystem::new(space.total());
                        session.extend(kind, e, dep, space, &mut out).unwrap();
                        let template = kind.template(dep, e, space);
                        let rows: Vec<&[i64]> = template.chunks_exact(space.total() + 1).collect();
                        let expected = farkas_substitute(&own, &rows, space.total()).unwrap();
                        assert_eq!(out, expected, "{} dependence {e}", scop.name);
                    }
                }
            }
            assert_eq!(session.misses(), distinct_polyhedra(&deps));
            for kind in [DepConstraint::Validity, DepConstraint::Proximity] {
                let mut each = ConstraintSystem::new(narrow.total());
                for (e, dep) in deps.iter().enumerate() {
                    session.extend(kind, e, dep, &narrow, &mut each).unwrap();
                }
                let mut once = ConstraintSystem::new(narrow.total());
                let ids: Vec<usize> = (0..deps.len()).collect();
                (session.extend_classes(kind, &ids, &deps, &narrow, &mut once)).unwrap();
                assert!(once.len() <= each.len());
                assert_eq!(each.normalize(), once.normalize());
                assert_eq!(each, once, "{} {kind:?}", scop.name);
            }
        }
    }

    #[test]
    fn concurrent_sessions_share_one_elimination_soundly() {
        let scop = chain();
        let deps = analyze(&scop);
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let cache = Arc::new(FarkasCache::new(&deps));
        let reference = validity(&session(&deps), &deps[0], &space);
        let (hits, misses) = (AtomicUsize::new(0), AtomicUsize::new(0));
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
                    hits.fetch_add(session.hits(), Ordering::Relaxed);
                    misses.fetch_add(session.misses(), Ordering::Relaxed);
                });
            }
        });
        let (hits, misses) = (hits.into_inner(), misses.into_inner());
        assert_eq!(hits + misses, 8);
        assert!((1..=4).contains(&misses));
    }
}
