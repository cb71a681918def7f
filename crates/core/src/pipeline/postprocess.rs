//! PostProcess stage: tree-to-tree transformations of the solver's
//! schedule (paper Fig. 1's post-processing block).
//!
//! The stage lowers the engine's flat schedule into an explicit
//! [`ScheduleTree`] and expresses every transformation structurally:
//!
//! * **Tiling** replaces a point band with a `Mark::Tile` over a *tile
//!   band* (one member `⌊row·x / size⌋` per point member) over the
//!   original point band.
//! * **Wavefront** skews the outermost member of a *tile* band into the
//!   sum of the band's members (`Σ ⌊rowⱼ·x / sizeⱼ⌋` — inexpressible in
//!   the flat row form, which is one reason the tree exists), falling
//!   back to point bands when the schedule is untiled. The skew commits
//!   only when it *increases* the number of coincident members: a
//!   dependence crossing tiles always crosses the skewed outer member
//!   first, so inner tile members become parallel (Pluto §5.3 lifted to
//!   tile space).
//! * **Intra-tile vectorization** rotates a coincident point member to
//!   the innermost position of its tiled band (tile members and sizes
//!   follow), and vectorization directives/auto-detection become
//!   `Mark::Vectorize` annotations.
//!
//! Every transformation is **verified before it is committed**, by the
//! independent dependence oracle ([`polytops_deps::Certifier`]): the
//! candidate's instance order must respect every dependence *whose step
//! sequence the rewrite changed*. That is every dependence there is to
//! check — a verdict is a function of (dependence, step sequence), the
//! tree a rewrite starts from is certified by induction (the lowering
//! of the engine's schedule is legal by its Farkas construction, each
//! committed rewrite by this check), so a dependence that crosses the
//! same steps before and after keeps the verdict it had. A
//! transformation that fails verification is silently dropped —
//! post-processing, like directives, is best-effort and never breaks
//! legality. Coincidence flags of transformed bands are recomputed with
//! the *conditioned* oracle on the same walk (zero distance given equal
//! outer coordinates); untransformed bands keep the engine's flags so
//! model scores of plain schedules are unchanged.

use std::collections::HashMap;
use std::ops::Range;

use polytops_deps::Certifier;
use polytops_ir::{
    BandMember, MarkKind, MemberTerm, PathStep, Schedule, ScheduleTree, StmtId, TreeNode,
};

use crate::config::{DirectiveKind, SchedulerConfig};
use crate::pipeline::objectives::expand_targets;

/// Applies the configured post-processing to `sched` in place: lowers
/// the schedule to a tree, transforms it, and attaches the result
/// (every schedule leaves this stage with an explicit tree). `oracle`
/// answers for the dependences of the schedule's SCoP.
pub fn apply(oracle: &mut Certifier<'_>, sched: &mut Schedule, config: &SchedulerConfig) {
    let mut tree = sched.tree_or_lowered();
    let post = &config.post;
    if !post.tile_sizes.is_empty() {
        let _timing = polytops_obs::time("postprocess.tile_ns");
        tile(oracle, sched, &mut tree, &post.tile_sizes);
    }
    if post.wavefront {
        let _timing = polytops_obs::time("postprocess.wavefront_ns");
        wavefront(oracle, &mut tree);
    }
    if post.intra_tile_vectorize && !post.tile_sizes.is_empty() {
        let _timing = polytops_obs::time("postprocess.rotate_ns");
        intra_tile_vectorize(oracle, &mut tree);
    }
    vectorize_marks(sched, &mut tree, config);
    sched.set_tree(tree);
}

// ---------------------------------------------------------------------
// Oracle plumbing.
// ---------------------------------------------------------------------

/// The commit gate of every transformation: whether `candidate`, a
/// rewrite of the certified `tree`, respects every dependence. With it
/// come the conditioned coincidence flags of the candidate's members
/// with structural node ids `flags` — a member is coincident iff, for
/// every dependence, its step distance is zero given equal coordinates
/// on all *prefix* steps (dependences that never reach the member —
/// separated earlier or filtered apart — are vacuously fine; a member
/// no statement crosses is not coincident).
fn certify_rewrite(
    oracle: &mut Certifier<'_>,
    tree: &ScheduleTree,
    candidate: &ScheduleTree,
    flags: Range<usize>,
) -> Option<Vec<bool>> {
    let after = candidate.stmt_paths();
    let mut out = oracle.certify_rewrite(&tree.stmt_paths(), &after, flags.clone())?;
    let crossed = |id: usize| {
        let on = |step: &PathStep| matches!(step, PathStep::Member { node, .. } if *node == id);
        after.iter().any(|path| path.iter().any(on))
    };
    for (flag, id) in out.iter_mut().zip(flags) {
        *flag &= crossed(id);
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Band location.
// ---------------------------------------------------------------------

/// Where a band sits when the rewrite walk reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BandCtx {
    /// An ordinary (point) band.
    Plain,
    /// Directly under a `Mark::Tile` (possibly through other marks): a
    /// tile band.
    UnderTileMark,
    /// Directly under another band: the point band of a tiled nest.
    UnderBand,
}

/// Total number of bands in the subtree.
fn count_bands(node: &TreeNode) -> usize {
    match node {
        TreeNode::Leaf => 0,
        TreeNode::Filter { child, .. } | TreeNode::Mark { child, .. } => count_bands(child),
        TreeNode::Band { child, .. } => 1 + count_bands(child),
        TreeNode::Sequence(children) => children.iter().map(count_bands).sum(),
    }
}

/// Callback of [`rewrite_nth_band`]: sees a band's context and parts
/// and returns the replacement node (or `None` to decline).
type BandRewrite<'a> = dyn FnMut(BandCtx, &[BandMember], bool, &TreeNode) -> Option<TreeNode> + 'a;

/// Rewrites the `target`-th band (depth-first order, the numbering of
/// [`count_bands`] and [`ScheduleTree::for_each_band`]) with `f`, which
/// sees the band's context and parts and returns the replacement node
/// (or `None` to decline). Returns `None` when nothing was rewritten.
fn rewrite_nth_band(
    node: &TreeNode,
    count: &mut usize,
    target: usize,
    ctx: BandCtx,
    f: &mut BandRewrite<'_>,
) -> Option<TreeNode> {
    match node {
        TreeNode::Leaf => None,
        TreeNode::Filter { stmts, child } => {
            rewrite_nth_band(child, count, target, BandCtx::Plain, f).map(|c| TreeNode::Filter {
                stmts: stmts.clone(),
                child: c.boxed(),
            })
        }
        TreeNode::Mark { kind, child } => {
            let ctx = if matches!(kind, MarkKind::Tile(_)) {
                BandCtx::UnderTileMark
            } else {
                ctx
            };
            rewrite_nth_band(child, count, target, ctx, f).map(|c| TreeNode::Mark {
                kind: kind.clone(),
                child: c.boxed(),
            })
        }
        TreeNode::Sequence(children) => {
            for (i, c) in children.iter().enumerate() {
                if let Some(nc) = rewrite_nth_band(c, count, target, BandCtx::Plain, f) {
                    let mut out = children.clone();
                    out[i] = nc;
                    return Some(TreeNode::Sequence(out));
                }
            }
            None
        }
        TreeNode::Band {
            members,
            permutable,
            child,
        } => {
            let idx = *count;
            *count += 1;
            if idx == target {
                return f(ctx, members, *permutable, child);
            }
            rewrite_nth_band(child, count, target, BandCtx::UnderBand, f).map(|c| TreeNode::Band {
                members: members.clone(),
                permutable: *permutable,
                child: c.boxed(),
            })
        }
    }
}

/// Convenience: runs [`rewrite_nth_band`] over a whole tree.
fn rewrite_band(
    tree: &ScheduleTree,
    target: usize,
    f: &mut BandRewrite<'_>,
) -> Option<ScheduleTree> {
    let mut count = 0;
    rewrite_nth_band(&tree.root, &mut count, target, BandCtx::Plain, f).map(|root| ScheduleTree {
        nstmts: tree.nstmts,
        root,
    })
}

// ---------------------------------------------------------------------
// Flat-schedule helpers (tile-loop parallelism uses the engine's
// unconditioned rule so plain-tiling model scores match the engine).
// ---------------------------------------------------------------------

/// Dependences not strongly carried by any flat dimension before
/// `start`.
fn live_at(oracle: &mut Certifier<'_>, sched: &Schedule, start: usize) -> Vec<usize> {
    let deps = oracle.deps();
    let mut live: Vec<usize> = (0..deps.len()).collect();
    for d in 0..start {
        live.retain(|&e| {
            let dep = &deps[e];
            !oracle.strongly_satisfies(
                e,
                &sched.stmt(dep.src).rows()[d],
                &sched.stmt(dep.dst).rows()[d],
            )
        });
    }
    live
}

// ---------------------------------------------------------------------
// Tiling.
// ---------------------------------------------------------------------

/// Tiles every point band: `Mark::Tile` over a tile band over the point
/// band, the candidate certified against the oracle before committing.
/// `tile_sizes` supplies one size per band depth and is cycled when the
/// band is deeper.
fn tile(oracle: &mut Certifier<'_>, sched: &Schedule, tree: &mut ScheduleTree, tile_sizes: &[i64]) {
    let deps = oracle.deps();
    let mut bi = 0;
    while bi < count_bands(&tree.root) {
        let candidate = rewrite_band(tree, bi, &mut |ctx, members, permutable, child| {
            if ctx != BandCtx::Plain || !members.iter().all(BandMember::is_affine) {
                return None;
            }
            let sizes: Vec<i64> = (0..members.len())
                .map(|i| tile_sizes[i % tile_sizes.len()].max(1))
                .collect();
            // A tile loop executes outside the band's point loops, so it
            // is parallel only when every dependence live at *band
            // entry* has zero distance on its dimension — a dependence
            // carried by an earlier member of the same band still
            // crosses tiles.
            let start = members[0].source_dim();
            let live = live_at(oracle, sched, start);
            let tile_members: Vec<BandMember> = members
                .iter()
                .zip(&sizes)
                .map(|(m, &size)| {
                    let t = &m.terms[0];
                    let parallel = live.iter().all(|&e| {
                        let dep = &deps[e];
                        oracle.zero_distance(
                            e,
                            &sched.stmt(dep.src).rows()[t.source_dim],
                            &sched.stmt(dep.dst).rows()[t.source_dim],
                        )
                    });
                    BandMember {
                        terms: vec![MemberTerm {
                            rows: t.rows.clone(),
                            div: size,
                            source_dim: t.source_dim,
                        }],
                        coincident: parallel,
                    }
                })
                .collect();
            Some(TreeNode::Mark {
                kind: MarkKind::Tile(sizes),
                child: TreeNode::Band {
                    members: tile_members,
                    permutable,
                    child: TreeNode::Band {
                        members: members.to_vec(),
                        permutable,
                        child: child.clone().boxed(),
                    }
                    .boxed(),
                }
                .boxed(),
            })
        });
        match candidate {
            Some(c) if certify_rewrite(oracle, tree, &c, 0..0).is_some() => {
                *tree = c;
                // The rewrite put two bands (tile + point) where one
                // was; continue past both.
                bi += 2;
            }
            _ => bi += 1,
        }
    }
}

// ---------------------------------------------------------------------
// Wavefront skewing.
// ---------------------------------------------------------------------

/// Coincident-member count of the `target`-th band.
fn coincident_count(tree: &ScheduleTree, target: usize) -> usize {
    let mut n = 0;
    let mut k = 0;
    tree.for_each_band(|_, members| {
        if k == target {
            n = members.iter().filter(|m| m.coincident).count();
        }
        k += 1;
    });
    n
}

/// The structural node ids of the members of bands `bands` (adjacent
/// in depth-first order, so one range).
fn member_ids(tree: &ScheduleTree, bands: Range<usize>) -> Range<usize> {
    let mut ids = 0..0;
    let mut k = 0;
    tree.for_each_band(|first, members| {
        if bands.contains(&k) {
            if ids.is_empty() {
                ids.start = first;
            }
            ids.end = first + members.len();
        }
        k += 1;
    });
    ids
}

/// Sets the coincidence flags of the members with structural node ids
/// `ids` (other members keep theirs).
fn set_flags(tree: &mut ScheduleTree, ids: Range<usize>, flags: &[bool]) {
    tree.for_each_band_mut(|first, members| {
        for (j, m) in members.iter_mut().enumerate() {
            if ids.contains(&(first + j)) {
                m.coincident = flags[first + j - ids.start];
            }
        }
    });
}

/// Wavefront-skews bands whose outermost member is sequential: the
/// outer member becomes the sum of the band's members. Tile bands are
/// preferred (the terms concatenate into a sum of floors); untiled
/// point bands fall back to the classic affine row sum. A skew commits
/// only when it is certified against every dependence and loses no
/// coincident members (the user asked for a wavefront; pipelining an
/// already-parallel-inside band is allowed, degrading one is not).
fn wavefront(oracle: &mut Certifier<'_>, tree: &mut ScheduleTree) {
    let mut bi = 0;
    while bi < count_bands(&tree.root) {
        let candidate = rewrite_band(tree, bi, &mut |ctx, members, _permutable, child| {
            if members.len() < 2 || members[0].coincident {
                return None;
            }
            let skewed = match ctx {
                BandCtx::UnderBand => return None,
                BandCtx::UnderTileMark => BandMember {
                    terms: members.iter().flat_map(|m| m.terms.clone()).collect(),
                    coincident: false,
                },
                BandCtx::Plain => {
                    if !members.iter().all(BandMember::is_affine) {
                        return None;
                    }
                    let t0 = &members[0].terms[0];
                    let rows: Vec<Vec<i64>> = (0..t0.rows.len())
                        .map(|s| {
                            let mut sum = t0.rows[s].clone();
                            for m in &members[1..] {
                                for (acc, v) in sum.iter_mut().zip(&m.terms[0].rows[s]) {
                                    *acc += v;
                                }
                            }
                            sum
                        })
                        .collect();
                    BandMember {
                        terms: vec![MemberTerm {
                            rows,
                            div: 1,
                            source_dim: t0.source_dim,
                        }],
                        coincident: false,
                    }
                }
            };
            let mut out = members.to_vec();
            out[0] = skewed;
            Some(TreeNode::Mark {
                kind: MarkKind::Wavefront,
                child: TreeNode::Band {
                    members: out,
                    // The skewed member is not freely interchangeable
                    // with the others.
                    permutable: false,
                    child: child.clone().boxed(),
                }
                .boxed(),
            })
        });
        if let Some(mut c) = candidate {
            let ids = member_ids(&c, bi..bi + 1);
            if let Some(flags) = certify_rewrite(oracle, tree, &c, ids.clone()) {
                set_flags(&mut c, ids, &flags);
                if coincident_count(&c, bi) >= coincident_count(tree, bi) {
                    *tree = c;
                }
            }
        }
        bi += 1;
    }
}

// ---------------------------------------------------------------------
// Intra-tile vectorization.
// ---------------------------------------------------------------------

/// Rotates a coincident point member to the innermost position of its
/// tiled band so it can be vectorized; the corresponding tile member
/// and the mark's size list follow. Rewrites the first eligible tiled
/// nest starting at `skip` (depth-first over `Mark::Tile` nodes).
fn rotate_tiled_nest(node: &TreeNode, skip: &mut isize) -> Option<TreeNode> {
    match node {
        TreeNode::Leaf => None,
        TreeNode::Filter { stmts, child } => {
            rotate_tiled_nest(child, skip).map(|c| TreeNode::Filter {
                stmts: stmts.clone(),
                child: c.boxed(),
            })
        }
        TreeNode::Sequence(children) => {
            for (i, c) in children.iter().enumerate() {
                if let Some(nc) = rotate_tiled_nest(c, skip) {
                    let mut out = children.clone();
                    out[i] = nc;
                    return Some(TreeNode::Sequence(out));
                }
            }
            None
        }
        TreeNode::Band {
            members,
            permutable,
            child,
        } => rotate_tiled_nest(child, skip).map(|c| TreeNode::Band {
            members: members.clone(),
            permutable: *permutable,
            child: c.boxed(),
        }),
        TreeNode::Mark { kind, child } => {
            if let MarkKind::Tile(sizes) = kind {
                let my_turn = *skip == 0;
                *skip -= 1;
                if my_turn {
                    if let Some((under, sizes)) = rotate_under_tile_mark(child, sizes) {
                        return Some(TreeNode::Mark {
                            kind: MarkKind::Tile(sizes),
                            child: under.boxed(),
                        });
                    }
                }
                None
            } else {
                rotate_tiled_nest(child, skip).map(|c| TreeNode::Mark {
                    kind: kind.clone(),
                    child: c.boxed(),
                })
            }
        }
    }
}

/// The swap itself: given the subtree under a `Mark::Tile`, finds the
/// tile band and its point band, picks the rightmost coincident point
/// member `p` (when the innermost is sequential) and swaps `p` with the
/// innermost in both bands; returns the rebuilt subtree plus the
/// reordered size list.
fn rotate_under_tile_mark(under: &TreeNode, sizes: &[i64]) -> Option<(TreeNode, Vec<i64>)> {
    match under {
        // The tile band may sit under further marks (e.g. wavefront).
        TreeNode::Mark { kind, child } => rotate_under_tile_mark(child, sizes).map(|(c, sizes)| {
            (
                TreeNode::Mark {
                    kind: kind.clone(),
                    child: c.boxed(),
                },
                sizes,
            )
        }),
        TreeNode::Band {
            members: tile_members,
            permutable,
            child,
        } => {
            let TreeNode::Band {
                members: point_members,
                permutable: point_permutable,
                child: body,
            } = child.as_ref()
            else {
                return None;
            };
            let n = point_members.len();
            if n < 2 || point_members[n - 1].coincident {
                return None;
            }
            let p = (0..n - 1).rev().find(|&d| point_members[d].coincident)?;
            // A wavefronted tile band owns a skewed member 0 that no
            // longer corresponds 1:1 to a point member; only swap tile
            // members that do.
            let mut tiles = tile_members.clone();
            if tiles.len() == n {
                tiles.swap(p, n - 1);
            }
            let mut points = point_members.clone();
            points.swap(p, n - 1);
            let mut sizes = sizes.to_vec();
            if sizes.len() == n {
                sizes.swap(p, n - 1);
            }
            Some((
                TreeNode::Band {
                    members: tiles,
                    permutable: *permutable,
                    child: TreeNode::Band {
                        members: points,
                        permutable: *point_permutable,
                        child: body.clone().boxed(),
                    }
                    .boxed(),
                },
                sizes,
            ))
        }
        _ => None,
    }
}

/// Driver: tries each tiled nest in turn, committing certified
/// rotations (flags of both bands of a rotated nest are recomputed with
/// the conditioned oracle — the permutation changes every prefix — on
/// the walk that certifies it).
fn intra_tile_vectorize(oracle: &mut Certifier<'_>, tree: &mut ScheduleTree) {
    let ntiles = tree
        .marks()
        .iter()
        .filter(|m| matches!(m, MarkKind::Tile(_)))
        .count();
    for nest in 0..ntiles {
        let mut skip = nest as isize;
        let Some(root) = rotate_tiled_nest(&tree.root, &mut skip) else {
            continue;
        };
        let mut candidate = ScheduleTree {
            nstmts: tree.nstmts,
            root,
        };
        // Locate the rotated nest's two bands: they are the bands whose
        // members differ from `tree`'s at the same index, the point band
        // right below the tile band.
        let mut before = Vec::new();
        tree.for_each_band(|_, m| before.push(m.to_vec()));
        let mut changed: Option<Range<usize>> = None;
        let mut k = 0;
        candidate.for_each_band(|_, m| {
            if before.get(k).map(Vec::as_slice) != Some(m) {
                changed = Some(changed.take().map_or(k, |c| c.start)..k + 1);
            }
            k += 1;
        });
        let Some(changed) = changed else { continue };
        let ids = member_ids(&candidate, changed);
        if let Some(flags) = certify_rewrite(oracle, tree, &candidate, ids.clone()) {
            set_flags(&mut candidate, ids, &flags);
            *tree = candidate;
        }
    }
}

// ---------------------------------------------------------------------
// Vectorization marks.
// ---------------------------------------------------------------------

/// Attaches `Mark::Vectorize` annotations: explicit directives first
/// (the statement's last member using the directive's iterator), then
/// the auto-vectorize heuristic (the statement's innermost member, when
/// coincident). Marks carry the statement sets and wrap the member's
/// band.
fn vectorize_marks(sched: &Schedule, tree: &mut ScheduleTree, config: &SchedulerConfig) {
    let nstmts = tree.nstmts;
    let paths = tree.stmt_paths();
    // Per statement: the structural node id of its vector member.
    let mut choice: Vec<Option<usize>> = vec![None; nstmts];
    for d in &config.directives {
        if d.kind != DirectiveKind::Vectorize {
            continue;
        }
        for s in expand_targets(d.stmts.as_ref(), nstmts) {
            let depth = sched.stmt(StmtId(s)).depth();
            if d.iterator >= depth {
                continue;
            }
            let last = paths[s].iter().rev().find_map(|step| match step {
                PathStep::Member { node, terms, .. }
                    if terms.iter().any(|(row, _)| row[d.iterator] != 0) =>
                {
                    Some(*node)
                }
                _ => None,
            });
            if last.is_some() {
                choice[s] = last;
            }
        }
    }
    if config.auto_vectorize {
        for (s, c) in choice.iter_mut().enumerate() {
            if c.is_some() {
                continue;
            }
            // Strictly the innermost member: an outer coincident member
            // is not vectorizable in place.
            *c = paths[s]
                .iter()
                .rev()
                .find_map(|step| match step {
                    PathStep::Member {
                        node, coincident, ..
                    } => Some((*node, *coincident)),
                    _ => None,
                })
                .and_then(|(node, coincident)| coincident.then_some(node));
        }
    }
    // Group statements by the band owning their chosen member.
    let mut bands: Vec<(usize, usize)> = Vec::new(); // (first member id, len)
    tree.for_each_band(|first, members| bands.push((first, members.len())));
    let mut by_band: HashMap<usize, Vec<usize>> = HashMap::new();
    for (s, c) in choice.iter().enumerate() {
        let Some(id) = c else { continue };
        if let Some(bi) = bands
            .iter()
            .position(|&(first, len)| (first..first + len).contains(id))
        {
            by_band.entry(bi).or_default().push(s);
        }
    }
    for (bi, mut stmts) in by_band {
        stmts.sort_unstable();
        let rewritten = rewrite_band(tree, bi, &mut |_, members, permutable, child| {
            Some(TreeNode::Mark {
                kind: MarkKind::Vectorize(stmts.clone()),
                child: TreeNode::Band {
                    members: members.to_vec(),
                    permutable,
                    child: child.clone().boxed(),
                }
                .boxed(),
            })
        });
        if let Some(t) = rewritten {
            *tree = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::{analyze, order_steps, steps_respect_dependence, Dependence};
    use polytops_ir::{Aff, Scop, ScopBuilder};

    /// Whether every dependence is respected by the tree's instance
    /// order, each asked from scratch.
    fn tree_respects_all(deps: &[Dependence], tree: &ScheduleTree) -> bool {
        let paths = tree.stmt_paths();
        deps.iter().all(|dep| {
            let steps = order_steps(&paths[dep.src.0], &paths[dep.dst.0]);
            steps_respect_dependence(dep, &steps)
        })
    }

    /// `for t for i A[i] = A[i-1] + A[i+1];` — the classic skewing case.
    fn jacobi() -> Scop {
        let mut b = ScopBuilder::new("jacobi");
        let t = b.param("T");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("t", Aff::val(0), t - 1);
        b.open_loop("i", Aff::val(1), n - 2);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .read(a, &[Aff::var("i") + 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    /// The first tile-marked nest of the tree: (sizes, tile band
    /// members, point band members).
    fn tiled_nest(tree: &ScheduleTree) -> Option<(Vec<i64>, Vec<BandMember>, Vec<BandMember>)> {
        fn walk(node: &TreeNode) -> Option<(Vec<i64>, Vec<BandMember>, Vec<BandMember>)> {
            match node {
                TreeNode::Leaf => None,
                TreeNode::Filter { child, .. } => walk(child),
                TreeNode::Band { child, .. } => walk(child),
                TreeNode::Sequence(children) => children.iter().find_map(walk),
                TreeNode::Mark { kind, child } => match kind {
                    MarkKind::Tile(sizes) => {
                        let mut under = child.as_ref();
                        while let TreeNode::Mark { child, .. } = under {
                            under = child.as_ref();
                        }
                        let TreeNode::Band {
                            members: tiles,
                            child,
                            ..
                        } = under
                        else {
                            return None;
                        };
                        let TreeNode::Band {
                            members: points, ..
                        } = child.as_ref()
                        else {
                            return None;
                        };
                        Some((sizes.clone(), tiles.clone(), points.clone()))
                    }
                    _ => walk(child),
                },
            }
        }
        walk(&tree.root)
    }

    #[test]
    fn tiling_builds_a_certified_tile_band() {
        let scop = jacobi();
        let deps = analyze(&scop);
        let mut cfg = crate::SchedulerConfig::default();
        cfg.post.tile_sizes = vec![16];
        let sched = crate::schedule(&scop, &cfg).unwrap();
        let tree = sched.tree().expect("post-processing attaches a tree");
        let (sizes, tiles, points) = tiled_nest(tree).expect("jacobi band tiles");
        assert_eq!(sizes, vec![16, 16]);
        assert_eq!(tiles.len(), 2);
        assert_eq!(points.len(), 2);
        assert!(tiles.iter().all(|m| m.terms[0].div == 16));
        assert!(tree_respects_all(&deps, tree));
    }

    #[test]
    fn wavefront_skews_the_tile_band_and_exposes_coincidence() {
        let scop = jacobi();
        let deps = analyze(&scop);
        let sched = crate::schedule(&scop, &crate::presets::wavefront()).unwrap();
        let tree = sched.tree().expect("tree attached");
        let (_, tiles, _) = tiled_nest(tree).expect("tiled");
        // The outer tile member is the wavefront: a sum of two floored
        // terms — and the skew makes the inner tile member coincident.
        assert_eq!(tiles[0].terms.len(), 2, "skewed outer member");
        assert!(!tiles[0].coincident);
        assert!(
            tiles[1].coincident,
            "wavefront exposes tile-level parallelism"
        );
        assert!(
            tree.marks()
                .iter()
                .any(|m| matches!(m, MarkKind::Wavefront)),
            "wavefront mark present"
        );
        assert!(tree_respects_all(&deps, tree));
    }

    #[test]
    fn tile_loops_are_stricter_than_point_loops_about_parallelism() {
        // A[i][j] = A[i-1][j-1] + A[i-1][j+1]: pluto skews to (i, i+j).
        // Dimension 1 is point-parallel (both deps carried by dim 0) but
        // its TILE loop crosses the carried deps (distances (1,0)/(1,2)
        // after the skew land in different i+j tiles within one i tile),
        // so the tile loop must NOT be marked parallel.
        let mut b = ScopBuilder::new("skewed2d");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(1), n.clone() - 1);
        b.open_loop("j", Aff::val(1), n - 2);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1, Aff::var("j") - 1])
            .read(a, &[Aff::var("i") - 1, Aff::var("j") + 1])
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let mut cfg = crate::SchedulerConfig::default();
        cfg.post.tile_sizes = vec![8, 8];
        let sched = crate::schedule(&scop, &cfg).unwrap();
        let (_, tiles, points) = tiled_nest(sched.tree().unwrap()).expect("band must tile");
        assert!(
            points.last().unwrap().coincident,
            "inner point dimension is parallel"
        );
        assert!(
            tiles.iter().all(|m| !m.coincident),
            "no tile loop may be parallel here"
        );
    }

    #[test]
    fn apply_lowers_but_otherwise_preserves_default_postprocess() {
        let scop = jacobi();
        let deps = analyze(&scop);
        let mut sched = crate::schedule(&scop, &crate::SchedulerConfig::default()).unwrap();
        let before = sched.clone();
        let config = crate::SchedulerConfig::default();
        apply(&mut Certifier::new(&deps), &mut sched, &config);
        // Rows, bands and flags untouched; the tree is exactly the
        // lowering of the flat schedule.
        assert_eq!(
            sched.tree(),
            Some(&ScheduleTree::lower(&before)),
            "default post-processing attaches the plain lowering"
        );
    }

    #[test]
    fn intra_tile_vectorize_rotates_a_coincident_member_innermost() {
        // matmul-like: C[i][j] += A[i][k] * B[k][j]. i and j are
        // parallel, k carries; pluto orders (i, j, k) with k innermost
        // and sequential, so intra-tile vectorization must rotate a
        // coincident member to the innermost point position.
        let mut b = ScopBuilder::new("mm");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        let c = b.array("C", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::val(0), n.clone() - 1);
        b.open_loop("k", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i"), Aff::var("k")])
            .read(c, &[Aff::var("i"), Aff::var("j")])
            .write(c, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        let mut cfg = crate::SchedulerConfig::default();
        cfg.post.tile_sizes = vec![8];
        cfg.post.intra_tile_vectorize = true;
        let sched = crate::schedule(&scop, &cfg).unwrap();
        let tree = sched.tree().unwrap();
        let (_, _, points) = tiled_nest(tree).expect("tiled");
        assert!(
            points.last().unwrap().coincident,
            "rotation must leave a coincident member innermost: {:?}",
            points.iter().map(|m| m.coincident).collect::<Vec<_>>()
        );
        assert!(tree_respects_all(&deps, tree));
    }

    #[test]
    fn auto_vectorize_marks_the_innermost_coincident_member() {
        // Parallel copy loop: innermost (only) member is coincident.
        let mut b = ScopBuilder::new("copy");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let c = b.array("B", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i")])
            .write(c, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let cfg = crate::SchedulerConfig {
            auto_vectorize: true,
            ..Default::default()
        };
        let sched = crate::schedule(&scop, &cfg).unwrap();
        let tree = sched.tree().unwrap();
        assert!(
            tree.marks()
                .iter()
                .any(|m| matches!(m, MarkKind::Vectorize(stmts) if stmts == &vec![0])),
            "vectorize mark on the copy statement: {:?}",
            tree.marks()
        );
    }
}
