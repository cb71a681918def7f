//! PostProcess stage: tree-to-tree transformations of the solver's
//! schedule (paper Fig. 1's post-processing block).
//!
//! The stage rewrites the explicit [`ScheduleTree`] a schedule is built
//! with (the lowering of the engine's flat rows) and expresses every
//! transformation structurally:
//!
//! * **Tiling** replaces a point band with a `Mark::Tile` over a *tile
//!   band* (one member `⌊row·x / size⌋` per point member) over the
//!   original point band.
//! * **Wavefront** skews the outermost member of a *tile* band into the
//!   sum of the band's members (`Σ ⌊rowⱼ·x / sizeⱼ⌋` — inexpressible in
//!   the flat row form, which is one reason the tree exists), falling
//!   back to point bands when the schedule is untiled. The skew commits
//!   only when it loses no coincident members: a dependence crossing
//!   tiles always crosses the skewed outer member first, so inner tile
//!   members become parallel (Pluto §5.3 lifted to tile space).
//! * **Intra-tile vectorization** rotates a coincident point member to
//!   the innermost position of its tiled band (tile members and sizes
//!   follow), and vectorization directives/auto-detection become
//!   `Mark::Vectorize` annotations.
//!
//! Every transformation is **proved legal before it is committed**, by
//! a permutability proof asked of the dependence oracle
//! ([`polytops_deps::Certifier`]). Each rewrite replaces the steps of
//! one band (or one tiled nest) by steps that are sums of floored rows,
//! and that are all zero only where the old steps were. So it is legal
//! when every row of the new steps has `Δ ≥ 0` on every dependence live
//! at the band's entry whose two statements both reach the band: floors
//! are monotone, so every new step is `≥ 0`; where one is positive the
//! order is, and where all are zero so were the old steps, below which
//! the order is as it was. Dependences carried before the band never
//! have equal outer coordinates there, and the others cross the same
//! steps as before. Each row is one `Δ ≤ −1` question of the
//! dependence's base tableau — no floor variables — and the engine's
//! Farkas rows make every band it emits pass it (Pluto's
//! permutability). Which dependences are live at entry is the engine's
//! record (`carried_at` of `solve`'s engine), not re-asked.
//!
//! A transformation the proof does not cover is silently dropped —
//! post-processing, like directives, is best-effort and never breaks
//! legality.
//!
//! The proof also gives the coincidence flags of a proved wavefront or
//! rotation, with no floor variables. A member `m` of a rewritten band
//! is coincident iff some statement crosses it and
//!
//! * (exact) `m` is an inner member of a band directly under
//!   `Mark::Wavefront`: the proof gave every term `Δ ≥ 0`, floors are
//!   monotone, so a zero skewed step (their sum) forces every tile step
//!   to zero; or
//! * (sufficient) every term row of `m` has zero distance on every
//!   dependence live at the rewritten bands' entry whose two statements
//!   both cross `m` — one base-tableau question per polyhedron and row.
//!
//! Tile bands take the engine's unconditioned rule and untransformed
//! bands keep the engine's flags, so model scores of plain schedules
//! are unchanged. Test builds check every committed order and every
//! flag the rule sets against the from-scratch tree-order oracle of
//! `crates/deps/tests/reference`: its step walk, and its conditioned
//! coincidence (zero distance given equal outer coordinates).
//! `postprocess.rewrites_proved` counts the committed rewrites.

use std::collections::HashMap;
use std::ops::{Range, RangeBounds};

use polytops_deps::Certifier;
use polytops_ir::{
    BandMember, MarkKind, MemberTerm, PathStep, Schedule, ScheduleTree, StmtId, TreeNode,
};

use crate::config::{DirectiveKind, SchedulerConfig};
use crate::pipeline::objectives::expand_targets;

/// Applies the configured post-processing to `sched` in place: takes
/// the schedule's tree out, transforms it, and puts the result back.
/// `oracle` answers for the dependences of the schedule's SCoP;
/// `carried_at[e]` is the flat dimension whose row first carries
/// dependence `e` (`None` when none does), as the engine recorded it.
pub fn apply(
    oracle: &mut Certifier<'_>,
    sched: &mut Schedule,
    config: &SchedulerConfig,
    carried_at: &[Option<usize>],
) {
    let mut tree = sched.take_tree();
    let post = &config.post;
    let mut gate = Gate {
        oracle,
        sched,
        carried_at,
        proved: 0,
    };
    if !post.tile_sizes.is_empty() {
        let _timing = polytops_obs::time("postprocess.tile_ns");
        tile(&mut gate, &mut tree, &post.tile_sizes);
    }
    if post.wavefront {
        let _timing = polytops_obs::time("postprocess.wavefront_ns");
        wavefront(&mut gate, &mut tree);
    }
    if post.intra_tile_vectorize && !post.tile_sizes.is_empty() {
        let _timing = polytops_obs::time("postprocess.rotate_ns");
        intra_tile_vectorize(&mut gate, &mut tree);
    }
    if gate.proved > 0 {
        polytops_obs::count("postprocess.rewrites_proved", gate.proved);
    }
    vectorize_marks(sched, &mut tree, config);
    sched.set_tree(tree);
}

// ---------------------------------------------------------------------
// The commit gate.
// ---------------------------------------------------------------------

/// What every rewrite is committed through: the oracle, the flat
/// schedule the tree was lowered from, and the engine's record of where
/// each dependence was carried.
struct Gate<'g, 'a> {
    oracle: &'g mut Certifier<'a>,
    sched: &'g Schedule,
    carried_at: &'g [Option<usize>],
    /// Rewrites the permutability proof committed.
    proved: u64,
}

/// Whether a statement's path crosses the band member with structural
/// node id `id`.
fn crosses(path: &[PathStep], id: usize) -> bool {
    path.iter()
        .any(|step| matches!(step, PathStep::Member { node, .. } if *node == id))
}

impl Gate<'_, '_> {
    /// Dependences not carried by any flat dimension before `start`.
    fn live_at(&self, start: usize) -> Vec<usize> {
        let live: Vec<usize> = (0..self.carried_at.len())
            .filter(|&e| self.carried_at[e].is_none_or(|d| d >= start))
            .collect();
        #[cfg(test)]
        assert_eq!(
            live,
            tests::live_at(&mut Certifier::new(self.oracle.deps()), self.sched, start),
            "the engine's record of the dependences live at dimension {start}"
        );
        live
    }

    /// Whether `candidate`, whose bands `bands` (depth-first indices)
    /// are the ones a rewrite made, is proved legal; if so the
    /// candidate, with the coincidence flags of those bands' members set
    /// by the rule of the module doc when `flags` is set.
    fn certify(
        &mut self,
        mut candidate: ScheduleTree,
        bands: Range<usize>,
        flags: bool,
    ) -> Option<ScheduleTree> {
        let paths = candidate.stmt_paths();
        let rewritten = bands_of(&candidate, bands);
        let start = rewritten
            .iter()
            .flat_map(Band::terms)
            .map(|t| t.source_dim)
            .min()?;
        let live = self.live_at(start);
        if !self.proves(&paths, &rewritten, &live) {
            return None;
        }
        self.proved += 1;
        if flags {
            // The rewritten bands are adjacent, parent and child: their
            // member ids are one range.
            let last = &rewritten[rewritten.len() - 1];
            let ids = rewritten[0].first..last.first + last.members.len();
            let out: Vec<bool> = (rewritten.iter())
                .flat_map(|band| (0..band.members.len()).map(move |j| (band, j)))
                .map(|(band, j)| self.coincident(&paths, &live, band, j))
                .collect();
            #[cfg(test)]
            tests::audit(self.oracle.deps(), &paths, ids.clone(), &out);
            set_flags(&mut candidate, ids, &out);
        }
        Some(candidate)
    }

    /// The permutability proof of the module doc for the rewritten
    /// bands (statement paths `paths`): every distinct term row of their
    /// members has `Δ ≥ 0` on every dependence of `live` whose two
    /// statements both reach them.
    fn proves(&mut self, paths: &[Vec<PathStep>], rewritten: &[Band<'_>], live: &[usize]) -> bool {
        let mut rows: Vec<&Vec<Vec<i64>>> = Vec::new();
        for t in rewritten.iter().flat_map(Band::terms) {
            if !rows.contains(&&t.rows) {
                rows.push(&t.rows);
            }
        }
        let first = rewritten[0].first;
        let deps = self.oracle.deps();
        live.iter().all(|&e| {
            let (src, dst) = (deps[e].src.0, deps[e].dst.0);
            !(crosses(&paths[src], first) && crosses(&paths[dst], first))
                || rows
                    .iter()
                    .all(|r| self.oracle.respects(e, &r[src], &r[dst]))
        })
    }

    /// The coincidence rule of the module doc for member `j` of a proved
    /// rewritten band: crossed by some statement, and either an inner
    /// member of a wavefronted band, or every term row at zero distance
    /// on every dependence of `live` whose two statements both cross it.
    fn coincident(
        &mut self,
        paths: &[Vec<PathStep>],
        live: &[usize],
        band: &Band<'_>,
        j: usize,
    ) -> bool {
        let id = band.first + j;
        if !paths.iter().any(|path| crosses(path, id)) {
            return false;
        }
        if band.wavefront && j >= 1 {
            return true;
        }
        let deps = self.oracle.deps();
        live.iter().all(|&e| {
            let (src, dst) = (deps[e].src.0, deps[e].dst.0);
            !(crosses(&paths[src], id) && crosses(&paths[dst], id))
                || (band.members[j].terms.iter())
                    .all(|t| self.oracle.zero_distance(e, &t.rows[src], &t.rows[dst]))
        })
    }
}

/// A band of a tree as the gate reads it.
struct Band<'t> {
    /// The structural node id of its first member (member `j` has id
    /// `first + j`, the numbering of [`ScheduleTree::stmt_paths`]).
    first: usize,
    members: &'t [BandMember],
    /// Whether it is the child of a `Mark::Wavefront`.
    wavefront: bool,
}

impl Band<'_> {
    fn terms(&self) -> impl Iterator<Item = &MemberTerm> {
        self.members.iter().flat_map(|m| &m.terms)
    }
}

/// The bands of `tree` whose depth-first indices are in `bands`.
fn bands_of(tree: &ScheduleTree, bands: impl RangeBounds<usize>) -> Vec<Band<'_>> {
    /// `at` is (bands, node ids) seen so far.
    fn walk<'t>(
        node: &'t TreeNode,
        wavefront: bool,
        at: &mut (usize, usize),
        bands: &impl RangeBounds<usize>,
        out: &mut Vec<Band<'t>>,
    ) {
        match node {
            TreeNode::Leaf => {}
            TreeNode::Filter { child, .. } => walk(child, false, at, bands, out),
            TreeNode::Mark { kind, child } => {
                walk(child, *kind == MarkKind::Wavefront, at, bands, out);
            }
            TreeNode::Band { members, child, .. } => {
                if bands.contains(&at.0) {
                    out.push(Band {
                        first: at.1,
                        members,
                        wavefront,
                    });
                }
                *at = (at.0 + 1, at.1 + members.len());
                walk(child, false, at, bands, out);
            }
            TreeNode::Sequence(children) => {
                at.1 += 1;
                for c in children {
                    walk(c, false, at, bands, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(&tree.root, false, &mut (0, 0), &bands, &mut out);
    out
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

/// Callback of [`rewrite_nth_band`]: sees a band's context and parts
/// and returns the replacement node (or `None` to decline).
type BandRewrite<'a> = dyn FnMut(BandCtx, &[BandMember], bool, &TreeNode) -> Option<TreeNode> + 'a;

/// Rewrites the `target`-th band (depth-first order, the numbering of
/// [`bands_of`] and [`ScheduleTree::for_each_band`]) with `f`, which
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
// Tiling.
// ---------------------------------------------------------------------

/// Tiles every point band: `Mark::Tile` over a tile band over the point
/// band, the candidate proved before committing.
/// `tile_sizes` supplies one size per band depth and is cycled when the
/// band is deeper. A tile loop's parallelism uses the engine's
/// unconditioned rule, so plain-tiling model scores match the engine.
fn tile(gate: &mut Gate<'_, '_>, tree: &mut ScheduleTree, tile_sizes: &[i64]) {
    let deps = gate.oracle.deps();
    let sched = gate.sched;
    let mut bi = 0;
    while bi < bands_of(tree, ..).len() {
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
            let live = gate.live_at(members[0].source_dim());
            let tile_members: Vec<BandMember> = members
                .iter()
                .zip(&sizes)
                .map(|(m, &size)| {
                    let t = &m.terms[0];
                    let parallel = live.iter().all(|&e| {
                        let dep = &deps[e];
                        gate.oracle.zero_distance(
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
        match candidate.and_then(|c| gate.certify(c, bi..bi + 2, false)) {
            Some(c) => {
                *tree = c;
                // The rewrite put two bands (tile + point) where one
                // was; continue past both.
                bi += 2;
            }
            None => bi += 1,
        }
    }
}

// ---------------------------------------------------------------------
// Wavefront skewing.
// ---------------------------------------------------------------------

/// Coincident-member count of the `target`-th band.
fn coincident_count(tree: &ScheduleTree, target: usize) -> usize {
    (bands_of(tree, target..target + 1).iter())
        .flat_map(|band| band.members)
        .filter(|m| m.coincident)
        .count()
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
/// only when it is proved and loses no coincident members
/// (the user asked for a wavefront; pipelining an already-parallel-
/// inside band is allowed, degrading one is not).
fn wavefront(gate: &mut Gate<'_, '_>, tree: &mut ScheduleTree) {
    let mut bi = 0;
    while bi < bands_of(tree, ..).len() {
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
        if let Some(c) = candidate.and_then(|c| gate.certify(c, bi..bi + 1, true)) {
            if coincident_count(&c, bi) >= coincident_count(tree, bi) {
                *tree = c;
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
            // members that do (a single term each).
            let mut tiles = tile_members.clone();
            if tiles.len() == n && tiles[p].terms.len() == 1 && tiles[n - 1].terms.len() == 1 {
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

/// Driver: tries each tiled nest in turn, committing proved rotations
/// (flags of the rotated bands are set again by the gate's rule — the
/// permutation changes every prefix).
fn intra_tile_vectorize(gate: &mut Gate<'_, '_>, tree: &mut ScheduleTree) {
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
        let candidate = ScheduleTree {
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
        if let Some(c) = gate.certify(candidate, changed, true) {
            *tree = c;
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
#[path = "../../../deps/tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{order_steps, step_coincident, steps_respect};
    use super::*;
    use polytops_deps::{analyze, Dependence};
    use polytops_ir::{Aff, Scop, ScopBuilder, StmtSchedule};

    /// Dependences not strongly carried by any flat dimension before
    /// `start`, asked of `oracle` dimension by dimension: what the
    /// engine's record must say.
    pub(super) fn live_at(
        oracle: &mut Certifier<'_>,
        sched: &Schedule,
        start: usize,
    ) -> Vec<usize> {
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

    /// What every committed rewrite that sets flags is held to, asked
    /// from scratch: each dependence ordered by the candidate
    /// (statement paths `paths`), and the rule's flag of each member id
    /// in `ids` equal to the reference's verdict — crossed by some
    /// statement, and zero distance given equal coordinates on every
    /// earlier step, on every dependence that reaches it.
    pub(super) fn audit(
        deps: &[Dependence],
        paths: &[Vec<PathStep>],
        ids: Range<usize>,
        flags: &[bool],
    ) {
        let mut want: Vec<bool> = (ids.clone())
            .map(|id| paths.iter().any(|path| crosses(path, id)))
            .collect();
        for (e, dep) in deps.iter().enumerate() {
            let src = &paths[dep.src.0];
            let steps = order_steps(src, &paths[dep.dst.0]);
            assert!(
                steps_respect(dep, &steps),
                "the proof committed an order dependence {e} refutes"
            );
            // Step j compares the member (or sequence) at src[j].
            for (j, step) in src.iter().enumerate().take(steps.len()) {
                if let PathStep::Member { node, .. } = step {
                    if ids.contains(node) && want[node - ids.start] {
                        want[node - ids.start] = step_coincident(dep, &steps[..j], &steps[j]);
                    }
                }
            }
        }
        assert_eq!(flags, want, "the rule's flags of members {ids:?}");
    }

    /// The engine's record for a hand-made flat schedule: per
    /// dependence, the first dimension whose row carries it.
    fn carried_at(deps: &[Dependence], sched: &Schedule) -> Vec<Option<usize>> {
        let mut oracle = Certifier::new(deps);
        deps.iter()
            .enumerate()
            .map(|(e, dep)| {
                let (src, dst) = (sched.stmt(dep.src).rows(), sched.stmt(dep.dst).rows());
                (0..sched.dims()).find(|&d| oracle.strongly_satisfies(e, &src[d], &dst[d]))
            })
            .collect()
    }

    /// Whether every dependence is respected by the tree's instance
    /// order, each asked from scratch.
    fn tree_respects_all(deps: &[Dependence], tree: &ScheduleTree) -> bool {
        let paths = tree.stmt_paths();
        deps.iter().all(|dep| {
            let steps = order_steps(&paths[dep.src.0], &paths[dep.dst.0]);
            steps_respect(dep, &steps)
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
        let tree = sched.tree();
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
        let tree = sched.tree();
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
        let (_, tiles, points) = tiled_nest(sched.tree()).expect("band must tile");
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
        let carried = carried_at(&deps, &sched);
        apply(&mut Certifier::new(&deps), &mut sched, &config, &carried);
        // Rows, bands, flags and tree untouched; the tree is exactly
        // the lowering of the flat schedule.
        assert_eq!(sched, before);
        assert_eq!(
            sched.tree(),
            &ScheduleTree::lower(&before),
            "default post-processing keeps the plain lowering"
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
        let tree = sched.tree();
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
        let tree = sched.tree();
        assert!(
            tree.marks()
                .iter()
                .any(|m| matches!(m, MarkKind::Vectorize(stmts) if stmts == &vec![0])),
            "vectorize mark on the copy statement: {:?}",
            tree.marks()
        );
    }

    #[test]
    fn the_proof_never_commits_what_the_walk_would_refuse() {
        // Inside the gate, every wavefront or rotation the proof
        // commits is also put to `audit` (every order certified, every
        // flag the reference's) and every band's live-at-entry to
        // `live_at`; here the grid runs through it.
        // The grid's configurations are another build's type, so each
        // is rebuilt here by name, and must print the same.
        let presets: Vec<(&str, crate::SchedulerConfig)> = polytops_workloads::sweep::preset_grid()
            .into_iter()
            .map(|(name, grid)| {
                let config = match name {
                    "pluto" => crate::presets::pluto(),
                    "feautrier" => crate::presets::feautrier(),
                    "isl_like" => crate::presets::isl_like(),
                    "wavefront" => crate::presets::wavefront(),
                    "fast_path" => crate::presets::fast_path(),
                    other => panic!("no preset `{other}` here"),
                };
                assert_eq!(format!("{config:?}"), format!("{grid:?}"), "{name}");
                (name, config)
            })
            .collect();
        let posts = [
            (vec![16], false, false),
            (vec![32, 32], true, false),
            (vec![64], true, true),
        ];
        let recorder = polytops_obs::Recorder::new(true);
        let root = recorder.root_span("test");
        for (kernel, scop) in polytops_workloads::all_kernels() {
            for (preset, base) in &presets {
                for (sizes, wavefront, vectorize) in &posts {
                    let mut config = base.clone();
                    config.post.tile_sizes = sizes.clone();
                    config.post.wavefront = *wavefront;
                    config.post.intra_tile_vectorize = *vectorize;
                    let _bound = root.link().expect("armed").bind();
                    crate::schedule(&scop, &config)
                        .unwrap_or_else(|e| panic!("{kernel}/{preset}/{sizes:?}: {e}"));
                }
            }
        }
        let proved = recorder.counter("postprocess.rewrites_proved").get();
        eprintln!("rewrites proved over the grid: {proved}");
        assert_eq!(proved, 164);
    }

    #[test]
    fn a_band_that_is_not_permutable_is_refused_and_stays_untiled() {
        let scop = jacobi();
        let deps = analyze(&scop);
        // Rows over (t, i, T, N, 1). (t, i) orders every dependence but
        // runs the (1, −1) one backwards across i tiles, so its tiling
        // is illegal (`crates/core/tests/certifier.rs` walks it and
        // refuses); (t, t + i) is a permutable band.
        for (inner, permutable) in [([0, 1, 0, 0, 0], false), ([1, 1, 0, 0, 0], true)] {
            let mut ss = StmtSchedule::new(2, 2);
            ss.push_row(vec![1, 0, 0, 0, 0]);
            ss.push_row(inner.to_vec());
            let sched = Schedule::from_parts(vec![ss], vec![0, 0], vec![false, false]);
            let carried = carried_at(&deps, &sched);
            let before = ScheduleTree::lower(&sched);
            let mut tree = before.clone();
            let mut oracle = Certifier::new(&deps);
            let mut gate = Gate {
                oracle: &mut oracle,
                sched: &sched,
                carried_at: &carried,
                proved: 0,
            };
            tile(&mut gate, &mut tree, &[4]);
            let proved = gate.proved;
            if permutable {
                assert_eq!(proved, 1, "proved");
                assert!(tiled_nest(&tree).is_some());
                assert!(tree_respects_all(&deps, &tree));
            } else {
                assert_eq!(proved, 0, "the proof fails");
                assert_eq!(tree, before, "and the tree is unchanged");
            }
        }
    }

    #[test]
    fn rotation_keeps_the_skewed_tile_member_outermost() {
        // A wavefronted tile nest whose one coincident point member is
        // the outer one (p = 0): the point members and the sizes swap,
        // the tile band — its skewed member 0 a sum of two floors — does
        // not.
        let term = |row: Vec<i64>, div: i64, source_dim: usize| MemberTerm {
            rows: vec![row],
            div,
            source_dim,
        };
        let member = |terms: Vec<MemberTerm>, coincident: bool| BandMember { terms, coincident };
        let (t, skew) = (vec![1, 0, 0, 0, 0], vec![1, 1, 0, 0, 0]);
        let tiles = vec![
            member(vec![term(t.clone(), 4, 0), term(skew.clone(), 8, 1)], false),
            member(vec![term(skew.clone(), 8, 1)], true),
        ];
        let points = vec![
            member(vec![term(t, 1, 0)], true),
            member(vec![term(skew, 1, 1)], false),
        ];
        let under = TreeNode::Mark {
            kind: MarkKind::Wavefront,
            child: TreeNode::Band {
                members: tiles.clone(),
                permutable: false,
                child: TreeNode::Band {
                    members: points.clone(),
                    permutable: true,
                    child: TreeNode::Leaf.boxed(),
                }
                .boxed(),
            }
            .boxed(),
        };
        let (rotated, sizes) = rotate_under_tile_mark(&under, &[4, 8]).expect("p = 0 rotates");
        assert_eq!(sizes, vec![8, 4]);
        let tree = ScheduleTree {
            nstmts: 1,
            root: rotated,
        };
        let mut bands = Vec::new();
        tree.for_each_band(|_, m| bands.push(m.to_vec()));
        assert_eq!(bands[0], tiles, "the tile band keeps its skewed member 0");
        assert_eq!(bands[1], vec![points[1].clone(), points[0].clone()]);
    }
}
