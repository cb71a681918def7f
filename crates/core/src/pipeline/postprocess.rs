//! PostProcess stage: tree-to-tree transformations of the solver's
//! schedule (paper Fig. 1's post-processing block).
//!
//! The stage rewrites the explicit [`ScheduleTree`] a schedule is built
//! with (the lowering of the engine's flat rows) and expresses every
//! transformation structurally:
//!
//! * **Tiling** replaces a point band with a `Mark::Tile` over a *tile
//!   band* (one member `⌊row·x / size⌋` per point member) over the
//!   original point band. Only a band whose nearest ancestor that is not
//!   a mark is not a band is offered: a band directly under another one
//!   stays untiled.
//! * **Wavefront** skews the outermost member of a *tile* band into the
//!   sum of the band's members (`Σ ⌊rowⱼ·x / sizeⱼ⌋` — inexpressible in
//!   the flat row form, which is one reason the tree exists), falling
//!   back to point bands when the schedule is untiled. The skew commits
//!   only when it loses no coincident members: a dependence crossing
//!   tiles always crosses the skewed outer member first, so inner tile
//!   members become parallel (Pluto §5.3 lifted to tile space).
//! * **Intra-tile vectorization** rotates a coincident point member to
//!   the innermost position of its tiled band (tile members and sizes
//!   follow), in each tiled nest that is not inside another nest's
//!   subtree, and vectorization directives/auto-detection become
//!   `Mark::Vectorize` annotations.
//!
//! Every rewrite finds its band in one [`ScheduleTree::walk`]
//! (`bands_of`: each band's path, first structural id, wavefront parent
//! and `BandCtx`) and edits a clone of the tree through
//! [`ScheduleTree::node_mut`]; the clone is what the proof is asked
//! about.
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

use std::ops::Range;

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
        let all = bands_of(&candidate);
        let rewritten = &all[bands];
        let start = rewritten
            .iter()
            .flat_map(Band::terms)
            .map(|t| t.source_dim)
            .min()?;
        let live = self.live_at(start);
        if !self.proves(&paths, rewritten, &live) {
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

/// A band of a tree as the rewrites and the gate read it.
struct Band<'t> {
    /// Its child positions from the root.
    path: Vec<usize>,
    /// The structural node id of its first member (member `j` has id
    /// `first + j`, the numbering of [`ScheduleTree::stmt_paths`]).
    first: usize,
    members: &'t [BandMember],
    permutable: bool,
    /// What it sits under.
    ctx: BandCtx,
    /// Whether it is the child of a `Mark::Wavefront`.
    wavefront: bool,
}

impl Band<'_> {
    fn terms(&self) -> impl Iterator<Item = &MemberTerm> {
        self.members.iter().flat_map(|m| &m.terms)
    }
}

/// What a band sits under: its nearest ancestor that is not a mark,
/// unless a `Mark::Tile` comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BandCtx {
    /// A filter, a sequence or nothing: an ordinary (point) band.
    Plain,
    /// A `Mark::Tile` (possibly through other marks): a tile band.
    UnderTileMark,
    /// Another band: the point band of a tiled nest.
    UnderBand,
}

/// Every band of `tree`, in preorder: one [`ScheduleTree::walk`].
fn bands_of(tree: &ScheduleTree) -> Vec<Band<'_>> {
    let mut out = Vec::new();
    // The ancestors of the node the walk is at, outermost first.
    let mut above: Vec<&TreeNode> = Vec::new();
    tree.walk(|node, path, first| {
        above.truncate(path.len());
        if let TreeNode::Band {
            members,
            permutable,
            ..
        } = node
        {
            let wavefront = matches!(
                above.last(),
                Some(TreeNode::Mark {
                    kind: MarkKind::Wavefront,
                    ..
                })
            );
            let ctx = (above.iter().rev())
                .find_map(|node| match node {
                    TreeNode::Mark {
                        kind: MarkKind::Tile(_),
                        ..
                    } => Some(BandCtx::UnderTileMark),
                    TreeNode::Mark { .. } => None,
                    TreeNode::Band { .. } => Some(BandCtx::UnderBand),
                    _ => Some(BandCtx::Plain),
                })
                .unwrap_or(BandCtx::Plain);
            out.push(Band {
                path: path.to_vec(),
                first,
                members,
                permutable: *permutable,
                ctx,
                wavefront,
            });
        }
        above.push(node);
    });
    out
}

/// A copy of `tree` with `edit` applied to its node at `path`.
fn rewrite_band(
    tree: &ScheduleTree,
    path: &[usize],
    edit: impl FnOnce(&mut TreeNode),
) -> ScheduleTree {
    let mut out = tree.clone();
    edit(out.node_mut(path).expect("a band's path"));
    out
}

/// Puts `parent` of `node` (boxed) in `node`'s place.
fn wrap(node: &mut TreeNode, parent: impl FnOnce(Box<TreeNode>) -> TreeNode) {
    let child = std::mem::replace(node, TreeNode::Leaf).boxed();
    *node = parent(child);
}

// ---------------------------------------------------------------------
// Tiling.
// ---------------------------------------------------------------------

/// Tiles each plain affine band — one whose nearest ancestor that is
/// not a mark is not a band ([`BandCtx::Plain`]): `Mark::Tile` over a
/// tile band over the point band, the candidate proved before
/// committing. A band directly under another band is never offered to
/// the proof, so a nest the solver split into two bands tiles its
/// outer band only.
/// `tile_sizes` supplies one size per band depth and is cycled when the
/// band is deeper. A tile loop's parallelism uses the engine's
/// unconditioned rule, so plain-tiling model scores match the engine.
fn tile(gate: &mut Gate<'_, '_>, tree: &mut ScheduleTree, tile_sizes: &[i64]) {
    let deps = gate.oracle.deps();
    let sched = gate.sched;
    // A committed tile puts its tile band at `bi` and the point band,
    // which is not plain, at `bi + 1`.
    let mut bands = bands_of(tree);
    for bi in 0.. {
        let Some(band) = bands.get(bi) else { break };
        let members = band.members;
        if band.ctx != BandCtx::Plain || !members.iter().all(BandMember::is_affine) {
            continue;
        }
        let sizes: Vec<i64> = (0..members.len())
            .map(|i| tile_sizes[i % tile_sizes.len()].max(1))
            .collect();
        // A tile loop executes outside the band's point loops, so it is
        // parallel only when every dependence live at *band entry* has
        // zero distance on its dimension — a dependence carried by an
        // earlier member of the same band still crosses tiles.
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
        let candidate = rewrite_band(tree, &band.path, |node| {
            wrap(node, |point| TreeNode::Mark {
                kind: MarkKind::Tile(sizes),
                child: TreeNode::Band {
                    members: tile_members,
                    permutable: band.permutable,
                    child: point,
                }
                .boxed(),
            });
        });
        if let Some(c) = gate.certify(candidate, bi..bi + 2, false) {
            *tree = c;
            bands = bands_of(tree);
        }
    }
}

// ---------------------------------------------------------------------
// Wavefront skewing.
// ---------------------------------------------------------------------

/// How many of `members` are coincident.
fn coincident_count(members: &[BandMember]) -> usize {
    members.iter().filter(|m| m.coincident).count()
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
    let mut bands = bands_of(tree);
    for bi in 0.. {
        let Some(band) = bands.get(bi) else { break };
        let members = band.members;
        if members.len() < 2 || members[0].coincident {
            continue;
        }
        let skewed = match band.ctx {
            BandCtx::UnderBand => continue,
            BandCtx::UnderTileMark => BandMember {
                terms: members.iter().flat_map(|m| m.terms.clone()).collect(),
                coincident: false,
            },
            BandCtx::Plain => {
                if !members.iter().all(BandMember::is_affine) {
                    continue;
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
        let candidate = rewrite_band(tree, &band.path, |node| {
            if let TreeNode::Band {
                members,
                permutable,
                ..
            } = node
            {
                members[0] = skewed;
                // The skewed member is not freely interchangeable with
                // the others.
                *permutable = false;
            }
            wrap(node, |band| TreeNode::Mark {
                kind: MarkKind::Wavefront,
                child: band,
            });
        });
        if let Some(c) = gate.certify(candidate, bi..bi + 1, true) {
            if coincident_count(bands_of(&c)[bi].members) >= coincident_count(members) {
                *tree = c;
                bands = bands_of(tree);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Intra-tile vectorization.
// ---------------------------------------------------------------------

/// The tiled nests rotation tries: the paths of the `Mark::Tile` nodes
/// that are not inside another nest's subtree, in preorder.
fn tiled_nests(tree: &ScheduleTree) -> Vec<Vec<usize>> {
    let mut nests: Vec<Vec<usize>> = Vec::new();
    tree.walk(|node, path, _| {
        if matches!(
            node,
            TreeNode::Mark {
                kind: MarkKind::Tile(_),
                ..
            }
        ) && !nests.iter().any(|nest| path.starts_with(nest))
        {
            nests.push(path.to_vec());
        }
    });
    nests
}

/// Rotates the nest under the `Mark::Tile` at path `nest` so a
/// coincident point member is innermost and can be vectorized: when the
/// innermost point member is sequential, the rightmost coincident one
/// `p` swaps with it, and so do the mark's sizes and the tile members.
/// Returns the rotated copy of `tree` and the preorder range of the
/// bands it changed: the tile band and the point band when the tile
/// members swapped, the point band alone otherwise.
fn rotate(tree: &ScheduleTree, nest: &[usize]) -> Option<(ScheduleTree, Range<usize>)> {
    // The tile band sits below the mark through marks only (e.g. a
    // wavefront); the point band is its child.
    let mut at = nest.to_vec();
    while let Some(TreeNode::Mark { .. }) = tree.node(&at) {
        at.push(0);
    }
    let bands = bands_of(tree);
    let t = bands.iter().position(|band| band.path == at)?;
    let point = bands.get(t + 1)?;
    if point.path.len() != at.len() + 1 || !point.path.starts_with(&at) {
        return None;
    }
    let (tiles, points) = (bands[t].members, point.members);
    let n = points.len();
    if n < 2 || points[n - 1].coincident {
        return None;
    }
    let p = (0..n - 1).rev().find(|&d| points[d].coincident)?;
    // A wavefronted tile band owns a skewed member 0 that no longer
    // corresponds 1:1 to a point member; only swap tile members that do
    // (a single term each).
    let tiles_swap = tiles.len() == n && tiles[p].terms.len() == 1 && tiles[n - 1].terms.len() == 1;
    let mut out = tree.clone();
    let mut swap = |path: &[usize]| match out.node_mut(path) {
        Some(TreeNode::Band { members, .. }) => members.swap(p, n - 1),
        Some(TreeNode::Mark {
            kind: MarkKind::Tile(sizes),
            ..
        }) if sizes.len() == n => sizes.swap(p, n - 1),
        _ => {}
    };
    swap(nest);
    swap(&point.path);
    if tiles_swap {
        swap(&at);
    }
    Some((out, if tiles_swap { t } else { t + 1 }..t + 2))
}

/// Driver: tries each nest of [`tiled_nests`] in turn, committing proved
/// rotations (flags of the rotated bands are set again by the gate's
/// rule — the permutation changes every prefix).
fn intra_tile_vectorize(gate: &mut Gate<'_, '_>, tree: &mut ScheduleTree) {
    for nest in tiled_nests(tree) {
        let Some((candidate, changed)) = rotate(tree, &nest) else {
            continue;
        };
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
    // Per band owning some statement's chosen member, in preorder: its
    // path and those statements.
    let marks: Vec<(Vec<usize>, Vec<usize>)> = (bands_of(tree).into_iter())
        .filter_map(|band| {
            let ids = band.first..band.first + band.members.len();
            let stmts: Vec<usize> = (0..nstmts)
                .filter(|&s| choice[s].is_some_and(|id| ids.contains(&id)))
                .collect();
            (!stmts.is_empty()).then_some((band.path, stmts))
        })
        .collect();
    // Last band first: a mark moves only the paths below it.
    for (path, stmts) in marks.into_iter().rev() {
        wrap(tree.node_mut(&path).expect("a band's path"), |band| {
            TreeNode::Mark {
                kind: MarkKind::Vectorize(stmts),
                child: band,
            }
        });
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
        let tree = ScheduleTree {
            nstmts: 1,
            root: TreeNode::Mark {
                kind: MarkKind::Tile(vec![4, 8]),
                child: TreeNode::Mark {
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
                }
                .boxed(),
            },
        };
        let (tree, changed) = rotate(&tree, &[]).expect("p = 0 rotates");
        assert_eq!(tree.marks()[0], &MarkKind::Tile(vec![8, 4]));
        assert_eq!(changed, 1..2, "the point band alone");
        let mut bands = Vec::new();
        tree.for_each_band(|_, m| bands.push(m.to_vec()));
        assert_eq!(bands[0], tiles, "the tile band keeps its skewed member 0");
        assert_eq!(bands[1], vec![points[1].clone(), points[0].clone()]);
    }

    #[test]
    fn tiling_never_offers_a_band_directly_under_another_band() {
        // gemver under these presets lowers to two plain bands, one
        // directly under the other. `tile` refuses the inner one
        // (`BandCtx::UnderBand`) before any proof, so one nest tiles.
        let scop = polytops_workloads::gemver();
        for mut config in [crate::presets::feautrier(), crate::presets::isl_like()] {
            config.post.tile_sizes = vec![16];
            let sched = crate::schedule(&scop, &config).unwrap();
            let ctxs = |tree: &ScheduleTree| -> Vec<BandCtx> {
                bands_of(tree).iter().map(|band| band.ctx).collect()
            };
            let lowered = ScheduleTree::lower(&sched);
            assert_eq!(ctxs(&lowered), [BandCtx::Plain, BandCtx::UnderBand]);
            let tree = sched.tree();
            let tiles = (tree.marks().iter())
                .filter(|m| matches!(m, MarkKind::Tile(_)))
                .count();
            assert_eq!(tiles, 1, "{}", tree.render(&scop));
            assert_eq!(
                ctxs(tree),
                [
                    BandCtx::UnderTileMark,
                    BandCtx::UnderBand,
                    BandCtx::UnderBand
                ]
            );
        }
    }

    #[test]
    fn rotation_tries_no_nest_inside_another_nest() {
        // Mark::Tile → tile band → point band → (a nested nest), beside a
        // second nest: the nested one is not selected.
        let nest = |below: TreeNode| {
            let band = |child: TreeNode| TreeNode::Band {
                members: vec![BandMember {
                    terms: vec![MemberTerm {
                        rows: vec![vec![1, 0]; 2],
                        div: 1,
                        source_dim: 0,
                    }],
                    coincident: false,
                }],
                permutable: true,
                child: child.boxed(),
            };
            TreeNode::Mark {
                kind: MarkKind::Tile(vec![4]),
                child: band(band(below)).boxed(),
            }
        };
        let filter = |stmts: Vec<usize>, child: TreeNode| TreeNode::Filter {
            stmts,
            child: child.boxed(),
        };
        let tree = ScheduleTree {
            nstmts: 2,
            root: TreeNode::Sequence(vec![
                filter(vec![0], nest(nest(TreeNode::Leaf))),
                filter(vec![1], nest(TreeNode::Leaf)),
            ]),
        };
        assert_eq!(tree.marks().len(), 3);
        assert_eq!(tiled_nests(&tree), [vec![0, 0], vec![1, 0]]);
    }
}
