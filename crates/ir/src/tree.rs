//! Explicit isl-style schedule trees.
//!
//! A [`ScheduleTree`] is the structured form of a [`Schedule`]: instead
//! of a flat list of rows plus side-channel metadata, the schedule is a
//! tree of nodes in the isl vocabulary —
//!
//! * [`TreeNode::Band`]: a permutable run of quasi-affine members, each
//!   with its own coincidence (parallelism) flag;
//! * [`TreeNode::Sequence`] over [`TreeNode::Filter`] children: explicit
//!   textual ordering of disjoint statement groups (what a constant
//!   splitting row encodes in the flat form);
//! * [`TreeNode::Mark`]: post-processing annotations (tiling sizes,
//!   wavefront, vectorization) that carry no ordering semantics;
//! * [`TreeNode::Leaf`]: the end of a branch.
//!
//! Band members are *quasi-affine*: a member's value at a statement
//! instance is a sum of floored affine forms `Σ ⌊rowⱼ·x / divⱼ⌋`. An
//! ordinary loop dimension is a single term with divisor 1; a tile
//! counter is a single term with divisor = tile size; a wavefront of
//! tile loops is a sum of several floored terms (which is exactly why
//! the flat row representation could not express it).
//!
//! The semantics of a tree is an *instance order*: every statement has a
//! root-to-leaf path of [`PathStep`]s, and two instances compare
//! lexicographically along their paths, stepping in lockstep while the
//! paths traverse the same nodes ([`ScheduleTree::instance_cmp`]). This
//! is the function that makes tree/flat equivalence checkable and lets
//! the dependence oracle certify transformed trees.

use std::cmp::Ordering;
use std::fmt::Write as _;

use crate::schedule::Schedule;
use crate::scop::{Scop, StmtId};

/// Floor division (rounds toward negative infinity; `div > 0`).
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "positive divisor");
    let (q, r) = (a / b, a % b);
    if r < 0 {
        q - 1
    } else {
        q
    }
}

/// One additive term of a band member: contributes `⌊row·x / div⌋` to
/// the member's value (plain `row·x` when `div == 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberTerm {
    /// Per-statement numerator rows, indexed by statement id; each row
    /// is over that statement's `(iters, params, 1)` columns. Entries
    /// for statements outside the owning node's subtree are unused.
    pub rows: Vec<Vec<i64>>,
    /// Positive divisor (1 for an affine term, the tile size for a tile
    /// counter).
    pub div: i64,
    /// The flat scheduling dimension this term scans (feature
    /// extraction and loop naming trace tree facts back through it).
    pub source_dim: usize,
}

/// One dimension of a band: a quasi-affine function of the statement
/// instance, `value = Σ ⌊rowⱼ·x / divⱼ⌋` over the member's terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandMember {
    /// The additive floored terms (at least one).
    pub terms: Vec<MemberTerm>,
    /// Whether the member is coincident (zero dependence distance given
    /// equal outer schedule coordinates): its loop may run in parallel.
    pub coincident: bool,
}

impl BandMember {
    /// The member's primary flat scheduling dimension (of its first
    /// term).
    pub fn source_dim(&self) -> usize {
        self.terms.first().map_or(0, |t| t.source_dim)
    }

    /// Whether the member is a plain affine form (a single term with
    /// divisor 1).
    pub fn is_affine(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].div == 1
    }

    /// Evaluates the member at a concrete statement instance.
    ///
    /// # Panics
    ///
    /// Panics if the statement id is out of range or the row arity does
    /// not match `iters.len() + params.len() + 1`.
    pub fn eval(&self, stmt: StmtId, iters: &[i64], params: &[i64]) -> i64 {
        self.terms
            .iter()
            .map(|t| {
                let row = &t.rows[stmt.0];
                assert_eq!(row.len(), iters.len() + params.len() + 1, "row arity");
                let mut acc = row[row.len() - 1];
                for (c, v) in row.iter().zip(iters.iter().chain(params)) {
                    acc += c * v;
                }
                div_floor(acc, t.div)
            })
            .sum()
    }
}

/// A post-processing annotation attached to the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkKind {
    /// The band below is a tile band created by tiling with these sizes
    /// (one per member of the original band).
    Tile(Vec<i64>),
    /// The band below had its outermost member wavefront-skewed.
    Wavefront,
    /// The innermost member of the band below is vectorizable for these
    /// statements.
    Vectorize(Vec<usize>),
}

/// A node of the schedule tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeNode {
    /// A permutable band of quasi-affine members.
    Band {
        /// The band's members, outermost first.
        members: Vec<BandMember>,
        /// Whether the members may be freely interchanged (every member
        /// individually legal for every dependence live at the band).
        permutable: bool,
        /// The subtree below the band.
        child: Box<TreeNode>,
    },
    /// Restricts the subtree to a statement subset.
    Filter {
        /// Statement ids selected by this filter (sorted, disjoint from
        /// sibling filters).
        stmts: Vec<usize>,
        /// The subtree for the selected statements.
        child: Box<TreeNode>,
    },
    /// Ordered children executed one after another (each child is
    /// normally a [`TreeNode::Filter`]).
    Sequence(Vec<TreeNode>),
    /// An annotation with no ordering semantics of its own.
    Mark {
        /// What the annotation says.
        kind: MarkKind,
        /// The annotated subtree.
        child: Box<TreeNode>,
    },
    /// The end of a branch.
    Leaf,
}

impl TreeNode {
    /// Wraps a node in a box (builder convenience).
    pub fn boxed(self) -> Box<TreeNode> {
        Box::new(self)
    }
}

/// One step of a statement's root-to-leaf path through the tree: the
/// unit of the instance-order semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStep {
    /// A band member crossed by the statement. Two instances whose
    /// paths share the step's `node` compare by the member's value.
    Member {
        /// Structural node id — equal across statements that cross the
        /// same member of the same band.
        node: usize,
        /// The member's terms specialized to this statement:
        /// `(numerator row, divisor)` with the row over the statement's
        /// `(iters, params, 1)` columns.
        terms: Vec<(Vec<i64>, i64)>,
        /// The member's coincidence flag.
        coincident: bool,
    },
    /// A sequence decision: this statement sits in child `pos`. Two
    /// instances whose paths share the step's `node` compare by `pos`.
    Seq {
        /// Structural node id of the sequence.
        node: usize,
        /// The statement's child position within the sequence.
        pos: i64,
    },
}

impl PathStep {
    /// Evaluates the step at a concrete instance of its statement.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> i64 {
        match self {
            PathStep::Seq { pos, .. } => *pos,
            PathStep::Member { terms, .. } => terms
                .iter()
                .map(|(row, div)| {
                    let mut acc = row[row.len() - 1];
                    for (c, v) in row.iter().zip(iters.iter().chain(params)) {
                        acc += c * v;
                    }
                    div_floor(acc, *div)
                })
                .sum(),
        }
    }
}

/// An explicit schedule tree over a SCoP's statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTree {
    /// Number of statements the tree schedules (term rows are indexed
    /// by statement id up to this count).
    pub nstmts: usize,
    /// The root node.
    pub root: TreeNode,
}

impl ScheduleTree {
    /// Lowers a flat [`Schedule`] into its canonical tree form.
    ///
    /// Constant (splitting) dimensions become [`TreeNode::Sequence`]
    /// nodes over [`TreeNode::Filter`] children, grouped and ordered by
    /// the rows' `(constant, params)` value (a run where every active
    /// statement agrees is elided); maximal runs of loop dimensions
    /// within one flat band become [`TreeNode::Band`] nodes whose
    /// members copy the rows (divisor 1) and the per-dimension parallel
    /// flags. The resulting tree's instance order is identical to the
    /// flat schedule's lexicographic timestamp order.
    pub fn lower(sched: &Schedule) -> ScheduleTree {
        let nstmts = sched.num_statements();
        let active: Vec<usize> = (0..nstmts).collect();
        let root = if nstmts == 0 {
            TreeNode::Leaf
        } else {
            lower_dims(sched, &active, 0)
        };
        ScheduleTree { nstmts, root }
    }

    /// The root-to-leaf path of every statement, with structural node
    /// ids assigned in preorder (shared across statements that cross
    /// the same node).
    pub fn stmt_paths(&self) -> Vec<Vec<PathStep>> {
        let mut paths = vec![Vec::new(); self.nstmts];
        let active: Vec<usize> = (0..self.nstmts).collect();
        let mut counter = 0;
        collect_paths(&self.root, &active, &mut counter, &mut paths);
        paths
    }

    /// The statements scheduled by a subtree (every statement when the
    /// subtree has no filters), restricted to `active`.
    pub fn stmts_of(node: &TreeNode, active: &[usize]) -> Vec<usize> {
        match node {
            TreeNode::Leaf => active.to_vec(),
            TreeNode::Filter { stmts, .. } => active
                .iter()
                .copied()
                .filter(|s| stmts.contains(s))
                .collect(),
            TreeNode::Band { child, .. } | TreeNode::Mark { child, .. } => {
                ScheduleTree::stmts_of(child, active)
            }
            TreeNode::Sequence(children) => {
                let mut out = Vec::new();
                for c in children {
                    out.extend(ScheduleTree::stmts_of(c, active));
                }
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// The tree timestamp of one statement instance: the evaluated path
    /// steps, outermost first.
    ///
    /// Timestamps of *different* statements may have different lengths
    /// and are only comparable through [`ScheduleTree::instance_cmp`],
    /// which aligns them structurally.
    ///
    /// # Panics
    ///
    /// Panics if the statement id is out of range or arities mismatch.
    pub fn timestamp(&self, id: StmtId, iters: &[i64], params: &[i64]) -> Vec<i64> {
        self.stmt_paths()[id.0]
            .iter()
            .map(|s| s.eval(iters, params))
            .collect()
    }

    /// Compares two statement instances in the tree's instance order:
    /// paths are walked in lockstep while they traverse the same nodes,
    /// and the first differing step value decides. `Equal` means the
    /// tree does not order the instances (same leaf, same coordinates).
    ///
    /// # Panics
    ///
    /// Panics if a statement id is out of range or arities mismatch.
    pub fn instance_cmp(
        &self,
        a: (StmtId, &[i64]),
        b: (StmtId, &[i64]),
        params: &[i64],
    ) -> Ordering {
        let paths = self.stmt_paths();
        instance_cmp_paths(&paths[a.0 .0], &paths[b.0 .0], a.1, b.1, params)
    }

    /// Renders the tree for humans (the demo's `tree` mode), using the
    /// SCoP's statement, iterator and parameter names.
    pub fn render(&self, scop: &Scop) -> String {
        let mut out = String::new();
        render_node(&self.root, scop, 0, &mut out);
        out
    }

    /// Visits every band in depth-first order, passing the structural
    /// node id of its first member (the numbering of
    /// [`ScheduleTree::stmt_paths`] — member `j` of the band has id
    /// `first + j`) and the band's members.
    pub fn for_each_band(&self, mut f: impl FnMut(usize, &[BandMember])) {
        fn walk(node: &TreeNode, counter: &mut usize, f: &mut impl FnMut(usize, &[BandMember])) {
            match node {
                TreeNode::Leaf => {}
                TreeNode::Filter { child, .. } | TreeNode::Mark { child, .. } => {
                    walk(child, counter, f);
                }
                TreeNode::Band { members, child, .. } => {
                    let first = *counter;
                    *counter += members.len();
                    f(first, members);
                    walk(child, counter, f);
                }
                TreeNode::Sequence(children) => {
                    *counter += 1;
                    for c in children {
                        walk(c, counter, f);
                    }
                }
            }
        }
        let mut counter = 0;
        walk(&self.root, &mut counter, &mut f);
    }

    /// Mutable variant of [`ScheduleTree::for_each_band`] (same
    /// numbering).
    pub fn for_each_band_mut(&mut self, mut f: impl FnMut(usize, &mut Vec<BandMember>)) {
        fn walk(
            node: &mut TreeNode,
            counter: &mut usize,
            f: &mut impl FnMut(usize, &mut Vec<BandMember>),
        ) {
            match node {
                TreeNode::Leaf => {}
                TreeNode::Filter { child, .. } | TreeNode::Mark { child, .. } => {
                    walk(child, counter, f);
                }
                TreeNode::Band { members, child, .. } => {
                    let first = *counter;
                    *counter += members.len();
                    f(first, members);
                    walk(child, counter, f);
                }
                TreeNode::Sequence(children) => {
                    *counter += 1;
                    for c in children {
                        walk(c, counter, f);
                    }
                }
            }
        }
        let mut counter = 0;
        walk(&mut self.root, &mut counter, &mut f);
    }

    /// Every mark in the tree, depth-first.
    pub fn marks(&self) -> Vec<&MarkKind> {
        fn walk<'a>(node: &'a TreeNode, out: &mut Vec<&'a MarkKind>) {
            match node {
                TreeNode::Leaf => {}
                TreeNode::Filter { child, .. } => walk(child, out),
                TreeNode::Band { child, .. } => walk(child, out),
                TreeNode::Mark { kind, child } => {
                    out.push(kind);
                    walk(child, out);
                }
                TreeNode::Sequence(children) => {
                    for c in children {
                        walk(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

/// Compares two instances along precomputed paths (see
/// [`ScheduleTree::instance_cmp`]).
pub fn instance_cmp_paths(
    pa: &[PathStep],
    pb: &[PathStep],
    ia: &[i64],
    ib: &[i64],
    params: &[i64],
) -> Ordering {
    for (sa, sb) in pa.iter().zip(pb.iter()) {
        let aligned = match (sa, sb) {
            (PathStep::Member { node: na, .. }, PathStep::Member { node: nb, .. }) => na == nb,
            (PathStep::Seq { node: na, .. }, PathStep::Seq { node: nb, .. }) => na == nb,
            _ => false,
        };
        if !aligned {
            // Structural divergence without a sequence decision: the
            // tree does not order the instances beyond this point.
            break;
        }
        let (va, vb) = (sa.eval(ia, params), sb.eval(ib, params));
        match va.cmp(&vb) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Recursive lowering worker: builds the subtree for `active` statements
/// starting at flat dimension `d`.
fn lower_dims(sched: &Schedule, active: &[usize], d: usize) -> TreeNode {
    if d == sched.dims() || active.is_empty() {
        return TreeNode::Leaf;
    }
    let constant = active
        .iter()
        .all(|&s| sched.stmt(StmtId(s)).row_is_constant(d));
    if constant {
        // A splitting level: group by the row's (constant, params)
        // value in ascending order.
        let np = sched.stmt(StmtId(active[0])).nparams();
        let mut groups: Vec<(Vec<i64>, Vec<usize>)> = Vec::new();
        for &s in active {
            let ss = sched.stmt(StmtId(s));
            let row = &ss.rows()[d];
            let depth = ss.depth();
            let mut key = vec![row[depth + np]];
            key.extend_from_slice(&row[depth..depth + np]);
            match groups.iter_mut().find(|(g, _)| *g == key) {
                Some((_, members)) => members.push(s),
                None => groups.push((key, vec![s])),
            }
        }
        if groups.len() == 1 {
            return lower_dims(sched, active, d + 1);
        }
        groups.sort_by(|(a, _), (b, _)| a.cmp(b));
        return TreeNode::Sequence(
            groups
                .into_iter()
                .map(|(_, members)| TreeNode::Filter {
                    child: lower_dims(sched, &members, d + 1).boxed(),
                    stmts: members,
                })
                .collect(),
        );
    }
    // A band: the maximal run of same-band loop dimensions.
    let band = sched.bands()[d];
    let mut end = d;
    while end < sched.dims()
        && sched.bands()[end] == band
        && active
            .iter()
            .any(|&s| !sched.stmt(StmtId(s)).row_is_constant(end))
    {
        end += 1;
    }
    let members = (d..end)
        .map(|dim| BandMember {
            terms: vec![MemberTerm {
                rows: (0..sched.num_statements())
                    .map(|s| sched.stmt(StmtId(s)).rows()[dim].clone())
                    .collect(),
                div: 1,
                source_dim: dim,
            }],
            coincident: sched.parallel().get(dim).copied().unwrap_or(false),
        })
        .collect();
    TreeNode::Band {
        members,
        permutable: true,
        child: lower_dims(sched, active, end).boxed(),
    }
}

/// Path-collection worker (preorder node ids).
fn collect_paths(
    node: &TreeNode,
    active: &[usize],
    counter: &mut usize,
    paths: &mut [Vec<PathStep>],
) {
    match node {
        TreeNode::Leaf => {}
        TreeNode::Filter { child, .. } => {
            let sub = ScheduleTree::stmts_of(node, active);
            collect_paths(child, &sub, counter, paths);
        }
        TreeNode::Mark { child, .. } => collect_paths(child, active, counter, paths),
        TreeNode::Band { members, child, .. } => {
            for m in members {
                let id = *counter;
                *counter += 1;
                for &s in active {
                    paths[s].push(PathStep::Member {
                        node: id,
                        terms: m.terms.iter().map(|t| (t.rows[s].clone(), t.div)).collect(),
                        coincident: m.coincident,
                    });
                }
            }
            collect_paths(child, active, counter, paths);
        }
        TreeNode::Sequence(children) => {
            let id = *counter;
            *counter += 1;
            for (pos, c) in children.iter().enumerate() {
                let sub = ScheduleTree::stmts_of(c, active);
                for &s in &sub {
                    paths[s].push(PathStep::Seq {
                        node: id,
                        pos: pos as i64,
                    });
                }
                collect_paths(c, &sub, counter, paths);
            }
        }
    }
}

/// Renders one term of a member for a statement (`render` worker).
fn render_term(term: &MemberTerm, s: usize, scop: &Scop) -> String {
    let stmt = &scop.statements[s];
    let iters: Vec<&str> = stmt.iter_names.iter().map(String::as_str).collect();
    let params: Vec<&str> = scop.params.iter().map(String::as_str).collect();
    let e = crate::expr::AffineExpr::from_row(&term.rows[s], stmt.depth(), scop.nparams());
    let body = e.display(&iters, &params);
    if term.div == 1 {
        body
    } else {
        format!("floord({body}, {})", term.div)
    }
}

/// Tree pretty-printer worker.
fn render_node(node: &TreeNode, scop: &Scop, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node {
        TreeNode::Leaf => {
            let _ = writeln!(out, "{pad}leaf");
        }
        TreeNode::Sequence(children) => {
            let _ = writeln!(out, "{pad}sequence");
            for c in children {
                render_node(c, scop, indent + 1, out);
            }
        }
        TreeNode::Filter { stmts, child } => {
            let names: Vec<&str> = stmts
                .iter()
                .map(|&s| scop.statements[s].name.as_str())
                .collect();
            let _ = writeln!(out, "{pad}filter {{{}}}", names.join(", "));
            render_node(child, scop, indent + 1, out);
        }
        TreeNode::Mark { kind, child } => {
            match kind {
                MarkKind::Tile(sizes) => {
                    let _ = writeln!(out, "{pad}mark tile sizes={sizes:?}");
                }
                MarkKind::Wavefront => {
                    let _ = writeln!(out, "{pad}mark wavefront");
                }
                MarkKind::Vectorize(stmts) => {
                    let names: Vec<&str> = stmts
                        .iter()
                        .map(|&s| scop.statements[s].name.as_str())
                        .collect();
                    let _ = writeln!(out, "{pad}mark vectorize {{{}}}", names.join(", "));
                }
            }
            render_node(child, scop, indent + 1, out);
        }
        TreeNode::Band {
            members,
            permutable,
            child,
        } => {
            let _ = writeln!(
                out,
                "{pad}band permutable={permutable} [{} member{}]",
                members.len(),
                if members.len() == 1 { "" } else { "s" }
            );
            let active: Vec<usize> =
                ScheduleTree::stmts_of(child, &(0..scop.statements.len()).collect::<Vec<_>>());
            for (i, m) in members.iter().enumerate() {
                let exprs: Vec<String> = active
                    .iter()
                    .map(|&s| {
                        let terms: Vec<String> =
                            m.terms.iter().map(|t| render_term(t, s, scop)).collect();
                        format!("{}: {}", scop.statements[s].name, terms.join(" + "))
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}  member {i}{}: {}",
                    if m.coincident { " [coincident]" } else { "" },
                    exprs.join(", ")
                );
            }
            render_node(child, scop, indent + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScopBuilder;
    use crate::expr::Aff;

    fn two_stmt_scop() -> Scop {
        // for i { S0; for j { S1 } }
        let mut b = ScopBuilder::new("k");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0")
            .write(a, &[Aff::var("i"), Aff::val(0)])
            .add(&mut b);
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S1")
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn lowering_matches_flat_order_on_2dp1() {
        let scop = two_stmt_scop();
        let sched = Schedule::identity_2dp1(&scop);
        let tree = ScheduleTree::lower(&sched);
        let params = [4i64];
        // S0(i) vs S1(i, j) over a small grid: the tree order must
        // reproduce the flat lexicographic timestamp order exactly.
        for i0 in 0..4 {
            for i1 in 0..4 {
                for j1 in 0..4 {
                    let flat = sched
                        .timestamp(StmtId(0), &[i0], &params)
                        .cmp(&sched.timestamp(StmtId(1), &[i1, j1], &params));
                    let treed =
                        tree.instance_cmp((StmtId(0), &[i0]), (StmtId(1), &[i1, j1]), &params);
                    assert_eq!(flat, treed, "i0={i0} i1={i1} j1={j1}");
                }
            }
        }
    }

    #[test]
    fn lowering_builds_sequence_of_filters() {
        let scop = two_stmt_scop();
        let sched = Schedule::identity_2dp1(&scop);
        let tree = ScheduleTree::lower(&sched);
        // 2d+1 for { S0; for { S1 } }: outer band over i, then a β
        // split (S0 before S1), then S1's inner j band.
        let TreeNode::Band { members, child, .. } = &tree.root else {
            panic!("outer band, got {:?}", tree.root);
        };
        assert_eq!(members.len(), 1);
        assert!(members[0].is_affine());
        let TreeNode::Sequence(children) = child.as_ref() else {
            panic!("sequence under band, got {child:?}");
        };
        assert_eq!(children.len(), 2);
        let TreeNode::Filter { stmts, .. } = &children[0] else {
            panic!("filter child");
        };
        assert_eq!(stmts, &[0]);
    }

    #[test]
    fn member_eval_floors_negative_values() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
        let m = BandMember {
            terms: vec![MemberTerm {
                rows: vec![vec![1, 0, -3]], // i - 3 over (i, N, 1)
                div: 2,
                source_dim: 0,
            }],
            coincident: false,
        };
        assert_eq!(m.eval(StmtId(0), &[0], &[10]), -2); // ⌊-3/2⌋
        assert_eq!(m.eval(StmtId(0), &[4], &[10]), 0);
    }

    #[test]
    fn render_names_nodes_and_flags() {
        let scop = two_stmt_scop();
        let sched = Schedule::identity_2dp1(&scop);
        let tree = ScheduleTree::lower(&sched);
        let text = tree.render(&scop);
        assert!(text.contains("band"), "{text}");
        assert!(text.contains("sequence"), "{text}");
        assert!(text.contains("filter {S0}"), "{text}");
        assert!(text.contains("leaf"), "{text}");
    }
}
