//! Schedule-tree code generation: a CLooG-lite polyhedral scanner over
//! the explicit [`polytops_ir::ScheduleTree`].
//!
//! [`generate`] walks the schedule tree of a [`Schedule`] (lowering the
//! flat form first when post-processing never ran) and produces an
//! [`AstNode`] tree; [`emit_c`] lowers that tree to C-like text with
//! explicit tile loops, `#pragma omp parallel for` / `#pragma omp simd`
//! markers, and statement instances rewritten over the scan variables.
//!
//! The scanner works per statement with exact Fourier–Motzkin
//! projection: the statement's iteration domain is lifted into the
//! space `(scan variables…, auxiliary floor variables…, iterators…,
//! parameters…)`; each affine band member pins its scan variable to its
//! row, each tile member (single term, divisor > 1) is boxed around its
//! row (`T·v ≤ φ ≤ T·v + T − 1`), and each quasi-affine member (a
//! wavefront sum of floors) is pinned to the sum of its floored terms. A
//! term `(row, div)` that is the single term of a member on the same
//! path is that member's scan variable: both name the integer
//! `⌊row·x / div⌋`, so a wavefront's floors of its tile counters add no
//! column and no window rows. Every other term gets an auxiliary
//! variable of its own. Auxiliary variables and the original iterators
//! are eliminated, and loop bounds for scan variable `k` are read off
//! the projection onto the first `k + 1` scan variables.
//!
//! Statements with equal domain rows and equal path members (terms and
//! coincidence) have equal systems, so they share one scan: the union
//! bounds and the leaf guards ask each such class once and hand every
//! statement of the class the same answer.
//!
//! Statements that share a band never split into sibling loops: every
//! band member emits **one union loop** whose bounds cover all active
//! statements (shared bounds are proven with an exact LP implication
//! check, and a `min`/`max` combination of the per-statement bounds
//! covers the rest) while per-statement *guards* at the leaves restore
//! exactness.
//! Guards implied by the enclosing loop bounds are eliminated
//! gist-style with the same LP check, so a statement whose domain is
//! fully described by its loops carries no guard at all.
//!
//! Those implication checks come in families over one system, and each
//! family is asked of one live tableau ([`IncrementalLp`]): a
//! statement's scan space answers every shared-bound question about it
//! by re-optimizing from where the last answer left the basis, a leaf's
//! context tableau takes each kept guard as a pushed row, and the
//! redundancy pruning of a Fourier–Motzkin step asks the one tableau of
//! the step's system about each tested row
//! ([`IncrementalLp::redundant`]), which leaves an implied row out and a
//! needed one in. A question stops where its answer is known: a row is
//! refuted at the first basis where its value is negative, and a row
//! the prune keeps often at the vertex, before any pivot. The price of
//! the questions is counted as well as their number:
//! `codegen.question_pivots` beside `codegen.implied_queries`.
//!
//! Most of those questions never reach a tableau, because the rows
//! answer them. Every rule below is exact: it gives the answer the LP
//! would give, so the emitted C is the same with or without it.
//! - A row whose coefficients are those of a row of the system, with no
//!   smaller constant, is implied by that row. This settles a leaf guard
//!   that restates a loop bound, a floor relaxation or a guard already
//!   kept, and a shared bound that is a row of the statement's own scan
//!   space. A context's tableau is built only for the first question
//!   these rows cannot settle.
//! - In pruning, an inequality that is the only one of its sign on some
//!   variable no equality mentions is needed: without it that variable
//!   is unbounded one way, so nothing else implies it.
//! - Between two equality substitutions of the iterator cascade, the
//!   prune is skipped when the second substitution changes its rows only
//!   by scale. A substitution maps the pivot's hyperplane one to one
//!   onto the projection, so the prune after it keeps the same rows.

use std::fmt::Write as _;

use polytops_ir::{MarkKind, PathStep, Schedule, Scop, StmtId, TreeNode};
use polytops_math::{
    integral_inverse, lcm, narrow, ConstraintSystem, Echelon, IncrementalLp, MathError,
    Result as MathResult, RowKind,
};

/// Why a scheduled SCoP could not be lowered to C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The exact projections overflowed.
    Math(MathError),
    /// The statement's iterators are not integer affine expressions of
    /// the scan variables, so its call cannot be written.
    NoIntegralInverse {
        /// Name of the statement.
        stmt: String,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Math(e) => write!(f, "code generation: {e}"),
            CodegenError::NoIntegralInverse { stmt } => write!(
                f,
                "statement `{stmt}`: its schedule has no integral inverse, so its call cannot be emitted"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<MathError> for CodegenError {
    fn from(e: MathError) -> CodegenError {
        CodegenError::Math(e)
    }
}

/// One bound term `⌈expr / div⌉` (lower) or `⌊expr / div⌋` (upper); the
/// numerator is affine over `(outer scan vars…, params, 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTerm {
    /// Numerator coefficients: outer scan variables, then parameters,
    /// then the constant.
    pub expr: Vec<i64>,
    /// Positive divisor (1 for ordinary bounds).
    pub div: i64,
}

/// A loop in the generated AST, scanning one band member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNode {
    /// Scan-variable index (rendered as `c{var}`): the loop's nesting
    /// level among band members on this path.
    pub var: usize,
    /// Tile size when this member is a tile counter (a single floored
    /// term with divisor > 1).
    pub tile: Option<i64>,
    /// Whether this member was wavefront-skewed (sits under a
    /// `Mark::Wavefront` as the band's outermost member).
    pub wavefront: bool,
    /// Whether the member is coincident: the loop may run in parallel.
    pub parallel: bool,
    /// Whether a `Mark::Vectorize` covers every statement in this loop
    /// and this is the band's innermost member.
    pub simd: bool,
    /// Lower bound: `min` over the outer list of (`max` over the inner
    /// terms). A single-element outer list is a *shared* bound, valid
    /// for every statement in the loop.
    pub lb: Vec<Vec<BoundTerm>>,
    /// Upper bound: `max` over the outer list of (`min` over the inner
    /// terms).
    pub ub: Vec<Vec<BoundTerm>>,
    /// Loop body.
    pub body: Vec<AstNode>,
}

/// One leaf guard of a statement: a residual condition the enclosing
/// loops do not already imply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// `expr ≥ 0` with `expr` affine over `(scan vars…, params, 1)`.
    Ineq(Vec<i64>),
    /// `expr == 0` with `expr` affine over `(scan vars…, params, 1)`.
    Eq(Vec<i64>),
    /// `c{var} == Σⱼ ⌊exprⱼ / divⱼ⌋`: the exact coordinate check of a
    /// quasi-affine (wavefront) member, which no affine relaxation can
    /// express.
    Floors {
        /// The scan variable the floors must sum to.
        var: usize,
        /// The floored terms, each over `(scan vars…, params, 1)`.
        terms: Vec<BoundTerm>,
    },
}

/// A statement instance in the generated AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtNode {
    /// The statement.
    pub id: StmtId,
    /// Statement name (e.g. `S0`).
    pub name: String,
    /// Original iterators expressed over `(scan vars…, params, 1)`;
    /// `None` when the tree's affine members do not pin the iterators
    /// integrally.
    pub iters: Option<Vec<Vec<i64>>>,
    /// Residual guards (empty when the loops are exact for this
    /// statement).
    pub guards: Vec<Guard>,
}

/// A node of the generated AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AstNode {
    /// A loop over one scan variable.
    Loop(LoopNode),
    /// Sequential composition (tree `Sequence` children).
    Seq(Vec<AstNode>),
    /// A statement instance.
    Stmt(StmtNode),
}

/// Structural counters of a generated AST — the quantities the codegen
/// benchmark tracks per kernel and preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodegenStats {
    /// Total `for` loops emitted.
    pub loops: usize,
    /// Total residual guard conditions across all statements.
    pub guards: usize,
    /// Maximum loop nesting depth.
    pub max_depth: usize,
}

/// Counts loops, guard conditions and the maximum loop depth of an AST.
pub fn stats(node: &AstNode) -> CodegenStats {
    fn walk(node: &AstNode, depth: usize, s: &mut CodegenStats) {
        match node {
            AstNode::Seq(children) => children.iter().for_each(|c| walk(c, depth, s)),
            AstNode::Stmt(st) => s.guards += st.guards.len(),
            AstNode::Loop(l) => {
                s.loops += 1;
                s.max_depth = s.max_depth.max(depth + 1);
                l.body.iter().for_each(|c| walk(c, depth + 1, s));
            }
        }
    }
    let mut s = CodegenStats::default();
    walk(node, 0, &mut s);
    s
}

/// One band member a statement crosses, specialized to that statement.
#[derive(PartialEq)]
struct MemberData {
    /// `(numerator row, divisor)` terms; rows over the statement's
    /// `(iters, params, 1)` columns.
    terms: Vec<(Vec<i64>, i64)>,
    /// The member's coincidence flag.
    coincident: bool,
}

/// Per-statement scanning data.
struct StmtScan {
    /// The member steps along the statement's root-to-leaf path.
    members: Vec<MemberData>,
    /// `bounds[k] = (lb terms, ub terms)` over `(c_0..c_{k-1}, params, 1)`.
    bounds: Vec<(Vec<BoundTerm>, Vec<BoundTerm>)>,
    /// The full projection onto `(c_0..c_{K-1}, params)` — the exact
    /// (convex) description of the statement's scan space, the source
    /// of leaf guards — which every bound proposed for a loop around
    /// the statement is checked against.
    space: Context,
    /// Original iterators over `(c_0..c_{K-1}, params, 1)`, when the
    /// affine members pin them integrally.
    iters: Option<Vec<Vec<i64>>>,
}

/// What the implication questions of a scan cost: the LP questions
/// asked (`codegen.implied_queries`) and the primal pivots they took
/// (`codegen.question_pivots`).
#[derive(Default, Clone, Copy)]
struct Effort {
    queries: u64,
    pivots: u64,
}

impl std::ops::AddAssign for Effort {
    fn add_assign(&mut self, other: Effort) {
        self.queries += other.queries;
        self.pivots += other.pivots;
    }
}

/// Asks `lp` whether it implies `row ≥ 0`, and counts the question and
/// its pivots. A tableau that could not be built implies nothing, as
/// `ineq_implied` would answer.
fn ask(lp: Option<&mut IncrementalLp>, row: &[i64], effort: &mut Effort) -> bool {
    effort.queries += 1;
    lp.is_some_and(|lp| {
        let before = lp.primal_pivots();
        let implied = lp.implies(row);
        effort.pivots += (lp.primal_pivots() - before) as u64;
        implied
    })
}

/// A system that is asked many implication questions, its live tableau,
/// and what the questions that tableau answered cost.
///
/// A question the rows answer ([`restates`]) is not asked of the
/// tableau, and the tableau is built on the first question they do not
/// answer. Where that build overflowed, the tableau implies nothing,
/// while a restated row is still implied — which is true over the
/// rationals too.
struct Context {
    cs: ConstraintSystem,
    /// `None` until a question needs the tableau; `Some(None)` when it
    /// could not be built.
    lp: Option<Option<IncrementalLp>>,
    effort: Effort,
}

impl Context {
    fn new(cs: ConstraintSystem) -> Context {
        Context {
            cs,
            lp: None,
            effort: Effort::default(),
        }
    }

    /// Whether the system implies `row ≥ 0` over the rationals. Every
    /// answer the tableau gives starts from the basis the last one
    /// stopped at, and a refutation stops at the first basis that
    /// shows it ([`IncrementalLp::implies`]).
    fn implies(&mut self, row: &[i64]) -> bool {
        if restates(&self.cs, row) {
            return true;
        }
        let cs = &self.cs;
        let lp = self.lp.get_or_insert_with(|| IncrementalLp::new(cs).ok());
        ask(lp.as_mut(), row, &mut self.effort)
    }

    /// Whether the system implies `row == 0`.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when an entry of `row` is `i64::MIN`.
    fn implies_eq(&mut self, row: &[i64]) -> MathResult<bool> {
        let neg = negated(row)?;
        Ok(self.implies(row) && self.implies(&neg))
    }

    /// Adds a row to the system. A push that overflows leaves a
    /// tableau that implies nothing, which only keeps guards. An
    /// equality goes in untimed: `simplex.pin_eq_ns` is the lexmin's.
    fn push(&mut self, kind: RowKind, row: &[i64]) {
        match kind {
            RowKind::Ineq => self.cs.add_ineq(row.to_vec()),
            RowKind::Eq => self.cs.add_eq(row.to_vec()),
        }
        if let Some(Some(lp)) = &mut self.lp {
            let _ = match kind {
                RowKind::Ineq => lp.push_ineq(row),
                RowKind::Eq => lp.push_eq(row),
            };
        }
    }
}

/// Whether `cs` implies `row ≥ 0` by inspection: it has an inequality
/// with `row`'s coefficients and a constant no larger than `row`'s, or
/// an equality that, read either way, is such an inequality.
fn restates(cs: &ConstraintSystem, row: &[i64]) -> bool {
    let n = cs.num_vars();
    let (coeffs, cst) = (&row[..n], i128::from(row[n]));
    cs.iter().any(|(kind, r)| {
        (r[..n] == *coeffs && i128::from(r[n]) <= cst)
            || (kind == RowKind::Eq
                && r[..n]
                    .iter()
                    .zip(coeffs)
                    .all(|(&a, &b)| b.checked_neg() == Some(a))
                && -i128::from(r[n]) <= cst)
    })
}

/// Drops every inequality row the remaining rows already imply (an
/// exact LP check per row). Fourier–Motzkin cascades produce heavily
/// redundant systems; pruning after each elimination keeps the cascade
/// small and the extracted loop bounds readable. `effort` counts the
/// LP questions asked and their pivots.
///
/// Rows are tested in order against the rows still kept, so of two
/// identical rows the first goes and the second stays. All tests are
/// asked of the one tableau of `cs` ([`IncrementalLp::redundant`]). A
/// row the prune keeps is refuted where that is cheapest: at the
/// current vertex with no pivot when its slack can leave downwards
/// there, otherwise on the first basis below zero after the drop,
/// which is rolled back. A row that turns out implied stays out.
///
/// A feasible system keeps, with no question, every inequality that is
/// the only one with a positive (or the only one with a negative)
/// coefficient on a variable no equality mentions. Without that row,
/// any feasible point of the rows still kept stays feasible as the
/// variable moves against the row, which makes the row's value as
/// negative as one likes: the row is not implied, and the LP would say
/// so. Rows only leave, so a row alone in its sign among all of `cs`'s
/// rows is alone among the kept ones too. An infeasible system implies
/// every row, and there no row is kept this way.
fn prune_redundant(cs: &ConstraintSystem, effort: &mut Effort) -> ConstraintSystem {
    let rows = cs.rows();
    let n = cs.num_vars();
    let mut keep = vec![true; rows.len()];
    // An empty system has no feasible basis to take a row out of, and
    // a tableau that overflowed none to trust: each row is then tested
    // against a system rebuilt from the rows still kept.
    let mut live = IncrementalLp::new(cs)
        .ok()
        .filter(IncrementalLp::is_feasible);
    // Per variable: the inequalities with a positive and with a
    // negative coefficient on it, and whether an equality mentions it.
    let mut pos = vec![0usize; n];
    let mut neg = vec![0usize; n];
    let mut in_eq = vec![false; n];
    for (kind, row) in rows {
        for v in 0..n {
            match (kind, row[v].signum()) {
                (_, 0) => {}
                (RowKind::Eq, _) => in_eq[v] = true,
                (RowKind::Ineq, 1) => pos[v] += 1,
                (RowKind::Ineq, _) => neg[v] += 1,
            }
        }
    }
    let sole_bound = |row: &[i64]| {
        (0..n).any(|v| !in_eq[v] && ((row[v] > 0 && pos[v] == 1) || (row[v] < 0 && neg[v] == 1)))
    };
    let ineqs = (0..rows.len()).filter(|&i| rows[i].0 == RowKind::Ineq);
    for (k, i) in ineqs.enumerate() {
        keep[i] = match &mut live {
            Some(_) if sole_bound(&rows[i].1) => true,
            Some(lp) => {
                effort.queries += 1;
                !lp.redundant(k, &rows[i].1)
            }
            None => {
                let mut rest = ConstraintSystem::new(n);
                for (j, (kind, row)) in rows.iter().enumerate() {
                    match kind {
                        _ if j == i || !keep[j] => {}
                        RowKind::Eq => rest.add_eq(row.clone()),
                        RowKind::Ineq => rest.add_ineq(row.clone()),
                    }
                }
                !ask(IncrementalLp::new(&rest).ok().as_mut(), &rows[i].1, effort)
            }
        };
    }
    // A rollback keeps the pivots counted: these are every question's.
    effort.pivots += live.map_or(0, |lp| lp.primal_pivots() as u64);
    let mut out = ConstraintSystem::new(cs.num_vars());
    for ((kind, row), _) in rows.iter().zip(keep).filter(|(_, keep)| *keep) {
        match kind {
            RowKind::Eq => out.add_eq(row.clone()),
            RowKind::Ineq => out.add_ineq(row.clone()),
        }
    }
    out
}

/// Extracts lb/ub terms for scan variable `k` from the projection onto
/// `(c_0..c_k, params)`.
///
/// # Errors
///
/// [`MathError::Overflow`] when a negated entry is `i64::MIN`.
fn extract_bounds(
    proj: &ConstraintSystem,
    k: usize,
) -> MathResult<(Vec<BoundTerm>, Vec<BoundTerm>)> {
    let mut lb = Vec::new();
    let mut ub = Vec::new();
    let n = proj.num_vars();
    let mut add = |row: &[i64]| {
        // coeff·c_k + rest ⋛ 0 with rest over (c_0..c_{k-1}, params, 1).
        let coeff = row[k];
        let mut rest: Vec<i64> = Vec::with_capacity(n);
        rest.extend_from_slice(&row[..k]);
        rest.extend_from_slice(&row[k + 1..=n]);
        if coeff > 0 {
            // c_k >= ceil(-rest / coeff)
            let term = BoundTerm {
                expr: negated(&rest)?,
                div: coeff,
            };
            if !lb.contains(&term) {
                lb.push(term);
            }
        } else {
            // c_k <= floor(rest / -coeff)
            let term = BoundTerm {
                expr: rest,
                div: coeff.checked_neg().ok_or(MathError::Overflow)?,
            };
            if !ub.contains(&term) {
                ub.push(term);
            }
        }
        MathResult::Ok(())
    };
    for (kind, row) in proj.iter() {
        if row[k] == 0 {
            continue;
        }
        add(row)?;
        if kind == RowKind::Eq {
            add(&negated(row)?)?;
        }
    }
    Ok((lb, ub))
}

/// Builds one statement's scan data: lift the domain and the member
/// constraints, eliminate auxiliary floor variables and iterators, and
/// read per-level bounds off successive projections.
fn scan_stmt(scop: &Scop, sid: usize, members: Vec<MemberData>) -> MathResult<StmtScan> {
    let _timing = polytops_math::obs::time("codegen.scan_ns");
    let stmt = &scop.statements[sid];
    let d = stmt.depth();
    let np = scop.nparams();
    let kk = members.len();
    let columns = floor_columns(&members);
    let aux = columns.iter().flatten().filter(|&&w| w >= kk).count();
    let total = kk + aux + d + np;
    let mut sys = ConstraintSystem::new(total);
    // Domain rows (over iters, params) lifted into the new layout.
    for (kind, row) in stmt.domain.iter() {
        let mut r = vec![0i64; total + 1];
        r[kk + aux..kk + aux + d + np].copy_from_slice(&row[..d + np]);
        r[total] = row[d + np];
        match kind {
            RowKind::Eq => sys.add_eq(r),
            RowKind::Ineq => sys.add_ineq(r),
        }
    }
    // φ(iters, params) spread into the lifted layout.
    let lift = |row: &[i64]| {
        let mut phi = vec![0i64; total + 1];
        phi[kk + aux..kk + aux + d + np].copy_from_slice(&row[..d + np]);
        phi[total] = row[d + np];
        phi
    };
    // div·target ≤ φ ≤ div·target + div − 1.
    let add_box = |sys: &mut ConstraintSystem, target: usize, row: &[i64], div: i64| {
        let mut lo = lift(row);
        lo[target] = mul_add(lo[target], -1, div)?;
        sys.add_ineq(lo);
        let mut hi = negated(&lift(row))?;
        hi[target] = mul_add(hi[target], 1, div)?;
        hi[total] = mul_add(hi[total], 1, div - 1)?;
        sys.add_ineq(hi);
        MathResult::Ok(())
    };
    for (v, (md, terms_at)) in members.iter().zip(&columns).enumerate() {
        if let [(row, div)] = md.terms.as_slice() {
            if *div == 1 {
                // c_v == φ.
                let mut eq = lift(row);
                eq[v] -= 1;
                sys.add_eq(eq);
            } else {
                add_box(&mut sys, v, row, *div)?;
            }
        } else {
            // c_v == Σ w_j with each w_j = ⌊rowⱼ·x / divⱼ⌋ in its column.
            let mut eq = vec![0i64; total + 1];
            eq[v] = 1;
            for ((row, div), &w) in md.terms.iter().zip(terms_at) {
                eq[w] -= 1;
                if w < kk {
                    // A scan variable its own member already pins.
                    continue;
                }
                if *div == 1 {
                    let mut e = lift(row);
                    e[w] -= 1;
                    sys.add_eq(e);
                } else {
                    add_box(&mut sys, w, row, *div)?;
                }
            }
            sys.add_eq(eq);
        }
    }
    // Eliminate the auxiliary floor variables and the original
    // iterators (positions kk..kk+aux+d).
    let mut effort = Effort::default();
    let mut cur = eliminate_pruned(sys, kk, aux + d, &mut effort)?;
    let full = cur.clone();
    // Successive projections onto (c_0..c_k, params).
    let mut projections = vec![cur.clone()];
    for k in (1..kk).rev() {
        cur = prune_redundant(&cur.eliminate_var(k)?, &mut effort);
        projections.push(cur.clone());
    }
    projections.reverse();
    let bounds = (0..kk)
        .map(|k| extract_bounds(&projections[k], k))
        .collect::<MathResult<_>>()?;
    let iters = invert_iters(d, np, &members)?;
    let mut space = Context::new(full);
    space.effort += effort;
    Ok(StmtScan {
        members,
        bounds,
        space,
        iters,
    })
}

/// The lifted column of each term of each quasi-affine member (none for
/// a single-term member). A term `(row, div)` that is the single term of
/// a member on the path lives in that member's scan variable: both name
/// the integer `⌊row·x / div⌋`, so the sum needs no auxiliary variable
/// and no window rows for it. Every other term gets an auxiliary column
/// of its own, numbered from `members.len()` on.
fn floor_columns(members: &[MemberData]) -> Vec<Vec<usize>> {
    let mut next_aux = members.len();
    let mut columns = Vec::with_capacity(members.len());
    for md in members {
        let mut at = Vec::new();
        if md.terms.len() > 1 {
            for term in &md.terms {
                let member = members
                    .iter()
                    .position(|m| matches!(m.terms.as_slice(), [t] if t == term));
                at.push(member.unwrap_or_else(|| {
                    next_aux += 1;
                    next_aux - 1
                }));
            }
        }
        columns.push(at);
    }
    columns
}

/// Eliminates `count` variables at position `at`, one at a time, and
/// prunes the system after each step: the same rows as
/// `prune_redundant(&cur.eliminate_var(at)?)` `count` times over.
///
/// A prune between two equality substitutions is skipped when the
/// second one changes its rows only by scale
/// ([`ConstraintSystem::substitute_eq`]). Such a substitution keeps
/// every rational implication between rows, so the prune after it tests
/// the same rows with the same answers, and drops what the skipped
/// prune would have dropped; a row that prune kept was implied by none
/// of the rows after it, so the later prune keeps it as well. When the
/// second step merges, drops or tightens a row, the first prune runs as
/// before and the step is taken again from its result.
fn eliminate_pruned(
    mut cur: ConstraintSystem,
    at: usize,
    count: usize,
    effort: &mut Effort,
) -> MathResult<ConstraintSystem> {
    // Whether `cur` is a substitution's result whose prune is put off.
    let mut unpruned = false;
    for _ in 0..count {
        let mut step = cur.substitute_eq(at)?;
        if unpruned {
            if let Some((next, true)) = step {
                cur = next;
                continue;
            }
            cur = prune_redundant(&cur, effort);
            step = cur.substitute_eq(at)?;
        }
        (cur, unpruned) = match step {
            Some((next, _)) => (next, true),
            None => (prune_redundant(&cur.eliminate_var(at)?, effort), false),
        };
    }
    Ok(if unpruned {
        prune_redundant(&cur, effort)
    } else {
        cur
    })
}

/// Inverts the affine members pinning a statement's `d` iterators:
/// expresses each original iterator over `(scan vars…, params, 1)`.
/// `Ok(None)` when no integral inverse exists.
fn invert_iters(d: usize, np: usize, members: &[MemberData]) -> MathResult<Option<Vec<Vec<i64>>>> {
    let kk = members.len();
    // Greedily pick affine members whose iterator rows form a rank-d
    // basis: a row joins when it is independent of the rows before it.
    let mut echelon = Echelon::new(d);
    let mut picked: Vec<usize> = Vec::new();
    for (k, md) in members.iter().enumerate() {
        if echelon.rank() == d {
            break;
        }
        if let [(row, 1)] = md.terms.as_slice() {
            if echelon.insert(&row[..d])? {
                picked.push(k);
            }
        }
    }
    if echelon.rank() != d {
        return Ok(None);
    }
    let m: Vec<Vec<i64>> = picked
        .iter()
        .map(|&k| members[k].terms[0].0[..d].to_vec())
        .collect();
    let Some(inv) = integral_inverse(&m)? else {
        return Ok(None);
    };
    // x = M⁻¹ · (c_picked − param/const parts of the picked rows).
    let mut out = Vec::with_capacity(d);
    for inv_row in inv {
        let mut expr = vec![0i128; kk + np + 1];
        for (w, &k) in inv_row.into_iter().map(i128::from).zip(&picked) {
            expr[k] = w;
            for (e, &c) in expr[kk..].iter_mut().zip(&members[k].terms[0].0[d..]) {
                *e = e
                    .checked_sub(w * i128::from(c))
                    .ok_or(MathError::Overflow)?;
            }
        }
        out.push(expr.into_iter().map(narrow).collect::<MathResult<_>>()?);
    }
    Ok(Some(out))
}

/// Lifts a bound on `c_k` (over `(c_0..c_{k-1}, params, 1)`) into a
/// statement's full `(c_0..c_{K-1}, params)` row: `div·c_k − expr ≥ 0`
/// for lower bounds, `expr − div·c_k ≥ 0` for upper bounds.
///
/// # Errors
///
/// [`MathError::Overflow`] when a negated entry is `i64::MIN`.
fn lift_bound(
    term: &BoundTerm,
    k: usize,
    kk: usize,
    np: usize,
    lower: bool,
) -> MathResult<Vec<i64>> {
    let sign = if lower { -1 } else { 1 };
    let mut row = vec![0i64; kk + np + 1];
    for (i, &c) in term.expr[..k].iter().enumerate() {
        row[i] = mul_add(0, sign, c)?;
    }
    for (p, &c) in term.expr[k..].iter().enumerate() {
        row[kk + p] = mul_add(0, sign, c)?;
    }
    row[k] = mul_add(0, -sign, term.div)?;
    Ok(row)
}

/// Whether `term` is a valid `c_k` bound for every point of `scan`'s
/// statement (an exact LP implication over the full projection). A
/// term lifted to one of the projection's own rows is valid without
/// the LP.
fn bound_valid(
    scan: &mut StmtScan,
    k: usize,
    term: &BoundTerm,
    lower: bool,
    np: usize,
) -> MathResult<bool> {
    let row = lift_bound(term, k, scan.members.len(), np, lower)?;
    Ok(scan.space.implies(&row))
}

/// The scans of a SCoP's statements: one per class of statements with
/// equal domain rows and equal path members, since equal systems give
/// equal projections, bounds and answers.
struct Scans {
    classes: Vec<StmtScan>,
    /// Each statement's class.
    class_of: Vec<usize>,
}

impl Scans {
    /// Scans each class of statements once: the statements whose domain
    /// rows and whose members along `paths` (terms and coincidence) are
    /// equal to an earlier statement's join that statement's class.
    fn new(scop: &Scop, paths: &[Vec<PathStep>]) -> MathResult<Scans> {
        let mut scans = Scans {
            classes: Vec::new(),
            class_of: Vec::with_capacity(paths.len()),
        };
        // The first statement of each class, whose domain the class scans.
        let mut firsts: Vec<usize> = Vec::new();
        for (sid, path) in paths.iter().enumerate() {
            let members: Vec<MemberData> = path
                .iter()
                .filter_map(|step| match step {
                    PathStep::Member {
                        terms, coincident, ..
                    } => Some(MemberData {
                        terms: terms.clone(),
                        coincident: *coincident,
                    }),
                    PathStep::Seq { .. } => None,
                })
                .collect();
            let domain = &scop.statements[sid].domain;
            let class = firsts
                .iter()
                .zip(&scans.classes)
                .position(|(&first, scan)| {
                    scan.members == members && scop.statements[first].domain == *domain
                });
            scans.class_of.push(class.unwrap_or(scans.classes.len()));
            if class.is_none() {
                firsts.push(sid);
                scans.classes.push(scan_stmt(scop, sid, members)?);
            }
        }
        Ok(scans)
    }

    /// The classes of `active`, each once, in order of first appearance.
    fn classes_of(&self, active: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &s in active {
            let c = self.class_of[s];
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// The union bound of one loop level: the shared terms every active
/// statement satisfies when such terms exist, otherwise the per-
/// statement bound lists combined with an outer `min`/`max`. Each class
/// of active statements is asked once.
fn union_bounds(
    scans: &mut Scans,
    active: &[usize],
    k: usize,
    lower: bool,
    np: usize,
) -> MathResult<Vec<Vec<BoundTerm>>> {
    fn list_of(scan: &StmtScan, k: usize, lower: bool) -> &Vec<BoundTerm> {
        let (lb, ub) = &scan.bounds[k];
        if lower {
            lb
        } else {
            ub
        }
    }
    let classes = scans.classes_of(active);
    let mut candidates: Vec<BoundTerm> = Vec::new();
    for &c in &classes {
        for t in list_of(&scans.classes[c], k, lower) {
            if !candidates.contains(t) {
                candidates.push(t.clone());
            }
        }
    }
    let mut shared = Vec::new();
    'candidates: for t in candidates {
        for &c in &classes {
            if !bound_valid(&mut scans.classes[c], k, &t, lower, np)? {
                continue 'candidates;
            }
        }
        shared.push(t);
    }
    if !shared.is_empty() {
        return Ok(vec![shared]);
    }
    let mut lists: Vec<Vec<BoundTerm>> = Vec::new();
    for &c in &classes {
        let l = list_of(&scans.classes[c], k, lower).clone();
        if !lists.contains(&l) {
            lists.push(l);
        }
    }
    Ok(lists)
}

/// Marks pending from enclosing `Mark` nodes, consumed by the next band.
#[derive(Default, Clone, Copy)]
struct PendingMarks<'a> {
    wavefront: bool,
    simd_stmts: Option<&'a [usize]>,
}

/// The leaf guards of one statement — the exact floor checks of its
/// quasi-affine members plus every full-projection row the enclosing
/// loop bounds do not imply — and what the LP questions that took cost.
/// The context the rows are tested against is one tableau: the loop
/// bounds, and each guard kept so far pushed onto it. A row that
/// restates one of those is implied on sight, and the tableau is built
/// only when a row is not.
///
/// # Errors
///
/// [`MathError::Overflow`] when a floor relaxation's coefficients
/// outgrow `i64`.
fn leaf_guards(
    scan: &StmtScan,
    loop_bounds: &[(usize, bool, BoundTerm)],
    np: usize,
) -> MathResult<(Vec<Guard>, Effort)> {
    let kk = scan.members.len();
    let mut bounds = ConstraintSystem::new(kk + np);
    for (k, lower, term) in loop_bounds {
        bounds.add_ineq(lift_bound(term, *k, kk, np, *lower)?);
    }
    let mut out = Vec::new();
    // Exact floor guards for quasi-affine members, plus their linear
    // relaxation (`D·c_v` between the div-weighted term sums, `D` the
    // lcm of the divisors) so the projection rows derived from the same
    // facts are recognized as implied below.
    for (v, md) in scan.members.iter().enumerate() {
        if md.terms.len() < 2 {
            continue;
        }
        let Some(terms) = floor_terms(scan, md)? else {
            continue;
        };
        let d_all = terms
            .iter()
            .try_fold(1, |d: i64, t| narrow(lcm(d.into(), t.div.into())))?;
        let mut lo = vec![0i64; kk + np + 1];
        let mut hi = vec![0i64; kk + np + 1];
        lo[v] = d_all;
        hi[v] = -d_all;
        for t in &terms {
            let w = d_all / t.div;
            for (i, &c) in t.expr.iter().enumerate() {
                lo[i] = mul_add(lo[i], -w, c)?;
                hi[i] = mul_add(hi[i], w, c)?;
            }
            lo[kk + np] = mul_add(lo[kk + np], w, t.div - 1)?;
        }
        bounds.add_ineq(lo);
        bounds.add_ineq(hi);
        out.push(Guard::Floors { var: v, terms });
    }
    let mut ctx = Context::new(bounds);
    for (kind, row) in scan.space.cs.iter() {
        let implied = match kind {
            RowKind::Ineq => ctx.implies(row),
            RowKind::Eq => ctx.implies_eq(row)?,
        };
        if !implied {
            out.push(match kind {
                RowKind::Ineq => Guard::Ineq(row.to_vec()),
                RowKind::Eq => Guard::Eq(row.to_vec()),
            });
            ctx.push(kind, row);
        }
    }
    Ok((out, ctx.effort))
}

/// The floored terms of a quasi-affine member rewritten over the scan
/// variables; `None` when the statement's iterators are not invertible.
///
/// # Errors
///
/// [`MathError::Overflow`] when a rewritten coefficient outgrows `i64`.
fn floor_terms(scan: &StmtScan, md: &MemberData) -> MathResult<Option<Vec<BoundTerm>>> {
    let Some(iters) = scan.iters.as_ref() else {
        return Ok(None);
    };
    let kk = scan.members.len();
    let width = scan.space.cs.num_vars() + 1; // kk + np + 1
    let np = width - kk - 1;
    let d = iters.len();
    let mut out = Vec::with_capacity(md.terms.len());
    for (row, div) in &md.terms {
        let mut e = vec![0i64; width];
        for (i, x) in iters.iter().enumerate() {
            for (pos, &c) in x.iter().enumerate() {
                e[pos] = mul_add(e[pos], row[i], c)?;
            }
        }
        for p in 0..=np {
            e[kk + p] = mul_add(e[kk + p], row[d + p], 1)?;
        }
        out.push(BoundTerm { expr: e, div: *div });
    }
    Ok(Some(out))
}

/// `acc + a·b`, or [`MathError::Overflow`] when that outgrows `i64`.
fn mul_add(acc: i64, a: i64, b: i64) -> MathResult<i64> {
    narrow(i128::from(acc) + i128::from(a) * i128::from(b))
}

/// `-row`, or [`MathError::Overflow`] when an entry is `i64::MIN`.
fn negated(row: &[i64]) -> MathResult<Vec<i64>> {
    row.iter()
        .map(|&c| c.checked_neg().ok_or(MathError::Overflow))
        .collect()
}

/// Recursively builds the AST of one tree node for the active
/// statements.
#[allow(clippy::too_many_arguments)]
fn walk(
    scop: &Scop,
    scans: &mut Scans,
    node: &TreeNode,
    active: &[usize],
    level: usize,
    loop_bounds: &mut Vec<(usize, bool, BoundTerm)>,
    marks: PendingMarks<'_>,
) -> MathResult<Vec<AstNode>> {
    if active.is_empty() {
        return Ok(Vec::new());
    }
    let np = scop.nparams();
    match node {
        TreeNode::Leaf => {
            // One guard list per class under the same loop bounds.
            let mut guards = Vec::new();
            for c in scans.classes_of(active) {
                let (g, asked) = leaf_guards(&scans.classes[c], loop_bounds, np)?;
                scans.classes[c].space.effort += asked;
                guards.push((c, g));
            }
            Ok(active
                .iter()
                .map(|&sid| {
                    let c = scans.class_of[sid];
                    let (_, g) = guards
                        .iter()
                        .find(|(gc, _)| *gc == c)
                        .expect("active class");
                    AstNode::Stmt(StmtNode {
                        id: StmtId(sid),
                        name: scop.statements[sid].name.clone(),
                        iters: scans.classes[c].iters.clone(),
                        guards: g.clone(),
                    })
                })
                .collect())
        }
        TreeNode::Filter { stmts, child } => {
            let inner: Vec<usize> = active
                .iter()
                .copied()
                .filter(|s| stmts.contains(s))
                .collect();
            walk(scop, scans, child, &inner, level, loop_bounds, marks)
        }
        TreeNode::Sequence(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(walk(
                    scop,
                    scans,
                    c,
                    active,
                    level,
                    loop_bounds,
                    PendingMarks::default(),
                )?);
            }
            Ok(out)
        }
        TreeNode::Mark { kind, child } => {
            let next = match kind {
                MarkKind::Tile(_) => marks,
                MarkKind::Wavefront => PendingMarks {
                    wavefront: true,
                    ..marks
                },
                MarkKind::Vectorize(stmts) => PendingMarks {
                    simd_stmts: Some(stmts),
                    ..marks
                },
            };
            walk(scop, scans, child, active, level, loop_bounds, next)
        }
        TreeNode::Band { members, child, .. } => {
            let n = members.len();
            build_member(scop, scans, active, level, n, 0, child, loop_bounds, marks)
        }
    }
}

/// Builds the `j`-th member loop of a band (and, recursively, the
/// members inside it, then the band's child).
#[allow(clippy::too_many_arguments)]
fn build_member(
    scop: &Scop,
    scans: &mut Scans,
    active: &[usize],
    level: usize,
    n: usize,
    j: usize,
    child: &TreeNode,
    loop_bounds: &mut Vec<(usize, bool, BoundTerm)>,
    marks: PendingMarks<'_>,
) -> MathResult<Vec<AstNode>> {
    if j == n {
        return walk(
            scop,
            scans,
            child,
            active,
            level + n,
            loop_bounds,
            PendingMarks::default(),
        );
    }
    let k = level + j;
    let np = scop.nparams();
    let lb = union_bounds(scans, active, k, true, np)?;
    let ub = union_bounds(scans, active, k, false, np)?;
    // Shared bounds join the gist context of every nested statement.
    let pushed = {
        let mut pushed = 0;
        if let [terms] = lb.as_slice() {
            for t in terms {
                loop_bounds.push((k, true, t.clone()));
                pushed += 1;
            }
        }
        if let [terms] = ub.as_slice() {
            for t in terms {
                loop_bounds.push((k, false, t.clone()));
                pushed += 1;
            }
        }
        pushed
    };
    let body = build_member(
        scop,
        scans,
        active,
        level,
        n,
        j + 1,
        child,
        loop_bounds,
        marks,
    )?;
    for _ in 0..pushed {
        loop_bounds.pop();
    }
    let md = &scans.classes[scans.class_of[active[0]]].members[k];
    let tile = match md.terms.as_slice() {
        [(_, div)] if *div > 1 => Some(*div),
        _ => None,
    };
    let simd = j + 1 == n
        && marks
            .simd_stmts
            .is_some_and(|stmts| active.iter().all(|s| stmts.contains(s)));
    Ok(vec![AstNode::Loop(LoopNode {
        var: k,
        tile,
        wavefront: j == 0 && marks.wavefront,
        parallel: md.coincident,
        simd,
        lb,
        ub,
        body,
    })])
}

/// Generates the AST of a scheduled SCoP by walking its schedule tree
/// (lowering the flat schedule when no tree was recorded).
///
/// # Errors
///
/// Propagates arithmetic overflow from the exact projections.
///
/// # Panics
///
/// Panics if `sched` is not a schedule of `scop`.
pub fn generate(scop: &Scop, sched: &Schedule) -> MathResult<AstNode> {
    let tree = sched.tree_or_lowered();
    assert_eq!(
        tree.nstmts,
        scop.statements.len(),
        "schedule/scop statement count"
    );
    let mut scans = Scans::new(scop, &tree.stmt_paths())?;
    let active: Vec<usize> = (0..scop.statements.len()).collect();
    let mut loop_bounds = Vec::new();
    let body = walk(
        scop,
        &mut scans,
        &tree.root,
        &active,
        0,
        &mut loop_bounds,
        PendingMarks::default(),
    )?;
    let mut effort = Effort::default();
    for scan in &scans.classes {
        effort += scan.space.effort;
    }
    polytops_math::obs::count("codegen.implied_queries", effort.queries);
    polytops_math::obs::count("codegen.question_pivots", effort.pivots);
    Ok(match body.len() {
        1 => body.into_iter().next().expect("nonempty"),
        _ => AstNode::Seq(body),
    })
}

// ---------------------------------------------------------------------
// Lowering to C-like text.
// ---------------------------------------------------------------------

/// Renders an affine numerator over `(c_0.., params, 1)`; the scan-var
/// count is implied by the expression length.
///
/// # Errors
///
/// [`MathError::Overflow`] when a negated entry is `i64::MIN`.
fn render_affine(expr: &[i64], params: &[&str]) -> MathResult<String> {
    let nvars = expr.len() - 1 - params.len();
    let mut out = String::new();
    let name = |i: usize| -> String {
        if i < nvars {
            format!("c{i}")
        } else {
            params[i - nvars].to_string()
        }
    };
    let magnitude = |c: i64| c.checked_abs().ok_or(MathError::Overflow);
    for (i, &c) in expr[..expr.len() - 1].iter().enumerate() {
        if c == 0 {
            continue;
        }
        let v = name(i);
        if out.is_empty() {
            match c {
                1 => out.push_str(&v),
                -1 => {
                    let _ = write!(out, "-{v}");
                }
                _ => {
                    let _ = write!(out, "{c}*{v}");
                }
            }
        } else {
            let sign = if c > 0 { "+" } else { "-" };
            let a = magnitude(c)?;
            if a == 1 {
                let _ = write!(out, " {sign} {v}");
            } else {
                let _ = write!(out, " {sign} {a}*{v}");
            }
        }
    }
    let cst = expr[expr.len() - 1];
    if out.is_empty() {
        let _ = write!(out, "{cst}");
    } else if cst > 0 {
        let _ = write!(out, " + {cst}");
    } else if cst < 0 {
        let _ = write!(out, " - {}", magnitude(cst)?);
    }
    Ok(out)
}

/// Renders one bound term, wrapping in `floord`/`ceild` when divided.
fn render_term(term: &BoundTerm, lower: bool, params: &[&str]) -> MathResult<String> {
    let e = render_affine(&term.expr, params)?;
    Ok(if term.div == 1 {
        e
    } else if lower {
        format!("ceild({e}, {})", term.div)
    } else {
        format!("floord({e}, {})", term.div)
    })
}

/// Renders a max-of/min-of list of bound terms.
fn render_terms(terms: &[BoundTerm], lower: bool, params: &[&str]) -> MathResult<String> {
    let rendered = terms
        .iter()
        .map(|t| render_term(t, lower, params))
        .collect::<MathResult<Vec<_>>>()?;
    Ok(match rendered.len() {
        0 => if lower { "-INF" } else { "INF" }.to_string(),
        1 => rendered.into_iter().next().expect("nonempty"),
        _ => format!(
            "{}({})",
            if lower { "max" } else { "min" },
            rendered.join(", ")
        ),
    })
}

/// Renders a full loop bound: the outer `min`/`max` over per-statement
/// term lists (a single list renders without the outer combinator).
fn render_bound(lists: &[Vec<BoundTerm>], lower: bool, params: &[&str]) -> MathResult<String> {
    let rendered = lists
        .iter()
        .map(|terms| render_terms(terms, lower, params))
        .collect::<MathResult<Vec<_>>>()?;
    Ok(match rendered.len() {
        0 => if lower { "-INF" } else { "INF" }.to_string(),
        1 => rendered.into_iter().next().expect("nonempty"),
        _ => format!(
            "{}({})",
            if lower { "min" } else { "max" },
            rendered.join(", ")
        ),
    })
}

/// Renders one guard condition.
fn render_guard(g: &Guard, params: &[&str]) -> MathResult<String> {
    Ok(match g {
        Guard::Ineq(row) => format!("{} >= 0", render_affine(row, params)?),
        Guard::Eq(row) => format!("{} == 0", render_affine(row, params)?),
        Guard::Floors { var, terms } => {
            let sum = terms
                .iter()
                .map(|t| {
                    let e = render_affine(&t.expr, params)?;
                    Ok(if t.div == 1 {
                        format!("({e})")
                    } else {
                        format!("floord({e}, {})", t.div)
                    })
                })
                .collect::<MathResult<Vec<_>>>()?;
            format!("c{var} == {}", sum.join(" + "))
        }
    })
}

fn emit_node(
    node: &AstNode,
    params: &[&str],
    indent: usize,
    in_parallel: bool,
    out: &mut String,
) -> Result<(), CodegenError> {
    let pad = "  ".repeat(indent);
    match node {
        AstNode::Seq(children) => {
            for c in children {
                emit_node(c, params, indent, in_parallel, out)?;
            }
        }
        AstNode::Loop(l) => {
            let v = format!("c{}", l.var);
            let lb = render_bound(&l.lb, true, params)?;
            let ub = render_bound(&l.ub, false, params)?;
            let mark_parallel = l.parallel && !in_parallel;
            if mark_parallel {
                let _ = writeln!(out, "{pad}#pragma omp parallel for");
            }
            if l.simd {
                let _ = writeln!(out, "{pad}#pragma omp simd");
            }
            let mut note = String::new();
            if let Some(size) = l.tile {
                let _ = write!(note, " // tile loop (size {size})");
            }
            if l.wavefront {
                let _ = write!(note, " // wavefront");
            }
            let _ = writeln!(out, "{pad}for ({v} = {lb}; {v} <= {ub}; {v}++) {{{note}");
            for c in &l.body {
                emit_node(c, params, indent + 1, in_parallel || mark_parallel, out)?;
            }
            let _ = writeln!(out, "{pad}}}");
        }
        AstNode::Stmt(s) => {
            // Without the inverse there are no arguments to print, and
            // no stride guard picks the scan points that are instances.
            let exprs = s
                .iters
                .as_ref()
                .ok_or_else(|| CodegenError::NoIntegralInverse {
                    stmt: s.name.clone(),
                })?;
            let args = exprs
                .iter()
                .map(|e| render_affine(e, params))
                .collect::<MathResult<Vec<_>>>()?
                .join(", ");
            if s.guards.is_empty() {
                let _ = writeln!(out, "{pad}{}({args});", s.name);
            } else {
                let conds = s
                    .guards
                    .iter()
                    .map(|g| render_guard(g, params))
                    .collect::<MathResult<Vec<_>>>()?;
                let _ = writeln!(out, "{pad}if ({}) {}({args});", conds.join(" && "), s.name);
            }
        }
    }
    Ok(())
}

/// Lowers a scheduled SCoP to C-like text through the schedule-tree
/// AST.
///
/// The output uses CLooG-style `floord`/`ceild` integer divisions and
/// `max`/`min` bound combinators; tile loops and wavefront loops are
/// annotated, parallel members carry an OpenMP pragma, vectorized
/// members carry `#pragma omp simd`, and residual per-statement guards
/// render as `if (...)` conditions.
///
/// # Errors
///
/// [`CodegenError::Math`] for arithmetic overflow in the exact
/// projections, [`CodegenError::NoIntegralInverse`] for a statement
/// whose schedule rows (a scaled coefficient such as `2·i`) do not give
/// its iterators back as integer expressions of the scan variables.
pub fn emit_c(scop: &Scop, sched: &Schedule) -> Result<String, CodegenError> {
    let tree = generate(scop, sched)?;
    let params: Vec<&str> = scop.params.iter().map(String::as_str).collect();
    let mut out = String::new();
    emit_node(&tree, &params, 0, false, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::StmtSchedule;
    use polytops_math::ineq_implied;
    use proptest::prelude::*;

    /// The prune before inspection, kept as the reference: one LP
    /// question per inequality.
    fn prune_redundant_lp(cs: &ConstraintSystem, queries: &mut u64) -> ConstraintSystem {
        let rows = cs.rows();
        let mut keep = vec![true; rows.len()];
        let mut live = IncrementalLp::new(cs)
            .ok()
            .filter(IncrementalLp::is_feasible);
        let ineqs = (0..rows.len()).filter(|&i| rows[i].0 == RowKind::Ineq);
        for (k, i) in ineqs.enumerate() {
            *queries += 1;
            keep[i] = match &mut live {
                Some(lp) => {
                    let before = lp.snapshot();
                    let implied = lp.drop_ineq(k).is_ok() && lp.implies(&rows[i].1);
                    if !implied {
                        lp.rollback(before);
                    }
                    !implied
                }
                None => {
                    let mut rest = ConstraintSystem::new(cs.num_vars());
                    for (j, (kind, row)) in rows.iter().enumerate() {
                        match kind {
                            _ if j == i || !keep[j] => {}
                            RowKind::Eq => rest.add_eq(row.clone()),
                            RowKind::Ineq => rest.add_ineq(row.clone()),
                        }
                    }
                    !ineq_implied(&rest, &rows[i].1)
                }
            };
        }
        let mut out = ConstraintSystem::new(cs.num_vars());
        for ((kind, row), _) in rows.iter().zip(keep).filter(|(_, keep)| *keep) {
            match kind {
                RowKind::Eq => out.add_eq(row.clone()),
                RowKind::Ineq => out.add_ineq(row.clone()),
            }
        }
        out
    }

    /// Both prunes of `cs`, with the questions each asked.
    fn both_prunes(cs: &ConstraintSystem) -> ((ConstraintSystem, u64), (ConstraintSystem, u64)) {
        let (mut fast, mut slow) = (Effort::default(), 0);
        let pruned = prune_redundant(cs, &mut fast);
        let reference = prune_redundant_lp(cs, &mut slow);
        ((pruned, fast.queries), (reference, slow))
    }

    fn rationally_feasible(cs: &ConstraintSystem) -> bool {
        IncrementalLp::new(cs).is_ok_and(|lp| lp.is_feasible())
    }

    /// A system over four variables whose rows repeat directions: an
    /// inequality beside itself under a larger constant or scaled, and
    /// equalities now and then.
    fn system() -> impl Strategy<Value = ConstraintSystem> {
        let row = (
            (0u8..5, 1i64..=3),
            proptest::collection::vec(-3i64..=3, 4),
            -4i64..=8,
        );
        proptest::collection::vec(row, 1..9).prop_map(|rows| {
            let mut cs = ConstraintSystem::new(4);
            for ((kind, k), mut r, cst) in rows {
                r.push(cst);
                match kind {
                    0 => cs.add_eq(r),
                    1 => {
                        let mut looser = r.clone();
                        looser[4] += k;
                        cs.add_ineq(r);
                        cs.add_ineq(looser);
                    }
                    2 => {
                        cs.add_ineq(r.iter().map(|c| c * k).collect());
                        cs.add_ineq(r);
                    }
                    _ => cs.add_ineq(r),
                }
            }
            cs
        })
    }

    /// [`system`] with a row and its strict negation: nothing rational
    /// satisfies it.
    fn infeasible_system() -> impl Strategy<Value = ConstraintSystem> {
        (system(), proptest::collection::vec(-3i64..=3, 5)).prop_map(|(mut cs, r)| {
            let mut opposite: Vec<i64> = r.iter().map(|c| -c).collect();
            opposite[4] -= 1;
            cs.add_ineq(r);
            cs.add_ineq(opposite);
            cs
        })
    }

    /// A system over six variables with equalities mentioning the three
    /// the cascade eliminates (positions 1..4), some with coefficients
    /// whose substitution tightens or merges rows.
    fn cascade_system() -> impl Strategy<Value = ConstraintSystem> {
        let eq = (proptest::collection::vec(-2i64..=2, 6), -3i64..=3);
        let ineq = (proptest::collection::vec(-2i64..=2, 6), -2i64..=6);
        (
            proptest::collection::vec(eq, 0..4),
            proptest::collection::vec(ineq, 2..9),
        )
            .prop_map(|(eqs, ineqs)| {
                let mut cs = ConstraintSystem::new(6);
                for (mut r, cst) in eqs {
                    r.push(cst);
                    cs.add_eq(r);
                }
                for (mut r, cst) in ineqs {
                    r.push(cst);
                    cs.add_ineq(r);
                }
                cs
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn the_shortcut_prune_keeps_what_the_lp_prune_keeps(cs in system()) {
            let ((pruned, asked), (reference, lp_asked)) = both_prunes(&cs);
            prop_assert_eq!(&pruned, &reference);
            prop_assert!(asked <= lp_asked, "{} > {}", asked, lp_asked);
            if !rationally_feasible(&cs) {
                prop_assert_eq!(asked, lp_asked);
            }
        }

        #[test]
        fn no_shortcut_fires_on_an_infeasible_system(cs in infeasible_system()) {
            prop_assert!(!rationally_feasible(&cs));
            let ((pruned, asked), (reference, lp_asked)) = both_prunes(&cs);
            prop_assert_eq!(&pruned, &reference);
            prop_assert_eq!(asked, lp_asked);
        }

        #[test]
        fn a_cascade_that_skips_prunes_matches_the_per_step_cascade(cs in cascade_system()) {
            let mut asked = Effort::default();
            let skipping = eliminate_pruned(cs.clone(), 1, 3, &mut asked);
            let mut lp_asked = 0;
            let mut per_step = Ok(cs);
            for _ in 0..3 {
                per_step = per_step.and_then(|cur| {
                    Ok(prune_redundant_lp(&cur.eliminate_var(1)?, &mut lp_asked))
                });
            }
            prop_assert_eq!(&skipping, &per_step);
            prop_assert!(asked.queries <= lp_asked, "{} > {}", asked.queries, lp_asked);
        }
    }

    #[test]
    fn a_row_alone_in_its_sign_on_a_free_variable_is_kept_unasked() {
        // 0 ≤ x ≤ 4, 0 ≤ y ≤ 3, x + y ≤ 10: `x ≥ 0` and `y ≥ 0` are the
        // only rows bounding their variable from below, so only the
        // three upper bounds are asked about, and the last one goes.
        let mut cs = ConstraintSystem::new(2);
        for row in [[1, 0, 0], [-1, 0, 4], [0, 1, 0], [0, -1, 3], [-1, -1, 10]] {
            cs.add_ineq(row.to_vec());
        }
        let ((pruned, asked), (reference, lp_asked)) = both_prunes(&cs);
        assert_eq!(pruned, reference);
        assert_eq!(pruned.len(), 4);
        assert_eq!((asked, lp_asked), (3, 5));
        // An equality on x leaves x bounded without `x ≥ 0`: asked.
        cs.add_eq(vec![1, -1, 0]);
        let ((pruned, asked), (reference, _)) = both_prunes(&cs);
        assert_eq!(pruned, reference);
        assert_eq!(asked, 5);
    }

    #[test]
    fn a_floor_relaxation_that_outgrows_i64_is_an_error() {
        // c0 == ⌊x / p⌋ + ⌊x / q⌋ + ⌊x / r⌋ with x == c0 … over divisors
        // whose lcm is about 2^66: their product wraps in `i64`.
        let big = 1i64 << 22;
        let scan = |divs: [i64; 3], coeff: i64| StmtScan {
            members: vec![MemberData {
                terms: divs.iter().map(|&div| (vec![coeff, 0], div)).collect(),
                coincident: false,
            }],
            bounds: Vec::new(),
            space: Context::new(ConstraintSystem::new(1)),
            iters: Some(vec![vec![1, 0]]),
        };
        let coprime = scan([big, big - 1, big + 1], 1);
        assert_eq!(
            leaf_guards(&coprime, &[], 0).map(|_| ()),
            Err(MathError::Overflow)
        );
        // Small divisors, but a weight times a coefficient overflows.
        let steep = scan([2, 3, 5], i64::MAX / 4);
        assert_eq!(
            leaf_guards(&steep, &[], 0).map(|_| ()),
            Err(MathError::Overflow)
        );
        // Equal divisors relax by their lcm, not their cube.
        let equal = scan([big, big, big], 1);
        let (guards, _) = leaf_guards(&equal, &[], 0).expect("lcm fits");
        assert!(matches!(guards.as_slice(), [Guard::Floors { var: 0, .. }]));
    }

    #[test]
    fn an_inverse_that_outgrows_i128_is_an_error_not_a_missing_inverse() {
        let affine = |row: Vec<i64>| MemberData {
            terms: vec![(row, 1)],
            coincident: false,
        };
        // Members over (i, j, k, N, 1) whose pick multiplies two entries
        // near 2^126.
        let m = i64::MAX;
        let huge = [
            vec![m, 1, 0, 0, 0],
            vec![1, m, 1, 0, 0],
            vec![1, 1, m, 0, 0],
        ];
        assert_eq!(
            invert_iters(3, 1, &huge.map(affine)),
            Err(MathError::Overflow)
        );
        // c0 = 2i has no integral inverse; the skew c0 = i + j,
        // c1 = j + 3 has i = c0 − c1 + 3, j = c1 − 3.
        assert_eq!(invert_iters(1, 1, &[affine(vec![2, 0, 0])]), Ok(None));
        let skew = [vec![1, 1, 0, 0], vec![0, 1, 0, 3]];
        assert_eq!(
            invert_iters(2, 1, &skew.map(affine)),
            Ok(Some(vec![vec![1, -1, 0, 3], vec![0, 1, 0, -3]]))
        );
    }

    /// A member over a statement's `(i, j, N, 1)` columns from its
    /// `(row, div)` terms.
    fn member(terms: &[([i64; 4], i64)]) -> MemberData {
        MemberData {
            terms: terms
                .iter()
                .map(|(row, div)| (row.to_vec(), *div))
                .collect(),
            coincident: false,
        }
    }

    const I: [i64; 4] = [1, 0, 0, 0];
    const J: [i64; 4] = [0, 1, 0, 0];

    /// `0 ≤ i, j ≤ N − 1` with `statements` statements in the inner loop,
    /// then one more over `0 ≤ i ≤ N − 2`, `0 ≤ j ≤ N − 1`.
    fn square(statements: usize) -> Scop {
        use polytops_ir::{Aff, ScopBuilder};
        let mut b = ScopBuilder::new("square");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        let at = [Aff::var("i"), Aff::var("j")];
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::val(0), n.clone() - 1);
        for s in 0..statements {
            b.stmt(&format!("S{s}")).write(a, &at).add(&mut b);
        }
        b.close_loop();
        b.close_loop();
        b.open_loop("i", Aff::val(0), n.clone() - 2);
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt(&format!("S{statements}")).write(a, &at).add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn a_quasi_affine_member_whose_floors_match_no_member_keeps_its_auxiliary_variables() {
        // c0 = ⌊i/4⌋ + ⌊j/4⌋ over the point members c1 = i, c2 = j: no
        // member's single term is one of the floors, so each is an
        // auxiliary column after the three scan variables. A floor of
        // another divisor is not the tile counter either.
        let members = [
            member(&[(I, 4), (J, 4)]),
            member(&[(I, 1)]),
            member(&[(J, 1)]),
        ];
        assert_eq!(floor_columns(&members), [vec![3, 4], vec![], vec![]]);
        let members = [
            member(&[(I, 4), (J, 4)]),
            member(&[(I, 8)]),
            member(&[(J, 2)]),
        ];
        assert_eq!(floor_columns(&members), [vec![3, 4], vec![], vec![]]);
    }

    #[test]
    fn a_quasi_affine_member_whose_floors_repeat_tile_members_reuses_their_counters() {
        // The wavefront c0 = ⌊i/4⌋ + ⌊j/4⌋ over the tile counters
        // c1 = ⌊i/4⌋, c2 = ⌊j/4⌋ and the points c3 = i, c4 = j: both
        // floors are tile counters, and no auxiliary column is lifted.
        let members = || {
            vec![
                member(&[(I, 4), (J, 4)]),
                member(&[(I, 4)]),
                member(&[(J, 4)]),
                member(&[(I, 1)]),
                member(&[(J, 1)]),
            ]
        };
        assert_eq!(
            floor_columns(&members()),
            [vec![1, 2], vec![], vec![], vec![], vec![]]
        );
        // With the counters for the floors, the wavefront starts at 0
        // (both counters do), and the tile counter of j is the sum less
        // the one of i.
        let scan = scan_stmt(&square(1), 0, members()).expect("scans");
        let (lb, _) = &scan.bounds[0];
        assert_eq!(
            lb,
            &[BoundTerm {
                expr: vec![0, 0],
                div: 1
            }]
        );
        // Only one term repeats a member: the other keeps its column.
        let partial = [
            member(&[(I, 4), (J, 4)]),
            member(&[(I, 4)]),
            member(&[(I, 1)]),
            member(&[(J, 1)]),
        ];
        assert_eq!(
            floor_columns(&partial),
            [vec![1, 4], vec![], vec![], vec![]]
        );
    }

    #[test]
    fn statements_that_differ_in_one_domain_row_do_not_share_a_scan() {
        // S0 and S1 have equal domains and equal members; S2's `i` stops
        // one short. All three cross the one member c0 = i, then c1 = j.
        let scop = square(2);
        let mut parts = Vec::new();
        for _ in 0..3 {
            let mut ss = StmtSchedule::new(2, 1);
            ss.push_row(vec![1, 0, 0, 0]);
            ss.push_row(vec![0, 1, 0, 0]);
            parts.push(ss);
        }
        let sched = Schedule::from_parts(parts, vec![0, 0], vec![false, false]);
        let scans = Scans::new(&scop, &sched.tree_or_lowered().stmt_paths()).expect("scans");
        assert_eq!(scans.class_of, [0, 0, 1]);
        assert_eq!(scans.classes.len(), 2);
        // The shared scan answers for S0 and S1 alike, and S2 keeps the
        // guard its own domain row needs.
        let text = emit_c(&scop, &sched).expect("lowers");
        assert!(text.contains("S0(c0, c1);"), "{text}");
        assert!(text.contains("S1(c0, c1);"), "{text}");
        assert!(text.contains("if (-c0 + N - 2 >= 0) S2(c0, c1);"), "{text}");
    }

    #[test]
    fn an_entry_whose_negation_outgrows_i64_is_an_overflow_error() {
        let min = i64::MIN;
        // A projection row over (c0, N, 1) with a lower bound whose
        // numerator negates `i64::MIN`, and an equality on c0 whose
        // coefficient does.
        let mut proj = ConstraintSystem::new(2);
        proj.add_ineq(vec![1, min, 0]);
        assert_eq!(extract_bounds(&proj, 0), Err(MathError::Overflow));
        let mut proj = ConstraintSystem::new(2);
        proj.add_eq(vec![min, 1, 0]);
        assert_eq!(extract_bounds(&proj, 0), Err(MathError::Overflow));
        // `c0 ≥ ⌈(i64::MIN·N) / 1⌉` lifted to a row negates the numerator.
        let term = BoundTerm {
            expr: vec![min, 0],
            div: 1,
        };
        assert_eq!(lift_bound(&term, 0, 1, 1, true), Err(MathError::Overflow));
        assert_eq!(lift_bound(&term, 0, 1, 1, false), Ok(vec![-1, min, 0]));
        // An equality to check against a context reads the row both ways.
        let mut ctx = Context::new(ConstraintSystem::new(2));
        assert_eq!(ctx.implies_eq(&[min, 0, 0]), Err(MathError::Overflow));
        // So does a leaf's guard of a statement whose space keeps that
        // equality.
        let scan = StmtScan {
            members: vec![member(&[(I, 1)])],
            bounds: Vec::new(),
            space: {
                let mut cs = ConstraintSystem::new(2);
                cs.add_eq(vec![min, 1, 0]);
                Context::new(cs)
            },
            iters: None,
        };
        assert_eq!(
            leaf_guards(&scan, &[], 1).map(|_| ()),
            Err(MathError::Overflow)
        );
        // The printer writes `- |c|`: an `i64::MIN` coefficient or
        // constant after the first term is an error, not a wrapped sign.
        assert_eq!(
            render_affine(&[1, min, 0], &["N"]),
            Err(MathError::Overflow)
        );
        assert_eq!(
            render_affine(&[1, 0, min], &["N"]),
            Err(MathError::Overflow)
        );
        assert_eq!(
            render_affine(&[1, -2, -3], &["N"]).as_deref(),
            Ok("c0 - 2*N - 3")
        );
        let stmt = AstNode::Stmt(StmtNode {
            id: StmtId(0),
            name: "S0".to_string(),
            iters: Some(vec![vec![1, 0, min]]),
            guards: Vec::new(),
        });
        assert_eq!(
            emit_node(&stmt, &["N"], 0, false, &mut String::new()),
            Err(CodegenError::Math(MathError::Overflow))
        );
    }
}
