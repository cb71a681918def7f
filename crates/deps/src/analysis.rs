//! Candl-style dependence analysis: one convex dependence polyhedron per
//! access pair and per dependence level.
//!
//! Each candidate polyhedron is normalized once and solved into a
//! simplex tableau once. The integer emptiness test searches that
//! tableau; a candidate that survives keeps a packed copy of it,
//! untouched, in its [`Dependence`], and every
//! [`Certifier`](crate::Certifier) question about it starts from a copy
//! of that one. No certifier builds a tableau of its own. A candidate
//! whose polyhedron equals one already kept is neither built nor
//! searched again: it shares the kept tableau.

use std::fmt;
use std::sync::Arc;

use polytops_ir::{AccessKind, ArrayId, Scop, Statement, StmtId, Subscript};
use polytops_math::{ConstraintSystem, IncrementalLp};

/// Dependence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read after write (true/flow dependence).
    Flow,
    /// Write after read (anti dependence).
    Anti,
    /// Write after write (output dependence).
    Output,
}

/// A dependence `src → dst`: instances of `src` must execute before the
/// related instances of `dst`.
///
/// The polyhedron lives in the combined space
/// `(it_src, it_dst, params, 1)` and is guaranteed non-empty (empty
/// candidates are filtered during analysis).
///
/// Beside the polyhedron a dependence carries the solved tableau of it,
/// built by the analysis that found the dependence. The polyhedron is
/// private so that it can never change under its tableau: it is read
/// through [`poly`](Dependence::poly), and only [`analyze`] makes a
/// `Dependence`. The tableau is `None` exactly when building it
/// overflowed; every question about such a dependence answers "a point
/// may exist". A clone shares the tableau, equality ignores it (it is
/// derived from the polyhedron) and `Debug` omits it.
#[derive(Clone)]
pub struct Dependence {
    /// Source statement (executes first).
    pub src: StmtId,
    /// Destination statement (executes second).
    pub dst: StmtId,
    /// Flow, anti or output.
    pub kind: DepKind,
    /// The array inducing the dependence.
    pub array: ArrayId,
    /// Dependence polyhedron over `(it_src, it_dst, params, 1)`,
    /// normalized.
    poly: ConstraintSystem,
    /// The solved tableau of `poly`, as phase 1 left it.
    base: Option<Arc<IncrementalLp>>,
    /// Candl-style level: `1..=common` means carried by that common loop;
    /// `common + 1` means loop-independent (textual order).
    pub level: usize,
    /// `false` when a non-affine subscript, or a subscript equality
    /// with a coefficient past `i64`, forced a conservative
    /// over-approximation (the subscript equality was dropped).
    pub exact: bool,
    /// Iterator count of the source statement (cached from the scop).
    pub src_depth: usize,
    /// Iterator count of the destination statement (cached from the scop).
    pub dst_depth: usize,
}

impl Dependence {
    /// Dependence polyhedron over `(it_src, it_dst, params, 1)`,
    /// normalized.
    pub fn poly(&self) -> &ConstraintSystem {
        &self.poly
    }

    /// The solved tableau of [`poly`](Dependence::poly), for a question
    /// to copy: `None` when it overflowed.
    pub(crate) fn base(&self) -> Option<&IncrementalLp> {
        self.base.as_deref()
    }

    /// Whether `self` and `other` have one polyhedron by the analysis's
    /// own account: [`analyze`] gives dependences with equal polyhedra
    /// one tableau, and this compares the tableaus by address, which
    /// holds in any slice, whichever analyses its dependences came
    /// from. A dependence whose tableau overflowed is only its own twin.
    pub fn same_polyhedron(&self, other: &Dependence) -> bool {
        match (&self.base, &other.base) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => std::ptr::eq(self, other),
        }
    }

    /// The candidate kept, with the tableau of its polyhedron, unless
    /// the integer emptiness test on that tableau proves it empty.
    fn solved(mut self) -> Option<Dependence> {
        if let Ok(mut lp) = IncrementalLp::new(&self.poly) {
            // The search leaves its bound rows behind, so the tableau
            // kept is a copy taken before it — packed: it holds no room
            // for rows, which a question copies it to push.
            let base = lp.packed();
            if !lp.may_have_integer_point(&mut 0) {
                return None;
            }
            self.base = Some(Arc::new(base));
        }
        Some(self)
    }
}

impl PartialEq for Dependence {
    /// Every field but the tableau, which is derived from the polyhedron.
    fn eq(&self, other: &Dependence) -> bool {
        self.src == other.src
            && self.dst == other.dst
            && self.kind == other.kind
            && self.array == other.array
            && self.poly == other.poly
            && self.level == other.level
            && self.exact == other.exact
            && self.src_depth == other.src_depth
            && self.dst_depth == other.dst_depth
    }
}

impl fmt::Debug for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dependence")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("kind", &self.kind)
            .field("array", &self.array)
            .field("poly", &self.poly)
            .field("level", &self.level)
            .field("exact", &self.exact)
            .field("src_depth", &self.src_depth)
            .field("dst_depth", &self.dst_depth)
            .finish()
    }
}

/// Per dependence of `deps`, the position in `deps` of the first one
/// with the [same polyhedron](Dependence::same_polyhedron): its
/// polyhedron's class within the slice.
pub fn polyhedron_classes(deps: &[Dependence]) -> Vec<usize> {
    let mut firsts: Vec<usize> = Vec::new();
    (deps.iter().enumerate())
        .map(|(e, dep)| {
            let first = firsts
                .iter()
                .copied()
                .find(|&f| deps[f].same_polyhedron(dep));
            first.unwrap_or_else(|| {
                firsts.push(e);
                e
            })
        })
        .collect()
}

/// Number of common (shared) loops of two statements, derived from their
/// β prefixes: loops are the same source loop iff every enclosing β
/// position matches.
pub fn common_loops(s: &Statement, r: &Statement) -> usize {
    let max = s.depth().min(r.depth());
    let mut common = 0;
    for k in 0..max {
        if s.beta[k] == r.beta[k] {
            common += 1;
        } else {
            break;
        }
    }
    common
}

/// Whether `s` textually precedes `r` once they share `common` loops.
fn textually_before(s: &Statement, r: &Statement, common: usize) -> bool {
    let sb = s.beta.get(common).copied().unwrap_or(i64::MIN);
    let rb = r.beta.get(common).copied().unwrap_or(i64::MIN);
    sb < rb
}

/// Computes all dependences of a SCoP.
///
/// For every ordered statement pair `(S, R)` (including `S == R`), every
/// conflicting access pair (same array, at least one write) and every
/// dependence level, a candidate polyhedron is built from:
///
/// * both iteration domains,
/// * the parameter context,
/// * subscript equalities (skipped, conservatively, for div/mod
///   subscripts),
/// * the level's precedence constraint.
///
/// Each candidate is normalized and solved into a tableau once.
/// Candidates with no integer point are discarded (an exact branch and
/// bound on a copy of that tableau); the others keep it. Dependences
/// with equal polyhedra — the same access pattern between statements
/// over equal domains, as along a chain — share one tableau.
///
/// # Examples
///
/// ```
/// use polytops_ir::{Aff, ScopBuilder};
/// use polytops_deps::{analyze, DepKind};
///
/// // for (i = 1; i < N; i++) A[i] = A[i-1];  -- loop-carried flow dep.
/// let mut b = ScopBuilder::new("chain");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone()], 8);
/// b.open_loop("i", Aff::val(1), n - 1);
/// b.stmt("S0")
///     .read(a, &[Aff::var("i") - 1])
///     .write(a, &[Aff::var("i")])
///     .add(&mut b);
/// b.close_loop();
/// let scop = b.build().unwrap();
/// let deps = analyze(&scop);
/// assert!(deps.iter().any(|d| d.kind == DepKind::Flow && d.level == 1));
/// ```
pub fn analyze(scop: &Scop) -> Vec<Dependence> {
    let mut out: Vec<Dependence> = Vec::new();
    candidates(scop, |candidate| {
        // A polyhedron equal to one already kept is non-empty, and its
        // tableau is that one's: the two dependences share it.
        match out.iter().find(|kept| kept.poly == candidate.poly) {
            Some(twin) => {
                let base = twin.base.clone();
                out.push(Dependence { base, ..candidate });
            }
            None => out.extend(candidate.solved()),
        }
    });
    out
}

/// Hands every candidate dependence of `scop` to `keep`, in the order
/// [`analyze`] reports them: its polyhedron normalized, its tableau not
/// built yet. A candidate `normalize` proves empty is skipped.
fn candidates(scop: &Scop, mut keep: impl FnMut(Dependence)) {
    let np = scop.nparams();
    for s in &scop.statements {
        for r in &scop.statements {
            let common = common_loops(s, r);
            for a in &s.accesses {
                for b in &r.accesses {
                    if a.array != b.array {
                        continue;
                    }
                    let kind = match (a.kind, b.kind) {
                        (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
                        (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                        (AccessKind::Write, AccessKind::Write) => DepKind::Output,
                        (AccessKind::Read, AccessKind::Read) => continue,
                    };
                    // Same-statement pairs are only related across
                    // *distinct* instances, which carried levels enforce
                    // (loop-independent self-pairs are skipped below).
                    // Carried levels.
                    for level in 1..=common {
                        if let Some(dep) = build_dep(scop, s, r, a, b, kind, level, common, np) {
                            keep(dep);
                        }
                    }
                    // Loop-independent level.
                    if s.id != r.id && textually_before(s, r, common) {
                        if let Some(dep) = build_dep(scop, s, r, a, b, kind, common + 1, common, np)
                        {
                            keep(dep);
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_dep(
    scop: &Scop,
    s: &Statement,
    r: &Statement,
    a: &polytops_ir::Access,
    b: &polytops_ir::Access,
    kind: DepKind,
    level: usize,
    common: usize,
    np: usize,
) -> Option<Dependence> {
    let ds = s.depth();
    let dr = r.depth();
    let nv = ds + dr + np;
    let mut poly = ConstraintSystem::new(nv);

    // Embed source domain: columns (it_s, params) -> (0..ds, ds+dr..).
    for (dkind, row) in s.domain.iter() {
        let mut nr = vec![0i64; nv + 1];
        nr[..ds].copy_from_slice(&row[..ds]);
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[ds..ds + np]);
        nr[nv] = row[ds + np];
        match dkind {
            polytops_math::RowKind::Eq => poly.add_eq(nr),
            polytops_math::RowKind::Ineq => poly.add_ineq(nr),
        }
    }
    // Embed destination domain: columns (it_r, params).
    for (dkind, row) in r.domain.iter() {
        let mut nr = vec![0i64; nv + 1];
        nr[ds..ds + dr].copy_from_slice(&row[..dr]);
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[dr..dr + np]);
        nr[nv] = row[dr + np];
        match dkind {
            polytops_math::RowKind::Eq => poly.add_eq(nr),
            polytops_math::RowKind::Ineq => poly.add_ineq(nr),
        }
    }
    // Context over params.
    for (ckind, row) in scop.context.iter() {
        let mut nr = vec![0i64; nv + 1];
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[..np]);
        nr[nv] = row[np];
        match ckind {
            polytops_math::RowKind::Eq => poly.add_eq(nr),
            polytops_math::RowKind::Ineq => poly.add_ineq(nr),
        }
    }
    // Subscript equality per dimension; non-affine dims are skipped, and
    // so is an equality with a coefficient past `i64`.
    let mut exact = true;
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let (Subscript::Aff(ea), Subscript::Aff(eb)) = (sa, sb) else {
            exact = false;
            continue;
        };
        let equality = || -> Option<Vec<i64>> {
            let mut nr = vec![0i64; nv + 1];
            nr[..ds].copy_from_slice(ea.iter_coeffs());
            for (k, &c) in eb.iter_coeffs().iter().enumerate() {
                nr[ds + k] = c.checked_neg()?;
            }
            for (k, (&p, &q)) in ea.param_coeffs().iter().zip(eb.param_coeffs()).enumerate() {
                nr[ds + dr + k] = p.checked_sub(q)?;
            }
            nr[nv] = ea.constant_term().checked_sub(eb.constant_term())?;
            Some(nr)
        };
        match equality() {
            Some(nr) => poly.add_eq(nr),
            None => exact = false,
        }
    }
    // Precedence at `level`.
    if level <= common {
        for k in 0..level - 1 {
            let mut nr = vec![0i64; nv + 1];
            nr[k] = 1;
            nr[ds + k] = -1;
            poly.add_eq(nr);
        }
        // it_r[level-1] - it_s[level-1] - 1 >= 0.
        let mut nr = vec![0i64; nv + 1];
        nr[level - 1] = -1;
        nr[ds + level - 1] = 1;
        nr[nv] = -1;
        poly.add_ineq(nr);
    } else {
        // Loop independent: all common iterators equal.
        for k in 0..common {
            let mut nr = vec![0i64; nv + 1];
            nr[k] = 1;
            nr[ds + k] = -1;
            poly.add_eq(nr);
        }
    }

    if !poly.normalize() {
        return None;
    }
    Some(Dependence {
        src: s.id,
        dst: r.id,
        kind,
        array: a.array,
        poly,
        base: None,
        level,
        exact,
        src_depth: ds,
        dst_depth: dr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::{Aff, ScopBuilder};
    use polytops_math::ilp_feasible;
    use polytops_workloads::synthetic::{long_chain, offset_chain, wide_scop};
    use proptest::prelude::*;

    /// [`analyze`] with its emptiness test replaced by the one-question
    /// [`ilp_feasible`] of each candidate: a clone of the polyhedron,
    /// normalized again, built, searched and dropped.
    fn reference_analyze(scop: &Scop) -> Vec<Dependence> {
        let mut out = Vec::new();
        candidates(scop, |candidate| {
            if ilp_feasible(candidate.poly()) {
                out.push(candidate);
            }
        });
        out
    }

    /// Same dependences, in the same order, with the same polyhedra —
    /// and each with its tableau.
    fn assert_matches_reference(scop: &Scop) {
        let deps = analyze(scop);
        assert_eq!(deps, reference_analyze(scop), "{}", scop.name);
        assert!(deps.iter().all(|d| d.base().is_some()), "{}", scop.name);
    }

    #[test]
    fn analysis_keeps_what_the_one_question_test_keeps() {
        let mut scops: Vec<Scop> = polytops_workloads::all_kernels()
            .into_iter()
            .map(|(_, scop)| scop)
            .collect();
        scops.extend([long_chain(16), wide_scop(8), chain_scop()]);
        for scop in &scops {
            assert_matches_reference(scop);
        }
    }

    proptest! {
        #[test]
        fn seeded_chains_keep_what_the_one_question_test_keeps(
            shape in collection::vec((0i64..4, 0i64..4, 0i64..4), 2..6)
        ) {
            assert_matches_reference(&offset_chain(&shape));
        }
    }

    #[test]
    fn equal_polyhedra_share_one_tableau() {
        // Along a chain every statement pair repeats the same two
        // polyhedra: 30 dependences, two tableaus.
        let deps = analyze(&long_chain(16));
        assert_eq!(deps.len(), 30);
        for a in &deps {
            for b in &deps {
                let (Some(x), Some(y)) = (&a.base, &b.base) else {
                    panic!("a tableau per dependence");
                };
                assert_eq!(Arc::ptr_eq(x, y), a.poly == b.poly);
                assert_eq!(a.same_polyhedron(b), a.poly == b.poly);
            }
        }
    }

    /// `A[f(i, j, k)] = A[f(i, j, k) + 1]` over a 3-deep nest, each
    /// subscript of `f` pairing two coefficients within ten of `i64::MAX`.
    fn hostile_scop() -> Scop {
        let mut b = ScopBuilder::new("hostile");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone(), n.clone()], 8);
        for it in ["i", "j", "k"] {
            b.open_loop(it, Aff::val(0), n.clone() - 1);
        }
        let (i, j, k) = (Aff::var("i"), Aff::var("j"), Aff::var("k"));
        let write = [
            i.clone() * 9223372036854775807 - j.clone() * 9223372036854775805,
            j * 9223372036854775803 - k.clone() * 9223372036854775801,
            k * 9223372036854775799 - i * 9223372036854775797,
        ];
        let read = write.clone().map(|s| s + 1);
        b.stmt("S0")
            .write(a, &write)
            .read(a, &read)
            .text("line 7")
            .add(&mut b);
        for _ in 0..3 {
            b.close_loop();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_dependence_whose_tableau_overflows_is_kept_without_one() {
        // Subscripts whose dependence polyhedron needs products of
        // near-`i64::MAX` coefficients: no tableau holds it, and no
        // emptiness is proved.
        let scop = hostile_scop();
        let deps = analyze(&scop);
        assert_eq!(deps, reference_analyze(&scop));
        assert!(deps.iter().any(|d| d.base().is_none()), "{deps:?}");
    }

    #[test]
    fn a_subscript_equality_past_i64_is_dropped_not_wrapped() {
        // for (i = 0; i < N; i++) A[i + i64::MAX] = A[i - 1]: the
        // equality of the two subscripts has the constant 2^63, which
        // panicked a debug build and wrapped to −2^63 in a release one,
        // where no pair of iterations met it and the flow dependence
        // went. The equality is dropped as a non-affine one is: the
        // dependence is kept, over-approximated.
        let mut b = ScopBuilder::new("past");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .write(a, &[Aff::var("i") + i64::MAX])
            .add(&mut b);
        b.close_loop();
        let deps = analyze(&b.build().unwrap());
        let flow = deps.iter().find(|d| d.kind == DepKind::Flow);
        assert!(flow.is_some_and(|d| !d.exact), "{deps:?}");
    }

    fn chain_scop() -> Scop {
        // for (i = 1; i < N; i++) A[i] = A[i-1];
        let mut b = ScopBuilder::new("chain");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(1), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn flow_dep_on_chain() {
        let deps = analyze(&chain_scop());
        let flows: Vec<_> = deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1);
        let d = flows[0];
        assert_eq!(d.level, 1);
        assert_eq!(d.src, StmtId(0));
        assert_eq!(d.dst, StmtId(0));
        // (i_s, i_r, N) with i_r = i_s + 1 is in the polyhedron.
        assert!(d.poly().contains_point(&[1, 2, 3]));
        assert!(!d.poly().contains_point(&[2, 1, 3]));
        // The flow dep is the *only* dependence: every cell is written
        // once (no output dep) and each read happens after the write of
        // its cell (no anti dep).
        assert_eq!(deps.len(), 1);
    }

    #[test]
    fn independent_arrays_have_no_deps() {
        // Listing 1: two statements on disjoint arrays.
        let mut b = ScopBuilder::new("listing1");
        let a = b.array("a", &[Aff::val(10), Aff::val(100)], 8);
        let c = b.array("c", &[Aff::val(10), Aff::val(100)], 8);
        let e = b.array("e", &[Aff::val(100), Aff::val(10)], 8);
        let d = b.array("d", &[Aff::val(100), Aff::val(10)], 8);
        b.open_loop("i", Aff::val(0), Aff::val(99));
        b.open_loop("j", Aff::val(0), Aff::val(9));
        b.stmt("S0")
            .read(a, &[Aff::var("j"), Aff::var("i")])
            .write(c, &[Aff::var("j"), Aff::var("i")])
            .add(&mut b);
        b.stmt("S1")
            .read(e, &[Aff::var("i"), Aff::var("j")])
            .write(d, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        assert!(analyze(&scop).is_empty());
    }

    #[test]
    fn scalar_reduction_serializes() {
        // for i { x = x + A[i] }: output + flow + anti self-deps on x.
        let mut b = ScopBuilder::new("red");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let x = b.array("x", &[], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(x, &[])
            .read(a, &[Aff::var("i")])
            .write(x, &[])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        assert!(deps.iter().any(|d| d.kind == DepKind::Flow));
        assert!(deps.iter().any(|d| d.kind == DepKind::Anti));
        assert!(deps.iter().any(|d| d.kind == DepKind::Output));
    }

    #[test]
    fn loop_independent_dep_between_statements() {
        // for i { S0: B[i] = A[i]; S1: C[i] = B[i]; } — flow at level 2.
        let mut b = ScopBuilder::new("pipe");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let bb = b.array("B", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i")])
            .write(bb, &[Aff::var("i")])
            .add(&mut b);
        b.stmt("S1")
            .read(bb, &[Aff::var("i")])
            .write(c, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        let flows: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow && d.src == StmtId(0))
            .collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].level, 2); // loop-independent (common = 1)
                                       // No reverse dependence S1 -> S0.
        assert!(!deps
            .iter()
            .any(|d| d.src == StmtId(1) && d.dst == StmtId(0)));
    }

    #[test]
    fn stencil_has_bidirectional_carried_deps() {
        // for t { for i { A[i] = A[i-1] + A[i] + A[i+1] } }
        let mut b = ScopBuilder::new("jac");
        let n = b.param("N");
        let t = b.param("T");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("t", Aff::val(0), t - 1);
        b.open_loop("i", Aff::val(1), n - 2);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .read(a, &[Aff::var("i")])
            .read(a, &[Aff::var("i") + 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        // Carried flow deps at level 1 (time loop) and level 2 (space).
        assert!(deps.iter().any(|d| d.kind == DepKind::Flow && d.level == 1));
        assert!(deps.iter().any(|d| d.kind == DepKind::Flow && d.level == 2));
    }

    #[test]
    fn divmod_access_is_conservative() {
        let mut b = ScopBuilder::new("pyr");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0")
            .read_subs(a, vec![polytops_ir::SubSpec::FloorDiv(Aff::var("i"), 2)])
            .write(c, &[Aff::var("i")])
            .add(&mut b);
        b.stmt("S1")
            .write_subs(a, vec![polytops_ir::SubSpec::Mod(Aff::var("i"), 4)])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        assert!(deps.iter().any(|d| !d.exact));
    }
}
