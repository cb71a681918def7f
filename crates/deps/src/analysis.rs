//! Candl-style dependence analysis: one convex dependence polyhedron per
//! access pair and per dependence level.
//!
//! Each candidate's emptiness is decided on its equalities solved over
//! the integers ([`ConstraintSystem::compress_equalities`]): a candidate
//! whose equalities have no integer solution, or whose other rows turn
//! trivially infeasible once they are substituted, is dropped before any
//! tableau is built. Every other candidate is searched for an integer
//! point on the tableau of its compressed rows, over the free variables
//! the equalities leave. A candidate that survives keeps the packed
//! tableau of its polyhedron, in the original space, in its
//! [`Dependence`], and every [`Certifier`](crate::Certifier) question
//! about it starts from a copy of that one. No certifier builds a
//! tableau of its own. A candidate whose polyhedron equals one already
//! kept is neither searched nor built again: it shares the kept tableau.

use std::fmt;
use std::sync::Arc;

use polytops_ir::{AccessKind, ArrayId, Scop, Statement, StmtId, Subscript};
use polytops_math::{obs, Compressed, ConstraintSystem, IncrementalLp};

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
    /// The solved tableau of `poly`, as phase 1 left it: no search ran
    /// on it (the emptiness search ran on the candidate's compressed
    /// rows).
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
}

/// What [`analyze`] has kept so far.
#[derive(Default)]
struct Analysis {
    out: Vec<Dependence>,
    /// Candidates seen.
    candidates: u64,
    /// Tableaus built: the searches' and the ones kept.
    tableaus: u64,
}

impl Analysis {
    /// Keeps `candidate`, with the tableau of its polyhedron, unless its
    /// equalities solved over the integers prove it empty: they have no
    /// integer solution, a row they turn into is trivially infeasible,
    /// or branch and bound on the tableau of those rows, over the free
    /// variables the equalities leave, finds no point.
    ///
    /// A candidate whose polyhedron equals one kept is its twin: it
    /// shares that tableau and is neither searched nor built. A kept
    /// polyhedron is normalized, and normalizing leaves a normalized
    /// system as it is, so a candidate built equal to one is a twin
    /// before anything is solved; one that only normalizes to it is
    /// found after.
    ///
    /// The tableau kept is the polyhedron's own, in the original space,
    /// as phase 1 left it: no search runs on it. An overflow, in the
    /// compression or in a build, proves nothing: the candidate is kept,
    /// with no tableau when its own overflowed.
    fn add(&mut self, candidate: Dependence) {
        self.candidates += 1;
        let Some(mut candidate) = self.not_a_twin(candidate) else {
            return;
        };
        let lattice = match candidate.poly.compress_equalities() {
            Ok(Compressed::Empty) => return,
            Ok(Compressed::Lattice(lattice)) if lattice.trivially_infeasible() => return,
            Ok(Compressed::Lattice(lattice)) => Some(lattice),
            Err(_) => None,
        };
        if !candidate.poly.normalize() {
            return;
        }
        let Some(mut candidate) = self.not_a_twin(candidate) else {
            return;
        };
        if let Some(lattice) = lattice {
            self.tableaus += 1;
            let search = IncrementalLp::new(&lattice.system());
            if search.is_ok_and(|mut lp| !lp.may_have_integer_point(&mut 0)) {
                return;
            }
        }
        self.tableaus += 1;
        candidate.base = IncrementalLp::new(&candidate.poly)
            .ok()
            .map(|lp| Arc::new(lp.packed()));
        self.out.push(candidate);
    }

    /// `candidate` back, unless a dependence with its polyhedron is kept:
    /// a polyhedron equal to one kept is non-empty, and the candidate is
    /// then kept as that one's twin, sharing its tableau.
    fn not_a_twin(&mut self, candidate: Dependence) -> Option<Dependence> {
        match self.out.iter().find(|kept| kept.poly == candidate.poly) {
            Some(twin) => {
                let base = twin.base.clone();
                self.out.push(Dependence { base, ..candidate });
                None
            }
            None => Some(candidate),
        }
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
/// Each candidate's equalities are solved over the integers first
/// ([`ConstraintSystem::compress_equalities`]). A candidate they prove
/// empty — no integer solution, or an inequality they turn into
/// `0 ≥ c` with `c < 0` — is discarded with no tableau built; the
/// others are searched by an exact branch and bound on the tableau of
/// their rows over the free variables the equalities leave, and
/// discarded when it finds no point. Only a dependence kept is solved
/// into a tableau of its own polyhedron, in the original space.
/// Dependences with equal polyhedra — the same access pattern between
/// statements over equal domains, as along a chain — share one tableau,
/// and a twin is neither searched nor built. `deps.candidates` and
/// `deps.tableaus` count the candidates and the tableaus built, once
/// per call.
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
    let mut analysis = Analysis::default();
    candidates(scop, |candidate| analysis.add(candidate));
    obs::count("deps.candidates", analysis.candidates);
    obs::count("deps.tableaus", analysis.tableaus);
    analysis.out
}

/// Hands every candidate dependence of `scop` to `keep`, in the order
/// [`analyze`] reports them: its polyhedron as built, not normalized,
/// and no tableau.
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
                        keep(build_dep(scop, s, r, a, b, kind, level, common, np));
                    }
                    // Loop-independent level.
                    if s.id != r.id && textually_before(s, r, common) {
                        keep(build_dep(scop, s, r, a, b, kind, common + 1, common, np));
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
) -> Dependence {
    let ds = s.depth();
    let dr = r.depth();
    let nv = ds + dr + np;
    let subscripts = a.subscripts.len().min(b.subscripts.len());
    let order = if level <= common { level } else { common };
    let rows = s.domain.len() + r.domain.len() + scop.context.len() + subscripts + order;
    let mut poly = ConstraintSystem::with_capacity(nv, rows);
    // Every row is written into this one, then copied into `poly`.
    let mut nr = vec![0i64; nv + 1];

    // Embed source domain: columns (it_s, params) -> (0..ds, ds+dr..).
    for (dkind, row) in s.domain.iter() {
        nr.fill(0);
        nr[..ds].copy_from_slice(&row[..ds]);
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[ds..ds + np]);
        nr[nv] = row[ds + np];
        poly.add_row(dkind, &nr);
    }
    // Embed destination domain: columns (it_r, params).
    for (dkind, row) in r.domain.iter() {
        nr.fill(0);
        nr[ds..ds + dr].copy_from_slice(&row[..dr]);
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[dr..dr + np]);
        nr[nv] = row[dr + np];
        poly.add_row(dkind, &nr);
    }
    // Context over params.
    for (ckind, row) in scop.context.iter() {
        nr.fill(0);
        nr[ds + dr..ds + dr + np].copy_from_slice(&row[..np]);
        nr[nv] = row[np];
        poly.add_row(ckind, &nr);
    }
    // Subscript equality per dimension; non-affine dims are skipped, and
    // so is an equality with a coefficient past `i64`.
    let mut exact = true;
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let (Subscript::Aff(ea), Subscript::Aff(eb)) = (sa, sb) else {
            exact = false;
            continue;
        };
        let equality = |nr: &mut [i64]| -> Option<()> {
            nr.fill(0);
            nr[..ds].copy_from_slice(ea.iter_coeffs());
            for (k, &c) in eb.iter_coeffs().iter().enumerate() {
                nr[ds + k] = c.checked_neg()?;
            }
            for (k, (&p, &q)) in ea.param_coeffs().iter().zip(eb.param_coeffs()).enumerate() {
                nr[ds + dr + k] = p.checked_sub(q)?;
            }
            nr[nv] = ea.constant_term().checked_sub(eb.constant_term())?;
            Some(())
        };
        match equality(&mut nr) {
            Some(()) => poly.add_eq(&nr),
            None => exact = false,
        }
    }
    // Precedence at `level`: it_s[k] == it_r[k] above it, and
    // it_r[level-1] - it_s[level-1] - 1 >= 0; loop independent, all
    // common iterators equal.
    for k in 0..order {
        nr.fill(0);
        if k + 1 < level {
            (nr[k], nr[ds + k]) = (1, -1);
            poly.add_eq(&nr);
        } else {
            (nr[k], nr[ds + k], nr[nv]) = (-1, 1, -1);
            poly.add_ineq(&nr);
        }
    }

    Dependence {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::{Aff, ScopBuilder};
    use polytops_math::ilp_feasible;
    use polytops_workloads::synthetic::{long_chain, offset_chain, wide_scop};
    use proptest::prelude::*;

    /// [`analyze`] with its emptiness test replaced by the one-question
    /// [`ilp_feasible`] of each candidate's normalized polyhedron, in
    /// the original space: a clone of it normalized again, built,
    /// searched and dropped. No equality is solved.
    fn reference_analyze(scop: &Scop) -> Vec<Dependence> {
        let mut out = Vec::new();
        candidates(scop, |mut candidate| {
            if candidate.poly.normalize() && ilp_feasible(candidate.poly()) {
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
    fn analysis_counts_its_candidates_and_the_tableaus_it_builds() {
        // heat_2d's 27 candidates: 14 are refuted by their equalities
        // alone, with no tableau, and the other 13 are kept. Six of those
        // are twins of another, which build nothing; the 7 distinct
        // polyhedra build two tableaus each, one over the free variables
        // for the search and their own, to keep.
        let recorder = obs::Recorder::new(true);
        let root = recorder.root_span("test");
        let deps = {
            let _bound = root.link().expect("armed").bind();
            analyze(&polytops_workloads::heat_2d())
        };
        let get = |name: &str| recorder.counter(name).get();
        assert_eq!(
            (get("deps.candidates"), get("deps.tableaus"), deps.len()),
            (27, 14, 13)
        );
        let mut distinct = polyhedron_classes(&deps);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 7);
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

    /// Case 6262 of the SCoP-text fuzz (`mutated_scop_texts_never_panic`
    /// in `crates/codegen/tests/scop_fuzz.rs`): `heat_2d` with subscript
    /// coefficients 2³¹, 2³¹ − 1 and −(2⁶³ − 1) and a β entry of −1.
    const CASE_6262: &str = "<polyscop>
name heat_2d
params T N
context 2
ineq 1 0 -1
ineq 0 1 -1
arrays 1
array A 8 2
dim 0 1 0
dim 0 1 0
statements 1
statement S0
iters t i j
beta 0 0 0 -1
ops 3
text A[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1];
domain 6
ineq 1 0 0 0 0 0
ineq -1 0 0 1 0 -1
ineq 0 1 0 0 0 -1
ineq 0 -1 0 0 1 -2
ineq 0 0 1 0 0 -1
ineq 0 0 -1 0 1 -2
accesses 5
read 0 2
aff 0 1 0 0 -9223372036854775807 -1
aff 0 0 1 0 0 0
read 0 2
aff 0 1 0 0 0 1
aff 0 0 1 0 0 0
read 0 2
aff 0 1 0 0 0 0
aff 0 0 1 0 0 -1
read 0 2
aff 2147483648 1 0 0 0 0
aff 0 0 1 0 0 1
write 0 2
aff 0 2147483647 0 0 0 0
aff 0 0 1 0 0 0
</polyscop>
";

    /// Case 11014 of the same fuzz: `jacobi_1d` with the write's `T`
    /// coefficient and a read's `N` coefficient set to −2³¹.
    const CASE_11014: &str = "<polyscop>
name jacobi_1d
params T N
context 2
ineq 1 0 -1
ineq 0 1 -1
arrays 1
array A 8 1
dim 0 1 0
statements 1
statement S0
iters t i
beta 0 0 0
ops 2
text A[i] = A[i-1] + A[i] + A[i+1];
domain 4
ineq 1 0 0 0 0
ineq -1 0 1 0 -1
ineq 0 1 0 0 -1
ineq 0 -1 0 1 -2
accesses 4
read 0 1
aff 0 1 0 0 -1
read 0 1
aff 0 1 0 -2147483648 0
read 0 1
aff 0 1 0 0 1
write 0 1
aff 0 1 -2147483648 0 0
</polyscop>
";

    /// The analysis of `text`, which must end within `bound`: it runs on
    /// a thread of its own, left behind when it does not.
    fn analyzed_within(text: &str, bound: std::time::Duration) -> Vec<Dependence> {
        let scop = polytops_ir::parse_scop(text).expect("the case parses");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(analyze(&scop)));
        rx.recv_timeout(bound).expect("the analysis ends in time")
    }

    #[test]
    fn a_lattice_branch_and_bound_never_reaches_is_solved() {
        // The read A[2³¹t + i][j + 1] and the write A[(2³¹ − 1)i][j] meet
        // at level 3 (t' = t, i' = i, j' = j + 1) where
        // 2³⁰t = (2³⁰ − 1)i: on the lattice i = 2³⁰k, t = (2³⁰ − 1)k. A
        // search from the LP vertex of the uncompressed tableau walked a
        // thin strip for minutes; solved, it is one free variable. Its
        // point at k = 1, with T and N large enough, is kept.
        let deps = analyzed_within(CASE_6262, std::time::Duration::from_secs(2));
        let k = 1i64 << 30;
        let point = [k - 1, k, 1, k - 1, k, 2, k, k + 2];
        let anti = deps.iter().find(|d| {
            (d.kind, d.level, d.src, d.dst) == (DepKind::Anti, 3, StmtId(0), StmtId(0))
                && d.poly().contains_point(&point)
        });
        assert!(anti.is_some_and(|d| d.base().is_some()), "{deps:?}");
    }

    #[test]
    fn parameter_subscripts_at_two_to_the_31_are_analyzed_in_time() {
        analyzed_within(CASE_11014, std::time::Duration::from_secs(2));
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
