//! Dependence satisfaction and parallelism tests over partial schedules.
//!
//! Given a dependence `S → R` and one schedule row per statement, the
//! distance of the row on the dependence is
//! `Δ(it_S, it_R) = φ_R(it_R) − φ_S(it_S)`. Legality keeps `Δ ≥ 0`
//! everywhere; a row **strongly satisfies** (carries) the dependence when
//! `Δ ≥ 1` everywhere, and is **parallel** for it when `Δ = 0`
//! everywhere.
//!
//! Every such question is "does the dependence polyhedron, plus a row
//! or two, hold an integer point", and the questions come in families
//! over one polyhedron. The polyhedron is solved once, by the analysis
//! that found the dependence: each [`Dependence`] carries the solved
//! tableau of its own polyhedron ([`IncrementalLp`]), and a
//! [`Certifier`] asks each question as one pushed row on a copy of it.
//! A question is about a polyhedron, not about the dependence that
//! brought it: a certifier answers each (polyhedron, pushed row) once,
//! from a memo of its own, for every dependence with that polyhedron
//! (a flow, anti and output twin) and every repeat. Certifiers share
//! the tableau, never an answer: what one proves stays in it. An order
//! question about a whole flat schedule walks its rows on one working
//! copy, asking `Δ ≤ −1` of each row and pinning `Δ = 0` before the
//! next, instead of rebuilding prefix + row per question.

use std::collections::{HashMap, HashSet};

use polytops_math::{IlpOutcome, IlpStats, IncrementalLp};

use crate::analysis::{polyhedron_classes, Dependence};

/// Builds the row of `Δ = φ_R − φ_S` over the dependence space
/// `(it_src, it_dst, params, 1)` from per-statement schedule rows (each
/// over that statement's `(iters, params, 1)` columns).
///
/// # Panics
///
/// Panics if row lengths do not match the dependence's statement depths.
pub fn distance_row(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> Vec<i64> {
    let mut row = Vec::new();
    write_distance(dep, src_row, dst_row, &mut row);
    row
}

/// [`distance_row`] written into `row`, which keeps its room.
fn write_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64], row: &mut Vec<i64>) {
    let ds = dep.src_depth;
    let dr = dep.dst_depth;
    let np = dep.poly().num_vars() - ds - dr;
    assert_eq!(src_row.len(), ds + np + 1, "source row arity");
    assert_eq!(dst_row.len(), dr + np + 1, "destination row arity");
    let nv = dep.poly().num_vars();
    row.clear();
    row.resize(nv + 1, 0);
    for k in 0..ds {
        row[k] -= src_row[k];
    }
    for k in 0..dr {
        row[ds + k] += dst_row[k];
    }
    for j in 0..np {
        row[ds + dr + j] += dst_row[dr + j] - src_row[ds + j];
    }
    row[nv] = dst_row[dr + np] - src_row[ds + np];
}

/// `−row ≥ 0`, i.e. `Δ ≤ 0` for a distance row, in place.
fn at_most_zero(row: &mut [i64]) {
    row.iter_mut().for_each(|v| *v = -*v);
}

/// `row − 1 ≥ 0`, i.e. `Δ ≥ 1` for a distance row, in place.
fn at_least_one(row: &mut [i64]) {
    *row.last_mut().expect("a constant column") -= 1;
}

/// `−row − 1 ≥ 0`, i.e. `Δ ≤ −1` for a distance row, in place.
fn at_most_minus_one(row: &mut [i64]) {
    at_most_zero(row);
    at_least_one(row);
}

/// What a [`Certifier`] did so far. Flushed into the `oracle.*`
/// counters of the thread's `polytops_obs` context when the certifier
/// is dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CertifierStats {
    /// Feasibility, implication and minimization questions asked of a
    /// tableau.
    pub queries: u64,
    /// Branch-and-bound nodes the feasibility questions explored.
    pub bb_nodes: u64,
}

/// The dependence oracle of one set of dependences: answers every
/// satisfaction and legality question about them. Each question starts
/// from a copy of the solved tableau of the dependence's polyhedron,
/// which [`analyze`](crate::analyze) left in the dependence; the
/// certifier builds none. What it keeps per polyhedron (dependences
/// with the [same polyhedron](Dependence::same_polyhedron) are one) is
/// the answer of each row question. One per post-processing pass, certification or tuner call,
/// dropped with it — nothing outlives the dependences it was made for,
/// and no answer is shared between certifiers.
pub struct Certifier<'a> {
    deps: &'a [Dependence],
    /// Per dependence, its [polyhedron class](polyhedron_classes).
    class: Vec<usize>,
    /// Per class, the answer of each pushed row asked so far.
    answers: Vec<HashMap<Vec<i64>, bool>>,
    /// The pushed row of a question, formed in place and reused from
    /// one question to the next.
    row: Vec<i64>,
    stats: CertifierStats,
}

impl Drop for Certifier<'_> {
    fn drop(&mut self) {
        let s = &self.stats;
        for (name, n) in [
            ("oracle.queries", s.queries),
            ("oracle.bb_nodes", s.bb_nodes),
        ] {
            if n > 0 {
                polytops_math::obs::count(name, n);
            }
        }
    }
}

/// Whether `lp` plus `row ≥ 0` (over integer variables) may hold an
/// integer point, asked on a copy: `lp` is left as it was. An unusable
/// tableau proves nothing: a point may exist.
fn may_hold(lp: Option<&IncrementalLp>, row: Option<&[i64]>, stats: &mut CertifierStats) -> bool {
    stats.queries += 1;
    let Some(lp) = lp else { return true };
    let mut lp = lp.with_vars(0, 1);
    let pushed = row.map_or(Ok(true), |row| lp.push_int_ineq(row));
    let mut nodes = 0;
    let answer = match pushed {
        Ok(false) => false,
        Ok(true) => lp.may_have_integer_point(&mut nodes),
        Err(_) => true,
    };
    stats.bb_nodes += nodes as u64;
    answer
}

impl<'a> Certifier<'a> {
    /// A certifier for `deps`; dependence `e` below is `deps[e]`.
    pub fn new(deps: &'a [Dependence]) -> Certifier<'a> {
        Certifier {
            deps,
            class: polyhedron_classes(deps),
            answers: deps.iter().map(|_| HashMap::new()).collect(),
            row: Vec::new(),
            stats: CertifierStats::default(),
        }
    }

    /// The dependences this certifier answers for.
    pub fn deps(&self) -> &'a [Dependence] {
        self.deps
    }

    /// What it did so far.
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Whether `deps[e].poly` plus `row ≥ 0` may hold an integer point,
    /// `row` the distance row of the two schedule rows as `form` leaves
    /// it; asked once per polyhedron and row.
    fn ask(&mut self, e: usize, src_row: &[i64], dst_row: &[i64], form: fn(&mut [i64])) -> bool {
        write_distance(&self.deps[e], src_row, dst_row, &mut self.row);
        form(&mut self.row);
        let answers = &mut self.answers[self.class[e]];
        if let Some(&answer) = answers.get(&self.row[..]) {
            return answer;
        }
        let answer = may_hold(self.deps[e].base(), Some(&self.row), &mut self.stats);
        answers.insert(self.row.clone(), answer);
        answer
    }

    /// Whether `Δ ≥ 1` on the whole polyhedron of `deps[e]` (the row
    /// *carries* the dependence, which can then be removed from the live
    /// set).
    pub fn strongly_satisfies(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        // Strongly satisfied iff { poly ∧ Δ <= 0 } has no integer point.
        !self.ask(e, src_row, dst_row, at_most_zero)
    }

    /// Whether `Δ = 0` on the whole polyhedron of `deps[e]` (the
    /// dimension is parallel with respect to this dependence).
    pub fn zero_distance(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        !self.ask(e, src_row, dst_row, at_least_one)
            && !self.ask(e, src_row, dst_row, at_most_minus_one)
    }

    /// Whether `Δ ≥ 0` on the whole polyhedron of `deps[e]` (the row is
    /// legal for this dependence).
    pub fn respects(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        !self.ask(e, src_row, dst_row, at_most_minus_one)
    }

    /// The least value of `Δ = φ_R − φ_S` over the integer points of
    /// `deps[e]`, searched on a copy of its tableau. `None` when `Δ` is
    /// unbounded below, when the search ran out of nodes or overflowed,
    /// or when the least value does not fit `i64`: nothing is proven
    /// then.
    pub fn min_distance(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> Option<i64> {
        self.stats.queries += 1;
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        let (obj, constant) = delta.split_at(delta.len() - 1);
        let mut lp = self.deps[e].base()?.with_vars(0, 0);
        let mut ilp = IlpStats::default();
        let outcome = lp.int_minimize(obj, &mut ilp);
        self.stats.bb_nodes += ilp.nodes as u64;
        match outcome {
            Ok(IlpOutcome::Optimal { value, .. }) => value.checked_add(constant[0]),
            _ => None,
        }
    }

    /// Whether the destination timestamp of `deps[e]` is
    /// lexicographically greater than the source timestamp on every
    /// point of its polyhedron: one walk down the dimensions on a copy
    /// of the base tableau. Of each row in turn it asks whether some
    /// instance pair still equal on every earlier row is ordered
    /// backwards by it (`Δ ≤ −1` on a snapshot), then pins its distance
    /// to 0; at the end, whether some pair is equal on all of them.
    /// Either way the schedule does not respect the dependence. This is
    /// the independent legality oracle of the engine and of the test
    /// suite: it shares no code path with the scheduler's Farkas
    /// construction.
    pub fn schedule_respects(
        &mut self,
        e: usize,
        src_rows: &[Vec<i64>],
        dst_rows: &[Vec<i64>],
    ) -> bool {
        assert_eq!(src_rows.len(), dst_rows.len(), "ragged schedules");
        let dep = &self.deps[e];
        let mut lp = dep.base().map(|base| base.with_vars(0, 0));
        let (mut row, mut down) = (Vec::new(), Vec::new());
        for (s, d) in src_rows.iter().zip(dst_rows) {
            write_distance(dep, s, d, &mut row);
            down.clone_from(&row);
            at_most_minus_one(&mut down);
            if may_hold(lp.as_ref(), Some(&down), &mut self.stats) {
                return false;
            }
            if let Some(live) = &mut lp {
                if live.pin_int_eq(&row) == Ok(false) {
                    // No pair is equal this far down.
                    return true;
                }
            }
        }
        !may_hold(lp.as_ref(), None, &mut self.stats)
    }

    /// Whether `sched`'s rows order every dependence source-first: the
    /// legality certificate of a flat schedule. Dependences with one
    /// source, target and polyhedron ask one walk.
    pub fn certifies(&mut self, sched: &polytops_ir::Schedule) -> bool {
        let deps = self.deps;
        let mut walked = HashSet::new();
        (0..deps.len()).all(|e| {
            let (src, dst) = (sched.stmt(deps[e].src), sched.stmt(deps[e].dst));
            !walked.insert((deps[e].src, deps[e].dst, self.class[e]))
                || self.schedule_respects(e, src.rows(), dst.rows())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, DepKind};
    use polytops_ir::{Aff, Scop, ScopBuilder};

    fn chain_scop() -> Scop {
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

    fn flow_dep() -> Dependence {
        analyze(&chain_scop())
            .into_iter()
            .find(|d| d.kind == DepKind::Flow)
            .unwrap()
    }

    #[test]
    fn identity_row_strongly_satisfies_chain() {
        let deps = [flow_dep()];
        let mut oracle = Certifier::new(&deps);
        // φ = i for both: Δ = i_r - i_s = 1 > 0 everywhere.
        let row = vec![1, 0, 0]; // (i, N, 1)
        assert!(oracle.strongly_satisfies(0, &row, &row));
        assert!(oracle.respects(0, &row, &row));
        assert!(!oracle.zero_distance(0, &row, &row));
    }

    #[test]
    fn reversed_row_is_illegal() {
        let deps = [flow_dep()];
        let mut oracle = Certifier::new(&deps);
        let row = vec![-1, 0, 0]; // φ = -i reverses the chain
        assert!(!oracle.respects(0, &row, &row));
        assert!(!oracle.strongly_satisfies(0, &row, &row));
    }

    #[test]
    fn constant_row_is_zero_distance() {
        let deps = [flow_dep()];
        let mut oracle = Certifier::new(&deps);
        let row = vec![0, 0, 7]; // φ = 7 for all instances
        assert!(oracle.zero_distance(0, &row, &row));
        assert!(oracle.respects(0, &row, &row));
        assert!(!oracle.strongly_satisfies(0, &row, &row));
    }

    #[test]
    fn full_schedule_verification() {
        let deps = [flow_dep()];
        let mut oracle = Certifier::new(&deps);
        // Θ = (i) is legal and total for the chain.
        assert!(oracle.schedule_respects(0, &[vec![1, 0, 0]], &[vec![1, 0, 0]]));
        // Θ = (0) leaves instances unordered: illegal.
        assert!(!oracle.schedule_respects(0, &[vec![0, 0, 0]], &[vec![0, 0, 0]]));
        // Θ = (-i) is illegal.
        assert!(!oracle.schedule_respects(0, &[vec![-1, 0, 0]], &[vec![-1, 0, 0]]));
    }

    #[test]
    fn distance_row_shape() {
        let dep = flow_dep();
        let r = distance_row(&dep, &[2, 3, 4], &[5, 6, 7]);
        // (it_s, it_r, N, 1): -2*i_s + 5*i_r + (6-3)*N + (7-4).
        assert_eq!(r, vec![-2, 5, 3, 3]);
    }
}
