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
//! question about a whole flat schedule or a
//! tree's step sequence walks it on one working copy, asking `Δ ≤ −1`
//! of each step and pinning `Δ = 0` before the next, instead of
//! rebuilding prefix + step per question.

use std::collections::{HashMap, HashSet};

use polytops_ir::PathStep;
use polytops_math::{ConstraintSystem, IlpOutcome, IlpStats, IncrementalLp, RowKind};

use crate::analysis::{polyhedron_classes, Dependence};

/// Builds the row of `Δ = φ_R − φ_S` over the dependence space
/// `(it_src, it_dst, params, 1)` from per-statement schedule rows (each
/// over that statement's `(iters, params, 1)` columns).
///
/// # Panics
///
/// Panics if row lengths do not match the dependence's statement depths.
pub fn distance_row(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> Vec<i64> {
    let ds = dep.src_depth;
    let dr = dep.dst_depth;
    let np = dep.poly().num_vars() - ds - dr;
    assert_eq!(src_row.len(), ds + np + 1, "source row arity");
    assert_eq!(dst_row.len(), dr + np + 1, "destination row arity");
    let nv = dep.poly().num_vars();
    let mut row = vec![0i64; nv + 1];
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
    row
}

/// `row − 1 ≥ 0`, i.e. `Δ ≥ 1` for a distance row.
fn at_least_one(row: &[i64]) -> Vec<i64> {
    let mut up = row.to_vec();
    *up.last_mut().expect("a constant column") -= 1;
    up
}

/// `−row − 1 ≥ 0`, i.e. `Δ ≤ −1` for a distance row.
fn at_most_minus_one(row: &[i64]) -> Vec<i64> {
    let mut down: Vec<i64> = row.iter().map(|&v| -v).collect();
    *down.last_mut().expect("a constant column") -= 1;
    down
}

// ---------------------------------------------------------------------
// Quasi-affine step oracle (schedule trees).
// ---------------------------------------------------------------------

/// One step of a schedule-tree instance order, specialized to a
/// dependence's endpoint pair.
///
/// Built by [`order_steps`] from the two statements' tree paths; each
/// step is either a band-member *value* comparison (quasi-affine: sums
/// of floored terms on both sides) or a static sequence *position*
/// comparison. The step oracles below answer satisfaction questions
/// about such steps inside the same exact integer-feasibility machinery
/// as the affine row tests above, by extending the dependence
/// polyhedron with auxiliary integer variables:
///
/// * an affine term (divisor 1) contributes its distance exactly;
/// * a floored term pair `⌊row_dst·x/div⌋ − ⌊row_src·x/div⌋` is
///   abstracted by one integer variable `w` with the exact window
///   `δ − div + 1 ≤ div·w ≤ δ + div − 1` (where `δ = row_dst·x −
///   row_src·x`), the tightest linear envelope of a floor difference.
///   The variable is **shared** between steps referencing the same
///   `(src row, dst row, div)` term, which is what correlates a
///   wavefronted tile member with the plain tile members it sums.
///
/// The floored-term windows over-approximate the true floor difference,
/// so the oracle is *sound but conservative*: it never certifies an
/// illegal instance order, but it may reject a legal transform (never
/// observed for permutable bands, where the windows are tight enough).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderStep {
    /// A band member: `(numerator row, divisor)` terms per side, the
    /// source side over `(it_src, params, 1)` and the destination side
    /// over `(it_dst, params, 1)`.
    Value {
        /// The source statement's floored terms.
        src: Vec<(Vec<i64>, i64)>,
        /// The destination statement's floored terms.
        dst: Vec<(Vec<i64>, i64)>,
    },
    /// A sequence node: static child positions of the two statements.
    Position {
        /// The source statement's position.
        src: i64,
        /// The destination statement's position.
        dst: i64,
    },
}

/// Pairs two statements' tree paths into the dependence's step sequence:
/// steps are zipped while the paths traverse the same structural nodes,
/// and a sequence node where the positions differ (which decides the
/// order statically) terminates the sequence.
pub fn order_steps(src_path: &[PathStep], dst_path: &[PathStep]) -> Vec<OrderStep> {
    use PathStep as P;
    let mut steps = Vec::new();
    for (a, b) in src_path.iter().zip(dst_path.iter()) {
        match (a, b) {
            (
                P::Member {
                    node: na,
                    terms: ta,
                    ..
                },
                P::Member {
                    node: nb,
                    terms: tb,
                    ..
                },
            ) if na == nb => {
                steps.push(OrderStep::Value {
                    src: ta.clone(),
                    dst: tb.clone(),
                });
            }
            (P::Seq { node: na, pos: pa }, P::Seq { node: nb, pos: pb }) if na == nb => {
                steps.push(OrderStep::Position { src: *pa, dst: *pb });
                if pa != pb {
                    break;
                }
            }
            _ => break,
        }
    }
    steps
}

/// The distance of one step over the extended variable space
/// `(it_src, it_dst, params, aux…, 1)` of a [`StepSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepDelta {
    /// Sequence positions: a static constant.
    Const(i64),
    /// A band member: a linear row.
    Linear(Vec<i64>),
}

/// What a step sequence adds to its dependence polyhedron: the
/// auxiliary floor variables, the rows that define them, and each
/// step's distance expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSystem {
    /// Auxiliary variables, appended behind the dependence's own.
    pub aux: usize,
    /// Window and monotonicity-cut inequalities over
    /// `(it_src, it_dst, params, aux…, 1)`.
    pub rows: Vec<Vec<i64>>,
    /// One distance per step, in order.
    pub deltas: Vec<StepDelta>,
}

/// A distinct floored term needing one auxiliary variable: either a
/// source/destination pair of the same member term (encoded as a
/// difference window) or a lone side term (encoded as a floor box).
#[derive(PartialEq, Eq, Hash, Clone)]
enum AuxKey<'a> {
    Pair(&'a [i64], &'a [i64], i64),
    Side(bool, &'a [i64], i64),
}

/// Whether a member contributes the same index-aligned terms to both
/// sides (always the case for terms built from tree paths).
fn paired(src: &[(Vec<i64>, i64)], dst: &[(Vec<i64>, i64)]) -> bool {
    src.len() == dst.len() && src.iter().zip(dst).all(|((_, da), (_, db))| da == db)
}

impl StepSystem {
    /// Encodes `steps` over `dep`. `sign_of` answers, for the distance
    /// `δ = rd·x − rs·x` of a floored term pair as a row over the
    /// dependence space, whether the polyhedron implies `δ ≥ 0` (`1`),
    /// `δ ≤ 0` (`-1`) or neither (`0`).
    pub fn new(
        dep: &Dependence,
        steps: &[OrderStep],
        mut sign_of: impl FnMut(&[i64]) -> i8,
    ) -> StepSystem {
        let ds = dep.src_depth;
        let dr = dep.dst_depth;
        let nv = dep.poly().num_vars();
        let np = nv - ds - dr;
        // First pass: one auxiliary variable per distinct floored term,
        // paired across sides when a member contributes the same
        // index-aligned term to both.
        let mut keys: Vec<AuxKey<'_>> = Vec::new();
        let mut index: HashMap<AuxKey<'_>, usize> = HashMap::new();
        fn intern<'s>(
            keys: &mut Vec<AuxKey<'s>>,
            index: &mut HashMap<AuxKey<'s>, usize>,
            key: AuxKey<'s>,
        ) -> usize {
            *index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            })
        }
        // Per Value step, the auxiliary variable of each floored term
        // (source side first when the sides are not paired).
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(steps.len());
        for step in steps {
            let mut of_step = Vec::new();
            if let OrderStep::Value { src, dst } = step {
                if paired(src, dst) {
                    for ((rs, div), (rd, _)) in src.iter().zip(dst).filter(|((_, d), _)| *d > 1) {
                        of_step.push(intern(&mut keys, &mut index, AuxKey::Pair(rs, rd, *div)));
                    }
                } else {
                    for (is_src, side) in [(true, src), (false, dst)] {
                        for (row, div) in side.iter().filter(|(_, d)| *d > 1) {
                            of_step.push(intern(
                                &mut keys,
                                &mut index,
                                AuxKey::Side(is_src, row, *div),
                            ));
                        }
                    }
                }
            }
            slots.push(of_step);
        }
        let next = nv + keys.len();
        // Lifts a per-side row over (iters, params, 1) into the
        // extended space.
        let lift = |row: &[i64], is_src: bool| -> Vec<i64> {
            let d = if is_src { ds } else { dr };
            debug_assert_eq!(row.len(), d + np + 1, "side row arity");
            let mut r = vec![0i64; next + 1];
            let base = if is_src { 0 } else { ds };
            r[base..base + d].copy_from_slice(&row[..d]);
            r[ds + dr..nv].copy_from_slice(&row[d..d + np]);
            r[next] = row[d + np];
            r
        };
        // Defining constraints, once per auxiliary variable.
        let mut rows = Vec::with_capacity(3 * keys.len());
        for (i, key) in keys.iter().enumerate() {
            let q = nv + i;
            match key {
                AuxKey::Pair(rs, rd, div) => {
                    // w ≈ ⌊rd·x/div⌋ − ⌊rs·x/div⌋, windowed by
                    // δ − div + 1 ≤ div·w ≤ δ + div − 1 with
                    // δ = rd·x − rs·x.
                    let s = lift(rs, true);
                    let d = lift(rd, false);
                    let delta: Vec<i64> = d.iter().zip(&s).map(|(a, b)| a - b).collect();
                    let mut hi = delta.clone();
                    hi[q] -= div;
                    hi[next] += div - 1;
                    rows.push(hi);
                    let mut lo: Vec<i64> = delta.iter().map(|&c| -c).collect();
                    lo[q] += div;
                    lo[next] += div - 1;
                    rows.push(lo);
                    // Monotonicity cut: the floor function is monotone,
                    // so a sign-definite δ over the dependence
                    // polyhedron forces the same sign on the true floor
                    // difference. The window alone admits |w| < 1 of
                    // rational slack per term, which sends the
                    // certification of a *legal* wavefront (Σ wⱼ ≤ −1
                    // integrally infeasible but rationally feasible)
                    // into deep branch and bound; the cut makes it a
                    // pure LP refutation.
                    let mut base_delta = delta[..nv].to_vec();
                    base_delta.push(delta[next]);
                    let sign = sign_of(&base_delta);
                    if sign != 0 {
                        let mut cut = vec![0i64; next + 1];
                        cut[q] = i64::from(sign);
                        rows.push(cut);
                    }
                }
                AuxKey::Side(is_src, row, div) => {
                    // q = ⌊row·x / div⌋ via div·q ≤ row·x ≤ div·q + div − 1.
                    let mut lo = lift(row, *is_src);
                    lo[q] -= div;
                    let mut hi: Vec<i64> = lo.iter().map(|&c| -c).collect();
                    hi[next] += div - 1;
                    rows.push(lo);
                    rows.push(hi);
                }
            }
        }
        // Second pass: per-step distance expressions over the extended
        // space.
        let deltas = steps
            .iter()
            .zip(&slots)
            .map(|(step, slots)| match step {
                OrderStep::Position { src, dst } => StepDelta::Const(dst - src),
                OrderStep::Value { src, dst } => {
                    let mut delta = vec![0i64; next + 1];
                    let mut slots = slots.iter();
                    let mut add = |terms: &[(Vec<i64>, i64)], sign: i64, is_src: bool, aux: i64| {
                        for (row, div) in terms {
                            if *div == 1 {
                                for (acc, v) in delta.iter_mut().zip(lift(row, is_src)) {
                                    *acc += sign * v;
                                }
                            } else if aux != 0 {
                                delta[nv + slots.next().expect("interned above")] += aux;
                            }
                        }
                    };
                    if paired(src, dst) {
                        // A pair's variable stands for the difference:
                        // it is counted once, on the destination side.
                        add(src, -1, true, 0);
                        add(dst, 1, false, 1);
                    } else {
                        add(src, -1, true, -1);
                        add(dst, 1, false, 1);
                    }
                    StepDelta::Linear(delta)
                }
            })
            .collect();
        StepSystem {
            aux: keys.len(),
            rows,
            deltas,
        }
    }

    /// The encoding as one constraint system — `dep.poly` lifted into
    /// the extended space plus [`rows`](StepSystem::rows) — with the
    /// cut signs decided by a cold [`polytops_math::ineq_implied`]
    /// each. This is the from-scratch form a [`Certifier`]'s tableau
    /// stands for: the reference oracle of the test suite asks
    /// [`polytops_math::ilp_feasible`] of it, one rebuilt system a
    /// question.
    pub fn materialized(dep: &Dependence, steps: &[OrderStep]) -> (ConstraintSystem, StepSystem) {
        let enc = StepSystem::new(dep, steps, |delta| {
            let neg: Vec<i64> = delta.iter().map(|&c| -c).collect();
            if polytops_math::ineq_implied(dep.poly(), delta) {
                1
            } else if polytops_math::ineq_implied(dep.poly(), &neg) {
                -1
            } else {
                0
            }
        });
        let nv = dep.poly().num_vars();
        let next = nv + enc.aux;
        let mut sys = ConstraintSystem::new(next);
        for (kind, row) in dep.poly().iter() {
            let mut r = vec![0i64; next + 1];
            r[..nv].copy_from_slice(&row[..nv]);
            r[next] = row[nv];
            match kind {
                RowKind::Eq => sys.add_eq(r),
                RowKind::Ineq => sys.add_ineq(r),
            }
        }
        for row in &enc.rows {
            sys.add_ineq(row.clone());
        }
        (sys, enc)
    }
}

/// Verifies a schedule-tree instance order against a dependence: the
/// destination instance must come strictly after the source instance
/// for every point of the polyhedron. This is the tree-side counterpart
/// of [`Certifier::schedule_respects`], sharing the same independent
/// integer-feasibility machinery (no code path in common with the
/// scheduler's Farkas construction).
pub fn steps_respect_dependence(dep: &Dependence, steps: &[OrderStep]) -> bool {
    Certifier::new(std::slice::from_ref(dep)).steps_respect(0, steps)
}

// ---------------------------------------------------------------------
// The certifier.
// ---------------------------------------------------------------------

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
/// the answer of each row question and the monotonicity cuts it has
/// proved. One per post-processing pass, certification or tuner call,
/// dropped with it — nothing outlives the dependences it was made for,
/// and no answer is shared between certifiers.
pub struct Certifier<'a> {
    deps: &'a [Dependence],
    /// Per dependence, its [polyhedron class](polyhedron_classes).
    class: Vec<usize>,
    /// The answer of each (class, pushed row) question asked so far.
    answers: HashMap<(usize, Vec<i64>), bool>,
    /// Per class, the sign of `δ` over the polyhedron per floored term
    /// pair (the `δ` row is the key): `1` for `δ ≥ 0`, `-1` for `δ ≤ 0`,
    /// `0` for neither.
    cuts: Vec<HashMap<Vec<i64>, i8>>,
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
            answers: HashMap::new(),
            cuts: deps.iter().map(|_| HashMap::new()).collect(),
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
    /// asked once per polyhedron and row.
    fn ask(&mut self, e: usize, row: Vec<i64>) -> bool {
        let key = (self.class[e], row);
        if let Some(&answer) = self.answers.get(&key) {
            return answer;
        }
        let answer = may_hold(self.deps[e].base(), Some(&key.1), &mut self.stats);
        self.answers.insert(key, answer);
        answer
    }

    /// Whether `Δ ≥ 1` on the whole polyhedron of `deps[e]` (the row
    /// *carries* the dependence, which can then be removed from the live
    /// set).
    pub fn strongly_satisfies(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        // Strongly satisfied iff { poly ∧ Δ <= 0 } has no integer point.
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        !self.ask(e, delta.iter().map(|&d| -d).collect())
    }

    /// Whether `Δ = 0` on the whole polyhedron of `deps[e]` (the
    /// dimension is parallel with respect to this dependence).
    pub fn zero_distance(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        !self.ask(e, at_least_one(&delta)) && !self.ask(e, at_most_minus_one(&delta))
    }

    /// Whether `Δ ≥ 0` on the whole polyhedron of `deps[e]` (the row is
    /// legal for this dependence).
    pub fn respects(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        !self.ask(e, at_most_minus_one(&delta))
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
    /// of the base tableau. This is the independent legality oracle of
    /// the test suite: it shares no code path with the scheduler's
    /// Farkas construction.
    pub fn schedule_respects(
        &mut self,
        e: usize,
        src_rows: &[Vec<i64>],
        dst_rows: &[Vec<i64>],
    ) -> bool {
        assert_eq!(src_rows.len(), dst_rows.len(), "ragged schedules");
        let dep = &self.deps[e];
        let deltas: Vec<StepDelta> = (src_rows.iter().zip(dst_rows))
            .map(|(s, d)| StepDelta::Linear(distance_row(dep, s, d)))
            .collect();
        let mut lp = dep.base().map(|base| base.with_vars(0, 0));
        descend(&mut lp, &deltas, &mut self.stats)
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

    /// [`steps_respect_dependence`] for `deps[e]`: one walk down `steps`
    /// on a copy of the base tableau widened by the sequence's auxiliary
    /// variables.
    pub fn steps_respect(&mut self, e: usize, steps: &[OrderStep]) -> bool {
        let dep = &self.deps[e];
        let base = dep.base();
        let (cuts, stats) = (&mut self.cuts[self.class[e]], &mut self.stats);
        let enc = StepSystem::new(dep, steps, |delta| {
            if let Some(&sign) = cuts.get(delta) {
                return sign;
            }
            // One question each way, on a copy of the base tableau.
            let mut implied = |row: &[i64]| {
                stats.queries += 1;
                base.is_some_and(|base| base.clone().implies(row))
            };
            let neg: Vec<i64> = delta.iter().map(|&c| -c).collect();
            let sign = if implied(delta) {
                1
            } else if implied(&neg) {
                -1
            } else {
                0
            };
            cuts.insert(delta.to_vec(), sign);
            sign
        });
        let mut lp = base.map(|base| {
            let mut lp = base.with_vars(enc.aux, enc.rows.len());
            for row in &enc.rows {
                // An empty or poisoned tableau keeps answering so.
                let _ = lp.push_int_ineq(row);
            }
            lp
        });
        descend(&mut lp, &enc.deltas, stats)
    }
}

/// The walk of the order questions over encoded distances, on the
/// working tableau `lp`: of each step in turn, whether some instance
/// pair still equal on every earlier step is ordered backwards by it
/// (`Δ ≤ −1` on a snapshot), then its distance pinned to 0; at the end,
/// whether some pair is equal on all of them. Either way the sequence
/// does not respect the dependence.
fn descend(
    lp: &mut Option<IncrementalLp>,
    deltas: &[StepDelta],
    stats: &mut CertifierStats,
) -> bool {
    for delta in deltas {
        match delta {
            StepDelta::Const(0) => {}
            // Strictly ordered wherever the prefix is equal, so nothing
            // can remain unordered below — forwards, or backwards for
            // every instance still equal on it.
            StepDelta::Const(c) => return *c > 0 || !may_hold(lp.as_ref(), None, stats),
            StepDelta::Linear(row) => {
                if may_hold(lp.as_ref(), Some(&at_most_minus_one(row)), stats) {
                    return false;
                }
                if let Some(live) = lp {
                    if live.pin_int_eq(row) == Ok(false) {
                        // No pair is equal this far down.
                        return true;
                    }
                }
            }
        }
    }
    !may_hold(lp.as_ref(), None, stats)
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

    /// A single-term affine step for the chain dep (φ = row on both
    /// sides).
    fn affine_step(row: Vec<i64>) -> OrderStep {
        OrderStep::Value {
            src: vec![(row.clone(), 1)],
            dst: vec![(row, 1)],
        }
    }

    #[test]
    fn affine_steps_match_the_row_oracle() {
        let dep = flow_dep();
        let id = affine_step(vec![1, 0, 0]);
        let rev = affine_step(vec![-1, 0, 0]);
        let cst = affine_step(vec![0, 0, 7]);
        // The step oracle must agree with the affine row oracle when
        // every term has divisor 1.
        assert!(steps_respect_dependence(&dep, &[id.clone()]));
        assert!(!steps_respect_dependence(&dep, &[rev.clone()]));
        assert!(!steps_respect_dependence(&dep, &[cst]));
    }

    #[test]
    fn sequence_positions_decide_statically() {
        let dep = flow_dep();
        // Source before destination: respected without any value step.
        assert!(steps_respect_dependence(
            &dep,
            &[OrderStep::Position { src: 0, dst: 1 }]
        ));
        // Destination before source: violated (polyhedron nonempty).
        assert!(!steps_respect_dependence(
            &dep,
            &[OrderStep::Position { src: 1, dst: 0 }]
        ));
        // A separating prefix settles the order whatever follows.
        assert!(steps_respect_dependence(
            &dep,
            &[
                OrderStep::Position { src: 0, dst: 1 },
                affine_step(vec![-1, 0, 0])
            ]
        ));
    }

    #[test]
    fn distance_row_shape() {
        let dep = flow_dep();
        let r = distance_row(&dep, &[2, 3, 4], &[5, 6, 7]);
        // (it_s, it_r, N, 1): -2*i_s + 5*i_r + (6-3)*N + (7-4).
        assert_eq!(r, vec![-2, 5, 3, 3]);
    }
}
