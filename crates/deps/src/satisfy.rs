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
//! over one polyhedron. A [`Certifier`] therefore keeps, per
//! dependence, the solved tableau of its polyhedron
//! ([`IncrementalLp`]) and asks each question as one pushed row on a
//! snapshot of it; a walk down a step sequence pins `Δ = 0` on one
//! working copy as it goes instead of rebuilding prefix + step per
//! question. The free functions of this module are the one-dependence,
//! one-question forms of the same code.

use std::collections::HashMap;

use polytops_ir::PathStep;
use polytops_math::{ConstraintSystem, IncrementalLp, RowKind};

use crate::analysis::Dependence;

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
    let np = dep.poly.num_vars() - ds - dr;
    assert_eq!(src_row.len(), ds + np + 1, "source row arity");
    assert_eq!(dst_row.len(), dr + np + 1, "destination row arity");
    let nv = dep.poly.num_vars();
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

/// Whether `Δ ≥ 1` on the whole dependence polyhedron (the row *carries*
/// the dependence, which can then be removed from the live set).
pub fn strongly_satisfies(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    Certifier::new(std::slice::from_ref(dep)).strongly_satisfies(0, src_row, dst_row)
}

/// Whether `Δ = 0` on the whole dependence polyhedron (the dimension is
/// parallel with respect to this dependence).
pub fn zero_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    Certifier::new(std::slice::from_ref(dep)).zero_distance(0, src_row, dst_row)
}

/// Whether `Δ ≥ 0` on the whole polyhedron (the row is legal for this
/// dependence). Mostly used by tests and verification — the scheduler
/// enforces legality by construction via Farkas.
pub fn respects(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    Certifier::new(std::slice::from_ref(dep)).respects(0, src_row, dst_row)
}

/// Verifies a complete multidimensional schedule against a dependence:
/// the destination timestamp must be lexicographically greater than the
/// source timestamp for every point of the polyhedron.
///
/// This is the independent legality oracle used by the test suite: it
/// shares no code path with the scheduler's Farkas construction.
pub fn schedule_respects_dependence(
    dep: &Dependence,
    src_rows: &[Vec<i64>],
    dst_rows: &[Vec<i64>],
) -> bool {
    Certifier::new(std::slice::from_ref(dep)).schedule_respects(0, src_rows, dst_rows)
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
/// illegal instance order and never reports a non-coincident member
/// coincident, but it may reject a legal transform (never observed for
/// permutable bands, where the windows are tight enough).
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
    order_steps_with_nodes(src_path, dst_path).0
}

/// [`order_steps`] plus, beside each step, the structural node id of
/// the band member it compares (`None` for a sequence position) — what
/// attributes a conditioned property of the step back to a tree member.
pub fn order_steps_with_nodes(
    src_path: &[PathStep],
    dst_path: &[PathStep],
) -> (Vec<OrderStep>, Vec<Option<usize>>) {
    use PathStep as P;
    let mut steps = Vec::new();
    let mut nodes = Vec::new();
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
                nodes.push(Some(*na));
            }
            (P::Seq { node: na, pos: pa }, P::Seq { node: nb, pos: pb }) if na == nb => {
                steps.push(OrderStep::Position { src: *pa, dst: *pb });
                nodes.push(None);
                if pa != pb {
                    break;
                }
            }
            _ => break,
        }
    }
    (steps, nodes)
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
        let nv = dep.poly.num_vars();
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
            if polytops_math::ineq_implied(&dep.poly, delta) {
                1
            } else if polytops_math::ineq_implied(&dep.poly, &neg) {
                -1
            } else {
                0
            }
        });
        let nv = dep.poly.num_vars();
        let next = nv + enc.aux;
        let mut sys = ConstraintSystem::new(next);
        for (kind, row) in dep.poly.iter() {
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
/// of [`schedule_respects_dependence`], sharing the same independent
/// integer-feasibility machinery (no code path in common with the
/// scheduler's Farkas construction).
pub fn steps_respect_dependence(dep: &Dependence, steps: &[OrderStep]) -> bool {
    Certifier::new(std::slice::from_ref(dep)).steps_respect(0, steps)
}

/// Whether the step's distance is 0 for every dependence instance with
/// equal coordinates on all `prefix` steps — the tree notion of
/// coincidence (the member's loop may run in parallel at that position
/// of the schedule). Conditioning on the prefix is what lets a
/// wavefronted tile band expose coincident inner tile members: a
/// dependence crossing tiles always crosses the skewed outer member
/// first.
pub fn step_coincident(dep: &Dependence, prefix: &[OrderStep], step: &OrderStep) -> bool {
    let mut steps = prefix.to_vec();
    steps.push(step.clone());
    let mut wanted = vec![false; steps.len()];
    wanted[prefix.len()] = true;
    let walk = Certifier::new(std::slice::from_ref(dep)).walk(0, &steps, false, &wanted);
    walk.coincident[prefix.len()]
}

// ---------------------------------------------------------------------
// The certifier.
// ---------------------------------------------------------------------

/// What a [`Certifier`] did so far. Flushed into the `oracle.*`
/// counters of the thread's `polytops_obs` context when the certifier
/// is dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CertifierStats {
    /// Feasibility and implication questions asked of a tableau.
    pub queries: u64,
    /// Tableaus built from a constraint system (one per dependence
    /// asked about; never one per question).
    pub tableau_builds: u64,
    /// Branch-and-bound nodes the feasibility questions explored.
    pub bb_nodes: u64,
    /// Dependences [`Certifier::certify_rewrite`] walked because the
    /// rewrite changed their step sequence.
    pub deps_recertified: u64,
    /// Dependences it did not: same steps before and after.
    pub deps_skipped: u64,
}

/// What one dependence keeps between questions.
struct DepOracle {
    /// The solved tableau of `dep.poly`, normalized once. `None` when
    /// it could not be built (an overflow): every feasibility question
    /// then answers "a point may exist" and no cut is proved.
    base: Option<IncrementalLp>,
    /// The sign of `δ` over the polyhedron, per floored term pair (the
    /// `δ` row is the key): `1` for `δ ≥ 0`, `-1` for `δ ≤ 0`, `0` for
    /// neither.
    cuts: HashMap<Vec<i64>, i8>,
}

/// The outcome of [`Certifier::walk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Whether the step sequence orders every instance pair of the
    /// dependence source-first (`true` when the order was not asked
    /// about).
    pub respected: bool,
    /// Per step: whether its distance is 0 wherever every earlier step
    /// is. `true` where it was not asked, and vacuously `true` below a
    /// step that already separates every pair.
    pub coincident: Vec<bool>,
}

/// The dependence oracle of one set of dependences: answers every
/// satisfaction and legality question about them, keeping per
/// dependence the live tableau of its polyhedron and the monotonicity
/// cuts it has proved. One per post-processing pass, certification or
/// tuner call, dropped with it — nothing outlives the dependences it
/// was made for.
pub struct Certifier<'a> {
    deps: &'a [Dependence],
    oracles: Vec<Option<DepOracle>>,
    stats: CertifierStats,
}

impl Drop for Certifier<'_> {
    fn drop(&mut self) {
        let s = &self.stats;
        for (name, n) in [
            ("oracle.queries", s.queries),
            ("oracle.tableau_builds", s.tableau_builds),
            ("oracle.bb_nodes", s.bb_nodes),
            ("oracle.deps_recertified", s.deps_recertified),
            ("oracle.deps_skipped", s.deps_skipped),
        ] {
            if n > 0 {
                polytops_math::obs::count(name, n);
            }
        }
    }
}

/// Whether `lp` plus `row ≥ 0` (over integer variables) may hold an
/// integer point; `lp` is left as it was. An unusable tableau proves
/// nothing: a point may exist.
fn may_hold(
    lp: &mut Option<IncrementalLp>,
    row: Option<&[i64]>,
    stats: &mut CertifierStats,
) -> bool {
    stats.queries += 1;
    let Some(lp) = lp else { return true };
    let before = lp.snapshot();
    let pushed = row.map_or(Ok(true), |row| lp.push_int_ineq(row));
    let mut nodes = 0;
    let answer = match pushed {
        Ok(false) => false,
        Ok(true) => lp.may_have_integer_point(&mut nodes),
        Err(_) => true,
    };
    stats.bb_nodes += nodes as u64;
    lp.rollback(before);
    answer
}

impl<'a> Certifier<'a> {
    /// A certifier for `deps`; dependence `e` below is `deps[e]`.
    /// Nothing is built until a dependence is first asked about.
    pub fn new(deps: &'a [Dependence]) -> Certifier<'a> {
        Certifier {
            deps,
            oracles: deps.iter().map(|_| None).collect(),
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

    fn oracle(&mut self, e: usize) -> (&mut DepOracle, &mut CertifierStats) {
        let dep = &self.deps[e];
        let stats = &mut self.stats;
        let oracle = self.oracles[e].get_or_insert_with(|| {
            stats.tableau_builds += 1;
            // `normalize` leaves an infeasible witness behind when it
            // finds one, and the tableau of that is infeasible too.
            let mut poly = dep.poly.clone();
            poly.normalize();
            DepOracle {
                base: IncrementalLp::new(&poly).ok(),
                cuts: HashMap::new(),
            }
        });
        (oracle, stats)
    }

    /// Whether `deps[e].poly` plus `row ≥ 0` may hold an integer point.
    fn ask(&mut self, e: usize, row: &[i64]) -> bool {
        let (oracle, stats) = self.oracle(e);
        may_hold(&mut oracle.base, Some(row), stats)
    }

    /// [`strongly_satisfies`] for `deps[e]`.
    pub fn strongly_satisfies(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        // Strongly satisfied iff { poly ∧ Δ <= 0 } has no integer point.
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        let leq: Vec<i64> = delta.iter().map(|&d| -d).collect();
        !self.ask(e, &leq)
    }

    /// [`zero_distance`] for `deps[e]`.
    pub fn zero_distance(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        !self.ask(e, &at_least_one(&delta)) && !self.ask(e, &at_most_minus_one(&delta))
    }

    /// [`respects`] for `deps[e]`.
    pub fn respects(&mut self, e: usize, src_row: &[i64], dst_row: &[i64]) -> bool {
        let delta = distance_row(&self.deps[e], src_row, dst_row);
        !self.ask(e, &at_most_minus_one(&delta))
    }

    /// [`schedule_respects_dependence`] for `deps[e]`: one walk down the
    /// dimensions on a copy of the base tableau.
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
        let (oracle, stats) = self.oracle(e);
        let mut lp = oracle.base.as_ref().map(|base| base.with_vars(0, 0));
        descend(&mut lp, &deltas, true, &vec![false; deltas.len()], stats).respected
    }

    /// Whether `sched`'s rows order every dependence source-first: the
    /// legality certificate of a flat schedule.
    pub fn certifies(&mut self, sched: &polytops_ir::Schedule) -> bool {
        let deps = self.deps;
        (0..deps.len()).all(|e| {
            let (src, dst) = (sched.stmt(deps[e].src), sched.stmt(deps[e].dst));
            self.schedule_respects(e, src.rows(), dst.rows())
        })
    }

    /// [`steps_respect_dependence`] for `deps[e]`.
    pub fn steps_respect(&mut self, e: usize, steps: &[OrderStep]) -> bool {
        self.walk(e, steps, true, &vec![false; steps.len()])
            .respected
    }

    /// Walks `steps` for `deps[e]` on one tableau — the base tableau
    /// widened by the sequence's auxiliary variables — asking of each
    /// step in turn and then pinning its distance to 0:
    ///
    /// * with `order`, whether some instance pair still equal on every
    ///   earlier step is ordered backwards by this one (`Δ ≤ −1` on a
    ///   snapshot), and at the end whether some pair is equal on all of
    ///   them — either way the sequence does not respect the
    ///   dependence, and the walk stops;
    /// * where `wanted`, whether the step is coincident given the
    ///   earlier ones (`Δ ≥ 1` and `Δ ≤ −1` both empty).
    pub fn walk(&mut self, e: usize, steps: &[OrderStep], order: bool, wanted: &[bool]) -> Walk {
        let dep = &self.deps[e];
        let (oracle, stats) = self.oracle(e);
        let DepOracle { base, cuts } = oracle;
        let enc = StepSystem::new(dep, steps, |delta| {
            if let Some(&sign) = cuts.get(delta) {
                return sign;
            }
            // One question each way of the base tableau, on a snapshot:
            // an overflowing minimize would poison it.
            let mut implied = |row: &[i64]| {
                stats.queries += 1;
                base.as_mut().is_some_and(|base| {
                    let before = base.snapshot();
                    let implied = base.implies(row);
                    base.rollback(before);
                    implied
                })
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
        let mut lp = base.as_ref().map(|base| {
            let mut lp = base.with_vars(enc.aux, enc.rows.len());
            for row in &enc.rows {
                // An empty or poisoned tableau keeps answering so.
                let _ = lp.push_int_ineq(row);
            }
            lp
        });
        descend(&mut lp, &enc.deltas, order, wanted, stats)
    }

    /// Certifies the instance order `after` of a rewritten tree, given
    /// that the tree it was rewritten from — instance order `before` —
    /// is certified: only the dependences whose step sequence the
    /// rewrite changed are walked again, since a verdict is a function
    /// of (dependence, steps). Both arguments are
    /// [`polytops_ir::ScheduleTree::stmt_paths`].
    ///
    /// `flags` selects, by structural node id in `after`, the band
    /// members whose conditioned coincidence is wanted. Returns `None`
    /// when `after` violates a dependence, otherwise one flag per id of
    /// `flags`: whether the member is coincident for every dependence
    /// that reaches it.
    pub fn certify_rewrite(
        &mut self,
        before: &[Vec<PathStep>],
        after: &[Vec<PathStep>],
        flags: std::ops::Range<usize>,
    ) -> Option<Vec<bool>> {
        let mut out = vec![true; flags.len()];
        for (e, dep) in self.deps.iter().enumerate() {
            let (src, dst) = (dep.src.0, dep.dst.0);
            let (steps, nodes) = order_steps_with_nodes(&after[src], &after[dst]);
            let touched = steps != order_steps(&before[src], &before[dst]);
            let wanted: Vec<bool> = nodes
                .iter()
                .map(|id| id.is_some_and(|id| flags.contains(&id)))
                .collect();
            if touched {
                self.stats.deps_recertified += 1;
            } else {
                self.stats.deps_skipped += 1;
                if !wanted.contains(&true) {
                    continue;
                }
            }
            let walk = self.walk(e, &steps, touched, &wanted);
            if !walk.respected {
                return None;
            }
            for (j, id) in nodes.iter().enumerate() {
                if let Some(id) = id.filter(|_| wanted[j]) {
                    out[id - flags.start] &= walk.coincident[j];
                }
            }
        }
        Some(out)
    }
}

/// The walk of [`Certifier::walk`] over the encoded distances, on the
/// working tableau `lp`.
fn descend(
    lp: &mut Option<IncrementalLp>,
    deltas: &[StepDelta],
    order: bool,
    wanted: &[bool],
    stats: &mut CertifierStats,
) -> Walk {
    let mut walk = Walk {
        respected: true,
        coincident: vec![true; deltas.len()],
    };
    for (j, delta) in deltas.iter().enumerate() {
        match delta {
            StepDelta::Const(0) => {}
            StepDelta::Const(c) => {
                // Strictly ordered wherever the prefix is equal, so
                // nothing can remain unordered below — forwards, or
                // backwards for every instance still equal on it.
                let backwards = order && *c < 0;
                if (backwards || wanted[j]) && may_hold(lp, None, stats) {
                    walk.respected = !backwards;
                    walk.coincident[j] = !wanted[j];
                }
                return walk;
            }
            StepDelta::Linear(row) => {
                if order || wanted[j] {
                    let backwards = may_hold(lp, Some(&at_most_minus_one(row)), stats);
                    if wanted[j] {
                        walk.coincident[j] =
                            !backwards && !may_hold(lp, Some(&at_least_one(row)), stats);
                    }
                    if order && backwards {
                        walk.respected = false;
                        return walk;
                    }
                }
                if let Some(live) = lp {
                    if live.pin_int_eq(row) == Ok(false) {
                        // No pair is equal this far down: every later
                        // question is about the empty set.
                        return walk;
                    }
                }
            }
        }
    }
    // Violated if some instance pair is equal on every step (no strict
    // order at all).
    walk.respected = !(order && may_hold(lp, None, stats));
    walk
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
        let dep = flow_dep();
        // φ = i for both: Δ = i_r - i_s = 1 > 0 everywhere.
        let row = vec![1, 0, 0]; // (i, N, 1)
        assert!(strongly_satisfies(&dep, &row, &row));
        assert!(respects(&dep, &row, &row));
        assert!(!zero_distance(&dep, &row, &row));
    }

    #[test]
    fn reversed_row_is_illegal() {
        let dep = flow_dep();
        let row = vec![-1, 0, 0]; // φ = -i reverses the chain
        assert!(!respects(&dep, &row, &row));
        assert!(!strongly_satisfies(&dep, &row, &row));
    }

    #[test]
    fn constant_row_is_zero_distance() {
        let dep = flow_dep();
        let row = vec![0, 0, 7]; // φ = 7 for all instances
        assert!(zero_distance(&dep, &row, &row));
        assert!(respects(&dep, &row, &row));
        assert!(!strongly_satisfies(&dep, &row, &row));
    }

    #[test]
    fn full_schedule_verification() {
        let dep = flow_dep();
        // Θ = (i) is legal and total for the chain.
        assert!(schedule_respects_dependence(
            &dep,
            &[vec![1, 0, 0]],
            &[vec![1, 0, 0]]
        ));
        // Θ = (0) leaves instances unordered: illegal.
        assert!(!schedule_respects_dependence(
            &dep,
            &[vec![0, 0, 0]],
            &[vec![0, 0, 0]]
        ));
        // Θ = (-i) is illegal.
        assert!(!schedule_respects_dependence(
            &dep,
            &[vec![-1, 0, 0]],
            &[vec![-1, 0, 0]]
        ));
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
        assert!(!steps_respect_dependence(&dep, &[cst.clone()]));
        assert!(!step_coincident(&dep, &[], &id));
        assert!(step_coincident(&dep, &[], &cst));
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
        // A separating prefix makes every conditioned property vacuous.
        let rev = affine_step(vec![-1, 0, 0]);
        assert!(step_coincident(
            &dep,
            &[OrderStep::Position { src: 0, dst: 1 }],
            &rev
        ));
    }

    #[test]
    fn tile_steps_follow_the_floors() {
        let dep = flow_dep(); // distance exactly 1 on i
        let tile = OrderStep::Value {
            src: vec![(vec![1, 0, 0], 4)],
            dst: vec![(vec![1, 0, 0], 4)],
        };
        let point = affine_step(vec![1, 0, 0]);
        // ⌊i/4⌋ is not coincident (tile-crossing pairs exist), but the
        // full (tile, point) order is respected.
        assert!(!step_coincident(&dep, &[], &tile));
        assert!(steps_respect_dependence(&dep, &[tile, point]));
    }

    #[test]
    fn wavefront_of_tiles_exposes_coincidence() {
        // for t for i: A[i] = A[i-1] + A[i+1] under the skewed schedule
        // (t, t+i): tile members q0 = ⌊t/4⌋, q1 = ⌊(t+i)/4⌋. Neither is
        // coincident alone, but given the wavefronted outer member
        // q0 + q1 equal, q1 is (the classic tile-wavefront win).
        let mut b = ScopBuilder::new("jacobi");
        let tp = b.param("T");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("t", Aff::val(0), tp - 1);
        b.open_loop("i", Aff::val(1), n - 2);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .read(a, &[Aff::var("i") + 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        assert!(!deps.is_empty());
        let t_row = vec![1i64, 0, 0, 0, 0]; // t over (t, i, T, N, 1)
        let skew_row = vec![1i64, 1, 0, 0, 0]; // t + i
        let q0 = (t_row, 4i64);
        let q1 = (skew_row, 4i64);
        let tile_q1 = OrderStep::Value {
            src: vec![q1.clone()],
            dst: vec![q1.clone()],
        };
        let wave = OrderStep::Value {
            src: vec![q0.clone(), q1.clone()],
            dst: vec![q0.clone(), q1.clone()],
        };
        for dep in &deps {
            assert!(
                !step_coincident(dep, &[], &tile_q1),
                "q1 alone crosses tiles"
            );
            assert!(
                step_coincident(dep, &[wave.clone()], &tile_q1),
                "q1 is coincident under the wavefront"
            );
        }
    }

    #[test]
    fn distance_row_shape() {
        let dep = flow_dep();
        let r = distance_row(&dep, &[2, 3, 4], &[5, 6, 7]);
        // (it_s, it_r, N, 1): -2*i_s + 5*i_r + (6-3)*N + (7-4).
        assert_eq!(r, vec![-2, 5, 3, 3]);
    }
}
