//! The from-scratch dependence oracle: every question materializes its
//! own constraint system and asks the one-question
//! [`polytops_math::ilp_feasible`] of it — a rebuilt tableau per
//! question, no state between questions. This is what
//! `polytops_deps::Certifier` must agree with answer for answer. It is
//! also the tree-order oracle: [`order_steps`] pairs two statements'
//! tree paths and [`steps_respect`] certifies the instance order they
//! give, which the library certifies instead by the engine's row walk
//! and post-processing's permutability proof. It is shared (by
//! `#[path]`) with `crates/core/tests/{certifier,end_to_end}.rs` and
//! the post-processing unit tests.

#![allow(dead_code)] // each including test uses its own part

use std::collections::HashMap;

use polytops_deps::{distance_row, Dependence};
use polytops_ir::PathStep;
use polytops_math::{ilp_feasible, ineq_implied, ConstraintSystem, RowKind};

/// `sys` plus `row ≥ 0` has an integer point.
fn feasible_with(sys: &ConstraintSystem, row: Vec<i64>) -> bool {
    let mut sys = sys.clone();
    sys.add_ineq(row);
    ilp_feasible(&sys)
}

fn at_least_one(row: &[i64]) -> Vec<i64> {
    let mut up = row.to_vec();
    *up.last_mut().unwrap() -= 1;
    up
}

fn at_most_minus_one(row: &[i64]) -> Vec<i64> {
    at_least_one(&row.iter().map(|&v| -v).collect::<Vec<_>>())
}

pub fn strongly_satisfies(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(dep.poly(), delta.iter().map(|&d| -d).collect())
}

pub fn zero_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(dep.poly(), at_least_one(&delta))
        && !feasible_with(dep.poly(), at_most_minus_one(&delta))
}

pub fn respects(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(dep.poly(), at_most_minus_one(&delta))
}

pub fn schedule_respects(dep: &Dependence, src_rows: &[Vec<i64>], dst_rows: &[Vec<i64>]) -> bool {
    let mut sys = dep.poly().clone();
    for (src, dst) in src_rows.iter().zip(dst_rows) {
        let delta = distance_row(dep, src, dst);
        if feasible_with(&sys, at_most_minus_one(&delta)) {
            return false;
        }
        sys.add_eq(delta);
    }
    !ilp_feasible(&sys)
}

pub fn steps_respect(dep: &Dependence, steps: &[OrderStep]) -> bool {
    let (mut sys, enc) = StepSystem::materialized(dep, steps);
    for delta in &enc.deltas {
        match delta {
            StepDelta::Const(0) => {}
            StepDelta::Const(c) => return *c > 0 || !ilp_feasible(&sys),
            StepDelta::Linear(row) => {
                if feasible_with(&sys, at_most_minus_one(row)) {
                    return false;
                }
                sys.add_eq(row.clone());
            }
        }
    }
    !ilp_feasible(&sys)
}

pub fn step_coincident(dep: &Dependence, prefix: &[OrderStep], step: &OrderStep) -> bool {
    let mut steps = prefix.to_vec();
    steps.push(step.clone());
    let (mut sys, mut enc) = StepSystem::materialized(dep, &steps);
    let last = enc.deltas.pop().unwrap();
    for delta in &enc.deltas {
        match delta {
            StepDelta::Const(0) => {}
            StepDelta::Const(_) => return true,
            StepDelta::Linear(row) => sys.add_eq(row.clone()),
        }
    }
    match last {
        StepDelta::Const(c) => c == 0 || !ilp_feasible(&sys),
        StepDelta::Linear(row) => {
            !feasible_with(&sys, at_least_one(&row))
                && !feasible_with(&sys, at_most_minus_one(&row))
        }
    }
}

/// One step of a schedule-tree instance order, specialized to a
/// dependence's endpoint pair.
///
/// Built by [`order_steps`] from the two statements' tree paths; each
/// step is either a band-member *value* comparison (quasi-affine: sums
/// of floored terms on both sides) or a static sequence *position*
/// comparison. [`steps_respect`] and [`step_coincident`] answer
/// questions about such steps as the row questions are answered, by
/// extending the dependence polyhedron with auxiliary integer
/// variables:
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
    /// Encodes `steps` over `dep` as one constraint system — `dep.poly`
    /// lifted into the extended space plus [`rows`](StepSystem::rows) —
    /// with the cut signs decided by a cold [`ineq_implied`] each. The
    /// oracle asks [`ilp_feasible`] of it, one rebuilt system a
    /// question.
    pub fn materialized(dep: &Dependence, steps: &[OrderStep]) -> (ConstraintSystem, StepSystem) {
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
                    let neg: Vec<i64> = base_delta.iter().map(|&c| -c).collect();
                    for (sign, implied) in [(1, &base_delta), (-1, &neg)] {
                        if ineq_implied(dep.poly(), implied) {
                            let mut cut = vec![0i64; next + 1];
                            cut[q] = sign;
                            rows.push(cut);
                            break;
                        }
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
        for row in &rows {
            sys.add_ineq(row.clone());
        }
        let aux = keys.len();
        (sys, StepSystem { aux, rows, deltas })
    }
}
