//! Heuristic fast-path scheduler: fusion + dimension matching without
//! an ILP solve.
//!
//! Large SCoPs pay the ILP cascade dearly: the joint constraint system
//! couples every statement's coefficients, so its size — and the exact
//! simplex underneath — grows with the statement count even
//! when the schedule the cascade eventually finds is a plain
//! permutation. Acharya & Bondhugula's observation (*An Approach for
//! Finding Permutations Quickly*) is that for most programs that
//! permutation can be *proposed* directly from the dependence structure
//! and merely *validated*, at a cost of one small feasibility test per
//! dependence instead of one large lexmin solve per dimension.
//!
//! This module implements that proposal step for one dimension:
//!
//! 1. **Dimension matching** — each statement nominates its first
//!    original iterator that is linearly independent of its committed
//!    progression basis (a one-hot row), keeping every statement fused;
//!    statements whose schedule is already complete contribute a zero
//!    row.
//! 2. **Shift repair** — if a cross-statement dependence has a negative
//!    minimal distance under the proposal, the destination row's
//!    constant is raised by exactly that deficit (a relaxation loop,
//!    bounded by the configured constant bound, since raising one
//!    statement can re-expose a dependence upstream).
//! 3. **Validation** — every legality dependence (live ones plus those
//!    carried inside the open band, so emitted bands stay permutable)
//!    must pass [`Certifier::respects`], the same exact `Δ ≥ 0`
//!    dependence-polyhedron check the Farkas stage linearizes.
//!
//! Any failure returns `None` and the caller falls back to the full ILP
//! cascade *for this dimension only* — later dimensions try the fast
//! path again. Fast-path schedules flow through the same commit,
//! post-processing and oracle-certification machinery as ILP schedules.

use polytops_deps::{Certifier, Dependence};
use polytops_ir::Scop;
use polytops_math::{ilp_minimize, Echelon, IlpOutcome};

use crate::strategy::DimSolution;

/// Proposes one schedule dimension from the dependence structure, or
/// `None` when no legal permutation/shift proposal exists (the caller
/// then runs the ILP cascade for this dimension).
pub(crate) fn propose(
    oracle: &mut Certifier<'_>,
    scop: &Scop,
    basis: &[Echelon],
    legality: &[(usize, &Dependence)],
    live: &[(usize, &Dependence)],
    shift_bound: i64,
) -> Option<DimSolution> {
    let np = scop.nparams();
    let nstmts = scop.statements.len();

    // 1. Dimension matching: one-hot rows on each statement's first
    //    basis-independent original iterator. An overflow of the
    //    independence test gives up, as in `min_distance`.
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(nstmts);
    let mut progressed = false;
    for (s, stmt) in scop.statements.iter().enumerate() {
        let depth = stmt.depth();
        let mut row = vec![0i64; depth + np + 1];
        for j in 0..depth {
            let mut onehot = vec![0i64; depth];
            onehot[j] = 1;
            if basis[s].independent(&onehot).ok()? {
                row[j] = 1;
                progressed = true;
                break;
            }
        }
        rows.push(row);
    }
    if !progressed {
        return None;
    }

    // 2. Shift repair: raise destination constants until every
    //    cross-statement dependence has non-negative minimal distance.
    //    Each repair can lower the distance of dependences *out of* the
    //    raised statement, so relax in rounds (Bellman–Ford style); a
    //    SCoP needing more than `nstmts + 1` rounds has a negative
    //    cycle no constant shift can fix.
    for _ in 0..=nstmts {
        let mut changed = false;
        for &(e, dep) in legality {
            if oracle.respects(e, &rows[dep.src.0], &rows[dep.dst.0]) {
                continue;
            }
            let deficit = match min_distance(dep, &rows[dep.src.0], &rows[dep.dst.0]) {
                Some(m) if m < 0 => -m,
                Some(_) => continue,
                None => return None, // unbounded below: unfixable
            };
            if dep.src == dep.dst {
                // Shifting a self-dependence moves both sides equally.
                return None;
            }
            let dst = &mut rows[dep.dst.0];
            let cpos = dst.len() - 1;
            dst[cpos] += deficit;
            if dst[cpos] > shift_bound {
                return None;
            }
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // 3. Validation: the exact legality check on every dependence the
    //    dimension must preserve.
    if legality
        .iter()
        .any(|&(e, dep)| !oracle.respects(e, &rows[dep.src.0], &rows[dep.dst.0]))
    {
        return None;
    }

    let parallel = live
        .iter()
        .all(|&(e, dep)| oracle.zero_distance(e, &rows[dep.src.0], &rows[dep.dst.0]));
    Some(DimSolution {
        rows,
        parallel,
        constant: false,
    })
}

/// The minimal schedule distance `Δ` of a dependence under candidate
/// rows, or `None` when `Δ` is unbounded below (or the polyhedron is
/// somehow empty, or the solver overflowed): the fast path gives up.
fn min_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> Option<i64> {
    let delta = polytops_deps::distance_row(dep, src_row, dst_row);
    let nv = dep.poly.num_vars();
    match ilp_minimize(&dep.poly, &delta[..nv]) {
        Ok(IlpOutcome::Optimal { value, .. }) => Some(value + delta[nv]),
        _ => None,
    }
}
