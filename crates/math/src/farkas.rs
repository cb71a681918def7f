//! Affine form of Farkas' lemma.
//!
//! The central linearization step of polyhedral scheduling: an affine form
//! `e(z)` is non-negative everywhere on a (non-empty) polyhedron
//! `P = { z | c_k(z) ≥ 0, d_l(z) = 0 }` **iff** it can be written
//!
//! ```text
//! e(z) ≡ λ₀ + Σ_k λ_k · c_k(z) + Σ_l μ_l · d_l(z),   λ ≥ 0, μ free.
//! ```
//!
//! Matching coefficients of `z` turns the quantified condition
//! `∀z ∈ P: e(z) ≥ 0` into an *existential* linear system over the
//! multipliers and the `nz + 1` coefficients of `e`. [`farkas_cone`]
//! eliminates the multipliers by (rational) Fourier–Motzkin with those
//! coefficients left symbolic — the cone of every affine form that is
//! non-negative on `P`, which depends on `P` and on nothing else — and
//! [`farkas_substitute`] writes the coefficients of one particular `e`
//! (affine in the unknowns of the scheduling ILP) into that cone.
//! [`farkas_nonneg`] is the two in sequence.
//!
//! # An irredundant cone, by histories
//!
//! Plain Fourier–Motzkin keeps every pairwise combination it makes, and
//! most of them are redundant: the cones of the bundled kernels would
//! hold about three times the rows they need, and every one of them
//! would be substituted on every lookup and carried through every ILP
//! stage. So each inequality of the elimination carries its *history*,
//! the set of original multiplier rows (`λ₀ ≥ 0`, `λ_k ≥ 0`) it is a
//! non-negative combination of. Equality pivots substitute a multiplier
//! away and leave histories alone; after the `k`-th true Fourier–Motzkin
//! step a combination is dropped when its history
//!
//! * has more than `k + 1` members (Kohler's rule), or
//! * contains the history of another row of the step (Chernikov's
//!   rule; of two equal histories the first row stays).
//!
//! A row survives exactly when its combination is an extreme ray of the
//! cone of combinations that cancel the eliminated multipliers, and
//! here — the multipliers are free coordinates of the lifted system, so
//! those rays correspond one to one to facets of the Farkas cone — that
//! makes the result irredundant, which the property tests check with an
//! LP on every row. No LP redundancy pass runs afterwards: on the
//! bundled kernels it costs three times the elimination and removes
//! nothing the rules leave.

use crate::consys::{ConstraintSystem, RowKind};
use crate::error::{MathError, Result};
use crate::num::{gcd_slice, narrow};

/// The cone of affine forms non-negative on `poly`: a homogeneous system
/// over `nz + 1` variables — the coefficient of each of `poly`'s `nz`
/// variables, then the constant term — that `(c, c₀)` satisfies exactly
/// when `c·z + c₀ ≥ 0` everywhere on `poly` (assumed non-empty).
///
/// The multipliers are eliminated by equality pivots where an equality
/// holds one and by Fourier–Motzkin otherwise. Every inequality carries
/// the set of original multiplier rows it combines; after the `k`-th
/// Fourier–Motzkin step a combination whose set has more than `k + 1`
/// members (Kohler) or contains another row's set (Chernikov) is dropped
/// before it is computed. No inequality of the result is implied by the
/// others, so no LP redundancy pass follows (it would cost three times
/// the elimination and find nothing).
///
/// # Errors
///
/// Returns [`MathError::Overflow`] when a combination does not fit
/// `i64`.
///
/// # Examples
///
/// ```
/// use polytops_math::{farkas_cone, ConstraintSystem};
///
/// // P = { z | 0 <= z <= 10 }: c*z + c0 >= 0 on P iff it is at both ends.
/// let mut p = ConstraintSystem::new(1);
/// p.add_ineq(vec![1, 0]);
/// p.add_ineq(vec![-1, 10]);
/// let cone = farkas_cone(&p).unwrap();
/// assert!(cone.contains_point(&[-1, 10]));
/// assert!(!cone.contains_point(&[-1, 5]));
/// ```
pub fn farkas_cone(poly: &ConstraintSystem) -> Result<ConstraintSystem> {
    let nz = poly.num_vars();
    // Columns: [ c (nz) | c₀ | λ0 | λ_1..λ_m ]. Every row is homogeneous,
    // so there is no constant column, and the multiplier eliminated next
    // is always the last column.
    let width = nz + 2 + poly.len();

    // Coefficient matching, one equality per z variable and one for the
    // constant (which also absorbs λ0):
    //   c_i - Σ_k λ_k A[k][i] = 0,   c₀ - λ0 - Σ_k λ_k b_k = 0.
    let mut eqs = Vec::with_capacity(nz + 1);
    for i in 0..=nz {
        let mut row = vec![0i64; width];
        row[i] = 1;
        if i == nz {
            row[nz + 1] = -1; // λ0
        }
        for (k, (_, prow)) in poly.rows().iter().enumerate() {
            row[nz + 2 + k] = prow[i].checked_neg().ok_or(MathError::Overflow)?;
        }
        eqs.push(row);
    }
    // λ0 >= 0 and λ_k >= 0 for inequality rows (free for equalities),
    // each the one member of its own history.
    let columns: Vec<usize> = std::iter::once(nz + 1)
        .chain(
            poly.iter()
                .enumerate()
                .filter(|(_, (kind, _))| *kind == RowKind::Ineq)
                .map(|(k, _)| nz + 2 + k),
        )
        .collect();
    let words = columns.len().div_ceil(64);
    let mut ineqs: Vec<Tracked> = columns
        .iter()
        .enumerate()
        .map(|(bit, &col)| {
            let mut row = vec![0i64; width];
            row[col] = 1;
            let mut history = vec![0u64; words];
            history[bit / 64] = 1 << (bit % 64);
            Tracked {
                row,
                history,
                members: 1,
            }
        })
        .collect();

    let mut fm_steps = 0;
    for var in (nz + 1..width).rev() {
        if let Some(at) = eqs.iter().position(|row| row[var] != 0) {
            let pivot = eqs.remove(at);
            for row in eqs.iter_mut().chain(ineqs.iter_mut().map(|t| &mut t.row)) {
                substitute(row, &pivot)?;
            }
        } else {
            fm_steps += 1;
            ineqs = fm_step(ineqs, fm_steps)?;
        }
        for row in eqs.iter_mut().chain(ineqs.iter_mut().map(|t| &mut t.row)) {
            row.pop();
        }
    }

    let mut cone = ConstraintSystem::new(nz + 1);
    for mut row in eqs {
        row.push(0);
        cone.add_eq(row);
    }
    for Tracked { mut row, .. } in ineqs {
        row.push(0);
        cone.add_ineq(row);
    }
    cone.normalize_rational();
    Ok(cone)
}

/// An inequality of the elimination over the columns not yet eliminated,
/// and its history: one bit per original multiplier row it combines.
struct Tracked {
    row: Vec<i64>,
    history: Vec<u64>,
    members: usize,
}

/// Divides `row` by the gcd of its entries.
fn reduce(row: &mut [i64]) {
    let g = gcd_slice(row);
    if g > 1 {
        row.iter_mut().for_each(|v| *v /= g);
    }
}

/// Substitutes the equality `pivot` for the last column of `row`, in
/// place: the combination of the two that cancels it, scaled by a
/// positive factor so that an inequality keeps its direction.
fn substitute(row: &mut [i64], pivot: &[i64]) -> Result<()> {
    let var = pivot.len() - 1;
    let (a, b) = (i128::from(pivot[var]), i128::from(row[var]));
    if b != 0 {
        let s = a.signum();
        for (r, &p) in row.iter_mut().zip(pivot) {
            *r = narrow(s * (a * i128::from(*r) - b * i128::from(p)))?;
        }
        reduce(row);
    }
    Ok(())
}

/// One Fourier–Motzkin step on the last column, the `steps`-th of the
/// elimination: rows without the column pass, and each pair of opposite
/// signs combines unless the history rules prove the combination
/// redundant. Only the survivors' rows are computed.
fn fm_step(rows: Vec<Tracked>, steps: usize) -> Result<Vec<Tracked>> {
    let Some(var) = rows.first().map(|t| t.row.len() - 1) else {
        return Ok(rows);
    };
    let (mut next, mut pos, mut neg) = (Vec::new(), Vec::new(), Vec::new());
    for t in rows {
        match t.row[var].signum() {
            0 => next.push(t),
            1 => pos.push(t),
            _ => neg.push(t),
        }
    }
    let passed = next.len();
    let mut pairs = Vec::new();
    for (i, p) in pos.iter().enumerate() {
        for (j, q) in neg.iter().enumerate() {
            let union = p.history.iter().zip(&q.history).map(|(x, y)| x | y);
            let members = union.clone().map(|w| w.count_ones() as usize).sum();
            if members <= steps + 1 {
                pairs.push((i, j));
                next.push(Tracked {
                    row: Vec::new(),
                    history: union.collect(),
                    members,
                });
            }
        }
    }
    // Chernikov's rule, over the rows of this step; a passing row is an
    // extreme combination already and never falls to it.
    let redundant: Vec<bool> = (passed..next.len())
        .map(|i| {
            let t = &next[i];
            next.iter().enumerate().any(|(j, o)| {
                j != i
                    && o.members <= t.members
                    && (o.members < t.members || j < i)
                    && o.history.iter().zip(&t.history).all(|(x, y)| x & !y == 0)
            })
        })
        .collect();
    let combined = next.split_off(passed);
    for ((mut t, (i, j)), dropped) in combined.into_iter().zip(pairs).zip(redundant) {
        if dropped {
            continue;
        }
        let (p, q) = (&pos[i].row, &neg[j].row);
        let (a, b) = (i128::from(p[var]), -i128::from(q[var]));
        t.row = p
            .iter()
            .zip(q)
            .map(|(&x, &y)| narrow(b * i128::from(x) + a * i128::from(y)))
            .collect::<Result<_>>()?;
        reduce(&mut t.row);
        next.push(t);
    }
    Ok(next)
}

/// Substitutes `template` for the variables of `cone`: row `i` of
/// `template` (`nilp + 1` entries, the last one the constant) is the
/// affine function of the `nilp` ILP variables that stands for the
/// cone's variable `i`. Returns the cone's rows over the ILP variables.
///
/// # Errors
///
/// Returns [`MathError::Overflow`] when a product or sum overflows `i64`.
///
/// # Panics
///
/// Panics if `template` does not have `cone.num_vars()` rows of
/// `nilp + 1` entries.
pub fn farkas_substitute(
    cone: &ConstraintSystem,
    template: &[Vec<i64>],
    nilp: usize,
) -> Result<ConstraintSystem> {
    let nc = cone.num_vars();
    assert_eq!(template.len(), nc, "template must have nz + 1 rows");
    for row in template {
        assert_eq!(row.len(), nilp + 1, "template row length mismatch");
    }
    let mut out = ConstraintSystem::new(nilp);
    for (kind, crow) in cone.iter() {
        let mut row = vec![0i64; nilp + 1];
        row[nilp] = crow[nc];
        for (&a, trow) in crow.iter().zip(template) {
            if a == 0 {
                continue;
            }
            for (acc, &t) in row.iter_mut().zip(trow) {
                *acc = a
                    .checked_mul(t)
                    .and_then(|p| acc.checked_add(p))
                    .ok_or(MathError::Overflow)?;
            }
        }
        match kind {
            RowKind::Eq => out.add_eq(row),
            RowKind::Ineq => out.add_ineq(row),
        }
    }
    out.normalize_rational();
    Ok(out)
}

/// Linearizes `∀z ∈ poly: e(z) ≥ 0` into constraints over ILP variables.
///
/// * `poly` — the polyhedron `P` over `nz` variables (e.g. a dependence
///   polyhedron over `(it_S, it_R, N)`), assumed non-empty.
/// * `template` — `nz + 1` rows, one per `z`-variable plus one for the
///   constant term of `e`. Row `i` has `nilp + 1` entries: the coefficient
///   of `z_i` in `e` expressed as an affine combination of the `nilp` ILP
///   variables (last entry: constant).
///
/// Returns a [`ConstraintSystem`] over the `nilp` ILP variables that is
/// satisfied exactly by those ILP points for which `e(z) ≥ 0` holds on all
/// of `poly`.
///
/// # Errors
///
/// Returns [`MathError::Overflow`] when Fourier–Motzkin combinations or
/// the substitution overflow `i64`.
///
/// # Panics
///
/// Panics if `template` does not have `poly.num_vars() + 1` rows of equal
/// length.
///
/// # Examples
///
/// ```
/// use polytops_math::{farkas_nonneg, ConstraintSystem};
///
/// // P = { z | 0 <= z <= 10 }, e(z) = y0*z + y1.
/// let mut p = ConstraintSystem::new(1);
/// p.add_ineq(vec![1, 0]);
/// p.add_ineq(vec![-1, 10]);
/// // template rows: coefficient of z is y0, constant of e is y1.
/// let template = vec![
///     vec![1, 0, 0], // coeff(z) = 1*y0 + 0*y1 + 0
///     vec![0, 1, 0], // const(e) = 0*y0 + 1*y1 + 0
/// ];
/// let sys = farkas_nonneg(&p, &template, 2).unwrap();
/// // e >= 0 on [0,10] iff y1 >= 0 and 10*y0 + y1 >= 0.
/// assert!(sys.contains_point(&[1, 0]));   // e = z
/// assert!(sys.contains_point(&[-1, 10])); // e = 10 - z
/// assert!(!sys.contains_point(&[-1, 5])); // e = 5 - z < 0 at z = 10
/// ```
pub fn farkas_nonneg(
    poly: &ConstraintSystem,
    template: &[Vec<i64>],
    nilp: usize,
) -> Result<ConstraintSystem> {
    farkas_substitute(&farkas_cone(poly)?, template, nilp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// e(z0, z1) = y0*z0 + y1*z1 + y2 over the triangle
    /// { z0 >= 0, z1 >= 0, z0 + z1 <= 4 }.
    fn triangle_system() -> ConstraintSystem {
        let mut p = ConstraintSystem::new(2);
        p.add_ineq(vec![1, 0, 0]);
        p.add_ineq(vec![0, 1, 0]);
        p.add_ineq(vec![-1, -1, 4]);
        let template = vec![
            vec![1, 0, 0, 0], // coeff z0 = y0
            vec![0, 1, 0, 0], // coeff z1 = y1
            vec![0, 0, 1, 0], // const   = y2
        ];
        farkas_nonneg(&p, &template, 3).unwrap()
    }

    /// Brute-force ground truth: e >= 0 at the triangle's vertices
    /// (equivalent to e >= 0 on the whole triangle, by convexity).
    fn nonneg_on_triangle(y: &[i64; 3]) -> bool {
        let vertices = [(0i64, 0i64), (4, 0), (0, 4)];
        vertices
            .iter()
            .all(|&(z0, z1)| y[0] * z0 + y[1] * z1 + y[2] >= 0)
    }

    #[test]
    fn matches_vertex_characterization() {
        let sys = triangle_system();
        for y0 in -2..=2 {
            for y1 in -2..=2 {
                for y2 in -2..=10 {
                    let y = [y0, y1, y2];
                    assert_eq!(
                        sys.contains_point(&y),
                        nonneg_on_triangle(&y),
                        "mismatch at {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equality_rows_get_free_multipliers() {
        // P = { z | z == 3 }; e(z) = y0*z + y1 >= 0 iff 3*y0 + y1 >= 0.
        let mut p = ConstraintSystem::new(1);
        p.add_eq(vec![1, -3]);
        let template = vec![vec![1, 0, 0], vec![0, 1, 0]];
        let sys = farkas_nonneg(&p, &template, 2).unwrap();
        assert!(sys.contains_point(&[-1, 3])); // e = 3 - z = 0 on P
        assert!(sys.contains_point(&[1, -3])); // e = z - 3 = 0 on P
        assert!(sys.contains_point(&[2, -6]));
        assert!(!sys.contains_point(&[1, -4])); // e = -1 on P
    }

    #[test]
    fn constant_template_entries() {
        // e(z) = z - 1 with no ILP vars at all: nonneg on {z >= 2}? yes.
        let mut p = ConstraintSystem::new(1);
        p.add_ineq(vec![1, -2]);
        let template = vec![vec![1], vec![-1]]; // nilp = 0
        let sys = farkas_nonneg(&p, &template, 0).unwrap();
        assert!(sys.contains_point(&[]));
        // e(z) = -z nonneg on {z >= 2}? no.
        let template = vec![vec![-1], vec![0]];
        let sys = farkas_nonneg(&p, &template, 0).unwrap();
        assert!(!sys.contains_point(&[]));
    }

    #[test]
    fn a_polyhedron_without_rows_has_the_constant_cone() {
        // Only a constant is non-negative on all of Z²: c = 0, c₀ ≥ 0.
        let cone = farkas_cone(&ConstraintSystem::new(2)).unwrap();
        assert_eq!(
            cone.rows(),
            &[
                (RowKind::Eq, vec![1, 0, 0, 0]),
                (RowKind::Eq, vec![0, 1, 0, 0]),
                (RowKind::Ineq, vec![0, 0, 1, 0]),
            ]
        );
    }

    #[test]
    fn histories_are_not_capped_in_width() {
        // 150 lower bounds z + k ≥ 0 (only z ≥ 0 is tight) and z ≤ 10:
        // 152 multiplier rows, so histories span three words.
        let mut p = ConstraintSystem::new(1);
        for k in 0..150 {
            p.add_ineq(vec![1, k]);
        }
        p.add_ineq(vec![-1, 10]);
        let cone = farkas_cone(&p).unwrap();
        let mut rows: Vec<_> = cone.rows().to_vec();
        rows.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            rows,
            vec![
                (RowKind::Ineq, vec![0, 1, 0]),
                (RowKind::Ineq, vec![10, 1, 0])
            ]
        );
    }

    #[test]
    fn elimination_overflow_is_an_error() {
        // Substituting c_z0 = MAX·λ1 + λ2 into c_z1 = λ1 + MAX·λ2 puts
        // MAX² − 1 on λ1, which no i64 holds.
        let mut p = ConstraintSystem::new(2);
        p.add_ineq(vec![i64::MAX, 1, 0]);
        p.add_ineq(vec![1, i64::MAX, 0]);
        assert_eq!(farkas_cone(&p), Err(MathError::Overflow));
        // i64::MIN has no negation to match coefficients with.
        let mut p = ConstraintSystem::new(1);
        p.add_ineq(vec![i64::MIN, 0]);
        assert_eq!(farkas_cone(&p), Err(MathError::Overflow));
    }

    #[test]
    fn substitution_overflow_is_an_error() {
        // Cone row 2·c + c₀ ≥ 0 with c := 2^62·y: the product is 2^63.
        let mut cone = ConstraintSystem::new(2);
        cone.add_ineq(vec![2, 1, 0]);
        let template = vec![vec![1i64 << 62, 0], vec![0, 0]];
        assert_eq!(
            farkas_substitute(&cone, &template, 1),
            Err(MathError::Overflow)
        );
        // Each product fits, their sum does not.
        let template = vec![vec![1i64 << 61, 0], vec![i64::MAX, 0]];
        assert_eq!(
            farkas_substitute(&cone, &template, 1),
            Err(MathError::Overflow)
        );
        // The same shape within range substitutes exactly.
        let template = vec![vec![3, 1], vec![-1, 4]];
        let sys = farkas_substitute(&cone, &template, 1).unwrap();
        assert_eq!(sys.rows(), &[(RowKind::Ineq, vec![5, 6])]);
    }
}
