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

use crate::consys::{ConstraintSystem, RowKind};
use crate::error::{MathError, Result};

/// The cone of affine forms non-negative on `poly`: a homogeneous system
/// over `nz + 1` variables — the coefficient of each of `poly`'s `nz`
/// variables, then the constant term — that `(c, c₀)` satisfies exactly
/// when `c·z + c₀ ≥ 0` everywhere on `poly` (assumed non-empty).
///
/// # Errors
///
/// Returns [`MathError::Overflow`] when Fourier–Motzkin combinations
/// overflow `i64`.
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
    let m = poly.len();
    // Variable space: [ c (nz) | c₀ | λ0 | λ_1..λ_m ], plus constant column.
    let nv = nz + 2 + m;
    let mut sys = ConstraintSystem::new(nv);

    // Coefficient matching, one equality per z variable and one for the
    // constant (which also absorbs λ0):
    //   c_i - Σ_k λ_k A[k][i] = 0,   c₀ - λ0 - Σ_k λ_k b_k = 0.
    for i in 0..=nz {
        let mut row = vec![0i64; nv + 1];
        row[i] = 1;
        if i == nz {
            row[nz + 1] = -1; // λ0
        }
        for (k, (_, prow)) in poly.rows().iter().enumerate() {
            row[nz + 2 + k] = prow[i].checked_neg().ok_or(MathError::Overflow)?;
        }
        sys.add_eq(row);
    }
    // λ0 >= 0 and λ_k >= 0 for inequality rows (free for equalities).
    let mut lambda0 = vec![0i64; nv + 1];
    lambda0[nz + 1] = 1;
    sys.add_ineq(lambda0);
    for (k, (kind, _)) in poly.rows().iter().enumerate() {
        if *kind == RowKind::Ineq {
            let mut row = vec![0i64; nv + 1];
            row[nz + 2 + k] = 1;
            sys.add_ineq(row);
        }
    }
    // Eliminate the multipliers (rational semantics: λ, μ are rational).
    let mut cone = sys.eliminate_last_vars_rational(m + 1)?;
    cone.normalize_rational();
    Ok(cone)
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
