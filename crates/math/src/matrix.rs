//! The exact rank kernel: a fraction-free row echelon form, and the two
//! matrix questions the scheduler builds on it — the Pluto-style
//! orthogonal complement of the progression constraint and the integral
//! inverse of code generation.
//!
//! Everything here is `i128` arithmetic with the gcd divided out of a
//! row after each combination; a value that outgrows `i128` is
//! [`MathError::Overflow`], never a panic or a wrapped value.

use crate::error::{MathError, Result};
use crate::num::{gcd, narrow};

/// A fraction-free row echelon form, built one row at a time.
///
/// The rows held are in order of their first nonzero column (the
/// pivot), each zero before it and primitive (its entries share no
/// factor). [`Echelon::insert`] reduces a row against them and keeps
/// what is left, so the number of rows held is the rank of every row
/// inserted, and a row joins exactly when it is linearly independent of
/// the rows before it.
///
/// # Examples
///
/// ```
/// use polytops_math::Echelon;
///
/// let mut e = Echelon::new(3);
/// assert_eq!(e.insert(&[1, 2, 0]), Ok(true));
/// assert_eq!(e.insert(&[2, 4, 0]), Ok(false)); // twice the first row
/// assert_eq!(e.independent(&[0, 0, 1]), Ok(true)); // asked, not kept
/// assert_eq!(e.rank(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Echelon {
    cols: usize,
    rows: Vec<(usize, Vec<i128>)>,
}

impl Echelon {
    /// An empty echelon form for rows of `cols` entries.
    pub fn new(cols: usize) -> Echelon {
        Echelon {
            cols,
            rows: Vec::new(),
        }
    }

    /// The number of rows held: the rank of every row inserted.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Reduces `row` against the rows held and keeps what is left, when
    /// something is: returns whether `row` is independent of them.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when a combination outgrows `i128`; the
    /// form is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not as wide as the form.
    pub fn insert(&mut self, row: &[i64]) -> Result<bool> {
        let r = self.reduce(row)?;
        let Some(p) = r.iter().position(|&x| x != 0) else {
            return Ok(false);
        };
        let at = self.rows.partition_point(|(q, _)| *q < p);
        self.rows.insert(at, (p, r));
        Ok(true)
    }

    /// Whether `row` is independent of the rows held, without keeping it.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when a combination outgrows `i128`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not as wide as the form.
    pub fn independent(&self, row: &[i64]) -> Result<bool> {
        Ok(self.reduce(row)?.iter().any(|&x| x != 0))
    }

    /// `row` with every pivot column of the form zeroed, made primitive.
    fn reduce(&self, row: &[i64]) -> Result<Vec<i128>> {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        let mut r: Vec<i128> = row.iter().map(|&c| i128::from(c)).collect();
        make_primitive(&mut r);
        // A later row is zero before its pivot, so it leaves the pivot
        // columns already zeroed as they are.
        for (p, e) in &self.rows {
            eliminate(&mut r, e, *p)?;
        }
        Ok(r)
    }
}

/// `r ← e[p]·r − r[p]·e`, made primitive: zeroes column `p` of `r`
/// (`e[p] ≠ 0`) and keeps zero every column where both are zero.
fn eliminate(r: &mut [i128], e: &[i128], p: usize) -> Result<()> {
    let (a, b) = (e[p], r[p]);
    if b == 0 {
        return Ok(());
    }
    for (x, &y) in r.iter_mut().zip(e) {
        *x = sub(mul(a, *x)?, mul(b, y)?)?;
    }
    make_primitive(r);
    Ok(())
}

/// Divides `r` by the gcd of its entries (a zero row stays zero).
fn make_primitive(r: &mut [i128]) {
    let g = r.iter().fold(0, |g, &x| gcd(g, x));
    if g > 1 {
        r.iter_mut().for_each(|x| *x /= g);
    }
}

/// `a·b`, or [`MathError::Overflow`]. `i128::MIN` counts as overflow, so
/// every value these helpers return has an absolute value.
fn mul(a: i128, b: i128) -> Result<i128> {
    a.checked_mul(b)
        .filter(|&v| v != i128::MIN)
        .ok_or(MathError::Overflow)
}

/// `a − b`, or [`MathError::Overflow`] (as [`mul`]).
fn sub(a: i128, b: i128) -> Result<i128> {
    a.checked_sub(b)
        .filter(|&v| v != i128::MIN)
        .ok_or(MathError::Overflow)
}

/// `a · b`, or [`MathError::Overflow`] (as [`mul`]).
fn dot(a: &[i128], b: &[i128]) -> Result<i128> {
    a.iter().zip(b).try_fold(0i128, |acc, (&x, &y)| {
        acc.checked_add(mul(x, y)?)
            .filter(|&v| v != i128::MIN)
            .ok_or(MathError::Overflow)
    })
}

/// Pluto-style orthogonal complement of the row space of `h`.
///
/// Returns the nonzero rows of the projector `P = I − Hᵀ (H Hᵀ)⁻¹ H`
/// onto the null space of `H`, in row order, each scaled to a primitive
/// integer vector. Any integer vector `v` in the row space of the result
/// satisfies `H v = 0`; together with the rows of `h` the result spans
/// the full space. When `h` has no rows the identity is returned.
///
/// This is exactly the matrix `H⊥` of the paper's progression constraint
/// (Eq. 3): the next schedule row must have a nonzero component in the
/// complement of the rows already found.
///
/// `P` depends only on the row space, so it is computed from the
/// echelon rows in integers: a fraction-free Gram–Schmidt turns them
/// into orthogonal primitive rows `u_i`, and with `D` the lcm of the
/// `|u_i|²`, `D·P = D·I − Σ (D / |u_i|²) · u_i u_iᵀ`.
///
/// # Errors
///
/// [`MathError::Overflow`] when an intermediate value outgrows `i128`
/// or a result entry outgrows `i64`.
///
/// # Examples
///
/// ```
/// use polytops_math::{orthogonal_complement, Echelon};
///
/// let mut h = Echelon::new(3);
/// h.insert(&[1, 0, 0]).unwrap();
/// let perp = orthogonal_complement(&h).unwrap();
/// // Every row of `perp` is orthogonal to (1, 0, 0).
/// for r in &perp {
///     assert_eq!(r[0], 0);
/// }
/// ```
pub fn orthogonal_complement(h: &Echelon) -> Result<Vec<Vec<i64>>> {
    let n = h.cols;
    // Orthogonal rows with their squared norms, and the lcm `d` of those.
    let mut us: Vec<(Vec<i128>, i128)> = Vec::with_capacity(h.rank());
    let mut d: i128 = 1;
    for (_, row) in &h.rows {
        // d·row minus its projection onto each earlier u, all integral
        // because every |u|² divides d.
        let mut v = row.iter().map(|&x| mul(d, x)).collect::<Result<Vec<_>>>()?;
        for (u, norm) in &us {
            let c = mul(dot(row, u)?, d / norm)?;
            for (x, &y) in v.iter_mut().zip(u) {
                *x = sub(*x, mul(c, y)?)?;
            }
        }
        make_primitive(&mut v);
        let norm = dot(&v, &v)?;
        d = mul(d / gcd(d, norm), norm)?;
        us.push((v, norm));
    }
    let mut perp = Vec::with_capacity(n);
    for r in 0..n {
        let mut row = vec![0i128; n];
        row[r] = d;
        for (u, norm) in &us {
            let c = mul(d / norm, u[r])?;
            for (x, &y) in row.iter_mut().zip(u) {
                *x = sub(*x, mul(c, y)?)?;
            }
        }
        make_primitive(&mut row);
        if row.iter().any(|&x| x != 0) {
            perp.push(row.into_iter().map(narrow).collect::<Result<_>>()?);
        }
    }
    Ok(perp)
}

/// The inverse of the square integer matrix `m`, when it is an integer
/// matrix: `Ok(None)` when `m` is singular or its inverse has a
/// fractional entry, that is, unless `m` is unimodular.
///
/// A fraction-free Gauss–Jordan elimination on `[m | I]` leaves row `i`
/// as `[d_i·e_i | x_i]` with no common factor, so the inverse's row
/// `x_i / d_i` is integral exactly when `d_i = ±1`.
///
/// # Errors
///
/// [`MathError::Overflow`] when an intermediate value outgrows `i128`
/// or an inverse entry outgrows `i64`.
///
/// # Panics
///
/// Panics if a row of `m` does not have `m.len()` entries.
pub fn integral_inverse(m: &[Vec<i64>]) -> Result<Option<Vec<Vec<i64>>>> {
    let n = m.len();
    let mut a: Vec<Vec<i128>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            assert_eq!(row.len(), n, "matrix is not square");
            let mut r: Vec<i128> = row.iter().map(|&c| i128::from(c)).collect();
            r.resize(2 * n, 0);
            r[n + i] = 1;
            r
        })
        .collect();
    for c in 0..n {
        let Some(p) = (c..n).find(|&r| a[r][c] != 0) else {
            return Ok(None);
        };
        a.swap(c, p);
        // Every other row is reduced against the pivot row, whose slot
        // stays empty while it is out.
        let pivot = std::mem::take(&mut a[c]);
        for row in a.iter_mut().filter(|row| !row.is_empty()) {
            eliminate(row, &pivot, c)?;
        }
        a[c] = pivot;
    }
    let mut inv = Vec::with_capacity(n);
    for (i, row) in a.iter().enumerate() {
        let d = row[i];
        if d.abs() != 1 {
            return Ok(None);
        }
        inv.push(
            row[n..]
                .iter()
                .map(|&x| narrow(d * x))
                .collect::<Result<_>>()?,
        );
    }
    Ok(Some(inv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echelon(rows: &[&[i64]]) -> Result<Echelon> {
        let mut e = Echelon::new(rows.first().map_or(0, |r| r.len()));
        for row in rows {
            e.insert(row)?;
        }
        Ok(e)
    }

    fn identity(n: usize) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| (0..n).map(|j| i64::from(i == j)).collect())
            .collect()
    }

    #[test]
    fn rank_detects_dependence() {
        assert_eq!(echelon(&[&[1, 2], &[2, 4]]).unwrap().rank(), 1);
        assert_eq!(echelon(&[&[1, 0], &[0, 1]]).unwrap().rank(), 2);
        assert_eq!(echelon(&[&[0, 0, 0], &[0, 0, 0]]).unwrap().rank(), 0);
        let e = echelon(&[&[0, 2, 4]]).unwrap();
        assert_eq!(e.independent(&[0, -1, -2]), Ok(false));
        assert_eq!(e.independent(&[1, 2, 4]), Ok(true));
        assert_eq!(e.rank(), 1);
    }

    #[test]
    fn inverse_round_trip() {
        let m = vec![vec![2, 1], vec![1, 1]];
        let inv = integral_inverse(&m).unwrap().unwrap();
        assert_eq!(inv, vec![vec![1, -1], vec![-1, 2]]);
        let prod: Vec<Vec<i64>> = (0..2)
            .map(|i| {
                (0..2)
                    .map(|j| m[i][0] * inv[0][j] + m[i][1] * inv[1][j])
                    .collect()
            })
            .collect();
        assert_eq!(prod, identity(2));
        assert_eq!(integral_inverse(&[]), Ok(Some(Vec::new())));
    }

    #[test]
    fn inverse_singular_fails() {
        assert_eq!(integral_inverse(&[vec![1, 2], vec![2, 4]]), Ok(None));
        // Invertible over the rationals, but i = c / 2 is no integer.
        assert_eq!(integral_inverse(&[vec![2]]), Ok(None));
        assert_eq!(integral_inverse(&[vec![1, 1], vec![1, -1]]), Ok(None));
    }

    #[test]
    fn ortho_complement_of_e1() {
        let h = echelon(&[&[1, 0, 0]]).unwrap();
        let perp = orthogonal_complement(&h).unwrap();
        // Rows span the (e2, e3) plane.
        let refs: Vec<&[i64]> = perp.iter().map(Vec::as_slice).collect();
        assert_eq!(echelon(&refs).unwrap().rank(), 2);
        for r in &perp {
            assert_eq!(r[0], 0);
        }
    }

    #[test]
    fn ortho_complement_of_diagonal() {
        // H = [1 1]; complement spanned by (1, -1).
        let h = echelon(&[&[1, 1]]).unwrap();
        let perp = orthogonal_complement(&h).unwrap();
        assert_eq!(perp, vec![vec![1, -1], vec![-1, 1]]);
    }

    #[test]
    fn ortho_complement_empty_is_identity() {
        assert_eq!(
            orthogonal_complement(&Echelon::new(3)).unwrap(),
            identity(3)
        );
    }

    #[test]
    fn primitive_normalizes() {
        let mut r = [2, 4, -6];
        make_primitive(&mut r);
        assert_eq!(r, [1, 2, -3]);
        let mut zero = [0, 0];
        make_primitive(&mut zero);
        assert_eq!(zero, [0, 0]);
        let mut one = [-3];
        make_primitive(&mut one);
        assert_eq!(one, [-1]);
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let m = i64::MAX;
        // The third row's reduction multiplies two entries near 2^126.
        let rows = [vec![m, 1, 0], vec![1, m, 1], vec![1, 1, m]];
        let mut e = Echelon::new(3);
        assert_eq!(e.insert(&rows[0]), Ok(true));
        assert_eq!(e.insert(&rows[1]), Ok(true));
        assert_eq!(e.independent(&rows[2]), Err(MathError::Overflow));
        let before = e.clone();
        assert_eq!(e.insert(&rows[2]), Err(MathError::Overflow));
        assert_eq!(e, before);
        assert_eq!(integral_inverse(&rows), Err(MathError::Overflow));
        // A primitive row near i64::MAX: its squared norm outgrows i128.
        let h = echelon(&[&[m, m - 1, m]]).unwrap();
        assert_eq!(orthogonal_complement(&h), Err(MathError::Overflow));
        // An entry exactly at the bounds is no overflow.
        let mut e = Echelon::new(2);
        assert_eq!(e.insert(&[i64::MIN, 0]), Ok(true));
        assert_eq!(e.independent(&[i64::MAX, 0]), Ok(false));
    }
}
