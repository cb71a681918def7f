//! The exact rank kernel: a fraction-free row echelon form, and the two
//! matrix questions the scheduler builds on it — the Pluto-style
//! orthogonal complement of the progression constraint and the integral
//! inverse of code generation — beside the Hermite form that solves a
//! system's equalities over the integers ([`Lattice`], behind
//! [`ConstraintSystem::compress_equalities`]).
//!
//! Everything here is `i128` arithmetic; a value that outgrows `i128` is
//! [`MathError::Overflow`], never a panic or a wrapped value.

use crate::consys::{ConstraintSystem, RowKind};
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
/// every value these helpers return has an absolute value. Two factors
/// that fit `i64` take the one-instruction widening product, which
/// cannot overflow.
fn mul(a: i128, b: i128) -> Result<i128> {
    if let (Ok(x), Ok(y)) = (i64::try_from(a), i64::try_from(b)) {
        return Ok(i128::from(x) * i128::from(y));
    }
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

/// The integer solutions `x = x₀ + U·z` of a system's equalities, each
/// for exactly one integer `z`, and the system's inequalities rewritten
/// over `z`. Read out on demand: deciding that one of those rows is
/// trivially infeasible builds nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    /// How many variables `x` has.
    num_vars: usize,
    /// How many variables `z` has.
    free: usize,
    /// Rows over `z`, row-major, each `free` coefficients and a constant:
    /// the inequalities in their order, then one row per `x_j`, row `j`
    /// of `U` with entry `j` of `x₀` as its constant. Every entry fits
    /// `i64`.
    rows: Vec<i128>,
}

impl Lattice {
    /// How many rows are inequalities: the rest are `x₀ + U·z`'s.
    fn inequalities(&self) -> usize {
        self.rows.len() / (self.free + 1) - self.num_vars
    }

    /// Every row over `z`, as `i64`s.
    fn rows_i64(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        // Every entry was checked to fit when the lattice was built.
        (self.rows.chunks(self.free + 1)).map(|row| row.iter().map(|&v| v as i64).collect())
    }

    /// `x₀`, the solution at `z = 0`.
    pub fn x0(&self) -> Vec<i64> {
        let rows = self.rows_i64().skip(self.inequalities());
        rows.map(|row| row[self.free]).collect()
    }

    /// `U` by rows: one row per variable `x_j`, one entry per free
    /// variable `z_k`.
    pub fn u(&self) -> Vec<Vec<i64>> {
        let rows = self.rows_i64().skip(self.inequalities());
        rows.map(|row| row[..self.free].to_vec()).collect()
    }

    /// The inequalities over `z`, in their order, and no equality.
    pub fn system(&self) -> ConstraintSystem {
        let k = self.free;
        let mut system = ConstraintSystem::with_capacity(k, self.inequalities());
        let mut row = vec![0; k + 1];
        for from in self.rows.chunks(k + 1).take(self.inequalities()) {
            // Every entry was checked to fit when the lattice was built.
            row.iter_mut().zip(from).for_each(|(to, &v)| *to = v as i64);
            system.add_ineq(&row);
        }
        system
    }

    /// Whether an inequality became `0 ≥ c` with `c < 0`: the system is
    /// then empty.
    pub fn trivially_infeasible(&self) -> bool {
        let k = self.free;
        (self.rows.chunks(k + 1).take(self.inequalities()))
            .any(|row| row[k] < 0 && row[..k].iter().all(|&v| v == 0))
    }
}

/// Solves the equalities among `rows` (over `n` variables, the constant
/// last) over the integers and rewrites the inequalities over the free
/// variables they leave: `None` when the equalities have no integer
/// solution. Every entry of the lattice fits `i64`.
///
/// The equality rows go to Hermite normal form `H = A·W` by unimodular
/// column operations — an extended gcd per pair of entries, or a plain
/// `col_q ← col_q − f·col_p` when the pivot divides the entry, with a
/// unit entry taken as the pivot where a row has one — and `W` starts as
/// the identity: `H` is lower triangular with a positive diagonal and
/// every entry left of it reduced below it. `x = W·y` maps integer `y`
/// one to one onto integer `x`, and `H·y = −c` fixes `y` on the pivot
/// columns by forward substitution — integrally, or there is no integer
/// solution; a row that gets no pivot must then hold already. The rest
/// of `y` is `z`. The same operations run on the inequalities and on
/// the rows of `W` itself, which end as `x₀` and `U`. Last, `U`'s
/// columns are shortened ([`shorten`]), with the rows rewritten to
/// match.
///
/// # Errors
///
/// [`MathError::Overflow`] when a value outgrows `i128`, or an entry of
/// the lattice `i64`.
pub(crate) fn compress<'a>(
    rows: impl ExactSizeIterator<Item = (RowKind, &'a [i64])> + Clone,
    n: usize,
) -> Result<Option<Lattice>> {
    let width = n + 1;
    // The equalities, the inequalities, then the rows of W: every row an
    // affine form over y, so every column op is one pass over `m`.
    let mut m: Vec<i128> = Vec::with_capacity((rows.len() + n) * width);
    let equalities = rows.clone().filter(|(kind, _)| *kind == RowKind::Eq);
    let inequalities = rows.filter(|(kind, _)| *kind == RowKind::Ineq);
    let ne = equalities.clone().count();
    for (_, row) in equalities.chain(inequalities) {
        m.extend(row.iter().map(|&v| i128::from(v)));
    }
    m.extend((0..n * width).map(|e| i128::from(e % width == e / width)));
    let total = m.len() / width;
    let mut y: Vec<i128> = Vec::with_capacity(ne.min(n));
    for e in 0..ne {
        let k = y.len();
        let at = |c: usize| e * width + c;
        // Rows above `e` are zero from column `k` on: ops on columns
        // `k..n` touch rows `e..` only.
        let pivot = (k..n).find(|&c| m[at(c)].unsigned_abs() == 1);
        let Some(p) = pivot.or_else(|| (k..n).find(|&c| m[at(c)] != 0)) else {
            // No pivot left: the row holds on the y fixed so far, or never.
            if add(dot(&m[at(0)..at(k)], &y)?, m[at(n)])? != 0 {
                return Ok(None);
            }
            continue;
        };
        if p != k {
            (e..total).for_each(|r| m.swap(r * width + k, r * width + p));
        }
        for q in k + 1..n {
            let (a, b) = (m[at(k)], m[at(q)]);
            if b != 0 {
                ColumnOp::clearing(a, b)?.apply(&mut m[e * width..], width, k, q)?;
            }
        }
        if m[at(k)] < 0 {
            (e..total).for_each(|r| m[r * width + k] = -m[r * width + k]);
        }
        let d = m[at(k)];
        for j in 0..k {
            let f = if d == 1 {
                m[at(j)]
            } else {
                m[at(j)].div_euclid(d)
            };
            if f != 0 {
                ColumnOp::taking(f).apply(&mut m[e * width..], width, j, k)?;
            }
        }
        // m[e][..k]·y + d·y_k + c_e == 0.
        let rest = add(dot(&m[at(0)..at(k)], &y)?, m[at(n)])?;
        if rest % d != 0 {
            return Ok(None);
        }
        y.push(-rest / d);
    }
    // Every other row over z, its constant taking the fixed y, written
    // over the rows already read.
    let (rank, free) = (y.len(), n - y.len());
    for r in ne..total {
        let row = r * width;
        let constant = add(dot(&m[row..row + rank], &y)?, m[row + n])?;
        let to = (r - ne) * (free + 1);
        m.copy_within(row + rank..row + n, to);
        m[to + free] = constant;
    }
    m.truncate((total - ne) * (free + 1));
    shorten(&mut m, free, total - ne - n)?;
    m.iter().try_for_each(|&v| narrow(v).map(drop))?;
    Ok(Some(Lattice {
        num_vars: n,
        free,
        rows: m,
    }))
}

/// Shortens the lattice basis held in `rows`, the rows over `z` of
/// [`compress`] (`free` coefficients and a constant each), of which the
/// ones after the first `skip` are those of `x = x₀ + U·z`: the columns
/// of `U` pairwise, then `x₀` against them, leaving the lattice and the
/// points `x₀ + U·z` as they were. A column `v` becomes `v − f·b` for
/// another column `b`, with `f` the integer nearest `⟨v, b⟩ / ⟨b, b⟩`,
/// as long as that makes some vector strictly shorter (Lagrange's
/// reduction, in every pair); every row takes the same column
/// operation, so each still says what it said over the new `z`. A
/// solution lattice such as `i = 2³¹·u − i'` then has a short basis,
/// and the rows rewritten over it do not cut a thin strip that branch
/// and bound cannot walk. A basis of entries 0 and ±1 is left as it is.
fn shorten(rows: &mut [i128], free: usize, skip: usize) -> Result<()> {
    let width = free + 1;
    let basis = skip * width;
    if rows[basis..]
        .chunks(width)
        .all(|r| r[..free].iter().all(|x| x.unsigned_abs() <= 1))
    {
        return Ok(());
    }
    // ⟨column a, column b⟩ over the rows of U; `free` is x₀.
    let dot_cols = |rows: &[i128], a: usize, b: usize| -> Result<i128> {
        (rows[basis..].chunks(width)).try_fold(0, |acc, r| add(acc, mul(r[a], r[b])?))
    };
    let mut norms = (0..free)
        .map(|c| dot_cols(rows, c, c))
        .collect::<Result<Vec<_>>>()?;
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..free {
            for b in (0..free).filter(|&b| b != v) {
                if let Some(f) = nearest(dot_cols(rows, v, b)?, norms[b])? {
                    ColumnOp::taking(f).apply(rows, width, v, b)?;
                    norms[v] = dot_cols(rows, v, v)?;
                    changed = true;
                }
            }
        }
    }
    // `x₀ − f·b`, which adds `f` to `z_b`: each row's constant loses `f`
    // times its `z_b` coefficient.
    changed = true;
    while changed {
        changed = false;
        for (b, &norm) in norms.iter().enumerate() {
            if let Some(f) = nearest(dot_cols(rows, free, b)?, norm)? {
                ColumnOp::taking(f).apply(rows, width, free, b)?;
                changed = true;
            }
        }
    }
    Ok(())
}

/// The integer nearest `num / den` (`den > 0`), when taking that many
/// `b` off a `v` with `⟨v, b⟩ = num` and `⟨b, b⟩ = den` shortens `v`:
/// when `2|num| > den`.
fn nearest(num: i128, den: i128) -> Result<Option<i128>> {
    if num.unsigned_abs() <= den.unsigned_abs() / 2 {
        return Ok(None);
    }
    Ok(Some(add(mul(2, num)?, den)?.div_euclid(mul(2, den)?)))
}

/// A unimodular operation on two columns `(i, q)` of a row-major matrix:
/// `col_i ← s·col_i + t·col_q`, `col_q ← u·col_i + v·col_q`.
struct ColumnOp {
    s: i128,
    t: i128,
    u: i128,
    v: i128,
}

impl ColumnOp {
    /// The op that clears the entry `b ≠ 0` of a row against its entry
    /// `a`: when `a` divides `b`, `col_q ← col_q − (b/a)·col_i`;
    /// otherwise, with `s·a + t·b = g` the extended gcd,
    /// `col_i ← s·col_i + t·col_q` and `col_q ← −(b/g)·col_i + (a/g)·col_q`.
    /// Either has determinant 1.
    fn clearing(a: i128, b: i128) -> Result<ColumnOp> {
        if a != 0 && b % a == 0 {
            return Ok(ColumnOp {
                s: 1,
                t: 0,
                u: -(b / a),
                v: 1,
            });
        }
        let (g, s, t) = ext_gcd(a, b)?;
        Ok(ColumnOp {
            s,
            t,
            u: -(b / g),
            v: a / g,
        })
    }

    /// `col_i ← col_i − f·col_q`.
    fn taking(f: i128) -> ColumnOp {
        ColumnOp {
            s: 1,
            t: -f,
            u: 0,
            v: 1,
        }
    }

    /// Applies the op to columns `i` and `q` of every row of `m`, rows
    /// `width` entries wide.
    fn apply(&self, m: &mut [i128], width: usize, i: usize, q: usize) -> Result<()> {
        for row in m.chunks_mut(width) {
            let (x, z) = (row[i], row[q]);
            if x != 0 || z != 0 {
                row[i] = add(mul(self.s, x)?, mul(self.t, z)?)?;
                row[q] = add(mul(self.u, x)?, mul(self.v, z)?)?;
            }
        }
        Ok(())
    }
}

/// `a + b`, or [`MathError::Overflow`] (as [`mul`]).
fn add(a: i128, b: i128) -> Result<i128> {
    a.checked_add(b)
        .filter(|&v| v != i128::MIN)
        .ok_or(MathError::Overflow)
}

/// `(g, s, t)` with `g = gcd(a, b) > 0` and `s·a + t·b = g`, for `b ≠ 0`:
/// the extended Euclidean algorithm, whose coefficients never outgrow
/// `|a|` and `|b|`.
fn ext_gcd(a: i128, b: i128) -> Result<(i128, i128, i128)> {
    let (mut r0, mut r1) = (a, b);
    let (mut s0, mut s1) = (1, 0);
    let (mut t0, mut t1) = (0, 1);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, sub(r0, mul(q, r1)?)?);
        (s0, s1) = (s1, sub(s0, mul(q, s1)?)?);
        (t0, t1) = (t1, sub(t0, mul(q, t1)?)?);
    }
    Ok(if r0 < 0 {
        (-r0, -s0, -t0)
    } else {
        (r0, s0, t0)
    })
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
