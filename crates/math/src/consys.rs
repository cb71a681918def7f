//! Affine constraint systems over integer variables, with exact
//! Fourier–Motzkin elimination.
//!
//! A [`ConstraintSystem`] stores rows `a·x + c (>= | ==) 0` over a fixed
//! number of variables. The final column of every row is the constant term.
//! This is the workhorse representation shared by iteration domains,
//! dependence polyhedra and scheduler ILP systems.
//!
//! The rows live in one row-major buffer beside one kind per row, so a
//! copy, an elimination or a normalization writes whole buffers and
//! allocates no `Vec` per row.

use std::fmt;

use crate::error::Result;
use crate::matrix::{compress, Lattice};
use crate::num::{floor_div, gcd_slice, narrow};

/// Whether a row is an equality or an inequality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// `a·x + c == 0`
    Eq,
    /// `a·x + c >= 0`
    Ineq,
}

/// A conjunction of affine equalities and inequalities over `num_vars`
/// integer variables.
///
/// # Examples
///
/// ```
/// use polytops_math::ConstraintSystem;
///
/// // { (i, j) | 0 <= i <= 9, i <= j }
/// let mut cs = ConstraintSystem::new(2);
/// cs.add_ineq([1, 0, 0]);    // i >= 0
/// cs.add_ineq([-1, 0, 9]);   // -i + 9 >= 0
/// cs.add_ineq([-1, 1, 0]);   // j - i >= 0
/// assert_eq!(cs.num_vars(), 2);
/// assert!(cs.contains_point(&[3, 5]));
/// assert!(!cs.contains_point(&[5, 3]));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ConstraintSystem {
    num_vars: usize,
    /// One kind per row.
    kinds: Vec<RowKind>,
    /// The rows one after another, `num_vars + 1` entries each.
    cells: Vec<i64>,
}

impl ConstraintSystem {
    /// Creates an unconstrained system over `num_vars` variables.
    pub fn new(num_vars: usize) -> ConstraintSystem {
        ConstraintSystem::with_capacity(num_vars, 0)
    }

    /// An unconstrained system over `num_vars` variables with room for
    /// `rows` rows.
    pub fn with_capacity(num_vars: usize, rows: usize) -> ConstraintSystem {
        ConstraintSystem {
            num_vars,
            kinds: Vec::with_capacity(rows),
            cells: Vec::with_capacity(rows * (num_vars + 1)),
        }
    }

    /// Number of variables (excluding the constant column).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the system has no constraints.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Adds `row`, interpreted as `a·x + c >= 0` (`row.len() == num_vars + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn add_ineq(&mut self, row: impl AsRef<[i64]>) {
        self.add_row(RowKind::Ineq, row);
    }

    /// Adds `row`, interpreted as `a·x + c == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn add_eq(&mut self, row: impl AsRef<[i64]>) {
        self.add_row(RowKind::Eq, row);
    }

    /// Adds `row` as a row of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn add_row(&mut self, kind: RowKind, row: impl AsRef<[i64]>) {
        let row = row.as_ref();
        assert_eq!(row.len(), self.num_vars + 1, "row length mismatch");
        self.kinds.push(kind);
        self.cells.extend_from_slice(row);
    }

    /// Adds every row of `other` (same variable space).
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub fn extend(&mut self, other: &ConstraintSystem) {
        assert_eq!(self.num_vars, other.num_vars, "variable count mismatch");
        self.kinds.extend_from_slice(&other.kinds);
        self.cells.extend_from_slice(&other.cells);
    }

    /// Gives back the room the row buffer has beyond its rows, for a
    /// system kept while much else is allocated.
    pub fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.cells.shrink_to_fit();
    }

    /// Iterates over `(kind, row)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (RowKind, &[i64])> + Clone {
        let rows = self.cells.chunks_exact(self.num_vars + 1);
        self.kinds.iter().copied().zip(rows)
    }

    /// Row `i` and its kind.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> (RowKind, &[i64]) {
        let w = self.num_vars + 1;
        (self.kinds[i], &self.cells[i * w..(i + 1) * w])
    }

    /// Evaluates row `r` at an integer point (without the constant column
    /// in `point`).
    fn eval_row(row: &[i64], point: &[i64]) -> i128 {
        let n = row.len() - 1;
        let mut acc = i128::from(row[n]);
        for i in 0..n {
            acc += i128::from(row[i]) * i128::from(point[i]);
        }
        acc
    }

    /// Whether the integer point satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != num_vars`.
    pub fn contains_point(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.num_vars, "point dimension mismatch");
        self.iter().all(|(kind, row)| {
            let v = Self::eval_row(row, point);
            match kind {
                RowKind::Eq => v == 0,
                RowKind::Ineq => v >= 0,
            }
        })
    }

    /// Normalizes every row assuming **integer** variables: divides by the
    /// gcd of the coefficients (tightening inequality constants), removes
    /// duplicates and trivially-true rows, and detects equalities with no
    /// integer solution.
    ///
    /// Returns `false` if a trivially *infeasible* row was found (e.g.
    /// `0 >= 1`), in which case the system is left holding that witness.
    pub fn normalize(&mut self) -> bool {
        self.normalize_impl(true) != Normalized::Infeasible
    }

    /// Normalizes every row assuming **rational** variables: divides by
    /// the gcd of all entries (including the constant), never tightens.
    /// Use this wherever variables may take fractional values, e.g.
    /// Farkas multipliers.
    ///
    /// Returns `false` on a trivially infeasible constant row.
    pub fn normalize_rational(&mut self) -> bool {
        self.normalize_impl(false) != Normalized::Infeasible
    }

    /// Scales each row, then compacts the buffer in place: a row that
    /// is one with an earlier kept row — an equality's whole row, an
    /// inequality's coefficients — merges into it, an inequality
    /// keeping the tightest (smallest) constant of the two, and the
    /// rows kept stay in the order of their first occurrence.
    fn normalize_impl(&mut self, tighten: bool) -> Normalized {
        let n = self.num_vars;
        let w = n + 1;
        let given = self.len();
        let mut table = RowTable::new(given);
        let mut kept = 0;
        let mut tightened = false;
        for i in 0..given {
            let kind = self.kinds[i];
            let row = &mut self.cells[i * w..(i + 1) * w];
            let g = gcd_slice(&row[..n]);
            if g == 0 {
                // Constant row: trivially true, or the witness.
                match kind {
                    RowKind::Eq if row[n] != 0 => return self.keep_only(i),
                    RowKind::Ineq if row[n] < 0 => return self.keep_only(i),
                    _ => continue,
                }
            }
            if g > 1 {
                match (kind, tighten) {
                    (RowKind::Eq, true) => {
                        if row[n] % g != 0 {
                            // gcd of coefficients does not divide the
                            // constant: no integer solutions.
                            return self.keep_only(i);
                        }
                        row.iter_mut().for_each(|v| *v /= g);
                    }
                    (RowKind::Ineq, true) => {
                        row[..n].iter_mut().for_each(|v| *v /= g);
                        // a·x >= -c  =>  (a/g)·x >= ceil(-c/g), i.e. the
                        // constant becomes floor(c/g).
                        tightened |= row[n] % g != 0;
                        row[n] = floor_div(row[n], g);
                    }
                    (_, false) => {
                        // Rational semantics: only divide when exact.
                        if row[n] % g == 0 {
                            row.iter_mut().for_each(|v| *v /= g);
                        }
                    }
                }
            }
            let key = match kind {
                RowKind::Eq => w,
                RowKind::Ineq => n,
            };
            let cells = &self.cells;
            let row = &cells[i * w..i * w + key];
            let same = |j: usize| self.kinds[j] == kind && cells[j * w..j * w + key] == *row;
            match table.find_or_insert(row_hash(kind, row), kept, same) {
                Some(j) => {
                    let cst = self.cells[i * w + n];
                    let tightest = &mut self.cells[j * w + n];
                    *tightest = cst.min(*tightest);
                }
                None => {
                    if kept < i {
                        self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                        self.kinds[kept] = kind;
                    }
                    kept += 1;
                }
            }
        }
        self.truncate(kept);
        if tightened || kept < given {
            Normalized::Changed
        } else {
            Normalized::Scaled
        }
    }

    /// Leaves row `i` the only row, as the witness of infeasibility.
    fn keep_only(&mut self, i: usize) -> Normalized {
        let w = self.num_vars + 1;
        self.cells.copy_within(i * w..(i + 1) * w, 0);
        self.kinds[0] = self.kinds[i];
        self.truncate(1);
        Normalized::Infeasible
    }

    fn truncate(&mut self, rows: usize) {
        self.kinds.truncate(rows);
        self.cells.truncate(rows * (self.num_vars + 1));
    }

    /// Appends `kind` with `row` without column `var`.
    fn push_dropping(&mut self, kind: RowKind, row: &[i64], var: usize) {
        self.kinds.push(kind);
        self.cells.extend_from_slice(&row[..var]);
        self.cells.extend_from_slice(&row[var + 1..]);
    }

    /// Eliminates variable `var` by exact Fourier–Motzkin (using an
    /// equality pivot when available), producing a system over one fewer
    /// variable. The result is normalized with **integer** tightening, so
    /// every variable is read as an integer. (Farkas multipliers are
    /// rational; [`farkas_cone`](crate::farkas_cone) eliminates them on
    /// its own.)
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Overflow`](crate::MathError::Overflow) when combined rows overflow.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn eliminate_var(&self, var: usize) -> Result<ConstraintSystem> {
        // Prefer an equality pivot: exact substitution, no blowup.
        if let Some((out, _)) = self.substitute_eq(var)? {
            return Ok(out);
        }
        // Plain Fourier–Motzkin on inequalities. Equalities not involving
        // `var` pass through; equalities involving `var` were handled above.
        let sign = |s: i64| self.iter().filter(move |(_, row)| row[var].signum() == s);
        let (pos, neg) = (sign(1).count(), sign(-1).count());
        let n = self.num_vars;
        let mut out = ConstraintSystem::with_capacity(n - 1, self.len() - pos - neg + pos * neg);
        for (kind, row) in sign(0) {
            out.push_dropping(kind, row, var);
        }
        for (_, p) in sign(1) {
            for (_, q) in sign(-1) {
                // p: a x_var + ... >= 0 (a > 0), q: -b x_var + ... >= 0 (b > 0)
                // combine: b * p + a * q
                let a = i128::from(p[var]);
                let b = -i128::from(q[var]);
                out.kinds.push(RowKind::Ineq);
                for c in (0..=n).filter(|&c| c != var) {
                    let v = b * i128::from(p[c]) + a * i128::from(q[c]);
                    out.cells.push(narrow(v)?);
                }
            }
        }
        out.normalize();
        Ok(out)
    }

    /// The equality-pivot half of [`eliminate_var`]: eliminates `var` by
    /// substituting the first equality that mentions it, or returns
    /// `None` when no equality does. The result is normalized as
    /// [`eliminate_var`]'s is.
    ///
    /// The flag says whether normalizing changed nothing but scale:
    /// every row other than the pivot is still there, in order, as a
    /// positive multiple of its substituted form, with none merged,
    /// dropped or tightened. The substitution maps the pivot's
    /// hyperplane one to one onto the projection, so such a result has
    /// exactly the rational implications between its rows that `self`
    /// had between theirs.
    ///
    /// [`eliminate_var`]: ConstraintSystem::eliminate_var
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Overflow`](crate::MathError::Overflow) when combined rows overflow.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn substitute_eq(&self, var: usize) -> Result<Option<(ConstraintSystem, bool)>> {
        assert!(var < self.num_vars);
        let Some(pivot_idx) = self
            .iter()
            .position(|(k, r)| k == RowKind::Eq && r[var] != 0)
        else {
            return Ok(None);
        };
        let n = self.num_vars;
        let mut out = ConstraintSystem::with_capacity(n - 1, self.len() - 1);
        let (_, pivot) = self.row(pivot_idx);
        let a = pivot[var];
        for (i, (kind, row)) in self.iter().enumerate() {
            if i == pivot_idx {
                continue;
            }
            let b = row[var];
            if b == 0 {
                out.push_dropping(kind, row, var);
                continue;
            }
            // new_row = a * row - b * pivot, scaled so the inequality
            // direction is preserved (multiply by sign(a)).
            let s: i128 = if a > 0 { 1 } else { -1 };
            out.kinds.push(kind);
            for c in (0..=n).filter(|&c| c != var) {
                let v =
                    s * (i128::from(a) * i128::from(row[c]) - i128::from(b) * i128::from(pivot[c]));
                out.cells.push(narrow(v)?);
            }
        }
        let scaled = out.normalize_impl(true) == Normalized::Scaled;
        Ok(Some((out, scaled)))
    }

    /// Solves the equalities over the integers and rewrites the
    /// inequalities in the free variables they leave: the first step of
    /// Pugh's Omega test, and isl's variable compression.
    ///
    /// The equality rows go to Hermite normal form by unimodular column
    /// operations, which the inequalities take too. When the equalities
    /// have no integer solution the answer is [`Compressed::Empty`].
    /// Otherwise their integer solutions are exactly `x = x₀ + U·z` over
    /// integer `z`, each for one `z` only, and the inequalities become
    /// rows over `z` ([`Lattice::system`]): the system's integer points
    /// map one to one onto the integer points of those rows. With no
    /// equalities, `U` is the identity and the rows are the inequalities
    /// as given. Nothing is normalized.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`](crate::MathError::Overflow) when a value
    /// outgrows `i128` on the way or an entry of the result outgrows
    /// `i64`: nothing is proven then.
    ///
    /// # Examples
    ///
    /// ```
    /// use polytops_math::{Compressed, ConstraintSystem};
    ///
    /// // 2x == 3y with 0 <= x <= 5: x = 3z, y = 2z for integer z.
    /// let mut cs = ConstraintSystem::new(2);
    /// cs.add_eq(vec![2, -3, 0]);
    /// cs.add_ineq(vec![1, 0, 0]);
    /// cs.add_ineq(vec![-1, 0, 5]);
    /// let Ok(Compressed::Lattice(lattice)) = cs.compress_equalities() else {
    ///     panic!("2x == 3y has integer solutions");
    /// };
    /// let (x0, u, system) = (lattice.x0(), lattice.u(), lattice.system());
    /// assert_eq!(system.num_vars(), 1);
    /// for z in -1..=3 {
    ///     let x: Vec<i64> = (0..2).map(|j| x0[j] + u[j][0] * z).collect();
    ///     assert_eq!(cs.contains_point(&x), system.contains_point(&[z]));
    /// }
    /// // 2x == 2y + 1 has none.
    /// let mut odd = ConstraintSystem::new(2);
    /// odd.add_eq(vec![2, -2, -1]);
    /// assert_eq!(odd.compress_equalities(), Ok(Compressed::Empty));
    /// ```
    pub fn compress_equalities(&self) -> Result<Compressed> {
        Ok(match compress(self.iter(), self.num_vars)? {
            Some(lattice) => Compressed::Lattice(lattice),
            None => Compressed::Empty,
        })
    }
}

/// What [`ConstraintSystem::compress_equalities`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compressed {
    /// The equalities have no integer solution: the system is empty.
    Empty,
    /// The integer solutions of the equalities, and the inequalities
    /// over them.
    Lattice(Lattice),
}

/// What normalizing a system did to its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Normalized {
    /// A trivially infeasible row, now the system's only row.
    Infeasible,
    /// Every row kept, in order, divided by a factor that leaves its
    /// rational solutions as they were.
    Scaled,
    /// A row merged into another, dropped as trivially true, or
    /// tightened to its integer points.
    Changed,
}

/// A row's kind and the entries that make two rows one, hashed.
fn row_hash(kind: RowKind, key: &[i64]) -> u64 {
    key.iter().fold(kind as u64, |h, &v| {
        (h.rotate_left(5) ^ v as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// The rows a normalization keeps, by index, in an open-addressed table
/// of at least twice as many slots as rows; a system of up to 32 rows
/// keeps it on the stack.
struct RowTable {
    inline: [u32; 64],
    heap: Vec<u32>,
    /// Bits of the hash that pick a slot.
    bits: u32,
}

impl RowTable {
    const EMPTY: u32 = u32::MAX;

    fn new(rows: usize) -> RowTable {
        let slots = (2 * rows).next_power_of_two().max(2);
        let heap = if slots > 64 {
            vec![Self::EMPTY; slots]
        } else {
            Vec::new()
        };
        RowTable {
            inline: [Self::EMPTY; 64],
            heap,
            bits: slots.trailing_zeros(),
        }
    }

    /// The kept row `same` says equals the one hashed to `hash`, or
    /// `None` after recording `next` as that row's index.
    fn find_or_insert(
        &mut self,
        hash: u64,
        next: usize,
        same: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let slots = if self.heap.is_empty() {
            &mut self.inline[..1 << self.bits]
        } else {
            &mut self.heap[..]
        };
        let mask = slots.len() - 1;
        let mut at = (hash >> (64 - self.bits)) as usize;
        loop {
            match slots[at] {
                Self::EMPTY => {
                    slots[at] = next as u32;
                    return None;
                }
                j if same(j as usize) => return Some(j as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }
}

impl fmt::Debug for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ConstraintSystem({} vars) {{", self.num_vars)?;
        for (kind, row) in self.iter() {
            let op = match kind {
                RowKind::Eq => "==",
                RowKind::Ineq => ">=",
            };
            let mut terms: Vec<String> = Vec::new();
            for (i, &c) in row[..self.num_vars].iter().enumerate() {
                if c != 0 {
                    terms.push(format!("{c}*x{i}"));
                }
            }
            let cst = row[self.num_vars];
            if cst != 0 || terms.is_empty() {
                terms.push(cst.to_string());
            }
            writeln!(f, "  {} {} 0", terms.join(" + "), op)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box2d() -> ConstraintSystem {
        // 0 <= x <= 4, 0 <= y <= 3
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 4]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 3]);
        cs
    }

    #[test]
    fn contains_point_checks_all_rows() {
        let cs = box2d();
        assert!(cs.contains_point(&[0, 0]));
        assert!(cs.contains_point(&[4, 3]));
        assert!(!cs.contains_point(&[5, 0]));
        assert!(!cs.contains_point(&[0, -1]));
    }

    #[test]
    fn normalize_divides_by_gcd_and_tightens() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, 3]); // 2x + 3 >= 0  =>  x >= -3/2  =>  x + 1 >= 0
        assert!(cs.normalize());
        assert_eq!(cs.row(0), (RowKind::Ineq, &[1, 1][..]));
    }

    #[test]
    fn normalize_detects_infeasible_constant() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![0, -1]); // -1 >= 0
        assert!(!cs.normalize());
    }

    #[test]
    fn normalize_detects_non_integral_equality() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_eq(vec![2, 1]); // 2x + 1 == 0 has no integer solution
        assert!(!cs.normalize());
    }

    #[test]
    fn normalize_dedups_and_subsumes() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, 5]);
        cs.add_ineq(vec![1, 3]); // tighter
        cs.add_ineq(vec![1, 3]); // duplicate
        assert!(cs.normalize());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.row(0), (RowKind::Ineq, &[1, 3][..]));
    }

    #[test]
    fn eliminate_projects_box() {
        let cs = box2d();
        let proj = cs.eliminate_var(1).unwrap(); // drop y
        assert_eq!(proj.num_vars(), 1);
        assert!(proj.contains_point(&[0]));
        assert!(proj.contains_point(&[4]));
        assert!(!proj.contains_point(&[5]));
        assert!(!proj.contains_point(&[-1]));
    }

    #[test]
    fn eliminate_uses_equality_pivot() {
        // x == y, 0 <= x <= 4; eliminating y keeps 0 <= x <= 4.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![1, -1, 0]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 4]);
        let proj = cs.eliminate_var(1).unwrap();
        assert!(proj.contains_point(&[0]));
        assert!(proj.contains_point(&[4]));
        assert!(!proj.contains_point(&[5]));
    }

    #[test]
    fn eliminate_couples_pos_neg() {
        // x <= y <= x + 2, 1 <= y <= 3; eliminating y: x >= -1 and x <= 2... wait
        // y >= x  ->  -x + y >= 0 ; y <= x+2 -> x - y + 2 >= 0; y>=1; y<=3
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![-1, 1, 0]);
        cs.add_ineq(vec![1, -1, 2]);
        cs.add_ineq(vec![0, 1, -1]);
        cs.add_ineq(vec![0, -1, 3]);
        let proj = cs.eliminate_var(1).unwrap();
        // Feasible x: y in [max(x,1), min(x+2,3)] nonempty => x <= 3 and x >= -1.
        assert!(proj.contains_point(&[-1]));
        assert!(proj.contains_point(&[3]));
        assert!(!proj.contains_point(&[4]));
        assert!(!proj.contains_point(&[-2]));
    }

    #[test]
    fn eliminate_reports_overflow_on_an_i64_min_coefficient() {
        // x0 + x2 >= 0 and i64::MIN * x0 + x1 >= 0 project to
        // x1 + 2^63 * x2 >= 0, which no i64 row can hold. Negating the
        // coefficient before widening it would wrap to
        // x1 - 2^63 * x2 >= 0, which excludes the feasible (-5, 1).
        let mut cs = ConstraintSystem::new(3);
        cs.add_ineq(vec![1, 0, 1, 0]);
        cs.add_ineq(vec![i64::MIN, 1, 0, 0]);
        assert_eq!(cs.eliminate_var(0), Err(crate::MathError::Overflow));
    }

    #[test]
    fn compress_equalities_reports_overflow_past_i64() {
        // Two equalities with entries near i64::MAX: the one direction
        // they leave free is their cross product, about 2^126 long.
        let m = i64::MAX;
        let mut cs = ConstraintSystem::new(3);
        cs.add_eq(vec![m, m - 1, 0, 0]);
        cs.add_eq(vec![0, m - 2, m - 3, 0]);
        assert_eq!(cs.compress_equalities(), Err(crate::MathError::Overflow));
    }

    #[test]
    fn compress_equalities_solves_a_lattice() {
        // 2^30 t == (2^30 - 1) i: t = (2^30 - 1) k, i = 2^30 k, one free
        // variable, with 0 <= t, i and i <= 2^31 leaving k in 0..=2.
        let k = 1i64 << 30;
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![k, 1 - k, 0]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 2 * k]);
        let Ok(Compressed::Lattice(lattice)) = cs.compress_equalities() else {
            panic!("the equality has integer solutions");
        };
        let (x0, u, mut system) = (lattice.x0(), lattice.u(), lattice.system());
        assert_eq!((x0, system.num_vars()), (vec![0, 0], 1));
        let sign = u[1][0].signum();
        assert_eq!(u, [[sign * (k - 1)], [sign * k]]);
        assert!(system.normalize());
        let points: Vec<i64> = (-5..=5).filter(|&z| system.contains_point(&[z])).collect();
        assert_eq!(points, if sign > 0 { [0, 1, 2] } else { [-2, -1, 0] });
    }

    #[test]
    fn substitute_eq_says_whether_its_rows_only_changed_scale() {
        // x == y with 0 <= x and y <= 4: substituting x keeps both rows.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![1, -1, 0]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, -1, 4]);
        let (out, scaled) = cs.substitute_eq(0).unwrap().expect("x has a pivot");
        assert!(scaled);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            [(RowKind::Ineq, &[1, 0][..]), (RowKind::Ineq, &[-1, 4][..])]
        );
        // 0 <= y as well: it merges with what 0 <= x became.
        let mut merging = cs.clone();
        merging.add_ineq(vec![0, 1, 0]);
        assert_eq!(
            merging.substitute_eq(0).unwrap().map(|(_, s)| s),
            Some(false)
        );
        // x == 2y with x >= 1: 2y - 1 >= 0 tightens to y - 1 >= 0.
        let mut tightening = ConstraintSystem::new(2);
        tightening.add_eq(vec![1, -2, 0]);
        tightening.add_ineq(vec![1, 0, -1]);
        let (out, scaled) = tightening.substitute_eq(0).unwrap().expect("pivot");
        assert!(!scaled);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            [(RowKind::Ineq, &[1, -1][..])]
        );
        // No equality mentions y once x is gone.
        assert_eq!(out.substitute_eq(0), Ok(None));
    }
}
