//! Affine constraint systems over integer variables, with exact
//! Fourier–Motzkin elimination.
//!
//! A [`ConstraintSystem`] stores rows `a·x + c (>= | ==) 0` over a fixed
//! number of variables. The final column of every row is the constant term.
//! This is the workhorse representation shared by iteration domains,
//! dependence polyhedra and scheduler ILP systems.

use std::collections::HashMap;
use std::fmt;

use crate::error::Result;
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
/// cs.add_ineq(vec![1, 0, 0]);    // i >= 0
/// cs.add_ineq(vec![-1, 0, 9]);   // -i + 9 >= 0
/// cs.add_ineq(vec![-1, 1, 0]);   // j - i >= 0
/// assert_eq!(cs.num_vars(), 2);
/// assert!(cs.contains_point(&[3, 5]));
/// assert!(!cs.contains_point(&[5, 3]));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ConstraintSystem {
    num_vars: usize,
    rows: Vec<(RowKind, Vec<i64>)>,
}

impl ConstraintSystem {
    /// Creates an unconstrained system over `num_vars` variables.
    pub fn new(num_vars: usize) -> ConstraintSystem {
        ConstraintSystem {
            num_vars,
            rows: Vec::new(),
        }
    }

    /// Number of variables (excluding the constant column).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the system has no constraints.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds `row`, interpreted as `a·x + c >= 0` (`row.len() == num_vars + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn add_ineq(&mut self, row: Vec<i64>) {
        assert_eq!(row.len(), self.num_vars + 1, "row length mismatch");
        self.rows.push((RowKind::Ineq, row));
    }

    /// Adds `row`, interpreted as `a·x + c == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn add_eq(&mut self, row: Vec<i64>) {
        assert_eq!(row.len(), self.num_vars + 1, "row length mismatch");
        self.rows.push((RowKind::Eq, row));
    }

    /// Adds every row of `other` (same variable space).
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub fn extend(&mut self, other: &ConstraintSystem) {
        assert_eq!(self.num_vars, other.num_vars, "variable count mismatch");
        self.rows.extend(other.rows.iter().cloned());
    }

    /// Iterates over `(kind, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RowKind, &[i64])> {
        self.rows.iter().map(|(k, r)| (*k, r.as_slice()))
    }

    /// The rows as `(kind, coefficients-with-constant)` tuples.
    pub fn rows(&self) -> &[(RowKind, Vec<i64>)] {
        &self.rows
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
        self.rows.iter().all(|(kind, row)| {
            let v = Self::eval_row(row, point);
            match kind {
                RowKind::Eq => v == 0,
                RowKind::Ineq => v >= 0,
            }
        })
    }

    /// Inserts `count` fresh unconstrained variables at position `at`
    /// (existing rows get zero coefficients there).
    ///
    /// # Panics
    ///
    /// Panics if `at > num_vars`.
    pub fn insert_vars(&mut self, at: usize, count: usize) {
        assert!(at <= self.num_vars);
        for (_, row) in &mut self.rows {
            for _ in 0..count {
                row.insert(at, 0);
            }
        }
        self.num_vars += count;
    }

    /// Appends `count` fresh unconstrained variables (before the constant).
    pub fn append_vars(&mut self, count: usize) {
        self.insert_vars(self.num_vars, count);
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

    fn normalize_impl(&mut self, tighten: bool) -> Normalized {
        // What makes two rows one — an equality's whole row, an
        // inequality's coefficients — with the place of the first such
        // row and the tightest (smallest) constant seen beside them.
        let mut first: HashMap<(RowKind, Vec<i64>), (usize, i64)> =
            HashMap::with_capacity(self.rows.len());
        let n = self.num_vars;
        let given = self.rows.len();
        let mut tightened = false;
        for (kind, mut row) in std::mem::take(&mut self.rows) {
            let g = gcd_slice(&row[..n]);
            if g == 0 {
                // Constant row.
                match kind {
                    RowKind::Eq if row[n] != 0 => {
                        self.rows = vec![(kind, row)];
                        return Normalized::Infeasible;
                    }
                    RowKind::Ineq if row[n] < 0 => {
                        self.rows = vec![(kind, row)];
                        return Normalized::Infeasible;
                    }
                    _ => continue, // trivially true
                }
            }
            if g > 1 {
                match (kind, tighten) {
                    (RowKind::Eq, true) => {
                        if row[n] % g != 0 {
                            // gcd of coefficients does not divide the
                            // constant: no integer solutions.
                            self.rows = vec![(kind, row)];
                            return Normalized::Infeasible;
                        }
                        for v in &mut row {
                            *v /= g;
                        }
                    }
                    (RowKind::Ineq, true) => {
                        for v in row[..n].iter_mut() {
                            *v /= g;
                        }
                        // a·x >= -c  =>  (a/g)·x >= ceil(-c/g), i.e. the
                        // constant becomes floor(c/g).
                        tightened |= row[n] % g != 0;
                        row[n] = floor_div(row[n], g);
                    }
                    (_, false) => {
                        // Rational semantics: only divide when exact.
                        if row[n] % g == 0 {
                            for v in &mut row {
                                *v /= g;
                            }
                        }
                    }
                }
            }
            let cst = match kind {
                RowKind::Eq => 0,
                RowKind::Ineq => row.pop().expect("a row has its constant"),
            };
            let at = first.len();
            let (_, tightest) = first.entry((kind, row)).or_insert((at, cst));
            *tightest = cst.min(*tightest);
        }
        self.rows.resize(first.len(), (RowKind::Eq, Vec::new()));
        for ((kind, mut row), (at, cst)) in first {
            if kind == RowKind::Ineq {
                row.push(cst);
            }
            self.rows[at] = (kind, row);
        }
        if tightened || self.rows.len() < given {
            Normalized::Changed
        } else {
            Normalized::Scaled
        }
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
        let n = self.num_vars;
        let mut out = ConstraintSystem::new(n - 1);

        // Plain Fourier–Motzkin on inequalities. Equalities not involving
        // `var` pass through; equalities involving `var` were handled above.
        let mut pos: Vec<&Vec<i64>> = Vec::new();
        let mut neg: Vec<&Vec<i64>> = Vec::new();
        for (kind, row) in &self.rows {
            match (kind, row[var].signum()) {
                (_, 0) => out.rows.push((*kind, drop_column(row, var))),
                (RowKind::Ineq, 1) => pos.push(row),
                (RowKind::Ineq, -1) => neg.push(row),
                (RowKind::Eq, _) => unreachable!("equality pivot handled above"),
                _ => unreachable!(),
            }
        }
        for p in &pos {
            for q in &neg {
                // p: a x_var + ... >= 0 (a > 0), q: -b x_var + ... >= 0 (b > 0)
                // combine: b * p + a * q
                let a = i128::from(p[var]);
                let b = -i128::from(q[var]);
                let mut nr: Vec<i64> = Vec::with_capacity(n);
                for c in 0..=n {
                    if c == var {
                        continue;
                    }
                    let v = b * i128::from(p[c]) + a * i128::from(q[c]);
                    nr.push(narrow(v)?);
                }
                out.rows.push((RowKind::Ineq, nr));
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
            .rows
            .iter()
            .position(|(k, r)| *k == RowKind::Eq && r[var] != 0)
        else {
            return Ok(None);
        };
        let n = self.num_vars;
        let mut out = ConstraintSystem::new(n - 1);
        let (_, pivot) = &self.rows[pivot_idx];
        let a = pivot[var];
        for (i, (kind, row)) in self.rows.iter().enumerate() {
            if i == pivot_idx {
                continue;
            }
            let b = row[var];
            if b == 0 {
                out.rows.push((*kind, drop_column(row, var)));
                continue;
            }
            // new_row = a * row - b * pivot, scaled so the inequality
            // direction is preserved (multiply by sign(a)).
            let s: i128 = if a > 0 { 1 } else { -1 };
            let mut nr: Vec<i64> = Vec::with_capacity(n);
            for c in 0..=n {
                if c == var {
                    continue;
                }
                let v =
                    s * (i128::from(a) * i128::from(row[c]) - i128::from(b) * i128::from(pivot[c]));
                nr.push(narrow(v)?);
            }
            out.rows.push((*kind, nr));
        }
        let scaled = out.normalize_impl(true) == Normalized::Scaled;
        Ok(Some((out, scaled)))
    }

    /// Eliminates the trailing `count` variables (one at a time, last
    /// first) with integer tightening.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Overflow`](crate::MathError::Overflow) when combined rows overflow.
    pub fn eliminate_last_vars(&self, count: usize) -> Result<ConstraintSystem> {
        let mut cur = self.clone();
        for _ in 0..count {
            cur = cur.eliminate_var(cur.num_vars - 1)?;
        }
        Ok(cur)
    }

    /// Whether normalization exposes a trivially infeasible row.
    pub fn is_trivially_infeasible(&self) -> bool {
        let mut c = self.clone();
        !c.normalize()
    }
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

/// `row` without column `var`.
fn drop_column(row: &[i64], var: usize) -> Vec<i64> {
    let mut r: Vec<i64> = Vec::with_capacity(row.len() - 1);
    r.extend_from_slice(&row[..var]);
    r.extend_from_slice(&row[var + 1..]);
    r
}

impl fmt::Debug for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ConstraintSystem({} vars) {{", self.num_vars)?;
        for (kind, row) in &self.rows {
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
        assert_eq!(cs.rows()[0].1, vec![1, 1]);
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
        assert_eq!(cs.rows()[0].1, vec![1, 3]);
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
    fn substitute_eq_says_whether_its_rows_only_changed_scale() {
        // x == y with 0 <= x and y <= 4: substituting x keeps both rows.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![1, -1, 0]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, -1, 4]);
        let (out, scaled) = cs.substitute_eq(0).unwrap().expect("x has a pivot");
        assert!(scaled);
        assert_eq!(
            out.rows(),
            [(RowKind::Ineq, vec![1, 0]), (RowKind::Ineq, vec![-1, 4])]
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
        assert_eq!(out.rows(), [(RowKind::Ineq, vec![1, -1])]);
        // No equality mentions y once x is gone.
        assert_eq!(out.substitute_eq(0), Ok(None));
    }

    #[test]
    fn insert_vars_shifts_columns() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -2]); // x >= 2
        cs.insert_vars(0, 1);
        assert_eq!(cs.num_vars(), 2);
        assert!(cs.contains_point(&[99, 2]));
        assert!(!cs.contains_point(&[0, 1]));
    }
}
