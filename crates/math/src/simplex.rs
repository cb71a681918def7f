//! Exact simplex on an integer tableau: a dual-simplex phase 1 from the
//! slack basis, a primal phase 2.
//!
//! Variables are unrestricted in sign (the standard-form translation
//! `x = x⁺ − x⁻` happens internally); constraints come from a
//! [`ConstraintSystem`]. The solver is exact — no floating point — so
//! feasibility and optimality answers are decisions, not approximations.
//!
//! No column exists only to make a starting basis. Every inequality
//! starts with its own slack basic, which is a basis whatever the
//! right-hand sides are; the rows `x = 0` violates are then repaired by
//! the dual-simplex loop that also restores feasibility after a pinned
//! equality ([`IncrementalLp::pin_eq`]), and the system's equalities
//! enter the way pins do. Phase 1 and pins are one mechanism — and so is
//! a question asked of a solved system: [`IncrementalLp::push_ineq`]
//! gives a new inequality its slack, reduces the row by the basis and
//! lets the same dual loop repair it, and [`IncrementalLp::snapshot`] /
//! [`IncrementalLp::rollback`] take the row back, so a family of
//! questions that differ from one base system by a row is asked of one
//! tableau (`docs/SOLVER.md`, lever 3). A lexmin stage ends with
//! neither a row nor a pivot: [`IncrementalLp::minimize_onto_face`]
//! zeroes, where they stand, the slack columns that are zero on the
//! objective's optimal face (lever 1).
//!
//! An implication question stops where its answer is known (lever 4).
//! [`IncrementalLp::implies`] runs the primal loop only until the row's
//! value goes negative, which refutes it, and to the optimum only to
//! prove it implied. [`IncrementalLp::redundant`] — is an inequality
//! implied by the others? — first reads the current vertex: a tight
//! row whose slack can go below zero with every other value staying
//! non-negative is refuted there, with no pivot and no snapshot.
//! Otherwise the row is dropped along the edge that violates it and
//! asked of the rest.
//!
//! Every tableau row is a vector of `i64` numerators over one positive
//! `i64` denominator of its own, kept free of common factors; products
//! are formed in `i128` and narrowed back. The rational value of every
//! cell — hence every sign test, pricing choice, ratio tie-break and
//! vertex — is what a tableau of gcd-normalized rationals would hold. A
//! value that does not fit is [`MathError::Overflow`], never a panic
//! and never a wrapped number. `tests/reference` is an independent
//! two-phase primal simplex on such rationals; the proptests hold
//! verdicts and optimal values to it. `docs/SOLVER.md`, lever 0, has
//! the reasons.

use crate::consys::{ConstraintSystem, RowKind};
use crate::error::{MathError, Result};
use crate::rat::Rat;

/// Result of a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// No rational point satisfies the constraints.
    Infeasible,
    /// The objective decreases without bound on the feasible region.
    Unbounded,
    /// An optimal vertex was found.
    Optimal {
        /// Minimal objective value.
        value: Rat,
        /// A point attaining it (one value per original variable).
        point: Vec<Rat>,
    },
}

/// Minimizes `objective · x` over the rational points of `cs`.
///
/// The objective has one coefficient per variable of `cs` (no constant
/// term — add constants outside). Uses Dantzig pricing with an automatic
/// switch to Bland's rule to guarantee termination.
///
/// # Errors
///
/// [`MathError::Overflow`] when a tableau entry outgrows `i64`, and
/// [`MathError::PivotLimit`] when phase 1 reaches its pivot cap; the
/// system is then neither proven feasible nor infeasible.
///
/// # Examples
///
/// ```
/// use polytops_math::{lp_minimize, ConstraintSystem, LpOutcome, Rat};
///
/// // minimize x subject to x >= 3
/// let mut cs = ConstraintSystem::new(1);
/// cs.add_ineq(vec![1, -3]);
/// match lp_minimize(&cs, &[1]).unwrap() {
///     LpOutcome::Optimal { value, .. } => assert_eq!(value, Rat::from(3)),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn lp_minimize(cs: &ConstraintSystem, objective: &[i64]) -> Result<LpOutcome> {
    IncrementalLp::new(cs)?.minimize(objective)
}

/// Whether `cs` admits any rational solution.
///
/// # Errors
///
/// [`MathError::Overflow`] and [`MathError::PivotLimit`], as
/// [`lp_minimize`].
pub fn lp_feasible(cs: &ConstraintSystem) -> Result<bool> {
    Ok(IncrementalLp::new(cs)?.is_feasible())
}

/// Dense simplex tableau in standard form `A z = b, z >= 0`.
///
/// Column layout: `[x⁺ (n), x⁻ (n), slacks]`: one slack per inequality
/// of the system [`build`](Tableau::build) was given, then one per
/// [`add_ineq_row`](Tableau::add_ineq_row), in order. Row `i` is
/// `cells[i * stride..][..width + 1]`, its last cell the right-hand
/// side, and stands for those numerators over `den[i]`; the
/// `stride − width − 1` cells behind it are room for slack columns to
/// come. No cell is ever `i64::MIN`, so negating one cannot overflow
/// and a difference of two cell products fits `i128`.
#[derive(Clone)]
struct Tableau {
    n: usize,      // original variables
    width: usize,  // columns of a row
    stride: usize, // cells from one row to the next, > width
    cells: Vec<i64>,
    den: Vec<i64>,     // positive, one per row
    basis: Vec<usize>, // basic column per row
    /// Reduced costs over `cost_den`, laid out like a row; its last cell
    /// is minus the objective value. Priced from scratch when
    /// [`optimize`](Tableau::optimize) starts and carried through its
    /// pivots; stale in between.
    cost: Vec<i64>,
    cost_den: i64,
    /// Pivots of [`dual_reoptimize`](Tableau::dual_reoptimize) so far,
    /// phase 1's and the pins'.
    dual_pivots: usize,
    /// Pivots of [`optimize`](Tableau::optimize) and
    /// [`remove_ineq_row`](Tableau::remove_ineq_row) so far.
    primal_pivots: usize,
    nz: Vec<usize>, // scratch: non-zero columns of the pivot row
}

/// Sentinel basis entry for a freshly appended row before its first
/// pivot assigns a real basic column. Never read as a column index: the
/// appending code pivots (or discards the row) before returning.
const NO_BASIS: usize = usize::MAX;

/// Pivots [`Tableau::dual_reoptimize`] may spend on a tableau of `size`
/// rows plus columns.
fn dual_pivot_cap(size: usize) -> usize {
    #[cfg(test)]
    if let Some(cap) = tests::PIVOT_CAP.get() {
        return cap;
    }
    4 * size
}

/// Narrows to a cell: `i64`, and not `i64::MIN`.
fn fit(v: i128) -> Result<i64> {
    match i64::try_from(v) {
        Ok(v) if v != i64::MIN => Ok(v),
        _ => Err(MathError::Overflow),
    }
}

/// `-v`, which `i64::MIN` does not have.
fn neg(v: i64) -> Result<i64> {
    v.checked_neg().ok_or(MathError::Overflow)
}

/// [`crate::gcd`] on machine words: its `i128` remainder is a library
/// call, this one an instruction.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Divides `row` and its denominator by their common factor.
fn reduce(row: &mut [i64], den: &mut i64) {
    let mut g = den.unsigned_abs();
    if g == 1 {
        return;
    }
    for &v in row.iter().filter(|&&v| v != 0) {
        // Most entries are a multiple of what `g` already is.
        let r = v.unsigned_abs() % g;
        if r != 0 {
            g = gcd(g, r);
            if g == 1 {
                return;
            }
        }
    }
    let g = g as i64; // a divisor of `den`
    for v in row.iter_mut().filter(|v| **v != 0) {
        *v /= g;
    }
    *den /= g;
}

fn nonzeros(row: &[i64], nz: &mut Vec<usize>) {
    nz.clear();
    nz.extend((0..row.len()).filter(|&j| row[j] != 0));
}

/// `row ← row − row[je] · prow`, both as rationals: `prow / pd` is a
/// pivot row (1 in column `je`, non-zero exactly at `nz`) and `row /
/// den` any other row, left with 0 in column `je`.
///
/// With `f = row[je]` cancelled against `pd`, the new numerators are
/// `row · (pd/g) − (f/g) · prow` over `den · (pd/g)`. When `pd/g` is 1
/// — always, for an integral pivot row — only the columns in `nz`
/// change and the rest of the row is not written.
///
/// Numerators are narrowed as they are formed, before the row's common
/// factor is divided out, so a row is refused at most that one factor
/// early; the check bounds the reduced entries all the same.
fn eliminate(
    row: &mut [i64],
    den: &mut i64,
    (prow, pd): (&[i64], i64),
    je: usize,
    nz: &[usize],
) -> Result<()> {
    let f = row[je];
    let g = gcd(f.unsigned_abs(), pd.unsigned_abs()) as i64;
    let (f, scale) = (i128::from(f / g), i128::from(pd / g));
    if scale != 1 {
        for v in row.iter_mut().filter(|v| **v != 0) {
            *v = fit(i128::from(*v) * scale)?;
        }
        *den = fit(i128::from(*den) * scale)?;
    }
    for &j in nz {
        row[j] = fit(i128::from(row[j]) - f * i128::from(prow[j]))?;
    }
    reduce(row, den);
    Ok(())
}

/// Slack columns a re-layout makes room for beyond the one it was
/// called for: a question is one pushed row on a snapshot, so a block
/// this small is grown once per base tableau and again only by a branch
/// and bound some levels deep.
const SPARE_SLACKS: usize = 4;

impl Tableau {
    /// Every inequality `a·x + c ≥ 0` as `−a·x + s = c` with its slack
    /// `s` basic: an identity basis, primal-infeasible exactly in the
    /// rows `x = 0` violates. Equalities wait for
    /// [`phase1`](Tableau::phase1).
    #[cfg(test)]
    fn build(cs: &ConstraintSystem) -> Result<Tableau> {
        Tableau::build_with_room(cs, 0)
    }

    /// [`build`](Tableau::build) with room for `spare` more slack
    /// columns in every row.
    fn build_with_room(cs: &ConstraintSystem, spare: usize) -> Result<Tableau> {
        let n = cs.num_vars();
        let ineqs = || cs.iter().filter(|(k, _)| *k == RowKind::Ineq);
        let m = ineqs().count();
        let width = 2 * n + m;
        let stride = width + 1 + spare;
        let mut cells = vec![0i64; m * stride];
        for (i, ((_, row), r)) in ineqs().zip(cells.chunks_exact_mut(stride)).enumerate() {
            for j in 0..n {
                (r[j], r[n + j]) = (neg(row[j])?, row[j]);
            }
            r[2 * n + i] = 1;
            r[width] = fit(row[n].into())?;
        }
        Ok(Tableau {
            n,
            width,
            stride,
            cells,
            den: vec![1; m],
            basis: (2 * n..width).collect(),
            cost: Vec::new(),
            cost_den: 1,
            dual_pivots: 0,
            primal_pivots: 0,
            nz: Vec::new(),
        })
    }

    /// The rows, each `width + 1` cells.
    fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.cells
            .chunks_exact(self.stride)
            .map(|r| &r[..=self.width])
    }

    /// Phase 1: dual pivots until no slack is negative, then the
    /// equalities of `cs` — the system [`build`](Tableau::build) was
    /// given — one [`add_eq_row`](Tableau::add_eq_row) each, in row
    /// order. `true` iff feasible.
    fn phase1(&mut self, cs: &ConstraintSystem) -> Result<bool> {
        if !self.dual_reoptimize()? {
            return Ok(false);
        }
        for (_, row) in cs.iter().filter(|(k, _)| *k == RowKind::Eq) {
            if !self.add_eq_row(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Phase 2: the original objective on x⁺/x⁻ columns, starting from
    /// the current (feasible) basis.
    #[cfg(test)]
    fn phase2(&mut self, objective: &[i64]) -> Result<LpOutcome> {
        Ok(match self.solve(objective, None)? {
            false => LpOutcome::Unbounded,
            true => LpOutcome::Optimal {
                value: self.value(),
                point: self.vertex(),
            },
        })
    }

    /// [`phase2`](Tableau::phase2) without its report: `false` means
    /// unbounded (or refuted, given `refute`; see
    /// [`optimize`](Tableau::optimize)), otherwise
    /// [`value`](Tableau::value) and [`vertex`](Tableau::vertex) read
    /// the optimum.
    fn solve(&mut self, objective: &[i64], refute: Option<i64>) -> Result<bool> {
        let n = self.n;
        self.cost.clear();
        self.cost.resize(self.width + 1, 0);
        for (j, &c) in objective.iter().enumerate() {
            (self.cost[j], self.cost[n + j]) = (c, neg(c)?);
        }
        self.optimize(refute)
    }

    /// The objective value [`optimize`](Tableau::optimize) stopped at.
    fn value(&self) -> Rat {
        Rat::new(-i128::from(self.cost[self.width]), self.cost_den.into())
    }

    /// The current basic solution, one value per original variable.
    fn vertex(&self) -> Vec<Rat> {
        let n = self.n;
        let mut point = vec![Rat::ZERO; n];
        for ((row, &den), &bj) in self.rows().zip(&self.den).zip(&self.basis) {
            let rhs = Rat::new(row[self.width].into(), den.into());
            if bj < n {
                point[bj] += rhs;
            } else if bj < 2 * n {
                point[bj - n] -= rhs;
            }
        }
        point
    }

    /// The first original variable whose value at the current basic
    /// solution is not an integer, and that value. `x⁺ⱼ` and `x⁻ⱼ` are
    /// negatives of each other, so at most one of them is basic and the
    /// value is one row's right-hand side.
    fn first_fractional(&self) -> Option<(usize, Rat)> {
        let (n, w) = (self.n, self.width);
        let rows = self.rows().zip(&self.den).zip(&self.basis);
        rows.filter(|((row, &den), &bj)| bj < 2 * n && row[w] % den != 0)
            .map(|((row, &den), &bj)| {
                let rhs = Rat::new(row[w].into(), den.into());
                (bj % n, if bj < n { rhs } else { -rhs })
            })
            .min_by_key(|&(j, _)| j)
    }

    /// The current basic solution when every coordinate of it is an
    /// integer — [`vertex`](Tableau::vertex) without a `Rat` built.
    /// `None` is "fractional", or a sum that left `i64`.
    fn integral_vertex(&self) -> Option<Vec<i64>> {
        let (n, w) = (self.n, self.width);
        let mut point = vec![0i64; n];
        for ((row, &den), &bj) in self.rows().zip(&self.den).zip(&self.basis) {
            if bj < 2 * n {
                if row[w] % den != 0 {
                    return None;
                }
                let v = row[w] / den; // a cell: never `i64::MIN`
                let (j, v) = if bj < n { (bj, v) } else { (bj - n, -v) };
                point[j] = point[j].checked_add(v)?;
            }
        }
        Some(point)
    }

    /// Restricts the tableau to the optimal face of the objective
    /// [`optimize`](Tableau::optimize) has just stopped on: the points
    /// where every non-basic column with a positive reduced cost is
    /// zero. Such a column is a slack (the two reduced costs of an
    /// x⁺/x⁻ pair are negatives of each other, so at an optimum both
    /// are zero) and is zeroed in every row. Its raw cost is 0 under
    /// every objective, so from here on it prices to 0, shows no dual
    /// loop a negative entry and is in no row reduced by the basis: the
    /// column is out of the problem, with no row added and no pivot
    /// taken, and a [`Clone`] carries that.
    fn restrict_to_face(&mut self) {
        let (n, w, s) = (self.n, self.width, self.stride);
        debug_assert!(
            self.cost[..2 * n].iter().all(|&c| c == 0),
            "a structural column priced non-zero at an optimum"
        );
        for j in (2 * n..w).filter(|&j| self.cost[j] > 0) {
            for (row, den) in self.cells.chunks_exact_mut(s).zip(&mut self.den) {
                if row[j] != 0 {
                    row[j] = 0;
                    reduce(&mut row[..=w], den);
                }
            }
        }
    }

    /// A copy of this tableau over `extra` more variables, which no row
    /// mentions yet: their x⁺/x⁻ columns are zeros and non-basic. The
    /// slacks keep their order, and room is left for `spare` more.
    fn widened(&self, extra: usize, spare: usize) -> Tableau {
        let (n, w) = (self.n, self.width);
        let (n2, w2) = (n + extra, w + 2 * extra);
        let stride = w2 + 1 + spare;
        let mut cells = vec![0i64; self.den.len() * stride];
        for (to, from) in cells.chunks_exact_mut(stride).zip(self.rows()) {
            to[..n].copy_from_slice(&from[..n]);
            to[n2..n2 + n].copy_from_slice(&from[n..2 * n]);
            to[2 * n2..=w2].copy_from_slice(&from[2 * n..=w]);
        }
        let moved = |c: usize| match c {
            c if c < n => c,
            c if c < 2 * n => c + extra,
            c => c + 2 * extra,
        };
        Tableau {
            n: n2,
            width: w2,
            stride,
            cells,
            den: self.den.clone(),
            basis: self.basis.iter().map(|&c| moved(c)).collect(),
            cost: Vec::new(),
            cost_den: 1,
            dual_pivots: self.dual_pivots,
            primal_pivots: self.primal_pivots,
            nz: Vec::new(),
        }
    }

    /// A fresh all-zero column behind the last slack: every right-hand
    /// side moves one cell up. Returns the column.
    fn add_column(&mut self) -> usize {
        if self.width + 1 == self.stride {
            // Out of room: re-lay the rows out with a fresh spare block.
            *self = self.widened(0, 1 + SPARE_SLACKS);
        }
        let w = self.width;
        for row in self.cells.chunks_exact_mut(self.stride) {
            (row[w], row[w + 1]) = (0, row[w]);
        }
        self.width += 1;
        w
    }

    /// Appends `raw` — a row over `[x⁺, x⁻, slacks]` and the right-hand
    /// side, denominator 1 — reduced by the current basis, so that basic
    /// columns keep their identity structure in it. Returns the row's
    /// index; its denominator and basic column are the caller's to push.
    fn append_reduced(&mut self, raw: impl FnOnce(&mut [i64]) -> Result<()>) -> Result<i64> {
        let (w, s) = (self.width, self.stride);
        let nrows = self.den.len();
        self.cells.resize((nrows + 1) * s, 0);
        let (rows, r) = self.cells.split_at_mut(nrows * s);
        let r = &mut r[..=w];
        raw(r)?;
        let mut den = 1i64;
        for ((prow, &pd), &bj) in rows.chunks_exact(s).zip(&self.den).zip(&self.basis) {
            if r[bj] != 0 {
                let prow = &prow[..=w];
                nonzeros(prow, &mut self.nz);
                eliminate(r, &mut den, (prow, pd), bj, &self.nz)?;
            }
        }
        Ok(den)
    }

    /// Appends the equality `row · x + c == 0` to a feasible tableau and
    /// restores feasibility with **dual-simplex** pivots on the existing
    /// basis: after reducing the new row by the basic columns, the
    /// tableau is primal-infeasible by exactly that row, and the loop
    /// that ran phase 1 repairs it. Returns `false` when the system
    /// with the row is infeasible; an equality the tableau already
    /// implies adds no row.
    ///
    /// The pivot rule is Bland's dual rule under the zero cost vector:
    /// every reduced cost is identically zero, so the tableau is
    /// trivially dual-feasible throughout, every entering ratio ties at
    /// zero, and smallest-index tie-breaks make the walk finite (and
    /// deterministic).
    fn add_eq_row(&mut self, row: &[i64]) -> Result<bool> {
        let (n, w, s) = (self.n, self.width, self.stride);
        let nrows = self.den.len();
        // Raw row over [x⁺, x⁻, slacks], rhs = -c.
        let den = self.append_reduced(|r| {
            for j in 0..n {
                r[j] = row[j];
                r[n + j] = neg(row[j])?;
            }
            r[w] = neg(row[n])?;
            Ok(())
        })?;
        let r = &mut self.cells[nrows * s..][..=w];
        // Dual-simplex sign convention: the appended row enters with a
        // non-positive residual so it reads as the one infeasible row.
        if r[w] > 0 {
            for v in r.iter_mut() {
                *v = -*v;
            }
        }
        let residual = r[w];
        let Some(je) = r[..w].iter().position(|&v| v != 0) else {
            // No support left after reduction: the equality is implied
            // (zero residual) or contradicts the system.
            self.cells.truncate(nrows * s);
            return Ok(residual == 0);
        };
        self.den.push(den);
        self.basis.push(NO_BASIS);
        if residual == 0 {
            // The current vertex already satisfies the equality: one
            // degenerate pivot gives the row a basic column without
            // moving the point (rhs 0 leaves every other row intact).
            self.pivot(nrows, je)?;
            return Ok(true);
        }
        self.dual_reoptimize()
    }

    /// Appends the inequality `row · x + c ≥ 0` to a feasible tableau
    /// the way [`build`](Tableau::build) would have written it —
    /// `−row · x + s = c` on a fresh slack column — reduced by the
    /// basis, which leaves `s` basic in it, and repairs the one row
    /// that may now be infeasible with the dual loop. Returns `false`
    /// when the system with the row is infeasible.
    fn add_ineq_row(&mut self, row: &[i64]) -> Result<bool> {
        let n = self.n;
        let slack = self.add_column();
        let w = self.width;
        // `eliminate` scales the slack's 1 and the denominator alike
        // and no basic row reaches into a fresh column: the entry stays
        // equal to the denominator, a unit coefficient.
        let den = self.append_reduced(|r| {
            for j in 0..n {
                (r[j], r[n + j]) = (neg(row[j])?, row[j]);
            }
            r[slack] = 1;
            r[w] = fit(row[n].into())?;
            Ok(())
        })?;
        self.den.push(den);
        self.basis.push(slack);
        self.dual_reoptimize()
    }

    /// Whether the inequality whose slack is column `slack` is violated
    /// on an edge out of the current vertex of a feasible tableau that
    /// every other row allows: the slack is non-basic, its column is
    /// live (not fixed by [`restrict_to_face`](Tableau::restrict_to_face))
    /// and every row it would lower as it goes below zero has a
    /// positive value. Moving the slack to `−t` for a small `t > 0`
    /// then keeps every row's value non-negative — so every other
    /// inequality and every equality holds — while the inequality
    /// itself reads `−t`.
    fn refuted_at_vertex(&self, slack: usize) -> bool {
        let w = self.width;
        let mut live = false;
        for (row, &bj) in self.rows().zip(&self.basis) {
            let a = row[slack];
            if bj == slack || (a < 0 && row[w] == 0) {
                return false;
            }
            live |= a != 0;
        }
        live
    }

    /// Takes the inequality whose slack is column `slack` out of a
    /// feasible tableau: one pivot makes the slack basic without making
    /// any *other* row infeasible — its own value may go negative, the
    /// constraint is leaving — and its row is then deleted. What is left
    /// is a feasible basis of the system without that inequality; the
    /// column stays behind, all zeros.
    ///
    /// A non-basic slack leaves downwards when its column lets it: the
    /// vertex the pivot reaches then violates the inequality, by the
    /// ratio of the row that stopped it, and a minimization of the
    /// inequality over the rest starts at a negative value.
    fn remove_ineq_row(&mut self, slack: usize) -> Result<()> {
        let (w, s) = (self.width, self.stride);
        let at = match self.basis.iter().position(|&b| b == slack) {
            Some(i) => i,
            None => {
                // Moving the slack by t off zero moves each basic value
                // to rhs − entry · t: upwards the smallest ratio over
                // the positive entries binds, downwards the largest
                // (they are ≤ 0) over the negative ones.
                let ratio = |i: usize| (self.cells[i * s + w], self.cells[i * s + slack]);
                let closer = |i: usize, l: usize| {
                    let ((b, a), (lb, la)) = (ratio(i), ratio(l));
                    // b/a against lb/la, both entries of one sign.
                    let (x, y) = (
                        i128::from(b) * i128::from(la),
                        i128::from(lb) * i128::from(a),
                    );
                    if a > 0 {
                        x < y || (x == y && self.basis[i] < self.basis[l])
                    } else {
                        x > y || (x == y && self.basis[i] < self.basis[l])
                    }
                };
                let pick = |positive: bool| {
                    (0..self.den.len())
                        .filter(|&i| ratio(i).1 != 0 && (ratio(i).1 > 0) == positive)
                        .fold(None, |best: Option<usize>, i| match best {
                            Some(l) if !closer(i, l) => Some(l),
                            _ => Some(i),
                        })
                };
                // The slack's defining row is a combination of the
                // tableau's, so a live slack's column is not all zeros.
                // One that is was fixed at zero by `restrict_to_face`:
                // its row is an equality of the face and, like a pin,
                // stays.
                let Some(li) = pick(false).or_else(|| pick(true)) else {
                    return Ok(());
                };
                self.primal_pivots += 1;
                self.pivot(li, slack)?;
                li
            }
        };
        let last = self.den.len() - 1;
        if at != last {
            let (head, tail) = self.cells.split_at_mut(last * s);
            head[at * s..][..=w].copy_from_slice(&tail[..=w]);
        }
        self.cells.truncate(last * s);
        self.den.swap_remove(at);
        self.basis.swap_remove(at);
        Ok(())
    }

    /// The dual-simplex loop: while some row is primal-infeasible
    /// (negative rhs), pivot it feasible. `false` is a proof of primal
    /// infeasibility: a row with a negative rhs and no negative entry.
    ///
    /// # Errors
    ///
    /// [`MathError::PivotLimit`] at the pivot cap. Bland's rule
    /// terminates, so the cap is a guard against a bug — but callers
    /// read `false` as "no point exists", which a cap cannot know.
    fn dual_reoptimize(&mut self) -> Result<bool> {
        let (w, s) = (self.width, self.stride);
        let stop = self.dual_pivots + dual_pivot_cap(w + self.den.len());
        loop {
            // Leaving row: Bland — smallest basic index among the
            // infeasible rows (a fresh `NO_BASIS` row sorts last but is
            // the only infeasible row when it is present).
            let Some(li) = (0..self.den.len())
                .filter(|&i| self.cells[i * s + w] < 0)
                .min_by_key(|&i| self.basis[i])
            else {
                return Ok(true);
            };
            // Entering column: smallest-index column with a negative
            // entry (all reduced-cost ratios tie at zero under the zero
            // cost vector — see `add_eq_row`). It is never a basic one:
            // those read 0 in this row, or 1 if it is the row's own.
            let Some(je) = self.cells[li * s..][..w].iter().position(|&v| v < 0) else {
                return Ok(false); // the row cannot be made feasible
            };
            if self.dual_pivots >= stop {
                return Err(MathError::PivotLimit);
            }
            self.dual_pivots += 1;
            self.pivot(li, je)?;
        }
    }

    /// Runs the simplex loop for the raw cost vector
    /// [`solve`](Tableau::solve) wrote into the cost row (one integer
    /// per column, then 0) and leaves minus the optimal value in the
    /// row's last cell; `false` means unbounded.
    ///
    /// With `refute` a constant `c`, the loop also stops, with `false`,
    /// at the first basis whose value `v` has `v + c < 0`. A primal
    /// pivot never raises the value, so the minimum is below `−c` too:
    /// `true` is then an optimum with `v + c ≥ 0`, and `false` says the
    /// objective plus `c` goes negative somewhere on the system.
    fn optimize(&mut self, refute: Option<i64>) -> Result<bool> {
        let (w, s) = (self.width, self.stride);
        // Reduced costs c_j - c_B · B⁻¹ A_j: the rows are B⁻¹ A, so
        // eliminating each basic column from the raw cost row prices it.
        self.cost_den = 1;
        for ((prow, &pd), &bj) in self.cells.chunks_exact(s).zip(&self.den).zip(&self.basis) {
            if self.cost[bj] != 0 {
                let prow = &prow[..=w];
                nonzeros(prow, &mut self.nz);
                let (cost, den) = (&mut self.cost, &mut self.cost_den);
                eliminate(cost, den, (prow, pd), bj, &self.nz)?;
            }
        }
        let mut iters = 0usize;
        let max_dantzig = 4 * (w + self.den.len());
        loop {
            // v = −cost[w] / cost_den, so v + c < 0 is c · cost_den < cost[w].
            if refute.is_some_and(|c| {
                i128::from(c) * i128::from(self.cost_den) < i128::from(self.cost[w])
            }) {
                return Ok(false);
            }
            iters += 1;
            let bland = iters > max_dantzig;
            // Entering column: negative reduced cost — the most negative
            // (Dantzig) or the first (Bland). Basic columns read 0.
            let mut enter: Option<usize> = None;
            for (j, &red) in self.cost[..w].iter().enumerate() {
                if red < 0 {
                    if bland {
                        enter = Some(j);
                        break;
                    }
                    if enter.is_none_or(|best| red < self.cost[best]) {
                        enter = Some(j);
                    }
                }
            }
            let Some(je) = enter else {
                return Ok(true);
            };
            // Ratio test (Bland tie-break on basis index). A row's
            // denominator cancels out of rhs / entry.
            let mut leave: Option<usize> = None;
            for i in 0..self.den.len() {
                let (a, b) = (self.cells[i * s + je], self.cells[i * s + w]);
                if a <= 0 {
                    continue;
                }
                let better = leave.is_none_or(|l| {
                    let (la, lb) = (self.cells[l * s + je], self.cells[l * s + w]);
                    let (ratio, best) = (
                        i128::from(b) * i128::from(la),
                        i128::from(lb) * i128::from(a),
                    );
                    ratio < best || (ratio == best && self.basis[i] < self.basis[l])
                });
                if better {
                    leave = Some(i);
                }
            }
            let Some(li) = leave else {
                return Ok(false); // unbounded
            };
            self.primal_pivots += 1;
            self.pivot(li, je)?;
            let pivot_row = (&self.cells[li * s..][..=w], self.den[li]);
            let (cost, den) = (&mut self.cost, &mut self.cost_den);
            eliminate(cost, den, pivot_row, je, &self.nz)?;
        }
    }

    /// Makes column `je` basic in row `li`, and leaves the row's
    /// non-zero columns in `self.nz`.
    fn pivot(&mut self, li: usize, je: usize) -> Result<()> {
        let (w, s) = (self.width, self.stride);
        let (before, rest) = self.cells.split_at_mut(li * s);
        let (prow, after) = rest.split_at_mut(s);
        let prow = &mut prow[..=w];
        let (den_before, den_rest) = self.den.split_at_mut(li);
        let (pd, den_after) = den_rest.split_first_mut().expect("pivot row in range");
        // Dividing the row by its pivot entry p/den leaves numerators
        // over |p|, with the sign of p moved into them.
        let p = prow[je];
        if p < 0 {
            for v in prow.iter_mut() {
                *v = -*v;
            }
        }
        *pd = p.abs();
        reduce(prow, pd);
        nonzeros(prow, &mut self.nz);
        let pivot_row = (&*prow, *pd);
        let others = (before.chunks_exact_mut(s).zip(den_before))
            .chain(after.chunks_exact_mut(s).zip(den_after));
        for (row, den) in others {
            if row[je] != 0 {
                eliminate(&mut row[..=w], den, pivot_row, je, &self.nz)?;
            }
        }
        self.basis[li] = je;
        Ok(())
    }
}

/// An incrementally re-optimizable LP: the tableau is built (and phase 1
/// run) **once**, then a sequence of objectives is minimized by phase-2
/// re-optimization from the previous optimal basis. In between the
/// system is narrowed to the optimum just found: to its face
/// ([`IncrementalLp::minimize_onto_face`] — no row, no pivot), or by a
/// pinned equality row ([`IncrementalLp::pin_eq`]) that is repaired by
/// re-pivoting on it alone and can hold a value no face of the
/// relaxation does.
///
/// This is the engine of [`ilp_lexmin`](crate::ilp_lexmin): the
/// lexicographic objective cascade re-uses one basis instead of
/// rebuilding and re-solving the whole system per objective.
///
/// It is also the one tableau under every feasibility and implication
/// question: [`push_ineq`](IncrementalLp::push_ineq) adds a row to a
/// solved system, [`snapshot`](IncrementalLp::snapshot) /
/// [`rollback`](IncrementalLp::rollback) take it back,
/// [`implies`](IncrementalLp::implies) and
/// [`may_have_integer_point`](IncrementalLp::may_have_integer_point)
/// ask, and [`lp_minimize`], [`lp_feasible`],
/// [`ineq_implied`](crate::ineq_implied) and
/// [`ilp_feasible`](crate::ilp_feasible) are its build-ask-drop forms.
///
/// # Examples
///
/// ```
/// use polytops_math::{ConstraintSystem, IncrementalLp, LpOutcome, Rat};
///
/// // Box [0,2]², x + y >= 2: lexmin x then y at the LP level.
/// let mut cs = ConstraintSystem::new(2);
/// cs.add_ineq(vec![1, 0, 0]);
/// cs.add_ineq(vec![-1, 0, 2]);
/// cs.add_ineq(vec![0, 1, 0]);
/// cs.add_ineq(vec![0, -1, 2]);
/// cs.add_ineq(vec![1, 1, -2]);
/// let mut lp = IncrementalLp::new(&cs).unwrap();
/// // The system is the face x == 0 from here on.
/// let LpOutcome::Optimal { value, .. } = lp.minimize_onto_face(&[1, 0]).unwrap() else { panic!() };
/// assert_eq!(value, Rat::from(0));
/// let LpOutcome::Optimal { value, .. } = lp.minimize(&[0, 1]).unwrap() else { panic!() };
/// assert_eq!(value, Rat::from(2));
/// assert!(lp.pin_eq(&[0, 1, -2]).unwrap()); // pin y == 2, re-pivot on one row
/// let LpOutcome::Optimal { value, .. } = lp.minimize(&[-1, -1]).unwrap() else { panic!() };
/// assert_eq!(value, Rat::from(-2)); // one point is left: (0, 2)
/// ```
pub struct IncrementalLp {
    tab: Tableau,
    /// Dual pivots phase 1 spent: not the pins'.
    phase1_pivots: usize,
    /// Whether the system with every row pinned and pushed so far is
    /// feasible — or the error that stopped a pivot half-way, which
    /// every later call repeats rather than read the tableau it left.
    state: Result<bool>,
}

/// What [`IncrementalLp::snapshot`] copied, for
/// [`IncrementalLp::rollback`] to put back.
pub struct Snapshot(IncrementalLp);

/// [`LpOutcome`] without the vertex.
pub(crate) enum Bound {
    Infeasible,
    Unbounded,
    Value(Rat),
}

/// What [`IncrementalLp::lexmin_stage`] found.
pub(crate) enum Stage {
    /// An integral optimal vertex, to whose face the system is now
    /// restricted.
    Integral(Vec<i64>),
    /// Anything else — a fractional optimum is its value — with the
    /// system untouched.
    Relaxed(Bound),
}

impl IncrementalLp {
    /// Builds the tableau and runs phase 1.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when a tableau entry outgrows `i64`,
    /// [`MathError::PivotLimit`] when phase 1 reaches its pivot cap.
    pub fn new(cs: &ConstraintSystem) -> Result<IncrementalLp> {
        let mut tab = Tableau::build_with_room(cs, SPARE_SLACKS)?;
        let state = Ok(tab.phase1(cs)?);
        Ok(IncrementalLp {
            phase1_pivots: tab.dual_pivots,
            tab,
            state,
        })
    }

    /// A copy of this tableau over `extra` more variables, unrestricted
    /// and in no row yet — what a caller pushes next gives them their
    /// meaning — with room for `rows` pushed inequalities. The copy
    /// shares nothing with `self`, which makes `extra == 0` the way to
    /// ask a base system a chain of questions and keep it.
    pub fn with_vars(&self, extra: usize, rows: usize) -> IncrementalLp {
        self.with_tableau(self.tab.widened(extra, rows + SPARE_SLACKS))
    }

    fn with_tableau(&self, tab: Tableau) -> IncrementalLp {
        IncrementalLp {
            tab,
            phase1_pivots: self.phase1_pivots,
            state: self.state.clone(),
        }
    }

    /// Number of variables of the system.
    pub fn num_vars(&self) -> usize {
        self.tab.n
    }

    /// Whether the system (with every row pinned and pushed so far) is
    /// feasible.
    pub fn is_feasible(&self) -> bool {
        self.state == Ok(true)
    }

    /// Records what `step` did to the tableau.
    fn advance(&mut self, step: impl FnOnce(&mut Tableau) -> Result<bool>) -> Result<bool> {
        if self.state.clone()? {
            self.state = step(&mut self.tab);
        }
        self.state.clone()
    }

    /// Minimizes `objective · x` from the current basis.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when a tableau entry outgrows `i64`, now
    /// or in an earlier call.
    pub fn minimize(&mut self, objective: &[i64]) -> Result<LpOutcome> {
        Ok(match self.minimize_value(objective)? {
            Bound::Infeasible => LpOutcome::Infeasible,
            Bound::Unbounded => LpOutcome::Unbounded,
            Bound::Value(value) => LpOutcome::Optimal {
                value,
                point: self.tab.vertex(),
            },
        })
    }

    /// [`minimize`](IncrementalLp::minimize) for a caller that reads
    /// the vertex itself, or not at all.
    pub(crate) fn minimize_value(&mut self, objective: &[i64]) -> Result<Bound> {
        Ok(match self.solve(objective, None)? {
            None => Bound::Infeasible,
            Some(false) => Bound::Unbounded,
            Some(true) => Bound::Value(self.tab.value()),
        })
    }

    /// The primal loop on `objective`: `None` of an infeasible system,
    /// otherwise whether it stopped on an optimum — which the cost row
    /// describes until the next pivot — or found none (`false`): the
    /// objective is unbounded, or, given `refute`, fell below `−refute`
    /// ([`Tableau::optimize`]).
    fn solve(&mut self, objective: &[i64], refute: Option<i64>) -> Result<Option<bool>> {
        assert_eq!(objective.len(), self.tab.n, "objective length mismatch");
        if !self.state.clone()? {
            return Ok(None);
        }
        let bounded = self.tab.solve(objective, refute);
        if let Err(e) = &bounded {
            self.state = Err(e.clone());
        }
        bounded.map(Some)
    }

    /// [`minimize`](IncrementalLp::minimize), after which the system is
    /// only the face the minimum is attained on — what pinning
    /// `objective · x` to the optimal value would leave, without the
    /// row and the pivot of [`pin_eq`](IncrementalLp::pin_eq): every
    /// slack with a positive reduced cost is fixed at zero. A
    /// [`rollback`](IncrementalLp::rollback) to a snapshot taken before
    /// gives the whole system back.
    ///
    /// # Errors
    ///
    /// As [`minimize`](IncrementalLp::minimize).
    pub fn minimize_onto_face(&mut self, objective: &[i64]) -> Result<LpOutcome> {
        let outcome = self.minimize(objective)?;
        if matches!(outcome, LpOutcome::Optimal { .. }) {
            self.tab.restrict_to_face();
        }
        Ok(outcome)
    }

    /// One stage of a lexmin over integer variables: minimizes, and
    /// when the vertex is integral — so that the optimal face of the
    /// relaxation holds exactly the stage's integer optima — restricts
    /// the system to that face as
    /// [`minimize_onto_face`](IncrementalLp::minimize_onto_face) does
    /// and returns the vertex, read as the integers it is. Any other
    /// outcome leaves the system as it was.
    pub(crate) fn lexmin_stage(&mut self, objective: &[i64]) -> Result<Stage> {
        Ok(match self.solve(objective, None)? {
            None => Stage::Relaxed(Bound::Infeasible),
            Some(false) => Stage::Relaxed(Bound::Unbounded),
            Some(true) => match self.tab.integral_vertex() {
                Some(point) => {
                    self.tab.restrict_to_face();
                    Stage::Integral(point)
                }
                None => Stage::Relaxed(Bound::Value(self.tab.value())),
            },
        })
    }

    /// The first variable whose value at the current vertex of a
    /// feasible system is not an integer, with that value.
    pub(crate) fn first_fractional(&self) -> Option<(usize, Rat)> {
        self.tab.first_fractional()
    }

    /// The current vertex of a feasible system, if it is integral.
    pub(crate) fn integral_vertex(&self) -> Option<Vec<i64>> {
        self.tab.integral_vertex()
    }

    /// Pins the equality `row · x + c == 0` (`row` has `n + 1` entries)
    /// and restores feasibility with dual-simplex pivots on the existing
    /// basis. Returns `false` (and stays infeasible) when the pinned
    /// system has no solution.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] when a tableau entry outgrows `i64` and
    /// [`MathError::PivotLimit`] when the dual loop reaches its pivot
    /// cap, now or in an earlier call.
    pub fn pin_eq(&mut self, row: &[i64]) -> Result<bool> {
        let _timing = polytops_obs::time("simplex.pin_eq_ns");
        self.push_eq(row)
    }

    /// [`pin_eq`](IncrementalLp::pin_eq) outside the
    /// `simplex.pin_eq_ns` histogram, which times the lexmin's stage
    /// pins only: an oracle's walk pins a row per step and has a timer
    /// of its own around the whole rewrite, and the scanner pushes each
    /// equality guard it keeps onto its context.
    ///
    /// # Errors
    ///
    /// As [`pin_eq`](IncrementalLp::pin_eq).
    pub fn push_eq(&mut self, row: &[i64]) -> Result<bool> {
        assert_eq!(row.len(), self.tab.n + 1, "row length mismatch");
        self.advance(|tab| tab.add_eq_row(row))
    }

    /// Pushes the inequality `row · x + c ≥ 0` (`row` has `n + 1`
    /// entries): a fresh slack, the row reduced by the current basis,
    /// feasibility restored by the dual-simplex pivots of
    /// [`pin_eq`](IncrementalLp::pin_eq). Returns `false` (and stays
    /// infeasible) when no rational point satisfies the system with
    /// the row — which [`rollback`](IncrementalLp::rollback) undoes.
    ///
    /// # Errors
    ///
    /// As [`pin_eq`](IncrementalLp::pin_eq).
    pub fn push_ineq(&mut self, row: &[i64]) -> Result<bool> {
        assert_eq!(row.len(), self.tab.n + 1, "row length mismatch");
        self.advance(|tab| tab.add_ineq_row(row))
    }

    /// Takes inequality `k` out of a feasible system: inequalities are
    /// numbered from 0 in the order the system given to
    /// [`new`](IncrementalLp::new) listed them, pushed rows following
    /// on, and a number is never reused. Of an infeasible system
    /// nothing is left to take a row from, and it stays as it is. So
    /// does a system restricted to a face
    /// ([`minimize_onto_face`](IncrementalLp::minimize_onto_face)) on
    /// which inequality `k` holds with equality by a fixed slack: that
    /// row is an equality of the face and, like a pin, not droppable.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`], now or in an earlier call.
    ///
    /// # Panics
    ///
    /// Panics if inequality `k` was never there.
    pub fn drop_ineq(&mut self, k: usize) -> Result<()> {
        let slack = 2 * self.tab.n + k;
        assert!(slack < self.tab.width, "no inequality {k}");
        self.advance(|tab| tab.remove_ineq_row(slack).map(|()| true))
            .map(|_| ())
    }

    /// Whether `row · x + c ≥ 0` holds at every rational point of the
    /// system — of an infeasible one, vacuously. Conservative: an
    /// unbounded minimum or an overflowing tableau answers `false`
    /// (the latter for every later question too).
    ///
    /// The primal loop minimizes `row · x` only until its answer is
    /// known: it stops at the first basis where the value plus `c` is
    /// negative, which refutes the row, and runs to the optimum only to
    /// prove it implied. The tableau is left on that feasible basis,
    /// where the next question starts. So an overflow that minimizing
    /// on past a refutation would have hit is never met: it does not
    /// poison a tableau the caller does not roll back.
    pub fn implies(&mut self, row: &[i64]) -> bool {
        let n = self.tab.n;
        assert_eq!(row.len(), n + 1, "row length mismatch");
        matches!(self.solve(&row[..n], Some(row[n])), Ok(None | Some(true)))
    }

    /// Whether inequality `k` — numbered as for
    /// [`drop_ineq`](IncrementalLp::drop_ineq), `row` being that
    /// inequality — is implied by the rest of the system. An implied
    /// one is left out of the system, as `drop_ineq` leaves it; a
    /// refuted one stays in, and the system is the same as before.
    ///
    /// The current vertex answers first: when the row's slack is
    /// non-basic and can go below zero with every other row's value
    /// staying non-negative, the row is refuted with no pivot, no
    /// snapshot and no rollback. Otherwise the row is dropped on a
    /// snapshot and asked of the rest by [`implies`](IncrementalLp::implies),
    /// and the snapshot is rolled back only when it is refuted.
    ///
    /// # Panics
    ///
    /// Panics if inequality `k` was never there.
    pub fn redundant(&mut self, k: usize, row: &[i64]) -> bool {
        let slack = 2 * self.tab.n + k;
        assert!(slack < self.tab.width, "no inequality {k}");
        if self.is_feasible() && self.tab.refuted_at_vertex(slack) {
            return false;
        }
        let before = self.snapshot();
        let implied = self.drop_ineq(k).is_ok() && self.implies(row);
        if !implied {
            self.rollback(before);
        }
        implied
    }

    /// A copy of the tableau as it stands. A tableau here is tens of
    /// rows, so a copy costs less than the pivot it guards and no undo
    /// log is kept.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.with_tableau(self.tab.clone()))
    }

    /// Puts the tableau back to where `snapshot` was taken: rows pinned
    /// or pushed since, the dual pivots they cost and an error that
    /// poisoned it are all gone. The primal pivots spent since stay
    /// counted: they are work done, not part of the system.
    pub fn rollback(&mut self, snapshot: Snapshot) {
        let spent = self.tab.primal_pivots;
        *self = snapshot.0;
        self.tab.primal_pivots = spent;
    }

    /// Dual-simplex pivots spent by [`pin_eq`](IncrementalLp::pin_eq)
    /// and [`push_ineq`](IncrementalLp::push_ineq) calls so far.
    pub fn dual_pivots(&self) -> usize {
        self.tab.dual_pivots - self.phase1_pivots
    }

    /// Primal pivots spent so far: the primal loop's, under every
    /// objective and question, and the one pivot of each
    /// [`drop_ineq`](IncrementalLp::drop_ineq) that makes a slack basic.
    /// A rollback keeps them (phase 1 takes none).
    pub fn primal_pivots(&self) -> usize {
        self.tab.primal_pivots
    }
}

/// Three rows of near-`i64::MAX` coefficients: the second pivot
/// already needs a product of two of them.
#[cfg(test)]
pub(crate) fn overflowing_system() -> ConstraintSystem {
    const M: i64 = i64::MAX;
    let mut cs = ConstraintSystem::new(3);
    cs.add_ineq(vec![M, -(M - 2), 0, -1]);
    cs.add_ineq(vec![0, M - 4, -(M - 6), -1]);
    cs.add_ineq(vec![-(M - 10), 0, M - 8, -1]);
    cs.add_ineq(vec![1, 0, 0, 0]);
    cs.add_ineq(vec![0, 1, 0, 0]);
    cs.add_ineq(vec![0, 0, 1, 0]);
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{ilp_feasible, ineq_implied};
    use std::cell::Cell;

    thread_local! {
        /// Overrides [`dual_pivot_cap`] on the thread that sets it.
        pub(super) static PIVOT_CAP: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn optimal(cs: &ConstraintSystem, obj: &[i64]) -> (Rat, Vec<Rat>) {
        match lp_minimize(cs, obj).unwrap() {
            LpOutcome::Optimal { value, point } => (value, point),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn minimize_over_interval() {
        // 2 <= x <= 5, minimize x -> 2; minimize -x -> -5.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -2]);
        cs.add_ineq(vec![-1, 5]);
        assert_eq!(optimal(&cs, &[1]).0, Rat::from(2));
        assert_eq!(optimal(&cs, &[-1]).0, Rat::from(-5));
    }

    #[test]
    fn negative_region() {
        // -7 <= x <= -3, minimize x.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, 7]);
        cs.add_ineq(vec![-1, -3]);
        let (v, p) = optimal(&cs, &[1]);
        assert_eq!(v, Rat::from(-7));
        assert_eq!(p[0], Rat::from(-7));
    }

    #[test]
    fn two_dims_vertex() {
        // x + y >= 2, x >= 0, y >= 0, minimize 2x + y.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 1, -2]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        let (v, p) = optimal(&cs, &[2, 1]);
        assert_eq!(v, Rat::from(2));
        assert_eq!(p, vec![Rat::from(0), Rat::from(2)]);
    }

    #[test]
    fn equality_constraints() {
        // x + y == 4, x - y == 0 -> x = y = 2.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![1, 1, -4]);
        cs.add_eq(vec![1, -1, 0]);
        let (_, p) = optimal(&cs, &[0, 0]);
        assert_eq!(p, vec![Rat::from(2), Rat::from(2)]);
    }

    #[test]
    fn detects_infeasible() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -5]); // x >= 5
        cs.add_ineq(vec![-1, 2]); // x <= 2
        assert_eq!(lp_minimize(&cs, &[1]), Ok(LpOutcome::Infeasible));
        assert_eq!(lp_feasible(&cs), Ok(false));
    }

    #[test]
    fn detects_unbounded() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, 0]); // x >= 0
        assert_eq!(lp_minimize(&cs, &[-1]), Ok(LpOutcome::Unbounded));
    }

    #[test]
    fn fractional_vertex() {
        // 2x >= 1, minimize x -> 1/2.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, -1]);
        assert_eq!(optimal(&cs, &[1]).0, Rat::new(1, 2));
    }

    #[test]
    fn pin_cutting_off_the_vertex_uses_dual_pivots() {
        // Box [0,3]², minimize x + y -> vertex (0,0). Pinning
        // x + y == 2 cuts that vertex off: feasibility comes back via
        // dual pivots.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 3]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0));
        assert!(lp.pin_eq(&[1, 1, -2]).unwrap());
        assert!(lp.dual_pivots() >= 1, "the pin must re-pivot");
        let LpOutcome::Optimal { value, point } = lp.minimize(&[1, 0]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0));
        assert_eq!(point, vec![Rat::from(0), Rat::from(2)]);
    }

    #[test]
    fn pin_already_satisfied_is_a_degenerate_pivot() {
        // Minimize x on x ∈ [1, 4]: vertex x = 1 already satisfies the
        // pinned x == 1, so no dual pivot is needed at all.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -1]);
        cs.add_ineq(vec![-1, 4]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(1));
        assert!(lp.pin_eq(&[1, -1]).unwrap());
        assert_eq!(lp.dual_pivots(), 0);
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[-1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(-1), "the pin holds x at 1");
    }

    #[test]
    fn contradictory_pin_is_infeasible() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, 0]); // x >= 0
        cs.add_ineq(vec![-1, 2]); // x <= 2
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.pin_eq(&[1, -7]).unwrap()); // x == 7 is out of the box
        assert!(!lp.is_feasible());
        assert_eq!(lp.minimize(&[1]), Ok(LpOutcome::Infeasible));
    }

    #[test]
    fn chained_pins_stay_exact() {
        // Lexmin over the 3-simplex x + y + z == 6, all >= 0: pin the
        // first two coordinates one after the other.
        let mut cs = ConstraintSystem::new(3);
        cs.add_eq(vec![1, 1, 1, -6]);
        cs.add_ineq(vec![1, 0, 0, 0]);
        cs.add_ineq(vec![0, 1, 0, 0]);
        cs.add_ineq(vec![0, 0, 1, 0]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1, 0, 0]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0));
        assert!(lp.pin_eq(&[1, 0, 0, 0]).unwrap());
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[0, 1, 0]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0));
        assert!(lp.pin_eq(&[0, 1, 0, 0]).unwrap());
        let LpOutcome::Optimal { value, point } = lp.minimize(&[0, 0, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(6));
        assert_eq!(point[2], Rat::from(6));
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let cs = overflowing_system();
        assert_eq!(lp_minimize(&cs, &[1, 1, 1]), Err(MathError::Overflow));
        assert_eq!(lp_feasible(&cs), Err(MathError::Overflow));
        assert_eq!(IncrementalLp::new(&cs).err(), Some(MathError::Overflow));
        // An input that cannot be negated is refused at the door.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![i64::MIN, 0]);
        assert_eq!(lp_minimize(&cs, &[1]), Err(MathError::Overflow));
        // So is a right-hand side, a signed cell like any other — while
        // the widest one that is a cell is solved, not wrapped.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, i64::MIN]);
        assert_eq!(lp_feasible(&cs), Err(MathError::Overflow));
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -i64::MAX]);
        assert_eq!(optimal(&cs, &[1]).0, Rat::from(i128::from(i64::MAX)));
    }

    #[test]
    fn an_overflowing_pin_poisons_the_tableau() {
        // x in [0, 2^62] maximized: reducing the pinned row 4x + y == 5
        // by the row that holds x = 2^62 needs 4 · 2^62.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![-1, 0, 1 << 62]);
        cs.add_ineq(vec![0, -1, 1]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(lp.minimize(&[-1, 0]).is_ok());
        assert_eq!(lp.pin_eq(&[4, 1, -5]), Err(MathError::Overflow));
        // Half-pivoted: every later call repeats the error.
        assert!(!lp.is_feasible());
        assert_eq!(lp.minimize(&[1, 0]), Err(MathError::Overflow));
        assert_eq!(lp.pin_eq(&[1, 0, 0]), Err(MathError::Overflow));
    }

    #[test]
    fn rows_sharing_a_large_factor_stay_narrow() {
        // 2^40 · {x + 2y >= 4, 3x + y >= 3, x + y <= 10}: the slacks
        // count in units of 2^-40, so entries of that size are the
        // rationals themselves — but each row keeps one factor of it, in
        // its denominator, where unreduced rows would be at 2^80 by the
        // second pivot.
        const K: i64 = 1 << 40;
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![K, 2 * K, -4 * K]);
        cs.add_ineq(vec![3 * K, K, -3 * K]);
        cs.add_ineq(vec![-K, -K, 10 * K]);
        let mut tab = Tableau::build(&cs).unwrap();
        assert_eq!(tab.phase1(&cs), Ok(true));
        let widest = tab.cells.iter().chain(&tab.den).map(|v| v.abs()).max();
        assert!(widest < Some(100 * K), "{:?} / {:?}", tab.cells, tab.den);
        assert_eq!(
            tab.phase2(&[1, 1]),
            Ok(LpOutcome::Optimal {
                value: Rat::new(11, 5),
                point: vec![Rat::new(2, 5), Rat::new(9, 5)],
            })
        );
    }

    #[test]
    fn the_tableau_is_structurals_and_slacks_from_build_on() {
        // n = 2, three inequalities and two equalities, one of them
        // redundant: no column is made for any row beyond its slack,
        // and the equality the tableau already implies adds no row.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![-1, -1, 8]);
        cs.add_eq(vec![1, -1, 0]);
        cs.add_eq(vec![2, -2, 0]);
        let mut tab = Tableau::build(&cs).unwrap();
        assert_eq!((tab.width, tab.den.len()), (2 * 2 + 3, 3));
        assert_eq!(tab.phase1(&cs), Ok(true));
        assert_eq!((tab.width, tab.den.len()), (2 * 2 + 3, 4));
        assert_eq!(tab.cells.len(), 4 * (tab.width + 1));
        assert!(tab.basis.iter().all(|&b| b < tab.width));
    }

    #[test]
    fn a_box_needs_no_phase1_pivot() {
        // 0 <= x_j <= B: x = 0 violates no row, so the slack basis is
        // feasible as built.
        let mut cs = ConstraintSystem::new(3);
        for j in 0..3 {
            let mut lo = vec![0i64; 4];
            lo[j] = 1;
            cs.add_ineq(lo);
            let mut hi = vec![0i64; 4];
            (hi[j], hi[3]) = (-1, 7);
            cs.add_ineq(hi);
        }
        let mut tab = Tableau::build(&cs).unwrap();
        assert_eq!(tab.phase1(&cs), Ok(true));
        assert_eq!(tab.dual_pivots, 0);
        assert_eq!(tab.basis, (6..12).collect::<Vec<_>>());
        // A lower bound above zero costs the pivot that moves x there,
        // and it is phase 1's, not a pin's.
        cs.add_ineq(vec![1, 0, 0, -2]);
        let lp = IncrementalLp::new(&cs).unwrap();
        assert!(lp.is_feasible());
        assert_eq!((lp.tab.dual_pivots, lp.dual_pivots()), (1, 0));
    }

    #[test]
    fn the_pivot_cap_is_an_error_never_a_proof() {
        // 2 <= x <= 5, 3 <= y <= 5: phase 1 needs two pivots.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, -2]);
        cs.add_ineq(vec![-1, 0, 5]);
        cs.add_ineq(vec![0, 1, -3]);
        cs.add_ineq(vec![0, -1, 5]);
        assert_eq!(lp_feasible(&cs), Ok(true));
        assert!(ineq_implied(&cs, &[1, 0, -1]), "x >= 1 holds on the box");
        PIVOT_CAP.set(Some(1));
        assert_eq!(lp_feasible(&cs), Err(MathError::PivotLimit));
        assert_eq!(lp_minimize(&cs, &[1, 1]), Err(MathError::PivotLimit));
        assert_eq!(IncrementalLp::new(&cs).err(), Some(MathError::PivotLimit));
        // `deps` reads `!ilp_feasible` as proof that no dependence
        // exists, codegen reads `ineq_implied` as leave to drop a guard.
        assert!(ilp_feasible(&cs), "a point may exist");
        assert!(!ineq_implied(&cs, &[1, 0, -1]), "the guard stays");
        // A proof of infeasibility within the cap still reads as one.
        let mut empty = ConstraintSystem::new(1);
        empty.add_ineq(vec![1, -5]);
        empty.add_ineq(vec![-1, 2]);
        assert_eq!(lp_feasible(&empty), Ok(false));
        PIVOT_CAP.set(None);
    }

    /// Every basic value of a feasible tableau is non-negative.
    fn primal_feasible(lp: &IncrementalLp) -> bool {
        lp.tab.rows().all(|row| row[lp.tab.width] >= 0)
    }

    #[test]
    fn a_pushed_row_is_repaired_and_a_rollback_takes_it_back() {
        // Box [0,3]²: pushing x + y >= 5 cuts the vertex (0,0) off and
        // costs dual pivots; the rollback gives the box back.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 3]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let before = lp.snapshot();
        assert_eq!(lp.push_ineq(&[1, 1, -5]), Ok(true));
        assert!(lp.dual_pivots() >= 1 && primal_feasible(&lp));
        assert!(lp.implies(&[1, 0, -2]), "x >= 2 once x + y >= 5");
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(5));
        // A second row that empties the set is a verdict, not an error.
        assert_eq!(lp.push_ineq(&[-1, -1, 4]), Ok(false));
        assert!(!lp.is_feasible());
        assert!(lp.implies(&[0, 0, -1]), "the empty set implies anything");
        lp.rollback(before);
        assert!(lp.is_feasible() && lp.dual_pivots() == 0);
        assert!(!lp.implies(&[1, 0, -2]));
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0));
    }

    #[test]
    fn pushes_beyond_the_spare_block_re_lay_the_rows_out() {
        // More pushes than `new` left room for, equalities in between:
        // x >= k for k = 1..=10 on x in [0, 20] with y == x.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 20]);
        cs.add_eq(vec![1, -1, 0]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let room = lp.tab.stride;
        for k in 1..=10 {
            assert_eq!(lp.push_ineq(&[1, 0, -k]), Ok(true));
        }
        assert!(lp.tab.stride > room && primal_feasible(&lp));
        assert_eq!(lp.tab.width, 2 * 2 + 2 + 10);
        let LpOutcome::Optimal { value, point } = lp.minimize(&[0, 1]).unwrap() else {
            panic!()
        };
        assert_eq!((value, point), (Rat::from(10), vec![Rat::from(10); 2]));
        // And a copy over more variables keeps every row and slack.
        let mut wide = lp.with_vars(2, 1);
        assert_eq!(wide.num_vars(), 4);
        assert_eq!(wide.push_ineq(&[-1, 0, 1, 0, 0]), Ok(true)); // z >= x
        let LpOutcome::Optimal { value, .. } = wide.minimize(&[0, 0, 1, 0]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(10));
        assert_eq!(wide.minimize(&[0, 0, 0, 1]), Ok(LpOutcome::Unbounded));
    }

    #[test]
    fn dropping_a_tight_row_keeps_every_other_row_feasible() {
        // x >= 2, x >= 0, x >= -3 and nothing above: at the vertex
        // x = 2 the first slack is non-basic and its column has no
        // positive entry, so it can only enter *downwards*, and only as
        // far as x >= 0 lets it.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -2]);
        cs.add_ineq(vec![1, 0]);
        cs.add_ineq(vec![1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.tab.basis.contains(&2), "x >= 2 is tight at the vertex");
        lp.drop_ineq(0).unwrap();
        assert!(lp.is_feasible() && primal_feasible(&lp));
        assert!(lp.implies(&[1, 0]) && !lp.implies(&[1, -1]));
        // Of two identical rows either can go, but not both: the second
        // is tested against a system the first has really left.
        let mut twice = ConstraintSystem::new(1);
        twice.add_ineq(vec![1, -2]);
        twice.add_ineq(vec![1, -2]);
        let mut lp = IncrementalLp::new(&twice).unwrap();
        lp.drop_ineq(0).unwrap();
        assert!(lp.implies(&[1, -2]), "its twin still holds x >= 2");
        lp.drop_ineq(1).unwrap();
        assert!(!lp.implies(&[1, -2]) && primal_feasible(&lp));
    }

    #[test]
    fn a_dropped_slack_leaves_downwards_along_the_edge_that_violates_its_row() {
        // x >= 2, x <= 5, x >= -3: phase 1 stops at x = 2 with the first
        // slack non-basic. Its column is positive in the row of x <= 5
        // and negative in the other two, so it could leave either way;
        // downwards x = 2 is the first value to reach 0 (at t = 2),
        // before x >= -3 (at t = 5).
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -2]);
        cs.add_ineq(vec![-1, 5]);
        cs.add_ineq(vec![1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.tab.basis.contains(&2), "x >= 2 is tight at the vertex");
        lp.drop_ineq(0).unwrap();
        assert!(lp.is_feasible() && primal_feasible(&lp));
        assert_eq!(lp.primal_pivots(), 1);
        assert_eq!(lp.tab.vertex(), vec![Rat::from(0)], "the row reads -2 here");
        assert!(lp.implies(&[1, 3]) && lp.implies(&[-1, 5]));
        assert!(!lp.implies(&[1, 0]), "nothing but x >= -3 bounds x below");
    }

    #[test]
    fn a_tight_row_at_a_non_degenerate_vertex_is_refuted_with_no_pivot() {
        // The system above: at x = 2 every row the slack of x >= 2 would
        // lower going negative has a positive value, so the vertex
        // itself refutes the row, and it stays in the system.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -2]);
        cs.add_ineq(vec![-1, 5]);
        cs.add_ineq(vec![1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(lp.tab.refuted_at_vertex(2));
        assert!(!lp.redundant(0, &[1, -2]));
        assert_eq!((lp.primal_pivots(), lp.dual_pivots()), (0, 0));
        assert!(lp.implies(&[1, -2]), "x >= 2 is still there");
        // x <= 5 is slack (basic) at x = 2: the LP refutes it, off a
        // rolled-back drop, and keeps it too.
        assert!(!lp.redundant(1, &[-1, 5]));
        assert!(lp.implies(&[-1, 5]) && primal_feasible(&lp));
    }

    #[test]
    fn a_degenerate_vertex_leaves_the_question_to_the_lp() {
        // x >= 2, y >= -5, x - y >= 2. Phase 1 moves x to 2 and leaves
        // the slack of x - y >= 2 basic at 0 with a negative entry in
        // the column of x >= 2: no inspection can move that slack down.
        // The LP refutes x >= 2 all the same (x >= y + 2 >= -3)…
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, -2]);
        cs.add_ineq(vec![0, 1, 5]);
        cs.add_ineq(vec![1, -1, -2]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.tab.basis.contains(&4) && !lp.tab.refuted_at_vertex(4));
        assert!(!lp.redundant(0, &[1, 0, -2]));
        assert!(lp.primal_pivots() >= 2, "the drop's pivot, then the LP's");
        assert!(lp.implies(&[1, 0, -2]) && lp.implies(&[1, -1, -2]));
        // …and proves it implied once y >= 0 replaces y >= -5.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, -2]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![1, -1, -2]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.tab.refuted_at_vertex(4));
        assert!(lp.redundant(0, &[1, 0, -2]));
        assert!(lp.implies(&[1, 0, -2]) && primal_feasible(&lp));
        assert!(!lp.redundant(2, &[1, -1, -2]) && lp.implies(&[1, -1, -2]));
    }

    #[test]
    fn a_row_no_other_row_stops_going_down_is_refuted() {
        // 0 <= x <= 5, maximized: x = 5 with the slack of x <= 5
        // non-basic, and its column positive in every row — lowering it
        // only raises x and the slack of x >= 0.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, 0]);
        cs.add_ineq(vec![-1, 5]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(matches!(lp.minimize(&[-1]), Ok(LpOutcome::Optimal { .. })));
        let slack = 3;
        assert!(!lp.tab.basis.contains(&slack));
        assert!(lp.tab.rows().all(|row| row[slack] >= 0));
        let spent = lp.primal_pivots();
        assert!(!lp.redundant(1, &[-1, 5]));
        assert_eq!(lp.primal_pivots(), spent);
        assert!(lp.implies(&[-1, 5]));
    }

    #[test]
    fn an_implication_stops_at_the_first_basis_that_refutes_it() {
        // 0 <= x, y <= 10 from the origin: x + y >= 1 is refuted where
        // it starts, with no pivot, and x + y <= 5 after the first of
        // the two pivots its maximum needs (x = 10, then y = 10).
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 10]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 10]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(!lp.implies(&[1, 1, -1]));
        assert_eq!(lp.primal_pivots(), 0);
        assert!(!lp.implies(&[-1, -1, 5]));
        assert_eq!(lp.primal_pivots(), 1);
        // Proving one implied runs to the optimum: x + y <= 20.
        assert!(lp.implies(&[-1, -1, 20]));
        assert_eq!(lp.primal_pivots(), 2);
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(0), "the box is whole");
    }

    #[test]
    fn a_row_that_is_an_equality_of_the_face_is_not_droppable() {
        // 0 <= x <= 1, 0 <= y <= 3, x + y >= 2. Minimizing x + y onto
        // its face fixes the slack of the last row at zero: on the face
        // the row reads x + y == 2, and dropping it leaves it there.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 1]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 3]);
        cs.add_ineq(vec![1, 1, -2]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let LpOutcome::Optimal { value, .. } = lp.minimize_onto_face(&[1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(2));
        let rows = lp.tab.den.len();
        lp.drop_ineq(4).unwrap();
        assert!(lp.is_feasible() && primal_feasible(&lp));
        assert_eq!(lp.tab.den.len(), rows);
        assert!(lp.implies(&[-1, -1, 2]), "x + y <= 2 on the face still");
        // A row the face does not fix goes as it always did: without
        // x <= 1 the face reaches x = 2, where y >= 0 stops it.
        lp.drop_ineq(1).unwrap();
        assert_eq!(lp.tab.den.len(), rows - 1);
        assert!(primal_feasible(&lp) && lp.implies(&[-1, -1, 2]));
        assert!(!lp.implies(&[-1, 0, 1]) && lp.implies(&[-1, 0, 2]));
    }

    #[test]
    fn a_stage_that_ends_on_its_face_adds_no_row_and_takes_no_pivot() {
        // Lexmin (x, y) over the box [0,2]² with x + y >= 2, a stage at
        // a time: both vertices are integral, so both stages end by
        // restriction and the tableau keeps the rows phase 1 left it.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 2]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 2]);
        cs.add_ineq(vec![1, 1, -2]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let rows = lp.tab.den.len();
        let whole = lp.snapshot();
        let Stage::Integral(point) = lp.lexmin_stage(&[1, 0]).unwrap() else {
            panic!()
        };
        assert_eq!(point[0], 0);
        let Stage::Integral(point) = lp.lexmin_stage(&[0, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(point, vec![0, 2]);
        assert_eq!((lp.tab.den.len(), lp.dual_pivots()), (rows, 0));
        // The faces hold under any later objective, and a snapshot taken
        // before them gives the box back.
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[-1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(2), "one point is left, (0, 2)");
        lp.rollback(whole);
        let LpOutcome::Optimal { value, .. } = lp.minimize(&[-1, 1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::from(-2));

        // A fractional vertex is no integer optimum and restricts
        // nothing: 1/2 <= x <= 3 is whole after its stage, and the pin
        // of the integer optimum is the one row more.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, -1]);
        cs.add_ineq(vec![-1, 3]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let rows = lp.tab.den.len();
        let Stage::Relaxed(Bound::Value(value)) = lp.lexmin_stage(&[1]).unwrap() else {
            panic!()
        };
        assert_eq!(value, Rat::new(1, 2));
        assert!(!lp.implies(&[-1, 2]), "x = 3 is still there");
        assert_eq!(lp.pin_eq(&[1, -1]), Ok(true));
        assert_eq!(lp.tab.den.len(), rows + 1);
    }

    #[test]
    fn a_failed_push_poisons_its_snapshot_only() {
        // The overflow of `an_overflowing_pin_poisons_the_tableau`, as
        // a pushed inequality: every later call repeats the error until
        // the tableau is rolled back, and then answers as if never asked.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![-1, 0, 1 << 62]);
        cs.add_ineq(vec![0, -1, 1]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        assert!(lp.minimize(&[-1, 0]).is_ok());
        let before = lp.snapshot();
        assert_eq!(lp.push_ineq(&[4, 1, -5]), Err(MathError::Overflow));
        assert!(!lp.is_feasible());
        assert_eq!(lp.push_ineq(&[1, 0, 0]), Err(MathError::Overflow));
        assert!(!lp.implies(&[1, 0, 0]), "a guard stays");
        let mut nodes = 0;
        assert!(lp.may_have_integer_point(&mut nodes), "a point may exist");
        lp.rollback(before);
        assert!(lp.is_feasible() && lp.implies(&[1, 0, 0]));
        assert_eq!(lp.push_ineq(&[1, 1, -1]), Ok(true));

        // The pivot cap, likewise: 2 <= x <= 5 is solved, then a push
        // that needs a pivot is refused one.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, -2]);
        cs.add_ineq(vec![-1, 0, 5]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 5]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let before = lp.snapshot();
        PIVOT_CAP.set(Some(0));
        assert_eq!(lp.push_ineq(&[0, 1, -3]), Err(MathError::PivotLimit));
        assert!(lp.may_have_integer_point(&mut nodes) && !lp.implies(&[1, 0, -1]));
        PIVOT_CAP.set(None);
        assert_eq!(lp.push_ineq(&[0, 1, -3]), Err(MathError::PivotLimit));
        lp.rollback(before);
        assert_eq!(lp.push_ineq(&[0, 1, -3]), Ok(true));
        assert!(lp.implies(&[1, 0, -1]) && lp.may_have_integer_point(&mut nodes));
        assert_eq!(lp.push_ineq(&[0, -1, 2]), Ok(false), "3 <= y <= 2");
        assert!(
            !lp.may_have_integer_point(&mut nodes),
            "a proof of emptiness"
        );
    }

    #[test]
    fn degenerate_redundant_rows() {
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![1, 0, 0]); // duplicate
        cs.add_eq(vec![1, -1, 0]);
        cs.add_eq(vec![2, -2, 0]); // redundant equality
        cs.add_ineq(vec![-1, 0, 3]);
        let (v, _) = optimal(&cs, &[1, 1]);
        assert_eq!(v, Rat::from(0));
    }
}
