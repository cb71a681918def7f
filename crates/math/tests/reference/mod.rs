//! The `Rat` tableau the integer tableau in `src/simplex.rs` replaced,
//! kept as the independent oracle of the differential proptests: a
//! two-phase primal simplex with one artificial column per row, on
//! gcd-normalized `i128/i128` rationals. The crate's phase 1 is a dual
//! simplex from the slack basis, so the two take different pivots to
//! the same verdicts and optimal values.
//!
//! [`linalg`] holds the rational references of the rank kernel.

pub mod linalg;

use polytops_math::{ConstraintSystem, LpOutcome, Rat, RowKind};

/// `lp_minimize` on the reference tableau.
pub fn lp_minimize(cs: &ConstraintSystem, objective: &[i64]) -> LpOutcome {
    assert_eq!(objective.len(), cs.num_vars(), "objective length mismatch");
    Tableau::build(cs).solve(objective)
}

/// Dense simplex tableau in standard form `A z = b, z >= 0`.
///
/// Column layout: `[x⁺ (n), x⁻ (n), slacks (m_ineq), artificials (m)]`.
struct Tableau {
    n: usize,            // original variables
    ncols: usize,        // structural + slack columns (no artificials)
    nart: usize,         // artificial columns
    rows: Vec<Vec<Rat>>, // m rows of length ncols + nart, plus rhs column appended
    rhs: Vec<Rat>,
    basis: Vec<usize>, // basic column per row
}

/// Sentinel basis entry for a freshly appended row before its first
/// pivot assigns a real basic column. Never read as a column index: the
/// appending code pivots (or discards the row) before returning.
const NO_BASIS: usize = usize::MAX;

impl Tableau {
    fn build(cs: &ConstraintSystem) -> Tableau {
        let n = cs.num_vars();
        let m = cs.len();
        let num_ineq = cs.iter().filter(|(k, _)| *k == RowKind::Ineq).count();
        let ncols = 2 * n + num_ineq;
        let nart = m;
        let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(m);
        let mut rhs: Vec<Rat> = Vec::with_capacity(m);
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        let mut slack_idx = 0usize;
        for (ri, (kind, row)) in cs.iter().enumerate() {
            // Row semantics: a·x + c (>=|==) 0  =>  a·x (>=|==) -c.
            let mut r = vec![Rat::ZERO; ncols + nart];
            let mut b = Rat::from(-row[n]);
            let mut sign = Rat::ONE;
            if b.is_negative() {
                sign = -Rat::ONE;
                b = -b;
            }
            for j in 0..n {
                let a = sign * Rat::from(row[j]);
                r[j] = a;
                r[n + j] = -a;
            }
            if kind == RowKind::Ineq {
                // a·x - s = -c with s >= 0 (after sign normalization the
                // slack coefficient is -sign).
                r[2 * n + slack_idx] = -sign;
                slack_idx += 1;
            }
            // Artificial variable for this row.
            r[ncols + ri] = Rat::ONE;
            basis.push(ncols + ri);
            rows.push(r);
            rhs.push(b);
        }
        Tableau {
            n,
            ncols,
            nart,
            rows,
            rhs,
            basis,
        }
    }

    fn solve(mut self, objective: &[i64]) -> LpOutcome {
        if !self.phase1() {
            return LpOutcome::Infeasible;
        }
        match self.phase2(objective) {
            None => LpOutcome::Unbounded,
            Some((value, point)) => LpOutcome::Optimal { value, point },
        }
    }

    /// Phase 1: minimize the sum of artificials; `true` iff feasible
    /// (remaining artificials are driven out of the basis).
    fn phase1(&mut self) -> bool {
        let mut cost1 = vec![Rat::ZERO; self.ncols + self.nart];
        for c in cost1.iter_mut().skip(self.ncols) {
            *c = Rat::ONE;
        }
        // Phase 1 is bounded below by 0, so `optimize` cannot return None.
        let Some((z1, _)) = self.optimize(&cost1, /*restrict_arts=*/ false) else {
            return false;
        };
        if z1.is_positive() {
            return false;
        }
        self.expel_artificials();
        true
    }

    /// Phase 2: the original objective on x⁺/x⁻ columns, starting from
    /// the current (feasible) basis. `None` means unbounded.
    fn phase2(&mut self, objective: &[i64]) -> Option<(Rat, Vec<Rat>)> {
        let mut cost2 = vec![Rat::ZERO; self.ncols + self.nart];
        for j in 0..self.n {
            cost2[j] = Rat::from(objective[j]);
            cost2[self.n + j] = -Rat::from(objective[j]);
        }
        self.optimize(&cost2, /*restrict_arts=*/ true)
    }

    /// Appends the equality `row · x + c == 0` to a solved tableau and
    /// restores feasibility with **dual-simplex** pivots on the existing
    /// basis: after reducing the new row by the basic columns, the
    /// tableau is primal-infeasible by exactly that row, and dual pivots
    /// repair it without any artificial variable or phase-1 pass.
    /// Returns `false` when the pinned system becomes infeasible.
    ///
    /// The pivot rule is Bland's dual rule under the zero cost vector:
    /// every reduced cost is identically zero, so the tableau is
    /// trivially dual-feasible throughout, every entering ratio ties at
    /// zero, and smallest-index tie-breaks make the walk finite (and
    /// deterministic).
    fn add_eq_row(&mut self, row: &[i64]) -> bool {
        let n = self.n;
        let width = self.ncols + self.nart;
        // Raw row over [x⁺, x⁻, slacks, artificials], rhs = -c.
        let mut r = vec![Rat::ZERO; width];
        let mut b = Rat::from(-row[n]);
        for j in 0..n {
            let a = Rat::from(row[j]);
            r[j] = a;
            r[n + j] = -a;
        }
        // Reduce by the current basis so basic columns keep their
        // identity structure in the new row.
        for i in 0..self.rows.len() {
            let f = r[self.basis[i]];
            if f.is_zero() {
                continue;
            }
            let pivot_rhs = self.rhs[i];
            let pivot_row = self.rows[i].clone();
            for (v, pv) in r.iter_mut().zip(&pivot_row) {
                if !pv.is_zero() {
                    let s = f * *pv;
                    *v -= s;
                }
            }
            b -= f * pivot_rhs;
        }
        // Dual-simplex sign convention: the appended row enters with a
        // non-positive residual so it reads as the one infeasible row.
        if b.is_positive() {
            for v in &mut r {
                *v = -*v;
            }
            b = -b;
        }
        if r[..self.ncols].iter().all(|v| v.is_zero()) {
            // No structural support left after reduction: the equality
            // is implied (zero residual) or contradicts the system. The
            // residual may still touch artificial columns, but those are
            // zero on every feasible point, so they cannot carry it.
            return b.is_zero();
        }
        self.rows.push(r);
        self.rhs.push(b);
        self.basis.push(NO_BASIS);
        if b.is_zero() {
            // The current vertex already satisfies the equality: one
            // degenerate pivot gives the row a basic column without
            // moving the point (rhs 0 leaves every other row intact).
            let new_row = self.rows.len() - 1;
            let je = (0..self.ncols)
                .find(|&j| !self.rows[new_row][j].is_zero())
                .expect("structural support checked above");
            self.pivot(new_row, je);
            return true;
        }
        self.dual_reoptimize()
    }

    /// The dual-simplex loop: while some row is primal-infeasible
    /// (negative rhs), pivot it feasible. Returns `false` on proven
    /// primal infeasibility, and when the pivot cap is hit.
    fn dual_reoptimize(&mut self) -> bool {
        let cap = 4 * (self.ncols + self.nart + self.rows.len());
        let mut steps = 0usize;
        loop {
            // Leaving row: Bland — smallest basic index among the
            // infeasible rows (a fresh `NO_BASIS` row sorts last but is
            // the only infeasible row when it is present).
            let Some(li) = (0..self.rows.len())
                .filter(|&i| self.rhs[i].is_negative())
                .min_by_key(|&i| self.basis[i])
            else {
                return true;
            };
            if steps >= cap {
                return false;
            }
            steps += 1;
            // Entering column: smallest-index eligible column with a
            // negative entry (all reduced-cost ratios tie at zero under
            // the zero cost vector — see `add_eq_row`).
            let Some(je) = (0..self.ncols)
                .find(|&j| self.rows[li][j].is_negative() && !self.basis.contains(&j))
            else {
                return false; // the row cannot be made feasible
            };
            self.pivot(li, je);
        }
    }

    /// Runs the simplex loop for the given cost vector. Returns
    /// `(objective value, original-variable point)` or `None` if unbounded.
    fn optimize(&mut self, cost: &[Rat], restrict_arts: bool) -> Option<(Rat, Vec<Rat>)> {
        let total_cols = self.ncols + self.nart;
        // Reduced costs are computed on demand: c_j - c_B · B⁻¹ A_j. Since we
        // keep the tableau fully updated (rows are B⁻¹ A), the reduced cost
        // is c_j - sum_i c_{basis[i]} * rows[i][j].
        let mut iters = 0usize;
        let max_dantzig = 4 * (total_cols + self.rows.len());
        loop {
            iters += 1;
            let bland = iters > max_dantzig;
            // Compute multipliers y_i = cost of basic var in row i.
            let cb: Vec<Rat> = self.basis.iter().map(|&j| cost[j]).collect();
            // Entering column: negative reduced cost.
            let mut enter: Option<(usize, Rat)> = None;
            for j in 0..total_cols {
                if restrict_arts && j >= self.ncols {
                    continue; // artificials stay out in phase 2
                }
                if self.basis.contains(&j) {
                    continue;
                }
                let mut red = cost[j];
                for (i, r) in self.rows.iter().enumerate() {
                    if !cb[i].is_zero() && !r[j].is_zero() {
                        red -= cb[i] * r[j];
                    }
                }
                if red.is_negative() {
                    if bland {
                        enter = Some((j, red));
                        break;
                    }
                    match &enter {
                        None => enter = Some((j, red)),
                        Some((_, best)) if red < *best => enter = Some((j, red)),
                        _ => {}
                    }
                }
            }
            let Some((je, _)) = enter else {
                // Optimal: compute value and point.
                let mut point = vec![Rat::ZERO; self.n];
                for (i, &bj) in self.basis.iter().enumerate() {
                    if bj < self.n {
                        point[bj] += self.rhs[i];
                    } else if bj < 2 * self.n {
                        point[bj - self.n] -= self.rhs[i];
                    }
                }
                let mut value = Rat::ZERO;
                for (i, &bj) in self.basis.iter().enumerate() {
                    if !cost[bj].is_zero() {
                        value += cost[bj] * self.rhs[i];
                    }
                }
                return Some((value, point));
            };
            // Ratio test (Bland tie-break on basis index).
            let mut leave: Option<(usize, Rat)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][je];
                if a.is_positive() {
                    let ratio = self.rhs[i] / a;
                    match &leave {
                        None => leave = Some((i, ratio)),
                        Some((li, best)) => {
                            if ratio < *best || (ratio == *best && self.basis[i] < self.basis[*li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((li, _)) = leave else {
                return None; // unbounded
            };
            self.pivot(li, je);
        }
    }

    fn pivot(&mut self, li: usize, je: usize) {
        let p = self.rows[li][je];
        let inv = p.recip();
        for v in &mut self.rows[li] {
            *v *= inv;
        }
        self.rhs[li] *= inv;
        let pivot_row = self.rows[li].clone();
        let pivot_rhs = self.rhs[li];
        for i in 0..self.rows.len() {
            if i == li {
                continue;
            }
            let f = self.rows[i][je];
            if f.is_zero() {
                continue;
            }
            for (v, pv) in self.rows[i].iter_mut().zip(&pivot_row) {
                if !pv.is_zero() {
                    let s = f * *pv;
                    *v -= s;
                }
            }
            let s = f * pivot_rhs;
            self.rhs[i] -= s;
        }
        self.basis[li] = je;
    }

    /// After phase 1, pivots remaining artificial basics to structural
    /// columns (or leaves degenerate zero rows harmlessly basic).
    fn expel_artificials(&mut self) {
        for i in 0..self.rows.len() {
            if self.basis[i] >= self.ncols {
                // Find a structural column with nonzero entry to pivot in.
                if let Some(j) = (0..self.ncols).find(|&j| !self.rows[i][j].is_zero()) {
                    self.pivot(i, j);
                }
                // Otherwise the row is all-zero over structurals (redundant
                // constraint); its rhs must be zero after a feasible phase 1.
            }
        }
    }
}

/// `IncrementalLp` on the reference tableau.
pub struct IncrementalLp {
    tab: Tableau,
    feasible: bool,
}

impl IncrementalLp {
    pub fn new(cs: &ConstraintSystem) -> IncrementalLp {
        let mut tab = Tableau::build(cs);
        let feasible = tab.phase1();
        IncrementalLp { tab, feasible }
    }

    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    pub fn minimize(&mut self, objective: &[i64]) -> LpOutcome {
        assert_eq!(objective.len(), self.tab.n, "objective length mismatch");
        if !self.feasible {
            return LpOutcome::Infeasible;
        }
        match self.tab.phase2(objective) {
            None => LpOutcome::Unbounded,
            Some((value, point)) => LpOutcome::Optimal { value, point },
        }
    }

    pub fn pin_eq(&mut self, row: &[i64]) -> bool {
        assert_eq!(row.len(), self.tab.n + 1, "row length mismatch");
        if !self.feasible {
            return false;
        }
        self.feasible = self.tab.add_eq_row(row);
        self.feasible
    }
}
