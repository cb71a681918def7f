//! Branch-and-bound integer linear programming on top of the exact
//! simplex, including the lexicographic minimization the
//! iterative scheduler relies on (Pluto/PIP-style `lexmin`).

use crate::consys::ConstraintSystem;
use crate::error::{MathError, Result};
use crate::num::{ceil_div, floor_div, gcd_slice};
use crate::simplex::{Bound, IncrementalLp, Snapshot, Stage};

/// Result of an integer linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpOutcome {
    /// No integer point satisfies the constraints.
    Infeasible,
    /// The relaxation is unbounded in the objective direction.
    Unbounded,
    /// Proven integer optimum.
    Optimal {
        /// Minimal objective value.
        value: i64,
        /// An integer point attaining it.
        point: Vec<i64>,
    },
    /// The node budget was exhausted before optimality was proven; the
    /// best incumbent found (if any) is reported.
    NodeLimit {
        /// Best integer solution discovered before truncation.
        best: Option<(i64, Vec<i64>)>,
    },
}

/// Default branch-and-bound node budget.
const MAX_NODES: usize = 50_000;

/// Cumulative solver-effort counters of [`ilp_lexmin`]: where a
/// lexicographic solve spent its work (LP stages, branch-and-bound
/// nodes, dual pivots).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IlpStats {
    /// Branch-and-bound nodes explored (each node is its parent's
    /// tableau plus one bound row, re-optimized).
    pub nodes: usize,
    /// Lexmin stages resolved purely by incremental LP re-optimization
    /// on the shared tableau (no branch and bound at all).
    pub lp_stages: usize,
    /// Branch-and-bound entries whose *root* relaxation vertex was
    /// fractional, i.e. stages where pure LP re-optimization could not
    /// finish and real branching began: every unit here pays for both a
    /// simplex solve and a tree search.
    pub fractional_stages: usize,
    /// Dual-simplex pivots spent pinning stage optima on the shared
    /// incremental tableau. Only a fractional stage pins — its integer
    /// optimum lies above the relaxation's — so a cascade whose every
    /// vertex is integral counts none: its stages end by face
    /// restriction, which takes no pivot.
    pub dual_pivots: usize,
    /// Always 0: the phase-1 fallback it counted is gone (a pin at the
    /// dual pivot cap is an error), but perfbench and the `stats` bytes
    /// read the field until a `benchmark` PR drops it.
    pub phase1_passes: usize,
}

impl IlpStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &IlpStats) {
        self.nodes += other.nodes;
        self.lp_stages += other.lp_stages;
        self.fractional_stages += other.fractional_stages;
        self.dual_pivots += other.dual_pivots;
        self.phase1_passes += other.phase1_passes;
    }
}

/// Minimizes an integer objective `obj · x` over the integer points of
/// `cs` by depth-first branch and bound.
///
/// # Errors
///
/// [`MathError::Overflow`] when a relaxation
/// outgrew the simplex tableau: nothing is proven about `cs` then.
///
/// # Examples
///
/// ```
/// use polytops_math::{ilp_minimize, ConstraintSystem, IlpOutcome};
///
/// // minimize x subject to 2x >= 3 (integer): x = 2.
/// let mut cs = ConstraintSystem::new(1);
/// cs.add_ineq(vec![2, -3]);
/// match ilp_minimize(&cs, &[1]).unwrap() {
///     IlpOutcome::Optimal { value, point } => {
///         assert_eq!(value, 2);
///         assert_eq!(point, vec![2]);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn ilp_minimize(cs: &ConstraintSystem, obj: &[i64]) -> Result<IlpOutcome> {
    ilp_minimize_impl(cs, obj, &mut IlpStats::default())
}

/// The one-question form of [`IncrementalLp::int_minimize`]: `cs` is
/// normalized (gcd tightening, dedup, subsumption), its tableau built,
/// the search run and the tableau dropped.
fn ilp_minimize_impl(
    cs: &ConstraintSystem,
    obj: &[i64],
    stats: &mut IlpStats,
) -> Result<IlpOutcome> {
    assert_eq!(obj.len(), cs.num_vars(), "objective length mismatch");
    let mut root = cs.clone();
    if !root.normalize() {
        return Ok(IlpOutcome::Infeasible);
    }
    // The root relaxation is node 1 whether or not its phase 1 ends.
    let mut lp = IncrementalLp::new(&root).inspect_err(|_| stats.nodes += 1)?;
    lp.int_minimize(obj, stats)
}

impl IncrementalLp {
    /// [`push_ineq`](IncrementalLp::push_ineq) for a row over integer
    /// variables: the coefficients are divided by their gcd and the
    /// constant floored first, as [`ConstraintSystem::normalize`] would
    /// have done had the row been in the system the tableau was built
    /// from.
    ///
    /// # Errors
    ///
    /// As [`push_ineq`](IncrementalLp::push_ineq).
    pub fn push_int_ineq(&mut self, row: &[i64]) -> Result<bool> {
        let n = row.len() - 1;
        let g = gcd_slice(&row[..n]);
        if g <= 1 {
            return self.push_ineq(row);
        }
        let mut tight: Vec<i64> = row[..n].iter().map(|v| v / g).collect();
        tight.push(floor_div(row[n], g));
        self.push_ineq(&tight)
    }

    /// [`pin_eq`](IncrementalLp::pin_eq) for a row over integer
    /// variables: when the gcd of the coefficients does not divide the
    /// constant no integer point satisfies the row, and the system is
    /// marked empty by pinning `0 == 1`.
    ///
    /// # Errors
    ///
    /// As [`pin_eq`](IncrementalLp::pin_eq).
    pub fn pin_int_eq(&mut self, row: &[i64]) -> Result<bool> {
        let n = row.len() - 1;
        let g = gcd_slice(&row[..n]);
        if g <= 1 {
            return self.push_eq(row);
        }
        if row[n] % g != 0 {
            let mut never = vec![0i64; n + 1];
            never[n] = 1;
            return self.push_eq(&never);
        }
        self.push_eq(&row.iter().map(|v| v / g).collect::<Vec<_>>())
    }

    /// Whether the system may contain an integer point: `false` only
    /// when the search *proved* it empty — an infeasible relaxation at
    /// every leaf. A search truncated by the node budget, or stopped by
    /// an overflowing or cap-hitting pivot, answers `true`. Nodes
    /// explored are added to `nodes`. The tableau is left wherever the
    /// search stopped: ask on a
    /// [`snapshot`](IncrementalLp::snapshot).
    pub fn may_have_integer_point(&mut self, nodes: &mut usize) -> bool {
        let zeros = vec![0i64; self.num_vars()];
        let mut stats = IlpStats::default();
        let outcome = self.int_minimize(&zeros, &mut stats);
        *nodes += stats.nodes;
        outcome != Ok(IlpOutcome::Infeasible)
    }

    /// Minimizes an integer objective `obj · x` over the integer points
    /// of the system as it stands, by depth-first branch and bound on
    /// this tableau within the default node budget. [`ilp_minimize`] is
    /// its build-ask-drop form; a caller that keeps a solved tableau
    /// asks on a copy of it instead and pays for no build. Nodes
    /// explored are added to `stats`. The tableau is left wherever the
    /// search stopped.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] and [`MathError::PivotLimit`], which
    /// also poison the tableau; nothing is proven then.
    pub fn int_minimize(&mut self, obj: &[i64], stats: &mut IlpStats) -> Result<IlpOutcome> {
        self.branch_and_bound(obj, None, None, MAX_NODES, stats)
    }

    /// Depth-first branch and bound **on this tableau**, over at most
    /// `max_nodes` nodes: the root is the system as it stands, and a
    /// child is its parent's tableau plus one bound row — pushed,
    /// repaired by the dual loop, re-optimized by the primal one — with
    /// the parent kept as a [`snapshot`](IncrementalLp::snapshot) for
    /// the other branch. The base system is expected normalized; the
    /// unit bound rows need no tightening.
    ///
    /// `incumbent` is an integer point known beforehand with its value
    /// (the lexmin cascade's previous stage optimum): the search starts
    /// with an upper bound. `lower_bound` is an optional proven
    /// objective lower bound (the ceiling of the LP relaxation's
    /// optimum): the search stops as soon as an incumbent attains it.
    /// The tableau is left wherever the search stopped.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`] and [`MathError::PivotLimit`], which
    /// also poison the tableau; nothing is proven then.
    pub(crate) fn branch_and_bound(
        &mut self,
        obj: &[i64],
        mut incumbent: Option<(i64, Vec<i64>)>,
        lower_bound: Option<i64>,
        max_nodes: usize,
        stats: &mut IlpStats,
    ) -> Result<IlpOutcome> {
        let n = self.num_vars();
        let zero_obj = obj.iter().all(|&c| c == 0);
        let mut nodes = 0usize;
        // Branches not taken yet: the parent, and the bound to push.
        let mut pending: Vec<(Snapshot, Vec<i64>)> = Vec::new();
        loop {
            nodes += 1;
            stats.nodes += 1;
            if nodes > max_nodes {
                return Ok(IlpOutcome::NodeLimit { best: incumbent });
            }
            match self.minimize_value(obj)? {
                Bound::Infeasible => {}
                Bound::Unbounded => {
                    // The relaxation is unbounded. If we have not yet
                    // committed to an incumbent this propagates out;
                    // bounded scheduler problems never hit this.
                    return Ok(IlpOutcome::Unbounded);
                }
                // Bound pruning: integer objective values are integers.
                Bound::Value(num, den)
                    if incumbent
                        .as_ref()
                        .is_some_and(|(inc, _)| ceil_div(num, den) >= *inc) => {}
                Bound::Value(num, den) => match self.first_fractional() {
                    None => {
                        // An integer objective is an integer on an
                        // integral vertex, and a ratio of two cells fits.
                        let point = self.integral_vertex().expect("no fractional cell");
                        debug_assert_eq!(num % den, 0, "an integral vertex's value");
                        let value = num / den;
                        if incumbent.as_ref().is_none_or(|(inc, _)| value < *inc) {
                            incumbent = Some((value, point));
                            if zero_obj || lower_bound == Some(value) {
                                // Optimal: zero objective, or the proven
                                // lower bound was attained.
                                break;
                            }
                        }
                    }
                    Some((j, num, den)) => {
                        if nodes == 1 {
                            // The root relaxation itself went fractional:
                            // this solve genuinely needs branch and bound.
                            stats.fractional_stages += 1;
                        }
                        let [floor, ceil] = branch_rows(n, j, num, den);
                        pending.push((self.snapshot(), ceil));
                        self.push_ineq(&floor)?;
                        continue;
                    }
                },
            }
            let Some((parent, row)) = pending.pop() else {
                break;
            };
            self.rollback(parent);
            self.push_ineq(&row)?;
        }
        Ok(match incumbent {
            Some((value, point)) => IlpOutcome::Optimal { value, point },
            None => IlpOutcome::Infeasible,
        })
    }
}

/// The two children of a node whose `x_j` reads `num / den`, not an
/// integer, over `n` variables: `x_j ≤ ⌊num / den⌋`, the branch taken
/// first, and `x_j ≥ ⌈num / den⌉`. Both bounds fit, and so does the
/// negated one: the ratio is of two cells, and `den ≥ 2`.
fn branch_rows(n: usize, j: usize, num: i64, den: i64) -> [Vec<i64>; 2] {
    let bound = |coeff: i64, constant: i64| {
        let mut row = vec![0i64; n + 1];
        (row[j], row[n]) = (coeff, constant);
        row
    };
    [
        bound(-1, floor_div(num, den)),
        bound(1, -ceil_div(num, den)),
    ]
}

/// Finds an integer point of `cs`. `None` means none was found: either
/// the system has no integer solutions or the node budget ran out first,
/// so `None` is not a proof of emptiness — [`ilp_feasible`] is the test
/// that never mistakes one for the other.
///
/// # Errors
///
/// [`MathError::Overflow`], as
/// [`ilp_minimize`].
pub(crate) fn ilp_feasible_point(cs: &ConstraintSystem) -> Result<Option<Vec<i64>>> {
    let zeros = vec![0i64; cs.num_vars()];
    Ok(match ilp_minimize(cs, &zeros)? {
        IlpOutcome::Optimal { point, .. } => Some(point),
        IlpOutcome::NodeLimit { best } => best.map(|(_, p)| p),
        _ => None,
    })
}

/// Whether `cs` may contain an integer point: `false` only when branch
/// and bound *proved* the system empty. A search truncated by the node
/// budget, or stopped by an overflowing relaxation, answers `true` (a
/// point may exist), because dependence analysis and schedule
/// certification read `!ilp_feasible(..)` as proof that no dependence /
/// no violating instance exists.
pub fn ilp_feasible(cs: &ConstraintSystem) -> bool {
    ilp_minimize(cs, &vec![0i64; cs.num_vars()]) != Ok(IlpOutcome::Infeasible)
}

/// Lexicographic minimization: minimizes each objective in turn, fixing
/// its optimal value as an equality before moving to the next, and
/// returns the final integer point.
///
/// This mirrors how Pluto (via PIP) selects schedule coefficients: the
/// objective sequence is typically `(u, w, Σ coeffs, coeff₀, coeff₁, …)`.
///
/// Returns `None` when the system is infeasible or some objective is
/// unbounded below (callers bound their variables, so unboundedness
/// signals a modeling error upstream).
///
/// It is the one lexicographic solver, and a call is self-contained: no
/// point flows in from an earlier call.
///
/// * **incremental simplex** — one [`IncrementalLp`] tableau is built
///   once, on the slack basis, and made feasible by dual pivots on the
///   rows `x = 0` violates; each objective stage re-optimizes from the
///   previous optimal basis. When a stage's LP vertex is integral it
///   *is* the stage's integer optimum: no branch and bound runs at all
///   ([`IlpStats::lp_stages`] counts these), and the stage ends by
///   **face restriction** — every slack with a positive reduced cost
///   is fixed at zero where it stands, which leaves exactly the points
///   attaining the optimum, with no row appended and no pivot taken;
/// * **stage seeding** — when a stage does need branch and bound (a
///   fractional vertex), the previous stage's optimum is its initial
///   incumbent, and the stage's optimum outright when it attains the
///   ceiling of the relaxation's value; the integer optimum — off the
///   relaxation's optimal face — is pinned as a single equality row,
///   repaired by the dual pivots of phase 1 ([`IlpStats::dual_pivots`]).
///
/// Which point comes back when several attain the lexmin depends on
/// the pivots taken; a caller that needs one answer makes the
/// objective sequence total, as the scheduler's `assemble` does.
///
/// Solver effort is accumulated into `stats`.
///
/// # Errors
///
/// [`MathError::Overflow`] when the simplex tableau outgrew `i64` —
/// which says nothing about feasibility, so it is not a `None` — and
/// [`MathError::PivotLimit`] when a dual-simplex loop reached its cap.
///
/// # Examples
///
/// ```
/// use polytops_math::{ilp_lexmin, ConstraintSystem, IlpStats};
///
/// // 0 <= x, y <= 3, x + y >= 3: lexmin (x, then y) = (0, 3).
/// let mut cs = ConstraintSystem::new(2);
/// cs.add_ineq(vec![1, 0, 0]);
/// cs.add_ineq(vec![-1, 0, 3]);
/// cs.add_ineq(vec![0, 1, 0]);
/// cs.add_ineq(vec![0, -1, 3]);
/// cs.add_ineq(vec![1, 1, -3]);
/// let mut stats = IlpStats::default();
/// let point = ilp_lexmin(&cs, &[vec![1, 0], vec![0, 1]], &mut stats).unwrap();
/// assert_eq!(point, Some(vec![0, 3]));
/// assert_eq!(stats.lp_stages, 2); // both vertices integral: no search
/// ```
pub fn ilp_lexmin(
    cs: &ConstraintSystem,
    objectives: &[Vec<i64>],
    stats: &mut IlpStats,
) -> Result<Option<Vec<i64>>> {
    let n = cs.num_vars();
    // Normalize once (gcd tightening, dedup, subsumption) so the shared
    // tableau is built from the small system, not the raw one.
    let mut cur = cs.clone();
    if !cur.normalize() {
        return Ok(None);
    }
    let mut lp = IncrementalLp::new(&cur)?;
    if !lp.is_feasible() {
        return Ok(None); // LP-infeasible ⇒ ILP-infeasible
    }
    // The optimum of the last stage solved: it lies in `cur` and on
    // every face and pin so far.
    let mut last: Option<Vec<i64>> = None;
    for obj in objectives {
        assert_eq!(obj.len(), n, "objective length mismatch");
        // Stage attempt 1: pure LP re-optimization. An integral optimal
        // vertex of the relaxation is the integer optimum of the stage,
        // and the stage ends there, on its optimal face; a fractional
        // one still proves a lower bound for attempt 2.
        let stage_lb = match lp.lexmin_stage(obj)? {
            Stage::Integral(point) => {
                stats.lp_stages += 1;
                last = Some(point);
                continue;
            }
            // Fractional vertex: branch and bound must run, from the
            // relaxation this tableau has just solved and above its
            // value.
            Stage::Relaxed(Bound::Value(num, den)) => Some(ceil_div(num, den)),
            Stage::Relaxed(Bound::Unbounded) => return Ok(None),
            // Infeasibility cannot appear after a successful pin; the
            // search below reads it off its root.
            Stage::Relaxed(Bound::Infeasible) => None,
        };
        // Stage attempt 2: branch and bound on a snapshot of the shared
        // tableau, stopped early at the LP-proven lower bound. The
        // previous stage's optimum is feasible here, so it is the first
        // incumbent — and the optimum outright when it attains that
        // bound or the objective is zero. A truncated run's incumbent is
        // still a legal point, so it is pinned best-effort.
        let seed = last.take().and_then(|p| {
            debug_assert!(cur.contains_point(&p), "a stage optimum left the system");
            let value: i128 = obj
                .iter()
                .zip(&p)
                .map(|(&c, &v)| i128::from(c) * i128::from(v))
                .sum();
            Some((i64::try_from(value).ok()?, p))
        });
        let outcome = match seed {
            Some((value, point)) if stage_lb == Some(value) || obj.iter().all(|&c| c == 0) => {
                IlpOutcome::Optimal { value, point }
            }
            seed => {
                let before = lp.snapshot();
                let outcome = lp.branch_and_bound(obj, seed, stage_lb, MAX_NODES, stats);
                lp.rollback(before);
                outcome?
            }
        };
        let (value, point) = match outcome {
            IlpOutcome::Optimal { value, point }
            | IlpOutcome::NodeLimit {
                best: Some((value, point)),
            } => (value, point),
            _ => return Ok(None),
        };
        // The integer optimum lies above the relaxation's face, which
        // only a row can say: pin it. A pin is cheap — the dual-simplex
        // pivots of phase 1, on the existing basis — so the tableau
        // stays alive across fractional stages too: the next stage still
        // gets an LP lower bound and a solved root relaxation even when
        // this one had to branch. The value is attained, so the pin
        // holds; were it to fail, every later stage would read
        // `Infeasible` and end at the root of its search.
        let mut row = obj.clone();
        row.push(value.checked_neg().ok_or(MathError::Overflow)?);
        lp.pin_eq(&row)?;
        last = Some(point);
    }
    stats.dual_pivots += lp.dual_pivots();
    match last {
        Some(point) => Ok(Some(point)),
        None => ilp_feasible_point(&cur),
    }
}

/// Conservatively decides whether `row` (an inequality `a·x + c >= 0`) is
/// implied by `cs` over the rationals. Used for pruning redundant guards
/// during code generation; a `false` answer merely keeps a guard, so an
/// overflowing simplex answers `false`.
pub fn ineq_implied(cs: &ConstraintSystem, row: &[i64]) -> bool {
    assert_eq!(row.len(), cs.num_vars() + 1, "row length mismatch");
    IncrementalLp::new(cs).is_ok_and(|mut lp| lp.implies(row))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`ilp_lexmin`] with the counters thrown away.
    fn lexmin(cs: &ConstraintSystem, objectives: &[Vec<i64>]) -> Result<Option<Vec<i64>>> {
        ilp_lexmin(cs, objectives, &mut IlpStats::default())
    }

    #[test]
    fn integer_rounding_up() {
        // 3x >= 7 -> x >= 3 (integer).
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![3, -7]);
        match ilp_minimize(&cs, &[1]).unwrap() {
            IlpOutcome::Optimal { value, .. } => assert_eq!(value, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_gap() {
        // 2 < 2x < 4 has the single integer... x in (1,2): empty.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, -3]); // 2x >= 3
        cs.add_ineq(vec![-2, 3]); // 2x <= 3
        assert_eq!(ilp_minimize(&cs, &[1]), Ok(IlpOutcome::Infeasible));
        assert!(!ilp_feasible(&cs));
    }

    #[test]
    fn feasible_point_on_diagonal() {
        // x == y, 5 <= x <= 6.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![1, -1, 0]);
        cs.add_ineq(vec![1, 0, -5]);
        cs.add_ineq(vec![-1, 0, 6]);
        let p = ilp_feasible_point(&cs).unwrap().unwrap();
        assert_eq!(p[0], p[1]);
        assert!((5..=6).contains(&p[0]));
    }

    #[test]
    fn branching_two_dims() {
        // minimize x + y with 2x + 3y >= 7, x, y >= 0 (integers).
        // LP optimum fractional; integer optimum value 3 (e.g. x=2,y=1).
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![2, 3, -7]);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        match ilp_minimize(&cs, &[1, 1]).unwrap() {
            IlpOutcome::Optimal { value, point } => {
                assert_eq!(value, 3);
                assert!(2 * point[0] + 3 * point[1] >= 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lexmin_prefers_earlier_objectives() {
        // Box [0,2]^2 with x + y >= 2; lexmin (x, y) = (0, 2), not (1, 1).
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![-1, 0, 2]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![0, -1, 2]);
        cs.add_ineq(vec![1, 1, -2]);
        let p = lexmin(&cs, &[vec![1, 0], vec![0, 1]]).unwrap().unwrap();
        assert_eq!(p, vec![0, 2]);
    }

    #[test]
    fn lexmin_composite_objective() {
        // Minimize x + y first, then x: picks (0, 1) among {(0,1),(1,0)}.
        let mut cs = ConstraintSystem::new(2);
        for r in [vec![1, 0, 0], vec![-1, 0, 5], vec![0, 1, 0], vec![0, -1, 5]] {
            cs.add_ineq(r);
        }
        cs.add_ineq(vec![1, 1, -1]); // x + y >= 1
        let p = lexmin(&cs, &[vec![1, 1], vec![1, 0]]).unwrap().unwrap();
        assert_eq!(p, vec![0, 1]);
    }

    #[test]
    fn lexmin_infeasible_is_none() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -5]);
        cs.add_ineq(vec![-1, 2]);
        assert_eq!(lexmin(&cs, &[vec![1]]), Ok(None));
    }

    #[test]
    fn fractional_root_vertices_are_counted_per_stage() {
        // maximize x + y s.t. 4x + y <= 4, x + 4y <= 4, x, y >= 0: the
        // LP optimum (4/5, 4/5) is fractional (and gcd tightening cannot
        // fix coprime rows), so the single stage must branch and count.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![-4, -1, 4]);
        cs.add_ineq(vec![-1, -4, 4]);
        let mut stats = IlpStats::default();
        let p = ilp_lexmin(&cs, &[vec![-1, -1]], &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(p[0] + p[1], 1, "integer optimum of x + y is 1: {p:?}");
        assert_eq!(stats.fractional_stages, 1, "{stats:?}");

        // An integral relaxation resolves on the LP path and counts none.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -3]);
        cs.add_ineq(vec![-1, 5]);
        let mut stats = IlpStats::default();
        let p = ilp_lexmin(&cs, &[vec![1]], &mut stats).unwrap().unwrap();
        assert_eq!(p, vec![3]);
        assert_eq!(stats.fractional_stages, 0, "{stats:?}");
    }

    #[test]
    fn a_stage_seed_at_the_lp_ceiling_ends_the_stage_without_search() {
        // Box [0,3]^2 with x + y >= 1 and x - 2y + 1 >= 0. Stage 1,
        // min x + y, ends on the integral vertex (1, 0) of its face
        // x + y == 1, 1/3 <= x <= 1. Stage 2, min x, relaxes to the
        // fractional x = 1/3 on that face; its ceiling 1 is what the
        // stage-1 point already attains, so that point is the stage's
        // optimum and no branch-and-bound node is solved. Without the
        // seed the search starts at the fractional root.
        let mut cs = ConstraintSystem::new(2);
        for r in [vec![1, 0, 0], vec![-1, 0, 3], vec![0, 1, 0], vec![0, -1, 3]] {
            cs.add_ineq(r);
        }
        cs.add_ineq(vec![1, 1, -1]);
        cs.add_ineq(vec![1, -2, 1]);
        let mut stats = IlpStats::default();
        let p = ilp_lexmin(&cs, &[vec![1, 1], vec![1, 0]], &mut stats).unwrap();
        assert_eq!(p, Some(vec![1, 0]));
        assert_eq!(stats.lp_stages, 1, "stage 1 is integral: {stats:?}");
        assert_eq!(
            (stats.nodes, stats.fractional_stages),
            (0, 0),
            "stage 2 ends on its seed: {stats:?}"
        );
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = IlpStats {
            nodes: 1,
            lp_stages: 4,
            fractional_stages: 5,
            dual_pivots: 6,
            phase1_passes: 7,
        };
        a.absorb(&IlpStats {
            nodes: 10,
            lp_stages: 40,
            fractional_stages: 50,
            dual_pivots: 60,
            phase1_passes: 70,
        });
        assert_eq!(a.nodes, 11);
        assert_eq!(a.lp_stages, 44);
        assert_eq!(a.fractional_stages, 55);
        assert_eq!(a.dual_pivots, 66);
        assert_eq!(a.phase1_passes, 77);
    }

    #[test]
    fn pins_never_fall_back_to_phase1() {
        // A cascade whose middle stage is fractional: the tableau stays
        // alive across it (dual-simplex pin of the integer optimum) and
        // the final stage resolves on the LP path again.
        let mut cs = ConstraintSystem::new(3);
        cs.add_ineq(vec![1, 0, 0, 0]);
        cs.add_ineq(vec![0, 1, 0, 0]);
        cs.add_ineq(vec![0, 0, 1, 0]);
        cs.add_ineq(vec![0, 0, -1, 3]);
        cs.add_ineq(vec![-4, -1, 0, 4]); // 4x + y <= 4
        cs.add_ineq(vec![-1, -4, 0, 4]); // x + 4y <= 4
        let objectives = [vec![-1, -1, 0], vec![0, 0, 1]];
        let mut stats = IlpStats::default();
        let p = ilp_lexmin(&cs, &objectives, &mut stats).unwrap().unwrap();
        assert_eq!(p[0] + p[1], 1, "integer max of x + y is 1: {p:?}");
        assert_eq!(p[2], 0);
        assert_eq!(stats.fractional_stages, 1, "{stats:?}");
        assert_eq!(stats.phase1_passes, 0, "{stats:?}");
        assert!(stats.dual_pivots >= 1, "{stats:?}");
        assert!(
            stats.lp_stages >= 1,
            "the post-fractional stage must resolve on the LP path: {stats:?}"
        );
    }

    /// Rows `ilp_lexmin` pinned while it solved: the samples of
    /// `simplex.pin_eq_ns`, which only its stage pins record.
    fn stage_pins(cs: &ConstraintSystem, objectives: &[Vec<i64>]) -> (Vec<i64>, u64) {
        let recorder = crate::obs::Recorder::new(true);
        let root = recorder.root_span("test");
        let _bound = root.link().expect("spans are on").bind();
        let point = lexmin(cs, objectives).unwrap().expect("feasible");
        let pins = recorder.histogram("simplex.pin_eq_ns").snapshot().count;
        (point, pins)
    }

    #[test]
    fn only_a_fractional_stage_pins_a_row() {
        // Six stages, every vertex integral: each ends on its face and
        // the tableau gains no row (it used to gain one a stage).
        let mut cs = ConstraintSystem::new(3);
        for j in 0..3 {
            let mut lo = vec![0i64; 4];
            lo[j] = 1;
            cs.add_ineq(lo);
            let mut hi = vec![0i64; 4];
            (hi[j], hi[3]) = (-1, 4);
            cs.add_ineq(hi);
        }
        cs.add_ineq(vec![1, 1, 1, -5]);
        let units = [vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]];
        let mut objectives = vec![vec![1, 1, 1], vec![1, 1, 0], vec![-1, 0, 1]];
        objectives.extend(units.clone());
        assert_eq!(stage_pins(&cs, &objectives), (vec![1, 0, 4], 0));
        // The cascade of `pins_never_fall_back_to_phase1`, made total:
        // its first stage is fractional — the integer optimum lies off
        // the relaxation's face, which takes a row to say — and is the
        // only one that pins.
        let mut cs = ConstraintSystem::new(3);
        cs.add_ineq(vec![1, 0, 0, 0]);
        cs.add_ineq(vec![0, 1, 0, 0]);
        cs.add_ineq(vec![0, 0, 1, 0]);
        cs.add_ineq(vec![0, 0, -1, 3]);
        cs.add_ineq(vec![-4, -1, 0, 4]);
        cs.add_ineq(vec![-1, -4, 0, 4]);
        let mut objectives = vec![vec![-1, -1, 0], vec![0, 0, 1]];
        objectives.extend(units);
        assert_eq!(stage_pins(&cs, &objectives), (vec![0, 1, 0], 1));
    }

    #[test]
    fn pushed_rows_get_their_own_integer_tightening() {
        // 0 <= x, y <= 3. Over the rationals 2x + 2y == 3 cuts the box;
        // over the integers the gcd 2 does not divide 3 and the set is
        // empty at once — as `normalize` says of the materialized
        // system — without a search that could only time out.
        let mut cs = ConstraintSystem::new(2);
        for r in [vec![1, 0, 0], vec![-1, 0, 3], vec![0, 1, 0], vec![0, -1, 3]] {
            cs.add_ineq(r);
        }
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let before = lp.snapshot();
        assert_eq!(lp.pin_eq(&[2, 2, -3]), Ok(true), "a rational point");
        lp.rollback(before);
        let before = lp.snapshot();
        assert_eq!(lp.pin_int_eq(&[2, 2, -3]), Ok(false), "no integer point");
        lp.rollback(before);
        assert_eq!(lp.pin_int_eq(&[2, 2, -4]), Ok(true), "x + y == 2");
        // 2x >= 3 is x >= 2 for an integer x: its relaxation's vertex
        // is integral, no branching.
        assert_eq!(lp.push_int_ineq(&[2, 0, -3]), Ok(true));
        let mut stats = IlpStats::default();
        assert_eq!(
            lp.int_minimize(&[1, 0], &mut stats),
            Ok(IlpOutcome::Optimal {
                value: 2,
                point: vec![2, 0]
            })
        );
        assert_eq!((stats.nodes, stats.fractional_stages), (1, 0));
    }

    #[test]
    fn a_search_on_the_tableau_branches_on_snapshots_and_can_be_taken_back() {
        // maximize x + y s.t. 4x + y <= 4, x + 4y <= 4, x, y >= 0: the
        // root vertex (4/5, 4/5) is fractional, the integer optimum 1.
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        cs.add_ineq(vec![0, 1, 0]);
        cs.add_ineq(vec![-4, -1, 4]);
        cs.add_ineq(vec![-1, -4, 4]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let before = lp.snapshot();
        let mut stats = IlpStats::default();
        let outcome = lp.int_minimize(&[-1, -1], &mut stats);
        let Ok(IlpOutcome::Optimal { value: -1, point }) = &outcome else {
            panic!("unexpected {outcome:?}");
        };
        assert!(cs.contains_point(point));
        assert!(stats.nodes > 1 && stats.fractional_stages == 1, "{stats:?}");
        // The bound rows of the search are gone with the rollback: the
        // relaxation is the root's again, −8/5, and so is a second search.
        // Its ceiling, the search's bound, is −1 and its floor −2: the
        // sign case where a truncating division would read both wrong.
        lp.rollback(before);
        let Ok(Bound::Value(num, den)) = lp.minimize_value(&[-1, -1]) else {
            panic!()
        };
        assert!(den > 0 && 5 * num == -8 * den, "{num}/{den}");
        assert_eq!((ceil_div(num, den), floor_div(num, den)), (-1, -2));
        let mut again = IlpStats::default();
        assert_eq!(lp.int_minimize(&[-1, -1], &mut again), outcome);
        assert_eq!(again, stats);
    }

    #[test]
    fn a_negative_fractional_variable_branches_on_its_floor_and_its_ceiling() {
        // min x s.t. 2x >= −3, x <= 5: the vertex x = −3/2 is negative,
        // so x⁻ is the basic column of x and its row reads +3/2. The
        // branches are x <= −2 and x >= −1 — not x <= −1 and x >= −2,
        // which would take the vertex along into both children.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, 3]);
        cs.add_ineq(vec![-1, 5]);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let Ok(Bound::Value(num, den)) = lp.minimize_value(&[1]) else {
            panic!()
        };
        assert_eq!(2 * num, -3 * den);
        let (j, num, den) = lp.first_fractional().expect("x = -3/2");
        assert!(j == 0 && den > 0 && 2 * num == -3 * den, "{num}/{den}");
        let [floor, ceil] = branch_rows(1, j, num, den);
        assert_eq!(floor, vec![-1, -2], "−x − 2 >= 0: x <= −2");
        assert_eq!(ceil, vec![1, 1], "x + 1 >= 0: x >= −1");
        // The search ends on the ceiling's side, at x = −1.
        let mut stats = IlpStats::default();
        assert_eq!(
            lp.int_minimize(&[1], &mut stats),
            Ok(IlpOutcome::Optimal {
                value: -1,
                point: vec![-1]
            })
        );
        assert_eq!((stats.nodes, stats.fractional_stages), (3, 1));
    }

    #[test]
    fn implied_inequality() {
        // x >= 3 implies x >= 1 but not x >= 4.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -3]);
        cs.add_ineq(vec![-1, 10]);
        assert!(ineq_implied(&cs, &[1, -1]));
        assert!(!ineq_implied(&cs, &[1, -4]));
    }

    #[test]
    fn equality_only_integer_check() {
        // 2x == 3 has a rational but no integer solution.
        let mut cs = ConstraintSystem::new(1);
        cs.add_eq(vec![2, -3]);
        assert!(!ilp_feasible(&cs));
    }

    #[test]
    fn truncated_search_is_not_a_proof_of_emptiness() {
        // 2x == 3y, 1 <= x <= 10: both LP vertices, (1, 2/3) and
        // (10, 20/3), are fractional, yet (3, 2) is an integer point. A
        // one-node budget is spent on the root before any is found.
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq(vec![2, -3, 0]);
        cs.add_ineq(vec![1, 0, -1]);
        cs.add_ineq(vec![-1, 0, 10]);
        let within_one_node = |cs: &ConstraintSystem| {
            let mut lp = IncrementalLp::new(cs).unwrap();
            let zeros = vec![0i64; cs.num_vars()];
            lp.branch_and_bound(&zeros, None, None, 1, &mut IlpStats::default())
        };
        // A point may exist.
        assert_eq!(
            within_one_node(&cs),
            Ok(IlpOutcome::NodeLimit { best: None })
        );
        assert!(ilp_feasible(&cs));
        // A proof of emptiness within the same budget still reads so.
        let mut empty = ConstraintSystem::new(1);
        empty.add_ineq(vec![1, -5]);
        empty.add_ineq(vec![-1, 2]);
        assert_eq!(within_one_node(&empty), Ok(IlpOutcome::Infeasible));
    }

    #[test]
    fn an_overflowing_relaxation_is_an_error_and_proves_nothing() {
        let cs = crate::simplex::overflowing_system();
        let objectives = [vec![1, 1, 1]];
        let mut stats = IlpStats::default();
        assert_eq!(ilp_minimize(&cs, &[1, 1, 1]), Err(MathError::Overflow));
        assert_eq!(ilp_feasible_point(&cs), Err(MathError::Overflow));
        assert_eq!(
            ilp_lexmin(&cs, &objectives, &mut stats),
            Err(MathError::Overflow)
        );
        // `deps` reads `!ilp_feasible` as proof that no dependence
        // exists, codegen reads `ineq_implied` as leave to drop a guard.
        assert!(ilp_feasible(&cs), "a point may exist");
        assert!(!ineq_implied(&cs, &[1, 0, 0, 0]), "the guard stays");
    }

    #[test]
    fn branch_bound_beyond_i64_makes_the_node_unusable() {
        // minimize x s.t. 2x >= 3y, y >= i64::MAX: the root vertex is
        // x = 3·(2^63 − 1)/2, fractional and beyond i64. The tableau
        // cannot hold it, so the node is an error — not a wrapped branch
        // row, and not the proof of emptiness a skipped node would be
        // (the system has integer points).
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![2, -3, 0]);
        cs.add_ineq(vec![0, 1, -i64::MAX]);
        let mut stats = IlpStats::default();
        assert_eq!(
            ilp_minimize_impl(&cs, &[1, 0], &mut stats),
            Err(MathError::Overflow)
        );
        assert_eq!(stats.nodes, 1, "{stats:?}");
        assert!(ilp_feasible(&cs), "a point may exist");
    }

    #[test]
    fn a_stage_read_as_integers_never_wraps() {
        // x == i64::MAX exactly: the widest coordinate a cell holds is
        // read as it stands, under either sign of the objective.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![1, -i64::MAX]);
        cs.add_ineq(vec![-1, i64::MAX]);
        assert_eq!(lexmin(&cs, &[vec![1]]), Ok(Some(vec![i64::MAX])));
        assert_eq!(lexmin(&cs, &[vec![-1]]), Ok(Some(vec![i64::MAX])));
        // 2x there is beyond `i64`: the cost row cannot hold the value,
        // and the stage is an error — not a wrapped optimum, and not the
        // `None` that means "no point".
        assert_eq!(lexmin(&cs, &[vec![2]]), Err(MathError::Overflow));
        // A fractional vertex at that size goes to branch and bound,
        // which finds the integer point beside it.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ineq(vec![2, -(i64::MAX - 2)]);
        cs.add_ineq(vec![-1, i64::MAX]);
        let mut stats = IlpStats::default();
        assert_eq!(
            ilp_lexmin(&cs, &[vec![1]], &mut stats),
            Ok(Some(vec![i64::MAX / 2]))
        );
    }
}
