//! Multidimensional affine schedules (the scheduler's output).

use crate::expr::AffineExpr;
use crate::scop::{Scop, StmtId};
use crate::tree::{ScheduleTree, TreeNode};

/// The schedule of one statement: one affine row per scheduling dimension,
/// each over the statement's `(iters, params, 1)` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtSchedule {
    depth: usize,
    nparams: usize,
    rows: Vec<Vec<i64>>,
}

impl StmtSchedule {
    /// Creates an empty schedule for a statement with the given space.
    pub fn new(depth: usize, nparams: usize) -> StmtSchedule {
        StmtSchedule {
            depth,
            nparams,
            rows: Vec::new(),
        }
    }

    /// Statement iterator count.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Parameter count.
    pub fn nparams(&self) -> usize {
        self.nparams
    }

    /// Number of scheduling dimensions so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no dimension has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a scheduling row `[iter coeffs, param coeffs, const]`.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong length.
    pub fn push_row(&mut self, row: Vec<i64>) {
        assert_eq!(row.len(), self.depth + self.nparams + 1, "row length");
        self.rows.push(row);
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<i64>] {
        &self.rows
    }

    /// Row `i` as an affine expression.
    pub fn row_expr(&self, i: usize) -> AffineExpr {
        AffineExpr::from_row(&self.rows[i], self.depth, self.nparams)
    }

    /// Whether row `i` has no iterator coefficients (a splitting level).
    pub fn row_is_constant(&self, i: usize) -> bool {
        self.rows[i][..self.depth].iter().all(|&c| c == 0)
    }

    /// Evaluates the full timestamp at a concrete point.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> Vec<i64> {
        self.rows
            .iter()
            .map(|r| AffineExpr::from_row(r, self.depth, self.nparams).eval(iters, params))
            .collect()
    }

    /// The rank of the iterator coefficients of the rows: how many
    /// independent directions of the iteration space the schedule
    /// separates (`depth` for a full-rank schedule).
    ///
    /// # Errors
    ///
    /// [`polytops_math::MathError::Overflow`] when the exact elimination
    /// outgrows `i128`.
    pub fn rank(&self) -> polytops_math::Result<usize> {
        let mut echelon = polytops_math::Echelon::new(self.depth);
        for r in &self.rows {
            echelon.insert(&r[..self.depth])?;
        }
        Ok(echelon.rank())
    }
}

/// A complete schedule for a [`Scop`]: per-statement rows plus band and
/// parallelism metadata produced by the scheduler (paper Algorithm 1's
/// `Bands` and `ParallelDimension` outputs), and the structured
/// [`ScheduleTree`] that tiling, wavefronting and vectorization are
/// expressed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    per_stmt: Vec<StmtSchedule>,
    /// Band id of each scheduling dimension; consecutive equal ids form a
    /// permutable (tilable) band.
    bands: Vec<usize>,
    /// Whether each scheduling dimension is parallel.
    parallel: Vec<bool>,
    /// The structured schedule tree: the lowering of the flat rows when
    /// the schedule is built, replaced by post-processing (tiling,
    /// wavefronting and vectorization are tree transforms and live here,
    /// not in the rows).
    tree: ScheduleTree,
}

impl Schedule {
    /// The classic 2d+1 identity schedule: interleaves β positions and
    /// iterators, padding shallower statements so all timestamps have
    /// equal length.
    ///
    /// # Examples
    ///
    /// ```
    /// use polytops_ir::{Aff, Schedule, ScopBuilder, StmtId};
    ///
    /// let mut b = ScopBuilder::new("k");
    /// let n = b.param("N");
    /// let a = b.array("A", &[n.clone()], 8);
    /// b.open_loop("i", Aff::val(0), n - 1);
    /// b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
    /// b.close_loop();
    /// let scop = b.build().unwrap();
    /// let sched = Schedule::identity_2dp1(&scop);
    /// // Timestamp of S0(i = 3) with N = 10: (beta0, i, beta1) = (0, 3, 0).
    /// assert_eq!(sched.timestamp(StmtId(0), &[3], &[10]), vec![0, 3, 0]);
    /// ```
    pub fn identity_2dp1(scop: &Scop) -> Schedule {
        let max_depth = scop.max_depth();
        let nrows = 2 * max_depth + 1;
        let np = scop.nparams();
        let mut per_stmt = Vec::with_capacity(scop.statements.len());
        for s in &scop.statements {
            let d = s.depth();
            let mut ss = StmtSchedule::new(d, np);
            for level in 0..=max_depth {
                // β row.
                let beta = s.beta.get(level).copied().unwrap_or(0);
                let mut row = vec![0i64; d + np + 1];
                row[d + np] = beta;
                ss.push_row(row);
                // Iterator row.
                if level < max_depth {
                    let mut row = vec![0i64; d + np + 1];
                    if level < d {
                        row[level] = 1;
                    }
                    ss.push_row(row);
                }
            }
            debug_assert_eq!(ss.len(), nrows);
            per_stmt.push(ss);
        }
        // Bands: every loop level is its own band in the 2d+1 form.
        let bands = (0..nrows).collect();
        let parallel = vec![false; nrows];
        Schedule::lowered(per_stmt, bands, parallel)
    }

    /// Builds a schedule from parts, its tree the lowering of the rows.
    ///
    /// # Panics
    ///
    /// Panics if metadata lengths disagree with the row count.
    pub fn from_parts(
        per_stmt: Vec<StmtSchedule>,
        bands: Vec<usize>,
        parallel: Vec<bool>,
    ) -> Schedule {
        let dims = per_stmt.first().map_or(0, StmtSchedule::len);
        for ss in &per_stmt {
            assert_eq!(ss.len(), dims, "ragged schedule");
        }
        assert_eq!(bands.len(), dims, "bands length");
        assert_eq!(parallel.len(), dims, "parallel length");
        Schedule::lowered(per_stmt, bands, parallel)
    }

    /// Assembles the flat parts and lowers them, once, to the tree.
    fn lowered(per_stmt: Vec<StmtSchedule>, bands: Vec<usize>, parallel: Vec<bool>) -> Schedule {
        let mut sched = Schedule {
            tree: ScheduleTree {
                nstmts: per_stmt.len(),
                root: TreeNode::Leaf,
            },
            per_stmt,
            bands,
            parallel,
        };
        sched.tree = ScheduleTree::lower(&sched);
        sched
    }

    /// The structured schedule tree.
    pub fn tree(&self) -> &ScheduleTree {
        &self.tree
    }

    /// Moves the tree out for a rewrite, leaving a bare leaf until
    /// [`Schedule::set_tree`] puts the rewritten tree back.
    pub fn take_tree(&mut self) -> ScheduleTree {
        let leaf = ScheduleTree {
            nstmts: self.per_stmt.len(),
            root: TreeNode::Leaf,
        };
        std::mem::replace(&mut self.tree, leaf)
    }

    /// Replaces the structured schedule tree.
    pub fn set_tree(&mut self, tree: ScheduleTree) {
        self.tree = tree;
    }

    /// Number of scheduling dimensions (equal across statements).
    pub fn dims(&self) -> usize {
        self.bands.len()
    }

    /// Number of statements.
    pub fn num_statements(&self) -> usize {
        self.per_stmt.len()
    }

    /// The per-statement schedule.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn stmt(&self, id: StmtId) -> &StmtSchedule {
        &self.per_stmt[id.0]
    }

    /// Band ids per dimension.
    pub fn bands(&self) -> &[usize] {
        &self.bands
    }

    /// Parallel flags per dimension.
    pub fn parallel(&self) -> &[bool] {
        &self.parallel
    }

    /// Timestamp of a statement instance.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or arities mismatch.
    pub fn timestamp(&self, id: StmtId, iters: &[i64], params: &[i64]) -> Vec<i64> {
        self.per_stmt[id.0].eval(iters, params)
    }

    /// Maximal permutable bands as `(start_dim, end_dim_exclusive)` ranges.
    pub fn band_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.bands.len() {
            let b = self.bands[i];
            let mut j = i + 1;
            while j < self.bands.len() && self.bands[j] == b {
                j += 1;
            }
            out.push((i, j));
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScopBuilder;
    use crate::expr::Aff;

    fn two_stmt_scop() -> Scop {
        // for i { S0; for j { S1 } }
        let mut b = ScopBuilder::new("k");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0")
            .write(a, &[Aff::var("i"), Aff::val(0)])
            .add(&mut b);
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S1")
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn identity_orders_textually() {
        let scop = two_stmt_scop();
        let sched = Schedule::identity_2dp1(&scop);
        assert_eq!(sched.dims(), 5); // 2*2+1
                                     // S0(i=1) happens before S1(i=1, j=0): compare timestamps.
        let t0 = sched.timestamp(StmtId(0), &[1], &[4]);
        let t1 = sched.timestamp(StmtId(1), &[1, 0], &[4]);
        assert!(t0 < t1, "{t0:?} < {t1:?}");
        // S1(i=0, *) before S0(i=1).
        let t1 = sched.timestamp(StmtId(1), &[0, 3], &[4]);
        let t0 = sched.timestamp(StmtId(0), &[1], &[4]);
        assert!(t1 < t0);
    }

    #[test]
    fn band_ranges_group_consecutive() {
        let scop = two_stmt_scop();
        let mut sched = Schedule::identity_2dp1(&scop);
        assert_eq!(sched.band_ranges().len(), 5);
        // Pretend the first two dims form one band.
        sched.bands = vec![0, 0, 1, 2, 3];
        assert_eq!(sched.band_ranges(), vec![(0, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn rank_reads_the_iterator_coefficients() {
        let scop = two_stmt_scop();
        let sched = Schedule::identity_2dp1(&scop);
        let ss = sched.stmt(StmtId(1));
        assert_eq!(ss.rows().len(), 5);
        assert_eq!(ss.depth(), 2);
        assert_eq!(ss.rank(), Ok(2)); // covers both iterators
    }

    #[test]
    fn constructors_attach_the_lowered_tree() {
        let scop = two_stmt_scop();
        let identity = Schedule::identity_2dp1(&scop);
        assert_eq!(identity.tree(), &ScheduleTree::lower(&identity));
        // (i, β, j) with S0 before the j loop; i parallel, one band.
        let mut s0 = StmtSchedule::new(1, 1);
        s0.push_row(vec![1, 0, 0]);
        s0.push_row(vec![0, 0, 0]);
        s0.push_row(vec![0, 0, 0]);
        let mut s1 = StmtSchedule::new(2, 1);
        s1.push_row(vec![1, 0, 0, 0]);
        s1.push_row(vec![0, 0, 0, 1]);
        s1.push_row(vec![0, 1, 0, 0]);
        let sched = Schedule::from_parts(vec![s0, s1], vec![0, 1, 2], vec![true, false, false]);
        assert_eq!(sched.tree(), &ScheduleTree::lower(&sched));
        assert!(matches!(
            &sched.tree().root,
            TreeNode::Band { members, .. } if members.len() == 1 && members[0].coincident
        ));
    }
}
