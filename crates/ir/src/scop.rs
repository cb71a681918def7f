//! The static control part (SCoP) model: arrays, accesses, statements.

use std::fmt;

use polytops_math::ConstraintSystem;

use crate::expr::AffineExpr;

/// Identifies an array declared in a [`Scop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Identifies a statement within a [`Scop`] (textual order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub usize);

/// An array (or scalar, when `dims` is empty) accessed by the SCoP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Source-level name.
    pub name: String,
    /// Extent of each dimension, affine in the parameters (no iterators).
    pub dims: Vec<AffineExpr>,
    /// Element size in bytes (simulators use this for cache lines).
    pub element_size: u32,
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The statement reads the cell.
    Read,
    /// The statement writes the cell.
    Write,
}

/// One array subscript expression.
///
/// Affine subscripts drive exact dependence analysis; `FloorDiv`/`Mod`
/// subscripts (PolyMage-style image pipelines) are evaluated exactly by
/// the simulator but analyzed conservatively (they also make a SCoP
/// unsupported by schedulers without "local dimension" support — the n.a.
/// entries of the paper's Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// A plain affine subscript.
    Aff(AffineExpr),
    /// `floor(e / k)` with `k > 0`.
    FloorDiv(AffineExpr, i64),
    /// `e mod k` with `k > 0`.
    Mod(AffineExpr, i64),
}

impl Subscript {
    /// The underlying affine expression.
    pub fn expr(&self) -> &AffineExpr {
        match self {
            Subscript::Aff(e) | Subscript::FloorDiv(e, _) | Subscript::Mod(e, _) => e,
        }
    }

    /// Whether the subscript is plain affine.
    pub fn is_affine(&self) -> bool {
        matches!(self, Subscript::Aff(_))
    }

    /// Evaluates at concrete iterator/parameter values.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> i64 {
        match self {
            Subscript::Aff(e) => e.eval(iters, params),
            Subscript::FloorDiv(e, k) => polytops_math::floor_div(e.eval(iters, params), *k),
            Subscript::Mod(e, k) => polytops_math::modulo(e.eval(iters, params), *k),
        }
    }
}

/// A single memory access performed by a statement instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Which array is touched.
    pub array: ArrayId,
    /// Read or write.
    pub kind: AccessKind,
    /// One subscript per array dimension (empty for scalars).
    pub subscripts: Vec<Subscript>,
}

impl Access {
    /// Whether all subscripts are affine.
    pub fn is_affine(&self) -> bool {
        self.subscripts.iter().all(Subscript::is_affine)
    }
}

/// A statement of the SCoP: an iteration domain plus its accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Statement id (textual order).
    pub id: StmtId,
    /// Source-level name, e.g. `S0`.
    pub name: String,
    /// Names of the surrounding loop iterators, outermost first.
    pub iter_names: Vec<String>,
    /// Iteration domain over `(iters, params, 1)` columns.
    pub domain: ConstraintSystem,
    /// Memory accesses (reads and writes).
    pub accesses: Vec<Access>,
    /// The 2d+1 textual position: `beta[k]` is the statement's position
    /// at nesting level `k` (length `depth + 1`).
    pub beta: Vec<i64>,
    /// Arithmetic operations per instance (simulator cost).
    pub compute_ops: u32,
    /// Optional source text for pretty printing.
    pub text: Option<String>,
}

impl Statement {
    /// Loop nesting depth.
    pub fn depth(&self) -> usize {
        self.iter_names.len()
    }

    /// The write accesses.
    pub fn writes(&self) -> impl Iterator<Item = &Access> {
        self.accesses.iter().filter(|a| a.kind == AccessKind::Write)
    }

    /// The read accesses.
    pub fn reads(&self) -> impl Iterator<Item = &Access> {
        self.accesses.iter().filter(|a| a.kind == AccessKind::Read)
    }

    /// Whether every access of the statement is affine.
    pub fn is_affine(&self) -> bool {
        self.accesses.iter().all(Access::is_affine)
    }
}

/// A static control part: the unit of polyhedral optimization.
///
/// Build one with [`ScopBuilder`](crate::ScopBuilder) or parse one from
/// the textual exchange format ([`crate::parse_scop`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Scop {
    /// Kernel name.
    pub name: String,
    /// Global parameter names (symbolic sizes).
    pub params: Vec<String>,
    /// Known constraints over the parameters (e.g. `N >= 1`), over
    /// `(params, 1)` columns.
    pub context: ConstraintSystem,
    /// Arrays referenced by the statements.
    pub arrays: Vec<ArrayInfo>,
    /// Statements in textual order.
    pub statements: Vec<Statement>,
}

impl Scop {
    /// Number of parameters.
    pub fn nparams(&self) -> usize {
        self.params.len()
    }

    /// Looks up a statement.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn stmt(&self, id: StmtId) -> &Statement {
        &self.statements[id.0]
    }

    /// Looks up an array.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.0]
    }

    /// Maximum statement depth.
    pub fn max_depth(&self) -> usize {
        self.statements
            .iter()
            .map(Statement::depth)
            .max()
            .unwrap_or(0)
    }

    /// Whether every access in every statement is affine (no div/mod
    /// local dimensions). Tools without local-variable support reject
    /// SCoPs where this is `false` (Table II n.a. entries).
    pub fn is_fully_affine(&self) -> bool {
        self.statements.iter().all(Statement::is_affine)
    }

    /// Enumerates the concrete points of a statement's domain for given
    /// parameter values, in lexicographic iteration order. Intended for
    /// testing and for the simulator on modest sizes.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.nparams()` or if a domain is
    /// unbounded for the given parameters.
    pub fn enumerate_domain(&self, id: StmtId, params: &[i64]) -> Vec<Vec<i64>> {
        assert_eq!(params.len(), self.nparams(), "param arity mismatch");
        let stmt = self.stmt(id);
        let depth = stmt.depth();
        let mut out = Vec::new();
        let mut point = vec![0i64; depth];
        // Derive bounds per level by scanning constraint rows.
        fn rec(
            stmt: &Statement,
            params: &[i64],
            depth: usize,
            level: usize,
            point: &mut Vec<i64>,
            out: &mut Vec<Vec<i64>>,
        ) {
            if level == depth {
                out.push(point.clone());
                return;
            }
            let (lo, hi) = level_bounds(stmt, params, level, point);
            for v in lo..=hi {
                point[level] = v;
                // Check rows fully determined up to this level.
                if row_prefix_feasible(stmt, params, level, point) {
                    rec(stmt, params, depth, level + 1, point, out);
                }
            }
            point[level] = 0;
        }
        /// Bounds for `level` given fixed outer values.
        fn level_bounds(
            stmt: &Statement,
            params: &[i64],
            level: usize,
            point: &[i64],
        ) -> (i64, i64) {
            let depth = stmt.depth();
            let np = params.len();
            let mut lo = i64::MIN;
            let mut hi = i64::MAX;
            for (kind, row) in stmt.domain.iter() {
                // Only rows whose innermost involved iterator is `level`.
                if row[level] == 0 {
                    continue;
                }
                if row[level + 1..depth].iter().any(|&c| c != 0) {
                    continue;
                }
                let mut rest = i128::from(row[depth + np]);
                for k in 0..level {
                    rest += i128::from(row[k]) * i128::from(point[k]);
                }
                for j in 0..np {
                    rest += i128::from(row[depth + j]) * i128::from(params[j]);
                }
                let a = row[level];
                match kind {
                    polytops_math::RowKind::Ineq => {
                        // a*x + rest >= 0
                        if a > 0 {
                            let b = polytops_math::ceil_div(
                                i64::try_from(-rest).expect("bound overflow"),
                                a,
                            );
                            lo = lo.max(b);
                        } else {
                            let b = polytops_math::floor_div(
                                i64::try_from(rest).expect("bound overflow"),
                                -a,
                            );
                            hi = hi.min(b);
                        }
                    }
                    polytops_math::RowKind::Eq => {
                        let r = i64::try_from(-rest).expect("bound overflow");
                        if r % a == 0 {
                            lo = lo.max(r / a);
                            hi = hi.min(r / a);
                        } else {
                            // No integer solution at this level.
                            return (1, 0);
                        }
                    }
                }
            }
            if (lo == i64::MIN || hi == i64::MAX) && lo <= hi {
                panic!("unbounded domain for {} at level {level}", stmt.name);
            }
            (lo, hi)
        }
        /// Re-checks rows that only involve iterators `0..=level`.
        fn row_prefix_feasible(
            stmt: &Statement,
            params: &[i64],
            level: usize,
            point: &[i64],
        ) -> bool {
            let depth = stmt.depth();
            let np = params.len();
            for (kind, row) in stmt.domain.iter() {
                if row[level + 1..depth].iter().any(|&c| c != 0) {
                    continue;
                }
                let mut acc = i128::from(row[depth + np]);
                for k in 0..=level {
                    acc += i128::from(row[k]) * i128::from(point[k]);
                }
                for j in 0..np {
                    acc += i128::from(row[depth + j]) * i128::from(params[j]);
                }
                let ok = match kind {
                    polytops_math::RowKind::Ineq => acc >= 0,
                    polytops_math::RowKind::Eq => acc == 0,
                };
                if !ok {
                    return false;
                }
            }
            true
        }
        rec(stmt, params, depth, 0, &mut point, &mut out);
        out
    }
}

impl fmt::Display for Scop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scop {} (params: {}; {} arrays, {} statements)",
            self.name,
            self.params.join(", "),
            self.arrays.len(),
            self.statements.len()
        )?;
        for s in &self.statements {
            writeln!(
                f,
                "  {}[{}] beta={:?} ops={}",
                s.name,
                s.iter_names.join(", "),
                s.beta,
                s.compute_ops
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScopBuilder;
    use crate::expr::Aff;

    fn triangle_scop() -> Scop {
        // for (i = 0; i < N; i++) for (j = 0; j <= i; j++) S0;
        let mut b = ScopBuilder::new("tri");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param("N"), Aff::param("N")], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::val(0), Aff::var("i"));
        b.stmt("S0")
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .ops(1)
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn enumerate_triangle() {
        let scop = triangle_scop();
        let pts = scop.enumerate_domain(StmtId(0), &[3]);
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![1, 1],
                vec![2, 0],
                vec![2, 1],
                vec![2, 2]
            ]
        );
    }

    #[test]
    fn empty_domain_enumerates_nothing() {
        let scop = triangle_scop();
        assert!(scop.enumerate_domain(StmtId(0), &[0]).is_empty());
    }

    #[test]
    fn accessors() {
        let scop = triangle_scop();
        assert_eq!(scop.nparams(), 1);
        assert_eq!(scop.max_depth(), 2);
        assert!(scop.is_fully_affine());
        let s = scop.stmt(StmtId(0));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.writes().count(), 1);
        assert_eq!(s.reads().count(), 0);
    }
}
