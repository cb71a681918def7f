//! Ergonomic construction of [`Scop`]s that mirrors source nesting.
//!
//! The builder keeps an explicit loop stack so the 2d+1 textual positions
//! (β-vectors) fall out of the construction order, exactly like reading
//! the original program top to bottom.

use std::error::Error;
use std::fmt;

use polytops_math::ConstraintSystem;

use crate::expr::{Aff, AffineExpr};
use crate::scop::{Access, AccessKind, ArrayId, ArrayInfo, Scop, Statement, StmtId, Subscript};

/// Errors reported while building a [`Scop`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// An expression referenced a name that is neither a surrounding
    /// iterator nor a declared parameter.
    UnknownName {
        /// The unresolved name.
        name: String,
        /// Statement or loop where it appeared.
        context: String,
    },
    /// `build` was called with loops still open.
    UnbalancedLoops,
    /// `close_loop` without a matching `open_loop`.
    NoOpenLoop,
    /// Two parameters or arrays share a name.
    DuplicateName(String),
    /// An access used the wrong number of subscripts.
    SubscriptArity {
        /// Array name.
        array: String,
        /// Declared dimensionality.
        expected: usize,
        /// Subscripts provided.
        found: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownName { name, context } => {
                write!(f, "unknown name `{name}` in {context}")
            }
            BuildError::UnbalancedLoops => write!(f, "build called with open loops"),
            BuildError::NoOpenLoop => write!(f, "close_loop without open_loop"),
            BuildError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            BuildError::SubscriptArity {
                array,
                expected,
                found,
            } => write!(
                f,
                "array `{array}` has {expected} dimensions but {found} subscripts were given"
            ),
        }
    }
}

impl Error for BuildError {}

/// A subscript specification accepted by [`StmtSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubSpec {
    /// Plain affine subscript.
    Aff(Aff),
    /// `floor(e / k)`, `k > 0`.
    FloorDiv(Aff, i64),
    /// `e mod k`, `k > 0`.
    Mod(Aff, i64),
}

impl From<Aff> for SubSpec {
    fn from(a: Aff) -> SubSpec {
        SubSpec::Aff(a)
    }
}

struct LoopFrame {
    name: String,
    lb: Aff,
    ub: Aff,
    beta_pos: i64,
}

struct PendingAccess {
    array: ArrayId,
    kind: AccessKind,
    subscripts: Vec<SubSpec>,
}

/// A statement under construction; finalize with [`StmtSpec::add`].
///
/// Created by [`ScopBuilder::stmt`]. All configuration methods consume and
/// return `self` for chaining.
pub struct StmtSpec {
    name: String,
    accesses: Vec<PendingAccess>,
    ops: u32,
    text: Option<String>,
}

impl StmtSpec {
    /// Declares a read of `array` at affine subscripts.
    pub fn read(mut self, array: ArrayId, subs: &[Aff]) -> StmtSpec {
        self.accesses.push(PendingAccess {
            array,
            kind: AccessKind::Read,
            subscripts: subs.iter().cloned().map(SubSpec::Aff).collect(),
        });
        self
    }

    /// Declares a write of `array` at affine subscripts.
    pub fn write(mut self, array: ArrayId, subs: &[Aff]) -> StmtSpec {
        self.accesses.push(PendingAccess {
            array,
            kind: AccessKind::Write,
            subscripts: subs.iter().cloned().map(SubSpec::Aff).collect(),
        });
        self
    }

    /// Declares a read with general subscripts (div/mod allowed).
    pub fn read_subs(mut self, array: ArrayId, subs: Vec<SubSpec>) -> StmtSpec {
        self.accesses.push(PendingAccess {
            array,
            kind: AccessKind::Read,
            subscripts: subs,
        });
        self
    }

    /// Declares a write with general subscripts (div/mod allowed).
    pub fn write_subs(mut self, array: ArrayId, subs: Vec<SubSpec>) -> StmtSpec {
        self.accesses.push(PendingAccess {
            array,
            kind: AccessKind::Write,
            subscripts: subs,
        });
        self
    }

    /// Sets the arithmetic cost per instance (default 1).
    pub fn ops(mut self, ops: u32) -> StmtSpec {
        self.ops = ops;
        self
    }

    /// Attaches source text for pretty printing.
    pub fn text(mut self, text: &str) -> StmtSpec {
        self.text = Some(text.to_string());
        self
    }

    /// Finalizes the statement into the builder at the current loop
    /// nesting.
    ///
    /// # Panics
    ///
    /// Panics if a name cannot be resolved or a subscript arity is wrong;
    /// use [`StmtSpec::try_add`] for a fallible version.
    pub fn add(self, b: &mut ScopBuilder) {
        self.try_add(b).expect("statement construction failed");
    }

    /// Fallible version of [`StmtSpec::add`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when names cannot be resolved or subscripts
    /// do not match the array's dimensionality.
    pub fn try_add(self, b: &mut ScopBuilder) -> Result<(), BuildError> {
        b.add_stmt_spec(self)
    }
}

/// Builds [`Scop`]s with source-shaped nesting.
///
/// # Examples
///
/// ```
/// use polytops_ir::{Aff, ScopBuilder};
///
/// // for (i = 0; i < N; i++)
/// //   for (j = 0; j < N; j++)
/// //     C[i][j] = A[i][j] * 2;   (S0)
/// let mut b = ScopBuilder::new("scale");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone(), n.clone()], 8);
/// let c = b.array("C", &[n.clone(), n.clone()], 8);
/// b.open_loop("i", Aff::val(0), n.clone() - 1);
/// b.open_loop("j", Aff::val(0), n.clone() - 1);
/// b.stmt("S0")
///     .read(a, &[Aff::var("i"), Aff::var("j")])
///     .write(c, &[Aff::var("i"), Aff::var("j")])
///     .add(&mut b);
/// b.close_loop();
/// b.close_loop();
/// let scop = b.build().unwrap();
/// assert_eq!(scop.statements.len(), 1);
/// ```
pub struct ScopBuilder {
    name: String,
    params: Vec<String>,
    context_rows: Vec<Aff>,
    arrays: Vec<ArrayInfo>,
    array_dim_specs: Vec<Vec<Aff>>,
    loops: Vec<LoopFrame>,
    beta_counters: Vec<i64>,
    statements: Vec<Statement>,
    error: Option<BuildError>,
}

impl ScopBuilder {
    /// Starts building a SCoP called `name`.
    pub fn new(name: &str) -> ScopBuilder {
        ScopBuilder {
            name: name.to_string(),
            params: Vec::new(),
            context_rows: Vec::new(),
            arrays: Vec::new(),
            array_dim_specs: Vec::new(),
            loops: Vec::new(),
            beta_counters: vec![0],
            statements: Vec::new(),
            error: None,
        }
    }

    /// Declares a parameter and returns it as an [`Aff`] term. Also
    /// records the default context constraint `param >= 1`.
    pub fn param(&mut self, name: &str) -> Aff {
        if self.params.iter().any(|p| p == name) {
            self.error
                .get_or_insert(BuildError::DuplicateName(name.to_string()));
        } else {
            self.params.push(name.to_string());
            self.context_rows.push(Aff::var(name) - 1);
        }
        Aff::var(name)
    }

    /// Adds a context constraint `expr >= 0` over the parameters.
    pub fn context(&mut self, expr: Aff) {
        self.context_rows.push(expr);
    }

    /// Declares an array with the given per-dimension extents (affine in
    /// the parameters) and element size in bytes.
    pub fn array(&mut self, name: &str, dims: &[Aff], element_size: u32) -> ArrayId {
        if self.arrays.iter().any(|a| a.name == name) {
            self.error
                .get_or_insert(BuildError::DuplicateName(name.to_string()));
        }
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayInfo {
            name: name.to_string(),
            dims: Vec::new(), // resolved in build()
            element_size,
        });
        self.array_dim_specs.push(dims.to_vec());
        id
    }

    /// Opens a loop `lb <= name <= ub` (bounds affine in outer iterators
    /// and parameters).
    pub fn open_loop(&mut self, name: &str, lb: Aff, ub: Aff) {
        let beta_pos = *self.beta_counters.last().expect("counter stack");
        *self.beta_counters.last_mut().unwrap() += 1;
        self.beta_counters.push(0);
        self.loops.push(LoopFrame {
            name: name.to_string(),
            lb,
            ub,
            beta_pos,
        });
    }

    /// Closes the innermost open loop.
    pub fn close_loop(&mut self) {
        if self.loops.pop().is_none() {
            self.error.get_or_insert(BuildError::NoOpenLoop);
        }
        self.beta_counters.pop();
    }

    /// Starts a statement at the current nesting.
    pub fn stmt(&self, name: &str) -> StmtSpec {
        StmtSpec {
            name: name.to_string(),
            accesses: Vec::new(),
            ops: 1,
            text: None,
        }
    }

    fn iter_names(&self) -> Vec<String> {
        self.loops.iter().map(|l| l.name.clone()).collect()
    }

    fn add_stmt_spec(&mut self, spec: StmtSpec) -> Result<(), BuildError> {
        let iter_names = self.iter_names();
        let depth = iter_names.len();
        let np = self.params.len();
        let resolve = |a: &Aff, ctx: &str| -> Result<AffineExpr, BuildError> {
            a.resolve(&iter_names, &self.params)
                .ok_or_else(|| BuildError::UnknownName {
                    name: a
                        .terms()
                        .iter()
                        .map(|(n, _)| n.clone())
                        .find(|n| !iter_names.contains(n) && !self.params.contains(n))
                        .unwrap_or_default(),
                    context: ctx.to_string(),
                })
        };

        // Domain: loop bounds outermost-in.
        let mut domain = ConstraintSystem::new(depth + np);
        for frame in &self.loops {
            // name - lb >= 0
            let e = Aff::var(&frame.name) - frame.lb.clone();
            let ae = resolve(&e, &format!("loop {} lower bound", frame.name))?;
            domain.add_ineq(ae.to_row());
            // ub - name >= 0
            let e = frame.ub.clone() - Aff::var(&frame.name);
            let ae = resolve(&e, &format!("loop {} upper bound", frame.name))?;
            domain.add_ineq(ae.to_row());
        }

        // Accesses.
        let mut accesses = Vec::with_capacity(spec.accesses.len());
        for pa in &spec.accesses {
            let info = &self.arrays[pa.array.0];
            let ndims = self.array_dim_specs[pa.array.0].len();
            if pa.subscripts.len() != ndims {
                return Err(BuildError::SubscriptArity {
                    array: info.name.clone(),
                    expected: ndims,
                    found: pa.subscripts.len(),
                });
            }
            let mut subs = Vec::with_capacity(pa.subscripts.len());
            for s in &pa.subscripts {
                let ctx = format!("access to {} in {}", info.name, spec.name);
                subs.push(match s {
                    SubSpec::Aff(a) => Subscript::Aff(resolve(a, &ctx)?),
                    SubSpec::FloorDiv(a, k) => Subscript::FloorDiv(resolve(a, &ctx)?, *k),
                    SubSpec::Mod(a, k) => Subscript::Mod(resolve(a, &ctx)?, *k),
                });
            }
            accesses.push(Access {
                array: pa.array,
                kind: pa.kind,
                subscripts: subs,
            });
        }

        // Beta: position of each open loop plus the statement's slot.
        let mut beta: Vec<i64> = self.loops.iter().map(|l| l.beta_pos).collect();
        beta.push(*self.beta_counters.last().unwrap());
        *self.beta_counters.last_mut().unwrap() += 1;

        let id = StmtId(self.statements.len());
        self.statements.push(Statement {
            id,
            name: spec.name,
            iter_names,
            domain,
            accesses,
            beta,
            compute_ops: spec.ops,
            text: spec.text,
        });
        Ok(())
    }

    /// Finalizes the SCoP.
    ///
    /// # Errors
    ///
    /// Returns the first construction error encountered, or
    /// [`BuildError::UnbalancedLoops`] if loops remain open.
    pub fn build(mut self) -> Result<Scop, BuildError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !self.loops.is_empty() {
            return Err(BuildError::UnbalancedLoops);
        }
        // Resolve array extents (params only).
        let np = self.params.len();
        for (info, dims) in self.arrays.iter_mut().zip(&self.array_dim_specs) {
            let mut resolved = Vec::with_capacity(dims.len());
            for d in dims {
                let e = d
                    .resolve(&[], &self.params)
                    .ok_or_else(|| BuildError::UnknownName {
                        name: d
                            .terms()
                            .iter()
                            .map(|(n, _)| n.clone())
                            .find(|n| !self.params.contains(n))
                            .unwrap_or_default(),
                        context: format!("extent of array {}", info.name),
                    })?;
                // Re-embed into (0 iters, params) space.
                resolved.push(AffineExpr::new(
                    Vec::new(),
                    e.param_coeffs().to_vec(),
                    e.constant_term(),
                ));
            }
            info.dims = resolved;
        }
        let mut context = ConstraintSystem::new(np);
        for c in &self.context_rows {
            let e = c
                .resolve(&[], &self.params)
                .ok_or_else(|| BuildError::UnknownName {
                    name: String::new(),
                    context: "context constraint".to_string(),
                })?;
            let mut row = e.param_coeffs().to_vec();
            row.push(e.constant_term());
            context.add_ineq(row);
        }
        Ok(Scop {
            name: self.name,
            params: self.params,
            context,
            arrays: self.arrays,
            statements: self.statements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_vectors_follow_source_order() {
        // S0; for i { S1; for j { S2 } S3 } S4
        let mut b = ScopBuilder::new("beta");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.stmt("S0").write(a, &[Aff::val(0)]).add(&mut b);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S1").write(a, &[Aff::var("i")]).add(&mut b);
        b.open_loop("j", Aff::val(0), n.clone() - 1);
        b.stmt("S2").write(a, &[Aff::var("j")]).add(&mut b);
        b.close_loop();
        b.stmt("S3").write(a, &[Aff::var("i")]).add(&mut b);
        b.close_loop();
        b.stmt("S4").write(a, &[Aff::val(1)]).add(&mut b);
        let scop = b.build().unwrap();
        let betas: Vec<&[i64]> = scop.statements.iter().map(|s| s.beta.as_slice()).collect();
        assert_eq!(betas[0], &[0]);
        assert_eq!(betas[1], &[1, 0]);
        assert_eq!(betas[2], &[1, 1, 0]);
        assert_eq!(betas[3], &[1, 2]);
        assert_eq!(betas[4], &[2]);
    }

    #[test]
    fn unknown_name_is_reported() {
        let mut b = ScopBuilder::new("bad");
        let _n = b.param("N");
        let a = b.array("A", &[Aff::param("N")], 8);
        let r = b.stmt("S0").write(a, &[Aff::var("nope")]).try_add(&mut b);
        assert!(matches!(r, Err(BuildError::UnknownName { .. })));
    }

    #[test]
    fn subscript_arity_is_checked() {
        let mut b = ScopBuilder::new("bad");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        let r = b.stmt("S0").write(a, &[Aff::var("i")]).try_add(&mut b);
        assert!(matches!(r, Err(BuildError::SubscriptArity { .. })));
    }

    #[test]
    fn unbalanced_loops_fail_build() {
        let mut b = ScopBuilder::new("bad");
        let n = b.param("N");
        b.open_loop("i", Aff::val(0), n - 1);
        assert_eq!(b.build().unwrap_err(), BuildError::UnbalancedLoops);
    }

    #[test]
    fn duplicate_param_fails() {
        let mut b = ScopBuilder::new("bad");
        let _ = b.param("N");
        let _ = b.param("N");
        assert!(matches!(b.build(), Err(BuildError::DuplicateName(_))));
    }

    #[test]
    fn context_contains_declared_bounds() {
        let mut b = ScopBuilder::new("ctx");
        let n = b.param("N");
        b.context(n.clone() - 8); // N >= 8
        let scop = b.build().unwrap();
        assert!(scop.context.contains_point(&[8]));
        assert!(!scop.context.contains_point(&[7]));
    }

    #[test]
    fn triangular_bounds_resolve_outer_iters() {
        let mut b = ScopBuilder::new("tri");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 4);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::var("i") + 1, n - 1);
        b.stmt("S0").write(a, &[Aff::var("j")]).add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let d = &scop.statements[0].domain;
        // (i, j, N): j >= i + 1 holds, j <= i fails.
        assert!(d.contains_point(&[0, 1, 4]));
        assert!(!d.contains_point(&[1, 1, 4]));
    }
}
