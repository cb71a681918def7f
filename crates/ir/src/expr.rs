//! Affine expressions over statement iterators and global parameters.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `Σ aᵢ·itᵢ + Σ bⱼ·Nⱼ + c` over a statement's
/// iteration vector and the SCoP's parameters.
///
/// The iterator/parameter spaces are positional; names live in the
/// enclosing [`Statement`](crate::Statement) and [`Scop`](crate::Scop).
///
/// # Examples
///
/// ```
/// use polytops_ir::AffineExpr;
///
/// // 2*i - j + N - 1 over 2 iterators and 1 parameter
/// let e = AffineExpr::new(vec![2, -1], vec![1], -1);
/// assert_eq!(e.eval(&[3, 4], &[10]), 2 * 3 - 4 + 10 - 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    iter_coeffs: Vec<i64>,
    param_coeffs: Vec<i64>,
    constant: i64,
}

impl AffineExpr {
    /// Creates an expression from raw coefficient vectors.
    pub fn new(iter_coeffs: Vec<i64>, param_coeffs: Vec<i64>, constant: i64) -> AffineExpr {
        AffineExpr {
            iter_coeffs,
            param_coeffs,
            constant,
        }
    }

    /// The zero expression in a `(depth, nparams)` space.
    pub fn zero(depth: usize, nparams: usize) -> AffineExpr {
        AffineExpr::new(vec![0; depth], vec![0; nparams], 0)
    }

    /// A constant expression in a `(depth, nparams)` space.
    pub fn constant(depth: usize, nparams: usize, value: i64) -> AffineExpr {
        AffineExpr::new(vec![0; depth], vec![0; nparams], value)
    }

    /// The expression `itᵢ` in a `(depth, nparams)` space.
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth`.
    pub fn iter(depth: usize, nparams: usize, i: usize) -> AffineExpr {
        let mut e = AffineExpr::zero(depth, nparams);
        e.iter_coeffs[i] = 1;
        e
    }

    /// The expression `Nⱼ` in a `(depth, nparams)` space.
    ///
    /// # Panics
    ///
    /// Panics if `j >= nparams`.
    pub fn param(depth: usize, nparams: usize, j: usize) -> AffineExpr {
        let mut e = AffineExpr::zero(depth, nparams);
        e.param_coeffs[j] = 1;
        e
    }

    /// Iterator coefficients.
    pub fn iter_coeffs(&self) -> &[i64] {
        &self.iter_coeffs
    }

    /// Parameter coefficients.
    pub fn param_coeffs(&self) -> &[i64] {
        &self.param_coeffs
    }

    /// Constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Number of iterator dimensions of the space.
    pub fn depth(&self) -> usize {
        self.iter_coeffs.len()
    }

    /// Number of parameter dimensions of the space.
    pub fn nparams(&self) -> usize {
        self.param_coeffs.len()
    }

    /// Evaluates at concrete iterator and parameter values.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> i64 {
        assert_eq!(iters.len(), self.iter_coeffs.len(), "iter arity mismatch");
        assert_eq!(
            params.len(),
            self.param_coeffs.len(),
            "param arity mismatch"
        );
        let mut acc = i128::from(self.constant);
        for (c, v) in self.iter_coeffs.iter().zip(iters) {
            acc += i128::from(*c) * i128::from(*v);
        }
        for (c, v) in self.param_coeffs.iter().zip(params) {
            acc += i128::from(*c) * i128::from(*v);
        }
        i64::try_from(acc).expect("affine evaluation overflow")
    }

    /// Whether every coefficient and the constant are zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0
            && self.iter_coeffs.iter().all(|&c| c == 0)
            && self.param_coeffs.iter().all(|&c| c == 0)
    }

    /// The row `[iter_coeffs, param_coeffs, constant]` used by constraint
    /// systems over the `(iters, params, 1)` column layout.
    pub fn to_row(&self) -> Vec<i64> {
        let mut row = Vec::with_capacity(self.iter_coeffs.len() + self.param_coeffs.len() + 1);
        row.extend_from_slice(&self.iter_coeffs);
        row.extend_from_slice(&self.param_coeffs);
        row.push(self.constant);
        row
    }

    /// Builds an expression back from a `(iters, params, 1)` row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != depth + nparams + 1`.
    pub fn from_row(row: &[i64], depth: usize, nparams: usize) -> AffineExpr {
        assert_eq!(row.len(), depth + nparams + 1, "row length mismatch");
        AffineExpr {
            iter_coeffs: row[..depth].to_vec(),
            param_coeffs: row[depth..depth + nparams].to_vec(),
            constant: row[depth + nparams],
        }
    }

    /// Renders with the given names (used by the pretty printers).
    pub fn display(&self, iter_names: &[&str], param_names: &[&str]) -> String {
        let mut terms: Vec<String> = Vec::new();
        let mut push_term = |c: i64, name: &str| {
            if c == 0 {
                return;
            }
            if c == 1 {
                terms.push(name.to_string());
            } else if c == -1 {
                terms.push(format!("-{name}"));
            } else {
                terms.push(format!("{c}*{name}"));
            }
        };
        for (c, name) in self.iter_coeffs.iter().zip(iter_names) {
            push_term(*c, name);
        }
        for (c, name) in self.param_coeffs.iter().zip(param_names) {
            push_term(*c, name);
        }
        if self.constant != 0 || terms.is_empty() {
            terms.push(self.constant.to_string());
        }
        let mut out = String::new();
        for (i, t) in terms.iter().enumerate() {
            if i == 0 {
                out.push_str(t);
            } else if let Some(stripped) = t.strip_prefix('-') {
                out.push_str(" - ");
                out.push_str(stripped);
            } else {
                out.push_str(" + ");
                out.push_str(t);
            }
        }
        out
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iters: Vec<String> = (0..self.iter_coeffs.len())
            .map(|i| format!("i{i}"))
            .collect();
        let params: Vec<String> = (0..self.param_coeffs.len())
            .map(|j| format!("N{j}"))
            .collect();
        let in_refs: Vec<&str> = iters.iter().map(String::as_str).collect();
        let pn_refs: Vec<&str> = params.iter().map(String::as_str).collect();
        write!(f, "{}", self.display(&in_refs, &pn_refs))
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: AffineExpr) -> AffineExpr {
        assert_eq!(self.depth(), rhs.depth(), "space mismatch");
        assert_eq!(self.nparams(), rhs.nparams(), "space mismatch");
        AffineExpr {
            iter_coeffs: self
                .iter_coeffs
                .iter()
                .zip(&rhs.iter_coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            param_coeffs: self
                .param_coeffs
                .iter()
                .zip(&rhs.param_coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + rhs.constant,
        }
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        for c in &mut self.iter_coeffs {
            *c = -*c;
        }
        for c in &mut self.param_coeffs {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, k: i64) -> AffineExpr {
        for c in &mut self.iter_coeffs {
            *c *= k;
        }
        for c in &mut self.param_coeffs {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

/// A symbolic affine term used by [`ScopBuilder`](crate::ScopBuilder):
/// a name-based expression resolved to positional coefficients when the
/// statement is finalized.
///
/// # Examples
///
/// ```
/// use polytops_ir::Aff;
///
/// let e = Aff::var("i") * 2 + Aff::param("N") - 1;
/// assert_eq!(format!("{e:?}"), "2*i + N - 1");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Aff {
    /// `(name, coefficient)` pairs; variables and parameters share the
    /// namespace and are disambiguated at resolution time.
    terms: Vec<(String, i64)>,
    constant: i64,
}

impl Aff {
    /// A named loop iterator (or parameter — resolution decides).
    pub fn var(name: &str) -> Aff {
        Aff {
            terms: vec![(name.to_string(), 1)],
            constant: 0,
        }
    }

    /// A named parameter (alias of [`Aff::var`]; kept for readability).
    pub fn param(name: &str) -> Aff {
        Aff::var(name)
    }

    /// An integer constant.
    pub fn val(c: i64) -> Aff {
        Aff {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The symbolic terms.
    pub fn terms(&self) -> &[(String, i64)] {
        &self.terms
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Resolves against named iterator and parameter lists.
    ///
    /// Returns `None` if a term's name is neither an iterator nor a
    /// parameter.
    pub fn resolve(&self, iter_names: &[String], param_names: &[String]) -> Option<AffineExpr> {
        let mut e = AffineExpr::zero(iter_names.len(), param_names.len());
        e.constant = self.constant;
        for (name, c) in &self.terms {
            if let Some(i) = iter_names.iter().position(|n| n == name) {
                e.iter_coeffs[i] += c;
            } else if let Some(j) = param_names.iter().position(|n| n == name) {
                e.param_coeffs[j] += c;
            } else {
                return None;
            }
        }
        Some(e)
    }
}

impl fmt::Debug for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, c) in &self.terms {
            if *c == 0 {
                continue;
            }
            if first {
                if *c == 1 {
                    write!(f, "{name}")?;
                } else if *c == -1 {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{c}*{name}")?;
                }
                first = false;
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}*{name}")?;
                }
            } else if *c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}*{name}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

impl From<i64> for Aff {
    fn from(v: i64) -> Aff {
        Aff::val(v)
    }
}

impl Add for Aff {
    type Output = Aff;
    fn add(mut self, rhs: Aff) -> Aff {
        for (name, c) in rhs.terms {
            if let Some(t) = self.terms.iter_mut().find(|(n, _)| *n == name) {
                t.1 += c;
            } else {
                self.terms.push((name, c));
            }
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<i64> for Aff {
    type Output = Aff;
    fn add(self, rhs: i64) -> Aff {
        self + Aff::val(rhs)
    }
}

impl Sub for Aff {
    type Output = Aff;
    fn sub(self, rhs: Aff) -> Aff {
        self + (-rhs)
    }
}

impl Sub<i64> for Aff {
    type Output = Aff;
    fn sub(self, rhs: i64) -> Aff {
        self + Aff::val(-rhs)
    }
}

impl Neg for Aff {
    type Output = Aff;
    fn neg(mut self) -> Aff {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for Aff {
    type Output = Aff;
    fn mul(mut self, k: i64) -> Aff {
        for t in &mut self.terms {
            t.1 *= k;
        }
        self.constant *= k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_coefficients() {
        let e = AffineExpr::new(vec![1, -2], vec![3], 4);
        assert_eq!(e.eval(&[10, 1], &[2]), 10 - 2 + 6 + 4);
    }

    #[test]
    fn row_round_trip() {
        let e = AffineExpr::new(vec![1, -2], vec![3], 4);
        let row = e.to_row();
        assert_eq!(row, vec![1, -2, 3, 4]);
        assert_eq!(AffineExpr::from_row(&row, 2, 1), e);
    }

    #[test]
    fn arithmetic() {
        let a = AffineExpr::new(vec![1, 0], vec![0], 1);
        let b = AffineExpr::new(vec![0, 1], vec![1], -1);
        let s = a.clone() + b.clone();
        assert_eq!(s, AffineExpr::new(vec![1, 1], vec![1], 0));
        assert_eq!(a.clone() - a.clone(), AffineExpr::zero(2, 1));
        assert_eq!(b * 2, AffineExpr::new(vec![0, 2], vec![2], -2));
    }

    #[test]
    fn display_is_readable() {
        let e = AffineExpr::new(vec![2, -1], vec![1], -1);
        assert_eq!(e.display(&["i", "j"], &["N"]), "2*i - j + N - 1");
        assert_eq!(AffineExpr::zero(0, 0).display(&[], &[]), "0");
    }

    #[test]
    fn aff_resolution() {
        let e = Aff::var("i") * 2 + Aff::param("N") - 3;
        let resolved = e.resolve(&["i".into(), "j".into()], &["N".into()]).unwrap();
        assert_eq!(resolved, AffineExpr::new(vec![2, 0], vec![1], -3));
        assert!(Aff::var("zz").resolve(&["i".into()], &[]).is_none());
    }

    #[test]
    fn aff_merges_repeated_names() {
        let e = Aff::var("i") + Aff::var("i") - 1;
        let resolved = e.resolve(&["i".into()], &[]).unwrap();
        assert_eq!(resolved, AffineExpr::new(vec![2], vec![], -1));
    }
}
