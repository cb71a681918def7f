//! Per-cost-function coefficients (paper §III-A1) and the templates of
//! the three affine forms a dependence's Farkas cone is asked about.
//!
//! The assembly of a full dimension's constraint system and objective
//! sequence lives in [`crate::pipeline::objectives`]; this module holds
//! the reusable building blocks it composes. A template says, per
//! coefficient of an affine form over a dependence's `(it_src, it_dst,
//! params, 1)` space, which combination of ILP variables it is; the
//! [`FarkasCache`](crate::pipeline::FarkasCache) substitutes it into the
//! dependence's cone.

use polytops_deps::Dependence;
use polytops_ir::{Scop, Statement, Subscript};
use polytops_math::{farkas_substitute, ConstraintSystem};

use crate::space::IlpSpace;

/// Builds the template matrix of `Δ = φ_dst − φ_src` over a dependence's
/// `(it_src, it_dst, params, 1)` space: one row per `z` variable plus one
/// constant row, each expressing the coefficient as an affine function of
/// the ILP variables. The rows lie one after another in one buffer,
/// `space.total() + 1` entries each.
pub fn delta_template(dep: &Dependence, space: &IlpSpace) -> Vec<i64> {
    let ds = dep.src_depth;
    let dr = dep.dst_depth;
    let np = space.nparams;
    let s = dep.src.0;
    let r = dep.dst.0;
    let width = space.total() + 1;
    let mut template = vec![0i64; (ds + dr + np + 1) * width];
    let mut rows = template.chunks_exact_mut(width);
    for (k, row) in (0..ds).zip(&mut rows) {
        space.add_iter_coeff(row, s, k, -1);
    }
    for (k, row) in (0..dr).zip(&mut rows) {
        space.add_iter_coeff(row, r, k, 1);
    }
    for (j, row) in (0..np).zip(&mut rows) {
        space.add_param_coeff(row, r, j, 1);
        space.add_param_coeff(row, s, j, -1);
    }
    let row = rows.next().expect("the constant row");
    space.add_const_coeff(row, r, 1);
    space.add_const_coeff(row, s, -1);
    template
}

/// The affine forms the scheduler requires to be non-negative on a
/// dependence polyhedron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepConstraint {
    /// Validity `Δ ≥ 0` (Eq. 2 of the paper).
    Validity,
    /// Proximity `u·N + w − Δ ≥ 0` (Eq. 4).
    Proximity,
    /// Feautrier `Δ − x_e ≥ 0` (the `0 ≤ x_e ≤ 1` box is the engine's);
    /// maximizing `Σ x_e` maximizes the number of strongly satisfied
    /// dependences.
    Feautrier,
}

impl DepConstraint {
    /// The template of this form for dependence `dep` (index `e` in the
    /// analysis, which picks its `x_e` column) over `space`, laid out
    /// as [`delta_template`]'s.
    pub fn template(self, dep: &Dependence, e: usize, space: &IlpSpace) -> Vec<i64> {
        let mut template = delta_template(dep, space);
        let width = space.total() + 1;
        let last = template.len() - width;
        match self {
            DepConstraint::Validity => {}
            DepConstraint::Proximity => {
                for v in template.iter_mut() {
                    *v = -*v;
                }
                let params = (dep.src_depth + dep.dst_depth) * width;
                for j in 0..space.nparams {
                    template[params + j * width + space.u(j)] += 1;
                }
                template[last + space.w()] += 1;
            }
            DepConstraint::Feautrier => template[last + space.dep_var(e)] -= 1,
        }
        template
    }

    /// [`template`](DepConstraint::template) substituted into `cone`:
    /// the form's constraints over `space`.
    ///
    /// # Errors
    ///
    /// [`MathError::Overflow`](polytops_math::MathError::Overflow) when
    /// the substitution overflows `i64`.
    pub fn substitute(
        self,
        cone: &ConstraintSystem,
        dep: &Dependence,
        e: usize,
        space: &IlpSpace,
    ) -> polytops_math::Result<ConstraintSystem> {
        let template = self.template(dep, e, space);
        let rows: Vec<&[i64]> = template.chunks_exact(space.total() + 1).collect();
        farkas_substitute(cone, &rows, space.total())
    }
}

/// Nominal parameter value for the contiguity stride analysis: big
/// enough that any inner-dimension walk is obviously not stride-1,
/// irrelevant otherwise (only |stride| == 1 changes a coefficient).
const CONTIGUITY_ESTIMATE: i64 = 64;

/// Per-iterator contiguity support coefficients `c_{S,i}` (Eq. 5).
///
/// Iterators whose uses are genuinely stride-1 — the *linearized
/// element stride* of the access per unit step of the iterator
/// ([`polytops_machine::model::access_stride`], array extents at a
/// nominal parameter estimate) is ±1 — receive a *high* coefficient so
/// that minimization schedules them last (innermost) — exactly the
/// paper's Listing 1 example where `c_{S0} = (10, 1)` forces the
/// interchange. A transposed use like `A[j][i]` stepped by `j` strides
/// a full row, and non-affine (`⌊·/k⌋` / `mod`) uses have no constant
/// stride; both count as ordinary strided uses.
pub fn contiguity_coeffs(scop: &Scop, stmt: &Statement) -> Vec<i64> {
    let d = stmt.depth();
    let mut desire = vec![0i64; d]; // how much we want the iterator innermost
    for acc in &stmt.accesses {
        for (k, want) in desire.iter_mut().enumerate() {
            let involved = acc
                .subscripts
                .iter()
                .any(|s: &Subscript| s.expr().iter_coeffs().get(k).copied().unwrap_or(0) != 0);
            if !involved {
                continue;
            }
            match polytops_machine::model::access_stride(scop, stmt, acc, k, CONTIGUITY_ESTIMATE) {
                Some(s) if s.abs() == 1 => *want += 10, // stride-1 use
                _ => *want += 1,                        // strided / transposed / non-affine use
            }
        }
    }
    // Map desire to cost: most-desired-innermost gets the largest cost.
    desire.iter().map(|&w| 1 + w).collect()
}

/// Per-iterator BigLoopsFirst coefficients: larger iteration extents get
/// smaller costs so they are scheduled outermost. Extents are the exact
/// per-iterator domain extents with parameters fixed at
/// `param_estimate` ([`polytops_machine::model::iterator_extents`] —
/// the same inference the performance model's trip counts use).
pub fn big_loops_first_coeffs(scop: &Scop, stmt: &Statement, param_estimate: i64) -> Vec<i64> {
    let d = stmt.depth();
    let extents = polytops_machine::model::iterator_extents(stmt, scop.nparams(), param_estimate);
    // Rank extents: biggest extent -> cost 1, next -> 2, ...
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(extents[k]));
    let mut cost = vec![1i64; d];
    for (rank, &k) in order.iter().enumerate() {
        cost[k] = 1 + rank as i64;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::analyze;
    use polytops_ir::{Aff, ScopBuilder};
    use polytops_math::farkas_cone;

    fn rows(kind: DepConstraint, dep: &Dependence, space: &IlpSpace) -> ConstraintSystem {
        let cone = farkas_cone(dep.poly()).unwrap();
        kind.substitute(&cone, dep, 0, space).unwrap()
    }

    fn chain() -> (Scop, Vec<Dependence>) {
        let mut b = ScopBuilder::new("chain");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(1), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let deps = analyze(&scop);
        (scop, deps)
    }

    #[test]
    fn validity_accepts_forward_rejects_backward() {
        let (scop, deps) = chain();
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let sys = rows(DepConstraint::Validity, &deps[0], &space);
        // φ = i: T_it = 1, T_cst = 0 -> legal.
        let mut p = vec![0i64; space.total()];
        let b = space.stmts[0].offset;
        p[b] = 1;
        assert!(sys.contains_point(&p));
        // φ = -i illegal (negative split disabled, so emulate via raw -1).
        p[b] = -1;
        assert!(!sys.contains_point(&p));
    }

    #[test]
    fn proximity_bounds_distance() {
        let (scop, deps) = chain();
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let sys = rows(DepConstraint::Proximity, &deps[0], &space);
        let b = space.stmts[0].offset;
        // φ = i: Δ = 1; u = 0, w = 1 satisfies Δ <= w.
        let mut p = vec![0i64; space.total()];
        p[b] = 1;
        p[space.w()] = 1;
        assert!(sys.contains_point(&p));
        // w = 0 does not bound Δ = 1.
        p[space.w()] = 0;
        assert!(!sys.contains_point(&p));
    }

    #[test]
    fn feautrier_var_forces_satisfaction() {
        let (scop, deps) = chain();
        let space = IlpSpace::new(&scop, vec![], deps.len(), false, false);
        let sys = rows(DepConstraint::Feautrier, &deps[0], &space);
        let b = space.stmts[0].offset;
        let x = space.dep_var(0);
        // φ = i with x_e = 1: Δ = 1 >= 1 ok.
        let mut p = vec![0i64; space.total()];
        p[b] = 1;
        p[x] = 1;
        assert!(sys.contains_point(&p));
        // φ = 0 with x_e = 1: Δ = 0 < 1 violates.
        p[b] = 0;
        assert!(!sys.contains_point(&p));
        // φ = 0 with x_e = 0 is fine.
        p[x] = 0;
        assert!(sys.contains_point(&p));
    }

    #[test]
    fn contiguity_matches_listing1() {
        // Listing 1: S0 accesses c[j][i], a[j][i]; S1 accesses d[i][j], e[i][j].
        let mut b = ScopBuilder::new("listing1");
        let a = b.array("a", &[Aff::val(10), Aff::val(100)], 8);
        let c = b.array("c", &[Aff::val(10), Aff::val(100)], 8);
        let e = b.array("e", &[Aff::val(100), Aff::val(10)], 8);
        let d = b.array("d", &[Aff::val(100), Aff::val(10)], 8);
        b.open_loop("i", Aff::val(0), Aff::val(99));
        b.open_loop("j", Aff::val(0), Aff::val(9));
        b.stmt("S0")
            .read(a, &[Aff::var("j"), Aff::var("i")])
            .write(c, &[Aff::var("j"), Aff::var("i")])
            .add(&mut b);
        b.stmt("S1")
            .read(e, &[Aff::var("i"), Aff::var("j")])
            .write(d, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let c0 = contiguity_coeffs(&scop, &scop.statements[0]);
        let c1 = contiguity_coeffs(&scop, &scop.statements[1]);
        // S0: i is stride-1 (last subscript) -> larger cost than j.
        assert!(c0[0] > c0[1], "S0 coeffs {c0:?}");
        // S1: j is stride-1 -> larger cost than i.
        assert!(c1[1] > c1[0], "S1 coeffs {c1:?}");
    }

    #[test]
    fn blf_ranks_extents() {
        // for i in 0..100, j in 0..10: i has the bigger extent -> cost 1.
        let mut b = ScopBuilder::new("blf");
        let a = b.array("A", &[Aff::val(100), Aff::val(10)], 8);
        b.open_loop("i", Aff::val(0), Aff::val(99));
        b.open_loop("j", Aff::val(0), Aff::val(9));
        b.stmt("S0")
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let c = big_loops_first_coeffs(&scop, &scop.statements[0], 64);
        assert_eq!(c, vec![1, 2]);
    }
}
