//! Objectives stage: assembling one scheduling dimension's ILP.
//!
//! [`assemble`] turns a dimension's [`IlpKey`] (its plan, the
//! configuration's ILP-shaping part, the dependences it must respect and
//! the rows committed so far) into a concrete
//! `(ConstraintSystem, lexicographic objectives)` pair over the engine's
//! fixed [`IlpSpace`]:
//!
//! 1. **legality** — `Δ_e ≥ 0` per live (source, target, polyhedron)
//!    class of dependences, substituted into the polyhedron's cone in
//!    the [`FarkasCache`](crate::pipeline::FarkasCache) through the
//!    run's [`CacheSession`];
//! 2. **progression** — the next row of every incomplete statement must
//!    leave the span of its committed rows (Eq. 3);
//! 3. **box bounds** — keep branch-and-bound finite and solutions small;
//! 4. **cost functions** — layered constraint rows and objectives in
//!    priority order ([`build_costs`]);
//! 5. **custom constraints** — the mini-language of §III-A2;
//! 6. **directives** — soft constraints kept only while feasible;
//! 7. **tie-break** — a coefficient-sum objective keeping rows
//!    primitive, the iterator-coefficient sum (a shift `i + k` beats a
//!    scaled `k·i`), then every statement variable on its own. The
//!    lexmin is then total over the schedule coefficients: one point
//!    attains it, so the schedule is a function of the SCoP and the
//!    configuration and not of the vertex the simplex happened to reach.

use std::borrow::Cow;

use polytops_deps::Dependence;
use polytops_ir::Scop;
use polytops_math::{ilp_feasible, orthogonal_complement, ConstraintSystem, Echelon, RowKind};

use crate::config::{CostFn, DirectiveKind, SchedulerConfig};
use crate::constraints::parse_constraints;
use crate::costfn::{big_loops_first_coeffs, contiguity_coeffs, DepConstraint};
use crate::error::ScheduleError;
use crate::pipeline::legality::CacheSession;
use crate::space::IlpSpace;

/// Everything a set of cost functions contributes to one dimension's ILP.
#[derive(Debug, Clone)]
pub struct CostBuild {
    /// Extra constraint rows over the ILP space.
    pub sys: ConstraintSystem,
    /// Lexicographic objective rows (leftmost = highest priority).
    pub objectives: Vec<Vec<i64>>,
}

/// Expands a directive/fusion target list: `None` means every statement.
pub fn expand_targets(stmts: Option<&Vec<usize>>, nstmts: usize) -> Vec<usize> {
    match stmts {
        Some(ids) => ids.clone(),
        None => (0..nstmts).collect(),
    }
}

/// One dimension's ILP question: everything [`assemble`] and the
/// engine's post-solve flags read beyond the SCoP-fixed part of a
/// [`DimensionContext`] (the SCoP, its dependences and their cones, the
/// variable layout). Over one SCoP, equal keys ask the same ILP and get
/// the same answer, which is what lets the scenario engine answer a key
/// once for every solve group of a run that asks it.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpKey<'a> {
    /// The configuration's ILP-shaping part: its solve key with the
    /// fields only the strategy reads (cost functions, custom
    /// constraints, fusion controls, the isl fallback) reset.
    pub config: Cow<'a, SchedulerConfig>,
    /// The plan's cost functions, in lexicographic priority order.
    pub cost_functions: Cow<'a, [CostFn]>,
    /// The plan's custom constraint strings.
    pub extra_constraints: Cow<'a, [String]>,
    /// Ids of the dependences whose legality (`Δ ≥ 0`) this dimension
    /// must enforce: the live ones plus, while the band stays open,
    /// those carried *inside the current band*, which is what makes the
    /// emitted bands permutable (tilable) à la Pluto.
    pub legality: Vec<usize>,
    /// Ids of the live (uncarried) dependences: the set cost functions
    /// optimize over and the parallel flag is read on.
    pub live: Vec<usize>,
    /// `rows[stmt][dim]`: the committed schedule rows.
    pub rows: Cow<'a, [Vec<Vec<i64>>]>,
}

impl IlpKey<'_> {
    /// This key with its borrowed parts copied, to be kept.
    pub fn into_owned(self) -> IlpKey<'static> {
        IlpKey {
            config: Cow::Owned(self.config.into_owned()),
            cost_functions: Cow::Owned(self.cost_functions.into_owned()),
            extra_constraints: Cow::Owned(self.extra_constraints.into_owned()),
            legality: self.legality,
            live: self.live,
            rows: Cow::Owned(self.rows.into_owned()),
        }
    }
}

/// Read-only context of one dimension's assembly: the SCoP-fixed data
/// and the dimension's [`IlpKey`]. Nothing else reaches [`assemble`].
pub struct DimensionContext<'a> {
    /// The SCoP being scheduled.
    pub scop: &'a Scop,
    /// The SCoP's dependences, indexed by the ids in the key.
    pub deps: &'a [Dependence],
    /// The engine's fixed ILP variable layout.
    pub space: &'a IlpSpace,
    /// This run's session over the SCoP's Farkas cones.
    pub cache: &'a CacheSession,
    /// Per-statement echelon form of the iterator parts of the key's
    /// rows, which the engine keeps as it commits them.
    pub basis: &'a [Echelon],
    /// The question.
    pub key: &'a IlpKey<'a>,
}

impl DimensionContext<'_> {
    /// The key's live dependences as `(id, dependence)` pairs.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Dependence)> {
        self.key.live.iter().map(|&e| (e, &self.deps[e]))
    }
}

/// Builds the constraint rows and objective sequence for a dimension's
/// configured cost functions, in priority order.
///
/// # Errors
///
/// Propagates arithmetic overflow and unknown user variables.
pub fn build_costs(
    ctx: &DimensionContext<'_>,
    costs: &[CostFn],
) -> Result<CostBuild, ScheduleError> {
    let space = ctx.space;
    let mut out = CostBuild {
        sys: ConstraintSystem::new(space.total()),
        objectives: Vec::new(),
    };
    for cost in costs {
        match cost {
            CostFn::Proximity => {
                ctx.cache.extend_classes(
                    DepConstraint::Proximity,
                    &ctx.key.live,
                    ctx.deps,
                    space,
                    &mut out.sys,
                )?;
                // Objectives: Σ u_j first, then w (Pluto's lexmin order).
                let mut urow = vec![0i64; space.total()];
                for j in 0..space.nparams {
                    urow[space.u(j)] = 1;
                }
                out.objectives.push(urow);
                let mut wrow = vec![0i64; space.total()];
                wrow[space.w()] = 1;
                out.objectives.push(wrow);
            }
            CostFn::Feautrier => {
                for (e, dep) in ctx.live() {
                    ctx.cache
                        .extend(DepConstraint::Feautrier, e, dep, space, &mut out.sys)?;
                }
                // Maximize Σ x_e  ⇔  minimize −Σ x_e (the 0 ≤ x_e ≤ 1 box
                // is part of the engine's bounds).
                let mut row = vec![0i64; space.total()];
                for &e in ctx.key.live.iter() {
                    row[space.dep_var(e)] = -1;
                }
                out.objectives.push(row);
            }
            CostFn::Contiguity => {
                let mut row = vec![0i64; space.total() + 1];
                for (sid, stmt) in ctx.scop.statements.iter().enumerate() {
                    let coeffs = contiguity_coeffs(ctx.scop, stmt);
                    for (k, &c) in coeffs.iter().enumerate() {
                        space.add_iter_coeff(&mut row, sid, k, c);
                    }
                }
                row.pop();
                out.objectives.push(row);
            }
            CostFn::BigLoopsFirst => {
                let mut row = vec![0i64; space.total() + 1];
                for (sid, stmt) in ctx.scop.statements.iter().enumerate() {
                    let coeffs =
                        big_loops_first_coeffs(ctx.scop, stmt, ctx.key.config.parameter_estimate);
                    for (k, &c) in coeffs.iter().enumerate() {
                        space.add_iter_coeff(&mut row, sid, k, c);
                    }
                }
                row.pop();
                out.objectives.push(row);
            }
            CostFn::UserVar(name) => {
                let v = space.user(name).ok_or_else(|| ScheduleError::Config {
                    detail: format!("cost function references unknown variable `{name}`"),
                })?;
                let mut row = vec![0i64; space.total()];
                row[v] = 1;
                out.objectives.push(row);
            }
        }
    }
    Ok(out)
}

/// Assembles the full constraint system and lexicographic objective
/// sequence of one scheduling dimension: its key's question over the
/// context's SCoP-fixed data.
///
/// # Errors
///
/// Propagates arithmetic overflow, constraint-syntax errors and unknown
/// user variables.
pub fn assemble(
    ctx: &DimensionContext<'_>,
) -> Result<(ConstraintSystem, Vec<Vec<i64>>), ScheduleError> {
    let space = ctx.space;
    let n = space.total();
    let mut sys = ConstraintSystem::new(n);

    // 1. Legality: Farkas-linearized Δ ≥ 0 per live dependence and per
    //    dependence carried earlier in the (still open) current band,
    //    one replay per (source, target, polyhedron).
    {
        let _span = polytops_obs::span("legality");
        ctx.cache.extend_classes(
            DepConstraint::Validity,
            &ctx.key.legality,
            ctx.deps,
            space,
            &mut sys,
        )?;
    }

    // 2. Progression (Eq. 3).
    add_progression(ctx, &mut sys)?;

    // 3. Box bounds.
    let feautrier = ctx.key.cost_functions.contains(&CostFn::Feautrier);
    add_bounds(ctx, feautrier, &mut sys);

    // 4. Cost functions, layered in priority order.
    let cost = build_costs(ctx, &ctx.key.cost_functions)?;
    sys.extend(&cost.sys);

    // 5. Custom constraints (the mini-language of §III-A2).
    for (kind, row) in parse_constraints(&ctx.key.extra_constraints, space)? {
        match kind {
            RowKind::Eq => sys.add_eq(row),
            RowKind::Ineq => sys.add_ineq(row),
        }
    }

    // 6. Directives are suggestions: each is kept only if the space
    //    stays feasible with it (paper §III-B1).
    apply_directives(ctx, &mut sys);

    // 7. Lexicographic objectives: the configured costs first, then a
    //    coefficient-sum tie-break that drives completed statements to
    //    all-zero rows and keeps coefficients primitive. The sum cannot
    //    tell `(1,0,0)` from `(0,1,0)`, nor `i + k` from `k·i`, so the
    //    iterator-coefficient sum and then each statement variable on
    //    its own (a block's last variable first: constants before
    //    iterators, inner iterators before outer) follow it, and every
    //    schedule coefficient is pinned by the model. The ± parts of a
    //    `negative_coefficients` block are variables like any other.
    let mut objectives = cost.objectives;
    let (mut tie, mut iters) = (vec![0i64; n], vec![0i64; n]);
    let mult = if space.negative { 2 } else { 1 };
    for (s, stmt) in ctx.scop.statements.iter().enumerate() {
        let block = space.stmt_vars(s);
        tie[block.clone()].fill(1);
        iters[block.start..block.start + mult * stmt.depth()].fill(1);
    }
    objectives.push(tie);
    objectives.push(iters);
    for s in 0..ctx.scop.statements.len() {
        for v in space.stmt_vars(s).rev() {
            let mut unit = vec![0i64; n];
            unit[v] = 1;
            objectives.push(unit);
        }
    }

    Ok((sys, objectives))
}

/// The next row of every incomplete statement must have a nonzero
/// component in the orthogonal complement of its committed rows.
fn add_progression(
    ctx: &DimensionContext<'_>,
    sys: &mut ConstraintSystem,
) -> Result<(), ScheduleError> {
    let space = ctx.space;
    let n = space.total();
    for (s, stmt) in ctx.scop.statements.iter().enumerate() {
        if ctx.basis[s].rank() == stmt.depth() || stmt.depth() == 0 {
            continue;
        }
        // `orthogonal_complement` returns a spanning (possibly redundant,
        // sign-symmetric) row set; keep only the rows independent of
        // those before them — otherwise opposite-sign rows cancel in the
        // sum constraint and the per-row half-spaces collapse the cone to
        // the already-covered subspace.
        let mut perp_basis = Echelon::new(stmt.depth());
        let mut sum = vec![0i64; n + 1];
        for h in orthogonal_complement(&ctx.basis[s])? {
            if !perp_basis.insert(&h)? {
                continue;
            }
            let mut row = vec![0i64; n + 1];
            for (k, &c) in h.iter().enumerate() {
                space.add_iter_coeff(&mut row, s, k, c);
                space.add_iter_coeff(&mut sum, s, k, c);
            }
            if !ctx.key.config.negative_coefficients {
                sys.add_ineq(row);
            }
        }
        sum[n] = -1; // Σ h·t ≥ 1
        sys.add_ineq(sum);
    }
    Ok(())
}

/// Box bound on schedule constants; the fast path's shift repair stops
/// at it too.
pub(crate) const CONSTANT_BOUND: i64 = 16;

/// Box bound on the proximity `u`/`w` variables and user variables.
const PROXIMITY_BOUND: i64 = 32;

/// Box bounds over the raw ILP variables. Dependence-satisfaction
/// variables `x_e` are boxed to `[0, 1]` only when Feautrier's cost is
/// active for a live dependence and pinned to 0 otherwise. The pinned
/// columns are not free: each stays a lexmin variable with its two
/// bound rows. In one `sweep_ilp` pass, 440 of the 1 309 lexmin
/// variables are pinned `x_e`, and they bring 880 of the 3 855
/// normalized rows.
fn add_bounds(ctx: &DimensionContext<'_>, feautrier: bool, sys: &mut ConstraintSystem) {
    let space = ctx.space;
    let config = &ctx.key.config;
    let n = space.total();
    let mut bound = |var: usize, hi: i64| {
        let mut lo_row = vec![0i64; n + 1];
        lo_row[var] = 1;
        sys.add_ineq(lo_row); // var >= 0
        let mut hi_row = vec![0i64; n + 1];
        hi_row[var] = -1;
        hi_row[n] = hi;
        sys.add_ineq(hi_row); // var <= hi
    };
    for j in 0..space.nparams {
        bound(space.u(j), PROXIMITY_BOUND);
    }
    bound(space.w(), PROXIMITY_BOUND);
    for i in 0..space.user_names.len() {
        bound(space.user_offset + i, PROXIMITY_BOUND);
    }
    let mut live_dep = vec![false; space.num_deps];
    for &e in ctx.key.live.iter() {
        live_dep[e] = true;
    }
    for (e, &live) in live_dep.iter().enumerate() {
        bound(space.dep_var(e), if feautrier && live { 1 } else { 0 });
    }
    let mult = if space.negative { 2 } else { 1 };
    for (s, stmt) in ctx.scop.statements.iter().enumerate() {
        let block = space.stmt_vars(s);
        let iter_end = block.start + mult * stmt.depth();
        let const_start = block.end - mult;
        for v in block.clone() {
            let hi = if v < iter_end {
                config.coefficient_bound
            } else if v >= const_start {
                CONSTANT_BOUND
            } else {
                // Parameter-coefficient columns (parametric shift).
                config.coefficient_bound
            };
            bound(v, hi);
        }
    }
}

/// Soft directive constraints: each directive's rows are added only when
/// the system stays feasible with them.
fn apply_directives(ctx: &DimensionContext<'_>, sys: &mut ConstraintSystem) {
    let space = ctx.space;
    let n = space.total();
    let nstmts = ctx.scop.statements.len();
    for d in &ctx.key.config.directives {
        let targets = expand_targets(d.stmts.as_ref(), nstmts);
        let mut extra: Vec<(RowKind, Vec<i64>)> = Vec::new();
        match d.kind {
            DirectiveKind::Parallelize => {
                // Prefer φ = it_q for targets still at rank 0.
                for &s in &targets {
                    let stmt = &ctx.scop.statements[s];
                    if ctx.basis[s].rank() != 0 || d.iterator >= stmt.depth() {
                        continue;
                    }
                    for k in 0..stmt.depth() {
                        let mut row = vec![0i64; n + 1];
                        space.add_iter_coeff(&mut row, s, k, 1);
                        row[n] = if k == d.iterator { -1 } else { 0 };
                        extra.push((RowKind::Eq, row));
                    }
                }
            }
            DirectiveKind::Vectorize => {
                // Keep it_q unscheduled (innermost) while the target
                // statement still has other dimensions to place.
                for &s in &targets {
                    let stmt = &ctx.scop.statements[s];
                    if d.iterator >= stmt.depth() || ctx.basis[s].rank() + 1 >= stmt.depth() {
                        continue;
                    }
                    let mut row = vec![0i64; n + 1];
                    space.add_iter_coeff(&mut row, s, d.iterator, 1);
                    extra.push((RowKind::Eq, row));
                }
            }
            DirectiveKind::Sequential => {
                // Handled when parallel flags are assigned.
            }
        }
        if extra.is_empty() {
            continue;
        }
        let mut probe = sys.clone();
        for (kind, row) in &extra {
            match kind {
                RowKind::Eq => probe.add_eq(row.clone()),
                RowKind::Ineq => probe.add_ineq(row.clone()),
            }
        }
        if ilp_feasible(&probe) {
            *sys = probe;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_targets_defaults_to_all() {
        assert_eq!(expand_targets(None, 3), vec![0, 1, 2]);
        assert_eq!(expand_targets(Some(&vec![2, 0]), 3), vec![2, 0]);
    }
}
