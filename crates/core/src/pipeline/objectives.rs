//! Objectives stage: assembling one scheduling dimension's ILP.
//!
//! [`assemble`] turns a [`DimensionPlan`] into a concrete
//! `(ConstraintSystem, lexicographic objectives)` pair over the engine's
//! fixed [`IlpSpace`]:
//!
//! 1. **legality** — `Δ_e ≥ 0` per live dependence, substituted into
//!    the dependence's cone in the
//!    [`FarkasCache`](crate::pipeline::FarkasCache) through the run's
//!    [`CacheSession`];
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

use polytops_deps::Dependence;
use polytops_ir::Scop;
use polytops_math::{ilp_feasible, orthogonal_complement, ConstraintSystem, Echelon, RowKind};

use crate::config::{CostFn, DirectiveKind, SchedulerConfig};
use crate::constraints::parse_constraints;
use crate::costfn::{big_loops_first_coeffs, contiguity_coeffs, DepConstraint};
use crate::error::ScheduleError;
use crate::pipeline::legality::CacheSession;
use crate::space::IlpSpace;
use crate::strategy::DimensionPlan;

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

/// Read-only context shared by the assembly steps of one dimension.
pub struct DimensionContext<'a> {
    /// The SCoP being scheduled.
    pub scop: &'a Scop,
    /// Global configuration knobs (bounds, directives, estimates).
    pub config: &'a SchedulerConfig,
    /// The engine's fixed ILP variable layout.
    pub space: &'a IlpSpace,
    /// This run's session over the SCoP's Farkas cones.
    pub cache: &'a CacheSession,
    /// Dependences whose legality (`Δ ≥ 0`) this dimension must enforce:
    /// the live ones plus those carried *inside the current band*, which
    /// is what makes the emitted bands permutable (tilable) à la Pluto.
    pub legality: &'a [(usize, &'a Dependence)],
    /// Live (uncarried) dependences as `(global id, dependence)` pairs —
    /// the set cost functions optimize over.
    pub live: &'a [(usize, &'a Dependence)],
    /// Per-statement echelon form of the committed rows.
    pub basis: &'a [Echelon],
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
                for &(e, dep) in ctx.live {
                    ctx.cache
                        .extend(DepConstraint::Proximity, e, dep, space, &mut out.sys)?;
                }
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
                for &(e, dep) in ctx.live {
                    ctx.cache
                        .extend(DepConstraint::Feautrier, e, dep, space, &mut out.sys)?;
                }
                // Maximize Σ x_e  ⇔  minimize −Σ x_e (the 0 ≤ x_e ≤ 1 box
                // is part of the engine's bounds).
                let mut row = vec![0i64; space.total()];
                for &(e, _) in ctx.live {
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
                        big_loops_first_coeffs(ctx.scop, stmt, ctx.config.parameter_estimate);
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
/// sequence of one scheduling dimension.
///
/// # Errors
///
/// Propagates arithmetic overflow, constraint-syntax errors and unknown
/// user variables.
pub fn assemble(
    ctx: &DimensionContext<'_>,
    plan: &DimensionPlan,
) -> Result<(ConstraintSystem, Vec<Vec<i64>>), ScheduleError> {
    let space = ctx.space;
    let n = space.total();
    let mut sys = ConstraintSystem::new(n);

    // 1. Legality: Farkas-linearized Δ ≥ 0 per live dependence and per
    //    dependence carried earlier in the (still open) current band.
    {
        let _span = polytops_obs::span("legality");
        for &(e, dep) in ctx.legality {
            ctx.cache
                .extend(DepConstraint::Validity, e, dep, space, &mut sys)?;
        }
    }

    // 2. Progression (Eq. 3).
    add_progression(ctx, &mut sys)?;

    // 3. Box bounds.
    let feautrier = plan.cost_functions.contains(&CostFn::Feautrier);
    add_bounds(ctx, feautrier, &mut sys);

    // 4. Cost functions, layered in priority order.
    let cost = build_costs(ctx, &plan.cost_functions)?;
    sys.extend(&cost.sys);

    // 5. Custom constraints (the mini-language of §III-A2).
    for (kind, row) in parse_constraints(&plan.extra_constraints, space)? {
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
            if !ctx.config.negative_coefficients {
                sys.add_ineq(row);
            }
        }
        sum[n] = -1; // Σ h·t ≥ 1
        sys.add_ineq(sum);
    }
    Ok(())
}

/// Box bounds over the raw ILP variables. Dependence-satisfaction
/// variables `x_e` are boxed to `[0, 1]` only when Feautrier's cost is
/// active for a live dependence and pinned to 0 otherwise, so the fixed
/// variable layout costs nothing on the proximity-only path.
fn add_bounds(ctx: &DimensionContext<'_>, feautrier: bool, sys: &mut ConstraintSystem) {
    let space = ctx.space;
    let config = ctx.config;
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
        bound(space.u(j), config.bound_bound);
    }
    bound(space.w(), config.bound_bound);
    for i in 0..space.user_names.len() {
        bound(space.user_offset + i, config.bound_bound);
    }
    let mut live_dep = vec![false; space.num_deps];
    for &(e, _) in ctx.live {
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
                config.constant_bound
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
    for d in &ctx.config.directives {
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
