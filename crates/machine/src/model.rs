//! The static performance model: machine-aware scoring of schedules.
//!
//! PolyTOPS's reconfiguration loop (paper Fig. 1) needs a way to *rank*
//! the schedules different configurations produce without executing
//! them — the paper routes tile sizes, vectorization and parallelization
//! profitability through exactly such "external decisions". This module
//! implements the two halves:
//!
//! 1. [`extract_features`] reads a scheduled SCoP — the schedule rows,
//!    band/parallel metadata, the schedule *tree* (tiling, wavefront
//!    and vectorization live there as marks and per-member coincidence
//!    flags), and the dependence set — into a machine-*independent*
//!    [`ScheduleFeatures`] vector:
//!    outermost parallelism, per-dependence reuse distances (iterations
//!    between a value's definition and its reuse under the schedule),
//!    memory-stream strides against the innermost executed loop, tile
//!    footprints, vectorizable statements and estimated dynamic work.
//! 2. [`estimate_cycles`] folds a feature vector with a
//!    [`MachineModel`] into an estimated cycle count; [`model_score`]
//!    negates it into the "higher is better" orientation the scenario
//!    engine's `winner_by` expects.
//!
//! # Extents and strides
//!
//! Trip counts are *inferred from the statement domains*: every
//! parameter is fixed at `param_estimate` and the exact integer min/max
//! of each schedule row over the domain is computed with the ILP solver
//! ([`iterator_extents`]), so a loop `for i in 1..N-1` contributes
//! `N - 2` iterations, not a uniform guess. Memory streams are priced
//! by their *linearized element stride* against the innermost executed
//! loop ([`access_stride`] / [`stream_stride`]): a transposed access
//! like `A[j][i]` stepped by `j` pays a full row length per iteration
//! instead of riding cache-line amortization.
//!
//! # Determinism
//!
//! Everything here is exact integer arithmetic (saturating `i128`
//! intermediates clamped into `i64`, exact branch-and-bound ILP for the
//! extents): the same schedule and machine always produce bit-identical
//! features and scores, on any thread count — the property the
//! autotuner's winner selection is built on.

use polytops_deps::{Certifier, Dependence};
use polytops_ir::{Access, AffineExpr, MarkKind, Schedule, Scop, Statement, StmtId, TreeNode};
use polytops_math::{ilp_minimize, IlpOutcome};

use crate::MachineModel;

/// Tiling facts read off one `Mark::Tile` nest of the schedule tree:
/// the tile band over the point band, flattened back into the
/// per-dimension shape the trip/footprint estimates work in.
struct TileFact {
    /// Flat scheduling dimension of each point-band member, in member
    /// order (permuted from ascending when post-processing rotated a
    /// coincident member innermost).
    point_dims: Vec<usize>,
    /// Tile size of each member, aligned with `point_dims`.
    sizes: Vec<i64>,
    /// Coincidence flag of each tile-band member.
    tile_parallel: Vec<bool>,
    /// Coincidence flag of each point-band member.
    point_parallel: Vec<bool>,
}

/// Skips over any run of marks (wavefront, vectorize) to the node they
/// annotate.
fn peel_marks(mut node: &TreeNode) -> &TreeNode {
    while let TreeNode::Mark { child, .. } = node {
        node = child;
    }
    node
}

/// Collects one [`TileFact`] per tile nest (a `Mark::Tile` whose
/// subtree is a tile band over a point band of matching width) in
/// depth-first order, i.e. outermost nest first.
fn collect_tile_facts(node: &TreeNode, out: &mut Vec<TileFact>) {
    if let TreeNode::Mark {
        kind: MarkKind::Tile(sizes),
        child,
    } = node
    {
        if let TreeNode::Band {
            members: tiles,
            child: inner,
            ..
        } = peel_marks(child)
        {
            if let TreeNode::Band {
                members: points,
                child: rest,
                ..
            } = peel_marks(inner)
            {
                if points.len() == sizes.len() && tiles.len() == sizes.len() {
                    out.push(TileFact {
                        point_dims: points.iter().map(|m| m.source_dim()).collect(),
                        sizes: sizes.clone(),
                        tile_parallel: tiles.iter().map(|m| m.coincident).collect(),
                        point_parallel: points.iter().map(|m| m.coincident).collect(),
                    });
                }
                collect_tile_facts(rest, out);
                return;
            }
        }
    }
    match node {
        TreeNode::Band { child, .. }
        | TreeNode::Filter { child, .. }
        | TreeNode::Mark { child, .. } => collect_tile_facts(child, out),
        TreeNode::Sequence(children) => {
            for c in children {
                collect_tile_facts(c, out);
            }
        }
        TreeNode::Leaf => {}
    }
}

/// Clamp for every estimated quantity: large enough to order any real
/// kernel, small enough that sums of several terms never overflow `i64`.
const CLAMP: i128 = i64::MAX as i128 / 8;

fn clamp(v: i128) -> i64 {
    v.clamp(-CLAMP, CLAMP) as i64
}

/// `⌈a / b⌉` for non-negative `a` and positive `b` (the `i128`
/// `div_ceil` is unstable on this toolchain).
fn ceil_div(a: i128, b: i128) -> i128 {
    (a + b - 1) / b
}

/// Largest parameter estimate the extent ILP is asked to reason about.
/// Beyond it (a stress-test regime, not a tuning one) extent inference
/// falls back to the estimate itself so solver arithmetic stays in
/// range; every result is still exact saturating integer math.
const EXTENT_ILP_CAP: i64 = 1 << 20;

/// Exact extent (`max − min + 1`, at least 1) of an affine expression
/// over a statement's domain with every parameter fixed at
/// `param_estimate`, by integer min/max ILP. `None` when the domain is
/// empty/unbounded under that fixing or the estimate exceeds
/// [`EXTENT_ILP_CAP`].
fn expr_extent(
    stmt: &Statement,
    nparams: usize,
    expr: &AffineExpr,
    param_estimate: i64,
) -> Option<i64> {
    if param_estimate > EXTENT_ILP_CAP {
        return None;
    }
    let depth = stmt.depth();
    let mut sys = stmt.domain.clone();
    let nv = sys.num_vars();
    for j in 0..nparams {
        let mut row = vec![0i64; nv + 1];
        row[depth + j] = 1;
        row[nv] = -param_estimate;
        sys.add_eq(row);
    }
    let mut obj = vec![0i64; nv];
    obj[..depth].copy_from_slice(expr.iter_coeffs());
    obj[depth..depth + nparams.min(expr.nparams())]
        .copy_from_slice(&expr.param_coeffs()[..nparams.min(expr.nparams())]);
    let lo = match ilp_minimize(&sys, &obj) {
        Ok(IlpOutcome::Optimal { value, .. }) => value,
        _ => return None,
    };
    for v in obj.iter_mut() {
        *v = -*v;
    }
    let hi = match ilp_minimize(&sys, &obj) {
        Ok(IlpOutcome::Optimal { value, .. }) => -value,
        _ => return None,
    };
    Some((hi - lo + 1).max(1))
}

/// Per-iterator extents of a statement's domain with every parameter
/// fixed at `param_estimate`: entry `k` is the exact number of distinct
/// values iterator `k` takes (`max − min + 1` over the domain), the
/// trip count of the corresponding source loop. Falls back to
/// `param_estimate` per iterator when the ILP cannot bound the domain.
pub fn iterator_extents(stmt: &Statement, nparams: usize, param_estimate: i64) -> Vec<i64> {
    let est = param_estimate.max(2);
    let depth = stmt.depth();
    (0..depth)
        .map(|k| {
            let expr = AffineExpr::iter(depth, nparams, k);
            expr_extent(stmt, nparams, &expr, est).unwrap_or(est)
        })
        .collect()
}

/// Evaluates an array-dimension expression (affine in the parameters)
/// with every parameter fixed at `est`, saturating, clamped to ≥ 1.
fn eval_dim(expr: &AffineExpr, est: i64) -> i128 {
    let mut v = i128::from(expr.constant_term());
    // Array dims carry no iterators by construction; treat any stray
    // iterator coefficient like a parameter, conservatively.
    for &c in expr.param_coeffs().iter().chain(expr.iter_coeffs()) {
        v = (v + i128::from(c) * i128::from(est)).min(CLAMP);
    }
    v.clamp(1, CLAMP)
}

/// Linearized element stride of `access` per unit step of iterator
/// `iter`, with array extents evaluated at `param_estimate`: the sum
/// over subscripts of the iterator's coefficient times the row-major
/// size of the inner array dimensions. `Some(0)` means the access does
/// not move with the iterator (temporal reuse); `±1` is a contiguous
/// stream; a transposed access like `A[j][i]` stepped by `j` yields the
/// row length. `None` when a non-affine (`⌊·/k⌋` / `mod`) subscript
/// involves the iterator — the stride is not a constant.
pub fn access_stride(
    scop: &Scop,
    stmt: &Statement,
    access: &Access,
    iter: usize,
    param_estimate: i64,
) -> Option<i64> {
    let est = param_estimate.clamp(2, EXTENT_ILP_CAP);
    let info = scop.array(access.array);
    let _ = stmt; // the access's iterator space is the statement's
    let mut stride: i128 = 0;
    let mut inner: i128 = 1;
    for (k, sub) in access.subscripts.iter().enumerate().rev() {
        let c = sub.expr().iter_coeffs().get(iter).copied().unwrap_or(0);
        if c != 0 {
            if !sub.is_affine() {
                return None;
            }
            stride = (stride + i128::from(c) * inner).clamp(-CLAMP, CLAMP);
        }
        let dim = info.dims.get(k).map_or(1, |e| eval_dim(e, est));
        inner = (inner * dim).min(CLAMP);
    }
    Some(clamp(stride))
}

/// The innermost *executed* scheduling dimension of statement `s`: the
/// last flat dimension with a non-constant row — or, when that
/// dimension sits in a tiled band, the source dimension of the
/// innermost point-band member (post-processing may rotate a coincident
/// member innermost).
fn innermost_executed_dim(sched: &Schedule, facts: &[TileFact], s: StmtId) -> Option<usize> {
    let ss = sched.stmt(s);
    let flat = (0..sched.dims()).rev().find(|&d| !ss.row_is_constant(d))?;
    for f in facts {
        if f.point_dims.contains(&flat) {
            // Innermost executed member of the nest whose rows move `s`.
            return f
                .point_dims
                .iter()
                .rev()
                .find(|&&d| !ss.row_is_constant(d))
                .copied()
                .or(Some(flat));
        }
    }
    Some(flat)
}

/// Element stride of `access` against the innermost executed loop of
/// statement `s` under `sched`: the stepping iterator is read off the
/// innermost executed row (the row's single source iterator in the
/// common unit-row case; the largest-coefficient iterator as a
/// documented approximation for skewed rows), and the stride is
/// [`access_stride`] for that iterator. `None` when the stride is not a
/// constant (non-affine subscripts) or the statement has no loops.
pub fn stream_stride(
    scop: &Scop,
    sched: &Schedule,
    s: StmtId,
    access: &Access,
    param_estimate: i64,
) -> Option<i64> {
    let facts: Vec<TileFact> = match sched.tree() {
        Some(tree) => {
            let mut v = Vec::new();
            collect_tile_facts(&tree.root, &mut v);
            v
        }
        None => Vec::new(),
    };
    let d = innermost_executed_dim(sched, &facts, s)?;
    let row = sched.stmt(s).row_expr(d);
    // The iterator that advances when the innermost loop steps: the
    // largest-|coefficient| one, ties toward the innermost source
    // iterator.
    let iter = row
        .iter_coeffs()
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0)
        .max_by_key(|&(k, &c)| (c.abs(), k))
        .map(|(k, _)| k)?;
    access_stride(scop, scop.stmt(s), access, iter, param_estimate)
}

/// The machine-independent feature vector of one scheduled SCoP.
///
/// Produced by [`extract_features`]; consumed by [`estimate_cycles`].
/// All counts are estimates with every parameter fixed at the
/// extraction's `param_estimate` (see the module docs) and are exact
/// integers, so feature vectors are bit-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFeatures {
    /// Scheduling dimensions (including constant splitting levels).
    pub dims: usize,
    /// Statements in the SCoP.
    pub num_stmts: usize,
    /// Whether the outermost *executed* loop is parallel: the tile loop
    /// of the first tiled band when the outermost loop dimension is
    /// tiled, the point loop otherwise. Coarse-grain parallelism — one
    /// fork/join for the whole SCoP.
    pub outer_parallel: bool,
    /// Parallel scheduling dimensions (point loops).
    pub parallel_dims: usize,
    /// Width of the widest permutable band (tilability).
    pub max_band_width: usize,
    /// Statements with a dimension marked for vectorization.
    pub vectorized_stmts: usize,
    /// Estimated dynamic arithmetic operations: Σ per statement of
    /// `compute_ops × ∏ inferred iterator extents`.
    pub total_ops: i64,
    /// Estimated dynamic statement instances: Σ ∏ inferred extents.
    pub total_instances: i64,
    /// Whether post-processing recorded any tiled band.
    pub tiled: bool,
    /// Estimated bytes a tile touches (first tiled band: distinct
    /// arrays × element size × ∏ tile sizes) — or, untiled, the whole
    /// working set (Σ arrays element size × ∏ declared extents at the
    /// parameter estimate).
    pub footprint_bytes: i64,
    /// Per scheduling dimension: the inferred trip count — the exact
    /// max − min + 1 of the dimension's rows over the statement domains
    /// with parameters fixed at the estimate (max across statements),
    /// capped at the tile size for tiled point loops, 1 for constant
    /// splitting levels.
    pub trip_counts: Vec<i64>,
    /// Per dependence: estimated iterations executed between the source
    /// access and its dependent reuse — the schedule-induced reuse
    /// distance. A dependence carried at dimension `c` waits for one
    /// iteration of `c`, i.e. for every loop nested inside `c` to run;
    /// tiling caps those inner trip counts at the tile sizes, which is
    /// exactly how it improves locality in this model.
    pub reuse_distances: Vec<i64>,
    /// Per dependence: the absolute element stride of the destination
    /// statement's accesses to the dependence's array against its
    /// innermost executed loop (worst across those accesses): 0 is
    /// loop-invariant, 1 a contiguous stream, the row length a
    /// transposed walk; `-1` when no constant stride exists (non-affine
    /// subscripts).
    pub stream_strides: Vec<i64>,
    /// Dominant (maximum) element size of the SCoP's arrays, bytes.
    pub element_size: u32,
    /// Synchronization events: iterations of the sequential *executed*
    /// loops — tile loops of tiled bands included — enclosing the first
    /// parallel loop (one barrier each when parallelism is inner), or 1
    /// when the outermost executed loop itself is parallel (a single
    /// fork/join), or 0 without any parallelism.
    pub sync_events: i64,
}

/// Whether schedule dimension `d` is a loop level for some statement.
fn is_loop_dim(sched: &Schedule, d: usize) -> bool {
    (0..sched.num_statements()).any(|s| !sched.stmt(StmtId(s)).row_is_constant(d))
}

/// Extracts the feature vector of `sched` over `scop`.
///
/// `deps` must be the dependence analysis of `scop` (the reuse features
/// walk it); `param_estimate` is the value every symbolic parameter is
/// fixed at while inferring loop extents from the statement domains
/// (the scheduler's configs carry the same knob as `parameter_estimate`,
/// default 64).
///
/// # Panics
///
/// Panics if `sched` is not a schedule of `scop` (statement count or
/// row arity mismatch).
pub fn extract_features(
    scop: &Scop,
    sched: &Schedule,
    deps: &[Dependence],
    param_estimate: i64,
) -> ScheduleFeatures {
    assert_eq!(
        sched.num_statements(),
        scop.statements.len(),
        "schedule/scop statement count"
    );
    let dims = sched.dims();
    let est = param_estimate.max(2);
    let np = scop.nparams();

    // Tiling and vectorization facts live on the schedule tree; a
    // schedule that never went through post-processing has no tree and
    // therefore neither transformation.
    let facts: Vec<TileFact> = match sched.tree() {
        Some(tree) => {
            let mut v = Vec::new();
            collect_tile_facts(&tree.root, &mut v);
            v
        }
        None => Vec::new(),
    };

    // Exact per-iterator extents of every statement domain (params
    // fixed at the estimate): the basis of every trip-count product.
    let extents: Vec<Vec<i64>> = scop
        .statements
        .iter()
        .map(|s| iterator_extents(s, np, est))
        .collect();

    // Per-dimension trip counts, inferred from the domains: the extent
    // of the dimension's row over each statement's domain (a unit row
    // reuses the iterator extent; a skewed row gets its own exact
    // min/max), max across statements; 1 for constant levels.
    let raw_trips: Vec<i64> = (0..dims)
        .map(|d| {
            let mut trip = 1i64;
            for (idx, s) in scop.statements.iter().enumerate() {
                let ss = sched.stmt(StmtId(idx));
                if ss.row_is_constant(d) {
                    continue;
                }
                let row = ss.row_expr(d);
                let unit = {
                    let nz: Vec<(usize, i64)> = row
                        .iter_coeffs()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c != 0)
                        .map(|(k, &c)| (k, c))
                        .collect();
                    match nz.as_slice() {
                        [(k, c)] if c.abs() == 1 => Some(*k),
                        _ => None,
                    }
                };
                let e = match unit {
                    Some(k) => extents[idx][k],
                    None => expr_extent(s, np, &row, est).unwrap_or(est),
                };
                trip = trip.max(e);
            }
            trip
        })
        .collect();

    // Tile caps: a tiled point loop runs at most its tile size.
    let mut trips = raw_trips.clone();
    for f in &facts {
        for (&d, &size) in f.point_dims.iter().zip(&f.sizes) {
            trips[d] = trips[d].min(size.max(1));
        }
    }

    // A tile fact covers a contiguous run of flat dimensions (possibly
    // permuted within the run by the innermost-coincident rotation);
    // index it by the run's first dimension for the executed-loop walk.
    let mut fact_at: Vec<Option<&TileFact>> = vec![None; dims];
    for f in &facts {
        if let (Some(&lo), Some(&hi)) = (f.point_dims.iter().min(), f.point_dims.iter().max()) {
            if hi - lo + 1 == f.point_dims.len() && hi < dims {
                fact_at[lo] = Some(f);
            }
        }
    }

    // The *executed* loop sequence, outermost first: a tiled band runs
    // its tile loops (trip = ⌈extent / size⌉, parallelism from the
    // stricter tile-member coincidence flags) before its point loops,
    // so outer parallelism and barrier counts must both be read off
    // this sequence, not off the scheduling dimensions alone. Constant
    // (splitting) levels contribute trip-1 sequential entries, harmless
    // in every product.
    let mut executed: Vec<(bool, i64)> = Vec::with_capacity(2 * dims);
    let mut d = 0;
    while d < dims {
        if let Some(f) = fact_at[d] {
            for (k, (&p, &size)) in f.point_dims.iter().zip(&f.sizes).enumerate() {
                let tile_trip = clamp(ceil_div(
                    i128::from(raw_trips[p].max(1)),
                    i128::from(size.max(1)),
                ))
                .max(1);
                executed.push((f.tile_parallel[k], tile_trip));
            }
            for (k, &p) in f.point_dims.iter().enumerate() {
                executed.push((f.point_parallel[k] && is_loop_dim(sched, p), trips[p]));
            }
            d += f.point_dims.len();
        } else {
            executed.push((sched.parallel()[d] && is_loop_dim(sched, d), trips[d]));
            d += 1;
        }
    }
    let first_executed_loop = executed.iter().position(|&(_, trip)| trip > 1);
    let outer_parallel = first_executed_loop.is_some_and(|i| executed[i].0);
    let parallel_dims = sched.parallel().iter().filter(|&&p| p).count();
    let max_band_width = sched
        .band_ranges()
        .into_iter()
        .map(|(a, b)| b - a)
        .max()
        .unwrap_or(0);
    let vectorized_stmts = {
        let mut marked: Vec<usize> = sched
            .tree()
            .map(|tree| {
                tree.marks()
                    .into_iter()
                    .filter_map(|m| match m {
                        MarkKind::Vectorize(stmts) => Some(stmts.iter().copied()),
                        _ => None,
                    })
                    .flatten()
                    .collect()
            })
            .unwrap_or_default();
        marked.sort_unstable();
        marked.dedup();
        marked.len()
    };

    // Dynamic work: the product of each statement's own inferred
    // iterator extents — schedule-independent, domain-exact.
    let mut total_ops: i128 = 0;
    let mut total_instances: i128 = 0;
    for (idx, s) in scop.statements.iter().enumerate() {
        let inst = extents[idx]
            .iter()
            .fold(1i128, |acc, &e| (acc * i128::from(e.max(1))).min(CLAMP));
        total_instances = (total_instances + inst).min(CLAMP);
        total_ops = (total_ops + inst * i128::from(s.compute_ops.max(1))).min(CLAMP);
    }

    let element_size = scop
        .arrays
        .iter()
        .map(|a| a.element_size)
        .max()
        .unwrap_or(8)
        .max(1);
    let tiled = !facts.is_empty();
    let footprint_bytes = if let Some(f) = facts.first() {
        let tile_iters = f
            .sizes
            .iter()
            .fold(1i128, |acc, &s| (acc * i128::from(s.max(1))).min(CLAMP));
        clamp(i128::from(scop.arrays.len().max(1) as i64) * i128::from(element_size) * tile_iters)
    } else {
        // Untiled working set: each array's declared extents evaluated
        // at the parameter estimate.
        let mut bytes: i128 = 0;
        for a in &scop.arrays {
            let cells = a.dims.iter().fold(1i128, |acc, e| {
                (acc * eval_dim(e, est.min(EXTENT_ILP_CAP))).min(CLAMP)
            });
            bytes = (bytes + i128::from(a.element_size.max(1)) * cells).min(CLAMP);
        }
        clamp(bytes)
    };

    // Reuse distance per dependence: iterations of everything nested
    // inside the carrying dimension (1 when carried innermost or
    // loop-independent — the reuse is immediate).
    let mut oracle = Certifier::new(deps);
    let reuse_distances: Vec<i64> = deps
        .iter()
        .enumerate()
        .map(|(e, dep)| {
            let carry = (0..dims).find(|&d| {
                oracle.strongly_satisfies(
                    e,
                    &sched.stmt(dep.src).rows()[d],
                    &sched.stmt(dep.dst).rows()[d],
                )
            });
            let first_inner = carry.map_or(dims, |c| c + 1);
            let inner: i128 = (first_inner..dims)
                .map(|d| i128::from(trips[d]))
                .fold(1, |acc, t| (acc * t).min(CLAMP));
            clamp(inner)
        })
        .collect();

    // Stream stride per dependence: the worst (largest-|stride|)
    // constant stride among the destination statement's accesses to the
    // dependence's array, against its innermost executed loop; -1 when
    // any of those accesses has no constant stride.
    let stream_strides: Vec<i64> = deps
        .iter()
        .map(|dep| {
            let stmt = scop.stmt(dep.dst);
            let mut worst: i64 = 0;
            for acc in stmt.accesses.iter().filter(|a| a.array == dep.array) {
                match stream_stride(scop, sched, dep.dst, acc, est) {
                    Some(s) => worst = worst.max(s.saturating_abs()),
                    None => return -1,
                }
            }
            worst
        })
        .collect();

    // Synchronization: one fork/join when the outermost executed loop
    // is parallel; otherwise one barrier per iteration of the
    // sequential executed loops *enclosing* the first parallel one —
    // tile loops included, so a sequential tile loop over a parallel
    // point loop is charged per tile step, not as a single fork/join.
    let sync_events = match executed.iter().position(|&(parallel, _)| parallel) {
        _ if outer_parallel => 1,
        None => 0,
        Some(first_parallel) => clamp(
            executed[..first_parallel]
                .iter()
                .map(|&(_, trip)| i128::from(trip))
                .fold(1, |acc, t| (acc * t).min(CLAMP)),
        ),
    };

    ScheduleFeatures {
        dims,
        num_stmts: scop.statements.len(),
        outer_parallel,
        parallel_dims,
        max_band_width,
        vectorized_stmts,
        total_ops: clamp(total_ops),
        total_instances: clamp(total_instances),
        tiled,
        footprint_bytes,
        trip_counts: trips,
        reuse_distances,
        stream_strides,
        element_size,
        sync_events,
    }
}

/// Estimated execution cycles of a scheduled SCoP on `machine`.
///
/// The formula, all saturating integer arithmetic:
///
/// ```text
/// compute = total_ops, with the vectorized fraction of statements
///           divided by the SIMD lane count
/// compute /= num_cores          when any dimension is parallel
/// sync    = sync_events × sync_cycles
/// memory  = Σ over spilled streams of
///           stride_factor × total_instances × miss_penalty_cycles
///                         / elements_per_line
/// cycles  = compute + sync + memory
/// ```
///
/// A dependence *spills* when its reuse distance times the element size
/// exceeds the cache capacity (the value is evicted before its reuse);
/// an overflowing tile (`footprint_bytes > cache_bytes` while tiled)
/// counts as one more spilled unit-stride stream. `stride_factor` is
/// the stream's element stride clamped into `[1, elements_per_line]`:
/// a unit-stride stream amortizes its misses over a cache line exactly
/// as before, while a transposed or unknown-stride stream
/// (`stream_strides[e]` at least the line, or `-1`) pays the full miss
/// penalty per instance.
///
/// The result is strictly positive, finite, and — for a fixed feature
/// vector — **monotonically non-increasing in
/// [`num_cores`](MachineModel::num_cores)** whenever the schedule has
/// any parallelism (only the compute term depends on the core count).
pub fn estimate_cycles(machine: &MachineModel, f: &ScheduleFeatures) -> i64 {
    let ops = i128::from(f.total_ops.max(1));
    let lanes = i128::from(machine.vector_lanes(f.element_size).max(1));
    let mut compute = if f.num_stmts == 0 {
        ops
    } else {
        // Scale the vectorized fraction of the work by the lane count.
        let vec_ops = ops * i128::from(f.vectorized_stmts as i64) / i128::from(f.num_stmts as i64);
        (ops - vec_ops) + ceil_div(vec_ops, lanes)
    };
    if f.outer_parallel || f.parallel_dims > 0 {
        compute = ceil_div(compute, i128::from(machine.num_cores.max(1)));
    }

    let sync = i128::from(f.sync_events) * i128::from(machine.sync_cycles);

    let cache = i128::from(machine.cache_bytes.max(1));
    let line = i128::from(machine.elements_per_line(f.element_size).max(1));
    let miss_unit = i128::from(f.total_instances.max(1)) * i128::from(machine.miss_penalty_cycles);
    let mut memory: i128 = 0;
    for (e, &r) in f.reuse_distances.iter().enumerate() {
        if i128::from(r) * i128::from(f.element_size) <= cache {
            continue;
        }
        let stride = f.stream_strides.get(e).copied().unwrap_or(1);
        let factor = if stride < 0 {
            line // unknown stride: assume every instance misses
        } else {
            i128::from(stride).clamp(1, line)
        };
        memory = (memory + miss_unit * factor / line).min(CLAMP);
    }
    if f.tiled && i128::from(f.footprint_bytes) > cache {
        memory = (memory + miss_unit / line).min(CLAMP);
    }

    clamp((compute + sync + memory).max(1))
}

/// The model as a scenario score: negated [`estimate_cycles`], so that
/// "higher is better" matches `winner_by` and ties between equal-cost
/// schedules resolve toward the earlier candidate.
pub fn model_score(machine: &MachineModel, f: &ScheduleFeatures) -> i64 {
    -estimate_cycles(machine, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::{Aff, BandMember, MemberTerm, ScheduleTree, ScopBuilder, StmtSchedule};

    /// `for t for i A[i] = A[i-1] + A[i+1];` — the stencil under test.
    fn stencil() -> Scop {
        let mut b = ScopBuilder::new("stencil");
        let t = b.param("T");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("t", Aff::val(0), t - 1);
        b.open_loop("i", Aff::val(1), n - 2);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .read(a, &[Aff::var("i") + 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    /// A single-term band member `⌊row·x / div⌋` of the one-statement
    /// stencil, whose flat rows are over `(t, i, T, N, 1)`.
    fn member(d: usize, div: i64, coincident: bool) -> BandMember {
        let mut row = vec![0i64; 5];
        row[d] = 1;
        BandMember {
            terms: vec![MemberTerm {
                rows: vec![row],
                div,
                source_dim: d,
            }],
            coincident,
        }
    }

    /// The tree of the identity schedule tiled with `sizes`: a
    /// `Mark::Tile` over a tile band over the point band.
    fn tiled_tree(
        sizes: Vec<i64>,
        tile_parallel: Vec<bool>,
        point_parallel: Vec<bool>,
    ) -> ScheduleTree {
        let n = sizes.len();
        let tiles = (0..n)
            .map(|d| member(d, sizes[d], tile_parallel[d]))
            .collect();
        let points = (0..n).map(|d| member(d, 1, point_parallel[d])).collect();
        ScheduleTree {
            nstmts: 1,
            root: TreeNode::Mark {
                kind: MarkKind::Tile(sizes),
                child: TreeNode::Band {
                    members: tiles,
                    permutable: true,
                    child: TreeNode::Band {
                        members: points,
                        permutable: true,
                        child: TreeNode::Leaf.boxed(),
                    }
                    .boxed(),
                }
                .boxed(),
            },
        }
    }

    /// The identity (t, i) schedule of the stencil, one permutable band.
    fn identity_schedule(tiled: Option<Vec<i64>>) -> Schedule {
        let mut ss = StmtSchedule::new(2, 2);
        ss.push_row(vec![1, 0, 0, 0, 0]);
        ss.push_row(vec![0, 1, 0, 0, 0]);
        let mut sched = Schedule::from_parts(vec![ss], vec![0, 0], vec![false, false]);
        if let Some(sizes) = tiled {
            let n = sizes.len();
            sched.set_tree(tiled_tree(sizes, vec![false; n], vec![false; n]));
        }
        sched
    }

    #[test]
    fn extents_are_inferred_from_the_domain() {
        let scop = stencil();
        // t in [0, T-1] runs est times; i in [1, N-2] runs est-2 times.
        let ext = iterator_extents(&scop.statements[0], scop.nparams(), 64);
        assert_eq!(ext, vec![64, 62]);

        let deps = polytops_deps::analyze(&scop);
        let f = extract_features(&scop, &identity_schedule(None), &deps, 64);
        assert_eq!(f.trip_counts, vec![64, 62]);
        assert_eq!(f.total_instances, 64 * 62, "instances use real bounds");
    }

    #[test]
    fn strides_follow_the_innermost_executed_loop() {
        let scop = stencil();
        let sched = identity_schedule(None);
        let stmt = &scop.statements[0];
        // Every access of A[i±k] is stride 1 in i, stride 0 in t.
        for acc in &stmt.accesses {
            assert_eq!(access_stride(&scop, stmt, acc, 1, 64), Some(1));
            assert_eq!(access_stride(&scop, stmt, acc, 0, 64), Some(0));
            assert_eq!(stream_stride(&scop, &sched, StmtId(0), acc, 64), Some(1));
        }
        let deps = polytops_deps::analyze(&scop);
        let f = extract_features(&scop, &sched, &deps, 64);
        assert!(f.stream_strides.iter().all(|&s| s == 1), "{f:?}");
    }

    #[test]
    fn tiled_stencil_has_bounded_footprint_and_reuse() {
        let scop = stencil();
        let deps = polytops_deps::analyze(&scop);
        assert!(!deps.is_empty());

        let plain = extract_features(&scop, &identity_schedule(None), &deps, 1024);
        let tiled = extract_features(&scop, &identity_schedule(Some(vec![16, 16])), &deps, 1024);

        // Untiled: the footprint is the whole (estimated) array; tiled:
        // one 16×16 tile of it, independent of the parameter estimate.
        assert_eq!(tiled.footprint_bytes, 8 * 16 * 16);
        assert!(plain.footprint_bytes > tiled.footprint_bytes);
        // Time-carried reuse waits a full row sweep untiled (the i
        // loop's inferred 1022 iterations) but at most a tile row (16)
        // tiled.
        assert_eq!(plain.reuse_distances.iter().max(), Some(&1022));
        assert!(tiled.reuse_distances.iter().all(|&r| r <= 16));

        // On a machine whose cache holds a tile but not a row sweep,
        // the model prefers the tiled schedule.
        let small_cache = MachineModel {
            cache_bytes: 4 << 10,
            ..MachineModel::default()
        };
        assert!(
            estimate_cycles(&small_cache, &tiled) < estimate_cycles(&small_cache, &plain),
            "tiled {tiled:?} must beat plain {plain:?}"
        );
    }

    #[test]
    fn outer_parallelism_is_read_from_tile_or_point_flags() {
        let scop = stencil();
        let deps = polytops_deps::analyze(&scop);
        let mut sched = identity_schedule(None);
        assert!(!extract_features(&scop, &sched, &deps, 64).outer_parallel);

        // Point flag on the outermost dimension.
        sched.parallel_mut()[0] = true;
        let f = extract_features(&scop, &sched, &deps, 64);
        assert!(f.outer_parallel);
        assert_eq!(f.sync_events, 1);

        // Tiled with a sequential tile loop: the tile loop is the
        // outermost executed loop, so outer parallelism is *its*
        // coincidence flag even while the point flag stays true.
        sched.set_tree(tiled_tree(vec![8, 8], vec![false, true], vec![true, false]));
        let f = extract_features(&scop, &sched, &deps, 64);
        assert!(!f.outer_parallel);
        assert!(f.parallel_dims > 0);
    }

    #[test]
    fn inner_parallelism_pays_barriers() {
        let scop = stencil();
        let deps = polytops_deps::analyze(&scop);
        let mut sched = identity_schedule(None);
        sched.parallel_mut()[1] = true; // parallel inner, sequential outer
        let f = extract_features(&scop, &sched, &deps, 64);
        assert!(!f.outer_parallel);
        assert_eq!(f.sync_events, 64, "one barrier per outer iteration");

        let m = MachineModel::default();
        let mut outer = f.clone();
        outer.outer_parallel = true;
        outer.sync_events = 1;
        assert!(
            estimate_cycles(&m, &outer) < estimate_cycles(&m, &f),
            "outer parallelism must beat inner at equal work"
        );
    }

    #[test]
    fn vectorization_reduces_compute() {
        let scop = stencil();
        let deps = polytops_deps::analyze(&scop);
        let mut sched = identity_schedule(None);
        let base = extract_features(&scop, &sched, &deps, 64);
        let inner = sched.tree_or_lowered();
        sched.set_tree(ScheduleTree {
            nstmts: inner.nstmts,
            root: TreeNode::Mark {
                kind: MarkKind::Vectorize(vec![0]),
                child: inner.root.boxed(),
            },
        });
        let vec = extract_features(&scop, &sched, &deps, 64);
        assert_eq!(vec.vectorized_stmts, 1);
        let m = MachineModel::default();
        assert!(estimate_cycles(&m, &vec) < estimate_cycles(&m, &base));
    }

    #[test]
    fn transposed_streams_pay_full_misses() {
        // for i for j: B[j][i] = A[i][j]; under the identity schedule
        // the B walk is a column sweep — stride N — while A streams.
        let mut b = ScopBuilder::new("transpose");
        let n = b.param("N");
        let a = b.array("A", &[n.clone(), n.clone()], 8);
        let bb = b.array("B", &[n.clone(), n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i"), Aff::var("j")])
            .write(bb, &[Aff::var("j"), Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        let scop = b.build().unwrap();
        let stmt = &scop.statements[0];
        let read = &stmt.accesses[0];
        let write = stmt.accesses.iter().find(|a| a.array.0 == 1).unwrap();
        // Stepping j: A[i][j] is contiguous, B[j][i] jumps a whole row.
        assert_eq!(access_stride(&scop, stmt, read, 1, 64), Some(1));
        assert_eq!(access_stride(&scop, stmt, write, 1, 64), Some(64));

        // A spilled transposed stream must cost more than a contiguous
        // one at equal reuse.
        let m = MachineModel::default();
        let mk = |stride: i64| ScheduleFeatures {
            dims: 2,
            num_stmts: 1,
            outer_parallel: false,
            parallel_dims: 0,
            max_band_width: 2,
            vectorized_stmts: 0,
            total_ops: 1 << 20,
            total_instances: 1 << 20,
            tiled: false,
            footprint_bytes: 1 << 24,
            trip_counts: vec![1 << 10, 1 << 10],
            reuse_distances: vec![i64::MAX / 16],
            stream_strides: vec![stride],
            element_size: 8,
            sync_events: 0,
        };
        assert!(
            estimate_cycles(&m, &mk(4096)) > estimate_cycles(&m, &mk(1)),
            "a transposed spill must out-cost a contiguous one"
        );
        assert_eq!(
            estimate_cycles(&m, &mk(-1)),
            estimate_cycles(&m, &mk(i64::MAX / 4)),
            "unknown stride is priced as line-breaking"
        );
    }

    #[test]
    fn scores_are_finite_under_extreme_estimates() {
        let scop = stencil();
        let deps = polytops_deps::analyze(&scop);
        let sched = identity_schedule(Some(vec![1 << 20, 1 << 20]));
        let f = extract_features(&scop, &sched, &deps, i64::MAX / 2);
        let m = MachineModel::default();
        let cycles = estimate_cycles(&m, &f);
        assert!(cycles > 0);
        assert_eq!(model_score(&m, &f), -cycles);
    }
}
