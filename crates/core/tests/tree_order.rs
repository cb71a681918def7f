//! Property tests for the schedule-tree lowering: the explicit tree is
//! only trustworthy if its instance order *is* the flat schedule's
//! lexicographic order, and if the post-processing transforms (tile /
//! wavefront / vectorize marks) keep it a strict total order over the
//! statement instances.

use std::cmp::Ordering;

use polytops_core::{schedule, SchedulerConfig};
use polytops_ir::{
    instance_cmp_paths, MarkKind, PathStep, Schedule, ScheduleTree, Scop, StmtId, TreeNode,
};
use polytops_workloads::{all_kernels, jacobi_1d, matmul, sweep::preset_grid};

const PARAMS: [i64; 2] = [7, 5]; // generous enough for every kernel's (N, T)

/// Enumerates the integer points of a statement's domain inside a small
/// box (the reference kernels all live near the origin).
fn sample_points(scop: &Scop, sid: usize) -> Vec<Vec<i64>> {
    let stmt = &scop.statements[sid];
    let d = stmt.depth();
    let np = scop.nparams();
    let params = &PARAMS[..np];
    let mut out = Vec::new();
    let mut point = vec![-1i64; d];
    loop {
        let mut full: Vec<i64> = point.clone();
        full.extend_from_slice(params);
        if stmt.domain.contains_point(&full) {
            out.push(point.clone());
        }
        // Odometer over [-1, 8]^d.
        let mut i = 0;
        loop {
            if i == d {
                return out;
            }
            point[i] += 1;
            if point[i] <= 8 {
                break;
            }
            point[i] = -1;
            i += 1;
        }
    }
}

/// Lexicographic comparison of two flat timestamps.
fn flat_cmp(sched: &Schedule, a: (usize, &[i64]), b: (usize, &[i64]), params: &[i64]) -> Ordering {
    let eval = |(sid, iters): (usize, &[i64])| -> Vec<i64> {
        sched
            .stmt(StmtId(sid))
            .rows()
            .iter()
            .map(|row| {
                let mut v = 0;
                for (i, &x) in iters.iter().enumerate() {
                    v += row[i] * x;
                }
                for (p, &x) in params.iter().enumerate() {
                    v += row[iters.len() + p] * x;
                }
                v + row[iters.len() + params.len()]
            })
            .collect()
    };
    eval(a).cmp(&eval(b))
}

/// Every sampled instance of every statement, with its owner.
fn all_instances(scop: &Scop) -> Vec<(usize, Vec<i64>)> {
    (0..scop.statements.len())
        .flat_map(|sid| sample_points(scop, sid).into_iter().map(move |p| (sid, p)))
        .collect()
}

#[test]
fn lowered_tree_order_equals_flat_order_on_every_sweep_kernel() {
    for (kernel, scop) in all_kernels() {
        for (preset, config) in preset_grid() {
            let sched =
                schedule(&scop, &config).unwrap_or_else(|e| panic!("{kernel}/{preset}: {e:?}"));
            // The property is about the *lowering*: the tree built from
            // the flat rows must replay their lexicographic order
            // exactly (post-processing transforms are certified
            // separately).
            let tree = ScheduleTree::lower(&sched);
            let paths = tree.stmt_paths();
            let instances = all_instances(&scop);
            let params = &PARAMS[..scop.nparams()];
            for (i, (sa, pa)) in instances.iter().enumerate() {
                for (sb, pb) in &instances[i..] {
                    let flat = flat_cmp(&sched, (*sa, pa), (*sb, pb), params);
                    let tree_ord = instance_cmp_paths(&paths[*sa], &paths[*sb], pa, pb, params);
                    assert_eq!(
                        flat, tree_ord,
                        "{kernel}/{preset}: S{sa}{pa:?} vs S{sb}{pb:?} ordered {tree_ord:?} \
                         by the tree but {flat:?} by the flat schedule"
                    );
                }
            }
        }
    }
}

/// The transformed tree of a post-processed schedule must stay a strict
/// total order: antisymmetric, and `Equal` exactly on identical
/// instances — tiling or wavefronting may *reorder* instances but must
/// never collapse or duplicate them.
fn assert_strict_total_order(name: &str, scop: &Scop, sched: &Schedule) {
    let tree = sched.tree();
    let paths = tree.stmt_paths();
    let instances = all_instances(scop);
    let params = &PARAMS[..scop.nparams()];
    for (sa, pa) in &instances {
        for (sb, pb) in &instances {
            let ab = instance_cmp_paths(&paths[*sa], &paths[*sb], pa, pb, params);
            let ba = instance_cmp_paths(&paths[*sb], &paths[*sa], pb, pa, params);
            assert_eq!(ab, ba.reverse(), "{name}: order must be antisymmetric");
            let identical = sa == sb && pa == pb;
            assert_eq!(
                ab == Ordering::Equal,
                identical,
                "{name}: S{sa}{pa:?} vs S{sb}{pb:?} compared {ab:?}"
            );
        }
    }
}

#[test]
fn tiled_wavefronted_tree_remains_a_strict_total_order() {
    let scop = jacobi_1d();
    let mut cfg = SchedulerConfig::default();
    cfg.post.tile_sizes = vec![4, 4];
    cfg.post.wavefront = true;
    let sched = schedule(&scop, &cfg).unwrap();
    let marks = sched.tree().marks();
    assert!(marks.iter().any(|m| matches!(m, MarkKind::Tile(_))));
    assert!(marks.iter().any(|m| matches!(m, MarkKind::Wavefront)));
    assert_strict_total_order("jacobi_1d tiled+wavefront", &scop, &sched);
}

#[test]
fn vectorize_mark_survives_and_preserves_the_instance_set() {
    let scop = matmul();
    let mut cfg = SchedulerConfig::default();
    cfg.post.tile_sizes = vec![4, 4, 4];
    cfg.post.intra_tile_vectorize = true;
    cfg.auto_vectorize = true;
    let sched = schedule(&scop, &cfg).unwrap();
    let marks = sched.tree().marks();
    assert!(marks.iter().any(|m| matches!(m, MarkKind::Tile(_))));
    assert!(
        marks.iter().any(|m| matches!(m, MarkKind::Vectorize(_))),
        "intra-tile vectorization must leave a mark, got {marks:?}"
    );
    assert_strict_total_order("heat_2d tiled+vectorize", &scop, &sched);
}

#[test]
fn walk_ids_are_the_stmt_paths_numbering() {
    // `ScheduleTree::walk` and `stmt_paths` each count structural ids;
    // on every schedule of the grid, each band's and each sequence's
    // walk id must be the id its step carries on the path of every
    // statement that crosses it.
    let posts = [
        (vec![], false, false),
        (vec![16], false, false),
        (vec![32, 32], true, false),
        (vec![64], true, true),
    ];
    let mut checked = 0;
    for (kernel, scop) in all_kernels() {
        for (preset, base) in preset_grid() {
            for (sizes, wavefront, vectorize) in &posts {
                let mut config = base.clone();
                config.post.tile_sizes = sizes.clone();
                config.post.wavefront = *wavefront;
                config.post.intra_tile_vectorize = *vectorize;
                let what = format!("{kernel}/{preset}/{sizes:?}/{wavefront}/{vectorize}");
                let sched = schedule(&scop, &config).unwrap_or_else(|e| panic!("{what}: {e}"));
                let tree = sched.tree();
                let paths = tree.stmt_paths();
                tree.walk(|node, path, id| {
                    if !matches!(node, TreeNode::Band { .. } | TreeNode::Sequence(_)) {
                        return;
                    }
                    // The statements its ancestors' filters let through,
                    // and the steps those ancestors put on their paths.
                    let mut active: Vec<usize> = (0..tree.nstmts).collect();
                    let mut depth = 0;
                    for above in (0..path.len()).filter_map(|k| tree.node(&path[..k])) {
                        match above {
                            TreeNode::Filter { .. } => {
                                active = ScheduleTree::stmts_of(above, &active);
                            }
                            TreeNode::Band { members, .. } => depth += members.len(),
                            TreeNode::Sequence(_) => depth += 1,
                            _ => {}
                        }
                    }
                    for s in ScheduleTree::stmts_of(node, &active) {
                        let step = &paths[s][depth];
                        match (node, step) {
                            (TreeNode::Band { .. }, PathStep::Member { node, .. })
                            | (TreeNode::Sequence(_), PathStep::Seq { node, .. }) => {
                                assert_eq!(*node, id, "{what}: statement {s} at {path:?}");
                                checked += 1;
                            }
                            _ => panic!("{what}: statement {s} at {path:?} steps {step:?}"),
                        }
                    }
                });
            }
        }
    }
    assert!(checked > 500, "checked {checked} steps");
}
