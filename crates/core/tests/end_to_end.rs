//! End-to-end scheduling tests: build SCoPs with `ScopBuilder`, schedule
//! them under several configurations, and certify every analyzed
//! dependence with `Certifier::schedule_respects` — the independent
//! legality oracle that shares no code with the scheduler's Farkas
//! construction.

use polytops_core::{
    presets, schedule, schedule_with_options, EngineOptions, FusionHeuristic, SchedulerConfig,
};
#[path = "../../deps/tests/reference/mod.rs"]
mod reference;

use polytops_deps::{analyze, Certifier};
use polytops_ir::{Aff, BandMember, MarkKind, Schedule, Scop, ScopBuilder, StmtId, TreeNode};
use polytops_workloads::{
    all_kernels, jacobi_1d, matmul, producer_consumer, reversed_consumer, stencil_chain,
};

/// Certifies the schedule *tree* against every dependence via the
/// from-scratch instance-order oracle of `crates/deps/tests/reference`
/// (the flat oracle in [`assert_legal`] does not see tile or wavefront
/// members).
fn assert_tree_legal(name: &str, scop: &Scop, sched: &Schedule) {
    let tree = sched.tree();
    let paths = tree.stmt_paths();
    for (e, dep) in analyze(scop).iter().enumerate() {
        let steps = reference::order_steps(&paths[dep.src.0], &paths[dep.dst.0]);
        assert!(
            reference::steps_respect(dep, &steps),
            "{name}: tree violates dependence {e} (S{} -> S{})",
            dep.src.0,
            dep.dst.0,
        );
    }
}

/// The `(sizes, tile_members, point_members)` of every tile nest in the
/// tree, outermost first.
fn tile_nests(node: &TreeNode) -> Vec<(Vec<i64>, Vec<BandMember>, Vec<BandMember>)> {
    fn peel(mut n: &TreeNode) -> &TreeNode {
        while let TreeNode::Mark { child, .. } = n {
            n = child;
        }
        n
    }
    fn walk(node: &TreeNode, out: &mut Vec<(Vec<i64>, Vec<BandMember>, Vec<BandMember>)>) {
        if let TreeNode::Mark {
            kind: MarkKind::Tile(sizes),
            child,
        } = node
        {
            if let TreeNode::Band {
                members: tiles,
                child: inner,
                ..
            } = peel(child)
            {
                if let TreeNode::Band {
                    members: points,
                    child: rest,
                    ..
                } = peel(inner)
                {
                    out.push((sizes.clone(), tiles.clone(), points.clone()));
                    walk(rest, out);
                    return;
                }
            }
        }
        match node {
            TreeNode::Band { child, .. }
            | TreeNode::Filter { child, .. }
            | TreeNode::Mark { child, .. } => walk(child, out),
            TreeNode::Sequence(children) => children.iter().for_each(|c| walk(c, out)),
            TreeNode::Leaf => {}
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// The members of the first band under a `Mark::Wavefront`.
fn wavefront_band(node: &TreeNode) -> Option<Vec<BandMember>> {
    match node {
        TreeNode::Mark {
            kind: MarkKind::Wavefront,
            child,
        } => {
            if let TreeNode::Band { members, .. } = child.as_ref() {
                return Some(members.clone());
            }
            wavefront_band(child)
        }
        TreeNode::Band { child, .. }
        | TreeNode::Filter { child, .. }
        | TreeNode::Mark { child, .. } => wavefront_band(child),
        TreeNode::Sequence(children) => children.iter().find_map(wavefront_band),
        TreeNode::Leaf => None,
    }
}

/// Every configuration a kernel must stay legal under.
fn configs() -> Vec<(&'static str, SchedulerConfig)> {
    vec![
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
    ]
}

/// Asserts the schedule orders every dependence of `scop` and that every
/// statement's schedule spans its iteration space.
fn assert_legal(name: &str, scop: &Scop, sched: &Schedule) {
    let deps = analyze(scop);
    assert!(
        !deps.is_empty() || scop.statements.len() == 1,
        "{name}: want deps"
    );
    let mut oracle = Certifier::new(&deps);
    for (e, dep) in deps.iter().enumerate() {
        assert!(
            oracle.schedule_respects(e, sched.stmt(dep.src).rows(), sched.stmt(dep.dst).rows()),
            "{name}: dependence {e} ({:?} S{} -> S{} level {}) violated",
            dep.kind,
            dep.src.0,
            dep.dst.0,
            dep.level,
        );
    }
    for (s, stmt) in scop.statements.iter().enumerate() {
        assert_eq!(
            sched.stmt(StmtId(s)).rank().unwrap(),
            stmt.depth(),
            "{name}: S{s} schedule must span its iteration space"
        );
    }
    // Metadata arity.
    assert_eq!(sched.bands().len(), sched.dims(), "{name}: bands");
    assert_eq!(sched.parallel().len(), sched.dims(), "{name}: parallel");
}

#[test]
fn all_kernels_legal_under_all_configs() {
    for (kname, scop) in &all_kernels() {
        for (cname, cfg) in configs() {
            let sched = schedule(scop, &cfg)
                .unwrap_or_else(|e| panic!("{kname}/{cname}: scheduling failed: {e}"));
            assert_legal(&format!("{kname}/{cname}"), scop, &sched);
        }
    }
}

#[test]
fn stencil_chain_outer_dimension_carries() {
    let scop = stencil_chain();
    let sched = schedule(&scop, &presets::pluto()).unwrap();
    // The acceptance criterion: φ = i on the outer dimension…
    assert_eq!(sched.stmt(StmtId(0)).rows()[0], vec![1, 0, 0]);
    // …and that dimension strongly satisfies (carries) every dependence.
    let deps = analyze(&scop);
    let mut oracle = Certifier::new(&deps);
    for e in 0..deps.len() {
        let row = &sched.stmt(StmtId(0)).rows()[0];
        assert!(oracle.strongly_satisfies(e, row, row));
    }
}

#[test]
fn matmul_schedule_is_full_rank_identity_like() {
    let scop = matmul();
    let sched = schedule(&scop, &presets::pluto()).unwrap();
    let ss = sched.stmt(StmtId(0));
    assert_eq!(ss.rank().unwrap(), 3);
    // Proximity keeps the self-dependence on C[i][j] at distance 0 on
    // the first two dimensions (i and j stay outer, k carries).
    let deps = analyze(&scop);
    let mut oracle = Certifier::new(&deps);
    for e in 0..deps.len() {
        let rows = ss.rows();
        assert!(oracle.schedule_respects(e, rows, rows));
    }
}

#[test]
fn producer_consumer_fuses_under_proximity() {
    let scop = producer_consumer();
    let sched = schedule(&scop, &presets::pluto()).unwrap();
    // Proximity pulls both statements onto the same affine function of
    // their (aligned) iterators: φ_S0 = i and φ_S1 = j with equal
    // constants — a fused loop.
    let r0 = &sched.stmt(StmtId(0)).rows()[0];
    let r1 = &sched.stmt(StmtId(1)).rows()[0];
    assert_eq!(r0, &vec![1, 0, 0], "producer row");
    assert_eq!(r1, &vec![1, 0, 0], "consumer row");
    // The loop-independent dependence is resolved by a later constant
    // (splitting) dimension ordering S0 before S1.
    let t0 = sched.timestamp(StmtId(0), &[3], &[10]);
    let t1 = sched.timestamp(StmtId(1), &[3], &[10]);
    assert!(t0 < t1, "S0(3) must run before S1(3): {t0:?} vs {t1:?}");
    assert_legal("producer_consumer/pluto", &scop, &sched);
}

#[test]
fn json_config_drives_scheduling_end_to_end() {
    let cfg = SchedulerConfig::from_json(
        r#"{
          "scheduling_strategy": {
            "ILP_construction": [
              { "scheduling_dimension": "default",
                "cost_functions": ["feautrier"] }
            ]
          }
        }"#,
    )
    .unwrap();
    let scop = producer_consumer();
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("producer_consumer/json-feautrier", &scop, &sched);
}

#[test]
fn custom_constraints_shape_the_solution() {
    // Force the consumer to run one iteration behind the producer:
    // shifting is the only way to satisfy S1_cst >= 1 with proximity.
    let mut cfg = presets::pluto();
    cfg.custom_constraints
        .set_default(vec!["S1_cst >= 1".to_string()]);
    let scop = producer_consumer();
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("producer_consumer/shifted", &scop, &sched);
    assert_eq!(sched.stmt(StmtId(1)).rows()[0][2], 1, "S1 shifted by 1");
}

#[test]
fn forced_distribution_works_under_every_fusion_heuristic() {
    // The reversed consumer cannot be fused: the dimension-0 ILP is
    // infeasible and the scheduler must cut between the SCCs — under
    // every heuristic, including the merging ones (SmartFuse, MaxFuse),
    // which degrade to a per-SCC cut when merging would undo the cut.
    let scop = reversed_consumer();
    for heuristic in [
        FusionHeuristic::SmartFuse,
        FusionHeuristic::MaxFuse,
        FusionHeuristic::NoFuse,
    ] {
        let cfg = SchedulerConfig {
            fusion_heuristic: heuristic,
            ..SchedulerConfig::default()
        };
        let sched = schedule(&scop, &cfg)
            .unwrap_or_else(|e| panic!("reversed_consumer/{heuristic:?}: {e}"));
        assert_legal(&format!("reversed_consumer/{heuristic:?}"), &scop, &sched);
        // All of S0 must run before the B-reversing S1.
        let t0 = sched.timestamp(StmtId(0), &[9], &[10]);
        let t1 = sched.timestamp(StmtId(1), &[0], &[10]);
        assert!(t0 < t1, "{heuristic:?}: {t0:?} vs {t1:?}");
    }
}

#[test]
fn vacuous_custom_constraints_do_not_mask_a_required_cut() {
    // The constraint is satisfiable; the dimension-0 infeasibility comes
    // from the dependences. The scheduler must still cut instead of
    // blaming the constraint.
    let mut cfg = presets::pluto();
    cfg.custom_constraints
        .set_default(vec!["S0_cst >= 0".to_string()]);
    let scop = reversed_consumer();
    let sched = schedule(&scop, &cfg).expect("vacuous constraint must not error");
    assert_legal("reversed_consumer/vacuous-constraint", &scop, &sched);
}

#[test]
fn fusion_entry_without_groups_is_a_no_op() {
    // `{"scheduling_dimension": 0}` with neither groups nor total
    // distribution must not silently distribute everything.
    let mut cfg = presets::pluto();
    cfg.fusion.push(polytops_core::FusionControl {
        dimension: 0,
        total_distribution: false,
        groups: Vec::new(),
    });
    let scop = producer_consumer();
    let sched = schedule(&scop, &cfg).unwrap();
    // Proximity still fuses: same iteration of S0 and S1 stays adjacent.
    let r0 = &sched.stmt(StmtId(0)).rows()[0];
    let r1 = &sched.stmt(StmtId(1)).rows()[0];
    assert_eq!(r0, &vec![1, 0, 0]);
    assert_eq!(r1, &vec![1, 0, 0]);
    assert_legal("producer_consumer/noop-fusion-entry", &scop, &sched);
}

#[test]
fn tiled_stencil_is_legal_and_records_tile_bands() {
    // The PostProcess stage tiles jacobi's permutable (t, t+i) band; the
    // flat schedule rows are untouched, so legality must hold verbatim,
    // and the tree gains a tile band over the point band.
    let scop = jacobi_1d();
    let mut cfg = presets::pluto();
    cfg.post.tile_sizes = vec![32, 32];
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("jacobi_1d/tiled", &scop, &sched);
    assert_tree_legal("jacobi_1d/tiled", &scop, &sched);
    let nests = tile_nests(&sched.tree().root);
    assert_eq!(nests.len(), 1, "one tiled band");
    let (sizes, tiles, points) = &nests[0];
    assert_eq!(sizes, &vec![32, 32]);
    assert_eq!(points.len(), 2, "the full loop band is tiled");
    // Tile counters are the point members' floors by the tile size.
    for (t, p) in tiles.iter().zip(points) {
        assert_eq!(t.terms.len(), 1);
        assert_eq!(t.terms[0].div, 32);
        assert_eq!(t.terms[0].rows, p.terms[0].rows);
    }
}

#[test]
fn wavefronted_matmul_is_legal_and_exposes_inner_parallelism() {
    // Feautrier carries matmul's k-dependences on the first dimension,
    // leaving the inner dimensions parallel: the wavefront precondition.
    let scop = matmul();
    let mut cfg = presets::feautrier();
    cfg.post.wavefront = true;
    let plain = schedule(&scop, &presets::feautrier()).unwrap();
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("matmul/wavefront", &scop, &sched);
    assert_tree_legal("matmul/wavefront", &scop, &sched);
    // The flat rows are untouched — the wavefront lives on the tree…
    assert_eq!(sched.stmt(StmtId(0)).rows(), plain.stmt(StmtId(0)).rows());
    let band = wavefront_band(&sched.tree().root).expect("a wavefronted band");
    // …whose outer member became the band sum (a genuine transformation)…
    let expected: Vec<i64> = (0..5)
        .map(|c| (0..3).map(|d| plain.stmt(StmtId(0)).rows()[d][c]).sum())
        .collect();
    assert_eq!(band[0].terms.len(), 1, "affine skew of an untiled band");
    assert_eq!(band[0].terms[0].div, 1);
    assert_eq!(band[0].terms[0].rows[0], expected);
    // …and the inner members stay coincident behind the wavefront.
    assert!(!band[0].coincident, "wavefront member is sequential");
    assert!(
        band[1].coincident && band[2].coincident,
        "inner members coincident: {:?}",
        band.iter().map(|m| m.coincident).collect::<Vec<_>>()
    );
}

#[test]
fn intra_tile_vectorize_moves_the_parallel_loop_innermost() {
    // Matmul under pluto: band (i, j, k) with parallel = [T, T, F] and k
    // innermost (it carries the C self-dependences). Intra-tile
    // vectorization must swap a parallel loop into the innermost slot —
    // legally (the permuted band stays oracle-clean).
    let scop = matmul();
    let mut cfg = presets::pluto();
    cfg.post.tile_sizes = vec![16];
    cfg.post.intra_tile_vectorize = true;
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("matmul/intra-tile-vec", &scop, &sched);
    assert_tree_legal("matmul/intra-tile-vec", &scop, &sched);
    let nests = tile_nests(&sched.tree().root);
    assert_eq!(nests.len(), 1);
    let (_, _, points) = &nests[0];
    assert!(
        points.last().unwrap().coincident,
        "innermost point member must end up coincident: {:?}",
        points.iter().map(|m| m.coincident).collect::<Vec<_>>()
    );
    // Compare against the same config without the swap: the innermost
    // member used to be the carrying (sequential) one.
    let mut plain_cfg = presets::pluto();
    plain_cfg.post.tile_sizes = vec![16];
    let plain = schedule(&scop, &plain_cfg).unwrap();
    let plain_nests = tile_nests(&plain.tree().root);
    let (_, _, plain_points) = &plain_nests[0];
    assert!(
        !plain_points.last().unwrap().coincident,
        "without the swap k stays innermost"
    );
    assert_eq!(
        points.last().unwrap().terms[0].rows,
        plain_points[plain_points.len() - 2].terms[0].rows,
        "the coincident member moved innermost"
    );
}

#[test]
fn farkas_cache_hits_across_dimensions() {
    // Matmul keeps its dependences live across all three dimensions, so
    // every post-first-dimension Farkas lookup must be a cache hit.
    let (_, stats) =
        schedule_with_options(&matmul(), &presets::pluto(), &EngineOptions::default()).unwrap();
    assert!(stats.farkas_misses > 0, "first dimension must miss");
    assert!(
        stats.farkas_hits >= stats.farkas_misses,
        "3 dimensions with a stable live set must mostly hit: {stats:?}"
    );
}

#[test]
fn total_distribution_splits_the_loops() {
    let mut cfg = presets::pluto();
    cfg.fusion.push(polytops_core::FusionControl {
        dimension: 0,
        total_distribution: true,
        groups: Vec::new(),
    });
    let scop = producer_consumer();
    let sched = schedule(&scop, &cfg).unwrap();
    assert_legal("producer_consumer/distributed", &scop, &sched);
    // Dimension 0 is the user's constant split: S0 before S1 everywhere.
    let t0 = sched.timestamp(StmtId(0), &[9], &[10]);
    let t1 = sched.timestamp(StmtId(1), &[0], &[10]);
    assert!(
        t0 < t1,
        "all of S0 must precede all of S1: {t0:?} vs {t1:?}"
    );
}

/// `A[f(i, j, k)] = A[f(i, j, k) + 1]` over a 3-deep nest, each
/// subscript of `f` pairing two coefficients within ten of `i64::MAX`.
fn hostile_scop() -> Scop {
    let mut b = ScopBuilder::new("hostile");
    let n = b.param("N");
    let a = b.array("A", &[n.clone(), n.clone(), n.clone()], 8);
    for it in ["i", "j", "k"] {
        b.open_loop(it, Aff::val(0), n.clone() - 1);
    }
    let (i, j, k) = (Aff::var("i"), Aff::var("j"), Aff::var("k"));
    let write = [
        i.clone() * 9223372036854775807 - j.clone() * 9223372036854775805,
        j * 9223372036854775803 - k.clone() * 9223372036854775801,
        k * 9223372036854775799 - i * 9223372036854775797,
    ];
    let read = write.clone().map(|s| s + 1);
    b.stmt("S0")
        .write(a, &write)
        .read(a, &read)
        .text("line 7")
        .add(&mut b);
    for _ in 0..3 {
        b.close_loop();
    }
    b.build().unwrap()
}

#[test]
fn overflowing_coefficients_fail_the_request_with_a_math_error() {
    // Subscripts whose dependence polyhedron needs products of three
    // near-`i64::MAX` coefficients: the exact solver cannot hold them.
    // Analysis must keep the dependences it could not rule out, and
    // scheduling must fail with the layer's name — not panic the thread
    // that happened to pick the request up.
    let scop = hostile_scop();
    assert!(!analyze(&scop).is_empty(), "an overflow proves no absence");
    for (name, cfg) in configs() {
        let err = schedule(&scop, &cfg).unwrap_err();
        assert!(
            matches!(err, polytops_core::ScheduleError::Math(_)),
            "{name}: {err}"
        );
    }
}

/// A directive whose `stmts` names a statement the SCoP does not have
/// fails the schedule with a configuration error naming the field, for
/// every directive kind. One whose `iterator` is past its statement's
/// depth is skipped there, as a soft directive is, and changes nothing.
#[test]
fn a_directive_on_a_missing_statement_is_a_config_error() {
    // One statement, and parallel dimensions for `sequential` to look at.
    let scop = matmul();
    let plain = schedule(&scop, &SchedulerConfig::default()).unwrap();
    for kind in ["vectorize", "parallelize", "sequential"] {
        let directive = |stmts: &str| {
            SchedulerConfig::from_json(&format!(
                r#"{{"scheduling_strategy":{{"directives":[{{"type":"{kind}","stmts":"{stmts}","iterator":"9"}}]}}}}"#
            ))
            .unwrap()
        };
        let err = schedule(&scop, &directive("5")).unwrap_err();
        assert!(
            matches!(&err, polytops_core::ScheduleError::Config { detail }
                if detail.contains("directives[0].stmts") && detail.contains("statement 5")),
            "{kind}: {err}"
        );
        let skipped = schedule(&scop, &directive("0")).unwrap();
        assert_eq!(skipped, plain, "{kind}");
    }
}

/// A custom-constraint integer that does not fit `i64`, or a row that
/// would overflow combining the two sides, fails the schedule with a
/// constraint error. It used to panic in a debug build and to wrap in a
/// release build, where `S0_it_0 >= 2^64 + 1` scheduled as `>= 1`.
#[test]
fn custom_constraint_integers_past_i64_are_a_syntax_error() {
    let scop = matmul();
    for text in [
        "S0_it_0 >= 99999999999999999999",
        "S0_it_0 >= 18446744073709551617",
        "S0_it_0 - 9223372036854775807 >= 9223372036854775807",
    ] {
        let config = SchedulerConfig::from_json(&format!(
            r#"{{"scheduling_strategy":{{"custom_constraints":[{{"scheduling_dimension":"default","constraints":["{text}"]}}]}}}}"#
        ))
        .unwrap();
        let err = schedule(&scop, &config).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("cannot parse constraint `{text}`: integer out of range")
        );
    }
}
