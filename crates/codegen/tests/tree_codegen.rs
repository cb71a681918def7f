//! Schedule-tree codegen integration tests: schedule real kernels with
//! the core pipeline and check the generated loop nests.

use std::sync::Arc;

use polytops_codegen::{emit_c, generate, stats, AstNode, CodegenError, Guard};
use polytops_core::{presets, schedule, SchedulerConfig};
use polytops_ir::{Aff, MarkKind, Schedule, Scop, ScopBuilder, StmtSchedule};
use polytops_math::obs::Recorder;
use polytops_workloads::{
    all_kernels, gemver, heat_2d, jacobi_1d, matmul, producer_consumer, sweep::preset_grid,
};

/// Counts the loops (tile and point) of a generated AST.
fn count_loops(node: &AstNode) -> (usize, usize) {
    match node {
        AstNode::Stmt(_) => (0, 0),
        AstNode::Seq(children) => children.iter().fold((0, 0), |(t, p), c| {
            let (ct, cp) = count_loops(c);
            (t + ct, p + cp)
        }),
        AstNode::Loop(l) => {
            let (t, p) = l.body.iter().fold((0, 0), |(t, p), c| {
                let (ct, cp) = count_loops(c);
                (t + ct, p + cp)
            });
            if l.tile.is_some() {
                (t + 1, p)
            } else {
                (t, p + 1)
            }
        }
    }
}

#[test]
fn matmul_lowers_to_three_nested_point_loops() {
    let scop = matmul();
    let sched = schedule(&scop, &presets::pluto()).unwrap();
    let tree = generate(&scop, &sched).unwrap();
    assert_eq!(count_loops(&tree), (0, 3));
    let text = emit_c(&scop, &sched).unwrap();
    assert_eq!(text.matches("for (").count(), 3, "{text}");
    // The statement instance is rewritten over the scan variables (the
    // i/j interchange tie may fall either way; all three must appear).
    let call = text
        .lines()
        .find(|l| l.contains("S0("))
        .expect("statement emitted");
    for v in ["c0", "c1", "c2"] {
        assert!(call.contains(v), "{text}");
    }
    assert!(text.contains("#pragma omp parallel for"), "{text}");
}

#[test]
fn tiled_jacobi_materializes_tile_loops() {
    let scop = jacobi_1d();
    let mut cfg = SchedulerConfig::default();
    cfg.post.tile_sizes = vec![32, 32];
    let sched = schedule(&scop, &cfg).unwrap();
    let marks = sched.tree().marks();
    assert!(
        marks.iter().any(|m| matches!(m, MarkKind::Tile(_))),
        "jacobi band must tile"
    );
    let tree = generate(&scop, &sched).unwrap();
    let (tile_loops, point_loops) = count_loops(&tree);
    assert_eq!(tile_loops, 2, "one tile loop per band dimension");
    assert_eq!(point_loops, 2);
    let text = emit_c(&scop, &sched).unwrap();
    assert!(text.contains("tile loop (size 32)"), "{text}");
    // Point loops are constrained to their tile: a 32*c0-style bound
    // must appear somewhere in the point loop bounds.
    assert!(text.contains("32*c0"), "{text}");
}

#[test]
fn fused_producer_consumer_shares_one_loop() {
    let scop = producer_consumer();
    let sched = schedule(&scop, &presets::pluto()).unwrap();
    let text = emit_c(&scop, &sched).unwrap();
    // One fused loop containing both statements, S0 before S1.
    assert_eq!(text.matches("for (").count(), 1, "{text}");
    let s0 = text.find("S0(").expect("S0 emitted");
    let s1 = text.find("S1(").expect("S1 emitted");
    assert!(s0 < s1, "{text}");
}

#[test]
fn untiled_tree_matches_schedule_dims() {
    let scop = matmul();
    let sched = schedule(&scop, &presets::feautrier()).unwrap();
    let tree = generate(&scop, &sched).unwrap();
    let (tile_loops, point_loops) = count_loops(&tree);
    assert_eq!(tile_loops, 0);
    assert_eq!(point_loops, 3);
}

#[test]
fn wavefront_emits_exact_floor_guard_or_clean_skew() {
    let scop = heat_2d();
    let sched = schedule(&scop, &presets::wavefront()).unwrap();
    let text = emit_c(&scop, &sched).unwrap();
    // The skewed tile band is annotated and the program still names
    // every statement exactly once per loop nest.
    assert!(text.contains("// wavefront"), "{text}");
    assert_eq!(text.matches("S0(").count(), 1, "{text}");
}

#[test]
fn fused_statements_do_not_split_into_sibling_loops() {
    // gemver under feautrier fuses four statements with staggered
    // domains. The scanner must emit union loops with per-statement
    // guards, not one sibling nest per statement (7 loops).
    let scop = gemver();
    let sched = schedule(&scop, &presets::feautrier()).unwrap();
    let tree = generate(&scop, &sched).unwrap();
    let s = stats(&tree);
    assert!(
        s.loops < 7,
        "expected union loops, not a nest per statement, got {s:?}"
    );
    let text = emit_c(&scop, &sched).unwrap();
    for name in ["S0(", "S1(", "S2(", "S3("] {
        assert_eq!(text.matches(name).count(), 1, "{text}");
    }
}

#[test]
fn a_schedule_without_an_integral_inverse_is_an_error_not_an_ellipsis() {
    // φ = 2i scans c0 = 0, 2, 4, …: i = c0 / 2 is no integer
    // expression, and `S0(...)` would be C that neither compiles nor
    // runs the right instances.
    let mut b = ScopBuilder::new("scaled");
    let n = b.param("N");
    let a = b.array("A", &[n.clone()], 8);
    b.open_loop("i", Aff::val(0), n - 1);
    b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
    b.close_loop();
    let scop = b.build().unwrap();
    let mut ss = StmtSchedule::new(1, 1);
    ss.push_row(vec![2, 0, 0]);
    let sched = Schedule::from_parts(vec![ss], vec![0], vec![false]);
    let err = emit_c(&scop, &sched).unwrap_err();
    assert_eq!(
        err,
        CodegenError::NoIntegralInverse {
            stmt: "S0".to_string()
        }
    );
    assert!(err.to_string().contains("`S0`"), "{err}");
    // The AST itself still says so, for callers that walk it.
    assert!(generate(&scop, &sched).is_ok());
}

/// One `generate` under a recorder bound around it, and that recorder.
fn recorded(scop: &Scop, sched: &Schedule) -> (AstNode, Arc<Recorder>) {
    let recorder = Recorder::new(true);
    let root = recorder.root_span("test");
    let _bound = root.link().expect("armed").bind();
    (generate(scop, sched).expect("lowers"), recorder.clone())
}

/// The LP questions one `generate` asks, from the
/// `codegen.implied_queries` counter of a recorder bound around it.
fn implied_queries(scop: &Scop, sched: &Schedule) -> u64 {
    recorded(scop, sched)
        .1
        .counter("codegen.implied_queries")
        .get()
}

#[test]
fn implied_queries_are_pinned_per_kernel_and_preset() {
    // In `preset_grid` order: pluto, feautrier, isl_like, wavefront,
    // fast_path. Only the questions the rows could not answer count.
    let want: [(&str, [u64; 5]); 7] = [
        ("stencil_chain", [0, 0, 0, 4, 0]),
        ("matmul", [2, 2, 2, 23, 2]),
        ("producer_consumer", [0, 4, 0, 4, 0]),
        ("reversed_consumer", [0, 0, 0, 6, 0]),
        ("jacobi_1d", [1, 5, 5, 29, 1]),
        ("heat_2d", [3, 26, 26, 86, 3]),
        ("gemver", [2, 18, 18, 33, 2]),
    ];
    let kernels = all_kernels();
    assert_eq!(kernels.len(), want.len());
    for ((kernel, scop), (name, queries)) in kernels.iter().zip(want) {
        assert_eq!(*kernel, name);
        let got: Vec<u64> = preset_grid()
            .iter()
            .map(|(_, config)| implied_queries(scop, &schedule(scop, config).unwrap()))
            .collect();
        assert_eq!(got, queries, "{kernel}");
    }
}

#[test]
fn question_pivots_are_pinned_per_kernel_and_preset() {
    // The primal pivots the questions above take, in the same order. A
    // refuted row stops at the vertex or on the first basis below zero;
    // minimizing it on to its optimum would take this count up while
    // the question count holds.
    let want: [(&str, [u64; 5]); 7] = [
        ("stencil_chain", [0, 0, 0, 3, 0]),
        ("matmul", [2, 2, 2, 38, 2]),
        ("producer_consumer", [0, 0, 0, 7, 0]),
        ("reversed_consumer", [0, 0, 0, 12, 0]),
        ("jacobi_1d", [1, 3, 3, 33, 1]),
        ("heat_2d", [2, 35, 35, 140, 2]),
        ("gemver", [2, 7, 7, 60, 2]),
    ];
    let kernels = all_kernels();
    assert_eq!(kernels.len(), want.len());
    for ((kernel, scop), (name, pivots)) in kernels.iter().zip(want) {
        assert_eq!(*kernel, name);
        let got: Vec<u64> = preset_grid()
            .iter()
            .map(|(_, config)| {
                let (_, recorder) = recorded(scop, &schedule(scop, config).unwrap());
                recorder.counter("codegen.question_pivots").get()
            })
            .collect();
        assert_eq!(got, pivots, "{kernel}");
    }
}

#[test]
fn a_kept_equality_guard_is_no_lexmin_pin() {
    // gemver under feautrier keeps `-c1 == 0` on S2: the guard is pushed
    // onto the leaf's context, and `simplex.pin_eq_ns` times only the
    // lexmin's fractional-stage pins, which ran before the recorder.
    let scop = gemver();
    let sched = schedule(&scop, &presets::feautrier()).unwrap();
    let (tree, recorder) = recorded(&scop, &sched);
    fn has_eq_guard(node: &AstNode) -> bool {
        match node {
            AstNode::Stmt(s) => s.guards.iter().any(|g| matches!(g, Guard::Eq(_))),
            AstNode::Seq(children) => children.iter().any(has_eq_guard),
            AstNode::Loop(l) => l.body.iter().any(has_eq_guard),
        }
    }
    assert!(has_eq_guard(&tree), "{tree:?}");
    assert_eq!(recorder.histogram("simplex.pin_eq_ns").snapshot().count, 0);
}

#[test]
fn huge_wavefront_tiles_lower_or_overflow_the_same_in_every_profile() {
    // Three floors of one tile size each: the floor relaxation weighs
    // them by the lcm of their divisors (2^22), not their product
    // (2^66, which wrapped in `i64`). The floors of the tile counters are
    // those counters, so only one floor is lifted: 2^30 lowers too. At
    // 2^31 the projections overflow, and that is an error, not a panic or
    // a wrapped bound.
    let scop = heat_2d();
    let lower = |size: i64| {
        let mut cfg = SchedulerConfig::default();
        cfg.post.tile_sizes = vec![size];
        cfg.post.wavefront = true;
        emit_c(&scop, &schedule(&scop, &cfg).unwrap())
    };
    let text = lower(1 << 22).expect("a 2^22 tile lowers");
    assert!(
        text.contains("c0 == floord(c3, 4194304) + floord(c4, 4194304) + floord(c5, 4194304)"),
        "{text}"
    );
    assert!(lower(1 << 30).is_ok(), "a 2^30 tile lowers");
    assert_eq!(
        lower(1 << 31),
        Err(CodegenError::Math(polytops_math::MathError::Overflow))
    );
}
