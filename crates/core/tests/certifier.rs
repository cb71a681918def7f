//! The dependence [`Certifier`] — one live tableau per dependence,
//! walks that pin as they go — against the from-scratch oracle of
//! `crates/deps/tests/reference` (a rebuilt system per question), over
//! every kernel × preset × post-processing combination; the order of
//! every emitted tree and every coincidence flag in it against the
//! reference's step walk and conditioned coincidence; and trees that
//! are illegal on purpose, which the reference must keep rejecting.

#[path = "../../deps/tests/reference/mod.rs"]
mod reference;

use polytops_core::{schedule, SchedulerConfig};
use polytops_deps::{analyze, Certifier, Dependence};
use polytops_ir::{
    Aff, BandMember, MarkKind, MemberTerm, PathStep, ScheduleTree, Scop, ScopBuilder, TreeNode,
};
use polytops_workloads::{all_kernels, jacobi_1d, producer_consumer, sweep::preset_grid};
use reference::order_steps;

/// The post-processing variants every preset is crossed with.
fn post_grid() -> Vec<(&'static str, Vec<i64>, bool, bool)> {
    vec![
        ("tile16", vec![16], false, false),
        ("tile32x32+wave", vec![32, 32], true, false),
        ("tile64+wave+vec", vec![64], true, true),
    ]
}

#[test]
fn every_answer_matches_the_from_scratch_oracle() {
    let mut asked = 0usize;
    for (kernel, scop) in all_kernels() {
        let deps = analyze(&scop);
        for (preset, base) in preset_grid() {
            for (post, sizes, wavefront, vectorize) in post_grid() {
                let mut config = base.clone();
                config.post.tile_sizes = sizes;
                config.post.wavefront = wavefront;
                config.post.intra_tile_vectorize = vectorize;
                let what = format!("{kernel}/{preset}/{post}");
                let sched = schedule(&scop, &config).unwrap_or_else(|e| panic!("{what}: {e}"));
                let paths = sched.tree().stmt_paths();
                let mut certifier = Certifier::new(&deps);
                for (e, dep) in deps.iter().enumerate() {
                    let (src, dst) = (sched.stmt(dep.src).rows(), sched.stmt(dep.dst).rows());
                    // The flat schedule, whole and dimension by dimension.
                    assert!(certifier.schedule_respects(e, src, dst), "{what}: dep {e}");
                    assert!(
                        reference::schedule_respects(dep, src, dst),
                        "{what}: dep {e}"
                    );
                    for (s, d) in src.iter().zip(dst) {
                        assert_eq!(
                            certifier.zero_distance(e, s, d),
                            reference::zero_distance(dep, s, d),
                            "{what}: dep {e}"
                        );
                        assert_eq!(
                            certifier.strongly_satisfies(e, s, d),
                            reference::strongly_satisfies(dep, s, d),
                            "{what}: dep {e}"
                        );
                    }
                    // The tree's order.
                    let steps = order_steps(&paths[dep.src.0], &paths[dep.dst.0]);
                    assert!(reference::steps_respect(dep, &steps), "{what}: dep {e}");
                    asked += steps.len();
                }
            }
        }
    }
    assert!(asked > 1000, "the sweep asked about {asked} steps");
}

#[test]
fn every_coincident_member_is_coincident_given_the_steps_outside_it() {
    // Every flag of every emitted tree — the engine's on untransformed
    // bands, the unconditioned rule's on tile bands, the proof's rule on
    // wavefronts and rotations — must be sound: on every dependence that
    // reaches the member, the member's step is zero wherever the steps
    // before it are.
    let mut posts = vec![("none", vec![], false, false)];
    posts.extend(post_grid());
    let (mut members_seen, mut coincident) = (0, 0);
    for (kernel, scop) in all_kernels() {
        let deps = analyze(&scop);
        for (preset, base) in preset_grid() {
            for (post, sizes, wavefront, vectorize) in &posts {
                let mut config = base.clone();
                config.post.tile_sizes = sizes.clone();
                config.post.wavefront = *wavefront;
                config.post.intra_tile_vectorize = *vectorize;
                let what = format!("{kernel}/{preset}/{post}");
                let sched = schedule(&scop, &config).unwrap_or_else(|e| panic!("{what}: {e}"));
                let tree = sched.tree();
                let paths = tree.stmt_paths();
                tree.for_each_band(|_, members| {
                    members_seen += members.len();
                    coincident += members.iter().filter(|m| m.coincident).count();
                });
                for dep in &deps {
                    let src = &paths[dep.src.0];
                    let steps = order_steps(src, &paths[dep.dst.0]);
                    // Step j compares what src[j] is.
                    for (j, step) in src.iter().take(steps.len()).enumerate() {
                        if let PathStep::Member {
                            coincident: true, ..
                        } = step
                        {
                            assert!(
                                reference::step_coincident(dep, &steps[..j], &steps[j]),
                                "{what}: step {j} is flagged coincident but not for {dep:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    // Every flag of the grid, so a flag that flips shows here too.
    assert_eq!((members_seen, coincident), (505, 222));
}

// ---------------------------------------------------------------------
// Trees that are illegal on purpose.
// ---------------------------------------------------------------------

/// `for t for i: A[i] = A[i-1] + A[i+1]`: distances (1, −1), (1, 0)
/// and (1, 1) on (t, i).
fn jacobi() -> Scop {
    let mut b = ScopBuilder::new("jacobi");
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

/// A band member `⌊row·x / div⌋` with one row per statement.
fn member(rows: &[&[i64]], div: i64, source_dim: usize) -> BandMember {
    BandMember {
        terms: vec![MemberTerm {
            rows: rows.iter().map(|r| r.to_vec()).collect(),
            div,
            source_dim,
        }],
        coincident: false,
    }
}

fn band(members: Vec<BandMember>, child: TreeNode) -> TreeNode {
    TreeNode::Band {
        members,
        permutable: true,
        child: child.boxed(),
    }
}

/// `Mark::Tile` over a tile band (each member of `points` floored by
/// `size`) over the point band.
fn tiled(points: &[BandMember], size: i64, child: TreeNode) -> TreeNode {
    let tiles = points
        .iter()
        .map(|m| {
            let t = &m.terms[0];
            let rows: Vec<&[i64]> = t.rows.iter().map(Vec::as_slice).collect();
            member(&rows, size, t.source_dim)
        })
        .collect();
    TreeNode::Mark {
        kind: MarkKind::Tile(vec![size; points.len()]),
        child: band(tiles, band(points.to_vec(), child)).boxed(),
    }
}

fn tree(nstmts: usize, root: TreeNode) -> ScheduleTree {
    ScheduleTree { nstmts, root }
}

/// Whether `tree` orders every dependence source-first, asked of the
/// from-scratch reference.
fn legal(deps: &[Dependence], tree: &ScheduleTree) -> bool {
    let paths = tree.stmt_paths();
    deps.iter().all(|dep| {
        reference::steps_respect(dep, &order_steps(&paths[dep.src.0], &paths[dep.dst.0]))
    })
}

#[test]
fn a_tile_band_over_a_band_that_is_not_permutable_is_rejected() {
    let scop = jacobi();
    let deps = analyze(&scop);
    // Rows over (t, i, T, N, 1).
    let t = member(&[&[1, 0, 0, 0, 0]], 1, 0);
    let i = member(&[&[0, 1, 0, 0, 0]], 1, 1);
    let skew = member(&[&[1, 1, 0, 0, 0]], 1, 1);
    // (t, i) is a legal order but not a permutable band — the (1, −1)
    // dependence runs backwards across i tiles — while (t, t + i) is.
    let plain = tree(1, band(vec![t.clone(), i.clone()], TreeNode::Leaf));
    assert!(legal(&deps, &plain));
    assert!(
        !legal(
            &deps,
            &tree(1, tiled(&[t.clone(), i.clone()], 4, TreeNode::Leaf))
        ),
        "tiling (t, i) must be refused"
    );
    assert!(
        legal(
            &deps,
            &tree(1, tiled(&[t.clone(), skew], 4, TreeNode::Leaf))
        ),
        "tiling (t, t + i) is legal"
    );
    // A rotation that moves the carrying member t inside i.
    let rotated = tree(1, band(vec![i, t], TreeNode::Leaf));
    assert!(!legal(&deps, &rotated), "(i, t) must be refused");
}

#[test]
fn a_reversed_point_loop_that_carries_a_dependence_is_rejected() {
    // A pipeline-made tree this time: jacobi_1d tiled by 16. Reversing
    // the outer point member — the one that carries the time loop's
    // dependences inside a tile — must not survive certification.
    let scop = jacobi_1d();
    let deps = analyze(&scop);
    let mut config = SchedulerConfig::default();
    config.post.tile_sizes = vec![16];
    let sched = schedule(&scop, &config).unwrap();
    let legal_tree = sched.tree().clone();
    let mut broken = legal_tree.clone();
    let mut band_no = 0;
    broken.for_each_band_mut(|_, members| {
        if band_no == 1 {
            for row in &mut members[0].terms[0].rows {
                row.iter_mut().for_each(|c| *c = -*c);
            }
        }
        band_no += 1;
    });
    assert!(band_no >= 2, "a tile band and a point band");
    assert_ne!(broken, legal_tree);
    assert!(legal(&deps, &legal_tree));
    assert!(!legal(&deps, &broken));
}

/// `n` independent nests `for i for j: Ak[i][j] = Ak[i-1][j] + Ak[i][j-1]`.
fn stripes(n: usize) -> Scop {
    let mut b = ScopBuilder::new("stripes");
    let nn = b.param("N");
    for k in 0..n {
        let a = b.array(&format!("A{k}"), &[nn.clone(), nn.clone()], 8);
        b.open_loop("i", Aff::val(1), nn.clone() - 1);
        b.open_loop("j", Aff::val(1), nn.clone() - 1);
        b.stmt(&format!("S{k}"))
            .read(a, &[Aff::var("i") - 1, Aff::var("j")])
            .read(a, &[Aff::var("i"), Aff::var("j") - 1])
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        b.close_loop();
    }
    b.build().unwrap()
}

#[test]
fn a_tiled_nest_beside_untiled_ones_is_legal() {
    // One band per statement under a sequence, and the band of S2
    // tiled.
    let n = 4;
    let scop = stripes(n);
    let deps = analyze(&scop);
    assert!(deps.iter().all(|d| d.src == d.dst));
    let rows_i: Vec<&[i64]> = vec![&[1, 0, 0, 0]; n]; // (i, j, N, 1)
    let rows_j: Vec<&[i64]> = vec![&[0, 1, 0, 0]; n];
    let points = [member(&rows_i, 1, 0), member(&rows_j, 1, 1)];
    let nest = |k: usize| TreeNode::Filter {
        stmts: vec![k],
        child: if k == 2 {
            tiled(&points, 16, TreeNode::Leaf)
        } else {
            band(points.to_vec(), TreeNode::Leaf)
        }
        .boxed(),
    };
    let after = tree(n, TreeNode::Sequence((0..n).map(nest).collect()));
    assert!(legal(&deps, &after), "each nest is a permutable band");
}

#[test]
fn a_dependence_between_two_filters_under_the_rewritten_band_is_re_checked() {
    // producer_consumer fuses S0 and S1 under one band with a sequence
    // below it; S0 → S1 crosses the band, so a tile member that runs S1
    // backwards is caught.
    let scop = producer_consumer();
    let deps = analyze(&scop);
    assert!(deps.iter().any(|d| d.src != d.dst));
    let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
    let before = sched.tree().clone();
    let TreeNode::Band { members, child, .. } = &before.root else {
        panic!("one fused band at the root: {before:?}");
    };
    assert!(matches!(child.as_ref(), TreeNode::Sequence(_)));
    let after = tree(2, tiled(members, 16, child.as_ref().clone()));
    assert!(legal(&deps, &after));

    let mut broken = after.clone();
    broken.for_each_band_mut(|first, members| {
        if first == 0 {
            // The tile member of S1 only.
            let row = &mut members[0].terms[0].rows[1];
            row.iter_mut().for_each(|c| *c = -*c);
        }
    });
    assert!(!legal(&deps, &broken), "S0 → S1 must be checked");
}

// ---------------------------------------------------------------------
// The counters: the analysis's tableau per dependence, however many
// questions.
// ---------------------------------------------------------------------

/// The `oracle.*` counters one `schedule` call leaves in a recorder:
/// dependences, questions.
fn oracle_counters(scop: &Scop, config: &SchedulerConfig) -> (u64, u64) {
    counters(scop, config).0
}

/// [`oracle_counters`], and beside them the rewrites post-processing
/// proved and committed and the questions a standalone certification
/// of the returned schedule asks.
fn counters(scop: &Scop, config: &SchedulerConfig) -> ((u64, u64), u64, u64) {
    let recorder = polytops_obs::Recorder::new(true);
    let root = recorder.root_span("test");
    let sched = {
        let _bound = root.link().expect("armed").bind();
        schedule(scop, config).unwrap()
    };
    let get = |name: &str| recorder.counter(name).get();
    let deps = analyze(scop);
    let mut standalone = Certifier::new(&deps);
    assert!(standalone.certifies(&sched));
    (
        (deps.len() as u64, get("oracle.queries")),
        get("postprocess.rewrites_proved"),
        standalone.stats().queries,
    )
}

#[test]
fn a_schedule_builds_one_tableau_per_dependence_however_many_questions() {
    // The engine's carried / parallel tests of every dimension, its
    // certification of the solved rows, the tile flags, and the proof of
    // every rewrite all ask the run's one certifier, each question on a
    // copy of the tableau the analysis built for its dependence's
    // polyhedron, and each (polyhedron, row) question once: a flow /
    // anti / output twin or a repeat is answered from the certifier's
    // memo. The certification walk keeps no memo, so it asks what a
    // standalone certification of the same schedule asks, on top of the
    // engine's own questions. The counts are exact and deterministic: a
    // question asked twice, or one the proof stops asking, moves the
    // second, a dropped certification stage moves it by the walk, and a
    // rewrite the proof stops covering is no longer committed.
    let (oracle, proved, walk) = counters(&jacobi_1d(), &polytops_core::presets::wavefront());
    assert_eq!(oracle, (9, 16 + walk));
    assert!(walk > 0);
    assert_eq!(proved, 2, "tile and wavefront");

    let mut config = SchedulerConfig::default();
    config.post.tile_sizes = vec![16];
    config.post.intra_tile_vectorize = true;
    let (oracle, proved, walk) = counters(&polytops_workloads::heat_2d(), &config);
    assert_eq!(oracle, (13, 36 + walk));
    assert!(walk > 0);
    assert_eq!(proved, 1, "one tiling");

    // No dependence, no question.
    let wide = polytops_workloads::synthetic::wide_scop(8);
    assert_eq!(oracle_counters(&wide, &config), (0, 0));
}
