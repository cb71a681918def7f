//! The dependence [`Certifier`] — one live tableau per dependence,
//! walks that pin as they go, touched-only re-certification — against
//! the from-scratch oracle of `crates/deps/tests/reference` (a rebuilt
//! system per question), over every kernel × preset × post-processing
//! combination; and against trees that are illegal on purpose, which it
//! must keep rejecting.

#[path = "../../deps/tests/reference/mod.rs"]
mod reference;

use polytops_core::{schedule, SchedulerConfig};
use polytops_deps::{analyze, order_steps_with_nodes, Certifier, Dependence};
use polytops_ir::{
    Aff, BandMember, MarkKind, MemberTerm, ScheduleTree, Scop, ScopBuilder, TreeNode,
};
use polytops_workloads::{all_kernels, jacobi_1d, producer_consumer, sweep::preset_grid};

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
                let paths = sched.tree_or_lowered().stmt_paths();
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
                    // The tree: its order, and every member's
                    // conditioned coincidence from one walk.
                    let (steps, _) = order_steps_with_nodes(&paths[dep.src.0], &paths[dep.dst.0]);
                    assert!(certifier.steps_respect(e, &steps), "{what}: dep {e}");
                    assert!(reference::steps_respect(dep, &steps), "{what}: dep {e}");
                    let walk = certifier.walk(e, &steps, true, &vec![true; steps.len()]);
                    assert!(walk.respected, "{what}: dep {e}");
                    for j in 0..steps.len() {
                        assert_eq!(
                            walk.coincident[j],
                            reference::step_coincident(dep, &steps[..j], &steps[j]),
                            "{what}: dep {e}, step {j} of {steps:?}"
                        );
                    }
                    asked += steps.len();
                }
                assert!(certifier.stats().tableau_builds <= deps.len() as u64);
            }
        }
    }
    assert!(asked > 1000, "the sweep asked about {asked} steps");
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

/// Whether the rewrite `before → after` is certified, with what the
/// certifier did to decide.
fn rewrite(
    deps: &[Dependence],
    before: &ScheduleTree,
    after: &ScheduleTree,
) -> (bool, polytops_deps::CertifierStats) {
    let mut certifier = Certifier::new(deps);
    let verdict = certifier.certify_rewrite(&before.stmt_paths(), &after.stmt_paths(), 0..0);
    (verdict.is_some(), certifier.stats())
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
    let skewed = tree(1, band(vec![t.clone(), skew.clone()], TreeNode::Leaf));
    let (ok, stats) = rewrite(
        &deps,
        &plain,
        &tree(1, tiled(&[t.clone(), i.clone()], 4, TreeNode::Leaf)),
    );
    assert!(!ok, "tiling (t, i) must be refused");
    assert!(
        stats.deps_recertified >= 1 && stats.deps_skipped == 0,
        "{stats:?}"
    );
    let (ok, stats) = rewrite(
        &deps,
        &skewed,
        &tree(1, tiled(&[t.clone(), skew], 4, TreeNode::Leaf)),
    );
    assert!(ok, "tiling (t, t + i) is legal");
    assert_eq!(stats.deps_recertified, deps.len() as u64);

    // A rotation that moves the carrying member t inside i.
    let rotated = tree(1, band(vec![i, t], TreeNode::Leaf));
    assert!(
        !rewrite(&deps, &plain, &rotated).0,
        "(i, t) must be refused"
    );
    // Nothing changed: nothing is asked, the verdict stands.
    let (ok, stats) = rewrite(&deps, &plain, &plain);
    assert!(ok);
    assert_eq!((stats.deps_skipped, stats.queries), (deps.len() as u64, 0));
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
    let legal = sched
        .tree()
        .expect("post-processing attaches a tree")
        .clone();
    let mut broken = legal.clone();
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
    assert_ne!(broken, legal);
    assert!(!rewrite(&deps, &legal, &broken).0);
    // The same tree asked from scratch agrees.
    let paths = broken.stmt_paths();
    assert!(deps.iter().any(|dep| {
        let (steps, _) = order_steps_with_nodes(&paths[dep.src.0], &paths[dep.dst.0]);
        !reference::steps_respect(dep, &steps)
    }));
}

// ---------------------------------------------------------------------
// Touched-only re-certification, both ways.
// ---------------------------------------------------------------------

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
fn a_rewrite_of_one_band_re_certifies_only_the_dependences_through_it() {
    // One band per statement under a sequence, and the band of S2
    // tiled: only S2's own dependences cross a changed step.
    let n = 4;
    let scop = stripes(n);
    let deps = analyze(&scop);
    let own = |k: usize| deps.iter().filter(|d| d.src.0 == k && d.dst.0 == k).count() as u64;
    assert!(deps.iter().all(|d| d.src == d.dst) && own(2) >= 2);
    let rows_i: Vec<&[i64]> = vec![&[1, 0, 0, 0]; n]; // (i, j, N, 1)
    let rows_j: Vec<&[i64]> = vec![&[0, 1, 0, 0]; n];
    let points = [member(&rows_i, 1, 0), member(&rows_j, 1, 1)];
    let nest = |k: usize, tile: bool| TreeNode::Filter {
        stmts: vec![k],
        child: if tile {
            tiled(&points, 16, TreeNode::Leaf)
        } else {
            band(points.to_vec(), TreeNode::Leaf)
        }
        .boxed(),
    };
    let before = tree(
        n,
        TreeNode::Sequence((0..n).map(|k| nest(k, false)).collect()),
    );
    let after = tree(
        n,
        TreeNode::Sequence((0..n).map(|k| nest(k, k == 2)).collect()),
    );
    let (ok, stats) = rewrite(&deps, &before, &after);
    assert!(ok, "each nest is a permutable band");
    assert_eq!(stats.deps_recertified, own(2));
    assert_eq!(stats.deps_skipped, deps.len() as u64 - own(2));
    assert_eq!(
        stats.tableau_builds,
        own(2),
        "no tableau for a skipped dependence"
    );

    // wide_scop_8 — the sweep's widest tree — has no dependence at all:
    // whatever is rewritten, nothing is asked.
    let wide = polytops_workloads::synthetic::wide_scop(8);
    assert!(analyze(&wide).is_empty());
}

#[test]
fn a_dependence_between_two_filters_under_the_rewritten_band_is_re_checked() {
    // producer_consumer fuses S0 and S1 under one band with a sequence
    // below it; S0 → S1 crosses the band, so tiling it re-checks that
    // dependence, and a tile member that runs S1 backwards is caught.
    let scop = producer_consumer();
    let deps = analyze(&scop);
    let cross = deps.iter().filter(|d| d.src != d.dst).count() as u64;
    assert!(cross >= 1);
    let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
    let before = sched.tree_or_lowered();
    let TreeNode::Band { members, child, .. } = &before.root else {
        panic!("one fused band at the root: {before:?}");
    };
    assert!(matches!(child.as_ref(), TreeNode::Sequence(_)));
    let after = tree(2, tiled(members, 16, child.as_ref().clone()));
    let (ok, stats) = rewrite(&deps, &before, &after);
    assert!(ok);
    assert_eq!(
        stats.deps_recertified,
        deps.len() as u64,
        "every dependence crosses the band"
    );

    let mut broken = after.clone();
    broken.for_each_band_mut(|first, members| {
        if first == 0 {
            // The tile member of S1 only.
            let row = &mut members[0].terms[0].rows[1];
            row.iter_mut().for_each(|c| *c = -*c);
        }
    });
    assert!(
        !rewrite(&deps, &before, &broken).0,
        "S0 → S1 must be re-checked"
    );
}

// ---------------------------------------------------------------------
// The counters: a tableau per dependence, not per question.
// ---------------------------------------------------------------------

/// The `oracle.*` counters one `schedule` call leaves in a recorder.
fn oracle_counters(scop: &Scop, config: &SchedulerConfig) -> (u64, u64, u64) {
    let recorder = polytops_obs::Recorder::new(true);
    let root = recorder.root_span("test");
    {
        let _bound = root.link().expect("armed").bind();
        schedule(scop, config).unwrap();
    }
    let get = |name: &str| recorder.counter(name).get();
    (
        analyze(scop).len() as u64,
        get("oracle.tableau_builds"),
        get("oracle.queries"),
    )
}

#[test]
fn a_schedule_builds_one_tableau_per_dependence_however_many_questions() {
    // The engine's carried / parallel tests of every dimension, the
    // tile flags, and the certification of every rewrite all ask the
    // run's one certifier. The counts are exact and deterministic: a
    // return to a tableau per question multiplies the first by ten.
    let (deps, builds, queries) =
        oracle_counters(&jacobi_1d(), &polytops_core::presets::wavefront());
    assert_eq!((deps, builds, queries), (9, 9, 109));

    let mut config = SchedulerConfig::default();
    config.post.tile_sizes = vec![16];
    config.post.intra_tile_vectorize = true;
    let (deps, builds, queries) = oracle_counters(&polytops_workloads::heat_2d(), &config);
    assert_eq!((deps, builds, queries), (13, 13, 122));

    // No dependence, no question, no tableau.
    let wide = polytops_workloads::synthetic::wide_scop(8);
    assert_eq!(oracle_counters(&wide, &config), (0, 0, 0));
}
