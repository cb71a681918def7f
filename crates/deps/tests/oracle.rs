//! The [`Certifier`] against the from-scratch oracle of
//! `tests/reference`, on hand-built SCoPs: every affine row with
//! coefficients in {−1, 0, 1} and a family of tiled, wavefronted and
//! sequenced step sequences, each asked both ways. The reference's
//! conditioned coincidence — what `crates/core/tests/certifier.rs`
//! holds every emitted flag to — has no library twin; it is checked
//! here against known answers and against the instances themselves.
//! (The kernel × preset × post-processing sweep is
//! `crates/core/tests/certifier.rs`.)
//!
//! The properties at the end hold the tableau each dependence carries
//! from its analysis to the reference's cold rebuild, on every
//! dependence of the reference kernels, `long_chain(16)`,
//! `wide_scop(8)`, a SCoP of strided subscripts and seeded offset
//! chains. They read `PROPTEST_CASES`.

mod reference;

use std::sync::OnceLock;

use polytops_deps::{
    analyze, distance_row, polyhedron_classes, steps_respect_dependence, Certifier, DepKind,
    Dependence, OrderStep,
};
use polytops_ir::{Aff, Schedule, Scop, ScopBuilder, StmtSchedule};
use polytops_math::{ilp_minimize, IlpOutcome, RowKind};
use polytops_workloads::synthetic::{long_chain, offset_chain, wide_scop};
use proptest::prelude::*;

/// The flow dependence of `for i: A[i] = A[i-1]`, at distance 1.
fn chain() -> Dependence {
    let mut b = ScopBuilder::new("chain");
    let n = b.param("N");
    let a = b.array("A", &[n.clone()], 8);
    b.open_loop("i", Aff::val(1), n - 1);
    b.stmt("S0")
        .read(a, &[Aff::var("i") - 1])
        .write(a, &[Aff::var("i")])
        .add(&mut b);
    b.close_loop();
    let deps = analyze(&b.build().unwrap());
    deps.into_iter().find(|d| d.kind == DepKind::Flow).unwrap()
}

/// `for t for i: A[i] = A[i-1] + A[i+1]`.
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

/// `for i: B[i] = A[i]; for i: C[i] = B[i] + B[i-1]`.
fn producer_consumer() -> Scop {
    let mut b = ScopBuilder::new("pc");
    let n = b.param("N");
    let a = b.array("A", &[n.clone()], 8);
    let bb = b.array("B", &[n.clone()], 8);
    let c = b.array("C", &[n.clone()], 8);
    b.open_loop("i", Aff::val(0), n.clone() - 1);
    b.stmt("S0")
        .read(a, &[Aff::var("i")])
        .write(bb, &[Aff::var("i")])
        .add(&mut b);
    b.close_loop();
    b.open_loop("i", Aff::val(1), n - 1);
    b.stmt("S1")
        .read(bb, &[Aff::var("i")])
        .read(bb, &[Aff::var("i") - 1])
        .write(c, &[Aff::var("i")])
        .add(&mut b);
    b.close_loop();
    b.build().unwrap()
}

/// Every row over `width` columns with entries in {−1, 0, 1}.
fn small_rows(width: usize) -> Vec<Vec<i64>> {
    (0..3usize.pow(width as u32))
        .map(|mut code| {
            (0..width)
                .map(|_| {
                    let digit = (code % 3) as i64 - 1;
                    code /= 3;
                    digit
                })
                .collect()
        })
        .collect()
}

/// Row pairs over `dep`'s two statements with entries in {−1, 0, 1}:
/// a same-statement dependence takes each row on both sides, a
/// cross-statement one pairs every 7th source row with every 5th
/// destination row.
fn small_row_pairs(dep: &Dependence) -> Vec<(Vec<i64>, Vec<i64>)> {
    let np = dep.poly().num_vars() - dep.src_depth - dep.dst_depth;
    let src_rows = small_rows(dep.src_depth + np + 1);
    let dst_rows = small_rows(dep.dst_depth + np + 1);
    if dep.src == dep.dst {
        src_rows.into_iter().zip(dst_rows).collect()
    } else {
        let dst: Vec<Vec<i64>> = dst_rows.into_iter().step_by(5).collect();
        (src_rows.iter().step_by(7))
            .flat_map(|s| dst.iter().map(move |d| (s.clone(), d.clone())))
            .collect()
    }
}

/// A certifier of `dep` alone, which asks every question afresh.
fn lone(dep: &Dependence) -> Certifier<'_> {
    Certifier::new(std::slice::from_ref(dep))
}

#[test]
fn affine_row_answers_match_the_from_scratch_oracle() {
    for scop in [jacobi(), producer_consumer()] {
        let deps = analyze(&scop);
        assert!(!deps.is_empty());
        // One certifier for all the questions about all the
        // dependences: whatever it keeps between them must not leak
        // from one answer into the next.
        let mut certifier = Certifier::new(&deps);
        for (e, dep) in deps.iter().enumerate() {
            for (s, d) in &small_row_pairs(dep) {
                let want = (
                    reference::strongly_satisfies(dep, s, d),
                    reference::zero_distance(dep, s, d),
                    reference::respects(dep, s, d),
                );
                let got = (
                    certifier.strongly_satisfies(e, s, d),
                    certifier.zero_distance(e, s, d),
                    certifier.respects(e, s, d),
                );
                assert_eq!(got, want, "{} dep {e}, rows {s:?} / {d:?}", scop.name);
                // A fresh certifier of the one dependence, per question.
                let lone = (
                    lone(dep).strongly_satisfies(0, s, d),
                    lone(dep).zero_distance(0, s, d),
                    lone(dep).respects(0, s, d),
                );
                assert_eq!(lone, want);
            }
        }
    }
}

/// A member step with the same terms on both sides.
fn member(terms: &[(&[i64], i64)]) -> OrderStep {
    let terms: Vec<(Vec<i64>, i64)> = terms.iter().map(|(r, d)| (r.to_vec(), *d)).collect();
    OrderStep::Value {
        src: terms.clone(),
        dst: terms,
    }
}

/// The integer points of `dep` with every parameter at 6 and every
/// iterator in `0..=8` (a box around the loop bounds of the SCoPs
/// here), each as its source and destination instance
/// `(iters, params, 1)`.
fn instances(dep: &Dependence) -> Vec<(Vec<i64>, Vec<i64>)> {
    let (ds, n) = (dep.src_depth, dep.src_depth + dep.dst_depth);
    let params = vec![6; dep.poly().num_vars() - n];
    let side = |iters: &[i64]| [iters, &params, &[1]].concat();
    let mut out = Vec::new();
    let mut it = vec![0i64; n];
    loop {
        let x = side(&it);
        let holds = dep.poly().iter().all(|(kind, row)| {
            let v: i64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            match kind {
                RowKind::Eq => v == 0,
                RowKind::Ineq => v >= 0,
            }
        });
        if holds {
            out.push((side(&it[..ds]), side(&it[ds..])));
        }
        let Some(k) = it.iter().position(|&v| v < 8) else {
            return out;
        };
        it[..k].fill(0);
        it[k] += 1;
    }
}

/// The values of `step` at a source and a destination instance.
fn values(step: &OrderStep, src: &[i64], dst: &[i64]) -> (i64, i64) {
    let at = |terms: &[(Vec<i64>, i64)], x: &[i64]| -> i64 {
        (terms.iter())
            .map(|(row, div)| {
                row.iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum::<i64>()
                    .div_euclid(*div)
            })
            .sum()
    };
    match step {
        OrderStep::Value { src: s, dst: d } => (at(s, src), at(d, dst)),
        OrderStep::Position { src: s, dst: d } => (*s, *d),
    }
}

/// Asks the certifier, the wrapper and the reference whether `steps`
/// order `dep` (they must agree), and holds each step the reference
/// calls coincident given the ones before it to the instances: no pair
/// equal on every earlier step differs on it. Returns how many steps
/// the reference called coincident.
fn assert_steps_agree(
    certifier: &mut Certifier<'_>,
    e: usize,
    dep: &Dependence,
    steps: &[OrderStep],
) -> usize {
    let want = reference::steps_respect(dep, steps);
    assert_eq!(certifier.steps_respect(e, steps), want, "{steps:?}");
    assert_eq!(steps_respect_dependence(dep, steps), want, "{steps:?}");
    let points = instances(dep);
    assert!(!points.is_empty(), "{dep:?}");
    let coincident: Vec<usize> = (0..steps.len())
        .filter(|&j| reference::step_coincident(dep, &steps[..j], &steps[j]))
        .collect();
    for &j in &coincident {
        for (s, d) in &points {
            let differs = |step| {
                let (a, b) = values(step, s, d);
                a != b
            };
            assert!(
                steps[..j].iter().any(differs) || !differs(&steps[j]),
                "step {j} of {steps:?} is not coincident at {s:?} → {d:?}"
            );
        }
    }
    coincident.len()
}

#[test]
fn step_walks_match_the_from_scratch_oracle() {
    let scop = jacobi();
    let deps = analyze(&scop);
    let mut certifier = Certifier::new(&deps);
    // Rows over (t, i, T, N, 1).
    let t: &[i64] = &[1, 0, 0, 0, 0];
    let i: &[i64] = &[0, 1, 0, 0, 0];
    let skew: &[i64] = &[1, 1, 0, 0, 0];
    let back: &[i64] = &[-1, 0, 0, 0, 0];
    let sequences: Vec<Vec<OrderStep>> = vec![
        // The source order, the skewed order, an illegal interchange
        // and a reversed time loop.
        vec![member(&[(t, 1)]), member(&[(i, 1)])],
        vec![member(&[(t, 1)]), member(&[(skew, 1)])],
        vec![member(&[(i, 1)]), member(&[(t, 1)])],
        vec![member(&[(back, 1)]), member(&[(i, 1)])],
        // Tiled: legal on the skewed band, illegal on (t, i) itself
        // (i's tile member runs backwards for the i + 1 read).
        vec![
            member(&[(t, 4)]),
            member(&[(skew, 4)]),
            member(&[(t, 1)]),
            member(&[(skew, 1)]),
        ],
        vec![
            member(&[(t, 4)]),
            member(&[(i, 4)]),
            member(&[(t, 1)]),
            member(&[(i, 1)]),
        ],
        // Wavefront over the tile band: the outer member sums both
        // floors and shares their auxiliary variables.
        vec![
            member(&[(t, 4), (skew, 4)]),
            member(&[(skew, 4)]),
            member(&[(t, 1)]),
            member(&[(skew, 1)]),
        ],
        // Different sizes per member, and a size of one.
        vec![
            member(&[(t, 8)]),
            member(&[(skew, 3)]),
            member(&[(t, 1)]),
            member(&[(skew, 1)]),
        ],
        // A sequence position in the middle, either way and tied.
        vec![
            member(&[(t, 1)]),
            OrderStep::Position { src: 0, dst: 1 },
            member(&[(back, 1)]),
        ],
        vec![member(&[(t, 1)]), OrderStep::Position { src: 1, dst: 0 }],
        vec![
            OrderStep::Position { src: 2, dst: 2 },
            member(&[(t, 1)]),
            member(&[(i, 1)]),
        ],
        // Nothing ordered at all.
        vec![],
        vec![member(&[(&[0, 0, 0, 0, 7], 1)])],
    ];
    let (mut verdicts, mut coincident, mut steps_asked) = (Vec::new(), 0, 0);
    for (e, dep) in deps.iter().enumerate() {
        for steps in &sequences {
            coincident += assert_steps_agree(&mut certifier, e, dep, steps);
            steps_asked += steps.len();
            verdicts.push(certifier.steps_respect(e, steps));
        }
    }
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
    assert!(0 < coincident && coincident < steps_asked, "{coincident}");
    // Unpaired sides (a source and a destination statement tiled with
    // different sizes) take the floor-box encoding.
    let scop = producer_consumer();
    let deps = analyze(&scop);
    let mut certifier = Certifier::new(&deps);
    let row: &[i64] = &[1, 0, 0]; // i over (i, N, 1)
    for (e, dep) in deps.iter().enumerate() {
        for (ds, dd) in [(4, 4), (4, 2), (2, 4), (1, 3)] {
            let steps = vec![
                OrderStep::Value {
                    src: vec![(row.to_vec(), ds)],
                    dst: vec![(row.to_vec(), dd)],
                },
                OrderStep::Position { src: 0, dst: 1 },
            ];
            assert_steps_agree(&mut certifier, e, dep, &steps);
        }
        let rows = [vec![1, 0, 0], vec![0, 0, 0]];
        let flat = (
            [rows[0].clone()],
            [rows[1].clone()],
            [rows[0].clone(), rows[1].clone()],
        );
        for (src, dst) in [
            (&flat.0[..], &flat.0[..]),
            (&flat.0, &flat.1),
            (&flat.2, &flat.2),
        ] {
            let want = reference::schedule_respects(dep, src, dst);
            assert_eq!(certifier.schedule_respects(e, src, dst), want);
            assert_eq!(lone(dep).schedule_respects(0, src, dst), want);
        }
    }
}

#[test]
fn affine_and_sequence_steps_are_coincident_as_their_rows_say() {
    let dep = &chain();
    let step = |row: &[i64]| member(&[(row, 1)]);
    // φ = i carries the chain; φ = 7 does not move.
    assert!(!reference::step_coincident(dep, &[], &step(&[1, 0, 0])));
    assert!(reference::step_coincident(dep, &[], &step(&[0, 0, 7])));
    // A separating prefix makes every conditioned property vacuous.
    assert!(reference::step_coincident(
        dep,
        &[OrderStep::Position { src: 0, dst: 1 }],
        &step(&[-1, 0, 0])
    ));
}

#[test]
fn tile_steps_follow_the_floors() {
    let dep = &chain();
    let tile = member(&[(&[1, 0, 0], 4)]);
    let point = member(&[(&[1, 0, 0], 1)]);
    // ⌊i/4⌋ is not coincident (tile-crossing pairs exist), but the full
    // (tile, point) order is respected.
    assert!(!reference::step_coincident(dep, &[], &tile));
    let steps = [tile, point];
    assert!(steps_respect_dependence(dep, &steps));
    assert!(reference::steps_respect(dep, &steps));
}

#[test]
fn wavefront_of_tiles_exposes_coincidence() {
    // jacobi under the skewed schedule (t, t + i): tile members
    // q0 = ⌊t/4⌋, q1 = ⌊(t + i)/4⌋. Neither is coincident alone, but
    // given the wavefronted outer member q0 + q1 equal, q1 is (the
    // classic tile-wavefront win).
    let deps = analyze(&jacobi());
    assert!(!deps.is_empty());
    // Rows over (t, i, T, N, 1).
    let t: &[i64] = &[1, 0, 0, 0, 0];
    let skew: &[i64] = &[1, 1, 0, 0, 0];
    let q1 = member(&[(skew, 4)]);
    let wave = member(&[(t, 4), (skew, 4)]);
    for dep in &deps {
        assert!(
            !reference::step_coincident(dep, &[], &q1),
            "q1 alone crosses tiles"
        );
        assert!(
            reference::step_coincident(dep, std::slice::from_ref(&wave), &q1),
            "q1 is coincident under the wavefront"
        );
    }
}

/// [`ilp_minimize`] of `Δ` over `dep`'s polyhedron: a clone, a
/// normalize, a build and a search.
fn cold_min_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> Option<i64> {
    let delta = distance_row(dep, src_row, dst_row);
    let (obj, constant) = delta.split_at(delta.len() - 1);
    match ilp_minimize(dep.poly(), obj) {
        Ok(IlpOutcome::Optimal { value, .. }) => value.checked_add(constant[0]),
        _ => None,
    }
}

#[test]
fn min_distance_is_ilp_minimize_on_the_analysis_tableau() {
    let mut asked = 0;
    for (name, scop) in polytops_workloads::all_kernels() {
        let deps = analyze(&scop);
        let mut certifier = Certifier::new(&deps);
        for (e, dep) in deps.iter().enumerate() {
            for (s, d) in &small_row_pairs(dep) {
                let want = cold_min_distance(dep, s, d);
                assert_eq!(
                    certifier.min_distance(e, s, d),
                    want,
                    "{name} dep {e}, {s:?} / {d:?}"
                );
                asked += 1;
            }
        }
    }
    assert!(asked > 1000, "{asked}");
}

// ---------------------------------------------------------------------
// The analysis tableau against the cold rebuild.
// ---------------------------------------------------------------------

/// Strided subscripts in two bounded nests: the emptiness test of
/// some of their dependence polyhedra starts from a fractional vertex
/// and branches, so a tableau kept after that search instead of before
/// it has lost a part of the polyhedron.
fn strided() -> Scop {
    let mut b = ScopBuilder::new("strided");
    let a = b.array("A", &[Aff::val(64)], 8);
    b.open_loop("i", Aff::val(0), Aff::val(9));
    b.open_loop("j", Aff::val(0), Aff::val(9));
    b.stmt("S0")
        .read(a, &[Aff::var("i") * 3 + Aff::var("j") * 2 + 1])
        .write(a, &[Aff::var("i") * 2 + Aff::var("j") * 5 + 3])
        .add(&mut b);
    b.close_loop();
    b.close_loop();
    b.open_loop("i", Aff::val(0), Aff::val(9));
    b.stmt("S1")
        .read(a, &[Aff::var("i") * 7 + 2])
        .write(a, &[Aff::var("i") * 4 + 1])
        .add(&mut b);
    b.close_loop();
    b.build().unwrap()
}

/// Every dependence of the reference kernels, `long_chain(16)`,
/// `wide_scop(8)` and [`strided`], analyzed once.
fn fixed_pool() -> &'static [Dependence] {
    static POOL: OnceLock<Vec<Dependence>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut scops: Vec<Scop> = (polytops_workloads::all_kernels().into_iter())
            .map(|(_, scop)| scop)
            .collect();
        scops.extend([long_chain(16), wide_scop(8), strided()]);
        scops.iter().flat_map(analyze).collect()
    })
}

/// A seeded offset chain's shape: 2–5 statements, each with two read
/// offsets and a lower bound in `0..4`, as in the churn stream.
fn chain_shape() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    collection::vec((0i64..4, 0i64..4, 0i64..4), 2..6)
}

/// One dependence of the fixed pool and one of the seeded chain, both
/// picked by `pick`.
fn case_deps(pick: usize, shape: &[(i64, i64, i64)]) -> Vec<Dependence> {
    let pool = fixed_pool();
    let chain = analyze(&offset_chain(shape));
    assert!(!chain.is_empty(), "a chain has flow dependences");
    vec![
        pool[pick % pool.len()].clone(),
        chain[pick % chain.len()].clone(),
    ]
}

/// A row over `width` columns, drawn from `coeffs` (entries in
/// [−2, 2]) starting at `at`.
fn row_from(coeffs: &[i64], at: usize, width: usize) -> Vec<i64> {
    (0..width)
        .map(|k| coeffs[(at + k) % coeffs.len()])
        .collect()
}

/// Source and destination row `k` of a case, over `dep`'s statements.
fn case_rows(dep: &Dependence, coeffs: &[i64], k: usize) -> (Vec<i64>, Vec<i64>) {
    let np = dep.poly().num_vars() - dep.src_depth - dep.dst_depth;
    let (ws, wd) = (dep.src_depth + np + 1, dep.dst_depth + np + 1);
    (
        row_from(coeffs, 11 * k, ws),
        row_from(coeffs, 11 * k + 5, wd),
    )
}

/// Every question the properties ask of one dependence, answered by
/// `certifier` about `deps[e]`.
fn answers(
    certifier: &mut Certifier<'_>,
    e: usize,
    coeffs: &[i64],
    div: i64,
    pos: (i64, i64),
) -> Vec<Option<i64>> {
    let dep = &certifier.deps()[e];
    let (s0, d0) = case_rows(dep, coeffs, 0);
    let (s1, d1) = case_rows(dep, coeffs, 1);
    let steps = case_steps(dep, coeffs, div, pos);
    let flag = |b: bool| Some(i64::from(b));
    vec![
        flag(certifier.strongly_satisfies(e, &s0, &d0)),
        flag(certifier.zero_distance(e, &s0, &d0)),
        flag(certifier.respects(e, &s0, &d0)),
        flag(certifier.schedule_respects(e, &[s0.clone(), s1.clone()], &[d0.clone(), d1.clone()])),
        flag(certifier.steps_respect(e, &steps)),
        certifier.min_distance(e, &s0, &d0),
    ]
}

/// The same questions, asked of the reference's cold rebuild.
fn reference_answers(
    dep: &Dependence,
    coeffs: &[i64],
    div: i64,
    pos: (i64, i64),
) -> Vec<Option<i64>> {
    let (s0, d0) = case_rows(dep, coeffs, 0);
    let (s1, d1) = case_rows(dep, coeffs, 1);
    let steps = case_steps(dep, coeffs, div, pos);
    let flag = |b: bool| Some(i64::from(b));
    vec![
        flag(reference::strongly_satisfies(dep, &s0, &d0)),
        flag(reference::zero_distance(dep, &s0, &d0)),
        flag(reference::respects(dep, &s0, &d0)),
        flag(reference::schedule_respects(
            dep,
            &[s0.clone(), s1.clone()],
            &[d0.clone(), d1.clone()],
        )),
        flag(reference::steps_respect(dep, &steps)),
        cold_min_distance(dep, &s0, &d0),
    ]
}

/// A tile member of divisor `div` on rows 2, a sequence position pair,
/// and a point member on rows 3.
fn case_steps(dep: &Dependence, coeffs: &[i64], div: i64, pos: (i64, i64)) -> Vec<OrderStep> {
    let (s2, d2) = case_rows(dep, coeffs, 2);
    let (s3, d3) = case_rows(dep, coeffs, 3);
    vec![
        OrderStep::Value {
            src: vec![(s2, div)],
            dst: vec![(d2, div)],
        },
        OrderStep::Position {
            src: pos.0,
            dst: pos.1,
        },
        OrderStep::Value {
            src: vec![(s3, 1)],
            dst: vec![(d3, 1)],
        },
    ]
}

proptest! {
    #[test]
    fn the_analysis_tableau_answers_as_the_cold_rebuild(
        pick in 0usize..1 << 16,
        shape in chain_shape(),
        coeffs in collection::vec(-2i64..=2, 48),
        div in 1i64..=4,
        pos in (0i64..2, 0i64..2),
    ) {
        let deps = case_deps(pick, &shape);
        // One certifier for both: nothing it keeps may leak from one
        // dependence's answers into the other's.
        let mut certifier = Certifier::new(&deps);
        for (e, dep) in deps.iter().enumerate() {
            let got = answers(&mut certifier, e, &coeffs, div, pos);
            let want = reference_answers(dep, &coeffs, div, pos);
            prop_assert!(got == want, "{dep:?}: {got:?} against {want:?}");
        }
    }

    #[test]
    fn a_cloned_dependence_answers_alike_from_two_threads(
        pick in 0usize..1 << 16,
        shape in chain_shape(),
        coeffs in collection::vec(-2i64..=2, 48),
        div in 1i64..=4,
        pos in (0i64..2, 0i64..2),
    ) {
        let deps = case_deps(pick, &shape);
        let alone: Vec<Vec<Option<i64>>> = {
            let mut certifier = Certifier::new(&deps);
            (0..deps.len()).map(|e| answers(&mut certifier, e, &coeffs, div, pos)).collect()
        };
        // Two clones share each tableau; their certifiers ask it at once.
        let (a, b) = (deps.clone(), deps.clone());
        let ask = |deps: &[Dependence]| {
            let mut certifier = Certifier::new(deps);
            (0..deps.len())
                .map(|e| answers(&mut certifier, e, &coeffs, div, pos))
                .collect::<Vec<_>>()
        };
        let (ta, tb) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| ask(&a));
            let tb = scope.spawn(|| ask(&b));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        prop_assert_eq!(&ta, &alone);
        prop_assert_eq!(&tb, &alone);
    }

    #[test]
    fn a_second_normalize_of_a_seeded_chain_changes_no_row(shape in chain_shape()) {
        for dep in analyze(&offset_chain(&shape)) {
            let mut again = dep.poly().clone();
            prop_assert!(again.normalize());
            prop_assert_eq!(&again, dep.poly());
        }
    }
}

/// The reference kernels and the long chains, each with its analysis.
fn class_pool() -> &'static [(Scop, Vec<Dependence>)] {
    static POOL: OnceLock<Vec<(Scop, Vec<Dependence>)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut scops: Vec<Scop> = (polytops_workloads::all_kernels().into_iter())
            .map(|(_, scop)| scop)
            .collect();
        scops.extend([8, 12, 16].map(long_chain));
        (scops.into_iter())
            .map(|scop| {
                let deps = analyze(&scop);
                (scop, deps)
            })
            .collect()
    })
}

/// Per statement of `scop`, its `k`-th row drawn from `coeffs`: the
/// rows of one schedule dimension, so that the dependences of one
/// (source, target, polyhedron) class are asked one question.
fn stmt_rows(scop: &Scop, coeffs: &[i64], k: usize) -> Vec<Vec<i64>> {
    let np = scop.nparams();
    (scop.statements.iter().enumerate())
        .map(|(s, stmt)| row_from(coeffs, 11 * k + 3 * s, stmt.depth() + np + 1))
        .collect()
}

/// The row questions of the engine and post-processing about
/// `deps[e]`, over one schedule dimension's `rows`.
fn row_answers(certifier: &mut Certifier<'_>, e: usize, rows: &[Vec<i64>]) -> [bool; 3] {
    let dep = &certifier.deps()[e];
    let (s, d) = (&rows[dep.src.0], &rows[dep.dst.0]);
    [
        certifier.strongly_satisfies(e, s, d),
        certifier.zero_distance(e, s, d),
        certifier.respects(e, s, d),
    ]
}

/// One certifier over `deps`, every dependence of `scop` (dependences
/// with one polyhedron share its answers), answers each row question
/// — asked twice — and each flat schedule's certification as a fresh
/// one-dependence certifier per dependence does.
fn assert_one_answer_per_polyhedron(
    scop: &Scop,
    deps: &[Dependence],
    coeffs: &[i64],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut shared = Certifier::new(deps);
    let dims: Vec<Vec<Vec<i64>>> = (0..2).map(|k| stmt_rows(scop, coeffs, k)).collect();
    for rows in &dims {
        for (e, dep) in deps.iter().enumerate() {
            let alone = row_answers(&mut Certifier::new(std::slice::from_ref(dep)), 0, rows);
            for _ in 0..2 {
                let got = row_answers(&mut shared, e, rows);
                prop_assert!(got == alone, "{} dependence {e}", scop.name);
            }
        }
    }
    // The identity, a random two-dimensional schedule, and the identity
    // behind a random first row.
    let np = scop.nparams();
    let identity = Schedule::identity_2dp1(scop);
    let schedule = |first: &[Vec<Vec<i64>>], rest: Option<&Schedule>| {
        let per_stmt: Vec<StmtSchedule> = (scop.statements.iter().enumerate())
            .map(|(s, stmt)| {
                let mut rows = StmtSchedule::new(stmt.depth(), np);
                let tail = rest.map_or(&[][..], |r| r.stmt(stmt.id).rows());
                for row in first.iter().map(|dim| &dim[s]).chain(tail) {
                    rows.push_row(row.clone());
                }
                rows
            })
            .collect();
        let n = per_stmt[0].len();
        Schedule::from_parts(per_stmt, (0..n).collect(), vec![false; n])
    };
    for sched in [
        identity.clone(),
        schedule(&dims, None),
        schedule(&dims[..1], Some(&identity)),
    ] {
        let want = deps.iter().all(|dep| {
            let (src, dst) = (sched.stmt(dep.src), sched.stmt(dep.dst));
            Certifier::new(std::slice::from_ref(dep)).schedule_respects(0, src.rows(), dst.rows())
        });
        prop_assert!(shared.certifies(&sched) == want, "{}", scop.name);
    }
    Ok(())
}

proptest! {
    #[test]
    fn a_certifier_answers_each_polyhedron_as_each_dependence_alone(
        pick in 0usize..1 << 16,
        shape in chain_shape(),
        coeffs in collection::vec(-2i64..=2, 48),
    ) {
        let (scop, deps) = &class_pool()[pick % class_pool().len()];
        assert_one_answer_per_polyhedron(scop, deps, &coeffs)?;
        let chain = offset_chain(&shape);
        assert_one_answer_per_polyhedron(&chain, &analyze(&chain), &coeffs)?;
    }

    #[test]
    fn dependences_of_two_analyses_never_share_a_polyhedron(
        shape in chain_shape(),
        other in chain_shape(),
        coeffs in collection::vec(-2i64..=2, 48),
    ) {
        // Two analyses of one SCoP and one of another, concatenated:
        // equal polyhedra of two analyses are two tableaus, and no
        // position in one analysis names a polyhedron of another.
        let (a, b) = (offset_chain(&shape), offset_chain(&other));
        let parts = [(&a, analyze(&a)), (&a, analyze(&a)), (&b, analyze(&b))];
        for x in &parts[0].1 {
            for y in &parts[0].1 {
                prop_assert_eq!(x.same_polyhedron(y), x.poly() == y.poly());
            }
            prop_assert!(parts[1].1.iter().all(|y| !x.same_polyhedron(y)));
        }
        let all: Vec<Dependence> = parts.iter().flat_map(|(_, deps)| deps.clone()).collect();
        let scops: Vec<&Scop> = parts.iter().flat_map(|(scop, deps)| deps.iter().map(|_| *scop)).collect();
        let classes = polyhedron_classes(&all);
        prop_assert!(classes.iter().enumerate().all(|(e, &first)| all[first].poly() == all[e].poly()));
        // Two certifiers over the concatenation, the second asking back
        // to front, so that another member asks each class first.
        let (mut forward, mut backward) = (Certifier::new(&all), Certifier::new(&all));
        let alone = |e: usize, rows: &[Vec<i64>]| {
            row_answers(&mut Certifier::new(std::slice::from_ref(&all[e])), 0, rows)
        };
        for k in 0..2 {
            for e in 0..all.len() {
                let rows = stmt_rows(scops[e], &coeffs, k);
                prop_assert!(row_answers(&mut forward, e, &rows) == alone(e, &rows), "dependence {e}");
                let e = all.len() - 1 - e;
                let rows = stmt_rows(scops[e], &coeffs, k);
                prop_assert!(row_answers(&mut backward, e, &rows) == alone(e, &rows), "dependence {e}");
            }
        }
    }
}

#[test]
fn every_dependence_keeps_its_whole_polyhedron() {
    // The least and the greatest value of every coordinate, on the
    // analysis tableau and on a cold rebuild: a tableau kept after the
    // emptiness search, with the bound rows of a branch still in it,
    // would have lost a part of the polyhedron.
    for dep in fixed_pool() {
        let mut certifier = Certifier::new(std::slice::from_ref(dep));
        let np = dep.poly().num_vars() - dep.src_depth - dep.dst_depth;
        let (ws, wd) = (dep.src_depth + np + 1, dep.dst_depth + np + 1);
        let unit = |w: usize, k: usize| (0..w).map(|c| i64::from(c == k)).collect::<Vec<_>>();
        // −x_k over the source side, +x_k over the destination side.
        let pairs = ((0..ws - 1).map(|k| (unit(ws, k), vec![0; wd])))
            .chain((0..wd - 1).map(|k| (vec![0; ws], unit(wd, k))));
        for (s, d) in pairs {
            let negate = |row: &[i64]| row.iter().map(|v| -v).collect::<Vec<_>>();
            for (s, d) in [(negate(&s), negate(&d)), (s, d)] {
                let want = cold_min_distance(dep, &s, &d);
                assert_eq!(
                    certifier.min_distance(0, &s, &d),
                    want,
                    "{dep:?}: {s:?} / {d:?}"
                );
            }
        }
    }
}

#[test]
fn a_second_normalize_of_an_analyzed_polyhedron_changes_no_row() {
    for dep in fixed_pool() {
        let mut again = dep.poly().clone();
        assert!(again.normalize());
        assert_eq!(&again, dep.poly());
    }
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
fn a_dependence_whose_tableau_overflows_is_kept_and_refuses_every_certification() {
    // Subscripts whose dependence polyhedron needs products of
    // near-`i64::MAX` coefficients: no tableau holds it.
    let scop = hostile_scop();
    let deps = analyze(&scop);
    assert!(!deps.is_empty(), "an overflow proves no absence");
    let mut certifier = Certifier::new(&deps);
    // The identity schedule, over (i, j, k, N, 1).
    let rows: Vec<Vec<i64>> = (0..3)
        .map(|k| (0..5).map(|c| i64::from(c == k)).collect())
        .collect();
    let steps: Vec<OrderStep> = rows
        .iter()
        .map(|row| OrderStep::Value {
            src: vec![(row.clone(), 1)],
            dst: vec![(row.clone(), 1)],
        })
        .collect();
    for (e, dep) in deps.iter().enumerate() {
        assert!(!certifier.schedule_respects(e, &rows, &rows), "dep {e}");
        assert!(!reference::schedule_respects(dep, &rows, &rows), "dep {e}");
        assert!(!certifier.steps_respect(e, &steps), "dep {e}");
        assert!(!reference::steps_respect(dep, &steps), "dep {e}");
        for row in &rows {
            assert!(!certifier.respects(e, row, row), "dep {e}");
            assert!(!certifier.strongly_satisfies(e, row, row), "dep {e}");
            assert_eq!(certifier.min_distance(e, row, row), None, "dep {e}");
        }
    }
}
