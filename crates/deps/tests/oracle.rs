//! The [`Certifier`] against the from-scratch oracle of
//! `tests/reference`, on hand-built SCoPs: every affine row with
//! coefficients in {−1, 0, 1} and a family of tiled, wavefronted and
//! sequenced step sequences, each asked both ways. (The kernel × preset
//! × post-processing sweep is `crates/core/tests/certifier.rs`.)

mod reference;

use polytops_deps::{
    analyze, respects, schedule_respects_dependence, step_coincident, steps_respect_dependence,
    strongly_satisfies, zero_distance, Certifier, Dependence, OrderStep,
};
use polytops_ir::{Aff, Scop, ScopBuilder};

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
            let np = dep.poly.num_vars() - dep.src_depth - dep.dst_depth;
            let src_rows = small_rows(dep.src_depth + np + 1);
            let dst_rows = small_rows(dep.dst_depth + np + 1);
            // Same-statement dependences take the same row both sides;
            // cross-statement ones pair every 7th with every 5th.
            let pairs: Vec<(&Vec<i64>, &Vec<i64>)> = if dep.src == dep.dst {
                src_rows.iter().zip(&dst_rows).collect()
            } else {
                let (src, dst) = (src_rows.iter().step_by(7), dst_rows.iter().step_by(5));
                src.flat_map(|s| dst.clone().map(move |d| (s, d))).collect()
            };
            for (s, d) in pairs {
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
                let wrappers = (
                    strongly_satisfies(dep, s, d),
                    zero_distance(dep, s, d),
                    respects(dep, s, d),
                );
                assert_eq!(wrappers, want);
            }
        }
        // The certifier built one tableau per dependence, however many
        // questions that was.
        let stats = certifier.stats();
        assert_eq!(stats.tableau_builds, deps.len() as u64);
        assert!(stats.queries > 10 * stats.tableau_builds, "{stats:?}");
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

fn assert_steps_agree(
    certifier: &mut Certifier<'_>,
    e: usize,
    dep: &Dependence,
    steps: &[OrderStep],
) {
    let want = reference::steps_respect(dep, steps);
    assert_eq!(certifier.steps_respect(e, steps), want, "{steps:?}");
    assert_eq!(steps_respect_dependence(dep, steps), want, "{steps:?}");
    // Coincidence of every step given the ones before it, asked one by
    // one of the reference and in one walk of the certifier.
    let want: Vec<bool> = (0..steps.len())
        .map(|j| reference::step_coincident(dep, &steps[..j], &steps[j]))
        .collect();
    let walk = certifier.walk(e, steps, false, &vec![true; steps.len()]);
    assert_eq!(walk.coincident, want, "{steps:?}");
    for (j, want) in want.iter().enumerate() {
        assert_eq!(step_coincident(dep, &steps[..j], &steps[j]), *want);
    }
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
    let mut verdicts = Vec::new();
    for (e, dep) in deps.iter().enumerate() {
        for steps in &sequences {
            assert_steps_agree(&mut certifier, e, dep, steps);
            verdicts.push(certifier.steps_respect(e, steps));
        }
    }
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
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
            assert_eq!(schedule_respects_dependence(dep, src, dst), want);
        }
    }
}
