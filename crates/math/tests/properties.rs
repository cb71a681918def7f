//! Property-based tests for the exact math kernel.

mod reference;

use std::cmp::Ordering;

use proptest::prelude::*;

use polytops_math::{
    farkas_cone, farkas_nonneg, farkas_substitute, ilp_feasible, ilp_lexmin, ilp_minimize,
    ineq_implied, integral_inverse, lp_feasible, lp_minimize, orthogonal_complement,
    ConstraintSystem, Echelon, IlpOutcome, IlpStats, IncrementalLp, LpOutcome, Rat, RowKind,
    Snapshot,
};
use reference::linalg;

fn small_rat() -> impl Strategy<Value = Rat> {
    (-20i128..=20, 1i128..=9).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #[test]
    fn rat_add_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_mul_distributes(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_sub_then_add_round_trips(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a - b + b, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in small_rat()) {
        let f = Rat::from(a.floor());
        let c = Rat::from(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(c - f <= Rat::ONE);
    }

    #[test]
    fn rat_recip_involutive(a in small_rat().prop_filter("nonzero", |r| !r.is_zero())) {
        prop_assert_eq!(a.recip().recip(), a);
        prop_assert_eq!(a * a.recip(), Rat::ONE);
    }
}

/// Square matrices of order 1–4: in one case of two random entries
/// (mostly singular or with a fractional inverse), in the other a
/// unimodular product `L·U` of triangular matrices with ±1 diagonals.
fn square_matrix() -> impl Strategy<Value = Vec<Vec<i64>>> {
    let entries = || proptest::collection::vec(-3i64..=3, 16);
    ((1usize..=4, 0u8..=1), entries(), entries()).prop_map(|((n, unimodular), a, b)| {
        let square = |f: &dyn Fn(usize, usize) -> i64| -> Vec<Vec<i64>> {
            (0..n).map(|i| (0..n).map(|j| f(i, j)).collect()).collect()
        };
        if unimodular == 0 {
            return square(&|i, j| a[4 * i + j]);
        }
        let lower = |i: usize, k: usize| match k.cmp(&i) {
            Ordering::Less => a[4 * i + k],
            Ordering::Equal if b[4 * i + k] < 0 => -1,
            Ordering::Equal => 1,
            Ordering::Greater => 0,
        };
        let upper = |k: usize, j: usize| {
            if k < j {
                b[4 * k + j]
            } else {
                i64::from(k == j)
            }
        };
        square(&|i, j| (0..n).map(|k| lower(i, k) * upper(k, j)).sum())
    })
}

proptest! {
    #[test]
    fn the_echelon_picks_the_rows_the_rank_test_picks(
        rows in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 3), 0..7),
    ) {
        let mut echelon = Echelon::new(3);
        let mut basis: Vec<Vec<i64>> = Vec::new();
        for row in rows {
            let mut candidate = basis.clone();
            candidate.push(row.clone());
            let independent = linalg::rank(&candidate) == candidate.len();
            prop_assert_eq!(echelon.independent(&row), Ok(independent));
            prop_assert_eq!(echelon.insert(&row), Ok(independent));
            if independent {
                basis = candidate;
            }
            prop_assert_eq!(echelon.rank(), basis.len());
        }
    }

    #[test]
    fn the_complement_is_the_rational_projector(
        (width, count, rows) in (
            1usize..=6,
            0usize..=6,
            proptest::collection::vec(proptest::collection::vec(-4i64..=4, 6), 6),
        ),
    ) {
        // A full-row-rank H: the rows the rational rank test keeps.
        let mut h: Vec<Vec<i64>> = Vec::new();
        for row in rows.iter().take(count.min(width)) {
            let mut candidate = h.clone();
            candidate.push(row[..width].to_vec());
            if linalg::rank(&candidate) == candidate.len() {
                h = candidate;
            }
        }
        let mut echelon = Echelon::new(width);
        for row in &h {
            echelon.insert(row).unwrap();
        }
        prop_assert_eq!(orthogonal_complement(&echelon).unwrap(), linalg::projector(&h, width));
    }

    #[test]
    fn ortho_complement_rows_are_orthogonal(row in proptest::collection::vec(-5i64..=5, 4)) {
        let mut h = Echelon::new(4);
        if h.insert(&row).unwrap() {
            let perp = orthogonal_complement(&h).unwrap();
            for r in &perp {
                let dot: i64 = r.iter().zip(&row).map(|(a, b)| a * b).sum();
                prop_assert_eq!(dot, 0);
            }
            // Complement + original spans the full space.
            for r in &perp {
                h.insert(r).unwrap();
            }
            prop_assert_eq!(h.rank(), 4);
        }
    }

    #[test]
    fn the_integral_inverse_is_the_rational_inverse_when_integral(m in square_matrix()) {
        let expected = linalg::inverse(&m)
            .filter(|inv| inv.iter().flatten().all(|v| v.is_integer()))
            .map(|inv| {
                let int_row = |row: &Vec<Rat>| row.iter().map(|v| v.numer() as i64).collect();
                inv.iter().map(int_row).collect::<Vec<Vec<i64>>>()
            });
        prop_assert_eq!(integral_inverse(&m), Ok(expected));
    }

    #[test]
    fn inverse_round_trips(m in square_matrix()) {
        if let Some(inv) = integral_inverse(&m).unwrap() {
            let n = m.len();
            let entry = |i: usize, j: usize| -> i64 { (0..n).map(|k| m[i][k] * inv[k][j]).sum() };
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                prop_assert_eq!(entry(i, j), i64::from(i == j));
            }
        }
    }
}

/// Generates a random non-empty box plus extra random inequality rows.
fn boxed_system() -> impl Strategy<Value = (ConstraintSystem, Vec<(i64, i64)>)> {
    let bounds = proptest::collection::vec((-4i64..=0, 0i64..=4), 3);
    (
        bounds,
        proptest::collection::vec(proptest::collection::vec(-2i64..=2, 4), 0..3),
    )
        .prop_map(|(bounds, extra)| {
            let n = bounds.len();
            let mut cs = ConstraintSystem::new(n);
            for (j, &(lo, hi)) in bounds.iter().enumerate() {
                let mut row = vec![0i64; n + 1];
                row[j] = 1;
                row[n] = -lo;
                cs.add_ineq(row);
                let mut row = vec![0i64; n + 1];
                row[j] = -1;
                row[n] = hi;
                cs.add_ineq(row);
            }
            for r in extra {
                cs.add_ineq(r);
            }
            (cs, bounds)
        })
}

/// `obj · x == value` as the integer row `d·obj·x − n == 0`.
fn value_row(obj: &[i64], value: Rat) -> Vec<i64> {
    let (n, d) = (value.numer() as i64, value.denom() as i64);
    let mut row: Vec<i64> = obj.iter().map(|c| c * d).collect();
    row.push(-n);
    row
}

/// Enumerates the integer points of the box and filters by the system.
fn brute_points(cs: &ConstraintSystem, bounds: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let (l0, h0) = bounds[0];
    let (l1, h1) = bounds[1];
    let (l2, h2) = bounds[2];
    for x in l0..=h0 {
        for y in l1..=h1 {
            for z in l2..=h2 {
                let p = vec![x, y, z];
                if cs.contains_point(&p) {
                    out.push(p);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ilp_feasibility_matches_brute_force((cs, bounds) in boxed_system()) {
        let pts = brute_points(&cs, &bounds);
        prop_assert_eq!(ilp_feasible(&cs), !pts.is_empty());
    }

    #[test]
    fn ilp_min_matches_brute_force((cs, bounds) in boxed_system(), obj in proptest::collection::vec(-3i64..=3, 3)) {
        let pts = brute_points(&cs, &bounds);
        let brute = pts
            .iter()
            .map(|p| p.iter().zip(&obj).map(|(a, b)| a * b).sum::<i64>())
            .min();
        match (ilp_minimize(&cs, &obj).unwrap(), brute) {
            (IlpOutcome::Optimal { value, point }, Some(bv)) => {
                prop_assert_eq!(value, bv);
                prop_assert!(cs.contains_point(&point));
            }
            (IlpOutcome::Infeasible, None) => {}
            (got, want) => prop_assert!(false, "solver {:?} vs brute {:?}", got, want),
        }
    }

    #[test]
    fn lexmin_matches_brute_force((cs, bounds) in boxed_system()) {
        let pts = brute_points(&cs, &bounds);
        let objs: Vec<Vec<i64>> = vec![
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![0, 0, 1],
        ];
        let got = ilp_lexmin(&cs, &objs, &mut IlpStats::default()).unwrap();
        let want = pts.iter().min().cloned();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lp_value_bounds_ilp_value((cs, bounds) in boxed_system(), obj in proptest::collection::vec(-3i64..=3, 3)) {
        let pts = brute_points(&cs, &bounds);
        if let (LpOutcome::Optimal { value, .. }, Some(bv)) = (
            lp_minimize(&cs, &obj).unwrap(),
            pts.iter()
                .map(|p| p.iter().zip(&obj).map(|(a, b)| a * b).sum::<i64>())
                .min(),
        ) {
            prop_assert!(value <= Rat::from(bv), "LP relaxation must lower-bound ILP");
        }
    }

    #[test]
    fn dual_pins_track_the_accumulated_system_without_phase1(
        (cs, _bounds) in boxed_system(),
        objs in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 3), 1..5),
    ) {
        // minimize → pin the optimum → minimize the next objective, on
        // one tableau, against a cold solve of the system with every pin
        // appended as an equality row.
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let mut acc = cs.clone();
        if lp.is_feasible() {
            for obj in &objs {
                let (stage, cold) = (lp.minimize(obj).unwrap(), lp_minimize(&acc, obj).unwrap());
                let (LpOutcome::Optimal { value, .. }, LpOutcome::Optimal { value: cold, .. }) =
                    (&stage, &cold)
                else {
                    panic!("a feasible boxed stage is bounded: {stage:?} vs {cold:?}");
                };
                prop_assert_eq!(value, cold);
                let row = value_row(obj, *value);
                prop_assert!(lp.pin_eq(&row).unwrap(), "pinning an attained optimum cannot fail");
                acc.add_eq(row);
            }
        }
    }

    #[test]
    fn fm_elimination_is_sound_and_complete((cs, bounds) in boxed_system()) {
        // Soundness: every point of cs projects into the eliminated system.
        // Completeness (rational shadow): projection contains no integer
        // point whose fiber is rationally empty — we check the weaker but
        // exact property that projections of actual points are accepted.
        let proj = cs.eliminate_var(2).unwrap();
        for p in brute_points(&cs, &bounds) {
            prop_assert!(proj.contains_point(&p[..2]), "projection lost {:?}", p);
        }
    }
}

/// [`boxed_system`] with rows `normalize` has something to do with:
/// equalities, a row beside a multiple of it, a row beside itself under
/// another constant, coefficients with a common factor, constant rows.
fn redundant_system() -> impl Strategy<Value = (ConstraintSystem, Vec<(i64, i64)>)> {
    let row = (proptest::collection::vec(-4i64..=4, 4), 0u8..5, 1i64..=3);
    (boxed_system(), proptest::collection::vec(row, 0..5)).prop_map(|((mut cs, bounds), rows)| {
        for (r, kind, k) in rows {
            match kind {
                0 => cs.add_eq(r),
                1 => {
                    cs.add_ineq(r.clone());
                    cs.add_ineq(r.iter().map(|v| v * k).collect());
                }
                2 => {
                    cs.add_ineq(r.clone());
                    cs.add_ineq(vec![r[0], r[1], r[2], r[3] - k]);
                }
                3 => cs.add_ineq(vec![0, 0, 0, r[3]]),
                _ => cs.add_ineq(r),
            }
        }
        (cs, bounds)
    })
}

proptest! {
    #[test]
    fn normalize_keeps_the_integer_points_and_is_idempotent((cs, bounds) in redundant_system()) {
        let points = brute_points(&cs, &bounds);
        for tighten in [true, false] {
            let mut once = cs.clone();
            let held = if tighten { once.normalize() } else { once.normalize_rational() };
            prop_assert_eq!(&brute_points(&once, &bounds), &points);
            if held {
                prop_assert!(once.len() <= cs.len());
                let mut twice = once.clone();
                prop_assert!(if tighten { twice.normalize() } else { twice.normalize_rational() });
                prop_assert_eq!(&twice, &once);
            } else {
                // What is left is the row that no point satisfies.
                prop_assert!(once.len() == 1 && points.is_empty(), "{:?}", once);
            }
        }
    }
}

/// What `normalize` returned for `cs`, and the rows it left.
fn normalized(mut cs: ConstraintSystem) -> (bool, Vec<(RowKind, Vec<i64>)>) {
    (cs.normalize(), cs.rows().to_vec())
}

#[test]
fn normalize_keeps_first_occurrences_in_order_and_tightens_them_in_place() {
    let mut cs = ConstraintSystem::new(2);
    cs.add_ineq(vec![1, 0, 5]); // 0: first of its coefficients
    cs.add_eq(vec![1, 1, -2]); // 1
    cs.add_ineq(vec![0, 1, 0]); // 2
    cs.add_ineq(vec![2, 0, 7]); // x >= -7/2, i.e. x + 3 >= 0: tightens 0
    cs.add_ineq(vec![0, 0, 4]); // trivially true: dropped
    cs.add_eq(vec![2, 2, -4]); // row 1 again
    cs.add_ineq(vec![1, 0, 4]); // looser than what 0 has become
    cs.add_ineq(vec![0, 1, 0]); // row 2 again
    cs.add_eq(vec![1, 1, -3]); // 3: row 1's coefficients, another constant
    cs.add_ineq(vec![1, 1, -2]); // 4: row 1's numbers, another kind
    let want = vec![
        (RowKind::Ineq, vec![1, 0, 3]),
        (RowKind::Eq, vec![1, 1, -2]),
        (RowKind::Ineq, vec![0, 1, 0]),
        (RowKind::Eq, vec![1, 1, -3]),
        (RowKind::Ineq, vec![1, 1, -2]),
    ];
    assert_eq!(normalized(cs), (true, want));
}

#[test]
fn normalize_stops_at_the_first_row_nothing_satisfies_and_keeps_it() {
    // A witness behind a row that is fine and before one that is a
    // witness too.
    let around = |kind: RowKind, row: &[i64]| {
        let mut cs = ConstraintSystem::new(2);
        cs.add_ineq(vec![1, 0, 0]);
        match kind {
            RowKind::Eq => cs.add_eq(row.to_vec()),
            RowKind::Ineq => cs.add_ineq(row.to_vec()),
        }
        cs.add_ineq(vec![0, 0, -9]);
        cs
    };
    // 0 == 3, 0 >= −1, and 2x + 4y == 3 over the integers.
    let witnesses = [
        (RowKind::Eq, [0, 0, 3]),
        (RowKind::Ineq, [0, 0, -1]),
        (RowKind::Eq, [2, 4, 3]),
    ];
    for (kind, row) in witnesses {
        let want = vec![(kind, row.to_vec())];
        assert_eq!(normalized(around(kind, &row)), (false, want));
    }
    // The rationals satisfy 2x + 4y == 3: there the witness is the row
    // behind it.
    let mut loose = around(RowKind::Eq, &[2, 4, 3]);
    assert!(!loose.normalize_rational());
    assert_eq!(loose.rows(), [(RowKind::Ineq, vec![0, 0, -9])]);
}

/// One step of a live-tableau session: what to do, and the row to do it
/// with (`a·x + c`, four entries).
fn session() -> impl Strategy<Value = Vec<(u8, Vec<i64>)>> {
    proptest::collection::vec((0u8..6, proptest::collection::vec(-3i64..=3, 4)), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_live_tableau_answers_as_the_system_it_stands_for(
        (cs, bounds) in boxed_system(),
        ops in session(),
    ) {
        // Rows are pushed onto, pinned into and rolled back off one
        // tableau, with the system it must stand for kept beside it;
        // after every step the integer-feasibility question and an
        // implication question are asked three ways: of the tableau, of
        // the one-question wrapper on the materialized system, and (the
        // first) by enumerating the box.
        // (`normalize` leaves its witness behind when an extra row is a
        // constant contradiction, and the tableau of that is empty too.)
        let mut base = cs.clone();
        base.normalize();
        let mut lp = IncrementalLp::new(&base).unwrap();
        let mut acc = cs.clone();
        let mut saved: Vec<(Snapshot, ConstraintSystem)> = Vec::new();
        for (kind, row) in ops {
            match kind {
                0 | 1 => {
                    let held = lp.push_int_ineq(&row).unwrap();
                    acc.add_ineq(row.clone());
                    prop_assert_eq!(held, lp.is_feasible());
                }
                2 => {
                    let held = lp.pin_int_eq(&row).unwrap();
                    acc.add_eq(row.clone());
                    prop_assert_eq!(held, lp.is_feasible());
                }
                3 | 4 => saved.push((lp.snapshot(), acc.clone())),
                _ => {
                    if let Some((snapshot, system)) = saved.pop() {
                        lp.rollback(snapshot);
                        acc = system;
                    }
                }
            }
            let points = brute_points(&acc, &bounds);
            if !lp.is_feasible() {
                prop_assert!(points.is_empty(), "an empty relaxation has no integer point");
            }
            let before = lp.snapshot();
            let mut nodes = 0;
            let got = lp.may_have_integer_point(&mut nodes);
            lp.rollback(before);
            prop_assert!(got != points.is_empty(), "{:?}", acc);
            prop_assert_eq!(got, ilp_feasible(&acc));
            // A question after a rollback is a question of a fresh
            // tableau: the same answer again.
            let mut fresh = acc.clone();
            let fresh = if fresh.normalize() { IncrementalLp::new(&fresh).ok() } else { None };
            if let Some(mut fresh) = fresh {
                let mut fresh_nodes = 0;
                prop_assert_eq!(fresh.may_have_integer_point(&mut fresh_nodes), got);
            }
            // Implication is over the rationals of what was pushed:
            // the rows as tightened, which `normalize` reproduces.
            let mut tight = acc.clone();
            if tight.normalize() {
                let before = lp.snapshot();
                prop_assert!(lp.implies(&row) == ineq_implied(&tight, &row), "{:?}", tight);
                lp.rollback(before);
            }
        }
    }

    #[test]
    fn a_dropped_inequality_leaves_the_rest(
        (cs, _bounds) in boxed_system(),
        which in 0usize..6,
        probe in proptest::collection::vec(-3i64..=3, 4),
    ) {
        // Taking a row of the box out of the live tableau must leave
        // the tableau of the system without it: same feasibility, same
        // answer to any implication question, the row's own included.
        let mut lp = IncrementalLp::new(&cs).unwrap();
        if lp.is_feasible() {
            lp.drop_ineq(which).unwrap();
            let mut rest = ConstraintSystem::new(cs.num_vars());
            let mut taken = None;
            for (k, (_, row)) in cs.iter().enumerate() {
                if k == which {
                    taken = Some(row.to_vec());
                } else {
                    rest.add_ineq(row.to_vec());
                }
            }
            prop_assert!(lp.is_feasible());
            for row in [probe, taken.expect("a box has six rows")] {
                prop_assert!(lp.implies(&row) == ineq_implied(&rest, &row), "{:?}", rest);
            }
        }
    }
}

/// A wider family than [`boxed_system`] for the differential tests: 1–6
/// variables, coefficients to ±50, inequalities and equalities, some
/// rows repeated or scaled (redundant), one system in three unboxed —
/// so infeasible, unbounded and optimal outcomes all come up often.
fn wide_system() -> impl Strategy<Value = (ConstraintSystem, Vec<i64>)> {
    // Half the coefficients zero, a third small, a sixth up to ±50;
    // rows and objective are drawn at six variables and cut to `n`.
    let coeff = (0u8..6, -3i64..=3, -50i64..=50).prop_map(|(pick, small, big)| match pick {
        0..=2 => 0,
        3..=4 => small,
        _ => big,
    });
    let row = (proptest::collection::vec(coeff, 7), 0u8..4, 1i64..=3);
    (
        (1usize..=6, 0i64..=30),
        proptest::collection::vec(row, 1..7),
        proptest::collection::vec(-5i64..=5, 6),
    )
        .prop_map(|((n, bound), rows, mut obj)| {
            let mut cs = ConstraintSystem::new(n);
            // Two systems in three sit in the box [-bound, bound]^n.
            for j in (0..n).filter(|_| bound % 3 != 0) {
                for sign in [1, -1] {
                    let mut row = vec![0i64; n + 1];
                    (row[j], row[n]) = (sign, bound);
                    cs.add_ineq(row);
                }
            }
            for (mut r, kind, k) in rows {
                r.drain(n..6); // keep the constant
                match kind {
                    0 => cs.add_eq(r),
                    1 => {
                        // The row, and a multiple of it.
                        cs.add_ineq(r.clone());
                        cs.add_ineq(r.iter().map(|v| v * k).collect());
                    }
                    _ => cs.add_ineq(r),
                }
            }
            obj.truncate(n);
            (cs, obj)
        })
}

/// The point a solve returned lies in `cs` and attains `value`.
fn attains(cs: &ConstraintSystem, obj: &[i64], value: Rat, point: &[Rat]) -> bool {
    let dot = |row: &[i64]| {
        let terms = row.iter().zip(point).map(|(&a, &x)| Rat::from(a) * x);
        terms.fold(Rat::ZERO, |acc, t| acc + t)
    };
    let n = cs.num_vars();
    dot(obj) == value
        && cs.iter().all(|(kind, row)| {
            let lhs = dot(&row[..n]) + Rat::from(row[n]);
            match kind {
                RowKind::Eq => lhs.is_zero(),
                RowKind::Ineq => !lhs.is_negative(),
            }
        })
}

/// What a solve must share with the reference whatever its pivots were:
/// the verdict and the optimal value. The vertex is the solver's own,
/// and is checked against `cs` instead.
fn same_answer(
    cs: &ConstraintSystem,
    obj: &[i64],
    got: &LpOutcome,
    want: &LpOutcome,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match (got, want) {
        (LpOutcome::Optimal { value, point }, LpOutcome::Optimal { value: want, .. }) => {
            prop_assert_eq!(value, want);
            prop_assert!(attains(cs, obj, *value, point), "{:?} in {:?}", point, cs);
        }
        _ => prop_assert_eq!(got, want),
    }
    Ok(())
}

/// Drives minimize → pin chains on both tableaus; feasibility, every
/// stage's verdict and value and every pin's result must agree.
fn chains_agree(
    cs: &ConstraintSystem,
    objs: &[Vec<i64>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut lp = IncrementalLp::new(cs).unwrap();
    let mut old = reference::IncrementalLp::new(cs);
    prop_assert_eq!(lp.is_feasible(), old.is_feasible());
    let mut acc = cs.clone(); // `cs` and the pins that held
    for obj in objs {
        let outcome = lp.minimize(obj).unwrap();
        same_answer(&acc, obj, &outcome, &old.minimize(obj))?;
        let LpOutcome::Optimal { value, .. } = outcome else {
            break;
        };
        // obj·x == n/d as the integer row d·obj·x − n == 0, then a pin
        // that cuts the vertex off (or contradicts the system). A wide
        // denominator ends the chain: that row would bring 20-bit
        // coefficients into the basis, and three of those outgrow `i64`
        // (the reference has `i128` to go on with).
        if value.denom() > 64 {
            break;
        }
        let row = value_row(obj, value);
        let mut cut: Vec<i64> = obj.iter().rev().copied().collect();
        cut.push(-1);
        for pin in [row, cut] {
            let held = lp.pin_eq(&pin).unwrap();
            prop_assert_eq!(held, old.pin_eq(&pin));
            prop_assert_eq!(lp.is_feasible(), held);
            if held {
                acc.add_eq(pin);
            }
        }
    }
    Ok(())
}

/// [`chains_agree`] with two ways to end a stage: the integer tableau
/// restricts itself to the optimal face — no row, no pivot — where the
/// reference pins `obj·x = value`. Feasibility, every later stage's
/// verdict and value, and the result of a pin that cuts into the face
/// must agree, and every vertex must lie on every face before it.
fn faces_agree(
    cs: &ConstraintSystem,
    objs: &[Vec<i64>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut lp = IncrementalLp::new(cs).unwrap();
    let mut old = reference::IncrementalLp::new(cs);
    prop_assert_eq!(lp.is_feasible(), old.is_feasible());
    let mut acc = cs.clone(); // `cs`, the faces, and the cuts that held
    for obj in objs {
        let outcome = lp.minimize_onto_face(obj).unwrap();
        same_answer(&acc, obj, &outcome, &old.minimize(obj))?;
        let LpOutcome::Optimal { value, .. } = outcome else {
            break;
        };
        let face = value_row(obj, value);
        prop_assert!(old.pin_eq(&face), "an attained optimum");
        prop_assert!(lp.is_feasible());
        acc.add_eq(face);
        let mut cut: Vec<i64> = obj.iter().rev().copied().collect();
        cut.push(-1);
        let held = lp.pin_eq(&cut).unwrap();
        prop_assert_eq!(held, old.pin_eq(&cut));
        prop_assert_eq!(lp.is_feasible(), held);
        if held {
            acc.add_eq(cut);
        }
    }
    Ok(())
}

/// The tableau minimizes `probe` to what a cold solve of `cs`, the system
/// it should stand for, does.
fn answers_as(
    lp: &mut IncrementalLp,
    cs: &ConstraintSystem,
    probe: &[i64],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (live, cold) = (lp.minimize(probe).unwrap(), lp_minimize(cs, probe).unwrap());
    same_answer(cs, probe, &live, &cold)
}

// The integer tableau's dual phase 1 against the `Rat` tableau's
// artificial one: two pivot paths, so verdict and optimal value are the
// contract, not the vertex. These run `PROPTEST_CASES` cases a property
// (256 without it; CI adds a pass at 4 096).
proptest! {
    #[test]
    fn lp_is_identical_to_the_reference_on_boxed_systems(
        (cs, _bounds) in boxed_system(),
        obj in proptest::collection::vec(-3i64..=3, 3),
    ) {
        let got = lp_minimize(&cs, &obj).unwrap();
        same_answer(&cs, &obj, &got, &reference::lp_minimize(&cs, &obj))?;
    }

    #[test]
    fn lp_is_identical_to_the_reference_on_wide_systems((cs, obj) in wide_system()) {
        let got = lp_minimize(&cs, &obj).unwrap();
        same_answer(&cs, &obj, &got, &reference::lp_minimize(&cs, &obj))?;
    }

    #[test]
    fn pin_chains_are_identical_to_the_reference_on_boxed_systems(
        (cs, _bounds) in boxed_system(),
        objs in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 3), 1..5),
    ) {
        chains_agree(&cs, &objs)?;
    }

    #[test]
    fn pin_chains_are_identical_to_the_reference_on_wide_systems(
        (cs, obj) in wide_system(),
        seed in 0usize..6,
    ) {
        // Three objectives off the one drawn: itself, rotated, negated.
        let n = obj.len();
        let rotated: Vec<i64> = (0..n).map(|j| obj[(j + seed) % n]).collect();
        let negated: Vec<i64> = obj.iter().map(|c| -c).collect();
        chains_agree(&cs, &[obj, rotated, negated])?;
    }

    #[test]
    fn face_chains_are_identical_to_pinned_reference_chains_on_boxed_systems(
        (cs, _bounds) in boxed_system(),
        objs in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 3), 1..5),
    ) {
        faces_agree(&cs, &objs)?;
    }

    #[test]
    fn face_chains_are_identical_to_pinned_reference_chains_on_wide_systems(
        (cs, obj) in wide_system(),
        seed in 0usize..6,
    ) {
        let n = obj.len();
        let rotated: Vec<i64> = (0..n).map(|j| obj[(j + seed) % n]).collect();
        let negated: Vec<i64> = obj.iter().map(|c| -c).collect();
        faces_agree(&cs, &[obj, rotated, negated])?;
    }

    #[test]
    fn a_face_is_carried_by_a_snapshot_and_undone_by_one_taken_before_it(
        (cs, _bounds) in boxed_system(),
        obj in proptest::collection::vec(-3i64..=3, 3),
        probe in proptest::collection::vec(-3i64..=3, 3),
        rows in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 4), 1..4),
    ) {
        // What a tableau says of `probe` must be what a cold solve says
        // of the system it stands for: the box, the box on the face,
        // the face with rows pushed and pinned onto it, the face again
        // after a rollback to it, the box again after one across it.
        let mut lp = IncrementalLp::new(&cs).unwrap();
        if lp.is_feasible() {
            let whole = lp.snapshot();
            let LpOutcome::Optimal { value, .. } = lp.minimize_onto_face(&obj).unwrap() else {
                panic!("a feasible box is bounded");
            };
            let mut face = cs.clone();
            face.add_eq(value_row(&obj, value));
            answers_as(&mut lp, &face, &probe)?;
            let on_face = lp.snapshot();
            let mut acc = face.clone();
            for (k, row) in rows.iter().enumerate() {
                let held = if k % 2 == 0 {
                    acc.add_ineq(row.clone());
                    lp.push_ineq(row).unwrap()
                } else {
                    acc.add_eq(row.clone());
                    lp.pin_eq(row).unwrap()
                };
                prop_assert!(held == lp_feasible(&acc).unwrap(), "{:?}", acc);
                answers_as(&mut lp, &acc, &probe)?;
            }
            lp.rollback(on_face);
            answers_as(&mut lp, &face, &probe)?;
            lp.rollback(whole);
            answers_as(&mut lp, &cs, &probe)?;
        }
    }

    #[test]
    fn a_total_lexmin_does_not_depend_on_the_row_order(
        (cs, bounds) in boxed_system(),
        shift in 0usize..9,
    ) {
        // One unit objective per variable pins every coordinate, so one
        // point attains the lexmin — whatever basis the rows' order
        // starts the simplex from.
        let objs = vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]];
        let want = brute_points(&cs, &bounds).into_iter().min();
        // `boxed_system` has inequalities only.
        let with_rows = |rows: Vec<Vec<i64>>| {
            let mut out = ConstraintSystem::new(cs.num_vars());
            rows.into_iter().for_each(|row| out.add_ineq(row));
            out
        };
        let rows: Vec<Vec<i64>> = cs.iter().map(|(_, row)| row.to_vec()).collect();
        let reversed = with_rows(rows.iter().rev().cloned().collect());
        let mut rotated = rows.clone();
        rotated.rotate_left(shift % rows.len());
        for sys in [&cs, &reversed, &with_rows(rotated)] {
            prop_assert_eq!(ilp_lexmin(sys, &objs, &mut IlpStats::default()), Ok(want.clone()));
        }
    }

    #[test]
    fn composite_lexmin_matches_brute_force(
        (cs, bounds) in boxed_system(),
        composite in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 3), 1..4),
    ) {
        // Composite rows first, then the identity rows, so the cascade is
        // total: the answer is the point whose composite values are
        // lexicographically least, and the least such point. Composite
        // rows reach fractional stages, where the previous stage's point
        // is the branch-and-bound seed — and, at the LP bound, the
        // stage's optimum outright.
        let mut objs = composite.clone();
        objs.extend([vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]);
        let values = |p: &[i64]| -> Vec<i64> {
            composite
                .iter()
                .map(|row| row.iter().zip(p).map(|(a, b)| a * b).sum())
                .collect()
        };
        let want = brute_points(&cs, &bounds)
            .into_iter()
            .min_by_key(|p| (values(p), p.clone()));
        let got = ilp_lexmin(&cs, &objs, &mut IlpStats::default()).unwrap();
        prop_assert_eq!(got.as_deref().map(values), want.as_deref().map(values));
        prop_assert_eq!(got, want);
    }
}

/// `a·x + c` over the first `n` variables of a row drawn at six, the
/// constant last.
fn cut_row(drawn: &[i64], n: usize) -> Vec<i64> {
    let mut row = drawn[..n].to_vec();
    row.push(drawn[6]);
    row
}

/// The verdict of minimizing `row`'s linear part to its optimum over
/// `lp`'s system: an optimum plus the constant non-negative, or no point.
fn minimized_verdict(lp: &mut IncrementalLp, row: &[i64]) -> bool {
    let n = row.len() - 1;
    match lp.minimize(&row[..n]).unwrap() {
        LpOutcome::Optimal { value, .. } => value + Rat::from(row[n]) >= Rat::ZERO,
        LpOutcome::Infeasible => true,
        LpOutcome::Unbounded => false,
    }
}

/// `cs`'s rows, with inequality `k` (counted among the inequalities)
/// left out when given.
fn without(cs: &ConstraintSystem, k: Option<usize>) -> ConstraintSystem {
    let mut rest = ConstraintSystem::new(cs.num_vars());
    let mut ineq = 0;
    for (kind, row) in cs.iter() {
        match kind {
            RowKind::Eq => rest.add_eq(row.to_vec()),
            RowKind::Ineq => {
                if Some(ineq) != k {
                    rest.add_ineq(row.to_vec());
                }
                ineq += 1;
            }
        }
    }
    rest
}

/// The inequalities of `cs`, in order.
fn ineqs(cs: &ConstraintSystem) -> Vec<Vec<i64>> {
    cs.iter()
        .filter(|(kind, _)| *kind == RowKind::Ineq)
        .map(|(_, row)| row.to_vec())
        .collect()
}

// An implication question stops where its answer is known: on the
// first basis that refutes the row, or at the vertex before any pivot
// in `redundant`. These hold the answers, and the tableau each leaves
// behind, to full minimizations and cold tableaus (`PROPTEST_CASES`
// cases a property, like the block above).
proptest! {
    #[test]
    fn an_implication_gives_the_verdict_of_a_full_minimization(
        (cs, obj) in wide_system(),
        constant in -60i64..=60,
        probes in proptest::collection::vec(proptest::collection::vec(-5i64..=5, 7), 1..4),
    ) {
        // Bounded, unbounded and infeasible systems, with equalities. A
        // refutation leaves the tableau on a feasible, non-optimal
        // basis, and the questions after it, asked with no rollback,
        // answer as cold ones do.
        let n = cs.num_vars();
        let mut row = obj.clone();
        row.push(constant);
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let want = minimized_verdict(&mut IncrementalLp::new(&cs).unwrap(), &row);
        prop_assert_eq!(lp.implies(&row), want);
        prop_assert_eq!(want, ineq_implied(&cs, &row));
        for probe in probes {
            let probe = cut_row(&probe, n);
            prop_assert!(lp.implies(&probe) == ineq_implied(&cs, &probe), "{:?} on {:?}", probe, cs);
        }
        prop_assert_eq!(lp.implies(&row), want);
    }

    #[test]
    fn redundant_gives_the_drop_and_minimize_answer_for_every_row(
        (cs, _obj) in wide_system(),
        probes in proptest::collection::vec(proptest::collection::vec(-5i64..=5, 7), 1..4),
    ) {
        // Each inequality asked of a fresh tableau, against one that
        // drops it and minimizes it to the optimum. What the tableau
        // then stands for — the system without an implied row, the
        // whole system after a refuted one — answers the follow-up
        // questions as a cold tableau of it does.
        let n = cs.num_vars();
        let feasible = lp_feasible(&cs).unwrap();
        for (k, row) in ineqs(&cs).iter().enumerate() {
            let mut lp = IncrementalLp::new(&cs).unwrap();
            let mut dropped = IncrementalLp::new(&cs).unwrap();
            dropped.drop_ineq(k).unwrap();
            let want = minimized_verdict(&mut dropped, row);
            prop_assert_eq!(lp.redundant(k, row), want);
            if feasible {
                let stands_for = without(&cs, want.then_some(k));
                prop_assert_eq!(want, ineq_implied(&without(&cs, Some(k)), row));
                for probe in &probes {
                    let probe = cut_row(probe, n);
                    prop_assert!(
                        lp.implies(&probe) == ineq_implied(&stands_for, &probe),
                        "{:?} after row {} on {:?}", probe, k, cs
                    );
                }
            }
        }
    }

    #[test]
    fn a_prune_on_one_tableau_keeps_what_cold_tableaus_keep(
        (cs, _obj) in wide_system(),
        probe in proptest::collection::vec(-5i64..=5, 7),
    ) {
        // Every inequality in turn, on one tableau and against the rows
        // still kept: an implied row leaves, a refuted one stays and
        // leaves the system as it was, however it was refuted.
        let probe = cut_row(&probe, cs.num_vars());
        let mut lp = IncrementalLp::new(&cs).unwrap();
        let mut kept = cs.clone();
        let mut gone = 0;
        // An empty system implies every row, its subsystems need not.
        let rows = if lp.is_feasible() { ineqs(&cs) } else { Vec::new() };
        for (k, row) in rows.iter().enumerate() {
            let want = ineq_implied(&without(&kept, Some(k - gone)), row);
            prop_assert!(lp.redundant(k, row) == want, "row {} of {:?}", k, cs);
            if want {
                kept = without(&kept, Some(k - gone));
                gone += 1;
            }
            prop_assert!(lp.implies(&probe) == ineq_implied(&kept, &probe), "{:?}", kept);
            prop_assert!(lp.implies(row), "a kept row holds, a dropped one is implied");
        }
    }
}

/// A non-empty polyhedron over three variables: per variable a box, a
/// lower bound alone or nothing (unbounded directions), up to two extra
/// inequality rows and up to one equality row.
fn farkas_polyhedron() -> impl Strategy<Value = ConstraintSystem> {
    let vars = proptest::collection::vec((0u8..3, -3i64..=0, 0i64..=3), 3);
    let rows = |n| proptest::collection::vec(proptest::collection::vec(-2i64..=2, 4), 0..n);
    (vars, rows(3), rows(2))
        .prop_map(|(vars, ineqs, eqs)| {
            let n = vars.len();
            let mut cs = ConstraintSystem::new(n);
            for (j, &(shape, lo, hi)) in vars.iter().enumerate() {
                if shape < 2 {
                    let mut row = vec![0i64; n + 1];
                    row[j] = 1;
                    row[n] = -lo;
                    cs.add_ineq(row);
                }
                if shape == 0 {
                    let mut row = vec![0i64; n + 1];
                    row[j] = -1;
                    row[n] = hi;
                    cs.add_ineq(row);
                }
            }
            for row in ineqs {
                cs.add_ineq(row);
            }
            for row in eqs {
                cs.add_eq(row);
            }
            cs
        })
        .prop_filter("non-empty", |cs| lp_feasible(cs).unwrap())
}

/// A Farkas template over two ILP variables for a three-variable
/// polyhedron: four rows of `[y0, y1, constant]`, any of them all-zero.
fn farkas_template() -> impl Strategy<Value = Vec<Vec<i64>>> {
    proptest::collection::vec((0u8..4, proptest::collection::vec(-2i64..=2, 3)), 4).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(zero, row)| if zero == 0 { vec![0; 3] } else { row })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn farkas_rows_hold_exactly_where_the_form_is_nonnegative(
        poly in farkas_polyhedron(),
        template in farkas_template(),
    ) {
        // The one elimination path against the definition it linearizes:
        // y satisfies the rows iff e_y(z) = Σ_i template_i(y)·z_i +
        // template_3(y) has a bounded minimum over the polyhedron that is
        // non-negative.
        let sys = farkas_nonneg(&poly, &template, 2).unwrap();
        prop_assert_eq!(
            &sys,
            &farkas_substitute(&farkas_cone(&poly).unwrap(), &template, 2).unwrap()
        );
        for y0 in -2i64..=2 {
            for y1 in -2i64..=2 {
                let form: Vec<i64> = template
                    .iter()
                    .map(|t| t[0] * y0 + t[1] * y1 + t[2])
                    .collect();
                let nonneg = match lp_minimize(&poly, &form[..3]).unwrap() {
                    LpOutcome::Optimal { value, .. } => value + Rat::from(form[3]) >= Rat::ZERO,
                    LpOutcome::Unbounded => false,
                    LpOutcome::Infeasible => unreachable!("filtered non-empty"),
                };
                prop_assert!(
                    sys.contains_point(&[y0, y1]) == nonneg,
                    "y = ({y0}, {y1}): form {form:?} nonneg {nonneg}, rows {sys:?} on {poly:?}"
                );
            }
        }
    }

    #[test]
    fn the_cone_holds_exactly_the_forms_nonnegative_on_the_polyhedron(poly in farkas_polyhedron()) {
        // The definition, point by point over a box of (c, c₀): c·z + c₀
        // has a bounded, non-negative minimum over the polyhedron.
        let cone = farkas_cone(&poly).unwrap();
        for c0 in -2i64..=2 {
            for c1 in -2i64..=2 {
                for c2 in -2i64..=2 {
                    let minimum = match lp_minimize(&poly, &[c0, c1, c2]).unwrap() {
                        LpOutcome::Optimal { value, .. } => Some(value),
                        LpOutcome::Unbounded => None,
                        LpOutcome::Infeasible => unreachable!("filtered non-empty"),
                    };
                    for constant in -4i64..=4 {
                        let nonneg = minimum.is_some_and(|v| v + Rat::from(constant) >= Rat::ZERO);
                        prop_assert!(
                            cone.contains_point(&[c0, c1, c2, constant]) == nonneg,
                            "({c0}, {c1}, {c2}, {constant}): nonneg {nonneg}, cone {cone:?} of {poly:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_cone_inequality_is_implied_by_the_others(poly in farkas_polyhedron()) {
        let cone = farkas_cone(&poly).unwrap();
        for (i, (kind, row)) in cone.iter().enumerate() {
            if kind == RowKind::Ineq {
                let mut rest = ConstraintSystem::new(cone.num_vars());
                for (j, (kind, other)) in cone.iter().enumerate() {
                    match kind {
                        _ if j == i => {}
                        RowKind::Eq => rest.add_eq(other.to_vec()),
                        RowKind::Ineq => rest.add_ineq(other.to_vec()),
                    }
                }
                prop_assert!(!ineq_implied(&rest, row), "row {i} of {cone:?} on {poly:?}");
            }
        }
    }
}
