//! The systems the differential properties of the simplex draw. Shared
//! (by `#[path]`) with the properties in `src/simplex.rs`, which reach
//! the crate-private minimization and lexmin stage.

#![allow(dead_code)] // each including test uses its own part

use polytops_math::ConstraintSystem;
use proptest::prelude::*;

use super::reference::Rat;

/// Generates a random non-empty box plus extra random inequality rows.
pub fn boxed_system() -> impl Strategy<Value = (ConstraintSystem, Vec<(i64, i64)>)> {
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
pub fn value_row(obj: &[i64], value: Rat) -> Vec<i64> {
    let (n, d) = (value.numer() as i64, value.denom() as i64);
    let mut row: Vec<i64> = obj.iter().map(|c| c * d).collect();
    row.push(-n);
    row
}

/// A wider family than [`boxed_system`] for the differential tests: 1–6
/// variables, coefficients to ±50, inequalities and equalities, some
/// rows repeated or scaled (redundant), one system in three unboxed —
/// so infeasible, unbounded and optimal outcomes all come up often.
pub fn wide_system() -> impl Strategy<Value = (ConstraintSystem, Vec<i64>)> {
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
                        cs.add_ineq(r.iter().map(|v| v * k).collect::<Vec<_>>());
                    }
                    _ => cs.add_ineq(r),
                }
            }
            obj.truncate(n);
            (cs, obj)
        })
}

/// [`boxed_system`] with one or two equality rows beside its
/// inequalities: coefficients in −2..=2, constants in −3..=3, so that
/// every 2 × 2 minor of the equalities with their constants is at most
/// 12 — an integer solution, when there is one, has one in `[−24, 24]³`.
pub fn boxed_system_with_equalities() -> impl Strategy<Value = (ConstraintSystem, Vec<(i64, i64)>)>
{
    let equality = (proptest::collection::vec(-2i64..=2, 3), -3i64..=3);
    (boxed_system(), proptest::collection::vec(equality, 1..3)).prop_map(
        |((mut cs, bounds), equalities)| {
            for (mut row, constant) in equalities {
                row.push(constant);
                cs.add_eq(row);
            }
            (cs, bounds)
        },
    )
}
