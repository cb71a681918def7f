//! Parameterized synthetic SCoP generators for large-SCoP scaling work.
//!
//! The reference kernels ([`crate::all_kernels`]) are all small — a
//! handful of statements at most — so nothing in the suite exercised
//! the regime the heuristic fast path exists for: SCoPs whose joint ILP
//! couples *hundreds* of statements. These generators build such SCoPs
//! at any requested size:
//!
//! * [`long_chain`] — `n` single-loop statements chained by flow
//!   dependences (statement `k` reads what statement `k-1` wrote, at
//!   the same and the previous index), the "N-statement stencil chain"
//!   shape;
//! * [`wide_scop`] — `n` independent 2-deep nests over disjoint arrays:
//!   no dependences at all, so cost is pure ILP-width;
//! * [`offset_chain`] — a chain like [`long_chain`] whose read offsets
//!   and lower bounds are given per statement, for seeded families of
//!   structurally distinct SCoPs.
//!
//! Both are fully affine and legal under the identity schedule, which
//! is exactly what makes them fast-path showcases: the
//! dimension-matching proposal validates in one pass, while the ILP
//! cascade pays a simplex whose column count grows with `n`.

use polytops_ir::{Aff, Scop, ScopBuilder};

/// A chain of `n` single-loop statements, each reading its
/// predecessor's output array at the same and the previous index:
///
/// ```c
/// for (i = 1; i < N; i++) A1[i] = A0[i] + A0[i-1];   // S0
/// for (i = 1; i < N; i++) A2[i] = A1[i] + A1[i-1];   // S1
/// ...
/// ```
///
/// `n - 1` pairs of forward flow dependences, no loop-carried ones: the
/// identity schedule is legal, every loop is parallel once distributed,
/// and proximity rewards fusing the whole chain.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn long_chain(n: usize) -> Scop {
    assert!(n > 0, "long_chain needs at least one statement");
    let mut b = ScopBuilder::new(&format!("long_chain_{n}"));
    let nn = b.param("N");
    let arrays: Vec<_> = (0..=n)
        .map(|k| b.array(&format!("A{k}"), &[nn.clone()], 8))
        .collect();
    for k in 0..n {
        b.open_loop("i", Aff::val(1), nn.clone() - 1);
        b.stmt(&format!("S{k}"))
            .read(arrays[k], &[Aff::var("i")])
            .read(arrays[k], &[Aff::var("i") - 1])
            .write(arrays[k + 1], &[Aff::var("i")])
            .text(&format!("A{}[i] = A{k}[i] + A{k}[i-1];", k + 1))
            .add(&mut b);
        b.close_loop();
    }
    b.build().expect("long_chain builds")
}

/// `n` independent 2-deep nests over disjoint arrays:
///
/// ```c
/// for (i) for (j) B0[i][j] = B0[i][j] + 1;   // S0
/// for (i) for (j) B1[i][j] = B1[i][j] + 1;   // S1
/// ...
/// ```
///
/// Each statement has only a self output dependence at equal indices
/// (distance zero), so everything is trivially parallel — the SCoP
/// measures how solve cost scales with pure statement *width*.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn wide_scop(n: usize) -> Scop {
    assert!(n > 0, "wide_scop needs at least one statement");
    let mut b = ScopBuilder::new(&format!("wide_scop_{n}"));
    let nn = b.param("N");
    for k in 0..n {
        let a = b.array(&format!("B{k}"), &[nn.clone(), nn.clone()], 8);
        b.open_loop("i", Aff::val(0), nn.clone() - 1);
        b.open_loop("j", Aff::val(0), nn.clone() - 1);
        b.stmt(&format!("S{k}"))
            .read(a, &[Aff::var("i"), Aff::var("j")])
            .write(a, &[Aff::var("i"), Aff::var("j")])
            .text(&format!("B{k}[i][j] = B{k}[i][j] + 1;"))
            .add(&mut b);
        b.close_loop();
        b.close_loop();
    }
    b.build().expect("wide_scop builds")
}

/// A chain of single-loop statements, one per `(off_a, off_b, lower)`
/// in `shape`: statement `k` runs `i` from `max(off_a, off_b) + lower`
/// to `N − 1` and reads its predecessor's array at `i − off_a` and
/// `i − off_b`:
///
/// ```c
/// for (i = max(a0, b0) + l0; i < N; i++) A1[i] = A0[i-a0] + A0[i-b0];   // S0
/// ...
/// ```
///
/// Offsets and lower bounds in `0..4` give the shapes of the churn
/// stream `polytopsd` is benchmarked on: every dependence is a forward
/// flow, and distinct shapes are distinct SCoPs.
///
/// # Panics
///
/// Panics if `shape` is empty or an offset is negative.
pub fn offset_chain(shape: &[(i64, i64, i64)]) -> Scop {
    assert!(
        !shape.is_empty(),
        "offset_chain needs at least one statement"
    );
    let mut b = ScopBuilder::new(&format!("offset_chain_{}", shape.len()));
    let n = b.param("N");
    let arrays: Vec<_> = (0..=shape.len())
        .map(|k| b.array(&format!("A{k}"), std::slice::from_ref(&n), 8))
        .collect();
    for (k, &(off_a, off_b, lower)) in shape.iter().enumerate() {
        assert!(off_a >= 0 && off_b >= 0, "offsets read backwards");
        b.open_loop("i", Aff::val(off_a.max(off_b) + lower), n.clone() - 1);
        b.stmt(&format!("S{k}"))
            .read(arrays[k], &[Aff::var("i") - off_a])
            .read(arrays[k], &[Aff::var("i") - off_b])
            .write(arrays[k + 1], &[Aff::var("i")])
            .text(&format!(
                "A{}[i] = A{k}[i-{off_a}] + A{k}[i-{off_b}];",
                k + 1
            ))
            .add(&mut b);
        b.close_loop();
    }
    b.build().expect("offset_chain builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_scale_and_stay_affine() {
        let chain = long_chain(32);
        assert_eq!(chain.statements.len(), 32);
        assert_eq!(chain.max_depth(), 1);
        assert!(chain.is_fully_affine());
        let wide = wide_scop(12);
        assert_eq!(wide.statements.len(), 12);
        assert_eq!(wide.max_depth(), 2);
        assert!(wide.is_fully_affine());
    }

    #[test]
    fn long_chain_has_forward_flow_dependences() {
        let deps = polytops_deps::analyze(&long_chain(4));
        // Two reads of the predecessor array per statement, three pairs.
        assert_eq!(deps.len(), 6);
        assert!(deps.iter().all(|d| d.src.0 + 1 == d.dst.0));
    }

    #[test]
    fn wide_scop_has_only_self_dependences() {
        let deps = polytops_deps::analyze(&wide_scop(5));
        assert!(deps.iter().all(|d| d.src == d.dst));
    }
}
