//! The exact kernels allocate no `Vec` per row: copying, eliminating,
//! substituting and normalizing a system takes a number of heap
//! allocations that does not grow with its rows.
//!
//! A counting global allocator counts per thread, so the test threads
//! running beside each other do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use polytops_math::ConstraintSystem;

struct Counting;

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it allocates
    // nothing the tests read.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed through to the system allocator
// unchanged; counting touches only a `const`-initialized thread-local
// cell, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread; what it returns is dropped
/// after counting.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

/// `rows` rows over `(x, y, z, w)`: `x == y + 1`, `y, z >= 0`, one
/// upper and one lower bound on `w` in `z`, then rows over `y` and `z`
/// (every fifth one with the coefficients of an earlier one, so
/// `normalize` merges) and two duplicates to the end.
fn system(rows: usize) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new(4);
    cs.add_eq(vec![1, -1, 0, 0, -1]);
    cs.add_ineq(vec![0, 1, 0, 0, 0]);
    cs.add_ineq(vec![0, 0, 1, 0, 0]);
    cs.add_ineq(vec![0, 0, 1, -1, 9]);
    cs.add_ineq(vec![0, 0, -1, 1, 9]);
    let mut k = 0;
    while cs.len() < rows - 2 {
        // y + (k mod 5) z <= 9 + 2k, written twice over.
        cs.add_ineq(vec![0, -2, -2 * (k % 5), 0, 18 + 4 * k]);
        k += 1;
    }
    cs.add_ineq(vec![0, 1, 0, 0, 0]);
    cs.add_eq(vec![1, -1, 0, 0, -1]);
    assert_eq!(cs.len(), rows);
    cs
}

/// What each kernel allocates on a system of `rows` rows.
fn costs(rows: usize) -> [(&'static str, u64); 4] {
    let cs = system(rows);
    let mut normalized = cs.clone();
    [
        ("clone", allocations(|| cs.clone())),
        ("eliminate_var", allocations(|| cs.eliminate_var(3))),
        ("substitute_eq", allocations(|| cs.substitute_eq(0))),
        ("normalize", allocations(|| normalized.normalize())),
    ]
}

#[test]
fn kernels_allocate_no_vec_per_row() {
    // A system of 40 rows costs what one of 80 does, and little: the
    // row buffer and the kind list of each result, and a dedup table.
    let forty = costs(40);
    assert_eq!(forty, costs(80));
    for (kernel, made) in forty {
        assert!(made <= 3, "{kernel} made {made} allocations");
    }
}

#[test]
fn the_kernels_still_answer() {
    let cs = system(40);
    let eliminated = cs.eliminate_var(3).expect("no overflow");
    let (substituted, _) = cs.substitute_eq(0).expect("no overflow").expect("a pivot");
    let mut normalized = cs.clone();
    assert!(normalized.normalize());
    // (x, y, z) = (1, 0, 0) with w = 0 is a point of all of them.
    assert!(cs.contains_point(&[1, 0, 0, 0]));
    assert!(eliminated.contains_point(&[1, 0, 0]));
    assert!(substituted.contains_point(&[0, 0, 0]));
    assert!(normalized.contains_point(&[1, 0, 0, 0]));
    // The duplicates and the rows with a coefficient of an earlier one
    // merged: one equality, y >= 0, z >= 0, the two bounds on w, and
    // one row per distinct coefficient of z.
    assert_eq!(normalized.len(), 5 + 5);
}
