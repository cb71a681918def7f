//! The from-scratch dependence oracle: every question materializes its
//! own constraint system and asks the one-question
//! [`polytops_math::ilp_feasible`] of it — a rebuilt tableau per
//! question, no state between questions. This is what
//! `polytops_deps::Certifier` must agree with answer for answer; it is
//! shared (by `#[path]`) with `crates/core/tests/certifier.rs`.

#![allow(dead_code)] // each including test uses its own part

use polytops_deps::{distance_row, Dependence, OrderStep, StepDelta, StepSystem};
use polytops_math::{ilp_feasible, ConstraintSystem};

/// `sys` plus `row ≥ 0` has an integer point.
fn feasible_with(sys: &ConstraintSystem, row: Vec<i64>) -> bool {
    let mut sys = sys.clone();
    sys.add_ineq(row);
    ilp_feasible(&sys)
}

fn at_least_one(row: &[i64]) -> Vec<i64> {
    let mut up = row.to_vec();
    *up.last_mut().unwrap() -= 1;
    up
}

fn at_most_minus_one(row: &[i64]) -> Vec<i64> {
    at_least_one(&row.iter().map(|&v| -v).collect::<Vec<_>>())
}

pub fn strongly_satisfies(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(&dep.poly, delta.iter().map(|&d| -d).collect())
}

pub fn zero_distance(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(&dep.poly, at_least_one(&delta))
        && !feasible_with(&dep.poly, at_most_minus_one(&delta))
}

pub fn respects(dep: &Dependence, src_row: &[i64], dst_row: &[i64]) -> bool {
    let delta = distance_row(dep, src_row, dst_row);
    !feasible_with(&dep.poly, at_most_minus_one(&delta))
}

pub fn schedule_respects(dep: &Dependence, src_rows: &[Vec<i64>], dst_rows: &[Vec<i64>]) -> bool {
    let mut sys = dep.poly.clone();
    for (src, dst) in src_rows.iter().zip(dst_rows) {
        let delta = distance_row(dep, src, dst);
        if feasible_with(&sys, at_most_minus_one(&delta)) {
            return false;
        }
        sys.add_eq(delta);
    }
    !ilp_feasible(&sys)
}

pub fn steps_respect(dep: &Dependence, steps: &[OrderStep]) -> bool {
    let (mut sys, enc) = StepSystem::materialized(dep, steps);
    for delta in &enc.deltas {
        match delta {
            StepDelta::Const(0) => {}
            StepDelta::Const(c) => return *c > 0 || !ilp_feasible(&sys),
            StepDelta::Linear(row) => {
                if feasible_with(&sys, at_most_minus_one(row)) {
                    return false;
                }
                sys.add_eq(row.clone());
            }
        }
    }
    !ilp_feasible(&sys)
}

pub fn step_coincident(dep: &Dependence, prefix: &[OrderStep], step: &OrderStep) -> bool {
    let mut steps = prefix.to_vec();
    steps.push(step.clone());
    let (mut sys, mut enc) = StepSystem::materialized(dep, &steps);
    let last = enc.deltas.pop().unwrap();
    for delta in &enc.deltas {
        match delta {
            StepDelta::Const(0) => {}
            StepDelta::Const(_) => return true,
            StepDelta::Linear(row) => sys.add_eq(row.clone()),
        }
    }
    match last {
        StepDelta::Const(c) => c == 0 || !ilp_feasible(&sys),
        StepDelta::Linear(row) => {
            !feasible_with(&sys, at_least_one(&row))
                && !feasible_with(&sys, at_most_minus_one(&row))
        }
    }
}
