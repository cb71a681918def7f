//! Public entry points of the iterative scheduler (paper Algorithm 1).
//!
//! The implementation lives in the staged [`crate::pipeline`] module
//! tree (legality → objectives → solve → postprocess); this module keeps
//! the stable API surface:
//!
//! * [`schedule`] — JSON-driven scheduling under a static
//!   [`SchedulerConfig`];
//! * [`schedule_with_strategy`] — dynamic [`Strategy`]-driven scheduling
//!   (the Rust analogue of the paper's C++ interface);
//! * [`schedule_with_options`] — scheduling with explicit
//!   [`EngineOptions`] (a trace context), also returning the run's
//!   [`PipelineStats`].
//!
//! Each call wraps the SCoP in a [`ScopEntry`] of its own (its
//! dependence analysis and an empty Farkas cache) and runs the engine's
//! one entry point, [`solve::run_shared`], on it: a lone schedule is a
//! solve group of one.
//!
//! Deviations from the paper, documented rather than hidden:
//!
//! * with `negative_coefficients` only the *sum* form of the progression
//!   constraint is emitted (the per-row half-space form would bias the ±
//!   split), which restricts the searched cone exactly like Pluto does;
//! * post-processing (tiling, wavefronts) is applied by the pipeline's
//!   [`postprocess`](crate::pipeline::postprocess) stage and verified
//!   against the independent dependence oracle before being committed.

use polytops_ir::{Schedule, Scop};

use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::pipeline::{solve, EngineOptions, PipelineStats};
use crate::registry::ScopEntry;
use crate::strategy::{ConfigStrategy, Strategy};

/// Schedules a SCoP under a static configuration.
///
/// This is the JSON-driven entry point: the configuration is wrapped in a
/// [`ConfigStrategy`] and handed to [`schedule_with_strategy`].
///
/// # Errors
///
/// Returns [`ScheduleError::IllegalFusion`] when a user fusion control
/// violates a dependence, [`ScheduleError::InfeasibleCustomConstraints`]
/// when custom constraints empty a dimension's search space, and
/// propagates arithmetic failures from the exact solvers.
///
/// # Examples
///
/// ```
/// use polytops_core::{schedule, SchedulerConfig};
/// use polytops_ir::{Aff, ScopBuilder};
///
/// // for (i = 1; i < N; i++) A[i] = A[i-1];
/// let mut b = ScopBuilder::new("chain");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone()], 8);
/// b.open_loop("i", Aff::val(1), n - 1);
/// b.stmt("S0")
///     .read(a, &[Aff::var("i") - 1])
///     .write(a, &[Aff::var("i")])
///     .add(&mut b);
/// b.close_loop();
/// let scop = b.build().unwrap();
///
/// let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
/// // The chain needs its single loop scheduled as φ = i.
/// assert_eq!(sched.stmt(polytops_ir::StmtId(0)).rows()[0], vec![1, 0, 0]);
/// ```
pub fn schedule(scop: &Scop, config: &SchedulerConfig) -> Result<Schedule, ScheduleError> {
    schedule_with_options(scop, config, &EngineOptions::default()).map(|(sched, _)| sched)
}

/// Schedules a SCoP under a dynamic [`Strategy`] (the Rust analogue of
/// the paper's C++ interface).
///
/// `config` still supplies the global knobs (coefficient bounds, fusion
/// heuristic, directives); the strategy drives the per-dimension choices.
///
/// # Errors
///
/// Same contract as [`schedule`].
pub fn schedule_with_strategy(
    scop: &Scop,
    config: &SchedulerConfig,
    strategy: &mut dyn Strategy,
) -> Result<Schedule, ScheduleError> {
    run(scop, config, strategy, &EngineOptions::default()).map(|(sched, _)| sched)
}

/// Schedules a SCoP with explicit pipeline options and reports the run's
/// statistics (Farkas cache hits and misses, ILP solver effort).
///
/// # Errors
///
/// Same contract as [`schedule`].
pub fn schedule_with_options(
    scop: &Scop,
    config: &SchedulerConfig,
    options: &EngineOptions,
) -> Result<(Schedule, PipelineStats), ScheduleError> {
    let mut strategy = ConfigStrategy::new(config.clone());
    run(scop, config, &mut strategy, options)
}

/// One solve group of one configuration, on an entry of its own.
fn run(
    scop: &Scop,
    config: &SchedulerConfig,
    strategy: &mut dyn Strategy,
    options: &EngineOptions,
) -> Result<(Schedule, PipelineStats), ScheduleError> {
    let entry = ScopEntry::new(scop.name.clone(), scop.clone());
    let mut runs = solve::run_shared(&entry, &[config], strategy, options, None)?;
    Ok(runs.pop().expect("one configuration, one schedule"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_deps::{analyze, schedule_respects_dependence};
    use polytops_ir::{Aff, ScopBuilder, StmtId};

    fn chain() -> Scop {
        let mut b = ScopBuilder::new("chain");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(1), n - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i") - 1])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn chain_outer_dimension_carries() {
        let scop = chain();
        let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
        // φ = i, the dependence-carrying outer dimension.
        assert_eq!(sched.stmt(StmtId(0)).rows()[0], vec![1, 0, 0]);
        for dep in analyze(&scop) {
            assert!(schedule_respects_dependence(
                &dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows(),
            ));
        }
    }

    #[test]
    fn independent_statements_get_full_rank_schedules() {
        // Two independent loops over disjoint arrays.
        let mut b = ScopBuilder::new("indep");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
        b.close_loop();
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S1").write(c, &[Aff::var("j")]).add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let sched = schedule(&scop, &SchedulerConfig::default()).unwrap();
        for s in 0..2 {
            assert_eq!(sched.stmt(StmtId(s)).rank().unwrap(), 1);
        }
        // No dependences: the loop dimension is (vacuously) parallel.
        assert!(analyze(&scop).is_empty());
        assert!(sched.parallel().iter().any(|&p| p));
    }

    #[test]
    fn illegal_user_fusion_is_reported() {
        // S0 -> S1 dependence, but the user distributes S1 before S0.
        let mut b = ScopBuilder::new("pipe");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let bb = b.array("B", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0").write(bb, &[Aff::var("i")]).add(&mut b);
        b.stmt("S1")
            .read(bb, &[Aff::var("i")])
            .write(a, &[Aff::var("i")])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let mut cfg = SchedulerConfig::default();
        cfg.fusion.push(crate::config::FusionControl {
            dimension: 0,
            total_distribution: false,
            groups: vec![vec![1], vec![0]],
        });
        let err = schedule(&scop, &cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::IllegalFusion { .. }), "{err}");
    }

    #[test]
    fn infeasible_custom_constraints_are_reported() {
        let scop = chain();
        let mut cfg = SchedulerConfig::default();
        // φ must use the iterator (progression) yet is forbidden to.
        cfg.custom_constraints
            .set_default(vec!["S0_it_0 = 0".to_string()]);
        let err = schedule(&scop, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ScheduleError::InfeasibleCustomConstraints { dimension: 0 }
            ),
            "{err}"
        );
    }

    #[test]
    fn fast_path_schedules_the_chain_without_ilp() {
        let scop = chain();
        let (sched, stats) = schedule_with_options(
            &scop,
            &crate::presets::fast_path(),
            &EngineOptions::default(),
        )
        .unwrap();
        assert!(stats.fast_path_dims > 0, "{stats:?}");
        assert_eq!(stats.fast_path_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.ilp.lp_stages, 0, "no ILP stage may run: {stats:?}");
        assert_eq!(stats.ilp.nodes, 0, "no B&B may run: {stats:?}");
        // Same schedule the ILP cascade finds: φ = i.
        assert_eq!(sched.stmt(StmtId(0)).rows()[0], vec![1, 0, 0]);
        for dep in analyze(&scop) {
            assert!(schedule_respects_dependence(
                &dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows(),
            ));
        }
    }

    #[test]
    fn fast_path_falls_back_to_ilp_when_the_proposal_is_illegal() {
        // The reversed consumer has no legal fused permutation row, so
        // the dimension-matching proposal must fail and the ILP cascade
        // (with its SCC cut) must take over — and stay oracle-legal.
        let scop = polytops_workloads::reversed_consumer();
        let (sched, stats) = schedule_with_options(
            &scop,
            &crate::presets::fast_path(),
            &EngineOptions::default(),
        )
        .unwrap();
        assert!(stats.fast_path_fallbacks > 0, "{stats:?}");
        for dep in analyze(&scop) {
            assert!(schedule_respects_dependence(
                &dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows(),
            ));
        }
    }

    #[test]
    fn fast_path_shifts_a_negative_offset_producer() {
        // S0 writes B[i]; S1 reads B[j+1]: under the fused identity
        // proposal Δ = j - i with j = i - 1, i.e. Δ = -1 — the shift
        // repair must raise S1's constant by one instead of falling
        // back to the ILP.
        let mut b = ScopBuilder::new("shifted");
        let n = b.param("N");
        let bb = b.array("B", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0").write(bb, &[Aff::var("i")]).add(&mut b);
        b.close_loop();
        b.open_loop("j", Aff::val(0), n - 2);
        b.stmt("S1")
            .read(bb, &[Aff::var("j") + 1])
            .write(c, &[Aff::var("j")])
            .add(&mut b);
        b.close_loop();
        let scop = b.build().unwrap();
        let (sched, stats) = schedule_with_options(
            &scop,
            &crate::presets::fast_path(),
            &EngineOptions::default(),
        )
        .unwrap();
        assert!(stats.fast_path_dims > 0, "{stats:?}");
        assert_eq!(stats.fast_path_fallbacks, 0, "{stats:?}");
        assert_eq!(sched.stmt(StmtId(0)).rows()[0], vec![1, 0, 0]);
        assert_eq!(sched.stmt(StmtId(1)).rows()[0], vec![1, 0, 1], "shifted");
        for dep in analyze(&scop) {
            assert!(schedule_respects_dependence(
                &dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows(),
            ));
        }
    }
}
