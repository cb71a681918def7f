//! Oracle certification of the heuristic fast path across the suite.
//!
//! The fast path proposes schedule rows without a lexmin solve, so its
//! only safety net is the validation pass inside the scheduler plus the
//! independent dependence oracle. This test closes the loop: every
//! sweep kernel (and both synthetic generators at a size the reference
//! kernels never reach) is scheduled under the `fast_path` preset and
//! every dependence is re-checked with
//! [`polytops_deps::Certifier::schedule_respects`] — the same oracle
//! the engine certifies every schedule with.

use polytops_core::{presets, schedule_with_options, EngineOptions};
use polytops_deps::{analyze, Certifier};
use polytops_workloads::{all_kernels, synthetic};

#[test]
fn fast_path_schedules_are_oracle_legal_on_every_sweep_kernel() {
    let mut kernels = all_kernels();
    kernels.push(("long_chain_24", synthetic::long_chain(24)));
    kernels.push(("wide_scop_16", synthetic::wide_scop(16)));
    for (name, scop) in kernels {
        let (sched, stats) =
            schedule_with_options(&scop, &presets::fast_path(), &EngineOptions::default())
                .unwrap_or_else(|e| panic!("{name} schedules under fast_path: {e:?}"));
        if name == "long_chain_24" {
            // Why the fast path is fast on the large chain (the ratio
            // itself is perfbench's `core.fast_path_ms` against
            // `math.ilp_solve_ms`): no proposal is rejected, and the
            // remaining dimension needs no LP stage and no B&B node.
            assert_eq!(stats.fast_path_fallbacks, 0);
            assert_eq!(stats.ilp.lp_stages, 0);
            assert_eq!(stats.ilp.nodes, 0);
        }
        let deps = analyze(&scop);
        let mut oracle = Certifier::new(&deps);
        for (e, dep) in deps.iter().enumerate() {
            assert!(
                oracle.schedule_respects(e, sched.stmt(dep.src).rows(), sched.stmt(dep.dst).rows()),
                "{name}: fast-path schedule violates a dependence \
                 ({:?} -> {:?})",
                dep.src,
                dep.dst,
            );
        }
    }
}
