//! Solver-speed benchmark: the two solver levers measured separately.
//!
//! * **dual_simplex** — the standard sweep under the incremental lexmin
//!   solver. After a stage optimum is pinned as an equality row, the
//!   tableau is re-optimized with dual-simplex pivots on the existing
//!   basis; the mini phase-1 (fresh artificial variable per stage) is
//!   only a fallback. The bench asserts the fallback never fires on the
//!   sweep (`phase1_passes == 0`) and reports how many dual pivots did
//!   the work.
//! * **fast_path** — the heuristic scheduler on a synthetic large SCoP
//!   ([`synthetic::long_chain`]) versus the pure-ILP cascade on the
//!   same SCoP. The emitted fast-path schedule is certified against the
//!   dependence oracle before timing; the bench asserts the ≥ 5×
//!   speedup the heuristic exists for.
//!
//! Results land in the `"solver"` section of `BENCH_schedule.json`.

use polytops_bench::bench_ns;
use polytops_bench::report::{self, int, object, ratio};
use polytops_core::scenario::ScenarioResult;
use polytops_core::{presets, schedule};
use polytops_deps::{analyze, schedule_respects_dependence};
use polytops_workloads::sweep::standard_sweep;
use polytops_workloads::synthetic;

/// Statement count of the fast-path showcase chain: big enough that the
/// joint ILP visibly crawls, small enough that the pure-ILP baseline
/// still finishes in bench time.
const FAST_PATH_CHAIN: usize = 24;

fn total<F: Fn(&polytops_core::PipelineStats) -> usize>(results: &[ScenarioResult], f: F) -> usize {
    results.iter().flatten().map(|r| f(&r.stats)).sum()
}

fn main() {
    // ---- Lever 1: dual-simplex stage re-optimization -----------------
    let set = standard_sweep();
    let baseline = set.run_sequential();
    let dual_pivots = total(&baseline, |s| s.ilp.dual_pivots);
    let phase1_passes = total(&baseline, |s| s.ilp.phase1_passes);
    let fractional = total(&baseline, |s| s.ilp.fractional_stages);
    assert_eq!(
        phase1_passes, 0,
        "dual simplex must re-optimize every pinned stage on the sweep \
         without falling back to the mini phase-1"
    );
    let baseline_ns = bench_ns(|| set.run_sequential());
    println!(
        "dual_simplex: {} dual pivots, {} phase-1 fallbacks, {} fractional stages",
        dual_pivots, phase1_passes, fractional
    );

    // ---- Lever 2: heuristic fast path on a large SCoP ----------------
    let big = synthetic::long_chain(FAST_PATH_CHAIN);
    let fast = schedule(&big, &presets::fast_path()).expect("fast path schedules the chain");
    for dep in analyze(&big) {
        assert!(
            schedule_respects_dependence(
                &dep,
                fast.stmt(dep.src).rows(),
                fast.stmt(dep.dst).rows(),
            ),
            "fast-path schedule must be oracle-legal"
        );
    }
    let fast_ns = bench_ns(|| schedule(&big, &presets::fast_path()).unwrap());
    let ilp_ns = bench_ns(|| schedule(&big, &presets::pluto()).unwrap());
    let fast_speedup = ilp_ns as f64 / fast_ns.max(1) as f64;
    println!(
        "fast_path: long_chain({FAST_PATH_CHAIN}) ilp {ilp_ns} ns, \
         heuristic {fast_ns} ns ({fast_speedup:.1}x)"
    );
    assert!(
        fast_speedup >= 5.0,
        "the heuristic fast path must beat the pure-ILP cascade by >= 5x \
         on the large chain (got {fast_speedup:.2}x)"
    );

    let out = report::default_path();
    report::update_section(
        &out,
        "solver",
        object([
            (
                "dual_simplex",
                object([
                    ("dual_pivots", int(dual_pivots as i64)),
                    ("phase1_passes", int(phase1_passes as i64)),
                    ("fractional_stages", int(fractional as i64)),
                    ("sweep_ns", int(baseline_ns as i64)),
                ]),
            ),
            (
                "fast_path",
                object([
                    ("chain_statements", int(FAST_PATH_CHAIN as i64)),
                    ("ilp_ns", int(ilp_ns as i64)),
                    ("fast_ns", int(fast_ns as i64)),
                    ("speedup", ratio(fast_speedup)),
                ]),
            ),
        ]),
    );
    println!("-> {out}");
}
