//! Scenario-engine benchmark: the naive per-scenario loop against the
//! sharded scenario engine.
//!
//! Runs the standard sweep (`polytops_workloads::sweep::standard_sweep`,
//! 5 kernels × 4 presets = 20 scenarios) three ways:
//!
//! * **isolated** — the pre-scenario-engine sequential loop: every
//!   scenario is an independent `schedule_with_options` call with its
//!   own Farkas cache (nothing amortized, one core);
//! * **sequential** — the scenario engine on one worker: cross-scenario
//!   cache sharing, no parallelism (isolates the amortization win);
//! * **sharded** — the scenario engine on ≥ 2 worker threads pulling
//!   from the channel queue (amortization + parallelism).
//!
//! Schedules are asserted bit-identical between sequential and sharded
//! before any number is reported. Results land in the `"scenarios"`
//! section of `BENCH_schedule.json` (every other bench's section is
//! preserved); `speedup_cache` isolates cache amortization
//! (machine-independent), `speedup_threads` isolates
//! thread scaling (1.0 on a single-core container, grows with cores),
//! and `speedup_total` is the product the reconfiguration loop actually
//! experiences.

use polytops_bench::bench_ns;
use polytops_bench::report::{self, int, object, ratio};
use polytops_core::json::Json;
use polytops_core::scenario::ScenarioResult;
use polytops_workloads::sweep::standard_sweep;

fn main() {
    let set = standard_sweep();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));

    // Correctness gate: sharded results must be bit-identical to the
    // sequential engine before timing means anything.
    let sequential_results = set.run_sequential();
    let sharded_results = set.run_sharded(threads);
    for (a, b) in sequential_results.iter().zip(&sharded_results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.schedule, b.schedule, "{}: sharded must match", a.name);
    }

    let isolated_ns = bench_ns(|| set.run_isolated());
    let sequential_ns = bench_ns(|| set.run_sequential());
    let sharded_ns = bench_ns(|| set.run_sharded(threads));

    // Cache amortization: lookups the sweep answered from entries
    // eliminated by an *earlier scenario* — total sweep hits minus the
    // hits each scenario would score alone.
    let isolated_results = set.run_isolated();
    let hits = |results: &[ScenarioResult]| -> usize {
        results
            .iter()
            .flatten()
            .map(|r| r.stats.farkas_hits)
            .sum::<usize>()
    };
    let misses = |results: &[ScenarioResult]| -> usize {
        results
            .iter()
            .flatten()
            .map(|r| r.stats.farkas_misses)
            .sum::<usize>()
    };
    let sweep_hits = hits(&sequential_results);
    let cross_scenario_hits = sweep_hits.saturating_sub(hits(&isolated_results));
    assert!(
        cross_scenario_hits > 0,
        "the sweep must replay eliminations across scenarios"
    );

    let speedup_cache = isolated_ns as f64 / sequential_ns.max(1) as f64;
    let speedup_threads = sequential_ns as f64 / sharded_ns.max(1) as f64;
    let speedup_total = isolated_ns as f64 / sharded_ns.max(1) as f64;
    println!(
        "scenarios: {} over {} kernels on {threads} threads",
        set.len(),
        set.scops().len()
    );
    println!(
        "isolated {isolated_ns} ns, sequential(shared) {sequential_ns} ns, \
         sharded {sharded_ns} ns"
    );
    println!(
        "speedup: cache {speedup_cache:.2}x, threads {speedup_threads:.2}x, \
         total {speedup_total:.2}x; cross-scenario farkas hits {cross_scenario_hits} \
         (sweep {}/{} hit)",
        sweep_hits,
        sweep_hits + misses(&sequential_results),
    );

    let entries: Vec<Json> = sequential_results
        .iter()
        .flatten()
        .map(|r| {
            object([
                ("scenario", Json::Str(r.name.clone())),
                ("kernel", Json::Str(r.scop_name.clone())),
                ("dims", int(r.schedule.dims() as i64)),
                ("farkas_hits", int(r.stats.farkas_hits as i64)),
                ("farkas_misses", int(r.stats.farkas_misses as i64)),
                (
                    "fractional_stages",
                    int(r.stats.ilp.fractional_stages as i64),
                ),
            ])
        })
        .collect();
    let out = report::default_path();
    report::update_section(
        &out,
        "scenarios",
        object([
            ("kernels", int(set.scops().len() as i64)),
            ("scenario_count", int(set.len() as i64)),
            ("threads", int(threads as i64)),
            ("isolated_ns", int(isolated_ns as i64)),
            ("sequential_ns", int(sequential_ns as i64)),
            ("sharded_ns", int(sharded_ns as i64)),
            ("speedup_cache", ratio(speedup_cache)),
            ("speedup_threads", ratio(speedup_threads)),
            ("speedup_total", ratio(speedup_total)),
            (
                "cross_scenario_farkas_hits",
                int(cross_scenario_hits as i64),
            ),
            ("sweep_farkas_hits", int(sweep_hits as i64)),
            (
                "sweep_farkas_misses",
                int(misses(&sequential_results) as i64),
            ),
            ("entries", Json::Array(entries)),
        ]),
    );
    println!("-> {out}");
}
