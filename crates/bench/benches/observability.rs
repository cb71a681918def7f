//! Observability benchmark: what does instrumentation cost, and does it
//! ever perturb results?
//!
//! Runs the standard sweep through the sharded scenario engine twice —
//! untraced (no span context bound, every probe inert) and traced (a
//! live [`polytops_obs::Recorder`] collecting the full span tree plus
//! the simplex/Farkas timing histograms) — with the two variants
//! interleaved and min-of-N timed, so machine noise hits both equally.
//! Schedules are asserted bit-identical between the variants before any
//! number is reported, and the traced/untraced ratio is asserted within
//! the ≤ 5% overhead budget.
//!
//! One fully-traced sweep is also exported as Chrome trace-event JSON
//! (load it in `chrome://tracing` or Perfetto); the path is printed.
//! Results land in the `"observability"` section of
//! `BENCH_schedule.json` (other sections are preserved).

use std::time::Instant;

use polytops_bench::report::{self, int, object, ratio};
use polytops_core::scenario::ScenarioSet;
use polytops_core::EngineOptions;
use polytops_workloads::sweep::{preset_grid, SWEEP_CHAIN_LEN};
use polytops_workloads::{all_kernels, synthetic};

/// The standard sweep with every scenario's engine run linked under
/// `link` (`None` builds the plain untraced sweep).
fn sweep_with_trace(link: Option<polytops_obs::SpanLink>) -> ScenarioSet {
    let mut set = ScenarioSet::new();
    let mut kernels = all_kernels();
    kernels.push(("long_chain_12", synthetic::long_chain(SWEEP_CHAIN_LEN)));
    for (kernel, scop) in kernels {
        let id = set.add_scop(kernel, scop);
        for (preset, config) in preset_grid() {
            let options = EngineOptions {
                trace: link.clone(),
            };
            set.add_scenario_with_options(id, format!("{kernel}/{preset}"), config, options);
        }
    }
    set
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    let recorder = polytops_obs::Recorder::new(true);
    let root = recorder.root_span("bench_sweep");
    let untraced = sweep_with_trace(None);
    let traced = sweep_with_trace(root.link());

    // Correctness gate: instrumentation must never perturb results.
    let baseline = untraced.run_sharded(threads);
    let instrumented = traced.run_sharded(threads);
    for (a, b) in baseline.iter().zip(&instrumented) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.schedule, b.schedule,
            "{}: traced schedule must be bit-identical to untraced",
            a.name
        );
    }

    // Interleaved min-of-N: alternating the variants inside each round
    // exposes both to the same thermal/scheduler conditions.
    let rounds = 3usize;
    let mut untraced_ns = u128::MAX;
    let mut traced_ns = u128::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(untraced.run_sharded(threads));
        untraced_ns = untraced_ns.min(t0.elapsed().as_nanos());
        let t0 = Instant::now();
        std::hint::black_box(traced.run_sharded(threads));
        traced_ns = traced_ns.min(t0.elapsed().as_nanos());
    }
    let overhead = traced_ns as f64 / untraced_ns.max(1) as f64;
    println!(
        "observability: untraced {untraced_ns} ns, traced {traced_ns} ns \
         ({:.2}% overhead) on {threads} threads",
        (overhead - 1.0) * 100.0
    );
    assert!(
        overhead <= 1.05,
        "instrumentation overhead {:.2}% exceeds the 5% budget",
        (overhead - 1.0) * 100.0
    );

    // Export one fully-traced sweep as Chrome trace events under a
    // fresh trace id, so the file holds exactly one sweep's spans.
    let export_root = recorder.root_span("export_sweep");
    let trace_id = export_root.trace_id();
    let export = sweep_with_trace(export_root.link());
    std::hint::black_box(export.run_sharded(threads));
    export_root.finish();
    let spans = recorder.spans_for(trace_id);
    assert!(
        spans.iter().any(|s| s.name == "pipeline") && spans.iter().any(|s| s.name == "dimension"),
        "traced sweep must record pipeline spans"
    );
    let events: Vec<polytops_obs::ChromeEvent> = spans.iter().map(Into::into).collect();
    let chrome = polytops_obs::chrome_trace(&events);
    let out = std::env::var("BENCH_TRACE_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/observability_trace.json"
        )
        .to_string()
    });
    std::fs::write(&out, &chrome).expect("write Chrome trace");
    println!(
        "wrote {} spans ({} bytes) of Chrome trace to {out}",
        spans.len(),
        chrome.len()
    );

    let path = report::default_path();
    report::update_section(
        &path,
        "observability",
        object([
            ("threads", int(threads)),
            ("untraced_sweep_ns", int(untraced_ns as i64)),
            ("traced_sweep_ns", int(traced_ns as i64)),
            ("overhead_ratio", ratio(overhead)),
            ("spans_per_sweep", int(spans.len())),
            ("chrome_export_bytes", int(chrome.len())),
        ]),
    );
    println!("updated {path} (observability section)");
}
