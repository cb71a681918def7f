//! The offline sweep workloads, `sweep_ilp` and `sweep_post`.
//!
//! One *pass* is what an autotuner pays per sweep: SCoP text →
//! `parse_scop` → dependence analysis → the whole set through the
//! scenario engine → certification by the independent oracle → `emit_c`.
//! Nothing carries over between passes. The timed passes run the set on
//! the engine's pool (`run_sharded`, `min(nproc, 4)` threads) and are
//! read in reference seconds (see `probe`); the traced run uses
//! `run_sequential` and the wall clock, so that layer times add up to
//! wall time, plus one traced pool pass for the `core.pool_*` metrics.

use std::time::Instant;

use polytops_core::scenario::{ScenarioResult, ScenarioSet};
use polytops_core::{EngineOptions, PipelineStats, SchedulerConfig};
use polytops_deps::{analyze, Dependence};
use polytops_ir::{parse_scop, Schedule, ScheduleTree, Scop};
use polytops_obs::{Recorder, SpanHandle};

use crate::gen::SweepSet;
use crate::metrics::{geomean, peak_rss_mb, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::probe::{self, Probe, Took};
use crate::spans::{self, Span};
use crate::stats::Samples;
use crate::RunOptions;

struct Inputs {
    /// `(kernel name, polyscop text)`.
    texts: Vec<(String, String)>,
    grid: Vec<(&'static str, SchedulerConfig)>,
}

impl Inputs {
    fn new(set: &SweepSet, seed: u64) -> Inputs {
        Inputs {
            texts: set.texts(seed),
            grid: set.grid.clone(),
        }
    }
}

/// What one scenario of a pass produced.
struct Op {
    /// Index of the SCoP in [`Pass::scops`].
    scop: usize,
    /// The certified schedule and its generated C; `None` marks a failed
    /// op.
    output: Option<(Schedule, String)>,
    stats: PipelineStats,
}

struct Pass {
    scops: Vec<Scop>,
    deps: Vec<Vec<Dependence>>,
    ops: Vec<Op>,
    text_bytes: usize,
    certify_queries: usize,
    /// Wall seconds from the first byte parsed to the last line emitted.
    wall_s: f64,
}

impl Pass {
    /// Ops whose output is missing or differs from `reference`'s: the
    /// engine is deterministic, so a later pass that disagrees with the
    /// first is a wrong answer.
    fn failed_against(&self, reference: &Pass) -> u64 {
        self.ops
            .iter()
            .zip(&reference.ops)
            .filter(|(op, want)| op.output.is_none() || op.output != want.output)
            .count() as u64
    }
}

/// Runs one pass: on the calling thread (`pool` is `None`) or on a pool
/// of that many threads. Spans are recorded under `root`, which is inert
/// in the timed runs.
fn pass(inputs: &Inputs, pool: Option<usize>, root: &SpanHandle) -> Pass {
    let t0 = Instant::now();
    let mut scops = Vec::new();
    let mut deps = Vec::new();
    let mut text_bytes = 0;
    for (_, text) in &inputs.texts {
        text_bytes += text.len();
        let scop = {
            let _span = root.child("ir.parse");
            parse_scop(text).expect("generated SCoP text parses")
        };
        // The analysis the oracle certifies against. The engine repeats
        // it for its own use, once per kernel; that copy shows as engine
        // time.
        let _span = root.child("deps.analyze");
        deps.push(analyze(&scop));
        scops.push(scop);
    }

    let results: Vec<ScenarioResult> = {
        let run_span = root.child("core.run");
        let mut set = ScenarioSet::new();
        for ((name, _), scop) in inputs.texts.iter().zip(&scops) {
            let id = set.add_scop(name.clone(), scop.clone());
            for (config_name, config) in &inputs.grid {
                let options = EngineOptions {
                    trace: run_span.link(),
                    ..EngineOptions::default()
                };
                set.add_scenario_with_options(
                    id,
                    format!("{name}/{config_name}"),
                    config.clone(),
                    options,
                );
            }
        }
        match pool {
            None => set.run_sequential(),
            Some(threads) => set.run_sharded(threads),
        }
    };

    let mut certify_queries = 0;
    let mut ops = Vec::with_capacity(results.len());
    for (i, result) in results.into_iter().enumerate() {
        let scop = i / inputs.grid.len();
        ops.push(match result {
            Err(_) => Op {
                scop,
                output: None,
                stats: PipelineStats::default(),
            },
            Ok(report) => {
                certify_queries += deps[scop].len();
                let certified = {
                    let _span = root.child("deps.certify");
                    polytops_server::protocol::certify(&deps[scop], &report)
                };
                let code = {
                    let _span = root.child("codegen.emit_c");
                    polytops_codegen::emit_c(&scops[scop], &report.schedule).ok()
                };
                Op {
                    scop,
                    output: code.filter(|_| certified).map(|c| (report.schedule, c)),
                    stats: report.stats,
                }
            }
        });
    }
    Pass {
        scops,
        deps,
        ops,
        text_bytes,
        certify_queries,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Model cycles of every certified schedule of a pass, in scenario
/// order (which is fixed, so the geometric mean repeats exactly).
fn model_cycles(pass: &Pass, root: &SpanHandle) -> Vec<f64> {
    pass.ops
        .iter()
        .filter_map(|op| {
            let (sched, _) = op.output.as_ref()?;
            let _span = root.child("machine.score");
            Some(crate::model_cycles(&pass.scops[op.scop], sched))
        })
        .collect()
}

/// Runs a sweep workload in the mode `opts` asks for.
pub fn run(workload: &str, set: &SweepSet, opts: &RunOptions) -> Outcome {
    if opts.trace {
        traced(workload, set, opts)
    } else {
        timed(set, opts)
    }
}

fn timed(set: &SweepSet, opts: &RunOptions) -> Outcome {
    let inert = SpanHandle::disabled();
    let pool = Some(opts.threads);
    let mut probe = Probe::start(opts.threads);
    // Set-up: generate the texts, run the reference pass (which is also
    // the warm-up) and score it. Repeated, because one set-up is a noisy
    // sample of a bounded metric.
    let mut setups: Vec<Took> = Vec::new();
    let mut state = None;
    while opts.repeat_setup(setups.len(), setups.iter().map(|t| t.wall_s).sum()) {
        let (built, took) = probe.time(|| {
            let inputs = Inputs::new(set, opts.seed);
            let reference = pass(&inputs, pool, &inert);
            let cycles = model_cycles(&reference, &inert);
            (inputs, reference, cycles)
        });
        setups.push(took);
        state = Some(built);
    }
    let (inputs, reference, cycles) = state.expect("at least one set-up");

    let mut failed = reference.failed_against(&reference);
    let mut passes: Vec<Took> = Vec::new();
    let start = Instant::now();
    while passes.len() < opts.min_passes()
        || start.elapsed().as_secs_f64() < opts.measured_seconds()
    {
        let (p, took) = probe.time(|| pass(&inputs, pool, &inert));
        failed += p.failed_against(&reference);
        passes.push(took);
    }
    let scenarios = reference.ops.len();
    let attempted = (scenarios * (passes.len() + 1)) as u64;
    let walls = Samples::new(passes.iter().map(|t| t.wall_s).collect());
    let passes = Samples::new(passes.iter().map(|t| t.ref_s).collect());
    let spins = Samples::new(probe.samples.iter().map(|s| s * 1e3).collect());
    eprintln!("pass, wall:      {}", walls.describe("s"));
    eprintln!("pass, reference: {}", passes.describe("s"));
    eprintln!("probe spin:      {}", spins.describe("ms"));

    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set(
        "setup_s",
        Samples::new(setups.iter().map(|t| t.ref_s).collect()).median(),
    );
    metrics.set("schedules_per_s", scenarios as f64 / passes.median());
    // A sweep user waits for a pass, so a pass is the request here; with
    // a few dozen passes at most, the percentile rule caps p95 at the
    // median (see `stats::tail_quantile`).
    metrics.set("request_p50_ms", passes.median() * 1e3);
    metrics.set("request_p95_ms", passes.capped_quantile(0.95).1 * 1e3);
    metrics.set("ok_share", Outcome::ok_share(attempted, failed));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("model_cycles_geomean", geomean(&cycles));
    Outcome {
        attempted,
        failed,
        valid: true,
        metrics,
    }
}

/// One traced pass: its spans, histogram sums and result.
struct TracedPass {
    spans: Vec<Span>,
    pin_eq_ms: f64,
    eliminate_ms: f64,
    queue_wait_ms: f64,
    pass: Pass,
}

fn traced_pass(inputs: &Inputs, pool: Option<usize>) -> TracedPass {
    let recorder = Recorder::with_capacity(true, 1 << 20);
    let root = recorder.root_span("pass");
    let result = pass(inputs, pool, &root);
    root.finish();
    let hist_ms = |name: &str| recorder.histogram(name).snapshot().sum_ns as f64 / 1e6;
    TracedPass {
        spans: recorder.recent_spans().iter().map(Span::from).collect(),
        pin_eq_ms: hist_ms("simplex.pin_eq_ns"),
        eliminate_ms: hist_ms("farkas.eliminate_ns"),
        queue_wait_ms: hist_ms("pool.queue_wait_ns"),
        pass: result,
    }
}

/// Layers no sweep reaches.
const UNREACHED: [&str; 23] = [
    "core.canonicalize_ms",
    "core.registry_resolve_hit_ms",
    "core.registry_resolve_miss_ms",
    "core.registry_hits",
    "core.registry_misses",
    "core.registry_evictions",
    "server.parse_request_ms",
    "server.read_ms",
    "server.admission_ms",
    "server.solve_ms",
    "server.serialize_ms",
    "server.write_ms",
    "server.request_self_ms",
    "server.request_ms",
    "server.request_p99_ms",
    "server.batches",
    "server.batch_size_mean",
    "server.request_bytes",
    "server.response_bytes",
    "server.journal_events",
    "server.rotations",
    "server.persist_append_ms",
    "server.persist_fsync_ms",
];

fn traced(workload: &str, set: &SweepSet, opts: &RunOptions) -> Outcome {
    let inert = SpanHandle::disabled();
    let spin_before = probe::sample(opts.threads);
    let inputs = Inputs::new(set, opts.seed);
    let reference = pass(&inputs, None, &inert);
    let mut failed = reference.failed_against(&reference);

    // Alternate untraced and traced passes, so both see the same
    // machine; a pool pass and the probes follow, so keep a third of the
    // time for them.
    let start = Instant::now();
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced_runs: Vec<TracedPass> = Vec::new();
    while traced_runs.len() < opts.min_passes().min(2)
        || (start.elapsed().as_secs_f64() < opts.measured_seconds() * 0.66 && traced_runs.len() < 5)
    {
        let plain = pass(&inputs, None, &inert);
        failed += plain.failed_against(&reference);
        untraced.push(plain.wall_s);
        let run = traced_pass(&inputs, None);
        failed += run.pass.failed_against(&reference);
        traced_runs.push(run);
    }
    let traced_s = Samples::new(traced_runs.iter().map(|r| r.pass.wall_s).collect());
    let untraced_s = Samples::new(untraced);
    let attempted = ((2 * traced_runs.len() + 2) * reference.ops.len()) as u64;
    // Layer times come from the traced pass nearest the median.
    traced_runs.sort_by(|a, b| a.pass.wall_s.total_cmp(&b.pass.wall_s));
    let run = traced_runs.swap_remove((traced_runs.len() - 1) / 2);
    let t = spans::times(&run.spans);

    let mut m = Metrics::new(&PER_LAYER);
    m.unreached(&UNREACHED);
    m.set("ir.parse_ms", t.own_ms("ir.parse"));
    m.set("ir.scop_text_bytes", run.pass.text_bytes as f64);
    m.set("deps.analyze_ms", t.own_ms("deps.analyze"));
    m.set(
        "deps.dependences",
        run.pass.deps.iter().map(Vec::len).sum::<usize>() as f64,
    );
    m.set("deps.certify_ms", t.own_ms("deps.certify"));
    m.set("deps.certify_queries", run.pass.certify_queries as f64);
    m.set("math.pin_eq_ms", run.pin_eq_ms);
    m.set("math.farkas_eliminate_ms", run.eliminate_ms);
    m.set("core.engine_ms", t.own_ms("core.run"));
    set_engine_times(&mut m, &t);
    m.set("codegen.emit_c_ms", t.own_ms("codegen.emit_c"));
    set_pipeline_counts(&mut m, run.pass.ops.iter().map(|op| &op.stats));
    m.set(
        "codegen.code_bytes",
        run.pass
            .ops
            .iter()
            .filter_map(|op| op.output.as_ref())
            .map(|(_, code)| code.len())
            .sum::<usize>() as f64,
    );

    // Probes: public calls on the pass's outputs that the pass itself
    // makes only inside other calls.
    let recorder = Recorder::with_capacity(true, 1 << 16);
    let probes = recorder.root_span("probes");
    let (mut loops, mut guards) = (0, 0);
    for op in &run.pass.ops {
        let Some((sched, _)) = &op.output else {
            continue;
        };
        {
            let _span = probes.child("ir.tree_lower");
            std::hint::black_box(ScheduleTree::lower(sched));
        }
        let ast = {
            let _span = probes.child("codegen.generate");
            polytops_codegen::generate(&run.pass.scops[op.scop], sched)
        };
        if let Ok(ast) = ast {
            let s = polytops_codegen::stats(&ast);
            loops += s.loops;
            guards += s.guards;
        }
    }
    std::hint::black_box(model_cycles(&run.pass, &probes));
    probes.finish();
    let probe_spans: Vec<Span> = recorder.recent_spans().iter().map(Span::from).collect();
    let p = spans::times(&probe_spans);
    m.set("ir.tree_lower_ms", p.own_ms("ir.tree_lower"));
    m.set("codegen.generate_ms", p.own_ms("codegen.generate"));
    m.set("codegen.loops", loops as f64);
    m.set("codegen.guards", guards as f64);
    m.set("machine.score_ms", p.own_ms("machine.score"));

    // The pool: the whole set at once, at the thread count a sweep user
    // would give it.
    let pool = traced_pass(&inputs, Some(opts.threads));
    failed += pool.pass.failed_against(&reference);
    let pt = spans::times(&pool.spans);
    let pool_wall = pt.total_ms("core.run");
    let workers = opts.threads.clamp(1, reference.ops.len().max(1));
    m.set("core.pool_wall_ms", pool_wall);
    m.set(
        "core.pool_busy_ratio",
        pt.total_ms("job") / (workers as f64 * pool_wall).max(f64::MIN_POSITIVE),
    );
    m.set("core.pool_queue_wait_ms", pool.queue_wait_ms);

    let wall_ms = run.pass.wall_s * 1e3;
    let layer_self: f64 = t
        .own
        .iter()
        .filter(|(name, _)| name.as_str() != "pass")
        .map(|(_, ms)| ms)
        .sum();
    m.set(
        "obs.box_spin_ms",
        (spin_before + probe::sample(opts.threads)) / 2.0 * 1e3,
    );
    m.set("obs.spans", run.spans.len() as f64);
    m.set("obs.traced_wall_ms", wall_ms);
    m.set("obs.untraced_wall_ms", untraced_s.median() * 1e3);
    m.set(
        "obs.trace_overhead_ratio",
        traced_s.median() / untraced_s.median(),
    );
    m.set("obs.layer_self_ms", layer_self);
    m.set("obs.coverage_ratio", layer_self / wall_ms);
    m.set("obs.traced_ops", run.pass.ops.len() as f64);

    let mut all = run.spans;
    all.extend(probe_spans);
    match spans::write_chrome(&opts.out_dir, workload, &all) {
        Ok(path) => eprintln!("trace: {path}"),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    Outcome {
        attempted,
        failed,
        valid: true,
        metrics: m,
    }
}

/// Self times of the engine's own spans, which read the same whether the
/// bench or the daemon bound the recorder.
pub fn set_engine_times(m: &mut Metrics, t: &spans::Times) {
    m.set("math.ilp_solve_ms", t.own_ms("ilp_solve"));
    m.set(
        "core.pipeline_ms",
        t.own_ms("job") + t.own_ms("pipeline") + t.own_ms("dimension"),
    );
    m.set("core.legality_ms", t.own_ms("legality"));
    m.set("core.objectives_ms", t.own_ms("objectives"));
    m.set("core.fast_path_ms", t.own_ms("fast_path"));
    m.set("core.postprocess_ms", t.own_ms("postprocess"));
}

/// Sums the solver and cache counters of a set of runs into `m`.
fn set_pipeline_counts<'a>(m: &mut Metrics, stats: impl Iterator<Item = &'a PipelineStats>) {
    let mut hits = 0;
    let mut misses = 0;
    for s in stats {
        m.add("math.lp_stages", s.ilp.lp_stages as f64);
        m.add("math.bb_nodes", s.ilp.nodes as f64);
        m.add("math.dual_pivots", s.ilp.dual_pivots as f64);
        m.add("math.phase1_passes", s.ilp.phase1_passes as f64);
        m.add("math.fractional_stages", s.ilp.fractional_stages as f64);
        m.add("core.dimensions", s.dimensions as f64);
        m.add("core.fast_path_dims", s.fast_path_dims as f64);
        m.add("core.fast_path_fallbacks", s.fast_path_fallbacks as f64);
        hits += s.farkas_hits;
        misses += s.farkas_misses;
    }
    m.set("core.farkas_hits", hits as f64);
    m.set("core.farkas_misses", misses as f64);
    m.set(
        "core.farkas_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}
