//! The daemon workloads, `serve_warm` and `serve_churn`.
//!
//! Both run an in-process `polytopsd` (`Server::start`, default 2 ms
//! admission window, persistence on) and load it in a closed loop: one
//! client connection sends its next request only after the previous
//! reply, as a compiler waiting for its schedule does.
//!
//! The timed phase is made steady in five ways (the README has the
//! measurements behind each). One client, not one per core: two clients
//! beside the daemon's threads are more runnable threads than the box
//! has cores, and which requests share an admission window is then the
//! operating system's choice. One CPU (see `pin_to_one_cpu`). Rounds: the stream repeats the same kinds
//! of request in the same order, each round is timed on its own, and a
//! metric is the median over the rounds. Reference time: the
//! computing in a round is read against the speed probe's samples at the
//! round's two ends (see `probe`); the admission window, which a lone
//! client's request waits out in full and which is a timer, not
//! computing, stays as it is. And the time the daemon waits in `fsync`
//! is left out of every round trip: on the shared disk its median went
//! from 0.3 ms to 1.3 ms, and its 95th percentile from 1 ms to 14 ms,
//! between one two-second window and the next. The traced run reports
//! it as `server.persist_fsync_ms`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use polytops_core::json::{self, Json};
use polytops_core::registry::{canonical_text, ScopRegistry};
use polytops_core::scenario::ScenarioSet;
use polytops_deps::analyze;
use polytops_ir::{parse_scop, print_scop};
use polytops_obs::Recorder;
use polytops_server::protocol::{self, Request, ScheduleRequest};
use polytops_server::{Client, Server, ServerConfig, ServerHandle};

use crate::gen;
use crate::metrics::{geomean, peak_rss_mb, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::probe::{self, Probe, Took};
use crate::spans::{self, Span};
use crate::stats::Samples;
use crate::sweep::set_engine_times;
use crate::RunOptions;

/// Which daemon path a workload stays on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request is a registry hit: the read path.
    Warm,
    /// Every request is a structurally new SCoP: the write path
    /// (analysis, Farkas elimination, journal fsync, LRU eviction).
    Churn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "serve_warm",
            Kind::Churn => "serve_churn",
        }
    }
}

/// Registry bound of the `serve_churn` daemon: far below the number of
/// SCoPs it sees, so eviction is on the path.
const CHURN_CAPACITY: usize = 32;
/// Requests of the traced single-client run.
const TRACED_REQUESTS: usize = 200;
/// Times a round of `serve_warm` sends each of its kinds: 216 requests
/// a round, so that a round's p95 has ten samples beyond it.
const WARM_ROUND_REPS: usize = 24;
/// Class units (of twelve requests) in a round of `serve_churn`.
const CHURN_ROUND_REPS: usize = 10;
/// Fewest timed rounds whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Requests of a `--smoke` run, over all clients; the traced smoke run
/// sends half to each of its two daemons.
const SMOKE_REQUESTS: usize = 20;
/// `serve_churn` checks every Nth response against the offline engine.
const CHURN_SAMPLE_EVERY: usize = 16;

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn start(kind: Kind, opts: &RunOptions, trace: bool, tag: &str) -> Daemon {
        let dir = opts.out_dir.join(format!(
            "{}-{}-{tag}.snapshots",
            kind.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("snapshot directory inside the checkout");
        let mut config = ServerConfig {
            threads: opts.threads,
            snapshot_dir: Some(dir.display().to_string()),
            trace,
            ..ServerConfig::default()
        };
        if kind == Kind::Churn {
            config.registry_capacity = CHURN_CAPACITY;
        }
        let handle = Server::start(config).expect("daemon binds an ephemeral loopback port");
        Daemon { handle, dir }
    }

    fn connect(&self) -> Client {
        Client::connect_retry(self.handle.addr(), Duration::from_secs(5)).expect("connect")
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------
// Reference results and response checks
// ---------------------------------------------------------------------

fn schedule_request(line: &str) -> ScheduleRequest {
    match protocol::parse_request(line) {
        Ok(Request::Schedule(req)) => *req,
        other => panic!("generated line is not a schedule request: {other:?}"),
    }
}

/// The offline engine's `results` bytes for a request line: what the
/// daemon must reproduce bit for bit on the same commit.
fn offline_bytes(line: &str) -> String {
    protocol::offline_results(&schedule_request(line)).compact()
}

/// The workload's fixed probe set: each request line with its offline
/// result bytes, plus the model cycles of the offline schedules. A reply
/// that matches the bytes carries the schedule that was scored. On
/// `serve_warm` the probe set is also the whole request population.
struct Reference {
    lines: Vec<String>,
    want: Vec<String>,
    cycles: Vec<f64>,
}

fn reference(kind: Kind, smoke: bool) -> Reference {
    let kinds = match kind {
        Kind::Warm => gen::warm_kinds(),
        Kind::Churn if smoke => gen::churn_probe_kinds(gen::CHURN_PROBES / 4),
        Kind::Churn => gen::churn_probe_kinds(gen::CHURN_PROBES),
    };
    let lines = gen::probe_lines(&kinds);
    let want = lines.iter().map(|l| offline_bytes(l)).collect();
    let cycles = kinds
        .into_iter()
        .map(|(name, scop, preset)| {
            let mut set = ScenarioSet::new();
            let id = set.add_scop(name, scop.clone());
            let config = protocol::preset_by_name(preset).expect("known preset");
            set.add_scenario(id, preset, config);
            let report = set
                .run_sequential()
                .pop()
                .expect("one scenario")
                .expect("the probe set schedules");
            crate::model_cycles(&scop, &report.schedule)
        })
        .collect();
    Reference {
        lines,
        want,
        cycles,
    }
}

/// What a well-formed, all-certified response carries.
struct Reply {
    hit: bool,
    results: String,
    /// The per-scenario `pipeline` stats objects.
    stats: Vec<Json>,
}

/// Parses a response; `None` when it is not `ok` or any scenario is not
/// `ok` and `certified`.
fn check_reply(text: &str) -> Option<Reply> {
    let doc = json::parse(text).ok()?;
    let obj = doc.as_object()?;
    if obj.get("ok")?.as_bool()? {
        let results = obj.get("results")?;
        for r in results.as_array()? {
            let r = r.as_object()?;
            if !(r.get("ok")?.as_bool()? && r.get("certified")?.as_bool()?) {
                return None;
            }
        }
        let stats = obj
            .get("stats")?
            .as_array()?
            .iter()
            .filter_map(|s| s.as_object()?.get("pipeline").cloned())
            .collect();
        return Some(Reply {
            hit: obj.get("registry")?.as_object()?.get("hit")?.as_bool()?,
            results: results.compact(),
            stats,
        });
    }
    None
}

/// Sends the probe set once and checks every reply against the offline
/// bytes; returns how many failed. On `serve_warm` this is the preload.
fn send_probe_set(client: &mut Client, reference: &Reference) -> u64 {
    let mut failed = 0;
    for (line, want) in reference.lines.iter().zip(&reference.want) {
        let ok = client
            .roundtrip(line)
            .ok()
            .and_then(|r| check_reply(&r))
            .is_some_and(|reply| &reply.results == want);
        failed += u64::from(!ok);
    }
    failed
}

/// Daemon start, probe set (with its offline reference) and one warm-up
/// pass: everything `setup_s` covers. Returns the probe failures.
fn set_up(kind: Kind, opts: &RunOptions, trace: bool, tag: &str) -> (Daemon, Reference, u64) {
    let reference = reference(kind, opts.smoke);
    let daemon = Daemon::start(kind, opts, trace, tag);
    let mut client = daemon.connect();
    let mut failed = send_probe_set(&mut client, &reference);
    match kind {
        Kind::Warm => failed += send_probe_set(&mut client, &reference),
        Kind::Churn => {
            let warm_up = if opts.smoke {
                CHURN_CAPACITY / 4
            } else {
                CHURN_CAPACITY
            };
            for i in 0..warm_up {
                let class = gen::CHURN_ROUND_UNIT[i % gen::CHURN_ROUND_UNIT.len()];
                let line = gen::churn_request(opts.seed, 1, i, class);
                let ok = client.roundtrip(&line).ok().and_then(|r| check_reply(&r));
                failed += u64::from(ok.is_none());
            }
        }
    }
    (daemon, reference, failed)
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// What the client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Wall milliseconds around each `Client::roundtrip` that got a reply.
    round_trips: Vec<f64>,
    /// Timed `serve_churn` run only: milliseconds of each of those round
    /// trips that the daemon spent waiting for the disk to flush.
    flushes: Vec<f64>,
    attempted: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    request_bytes: u64,
    response_bytes: u64,
    /// `serve_churn`: `(ordinal, results bytes)` of the sampled replies.
    samples: Vec<(usize, String)>,
    /// Traced run only: per request, whether it hit the registry, and
    /// its `pipeline` stats objects.
    hit_flags: Vec<bool>,
    stats: Vec<Json>,
    /// Traced run only: the daemon's spans of every request.
    spans: Vec<Span>,
}

/// What the client asks the daemon between two requests.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Extra {
    Nothing,
    /// How long the last request waited for the disk (`stats` op).
    FlushWaits,
    /// The last request's spans (`trace` op).
    Traces,
}

/// Milliseconds the daemon has spent in `fsync` on its journal so far.
fn flush_wait_ms(conn: &mut Client) -> f64 {
    histogram_ms(&conn.stats().expect("stats op"), "persist.fsync_ns")
}

/// The requests of one round, which every round of a run repeats.
enum Round {
    /// Probe-set slots: the same requests every round.
    Warm(Vec<usize>),
    /// Request classes: new requests of the same classes every round.
    Churn(Vec<gen::ChurnClass>),
}

/// The request stream of a run, which one client sends.
struct Load<'a> {
    seed: u64,
    round: Round,
    reference: &'a Reference,
}

impl<'a> Load<'a> {
    fn new(kind: Kind, opts: &RunOptions, reference: &'a Reference) -> Load<'a> {
        let round = match kind {
            Kind::Warm => Round::Warm(gen::warm_round(
                opts.seed,
                reference.lines.len(),
                WARM_ROUND_REPS,
            )),
            Kind::Churn => Round::Churn(gen::churn_round(opts.seed, CHURN_ROUND_REPS)),
        };
        Load {
            seed: opts.seed,
            round,
            reference,
        }
    }

    fn round_len(&self) -> usize {
        match &self.round {
            Round::Warm(slots) => slots.len(),
            Round::Churn(classes) => classes.len(),
        }
    }

    /// Request `ordinal` of the stream, with the probe-set slot it must
    /// match (`serve_warm` only).
    fn line(&self, ordinal: usize) -> (String, Option<usize>) {
        match &self.round {
            Round::Warm(slots) => {
                let pick = slots[ordinal % slots.len()];
                (self.reference.lines[pick].clone(), Some(pick))
            }
            Round::Churn(classes) => {
                let class = classes[ordinal % classes.len()];
                (gen::churn_request(self.seed, 0, ordinal, class), None)
            }
        }
    }

    /// The closed loop: requests `first..first + count` of the stream,
    /// each sent when the reply to the one before has come. Latency is
    /// measured around `Client::roundtrip` alone; generating the next
    /// line, checking the last reply and whatever `extra` asks for are
    /// the client's think time.
    fn drive(&self, conn: &mut Client, first: usize, count: usize, extra: Extra) -> ClientLog {
        let mut log = ClientLog::default();
        let mut flushed_ms = match extra {
            Extra::FlushWaits => flush_wait_ms(conn),
            _ => 0.0,
        };
        for ordinal in first..first + count {
            let (line, slot) = self.line(ordinal);
            let t0 = Instant::now();
            let response = conn.roundtrip(&line);
            let took_ms = t0.elapsed().as_secs_f64() * 1e3;
            log.attempted += 1;
            let Ok(response) = response else {
                // The connection is gone; a closed loop cannot go on.
                log.failed += 1;
                break;
            };
            log.round_trips.push(took_ms);
            log.request_bytes += line.len() as u64 + 1;
            log.response_bytes += response.len() as u64 + 1;
            if extra == Extra::FlushWaits {
                let now = flush_wait_ms(conn);
                log.flushes.push(now - flushed_ms);
                flushed_ms = now;
            }
            let Some(reply) = check_reply(&response) else {
                log.failed += 1;
                continue;
            };
            if reply.hit {
                log.hits += 1;
            } else {
                log.misses += 1;
            }
            match slot {
                Some(pick) if reply.results != self.reference.want[pick] => log.failed += 1,
                None if ordinal % CHURN_SAMPLE_EVERY == 0 => {
                    log.samples.push((ordinal, reply.results));
                }
                _ => {}
            }
            if extra == Extra::Traces {
                log.hit_flags.push(reply.hit);
                log.stats.extend(reply.stats);
                match conn
                    .roundtrip_json(r#"{"op":"trace"}"#)
                    .map_err(|e| e.to_string())
                    .and_then(|t| spans::from_trace_response(&t))
                {
                    Ok(found) => log.spans.extend(found),
                    Err(e) => eprintln!("request {ordinal}: no trace: {e}"),
                }
            }
        }
        log
    }

    /// Replays the sampled `serve_churn` replies through the offline
    /// engine; returns how many differ.
    fn verify_samples(&self, samples: &[(usize, String)]) -> u64 {
        samples
            .iter()
            .filter(|(ordinal, got)| offline_bytes(&self.line(*ordinal).0) != *got)
            .count() as u64
    }
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// Confines this process, so the client, the daemon and its pool, to
/// the first CPU it may use; threads started later inherit that.
///
/// A closed loop of one client keeps one thread busy at a time and hands
/// over between threads several times a request. On the 2-vCPU VM this
/// was written on, the host sometimes runs both vCPUs on one core and
/// sometimes on two: a wake-up across CPUs then took 4–7 µs or 35–55 µs
/// (400 µs at worst), and `serve_churn` read 96–102 or 84–90 schedules a
/// second by that alone, with the speed probe reading the same.
fn pin_to_one_cpu() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let first_cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next())
        .unwrap_or("0");
    let pinned = Command::new("taskset")
        .args(["-a", "-cp", first_cpu, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !pinned {
        eprintln!("`taskset` did not pin this process: wake-ups across CPUs will show");
    }
}

/// Runs a serve workload in the mode `opts` asks for.
pub fn run(kind: Kind, opts: &RunOptions) -> Outcome {
    pin_to_one_cpu();
    if opts.trace {
        traced(kind, opts)
    } else {
        timed(kind, opts)
    }
}

/// One timed round in reference time: its requests' round trips, and
/// the seconds from its first request to its last reply.
struct RoundTimes {
    round_trips: Samples,
    busy_s: f64,
}

fn timed(kind: Kind, opts: &RunOptions) -> Outcome {
    // One spinning thread, as the closed loop keeps one thread busy.
    let mut probe = Probe::start(1);
    let mut setups: Vec<Took> = Vec::new();
    let mut state = None;
    while opts.repeat_setup(setups.len(), setups.iter().map(|t| t.wall_s).sum()) {
        if let Some((daemon, _, _)) = state.take() {
            Daemon::stop(daemon);
        }
        let tag = format!("timed{}", setups.len());
        let (built, took) = probe.time(|| set_up(kind, opts, false, &tag));
        setups.push(took);
        state = Some(built);
    }
    let (daemon, reference, setup_failed) = state.expect("at least one set-up");

    let load = Load::new(kind, opts, &reference);
    let mut conn = daemon.connect();
    let per_round = if opts.smoke {
        SMOKE_REQUESTS
    } else {
        load.round_len()
    };
    let extra = match kind {
        Kind::Warm => Extra::Nothing,
        Kind::Churn => Extra::FlushWaits,
    };
    let window_ms = ServerConfig::default().window_ms as f64;
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut rounds: Vec<RoundTimes> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.measured_seconds());
    loop {
        let first = logs.len() * per_round;
        let (log, took) = probe.time(|| load.drive(&mut conn, first, per_round, extra));
        // Computing is read at the probe's speed. The admission timer and
        // the disk are not computing: a lone client's request waits out
        // one whole window, which stays as it is, and its wait for the
        // disk is left out.
        let scale = took.ref_s / took.wall_s;
        let reference_ms = |wall_ms: f64, waits_ms: f64, windows: usize| {
            let timer_ms = windows as f64 * window_ms;
            (wall_ms - waits_ms - timer_ms) * scale + timer_ms
        };
        // One entry per round trip on `serve_churn`, none on `serve_warm`.
        let flushes = log.flushes.iter().chain(std::iter::repeat(&0.0));
        rounds.push(RoundTimes {
            round_trips: Samples::new(
                log.round_trips
                    .iter()
                    .zip(flushes)
                    .map(|(&ms, &flush)| reference_ms(ms, flush, 1))
                    .collect(),
            ),
            busy_s: reference_ms(
                took.wall_s * 1e3,
                log.flushes.iter().sum(),
                log.round_trips.len(),
            ) / 1e3,
        });
        logs.push(log);
        // Stop where another round would end past the deadline.
        let over = Instant::now() + Duration::from_secs_f64(took.wall_s) > deadline;
        if opts.smoke || rounds.len() >= MIN_ROUNDS && over {
            break;
        }
    }
    drop(conn);
    Daemon::stop(daemon);

    let sum = |field: fn(&ClientLog) -> u64| logs.iter().map(field).sum::<u64>();
    let (attempted, hits, misses) = (sum(|l| l.attempted), sum(|l| l.hits), sum(|l| l.misses));
    let mut failed = setup_failed + sum(|l| l.failed);
    for log in &logs {
        failed += load.verify_samples(&log.samples);
    }
    // The property each workload exists for.
    let valid = match kind {
        Kind::Warm => misses == 0,
        Kind::Churn => hits == 0,
    };
    if !valid {
        eprintln!(
            "{}: off its path ({hits} hits, {misses} misses)",
            kind.name()
        );
    }

    // Each metric is the median over the rounds, which send the same
    // kinds of request in the same order and are each read at the box's
    // speed at the time, so a round the neighbours disturbed does not
    // move it.
    let over_rounds = |of: &dyn Fn(&RoundTimes) -> f64| -> Samples {
        Samples::new(rounds.iter().map(of).collect())
    };
    let round_s = over_rounds(&|r| r.busy_s);
    let p50 = over_rounds(&|r| r.round_trips.median());
    let p95 = over_rounds(&|r| r.round_trips.quantile(0.95));
    let flushes = Samples::new(
        logs.iter()
            .flat_map(|l| l.flushes.iter().copied())
            .collect(),
    );
    let spins = Samples::new(probe.samples.iter().map(|s| s * 1e3).collect());
    eprintln!(
        "{} rounds of {per_round} requests, {hits} hits, {misses} misses",
        rounds.len()
    );
    eprintln!("in reference time, disk waits left out:");
    eprintln!("  round: {}", round_s.describe("s"));
    eprintln!("  round p50: {}", p50.describe("ms"));
    eprintln!("  round p95: {}", p95.describe("ms"));
    eprintln!("disk wait per request, wall: {}", flushes.describe("ms"));
    eprintln!("probe spin: {}", spins.describe("ms"));

    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set(
        "setup_s",
        Samples::new(setups.iter().map(|t| t.ref_s).collect()).median(),
    );
    metrics.set(
        "schedules_per_s",
        per_round as f64 * Outcome::ok_share(attempted, failed) / round_s.median(),
    );
    metrics.set("request_p50_ms", p50.median());
    metrics.set("request_p95_ms", p95.median());
    metrics.set("ok_share", Outcome::ok_share(attempted, failed));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("model_cycles_geomean", geomean(&reference.cycles));
    Outcome {
        attempted,
        failed,
        valid,
        metrics,
    }
}

/// Sum in milliseconds of a daemon latency histogram, from `stats`.
fn histogram_ms(stats: &Json, name: &str) -> f64 {
    stats
        .as_object()
        .and_then(|o| o.get("obs")?.as_object()?.get("histograms")?.as_object())
        .and_then(|h| h.get(name)?.as_object()?.get("sum_ns")?.as_int())
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

fn stats_count(stats: &Json, name: &str) -> f64 {
    stats
        .as_object()
        .and_then(|o| o.get(name)?.as_int())
        .map_or(0.0, |n| n as f64)
}

fn traced(kind: Kind, opts: &RunOptions) -> Outcome {
    let n = if opts.smoke {
        SMOKE_REQUESTS / 2
    } else {
        TRACED_REQUESTS
    };
    let mut failed = 0;
    let spin_before = probe::sample(1);

    // The untraced twin: same single client, same requests.
    let (daemon, reference, setup_failed) = set_up(kind, opts, false, "untraced");
    failed += setup_failed;
    let load = Load::new(kind, opts, &reference);
    let untraced = load.drive(&mut daemon.connect(), 0, n, Extra::Nothing);
    Daemon::stop(daemon);

    let (daemon, _, setup_failed) = set_up(kind, opts, true, "traced");
    failed += setup_failed;
    let mut conn = daemon.connect();
    let stats_before = conn.stats().expect("stats op");
    let registry_before = daemon.handle.registry_stats();
    let persist_before = daemon.handle.persist_totals().expect("persistence is on");
    let log = load.drive(&mut conn, 0, n, Extra::Traces);
    let stats_after = conn.stats().expect("stats op");
    let registry_after = daemon.handle.registry_stats();
    let persist_after = daemon.handle.persist_totals().expect("persistence is on");
    drop(conn);
    Daemon::stop(daemon);
    failed += untraced.failed + log.failed;
    failed += load.verify_samples(&untraced.samples) + load.verify_samples(&log.samples);

    let t = spans::times(&log.spans);
    let mut m = Metrics::new(&PER_LAYER);
    // Codegen, tree lowering and scoring happen at the daemon's callers.
    m.unreached(&[
        "ir.tree_lower_ms",
        "codegen.emit_c_ms",
        "codegen.generate_ms",
        "codegen.loops",
        "codegen.guards",
        "codegen.code_bytes",
        "machine.score_ms",
    ]);
    m.set("server.read_ms", t.own_ms("read"));
    m.set("server.admission_ms", t.own_ms("admission"));
    m.set("server.solve_ms", t.total_ms("solve"));
    m.set("server.serialize_ms", t.own_ms("serialize"));
    m.set("server.write_ms", t.own_ms("write"));
    m.set("server.request_self_ms", t.own_ms("request"));
    m.set("server.request_ms", t.total_ms("request"));
    m.set(
        "server.request_p99_ms",
        Samples::new(t.each.get("request").cloned().unwrap_or_default()).quantile(0.99),
    );
    m.set("core.engine_ms", t.own_ms("solve"));
    set_engine_times(&mut m, &t);
    m.set("core.pool_wall_ms", t.total_ms("solve"));
    m.set(
        "core.pool_busy_ratio",
        t.total_ms("job") / t.total_ms("solve").max(f64::MIN_POSITIVE),
    );
    let delta_ms =
        |name: &str| histogram_ms(&stats_after, name) - histogram_ms(&stats_before, name);
    m.set("core.pool_queue_wait_ms", delta_ms("pool.queue_wait_ns"));
    m.set("math.pin_eq_ms", delta_ms("simplex.pin_eq_ns"));
    m.set("math.farkas_eliminate_ms", delta_ms("farkas.eliminate_ns"));
    m.set("server.persist_append_ms", delta_ms("persist.append_ns"));
    m.set("server.persist_fsync_ms", delta_ms("persist.fsync_ns"));
    let batches = stats_count(&stats_after, "batches") - stats_count(&stats_before, "batches");
    let requests = stats_count(&stats_after, "requests") - stats_count(&stats_before, "requests");
    m.set("server.batches", batches);
    m.set("server.batch_size_mean", requests / batches.max(1.0));
    m.set("server.request_bytes", log.request_bytes as f64);
    m.set("server.response_bytes", log.response_bytes as f64);
    m.set(
        "server.journal_events",
        (persist_after.journal_events - persist_before.journal_events) as f64,
    );
    m.set(
        "server.rotations",
        (persist_after.rotations - persist_before.rotations) as f64,
    );
    m.set(
        "core.registry_hits",
        (registry_after.hits - registry_before.hits) as f64,
    );
    m.set(
        "core.registry_misses",
        (registry_after.misses - registry_before.misses) as f64,
    );
    m.set(
        "core.registry_evictions",
        (registry_after.evictions - registry_before.evictions) as f64,
    );
    // Counters the daemon reports per request.
    let count = |key: &str| -> f64 {
        log.stats
            .iter()
            .filter_map(|s| s.as_object()?.get(key)?.as_int())
            .sum::<i64>() as f64
    };
    m.set("math.dual_pivots", count("dual_pivots"));
    m.set("math.phase1_passes", count("phase1_passes"));
    m.set("math.fractional_stages", count("fractional_stages"));
    m.set("core.dimensions", count("dimensions"));
    m.set("core.fast_path_dims", count("fast_path_dims"));
    m.set("core.fast_path_fallbacks", count("fast_path_fallbacks"));
    let (hits, misses) = (count("farkas_hits"), count("farkas_misses"));
    m.set("core.farkas_hits", hits);
    m.set("core.farkas_misses", misses);
    m.set("core.farkas_hit_ratio", hits / (hits + misses).max(1.0));

    let probe_spans = probe_layers(&load, &log.hit_flags, kind, &mut m);

    let traced_rt = Samples::new(log.round_trips.clone());
    let untraced_rt = Samples::new(untraced.round_trips.clone());
    let layer_self: f64 = t.own.values().sum();
    m.set(
        "obs.box_spin_ms",
        (spin_before + probe::sample(1)) / 2.0 * 1e3,
    );
    m.set("obs.spans", log.spans.len() as f64);
    m.set("obs.traced_wall_ms", traced_rt.sum());
    m.set("obs.untraced_wall_ms", untraced_rt.sum());
    m.set(
        "obs.trace_overhead_ratio",
        traced_rt.median() / untraced_rt.median(),
    );
    m.set("obs.layer_self_ms", layer_self);
    m.set("obs.coverage_ratio", layer_self / traced_rt.sum());
    m.set("obs.traced_ops", log.round_trips.len() as f64);

    let mut all = log.spans;
    all.extend(probe_spans);
    match spans::write_chrome(&opts.out_dir, kind.name(), &all) {
        Ok(path) => eprintln!("trace: {path}"),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    let valid = match kind {
        Kind::Warm => log.misses + untraced.misses == 0,
        Kind::Churn => log.hits + untraced.hits == 0,
    };
    Outcome {
        attempted: untraced.attempted + log.attempted,
        failed,
        valid,
        metrics: m,
    }
}

/// Replays, under bench spans, the public calls the daemon makes for
/// each traced request but does not span itself: request parsing,
/// canonicalization and registry resolution always, dependence analysis
/// on a registry miss, certification of every answer. Sets the matching
/// metrics and returns the spans.
fn probe_layers(load: &Load<'_>, hit_flags: &[bool], kind: Kind, m: &mut Metrics) -> Vec<Span> {
    let recorder = Recorder::with_capacity(true, 1 << 16);
    let root = recorder.root_span("probes");
    let registry = ScopRegistry::new(match kind {
        Kind::Warm => ServerConfig::default().registry_capacity,
        Kind::Churn => CHURN_CAPACITY,
    });
    if kind == Kind::Warm {
        // The daemon was preloaded; so is its stand-in.
        for line in &load.reference.lines {
            let req = schedule_request(line);
            registry.resolve(&req.name, &req.scop);
        }
    }
    // Sums that start at 0 whichever path the workload stays on.
    for name in [
        "core.registry_resolve_hit_ms",
        "core.registry_resolve_miss_ms",
        "deps.dependences",
    ] {
        m.add(name, 0.0);
    }
    for (index, &hit) in hit_flags.iter().enumerate() {
        let (line, _) = load.line(index);
        let req = {
            let _span = root.child("server.parse_request");
            schedule_request(&line)
        };
        let text = print_scop(&req.scop);
        m.add("ir.scop_text_bytes", text.len() as f64);
        {
            let _span = root.child("ir.parse");
            std::hint::black_box(parse_scop(&text).expect("round-trips"));
        }
        {
            let _span = root.child("core.canonicalize");
            std::hint::black_box(canonical_text(&req.scop));
        }
        let t0 = Instant::now();
        let (entry, resident) = registry.resolve(&req.name, &req.scop);
        let resolve_ms = t0.elapsed().as_secs_f64() * 1e3;
        m.add(
            if resident {
                "core.registry_resolve_hit_ms"
            } else {
                "core.registry_resolve_miss_ms"
            },
            resolve_ms,
        );
        if !hit {
            let _span = root.child("deps.analyze");
            std::hint::black_box(analyze(&req.scop));
        }
        let deps = entry.deps();
        if !hit {
            m.add("deps.dependences", deps.len() as f64);
        }
        let mut set = ScenarioSet::new();
        let id = set.add_resident_scop(entry);
        for spec in &req.scenarios {
            set.add_scenario(id, spec.name.clone(), spec.config.clone());
        }
        for report in set.run_sequential().into_iter().flatten() {
            {
                let _span = root.child("deps.certify");
                std::hint::black_box(protocol::certify(&deps, &report));
            }
            m.add("deps.certify_queries", deps.len() as f64);
            // The daemon's replies carry no LP-stage or node counts; this
            // replay solves the same systems, so its counts stand in.
            m.add("math.lp_stages", report.stats.ilp.lp_stages as f64);
            m.add("math.bb_nodes", report.stats.ilp.nodes as f64);
        }
    }
    root.finish();
    let spans: Vec<Span> = recorder.recent_spans().iter().map(Span::from).collect();
    let p = spans::times(&spans);
    m.set("server.parse_request_ms", p.own_ms("server.parse_request"));
    m.set("ir.parse_ms", p.own_ms("ir.parse"));
    m.set("core.canonicalize_ms", p.own_ms("core.canonicalize"));
    m.set("deps.analyze_ms", p.own_ms("deps.analyze"));
    m.set("deps.certify_ms", p.own_ms("deps.certify"));
    spans
}
