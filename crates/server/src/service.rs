//! The daemon: an acceptor with a reader and a writer thread per
//! connection, the batcher, optional registry persistence, and graceful
//! shutdown.
//!
//! Thread shape (see `docs/ARCHITECTURE.md` for the request lifecycle):
//!
//! ```text
//! acceptor thread: accepts up to max_connections, spawns per connection
//!      ▼
//! reader thread (one per connection): blocking read, \n-framed lines
//!      │  parse line → WireRequest (SCoP still text)
//!      │  ping/shutdown/errors ──► the connection's reply queue
//!      │  stats/trace ──► reply queue, answered when the writer reaches them
//!      │  schedule/autotune ──► bounded admission channel ──► batcher thread
//!      ▼
//! batcher thread: takes the first request, drains what queued while
//! the previous batch ran (up to max_batch) → one ScenarioSet (SCoP
//! texts resolved through the ScopRegistry, which parses a text only
//! when no resident entry remembers it; an autotune adds its candidate
//! lattice as untraced scenarios) → run_sharded(threads), on the
//! batcher itself when the batch is one scenario → per-request response
//! lines (an autotune's is the model's pick among its candidates), sent
//! to each request's reply queue once the persister has journaled the
//! SCoPs the batch admitted
//!      ▼
//! writer thread (one per connection): drains its reply queue in order
//! ```
//!
//! A request carries its connection's reply sender, so a response goes
//! straight to that connection's writer; no table routes it. An idle
//! connection is two blocked threads and costs no CPU.

use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polytops_core::json::Json;
use polytops_core::registry::{ScopEntry, ScopRegistry};
use polytops_core::scenario::{ScenarioResult, ScenarioSet};
use polytops_core::tune::{self, Candidate};
use polytops_ir::ParseScopError;

use crate::conn::{accept_loop, Reply};
use crate::persist::Persister;
use crate::protocol::{self, WireAutotune, WireSchedule};

/// Deterministic fault injection for the restart test harness. All
/// fields default to "no fault"; production configs never set them.
/// Faults are *scripted*, not random — the suite's assertions depend on
/// knowing exactly which batch dies.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash the daemon (drop every connection unflushed, stop all
    /// threads) immediately after the Nth batch finishes computing —
    /// after its journal events are durable, before any of its
    /// responses are queued. Models `kill -9` at the worst moment.
    pub kill_after_batches: Option<usize>,
    /// Truncate the Nth queued response (daemon-wide, 1-based) to half
    /// its bytes and then drop that connection: a client observes a
    /// torn line followed by EOF mid-response.
    pub drop_response: Option<usize>,
    /// On crash, additionally truncate the current snapshot file to
    /// this many bytes — a snapshot rotation torn by the kill.
    pub torn_snapshot_bytes: Option<u64>,
}

impl FaultPlan {
    /// True when no fault is armed (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.kill_after_batches.is_none()
            && self.drop_response.is_none()
            && self.torn_snapshot_bytes.is_none()
    }
}

/// The default [`ServerConfig::max_line_bytes`], and the line cap of
/// the [`Router`](crate::Router), which has no option for it.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 << 20;

/// Daemon configuration. Every field but `max_line_bytes` and `faults`
/// is also a `polytopsd serve` flag (`trace` as `--no-trace`; see
/// `docs/CONFIG.md`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (tests/benches).
    pub addr: String,
    /// Extra hold in milliseconds: how long the batcher keeps a batch
    /// open after taking its first request. With the default `0` a
    /// batch is the first request plus whatever queued while the
    /// previous batch ran, and an idle daemon dispatches at once.
    pub window_ms: u64,
    /// Maximum requests per batch (a full batch runs without waiting).
    pub max_batch: usize,
    /// Worker threads for the scenario engine's work-stealing pool,
    /// which runs every batch: schedule and autotune requests alike.
    pub threads: usize,
    /// LRU bound of the SCoP registry (resident SCoPs).
    pub registry_capacity: usize,
    /// Snapshot directory for registry persistence; `None` disables
    /// persistence (the registry dies with the process).
    pub snapshot_dir: Option<String>,
    /// Rotate the snapshot once the journal holds this many events.
    pub rotate_every: usize,
    /// Maximum simultaneously open connections; excess accepts are
    /// closed immediately (clients retry with backoff).
    pub max_connections: usize,
    /// Maximum bytes of one request line: a longer line gets an error
    /// and its connection closes (bounds each connection's read buffer).
    pub max_line_bytes: usize,
    /// Record request-lifecycle and pipeline spans (the `trace` op and
    /// Chrome export). Counters and histograms accumulate either way;
    /// with tracing off every span site is inert. Tracing never changes
    /// response bytes — schedules are bit-identical on or off.
    pub trace: bool,
    /// Scripted faults (tests only).
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            window_ms: 0,
            max_batch: 64,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8)),
            registry_capacity: 128,
            snapshot_dir: None,
            rotate_every: 64,
            max_connections: 1024,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            trace: true,
            faults: FaultPlan::default(),
        }
    }
}

/// The daemon's telemetry: one [`polytops_obs::Recorder`] shared by
/// every thread, with the hot service counters cached as `Arc`s so the
/// request path never takes the registry lock. All former hand-rolled
/// counter structs (`SolverCounters`, tuner atomics) now accumulate
/// through this registry; the `stats` wire shapes are rebuilt from it.
/// Relaxed counters: diagnostic sums, never part of the bit-identity
/// contract.
pub(crate) struct ServerObs {
    /// Span ring, counter and histogram registry for the whole daemon.
    pub(crate) recorder: Arc<polytops_obs::Recorder>,
    /// Schedule + autotune requests admitted (`service.requests`).
    pub(crate) requests: Arc<polytops_obs::Counter>,
    /// Batches executed (`service.batches`).
    pub(crate) batches: Arc<polytops_obs::Counter>,
    /// Queued schedule/autotune responses, daemon-wide
    /// (`service.responses`) — the counter the `drop_response` fault
    /// indexes (`Counter::inc` returns the new value, preserving the
    /// 1-based ordinal the fault plan scripts against).
    pub(crate) responses: Arc<polytops_obs::Counter>,
    /// Autotune requests whose SCoP resolved (`tuner.requests`).
    pub(crate) tune_requests: Arc<polytops_obs::Counter>,
    /// Trace id of the most recent fully-written schedule response —
    /// what the `trace` op returns.
    pub(crate) last_trace: AtomicU64,
}

impl ServerObs {
    fn new(trace: bool) -> ServerObs {
        let recorder = polytops_obs::Recorder::new(trace);
        ServerObs {
            requests: recorder.counter("service.requests"),
            batches: recorder.counter("service.batches"),
            responses: recorder.counter("service.responses"),
            tune_requests: recorder.counter("tuner.requests"),
            last_trace: AtomicU64::new(0),
            recorder,
        }
    }
}

/// State shared by every daemon thread.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) registry: ScopRegistry,
    /// Registry persistence, when `snapshot_dir` is configured.
    pub(crate) persist: Option<Persister>,
    /// Graceful shutdown: stop accepting work, drain, flush, exit.
    pub(crate) shutting_down: AtomicBool,
    /// Crash (fault injection): drop everything on the floor, exit.
    pub(crate) crashed: AtomicBool,
    /// Batcher liveness, so the acceptor knows when the drain is over.
    pub(crate) batcher_done: AtomicBool,
    /// Telemetry: spans, counters, histograms.
    pub(crate) obs: ServerObs,
}

impl Shared {
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The `stats` response for the current counters.
    pub(crate) fn stats_line(&self) -> String {
        protocol::stats_response(
            self.registry.stats(),
            self.obs.batches.get() as usize,
            self.obs.requests.get() as usize,
            self.persist.as_ref().map(Persister::totals).as_ref(),
            &self.obs.recorder,
        )
    }

    /// The `trace` response: the span tree of the most recent
    /// fully-written schedule response, or `null` when none exists yet
    /// (or tracing is disabled).
    pub(crate) fn trace_line(&self) -> String {
        let trace = self.obs.last_trace.load(Ordering::Relaxed);
        if trace == 0 {
            return protocol::trace_response(None);
        }
        let spans = self.obs.recorder.spans_for(trace);
        if spans.is_empty() {
            return protocol::trace_response(None);
        }
        protocol::trace_response(Some((trace, spans)))
    }
}

/// The open telemetry spans of one in-flight schedule request. The
/// lifecycle children ("read", "admission", "solve", "serialize",
/// "write") hang off `root`; whoever owns a handle finishes it at the
/// matching lifecycle edge.
pub(crate) struct RequestTrace {
    /// The whole-lifecycle "request" span; finished when the response's
    /// last byte reaches the socket.
    pub(crate) root: polytops_obs::SpanHandle,
    /// The open "admission" child; finished when the batcher takes
    /// this request into a batch.
    pub(crate) admission: Option<polytops_obs::SpanHandle>,
}

/// What an admitted request asks of its batch.
pub(crate) enum Work {
    /// Schedule the SCoP under the request's configurations.
    Schedule(WireSchedule),
    /// Schedule the SCoP under its candidate lattice and answer with
    /// the model's pick.
    Autotune(WireAutotune),
}

impl Work {
    /// The request id its response echoes.
    pub(crate) fn id(&self) -> &Json {
        match self {
            Work::Schedule(req) => &req.id,
            Work::Autotune(req) => &req.id,
        }
    }
}

/// One admitted request awaiting its batch.
pub(crate) struct Admitted {
    pub(crate) work: Work,
    /// Its connection's reply queue.
    pub(crate) reply: Sender<Reply>,
    /// Lifecycle spans of a schedule request, when tracing is enabled;
    /// autotunes run untraced.
    pub(crate) trace: Option<RequestTrace>,
}

/// The daemon entry point.
pub struct Server;

/// A running daemon: its bound address plus the acceptor and batcher
/// threads to join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    batcher: JoinHandle<()>,
}

impl Server {
    /// Binds the listen address and spawns the daemon threads.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound, or an
    /// invalid-input error if the snapshot directory cannot be opened.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        Server::start_on(listener, config)
    }

    /// Spawns the daemon on an already-bound listener (`config.addr` is
    /// ignored). This is the socket-activation-style handoff the
    /// restart tests and benches use: std's `TcpListener::bind` does
    /// not set `SO_REUSEADDR`, so a crashed daemon's lingering
    /// `TIME_WAIT` sockets would block rebinding its port for a minute
    /// — instead the supervisor binds once and hands each daemon
    /// generation a [`try_clone`](TcpListener::try_clone) of the same
    /// listener.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener cannot be inspected or
    /// made nonblocking, or an invalid-input error if the snapshot
    /// directory cannot be opened.
    pub fn start_on(listener: TcpListener, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let registry = ScopRegistry::new(config.registry_capacity);
        let obs = ServerObs::new(config.trace);
        let persist = match &config.snapshot_dir {
            Some(dir) => Some(
                Persister::open(
                    std::path::Path::new(dir),
                    config.rotate_every,
                    &registry,
                    &obs.recorder,
                )
                .map_err(std::io::Error::other)?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            registry,
            persist,
            config,
            addr,
            shutting_down: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            obs,
        });
        // Admission is bounded so a flood applies backpressure to the
        // reader that sends it. Reply queues are unbounded: the batcher
        // must never block on one, and one grows only with its own
        // client's unread answers.
        let (admit_tx, admit_rx) = mpsc::sync_channel::<Admitted>(1024);
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batch_loop(&shared, &admit_rx))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, &admit_tx))
        };
        Ok(ServerHandle {
            shared,
            acceptor,
            batcher,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (resolved, so ephemeral ports are
    /// concrete).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Registry statistics (for tests and benches; clients use the
    /// `stats` op).
    pub fn registry_stats(&self) -> polytops_core::RegistryStats {
        self.shared.registry.stats()
    }

    /// Persistence counters, when persistence is enabled.
    pub fn persist_totals(&self) -> Option<protocol::PersistTotals> {
        self.shared.persist.as_ref().map(Persister::totals)
    }

    /// Whether a scripted fault crashed this daemon.
    pub fn crashed(&self) -> bool {
        self.shared.is_crashed()
    }

    /// Requests a graceful shutdown (equivalent to the `shutdown` op)
    /// and waits for in-flight batches to finish.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Waits for the daemon to stop (after a `shutdown` op, a
    /// [`shutdown`](ServerHandle::shutdown) call, or a scripted crash).
    pub fn join(self) {
        let _ = self.acceptor.join();
        let _ = self.batcher.join();
    }
}

/// Crashes the daemon: every thread observes the flag and exits without
/// flushing. Applies the [`FaultPlan::torn_snapshot_bytes`] truncation
/// first, so the "snapshot rotation torn by the kill" scenario is
/// already on disk when the next generation boots.
fn crash(shared: &Shared) {
    if let (Some(bytes), Some(dir)) = (
        shared.config.faults.torn_snapshot_bytes,
        shared.config.snapshot_dir.as_ref(),
    ) {
        let path = std::path::Path::new(dir).join("snapshot");
        if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
            let _ = file.set_len(bytes);
        }
    }
    shared.crashed.store(true, Ordering::SeqCst);
}

fn batch_loop(shared: &Arc<Shared>, rx: &Receiver<Admitted>) {
    loop {
        // Wait for the request that opens the next batch, polling the
        // shutdown flags so a quiet daemon can stop.
        let first = loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(admitted) => break Some(admitted),
                Err(RecvTimeoutError::Timeout) => {
                    if shared.is_shutting_down() || shared.is_crashed() {
                        break None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break None,
            }
        };
        let Some(first) = first else { break };
        if shared.is_crashed() {
            break;
        }
        // Whatever queued while the previous batch ran rides along; an
        // idle daemon finds the queue empty and dispatches at once. A
        // non-zero `window_ms` holds the batch open that much longer.
        let mut batch = vec![first];
        let deadline = Instant::now() + Duration::from_millis(shared.config.window_ms);
        while batch.len() < shared.config.max_batch {
            let left = deadline.saturating_duration_since(Instant::now());
            let next = if left.is_zero() {
                rx.try_recv().ok()
            } else {
                rx.recv_timeout(left).ok()
            };
            let Some(admitted) = next else { break };
            batch.push(admitted);
        }
        // The batcher has taken these requests: their admission wait
        // ends here, where the batch is committed to execution.
        for admitted in &mut batch {
            if let Some(trace) = &mut admitted.trace {
                if let Some(admission) = trace.admission.take() {
                    admission.finish();
                }
            }
        }
        let nth_batch = shared.obs.batches.inc() as usize;
        shared.obs.requests.add(batch.len() as u64);
        let mut responses = Vec::new();
        let mut misses = Vec::new();
        process_group(shared, batch, &mut responses, &mut misses);
        // Durability before delivery: the journal records this batch's
        // admissions (fsynced) before any client can observe a
        // response, so an acknowledged answer is always replayable.
        if let Some(persist) = &shared.persist {
            persist.admitted(&shared.registry, &misses);
        }
        // The kill fault fires between durability and delivery — the
        // worst crash point: clients must retry, and the retry must
        // find the registry warm.
        if shared.config.faults.kill_after_batches == Some(nth_batch) {
            crash(shared);
            break;
        }
        for (reply, line, root) in responses {
            let _ = reply.send(Reply::response(line, root));
        }
    }
    // A graceful exit snapshots the final registry state so the next
    // generation boots warm without journal replay.
    if !shared.is_crashed() {
        if let Some(persist) = &shared.persist {
            persist.rotate(&shared.registry);
        }
    }
    shared.batcher_done.store(true, Ordering::SeqCst);
}

/// Executes one batch as a single `ScenarioSet`, pushing one response
/// line per request (with its still-open "request" span, when traced)
/// and collecting, in order, the entries the registry admitted on a
/// miss (the persistence journal's `admit` events). Each request's
/// resident entry is one slot of the set; requests that resolve to one
/// entry share its slot, as `ScenarioSet::add_resident_scop` dedupes
/// entries by identity. A request whose
/// SCoP text does not parse gets the parse error, with a `null` id, in
/// its place among the batch's responses. An autotune's candidates are
/// scenarios of the set like any schedule request's, untraced; its
/// answer is [`tune::pick`] over their results.
fn process_group(
    shared: &Arc<Shared>,
    group: Vec<Admitted>,
    responses: &mut Vec<(Sender<Reply>, String, Option<polytops_obs::SpanHandle>)>,
    misses: &mut Vec<Arc<ScopEntry>>,
) {
    struct Slot {
        admitted: Admitted,
        /// The resident entry and whether it was a hit, or the SCoP
        /// text's parse error.
        resolved: Result<(Arc<ScopEntry>, bool), ParseScopError>,
        /// Scenario indices of this request inside the shared set.
        scenarios: Range<usize>,
        /// An autotune's candidate lattice, one per scenario.
        candidates: Vec<Candidate>,
        /// The open "solve" span covering this request's share of the
        /// batch execution; finished right after `run_sharded` returns.
        solve: Option<polytops_obs::SpanHandle>,
    }

    let mut set = ScenarioSet::new();
    let mut slots: Vec<Slot> = Vec::with_capacity(group.len());
    for admitted in group {
        let resolve = admitted
            .trace
            .as_ref()
            .map(|trace| trace.root.child("resolve"));
        let resolved = match &admitted.work {
            Work::Schedule(req) => shared.registry.resolve_text(req.name.as_deref(), &req.scop),
            Work::Autotune(req) => shared.registry.resolve_text(None, &req.scop),
        };
        if let Some(resolve) = resolve {
            resolve.finish();
        }
        let entry = match &resolved {
            Ok((entry, hit)) => {
                if !hit {
                    misses.push(Arc::clone(entry));
                }
                entry
            }
            Err(_) => {
                slots.push(Slot {
                    admitted,
                    resolved,
                    scenarios: 0..0,
                    candidates: Vec::new(),
                    solve: None,
                });
                continue;
            }
        };
        // Two clients submitting the same kernel share one slot (and
        // therefore its solve groups) within the batch.
        let scop_idx = set.add_resident_scop(Arc::clone(entry));
        // Each scenario's engine run links back under this request's
        // "solve" span, so the trace tree shows per-job queue wait and
        // per-dimension pipeline work no matter which pool thread
        // executes it.
        let solve = admitted
            .trace
            .as_ref()
            .map(|trace| trace.root.child("solve"));
        let link = solve.as_ref().and_then(polytops_obs::SpanHandle::link);
        let first = set.len();
        let mut candidates = Vec::new();
        match &admitted.work {
            Work::Schedule(req) => {
                for spec in &req.scenarios {
                    let options = polytops_core::EngineOptions {
                        trace: link.clone(),
                    };
                    set.add_scenario_with_options(
                        scop_idx,
                        spec.name.clone(),
                        spec.config.clone(),
                        options,
                    );
                }
            }
            Work::Autotune(req) => {
                shared.obs.tune_requests.inc();
                candidates =
                    tune::candidate_lattice(entry.scop(), &req.machine, req.max_candidates);
                for candidate in &candidates {
                    set.add_scenario(scop_idx, candidate.name.clone(), candidate.config.clone());
                }
            }
        }
        slots.push(Slot {
            admitted,
            resolved,
            scenarios: first..set.len(),
            candidates,
            solve,
        });
    }

    let results = set.run_sharded(shared.config.threads);
    for slot in &mut slots {
        if let Some(solve) = slot.solve.take() {
            solve.finish();
        }
    }
    for result in results.iter().flatten() {
        result.stats.accumulate_into(&shared.obs.recorder);
    }

    for mut slot in slots {
        let serialize = slot
            .admitted
            .trace
            .as_ref()
            .map(|trace| trace.root.child("serialize"));
        let results = &results[slot.scenarios];
        let line = match (&slot.resolved, &slot.admitted.work) {
            (Err(e), _) => protocol::error_response(&Json::Null, &e.to_string()),
            (Ok((entry, hit)), Work::Schedule(req)) => schedule_line(req, results, entry, *hit),
            (Ok((entry, _)), Work::Autotune(req)) => {
                autotune_line(req, &slot.candidates, results, entry)
            }
        };
        if let Some(serialize) = serialize {
            serialize.finish();
        }
        let root = slot.admitted.trace.take().map(|trace| trace.root);
        responses.push((slot.admitted.reply, line, root));
    }
}

/// The response line of one scheduled request: its scenarios' results,
/// each certified by the oracle, or an error if any answer fails it.
fn schedule_line(
    req: &WireSchedule,
    results: &[ScenarioResult],
    entry: &ScopEntry,
    hit: bool,
) -> String {
    let deps = entry.deps();
    let reports: Vec<_> = req
        .scenarios
        .iter()
        .zip(results)
        .map(|(spec, result)| {
            let certified = match result {
                Ok(report) => protocol::certify(&deps, report),
                Err(_) => false,
            };
            (spec.name.as_str(), result, certified)
        })
        .collect();
    if reports.iter().any(|(_, r, c)| r.is_ok() && !c) {
        // The oracle is the last line of defense; a violation must
        // never leave the daemon as a schedule.
        return protocol::error_response(
            &req.id,
            "internal error: schedule failed oracle certification",
        );
    }
    let stats = Json::Array(
        reports
            .iter()
            .map(|(name, result, _)| {
                Json::Object(std::collections::BTreeMap::from([
                    ("name".to_string(), Json::Str(name.to_string())),
                    (
                        "pipeline".to_string(),
                        result
                            .as_ref()
                            .map_or(Json::Null, |r| protocol::stats_to_json(&r.stats)),
                    ),
                ]))
            })
            .collect(),
    );
    protocol::schedule_response(
        &req.id,
        protocol::results_to_json(&reports),
        stats,
        hit,
        entry.fingerprint(),
    )
}

/// The response line of one autotune request: the model's certified
/// pick among its candidates' results, or an error.
fn autotune_line(
    req: &WireAutotune,
    candidates: &[Candidate],
    results: &[ScenarioResult],
    entry: &ScopEntry,
) -> String {
    match tune::pick(entry, &req.machine, req.param_estimate, candidates, results) {
        Ok(outcome) if outcome.certified => protocol::autotune_response(&req.id, &outcome),
        Ok(_) => protocol::error_response(
            &req.id,
            "internal error: tuned schedule failed oracle certification",
        ),
        Err(e) => protocol::error_response(&req.id, &e.to_string()),
    }
}
