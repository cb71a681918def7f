//! The daemon: a readiness event loop over nonblocking sockets, the
//! batcher, a dedicated tuner worker, optional registry persistence,
//! and graceful shutdown.
//!
//! Thread shape (see `docs/ARCHITECTURE.md` for the request lifecycle):
//!
//! ```text
//! event-loop thread: nonblocking listener + every connection
//!      │  accept / read / parse line → Request
//!      │  ping/stats/shutdown: answered inline into the write buffer
//!      │  schedule ──► bounded admission channel ──► batcher thread
//!      │  autotune ──► unbounded tune channel ─────► tuner thread
//!      ▼
//! batcher thread: takes the first request, drains what queued while
//! the previous batch ran (up to max_batch) → one ScenarioSet (SCoPs
//! resolved through the ScopRegistry) → run_sharded(threads), on the
//! batcher itself when the batch is one scenario → per-request response
//! lines, journaled to the persister, queued back to the event loop
//! ```
//!
//! Exactly one thread (the event loop) touches sockets, so thousands
//! of idle connections cost one `Conn` struct each instead of a parked
//! thread, and responses to one connection can never interleave bytes.
//! The batcher and tuner communicate with it only through channels.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polytops_core::registry::{ScopEntry, ScopRegistry};
use polytops_core::scenario::ScenarioSet;
use polytops_ir::Scop;

use crate::persist::Persister;
use crate::poll::{event_loop, Outbound};
use crate::protocol::{self, AutotuneRequest, ScheduleRequest};

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

/// Daemon configuration. Every knob is also a `polytopsd serve` flag
/// (see `docs/CONFIG.md`).
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
    /// Worker threads for the scenario engine's work-stealing pool.
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
    /// Maximum bytes of one request line before the connection is
    /// dropped as malformed (protects the event loop's read buffers).
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
            max_line_bytes: 16 << 20,
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
    /// Autotune requests served by the tuner worker (`tuner.requests`).
    pub(crate) tune_requests: Arc<polytops_obs::Counter>,
    /// Autotune requests answered from a remembered winner
    /// (`tuner.learned_hits`).
    pub(crate) tune_learned_hits: Arc<polytops_obs::Counter>,
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
            tune_learned_hits: recorder.counter("tuner.learned_hits"),
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
    /// Worker liveness, so the event loop knows when the drain is over.
    pub(crate) batcher_done: AtomicBool,
    pub(crate) tuner_done: AtomicBool,
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

/// One admitted schedule request awaiting its batch.
pub(crate) struct Admitted {
    pub(crate) req: ScheduleRequest,
    pub(crate) conn: u64,
    /// Lifecycle spans, when tracing is enabled.
    pub(crate) trace: Option<RequestTrace>,
}

/// One autotune request on its way to the tuner worker.
pub(crate) struct TuneJob {
    pub(crate) req: AutotuneRequest,
    pub(crate) conn: u64,
}

/// The daemon entry point.
pub struct Server;

/// A running daemon: its bound address plus the event-loop, batcher and
/// tuner threads to join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    event: JoinHandle<()>,
    batcher: JoinHandle<()>,
    tuner: JoinHandle<()>,
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
                Persister::open(std::path::Path::new(dir), config.rotate_every, &registry)
                    .map_err(std::io::Error::other)?,
            ),
            None => None,
        };
        if let Some(persist) = &persist {
            persist.attach_recorder(Arc::clone(&obs.recorder));
        }
        let shared = Arc::new(Shared {
            registry,
            persist,
            config,
            addr,
            shutting_down: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            tuner_done: AtomicBool::new(false),
            obs,
        });
        // Admission is bounded so a flood applies backpressure at the
        // event loop; responses and tune jobs are unbounded (their
        // volume is bounded by admitted work).
        let (admit_tx, admit_rx) = mpsc::sync_channel::<Admitted>(1024);
        let (tune_tx, tune_rx) = mpsc::channel::<TuneJob>();
        let (out_tx, out_rx) = mpsc::channel::<Outbound>();
        let batcher = {
            let shared = Arc::clone(&shared);
            let out = out_tx.clone();
            std::thread::spawn(move || batch_loop(&shared, &admit_rx, &out))
        };
        let tuner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || tune_loop(&shared, &tune_rx, &out_tx))
        };
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || event_loop(listener, &shared, &admit_tx, &tune_tx, &out_rx))
        };
        Ok(ServerHandle {
            shared,
            event,
            batcher,
            tuner,
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
        let _ = self.event.join();
        let _ = self.batcher.join();
        let _ = self.tuner.join();
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

/// The tuner worker: autotune explorations run here, one at a time, so
/// the daemon's parallelism stays bounded by one batch pool plus one
/// tuner pool no matter how many clients tune concurrently.
fn tune_loop(shared: &Arc<Shared>, rx: &Receiver<TuneJob>, out: &Sender<Outbound>) {
    loop {
        let job = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutting_down() || shared.is_crashed() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if shared.is_crashed() {
            break;
        }
        let req = job.req;
        shared.obs.requests.inc();
        shared.obs.batches.inc();
        let budget = polytops_core::tune::TuneBudget {
            max_candidates: req.max_candidates,
            threads: shared.config.threads,
            param_estimate: req.param_estimate,
        };
        // Repeated tuning of a known SCoP rides the same registry
        // residency as the schedule op: the entry's dependence analysis
        // and Farkas caches persist across autotune requests/clients.
        let (entry, _) = shared.registry.resolve(&req.scop.name, &req.scop);
        shared.obs.tune_requests.inc();
        let line = match polytops_core::tune::explore_entry(&entry, &req.machine, &budget) {
            Ok(outcome) if outcome.certified => {
                if outcome.learned {
                    shared.obs.tune_learned_hits.inc();
                }
                protocol::autotune_response(&req.id, &outcome)
            }
            Ok(_) => protocol::error_response(
                &req.id,
                "internal error: tuned schedule failed oracle certification",
            ),
            Err(e) => protocol::error_response(&req.id, &e.to_string()),
        };
        if let Some(persist) = &shared.persist {
            persist.record(
                &shared.registry,
                &[(req.scop.name.clone(), req.scop.clone())],
            );
        }
        let _ = out.send(Outbound {
            conn: job.conn,
            line,
            trace: None,
        });
    }
    shared.tuner_done.store(true, Ordering::SeqCst);
}

fn batch_loop(shared: &Arc<Shared>, rx: &Receiver<Admitted>, out: &Sender<Outbound>) {
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
        let mut touched = Vec::new();
        process_group(shared, batch, &mut responses, &mut touched);
        // Durability before delivery: the journal records this batch's
        // admissions (fsynced) before any client can observe a
        // response, so an acknowledged answer is always replayable.
        if let Some(persist) = &shared.persist {
            persist.record(&shared.registry, &touched);
        }
        // The kill fault fires between durability and delivery — the
        // worst crash point: clients must retry, and the retry must
        // find the registry warm.
        if shared.config.faults.kill_after_batches == Some(nth_batch) {
            crash(shared);
            break;
        }
        for (conn, line, trace) in responses {
            let _ = out.send(Outbound { conn, line, trace });
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
/// and recording which SCoPs were touched (for the persistence journal).
fn process_group(
    shared: &Arc<Shared>,
    group: Vec<Admitted>,
    responses: &mut Vec<(u64, String, Option<polytops_obs::SpanHandle>)>,
    touched: &mut Vec<(String, Scop)>,
) {
    struct Slot {
        admitted: Admitted,
        entry: Arc<ScopEntry>,
        hit: bool,
        /// Scenario indices of this request inside the shared set.
        scenarios: Vec<usize>,
        /// The open "solve" span covering this request's share of the
        /// batch execution; finished right after `run_sharded` returns.
        solve: Option<polytops_obs::SpanHandle>,
    }

    let mut set = ScenarioSet::new();
    // SCoP slots already admitted this batch, by registry entry
    // identity — two clients submitting the same kernel share one slot
    // (and therefore one analysis and cache group) within the batch.
    let mut slot_of_entry: Vec<(*const ScopEntry, usize)> = Vec::new();
    let mut slots: Vec<Slot> = Vec::with_capacity(group.len());
    for admitted in group {
        let (entry, hit) = shared
            .registry
            .resolve(&admitted.req.name, &admitted.req.scop);
        let key = Arc::as_ptr(&entry);
        let scop_idx = match slot_of_entry.iter().find(|(k, _)| *k == key) {
            Some(&(_, idx)) => idx,
            None => {
                touched.push((admitted.req.name.clone(), admitted.req.scop.clone()));
                let idx = set.add_resident_scop(Arc::clone(&entry));
                slot_of_entry.push((key, idx));
                idx
            }
        };
        // Each scenario's engine run links back under this request's
        // "solve" span, so the trace tree shows per-job queue wait and
        // per-dimension pipeline work no matter which pool thread
        // executes it.
        let solve = admitted
            .trace
            .as_ref()
            .map(|trace| trace.root.child("solve"));
        let link = solve.as_ref().and_then(polytops_obs::SpanHandle::link);
        let scenarios = admitted
            .req
            .scenarios
            .iter()
            .map(|spec| {
                let options = polytops_core::EngineOptions {
                    trace: link.clone(),
                };
                set.add_scenario_with_options(
                    scop_idx,
                    spec.name.clone(),
                    spec.config.clone(),
                    options,
                )
            })
            .collect();
        slots.push(Slot {
            admitted,
            entry,
            hit,
            scenarios,
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
        let deps = slot.entry.deps();
        let reports: Vec<_> = slot
            .admitted
            .req
            .scenarios
            .iter()
            .zip(&slot.scenarios)
            .map(|(spec, &idx)| {
                let result = &results[idx];
                let certified = match result {
                    Ok(report) => protocol::certify(&deps, report),
                    Err(_) => false,
                };
                (spec.name.as_str(), result, certified)
            })
            .collect();
        let line = if reports.iter().any(|(_, r, c)| r.is_ok() && !c) {
            // The oracle is the last line of defense; a violation must
            // never leave the daemon as a schedule.
            protocol::error_response(
                &slot.admitted.req.id,
                "internal error: schedule failed oracle certification",
            )
        } else {
            let stats = polytops_core::json::Json::Array(
                reports
                    .iter()
                    .map(|(name, result, _)| {
                        polytops_core::json::Json::Object(std::collections::BTreeMap::from([
                            (
                                "name".to_string(),
                                polytops_core::json::Json::Str(name.to_string()),
                            ),
                            (
                                "pipeline".to_string(),
                                result
                                    .as_ref()
                                    .map_or(polytops_core::json::Json::Null, |r| {
                                        protocol::stats_to_json(&r.stats)
                                    }),
                            ),
                        ]))
                    })
                    .collect(),
            );
            protocol::schedule_response(
                &slot.admitted.req.id,
                protocol::results_to_json(&reports),
                stats,
                slot.hit,
                slot.entry.fingerprint(),
            )
        };
        if let Some(serialize) = serialize {
            serialize.finish();
        }
        let root = slot.admitted.trace.take().map(|trace| trace.root);
        responses.push((slot.admitted.conn, line, root));
    }
}
