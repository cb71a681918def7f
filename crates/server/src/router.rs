//! `polytopsd route`: a front process that makes N daemon shards look
//! like one daemon.
//!
//! ```text
//!                      ┌────────────► polytopsd shard 0
//! clients ──► router ──┼────────────► polytopsd shard 1
//!                      └────────────► polytopsd shard 2
//! ```
//!
//! Schedule and autotune requests are routed by the SCoP's canonical
//! *fingerprint* over a consistent-hash ring ([`HashRing`]), so every
//! submission of one SCoP — from any client — lands on the same shard
//! and rides that shard's registry residency and Farkas caches. The
//! router never interprets results: it forwards the daemon's response
//! line byte-for-byte, so the bit-identity contract holds through it
//! unchanged.
//!
//! Upstream connections are per-client-connection [`RetryClient`]s:
//! a shard restart mid-stream is absorbed by reconnect-and-resend with
//! backoff, invisible to the client beyond latency.
//!
//! The router itself is a thin line-shuffler with a thread per client
//! connection, as the daemon behind each shard serves its own
//! connections. Both frame request lines with one capped reader: a line
//! over [`DEFAULT_MAX_LINE_BYTES`] gets an error and its connection
//! closes.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use polytops_core::json::Json;
use polytops_core::registry::{fingerprint, fnv1a};

use crate::client::{RetryClient, RetryPolicy};
use crate::conn::{line_too_long, read_line, Line};
use crate::protocol::{self, Request};
use crate::DEFAULT_MAX_LINE_BYTES;

/// Points each shard contributes to a [`HashRing`]. A constant, not an
/// option: two routers that disagreed on it would send one SCoP to
/// different shards.
const VIRTUAL_NODES: usize = 64;

/// A consistent-hash ring over shard labels.
///
/// Each shard contributes 64 points (`fnv1a("label#i")`)
/// on a `u64` ring; a key is owned by the first point clockwise from
/// its hash. The properties the fleet depends on:
///
/// - **Stability under add**: adding a shard moves only the keys the
///   new shard now owns (~K/N of them); every other key keeps its
///   shard, preserving its registry residency.
/// - **Stability under remove**: removing a shard moves only the keys
///   it owned; survivors keep theirs.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard index)`, sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `labels`. Labels should be the shard
    /// addresses (stable identities): relabeling a shard moves its keys.
    pub fn new(labels: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(labels.len() * VIRTUAL_NODES);
        for (idx, label) in labels.iter().enumerate() {
            for v in 0..VIRTUAL_NODES {
                points.push((fnv1a(format!("{label}#{v}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: labels.len(),
        }
    }

    /// Number of shards behind the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` (a SCoP fingerprint): the first ring
    /// point at or clockwise-after the key, wrapping at the top.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty (a router requires ≥ 1 shard).
    pub fn shard_of(&self, key: u64) -> usize {
        assert!(!self.points.is_empty(), "hash ring has no shards");
        let at = self.points.partition_point(|&(point, _)| point < key);
        self.points[at % self.points.len()].1
    }
}

/// Router configuration. `addr` and `shards` are also `polytopsd route`
/// flags (see `docs/CONFIG.md`).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard daemon addresses (the ring's labels — keep them stable).
    pub shards: Vec<String>,
    /// Upstream reconnect policy (per shard, per client connection).
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }
}

struct RouterShared {
    config: RouterConfig,
    ring: HashRing,
    addr: SocketAddr,
    stopping: AtomicBool,
    /// Router telemetry: fleet-wide and per-shard forward counters and
    /// latency histograms, plus the trace-id allocator for stamping
    /// forwarded envelopes. Spans stay disabled — the router is a
    /// line-shuffler; its story is counters, the shards' is spans.
    obs: Arc<polytops_obs::Recorder>,
}

impl RouterShared {
    fn begin_stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the accept loop if it is parked in accept().
        let _ = TcpStream::connect(self.addr);
    }
}

/// The router entry point.
pub struct Router;

/// A running router: its bound address plus the accept thread to join.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    accept: JoinHandle<()>,
}

impl Router {
    /// Binds the listen address and spawns the router.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound, or an
    /// invalid-input error when no shards are configured.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router requires at least one shard",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let ring = HashRing::new(&config.shards);
        let shared = Arc::new(RouterShared {
            config,
            ring,
            addr,
            stopping: AtomicBool::new(false),
            obs: polytops_obs::Recorder::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(RouterHandle { shared, accept })
    }
}

impl RouterHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops the router (shards keep running) and waits for the accept
    /// thread. Client connection threads die with their clients.
    pub fn shutdown(self) {
        self.shared.begin_stop();
        let _ = self.accept.join();
    }

    /// Waits for the router to stop (a client's `shutdown` op).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || serve_client(stream, &shared));
    }
}

/// Writes one line (newline appended) to the client; a vanished client
/// is not a router error.
fn send_line(stream: &mut TcpStream, line: &str) {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    let _ = stream.write_all(&framed).and_then(|()| stream.flush());
}

fn serve_client(stream: TcpStream, shared: &Arc<RouterShared>) {
    let _ = stream.set_nodelay(true);
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    // Per-client upstream connections, established on first use: each
    // client's requests to one shard flow over one ordered stream, so
    // per-connection response ordering survives the indirection.
    let mut upstreams: Vec<Option<RetryClient>> =
        (0..shared.config.shards.len()).map(|_| None).collect();
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        match read_line(&mut reader, &mut bytes, DEFAULT_MAX_LINE_BYTES) {
            Ok(Line::Complete) => {}
            Ok(Line::TooLong) => {
                send_line(&mut write_half, &line_too_long());
                return;
            }
            Ok(Line::Eof) | Err(_) => return,
        }
        let line = String::from_utf8_lossy(&bytes);
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err(e) => send_line(&mut write_half, &protocol::error_response(&Json::Null, &e)),
            Ok(Request::Ping) => send_line(&mut write_half, r#"{"ok":true,"pong":true}"#),
            Ok(Request::Stats) => {
                let merged = merged_stats(shared, &mut upstreams);
                send_line(&mut write_half, &merged);
            }
            Ok(Request::Shutdown) => {
                // Fleet shutdown: every shard first, then the router.
                for shard in 0..upstreams.len() {
                    let _ =
                        upstream(shared, &mut upstreams, shard).roundtrip(r#"{"op":"shutdown"}"#);
                }
                send_line(&mut write_half, r#"{"ok":true,"shutting_down":true}"#);
                shared.begin_stop();
                return;
            }
            Ok(Request::Trace) => {
                // Span rings are shard-local and `trace` carries no
                // SCoP to route by; query the owning shard directly.
                send_line(
                    &mut write_half,
                    &protocol::error_response(
                        &Json::Null,
                        "trace is shard-local: send it to a shard daemon directly",
                    ),
                );
            }
            Ok(Request::Schedule(req)) => {
                let shard = shared.ring.shard_of(fingerprint(&req.scop));
                // Stamp a request-scoped trace id into the envelope
                // (when the client did not send one), so the shard's
                // span tree is correlatable with this hop. Responses
                // are still relayed byte-for-byte.
                let line = if req.trace.is_none() {
                    stamp_trace(&line, shared.obs.begin_trace())
                } else {
                    line.to_string()
                };
                forward(
                    shared,
                    &mut upstreams,
                    shard,
                    &line,
                    &req.id,
                    &mut write_half,
                );
            }
            Ok(Request::Autotune(req)) => {
                let shard = shared.ring.shard_of(fingerprint(&req.scop));
                forward(
                    shared,
                    &mut upstreams,
                    shard,
                    &line,
                    &req.id,
                    &mut write_half,
                );
            }
        }
    }
}

/// The lazily connected [`RetryClient`] for `shard`.
fn upstream<'a>(
    shared: &Arc<RouterShared>,
    upstreams: &'a mut [Option<RetryClient>],
    shard: usize,
) -> &'a mut RetryClient {
    upstreams[shard].get_or_insert_with(|| {
        RetryClient::new(
            shared.config.shards[shard].clone(),
            shared.config.retry.clone(),
        )
    })
}

/// Inserts `"trace":id` as the first member of a request envelope (the
/// line is known-parsed JSON whose top level is an object). Pure string
/// surgery so every other byte of the request survives verbatim.
fn stamp_trace(line: &str, trace: u64) -> String {
    match line.find('{') {
        Some(at) => {
            let mut stamped = String::with_capacity(line.len() + 24);
            stamped.push_str(&line[..=at]);
            stamped.push_str(&format!("\"trace\":{trace},"));
            stamped.push_str(&line[at + 1..]);
            stamped
        }
        None => line.to_string(),
    }
}

/// Forwards one request line to `shard` and relays the response bytes
/// unchanged (the bit-identity pass-through), recording fleet-wide and
/// per-shard forward counts and latency.
fn forward(
    shared: &Arc<RouterShared>,
    upstreams: &mut [Option<RetryClient>],
    shard: usize,
    line: &str,
    id: &Json,
    write_half: &mut TcpStream,
) {
    shared
        .obs
        .counter(&format!("router.shard{shard}.requests"))
        .inc();
    let started = std::time::Instant::now();
    let outcome = upstream(shared, upstreams, shard).roundtrip(line);
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.obs.histogram("router.forward_ns").record(elapsed);
    shared
        .obs
        .histogram(&format!("router.shard{shard}.forward_ns"))
        .record(elapsed);
    match outcome {
        Ok(response) => send_line(write_half, &response),
        Err(e) => send_line(
            write_half,
            &protocol::error_response(id, &format!("shard {shard} unreachable: {e}")),
        ),
    }
}

/// The router's `stats` op: every shard's stats response, in shard
/// order, under one envelope, plus the router's own telemetry (fleet
/// and per-shard forward counts and latency histograms).
fn merged_stats(shared: &Arc<RouterShared>, upstreams: &mut [Option<RetryClient>]) -> String {
    let mut shards = Vec::with_capacity(upstreams.len());
    for shard in 0..upstreams.len() {
        let entry = match upstream(shared, upstreams, shard).roundtrip_json(r#"{"op":"stats"}"#) {
            Ok(json) => json,
            Err(e) => Json::Object(std::collections::BTreeMap::from([
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(e.to_string())),
            ])),
        };
        shards.push(entry);
    }
    Json::Object(std::collections::BTreeMap::from([
        ("ok".to_string(), Json::Bool(true)),
        ("router".to_string(), Json::Bool(true)),
        ("obs".to_string(), protocol::obs_to_json(&shared.obs)),
        ("shards".to_string(), Json::Array(shards)),
    ]))
    .compact()
}
