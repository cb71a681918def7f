//! `polytopsd`: a long-lived batching scheduler service over the
//! PolyTOPS scenario engine.
//!
//! The ROADMAP's scale lever after the parallel scenario engine (PR 3)
//! is keeping the scheduler *resident*: a compiler front end
//! (Tiramisu-style, or an MLIR/AKG pipeline as in the paper) re-schedules
//! the same SCoPs under new configurations every time its tuning loop
//! turns, and a one-shot process re-pays dependence analysis and Farkas
//! elimination on every turn. This crate serves the reconfiguration loop
//! as a daemon:
//!
//! * **Protocol** ([`protocol`]) — line-delimited JSON over TCP: one
//!   request per line (SCoP in the polyscop exchange format + a list of
//!   presets/inline configs), one response per line. Schema reference:
//!   `docs/SERVICE.md`.
//! * **Batching** — no timer sits between a request and its batch: the
//!   batcher takes the first queued request plus whatever else queued
//!   while the previous batch was in flight, and executes them as a
//!   *single* [`ScenarioSet`](polytops_core::scenario::ScenarioSet) on
//!   the work-stealing pool (a one-scenario batch runs on the batcher
//!   thread itself), so requests from different clients share analyses
//!   and caches within the batch exactly like scenarios of one offline
//!   sweep, and an idle daemon dispatches a lone request at once.
//!   [`ServerConfig::window_ms`] is an opt-in extra hold. An `autotune`
//!   request is a batch member too: its candidate lattice joins the
//!   batch's set as untraced scenarios, and
//!   [`tune::pick`](polytops_core::tune::pick) answers it, so
//!   [`ServerConfig::threads`] bounds every engine thread.
//! * **Cross-request persistence** — every SCoP is resolved through a
//!   [`ScopRegistry`](polytops_core::registry::ScopRegistry):
//!   fingerprinted, deduped across clients, and kept resident (exact
//!   dependence analysis + one Farkas cone per polyhedron) under an LRU
//!   bound. A client re-scheduling a known kernel under a new
//!   configuration pays only the ILP solves.
//! * **Determinism** — responses are bit-identical to the offline
//!   scenario-engine path ([`protocol::offline_results`] is the golden
//!   comparator), every returned schedule is certified by the
//!   independent dependence oracle before it leaves the engine, and
//!   response serialization is byte-deterministic.
//! * **Fleet serving** — the registry persists across restarts
//!   ([`persist`]: checksummed snapshots of canonical SCoP text plus an
//!   append-only journal; a restarted daemon prewarms every Farkas
//!   cone so warm replays pay zero re-eliminations), each connection
//!   is served by a blocking reader and writer thread pair, and
//!   [`Router`] (`polytopsd route`) fronts N daemon shards behind one
//!   address by consistent-hashing SCoP fingerprints ([`HashRing`]).
//!   [`RetryClient`] rides restarts with
//!   reconnect-and-resend backoff; scripted [`FaultPlan`]s drive the
//!   fault-injection suite that proves bit-identity through kills.
//!
//! # In-process use
//!
//! ```no_run
//! use polytops_server::{Client, Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let pong = client.roundtrip(r#"{"op":"ping"}"#).unwrap();
//! assert!(pong.contains("pong"));
//! client.send_line(r#"{"op":"shutdown"}"#).unwrap();
//! handle.join();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod persist;
pub mod protocol;
pub mod router;

mod client;
mod conn;
mod service;

pub use client::{Client, RetryClient, RetryPolicy};
pub use router::{HashRing, Router, RouterConfig, RouterHandle};
pub use service::{FaultPlan, Server, ServerConfig, ServerHandle, DEFAULT_MAX_LINE_BYTES};
