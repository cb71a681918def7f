//! The deterministic fault-injection harness: scripted [`FaultPlan`]s
//! drive kill/restart, dropped-connection and torn-snapshot scenarios
//! over real TCP, asserting the fleet invariants end to end:
//!
//! * responses that survive a fault are **byte-identical** to the
//!   offline scenario engine (the never-killed golden path);
//! * a restarted daemon serves **warm** — replayed requests report
//!   `farkas_misses == 0`;
//! * a torn snapshot on disk is detected and recovered from the
//!   previous rotation;
//! * a snapshot directory written by an older daemon (per-layout Farkas
//!   caches: `layouts` arrays, `layout` journal events) restores like
//!   one of today's.
//!
//! Restarts use the listener-handoff pattern ([`Server::start_on`]):
//! the test binds the port once and hands each daemon generation a
//! clone, exactly like a socket-activation supervisor — std's
//! `TcpListener` takes no `SO_REUSEADDR`, so rebinding a just-killed
//! port would otherwise hit `TIME_WAIT`. The kill scenario runs at 1, 2
//! and 4 worker threads: determinism must not depend on the pool shape.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use polytops_core::json::Json;
use polytops_server::protocol::{self, Request};
use polytops_server::{
    Client, FaultPlan, RetryClient, RetryPolicy, Server, ServerConfig, ServerHandle,
};
use polytops_workloads::requests::{autotune_request_line, fleet_request_streams, request_line};
use polytops_workloads::{producer_consumer, stencil_chain};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polytops-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A retry policy generous enough to ride a restart window that
/// includes registry restore + prewarm.
fn patient() -> RetryPolicy {
    RetryPolicy {
        attempts: 60,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(250),
    }
}

/// The offline-engine golden `results` text for one request line.
fn golden(line: &str) -> String {
    match protocol::parse_request(line).expect("request parses") {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("fleet stream line must be a schedule request, got {other:?}"),
    }
}

/// Parses a schedule response into (ok, registry_hit, results text,
/// max farkas_misses across its scenarios).
fn unpack(response: &str) -> (bool, bool, String, i64) {
    let parsed = polytops_core::json::parse(response).expect("response parses");
    let obj = parsed.as_object().expect("response object");
    let ok = obj["ok"].as_bool().expect("ok flag");
    let hit = obj
        .get("registry")
        .and_then(Json::as_object)
        .and_then(|r| r.get("hit"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let results = obj.get("results").map(Json::compact).unwrap_or_default();
    let misses = obj
        .get("stats")
        .and_then(Json::as_array)
        .map(|stats| {
            stats
                .iter()
                .filter_map(|entry| {
                    entry
                        .as_object()?
                        .get("pipeline")?
                        .as_object()?
                        .get("farkas_misses")?
                        .as_int()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    (ok, hit, results, misses)
}

fn fleet_config(threads: usize, dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        // No hold: a sequential client gets one batch per request, so
        // the kill point is exact.
        window_ms: 0,
        threads,
        snapshot_dir: Some(dir.display().to_string()),
        rotate_every: 4,
        ..ServerConfig::default()
    }
}

/// Kill-after-N-batches at 1, 2 and 4 worker threads: every client's
/// final answer is bit-identical to the offline engine, and the
/// restarted daemon replays journaled work with zero fresh Farkas
/// eliminations — as does a third generation booted from the snapshot
/// its graceful shutdown leaves behind.
#[test]
fn kill_restart_is_bit_identical_and_warm() {
    for threads in [1usize, 2, 4] {
        let dir = scratch(&format!("kill-t{threads}"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind supervisor port");
        let addr = listener.local_addr().unwrap().to_string();

        let first = Server::start_on(
            listener.try_clone().expect("clone listener"),
            ServerConfig {
                faults: FaultPlan {
                    kill_after_batches: Some(2),
                    ..FaultPlan::default()
                },
                ..fleet_config(threads, &dir)
            },
        )
        .expect("start first generation");

        // Concurrent clients, overlapping kernels, rotated presets.
        let streams = fleet_request_streams(6, 2);
        let addr_ref: &str = &addr;
        let outcomes: Vec<Vec<(String, String)>> = std::thread::scope(|s| {
            let workers: Vec<_> = streams
                .iter()
                .map(|stream| {
                    s.spawn(move || {
                        let mut client = RetryClient::new(addr_ref, patient());
                        stream
                            .iter()
                            .map(|line| {
                                let response =
                                    client.roundtrip(line).expect("retry rides the restart");
                                (line.clone(), response)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();

            // Meanwhile: wait for the scripted crash, then hand the
            // listener to the second generation (no fault plan).
            while !first.crashed() {
                std::thread::sleep(Duration::from_millis(5));
            }
            let crashed = first.crashed();
            first.join();
            assert!(crashed, "fault plan must have fired");
            let second = Server::start_on(
                listener.try_clone().expect("clone listener"),
                fleet_config(threads, &dir),
            )
            .expect("start second generation");
            let totals = second.persist_totals().expect("persistence enabled");
            assert!(
                totals.restored_entries > 0,
                "threads={threads}: the restart must restore journaled admissions, got {totals:?}"
            );

            let collected = workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect();
            finish(second);

            // The graceful shutdown rotated a full snapshot: a third
            // generation boots from it alone (no journal event to
            // replay) and serves its first probe warm.
            let third = Server::start_on(
                listener.try_clone().expect("clone listener"),
                fleet_config(threads, &dir),
            )
            .expect("start third generation");
            let totals = third.persist_totals().expect("persistence enabled");
            assert!(totals.restored_entries > 0, "threads={threads}: {totals:?}");
            assert_eq!(
                totals.replayed_events, 0,
                "threads={threads}: a graceful shutdown leaves everything in the snapshot"
            );
            finish(third);
            collected
        });

        for outcome in &outcomes {
            for (line, response) in outcome {
                let (ok, _, results, _) = unpack(response);
                assert!(ok, "threads={threads}: {response}");
                assert_eq!(
                    results,
                    golden(line),
                    "threads={threads}: survivor response must be bit-identical to offline"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drains a daemon through a warm re-sweep before shutting it down:
/// every request must be a registry hit with zero Farkas misses and
/// bit-identical results — the "serves warm" guarantee.
fn finish(handle: ServerHandle) {
    let mut client = RetryClient::new(handle.addr().to_string(), patient());
    for stream in fleet_request_streams(6, 2) {
        for line in stream {
            let response = client.roundtrip(&line).expect("warm replay");
            let (ok, hit, results, misses) = unpack(&response);
            assert!(ok, "{response}");
            assert!(hit, "warm replay must hit the registry: {response}");
            assert_eq!(misses, 0, "warm replay must not re-eliminate: {response}");
            assert_eq!(
                results,
                golden(&line),
                "warm replay must stay bit-identical"
            );
        }
    }
    handle.shutdown();
}

/// Whether an autotune response succeeded.
fn tune_ok(response: &str) -> bool {
    let parsed = polytops_core::json::parse(response).expect("tune response parses");
    parsed.as_object().expect("tune response object")["ok"].as_bool() == Some(true)
}

/// An autotune answer survives a kill/restart: the second generation
/// restores the tuned SCoP from the journal, and the same autotune
/// request, explored again, gets the first generation's bytes.
#[test]
fn autotune_answer_survives_kill_restart() {
    let dir = scratch("tune-kill");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind supervisor port");
    let addr = listener.local_addr().unwrap().to_string();

    let first = Server::start_on(
        listener.try_clone().expect("clone listener"),
        ServerConfig {
            faults: FaultPlan {
                kill_after_batches: Some(2),
                ..FaultPlan::default()
            },
            ..fleet_config(2, &dir)
        },
    )
    .expect("start first generation");

    // Tune before the crash: the SCoP goes into the journal as an
    // `admit` event.
    let tune_line = autotune_request_line("survivor", &polytops_workloads::jacobi_1d(), 6, 64);
    let mut client = RetryClient::new(addr.clone(), patient());
    let before = client.roundtrip(&tune_line).expect("first autotune");
    assert!(tune_ok(&before), "{before}");

    // Drive the batcher past the scripted kill point while the
    // supervisor hands the port to the second generation.
    let stream = &fleet_request_streams(1, 3)[0];
    let addr_ref: &str = &addr;
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let mut client = RetryClient::new(addr_ref, patient());
            for line in stream {
                client.roundtrip(line).expect("retry rides the restart");
            }
        });

        while !first.crashed() {
            std::thread::sleep(Duration::from_millis(5));
        }
        first.join();
        let second = Server::start_on(
            listener.try_clone().expect("clone listener"),
            fleet_config(2, &dir),
        )
        .expect("start second generation");
        let totals = second.persist_totals().expect("persistence enabled");
        assert!(
            totals.restored_entries > 0,
            "the restart must restore the journaled SCoPs: {totals:?}"
        );
        worker.join().expect("client thread");

        let mut probe = RetryClient::new(second.addr().to_string(), patient());
        let after = probe.roundtrip(&tune_line).expect("autotune after restart");
        assert_eq!(
            after, before,
            "the answer must survive the restart byte-identically"
        );
        second.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// An autotune answer survives even a *torn* snapshot: the second
/// generation falls back to the previous rotation plus the journals,
/// and the same autotune request gets the first generation's bytes.
#[test]
fn autotune_answer_survives_torn_snapshot() {
    let dir = scratch("tune-torn");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind supervisor port");
    let addr = listener.local_addr().unwrap().to_string();

    let first = Server::start_on(
        listener.try_clone().expect("clone listener"),
        ServerConfig {
            window_ms: 0,
            rotate_every: 1,
            snapshot_dir: Some(dir.display().to_string()),
            faults: FaultPlan {
                kill_after_batches: Some(3),
                torn_snapshot_bytes: Some(10),
                ..FaultPlan::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start first generation");

    let tune_line = autotune_request_line("survivor", &polytops_workloads::stencil_chain(), 5, 64);
    let mut client = RetryClient::new(addr.clone(), patient());
    let before = client.roundtrip(&tune_line).expect("first autotune");
    assert!(tune_ok(&before), "{before}");

    let stream = &fleet_request_streams(1, 4)[0];
    let addr_ref: &str = &addr;
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let mut client = RetryClient::new(addr_ref, patient());
            for line in stream {
                client.roundtrip(line).expect("retry rides the restart");
            }
        });

        while !first.crashed() {
            std::thread::sleep(Duration::from_millis(5));
        }
        first.join();
        let snapshot = std::fs::metadata(dir.join("snapshot")).expect("snapshot exists");
        assert_eq!(snapshot.len(), 10, "the kill must have torn the snapshot");

        let second = Server::start_on(
            listener.try_clone().expect("clone listener"),
            ServerConfig {
                window_ms: 0,
                rotate_every: 1,
                snapshot_dir: Some(dir.display().to_string()),
                ..ServerConfig::default()
            },
        )
        .expect("start second generation");
        let totals = second.persist_totals().expect("persistence enabled");
        assert!(
            totals.recovered_from_prev,
            "the bad checksum must trigger the .prev fallback: {totals:?}"
        );
        assert!(
            totals.restored_entries > 0,
            "the fallback must still restore the SCoPs: {totals:?}"
        );
        worker.join().expect("client thread");

        let mut probe = RetryClient::new(second.addr().to_string(), patient());
        let after = probe.roundtrip(&tune_line).expect("autotune after restart");
        assert_eq!(
            after, before,
            "the answer must survive the torn snapshot byte-identically"
        );
        second.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `drop_response` fault: the daemon truncates a response mid-line
/// and drops the connection; the retrying client reconnects, resends,
/// and still ends with the bit-identical answer.
#[test]
fn dropped_connection_mid_response_is_retried_transparently() {
    let handle = Server::start(ServerConfig {
        window_ms: 0,
        faults: FaultPlan {
            drop_response: Some(2),
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    })
    .expect("start daemon");

    let mut client = RetryClient::new(handle.addr().to_string(), patient());
    let stream = &fleet_request_streams(1, 3)[0];
    for (i, line) in stream.iter().enumerate() {
        let response = client
            .roundtrip(line)
            .expect("retry absorbs the torn response");
        let (ok, _, results, _) = unpack(&response);
        assert!(ok, "request {i}: {response}");
        assert_eq!(
            results,
            golden(line),
            "request {i}: the resent answer must be bit-identical"
        );
    }
    handle.shutdown();
}

/// The torn-snapshot fault: the kill truncates the freshly rotated
/// snapshot; the next generation detects the bad checksum, falls back
/// to the previous rotation plus both journal generations, and serves
/// the full state warm.
#[test]
fn torn_snapshot_recovers_from_previous_rotation() {
    let dir = scratch("torn");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind supervisor port");
    let addr = listener.local_addr().unwrap().to_string();

    let first = Server::start_on(
        listener.try_clone().expect("clone listener"),
        ServerConfig {
            window_ms: 0,
            rotate_every: 1, // rotate after every batch: .prev exists fast
            snapshot_dir: Some(dir.display().to_string()),
            faults: FaultPlan {
                kill_after_batches: Some(3),
                torn_snapshot_bytes: Some(10),
                ..FaultPlan::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start first generation");

    let stream = &fleet_request_streams(1, 3)[0];
    let addr_ref: &str = &addr;
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let mut client = RetryClient::new(addr_ref, patient());
            stream
                .iter()
                .map(|line| client.roundtrip(line).expect("retry rides the restart"))
                .collect::<Vec<_>>()
        });

        while !first.crashed() {
            std::thread::sleep(Duration::from_millis(5));
        }
        first.join();
        let snapshot = std::fs::metadata(dir.join("snapshot")).expect("snapshot exists");
        assert_eq!(snapshot.len(), 10, "the kill must have torn the snapshot");

        let second = Server::start_on(
            listener.try_clone().expect("clone listener"),
            ServerConfig {
                window_ms: 0,
                rotate_every: 1,
                snapshot_dir: Some(dir.display().to_string()),
                ..ServerConfig::default()
            },
        )
        .expect("start second generation");
        let totals = second.persist_totals().expect("persistence enabled");
        assert!(
            totals.recovered_from_prev,
            "the bad checksum must trigger the .prev fallback: {totals:?}"
        );
        assert!(totals.restored_entries > 0, "{totals:?}");

        let responses = worker.join().expect("client thread");
        for (line, response) in stream.iter().zip(&responses) {
            let (ok, _, results, _) = unpack(response);
            assert!(ok, "{response}");
            assert_eq!(results, golden(line), "recovery must stay bit-identical");
        }

        // The recovered state is warm: journaled kernels replay without
        // fresh eliminations.
        let mut probe = RetryClient::new(second.addr().to_string(), patient());
        for line in stream {
            let (ok, hit, results, misses) = unpack(&probe.roundtrip(line).unwrap());
            assert!(ok && hit, "recovered entries must be registry hits");
            assert_eq!(misses, 0, "recovered entries must replay warm");
            assert_eq!(results, golden(line));
        }
        second.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a daemon of the commit before the Farkas cache stopped being
/// kept per ILP layout left in its snapshot directory, byte for byte:
/// entries carry `"layouts"`, journals carry `layout` events. It had
/// served `stencil_chain` (pluto, an autotune, pluto_plus),
/// `producer_consumer` (pluto_plus), `reversed_consumer` (pluto and
/// pluto_plus) and `jacobi_1d` (feautrier) at `rotate_every` 4, and was
/// killed after the last of them.
const PARENT_SNAPSHOT: &str = r#"polytops-snapshot v1 1890 baa8f5167d9202df
{"entries":[{"layouts":[{"neg":true,"shift":true,"vars":[]}],"learned":[],"name":"producer_consumer","scop":"<polyscop>\nname producer_consumer\nparams N\ncontext 1\n  ineq 1 -1\narrays 3\narray A 8 1\n  dim 1 0\narray B 8 1\n  dim 1 0\narray C 8 1\n  dim 1 0\nstatements 2\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text B[i] = A[i];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 0\n  write 1 1\n    aff 1 0 0\nstatement S1\n  iters j\n  beta 1 0\n  ops 1\n  text C[j] = B[j];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 1 1\n    aff 1 0 0\n  write 2 1\n    aff 1 0 0\n</polyscop>\n"},{"layouts":[{"neg":false,"shift":false,"vars":[]},{"neg":true,"shift":true,"vars":[]}],"learned":[],"name":"reversed_consumer","scop":"<polyscop>\nname reversed_consumer\nparams N\ncontext 1\n  ineq 1 -1\narrays 3\narray A 8 1\n  dim 1 0\narray B 8 1\n  dim 1 0\narray C 8 1\n  dim 1 0\nstatements 2\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text B[i] = A[i];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 0\n  write 1 1\n    aff 1 0 0\nstatement S1\n  iters j\n  beta 1 0\n  ops 1\n  text C[j] = B[N-1-j];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 1 1\n    aff -1 1 -1\n  write 2 1\n    aff 1 0 0\n</polyscop>\n"},{"layouts":[{"neg":false,"shift":false,"vars":[]},{"neg":true,"shift":true,"vars":[]}],"learned":[{"key":"line64:cache33554432:vec32:cores16:miss24:sync2000:max4:est64","score":-63,"winner":"pluto"}],"name":"stencil_chain","scop":"<polyscop>\nname stencil_chain\nparams N\ncontext 1\n  ineq 1 -1\narrays 1\narray A 8 1\n  dim 1 0\nstatements 1\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text A[i] = A[i-1];\n  domain 2\n    ineq 1 0 -1\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 -1\n  write 0 1\n    aff 1 0 0\n</polyscop>\n"}]}"#;
const PARENT_SNAPSHOT_PREV: &str = r#"polytops-snapshot v1 1167 5c5ccd83403e4aa1
{"entries":[{"layouts":[{"neg":false,"shift":false,"vars":[]}],"learned":[{"key":"line64:cache33554432:vec32:cores16:miss24:sync2000:max4:est64","score":-63,"winner":"pluto"}],"name":"stencil_chain","scop":"<polyscop>\nname stencil_chain\nparams N\ncontext 1\n  ineq 1 -1\narrays 1\narray A 8 1\n  dim 1 0\nstatements 1\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text A[i] = A[i-1];\n  domain 2\n    ineq 1 0 -1\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 -1\n  write 0 1\n    aff 1 0 0\n</polyscop>\n"},{"layouts":[{"neg":true,"shift":true,"vars":[]}],"learned":[],"name":"producer_consumer","scop":"<polyscop>\nname producer_consumer\nparams N\ncontext 1\n  ineq 1 -1\narrays 3\narray A 8 1\n  dim 1 0\narray B 8 1\n  dim 1 0\narray C 8 1\n  dim 1 0\nstatements 2\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text B[i] = A[i];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 0\n  write 1 1\n    aff 1 0 0\nstatement S1\n  iters j\n  beta 1 0\n  ops 1\n  text C[j] = B[j];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 1 1\n    aff 1 0 0\n  write 2 1\n    aff 1 0 0\n</polyscop>\n"}]}"#;
const PARENT_JOURNAL_PREV: &str = r#"{"event":"admit","name":"reversed_consumer","scop":"<polyscop>\nname reversed_consumer\nparams N\ncontext 1\n  ineq 1 -1\narrays 3\narray A 8 1\n  dim 1 0\narray B 8 1\n  dim 1 0\narray C 8 1\n  dim 1 0\nstatements 2\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text B[i] = A[i];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 0\n  write 1 1\n    aff 1 0 0\nstatement S1\n  iters j\n  beta 1 0\n  ops 1\n  text C[j] = B[N-1-j];\n  domain 2\n    ineq 1 0 0\n    ineq -1 1 -1\n  accesses 2\n  read 1 1\n    aff -1 1 -1\n  write 2 1\n    aff 1 0 0\n</polyscop>\n"}
{"event":"layout","fp":"1f197e71ae7b17ef","neg":false,"shift":false,"vars":[]}
{"event":"layout","fp":"1f197e71ae7b17ef","neg":true,"shift":true,"vars":[]}
{"event":"layout","fp":"b97220021c17b112","neg":true,"shift":true,"vars":[]}
"#;
const PARENT_JOURNAL: &str = r#"{"event":"admit","name":"jacobi_1d","scop":"<polyscop>\nname jacobi_1d\nparams T N\ncontext 2\n  ineq 1 0 -1\n  ineq 0 1 -1\narrays 1\narray A 8 1\n  dim 0 1 0\nstatements 1\nstatement S0\n  iters t i\n  beta 0 0 0\n  ops 2\n  text A[i] = A[i-1] + A[i] + A[i+1];\n  domain 4\n    ineq 1 0 0 0 0\n    ineq -1 0 1 0 -1\n    ineq 0 1 0 0 -1\n    ineq 0 -1 0 1 -2\n  accesses 4\n  read 0 1\n    aff 0 1 0 0 -1\n  read 0 1\n    aff 0 1 0 0 0\n  read 0 1\n    aff 0 1 0 0 1\n  write 0 1\n    aff 0 1 0 0 0\n</polyscop>\n"}
{"event":"layout","fp":"5acdbe87a328f1fe","neg":false,"shift":false,"vars":[]}
"#;

/// A journal of the commit that still remembered autotune winners, byte
/// for byte: it admitted `stencil_chain` for an autotune and journaled
/// the winner as a `learned` event.
const PARENT_TUNE_JOURNAL: &str = r#"{"event":"admit","name":"stencil_chain","scop":"<polyscop>\nname stencil_chain\nparams N\ncontext 1\n  ineq 1 -1\narrays 1\narray A 8 1\n  dim 1 0\nstatements 1\nstatement S0\n  iters i\n  beta 0 0\n  ops 1\n  text A[i] = A[i-1];\n  domain 2\n    ineq 1 0 -1\n    ineq -1 1 -1\n  accesses 2\n  read 0 1\n    aff 1 0 -1\n  write 0 1\n    aff 1 0 0\n</polyscop>\n"}
{"event":"learned","fp":"b97220021c17b112","key":"line64:cache33554432:vec32:cores16:miss24:sync2000:max4:est256","score":-255,"winner":"pluto"}
"#;

/// A snapshot directory holding the parent commit's four files.
fn parent_dir(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    for (name, bytes) in [
        ("snapshot", PARENT_SNAPSHOT),
        ("snapshot.prev", PARENT_SNAPSHOT_PREV),
        ("journal.prev", PARENT_JOURNAL_PREV),
        ("journal", PARENT_JOURNAL),
    ] {
        std::fs::write(dir.join(name), bytes).expect("write fixture");
    }
    dir
}

/// A daemon on `dir` that never rotates while a test drives it.
fn start_on_dir(dir: &std::path::Path) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        rotate_every: 1_000,
        ..fleet_config(2, dir)
    })
    .expect("start on the fixture directory")
}

/// The first request against each of the four SCoPs the parent's files
/// hold — under the presets it served them with — must be a registry
/// hit that eliminates nothing and answers as the offline engine does.
fn assert_parent_entries_serve_warm(handle: &ServerHandle) {
    use polytops_workloads::{jacobi_1d, producer_consumer, reversed_consumer, stencil_chain};
    let mut client = RetryClient::new(handle.addr().to_string(), patient());
    for (kernel, scop, presets) in [
        (
            "stencil_chain",
            stencil_chain(),
            &["pluto", "pluto_plus"][..],
        ),
        (
            "producer_consumer",
            producer_consumer(),
            &["pluto_plus"][..],
        ),
        (
            "reversed_consumer",
            reversed_consumer(),
            &["pluto", "pluto_plus"][..],
        ),
        ("jacobi_1d", jacobi_1d(), &["feautrier"][..]),
    ] {
        let line = request_line(kernel, kernel, &scop, presets);
        let response = client.roundtrip(&line).expect("first request");
        let (ok, hit, results, misses) = unpack(&response);
        assert!(ok && hit, "{kernel} must be resident: {response}");
        assert_eq!(misses, 0, "{kernel} must be prewarmed: {response}");
        assert_eq!(results, golden(&line), "{kernel}");
    }
}

/// Files written by the parent commit still load: every entry of the
/// snapshot and the journal is resident and prewarmed, the `layouts`
/// arrays and `layout` events are read and ignored (an event still
/// counts as replayed), and a torn journal tail is dropped as before.
#[test]
fn parent_commit_files_restore_every_entry_warm() {
    for torn_tail in [false, true] {
        let dir = parent_dir(&format!("parent-{torn_tail}"));
        if torn_tail {
            let torn = format!("{PARENT_JOURNAL}{{\"event\":\"layout\",\"fp\":\"5acd");
            std::fs::write(dir.join("journal"), torn).expect("tear the journal");
        }
        let handle = start_on_dir(&dir);
        let totals = handle.persist_totals().expect("persistence enabled");
        assert_eq!(totals.restored_entries, 4, "torn={torn_tail}: {totals:?}");
        assert_eq!(totals.replayed_events, 2, "torn={torn_tail}: {totals:?}");
        assert!(!totals.recovered_from_prev, "torn={torn_tail}: {totals:?}");
        assert_parent_entries_serve_warm(&handle);
        handle.shutdown();
        // The graceful shutdown rewrote the snapshot in today's format.
        let snapshot = std::fs::read_to_string(dir.join("snapshot")).expect("snapshot");
        assert!(!snapshot.contains("layouts"), "{snapshot}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `.prev` fallback over the parent's files: with its current
/// snapshot torn, the previous rotation plus both journal generations
/// (six events, four of them `layout`) rebuild the same four entries.
#[test]
fn parent_commit_files_recover_from_previous_rotation() {
    let dir = parent_dir("parent-prev");
    std::fs::write(dir.join("snapshot"), &PARENT_SNAPSHOT[..10]).expect("tear the snapshot");
    let handle = start_on_dir(&dir);
    let totals = handle.persist_totals().expect("persistence enabled");
    assert!(totals.recovered_from_prev, "{totals:?}");
    assert_eq!(totals.restored_entries, 4, "{totals:?}");
    assert_eq!(totals.replayed_events, 6, "{totals:?}");
    assert_parent_entries_serve_warm(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal of the commit that remembered autotune winners still
/// loads: its `admit` restores the entry, prewarmed, and its `learned`
/// event applies as nothing; both count as replayed.
#[test]
fn parent_commit_tune_journal_restores_its_entry_warm() {
    let dir = scratch("parent-tune");
    std::fs::write(dir.join("journal"), PARENT_TUNE_JOURNAL).expect("write fixture");
    let handle = start_on_dir(&dir);
    let totals = handle.persist_totals().expect("persistence enabled");
    assert_eq!(totals.restored_entries, 1, "{totals:?}");
    assert_eq!(totals.replayed_events, 2, "{totals:?}");
    let line = request_line(
        "stencil_chain",
        "stencil_chain",
        &polytops_workloads::stencil_chain(),
        &["pluto"],
    );
    let mut client = RetryClient::new(handle.addr().to_string(), patient());
    let response = client.roundtrip(&line).expect("first request");
    let (ok, hit, results, misses) = unpack(&response);
    assert!(ok && hit, "stencil_chain must be resident: {response}");
    assert_eq!(misses, 0, "stencil_chain must be prewarmed: {response}");
    assert_eq!(results, golden(&line));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A churn of new SCoPs under layout-changing presets appends `admit`
/// events and nothing else; registry hits and autotunes of a resident
/// SCoP append nothing.
#[test]
fn churn_journals_admit_events_only() {
    use polytops_workloads::synthetic::long_chain;
    let dir = parent_dir("parent-churn");
    let handle = start_on_dir(&dir);
    let mut client = RetryClient::new(handle.addr().to_string(), patient());
    for (n, presets) in [
        (2, &["pluto_plus"][..]),
        (3, &["pluto", "pluto_plus"][..]),
        (4, &["feautrier"][..]),
    ] {
        let name = format!("long_chain_{n}");
        let line = request_line(&name, &name, &long_chain(n), presets);
        let (ok, hit, _, _) = unpack(&client.roundtrip(&line).expect("churn request"));
        assert!(ok && !hit, "{name} is new");
    }
    // A resident SCoP under a preset it has not seen: nothing to journal.
    let line = request_line("again", "long_chain_2", &long_chain(2), &["pluto"]);
    assert!(unpack(&client.roundtrip(&line).expect("repeat")).1);
    let tune = autotune_request_line("tune", &long_chain(2), 4, 64);
    assert!(tune_ok(&client.roundtrip(&tune).expect("autotune")));
    // Neither a repeated autotune nor a hit changes the registry.
    assert!(tune_ok(&client.roundtrip(&tune).expect("repeat autotune")));
    let line = request_line("hit", "long_chain_3", &long_chain(3), &["feautrier"]);
    assert!(unpack(&client.roundtrip(&line).expect("hit")).1);

    let journal = std::fs::read_to_string(dir.join("journal")).expect("journal");
    let appended = journal
        .strip_prefix(PARENT_JOURNAL)
        .expect("the journal is appended to");
    let events: Vec<String> = appended
        .lines()
        .map(|line| {
            let event = polytops_core::json::parse(line).expect("journal line parses");
            event.as_object().expect("event object")["event"]
                .as_str()
                .expect("event name")
                .to_string()
        })
        .collect();
    assert_eq!(events, ["admit", "admit", "admit"]);
    assert_eq!(
        handle.persist_totals().expect("persistence").journal_events,
        3
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SCoP evicted and admitted again inside one rotation window is
/// journaled again, so the replay after a kill rebuilds the resident
/// set with it and the restarted daemon serves it warm.
#[test]
fn readmission_after_eviction_is_journaled() {
    use polytops_workloads::synthetic::long_chain;
    let dir = scratch("readmit");
    let config = ServerConfig {
        registry_capacity: 2,
        rotate_every: 1_000,
        ..fleet_config(2, &dir)
    };
    let first = Server::start(ServerConfig {
        faults: FaultPlan {
            kill_after_batches: Some(4),
            ..FaultPlan::default()
        },
        ..config.clone()
    })
    .expect("start first generation");
    let lines: Vec<String> = [2, 3, 4, 2]
        .into_iter()
        .map(|n| {
            let name = format!("long_chain_{n}");
            request_line(&name, &name, &long_chain(n), &["pluto"])
        })
        .collect();
    let mut client = Client::connect(first.addr()).expect("connect");
    for line in &lines[..3] {
        let (ok, hit, _, _) = unpack(&client.roundtrip(line).expect("request"));
        assert!(ok && !hit, "{line}");
    }
    // The fourth batch admits the evicted long_chain_2 again; the kill
    // follows its journal append and drops the response.
    assert!(client.roundtrip(&lines[3]).is_err(), "the kill drops it");
    while !first.crashed() {
        std::thread::sleep(Duration::from_millis(5));
    }
    first.join();

    let journal = std::fs::read_to_string(dir.join("journal")).expect("journal");
    let admits = journal
        .lines()
        .filter(|line| {
            let event = polytops_core::json::parse(line).expect("journal line parses");
            event.as_object().expect("event object")["event"].as_str() == Some("admit")
        })
        .count();
    assert_eq!(admits, 4, "{journal}");

    let second = Server::start(config).expect("start second generation");
    let mut client = Client::connect(second.addr()).expect("connect");
    let response = client.roundtrip(&lines[3]).expect("request after restart");
    let (ok, hit, results, misses) = unpack(&response);
    assert!(ok && hit, "long_chain_2 must be resident: {response}");
    assert_eq!(misses, 0, "long_chain_2 must be prewarmed: {response}");
    assert_eq!(results, golden(&lines[3]));
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch that admits two SCoPs journals both with one fsync: the one
/// sync covers every earlier write, so both admissions are durable
/// before either answer goes out, and a daemon killed afterwards
/// restarts with both entries warm.
#[test]
fn a_batch_of_admissions_is_synced_once() {
    let dir = scratch("one-sync");
    let config = ServerConfig {
        window_ms: 200, // wide window: the pair below forms one batch
        rotate_every: 1_000,
        ..fleet_config(2, &dir)
    };
    let first = Server::start(ServerConfig {
        faults: FaultPlan {
            kill_after_batches: Some(2),
            ..FaultPlan::default()
        },
        ..config.clone()
    })
    .expect("start first generation");
    let lines = [
        request_line("a", "stencil_chain", &stencil_chain(), &["pluto"]),
        request_line("b", "producer_consumer", &producer_consumer(), &["pluto"]),
    ];
    let mut client = Client::connect(first.addr()).expect("connect");
    for line in &lines {
        client.send_line(line).expect("send");
    }
    for line in &lines {
        let (ok, hit, results, _) = unpack(&client.recv_line().expect("response"));
        assert!(ok && !hit, "{line}");
        assert_eq!(results, golden(line));
    }
    let stats = client.stats().expect("stats");
    let stats = stats.as_object().expect("stats object");
    assert_eq!(stats["batches"].as_int(), Some(1), "the pair is one batch");
    let persist = stats["persist"].as_object().expect("persistence");
    assert_eq!(persist["journal_events"].as_int(), Some(2));
    let fsyncs = stats["obs"].as_object().unwrap()["histograms"]
        .as_object()
        .unwrap()["persist.fsync_ns"]
        .as_object()
        .unwrap()["count"]
        .as_int();
    assert_eq!(fsyncs, Some(1), "one fsync for the batch's two events");
    // A hit journals nothing; the kill follows its batch.
    assert!(client.roundtrip(&lines[0]).is_err(), "the kill drops it");
    while !first.crashed() {
        std::thread::sleep(Duration::from_millis(5));
    }
    first.join();

    let second = Server::start(config).expect("start second generation");
    assert_eq!(second.persist_totals().unwrap().restored_entries, 2);
    let mut client = Client::connect(second.addr()).expect("connect");
    for line in &lines {
        let response = client.roundtrip(line).expect("request after restart");
        let (ok, hit, results, misses) = unpack(&response);
        assert!(ok && hit, "must be resident: {response}");
        assert_eq!(misses, 0, "must be prewarmed: {response}");
        assert_eq!(results, golden(line));
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry's remembered texts are not persisted: after a kill, the
/// restarted daemon answers a resent text by parsing it — a canonical
/// hit on the restored entry, eliminating nothing — and only the text's
/// second resend is a text hit.
#[test]
fn remembered_texts_do_not_survive_a_restart() {
    let dir = scratch("texts");
    let config = ServerConfig {
        rotate_every: 1_000,
        ..fleet_config(2, &dir)
    };
    let first = Server::start(ServerConfig {
        faults: FaultPlan {
            kill_after_batches: Some(2),
            ..FaultPlan::default()
        },
        ..config.clone()
    })
    .expect("start first generation");
    let line = request_line(
        "chain",
        "stencil_chain",
        &polytops_workloads::stencil_chain(),
        &["pluto", "feautrier"],
    );
    let mut client = Client::connect(first.addr()).expect("connect");
    let (ok, hit, _, _) = unpack(&client.roundtrip(&line).expect("first request"));
    assert!(ok && !hit);
    assert!(client.roundtrip(&line).is_err(), "the kill drops it");
    while !first.crashed() {
        std::thread::sleep(Duration::from_millis(5));
    }
    first.join();

    let second = Server::start(config).expect("start second generation");
    let mut client = Client::connect(second.addr()).expect("connect");
    let text_hits = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        stats.as_object().expect("stats object")["registry"]
            .as_object()
            .expect("registry object")["text_hits"]
            .as_int()
            .expect("text_hits")
    };
    for resend in 0..2 {
        let response = client.roundtrip(&line).expect("resend");
        let (ok, hit, results, misses) = unpack(&response);
        assert!(ok && hit, "resend {resend} must be resident: {response}");
        assert_eq!(misses, 0, "resend {resend} must be prewarmed: {response}");
        assert_eq!(results, golden(&line), "resend {resend}");
        assert_eq!(text_hits(&mut client), resend, "resend {resend}");
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile text: a 4 MiB request line whose pad mixes ASCII, 2-, 3- and
/// 4-byte UTF-8 and escapes is parsed on its connection's reader thread
/// in time linear in its bytes, so the daemon answers it, and a ping on
/// a second connection is answered promptly both while the line sits
/// unterminated in its buffer and right behind its final newline (a
/// parser quadratic in the line once held every connection of the
/// single-threaded event loop for over a minute there).
#[test]
fn a_four_mebibyte_line_does_not_stall_other_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let unit = r#"pad é € 😀 \" \\ é "#;
    let body = format!(
        r#"{{"op":"ping","pad":"{}"}}"#,
        unit.repeat((4 << 20) / unit.len() + 1)
    );
    assert!(body.len() > 4 << 20);
    let pong = r#"{"ok":true,"pong":true}"#;
    let mut big = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut probe = Client::connect(handle.addr()).expect("connect the probe");
    let mut ping = || {
        let start = Instant::now();
        assert_eq!(probe.roundtrip(r#"{"op":"ping"}"#).expect("probe"), pong);
        start.elapsed()
    };

    big.write_all(body.as_bytes())
        .expect("send all but the newline");
    let unterminated = ping();
    big.write_all(b"\n").expect("finish the line");
    let behind = ping();
    let mut response = String::new();
    BufReader::new(&big)
        .read_line(&mut response)
        .expect("the 4 MiB line is answered");
    assert_eq!(response.trim_end(), pong);
    for (when, waited) in [("unterminated", unterminated), ("behind it", behind)] {
        assert!(
            waited < Duration::from_secs(2),
            "a ping {when} the 4 MiB line waited {waited:?}"
        );
    }
    handle.shutdown();
}

/// Hostile nesting: the parser recurses once per `[`, so a 40 KB line of
/// them used to overflow the parsing thread's stack and abort the
/// daemon. The depth bound, sized for a connection reader's default
/// thread stack, answers it with an error instead, and both the same
/// connection and a fresh one are served after it.
#[test]
fn a_deeply_nested_line_gets_an_error_not_a_crash() {
    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let pong = r#"{"ok":true,"pong":true}"#;
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client
        .roundtrip(&"[".repeat(40_000))
        .expect("the nested line is answered");
    let parsed = polytops_core::json::parse(&response).expect("response parses");
    let obj = parsed.as_object().expect("response object");
    assert_eq!(obj["ok"].as_bool(), Some(false), "{response}");
    let bound = format!("nesting deeper than {}", polytops_core::json::MAX_DEPTH);
    assert!(
        obj["error"].as_str().is_some_and(|e| e.contains(&bound)),
        "{response}"
    );
    let ping = r#"{"op":"ping"}"#;
    assert_eq!(client.roundtrip(ping).expect("same connection"), pong);
    let mut fresh = Client::connect(handle.addr()).expect("connect again");
    assert_eq!(fresh.roundtrip(ping).expect("fresh connection"), pong);
    handle.shutdown();
}

/// Hostile counts: a SCoP text whose `arrays` line asks for 2^62 − 1
/// arrays used to reach an allocation of that many and abort the
/// daemon. The parser sizes nothing by a count the remaining lines
/// cannot back, so the line gets a parse error, and a well-formed
/// request after it on the same connection gets its golden bytes.
#[test]
fn an_unbacked_count_gets_an_error_not_an_abort() {
    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let mut roundtrip = line_roundtrip(handle.addr());
    let hostile = r#"{"op":"schedule","id":1,"scop":"<polyscop>\nname big\nparams N\ncontext 0\narrays 4611686018427387903\n</polyscop>\n","scenarios":[{"preset":"pluto"}]}"#;
    let response = roundtrip(hostile);
    let parsed = polytops_core::json::parse(&response).expect("response parses");
    assert_eq!(
        parsed.as_object().expect("response object")["ok"].as_bool(),
        Some(false)
    );
    assert!(response.contains("expected `array`"), "{response}");
    let line = request_line(
        "matmul",
        "matmul",
        &polytops_workloads::matmul(),
        &["pluto"],
    );
    let (ok, _, results, _) = unpack(&roundtrip(&line));
    assert!(ok, "{line}");
    assert_eq!(results, golden(&line));
    handle.shutdown();
}

/// A raw connection to `addr` that writes one line and reads one line
/// back. A daemon that lost its batcher would never answer, so a read
/// fails after 30 s instead of hanging.
fn line_roundtrip(addr: std::net::SocketAddr) -> impl FnMut(&str) -> String {
    use std::io::{BufRead, BufReader, Write};

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    (stream.set_read_timeout(Some(Duration::from_secs(30)))).expect("set a read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    move |line| {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("an answer");
        response.trim_end().to_string()
    }
}

/// A directive naming a statement the SCoP does not have used to index
/// past the statement list inside the batcher, whose panic left every
/// later request answered `"shutting down"`. The configuration is now
/// checked against its SCoP before any solve: the scenario gets an
/// error naming the field, the offline engine's bytes, and a
/// well-formed request after it on the same connection gets its golden
/// bytes.
#[test]
fn a_directive_on_a_missing_statement_gets_an_error_not_a_dead_batcher() {
    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let mut roundtrip = line_roundtrip(handle.addr());
    let scop = Json::Str(polytops_ir::print_scop(&polytops_workloads::stencil_chain())).compact();
    let config = r#"{"scheduling_strategy":{"directives":[{"type":"vectorize","stmts":"5","iterator":"9"}]}}"#;
    let hostile =
        format!(r#"{{"op":"schedule","id":1,"scop":{scop},"scenarios":[{{"config":{config}}}]}}"#);
    let response = roundtrip(&hostile);
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(
        response.contains("directives[0].stmts names statement 5"),
        "{response}"
    );
    let (_, _, results, _) = unpack(&response);
    assert_eq!(results, golden(&hostile));
    let line = request_line(
        "matmul",
        "matmul",
        &polytops_workloads::matmul(),
        &["pluto"],
    );
    let (ok, _, results, _) = unpack(&roundtrip(&line));
    assert!(ok, "{line}");
    assert_eq!(results, golden(&line));
    handle.shutdown();
}

/// A custom-constraint integer past `i64` used to panic the batcher of
/// a debug daemon and to wrap in a release one, which scheduled
/// `S0_it_0 >= 2^64 + 1` as `>= 1`. The scenario now gets a constraint
/// error, the offline engine's bytes, and a well-formed request after
/// it on the same connection gets its golden bytes.
#[test]
fn a_custom_constraint_past_i64_gets_an_error_not_a_wrapped_schedule() {
    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let mut roundtrip = line_roundtrip(handle.addr());
    let scop = Json::Str(polytops_ir::print_scop(&polytops_workloads::matmul())).compact();
    let config = r#"{"scheduling_strategy":{"custom_constraints":[{"scheduling_dimension":"default","constraints":["S0_it_0 >= 18446744073709551617"]}]}}"#;
    let hostile =
        format!(r#"{{"op":"schedule","id":1,"scop":{scop},"scenarios":[{{"config":{config}}}]}}"#);
    let response = roundtrip(&hostile);
    let (_, _, results, _) = unpack(&response);
    let parsed = polytops_core::json::parse(&results).expect("results parse");
    let result = parsed.as_array().expect("results array")[0]
        .as_object()
        .expect("result object");
    assert_eq!(result["ok"].as_bool(), Some(false), "{response}");
    assert!(response.contains("integer out of range"), "{response}");
    assert_eq!(results, golden(&hostile));
    let line = request_line(
        "matmul",
        "matmul",
        &polytops_workloads::matmul(),
        &["pluto"],
    );
    let (ok, _, results, _) = unpack(&roundtrip(&line));
    assert!(ok, "{line}");
    assert_eq!(results, golden(&line));
    handle.shutdown();
}

/// A subscript at the edge of `i64`: `A[i + i64::MAX] = A[i - 1]`,
/// whose dependence equality has the constant 2^63. Its analysis used to
/// panic a debug batcher and to drop the flow dependence in a release
/// one. The equality is now dropped as a non-affine one is: the request
/// gets the offline engine's bytes, and a well-formed request after it
/// on the same connection gets its golden bytes.
#[test]
fn a_subscript_past_i64_gets_a_schedule_not_a_dead_batcher() {
    use polytops_ir::{Aff, ScopBuilder};
    let handle = Server::start(ServerConfig::default()).expect("start daemon");
    let mut roundtrip = line_roundtrip(handle.addr());
    let mut b = ScopBuilder::new("past");
    let n = b.param("N");
    let a = b.array("A", &[n.clone()], 8);
    b.open_loop("i", Aff::val(0), n - 1);
    b.stmt("S0")
        .read(a, &[Aff::var("i") - 1])
        .write(a, &[Aff::var("i") + i64::MAX])
        .add(&mut b);
    b.close_loop();
    let hostile = request_line("past", "past", &b.build().unwrap(), &["pluto"]);
    let (ok, _, results, _) = unpack(&roundtrip(&hostile));
    assert!(ok, "{hostile}");
    assert_eq!(results, golden(&hostile));
    let line = request_line("chain", "stencil_chain", &stencil_chain(), &["pluto"]);
    let (ok, _, results, _) = unpack(&roundtrip(&line));
    assert!(ok, "{line}");
    assert_eq!(results, golden(&line));
    handle.shutdown();
}

/// The `Client` hard-failure regression: a request submitted while the
/// daemon is *down* (connection refused, nothing listening) must still
/// get its bit-identical answer once the daemon comes up.
#[test]
fn client_submitted_during_restart_window_gets_its_answer() {
    // Learn a free port, then close the listener: a never-accepted
    // listener leaves no TIME_WAIT state, so the port is immediately
    // rebindable — and until then, connects are refused.
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let stream = &fleet_request_streams(1, 1)[0];
    let line = stream[0].clone();
    let addr_clone = addr.clone();
    let worker = std::thread::spawn(move || {
        let mut client = RetryClient::new(addr_clone, patient());
        client
            .roundtrip(&line)
            .expect("retry spans the down window")
    });

    // Let the client burn a few refused attempts before the daemon
    // appears.
    std::thread::sleep(Duration::from_millis(150));
    let handle = Server::start(ServerConfig {
        addr,
        window_ms: 0,
        ..ServerConfig::default()
    })
    .expect("rebind the drained port");

    let response = worker.join().expect("client thread");
    let (ok, _, results, _) = unpack(&response);
    assert!(ok, "{response}");
    assert_eq!(
        results,
        golden(&stream[0]),
        "the delayed answer must be bit-identical"
    );
    handle.shutdown();
}
