//! Re-submitting an autotune request: it is explored again on the
//! registry entry the first request left resident and answered with the
//! first answer's bytes — at every worker-thread count, and through the
//! consistent-hash router (same fingerprint → same shard → the shard
//! holding the entry answers the repeat).
//!
//! The test names predate the removal of the remembered-winner store;
//! "learned" now names the resident registry entry, which keeps analysis
//! state only, never an answer.

use polytops_server::{Client, Router, RouterConfig, Server, ServerConfig};
use polytops_workloads::requests::autotune_request_line;

/// Sends `line` to `addr` on a fresh connection and returns the answer.
fn ask(addr: std::net::SocketAddr, line: &str) -> String {
    Client::connect(addr)
        .expect("connect")
        .roundtrip(line)
        .expect("roundtrip")
}

/// Asserts `answer` is a certified autotune answer that scheduled all
/// `candidates` lattice points.
fn assert_explored(answer: &str, candidates: usize) {
    let parsed = polytops_core::json::parse(answer).expect("answer parses");
    let obj = parsed.as_object().expect("answer object");
    assert_eq!(obj["ok"].as_bool(), Some(true), "{answer}");
    assert_eq!(
        obj["candidates"].as_array().map(<[_]>::len),
        Some(candidates),
        "{answer}"
    );
    assert_eq!(
        obj["explored_scenarios"].as_int(),
        Some(candidates as i64),
        "{answer}"
    );
}

/// The first request registers the SCoP and explores the lattice; the
/// repeat, on a fresh connection, hits the registry, explores again and
/// gets the first answer's bytes. The answer is also the same at 1, 2
/// and 4 worker threads.
#[test]
fn warm_resubmission_is_served_from_the_learned_registry() {
    let scop = polytops_workloads::jacobi_1d();
    let line = autotune_request_line("tune", &scop, 6, 64);
    let mut answers: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let handle = Server::start(ServerConfig {
            threads,
            ..ServerConfig::default()
        })
        .expect("start daemon");
        let first = ask(handle.addr(), &line);
        let repeat = ask(handle.addr(), &line);
        assert_explored(&first, 6);
        assert_eq!(repeat, first, "threads={threads}: repeat bytes");

        let stats = Client::connect(handle.addr())
            .expect("connect")
            .roundtrip_json(r#"{"op":"stats"}"#)
            .expect("stats");
        let obj = stats.as_object().unwrap();
        let registry = obj["registry"].as_object().unwrap();
        assert_eq!(registry["entries"].as_int(), Some(1), "{}", stats.compact());
        assert_eq!(registry["misses"].as_int(), Some(1), "{}", stats.compact());
        assert_eq!(registry["hits"].as_int(), Some(1), "{}", stats.compact());
        let tuner = obj["tuner"].as_object().unwrap();
        assert_eq!(tuner["requests"].as_int(), Some(2), "{}", stats.compact());

        answers.push((threads, first));
        handle.shutdown();
    }
    let (_, first) = &answers[0];
    for (threads, answer) in &answers[1..] {
        assert_eq!(answer, first, "threads={threads} against threads=1");
    }
}

/// Router affinity: both requests for one fingerprint land on the same
/// shard, which holds the only registry entry and answers the repeat
/// with the first answer's bytes.
#[test]
fn router_sends_resubmissions_to_the_shard_holding_the_learned_entry() {
    let shard_a = Server::start(ServerConfig::default()).expect("shard a");
    let shard_b = Server::start(ServerConfig::default()).expect("shard b");
    let router = Router::start(RouterConfig {
        shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");

    let scop = polytops_workloads::stencil_chain();
    let line = autotune_request_line("routed", &scop, 5, 64);
    let first = ask(router.addr(), &line);
    let repeat = ask(router.addr(), &line);
    assert_explored(&first, 5);
    assert_eq!(
        repeat, first,
        "the repeat must get the first answer's bytes"
    );

    // Exactly one shard holds the entry, and it served both requests.
    let stats = Client::connect(router.addr())
        .expect("connect router")
        .roundtrip_json(r#"{"op":"stats"}"#)
        .expect("fleet stats");
    let shards = stats.as_object().unwrap()["shards"].as_array().unwrap();
    let field = |group: &str, key: &str| -> Vec<i64> {
        shards
            .iter()
            .map(|s| {
                s.as_object().unwrap()[group].as_object().unwrap()[key]
                    .as_int()
                    .unwrap()
            })
            .collect()
    };
    let entries = field("registry", "entries");
    let hits = field("registry", "hits");
    let requests = field("tuner", "requests");
    assert_eq!(entries.iter().sum::<i64>(), 1, "{}", stats.compact());
    let owner = entries.iter().position(|&c| c == 1).unwrap();
    assert_eq!(hits[owner], 1, "{}", stats.compact());
    assert_eq!(requests[owner], 2, "{}", stats.compact());
    assert_eq!(requests.iter().sum::<i64>(), 2, "{}", stats.compact());

    let ack = ask(router.addr(), r#"{"op":"shutdown"}"#);
    assert!(ack.contains("shutting_down"), "{ack}");
    router.join();
    shard_a.join();
    shard_b.join();
}
