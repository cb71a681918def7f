//! Consistent-hash router tests: ring stability under shard add/remove
//! (only the moved shard's keys change owner), rough balance, and the
//! end-to-end pass-through contract — router-fronted responses are
//! byte-identical to a single fresh daemon's for the standard sweep.

use polytops_core::registry::fnv1a;
use polytops_server::{Client, HashRing, Router, RouterConfig, Server, ServerConfig};
use polytops_workloads::all_kernels;
use polytops_workloads::requests::sweep_request_line;

/// Deterministic pseudo-fingerprints (the ring hashes whatever `u64`
/// it is given; these stand in for SCoP fingerprints).
fn keys(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| fnv1a(format!("key-{i}").as_bytes()))
        .collect()
}

fn labels(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn ring_is_stable_under_shard_add() {
    let before = HashRing::new(&labels(&["a:1", "b:1", "c:1"]));
    let after = HashRing::new(&labels(&["a:1", "b:1", "c:1", "d:1"]));
    let keys = keys(4000);
    let mut moved = 0u64;
    for &key in &keys {
        let new_owner = after.shard_of(key);
        if new_owner == 3 {
            moved += 1;
        } else {
            // Every key not claimed by the new shard keeps its owner:
            // existing registries keep their residency.
            assert_eq!(
                new_owner,
                before.shard_of(key),
                "only the new shard's keys may move"
            );
        }
    }
    // ~K/N keys move to the new shard (loose 2x bound both ways).
    let expected = keys.len() as u64 / 4;
    assert!(
        moved > expected / 2 && moved < expected * 2,
        "adding 1 of 4 shards moved {moved} of {} keys",
        keys.len()
    );
}

#[test]
fn ring_is_stable_under_shard_remove() {
    let before = HashRing::new(&labels(&["a:1", "b:1", "c:1", "d:1"]));
    let after = HashRing::new(&labels(&["a:1", "b:1", "c:1"]));
    let mut moved = 0u64;
    let keys = keys(4000);
    for &key in &keys {
        let old_owner = before.shard_of(key);
        if old_owner == 3 {
            // The removed shard's keys redistribute somewhere valid.
            assert!(after.shard_of(key) < 3);
            moved += 1;
        } else {
            assert_eq!(
                after.shard_of(key),
                old_owner,
                "survivors keep every key they owned"
            );
        }
    }
    let expected = keys.len() as u64 / 4;
    assert!(
        moved > expected / 2 && moved < expected * 2,
        "removing 1 of 4 shards moved {moved} of {} keys",
        keys.len()
    );
}

#[test]
fn ring_balances_roughly_evenly() {
    let ring = HashRing::new(&labels(&["a:1", "b:1", "c:1", "d:1"]));
    assert_eq!(ring.shards(), 4);
    let mut counts = [0u64; 4];
    for key in keys(10_000) {
        counts[ring.shard_of(key)] += 1;
    }
    for (shard, &count) in counts.iter().enumerate() {
        assert!(
            count > 500,
            "shard {shard} owns only {count} of 10000 keys: {counts:?}"
        );
    }
}

/// The pass-through contract: for the standard sweep, a client talking
/// to a router over two fresh shards receives responses byte-identical
/// to a client talking to one fresh daemon — and both shards actually
/// serve a share of the kernels.
#[test]
fn routed_sweep_is_byte_identical_to_direct() {
    let shard_config = || ServerConfig {
        window_ms: 5,
        ..ServerConfig::default()
    };
    let direct = Server::start(shard_config()).expect("direct daemon");
    let shard_a = Server::start(shard_config()).expect("shard a");
    let shard_b = Server::start(shard_config()).expect("shard b");
    let router = Router::start(RouterConfig {
        shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");

    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let mut via_daemon = Client::connect(direct.addr()).expect("connect daemon");

    // Liveness through the front.
    let pong = via_router.roundtrip(r#"{"op":"ping"}"#).unwrap();
    assert!(pong.contains("pong"), "{pong}");

    // The bit-identity contract is stated over the `results` field
    // (the diagnostic `stats` splits legitimately vary run to run —
    // see `polytops_core::scenario`'s determinism contract).
    let results_of = |response: &str| -> (bool, String, String) {
        let parsed = polytops_core::json::parse(response).expect("response parses");
        let obj = parsed.as_object().expect("response object");
        (
            obj["ok"].as_bool().expect("ok flag"),
            obj["id"].compact(),
            obj["results"].compact(),
        )
    };
    for (kernel, scop) in all_kernels() {
        let line = sweep_request_line(kernel, kernel, &scop);
        let routed = via_router.roundtrip(&line).expect("routed roundtrip");
        let direct_response = via_daemon.roundtrip(&line).expect("direct roundtrip");
        let (ok_r, id_r, results_r) = results_of(&routed);
        let (ok_d, id_d, results_d) = results_of(&direct_response);
        assert!(
            ok_r && ok_d,
            "{kernel}: routed={routed} direct={direct_response}"
        );
        assert_eq!(id_r, id_d);
        assert_eq!(
            results_r, results_d,
            "{kernel}: routed results must be byte-identical to the direct daemon's"
        );
    }

    // Fleet stats: each shard served exactly the kernels the ring
    // assigns it. The oracle rebuilds the router's own ring from the
    // shard addresses, so the check is deterministic even when an
    // unlucky port draw sends the whole sweep to one shard.
    let ring = HashRing::new(&[shard_a.addr().to_string(), shard_b.addr().to_string()]);
    let mut expected_requests = [0i64; 2];
    for (_, scop) in all_kernels() {
        expected_requests[ring.shard_of(polytops_core::registry::fingerprint(&scop))] += 1;
    }
    let stats = via_router.roundtrip_json(r#"{"op":"stats"}"#).unwrap();
    let shards = stats.as_object().unwrap()["shards"].as_array().unwrap();
    assert_eq!(shards.len(), 2);
    for (idx, shard) in shards.iter().enumerate() {
        let requests = shard.as_object().unwrap()["requests"].as_int().unwrap();
        assert_eq!(
            requests,
            expected_requests[idx],
            "shard {idx} request count must match the ring assignment: {}",
            stats.compact()
        );
    }

    // A shutdown op through the router stops the shards, then the
    // router itself.
    let ack = via_router.roundtrip(r#"{"op":"shutdown"}"#).unwrap();
    assert!(ack.contains("shutting_down"), "{ack}");
    router.join();
    shard_a.join();
    shard_b.join();
    direct.shutdown();
}

/// The router frames lines with the daemon's cap: a client that streams
/// more than `DEFAULT_MAX_LINE_BYTES` without a newline gets the
/// size-limit error and then EOF, and another client is still routed.
#[test]
fn an_oversized_line_is_refused_and_other_clients_are_still_routed() {
    use std::io::{BufRead, BufReader, Read, Write};

    let shard = Server::start(ServerConfig::default()).expect("shard");
    let router = Router::start(RouterConfig {
        shards: vec![shard.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");

    let mut flood = std::net::TcpStream::connect(router.addr()).expect("connect router");
    flood
        .write_all(&vec![b'x'; polytops_server::DEFAULT_MAX_LINE_BYTES + 1])
        .expect("the router reads up to the cap");
    let mut reader = BufReader::new(flood);
    let mut response = String::new();
    reader.read_line(&mut response).expect("the error line");
    assert_eq!(
        response.trim_end(),
        r#"{"error":"request line exceeds the size limit","id":null,"ok":false}"#
    );
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("EOF"), 0, "then EOF");

    let mut client = Client::connect(router.addr()).expect("connect router");
    let line = sweep_request_line("after", "jacobi_1d", &polytops_workloads::jacobi_1d());
    let routed = client.roundtrip(&line).expect("routed roundtrip");
    assert!(routed.contains(r#""ok":true"#), "{routed}");
    router.shutdown();
    shard.shutdown();
}
