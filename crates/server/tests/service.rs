//! End-to-end tests of the `polytopsd` daemon over real TCP
//! connections: protocol behaviour, batching, registry persistence, and
//! the bit-identity contract against the offline scenario engine.

use std::time::Duration;

use polytops_core::json::Json;
use polytops_server::protocol::{self, Request};
use polytops_server::{Client, Server, ServerConfig};
use polytops_workloads::requests::{request_line, sweep_request_line, sweep_request_streams};
use polytops_workloads::synthetic::long_chain;
use polytops_workloads::{all_kernels, jacobi_1d, matmul, producer_consumer, stencil_chain};

fn start(config: ServerConfig) -> polytops_server::ServerHandle {
    Server::start(config).expect("bind ephemeral port")
}

fn local_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        window_ms: 5,
        ..ServerConfig::default()
    }
}

/// Parses a schedule response and returns (ok, registry_hit, results
/// compact text).
fn unpack(response: &str) -> (bool, bool, String) {
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
    (ok, hit, results)
}

/// The per-scenario pipeline stats of a schedule response (the
/// diagnostic `stats` field, outside the bit-identity contract).
fn pipeline_stats(response: &str) -> Vec<(i64, i64)> {
    let parsed = polytops_core::json::parse(response).expect("response parses");
    parsed.as_object().expect("response object")["stats"]
        .as_array()
        .expect("stats array")
        .iter()
        .map(|entry| {
            let pipeline = entry.as_object().unwrap()["pipeline"].as_object().unwrap();
            (
                pipeline["farkas_hits"].as_int().unwrap(),
                pipeline["farkas_misses"].as_int().unwrap(),
            )
        })
        .collect()
}

#[test]
fn ping_stats_and_malformed_lines() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();

    let pong = client.roundtrip(r#"{"op":"ping"}"#).unwrap();
    assert!(pong.contains("pong"), "{pong}");

    // A malformed line gets an error response and keeps the connection.
    let err = client.roundtrip("this is not json").unwrap();
    assert!(err.contains(r#""ok":false"#), "{err}");

    let stats = client.stats().unwrap();
    let registry = stats.as_object().unwrap()["registry"].as_object().unwrap();
    assert_eq!(registry["entries"].as_int(), Some(0));

    client.shutdown().unwrap();
    handle.join();
}

/// However a client splits its writes — a line dripped over many reads,
/// several lines in one write, a newline arriving on its own — each
/// line gets exactly one answer, in order.
#[test]
fn lines_split_across_writes_are_answered_in_order() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start(local_config());
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut responses = BufReader::new(stream.try_clone().unwrap()).lines();
    let mut drip = |pieces: &[&[u8]]| {
        for piece in pieces {
            stream.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let pad = format!(r#"{{"op":"ping","pad":"{}"}}"#, "é€😀 x".repeat(400));
    let mut dripped: Vec<&[u8]> = pad.as_bytes().chunks(61).collect();
    dripped.push(b"\n");
    drip(&dripped);
    drip(&[b"{\"op\":\"pi", b"ng\"}", b"\n"]);
    drip(&[
        b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n{\"op\":\"pi",
        b"ng\"}\n",
    ]);
    drip(&[b"{\"op\":\"ping\"}", b"\n{\"op\":\"ping\"}\n"]);

    let mut next = || responses.next().unwrap().unwrap();
    let pong = r#"{"ok":true,"pong":true}"#;
    assert_eq!(next(), pong, "the dripped line");
    assert_eq!(next(), pong, "newline on its own write");
    assert_eq!(next(), pong, "several lines in one write");
    assert!(next().contains(r#""registry""#), "the stats line");
    assert_eq!(next(), pong, "the line finished by the next write");
    assert_eq!(next(), pong, "newline starting a write");
    assert_eq!(next(), pong, "the last line");

    handle.shutdown();
}

#[test]
fn daemon_matches_offline_engine_bit_for_bit() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    for (kernel, scop) in all_kernels() {
        let line = sweep_request_line(kernel, kernel, &scop);
        let (ok, _, got) = unpack(&client.roundtrip(&line).unwrap());
        assert!(ok, "daemon scheduled {kernel}");
        let req = match protocol::parse_request(&line).unwrap() {
            Request::Schedule(req) => req,
            other => panic!("generated line must be a schedule request, got {other:?}"),
        };
        let want = protocol::offline_results(&req).compact();
        assert_eq!(got, want, "{kernel}: daemon must match the offline engine");
    }
    handle.shutdown();
}

#[test]
fn warm_requests_hit_the_registry_and_replay_everything() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let line = sweep_request_line("cold", "matmul", &matmul());

    let (ok, hit, cold) = unpack(&client.roundtrip(&line).unwrap());
    assert!(ok && !hit, "first sight must be a registry miss");

    // Same SCoP from a *different* connection: registry hit, identical
    // bytes, and zero fresh Farkas eliminations (everything replays).
    let mut second = Client::connect(handle.addr()).unwrap();
    let line2 = sweep_request_line("warm", "matmul", &matmul());
    let response = second.roundtrip(&line2).unwrap();
    let (ok, hit, warm) = unpack(&response);
    assert!(ok && hit, "second sight must be a registry hit");
    assert_eq!(cold, warm, "warm results must be bit-identical to cold");
    // The fast_path scenario can schedule without ever building Farkas
    // constraints (heuristic proposal, no lexmin), so it legitimately
    // reports zero cache traffic; every scenario that *does* consult
    // the cache must hit, and the ILP presets guarantee at least one.
    let pairs = pipeline_stats(&response);
    assert!(pairs.iter().any(|&(hits, _)| hits > 0));
    for (_, misses) in pairs {
        assert_eq!(misses, 0, "warm run must not re-eliminate");
    }

    let stats = handle.registry_stats();
    assert_eq!(stats.entries, 1, "one kernel resident");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    handle.shutdown();
}

#[test]
fn near_identical_scops_dedupe_onto_one_entry() {
    // producer_consumer with its accesses permuted (write listed before
    // read): the dependence vector would come out permuted, but the
    // canonical fingerprint ignores access order, so the daemon must
    // dedupe — and answer from the representative's caches.
    use polytops_ir::{Aff, ScopBuilder};
    let permuted = {
        let mut b = ScopBuilder::new("producer_consumer");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        let bb = b.array("B", &[n.clone()], 8);
        let c = b.array("C", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0")
            .write(bb, &[Aff::var("i")])
            .read(a, &[Aff::var("i")])
            .text("B[i] = A[i];")
            .add(&mut b);
        b.close_loop();
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S1")
            .write(c, &[Aff::var("j")])
            .read(bb, &[Aff::var("j")])
            .text("C[j] = B[j];")
            .add(&mut b);
        b.close_loop();
        b.build().unwrap()
    };

    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let (ok, hit, original) = unpack(
        &client
            .roundtrip(&sweep_request_line(
                "a",
                "producer_consumer",
                &producer_consumer(),
            ))
            .unwrap(),
    );
    assert!(ok && !hit);
    let (ok, hit, deduped) = unpack(
        &client
            .roundtrip(&sweep_request_line("b", "permuted", &permuted))
            .unwrap(),
    );
    assert!(ok, "permuted submission schedules");
    assert!(hit, "permuted submission must dedupe onto the entry");
    assert_eq!(
        original, deduped,
        "deduped clients get bit-identical answers"
    );
    assert_eq!(handle.registry_stats().entries, 1);
    handle.shutdown();
}

#[test]
fn registry_evicts_beyond_capacity() {
    let handle = start(ServerConfig {
        registry_capacity: 2,
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    for (kernel, scop) in [
        ("stencil_chain", stencil_chain()),
        ("matmul", matmul()),
        ("jacobi_1d", jacobi_1d()),
    ] {
        let (ok, _, _) = unpack(
            &client
                .roundtrip(&sweep_request_line(kernel, kernel, &scop))
                .unwrap(),
        );
        assert!(ok, "{kernel} schedules");
    }
    let stats = handle.registry_stats();
    assert_eq!(stats.entries, 2, "LRU bound holds");
    assert_eq!(stats.evictions, 1);

    // The coldest entry (stencil_chain) was evicted: re-requesting it is
    // a miss (which in turn evicts matmul, now coldest); jacobi_1d —
    // most recently used — stays resident through both.
    let (_, hit, _) = unpack(
        &client
            .roundtrip(&sweep_request_line(
                "again",
                "stencil_chain",
                &stencil_chain(),
            ))
            .unwrap(),
    );
    assert!(!hit, "evicted SCoP must re-register");
    let (_, hit, _) = unpack(
        &client
            .roundtrip(&sweep_request_line("again", "jacobi_1d", &jacobi_1d()))
            .unwrap(),
    );
    assert!(hit, "most-recently-used SCoP must stay resident");
    handle.shutdown();
}

#[test]
fn concurrent_clients_match_sequential_offline_runs() {
    // N clients replay the standard sweep concurrently (batched into
    // shared ScenarioSets by the admission window); every response must
    // equal the N sequential offline runs — which all equal one
    // offline run, computed once here.
    let clients = 4;
    let handle = start(ServerConfig {
        window_ms: 20, // wide window: force cross-client batches
        ..local_config()
    });
    let addr = handle.addr();

    let streams = sweep_request_streams(clients);
    let mut expected: Vec<(String, String)> = Vec::new();
    for line in &streams[0] {
        let req = match protocol::parse_request(line).unwrap() {
            Request::Schedule(req) => req,
            other => panic!("generated line must be a schedule request, got {other:?}"),
        };
        let kernel = req.name.clone();
        expected.push((kernel, protocol::offline_results(&req).compact()));
    }

    let responses: Vec<Vec<(String, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                s.spawn(move || {
                    let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                    for line in stream {
                        client.send_line(line).unwrap();
                    }
                    stream
                        .iter()
                        .map(|_| {
                            let (ok, _, results) = unpack(&client.recv_line().unwrap());
                            assert!(ok);
                            results
                        })
                        .zip(stream.iter().map(|l| {
                            // Recover the kernel name from the request id.
                            let parsed = polytops_core::json::parse(l).unwrap();
                            let id = parsed.as_object().unwrap()["id"]
                                .as_str()
                                .unwrap()
                                .to_string();
                            id.split_once('/').unwrap().1.to_string()
                        }))
                        .map(|(results, kernel)| (kernel, results))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for client_responses in responses {
        assert_eq!(client_responses.len(), expected.len());
        for (kernel, got) in client_responses {
            let (_, want) = expected
                .iter()
                .find(|(k, _)| *k == kernel)
                .expect("known kernel");
            assert_eq!(got, *want, "{kernel}: daemon must match offline run");
        }
    }
    // All N copies of each kernel deduped onto one entry.
    assert_eq!(handle.registry_stats().entries, all_kernels().len());
    handle.shutdown();
}

/// The daemon's (`batches`, `requests`) counts, as the `stats` op
/// reports them.
fn batch_counts(client: &mut Client) -> (i64, i64) {
    let stats = client.stats().unwrap();
    let obj = stats.as_object().unwrap();
    (
        obj["batches"].as_int().unwrap(),
        obj["requests"].as_int().unwrap(),
    )
}

#[test]
fn the_default_config_holds_no_admission_timer() {
    // perfbench takes `window_ms` out of its probe scaling as the timer
    // a lone request waits out; nothing waits, so it must read 0.
    assert_eq!(ServerConfig::default().window_ms, 0);
}

#[test]
fn requests_arriving_during_a_batch_form_exactly_one_following_batch() {
    let followers = 3i64;
    let handle = start(ServerConfig {
        window_ms: 0, // no hold: only the running batch gathers these
        ..local_config()
    });
    let addr = handle.addr();
    let mut control = Client::connect(addr).unwrap();
    assert_eq!(batch_counts(&mut control), (0, 0));

    // A slow batch: the idle daemon dispatches it at once, alone. It is
    // sized from work: six ILP scenarios on a 24-statement chain keep
    // the pool busy 400-700 ms in a debug build, against 2-4 ms for
    // the followers' three connects, sends and pings below.
    let mut slow = Client::connect(addr).unwrap();
    slow.send_line(&request_line(
        "slow",
        "long_chain_24",
        &long_chain(24),
        &[
            "feautrier",
            "isl_like",
            "pluto",
            "feautrier",
            "isl_like",
            "pluto",
        ],
    ))
    .unwrap();
    while batch_counts(&mut control) != (1, 1) {
        std::thread::yield_now();
    }

    // While it runs, each follower queues one request. A connection's
    // reader handles its lines in order, so the pong proves the
    // schedule line before it already sits in the admission queue.
    let line = sweep_request_line("follower", "jacobi_1d", &jacobi_1d());
    let mut clients: Vec<Client> = (0..followers)
        .map(|_| {
            let mut client = Client::connect(addr).unwrap();
            client.send_line(&line).unwrap();
            assert!(client
                .roundtrip(r#"{"op":"ping"}"#)
                .unwrap()
                .contains("pong"));
            client
        })
        .collect();
    assert_eq!(
        batch_counts(&mut control),
        (1, 1),
        "the slow batch must still be in flight once every follower has queued"
    );

    let (ok, _, _) = unpack(&slow.recv_line().unwrap());
    assert!(ok);
    let want = match protocol::parse_request(&line).unwrap() {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    for client in &mut clients {
        let (ok, _, got) = unpack(&client.recv_line().unwrap());
        assert!(ok);
        assert_eq!(got, want, "a batched follower must match the offline run");
    }
    // 1 + N requests in exactly two batches: what queued while the slow
    // batch ran was drained as one.
    assert_eq!(batch_counts(&mut control), (2, 1 + followers));
    handle.shutdown();
}

#[test]
fn scenarios_sharing_dimensions_match_the_offline_engine_alone_and_batched() {
    // pluto, feautrier and isl_like over one SCoP are three solve groups
    // of one slot: isl_like's first tries are pluto's dimensions, taken
    // from the pluto group's solve. A request alone, and two such
    // untraced requests batched onto one slot, answer the offline
    // engine's bytes. A pool of one runs the groups in scenario order,
    // so which group solves a shared dimension does not race and the
    // counter is exact.
    let handle = start(ServerConfig {
        window_ms: 200, // wide window: the pair below forms one batch
        threads: 1,
        trace: false, // a traced request shares only within its own trace
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let presets = ["pluto", "feautrier", "isl_like"];
    let lines = ["a", "b"].map(|id| request_line(id, "matmul", &matmul(), &presets));
    let want = match protocol::parse_request(&lines[0]).unwrap() {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    let shared_dims = |client: &mut Client| {
        let stats = client.stats().unwrap();
        stats.as_object().unwrap()["obs"].as_object().unwrap()["counters"]
            .as_object()
            .unwrap()["solver.shared_dims"]
            .as_int()
            .unwrap()
    };

    let (ok, _, got) = unpack(&client.roundtrip(&lines[0]).unwrap());
    assert!(ok);
    assert_eq!(got, want, "alone");
    assert_eq!(batch_counts(&mut client), (1, 1));
    assert_eq!(
        shared_dims(&mut client),
        3,
        "isl_like shares pluto's dimensions"
    );

    for line in &lines {
        client.send_line(line).unwrap();
    }
    for line in &lines {
        let (ok, _, got) = unpack(&client.recv_line().unwrap());
        assert!(ok);
        assert_eq!(got, want, "batched: {line}");
    }
    assert_eq!(batch_counts(&mut client), (2, 3), "the pair is one batch");
    // The pair's scenarios form the same three groups as one request's.
    assert_eq!(
        shared_dims(&mut client),
        6,
        "one slot, three groups, one memo"
    );
    handle.shutdown();
}

#[test]
fn autotune_op_returns_a_certified_deterministic_winner() {
    use std::collections::BTreeMap;
    let line = Json::Object(BTreeMap::from([
        ("op".to_string(), Json::Str("autotune".to_string())),
        ("id".to_string(), Json::Str("tune/jacobi".to_string())),
        (
            "scop".to_string(),
            Json::Str(polytops_ir::print_scop(&jacobi_1d())),
        ),
        (
            "machine".to_string(),
            Json::Object(BTreeMap::from([
                ("num_cores".to_string(), Json::Int(8)),
                ("cache_bytes".to_string(), Json::Int(1 << 20)),
            ])),
        ),
        ("max_candidates".to_string(), Json::Int(8)),
    ]))
    .compact();

    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let first = client.roundtrip(&line).unwrap();
    let parsed = polytops_core::json::parse(&first).unwrap();
    let obj = parsed.as_object().unwrap();
    assert_eq!(obj["ok"].as_bool(), Some(true), "{first}");
    let winner = obj["winner"].as_object().unwrap();
    assert_eq!(winner["certified"].as_bool(), Some(true));
    let winner_score = winner["score"].as_int().unwrap();
    let candidates = obj["candidates"].as_array().unwrap();
    assert_eq!(candidates.len(), 8);
    // The winner's score is the maximum over every scored candidate —
    // in particular it matches or beats the default preset (the first
    // lattice entry, "pluto").
    let first_candidate = candidates[0].as_object().unwrap();
    assert_eq!(first_candidate["name"].as_str(), Some("pluto"));
    for c in candidates {
        if let Some(score) = c.as_object().unwrap()["score"].as_int() {
            assert!(winner_score >= score);
        }
    }

    assert_eq!(obj["explored_scenarios"].as_int(), Some(8), "{first}");

    // Same request, fresh connection: explored again, same bytes.
    let mut second = Client::connect(handle.addr()).unwrap();
    let again = second.roundtrip(&line).unwrap();
    assert_eq!(again, first, "a repeated autotune must get the same bytes");
    let registry = handle.registry_stats();
    assert_eq!(registry.entries, 1, "autotune SCoPs become resident");
    assert_eq!(registry.hits, 1, "second autotune rides the registry");
    // Autotune traffic shows up in the service counters.
    let stats = second.stats().unwrap();
    assert_eq!(
        stats.as_object().unwrap()["requests"].as_int(),
        Some(2),
        "{stats:?}"
    );
    handle.shutdown();
}

/// Schedule and autotune requests pipelined on one connection share
/// batches: each schedule answer equals the offline engine's, and each
/// autotune answer equals the in-process tuner's and a lone request's
/// on a fresh daemon. The 2-thread daemon runs untraced, so there the
/// schedule scenarios share solve groups with the candidates.
#[test]
fn schedule_and_autotune_requests_share_batches() {
    use polytops_core::tune::{self, MachineModel, TuneBudget};
    use polytops_workloads::requests::autotune_request_line;

    let (max_candidates, param_estimate) = (6, 64);
    let kernels = [
        ("jacobi_1d", jacobi_1d()),
        ("stencil_chain", stencil_chain()),
    ];
    for (threads, trace) in [(1, true), (2, false), (4, true)] {
        let config = ServerConfig {
            threads,
            trace,
            ..local_config()
        };
        let budget = TuneBudget {
            max_candidates,
            threads,
            param_estimate,
        };
        // (schedule line, its offline results, autotune line, the
        // in-process tuner's answer to it)
        let pairs: Vec<_> = kernels
            .iter()
            .map(|(kernel, scop)| {
                let schedule = request_line(kernel, kernel, scop, &["pluto", "wavefront"]);
                let Request::Schedule(req) = protocol::parse_request(&schedule).unwrap() else {
                    panic!("a schedule line");
                };
                let id = format!("tune/{kernel}");
                let autotune = autotune_request_line(&id, scop, max_candidates, param_estimate);
                let outcome = tune::explore(scop, &MachineModel::default(), &budget).unwrap();
                let tuned = protocol::autotune_response(&Json::Str(id), &outcome);
                (
                    schedule,
                    protocol::offline_results(&req).compact(),
                    autotune,
                    tuned,
                )
            })
            .collect();

        let handle = start(config.clone());
        let mut client = Client::connect(handle.addr()).unwrap();
        for (schedule, _, autotune, _) in &pairs {
            client.send_line(schedule).unwrap();
            client.send_line(autotune).unwrap();
        }
        let answers: Vec<String> = (0..2 * pairs.len())
            .map(|_| client.recv_line().unwrap())
            .collect();
        let stats = client.stats().unwrap();
        handle.shutdown();

        for ((schedule, want, autotune, tuned), answer) in pairs.iter().zip(answers.chunks(2)) {
            let (ok, _, got) = unpack(&answer[0]);
            assert!(ok, "threads={threads}: {}", answer[0]);
            assert_eq!(&got, want, "threads={threads}: {schedule}");
            assert_eq!(&answer[1], tuned, "threads={threads}: in-process tuner");
            let lone = start(config.clone());
            let alone = Client::connect(lone.addr())
                .unwrap()
                .roundtrip(autotune)
                .unwrap();
            lone.shutdown();
            assert_eq!(answer[1], alone, "threads={threads}: lone request");
        }
        let obj = stats.as_object().unwrap();
        let registry = obj["registry"].as_object().unwrap();
        assert_eq!(registry["misses"].as_int(), Some(2), "{}", stats.compact());
        assert_eq!(registry["entries"].as_int(), Some(2), "{}", stats.compact());
        let tuner = obj["tuner"].as_object().unwrap();
        assert_eq!(tuner["requests"].as_int(), Some(2), "{}", stats.compact());
        assert_eq!(obj["requests"].as_int(), Some(4), "{}", stats.compact());
    }
}

#[test]
fn shutdown_op_stops_the_daemon() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let ack = client.shutdown().unwrap();
    assert_eq!(
        ack.as_object().unwrap()["shutting_down"].as_bool(),
        Some(true)
    );
    // join() returns only when accept and batcher threads exit.
    handle.join();
}

/// A schedule line whose SCoP text does not parse gets the parse error
/// in its place among pipelined answers; a text sent again is answered
/// from the registry's remembered texts with the same bytes.
#[test]
fn a_bad_scop_is_answered_in_line_and_a_resent_text_is_a_text_hit() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let first = sweep_request_line("first", "matmul", &matmul());
    let second = sweep_request_line("second", "jacobi_1d", &jacobi_1d());
    let text = polytops_ir::print_scop(&stencil_chain());
    let bad = sweep_request_line("bad", "stencil_chain", &stencil_chain())
        .replace(&Json::Str(text).compact(), r#""<polyscop>\nname cut\n""#);
    assert!(bad.contains("name cut"), "{bad}");
    for line in [&first, &bad, &second] {
        client.send_line(line).unwrap();
    }
    let (ok, hit, got) = unpack(&client.recv_line().unwrap());
    assert!(ok && !hit);
    let golden = |line: &str| match protocol::parse_request(line).unwrap() {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    assert_eq!(got, golden(&first));
    assert_eq!(
        client.recv_line().unwrap(),
        r#"{"error":"scop parse error at line 3: unexpected end of input","id":null,"ok":false}"#
    );
    let (ok, hit, got) = unpack(&client.recv_line().unwrap());
    assert!(ok && !hit);
    assert_eq!(got, golden(&second));

    let (ok, hit, again) = unpack(&client.roundtrip(&first).unwrap());
    assert!(ok && hit, "a resent text is resident");
    assert_eq!(again, golden(&first));
    let stats = client.stats().unwrap();
    let registry = stats.as_object().unwrap()["registry"].as_object().unwrap();
    assert!(registry["text_hits"].as_int().unwrap() >= 1, "{stats:?}");
    assert_eq!(registry["entries"].as_int(), Some(2), "{stats:?}");
    handle.shutdown();
}

/// A line longer than `max_line_bytes` gets the size-limit error and
/// then EOF on its own connection; another connection is still served.
#[test]
fn an_oversized_line_closes_only_its_own_connection() {
    use std::io::{BufRead, BufReader, Read, Write};

    let handle = start(ServerConfig {
        max_line_bytes: 1024,
        ..local_config()
    });
    let mut other = Client::connect(handle.addr()).unwrap();
    let mut big = std::net::TcpStream::connect(handle.addr()).unwrap();
    big.write_all(&[b'x'; 2048]).unwrap();
    let mut reader = BufReader::new(big);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert_eq!(
        response.trim_end(),
        r#"{"error":"request line exceeds the size limit","id":null,"ok":false}"#
    );
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "then EOF");
    assert!(other
        .roundtrip(r#"{"op":"ping"}"#)
        .unwrap()
        .contains("pong"));
    handle.shutdown();
}

/// With `max_connections` open, a further connection is closed at once;
/// once one of them closes, a new connection is served.
#[test]
fn connections_beyond_the_cap_are_closed_until_one_leaves() {
    use std::io::Read;

    let handle = start(ServerConfig {
        max_connections: 2,
        ..local_config()
    });
    let ping = r#"{"op":"ping"}"#;
    // A pong proves the daemon accepted and counts the connection.
    let mut first = Client::connect(handle.addr()).unwrap();
    let mut second = Client::connect(handle.addr()).unwrap();
    assert!(first.roundtrip(ping).unwrap().contains("pong"));
    assert!(second.roundtrip(ping).unwrap().contains("pong"));

    let mut third = std::net::TcpStream::connect(handle.addr()).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(third.read(&mut [0u8; 16]).unwrap(), 0, "over the cap: EOF");

    drop(first);
    // The closed connection leaves the count once its threads finish.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let served = Client::connect(handle.addr()).and_then(|mut c| c.roundtrip(ping));
        match served {
            Ok(pong) => {
                assert!(pong.contains("pong"), "{pong}");
                break;
            }
            Err(e) => assert!(std::time::Instant::now() < deadline, "never served: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(second.roundtrip(ping).unwrap().contains("pong"));
    handle.shutdown();
}

/// A client that pipelines requests and never reads its answers blocks
/// only its own connection's writer: another client is answered with
/// the offline engine's bytes meanwhile, and a graceful shutdown gives
/// up on the stalled connection after the flush grace (2 s).
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    use std::io::Write;
    use std::time::Instant;

    let handle = start(local_config());
    // Far more answer bytes than loopback's socket buffers hold.
    let mut stalled = std::net::TcpStream::connect(handle.addr()).unwrap();
    stalled
        .write_all(
            r#"{"op":"stats"}
"#
            .repeat(20_000)
            .as_bytes(),
        )
        .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let line = sweep_request_line("meanwhile", "jacobi_1d", &jacobi_1d());
    let (ok, _, got) = unpack(&client.roundtrip(&line).unwrap());
    assert!(ok);
    let want = match protocol::parse_request(&line).unwrap() {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    assert_eq!(got, want);

    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "shutdown waited {took:?} on a client that never reads"
    );
    drop(stalled);
}
