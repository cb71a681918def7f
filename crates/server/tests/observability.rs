//! End-to-end tests of the tracing + metrics subsystem: the request
//! lifecycle span tree served by the `trace` op, Chrome export, the
//! extended `stats` op, router forwarding telemetry — and the hard
//! contract that tracing never perturbs results (responses bit-identical
//! with tracing on and off, at 1, 2 and 4 worker threads).

use polytops_core::json::Json;
use polytops_server::protocol::{self, Request};
use polytops_server::{Client, Router, RouterConfig, Server, ServerConfig};
use polytops_workloads::all_kernels;
use polytops_workloads::requests::sweep_request_line;

fn config(threads: usize, trace: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        window_ms: 2,
        threads,
        trace,
        ..ServerConfig::default()
    }
}

/// Runs the standard sweep against one fresh daemon and returns each
/// kernel's `results` text in order.
fn sweep_results(threads: usize, trace: bool) -> Vec<String> {
    let handle = Server::start(config(threads, trace)).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut results = Vec::new();
    for (kernel, scop) in all_kernels() {
        let line = sweep_request_line(kernel, kernel, &scop);
        let response = client.roundtrip(&line).expect("roundtrip");
        let parsed = polytops_core::json::parse(&response).expect("response parses");
        let obj = parsed.as_object().expect("response object");
        assert_eq!(obj["ok"].as_bool(), Some(true), "{kernel}: {response}");
        results.push(obj["results"].compact());
    }
    handle.shutdown();
    results
}

#[test]
fn tracing_never_perturbs_results_at_1_2_4_threads() {
    for threads in [1usize, 2, 4] {
        let traced = sweep_results(threads, true);
        let untraced = sweep_results(threads, false);
        assert_eq!(
            traced, untraced,
            "{threads} threads: tracing on/off must be bit-identical"
        );
        // Both must also equal the offline engine (the existing
        // contract, re-checked under instrumentation).
        for ((kernel, scop), got) in all_kernels().into_iter().zip(&traced) {
            let line = sweep_request_line(kernel, kernel, &scop);
            let Request::Schedule(req) = protocol::parse_request(&line).unwrap() else {
                panic!("sweep line must parse as a schedule request");
            };
            let want = protocol::offline_results(&req).compact();
            assert_eq!(got, &want, "{kernel} at {threads} threads");
        }
    }
}

/// Collects every name in a span tree, depth-first.
fn tree_names(node: &Json, out: &mut Vec<String>) {
    let obj = node.as_object().expect("tree node object");
    out.push(obj["name"].as_str().expect("node name").to_string());
    for child in obj["children"].as_array().expect("children array") {
        tree_names(child, out);
    }
}

#[test]
fn trace_op_returns_the_full_request_lifecycle_tree() {
    let handle = Server::start(config(2, true)).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let line = sweep_request_line("traced", "matmul", &polytops_workloads::matmul());
    let response = client.roundtrip(&line).expect("schedule roundtrip");
    assert!(response.contains(r#""ok":true"#), "{response}");

    let trace = client.roundtrip(r#"{"op":"trace"}"#).expect("trace op");
    let parsed = polytops_core::json::parse(&trace).expect("trace parses");
    let obj = parsed.as_object().expect("trace object");
    assert_eq!(obj["ok"].as_bool(), Some(true));
    let body = obj["trace"].as_object().expect("trace must not be null");
    assert!(body["id"].as_int().unwrap() > 0);

    // The flat span list and the nested tree describe the same spans.
    let spans = body["spans"].as_array().expect("spans array");
    assert!(!spans.is_empty());

    let tree = body["tree"].as_array().expect("tree array");
    assert_eq!(tree.len(), 1, "one root: the request span");
    let root = tree[0].as_object().unwrap();
    assert_eq!(root["name"].as_str(), Some("request"));

    // Direct lifecycle children, in start order.
    let phases: Vec<&str> = root["children"]
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.as_object().unwrap()["name"].as_str().unwrap())
        .collect();
    assert_eq!(
        phases,
        [
            "read",
            "resolve",
            "admission",
            "solve",
            "serialize",
            "write"
        ],
        "lifecycle phases in order"
    );

    // The solve phase carries the engine's span tree: per-job, the
    // pipeline with its per-dimension work.
    let mut names = Vec::new();
    tree_names(&tree[0], &mut names);
    for expected in ["job", "pipeline", "dimension"] {
        assert!(
            names.iter().any(|n| n == expected),
            "span tree must contain `{expected}`: {names:?}"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn trace_op_exports_as_valid_chrome_trace_json() {
    let handle = Server::start(config(2, true)).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let line = sweep_request_line("chrome", "jacobi_1d", &polytops_workloads::jacobi_1d());
    client.roundtrip(&line).expect("schedule roundtrip");

    let trace = client.roundtrip(r#"{"op":"trace"}"#).expect("trace op");
    let parsed = polytops_core::json::parse(&trace).expect("trace parses");
    let body = &parsed.as_object().unwrap()["trace"];
    let events = protocol::chrome_events_from_trace(body).expect("convert to Chrome events");
    let span_count = body.as_object().unwrap()["spans"].as_array().unwrap().len();
    assert_eq!(events.len(), span_count);

    let chrome = polytops_obs::chrome_trace(&events);
    let reparsed = polytops_core::json::parse(&chrome).expect("Chrome export is valid JSON");
    let trace_events = reparsed.as_object().unwrap()["traceEvents"]
        .as_array()
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), span_count);
    for event in trace_events {
        let event = event.as_object().unwrap();
        assert_eq!(event["ph"].as_str(), Some("X"), "complete events");
        assert!(event.contains_key("ts") && event.contains_key("dur"));
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn stats_op_reports_unified_counters_and_histograms() {
    let handle = Server::start(config(2, true)).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let line = sweep_request_line(
        "stats",
        "stencil_chain",
        &polytops_workloads::stencil_chain(),
    );
    client.roundtrip(&line).expect("schedule roundtrip");

    let stats = client.stats().expect("stats op");
    let obs = stats.as_object().unwrap()["obs"]
        .as_object()
        .expect("obs section");
    assert_eq!(obs["spans_enabled"].as_bool(), Some(true));

    let counters = obs["counters"].as_object().expect("counters");
    assert_eq!(counters["service.requests"].as_int(), Some(1));
    assert_eq!(counters["service.batches"].as_int(), Some(1));
    // The pipeline's counters flow through the same registry the old
    // hand-rolled structs fed; solver totals must agree with them.
    assert!(counters["solver.dimensions"].as_int().unwrap() > 0);
    // The miss's analysis ran on its reader under the request's resolve
    // span, and counted there: candidates, and the tableaus it built.
    assert_eq!(
        (
            counters["deps.candidates"].as_int(),
            counters["deps.tableaus"].as_int()
        ),
        (Some(3), Some(2))
    );
    let solver = stats.as_object().unwrap()["solver"].as_object().unwrap();
    assert_eq!(
        solver["dual_pivots"].as_int(),
        counters["solver.dual_pivots"].as_int(),
        "wire solver totals come from the unified registry"
    );

    let histograms = obs["histograms"].as_object().expect("histograms");
    let queue = histograms["pool.queue_wait_ns"]
        .as_object()
        .expect("queue-wait histogram");
    assert!(queue["count"].as_int().unwrap() > 0);
    assert!(queue["p99_ns"].as_int().unwrap() >= queue["p50_ns"].as_int().unwrap());

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn untraced_daemon_serves_null_trace_but_keeps_counters() {
    let handle = Server::start(config(2, false)).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let line = sweep_request_line("quiet", "matmul", &polytops_workloads::matmul());
    client.roundtrip(&line).expect("schedule roundtrip");

    let trace = client.roundtrip(r#"{"op":"trace"}"#).expect("trace op");
    assert_eq!(trace, r#"{"ok":true,"trace":null}"#);

    let stats = client.stats().expect("stats op");
    let obs = stats.as_object().unwrap()["obs"].as_object().unwrap();
    assert_eq!(obs["spans_enabled"].as_bool(), Some(false));
    let counters = obs["counters"].as_object().unwrap();
    assert_eq!(counters["service.requests"].as_int(), Some(1));
    assert!(counters["solver.dimensions"].as_int().unwrap() > 0);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn router_stats_carry_per_shard_forwarding_telemetry() {
    let shard_a = Server::start(config(2, true)).expect("shard a");
    let shard_b = Server::start(config(2, true)).expect("shard b");
    let router = Router::start(RouterConfig {
        shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");

    let mut client = Client::connect(router.addr()).expect("connect router");
    let kernels = all_kernels();
    for (kernel, scop) in &kernels {
        let line = sweep_request_line(kernel, kernel, scop);
        let response = client.roundtrip(&line).expect("forwarded roundtrip");
        assert!(response.contains(r#""ok":true"#), "{response}");
    }

    let stats = client.stats().expect("router stats");
    let top = stats.as_object().expect("stats object");
    assert_eq!(top["router"].as_bool(), Some(true));
    let obs = top["obs"].as_object().expect("router obs section");
    let counters = obs["counters"].as_object().unwrap();
    let forwarded: Vec<i64> = (0..2)
        .map(|i| {
            counters
                .get(&format!("router.shard{i}.requests"))
                .and_then(Json::as_int)
                .unwrap_or(0)
        })
        .collect();
    assert_eq!(
        forwarded.iter().sum::<i64>(),
        kernels.len() as i64,
        "every schedule forward is counted against its shard"
    );
    let histograms = obs["histograms"].as_object().unwrap();
    let fleet = histograms["router.forward_ns"].as_object().unwrap();
    assert_eq!(fleet["count"].as_int(), Some(kernels.len() as i64));

    // The router stamped each forwarded envelope with a trace id, so
    // the shards' span trees adopted router-issued ids. The ring's
    // labels are this run's ephemeral ports, so now and then one shard
    // owns every kernel: ask one that served something.
    let busy = if forwarded[0] > 0 { &shard_a } else { &shard_b };
    let mut direct = Client::connect(busy.addr()).expect("connect shard");
    let trace = direct
        .roundtrip(r#"{"op":"trace"}"#)
        .expect("shard trace op");
    let parsed = polytops_core::json::parse(&trace).unwrap();
    let body = parsed.as_object().unwrap()["trace"]
        .as_object()
        .expect("shard served traced requests");
    assert!(body["id"].as_int().unwrap() > 0);

    client.shutdown().expect("fleet shutdown");
    router.join();
    shard_a.join();
    shard_b.join();
}
