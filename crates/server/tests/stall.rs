//! A request's dependence analysis runs on its own connection's reader:
//! one that stalls holds up no other connection, and one still running
//! when a graceful shutdown begins is answered before the daemon stops.
//! The stalled daemon is never joined: its analysis keeps a reader
//! thread busy until the process exits, which is why these tests have a
//! binary of their own.

use std::sync::mpsc;
use std::time::Duration;

use polytops_core::json;
use polytops_server::protocol::{self, Request};
use polytops_server::{Client, Server, ServerConfig};
use polytops_workloads::matmul;
use polytops_workloads::requests::request_line;

/// Case 6262 of `mutated_scop_texts_never_panic` in
/// `crates/codegen/tests/scop_fuzz.rs`: `heat_2d` under the edits
/// `[(34820, 7), (7796, 13), (41941, 2), (46232, 9)]`, which set
/// subscript coefficients to 2³¹, 2³¹ − 1 and −(2⁶³ − 1) and a β entry
/// to −1. It parses, but `deps::analyze` spends minutes in branch and
/// bound on one S0 → S0 candidate.
const HOSTILE: &str = "<polyscop>
name heat_2d
params T N
context 2
ineq 1 0 -1
ineq 0 1 -1
arrays 1
array A 8 2
dim 0 1 0
dim 0 1 0
statements 1
statement S0
iters t i j
beta 0 0 0 -1
ops 3
text A[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1];
domain 6
ineq 1 0 0 0 0 0
ineq -1 0 0 1 0 -1
ineq 0 1 0 0 0 -1
ineq 0 -1 0 0 1 -2
ineq 0 0 1 0 0 -1
ineq 0 0 -1 0 1 -2
accesses 5
read 0 2
aff 0 1 0 0 -9223372036854775807 -1
aff 0 0 1 0 0 0
read 0 2
aff 0 1 0 0 0 1
aff 0 0 1 0 0 0
read 0 2
aff 0 1 0 0 0 0
aff 0 0 1 0 0 -1
read 0 2
aff 2147483648 1 0 0 0 0
aff 0 0 1 0 0 1
write 0 2
aff 0 2147483647 0 0 0 0
aff 0 0 1 0 0 0
</polyscop>
";

/// How long the well-formed request may take, in debug and release.
const BOUND: Duration = Duration::from_secs(10);

#[test]
fn a_stalled_analysis_holds_up_only_its_own_connection() {
    let handle = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Sent in its printed form, which parses to the same SCoP.
    let scop = polytops_ir::parse_scop(HOSTILE).expect("the hostile text parses");
    let hostile = request_line("hostile", "heat_2d", &scop, &["pluto"]);
    let mut stalled = Client::connect(addr).expect("connect A");
    stalled.send_line(&hostile).expect("send the hostile line");
    // No signal tells that the hostile text has reached its analysis (it
    // is never admitted), so give it time: sent before that, B would be
    // answered by a daemon that analyzes on its batcher too.
    std::thread::sleep(Duration::from_millis(500));

    let line = request_line("matmul", "matmul", &matmul(), &["pluto"]);
    let golden = match protocol::parse_request(&line).expect("request parses") {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect B");
        let _ = tx.send(client.roundtrip(&line));
    });
    let response = rx
        .recv_timeout(BOUND)
        .expect("a well-formed request on another connection is answered in time")
        .expect("roundtrip");
    let parsed = json::parse(&response).expect("response parses");
    let obj = parsed.as_object().expect("response object");
    assert_eq!(obj["ok"].as_bool(), Some(true), "{response}");
    assert_eq!(obj["results"].compact(), golden);
    // `stalled` and `handle` are leaked: a graceful shutdown would wait
    // for the stalled analysis.
    std::mem::forget((stalled, handle));
}

/// A graceful shutdown that begins while a reader is still analyzing a
/// request it took before it answers that request, then stops.
#[test]
fn a_graceful_shutdown_answers_a_request_still_resolving() {
    let handle = Server::start(ServerConfig::default()).expect("bind ephemeral port");
    // `HOSTILE` with 2⁸ and 2⁸ − 1 in place of 2³¹ and 2³¹ − 1: its
    // analysis ends, after about 0.2 s in a release build and 0.7 s in
    // a debug one.
    let slow = HOSTILE
        .replace("2147483648", "256")
        .replace("2147483647", "255");
    let scop = polytops_ir::parse_scop(&slow).expect("the slow text parses");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .send_line(&request_line("slow", "heat_2d", &scop, &["pluto"]))
        .expect("send the slow line");
    // No signal tells that the reader has taken the line, so give it
    // time: 0.1 s is far more than reading a line takes, and a fraction
    // of the analysis the shutdown must then wait for.
    std::thread::sleep(Duration::from_millis(100));
    let mut control = Client::connect(handle.addr()).expect("connect");
    control.shutdown().expect("shutdown op");
    let response = client.recv_line().expect("the slow request is answered");
    let parsed = json::parse(&response).expect("response parses");
    assert_eq!(
        parsed.as_object().expect("response object")["id"].as_str(),
        Some("slow"),
        "{response}"
    );
    assert!(!response.contains("shutting down"), "{response}");
    handle.join();
}
