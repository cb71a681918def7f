//! A request's dependence analysis runs on its own connection's reader:
//! a hostile line is answered in time beside another connection's, and
//! a slow analysis still running when a graceful shutdown begins is
//! answered before the daemon stops. Every daemon here is shut down and
//! joined.

use std::sync::mpsc;
use std::time::Duration;

use polytops_core::json;
use polytops_ir::{Aff, Scop, ScopBuilder};
use polytops_server::protocol::{self, Request};
use polytops_server::{Client, Server, ServerConfig};
use polytops_workloads::matmul;
use polytops_workloads::requests::request_line;

/// Case 6262 of `mutated_scop_texts_never_panic` in
/// `crates/codegen/tests/scop_fuzz.rs`: `heat_2d` under the edits
/// `[(34820, 7), (7796, 13), (41941, 2), (46232, 9)]`, which set
/// subscript coefficients to 2³¹, 2³¹ − 1 and −(2⁶³ − 1) and a β entry
/// to −1. Its S0 → S0 candidates once kept `deps::analyze` in branch and
/// bound for minutes, searching lattices such as `i = 2³⁰k,
/// t = (2³⁰ − 1)k` from the vertex of the uncompressed tableau.
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

/// The line `client` sends, answered within [`BOUND`] on a thread of
/// its own.
fn answered_in_time(mut client: Client, line: String) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(client.roundtrip(&line));
    });
    (rx.recv_timeout(BOUND))
        .expect("the request is answered in time")
        .expect("roundtrip")
}

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
    let hostile = {
        let client = Client::connect(addr).expect("connect A");
        std::thread::spawn(move || answered_in_time(client, hostile))
    };

    let line = request_line("matmul", "matmul", &matmul(), &["pluto"]);
    let golden = match protocol::parse_request(&line).expect("request parses") {
        Request::Schedule(req) => protocol::offline_results(&req).compact(),
        other => panic!("generated line must be a schedule request, got {other:?}"),
    };
    let response = answered_in_time(Client::connect(addr).expect("connect B"), line);
    let parsed = json::parse(&response).expect("response parses");
    let obj = parsed.as_object().expect("response object");
    assert_eq!(obj["ok"].as_bool(), Some(true), "{response}");
    assert_eq!(obj["results"].compact(), golden);

    // The hostile line is answered too, and its analysis holds up no
    // graceful shutdown.
    let response = hostile.join().expect("A's answer in time");
    let parsed = json::parse(&response).expect("response parses");
    let obj = parsed.as_object().expect("response object");
    assert_eq!(obj["id"].as_str(), Some("hostile"), "{response}");
    let mut control = Client::connect(addr).expect("connect");
    control.shutdown().expect("shutdown op");
    handle.join();
}

/// `n` statements in one loop over `i`, each reading and writing
/// `A[i + k·N]` of one array: every statement pair has candidates at two
/// levels, each proved empty only by a tableau, so the analysis is
/// quadratic in `n` and legitimately slow — at `n` = 170, 0.2–0.5 s in a
/// release build and 3–4 s in a debug one.
fn statements_sharing_one_array(n: i64) -> Scop {
    let mut b = ScopBuilder::new("shared");
    let size = b.param("N");
    let a = b.array("A", std::slice::from_ref(&size), 8);
    b.open_loop("i", Aff::val(0), size.clone() - 1);
    for k in 0..n {
        let cell = Aff::var("i") + size.clone() * k;
        (b.stmt(&format!("S{k}")))
            .read(a, std::slice::from_ref(&cell))
            .write(a, &[cell])
            .add(&mut b);
    }
    b.close_loop();
    b.build().expect("the shared-array SCoP builds")
}
/// A graceful shutdown that begins while a reader is still analyzing a
/// request it took before it answers that request, then stops.
#[test]
fn a_graceful_shutdown_answers_a_request_still_resolving() {
    let handle = Server::start(ServerConfig::default()).expect("bind ephemeral port");
    let scop = statements_sharing_one_array(170);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .send_line(&request_line("slow", "shared", &scop, &["pluto"]))
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
