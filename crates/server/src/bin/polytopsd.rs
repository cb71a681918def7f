//! `polytopsd` — the PolyTOPS batching scheduler daemon.
//!
//! ```text
//! polytopsd serve  [--addr A] [--window-ms W] [--max-batch B]
//!                  [--threads T] [--registry-capacity C]
//!                  [--snapshot-dir D] [--rotate-every E]
//!                  [--max-connections M] [--no-trace]
//! polytopsd replay [--addr A] [--clients N] [--connect-timeout-ms T]
//!                  [--shutdown]
//! polytopsd trace-dump [--addr A] [--out F]
//! ```
//!
//! `serve` runs the daemon until a `shutdown` op arrives. `replay` is
//! the end-to-end smoke client used by CI: it replays the standard
//! sweep as N concurrent clients, diffs every response bit-for-bit
//! against the offline scenario-engine golden path, prints the registry
//! statistics, and exits non-zero on any mismatch. `trace-dump` fetches
//! the most recent request's span tree via the `trace` op and converts
//! it to Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).

use std::time::Duration;

use polytops_core::json::Json;
use polytops_server::protocol::{self, Request};
use polytops_server::{Client, Server, ServerConfig};

const USAGE: &str = "polytopsd — the PolyTOPS batching scheduler daemon

USAGE:
  polytopsd serve  [--addr A] [--window-ms W] [--max-batch B]
                   [--threads T] [--registry-capacity C]
                   [--snapshot-dir D] [--rotate-every E]
                   [--max-connections M] [--no-trace]
      Run the daemon (default addr 127.0.0.1:7225) until it receives a
      {\"op\":\"shutdown\"} request. A batch is the first queued request
      plus whatever queued while the previous batch ran, so an idle
      daemon dispatches at once; --window-ms W (default 0) holds every
      batch open W ms longer to force cross-client batches.
      --snapshot-dir enables registry persistence: the daemon restores
      (and prewarms) its registry from D at startup and journals
      admissions into D while serving.
      --no-trace disables span recording (counters and histograms stay
      on); responses are bit-identical either way.
      Protocol: docs/SERVICE.md.

  polytopsd replay [--addr A] [--clients N] [--connect-timeout-ms T]
                   [--shutdown]
      Replay the standard sweep as N concurrent clients against a
      running daemon, diff every response against the offline scenario
      engine bit for bit, and exit non-zero on mismatch. --shutdown
      stops the daemon afterwards.

  polytopsd trace-dump [--addr A] [--out F]
      Fetch the daemon's most recent traced request (the `trace` op)
      and print it as Chrome trace-event JSON — load the output in
      chrome://tracing or https://ui.perfetto.dev. --out writes to a
      file instead of stdout.

  polytopsd help
      Print this text.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("trace-dump") => trace_dump(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        _ => {
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Pulls `--flag value` from an option list, complaining about anything
/// unknown.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            return Err(format!("unknown option `{}`", args[i]));
        }
        // Every option takes a value except the boolean switches.
        if args[i] == "--shutdown" || args[i] == "--no-trace" {
            i += 1;
        } else {
            if i + 1 >= args.len() {
                return Err(format!("missing value for `{}`", args[i]));
            }
            i += 2;
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(text) => text
            .parse::<T>()
            .map_err(|_| format!("bad value `{text}` for {flag}")),
    }
}

fn serve(args: &[String]) -> i32 {
    let parsed = (|| -> Result<ServerConfig, String> {
        check_flags(
            args,
            &[
                "--addr",
                "--window-ms",
                "--max-batch",
                "--threads",
                "--registry-capacity",
                "--snapshot-dir",
                "--rotate-every",
                "--max-connections",
                "--no-trace",
            ],
        )?;
        let defaults = ServerConfig::default();
        Ok(ServerConfig {
            addr: flag_value(args, "--addr")
                .unwrap_or("127.0.0.1:7225")
                .to_string(),
            window_ms: parse(args, "--window-ms", defaults.window_ms)?,
            max_batch: parse(args, "--max-batch", defaults.max_batch)?,
            threads: parse(args, "--threads", defaults.threads)?,
            registry_capacity: parse(args, "--registry-capacity", defaults.registry_capacity)?,
            snapshot_dir: flag_value(args, "--snapshot-dir").map(str::to_string),
            rotate_every: parse(args, "--rotate-every", defaults.rotate_every)?,
            max_connections: parse(args, "--max-connections", defaults.max_connections)?,
            trace: !args.iter().any(|a| a == "--no-trace"),
            ..defaults
        })
    })();
    let config = match parsed {
        Ok(config) => config,
        Err(e) => {
            eprintln!("polytopsd serve: {e}");
            return 2;
        }
    };
    let window = config.window_ms;
    let threads = config.threads;
    match Server::start(config) {
        Ok(handle) => {
            println!(
                "polytopsd listening on {} (batch hold {window} ms, {threads} worker threads)",
                handle.addr()
            );
            handle.join();
            println!("polytopsd stopped");
            0
        }
        Err(e) => {
            eprintln!("polytopsd serve: bind failed: {e}");
            1
        }
    }
}

/// Fetches the daemon's most recent traced request and prints (or
/// writes) it as Chrome trace-event JSON.
fn trace_dump(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(String, Option<String>), String> {
        check_flags(args, &["--addr", "--out"])?;
        Ok((
            flag_value(args, "--addr")
                .unwrap_or("127.0.0.1:7225")
                .to_string(),
            flag_value(args, "--out").map(str::to_string),
        ))
    })();
    let (addr, out) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("polytopsd trace-dump: {e}");
            return 2;
        }
    };
    let fetched = (|| -> Result<String, String> {
        let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .send_line(r#"{"op":"trace"}"#)
            .map_err(|e| e.to_string())?;
        let response = client.recv_line().map_err(|e| e.to_string())?;
        let parsed = polytops_core::json::parse(&response)?;
        let obj = parsed.as_object().ok_or("response is not an object")?;
        if obj.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("daemon error response: {response}"));
        }
        let trace = obj.get("trace").ok_or("response missing `trace`")?;
        if matches!(trace, Json::Null) {
            return Err(
                "daemon has no completed traced request yet (or runs with --no-trace)".to_string(),
            );
        }
        let events = protocol::chrome_events_from_trace(trace)?;
        Ok(polytops_obs::chrome_trace(&events))
    })();
    match fetched {
        Ok(chrome) => match out {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &chrome) {
                    eprintln!("polytopsd trace-dump: write {path}: {e}");
                    return 1;
                }
                println!("wrote Chrome trace to {path}");
                0
            }
            None => {
                println!("{chrome}");
                0
            }
        },
        Err(e) => {
            eprintln!("polytopsd trace-dump: {e}");
            1
        }
    }
}

fn replay(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(String, usize, u64, bool), String> {
        check_flags(
            args,
            &["--addr", "--clients", "--connect-timeout-ms", "--shutdown"],
        )?;
        Ok((
            flag_value(args, "--addr")
                .unwrap_or("127.0.0.1:7225")
                .to_string(),
            parse(args, "--clients", 3usize)?,
            parse(args, "--connect-timeout-ms", 10_000u64)?,
            args.iter().any(|a| a == "--shutdown"),
        ))
    })();
    let (addr, clients, timeout_ms, shutdown) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("polytopsd replay: {e}");
            return 2;
        }
    };

    // Golden path: every distinct request line scheduled offline, keyed
    // by request id. All client streams are identical, so one stream's
    // worth of offline runs covers them all.
    let streams = polytops_workloads::requests::sweep_request_streams(clients);
    let mut expected: Vec<(String, String)> = Vec::new(); // (id suffix, results)
    for line in &streams[0] {
        let req = match protocol::parse_request(line) {
            Ok(Request::Schedule(req)) => req,
            other => {
                eprintln!("polytopsd replay: generated request did not parse: {other:?}");
                return 1;
            }
        };
        let id = match &req.id {
            Json::Str(s) => s.clone(),
            other => other.compact(),
        };
        // Ids are `c<client>/<kernel>`; the kernel suffix keys the diff.
        let suffix = id
            .split_once('/')
            .map_or(id.as_str(), |(_, k)| k)
            .to_string();
        expected.push((suffix, protocol::offline_results(&req).compact()));
    }

    let addr_ref: &str = &addr;
    let results: Vec<Result<Vec<(String, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                s.spawn(move || -> Result<Vec<(String, String)>, String> {
                    let mut client =
                        Client::connect_retry(addr_ref, Duration::from_millis(timeout_ms))
                            .map_err(|e| format!("connect {addr_ref}: {e}"))?;
                    for line in stream {
                        client.send_line(line).map_err(|e| e.to_string())?;
                    }
                    let mut responses = Vec::with_capacity(stream.len());
                    for _ in stream {
                        let response = client.recv_line().map_err(|e| e.to_string())?;
                        let parsed = polytops_core::json::parse(&response)?;
                        let obj = parsed.as_object().ok_or("response is not an object")?;
                        if obj.get("ok").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("daemon error response: {response}"));
                        }
                        let id = match &obj["id"] {
                            Json::Str(s) => s.clone(),
                            other => other.compact(),
                        };
                        let results = obj
                            .get("results")
                            .ok_or("response missing `results`")?
                            .compact();
                        responses.push((id, results));
                    }
                    Ok(responses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });

    let mut responses = 0usize;
    let mut mismatches = 0usize;
    for outcome in results {
        match outcome {
            Err(e) => {
                eprintln!("polytopsd replay: {e}");
                return 1;
            }
            Ok(pairs) => {
                for (id, got) in pairs {
                    responses += 1;
                    let suffix = id.split_once('/').map_or(id.as_str(), |(_, k)| k);
                    match expected.iter().find(|(k, _)| k == suffix) {
                        Some((_, want)) if *want == got => {}
                        Some(_) => {
                            eprintln!("MISMATCH {id}: daemon response differs from offline run");
                            mismatches += 1;
                        }
                        None => {
                            eprintln!("MISMATCH {id}: unexpected response id");
                            mismatches += 1;
                        }
                    }
                }
            }
        }
    }

    let stats = Client::connect(addr_ref).and_then(|mut c| {
        let stats = c.stats()?;
        if shutdown {
            c.shutdown()?;
        }
        Ok(stats)
    });
    match stats {
        Ok(stats) => println!("registry/service stats: {}", stats.compact()),
        Err(e) => eprintln!("polytopsd replay: stats/shutdown failed: {e}"),
    }
    println!(
        "replayed {responses} responses from {clients} clients: {}",
        if mismatches == 0 {
            "all bit-identical to the offline scenario engine".to_string()
        } else {
            format!("{mismatches} MISMATCHES")
        }
    );
    i32::from(mismatches != 0)
}
