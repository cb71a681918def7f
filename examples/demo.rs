//! End-to-end demo: schedule a reference kernel under a configuration,
//! post-process (tiling / wavefront) on the schedule tree and print the
//! loop nest generated by the tree-walking backend — or exercise the
//! scenario engine and the `polytopsd` service (run `-- help` for all
//! modes).

use polytops::workloads::{jacobi_1d, producer_consumer};
use polytops::{analyze, schedule, SchedulerConfig, Scop};

const USAGE: &str = "\
usage: cargo run --example demo -- [mode]

Scheduling modes (schedule a built-in kernel, print the loop nest):
  pluto       producer_consumer: pluto-style proximity + 32-wide tiling
              (default mode)
  wavefront   jacobi_1d, a time-iterated stencil: skewed + tiled +
              wavefronted
  feautrier   producer_consumer under the Feautrier preset (inner
              parallelism)
  tree        print the explicit schedule tree of jacobi_1d tiled +
              wavefronted + vectorized (docs/TREE.md), then the loop nest
  json        producer_consumer under a configuration loaded from an
              inline JSON document

Engine and service modes:
  sweep            run the standard kernel x preset sweep through the
                   scenario engine (sequential vs sharded, winners)
  autotune [KERNEL]
                   explore the machine-derived configuration lattice
                   for a reference kernel (default jacobi_1d) and print
                   every candidate's model score plus the winner's
                   feature vector (cost model: docs/MODEL.md)
  serve [ADDR]     start the polytopsd scheduler daemon
                   (default 127.0.0.1:7225; protocol: docs/SERVICE.md)
  client [ADDR]    submit the demo kernel to a running daemon twice and
                   show the warm registry hit
  help             print this text
";

/// The `sweep` mode: run the standard kernel × preset sweep through the
/// scenario engine, sequentially and sharded, and report the per-kernel
/// winners the reconfiguration loop would pick.
fn sweep_demo() {
    let set = polytops::workloads::sweep::standard_sweep();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    println!(
        "== scenario sweep: {} scenarios over {} kernels, {} worker threads ==",
        set.len(),
        set.scops().len(),
        threads
    );
    let t0 = std::time::Instant::now();
    let sequential = set.run_sequential();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let sharded = set.run_sharded(threads);
    let shard_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (a, b) in sequential.iter().zip(&sharded) {
        let (a, b) = (
            a.as_ref().expect("schedules"),
            b.as_ref().expect("schedules"),
        );
        assert_eq!(a.schedule, b.schedule, "sharded must be bit-identical");
    }
    for entry in set.scops() {
        let kernel = entry.name();
        let kernel_results: Vec<polytops::ScenarioResult> = sharded
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|rep| rep.scop_name == kernel))
            .cloned()
            .collect();
        if let Some(best) = polytops::scenario::winner(&kernel_results) {
            println!(
                "{kernel:<20} winner {:<28} {} dims, parallel {:?}, farkas {}/{} hit",
                best.name,
                best.schedule.dims(),
                best.schedule.parallel(),
                best.stats.farkas_hits,
                best.stats.farkas_hits + best.stats.farkas_misses,
            );
        }
    }
    println!(
        "sequential {seq_ms:.1} ms, sharded {shard_ms:.1} ms ({:.2}x on {threads} threads)",
        seq_ms / shard_ms.max(1e-9)
    );
}

/// The `autotune` mode: explore the candidate lattice for one kernel
/// under the default machine model and print what the cost model saw.
fn autotune_demo(kernel: &str) {
    let Some((_, scop)) = polytops::workloads::all_kernels()
        .into_iter()
        .find(|(name, _)| *name == kernel)
    else {
        eprintln!("unknown kernel `{kernel}`; pick one of:");
        for (name, _) in polytops::workloads::all_kernels() {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    };
    let machine = polytops::tune::MachineModel::default();
    let budget = polytops::tune::TuneBudget::default();
    println!(
        "== autotune {kernel}: {} candidates on {} threads, machine: {} cores, {} MiB LLC, \
         {}-byte SIMD ==",
        budget.max_candidates,
        budget.threads,
        machine.num_cores,
        machine.cache_bytes >> 20,
        machine.vector_bytes,
    );
    let outcome =
        polytops::tune::explore(&scop, &machine, &budget).expect("reference kernel tunes");
    for (name, score) in &outcome.candidates {
        let marker = if *name == outcome.winner.name {
            "  <- winner"
        } else {
            ""
        };
        match score {
            Some(s) => println!("  {name:<28} score {s:>14}{marker}"),
            None => println!("  {name:<28} (does not schedule)"),
        }
    }
    let f = &outcome.features;
    println!("\nwinner {}", outcome.winner.name);
    println!(
        "  features: dims {}, outer_parallel {}, parallel_dims {}, band width {}, \
         vectorized {}/{} stmts",
        f.dims,
        f.outer_parallel,
        f.parallel_dims,
        f.max_band_width,
        f.vectorized_stmts,
        f.num_stmts
    );
    println!(
        "  locality: tiled {}, footprint {} B, reuse distances {:?}, sync events {}",
        f.tiled, f.footprint_bytes, f.reuse_distances, f.sync_events
    );
    println!(
        "  model score {} (estimated cycles {})",
        outcome.score, -outcome.score
    );
}

/// The `serve` mode: run the daemon in the foreground until a client
/// sends `{"op":"shutdown"}`.
fn serve_demo(addr: &str) {
    let handle = polytops::server::Server::start(polytops::server::ServerConfig {
        addr: addr.to_string(),
        ..polytops::server::ServerConfig::default()
    })
    .expect("bind daemon address");
    println!(
        "polytopsd listening on {} — see docs/SERVICE.md for the protocol",
        handle.addr()
    );
    let addr = handle.addr();
    println!(
        "(stop it with: echo '{{\"op\":\"shutdown\"}}' | nc {} {})",
        addr.ip(),
        addr.port()
    );
    handle.join();
    println!("daemon stopped");
}

/// The `client` mode: schedule the demo kernel through a running
/// daemon, twice, showing the registry going from cold to warm.
fn client_demo(addr: &str) {
    let scop = producer_consumer();
    let line =
        polytops::workloads::requests::request_line("demo", "demo", &scop, &["pluto", "feautrier"]);
    let mut client =
        polytops::server::Client::connect_retry(addr, std::time::Duration::from_secs(5))
            .unwrap_or_else(|e| {
                eprintln!("cannot reach a daemon at {addr}: {e}");
                eprintln!("start one first: cargo run --example demo -- serve");
                std::process::exit(1);
            });
    for round in ["cold", "warm"] {
        let response = client.roundtrip(&line).expect("daemon answers");
        let parsed = polytops::json::parse(&response).expect("response parses");
        let obj = parsed.as_object().expect("response object");
        let registry = obj["registry"].as_object().expect("registry info");
        println!(
            "{round}: ok={} registry_hit={} fingerprint={}",
            obj["ok"].as_bool().unwrap_or(false),
            registry["hit"].as_bool().unwrap_or(false),
            registry["fingerprint"].as_str().unwrap_or("?"),
        );
    }
    let stats = client.stats().expect("stats op");
    println!("daemon stats: {}", stats.compact());
}

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "pluto".into());
    let arg2 = std::env::args().nth(2);
    match preset.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        "sweep" => {
            sweep_demo();
            return;
        }
        "autotune" => {
            autotune_demo(arg2.as_deref().unwrap_or("jacobi_1d"));
            return;
        }
        "serve" => {
            serve_demo(arg2.as_deref().unwrap_or("127.0.0.1:7225"));
            return;
        }
        "client" => {
            client_demo(arg2.as_deref().unwrap_or("127.0.0.1:7225"));
            return;
        }
        _ => {}
    }
    let mut kernel: fn() -> Scop = producer_consumer;
    let cfg = match preset.as_str() {
        "pluto" => {
            // The default demo is the staged pipeline end to end: the
            // fused loop is tiled by the PostProcess stage.
            let mut cfg = SchedulerConfig::default();
            cfg.post.tile_sizes = vec![32];
            cfg
        }
        "wavefront" => {
            kernel = jacobi_1d;
            let mut cfg = SchedulerConfig::default();
            cfg.post.tile_sizes = vec![32, 32];
            cfg.post.wavefront = true;
            cfg
        }
        "tree" => {
            kernel = jacobi_1d;
            let mut cfg = SchedulerConfig::default();
            cfg.post.tile_sizes = vec![32, 32];
            cfg.post.wavefront = true;
            cfg.post.intra_tile_vectorize = true;
            cfg
        }
        "feautrier" => polytops::presets::feautrier(),
        "json" => SchedulerConfig::from_json(
            r#"{"scheduling_strategy": {"ILP_construction": [
                {"scheduling_dimension": "default",
                 "cost_functions": ["contiguity", "proximity"]}],
                "tile_sizes": [32]}}"#,
        )
        .expect("inline config parses"),
        other => {
            eprintln!("unknown mode `{other}`\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    let scop = kernel();
    println!("== input ==\n{scop}");

    let deps = analyze(&scop);
    println!("{} dependences analyzed", deps.len());

    let sched = schedule(&scop, &cfg).expect("demo kernel schedules");
    println!("\n== schedule ({preset}) ==");
    print!("{}", polytops::codegen::schedule_table(&scop, &sched));
    for mark in sched.tree().marks() {
        match mark {
            polytops::MarkKind::Tile(sizes) => println!("tiled band: sizes {sizes:?}"),
            polytops::MarkKind::Wavefront => println!("wavefronted band"),
            polytops::MarkKind::Vectorize(stmts) => {
                println!("vectorized statements {stmts:?}");
            }
        }
    }

    if preset == "tree" {
        println!("\n== schedule tree ==");
        print!("{}", sched.tree().render(&scop));
    }

    println!("\n== generated loop nest (schedule tree) ==");
    let code = polytops::codegen::emit_c(&scop, &sched).expect("schedule tree lowers");
    print!("{code}");

    // The engine certified the solved rows; ask a certifier of our own.
    let legal = polytops::Certifier::new(&deps).certifies(&sched);
    println!(
        "\nlegality oracle: {}",
        if legal { "OK" } else { "VIOLATED" }
    );
    if !legal {
        std::process::exit(1);
    }
}
