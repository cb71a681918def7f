//! The benchmark's one command.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! bench run [--seed <n>] [--seconds <s>] [--workload <name>] [--runs <n>] [--smoke] [--out <file>]
//! bench compare <a.json> <b.json> [--workload <name>] [--benchmark <BENCHMARK.json>]
//! ```
//!
//! The first form runs one workload in this process and prints the
//! result as the last line of standard output; everything for people
//! goes to standard error. `run` executes each workload in a process of
//! its own (untraced `--runs` times, then once traced) and writes a
//! stamped run file; `compare` judges two run files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use polytops_core::json::{self, Json};
use polytops_perfbench::metrics::WORKLOADS;
use polytops_perfbench::{compare, run_workload, RunOptions};

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

/// `--key value` pairs and bare words of a command line.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: BTreeMap::new(),
            words: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = raw.next().ok_or(format!("`--{key}` needs a value"))?;
                args.flags.insert(key.to_string(), value);
            } else {
                args.words.push(arg);
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key} {v}` is not a number")),
        }
    }

    fn options(&self, trace: bool) -> Result<RunOptions, String> {
        Ok(RunOptions {
            seed: self.number("seed", 1)?,
            seconds: self.number("seconds", DEFAULT_SECONDS)?,
            trace,
            smoke: self.smoke,
            threads: RunOptions::default_threads(),
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        })
    }
}

fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.flags.get("workload").ok_or("`--workload` missing")?;
    let trace = match args.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let opts = args.options(trace)?;
    eprintln!(
        "{workload}: seed {}, {} s, trace {}, {} threads{}",
        opts.seed,
        opts.seconds,
        u8::from(trace),
        opts.threads,
        if opts.smoke { ", smoke scale" } else { "" }
    );
    let outcome = run_workload(workload, &opts)?;
    for (name, value) in outcome.metrics.iter() {
        eprintln!("  {name:<32} {value}");
    }
    if trace && outcome.metrics.get("obs.trace_overhead_ratio") > 1.10 {
        eprintln!("  tracing overhead above 1.10");
    }
    println!("{}", outcome.to_line());
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let opts = args.options(false)?;
    let runs: usize = args.number("runs", 1)?;
    let workloads: Vec<&str> = match args.flags.get("workload") {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        for (trace, repeat) in (0..runs).map(|r| (0, r)).chain([(1, 0)]) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", &trace.to_string()]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            eprintln!("== {workload}, trace {trace}, run {}", repeat + 1);
            let output = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!("{workload} exited with {}", output.status));
            }
            let result = json::parse(line).map_err(|e| format!("{workload}: bad result: {e}"))?;
            all_correct &= result
                .as_object()
                .and_then(|o| o.get("correct")?.as_bool())
                .unwrap_or(false);
            entries.push(Json::Object(BTreeMap::from([
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("trace".to_string(), Json::Int(trace)),
                ("seed".to_string(), Json::Int(opts.seed as i64)),
                ("result".to_string(), result),
            ])));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = Json::Object(BTreeMap::from([
        (
            "git_sha".to_string(),
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Json::Str(first_line_of("rustc", &["--version"])),
        ),
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("threads".to_string(), Json::Int(opts.threads as i64)),
        ("seed".to_string(), Json::Int(opts.seed as i64)),
        ("seconds".to_string(), Json::Float(opts.seconds)),
        ("smoke".to_string(), Json::Bool(opts.smoke)),
    ]));
    let doc = Json::Object(BTreeMap::from([
        ("stamp".to_string(), stamp),
        ("runs".to_string(), Json::Array(entries)),
    ]));
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("-> {path}");
        }
        None => println!("{doc}"),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err(
            "usage: bench compare <a.json> <b.json> [--workload <name>] [--benchmark <file>]"
                .to_string(),
        );
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = match args.flags.get("benchmark") {
        Some(path) => read(path)?,
        None => read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?,
    };
    let only = args.flags.get("workload").map(String::as_str);
    let (report, regressed) = compare::compare(&benchmark, &read(a)?, &read(b)?, only)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => single(&args),
            Some("run") => run_all(&args),
            Some("compare") => compare_files(&args),
            Some(other) => Err(format!("unknown command `{other}`")),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
