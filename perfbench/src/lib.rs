//! The PolyTOPS benchmark: four workloads, end-to-end metrics measured
//! with tracing off and read against a speed probe (see [`probe`]), and
//! per-layer metrics from a separate traced run.
//! `README.md` beside this crate says why each workload and metric is
//! here; `BENCHMARK.json` at the repository root declares them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod gen;
pub mod metrics;
pub mod probe;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use std::path::PathBuf;

use metrics::Outcome;

/// How one workload run is asked for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from a traced, single-client or single-thread run.
    pub trace: bool,
    /// The CI scale: two small kernels, one pass, 20 requests.
    pub smoke: bool,
    /// Pool threads of a sweep pass and of the daemon.
    pub threads: usize,
    /// Where trace files and the daemon's snapshot directories go.
    pub out_dir: PathBuf,
}

impl RunOptions {
    /// `min(nproc, 4)`: what the issue fixes for threads and clients.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(2, |n| n.get().min(4))
    }

    /// Whether set-up, repeated `done` times in `spent` seconds so far,
    /// runs again: three times at least, then until three seconds are
    /// spent or eleven samples taken. `setup_s` is the samples' median.
    pub fn repeat_setup(&self, done: usize, spent: f64) -> bool {
        if self.smoke {
            return done < 1;
        }
        done < 3 || (spent < 3.0 && done < 11)
    }

    /// Seconds the measured phase lasts: the smoke scale is a fixed
    /// amount of work, not a duration.
    pub fn measured_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }

    /// Fewest timed passes of a sweep whatever `seconds` says.
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Parameter value the quality model scores schedules at.
const PARAM_ESTIMATE: i64 = 256;

/// Cycles the default machine model estimates for a schedule: the
/// quality guard behind `model_cycles_geomean`.
pub fn model_cycles(scop: &polytops_ir::Scop, sched: &polytops_ir::Schedule) -> f64 {
    let machine = polytops_core::MachineModel::default();
    // The tuner's score is the negated cycle estimate.
    -polytops_core::tune::score_schedule(scop, sched, &machine, PARAM_ESTIMATE).1 as f64
}

/// Runs one workload by name.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run_workload(name: &str, opts: &RunOptions) -> Result<Outcome, String> {
    match name {
        "sweep_ilp" => Ok(sweep::run(name, &gen::sweep_ilp(opts.smoke), opts)),
        "sweep_post" => Ok(sweep::run(name, &gen::sweep_post(opts.smoke), opts)),
        "serve_warm" => Ok(serve::run(serve::Kind::Warm, opts)),
        "serve_churn" => Ok(serve::run(serve::Kind::Churn, opts)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            metrics::WORKLOADS.join(", ")
        )),
    }
}
