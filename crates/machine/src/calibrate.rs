//! Model calibration: fitting a [`MachineModel`]'s cost constants to
//! measured kernel behavior.
//!
//! The static model charges two machine constants the hardware actually
//! decides — [`miss_penalty_cycles`](MachineModel::miss_penalty_cycles)
//! and [`sync_cycles`](MachineModel::sync_cycles). This module fits
//! both from three generated C micro-kernels with known op/miss/sync
//! budgets (the "performance vocabulary" idea: map transformation
//! features to measured effects):
//!
//! * `alu` — a pure arithmetic loop: the cycles-per-nanosecond
//!   baseline;
//! * `miss` — the same arithmetic plus a cache-line-strided walk over
//!   an LLC-overflowing array: every step misses;
//! * `sync` — the same arithmetic plus a barrier per outer iteration.
//!
//! Timing goes through the [`Timer`] trait. [`HostTimer`] compiles and
//! runs the kernels with the system C compiler (best effort: any
//! failure yields `None`, never an error). [`SyntheticTimer`] is an
//! analytic stand-in — it "times" a kernel by pricing its budgets
//! under a ground-truth machine — so tests and CI calibrate
//! bit-deterministically on any host, any thread count, every run:
//!
//! ```text
//! cycles_per_ns     = alu_ops / t_alu
//! miss_penalty      = (t_miss − t_alu) × cycles_per_ns / misses
//! sync_cycles       = (t_sync − t_alu) × cycles_per_ns / syncs
//! ```
//!
//! all in exact saturating integer arithmetic — calibrating twice from
//! the same timer readings produces bit-identical reports, and the
//! synthetic fit recovers the ground-truth constants exactly.

use crate::MachineModel;

/// One generated calibration micro-kernel: complete C source plus the
/// op/miss/sync budgets its measured time is decomposed against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationKernel {
    /// Kernel label (`alu`, `miss`, `sync`).
    pub name: &'static str,
    /// Self-timing C source: prints elapsed nanoseconds to stdout.
    pub source: String,
    /// Arithmetic operations the kernel performs.
    pub ops: u64,
    /// Cache misses the kernel is constructed to take.
    pub misses: u64,
    /// Synchronization events (barriers) the kernel performs.
    pub syncs: u64,
}

/// A way of timing a [`CalibrationKernel`], in nanoseconds.
///
/// `None` means the kernel could not be timed (no compiler, execution
/// failure); calibration then reports nothing rather than guessing.
pub trait Timer {
    /// Wall time of one kernel run in nanoseconds, or `None`.
    fn time_ns(&self, kernel: &CalibrationKernel) -> Option<u64>;
}

/// The analytic timer: prices a kernel's declared budgets under a
/// ground-truth machine at one cycle per nanosecond.
///
/// A pure function of the kernel metadata — no clocks, no threads, no
/// I/O — so every calibration against it is bit-identical across runs,
/// hosts and thread counts, and [`calibrate`] recovers the ground
/// truth's `miss_penalty_cycles`/`sync_cycles` exactly.
#[derive(Debug, Clone)]
pub struct SyntheticTimer {
    /// The machine whose constants the synthetic measurements encode.
    pub ground_truth: MachineModel,
}

impl Timer for SyntheticTimer {
    fn time_ns(&self, kernel: &CalibrationKernel) -> Option<u64> {
        let m = &self.ground_truth;
        let ns = u128::from(kernel.ops)
            + u128::from(kernel.misses) * u128::from(m.miss_penalty_cycles)
            + u128::from(kernel.syncs) * u128::from(m.sync_cycles);
        Some(ns.min(u128::from(u64::MAX)) as u64)
    }
}

/// The host timer: writes the kernel source to a scratch directory,
/// compiles it with the system C compiler and runs it, reading the
/// printed nanosecond count. Strictly best effort — a missing
/// compiler, failed build or failed run yields `None`.
#[derive(Debug, Clone)]
pub struct HostTimer {
    /// C compiler to invoke (default `cc`).
    pub compiler: String,
    /// Scratch directory for sources and binaries (default: the
    /// system temp dir).
    pub scratch: std::path::PathBuf,
}

impl Default for HostTimer {
    fn default() -> HostTimer {
        HostTimer {
            compiler: "cc".to_string(),
            scratch: std::env::temp_dir(),
        }
    }
}

impl Timer for HostTimer {
    fn time_ns(&self, kernel: &CalibrationKernel) -> Option<u64> {
        let tag = format!("polytops-calib-{}-{}", std::process::id(), kernel.name);
        let src = self.scratch.join(format!("{tag}.c"));
        let bin = self.scratch.join(tag);
        std::fs::write(&src, &kernel.source).ok()?;
        let built = std::process::Command::new(&self.compiler)
            .arg("-O2")
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .output()
            .ok()?;
        if !built.status.success() {
            return None;
        }
        let run = std::process::Command::new(&bin).output().ok()?;
        let _ = std::fs::remove_file(&src);
        let _ = std::fs::remove_file(&bin);
        if !run.status.success() {
            return None;
        }
        String::from_utf8(run.stdout).ok()?.trim().parse().ok()
    }
}

/// Iterations of the arithmetic baseline loop.
const ALU_OPS: u64 = 1 << 22;
/// Strided loads of the miss kernel (one per cache line, array ≫ LLC).
const MISSES: u64 = 1 << 16;
/// Barriers of the sync kernel.
const SYNCS: u64 = 1 << 10;

/// Shared self-timing C scaffold: runs `body` between two
/// `clock_gettime` readings and prints elapsed nanoseconds.
fn kernel_source(decls: &str, body: &str) -> String {
    format!(
        "#include <stdio.h>\n\
         #include <stdlib.h>\n\
         #include <time.h>\n\
         {decls}\n\
         int main(void) {{\n\
           struct timespec a, b;\n\
           clock_gettime(CLOCK_MONOTONIC, &a);\n\
         {body}\n\
           clock_gettime(CLOCK_MONOTONIC, &b);\n\
           long long ns = (b.tv_sec - a.tv_sec) * 1000000000LL + (b.tv_nsec - a.tv_nsec);\n\
           printf(\"%lld\\n\", ns);\n\
           return 0;\n\
         }}\n"
    )
}

/// The three calibration kernels for `machine` (its cache geometry
/// sizes the miss kernel's array and stride).
pub fn calibration_kernels(machine: &MachineModel) -> Vec<CalibrationKernel> {
    let line = u64::from(machine.cache_line_bytes.max(1));
    // Four times the LLC: every strided load leaves the cache cold.
    let array = (machine.cache_bytes.max(1) * 4).max(line * MISSES);
    let alu_body = format!(
        "  volatile double acc = 0.0;\n\
         \x20 for (long long i = 0; i < {ALU_OPS}LL; i++) acc += (double)(i & 7);\n"
    );
    let miss_body = format!(
        "  volatile double acc = 0.0;\n\
         \x20 long long step = {line}LL, n = {array}LL / {line}LL;\n\
         \x20 for (long long i = 0; i < {MISSES}LL; i++) {{\n\
         \x20   acc += (double)buf[(i % n) * step];\n\
         \x20   for (int k = 0; k < {}; k++) acc += (double)(k & 7);\n\
         \x20 }}\n",
        ALU_OPS / MISSES
    );
    let sync_body = format!(
        "  volatile double acc = 0.0;\n\
         \x20 for (long long i = 0; i < {SYNCS}LL; i++) {{\n\
         \x20   #pragma omp barrier\n\
         \x20   for (int k = 0; k < {}; k++) acc += (double)(k & 7);\n\
         \x20 }}\n",
        ALU_OPS / SYNCS
    );
    vec![
        CalibrationKernel {
            name: "alu",
            source: kernel_source("", &alu_body),
            ops: ALU_OPS,
            misses: 0,
            syncs: 0,
        },
        CalibrationKernel {
            name: "miss",
            source: kernel_source(
                &format!("static unsigned char buf[{array}ULL];"),
                &miss_body,
            ),
            ops: ALU_OPS,
            misses: MISSES,
            syncs: 0,
        },
        CalibrationKernel {
            name: "sync",
            source: kernel_source("", &sync_body),
            ops: ALU_OPS,
            misses: 0,
            syncs: SYNCS,
        },
    ]
}

/// The outcome of one calibration pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationReport {
    /// The input machine with its two cost constants replaced by the
    /// fitted values.
    pub machine: MachineModel,
    /// Fitted cycles per cache miss (≥ 1).
    pub miss_penalty_cycles: u32,
    /// Fitted cycles per synchronization event (≥ 1).
    pub sync_cycles: u32,
    /// The raw nanosecond readings, in kernel order (`alu`, `miss`,
    /// `sync`) — what the fit was computed from.
    pub samples: Vec<(&'static str, u64)>,
}

/// Converts an excess time over the ALU baseline into cycles per event
/// using the baseline's cycles-per-nanosecond ratio, exact saturating
/// integer arithmetic, clamped into the model's `u32` range (≥ 1).
fn fit(excess_ns: u64, t_alu: u64, ops: u64, events: u64) -> u32 {
    let cycles = u128::from(excess_ns) * u128::from(ops)
        / (u128::from(t_alu.max(1)) * u128::from(events.max(1)));
    cycles.clamp(1, u128::from(u32::MAX)) as u32
}

/// Calibrates `base`'s `miss_penalty_cycles` and `sync_cycles` against
/// `timer`. Returns `None` when any kernel cannot be timed (e.g. no
/// host compiler) — calibration never guesses.
///
/// The fit is a pure integer function of the three nanosecond readings,
/// so a deterministic timer (the [`SyntheticTimer`]) makes the whole
/// pass bit-deterministic; with the ground-truth timer the fit recovers
/// the ground truth exactly (a unit test holds this).
pub fn calibrate(base: &MachineModel, timer: &dyn Timer) -> Option<CalibrationReport> {
    let kernels = calibration_kernels(base);
    let mut samples = Vec::with_capacity(kernels.len());
    for k in &kernels {
        samples.push((k.name, timer.time_ns(k)?));
    }
    let t_alu = samples[0].1;
    let t_miss = samples[1].1;
    let t_sync = samples[2].1;
    let miss_penalty_cycles = fit(
        t_miss.saturating_sub(t_alu),
        t_alu,
        kernels[0].ops,
        kernels[1].misses,
    );
    let sync_cycles = fit(
        t_sync.saturating_sub(t_alu),
        t_alu,
        kernels[0].ops,
        kernels[2].syncs,
    );
    Some(CalibrationReport {
        machine: MachineModel {
            miss_penalty_cycles,
            sync_cycles,
            ..base.clone()
        },
        miss_penalty_cycles,
        sync_cycles,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fit_recovers_the_ground_truth_exactly() {
        let truth = MachineModel {
            miss_penalty_cycles: 57,
            sync_cycles: 3111,
            ..MachineModel::default()
        };
        let timer = SyntheticTimer {
            ground_truth: truth.clone(),
        };
        let base = MachineModel::default();
        let report = calibrate(&base, &timer).expect("synthetic timing never fails");
        assert_eq!(report.miss_penalty_cycles, 57);
        assert_eq!(report.sync_cycles, 3111);
        assert_eq!(report.machine.miss_penalty_cycles, 57);
        assert_eq!(report.machine.sync_cycles, 3111);
        assert_eq!(report.machine.cache_bytes, base.cache_bytes);
    }

    #[test]
    fn synthetic_calibration_is_bit_deterministic_across_threads() {
        let truth = MachineModel {
            miss_penalty_cycles: 41,
            sync_cycles: 1709,
            ..MachineModel::default()
        };
        let base = MachineModel::default();
        let one = calibrate(
            &base,
            &SyntheticTimer {
                ground_truth: truth.clone(),
            },
        )
        .unwrap();
        let reports: Vec<CalibrationReport> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let truth = truth.clone();
                    let base = base.clone();
                    s.spawn(move || {
                        calibrate(
                            &base,
                            &SyntheticTimer {
                                ground_truth: truth,
                            },
                        )
                        .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in reports {
            assert_eq!(r, one, "calibration must not depend on the thread shape");
        }
    }

    #[test]
    fn kernels_carry_compilable_looking_sources_and_budgets() {
        let kernels = calibration_kernels(&MachineModel::default());
        assert_eq!(kernels.len(), 3);
        for k in &kernels {
            assert!(k.source.contains("clock_gettime"), "{} self-times", k.name);
            assert!(k.ops > 0);
        }
        assert!(kernels[1].misses > 0 && kernels[1].syncs == 0);
        assert!(kernels[2].syncs > 0 && kernels[2].misses == 0);
    }

    #[test]
    fn host_timer_failure_is_a_clean_none() {
        let timer = HostTimer {
            compiler: "definitely-not-a-compiler".to_string(),
            ..HostTimer::default()
        };
        assert!(calibrate(&MachineModel::default(), &timer).is_none());
    }
}
