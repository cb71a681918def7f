//! Golden-C snapshots of the full kernel × preset sweep, and of the
//! tiled configurations the benchmark's `sweep_post` runs.
//!
//! Every reference-kernel × preset scenario (7 kernels × 5 presets), and
//! every reference kernel plus `wide_scop_8` under tile 16 + vectorize
//! and tile 64 + wavefront + vectorize (8 kernels × 2), is scheduled
//! through the core pipeline, lowered through the schedule-tree backend,
//! and compared byte-for-byte against the checked-in snapshot
//! `tests/golden/<kernel>__<config>.c`.
//!
//! After an *intentional* codegen change, regenerate the snapshots
//! with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p polytops_codegen --test golden
//! ```
//!
//! and review the resulting diff like any other code change.

use std::fs;
use std::path::PathBuf;

use polytops_codegen::emit_c;
use polytops_core::{schedule, SchedulerConfig};
use polytops_ir::Scop;
use polytops_workloads::{all_kernels, sweep::preset_grid, synthetic};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Schedules and lowers every kernel × configuration and compares the C
/// with `tests/golden/<kernel>__<config>.c` (or writes it, under
/// `UPDATE_GOLDEN`).
fn check_snapshots(kernels: &[(&str, Scop)], grid: &[(&str, SchedulerConfig)]) {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let mut failures = Vec::new();
    for (kernel, scop) in kernels {
        for (name, config) in grid {
            let sched = schedule(scop, config)
                .unwrap_or_else(|e| panic!("{kernel}/{name} schedules: {e:?}"));
            let text =
                emit_c(scop, &sched).unwrap_or_else(|e| panic!("{kernel}/{name} lowers: {e:?}"));
            let path = dir.join(format!("{kernel}__{name}.c"));
            if update {
                fs::create_dir_all(&dir).expect("golden dir");
                fs::write(&path, &text).expect("write snapshot");
                continue;
            }
            let want = fs::read_to_string(&path).unwrap_or_else(|_| {
                panic!(
                    "missing snapshot {}; run with UPDATE_GOLDEN=1 to create it",
                    path.display()
                )
            });
            if want != text {
                failures.push(format!(
                    "{kernel}/{name}: emitted C differs from {}\n--- golden\n{want}\
                     --- emitted\n{text}",
                    path.display()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} snapshot mismatches (UPDATE_GOLDEN=1 regenerates after intentional changes):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn sweep_matches_golden_snapshots() {
    check_snapshots(&all_kernels(), &preset_grid());
}

/// `sweep_post`'s two tiled configurations: the default pipeline with
/// one tile size cycled over every band depth and intra-tile
/// vectorization, with and without the wavefront.
fn tiled_grid() -> Vec<(&'static str, SchedulerConfig)> {
    let tiled = |size: i64, wavefront: bool| {
        let mut config = SchedulerConfig::default();
        config.post.tile_sizes = vec![size];
        config.post.wavefront = wavefront;
        config.post.intra_tile_vectorize = true;
        config
    };
    vec![
        ("tile16_vec", tiled(16, false)),
        ("tile64_wave_vec", tiled(64, true)),
    ]
}

#[test]
fn tiled_vectorized_configurations_match_golden_snapshots() {
    let mut kernels = all_kernels();
    kernels.push(("wide_scop_8", synthetic::wide_scop(8)));
    check_snapshots(&kernels, &tiled_grid());
}
