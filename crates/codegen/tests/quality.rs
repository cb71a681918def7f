//! Schedule quality, pinned per scenario.
//!
//! The golden snapshots hold the emitted text; this holds what the text
//! cannot show and what the benchmark's one geomean would average away:
//! every kernel × preset scenario of the sweep, and the long chains
//! under the ILP presets, is certified by the independent oracle, lowers
//! to C, and scores exactly the model cycles listed here. A change that
//! trades a shift `i + k` for a scaled coefficient `k·i` on a chain
//! keeps its model cycles, so the chains' iterator coefficients are
//! pinned as well.

use polytops_codegen::emit_c;
use polytops_core::tune::score_schedule;
use polytops_core::{presets, schedule, MachineModel, SchedulerConfig};
use polytops_deps::{analyze, schedule_respects_dependence};
use polytops_ir::{Schedule, Scop, StmtId};
use polytops_workloads::{all_kernels, sweep::preset_grid, synthetic};

/// Certifies, lowers and scores one scenario.
fn model_cycles(name: &str, scop: &Scop, config: &SchedulerConfig) -> (Schedule, i64) {
    let sched = schedule(scop, config).unwrap_or_else(|e| panic!("{name} schedules: {e:?}"));
    for dep in analyze(scop) {
        assert!(
            schedule_respects_dependence(
                &dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows()
            ),
            "{name}: the schedule violates {:?} -> {:?}",
            dep.src,
            dep.dst,
        );
    }
    emit_c(scop, &sched).unwrap_or_else(|e| panic!("{name} lowers: {e}"));
    // A score is minus the model's cycles: higher is better.
    let (_, score) = score_schedule(scop, &sched, &MachineModel::default(), 256);
    (sched, -score)
}

#[test]
fn every_sweep_scenario_keeps_its_model_cycles() {
    // In `preset_grid` order: pluto, feautrier, isl_like, wavefront,
    // fast_path.
    let want: [(&str, [i64; 5]); 7] = [
        ("stencil_chain", [255; 5]),
        ("matmul", [2099152, 2609152, 2099152, 2099152, 2099152]),
        ("producer_consumer", [2032, 512, 2032, 2032, 2032]),
        ("reversed_consumer", [2032; 5]),
        ("jacobi_1d", [130048, 1536128, 1536128, 146048, 130048]),
        ("heat_2d", [49548288, 5130768, 5130768, 49564288, 49548288]),
        ("gemver", [524544; 5]),
    ];
    let kernels = all_kernels();
    assert_eq!(kernels.len(), want.len());
    for ((kernel, scop), (name, cycles)) in kernels.iter().zip(want) {
        assert_eq!(*kernel, name);
        let got: Vec<i64> = preset_grid()
            .iter()
            .map(|(preset, config)| model_cycles(&format!("{kernel}/{preset}"), scop, config).1)
            .collect();
        assert_eq!(got, cycles, "{kernel}");
    }
}

#[test]
fn long_chains_shift_and_never_scale() {
    let ilp_presets = [
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
    ];
    for (n, cycles) in [(8, 2040), (12, 3060), (16, 4080)] {
        let scop = synthetic::long_chain(n);
        for (preset, config) in &ilp_presets {
            let name = format!("long_chain_{n}/{preset}");
            let (sched, got) = model_cycles(&name, &scop, config);
            assert_eq!(got, cycles, "{name}");
            // `i, 2i, 3i, …` is as legal as `i, i + 1, i + 2, …` and
            // costs the model the same, but scans k·N points and has no
            // integral inverse.
            for s in 0..n {
                let coeffs: Vec<i64> = sched.stmt(StmtId(s)).rows().iter().map(|r| r[0]).collect();
                let scheduled: Vec<&i64> = coeffs.iter().filter(|&&c| c != 0).collect();
                assert_eq!(scheduled, [&1], "{name}: S{s} has {coeffs:?}");
            }
        }
    }
}
