//! Schedule quality, pinned per scenario.
//!
//! The golden snapshots hold the emitted text; this holds what the text
//! cannot show and what the benchmark's one geomean would average away:
//! every kernel × preset scenario of the sweep, and the long chains
//! under the ILP presets, is certified by the independent oracle, lowers
//! to C, and scores exactly the model cycles listed here. A change that
//! trades a shift `i + k` for a scaled coefficient `k·i` on a chain
//! keeps its model cycles, so the chains' iterator coefficients are
//! pinned as well. So is the solver effort each preset's scenarios sum
//! to — `(bb_nodes, lp_stages, dual_pivots, fractional_stages)` — which
//! no schedule shows: a lexmin change that keeps every answer but
//! searches more (a stage seed lost doubles `bb_nodes`) fails here.

use polytops_codegen::emit_c;
use polytops_core::tune::score_schedule;
use polytops_core::{presets, schedule_with_options, EngineOptions, MachineModel, SchedulerConfig};
use polytops_deps::{analyze, schedule_respects_dependence};
use polytops_ir::{Schedule, Scop, StmtId};
use polytops_math::IlpStats;
use polytops_workloads::{all_kernels, sweep::preset_grid, synthetic};

/// The counters of a solve that the benchmark reports as
/// `math.{bb_nodes, lp_stages, dual_pivots, fractional_stages}`.
fn effort(ilp: &IlpStats) -> [usize; 4] {
    [
        ilp.nodes,
        ilp.lp_stages,
        ilp.dual_pivots,
        ilp.fractional_stages,
    ]
}

/// Certifies, lowers and scores one scenario, and adds its solver
/// effort to `ilp`.
fn model_cycles(
    name: &str,
    scop: &Scop,
    config: &SchedulerConfig,
    ilp: &mut IlpStats,
) -> (Schedule, i64) {
    let (sched, stats) = schedule_with_options(scop, config, &EngineOptions::default())
        .unwrap_or_else(|e| panic!("{name} schedules: {e:?}"));
    ilp.absorb(&stats.ilp);
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
    // Summed over the kernels, per preset in the same order.
    let want_effort: [[usize; 4]; 5] = [
        [6, 109, 7, 2],
        [11, 95, 3, 3],
        [17, 158, 7, 5],
        [6, 109, 7, 2],
        [0, 35, 3, 0],
    ];
    let kernels = all_kernels();
    assert_eq!(kernels.len(), want.len());
    let grid = preset_grid();
    let mut ilp = vec![IlpStats::default(); grid.len()];
    for ((kernel, scop), (name, cycles)) in kernels.iter().zip(want) {
        assert_eq!(*kernel, name);
        let got: Vec<i64> = grid
            .iter()
            .zip(&mut ilp)
            .map(|((preset, config), ilp)| {
                model_cycles(&format!("{kernel}/{preset}"), scop, config, ilp).1
            })
            .collect();
        assert_eq!(got, cycles, "{kernel}");
    }
    let got: Vec<[usize; 4]> = ilp.iter().map(effort).collect();
    assert_eq!(got, want_effort, "solver effort per preset");
}

#[test]
fn long_chains_shift_and_never_scale() {
    let ilp_presets = [
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
    ];
    // Summed over the three chains, per preset in the same order.
    let want_effort: [[usize; 4]; 3] = [[0, 84, 0, 0], [0, 81, 0, 0], [0, 165, 0, 0]];
    let mut ilp = [IlpStats::default(); 3];
    for (n, cycles) in [(8, 2040), (12, 3060), (16, 4080)] {
        let scop = synthetic::long_chain(n);
        for ((preset, config), ilp) in ilp_presets.iter().zip(&mut ilp) {
            let name = format!("long_chain_{n}/{preset}");
            let (sched, got) = model_cycles(&name, &scop, config, ilp);
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
    let got: Vec<[usize; 4]> = ilp.iter().map(effort).collect();
    assert_eq!(got, want_effort, "solver effort per preset");
}
