//! End-to-end tests for the cost-model subsystem: feature extraction on
//! real scheduled kernels, and the autotuner's selection / determinism
//! / certification contract.

use polytops_core::tune::{self, MachineModel, TuneBudget};
use polytops_core::{presets, schedule};
use polytops_deps::analyze;
use polytops_machine::calibrate::{calibrate, SyntheticTimer};
use polytops_machine::model::{extract_features, model_score};
use polytops_workloads::{all_kernels, jacobi_1d, matmul};

#[test]
fn tiled_stencil_has_bounded_footprint() {
    // The wavefront preset skews, tiles (32x32) and wavefronts the
    // time-iterated stencil; the extracted footprint must be the tile's
    // — independent of the parameter estimate — and every reuse must be
    // capped by the tile edge, not the iteration space.
    let scop = jacobi_1d();
    let deps = analyze(&scop);
    let tiled = schedule(&scop, &presets::wavefront()).unwrap();
    let marks = tiled.tree().expect("post-processing sets a tree").marks();
    assert!(
        marks
            .iter()
            .any(|m| matches!(m, polytops_ir::MarkKind::Tile(_))),
        "wavefront preset tiles"
    );
    let f = extract_features(&scop, &tiled, &deps, 4096);
    assert!(f.tiled);
    assert_eq!(f.footprint_bytes, 8 * 32 * 32, "one double array, one tile");
    assert!(
        f.reuse_distances.iter().all(|&r| r <= 32),
        "tile-capped reuse, got {:?}",
        f.reuse_distances
    );

    let plain = schedule(&scop, &presets::pluto()).unwrap();
    let fp = extract_features(&scop, &plain, &deps, 4096);
    assert!(fp.footprint_bytes > f.footprint_bytes);
    assert!(fp.reuse_distances.iter().max() >= Some(&4096));
}

#[test]
fn wavefronted_matmul_reports_an_outer_parallel_dim() {
    let scop = matmul();
    let deps = analyze(&scop);
    let sched = schedule(&scop, &presets::wavefront()).unwrap();
    let f = extract_features(&scop, &sched, &deps, 64);
    assert!(f.outer_parallel, "matmul's i-tile loop is parallel: {f:?}");
    assert!(f.parallel_dims >= 1);
    assert_eq!(f.sync_events, 1, "coarse-grain: one fork/join");
    assert!(f.max_band_width >= 2, "permutable (tilable) band survives");
}

#[test]
fn model_prefers_parallel_tiled_matmul_over_sequential() {
    let scop = matmul();
    let deps = analyze(&scop);
    let machine = MachineModel::default();
    let tiled = schedule(&scop, &presets::wavefront()).unwrap();
    let plain = schedule(&scop, &presets::pluto()).unwrap();
    let tiled_score = model_score(&machine, &extract_features(&scop, &tiled, &deps, 64));
    let plain_score = model_score(&machine, &extract_features(&scop, &plain, &deps, 64));
    assert!(
        tiled_score >= plain_score,
        "tiling must never hurt under the model: {tiled_score} vs {plain_score}"
    );
}

#[test]
fn explore_beats_or_matches_the_default_preset() {
    let machine = MachineModel::default();
    // A ground truth with a 10x pricier memory system than stock, and
    // the model `calibrate` fits to it.
    let truth = MachineModel {
        miss_penalty_cycles: 240,
        sync_cycles: 9000,
        ..MachineModel::default()
    };
    let timer = SyntheticTimer {
        ground_truth: truth.clone(),
    };
    let calibrated = calibrate(&machine, &timer)
        .expect("synthetic timing never fails")
        .machine;
    for (_, scop) in all_kernels() {
        let budget = TuneBudget {
            threads: 2,
            ..TuneBudget::default()
        };
        let outcome = tune::explore(&scop, &machine, &budget).expect("kernels schedule");
        assert!(
            outcome.certified,
            "{}: winner must be oracle-legal",
            scop.name
        );
        let default_score = outcome.candidates[0].1.expect("pluto schedules");
        assert_eq!(outcome.candidates[0].0, "pluto");
        assert!(
            outcome.score >= default_score,
            "{}: tuned {} must match or beat default {}",
            scop.name,
            outcome.score,
            default_score
        );
        // Priced under the ground truth, the calibrated tuner's pick
        // matches or beats the stock tuner's.
        let tuned = tune::explore(&scop, &calibrated, &budget).expect("kernels schedule");
        let price = |pick: &tune::TuneOutcome| {
            tune::score_schedule(&scop, &pick.winner.schedule, &truth, budget.param_estimate).1
        };
        let (calibrated_gt, stock_gt) = (price(&tuned), price(&outcome));
        assert!(
            calibrated_gt >= stock_gt,
            "{}: calibrated pick {calibrated_gt} vs stock pick {stock_gt}",
            scop.name
        );
    }
}

#[test]
fn explore_is_bit_deterministic_across_thread_counts() {
    let scop = jacobi_1d();
    let machine = MachineModel::default();
    let outcome_of = |threads: usize| {
        tune::explore(
            &scop,
            &machine,
            &TuneBudget {
                threads,
                ..TuneBudget::default()
            },
        )
        .expect("jacobi schedules")
    };
    let one = outcome_of(1);
    for threads in [2, 3, 7] {
        let many = outcome_of(threads);
        assert_eq!(one.winner.name, many.winner.name);
        assert_eq!(
            one.winner.schedule, many.winner.schedule,
            "{threads} threads"
        );
        assert_eq!(one.score, many.score);
        assert_eq!(one.features, many.features);
        assert_eq!(one.candidates, many.candidates);
    }
}

#[test]
fn for_machine_preset_schedules_and_certifies() {
    let scop = jacobi_1d();
    let machine = MachineModel::default();
    let sched = schedule(&scop, &presets::for_machine(&machine)).unwrap();
    let deps = analyze(&scop);
    assert!(deps.iter().all(|d| {
        polytops_deps::schedule_respects_dependence(
            d,
            sched.stmt(d.src).rows(),
            sched.stmt(d.dst).rows(),
        )
    }));
    let marks = sched.tree().expect("post-processing sets a tree").marks();
    assert!(
        marks
            .iter()
            .any(|m| matches!(m, polytops_ir::MarkKind::Tile(_))),
        "machine preset tiles"
    );
}
