//! Scenario-engine integration tests: determinism of sharded execution
//! and cross-scenario Farkas-cache amortization, certified against the
//! independent legality oracle.

use polytops_core::scenario::{winner, ScenarioSet};
use polytops_core::tune::{self, MachineModel};
use polytops_core::{presets, EngineOptions, PipelineStats, PostProcess, SchedulerConfig};
use polytops_deps::{analyze, schedule_respects_dependence};
use polytops_ir::{Schedule, Scop};
use polytops_workloads::sweep::standard_sweep;
use polytops_workloads::{jacobi_1d, matmul, producer_consumer, stencil_chain};

fn assert_legal(name: &str, scop: &Scop, sched: &Schedule) {
    for (e, dep) in analyze(scop).iter().enumerate() {
        assert!(
            schedule_respects_dependence(
                dep,
                sched.stmt(dep.src).rows(),
                sched.stmt(dep.dst).rows(),
            ),
            "{name}: dependence {e} (S{} -> S{}) violated",
            dep.src.0,
            dep.dst.0,
        );
    }
}

#[test]
fn sharded_sweep_is_bit_identical_to_sequential() {
    let set = standard_sweep();
    let sequential = set.run_sequential();
    // Dual simplex re-optimizes every pinned stage on the sweep; the
    // mini phase-1 fallback never fires.
    let phase1_passes: usize = sequential
        .iter()
        .map(|r| r.as_ref().unwrap().stats.ilp.phase1_passes)
        .sum();
    assert_eq!(phase1_passes, 0);
    for threads in [1, 2, 4] {
        let sharded = set.run_sharded(threads);
        assert_eq!(sequential.len(), sharded.len());
        for (a, b) in sequential.iter().zip(&sharded) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.schedule, b.schedule, "{}@{threads} threads", a.name);
            // The hit/miss *split* may differ under concurrency (two
            // scenarios can race to eliminate an entry) but the lookup
            // count is part of the deterministic work.
            assert_eq!(
                a.stats.farkas_hits + a.stats.farkas_misses,
                b.stats.farkas_hits + b.stats.farkas_misses,
                "{}@{threads} threads",
                a.name
            );
        }
    }
}

#[test]
fn a_one_job_set_runs_on_the_calling_thread() {
    // A pool of one is the caller, so a one-scenario set spawns nothing
    // whatever `threads` says: its traced "job" span carries the
    // caller's thread ordinal, and the schedule never changes.
    let recorder = polytops_obs::Recorder::new(true);
    let mut reference = None;
    for threads in [1, 2, 4] {
        let root = recorder.root_span("test");
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("matmul", matmul());
        set.add_scenario_with_options(
            scop,
            "pluto",
            presets::pluto(),
            EngineOptions { trace: root.link() },
        );
        let results = set.run_sharded(threads);
        let schedule = &results[0].as_ref().unwrap().schedule;
        assert_eq!(
            schedule,
            reference.get_or_insert_with(|| schedule.clone()),
            "{threads} threads"
        );
        let spans = recorder.spans_for(root.trace_id());
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "job").collect();
        assert_eq!(jobs.len(), 1, "{threads} threads");
        assert_eq!(
            jobs[0].tid,
            polytops_obs::thread_ordinal(),
            "{threads} threads"
        );
    }
}

#[test]
fn sweep_results_match_the_plain_scheduler_and_stay_legal() {
    // Cache/analysis sharing must be invisible in the results: every
    // sweep schedule equals what a cold standalone run produces.
    let set = standard_sweep();
    let results = set.run_sharded(2);
    for (r, scenario) in results.iter().zip(set.scenarios()) {
        let report = r.as_ref().unwrap();
        let (_, scop) = &set.scops()[scenario.scop];
        let standalone = polytops_core::schedule(scop, &scenario.config).unwrap();
        assert_eq!(report.schedule, standalone, "{}", report.name);
        assert_legal(&report.name, scop, &report.schedule);
    }
    assert!(winner(&results).is_some());
}

#[test]
fn farkas_hits_grow_with_scenario_count_for_a_fixed_scop() {
    // The cross-scenario cache contract: for one SCoP scheduled under K
    // solve configurations (distinct coefficient bounds, so each
    // re-solves), total hits grow with K and every scenario after the
    // first eliminates nothing.
    let total_hits = |k: usize| -> (usize, Vec<usize>) {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("matmul", matmul());
        for i in 0..k {
            let config = SchedulerConfig {
                coefficient_bound: 4 + i as i64,
                ..presets::pluto()
            };
            set.add_scenario(scop, format!("pluto#{i}"), config);
        }
        let results = set.run_sequential();
        let reports: Vec<_> = results.iter().map(|r| r.as_ref().unwrap()).collect();
        (
            reports.iter().map(|r| r.stats.farkas_hits).sum(),
            reports.iter().map(|r| r.stats.farkas_misses).collect(),
        )
    };
    let (h1, _) = total_hits(1);
    let (h2, m2) = total_hits(2);
    let (h4, m4) = total_hits(4);
    assert!(h2 > h1, "2 scenarios must out-hit 1: {h1} vs {h2}");
    assert!(h4 > h2, "4 scenarios must out-hit 2: {h2} vs {h4}");
    for misses in [&m2[1..], &m4[1..]] {
        assert!(
            misses.iter().all(|&m| m == 0),
            "repeat scenarios must replay everything: {misses:?}"
        );
    }
}

/// `config` with tiling (and optionally wavefront and both
/// vectorizations) switched on: the same solve, another post-processing.
fn post(config: SchedulerConfig, tile: i64, wavefront: bool, vectorize: bool) -> SchedulerConfig {
    let mut config = config;
    config.post = PostProcess {
        tile_sizes: vec![tile],
        wavefront,
        intra_tile_vectorize: vectorize,
    };
    config.auto_vectorize = vectorize;
    config
}

#[test]
fn post_only_variants_share_one_solve_and_match_standalone_runs() {
    // Two SCoPs; post-only variants of a preset, distinct presets, and
    // one exact duplicate. Groups (first member leads): jacobi
    // {0, 1, 3, 4}, {2, 5}; matmul {6, 8}, {7}.
    let kernels = [("jacobi_1d", jacobi_1d()), ("matmul", matmul())];
    let scenarios: [(usize, &str, SchedulerConfig); 9] = [
        (0, "pluto", presets::pluto()),
        (0, "pluto/tile16", post(presets::pluto(), 16, false, false)),
        (0, "feautrier", presets::feautrier()),
        (
            0,
            "pluto/tile8+wave+vec",
            post(presets::pluto(), 8, true, true),
        ),
        (0, "pluto again", presets::pluto()),
        (
            0,
            "feautrier/tile32",
            post(presets::feautrier(), 32, false, false),
        ),
        (
            1,
            "pluto/tile16+vec",
            post(presets::pluto(), 16, false, true),
        ),
        (1, "isl_like", presets::isl_like()),
        (1, "pluto", presets::pluto()),
    ];
    let leaders = [0, 2, 6, 7];
    let mut set = ScenarioSet::new();
    let ids: Vec<usize> = kernels
        .iter()
        .map(|(name, scop)| set.add_scop(*name, scop.clone()))
        .collect();
    for (k, name, config) in &scenarios {
        set.add_scenario(ids[*k], *name, config.clone());
    }
    let standalone: Vec<_> = scenarios
        .iter()
        .map(|(k, _, config)| polytops_core::schedule(&kernels[*k].1, config).unwrap())
        .collect();
    let ndeps: usize = kernels.iter().map(|(_, scop)| analyze(scop).len()).sum();

    let sequential = set.run_sequential();
    let misses: usize = sequential
        .iter()
        .map(|r| r.as_ref().unwrap().stats.farkas_misses)
        .sum();
    assert_eq!(misses, ndeps, "one elimination per dependence, as before");
    for threads in [1, 2, 4] {
        let results = set.run_sharded(threads);
        for (i, (r, want)) in results.iter().zip(&standalone).enumerate() {
            let report = r.as_ref().unwrap();
            let at = format!("{}@{threads} threads", report.name);
            assert_eq!(report.scenario, i, "{at}");
            assert_eq!(&report.schedule, want, "{at}: equals the standalone run");
            let stats = report.stats;
            if leaders.contains(&i) {
                assert!(
                    stats.ilp.lp_stages > 0,
                    "{at}: the leader solved: {stats:?}"
                );
                let lead = sequential[i].as_ref().unwrap().stats;
                assert_eq!(
                    stats.farkas_hits + stats.farkas_misses,
                    lead.farkas_hits + lead.farkas_misses,
                    "{at}"
                );
                assert_eq!(stats.ilp, lead.ilp, "{at}");
            } else {
                let zero = PipelineStats {
                    dimensions: report.schedule.dims(),
                    ..PipelineStats::default()
                };
                assert_eq!(stats, zero, "{at}: a member reports no solver effort");
            }
            assert_eq!(stats.dimensions, report.schedule.dims(), "{at}");
        }
    }

    // Traced: one `job` span a group, one `postprocess` span a scenario.
    let recorder = polytops_obs::Recorder::new(true);
    let root = recorder.root_span("test");
    let mut traced = ScenarioSet::new();
    let ids: Vec<usize> = kernels
        .iter()
        .map(|(name, scop)| traced.add_scop(*name, scop.clone()))
        .collect();
    for (k, name, config) in &scenarios {
        let options = EngineOptions { trace: root.link() };
        traced.add_scenario_with_options(ids[*k], *name, config.clone(), options);
    }
    traced.run_sharded(2);
    let spans = recorder.spans_for(root.trace_id());
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("job"), leaders.len());
    assert_eq!(count("pipeline"), leaders.len());
    assert_eq!(count("postprocess"), scenarios.len());
}

#[test]
fn the_default_tuning_lattice_solves_once_per_base_stack() {
    // 16 candidates: 3 base presets × post-processing variants.
    let scop = matmul();
    let lattice = tune::candidate_lattice(&scop, &MachineModel::default(), 16);
    assert_eq!(lattice.len(), 16);
    let mut set = ScenarioSet::new();
    let id = set.add_scop("matmul", scop);
    for c in &lattice {
        set.add_scenario(id, c.name.clone(), c.config.clone());
    }
    let results = set.run_sharded(2);
    let solves = results
        .iter()
        .filter(|r| r.as_ref().unwrap().stats.ilp.lp_stages > 0)
        .count();
    assert_eq!(solves, 3);
}

#[test]
fn one_cone_per_dependence_serves_every_ilp_layout() {
    // Four configurations, four ILP variable layouts (± split columns,
    // parameter-coefficient columns, a user variable, a Feautrier stack
    // on the plain layout), one SCoP, one set: each dependence's cone
    // is eliminated once for all of them, and sharing it is invisible
    // in the schedules.
    let configs = [
        ("pluto", presets::pluto()),
        ("pluto_plus", presets::pluto_plus()),
        (
            "shift",
            SchedulerConfig {
                parametric_shift: true,
                cost_functions: presets::feautrier().cost_functions,
                ..presets::pluto()
            },
        ),
        (
            "user_var",
            SchedulerConfig {
                new_variables: vec!["x".to_string()],
                ..presets::pluto()
            },
        ),
    ];
    let scop = jacobi_1d();
    let ndeps = analyze(&scop).len();
    assert!(ndeps > 1);
    let mut set = ScenarioSet::new();
    let id = set.add_scop("jacobi_1d", scop.clone());
    for (name, config) in &configs {
        set.add_scenario(id, *name, config.clone());
    }

    let sequential = set.run_sequential();
    let misses: usize = sequential
        .iter()
        .map(|r| r.as_ref().unwrap().stats.farkas_misses)
        .sum();
    assert_eq!(misses, ndeps, "one elimination per dependence");
    for (r, (name, config)) in sequential.iter().zip(&configs) {
        let mut alone = ScenarioSet::new();
        let only = alone.add_scop("jacobi_1d", scop.clone());
        alone.add_scenario(only, *name, config.clone());
        let alone = alone.run_sequential().remove(0).unwrap();
        let shared = r.as_ref().unwrap();
        assert_eq!(
            shared.schedule, alone.schedule,
            "{name}: identical to the scenario run alone"
        );
        assert_legal(name, &scop, &shared.schedule);
    }
    for threads in [1, 2, 4] {
        for (a, b) in sequential.iter().zip(&set.run_sharded(threads)) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.schedule, b.schedule, "{}@{threads} threads", a.name);
        }
    }
}

#[test]
fn mixed_kernel_sweep_reports_cross_scenario_hits() {
    // The acceptance-criterion shape: >= 4 scenarios over >= 3 kernels
    // with cross-scenario hits (sweep hits beyond what each scenario
    // scores alone, in a set of its own, through intra-run dimension
    // replay).
    let hits = |set: &ScenarioSet| -> usize {
        set.run_sharded(2)
            .iter()
            .map(|r| r.as_ref().unwrap().stats.farkas_hits)
            .sum()
    };
    let mut set = ScenarioSet::new();
    let mut isolated = 0usize;
    for (name, scop) in [
        ("stencil_chain", stencil_chain()),
        ("matmul", matmul()),
        ("producer_consumer", producer_consumer()),
    ] {
        let id = set.add_scop(name, scop.clone());
        for (preset, config) in [
            ("pluto", presets::pluto()),
            ("feautrier", presets::feautrier()),
        ] {
            set.add_scenario(id, format!("{name}/{preset}"), config.clone());
            let mut alone = ScenarioSet::new();
            let only = alone.add_scop(name, scop.clone());
            alone.add_scenario(only, format!("{name}/{preset}"), config);
            isolated += hits(&alone);
        }
    }
    assert!(set.len() >= 4);
    let shared = hits(&set);
    assert!(
        shared > isolated,
        "cross-scenario hits must exist: shared {shared} vs isolated {isolated}"
    );
}
