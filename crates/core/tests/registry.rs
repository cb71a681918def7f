//! Tests for the SCoP registry: canonical fingerprinting (dedupe under
//! access permutation), LRU eviction, cross-run cache persistence via
//! `add_resident_scop`, and determinism of registry-backed scheduling
//! under concurrency.

use std::sync::Arc;

use polytops_core::registry::{canonical_text, fingerprint, ScopRegistry};
use polytops_core::scenario::ScenarioSet;
use polytops_core::{presets, SchedulerConfig};
use polytops_ir::{Aff, Scop, ScopBuilder};
use polytops_workloads::{jacobi_1d, matmul, producer_consumer, stencil_chain};

/// `producer_consumer` with each statement's accesses listed in the
/// opposite order — the dependence analysis of this SCoP enumerates a
/// permuted dependence vector, but the scheduling problem is identical.
fn producer_consumer_permuted() -> Scop {
    let mut b = ScopBuilder::new("renamed_even");
    let n = b.param("N");
    let a = b.array("A", &[n.clone()], 8);
    let bb = b.array("B", &[n.clone()], 8);
    let c = b.array("C", &[n.clone()], 8);
    b.open_loop("i", Aff::val(0), n.clone() - 1);
    b.stmt("S0")
        .write(bb, &[Aff::var("i")])
        .read(a, &[Aff::var("i")])
        .text("B[i] = A[i];")
        .add(&mut b);
    b.close_loop();
    b.open_loop("j", Aff::val(0), n - 1);
    b.stmt("S1")
        .write(c, &[Aff::var("j")])
        .read(bb, &[Aff::var("j")])
        .text("C[j] = B[j];")
        .add(&mut b);
    b.close_loop();
    b.build().unwrap()
}

#[test]
fn fingerprint_ignores_name_and_access_order() {
    let original = producer_consumer();
    let permuted = producer_consumer_permuted();
    assert_ne!(
        original.statements[0].accesses, permuted.statements[0].accesses,
        "the permutation must actually reorder accesses"
    );
    assert_eq!(canonical_text(&original), canonical_text(&permuted));
    assert_eq!(fingerprint(&original), fingerprint(&permuted));
    // ...but a genuinely different SCoP keeps a different identity.
    assert_ne!(fingerprint(&original), fingerprint(&matmul()));
    assert_ne!(canonical_text(&original), canonical_text(&stencil_chain()));
}

#[test]
fn permuted_submissions_dedupe_onto_one_entry() {
    let registry = ScopRegistry::new(8);
    let (first, hit) = registry.resolve("producer_consumer", &producer_consumer());
    assert!(!hit);
    let (second, hit) = registry.resolve("permuted", &producer_consumer_permuted());
    assert!(hit, "permuted access order must dedupe");
    assert!(Arc::ptr_eq(&first, &second));
    // The representative is the first registration; both clients are
    // served from it.
    assert_eq!(first.name(), "producer_consumer");
    assert_eq!(registry.len(), 1);
    let stats = registry.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
}

#[test]
fn lru_evicts_the_coldest_entry() {
    let registry = ScopRegistry::new(2);
    registry.resolve("chain", &stencil_chain());
    registry.resolve("matmul", &matmul());
    // Touch chain so matmul becomes coldest.
    let (_, hit) = registry.resolve("chain", &stencil_chain());
    assert!(hit);
    registry.resolve("jacobi", &jacobi_1d());
    assert_eq!(registry.len(), 2);
    assert_eq!(registry.stats().evictions, 1);
    let (_, hit) = registry.resolve("matmul", &matmul());
    assert!(!hit, "matmul was the coldest entry and must be gone");
    let (_, hit) = registry.resolve("jacobi", &jacobi_1d());
    assert!(hit, "jacobi stays resident");
}

#[test]
fn resident_scheduling_replays_across_runs_and_matches_offline() {
    let registry = ScopRegistry::new(8);
    let configs = [
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
    ];

    let run = |registry: &ScopRegistry| {
        let (entry, _) = registry.resolve("matmul", &matmul());
        let mut set = ScenarioSet::new();
        let scop = set.add_resident_scop(entry);
        for (name, config) in &configs {
            set.add_scenario(scop, *name, config.clone());
        }
        set.run_sequential()
    };

    // Cold run: eliminations happen (misses), cache fills.
    let cold = run(&registry);
    assert!(cold[0].as_ref().unwrap().stats.farkas_misses > 0);

    // Warm run — a fresh ScenarioSet, as a new service batch would
    // build: zero misses anywhere, bit-identical schedules.
    let warm = run(&registry);
    for (c, w) in cold.iter().zip(&warm) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(c.schedule, w.schedule, "resident replay is bit-identical");
        assert_eq!(w.stats.farkas_misses, 0, "warm run must not re-eliminate");
        assert!(w.stats.farkas_hits > 0);
    }

    // And both equal the offline path (plain add_scop, nothing shared).
    let mut offline = ScenarioSet::new();
    let scop = offline.add_scop("matmul", matmul());
    for (name, config) in &configs {
        offline.add_scenario(scop, *name, config.clone());
    }
    for (r, o) in warm.iter().zip(offline.run_sequential()) {
        assert_eq!(r.as_ref().unwrap().schedule, o.unwrap().schedule);
    }
}

#[test]
fn every_layout_shares_the_entrys_one_cache() {
    // pluto+ widens the ILP variable layout; the entry's cones do not
    // depend on it, so a pluto run leaves pluto+ nothing to eliminate —
    // and a prewarmed entry leaves nobody anything.
    let registry = ScopRegistry::new(8);
    let run = |name: &str, config: SchedulerConfig| {
        let (entry, _) = registry.resolve("chain", &stencil_chain());
        let mut set = ScenarioSet::new();
        let scop = set.add_resident_scop(entry);
        set.add_scenario(scop, name, config);
        set.run_sequential().remove(0).unwrap()
    };
    let pluto = run("pluto", presets::pluto());
    assert!(pluto.stats.farkas_misses > 0);
    let plus = run("pluto_plus", presets::pluto_plus());
    assert_eq!(plus.stats.farkas_misses, 0, "{:?}", plus.stats);
    assert_eq!(
        plus.schedule,
        polytops_core::schedule(&stencil_chain(), &presets::pluto_plus()).unwrap()
    );

    let (entry, _) = registry.resolve("matmul", &matmul());
    entry.prewarm().unwrap();
    assert_eq!(entry.cache().misses(), entry.deps().len());
    entry.prewarm().unwrap();
    assert_eq!(entry.cache().misses(), entry.deps().len(), "idempotent");
}

#[test]
fn concurrent_resolvers_agree_bit_for_bit() {
    // N threads, each resolving the same kernels and scheduling them
    // through resident sets, must all produce the offline answer — the
    // core of the service's N-clients contract, without the TCP layer.
    let registry = Arc::new(ScopRegistry::new(8));
    let config = SchedulerConfig::default();

    let offline = {
        let mut set = ScenarioSet::new();
        let scop = set.add_scop("jacobi", jacobi_1d());
        set.add_scenario(scop, "pluto", config.clone());
        set.run_sequential()[0].as_ref().unwrap().schedule.clone()
    };

    let schedules: Vec<_> = std::thread::scope(|s| {
        (0..4)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let config = config.clone();
                s.spawn(move || {
                    let (entry, _) = registry.resolve("jacobi", &jacobi_1d());
                    let mut set = ScenarioSet::new();
                    let scop = set.add_resident_scop(entry);
                    set.add_scenario(scop, "pluto", config);
                    set.run_sequential()[0].as_ref().unwrap().schedule.clone()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for sched in &schedules {
        assert_eq!(
            *sched, offline,
            "every concurrent client gets the offline answer"
        );
    }
    assert_eq!(registry.len(), 1, "one resident entry for all threads");
}
