//! Tests for the SCoP registry: canonical fingerprinting (dedupe under
//! access permutation), LRU eviction, raw-text resolution
//! (`resolve_text`), cross-run cache persistence via
//! `add_resident_scop`, and determinism of registry-backed scheduling
//! under concurrency.

use std::sync::Arc;

use polytops_core::registry::{canonical_text, fingerprint, ScopRegistry, TEXTS_PER_ENTRY};
use polytops_core::scenario::ScenarioSet;
use polytops_core::{presets, SchedulerConfig};
use polytops_ir::{parse_scop, print_scop, Aff, Scop, ScopBuilder};
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

/// (hits, text hits, misses, evictions) of a registry.
fn counts(registry: &ScopRegistry) -> (usize, usize, usize, usize) {
    let stats = registry.stats();
    (stats.hits, stats.text_hits, stats.misses, stats.evictions)
}

#[test]
fn a_repeated_text_is_a_text_hit_on_the_same_entry() {
    let registry = ScopRegistry::new(8);
    let text = print_scop(&matmul());
    let (first, hit) = registry.resolve_text(Some("mm"), &text).unwrap();
    assert!(!hit);
    assert_eq!(first.name(), "mm");
    assert_eq!(counts(&registry), (0, 0, 1, 0));
    let (again, hit) = registry.resolve_text(Some("other"), &text).unwrap();
    assert!(hit);
    assert!(Arc::ptr_eq(&first, &again));
    assert_eq!(again.name(), "mm", "the first registration names the entry");
    assert_eq!(counts(&registry), (1, 1, 1, 0));
    // Without a name, a new entry takes the SCoP's own.
    let (chain, _) = registry
        .resolve_text(None, &print_scop(&stencil_chain()))
        .unwrap();
    assert_eq!(chain.name(), stencil_chain().name);
}

#[test]
fn a_permuted_text_is_a_canonical_hit_then_a_text_hit() {
    let registry = ScopRegistry::new(8);
    let original = print_scop(&producer_consumer());
    let permuted = print_scop(&producer_consumer_permuted());
    assert_ne!(original, permuted);
    let (first, _) = registry.resolve_text(None, &original).unwrap();
    let (second, hit) = registry.resolve_text(None, &permuted).unwrap();
    assert!(hit && Arc::ptr_eq(&first, &second));
    assert_eq!(counts(&registry), (1, 0, 1, 0), "a canonical hit");
    let (third, hit) = registry.resolve_text(None, &permuted).unwrap();
    assert!(hit && Arc::ptr_eq(&first, &third));
    assert_eq!(counts(&registry), (2, 1, 1, 0), "then a text hit");
    // Both are served from the first registration's representative.
    assert_eq!(third.name(), "producer_consumer");
    assert_eq!(*third.scop(), producer_consumer());
}

#[test]
fn texts_are_evicted_with_their_entry() {
    let registry = ScopRegistry::new(1);
    let a = print_scop(&stencil_chain());
    let b = print_scop(&matmul());
    let (first, _) = registry.resolve_text(None, &a).unwrap();
    registry.resolve_text(None, &b).unwrap();
    let (again, hit) = registry.resolve_text(None, &a).unwrap();
    assert!(!hit, "A was evicted with its text");
    assert!(!Arc::ptr_eq(&first, &again), "A is analyzed again");
    assert_eq!(counts(&registry), (0, 0, 3, 2));
}

#[test]
fn an_entry_remembers_at_most_its_cap_of_texts() {
    let registry = ScopRegistry::new(8);
    // The name line is part of the text but not of the identity, so
    // each of these is a distinct text of one SCoP.
    let texts: Vec<String> = (0..=TEXTS_PER_ENTRY)
        .map(|i| {
            let mut scop = jacobi_1d();
            scop.name = format!("jacobi_{i}");
            print_scop(&scop)
        })
        .collect();
    let (entry, _) = registry.resolve_text(None, &texts[0]).unwrap();
    for text in &texts[1..] {
        let (same, hit) = registry.resolve_text(None, text).unwrap();
        assert!(hit && Arc::ptr_eq(&entry, &same));
    }
    assert_eq!(counts(&registry), (TEXTS_PER_ENTRY, 0, 1, 0));
    // The first TEXTS_PER_ENTRY texts were remembered; the last was not
    // and stays a canonical hit.
    for text in &texts {
        let (same, hit) = registry.resolve_text(None, text).unwrap();
        assert!(hit && Arc::ptr_eq(&entry, &same));
    }
    let (hits, text_hits, misses, _) = counts(&registry);
    assert_eq!(
        (hits, text_hits, misses),
        (2 * TEXTS_PER_ENTRY + 1, TEXTS_PER_ENTRY, 1)
    );
    assert_eq!(registry.len(), 1);
}

#[test]
fn unparsable_text_registers_nothing() {
    let registry = ScopRegistry::new(8);
    let text = print_scop(&matmul());
    let truncated = &text[..text.len() / 2];
    let err = registry.resolve_text(None, truncated).unwrap_err();
    assert_eq!(err, parse_scop(truncated).unwrap_err());
    assert!(registry.is_empty());
    assert_eq!(counts(&registry), (0, 0, 0, 0));
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
    // matmul's 3 dependences share one polyhedron, hence one cone.
    assert_eq!((entry.deps().len(), entry.prewarm().unwrap()), (3, 1));
    assert_eq!(entry.prewarm().unwrap(), 0, "idempotent");
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
