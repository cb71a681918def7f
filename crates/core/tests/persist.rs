//! Property tests for the registry snapshot/restore API (vendored
//! proptest shim): for arbitrary admission sequences over the
//! reference kernels snapshot → restore → snapshot round-trips the
//! registry *exactly*: canonical SCoP text, LRU order and fingerprints
//! — and leaves every restored entry's Farkas cones resident.
//!
//! This is the invariant the `polytopsd` persistence layer is built
//! on: what a snapshot captures is sufficient to rebuild a registry
//! that is indistinguishable from the one that wrote it.

use polytops_core::registry::{fingerprint, ScopEntry, ScopRegistry};
use polytops_workloads::all_kernels;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_restore_snapshot_is_identity(
        admissions in collection::vec(0usize..7, 1..10),
        capacity in 2usize..5,
    ) {
        let kernels = all_kernels();
        let registry = ScopRegistry::new(capacity);
        for &k in &admissions {
            let (name, scop) = &kernels[k % kernels.len()];
            registry.resolve(name, scop);
        }

        let snap_a = registry.snapshot();
        prop_assert!(snap_a.entries.len() <= capacity, "LRU bound");

        let restored = ScopRegistry::new(capacity);
        let registered = restored.restore(&snap_a).expect("restore");
        prop_assert_eq!(registered, snap_a.entries.len());

        // The round-trip: canonical text and LRU order are both inside
        // the snapshot value, so one equality covers them.
        let snap_b = restored.snapshot();
        prop_assert_eq!(&snap_a, &snap_b);

        // Fingerprints derive from canonical text; check they really
        // address the same entries in both registries.
        for entry in &snap_a.entries {
            let scop = polytops_ir::parse_scop(&entry.scop_text).expect("canonical text parses");
            let fp = fingerprint(&scop);
            let (written, hit) = registry.resolve(&entry.name, &scop);
            prop_assert!(hit);
            prop_assert_eq!(written.fingerprint(), fp);
            let (entry, hit) = restored.resolve(&entry.name, &scop);
            prop_assert!(hit);
            prop_assert_eq!(entry.fingerprint(), fp);
            // Restored entries are prewarmed: a fresh entry eliminates
            // one cone per distinct dependence polyhedron, a restored
            // one has none left for a request to pay.
            let deps = entry.deps();
            let polyhedra = (deps.iter().enumerate())
                .filter(|&(e, dep)| deps[..e].iter().all(|d| d.poly() != dep.poly()))
                .count();
            prop_assert_eq!(ScopEntry::new(entry.name(), scop).prewarm().unwrap(), polyhedra);
            prop_assert_eq!(entry.prewarm().unwrap(), 0);
        }
    }
}
