//! Property tests for the registry snapshot/restore API (vendored
//! proptest shim): for arbitrary admission sequences over the
//! reference kernels snapshot → restore → snapshot round-trips the
//! registry *exactly*: canonical SCoP text, LRU order, fingerprints and
//! learned tuning winners — and leaves every restored entry's Farkas
//! cones resident.
//!
//! This is the invariant the `polytopsd` persistence layer is built
//! on: what a snapshot captures is sufficient to rebuild a registry
//! that is indistinguishable from the one that wrote it.

use polytops_core::registry::{fingerprint, LearnedConfig, ScopRegistry};
use polytops_workloads::all_kernels;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_restore_snapshot_is_identity(
        admissions in collection::vec((0usize..7, 0i64..3), 1..10),
        capacity in 2usize..5,
    ) {
        let kernels = all_kernels();
        let registry = ScopRegistry::new(capacity);
        for &(k, w) in &admissions {
            let (name, scop) = &kernels[k % kernels.len()];
            let (entry, _) = registry.resolve(name, scop);
            // Remember a tuning winner under a per-variant key, as an
            // autotune exploration would; re-learning an identical
            // winner must be a no-op, a changed one an overwrite.
            entry.learn(&format!("key{w}"), LearnedConfig {
                winner: format!("pluto/tile{}", 16 << w),
                score: -1000 - w,
            });
        }

        let snap_a = registry.snapshot();
        prop_assert!(snap_a.entries.len() <= capacity, "LRU bound");

        let restored = ScopRegistry::new(capacity);
        let report = restored.restore(&snap_a).expect("restore");
        prop_assert_eq!(report.entries, snap_a.entries.len());
        prop_assert_eq!(
            report.learned,
            snap_a.entries.iter().map(|e| e.learned.len()).sum::<usize>()
        );

        // The round-trip: canonical text, LRU order and learned winners
        // are all inside the snapshot value, so one equality covers them.
        let snap_b = restored.snapshot();
        prop_assert_eq!(&snap_a, &snap_b);

        // Fingerprints derive from canonical text; check they really
        // address the same entries in both registries.
        for entry in &snap_a.entries {
            let scop = polytops_ir::parse_scop(&entry.scop_text).expect("canonical text parses");
            let fp = fingerprint(&scop);
            prop_assert!(registry.find_by_fingerprint(fp).is_some());
            let entry = restored.find_by_fingerprint(fp).expect("restored entry");
            // Restored entries are prewarmed: one elimination per
            // dependence, none left for a request to pay.
            prop_assert_eq!(entry.cache().misses(), entry.deps().len());
        }
    }
}
