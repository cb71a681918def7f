//! Machine models and the static performance model for PolyTOPS.
//!
//! The scheduler proper is machine-independent; tile-size selection,
//! vectorization profitability and parallel speedup estimation (the
//! "external decisions" of the paper's Fig. 1) consume a
//! [`MachineModel`]. On top of the model structure and its derived
//! quantities, the [`model`] module scores *scheduled* SCoPs: it
//! extracts a machine-independent feature vector (outer parallelism,
//! reuse distances, tile footprints, vectorizable statements) from a
//! schedule plus its dependence set, and folds it with a
//! [`MachineModel`] into estimated cycles — the oracle the autotuner
//! (`polytops_core::tune`) ranks candidate configurations with. See
//! `docs/MODEL.md` for the full formula and determinism contract.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;

/// A simple abstract machine: caches, SIMD, core counts and the two
/// cost constants the performance model charges for synchronization
/// and cache misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineModel {
    /// Cache line size in bytes.
    pub cache_line_bytes: u32,
    /// Last-level cache capacity in bytes (tile-size budgets).
    pub cache_bytes: u64,
    /// SIMD register width in bytes.
    pub vector_bytes: u32,
    /// Hardware parallelism (cores × threads).
    pub num_cores: u32,
    /// Estimated cycles per cache miss (the model's memory penalty).
    pub miss_penalty_cycles: u32,
    /// Estimated cycles per synchronization event (fork/join or
    /// barrier).
    pub sync_cycles: u32,
}

impl Default for MachineModel {
    /// A generic contemporary CPU: 64 B lines, 32 MiB LLC, 256-bit SIMD,
    /// 16 cores, 24-cycle misses, 2000-cycle barriers.
    fn default() -> MachineModel {
        MachineModel {
            cache_line_bytes: 64,
            cache_bytes: 32 << 20,
            vector_bytes: 32,
            num_cores: 16,
            miss_penalty_cycles: 24,
            sync_cycles: 2000,
        }
    }
}

impl MachineModel {
    /// Number of SIMD lanes for elements of `element_size` bytes
    /// (at least 1).
    pub fn vector_lanes(&self, element_size: u32) -> u32 {
        (self.vector_bytes / element_size.max(1)).max(1)
    }

    /// Elements of `element_size` bytes per cache line (at least 1).
    pub fn elements_per_line(&self, element_size: u32) -> u32 {
        (self.cache_line_bytes / element_size.max(1)).max(1)
    }

    /// A square tile edge (in elements) such that `footprint_arrays`
    /// tiles of `element_size` elements fit in cache together.
    pub fn square_tile_edge(&self, element_size: u32, footprint_arrays: u32) -> u64 {
        let per_array = self.cache_bytes / u64::from(footprint_arrays.max(1));
        let elems = per_array / u64::from(element_size.max(1));
        let mut edge = 1u64;
        while (edge + 1) * (edge + 1) <= elems {
            edge += 1;
        }
        edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = MachineModel::default();
        assert_eq!(m.vector_lanes(8), 4);
        assert_eq!(m.vector_lanes(4), 8);
        assert_eq!(m.elements_per_line(8), 8);
        // 3 double arrays tiling into 32 MiB: edge^2 <= 32Mi/3/8.
        let e = m.square_tile_edge(8, 3);
        assert!(e * e * 8 * 3 <= m.cache_bytes);
        assert!((e + 1) * (e + 1) * 8 * 3 > m.cache_bytes);
    }

    #[test]
    fn degenerate_element_sizes_are_clamped() {
        let m = MachineModel::default();
        assert_eq!(m.vector_lanes(0), 32);
        assert_eq!(m.vector_lanes(1024), 1);
        assert!(m.square_tile_edge(0, 0) >= 1);
    }
}
