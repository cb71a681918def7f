//! The standard scenario sweep: every reference kernel crossed with the
//! preset configuration grid, packaged as a ready-to-run
//! [`ScenarioSet`].
//!
//! This is the workload driver for the scenario engine
//! ([`polytops_core::scenario`]): benchmarks, tests and the demo all
//! build their sweeps here so "the suite" means the same thing
//! everywhere. Scenario names are `<kernel>/<preset>`; every kernel is
//! registered once and referenced by all of its scenarios, which is what
//! lets the engine share one Farkas cache across a kernel's whole
//! configuration column.

use polytops_core::scenario::ScenarioSet;
use polytops_core::{presets, SchedulerConfig};

use crate::{all_kernels, synthetic};

/// Statement count of the synthetic chain instance registered in the
/// standard sweep: large enough that the joint ILP visibly dominates,
/// small enough that the pure-ILP presets stay test-suite friendly.
const SWEEP_CHAIN_LEN: usize = 12;

/// The preset grid every kernel is swept over: the paper's Table I
/// presets plus the post-processing (tiling + wavefront) variant and
/// the heuristic fast path.
pub fn preset_grid() -> Vec<(&'static str, SchedulerConfig)> {
    vec![
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
        ("wavefront", presets::wavefront()),
        ("fast_path", presets::fast_path()),
    ]
}

/// Builds the full standard sweep: ([`all_kernels`] plus the sized
/// [`synthetic::long_chain`] instance) × [`preset_grid`]
/// (8 kernels × 5 presets = 40 scenarios).
pub fn standard_sweep() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    let mut kernels = all_kernels();
    kernels.push(("long_chain_12", synthetic::long_chain(SWEEP_CHAIN_LEN)));
    for (kernel, scop) in kernels {
        let id = set.add_scop(kernel, scop);
        for (preset, config) in preset_grid() {
            set.add_scenario(id, format!("{kernel}/{preset}"), config);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sweep_covers_the_grid() {
        let set = standard_sweep();
        assert_eq!(set.scops().len(), 8);
        assert_eq!(set.len(), 8 * preset_grid().len());
        assert!(set.scenarios().iter().any(|s| s.name == "matmul/wavefront"));
        assert!(set
            .scenarios()
            .iter()
            .any(|s| s.name == "long_chain_12/fast_path"));
        assert!(set
            .scenarios()
            .iter()
            .any(|s| s.name == "heat_2d/wavefront"));
        assert!(set.scenarios().iter().any(|s| s.name == "gemver/pluto"));
    }
}
