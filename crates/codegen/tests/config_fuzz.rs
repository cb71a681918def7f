//! A seeded configuration fuzz: Listing-2 configuration texts with their
//! integers mutated run through `SchedulerConfig::from_json`, `schedule`
//! and `emit_c` on two kernels. Every case must end in `Ok` or `Err`;
//! none may panic. The integers become 0, ±1, ±2, ±2³¹ and the `i64`
//! extremes, and statement indices, iterators and scheduling dimensions
//! are pushed past the SCoP. The case count reads `PROPTEST_CASES`.

mod fuzz;

use fuzz::{survives, VALUES};
use polytops_codegen::emit_c;
use polytops_core::{schedule, SchedulerConfig};
use polytops_workloads::{producer_consumer, stencil_chain};
use proptest::prelude::*;

/// Configuration texts in the paper's Listing-2 format. The first uses
/// every strategy section; the other two the post-processing and Pluto+
/// switches. Every integer in them, inside strings too, is a mutation
/// site.
const BASES: [&str; 3] = [
    r#"{"scheduling_strategy": {
        "new_variables": ["x"],
        "ILP_construction": [
          {"scheduling_dimension": "default",
           "cost_functions": ["contiguity", "proximity", "x"]},
          {"scheduling_dimension": 1,
           "cost_functions": ["feautrier"],
           "constraints": ["S0_it_0 >= 0"]}
        ],
        "custom_constraints": [
          {"scheduling_dimension": "default",
           "constraints": ["x - S0_it_0 >= 0", "S1_cst >= 1"]},
          {"scheduling_dimension": 2, "constraints": ["S0_cst <= 3"]}
        ],
        "fusion": [
          {"scheduling_dimension": 0, "total_distribution": false,
           "stmts_fusion": [["0", "1"]]}
        ],
        "directives": [
          {"type": "vectorize", "stmts": "0", "iterator": "1"},
          {"type": "parallelize", "stmts": "1", "iterator": "0"}
        ],
        "coefficient_bound": 4,
        "parameter_estimate": 64
    }}"#,
    r#"{"scheduling_strategy": {
        "ILP_construction": [
          {"scheduling_dimension": "default",
           "cost_functions": ["bigLoopsFirst", "proximity"]}
        ],
        "fusion_heuristic": "maxfuse",
        "auto_vectorize": true,
        "tile_sizes": [32, 16],
        "wavefront": true,
        "intra_tile_vectorize": true,
        "parameter_estimate": 128
    }}"#,
    r#"{"scheduling_strategy": {
        "ILP_construction": [
          {"scheduling_dimension": 0, "cost_functions": ["proximity"]}
        ],
        "custom_constraints": [
          {"scheduling_dimension": 0, "constraints": ["S0_cst - S1_cst <= 2"]}
        ],
        "fusion": [
          {"scheduling_dimension": 1, "total_distribution": true}
        ],
        "directives": [
          {"type": "sequential", "stmts": "all", "iterator": "0"}
        ],
        "negative_coefficients": true,
        "parametric_shift": true,
        "isl_fallback": true,
        "heuristic_fast_path": true,
        "coefficient_bound": 2,
        "tile_sizes": [8]
    }}"#,
];

/// `text` with its `k`-th run of digits (a leading `-` included)
/// replaced by `VALUES[c % VALUES.len()]` for `c = choices[k]` when
/// `c / VALUES.len() < rate`, and kept otherwise: with `c` below
/// `4 * VALUES.len()`, a rate of 1 to 3 mutates a quarter to three
/// quarters of the sites.
fn mutate(text: &str, rate: usize, choices: &[usize]) -> String {
    let bytes = text.as_bytes();
    let (mut out, mut i, mut k) = (String::new(), 0, 0);
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        if !starts {
            out.push(char::from(bytes[i]));
            i += 1;
            continue;
        }
        let mut end = i + 1;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        let c = choices[k % choices.len()];
        if c / VALUES.len() < rate {
            out.push_str(VALUES[c % VALUES.len()]);
        } else {
            out.push_str(&text[i..end]);
        }
        k += 1;
        i = end;
    }
    out
}

/// Parses, schedules and lowers `text` on both kernels, discarding
/// every `Ok` and `Err`: only a panic escapes.
fn run(text: &str) {
    let Ok(config) = SchedulerConfig::from_json(text) else {
        return;
    };
    for scop in [stencil_chain(), producer_consumer()] {
        if let Ok(sched) = schedule(&scop, &config) {
            let _ = emit_c(&scop, &sched);
        }
    }
}

/// The fuzz starts from configurations that reach code generation: each
/// base lowers on `producer_consumer`, whose two statements the texts
/// name (`stencil_chain` has one, so it refuses some).
#[test]
fn the_unmutated_configurations_lower() {
    let scop = producer_consumer();
    for text in BASES {
        let config = SchedulerConfig::from_json(text).expect("base configuration parses");
        let sched = schedule(&scop, &config).expect("base configuration schedules");
        emit_c(&scop, &sched).expect("base configuration lowers");
    }
}

proptest! {
    #[test]
    fn mutated_configurations_never_panic(
        (base, rate, choices) in (
            0..BASES.len(),
            1usize..=3,
            collection::vec(0..4 * VALUES.len(), 8..24),
        ),
    ) {
        let text = mutate(BASES[base], rate, &choices);
        prop_assert!(survives(|| run(&text)), "panicked on {text}");
    }
}
