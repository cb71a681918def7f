//! A seeded SCoP-text fuzz: the printed polyscop text of every reference
//! kernel and of `long_chain(8)`, with a few integer tokens mutated, runs
//! through `parse_scop`, `schedule` (under `pluto`, and under tile 16 +
//! wavefront + intra-tile and auto vectorization, the rewrites that move
//! the tree most) and `emit_c`. Every case must end in `Ok` or `Err`; none
//! may panic. A mutated integer becomes 0, ±1, ±2, ±2³¹ or an `i64`
//! extreme, or moves by ±1 (which moves a count when the integer is
//! one); an access's array and a β position can be pushed past their
//! ranges, and the parameter list can gain or lose a name. The case
//! count reads `PROPTEST_CASES`.

mod fuzz;

use std::sync::OnceLock;

use fuzz::{survives, VALUES};
use polytops_codegen::emit_c;
use polytops_core::{presets, schedule, PostProcess, SchedulerConfig};
use polytops_ir::{parse_scop, print_scop, Scop};
use polytops_workloads::{all_kernels, synthetic::long_chain};
use proptest::prelude::*;

/// What an edit does to its integer: becomes `VALUES[op]`, or (past
/// them) moves by +1 or −1, or is pushed past its range.
const OPS: usize = VALUES.len() + 3;

/// The printed SCoPs the fuzz starts from, with their array and
/// statement counts.
fn bases() -> &'static [(String, usize, usize)] {
    static BASES: OnceLock<Vec<(String, usize, usize)>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut scops: Vec<Scop> = all_kernels().into_iter().map(|(_, scop)| scop).collect();
        scops.push(long_chain(8));
        (scops.iter())
            .map(|scop| (print_scop(scop), scop.arrays.len(), scop.statements.len()))
            .collect()
    })
}

/// The configurations every parsed case is scheduled under.
fn configs() -> [SchedulerConfig; 2] {
    let tiled = SchedulerConfig {
        post: PostProcess {
            tile_sizes: vec![16],
            wavefront: true,
            intra_tile_vectorize: true,
        },
        auto_vectorize: true,
        ..SchedulerConfig::default()
    };
    [presets::pluto(), tiled]
}

/// `text` with each `(site, op)` of `edits` applied. The sites are the
/// integer tokens of the text, numbered in order (the `params` line
/// counts as one more, whose list an edit grows or shrinks), taken
/// modulo their number.
fn mutate(text: &str, arrays: usize, stmts: usize, edits: &[(usize, usize)]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect();
    // (line, token) of every site.
    let mut sites = Vec::new();
    for (l, toks) in lines.iter().enumerate() {
        match toks.first().map(String::as_str) {
            Some("params") => sites.push((l, 0)),
            Some("name" | "statement" | "iters" | "text") | None => {}
            Some(_) => sites.extend(
                (1..toks.len())
                    .filter(|&t| toks[t].parse::<i64>().is_ok())
                    .map(|t| (l, t)),
            ),
        }
    }
    for &(site, op) in edits {
        let (l, t) = sites[site % sites.len()];
        let head = lines[l][0].clone();
        if head == "params" {
            if op % 2 == 0 {
                lines[l].push(format!("P{op}"));
            } else if lines[l].len() > 1 {
                lines[l].pop();
            }
            continue;
        }
        let value: i128 = lines[l][t].parse().expect("an integer site");
        lines[l][t] = match op.checked_sub(VALUES.len()) {
            None => VALUES[op].to_string(),
            Some(0) => (value + 1).to_string(),
            Some(1) => (value - 1).to_string(),
            _ => match head.as_str() {
                "read" | "write" if t == 1 => (arrays + site % 2).to_string(),
                "beta" => (stmts + site % 2).to_string(),
                _ => (value + (1 << 31)).to_string(),
            },
        };
    }
    let mut out = String::new();
    for toks in lines {
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    out
}

/// Parses, schedules and lowers `text`, discarding every `Ok` and
/// `Err`: only a panic escapes.
fn run(text: &str) {
    let Ok(scop) = parse_scop(text) else {
        return;
    };
    for config in configs() {
        if let Ok(sched) = schedule(&scop, &config) {
            let _ = emit_c(&scop, &sched);
        }
    }
}

/// The fuzz starts from texts that reach code generation under both
/// configurations.
#[test]
fn the_unmutated_scop_texts_lower() {
    for (text, _, _) in bases() {
        let scop = parse_scop(text).expect("a printed SCoP parses");
        for config in configs() {
            let sched = schedule(&scop, &config).expect("a reference SCoP schedules");
            emit_c(&scop, &sched).expect("a reference SCoP lowers");
        }
    }
}

proptest! {
    #[test]
    fn mutated_scop_texts_never_panic(
        (base, edits) in (
            0..bases().len(),
            collection::vec((0usize..1 << 16, 0..OPS), 1..5),
        ),
    ) {
        let (text, arrays, stmts) = &bases()[base];
        let text = mutate(text, *arrays, *stmts, &edits);
        prop_assert!(survives(|| run(&text)), "panicked on {edits:?} of base {base}:\n{text}");
    }
}
