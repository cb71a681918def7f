//! Seeded inputs: the two sweep sets, the `serve_churn` SCoP generator,
//! and the request streams of both serve workloads.
//!
//! Everything here is a pure function of its arguments, so one `--seed`
//! always produces byte-identical inputs.

use polytops_core::{presets, PostProcess, SchedulerConfig};
use polytops_ir::{print_scop, Aff, Scop, ScopBuilder};
use polytops_workloads::requests::request_line;
use polytops_workloads::{self as kernels, synthetic};

/// splitmix64: small, seedable, and good enough to pick requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Sweep sets
// ---------------------------------------------------------------------

/// One offline sweep: kernels crossed with a configuration grid.
#[derive(Debug, Clone)]
pub struct SweepSet {
    /// `(kernel name, SCoP)`.
    pub kernels: Vec<(String, Scop)>,
    /// `(configuration name, configuration)`.
    pub grid: Vec<(&'static str, SchedulerConfig)>,
}

impl SweepSet {
    /// Scenario names, `<kernel>/<configuration>`, in run order.
    pub fn scenario_names(&self) -> Vec<String> {
        self.kernels
            .iter()
            .flat_map(|(k, _)| self.grid.iter().map(move |(g, _)| format!("{k}/{g}")))
            .collect()
    }

    /// The SCoPs as polyscop text, with the seed folded into the SCoP
    /// and array names. The sets themselves are fixed, because their
    /// layer shares are what the workloads were chosen for, so the seed
    /// varies the one input property that must not matter; a change
    /// that keys anything on raw text sees a new text per seed.
    pub fn texts(&self, seed: u64) -> Vec<(String, String)> {
        self.kernels
            .iter()
            .map(|(name, scop)| (name.clone(), print_scop(&renamed(scop, seed))))
            .collect()
    }
}

/// `scop` with `_s<seed>` appended to its name and to every array name,
/// in the declarations and in the statements' source text.
fn renamed(scop: &Scop, seed: u64) -> Scop {
    let mut out = scop.clone();
    let suffix = format!("_s{seed}");
    out.name.push_str(&suffix);
    let arrays: Vec<String> = scop.arrays.iter().map(|a| a.name.clone()).collect();
    for a in &mut out.arrays {
        a.name.push_str(&suffix);
    }
    for stmt in &mut out.statements {
        if let Some(text) = &stmt.text {
            stmt.text = Some(suffix_identifiers(text, &arrays, &suffix));
        }
    }
    out
}

/// Appends `suffix` to every whole identifier of `text` found in `names`.
fn suffix_identifiers(text: &str, names: &[String], suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut token = String::new();
    let flush = |token: &mut String, out: &mut String| {
        out.push_str(token);
        if names.iter().any(|n| n == token) {
            out.push_str(suffix);
        }
        token.clear();
    };
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            token.push(c);
        } else {
            flush(&mut token, &mut out);
            out.push(c);
        }
    }
    flush(&mut token, &mut out);
    out
}

fn post(tile: i64, wavefront: bool, vectorize: bool) -> SchedulerConfig {
    SchedulerConfig {
        post: PostProcess {
            tile_sizes: vec![tile],
            wavefront,
            intra_tile_vectorize: vectorize,
        },
        ..SchedulerConfig::default()
    }
}

fn ilp_grid() -> Vec<(&'static str, SchedulerConfig)> {
    vec![
        ("pluto", presets::pluto()),
        ("feautrier", presets::feautrier()),
        ("isl_like", presets::isl_like()),
    ]
}

fn post_grid() -> Vec<(&'static str, SchedulerConfig)> {
    vec![
        ("wave32", presets::wavefront()),
        ("tile16_vec", post(16, false, true)),
        ("tile64_wave_vec", post(64, true, true)),
    ]
}

fn named(scops: Vec<Scop>) -> Vec<(String, Scop)> {
    scops.into_iter().map(|s| (s.name.clone(), s)).collect()
}

/// The two small kernels every `--smoke` sweep runs instead of its set.
fn smoke_kernels() -> Vec<(String, Scop)> {
    named(vec![kernels::stencil_chain(), kernels::producer_consumer()])
}

/// `sweep_ilp`: chains whose joint ILP grows with their length, plus
/// four reference kernels, under the three pure-ILP presets.
pub fn sweep_ilp(smoke: bool) -> SweepSet {
    let kernels = if smoke {
        smoke_kernels()
    } else {
        named(vec![
            synthetic::long_chain(8),
            synthetic::long_chain(12),
            synthetic::long_chain(16),
            kernels::gemver(),
            kernels::heat_2d(),
            kernels::jacobi_1d(),
            kernels::matmul(),
        ])
    };
    SweepSet {
        kernels,
        grid: ilp_grid(),
    }
}

/// `sweep_post`: kernels with tilable bands under three post-processing
/// configurations, so tiling, wavefronting, certification and codegen
/// outweigh the solves.
pub fn sweep_post(smoke: bool) -> SweepSet {
    let kernels = if smoke {
        smoke_kernels()
    } else {
        named(vec![
            kernels::heat_2d(),
            kernels::jacobi_1d(),
            kernels::matmul(),
            kernels::gemver(),
            synthetic::wide_scop(8),
            kernels::producer_consumer(),
        ])
    };
    SweepSet {
        kernels,
        grid: post_grid(),
    }
}

// ---------------------------------------------------------------------
// Serve request streams
// ---------------------------------------------------------------------

/// The fixed kernels × presets of `serve_warm`, which is also its probe
/// set: sent once at set-up, compared byte for byte with the offline
/// engine, and scored for schedule quality.
///
/// `long_chain_12` runs under `fast_path` only: under `feautrier` its
/// warm round trip is 165 ms against 3–9 ms for every other kind, and
/// that one kind would make solving four fifths of the workload's time,
/// which is `sweep_ilp`'s subject, not this one's.
pub fn warm_kinds() -> Vec<(String, Scop, &'static str)> {
    let small = [
        kernels::stencil_chain(),
        kernels::producer_consumer(),
        kernels::reversed_consumer(),
        synthetic::wide_scop(4),
    ];
    let chain = synthetic::long_chain(12);
    small
        .into_iter()
        .flat_map(|s| ["fast_path", "feautrier"].map(|p| (s.name.clone(), s.clone(), p)))
        .chain([(chain.name.clone(), chain, "fast_path")])
        .collect()
}

/// The probe set of `serve_churn`: the first `count` requests of seed
/// 0's stream, whatever the run's seed, so that the quality metric
/// scores the same churn-shaped schedules on every run.
/// [`CHURN_PROBES`] of them hold every preset at every chain length.
pub fn churn_probe_kinds(count: usize) -> Vec<(String, Scop, &'static str)> {
    (0..count)
        .map(|i| {
            let class = CHURN_ROUND_UNIT[i % CHURN_ROUND_UNIT.len()];
            let (scop, preset) = churn_scop(churn_variant(0, i as u64, class));
            (scop.name.clone(), scop, preset)
        })
        .collect()
}

/// Size of the full-scale `serve_churn` probe set.
pub const CHURN_PROBES: usize = 2 * CHURN_ROUND_UNIT.len();

/// The request lines of a probe set, ids `probe/<kernel>/<preset>`.
pub fn probe_lines(kinds: &[(String, Scop, &'static str)]) -> Vec<String> {
    kinds
        .iter()
        .map(|(name, scop, preset)| {
            request_line(&format!("probe/{name}/{preset}"), name, scop, &[preset])
        })
        .collect()
}

/// `items` in a seeded order (Fisher–Yates).
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

/// One round of `serve_warm`: every line of [`warm_kinds`] `reps` times,
/// as indices in a seeded order. Every round of a run sends the same
/// requests in the same order, so rounds can be compared with each
/// other, and every request is a registry hit once the set is preloaded.
pub fn warm_round(seed: u64, kinds: usize, reps: usize) -> Vec<usize> {
    shuffled((0..kinds * reps).map(|i| i % kinds).collect(), seed)
}

/// Presets `serve_churn` draws from.
pub const CHURN_PRESETS: [&str; 3] = ["fast_path", "feautrier", "pluto"];

/// What sets the cost of a `serve_churn` request: its preset (an index
/// into [`CHURN_PRESETS`]) and its number of statements.
pub type ChurnClass = (usize, usize);

/// The smallest class mix with the stream's proportions: the three
/// presets equally often, and each preset's chain lengths equally often.
/// `fast_path` gets 2–5 statements; the two ILP presets get 2–3, because
/// their solve time grows so fast with the chain (50 ms at 4 statements
/// against 5 ms at 2) that longer chains would bury the registry's write
/// path, which this workload is for, under solving, which `sweep_ilp` is
/// for.
pub const CHURN_ROUND_UNIT: [ChurnClass; 12] = [
    (0, 2),
    (0, 3),
    (0, 4),
    (0, 5),
    (1, 2),
    (1, 3),
    (1, 2),
    (1, 3),
    (2, 2),
    (2, 3),
    (2, 2),
    (2, 3),
];

/// The classes of one round of `serve_churn`: `reps` units in a seeded
/// order. Every round of a run has this class sequence, so rounds cost
/// the same and can be compared, while every request in them is new.
pub fn churn_round(seed: u64, reps: usize) -> Vec<ChurnClass> {
    let unit = CHURN_ROUND_UNIT.len();
    shuffled(
        (0..unit * reps)
            .map(|i| CHURN_ROUND_UNIT[i % unit])
            .collect(),
        seed,
    )
}

/// Size of the space of shapes one class has under one seed.
const CHURN_SPACE: u64 = 1 << 20;

/// Variant number of stream position `ordinal` in `class` under `seed`:
/// the class in the low digits, and above them an affine map of the
/// position with an odd multiplier, so distinct positions below
/// [`CHURN_SPACE`] give distinct variants.
fn churn_variant(seed: u64, ordinal: u64, (preset, stmts): ChurnClass) -> u64 {
    let offset = Rng::new(seed).next_u64();
    let shape = ordinal.wrapping_mul(0x9E37_79B1).wrapping_add(offset) % CHURN_SPACE;
    let lengths = churn_lengths(preset);
    preset as u64 + 3 * ((stmts as u64 - 2) + lengths * shape)
}

/// How many chain lengths, from 2 up, a preset is given.
fn churn_lengths(preset: usize) -> u64 {
    if preset == 0 {
        4
    } else {
        2
    }
}

/// Structurally distinct request number `variant`: a preset and a chain
/// of statements (see [`CHURN_ROUND_UNIT`] for the lengths), each
/// reading its predecessor's array at two offsets from its own lower
/// bound.
///
/// Every digit of `variant` lands in the canonical text (statement
/// count, offsets, lower bounds; the preset is folded into the last
/// lower bound), so two variants never share a registry entry, while
/// all dependences stay forward and every preset schedules them.
pub fn churn_scop(variant: u64) -> (Scop, &'static str) {
    let mut digits = variant;
    let mut take = |radix: u64| {
        let d = digits % radix;
        digits /= radix;
        d as i64
    };
    let preset = take(CHURN_PRESETS.len() as u64);
    let stmts = 2 + take(churn_lengths(preset as usize)) as usize;
    let shape: Vec<(i64, i64, i64)> = (0..stmts).map(|_| (take(4), take(4), take(4))).collect();
    // Whatever is left of the variant number goes into the first lower
    // bound, which keeps the map from variants to SCoPs one to one.
    let rest = digits as i64;
    let mut b = ScopBuilder::new(&format!("churn_{variant}"));
    let n = b.param("N");
    let arrays: Vec<_> = (0..=stmts)
        .map(|k| b.array(&format!("A{k}"), std::slice::from_ref(&n), 8))
        .collect();
    for (k, &(off_a, off_b, lb)) in shape.iter().enumerate() {
        let mut lower = off_a.max(off_b) + lb;
        if k == 0 {
            lower += rest;
        }
        if k == stmts - 1 {
            lower += 4 * preset;
        }
        b.open_loop("i", Aff::val(lower), n.clone() - 1);
        b.stmt(&format!("S{k}"))
            .read(arrays[k], &[Aff::var("i") - off_a])
            .read(arrays[k], &[Aff::var("i") - off_b])
            .write(arrays[k + 1], &[Aff::var("i")])
            .text(&format!(
                "A{}[i] = A{k}[i-{off_a}] + A{k}[i-{off_b}];",
                k + 1
            ))
            .add(&mut b);
        b.close_loop();
    }
    (
        b.build().expect("churn chain builds"),
        CHURN_PRESETS[preset as usize],
    )
}

/// Request `ordinal` of the `serve_churn` stream, of class `class`: a
/// function of the seed, the stream position and the class alone.
/// `lane` separates the warm-up (1) from the measured stream (0).
pub fn churn_request(seed: u64, lane: u64, ordinal: usize, class: ChurnClass) -> String {
    let position = ordinal as u64 + lane * (CHURN_SPACE / 2);
    let (scop, preset) = churn_scop(churn_variant(seed, position, class));
    request_line(
        &format!("churn/{lane}/{ordinal}"),
        &scop.name,
        &scop,
        &[preset],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_core::registry::fingerprint;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        for seed in [1, 2] {
            let round = churn_round(seed, 3);
            assert_eq!(round, churn_round(seed, 3));
            let lines = |seed| -> Vec<String> {
                (0..40)
                    .map(|i| churn_request(seed, 0, i, round[i % round.len()]))
                    .collect()
            };
            assert_eq!(lines(seed), lines(seed));
            assert_ne!(lines(seed), lines(seed + 2));
            let picks = warm_round(seed, 9, 4);
            assert_eq!(picks, warm_round(seed, 9, 4));
            // Every kind as often as every other, in an order of the seed's.
            for kind in 0..9 {
                assert_eq!(picks.iter().filter(|&&p| p == kind).count(), 4);
            }
            assert_ne!(picks, warm_round(seed + 2, 9, 4));
        }
        assert_eq!(probe_lines(&warm_kinds()), probe_lines(&warm_kinds()));
    }

    #[test]
    fn churn_variants_have_distinct_fingerprints() {
        let n = 600;
        let round = churn_round(7, 2);
        let mut prints = BTreeSet::new();
        let mut shapes = BTreeSet::new();
        for i in 0..n {
            let class = round[i % round.len()];
            let (scop, preset) = churn_scop(churn_variant(7, i as u64, class));
            // A request is of the class it was asked for.
            assert_eq!(
                (preset, scop.statements.len()),
                (CHURN_PRESETS[class.0], class.1)
            );
            shapes.insert((preset, scop.statements.len()));
            prints.insert(fingerprint(&scop));
            // The warm-up lane never collides with the measured one.
            let warm_up = churn_variant(7, i as u64 + CHURN_SPACE / 2, class);
            prints.insert(fingerprint(&churn_scop(warm_up).0));
        }
        assert_eq!(prints.len(), 2 * n);
        let expect: BTreeSet<(&str, usize)> = CHURN_ROUND_UNIT
            .iter()
            .map(|&(preset, stmts)| (CHURN_PRESETS[preset], stmts))
            .collect();
        assert_eq!(expect.len(), 8);
        assert_eq!(shapes, expect);
        // The fixed probe set holds every class too.
        let probed: BTreeSet<(&str, usize)> = churn_probe_kinds(CHURN_PROBES)
            .iter()
            .map(|(_, scop, preset)| (*preset, scop.statements.len()))
            .collect();
        assert_eq!(probed, expect);
    }

    #[test]
    fn sweep_sets_are_pinned() {
        let ilp = sweep_ilp(false).scenario_names();
        assert_eq!(ilp.len(), 21);
        let expect_ilp: Vec<String> = [
            "long_chain_8",
            "long_chain_12",
            "long_chain_16",
            "gemver",
            "heat_2d",
            "jacobi_1d",
            "matmul",
        ]
        .iter()
        .flat_map(|k| ["pluto", "feautrier", "isl_like"].map(|g| format!("{k}/{g}")))
        .collect();
        assert_eq!(ilp, expect_ilp);

        let post = sweep_post(false).scenario_names();
        assert_eq!(post.len(), 18);
        let expect_post: Vec<String> = [
            "heat_2d",
            "jacobi_1d",
            "matmul",
            "gemver",
            "wide_scop_8",
            "producer_consumer",
        ]
        .iter()
        .flat_map(|k| ["wave32", "tile16_vec", "tile64_wave_vec"].map(|g| format!("{k}/{g}")))
        .collect();
        assert_eq!(post, expect_post);
        assert_eq!(sweep_ilp(true).scenario_names().len(), 6);
    }

    #[test]
    fn the_seed_reaches_the_sweep_text_and_nothing_else() {
        let set = sweep_ilp(true);
        let one = set.texts(1);
        assert_eq!(one, set.texts(1));
        assert_ne!(one, set.texts(2));
        let parsed = polytops_ir::parse_scop(&one[0].1).expect("renamed text parses");
        assert_eq!(parsed.name, "stencil_chain_s1");
        assert_eq!(parsed.arrays[0].name, "A_s1");
        assert_eq!(
            parsed.statements[0].text.as_deref(),
            Some("A_s1[i] = A_s1[i-1];")
        );
        // Renaming leaves the scheduling problem alone.
        assert_eq!(
            polytops_deps::analyze(&parsed).len(),
            polytops_deps::analyze(&set.kernels[0].1).len()
        );
        assert_eq!(
            suffix_identifiers("A1[i] = A10[i] + A1[i-1];", &["A1".into()], "_x"),
            "A1_x[i] = A10[i] + A1_x[i-1];"
        );
    }
}
