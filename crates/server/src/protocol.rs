//! The `polytopsd` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One JSON document per `\n`-terminated line, both directions; the full
//! schema reference lives in `docs/SERVICE.md`. The daemon reads a line
//! with `parse_wire_request`: the envelope is parsed with the in-tree
//! parser ([`polytops_core::json`]), but the `scop` field stays polyscop
//! text, moved out of the parsed document, for the registry to resolve
//! (it parses the text only when no resident entry has seen it).
//! [`parse_request`] is that same parse followed by `parse_scop`, for
//! callers that want the SCoP itself (the router, which routes by its
//! fingerprint, and the offline golden path). Responses are built as
//! [`Json`] values and serialized with [`Json::compact`], whose `BTreeMap`-ordered output makes every
//! response byte-deterministic — the property the bit-identity contract
//! (daemon vs offline scenario engine) is stated over.

use std::collections::BTreeMap;

use polytops_core::json::Json;
use polytops_core::scenario::{ScenarioReport, ScenarioResult};
use polytops_core::tune::{MachineModel, TuneBudget, TuneOutcome};
use polytops_core::{presets, PipelineStats, RegistryStats, SchedulerConfig};
use polytops_ir::{parse_scop, MarkKind, Schedule, Scop, StmtId, TreeNode};
use polytops_machine::model::ScheduleFeatures;

/// One named configuration inside a schedule request.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Label echoed in the matching result entry.
    pub name: String,
    /// The compiled configuration (from a preset name or inline JSON).
    pub config: SchedulerConfig,
}

/// A `"op": "schedule"` request as the daemon reads it: the envelope
/// parsed, the SCoP still its polyscop text.
#[derive(Debug, Clone)]
pub(crate) struct WireSchedule {
    /// Request id, echoed verbatim in the response (`null` if absent).
    pub(crate) id: Json,
    /// The request's `name` field, when it is a string.
    pub(crate) name: Option<String>,
    /// The polyscop exchange text.
    pub(crate) scop: String,
    /// The configurations to schedule under.
    pub(crate) scenarios: Vec<ScenarioSpec>,
    /// Request-scoped trace id (see [`ScheduleRequest::trace`]).
    pub(crate) trace: Option<u64>,
}

impl WireSchedule {
    /// Parses the SCoP text.
    ///
    /// # Errors
    ///
    /// The `parse_scop` error, as its message.
    fn parse_scop(self) -> Result<ScheduleRequest, String> {
        let scop = parse_scop(&self.scop).map_err(|e| e.to_string())?;
        Ok(ScheduleRequest {
            id: self.id,
            name: self.name.unwrap_or_else(|| scop.name.clone()),
            scop,
            scenarios: self.scenarios,
            trace: self.trace,
        })
    }
}

/// A parsed `"op": "schedule"` request.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// Request id, echoed verbatim in the response (`null` if absent).
    pub id: Json,
    /// SCoP label used when the registry sees this SCoP first.
    pub name: String,
    /// The submitted SCoP.
    pub scop: Scop,
    /// The configurations to schedule under.
    pub scenarios: Vec<ScenarioSpec>,
    /// Request-scoped trace id, propagated in the request envelope (the
    /// router stamps one before forwarding so router and shard agree).
    /// Never echoed in responses: responses stay byte-identical whether
    /// or not a request was traced.
    pub trace: Option<u64>,
}

/// A `"op": "autotune"` request as the daemon reads it: the envelope
/// parsed, the SCoP still its polyscop text.
#[derive(Debug, Clone)]
pub(crate) struct WireAutotune {
    /// Request id, echoed verbatim in the response (`null` if absent).
    pub(crate) id: Json,
    /// The polyscop exchange text.
    pub(crate) scop: String,
    /// The machine to tune for.
    pub(crate) machine: MachineModel,
    /// Maximum candidate configurations to explore.
    pub(crate) max_candidates: usize,
    /// Parametric-loop trip estimate for feature extraction.
    pub(crate) param_estimate: i64,
}

impl WireAutotune {
    /// Parses the SCoP text.
    ///
    /// # Errors
    ///
    /// The `parse_scop` error, as its message.
    fn parse_scop(self) -> Result<AutotuneRequest, String> {
        Ok(AutotuneRequest {
            id: self.id,
            scop: parse_scop(&self.scop).map_err(|e| e.to_string())?,
            machine: self.machine,
            max_candidates: self.max_candidates,
            param_estimate: self.param_estimate,
        })
    }
}

/// A parsed `"op": "autotune"` request.
#[derive(Debug, Clone)]
pub struct AutotuneRequest {
    /// Request id, echoed verbatim in the response (`null` if absent).
    pub id: Json,
    /// The submitted SCoP.
    pub scop: Scop,
    /// The machine to tune for (daemon default plus any overrides the
    /// request carried).
    pub machine: MachineModel,
    /// Maximum candidate configurations to explore.
    pub max_candidates: usize,
    /// Parametric-loop trip estimate for feature extraction.
    pub param_estimate: i64,
}

/// Any request the daemon understands, with its SCoPs parsed (the
/// default parameters) or still polyscop text (as the daemon reads it).
#[derive(Debug, Clone)]
pub enum Request<S = ScheduleRequest, A = AutotuneRequest> {
    /// Schedule a SCoP under one or more configurations (batched).
    Schedule(Box<S>),
    /// Explore the machine-derived configuration lattice for a SCoP and
    /// return the cost model's pick (batched like a schedule request:
    /// the candidates are scenarios of the batch it joins).
    Autotune(Box<A>),
    /// Report registry and service counters (immediate).
    Stats,
    /// Return the span tree of the most recently completed traced
    /// request (immediate).
    Trace,
    /// Liveness probe (immediate).
    Ping,
    /// Finish in-flight batches, then stop the daemon (immediate ack).
    Shutdown,
}

/// A request as the daemon reads it: SCoPs stay polyscop text.
pub(crate) type WireRequest = Request<WireSchedule, WireAutotune>;

/// Parses one request line, SCoP text included.
///
/// # Errors
///
/// Returns a human-readable description of the first problem; the
/// daemon reports it in an error response without dropping the
/// connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    Ok(match parse_wire_request(line)? {
        Request::Schedule(req) => Request::Schedule(Box::new(req.parse_scop()?)),
        Request::Autotune(req) => Request::Autotune(Box::new(req.parse_scop()?)),
        Request::Stats => Request::Stats,
        Request::Trace => Request::Trace,
        Request::Ping => Request::Ping,
        Request::Shutdown => Request::Shutdown,
    })
}

/// Parses one request line, leaving its SCoP text unparsed.
///
/// # Errors
///
/// As [`parse_request`], except that SCoP text is not checked.
pub(crate) fn parse_wire_request(line: &str) -> Result<WireRequest, String> {
    let Json::Object(mut obj) = polytops_core::json::parse(line)? else {
        return Err("request must be a JSON object".to_string());
    };
    let Some(Json::Str(op)) = obj.remove("op") else {
        return Err("missing string field `op`".to_string());
    };
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        "schedule" => parse_schedule(obj).map(|r| Request::Schedule(Box::new(r))),
        "autotune" => parse_autotune(obj).map(|r| Request::Autotune(Box::new(r))),
        other => Err(format!(
            "unknown op `{other}` (expected schedule, autotune, stats, trace, ping or shutdown)"
        )),
    }
}

/// Moves the `scop` field's text out of a request object.
fn take_scop_text(obj: &mut BTreeMap<String, Json>) -> Result<String, String> {
    match obj.remove("scop") {
        Some(Json::Str(text)) => Ok(text),
        _ => Err("missing string field `scop` (polyscop exchange text)".to_string()),
    }
}

fn parse_schedule(mut obj: BTreeMap<String, Json>) -> Result<WireSchedule, String> {
    let id = obj.remove("id").unwrap_or(Json::Null);
    let scop = take_scop_text(&mut obj)?;
    let name = match obj.remove("name") {
        Some(Json::Str(name)) => Some(name),
        _ => None,
    };
    // `false` is accepted: it asks for the one whole-SCoP solve every
    // request gets.
    if !matches!(obj.get("split_components"), None | Some(Json::Bool(false))) {
        return Err(concat!(
            "`split_components` was removed: every scenario is one whole-SCoP solve; ",
            "to distribute, set `\"fusion_heuristic\": \"nofuse\"` or fusion controls ",
            "in the scenario's config"
        )
        .to_string());
    }
    let trace = match obj.get("trace") {
        None => None,
        Some(v) => Some(
            v.as_int()
                .and_then(|t| u64::try_from(t).ok())
                .filter(|&t| t != 0)
                .ok_or("`trace` must be a positive integer")?,
        ),
    };
    let specs = obj
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("missing array field `scenarios`")?;
    if specs.is_empty() {
        return Err("`scenarios` must not be empty".to_string());
    }
    let mut scenarios = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let spec = spec
            .as_object()
            .ok_or("`scenarios` entries must be objects")?;
        let (config, default_name) = match (spec.get("preset"), spec.get("config")) {
            (Some(p), None) => {
                let preset = p.as_str().ok_or("`preset` must be a string")?;
                (preset_by_name(preset)?, preset.to_string())
            }
            (None, Some(c)) => {
                // Inline configs reuse the paper's Listing 2 JSON format
                // verbatim: re-serialize the sub-document and hand it to
                // the existing SchedulerConfig parser.
                let cfg = SchedulerConfig::from_json(&c.compact()).map_err(|e| format!("{e}"))?;
                (cfg, format!("config{i}"))
            }
            _ => return Err("each scenario needs exactly one of `preset` or `config`".to_string()),
        };
        let name = spec
            .get("name")
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or("`name` must be a string")
            })
            .transpose()?
            .unwrap_or(default_name);
        scenarios.push(ScenarioSpec { name, config });
    }
    Ok(WireSchedule {
        id,
        name,
        scop,
        scenarios,
        trace,
    })
}

fn parse_autotune(mut obj: BTreeMap<String, Json>) -> Result<WireAutotune, String> {
    let id = obj.remove("id").unwrap_or(Json::Null);
    let scop = take_scop_text(&mut obj)?;
    let mut machine = MachineModel::default();
    if let Some(m) = obj.get("machine") {
        let m = m.as_object().ok_or("`machine` must be an object")?;
        for (key, value) in m {
            let v = value
                .as_int()
                .ok_or_else(|| format!("`machine.{key}` must be an integer"))?;
            let as_u32 = |v: i64, key: &str| {
                u32::try_from(v).map_err(|_| format!("`machine.{key}` out of range"))
            };
            match key.as_str() {
                "num_cores" => machine.num_cores = as_u32(v, key)?.max(1),
                "cache_bytes" => {
                    // Bounded at 1 TiB: `square_tile_edge` walks the
                    // edge linearly (O(√capacity)), so an absurd
                    // capacity would stall the batcher, and every
                    // request queued behind it, while it builds the
                    // candidate lattice.
                    machine.cache_bytes = u64::try_from(v)
                        .ok()
                        .filter(|&b| b <= 1 << 40)
                        .ok_or("`machine.cache_bytes` out of range (max 2^40)")?
                }
                "cache_line_bytes" => machine.cache_line_bytes = as_u32(v, key)?.max(1),
                "vector_bytes" => machine.vector_bytes = as_u32(v, key)?.max(1),
                "miss_penalty_cycles" => machine.miss_penalty_cycles = as_u32(v, key)?,
                "sync_cycles" => machine.sync_cycles = as_u32(v, key)?,
                other => return Err(format!("unknown field `{other}` in `machine`")),
            }
        }
    }
    let budget = TuneBudget::default();
    let max_candidates = match obj.get("max_candidates") {
        None => budget.max_candidates,
        Some(v) => usize::try_from(v.as_int().ok_or("`max_candidates` must be an integer")?)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("`max_candidates` must be at least 1")?,
    };
    let param_estimate = match obj.get("param_estimate") {
        None => budget.param_estimate,
        Some(v) => {
            let v = v.as_int().ok_or("`param_estimate` must be an integer")?;
            if v < 2 {
                return Err("`param_estimate` must be at least 2".to_string());
            }
            v
        }
    };
    Ok(WireAutotune {
        id,
        scop,
        machine,
        max_candidates,
        param_estimate,
    })
}

/// Resolves a preset name to its configuration (the names of
/// [`polytops_core::presets`]).
pub fn preset_by_name(name: &str) -> Result<SchedulerConfig, String> {
    match name {
        "pluto" => Ok(presets::pluto()),
        "pluto_plus" => Ok(presets::pluto_plus()),
        "feautrier" => Ok(presets::feautrier()),
        "isl_like" => Ok(presets::isl_like()),
        "wavefront" => Ok(presets::wavefront()),
        "fast_path" => Ok(presets::fast_path()),
        other => Err(format!(
            "unknown preset `{other}` (expected pluto, pluto_plus, feautrier, isl_like, \
             wavefront or fast_path)"
        )),
    }
}

fn object(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Serializes one schedule-tree node recursively (the `tree` field of
/// [`schedule_to_json`]): every node carries a `kind` tag, band members
/// carry their quasi-affine terms and coincidence flags, marks carry
/// their tile sizes / vectorized statements.
fn tree_node_to_json(node: &TreeNode) -> Json {
    match node {
        TreeNode::Band {
            members,
            permutable,
            child,
        } => {
            let members: Vec<Json> = members
                .iter()
                .map(|m| {
                    let terms: Vec<Json> = m
                        .terms
                        .iter()
                        .map(|t| {
                            object(vec![
                                ("div", Json::Int(t.div)),
                                ("source_dim", Json::Int(t.source_dim as i64)),
                                (
                                    "rows",
                                    Json::Array(
                                        t.rows
                                            .iter()
                                            .map(|row| {
                                                Json::Array(
                                                    row.iter().map(|&c| Json::Int(c)).collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect();
                    object(vec![
                        ("coincident", Json::Bool(m.coincident)),
                        ("terms", Json::Array(terms)),
                    ])
                })
                .collect();
            object(vec![
                ("kind", Json::Str("band".into())),
                ("permutable", Json::Bool(*permutable)),
                ("members", Json::Array(members)),
                ("child", tree_node_to_json(child)),
            ])
        }
        TreeNode::Filter { stmts, child } => object(vec![
            ("kind", Json::Str("filter".into())),
            (
                "stmts",
                Json::Array(stmts.iter().map(|&s| Json::Int(s as i64)).collect()),
            ),
            ("child", tree_node_to_json(child)),
        ]),
        TreeNode::Sequence(children) => object(vec![
            ("kind", Json::Str("sequence".into())),
            (
                "children",
                Json::Array(children.iter().map(tree_node_to_json).collect()),
            ),
        ]),
        TreeNode::Mark { kind, child } => {
            let mut pairs = vec![("kind", Json::Str("mark".into()))];
            match kind {
                MarkKind::Tile(sizes) => {
                    pairs.push(("mark", Json::Str("tile".into())));
                    pairs.push((
                        "sizes",
                        Json::Array(sizes.iter().map(|&s| Json::Int(s)).collect()),
                    ));
                }
                MarkKind::Wavefront => pairs.push(("mark", Json::Str("wavefront".into()))),
                MarkKind::Vectorize(stmts) => {
                    pairs.push(("mark", Json::Str("vectorize".into())));
                    pairs.push((
                        "stmts",
                        Json::Array(stmts.iter().map(|&s| Json::Int(s as i64)).collect()),
                    ));
                }
            }
            pairs.push(("child", tree_node_to_json(child)));
            object(pairs)
        }
        TreeNode::Leaf => object(vec![("kind", Json::Str("leaf".into()))]),
    }
}

/// Serializes a schedule: per-statement rows (over `(iters, params, 1)`
/// columns) plus band and parallelism metadata, and the schedule tree
/// (tiling, wavefront and vectorization all live there as marks and
/// quasi-affine band members).
pub fn schedule_to_json(sched: &Schedule) -> Json {
    let statements: Vec<Json> = (0..sched.num_statements())
        .map(|s| {
            let ss = sched.stmt(StmtId(s));
            object(vec![(
                "rows",
                Json::Array(
                    ss.rows()
                        .iter()
                        .map(|row| Json::Array(row.iter().map(|&c| Json::Int(c)).collect()))
                        .collect(),
                ),
            )])
        })
        .collect();
    object(vec![
        ("dims", Json::Int(sched.dims() as i64)),
        (
            "bands",
            Json::Array(sched.bands().iter().map(|&b| Json::Int(b as i64)).collect()),
        ),
        (
            "parallel",
            Json::Array(sched.parallel().iter().map(|&p| Json::Bool(p)).collect()),
        ),
        ("statements", Json::Array(statements)),
        ("tree", tree_node_to_json(&sched.tree().root)),
    ])
}

/// Serializes per-run pipeline statistics.
pub fn stats_to_json(stats: &PipelineStats) -> Json {
    object(vec![
        ("farkas_hits", Json::Int(stats.farkas_hits as i64)),
        ("farkas_misses", Json::Int(stats.farkas_misses as i64)),
        ("dimensions", Json::Int(stats.dimensions as i64)),
        (
            "fractional_stages",
            Json::Int(stats.ilp.fractional_stages as i64),
        ),
        ("dual_pivots", Json::Int(stats.ilp.dual_pivots as i64)),
        ("phase1_passes", Json::Int(stats.ilp.phase1_passes as i64)),
        ("fast_path_dims", Json::Int(stats.fast_path_dims as i64)),
        (
            "fast_path_fallbacks",
            Json::Int(stats.fast_path_fallbacks as i64),
        ),
    ])
}

/// Serializes one scenario outcome: the schedule and the oracle verdict
/// on success, or the scheduling error.
///
/// Pipeline *statistics* are deliberately absent: the per-run Farkas
/// hit/miss split can vary under concurrency (two scenarios racing to
/// eliminate the same entry — the PR 3 determinism contract covers the
/// sum and every schedule, not the split), so stats travel in the
/// response's separate `stats` field, outside the bit-identity
/// guarantee over `results`.
pub fn result_to_json(name: &str, result: &ScenarioResult, certified: bool) -> Json {
    match result {
        Ok(report) => object(vec![
            ("name", Json::Str(name.to_string())),
            ("ok", Json::Bool(true)),
            ("certified", Json::Bool(certified)),
            ("schedule", schedule_to_json(&report.schedule)),
        ]),
        Err(e) => object(vec![
            ("name", Json::Str(name.to_string())),
            ("ok", Json::Bool(false)),
            ("error", Json::Str(e.to_string())),
        ]),
    }
}

/// The full results array of one request, in scenario order — exactly
/// the value the bit-identity contract compares between the daemon and
/// the offline scenario engine.
pub fn results_to_json(reports: &[(&str, &ScenarioResult, bool)]) -> Json {
    Json::Array(
        reports
            .iter()
            .map(|(name, result, certified)| result_to_json(name, result, *certified))
            .collect(),
    )
}

/// A successful schedule response line. `stats` is the per-scenario
/// [`stats_to_json`] array (diagnostic; not covered by the bit-identity
/// contract over `results` — see [`result_to_json`]).
pub fn schedule_response(
    id: &Json,
    results: Json,
    stats: Json,
    registry_hit: bool,
    fingerprint: u64,
) -> String {
    object(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("results", results),
        ("stats", stats),
        (
            "registry",
            object(vec![
                ("hit", Json::Bool(registry_hit)),
                ("fingerprint", Json::Str(format!("{fingerprint:016x}"))),
            ]),
        ),
    ])
    .compact()
}

/// Serializes the model's feature vector of a schedule (the
/// `winner.features` object of an autotune response).
pub fn features_to_json(f: &ScheduleFeatures) -> Json {
    object(vec![
        ("dims", Json::Int(f.dims as i64)),
        ("num_stmts", Json::Int(f.num_stmts as i64)),
        ("outer_parallel", Json::Bool(f.outer_parallel)),
        ("parallel_dims", Json::Int(f.parallel_dims as i64)),
        ("max_band_width", Json::Int(f.max_band_width as i64)),
        ("vectorized_stmts", Json::Int(f.vectorized_stmts as i64)),
        ("total_ops", Json::Int(f.total_ops)),
        ("total_instances", Json::Int(f.total_instances)),
        ("tiled", Json::Bool(f.tiled)),
        ("footprint_bytes", Json::Int(f.footprint_bytes)),
        (
            "reuse_distances",
            Json::Array(f.reuse_distances.iter().map(|&r| Json::Int(r)).collect()),
        ),
        ("element_size", Json::Int(i64::from(f.element_size))),
        ("sync_events", Json::Int(f.sync_events)),
        (
            "trip_counts",
            Json::Array(f.trip_counts.iter().map(|&t| Json::Int(t)).collect()),
        ),
        (
            "stream_strides",
            Json::Array(f.stream_strides.iter().map(|&s| Json::Int(s)).collect()),
        ),
    ])
}

/// A successful autotune response line: the winning candidate (name,
/// model score, feature vector, schedule, oracle verdict) plus every
/// candidate's score (`null` when that configuration failed to
/// schedule), in lattice order. Deterministic byte-for-byte for a given
/// (SCoP, machine, budget), like every other response: a repeated
/// request is explored again and answered with the same bytes.
/// `explored_scenarios` counts the candidates scheduled.
pub fn autotune_response(id: &Json, outcome: &TuneOutcome) -> String {
    let candidates: Vec<Json> = outcome
        .candidates
        .iter()
        .map(|(name, score)| {
            object(vec![
                ("name", Json::Str(name.clone())),
                ("score", score.map_or(Json::Null, Json::Int)),
            ])
        })
        .collect();
    object(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        (
            "winner",
            object(vec![
                ("name", Json::Str(outcome.winner.name.clone())),
                ("score", Json::Int(outcome.score)),
                ("certified", Json::Bool(outcome.certified)),
                ("features", features_to_json(&outcome.features)),
                ("schedule", schedule_to_json(&outcome.winner.schedule)),
            ]),
        ),
        ("candidates", Json::Array(candidates)),
        (
            "explored_scenarios",
            Json::Int(outcome.explored_scenarios as i64),
        ),
    ])
    .compact()
}

/// An error response line (any op).
pub fn error_response(id: &Json, message: &str) -> String {
    object(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
    .compact()
}

/// Persistence counters surfaced by the `stats` op's `persist` object
/// (absent/`null` when the daemon runs without `--snapshot-dir`).
///
/// Like the `solver` counters these are diagnostics, not part of the
/// bit-identity contract — but the fault-injection suite asserts on
/// them (`recovered_from_prev` proves the torn-snapshot fallback fired,
/// `restored_entries` proves the daemon served warm).
#[derive(Debug, Default, Clone)]
pub struct PersistTotals {
    /// Registry entries rebuilt from the snapshot + journal at startup.
    pub restored_entries: usize,
    /// Whether the load fell back to the previous snapshot rotation
    /// (current snapshot missing or corrupt).
    pub recovered_from_prev: bool,
    /// Journal events replayed on top of the snapshot at startup.
    pub replayed_events: usize,
    /// Journal events appended since startup.
    pub journal_events: usize,
    /// Snapshot rotations performed since startup.
    pub rotations: usize,
    /// The snapshot directory, echoed for operators.
    pub dir: String,
}

impl PersistTotals {
    /// The `persist` stats object.
    fn to_json(&self) -> Json {
        object(vec![
            ("restored_entries", Json::Int(self.restored_entries as i64)),
            ("recovered_from_prev", Json::Bool(self.recovered_from_prev)),
            ("replayed_events", Json::Int(self.replayed_events as i64)),
            ("journal_events", Json::Int(self.journal_events as i64)),
            ("rotations", Json::Int(self.rotations as i64)),
            ("dir", Json::Str(self.dir.clone())),
        ])
    }
}

/// Clamps an observability value (nanoseconds or a count) into the
/// JSON integer range.
fn obs_int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Serializes one histogram snapshot: count, sum, mean and bucket-
/// ceiling quantile estimates (see `docs/OBSERVABILITY.md` for the
/// bucket layout and estimate semantics).
fn histogram_to_json(h: &polytops_obs::HistogramSnapshot) -> Json {
    object(vec![
        ("count", obs_int(h.count)),
        ("sum_ns", obs_int(h.sum_ns)),
        ("mean_ns", obs_int(h.mean_ns())),
        ("p50_ns", obs_int(h.quantile(0.5))),
        ("p90_ns", obs_int(h.quantile(0.9))),
        ("p99_ns", obs_int(h.quantile(0.99))),
        ("max_ns", obs_int(h.quantile(1.0))),
    ])
}

/// The `stats` op's `obs` object: every named counter and every latency
/// histogram of a recorder, in deterministic (sorted) order.
pub fn obs_to_json(recorder: &polytops_obs::Recorder) -> Json {
    let counters = Json::Object(
        recorder
            .counters()
            .into_iter()
            .map(|(k, v)| (k, obs_int(v)))
            .collect::<BTreeMap<_, _>>(),
    );
    let histograms = Json::Object(
        recorder
            .histograms()
            .into_iter()
            .map(|(k, h)| (k, histogram_to_json(&h)))
            .collect::<BTreeMap<_, _>>(),
    );
    object(vec![
        ("counters", counters),
        ("histograms", histograms),
        ("spans_enabled", Json::Bool(recorder.spans_enabled())),
    ])
}

/// One span as a flat JSON object (the `trace` response's `spans`
/// entries; ids are included so clients can rebuild parentage).
fn span_to_json(s: &polytops_obs::SpanRecord) -> Json {
    object(vec![
        ("id", obs_int(s.id)),
        ("parent", obs_int(s.parent)),
        ("name", Json::Str(s.name.to_string())),
        ("arg", s.arg.map_or(Json::Null, Json::Int)),
        ("start_ns", obs_int(s.start_ns)),
        ("dur_ns", obs_int(s.end_ns - s.start_ns)),
        ("tid", obs_int(s.tid)),
    ])
}

/// Builds the nested `tree` form of a span set: roots (parent absent
/// from the set) at the top, children ordered by start time then id.
fn span_tree_json(spans: &[polytops_obs::SpanRecord]) -> Json {
    fn node(
        s: &polytops_obs::SpanRecord,
        kids: &BTreeMap<u64, Vec<usize>>,
        all: &[polytops_obs::SpanRecord],
    ) -> Json {
        let children: Vec<Json> = kids
            .get(&s.id)
            .map(|ix| ix.iter().map(|&i| node(&all[i], kids, all)).collect())
            .unwrap_or_default();
        object(vec![
            ("name", Json::Str(s.name.to_string())),
            ("arg", s.arg.map_or(Json::Null, Json::Int)),
            ("start_ns", obs_int(s.start_ns)),
            ("dur_ns", obs_int(s.end_ns - s.start_ns)),
            ("tid", obs_int(s.tid)),
            ("children", Json::Array(children)),
        ])
    }
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let mut kids: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        if s.parent != 0 && ids.contains(&s.parent) {
            kids.entry(s.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    Json::Array(
        roots
            .iter()
            .map(|&i| node(&spans[i], &kids, spans))
            .collect(),
    )
}

/// The `trace` response line: the span set of the most recently
/// completed traced request, both flat (`spans`) and nested (`tree`).
/// `None` (no traced request yet, or tracing disabled) answers
/// `"trace": null`.
pub fn trace_response(trace: Option<(u64, Vec<polytops_obs::SpanRecord>)>) -> String {
    let body = match trace {
        None => Json::Null,
        Some((id, spans)) => object(vec![
            ("id", obs_int(id)),
            (
                "spans",
                Json::Array(spans.iter().map(span_to_json).collect()),
            ),
            ("tree", span_tree_json(&spans)),
        ]),
    };
    object(vec![("ok", Json::Bool(true)), ("trace", body)]).compact()
}

/// Rebuilds Chrome trace events from a `trace` response's `trace`
/// object (as produced by [`trace_response`]) — the client-side half of
/// the Chrome export: `polytopsd trace-dump` feeds the result to
/// [`polytops_obs::chrome_trace`].
///
/// # Errors
///
/// Returns a message when the object or any span entry is malformed.
pub fn chrome_events_from_trace(trace: &Json) -> Result<Vec<polytops_obs::ChromeEvent>, String> {
    let obj = trace
        .as_object()
        .ok_or("`trace` is not an object (no traced request yet?)")?;
    let id = obj
        .get("id")
        .and_then(Json::as_int)
        .ok_or("`trace.id` missing")?;
    let spans = obj
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("`trace.spans` missing")?;
    let mut events = Vec::with_capacity(spans.len());
    for span in spans {
        let span = span.as_object().ok_or("span entry is not an object")?;
        let int = |key: &str| -> Result<u64, String> {
            span.get(key)
                .and_then(Json::as_int)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("span `{key}` missing or negative"))
        };
        let name = span
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span `name` missing")?;
        events.push(polytops_obs::ChromeEvent {
            name: name.to_string(),
            tid: int("tid")?,
            trace: u64::try_from(id).unwrap_or(0),
            arg: span.get("arg").and_then(Json::as_int),
            start_ns: int("start_ns")?,
            dur_ns: int("dur_ns")?,
        });
    }
    Ok(events)
}

/// The `stats` response line. The `tuner` and `solver` objects are reads
/// of the daemon's recorder (the pipeline folds into `solver.*` through
/// [`PipelineStats::accumulate_into`]); the same recorder is serialized
/// whole under `obs`. These are diagnostic sums, not part of the
/// bit-identity contract on schedules.
pub fn stats_response(
    registry: RegistryStats,
    batches: usize,
    requests: usize,
    persist: Option<&PersistTotals>,
    recorder: &polytops_obs::Recorder,
) -> String {
    // Read before `obs_to_json`: a first read registers the counter, so
    // it is listed under `obs` too.
    let count = |name: &str| obs_int(recorder.counter(name).get());
    let tuner = object(vec![("requests", count("tuner.requests"))]);
    let solver = object(vec![
        ("dual_pivots", count("solver.dual_pivots")),
        ("phase1_passes", count("solver.phase1_passes")),
        ("fast_path_dims", count("solver.fast_path_dims")),
        ("fast_path_fallbacks", count("solver.fast_path_fallbacks")),
    ]);
    object(vec![
        ("ok", Json::Bool(true)),
        (
            "registry",
            object(vec![
                ("entries", Json::Int(registry.entries as i64)),
                ("capacity", Json::Int(registry.capacity as i64)),
                ("hits", Json::Int(registry.hits as i64)),
                ("text_hits", Json::Int(registry.text_hits as i64)),
                ("misses", Json::Int(registry.misses as i64)),
                ("evictions", Json::Int(registry.evictions as i64)),
            ]),
        ),
        ("tuner", tuner),
        ("solver", solver),
        (
            "persist",
            persist.map_or(Json::Null, PersistTotals::to_json),
        ),
        ("obs", obs_to_json(recorder)),
        ("batches", Json::Int(batches as i64)),
        ("requests", Json::Int(requests as i64)),
    ])
    .compact()
}

/// Runs a request's scenarios through the offline scenario engine — the
/// golden path the daemon must match bit for bit. Used by the `replay`
/// diff mode and the test suite.
pub fn offline_results(req: &ScheduleRequest) -> Json {
    use polytops_core::scenario::ScenarioSet;

    let mut set = ScenarioSet::new();
    let scop = set.add_scop(req.name.clone(), req.scop.clone());
    for spec in &req.scenarios {
        set.add_scenario(scop, spec.name.clone(), spec.config.clone());
    }
    let results = set.run_sequential();
    let deps = set.scops()[scop].deps();
    let reports: Vec<(&str, &ScenarioResult, bool)> = req
        .scenarios
        .iter()
        .zip(&results)
        .map(|(spec, result)| {
            let certified = match result {
                Ok(report) => certify(&deps, report),
                Err(_) => false,
            };
            (spec.name.as_str(), result, certified)
        })
        .collect();
    results_to_json(&reports)
}

/// The independent legality oracle over one report.
pub fn certify(deps: &[polytops_deps::Dependence], report: &ScenarioReport) -> bool {
    polytops_deps::Certifier::new(deps).certifies(&report.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::print_scop;
    use polytops_workloads::stencil_chain;

    fn request_line() -> String {
        object(vec![
            ("op", Json::Str("schedule".into())),
            ("id", Json::Int(7)),
            ("scop", Json::Str(print_scop(&stencil_chain()))),
            (
                "scenarios",
                Json::Array(vec![
                    object(vec![("preset", Json::Str("pluto".into()))]),
                    object(vec![
                        ("name", Json::Str("tuned".into())),
                        (
                            "config",
                            object(vec![(
                                "scheduling_strategy",
                                object(vec![("tile_sizes", Json::Array(vec![Json::Int(32)]))]),
                            )]),
                        ),
                    ]),
                ]),
            ),
        ])
        .compact()
    }

    #[test]
    fn schedule_request_round_trips() {
        let req = match parse_request(&request_line()).unwrap() {
            Request::Schedule(r) => r,
            other => panic!("expected schedule, got {other:?}"),
        };
        assert_eq!(req.id, Json::Int(7));
        assert_eq!(req.name, "stencil_chain");
        assert_eq!(req.scop, stencil_chain());
        assert_eq!(req.scenarios.len(), 2);
        assert_eq!(req.scenarios[0].name, "pluto");
        assert_eq!(req.scenarios[0].config, presets::pluto());
        assert_eq!(req.scenarios[1].name, "tuned");
        assert_eq!(req.scenarios[1].config.post.tile_sizes, vec![32]);
    }

    #[test]
    fn the_wire_parse_keeps_the_scop_text_for_the_registry() {
        let Ok(Request::Schedule(wire)) = parse_wire_request(&request_line()) else {
            panic!("a schedule request");
        };
        assert_eq!(wire.scop, print_scop(&stencil_chain()));
        assert_eq!((wire.id, wire.name), (Json::Int(7), None));
        // A SCoP that does not parse passes the wire parse and fails
        // `parse_request` with `parse_scop`'s message.
        let cut = request_line().replace(
            &Json::Str(print_scop(&stencil_chain())).compact(),
            r#""<polyscop>""#,
        );
        assert!(matches!(parse_wire_request(&cut), Ok(Request::Schedule(_))));
        let want = parse_scop("<polyscop>").unwrap_err().to_string();
        assert_eq!(parse_request(&cut).unwrap_err(), want);
    }

    #[test]
    fn autotune_request_parses_with_machine_overrides() {
        let line = object(vec![
            ("op", Json::Str("autotune".into())),
            ("id", Json::Str("t1".into())),
            ("scop", Json::Str(print_scop(&stencil_chain()))),
            (
                "machine",
                object(vec![
                    ("num_cores", Json::Int(4)),
                    ("cache_bytes", Json::Int(1 << 16)),
                ]),
            ),
            ("max_candidates", Json::Int(5)),
            ("param_estimate", Json::Int(128)),
        ])
        .compact();
        let req = match parse_request(&line).unwrap() {
            Request::Autotune(r) => r,
            other => panic!("expected autotune, got {other:?}"),
        };
        assert_eq!(req.scop, stencil_chain());
        assert_eq!(req.machine.num_cores, 4);
        assert_eq!(req.machine.cache_bytes, 1 << 16);
        // Untouched fields keep the daemon default.
        assert_eq!(
            req.machine.vector_bytes,
            MachineModel::default().vector_bytes
        );
        assert_eq!(req.max_candidates, 5);
        assert_eq!(req.param_estimate, 128);

        let bad = line.replace("num_cores", "frequency_ghz");
        assert!(parse_request(&bad).unwrap_err().contains("frequency_ghz"));
    }

    #[test]
    fn autotune_response_serializes_winner_and_candidates() {
        let scop = stencil_chain();
        let outcome = polytops_core::tune::explore(
            &scop,
            &MachineModel::default(),
            &TuneBudget {
                max_candidates: 3,
                threads: 1,
                param_estimate: 64,
            },
        )
        .unwrap();
        let line = autotune_response(&Json::Str("t2".into()), &outcome);
        let parsed = polytops_core::json::parse(&line).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj["ok"].as_bool(), Some(true));
        let winner = obj["winner"].as_object().unwrap();
        assert_eq!(winner["certified"].as_bool(), Some(true));
        assert_eq!(winner["score"].as_int(), Some(outcome.score));
        let features = winner["features"].as_object().unwrap();
        assert!(features["total_ops"].as_int().is_some());
        assert!(!features["trip_counts"].as_array().unwrap().is_empty());
        assert!(features.contains_key("stream_strides"));
        assert_eq!(obj["candidates"].as_array().unwrap().len(), 3);
        assert_eq!(obj["explored_scenarios"].as_int(), Some(3));
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse_request(r#"{"op":"schedule"}"#)
            .unwrap_err()
            .contains("scop"));
        let no_scenarios = object(vec![
            ("op", Json::Str("schedule".into())),
            ("scop", Json::Str(print_scop(&stencil_chain()))),
            ("scenarios", Json::Array(vec![])),
        ])
        .compact();
        assert!(parse_request(&no_scenarios).unwrap_err().contains("empty"));
        let split = |v: bool| {
            object(vec![
                ("op", Json::Str("schedule".into())),
                ("scop", Json::Str(print_scop(&stencil_chain()))),
                (
                    "scenarios",
                    Json::Array(vec![object(vec![("preset", Json::Str("pluto".into()))])]),
                ),
                ("split_components", Json::Bool(v)),
            ])
            .compact()
        };
        let err = parse_request(&split(true)).unwrap_err();
        assert!(
            err.contains("`split_components` was removed") && err.contains("nofuse"),
            "{err}"
        );
        assert!(parse_request(&split(false)).is_ok());
    }

    #[test]
    fn responses_nest_far_below_the_parser_bound() {
        // Clients, the router and `replay` parse what the daemon writes,
        // so the depth bound must never reject a response. The deepest
        // ones carry tiled, wavefronted, vectorized schedule trees.
        fn depth(v: &Json) -> usize {
            match v {
                Json::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Json::Object(map) => 1 + map.values().map(depth).max().unwrap_or(0),
                _ => 0,
            }
        }
        let mut deepest = 0;
        for (kernel, scop) in polytops_workloads::all_kernels() {
            let scenarios = polytops_workloads::sweep::preset_grid()
                .into_iter()
                .map(|(preset, mut config)| {
                    config.post.tile_sizes = vec![16, 16, 16];
                    config.post.wavefront = true;
                    config.post.intra_tile_vectorize = true;
                    config.auto_vectorize = true;
                    ScenarioSpec {
                        name: preset.to_string(),
                        config,
                    }
                })
                .collect();
            let req = ScheduleRequest {
                id: Json::Null,
                name: kernel.to_string(),
                scop,
                scenarios,
                trace: None,
            };
            let line = schedule_response(
                &req.id,
                offline_results(&req),
                Json::Array(vec![]),
                false,
                0,
            );
            let parsed = polytops_core::json::parse(&line).expect("response parses");
            deepest = deepest.max(depth(&parsed));
        }
        assert!(
            deepest < polytops_core::json::MAX_DEPTH / 4,
            "a response nests {deepest} levels"
        );
    }

    #[test]
    fn offline_results_are_certified_and_deterministic() {
        let req = match parse_request(&request_line()).unwrap() {
            Request::Schedule(r) => r,
            other => panic!("expected schedule, got {other:?}"),
        };
        let a = offline_results(&req).compact();
        let b = offline_results(&req).compact();
        assert_eq!(a, b, "offline serialization must be deterministic");
        let parsed = polytops_core::json::parse(&a).unwrap();
        for entry in parsed.as_array().unwrap() {
            let obj = entry.as_object().unwrap();
            assert_eq!(obj["ok"].as_bool(), Some(true));
            assert_eq!(obj["certified"].as_bool(), Some(true));
        }
    }

    #[test]
    fn every_schedule_result_carries_its_tree() {
        // One untiled and one tiled scenario: both trees are objects.
        let req = match parse_request(&request_line()).unwrap() {
            Request::Schedule(r) => r,
            other => panic!("expected schedule, got {other:?}"),
        };
        let line = schedule_response(
            &req.id,
            offline_results(&req),
            Json::Array(vec![]),
            false,
            0,
        );
        let parsed = polytops_core::json::parse(&line).unwrap();
        let results = parsed.as_object().unwrap()["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        for result in results {
            let schedule = result.as_object().unwrap()["schedule"].as_object().unwrap();
            assert!(schedule["tree"].as_object().is_some(), "{result:?}");
        }
    }
}
