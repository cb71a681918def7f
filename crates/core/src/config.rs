//! Scheduler configuration: the compiled form and the JSON interface of
//! the paper's Listing 2.
//!
//! Two interfaces exist, mirroring the paper:
//!
//! * **JSON** ([`SchedulerConfig::from_json`]) — static, per-dimension
//!   strategies (cost functions, custom constraints, fusion control,
//!   directives);
//! * **programmatic** (the [`Strategy`](crate::Strategy) trait) — dynamic
//!   strategies that inspect the partial schedule, the Rust analogue of
//!   the paper's C++ interface (Listing 3).

use crate::error::ScheduleError;
use crate::json::{self, Json};

/// A predefined or user-defined cost function (paper §III-A1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostFn {
    /// Pluto's dependence-distance bound `u·N + w` (temporal locality +
    /// outer parallelism).
    Proximity,
    /// Feautrier's satisfied-dependency maximization (inner parallelism).
    Feautrier,
    /// Tensor-scheduler-style spatial locality (stride-based interchange).
    Contiguity,
    /// Schedule the largest loops outermost (paper's BLF).
    BigLoopsFirst,
    /// A user variable declared in `new_variables`, minimized as-is.
    UserVar(String),
}

impl CostFn {
    fn parse(name: &str, user_vars: &[String]) -> Result<CostFn, ScheduleError> {
        match name {
            "proximity" => Ok(CostFn::Proximity),
            "feautrier" => Ok(CostFn::Feautrier),
            "contiguity" => Ok(CostFn::Contiguity),
            "bigLoopsFirst" | "big_loops_first" | "blf" => Ok(CostFn::BigLoopsFirst),
            other if user_vars.iter().any(|v| v == other) => Ok(CostFn::UserVar(other.to_string())),
            other => Err(ScheduleError::Config {
                detail: format!("unknown cost function `{other}`"),
            }),
        }
    }
}

/// Directive kind (paper §III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveKind {
    /// Prefer this loop outermost and parallel.
    Parallelize,
    /// Schedule this loop innermost, unfused, for vectorization.
    Vectorize,
    /// Keep this loop sequential (never mark parallel).
    Sequential,
}

/// A scheduling directive: a suggestion the scheduler satisfies unless it
/// would break legality (then it is discarded, per the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// What to do.
    pub kind: DirectiveKind,
    /// Target statements (`None` = all statements).
    pub stmts: Option<Vec<usize>>,
    /// Target iterator index (original loop nesting, outermost = 0).
    pub iterator: usize,
}

/// Explicit fusion/distribution control for one scheduling dimension
/// (paper §III-A3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionControl {
    /// Scheduling dimension where the distribution is forced.
    pub dimension: usize,
    /// Distribute every statement (groups ignored).
    pub total_distribution: bool,
    /// Ordered fusion groups: statements in one group stay fused, groups
    /// are distributed in the given order.
    pub groups: Vec<Vec<usize>>,
}

/// Automatic fusion heuristic used between SCCs when distribution is
/// forced by the algorithm (not by the user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionHeuristic {
    /// Cut between SCCs of different loop dimensionality (Pluto's
    /// `smartfuse`, the paper's default).
    #[default]
    SmartFuse,
    /// Never cut unless forced (isl-style maximal fusion).
    MaxFuse,
    /// Cut between all SCCs.
    NoFuse,
}

/// Per-dimension override map: a default value plus exceptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimMap<T> {
    default: T,
    overrides: Vec<(usize, T)>,
}

impl<T> DimMap<T> {
    /// Creates a map with only a default.
    pub fn uniform(default: T) -> DimMap<T> {
        DimMap {
            default,
            overrides: Vec::new(),
        }
    }

    /// Sets the value for a specific dimension.
    pub fn set(&mut self, dim: usize, value: T) {
        if let Some(e) = self.overrides.iter_mut().find(|(d, _)| *d == dim) {
            e.1 = value;
        } else {
            self.overrides.push((dim, value));
        }
    }

    /// Replaces the default.
    pub fn set_default(&mut self, value: T) {
        self.default = value;
    }

    /// Looks up the value for `dim`.
    pub fn get(&self, dim: usize) -> &T {
        self.overrides
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, v)| v)
            .unwrap_or(&self.default)
    }
}

/// Post-processing options (paper Fig. 1's post-processing block).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostProcess {
    /// Tile sizes per band depth; empty disables tiling. The paper is
    /// explicit that tile-size *decisions* are external to the scheduler.
    pub tile_sizes: Vec<i64>,
    /// Skew tile loops into a wavefront when the outer band dimension is
    /// not parallel but an inner one is (Pluto §5.3).
    pub wavefront: bool,
    /// Reorder intra-tile loops to move a vectorizable loop innermost.
    pub intra_tile_vectorize: bool,
}

/// Complete scheduler configuration (compiled form).
///
/// Build one by hand, from a preset ([`crate::presets`]) or from JSON
/// ([`SchedulerConfig::from_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// User-declared ILP variables (usable in constraints and costs).
    pub new_variables: Vec<String>,
    /// Cost functions per scheduling dimension, in lexicographic priority
    /// order (leftmost minimized first).
    pub cost_functions: DimMap<Vec<CostFn>>,
    /// Custom constraint strings per dimension (parsed against the ILP
    /// space of each dimension; see [`crate::constraints`] for syntax).
    pub custom_constraints: DimMap<Vec<String>>,
    /// Explicit fusion/distribution controls.
    pub fusion: Vec<FusionControl>,
    /// Directives.
    pub directives: Vec<Directive>,
    /// Enable the auto-vectorization heuristic (paper §III-B2). A
    /// post-processing control like those in [`post`](Self::post): it
    /// marks loops of the solved schedule and never shapes an ILP.
    pub auto_vectorize: bool,
    /// Fusion heuristic for algorithm-driven SCC cuts.
    pub fusion_heuristic: FusionHeuristic,
    /// Allow negative schedule coefficients (Pluto+).
    pub negative_coefficients: bool,
    /// Allow parameter coefficients in schedules (parametric shifting,
    /// Pluto+).
    pub parametric_shift: bool,
    /// Use the isl strategy: recompute a dimension with Feautrier's cost
    /// when the proximity solution is not parallel.
    pub isl_fallback: bool,
    /// Try the heuristic fast path before each dimension's ILP solve: a
    /// fusion + dimension-matching pass proposes per-statement
    /// permutation/shift rows from the dependence structure, validates
    /// them with the exact legality check, and falls back to the full
    /// ILP cascade for the dimension when validation fails. Ignores
    /// cost functions (a legal permutation wins over an optimal one),
    /// so large SCoPs schedule in time linear in the dependence count.
    pub heuristic_fast_path: bool,
    /// Box bound on iterator coefficients.
    pub coefficient_bound: i64,
    /// Box bound on schedule constants.
    pub constant_bound: i64,
    /// Box bound on the proximity `u`/`w` variables.
    pub bound_bound: i64,
    /// Parameter value estimate for extent-based heuristics (BLF).
    pub parameter_estimate: i64,
    /// Post-processing controls.
    pub post: PostProcess,
}

impl Default for SchedulerConfig {
    /// The pluto-style default: proximity cost, smartfuse, positive
    /// coefficients.
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            new_variables: Vec::new(),
            cost_functions: DimMap::uniform(vec![CostFn::Proximity]),
            custom_constraints: DimMap::uniform(Vec::new()),
            fusion: Vec::new(),
            directives: Vec::new(),
            auto_vectorize: false,
            fusion_heuristic: FusionHeuristic::SmartFuse,
            negative_coefficients: false,
            parametric_shift: false,
            isl_fallback: false,
            heuristic_fast_path: false,
            coefficient_bound: 4,
            constant_bound: 16,
            bound_bound: 32,
            parameter_estimate: 64,
            post: PostProcess::default(),
        }
    }
}

// ---------------------------------------------------------------------
// JSON interface (paper Listing 2), deserialized by hand from the
// in-tree parser (crate::json) — the build environment has no registry
// access for serde.
// ---------------------------------------------------------------------

/// `scheduling_dimension`: a concrete index or a name (only `"default"`
/// is meaningful).
enum JsonDim {
    Index(usize),
    Name(String),
}

fn cfg_err(detail: impl Into<String>) -> ScheduleError {
    ScheduleError::Config {
        detail: detail.into(),
    }
}

fn want_str(v: &Json, what: &str) -> Result<String, ScheduleError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| cfg_err(format!("`{what}` must be a string")))
}

fn want_bool(v: &Json, what: &str) -> Result<bool, ScheduleError> {
    v.as_bool()
        .ok_or_else(|| cfg_err(format!("`{what}` must be a boolean")))
}

fn want_int(v: &Json, what: &str) -> Result<i64, ScheduleError> {
    v.as_int()
        .ok_or_else(|| cfg_err(format!("`{what}` must be an integer")))
}

fn want_usize(v: &Json, what: &str) -> Result<usize, ScheduleError> {
    usize::try_from(want_int(v, what)?)
        .map_err(|_| cfg_err(format!("`{what}` must be non-negative")))
}

fn want_array<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], ScheduleError> {
    v.as_array()
        .ok_or_else(|| cfg_err(format!("`{what}` must be an array")))
}

fn str_list(v: &Json, what: &str) -> Result<Vec<String>, ScheduleError> {
    want_array(v, what)?
        .iter()
        .map(|e| want_str(e, what))
        .collect()
}

fn int_list(v: &Json, what: &str) -> Result<Vec<i64>, ScheduleError> {
    want_array(v, what)?
        .iter()
        .map(|e| want_int(e, what))
        .collect()
}

fn want_dim(v: &Json) -> Result<JsonDim, ScheduleError> {
    match v {
        Json::Int(_) => Ok(JsonDim::Index(want_usize(v, "scheduling_dimension")?)),
        Json::Str(s) => Ok(JsonDim::Name(s.clone())),
        _ => Err(cfg_err("`scheduling_dimension` must be an index or a name")),
    }
}

fn parse_stmt_id(s: &str, context: &str) -> Result<usize, ScheduleError> {
    s.trim()
        .parse::<usize>()
        .map_err(|_| cfg_err(format!("bad statement id `{s}` in {context}")))
}

impl SchedulerConfig {
    /// This configuration with its post-processing cleared: the part
    /// that shapes the ILPs. Configurations with equal solve keys solve
    /// to the same schedule before post-processing, so the scenario
    /// engine solves them once.
    pub(crate) fn solve_key(&self) -> SchedulerConfig {
        SchedulerConfig {
            post: PostProcess::default(),
            auto_vectorize: false,
            ..self.clone()
        }
    }

    /// The [`solve_key`](Self::solve_key) with the fields only the
    /// strategy reads reset as well: what the engine reads when it
    /// assembles and solves one dimension's ILP. Cost functions and
    /// custom constraints reach an ILP through the dimension's plan,
    /// and fusion controls and the isl fallback only choose which plans
    /// are asked, so two configurations with equal ILP keys answer an
    /// equal plan over equal committed rows with the same dimension.
    pub(crate) fn ilp_key(&self) -> SchedulerConfig {
        let default = SchedulerConfig::default();
        SchedulerConfig {
            cost_functions: default.cost_functions,
            custom_constraints: default.custom_constraints,
            fusion: default.fusion,
            isl_fallback: default.isl_fallback,
            ..self.solve_key()
        }
    }

    /// Parses the paper's JSON configuration format (Listing 2), plus the
    /// documented extension keys.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Config`] on malformed JSON, unknown cost
    /// functions, or unparsable numbers.
    ///
    /// # Examples
    ///
    /// ```
    /// use polytops_core::SchedulerConfig;
    ///
    /// let cfg = SchedulerConfig::from_json(r#"{
    ///   "scheduling_strategy": {
    ///     "ILP_construction": [
    ///       { "scheduling_dimension": "default",
    ///         "cost_functions": ["contiguity", "proximity"],
    ///         "constraints": ["no-skewing"] }
    ///     ]
    ///   }
    /// }"#).unwrap();
    /// assert!(!cfg.auto_vectorize);
    /// ```
    pub fn from_json(text: &str) -> Result<SchedulerConfig, ScheduleError> {
        let root = json::parse(text).map_err(cfg_err)?;
        let root = root
            .as_object()
            .ok_or_else(|| cfg_err("top level must be an object"))?;
        let js = root
            .get("scheduling_strategy")
            .ok_or_else(|| cfg_err("missing `scheduling_strategy`"))?
            .as_object()
            .ok_or_else(|| cfg_err("`scheduling_strategy` must be an object"))?;
        // The serde original used `deny_unknown_fields`; keep that.
        const KNOWN_KEYS: &[&str] = &[
            "new_variables",
            "ILP_construction",
            "custom_constraints",
            "fusion",
            "directives",
            "auto_vectorize",
            "fusion_heuristic",
            "negative_coefficients",
            "parametric_shift",
            "isl_fallback",
            "heuristic_fast_path",
            "coefficient_bound",
            "parameter_estimate",
            "tile_sizes",
            "wavefront",
            "intra_tile_vectorize",
        ];
        if let Some(unknown) = js.keys().find(|k| !KNOWN_KEYS.contains(&k.as_str())) {
            return Err(cfg_err(format!(
                "unknown field `{unknown}` in scheduling_strategy"
            )));
        }
        let new_variables = match js.get("new_variables") {
            Some(v) => str_list(v, "new_variables")?,
            None => Vec::new(),
        };
        let mut cfg = SchedulerConfig {
            new_variables: new_variables.clone(),
            ..SchedulerConfig::default()
        };
        let empty: &[Json] = &[];
        let entries = match js.get("ILP_construction") {
            Some(v) => want_array(v, "ILP_construction")?,
            None => empty,
        };
        for entry in entries {
            let obj = entry
                .as_object()
                .ok_or_else(|| cfg_err("ILP_construction entries must be objects"))?;
            let dim = want_dim(obj.get("scheduling_dimension").ok_or_else(|| {
                cfg_err("ILP_construction entry missing `scheduling_dimension`")
            })?)?;
            let names = match obj.get("cost_functions") {
                Some(v) => str_list(v, "cost_functions")?,
                None => Vec::new(),
            };
            let mut costs = Vec::with_capacity(names.len());
            for n in &names {
                costs.push(CostFn::parse(n, &new_variables)?);
            }
            // Listing 5 (right) also allows constraints in ILP entries.
            let constraints = match obj.get("constraints") {
                Some(v) => str_list(v, "constraints")?,
                None => Vec::new(),
            };
            match dim {
                JsonDim::Name(n) if n == "default" => {
                    cfg.cost_functions.set_default(costs);
                    if !constraints.is_empty() {
                        let mut cur = cfg.custom_constraints.get(usize::MAX).clone();
                        cur.extend(constraints);
                        cfg.custom_constraints.set_default(cur);
                    }
                }
                JsonDim::Index(d) => {
                    cfg.cost_functions.set(d, costs);
                    if !constraints.is_empty() {
                        cfg.custom_constraints.set(d, constraints);
                    }
                }
                JsonDim::Name(other) => {
                    return Err(cfg_err(format!("bad scheduling_dimension `{other}`")))
                }
            }
        }
        let entries = match js.get("custom_constraints") {
            Some(v) => want_array(v, "custom_constraints")?,
            None => empty,
        };
        for entry in entries {
            let obj = entry
                .as_object()
                .ok_or_else(|| cfg_err("custom_constraints entries must be objects"))?;
            let dim = want_dim(obj.get("scheduling_dimension").ok_or_else(|| {
                cfg_err("custom_constraints entry missing `scheduling_dimension`")
            })?)?;
            let constraints = str_list(
                obj.get("constraints")
                    .ok_or_else(|| cfg_err("custom_constraints entry missing `constraints`"))?,
                "constraints",
            )?;
            match dim {
                JsonDim::Name(n) if n == "default" => {
                    let mut cur = cfg.custom_constraints.get(usize::MAX).clone();
                    cur.extend(constraints);
                    cfg.custom_constraints.set_default(cur);
                }
                JsonDim::Index(d) => {
                    cfg.custom_constraints.set(d, constraints);
                }
                JsonDim::Name(other) => {
                    return Err(cfg_err(format!("bad scheduling_dimension `{other}`")))
                }
            }
        }
        let entries = match js.get("fusion") {
            Some(v) => want_array(v, "fusion")?,
            None => empty,
        };
        for entry in entries {
            let obj = entry
                .as_object()
                .ok_or_else(|| cfg_err("fusion entries must be objects"))?;
            let dimension = want_usize(
                obj.get("scheduling_dimension")
                    .ok_or_else(|| cfg_err("fusion entry missing `scheduling_dimension`"))?,
                "scheduling_dimension",
            )?;
            let total_distribution = match obj.get("total_distribution") {
                Some(v) => want_bool(v, "total_distribution")?,
                None => false,
            };
            let mut groups = Vec::new();
            if let Some(v) = obj.get("stmts_fusion") {
                for g in want_array(v, "stmts_fusion")? {
                    let names = str_list(g, "stmts_fusion")?;
                    let mut ids = Vec::with_capacity(names.len());
                    for s in &names {
                        ids.push(parse_stmt_id(s, "fusion")?);
                    }
                    groups.push(ids);
                }
            }
            cfg.fusion.push(FusionControl {
                dimension,
                total_distribution,
                groups,
            });
        }
        let entries = match js.get("directives") {
            Some(v) => want_array(v, "directives")?,
            None => empty,
        };
        for entry in entries {
            let obj = entry
                .as_object()
                .ok_or_else(|| cfg_err("directive entries must be objects"))?;
            let kind_name = want_str(
                obj.get("type")
                    .ok_or_else(|| cfg_err("directive missing `type`"))?,
                "type",
            )?;
            let kind = match kind_name.as_str() {
                "vectorize" => DirectiveKind::Vectorize,
                "parallelize" | "parallel" => DirectiveKind::Parallelize,
                "sequential" => DirectiveKind::Sequential,
                other => return Err(cfg_err(format!("unknown directive type `{other}`"))),
            };
            let stmts = match obj.get("stmts") {
                None => None,
                Some(v) => match want_str(v, "stmts")?.as_str() {
                    "all" => None,
                    list => {
                        let mut ids = Vec::new();
                        for s in list.split(',') {
                            ids.push(parse_stmt_id(s, "directive")?);
                        }
                        Some(ids)
                    }
                },
            };
            let iter_text = want_str(
                obj.get("iterator")
                    .ok_or_else(|| cfg_err("directive missing `iterator`"))?,
                "iterator",
            )?;
            let iterator = iter_text
                .trim()
                .parse::<usize>()
                .map_err(|_| cfg_err(format!("bad iterator `{iter_text}` in directive")))?;
            cfg.directives.push(Directive {
                kind,
                stmts,
                iterator,
            });
        }
        if let Some(v) = js.get("auto_vectorize") {
            cfg.auto_vectorize = want_bool(v, "auto_vectorize")?;
        }
        if let Some(v) = js.get("fusion_heuristic") {
            cfg.fusion_heuristic = match want_str(v, "fusion_heuristic")?.as_str() {
                "smartfuse" => FusionHeuristic::SmartFuse,
                "maxfuse" => FusionHeuristic::MaxFuse,
                "nofuse" => FusionHeuristic::NoFuse,
                other => return Err(cfg_err(format!("unknown fusion heuristic `{other}`"))),
            };
        }
        if let Some(v) = js.get("negative_coefficients") {
            cfg.negative_coefficients = want_bool(v, "negative_coefficients")?;
        }
        if let Some(v) = js.get("parametric_shift") {
            cfg.parametric_shift = want_bool(v, "parametric_shift")?;
        }
        if let Some(v) = js.get("isl_fallback") {
            cfg.isl_fallback = want_bool(v, "isl_fallback")?;
        }
        if let Some(v) = js.get("heuristic_fast_path") {
            cfg.heuristic_fast_path = want_bool(v, "heuristic_fast_path")?;
        }
        if let Some(v) = js.get("coefficient_bound") {
            cfg.coefficient_bound = want_int(v, "coefficient_bound")?;
        }
        if let Some(v) = js.get("parameter_estimate") {
            cfg.parameter_estimate = want_int(v, "parameter_estimate")?;
        }
        if let Some(v) = js.get("tile_sizes") {
            cfg.post.tile_sizes = int_list(v, "tile_sizes")?;
        }
        if let Some(v) = js.get("wavefront") {
            cfg.post.wavefront = want_bool(v, "wavefront")?;
        }
        if let Some(v) = js.get("intra_tile_vectorize") {
            cfg.post.intra_tile_vectorize = want_bool(v, "intra_tile_vectorize")?;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing2_parses() {
        let cfg = SchedulerConfig::from_json(
            r#"{
          "scheduling_strategy": {
            "new_variables": ["x"],
            "ILP_construction": [
              { "scheduling_dimension": "default",
                "cost_functions": ["contiguity", "proximity", "x"] }
            ],
            "custom_constraints": [
              { "scheduling_dimension": "default",
                "constraints": ["x - Si_it_i >= 0"] }
            ],
            "fusion": [
              { "scheduling_dimension": 0,
                "total_distribution": false,
                "stmts_fusion": [["0", "1"], ["2"]] }
            ],
            "directives": [
              { "type": "vectorize", "stmts": "0", "iterator": "1" }
            ]
          }
        }"#,
        )
        .unwrap();
        assert_eq!(cfg.new_variables, vec!["x"]);
        assert_eq!(
            cfg.cost_functions.get(3),
            &vec![
                CostFn::Contiguity,
                CostFn::Proximity,
                CostFn::UserVar("x".into())
            ]
        );
        assert_eq!(
            cfg.custom_constraints.get(1),
            &vec!["x - Si_it_i >= 0".to_string()]
        );
        assert_eq!(cfg.fusion.len(), 1);
        assert_eq!(cfg.fusion[0].groups, vec![vec![0, 1], vec![2]]);
        assert_eq!(cfg.directives.len(), 1);
        assert_eq!(cfg.directives[0].kind, DirectiveKind::Vectorize);
        assert_eq!(cfg.directives[0].stmts, Some(vec![0]));
        assert_eq!(cfg.directives[0].iterator, 1);
    }

    #[test]
    fn per_dimension_overrides() {
        let cfg = SchedulerConfig::from_json(
            r#"{
          "scheduling_strategy": {
            "ILP_construction": [
              { "scheduling_dimension": "default", "cost_functions": ["proximity"] },
              { "scheduling_dimension": 0, "cost_functions": ["feautrier"] }
            ]
          }
        }"#,
        )
        .unwrap();
        assert_eq!(cfg.cost_functions.get(0), &vec![CostFn::Feautrier]);
        assert_eq!(cfg.cost_functions.get(1), &vec![CostFn::Proximity]);
    }

    #[test]
    fn unknown_cost_function_rejected() {
        let err = SchedulerConfig::from_json(
            r#"{"scheduling_strategy": {"ILP_construction": [
                {"scheduling_dimension": "default", "cost_functions": ["zzz"]}]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("zzz"));
    }

    #[test]
    fn unknown_directive_rejected() {
        let err = SchedulerConfig::from_json(
            r#"{"scheduling_strategy": {"directives": [
                {"type": "frobnicate", "stmts": "0", "iterator": "0"}]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn extensions_parse() {
        let cfg = SchedulerConfig::from_json(
            r#"{"scheduling_strategy": {
                "auto_vectorize": true,
                "fusion_heuristic": "maxfuse",
                "negative_coefficients": true,
                "heuristic_fast_path": true,
                "tile_sizes": [32, 32],
                "wavefront": true }}"#,
        )
        .unwrap();
        assert!(cfg.auto_vectorize);
        assert_eq!(cfg.fusion_heuristic, FusionHeuristic::MaxFuse);
        assert!(cfg.negative_coefficients);
        assert!(cfg.heuristic_fast_path);
        assert_eq!(cfg.post.tile_sizes, vec![32, 32]);
        assert!(cfg.post.wavefront);
    }

    #[test]
    fn dimmap_lookup() {
        let mut m = DimMap::uniform(1);
        m.set(2, 42);
        assert_eq!(*m.get(0), 1);
        assert_eq!(*m.get(2), 42);
        m.set(2, 43);
        assert_eq!(*m.get(2), 43);
    }
}
