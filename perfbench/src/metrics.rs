//! The metrics the benchmark declares in `BENCHMARK.json`, and the one
//! JSON line a run ends with.

use std::collections::BTreeMap;

use polytops_core::json::Json;

/// `(name, unit, better)` of one declared metric.
pub type Decl = (&'static str, &'static str, &'static str);

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["sweep_ilp", "sweep_post", "serve_warm", "serve_churn"];

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [Decl; 7] = [
    ("setup_s", "s", "lower"),
    ("schedules_per_s", "1/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p95_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("model_cycles_geomean", "cycles", "lower"),
];

/// What single layers did during the traced run. A layer a workload
/// does not reach is marked so ([`Metrics::unreached`]) and reads 0.
pub const PER_LAYER: [Decl; 67] = [
    ("ir.parse_ms", "ms", "lower"),
    ("ir.tree_lower_ms", "ms", "lower"),
    ("ir.scop_text_bytes", "bytes", "lower"),
    ("deps.analyze_ms", "ms", "lower"),
    ("deps.dependences", "count", "lower"),
    ("deps.certify_ms", "ms", "lower"),
    ("deps.certify_queries", "count", "lower"),
    ("math.ilp_solve_ms", "ms", "lower"),
    ("math.lp_stages", "count", "lower"),
    ("math.bb_nodes", "count", "lower"),
    ("math.dual_pivots", "count", "lower"),
    ("math.phase1_passes", "count", "lower"),
    ("math.fractional_stages", "count", "lower"),
    ("math.pin_eq_ms", "ms", "lower"),
    ("math.farkas_eliminate_ms", "ms", "lower"),
    ("core.engine_ms", "ms", "lower"),
    ("core.pipeline_ms", "ms", "lower"),
    ("core.legality_ms", "ms", "lower"),
    ("core.objectives_ms", "ms", "lower"),
    ("core.fast_path_ms", "ms", "lower"),
    ("core.postprocess_ms", "ms", "lower"),
    ("core.dimensions", "count", "lower"),
    ("core.farkas_hits", "count", "higher"),
    ("core.farkas_misses", "count", "lower"),
    ("core.farkas_hit_ratio", "ratio", "higher"),
    ("core.fast_path_dims", "count", "higher"),
    ("core.fast_path_fallbacks", "count", "lower"),
    ("core.pool_wall_ms", "ms", "lower"),
    ("core.pool_busy_ratio", "ratio", "higher"),
    ("core.pool_queue_wait_ms", "ms", "lower"),
    ("core.canonicalize_ms", "ms", "lower"),
    ("core.registry_resolve_hit_ms", "ms", "lower"),
    ("core.registry_resolve_miss_ms", "ms", "lower"),
    ("core.registry_hits", "count", "higher"),
    ("core.registry_misses", "count", "lower"),
    ("core.registry_evictions", "count", "lower"),
    ("codegen.emit_c_ms", "ms", "lower"),
    ("codegen.generate_ms", "ms", "lower"),
    ("codegen.loops", "count", "lower"),
    ("codegen.guards", "count", "lower"),
    ("codegen.code_bytes", "bytes", "lower"),
    ("machine.score_ms", "ms", "lower"),
    ("server.parse_request_ms", "ms", "lower"),
    ("server.read_ms", "ms", "lower"),
    ("server.admission_ms", "ms", "lower"),
    ("server.solve_ms", "ms", "lower"),
    ("server.serialize_ms", "ms", "lower"),
    ("server.write_ms", "ms", "lower"),
    ("server.request_self_ms", "ms", "lower"),
    ("server.request_ms", "ms", "lower"),
    ("server.request_p99_ms", "ms", "lower"),
    ("server.batches", "count", "lower"),
    ("server.batch_size_mean", "ratio", "higher"),
    ("server.request_bytes", "bytes", "lower"),
    ("server.response_bytes", "bytes", "lower"),
    ("server.journal_events", "count", "lower"),
    ("server.rotations", "count", "lower"),
    ("server.persist_append_ms", "ms", "lower"),
    ("server.persist_fsync_ms", "ms", "lower"),
    ("obs.box_spin_ms", "ms", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.traced_wall_ms", "ms", "lower"),
    ("obs.untraced_wall_ms", "ms", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.coverage_ratio", "ratio", "higher"),
    ("obs.layer_self_ms", "ms", "lower"),
    ("obs.traced_ops", "count", "higher"),
];

/// Metric values by declared name. Every declared metric must be given
/// a value before the result line is written: one the runner forgot
/// panics there instead of reading 0.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Option<f64>>,
}

impl Metrics {
    /// Every metric of `decls`, not yet measured.
    pub fn new(decls: &[Decl]) -> Metrics {
        Metrics {
            values: decls.iter().map(|&(name, _, _)| (name, None)).collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the table this was built from does not hold —
    /// a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = Some(value);
    }

    /// Adds to a declared metric, starting from 0.
    pub fn add(&mut self, name: &str, value: f64) {
        let slot = self.slot(name);
        *slot = Some(slot.unwrap_or(0.0) + value);
    }

    /// Marks layers this workload does not reach: they read 0.
    pub fn unreached(&mut self, names: &[&str]) {
        for name in names {
            let slot = self.slot(name);
            assert!(slot.is_none(), "`{name}` was measured and marked unreached");
            *slot = Some(0.0);
        }
    }

    /// The value of a declared metric.
    ///
    /// # Panics
    ///
    /// Panics when the metric is not declared or was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("metric `{name}` is not declared or not set"))
    }

    fn slot(&mut self, name: &str) -> &mut Option<f64> {
        self.values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
    }

    /// Name, value pairs in name order.
    ///
    /// # Panics
    ///
    /// Panics on a declared metric that was never set.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| {
            let v = v.unwrap_or_else(|| panic!("metric `{k}` was never set"));
            (*k, v)
        })
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (see the README for what fails an op).
    pub failed: u64,
    /// Whether the workload still is what it claims to be (for example,
    /// that `serve_warm` saw only registry hits), beyond `failed == 0`.
    pub valid: bool,
    /// The metrics of this run's mode.
    pub metrics: Metrics,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.0 == name)
        .map_or("", |d| d.1)
}

impl Outcome {
    /// Share of the attempted operations that did not fail: the
    /// `ok_share` metric, 1 on every healthy run.
    pub fn ok_share(attempted: u64, failed: u64) -> f64 {
        attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value at full precision and unit.
    pub fn to_line(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::Str(unit_of(name).to_string())),
                ]);
                (name.to_string(), Json::Object(entry))
            })
            .collect();
        Json::Object(BTreeMap::from([
            (
                "correct".to_string(),
                Json::Bool(self.valid && self.failed == 0),
            ),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Object(metrics)),
        ]))
        .compact()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1.0).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the runner emits. They must name the same things.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = polytops_core::json::parse(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_object().expect("object");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric object");
                    let field = |k: &str| m[k].as_str().expect("string field").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let owned = |decls: &[Decl]| -> Vec<(String, String, String)> {
            decls
                .iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("array")
            .iter()
            .map(|w| {
                w.as_object().expect("object")["name"]
                    .as_str()
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc["end_to_end"].as_array().expect("array") {
            let bound = m.as_object().expect("object")["bound"]
                .as_f64()
                .expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new(&END_TO_END[..1]);
        metrics.set("setup_s", 0.8127);
        let line = Outcome {
            attempted: 10,
            failed: 0,
            valid: true,
            metrics,
        }
        .to_line();
        assert!(!line.contains('\n'));
        let doc = polytops_core::json::parse(&line).expect("parses");
        let doc = doc.as_object().expect("object");
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(true));
        let setup = doc["metrics"].as_object().expect("metrics")["setup_s"]
            .as_object()
            .expect("entry");
        assert_eq!(setup["value"].as_f64(), Some(0.8127));
        assert_eq!(setup["unit"].as_str(), Some("s"));
    }

    #[test]
    #[should_panic(expected = "`schedules_per_s` was never set")]
    fn a_forgotten_metric_does_not_read_zero() {
        let mut metrics = Metrics::new(&END_TO_END[..2]);
        metrics.set("setup_s", 1.0);
        let _ = metrics.iter().count();
    }

    #[test]
    fn geomean_is_the_nth_root_of_the_product() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
