//! Shared handling of the committed benchmark report
//! (`BENCH_schedule.json`).
//!
//! Several benches contribute to one report file: `solver` owns the
//! `"solver"` section (dual-simplex counters, heuristic fast path),
//! `scenarios` owns the `"scenarios"` section (sequential loop vs
//! sharded scenario engine). Each bench parses the existing file with
//! the in-tree JSON parser ([`polytops_core::json`]), replaces only its
//! own section and writes the result back, so running one bench never
//! discards the other's numbers. See `docs/ARCHITECTURE.md` for the
//! meaning of every field.

use std::collections::BTreeMap;

use polytops_core::json::{self, Json};

/// The report path: `$BENCH_OUT` if set, else `BENCH_schedule.json` at
/// the workspace root (cargo runs benches with the package directory as
/// CWD, so the default is anchored to this crate's manifest).
pub fn default_path() -> String {
    std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_schedule.json").to_string()
    })
}

/// Replaces `section` of the report at `path` with `value`, keeping
/// every other section intact (an unreadable or unparsable existing
/// file is treated as empty). Always (re)stamps `"bench": "schedule"`.
///
/// # Panics
///
/// Panics when the file cannot be written — a benchmark without its
/// report is a failed run.
pub fn update_section(path: &str, section: &str, value: Json) {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| match v {
            Json::Object(map) => Some(map),
            _ => None,
        })
        .unwrap_or_default();
    root.insert("bench".to_string(), Json::Str("schedule".to_string()));
    root.insert(section.to_string(), value);
    let mut out = Json::Object(root).to_string();
    out.push('\n');
    std::fs::write(path, out).expect("write bench report");
}

/// Builds a JSON object from key/value pairs (keys sort on output).
pub fn object<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// An integer field.
///
/// # Panics
///
/// Panics if the value exceeds `i64` (no benchmark counter does).
pub fn int(v: impl TryInto<i64>) -> Json {
    Json::Int(v.try_into().ok().expect("counter fits i64"))
}

/// A fractional field (ratios, speedups), rounded to 3 decimals.
pub fn ratio(v: f64) -> Json {
    Json::Float((v * 1000.0).round() / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_without_clobbering() {
        let dir = std::env::temp_dir().join("polytops_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_schedule.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        update_section(path, "solver", object([("speedup", ratio(1.25))]));
        update_section(path, "scenarios", object([("threads", int(4_i64))]));
        let root = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let obj = root.as_object().unwrap();
        assert_eq!(obj["bench"].as_str(), Some("schedule"));
        assert_eq!(
            obj["solver"].as_object().unwrap()["speedup"].as_f64(),
            Some(1.25)
        );
        assert_eq!(
            obj["scenarios"].as_object().unwrap()["threads"].as_int(),
            Some(4)
        );
        let _ = std::fs::remove_file(path);
    }
}
