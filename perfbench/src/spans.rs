//! Span arithmetic for the traced run: one span shape for the bench's
//! own recorder and for the daemon's `trace` op, self times, and the
//! Chrome trace file.

use std::collections::BTreeMap;

use polytops_core::json::Json;
use polytops_obs::{ChromeEvent, SpanRecord};

/// One completed span, whoever recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace the span belongs to.
    pub trace: u64,
    /// Span id, unique within its trace source.
    pub id: u64,
    /// Parent id, or 0.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Start in nanoseconds on the recorder's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Thread lane.
    pub tid: u64,
}

impl From<&SpanRecord> for Span {
    fn from(s: &SpanRecord) -> Span {
        Span {
            trace: s.trace,
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            start_ns: s.start_ns,
            dur_ns: s.end_ns - s.start_ns,
            tid: s.tid,
        }
    }
}

/// The spans of a daemon `trace` response (`{"ok":true,"trace":{…}}`).
///
/// # Errors
///
/// Returns a message when the response carries no trace or a span entry
/// is malformed.
pub fn from_trace_response(response: &Json) -> Result<Vec<Span>, String> {
    let trace = response
        .as_object()
        .and_then(|o| o.get("trace"))
        .and_then(Json::as_object)
        .ok_or("the daemon returned no trace")?;
    let id = trace.get("id").and_then(Json::as_int).unwrap_or(0) as u64;
    let entries = trace
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("`trace.spans` missing")?;
    entries
        .iter()
        .map(|entry| {
            let entry = entry.as_object().ok_or("span entry is not an object")?;
            let int = |key: &str| -> Result<u64, String> {
                entry
                    .get(key)
                    .and_then(Json::as_int)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| format!("span `{key}` missing or negative"))
            };
            Ok(Span {
                trace: id,
                id: int("id")?,
                parent: int("parent")?,
                name: entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span `name` missing")?
                    .to_string(),
                start_ns: int("start_ns")?,
                dur_ns: int("dur_ns")?,
                tid: int("tid")?,
            })
        })
        .collect()
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Time by span name, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// A span's duration minus the part its child spans cover, summed
    /// over the spans of a name. Self times of all spans partition the
    /// time their roots cover.
    pub own: BTreeMap<String, f64>,
    /// Whole durations, summed over the spans of a name.
    pub total: BTreeMap<String, f64>,
    /// Durations of each span of a name, for percentiles.
    pub each: BTreeMap<String, Vec<f64>>,
}

impl Times {
    /// Self time of a name (0 when no such span was recorded).
    pub fn own_ms(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0.0)
    }

    /// Total time of a name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }
}

/// Self and total times of a span set. Parent links are followed within
/// one trace only (ids of different daemons may collide).
pub fn times(spans: &[Span]) -> Times {
    let mut children: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry((s.trace, s.parent))
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    let mut out = Times::default();
    for s in spans {
        let end = s.start_ns + s.dur_ns;
        let inside = children
            .get_mut(&(s.trace, s.id))
            .map_or(0, |kids| covered(s.start_ns, end, kids));
        let ms = |ns: u64| ns as f64 / 1e6;
        *out.own.entry(s.name.clone()).or_default() += ms(s.dur_ns - inside);
        *out.total.entry(s.name.clone()).or_default() += ms(s.dur_ns);
        out.each
            .entry(s.name.clone())
            .or_default()
            .push(ms(s.dur_ns));
    }
    out
}

/// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto) under `dir`, returning the path.
///
/// # Errors
///
/// Propagates the I/O error.
pub fn write_chrome(
    dir: &std::path::Path,
    workload: &str,
    spans: &[Span],
) -> std::io::Result<String> {
    let events: Vec<ChromeEvent> = spans
        .iter()
        .map(|s| ChromeEvent {
            name: s.name.clone(),
            tid: s.tid,
            trace: s.trace,
            arg: None,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, polytops_obs::chrome_trace(&events))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, dur: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            dur_ns: dur,
            tid: 1,
        }
    }

    #[test]
    fn self_time_excludes_what_children_cover() {
        let spans = vec![
            span(1, 0, "request", 0, 10_000_000),
            span(2, 1, "solve", 1_000_000, 4_000_000),
            // Overlapping siblings count their union once.
            span(3, 1, "job", 4_000_000, 2_000_000),
            span(4, 2, "ilp_solve", 2_000_000, 1_000_000),
            // A child running past its parent is clipped to it.
            span(5, 1, "write", 9_000_000, 5_000_000),
        ];
        let t = times(&spans);
        assert_eq!(t.own_ms("request"), 10.0 - 5.0 - 1.0);
        assert_eq!(t.own_ms("solve"), 3.0);
        assert_eq!(t.total_ms("solve"), 4.0);
        assert_eq!(t.own_ms("ilp_solve"), 1.0);
        assert_eq!(t.own_ms("absent"), 0.0);
        assert_eq!(t.each["solve"], vec![4.0]);
    }

    #[test]
    fn daemon_traces_parse() {
        let response = polytops_core::json::parse(
            r#"{"ok":true,"trace":{"id":9,"spans":[
                {"id":1,"parent":0,"name":"request","arg":null,"start_ns":5,"dur_ns":100,"tid":2}]}}"#,
        )
        .expect("json");
        let spans = from_trace_response(&response).expect("spans");
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].trace, spans[0].dur_ns, spans[0].tid), (9, 100, 2));
        let none = polytops_core::json::parse(r#"{"ok":true,"trace":null}"#).expect("json");
        assert!(from_trace_response(&none).is_err());
    }
}
