//! Request-stream generation for the `polytopsd` service: the standard
//! sweep replayed as N simulated clients.
//!
//! Each generated line is one complete `op: "schedule"` request in the
//! wire format of `docs/SERVICE.md` — the SCoP embedded as polyscop
//! exchange text, the preset grid as named scenario specs. Every client
//! replays the same sweep, which is exactly the service's sweet spot:
//! the first client to reach the daemon pays the analysis, everyone
//! else (and every later batch) rides the registry.

use std::collections::BTreeMap;

use polytops_core::json::Json;
use polytops_ir::print_scop;

use crate::all_kernels;
use crate::sweep::preset_grid;

/// Builds one schedule-request line: `kernel` under the named presets,
/// tagged `id` (echoed by the daemon).
pub fn request_line(id: &str, kernel: &str, scop: &polytops_ir::Scop, presets: &[&str]) -> String {
    let scenarios: Vec<Json> = presets
        .iter()
        .map(|preset| {
            Json::Object(BTreeMap::from([
                ("name".to_string(), Json::Str((*preset).to_string())),
                ("preset".to_string(), Json::Str((*preset).to_string())),
            ]))
        })
        .collect();
    Json::Object(BTreeMap::from([
        ("op".to_string(), Json::Str("schedule".to_string())),
        ("id".to_string(), Json::Str(id.to_string())),
        ("name".to_string(), Json::Str(kernel.to_string())),
        ("scop".to_string(), Json::Str(print_scop(scop))),
        ("scenarios".to_string(), Json::Array(scenarios)),
    ]))
    .compact()
}

/// Builds one autotune-request line: `kernel` explored under at most
/// `max_candidates` lattice candidates at `param_estimate`, tagged
/// `id`. Submitting the same line twice explores the lattice twice and
/// must get the same response bytes both times, on any thread count and
/// across a daemon restart.
pub fn autotune_request_line(
    id: &str,
    scop: &polytops_ir::Scop,
    max_candidates: usize,
    param_estimate: i64,
) -> String {
    Json::Object(BTreeMap::from([
        ("op".to_string(), Json::Str("autotune".to_string())),
        ("id".to_string(), Json::Str(id.to_string())),
        ("scop".to_string(), Json::Str(print_scop(scop))),
        (
            "max_candidates".to_string(),
            Json::Int(max_candidates as i64),
        ),
        ("param_estimate".to_string(), Json::Int(param_estimate)),
    ]))
    .compact()
}

/// [`request_line`] over the full standard preset grid.
pub fn sweep_request_line(id: &str, kernel: &str, scop: &polytops_ir::Scop) -> String {
    let grid = preset_grid();
    let presets: Vec<&str> = grid.iter().map(|(name, _)| *name).collect();
    request_line(id, kernel, scop, &presets)
}

/// The standard sweep as `clients` request streams: stream `c` holds
/// one request per reference kernel (ids `c<c>/<kernel>`), so N clients
/// submit N copies of the sweep concurrently — the daemon should dedupe
/// every kernel onto one registry entry.
pub fn sweep_request_streams(clients: usize) -> Vec<Vec<String>> {
    let kernels = all_kernels();
    (0..clients)
        .map(|c| {
            kernels
                .iter()
                .map(|(kernel, scop)| sweep_request_line(&format!("c{c}/{kernel}"), kernel, scop))
                .collect()
        })
        .collect()
}

/// The presets the fleet harness rotates through — a diverse slice of
/// the grid (distinct cost functions and post-processing), kept small so
/// 100-client runs stay fast.
const FLEET_PRESETS: [&str; 4] = ["pluto", "feautrier", "isl_like", "wavefront"];

/// Request streams for the fleet harness: `clients` streams of
/// `per_client` single-preset requests each, kernels and presets
/// rotated so concurrent clients hit overlapping SCoPs under different
/// configurations (the registry-sharing worst case for bit-identity).
/// Ids are `c<client>/r<i>/<kernel>/<preset>`, so a response correlates
/// back to its exact (kernel, preset) golden run.
pub fn fleet_request_streams(clients: usize, per_client: usize) -> Vec<Vec<String>> {
    let kernels = all_kernels();
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let (kernel, scop) = &kernels[(c + i) % kernels.len()];
                    let preset = FLEET_PRESETS[(c * 7 + i) % FLEET_PRESETS.len()];
                    request_line(
                        &format!("c{c}/r{i}/{kernel}/{preset}"),
                        kernel,
                        scop,
                        &[preset],
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_streams_rotate_kernels_and_presets() {
        let streams = fleet_request_streams(5, 3);
        assert_eq!(streams.len(), 5);
        let mut distinct = std::collections::BTreeSet::new();
        for (c, stream) in streams.iter().enumerate() {
            assert_eq!(stream.len(), 3);
            for (i, line) in stream.iter().enumerate() {
                let parsed = polytops_core::json::parse(line).unwrap();
                let obj = parsed.as_object().unwrap();
                assert_eq!(obj["op"].as_str(), Some("schedule"));
                let id = obj["id"].as_str().unwrap();
                assert!(id.starts_with(&format!("c{c}/r{i}/")));
                assert_eq!(obj["scenarios"].as_array().unwrap().len(), 1);
                // The id's kernel/preset suffix is the golden-run key.
                let mut parts = id.splitn(4, '/');
                let (_, _, kernel, preset) = (
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                );
                assert_eq!(obj["name"].as_str(), Some(kernel));
                assert!(FLEET_PRESETS.contains(&preset));
                distinct.insert((kernel.to_string(), preset.to_string()));
            }
        }
        // Rotation actually diversifies the mix.
        assert!(distinct.len() > 4, "kernels × presets should vary");
    }

    #[test]
    fn autotune_lines_are_single_line_and_deterministic() {
        let scop = crate::matmul();
        let a = autotune_request_line("t0", &scop, 6, 256);
        assert!(!a.contains('\n'));
        assert_eq!(a, autotune_request_line("t0", &scop, 6, 256));
        let parsed = polytops_core::json::parse(&a).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj["op"].as_str(), Some("autotune"));
        assert_eq!(obj["max_candidates"].as_int(), Some(6));
        assert_eq!(obj["param_estimate"].as_int(), Some(256));
    }

    #[test]
    fn streams_cover_clients_and_kernels() {
        let streams = sweep_request_streams(3);
        assert_eq!(streams.len(), 3);
        for (c, stream) in streams.iter().enumerate() {
            assert_eq!(stream.len(), all_kernels().len());
            for line in stream {
                assert!(!line.contains('\n'), "one request per line");
                let parsed = polytops_core::json::parse(line).unwrap();
                let obj = parsed.as_object().unwrap();
                assert_eq!(obj["op"].as_str(), Some("schedule"));
                assert!(obj["id"].as_str().unwrap().starts_with(&format!("c{c}/")));
                assert_eq!(
                    obj["scenarios"].as_array().unwrap().len(),
                    preset_grid().len()
                );
            }
        }
    }
}
