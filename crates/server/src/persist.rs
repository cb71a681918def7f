//! Registry persistence: checksummed snapshots plus an append-only
//! journal, so a restarted daemon serves warm with zero re-eliminations.
//!
//! ## On-disk layout
//!
//! A snapshot directory holds up to four files:
//!
//! ```text
//! snapshot        current full registry image
//! snapshot.prev   previous rotation (torn-write fallback)
//! journal         events admitted since `snapshot` was written
//! journal.prev    events admitted since `snapshot.prev` was written
//! ```
//!
//! A snapshot file is one header line
//! `polytops-snapshot v1 <payload-len> <fnv1a-hex>` followed by a
//! compact-JSON payload:
//!
//! ```text
//! {"entries":[{"learned":[{"key":"…","score":-512,"winner":"pluto/t32"}],
//!              "name":"matmul","scop":"<polyscop> ..."}]}
//! ```
//!
//! Entries are in LRU order (coldest first), each carrying the SCoP's
//! *canonical text* — the registry's identity representation — plus its
//! remembered tuning winners. Nothing derived is stored: dependence
//! analyses and Farkas cones rebuild deterministically from the text on
//! load (see [`ScopRegistry::restore`]), which is what makes a snapshot
//! immune to solver/code drift across daemon versions.
//!
//! The journal is one compact-JSON event per line:
//!
//! ```text
//! {"event":"admit","name":"matmul","scop":"<polyscop> ..."}
//! {"event":"learned","fp":"9f…","key":"…","score":-512,"winner":"pluto/t32"}
//! ```
//!
//! Events are idempotent, so replay after a crash mid-append is safe; a
//! torn final line (the only line a single-writer crash can tear) is
//! detected by its parse failure and dropped.
//!
//! Files written before the Farkas cache stopped depending on the ILP
//! layout carry a `"layouts"` array per snapshot entry and `layout`
//! journal events; both are read and ignored (a restored entry's cones
//! are prewarmed whatever they say).
//!
//! ## Rotation
//!
//! [`Persister::rotate`] writes `snapshot.tmp` (fsynced), renames
//! `snapshot` → `snapshot.prev`, renames the tmp into place, shifts
//! `journal` → `journal.prev`, and starts a fresh journal. Every rename
//! is atomic on POSIX, and each crash window leaves a state
//! `load`'s fallback chain recovers from: a corrupt or
//! missing `snapshot` falls back to `snapshot.prev` + both journals
//! (replay idempotency makes the over-approximation harmless).

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use polytops_core::json::{parse, Json};
use polytops_core::registry::{
    fingerprint, fnv1a, LearnedConfig, RegistrySnapshot, ScopRegistry, SnapshotEntry,
};
use polytops_ir::{parse_scop, print_scop, Scop};

use crate::protocol::PersistTotals;

/// Magic prefix of the snapshot header line.
const MAGIC: &str = "polytops-snapshot v1";

/// What `load` found on disk and rebuilt.
#[derive(Debug, Default, Clone)]
pub struct LoadOutcome {
    /// Registry entries restored (snapshot plus journal replay).
    pub restored_entries: usize,
    /// Whether the current snapshot was unusable and the previous
    /// rotation was used instead.
    pub recovered_from_prev: bool,
    /// Journal events replayed on top of the snapshot.
    pub replayed_events: usize,
    /// Malformed journal lines skipped (a torn tail counts as one).
    pub torn_events: usize,
    /// Learned tuning winners restored (snapshot plus journal replay).
    pub relearned_configs: usize,
}

/// Journal/rotation state behind the persister's lock.
struct PersistState {
    /// Open handle on the current journal, append mode.
    journal: File,
    /// Events appended to the current journal since it was opened.
    events: usize,
    /// Events appended since startup (monotonic; survives rotation).
    events_total: usize,
    /// Rotations performed since startup.
    rotations: usize,
    /// The fingerprints already journaled or snapshotted, each with its
    /// learned winners by tuning key, so the post-batch diff appends
    /// each `admit` and `learned` event exactly once (a `learned` again
    /// if a re-exploration changes the winner).
    known: HashMap<u64, BTreeMap<String, LearnedConfig>>,
}

/// The daemon's persistence engine: owns the snapshot directory, the
/// journal handle, and the journal diff state. One per daemon; all
/// methods are `&self` (internally locked) so the batcher and the
/// shutdown path can share it.
pub struct Persister {
    dir: PathBuf,
    /// Rotate once the current journal holds this many events.
    rotate_every: usize,
    state: Mutex<PersistState>,
    /// What `load` found, echoed in stats.
    loaded: LoadOutcome,
    /// Durability telemetry sink (journal-append/fsync/rotation
    /// histograms), attached by the daemon after it builds its
    /// recorder. Never affects persistence behavior.
    recorder: std::sync::OnceLock<std::sync::Arc<polytops_obs::Recorder>>,
}

impl Persister {
    /// Opens (creating if needed) the snapshot directory, restores the
    /// registry from whatever is on disk, and leaves the journal open
    /// for appends. Rotation is *not* performed here: the freshly
    /// replayed journal stays valid until the daemon's first natural
    /// rotation point, so a crash loop cannot destroy both rotations.
    ///
    /// # Errors
    ///
    /// Returns a description if the directory or journal cannot be
    /// created. Corrupt *contents* never error — the fallback chain
    /// degrades to a cold start instead, because refusing to serve is
    /// worse than serving cold.
    pub fn open(
        dir: &Path,
        rotate_every: usize,
        registry: &ScopRegistry,
    ) -> Result<Persister, String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let loaded = load(dir, registry);
        // Journal replay re-admitted the journal's own events; seed the
        // diff state from the registry so they are not re-appended.
        let known = known_from(&registry.snapshot());
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal"))
            .map_err(|e| format!("open journal: {e}"))?;
        Ok(Persister {
            dir: dir.to_path_buf(),
            rotate_every: rotate_every.max(1),
            state: Mutex::new(PersistState {
                journal,
                events: 0,
                events_total: 0,
                rotations: 0,
                known,
            }),
            loaded,
            recorder: std::sync::OnceLock::new(),
        })
    }

    /// Attaches the daemon's recorder so journal appends, fsyncs and
    /// rotations report their durations. Only the first attach wins.
    pub fn attach_recorder(&self, recorder: std::sync::Arc<polytops_obs::Recorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// What startup restored (for stats and the fault suite).
    pub fn load_outcome(&self) -> &LoadOutcome {
        &self.loaded
    }

    /// Current counters for the `stats` op.
    pub fn totals(&self) -> PersistTotals {
        let state = self.state.lock().expect("persist lock");
        PersistTotals {
            restored_entries: self.loaded.restored_entries,
            recovered_from_prev: self.loaded.recovered_from_prev,
            replayed_events: self.loaded.replayed_events,
            relearned_configs: self.loaded.relearned_configs,
            journal_events: state.events_total,
            rotations: state.rotations,
            dir: self.dir.display().to_string(),
        }
    }

    /// Records the state a finished batch left behind: an `admit` event
    /// for each entry the diff state has not seen, and a `learned` event
    /// for each new or changed tuning winner. Called with the entries
    /// the batch touched; rotates afterwards if the journal has grown
    /// past `rotate_every`. I/O errors are swallowed (persistence is
    /// best-effort; serving must not depend on the disk).
    pub fn record(&self, registry: &ScopRegistry, touched: &[(String, Scop)]) {
        let recorder = self.recorder.get().map(std::sync::Arc::as_ref);
        let mut state = self.state.lock().expect("persist lock");
        for (name, scop) in touched {
            let fp = fingerprint(scop);
            if !state.known.contains_key(&fp) {
                let event = Json::Object(std::collections::BTreeMap::from([
                    ("event".to_string(), Json::Str("admit".to_string())),
                    ("name".to_string(), Json::Str(name.clone())),
                    ("scop".to_string(), Json::Str(print_scop(scop))),
                ]));
                append(&mut state, &event, recorder);
                state.known.insert(fp, BTreeMap::new());
            }
            let Some(entry) = registry.find_by_fingerprint(fp) else {
                continue; // evicted between batch and record; nothing to learn
            };
            let learned: BTreeMap<String, LearnedConfig> =
                entry.learned_snapshot().into_iter().collect();
            let seen = state.known.remove(&fp).unwrap_or_default();
            for (key, config) in &learned {
                if seen.get(key) == Some(config) {
                    continue;
                }
                let event = Json::Object(std::collections::BTreeMap::from([
                    ("event".to_string(), Json::Str("learned".to_string())),
                    ("fp".to_string(), Json::Str(format!("{fp:016x}"))),
                    ("key".to_string(), Json::Str(key.clone())),
                    ("winner".to_string(), Json::Str(config.winner.clone())),
                    ("score".to_string(), Json::Int(config.score)),
                ]));
                append(&mut state, &event, recorder);
            }
            state.known.insert(fp, learned);
        }
        if state.events >= self.rotate_every {
            drop(state);
            self.rotate(registry);
        }
    }

    /// Writes a fresh checksummed snapshot of `registry` and rotates
    /// the journal. Crash-safe: every step is a whole-file write to a
    /// temp name or an atomic rename, and `load`'s fallback chain
    /// covers every intermediate state. Errors are swallowed — a failed
    /// rotation leaves the previous snapshot + journal, which still
    /// restore correctly.
    pub fn rotate(&self, registry: &ScopRegistry) {
        let _timing = self
            .recorder
            .get()
            .map(|rec| RotateTimer::new(rec.histogram("persist.rotate_ns")));
        let mut state = self.state.lock().expect("persist lock");
        let snap = registry.snapshot();
        let tmp = self.dir.join("snapshot.tmp");
        if write_snapshot_file(&tmp, &snap).is_err() {
            return;
        }
        let snapshot = self.dir.join("snapshot");
        let prev = self.dir.join("snapshot.prev");
        if snapshot.exists() {
            let _ = fs::rename(&snapshot, &prev);
        }
        if fs::rename(&tmp, &snapshot).is_err() {
            return;
        }
        // The old journal's events are inside the new snapshot; keep
        // them one generation as the fallback chain's companion.
        let journal = self.dir.join("journal");
        let _ = fs::rename(&journal, self.dir.join("journal.prev"));
        let Ok(fresh) = OpenOptions::new().create(true).append(true).open(&journal) else {
            return;
        };
        state.journal = fresh;
        state.events = 0;
        state.rotations += 1;
        // Everything resident is now in the snapshot; reset the diff
        // baseline to match.
        state.known = known_from(&snap);
    }
}

/// The journal diff baseline matching a snapshot of the live registry:
/// every entry admitted, every learned winner recorded.
fn known_from(snap: &RegistrySnapshot) -> HashMap<u64, BTreeMap<String, LearnedConfig>> {
    snap.entries
        .iter()
        .filter_map(|entry| {
            let scop = parse_scop(&entry.scop_text).ok()?;
            Some((fingerprint(&scop), entry.learned.iter().cloned().collect()))
        })
        .collect()
}

/// Records the wall time of one snapshot rotation on drop, so every
/// early-out path in `rotate` still reports its duration.
struct RotateTimer {
    histogram: std::sync::Arc<polytops_obs::Histogram>,
    started: std::time::Instant,
}

impl RotateTimer {
    fn new(histogram: std::sync::Arc<polytops_obs::Histogram>) -> Self {
        RotateTimer {
            histogram,
            started: std::time::Instant::now(),
        }
    }
}

impl Drop for RotateTimer {
    fn drop(&mut self) {
        self.histogram
            .record(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Appends one journal event line, fsyncing so a subsequent daemon kill
/// cannot lose an acknowledged batch's admissions. Reports the total
/// append and fsync-only durations when a recorder is attached.
fn append(state: &mut PersistState, event: &Json, recorder: Option<&polytops_obs::Recorder>) {
    let started = std::time::Instant::now();
    let mut line = event.compact();
    line.push('\n');
    if state.journal.write_all(line.as_bytes()).is_ok() {
        let fsync_started = std::time::Instant::now();
        let _ = state.journal.sync_data();
        if let Some(rec) = recorder {
            rec.histogram("persist.fsync_ns")
                .record(u64::try_from(fsync_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        state.events += 1;
        state.events_total += 1;
    }
    if let Some(rec) = recorder {
        rec.histogram("persist.append_ns")
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Serializes a snapshot payload (compact JSON, entries in LRU order).
fn snapshot_payload(snap: &RegistrySnapshot) -> String {
    let entries: Vec<Json> = snap
        .entries
        .iter()
        .map(|entry| {
            Json::Object(std::collections::BTreeMap::from([
                ("name".to_string(), Json::Str(entry.name.clone())),
                ("scop".to_string(), Json::Str(entry.scop_text.clone())),
                (
                    "learned".to_string(),
                    Json::Array(
                        entry
                            .learned
                            .iter()
                            .map(|(key, config)| {
                                Json::Object(std::collections::BTreeMap::from([
                                    ("key".to_string(), Json::Str(key.clone())),
                                    ("winner".to_string(), Json::Str(config.winner.clone())),
                                    ("score".to_string(), Json::Int(config.score)),
                                ]))
                            })
                            .collect(),
                    ),
                ),
            ]))
        })
        .collect();
    Json::Object(std::collections::BTreeMap::from([(
        "entries".to_string(),
        Json::Array(entries),
    )]))
    .compact()
}

fn learned_from_json(json: &Json) -> Option<(String, LearnedConfig)> {
    let obj = json.as_object()?;
    Some((
        obj.get("key")?.as_str()?.to_string(),
        LearnedConfig {
            winner: obj.get("winner")?.as_str()?.to_string(),
            score: obj.get("score")?.as_int()?,
        },
    ))
}

/// Writes one snapshot file: checksummed header line + payload, fsynced
/// before return so the caller's rename publishes durable bytes.
fn write_snapshot_file(path: &Path, snap: &RegistrySnapshot) -> std::io::Result<()> {
    let payload = snapshot_payload(snap);
    let header = format!(
        "{MAGIC} {} {:016x}\n",
        payload.len(),
        fnv1a(payload.as_bytes())
    );
    let mut file = File::create(path)?;
    file.write_all(header.as_bytes())?;
    file.write_all(payload.as_bytes())?;
    file.sync_data()
}

/// Parses and checksum-verifies a snapshot file. `None` for any defect:
/// missing, truncated (torn write), checksum mismatch, malformed JSON.
fn read_snapshot_file(path: &Path) -> Option<RegistrySnapshot> {
    let mut text = String::new();
    File::open(path).ok()?.read_to_string(&mut text).ok()?;
    let (header, payload) = text.split_once('\n')?;
    let rest = header.strip_prefix(MAGIC)?.trim();
    let (len_text, sum_text) = rest.split_once(' ')?;
    let len: usize = len_text.parse().ok()?;
    let sum = u64::from_str_radix(sum_text, 16).ok()?;
    if payload.len() != len || fnv1a(payload.as_bytes()) != sum {
        return None;
    }
    let root = parse(payload).ok()?;
    let mut entries = Vec::new();
    for item in root.as_object()?.get("entries")?.as_array()? {
        let obj = item.as_object()?;
        // Snapshots from before the learned store lack the key; treat
        // them as having learned nothing rather than as corrupt.
        let learned = match obj.get("learned") {
            Some(list) => list
                .as_array()?
                .iter()
                .map(learned_from_json)
                .collect::<Option<Vec<(String, LearnedConfig)>>>()?,
            None => Vec::new(),
        };
        entries.push(SnapshotEntry {
            name: obj.get("name")?.as_str()?.to_string(),
            scop_text: obj.get("scop")?.as_str()?.to_string(),
            learned,
        });
    }
    Some(RegistrySnapshot { entries })
}

/// What replaying one journal file applied:
/// `(events_applied, torn_lines, configs_relearned)`.
type ReplayCounts = (usize, usize, usize);

/// Replays one journal file into the registry. Malformed lines
/// (the torn tail of a killed daemon, at most one per file) are
/// skipped, and events that fail to apply (unparseable SCoP from a
/// corrupted disk) are counted as torn rather than fatal.
fn replay_journal(path: &Path, registry: &ScopRegistry) -> ReplayCounts {
    let Ok(text) = fs::read_to_string(path) else {
        return (0, 0, 0);
    };
    let (mut applied, mut torn, mut relearned) = (0, 0, 0);
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line).ok().and_then(|e| apply_event(&e, registry)) {
            Some(learned) => {
                applied += 1;
                relearned += usize::from(learned);
            }
            None => torn += 1,
        }
    }
    (applied, torn, relearned)
}

/// Applies one journal event, returning whether it relearned a config.
/// Idempotent: `admit` rides the registry's dedupe and prewarm's
/// already-resident no-op, `learned` rides the learned map's
/// last-write-wins insert (replaying the same event twice is the same
/// write). A `layout` event — written by daemons whose Farkas caches
/// were per ILP layout — applies as nothing.
fn apply_event(event: &Json, registry: &ScopRegistry) -> Option<bool> {
    let obj = event.as_object()?;
    match obj.get("event")?.as_str()? {
        "admit" => {
            let name = obj.get("name")?.as_str()?;
            let scop = parse_scop(obj.get("scop")?.as_str()?).ok()?;
            registry.resolve(name, &scop).0.prewarm().ok()?;
            Some(false)
        }
        "layout" => Some(false),
        "learned" => {
            let fp = u64::from_str_radix(obj.get("fp")?.as_str()?, 16).ok()?;
            let key = obj.get("key")?.as_str()?;
            let config = LearnedConfig {
                winner: obj.get("winner")?.as_str()?.to_string(),
                score: obj.get("score")?.as_int()?,
            };
            // The entry may have been evicted by later journal events'
            // admissions; a missing target is not corruption.
            if let Some(entry) = registry.find_by_fingerprint(fp) {
                entry.learn(key, config);
                return Some(true);
            }
            Some(false)
        }
        _ => None,
    }
}

/// The startup fallback chain: newest usable snapshot, then every
/// journal generation that could hold events missing from it.
fn load(dir: &Path, registry: &ScopRegistry) -> LoadOutcome {
    let mut outcome = LoadOutcome::default();
    let current = read_snapshot_file(&dir.join("snapshot"));
    let (snapshot, journals): (Option<RegistrySnapshot>, Vec<PathBuf>) = match current {
        Some(snap) => (Some(snap), vec![dir.join("journal")]),
        None => {
            let prev = read_snapshot_file(&dir.join("snapshot.prev"));
            if prev.is_some() && dir.join("snapshot").exists() {
                // There *was* a current snapshot and it failed its
                // checksum — the torn-rotation case the fault suite
                // exercises.
                outcome.recovered_from_prev = true;
            }
            // Without the current snapshot, the previous journal's
            // events may not be covered; replay both (idempotent).
            (prev, vec![dir.join("journal.prev"), dir.join("journal")])
        }
    };
    if let Some(snap) = snapshot {
        match registry.restore(&snap) {
            Ok(report) => {
                outcome.restored_entries = report.entries;
                outcome.relearned_configs = report.learned;
            }
            Err(_) => outcome.torn_events += 1,
        }
    }
    let before = registry.stats().misses;
    for journal in journals {
        let (applied, torn, relearned) = replay_journal(&journal, registry);
        outcome.replayed_events += applied;
        outcome.torn_events += torn;
        outcome.relearned_configs += relearned;
    }
    // Journal admissions of SCoPs the snapshot missed count as restored
    // entries too (they show up as fresh registry misses).
    outcome.restored_entries += registry.stats().misses.saturating_sub(before);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("polytops-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot");
        let snap = RegistrySnapshot {
            entries: vec![SnapshotEntry {
                name: "k".to_string(),
                scop_text: "<polyscop>\n".to_string(),
                learned: vec![(
                    "line64:max16:est256".to_string(),
                    LearnedConfig {
                        winner: "pluto/tile32+wave".to_string(),
                        score: -123_456,
                    },
                )],
            }],
        };
        write_snapshot_file(&path, &snap).unwrap();
        assert_eq!(read_snapshot_file(&path), Some(snap.clone()));

        // Truncation (torn write) must be detected.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(read_snapshot_file(&path), None);

        // Bit corruption inside the payload must be detected.
        let mut flipped = full.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x20;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(read_snapshot_file(&path), None);

        let _ = fs::remove_dir_all(&dir);
    }
}
