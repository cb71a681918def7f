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
//! {"entries":[{"name":"matmul","scop":"<polyscop> ..."}]}
//! ```
//!
//! Entries are in LRU order (coldest first), each carrying the SCoP's
//! *canonical text* — the registry's identity representation. Nothing
//! derived is stored: dependence analyses and Farkas cones rebuild
//! deterministically from the text on load (see
//! [`ScopRegistry::restore`]), which is what makes a snapshot immune to
//! solver/code drift across daemon versions.
//!
//! The journal is one compact-JSON event per line:
//!
//! ```text
//! {"event":"admit","name":"matmul","scop":"<polyscop> ..."}
//! ```
//!
//! The daemon journals where the registry changes, and keeps no copy of
//! it here: an `admit` each time the registry admits a SCoP (a
//! re-admission after eviction included). Nothing else changes it — an
//! autotune answer is never remembered, so a repeated autotune journals
//! nothing. Events are idempotent, so replay after a crash mid-append is
//! safe; replay skips every line that fails to parse or apply (a torn
//! final line is the only one a single-writer crash can leave) and goes
//! on.
//!
//! Files written by older daemons carry more than this: per-entry
//! arrays (the Farkas cache's ILP layouts, remembered autotune winners)
//! and the journal events that fed them. The arrays are never read, and
//! those events apply as nothing but count as replayed (a restored
//! entry's cones are prewarmed whatever they say; autotune re-explores).
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

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polytops_core::json::{parse, Json};
use polytops_core::registry::{fnv1a, RegistrySnapshot, ScopEntry, ScopRegistry, SnapshotEntry};
use polytops_ir::{parse_scop, print_scop};
use polytops_obs::{Histogram, Recorder};

use crate::protocol::PersistTotals;

/// Magic prefix of the snapshot header line.
const MAGIC: &str = "polytops-snapshot v1";

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
}

/// The daemon's persistence engine: owns the snapshot directory and
/// the journal handle, and appends the events the daemon hands it. One
/// per daemon; all methods are `&self` (internally locked) so the
/// batcher and the shutdown path can share it.
pub struct Persister {
    dir: PathBuf,
    /// Rotate once the current journal holds this many events.
    rotate_every: usize,
    state: Mutex<PersistState>,
    /// What `load` restored, echoed in stats (its live counters stay 0).
    loaded: PersistTotals,
    /// Durability telemetry: journal append, fsync and rotation times.
    append_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    rotate_ns: Arc<Histogram>,
}

impl Persister {
    /// Opens (creating if needed) the snapshot directory, restores the
    /// registry from whatever is on disk, and leaves the journal open
    /// for appends, timing them into `recorder`. Rotation is *not*
    /// performed here: the freshly replayed journal stays valid until
    /// the daemon's first natural rotation point, so a crash loop
    /// cannot destroy both rotations.
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
        recorder: &Recorder,
    ) -> Result<Persister, String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let loaded = load(dir, registry);
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
            }),
            loaded,
            append_ns: recorder.histogram("persist.append_ns"),
            fsync_ns: recorder.histogram("persist.fsync_ns"),
            rotate_ns: recorder.histogram("persist.rotate_ns"),
        })
    }

    /// Current counters for the `stats` op.
    pub fn totals(&self) -> PersistTotals {
        let state = self.state.lock().expect("persist lock");
        PersistTotals {
            journal_events: state.events_total,
            rotations: state.rotations,
            ..self.loaded.clone()
        }
    }

    /// Journals an `admit` event for each entry the registry has just
    /// admitted (a re-admission after eviction included), in admission
    /// order, then rotates if the journal has grown past `rotate_every`.
    /// One `sync_data` covers every event written, so a later daemon
    /// kill cannot lose an acknowledged batch's admissions; a batch that
    /// admitted nothing writes and syncs nothing. I/O errors are
    /// swallowed (persistence is best-effort; serving must not depend on
    /// the disk).
    pub fn admitted(&self, registry: &ScopRegistry, entries: &[Arc<ScopEntry>]) {
        let mut state = self.state.lock().expect("persist lock");
        let started = Instant::now();
        let mut written = 0;
        for entry in entries {
            let event = Json::Object(std::collections::BTreeMap::from([
                ("event".to_string(), Json::Str("admit".to_string())),
                ("name".to_string(), Json::Str(entry.name().to_string())),
                ("scop".to_string(), Json::Str(print_scop(entry.scop()))),
            ]));
            let mut line = event.compact();
            line.push('\n');
            if state.journal.write_all(line.as_bytes()).is_ok() {
                written += 1;
            }
        }
        if written > 0 {
            let fsync_started = Instant::now();
            let _ = state.journal.sync_data();
            record_since(&self.fsync_ns, fsync_started);
            record_since(&self.append_ns, started);
            state.events += written;
            state.events_total += written;
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
        let started = Instant::now();
        let mut state = self.state.lock().expect("persist lock");
        if let Ok(fresh) = self.write_rotation(registry) {
            state.journal = fresh;
            state.events = 0;
            state.rotations += 1;
        }
        record_since(&self.rotate_ns, started);
    }

    /// The file steps of a rotation; returns the fresh journal.
    fn write_rotation(&self, registry: &ScopRegistry) -> std::io::Result<File> {
        let tmp = self.dir.join("snapshot.tmp");
        write_snapshot_file(&tmp, &registry.snapshot())?;
        let snapshot = self.dir.join("snapshot");
        if snapshot.exists() {
            let _ = fs::rename(&snapshot, self.dir.join("snapshot.prev"));
        }
        fs::rename(&tmp, &snapshot)?;
        // The old journal's events are inside the new snapshot; keep
        // them one generation as the fallback chain's companion.
        let journal = self.dir.join("journal");
        let _ = fs::rename(&journal, self.dir.join("journal.prev"));
        OpenOptions::new().create(true).append(true).open(&journal)
    }
}

/// Records the nanoseconds since `started` into `histogram`.
fn record_since(histogram: &Histogram, started: Instant) {
    histogram.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
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
            ]))
        })
        .collect();
    Json::Object(std::collections::BTreeMap::from([(
        "entries".to_string(),
        Json::Array(entries),
    )]))
    .compact()
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
        entries.push(SnapshotEntry {
            name: obj.get("name")?.as_str()?.to_string(),
            scop_text: obj.get("scop")?.as_str()?.to_string(),
        });
    }
    Some(RegistrySnapshot { entries })
}

/// Replays one journal file into the registry, returning how many
/// events applied. Every line that does not parse or apply (the torn
/// tail of a killed daemon, an unparseable SCoP from a corrupted disk)
/// is skipped, and replay goes on.
fn replay_journal(path: &Path, registry: &ScopRegistry) -> usize {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
    let mut applied = 0;
    for line in text.lines() {
        if parse(line)
            .ok()
            .and_then(|e| apply_event(&e, registry))
            .is_some()
        {
            applied += 1;
        }
    }
    applied
}

/// Applies one journal event. Idempotent: `admit` rides the registry's
/// dedupe and prewarm's already-resident no-op.
fn apply_event(event: &Json, registry: &ScopRegistry) -> Option<()> {
    let obj = event.as_object()?;
    match obj.get("event")?.as_str()? {
        "admit" => {
            let name = obj.get("name")?.as_str()?;
            let scop = parse_scop(obj.get("scop")?.as_str()?).ok()?;
            registry.resolve(name, &scop).0.prewarm().ok()?;
            Some(())
        }
        // Older daemons journaled `layout` (per-ILP-layout cones) and
        // `learned` (remembered autotune winners); both apply as nothing.
        "layout" | "learned" => Some(()),
        _ => None,
    }
}

/// The startup fallback chain: newest usable snapshot, then every
/// journal generation that could hold events missing from it. Returns
/// what it restored, with the live counters at zero.
fn load(dir: &Path, registry: &ScopRegistry) -> PersistTotals {
    let mut totals = PersistTotals {
        dir: dir.display().to_string(),
        ..PersistTotals::default()
    };
    let current = read_snapshot_file(&dir.join("snapshot"));
    let (snapshot, journals): (Option<RegistrySnapshot>, Vec<PathBuf>) = match current {
        Some(snap) => (Some(snap), vec![dir.join("journal")]),
        None => {
            let prev = read_snapshot_file(&dir.join("snapshot.prev"));
            if prev.is_some() && dir.join("snapshot").exists() {
                // There *was* a current snapshot and it failed its
                // checksum — the torn-rotation case the fault suite
                // exercises.
                totals.recovered_from_prev = true;
            }
            // Without the current snapshot, the previous journal's
            // events may not be covered; replay both (idempotent).
            (prev, vec![dir.join("journal.prev"), dir.join("journal")])
        }
    };
    if let Some(Ok(registered)) = snapshot.map(|snap| registry.restore(&snap)) {
        totals.restored_entries = registered;
    }
    let before = registry.stats().misses;
    for journal in journals {
        totals.replayed_events += replay_journal(&journal, registry);
    }
    // Journal admissions of SCoPs the snapshot missed count as restored
    // entries too (they show up as fresh registry misses).
    totals.restored_entries += registry.stats().misses.saturating_sub(before);
    totals
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
