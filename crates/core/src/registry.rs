//! The SCoP registry: cross-request persistence for the scheduler
//! service.
//!
//! A long-lived scheduler (the `polytopsd` daemon) sees the same kernels
//! again and again: a compiler front end re-schedules one SCoP under new
//! configurations every time its auto-tuning loop turns. The scenario
//! engine already amortizes dependence analysis and Farkas eliminations
//! *within* one [`ScenarioSet`](crate::scenario::ScenarioSet) run; this
//! module makes that state survive *across* runs — and across clients:
//!
//! * [`fingerprint`]/[`canonical_text`] give every SCoP a canonical
//!   identity that ignores its name and the order of accesses within a
//!   statement, so two clients submitting the same kernel (even with
//!   reads/writes listed in a different order, which would permute the
//!   analyzed dependence vector) land on the same entry;
//! * a [`ScopEntry`] keeps a SCoP resident together with its
//!   `Arc<Vec<Dependence>>` (the exact dependence analysis, done once
//!   ever) and its `Arc<FarkasCache>` (one Farkas cone per dependence,
//!   shared by every configuration);
//! * the [`ScopRegistry`] dedupes SCoPs by canonical text, bounds
//!   residency with an LRU policy, and reports
//!   [`RegistryStats`] so callers can assert hits.
//!
//! # Determinism
//!
//! Scheduling a registry-resident SCoP is bit-identical to scheduling it
//! offline: a resident [`FarkasCache`] cone equals what a fresh
//! elimination would build (the PR 3 contract), the
//! dependence analysis is deterministic, and requests deduped onto one
//! entry are all scheduled against the entry's *representative* SCoP —
//! so the answer cannot depend on which client registered it first, nor
//! on how warm the caches already are.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use polytops_deps::{analyze, Dependence};
use polytops_ir::{parse_scop, print_scop, AccessKind, Scop, Subscript};

use crate::error::ScheduleError;
use crate::pipeline::legality::FarkasCache;

/// A tuning winner remembered for one SCoP under one tuning key
/// (machine model + budget; see `tune::learned_key`): the name of the
/// winning candidate in the deterministic candidate lattice, plus the
/// model score it won with. The full configuration is *not* stored —
/// the lattice is a pure function of (SCoP, machine, budget), so the
/// name alone re-derives it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedConfig {
    /// Candidate name in the tuner's lattice (e.g. `"pluto/t64+wave"`).
    pub winner: String,
    /// The model score ([`estimate_cycles`](polytops_machine::model))
    /// the winner was selected with.
    pub score: i64,
}

/// A registry-resident SCoP with its shared scheduling state.
#[derive(Debug)]
pub struct ScopEntry {
    name: String,
    fingerprint: u64,
    scop: Scop,
    deps: Arc<Vec<Dependence>>,
    cache: Arc<FarkasCache>,
    /// Remembered tuning winners, keyed by tuning key.
    learned: Mutex<BTreeMap<String, LearnedConfig>>,
}

impl ScopEntry {
    fn new(name: String, fingerprint: u64, scop: Scop) -> ScopEntry {
        let deps = Arc::new(analyze(&scop));
        ScopEntry {
            name,
            fingerprint,
            scop,
            cache: Arc::new(FarkasCache::new(deps.len())),
            deps,
            learned: Mutex::new(BTreeMap::new()),
        }
    }

    /// The name the SCoP was first registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical fingerprint ([`fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The resident representative SCoP. Requests deduped onto this
    /// entry are scheduled against *this* value (not their own copy), so
    /// every client gets bit-identical answers.
    pub fn scop(&self) -> &Scop {
        &self.scop
    }

    /// The resident dependence analysis (computed once, at registration).
    pub fn deps(&self) -> Arc<Vec<Dependence>> {
        Arc::clone(&self.deps)
    }

    /// The resident Farkas cache: the cones of [`deps`](ScopEntry::deps),
    /// each eliminated on first use by whichever configuration asks.
    pub fn cache(&self) -> Arc<FarkasCache> {
        Arc::clone(&self.cache)
    }

    /// Eagerly eliminates every dependence's Farkas cone, so later
    /// scheduling runs pay none (the restore path's "serve warm"
    /// guarantee: a request against a restored entry reports
    /// `farkas_misses == 0`). Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from an elimination (which would
    /// equally fail when the entry is first scheduled).
    pub fn prewarm(&self) -> Result<(), ScheduleError> {
        self.cache.prewarm(&self.deps)
    }

    /// The remembered tuning winner for `key`, if any.
    pub fn learned_for(&self, key: &str) -> Option<LearnedConfig> {
        self.learned
            .lock()
            .expect("learned map lock")
            .get(key)
            .cloned()
    }

    /// Remembers `config` as the tuning winner for `key`. Returns
    /// whether the map changed (an identical re-record is a no-op, so
    /// the persistence layer can diff cheaply and journal replay is
    /// idempotent).
    pub fn learn(&self, key: &str, config: LearnedConfig) -> bool {
        let mut learned = self.learned.lock().expect("learned map lock");
        if learned.get(key) == Some(&config) {
            return false;
        }
        learned.insert(key.to_string(), config);
        true
    }

    /// Every remembered winner, in deterministic (`BTreeMap`) key order
    /// — what a snapshot records.
    pub fn learned_snapshot(&self) -> Vec<(String, LearnedConfig)> {
        self.learned
            .lock()
            .expect("learned map lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// How many tuning winners are remembered on this entry.
    pub fn learned_count(&self) -> usize {
        self.learned.lock().expect("learned map lock").len()
    }
}

/// One registry entry as captured by [`ScopRegistry::snapshot`]: the
/// representative SCoP serialized as polyscop exchange text (the format
/// round-trips exactly, and the dependence analysis plus the
/// [`FarkasCache`] rebuild deterministically from it) together with its
/// remembered tuning winners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The name the SCoP was first registered under.
    pub name: String,
    /// [`print_scop`] text of the representative SCoP.
    pub scop_text: String,
    /// Remembered tuning winners, in deterministic key order.
    pub learned: Vec<(String, LearnedConfig)>,
}

/// A point-in-time, self-contained image of a [`ScopRegistry`]:
/// entries in LRU order (coldest first), each reduced to canonical SCoP
/// text plus its learned winners. Everything else — canonical
/// identity, fingerprints, dependence analyses, Farkas eliminations —
/// is a deterministic function of that text, which is what makes
/// snapshot → [`restore`](ScopRegistry::restore) → snapshot an exact
/// round trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Entries in LRU order: front = coldest, back = warmest.
    pub entries: Vec<SnapshotEntry>,
}

/// What [`ScopRegistry::restore`] rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Entries registered (and re-analyzed) by the restore.
    pub entries: usize,
    /// Tuning winners re-learned from the snapshot.
    pub learned: usize,
}

/// Registry counters, taken with [`ScopRegistry::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Resident entries right now.
    pub entries: usize,
    /// The LRU bound.
    pub capacity: usize,
    /// Resolutions answered by a resident entry.
    pub hits: usize,
    /// Resolutions that had to analyze a new SCoP.
    pub misses: usize,
    /// Entries dropped by the LRU bound.
    pub evictions: usize,
    /// Remembered tuning winners across all resident entries.
    pub learned: usize,
}

/// A bounded, thread-safe pool of [`ScopEntry`]s, keyed by canonical
/// SCoP identity with least-recently-used eviction.
///
/// # Example
///
/// ```
/// use polytops_core::registry::ScopRegistry;
/// use polytops_ir::{Aff, ScopBuilder};
///
/// // for (i = 1; i < N; i++) A[i] = A[i-1];
/// let mut b = ScopBuilder::new("chain");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone()], 8);
/// b.open_loop("i", Aff::val(1), n - 1);
/// b.stmt("S0")
///     .read(a, &[Aff::var("i") - 1])
///     .write(a, &[Aff::var("i")])
///     .add(&mut b);
/// b.close_loop();
/// let scop = b.build().unwrap();
///
/// let registry = ScopRegistry::new(64);
/// let (entry, hit) = registry.resolve("chain", &scop);
/// assert!(!hit); // first sight: analyzed and made resident
/// let (again, hit) = registry.resolve("chain", &scop);
/// assert!(hit); // resident: same deps, same caches, no re-analysis
/// assert!(std::sync::Arc::ptr_eq(&entry, &again));
/// ```
#[derive(Debug)]
pub struct ScopRegistry {
    /// Entries in LRU order: front = coldest, back = most recently used.
    lru: Mutex<Vec<(String, Arc<ScopEntry>)>>,
    capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl ScopRegistry {
    /// Creates a registry bounded to `capacity` resident SCoPs
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> ScopRegistry {
        ScopRegistry {
            lru: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Resolves a SCoP to its resident entry, registering (and
    /// analyzing) it on first sight. Returns the entry and whether it
    /// was already resident.
    ///
    /// Identity is the [`canonical_text`] of the SCoP — the name and the
    /// per-statement access order do not participate, so near-identical
    /// submissions dedupe. The returned entry's
    /// [`scop()`](ScopEntry::scop) is the *first-registered*
    /// representative; schedule that, not the argument, for bit-stable
    /// answers across clients.
    ///
    /// A hit moves the entry to the warm end of the LRU order; a miss
    /// may evict the coldest entry to keep the registry within its
    /// bound.
    pub fn resolve(&self, name: &str, scop: &Scop) -> (Arc<ScopEntry>, bool) {
        let canonical = canonical_text(scop);
        if let Some(entry) = self.lookup(&canonical) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry, true);
        }
        // Miss: run the dependence analysis *outside* the registry lock
        // (it can take the bulk of a cold request — holding the lock
        // would stall stats probes and serialize concurrent resolvers).
        // Two racing resolvers may both analyze; the re-check below
        // keeps only one entry, so answers stay bit-stable.
        let fp = fnv1a(canonical.as_bytes());
        let entry = Arc::new(ScopEntry::new(name.to_string(), fp, scop.clone()));
        let mut lru = self.lru.lock().expect("registry lock");
        if let Some(i) = lru.iter().position(|(key, _)| *key == canonical) {
            // A concurrent resolver registered it first; ours is wasted
            // work, theirs is the representative everyone shares.
            let pair = lru.remove(i);
            let resident = Arc::clone(&pair.1);
            lru.push(pair);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (resident, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        lru.push((canonical, Arc::clone(&entry)));
        if lru.len() > self.capacity {
            lru.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (entry, false)
    }

    /// Looks up (and warms) an entry by canonical text.
    fn lookup(&self, canonical: &str) -> Option<Arc<ScopEntry>> {
        let mut lru = self.lru.lock().expect("registry lock");
        let i = lru.iter().position(|(key, _)| key == canonical)?;
        let pair = lru.remove(i);
        let entry = Arc::clone(&pair.1);
        lru.push(pair);
        Some(entry)
    }

    /// Captures the registry as a [`RegistrySnapshot`]: every resident
    /// entry in LRU order, reduced to canonical SCoP text plus learned
    /// winners. The snapshot is a pure value — serialize it
    /// however persistence wants (the `polytopsd` daemon writes it as
    /// checksummed JSON; see `polytops_server`).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let lru = self.lru.lock().expect("registry lock");
        RegistrySnapshot {
            entries: lru
                .iter()
                .map(|(_, entry)| SnapshotEntry {
                    name: entry.name().to_string(),
                    scop_text: print_scop(entry.scop()),
                    learned: entry.learned_snapshot(),
                })
                .collect(),
        }
    }

    /// Rebuilds registry state from a snapshot: each entry is parsed,
    /// registered through the normal [`resolve`](ScopRegistry::resolve)
    /// path (re-running its dependence analysis) and
    /// [prewarmed](ScopEntry::prewarm), so the first request after a
    /// restart eliminates nothing.
    ///
    /// Entries are applied in snapshot (LRU) order, so a restore into an
    /// empty registry reproduces the captured LRU order exactly; a
    /// registry with a *smaller* capacity simply evicts the coldest
    /// entries as it fills, like any admission sequence would.
    ///
    /// Restores count as ordinary misses in [`RegistryStats`] (the
    /// analyses really do run again); the warm-serving guarantee is
    /// about *Farkas eliminations during requests*, which a restored
    /// entry never pays.
    ///
    /// # Errors
    ///
    /// Returns a description of the first entry that fails to parse or
    /// prewarm, leaving previously restored entries resident.
    pub fn restore(&self, snapshot: &RegistrySnapshot) -> Result<RestoreReport, String> {
        let mut report = RestoreReport::default();
        for entry in &snapshot.entries {
            let scop = parse_scop(&entry.scop_text)
                .map_err(|e| format!("snapshot entry `{}`: {e}", entry.name))?;
            let (resident, hit) = self.resolve(&entry.name, &scop);
            if !hit {
                report.entries += 1;
            }
            resident
                .prewarm()
                .map_err(|e| format!("prewarm `{}`: {e}", entry.name))?;
            for (key, config) in &entry.learned {
                resident.learn(key, config.clone());
                report.learned += 1;
            }
        }
        Ok(report)
    }

    /// Looks up a resident entry by canonical fingerprint *without*
    /// warming its LRU position (the journal-replay path: replays must
    /// not perturb the order the snapshot captured). Fingerprints can
    /// collide in principle; a collision here would file a learned
    /// winner under the wrong entry — a name the tuner re-derives,
    /// re-scores and certifies before use, so never a wrong answer.
    pub fn find_by_fingerprint(&self, fingerprint: u64) -> Option<Arc<ScopEntry>> {
        let lru = self.lru.lock().expect("registry lock");
        lru.iter()
            .find(|(_, entry)| entry.fingerprint() == fingerprint)
            .map(|(_, entry)| Arc::clone(entry))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lru.lock().expect("registry lock").len()
    }

    /// Whether no SCoP is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> RegistryStats {
        let learned = {
            let lru = self.lru.lock().expect("registry lock");
            lru.iter().map(|(_, e)| e.learned_count()).sum()
        };
        RegistryStats {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            learned,
        }
    }
}

/// The canonical identity text of a SCoP: every scheduling-relevant
/// field — parameters, context, arrays, per-statement domains, β
/// vectors and accesses — serialized deterministically, with the SCoP
/// *name* omitted and each statement's accesses *sorted* (two
/// submissions differing only in access order produce permuted
/// dependence vectors, but describe the same scheduling problem).
pub fn canonical_text(scop: &Scop) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let join = |row: &[i64]| row.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
    let _ = writeln!(out, "params {}", scop.params.join(" "));
    for (kind, row) in scop.context.iter() {
        let _ = writeln!(out, "ctx {kind:?} {}", join(row));
    }
    for a in &scop.arrays {
        let _ = write!(out, "array {} {}", a.name, a.element_size);
        for d in &a.dims {
            let _ = write!(out, " [{}]", join(&d.to_row()));
        }
        out.push('\n');
    }
    for s in &scop.statements {
        let _ = writeln!(
            out,
            "stmt {} iters {} beta {} ops {}",
            s.name,
            s.iter_names.join(" "),
            join(&s.beta),
            s.compute_ops
        );
        for (kind, row) in s.domain.iter() {
            let _ = writeln!(out, "  dom {kind:?} {}", join(row));
        }
        // Accesses in canonical (sorted) order, not textual order.
        let mut accesses: Vec<String> = s
            .accesses
            .iter()
            .map(|a| {
                let mut line = format!(
                    "  {} {}",
                    match a.kind {
                        AccessKind::Read => "read",
                        AccessKind::Write => "write",
                    },
                    a.array.0
                );
                for sub in &a.subscripts {
                    match sub {
                        Subscript::Aff(e) => {
                            let _ = write!(line, " aff[{}]", join(&e.to_row()));
                        }
                        Subscript::FloorDiv(e, k) => {
                            let _ = write!(line, " div{k}[{}]", join(&e.to_row()));
                        }
                        Subscript::Mod(e, k) => {
                            let _ = write!(line, " mod{k}[{}]", join(&e.to_row()));
                        }
                    }
                }
                line
            })
            .collect();
        accesses.sort();
        for a in accesses {
            out.push_str(&a);
            out.push('\n');
        }
    }
    out
}

/// A 64-bit canonical fingerprint of a SCoP: FNV-1a over
/// [`canonical_text`]. Used for compact reporting (the registry dedupes
/// by the full canonical text, so a hash collision can mislabel a log
/// line but never merge two different SCoPs).
pub fn fingerprint(scop: &Scop) -> u64 {
    fnv1a(canonical_text(scop).as_bytes())
}

/// FNV-1a, 64 bit — the hash behind [`fingerprint`], exposed so the
/// persistence layer (snapshot checksums) and the consistent-hash
/// router share one definition.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
