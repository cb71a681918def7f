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
//! * a [`ScopEntry`] is the one owner of a SCoP's scheduling state: the
//!   SCoP, its `Arc<Vec<Dependence>>` (the exact dependence analysis,
//!   done once when the entry is built) and its `Arc<FarkasCache>` (one
//!   Farkas cone per polyhedron, shared by every configuration). Every
//!   slot of a [`ScenarioSet`](crate::scenario::ScenarioSet) is one; the
//!   registry keeps its entries resident across runs;
//! * the [`ScopRegistry`] dedupes SCoPs by canonical text, bounds
//!   residency with an LRU policy, and reports
//!   [`RegistryStats`] so callers can assert hits;
//! * [`ScopRegistry::resolve_text`] answers polyscop *text*: each
//!   resident entry remembers up to [`TEXTS_PER_ENTRY`] raw texts that
//!   resolved to it, so a repeated submission is found by a byte
//!   comparison, without `parse_scop` or [`canonical_text`]. This is a
//!   cache of text → resident entry, not of answers: every request is
//!   still scheduled and certified. The texts live and die with their
//!   entry and are never part of a [`RegistrySnapshot`].
//!
//! An entry keeps analysis state only, never an answer: a `schedule`
//! request and an `autotune` request against a resident entry are both
//! solved again, on its shared dependences and cones.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use polytops_deps::{analyze, Dependence};
use polytops_ir::{parse_scop, print_scop, AccessKind, ParseScopError, Scop, Subscript};

use crate::error::ScheduleError;
use crate::pipeline::legality::FarkasCache;

/// A SCoP with its shared scheduling state: the one owner of a SCoP,
/// its dependence analysis and its [`FarkasCache`]. A registry keeps
/// entries resident across requests; a
/// [`ScenarioSet`](crate::scenario::ScenarioSet) slot is one, shared or
/// of its own.
#[derive(Debug)]
pub struct ScopEntry {
    name: String,
    /// Filled by the registry, which computes it anyway; a standalone
    /// entry computes it on first ask.
    fingerprint: OnceLock<u64>,
    scop: Scop,
    deps: Arc<Vec<Dependence>>,
    cache: Arc<FarkasCache>,
}

impl ScopEntry {
    /// Analyzes `scop` and wraps it with an empty Farkas cache, under
    /// no registry (no canonical text is built).
    pub fn new(name: impl Into<String>, scop: Scop) -> ScopEntry {
        let deps = Arc::new(analyze(&scop));
        ScopEntry {
            name: name.into(),
            fingerprint: OnceLock::new(),
            scop,
            cache: Arc::new(FarkasCache::new(&deps)),
            deps,
        }
    }

    /// The name the SCoP was first registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical fingerprint ([`fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| fingerprint(&self.scop))
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

    /// Eagerly eliminates the Farkas cone of every dependence
    /// polyhedron, so later scheduling runs pay none (the restore
    /// path's "serve warm" guarantee: a request against a restored
    /// entry reports `farkas_misses == 0`), and returns how many cones
    /// it eliminated. Idempotent: a second call eliminates none.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from an elimination (which would
    /// equally fail when the entry is first scheduled).
    pub fn prewarm(&self) -> Result<usize, ScheduleError> {
        self.cache.prewarm(&self.deps)
    }
}

/// One registry entry as captured by [`ScopRegistry::snapshot`]: the
/// representative SCoP serialized as polyscop exchange text (the format
/// round-trips exactly, and the dependence analysis plus the
/// [`FarkasCache`] rebuild deterministically from it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The name the SCoP was first registered under.
    pub name: String,
    /// [`print_scop`] text of the representative SCoP.
    pub scop_text: String,
}

/// A point-in-time, self-contained image of a [`ScopRegistry`]:
/// entries in LRU order (coldest first), each reduced to canonical SCoP
/// text. Everything else — canonical
/// identity, fingerprints, dependence analyses, Farkas eliminations —
/// is a deterministic function of that text, which is what makes
/// snapshot → [`restore`](ScopRegistry::restore) → snapshot an exact
/// round trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Entries in LRU order: front = coldest, back = warmest.
    pub entries: Vec<SnapshotEntry>,
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
    /// The part of `hits` answered by a remembered raw text
    /// ([`ScopRegistry::resolve_text`]), without parsing it.
    pub text_hits: usize,
    /// Resolutions that had to analyze a new SCoP.
    pub misses: usize,
    /// Entries dropped by the LRU bound.
    pub evictions: usize,
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
    lru: Mutex<Vec<Slot>>,
    capacity: usize,
    hits: AtomicUsize,
    text_hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// How many raw polyscop texts one resident entry remembers. A client
/// resends one text per kernel; a few more cover clients that print the
/// same SCoP differently, and the bound keeps an entry's memory within
/// a constant factor of its representative's.
pub const TEXTS_PER_ENTRY: usize = 4;

/// One resident entry with its identity and the raw texts that resolved
/// to it.
#[derive(Debug)]
struct Slot {
    canonical: String,
    /// At most [`TEXTS_PER_ENTRY`] distinct texts, first seen first.
    texts: Vec<String>,
    entry: Arc<ScopEntry>,
}

impl Slot {
    fn remember(&mut self, text: &str) {
        if self.texts.len() < TEXTS_PER_ENTRY && !self.texts.iter().any(|t| t == text) {
            self.texts.push(text.to_string());
        }
    }
}

impl ScopRegistry {
    /// Creates a registry bounded to `capacity` resident SCoPs
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> ScopRegistry {
        ScopRegistry {
            lru: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicUsize::new(0),
            text_hits: AtomicUsize::new(0),
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
        self.resolve_scop(name, scop, None)
    }

    /// Resolves polyscop exchange text to its resident entry: the
    /// daemon's path. A text some earlier call resolved to a
    /// still-resident entry is found by byte comparison and answered
    /// as a hit without parsing it. Any other text is parsed and
    /// resolved as [`resolve`](ScopRegistry::resolve) does — canonical
    /// dedupe and the first-registered representative are unchanged —
    /// and then remembered on its entry (up to [`TEXTS_PER_ENTRY`]).
    ///
    /// `name` labels a new entry; `None` takes the SCoP's own name.
    ///
    /// # Errors
    ///
    /// Returns the [`parse_scop`] error of a text that does not parse;
    /// nothing is registered then.
    pub fn resolve_text(
        &self,
        name: Option<&str>,
        text: &str,
    ) -> Result<(Arc<ScopEntry>, bool), ParseScopError> {
        let is_text = |slot: &Slot| slot.texts.iter().any(|t| t == text);
        if let Some(entry) = warm_in(&mut self.lru.lock().expect("registry lock"), is_text, None) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.text_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry, true));
        }
        let scop = parse_scop(text)?;
        Ok(self.resolve_scop(name.unwrap_or(&scop.name), &scop, Some(text)))
    }

    /// [`resolve`](ScopRegistry::resolve), remembering `text` on the
    /// entry it lands on.
    fn resolve_scop(&self, name: &str, scop: &Scop, text: Option<&str>) -> (Arc<ScopEntry>, bool) {
        let canonical = canonical_text(scop);
        let is_scop = |slot: &Slot| slot.canonical == canonical;
        if let Some(entry) = warm_in(&mut self.lru.lock().expect("registry lock"), is_scop, text) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry, true);
        }
        // Miss: run the dependence analysis *outside* the registry lock
        // (it can take the bulk of a cold request — holding the lock
        // would stall stats probes and serialize concurrent resolvers).
        // Two racing resolvers may both analyze; the re-check below
        // keeps only one entry, so answers stay bit-stable.
        let entry = ScopEntry::new(name, scop.clone());
        let _ = entry.fingerprint.set(fnv1a(canonical.as_bytes()));
        let entry = Arc::new(entry);
        let mut lru = self.lru.lock().expect("registry lock");
        if let Some(resident) = warm_in(&mut lru, is_scop, text) {
            // A concurrent resolver registered it first; ours is wasted
            // work, theirs is the representative everyone shares.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (resident, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        lru.push(Slot {
            canonical,
            texts: text.into_iter().map(str::to_string).collect(),
            entry: Arc::clone(&entry),
        });
        if lru.len() > self.capacity {
            lru.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (entry, false)
    }

    /// Captures the registry as a [`RegistrySnapshot`]: every resident
    /// entry in LRU order, reduced to canonical SCoP text. The snapshot is a pure value — serialize it
    /// however persistence wants (the `polytopsd` daemon writes it as
    /// checksummed JSON; see `polytops_server`).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let lru = self.lru.lock().expect("registry lock");
        RegistrySnapshot {
            entries: lru
                .iter()
                .map(|Slot { entry, .. }| SnapshotEntry {
                    name: entry.name().to_string(),
                    scop_text: print_scop(entry.scop()),
                })
                .collect(),
        }
    }

    /// Rebuilds registry state from a snapshot: each entry is parsed,
    /// registered through the normal [`resolve`](ScopRegistry::resolve)
    /// path (re-running its dependence analysis) and
    /// [prewarmed](ScopEntry::prewarm), so the first request after a
    /// restart eliminates nothing. Returns how many entries it
    /// registered (an entry already resident is not counted).
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
    pub fn restore(&self, snapshot: &RegistrySnapshot) -> Result<usize, String> {
        let mut registered = 0;
        for entry in &snapshot.entries {
            let scop = parse_scop(&entry.scop_text)
                .map_err(|e| format!("snapshot entry `{}`: {e}", entry.name))?;
            let (resident, hit) = self.resolve(&entry.name, &scop);
            registered += usize::from(!hit);
            resident
                .prewarm()
                .map_err(|e| format!("prewarm `{}`: {e}", entry.name))?;
        }
        Ok(registered)
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
        RegistryStats {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            text_hits: self.text_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Moves the first slot matching `found` to the warm end of `lru` and
/// remembers `text` on it.
fn warm_in(
    lru: &mut Vec<Slot>,
    found: impl Fn(&Slot) -> bool,
    text: Option<&str>,
) -> Option<Arc<ScopEntry>> {
    let i = lru.iter().position(found)?;
    let mut slot = lru.remove(i);
    if let Some(text) = text {
        slot.remember(text);
    }
    let entry = Arc::clone(&slot.entry);
    lru.push(slot);
    Some(entry)
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
