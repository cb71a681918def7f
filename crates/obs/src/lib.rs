//! In-tree observability kernel for the PolyTOPS stack: spans,
//! counters, latency histograms and Chrome trace-event export.
//!
//! Same philosophy as `core/src/json.rs` and `vendor/proptest`: the
//! build container has no crates.io access, so instead of `tracing` +
//! `metrics` this crate implements the minimal subset the scheduler
//! actually needs, with zero dependencies.
//!
//! Three recording primitives hang off a [`Recorder`]:
//!
//! - [`Counter`] — a relaxed atomic sum (requests, batches, pivots …).
//! - [`Histogram`] — log2-bucketed latency distribution; recording is a
//!   single relaxed atomic increment per bucket.
//! - Spans — timed intervals with parent/child structure. Completed
//!   spans land in a bounded ring buffer (a short mutex critical
//!   section; counters and histograms stay lock-free).
//!
//! Spans come in two flavors:
//!
//! - [`SpanHandle`] — an explicit, owned span that may cross threads
//!   (a request travelling reader → batcher → pool worker → writer). It
//!   finishes when dropped or via [`SpanHandle::finish`].
//! - Scoped spans ([`span`]/[`span_arg`]) — RAII guards bound to the
//!   *current thread's* span context. A worker enters a context with
//!   [`SpanLink::bind`]; until the guard drops, every [`span`] call on
//!   that thread nests under the innermost open span via a per-thread
//!   parent stack. With no context bound, [`span`] is a single
//!   thread-local read and a branch — the "tracing disabled" fast path.
//!
//! Trace identity: every root span allocates (or inherits) a `trace`
//! id; the daemon propagates it in the request JSON envelope so a
//! router hop and the shard that serves it agree on the id. The
//! recorder can then return one request's complete span set
//! ([`Recorder::spans_for`]) for the `trace` op, or everything recent
//! for Chrome export ([`chrome_trace`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound of the completed-span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 16384;

/// Number of log2 histogram buckets. Bucket 0 holds exact zeros;
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

/// Process-wide ordinal source for [`thread_ordinal`]. Labeling only —
/// never part of any result.
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable, per-thread ordinal (1, 2, 3 … in first-use order),
/// used as the `tid` of recorded spans. Friendlier than the opaque OS
/// thread id in Chrome's timeline lanes.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic counter. All operations are relaxed atomics: counters
/// are diagnostic sums and never participate in result bit-identity.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one and returns the *new* value. The return value
    /// makes the counter usable as an ordinal source (the daemon's
    /// `drop_response` fault indexes the Nth response this way).
    pub fn inc(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A log2-bucketed histogram of nanosecond durations. Recording is one
/// relaxed `fetch_add` per bucket plus two for count/sum — safe to call
/// from every pool worker concurrently.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log2 bucket index of a value: 0 for 0, `floor(log2(v)) + 1`
/// (clamped to the last bucket) otherwise.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound of a bucket, used as the quantile
/// estimate reported for any value that landed in it.
fn bucket_ceiling(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one duration in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds).
    pub sum_ns: u64,
    /// Per-bucket counts; see [`HISTOGRAM_BUCKETS`] for the layout.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An upper-bound estimate of the `q`-quantile (0.0 ≤ q ≤ 1.0):
    /// the ceiling of the bucket where the cumulative count crosses
    /// `q * count`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        // ceil(q * count), as integer arithmetic on the clamped value.
        let target = ((clamped * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_ceiling(i);
            }
        }
        bucket_ceiling(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean recorded value (0 for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

/// One completed span, as stored in the recorder's ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace (request) id this span belongs to.
    pub trace: u64,
    /// Span id, unique within the recorder's lifetime (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Stage name (`"request"`, `"solve"`, `"ilp_solve"` …).
    pub name: &'static str,
    /// Optional integer argument (dimension index, scenario index …).
    pub arg: Option<i64>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (≥ `start_ns`).
    pub end_ns: u64,
    /// [`thread_ordinal`] of the thread that closed the span.
    pub tid: u64,
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// The sink all telemetry flows into: named counters and histograms
/// plus a bounded ring of completed spans. One recorder per daemon (or
/// per router / bench harness); there is no global registry.
pub struct Recorder {
    epoch: Instant,
    spans_enabled: bool,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("spans_enabled", &self.spans_enabled)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a recorder. `spans_enabled: false` is the daemon's
    /// `--no-trace` mode: counters and histograms still accumulate, but
    /// every root span is inert, so no span context is ever bound and
    /// scoped spans cost one thread-local read.
    pub fn new(spans_enabled: bool) -> Arc<Recorder> {
        Recorder::with_capacity(spans_enabled, DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a recorder with an explicit span ring bound.
    pub fn with_capacity(spans_enabled: bool, capacity: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans_enabled,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
        })
    }

    /// Whether root spans record anything.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled
    }

    /// Monotonic nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        saturate_ns(self.epoch.elapsed().as_nanos())
    }

    /// Converts an externally captured [`Instant`] (for example the
    /// moment a request's first byte arrived) to recorder time.
    /// Instants before the epoch clamp to 0.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| saturate_ns(d.as_nanos()))
    }

    /// Allocates a fresh trace id (never 0).
    pub fn begin_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    fn alloc_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn push_record(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().expect("span ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The counter with this name, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The histogram with this name, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Every counter, sorted by name (BTreeMap order — deterministic
    /// JSON for the `stats` op).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("counter map poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Every histogram snapshot, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self.histograms.lock().expect("histogram map poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// All completed spans of one trace still in the ring, in
    /// completion order.
    pub fn spans_for(&self, trace: u64) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("span ring poisoned");
        ring.iter().filter(|s| s.trace == trace).cloned().collect()
    }

    /// Every completed span still in the ring, oldest first.
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("span ring poisoned");
        ring.iter().cloned().collect()
    }

    /// Starts a root span (a fresh trace id) ending whenever the
    /// returned handle drops or [`SpanHandle::finish`]es. Inert when
    /// spans are disabled.
    pub fn root_span(self: &Arc<Recorder>, name: &'static str) -> SpanHandle {
        let now = self.now_ns();
        self.root_span_at(name, None, now)
    }

    /// Starts a root span with an explicit trace id (`None` allocates a
    /// fresh one) and an explicit start time in recorder nanoseconds —
    /// the daemon backdates the request root to the first byte read.
    pub fn root_span_at(
        self: &Arc<Recorder>,
        name: &'static str,
        trace: Option<u64>,
        start_ns: u64,
    ) -> SpanHandle {
        if !self.spans_enabled {
            return SpanHandle::disabled();
        }
        let trace = trace.unwrap_or_else(|| self.begin_trace());
        SpanHandle {
            inner: Some(HandleInner {
                recorder: Arc::clone(self),
                trace,
                id: self.alloc_span_id(),
                parent: 0,
                name,
                arg: None,
                start_ns,
            }),
        }
    }
}

fn saturate_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Cross-thread span handles
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HandleInner {
    recorder: Arc<Recorder>,
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    arg: Option<i64>,
    start_ns: u64,
}

/// An owned span that may cross threads. The span ends when the handle
/// is dropped or explicitly [`finish`](SpanHandle::finish)ed; children
/// and [`SpanLink`]s reference its id, so keep the handle alive while
/// descendants may still start.
#[derive(Debug)]
pub struct SpanHandle {
    inner: Option<HandleInner>,
}

impl SpanHandle {
    /// An inert handle: every operation is a no-op. What disabled
    /// recorders hand out, so call sites need no `if tracing` branches.
    pub fn disabled() -> SpanHandle {
        SpanHandle { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, or 0 when inert.
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace)
    }

    /// Starts a child span beginning now.
    pub fn child(&self, name: &'static str) -> SpanHandle {
        match &self.inner {
            Some(i) => {
                let now = i.recorder.now_ns();
                self.child_at(name, now)
            }
            None => SpanHandle::disabled(),
        }
    }

    /// Starts a child span with an explicit start time (recorder
    /// nanoseconds, from [`Recorder::ns_of`]).
    pub fn child_at(&self, name: &'static str, start_ns: u64) -> SpanHandle {
        let Some(i) = &self.inner else {
            return SpanHandle::disabled();
        };
        SpanHandle {
            inner: Some(HandleInner {
                recorder: Arc::clone(&i.recorder),
                trace: i.trace,
                id: i.recorder.alloc_span_id(),
                parent: i.id,
                name,
                arg: None,
                start_ns,
            }),
        }
    }

    /// Starts a child span carrying an integer argument.
    pub fn child_arg(&self, name: &'static str, arg: i64) -> SpanHandle {
        let mut child = self.child(name);
        if let Some(i) = &mut child.inner {
            i.arg = Some(arg);
        }
        child
    }

    /// A cloneable link to this span, for handing the context to
    /// another thread or embedding it in options structs. `None` when
    /// inert.
    pub fn link(&self) -> Option<SpanLink> {
        self.inner.as_ref().map(|i| SpanLink {
            recorder: Arc::clone(&i.recorder),
            trace: i.trace,
            parent: i.id,
        })
    }

    /// Ends the span now.
    pub fn finish(mut self) {
        self.finish_now();
    }

    fn finish_now(&mut self) {
        if let Some(i) = self.inner.take() {
            let end = i.recorder.now_ns();
            i.recorder.push_record(SpanRecord {
                trace: i.trace,
                id: i.id,
                parent: i.parent,
                name: i.name,
                arg: i.arg,
                start_ns: i.start_ns,
                end_ns: end.max(i.start_ns),
                tid: thread_ordinal(),
            });
        }
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.finish_now();
    }
}

/// A cloneable reference to an open span: recorder + trace + parent id.
/// This is what travels in `EngineOptions` and across the scenario
/// pool; a worker [`bind`](SpanLink::bind)s it to nest scoped spans
/// under the originating request.
#[derive(Clone)]
pub struct SpanLink {
    recorder: Arc<Recorder>,
    trace: u64,
    parent: u64,
}

impl fmt::Debug for SpanLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanLink")
            .field("trace", &self.trace)
            .field("parent", &self.parent)
            .finish()
    }
}

impl SpanLink {
    /// The recorder this link records into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Starts an owned child span under the linked span.
    pub fn span(&self, name: &'static str) -> SpanHandle {
        SpanHandle {
            inner: Some(HandleInner {
                recorder: Arc::clone(&self.recorder),
                trace: self.trace,
                id: self.recorder.alloc_span_id(),
                parent: self.parent,
                name,
                arg: None,
                start_ns: self.recorder.now_ns(),
            }),
        }
    }

    /// Starts an owned child span carrying an integer argument.
    pub fn span_arg(&self, name: &'static str, arg: i64) -> SpanHandle {
        let mut h = self.span(name);
        if let Some(i) = &mut h.inner {
            i.arg = Some(arg);
        }
        h
    }

    /// Makes this link the current thread's span context until the
    /// guard drops (restoring whatever was bound before). Scoped
    /// [`span`]/[`span_arg`]/[`time`] calls on this thread then record
    /// under the linked span.
    pub fn bind(&self) -> ContextGuard {
        let prev = CTX.with(|slot| {
            slot.borrow_mut().replace(ThreadCtx {
                recorder: Arc::clone(&self.recorder),
                trace: self.trace,
                stack: vec![self.parent],
            })
        });
        ContextGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local scoped spans
// ---------------------------------------------------------------------------

struct ThreadCtx {
    recorder: Arc<Recorder>,
    trace: u64,
    /// Open scoped-span ids, innermost last; `stack[0]` is the bound
    /// link's parent id.
    stack: Vec<u64>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Restores the previously bound span context when dropped. `!Send` —
/// a context binding is a property of one thread.
pub struct ContextGuard {
    prev: Option<ThreadCtx>,
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for ContextGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextGuard").finish_non_exhaustive()
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CTX.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// A link to the current thread's innermost open span, if a context is
/// bound — for re-rooting work handed to yet another thread.
pub fn current() -> Option<SpanLink> {
    CTX.with(|slot| {
        let borrow = slot.borrow();
        let ctx = borrow.as_ref()?;
        Some(SpanLink {
            recorder: Arc::clone(&ctx.recorder),
            trace: ctx.trace,
            parent: *ctx.stack.last().unwrap_or(&0),
        })
    })
}

struct Entered {
    id: u64,
    parent: u64,
    start_ns: u64,
    name: &'static str,
    arg: Option<i64>,
}

/// A scoped span: records an interval from creation to drop, nested
/// under the thread's innermost open span. Inert (one thread-local
/// read) when no context is bound. `!Send` by construction.
pub struct ScopedSpan {
    armed: Option<Entered>,
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for ScopedSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopedSpan")
            .field("armed", &self.armed.is_some())
            .finish()
    }
}

/// Opens a scoped span named `name` under the current thread context.
pub fn span(name: &'static str) -> ScopedSpan {
    enter(name, None)
}

/// Opens a scoped span carrying an integer argument (dimension index,
/// scenario ordinal …).
pub fn span_arg(name: &'static str, arg: i64) -> ScopedSpan {
    enter(name, Some(arg))
}

fn enter(name: &'static str, arg: Option<i64>) -> ScopedSpan {
    let armed = CTX.with(|slot| {
        let mut borrow = slot.borrow_mut();
        let ctx = borrow.as_mut()?;
        let id = ctx.recorder.alloc_span_id();
        let parent = *ctx.stack.last().unwrap_or(&0);
        let start_ns = ctx.recorder.now_ns();
        ctx.stack.push(id);
        Some(Entered {
            id,
            parent,
            start_ns,
            name,
            arg,
        })
    });
    ScopedSpan {
        armed,
        _not_send: PhantomData,
    }
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        let Some(e) = self.armed.take() else {
            return;
        };
        CTX.with(|slot| {
            let mut borrow = slot.borrow_mut();
            let Some(ctx) = borrow.as_mut() else {
                return;
            };
            // Scoped spans drop innermost-first, so popping back to our
            // frame only ever removes descendants abandoned by early
            // returns.
            while let Some(top) = ctx.stack.pop() {
                if top == e.id {
                    break;
                }
            }
            let end = ctx.recorder.now_ns();
            ctx.recorder.push_record(SpanRecord {
                trace: ctx.trace,
                id: e.id,
                parent: e.parent,
                name: e.name,
                arg: e.arg,
                start_ns: e.start_ns,
                end_ns: end.max(e.start_ns),
                tid: thread_ordinal(),
            });
        });
    }
}

/// Times a region into the named histogram of the current context's
/// recorder: the elapsed nanoseconds from creation to drop are
/// [`Histogram::record`]ed. Inert when no context is bound.
pub fn time(name: &str) -> HistTimer {
    let armed = CTX.with(|slot| {
        let borrow = slot.borrow();
        let ctx = borrow.as_ref()?;
        Some(ctx.recorder.histogram(name))
    });
    HistTimer {
        armed: armed.map(|h| (h, Instant::now())),
    }
}

/// Adds `n` to the named counter of the current context's recorder.
/// Inert when no context is bound. The lookup takes the registry's
/// lock: call it once per unit of work with a locally gathered total,
/// not once per event.
pub fn count(name: &str, n: u64) {
    CTX.with(|slot| {
        if let Some(ctx) = slot.borrow().as_ref() {
            ctx.recorder.counter(name).add(n);
        }
    });
}

/// RAII histogram timer returned by [`time`].
#[derive(Debug)]
pub struct HistTimer {
    armed: Option<(Arc<Histogram>, Instant)>,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.armed.take() {
            hist.record(saturate_ns(start.elapsed().as_nanos()));
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// One Chrome trace-event "complete" (`ph: "X"`) event. Decoupled from
/// [`SpanRecord`] so callers can also export spans deserialized from a
/// daemon's `trace` op (where names are owned strings).
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    /// Event name (the span name).
    pub name: String,
    /// Timeline lane.
    pub tid: u64,
    /// Trace id, attached under `args`.
    pub trace: u64,
    /// Optional integer argument, attached under `args`.
    pub arg: Option<i64>,
    /// Start in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl From<&SpanRecord> for ChromeEvent {
    fn from(s: &SpanRecord) -> ChromeEvent {
        ChromeEvent {
            name: s.name.to_string(),
            tid: s.tid,
            trace: s.trace,
            arg: s.arg,
            start_ns: s.start_ns,
            dur_ns: s.end_ns - s.start_ns,
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes events as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto "JSON Array Format", wrapped in
/// `{"traceEvents": […]}`). Timestamps and durations are microseconds
/// with nanosecond precision kept as fractional digits.
pub fn chrome_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let arg = e.arg.map(|a| format!(",\"arg\":{a}")).unwrap_or_default();
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"cat\":\"polytops\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"trace\":{}{}}}}}",
            escape_json(&e.name),
            e.tid,
            e.start_ns / 1000,
            e.start_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.trace,
            arg,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_report_ordinals() {
        let rec = Recorder::new(true);
        let c = rec.counter("requests");
        assert_eq!(c.inc(), 1);
        assert_eq!(c.inc(), 2);
        c.add(3);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same counter.
        assert_eq!(rec.counter("requests").get(), 5);
        assert_eq!(rec.counters(), vec![("requests".to_string(), 5)]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum_ns, 1_001_006);
        assert_eq!(snap.quantile(0.0), 0);
        assert!(snap.quantile(1.0) >= 1_000_000);
        assert_eq!(snap.mean_ns(), 1_001_006 / 6);
    }

    #[test]
    fn quantile_estimates_are_bucket_ceilings() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket [64, 127]
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 127);
        assert_eq!(snap.quantile(0.99), 127);
        assert!(snap.quantile(1.0) >= 1_000_000);
    }

    #[test]
    fn scoped_spans_nest_under_a_bound_link() {
        let rec = Recorder::new(true);
        let root = rec.root_span("request");
        let trace = root.trace_id();
        {
            let link = root.link().expect("armed root");
            let _guard = link.bind();
            let _outer = span("outer");
            {
                let _inner = span_arg("inner", 7);
            }
        }
        root.finish();
        let spans = rec.spans_for(trace);
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let request = spans.iter().find(|s| s.name == "request").expect("root");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, request.id);
        assert_eq!(request.parent, 0);
        assert_eq!(inner.arg, Some(7));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.end_ns >= inner.end_ns);
        assert!(request.end_ns >= outer.end_ns);
    }

    #[test]
    fn unbound_scoped_spans_are_inert() {
        let probe = span("nothing");
        assert!(probe.armed.is_none());
        drop(probe);
        let timer = time("nothing_ns");
        assert!(timer.armed.is_none());
    }

    #[test]
    fn disabled_recorders_hand_out_inert_handles() {
        let rec = Recorder::new(false);
        let root = rec.root_span("request");
        assert!(!root.is_armed());
        assert_eq!(root.trace_id(), 0);
        assert!(root.link().is_none());
        let child = root.child("solve");
        assert!(!child.is_armed());
        drop(child);
        root.finish();
        assert!(rec.recent_spans().is_empty());
    }

    #[test]
    fn handles_cross_threads_and_keep_parentage() {
        let rec = Recorder::new(true);
        let root = rec.root_span("request");
        let trace = root.trace_id();
        let link = root.link().expect("armed");
        let worker = std::thread::spawn(move || {
            let job = link.span_arg("job", 3);
            let inner = job.link().expect("armed");
            let _guard = inner.bind();
            let _s = span("pipeline");
        });
        worker.join().expect("worker");
        let root_id = {
            let spans = rec.spans_for(trace);
            assert_eq!(spans.len(), 2); // job + pipeline; root still open
            root.finish();
            rec.spans_for(trace)
                .iter()
                .find(|s| s.name == "request")
                .expect("root recorded")
                .id
        };
        let spans = rec.spans_for(trace);
        let job = spans.iter().find(|s| s.name == "job").expect("job");
        let pipeline = spans.iter().find(|s| s.name == "pipeline").expect("pipe");
        assert_eq!(job.parent, root_id);
        assert_eq!(pipeline.parent, job.id);
        assert_eq!(job.arg, Some(3));
    }

    #[test]
    fn ring_is_bounded() {
        let rec = Recorder::with_capacity(true, 4);
        for _ in 0..10 {
            rec.root_span("r").finish();
        }
        assert_eq!(rec.recent_spans().len(), 4);
    }

    #[test]
    fn timers_record_into_histograms() {
        let rec = Recorder::new(true);
        let root = rec.root_span("request");
        {
            let link = root.link().expect("armed");
            let _guard = link.bind();
            let _t = time("stage_ns");
        }
        assert_eq!(rec.histogram("stage_ns").snapshot().count, 1);
    }

    #[test]
    fn counts_land_in_the_bound_recorder_and_nowhere_without_one() {
        count("orphan", 5); // no context: inert
        let rec = Recorder::new(true);
        let root = rec.root_span("request");
        {
            let link = root.link().expect("armed");
            let _guard = link.bind();
            count("oracle.queries", 3);
            count("oracle.queries", 4);
        }
        assert_eq!(rec.counter("oracle.queries").get(), 7);
        assert_eq!(rec.counter("orphan").get(), 0);
    }

    #[test]
    fn bind_restores_the_previous_context() {
        let rec = Recorder::new(true);
        let a = rec.root_span("a");
        let b = rec.root_span("b");
        let la = a.link().expect("armed");
        let lb = b.link().expect("armed");
        let _ga = la.bind();
        {
            let _gb = lb.bind();
            assert_eq!(current().expect("bound").trace_id(), b.trace_id());
        }
        assert_eq!(current().expect("restored").trace_id(), a.trace_id());
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let rec = Recorder::new(true);
        let root = rec.root_span("request");
        root.child_arg("solve", 1).finish();
        root.finish();
        let spans = rec.recent_spans();
        let events: Vec<ChromeEvent> = spans.iter().map(ChromeEvent::from).collect();
        let doc = chrome_trace(&events);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"solve\""));
        assert!(doc.contains("\"arg\":1"));
        assert_eq!(
            doc.matches("{\"ph\"").count(),
            2,
            "one event per completed span"
        );
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
