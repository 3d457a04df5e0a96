//! Deterministic end-to-end tracing with per-session flight recorders.
//!
//! The ingest path spans several hops — wire decode, engine queue wait,
//! the five pipeline stages, and event emission — and this module ties
//! them together without pulling in `tracing`:
//!
//! - **Ids** ([`TraceId`] / [`SpanId`]): 64-bit ids drawn from a seedable
//!   splitmix64 stream ([`seed_ids`]), so replays and tests produce the
//!   same ids in the same order. Ids are never zero.
//! - **Spans** ([`SpanEvent`]): parent-linked, named, with start/end
//!   timestamps in microseconds since the recorder's epoch.
//! - **Flight recorder** ([`FlightRecorder`]): a bounded per-session ring
//!   of completed spans; old spans are dropped (and counted) once the
//!   ring is full, so a long-lived session costs constant memory. The
//!   process-global session registry ([`recorder`] / [`lookup`] /
//!   [`remove`]) backs the `/debug/trace/<session>` endpoint.
//! - **Head sampling** ([`Sampler`]): a deterministic 1-in-N counter so
//!   per-report hops (the stage pushes) only pay the two clock reads on a
//!   sampled fraction of pushes, keeping telemetry within its 3% overhead
//!   budget. Batch-level hops (decode, queue, emit) are cheap enough to
//!   record unsampled.
//! - **Slow-span journaling** ([`finish_span`]): spans longer than
//!   [`slow_span_us`] (env `RFIPAD_TRACE_SLOW_US`, default 50 ms) are
//!   echoed into the log journal for post-mortem dumps.
//!
//! Everything is inert when telemetry is off ([`crate::telemetry_on`]):
//! recorders accept nothing and samplers return `false`, so a
//! `RFIPAD_LOG=off` replay never reads the clock for tracing.

use crate::json::{self, escape};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Identifies one end-to-end trace (a session's ingest lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The default id-stream seed; [`seed_ids`] overrides it.
const DEFAULT_ID_SEED: u64 = 0x243f_6a88_85a3_08d3; // pi, like the paper's carrier

static ID_STATE: AtomicU64 = AtomicU64::new(DEFAULT_ID_SEED);

/// Reseeds the process-global id stream. Two processes (or two test runs)
/// seeded identically draw identical id sequences — the property the
/// golden-replay determinism checks rely on.
pub fn seed_ids(seed: u64) {
    ID_STATE.store(seed, Ordering::Relaxed);
}

/// splitmix64 output function over an atomic counter: each call advances
/// the state by the golden-ratio increment and mixes it. Never returns 0
/// (0 is reserved for "absent" on the wire).
fn next_id() -> u64 {
    let mut z = ID_STATE
        .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Draws the next trace id from the seeded stream.
pub fn next_trace_id() -> TraceId {
    TraceId(next_id())
}

/// Draws the next span id from the seeded stream.
pub fn next_span_id() -> SpanId {
    SpanId(next_id())
}

/// One completed span: a named hop with its parent link and wall-clock
/// bounds in microseconds since the owning recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The enclosing span, if any (the root span has none).
    pub parent: Option<SpanId>,
    /// Hop name: `session`, `decode`, `queue`, `stage:framing`, `emit`, …
    pub name: String,
    /// Start, microseconds since the recorder epoch.
    pub start_us: u64,
    /// End, microseconds since the recorder epoch (`>= start_us`).
    pub end_us: u64,
}

impl SpanEvent {
    /// Elapsed microseconds (saturating).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Renders the span as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":",
            self.trace.0, self.span.0
        );
        match self.parent {
            Some(p) => {
                let _ = write!(out, "\"{:016x}\"", p.0);
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            escape(&self.name),
            self.start_us,
            self.end_us
        );
        out
    }

    /// Parses a span from the single-line JSON form [`SpanEvent::to_json`]
    /// writes, or from one span line of a [`FlightRecorder::to_json`]
    /// dump, which may end in the array's `,` separator. Returns `None` on
    /// anything else — the dump is machine-written, so partial recovery is
    /// not worth the complexity.
    pub fn from_json(line: &str) -> Option<SpanEvent> {
        let line = line.trim_end();
        let doc = json::parse(line.strip_suffix(',').unwrap_or(line)).ok()?;
        doc.object(|f| {
            Ok(SpanEvent {
                trace: TraceId(f.take("trace", hex_id)?),
                span: SpanId(f.take("span", hex_id)?),
                parent: f.take("parent", |v| {
                    (!v.is_null()).then(|| hex_id(v).map(SpanId)).transpose()
                })?,
                name: f.take("name", |v| v.as_str().map(str::to_owned))?,
                start_us: f.take("start_us", json::Value::as_uint)?,
                end_us: f.take("end_us", json::Value::as_uint)?,
            })
        })
        .ok()
    }
}

/// Reads an id written as `{:016x}`: exactly sixteen hex digits.
fn hex_id(value: &json::Value<'_>) -> Result<u64, json::Error> {
    let hex = value.as_str()?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(json::Error::new(format!(
            "expected 16 hex digits, got {hex:?}"
        )));
    }
    Ok(u64::from_str_radix(hex, 16).expect("sixteen hex digits fit a u64"))
}

/// Default span capacity of a per-session flight recorder.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// A bounded ring of completed spans for one session.
///
/// Recording takes a short mutex (the ring is per-session and writes are
/// batch-granular, so contention is negligible); once full, the oldest
/// span is dropped and counted so the dump can say how much history was
/// lost.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    ring: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A fresh recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since this recorder's epoch — the timebase every
    /// [`SpanEvent`] it holds uses.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Appends a completed span, evicting the oldest if the ring is full.
    pub fn record(&self, event: SpanEvent) {
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Copies the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Spans evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dumps the recorder as JSON: `{"dropped":N,"spans":[...]}` with one
    /// span object per line inside the array, so a line-oriented parser
    /// ([`SpanEvent::from_json`]) can walk the dump.
    pub fn to_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        let _ = write!(out, "{{\"dropped\":{},\"spans\":[", self.dropped());
        for (i, span) in spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&span.to_json());
        }
        out.push_str("\n]}\n");
        out
    }
}

/// How many sessions the recorder registry retains. Closed sessions keep
/// their recorder (so `/debug/trace/<session>` works post-mortem) until
/// the registry is full, at which point the oldest-registered session is
/// evicted.
pub const MAX_TRACKED_SESSIONS: usize = 512;

type RecorderMap = Mutex<HashMap<String, (u64, Arc<FlightRecorder>)>>;

fn recorders() -> &'static RecorderMap {
    static RECORDERS: OnceLock<RecorderMap> = OnceLock::new();
    RECORDERS.get_or_init(|| Mutex::new(HashMap::new()))
}

static RECORDER_SEQ: AtomicU64 = AtomicU64::new(0);

/// The flight recorder for `session`, created with
/// [`DEFAULT_RECORDER_CAPACITY`] on first use. A full registry
/// ([`MAX_TRACKED_SESSIONS`]) evicts its oldest-registered session.
pub fn recorder(session: &str) -> Arc<FlightRecorder> {
    let mut map = recorders().lock().expect("recorder registry poisoned");
    if !map.contains_key(session) && map.len() >= MAX_TRACKED_SESSIONS {
        if let Some(oldest) = map
            .iter()
            .min_by_key(|(_, (seq, _))| *seq)
            .map(|(k, _)| k.clone())
        {
            map.remove(&oldest);
        }
    }
    let entry = map.entry(session.to_string()).or_insert_with(|| {
        (
            RECORDER_SEQ.fetch_add(1, Ordering::Relaxed),
            Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY)),
        )
    });
    Arc::clone(&entry.1)
}

/// The flight recorder for `session`, if one exists.
pub fn lookup(session: &str) -> Option<Arc<FlightRecorder>> {
    recorders()
        .lock()
        .expect("recorder registry poisoned")
        .get(session)
        .map(|(_, rec)| Arc::clone(rec))
}

/// Drops `session`'s flight recorder (close/eviction housekeeping).
/// Holders of the `Arc` keep their handle; the registry forgets it.
pub fn remove(session: &str) {
    recorders()
        .lock()
        .expect("recorder registry poisoned")
        .remove(session);
}

/// The sessions that currently have a flight recorder, sorted.
pub fn sessions() -> Vec<String> {
    let mut names: Vec<String> = recorders()
        .lock()
        .expect("recorder registry poisoned")
        .keys()
        .cloned()
        .collect();
    names.sort();
    names
}

/// A deterministic 1-in-N head sampler.
///
/// `sample()` is one relaxed `fetch_add` plus a compare; with `every <= 1`
/// everything is sampled, and the first call is always sampled so short
/// sessions still produce spans. When telemetry is off it returns `false`
/// without touching the counter.
#[derive(Debug)]
pub struct Sampler {
    every: AtomicU64,
    counter: AtomicU64,
}

impl Sampler {
    /// A sampler keeping 1 in `every` decisions.
    pub const fn new(every: u64) -> Self {
        Self {
            every: AtomicU64::new(every),
            counter: AtomicU64::new(0),
        }
    }

    /// Changes the sampling period.
    pub fn set_every(&self, every: u64) {
        self.every.store(every.max(1), Ordering::Relaxed);
    }

    /// The current sampling period.
    pub fn every(&self) -> u64 {
        self.every.load(Ordering::Relaxed).max(1)
    }

    /// Whether this decision is sampled.
    #[inline]
    pub fn sample(&self) -> bool {
        if !crate::telemetry_on() {
            return false;
        }
        let every = self.every.load(Ordering::Relaxed);
        if every <= 1 {
            return true;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    }
}

/// Default sampling period for per-report hops; `RFIPAD_TRACE_SAMPLE`
/// overrides it at startup.
pub const DEFAULT_SAMPLE_EVERY: u64 = 16;

/// The process-global head sampler for per-report hops (stage pushes).
/// Initialized from `RFIPAD_TRACE_SAMPLE` on first use.
pub fn sampler() -> &'static Sampler {
    static SAMPLER: OnceLock<Sampler> = OnceLock::new();
    SAMPLER.get_or_init(|| {
        let every = std::env::var("RFIPAD_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_SAMPLE_EVERY)
            .max(1);
        Sampler::new(every)
    })
}

/// Default slow-span journaling threshold: 50 ms.
pub const DEFAULT_SLOW_SPAN_US: u64 = 50_000;

/// Sentinel meaning "not yet initialized from the environment".
const SLOW_UNINIT: u64 = u64::MAX;

static SLOW_SPAN_US: AtomicU64 = AtomicU64::new(SLOW_UNINIT);

/// The slow-span threshold in microseconds; spans at least this long are
/// journaled by [`finish_span`]. First call reads `RFIPAD_TRACE_SLOW_US`.
pub fn slow_span_us() -> u64 {
    let raw = SLOW_SPAN_US.load(Ordering::Relaxed);
    if raw != SLOW_UNINIT {
        return raw;
    }
    let us = std::env::var("RFIPAD_TRACE_SLOW_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_SLOW_SPAN_US);
    SLOW_SPAN_US.store(us, Ordering::Relaxed);
    us
}

/// Overrides the slow-span threshold (tests and tuning).
pub fn set_slow_span_us(us: u64) {
    SLOW_SPAN_US.store(us.min(SLOW_UNINIT - 1), Ordering::Relaxed);
}

/// Completes a span: journals it if it crossed the slow threshold, then
/// records it into the session's flight recorder.
pub fn finish_span(recorder: &FlightRecorder, event: SpanEvent) {
    let duration = event.duration_us();
    if duration >= slow_span_us() {
        crate::warn!("slow span"; name = event.name, duration_us = duration,
            trace = format_args!("{:016x}", event.trace.0));
    }
    recorder.record(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_id_streams_repeat() {
        seed_ids(42);
        let a: Vec<u64> = (0..8).map(|_| next_id()).collect();
        seed_ids(42);
        let b: Vec<u64> = (0..8).map(|_| next_id()).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&id| id != 0));
        // Distinct ids within the window.
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        seed_ids(DEFAULT_ID_SEED);
    }

    #[test]
    fn span_json_round_trips() {
        let span = SpanEvent {
            trace: TraceId(0xdead_beef),
            span: SpanId(7),
            parent: Some(SpanId(3)),
            name: "stage:framing \"odd\"\nname".into(),
            start_us: 10,
            end_us: 35,
        };
        let line = span.to_json();
        assert_eq!(SpanEvent::from_json(&line), Some(span.clone()));
        assert_eq!(span.duration_us(), 25);

        let root = SpanEvent {
            parent: None,
            ..span
        };
        let line = root.to_json();
        assert!(line.contains("\"parent\":null"));
        assert_eq!(SpanEvent::from_json(&line), Some(root));
        assert_eq!(SpanEvent::from_json("{\"nope\":1}"), None);
    }

    #[test]
    fn recorder_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(SpanEvent {
                trace: TraceId(1),
                span: SpanId(i + 1),
                parent: None,
                name: "hop".into(),
                start_us: i,
                end_us: i + 1,
            });
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // Oldest first, and the retained spans are the most recent.
        assert_eq!(spans[0].span, SpanId(7));
        assert_eq!(spans[3].span, SpanId(10));
        let dump = rec.to_json();
        assert!(dump.contains("\"dropped\":6"));
        let parsed: Vec<SpanEvent> = dump.lines().filter_map(SpanEvent::from_json).collect();
        assert_eq!(parsed, spans);
    }

    #[test]
    fn registry_creates_looks_up_and_removes() {
        let name = "trace-test-session";
        assert!(lookup(name).is_none());
        let rec = recorder(name);
        assert!(Arc::ptr_eq(&rec, &recorder(name)));
        assert!(sessions().contains(&name.to_string()));
        remove(name);
        assert!(lookup(name).is_none());
    }

    #[test]
    fn sampler_keeps_one_in_n() {
        let restore = crate::max_level();
        crate::set_level(crate::Level::Info);
        let s = Sampler::new(4);
        let hits = (0..16).filter(|_| s.sample()).count();
        assert_eq!(hits, 4);
        s.set_every(1);
        assert!(s.sample());
        crate::set_level(crate::Level::Off);
        assert!(!s.sample(), "telemetry off disables sampling");
        crate::set_level(restore);
    }

    #[test]
    fn slow_spans_reach_the_journal() {
        let restore_level = crate::max_level();
        crate::set_level(crate::Level::Info);
        let restore_slow = slow_span_us();
        set_slow_span_us(5);
        let rec = FlightRecorder::new(8);
        finish_span(
            &rec,
            SpanEvent {
                trace: TraceId(0xabc),
                span: SpanId(1),
                parent: None,
                name: "slow-span-probe".into(),
                start_us: 0,
                end_us: 100,
            },
        );
        let journal = crate::logging::journal_snapshot();
        assert!(
            journal
                .iter()
                .any(|e| e.message.contains("slow-span-probe")),
            "slow span journaled"
        );
        assert_eq!(rec.snapshot().len(), 1);
        set_slow_span_us(restore_slow);
        crate::set_level(restore_level);
    }

    #[test]
    fn concurrent_records_and_snapshots_stay_consistent() {
        let rec = std::sync::Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        rec.record(SpanEvent {
                            trace: TraceId(1),
                            span: SpanId(w * 1000 + i + 1),
                            parent: None,
                            name: format!("w{w}"),
                            start_us: i,
                            end_us: i + 1,
                        });
                    }
                })
            })
            .collect();
        // Snapshot and dump concurrently with the writers: every observed
        // state must be internally consistent and line-parseable.
        for _ in 0..50 {
            let snap = rec.snapshot();
            assert!(snap.len() <= 64, "ring overflowed: {}", snap.len());
            let dump = rec.to_json();
            let parsed = dump
                .lines()
                .filter_map(|l| SpanEvent::from_json(l.trim().trim_end_matches(',')))
                .count();
            assert!(parsed <= 64);
            std::thread::yield_now();
        }
        for w in writers {
            w.join().expect("writer");
        }
        // Quiesced: retention accounting is exact.
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(rec.dropped() + snap.len() as u64, 800);
        let dump = rec.to_json();
        let parsed = dump
            .lines()
            .filter_map(|l| SpanEvent::from_json(l.trim().trim_end_matches(',')))
            .count();
        assert_eq!(parsed, 64);
    }
}
