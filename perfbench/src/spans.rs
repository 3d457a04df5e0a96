//! In-memory span recording for the traced run.
//!
//! A span is one timed call of the benchmark into a layer: its name, start,
//! end, parent (the enclosing span on the same thread) and a key naming the
//! trial or session it belongs to. Spans are kept in memory while the run
//! lasts and written out once at its end ([`write_tsv`]). With recording
//! off, [`span`] is a plain call.
//!
//! From the spans the run derives each layer's *self time* (a span's
//! duration minus the time its child spans cover) and a [`Waterfall`]: the
//! self times along one thread's blocking path, set against the untraced
//! wall time of the same work.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Recording thread.
    pub thread: u32,
    /// Trial or session the call belongs to.
    pub key: u64,
    /// Layer call name, e.g. `gen2.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
    record(name, key, f).0
}

/// Runs `f` inside a span and returns the span's id with the result (0
/// when recording is off).
pub fn record<T>(name: &'static str, key: u64, f: impl FnOnce() -> T) -> (T, u64) {
    if !enabled() {
        return (f(), 0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let thread = THREAD.with(|t| *t);
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        thread,
        key,
        name,
        start_ns,
        end_ns,
    });
    (out, id)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Writes spans as tab-separated lines: id, parent, thread, key, name,
/// start ns, end ns.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tthread\tkey\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.key, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub busy_s: f64,
}

/// Self time of every span, by id.
fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut child_s: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_s.entry(s.parent).or_default() += s.secs();
        }
    }
    spans
        .iter()
        .map(|s| (s.id, s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0)))
        .collect()
}

/// Calls and busy time per span name.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.busy_s += s.secs();
    }
    out
}

/// The layers' self times along one blocking path, against the untraced
/// wall time of the same work.
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Self time per layer under the root, seconds, in path order.
    pub rows: Vec<(&'static str, f64)>,
    /// Wall time of the untraced run of the same work, seconds.
    pub untraced_wall_s: f64,
    /// Wall time of the traced root span, seconds.
    pub traced_wall_s: f64,
    /// Largest |unaccounted share| the benchmark accepts.
    pub tolerance: f64,
}

/// Tolerance on a waterfall's unaccounted share: the self times along the
/// blocking path must sum to within 25% of the untraced wall time. Tracing
/// overhead and host noise on a small shared machine both land here.
pub const WATERFALL_TOLERANCE: f64 = 0.25;

impl Waterfall {
    /// Builds the waterfall of every span under `root` (the root's own
    /// self time is the unaccounted glue). `order` lists the layers in
    /// path order; layers not listed follow by name.
    pub fn build(spans: &[Span], root: u64, untraced_wall_s: f64, order: &[&'static str]) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        let selfs = self_times(spans);
        let mut per_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for c in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                *per_name.entry(c.name).or_default() += selfs[&c.id];
                stack.push(c.id);
            }
        }
        let mut rows: Vec<(&'static str, f64)> = order
            .iter()
            .filter_map(|n| per_name.remove(n).map(|v| (*n, v)))
            .collect();
        rows.extend(per_name);
        let traced_wall_s = spans
            .iter()
            .find(|s| s.id == root)
            .map(Span::secs)
            .unwrap_or(0.0);
        Self {
            rows,
            untraced_wall_s,
            traced_wall_s,
            tolerance: WATERFALL_TOLERANCE,
        }
    }

    /// Summed self times of the layers, seconds.
    pub fn accounted_s(&self) -> f64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Share of the untraced wall time the layers do not account for
    /// (negative when tracing made the layers sum to more).
    pub fn unaccounted_share(&self) -> f64 {
        if self.untraced_wall_s > 0.0 {
            (self.untraced_wall_s - self.accounted_s()) / self.untraced_wall_s
        } else {
            0.0
        }
    }

    /// Whether the layers sum to the untraced wall time within tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.unaccounted_share().abs() <= self.tolerance
    }

    /// The waterfall as a human-readable table.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!(
            "waterfall [{title}]: untraced wall {:.4} s, traced wall {:.4} s\n",
            self.untraced_wall_s, self.traced_wall_s
        );
        for (name, secs) in &self.rows {
            let share = if self.untraced_wall_s > 0.0 {
                secs / self.untraced_wall_s
            } else {
                0.0
            };
            s.push_str(&format!(
                "  {name:<28} {secs:>10.4} s  {:>6.1}%\n",
                share * 100.0
            ));
        }
        s.push_str(&format!(
            "  {:<28} {:>10.4} s  {:>6.1}%  (tolerance ±{:.0}%)\n",
            "unaccounted",
            self.untraced_wall_s - self.accounted_s(),
            self.unaccounted_share() * 100.0,
            self.tolerance * 100.0
        ));
        s
    }
}

/// The least disturbed untraced and traced runs of the same work.
#[derive(Debug)]
pub struct BestPair<T> {
    /// Wall time of the fastest untraced run, s.
    pub untraced_s: f64,
    /// Output of the fastest untraced run.
    pub untraced: T,
    /// Output of the fastest traced run.
    pub traced: T,
    /// Spans of the fastest traced run.
    pub spans: Vec<Span>,
    /// Its root span, named `pass`.
    pub root: u64,
}

/// Runs `work` untraced and traced, alternately, `pairs` times. `work`
/// gets whether spans are being recorded. Noise on a shared machine only
/// adds time, so the fastest run of each kind is the least disturbed one;
/// their difference is the tracing overhead.
///
/// # Panics
///
/// If `pairs` is 0.
pub fn best_pair<T>(pairs: usize, mut work: impl FnMut(bool) -> T) -> BestPair<T> {
    assert!(pairs > 0, "at least one pair");
    let mut untraced: Option<(f64, T)> = None;
    let mut traced: Option<(f64, T, Vec<Span>, u64)> = None;
    for _ in 0..pairs {
        let t0 = std::time::Instant::now();
        let out = work(false);
        let wall = t0.elapsed().as_secs_f64();
        if untraced.as_ref().is_none_or(|b| wall < b.0) {
            untraced = Some((wall, out));
        }
        take();
        set_enabled(true);
        let (out, root) = record("pass", 0, || work(true));
        set_enabled(false);
        let spans = take();
        let wall = spans
            .iter()
            .find(|s| s.id == root)
            .map_or(f64::INFINITY, Span::secs);
        if traced.as_ref().is_none_or(|b| wall < b.0) {
            traced = Some((wall, out, spans, root));
        }
    }
    let (untraced_s, untraced) = untraced.expect("pairs > 0");
    let (_, traced, spans, root) = traced.expect("pairs > 0");
    BestPair {
        untraced_s,
        untraced,
        traced,
        spans,
        root,
    }
}
