//! `ingest`: recorded word sessions fed in large batches to an `Engine`,
//! closed loop, in process.
//!
//! Set-up records multi-letter word sessions (each the concatenation of
//! per-letter `Bench::record_session` streams, as a live kiosk sees them)
//! and keeps them as in-memory binary traces. The run decodes them with
//! `TraceSource::next_batch` and feeds them with
//! `SessionHandle::ingest_batch` to an `Engine` with `nproc` workers under
//! `Backpressure::Block`, keeping `2 × nproc` sessions in flight from one
//! feeder thread and cycling through the corpus until its time is up.
//! Every closed session must reproduce the single-stream `StageGraph`
//! replay and conserve its reports.

use crate::spans;
use crate::stages::{composed_replay, reference_replay, STAGE_SPANS};
use crate::{
    child_seed, letters_matched, median, recognized_letters, EndToEnd, Layers, Outcome, RunConfig,
    Scale, Windowed,
};
use experiments::trial::Bench;
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rfid_gen2::report::{ReportBatch, TagReport};
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::trace::{write_trace, TraceFormat};
use rfipad::engine::{normalize_events, Backpressure, Engine, SessionHandle};
use rfipad::{OnlinePipeline, PipelineEvent};
use std::time::{Duration, Instant};

/// Idle time that closes a letter in the session pipelines.
pub const LETTER_GAP_S: f64 = 1.5;
/// Absent-hand time between the letters of a recorded word; longer than
/// twice the recording margin, so the letters' recordings do not overlap.
pub const WORD_LETTER_GAP_S: f64 = 2.5;
/// Reports per `ingest_batch` call.
pub const BATCH: usize = 1024;
/// Engine queue capacity, in batches.
pub const QUEUE_ITEMS: usize = 4;
/// Sessions in each run of the traced measurement (8 passes over the
/// full corpus).
const TRACED_SESSIONS: usize = 192;
/// Throughput window, s.
const WINDOW_S: f64 = 1.0;

/// One recorded word session.
#[derive(Debug)]
pub struct Session {
    /// The word written.
    pub word: String,
    /// The reports as an in-memory binary trace.
    pub trace: Vec<u8>,
    /// Reports in the trace.
    pub reports: usize,
    /// The single-stream `StageGraph` replay, normalized.
    pub reference: Vec<PipelineEvent>,
}

/// A calibrated bench and the recorded corpus of one seed.
#[derive(Debug)]
pub struct Setup {
    /// The bench the corpus was recorded on.
    pub bench: Bench,
    /// The word sessions.
    pub sessions: Vec<Session>,
}

/// Records one word session by `volunteer` at lab location 1.
fn record_word(bench: &Bench, seed: u64, word: &str, volunteer: usize) -> Vec<TagReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let user = UserProfile::volunteer(volunteer);
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let mut reports = Vec::new();
    for session in writer.write_word(word, 1.0, WORD_LETTER_GAP_S, &mut rng) {
        reports.extend(bench.record_session(&session, &user, &mut rng));
    }
    reports.sort_by(|a, b| a.time.total_cmp(&b.time));
    reports
}

/// Calibrates the bench and records the corpus: 26 words of four letters,
/// every letter four times (`Tiny`: four words of two letters).
pub fn setup(seed: u64, scale: Scale) -> Setup {
    let bench = crate::bench_at(1, child_seed(seed, 1));
    let (words, len) = match scale {
        Scale::Full => (26, 4),
        Scale::Tiny => (4, 2),
    };
    let mut rng = StdRng::seed_from_u64(child_seed(seed, 2));
    // Every seed writes the same letters, the alphabet over and over, in
    // its own order; the volunteers take turns.
    let mut letters: Vec<char> = ('A'..='Z').cycle().take(words * len).collect();
    for i in (1..letters.len()).rev() {
        letters.swap(i, rng.random_range(0..i + 1));
    }
    let first_user = rng.random_range(0..10);
    let plan: Vec<(u64, String, usize)> = letters
        .chunks(len)
        .enumerate()
        .map(|(i, w)| {
            let user = 1 + (first_user + i) % 10;
            (rng.random(), w.iter().collect(), user)
        })
        .collect();
    let sessions = plan
        .par_iter()
        .map(|(s, word, user)| {
            let reports = record_word(&bench, *s, word, *user);
            let mut trace = Vec::new();
            write_trace(&mut trace, TraceFormat::Binary, &reports).expect("in-memory write");
            Session {
                word: word.clone(),
                trace,
                reports: reports.len(),
                reference: Vec::new(),
            }
        })
        .collect();
    Setup { bench, sessions }
}

/// Fills in each session's reference replay (a check, not set-up).
fn add_references(setup: &mut Setup) {
    let recognizer = &setup.bench.recognizer;
    let refs: Vec<Vec<PipelineEvent>> = setup
        .sessions
        .par_iter()
        .map(|s| reference_replay(recognizer, LETTER_GAP_S, &decode_all(&s.trace)))
        .collect();
    for (s, r) in setup.sessions.iter_mut().zip(refs) {
        s.reference = r;
    }
}

fn decode_all(trace: &[u8]) -> Vec<TagReport> {
    let mut source = TraceSource::from_reader(trace).expect("a binary trace");
    source.try_collect_reports().expect("a well-formed trace")
}

/// An engine with `workers` workers, as the workload configures it.
pub fn engine(workers: usize) -> Engine {
    Engine::builder()
        .workers(workers)
        .queue_capacity(QUEUE_ITEMS)
        .backpressure(Backpressure::Block)
        .build()
        .expect("a valid engine configuration")
}

/// When a feed stops opening sessions.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (sessions in flight still finish).
    At(Instant),
    /// After this many sessions were opened, cycling through the corpus.
    Sessions(usize),
}

/// What one feed measured.
#[derive(Debug, Default)]
pub struct Feed {
    /// Wall time, s.
    pub wall_s: f64,
    /// Reports accepted.
    pub reports: u64,
    /// Letter events delivered.
    pub letters: u64,
    /// Reports per CPU-second in each full window.
    pub window_reports_per_cpu_s: Vec<f64>,
    /// Letters per CPU-second in each full window.
    pub window_letters_per_cpu_s: Vec<f64>,
    /// `ingest_batch` call durations, µs, per window.
    pub ingest_us: Windowed,
    /// `close_with_stats` durations, ms, per window.
    pub close_ms: Windowed,
    /// Each recognized letter's `response_time_s`, ms, per window.
    pub letter_ms: Windowed,
    /// Median and 99th-percentile push latency of each session, ns.
    pub push_ns: Vec<(f64, f64)>,
    /// Reports dropped by the engine.
    pub dropped: u64,
}

struct Lane<'a> {
    index: usize,
    key: u64,
    handle: SessionHandle,
    source: TraceSource<&'a [u8]>,
    accepted: u64,
    dropped: u64,
}

fn open_lane<'a>(
    engine: &Engine,
    setup: &'a Setup,
    index: usize,
    key: u64,
    out: &mut Outcome,
) -> Option<Lane<'a>> {
    let pipeline = OnlinePipeline::builder()
        .recognizer(setup.bench.recognizer.clone())
        .letter_gap_s(LETTER_GAP_S)
        .build()
        .expect("a calibrated recognizer builds a pipeline");
    let handle = spans::span("engine.open", key, || {
        engine.open_session(format!("s{key}"), pipeline)
    });
    let source = TraceSource::from_reader(setup.sessions[index].trace.as_slice());
    match (handle, source) {
        (Ok(handle), Ok(source)) => Some(Lane {
            index,
            key,
            handle,
            source,
            accepted: 0,
            dropped: 0,
        }),
        (h, s) => {
            out.attempted += 1;
            out.fail(format!(
                "session {key}: open failed ({:?} / {:?})",
                h.err(),
                s.err()
            ));
            None
        }
    }
}

/// Feeds corpus sessions to `engine` from this thread, `lanes` at a time,
/// checking every closed session.
pub fn feed(engine: &Engine, setup: &Setup, lanes: usize, stop: Stop, out: &mut Outcome) -> Feed {
    let mut f = Feed::default();
    let n = setup.sessions.len();
    let mut next = 0usize;
    let start = Instant::now();
    let may_open = |next: usize| match stop {
        Stop::At(t) => Instant::now() < t,
        Stop::Sessions(count) => next < count,
    };
    let mut active: Vec<Lane> = Vec::new();
    while active.len() < lanes && may_open(next) {
        active.extend(open_lane(engine, setup, next % n, next as u64, out));
        next += 1;
    }
    let (mut win_start, mut win_reports, mut win_letters) = (start, 0u64, 0u64);
    let mut win_cpu = crate::process_cpu_s();
    let mut batch = ReportBatch::with_capacity(BATCH);
    let mut li = 0;
    while !active.is_empty() {
        li %= active.len();
        let lane = &mut active[li];
        let key = lane.key;
        let got = spans::span("trace.decode", key, || {
            lane.source.next_batch(BATCH, &mut batch)
        });
        if got > 0 {
            let full = std::mem::replace(&mut batch, ReportBatch::with_capacity(BATCH));
            let t0 = Instant::now();
            let receipt = spans::span("engine.ingest", key, || lane.handle.ingest_batch(full));
            f.ingest_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match receipt {
                Ok(r) => {
                    lane.accepted += r.accepted;
                    lane.dropped += r.dropped;
                    f.reports += r.accepted;
                    win_reports += r.accepted;
                }
                Err(e) => out.fail(format!("session {key}: ingest failed: {e}")),
            }
            li += 1;
        } else {
            let lane = active.swap_remove(li);
            win_letters += close_lane(lane, setup, &mut f, out);
            if may_open(next) {
                active.extend(open_lane(engine, setup, next % n, next as u64, out));
                next += 1;
            }
        }
        let now = Instant::now();
        let win = now.duration_since(win_start).as_secs_f64();
        if win >= WINDOW_S {
            let cpu = crate::process_cpu_s();
            let cpu_s = cpu - win_cpu;
            f.window_reports_per_cpu_s
                .push(crate::ratio(win_reports as f64, cpu_s));
            f.window_letters_per_cpu_s
                .push(crate::ratio(win_letters as f64, cpu_s));
            win_cpu = cpu;
            f.ingest_us.cut();
            f.close_ms.cut();
            f.letter_ms.cut();
            (win_start, win_reports, win_letters) = (now, 0, 0);
        }
    }
    f.wall_s = start.elapsed().as_secs_f64();
    f
}

/// Closes a finished lane and checks it; returns its letter events.
fn close_lane(lane: Lane, setup: &Setup, f: &mut Feed, out: &mut Outcome) -> u64 {
    let Lane {
        index,
        key,
        handle,
        source,
        accepted,
        dropped,
    } = lane;
    let session = &setup.sessions[index];
    out.attempted += 1;
    if let Some(e) = source.error() {
        out.fail(format!("session {key}: trace decode failed: {e}"));
        return 0;
    }
    let t0 = Instant::now();
    let closed = spans::span("engine.close.wait", key, || handle.close_with_stats());
    f.close_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let (mut events, stats) = match closed {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("session {key}: close failed: {e}"));
            return 0;
        }
    };
    for e in &events {
        if let PipelineEvent::LetterRecognized {
            response_time_s, ..
        } = e
        {
            f.letter_ms.push(response_time_s * 1e3);
        }
    }
    f.dropped += dropped.max(stats.reports_dropped);
    f.push_ns.push((
        stats.push_latency.p50_ns as f64,
        stats.push_latency.p99_ns as f64,
    ));
    normalize_events(&mut events);
    let letters = recognized_letters(&events);
    f.letters += letters.chars().count() as u64;
    if accepted + dropped != session.reports as u64 || dropped != 0 || stats.reports_dropped != 0 {
        out.fail(format!(
            "session {key}: receipts accepted {accepted} + dropped {dropped} of {} sent \
             (engine dropped {})",
            session.reports, stats.reports_dropped
        ));
    } else if events != session.reference {
        out.fail(format!(
            "session {key}: {} events differ from the single-stream replay's {}",
            events.len(),
            session.reference.len()
        ));
    }
    letters.chars().count() as u64
}

/// Written letters the corpus sessions recognize in order, as a share of
/// all letters written. Every served session reproduces its reference, so
/// this is the served accuracy.
fn accuracy(setup: &Setup) -> f64 {
    let (matched, written) = setup.sessions.iter().fold((0, 0), |(m, w), s| {
        let letters = recognized_letters(&s.reference);
        (m + letters_matched(&s.word, &letters), w + s.word.len())
    });
    crate::ratio(matched as f64, written as f64)
}

/// The ingest workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let ((mut setup, engine), setup_s) = crate::timed_setup(cfg.scale, false, || {
        let setup = setup(cfg.seed, cfg.scale);
        (setup, engine(crate::nproc()))
    });
    add_references(&mut setup);
    let mut out = Outcome::default();
    let lanes = 2 * crate::nproc();
    if cfg.trace {
        traced(cfg, &setup, engine, &mut out);
        return out;
    }
    let stop = Stop::At(Instant::now() + Duration::from_secs_f64(cfg.seconds));
    let cpu0 = crate::process_cpu_s();
    let mut f = feed(&engine, &setup, lanes, stop, &mut out);
    let cpu_s = crate::process_cpu_s() - cpu0;
    engine.shutdown();
    crate::report_tail("ingest_batch latency", "us", &f.ingest_us.samples());
    crate::report_tail("close latency", "ms", &f.close_ms.samples());
    crate::report_tail("letter (result) latency", "ms", &f.letter_ms.samples());
    if f.window_reports_per_cpu_s.is_empty() {
        f.window_reports_per_cpu_s
            .push(crate::ratio(f.reports as f64, cpu_s));
        f.window_letters_per_cpu_s
            .push(crate::ratio(f.letters as f64, cpu_s));
    }
    EndToEnd {
        setup_s,
        letter_accuracy: accuracy(&setup),
        letters_per_cpu_s: median(&mut f.window_letters_per_cpu_s),
        reports_per_cpu_s: median(&mut f.window_reports_per_cpu_s),
        result_latency_p50_ms: f.letter_ms.percentile(0.50),
        ..EndToEnd::default()
    }
    .emit(&mut out);
    out
}

/// The traced run: one untraced and one traced corpus pass with `nproc`
/// workers, a one-worker baseline, and the composed stage replay of the
/// corpus.
fn traced(cfg: &RunConfig, setup: &Setup, engine: Engine, out: &mut Outcome) {
    let lanes = 2 * crate::nproc();
    // A warm-up pass, then untraced and traced runs of TRACED_SESSIONS
    // sessions.
    let passes = Stop::Sessions(TRACED_SESSIONS);
    feed(
        &engine,
        setup,
        lanes,
        Stop::Sessions(setup.sessions.len()),
        out,
    );
    let spans::BestPair {
        untraced,
        traced,
        mut spans,
        root,
        ..
    } = spans::best_pair(3, |_| feed(&engine, setup, lanes, passes, out));
    let rate = |f: &Feed| f.reports as f64 / f.wall_s;

    spans::set_enabled(true);
    let mut counts = crate::stages::StageCounts::default();
    spans::span("composed", 0, || {
        for (i, s) in setup.sessions.iter().enumerate() {
            let (events, c) = composed_replay(
                &setup.bench.recognizer,
                LETTER_GAP_S,
                i as u64,
                &decode_all(&s.trace),
            );
            counts += c;
            out.attempted += 1;
            if events != s.reference {
                out.fail(format!(
                    "session {i}: composed stages diverged from the StageGraph replay"
                ));
            }
        }
    });
    spans::set_enabled(false);
    engine.shutdown();
    spans.extend(spans::take());

    let single = engine_single_worker(setup, lanes, out);

    let mut layers = Layers::default();
    layers.set_span_stats(&spans);
    layers.set_stage_counts(&counts);
    let stat = spans::layer_stats(&spans);
    let busy = |name: &str| stat.get(name).map(|s| s.busy_s).unwrap_or(0.0);
    layers.set("trace.decode.reports", traced.reports as f64);
    layers.set("engine.ingest.blocked_s", busy("engine.ingest"));
    layers.set("engine.close.wait_s", busy("engine.close.wait"));
    let mut p50: Vec<f64> = untraced.push_ns.iter().map(|p| p.0).collect();
    let mut p99: Vec<f64> = untraced.push_ns.iter().map(|p| p.1).collect();
    layers.set("engine.push_p50_ns", median(&mut p50));
    layers.set("engine.push_p99_ns", median(&mut p99));
    layers.set(
        "engine.reports_dropped",
        (untraced.dropped + traced.dropped) as f64,
    );
    layers.set("ingest.single_worker_reports_per_s", single);
    layers.set(
        "ingest.worker_speedup",
        crate::ratio(rate(&untraced), single),
    );
    layers.set("ingest.speedup_base_workers", crate::nproc() as f64);
    eprintln!(
        "ingest: {:.0} reports/s with {} workers, {single:.0} with 1 worker",
        rate(&untraced),
        crate::nproc()
    );

    let mut order = vec![
        "engine.open",
        "trace.decode",
        "engine.ingest",
        "engine.close.wait",
    ];
    order.extend(STAGE_SPANS);
    let wf = spans::Waterfall::build(&spans, root, untraced.wall_s, &order);
    layers.set_trace_figures(&wf);
    crate::print_waterfall(&wf, "ingest, feeder thread");
    if let Err(e) = spans::write_tsv(&spans, &crate::span_file("ingest", cfg.seed)) {
        eprintln!("could not write spans: {e}");
    }
    layers.emit(out);
}

/// Reports per second of [`TRACED_SESSIONS`] sessions fed to a
/// one-worker engine (after a warm-up pass).
fn engine_single_worker(setup: &Setup, lanes: usize, out: &mut Outcome) -> f64 {
    let engine = engine(1);
    feed(
        &engine,
        setup,
        lanes,
        Stop::Sessions(setup.sessions.len()),
        out,
    );
    let f = feed(&engine, setup, lanes, Stop::Sessions(TRACED_SESSIONS), out);
    engine.shutdown();
    f.reports as f64 / f.wall_s
}
