//! `serve`: an open-loop schedule of pad sessions over loopback RFIW.
//!
//! Set-up records one letter per corpus entry, cuts each recording into
//! BATCH frames of 100 ms of reads, and starts an `IngestServer` (with an
//! `EventSink` the benchmark owns) over an `Engine` with `nproc` workers,
//! plus `nproc` client connections. The run multiplexes [`PADS`] pads over
//! the connections; each pad writes letters back to back (OPEN, its
//! BATCHes, CLOSE), replayed at [`SPEED`]× real time. Every frame is due
//! at a fixed time: latencies count from the due time, not the send time,
//! so a slow server shows even when it delays the generator. After
//! [`PACED_SHARE`] of the run, the same pads run unpaced, every client
//! sending back to back; the throughput figures come from that part.
//!
//! The client threads never sleep or block: they wait for due times and
//! responses by yielding their core and spinning (see [`SpinStream`]).
//! The CPUs stay awake, so a frame's latency is the server's work and its
//! thread hand-offs, not the host waking an idle virtual CPU. The
//! throughput figures count only the CPU time of the rest of the process
//! (the server, engine and sink), not the clients'.

use crate::spans;
use crate::stages::{composed_replay, reference_replay, STAGE_SPANS};
use crate::{
    child_seed, median, percentile, recognized_letters, EndToEnd, Layers, Outcome, RunConfig,
    Scale, Windowed,
};
use experiments::trial::Bench;
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rfid_gen2::report::{ReportBatch, TagReport};
use rfid_gen2::wire::{decode_payload_v, encode_frame_v, Frame, IngestClient, WIRE_VERSION};
use rfipad::engine::{normalize_events, Backpressure, Engine};
use rfipad::serve::{EventSink, IngestServer};
use rfipad::{OnlinePipeline, PipelineEvent, Recognizer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle time that closes a letter in the session pipelines.
pub const LETTER_GAP_S: f64 = 1.5;
/// Recorded time one BATCH frame covers, s.
pub const BATCH_SPAN_S: f64 = 0.1;
/// Pads writing concurrently.
pub const PADS: usize = 16;
/// Replay speed relative to real time.
pub const SPEED: f64 = 4.0;
/// Share of an untraced run that follows the schedule; the rest measures
/// capacity, every client sending back to back.
pub const PACED_SHARE: f64 = 0.6;
/// Latency windows, s: percentiles are taken per window of due times
/// and reported as the median over windows. CLOSEs are rarer than
/// BATCHes, so their windows are longer.
const ACK_WINDOW_S: f64 = 1.0;
const CLOSE_WINDOW_S: f64 = 5.0;

/// A nonblocking TCP stream whose reads and writes wait by yielding and
/// spinning instead of blocking.
#[derive(Debug)]
pub struct SpinStream(TcpStream);

impl SpinStream {
    /// Connects to `addr` without Nagle's delay.
    ///
    /// # Errors
    ///
    /// Connection faults.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self(stream))
    }
}

/// Retries `op` while it would block.
fn spin_io(mut op: impl FnMut() -> std::io::Result<usize>) -> std::io::Result<usize> {
    loop {
        match op() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            done => return done,
        }
    }
}

impl Read for SpinStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        spin_io(|| self.0.read(buf))
    }
}

impl Write for SpinStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        spin_io(|| self.0.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// One recorded letter, cut into BATCH frames.
#[derive(Debug)]
pub struct Letter {
    /// The letter written.
    pub truth: char,
    /// The frames' reports.
    pub batches: Vec<ReportBatch>,
    /// When each batch is due, s after the session opens (real time).
    pub due_s: Vec<f64>,
    /// When the CLOSE is due, s after the session opens (real time).
    pub close_s: f64,
    /// Reports in the recording.
    pub reports: usize,
    /// The single-stream `StageGraph` replay, normalized.
    pub reference: Vec<PipelineEvent>,
    /// The reports, for the composed replay.
    pub raw: Vec<TagReport>,
}

/// Events the server delivered, with the emit-layer tallies.
#[derive(Debug, Default)]
pub struct BenchSink {
    /// How long each delivery stalls (a slow consumer).
    pub stall: Duration,
    delivered: Mutex<Vec<(String, Vec<PipelineEvent>)>>,
    sessions: AtomicU64,
    events: AtomicU64,
    busy_ns: AtomicU64,
}

impl EventSink for BenchSink {
    fn on_events(&self, session: &str, events: Vec<PipelineEvent>) {
        spans::span("emit", 0, || {
            let t0 = Instant::now();
            if !self.stall.is_zero() {
                std::thread::sleep(self.stall);
            }
            self.sessions.fetch_add(1, Ordering::Relaxed);
            self.events
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            self.delivered
                .lock()
                .expect("sink poisoned")
                .push((session.to_owned(), events));
            self.busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
    }
}

/// The running system and its inputs.
pub struct Setup {
    /// The recorded letters.
    pub letters: Vec<Letter>,
    /// The calibrated recognizer every session runs.
    pub recognizer: Recognizer,
    /// The engine behind the server.
    pub engine: Arc<Engine>,
    /// The server.
    pub server: IngestServer,
    /// The benchmark's sink.
    pub sink: Arc<BenchSink>,
    /// One client per connection.
    pub clients: Vec<IngestClient<SpinStream>>,
    /// Time each client took to connect, ms.
    pub connect_ms: Vec<f64>,
}

/// Records the corpus — every letter four times (`Tiny`: three letters),
/// by the ten volunteers in turn, at lab location 1 — and starts the
/// server and clients.
pub fn setup(seed: u64, scale: Scale, stall: Duration) -> Setup {
    let bench = crate::bench_at(1, child_seed(seed, 1));
    let letters: Vec<char> = match scale {
        Scale::Full => ('A'..='Z').cycle().take(4 * 26).collect(),
        Scale::Tiny => vec!['L', 'T', 'V'],
    };
    let mut rng = StdRng::seed_from_u64(child_seed(seed, 3));
    // The volunteers take turns, so every seed has the same mix of writers.
    let first_user = rng.random_range(0..10);
    let plan: Vec<(char, u64, usize)> = letters
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, rng.random(), 1 + (first_user + i) % 10))
        .collect();
    let letters = plan
        .par_iter()
        .map(|&(c, s, user)| record_letter(&bench, c, s, user))
        .collect();
    start(bench, letters, stall)
}

fn record_letter(bench: &Bench, truth: char, seed: u64, volunteer: usize) -> Letter {
    let mut rng = StdRng::seed_from_u64(seed);
    let user = UserProfile::volunteer(volunteer);
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let session = writer.write_letter(truth, 1.0, &mut rng);
    let raw = bench.record_session(&session, &user, &mut rng);
    let t0 = raw.first().map(|r| r.time).unwrap_or(0.0);
    let mut batches: Vec<ReportBatch> = Vec::new();
    let mut due_s = Vec::new();
    let mut window = None;
    for r in &raw {
        let w = ((r.time - t0) / BATCH_SPAN_S).floor() as i64;
        if window != Some(w) {
            window = Some(w);
            batches.push(ReportBatch::new());
            due_s.push((w + 1) as f64 * BATCH_SPAN_S / SPEED);
        }
        batches.last_mut().expect("pushed above").push(*r);
    }
    let close_s = due_s.last().copied().unwrap_or(0.0) + BATCH_SPAN_S / SPEED;
    Letter {
        truth,
        batches,
        due_s,
        close_s,
        reports: raw.len(),
        reference: Vec::new(),
        raw,
    }
}

fn start(bench: Bench, letters: Vec<Letter>, stall: Duration) -> Setup {
    let engine = Arc::new(
        Engine::builder()
            .workers(crate::nproc())
            .backpressure(Backpressure::Block)
            .build()
            .expect("a valid engine configuration"),
    );
    let sink = Arc::new(BenchSink {
        stall,
        ..BenchSink::default()
    });
    let recognizer = bench.recognizer.clone();
    let server = IngestServer::builder()
        .addr("127.0.0.1:0")
        .engine(Arc::clone(&engine))
        .pipeline_factory(move |_| {
            OnlinePipeline::builder()
                .recognizer(recognizer.clone())
                .letter_gap_s(LETTER_GAP_S)
                .build()
        })
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("the ingest server starts");
    let addr = server.local_addr();
    let mut clients = Vec::new();
    let mut connect_ms = Vec::new();
    for _ in 0..crate::nproc() {
        let t0 = Instant::now();
        let stream = SpinStream::connect(addr).expect("loopback connect");
        clients.push(IngestClient::from_stream(stream).expect("RFIW handshake"));
        connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Setup {
        letters,
        recognizer: bench.recognizer,
        engine,
        server,
        sink,
        clients,
        connect_ms,
    }
}

/// What the clients measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Sessions closed.
    pub sessions: u64,
    /// Reports acknowledged.
    pub reports: u64,
    /// BATCH due → ACK, µs, tagged with the due time's window.
    pub ack_us: Vec<(usize, f64)>,
    /// CLOSE due → CLOSED, ms, tagged with the due time's window.
    pub close_ms: Vec<(usize, f64)>,
    /// How late each frame was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Frames sent.
    pub frames: u64,
    /// ACK responses.
    pub acks: u64,
    /// SHED responses.
    pub sheds: u64,
    /// ERROR responses and transport faults.
    pub errors: u64,
    /// Per closed session: engine-side id suffix, letter index, and
    /// whether the client-side checks passed.
    pub closed: Vec<(String, usize, bool)>,
    /// Per connection, in order: time from the run's start to its last
    /// response, s.
    pub wall_s: Vec<f64>,
    /// CPU time of the client threads, s.
    pub client_cpu_s: f64,
}

impl Served {
    fn absorb(&mut self, o: Served) {
        self.sessions += o.sessions;
        self.reports += o.reports;
        self.ack_us.extend(o.ack_us);
        self.close_ms.extend(o.close_ms);
        self.lag_ms.extend(o.lag_ms);
        self.frames += o.frames;
        self.acks += o.acks;
        self.sheds += o.sheds;
        self.errors += o.errors;
        self.closed.extend(o.closed);
        self.wall_s.extend(o.wall_s);
        self.client_cpu_s += o.client_cpu_s;
    }
}

/// One pad's place in its schedule.
struct Pad {
    id: usize,
    /// Sessions this pad started so far.
    k: usize,
    letter: usize,
    opened: Instant,
    /// 0 = OPEN, `1..=batches` = BATCH, `batches + 1` = CLOSE.
    step: usize,
    accepted: u64,
    ok: bool,
}

/// Drives the pads of one connection until `deadline`; pads in mid-letter
/// at the deadline finish their letter on schedule.
fn drive(
    client: &mut IngestClient<SpinStream>,
    letters: &[Letter],
    pads: Vec<usize>,
    t0: Instant,
    deadline: Instant,
    paced: bool,
    abort: &AtomicBool,
) -> Served {
    let mut s = Served::default();
    let window = |due: Instant, len: f64| (due.duration_since(t0).as_secs_f64() / len) as usize;
    let n = letters.len();
    let mean_s = letters.iter().map(|l| l.close_s).sum::<f64>() / n as f64;
    let mut state: Vec<Pad> = Vec::new();
    let mut heap = BinaryHeap::new();
    let mut last_response = t0;
    for id in pads {
        // Stagger the pads' first letters evenly over one mean letter.
        let opened = t0 + Duration::from_secs_f64(mean_s * id as f64 / PADS as f64);
        heap.push(Reverse((opened, state.len())));
        state.push(Pad {
            id,
            k: 0,
            letter: id % n,
            opened,
            step: 0,
            accepted: 0,
            ok: true,
        });
    }
    while let Some(Reverse((due, p))) = heap.pop() {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let pad = &mut state[p];
        let start_by = if paced { due } else { Instant::now() };
        if pad.step == 0 && start_by >= deadline {
            continue;
        }
        let letter = &letters[pad.letter];
        let sid = format!("p{}k{}i{}", pad.id, pad.k, pad.letter);
        let batches = letter.batches.len();
        let frame = match pad.step {
            0 => Frame::Open {
                session: sid.clone(),
                trace: None,
            },
            b if b <= batches => Frame::Batch {
                session: sid.clone(),
                seq: b as u32,
                reports: letter.batches[b - 1].clone(),
                trace: None,
            },
            _ => Frame::Close {
                session: sid.clone(),
            },
        };
        if paced {
            spans::span("loadgen.wait", pad.id as u64, || crate::spin_until(due));
            s.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        s.frames += 1;
        let name = match frame {
            Frame::Open { .. } => "serve.open",
            Frame::Batch { .. } => "serve.batch",
            _ => "serve.close",
        };
        let response = spans::span(name, pad.id as u64, || client.round_trip(&frame));
        let done = Instant::now();
        last_response = done;
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                s.errors += 1;
                eprintln!("connection fault on {sid}: {e}");
                abort.store(true, Ordering::Relaxed);
                break;
            }
        };
        match (&frame, response) {
            (Frame::Open { .. }, Frame::Ack { .. }) => s.acks += 1,
            (
                Frame::Batch { reports, seq, .. },
                Frame::Ack {
                    accepted, seq: rs, ..
                },
            ) => {
                s.acks += 1;
                pad.accepted += accepted;
                s.reports += accepted;
                pad.ok &= accepted == reports.len() as u64 && rs == *seq;
                if paced {
                    s.ack_us.push((
                        window(due, ACK_WINDOW_S),
                        done.duration_since(due).as_secs_f64() * 1e6,
                    ));
                }
            }
            (Frame::Close { .. }, Frame::Closed { events, .. }) => {
                if paced {
                    s.close_ms.push((
                        window(due, CLOSE_WINDOW_S),
                        done.duration_since(due).as_secs_f64() * 1e3,
                    ));
                }
                s.sessions += 1;
                pad.ok &= events == letter.reference.len() as u64
                    && pad.accepted == letter.reports as u64;
            }
            (_, Frame::Shed { .. }) => {
                s.sheds += 1;
                pad.ok = false;
            }
            (_, other) => {
                s.errors += 1;
                pad.ok = false;
                eprintln!("unexpected response on {sid}: {other:?}");
            }
        }
        // Schedule the pad's next frame.
        let next_due = if pad.step <= batches {
            let off = if pad.step < batches {
                letter.due_s[pad.step]
            } else {
                letter.close_s
            };
            pad.step += 1;
            pad.opened + Duration::from_secs_f64(off)
        } else {
            s.closed.push((sid, pad.letter, pad.ok));
            let next_open = pad.opened + Duration::from_secs_f64(letter.close_s);
            pad.k += 1;
            pad.letter = (pad.id + pad.k * PADS) % n;
            pad.opened = next_open;
            pad.step = 0;
            pad.accepted = 0;
            pad.ok = true;
            next_open
        };
        heap.push(Reverse((next_due, p)));
    }
    s.wall_s = vec![last_response.duration_since(t0).as_secs_f64()];
    s
}

/// Runs the schedule for `seconds` over every client; returns the merged
/// measurements. Unpaced, each client sends its pads' frames back to back
/// instead of at their due times, and no latency is recorded.
pub fn serve_for(setup: &mut Setup, seconds: f64, paced: bool) -> Served {
    let conns = setup.clients.len();
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let abort = AtomicBool::new(false);
    let running = AtomicUsize::new(conns);
    let letters = &setup.letters;
    let served: Vec<(Served, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let pads: Vec<usize> = (c..PADS).step_by(conns).collect();
                let (abort, running) = (&abort, &running);
                scope.spawn(move || {
                    let cpu0 = crate::thread_cpu_s();
                    let (mut s, id) = spans::record("pass", c as u64, || {
                        drive(client, letters, pads, t0, deadline, paced, abort)
                    });
                    // Keep this CPU awake until every client is done, so
                    // the last frames of the others see the same machine.
                    running.fetch_sub(1, Ordering::Relaxed);
                    while running.load(Ordering::Relaxed) > 0 {
                        std::thread::yield_now();
                    }
                    s.client_cpu_s = crate::thread_cpu_s() - cpu0;
                    (s, id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Served::default();
    for (s, _) in served {
        all.absorb(s);
    }
    all
}

/// Fills in each letter's reference replay (a check, not set-up).
fn add_references(setup: &mut Setup) {
    let recognizer = &setup.recognizer;
    let refs: Vec<Vec<PipelineEvent>> = setup
        .letters
        .par_iter()
        .map(|l| reference_replay(recognizer, LETTER_GAP_S, &l.raw))
        .collect();
    for (l, r) in setup.letters.iter_mut().zip(refs) {
        l.reference = r;
    }
}

/// Checks every closed session against the sink's deliveries; returns
/// how many letters were recognized correctly, and of how many.
fn check(setup: &Setup, served: &Served, out: &mut Outcome) -> (usize, usize) {
    let delivered = std::mem::take(&mut *setup.sink.delivered.lock().expect("sink poisoned"));
    let mut by_id: std::collections::HashMap<String, Vec<PipelineEvent>> =
        std::collections::HashMap::new();
    for (id, events) in delivered {
        // Engine ids are `c<connection>#<client id>`.
        let client_id = id.split_once('#').map(|(_, s)| s.to_owned()).unwrap_or(id);
        by_id.insert(client_id, events);
    }
    let mut correct = 0usize;
    for (sid, letter, ok) in &served.closed {
        out.attempted += 1;
        let l = &setup.letters[*letter];
        let Some(mut events) = by_id.remove(sid) else {
            out.fail(format!("session {sid}: closed but never reached the sink"));
            continue;
        };
        normalize_events(&mut events);
        if !ok {
            out.fail(format!(
                "session {sid}: receipts did not conserve reports or a frame was refused"
            ));
        } else if events != l.reference {
            out.fail(format!(
                "session {sid}: {} served events differ from the single-stream replay's {}",
                events.len(),
                l.reference.len()
            ));
        }
        if recognized_letters(&events).ends_with(l.truth) {
            correct += 1;
        }
    }
    if served.sheds + served.errors > 0 {
        out.fail(format!(
            "{} SHED and {} ERROR responses",
            served.sheds, served.errors
        ));
    }
    (correct, served.closed.len())
}

/// The serve workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (mut setup, setup_s) = crate::timed_setup(cfg.scale, true, || {
        setup(cfg.seed, cfg.scale, Duration::ZERO)
    });
    add_references(&mut setup);
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &mut setup, &mut out);
        shut_down(setup);
        return out;
    }
    let served = serve_for(&mut setup, cfg.seconds * PACED_SHARE, true);
    let (paced_correct, paced_closed) = check(&setup, &served, &mut out);
    let cpu0 = crate::process_cpu_s();
    let capacity = serve_for(&mut setup, cfg.seconds * (1.0 - PACED_SHARE), false);
    // The server's share: the clients spin whenever they wait.
    let cpu_s = crate::process_cpu_s() - cpu0 - capacity.client_cpu_s;
    let (correct, closed) = check(&setup, &capacity, &mut out);
    eprintln!(
        "capacity: {:.0} reports/s over {} connections",
        capacity.reports as f64 / capacity.wall_s.iter().copied().fold(0.0, f64::max),
        capacity.wall_s.len()
    );
    let ack = Windowed::from_indexed(&served.ack_us);
    let close = Windowed::from_indexed(&served.close_ms);
    crate::report_tail("BATCH due -> ACK latency", "us", &ack.samples());
    crate::report_tail("CLOSE due -> CLOSED latency", "ms", &close.samples());
    crate::report_tail("send lag", "ms", &served.lag_ms);
    shut_down(setup);
    EndToEnd {
        setup_s,
        letter_accuracy: crate::ratio(
            (paced_correct + correct) as f64,
            (paced_closed + closed) as f64,
        ),
        letters_per_cpu_s: crate::ratio(capacity.sessions as f64, cpu_s),
        reports_per_cpu_s: crate::ratio(capacity.reports as f64, cpu_s),
        result_latency_p50_ms: close.percentile(0.50),
        ..EndToEnd::default()
    }
    .emit(&mut out);
    out
}

fn shut_down(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
}

/// The traced run: the same schedule untraced and traced, per-layer
/// metrics from the traced run's spans, the wire codec timed on the
/// corpus frames, and the composed stage replay of the corpus.
fn traced(cfg: &RunConfig, setup: &mut Setup, out: &mut Outcome) {
    let seconds = cfg.seconds.min(4.0);
    let untraced = serve_for(setup, seconds, true);
    check(setup, &untraced, out);

    for tally in [
        &setup.sink.sessions,
        &setup.sink.events,
        &setup.sink.busy_ns,
    ] {
        tally.store(0, Ordering::Relaxed);
    }
    let monitor_stop = AtomicBool::new(false);
    spans::set_enabled(true);
    let (traced, push) = std::thread::scope(|scope| {
        let engine = Arc::clone(&setup.engine);
        let stop = &monitor_stop;
        // The server's engine sessions are only visible through stats
        // snapshots: sample their push latencies while the run lasts.
        let monitor = scope.spawn(move || {
            let mut push = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for s in engine.stats().sessions {
                    if s.push_latency.count > 0 {
                        push.push((s.push_latency.p50_ns as f64, s.push_latency.p99_ns as f64));
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            push
        });
        let traced = serve_for(setup, seconds, true);
        monitor_stop.store(true, Ordering::Relaxed);
        (traced, monitor.join().expect("monitor thread"))
    });
    let mut counts = crate::stages::StageCounts::default();
    for (i, l) in setup.letters.iter().enumerate() {
        let (events, c) = composed_replay(&setup.recognizer, LETTER_GAP_S, i as u64, &l.raw);
        counts += c;
        out.attempted += 1;
        if events != l.reference {
            out.fail(format!(
                "letter {i}: composed stages diverged from the StageGraph replay"
            ));
        }
    }
    spans::set_enabled(false);
    let spans = spans::take();
    check(setup, &traced, out);

    let mut layers = Layers::default();
    layers.set_span_stats(&spans);
    layers.set_stage_counts(&counts);
    let (encode_ns, decode_ns) = wire_ns(&setup.letters);
    layers.set("wire.encode.ns_per_frame", encode_ns);
    layers.set("wire.decode.ns_per_frame", decode_ns);
    layers.set("serve.frames", traced.frames as f64);
    layers.set("serve.acks", traced.acks as f64);
    layers.set("serve.sheds", traced.sheds as f64);
    layers.set("serve.errors", traced.errors as f64);
    layers.set(
        "serve.ack_latency_p50_us",
        Windowed::from_indexed(&untraced.ack_us).percentile(0.50),
    );
    layers.set("serve.connect_ms", median(&mut setup.connect_ms.clone()));
    layers.set(
        "emit.sessions",
        setup.sink.sessions.load(Ordering::Relaxed) as f64,
    );
    layers.set(
        "emit.events",
        setup.sink.events.load(Ordering::Relaxed) as f64,
    );
    layers.set(
        "emit.busy_s",
        setup.sink.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
    );
    layers.set(
        "loadgen.send_lag_p99_ms",
        percentile(&mut traced.lag_ms.clone(), 0.99),
    );
    let mut p50: Vec<f64> = push.iter().map(|p| p.0).collect();
    let mut p99: Vec<f64> = push.iter().map(|p| p.1).collect();
    layers.set("engine.push_p50_ns", median(&mut p50));
    layers.set("engine.push_p99_ns", median(&mut p99));

    // The waterfall follows the first connection's client thread.
    let root = spans
        .iter()
        .find(|s| s.name == "pass" && s.key == 0)
        .map(|s| s.id)
        .unwrap_or(0);
    let mut order = vec!["loadgen.wait", "serve.open", "serve.batch", "serve.close"];
    order.extend(STAGE_SPANS);
    let wf = spans::Waterfall::build(&spans, root, untraced.wall_s[0], &order);
    layers.set_trace_figures(&wf);
    crate::print_waterfall(&wf, "serve, first connection");
    if let Err(e) = spans::write_tsv(&spans, &crate::span_file("serve", cfg.seed)) {
        eprintln!("could not write spans: {e}");
    }
    layers.emit(out);
}

/// Nanoseconds per frame to encode and decode the corpus's BATCH frames
/// with `encode_frame_v` / `decode_payload_v`.
fn wire_ns(letters: &[Letter]) -> (f64, f64) {
    let frames: Vec<Frame> = letters
        .iter()
        .enumerate()
        .flat_map(|(i, l)| {
            l.batches
                .iter()
                .enumerate()
                .map(move |(b, batch)| Frame::Batch {
                    session: format!("p0k0i{i}"),
                    seq: b as u32 + 1,
                    reports: batch.clone(),
                    trace: None,
                })
        })
        .collect();
    let time = |f: &mut dyn FnMut()| {
        let (mut rounds, t0) = (0u64, Instant::now());
        while rounds == 0 || t0.elapsed().as_secs_f64() < 0.05 {
            f();
            rounds += 1;
        }
        crate::ratio(
            t0.elapsed().as_secs_f64() * 1e9,
            (rounds * frames.len() as u64) as f64,
        )
    };
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| encode_frame_v(f, WIRE_VERSION))
        .collect();
    let encode = time(&mut || {
        for f in &frames {
            std::hint::black_box(encode_frame_v(f, WIRE_VERSION));
        }
    });
    let decode = time(&mut || {
        for bytes in &encoded {
            std::hint::black_box(decode_payload_v(&bytes[4..], WIRE_VERSION).ok());
        }
    });
    (encode, decode)
}
