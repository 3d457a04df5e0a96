//! Engine interleavings conserve reports. Random mixes of per-report
//! `ingest`, `ingest_batch`, `checkpoint` and `close`, fed from 2–4
//! threads into one engine while a sweeper optionally evicts idle
//! sessions, must account for every report: under both backpressure
//! policies `reports_in == reports_processed + reports_dropped` for every
//! session, and under `Block` every closed session's events equal the
//! serial `StageGraph` replay of the reports it accepted. Batch sizes sit
//! on both sides of the caller-runs limit, so inline drains race worker
//! drains, evictions and blocking sends.

use experiments::golden::golden_bench;
use experiments::serveload::{golden_reports, serial_replay, session_pipeline};
use proptest::prelude::*;
use rfid_gen2::report::TagReport;
use rfipad::engine::{
    normalize_events, Backpressure, Engine, SessionHandle, SessionStats, INLINE_MAX_REPORTS,
};
use rfipad::{IngestReceipt, PipelineCheckpoint, PipelineEvent, Recognizer, RfipadError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The golden report stream and recognizer, built once for every case.
fn fixture() -> &'static (Vec<TagReport>, Recognizer) {
    static FIXTURE: OnceLock<(Vec<TagReport>, Recognizer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bench = golden_bench();
        (golden_reports(&bench), bench.recognizer)
    })
}

/// Item sizes an op draws from: a single report, a served frame, both
/// sides of the inline limit, and an `ingest`-sized batch.
const SIZES: [usize; 5] = [1, 20, INLINE_MAX_REPORTS, INLINE_MAX_REPORTS + 1, 1024];

/// Report `i` of the golden stream repeated end to end, each lap shifted
/// by the recording's span so time keeps running forward.
fn stream_report(i: usize) -> TagReport {
    let reports = &fixture().0;
    let span = reports[reports.len() - 1].time - reports[0].time + 0.05;
    let mut r = reports[i % reports.len()];
    r.time += span * (i / reports.len()) as f64;
    r
}

/// One step of a feeder thread.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Feed this many reports one `ingest` call at a time.
    Ingest(usize),
    /// Feed this many reports as one `ingest_batch`.
    Batch(usize),
    Checkpoint,
    /// Close the session and open a fresh one.
    Close,
}

fn op((kind, size): (u8, usize)) -> Op {
    match kind {
        0 => Op::Ingest(SIZES[size]),
        1 => Op::Batch(SIZES[size]),
        2 => Op::Checkpoint,
        _ => Op::Close,
    }
}

/// A feeder's open session and what it accepted so far.
struct Live {
    handle: SessionHandle,
    accepted: Vec<TagReport>,
    receipt: IngestReceipt,
    /// Checkpoints taken, with the accepted-report count at the time.
    checkpoints: Vec<(usize, PipelineCheckpoint)>,
}

/// A closed session, ready to be checked.
struct Closed {
    id: String,
    accepted: Vec<TagReport>,
    receipt: IngestReceipt,
    checkpoints: Vec<(usize, PipelineCheckpoint)>,
    events: Vec<PipelineEvent>,
    stats: SessionStats,
}

impl Live {
    fn open(engine: &Engine, id: String) -> Live {
        let handle = engine
            .open_session(id, session_pipeline(&fixture().1))
            .expect("open");
        Live {
            handle,
            accepted: Vec::new(),
            receipt: IngestReceipt::default(),
            checkpoints: Vec::new(),
        }
    }

    /// Records an ingest outcome. `false` means the session was evicted
    /// (the only error a feeder may see here).
    fn record(
        &mut self,
        outcome: Result<IngestReceipt, RfipadError>,
        reports: &[TagReport],
    ) -> bool {
        match outcome {
            Ok(receipt) => {
                assert_eq!(receipt.accepted, reports.len() as u64);
                self.receipt += receipt;
                self.accepted.extend_from_slice(reports);
                true
            }
            Err(RfipadError::SessionClosed(_)) => false,
            Err(e) => panic!("ingest failed: {e}"),
        }
    }

    fn close(self) -> Closed {
        let id = self.handle.id().to_string();
        let (mut events, stats) = self.handle.close_with_stats().expect("close");
        normalize_events(&mut events);
        Closed {
            id,
            accepted: self.accepted,
            receipt: self.receipt,
            checkpoints: self.checkpoints,
            events,
            stats,
        }
    }
}

/// Runs one feeder thread's ops against its own sessions; returns every
/// session it closed.
fn feed(engine: &Engine, thread: usize, ops: &[Op]) -> Vec<Closed> {
    let mut closed = Vec::new();
    let mut opened = 0;
    let mut next_id = || {
        opened += 1;
        format!("t{thread}-s{opened}")
    };
    let mut live = Live::open(engine, next_id());
    let mut cursor = 0usize;
    for &op in ops {
        let evicted = match op {
            Op::Ingest(n) => (0..n).any(|_| {
                let r = stream_report(cursor);
                cursor += 1;
                !live.record(live.handle.ingest(r), &[r])
            }),
            Op::Batch(n) => {
                let reports: Vec<TagReport> = (cursor..cursor + n).map(stream_report).collect();
                cursor += n;
                let outcome = live.handle.ingest_batch(reports.iter().copied().collect());
                !live.record(outcome, &reports)
            }
            Op::Checkpoint => match live.handle.checkpoint() {
                Ok(cp) => {
                    live.checkpoints
                        .push((live.accepted.len(), cp.pipeline().clone()));
                    false
                }
                Err(RfipadError::SessionClosed(_)) => true,
                Err(e) => panic!("checkpoint failed: {e}"),
            },
            Op::Close => true,
        };
        if evicted {
            closed.push(live.close());
            live = Live::open(engine, next_id());
        }
    }
    closed.push(live.close());
    closed
}

/// Checks one closed session; `lossless` adds the serial-replay checks.
fn check(s: &Closed, lossless: bool) -> Result<(), TestCaseError> {
    let stats = &s.stats;
    prop_assert_eq!(stats.reports_in, s.receipt.accepted, "{} reports_in", s.id);
    prop_assert_eq!(stats.reports_dropped, s.receipt.dropped, "{} dropped", s.id);
    prop_assert_eq!(
        stats.reports_in,
        stats.reports_processed + stats.reports_dropped,
        "{} lost reports: {:?}",
        s.id,
        stats
    );
    if !lossless {
        return Ok(());
    }
    prop_assert_eq!(stats.reports_dropped, 0, "{} dropped under Block", s.id);
    let recognizer = &fixture().1;
    prop_assert!(
        s.events == serial_replay(recognizer, &s.accepted),
        "{} diverged from the serial replay of its {} reports",
        s.id,
        s.accepted.len()
    );
    // Each checkpoint froze exactly the prefix accepted before it.
    let mut graph = session_pipeline(recognizer);
    let mut fed = 0;
    for (at, cp) in &s.checkpoints {
        for r in &s.accepted[fed..*at] {
            graph.push(*r);
        }
        fed = *at;
        prop_assert!(
            &graph.checkpoint() == cp,
            "{} checkpoint after {} reports differs from the serial state",
            s.id,
            at
        );
    }
    Ok(())
}

/// One generated case: feeders' op lists plus engine shape.
fn run_case(
    threads: &[Vec<(u8, usize)>],
    workers: usize,
    capacity: usize,
    lossless: bool,
    sweep: bool,
) -> Result<(), TestCaseError> {
    let policy = if lossless {
        Backpressure::Block
    } else {
        Backpressure::DropOldest
    };
    let engine = Engine::builder()
        .workers(workers)
        .queue_capacity(capacity)
        .backpressure(policy)
        // 0.001 × the 1.5 s letter gap: a session idle for 1.5 ms is
        // evicted, so the sweeper races live feeds.
        .idle_eviction_factor(if sweep { 1e-3 } else { f64::INFINITY })
        .build()
        .expect("engine");
    let done = AtomicBool::new(false);
    let closed: Vec<Closed> = std::thread::scope(|scope| {
        let sweeper = sweep.then(|| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    engine.sweep_idle();
                    std::thread::yield_now();
                }
            })
        });
        let feeders: Vec<_> = threads
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let ops: Vec<Op> = ops.iter().copied().map(op).collect();
                let engine = &engine;
                scope.spawn(move || feed(engine, t, &ops))
            })
            .collect();
        let closed = feeders
            .into_iter()
            .flat_map(|f| f.join().expect("feeder panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        if let Some(s) = sweeper {
            s.join().expect("sweeper panicked");
        }
        closed
    });
    for s in &closed {
        check(s, lossless)?;
    }
    let stats = engine.stats();
    let accepted: u64 = closed.iter().map(|s| s.receipt.accepted).sum();
    let dropped: u64 = closed.iter().map(|s| s.receipt.dropped).sum();
    prop_assert_eq!(stats.reports_in, accepted);
    prop_assert_eq!(stats.reports_dropped, dropped);
    prop_assert_eq!(stats.sessions_open, 0);
    engine.shutdown();
    Ok(())
}

proptest! {
    #[test]
    fn interleaved_feeds_conserve_reports_and_match_serial_replay(
        threads in prop::collection::vec(
            prop::collection::vec((0u8..4, 0usize..SIZES.len()), 1..6),
            2..5,
        ),
        workers in 1usize..3,
        capacity in 1usize..5,
        lossless in any::<bool>(),
        sweep in any::<bool>(),
    ) {
        run_case(&threads, workers, capacity, lossless, sweep)?;
    }
}
