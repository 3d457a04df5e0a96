//! `simulate`: seeded letter trials, closed loop over `nproc` threads.
//!
//! Each trial writes one letter with `Writer::write_letter`, records it
//! with `Gen2Reader::run` over the deployment's `Scene` (the hand and arm
//! wrapped in a sample-counting `MovingTarget`), replays the reports
//! through a `StageGraph` and scores the recognized letter. The trial list
//! covers all 26 letters at lab locations 1–4, each written by a seeded
//! `UserProfile::volunteer`. The run repeats the list in passes until its
//! time is up; every pass must reproduce the first one exactly.

use crate::spans;
use crate::stages::{composed_replay, StageCounts, STAGE_SPANS};
use crate::{child_seed, median, EndToEnd, Layers, Outcome, RunConfig, Scale, Windowed};
use experiments::trial::{Bench, LETTER_GAP_SECS, SESSION_MARGIN_SECS};
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::{Writer, WritingSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rf_sim::targets::{MovingTarget, TargetSample};
use rfid_gen2::inventory::InventoryStats;
use rfid_gen2::report::TagReport;
use rfipad::engine::normalize_events;
use rfipad::{PipelineEvent, StageGraph};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// The lab locations the trials cover.
pub const LOCATIONS: [usize; 4] = [1, 2, 3, 4];

/// One seeded letter trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index into the benches (lab location − 1).
    pub bench: usize,
    /// The letter written.
    pub letter: char,
    /// `UserProfile::volunteer` index, `1..=10`.
    pub volunteer: usize,
    /// Seed of the trial's writer and reader.
    pub seed: u64,
}

/// The calibrated benches and the trial list of one seed.
#[derive(Debug)]
pub struct Setup {
    /// One calibrated bench per lab location.
    pub benches: Vec<Bench>,
    /// The trial list: `ROUNDS` rounds of every letter at every location.
    pub trials: Vec<Trial>,
    /// Trials per round.
    pub round: usize,
}

/// Rounds in the trial list. Accuracy is scored over the whole list, so
/// its spread across seeds stays small.
pub const ROUNDS: usize = 10;

/// Builds the benches and trial list for `seed`: [`ROUNDS`] rounds of
/// every letter at every location (`Tiny`: two rounds of six letters at
/// two locations).
pub fn setup(seed: u64, scale: Scale) -> Setup {
    let (locations, letters, rounds): (&[usize], Vec<char>, usize) = match scale {
        Scale::Full => (&LOCATIONS, ('A'..='Z').collect(), ROUNDS),
        Scale::Tiny => (&LOCATIONS[..2], vec!['A', 'E', 'H', 'L', 'T', 'V'], 2),
    };
    // One thread: the four calibrations take a few ms each, so in
    // parallel their set-up time would mostly measure waking the pool.
    let benches: Vec<Bench> = locations
        .iter()
        .map(|&loc| crate::bench_at(loc, child_seed(seed, loc as u64)))
        .collect();
    let mut rng = StdRng::seed_from_u64(child_seed(seed, 100));
    let mut trials = Vec::new();
    for _ in 0..rounds {
        for bench in 0..benches.len() {
            for &letter in &letters {
                trials.push(Trial {
                    bench,
                    letter,
                    volunteer: rng.random_range(1..11),
                    seed: rng.random(),
                });
            }
        }
    }
    Setup {
        round: benches.len() * letters.len(),
        benches,
        trials,
    }
}

/// A target that counts how often the scene samples it.
struct Counting<'a> {
    inner: &'a dyn MovingTarget,
    samples: &'a Cell<u64>,
}

impl MovingTarget for Counting<'_> {
    fn sample(&self, t: f64) -> Option<TargetSample> {
        self.samples.set(self.samples.get() + 1);
        self.inner.sample(t)
    }
}

/// What one trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOut {
    /// The recognized letter (the last letter event's).
    pub letter: Option<char>,
    /// Reports the reader produced.
    pub reports: usize,
    /// The reader's inventory statistics.
    pub stats: InventoryStats,
    /// Target samples the scene took.
    pub samples: u64,
    /// The recognition events, normalized.
    pub events: Vec<PipelineEvent>,
    /// Stage counters (composed replays only).
    pub counts: StageCounts,
    /// Wall time of the recognition replay, s.
    pub recognize_s: f64,
    /// Wall time of the whole trial, s.
    pub total_s: f64,
}

/// Writes and records one trial; returns the session and the reader run.
fn record(
    bench: &Bench,
    t: &Trial,
    key: u64,
    samples: &Cell<u64>,
) -> (WritingSession, Vec<TagReport>, InventoryStats) {
    let user = UserProfile::volunteer(t.volunteer);
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let mut rng = StdRng::seed_from_u64(t.seed);
    let session = spans::span("hand_kinematics.write", key, || {
        writer.write_letter(t.letter, 1.0, &mut rng)
    });
    let (hand, arm) = Bench::targets(&session, &user);
    let hand = Counting {
        inner: &hand,
        samples,
    };
    let arm = Counting {
        inner: &arm,
        samples,
    };
    let targets: Vec<&dyn MovingTarget> = vec![&hand, &arm];
    // The recording window of `Bench::record_session`.
    let start = session
        .trajectory
        .start_time()
        .unwrap_or(0.0)
        .min(session.strokes.first().map(|s| s.start).unwrap_or(0.0))
        - SESSION_MARGIN_SECS;
    let duration = session.end_time() - start + SESSION_MARGIN_SECS;
    let run = spans::span("gen2.run", key, || {
        bench
            .reader
            .run(&bench.deployment.scene, &targets, start, duration, &mut rng)
    });
    (session, run.events, run.stats)
}

/// Runs one trial. `composed` replays through the benchmark's composed
/// stages instead of a `StageGraph`.
pub fn run_trial(bench: &Bench, t: &Trial, key: u64, composed: bool) -> TrialOut {
    let t0 = Instant::now();
    let samples = Cell::new(0);
    let (_session, reports, stats) = record(bench, t, key, &samples);
    let t1 = Instant::now();
    let mut counts = StageCounts::default();
    let events = if composed {
        let (events, c) = composed_replay(&bench.recognizer, LETTER_GAP_SECS, key, &reports);
        counts = c;
        events
    } else {
        let mut graph = StageGraph::builder()
            .recognizer(bench.recognizer.clone())
            .letter_gap_s(LETTER_GAP_SECS)
            .build()
            .expect("a calibrated recognizer builds a graph");
        let mut events = Vec::new();
        for &r in &reports {
            graph.push_into(r, &mut events);
        }
        graph.finish_into(&mut events);
        normalize_events(&mut events);
        events
    };
    let recognize_s = t1.elapsed().as_secs_f64();
    let letter = events
        .iter()
        .rev()
        .find_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(*letter),
            PipelineEvent::StrokeDetected { .. } => None,
        })
        .flatten();
    TrialOut {
        letter,
        reports: reports.len(),
        stats,
        samples: samples.get(),
        events,
        counts,
        recognize_s,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// Whether two outputs of the same trial agree (everything but timing).
fn same_result(a: &TrialOut, b: &TrialOut) -> bool {
    a.letter == b.letter
        && a.reports == b.reports
        && a.stats == b.stats
        && a.samples == b.samples
        && a.events == b.events
}

/// Runs the trials `range` of `setup` across `nproc` threads; a trial
/// that panics yields `None`.
fn run_round(setup: &Setup, range: std::ops::Range<usize>) -> Vec<Option<TrialOut>> {
    range
        .into_par_iter()
        .map(|i| {
            let t = &setup.trials[i];
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_trial(&setup.benches[t.bench], t, i as u64, false)
            }))
            .ok()
        })
        .collect()
}

/// The simulate workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (setup, setup_s) = crate::timed_setup(cfg.scale, false, || setup(cfg.seed, cfg.scale));
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &setup, &mut out);
        return out;
    }

    // Closed loop over the trial list, one round at a time, until the time
    // is up and every trial ran at least once. A trial that runs again
    // must reproduce its first result.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let n = setup.trials.len();
    let mut first: Vec<Option<Option<TrialOut>>> = vec![None; n];
    let (mut trials_rate, mut reports_rate) = (Vec::new(), Vec::new());
    let (mut recognize_us, mut total_ms) = (Windowed::default(), Windowed::default());
    let mut next = 0;
    while Instant::now() < deadline || next < n {
        let range = next % n..(next % n + setup.round).min(n);
        next += range.len();
        let cpu0 = crate::process_cpu_s();
        let outs = run_round(&setup, range.clone());
        let round_cpu_s = crate::process_cpu_s() - cpu0;
        let reports: usize = outs.iter().flatten().map(|o| o.reports).sum();
        trials_rate.push(crate::ratio(outs.len() as f64, round_cpu_s));
        reports_rate.push(crate::ratio(reports as f64, round_cpu_s));
        for (i, o) in range.zip(outs) {
            out.attempted += 1;
            let Some(o) = o else {
                out.fail(format!("trial {i} panicked"));
                first[i] = Some(None);
                continue;
            };
            recognize_us.push(o.recognize_s * 1e6);
            total_ms.push(o.total_s * 1e3);
            match &first[i] {
                Some(Some(f)) if !same_result(f, &o) => {
                    out.fail(format!("trial {i} diverged from its first run"))
                }
                Some(_) => {}
                None => first[i] = Some(Some(o)),
            }
        }
        recognize_us.cut();
        total_ms.cut();
    }
    let first: Vec<Option<TrialOut>> = first.into_iter().map(Option::flatten).collect();
    let correct = first
        .iter()
        .zip(&setup.trials)
        .filter(|(o, t)| o.as_ref().and_then(|o| o.letter) == Some(t.letter))
        .count();
    let accuracy = correct as f64 / n as f64;
    check_reference(cfg, &setup, &first, correct, &mut out);
    crate::report_tail("recognition latency", "us", &recognize_us.samples());
    crate::report_tail("trial (result) latency", "ms", &total_ms.samples());

    EndToEnd {
        setup_s,
        letter_accuracy: accuracy,
        letters_per_cpu_s: median(&mut trials_rate),
        reports_per_cpu_s: median(&mut reports_rate),
        result_latency_p50_ms: total_ms.percentile(0.50),
        ..EndToEnd::default()
    }
    .emit(&mut out);
    out
}

/// Checks the first pass against the repo's own trial runner
/// (`Bench::run_letter_trial`), trial by trial, and the accuracy against
/// the value recorded for this seed, when there is one.
fn check_reference(
    cfg: &RunConfig,
    setup: &Setup,
    first: &[Option<TrialOut>],
    correct: usize,
    out: &mut Outcome,
) {
    let reference: Vec<(Option<char>, usize)> = setup
        .trials
        .par_iter()
        .map(|t| {
            let trial = setup.benches[t.bench].run_letter_trial(
                t.letter,
                &UserProfile::volunteer(t.volunteer),
                t.seed,
            );
            (trial.result.letter, trial.reports.len())
        })
        .collect();
    for (i, (o, r)) in first.iter().zip(&reference).enumerate() {
        if let Some(o) = o {
            if (o.letter, o.reports) != *r {
                out.fail(format!(
                    "trial {i}: recognized {:?} from {} reports, the trial runner {:?} from {}",
                    o.letter, o.reports, r.0, r.1
                ));
            }
        }
    }
    if cfg.scale == Scale::Full {
        if let Some(expected) = recorded_correct(cfg.seed) {
            if expected != correct {
                out.fail(format!(
                    "seed {}: {correct} letters correct, recorded {expected}",
                    cfg.seed
                ));
            }
        }
    }
}

/// Correctly recognized trials of `seed`'s full trial list — the value
/// `reference/simulate_correct.tsv` records.
pub fn count_correct(seed: u64) -> usize {
    let setup = setup(seed, Scale::Full);
    run_round(&setup, 0..setup.trials.len())
        .iter()
        .zip(&setup.trials)
        .filter(|(o, t)| o.as_ref().and_then(|o| o.letter) == Some(t.letter))
        .count()
}

/// Correctly recognized trials per seed, as recorded on the code this
/// benchmark was introduced with (`reference/simulate_correct.tsv`).
pub fn recorded_correct(seed: u64) -> Option<usize> {
    include_str!("../reference/simulate_correct.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split('\t');
            let s: u64 = f.next()?.parse().ok()?;
            let c: usize = f.next()?.parse().ok()?;
            (s == seed).then_some(c)
        })
}

/// Untraced/traced pairs a traced run makes; the fastest of each counts.
const TRACE_PAIRS: usize = 3;

/// The traced run: untraced and traced single-threaded rounds of the
/// trial list, per-layer metrics from the fastest traced round's spans.
fn traced(cfg: &RunConfig, setup: &Setup, out: &mut Outcome) {
    let run_serial = |composed: bool| -> Vec<TrialOut> {
        setup.trials[..setup.round]
            .iter()
            .enumerate()
            .map(|(i, t)| {
                spans::span("trial", i as u64, || {
                    run_trial(&setup.benches[t.bench], t, i as u64, composed)
                })
            })
            .collect()
    };
    // A warm-up round, then untraced (StageGraph) and traced (composed
    // stages) rounds.
    run_serial(false);
    let spans::BestPair {
        untraced_s,
        untraced,
        traced,
        spans,
        root,
    } = spans::best_pair(TRACE_PAIRS, run_serial);

    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        out.attempted += 1;
        if !same_result(u, t) {
            out.fail(format!(
                "trial {i}: composed stages diverged from the StageGraph replay"
            ));
        }
    }

    let mut layers = Layers::default();
    layers.set_span_stats(&spans);
    let mut stats = InventoryStats::default();
    let mut counts = StageCounts::default();
    let mut samples = 0;
    for o in &traced {
        stats.rounds += o.stats.rounds;
        stats.slots += o.stats.slots;
        stats.empties += o.stats.empties;
        stats.collisions += o.stats.collisions;
        stats.successes += o.stats.successes;
        samples += o.samples;
        counts += o.counts;
    }
    layers.set(
        "gen2.reads",
        traced.iter().map(|o| o.reports).sum::<usize>() as f64,
    );
    layers.set("gen2.slots", stats.slots as f64);
    layers.set("gen2.collisions", stats.collisions as f64);
    layers.set("gen2.slot_efficiency", stats.efficiency());
    // The reader observes the scene once per singulated read.
    layers.set("rf_sim.observe.calls", stats.successes as f64);
    layers.set("rf_sim.target.samples", samples as f64);
    layers.set("rf_sim.observe.ns_per_call", observe_ns(setup));
    layers.set_stage_counts(&counts);

    let mut order = vec!["trial", "hand_kinematics.write", "gen2.run"];
    order.extend(STAGE_SPANS);
    let wf = spans::Waterfall::build(&spans, root, untraced_s, &order);
    layers.set_trace_figures(&wf);
    crate::print_waterfall(&wf, "simulate, one thread");
    if let Err(e) = spans::write_tsv(&spans, &crate::span_file("simulate", cfg.seed)) {
        eprintln!("could not write spans: {e}");
    }
    layers.emit(out);
}

/// Nanoseconds per `Scene::observe` call, timed directly on the read
/// instants of the first trial with its hand and arm present.
fn observe_ns(setup: &Setup) -> f64 {
    let t = &setup.trials[0];
    let bench = &setup.benches[t.bench];
    let user = UserProfile::volunteer(t.volunteer);
    let (session, reports, _) = record(bench, t, 0, &Cell::new(0));
    let (hand, arm) = Bench::targets(&session, &user);
    let targets: Vec<&dyn MovingTarget> = vec![&hand, &arm];
    let mut rng = StdRng::seed_from_u64(t.seed);
    let scene = &bench.deployment.scene;
    let (mut calls, t0) = (0u64, Instant::now());
    while t0.elapsed().as_secs_f64() < 0.05 || calls == 0 {
        for r in &reports {
            std::hint::black_box(scene.observe(r.tag, r.time, &targets, &mut rng));
        }
        calls += reports.len() as u64;
        if reports.is_empty() {
            break;
        }
    }
    crate::ratio(t0.elapsed().as_secs_f64() * 1e9, calls as f64)
}
