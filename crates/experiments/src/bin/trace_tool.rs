//! Record, inspect, and replay reader-report traces.
//!
//! A trace is the report stream a reader hands the recognizer — the exact
//! boundary `rfid_gen2::report::TagReport` defines — captured to disk in
//! either JSON-lines (`.jsonl`, greppable) or length-prefixed binary
//! (`.rftrace`, compact) framing. Because every simulated session is
//! seeded, a replayed trace reproduces the live recognition bit for bit;
//! `replay` checks exactly that.
//!
//! Usage:
//!
//! ```text
//! trace_tool record <out.jsonl|out.rftrace> [letter]
//! trace_tool inspect <trace>
//! trace_tool replay <trace>
//! trace_tool stats <trace> [--bench]
//! trace_tool checkpoint <trace>
//! trace_tool spans <dump.json>
//! ```
//!
//! `record` simulates the golden session (or one writing `letter`) on the
//! golden bench and writes the trace; the framing is picked from the file
//! extension (`.jsonl` → JSON lines, anything else → binary). `inspect`
//! prints a summary without recognizing. `replay` feeds the trace through
//! the recognizer of a freshly rebuilt golden bench and prints what it
//! sees. `stats` replays the trace through the instrumented recognizer
//! and prints the Prometheus text exposition of the process-global metrics registry (self-validated);
//! with `--bench` it also times instrumented vs `RFIPAD_LOG=off` replays
//! and merges a `telemetry_overhead` entry into `BENCH_pipeline.json`.
//! `checkpoint` interrupts an online replay halfway, ships the session
//! through the checkpoint JSON wire form, resumes on a fresh pipeline,
//! and exits nonzero unless the stitched event stream matches an
//! uninterrupted replay — the migration smoke test bench-check runs.
//! `spans` renders a flight-recorder dump — the body of
//! `/debug/trace/<session>` on a serving engine's endpoint — as a text
//! timeline: one line per span, children indented under their parents.

use experiments::golden::{golden_bench, golden_trial, GOLDEN_LETTER, GOLDEN_TRIAL_SEED};
use hand_kinematics::user::UserProfile;
use rfid_gen2::report::TagReport;
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::trace::{write_trace_file, TraceFormat};
use rfipad::{Recognizer, RfipadError, StageGraph};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!("usage: trace_tool record <out.jsonl|out.rftrace> [letter]");
    eprintln!("       trace_tool inspect <trace>");
    eprintln!("       trace_tool replay <trace>");
    eprintln!("       trace_tool stats <trace> [--bench]");
    eprintln!("       trace_tool checkpoint <trace>");
    eprintln!("       trace_tool spans <dump.json>");
    ExitCode::FAILURE
}

fn read_trace(path: &str) -> Result<Vec<TagReport>, RfipadError> {
    let mut source =
        TraceSource::open(path).map_err(|e| RfipadError::Source(format!("{path}: {e}")))?;
    source
        .try_collect_reports()
        .map_err(|e| RfipadError::Source(format!("{path}: {e}")))
}

fn record(out: &str, letter: char) -> Result<(), RfipadError> {
    let format = if out.ends_with(".jsonl") {
        TraceFormat::JsonLines
    } else {
        TraceFormat::Binary
    };
    obs::info!("calibrating golden bench");
    let bench = golden_bench();
    obs::info!("recording letter"; letter = letter, seed = GOLDEN_TRIAL_SEED);
    let trial = bench.run_letter_trial(letter, &UserProfile::average(), GOLDEN_TRIAL_SEED);
    write_trace_file(out, format, &trial.reports)
        .map_err(|e| RfipadError::Source(format!("{out}: {e}")))?;
    println!(
        "wrote {} reports to {out} ({:?}); live recognition: {:?}",
        trial.reports.len(),
        format,
        trial.result.letter
    );
    Ok(())
}

fn inspect(path: &str) -> Result<(), RfipadError> {
    let reports = read_trace(path)?;
    if reports.is_empty() {
        println!("{path}: empty trace");
        return Ok(());
    }
    let tags: BTreeSet<_> = reports.iter().map(|r| r.tag).collect();
    let channels: BTreeSet<_> = reports.iter().map(|r| r.channel_index).collect();
    let t0 = reports.first().expect("nonempty").time;
    let t1 = reports.last().expect("nonempty").time;
    println!("{path}:");
    println!("  reports:  {}", reports.len());
    println!("  span:     {t0:.3} .. {t1:.3} s ({:.3} s)", t1 - t0);
    println!("  tags:     {}", tags.len());
    println!(
        "  rate:     {:.0} reads/s",
        reports.len() as f64 / (t1 - t0).max(1e-9)
    );
    println!(
        "  channels: {:?}{}",
        channels,
        if channels == BTreeSet::from([0]) {
            " (fixed carrier)"
        } else {
            ""
        }
    );
    Ok(())
}

fn replay(path: &str) -> Result<(), RfipadError> {
    let reports = read_trace(path)?;
    obs::info!("rebuilding golden bench");
    let bench = golden_bench();

    let result = bench.recognizer.recognize_session(&reports);
    println!("replay of {} reports:", reports.len());
    for (i, s) in result.strokes.iter().enumerate() {
        println!(
            "  stroke {}: {} over {:.2} .. {:.2} s",
            i + 1,
            s.stroke,
            s.span.start,
            s.span.end
        );
    }
    println!("  letter: {:?}", result.letter);

    let live = golden_trial(&bench);
    if reports == live.reports {
        println!(
            "trace matches the live golden session bit for bit ('{GOLDEN_LETTER}', {} reports)",
            live.reports.len()
        );
    } else {
        println!("note: trace differs from the golden session (custom recording?)");
    }
    Ok(())
}

/// Replays and telemetry-off replays interleaved; returns the best
/// (lowest) wall-clock seconds seen for (instrumented, disabled).
fn time_overhead(
    recognizer: &Recognizer,
    reports: &[TagReport],
    trials: u32,
    rounds: u32,
) -> (f64, f64) {
    let restore = obs::max_level();
    let timed = |level: obs::Level| {
        obs::set_level(level);
        let start = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(recognizer.recognize_session(reports));
        }
        start.elapsed().as_secs_f64()
    };
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for _ in 0..trials {
        best_on = best_on.min(timed(obs::Level::Info));
        best_off = best_off.min(timed(obs::Level::Off));
    }
    obs::set_level(restore);
    (best_on, best_off)
}

fn stats(path: &str, bench_overhead: bool) -> Result<(), RfipadError> {
    let reports = read_trace(path)?;
    obs::info!("rebuilding golden bench");
    let bench = golden_bench();

    // The instrumented replay populates the process-global registry:
    // stage histograms, pipeline counters, reader counters from the
    // trace decode above.
    let result = bench.recognizer.recognize_session(&reports);
    obs::info!("replayed trace"; reports = reports.len(), strokes = result.strokes.len(),
        letter = format!("{:?}", result.letter));

    let text = obs::registry().render_prometheus();
    obs::expo::validate(&text)
        .map_err(|e| RfipadError::Source(format!("exposition failed validation: {e}")))?;
    print!("{text}");

    if bench_overhead {
        obs::info!("timing instrumented vs disabled-telemetry replays");
        let (rounds, trials) = (10u32, 3u32);
        let (on_s, off_s) = time_overhead(&bench.recognizer, &reports, trials, rounds);
        let per_mode = u64::from(rounds) * reports.len() as u64;
        let on_rps = per_mode as f64 / on_s;
        let off_rps = per_mode as f64 / off_s;
        let overhead_pct = (on_s / off_s - 1.0) * 100.0;
        let entry = format!(
            "{{ \"reports\": {}, \"rounds_per_mode\": {rounds}, \
             \"instrumented_reports_per_s\": {on_rps:.0}, \
             \"disabled_reports_per_s\": {off_rps:.0}, \
             \"overhead_pct\": {overhead_pct:.2} }}",
            reports.len()
        );
        experiments::benchjson::merge_entry("telemetry_overhead", &entry)
            .map_err(|e| RfipadError::Source(format!("BENCH_pipeline.json: {e}")))?;
        obs::info!("merged telemetry_overhead into BENCH_pipeline.json";
            overhead_pct = format!("{overhead_pct:.2}"));
        if overhead_pct > 3.0 {
            obs::warn!("telemetry overhead above the 3% budget";
                overhead_pct = format!("{overhead_pct:.2}"));
        }
    }
    Ok(())
}

/// Interrupts an online replay of the trace at its halfway report,
/// round-trips the checkpoint through JSON, resumes on a fresh pipeline,
/// and verifies the stitched event stream equals an uninterrupted replay.
fn checkpoint(path: &str) -> Result<(), RfipadError> {
    use rfipad::engine::normalize_events;
    use rfipad::PipelineCheckpoint;
    let reports = read_trace(path)?;
    if reports.len() < 2 {
        return Err(RfipadError::Source(format!(
            "{path}: need at least 2 reports to interrupt a replay"
        )));
    }
    obs::info!("rebuilding golden bench");
    let bench = golden_bench();
    let pipeline = || {
        StageGraph::builder()
            .recognizer(bench.recognizer.clone())
            .letter_gap_s(1.5)
            .build()
    };

    let mut uninterrupted = Vec::new();
    let mut p = pipeline()?;
    for r in &reports {
        p.push_into(*r, &mut uninterrupted);
    }
    p.finish_into(&mut uninterrupted);
    normalize_events(&mut uninterrupted);

    let split = reports.len() / 2;
    let mut stitched = Vec::new();
    let mut first = pipeline()?;
    for r in &reports[..split] {
        first.push_into(*r, &mut stitched);
    }
    let wire = first.checkpoint().to_json();
    drop(first); // only the serialized snapshot crosses the "migration"
    let mut resumed = pipeline()?;
    resumed.restore_checkpoint(&PipelineCheckpoint::from_json(&wire)?)?;
    for r in &reports[split..] {
        resumed.push_into(*r, &mut stitched);
    }
    resumed.finish_into(&mut stitched);
    normalize_events(&mut stitched);

    if stitched != uninterrupted {
        return Err(RfipadError::Source(format!(
            "checkpoint/restore at report {split} diverged: {} events, \
             uninterrupted replay has {}",
            stitched.len(),
            uninterrupted.len()
        )));
    }
    println!(
        "checkpoint/restore at report {split}/{} reproduced the uninterrupted \
         stream ({} events, {} checkpoint bytes)",
        reports.len(),
        uninterrupted.len(),
        wire.len()
    );
    Ok(())
}

/// Renders a flight-recorder dump (`/debug/trace/<session>` body, or any
/// file of span-event JSON lines) as a per-trace text timeline.
fn spans(path: &str) -> Result<(), RfipadError> {
    use obs::trace::SpanEvent;
    let text =
        std::fs::read_to_string(path).map_err(|e| RfipadError::Source(format!("{path}: {e}")))?;
    let mut events: Vec<SpanEvent> = text.lines().filter_map(SpanEvent::from_json).collect();
    if events.is_empty() {
        return Err(RfipadError::Source(format!(
            "{path}: no span events (expected the JSON body of /debug/trace/<session>)"
        )));
    }
    let dropped = text
        .split_once("\"dropped\":")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0u64);
    events.sort_by_key(|e| (e.trace.0, e.start_us, e.end_us));

    // Depth = parent-chain length within the dump; orphaned parents (the
    // span fell off the ring) count as roots.
    let parents: std::collections::HashMap<u64, Option<u64>> = events
        .iter()
        .map(|e| (e.span.0, e.parent.map(|p| p.0)))
        .collect();
    let depth_of = |e: &SpanEvent| {
        let mut depth = 0usize;
        let mut cursor = e.parent.map(|p| p.0);
        while let Some(p) = cursor {
            if !parents.contains_key(&p) || depth >= 16 {
                break;
            }
            depth += 1;
            cursor = parents.get(&p).copied().flatten();
        }
        depth
    };

    println!(
        "{} spans ({} dropped from the ring){}",
        events.len(),
        dropped,
        if dropped > 0 {
            " — oldest spans are missing"
        } else {
            ""
        }
    );
    let mut current_trace = None;
    let mut t0 = 0u64;
    for e in &events {
        if current_trace != Some(e.trace.0) {
            current_trace = Some(e.trace.0);
            t0 = events
                .iter()
                .filter(|x| x.trace == e.trace)
                .map(|x| x.start_us)
                .min()
                .unwrap_or(e.start_us);
            println!("trace {:016x}:", e.trace.0);
        }
        println!(
            "  +{:>10.3} ms {:>10.3} ms  {}{}",
            (e.start_us - t0) as f64 / 1e3,
            (e.end_us.saturating_sub(e.start_us)) as f64 / 1e3,
            "  ".repeat(depth_of(e)),
            e.name,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, out] if cmd == "record" => record(out, GOLDEN_LETTER),
        [cmd, out, letter] if cmd == "record" => match letter.chars().next() {
            Some(c) if letter.chars().count() == 1 => record(out, c.to_ascii_uppercase()),
            _ => return usage(),
        },
        [cmd, path] if cmd == "inspect" => inspect(path),
        [cmd, path] if cmd == "replay" => replay(path),
        [cmd, path] if cmd == "stats" => stats(path, false),
        [cmd, path, flag] if cmd == "stats" && flag == "--bench" => stats(path, true),
        [cmd, path] if cmd == "checkpoint" => checkpoint(path),
        [cmd, path] if cmd == "spans" => spans(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            obs::error!("{e}");
            ExitCode::FAILURE
        }
    }
}
