//! Events and report-admission policy of the online recognizer (§V-D).
//!
//! RFIPad reacts to hand motions as they happen: tag reports stream in, and
//! as soon as a stroke's end is confirmed by a short silence the stroke is
//! recognized and reported; when the writer stays idle long enough the
//! buffered strokes are composed into a letter. Response time — the gap
//! between a motion ending and its report — is tracked per event, matching
//! the paper's Fig. 24 evaluation.
//!
//! [`crate::stage::StageGraph`] is the recognizer: the typed five-stage
//! cascade (framing → segmentation → motion → letter → grammar). This
//! module holds what it emits, [`PipelineEvent`], and how it admits stale
//! reports, [`OutOfOrderPolicy`].

use crate::recognizer::RecognizedStroke;
use serde::{Deserialize, Serialize};

/// An event emitted by the online pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PipelineEvent {
    /// A stroke completed and was recognized.
    StrokeDetected {
        /// The recognized stroke.
        stroke: RecognizedStroke,
        /// Wall-clock compute time spent producing this report, seconds
        /// (the paper's response-time metric).
        response_time_s: f64,
        /// Simulated-time delay between the stroke ending and the decision
        /// becoming possible (silence confirmation).
        decision_delay_s: f64,
    },
    /// An idle gap closed a letter.
    LetterRecognized {
        /// The deduced letter (`None` if the stroke sequence matches no
        /// grammar entry).
        letter: Option<char>,
        /// The strokes composed.
        strokes: Vec<RecognizedStroke>,
        /// Wall-clock compute time for the deduction, seconds.
        response_time_s: f64,
    },
}

/// What [`crate::StageGraph::push`] does with a report whose timestamp is
/// older than one already consumed. A single reader stream is in time
/// order, but merging several antennas or sources can interleave slightly
/// stale reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum OutOfOrderPolicy {
    /// Clamp the stale timestamp forward to the newest time seen, keeping
    /// the report's signal content (the default: a few milliseconds of
    /// skew never matters to 100 ms frames).
    #[default]
    Clamp,
    /// Drop the stale report entirely.
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;
    use crate::recognizer::Recognizer;
    use crate::stage::{Stage, StageGraph};
    use rfid_gen2::report::{TagId, TagReport};
    use std::f64::consts::TAU;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(5, 5, (0..25).map(TagId).collect())
    }

    fn obs(tag: TagId, time: f64, phase: f64, rss: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(TAU), rss)
    }

    /// Recording with a column-2 downward sweep during [2, 4) and silence
    /// until 7 s.
    fn recording() -> Vec<TagReport> {
        let l = layout();
        let mut out = Vec::new();
        for step in 0..350 {
            let t = step as f64 * 0.02;
            for r in 0..5usize {
                for c in 0..5usize {
                    let id = l.at(r, c);
                    let base = (r * 5 + c) as f64 * 0.37 + 0.4;
                    let cross = 2.2 + 0.36 * r as f64;
                    let near = (t - cross).abs() < 0.5 && (2.0..4.0).contains(&t);
                    let col_factor = 1.0 / (1.0 + (c as f64 - 2.0).powi(2));
                    let (wiggle, dip) = if near {
                        (
                            0.9 * col_factor * ((t - cross) * 18.0).sin(),
                            -7.0 * col_factor * (-(t - cross) * (t - cross) / 0.01).exp(),
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    out.push(obs(
                        id,
                        t + (r * 5 + c) as f64 * 1e-4,
                        base + wiggle,
                        -45.0 + dip,
                    ));
                }
            }
        }
        out
    }

    fn pipeline() -> StageGraph {
        let l = layout();
        let static_part: Vec<TagReport> =
            recording().into_iter().filter(|o| o.time < 2.0).collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&l, &static_part, &config).unwrap();
        let rec = Recognizer::builder()
            .layout(l)
            .calibration(cal)
            .config(config)
            .build()
            .unwrap();
        StageGraph::builder()
            .recognizer(rec)
            .letter_gap_s(1.5)
            .build()
            .unwrap()
    }

    #[test]
    fn stroke_and_letter_events_emitted_in_order() {
        let mut p = pipeline();
        let mut events = Vec::new();
        for o in recording() {
            events.extend(p.push(o));
        }
        events.extend(p.finish());
        let strokes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::StrokeDetected { .. }))
            .collect();
        assert_eq!(strokes.len(), 1, "events: {}", events.len());
        let letters: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                PipelineEvent::LetterRecognized {
                    letter, strokes, ..
                } => Some((letter, strokes.len())),
                _ => None,
            })
            .collect();
        assert_eq!(letters.len(), 1);
        // A lone vertical bar is the letter I.
        assert_eq!(letters[0], (&Some('I'), 1));
    }

    #[test]
    fn stroke_reported_before_letter() {
        let mut p = pipeline();
        let mut kinds = Vec::new();
        for o in recording() {
            for e in p.push(o) {
                kinds.push(match e {
                    PipelineEvent::StrokeDetected { .. } => "stroke",
                    PipelineEvent::LetterRecognized { .. } => "letter",
                });
            }
        }
        for e in p.finish() {
            kinds.push(match e {
                PipelineEvent::StrokeDetected { .. } => "stroke",
                PipelineEvent::LetterRecognized { .. } => "letter",
            });
        }
        assert_eq!(kinds, vec!["stroke", "letter"]);
    }

    #[test]
    fn response_times_are_small() {
        let mut p = pipeline();
        let mut response = None;
        for o in recording() {
            for e in p.push(o) {
                if let PipelineEvent::StrokeDetected {
                    response_time_s, ..
                } = e
                {
                    response = Some(response_time_s);
                }
            }
        }
        p.finish();
        let r = response.expect("stroke reported");
        // The paper reports < 0.1 s on a 2013 laptop; allow headroom for
        // debug builds.
        assert!(r < 2.0, "response {r}");
        assert!(r > 0.0);
    }

    #[test]
    fn quiet_stream_emits_nothing() {
        let mut p = pipeline();
        let mut events = Vec::new();
        for o in recording().into_iter().filter(|o| o.time < 1.8) {
            events.extend(p.push(o));
        }
        events.extend(p.finish());
        assert!(events.is_empty());
    }

    #[test]
    fn rejects_nonpositive_letter_gap() {
        let p = pipeline();
        let rec = p.recognizer().clone();
        assert!(StageGraph::builder()
            .recognizer(rec)
            .letter_gap_s(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_requires_recognizer_and_defaults_gap() {
        assert!(StageGraph::builder().build().is_err());
        let p = pipeline();
        let built = StageGraph::builder()
            .recognizer(p.recognizer().clone())
            .build()
            .expect("defaults valid");
        assert_eq!(built.letter_gap_s(), 1.5);
    }

    #[test]
    fn finish_is_idempotent() {
        // Stop the feed right after the stroke, before any silence: the
        // whole stroke + letter decision then rides on finish().
        let mut p = pipeline();
        let mut events = Vec::new();
        for o in recording().into_iter().filter(|o| o.time < 4.2) {
            events.extend(p.push(o));
        }
        let first = p.finish();
        assert!(
            first
                .iter()
                .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. })),
            "finish closes the pending letter: {first:?}"
        );
        assert!(p.finish().is_empty(), "second finish re-emitted events");
        assert!(p.finish().is_empty());
    }

    #[test]
    fn push_after_finish_resumes_the_stream() {
        let mut p = pipeline();
        let all = recording();
        for o in all.iter().filter(|o| o.time < 5.0) {
            p.push(*o);
        }
        let mid = p.finish();
        assert!(mid
            .iter()
            .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. })));
        // The stream resumes: further quiet traffic is consumed normally
        // and a later finish does not duplicate the closed letter.
        for o in all.iter().filter(|o| o.time >= 5.0) {
            p.push(*o);
        }
        let tail = p.finish();
        assert!(
            !tail.iter().any(|e| matches!(
                e,
                PipelineEvent::LetterRecognized {
                    letter: Some(_),
                    ..
                }
            )),
            "resumed quiet tail re-reported the letter: {tail:?}"
        );
    }

    #[test]
    fn push_into_batch_and_push_agree() {
        let mut serial = pipeline();
        let mut serial_events = Vec::new();
        for o in recording() {
            serial_events.extend(serial.push(o));
        }
        serial_events.extend(serial.finish());

        let mut batched = pipeline();
        let mut batched_events = Vec::new();
        for chunk in recording().chunks(64) {
            batched.push_batch(chunk.iter().copied(), &mut batched_events);
        }
        batched.finish_into(&mut batched_events);

        assert_eq!(serial_events.len(), batched_events.len());
        for (a, b) in serial_events.iter().zip(&batched_events) {
            // Response times are wall-clock and differ run to run; the
            // recognized content must be identical.
            match (a, b) {
                (
                    PipelineEvent::StrokeDetected { stroke: sa, .. },
                    PipelineEvent::StrokeDetected { stroke: sb, .. },
                ) => assert_eq!(sa, sb),
                (
                    PipelineEvent::LetterRecognized {
                        letter: la,
                        strokes: sa,
                        ..
                    },
                    PipelineEvent::LetterRecognized {
                        letter: lb,
                        strokes: sb,
                        ..
                    },
                ) => {
                    assert_eq!(la, lb);
                    assert_eq!(sa, sb);
                }
                other => panic!("event kinds diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn stage_trait_and_direct_calls_agree() {
        // The graph's `Stage` impl must be a pure delegation layer:
        // driving it through the trait produces identical recognized
        // content.
        let mut via_trait = pipeline();
        let mut trait_events = Vec::new();
        for o in recording() {
            Stage::push(&mut via_trait, o, &mut trait_events);
        }
        Stage::flush(&mut via_trait, &mut trait_events);

        let mut graph = pipeline();
        let mut graph_events = Vec::new();
        for o in recording() {
            graph.push_into(o, &mut graph_events);
        }
        graph.finish_into(&mut graph_events);

        assert_eq!(trait_events.len(), graph_events.len());
        for (a, b) in trait_events.iter().zip(&graph_events) {
            match (a, b) {
                (
                    PipelineEvent::StrokeDetected { stroke: sa, .. },
                    PipelineEvent::StrokeDetected { stroke: sb, .. },
                ) => assert_eq!(sa, sb),
                (
                    PipelineEvent::LetterRecognized {
                        letter: la,
                        strokes: sa,
                        ..
                    },
                    PipelineEvent::LetterRecognized {
                        letter: lb,
                        strokes: sb,
                        ..
                    },
                ) => {
                    assert_eq!(la, lb);
                    assert_eq!(sa, sb);
                }
                other => panic!("event kinds diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_restore_mid_recording_matches_uninterrupted() {
        let all = recording();
        for split in [recording().len() / 3, recording().len() / 2] {
            // Uninterrupted run.
            let mut whole = pipeline();
            let mut whole_events = Vec::new();
            for o in &all {
                whole.push_into(*o, &mut whole_events);
            }
            whole.finish_into(&mut whole_events);

            // Interrupted run: checkpoint mid-stroke, restore into a
            // freshly built pipeline, continue.
            let mut prefix = pipeline();
            let mut split_events = Vec::new();
            for o in &all[..split] {
                prefix.push_into(*o, &mut split_events);
            }
            let checkpoint = prefix.checkpoint();
            let mut resumed = pipeline();
            resumed
                .restore_checkpoint(&checkpoint)
                .expect("checkpoint restores");
            for o in &all[split..] {
                resumed.push_into(*o, &mut split_events);
            }
            resumed.finish_into(&mut split_events);

            assert_eq!(whole_events.len(), split_events.len(), "split {split}");
            for (a, b) in whole_events.iter().zip(&split_events) {
                match (a, b) {
                    (
                        PipelineEvent::StrokeDetected { stroke: sa, .. },
                        PipelineEvent::StrokeDetected { stroke: sb, .. },
                    ) => assert_eq!(sa, sb),
                    (
                        PipelineEvent::LetterRecognized {
                            letter: la,
                            strokes: sa,
                            ..
                        },
                        PipelineEvent::LetterRecognized {
                            letter: lb,
                            strokes: sb,
                            ..
                        },
                    ) => {
                        assert_eq!(la, lb);
                        assert_eq!(sa, sb);
                    }
                    other => panic!("event kinds diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cache_invalidated_by_letter_close_then_resumes() {
        let mut p = pipeline();
        let mut letter_seen = false;
        for o in recording() {
            let events = p.push(o);
            if events
                .iter()
                .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. }))
            {
                // The letter close trims the buffer and must drop the
                // cache with it, in the same tick.
                assert!(!p.cache_is_some(), "letter-close trim left a stale cache");
                letter_seen = true;
            }
        }
        assert!(letter_seen, "recording closes a letter mid-feed");
        // Later ticks rebuild the cache from the trimmed buffer and then
        // maintain it incrementally; it must match a rebuild exactly.
        assert!(p.cache_is_some(), "cache not rebuilt after the letter");
        p.assert_cache_matches_rebuild();
        // finish-then-resume: the flush and the resumed traffic keep the
        // cache in step with the buffer.
        p.finish();
        for mut o in recording().into_iter().filter(|o| o.time < 1.0) {
            o.time += 8.0;
            p.push(o);
        }
        p.assert_cache_matches_rebuild();
    }

    #[test]
    fn cache_consistent_under_out_of_order_clamp() {
        let p = pipeline();
        let mut clamping = StageGraph::builder()
            .recognizer(p.recognizer().clone())
            .letter_gap_s(1.5)
            .out_of_order(OutOfOrderPolicy::Clamp)
            .build()
            .unwrap();
        for (i, mut o) in recording().into_iter().enumerate() {
            if i % 8 == 3 {
                o.time -= 0.04;
            }
            clamping.push(o);
        }
        assert!(clamping.out_of_order_count() > 0, "stale reports seen");
        clamping.assert_cache_matches_rebuild();
    }

    #[test]
    fn cache_consistent_under_out_of_order_drop() {
        let p = pipeline();
        let mut dropping = StageGraph::builder()
            .recognizer(p.recognizer().clone())
            .letter_gap_s(1.5)
            .out_of_order(OutOfOrderPolicy::Drop)
            .build()
            .unwrap();
        for (i, mut o) in recording().into_iter().enumerate() {
            if i % 10 == 7 {
                o.time -= 0.05;
            }
            dropping.push(o);
        }
        assert!(dropping.out_of_order_count() > 0, "stale reports seen");
        dropping.assert_cache_matches_rebuild();
    }

    #[test]
    fn out_of_order_clamped_and_counted() {
        let p = pipeline();
        let mut clamping = StageGraph::builder()
            .recognizer(p.recognizer().clone())
            .letter_gap_s(1.5)
            .out_of_order(OutOfOrderPolicy::Clamp)
            .build()
            .unwrap();
        let mut events = Vec::new();
        for (i, mut o) in recording().into_iter().enumerate() {
            // A second antenna's reports lag by 40 ms every eighth read.
            if i % 8 == 3 {
                o.time -= 0.04;
            }
            events.extend(clamping.push(o));
        }
        events.extend(clamping.finish());
        assert!(clamping.out_of_order_count() > 0, "stale reports seen");
        // Clamped timestamps never run backwards inside the buffer.
        assert!(clamping.buffer().windows(2).all(|w| w[0].time <= w[1].time));
        // The sweep still resolves to the same letter.
        assert!(events.iter().any(|e| matches!(
            e,
            PipelineEvent::LetterRecognized {
                letter: Some('I'),
                ..
            }
        )));
    }

    #[test]
    fn out_of_order_drop_discards_stale_reports() {
        let p = pipeline();
        let mut dropping = StageGraph::builder()
            .recognizer(p.recognizer().clone())
            .letter_gap_s(1.5)
            .out_of_order(OutOfOrderPolicy::Drop)
            .build()
            .unwrap();
        let reports = recording();
        let n = reports.len();
        for (i, mut o) in reports.into_iter().enumerate() {
            if i % 10 == 7 {
                o.time -= 0.05;
            }
            dropping.push(o);
        }
        assert!(dropping.out_of_order_count() > 0);
        assert!(
            (dropping.buffer().len() as u64) <= n as u64 - dropping.out_of_order_count()
                || dropping.buffer().len() < n,
            "dropped reports must not enter the buffer"
        );
        assert!(dropping.buffer().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn threaded_session_round_trip() {
        // The deployment shape of a kiosk: the graph runs on an engine
        // worker thread, reports in through the session handle.
        let engine = crate::engine::Engine::builder()
            .workers(1)
            .build()
            .expect("engine");
        let session = engine.open_session("pad", pipeline()).expect("open");
        for o in recording() {
            session.ingest(o).expect("pipeline alive");
        }
        let collected: Vec<PipelineEvent> = session.close().expect("no panic");
        assert!(collected.iter().any(|e| matches!(
            e,
            PipelineEvent::LetterRecognized {
                letter: Some('I'),
                ..
            }
        )));
    }
}

#[cfg(test)]
mod buffer_tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;
    use crate::recognizer::Recognizer;
    use crate::stage::{StageGraph, MAX_BUFFER_S};
    use rfid_gen2::report::{TagId, TagReport};

    fn quiet_obs(tag: u64, time: f64) -> TagReport {
        TagReport::synthetic(TagId(tag), time, 1.0 + tag as f64, -45.0)
    }

    fn quiet_pipeline(letter_gap_s: f64) -> StageGraph {
        let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
        let static_obs: Vec<TagReport> = (0..40)
            .flat_map(|j| (0..3).map(move |i| quiet_obs(i, j as f64 * 0.05 + i as f64 * 0.01)))
            .collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout, &static_obs, &config).unwrap();
        let rec = Recognizer::builder()
            .layout(layout)
            .calibration(cal)
            .config(config)
            .build()
            .unwrap();
        StageGraph::builder()
            .recognizer(rec)
            .letter_gap_s(letter_gap_s)
            .build()
            .unwrap()
    }

    /// A hand-built pending stroke, for exercising the retention logic
    /// without driving a full recognition.
    fn fake_stroke(start: f64, end: f64) -> RecognizedStroke {
        use crate::motion::RecognizedMotion;
        use crate::segmentation::StrokeSpan;
        use hand_kinematics::stroke::{Stroke, StrokeShape};
        use sigproc::grid::BinaryGrid;
        let mut mask = BinaryGrid::empty(1, 3);
        mask.set(0, 1, true);
        RecognizedStroke {
            stroke: Stroke::new(StrokeShape::Click),
            span: StrokeSpan { start, end },
            motion: RecognizedMotion {
                shape: StrokeShape::Click,
                mask,
                centroid: (0.0, 1.0),
                bbox: (0, 1, 0, 1),
            },
        }
    }

    #[test]
    fn buffer_stays_bounded_over_long_quiet_runs() {
        let mut pipeline = quiet_pipeline(1.5);

        // Two simulated minutes of quiet traffic at ~60 reads/s (enough
        // to overflow an unbounded buffer four times over).
        let mut max_len = 0usize;
        for step in 0..7_200u64 {
            let t = step as f64 / 60.0;
            pipeline.push(quiet_obs(step % 3, t));
            max_len = max_len.max(pipeline.buffer().len());
        }
        // 30 s of history at 60 reads/s is 1800 reads; allow slack for the
        // trim hysteresis.
        assert!(
            pipeline.buffer().len() < 2_400,
            "buffer grew to {}",
            pipeline.buffer().len()
        );
        assert!(max_len < 2_800, "peak buffer {}", max_len);
    }
    #[test]
    fn trimming_drops_history_older_than_window() {
        let mut pipeline = quiet_pipeline(1.5);
        // One simulated minute of quiet traffic: the window is 30 s, so
        // the earliest reads must be long gone by the end.
        let mut last_t = 0.0;
        for step in 0..3_600u64 {
            last_t = step as f64 / 60.0;
            pipeline.push(quiet_obs(step % 3, last_t));
        }
        let first = pipeline.buffer().first().expect("buffer non-empty").time;
        assert!(first > 2.0, "old history survived: first read at {first}");
        // Nothing older than the window plus the trim hysteresis remains.
        assert!(
            first >= last_t - MAX_BUFFER_S - 5.0 - 1e-9,
            "first {first} vs now {last_t}"
        );
    }

    #[test]
    fn pending_letter_holds_history_past_the_window() {
        // A letter gap far longer than the run keeps the stroke pending
        // throughout; its history must survive even past MAX_BUFFER_S.
        let mut pipeline = quiet_pipeline(1_000.0);
        pipeline.pending_strokes_mut().push(fake_stroke(2.0, 3.0));
        let mut last_t = 0.0;
        for step in 0..2_400u64 {
            last_t = step as f64 / 60.0;
            pipeline.push(quiet_obs(step % 3, last_t));
        }
        assert!(last_t > MAX_BUFFER_S + 5.0, "run long enough to trim");
        let first = pipeline.buffer().first().expect("buffer non-empty").time;
        // Retention is anchored 1 s before the pending stroke, not at the
        // rolling window edge.
        assert!(
            first <= 2.0,
            "pending letter history trimmed: first {first}"
        );
        assert!(!pipeline.pending_strokes_mut().is_empty());
    }

    #[test]
    fn cache_consistent_across_retention_trims() {
        let mut pipeline = quiet_pipeline(1.5);
        let mut trims = 0usize;
        for step in 0..3_600u64 {
            let t = step as f64 / 60.0;
            let before = pipeline.buffer().len();
            pipeline.push(quiet_obs(step % 3, t));
            if pipeline.buffer().len() <= before {
                trims += 1;
            }
            // Spot-check: the incrementally maintained cache never drifts
            // from a rebuild over the (possibly trimmed) buffer.
            if step % 600 == 599 {
                pipeline.assert_cache_matches_rebuild();
            }
        }
        assert!(trims > 0, "run long enough to trim history");
        pipeline.assert_cache_matches_rebuild();
    }

    #[test]
    fn reported_spans_stay_sorted() {
        let mut pipeline = quiet_pipeline(1.5);
        // Out-of-sorted-order marks must land sorted (the dedup relies on
        // partition_point).
        pipeline.mark_reported(2.5);
        pipeline.mark_reported(1.0);
        pipeline.mark_reported(4.0);
        pipeline.mark_reported(1.7);
        assert_eq!(pipeline.reported_spans(), vec![1.0, 1.7, 2.5, 4.0]);
        assert!(pipeline.span_already_reported(1.2));
        assert!(pipeline.span_already_reported(2.6));
        assert!(!pipeline.span_already_reported(3.2));
        assert!(!pipeline.span_already_reported(0.5));
    }

    #[test]
    fn reported_spans_trimmed_with_buffer() {
        let mut pipeline = quiet_pipeline(1.5);
        // Simulate spans reported early in a run whose letter never closed
        // (e.g. unclassifiable blips): their dedup entries must not leak.
        pipeline.reported_spans_mut().push(1.0);
        pipeline.reported_spans_mut().push(2.5);
        let mut last_t = 0.0;
        for step in 0..3_600u64 {
            last_t = step as f64 / 60.0;
            pipeline.push(quiet_obs(step % 3, last_t));
        }
        assert!(
            pipeline
                .reported_spans()
                .iter()
                .all(|&s| s >= last_t - MAX_BUFFER_S - 5.0),
            "stale reported spans retained: {:?}",
            pipeline.reported_spans()
        );
    }
}
