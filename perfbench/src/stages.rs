//! The five public recognition stages composed by hand, with a span around
//! every stage push, plus the single-stream `StageGraph` reference replay
//! the composed replay (and every served session) must reproduce.
//!
//! [`ComposedStages`] wires `Framing → Segmentation → Motion →
//! LetterRecognition → Grammar` the way `StageGraph` does: the letter
//! stage's oldest pending stroke anchors framing's retention, framing's
//! retention trims reach segmentation's span dedup, and a letter close
//! trims the history and clears the dedup. Only the graph's crate-private
//! buffer recycling is left out, which changes allocations but not events.

use crate::spans;
use rfid_gen2::report::TagReport;
use rfipad::engine::normalize_events;
use rfipad::stage::{
    FrameTick, Framing, Grammar, LetterOut, LetterRecognition, Motion, Segmentation, SpanBatch,
    StrokeBatch,
};
use rfipad::{PipelineEvent, Recognizer, Stage, StageGraph};
use std::sync::Arc;

/// Span names of the five stages, in cascade order.
pub const STAGE_SPANS: [&str; 5] = [
    "stage.framing",
    "stage.segmentation",
    "stage.motion",
    "stage.letter",
    "stage.grammar",
];

/// Counters of one composed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Pushes into each stage, in cascade order.
    pub calls: [u64; 5],
    /// Frame ticks framing emitted.
    pub ticks: u64,
    /// Spans segmentation handed to motion.
    pub spans: u64,
    /// Strokes motion recognized.
    pub strokes: u64,
    /// Letter closes handed to grammar.
    pub closes: u64,
    /// Letter closes grammar matched to a letter.
    pub letters: u64,
}

impl std::ops::AddAssign for StageCounts {
    fn add_assign(&mut self, o: Self) {
        for (a, b) in self.calls.iter_mut().zip(o.calls) {
            *a += b;
        }
        self.ticks += o.ticks;
        self.spans += o.spans;
        self.strokes += o.strokes;
        self.closes += o.closes;
        self.letters += o.letters;
    }
}

/// The five stages composed in the benchmark.
#[derive(Debug)]
pub struct ComposedStages {
    framing: Framing,
    segmentation: Segmentation,
    motion: Motion,
    letter: LetterRecognition,
    grammar: Grammar,
    last_time: f64,
    key: u64,
    ticks: Vec<FrameTick>,
    span_batches: Vec<SpanBatch>,
    stroke_batches: Vec<StrokeBatch>,
    letter_outs: Vec<LetterOut>,
    /// Counters so far.
    pub counts: StageCounts,
}

impl ComposedStages {
    /// Builds the stages the way `StageGraphBuilder` does. `key` tags the
    /// spans of this replay.
    pub fn new(recognizer: &Recognizer, letter_gap_s: f64, key: u64) -> Self {
        let end_guard_s =
            recognizer.config().frame_len_s * recognizer.config().window_frames as f64;
        let r = Arc::new(recognizer.clone());
        Self {
            framing: Framing::new(Arc::clone(&r), letter_gap_s, end_guard_s),
            segmentation: Segmentation::new(Arc::clone(&r), end_guard_s),
            motion: Motion::new(Arc::clone(&r)),
            letter: LetterRecognition::new(letter_gap_s),
            grammar: Grammar::new(r, end_guard_s),
            last_time: f64::NEG_INFINITY,
            key,
            ticks: Vec::new(),
            span_batches: Vec::new(),
            stroke_batches: Vec::new(),
            letter_outs: Vec::new(),
            counts: StageCounts::default(),
        }
    }

    /// Feeds one report (stale timestamps are clamped, as the graph's
    /// default policy does).
    pub fn push(&mut self, mut obs: TagReport, events: &mut Vec<PipelineEvent>) {
        if obs.time < self.last_time {
            obs.time = self.last_time;
        }
        self.last_time = obs.time;
        self.framing.set_hold_anchor(self.letter.hold_anchor());
        let (framing, ticks, key) = (&mut self.framing, &mut self.ticks, self.key);
        spans::span(STAGE_SPANS[0], key, || framing.push(obs, ticks));
        self.counts.calls[0] += 1;
        if let Some(keep_from) = self.framing.take_trim() {
            self.segmentation.trim_reported(keep_from);
        }
        if !self.ticks.is_empty() {
            self.cascade(events);
        }
    }

    /// Flushes at end of input.
    pub fn finish(&mut self, events: &mut Vec<PipelineEvent>) {
        let (framing, ticks, key) = (&mut self.framing, &mut self.ticks, self.key);
        spans::span(STAGE_SPANS[0], key, || framing.flush(ticks));
        self.counts.calls[0] += 1;
        self.cascade(events);
    }

    fn cascade(&mut self, events: &mut Vec<PipelineEvent>) {
        let key = self.key;
        self.counts.ticks += self.ticks.len() as u64;
        for tick in self.ticks.drain(..) {
            let (seg, out) = (&mut self.segmentation, &mut self.span_batches);
            spans::span(STAGE_SPANS[1], key, || seg.push(tick, out));
            self.counts.calls[1] += 1;
        }
        for batch in self.span_batches.drain(..) {
            self.counts.spans += batch.spans.len() as u64;
            let (motion, out) = (&mut self.motion, &mut self.stroke_batches);
            spans::span(STAGE_SPANS[2], key, || motion.push(batch, out));
            self.counts.calls[2] += 1;
        }
        for batch in self.stroke_batches.drain(..) {
            self.counts.strokes += batch.strokes.len() as u64;
            let (letter, out) = (&mut self.letter, &mut self.letter_outs);
            spans::span(STAGE_SPANS[3], key, || letter.push(batch, out));
            self.counts.calls[3] += 1;
        }
        let mut closed_at = None;
        for out in self.letter_outs.drain(..) {
            if let LetterOut::Close { letter_end, .. } = &out {
                closed_at = Some(*letter_end);
                self.counts.closes += 1;
            }
            let before = events.len();
            let grammar = &mut self.grammar;
            spans::span(STAGE_SPANS[4], key, || grammar.push(out, events));
            self.counts.calls[4] += 1;
            if let Some(PipelineEvent::LetterRecognized {
                letter: Some(_), ..
            }) = events[before..].last()
            {
                self.counts.letters += 1;
            }
        }
        if let Some(letter_end) = closed_at {
            self.framing.trim_after_letter(letter_end);
            self.segmentation.clear_reported();
        }
    }
}

/// Replays `reports` through the composed stages; returns the normalized
/// events and the counters.
pub fn composed_replay(
    recognizer: &Recognizer,
    letter_gap_s: f64,
    key: u64,
    reports: &[TagReport],
) -> (Vec<PipelineEvent>, StageCounts) {
    let mut stages = ComposedStages::new(recognizer, letter_gap_s, key);
    let mut events = Vec::new();
    for &r in reports {
        stages.push(r, &mut events);
    }
    stages.finish(&mut events);
    normalize_events(&mut events);
    (events, stages.counts)
}

/// The single-stream `StageGraph` replay of `reports`, normalized: the
/// reference every other path must reproduce.
pub fn reference_replay(
    recognizer: &Recognizer,
    letter_gap_s: f64,
    reports: &[TagReport],
) -> Vec<PipelineEvent> {
    let mut graph = StageGraph::builder()
        .recognizer(recognizer.clone())
        .letter_gap_s(letter_gap_s)
        .build()
        .expect("a calibrated recognizer builds a graph");
    let mut events = Vec::new();
    for &r in reports {
        graph.push_into(r, &mut events);
    }
    graph.finish_into(&mut events);
    normalize_events(&mut events);
    events
}
