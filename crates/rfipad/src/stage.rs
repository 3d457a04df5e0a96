//! The typed stage graph: RFIPad's one recognition path.
//!
//! The paper's online cascade (§V-D) has five distinct steps — buffering
//! and incremental framing, RMS segmentation, motion classification,
//! letter assembly, and grammar deduction. This module reifies each step
//! as a [`Stage`] with a typed input and output, and composes them with a
//! [`StageGraph`] that owns ordering, the out-of-order report policy, and
//! per-stage instrumentation (the `rfipad_stage_push_seconds{stage=...}`
//! histograms).
//!
//! Splitting the cascade buys two things the monolithic pipeline could
//! not offer:
//!
//! * **Checkpoint/restore.** Every stage can [`Stage::snapshot`] its
//!   mutable state into a versioned JSON [`StageState`];
//!   [`StageGraph::checkpoint`] bundles them into a
//!   [`PipelineCheckpoint`] that [`StageGraph::restore_checkpoint`]
//!   replays into a freshly built graph. A restored graph produces the
//!   same remaining events, bit for bit, as the uninterrupted run —
//!   the property [`crate::engine::Engine::restore_session`] uses to
//!   migrate evicted sessions between processes.
//! * **One path.** Every caller drives the same graph: the engine
//!   workers and the network server (one graph per session), `multipad`,
//!   and [`Recognizer::recognize_session`], which folds a whole recording
//!   through a graph and so scores the experiment trials.
//!
//! Floats in checkpoints are persisted as IEEE-754 bit patterns
//! (`f64::to_bits`), never decimal, so a snapshot/restore round trip is
//! exact. Checkpoints are read with the strict [`obs::json`] reader; the
//! codec rejects malformed JSON, unknown fields and versions it does not
//! understand with [`RfipadError::Checkpoint`].

use crate::error::RfipadError;
use crate::pipeline::{OutOfOrderPolicy, PipelineEvent};
use crate::recognizer::{RecognizedStroke, Recognizer};
use crate::segmentation::StrokeSpan;
use crate::streams::{TagStreams, TagStreamsBuilder};
use hand_kinematics::stroke::{Stroke, StrokeShape};
use obs::json;
use rfid_gen2::epc::Epc96;
use rfid_gen2::report::{TagId, TagReport};
use sigproc::frames::{FrameBuilder, FrameSeq};
use sigproc::grid::BinaryGrid;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on how much history the framing stage keeps (seconds). A
/// kiosk runs for days; without a bound, a long quiet spell would grow
/// the buffer without limit. The bound comfortably exceeds any letter's
/// duration plus the letter gap.
pub(crate) const MAX_BUFFER_S: f64 = 30.0;

/// One step of the online recognition cascade.
///
/// A stage consumes typed inputs, appends typed outputs, and can
/// serialize its mutable state for session migration. Stages are wired
/// together by a [`StageGraph`], which also times every push into the
/// `rfipad_stage_push_seconds{stage=...}` histogram family.
pub trait Stage {
    /// The input consumed by [`Stage::push`].
    type In;
    /// The output appended by [`Stage::push`] and [`Stage::flush`].
    type Out;

    /// Stable stage name, used as the metric label and to address the
    /// stage's [`StageState`] inside a [`PipelineCheckpoint`].
    fn name(&self) -> &'static str;

    /// Consumes one input, appending any outputs it triggers.
    fn push(&mut self, input: Self::In, out: &mut Vec<Self::Out>);

    /// Flushes end-of-input state (most stages are driven entirely by
    /// their inputs and have nothing to flush).
    fn flush(&mut self, out: &mut Vec<Self::Out>) {
        let _ = out;
    }

    /// Serializes the stage's mutable state.
    fn snapshot(&self) -> StageState;

    /// Restores state captured by [`Stage::snapshot`] on an identically
    /// configured stage.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] if the state belongs to a
    /// different stage, fails to parse, or fails its integrity checks.
    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError>;
}

/// A serialized stage snapshot: the owning stage's name plus its state
/// as a JSON object, written with `format!` and read back with
/// [`obs::json`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageState {
    stage: String,
    state: String,
}

impl StageState {
    /// Wraps a stage name and its JSON state object.
    pub fn new(stage: impl Into<String>, state: impl Into<String>) -> Self {
        Self {
            stage: stage.into(),
            state: state.into(),
        }
    }

    /// The stage this state belongs to.
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// The stage's state as a JSON object string.
    pub fn state(&self) -> &str {
        &self.state
    }
}

/// Output of [`Framing`]: one processing tick over the buffered history.
#[derive(Debug)]
pub struct FrameTick {
    /// Simulated time of the tick (the newest report's clamped time, or
    /// the flush horizon).
    pub now: f64,
    /// Wall-clock start of the tick, for response-time accounting.
    pub started: Instant,
    /// Per-frame RMS scores over the buffered history.
    pub frames: FrameSeq,
    /// Snapshot of the calibrated streams at this tick. Shared with the
    /// framing stage's incremental builder; dropping the tick after the
    /// cascade keeps later pushes copy-free.
    pub streams: Arc<TagStreams>,
}

/// Output of [`Segmentation`]: the spans newly confirmed at one tick.
#[derive(Debug)]
pub struct SpanBatch {
    /// Simulated time of the tick.
    pub now: f64,
    /// Wall-clock start of the tick.
    pub started: Instant,
    /// Stream snapshot the spans were segmented from.
    pub streams: Arc<TagStreams>,
    /// Spans whose end is silence-confirmed and that were not reported
    /// before (already deduplicated).
    pub spans: Vec<StrokeSpan>,
    /// End of the latest active frame, or `NEG_INFINITY` when no frame
    /// is active — a stroke in progress holds the letter open.
    pub last_activity: f64,
}

/// Output of [`Motion`]: the recognized strokes of one tick.
#[derive(Debug)]
pub struct StrokeBatch {
    /// Simulated time of the tick.
    pub now: f64,
    /// End of the latest active frame at the tick.
    pub last_activity: f64,
    /// Recognized strokes with their wall-clock response times.
    pub strokes: Vec<(RecognizedStroke, f64)>,
}

/// Output of [`LetterRecognition`]: pass-through strokes and letter
/// closes, in emission order.
#[derive(Debug)]
pub enum LetterOut {
    /// A recognized stroke to report immediately.
    Stroke {
        /// The recognized stroke.
        stroke: RecognizedStroke,
        /// Wall-clock compute time spent producing it, seconds.
        response_time_s: f64,
    },
    /// An idle gap closed the letter.
    Close {
        /// The strokes composing the letter, in detection order.
        strokes: Vec<RecognizedStroke>,
        /// End time of the letter's last stroke; history at or before
        /// this point is dead and the graph trims it.
        letter_end: f64,
    },
}

/// Incrementally maintained view of the buffered reports: calibrated
/// per-tag streams plus the per-frame RMS accumulators over them. Kept
/// in step with [`Framing`]'s buffer on every push and *dropped*
/// whenever the buffer is trimmed — a rebuild from a shorter history
/// legitimately re-picks unwrap state and the Eq. 8 re-centring offsets
/// at the new first sample, so patching the cache in place would
/// diverge from a from-scratch build.
#[derive(Debug, Default)]
struct StreamCache {
    streams: TagStreamsBuilder,
    /// Created at the first in-layout report; that report's time anchors
    /// frame 0, matching the batch build's `streams.start()`.
    frames: Option<FrameBuilder>,
    /// A retired frame builder kept for its allocations: the next rebuild
    /// re-anchors it instead of constructing a fresh one.
    spare: Option<FrameBuilder>,
}

impl StreamCache {
    /// Empties the cache while keeping its allocations (stream series,
    /// frame accumulators) for the next rebuild.
    fn reset(&mut self) {
        self.streams.clear();
        if let Some(frames) = self.frames.take() {
            self.spare = Some(frames);
        }
    }
}

/// Appends one (already clamped) report to the cache, mirroring what a
/// batch rebuild over the buffer would accumulate for it.
fn cache_append(
    cache: &mut StreamCache,
    recognizer: &Recognizer,
    noise_floors: &[f64],
    obs: &TagReport,
) {
    let layout = recognizer.layout();
    if let Some((tag, t, v)) = cache
        .streams
        .push(layout, Some(recognizer.calibration()), obs)
    {
        let frames = match &mut cache.frames {
            Some(frames) => frames,
            frames @ None => frames.insert(match cache.spare.take() {
                // A retired builder carries the right stream count,
                // floors, and frame length; only the anchor moves.
                Some(mut spare) => {
                    spare.reset_anchor(t);
                    spare
                }
                None => FrameBuilder::new(
                    layout.len(),
                    Some(noise_floors.to_vec()),
                    t,
                    recognizer.config().frame_len_s,
                ),
            }),
        };
        let idx = layout.stream_index(tag).expect("accepted tag in layout");
        frames.push(idx, t, v);
    }
}

/// Stage 1: report buffering, incremental stream/frame maintenance, and
/// the once-per-frame tick cut (§III-A plus the retention policy).
///
/// Owns the raw report history. Emits a [`FrameTick`] at most once per
/// frame length; [`Stage::flush`] emits one final tick at a horizon far
/// enough past the last report to confirm and close everything pending.
#[derive(Debug)]
pub struct Framing {
    recognizer: Arc<Recognizer>,
    /// Per-stream noise floors in layout order (static per calibration).
    noise_floors: Vec<f64>,
    letter_gap_s: f64,
    end_guard_s: f64,
    buffer: Vec<TagReport>,
    /// Incremental streams + frames over `buffer`; `None` after a trim
    /// until the next tick rebuilds it.
    cache: Option<StreamCache>,
    /// An invalidated cache kept for its allocations; the next rebuild
    /// starts from it instead of a fresh [`StreamCache`].
    spare_cache: Option<StreamCache>,
    /// A consumed tick's frame sequence handed back by the graph; the
    /// next tick builds into it instead of allocating.
    spare_frames: Option<FrameSeq>,
    last_processed: f64,
    /// Start of the oldest pending stroke (set by the graph before each
    /// push): retention never cuts into an unclosed letter's history.
    hold_from: Option<f64>,
    /// Cut point of a retention trim this push, for the graph to forward
    /// to [`Segmentation::trim_reported`].
    pending_trim: Option<f64>,
}

impl Framing {
    /// Creates the stage. `end_guard_s` is the silence that confirms a
    /// stroke's end; `letter_gap_s` the idle time that closes a letter.
    pub fn new(recognizer: Arc<Recognizer>, letter_gap_s: f64, end_guard_s: f64) -> Self {
        let noise_floors = recognizer.noise_floors();
        Self {
            recognizer,
            noise_floors,
            letter_gap_s,
            end_guard_s,
            buffer: Vec::new(),
            cache: None,
            spare_cache: None,
            spare_frames: None,
            last_processed: f64::NEG_INFINITY,
            hold_from: None,
            pending_trim: None,
        }
    }

    /// Anchors retention: history from 1 s before `anchor` survives even
    /// past the rolling window, so a pending letter's evidence is never
    /// trimmed away.
    pub fn set_hold_anchor(&mut self, anchor: Option<f64>) {
        self.hold_from = anchor;
    }

    /// Takes the cut point of a retention trim performed by the latest
    /// push, if any. The graph forwards it downstream so span-dedup
    /// entries older than the retained history are dropped too.
    pub fn take_trim(&mut self) -> Option<f64> {
        self.pending_trim.take()
    }

    /// Drops history at or before `letter_end` after a letter closed.
    /// The shortened history re-anchors stream centring, so the
    /// incremental cache is dropped with it and rebuilt at the next
    /// tick.
    pub fn trim_after_letter(&mut self, letter_end: f64) {
        self.buffer.retain(|o| o.time > letter_end);
        self.invalidate_cache();
    }

    /// Drops the incremental cache, parking it (emptied) as the spare so
    /// the rebuild reuses its allocations.
    fn invalidate_cache(&mut self) {
        if let Some(mut cache) = self.cache.take() {
            cache.reset();
            self.spare_cache = Some(cache);
        }
    }

    /// Hands a consumed tick's frame sequence back for reuse by the next
    /// tick.
    pub(crate) fn recycle_frames(&mut self, frames: FrameSeq) {
        self.spare_frames = Some(frames);
    }

    /// Rebuilds the incremental cache from the buffer if a trim dropped
    /// it, reusing the retired cache's allocations when one is parked.
    fn ensure_cache(&mut self) {
        if self.cache.is_some() {
            return;
        }
        let mut cache = self.spare_cache.take().unwrap_or_default();
        for obs in &self.buffer {
            cache_append(&mut cache, &self.recognizer, &self.noise_floors, obs);
        }
        self.cache = Some(cache);
    }

    /// Cuts one processing tick at `now`: finalized frames plus a shared
    /// stream snapshot. The stage histogram times the tick (the cache
    /// rebuild + frame cut), not the per-report append — the cheap
    /// steady-state push must not pay for two clock reads per report, and
    /// even the tick timer rides the head sampler to stay inside the
    /// telemetry overhead budget.
    fn tick(&mut self, now: f64, out: &mut Vec<FrameTick>) {
        let _span = crate::telemetry::stage_metrics()
            .framing
            .start_span_if(obs::trace::sampler().sample());
        let started = Instant::now();
        self.ensure_cache();
        let mut frames = self.spare_frames.take().unwrap_or_default();
        let cache = self.cache.as_mut().expect("ensured above");
        match (&mut cache.frames, cache.streams.streams().end()) {
            (Some(builder), Some(end)) => builder.build_into(end, &mut frames),
            _ => frames.clear(),
        }
        out.push(FrameTick {
            now,
            started,
            frames,
            streams: cache.streams.shared_streams(),
        });
    }
}

impl Stage for Framing {
    type In = TagReport;
    type Out = FrameTick;

    fn name(&self) -> &'static str {
        "framing"
    }

    fn push(&mut self, obs: TagReport, out: &mut Vec<FrameTick>) {
        let now = obs.time;
        self.buffer.push(obs);
        // Keep the incremental cache in step with the buffer. A cache
        // dropped by a trim is rebuilt lazily at the next tick.
        if let Some(cache) = self.cache.as_mut() {
            cache_append(cache, &self.recognizer, &self.noise_floors, &obs);
        }
        // Bound the history: drop everything older than the retention
        // window, but never cut into a pending (unclosed) letter.
        let keep_from = self
            .hold_from
            .map(|s| s - 1.0)
            .unwrap_or(f64::INFINITY)
            .min(now - MAX_BUFFER_S);
        if self
            .buffer
            .first()
            .map(|o| o.time < keep_from - 5.0)
            .unwrap_or(false)
        {
            self.buffer.retain(|o| o.time >= keep_from);
            self.pending_trim = Some(keep_from);
            self.invalidate_cache();
        }
        // Re-evaluate once per frame, not per read.
        if now - self.last_processed < self.recognizer.config().frame_len_s {
            return;
        }
        self.last_processed = now;
        self.tick(now, out);
    }

    fn flush(&mut self, out: &mut Vec<FrameTick>) {
        // A horizon far enough past the last report that every span is
        // confirmed and any pending letter's idle gap has elapsed.
        let now = self
            .buffer
            .last()
            .map(|o| o.time + self.letter_gap_s + self.end_guard_s)
            .unwrap_or(0.0);
        self.tick(now, out);
    }

    fn snapshot(&self) -> StageState {
        let buffer: Vec<String> = self.buffer.iter().map(report_to_json).collect();
        // Diagnostics of the live frame accumulator, if one exists: the
        // restore path rebuilds it from the buffer (deterministic, per
        // the cache-matches-rebuild invariant) and verifies these bits.
        let frames = self
            .cache
            .as_ref()
            .and_then(|c| c.frames.as_ref())
            .map(|f| {
                format!(
                    "{{\"anchor_bits\":{},\"frame_len_bits\":{},\"max_time_bits\":{}}}",
                    f.start().to_bits(),
                    f.frame_len().to_bits(),
                    f.max_time().to_bits()
                )
            })
            .unwrap_or_else(|| "null".into());
        StageState::new(
            self.name(),
            format!(
                "{{\"last_processed_bits\":{},\"buffer\":[{}],\"frames\":{}}}",
                self.last_processed.to_bits(),
                buffer.join(","),
                frames
            ),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        let (last_processed, buffer, diag) = json::parse(state.state())?.object(|f| {
            Ok((
                f.take("last_processed_bits", bits)?,
                f.take("buffer", |v| v.items(report_from_json))?,
                f.take("frames", |v| {
                    (!v.is_null()).then(|| frame_diag_from_json(v)).transpose()
                })?,
            ))
        })?;
        self.last_processed = last_processed;
        self.buffer = buffer;
        self.invalidate_cache();
        self.hold_from = None;
        self.pending_trim = None;
        if let Some((anchor, frame_len, max_time)) = diag {
            // Rebuild the accumulator the next tick would build anyway
            // and verify it against the checkpointed diagnostics — a
            // cheap integrity check that the buffer round-tripped bit
            // for bit.
            self.ensure_cache();
            let frames = self
                .cache
                .as_ref()
                .and_then(|c| c.frames.as_ref())
                .ok_or_else(|| {
                    checkpoint_err("checkpointed frame accumulator cannot be rebuilt from buffer")
                })?;
            if frames.start().to_bits() != anchor
                || frames.frame_len().to_bits() != frame_len
                || frames.max_time().to_bits() != max_time
            {
                return Err(checkpoint_err(
                    "rebuilt frame accumulator diverges from the checkpoint",
                ));
            }
        }
        Ok(())
    }
}

/// Stage 2: stroke segmentation over each frame tick (Eq. 11–12), plus
/// span deduplication across ticks.
///
/// Re-segmenting the whole buffered window every tick re-discovers old
/// spans; `reported_spans` remembers what was already handed downstream
/// (by span start, ±0.25 s) so each stroke is reported exactly once.
#[derive(Debug)]
pub struct Segmentation {
    recognizer: Arc<Recognizer>,
    end_guard_s: f64,
    /// Spans already reported (by their start time), kept sorted.
    reported_spans: Vec<f64>,
    /// The most recent full segmentation, for diagnostics and the
    /// experiment trials' per-session outcome scoring. Doubles as the
    /// reusable output buffer: each tick takes it, re-scores into it, and
    /// puts it back, so steady-state scoring allocates nothing.
    last: Option<crate::segmentation::Segmentation>,
    /// Reusable intermediate buffers for the scoring kernels.
    scratch: sigproc::kernel::Scratch,
    /// The consumed tick's frame sequence, for the graph to hand back to
    /// [`Framing::recycle_frames`].
    spare_frames: Option<FrameSeq>,
}

impl Segmentation {
    /// Creates the stage. `end_guard_s` is the silence that confirms a
    /// span has ended.
    pub fn new(recognizer: Arc<Recognizer>, end_guard_s: f64) -> Self {
        Self {
            recognizer,
            end_guard_s,
            reported_spans: Vec::new(),
            last: None,
            scratch: sigproc::kernel::Scratch::new(),
            spare_frames: None,
        }
    }

    /// Takes the frame sequence consumed by the latest tick, if any, so
    /// its allocation can be recycled upstream.
    pub(crate) fn take_spare_frames(&mut self) -> Option<FrameSeq> {
        self.spare_frames.take()
    }

    /// The most recent full segmentation (spans, frame scores, and the
    /// threshold), if a tick has run.
    pub fn last_segmentation(&self) -> Option<&crate::segmentation::Segmentation> {
        self.last.as_ref()
    }

    /// Drops dedup entries older than the retained history; spans there
    /// can never re-segment, so they are dead weight.
    pub fn trim_reported(&mut self, keep_from: f64) {
        self.reported_spans.retain(|&s| s >= keep_from);
    }

    /// Forgets all dedup entries (a letter close trims the history they
    /// guard).
    pub fn clear_reported(&mut self) {
        self.reported_spans.clear();
    }

    /// Whether a span starting at `start` was already reported, within
    /// the ±0.25 s dedup tolerance. `reported_spans` is sorted, so this
    /// is a binary search plus a scan bounded by the tolerance window.
    fn already_reported(&self, start: f64) -> bool {
        let lo = self.reported_spans.partition_point(|&s| s < start - 0.25);
        self.reported_spans[lo..]
            .iter()
            .take_while(|&&s| s < start + 0.25)
            .any(|&s| (s - start).abs() < 0.25)
    }

    /// Records a reported span start, keeping `reported_spans` sorted.
    fn mark_reported(&mut self, start: f64) {
        let at = self.reported_spans.partition_point(|&s| s < start);
        self.reported_spans.insert(at, start);
    }
}

impl Stage for Segmentation {
    type In = FrameTick;
    type Out = SpanBatch;

    fn name(&self) -> &'static str {
        "segmentation"
    }

    fn push(&mut self, tick: FrameTick, out: &mut Vec<SpanBatch>) {
        let FrameTick {
            now,
            started,
            frames,
            streams,
        } = tick;
        // Re-score into the previous tick's segmentation (its spans and
        // frame-score vectors are exactly the right size next tick too).
        let mut segmentation = self.last.take().unwrap_or_default();
        self.recognizer
            .segment_frames_into(&frames, &mut self.scratch, &mut segmentation);
        self.spare_frames = Some(frames);
        let mut spans = Vec::new();
        for &span in &segmentation.spans {
            let confirmed = now - span.end >= self.end_guard_s;
            if confirmed && !self.already_reported(span.start) {
                self.mark_reported(span.start);
                spans.push(span);
            }
        }
        // The idle gap that closes a letter is measured from the latest
        // *activity* — a stroke in progress (active frames not yet
        // confirmed as a span) holds the letter open.
        let last_activity = segmentation
            .frames
            .iter()
            .rev()
            .find(|f| f.active)
            .map(|f| f.time + self.recognizer.config().frame_len_s)
            .unwrap_or(f64::NEG_INFINITY);
        self.last = Some(segmentation);
        // Emitted even with no new spans: the letter stage needs every
        // tick's clock and activity to decide the close.
        out.push(SpanBatch {
            now,
            started,
            streams,
            spans,
            last_activity,
        });
    }

    fn snapshot(&self) -> StageState {
        let spans: Vec<String> = self
            .reported_spans
            .iter()
            .map(|s| s.to_bits().to_string())
            .collect();
        StageState::new(
            self.name(),
            format!("{{\"reported_spans_bits\":[{}]}}", spans.join(",")),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        self.reported_spans = json::parse(state.state())?
            .object(|f| f.take("reported_spans_bits", |v| v.items(bits)))?;
        // The last segmentation is diagnostic only; it reappears at the
        // first tick after restore.
        self.last = None;
        Ok(())
    }
}

/// Stage 3: motion classification of confirmed spans (§III-C2).
///
/// Stateless: every confirmed span either becomes a recognized stroke or
/// is rejected (counted and logged, never retried — the span was already
/// marked reported upstream).
#[derive(Debug)]
pub struct Motion {
    recognizer: Arc<Recognizer>,
}

impl Motion {
    /// Creates the stage.
    pub fn new(recognizer: Arc<Recognizer>) -> Self {
        Self { recognizer }
    }
}

impl Stage for Motion {
    type In = SpanBatch;
    type Out = StrokeBatch;

    fn name(&self) -> &'static str {
        "motion"
    }

    fn push(&mut self, batch: SpanBatch, out: &mut Vec<StrokeBatch>) {
        let metrics = crate::telemetry::stage_metrics();
        let mut strokes = Vec::new();
        for &span in &batch.spans {
            let stroke_t0 = Instant::now();
            match self.recognizer.recognize_span(&batch.streams, span) {
                Some(stroke) => {
                    metrics.strokes.inc();
                    let response_time_s =
                        stroke_t0.elapsed().as_secs_f64() + batch.started.elapsed().as_secs_f64();
                    strokes.push((stroke, response_time_s));
                }
                None => {
                    metrics.rejected_spans.inc();
                    obs::debug!(
                        "rejected unclassifiable span";
                        start = format!("{:.2}", span.start),
                        end = format!("{:.2}", span.end)
                    );
                }
            }
        }
        out.push(StrokeBatch {
            now: batch.now,
            last_activity: batch.last_activity,
            strokes,
        });
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), "{}")
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        expect_empty_state(state)
    }
}

/// Stage 4: letter assembly — buffers recognized strokes and closes the
/// letter once the writer stays idle for the configured gap.
#[derive(Debug)]
pub struct LetterRecognition {
    /// Simulated seconds of silence that close a letter.
    letter_gap_s: f64,
    pending: Vec<RecognizedStroke>,
}

impl LetterRecognition {
    /// Creates the stage.
    pub fn new(letter_gap_s: f64) -> Self {
        Self {
            letter_gap_s,
            pending: Vec::new(),
        }
    }

    /// Start of the oldest pending stroke: the retention anchor the
    /// graph feeds back to [`Framing::set_hold_anchor`].
    pub fn hold_anchor(&self) -> Option<f64> {
        self.pending.first().map(|s| s.span.start)
    }
}

impl Stage for LetterRecognition {
    type In = StrokeBatch;
    type Out = LetterOut;

    fn name(&self) -> &'static str {
        "letter"
    }

    fn push(&mut self, batch: StrokeBatch, out: &mut Vec<LetterOut>) {
        for (stroke, response_time_s) in batch.strokes {
            self.pending.push(stroke.clone());
            out.push(LetterOut::Stroke {
                stroke,
                response_time_s,
            });
        }
        if let Some(last) = self.pending.last() {
            let idle_anchor = last.span.end.max(batch.last_activity);
            if batch.now - idle_anchor >= self.letter_gap_s {
                let strokes = std::mem::take(&mut self.pending);
                let letter_end = strokes.last().map(|s| s.span.end).unwrap_or(batch.now);
                out.push(LetterOut::Close {
                    strokes,
                    letter_end,
                });
            }
        }
    }

    fn snapshot(&self) -> StageState {
        let pending: Vec<String> = self.pending.iter().map(stroke_to_json).collect();
        StageState::new(
            self.name(),
            format!("{{\"pending\":[{}]}}", pending.join(",")),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        self.pending = json::parse(state.state())?
            .object(|f| f.take("pending", |v| v.items(stroke_from_json)))?;
        Ok(())
    }
}

/// Stage 5: grammar deduction and event emission (§III-D).
///
/// Stateless: strokes pass through as [`PipelineEvent::StrokeDetected`];
/// a close runs the fuzzy grammar over the composed strokes and emits
/// [`PipelineEvent::LetterRecognized`].
#[derive(Debug)]
pub struct Grammar {
    recognizer: Arc<Recognizer>,
    end_guard_s: f64,
}

impl Grammar {
    /// Creates the stage. `end_guard_s` becomes each stroke event's
    /// `decision_delay_s` (the silence that confirmed it).
    pub fn new(recognizer: Arc<Recognizer>, end_guard_s: f64) -> Self {
        Self {
            recognizer,
            end_guard_s,
        }
    }
}

impl Stage for Grammar {
    type In = LetterOut;
    type Out = PipelineEvent;

    fn name(&self) -> &'static str {
        "grammar"
    }

    fn push(&mut self, input: LetterOut, out: &mut Vec<PipelineEvent>) {
        match input {
            LetterOut::Stroke {
                stroke,
                response_time_s,
            } => out.push(PipelineEvent::StrokeDetected {
                stroke,
                response_time_s,
                decision_delay_s: self.end_guard_s,
            }),
            LetterOut::Close { strokes, .. } => {
                let t0 = Instant::now();
                let observed: Vec<_> = strokes
                    .iter()
                    .map(|s| s.to_observed(self.recognizer.layout()))
                    .collect();
                let letter = self.recognizer.grammar().deduce_fuzzy(&observed);
                crate::telemetry::stage_metrics().letters.inc();
                out.push(PipelineEvent::LetterRecognized {
                    letter,
                    strokes,
                    response_time_s: t0.elapsed().as_secs_f64(),
                });
            }
        }
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), "{}")
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        expect_empty_state(state)
    }
}

/// Validating builder for [`StageGraph`], the supported way to construct
/// one.
///
/// ```no_run
/// # fn demo(recognizer: rfipad::Recognizer) -> Result<(), rfipad::RfipadError> {
/// let graph = rfipad::StageGraph::builder()
///     .recognizer(recognizer)
///     .letter_gap_s(1.5)
///     .build()?;
/// # let _ = graph; Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the graph"]
pub struct StageGraphBuilder {
    recognizer: Option<Recognizer>,
    letter_gap_s: Option<f64>,
    out_of_order: OutOfOrderPolicy,
}

impl StageGraphBuilder {
    /// The recognizer the stages share (required).
    pub fn recognizer(mut self, recognizer: Recognizer) -> Self {
        self.recognizer = Some(recognizer);
        self
    }

    /// Idle time that closes a letter, simulated seconds (default 1.5 s,
    /// comfortable for the default writer profiles).
    pub fn letter_gap_s(mut self, letter_gap_s: f64) -> Self {
        self.letter_gap_s = Some(letter_gap_s);
        self
    }

    /// Policy for reports whose timestamps run backwards (default
    /// [`OutOfOrderPolicy::Clamp`]).
    pub fn out_of_order(mut self, policy: OutOfOrderPolicy) -> Self {
        self.out_of_order = policy;
        self
    }

    /// Validates the configuration and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if no recognizer was given
    /// or `letter_gap_s` is not positive and finite.
    pub fn build(self) -> Result<StageGraph, RfipadError> {
        let recognizer = self.recognizer.ok_or_else(|| {
            RfipadError::invalid_field("StageGraphBuilder", "recognizer", "required but not set")
        })?;
        let letter_gap_s = self.letter_gap_s.unwrap_or(1.5);
        if !(letter_gap_s > 0.0 && letter_gap_s.is_finite()) {
            return Err(RfipadError::invalid_field(
                "StageGraphBuilder",
                "letter_gap_s",
                format!("must be positive and finite, got {letter_gap_s}"),
            ));
        }
        Ok(StageGraph::assemble(
            Arc::new(recognizer),
            letter_gap_s,
            self.out_of_order,
        ))
    }
}

/// The five-stage online recognition cascade, wired in order.
///
/// Owns report admission (the out-of-order policy), drives each stage
/// under its `rfipad_stage_push_seconds{stage=...}` histogram, and
/// routes the letter-close feedback (history trim + dedup reset) back
/// upstream. The engine, the network server, `multipad`, and
/// [`Recognizer::recognize_session`] all drive this type.
#[derive(Debug)]
pub struct StageGraph {
    recognizer: Arc<Recognizer>,
    letter_gap_s: f64,
    end_guard_s: f64,
    /// What to do with reports whose timestamps run backwards.
    out_of_order: OutOfOrderPolicy,
    /// Newest report timestamp consumed so far.
    last_time: f64,
    /// Reports that arrived with a timestamp older than `last_time`.
    out_of_order_count: u64,
    /// Whether [`StageGraph::finish`] already flushed the stream.
    finished: bool,
    framing: Framing,
    segmentation: Segmentation,
    motion: Motion,
    letter: LetterRecognition,
    grammar: Grammar,
    // Scratch edge buffers, reused across pushes so the steady-state
    // cascade allocates nothing.
    ticks: Vec<FrameTick>,
    spans: Vec<SpanBatch>,
    strokes: Vec<StrokeBatch>,
    letters: Vec<LetterOut>,
    /// Trace binding for served sessions: sampled stage pushes emit
    /// `stage:*` child spans into the session's flight recorder.
    trace: Option<StageTrace>,
}

/// Runtime trace binding of a graph to a session's flight recorder.
/// Never checkpointed: tracing is an observation of a run, not state of
/// the recognition.
#[derive(Debug, Clone)]
pub(crate) struct StageTrace {
    /// The session's flight recorder (also the span timebase).
    pub recorder: Arc<obs::trace::FlightRecorder>,
    /// The trace every emitted span belongs to.
    pub trace: obs::trace::TraceId,
    /// Parent of the emitted stage spans (the session's root span).
    pub parent: obs::trace::SpanId,
}

impl StageGraph {
    /// Starts a validating builder ([`StageGraphBuilder`]).
    pub fn builder() -> StageGraphBuilder {
        StageGraphBuilder::default()
    }

    /// Wires fresh stages around a validated configuration.
    fn assemble(
        recognizer: Arc<Recognizer>,
        letter_gap_s: f64,
        out_of_order: OutOfOrderPolicy,
    ) -> Self {
        let end_guard_s =
            recognizer.config().frame_len_s * recognizer.config().window_frames as f64;
        StageGraph {
            framing: Framing::new(Arc::clone(&recognizer), letter_gap_s, end_guard_s),
            segmentation: Segmentation::new(Arc::clone(&recognizer), end_guard_s),
            motion: Motion::new(Arc::clone(&recognizer)),
            letter: LetterRecognition::new(letter_gap_s),
            grammar: Grammar::new(Arc::clone(&recognizer), end_guard_s),
            recognizer,
            letter_gap_s,
            end_guard_s,
            out_of_order,
            last_time: f64::NEG_INFINITY,
            out_of_order_count: 0,
            finished: false,
            ticks: Vec::new(),
            spans: Vec::new(),
            strokes: Vec::new(),
            letters: Vec::new(),
            trace: None,
        }
    }

    /// The recognizer shared by the stages.
    pub fn recognizer(&self) -> &Recognizer {
        &self.recognizer
    }

    /// The idle gap (simulated seconds) that closes a letter.
    pub fn letter_gap_s(&self) -> f64 {
        self.letter_gap_s
    }

    /// How many reports arrived with a timestamp older than an already
    /// consumed one (and were clamped or dropped per the configured
    /// [`OutOfOrderPolicy`]).
    pub fn out_of_order_count(&self) -> u64 {
        self.out_of_order_count
    }

    /// The most recent full segmentation over the buffered history
    /// (spans, frame scores, threshold), if a tick has run.
    pub fn last_segmentation(&self) -> Option<&crate::segmentation::Segmentation> {
        self.segmentation.last_segmentation()
    }

    /// Feeds one tag report; returns any events it triggered.
    pub fn push(&mut self, obs: TagReport) -> Vec<PipelineEvent> {
        let mut events = Vec::new();
        self.push_into(obs, &mut events);
        events
    }

    /// Like [`push`](Self::push), but appends any triggered events to
    /// `events` instead of allocating a fresh vector — the hot-path
    /// entry point for callers that reuse one event buffer.
    pub fn push_into(&mut self, mut obs: TagReport, events: &mut Vec<PipelineEvent>) {
        self.finished = false;
        let metrics = crate::telemetry::stage_metrics();
        metrics.reports.inc();
        if obs.time < self.last_time {
            self.out_of_order_count += 1;
            // Mirror into the durable registry counters: the per-graph
            // count above dies with the session, these survive eviction.
            match self.out_of_order {
                OutOfOrderPolicy::Clamp => {
                    metrics.out_of_order_clamped.inc();
                    obs.time = self.last_time;
                }
                OutOfOrderPolicy::Drop => {
                    metrics.out_of_order_dropped.inc();
                    return;
                }
            }
        }
        self.last_time = obs.time;
        // The framing hop is only measured for trace-bound (served)
        // sessions, and then only on sampled pushes — untraced replays pay
        // one Option check per report.
        let framing_hop = if self.trace.is_some() {
            self.begin_stage_hop(obs::trace::sampler().sample())
        } else {
            None
        };
        // Retention must not cut into the letter being assembled: feed
        // the letter stage's oldest pending stroke back as the anchor.
        self.framing.set_hold_anchor(self.letter.hold_anchor());
        self.framing.push(obs, &mut self.ticks);
        if let Some(keep_from) = self.framing.take_trim() {
            self.segmentation.trim_reported(keep_from);
        }
        self.end_stage_hop(0, framing_hop);
        // Most pushes buffer without crossing a frame boundary; only a
        // tick has anything to drive downstream.
        if !self.ticks.is_empty() {
            self.cascade(events);
        }
    }

    /// Feeds a batch of reports in order, appending any triggered events
    /// to `events`. Equivalent to pushing each report individually; one
    /// event buffer serves the whole batch.
    pub fn push_batch(
        &mut self,
        reports: impl IntoIterator<Item = TagReport>,
        events: &mut Vec<PipelineEvent>,
    ) {
        for obs in reports {
            self.push_into(obs, events);
        }
    }

    /// Flushes the graph at end of input (closes any pending stroke or
    /// letter regardless of gaps).
    ///
    /// Idempotent: a second `finish` without an intervening
    /// [`StageGraph::push`] returns no events.
    pub fn finish(&mut self) -> Vec<PipelineEvent> {
        let mut events = Vec::new();
        self.finish_into(&mut events);
        events
    }

    /// Like [`finish`](Self::finish), but appends any events to
    /// `events`.
    pub fn finish_into(&mut self, events: &mut Vec<PipelineEvent>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.framing.flush(&mut self.ticks);
        self.cascade(events);
    }

    /// Binds (or unbinds) the graph to a session trace: sampled stage
    /// pushes then emit `stage:*` child spans into the session's flight
    /// recorder.
    pub(crate) fn bind_trace(&mut self, binding: Option<StageTrace>) {
        self.trace = binding;
    }

    /// The graph's trace binding, if a serving layer installed one.
    pub(crate) fn trace_binding(&self) -> Option<&StageTrace> {
        self.trace.as_ref()
    }

    /// Opens one sampled stage-hop measurement: the recorder timebase
    /// stamp (when a trace is bound) plus the wall clock. `None` when this
    /// push is not sampled.
    fn begin_stage_hop(&self, sampled: bool) -> Option<(Option<u64>, Instant)> {
        if !sampled {
            return None;
        }
        let stamp = self.trace.as_ref().map(|t| t.recorder.now_us());
        Some((stamp, Instant::now()))
    }

    /// Closes a sampled stage-hop measurement: records the
    /// `rfipad_hop_seconds{hop=stage:<name>}` histogram and, when a trace
    /// is bound, a `stage:<name>` child span in the flight recorder.
    fn end_stage_hop(&self, stage: usize, begun: Option<(Option<u64>, Instant)>) {
        let Some((stamp, t0)) = begun else { return };
        let elapsed = t0.elapsed();
        crate::telemetry::hop_metrics().stages[stage].record_duration_ns(elapsed);
        if let (Some(start_us), Some(tr)) = (stamp, self.trace.as_ref()) {
            let end_us = start_us + elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            obs::trace::finish_span(
                &tr.recorder,
                obs::trace::SpanEvent {
                    trace: tr.trace,
                    span: obs::trace::next_span_id(),
                    parent: Some(tr.parent),
                    name: format!("stage:{}", crate::telemetry::STAGE_NAMES[stage]),
                    start_us,
                    end_us,
                },
            );
        }
    }

    /// Drains every edge buffer through the downstream stages, timing
    /// each downstream stage push (framing times its own ticks), and
    /// routes letter-close feedback upstream. Stage timers and hop spans
    /// are head-sampled (`obs::trace::sampler`) so the per-report cascade
    /// stays inside the telemetry overhead budget.
    fn cascade(&mut self, events: &mut Vec<PipelineEvent>) {
        let metrics = crate::telemetry::stage_metrics();
        let sampled = obs::trace::sampler().sample();
        let mut ticks = std::mem::take(&mut self.ticks);
        for tick in ticks.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.segmentation.start_span_if(sampled);
                self.segmentation.push(tick, &mut self.spans);
            }
            self.end_stage_hop(1, hop);
        }
        self.ticks = ticks;
        // The segmentation stage is done with the tick's frame sequence;
        // hand it back so the next tick builds into the same allocation.
        if let Some(frames) = self.segmentation.take_spare_frames() {
            self.framing.recycle_frames(frames);
        }
        let mut spans = std::mem::take(&mut self.spans);
        for batch in spans.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.motion.start_span_if(sampled);
                self.motion.push(batch, &mut self.strokes);
            }
            self.end_stage_hop(2, hop);
        }
        self.spans = spans;
        let mut strokes = std::mem::take(&mut self.strokes);
        for batch in strokes.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.letter.start_span_if(sampled);
                self.letter.push(batch, &mut self.letters);
            }
            self.end_stage_hop(3, hop);
        }
        self.strokes = strokes;
        let mut closed_at = None;
        let mut letters = std::mem::take(&mut self.letters);
        for out in letters.drain(..) {
            if let LetterOut::Close { letter_end, .. } = &out {
                closed_at = Some(*letter_end);
            }
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.grammar.start_span_if(sampled);
                self.grammar.push(out, events);
            }
            self.end_stage_hop(4, hop);
        }
        self.letters = letters;
        if let Some(letter_end) = closed_at {
            // The letter's history is dead: trim it and forget the span
            // dedup entries that guarded it.
            self.framing.trim_after_letter(letter_end);
            self.segmentation.clear_reported();
        }
    }

    /// Captures the graph's full mutable state for session migration.
    ///
    /// The checkpoint is self-describing (versioned JSON via
    /// [`PipelineCheckpoint::to_json`]) and restores with
    /// [`StageGraph::restore_checkpoint`] on a graph built from the same
    /// recognizer configuration.
    pub fn checkpoint(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            policy: self.out_of_order,
            last_time: self.last_time,
            out_of_order_count: self.out_of_order_count,
            finished: self.finished,
            letter_gap_s: self.letter_gap_s,
            end_guard_s: self.end_guard_s,
            stages: vec![
                self.framing.snapshot(),
                self.segmentation.snapshot(),
                self.motion.snapshot(),
                self.letter.snapshot(),
                self.grammar.snapshot(),
            ],
        }
    }

    /// Restores a [`checkpoint`](Self::checkpoint) into this graph,
    /// replacing its state. The graph then produces the same remaining
    /// events, bit for bit, as the graph the checkpoint was taken from.
    ///
    /// All or nothing: the checkpoint is restored into freshly built
    /// stages, which replace this graph's only once all five restored.
    /// On error the graph is unchanged. The trace binding is kept.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] if the checkpoint was taken
    /// under a different configuration (letter gap or end guard), names
    /// an unknown or duplicate stage, misses one of the five stages, or
    /// fails a stage's integrity checks.
    pub fn restore_checkpoint(
        &mut self,
        checkpoint: &PipelineCheckpoint,
    ) -> Result<(), RfipadError> {
        if checkpoint.letter_gap_s.to_bits() != self.letter_gap_s.to_bits()
            || checkpoint.end_guard_s.to_bits() != self.end_guard_s.to_bits()
        {
            return Err(checkpoint_err(
                "checkpoint was taken under a different pipeline configuration",
            ));
        }
        let mut fresh = Self::assemble(
            Arc::clone(&self.recognizer),
            self.letter_gap_s,
            checkpoint.policy,
        );
        let mut seen = [false; 5];
        for state in &checkpoint.stages {
            let slot = crate::telemetry::STAGE_NAMES
                .iter()
                .position(|&name| name == state.stage())
                .ok_or_else(|| checkpoint_err(format!("unknown stage {:?}", state.stage())))?;
            if std::mem::replace(&mut seen[slot], true) {
                return Err(checkpoint_err(format!(
                    "duplicate stage {:?} in checkpoint",
                    state.stage()
                )));
            }
            match slot {
                0 => fresh.framing.restore(state),
                1 => fresh.segmentation.restore(state),
                2 => fresh.motion.restore(state),
                3 => fresh.letter.restore(state),
                _ => fresh.grammar.restore(state),
            }?;
        }
        if !seen.iter().all(|&s| s) {
            return Err(checkpoint_err("checkpoint is missing a stage"));
        }
        fresh.last_time = checkpoint.last_time;
        fresh.out_of_order_count = checkpoint.out_of_order_count;
        fresh.finished = checkpoint.finished;
        fresh.trace = self.trace.take();
        *self = fresh;
        Ok(())
    }
}

/// The whole graph is itself a stage (reports in, events out), so a
/// graph can be embedded wherever a [`Stage`] is expected and its state
/// snapshots through the same interface.
impl Stage for StageGraph {
    type In = TagReport;
    type Out = PipelineEvent;

    fn name(&self) -> &'static str {
        "graph"
    }

    fn push(&mut self, input: TagReport, out: &mut Vec<PipelineEvent>) {
        self.push_into(input, out);
    }

    fn flush(&mut self, out: &mut Vec<PipelineEvent>) {
        self.finish_into(out);
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), self.checkpoint().to_json())
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        self.restore_checkpoint(&PipelineCheckpoint::from_json(state.state())?)
    }
}

/// A versioned snapshot of a [`StageGraph`]'s mutable state.
///
/// Serialized with [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json) — strict JSON, floats as IEEE-754 bit
/// patterns, unknown fields and foreign versions rejected — so a
/// checkpoint written by one process restores exactly in another.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCheckpoint {
    policy: OutOfOrderPolicy,
    last_time: f64,
    out_of_order_count: u64,
    finished: bool,
    letter_gap_s: f64,
    end_guard_s: f64,
    stages: Vec<StageState>,
}

/// Format version written by [`PipelineCheckpoint::to_json`].
const CHECKPOINT_VERSION: u64 = 1;

impl PipelineCheckpoint {
    /// Serializes the checkpoint as a single JSON object.
    pub fn to_json(&self) -> String {
        let policy = match self.policy {
            OutOfOrderPolicy::Clamp => "clamp",
            OutOfOrderPolicy::Drop => "drop",
        };
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("\"{}\":{}", json::escape(s.stage()), s.state()))
            .collect();
        format!(
            "{{\"version\":{CHECKPOINT_VERSION},\"policy\":\"{policy}\",\"last_time_bits\":{},\
             \"out_of_order_count\":{},\"finished\":{},\"letter_gap_bits\":{},\
             \"end_guard_bits\":{},\"stages\":{{{}}}}}",
            self.last_time.to_bits(),
            self.out_of_order_count,
            self.finished,
            self.letter_gap_s.to_bits(),
            self.end_guard_s.to_bits(),
            stages.join(",")
        )
    }

    /// Parses a checkpoint serialized by [`to_json`](Self::to_json) with
    /// the strict [`obs::json`] reader. Each stage's state is kept as its
    /// source text, for the stage's own `restore` to decode.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] on malformed JSON, an
    /// unsupported version, an unknown policy, or unknown/missing
    /// fields.
    pub fn from_json(text: &str) -> Result<Self, RfipadError> {
        Ok(Self::from_value(&json::parse(text)?)?)
    }

    /// Decodes an already parsed checkpoint (the form a
    /// [`crate::engine::SessionCheckpoint`] embeds).
    pub(crate) fn from_value(doc: &json::Value<'_>) -> Result<Self, json::Error> {
        doc.object(|f| {
            let version: u64 = f.take("version", json::Value::as_uint)?;
            if version != CHECKPOINT_VERSION {
                return Err(json::Error::new(format!(
                    "unsupported checkpoint version {version}"
                )));
            }
            Ok(Self {
                policy: f.take("policy", |v| match v.as_str()? {
                    "clamp" => Ok(OutOfOrderPolicy::Clamp),
                    "drop" => Ok(OutOfOrderPolicy::Drop),
                    other => Err(json::Error::new(format!(
                        "unknown out-of-order policy {other:?}"
                    ))),
                })?,
                last_time: f.take("last_time_bits", bits)?,
                out_of_order_count: f.take("out_of_order_count", json::Value::as_uint)?,
                finished: f.take("finished", json::Value::as_bool)?,
                letter_gap_s: f.take("letter_gap_bits", bits)?,
                end_guard_s: f.take("end_guard_bits", bits)?,
                stages: f.take("stages", |v| {
                    Ok(v.entries()?
                        .iter()
                        .map(|(stage, state)| StageState::new(stage.as_ref(), state.raw()))
                        .collect())
                })?,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec helpers. Floats travel as IEEE-754 bit patterns.

fn checkpoint_err(msg: impl Into<String>) -> RfipadError {
    RfipadError::Checkpoint(msg.into())
}

fn check_stage_name(expected: &str, state: &StageState) -> Result<(), RfipadError> {
    if state.stage() != expected {
        return Err(checkpoint_err(format!(
            "state for stage {:?} handed to stage {expected:?}",
            state.stage()
        )));
    }
    Ok(())
}

fn expect_empty_state(state: &StageState) -> Result<(), RfipadError> {
    Ok(json::parse(state.state())?.object(|_| Ok(()))?)
}

/// Reads an `f64` persisted as its IEEE-754 bit pattern (a `u64`).
fn bits(value: &json::Value<'_>) -> Result<f64, json::Error> {
    value.as_uint().map(f64::from_bits)
}

fn report_to_json(r: &TagReport) -> String {
    format!(
        "{{\"epc\":\"{}\",\"tag\":{},\"time_bits\":{},\"phase_bits\":{},\"rss_bits\":{},\
         \"doppler_bits\":{},\"antenna\":{},\"channel\":{}}}",
        r.epc.to_hex(),
        r.tag.0,
        r.time.to_bits(),
        r.phase.to_bits(),
        r.rss_dbm.to_bits(),
        r.doppler_hz.to_bits(),
        r.antenna_port,
        r.channel_index
    )
}

fn report_from_json(value: &json::Value<'_>) -> Result<TagReport, json::Error> {
    value.object(|f| {
        Ok(TagReport {
            epc: f.take("epc", |v| {
                Epc96::from_hex(v.as_str()?).map_err(json::Error::new)
            })?,
            tag: TagId(f.take("tag", json::Value::as_uint)?),
            time: f.take("time_bits", bits)?,
            phase: f.take("phase_bits", bits)?,
            rss_dbm: f.take("rss_bits", bits)?,
            doppler_hz: f.take("doppler_bits", bits)?,
            antenna_port: f.take("antenna", json::Value::as_uint)?,
            channel_index: f.take("channel", json::Value::as_uint)?,
        })
    })
}

/// Reads the frame-accumulator diagnostics: the `(anchor, frame_len,
/// max_time)` bit patterns.
fn frame_diag_from_json(value: &json::Value<'_>) -> Result<(u64, u64, u64), json::Error> {
    value.object(|f| {
        Ok((
            f.take("anchor_bits", json::Value::as_uint)?,
            f.take("frame_len_bits", json::Value::as_uint)?,
            f.take("max_time_bits", json::Value::as_uint)?,
        ))
    })
}

fn stroke_to_json(s: &RecognizedStroke) -> String {
    let mask: String = (0..s.motion.mask.rows())
        .flat_map(|r| (0..s.motion.mask.cols()).map(move |c| (r, c)))
        .map(|(r, c)| if s.motion.mask.get(r, c) { '1' } else { '0' })
        .collect();
    format!(
        "{{\"shape\":{},\"reversed\":{},\"start_bits\":{},\"end_bits\":{},\"motion_shape\":{},\
         \"rows\":{},\"cols\":{},\"mask\":\"{mask}\",\"centroid_row_bits\":{},\
         \"centroid_col_bits\":{},\"bbox\":[{},{},{},{}]}}",
        s.stroke.shape.motion_number(),
        s.stroke.reversed,
        s.span.start.to_bits(),
        s.span.end.to_bits(),
        s.motion.shape.motion_number(),
        s.motion.mask.rows(),
        s.motion.mask.cols(),
        s.motion.centroid.0.to_bits(),
        s.motion.centroid.1.to_bits(),
        s.motion.bbox.0,
        s.motion.bbox.1,
        s.motion.bbox.2,
        s.motion.bbox.3
    )
}

fn shape_from_json(value: &json::Value<'_>) -> Result<StrokeShape, json::Error> {
    let n: u64 = value.as_uint()?;
    StrokeShape::all()
        .into_iter()
        .find(|s| u64::from(s.motion_number()) == n)
        .ok_or_else(|| json::Error::new(format!("unknown stroke shape {n}")))
}

fn stroke_from_json(value: &json::Value<'_>) -> Result<RecognizedStroke, json::Error> {
    value.object(|f| {
        let stroke = Stroke {
            shape: f.take("shape", shape_from_json)?,
            reversed: f.take("reversed", json::Value::as_bool)?,
        };
        let span = StrokeSpan {
            start: f.take("start_bits", bits)?,
            end: f.take("end_bits", bits)?,
        };
        let shape = f.take("motion_shape", shape_from_json)?;
        let rows: usize = f.take("rows", json::Value::as_uint)?;
        let cols: usize = f.take("cols", json::Value::as_uint)?;
        let mask: Vec<bool> = f.take("mask", |v| {
            let digits = v.as_str()?;
            if !digits.bytes().all(|b| b == b'0' || b == b'1') {
                return Err(json::Error::new("mask must be 0/1 digits"));
            }
            Ok(digits.bytes().map(|b| b == b'1').collect())
        })?;
        if rows == 0 || cols == 0 || rows.checked_mul(cols) != Some(mask.len()) {
            return Err(json::Error::new("mask dimensions do not match its digits"));
        }
        let motion = crate::motion::RecognizedMotion {
            shape,
            mask: BinaryGrid::from_mask(rows, cols, mask),
            centroid: (
                f.take("centroid_row_bits", bits)?,
                f.take("centroid_col_bits", bits)?,
            ),
            bbox: f.take("bbox", |v| match v.items(json::Value::as_uint)?[..] {
                [r0, r1, c0, c1] => Ok((r0, r1, c0, c1)),
                _ => Err(json::Error::new("bbox must have four coordinates")),
            })?,
        };
        Ok(RecognizedStroke {
            stroke,
            span,
            motion,
        })
    })
}

#[cfg(test)]
impl StageGraph {
    /// The framing stage's buffered report history.
    pub(crate) fn buffer(&self) -> &[TagReport] {
        &self.framing.buffer
    }

    /// Whether the framing stage currently holds an incremental cache.
    pub(crate) fn cache_is_some(&self) -> bool {
        self.framing.cache.is_some()
    }

    /// The letter stage's pending strokes (mutable, for fixtures).
    pub(crate) fn pending_strokes_mut(&mut self) -> &mut Vec<RecognizedStroke> {
        &mut self.letter.pending
    }

    /// The segmentation stage's span-dedup entries.
    pub(crate) fn reported_spans(&self) -> &[f64] {
        &self.segmentation.reported_spans
    }

    /// The span-dedup entries, mutable (for fixtures).
    pub(crate) fn reported_spans_mut(&mut self) -> &mut Vec<f64> {
        &mut self.segmentation.reported_spans
    }

    /// Records a reported span start (test shim over the private stage
    /// method).
    pub(crate) fn mark_reported(&mut self, start: f64) {
        self.segmentation.mark_reported(start);
    }

    /// Whether a span starting at `start` was already reported.
    pub(crate) fn span_already_reported(&self, start: f64) -> bool {
        self.segmentation.already_reported(start)
    }

    /// Test oracle: the incrementally maintained cache must equal a
    /// from-scratch rebuild over the current buffer — streams *and*
    /// frames, bit for bit. Rebuilds the cache first if a trim dropped
    /// it.
    pub(crate) fn assert_cache_matches_rebuild(&mut self) {
        self.framing.ensure_cache();
        let framing = &self.framing;
        let cache = framing.cache.as_ref().expect("just ensured");
        let fresh = framing.recognizer.streams(&framing.buffer);
        assert_eq!(
            cache.streams.streams(),
            &fresh,
            "cached streams diverged from a rebuild over the buffer"
        );
        if let Some(frames) = cache.frames.as_ref() {
            let start = fresh.start().expect("cache has samples");
            let end = fresh.end().expect("cache has samples");
            assert_eq!(frames.start(), start, "frame anchor diverged");
            let batch = FrameSeq::build_with_floors(
                &fresh.phase_series(framing.recognizer.layout()),
                Some(&framing.noise_floors),
                start,
                end,
                framing.recognizer.config().frame_len_s,
            );
            assert_eq!(
                frames.clone().build(end),
                batch,
                "cached frames diverged from a batch build"
            );
        } else {
            assert_eq!(fresh.start(), None, "frames missing despite samples");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;
    use crate::motion::RecognizedMotion;

    fn quiet_obs(tag: u64, time: f64) -> TagReport {
        TagReport::synthetic(TagId(tag), time, 1.0 + tag as f64, -45.0)
    }

    fn quiet_graph(letter_gap_s: f64) -> StageGraph {
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

    fn fake_stroke(start: f64, end: f64) -> RecognizedStroke {
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

    fn driven_graph() -> StageGraph {
        let mut graph = quiet_graph(1.5);
        for step in 0..240u64 {
            graph.push(quiet_obs(step % 3, step as f64 / 60.0));
        }
        graph.pending_strokes_mut().push(fake_stroke(1.0, 1.4));
        graph.mark_reported(1.0);
        graph.mark_reported(2.6);
        graph
    }

    #[test]
    fn report_json_roundtrips_bit_exactly() {
        let mut r = TagReport::synthetic(TagId(7), 1.2345678901234567, 2.71311, -44.5);
        r.doppler_hz = -0.125;
        r.antenna_port = 3;
        r.channel_index = 17;
        let back = report_from_json(&json::parse(&report_to_json(&r)).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.time.to_bits(), r.time.to_bits());
    }

    #[test]
    fn stroke_json_roundtrips() {
        let s = fake_stroke(1.25, 2.5);
        let back = stroke_from_json(&json::parse(&stroke_to_json(&s)).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn checkpoint_json_roundtrips() {
        let graph = driven_graph();
        let checkpoint = graph.checkpoint();
        let parsed = PipelineCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn restore_reproduces_the_snapshot() {
        let graph = driven_graph();
        let checkpoint = graph.checkpoint();
        let mut restored = quiet_graph(1.5);
        restored.restore_checkpoint(&checkpoint).unwrap();
        assert_eq!(restored.checkpoint(), checkpoint);
        assert_eq!(restored.buffer(), graph.buffer());
        assert_eq!(restored.reported_spans(), graph.reported_spans());
        // The rebuilt incremental state matches a from-scratch build.
        restored.assert_cache_matches_rebuild();
    }

    #[test]
    fn restored_graph_continues_like_the_original() {
        let mut original = quiet_graph(1.5);
        for step in 0..240u64 {
            original.push(quiet_obs(step % 3, step as f64 / 60.0));
        }
        let checkpoint = original.checkpoint();
        let mut restored = quiet_graph(1.5);
        restored.restore_checkpoint(&checkpoint).unwrap();
        for step in 240..480u64 {
            let o = quiet_obs(step % 3, step as f64 / 60.0);
            assert_eq!(original.push(o), restored.push(o));
        }
        assert_eq!(original.finish(), restored.finish());
        assert_eq!(original.buffer(), restored.buffer());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(PipelineCheckpoint::from_json("not json").is_err());
        assert!(PipelineCheckpoint::from_json("{}").is_err());
        assert!(PipelineCheckpoint::from_json("{\"version\":1}").is_err());
    }

    #[test]
    fn restore_rejects_foreign_versions_and_fields() {
        let json = driven_graph().checkpoint().to_json();
        let bumped = json.replacen("\"version\":1", "\"version\":2", 1);
        let err = PipelineCheckpoint::from_json(&bumped).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let extended = json.replacen("{\"version\"", "{\"surprise\":4,\"version\"", 1);
        assert!(PipelineCheckpoint::from_json(&extended).is_err());
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let checkpoint = driven_graph().checkpoint();
        let mut other_gap = quiet_graph(2.0);
        let err = other_gap.restore_checkpoint(&checkpoint).unwrap_err();
        assert!(err.to_string().contains("configuration"), "{err}");
    }

    #[test]
    fn restore_rejects_missing_and_unknown_stages() {
        let mut checkpoint = driven_graph().checkpoint();
        let dropped = checkpoint.stages.pop().unwrap();
        let mut graph = quiet_graph(1.5);
        assert!(graph.restore_checkpoint(&checkpoint).is_err());
        checkpoint.stages.push(dropped);
        checkpoint.stages.push(StageState::new("mystery", "{}"));
        assert!(graph.restore_checkpoint(&checkpoint).is_err());
    }

    #[test]
    fn failed_restore_leaves_the_graph_unchanged() {
        let source = driven_graph();
        let valid = source.checkpoint();
        // A target that already consumed reports of its own.
        let mut target = quiet_graph(1.5);
        for step in 0..90u64 {
            target.push(quiet_obs(step % 3, 20.0 + step as f64 / 60.0));
        }
        let before = target.checkpoint();
        assert_ne!(before, valid);

        let mut missing = valid.clone();
        missing.stages.retain(|s| s.stage() != "grammar");
        let mut duplicate = valid.clone();
        duplicate.stages.insert(1, valid.stages[0].clone());
        let mut corrupt_last = valid.clone();
        corrupt_last.stages[4] = StageState::new("grammar", "{\"surprise\":1}");
        for (what, bad) in [
            ("missing", missing),
            ("duplicate", duplicate),
            ("corrupt", corrupt_last),
        ] {
            assert!(target.restore_checkpoint(&bad).is_err(), "{what} accepted");
            assert_eq!(target.checkpoint(), before, "{what} restore half-applied");
        }
        target.assert_cache_matches_rebuild();
        // A valid checkpoint still restores afterwards.
        target.restore_checkpoint(&valid).unwrap();
        assert_eq!(target.checkpoint(), valid);
    }

    #[test]
    fn restore_rejects_corrupted_stage_state() {
        let graph = driven_graph();
        let json = graph.checkpoint().to_json();
        // Flip one bit of the framing buffer's first timestamp.
        let marker = "\"time_bits\":";
        let at = json.find(marker).unwrap() + marker.len();
        let digits: String = json[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let flipped = digits.parse::<u64>().unwrap() ^ 1;
        let corrupted = json.replacen(
            &format!("{marker}{digits}"),
            &format!("{marker}{flipped}"),
            1,
        );
        let checkpoint = PipelineCheckpoint::from_json(&corrupted).unwrap();
        let mut restored = quiet_graph(1.5);
        let err = restored.restore_checkpoint(&checkpoint).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn graph_is_itself_a_stage() {
        let graph = driven_graph();
        let state = graph.snapshot();
        assert_eq!(state.stage(), "graph");
        let mut restored = quiet_graph(1.5);
        Stage::restore(&mut restored, &state).unwrap();
        assert_eq!(restored.checkpoint(), graph.checkpoint());
        let mut events = Vec::new();
        Stage::push(&mut restored, quiet_obs(0, 9.0), &mut events);
        Stage::flush(&mut restored, &mut events);
    }

    #[test]
    fn builder_validates_like_the_pipeline() {
        assert!(StageGraph::builder().build().is_err());
        let graph = quiet_graph(1.5);
        assert!(StageGraph::builder()
            .recognizer(graph.recognizer().clone())
            .letter_gap_s(f64::NAN)
            .build()
            .is_err());
        let defaulted = StageGraph::builder()
            .recognizer(graph.recognizer().clone())
            .build()
            .unwrap();
        assert_eq!(defaulted.letter_gap_s(), 1.5);
    }
}
