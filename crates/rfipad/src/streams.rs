//! Per-tag signal streams assembled from the reader's report stream.
//!
//! Tag reads arrive serialized by the Gen2 MAC, one tag at a time. This
//! module regroups them into per-tag phase and RSS time series, applying
//! phase de-periodicity (unwrapping, §III-A3) and — when a calibration is
//! supplied — the Eq. 8 tag-diversity suppression that re-centres every
//! tag's phase around zero.

use crate::calibration::{wrap_to_pi, Calibration};
use crate::layout::ArrayLayout;
use rfid_gen2::report::{TagId, TagIdMap, TagReport};
use serde::{Deserialize, Serialize};
use sigproc::series::TimeSeries;
use sigproc::unwrap::StreamingUnwrapper;
use std::f64::consts::TAU;
use std::sync::Arc;

/// Per-tag phase and RSS time series over one recording.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TagStreams {
    phase: TagIdMap<TagId, TimeSeries>,
    rss: TagIdMap<TagId, TimeSeries>,
    start: Option<f64>,
    end: Option<f64>,
}

impl TagStreams {
    /// Builds streams from tag reports.
    ///
    /// With `calibration = Some(..)` the phase stream of tag *i* is the
    /// unwrapped `θᵢⱼ − θ̃ᵢ` (Eq. 8): continuous and starting in `(−π, π]`.
    /// With `None` (the paper's no-suppression baseline) it is the raw
    /// unwrapped phase, whose centre value keeps the tag's hardware offset.
    ///
    /// Reports for tags outside `layout` are ignored (a public-area
    /// reader hears unrelated tags too).
    pub fn build<'a>(
        layout: &ArrayLayout,
        calibration: Option<&Calibration>,
        observations: impl IntoIterator<Item = &'a TagReport>,
    ) -> Self {
        let mut builder = TagStreamsBuilder::new();
        for obs in observations {
            builder.push(layout, calibration, obs);
        }
        builder.into_streams()
    }

    /// The suppressed (or raw) phase series of a tag, empty if never read.
    pub fn phase(&self, id: TagId) -> Option<&TimeSeries> {
        self.phase.get(&id)
    }

    /// The RSS series of a tag.
    pub fn rss(&self, id: TagId) -> Option<&TimeSeries> {
        self.rss.get(&id)
    }

    /// All phase series in layout order for a given layout.
    pub fn phase_series(&self, layout: &ArrayLayout) -> Vec<TimeSeries> {
        layout
            .tags()
            .iter()
            .map(|id| self.phase.get(id).cloned().unwrap_or_default())
            .collect()
    }

    /// Earliest observation time.
    pub fn start(&self) -> Option<f64> {
        self.start
    }

    /// Latest observation time.
    pub fn end(&self) -> Option<f64> {
        self.end
    }

    /// Number of tags with at least one read.
    pub fn tag_count(&self) -> usize {
        self.phase.len()
    }

    /// Total reads across all tags.
    pub fn total_reads(&self) -> usize {
        self.phase.values().map(TimeSeries::len).sum()
    }
}

/// Incremental counterpart of [`TagStreams::build`]: appends one report at
/// a time while carrying the per-tag unwrap state and Eq. 8 re-centring
/// offsets across pushes, so the accumulated [`TagStreams`] is identical to
/// a one-shot batch build over the same reports in the same order.
///
/// This is what lets `OnlinePipeline` keep its streams cached between frame
/// ticks instead of rebuilding them from the whole retained buffer. Note
/// the offsets are chosen at each tag's *first* sample — rebuilding from a
/// trimmed buffer may legitimately pick different offsets, which is why the
/// pipeline invalidates (rather than patches) its cache on trims.
/// The accumulated streams live behind an [`Arc`] so downstream consumers
/// (the stage graph's tick payloads) can hold a cheap reference to the
/// snapshot at a tick without cloning the series. Pushes mutate in place
/// via [`Arc::make_mut`] — O(1) while no snapshot is outstanding, a deep
/// copy-on-write only if one is still held across a push.
#[derive(Debug, Clone, Default)]
pub struct TagStreamsBuilder {
    // One map for all per-tag push state: a report costs a single probe
    // here instead of one per field.
    tags: TagIdMap<TagId, TagPushState>,
    streams: Arc<TagStreams>,
}

/// Per-tag incremental state carried across pushes: the unwrap window and
/// the Eq. 8 re-centring offset chosen at the tag's first sample.
#[derive(Debug, Clone, Default)]
struct TagPushState {
    unwrapper: StreamingUnwrapper,
    offset: Option<f64>,
}

impl TagStreamsBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one report. Returns the `(tag, time, calibrated phase)`
    /// sample that was appended, or `None` if the report's tag is outside
    /// `layout` and was ignored.
    ///
    /// `layout` and `calibration` must be the same on every push; they are
    /// passed per call (rather than stored) so the builder can live beside
    /// the recognizer that owns them.
    pub fn push(
        &mut self,
        layout: &ArrayLayout,
        calibration: Option<&Calibration>,
        obs: &TagReport,
    ) -> Option<(TagId, f64, f64)> {
        if !layout.contains(obs.tag) {
            return None;
        }
        let state = self.tags.entry(obs.tag).or_default();
        let unwrapped = state.unwrapper.push(obs.phase);
        let value = match calibration {
            Some(cal) => {
                let mean = cal.mean_phase(obs.tag).expect("layout tag calibrated");
                // Re-centre: choose the 2π offset once (at the first
                // sample) so the suppressed stream starts in (−π, π]
                // and stays continuous afterwards.
                let offset = *state.offset.get_or_insert_with(|| {
                    let first = unwrapped - mean;
                    first - wrap_to_pi(first)
                });
                unwrapped - mean - offset
            }
            None => unwrapped,
        };
        let out = Arc::make_mut(&mut self.streams);
        out.phase.entry(obs.tag).or_default().push(obs.time, value);
        out.rss
            .entry(obs.tag)
            .or_default()
            .push(obs.time, obs.rss_dbm);
        out.start = Some(out.start.map_or(obs.time, |s: f64| s.min(obs.time)));
        out.end = Some(out.end.map_or(obs.time, |e: f64| e.max(obs.time)));
        Some((obs.tag, obs.time, value))
    }

    /// Resets the builder to empty while keeping every allocation (hash-map
    /// tables, per-tag series buffers) for reuse, so rebuilding over a
    /// trimmed buffer avoids re-growing the same structures.
    ///
    /// Per-tag series entries are kept (emptied) rather than removed;
    /// consumers walk tags in layout order and treat missing and empty
    /// series alike. One observable difference: [`TagStreams::tag_count`]
    /// still counts tags seen before the reset — use a fresh builder where
    /// that distinction matters.
    pub fn clear(&mut self) {
        self.tags.clear();
        let streams = Arc::make_mut(&mut self.streams);
        for series in streams.phase.values_mut() {
            series.clear();
        }
        for series in streams.rss.values_mut() {
            series.clear();
        }
        streams.start = None;
        streams.end = None;
    }

    /// The streams accumulated so far.
    pub fn streams(&self) -> &TagStreams {
        &self.streams
    }

    /// A shared handle to the streams accumulated so far. Holding it across
    /// a later [`push`](Self::push) is allowed but forces that push to
    /// copy-on-write; drop the handle when done with the snapshot.
    pub fn shared_streams(&self) -> Arc<TagStreams> {
        Arc::clone(&self.streams)
    }

    /// Consumes the builder, returning the accumulated streams.
    pub fn into_streams(self) -> TagStreams {
        Arc::try_unwrap(self.streams).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Convenience: raw wrapped phase in `[0, 2π)` for tests and experiments.
pub fn wrap_phase(p: f64) -> f64 {
    p.rem_euclid(TAU)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfipadConfig;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 2, vec![TagId(0), TagId(1)])
    }

    fn obs(tag: TagId, time: f64, phase: f64) -> TagReport {
        TagReport::synthetic(tag, time, wrap_phase(phase), -45.0)
    }

    fn calibration_with_means(m0: f64, m1: f64) -> Calibration {
        // Build via static observations with tiny jitter around the means.
        let mut observations = Vec::new();
        for j in 0..30 {
            observations.push(obs(
                TagId(0),
                j as f64 * 0.05,
                m0 + 0.001 * (j as f64).sin(),
            ));
            observations.push(obs(
                TagId(1),
                j as f64 * 0.05 + 0.01,
                m1 + 0.001 * (j as f64).cos(),
            ));
        }
        Calibration::from_observations(&layout(), &observations, &RfipadConfig::default())
            .expect("calibration")
    }

    #[test]
    fn suppression_centres_streams_at_zero() {
        let cal = calibration_with_means(1.0, 5.0);
        let observations: Vec<TagReport> = (0..20)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0 + 0.05 * (j as f64).sin()),
                    obs(
                        TagId(1),
                        j as f64 * 0.1 + 0.05,
                        5.0 + 0.05 * (j as f64).cos(),
                    ),
                ]
            })
            .collect();
        let streams = TagStreams::build(&layout(), Some(&cal), &observations);
        for id in [TagId(0), TagId(1)] {
            let series = streams.phase(id).expect("present");
            for (_, v) in series.iter() {
                assert!(v.abs() < 0.3, "suppressed value {v} for {id}");
            }
        }
    }

    #[test]
    fn without_suppression_centres_differ() {
        let observations: Vec<TagReport> = (0..20)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0),
                    obs(TagId(1), j as f64 * 0.1 + 0.05, 5.0),
                ]
            })
            .collect();
        let streams = TagStreams::build(&layout(), None, &observations);
        let m0 = streams.phase(TagId(0)).unwrap().values()[0];
        let m1 = streams.phase(TagId(1)).unwrap().values()[0];
        assert!((m0 - m1).abs() > 1.0, "raw centres {m0} vs {m1}");
    }

    #[test]
    fn wrapped_ramp_is_unwrapped() {
        let cal = calibration_with_means(0.1, 0.1);
        // Tag 0's true phase ramps 0.1 → 9; reported wrapped.
        let observations: Vec<TagReport> = (0..90)
            .map(|j| obs(TagId(0), j as f64 * 0.05, 0.1 + j as f64 * 0.1))
            .chain((0..30).map(|j| obs(TagId(1), 4.5 + j as f64 * 0.01, 0.1)))
            .collect();
        let streams = TagStreams::build(&layout(), Some(&cal), &observations);
        let series = streams.phase(TagId(0)).expect("present");
        // Continuous: no ±2π jumps between consecutive samples.
        for pair in series.values().windows(2) {
            assert!((pair[1] - pair[0]).abs() < 1.0);
        }
        // Total travel ≈ 8.9 rad.
        let travel = series.values().last().unwrap() - series.values()[0];
        assert!((travel - 8.9).abs() < 0.1, "travel {travel}");
    }

    #[test]
    fn foreign_tags_ignored() {
        let observations = vec![obs(TagId(0), 0.0, 1.0), obs(TagId(77), 0.1, 2.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.tag_count(), 1);
        assert!(streams.phase(TagId(77)).is_none());
    }

    #[test]
    fn span_and_counts() {
        let observations = vec![
            obs(TagId(0), 1.0, 0.5),
            obs(TagId(1), 1.5, 0.5),
            obs(TagId(0), 2.0, 0.5),
        ];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.start(), Some(1.0));
        assert_eq!(streams.end(), Some(2.0));
        assert_eq!(streams.total_reads(), 3);
    }

    #[test]
    fn phase_series_in_layout_order_with_gaps() {
        let observations = vec![obs(TagId(1), 0.0, 1.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        let series = streams.phase_series(&layout());
        assert_eq!(series.len(), 2);
        assert!(series[0].is_empty());
        assert_eq!(series[1].len(), 1);
    }

    #[test]
    fn incremental_builder_matches_batch_build() {
        let cal = calibration_with_means(1.0, 5.0);
        let observations: Vec<TagReport> = (0..40)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0 + j as f64 * 0.2),
                    obs(TagId(1), j as f64 * 0.1 + 0.05, 5.0 - j as f64 * 0.15),
                    obs(TagId(99), j as f64 * 0.1 + 0.07, 0.0), // foreign
                ]
            })
            .collect();
        let batch = TagStreams::build(&layout(), Some(&cal), &observations);
        let mut builder = TagStreamsBuilder::new();
        for o in &observations {
            let accepted = builder.push(&layout(), Some(&cal), o);
            assert_eq!(accepted.is_some(), o.tag != TagId(99));
            if let Some((tag, t, v)) = accepted {
                assert_eq!(tag, o.tag);
                assert_eq!(t, o.time);
                let series = builder.streams().phase(tag).expect("just pushed");
                assert_eq!(*series.values().last().expect("nonempty"), v);
            }
        }
        assert_eq!(builder.streams(), &batch);
        assert_eq!(builder.into_streams(), batch);
    }

    #[test]
    fn shared_snapshot_survives_later_pushes() {
        // A snapshot held across a push sees the state at snapshot time;
        // the builder copies on write and keeps accumulating.
        let mut builder = TagStreamsBuilder::new();
        builder.push(&layout(), None, &obs(TagId(0), 0.0, 1.0));
        let snapshot = builder.shared_streams();
        builder.push(&layout(), None, &obs(TagId(0), 1.0, 2.0));
        assert_eq!(snapshot.total_reads(), 1);
        assert_eq!(builder.streams().total_reads(), 2);
        assert_eq!(builder.shared_streams().total_reads(), 2);
    }

    #[test]
    fn rss_stream_recorded() {
        let observations = vec![obs(TagId(0), 0.0, 1.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.rss(TagId(0)).unwrap().values(), &[-45.0]);
    }
}
