//! Evaluation metrics: accuracy, FPR/FNR, confusion matrices, and the
//! segmentation insertion/underfill rates of the paper's Fig. 22.

use crate::segmentation::StrokeSpan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A confusion matrix over string labels.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    counts: BTreeMap<(String, String), u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(truth, predicted)` outcome.
    pub fn record(&mut self, truth: impl Into<String>, predicted: impl Into<String>) {
        *self
            .counts
            .entry((truth.into(), predicted.into()))
            .or_default() += 1;
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Correct predictions (diagonal).
    pub fn correct(&self) -> u64 {
        self.counts
            .iter()
            .filter(|((t, p), _)| t == p)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Overall accuracy; 0.0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    /// Accuracy restricted to one ground-truth label.
    pub fn accuracy_for(&self, truth: &str) -> f64 {
        let total: u64 = self
            .counts
            .iter()
            .filter(|((t, _), _)| t == truth)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let correct = self
            .counts
            .get(&(truth.to_string(), truth.to_string()))
            .copied()
            .unwrap_or(0);
        correct as f64 / total as f64
    }

    /// All ground-truth labels seen.
    pub fn truth_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.counts.keys().map(|(t, _)| t.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Count for a specific `(truth, predicted)` pair.
    pub fn count(&self, truth: &str, predicted: &str) -> u64 {
        self.counts
            .get(&(truth.to_string(), predicted.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        for ((t, p), c) in &other.counts {
            *self.counts.entry((t.clone(), p.clone())).or_default() += c;
        }
    }

    /// Serializes the matrix as one JSON object:
    /// `{"counts":[{"truth":"a","predicted":"b","count":2}, ...]}`.
    ///
    /// The serde stand-in under `vendor/` cannot serialize, so the codec is
    /// hand-rolled here, the same way `rfid_gen2::trace` persists reports.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counts\":[");
        for (i, ((t, p), c)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"truth\":\"{}\",\"predicted\":\"{}\",\"count\":{c}}}",
                obs::expo::escape_json(t),
                obs::expo::escape_json(p)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a matrix from the [`ConfusionMatrix::to_json`] format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let body = json.trim();
        let inner = body
            .strip_prefix("{\"counts\":[")
            .and_then(|s| s.strip_suffix("]}"))
            .ok_or_else(|| "expected {\"counts\":[...]} wrapper".to_string())?;
        let mut matrix = ConfusionMatrix::new();
        if inner.trim().is_empty() {
            return Ok(matrix);
        }
        for record in split_top_level(inner) {
            let record = record.trim();
            let entry = record
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or_else(|| format!("expected object, got {record:?}"))?;
            let mut truth = None;
            let mut predicted = None;
            let mut count: Option<u64> = None;
            for field in split_top_level(entry) {
                let (key, value) = field
                    .split_once(':')
                    .ok_or_else(|| format!("field without ':' in {entry:?}"))?;
                match key.trim().trim_matches('"') {
                    "truth" => truth = Some(unescape_json_string(value.trim())?),
                    "predicted" => predicted = Some(unescape_json_string(value.trim())?),
                    "count" => {
                        count = Some(
                            value
                                .trim()
                                .parse()
                                .map_err(|e| format!("bad count in {entry:?}: {e}"))?,
                        )
                    }
                    other => return Err(format!("unknown field {other:?}")),
                }
            }
            let (truth, predicted, count) = match (truth, predicted, count) {
                (Some(t), Some(p), Some(c)) => (t, p, c),
                _ => return Err(format!("incomplete entry {entry:?}")),
            };
            *matrix.counts.entry((truth, predicted)).or_default() += count;
        }
        Ok(matrix)
    }
}

/// Splits on commas that sit outside quoted strings and outside nested
/// `{}`/`[]` — the boundaries between records in an array, or between
/// fields inside one record. String contents (including escaped quotes and
/// brace characters in label text) never split.
///
/// Shared with the checkpoint codec in [`crate::stage`], which follows the
/// same hand-rolled JSON conventions.
pub(crate) fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut prev_backslash = false;
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        if in_string {
            if prev_backslash {
                prev_backslash = false;
            } else if c == '\\' {
                prev_backslash = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    out.push(&s[start..]);
    out
}

/// Decodes one quoted JSON string (the subset [`ConfusionMatrix::to_json`]
/// emits: `\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX`). Shared with the
/// checkpoint codec in [`crate::stage`].
pub(crate) fn unescape_json_string(quoted: &str) -> Result<String, String> {
    let inner = quoted
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string, got {quoted:?}"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                // Exactly four hex digits: `from_str_radix` alone would
                // take a short `\u41` or a signed `\u+041`.
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("bad \\u escape {hex:?}: need four hex digits"));
                }
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
            }
            other => return Err(format!("bad escape {other:?}")),
        }
    }
    Ok(out)
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix: {} outcomes, accuracy {:.3}",
            self.total(),
            self.accuracy()
        )?;
        for ((t, p), c) in &self.counts {
            if t != p {
                writeln!(f, "  {t} -> {p}: {c}")?;
            }
        }
        Ok(())
    }
}

/// Binary detection counters (for FPR / FNR experiments, Fig. 17/19).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionCounts {
    /// Motions present and correctly detected.
    pub true_positives: u64,
    /// Detections with no underlying motion (falsely detected).
    pub false_positives: u64,
    /// Motions present but missed or misidentified.
    pub false_negatives: u64,
    /// Quiet intervals correctly left undetected.
    pub true_negatives: u64,
}

impl DetectionCounts {
    /// False-positive rate: FP / (FP + TN); the paper's "percentage of
    /// falsely detected motions".
    pub fn fpr(&self) -> f64 {
        let denom = self.false_positives + self.true_negatives;
        if denom == 0 {
            0.0
        } else {
            self.false_positives as f64 / denom as f64
        }
    }

    /// False-negative rate: FN / (FN + TP); the paper's "percentage of
    /// undetected motions".
    pub fn fnr(&self) -> f64 {
        let denom = self.false_negatives + self.true_positives;
        if denom == 0 {
            0.0
        } else {
            self.false_negatives as f64 / denom as f64
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &DetectionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_negatives += other.true_negatives;
    }
}

/// Matching of detected spans against ground-truth stroke intervals for one
/// session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentationOutcome {
    /// True strokes matched by a detected span.
    pub matched: usize,
    /// True strokes with no matching span.
    pub missed: usize,
    /// Detected spans overlapping no true stroke (insertions, typically in
    /// the repositioning period).
    pub insertions: usize,
    /// Matched strokes whose span covers less than the completeness
    /// threshold (underfills).
    pub underfills: usize,
    /// Ground-truth strokes in the session.
    pub truth_count: usize,
}

/// Fraction of a true stroke a span must cover to count as complete.
pub const UNDERFILL_COVERAGE: f64 = 0.75;

/// Minimum overlap fraction (of the *detected span*) with a true stroke to
/// count as a match rather than an insertion.
pub const MATCH_OVERLAP: f64 = 0.3;

/// Scores detected spans against ground-truth `(start, end)` strokes.
pub fn score_segmentation(detected: &[StrokeSpan], truth: &[(f64, f64)]) -> SegmentationOutcome {
    let mut outcome = SegmentationOutcome {
        truth_count: truth.len(),
        ..SegmentationOutcome::default()
    };
    let mut matched_truth = vec![false; truth.len()];

    for span in detected {
        // Best-overlapping true stroke.
        let mut best: Option<(usize, f64)> = None;
        for (i, &(ts, te)) in truth.iter().enumerate() {
            let overlap = span.overlap(&StrokeSpan { start: ts, end: te });
            if overlap > best.map(|(_, o)| o).unwrap_or(0.0) {
                best = Some((i, overlap));
            }
        }
        match best {
            Some((i, overlap)) if overlap >= MATCH_OVERLAP * span.duration().max(1e-9) => {
                if !matched_truth[i] {
                    matched_truth[i] = true;
                    outcome.matched += 1;
                    let (ts, te) = truth[i];
                    let coverage = overlap / (te - ts).max(1e-9);
                    if coverage < UNDERFILL_COVERAGE {
                        outcome.underfills += 1;
                    }
                }
                // A second span on an already-matched stroke is counted as
                // an insertion (the stroke was split).
                else {
                    outcome.insertions += 1;
                }
            }
            _ => outcome.insertions += 1,
        }
    }
    outcome.missed = matched_truth.iter().filter(|&&m| !m).count();
    // Feed the workspace-wide segmentation-quality counters (Fig. 21/22
    // continuously, not just offline).
    let seg = crate::telemetry::segmentation_metrics();
    seg.insertions.add(outcome.insertions as u64);
    seg.underfills.add(outcome.underfills as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_accuracy() {
        let mut m = ConfusionMatrix::new();
        m.record("a", "a");
        m.record("a", "b");
        m.record("b", "b");
        m.record("b", "b");
        assert_eq!(m.total(), 4);
        assert_eq!(m.correct(), 3);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert!((m.accuracy_for("a") - 0.5).abs() < 1e-12);
        assert_eq!(m.accuracy_for("b"), 1.0);
        assert_eq!(m.count("a", "b"), 1);
    }

    #[test]
    fn empty_matrix_accuracy_zero() {
        assert_eq!(ConfusionMatrix::new().accuracy(), 0.0);
    }

    #[test]
    fn matrix_merge() {
        let mut a = ConfusionMatrix::new();
        a.record("x", "x");
        let mut b = ConfusionMatrix::new();
        b.record("x", "y");
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert!((a.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn confusion_json_round_trip() {
        let mut m = ConfusionMatrix::new();
        m.record("a", "a");
        m.record("a", "b");
        m.record("a", "b");
        m.record("L", "I");
        let json = m.to_json();
        assert!(json.contains("\"truth\":\"a\",\"predicted\":\"b\",\"count\":2"));
        let back = ConfusionMatrix::from_json(&json).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn confusion_json_round_trip_with_awkward_labels() {
        let mut m = ConfusionMatrix::new();
        // Quotes, backslashes, separators, and braces inside labels must
        // survive the trip.
        m.record("he said \"L\"", "back\\slash");
        m.record("comma,colon:", "brace}{,\"quoted\"");
        m.record("newline\nand\ttab", "plain");
        let back = ConfusionMatrix::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn confusion_json_empty_and_malformed() {
        let empty = ConfusionMatrix::new();
        let back = ConfusionMatrix::from_json(&empty.to_json()).expect("empty round trip");
        assert_eq!(back, empty);
        assert!(ConfusionMatrix::from_json("").is_err());
        assert!(ConfusionMatrix::from_json("{\"counts\":[{\"truth\":\"a\"}]}").is_err());
        assert!(ConfusionMatrix::from_json(
            "{\"counts\":[{\"truth\":\"a\",\"predicted\":\"b\",\"count\":\"x\"}]}"
        )
        .is_err());
        // A `\u` escape takes exactly four hex digits.
        let with_truth = |t: &str| {
            format!("{{\"counts\":[{{\"truth\":\"{t}\",\"predicted\":\"A\",\"count\":1}}]}}")
        };
        let parsed = ConfusionMatrix::from_json(&with_truth("\\u0041")).expect("valid escape");
        assert_eq!(parsed.count("A", "A"), 1);
        for bad in ["\\u41", "\\u+041"] {
            assert!(
                ConfusionMatrix::from_json(&with_truth(bad)).is_err(),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn detection_rates() {
        let c = DetectionCounts {
            true_positives: 90,
            false_positives: 5,
            false_negatives: 10,
            true_negatives: 95,
        };
        assert!((c.fpr() - 0.05).abs() < 1e-12);
        assert!((c.fnr() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn detection_rates_empty_denominators() {
        let c = DetectionCounts::default();
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.fnr(), 0.0);
    }

    #[test]
    fn perfect_segmentation() {
        let truth = vec![(1.0, 2.0), (3.0, 4.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 2.0,
            },
            StrokeSpan {
                start: 3.0,
                end: 4.0,
            },
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 2);
        assert_eq!(o.missed, 0);
        assert_eq!(o.insertions, 0);
        assert_eq!(o.underfills, 0);
    }

    #[test]
    fn insertion_in_pause_detected() {
        let truth = vec![(1.0, 2.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 2.0,
            },
            StrokeSpan {
                start: 2.5,
                end: 2.9,
            }, // spurious, in the pause
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.insertions, 1);
    }

    #[test]
    fn underfill_detected() {
        let truth = vec![(1.0, 3.0)];
        let detected = vec![StrokeSpan {
            start: 1.0,
            end: 2.0,
        }]; // covers 50%
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.underfills, 1);
    }

    #[test]
    fn missed_stroke_counted() {
        let truth = vec![(1.0, 2.0), (3.0, 4.0)];
        let detected = vec![StrokeSpan {
            start: 1.0,
            end: 2.0,
        }];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.missed, 1);
    }

    #[test]
    fn split_stroke_counts_second_span_as_insertion() {
        let truth = vec![(1.0, 3.0)];
        let detected = vec![
            StrokeSpan {
                start: 1.0,
                end: 1.8,
            },
            StrokeSpan {
                start: 2.2,
                end: 3.0,
            },
        ];
        let o = score_segmentation(&detected, &truth);
        assert_eq!(o.matched, 1);
        assert_eq!(o.insertions, 1);
        assert_eq!(o.underfills, 1); // first span covers only 40%
    }
}
