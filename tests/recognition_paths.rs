//! Differential test: the online recognizer against the batch cascade.
//!
//! [`Recognizer::recognize_session`] folds a recording through the online
//! `StageGraph`, the same path live sessions run. The oracle here is the
//! batch cascade rebuilt from the recognizer's public parts: calibrated
//! streams over the whole recording, one segmentation pass, per-span
//! recognition, then the fuzzy grammar. Over seeded trials of every
//! letter and stroke, every volunteer profile and every lab location, the
//! two must agree on strokes (shape, direction, span, motion evidence) and
//! letter — except for the divergences pinned below and recorded in
//! DESIGN.md §8.

use experiments::trial::LETTER_GAP_SECS;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::Stroke;
use hand_kinematics::user::UserProfile;
use rayon::prelude::*;
use rfid_gen2::report::TagReport;
use rfipad::{RecognizedStroke, Recognizer, RfipadConfig, StageGraph};
use std::sync::OnceLock;

const LOCATIONS: [usize; 4] = [1, 2, 3, 4];

/// Letter trials where the graph and the batch cascade disagree, as
/// `(location, volunteer, letter, seed)`. At location 3, volunteer 3's
/// 'P' gets an extra 0.4 s Slash span from the graph, starting < 3 ms
/// after the arc ends, so the graph reads 'I' where the batch reads 'P'.
const PINNED_LETTER_DIVERGENCES: [(usize, usize, char, u64); 1] = [(3, 3, 'P', 3215)];

/// One calibrated bench per lab location: deployment seed 42,
/// calibration seed 1.
fn benches() -> &'static [Bench] {
    static BENCHES: OnceLock<Vec<Bench>> = OnceLock::new();
    BENCHES.get_or_init(|| {
        LOCATIONS
            .iter()
            .map(|&location| {
                Bench::calibrate(
                    Deployment::build(
                        DeploymentSpec {
                            location,
                            ..DeploymentSpec::default()
                        },
                        42,
                    ),
                    RfipadConfig::default(),
                    1,
                )
            })
            .collect()
    })
}

/// The batch cascade: whole-recording streams → one segmentation →
/// per-span recognition → fuzzy grammar.
fn batch_oracle(
    recognizer: &Recognizer,
    reports: &[TagReport],
) -> (Vec<RecognizedStroke>, Option<char>) {
    let streams = recognizer.streams(reports);
    let segmentation = recognizer.segment(&streams);
    let strokes: Vec<RecognizedStroke> = segmentation
        .spans
        .iter()
        .filter_map(|&span| recognizer.recognize_span(&streams, span))
        .collect();
    let observed: Vec<_> = strokes
        .iter()
        .map(|s| s.to_observed(recognizer.layout()))
        .collect();
    let letter = recognizer.grammar().deduce_fuzzy(&observed);
    (strokes, letter)
}

/// Whether the graph result of a trial differs from the batch oracle.
fn diverges(
    recognizer: &Recognizer,
    reports: &[TagReport],
    strokes: &[RecognizedStroke],
    letter: Option<char>,
) -> bool {
    let (batch_strokes, batch_letter) = batch_oracle(recognizer, reports);
    batch_strokes != strokes || batch_letter != letter
}

#[test]
fn trials_score_with_the_default_letter_gap() {
    // `recognize_session` builds its graph with the default gap; the
    // trial constants document that same value.
    let graph = StageGraph::builder()
        .recognizer(benches()[0].recognizer.clone())
        .build()
        .expect("default graph");
    assert_eq!(graph.letter_gap_s(), LETTER_GAP_SECS);
}

#[test]
fn letter_trials_agree_except_the_pinned_divergences() {
    let letters: Vec<char> = ('A'..='Z').collect();
    let mut diverging = Vec::new();
    let mut compared = 0usize;
    for (&location, bench) in LOCATIONS.iter().zip(benches()) {
        for volunteer in 1..=10usize {
            let jobs: Vec<(char, u64)> = letters
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let seed = 1000 * location as u64 + 100 * (volunteer as u64 - 1) + i as u64;
                    (c, seed)
                })
                .collect();
            let trials = bench.run_letter_trials(&jobs, &UserProfile::volunteer(volunteer));
            let flags: Vec<bool> = trials
                .par_iter()
                .map(|t| {
                    diverges(
                        &bench.recognizer,
                        &t.reports,
                        &t.result.strokes,
                        t.result.letter,
                    )
                })
                .collect();
            compared += trials.len();
            for (&(letter, seed), diverged) in jobs.iter().zip(flags) {
                if diverged {
                    diverging.push((location, volunteer, letter, seed));
                }
            }
        }
    }
    assert_eq!(compared, 26 * 10 * 4);
    assert_eq!(diverging, PINNED_LETTER_DIVERGENCES.to_vec());
}

#[test]
fn stroke_trials_agree() {
    let strokes = Stroke::all_thirteen();
    let mut diverging = Vec::new();
    let mut compared = 0usize;
    for (&location, bench) in LOCATIONS.iter().zip(benches()) {
        for volunteer in 1..=3usize {
            let jobs: Vec<(Stroke, u64)> = strokes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let seed = 7000 * location as u64 + 100 * (volunteer as u64 - 1) + i as u64;
                    (s, seed)
                })
                .collect();
            let trials = bench.run_stroke_trials(&jobs, &UserProfile::volunteer(volunteer));
            let flags: Vec<bool> = trials
                .par_iter()
                .map(|t| {
                    diverges(
                        &bench.recognizer,
                        &t.reports,
                        &t.result.strokes,
                        t.result.letter,
                    )
                })
                .collect();
            compared += trials.len();
            for (&(stroke, seed), diverged) in jobs.iter().zip(flags) {
                if diverged {
                    diverging.push((location, volunteer, stroke.to_string(), seed));
                }
            }
        }
    }
    assert_eq!(compared, 13 * 3 * 4);
    assert!(
        diverging.is_empty(),
        "stroke trials diverged: {diverging:?}"
    );
}
