//! The persistence codecs: every JSON decoder is strict, survives mutated
//! input, and every writer's bytes are pinned.
//!
//! Four formats are decoded from bytes that may come from outside the
//! process: JSON-lines traces, pipeline (and session) checkpoints,
//! confusion matrices, and flight-recorder span lines. All of them read
//! through `obs::json`. This file checks three things:
//!
//! - a table of inputs that are not JSON, each of which an earlier
//!   hand-rolled parser accepted (some as a different value), is rejected;
//! - byte-level mutations of valid seeds never panic, and whatever is
//!   accepted re-encodes and decodes to the same value;
//! - the writers produce the committed golden files, and checkpoint JSON
//!   at a fixed golden split hashes to a pinned FNV-1a digest.

use experiments::golden::{golden_bench, golden_trial};
use obs::trace::{SpanEvent, SpanId, TraceId};
use proptest::prelude::*;
use rfid_gen2::report::{TagId, TagReport};
use rfid_gen2::trace::{decode_json_line, encode_json_line, write_trace, TraceFormat};
use rfipad::engine::{Engine, SessionCheckpoint};
use rfipad::metrics::ConfusionMatrix;
use rfipad::{PipelineCheckpoint, Recognizer, StageGraph};
use std::fmt::Debug;
use std::sync::OnceLock;

const GOLDEN_JSONL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_session.jsonl"
);
const GOLDEN_BINARY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_session.rftrace"
);

/// Reports fed before the checkpoint whose JSON is pinned below.
const PINNED_SPLIT: usize = 650;

fn fixture() -> &'static (Vec<TagReport>, Recognizer) {
    static FIXTURE: OnceLock<(Vec<TagReport>, Recognizer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bench = golden_bench();
        let trial = golden_trial(&bench);
        (trial.reports, bench.recognizer)
    })
}

fn graph_after(reports: usize) -> StageGraph {
    let mut graph = StageGraph::builder()
        .recognizer(fixture().1.clone())
        .letter_gap_s(1.5)
        .build()
        .expect("valid gap");
    let mut events = Vec::new();
    for &r in &fixture().0[..reports] {
        graph.push_into(r, &mut events);
    }
    graph
}

fn session_checkpoint_after(reports: usize) -> SessionCheckpoint {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let session = engine
        .open_session("golden", graph_after(0))
        .expect("open session");
    for &r in &fixture().0[..reports] {
        session.ingest(r).expect("ingest");
    }
    let checkpoint = session.checkpoint().expect("checkpoint");
    session.close().expect("close");
    checkpoint
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_seed() -> TagReport {
    let mut r = TagReport::synthetic(TagId(0xf0a), 0.1 + 0.2, 1.2345678901234567, -44.5);
    r.doppler_hz = -0.0;
    r.antenna_port = 3;
    r.channel_index = 17;
    r
}

fn span_seed() -> SpanEvent {
    SpanEvent {
        trace: TraceId(0xdead_beef_0123_4567),
        span: SpanId(7),
        parent: Some(SpanId(3)),
        name: "stage:framing \"odd\"\nname\\ é 😀 \u{1}".into(),
        start_us: 10,
        end_us: u64::MAX,
    }
}

fn matrix_seed() -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    m.record("he said \"L\"", "back\\slash");
    m.record("comma,colon:", "brace}{,\"quoted\"");
    m.record("newline\nand\ttab\u{1}", "plain");
    m.record("é😀", "é😀");
    m.record("a", "a");
    m
}

/// `base` with the first `from` replaced by `to`; `from` must occur.
fn edit(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "{from:?} does not occur in {base}");
    base.replacen(from, to, 1)
}

#[test]
fn non_json_is_rejected_by_every_decoder() {
    let line = encode_json_line(&report_seed());
    let epc = "300833b20000000000000f0a";
    assert!(line.contains(epc), "{line}");
    let span = span_seed().to_json();
    let mut one = ConfusionMatrix::new();
    one.record("a", "b");
    one.record("a", "b");
    let matrix = one.to_json();
    assert_eq!(
        matrix,
        "{\"counts\":[{\"truth\":\"a\",\"predicted\":\"b\",\"count\":2}]}"
    );
    let checkpoint = graph_after(200).checkpoint().to_json();
    let session = session_checkpoint_after(30).to_json();

    let trace_rows = [
        ("signed tag", edit(&line, "\"tag\":", "\"tag\":+")),
        (
            "NaN and inf",
            edit(
                &edit(&line, "\"time\":0.30000000000000004", "\"time\":NaN"),
                "\"phase\":1.2345678901234567",
                "\"phase\":inf",
            ),
        ),
        ("duplicate tag", edit(&line, "}", ",\"tag\":99}")),
        ("unquoted keys and EPC", line.replace('"', "")),
        (
            "signed EPC digit pair",
            edit(&line, epc, "300833b2000000000000+f0a"),
        ),
    ];
    for (what, bad) in &trace_rows {
        assert!(
            decode_json_line(bad, 1).is_err(),
            "trace line accepted {what}: {bad}"
        );
    }

    let matrix_rows = [
        ("signed count", edit(&matrix, ":2}", ":+2}")),
        ("duplicate count", edit(&matrix, ":2}", ":2,\"count\":3}")),
        (
            "duplicate (truth, predicted) entry",
            edit(
                &matrix,
                "]",
                ",{\"truth\":\"a\",\"predicted\":\"b\",\"count\":1}]",
            ),
        ),
        ("unquoted keys", {
            let bad = edit(&matrix, "\"truth\"", "truth");
            let bad = edit(&bad, "\"predicted\"", "predicted");
            edit(&bad, "\"count\":2", "count:2")
        }),
    ];
    for (what, bad) in &matrix_rows {
        assert!(
            ConfusionMatrix::from_json(bad).is_err(),
            "confusion matrix accepted {what}: {bad}"
        );
    }

    let span_rows = [
        (
            "signed \\u escape",
            edit(&span, "\"name\":\"", "\"name\":\"q\\u+041"),
        ),
        (
            "signed trace id",
            edit(&span, "\"trace\":\"deadbeef01234567\"", "\"trace\":\"+a\""),
        ),
        ("leading garbage", format!("garbage{span}")),
    ];
    for (what, bad) in &span_rows {
        assert_eq!(
            SpanEvent::from_json(bad),
            None,
            "span accepted {what}: {bad}"
        );
    }

    let checkpoint_rows = [
        (
            "version twice",
            edit(
                &checkpoint,
                "{\"version\":1,",
                "{\"version\":1,\"version\":1,",
            ),
        ),
        (
            "signed out_of_order_count",
            edit(
                &checkpoint,
                "\"out_of_order_count\":",
                "\"out_of_order_count\":+",
            ),
        ),
        (
            "unquoted version key",
            edit(&checkpoint, "{\"version\":", "{version:"),
        ),
    ];
    for (what, bad) in &checkpoint_rows {
        assert!(
            PipelineCheckpoint::from_json(bad).is_err(),
            "pipeline checkpoint accepted {what}"
        );
    }

    let trailing_id = format!(
        "{},\"id\":\"impostor\"}}",
        session.strip_suffix('}').expect("an object")
    );
    assert!(
        SessionCheckpoint::from_json(&trailing_id).is_err(),
        "session checkpoint accepted a trailing duplicate id"
    );
}

#[test]
fn depth_bombs_are_typed_errors() {
    let bomb = "[".repeat(100_000);
    assert!(obs::json::parse(&bomb).is_err());
    for prefix in [
        "",
        "{\"tag\":",
        "{\"counts\":",
        "{\"version\":",
        "{\"name\":",
    ] {
        let input = format!("{prefix}{bomb}");
        assert!(decode_json_line(&input, 1).is_err());
        assert!(ConfusionMatrix::from_json(&input).is_err());
        assert!(PipelineCheckpoint::from_json(&input).is_err());
        assert!(SessionCheckpoint::from_json(&input).is_err());
        assert_eq!(SpanEvent::from_json(&input), None);
    }
}

/// Applies byte edits to `seed`, four bytes per edit: an operation, a
/// 16-bit position scaled to the current length, and a byte. Half the
/// edits write a character that keeps the text JSON-shaped (digits and
/// punctuation), so a fair share of mutants still parse and exercise the
/// accept path. `check` runs after every edit.
fn mutate(
    seed: &str,
    edits: &[u8],
    mut check: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), String> {
    const SHAPED: &[u8] = b"0123456789-+.eE\"\\,:[]{}nulltrefas ";
    let mut bytes = seed.as_bytes().to_vec();
    for edit in edits.chunks_exact(4) {
        let at = (usize::from(u16::from_le_bytes([edit[1], edit[2]])) * (bytes.len() + 1)) >> 16;
        let byte = if edit[0] & 4 == 0 {
            SHAPED[usize::from(edit[3]) % SHAPED.len()]
        } else {
            edit[3]
        };
        match edit[0] % 4 {
            0 | 1 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }
    Ok(())
}

/// The codec invariants on one input: decoding never panics (a panic
/// fails the test), and an accepted value re-encodes to text that decodes
/// to the same value and re-encodes to the same bytes.
fn round_trips<T: Debug>(
    input: &str,
    decode: impl Fn(&str) -> Option<T>,
    encode: impl Fn(&T) -> String,
) -> Result<(), String> {
    let Some(value) = decode(input) else {
        return Ok(());
    };
    let text = encode(&value);
    let again = decode(&text).ok_or_else(|| format!("re-encoded value rejected: {text}"))?;
    if format!("{again:?}") != format!("{value:?}") || encode(&again) != text {
        return Err(format!("value changed across a round trip: {input}"));
    }
    Ok(())
}

fn seed_round_trips<T: Debug>(
    seed: &str,
    decode: impl Fn(&str) -> Option<T>,
    encode: impl Fn(&T) -> String,
) {
    let value = decode(seed).expect("the seed decodes");
    assert_eq!(encode(&value), seed, "the seed re-encodes to its own bytes");
}

fn trace_line_decode(s: &str) -> Option<TagReport> {
    decode_json_line(s, 1).ok()
}

fn checkpoint_seed() -> &'static str {
    static SEED: OnceLock<String> = OnceLock::new();
    SEED.get_or_init(|| graph_after(50).checkpoint().to_json())
}

#[test]
fn unmutated_seeds_reencode_to_their_own_bytes() {
    let golden = std::fs::read_to_string(GOLDEN_JSONL).expect("golden trace");
    for line in golden.lines() {
        seed_round_trips(line, trace_line_decode, encode_json_line);
    }
    seed_round_trips(
        checkpoint_seed(),
        |s| PipelineCheckpoint::from_json(s).ok(),
        PipelineCheckpoint::to_json,
    );
    seed_round_trips(
        &matrix_seed().to_json(),
        |s| ConfusionMatrix::from_json(s).ok(),
        ConfusionMatrix::to_json,
    );
    seed_round_trips(
        &span_seed().to_json(),
        SpanEvent::from_json,
        SpanEvent::to_json,
    );
}

proptest! {
    #[test]
    fn mutated_trace_lines_never_panic_and_round_trip(
        edits in prop::collection::vec(any::<u8>(), 4..64),
        pick in 0usize..1301,
    ) {
        let golden = std::fs::read_to_string(GOLDEN_JSONL).expect("golden trace");
        let lines: Vec<&str> = golden.lines().collect();
        let seed = lines[pick % lines.len()];
        let outcome = mutate(seed, &edits, |s| round_trips(s, trace_line_decode, encode_json_line));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn mutated_checkpoints_never_panic_and_round_trip(
        edits in prop::collection::vec(any::<u8>(), 4..64),
    ) {
        let outcome = mutate(checkpoint_seed(), &edits, |s| {
            round_trips(
                s,
                |s| PipelineCheckpoint::from_json(s).ok(),
                PipelineCheckpoint::to_json,
            )
        });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn mutated_confusion_matrices_never_panic_and_round_trip(
        edits in prop::collection::vec(any::<u8>(), 4..64),
    ) {
        let outcome = mutate(&matrix_seed().to_json(), &edits, |s| {
            round_trips(s, |s| ConfusionMatrix::from_json(s).ok(), ConfusionMatrix::to_json)
        });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn mutated_span_lines_never_panic_and_round_trip(
        edits in prop::collection::vec(any::<u8>(), 4..64),
    ) {
        let outcome = mutate(&span_seed().to_json(), &edits, |s| {
            round_trips(s, SpanEvent::from_json, SpanEvent::to_json)
        });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn writers_reproduce_the_golden_trace_files_byte_for_byte() {
    for (path, format) in [
        (GOLDEN_JSONL, TraceFormat::JsonLines),
        (GOLDEN_BINARY, TraceFormat::Binary),
    ] {
        let mut written = Vec::new();
        write_trace(&mut written, format, &fixture().0).expect("encode");
        let committed = std::fs::read(path).expect("golden trace bytes");
        assert!(
            written == committed,
            "writing the live session drifted from {path}"
        );
    }
}

#[test]
fn checkpoint_json_at_a_golden_split_is_pinned() {
    let pipeline = graph_after(PINNED_SPLIT).checkpoint().to_json();
    let session = session_checkpoint_after(PINNED_SPLIT).to_json();
    assert_eq!(
        (pipeline.len(), fnv1a(pipeline.as_bytes())),
        (PIPELINE_LEN, PIPELINE_FNV),
        "PipelineCheckpoint::to_json bytes moved"
    );
    assert_eq!(
        (session.len(), fnv1a(session.as_bytes())),
        (SESSION_LEN, SESSION_FNV),
        "SessionCheckpoint::to_json bytes moved"
    );
}

// Captured from the writers before the checkpoint decoders moved onto
// `obs::json`; the writers must not have moved since.
const PIPELINE_LEN: usize = 130_685;
const PIPELINE_FNV: u64 = 0x6510_686c_d4fe_9d11;
const SESSION_LEN: usize = 130_724;
const SESSION_FNV: u64 = 0xd79d_3d42_3f94_44ea;
