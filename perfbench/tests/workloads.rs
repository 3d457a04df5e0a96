//! The benchmark's own tests, at `Scale::Tiny`:
//!
//! * every workload prints exactly the metric names `BENCHMARK.json`
//!   lists, traced and untraced;
//! * a stalled event sink raises the `serve` latencies, which proves they
//!   count from the due time rather than the send time;
//! * two seeds build different inputs but report the same metric names.

use perfbench::{RunConfig, Scale};
use std::sync::Mutex;
use std::time::Duration;

/// Tests measure time and share the span recorder: run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 3.0,
        trace,
        scale: Scale::Tiny,
    }
}

/// The `name`s of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("a closed list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("a quoted name") + 1..];
            s[..s.find('"').expect("a closed quote")].to_owned()
        })
        .collect()
}

fn names(out: &perfbench::Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_prints_listed(workload: &str) {
    let _g = lock();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = perfbench::run(workload, &cfg(3, trace)).expect("a known workload");
        assert!(
            out.correct(),
            "{workload} failed checks: {:?}",
            out.failures
        );
        assert_eq!(names(&out), listed(key), "{workload} trace={trace}");
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        if !trace {
            for m in &out.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{workload}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn simulate_prints_the_listed_metrics() {
    assert_prints_listed("simulate");
}

#[test]
fn ingest_prints_the_listed_metrics() {
    assert_prints_listed("ingest");
}

#[test]
fn serve_prints_the_listed_metrics() {
    assert_prints_listed("serve");
}

#[test]
fn a_stalled_sink_raises_serve_latencies() {
    let _g = lock();
    // Median BATCH due -> ACK (µs) and CLOSE due -> CLOSED (ms) latencies
    // of 4 s of the schedule, with a sink that stalls each delivery.
    let medians = |stall| {
        let mut setup = perfbench::serve::setup(5, Scale::Tiny, stall);
        let served = perfbench::serve::serve_for(&mut setup, 4.0, true);
        assert_eq!(served.sheds + served.errors, 0);
        let median = |v: &[(usize, f64)]| {
            perfbench::median(&mut v.iter().map(|s| s.1).collect::<Vec<f64>>())
        };
        (median(&served.ack_us), median(&served.close_ms))
    };
    let (base_ack, _) = medians(Duration::ZERO);
    let (slow_ack, slow_close) = medians(Duration::from_millis(300));
    // A CLOSE is answered only after its events reached the sink.
    assert!(slow_close >= 300.0, "stalled CLOSE p50 {slow_close} ms");
    // Each connection now spends more time stalled in CLOSEs than the
    // schedule leaves it, so BATCHes queue up and are sent late. Counted
    // from their due time their acks are late too; counted from the send
    // time they would not be.
    assert!(
        slow_ack > 10_000.0 && slow_ack > 5.0 * base_ack,
        "stalled p50 {slow_ack} vs {base_ack}"
    );
}

#[test]
fn two_seeds_build_different_inputs_with_the_same_metric_names() {
    let _g = lock();
    let a = perfbench::ingest::setup(1, Scale::Tiny);
    let b = perfbench::ingest::setup(2, Scale::Tiny);
    let traces = |s: &perfbench::ingest::Setup| -> Vec<Vec<u8>> {
        s.sessions.iter().map(|x| x.trace.clone()).collect()
    };
    assert_ne!(traces(&a), traces(&b));
    let ta = perfbench::simulate::setup(1, Scale::Tiny).trials;
    let tb = perfbench::simulate::setup(2, Scale::Tiny).trials;
    assert_ne!(ta, tb);
    for workload in ["simulate", "ingest"] {
        let x = perfbench::run(workload, &cfg(1, false)).expect("known");
        let y = perfbench::run(workload, &cfg(2, false)).expect("known");
        assert!(x.correct() && y.correct());
        assert_eq!(names(&x), names(&y));
    }
}
