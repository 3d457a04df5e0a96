//! The repo benchmark: three workloads that drive the RFIPad layers from
//! outside, through their public entry points, and report end-to-end and
//! per-layer metrics.
//!
//! * [`simulate`] — seeded letter trials: `Writer` → `Gen2Reader::run`
//!   (over `Scene::observe`) → `StageGraph`, scored against ground truth.
//! * [`ingest`] — recorded multi-letter word sessions decoded by
//!   `TraceSource` and fed in large batches to an `Engine`.
//! * [`serve`] — an open-loop schedule of pad sessions over loopback RFIW
//!   into an `IngestServer`.
//!
//! Every run builds its inputs from a seed, checks its outputs against a
//! reference and reports one JSON line (see [`Outcome::to_json`]). With
//! tracing on, the run instead records [`spans`] around the benchmark's
//! calls into each layer and reports per-layer metrics, the tracing
//! overhead and a layer waterfall. `README.md` maps every metric to the
//! end-to-end figure it should move.

pub mod ingest;
pub mod serve;
pub mod simulate;
pub mod spans;
pub mod stages;

use experiments::{Bench, Deployment, DeploymentSpec};
use rfipad::{PipelineEvent, RfipadConfig};
use std::time::Instant;

/// How large a run's inputs are. `Full` is what the benchmark measures;
/// `Tiny` keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A minimal configuration for tests.
    Tiny,
}

/// One invocation of a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement time of the untraced run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Workers and client threads: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What a run reports: its correctness tally and metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (trials, sessions).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` under `cfg`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "simulate" => Ok(simulate::run(cfg)),
        "ingest" => Ok(ingest::run(cfg)),
        "serve" => Ok(serve::run(cfg)),
        other => Err(format!(
            "unknown workload {other:?} (simulate, ingest, serve)"
        )),
    }
}

/// How many times a run repeats its set-up at least; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;
/// A run repeats a set-up that is done sooner until this much time went
/// into set-up, s, up to [`SETUP_MAX_REPEATS`] times.
pub const SETUP_BUDGET_S: f64 = 1.0;
/// The most set-ups a run makes.
pub const SETUP_MAX_REPEATS: usize = 50;

/// Runs `build` [`SETUP_REPEATS`] times or more, as long as
/// [`SETUP_BUDGET_S`] is not spent (once at `Tiny` scale), and returns the
/// last result with the median set-up time in seconds. With
/// `release_memory`, the allocator's free memory goes back to the system
/// between set-ups (`malloc_trim`). Each set-up then pays
/// for faulting its memory in afresh, which costs a small set-up (10 ms)
/// half its time again and varies from run to run, so a workload asks
/// for it only when its set-ups leave enough behind to move the peak
/// resident set.
pub fn timed_setup<T>(
    scale: Scale,
    release_memory: bool,
    mut build: impl FnMut() -> T,
) -> (T, f64) {
    let (min, max) = if scale == Scale::Tiny {
        (1, 1)
    } else {
        (SETUP_REPEATS, SETUP_MAX_REPEATS)
    };
    let mut times = Vec::with_capacity(max);
    let mut last = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET_S) {
        // Drop the previous instance first so it does not count twice
        // towards peak memory.
        if last.take().is_some() && release_memory {
            release_free_memory();
        }
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// Hands the allocator's free memory back to the system (`malloc_trim`).
/// A `serve` set-up that ran before leaves freed memory scattered over the
/// allocator's per-thread arenas; kept, it added 20–50% to the peak
/// resident set, varying from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers and only reorganizes the
    // allocator's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values` (sorted in place);
/// 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A calibrated bench at one of the paper's lab locations (`1..=4`).
pub fn bench_at(location: usize, seed: u64) -> Bench {
    let spec = DeploymentSpec {
        location,
        ..DeploymentSpec::default()
    };
    Bench::calibrate(
        Deployment::build(spec, seed),
        RfipadConfig::default(),
        seed ^ 0x5eed,
    )
}

/// Derives the `i`-th child seed of `seed` (SplitMix64 finalizer).
pub fn child_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The letters a session's events recognized, in order (`?` for a
/// letter close that matched no grammar entry).
pub fn recognized_letters(events: &[PipelineEvent]) -> String {
    events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(letter.unwrap_or('?')),
            PipelineEvent::StrokeDetected { .. } => None,
        })
        .collect()
}

/// Letters of `truth` recognized in order: the longest common
/// subsequence of the truth and the recognized letters.
pub fn letters_matched(truth: &str, recognized: &str) -> usize {
    let t: Vec<char> = truth.chars().collect();
    let r: Vec<char> = recognized.chars().collect();
    let mut prev = vec![0usize; r.len() + 1];
    for &tc in &t {
        let mut cur = vec![0usize; r.len() + 1];
        for (j, &rc) in r.iter().enumerate() {
            cur[j + 1] = if tc == rc {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        prev = cur;
    }
    prev[r.len()]
}

/// Waits until `due` without sleeping: the thread yields its core to any
/// runnable thread and otherwise spins. A sleeping thread leaves its
/// virtual CPU idle, and on a shared host an idle virtual CPU takes 0.1–1
/// ms to wake, varying with the host's load; those wake-ups, not the
/// program, would set every latency measured from `due`.
pub fn spin_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hand_kinematics.write.calls", "count"),
    ("hand_kinematics.write.busy_s", "s"),
    ("gen2.run.calls", "count"),
    ("gen2.run.busy_s", "s"),
    ("gen2.reads", "count"),
    ("gen2.slots", "count"),
    ("gen2.collisions", "count"),
    ("gen2.slot_efficiency", "share"),
    ("rf_sim.observe.calls", "count"),
    ("rf_sim.target.samples", "count"),
    ("rf_sim.observe.ns_per_call", "ns"),
    ("trace.decode.reports", "count"),
    ("trace.decode.busy_s", "s"),
    ("engine.ingest.calls", "count"),
    ("engine.ingest.blocked_s", "s"),
    ("engine.close.wait_s", "s"),
    ("engine.push_p50_ns", "ns"),
    ("engine.push_p99_ns", "ns"),
    ("engine.reports_dropped", "count"),
    ("stage.framing.calls", "count"),
    ("stage.framing.busy_s", "s"),
    ("stage.segmentation.calls", "count"),
    ("stage.segmentation.busy_s", "s"),
    ("stage.motion.calls", "count"),
    ("stage.motion.busy_s", "s"),
    ("stage.letter.calls", "count"),
    ("stage.letter.busy_s", "s"),
    ("stage.grammar.calls", "count"),
    ("stage.grammar.busy_s", "s"),
    ("stage.framing.ticks", "count"),
    ("stage.motion.accept_ratio", "share"),
    ("stage.grammar.hit_ratio", "share"),
    ("wire.encode.ns_per_frame", "ns"),
    ("wire.decode.ns_per_frame", "ns"),
    ("serve.frames", "count"),
    ("serve.acks", "count"),
    ("serve.sheds", "count"),
    ("serve.errors", "count"),
    ("serve.ack_latency_p50_us", "us"),
    ("serve.connect_ms", "ms"),
    ("emit.sessions", "count"),
    ("emit.events", "count"),
    ("emit.busy_s", "s"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("tracing.overhead_s", "s"),
    ("tracing.overhead_share", "share"),
    ("waterfall.unaccounted_share", "share"),
    ("waterfall.tolerance", "share"),
    ("ingest.single_worker_reports_per_s", "1/s"),
    ("ingest.worker_speedup", "ratio"),
    ("ingest.speedup_base_workers", "count"),
];

/// Values of the per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: std::collections::HashMap<&'static str, f64>,
}

impl Layers {
    /// Sets a metric listed in [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// On a name [`PER_LAYER`] does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted per-layer metric {name}"));
        self.values.insert(name, value);
    }

    /// Sets the calls and busy time of every span name that is a listed
    /// `<name>.calls` / `<name>.busy_s` pair.
    pub fn set_span_stats(&mut self, spans: &[spans::Span]) {
        for (name, stat) in spans::layer_stats(spans) {
            for (suffix, v) in [("calls", stat.calls as f64), ("busy_s", stat.busy_s)] {
                let full = format!("{name}.{suffix}");
                if PER_LAYER.iter().any(|(n, _)| *n == full) {
                    self.set(&full, v);
                }
            }
        }
    }

    /// Sets the stage counters of a composed replay.
    pub fn set_stage_counts(&mut self, c: &stages::StageCounts) {
        self.set("stage.framing.ticks", c.ticks as f64);
        self.set(
            "stage.motion.accept_ratio",
            ratio(c.strokes as f64, c.spans as f64),
        );
        self.set(
            "stage.grammar.hit_ratio",
            ratio(c.letters as f64, c.closes as f64),
        );
    }

    /// Sets the tracing overhead and the waterfall figures.
    pub fn set_trace_figures(&mut self, wf: &spans::Waterfall) {
        self.set("tracing.overhead_s", wf.traced_wall_s - wf.untraced_wall_s);
        self.set(
            "tracing.overhead_share",
            ratio(wf.traced_wall_s - wf.untraced_wall_s, wf.untraced_wall_s),
        );
        self.set("waterfall.unaccounted_share", wf.unaccounted_share());
        self.set("waterfall.tolerance", wf.tolerance);
    }

    /// Appends every per-layer metric to `out`, in [`PER_LAYER`] order.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints a traced run's waterfall to stderr with its verdict against the
/// tolerance. A waterfall outside the tolerance is flagged, not counted as
/// a failed operation: it compares wall times of separate runs, and on a
/// shared virtual machine a layer with no spans inside (`gen2.run`) took
/// 0.89 s in one process and 1.11 s in the next for the same round.
pub fn print_waterfall(wf: &spans::Waterfall, title: &str) {
    eprint!("{}", wf.render(title));
    eprintln!(
        "waterfall [{title}]: {} the ±{:.0}% tolerance",
        if wf.within_tolerance() {
            "within"
        } else {
            "OUTSIDE"
        },
        wf.tolerance * 100.0
    );
}

/// Where a traced run writes its spans: `out/` next to this package.
pub fn span_file(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

/// The end-to-end metrics every workload reports. What each one counts in
/// a given workload is spelled out in `README.md`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// Share of attempted operations that passed every check.
    pub ok_share: f64,
    /// Share of written letters recognized correctly.
    pub letter_accuracy: f64,
    /// Letters recognized per CPU-second the process got.
    pub letters_per_cpu_s: f64,
    /// Reports processed per CPU-second the process got.
    pub reports_per_cpu_s: f64,
    /// Median time from a letter's last input to its result, ms.
    pub result_latency_p50_ms: f64,
}

impl EndToEnd {
    /// Appends the metrics to `out`, filling in `ok_share` and the peak
    /// RSS from the outcome and the process.
    pub fn emit(mut self, out: &mut Outcome) {
        self.ok_share = 1.0 - ratio(out.failed as f64, out.attempted as f64);
        self.peak_rss_mb = peak_rss_mb();
        for (name, value, unit) in [
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("ok_share", self.ok_share, "share"),
            ("letter_accuracy", self.letter_accuracy, "share"),
            ("letters_per_cpu_s", self.letters_per_cpu_s, "1/cpu_s"),
            ("reports_per_cpu_s", self.reports_per_cpu_s, "1/cpu_s"),
            ("result_latency_p50_ms", self.result_latency_p50_ms, "ms"),
        ] {
            out.metric(name, value, unit);
        }
    }
}

/// CPU time this process has used so far (user + system, all threads,
/// exited ones included), s, at the kernel's 10 ms tick. Time the
/// hypervisor stole from the guest is not in it: on a shared virtual
/// machine, work per CPU-second stays put while work per wall-second
/// swings by a third with the host's load.
pub fn process_cpu_s() -> f64 {
    cpu_s("/proc/self/stat")
}

/// CPU time the calling thread has used so far, s, like
/// [`process_cpu_s`].
pub fn thread_cpu_s() -> f64 {
    cpu_s("/proc/thread-self/stat")
}

fn cpu_s(stat_file: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_file).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Prints the tail of a latency distribution to stderr: its p90 and p99
/// over the whole run, with the sample count and how many samples lie
/// beyond each. Tails are reported, not gated: on a small shared machine
/// they follow the host's scheduling more than the program.
pub fn report_tail(what: &str, unit: &str, samples: &[f64]) {
    let mut v = samples.to_vec();
    let n = v.len();
    let p90 = percentile(&mut v, 0.90);
    let p99 = percentile(&mut v, 0.99);
    eprintln!(
        "tail {what}: p90 {p90:.4} {unit} ({} beyond), p99 {p99:.4} {unit} ({} beyond), {n} samples",
        v.iter().filter(|x| **x > p90).count(),
        v.iter().filter(|x| **x > p99).count(),
    );
}

/// Latency samples cut into consecutive windows. A percentile is taken
/// per window and reported as the median over windows, so one burst of
/// machine noise moves one window, not the figure.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    closed: Vec<Vec<f64>>,
    open: Vec<f64>,
}

impl Windowed {
    /// Adds a sample to the open window.
    pub fn push(&mut self, v: f64) {
        self.open.push(v);
    }

    /// Closes the open window, if it holds samples.
    pub fn cut(&mut self) {
        if !self.open.is_empty() {
            self.closed.push(std::mem::take(&mut self.open));
        }
    }

    /// Every sample, in window order.
    pub fn samples(&self) -> Vec<f64> {
        self.closed
            .iter()
            .flatten()
            .chain(&self.open)
            .copied()
            .collect()
    }

    /// Median over the closed windows of each window's `p` percentile. A
    /// still-open window counts only when no window was closed.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut per_window: Vec<f64> = if self.closed.is_empty() {
            vec![percentile(&mut self.open.clone(), p)]
        } else {
            self.closed
                .iter()
                .map(|w| percentile(&mut w.clone(), p))
                .collect()
        };
        median(&mut per_window)
    }
}

impl Windowed {
    /// Windows from samples tagged with their window index.
    pub fn from_indexed(samples: &[(usize, f64)]) -> Self {
        let mut w = Self::default();
        let n = samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
        for i in 0..n {
            w.open
                .extend(samples.iter().filter(|s| s.0 == i).map(|s| s.1));
            w.cut();
        }
        w
    }
}
