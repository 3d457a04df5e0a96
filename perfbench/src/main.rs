//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <simulate|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--record-reference <first> <last>` instead prints, for each seed in
//! the range, the line `reference/simulate_correct.tsv` records for it.
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when
//! any correctness check failed, 2 on bad arguments.

use perfbench::{RunConfig, Scale};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <simulate|ingest|serve> --seed <n> --seconds <s> \
         --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    if std::env::args().nth(1).as_deref() == Some("--record-reference") {
        let bound = |a: Option<String>| {
            a.and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| usage("--record-reference takes two seeds"))
        };
        let (first, last) = (
            bound(std::env::args().nth(2)),
            bound(std::env::args().nth(3)),
        );
        for seed in first..=last {
            println!("{seed}\t{}", perfbench::simulate::count_correct(seed));
        }
        return;
    }
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    // Keep the library's telemetry on, but its log lines (engine shutdowns,
    // slow-session warnings) off the benchmark's output.
    if std::env::var_os("RFIPAD_LOG").is_none() {
        obs::logging::set_level(obs::logging::Level::Error);
    }
    let outcome = perfbench::run(&workload, &cfg).unwrap_or_else(|e| usage(&e));
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
