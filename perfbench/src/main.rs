//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cycle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run generates its inputs from `--seed`, times the program's
//! set-up calls, measures the workload for `--seconds`, checks every
//! output against an independent oracle, and prints one JSON result as
//! its last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. See
//! `perfbench/README.md` for the workloads, metrics and input sizes.

mod batch;
mod layers;
mod refine;
mod script;
mod serve;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::time::Duration;

use stats::Metrics;

/// How many times a run repeats its set-up calls; `setup_s` is the
/// median, so one slow repetition does not move it.
pub const SETUP_REPS: usize = 11;

/// A deliberate defect injected into the benchmark's view of the
/// program's output, to show that the oracles catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    None,
    /// Drop one row from the first checked result table.
    DropRow,
    /// Alter one byte of the first checked response text.
    FlipByte,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    pub corrupt: Corrupt,
    /// Scratch directory under the working directory; removed at exit.
    pub scratch: PathBuf,
}

/// What a workload reports: its metrics and the operation counts.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Alters `text` the way `--corrupt flip-byte` asks, once per run: the
/// first call replaces its first character, later calls do nothing.
pub fn corrupt_text(cfg: &Config, done: &mut bool, text: &mut String) {
    if cfg.corrupt == Corrupt::FlipByte && !*done {
        let first = text.chars().next();
        let replacement = if first == Some('#') { "%" } else { "#" };
        text.replace_range(..first.map_or(0, char::len_utf8), replacement);
        *done = true;
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <batch-cycle|refine-chain|serve-star> --seed <n> \
         --seconds <s> --trace <0|1> [--tiny] [--corrupt <drop-row|flip-byte>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: Corrupt::None,
        scratch: PathBuf::from(".bench_scratch").join(std::process::id().to_string()),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let parsed = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.clone());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| cfg.seed = s).is_ok(),
            ("--seconds", Some(v)) => v
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| cfg.seconds = s)
                .is_some(),
            ("--trace", Some(v)) => match v.as_str() {
                "0" | "1" => {
                    cfg.trace = v == "1";
                    true
                }
                _ => false,
            },
            ("--corrupt", Some(v)) => match v.as_str() {
                "drop-row" => {
                    cfg.corrupt = Corrupt::DropRow;
                    true
                }
                "flip-byte" => {
                    cfg.corrupt = Corrupt::FlipByte;
                    true
                }
                _ => false,
            },
            ("--tiny", _) => {
                cfg.tiny = true;
                i += 1;
                continue;
            }
            _ => false,
        };
        if !parsed {
            usage();
        }
        i += 2;
    }
    let run: fn(&Config) -> Outcome = match workload.as_deref() {
        Some("batch-cycle") => batch::run,
        Some("refine-chain") => refine::run,
        Some("serve-star") => serve::run,
        _ => usage(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.scratch.display());
        std::process::exit(1);
    }
    let outcome = run(&cfg);
    std::fs::remove_dir_all(&cfg.scratch).ok();
    // Remove the parent too when no other run is using it.
    if let Some(parent) = cfg.scratch.parent() {
        std::fs::remove_dir(parent).ok();
    }
    println!(
        "{}",
        outcome
            .metrics
            .result_json(outcome.attempted, outcome.failed)
    );
}

/// Wall-clock length of one measuring phase: the whole run, or half of
/// it when the run also has a traced phase.
pub fn phase(cfg: &Config) -> Duration {
    let run = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        run / 2
    } else {
        run
    }
}
