//! `perfbench`: one benchmark for the three ways users drive the system —
//! heal (`Hippocrates::repair_until_clean`), explore
//! (`pmexplore::run_and_explore`) and serve (`hippod` over its socket).
//!
//! ```text
//! perfbench --workload <heal-redis|explore-redis|serve-corpus> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with all
//! program telemetry off; with `--trace 1` it measures the per-layer
//! breakdown from spans the benchmark records around its calls into each
//! layer. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md for the workloads and how to read the trace.

mod explore;
mod heal;
mod heap;
mod inputs;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Metrics of the `--trace 0` run, every workload. Latencies are printed
/// but not listed: on a shared 2-core host the serve-corpus percentiles
/// swing with the host's fsync and CPU speed by more than any bound the
/// comparison allows (see README.md).
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Metrics of the `--trace 1` run, every workload. A layer a workload
/// never reaches reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("pmvm.traced_run_ms", "ms"),
    ("pmvm.instructions", "count"),
    ("pmvm.ns_per_instr", "ns"),
    ("pmtrace.events", "count"),
    ("pmcheck.check_ms", "ms"),
    ("pmcheck.raw_bugs", "count"),
    ("pmcheck.dedup_ratio", "ratio"),
    ("pmalias.analyze_ms", "ms"),
    ("core.repair_once_ms", "ms"),
    ("core.detect_passes", "count"),
    ("core.fixes", "count"),
    ("core.interproc_fixes", "count"),
    ("core.tx_ms", "ms"),
    ("core.heal_cycles_ratio", "ratio"),
    ("pmir.parse_ms", "ms"),
    ("pmstatic.check_ms", "ms"),
    ("pmexplore.traced_run_ms", "ms"),
    ("pmexplore.frontiers_ms", "ms"),
    ("pmexplore.sample_ms", "ms"),
    ("pmexplore.workers_ms", "ms"),
    ("pmexplore.image_ms", "ms"),
    ("pmexplore.oracle_ms", "ms"),
    ("pmexplore.candidates", "count"),
    ("pmexplore.distinct_ratio", "ratio"),
    ("pmexplore.serial_share", "ratio"),
    ("hippod.submit_ms", "ms"),
    ("hippod.execute_ms.fix", "ms"),
    ("hippod.execute_ms.lint", "ms"),
    ("hippod.execute_ms.explore", "ms"),
    ("hippod.queue_wait_ms", "ms"),
    ("hippod.cache_hit_ratio", "ratio"),
    ("hippod.busy", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_ms", "ms"),
];

/// Set-ups timed on each side of the measured window.
pub const SETUPS: usize = 3;

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `available_parallelism()`: caps threads, connections and workers.
    pub cores: usize,
    /// Scratch directory for this run, inside the checkout.
    pub run_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// A whole-run check failed (seeding self-test, reference heal,
    /// decomposition); the per-operation checks count into `failed`.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Set-up time samples. A run sets up [`SETUPS`] times before its window
/// and [`SETUPS`] times after it, so `setup_s` — the median — spans the
/// run rather than one moment of a shared machine.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Times `make` [`SETUPS`] times and returns the last result; each
    /// earlier one goes to `discard`, outside the timing. `make` gets a
    /// sample index that is unique within the run.
    pub fn time<T>(&mut self, mut make: impl FnMut(usize) -> T, mut discard: impl FnMut(T)) -> T {
        let mut last = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            let out = make(self.0.len());
            self.0.push(t.elapsed().as_secs_f64());
            if let Some(prev) = last.replace(out) {
                discard(prev);
            }
        }
        last.expect("SETUPS > 0")
    }

    /// Prints the samples; returns their median in seconds.
    pub fn median_s(&self) -> f64 {
        let ms: Vec<String> = self.0.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
        println!("setup samples (ms): {}", ms.join(" "));
        stats::median(&self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints one human-readable metric line.
pub fn say(name: &str, value: f64, unit: &str) {
    println!("  {name:<28} {value:>14.4} {unit}");
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <heal-redis|explore-redis|serve-corpus> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_root = PathBuf::from(".bench_run");
    let run_dir = run_root.join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("create the run directory");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        cores,
        run_dir: run_dir.clone(),
        spans_path: run_root.join(format!("spans-{workload}-seed{seed}.jsonl")),
    };
    println!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={} cores={cores} held_out_seed={}",
        u8::from(trace),
        inputs::HELD_OUT_SEED
    );

    let self_test = inputs::self_test(seed);
    let mut m = match workload.as_str() {
        "heal-redis" => heal::run(&ctx),
        "explore-redis" => explore::run(&ctx),
        "serve-corpus" => serve::run(&ctx),
        _ => usage(),
    };
    m.check_failures.extend(self_test);
    let _ = std::fs::remove_dir_all(&run_dir);

    say("peak_rss_mb", peak_rss_mb(), "MB");
    if !trace {
        m.set("peak_heap_mb", heap::peak_mb());
    }
    let list = if trace { PER_LAYER } else { END_TO_END };
    for name in m.metrics.keys() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric `{name}` is not in the list for trace={trace}"
        );
    }
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;
    println!("result");
    say("error_rate", error_rate, "ratio");
    say("attempted", m.attempted as f64, "count");
    for f in &m.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = m.failed == 0 && m.check_failures.is_empty() && m.attempted > 0;
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = m.metrics.get(name).copied().unwrap_or(0.0);
            say(name, v, unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        fields.join(", ")
    );
}

/// A JSON number with every digit Rust keeps (non-finite values, which a
/// division by an empty sample could give, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
