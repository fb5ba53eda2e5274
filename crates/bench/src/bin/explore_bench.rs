//! Crash-state exploration benchmark: throughput (crash states per second)
//! and coverage versus checkpoint-based crash sampling, emitted as
//! `BENCH_explore.json` — a `hippo.metrics.v1` snapshot the CI
//! bench-regression gate (`bench_gate`) compares against its checked-in
//! baseline.
//!
//! Two artifacts:
//!
//! 1. **Coverage** — the unfenced-flush-reordering demo is clean under the
//!    dynamic checkpoint checker (its blind spot) but caught by exploration;
//!    an `Exploration`-sourced repair heals it and re-exploration is clean
//!    (`bench.explore.healed_clean`, a gated no-drop metric).
//! 2. **Throughput** — states/sec exploring the correct P-CLHT and the
//!    ordering demo at a fixed seed and budget, serial and parallel. Wall
//!    times land in gated `*.wall_ms` gauges.

use hippocrates::{BugSource, Hippocrates, RepairOptions};
use pmexplore::{run_and_explore, ExploreOptions};
use pmobs::Obs;
use pmvm::VmOptions;
use std::time::Instant;

const DEMO_SRC: &str = include_str!("../../../../examples/ordering_demo.pmc");
const BUDGET: usize = 128;
const SEED: u64 = 0;

fn opts(obs: &Obs, jobs: usize) -> ExploreOptions {
    ExploreOptions {
        budget: BUDGET,
        seed: SEED,
        jobs,
        obs: obs.clone(),
        ..ExploreOptions::default()
    }
}

/// Runs one throughput measurement (median of [`bench::REPEATS`]) and
/// returns the wall seconds, so callers can derive cross-row ratios (the
/// `j4_over_j1` parallel-speedup gauge).
fn throughput_row(obs: &Obs, name: &str, m: &pmir::Module, entry: &str, jobs: usize) -> f64 {
    let _span = obs.span(&format!("bench.throughput.{name}.j{jobs}"));
    let (secs, x) = bench::median_wall(|| {
        run_and_explore(m, entry, &opts(obs, jobs)).expect("exploration runs")
    });
    let candidates = x.report.stats.candidates;
    let states_per_sec = if secs > 0.0 {
        candidates as f64 / secs
    } else {
        0.0
    };
    let key = format!("bench.explore.{name}.j{jobs}");
    obs.add(&format!("{key}.candidates"), candidates as u64);
    obs.add(
        &format!("{key}.distinct_states"),
        x.report.stats.distinct_states as u64,
    );
    obs.add(&format!("{key}.findings"), x.report.findings.len() as u64);
    obs.gauge(&format!("{key}.wall_ms"), secs * 1e3);
    obs.gauge(&format!("{key}.states_per_sec"), states_per_sec);
    println!(
        "  {name:<16} jobs={jobs}  {candidates:>4} states ({} distinct, {} inconsistent) \
         in {secs:.3}s  ->  {states_per_sec:.0} states/s",
        x.report.stats.distinct_states,
        x.report.findings.len(),
    );
    secs
}

/// Emits the gated parallel-speedup gauge: wall-time ratio j1/j4, so 1.0
/// means "4 workers bought nothing" and below 1.0 means parallel explore is
/// an outright pessimization — the regression `bench_gate` exists to catch.
fn speedup_gauge(obs: &Obs, name: &str, j1_secs: f64, j4_secs: f64) {
    let ratio = if j4_secs > 0.0 {
        j1_secs / j4_secs
    } else {
        0.0
    };
    obs.gauge(&format!("bench.explore.{name}.j4_over_j1"), ratio);
    println!("  {name:<16} j4 speedup over j1: {ratio:.2}x");
}

fn main() {
    let obs = Obs::enabled();
    let t_all = Instant::now();
    println!("Crash-state exploration — coverage vs. crashpoint sampling, and states/sec\n");
    obs.add("bench.explore.budget", BUDGET as u64);
    obs.add("bench.explore.seed", SEED);

    // --- Coverage: the dynamic checker's blind spot. -----------------------
    let cov_span = obs.span("bench.coverage");
    let mut demo = pmlang::compile_one("ordering_demo.pmc", DEMO_SRC).expect("demo compiles");
    let dynamic =
        pmcheck::run_and_check(&demo, "main", VmOptions::default()).expect("dynamic check runs");
    let crashpoint_bugs = dynamic.report.bugs.len();

    let explored = run_and_explore(&demo, "main", &opts(&obs, 1)).expect("exploration runs");
    let exploration_bugs = explored.report.to_check_report(&explored.trace).bugs.len();
    println!(
        "coverage on the reordering demo: crashpoint checker {crashpoint_bugs} bug(s), \
         exploration {exploration_bugs} bug(s)"
    );
    obs.add(
        "bench.explore.coverage.crashpoint_bugs",
        crashpoint_bugs as u64,
    );
    obs.add(
        "bench.explore.coverage.exploration_bugs",
        exploration_bugs as u64,
    );
    assert_eq!(crashpoint_bugs, 0, "the demo is the checker's blind spot");
    assert!(
        exploration_bugs > 0,
        "exploration must catch the reordering"
    );
    drop(cov_span);

    // Heal it from the exploration report, then re-verify at full budget.
    let heal_span = obs.span("bench.heal");
    let outcome = Hippocrates::new(RepairOptions {
        bug_source: BugSource::Exploration,
        explore_budget: BUDGET,
        explore_seed: SEED,
        obs: obs.clone(),
        ..RepairOptions::default()
    })
    .repair_until_clean(&mut demo, "main")
    .expect("repair runs");
    let healed = run_and_explore(&demo, "main", &opts(&obs, 1)).expect("re-exploration runs");
    let healed_clean = outcome.clean && healed.report.is_clean();
    println!(
        "healed with {} fix(es); re-exploration clean: {healed_clean}\n",
        outcome.fixes.len()
    );
    obs.gauge(
        "bench.explore.healed_clean",
        if healed_clean { 1.0 } else { 0.0 },
    );
    assert!(healed_clean, "exploration-sourced repair must converge");
    drop(heal_span);

    // --- Throughput: states/sec at a fixed seed and budget. ----------------
    println!("throughput (budget {BUDGET}, seed {SEED}):");
    let pclht = pmapps::pclht::build_correct().expect("pclht builds");
    let demo_clean = demo; // the healed demo: every candidate boots recovery
    let demo_j1 = throughput_row(&obs, "ordering_demo", &demo_clean, "main", 1);
    let demo_j4 = throughput_row(&obs, "ordering_demo", &demo_clean, "main", 4);
    let pclht_j1 = throughput_row(&obs, "pclht", &pclht, pmapps::pclht::ENTRY, 1);
    let pclht_j4 = throughput_row(&obs, "pclht", &pclht, pmapps::pclht::ENTRY, 4);
    speedup_gauge(&obs, "ordering_demo", demo_j1, demo_j4);
    speedup_gauge(&obs, "pclht", pclht_j1, pclht_j4);

    obs.gauge("bench.wall_ms", t_all.elapsed().as_secs_f64() * 1e3);
    println!();
    bench::write_metrics("BENCH_explore.json", &obs);
}
