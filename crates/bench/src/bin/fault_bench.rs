//! Fault-injection campaign benchmark: pass rate of the hardened repair
//! pipeline across every fault archetype, and the cost of the injection
//! layer on the exploration hot path, emitted as `BENCH_fault.json` — a
//! `hippo.metrics.v1` snapshot the CI bench-regression gate (`bench_gate`)
//! compares against its checked-in baseline.
//!
//! Two artifacts:
//!
//! 1. **Campaign** — one repair run per fault archetype (`FaultPlan::
//!    from_seed(0..N_ARCHETYPES)`). A seed passes when the run neither
//!    panics nor hangs, every injected fault leaves a structured
//!    diagnostic or degradation, and a clean repair reproduces the
//!    fault-free repair's output. The pass rate (`bench.fault.pass_rate`,
//!    a gated no-drop metric) must be 1.0.
//! 2. **Overhead** — states/sec exploring the healed ordering demo and
//!    the correct P-CLHT with the fault layer absent (`fault: None`)
//!    and with a plan armed whose trigger never fires. Both rows should
//!    sit within noise of each other and of `BENCH_explore.json`: a
//!    disarmed or idle injector is one branch on the hot path.

use hippocrates::{BugSource, Hippocrates, RepairOptions};
use pmexplore::{run_and_explore, ExploreOptions};
use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger, N_ARCHETYPES};
use pmobs::Obs;
use pmvm::{Vm, VmOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const DEMO_SRC: &str = include_str!("../../../../examples/ordering_demo.pmc");
const BUDGET: usize = 128;
const SEED: u64 = 0;

/// The same workload family `hippoctl faultcampaign` uses: enough PM
/// stores, flushes, and loads that every per-archetype trigger offset
/// has a site to land on, one genuine durability bug for the repair to
/// fix, and a loop long enough that tightened fuel always bites.
const WORKLOAD_SRC: &str = r#"
    fn main() {
        var p: ptr = pmem_map(3, 4096);
        store8(p, 0, 1);
        clwb(p);
        sfence();
        store8(p, 64, 2);
        clwb(p + 64);
        sfence();
        store8(p, 128, 3);
        clwb(p + 128);
        store8(p, 192, 4);
        var i: int = 0;
        while (i < 16) { i = i + 1; }
        print(load8(p, 0) + load8(p, 64));
        print(load8(p, 128) + load8(p, 192));
    }
    fn recover() -> int {
        var p: ptr = pmem_map(3, 4096);
        if (load8(p, 0) > 9) { return 1; }
        return 0;
    }
"#;

struct CampaignRow {
    plan: String,
    passed: bool,
    fixes: usize,
    degradations: usize,
    diagnostics: usize,
    millis: f64,
    note: String,
}

/// One campaign seed under the same contract as `hippoctl faultcampaign`:
/// never panic, always leave a structured trail, never change the repaired
/// program's output. The faulted run records into `obs`, so the artifact
/// aggregates `fault.fired.*` counters across the whole campaign.
fn campaign_row(obs: &Obs, seed: u64) -> CampaignRow {
    let plan = FaultPlan::from_seed(seed);
    let describe = plan.describe();
    // Transport and shard faults fire inside the daemon (connection
    // boundary / campaign scheduler), not inside the repair pipeline: run
    // those seeds through the shared in-process daemon campaigns (same
    // contract as `hippoctl faultcampaign`).
    if plan.targets_net() || plan.targets_shard() {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if plan.targets_net() {
                hippod::netfault::campaign_seed(seed, "campaign.pmc", WORKLOAD_SRC, obs)
            } else {
                hippod::chaos::campaign_seed(seed, "campaign.pmc", WORKLOAD_SRC, obs)
            }
        }));
        let millis = t0.elapsed().as_secs_f64() * 1e3;
        let (passed, note) = match outcome {
            Ok(Ok(line)) => (true, line),
            Ok(Err(why)) => (false, why),
            Err(_) => (false, "daemon campaign panicked".to_string()),
        };
        return CampaignRow {
            plan: describe,
            passed,
            fixes: 0,
            degradations: 0,
            diagnostics: 0,
            millis,
            note,
        };
    }
    let bug_source =
        if plan.targets(FaultSite::ExploreWorker) || plan.targets(FaultSite::ExploreOracle) {
            BugSource::Exploration
        } else {
            BugSource::Both
        };

    let row = |passed: bool, fixes, degradations, diagnostics, millis, note: String| CampaignRow {
        plan: describe.clone(),
        passed,
        fixes,
        degradations,
        diagnostics,
        millis,
        note,
    };

    let module = || pmlang::compile_one("campaign.pmc", WORKLOAD_SRC).expect("workload compiles");
    let baseline = {
        let mut m = module();
        Hippocrates::new(RepairOptions {
            bug_source: BugSource::Both,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .expect("fault-free repair converges");
        Vm::new(VmOptions::default())
            .run(&m, "main")
            .expect("fault-free healed run")
            .output
    };

    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut m = module();
        let r = Hippocrates::new(RepairOptions {
            bug_source,
            fault: Some(plan.clone()),
            watchdog_ms: Some(50),
            source_retries: 1,
            explore_budget: BUDGET,
            explore_seed: seed,
            explore_jobs: 2,
            obs: obs.clone(),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main");
        (r, m)
    }));
    let millis = t0.elapsed().as_secs_f64() * 1e3;

    let (result, healed) = match outcome {
        Ok(pair) => pair,
        Err(_) => {
            return row(false, 0, 0, 0, millis, "pipeline panicked".into());
        }
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            return row(
                false,
                0,
                0,
                0,
                millis,
                format!("no degraded path survived: {e}"),
            );
        }
    };
    if !out.clean {
        return row(
            false,
            out.fixes.len(),
            out.degraded.len(),
            out.diagnostics.len(),
            millis,
            "repair did not converge".into(),
        );
    }
    if out.degraded.is_empty() && out.diagnostics.is_empty() {
        return row(
            false,
            out.fixes.len(),
            0,
            0,
            millis,
            "injected fault left no structured trail".into(),
        );
    }
    let after = Vm::new(VmOptions::default())
        .run(&healed, "main")
        .expect("healed run");
    if after.output != baseline {
        return row(
            false,
            out.fixes.len(),
            out.degraded.len(),
            out.diagnostics.len(),
            millis,
            "repaired output diverged from the fault-free repair".into(),
        );
    }
    row(
        true,
        out.fixes.len(),
        out.degraded.len(),
        out.diagnostics.len(),
        millis,
        String::new(),
    )
}

fn explore_opts(obs: &Obs, fault: Option<FaultPlan>, jobs: usize) -> ExploreOptions {
    ExploreOptions {
        budget: BUDGET,
        seed: SEED,
        jobs,
        fault,
        obs: obs.clone(),
        ..ExploreOptions::default()
    }
}

/// Explores [`bench::REPEATS`] times, records the
/// `bench.fault.<target>.<layer>.*` metrics of the median run, and returns
/// its wall seconds. A single run of these rows takes a fraction of a
/// millisecond, too short for one sample to say anything.
fn overhead_row(
    obs: &Obs,
    target: &str,
    fault_layer: &str,
    m: &pmir::Module,
    entry: &str,
    jobs: usize,
    fault: Option<FaultPlan>,
) -> f64 {
    let _span = obs.span(&format!("bench.overhead.{target}.{fault_layer}"));
    let (secs, x) = bench::median_wall(|| {
        run_and_explore(m, entry, &explore_opts(obs, fault.clone(), jobs))
            .expect("exploration runs")
    });
    let candidates = x.report.stats.candidates;
    let states_per_sec = if secs > 0.0 {
        candidates as f64 / secs
    } else {
        0.0
    };
    let key = format!("bench.fault.{target}.{fault_layer}");
    obs.add(&format!("{key}.candidates"), candidates as u64);
    obs.gauge(&format!("{key}.wall_ms"), secs * 1e3);
    obs.gauge(&format!("{key}.states_per_sec"), states_per_sec);
    println!(
        "  {target:<16} {fault_layer:<9} jobs={jobs}  {candidates:>4} states in {secs:.3}s  \
         ->  {states_per_sec:.0} states/s"
    );
    secs
}

fn main() {
    let obs = Obs::enabled();
    let t_all = Instant::now();
    println!("Fault-injection campaign — archetype pass rate and injection-layer overhead\n");

    // --- Campaign: every archetype, hardened-pipeline contract. ------------
    let campaign_span = obs.span("bench.campaign");
    let mut passed = 0u64;
    for seed in 0..N_ARCHETYPES {
        let _seed_span = obs.span("bench.campaign.seed");
        let r = campaign_row(&obs, seed);
        println!(
            "  seed {seed}: [{}] {}  ({:.0} ms, {} fix(es), {} degradation(s), {} diagnostic(s)){}",
            r.plan,
            if r.passed { "ok" } else { "FAILED" },
            r.millis,
            r.fixes,
            r.degradations,
            r.diagnostics,
            if r.note.is_empty() {
                String::new()
            } else {
                format!(" — {}", r.note)
            },
        );
        passed += u64::from(r.passed);
        obs.observe("bench.fault.campaign_ms", r.millis);
        obs.add("bench.fault.fixes_total", r.fixes as u64);
        obs.add("bench.fault.degradations_total", r.degradations as u64);
        obs.add("bench.fault.diagnostics_total", r.diagnostics as u64);
    }
    drop(campaign_span);
    let pass_rate = passed as f64 / N_ARCHETYPES as f64;
    println!("campaign: {passed}/{N_ARCHETYPES} archetype(s) passed\n");
    obs.add("bench.fault.archetypes", N_ARCHETYPES);
    obs.add("bench.fault.passed", passed);
    obs.gauge("bench.fault.pass_rate", pass_rate);
    assert_eq!(
        passed, N_ARCHETYPES,
        "every fault archetype must be survived"
    );

    // --- Overhead: disabled vs. armed-but-idle injection layer. ------------
    // The idle plan targets a real site with a trigger that never fires, so
    // the whole per-candidate injection path runs without ever injecting.
    let idle_plan = FaultPlan::single(
        FaultSite::ExploreWorker,
        Trigger::Nth(u64::MAX),
        FaultKind::WorkerPanic,
    );
    let mut demo = pmlang::compile_one("ordering_demo.pmc", DEMO_SRC).expect("demo compiles");
    Hippocrates::new(RepairOptions {
        bug_source: BugSource::Exploration,
        explore_budget: BUDGET,
        explore_seed: SEED,
        ..RepairOptions::default()
    })
    .repair_until_clean(&mut demo, "main")
    .expect("demo heals");
    let pclht = pmapps::pclht::build_correct().expect("pclht builds");

    println!("overhead (budget {BUDGET}, seed {SEED}):");
    let mut disabled = 0.0;
    let mut idle = 0.0;
    disabled += overhead_row(&obs, "ordering_demo", "disabled", &demo, "main", 1, None);
    idle += overhead_row(
        &obs,
        "ordering_demo",
        "armed_idle",
        &demo,
        "main",
        1,
        Some(idle_plan.clone()),
    );
    disabled += overhead_row(
        &obs,
        "pclht",
        "disabled",
        &pclht,
        pmapps::pclht::ENTRY,
        1,
        None,
    );
    idle += overhead_row(
        &obs,
        "pclht",
        "armed_idle",
        &pclht,
        pmapps::pclht::ENTRY,
        1,
        Some(idle_plan),
    );
    // Summarize the slowdown of the armed-but-idle layer (expected ~1.0,
    // recorded rather than gated: CI machines are noisy).
    let armed_idle_over_disabled = if disabled > 0.0 { idle / disabled } else { 1.0 };
    println!("armed-idle / disabled wall-clock ratio: {armed_idle_over_disabled:.3}\n");
    obs.gauge(
        "bench.fault.armed_idle_over_disabled",
        armed_idle_over_disabled,
    );

    obs.gauge("bench.wall_ms", t_all.elapsed().as_secs_f64() * 1e3);
    bench::write_metrics("BENCH_fault.json", &obs);
}
