//! `explore-redis`: closed loop, one exploration in flight, `jobs` =
//! cores. The developer port of Redis runs a small YCSB Load + A stream
//! and `pmexplore::run_and_explore` boots the Redis recovery oracle on the
//! sampled crash states. The port is correct, so every exploration must
//! come back clean.

use crate::inputs::{self, EXPLORE_BUDGET, EXPLORE_RECORDS};
use crate::span::{per_request, SpanId, SpanLog};
use crate::stats::{median, quantile, tail_quantile};
use crate::{say, Ctx, Measured, Setups};
use pmapps::redis::{attach_workload, build, RedisBuild};
use pmexplore::{frontiers, sample, ExploreOptions, Oracle, Replayer, StealQueue, Verdict};
use pmir::snapshot::fnv1a;
use pmir::Module;
use pmvm::{DecodedModule, Vm, VmOptions};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Candidates a worker takes from the steal queue at a time (the value
/// `pmexplore::explore` uses).
const CHUNK: usize = 8;

fn options(ctx: &Ctx) -> ExploreOptions {
    ExploreOptions {
        budget: EXPLORE_BUDGET,
        seed: ctx.seed,
        jobs: ctx.cores,
        oracle: Some(Oracle::returns_zero(pmapps::redis::RECOVER)),
        ..ExploreOptions::default()
    }
}

/// Counts of one traced decomposition.
struct Counts {
    instructions: u64,
    events: u64,
    candidates: usize,
    distinct: usize,
    inconsistent: usize,
}

/// `run_and_explore` rebuilt from public calls: traced `Vm::run` with PM
/// data capture → `frontiers` → `sample` → workers that replay each
/// candidate, dedup its crash image by hash and, on a miss, build the
/// image (`Replayer::image_with`) and boot the oracle
/// (`Oracle::check_opts`).
fn decomposed(
    m: &Module,
    entry: &str,
    opts: &ExploreOptions,
    log: &SpanLog,
    request: u64,
) -> (Counts, SpanId) {
    let oracle = opts.oracle.clone().expect("the benchmark sets the oracle");
    let root = log.begin("explore", request, None);
    let vm_opts = VmOptions {
        capture_pm_data: true,
        tier: opts.tier,
        ..VmOptions::default()
    };
    let run = log
        .time("pmexplore.traced_run", request, Some(root), || {
            Vm::new(vm_opts).run(m, entry)
        })
        .expect("explored stream runs");
    let trace = run.trace.expect("tracing was on");
    let data = run.pm_data.expect("capture was on");
    let fronts = log.time("pmexplore.frontiers", request, Some(root), || {
        frontiers(&trace, &data, None)
    });
    let candidates = log.time("pmexplore.sample", request, Some(root), || {
        sample(&fronts, opts.budget, opts.seed)
    });
    let workers = log.begin("pmexplore.workers", request, Some(root));
    let decoded = DecodedModule::decode(m);
    let jobs = opts.jobs.max(1).min(candidates.len().max(1));
    let queue = StealQueue::new(jobs, candidates.len(), CHUNK);
    let memo: Mutex<HashMap<u64, Verdict>> = Mutex::new(HashMap::new());
    let inconsistent = Mutex::new(0usize);
    std::thread::scope(|s| {
        for w in 0..jobs {
            let (queue, memo, inconsistent, candidates, trace, data, oracle, decoded) = (
                &queue,
                &memo,
                &inconsistent,
                &candidates,
                &trace,
                &data,
                &oracle,
                &decoded,
            );
            s.spawn(move || {
                let span = log.begin("pmexplore.worker", request, Some(workers));
                let mut replayer: Option<Replayer<'_>> = None;
                let mut at_seq = 0;
                while let Some(range) = queue.pop(w) {
                    for idx in range {
                        let c = &candidates[idx];
                        if replayer.is_none() || at_seq > c.after_seq {
                            replayer = Some(Replayer::new(trace, data, None));
                        }
                        let r = replayer.as_mut().expect("created above");
                        r.advance_to(c.after_seq);
                        at_seq = c.after_seq;
                        let h = r.hash_with(&c.lines);
                        let known = memo.lock().expect("memo lock").get(&h).cloned();
                        let verdict = known.unwrap_or_else(|| {
                            let img = log.time("pmexplore.image", request, Some(span), || {
                                r.image_with(&c.lines)
                            });
                            let v = log.time("pmexplore.oracle", request, Some(span), || {
                                oracle.check_opts(
                                    m,
                                    img,
                                    opts.max_recovery_steps,
                                    opts.recovery_watchdog_ms,
                                    None,
                                    opts.tier,
                                    Some(decoded),
                                )
                            });
                            memo.lock().expect("memo lock").insert(h, v.clone());
                            v
                        });
                        if !matches!(verdict, Verdict::Consistent) {
                            *inconsistent.lock().expect("count lock") += 1;
                        }
                    }
                }
                log.end(span);
            });
        }
    });
    log.end(workers);
    log.end(root);
    let counts = Counts {
        instructions: run.steps,
        events: trace.len() as u64,
        candidates: candidates.len(),
        distinct: memo.into_inner().expect("memo lock").len(),
        inconsistent: inconsistent.into_inner().expect("count lock"),
    };
    (counts, root)
}

pub fn run(ctx: &Ctx) -> Measured {
    let ops = inputs::redis_stream(EXPLORE_RECORDS, ctx.seed);
    println!(
        "inputs stream={} ops digest={:016x} budget={EXPLORE_BUDGET} sampler_seed={} jobs={}",
        ops.len(),
        inputs::redis_digest(&ops),
        ctx.seed,
        ctx.cores
    );
    let setup = || {
        let mut m = build(RedisBuild::PmPort).expect("Redis PM port builds");
        let entry = attach_workload(&mut m, "explored", &ops);
        (m, entry)
    };
    let mut setups = Setups::default();
    let (m, entry) = setups.time(|_| setup(), drop);
    let opts = options(ctx);
    let mut out = Measured::default();
    let log = SpanLog::new();
    let mut lat = vec![];
    let mut states = 0usize;
    let mut stats = None;
    let mut report_digest = None;
    let mut traced = vec![];
    let mut gaps = vec![];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    // The closed loop's lateness: from one exploration's end to the next
    // one's start, less the traced decomposition run in between.
    let mut last: Option<(Instant, f64)> = None;
    while Instant::now() < deadline {
        let start = Instant::now();
        if let Some((prev_end, traced_ms)) = last {
            gaps.push((start - prev_end).as_secs_f64() * 1e3 - traced_ms);
        }
        let x = pmexplore::run_and_explore(&m, &entry, &opts);
        let end = Instant::now();
        lat.push((end - start).as_secs_f64() * 1e3);
        out.attempted += 1;
        let ok = match x {
            Ok(x) => {
                states += x.report.stats.candidates;
                let digest = fnv1a(x.report.render().as_bytes());
                let same = *report_digest.get_or_insert(digest) == digest;
                stats = Some(x.report.stats.clone());
                same && x.report.is_clean() && x.report.diagnostics.is_empty()
            }
            Err(_) => false,
        };
        out.failed += u64::from(!ok);
        let mut traced_ms = 0.0;
        if ctx.trace {
            let request = traced.len() as u64;
            let (c, root) = decomposed(&m, &entry, &opts, &log, request);
            traced_ms = log.duration_ms(root);
            traced.push((c, root));
        }
        last = Some((end, traced_ms));
    }

    drop(setups.time(|_| setup(), drop));
    let setup_s = setups.median_s();

    let n = lat.len();
    let states_per_s = states as f64 / (lat.iter().sum::<f64>() / 1e3);
    let tail_q = tail_quantile(n);
    let stats = stats.unwrap_or_default();
    println!(
        "metrics ({n} explorations, closed loop, 1 in flight, jobs={}, report digest {:016x})",
        ctx.cores,
        report_digest.unwrap_or(0)
    );
    say("explore_states_per_s", states_per_s, "1/s");
    say("exploration_p50_ms", median(&lat), "ms");
    say(
        &format!("exploration_p{:.0}_ms", tail_q * 100.0),
        quantile(&lat, tail_q),
        "ms",
    );
    say("candidates", stats.candidates as f64, "count");
    say("distinct_states", stats.distinct_states as f64, "count");
    say("setup_s", setup_s, "s");
    if !ctx.trace {
        out.set("throughput_per_s", states_per_s);
        out.set("setup_s", setup_s);
        return out;
    }

    for (i, (c, _)) in traced.iter().enumerate() {
        out.check(
            c.candidates == stats.candidates
                && c.distinct == stats.distinct_states
                && c.inconsistent == stats.inconsistent,
            || {
                format!(
                    "decomposed exploration {i}: {} candidates / {} distinct / {} inconsistent, \
                     explore: {} / {} / {}",
                    c.candidates,
                    c.distinct,
                    c.inconsistent,
                    stats.candidates,
                    stats.distinct_states,
                    stats.inconsistent
                )
            },
        );
    }
    let selfs = log.self_ms();
    let walls: Vec<f64> = traced
        .iter()
        .map(|(_, root)| log.duration_ms(*root))
        .collect();
    let run_ms = per_request(&selfs, "pmexplore.traced_run");
    let fronts = per_request(&selfs, "pmexplore.frontiers");
    let sample_ms = per_request(&selfs, "pmexplore.sample");
    let workers: Vec<f64> = (0..traced.len())
        .map(|i| walls[i] - run_ms[i] - fronts[i] - sample_ms[i])
        .collect();
    let serial: Vec<f64> = (0..traced.len())
        .map(|i| (run_ms[i] + fronts[i] + sample_ms[i]) / walls[i])
        .collect();
    let (c, _) = &traced[0];
    let instr = c.instructions as f64;
    out.set("pmvm.traced_run_ms", median(&run_ms));
    out.set("pmvm.instructions", instr);
    out.set("pmvm.ns_per_instr", median(&run_ms) * 1e6 / instr);
    out.set("pmtrace.events", c.events as f64);
    out.set("pmexplore.traced_run_ms", median(&run_ms));
    out.set("pmexplore.frontiers_ms", median(&fronts));
    out.set("pmexplore.sample_ms", median(&sample_ms));
    out.set("pmexplore.workers_ms", median(&workers));
    out.set(
        "pmexplore.image_ms",
        median(&per_request(&selfs, "pmexplore.image")),
    );
    out.set(
        "pmexplore.oracle_ms",
        median(&per_request(&selfs, "pmexplore.oracle")),
    );
    out.set("pmexplore.candidates", c.candidates as f64);
    out.set(
        "pmexplore.distinct_ratio",
        c.distinct as f64 / c.candidates as f64,
    );
    out.set("pmexplore.serial_share", median(&serial));
    out.set("bench.gen_late_p99_ms", quantile(&gaps, 0.99));
    out.set("bench.trace_overhead", median(&walls) / median(&lat));
    out.set(
        "bench.unattributed_ms",
        median(&per_request(&selfs, "explore")),
    );
    if let Err(e) = log.write_jsonl(&ctx.spans_path) {
        out.check(false, || format!("writing spans: {e}"));
    }
    out
}
