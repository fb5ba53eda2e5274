//! `heal-redis`: closed loop, one repair in flight. The paper's §6.3
//! method — a YCSB Load + A calibration stream attached to flush-free
//! Redis, repaired with default options — timed end to end through
//! `Hippocrates::repair_until_clean`.

use crate::inputs::{self, HEAL_RECORDS};
use crate::span::{per_request, SpanId, SpanLog};
use crate::stats::{median, quantile, tail_quantile};
use crate::{say, Ctx, Measured, Setups};
use hippocrates::{Hippocrates, RepairOptions};
use pmapps::redis::{attach_workload, build, RedisBuild, RedisOp};
use pmir::snapshot::digest_hex;
use pmir::Module;
use pmvm::{Vm, VmOptions};
use std::time::Instant;

struct Prepared {
    /// Flush-free Redis with the calibration stream attached.
    flush_free: Module,
    entry: String,
    held_out: Vec<RedisOp>,
    /// `(cycles, output)` of the developer port on the held-out stream.
    pm_port: (u64, Vec<i64>),
}

fn setup(calibration: &[RedisOp], held_out: &[RedisOp]) -> Prepared {
    let mut flush_free = build(RedisBuild::FlushFree).expect("flush-free Redis builds");
    let entry = attach_workload(&mut flush_free, "calibration", calibration);
    let mut pm = build(RedisBuild::PmPort).expect("Redis PM port builds");
    Prepared {
        flush_free,
        entry,
        held_out: held_out.to_vec(),
        pm_port: run_held_out(&mut pm, held_out),
    }
}

/// Runs the held-out stream untraced: `(simulated cycles, output)`.
fn run_held_out(m: &mut Module, ops: &[RedisOp]) -> (u64, Vec<i64>) {
    let entry = attach_workload(m, "held_out", ops);
    let r = Vm::new(VmOptions::bench())
        .run(m, &entry)
        .expect("held-out stream runs");
    (r.stats.cycles, r.output)
}

/// One heal through the public entry point: when it started and ended,
/// its outcome, and the healed module.
fn heal(
    p: &Prepared,
) -> (
    Instant,
    Instant,
    Result<hippocrates::RepairOutcome, String>,
    Module,
) {
    let mut m = p.flush_free.clone();
    let t = Instant::now();
    let out = Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut m, &p.entry)
        .map_err(|e| e.to_string());
    (t, Instant::now(), out, m)
}

/// Per-heal counts of one traced decomposition.
#[derive(Default)]
struct Counts {
    passes: u64,
    instructions: u64,
    events: u64,
    raw_bugs: u64,
    deduped_bugs: u64,
    fixes: u64,
    interproc: u64,
}

/// The heal rebuilt from public calls: traced `Vm::run` → `check_trace`
/// → `repair_once`, repeated until the report is clean. Returns the
/// healed module's digest and the heal's root span.
fn decomposed_heal(p: &Prepared, log: &SpanLog, request: u64, c: &mut Counts) -> (String, SpanId) {
    let opts = RepairOptions::default();
    let engine = Hippocrates::new(opts.clone());
    let vm_opts = VmOptions {
        max_steps: opts.max_steps,
        tier: opts.tier,
        trace: true,
        ..VmOptions::default()
    };
    let mut m = p.flush_free.clone();
    let root = log.begin("heal", request, None);
    for _ in 0..=opts.max_iterations {
        let run = log.time("pmvm.run", request, Some(root), || {
            Vm::new(vm_opts.clone()).run(&m, &p.entry)
        });
        let mut run = run.expect("calibration stream runs");
        let trace = run.trace.take().expect("tracing was on");
        c.passes += 1;
        c.instructions += run.steps;
        c.events += trace.len() as u64;
        let report = log.time("pmcheck.check_trace", request, Some(root), || {
            pmcheck::check_trace(&trace)
        });
        if c.passes == 1 {
            c.raw_bugs = report.bugs.len() as u64;
            c.deduped_bugs = report.deduped_bugs().len() as u64;
        }
        if report.is_clean() {
            break;
        }
        let summary = log
            .time("core.repair_once", request, Some(root), || {
                engine.repair_once(&mut m, &trace, &report)
            })
            .expect("repair round applies");
        c.fixes += summary.fixes.len() as u64;
        c.interproc += summary.interprocedural_count() as u64;
    }
    log.end(root);
    (digest_hex(&m), root)
}

pub fn run(ctx: &Ctx) -> Measured {
    let calibration = inputs::redis_stream(HEAL_RECORDS, ctx.seed);
    let held_out = inputs::redis_stream(HEAL_RECORDS, ctx.seed + 1);
    println!(
        "inputs calibration={} ops digest={:016x} held_out={} ops digest={:016x}",
        calibration.len(),
        inputs::redis_digest(&calibration),
        held_out.len(),
        inputs::redis_digest(&held_out)
    );
    let mut setups = Setups::default();
    let p = setups.time(|_| setup(&calibration, &held_out), drop);
    let mut out = Measured::default();

    // The reference heal: its digest is what every later heal must
    // reproduce, and its held-out run must match the developer port.
    let (_, _, first, mut healed) = heal(&p);
    let first = first.expect("reference heal succeeds");
    let reference = digest_hex(&healed);
    let (cycles, output) = run_held_out(&mut healed, &p.held_out);
    let cycles_ratio = cycles as f64 / p.pm_port.0 as f64;
    out.check(first.clean && output == p.pm_port.1, || {
        "healed Redis is not clean or prints other output than the PM port on the held-out stream"
            .to_string()
    });

    let log = SpanLog::new();
    let mut lat = vec![];
    let mut traced_wall = vec![];
    let mut gaps = vec![];
    let mut counts = vec![];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    // The closed loop's lateness: from one heal's end to the next one's
    // start, less the traced decomposition run in between.
    let mut last: Option<(Instant, f64)> = None;
    while Instant::now() < deadline {
        let (start, end, outcome, m) = heal(&p);
        if let Some((prev_end, traced_ms)) = last {
            gaps.push((start - prev_end).as_secs_f64() * 1e3 - traced_ms);
        }
        lat.push((end - start).as_secs_f64() * 1e3);
        out.attempted += 1;
        let ok = matches!(&outcome, Ok(o) if o.clean) && digest_hex(&m) == reference;
        out.failed += u64::from(!ok);
        if ctx.trace {
            let mut c = Counts::default();
            let request = counts.len() as u64;
            let (digest, root) = decomposed_heal(&p, &log, request, &mut c);
            out.check(digest == reference, || {
                format!("decomposed heal {request} reached digest {digest}, repair_until_clean {reference}")
            });
            counts.push(c);
            traced_wall.push(log.duration_ms(root));
        }
        last = Some((end, traced_wall.last().copied().unwrap_or(0.0)));
    }

    drop(setups.time(|_| setup(&calibration, &held_out), drop));
    let setup_s = setups.median_s();

    let n = lat.len();
    let heals_per_s = n as f64 / (lat.iter().sum::<f64>() / 1e3);
    let tail_q = tail_quantile(n);
    println!(
        "metrics ({n} heals, closed loop, 1 in flight, cores={})",
        ctx.cores
    );
    say("heals_per_s", heals_per_s, "1/s");
    say("heal_cycles_ratio", cycles_ratio, "ratio");
    say("heal_latency_p50_ms", median(&lat), "ms");
    say(
        &format!("heal_latency_p{:.0}_ms", tail_q * 100.0),
        quantile(&lat, tail_q),
        "ms",
    );
    say("fixes", first.fixes.len() as f64, "count");
    say("setup_s", setup_s, "s");
    if !ctx.trace {
        out.set("throughput_per_s", heals_per_s);
        out.set("setup_s", setup_s);
        return out;
    }

    let selfs = log.self_ms();
    let vm = per_request(&selfs, "pmvm.run");
    let check = per_request(&selfs, "pmcheck.check_trace");
    let once = per_request(&selfs, "core.repair_once");
    let per = |f: &dyn Fn(&Counts) -> u64| -> f64 {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let passes = per(&|c| c.passes);
    let children: Vec<f64> = (0..counts.len())
        .map(|i| vm[i] + check[i] + once.get(i).copied().unwrap_or(0.0))
        .collect();
    let instr_total: u64 = counts.iter().map(|c| c.instructions).sum();
    out.set("pmvm.traced_run_ms", median(&vm));
    out.set("pmvm.instructions", per(&|c| c.instructions) / passes);
    out.set(
        "pmvm.ns_per_instr",
        vm.iter().sum::<f64>() * 1e6 / instr_total as f64,
    );
    out.set("pmtrace.events", per(&|c| c.events) / passes);
    out.set("pmcheck.check_ms", median(&check));
    out.set("pmcheck.raw_bugs", per(&|c| c.raw_bugs));
    out.set(
        "pmcheck.dedup_ratio",
        per(&|c| c.deduped_bugs) / per(&|c| c.raw_bugs),
    );
    out.set("core.repair_once_ms", median(&once));
    out.set("core.detect_passes", passes);
    out.set("core.fixes", per(&|c| c.fixes));
    out.set("core.interproc_fixes", per(&|c| c.interproc));
    out.set("core.tx_ms", median(&lat) - median(&children));
    out.set("core.heal_cycles_ratio", cycles_ratio);
    out.set("bench.gen_late_p99_ms", quantile(&gaps, 0.99));
    out.set("bench.trace_overhead", median(&traced_wall) / median(&lat));
    out.set(
        "bench.unattributed_ms",
        median(&per_request(&selfs, "heal")),
    );
    if let Err(e) = log.write_jsonl(&ctx.spans_path) {
        out.check(false, || format!("writing spans: {e}"));
    }
    out
}
