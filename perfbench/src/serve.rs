//! `serve-corpus`: open loop against an in-process `hippod` on a Unix
//! socket, with a write-ahead journal, `workers` = cores and the default
//! warm cache. One generator thread holds two connections — one submits
//! on a seeded Poisson schedule, one polls — and times every job from
//! when it was due to be sent to when it is first seen terminal.
//!
//! The jobs are the 23 `bugdb` corpus bugs as textual IR with their entry
//! points: ~50 % fix, ~25 % lint, ~25 % explore, ~30 % exact repeats.
//! Every `Done` artifact is compared byte for byte with a standalone
//! `hippod::execute` reference built before the window opens.

use crate::inputs::{self, Arrival, JobKey, Kind, SERVE_EXPLORE_BUDGET, SERVE_RATE};
use crate::span::{per_request, SpanLog};
use crate::stats::{median, quantile, tail_quantile};
use crate::{say, Ctx, Measured, Setups};
use bugdb::Target;
use hippocrates::WarmCache;
use hippod::{Client, JobKind, JobSpec, JobState, ServerConfig, Submitted};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job finishing later than this after its due time is a missed
/// deadline: an error, and not goodput.
const DEADLINE_MS: f64 = 500.0;
/// How long after the last arrival the generator waits for stragglers.
const DRAIN_S: f64 = 30.0;
/// Health (queue depth) sampling period.
const HEALTH_EVERY_S: f64 = 0.05;
/// Pause after a poll sweep that found nothing new.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// A run whose queue depth grows by more than this between the two
/// halves of its last quarter is invalid: the daemon fell behind the
/// offered load, and its latencies would measure the backlog.
const BACKLOG_GROWTH: f64 = 2.0;

/// One corpus bug as a job source.
struct Source {
    id: &'static str,
    entry: String,
    ir: String,
}

fn compile_corpus() -> Vec<Source> {
    bugdb::corpus()
        .into_iter()
        .map(|bug| {
            let (m, entry) = match bug.target {
                Target::Pmdk => (minipmdk::build_buggy(bug.id), minipmdk::entry_for(bug.id)),
                Target::Pclht => (
                    pmapps::pclht::build_buggy(bug.id),
                    pmapps::pclht::ENTRY.to_string(),
                ),
                Target::Memcached => (
                    pmapps::memcached::build_buggy(bug.id),
                    pmapps::memcached::ENTRY.to_string(),
                ),
            };
            Source {
                id: bug.id,
                entry,
                ir: pmir::display::print_module(&m.expect("corpus bug compiles")),
            }
        })
        .collect()
}

fn spec(corpus: &[Source], key: JobKey) -> JobSpec {
    let src = &corpus[key.bug];
    let kind = match key.kind {
        Kind::Fix => JobKind::Fix,
        Kind::Lint => JobKind::Lint,
        Kind::Explore => JobKind::Explore,
    };
    let mut spec = JobSpec::new(kind, vec![(format!("{}.ir", src.id), src.ir.clone())]);
    spec.entry = src.entry.clone();
    spec.budget = SERVE_EXPLORE_BUDGET;
    spec.seed = key.seed;
    spec
}

/// A running daemon and the thread that serves it.
struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<Result<hippod::ServeReport, String>>,
}

fn start_daemon(dir: &Path, workers: usize) -> Daemon {
    std::fs::create_dir_all(dir).expect("create the daemon directory");
    let socket = dir.join("d.sock");
    let (tx, rx) = std::sync::mpsc::channel();
    let config = ServerConfig {
        socket: socket.clone(),
        journal: Some(dir.join("jobs.journal")),
        workers,
        ready: Some(tx),
        ..ServerConfig::default()
    };
    let thread = std::thread::spawn(move || hippod::serve(config));
    rx.recv_timeout(Duration::from_secs(30))
        .expect("daemon reports ready");
    Daemon { socket, thread }
}

fn stop_daemon(d: Daemon) {
    Client::connect(&d.socket)
        .and_then(|mut c| c.shutdown())
        .expect("daemon accepts shutdown");
    d.thread
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

/// What the reference and the daemon must agree on.
type Artifact = (String, String, bool);

/// Standalone references for every distinct spec, computed on `cores`
/// threads, each with a fresh (empty) cache. Also times each `execute`
/// and, when tracing, the parse / static-check / alias calls a job of
/// that kind makes.
fn references(
    corpus: &[Source],
    keys: &[JobKey],
    cores: usize,
    log: Option<&SpanLog>,
) -> BTreeMap<JobKey, (Result<Artifact, String>, f64)> {
    let next = Mutex::new(0usize);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("index lock");
                    *n += 1;
                    *n - 1
                };
                let Some(&key) = keys.get(i) else { break };
                let spec = spec(corpus, key);
                let t = Instant::now();
                let r = hippod::execute(&spec, &WarmCache::default(), &pmobs::Obs::disabled())
                    .map(|r| (r.output, r.summary, r.clean));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some(log) = log {
                    layer_calls(log, i as u64, &corpus[key.bug], key.kind);
                }
                out.lock().expect("reference lock").insert(key, (r, ms));
            });
        }
    });
    out.into_inner().expect("reference lock")
}

/// The per-module layers a job reaches, called directly so the traced
/// run can time them: `parse_module` for every job, `check_module` for a
/// lint, `AliasAnalysis::analyze` for a fix.
fn layer_calls(log: &SpanLog, request: u64, src: &Source, kind: Kind) {
    let m = log
        .time("pmir.parse", request, None, || {
            pmir::parse::parse_module(&src.ir)
        })
        .expect("corpus IR parses");
    match kind {
        Kind::Lint => {
            let r = log.time("pmstatic.check", request, None, || {
                pmstatic::check_module(&m, &src.entry)
            });
            r.expect("corpus bug lints");
        }
        Kind::Fix => {
            let aa = log.time("pmalias.analyze", request, None, || {
                pmalias::AliasAnalysis::analyze(&m)
            });
            std::hint::black_box(aa);
        }
        Kind::Explore => {}
    }
}

/// Outcome of one job in the window.
struct JobOutcome {
    latency_ms: f64,
    submit_ms: f64,
    ok: bool,
    cached: bool,
}

/// What one pass over the schedule measured.
struct Pass {
    jobs: Vec<Option<JobOutcome>>,
    late_ms: Vec<f64>,
    busy: u64,
    /// `(seconds since window start, queued)` samples.
    queued: Vec<(f64, u64)>,
    health: hippod::Health,
    /// From the window's start until the last job was seen terminal.
    wall_s: f64,
}

/// Drives one schedule against the daemon at `socket`.
fn drive(
    socket: &Path,
    schedule: &[Arrival],
    corpus: &[Source],
    refs: &BTreeMap<JobKey, (Result<Artifact, String>, f64)>,
    log: Option<&SpanLog>,
) -> Pass {
    const WINDOW: u64 = u64::MAX;
    let mut sub = Client::connect(socket).expect("submit connection");
    let mut poll = Client::connect(socket).expect("poll connection");
    let root = log.map(|l| l.begin("serve.window", WINDOW, None));
    let span = |name: &'static str, request: u64, f: &mut dyn FnMut()| match log {
        Some(l) => l.time(name, request, root, f),
        None => f(),
    };
    let mut jobs: Vec<Option<JobOutcome>> = schedule.iter().map(|_| None).collect();
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut busy = 0;
    let mut queued = vec![];
    let last_due = schedule.last().map_or(0.0, |a| a.due_s);
    let start = Instant::now();
    let mut next = 0;
    let mut next_health = 0.0;
    let mut outstanding: VecDeque<(usize, String, f64)> = VecDeque::new();
    let mut swept = 0;
    loop {
        let now = start.elapsed().as_secs_f64();
        if next < schedule.len() && schedule[next].due_s <= now {
            let due = schedule[next].due_s;
            late_ms.push((now - due) * 1e3);
            let mut job = Some(spec(corpus, schedule[next].key));
            let t = Instant::now();
            let mut r = None;
            span("hippod.submit", next as u64, &mut || {
                r = job.take().map(|j| sub.submit(j))
            });
            let submit_ms = t.elapsed().as_secs_f64() * 1e3;
            match r.expect("submitted") {
                Ok(Submitted::Accepted(id)) => outstanding.push_back((next, id, submit_ms)),
                Ok(Submitted::Busy(_)) => busy += 1,
                Err(e) => eprintln!("submit {next} refused: {e}"),
            }
            next += 1;
            continue;
        }
        if next == schedule.len() && outstanding.is_empty() {
            break;
        }
        if now > last_due + DRAIN_S {
            break;
        }
        if now >= next_health {
            let mut h = None;
            span("hippod.health", WINDOW, &mut || h = Some(poll.health()));
            let h = h.expect("polled").expect("daemon answers health");
            queued.push((now, h.queued));
            next_health = now + HEALTH_EVERY_S;
            continue;
        }
        if let Some((idx, id, submit_ms)) = outstanding.pop_front() {
            let mut v = None;
            span("hippod.status", idx as u64, &mut || {
                v = Some(poll.status(&id))
            });
            let view = v.expect("polled").expect("daemon answers status");
            if view.state.is_terminal() {
                let latency_ms = (start.elapsed().as_secs_f64() - schedule[idx].due_s) * 1e3;
                let key = schedule[idx].key;
                let ok = view.state == JobState::Done
                    && match (&view.result, &refs[&key].0) {
                        (Some(r), Ok(reference)) => {
                            (&r.output, &r.summary, r.clean)
                                == (&reference.0, &reference.1, reference.2)
                        }
                        _ => false,
                    };
                let cached = view.result.as_ref().is_some_and(|r| r.cached);
                jobs[idx] = Some(JobOutcome {
                    latency_ms,
                    submit_ms,
                    ok,
                    cached,
                });
                swept = 0;
            } else {
                outstanding.push_back((idx, id, submit_ms));
                swept += 1;
            }
            if swept < outstanding.len() {
                continue;
            }
        }
        swept = 0;
        span("bench.pause", WINDOW, &mut || {
            std::thread::sleep(POLL_PAUSE)
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(l), Some(root)) = (log, root) {
        l.end(root);
    }
    Pass {
        wall_s,
        jobs,
        late_ms,
        busy,
        queued,
        health: poll.health().expect("daemon answers health"),
    }
}

/// Whether the queue depth kept growing through the last quarter of the
/// window: the mean depth of its second half exceeds that of its first
/// half by more than [`BACKLOG_GROWTH`] jobs.
fn backlog_growing(queued: &[(f64, u64)], window_s: f64) -> bool {
    let mean = |lo: f64, hi: f64| {
        let v: Vec<f64> = queued
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|(_, q)| *q as f64)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let q = window_s / 4.0;
    mean(3.5 * q, 4.0 * q) - mean(3.0 * q, 3.5 * q) > BACKLOG_GROWTH
}

pub fn run(ctx: &Ctx) -> Measured {
    let bugs = bugdb::corpus().len();
    let schedule = inputs::serve_schedule(bugs, SERVE_RATE, ctx.seconds, ctx.seed);
    let repeats = schedule.iter().filter(|a| a.repeat).count();
    println!(
        "inputs jobs={} rate={}/s repeats={repeats} digest={:016x} explore_budget={SERVE_EXPLORE_BUDGET} workers={}",
        schedule.len(),
        SERVE_RATE,
        inputs::schedule_digest(&schedule),
        ctx.cores
    );
    // Each set-up compiles the corpus, starts a daemon and waits until it
    // listens; the last one before the window serves it.
    let setup = |i: usize| {
        let corpus = compile_corpus();
        (
            corpus,
            start_daemon(&ctx.run_dir.join(format!("setup{i}")), ctx.cores),
        )
    };
    let mut setups = Setups::default();
    let (corpus, daemon) = setups.time(setup, |(_, d)| stop_daemon(d));
    let mut daemon = Some(daemon);
    let mut keys: Vec<JobKey> = schedule
        .iter()
        .filter(|a| !a.repeat)
        .map(|a| a.key)
        .collect();
    keys.sort();
    keys.dedup();
    let log = SpanLog::new();
    let t = Instant::now();
    let refs = references(&corpus, &keys, ctx.cores, ctx.trace.then_some(&log));
    println!(
        "references {} distinct specs built in {:.2}s",
        keys.len(),
        t.elapsed().as_secs_f64()
    );
    let mut out = Measured::default();
    out.check(refs.values().all(|(r, _)| r.is_ok()), || {
        "a standalone reference job failed".to_string()
    });

    let untraced = if ctx.trace {
        let d = daemon.take().expect("daemon");
        let pass = drive(&d.socket, &schedule, &corpus, &refs, None);
        stop_daemon(d);
        daemon = Some(start_daemon(&ctx.run_dir.join("traced"), ctx.cores));
        Some(pass)
    } else {
        None
    };
    let d = daemon.take().expect("daemon");
    let pass = drive(
        &d.socket,
        &schedule,
        &corpus,
        &refs,
        ctx.trace.then_some(&log),
    );
    stop_daemon(d);
    let (_, d) = setups.time(setup, |(_, d)| stop_daemon(d));
    stop_daemon(d);
    let setup_s = setups.median_s();

    let lat: Vec<f64> = pass.jobs.iter().flatten().map(|j| j.latency_ms).collect();
    let good = pass
        .jobs
        .iter()
        .flatten()
        .filter(|j| j.ok && j.latency_ms <= DEADLINE_MS)
        .count();
    out.attempted = schedule.len() as u64;
    out.failed = out.attempted - good as u64;
    let goodput = good as f64 / pass.wall_s;
    let tail_q = tail_quantile(lat.len());
    let hits = pass.health.cache_hits as f64;
    let hit_ratio = hits / (hits + pass.health.cache_misses as f64).max(1.0);
    let invalid = backlog_growing(&pass.queued, ctx.seconds);
    println!(
        "metrics ({} jobs, open loop at {}/s, {good} good, {} busy, cores={})",
        lat.len(),
        SERVE_RATE,
        pass.busy,
        ctx.cores
    );
    say("serve_p50_ms", median(&lat), "ms");
    say(
        &format!("serve_p{:.0}_ms", tail_q * 100.0),
        quantile(&lat, tail_q),
        "ms",
    );
    say("serve_max_ms", quantile(&lat, 1.0), "ms");
    say("serve_goodput_per_s", goodput, "1/s");
    say("cache_hit_ratio", hit_ratio, "ratio");
    say("gen_late_p99_ms", quantile(&pass.late_ms, 0.99), "ms");
    say("setup_s", setup_s, "s");
    if invalid {
        println!("INVALID: the daemon's queue depth kept growing through the last quarter");
        eprintln!("serve-corpus: run invalid (backlog growing); latencies not reported");
        let _ = std::fs::remove_dir_all(&ctx.run_dir);
        std::process::exit(3);
    }
    if !ctx.trace {
        out.set("throughput_per_s", goodput);
        out.set("setup_s", setup_s);
        return out;
    }

    let exec_of = |kind: Kind| -> Vec<f64> {
        refs.iter()
            .filter(|(k, _)| k.kind == kind)
            .map(|(_, (_, ms))| *ms)
            .collect()
    };
    let waits: Vec<f64> = pass
        .jobs
        .iter()
        .enumerate()
        .filter_map(|(i, j)| {
            let j = j.as_ref()?;
            let exec = if j.cached {
                0.0
            } else {
                refs[&schedule[i].key].1
            };
            Some(j.latency_ms - j.submit_ms - exec)
        })
        .collect();
    let submits: Vec<f64> = pass.jobs.iter().flatten().map(|j| j.submit_ms).collect();
    let selfs = log.self_ms();
    let untraced_p50 = median(
        &untraced
            .expect("traced runs make an untraced pass")
            .jobs
            .iter()
            .flatten()
            .map(|j| j.latency_ms)
            .collect::<Vec<_>>(),
    );
    out.set("pmir.parse_ms", median(&per_request(&selfs, "pmir.parse")));
    out.set(
        "pmstatic.check_ms",
        median(&per_request(&selfs, "pmstatic.check")),
    );
    out.set(
        "pmalias.analyze_ms",
        median(&per_request(&selfs, "pmalias.analyze")),
    );
    out.set("hippod.submit_ms", median(&submits));
    out.set("hippod.execute_ms.fix", median(&exec_of(Kind::Fix)));
    out.set("hippod.execute_ms.lint", median(&exec_of(Kind::Lint)));
    out.set("hippod.execute_ms.explore", median(&exec_of(Kind::Explore)));
    out.set("hippod.queue_wait_ms", median(&waits));
    out.set("hippod.cache_hit_ratio", hit_ratio);
    out.set("hippod.busy", pass.busy as f64);
    out.set("bench.gen_late_p99_ms", quantile(&pass.late_ms, 0.99));
    out.set("bench.trace_overhead", median(&lat) / untraced_p50);
    out.set(
        "bench.unattributed_ms",
        median(&per_request(&selfs, "serve.window")),
    );
    if let Err(e) = log.write_jsonl(&ctx.spans_path) {
        out.check(false, || format!("writing spans: {e}"));
    }
    out
}
