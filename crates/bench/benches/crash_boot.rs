//! Criterion: one crash state of the Redis PM port, materialized and booted.
//!
//! The explorer's per-state cost on a large pool: `Replayer::image_with`
//! builds the crash image of a 16 MiB pool (`pmem_map(300, 16777216)`) and
//! `Oracle::check_opts` boots `redis_recover` on it. Pool pages are
//! copy-on-write, so both should scale with the pages written, not with
//! the pool size.

use bench::redisx::to_redis_ops;
use criterion::{criterion_group, criterion_main, Criterion};
use pmapps::redis::{attach_workload, build, RedisBuild, RECOVER};
use pmexplore::{frontiers, ExploreOptions, Oracle, Replayer, Verdict};
use pmvm::{DecodedModule, Vm, VmOptions};
use std::hint::black_box;
use ycsb::{Generator, Workload};

fn bench_crash_boot(c: &mut Criterion) {
    let stream = Generator::new(50, 50, 64, 1);
    let mut ops = to_redis_ops(&stream.load_ops(), 64);
    ops.extend(to_redis_ops(&stream.run_ops(Workload::A), 64));
    let mut redis = build(RedisBuild::PmPort).unwrap();
    let entry = attach_workload(&mut redis, "bench", &ops);
    let run = Vm::new(VmOptions::default().capture_pm_data())
        .run(&redis, &entry)
        .unwrap();
    let trace = run.trace.unwrap();
    let data = run.pm_data.unwrap();
    // The frontier with the most dirty lines, all of them persisted: the
    // widest overlay this stream offers.
    let front = frontiers(&trace, &data, None)
        .into_iter()
        .max_by_key(|f| f.dirty.len())
        .unwrap();
    let mut replayer = Replayer::new(&trace, &data, None);
    replayer.advance_to(front.after_seq);
    let oracle = Oracle::returns_zero(RECOVER);
    let opts = ExploreOptions::default();
    let decoded = DecodedModule::decode(&redis);
    let boot = |img| {
        oracle.check_opts(
            &redis,
            img,
            opts.max_recovery_steps,
            None,
            None,
            opts.tier,
            Some(&decoded),
        )
    };
    assert_eq!(boot(replayer.image_with(&front.dirty)), Verdict::Consistent);

    let mut g = c.benchmark_group("crash_boot");
    g.bench_function("redis_image_with", |b| {
        b.iter(|| replayer.image_with(black_box(&front.dirty)))
    });
    g.bench_function("redis_image_and_recover", |b| {
        b.iter(|| boot(replayer.image_with(black_box(&front.dirty))))
    });
    g.finish();
}

criterion_group!(benches, bench_crash_boot);
criterion_main!(benches);
