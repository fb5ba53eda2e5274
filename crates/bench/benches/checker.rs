//! Criterion: durability-checker throughput over recorded traces.

use bench::redisx::to_redis_ops;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pmapps::redis::{attach_workload, build, RedisBuild};
use pmcheck::check_trace;
use pmvm::{Vm, VmOptions};
use std::hint::black_box;
use ycsb::{Generator, Workload};

fn bench_checker(c: &mut Criterion) {
    let mc = pmapps::memcached::build_correct().unwrap();
    let trace = Vm::new(VmOptions::default())
        .run(&mc, pmapps::memcached::ENTRY)
        .unwrap()
        .trace
        .unwrap();
    let buggy = pmapps::memcached::build_buggy("mm-2").unwrap();
    let buggy_trace = Vm::new(VmOptions::default())
        .run(&buggy, pmapps::memcached::ENTRY)
        .unwrap()
        .trace
        .unwrap();
    // Flush-free Redis under a YCSB Load + A stream: thousands of fences,
    // no flushes, and every store still live at each fence.
    let stream = Generator::new(800, 800, 64, 1);
    let mut ops = to_redis_ops(&stream.load_ops(), 64);
    ops.extend(to_redis_ops(&stream.run_ops(Workload::A), 64));
    let mut redis = build(RedisBuild::FlushFree).unwrap();
    let entry = attach_workload(&mut redis, "bench", &ops);
    let redis_trace = Vm::new(VmOptions::default())
        .run(&redis, &entry)
        .unwrap()
        .trace
        .unwrap();

    let mut g = c.benchmark_group("checker");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("clean_trace", |b| b.iter(|| check_trace(black_box(&trace))));
    g.throughput(Throughput::Elements(buggy_trace.len() as u64));
    g.bench_function("buggy_trace", |b| {
        b.iter(|| check_trace(black_box(&buggy_trace)))
    });
    g.bench_function("trace_json_roundtrip", |b| {
        b.iter(|| {
            let json = black_box(&trace).to_json().unwrap();
            pmtrace::Trace::from_json(&json).unwrap()
        })
    });
    g.throughput(Throughput::Elements(redis_trace.len() as u64));
    g.bench_function("flush_free_redis", |b| {
        b.iter(|| check_trace(black_box(&redis_trace)))
    });
    g.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
