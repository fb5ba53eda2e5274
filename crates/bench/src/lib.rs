//! `bench` — harnesses that regenerate every table and figure of the paper.
//!
//! Each binary prints one artifact:
//!
//! | Binary              | Paper artifact |
//! |---------------------|----------------|
//! | `fig1_bug_study`    | Fig. 1 — the 26-issue bug study |
//! | `fig3_accuracy`     | Fig. 3 — Hippocrates vs. developer fixes |
//! | `effectiveness`     | §6.1 — all 23 corpus bugs detected → fixed → re-verified clean |
//! | `fig4_redis_ycsb`   | Fig. 4 — YCSB throughput of Redis-pm / RedisH-intra / RedisH-full |
//! | `fig5_overhead`     | Fig. 5 — offline overhead (KLOC, time, memory) |
//! | `code_size`         | §6.4 — IR growth of the repaired Redis |
//! | `ablation_reuse`    | §6.4 — subprogram reuse vs. fresh clones |
//! | `ablation_cost_model` | DESIGN.md — fence/flush latency sensitivity of Fig. 4 |
//! | `explore_bench`     | `BENCH_explore.json` — exploration states/sec + coverage vs. crashpoint sampling |
//! | `fault_bench`       | `BENCH_fault.json` — fault-archetype pass rate + injection-layer overhead |
//! | `tx_bench`          | `BENCH_tx.json` — repair-transaction journal/replay/rollback cost |
//! | `opt_bench`         | `BENCH_opt.json` — repaired-then-optimized Redis beats naively-repaired on YCSB |
//! | `bench_gate`        | CI regression gate over the checked-in `crates/bench/baselines/` |
//!
//! Every binary emits its headline numbers as a `hippo.metrics.v1`
//! snapshot (`BENCH_*.json`), honors the common `--out <path>` flag
//! (default: the workspace root, wherever the binary is launched from),
//! and the gate compares the gated artifacts against their baselines —
//! see [`out`] and [`gate`].
//!
//! Criterion micro-benchmarks live under `benches/`.

pub mod gate;
pub mod out;
pub mod redisx;
pub mod stats;
pub mod table;

pub use out::{out_path, positional_args, workspace_root, write_metrics};
pub use redisx::{build_redis_variants, measure_workload, RedisVariants, WorkloadResult};
pub use stats::{mean_ci95, median_wall, vm_hwm_kb, REPEATS};
pub use table::Table;

/// The simulated CPU frequency used to convert cycles to wall-clock
/// throughput: the paper's testbed is an Intel Xeon Gold 6230 @ 2.10 GHz.
pub const SIM_HZ: f64 = 2.1e9;

/// Converts `(ops, cycles)` to operations per simulated second.
pub fn throughput(ops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    ops as f64 / (cycles as f64 / SIM_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        // 1000 ops in 2.1e6 cycles = 1 ms -> 1M ops/s.
        let t = throughput(1000, 2_100_000);
        assert!((t - 1_000_000.0).abs() < 1.0);
        assert_eq!(throughput(10, 0), 0.0);
    }
}
