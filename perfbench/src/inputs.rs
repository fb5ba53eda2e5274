//! Seeded input generation. Every input the program receives is derived
//! from the workload seed here, and each workload's inputs have a digest
//! that the run prints, so two runs can be shown to have measured the
//! same (or different) inputs.

use pmapps::redis::RedisOp;
use pmir::snapshot::fnv1a;
use ycsb::{Generator, KvOp, OpKind, Workload};

/// The seed later performance claims must also hold on. It is never used
/// while tuning the benchmark or a change.
pub const HELD_OUT_SEED: u64 = 90_001;

/// Value length of every SET and RMW, in bytes.
pub const VALUE_LEN: u64 = 64;
/// `heal-redis`: records loaded and YCSB-A operations in the calibration
/// stream (and in the held-out stream).
pub const HEAL_RECORDS: u64 = 800;
/// `explore-redis`: records loaded and YCSB-A operations explored.
pub const EXPLORE_RECORDS: u64 = 50;
/// `explore-redis`: crash states sampled per exploration.
pub const EXPLORE_BUDGET: usize = 1024;
/// `serve-corpus`: offered load, jobs per second.
pub const SERVE_RATE: f64 = 40.0;
/// `serve-corpus`: crash-state budget of explore jobs.
pub const SERVE_EXPLORE_BUDGET: u64 = 256;
/// `serve-corpus`: share of submissions that repeat an earlier spec.
pub const SERVE_REPEAT_SHARE: f64 = 0.3;

/// SplitMix64: a small, fixed generator so inputs never depend on a
/// library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A YCSB Load phase followed by workload A, as Redis operations.
pub fn redis_stream(records: u64, seed: u64) -> Vec<RedisOp> {
    let g = Generator::new(records, records, VALUE_LEN, seed);
    let mut ops = g.load_ops();
    ops.extend(g.run_ops(Workload::A));
    ops.iter().map(to_redis).collect()
}

fn to_redis(op: &KvOp) -> RedisOp {
    let len = VALUE_LEN as i64;
    match op.kind {
        OpKind::Insert | OpKind::Update => RedisOp::set(op.key as i64, len),
        OpKind::Read => RedisOp::get(op.key as i64),
        OpKind::Scan(n) => RedisOp::scan(op.key as i64, n as i64),
        OpKind::ReadModifyWrite => RedisOp::rmw(op.key as i64, len),
    }
}

pub fn redis_digest(ops: &[RedisOp]) -> u64 {
    let mut bytes = Vec::with_capacity(ops.len() * 17);
    for op in ops {
        bytes.push(op.code);
        bytes.extend_from_slice(&op.key.to_le_bytes());
        bytes.extend_from_slice(&op.len.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// What a `serve-corpus` job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Fix,
    Lint,
    Explore,
}

/// One distinct job: a corpus bug, a kind, and a sampler seed. Two equal
/// `JobKey`s are the same spec, so the daemon's result cache may serve
/// the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobKey {
    pub bug: usize,
    pub kind: Kind,
    pub seed: u64,
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is due to be sent, in seconds from the window start.
    pub due_s: f64,
    pub key: JobKey,
    /// Whether this exact spec was submitted earlier in the schedule.
    pub repeat: bool,
}

/// Poisson arrivals at `rate` per second over `seconds`: the arrival
/// count is fixed at `rate × seconds` and the exponential gaps are scaled
/// to fill the window, which is a Poisson process conditioned on its
/// count. The mix is stratified so that every seed offers the same
/// composition in a different order: fresh jobs are dealt from a
/// shuffled deck holding each of `bugs` corpus bugs twice as fix, once
/// as lint and once as explore (~50/25/25 %), and each block of ten
/// arrivals holds three exact repeats of an earlier spec
/// ([`SERVE_REPEAT_SHARE`]).
pub fn serve_schedule(bugs: usize, rate: f64, seconds: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let n = (rate * seconds).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut deck: Vec<(usize, Kind)> = vec![];
    let mut repeats: Vec<bool> = vec![];
    let mut next_seed = std::collections::BTreeMap::new();
    let mut seen: Vec<JobKey> = Vec::new();
    let mut due = 0.0;
    let mut out = Vec::with_capacity(n);
    for gap in &gaps[..n] {
        due += gap * scale;
        if repeats.is_empty() {
            let r = (SERVE_REPEAT_SHARE * 10.0).round() as usize;
            repeats = (0..10).map(|i| i < r).collect();
            shuffle(&mut repeats, &mut rng);
        }
        let repeat = repeats.pop().expect("refilled above") && !seen.is_empty();
        let key = if repeat {
            seen[rng.below(seen.len())]
        } else {
            if deck.is_empty() {
                deck = (0..bugs)
                    .flat_map(|b| {
                        [
                            (b, Kind::Fix),
                            (b, Kind::Fix),
                            (b, Kind::Lint),
                            (b, Kind::Explore),
                        ]
                    })
                    .collect();
                shuffle(&mut deck, &mut rng);
            }
            let (bug, kind) = deck.pop().expect("refilled above");
            let s = next_seed.entry((bug, kind)).or_insert(0u64);
            let key = JobKey {
                bug,
                kind,
                seed: *s,
            };
            *s += 1;
            seen.push(key);
            key
        };
        out.push(Arrival {
            due_s: due,
            key,
            repeat,
        });
    }
    out
}

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

pub fn schedule_digest(s: &[Arrival]) -> u64 {
    let mut bytes = Vec::with_capacity(s.len() * 26);
    for a in s {
        bytes.extend_from_slice(&((a.due_s * 1e6).round() as u64).to_le_bytes());
        bytes.extend_from_slice(&(a.key.bug as u64).to_le_bytes());
        bytes.push(a.key.kind as u8);
        bytes.extend_from_slice(&a.key.seed.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The seeding self-test every run performs before measuring: the same
/// seed gives identical inputs and a different seed different ones, for
/// each workload's generator. Returns the failures.
pub fn self_test(seed: u64) -> Vec<String> {
    let mut fails = vec![];
    let other = seed.wrapping_add(1);
    let mut check = |what: &str, same: (u64, u64), diff: u64| {
        if same.0 != same.1 {
            fails.push(format!("{what}: seed {seed} gave two different inputs"));
        }
        if same.0 == diff {
            fails.push(format!(
                "{what}: seeds {seed} and {other} gave the same inputs"
            ));
        }
    };
    for (what, records) in [
        ("heal-redis", HEAL_RECORDS),
        ("explore-redis", EXPLORE_RECORDS),
    ] {
        check(
            what,
            (
                redis_digest(&redis_stream(records, seed)),
                redis_digest(&redis_stream(records, seed)),
            ),
            redis_digest(&redis_stream(records, other)),
        );
    }
    let bugs = bugdb::corpus().len();
    let sched = |s| schedule_digest(&serve_schedule(bugs, SERVE_RATE, 2.0, s));
    check("serve-corpus", (sched(seed), sched(seed)), sched(other));
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        for seed in [0, 1, 7, HELD_OUT_SEED] {
            assert!(self_test(seed).is_empty(), "{:?}", self_test(seed));
        }
    }

    #[test]
    fn schedule_has_its_rate_mix_and_repeats() {
        let s = serve_schedule(23, 100.0, 20.0, 3);
        assert_eq!(s.len(), 2000);
        assert!((s.last().expect("non-empty").due_s - 20.0).abs() < 0.5);
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let share = |p: &dyn Fn(&Arrival) -> bool| {
            s.iter().filter(|a| p(a)).count() as f64 / s.len() as f64
        };
        assert!((share(&|a| a.repeat) - 0.3).abs() < 0.05);
        let fresh = |k: Kind| move |a: &Arrival| !a.repeat && a.key.kind == k;
        assert!((share(&fresh(Kind::Fix)) - 0.35).abs() < 0.05);
        assert!((share(&fresh(Kind::Lint)) - 0.175).abs() < 0.05);
        // A repeat names a spec that was submitted before it.
        for (i, a) in s.iter().enumerate().filter(|(_, a)| a.repeat) {
            assert!(s[..i].iter().any(|b| b.key == a.key));
        }
    }
}
