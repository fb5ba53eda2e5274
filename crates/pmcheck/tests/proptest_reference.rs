//! Differential property test: the production checker produces exactly the
//! report of an independent, naive reference implementation of the
//! durability state machine on random event streams.

use pmcheck::bug::RedundantFlush;
use pmcheck::{check_trace, Bug, BugKind, CheckReport, Checkpoint, OnlineChecker};
use pmtrace::{Event, EventKind, FenceKind, FlushKind, Frame, IrRef, Trace, TraceLoc};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PM: u64 = 0x3000_0000_0000;
/// Lines a store may start on; flushes target the same lines.
const LINES: u8 = 8;
/// Past every line a generated store can reach (start line, offset, length).
const REACH: u8 = LINES + 7;

#[derive(Debug, Clone)]
enum TOp {
    /// A store of `len` bytes at byte `off` of `line`; long ones span 3+
    /// lines.
    Store {
        line: u8,
        off: u8,
        len: u16,
    },
    /// A flush of byte `off` of `line`: CLWB, CLFLUSHOPT or CLFLUSH.
    Flush {
        line: u8,
        off: u8,
        kind: u8,
    },
    /// A weak or strong re-flush of the most recently flushed line, which
    /// is usually still pending.
    Reflush {
        strong: bool,
    },
    Fence,
    CrashPoint,
}

fn op_strategy() -> impl Strategy<Value = TOp> {
    prop_oneof![
        3 => (0u8..LINES, 0u8..64, 1u16..72).prop_map(|(line, off, len)| TOp::Store { line, off, len }),
        1 => (0u8..LINES, 0u8..64, 129u16..320).prop_map(|(line, off, len)| TOp::Store { line, off, len }),
        3 => (0u8..LINES, 0u8..64, 0u8..3).prop_map(|(line, off, kind)| TOp::Flush { line, off, kind }),
        2 => any::<bool>().prop_map(|strong| TOp::Reflush { strong }),
        3 => Just(TOp::Fence),
        1 => Just(TOp::CrashPoint),
    ]
}

fn flush_kind(kind: u8) -> FlushKind {
    match kind {
        0 => FlushKind::Clwb,
        1 => FlushKind::ClflushOpt,
        _ => FlushKind::Clflush,
    }
}

/// A distinct instruction, location and call stack for event `i`, so the
/// comparison also covers which store each report's cloned fields came from.
fn event(i: u64, kind: EventKind) -> Event {
    let depth = i % 3;
    Event {
        seq: 3 * i + 1,
        kind,
        at: Some(IrRef {
            function: format!("f{}", i % 5).into(),
            inst: i as u32,
        }),
        loc: (i % 4 != 3).then(|| TraceLoc {
            file: "prop.pmc".into(),
            line: i as u32 + 1,
            col: (i % 7) as u32,
        }),
        stack: (0..=depth)
            .map(|d| Frame {
                function: format!("f{}", (i + d) % 5).into(),
                call_inst: (d > 0).then_some((i + d) as u32),
                loc: None,
            })
            .collect(),
    }
}

fn to_trace(ops: &[TOp]) -> Trace {
    let mut t = Trace::new();
    let mut last_flushed = 0;
    for op in ops {
        let kind = match *op {
            TOp::Store { line, off, len } => EventKind::Store {
                addr: PM + u64::from(line) * 64 + u64::from(off),
                len: u64::from(len),
            },
            TOp::Flush { line, off, kind } => {
                last_flushed = PM + u64::from(line) * 64 + u64::from(off);
                EventKind::Flush {
                    kind: flush_kind(kind),
                    addr: last_flushed,
                }
            }
            TOp::Reflush { strong } => EventKind::Flush {
                kind: if strong {
                    FlushKind::Clflush
                } else {
                    FlushKind::Clwb
                },
                addr: last_flushed,
            },
            TOp::Fence => EventKind::Fence {
                kind: FenceKind::Sfence,
            },
            TOp::CrashPoint => EventKind::CrashPoint,
        };
        t.push(event(t.len() as u64, kind));
    }
    t.push(event(t.len() as u64, EventKind::ProgramEnd));
    t
}

/// The reference: every live store in one `Vec`, scanned in full by every
/// flush and fence, each store's event cloned on arrival.
fn reference(trace: &Trace) -> CheckReport {
    struct St {
        event: Event,
        addr: u64,
        len: u64,
        unflushed: BTreeSet<u64>,
        pending: BTreeSet<u64>,
    }
    let durable = |st: &St| st.unflushed.is_empty() && st.pending.is_empty();
    let audit = |live: &[St], checkpoint, last_fence: Option<u64>, report: &mut CheckReport| {
        for st in live {
            let kind = if st.unflushed.is_empty() {
                BugKind::MissingFence
            } else if last_fence.is_some_and(|f| f > st.event.seq) {
                BugKind::MissingFlush
            } else {
                BugKind::MissingFlushFence
            };
            report.bugs.push(Bug {
                kind,
                addr: st.addr,
                len: st.len,
                store_at: st.event.at.clone(),
                store_loc: st.event.loc.clone(),
                stack: st.event.stack.clone(),
                store_seq: st.event.seq,
                checkpoint,
                unflushed_lines: st.unflushed.iter().copied().collect(),
            });
        }
    };
    let mut report = CheckReport::default();
    let mut live: Vec<St> = vec![];
    let mut last_fence = None;
    let mut crash_points = 0;
    for e in &trace.events {
        match e.kind {
            EventKind::Store { addr, len } => {
                report.stores_checked += 1;
                let first = addr / 64 * 64;
                live.push(St {
                    event: e.clone(),
                    addr,
                    len,
                    unflushed: (first..addr + len.max(1)).step_by(64).collect(),
                    pending: BTreeSet::new(),
                });
            }
            EventKind::Flush { kind, addr } => {
                report.flushes_seen += 1;
                let line = addr / 64 * 64;
                let weak = !matches!(kind, FlushKind::Clflush);
                let mut hit = false;
                for st in &mut live {
                    if st.unflushed.remove(&line) {
                        hit = true;
                        if weak {
                            st.pending.insert(line);
                        }
                    } else if st.pending.contains(&line) {
                        hit = true;
                        if !weak {
                            st.pending.remove(&line);
                        }
                    }
                }
                if !hit {
                    report.redundant_flushes.push(RedundantFlush {
                        addr,
                        at: e.at.clone(),
                        loc: e.loc.clone(),
                        seq: e.seq,
                    });
                }
                live.retain(|st| !durable(st));
            }
            EventKind::Fence { .. } => {
                report.fences_seen += 1;
                last_fence = Some(e.seq);
                for st in &mut live {
                    st.pending.clear();
                }
                live.retain(|st| !durable(st));
            }
            EventKind::CrashPoint => {
                crash_points += 1;
                audit(
                    &live,
                    Checkpoint::CrashPoint(crash_points),
                    last_fence,
                    &mut report,
                );
            }
            EventKind::ProgramEnd => audit(&live, Checkpoint::ProgramEnd, last_fence, &mut report),
            EventKind::RegisterPool { .. } => {}
        }
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checker_matches_reference(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let trace = to_trace(&ops);
        let want = reference(&trace);
        prop_assert_eq!(&check_trace(&trace), &want, "ops: {:?}", ops);
        let mut online = OnlineChecker::new();
        for e in &trace.events {
            online.feed(e);
        }
        prop_assert_eq!(online.finish(), want, "ops: {:?}", ops);
    }

    /// Appending a full persist (flush every line + fence) before program
    /// end removes every program-end report.
    #[test]
    fn trailing_persist_silences_end_reports(
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let mut fixed = ops.clone();
        for line in 0..REACH {
            fixed.push(TOp::Flush { line, off: 0, kind: 0 });
        }
        fixed.push(TOp::Fence);
        let report = check_trace(&to_trace(&fixed));
        let end_bugs = report
            .bugs
            .iter()
            .filter(|b| matches!(b.checkpoint, Checkpoint::ProgramEnd))
            .count();
        prop_assert_eq!(end_bugs, 0, "{}", report.render());
    }
}
