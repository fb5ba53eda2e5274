//! The store-state machine over traces.
//!
//! Every non-durable store is kept in an arrival-ordered table and indexed
//! twice: by each cache line it still needs flushed or fenced, and — while
//! it has weakly flushed lines awaiting a fence — in a pending set. A
//! flush therefore touches only the stores on its line and a fence only
//! the stores with pending lines, while a checkpoint audit still reports
//! the live stores in arrival order.

use crate::bug::{Bug, BugKind, CheckReport, Checkpoint, RedundantFlush};
use pmtrace::{Event, EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const CACHE_LINE: u64 = 64;

fn lines_of(addr: u64, len: u64) -> BTreeSet<u64> {
    let mut lines = BTreeSet::new();
    let mut line = addr & !(CACHE_LINE - 1);
    while line < addr + len.max(1) {
        lines.insert(line);
        line += CACHE_LINE;
    }
    lines
}

/// One tracked (not yet durable) store. Its `unflushed` and `pending`
/// lines are disjoint, and together they are exactly the lines under which
/// the line index lists it.
#[derive(Debug)]
struct StoreRecord<'a> {
    event: &'a Event,
    addr: u64,
    len: u64,
    /// Lines not yet covered by any flush.
    unflushed: BTreeSet<u64>,
    /// Lines flushed weakly, awaiting a fence.
    pending: BTreeSet<u64>,
}

impl StoreRecord<'_> {
    fn is_durable(&self) -> bool {
        self.unflushed.is_empty() && self.pending.is_empty()
    }
}

/// Runs the durability state machine over a complete trace and reports
/// every non-durable store at every checkpoint. See the
/// [crate docs](crate) for the classification rules.
///
/// Equivalent to feeding every event into an [`OnlineChecker`] and calling
/// [`OnlineChecker::finish`].
pub fn check_trace(trace: &Trace) -> CheckReport {
    let mut c = OnlineChecker::new();
    for e in &trace.events {
        c.feed(e);
    }
    c.finish()
}

/// The streaming form of the checker: feed events as they happen (e.g.
/// attached live to a VM run), keeping memory proportional to the number of
/// *non-durable* stores rather than the trace length — how the real
/// pmemcheck instrumentations operate.
///
/// The checker borrows each event it is fed and clones an event's fields
/// only when a checkpoint reports its store as a [`Bug`]. Per event, a
/// store costs O(its lines), a flush O(live stores on that line), a fence
/// O(stores with pending lines) and a checkpoint O(live stores).
///
/// # Example
///
/// ```
/// use pmcheck::OnlineChecker;
/// use pmtrace::{Event, EventKind};
///
/// let store = Event {
///     seq: 0,
///     kind: EventKind::Store { addr: 0x3000_0000_0000, len: 8 },
///     at: None,
///     loc: None,
///     stack: vec![].into(),
/// };
/// let end = Event {
///     seq: 1, kind: EventKind::ProgramEnd, at: None, loc: None, stack: vec![].into(),
/// };
/// let mut checker = OnlineChecker::new();
/// checker.feed(&store);
/// checker.feed(&end);
/// let report = checker.finish();
/// assert_eq!(report.bugs.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct OnlineChecker<'a> {
    report: CheckReport,
    /// Live stores by arrival number; iteration order is arrival order.
    live: BTreeMap<u64, StoreRecord<'a>>,
    /// Cache line → live stores with that line unflushed or pending.
    by_line: HashMap<u64, BTreeSet<u64>>,
    /// Live stores with a non-empty `pending` set.
    pending: BTreeSet<u64>,
    next_id: u64,
    last_fence_seq: Option<u64>,
    crash_points: u64,
    /// Store records touched by flushes and fences.
    #[cfg(test)]
    visits: u64,
}

impl<'a> OnlineChecker<'a> {
    /// A fresh checker.
    pub fn new() -> Self {
        OnlineChecker::default()
    }

    /// Number of stores currently tracked as non-durable (the checker's
    /// working-set size).
    pub fn live_stores(&self) -> usize {
        self.live.len()
    }

    /// Processes one event.
    pub fn feed(&mut self, e: &'a Event) {
        match &e.kind {
            EventKind::Store { addr, len } => {
                self.report.stores_checked += 1;
                let id = self.next_id;
                self.next_id += 1;
                let unflushed = lines_of(*addr, *len);
                for &line in &unflushed {
                    self.by_line.entry(line).or_default().insert(id);
                }
                self.live.insert(
                    id,
                    StoreRecord {
                        event: e,
                        addr: *addr,
                        len: *len,
                        unflushed,
                        pending: BTreeSet::new(),
                    },
                );
            }
            EventKind::Flush { kind, addr } => {
                self.report.flushes_seen += 1;
                let line = addr & !(CACHE_LINE - 1);
                let Some(ids) = self.by_line.get_mut(&line) else {
                    self.report.redundant_flushes.push(RedundantFlush {
                        addr: *addr,
                        at: e.at.clone(),
                        loc: e.loc.clone(),
                        seq: e.seq,
                    });
                    return;
                };
                // Every store listed under the line has it unflushed or
                // pending, so the flush is never redundant here.
                ids.retain(|id| {
                    #[cfg(test)]
                    {
                        self.visits += 1;
                    }
                    let rec = self.live.get_mut(id).expect("indexed store is live");
                    if rec.unflushed.remove(&line) {
                        if kind.is_weakly_ordered() {
                            rec.pending.insert(line);
                            self.pending.insert(*id);
                            return true;
                        }
                        // A strong flush (CLFLUSH) makes the line durable
                        // immediately: nothing is added to `pending`.
                    } else if kind.is_weakly_ordered() {
                        // Re-flushing a pending line weakly changes nothing.
                        return true;
                    } else {
                        // A strong re-flush upgrades a pending line to durable.
                        rec.pending.remove(&line);
                        if rec.pending.is_empty() {
                            self.pending.remove(id);
                        }
                    }
                    if rec.is_durable() {
                        self.live.remove(id);
                    }
                    false
                });
                if ids.is_empty() {
                    self.by_line.remove(&line);
                }
            }
            EventKind::Fence { .. } => {
                self.report.fences_seen += 1;
                self.last_fence_seq = Some(e.seq);
                for id in std::mem::take(&mut self.pending) {
                    #[cfg(test)]
                    {
                        self.visits += 1;
                    }
                    let rec = self.live.get_mut(&id).expect("pending store is live");
                    for line in std::mem::take(&mut rec.pending) {
                        let ids = self
                            .by_line
                            .get_mut(&line)
                            .expect("pending line is indexed");
                        ids.remove(&id);
                        if ids.is_empty() {
                            self.by_line.remove(&line);
                        }
                    }
                    if rec.is_durable() {
                        self.live.remove(&id);
                    }
                }
            }
            EventKind::CrashPoint => {
                self.crash_points += 1;
                self.audit(Checkpoint::CrashPoint(self.crash_points));
            }
            EventKind::ProgramEnd => self.audit(Checkpoint::ProgramEnd),
            EventKind::RegisterPool { .. } => {}
        }
    }

    /// Consumes the checker and returns the accumulated report.
    pub fn finish(self) -> CheckReport {
        self.report
    }

    /// Reports every live store, in arrival order.
    fn audit(&mut self, checkpoint: Checkpoint) {
        for rec in self.live.values() {
            debug_assert!(!rec.is_durable());
            let fence_after_store = self.last_fence_seq.is_some_and(|f| f > rec.event.seq);
            let kind = if rec.unflushed.is_empty() {
                // Fully flushed, but some lines still awaiting a fence.
                BugKind::MissingFence
            } else if fence_after_store {
                // A fence exists downstream of the store; only flushes are
                // missing (inserting flushes before that fence would have
                // sufficed). This mirrors pmemcheck's "not flushed" report.
                BugKind::MissingFlush
            } else {
                BugKind::MissingFlushFence
            };
            self.report.bugs.push(Bug {
                kind,
                addr: rec.addr,
                len: rec.len,
                store_at: rec.event.at.clone(),
                store_loc: rec.event.loc.clone(),
                stack: rec.event.stack.clone(),
                store_seq: rec.event.seq,
                checkpoint,
                unflushed_lines: rec.unflushed.iter().copied().collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::{FenceKind, FlushKind};

    const PM: u64 = 0x3000_0000_0000;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            kind,
            at: None,
            loc: None,
            stack: vec![].into(),
        }
    }

    fn store(seq: u64, addr: u64, len: u64) -> Event {
        ev(seq, EventKind::Store { addr, len })
    }

    fn flush(seq: u64, addr: u64) -> Event {
        ev(
            seq,
            EventKind::Flush {
                kind: FlushKind::Clwb,
                addr,
            },
        )
    }

    fn fence(seq: u64) -> Event {
        ev(
            seq,
            EventKind::Fence {
                kind: FenceKind::Sfence,
            },
        )
    }

    fn end(seq: u64) -> Event {
        ev(seq, EventKind::ProgramEnd)
    }

    #[test]
    fn clean_program() {
        let t: Trace = vec![store(0, PM, 8), flush(1, PM), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn missing_flush_and_fence() {
        let t: Trace = vec![store(0, PM, 8), end(1)].into_iter().collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
        assert_eq!(r.bugs[0].unflushed_lines, vec![PM]);
    }

    #[test]
    fn missing_fence_only() {
        let t: Trace = vec![store(0, PM, 8), flush(1, PM), end(2)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFence);
        assert!(r.bugs[0].unflushed_lines.is_empty());
    }

    #[test]
    fn missing_flush_with_downstream_fence() {
        let t: Trace = vec![store(0, PM, 8), fence(1), end(2)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
    }

    #[test]
    fn clflush_is_durable_without_fence() {
        let t: Trace = vec![
            store(0, PM, 8),
            ev(
                1,
                EventKind::Flush {
                    kind: FlushKind::Clflush,
                    addr: PM,
                },
            ),
            end(2),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn multi_line_store_needs_every_line_flushed() {
        // A 100-byte store spans two lines; only the first is flushed.
        let t: Trace = vec![store(0, PM, 100), flush(1, PM), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
        assert_eq!(r.bugs[0].unflushed_lines, vec![PM + 64]);

        // Flushing both lines fixes it.
        let t: Trace = vec![
            store(0, PM, 100),
            flush(1, PM),
            flush(2, PM + 64),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        assert!(check_trace(&t).is_clean());
    }

    #[test]
    fn fence_before_flush_does_not_help() {
        let t: Trace = vec![store(0, PM, 8), fence(1), flush(2, PM), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFence);
    }

    #[test]
    fn crash_point_audits_midway() {
        // Store is durable by the end, but not by the crash point.
        let t: Trace = vec![
            store(0, PM, 8),
            ev(1, EventKind::CrashPoint),
            flush(2, PM),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].checkpoint, Checkpoint::CrashPoint(1));
    }

    #[test]
    fn same_bug_at_two_checkpoints_dedupes() {
        let t: Trace = vec![
            store(0, PM, 8),
            ev(1, EventKind::CrashPoint),
            ev(2, EventKind::CrashPoint),
            end(3),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 3);
        // Each checkpoint is a distinct durability requirement, so all three
        // reports survive dedup; they still reduce to a single fix because
        // they share an anchor.
        assert_eq!(r.deduped_bugs().len(), 3);
    }

    #[test]
    fn redundant_flush_detected() {
        let t: Trace = vec![
            store(0, PM, 8),
            flush(1, PM),
            fence(2),
            flush(3, PM), // line already durable
            end(4),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert!(r.is_clean());
        assert_eq!(r.redundant_flushes.len(), 1);
        assert_eq!(r.redundant_flushes[0].seq, 3);
    }

    #[test]
    fn two_stores_same_line_one_flush() {
        // Both stores' line is covered by one flush; both become durable.
        let t: Trace = vec![
            store(0, PM, 8),
            store(1, PM + 8, 8),
            flush(2, PM + 4),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        assert!(check_trace(&t).is_clean());
    }

    #[test]
    fn flush_before_store_does_not_cover_it() {
        let t: Trace = vec![flush(0, PM), store(1, PM, 8), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
        // And the early flush was redundant.
        assert_eq!(r.redundant_flushes.len(), 1);
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use pmtrace::{FenceKind, FlushKind};

    const PM: u64 = 0x3000_0000_0000;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            kind,
            at: None,
            loc: None,
            stack: vec![].into(),
        }
    }

    fn store(seq: u64, addr: u64, len: u64) -> Event {
        ev(seq, EventKind::Store { addr, len })
    }

    fn flush(seq: u64, kind: FlushKind, addr: u64) -> Event {
        ev(seq, EventKind::Flush { kind, addr })
    }

    fn fence(seq: u64) -> Event {
        ev(
            seq,
            EventKind::Fence {
                kind: FenceKind::Sfence,
            },
        )
    }

    #[test]
    fn working_set_shrinks_as_stores_become_durable() {
        let stores: Vec<Event> = (0..16u64).map(|i| store(i, PM + i * 64, 8)).collect();
        let flushes: Vec<Event> = (0..16u64)
            .map(|i| flush(100 + i, FlushKind::Clwb, PM + i * 64))
            .collect();
        let (fence, end) = (fence(200), ev(201, EventKind::ProgramEnd));
        let mut c = OnlineChecker::new();
        for e in &stores {
            c.feed(e);
        }
        assert_eq!(c.live_stores(), 16);
        for e in &flushes {
            c.feed(e);
        }
        assert_eq!(c.live_stores(), 16, "weak flushes keep stores pending");
        c.feed(&fence);
        assert_eq!(c.live_stores(), 0, "the fence retires everything");
        c.feed(&end);
        assert!(c.finish().is_clean());
    }

    #[test]
    fn fences_with_nothing_pending_visit_no_records() {
        // Flush-free code: every store stays live, and no fence has
        // anything to drain.
        let n = 2_000u64;
        let stores: Vec<Event> = (0..n).map(|i| store(i, PM + (i % 300) * 64, 8)).collect();
        let fences: Vec<Event> = (0..1_000u64).map(|i| fence(n + i)).collect();
        let mut c = OnlineChecker::new();
        for (s, f) in stores.iter().zip(&fences) {
            c.feed(s);
            c.feed(f);
        }
        for e in &stores[fences.len()..] {
            c.feed(e);
        }
        assert_eq!(c.live_stores(), n as usize);
        assert_eq!(c.visits, 0);
    }

    #[test]
    fn flush_visits_only_the_stores_on_its_line() {
        // 3 stores on the target line among 500 elsewhere; one of them
        // also spans the next line.
        let mut stores: Vec<Event> = (0..500u64)
            .map(|i| store(i, PM + 4096 + i * 64, 8))
            .collect();
        stores.push(store(500, PM, 8));
        stores.push(store(501, PM + 8, 8));
        stores.push(store(502, PM + 60, 8));
        let weak = flush(600, FlushKind::Clwb, PM + 4);
        let reflush = flush(601, FlushKind::ClflushOpt, PM);
        let fence = fence(602);
        let mut c = OnlineChecker::new();
        for e in &stores {
            c.feed(e);
        }
        c.feed(&weak);
        assert_eq!(c.visits, 3, "the flush touches only its line's stores");
        c.feed(&reflush);
        assert_eq!(c.visits, 6, "a re-flush of a pending line likewise");
        c.feed(&fence);
        assert_eq!(c.visits, 9, "the fence touches only the pending stores");
        assert_eq!(c.live_stores(), 501, "the line-spanning store is left");
    }

    #[test]
    fn retired_stores_leave_no_index_entries() {
        // Store → flush → fence on many distinct lines, with line-spanning
        // stores and strong flushes mixed in: nothing may stay behind.
        let mut events = vec![];
        for i in 0..1_000u64 {
            let addr = PM + i * 256;
            events.push(store(4 * i, addr, if i % 3 == 0 { 130 } else { 8 }));
            let kind = if i % 2 == 0 {
                FlushKind::Clwb
            } else {
                FlushKind::Clflush
            };
            for line in 0..3 {
                events.push(flush(4 * i + 1, kind, addr + line * 64));
            }
            events.push(fence(4 * i + 3));
        }
        let mut c = OnlineChecker::new();
        for e in &events {
            c.feed(e);
        }
        assert_eq!(c.live_stores(), 0);
        assert!(
            c.by_line.is_empty(),
            "{} lines still indexed",
            c.by_line.len()
        );
        assert!(c.pending.is_empty());
    }

    #[test]
    fn online_matches_batch_on_real_trace() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                clwb(p);
                store8(p, 64, 2);
                crashpoint();
                sfence();
            }
        "#;
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let trace = pmvm::Vm::new(pmvm::VmOptions::default())
            .run(&m, "main")
            .unwrap()
            .trace
            .unwrap();
        let batch = check_trace(&trace);
        let mut online = OnlineChecker::new();
        for e in &trace.events {
            online.feed(e);
        }
        assert_eq!(batch, online.finish());
    }
}
