//! Shared names and call stacks for trace events, used by both tiers.
//!
//! Every event carries its call stack (paper §4.1). Most events of a run
//! share a handful of call paths, so the stack of each path is built once
//! and handed out as one shared [`Stack`]: an activation looks its path up
//! at its first event and reuses it for the rest of its life, and every
//! activation on the same call path gets the same allocation. Function and
//! file names are likewise allocated once per run.

use pmir::{Module, SrcLoc};
use pmtrace::{Frame, Stack, TraceLoc};
use std::collections::HashMap;
use std::sync::Arc;

/// One live frame, as the tiers describe it to [`Stacks::current`]: the
/// function index and, for every frame but the innermost, the call
/// instruction it is suspended at with that call's source location.
pub(crate) type PathFrame = (u32, Option<(u32, Option<SrcLoc>)>);

/// The parent of an outermost frame's path, and the call instruction of a
/// frame that is not suspended at a call.
const NONE: u32 = u32::MAX;

/// The per-run interner behind every name and stack in a trace.
pub(crate) struct Stacks {
    /// Function names, indexed by `FuncId.0`.
    names: Vec<Arc<str>>,
    /// Source file names, indexed by `FileId.0`.
    files: Vec<Arc<str>>,
    /// What `Module::file_name` answers for an unknown file id.
    unknown_file: Arc<str>,
    /// The stack of every distinct call path of the run, indexed by path;
    /// built when an activation on the path first emits.
    stacks: Vec<Option<Stack>>,
    /// `(parent path, call inst in the parent's function, function)` →
    /// path. A path is thereby the chain of `(function, call inst)` of its
    /// frames, which determines every frame's contents.
    paths: HashMap<(u32, u32, u32), u32>,
    /// `active[d]`: the path of the live activation at depth `d`, once
    /// known. A path index rather than a `Stack`, so calls and returns
    /// touch no reference count.
    active: Vec<Option<u32>>,
}

impl Stacks {
    /// An interner for one run of `module`; `names[f]` is the name of the
    /// function with id `f`.
    pub(crate) fn new(names: Vec<Arc<str>>, module: &Module) -> Stacks {
        Stacks {
            names,
            files: module
                .files()
                .iter()
                .map(|f| Arc::from(f.as_str()))
                .collect(),
            unknown_file: Arc::from(module.file_name(pmir::FileId(u32::MAX))),
            stacks: Vec::new(),
            paths: HashMap::new(),
            active: Vec::with_capacity(16),
        }
    }

    /// The shared name of function `func`.
    pub(crate) fn name(&self, func: u32) -> Arc<str> {
        self.names[func as usize].clone()
    }

    /// Resolves a source location against the shared file-name table.
    pub(crate) fn loc(&self, loc: Option<SrcLoc>) -> Option<TraceLoc> {
        loc.map(|l| TraceLoc {
            file: self
                .files
                .get(l.file.0 as usize)
                .unwrap_or(&self.unknown_file)
                .clone(),
            line: l.line,
            col: l.col,
        })
    }

    /// A frame was pushed at `depth`: activations there and deeper are gone.
    pub(crate) fn enter(&mut self, depth: usize) {
        self.active.truncate(depth);
    }

    /// The stack of the innermost activation, which lives at `depth`.
    /// `frame(d)` describes the live frame at depth `d` (0 is outermost);
    /// it is only asked for frames whose path is not known yet.
    pub(crate) fn current(&mut self, depth: usize, frame: impl Fn(usize) -> PathFrame) -> Stack {
        let p = match self.active.get(depth) {
            Some(&Some(p)) => p,
            _ => self.resolve(depth, &frame),
        };
        if let Some(s) = &self.stacks[p as usize] {
            return s.clone();
        }
        let s = self.build(depth, &frame);
        self.stacks[p as usize] = Some(s.clone());
        s
    }

    /// Finds the path of the activation at `depth` by extending the deepest
    /// known ancestor's path one frame at a time.
    fn resolve(&mut self, depth: usize, frame: &impl Fn(usize) -> PathFrame) -> u32 {
        let known = (0..depth).rev().find_map(|d| match self.active.get(d) {
            Some(&Some(p)) => Some((d + 1, p)),
            _ => None,
        });
        let (first, mut parent) = known.unwrap_or((0, NONE));
        self.active.resize(depth + 1, None);
        for d in first..=depth {
            let call = match d.checked_sub(1) {
                Some(up) => {
                    frame(up)
                        .1
                        .expect("an outer frame is suspended at a call")
                        .0
                }
                None => NONE,
            };
            let key = (parent, call, frame(d).0);
            let next = self.stacks.len() as u32;
            parent = *self.paths.entry(key).or_insert(next);
            if parent == next {
                self.stacks.push(None);
            }
            self.active[d] = Some(parent);
        }
        parent
    }

    /// The stack of an activation at `depth`, innermost frame first.
    fn build(&self, depth: usize, frame: &impl Fn(usize) -> PathFrame) -> Stack {
        (0..=depth)
            .rev()
            .map(|d| {
                let (func, call) = frame(d);
                Frame {
                    function: self.name(func),
                    call_inst: call.map(|(inst, _)| inst),
                    loc: self.loc(call.and_then(|(_, loc)| loc)),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExecTier, Vm, VmOptions};
    use pmtrace::{EventKind, Stack, Trace};
    use std::sync::Arc;

    /// `put` stores twice per activation; it is called five times from the
    /// loop's call site and once from a second call site.
    const SRC: &str = r#"
        fn put(p: ptr, off: int) {
            store8(p, off, 1);
            store8(p, off + 8, 2);
        }
        fn main() {
            var p: ptr = pmem_map(0, 4096);
            var i: int = 0;
            while (i < 5) {
                put(p, i * 64);
                i = i + 1;
            }
            put(p, 1024);
        }
    "#;

    /// `dive` stores only at the bottom of its recursion, so the first
    /// event of each dive comes from a frame none of whose callers emitted.
    const DEEP: &str = r#"
        fn dive(p: ptr, n: int) {
            if (n) {
                dive(p, n - 1);
            } else {
                store8(p, 0, 7);
            }
        }
        fn main() {
            var p: ptr = pmem_map(0, 4096);
            var i: int = 0;
            while (i < 3) {
                dive(p, 6);
                i = i + 1;
            }
        }
    "#;

    fn trace(tier: ExecTier) -> Trace {
        run(tier, SRC)
    }

    fn run(tier: ExecTier, src: &str) -> Trace {
        let m = pmlang::compile_one("share.pmc", src).unwrap();
        let opts = VmOptions {
            tier,
            ..VmOptions::default()
        };
        Vm::new(opts).run(&m, "main").unwrap().trace.unwrap()
    }

    /// The stacks of the store events, in order.
    fn store_stacks(t: &Trace) -> Vec<&Stack> {
        t.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Store { .. }))
            .map(|e| &e.stack)
            .collect()
    }

    /// Distinct allocations among `stacks`.
    fn distinct(stacks: &[&Stack]) -> usize {
        let mut seen: Vec<&Stack> = vec![];
        for s in stacks {
            if !seen.iter().any(|d| Arc::ptr_eq(d, s)) {
                seen.push(s);
            }
        }
        seen.len()
    }

    #[test]
    fn one_call_site_shares_one_stack_on_both_tiers() {
        for tier in [ExecTier::Interp, ExecTier::Fast] {
            let t = trace(tier);
            let stacks = store_stacks(&t);
            assert_eq!(stacks.len(), 12, "{tier:?}");
            let (looped, single) = stacks.split_at(10);
            assert!(
                looped.iter().all(|s| Arc::ptr_eq(s, looped[0])),
                "{tier:?}: five activations from one call site share a stack"
            );
            assert!(Arc::ptr_eq(single[0], single[1]), "{tier:?}");
            assert_eq!(distinct(&stacks), 2, "{tier:?}: two call sites");
            assert_ne!(looped[0][1].call_inst, single[0][1].call_inst);
        }
    }

    #[test]
    fn names_are_shared_between_events_and_frames() {
        for tier in [ExecTier::Interp, ExecTier::Fast] {
            let t = trace(tier);
            let stores: Vec<_> = t
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Store { .. }))
                .collect();
            let put = &stores[0].stack[0].function;
            let file = &stores[0].loc.as_ref().unwrap().file;
            for e in &stores {
                assert!(
                    Arc::ptr_eq(&e.at.as_ref().unwrap().function, put),
                    "{tier:?}"
                );
                assert!(Arc::ptr_eq(&e.loc.as_ref().unwrap().file, file), "{tier:?}");
                let call = e.stack[1].loc.as_ref().unwrap();
                assert!(Arc::ptr_eq(&call.file, file), "{tier:?}");
            }
        }
    }

    #[test]
    fn both_tiers_build_the_same_stacks() {
        assert_eq!(trace(ExecTier::Interp), trace(ExecTier::Fast));
        assert_eq!(run(ExecTier::Interp, DEEP), run(ExecTier::Fast, DEEP));
    }

    #[test]
    fn a_first_event_deep_in_a_silent_recursion_gets_the_whole_stack() {
        for tier in [ExecTier::Interp, ExecTier::Fast] {
            let t = run(tier, DEEP);
            let stacks = store_stacks(&t);
            assert_eq!(stacks.len(), 3, "{tier:?}");
            assert_eq!(distinct(&stacks), 1, "{tier:?}: one call path, three dives");
            let names: Vec<&str> = stacks[0].iter().map(|f| &*f.function).collect();
            assert_eq!(names, [vec!["dive"; 7], vec!["main"]].concat(), "{tier:?}");
            assert!(stacks[0][0].call_inst.is_none());
            assert!(stacks[0][1..].iter().all(|f| f.call_inst.is_some()));
        }
    }
}
