//! Golden wire formats: the exact bytes of every trace and report
//! serialization for two fixed programs, pinned in `tests/golden/`.
//!
//! The other interchange tests compare values within one process, so they
//! cannot see a change of representation that changes the bytes on the wire
//! symmetrically on both sides. These files are checked in: a diff against
//! them is a wire-format change.
//!
//! Programs: `pmdk-447` (nested call stacks, several checkpoints) and the
//! paper's Listing 5 (one store reached through `update <- modify <- main`).
//! Both execution tiers must produce the same bytes.
//! Regenerate after an intended format change with
//! `BLESS=1 cargo test -p system-tests --test wire_format_golden`.

use pmcheck::check_trace;
use pmtrace::Trace;
use pmvm::{ExecTier, Vm, VmOptions};
use std::path::PathBuf;

const LISTING5: &str = r#"
fn update(addr: ptr, idx: int, val: int) {
    store1(addr, idx, val);
}
fn modify(addr: ptr) {
    update(addr, 0, 1);
}
fn main() {
    var vol_addr: ptr = alloc(4096);
    var pm_addr: ptr = pmem_map(0, 4096);
    var i: int = 0;
    while (i < 100) {
        modify(vol_addr);
        i = i + 1;
    }
    modify(pm_addr);
    print(load1(pm_addr, 0));
}
"#;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `actual` with `tests/golden/<name>` byte for byte, or rewrites
/// the file when `BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with BLESS=1 to create it)", path.display()));
    if want != actual {
        let line = want
            .lines()
            .zip(actual.lines())
            .position(|(w, a)| w != a)
            .unwrap_or_else(|| want.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from its golden file at line {}:\n  want: {:?}\n  got:  {:?}",
            line + 1,
            want.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// Pins the JSON, log and text forms of `trace`, and the JSON and rendered
/// forms of its check report, under `<stem>.*`.
fn pin_all(stem: &str, trace: &Trace) {
    assert_golden(&format!("{stem}.trace.json"), &trace.to_json().unwrap());
    assert_golden(&format!("{stem}.trace.log"), &pmtrace::log::to_log(trace));
    assert_golden(
        &format!("{stem}.trace.txt"),
        &pmtrace::format::render_text(trace),
    );
    let report = check_trace(trace);
    assert!(!report.is_clean(), "{stem}: the golden programs are buggy");
    assert_golden(
        &format!("{stem}.report.json"),
        &serde_json::to_string_pretty(&report).unwrap(),
    );
    assert_golden(&format!("{stem}.report.txt"), &report.render());
}

/// The trace of `entry` on each execution tier.
fn traces(m: &pmir::Module, entry: &str) -> Vec<Trace> {
    [ExecTier::Interp, ExecTier::Fast]
        .into_iter()
        .map(|tier| {
            let opts = VmOptions {
                tier,
                ..VmOptions::default()
            };
            Vm::new(opts).run(m, entry).unwrap().trace.unwrap()
        })
        .collect()
}

#[test]
fn pmdk_447_wire_formats_are_pinned() {
    let m = minipmdk::build_buggy("pmdk-447").unwrap();
    for trace in traces(&m, &minipmdk::entry_for("pmdk-447")) {
        assert!(
            trace.events.iter().any(|e| e.stack.len() >= 3),
            "pmdk-447 must exercise nested stacks"
        );
        pin_all("pmdk447", &trace);
    }
}

#[test]
fn listing5_wire_formats_are_pinned() {
    let m = pmlang::compile_one("listing5.pmc", LISTING5).unwrap();
    for trace in traces(&m, "main") {
        pin_all("listing5", &trace);
    }
}
