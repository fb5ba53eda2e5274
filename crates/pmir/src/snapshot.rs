//! Module snapshot/diff/patch utilities for transactional rewriting.
//!
//! The repair engine mutates a [`Module`] in place; a round that fails
//! re-verification must roll back *byte-identically*. The canonical byte
//! representation of a module is its printed text ([`crate::display::print_module`]),
//! which round-trips through [`crate::parse::parse_module`] — so snapshots,
//! digests, and patches are all defined over that text:
//!
//! - [`digest`]/[`digest_hex`] — a cheap FNV-1a 64 fingerprint of the printed
//!   module, used as the identity in journal records and resume checks.
//! - [`ModuleSnapshot`] — captures a round's starting state and restores it
//!   exactly on rollback.
//! - [`ModuleDiff`] — names the functions a round added/changed/removed, for
//!   human-readable quarantine and journal diagnostics.
//! - [`ModulePatch`] — a self-validating, idempotently applicable transition
//!   `base_digest → after_digest`; the unit of journal replay.
//!
//! Patches carry the *whole* printed module rather than per-function splices:
//! calls reference callees by [`crate::FuncId`], so grafting a single printed
//! function into a different module would silently rebind call targets.

use crate::display::print_module;
use crate::module::Module;
use crate::parse::parse_module;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over arbitrary bytes (the repo-wide fingerprint primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of a module's canonical printed text.
pub fn digest(m: &Module) -> u64 {
    fnv1a(print_module(m).as_bytes())
}

/// [`digest`] rendered as the fixed-width hex form used in journals and
/// diagnostics (`16` lowercase hex digits).
pub fn digest_hex(m: &Module) -> String {
    format!("{:016x}", digest(m))
}

/// A captured module state that can be restored byte-identically.
#[derive(Debug, Clone)]
pub struct ModuleSnapshot {
    module: Module,
    /// The captured module's printed text, printed on first use: most
    /// snapshots are only ever restored, and printing a large module costs
    /// far more than cloning it.
    text: OnceLock<String>,
}

impl ModuleSnapshot {
    /// Captures `m` as it is right now.
    pub fn capture(m: &Module) -> ModuleSnapshot {
        ModuleSnapshot {
            module: m.clone(),
            text: OnceLock::new(),
        }
    }

    /// The canonical printed text at capture time.
    pub fn text(&self) -> &str {
        self.text.get_or_init(|| print_module(&self.module))
    }

    /// Digest of the captured state.
    pub fn digest(&self) -> u64 {
        fnv1a(self.text().as_bytes())
    }

    /// Digest of the captured state in hex form.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Restores `m` to the captured state. After this call
    /// `print_module(m)` equals [`ModuleSnapshot::text`] exactly.
    pub fn restore(&self, m: &mut Module) {
        *m = self.module.clone();
    }

    /// Whether `m` is still byte-identical to the captured state.
    pub fn matches(&self, m: &Module) -> bool {
        print_module(m) == self.text()
    }
}

/// Function-level difference between two module states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleDiff {
    /// Functions present after but not before.
    pub added: Vec<String>,
    /// Functions whose printed body changed.
    pub changed: Vec<String>,
    /// Functions present before but not after.
    pub removed: Vec<String>,
}

impl ModuleDiff {
    /// Computes the function-level diff from `before` to `after`.
    pub fn between(before: &Module, after: &Module) -> ModuleDiff {
        let index = |m: &Module| -> BTreeMap<String, String> {
            m.functions()
                .map(|(_, f)| (f.name().to_string(), crate::display::print_function(m, f)))
                .collect()
        };
        let b = index(before);
        let a = index(after);
        let mut diff = ModuleDiff::default();
        for (name, body) in &a {
            match b.get(name) {
                None => diff.added.push(name.clone()),
                Some(old) if old != body => diff.changed.push(name.clone()),
                Some(_) => {}
            }
        }
        for name in b.keys() {
            if !a.contains_key(name) {
                diff.removed.push(name.clone());
            }
        }
        diff
    }

    /// Whether the two states printed identically at function granularity.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }
}

impl fmt::Display for ModuleDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no function changes");
        }
        let mut parts = Vec::new();
        if !self.added.is_empty() {
            parts.push(format!("+{}", self.added.join(" +")));
        }
        if !self.changed.is_empty() {
            parts.push(format!("~{}", self.changed.join(" ~")));
        }
        if !self.removed.is_empty() {
            parts.push(format!("-{}", self.removed.join(" -")));
        }
        f.write_str(&parts.join(" "))
    }
}

/// Why a [`ModulePatch`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The target module matches neither the patch's base nor its result.
    BaseMismatch {
        /// Digest the patch expects to start from (hex).
        expected: String,
        /// Digest of the module it was offered (hex).
        found: String,
    },
    /// The stored module text failed to parse (a corrupted patch).
    Unparsable(String),
    /// The stored text parsed but does not hash to `after_digest` (a
    /// corrupted patch).
    DigestMismatch {
        /// Digest the patch claims to produce (hex).
        expected: String,
        /// Digest the stored text actually hashes to (hex).
        found: String,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::BaseMismatch { expected, found } => write!(
                f,
                "patch applies to module {expected} but was offered module {found}"
            ),
            PatchError::Unparsable(e) => write!(f, "patch module text is unparsable: {e}"),
            PatchError::DigestMismatch { expected, found } => write!(
                f,
                "patch text hashes to {found}, journal record claims {expected}"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// A self-validating module transition, the unit of journal replay.
///
/// Application is idempotent: applying to a module already at
/// `after_digest` is a no-op, applying to one at `base_digest` installs the
/// stored text, and anything else is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModulePatch {
    /// Digest (hex) of the state the patch starts from.
    pub base_digest: String,
    /// Digest (hex) of the state the patch produces.
    pub after_digest: String,
    /// Canonical printed text of the resulting module.
    pub after_text: String,
}

impl ModulePatch {
    /// Records the transition from `before` (by snapshot) to `after`.
    pub fn between(before: &ModuleSnapshot, after: &Module) -> ModulePatch {
        let after_text = print_module(after);
        ModulePatch {
            base_digest: before.digest_hex(),
            after_digest: format!("{:016x}", fnv1a(after_text.as_bytes())),
            after_text,
        }
    }

    /// Applies the patch to `m`. Returns `true` if the module changed,
    /// `false` if it was already at `after_digest` (replay idempotence).
    pub fn apply(&self, m: &mut Module) -> Result<bool, PatchError> {
        let found = digest_hex(m);
        if found == self.after_digest {
            return Ok(false);
        }
        if found != self.base_digest {
            return Err(PatchError::BaseMismatch {
                expected: self.base_digest.clone(),
                found,
            });
        }
        let stored = format!("{:016x}", fnv1a(self.after_text.as_bytes()));
        if stored != self.after_digest {
            return Err(PatchError::DigestMismatch {
                expected: self.after_digest.clone(),
                found: stored,
            });
        }
        let parsed =
            parse_module(&self.after_text).map_err(|e| PatchError::Unparsable(e.to_string()))?;
        *m = parsed;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::InstId;
    use crate::inst::Op;
    use crate::ops::{FenceKind, FlushKind};
    use crate::rewrite;
    use crate::types::Type;
    use crate::Operand;

    fn sample() -> (Module, InstId) {
        let mut m = Module::new();
        let f = m.declare_function("persist", vec![Type::Ptr], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.entry_block();
        b.switch_to(entry);
        let addr = b.arg(0);
        let store = b.store(Type::int(8), Operand::Value(addr), Operand::Const(7));
        b.ret(None);
        b.finish();
        (m, store)
    }

    fn fixed(mut m: Module, store: InstId) -> Module {
        let fid = m.function_by_name("persist").unwrap();
        let f = m.function_mut(fid);
        let addr = Operand::Value(f.arg(0));
        let fl = rewrite::insert_after(
            f,
            store,
            Op::Flush {
                kind: FlushKind::Clwb,
                addr,
            },
            None,
        );
        rewrite::insert_after(
            f,
            fl,
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            None,
        );
        m
    }

    #[test]
    fn digest_is_stable_and_text_sensitive() {
        let (m, store) = sample();
        assert_eq!(digest(&m), digest(&m.clone()));
        assert_ne!(digest(&m), digest(&fixed(m.clone(), store)));
        assert_eq!(digest_hex(&m).len(), 16);
    }

    #[test]
    fn snapshot_restores_byte_identically() {
        let (mut m, store) = sample();
        let snap = ModuleSnapshot::capture(&m);
        let before = print_module(&m);
        m = fixed(m, store);
        assert!(!snap.matches(&m));
        snap.restore(&mut m);
        assert_eq!(print_module(&m), before);
        assert!(snap.matches(&m));
    }

    #[test]
    fn snapshot_text_is_the_capture_time_state_when_read_later() {
        let (m, store) = sample();
        let before = print_module(&m);
        let snap = ModuleSnapshot::capture(&m);
        let after = fixed(m, store);
        // Nothing was printed at capture; the first read prints the copy.
        assert_eq!(snap.text(), before);
        assert_eq!(snap.digest(), fnv1a(before.as_bytes()));
        let patch = ModulePatch::between(&snap, &after);
        assert_eq!(
            patch.base_digest,
            format!("{:016x}", fnv1a(before.as_bytes()))
        );
        assert_eq!(patch.after_text, print_module(&after));
    }

    #[test]
    fn diff_names_changed_functions() {
        let (before, store) = sample();
        let after = fixed(before.clone(), store);
        let d = ModuleDiff::between(&before, &after);
        assert_eq!(d.changed, vec!["persist".to_string()]);
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(d.to_string().contains("~persist"));
        assert!(ModuleDiff::between(&before, &before).is_empty());
    }

    #[test]
    fn patch_applies_once_and_is_idempotent() {
        let (base, store) = sample();
        let snap = ModuleSnapshot::capture(&base);
        let after = fixed(base.clone(), store);
        let patch = ModulePatch::between(&snap, &after);

        let mut m = base.clone();
        assert_eq!(patch.apply(&mut m), Ok(true));
        assert_eq!(print_module(&m), print_module(&after));
        // Replaying against the already-patched module is a no-op.
        assert_eq!(patch.apply(&mut m), Ok(false));
        assert_eq!(print_module(&m), print_module(&after));
    }

    #[test]
    fn patch_rejects_wrong_base_and_corruption() {
        let (base, store) = sample();
        let snap = ModuleSnapshot::capture(&base);
        let after = fixed(base.clone(), store);
        let patch = ModulePatch::between(&snap, &after);

        // Wrong base: a module that is neither base nor after.
        let mut other = Module::new();
        let uf = other.declare_function("unrelated", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut other, uf);
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        b.finish();
        assert!(matches!(
            patch.apply(&mut other),
            Err(PatchError::BaseMismatch { .. })
        ));

        // Corrupted text: digest check fires before any parse attempt.
        let mut corrupt = patch.clone();
        corrupt.after_text.push('x');
        let mut m = base.clone();
        assert!(matches!(
            corrupt.apply(&mut m),
            Err(PatchError::DigestMismatch { .. })
        ));
        assert!(snap.matches(&m), "failed apply must not touch the module");
    }
}
