//! The persistent medium: the only state that survives a simulated crash.

use crate::pool::PoolBytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One pool's durable bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolMedia {
    /// The pool's base address in the simulated address space. Stable across
    /// re-mapping, so recovery code sees the same pointers.
    pub base: u64,
    /// Durable contents (copy-on-write pages: cloning a medium or taking
    /// a crash image copies page tables, not bytes).
    pub bytes: PoolBytes,
}

/// The set of PM pools' durable contents, keyed by the program-chosen pool
/// hint (the `pool` operand of `pmemmap`).
///
/// Detach it from a [`crate::Machine`] with [`crate::Machine::into_media`]
/// and hand it to a fresh machine to simulate a restart:
///
/// ```
/// use pmem_sim::{Machine, PmMedia, FlushKind, FenceKind};
///
/// let mut m = Machine::default();
/// let p = m.map_pool(7, 64).unwrap();
/// m.store(p, b"hello...").unwrap();
/// m.flush(FlushKind::Clwb, p).unwrap();
/// m.fence(FenceKind::Sfence);
/// let media = m.into_media();
///
/// // "Reboot": the durable bytes are visible to the next process.
/// let mut m2 = Machine::with_media(media, Default::default());
/// let p2 = m2.map_pool(7, 64).unwrap();
/// assert_eq!(p2, p);
/// let mut buf = [0u8; 5];
/// m2.load(p2, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmMedia {
    pools: BTreeMap<u64, PoolMedia>,
}

impl PmMedia {
    /// An empty medium (factory-fresh NVDIMM).
    pub fn new() -> Self {
        PmMedia::default()
    }

    /// The pool for `hint`, if one exists.
    pub fn pool(&self, hint: u64) -> Option<&PoolMedia> {
        self.pools.get(&hint)
    }

    /// Mutable access to the pool for `hint`.
    pub(crate) fn pool_mut(&mut self, hint: u64) -> Option<&mut PoolMedia> {
        self.pools.get_mut(&hint)
    }

    /// Registers a new pool.
    pub(crate) fn insert(&mut self, hint: u64, base: u64, size: u64) {
        self.insert_with_bytes(hint, base, PoolBytes::zeroed(size as usize));
    }

    /// Registers a pool that adopts `bytes` as its durable contents.
    pub(crate) fn insert_with_bytes(&mut self, hint: u64, base: u64, bytes: PoolBytes) {
        self.pools.insert(hint, PoolMedia { base, bytes });
    }

    /// Iterates over `(hint, pool)` pairs in hint order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PoolMedia)> {
        self.pools.iter().map(|(&h, p)| (h, p))
    }

    /// Number of pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// The highest in-use address across all pools, for base allocation.
    pub(crate) fn high_water(&self) -> Option<u64> {
        self.pools
            .values()
            .map(|p| p.base + p.bytes.len() as u64)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut m = PmMedia::new();
        m.insert(1, 0x3000_0000_0000, 128);
        assert_eq!(m.pool_count(), 1);
        let p = m.pool(1).unwrap();
        assert_eq!(p.base, 0x3000_0000_0000);
        assert_eq!(p.bytes.len(), 128);
        assert!(m.pool(2).is_none());
        assert_eq!(m.high_water(), Some(0x3000_0000_0000 + 128));
    }
}
