//! Crash images: the durable state an observer finds after a failure.

use crate::media::PmMedia;
use crate::pool::PoolBytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A snapshot of every pool's durable bytes at a crash.
///
/// Crash-consistency tests compare images (did the update become durable?)
/// or boot a fresh [`crate::Machine`] from one to run recovery code. Pools
/// are [`PoolBytes`]: an image shares the pages of the medium it was taken
/// from, and a boot copies only the pages it writes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashImage {
    pools: BTreeMap<u64, PoolBytes>,
    bases: BTreeMap<u64, u64>,
}

impl CrashImage {
    /// Snapshots a medium.
    pub(crate) fn of_media(media: &PmMedia) -> Self {
        let mut pools = BTreeMap::new();
        let mut bases = BTreeMap::new();
        for (hint, p) in media.iter() {
            pools.insert(hint, p.bytes.clone());
            bases.insert(hint, p.base);
        }
        CrashImage { pools, bases }
    }

    /// A flat copy of the durable bytes of pool `hint`, if it exists.
    pub fn pool_bytes(&self, hint: u64) -> Option<Vec<u8>> {
        self.pools.get(&hint).map(PoolBytes::to_vec)
    }

    /// The base address pool `hint` was mapped at.
    pub fn pool_base(&self, hint: u64) -> Option<u64> {
        self.bases.get(&hint).copied()
    }

    /// Number of pools captured.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Iterates over `(hint, base, bytes)` triples in hint order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &PoolBytes)> {
        self.pools
            .iter()
            .map(|(&hint, bytes)| (hint, self.bases[&hint], bytes))
    }

    /// Builds an image directly from `(hint, base, bytes)` pool triples.
    /// Exploration engines use this to materialize hypothetical crash
    /// states without going through a [`crate::Machine`].
    pub fn from_parts<B: Into<PoolBytes>>(parts: impl IntoIterator<Item = (u64, u64, B)>) -> Self {
        let mut pools = BTreeMap::new();
        let mut bases = BTreeMap::new();
        for (hint, base, bytes) in parts {
            pools.insert(hint, bytes.into());
            bases.insert(hint, base);
        }
        CrashImage { pools, bases }
    }

    /// Reads a little-endian zero-extended integer from an absolute PM
    /// address in the image.
    pub fn read_int(&self, addr: u64, len: u8) -> Option<i64> {
        // An address whose end wraps the address space is in no pool.
        let end = addr.checked_add(u64::from(len))?;
        for (hint, &base) in &self.bases {
            let bytes = &self.pools[hint];
            // A pool whose extent would wrap cannot be addressed either;
            // skip it rather than panicking in a release build.
            let Some(pool_end) = base.checked_add(bytes.len() as u64) else {
                continue;
            };
            if addr >= base && end <= pool_end {
                let mut buf = [0u8; 8];
                bytes.read((addr - base) as usize, &mut buf[..len as usize]);
                return Some(i64::from_le_bytes(buf));
            }
        }
        None
    }

    /// Converts the image back into a medium for recovery runs. The medium
    /// adopts the image's pages: no pool contents are copied or re-zeroed
    /// (recovery boots are the explorer's hot path).
    pub fn into_media(self) -> PmMedia {
        let mut media = PmMedia::new();
        for (hint, bytes) in self.pools {
            media.insert_with_bytes(hint, self.bases[&hint], bytes);
        }
        media
    }
}

#[cfg(test)]
mod tests {

    use crate::machine::Machine;
    use crate::{FenceKind, FlushKind};

    #[test]
    fn read_int_across_pools() {
        let mut m = Machine::default();
        let a = m.map_pool(0, 128).unwrap();
        let b = m.map_pool(1, 128).unwrap();
        m.store_int(a, 8, 11).unwrap();
        m.store_int(b + 16, 4, 22).unwrap();
        m.flush(FlushKind::Clwb, a).unwrap();
        m.flush(FlushKind::Clwb, b + 16).unwrap();
        m.fence(FenceKind::Sfence);
        let img = m.crash_image();
        assert_eq!(img.pool_count(), 2);
        assert_eq!(img.read_int(a, 8), Some(11));
        assert_eq!(img.read_int(b + 16, 4), Some(22));
        assert_eq!(img.read_int(0xdead, 8), None);
    }

    #[test]
    fn read_int_near_u64_max_does_not_overflow() {
        // Regression: `addr + len` used to be computed unchecked, so a
        // probe near the top of the address space overflowed (panic in
        // debug, wrap-around false positive in release).
        use crate::crash::CrashImage;
        let img = CrashImage::from_parts([(0u64, 0x1000u64, vec![0u8; 128])]);
        assert_eq!(img.read_int(u64::MAX, 8), None);
        assert_eq!(img.read_int(u64::MAX - 4, 8), None);
        // A pool whose extent would wrap is skipped, not a crash.
        let wrapping = CrashImage::from_parts([(1u64, u64::MAX - 16, vec![0u8; 64])]);
        assert_eq!(wrapping.read_int(u64::MAX - 10, 8), None);
    }

    #[test]
    fn from_parts_matches_machine_image() {
        let mut m = Machine::default();
        let p = m.map_pool(9, 128).unwrap();
        m.store_int(p, 8, 5).unwrap();
        m.flush(FlushKind::Clflush, p).unwrap();
        let img = m.crash_image();
        let rebuilt = crate::crash::CrashImage::from_parts([(
            9u64,
            img.pool_base(9).unwrap(),
            img.pool_bytes(9).unwrap().to_vec(),
        )]);
        assert_eq!(rebuilt, img);
    }

    #[test]
    fn unaligned_base_from_an_image_still_persists_whole_lines() {
        // The machine page-aligns every base it picks, but a deserialized
        // image can carry any base. A line of such a pool may straddle two
        // pages; it must still be written back whole.
        use crate::crash::CrashImage;
        let base = crate::layout::PM_BASE + 16;
        let img = CrashImage::from_parts([(4u64, base, vec![0u8; 8192])]);
        let mut m = Machine::with_media(img.into_media(), Default::default());
        assert_eq!(m.map_pool(4, 8192), Ok(base));
        let addr = crate::layout::line_of(base + 4096);
        m.store(addr, &[7; 64]).unwrap();
        m.flush(FlushKind::Clwb, addr).unwrap();
        m.fence(FenceKind::Sfence);
        let img = m.crash_image();
        assert_eq!(img.read_int(addr, 8), Some(0x0707_0707_0707_0707));
        assert_eq!(img.read_int(addr + 56, 8), Some(0x0707_0707_0707_0707));
    }

    #[test]
    fn image_roundtrips_to_media() {
        let mut m = Machine::default();
        let p = m.map_pool(3, 64).unwrap();
        m.store_int(p, 8, 99).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        let img = m.crash_image();
        let mut m2 = Machine::with_media(img.into_media(), Default::default());
        let p2 = m2.map_pool(3, 64).unwrap();
        assert_eq!(p2, p);
        assert_eq!(m2.load_int(p2, 8).unwrap(), 99);
    }
}
