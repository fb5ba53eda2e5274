//! Property tests of the machine model: the §4 event algebra holds on
//! random operation sequences.

use pmem_sim::{layout, FenceKind, FlushKind, Machine, PmMedia, PAGE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum MOp {
    Store { off: u16, bytes: Vec<u8> },
    Memset { off: u16, val: u8, len: u16 },
    Memcpy { dst: u16, src: u16, len: u16 },
    Flush { off: u16, kind: u8 },
    Fence { strong: bool },
    Evict { off: u16 },
}

const POOL: u64 = 0;
/// Three pages and three lines: accesses straddle two page boundaries and
/// the pool ends mid-page.
const POOL_SIZE: u64 = 3 * PAGE as u64 + 192;

/// Offsets half uniform, half within two lines of a page boundary, where
/// pool accesses split across pages.
fn off_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        1 => 0u16..POOL_SIZE as u16,
        1 => (1u16..=3, 0u16..256).prop_map(|(page, d)| page * PAGE as u16 - 128 + d),
    ]
}

/// `off` moved down so that `[off, off + len)` fits the pool.
fn fit(off: u16, len: u16) -> u16 {
    off.min(POOL_SIZE as u16 - len)
}

fn op_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        4 => (off_strategy(), proptest::collection::vec(any::<u8>(), 1..17))
            .prop_map(|(off, bytes)| MOp::Store { off: fit(off, bytes.len() as u16), bytes }),
        1 => (off_strategy(), any::<u8>(), 1u16..300)
            .prop_map(|(off, val, len)| MOp::Memset { off: fit(off, len), val, len }),
        1 => (off_strategy(), off_strategy(), 1u16..300)
            .prop_map(|(dst, src, len)| MOp::Memcpy { dst: fit(dst, len), src: fit(src, len), len }),
        3 => (0u16..POOL_SIZE as u16 - 8, 0u8..3).prop_map(|(off, kind)| MOp::Flush { off, kind }),
        2 => any::<bool>().prop_map(|strong| MOp::Fence { strong }),
        1 => (0u16..POOL_SIZE as u16 - 8).prop_map(|off| MOp::Evict { off }),
    ]
}

fn flush_kind(k: u8) -> FlushKind {
    [FlushKind::Clwb, FlushKind::ClflushOpt, FlushKind::Clflush][k as usize % 3]
}

/// Runs `op` on the machine's pool at `base`.
fn drive(m: &mut Machine, base: u64, op: &MOp) {
    let at = |off: u16| base + u64::from(off);
    match op {
        MOp::Store { off, bytes } => m.store(at(*off), bytes).unwrap(),
        MOp::Memset { off, val, len } => m.memset(at(*off), *val, u64::from(*len)).unwrap(),
        MOp::Memcpy { dst, src, len } => m.memcpy(at(*dst), at(*src), u64::from(*len)).unwrap(),
        MOp::Flush { off, kind } => m.flush(flush_kind(*kind), at(*off)).unwrap(),
        MOp::Fence { strong } => m.fence(if *strong {
            FenceKind::Mfence
        } else {
            FenceKind::Sfence
        }),
        MOp::Evict { off } => m.evict(at(*off)),
    }
}

/// A byte-level reference model of the durability semantics: the medium
/// view tracks, per byte, the value guaranteed durable.
struct Reference {
    cache: Vec<u8>,
    media: Vec<u8>,
    dirty: std::collections::BTreeSet<u64>,
    pending: std::collections::BTreeSet<u64>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            cache: vec![0; POOL_SIZE as usize],
            media: vec![0; POOL_SIZE as usize],
            dirty: Default::default(),
            pending: Default::default(),
        }
    }

    fn line(off: u64) -> u64 {
        off & !63
    }

    fn writeback(&mut self, line: u64) {
        let s = line as usize;
        let e = (line + 64).min(POOL_SIZE) as usize;
        self.media[s..e].copy_from_slice(&self.cache[s..e]);
        self.dirty.remove(&line);
        self.pending.remove(&line);
    }

    /// Writes `bytes` to the cache at `off`, dirtying every covered line.
    fn write(&mut self, off: u16, bytes: &[u8]) {
        let off = off as usize;
        self.cache[off..off + bytes.len()].copy_from_slice(bytes);
        let last = Self::line((off + bytes.len() - 1) as u64);
        let mut line = Self::line(off as u64);
        while line <= last {
            self.dirty.insert(line);
            line += 64;
        }
    }

    fn apply(&mut self, op: &MOp) {
        match *op {
            MOp::Store { off, ref bytes } => self.write(off, bytes),
            MOp::Memset { off, val, len } => self.write(off, &vec![val; len as usize]),
            MOp::Memcpy { dst, src, len } => {
                let src = self.cache[src as usize..(src + len) as usize].to_vec();
                self.write(dst, &src);
            }
            MOp::Flush { off, kind } => {
                let line = Self::line(u64::from(off));
                if self.dirty.contains(&line) {
                    if flush_kind(kind).is_weakly_ordered() {
                        self.pending.insert(line);
                    } else {
                        self.writeback(line);
                    }
                }
            }
            MOp::Fence { .. } => {
                for line in std::mem::take(&mut self.pending) {
                    self.writeback(line);
                }
            }
            MOp::Evict { off } => {
                let line = Self::line(u64::from(off));
                if self.dirty.contains(&line) {
                    self.writeback(line);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The machine's crash image matches a byte-level reference model after
    /// any operation sequence.
    #[test]
    fn crash_image_matches_reference(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut m = Machine::default();
        let base = m.map_pool(POOL, POOL_SIZE).unwrap();
        let mut r = Reference::new();
        for op in &ops {
            drive(&mut m, base, op);
            r.apply(op);
        }
        let img = m.crash_image();
        prop_assert_eq!(img.pool_bytes(POOL).unwrap(), &r.media[..]);
        // The cache view matches too.
        prop_assert_eq!(m.peek(base, POOL_SIZE).unwrap(), r.cache.clone());
        // Dirty/pending bookkeeping agrees.
        let machine_dirty: Vec<u64> =
            m.dirty_pm_lines().iter().map(|l| l - base).collect();
        let ref_dirty: Vec<u64> = r.dirty.iter().copied().collect();
        prop_assert_eq!(machine_dirty, ref_dirty);
    }

    /// Restart semantics: re-attaching the medium shows exactly the crash
    /// image, and all cache state is gone.
    #[test]
    fn restart_equals_crash_image(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut m = Machine::default();
        let base = m.map_pool(POOL, POOL_SIZE).unwrap();
        for op in &ops {
            drive(&mut m, base, op);
        }
        let img = m.crash_image();
        let media: PmMedia = m.into_media();
        let mut m2 = Machine::with_media(media, Default::default());
        let base2 = m2.map_pool(POOL, POOL_SIZE).unwrap();
        prop_assert_eq!(base2, base);
        prop_assert_eq!(m2.peek(base2, POOL_SIZE).unwrap(), img.pool_bytes(POOL).unwrap());
        prop_assert!(m2.dirty_pm_lines().is_empty());
    }

    /// Monotonicity of durability: adding a trailing flush+fence to any
    /// sequence makes every line's durable content equal the cache content
    /// (full drain), and never changes the *cache* view.
    #[test]
    fn trailing_persist_drains_everything(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut m = Machine::default();
        let base = m.map_pool(POOL, POOL_SIZE).unwrap();
        for op in &ops {
            drive(&mut m, base, op);
        }
        let cache_before = m.peek(base, POOL_SIZE).unwrap();
        let mut line = base;
        while line < base + POOL_SIZE {
            m.flush(FlushKind::Clwb, line).unwrap();
            line += layout::CACHE_LINE;
        }
        m.fence(FenceKind::Sfence);
        prop_assert_eq!(&m.peek(base, POOL_SIZE).unwrap(), &cache_before);
        let img = m.crash_image();
        prop_assert_eq!(img.pool_bytes(POOL).unwrap(), &cache_before[..]);
        prop_assert!(m.dirty_pm_lines().is_empty());
    }

    /// Images are snapshots: pages an image shares with the machine it came
    /// from, or with a machine booted from it, are copied before either
    /// machine writes them, so later operations never show through.
    #[test]
    fn images_are_unaffected_by_later_writes(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        cut in 0usize..120,
    ) {
        let mut m = Machine::default();
        let base = m.map_pool(POOL, POOL_SIZE).unwrap();
        let mut r = Reference::new();
        let (before, after) = ops.split_at(cut.min(ops.len()));
        for op in before {
            drive(&mut m, base, op);
            r.apply(op);
        }
        let img = m.crash_image();
        let all_persisted = m.crash_image_with_lines(&m.dirty_pm_lines());
        for op in after {
            drive(&mut m, base, op);
        }
        let mut boot = Machine::with_media(img.clone().into_media(), Default::default());
        let base2 = boot.map_pool(POOL, POOL_SIZE).unwrap();
        for op in &ops {
            drive(&mut boot, base2, op);
        }
        // Drain every line into the booted machine's medium.
        let mut line = base2;
        while line < base2 + POOL_SIZE {
            boot.evict(line);
            line += layout::CACHE_LINE;
        }
        prop_assert_eq!(img.pool_bytes(POOL).unwrap(), &r.media[..]);
        prop_assert_eq!(all_persisted.pool_bytes(POOL).unwrap(), &r.cache[..]);
    }

    /// Volatile memory is never captured by crash images.
    #[test]
    fn volatile_state_never_durable(vals in proptest::collection::vec(any::<u8>(), 1..32)) {
        let mut m = Machine::default();
        m.map_pool(POOL, POOL_SIZE).unwrap();
        let buf = m.heap_alloc(64).unwrap();
        for (i, v) in vals.iter().enumerate() {
            m.store(buf + (i as u64 % 56), &[*v]).unwrap();
            m.flush(FlushKind::Clwb, buf).unwrap();
        }
        m.fence(FenceKind::Sfence);
        let img = m.crash_image();
        prop_assert_eq!(img.pool_count(), 1);
        prop_assert!(img.pool_bytes(POOL).unwrap().iter().all(|&b| b == 0));
    }
}
