//! The simulated machine: all address spaces, the PM cache model, and cycle
//! accounting.

use crate::cost::CostModel;
use crate::crash::CrashImage;
use crate::error::MemError;
use crate::layout::{
    line_of, Region, CACHE_LINE, GLOBAL_BASE, HEAP_BASE, PM_BASE, REGION_SPAN, STACK_BASE,
};
use crate::lineset::LineSet;
use crate::media::PmMedia;
use crate::pool::PoolBytes;
use crate::stats::MachineStats;
use crate::{FenceKind, FlushKind};
use std::collections::BTreeMap;

/// A heap allocation record.
#[derive(Debug, Clone, Copy)]
struct HeapAlloc {
    size: u64,
    live: bool,
}

/// One mapped PM pool's volatile view (the cache-visible bytes). It starts
/// as a page-table copy of the medium's pool and copies a page only when a
/// store first writes it.
#[derive(Debug, Clone)]
struct PoolCache {
    hint: u64,
    base: u64,
    bytes: PoolBytes,
}

/// The machine. See the [crate docs](crate) for the model.
#[derive(Debug, Clone)]
pub struct Machine {
    cost: CostModel,
    stats: MachineStats,

    // Volatile regions.
    stack: Vec<u8>,
    stack_top: u64, // offset from STACK_BASE of the next free byte
    frames: Vec<u64>,
    heap: Vec<u8>,
    heap_top: u64,
    heap_allocs: BTreeMap<u64, HeapAlloc>, // keyed by absolute base address
    globals: Vec<u8>,
    globals_top: u64,

    // Persistent region.
    media: PmMedia,
    pools: Vec<PoolCache>, // sorted by base
    dirty_lines: LineSet,
    pending_pm_lines: LineSet,
    pending_volatile_lines: LineSet,

    // Fault injection (None in production: one branch per PM access).
    injector: Option<pmfault::Injector>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(CostModel::default())
    }
}

impl Machine {
    /// A fresh machine (empty medium) with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Machine::with_media(PmMedia::new(), cost)
    }

    /// A machine booted against an existing persistent medium (a "restart").
    pub fn with_media(media: PmMedia, cost: CostModel) -> Self {
        Machine {
            cost,
            stats: MachineStats::default(),
            stack: vec![],
            stack_top: 0,
            frames: vec![],
            heap: vec![],
            heap_top: 0,
            heap_allocs: BTreeMap::new(),
            globals: vec![],
            globals_top: 0,
            media,
            pools: vec![],
            dirty_lines: LineSet::new(),
            pending_pm_lines: LineSet::new(),
            pending_volatile_lines: LineSet::new(),
            injector: None,
        }
    }

    /// Arms (or disarms) fault injection on this machine's PM access paths.
    ///
    /// The injector's counters are owned by value: cloning the machine forks
    /// them, so crash-image replicas keep counting deterministically from
    /// the clone point.
    pub fn set_injector(&mut self, injector: Option<pmfault::Injector>) {
        self.injector = injector;
    }

    /// The injection log: one line per fault actually injected (empty when
    /// no injector is armed). Each line is the structured diagnostic the
    /// fault campaign asserts on.
    pub fn injected_faults(&self) -> &[String] {
        self.injector.as_ref().map_or(&[], |i| i.injected())
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `c` cycles (used by the interpreter for instruction dispatch).
    pub fn charge(&mut self, c: u64) {
        self.stats.cycles += c;
    }

    /// Charges the fixed per-instruction dispatch cost.
    pub fn charge_inst(&mut self) {
        self.stats.cycles += self.cost.inst_base;
    }

    /// Charges a call/return pair.
    pub fn charge_call(&mut self) {
        self.stats.cycles += self.cost.call;
    }

    // ----- volatile allocators ---------------------------------------------

    /// Pushes a stack frame; pair with [`Machine::pop_frame`].
    pub fn push_frame(&mut self) {
        self.frames.push(self.stack_top);
    }

    /// Pops the current frame, releasing its allocations.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    pub fn pop_frame(&mut self) {
        self.stack_top = self.frames.pop().expect("pop_frame with no active frame");
    }

    /// Allocates `size` bytes (8-aligned) in the current stack frame.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the stack window is exhausted.
    pub fn stack_alloc(&mut self, size: u64) -> Result<u64, MemError> {
        let size = align8(size);
        if self.stack_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "stack" });
        }
        let addr = STACK_BASE + self.stack_top;
        self.stack_top += size;
        if self.stack.len() < self.stack_top as usize {
            self.stack.resize(self.stack_top as usize, 0);
        }
        Ok(addr)
    }

    /// Allocates `size` bytes of heap ("DRAM").
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the heap window is exhausted.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, MemError> {
        let size = align8(size.max(1));
        if self.heap_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "heap" });
        }
        let addr = HEAP_BASE + self.heap_top;
        self.heap_top += size;
        if self.heap.len() < self.heap_top as usize {
            self.heap.resize(self.heap_top as usize, 0);
        }
        self.heap_allocs
            .insert(addr, HeapAlloc { size, live: true });
        self.stats.heap_live_bytes += size;
        self.stats.heap_peak_bytes = self.stats.heap_peak_bytes.max(self.stats.heap_live_bytes);
        Ok(addr)
    }

    /// Frees a heap allocation.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::InvalidFree`] if `addr` is not the base of a
    /// live allocation.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.heap_allocs.get_mut(&addr) {
            Some(a) if a.live => {
                a.live = false;
                self.stats.heap_live_bytes -= a.size;
                Ok(())
            }
            _ => Err(MemError::InvalidFree { addr }),
        }
    }

    /// Installs a global of `size` bytes with initial contents `init`
    /// (zero-extended); returns its address.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the globals window is
    /// exhausted.
    pub fn add_global(&mut self, size: u64, init: &[u8]) -> Result<u64, MemError> {
        let size = align8(size.max(init.len() as u64));
        if self.globals_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "globals" });
        }
        let addr = GLOBAL_BASE + self.globals_top;
        self.globals_top += size;
        self.globals.resize(self.globals_top as usize, 0);
        let off = (addr - GLOBAL_BASE) as usize;
        self.globals[off..off + init.len()].copy_from_slice(init);
        Ok(addr)
    }

    // ----- PM pools ---------------------------------------------------------

    /// Maps the pool identified by `hint`, creating it on the medium if it
    /// does not exist. Remapping an existing pool returns the same base and
    /// *reads the cache view back from the durable medium* — exactly what a
    /// process restart observes.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::PoolSizeMismatch`] if the pool exists with a
    /// different size, or [`MemError::OutOfMemory`] if the PM window is full.
    pub fn map_pool(&mut self, hint: u64, size: u64) -> Result<u64, MemError> {
        let size = align_up(size.max(1), CACHE_LINE);
        if let Some(p) = self.pools.iter().find(|p| p.hint == hint) {
            let have = p.bytes.len() as u64;
            if have != size {
                return Err(MemError::PoolSizeMismatch {
                    pool: hint,
                    have,
                    want: size,
                });
            }
            return Ok(p.base);
        }
        let base = match self.media.pool(hint) {
            Some(pm) => {
                let have = pm.bytes.len() as u64;
                if have != size {
                    return Err(MemError::PoolSizeMismatch {
                        pool: hint,
                        have,
                        want: size,
                    });
                }
                pm.base
            }
            None => {
                let base = align_up(self.media.high_water().unwrap_or(PM_BASE), 4096);
                if base + size > PM_BASE + REGION_SPAN {
                    return Err(MemError::OutOfMemory { what: "pm" });
                }
                self.media.insert(hint, base, size);
                base
            }
        };
        let bytes = self.media.pool(hint).expect("pool exists").bytes.clone();
        self.pools.push(PoolCache { hint, base, bytes });
        self.pools.sort_by_key(|p| p.base);
        Ok(base)
    }

    fn pool_index_of(&self, addr: u64) -> Option<usize> {
        self.pools
            .iter()
            .position(|p| addr >= p.base && addr < p.base + p.bytes.len() as u64)
    }

    // ----- access checking ---------------------------------------------------

    fn check_range(&self, addr: u64, len: u64) -> Result<Region, MemError> {
        if len == 0 {
            return Region::of(addr).ok_or(MemError::Unmapped { addr });
        }
        let region = Region::of(addr).ok_or(MemError::Unmapped { addr })?;
        let end = addr
            .checked_add(len)
            .ok_or(MemError::OutOfBounds { addr, len })?;
        let oob = MemError::OutOfBounds { addr, len };
        match region {
            Region::Stack => {
                if end <= STACK_BASE + self.stack_top {
                    Ok(region)
                } else {
                    Err(oob)
                }
            }
            Region::Heap => {
                let (base, alloc) = self
                    .heap_allocs
                    .range(..=addr)
                    .next_back()
                    .ok_or(MemError::Unmapped { addr })?;
                if !alloc.live {
                    return Err(MemError::UseAfterFree { addr });
                }
                if end <= base + alloc.size {
                    Ok(region)
                } else {
                    Err(oob)
                }
            }
            Region::Global => {
                if end <= GLOBAL_BASE + self.globals_top {
                    Ok(region)
                } else {
                    Err(oob)
                }
            }
            Region::Pm => {
                let i = self
                    .pool_index_of(addr)
                    .ok_or(MemError::Unmapped { addr })?;
                let p = &self.pools[i];
                if end <= p.base + p.bytes.len() as u64 {
                    Ok(region)
                } else {
                    Err(oob)
                }
            }
        }
    }

    /// Copies the checked range `[addr, addr + out.len())` into `out`. PM
    /// reads split at page boundaries.
    fn read(&self, region: Region, addr: u64, out: &mut [u8]) {
        let (buf, base) = match region {
            Region::Stack => (&self.stack, STACK_BASE),
            Region::Heap => (&self.heap, HEAP_BASE),
            Region::Global => (&self.globals, GLOBAL_BASE),
            Region::Pm => {
                let p = &self.pools[self.pool_index_of(addr).expect("checked")];
                return p.bytes.read((addr - p.base) as usize, out);
            }
        };
        let off = (addr - base) as usize;
        out.copy_from_slice(&buf[off..off + out.len()]);
    }

    /// Calls `f` on the checked range `[addr, addr + len)`, passing each
    /// piece's offset within the range. PM writes split at page boundaries
    /// and copy a shared page before writing it.
    fn write(&mut self, region: Region, addr: u64, len: u64, mut f: impl FnMut(usize, &mut [u8])) {
        let (buf, base) = match region {
            Region::Stack => (&mut self.stack, STACK_BASE),
            Region::Heap => (&mut self.heap, HEAP_BASE),
            Region::Global => (&mut self.globals, GLOBAL_BASE),
            Region::Pm => {
                let i = self.pool_index_of(addr).expect("checked");
                let p = &mut self.pools[i];
                return p
                    .bytes
                    .write_with((addr - p.base) as usize, len as usize, f);
            }
        };
        let off = (addr - base) as usize;
        f(0, &mut buf[off..off + len as usize]);
    }

    // ----- loads and stores ---------------------------------------------------

    /// Stores `bytes` at `addr`, dirtying the covered PM cache lines.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn store(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let len = bytes.len() as u64;
        // Fast path: an access wholly inside the live stack segment — the
        // overwhelmingly common case (locals, spills) — needs no region
        // dispatch, no pool search, and no injector consult. Accounting is
        // identical to the general volatile path below.
        if addr >= STACK_BASE && len > 0 {
            if let Some(end) = addr.checked_add(len) {
                if end <= STACK_BASE + self.stack_top {
                    let off = (addr - STACK_BASE) as usize;
                    self.stack[off..off + len as usize].copy_from_slice(bytes);
                    self.stats.volatile_stores += 1;
                    self.stats.cycles += self.cost.dram_access;
                    return Ok(());
                }
            }
        }
        let region = self.check_range(addr, len)?;
        let mut write_len = len;
        if region.is_pm() {
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::TornStore) = inj.fire(pmfault::FaultSite::SimStore)
                {
                    if len >= 2 {
                        // Only the low half of the store lands; the upper
                        // bytes keep their stale contents (a torn store
                        // within the cache line).
                        write_len = len / 2;
                        inj.record(format!(
                            "sim.store: torn store at {addr:#x} ({write_len}/{len} bytes persisted)"
                        ));
                    }
                }
            }
        }
        self.write(region, addr, write_len, |at, piece| {
            piece.copy_from_slice(&bytes[at..at + piece.len()]);
        });
        if region.is_pm() {
            self.stats.pm_stores += 1;
            self.stats.cycles += self.cost.pm_store;
            self.dirty_lines.insert_range(addr, len);
        } else {
            self.stats.volatile_stores += 1;
            self.stats.cycles += self.cost.dram_access;
        }
        Ok(())
    }

    /// Loads `out.len()` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn load(&mut self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        let len = out.len() as u64;
        // Fast path: see `store` — same conditions, same accounting.
        if addr >= STACK_BASE && len > 0 {
            if let Some(end) = addr.checked_add(len) {
                if end <= STACK_BASE + self.stack_top {
                    let off = (addr - STACK_BASE) as usize;
                    out.copy_from_slice(&self.stack[off..off + len as usize]);
                    self.stats.volatile_loads += 1;
                    self.stats.cycles += self.cost.dram_access;
                    return Ok(());
                }
            }
        }
        let region = self.check_range(addr, len)?;
        if region.is_pm() {
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::MediaReadError) =
                    inj.fire(pmfault::FaultSite::SimMediaRead)
                {
                    inj.record(format!(
                        "sim.media-read: read error at {addr:#x} ({len} bytes)"
                    ));
                    return Err(MemError::MediaRead { addr });
                }
            }
        }
        self.read(region, addr, out);
        if region.is_pm() {
            self.stats.pm_loads += 1;
            self.stats.cycles += self.cost.pm_load;
        } else {
            self.stats.volatile_loads += 1;
            self.stats.cycles += self.cost.dram_access;
        }
        Ok(())
    }

    /// Loads a little-endian zero-extended integer of `len` bytes (1/2/4/8).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn load_int(&mut self, addr: u64, len: u8) -> Result<i64, MemError> {
        let mut buf = [0u8; 8];
        self.load(addr, &mut buf[..len as usize])?;
        Ok(i64::from_le_bytes(buf))
    }

    /// Stores the low `len` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn store_int(&mut self, addr: u64, len: u8, value: i64) -> Result<(), MemError> {
        let bytes = value.to_le_bytes();
        self.store(addr, &bytes[..len as usize])
    }

    /// `memcpy(dst, src, len)`. Regions may differ; overlap is not supported
    /// and yields the source snapshot semantics (a temporary buffer is used).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let src_region = self.check_range(src, len)?;
        let dst_region = self.check_range(dst, len)?;
        let mut tmp = vec![0; len as usize];
        self.read(src_region, src, &mut tmp);
        self.write(dst_region, dst, len, |at, piece| {
            piece.copy_from_slice(&tmp[at..at + piece.len()]);
        });
        self.account_bulk_write(dst_region, dst, len);
        self.stats.cycles += self.cost.bulk_byte * len.div_ceil(16);
        if src_region.is_pm() {
            self.stats.pm_loads += len.div_ceil(8);
        } else {
            self.stats.volatile_loads += len.div_ceil(8);
        }
        Ok(())
    }

    /// `memset(dst, val, len)`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn memset(&mut self, dst: u64, val: u8, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let region = self.check_range(dst, len)?;
        self.write(region, dst, len, |_, piece| piece.fill(val));
        self.account_bulk_write(region, dst, len);
        self.stats.cycles += self.cost.bulk_byte * len.div_ceil(16);
        Ok(())
    }

    fn account_bulk_write(&mut self, region: Region, dst: u64, len: u64) {
        let words = len.div_ceil(16);
        if region.is_pm() {
            self.stats.pm_stores += words;
            self.stats.cycles += self.cost.pm_store * words;
            self.dirty_lines.insert_range(dst, len);
        } else {
            self.stats.volatile_stores += words;
            self.stats.cycles += self.cost.dram_access * words;
        }
    }

    // ----- persistence operations ----------------------------------------------

    /// Executes a cache-line flush of the line containing `addr`.
    ///
    /// Weak flushes only schedule the write-back (completed at the next
    /// fence); `CLFLUSH` writes back synchronously. Flushing a volatile line
    /// is legal and costs real time — this is the waste the paper's
    /// interprocedural fixes avoid.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if `addr` is not a mapped address.
    pub fn flush(&mut self, kind: FlushKind, addr: u64) -> Result<(), MemError> {
        let region = self.check_range(addr, 1)?;
        self.stats.cycles += self.cost.flush_issue;
        let line = line_of(addr);
        if region.is_pm() {
            self.stats.pm_flushes += 1;
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::DroppedFlush) =
                    inj.fire(pmfault::FaultSite::SimFlush)
                {
                    // Silently dropped: the line stays dirty and no
                    // write-back is ever scheduled.
                    inj.record(format!("sim.flush: dropped flush of line {line:#x}"));
                    return Ok(());
                }
            }
            if !self.dirty_lines.contains(line) {
                self.stats.redundant_flushes += 1;
                return Ok(());
            }
            if kind.is_weakly_ordered() {
                self.pending_pm_lines.insert(line);
            } else {
                self.write_back_line(line);
                self.stats.pm_lines_drained += 1;
                self.stats.cycles += self.cost.pm_writeback;
            }
        } else {
            // A flush of volatile data starts its DRAM write-back
            // immediately (the bandwidth is consumed whether or not a fence
            // ever waits on it) — this is the §3.2 cost of intraprocedural
            // fixes landing in helpers that also run on DRAM.
            self.stats.volatile_flushes += 1;
            self.stats.volatile_lines_drained += 1;
            self.stats.cycles += self.cost.dram_writeback;
        }
        Ok(())
    }

    /// Executes a memory fence, draining all pending write-backs.
    pub fn fence(&mut self, kind: FenceKind) {
        self.stats.fences += 1;
        self.stats.cycles += match kind {
            FenceKind::Sfence => self.cost.sfence_base,
            FenceKind::Mfence => self.cost.mfence_base,
        };
        for line in self.pending_pm_lines.take_sorted() {
            self.write_back_line(line);
            self.stats.pm_lines_drained += 1;
            self.stats.cycles += self.cost.pm_writeback;
        }
        // Volatile write-backs were charged at issue; the fence only
        // orders them.
        self.pending_volatile_lines.clear();
    }

    /// Spontaneously evicts the (PM) cache line containing `addr`, writing it
    /// back if dirty. Models cache pressure; used by the do-no-harm property
    /// tests, which rely on eviction being *possible* at any time (paper
    /// Lemma 2).
    pub fn evict(&mut self, addr: u64) {
        let line = line_of(addr);
        if self.dirty_lines.contains(line) {
            self.write_back_line(line);
            self.pending_pm_lines.remove(line);
        }
    }

    fn write_back_line(&mut self, line: u64) {
        let Some(i) = self.pool_index_of(line) else {
            return;
        };
        let p = &self.pools[i];
        let pm = self.media.pool_mut(p.hint).expect("mapped pool has media");
        pm.bytes.copy_line_from(&p.bytes, (line - p.base) as usize);
        self.dirty_lines.remove(line);
    }

    // ----- crash simulation -----------------------------------------------------

    /// The durable state if the machine crashed right now (cache contents
    /// lost, pending write-backs *not* completed — the adversarial case).
    pub fn crash_image(&self) -> CrashImage {
        CrashImage::of_media(&self.media)
    }

    /// The durable state if the machine crashed right now *and* the pending
    /// write-backs in `completed` raced to the medium first. Line addresses
    /// not actually pending are ignored.
    pub fn crash_image_flushing(&self, completed: &[u64]) -> CrashImage {
        let mut media = self.media.clone();
        for &line in completed {
            if !self.pending_pm_lines.contains(line) {
                continue;
            }
            if let Some(i) = self.pool_index_of(line) {
                let p = &self.pools[i];
                let pm = media.pool_mut(p.hint).expect("media");
                pm.bytes.copy_line_from(&p.bytes, (line - p.base) as usize);
            }
        }
        CrashImage::of_media(&media)
    }

    /// The durable state if the machine crashed right now and exactly the
    /// cache lines in `persisted` made it to the medium first. Unlike
    /// [`Machine::crash_image_flushing`], *any* dirty line qualifies —
    /// cache eviction can persist a line that was never flushed (paper
    /// Lemma 2), so exploration must be able to pick arbitrary dirty
    /// subsets. Line addresses that are not dirty are ignored.
    pub fn crash_image_with_lines(&self, persisted: &[u64]) -> CrashImage {
        let mut media = self.media.clone();
        for &line in persisted {
            if !self.dirty_lines.contains(line) {
                continue;
            }
            if let Some(i) = self.pool_index_of(line) {
                let p = &self.pools[i];
                let pm = media.pool_mut(p.hint).expect("media");
                pm.bytes.copy_line_from(&p.bytes, (line - p.base) as usize);
            }
        }
        CrashImage::of_media(&media)
    }

    /// Lines with a scheduled-but-undrained write-back, in address order.
    pub fn pending_pm_lines(&self) -> Vec<u64> {
        self.pending_pm_lines.sorted()
    }

    /// Dirty (unflushed or undrained) PM lines, in address order.
    pub fn dirty_pm_lines(&self) -> Vec<u64> {
        self.dirty_lines.sorted()
    }

    /// Whether the PM line containing `addr` is dirty.
    pub fn is_line_dirty(&self, addr: u64) -> bool {
        self.dirty_lines.contains(line_of(addr))
    }

    /// Consumes the machine, returning the durable medium (for restart
    /// simulations). Equivalent to an orderly power-off *without* extra
    /// flushing: whatever was not drained is lost.
    pub fn into_media(self) -> PmMedia {
        self.media
    }

    /// Reads bytes without cost accounting or cache effects (debugger view).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid range.
    pub fn peek(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let region = self.check_range(addr, len)?;
        let mut out = vec![0; len as usize];
        self.read(region, addr, &mut out);
        Ok(out)
    }
}

fn align8(n: u64) -> u64 {
    align_up(n, 8)
}

fn align_up(n: u64, to: u64) -> u64 {
    n.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_frames_release() {
        let mut m = Machine::default();
        m.push_frame();
        let a = m.stack_alloc(16).unwrap();
        m.push_frame();
        let b = m.stack_alloc(16).unwrap();
        assert!(b > a);
        m.pop_frame();
        let c = m.stack_alloc(16).unwrap();
        assert_eq!(b, c, "frame memory is reused after pop");
        m.pop_frame();
    }

    #[test]
    fn heap_use_after_free_detected() {
        let mut m = Machine::default();
        let p = m.heap_alloc(32).unwrap();
        m.store(p, &[1, 2, 3]).unwrap();
        m.heap_free(p).unwrap();
        assert_eq!(m.store(p, &[4]), Err(MemError::UseAfterFree { addr: p }));
        assert_eq!(m.heap_free(p), Err(MemError::InvalidFree { addr: p }));
    }

    #[test]
    fn heap_out_of_bounds_detected() {
        let mut m = Machine::default();
        let p = m.heap_alloc(8).unwrap();
        assert!(m.store(p, &[0; 8]).is_ok());
        assert!(matches!(
            m.store(p + 4, &[0; 8]),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn null_deref_is_unmapped() {
        let mut m = Machine::default();
        assert_eq!(m.load_int(0, 8), Err(MemError::Unmapped { addr: 0 }));
    }

    #[test]
    fn store_without_flush_is_not_durable() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 7).unwrap();
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 0);
        assert!(m.is_line_dirty(p));
    }

    #[test]
    fn weak_flush_needs_fence() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 7).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        // Still racing: the adversarial crash image lacks the update.
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 0);
        // But the optimistic image (write-back won the race) has it.
        let img = m.crash_image_flushing(&m.pending_pm_lines());
        assert_eq!(img.pool_bytes(0).unwrap()[0], 7);
        m.fence(FenceKind::Sfence);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 7);
        assert!(!m.is_line_dirty(p));
    }

    #[test]
    fn clflush_is_synchronous() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 9).unwrap();
        m.flush(FlushKind::Clflush, p).unwrap();
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 9);
    }

    #[test]
    fn redundant_flush_counted() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 1).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        m.flush(FlushKind::Clwb, p).unwrap();
        assert_eq!(m.stats().redundant_flushes, 1);
    }

    #[test]
    fn volatile_flush_costs_drain_time() {
        let mut m = Machine::default();
        let p = m.heap_alloc(64).unwrap();
        m.store_int(p, 8, 1).unwrap();
        let before = m.stats().cycles;
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        let spent = m.stats().cycles - before;
        let c = m.cost_model();
        assert_eq!(
            spent,
            c.flush_issue + c.sfence_base + c.dram_writeback,
            "volatile flush pays issue + drain"
        );
        assert_eq!(m.stats().volatile_flushes, 1);
    }

    #[test]
    fn eviction_writes_back() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 3).unwrap();
        m.evict(p);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 3);
        assert!(!m.is_line_dirty(p));
    }

    #[test]
    fn restart_reattaches_pool() {
        let mut m = Machine::default();
        let p = m.map_pool(42, 256).unwrap();
        m.store_int(p + 8, 8, 77).unwrap();
        m.flush(FlushKind::Clwb, p + 8).unwrap();
        m.fence(FenceKind::Sfence);
        let media = m.into_media();
        let mut m2 = Machine::with_media(media, CostModel::default());
        let p2 = m2.map_pool(42, 256).unwrap();
        assert_eq!(p, p2);
        assert_eq!(m2.load_int(p2 + 8, 8).unwrap(), 77);
    }

    #[test]
    fn restart_loses_undrained_stores() {
        let mut m = Machine::default();
        let p = m.map_pool(42, 256).unwrap();
        m.store_int(p, 8, 1).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap(); // no fence!
        let media = m.into_media();
        let mut m2 = Machine::with_media(media, CostModel::default());
        let p2 = m2.map_pool(42, 256).unwrap();
        assert_eq!(m2.load_int(p2, 8).unwrap(), 0);
    }

    #[test]
    fn crash_image_with_lines_honors_any_dirty_line() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 256).unwrap();
        m.store_int(p, 8, 1).unwrap(); // dirty, never flushed
        m.store_int(p + 64, 8, 2).unwrap();
        m.flush(FlushKind::Clwb, p + 64).unwrap(); // pending
                                                   // Unflushed lines can still persist via eviction.
        let img = m.crash_image_with_lines(&[p]);
        assert_eq!(img.read_int(p, 8), Some(1));
        assert_eq!(img.read_int(p + 64, 8), Some(0));
        // crash_image_flushing only honors *pending* lines.
        let img = m.crash_image_flushing(&[p, p + 64]);
        assert_eq!(img.read_int(p, 8), Some(0));
        assert_eq!(img.read_int(p + 64, 8), Some(2));
        // Clean lines are ignored.
        m.fence(FenceKind::Sfence);
        let img = m.crash_image_with_lines(&[p + 64]);
        assert_eq!(img.read_int(p + 64, 8), Some(2));
    }

    #[test]
    fn pool_size_mismatch_rejected() {
        let mut m = Machine::default();
        m.map_pool(0, 128).unwrap();
        assert!(matches!(
            m.map_pool(0, 256),
            Err(MemError::PoolSizeMismatch { .. })
        ));
    }

    #[test]
    fn remapping_with_an_unaligned_size_succeeds() {
        // Regression: the already-mapped branch compared the caller's raw
        // size with the line-aligned pool length, so the second
        // `map_pool(7, 100)` failed with `have: 128, want: 100`.
        let mut m = Machine::default();
        let p = m.map_pool(7, 100).unwrap();
        assert_eq!(m.map_pool(7, 100), Ok(p));
        assert_eq!(m.map_pool(7, 128), Ok(p));
        assert_eq!(
            m.map_pool(7, 129),
            Err(MemError::PoolSizeMismatch {
                pool: 7,
                have: 128,
                want: 192
            })
        );
    }

    #[test]
    fn crash_images_and_boots_copy_only_written_pages() {
        use crate::pool::{copies, PAGE};
        const SIZE: u64 = 16 << 20;
        let mut m = Machine::default();
        let p = m.map_pool(300, SIZE).unwrap();
        // k persisted lines, each on its own page.
        let lines: Vec<u64> = (0..5u64).map(|i| p + i * 7 * PAGE as u64 + 128).collect();
        for (i, &line) in lines.iter().enumerate() {
            m.store_int(line, 8, i as i64 + 1).unwrap();
        }
        let before = copies::count();
        let img = m.crash_image_with_lines(&lines);
        let image_copies = copies::count() - before;
        assert!(
            image_copies <= lines.len() as u64,
            "{image_copies} page copies for {} persisted lines",
            lines.len()
        );

        // A recovery boot that only reads copies nothing.
        let before = copies::count();
        let mut boot = Machine::with_media(img.into_media(), CostModel::default());
        assert_eq!(boot.map_pool(300, SIZE), Ok(p));
        for (i, &line) in lines.iter().enumerate() {
            assert_eq!(boot.load_int(line, 8), Ok(i as i64 + 1));
        }
        assert_eq!(copies::count(), before, "reads copy no page");
        // Writing one fresh page and persisting it copies that page twice:
        // once into the cache view, once into the medium.
        let fresh = p + 3 * PAGE as u64;
        boot.store_int(fresh, 8, 9).unwrap();
        boot.flush(FlushKind::Clwb, fresh).unwrap();
        boot.fence(FenceKind::Sfence);
        assert_eq!(copies::count() - before, 2);
        // A page the image persisted a line into is the medium's own: the
        // cache view copies it, the write-back lands in place.
        boot.store_int(lines[1] + 8, 8, 9).unwrap();
        boot.flush(FlushKind::Clwb, lines[1] + 8).unwrap();
        boot.fence(FenceKind::Sfence);
        assert_eq!(copies::count() - before, 3);
        // The machine the image came from is untouched.
        assert_eq!(m.load_int(fresh, 8), Ok(0));
        assert_eq!(m.crash_image().read_int(lines[1], 8), Some(0));
    }

    #[test]
    fn memcpy_across_regions_dirties_pm() {
        let mut m = Machine::default();
        let pm = m.map_pool(0, 256).unwrap();
        let heap = m.heap_alloc(256).unwrap();
        m.store(heap, b"abcdefgh").unwrap();
        m.memcpy(pm, heap, 8).unwrap();
        assert!(m.is_line_dirty(pm));
        assert_eq!(m.peek(pm, 8).unwrap(), b"abcdefgh");
        // Crash image lacks it until flushed+fenced.
        assert_eq!(&m.crash_image().pool_bytes(0).unwrap()[..8], &[0; 8]);
    }

    #[test]
    fn multi_line_store_dirties_every_line() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 256).unwrap();
        m.memset(p + 60, 0xaa, 10).unwrap(); // spans two lines
        assert_eq!(m.dirty_pm_lines().len(), 2);
    }

    #[test]
    fn load_int_zero_extends() {
        let mut m = Machine::default();
        let p = m.heap_alloc(8).unwrap();
        m.store(p, &[0xff]).unwrap();
        assert_eq!(m.load_int(p, 1).unwrap(), 0xff);
    }

    #[test]
    fn global_init_visible() {
        let mut m = Machine::default();
        let g = m.add_global(16, b"hi").unwrap();
        assert_eq!(m.load_int(g, 1).unwrap(), i64::from(b'h'));
        assert_eq!(m.load_int(g + 2, 1).unwrap(), 0);
    }

    #[test]
    fn stack_oob_detected() {
        let mut m = Machine::default();
        m.push_frame();
        let a = m.stack_alloc(8).unwrap();
        assert!(matches!(
            m.store(a + 8, &[1]),
            Err(MemError::OutOfBounds { .. })
        ));
        m.pop_frame();
    }

    #[test]
    fn injected_torn_store_persists_half() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimStore,
            Trigger::Nth(0),
            FaultKind::TornStore,
        ))));
        m.store_int(p, 8, 0x1122_3344_5566_7788).unwrap();
        // Low 4 bytes landed; high 4 kept their stale zeroes.
        assert_eq!(m.load_int(p, 8).unwrap(), 0x5566_7788);
        assert_eq!(m.injected_faults().len(), 1);
        assert!(m.injected_faults()[0].contains("torn store"));
        // The next store is whole again (Nth trigger fired once).
        m.store_int(p + 8, 8, -1).unwrap();
        assert_eq!(m.load_int(p + 8, 8).unwrap(), -1);
    }

    #[test]
    fn injected_dropped_flush_leaves_line_dirty() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimFlush,
            Trigger::Nth(0),
            FaultKind::DroppedFlush,
        ))));
        m.store_int(p, 8, 7).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        // The flush was dropped: nothing reached the medium.
        assert_eq!(&m.crash_image().pool_bytes(0).unwrap()[..8], &[0; 8]);
        assert!(m.injected_faults()[0].contains("dropped flush"));
        // A second flush goes through.
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 7);
    }

    #[test]
    fn injected_media_read_error_is_structured() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.store_int(p, 8, 7).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimMediaRead,
            Trigger::Nth(0),
            FaultKind::MediaReadError,
        ))));
        assert!(matches!(m.load_int(p, 8), Err(MemError::MediaRead { addr }) if addr == p));
        // Volatile loads are not PM media reads and never fault here.
        let h = m.heap_alloc(8).unwrap();
        m.store_int(h, 8, 1).unwrap();
        assert_eq!(m.load_int(h, 8).unwrap(), 1);
    }
}
