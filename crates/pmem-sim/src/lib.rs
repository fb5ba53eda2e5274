//! `pmem-sim` — a cache-line-accurate simulator of a machine with persistent
//! memory (PM).
//!
//! This crate stands in for the Intel Optane DC platform used in the
//! Hippocrates paper (ASPLOS '21). It models exactly the event algebra the
//! paper's §4 proofs are stated over:
//!
//! * stores land in a volatile CPU cache; a line is *dirty* until written
//!   back to the PM medium;
//! * weakly-ordered flushes (`CLWB`, `CLFLUSHOPT`) only *schedule* a
//!   write-back, which completes at the next fence;
//! * `CLFLUSH` writes back synchronously (strongly ordered);
//! * fences (`SFENCE`/`MFENCE`) drain pending write-backs, establishing the
//!   paper's durability ordering `X -> F(X) -> M -> I`;
//! * a crash discards the cache; only the medium survives.
//!
//! The simulator also owns the volatile address spaces (stack, heap,
//! globals) so the `pmvm` interpreter can stay a thin dispatch loop, and it
//! charges a configurable [`CostModel`] per operation so benchmark harnesses
//! can report simulated cycles.
//!
//! # Example
//!
//! ```
//! use pmem_sim::{Machine, FlushKind, FenceKind};
//!
//! let mut m = Machine::default();
//! let pool = m.map_pool(0, 4096).unwrap();
//! m.store(pool, &42i64.to_le_bytes()).unwrap();
//! assert_eq!(m.load_int(pool, 8).unwrap(), 42);
//! // Not yet durable: a crash image still holds the old bytes.
//! assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 0);
//! m.flush(FlushKind::Clwb, pool).unwrap();
//! m.fence(FenceKind::Sfence);
//! assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 42);
//! ```

pub mod cost;
pub mod crash;
pub mod error;
pub mod layout;
pub mod lineset;
pub mod machine;
pub mod media;
pub mod pool;
pub mod stats;

pub use cost::CostModel;
pub use crash::CrashImage;
pub use error::MemError;
pub use layout::{Region, CACHE_LINE};
pub use lineset::LineSet;
pub use machine::Machine;
pub use media::PmMedia;
pub use pool::{PoolBytes, PAGE};
pub use stats::MachineStats;

pub use kinds::{FenceKind, FlushKind};

/// Flush/fence kinds, mirrored from `pmir` to avoid a dependency edge (pmir
/// is the IR; pmem-sim is the machine; `pmvm` bridges the two).
mod kinds {
    /// Cache-line flush instruction family; see `pmir::FlushKind`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum FlushKind {
        /// Write back, keep the line cached; weakly ordered.
        Clwb,
        /// Write back and evict; weakly ordered.
        ClflushOpt,
        /// Write back and evict; strongly ordered (no fence needed).
        Clflush,
    }

    impl FlushKind {
        /// Whether a fence is required to order this flush.
        pub fn is_weakly_ordered(self) -> bool {
            !matches!(self, FlushKind::Clflush)
        }
    }

    /// Memory fence family; see `pmir::FenceKind`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum FenceKind {
        /// Orders stores and weak flushes.
        Sfence,
        /// Orders all memory operations.
        Mfence,
    }
}
