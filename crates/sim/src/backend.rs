//! The block backend behind the simulator's disk.
//!
//! The access walk ([`StorageSystem::access_faulted`]) decides which
//! requests reach the disk and charges them through the cost model; a
//! [`BlockBackend`] decides what else a disk read does. [`Simulated`]
//! does nothing in an inlined empty method, so the call compiles away
//! and `simulate` runs the pure model. A real-bytes backend (`flo-store`'s
//! replay) issues one pread per disk read, on the walk's exact schedule.
//!
//! [`StorageSystem::access_faulted`]: crate::system::StorageSystem::access_faulted

use crate::block::BlockAddr;

/// What a disk read touches beyond the modeled cost.
pub trait BlockBackend {
    /// One disk read of `block`.
    fn read(&mut self, block: BlockAddr);
}

/// The model-only backend: disk reads exist only as charged latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulated;

impl BlockBackend for Simulated {
    #[inline]
    fn read(&mut self, _block: BlockAddr) {}
}
