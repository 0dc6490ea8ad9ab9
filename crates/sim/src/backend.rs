//! The block backend behind the simulator's disk.
//!
//! The access walk ([`StorageSystem::access_faulted`]) decides which
//! requests reach the disk and charges them through the cost model; a
//! [`BlockBackend`] decides what else a disk read does. [`Simulated`]
//! (`REAL = false`) does nothing, so the hook site compiles away and
//! `simulate` runs the pure model. A real-bytes backend (`flo-store`'s
//! replay) issues one pread per disk read, on the walk's exact schedule.
//!
//! [`StorageSystem::access_faulted`]: crate::system::StorageSystem::access_faulted

use crate::block::BlockAddr;

/// What a disk read touches beyond the modeled cost.
pub trait BlockBackend {
    /// Whether disk reads reach this backend. The walk skips the hook
    /// (and the optimizer deletes it) when `false`.
    const REAL: bool = true;

    /// One disk read of `block`, served by storage node `node`.
    fn read(&mut self, node: usize, block: BlockAddr);
}

/// The model-only backend: disk reads exist only as charged latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulated;

impl BlockBackend for Simulated {
    const REAL: bool = false;

    #[inline]
    fn read(&mut self, _node: usize, _block: BlockAddr) {}
}
