//! Page-based storage substrate.
//!
//! The paper's experimental setup (Section 8) keeps the R-tree in memory but
//! treats it as a disk-resident structure whose cost is measured in *node
//! accesses*, while each TIA (temporal index on the aggregate, implemented as
//! a multi-version B-tree) is disk-based with "a maximum of 10 buffer slots".
//! This crate provides that substrate:
//!
//! * [`Disk`] — an in-memory array of fixed-size byte pages standing in for a
//!   disk volume, with physical read/write counters.
//! * [`BufferPool`] — an O(1) LRU buffer over a [`Disk`] with a
//!   configurable number of slots (10 for TIAs in the paper's setup),
//!   hit/miss/eviction statistics and write-back of dirty pages.
//! * [`AccessStats`] — cheap shared counters used by every index layer to
//!   report logical node accesses (the paper's primary cost metric) and
//!   physical I/O.
//!
//! All types are `Send + Sync` (counters are atomic; the pool is internally
//! locked) so collective query processing can share them across threads.

#![warn(missing_docs)]

mod buffer;
mod disk;
mod lru;

pub use buffer::{BufferPool, BufferPoolConfig};
pub use disk::{Disk, PageId};
pub use knnta_obs::{AccessStats, StatsSnapshot};
pub use knnta_util::codec::{Bytes, BytesMut};
