//! A paged node store: tree nodes serialised onto [`pagestore::Disk`] pages
//! and read back through a [`BufferPool`] during search.
//!
//! The paper measures its R-tree in *logical node accesses* while keeping the
//! nodes memory resident; this module closes the gap to a genuinely
//! disk-resident tree. A [`PagedNodeStore`] snapshots every node of an
//! [`RStarTree`] into fixed-size pages (a node's byte image is chained across
//! as many pages as it needs — a 1024-byte node with large TIA summaries does
//! not fit one 1024-byte page), and serves [`PagedNodeStore::read_node`] by
//! pulling the chain through a replacement-policy-driven buffer pool, so every
//! node access becomes measurable page I/O with hit/miss statistics.
//!
//! Serialisation is delegated to a [`NodeCodec`] implemented by the index
//! layer, which knows the concrete item and augmentation types; the codec
//! contract is byte-exact round-tripping (`f64`s travel as raw bits), which is
//! what lets the query layer promise bit-identical results between the
//! in-memory and paged backends.

use crate::node::{Node, NodeId};
use crate::tree::{Augmentation, RStarTree};
use crate::strategy::GroupingStrategy;
use pagestore::{BufferPool, BufferPoolConfig, Bytes, BytesMut, Disk, PageId};
use std::marker::PhantomData;
use std::sync::Arc;

/// Encodes and decodes one node's byte image.
///
/// Implementations must round-trip exactly: `decode(encode(node))` yields a
/// node equal to the input field for field, with floats preserved bit for
/// bit.
pub trait NodeCodec<const D: usize, T, V> {
    /// Appends `node`'s byte image to `buf`.
    fn encode(&self, node: &Node<D, T, V>, buf: &mut BytesMut);
    /// Reconstructs a node from the front of `buf`.
    fn decode(&self, buf: &mut Bytes) -> Node<D, T, V>;
}

/// A read-only snapshot of a tree's nodes on paged storage.
///
/// Shared-reference reads are thread-safe (the buffer pool locks internally),
/// so concurrent best-first searches can run against a `&PagedNodeStore`
/// exactly as they run against a `&RStarTree`.
pub struct PagedNodeStore<const D: usize, T, V, C> {
    pool: BufferPool,
    /// `NodeId`-indexed page chains (the arena's ids are dense u32s).
    chains: Vec<Option<Vec<PageId>>>,
    root: NodeId,
    node_count: usize,
    empty: bool,
    codec: C,
    _marker: PhantomData<fn() -> (Node<D, T, V>,)>,
}

impl<const D: usize, T, V, C> PagedNodeStore<D, T, V, C>
where
    C: NodeCodec<D, T, V>,
{
    /// Serialises every node of `tree` onto a fresh disk with
    /// `page_size`-byte pages, read back through a buffer pool configured by
    /// `config`.
    ///
    /// Build-time writes go straight to the disk (they are part of
    /// materialisation, not of any measured query), so the pool starts cold
    /// and its hit/miss counters start at zero.
    pub fn build<A, S>(
        tree: &RStarTree<D, T, A, S>,
        codec: C,
        page_size: usize,
        config: BufferPoolConfig,
    ) -> Self
    where
        A: Augmentation<T, Value = V>,
        S: GroupingStrategy<D, V>,
    {
        let disk = Arc::new(Disk::new(page_size, pagestore::AccessStats::new()));
        let mut chains = Vec::new();
        let mut node_count = 0usize;
        for id in tree.node_ids() {
            let mut buf = BytesMut::new();
            codec.encode(tree.node(id), &mut buf);
            let image = buf.freeze();
            let mut chain = Vec::with_capacity(image.len() / page_size + 1);
            for chunk in image.as_slice().chunks(page_size.max(1)) {
                let page = disk.allocate();
                disk.write(page, Bytes::copy_from_slice(chunk));
                chain.push(page);
            }
            // Empty nodes (an empty root) still need a presence marker.
            if chain.is_empty() {
                let page = disk.allocate();
                disk.write(page, Bytes::new());
                chain.push(page);
            }
            let idx = id.0 as usize;
            if chains.len() <= idx {
                chains.resize(idx + 1, None);
            }
            chains[idx] = Some(chain);
            node_count += 1;
        }
        // The build wrote every page once; those physical writes are part of
        // materialisation, not of the measured query workload.
        disk.stats().reset();
        PagedNodeStore {
            pool: BufferPool::with_config(disk, config),
            chains,
            root: tree.root_id(),
            node_count,
            empty: tree.is_empty(),
            codec,
            _marker: PhantomData,
        }
    }

    /// Reads and decodes node `id` through the buffer pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the snapshotted tree.
    pub fn read_node(&self, id: NodeId) -> Node<D, T, V> {
        let chain = self
            .chains
            .get(id.0 as usize)
            .and_then(|c| c.as_ref())
            .unwrap_or_else(|| panic!("{id} is not in the paged snapshot"));
        let mut image = BytesMut::new();
        for &page in chain {
            image.put_slice(self.pool.read(page).as_slice());
        }
        let mut buf = image.freeze();
        self.codec.decode(&mut buf)
    }

    /// The snapshotted tree's root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Whether the snapshotted tree held no data items.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Number of snapshotted nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total pages allocated for the snapshot.
    pub fn page_count(&self) -> usize {
        self.pool.disk().len()
    }

    /// The buffer pool serving the reads (I/O statistics live in
    /// `pool().disk().stats()`).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Empties the buffer pool so the next reads measure cold-cache I/O.
    pub fn cool_down(&self) {
        self.pool.clear();
        self.pool.disk().stats().reset();
    }
}

impl<const D: usize, T, V, C> std::fmt::Debug for PagedNodeStore<D, T, V, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedNodeStore")
            .field("nodes", &self.node_count)
            .field("pages", &self.pool.disk().len())
            .field("root", &self.root)
            .field("config", &self.pool.config())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, EntryPayload};
    use crate::tree::NoAug;
    use crate::{RStarGrouping, RTreeParams, Rect};
    use pagestore::AccessStats;

    /// Test codec for `Node<2, u32, ()>`.
    struct U32Codec;

    impl NodeCodec<2, u32, ()> for U32Codec {
        fn encode(&self, node: &Node<2, u32, ()>, buf: &mut BytesMut) {
            buf.put_u32(node.level);
            buf.put_u32(node.entries.len() as u32);
            for e in &node.entries {
                for d in 0..2 {
                    buf.put_f64(e.rect.min[d]);
                }
                for d in 0..2 {
                    buf.put_f64(e.rect.max[d]);
                }
                match &e.payload {
                    EntryPayload::Child(id) => {
                        buf.put_u8(0);
                        buf.put_u32(id.0);
                    }
                    EntryPayload::Data(v) => {
                        buf.put_u8(1);
                        buf.put_u32(*v);
                    }
                }
            }
        }

        fn decode(&self, buf: &mut Bytes) -> Node<2, u32, ()> {
            let level = buf.get_u32();
            let n = buf.get_u32() as usize;
            let mut node = Node {
                level,
                entries: Vec::with_capacity(n),
            };
            for _ in 0..n {
                let min = [buf.get_f64(), buf.get_f64()];
                let max = [buf.get_f64(), buf.get_f64()];
                let payload = match buf.get_u8() {
                    0 => EntryPayload::Child(NodeId(buf.get_u32())),
                    _ => EntryPayload::Data(buf.get_u32()),
                };
                node.entries.push(Entry {
                    rect: Rect::new(min, max),
                    aug: (),
                    payload,
                });
            }
            node
        }
    }

    fn sample_tree(n: u32) -> RStarTree<2, u32, NoAug, RStarGrouping> {
        let mut tree = RStarTree::new(
            RTreeParams::with_max_entries(4),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        for i in 0..n {
            let x = (i % 17) as f64;
            let y = (i / 17) as f64;
            tree.insert(Rect::point([x, y]), i);
        }
        tree
    }

    fn assert_node_eq(a: &Node<2, u32, ()>, b: &Node<2, u32, ()>) {
        assert_eq!(a.level, b.level);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.rect.min.map(f64::to_bits), y.rect.min.map(f64::to_bits));
            assert_eq!(x.rect.max.map(f64::to_bits), y.rect.max.map(f64::to_bits));
            match (&x.payload, &y.payload) {
                (EntryPayload::Child(i), EntryPayload::Child(j)) => assert_eq!(i, j),
                (EntryPayload::Data(i), EntryPayload::Data(j)) => assert_eq!(i, j),
                _ => panic!("payload kind mismatch"),
            }
        }
    }

    #[test]
    fn round_trips_every_node_bit_exactly() {
        let tree = sample_tree(60);
        // 64-byte pages force multi-page chains (an entry alone is 37 bytes).
        let store =
            PagedNodeStore::build(&tree, U32Codec, 64, BufferPoolConfig::lru(4));
        assert_eq!(store.node_count(), tree.node_ids().len());
        assert!(store.page_count() > store.node_count(), "chains must span pages");
        for id in tree.node_ids() {
            assert_node_eq(&store.read_node(id), tree.node(id));
        }
    }

    #[test]
    fn reads_go_through_the_buffer_pool() {
        let tree = sample_tree(40);
        let store =
            PagedNodeStore::build(&tree, U32Codec, 256, BufferPoolConfig::lru(2));
        let stats = store.pool().disk().stats();
        assert_eq!(stats.snapshot().page_reads, 0, "build must not count reads");
        let root = store.root();
        let _ = store.read_node(root);
        let cold = stats.snapshot();
        assert!(cold.buffer_misses > 0);
        let _ = store.read_node(root);
        let warm = stats.snapshot().since(cold);
        assert_eq!(warm.buffer_misses, 0, "second read must hit");
        assert!(warm.buffer_hits > 0);
        store.cool_down();
        let _ = store.read_node(root);
        assert!(stats.snapshot().buffer_misses > 0, "cool_down must empty the pool");
    }

    #[test]
    fn empty_tree_round_trips() {
        let tree = sample_tree(0);
        let store =
            PagedNodeStore::build(&tree, U32Codec, 128, BufferPoolConfig::lru(2));
        assert!(store.is_empty());
        let node = store.read_node(store.root());
        assert_eq!(node.entries.len(), 0);
    }

    #[test]
    #[should_panic(expected = "not in the paged snapshot")]
    fn unknown_node_rejected() {
        let tree = sample_tree(3);
        let store =
            PagedNodeStore::build(&tree, U32Codec, 128, BufferPoolConfig::lru(2));
        let _ = store.read_node(NodeId(9999));
    }
}
