//! A packed, immutable, single-buffer static R-tree — the read-optimised
//! serving layout (flatbush-style bulk load, level-contiguous sections).
//!
//! Unlike [`crate::RStarTree`], which chases `NodeId` pointers through an
//! arena of heap-allocated nodes, a [`PackedTree`] is one contiguous
//! `Box<[u64]>` word buffer: a fixed header, a level directory, a node
//! directory, and per-entry column sections (boxes, targets, inline
//! temporal-aggregate prefix sums). Queries read straight out of the buffer
//! — no per-node allocation, no codec round-trip — and the buffer itself is
//! the serialisation format (`docs/FORMAT.md` is the normative byte-layout
//! spec, pinned by `tests/fixtures/packed_v2.golden`). A caller-owned word
//! section after the TIA records carries whatever else the caller needs the
//! file to hold (the TAR-tree stores its configuration, bounds and epoch
//! grid there).
//!
//! The tree is bulk-packed bottom-up from a caller-sorted item sequence
//! (callers sort by Hilbert key — see `knnta_util::hilbert`): items are cut
//! into full leaves of `leaf_cap` entries, then each level's nodes are
//! grouped `internal_cap` at a time into parents, in sequence, until a
//! single root remains. Node `node_count() - 1` is always the root; nodes
//! `0..leaf_count()` are always the leaves.
//!
//! This module is format-generic: it stores opaque `u64` targets and opaque
//! `(epoch, cumulative)` prefix records, and delegates the semantic merge of
//! child aggregate blocks to a caller closure. The TAR-tree semantics
//! (per-epoch MAX summaries, `tempora` prefix encoding) live in
//! `knnta-core`'s packed backend.

use std::ops::Range;

/// The 8-byte magic at word 0: `KNTAPAK1` in ASCII, read as little-endian.
pub const PACKED_MAGIC: u64 = u64::from_le_bytes(*b"KNTAPAK1");

/// The format version this module reads and writes (header word 1). Version
/// 2 added the caller-owned section after the TIA records.
pub const PACKED_VERSION: u64 = 2;

/// Number of `u64` words in the fixed header.
pub const PACKED_HEADER_WORDS: usize = 16;

// Header word indices (see docs/FORMAT.md §2).
const H_MAGIC: usize = 0;
const H_VERSION: usize = 1;
const H_NODE_COUNT: usize = 2;
const H_ENTRY_COUNT: usize = 3;
const H_ITEM_COUNT: usize = 4;
const H_LEVEL_COUNT: usize = 5;
const H_TOTAL_WORDS: usize = 6;
const H_TIA_RECORDS: usize = 7;
const H_OFF_LEVEL_DIR: usize = 8;
const H_OFF_NODE_DIR: usize = 9;
const H_OFF_BOXES: usize = 10;
const H_OFF_TARGETS: usize = 11;
const H_OFF_TIA_DIR: usize = 12;
const H_OFF_TIA: usize = 13;
const H_META0: usize = 14;
const H_META1: usize = 15;

/// One input item for [`PackedTree::pack`]: a sort key, a 2-D box, an opaque
/// target word, and the item's temporal-aggregate prefix records.
#[derive(Debug, Clone)]
pub struct PackItem {
    /// Bulk-load sort key (callers use a Hilbert rank); items are packed in
    /// ascending `(key, target)` order.
    pub key: u64,
    /// Entry box as `[min_x, min_y, max_x, max_y]` (a point item repeats its
    /// coordinates).
    pub rect: [f64; 4],
    /// Opaque target word (leaf item identifier).
    pub target: u64,
    /// Inclusive prefix records `(epoch, cumulative)` in strictly ascending
    /// epoch order — the inline TIA block of this entry.
    pub tia: Vec<(u64, u64)>,
}

/// A borrowed inline TIA block: interleaved `(epoch, cumulative)` prefix
/// records, `2·r` words for `r` records.
#[derive(Debug, Clone, Copy)]
pub struct TiaBlock<'a>(pub &'a [u64]);

impl<'a> TiaBlock<'a> {
    /// Number of `(epoch, cumulative)` records in the block.
    pub fn records(&self) -> usize {
        self.0.len() / 2
    }

    /// The record pairs, decoded.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.0.chunks_exact(2).map(|c| (c[0], c[1]))
    }

    /// Cumulative total of every epoch strictly before `epoch` — the packed
    /// twin of `tempora::PrefixSums::cum_before` (binary search over the
    /// record epochs, then the previous record's cumulative, or 0).
    pub fn cum_before(&self, epoch: usize) -> u64 {
        let n = self.records();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (self.0[2 * mid] as usize) < epoch {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            0
        } else {
            self.0[2 * lo - 1]
        }
    }

    /// Exact aggregate over the half-open epoch range — two prefix lookups,
    /// matching `tempora::PrefixSums::sum_range` result-for-result.
    pub fn sum_range(&self, range: Range<usize>) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        self.cum_before(range.end) - self.cum_before(range.start)
    }
}

/// A view of one packed node: its level class (leaf / internal) and the
/// absolute indices of its entries in the column sections.
#[derive(Debug, Clone)]
pub struct PackedNode {
    leaf: bool,
    entries: Range<usize>,
}

impl PackedNode {
    /// Whether this node is on the leaf level (its targets are items, not
    /// child nodes).
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Absolute entry indices of this node, for the per-entry accessors on
    /// [`PackedTree`].
    pub fn entries(&self) -> Range<usize> {
        self.entries.clone()
    }

    /// Number of entries in this node.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the node has no entries (only the root of an empty tree).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A packed immutable R-tree over one contiguous `u64` word buffer.
///
/// Build with [`PackedTree::pack`], serialise with [`PackedTree::to_bytes`]
/// / [`PackedTree::from_bytes`] (the byte image **is** the format — see
/// `docs/FORMAT.md`), and traverse with [`PackedTree::node`] plus the
/// per-entry accessors.
///
/// ```
/// use rtree::{PackItem, PackedTree};
///
/// // Three point items with one-record prefix blocks, already in key order.
/// let items = (0..3u64)
///     .map(|i| PackItem {
///         key: i,
///         rect: [i as f64, 0.0, i as f64, 0.0],
///         target: 100 + i,
///         tia: vec![(0, i + 1)],
///     })
///     .collect();
/// // cap = 2 ⇒ two leaves under one root; parent blocks via a max-merge;
/// // one caller-owned word after the TIA records.
/// let tree = PackedTree::pack(2, 2, items, [7, 0], &[42], |blocks| {
///     let cum = blocks.iter().map(|b| b.last().unwrap().1).max().unwrap();
///     vec![(0, cum)]
/// });
/// assert_eq!((tree.node_count(), tree.leaf_count()), (3, 2));
/// let root = tree.node(tree.root());
/// assert!(!root.is_leaf());
/// assert_eq!(tree.caller_words(), &[42]);
/// // The buffer round-trips byte-for-byte.
/// let copy = PackedTree::from_bytes(&tree.to_bytes()).unwrap();
/// assert_eq!(copy.to_bytes(), tree.to_bytes());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTree {
    words: Box<[u64]>,
    // Cached copies of header offsets and counts, derived from `words` at
    // construction and never serialised: the per-entry accessors sit on the
    // query hot path, and re-loading the header words on every call costs
    // measurably more than these plain fields.
    off_node_dir: usize,
    off_boxes: usize,
    off_targets: usize,
    off_tia_dir: usize,
    off_tia: usize,
    node_count: usize,
    leaf_count: usize,
}

/// Intermediate node under construction: per-entry boxes, targets, blocks.
struct BuildNode {
    rects: Vec<[f64; 4]>,
    targets: Vec<u64>,
    tias: Vec<Vec<(u64, u64)>>,
}

/// The bounding box of `rects`: what a parent entry stores for its child.
fn bounding_rect(rects: impl IntoIterator<Item = [f64; 4]>) -> [f64; 4] {
    let mut r = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
    for e in rects {
        r[0] = r[0].min(e[0]);
        r[1] = r[1].min(e[1]);
        r[2] = r[2].max(e[2]);
        r[3] = r[3].max(e[3]);
    }
    r
}

impl PackedTree {
    /// Bulk-packs `items` into a static tree with `leaf_cap` entries per
    /// leaf and `internal_cap` entries per internal node.
    ///
    /// Items are sorted by `(key, target)` (ascending) and cut into full
    /// leaves of `leaf_cap` entries; parents are then formed over
    /// consecutive runs of `internal_cap` child nodes per level until a
    /// single root remains — the classic flatbush packing, which preserves
    /// the caller's (Hilbert) locality order at every level. The two caps
    /// may differ (the node directory records each node's extent
    /// explicitly): serving trees want small leaves, whose entries a query
    /// must score one by one, under a wide shallow directory, whose nodes
    /// it mostly skips. `meta` is stored verbatim in the two caller-owned
    /// header words, and `caller` verbatim as the caller-owned section that
    /// closes the image.
    ///
    /// `merge` combines the inline TIA blocks of one child node's entries
    /// into the block of the parent entry that points at it (the TAR-tree
    /// passes a per-epoch MAX merge). Blocks handed to `merge` are decoded
    /// `(epoch, cumulative)` pairs; the returned block must again be in
    /// strictly ascending epoch order.
    ///
    /// An empty `items` packs as a single zero-entry leaf root, so queries
    /// need no special case.
    ///
    /// # Panics
    ///
    /// Panics if either cap is `< 2` or a TIA block's epochs are not
    /// strictly ascending.
    pub fn pack(
        leaf_cap: usize,
        internal_cap: usize,
        mut items: Vec<PackItem>,
        meta: [u64; 2],
        caller: &[u64],
        merge: impl Fn(&[Vec<(u64, u64)>]) -> Vec<(u64, u64)>,
    ) -> PackedTree {
        assert!(
            leaf_cap >= 2 && internal_cap >= 2,
            "packed fanout must be at least 2, got leaf {leaf_cap} / internal {internal_cap}"
        );
        items.sort_by_key(|it| (it.key, it.target));
        let item_count = items.len();

        // Leaves: consecutive runs of `leaf_cap` items.
        let mut level: Vec<BuildNode> = items
            .chunks(leaf_cap)
            .map(|run| BuildNode {
                rects: run.iter().map(|it| it.rect).collect(),
                targets: run.iter().map(|it| it.target).collect(),
                tias: run.iter().map(|it| it.tia.clone()).collect(),
            })
            .collect();
        if level.is_empty() {
            level.push(BuildNode { rects: vec![], targets: vec![], tias: vec![] });
        }
        for node in &level {
            for tia in &node.tias {
                assert!(
                    tia.windows(2).all(|w| w[0].0 < w[1].0),
                    "TIA block epochs must be strictly ascending"
                );
            }
        }

        // Upper levels: group `internal_cap` consecutive child nodes per
        // parent. The first node of each level is recorded so the level
        // directory can be emitted leaves-first.
        let mut levels: Vec<Vec<BuildNode>> = vec![level];
        while levels.last().expect("at least the leaf level").len() > 1 {
            let children = levels.last().expect("non-empty");
            let mut base = 0u64;
            for l in &levels[..levels.len() - 1] {
                base += l.len() as u64;
            }
            let parents: Vec<BuildNode> = children
                .chunks(internal_cap)
                .enumerate()
                .map(|(chunk, run)| BuildNode {
                    rects: run.iter().map(|c| bounding_rect(c.rects.iter().copied())).collect(),
                    targets: (0..run.len())
                        .map(|i| base + (chunk * internal_cap + i) as u64)
                        .collect(),
                    tias: run.iter().map(|c| merge(&c.tias)).collect(),
                })
                .collect();
            levels.push(parents);
        }

        // Emit: header, level_dir, node_dir, boxes, targets, tia_dir, tia,
        // caller.
        let node_count: usize = levels.iter().map(|l| l.len()).sum();
        let entry_count: usize = levels
            .iter()
            .map(|l| l.iter().map(|n| n.targets.len()).sum::<usize>())
            .sum();
        let tia_records: usize = levels
            .iter()
            .map(|l| l.iter().map(|n| n.tias.iter().map(Vec::len).sum::<usize>()).sum::<usize>())
            .sum();
        let level_count = levels.len();

        let off_level_dir = PACKED_HEADER_WORDS;
        let off_node_dir = off_level_dir + level_count + 1;
        let off_boxes = off_node_dir + node_count + 1;
        let off_targets = off_boxes + 4 * entry_count;
        let off_tia_dir = off_targets + entry_count;
        let off_tia = off_tia_dir + entry_count + 1;
        let off_caller = off_tia + 2 * tia_records;
        let total_words = off_caller + caller.len();

        let mut w = vec![0u64; total_words];
        w[H_MAGIC] = PACKED_MAGIC;
        w[H_VERSION] = PACKED_VERSION;
        w[H_NODE_COUNT] = node_count as u64;
        w[H_ENTRY_COUNT] = entry_count as u64;
        w[H_ITEM_COUNT] = item_count as u64;
        w[H_LEVEL_COUNT] = level_count as u64;
        w[H_TOTAL_WORDS] = total_words as u64;
        w[H_TIA_RECORDS] = tia_records as u64;
        w[H_OFF_LEVEL_DIR] = off_level_dir as u64;
        w[H_OFF_NODE_DIR] = off_node_dir as u64;
        w[H_OFF_BOXES] = off_boxes as u64;
        w[H_OFF_TARGETS] = off_targets as u64;
        w[H_OFF_TIA_DIR] = off_tia_dir as u64;
        w[H_OFF_TIA] = off_tia as u64;
        w[H_META0] = meta[0];
        w[H_META1] = meta[1];

        let mut node_idx = 0usize;
        let mut entry_idx = 0usize;
        let mut record_idx = 0usize;
        for (l, nodes) in levels.iter().enumerate() {
            w[off_level_dir + l] = node_idx as u64;
            for node in nodes {
                w[off_node_dir + node_idx] = entry_idx as u64;
                node_idx += 1;
                for ((rect, target), tia) in
                    node.rects.iter().zip(&node.targets).zip(&node.tias)
                {
                    for (d, &c) in rect.iter().enumerate() {
                        w[off_boxes + 4 * entry_idx + d] = c.to_bits();
                    }
                    w[off_targets + entry_idx] = *target;
                    w[off_tia_dir + entry_idx] = record_idx as u64;
                    for &(epoch, cum) in tia {
                        w[off_tia + 2 * record_idx] = epoch;
                        w[off_tia + 2 * record_idx + 1] = cum;
                        record_idx += 1;
                    }
                    entry_idx += 1;
                }
            }
        }
        w[off_level_dir + level_count] = node_idx as u64;
        w[off_node_dir + node_count] = entry_idx as u64;
        w[off_tia_dir + entry_count] = record_idx as u64;
        w[off_caller..].copy_from_slice(caller);
        debug_assert_eq!(
            (node_idx, entry_idx, record_idx),
            (node_count, entry_count, tia_records)
        );

        PackedTree::from_words(w.into_boxed_slice())
    }

    /// Wraps a (validated) word buffer, caching the hot-path header fields.
    fn from_words(words: Box<[u64]>) -> PackedTree {
        let node_count = words[H_NODE_COUNT] as usize;
        let leaf_count = words[words[H_OFF_LEVEL_DIR] as usize + 1] as usize;
        PackedTree {
            off_node_dir: words[H_OFF_NODE_DIR] as usize,
            off_boxes: words[H_OFF_BOXES] as usize,
            off_targets: words[H_OFF_TARGETS] as usize,
            off_tia_dir: words[H_OFF_TIA_DIR] as usize,
            off_tia: words[H_OFF_TIA] as usize,
            node_count,
            leaf_count,
            words,
        }
    }

    // --- header accessors ---------------------------------------------------

    /// Total nodes across all levels; the root is `node_count() - 1`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total entries across all nodes.
    pub fn entry_count(&self) -> usize {
        self.words[H_ENTRY_COUNT] as usize
    }

    /// Number of leaf items packed into the tree.
    pub fn item_count(&self) -> usize {
        self.words[H_ITEM_COUNT] as usize
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.item_count() == 0
    }

    /// Number of levels (1 for a tree that is a single leaf).
    pub fn level_count(&self) -> usize {
        self.words[H_LEVEL_COUNT] as usize
    }

    /// Number of leaf nodes — nodes `0..leaf_count()` are the leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of leaf entries — entries `0..leaf_entry_count()` are the
    /// leaves' entries.
    pub fn leaf_entry_count(&self) -> usize {
        self.words[self.off_node_dir + self.leaf_count] as usize
    }

    /// Total `(epoch, cumulative)` records in the TIA section.
    pub fn tia_records(&self) -> usize {
        self.words[H_TIA_RECORDS] as usize
    }

    /// The two caller-owned metadata header words, verbatim.
    pub fn meta(&self) -> [u64; 2] {
        [self.words[H_META0], self.words[H_META1]]
    }

    /// The caller-owned section after the TIA records, verbatim.
    pub fn caller_words(&self) -> &[u64] {
        &self.words[self.off_tia + 2 * self.tia_records()..]
    }

    /// Index of the root node (always the last node).
    pub fn root(&self) -> usize {
        self.node_count() - 1
    }

    /// The raw word buffer (the serialised form, pre byte-flattening).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    // --- node / entry accessors ---------------------------------------------

    /// The node at `index` (`0 <= index < node_count()`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> PackedNode {
        assert!(index < self.node_count, "node {index} out of range");
        let dir = self.off_node_dir;
        PackedNode {
            leaf: index < self.leaf_count,
            entries: self.words[dir + index] as usize..self.words[dir + index + 1] as usize,
        }
    }

    /// Entry box (absolute entry index) as `[min_x, min_y, max_x, max_y]`.
    pub fn entry_rect(&self, entry: usize) -> [f64; 4] {
        let off = self.off_boxes + 4 * entry;
        let b: [u64; 4] = self.words[off..off + 4].try_into().expect("4 box words");
        b.map(f64::from_bits)
    }

    /// The bounding box of node `index`'s entries — bit for bit the box
    /// [`PackedTree::pack`] gives the parent entry that targets it.
    pub fn node_rect(&self, index: usize) -> [f64; 4] {
        bounding_rect(self.node(index).entries().map(|e| self.entry_rect(e)))
    }

    /// Entry target word (child node index for internal nodes, item
    /// identifier for leaves).
    pub fn entry_target(&self, entry: usize) -> u64 {
        self.words[self.off_targets + entry]
    }

    /// The entry's inline TIA prefix block.
    pub fn entry_tia(&self, entry: usize) -> TiaBlock<'_> {
        let dir = self.off_tia_dir;
        let start = self.words[dir + entry] as usize;
        let end = self.words[dir + entry + 1] as usize;
        TiaBlock(&self.words[self.off_tia + 2 * start..self.off_tia + 2 * end])
    }

    // --- serialisation ------------------------------------------------------

    /// Serialises the buffer to little-endian bytes — the normative v2
    /// on-disk image (`docs/FORMAT.md`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in self.words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialises and validates a v2 byte image produced by
    /// [`PackedTree::to_bytes`].
    ///
    /// Validation is structural: magic, version, word-aligned length, header
    /// counts and offsets within the buffer and every section in order,
    /// monotone directories that close at the header counts, and the shape
    /// [`PackedTree::pack`] emits — non-empty levels and nodes, the root
    /// alone on top, and internal entries that target the nodes of the level
    /// below in order, each exactly once. A buffer that passes cannot make
    /// the accessors read out of bounds; whatever follows the TIA records is
    /// the caller's section. Box and TIA contents are not checked: a caller
    /// compares each internal entry with the child it targets
    /// ([`PackedTree::node_rect`] and its own merge).
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTree, String> {
        if bytes.len() % 8 != 0 {
            return Err(format!("packed buffer length {} is not word-aligned", bytes.len()));
        }
        let words: Box<[u64]> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        if words.len() < PACKED_HEADER_WORDS {
            return Err("packed buffer shorter than the header".into());
        }
        if words[H_MAGIC] != PACKED_MAGIC {
            return Err(format!("bad magic {:#018x} (want KNTAPAK1)", words[H_MAGIC]));
        }
        if words[H_VERSION] != PACKED_VERSION {
            return Err(format!(
                "unsupported packed format version {} (this build reads v{PACKED_VERSION})",
                words[H_VERSION]
            ));
        }
        if words[H_TOTAL_WORDS] as usize != words.len() {
            return Err(format!(
                "truncated or padded image: the header says {} words, the buffer has {}",
                words[H_TOTAL_WORDS],
                words.len()
            ));
        }
        // Every count and offset is bounded by the buffer's length before any
        // sum, so none of the arithmetic below can overflow.
        let len = words.len();
        let word = |h: usize, name: &str| match usize::try_from(words[h]) {
            Ok(v) if v <= len => Ok(v),
            _ => Err(format!("header {name} {} exceeds the image's {len} words", words[h])),
        };
        let n = word(H_NODE_COUNT, "node_count")?;
        let e = word(H_ENTRY_COUNT, "entry_count")?;
        let l = word(H_LEVEL_COUNT, "level_count")?;
        let r = word(H_TIA_RECORDS, "tia_records")?;
        if n == 0 || l == 0 {
            return Err("packed tree must have at least one node and level".into());
        }
        let sections = [
            (H_OFF_LEVEL_DIR, l + 1, "level_dir"),
            (H_OFF_NODE_DIR, n + 1, "node_dir"),
            (H_OFF_BOXES, 4 * e, "boxes"),
            (H_OFF_TARGETS, e, "targets"),
            (H_OFF_TIA_DIR, e + 1, "tia_dir"),
            (H_OFF_TIA, 2 * r, "tia"),
        ];
        let mut expect = PACKED_HEADER_WORDS;
        for (h, section_len, name) in sections {
            let off = word(h, name)?;
            if off != expect {
                return Err(format!("section {name} at word {off}, expected {expect}"));
            }
            expect = off + section_len;
            if expect > len {
                return Err(format!("section {name} ends at word {expect}, buffer has {len}"));
            }
        }
        let section = |h: usize, count: usize| &words[words[h] as usize..][..count];
        let (level_dir, node_dir, tia_dir) = (
            section(H_OFF_LEVEL_DIR, l + 1),
            section(H_OFF_NODE_DIR, n + 1),
            section(H_OFF_TIA_DIR, e + 1),
        );
        for (d, total, name) in [(level_dir, n, "level"), (node_dir, e, "node"), (tia_dir, r, "tia")] {
            if d[0] != 0 || d[d.len() - 1] as usize != total || d.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{name} directory is not monotone 0..={total}"));
            }
        }
        // The shape `pack` emits: no empty level, the root alone on top, no
        // empty node but the root of an empty tree, and the internal
        // entries, in order, targeting nodes 0, 1, 2, … — so level `l`'s
        // entries point at level `l − 1`'s nodes, each exactly once.
        if level_dir.windows(2).any(|w| w[0] == w[1]) || level_dir[l] - level_dir[l - 1] != 1 {
            return Err("level directory: a level is empty or the top one is not the root alone".into());
        }
        if n > 1 && node_dir.windows(2).any(|w| w[0] == w[1]) {
            return Err("node directory: an internal node or a leaf is empty".into());
        }
        let leaf_entries = node_dir[level_dir[1] as usize] as usize;
        if e - leaf_entries != n - 1 {
            return Err(format!(
                "child target: {} internal entries for {} non-root nodes",
                e - leaf_entries,
                n - 1
            ));
        }
        for level in 1..l {
            let first = node_dir[level_dir[level] as usize] as usize;
            if first - leaf_entries != level_dir[level - 1] as usize {
                return Err(format!(
                    "level directory: level {level} does not open on level {}'s first child",
                    level - 1
                ));
            }
        }
        let targets = section(H_OFF_TARGETS, e);
        if let Some(child) = (0..n - 1).find(|&c| targets[leaf_entries + c] != c as u64) {
            return Err(format!(
                "child target: internal entry {} targets node {}, not node {child}",
                leaf_entries + child,
                targets[leaf_entries + child]
            ));
        }
        Ok(PackedTree::from_words(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: u64) -> Vec<PackItem> {
        (0..n)
            .map(|i| PackItem {
                key: i ^ (i >> 1), // scrambled so pack() has to sort
                rect: [i as f64, 2.0 * i as f64, i as f64 + 1.0, 2.0 * i as f64 + 1.0],
                target: 1000 + i,
                tia: vec![(0, i + 1), (2, 2 * i + 3)],
            })
            .collect()
    }

    /// A union-of-last-cums merge, good enough for structural tests.
    fn sum_merge(blocks: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
        let cum: u64 = blocks.iter().filter_map(|b| b.last().map(|p| p.1)).sum();
        vec![(0, cum)]
    }

    #[test]
    fn packs_expected_shape() {
        let t = PackedTree::pack(4, 4, items(21), [9, 10], &[], sum_merge);
        // 21 items / cap 4 ⇒ 6 leaves ⇒ 2 internal ⇒ 1 root.
        assert_eq!(t.leaf_count(), 6);
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.level_count(), 3);
        assert_eq!(t.item_count(), 21);
        assert_eq!(t.leaf_entry_count(), 21);
        assert_eq!(t.root(), 8);
        assert_eq!(t.meta(), [9, 10]);
        assert!(!t.node(t.root()).is_leaf());
        assert!(t.node(0).is_leaf());
        // Every leaf target is an item id; every internal target is a child.
        let mut seen_items = Vec::new();
        for ni in 0..t.node_count() {
            let node = t.node(ni);
            for ei in node.entries() {
                if node.is_leaf() {
                    seen_items.push(t.entry_target(ei));
                } else {
                    assert!((t.entry_target(ei) as usize) < ni);
                }
            }
        }
        seen_items.sort_unstable();
        assert_eq!(seen_items, (1000..1021).collect::<Vec<_>>());
    }

    #[test]
    fn parent_boxes_contain_children() {
        let t = PackedTree::pack(4, 4, items(33), [0, 0], &[], sum_merge);
        for ni in t.leaf_count()..t.node_count() {
            let node = t.node(ni);
            for ei in node.entries() {
                let parent = t.entry_rect(ei);
                let child = t.node(t.entry_target(ei) as usize);
                for ci in child.entries() {
                    let c = t.entry_rect(ci);
                    assert!(parent[0] <= c[0] && parent[1] <= c[1]);
                    assert!(parent[2] >= c[2] && parent[3] >= c[3]);
                }
            }
        }
    }

    #[test]
    fn tia_prefix_lookups() {
        let t = PackedTree::pack(4, 4, items(8), [0, 0], &[], sum_merge);
        // Find the leaf entry for item 1003: tia = [(0,4),(2,9)].
        let entry = (0..t.entry_count())
            .find(|&e| t.entry_target(e) == 1003)
            .expect("item present");
        let tia = t.entry_tia(entry);
        assert_eq!(tia.records(), 2);
        assert_eq!(tia.cum_before(0), 0);
        assert_eq!(tia.cum_before(1), 4);
        assert_eq!(tia.cum_before(2), 4);
        assert_eq!(tia.cum_before(3), 9);
        assert_eq!(tia.cum_before(99), 9);
        assert_eq!(tia.sum_range(0..3), 9);
        assert_eq!(tia.sum_range(1..3), 5);
        assert_eq!(tia.sum_range(2..2), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = tia.sum_range(3..1);
        assert_eq!(reversed, 0);
    }

    #[test]
    fn empty_tree_is_a_single_empty_leaf() {
        let t = PackedTree::pack(4, 4, Vec::new(), [0, 0], &[], sum_merge);
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.level_count(), 1);
        assert_eq!(t.root(), 0);
        let root = t.node(0);
        assert!(root.is_leaf() && root.is_empty());
        let rt = PackedTree::from_bytes(&t.to_bytes()).expect("round-trip");
        assert_eq!(rt, t);
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let t = PackedTree::pack(5, 5, items(40), [3, 77], &[5, 6], sum_merge);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.words().len() * 8);
        let rt = PackedTree::from_bytes(&bytes).expect("round-trip");
        assert_eq!(rt, t);
        assert_eq!(rt.to_bytes(), bytes);
        assert_eq!(rt.caller_words(), &[5, 6]);
    }

    #[test]
    fn rejects_corrupted_buffers() {
        let t = PackedTree::pack(4, 4, items(10), [0, 0], &[], sum_merge);
        let good = t.to_bytes();
        assert!(PackedTree::from_bytes(&good[..good.len() - 3]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(PackedTree::from_bytes(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(PackedTree::from_bytes(&bad_version).is_err());
        let mut truncated = good.clone();
        truncated.truncate(good.len() - 8);
        assert!(PackedTree::from_bytes(&truncated).is_err());
        // A header count past the buffer is an error before any offset sum
        // could wrap.
        for h in [H_NODE_COUNT, H_ENTRY_COUNT, H_LEVEL_COUNT, H_TIA_RECORDS] {
            let mut huge = good.clone();
            huge[8 * h..8 * h + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(PackedTree::from_bytes(&huge).unwrap_err().contains("exceeds"));
        }
        // Point an internal entry at a later node: out of packing order.
        let n = t.node_count();
        let root_first_entry = {
            let dir = t.words()[H_OFF_NODE_DIR] as usize;
            t.words()[dir + t.root()] as usize
        };
        let mut cyclic = good.clone();
        let off = (t.words()[H_OFF_TARGETS] as usize + root_first_entry) * 8;
        cyclic[off..off + 8].copy_from_slice(&(n as u64 - 1).to_le_bytes());
        assert!(PackedTree::from_bytes(&cyclic).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_fanout() {
        let _ = PackedTree::pack(1, 4, items(4), [0, 0], &[], sum_merge);
    }

    /// The worked example of `docs/FORMAT.md` §10, word for word — if this
    /// test and the doc ever disagree, one of them drifted.
    #[test]
    fn format_md_worked_example() {
        let items = (0..3u64)
            .map(|i| PackItem {
                key: i,
                rect: [i as f64, 0.0, i as f64, 0.0],
                target: 100 + i,
                tia: vec![(0, i + 1)],
            })
            .collect();
        let tree = PackedTree::pack(2, 2, items, [7, 0], &[42], |blocks| {
            let cum = blocks.iter().map(|b| b.last().unwrap().1).max().unwrap();
            vec![(0, cum)]
        });
        let f = f64::to_bits;
        #[rustfmt::skip]
        let want: Vec<u64> = vec![
            // header (words 0–15)
            PACKED_MAGIC, 2, 3, 5, 3, 2, 65, 5, 16, 19, 23, 43, 48, 54, 7, 0,
            // level_dir (16–18), node_dir (19–22)
            0, 2, 3,
            0, 2, 3, 5,
            // boxes (23–42): e0..e4 as [min_x, min_y, max_x, max_y]
            f(0.0), f(0.0), f(0.0), f(0.0),
            f(1.0), f(0.0), f(1.0), f(0.0),
            f(2.0), f(0.0), f(2.0), f(0.0),
            f(0.0), f(0.0), f(1.0), f(0.0),
            f(2.0), f(0.0), f(2.0), f(0.0),
            // targets (43–47), tia_dir (48–53)
            100, 101, 102, 0, 1,
            0, 1, 2, 3, 4, 5,
            // tia (54–63): (epoch, cumulative) pairs
            0, 1, 0, 2, 0, 3, 0, 2, 0, 3,
            // caller section (64)
            42,
        ];
        assert_eq!(tree.words(), &want[..]);
        assert_eq!(tree.to_bytes().len(), 520);
    }
}
