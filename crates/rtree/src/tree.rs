//! The R*-tree with pluggable grouping and node augmentation.

use crate::geom::Rect;
use crate::node::{Arena, Entry, EntryPayload, Node, NodeId};
use crate::params::RTreeParams;
use crate::strategy::{EntryView, GroupingStrategy};
use pagestore::AccessStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Per-node augmented values maintained by the tree.
///
/// The TAR-tree's TIAs are an augmentation: every leaf entry carries its
/// POI's aggregate series and every internal entry the per-epoch **max** of
/// its child node's series (Section 4.1). The tree keeps these values
/// consistent through inserts, splits, reinserts and deletes.
pub trait Augmentation<T> {
    /// The augmented value type.
    type Value: Clone;

    /// The value of a leaf (data) entry.
    fn leaf_value(&self, item: &T) -> Self::Value;

    /// The identity for [`Augmentation::merge`].
    fn empty(&self) -> Self::Value;

    /// Folds a child value into an accumulator (per-epoch max for TIAs).
    ///
    /// Must be associative and commutative: an insert grows each ancestor's
    /// value by one `merge` of the new entry instead of refolding the
    /// ancestor's children in order.
    fn merge(&self, acc: &mut Self::Value, child: &Self::Value);
}

/// The trivial augmentation: no per-node value.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAug;

impl<T> Augmentation<T> for NoAug {
    type Value = ();

    fn leaf_value(&self, _item: &T) {}

    fn empty(&self) {}

    fn merge(&self, _acc: &mut (), _child: &()) {}
}

/// An R\*-tree over `D`-dimensional boxes with data items `T`, per-node
/// augmentation `A` and entry grouping strategy `S`.
///
/// * `D = 2`, [`crate::RStarGrouping`] → the paper's IND-spa baseline;
/// * `D = 3`, [`crate::RStarGrouping`] → the TAR-tree's integral grouping;
/// * `D = 2`, an aggregate-distance strategy → the IND-agg baseline.
///
/// The arena-backed nodes are "in memory" exactly as in the paper's setup,
/// while logical node accesses during queries are counted in the shared
/// [`AccessStats`].
///
/// ```
/// use rtree::{NoAug, RStarGrouping, RStarTree, RTreeParams, Rect};
/// use pagestore::AccessStats;
///
/// let mut tree: RStarTree<2, &str, NoAug, RStarGrouping> = RStarTree::new(
///     RTreeParams::with_max_entries(8),
///     NoAug,
///     RStarGrouping,
///     AccessStats::new(),
/// );
/// tree.insert(Rect::point([1.0, 1.0]), "home");
/// tree.insert(Rect::point([5.0, 5.0]), "office");
/// tree.insert(Rect::point([9.0, 9.0]), "gym");
/// let nearest = tree.nearest(&[4.0, 4.0], 1);
/// assert_eq!(*nearest[0].1, "office");
/// ```
#[derive(Debug)]
pub struct RStarTree<const D: usize, T, A, S>
where
    A: Augmentation<T>,
    S: GroupingStrategy<D, A::Value>,
{
    arena: Arena<D, T, A::Value>,
    root: NodeId,
    params: RTreeParams,
    stats: AccessStats,
    aug: A,
    strategy: S,
    len: usize,
}

impl<const D: usize, T, A, S> RStarTree<D, T, A, S>
where
    A: Augmentation<T>,
    S: GroupingStrategy<D, A::Value>,
{
    /// An empty tree.
    pub fn new(params: RTreeParams, aug: A, strategy: S, stats: AccessStats) -> Self {
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new(0));
        RStarTree {
            arena,
            root,
            params,
            stats,
            aug,
            strategy,
            len: 0,
        }
    }

    /// Number of data items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (root level; 0 for a leaf root).
    pub fn height(&self) -> u32 {
        self.arena.get(self.root).level
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// The structural parameters.
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// The shared access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// The root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Reads a node *without* counting a node access (maintenance paths).
    pub fn node(&self, id: NodeId) -> &Node<D, T, A::Value> {
        self.arena.get(id)
    }

    /// Reads a node and counts one logical node access (query paths); leaf
    /// accesses are additionally counted separately (the Section 6.3 cost
    /// analysis estimates leaf accesses only).
    pub fn access_node(&self, id: NodeId) -> &Node<D, T, A::Value> {
        self.stats.record_node_access();
        let node = self.arena.get(id);
        if node.is_leaf() {
            self.stats.record_leaf_access();
        }
        node
    }

    /// Inserts `item` with bounding box `rect`.
    pub fn insert(&mut self, rect: Rect<D>, item: T) {
        let aug = self.aug.leaf_value(&item);
        self.insert_with_aug(rect, item, aug);
    }

    /// Inserts `item` with an explicit leaf augmentation value (for
    /// augmentations whose leaf values are external state, like the
    /// TAR-tree's per-POI aggregate series).
    pub fn insert_with_aug(&mut self, rect: Rect<D>, item: T, aug: A::Value) {
        self.len += 1;
        let entry = Entry {
            rect,
            aug,
            payload: EntryPayload::Data(item),
        };
        self.insert_entry(entry, 0, &mut 0);
    }

    /// Removes one item matching `pred` whose box intersects `search`.
    /// Returns the removed item.
    pub fn remove<F>(&mut self, search: &Rect<D>, pred: F) -> Option<T>
    where
        F: Fn(&T) -> bool,
    {
        let path = self.find_leaf(self.root, search, &pred, &mut Vec::new())?;
        let (leaf_id, entry_idx) = *path.last().expect("non-empty path");
        let entry = self.arena.get_mut(leaf_id).entries.remove(entry_idx);
        let EntryPayload::Data(item) = entry.payload else {
            unreachable!("find_leaf returns data entries")
        };
        self.len -= 1;
        self.condense(&path[..path.len() - 1], leaf_id);
        Some(item)
    }

    /// All items whose boxes intersect `query` (counts node accesses).
    pub fn range_query(&self, query: &Rect<D>) -> Vec<&T> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.access_node(id);
            for e in &node.entries {
                if e.rect.intersects(query) {
                    match &e.payload {
                        EntryPayload::Data(t) => out.push(t),
                        EntryPayload::Child(c) => stack.push(*c),
                    }
                }
            }
        }
        out
    }

    /// The `k` items nearest to `point` by Euclidean distance, closest
    /// first (best-first search; counts node accesses).
    pub fn nearest(&self, point: &[f64; D], k: usize) -> Vec<(f64, &T)> {
        enum Cand<'a, T> {
            Node(NodeId),
            Item(&'a T),
        }
        struct Pq<'a, T> {
            dist2: f64,
            cand: Cand<'a, T>,
        }
        impl<T> PartialEq for Pq<'_, T> {
            fn eq(&self, o: &Self) -> bool {
                self.dist2 == o.dist2
            }
        }
        impl<T> Eq for Pq<'_, T> {}
        impl<T> PartialOrd for Pq<'_, T> {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl<T> Ord for Pq<'_, T> {
            fn cmp(&self, o: &Self) -> Ordering {
                // Reverse for a min-heap.
                o.dist2.partial_cmp(&self.dist2).unwrap_or(Ordering::Equal)
            }
        }
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Pq {
            dist2: 0.0,
            cand: Cand::Node(self.root),
        });
        while let Some(Pq { dist2, cand }) = heap.pop() {
            match cand {
                Cand::Item(t) => {
                    out.push((dist2.sqrt(), t));
                    if out.len() == k {
                        break;
                    }
                }
                Cand::Node(id) => {
                    let node = self.access_node(id);
                    for e in &node.entries {
                        let d2 = e.rect.min_dist2(point);
                        let cand = match &e.payload {
                            EntryPayload::Data(t) => Cand::Item(t),
                            EntryPayload::Child(c) => Cand::Node(*c),
                        };
                        heap.push(Pq { dist2: d2, cand });
                    }
                }
            }
        }
        out
    }

    /// All live node ids, root first (maintenance order, no access
    /// counting).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for e in &self.arena.get(id).entries {
                if let EntryPayload::Child(c) = e.payload {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Iterates over all `(rect, item)` pairs (maintenance order, no access
    /// counting).
    pub fn items(&self) -> Vec<(&Rect<D>, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.arena.get(id).entries {
                match &e.payload {
                    EntryPayload::Data(t) => out.push((&e.rect, t)),
                    EntryPayload::Child(c) => stack.push(*c),
                }
            }
        }
        out
    }

    /// Applies `f` to every data entry whose subtree box passes `filter`;
    /// `f` returns `Some(new_aug)` to replace an entry's augmented value.
    /// Augmentations along changed paths are recomputed bottom-up. Returns
    /// the number of changed leaf entries.
    ///
    /// This is the paper's check-in digestion (Section 4.2): descend only
    /// into entries that contain an updated POI, store the new aggregate at
    /// the leaf, and refresh the per-epoch max on the way back up.
    pub fn update_leaf_augs<Filter, F>(&mut self, filter: &Filter, f: &mut F) -> usize
    where
        Filter: Fn(&Rect<D>) -> bool,
        F: FnMut(&T, &A::Value) -> Option<A::Value>,
    {
        self.update_augs_rec(self.root, filter, f)
    }

    fn update_augs_rec<Filter, F>(&mut self, id: NodeId, filter: &Filter, f: &mut F) -> usize
    where
        Filter: Fn(&Rect<D>) -> bool,
        F: FnMut(&T, &A::Value) -> Option<A::Value>,
    {
        let node = self.arena.get(id);
        let mut changed = 0;
        if node.is_leaf() {
            let node = self.arena.get_mut(id);
            for e in &mut node.entries {
                if !filter(&e.rect) {
                    continue;
                }
                if let EntryPayload::Data(t) = &e.payload {
                    if let Some(new) = f(t, &e.aug) {
                        e.aug = new;
                        changed += 1;
                    }
                }
            }
        } else {
            let children: Vec<(usize, NodeId)> = node
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| filter(&e.rect))
                .filter_map(|(i, e)| e.child_id().map(|c| (i, c)))
                .collect();
            for (i, child) in children {
                let child_changed = self.update_augs_rec(child, filter, f);
                if child_changed > 0 {
                    let new_aug = self.summarize_aug(child);
                    self.arena.get_mut(id).entries[i].aug = new_aug;
                    changed += child_changed;
                }
            }
        }
        changed
    }

    /// Checks every structural invariant; panics with a description on the
    /// first violation. Intended for tests.
    pub fn validate(&self)
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        let mut item_count = 0;
        self.validate_rec(self.root, true, &mut item_count);
        assert_eq!(item_count, self.len, "len() matches stored items");
    }

    fn validate_rec(&self, id: NodeId, is_root: bool, item_count: &mut usize) {
        let node = self.arena.get(id);
        assert!(
            node.len() <= self.params.max_entries,
            "{id} exceeds max entries"
        );
        if !is_root {
            assert!(
                node.len() >= self.params.min_entries,
                "{id} under min entries: {} < {}",
                node.len(),
                self.params.min_entries
            );
        }
        for e in &node.entries {
            match &e.payload {
                EntryPayload::Data(_) => {
                    assert!(node.is_leaf(), "data entry in internal {id}");
                    *item_count += 1;
                }
                EntryPayload::Child(c) => {
                    assert!(!node.is_leaf(), "child entry in leaf {id}");
                    let child = self.arena.get(*c);
                    assert_eq!(child.level + 1, node.level, "level gap at {id}");
                    let rect = child.bounding_rect();
                    assert_eq!(e.rect, rect, "stale rect for child {c} of {id}");
                    self.validate_rec(*c, false, item_count);
                }
            }
        }
    }

    /// Recomputed augmentation summary of a node (merge over its entries).
    fn summarize_aug(&self, id: NodeId) -> A::Value {
        let node = self.arena.get(id);
        let mut acc = self.aug.empty();
        for e in &node.entries {
            self.aug.merge(&mut acc, &e.aug);
        }
        acc
    }

    /// Checks augmentation consistency everywhere (test helper).
    pub fn validate_augs(&self)
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.arena.get(id).entries {
                if let EntryPayload::Child(c) = e.payload {
                    let expect = self.summarize_aug(c);
                    assert!(e.aug == expect, "stale aug for child {c} of {id}");
                    stack.push(c);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk-load support (see bulk.rs)
    // ------------------------------------------------------------------

    pub(crate) fn alloc_node(&mut self, node: Node<D, T, A::Value>) -> NodeId {
        self.arena.alloc(node)
    }

    pub(crate) fn child_entry_public(&self, id: NodeId) -> Entry<D, T, A::Value> {
        self.child_entry(id)
    }

    pub(crate) fn replace_root_for_bulk(&mut self, root: NodeId, len: usize) {
        debug_assert!(self.arena.get(self.root).is_empty());
        self.arena.free(self.root);
        self.root = root;
        self.len = len;
    }

    /// Validates structure like [`RStarTree::validate`] but without the
    /// minimum-fill condition: STR packing legitimately leaves the last node
    /// of each level underfull.
    pub fn validate_bulk(&self)
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        let mut item_count = 0;
        self.validate_bulk_rec(self.root, &mut item_count);
        assert_eq!(item_count, self.len, "len() matches stored items");
        self.validate_augs();
    }

    fn validate_bulk_rec(&self, id: NodeId, item_count: &mut usize) {
        let node = self.arena.get(id);
        assert!(
            node.len() <= self.params.max_entries,
            "{id} exceeds max entries"
        );
        for e in &node.entries {
            match &e.payload {
                EntryPayload::Data(_) => {
                    assert!(node.is_leaf(), "data entry in internal {id}");
                    *item_count += 1;
                }
                EntryPayload::Child(c) => {
                    assert!(!node.is_leaf(), "child entry in leaf {id}");
                    let child = self.arena.get(*c);
                    assert_eq!(child.level + 1, node.level, "level gap at {id}");
                    assert_eq!(e.rect, child.bounding_rect(), "stale rect at {id}");
                    self.validate_bulk_rec(*c, item_count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insertion machinery
    // ------------------------------------------------------------------

    /// Inserts `entry` into a node at `target_level`. `reinserted` is a
    /// bitmask of the levels that already had a forced reinsert during this
    /// insertion (R* allows one per level).
    ///
    /// On the way down every chosen parent entry grows by `entry` — its box
    /// by union, its summary by one `merge` — because the subtree below it
    /// gains exactly this entry. A split only redistributes entries below
    /// such an ancestor, so the grown summaries stay exact; only nodes that
    /// lose entries (a split pair, a reinsert extraction) are recomputed.
    fn insert_entry(
        &mut self,
        entry: Entry<D, T, A::Value>,
        target_level: u32,
        reinserted: &mut u64,
    ) {
        // Descend to a node at target_level, recording the path.
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut cur = self.root;
        while self.arena.get(cur).level > target_level {
            let node = self.arena.get(cur);
            let views: Vec<EntryView<'_, D, A::Value>> = node
                .entries
                .iter()
                .map(|e| EntryView {
                    rect: &e.rect,
                    aug: &e.aug,
                })
                .collect();
            let new_view = EntryView {
                rect: &entry.rect,
                aug: &entry.aug,
            };
            let idx = self
                .strategy
                .choose_subtree(&views, &new_view, node.level == 1);
            let chosen = &mut self.arena.get_mut(cur).entries[idx];
            chosen.rect = chosen.rect.union(&entry.rect);
            self.aug.merge(&mut chosen.aug, &entry.aug);
            let child = chosen
                .child_id()
                .expect("internal nodes hold child entries");
            path.push((cur, idx));
            cur = child;
        }
        self.arena.get_mut(cur).entries.push(entry);
        self.fixup(path, cur, reinserted);
    }

    /// Resolves overflow from `cur` upward. The ancestors on `path` already
    /// cover the inserted entry; only entries whose nodes lose entries are
    /// recomputed.
    fn fixup(&mut self, mut path: Vec<(NodeId, usize)>, mut cur: NodeId, reinserted: &mut u64) {
        while self.arena.get(cur).len() > self.params.max_entries {
            let level = self.arena.get(cur).level;
            let bit = 1u64 << level;
            if self.params.forced_reinsert && cur != self.root && *reinserted & bit == 0 {
                *reinserted |= bit;
                let removed = self.extract_reinsert_candidates(cur);
                if removed.is_empty() {
                    // Strategy declined; fall through to a split next round.
                    continue;
                }
                // Entries left `cur`: recompute its ancestors before the
                // reinsertions descend from the root.
                self.refresh_path(&path);
                for e in removed {
                    self.insert_entry(e, level, reinserted);
                }
                return;
            }
            // Split `cur`.
            let new_id = self.split_node(cur);
            if cur == self.root {
                let mut root = Node::new(level + 1);
                root.entries.push(self.child_entry(cur));
                root.entries.push(self.child_entry(new_id));
                self.root = self.arena.alloc(root);
                return;
            }
            let (parent, idx) = path.pop().expect("non-root node has a parent");
            let refreshed = self.child_entry(cur);
            self.arena.get_mut(parent).entries[idx] = refreshed;
            let sibling = self.child_entry(new_id);
            self.arena.get_mut(parent).entries.push(sibling);
            cur = parent;
        }
    }

    /// A parent entry summarising node `id`.
    fn child_entry(&self, id: NodeId) -> Entry<D, T, A::Value> {
        let node = self.arena.get(id);
        Entry {
            rect: node.bounding_rect(),
            aug: self.summarize_aug(id),
            payload: EntryPayload::Child(id),
        }
    }

    /// Recomputes rect/aug summaries along a root-to-node path, deepest
    /// first (after entries left the node at its end).
    fn refresh_path(&mut self, path: &[(NodeId, usize)]) {
        for &(node_id, idx) in path.iter().rev() {
            let child = self.arena.get(node_id).entries[idx]
                .child_id()
                .expect("path entries are child entries");
            let refreshed = self.child_entry(child);
            self.arena.get_mut(node_id).entries[idx] = refreshed;
        }
    }

    /// Removes the strategy's reinsert candidates from `id` and returns them
    /// in reinsertion order.
    fn extract_reinsert_candidates(&mut self, id: NodeId) -> Vec<Entry<D, T, A::Value>> {
        let node = self.arena.get(id);
        let views: Vec<EntryView<'_, D, A::Value>> = node
            .entries
            .iter()
            .map(|e| EntryView {
                rect: &e.rect,
                aug: &e.aug,
            })
            .collect();
        let order = self
            .strategy
            .reinsert_candidates(&views, self.params.reinsert_count.min(node.len() - 1));
        // Extract preserving the strategy's reinsertion order; the kept
        // entries keep their relative order.
        let node = self.arena.get_mut(id);
        let mut slots: Vec<Option<Entry<D, T, A::Value>>> =
            node.entries.drain(..).map(Some).collect();
        let removed = order
            .into_iter()
            .map(|i| slots[i].take().expect("candidate extracted once"))
            .collect();
        node.entries = slots.into_iter().flatten().collect();
        removed
    }

    /// Splits node `id` in place; returns the new sibling's id.
    fn split_node(&mut self, id: NodeId) -> NodeId {
        let node = self.arena.get(id);
        let level = node.level;
        let views: Vec<EntryView<'_, D, A::Value>> = node
            .entries
            .iter()
            .map(|e| EntryView {
                rect: &e.rect,
                aug: &e.aug,
            })
            .collect();
        let mask = self.strategy.split(&views, self.params.min_entries);
        debug_assert_eq!(mask.len(), views.len());
        let node = self.arena.get_mut(id);
        let mut group_a = Vec::new();
        let mut group_b = Vec::new();
        for (e, to_b) in node.entries.drain(..).zip(mask) {
            if to_b {
                group_b.push(e);
            } else {
                group_a.push(e);
            }
        }
        debug_assert!(!group_a.is_empty() && !group_b.is_empty());
        node.entries = group_a;
        let mut sibling = Node::new(level);
        sibling.entries = group_b;
        self.arena.alloc(sibling)
    }

    // ------------------------------------------------------------------
    // Deletion machinery
    // ------------------------------------------------------------------

    /// Finds a leaf data entry matching `pred` within `search`; returns the
    /// path of `(node, entry index)` ending at the leaf.
    fn find_leaf<F>(
        &self,
        id: NodeId,
        search: &Rect<D>,
        pred: &F,
        path: &mut Vec<(NodeId, usize)>,
    ) -> Option<Vec<(NodeId, usize)>>
    where
        F: Fn(&T) -> bool,
    {
        let node = self.arena.get(id);
        for (i, e) in node.entries.iter().enumerate() {
            if !e.rect.intersects(search) {
                continue;
            }
            match &e.payload {
                EntryPayload::Data(t) => {
                    if pred(t) {
                        let mut full = path.clone();
                        full.push((id, i));
                        return Some(full);
                    }
                }
                EntryPayload::Child(c) => {
                    path.push((id, i));
                    if let Some(found) = self.find_leaf(*c, search, pred, path) {
                        return Some(found);
                    }
                    path.pop();
                }
            }
        }
        None
    }

    /// R-tree CondenseTree: dissolve underfull nodes along the path and
    /// reinsert their entries; shrink the root if needed.
    fn condense(&mut self, path: &[(NodeId, usize)], leaf: NodeId) {
        let mut orphans: Vec<(u32, Entry<D, T, A::Value>)> = Vec::new();
        let mut cur = leaf;
        for &(parent, idx) in path.iter().rev() {
            let underfull = self.arena.get(cur).len() < self.params.min_entries;
            if underfull {
                let level = self.arena.get(cur).level;
                let entries = std::mem::take(&mut self.arena.get_mut(cur).entries);
                orphans.extend(entries.into_iter().map(|e| (level, e)));
                self.arena.get_mut(parent).entries.remove(idx);
                self.arena.free(cur);
                // Removing by index shifts later siblings, but `idx` values
                // on the path refer to ancestors, which are untouched.
            } else {
                let refreshed = self.child_entry(cur);
                self.arena.get_mut(parent).entries[idx] = refreshed;
            }
            cur = parent;
        }
        // Shrink the root while it is an internal node with a single child.
        while !self.arena.get(self.root).is_leaf() && self.arena.get(self.root).len() == 1 {
            let child = self.arena.get(self.root).entries[0]
                .child_id()
                .expect("internal entry");
            self.arena.free(self.root);
            self.root = child;
        }
        // An empty internal root can appear when everything was orphaned.
        if !self.arena.get(self.root).is_leaf() && self.arena.get(self.root).is_empty() {
            self.arena.free(self.root);
            let mut arena_root = Node::new(0);
            arena_root.entries = Vec::new();
            self.root = self.arena.alloc(arena_root);
        }
        // Reinsert orphaned entries at their original levels, deepest first.
        orphans.sort_by_key(|&(level, _)| level);
        let mut reinserted = 0;
        for (level, entry) in orphans {
            // If the tree shrank below the entry's level, demote to re-adding
            // the subtree's items one by one.
            if level > self.arena.get(self.root).level {
                self.readd_subtree(entry, &mut reinserted);
            } else {
                self.insert_entry(entry, level, &mut reinserted);
            }
        }
    }

    /// Fallback for orphans above the current root level: re-add every data
    /// item contained in the orphaned subtree.
    fn readd_subtree(&mut self, entry: Entry<D, T, A::Value>, reinserted: &mut u64) {
        match entry.payload {
            EntryPayload::Data(_) => self.insert_entry(entry, 0, reinserted),
            EntryPayload::Child(c) => {
                let entries = std::mem::take(&mut self.arena.get_mut(c).entries);
                self.arena.free(c);
                for e in entries {
                    self.readd_subtree(e, reinserted);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::RStarGrouping;
    use std::cell::Cell;
    use std::rc::Rc;

    type Tree = RStarTree<2, u32, NoAug, RStarGrouping>;

    fn small_tree(max_entries: usize) -> Tree {
        RStarTree::new(
            RTreeParams::with_max_entries(max_entries),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        )
    }

    fn grid_points(n: usize) -> Vec<([f64; 2], u32)> {
        // Deterministic scattered points via a simple LCG.
        let mut x = 12345u64;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((x >> 16) % 10_000) as f64 / 10.0;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((x >> 16) % 10_000) as f64 / 10.0;
                ([a, b], i as u32)
            })
            .collect()
    }

    #[test]
    fn insert_and_validate_structure() {
        let mut t = small_tree(8);
        for (p, id) in grid_points(500) {
            t.insert(Rect::point(p), id);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        t.validate();
        t.validate_augs();
    }

    #[test]
    fn range_query_matches_scan() {
        let mut t = small_tree(10);
        let pts = grid_points(800);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        let q = Rect::new([100.0, 100.0], [400.0, 350.0]);
        let mut got: Vec<u32> = t.range_query(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .filter(|(p, _)| q.contains_point(p))
            .map(|&(_, id)| id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "query window should not be empty");
    }

    #[test]
    fn nearest_matches_scan() {
        let mut t = small_tree(10);
        let pts = grid_points(600);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        for q in [[0.0, 0.0], [500.0, 500.0], [999.0, 1.0]] {
            let got: Vec<u32> = t.nearest(&q, 10).into_iter().map(|(_, &id)| id).collect();
            let mut by_dist: Vec<(f64, u32)> = pts
                .iter()
                .map(|&(p, id)| (crate::geom::dist(&p, &q), id))
                .collect();
            by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let want: Vec<u32> = by_dist.iter().take(10).map(|&(_, id)| id).collect();
            assert_eq!(got, want, "query at {q:?}");
        }
    }

    #[test]
    fn nearest_distances_are_sorted() {
        let mut t = small_tree(6);
        for (p, id) in grid_points(300) {
            t.insert(Rect::point(p), id);
        }
        let res = t.nearest(&[250.0, 250.0], 25);
        assert_eq!(res.len(), 25);
        assert!(res.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn queries_count_node_accesses() {
        let mut t = small_tree(8);
        for (p, id) in grid_points(400) {
            t.insert(Rect::point(p), id);
        }
        t.stats().reset();
        let _ = t.nearest(&[10.0, 10.0], 5);
        let bfs_accesses = t.stats().node_accesses();
        assert!(bfs_accesses > 0);
        t.stats().reset();
        let _ = t.range_query(&Rect::new([0.0, 0.0], [1000.0, 1000.0]));
        assert!(t.stats().node_accesses() as usize >= t.node_count());
    }

    #[test]
    fn bfs_beats_full_scan_on_node_accesses() {
        let mut t = small_tree(16);
        for (p, id) in grid_points(3000) {
            t.insert(Rect::point(p), id);
        }
        t.stats().reset();
        let _ = t.nearest(&[500.0, 500.0], 3);
        let accesses = t.stats().node_accesses() as usize;
        assert!(
            accesses * 4 < t.node_count(),
            "best-first search should touch a small fraction of {} nodes, touched {}",
            t.node_count(),
            accesses
        );
    }

    #[test]
    fn remove_items() {
        let mut t = small_tree(8);
        let pts = grid_points(400);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        // Remove every item with odd id.
        for (p, id) in &pts {
            if id % 2 == 1 {
                let got = t.remove(&Rect::point(*p), |&x| x == *id);
                assert_eq!(got, Some(*id));
            }
        }
        assert_eq!(t.len(), 200);
        t.validate();
        // Removed items are gone; kept items remain findable.
        for (p, id) in &pts {
            let found = t
                .range_query(&Rect::point(*p))
                .into_iter()
                .any(|&x| x == *id);
            assert_eq!(found, id % 2 == 0, "item {id}");
        }
    }

    #[test]
    fn remove_everything_then_reuse() {
        let mut t = small_tree(6);
        let pts = grid_points(150);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        for (p, id) in &pts {
            assert_eq!(t.remove(&Rect::point(*p), |&x| x == *id), Some(*id));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        for (p, id) in pts.iter().take(50) {
            t.insert(Rect::point(*p), *id);
        }
        assert_eq!(t.len(), 50);
        t.validate();
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = small_tree(8);
        t.insert(Rect::point([1.0, 1.0]), 1);
        assert_eq!(t.remove(&Rect::point([9.0, 9.0]), |_| true), None);
        assert_eq!(t.remove(&Rect::point([1.0, 1.0]), |&x| x == 2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn no_reinsert_mode_still_correct() {
        let mut t: Tree = RStarTree::new(
            RTreeParams::with_max_entries(8).without_reinsert(),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let pts = grid_points(500);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        t.validate();
        let got: Vec<u32> = t
            .nearest(&[111.0, 222.0], 5)
            .into_iter()
            .map(|(_, &id)| id)
            .collect();
        let mut by_dist: Vec<(f64, u32)> = pts
            .iter()
            .map(|&(p, id)| (crate::geom::dist(&p, &[111.0, 222.0]), id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(got, by_dist[..5].iter().map(|&(_, id)| id).collect::<Vec<_>>());
    }

    #[test]
    fn rect_items_supported() {
        let mut t = small_tree(8);
        for i in 0..100u32 {
            let x = (i % 10) as f64 * 10.0;
            let y = (i / 10) as f64 * 10.0;
            t.insert(Rect::new([x, y], [x + 5.0, y + 5.0]), i);
        }
        t.validate();
        let hits = t.range_query(&Rect::new([12.0, 12.0], [13.0, 13.0])); // inside item 11's box
        assert!(hits.contains(&&11));
    }

    #[test]
    fn items_returns_everything() {
        let mut t = small_tree(8);
        let pts = grid_points(250);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        let mut ids: Vec<u32> = t.items().into_iter().map(|(_, &id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..250).collect::<Vec<u32>>());
    }

    #[test]
    fn three_dimensional_tree_works() {
        let mut t: RStarTree<3, u32, NoAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(8),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let mut x = 99u64;
        let mut pts = Vec::new();
        for i in 0..400u32 {
            let mut c = [0.0; 3];
            for v in c.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = ((x >> 16) % 1000) as f64 / 1000.0;
            }
            pts.push((c, i));
            t.insert(Rect::point(c), i);
        }
        t.validate();
        let q = [0.5, 0.5, 0.5];
        let got: Vec<u32> = t.nearest(&q, 7).into_iter().map(|(_, &id)| id).collect();
        let mut by_dist: Vec<(f64, u32)> = pts
            .iter()
            .map(|&(p, id)| (crate::geom::dist(&p, &q), id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(got, by_dist[..7].iter().map(|&(_, id)| id).collect::<Vec<_>>());
    }

    /// Per-subtree item maxima that count every `merge` call.
    struct CountingAug(Rc<Cell<u64>>);

    impl Augmentation<u32> for CountingAug {
        type Value = u64;
        fn leaf_value(&self, item: &u32) -> u64 {
            u64::from(*item)
        }
        fn empty(&self) -> u64 {
            0
        }
        fn merge(&self, acc: &mut u64, child: &u64) {
            self.0.set(self.0.get() + 1);
            *acc = (*acc).max(*child);
        }
    }

    /// [`RStarGrouping`] that counts its `split` and `reinsert_candidates`
    /// calls: an insert during which neither runs is a plain one.
    struct Watched(Rc<Cell<u64>>);

    impl<const D: usize> GroupingStrategy<D, u64> for Watched {
        fn choose_subtree(
            &self,
            children: &[EntryView<'_, D, u64>],
            new: &EntryView<'_, D, u64>,
            child_is_leaf: bool,
        ) -> usize {
            RStarGrouping.choose_subtree(children, new, child_is_leaf)
        }
        fn split(&self, entries: &[EntryView<'_, D, u64>], min_fill: usize) -> Vec<bool> {
            self.0.set(self.0.get() + 1);
            RStarGrouping.split(entries, min_fill)
        }
        fn reinsert_candidates(
            &self,
            entries: &[EntryView<'_, D, u64>],
            count: usize,
        ) -> Vec<usize> {
            self.0.set(self.0.get() + 1);
            RStarGrouping.reinsert_candidates(entries, count)
        }
    }

    /// An insert that neither splits nor reinserts grows each ancestor
    /// entry with one `merge`: `height` merges in all.
    #[test]
    fn plain_insert_merges_once_per_ancestor() {
        for reinsert in [true, false] {
            let (merges, restructures) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
            let params = RTreeParams::with_max_entries(12);
            let params = if reinsert {
                params
            } else {
                params.without_reinsert()
            };
            let mut t: RStarTree<3, u32, CountingAug, Watched> = RStarTree::new(
                params,
                CountingAug(Rc::clone(&merges)),
                Watched(Rc::clone(&restructures)),
                AccessStats::new(),
            );
            let mut plain = 0;
            for (i, p) in points3(2000).into_iter().enumerate() {
                let (height, merged, restructured) = (t.height(), merges.get(), restructures.get());
                t.insert(Rect::point(p), i as u32);
                if restructures.get() == restructured {
                    assert_eq!(merges.get() - merged, u64::from(height), "insert {i}");
                    plain += 1;
                }
            }
            assert!(t.height() >= 2);
            assert!(plain > 1000, "only {plain} plain inserts");
            t.validate();
            t.validate_augs();
        }
    }

    fn points3(n: usize) -> Vec<[f64; 3]> {
        let mut x = 99u64;
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((x >> 16) % 1000) as f64 / 1000.0
                })
            })
            .collect()
    }

    #[test]
    fn update_leaf_augs_with_sum_augmentation() {
        /// Sums item weights per subtree.
        struct SumAug;
        impl Augmentation<(u32, u64)> for SumAug {
            type Value = u64;
            fn leaf_value(&self, item: &(u32, u64)) -> u64 {
                item.1
            }
            fn empty(&self) -> u64 {
                0
            }
            fn merge(&self, acc: &mut u64, child: &u64) {
                *acc += child;
            }
        }
        let mut t: RStarTree<2, (u32, u64), SumAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(6),
            SumAug,
            RStarGrouping,
            AccessStats::new(),
        );
        for (p, id) in grid_points(200) {
            t.insert(Rect::point(p), (id, 1));
        }
        t.validate_augs();
        // Root total equals item count.
        let root_total: u64 = t
            .node(t.root_id())
            .entries
            .iter()
            .map(|e| e.aug)
            .sum();
        assert_eq!(root_total, 200);
        // Bump the weight of items with id < 50 by 9.
        let changed = t.update_leaf_augs(&|_| true, &mut |item: &(u32, u64), aug: &u64| {
            (item.0 < 50).then_some(aug + 9)
        });
        assert_eq!(changed, 50);
        t.validate_augs();
        let root_total: u64 = t.node(t.root_id()).entries.iter().map(|e| e.aug).sum();
        assert_eq!(root_total, 200 + 50 * 9);
    }
}
