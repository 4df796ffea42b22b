//! In-order cursor over a POS-Tree — the engine behind scans, bounded
//! range reads and the subtree-skipping diff.
//!
//! The cursor is *lazily positioned*. At a node boundary the position is
//! the start of the node in the current child slot of the deepest loaded
//! node: the cursor knows that node's digest (from its parent's child
//! list) and its level (one below the parent's), but has not fetched it.
//! A page is fetched only when an entry must be read ([`Cursor::peek`]) or
//! the walk asks to look inside the pending node ([`Cursor::descend`]).
//! Scans still read every leaf they emit from; the diff compares the
//! digests of the nodes starting at a position before it opens any of
//! them.

use std::ops::Bound;
use std::sync::Arc;

use siri_core::{before_start, past_end, Entry, IndexError, Result};
use siri_crypto::Hash;
use siri_store::{NodeCache, SharedStore};

use crate::node::{Node, Piece};

struct Frame {
    /// Always an `Internal` node.
    node: Arc<Node>,
    /// The node's level (≥ 1); its children sit one level lower.
    level: u32,
    idx: usize,
}

impl Frame {
    fn children(&self) -> &[Piece] {
        match &*self.node {
            Node::Internal { children, .. } => children,
            Node::Leaf { .. } => unreachable!("frames hold internal nodes only"),
        }
    }
}

fn leaf_entries(node: &Node) -> &[Entry] {
    match node {
        Node::Leaf { entries, .. } => entries,
        Node::Internal { .. } => &[],
    }
}

/// Iterates entries in key order while exposing the nodes that start at
/// the current position, so callers can skip whole shared subtrees
/// without reading them.
///
/// Nodes are held as `Arc`s straight out of the tree's decoded-node cache
/// (when one is supplied): advancing across a leaf boundary on a warm
/// cache costs a shard probe, not a store fetch + decode.
pub struct Cursor {
    store: SharedStore,
    cache: Option<Arc<NodeCache<Node>>>,
    root: Hash,
    /// Loaded internal nodes from the root down, each at the child slot
    /// that holds the position; empty when the root is a leaf.
    stack: Vec<Frame>,
    /// The loaded leaf holding the position and the entry index in it.
    /// `None` while the position is the start of the unloaded node in the
    /// top frame's current slot.
    leaf: Option<(Arc<Node>, usize)>,
    done: bool,
}

impl Cursor {
    pub fn new(store: SharedStore, root: Hash) -> Result<Self> {
        Self::with_cache(store, None, root)
    }

    /// A cursor at the first entry, with node loads through `cache`. The
    /// root is loaded here; everything below it is loaded on demand. The
    /// cursor owns its store and cache handles (both are `Arc`s), so it is
    /// `'static` and can outlive the index handle that spawned it.
    pub fn with_cache(
        store: SharedStore,
        cache: Option<Arc<NodeCache<Node>>>,
        root: Hash,
    ) -> Result<Self> {
        let mut c = Cursor::at_root(store, cache, root);
        if !c.done {
            c.descend()?;
        }
        Ok(c)
    }

    fn at_root(store: SharedStore, cache: Option<Arc<NodeCache<Node>>>, root: Hash) -> Self {
        Cursor { store, cache, root, stack: Vec::new(), leaf: None, done: root.is_zero() }
    }

    fn fetch(&self, hash: &Hash) -> Result<Arc<Node>> {
        let load = || {
            let page = self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
            Node::decode_zc(&page)
        };
        match &self.cache {
            Some(cache) => cache.get_or_load(hash, load).map(|(node, _)| node),
            None => load().map(Arc::new),
        }
    }

    /// Level of the pending (unloaded) node at the position, or `None`
    /// when a leaf is loaded or the cursor is done.
    pub(crate) fn pending_level(&self) -> Option<u32> {
        if self.done || self.leaf.is_some() {
            return None;
        }
        self.stack.last().map(|f| f.level - 1)
    }

    /// Load the node in the current slot. An internal node becomes a frame
    /// on its first child; a leaf becomes the current leaf at its first
    /// entry. Checks the page's level against the parent's.
    pub(crate) fn descend(&mut self) -> Result<()> {
        debug_assert!(!self.done && self.leaf.is_none());
        let expected = self.stack.last().map(|f| f.level - 1);
        let node = self.fetch(&self.start_hash(0))?;
        match &*node {
            Node::Leaf { entries, .. } => {
                if entries.is_empty() {
                    return Err(IndexError::CorruptStructure("empty stored leaf"));
                }
                if expected.is_some_and(|l| l != 0) {
                    return Err(IndexError::CorruptStructure("level mismatch"));
                }
                self.leaf = Some((node, 0));
            }
            &Node::Internal { level, .. } => {
                if level == 0 || expected.is_some_and(|l| l != level) {
                    return Err(IndexError::CorruptStructure("level mismatch"));
                }
                self.stack.push(Frame { node, level, idx: 0 });
            }
        }
        Ok(())
    }

    /// Descend until a leaf holds the position (or the cursor is done).
    fn settle(&mut self) -> Result<()> {
        while !self.done && self.leaf.is_none() {
            self.descend()?;
        }
        Ok(())
    }

    /// The entry at the current position, loading its leaf if needed.
    pub fn peek(&mut self) -> Result<Option<&Entry>> {
        self.settle()?;
        Ok(self.leaf.as_ref().and_then(|(node, idx)| leaf_entries(node).get(*idx)))
    }

    /// Move to the next entry. Stepping off the end of a leaf reads
    /// nothing: the cursor then waits, unloaded, at the start of the next
    /// node.
    pub fn advance(&mut self) -> Result<()> {
        self.settle()?;
        let Some((node, idx)) = &mut self.leaf else {
            return Ok(());
        };
        *idx += 1;
        if *idx >= leaf_entries(node).len() {
            self.next_node();
        }
        Ok(())
    }

    /// Move past the node in the current slot to the start of the next
    /// one, climbing out of exhausted frames. Reads nothing.
    fn next_node(&mut self) {
        self.leaf = None;
        while let Some(f) = self.stack.last_mut() {
            f.idx += 1;
            if f.idx < f.children().len() {
                return;
            }
            self.stack.pop();
        }
        self.done = true;
    }

    /// How many nodes start at the current position: the node in the
    /// current slot, then each enclosing node (up to the root) whose first
    /// entry is the position. Zero mid-leaf and when done.
    pub(crate) fn start_depth(&self) -> usize {
        if self.done || matches!(self.leaf, Some((_, idx)) if idx > 0) {
            return 0;
        }
        1 + self.stack.iter().rev().take_while(|f| f.idx == 0).count()
    }

    /// Digest of the `k`-th node starting at the position, innermost
    /// first (`k < start_depth()`); known without reading any page.
    pub(crate) fn start_hash(&self, k: usize) -> Hash {
        match (self.stack.len() - k).checked_sub(1) {
            Some(i) => {
                let f = &self.stack[i];
                f.children()[f.idx].hash
            }
            None => self.root,
        }
    }

    /// Skip the `k`-th node starting at the position (see
    /// [`Cursor::start_hash`]) and its whole subtree, reading nothing.
    pub(crate) fn skip_start(&mut self, k: usize) {
        debug_assert!(k < self.start_depth());
        self.stack.truncate(self.stack.len() - k);
        self.next_node();
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Position the cursor at the first entry with key ≥ `key`
    /// (or exhaust it if no such entry exists). O(log N).
    pub fn seek(store: SharedStore, root: Hash, key: &[u8]) -> Result<Self> {
        Self::seek_with_cache(store, None, root, key)
    }

    /// [`Cursor::seek`] with node loads through `cache`.
    pub fn seek_with_cache(
        store: SharedStore,
        cache: Option<Arc<NodeCache<Node>>>,
        root: Hash,
        key: &[u8],
    ) -> Result<Self> {
        let mut c = Cursor::at_root(store, cache, root);
        while !c.done {
            c.descend()?;
            if let Some((node, idx)) = &mut c.leaf {
                *idx = leaf_entries(node).partition_point(|e| e.key.as_ref() < key);
                if *idx >= leaf_entries(node).len() {
                    // Key is beyond this leaf (can only happen on the
                    // rightmost spine): move on.
                    c.next_node();
                }
                break;
            }
            if let Some(f) = c.stack.last_mut() {
                // First child whose max_key ≥ key; clamp to the right so
                // seeks past the maximum land at stream end.
                let slot = f.children().partition_point(|p| p.max_key.as_ref() < key);
                f.idx = slot.min(f.children().len() - 1);
            }
        }
        Ok(c)
    }
}

/// Bound-checking iterator adapter over a seeked [`Cursor`] — what
/// [`crate::PosTree`]'s `range` hands to [`siri_core::EntryCursor`]. The
/// cursor arrives positioned at the first key ≥ the start bound; this
/// wrapper skips an exclusive-start match and stops at the end bound
/// (entries stream in key order, so the first out-of-window key finishes
/// the iteration).
pub(crate) struct RangeIter {
    pub(crate) cursor: Cursor,
    pub(crate) start: Bound<Vec<u8>>,
    pub(crate) end: Bound<Vec<u8>>,
    pub(crate) done: bool,
}

impl RangeIter {
    /// The entry at the position, and move past it. Only the peek reads
    /// pages, so an entry is never lost to a failing fetch of the next
    /// leaf: that error surfaces on the following call.
    fn step(&mut self) -> Result<Option<Entry>> {
        let entry = self.cursor.peek()?.cloned();
        self.cursor.advance()?;
        Ok(entry)
    }
}

impl Iterator for RangeIter {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.step() {
                // Exclusive start: skip the seeked-to match.
                Ok(Some(entry)) if before_start(&self.start, &entry.key) => continue,
                Ok(Some(entry)) if !past_end(&self.end, &entry.key) => return Some(Ok(entry)),
                Ok(_) => self.done = true,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::build_from_entries;
    use crate::PosParams;
    use siri_core::MemStore;
    use siri_store::NodeStore;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
            .collect()
    }

    fn drain(c: &mut Cursor) -> Vec<Entry> {
        let mut seen = Vec::new();
        while let Some(e) = c.peek().unwrap() {
            seen.push(e.clone());
            c.advance().unwrap();
        }
        seen
    }

    #[test]
    fn iterates_all_entries_in_order() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let mut c = Cursor::new(store.clone(), root.hash).unwrap();
        assert_eq!(drain(&mut c), es);
        assert!(c.is_done());
    }

    #[test]
    fn cached_cursor_agrees_and_hits() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let cache = NodeCache::new_shared(4096);
        let collect = |cache: Option<Arc<NodeCache<Node>>>| {
            drain(&mut Cursor::with_cache(store.clone(), cache, root.hash).unwrap())
        };
        assert_eq!(collect(Some(cache.clone())), es, "cold cached scan");
        let misses_after_first = cache.stats().misses;
        assert_eq!(collect(Some(cache.clone())), es, "warm cached scan");
        assert_eq!(cache.stats().misses, misses_after_first, "second scan must be all cache hits");
        assert_eq!(collect(None), es, "uncached scan agrees");
    }

    #[test]
    fn empty_tree_cursor() {
        let store = MemStore::new_shared();
        let mut c = Cursor::new(store, Hash::ZERO).unwrap();
        assert!(c.peek().unwrap().is_none());
        assert!(c.is_done());
    }

    #[test]
    fn positions_are_lazy() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let gets = || store.stats().gets;
        let before = gets();
        let mut c = Cursor::new(store.clone(), root.hash).unwrap();
        assert_eq!(gets() - before, 1, "construction loads the root only");
        assert!(c.pending_level().is_some());
        // Skipping the whole first child of the root reads nothing.
        let depth = c.start_depth();
        c.skip_start(depth - 2);
        assert_eq!(gets() - before, 1);
        // Reading an entry loads exactly the path down to its leaf.
        let height = c.pending_level().unwrap() as u64 + 1;
        assert!(c.peek().unwrap().is_some());
        assert_eq!(gets() - before, 1 + height);
    }

    #[test]
    fn start_hashes_at_boundaries() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let mut c = Cursor::new(store.clone(), root.hash).unwrap();
        // At position 0 every node on the left spine starts here; the
        // outermost is the root itself.
        let depth = c.start_depth();
        assert!(depth >= 2);
        assert_eq!(c.start_hash(depth - 1), root.hash);
        c.advance().unwrap();
        assert_eq!(c.start_depth(), 0, "mid-leaf positions are not starts");
    }

    #[test]
    fn skip_subtree_jumps_exactly_past_it() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        // Reference iteration to learn the first leaf's length.
        let mut reference = Cursor::new(store.clone(), root.hash).unwrap();
        let mut leaf_len = 0;
        loop {
            reference.advance().unwrap();
            leaf_len += 1;
            if reference.start_depth() > 0 {
                break; // reached the next leaf start
            }
        }
        // Now skip that first leaf with a fresh cursor and compare. Once
        // the leaf is loaded it is the innermost node starting here.
        let mut c = Cursor::new(store.clone(), root.hash).unwrap();
        c.peek().unwrap();
        c.skip_start(0);
        assert_eq!(c.peek().unwrap().map(|e| e.key.clone()), Some(es[leaf_len].key.clone()));
        // Skipping the root exhausts the cursor.
        let mut c = Cursor::new(store, root.hash).unwrap();
        c.skip_start(c.start_depth() - 1);
        assert!(c.is_done());
    }
}
