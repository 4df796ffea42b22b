//! Multi-Version Merkle B+-Tree (MVMB+-Tree) — the paper's baseline (§5.2).
//!
//! An immutable B+-tree whose child pointers are content hashes, giving
//! tamper evidence and node-level copy-on-write like the SIRI structures —
//! but with classic, *order-dependent* node splits. Identical key sets
//! reached through different insertion histories generally produce
//! different trees (Figure 2), which is precisely the Structurally
//! Invariant property this baseline lacks; its diff therefore cannot rely
//! on positional hash comparison and falls back to scans (§5.3.2).
//!
//! ```
//! use siri_core::{MemStore, SiriIndex};
//! use siri_mvmb::MvmbTree;
//!
//! let mut t = MvmbTree::new(MemStore::new_shared(), Default::default());
//! t.insert(b"k", bytes::Bytes::from_static(b"v")).unwrap();
//! assert_eq!(t.get(b"k").unwrap().unwrap().as_ref(), b"v");
//! ```

mod node;
mod proof;

use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use siri_core::routed::{self, ChildRef};
use siri_core::{
    apply_ops, BatchOp, DiffEntry, Entry, EntryCursor, IndexError, LookupTrace, Proof, Result,
    SiriIndex, StructureReport, StructureStats, WriteBatch,
};
use siri_crypto::{FxHashSet, Hash};
use siri_store::{
    reachable_pages, CacheStats, NodeCache, PageSet, SharedStore, DEFAULT_NODE_CACHE_CAPACITY,
};

pub use node::Node;
pub use proof::MvmbProofScheme;

/// Node capacity limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvmbParams {
    /// Maximum entries per leaf before it splits.
    pub max_leaf_entries: usize,
    /// Maximum children per internal node before it splits.
    pub max_internal_children: usize,
}

impl Default for MvmbParams {
    fn default() -> Self {
        // Sized so pages land near the paper's ~1 KB with YCSB-like records
        // (≈256 B values) and ≈40 B routing entries.
        MvmbParams { max_leaf_entries: 4, max_internal_children: 24 }
    }
}

impl MvmbParams {
    /// Choose capacities so nodes are approximately `node_bytes` for the
    /// given average entry size — how the harness equalizes node sizes
    /// across structures ("we tune the size of each index node to be
    /// approximately 1 KB", §5).
    pub fn for_node_size(node_bytes: usize, avg_entry_bytes: usize, avg_key_bytes: usize) -> Self {
        let leaf = (node_bytes / avg_entry_bytes.max(1)).max(2);
        let internal = (node_bytes / (Hash::LEN + avg_key_bytes.max(1))).max(2);
        MvmbParams { max_leaf_entries: leaf, max_internal_children: internal }
    }
}

/// Handle to one MVMB+-Tree version. Clones share the decoded-node cache
/// (coherent for free under content addressing).
#[derive(Clone)]
pub struct MvmbTree {
    store: SharedStore,
    params: MvmbParams,
    root: Hash,
    cache: Arc<NodeCache<Node>>,
}

impl MvmbTree {
    /// An empty tree (root = zero hash).
    pub fn new(store: SharedStore, params: MvmbParams) -> Self {
        assert!(params.max_leaf_entries >= 2, "leaf capacity must be ≥ 2");
        assert!(params.max_internal_children >= 2, "fanout must be ≥ 2");
        MvmbTree {
            store,
            params,
            root: Hash::ZERO,
            cache: NodeCache::new_shared(DEFAULT_NODE_CACHE_CAPACITY),
        }
    }

    /// Re-open an existing version by root hash.
    pub fn open(store: SharedStore, params: MvmbParams, root: Hash) -> Self {
        MvmbTree { store, params, root, cache: NodeCache::new_shared(DEFAULT_NODE_CACHE_CAPACITY) }
    }

    pub fn params(&self) -> MvmbParams {
        self.params
    }

    /// Replace the node cache with one bounded to `capacity` decoded nodes
    /// (0 disables caching — every fetch decodes). Benchmarks use this for
    /// cache-size sweeps; clones made *after* this call share the new cache.
    pub fn with_node_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = NodeCache::new_shared(capacity);
        self
    }

    /// Hit/miss/eviction counters of the shared decoded-node cache.
    pub fn node_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn fetch(&self, hash: &Hash) -> Result<Arc<Node>> {
        Ok(routed::load(self.store.as_ref(), &self.cache, hash)?.0)
    }

    /// Split `items` into balanced chunks of at most `max` and emit one
    /// node per chunk via `build`. The chunk nodes are siblings, so they
    /// are persisted as one [`siri_store::NodeStore::try_put_many`] batch:
    /// the store digests them with the multi-lane hasher.
    fn emit_chunks<T: Clone>(
        &self,
        items: Vec<T>,
        max: usize,
        build: impl Fn(Vec<T>) -> Node,
    ) -> Result<Vec<ChildRef>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let parts = items.len().div_ceil(max);
        let per = items.len().div_ceil(parts);
        let mut max_keys = Vec::with_capacity(parts);
        let mut pages = Vec::with_capacity(parts);
        for chunk in items.chunks(per) {
            let node = build(chunk.to_vec());
            max_keys.push(node.max_key().expect("never store empty nodes"));
            pages.push(node.encode());
        }
        let hashes = self.store.try_put_many(&pages)?;
        Ok(max_keys
            .into_iter()
            .zip(hashes)
            .map(|(max_key, hash)| ChildRef { max_key, hash })
            .collect())
    }

    /// Recursive copy-on-write batch application. `ops` is normalized
    /// (sorted, key-unique, puts and deletes). Returns the replacement
    /// pieces for this subtree — possibly none, when deletes empty it
    /// (underflow handling: emptied nodes are pruned and their siblings
    /// re-chunked by the parent rebuild).
    fn apply_rec(&self, node_hash: Hash, ops: &[BatchOp]) -> Result<Vec<ChildRef>> {
        if ops.is_empty() {
            // Untouched subtree: reuse wholesale (Recursively Identical in
            // action). Need its max key for the parent rebuild.
            let node = self.fetch(&node_hash)?;
            let max = node.max_key().ok_or(IndexError::CorruptStructure("empty node"))?;
            return Ok(vec![ChildRef { max_key: max, hash: node_hash }]);
        }
        match &*self.fetch(&node_hash)? {
            Node::Leaf(old) => {
                let merged = apply_ops(old, ops);
                self.emit_chunks(merged, self.params.max_leaf_entries, Node::Leaf)
            }
            Node::Internal(children) => {
                // Partition the batch across children by routing range.
                let mut pieces = Vec::with_capacity(children.len() + 2);
                let mut rest = ops;
                for (slot, child) in children.iter().enumerate() {
                    let is_last = slot + 1 == children.len();
                    let split = if is_last {
                        rest.len() // everything beyond the last max clamps right
                    } else {
                        rest.partition_point(|op| op.key <= child.max_key)
                    };
                    let (mine, remaining) = rest.split_at(split);
                    rest = remaining;
                    pieces.extend(self.apply_rec(child.hash, mine)?);
                }
                debug_assert!(rest.is_empty());
                self.emit_chunks(pieces, self.params.max_internal_children, Node::Internal)
            }
        }
    }

    /// Deletions can leave a chain of single-child internal nodes above the
    /// surviving content; drop them so the tree height reflects the data
    /// (the B+-tree underflow rule, applied at the root).
    fn collapse_root(&self, mut root: Hash) -> Result<Hash> {
        loop {
            if root.is_zero() {
                return Ok(root);
            }
            match &*self.fetch(&root)? {
                Node::Internal(children) if children.len() == 1 => root = children[0].hash,
                _ => return Ok(root),
            }
        }
    }

    /// Build a tree bottom-up from scratch for the first batch.
    fn build_fresh(&self, entries: Vec<Entry>) -> Result<Vec<ChildRef>> {
        self.emit_chunks(entries, self.params.max_leaf_entries, Node::Leaf)
    }

    /// Number of levels (0 for an empty tree).
    pub fn height(&self) -> Result<usize> {
        if self.root.is_zero() {
            return Ok(0);
        }
        let mut h = 1;
        let mut hash = self.root;
        loop {
            match &*self.fetch(&hash)? {
                Node::Leaf(_) => return Ok(h),
                Node::Internal(children) => {
                    hash = children[0].hash;
                    h += 1;
                }
            }
        }
    }
}

impl SiriIndex for MvmbTree {
    fn kind(&self) -> &'static str {
        "mvmb+-tree"
    }

    fn store(&self) -> &SharedStore {
        &self.store
    }

    fn root(&self) -> Hash {
        self.root
    }

    fn at_root(&self, root: Hash) -> Self {
        let mut handle = self.clone();
        handle.root = root;
        handle
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Ok(self.get_traced(key)?.0)
    }

    fn get_traced(&self, key: &[u8]) -> Result<(Option<Bytes>, LookupTrace)> {
        routed::get_traced(self.store.as_ref(), &self.cache, self.root, key)
    }

    fn commit(&mut self, batch: WriteBatch) -> Result<Hash> {
        let ops = batch.normalize();
        if ops.is_empty() {
            return Ok(self.root);
        }
        let mut pieces = if self.root.is_zero() {
            let puts: Vec<Entry> = ops.into_iter().filter_map(BatchOp::into_entry).collect();
            self.build_fresh(puts)?
        } else {
            self.apply_rec(self.root, &ops)?
        };
        // Grow upward while the top level overflows a single node.
        while pieces.len() > 1 {
            pieces = self.emit_chunks(pieces, self.params.max_internal_children, Node::Internal)?;
        }
        // Deletes may have emptied the tree entirely, or left a lone-child
        // chain at the top; prune both.
        self.root = match pieces.pop() {
            Some(piece) => self.collapse_root(piece.hash)?,
            None => Hash::ZERO,
        };
        Ok(self.root)
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor {
        routed::range(self.store.clone(), self.cache.clone(), self.root, start, end)
    }

    fn page_set(&self) -> PageSet {
        reachable_pages(self.store.as_ref(), self.root, Node::children_of_page)
    }

    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>> {
        // No structural invariance ⇒ positional hash comparison is unsound
        // across independently-built trees; the baseline diffs by scan
        // (§5.3.2 explains why the SIRI candidates beat it here).
        if self.root == other.root {
            return Ok(Vec::new());
        }
        siri_core::diff_by_scan(self, other)
    }

    fn prove(&self, key: &[u8]) -> Result<Proof> {
        routed::prove::<Node>(self.store.as_ref(), self.root, key)
    }

    fn prove_range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Proof> {
        routed::prove_range::<Node>(self.store.as_ref(), self.root, start, end)
    }
}

impl StructureStats for MvmbTree {
    fn structure_stats(&self) -> Result<StructureReport> {
        let pages = self.page_set();
        // Count distinct leaf pages (order-dependent splits can still
        // deduplicate identical leaves within one version).
        let mut leaves = 0u64;
        let mut entries = 0u64;
        let mut seen = FxHashSet::default();
        let mut stack = if self.root.is_zero() { Vec::new() } else { vec![self.root] };
        while let Some(h) = stack.pop() {
            if !seen.insert(h) {
                continue;
            }
            match &*self.fetch(&h)? {
                Node::Leaf(items) => {
                    leaves += 1;
                    entries += items.len() as u64;
                }
                Node::Internal(children) => stack.extend(children.iter().map(|c| c.hash)),
            }
        }
        Ok(StructureReport {
            nodes: pages.len() as u64,
            bytes: pages.byte_size(),
            height: self.height()? as u32,
            entries,
            leaf_occupancy: if leaves == 0 { 0.0 } else { entries as f64 / leaves as f64 },
        })
    }

    fn node_cache_stats(&self) -> CacheStats {
        MvmbTree::node_cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::MemStore;

    fn make() -> MvmbTree {
        MvmbTree::new(MemStore::new_shared(), MvmbParams::default())
    }

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    fn keys(n: usize) -> Vec<Entry> {
        (0..n).map(|i| e(&format!("key{i:05}"), &format!("val{i}"))).collect()
    }

    #[test]
    fn empty_tree() {
        let t = make();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.height().unwrap(), 0);
        assert!(t.scan().unwrap().is_empty());
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = make();
        t.batch_insert(keys(500)).unwrap();
        for i in (0..500).step_by(17) {
            let k = format!("key{i:05}");
            assert_eq!(
                t.get(k.as_bytes()).unwrap().unwrap().as_ref(),
                format!("val{i}").as_bytes(),
                "key {i}"
            );
        }
        assert_eq!(t.get(b"absent").unwrap(), None);
        assert_eq!(t.get(b"zzzzzz").unwrap(), None, "beyond max key");
        assert_eq!(t.len().unwrap(), 500);
    }

    #[test]
    fn scan_is_sorted() {
        let mut t = make();
        let mut entries = keys(300);
        entries.reverse();
        t.batch_insert(entries).unwrap();
        let s = t.scan().unwrap();
        assert_eq!(s.len(), 300);
        assert!(s.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn tree_grows_and_stays_balanced_enough() {
        let mut t = make();
        t.batch_insert(keys(2000)).unwrap();
        let h = t.height().unwrap();
        // 2000/4 = 500 leaves; fanout 24 ⇒ height ≈ 1 + ceil(log24 500) + 1.
        assert!((3..=6).contains(&h), "height {h}");
    }

    #[test]
    fn incremental_inserts_preserve_old_versions() {
        let mut t = make();
        t.batch_insert(keys(100)).unwrap();
        let v1 = t.clone();
        t.batch_insert(vec![e("key00050", "rewritten")]).unwrap();
        assert_eq!(v1.get(b"key00050").unwrap().unwrap().as_ref(), b"val50");
        assert_eq!(t.get(b"key00050").unwrap().unwrap().as_ref(), b"rewritten");
        // Pages are shared between versions.
        let shared = t.page_set().intersection(&v1.page_set());
        assert!(!shared.is_empty(), "copy-on-write must share pages");
    }

    #[test]
    fn not_structurally_invariant_in_general() {
        // The defining deficiency (Figure 2): build the same key set in two
        // different orders/batchings and observe different roots. With
        // order-dependent splits this is overwhelmingly likely; we pick a
        // pattern that demonstrably diverges: bulk load vs incremental.
        let entries = keys(200);
        let mut bulk = make();
        bulk.batch_insert(entries.clone()).unwrap();
        let mut incremental = make();
        for chunk in entries.chunks(7) {
            incremental.batch_insert(chunk.to_vec()).unwrap();
        }
        // Same content either way…
        assert_eq!(bulk.scan().unwrap(), incremental.scan().unwrap());
        // …but (generally) different structure.
        assert_ne!(bulk.root(), incremental.root(), "baseline expected to be order-dependent");
    }

    #[test]
    fn diff_detects_changes_via_scan() {
        let mut a = make();
        a.batch_insert(keys(100)).unwrap();
        let mut b = a.clone();
        b.insert(b"key00007", Bytes::from_static(b"x")).unwrap();
        let d = a.diff(&b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key.as_ref(), b"key00007");
        assert!(a.diff(&a.clone()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_in_batch_last_wins() {
        let mut t = make();
        t.batch_insert(vec![e("k", "first"), e("k", "second")]).unwrap();
        assert_eq!(t.get(b"k").unwrap().unwrap().as_ref(), b"second");
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut t = make();
        t.batch_insert(keys(10)).unwrap();
        let root = t.root();
        t.batch_insert(Vec::new()).unwrap();
        assert_eq!(t.root(), root);
    }

    #[test]
    fn range_cursor_returns_exactly_the_window() {
        let mut t = make();
        t.batch_insert(keys(1000)).unwrap();
        let window = |s: &[u8], e: &[u8]| {
            t.range(Bound::Included(s), Bound::Excluded(e)).collect_entries().unwrap()
        };
        let r = window(b"key00100", b"key00110");
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key.as_ref(), b"key00100");
        // End past the maximum; start between keys.
        let r = window(b"key00995a", b"zzz");
        assert_eq!(r.len(), 4);
        // Degenerate windows.
        assert!(window(b"key00100", b"key00100").is_empty());
        assert!(window(b"z", b"a").is_empty());
        // Unbounded cursor equals scan; exclusive/inclusive bounds work.
        let all = t.range(Bound::Unbounded, Bound::Unbounded).collect_entries().unwrap();
        assert_eq!(all, t.scan().unwrap());
        let r = t
            .range(Bound::Excluded(b"key00100"), Bound::Included(b"key00102"))
            .collect_entries()
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].key.as_ref(), b"key00101");
        // Empty tree.
        assert_eq!(make().range(Bound::Included(b"a"), Bound::Excluded(b"z")).count(), 0);
    }

    #[test]
    fn delete_prunes_underflow_and_can_empty_the_tree() {
        let mut t = make();
        t.batch_insert(keys(500)).unwrap();
        t.delete(b"key00250").unwrap();
        assert_eq!(t.get(b"key00250").unwrap(), None);
        assert_eq!(t.len().unwrap(), 499);
        // Deleting a whole region forces leaf merges/prunes but content
        // stays consistent.
        let mut batch = WriteBatch::new();
        for i in 0..400 {
            batch.delete(format!("key{i:05}").into_bytes());
        }
        t.commit(batch).unwrap();
        assert_eq!(t.len().unwrap(), 100);
        assert_eq!(t.get(b"key00450").unwrap().unwrap().as_ref(), b"val450");
        let s = t.scan().unwrap();
        assert!(s.windows(2).all(|w| w[0].key < w[1].key));
        // Height shrinks back toward a small tree (no lone-child towers).
        let h = t.height().unwrap();
        assert!(h <= 4, "height {h} after mass delete");
        // Drain everything.
        let mut batch = WriteBatch::new();
        for i in 400..500 {
            batch.delete(format!("key{i:05}").into_bytes());
        }
        batch.delete(&b"key00250"[..]); // already gone: no-op
        t.commit(batch).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.root(), Hash::ZERO);
        // And the tree is usable again afterwards.
        t.insert(b"fresh", Bytes::from_static(b"start")).unwrap();
        assert_eq!(t.get(b"fresh").unwrap().unwrap().as_ref(), b"start");
    }

    #[test]
    fn mixed_commit_resolves_in_one_pass() {
        let mut t = make();
        t.batch_insert(keys(50)).unwrap();
        let mut batch = WriteBatch::new();
        batch.delete(&b"key00010"[..]);
        batch.put(&b"key00010"[..], &b"back"[..]); // later op wins
        batch.delete(&b"key00020"[..]);
        t.commit(batch).unwrap();
        assert_eq!(t.get(b"key00010").unwrap().unwrap().as_ref(), b"back");
        assert_eq!(t.get(b"key00020").unwrap(), None);
        assert_eq!(t.len().unwrap(), 49);
    }

    #[test]
    fn params_for_node_size() {
        let p = MvmbParams::for_node_size(1024, 271, 15);
        assert!(p.max_leaf_entries >= 3 && p.max_leaf_entries <= 4);
        assert!(p.max_internal_children >= 20);
    }
}
