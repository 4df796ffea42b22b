//! Merkle Bucket Tree (MBT) — §3.4.2 of the paper.
//!
//! A hash table of `B` buckets under a complete Merkle tree of fanout `m`,
//! modelled on Hyperledger Fabric 0.6's bucket tree and made immutable with
//! node-level copy-on-write (the paper's §5.2 porting notes). Keys hash to
//! buckets; entries within a bucket are kept sorted; internal nodes are the
//! cryptographic fan-in of their children. The shape is fixed for the life
//! of the index: updates rewrite exactly the path from the touched bucket
//! to the root.
//!
//! ```
//! use siri_core::{MemStore, SiriIndex};
//! use siri_mbt::MerkleBucketTree;
//!
//! let store = MemStore::new_shared();
//! let mut mbt = MerkleBucketTree::new(store, 64, 4).unwrap();
//! mbt.insert(b"key", bytes::Bytes::from_static(b"value")).unwrap();
//! assert_eq!(mbt.get(b"key").unwrap().unwrap().as_ref(), b"value");
//! ```

mod cursor;
mod node;
mod proof;
mod topology;

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use siri_core::{
    apply_ops, diff_sorted_entries, entry_codec, own_bound, BatchOp, DiffEntry, Entry, EntryCursor,
    IndexError, LookupTrace, Proof, Result, SiriIndex, StructureReport, StructureStats, WriteBatch,
};
use siri_crypto::{FxHashMap, Hash};
use siri_store::{
    reachable_pages, CacheStats, NodeCache, PageSet, SharedStore, DEFAULT_NODE_CACHE_CAPACITY,
};

pub use cursor::RangeCursor;
pub use node::Node;
pub use proof::MbtProofScheme;
pub use topology::Topology;

/// Default bucket count used by the experiments (§5.4.3 sweeps 4000–10000).
pub const DEFAULT_BUCKETS: usize = 1024;
/// Default fanout, sized so internal pages are ≈1 KB as in §5's setup.
pub const DEFAULT_FANOUT: usize = 32;

/// Handle to one MBT version: `(store, topology, root hash)` plus the
/// decoded-node cache every clone shares. MBT benefits doubly from the
/// cache: its shape is fixed, so the root-side internal nodes are revisited
/// by *every* lookup and pin themselves at the LRU front.
#[derive(Clone)]
pub struct MerkleBucketTree {
    store: SharedStore,
    topo: Topology,
    root: Hash,
    cache: Arc<NodeCache<Node>>,
}

/// A decoded root→bucket path plus the cache traffic loading it caused.
struct LoadedPath {
    nodes: Vec<(Hash, Arc<Node>)>,
    cache_hits: u32,
    cache_misses: u32,
}

impl MerkleBucketTree {
    /// Build an empty tree with the given capacity (`buckets`) and fanout.
    /// The full skeleton exists from birth; content addressing collapses
    /// the B identical empty buckets to a single stored page.
    pub fn new(store: SharedStore, buckets: usize, fanout: usize) -> Result<Self> {
        let topo = Topology::new(buckets, fanout);
        let (b, m) = (buckets as u64, fanout as u64);

        let empty_bucket = Node::Bucket { buckets: b, fanout: m, entries: Vec::new() }.encode();
        let bucket_hash = store.try_put(empty_bucket)?;
        let mut level: Vec<Hash> = vec![bucket_hash; buckets];

        while level.len() > 1 {
            // Lower levels repeat a handful of distinct child runs (full
            // nodes plus ragged tails), so memoize pages by their *content*
            // and persist the distinct ones as a single multi-lane batch.
            // (An earlier revision keyed the memo by chunk length, which
            // conflates e.g. [full, full] with [full, tail] on ragged
            // shapes like 9 buckets × fanout 2.)
            let mut memo: FxHashMap<&[Hash], usize> = FxHashMap::default();
            let mut pages: Vec<Bytes> = Vec::new();
            let mut slots = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let slot = *memo.entry(chunk).or_insert_with(|| {
                    let node = Node::Internal { buckets: b, fanout: m, children: chunk.to_vec() };
                    pages.push(node.encode());
                    pages.len() - 1
                });
                slots.push(slot);
            }
            let hashes = store.try_put_many(&pages)?;
            level = slots.into_iter().map(|s| hashes[s]).collect();
        }
        let root = level[0];
        Ok(MerkleBucketTree {
            store,
            topo,
            root,
            cache: NodeCache::new_shared(DEFAULT_NODE_CACHE_CAPACITY),
        })
    }

    /// Re-open an existing version by root hash. The parameters must match
    /// those the tree was built with; they are validated against the root
    /// page on first access.
    pub fn open(store: SharedStore, buckets: usize, fanout: usize, root: Hash) -> Self {
        MerkleBucketTree {
            store,
            topo: Topology::new(buckets, fanout),
            root,
            cache: NodeCache::new_shared(DEFAULT_NODE_CACHE_CAPACITY),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
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
        Ok(self.fetch_traced(hash)?.0)
    }

    /// Fetch a node through the cache; the flag reports whether it was a
    /// cache hit (no store access, no decode).
    fn fetch_traced(&self, hash: &Hash) -> Result<(Arc<Node>, bool)> {
        self.cache.get_or_load(hash, || {
            let page = self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
            Node::decode_zc(&page)
        })
    }

    /// Decoded nodes along the root→bucket path.
    fn load_path(&self, bucket: usize) -> Result<LoadedPath> {
        let path = self.topo.path_to_bucket(bucket);
        let mut out =
            LoadedPath { nodes: Vec::with_capacity(path.len()), cache_hits: 0, cache_misses: 0 };
        let mut hash = self.root;
        for (i, id) in path.iter().enumerate() {
            let (node, cached) = self.fetch_traced(&hash)?;
            if cached {
                out.cache_hits += 1;
            } else {
                out.cache_misses += 1;
            }
            if i + 1 < path.len() {
                let next = match &*node {
                    Node::Internal { children, .. } => {
                        let slot = self.topo.slot_in_parent(path[i + 1]);
                        *children
                            .get(slot)
                            .ok_or(IndexError::CorruptStructure("missing child slot"))?
                    }
                    Node::Bucket { .. } => {
                        return Err(IndexError::CorruptStructure("bucket above leaf level"))
                    }
                };
                out.nodes.push((hash, node));
                hash = next;
            } else {
                out.nodes.push((hash, node));
            }
            let _ = id;
        }
        Ok(out)
    }

    /// The decoded bucket node at `bucket`, shared out of the node cache —
    /// how the cursor pins buckets without copying their entries.
    pub(crate) fn bucket_node(&self, bucket: usize) -> Result<Arc<Node>> {
        let path = self.load_path(bucket)?;
        match path.nodes.last() {
            Some((_, node)) if matches!(&**node, Node::Bucket { .. }) => Ok(node.clone()),
            _ => Err(IndexError::CorruptStructure("path did not end in a bucket")),
        }
    }

    /// Entries of one bucket by index (copied; write path only).
    fn bucket_entries(&self, bucket: usize) -> Result<Vec<Entry>> {
        match &*self.bucket_node(bucket)? {
            Node::Bucket { entries, .. } => Ok(entries.clone()),
            _ => Err(IndexError::CorruptStructure("path did not end in a bucket")),
        }
    }

    /// Bucket fill statistics: (min, max, mean entries per bucket) — the
    /// diagnostic for tuning B against N (§4.1's N/B term, Table 3's
    /// bucket-count sweep).
    pub fn bucket_fill_stats(&self) -> Result<(usize, usize, f64)> {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut total = 0usize;
        for bucket in 0..self.topo.buckets() {
            let n = self.bucket_entries(bucket)?.len();
            min = min.min(n);
            max = max.max(n);
            total += n;
        }
        Ok((min, max, total as f64 / self.topo.buckets() as f64))
    }

    /// Structure-aware recursive diff of two subtrees at the same position.
    fn diff_rec(
        &self,
        other: &Self,
        id: topology::NodeId,
        ha: Hash,
        hb: Hash,
        out: &mut Vec<DiffEntry>,
    ) -> Result<()> {
        if ha == hb {
            // Identical digest ⇒ identical subtree: Structurally Invariant
            // makes this the common fast path ("comparing the hash of the
            // nodes at the corresponding position", §5.3.2).
            return Ok(());
        }
        let na = self.fetch(&ha)?;
        let nb = other.fetch(&hb)?;
        match (&*na, &*nb) {
            (Node::Internal { children: ca, .. }, Node::Internal { children: cb, .. }) => {
                if ca.len() != cb.len() {
                    return Err(IndexError::CorruptStructure("fan-in mismatch in diff"));
                }
                let (first, _) = self.topo.children_span(id);
                for (slot, (a, b)) in ca.iter().zip(cb.iter()).enumerate() {
                    self.diff_rec(other, (id.0 - 1, first + slot), *a, *b, out)?;
                }
                Ok(())
            }
            (Node::Bucket { entries: ea, .. }, Node::Bucket { entries: eb, .. }) => {
                out.extend(diff_sorted_entries(ea, eb));
                Ok(())
            }
            _ => Err(IndexError::CorruptStructure("node kind mismatch in diff")),
        }
    }
}

impl SiriIndex for MerkleBucketTree {
    fn kind(&self) -> &'static str {
        "mbt"
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
        // Through get_traced: it searches the bucket by reference out of
        // the cached Arc<Node> instead of cloning the entry Vec.
        Ok(self.get_traced(key)?.0)
    }

    fn get_traced(&self, key: &[u8]) -> Result<(Option<Bytes>, LookupTrace)> {
        let mut trace = LookupTrace::default();
        let load_start = Instant::now();
        let path = self.load_path(self.topo.bucket_of(key))?;
        trace.load_nanos = load_start.elapsed().as_nanos() as u64;
        trace.pages_loaded = path.nodes.len() as u32;
        trace.height = path.nodes.len() as u32;
        trace.cache_hits = path.cache_hits;
        trace.cache_misses = path.cache_misses;

        let entries = match &*path.nodes.last().expect("non-empty path").1 {
            Node::Bucket { entries, .. } => entries,
            _ => return Err(IndexError::CorruptStructure("path did not end in a bucket")),
        };
        let scan_start = Instant::now();
        // Manual binary search so we can count probed entries (Fig. 13's
        // "scan time" companion metric).
        let (mut lo, mut hi) = (0usize, entries.len());
        let mut found = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            trace.leaf_entries_scanned += 1;
            match entries[mid].key.as_ref().cmp(key) {
                std::cmp::Ordering::Equal => {
                    found = Some(entries[mid].value.clone());
                    break;
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        trace.scan_nanos = scan_start.elapsed().as_nanos() as u64;
        Ok((found, trace))
    }

    fn commit(&mut self, batch: WriteBatch) -> Result<Hash> {
        let ops = batch.normalize();
        if ops.is_empty() {
            return Ok(self.root);
        }
        let (b, m) = (self.topo.buckets() as u64, self.topo.fanout() as u64);

        // Group operations by destination bucket; normalization ordered
        // them by key, and grouping preserves that per-bucket order.
        let mut per_bucket: BTreeMap<usize, Vec<BatchOp>> = BTreeMap::new();
        for op in ops {
            per_bucket.entry(self.topo.bucket_of(&op.key)).or_default().push(op);
        }

        // Rewrite affected buckets. A bucket emptied by deletes re-encodes
        // as the canonical empty-bucket page (the skeleton's shape is fixed
        // for life), so content addressing collapses it back onto the page
        // every empty bucket shares — delete-then-reinsert restores the
        // identical root.
        // All rewritten buckets are persisted as one sibling batch: the
        // store digests the batch with the multi-lane hasher before taking
        // any shard lock.
        let mut changed: FxHashMap<topology::NodeId, Hash> = FxHashMap::default();
        let mut bucket_pages = Vec::with_capacity(per_bucket.len());
        for (bucket, bucket_ops) in &per_bucket {
            let old = self.bucket_entries(*bucket)?;
            let merged = apply_ops(&old, bucket_ops);
            bucket_pages.push(Node::Bucket { buckets: b, fanout: m, entries: merged }.encode());
        }
        let hashes = self.store.try_put_many(&bucket_pages)?;
        for (bucket, h) in per_bucket.keys().zip(hashes) {
            changed.insert((0, *bucket), h);
        }

        // Propagate new hashes level by level ("the hashes of the bucket
        // and the nodes are recalculated recursively", §3.4.2).
        for level in 1..self.topo.height() {
            let parents: std::collections::BTreeSet<usize> = changed
                .keys()
                .filter(|(l, _)| *l == level - 1)
                .map(|(_, idx)| idx / self.topo.fanout())
                .collect();
            // Parents on one level are siblings of each other: encode them
            // all, then put them as one batch.
            let mut parent_ids = Vec::with_capacity(parents.len());
            let mut parent_pages = Vec::with_capacity(parents.len());
            for parent in parents {
                let id = (level, parent);
                // Load the old parent via the path of its leftmost bucket.
                let leftmost_bucket = parent * self.topo.fanout().pow(level as u32);
                let path = self.load_path(leftmost_bucket.min(self.topo.buckets() - 1))?;
                let depth_from_root = self.topo.height() - 1 - level;
                let (_, old_node) = &path.nodes[depth_from_root];
                let mut children = match &**old_node {
                    Node::Internal { children, .. } => children.clone(),
                    Node::Bucket { .. } => {
                        return Err(IndexError::CorruptStructure("bucket at internal level"))
                    }
                };
                let (first, count) = self.topo.children_span(id);
                for (slot, child) in children.iter_mut().enumerate().take(count) {
                    if let Some(h) = changed.get(&(level - 1, first + slot)) {
                        *child = *h;
                    }
                }
                parent_pages.push(Node::Internal { buckets: b, fanout: m, children }.encode());
                parent_ids.push(id);
            }
            let hashes = self.store.try_put_many(&parent_pages)?;
            for (id, h) in parent_ids.into_iter().zip(hashes) {
                changed.insert(id, h);
            }
        }

        let root_id = (self.topo.height() - 1, 0);
        self.root = *changed.get(&root_id).expect("root must change when buckets change");
        Ok(self.root)
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor {
        EntryCursor::new(cursor::RangeCursor::new(self.clone(), own_bound(start), own_bound(end)))
    }

    /// Counting needs only each bucket's entry count — no collation, no
    /// sort, and the bucket nodes come shared out of the node cache.
    fn len(&self) -> Result<usize> {
        let mut n = 0;
        for bucket in 0..self.topo.buckets() {
            if let Node::Bucket { entries, .. } = &*self.bucket_node(bucket)? {
                n += entries.len();
            }
        }
        Ok(n)
    }

    fn is_empty(&self) -> bool {
        // MBT's root is never the zero hash (the skeleton always exists),
        // so emptiness means "no entries".
        // Fail safe: an unreadable store must not masquerade as an empty
        // index (callers branch on emptiness to skip work).
        self.len().map(|n| n == 0).unwrap_or(false)
    }

    fn page_set(&self) -> PageSet {
        reachable_pages(self.store.as_ref(), self.root, Node::children_of_page)
    }

    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>> {
        if self.topo != other.topo {
            // Different shapes have no positional correspondence; fall back
            // to the scan-based reference diff.
            return siri_core::diff_by_scan(self, other);
        }
        let mut out = Vec::new();
        let root_id = (self.topo.height() - 1, 0);
        self.diff_rec(other, root_id, self.root, other.root, &mut out)?;
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }

    fn prove(&self, key: &[u8]) -> Result<Proof> {
        let bucket = self.topo.bucket_of(key);
        let path = self.topo.path_to_bucket(bucket);
        let mut pages = Vec::with_capacity(path.len());
        let mut hash = self.root;
        for (i, _) in path.iter().enumerate() {
            let page = self.store.try_get(&hash)?.ok_or(IndexError::MissingPage(hash))?;
            let node = Node::decode(&page)?;
            pages.push(page);
            if i + 1 < path.len() {
                match node {
                    Node::Internal { children, .. } => {
                        let slot = self.topo.slot_in_parent(path[i + 1]);
                        hash = *children
                            .get(slot)
                            .ok_or(IndexError::CorruptStructure("missing child slot"))?;
                    }
                    Node::Bucket { .. } => {
                        return Err(IndexError::CorruptStructure("bucket above leaf level"))
                    }
                }
            }
        }
        Ok(Proof::new(pages))
    }

    fn prove_range(&self, _start: Bound<&[u8]>, _end: Bound<&[u8]>) -> Result<Proof> {
        // Hashing destroys key order: any range may touch any bucket, so
        // the complete (deduplicated) page set *is* the range proof. The
        // skeleton's identical pages — empty buckets above all — collapse
        // to one copy each, so sparse trees stay cheap to prove.
        let mut pages = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.root];
        while let Some(hash) = stack.pop() {
            let page = self.store.try_get(&hash)?.ok_or(IndexError::MissingPage(hash))?;
            let node = Node::decode(&page)?;
            if !seen.insert(hash) {
                continue; // identical subtree: identical page set
            }
            pages.push(page);
            if let Node::Internal { children, .. } = node {
                stack.extend(children);
            }
        }
        Ok(Proof::new(pages))
    }
}

impl StructureStats for MerkleBucketTree {
    fn structure_stats(&self) -> Result<StructureReport> {
        let pages = self.page_set();
        let (_, _, mean_fill) = self.bucket_fill_stats()?;
        let entries = self.len()? as u64;
        Ok(StructureReport {
            nodes: pages.len() as u64,
            bytes: pages.byte_size(),
            // The skeleton has a fixed logical height regardless of how
            // many of its pages deduplicate into one stored copy.
            height: self.topo.height() as u32,
            entries,
            leaf_occupancy: mean_fill,
        })
    }

    fn node_cache_stats(&self) -> CacheStats {
        MerkleBucketTree::node_cache_stats(self)
    }
}

// Re-export the entry codec length so benches can size workloads; keeps the
// dependency graph one-directional.
pub use entry_codec::entry_encoded_len;

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::MemStore;

    fn make(buckets: usize, fanout: usize) -> MerkleBucketTree {
        MerkleBucketTree::new(MemStore::new_shared(), buckets, fanout).unwrap()
    }

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn empty_tree_lookups_miss() {
        let t = make(8, 2);
        assert_eq!(t.get(b"nothing").unwrap(), None);
        assert!(t.is_empty());
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn insert_then_get() {
        let mut t = make(16, 4);
        t.insert(b"alpha", Bytes::from_static(b"1")).unwrap();
        t.insert(b"beta", Bytes::from_static(b"2")).unwrap();
        assert_eq!(t.get(b"alpha").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(t.get(b"beta").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(t.get(b"gamma").unwrap(), None);
        assert_eq!(t.len().unwrap(), 2);
    }

    #[test]
    fn overwrite_updates_value() {
        let mut t = make(8, 2);
        t.insert(b"k", Bytes::from_static(b"v1")).unwrap();
        let old_root = t.root();
        t.insert(b"k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(t.get(b"k").unwrap().unwrap().as_ref(), b"v2");
        assert_ne!(t.root(), old_root, "digest must change on update");
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn old_version_remains_readable_after_update() {
        let mut t = make(8, 2);
        t.insert(b"k", Bytes::from_static(b"v1")).unwrap();
        let snapshot = t.clone();
        t.insert(b"k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(snapshot.get(b"k").unwrap().unwrap().as_ref(), b"v1");
        assert_eq!(t.get(b"k").unwrap().unwrap().as_ref(), b"v2");
    }

    #[test]
    fn batch_equals_singles() {
        let entries: Vec<Entry> =
            (0..200).map(|i| e(&format!("key{i:04}"), &format!("val{i}"))).collect();
        let mut batched = make(32, 4);
        batched.batch_insert(entries.clone()).unwrap();
        let mut singles = make(32, 4);
        for en in &entries {
            singles.insert(&en.key, en.value.clone()).unwrap();
        }
        assert_eq!(batched.root(), singles.root(), "structurally invariant");
        assert_eq!(batched.scan().unwrap(), singles.scan().unwrap());
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut t = make(16, 4);
        let entries: Vec<Entry> = (0..100).rev().map(|i| e(&format!("k{i:03}"), "v")).collect();
        t.batch_insert(entries).unwrap();
        let scanned = t.scan().unwrap();
        assert_eq!(scanned.len(), 100);
        assert!(scanned.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn trace_height_matches_topology() {
        let mut t = make(64, 4); // levels 64,16,4,1 → height 4
        t.insert(b"probe", Bytes::from_static(b"v")).unwrap();
        let (v, trace) = t.get_traced(b"probe").unwrap();
        assert!(v.is_some());
        assert_eq!(trace.height, 4);
        assert_eq!(trace.pages_loaded, 4);
        assert!(trace.leaf_entries_scanned >= 1);
    }

    #[test]
    fn diff_finds_exactly_the_changes() {
        let mut a = make(32, 4);
        a.batch_insert((0..50).map(|i| e(&format!("k{i:02}"), "base")).collect()).unwrap();
        let mut b = a.clone();
        b.insert(b"k07", Bytes::from_static(b"changed")).unwrap();
        b.insert(b"new-key", Bytes::from_static(b"added")).unwrap();
        let d = a.diff(&b).unwrap();
        assert_eq!(d.len(), 2);
        let keys: Vec<&[u8]> = d.iter().map(|x| x.key.as_ref()).collect();
        assert!(keys.contains(&b"k07".as_ref()));
        assert!(keys.contains(&b"new-key".as_ref()));
    }

    #[test]
    fn diff_of_identical_trees_is_empty_and_fast() {
        let mut a = make(32, 4);
        a.batch_insert((0..50).map(|i| e(&format!("k{i}"), "v")).collect()).unwrap();
        let b = a.clone();
        assert!(a.diff(&b).unwrap().is_empty());
    }

    #[test]
    fn single_bucket_degenerate_tree() {
        let mut t = make(1, 2);
        t.insert(b"only", Bytes::from_static(b"v")).unwrap();
        assert_eq!(t.get(b"only").unwrap().unwrap().as_ref(), b"v");
        let (_, trace) = t.get_traced(b"only").unwrap();
        assert_eq!(trace.height, 1, "bucket is the root");
    }

    #[test]
    fn page_set_counts_skeleton_shared_pages_once() {
        let t = make(8, 2);
        // Empty skeleton: 1 shared bucket page + 1 shared node per level
        // (all parents identical) = 1 + 3 = 4 distinct pages.
        assert_eq!(t.page_set().len(), 4);
    }

    #[test]
    fn bucket_fill_stats_reflect_uniform_hashing() {
        let mut t = make(64, 4);
        t.batch_insert((0..640).map(|i| e(&format!("key{i:04}"), "v")).collect()).unwrap();
        let (min, max, mean) = t.bucket_fill_stats().unwrap();
        assert!((mean - 10.0).abs() < 1e-9, "640 entries / 64 buckets");
        assert!(min >= 1 && max <= 30, "uniform-ish fill: min={min} max={max}");
    }

    #[test]
    fn delete_restores_root_and_prunes_to_empty_bucket_page() {
        let mut t = make(16, 4);
        t.batch_insert((0..50).map(|i| e(&format!("key{i:02}"), "v")).collect()).unwrap();
        let full_root = t.root();
        t.delete(b"key25").unwrap();
        assert_eq!(t.get(b"key25").unwrap(), None);
        assert_eq!(t.len().unwrap(), 49);
        assert_ne!(t.root(), full_root);
        // Reinsert: Structurally Invariant ⇒ identical root.
        t.insert(b"key25", Bytes::from_static(b"v")).unwrap();
        assert_eq!(t.root(), full_root);
        // Deleting everything re-canonicalizes to the empty skeleton.
        let empty = make(16, 4);
        let mut batch = WriteBatch::new();
        for i in 0..50 {
            batch.delete(format!("key{i:02}").into_bytes());
        }
        t.commit(batch).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.root(), empty.root(), "empty buckets must dedupe to the shared page");
        // Deleting from an empty tree is a no-op.
        let root = t.root();
        t.delete(b"ghost").unwrap();
        assert_eq!(t.root(), root);
    }

    #[test]
    fn ragged_skeleton_shapes_are_well_formed() {
        // 9 buckets × fanout 2 gives a level shaped [F, F, F, F, T]: two
        // same-length parent chunks with *different* contents ([F,F] vs
        // [F,T]). A content-keyed skeleton memo must keep them distinct —
        // an earlier revision keyed by chunk length and conflated them.
        for (buckets, fanout) in [(9usize, 2usize), (10, 4), (23, 3), (5, 2)] {
            let mut t = make(buckets, fanout);
            let entries: Vec<Entry> =
                (0..200).map(|i| e(&format!("key{i:03}"), &format!("v{i}"))).collect();
            t.batch_insert(entries.clone()).unwrap();
            for en in &entries {
                assert_eq!(
                    t.get(&en.key).unwrap().as_deref(),
                    Some(en.value.as_ref()),
                    "({buckets},{fanout}) key {:?}",
                    en.key
                );
            }
            assert_eq!(t.len().unwrap(), 200);
            assert_eq!(t.scan().unwrap(), entries);
        }
    }

    #[test]
    fn range_cursor_merges_buckets_in_key_order() {
        let mut t = make(16, 4);
        t.batch_insert((0..200).map(|i| e(&format!("k{i:03}"), "v")).collect()).unwrap();
        let r =
            t.range(Bound::Included(b"k050"), Bound::Excluded(b"k060")).collect_entries().unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key.as_ref(), b"k050");
        assert!(r.windows(2).all(|w| w[0].key < w[1].key), "cursor must merge sorted");
        // Full cursor equals the materialized scan.
        let all: Vec<Entry> =
            t.range(Bound::Unbounded, Bound::Unbounded).collect_entries().unwrap();
        assert_eq!(all, t.scan().unwrap());
        assert_eq!(all.len(), 200);
        // Exclusive/inclusive bound mix.
        let r =
            t.range(Bound::Excluded(b"k100"), Bound::Included(b"k102")).collect_entries().unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].key.as_ref(), b"k101");
        // An inverted window yields nothing and skips the O(B) bucket pin.
        let gets_before = t.store().stats().gets;
        assert_eq!(t.range(Bound::Included(b"z"), Bound::Excluded(b"a")).count(), 0);
        assert_eq!(t.store().stats().gets, gets_before, "empty window must not touch the store");
    }

    #[test]
    fn mixed_commit_applies_puts_and_deletes_atomically() {
        let mut t = make(8, 2);
        t.insert(b"stay", Bytes::from_static(b"1")).unwrap();
        t.insert(b"go", Bytes::from_static(b"2")).unwrap();
        let mut batch = WriteBatch::new();
        batch.delete(&b"go"[..]).put(&b"come"[..], &b"3"[..]);
        let root = t.commit(batch).unwrap();
        assert_eq!(root, t.root());
        assert_eq!(t.get(b"go").unwrap(), None);
        assert_eq!(t.get(b"come").unwrap().unwrap().as_ref(), b"3");
        assert_eq!(t.len().unwrap(), 2);
    }

    #[test]
    fn update_cost_touches_one_path() {
        let mut t = make(64, 4);
        t.batch_insert((0..500).map(|i| e(&format!("k{i}"), "v")).collect()).unwrap();
        let before = t.page_set();
        let mut v2 = t.clone();
        v2.insert(b"k123", Bytes::from_static(b"changed")).unwrap();
        let after = v2.page_set();
        let fresh = after.difference(&before);
        // Exactly one path is rewritten: height 4 → ≤4 new pages.
        assert!(fresh.len() <= 4, "expected ≤4 new pages, got {}", fresh.len());
    }
}
