//! In-order cursor over a POS-Tree — the engine behind scans, bounded
//! range reads and the subtree-skipping diff. It is the shared lazily
//! positioned cursor of [`siri_core::routed`] over POS-Tree pages, whose
//! stored levels it checks on every descent.

use crate::node::Node;

/// Iterates entries in key order while exposing the nodes that start at
/// the current position (see [`siri_core::routed::Cursor`]).
pub type Cursor = siri_core::routed::Cursor<Node>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::update::build_from_entries;
    use crate::PosParams;
    use siri_core::{Entry, MemStore};
    use siri_crypto::Hash;
    use siri_store::{NodeCache, NodeStore};

    fn entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
            .collect()
    }

    fn uncached() -> Arc<NodeCache<Node>> {
        NodeCache::new_shared(0)
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
        let mut c = Cursor::new(store.clone(), uncached(), root.hash).unwrap();
        assert_eq!(drain(&mut c), es);
        assert!(c.is_done());
    }

    #[test]
    fn cached_cursor_agrees_and_hits() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let cache = NodeCache::new_shared(4096);
        let collect = |cache: Arc<NodeCache<Node>>| {
            drain(&mut Cursor::new(store.clone(), cache, root.hash).unwrap())
        };
        assert_eq!(collect(cache.clone()), es, "cold cached scan");
        let misses_after_first = cache.stats().misses;
        assert_eq!(collect(cache.clone()), es, "warm cached scan");
        assert_eq!(cache.stats().misses, misses_after_first, "second scan must be all cache hits");
        assert_eq!(collect(uncached()), es, "uncached scan agrees");
    }

    #[test]
    fn empty_tree_cursor() {
        let store = MemStore::new_shared();
        let mut c = Cursor::new(store, uncached(), Hash::ZERO).unwrap();
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
        let mut c = Cursor::new(store.clone(), uncached(), root.hash).unwrap();
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
        let mut c = Cursor::new(store.clone(), uncached(), root.hash).unwrap();
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
        let mut reference = Cursor::new(store.clone(), uncached(), root.hash).unwrap();
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
        let mut c = Cursor::new(store.clone(), uncached(), root.hash).unwrap();
        c.peek().unwrap();
        c.skip_start(0);
        assert_eq!(c.peek().unwrap().map(|e| e.key.clone()), Some(es[leaf_len].key.clone()));
        // Skipping the root exhausts the cursor.
        let mut c = Cursor::new(store, uncached(), root.hash).unwrap();
        c.skip_start(c.start_depth() - 1);
        assert!(c.is_done());
    }
}
