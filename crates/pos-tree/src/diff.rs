//! Structure-aware POS-Tree diff.
//!
//! Thanks to structural invariance, any shared run of records shows up as a
//! shared subtree with an identical digest. The diff runs two lazily
//! positioned cursors (see [`crate::cursor`]) and follows one rule: a page
//! is fetched only after its digest has been compared with the digests on
//! the other side and found different. The roots are compared first; past
//! them, each step is one of:
//!
//! 1. When both positions are node starts and any node starting on one
//!    side has the digest of a node starting on the other, the outermost
//!    such subtree is skipped on both sides without being read.
//! 2. Otherwise an unloaded node is opened: the higher one when both sides
//!    wait at unloaded nodes (its first descendants may still match the
//!    other side), both when they sit at the same level, and the only one
//!    when the other side is inside a loaded leaf or exhausted. A leaf is
//!    therefore loaded only when both pending leaves differ or the other
//!    side has no node starting at the position left to match.
//! 3. With both sides inside loaded leaves, the entries merge by key.
//!
//! Only the δ differing regions (and the paths down to them) are ever
//! read — §4.1.3's O(δ·log N).

use siri_core::{DiffEntry, Result, SiriIndex};

use crate::cursor::Cursor;
use crate::PosTree;

/// The outermost node starting at both positions, as start-path indices
/// `(k_a, k_b)` (see [`Cursor::start_hash`]). Paths are at most the tree
/// height long, so a direct comparison beats building a set.
fn shared_start(a: &Cursor, b: &Cursor) -> Option<(usize, usize)> {
    let depth_b = b.start_depth();
    (0..a.start_depth()).rev().find_map(|ka| {
        let h = a.start_hash(ka);
        (0..depth_b).find(|&kb| b.start_hash(kb) == h).map(|kb| (ka, kb))
    })
}

pub(crate) fn diff(a: &PosTree, b: &PosTree) -> Result<Vec<DiffEntry>> {
    let mut out = Vec::new();
    if a.root() == b.root() {
        return Ok(out);
    }
    let mut ca = Cursor::with_cache(a.store().clone(), Some(a.cache.clone()), a.root())?;
    let mut cb = Cursor::with_cache(b.store().clone(), Some(b.cache.clone()), b.root())?;

    loop {
        // Step 1: skip a shared subtree unread.
        if let Some((ka, kb)) = shared_start(&ca, &cb) {
            ca.skip_start(ka);
            cb.skip_start(kb);
            continue;
        }
        // Step 2: open an unloaded node that matched nothing.
        match (ca.pending_level(), cb.pending_level()) {
            (Some(la), Some(lb)) => {
                if la >= lb {
                    ca.descend()?;
                }
                if lb >= la {
                    cb.descend()?;
                }
                continue;
            }
            (Some(_), None) => {
                ca.descend()?;
                continue;
            }
            (None, Some(_)) => {
                cb.descend()?;
                continue;
            }
            (None, None) => {}
        }
        // Step 3: both sides sit in loaded leaves (or are exhausted).
        match (ca.peek()?.cloned(), cb.peek()?.cloned()) {
            (None, None) => break,
            (Some(ea), None) => {
                out.push(DiffEntry { key: ea.key, left: Some(ea.value), right: None });
                ca.advance()?;
            }
            (None, Some(eb)) => {
                out.push(DiffEntry { key: eb.key, left: None, right: Some(eb.value) });
                cb.advance()?;
            }
            (Some(ea), Some(eb)) => match ea.key.cmp(&eb.key) {
                std::cmp::Ordering::Less => {
                    out.push(DiffEntry { key: ea.key, left: Some(ea.value), right: None });
                    ca.advance()?;
                }
                std::cmp::Ordering::Greater => {
                    out.push(DiffEntry { key: eb.key, left: None, right: Some(eb.value) });
                    cb.advance()?;
                }
                std::cmp::Ordering::Equal => {
                    if ea.value != eb.value {
                        out.push(DiffEntry {
                            key: ea.key,
                            left: Some(ea.value),
                            right: Some(eb.value),
                        });
                    }
                    ca.advance()?;
                    cb.advance()?;
                }
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use siri_core::{diff_by_scan, DiffSide, Entry, IndexError, MemStore};
    use siri_crypto::{FxHashMap, FxHashSet, Hash};
    use siri_store::{NodeStore, SharedStore, StoreResult, StoreStats};

    use crate::node::Node;
    use crate::PosParams;

    fn tree(n: usize) -> PosTree {
        let mut t = PosTree::new(MemStore::new_shared(), crate::PosParams::default());
        t.batch_insert(
            (0..n)
                .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn identical_trees_diff_empty() {
        let a = tree(1000);
        let b = a.clone();
        assert!(diff(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn small_delta_found_and_few_pages_read() {
        let a = tree(5000);
        let mut b = a.clone();
        b.insert(b"key02500", Bytes::from_static(b"changed")).unwrap();
        b.insert(b"new-key-x", Bytes::from_static(b"added")).unwrap();

        let gets_before = a.store().stats().gets;
        let d = a.diff(&b).unwrap();
        let gets = a.store().stats().gets - gets_before;

        assert_eq!(d.len(), 2);
        assert_eq!(d[0].key.as_ref(), b"key02500");
        assert_eq!(d[0].side(), DiffSide::Changed);
        assert_eq!(d[1].side(), DiffSide::RightOnly);
        // Shared subtrees must be pruned: far fewer page reads than the
        // ~700 pages of either tree.
        assert!(gets < 200, "diff read {gets} pages");
    }

    #[test]
    fn matches_scan_reference() {
        let a = tree(800);
        let mut b = tree(0);
        // Rebuild b with overlapping-but-different content.
        b.batch_insert(
            (400..1200)
                .map(|i| {
                    Entry::new(
                        format!("key{i:05}").into_bytes(),
                        vec![(i % 251) as u8; if i < 800 { 100 } else { 60 }],
                    )
                })
                .collect(),
        )
        .unwrap();
        let structural = diff(&a, &b).unwrap();
        let reference = siri_core::diff_by_scan(&a, &b).unwrap();
        assert_eq!(structural, reference);
    }

    #[test]
    fn diff_against_empty() {
        let a = tree(100);
        let empty = PosTree::new(MemStore::new_shared(), crate::PosParams::default());
        let d = diff(&a, &empty).unwrap();
        assert_eq!(d.len(), 100);
        assert!(d.iter().all(|x| x.side() == DiffSide::LeftOnly));
        let d = diff(&empty, &a).unwrap();
        assert!(d.iter().all(|x| x.side() == DiffSide::RightOnly));
    }

    #[test]
    fn shared_start_pairs_paths_of_different_depth() {
        // Two cursors at position 0 of one tree: one has loaded only the
        // root, the other the whole left spine. The outermost shared node
        // is the root, which sits at a different index on each path.
        let t = tree(5000);
        assert!(t.height().unwrap() >= 3);
        let mut deep = Cursor::new(t.store().clone(), t.root()).unwrap();
        deep.peek().unwrap();
        let mut shallow = Cursor::new(t.store().clone(), t.root()).unwrap();
        let (ks, kd) = shared_start(&shallow, &deep).unwrap();
        assert_eq!((ks, kd), (1, deep.start_depth() - 1));
        assert_eq!(shallow.start_hash(ks), t.root());
        shallow.skip_start(ks);
        deep.skip_start(kd);
        assert!(shallow.is_done() && deep.is_done());
    }

    const N: usize = 20_000;

    fn key(i: usize) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    /// 20k entries of 120-byte values with the node cache off, so every
    /// page the diff opens is one store read.
    fn uncached_base() -> PosTree {
        let mut t =
            PosTree::new(MemStore::new_shared(), PosParams::default()).with_node_cache_capacity(0);
        t.batch_insert((0..N).map(|i| Entry::new(key(i), vec![(i % 251) as u8; 120])).collect())
            .unwrap();
        t
    }

    /// `base` with the value of every key in `edits` replaced.
    fn edited(base: &PosTree, edits: &[usize]) -> PosTree {
        let mut t = base.clone();
        t.batch_insert(
            edits.iter().map(|&i| Entry::new(key(i), format!("edit{i}").into_bytes())).collect(),
        )
        .unwrap();
        t
    }

    fn edit_sets() -> Vec<(&'static str, Vec<usize>)> {
        vec![
            ("one edit", vec![N / 2]),
            ("20 sparse edits", (0..N).step_by(1000).collect()),
            ("200 edits", (0..N).step_by(100).collect()),
            ("dense edits", (0..N).step_by(7).collect()),
        ]
    }

    /// |page_set(a) △ page_set(b)|: the pages a diff cannot avoid reading.
    fn differing_pages(a: &PosTree, b: &PosTree) -> usize {
        let (pa, pb) = (a.page_set(), b.page_set());
        pa.difference(&pb).len() + pb.difference(&pa).len()
    }

    #[test]
    fn diff_reads_scale_with_the_differing_pages() {
        let a = uncached_base();
        for (what, edits) in edit_sets() {
            let b = edited(&a, &edits);
            let before = a.store().stats().gets;
            let d = a.diff(&b).unwrap();
            let reads = a.store().stats().gets - before;
            assert_eq!(d.len(), edits.len(), "{what}");
            assert!(d.iter().all(|x| x.side() == DiffSide::Changed), "{what}");
            let budget = 2 * differing_pages(&a, &b) as u64;
            assert!(reads <= budget, "{what}: diff read {reads} pages, budget {budget}");
        }
    }

    /// Store decorator: reports every page in `missing` as absent and
    /// serves `corrupt` pages in place of the stored ones.
    struct Damaged {
        inner: SharedStore,
        missing: FxHashSet<Hash>,
        corrupt: FxHashMap<Hash, Bytes>,
    }

    impl NodeStore for Damaged {
        fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
            self.inner.try_put(page)
        }
        fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
            if self.missing.contains(hash) {
                return Ok(None);
            }
            match self.corrupt.get(hash) {
                Some(page) => Ok(Some(page.clone())),
                None => self.inner.try_get(hash),
            }
        }
        fn contains(&self, hash: &Hash) -> bool {
            !self.missing.contains(hash) && self.inner.contains(hash)
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    /// Re-open `a` and `b` over `store` with empty node caches.
    fn diff_over(store: Damaged, a: &PosTree, b: &PosTree) -> Result<Vec<DiffEntry>> {
        let store: SharedStore = std::sync::Arc::new(store);
        let open = |t: &PosTree| PosTree::open(store.clone(), PosParams::default(), t.root());
        diff(&open(a), &open(b))
    }

    fn is_leaf(store: &SharedStore, hash: &Hash) -> bool {
        matches!(Node::decode(&store.get(hash).unwrap()).unwrap(), Node::Leaf { .. })
    }

    #[test]
    fn shared_pages_are_never_read() {
        let a = uncached_base();
        let store = a.store().clone();
        for (what, edits) in edit_sets() {
            let b = edited(&a, &edits);
            let reference = diff_by_scan(&a, &b).unwrap();
            let (pa, pb) = (a.page_set(), b.page_set());
            let shared: FxHashSet<Hash> = pa.intersection(&pb).iter().map(|(h, _)| *h).collect();
            let damaged = |missing, corrupt| Damaged { inner: store.clone(), missing, corrupt };

            // Every page both trees share is gone: the diff never asks.
            let d = diff_over(damaged(shared.clone(), FxHashMap::default()), &a, &b).unwrap();
            assert_eq!(d, reference, "{what}");

            // A differing leaf that is missing or corrupt still fails the
            // diff with the matching error.
            let differing_leaf = pb
                .difference(&pa)
                .iter()
                .map(|(h, _)| *h)
                .filter(|h| is_leaf(&store, h))
                .min()
                .unwrap();
            let mut missing = shared.clone();
            missing.insert(differing_leaf);
            let err = diff_over(damaged(missing, FxHashMap::default()), &a, &b).unwrap_err();
            assert!(
                matches!(err, IndexError::MissingPage(h) if h == differing_leaf),
                "{what}: {err:?}"
            );
            let unsorted = Node::Leaf {
                salt: 0,
                entries: vec![
                    Entry::new(b"b".to_vec(), b"1".to_vec()),
                    Entry::new(b"a".to_vec(), b"2".to_vec()),
                ],
            };
            let corrupt = [(differing_leaf, unsorted.encode())].into_iter().collect();
            let err = diff_over(damaged(shared, corrupt), &a, &b).unwrap_err();
            assert!(matches!(err, IndexError::CorruptStructure(_)), "{what}: {err:?}");
        }
    }
}
