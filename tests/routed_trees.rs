//! The two key-routed trees (POS-Tree and the MVMB+-Tree) read through
//! one shared walk, so a damaged store must surface the same way on both.

use std::ops::Bound;
use std::sync::Arc;

use siri::routed::{NodeView, RoutedNode};
use siri::{
    Bytes, Entry, Hash, IndexError, IndexFactory, MemStore, MvmbFactory, MvmbParams, NodeStore,
    PosFactory, PosParams, SharedStore, SiriIndex, StoreResult, StoreStats,
};

/// Store decorator that reports one page as absent.
struct Hiding {
    inner: SharedStore,
    hidden: Hash,
}

impl NodeStore for Hiding {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        self.inner.try_put(page)
    }
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        if *hash == self.hidden {
            return Ok(None);
        }
        self.inner.try_get(hash)
    }
    fn contains(&self, hash: &Hash) -> bool {
        *hash != self.hidden && self.inner.contains(hash)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Every leaf of the tree under `root` in key order, with its entries.
fn leaves<N: RoutedNode>(store: &SharedStore, root: Hash) -> Vec<(Hash, Vec<Entry>)> {
    let node = N::decode_zc(&store.try_get(&root).unwrap().unwrap()).unwrap();
    match node.view() {
        NodeView::Leaf(entries) => vec![(root, entries.to_vec())],
        NodeView::Internal(children) => {
            children.iter().flat_map(|c| leaves::<N>(store, c.hash)).collect()
        }
    }
}

fn hidden_interior_leaf<F: IndexFactory, N: RoutedNode>(factory: F, n: usize) {
    let store = MemStore::new_shared();
    let mut index = factory.empty(store.clone());
    index
        .batch_insert(
            (0..n).map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![7u8; 40])).collect(),
        )
        .unwrap();
    let leaves = leaves::<N>(&store, index.root());
    assert!(leaves.len() >= 3, "{}: need an interior leaf", factory.name());
    let at = leaves.len() / 2;
    let hidden = leaves[at].0;
    let before: Vec<Entry> = leaves[..at].iter().flat_map(|(_, es)| es.clone()).collect();
    let after: Vec<Entry> = leaves[at + 1..].iter().flat_map(|(_, es)| es.clone()).collect();

    let damaged: SharedStore = Arc::new(Hiding { inner: store, hidden });
    let index = factory.open(damaged, index.root());

    // A full scan yields every entry before the hidden leaf, then exactly
    // one MissingPage naming it, then ends.
    let mut scan = index.range(Bound::Unbounded, Bound::Unbounded);
    for expected in &before {
        assert_eq!(&scan.next().unwrap().unwrap(), expected, "{}", factory.name());
    }
    match scan.next() {
        Some(Err(IndexError::MissingPage(h))) => assert_eq!(h, hidden, "{}", factory.name()),
        other => panic!("{}: expected MissingPage, got {other:?}", factory.name()),
    }
    assert!(scan.next().is_none(), "{}: the stream must end after the error", factory.name());

    // A range starting past the hidden leaf never asks for it.
    let start = after[0].key.clone();
    let tail = index.range(Bound::Included(&start), Bound::Unbounded).collect_entries();
    assert_eq!(tail.unwrap(), after, "{}", factory.name());
}

#[test]
fn a_missing_leaf_surfaces_the_same_way_on_both_routed_trees() {
    hidden_interior_leaf::<_, siri_pos_tree::Node>(PosFactory(PosParams::default()), 3_000);
    hidden_interior_leaf::<_, siri_mvmb::Node>(MvmbFactory(MvmbParams::default()), 500);
}
