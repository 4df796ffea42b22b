//! Golden root digests: each structure built from one fixed dataset must
//! hash to exactly these values. Page codecs and boundary policies are
//! part of the on-disk format; a refactor of the walks over them must
//! leave every digest bit-identical, and this test makes that a check.

use siri::{
    Entry, Hash, MemStore, MerkleBucketTree, MerklePatriciaTrie, MvmbParams, MvmbTree, PosParams,
    PosTree, SiriIndex, DEFAULT_BUCKETS, DEFAULT_FANOUT,
};

/// 5,000 entries with keys `key00000..key04999` and values whose length
/// and bytes both vary with the index, so leaf boundaries are not regular.
fn dataset() -> Vec<Entry> {
    (0..5_000u32)
        .map(|i| {
            let value: Vec<u8> = (0..40 + i % 37).map(|j| (i.wrapping_mul(31) ^ j) as u8).collect();
            Entry::new(format!("key{i:05}").into_bytes(), value)
        })
        .collect()
}

fn root_of(mut index: impl SiriIndex) -> String {
    index.batch_insert(dataset()).unwrap();
    index.root().to_hex()
}

#[test]
fn pos_tree_root_is_pinned() {
    let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
    t.batch_insert(dataset()).unwrap();
    assert!(t.height().unwrap() >= 3, "POS-Tree must be at least 3 levels deep");
    assert_eq!(
        t.root().to_hex(),
        "76fff33ab2229385d4ef9a96ae58784bf9a72c013c21635578d9f0eea6d8e5ea"
    );
}

#[test]
fn mvmb_root_is_pinned() {
    let mut t = MvmbTree::new(MemStore::new_shared(), MvmbParams::default());
    t.batch_insert(dataset()).unwrap();
    assert!(t.height().unwrap() >= 3, "MVMB+-Tree must be at least 3 levels deep");
    assert_eq!(
        t.root().to_hex(),
        "e581dbe4f3e2a5f3878b62d76dfa45846002f77490606db9b2701fecbd70eeaf"
    );
}

#[test]
fn mpt_root_is_pinned() {
    assert_eq!(
        root_of(MerklePatriciaTrie::new(MemStore::new_shared())),
        "a575bb5d575861131928ad5002a2e6ef7ee1c064e7bbf2e1a59604fc3eeb8300"
    );
}

#[test]
fn mbt_root_is_pinned() {
    let t = MerkleBucketTree::new(MemStore::new_shared(), DEFAULT_BUCKETS, DEFAULT_FANOUT).unwrap();
    assert_eq!(root_of(t), "c51587a3d9c0e51f9c6d3750315f06761865c00b1b06c5936d943ff282b63c60");
}

#[test]
fn empty_roots_are_zero() {
    assert_eq!(PosTree::new(MemStore::new_shared(), PosParams::default()).root(), Hash::ZERO);
    assert_eq!(MvmbTree::new(MemStore::new_shared(), MvmbParams::default()).root(), Hash::ZERO);
}
