//! Property-based tests over the whole stack: for arbitrary record sets,
//! the three SIRI structures are order-insensitive, all four agree with a
//! model map, and diff/merge round-trip.

use std::collections::BTreeMap;

use proptest::prelude::*;
use siri::{
    diff_by_scan, merge, merge_with_base, Entry, IndexFactory, MbtFactory, MemStore, MergeStrategy,
    MptFactory, MvmbFactory, MvmbParams, PosFactory, PosParams, PosTree, SiriIndex, WriteBatch,
};

/// Random small key/value pairs; keys constrained to provoke shared
/// prefixes (MPT extensions) and duplicates (last-write-wins).
fn arb_entries(max: usize) -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::num::u8::ANY, 1..6),
            proptest::collection::vec(proptest::num::u8::ANY, 0..24),
        ),
        1..max,
    )
}

fn to_entries(raw: &[(Vec<u8>, Vec<u8>)]) -> Vec<Entry> {
    raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()
}

fn model(raw: &[(Vec<u8>, Vec<u8>)]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    raw.iter().cloned().collect()
}

/// Base size for the multi-level diff property: large enough for a POS-Tree
/// of three or more levels.
const BASE_KEYS: usize = 3000;

fn base_key(i: usize) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

/// Random puts and deletes against the base built by [`multi_level_base`],
/// which holds the even indices below `2 * BASE_KEYS`: an odd index puts a
/// new key between two base keys, an even one edits or deletes a base key.
fn arb_edits() -> impl Strategy<Value = Vec<(usize, bool, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0..2 * BASE_KEYS,
            proptest::bool::ANY,
            proptest::collection::vec(proptest::num::u8::ANY, 0..24),
        ),
        0..200,
    )
}

fn multi_level_base() -> (PosTree, BTreeMap<Vec<u8>, Vec<u8>>) {
    let model: BTreeMap<_, _> =
        (0..BASE_KEYS).map(|i| (base_key(2 * i), vec![(i % 251) as u8; 100])).collect();
    let mut tree = PosTree::new(MemStore::new_shared(), PosParams::default());
    tree.batch_insert(model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect())
        .unwrap();
    assert!(tree.height().unwrap() >= 3, "base must span three levels");
    (tree, model)
}

/// Commit `edits` onto a copy of `base`, mirroring them into a copy of
/// `model`.
fn apply_edits(
    base: &PosTree,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    edits: &[(usize, bool, Vec<u8>)],
) -> (PosTree, BTreeMap<Vec<u8>, Vec<u8>>) {
    let (mut tree, mut model) = (base.clone(), model.clone());
    let mut batch = WriteBatch::new();
    for (i, delete, value) in edits {
        if *delete {
            batch.delete(base_key(*i));
            model.remove(&base_key(*i));
        } else {
            batch.put(base_key(*i), value.clone());
            model.insert(base_key(*i), value.clone());
        }
    }
    tree.commit(batch).unwrap();
    (tree, model)
}

fn check_matches_model<I: SiriIndex>(idx: &I, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    assert_eq!(idx.len().unwrap(), model.len(), "{}", idx.kind());
    for (k, v) in model {
        assert_eq!(
            idx.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "{} missing key {k:?}",
            idx.kind()
        );
    }
    let scan = idx.scan().unwrap();
    assert!(scan.windows(2).all(|w| w[0].key < w[1].key), "{} scan unsorted", idx.kind());
    assert_eq!(scan.len(), model.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_indexes_match_a_model_map(raw in arb_entries(120)) {
        let entries = to_entries(&raw);
        let m = model(&raw);

        macro_rules! check {
            ($factory:expr) => {{
                let mut idx = $factory.empty(MemStore::new_shared());
                idx.batch_insert(entries.clone()).unwrap();
                check_matches_model(&idx, &m);
            }};
        }
        check!(PosFactory(PosParams::default()));
        check!(MptFactory);
        check!(MbtFactory { buckets: 32, fanout: 4 });
        check!(MvmbFactory(MvmbParams::default()));
    }

    #[test]
    fn siri_roots_are_insertion_order_invariant(raw in arb_entries(80), seed in 0u64..1000) {
        // Deduplicate keys first: with duplicates, last-write-wins makes
        // different orders legitimately produce different *content*.
        let entries: Vec<Entry> =
            model(&raw).into_iter().map(|(k, v)| Entry::new(k, v)).collect();
        // A deterministic permutation + different batching from the seed.
        let mut shuffled = entries.clone();
        let n = shuffled.len();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let chunk = (seed as usize % 7) + 1;

        macro_rules! invariant {
            ($factory:expr) => {{
                let factory = $factory;
                let mut a = factory.empty(MemStore::new_shared());
                a.batch_insert(entries.clone()).unwrap();
                let mut b = factory.empty(MemStore::new_shared());
                for c in shuffled.chunks(chunk) {
                    b.batch_insert(c.to_vec()).unwrap();
                }
                prop_assert_eq!(a.root(), b.root(), "structure {} not invariant", a.kind());
            }};
        }
        invariant!(PosFactory(PosParams::default()));
        invariant!(MptFactory);
        invariant!(MbtFactory { buckets: 32, fanout: 4 });
    }

    #[test]
    fn diff_matches_scan_reference_and_merge_roundtrips(
        left_raw in arb_entries(60),
        right_raw in arb_entries(60),
    ) {
        let factory = PosFactory(PosParams::default());
        let store = MemStore::new_shared();
        let mut left = factory.empty(store.clone());
        left.batch_insert(to_entries(&left_raw)).unwrap();
        let mut right = factory.empty(store);
        right.batch_insert(to_entries(&right_raw)).unwrap();

        // Structure-aware diff ≡ scan-based reference diff.
        let structural = left.diff(&right).unwrap();
        let reference = diff_by_scan(&left, &right).unwrap();
        prop_assert_eq!(&structural, &reference);

        // merge(left, right, PreferRight) contains exactly model-left ∪
        // model-right with right winning conflicts.
        let outcome = merge(&left, &right, MergeStrategy::PreferRight).unwrap();
        let mut expect = model(&left_raw);
        for (k, v) in model(&right_raw) {
            expect.insert(k, v);
        }
        let merged_scan = outcome.merged.scan().unwrap();
        prop_assert_eq!(merged_scan.len(), expect.len());
        for e in &merged_scan {
            prop_assert_eq!(expect.get(e.key.as_ref()).map(|v| v.as_slice()), Some(e.value.as_ref()));
        }

        // And merging right into the merged index is then conflict-free.
        let again = merge(&outcome.merged, &right, MergeStrategy::Strict).unwrap();
        prop_assert_eq!(again.added_from_right, 0);
    }

    /// The structural diff on trees of three or more levels, where the
    /// walk compares digests of unloaded nodes at level 2 and above: it
    /// must equal the scan diff both ways, and a three-way merge built on
    /// it must equal the model.
    #[test]
    fn multi_level_diff_matches_scan_and_three_way_merge_matches_model(
        left_edits in arb_edits(),
        right_edits in arb_edits(),
    ) {
        let (base, base_model) = multi_level_base();
        let (left, left_model) = apply_edits(&base, &base_model, &left_edits);
        let (right, right_model) = apply_edits(&base, &base_model, &right_edits);

        prop_assert_eq!(left.diff(&right).unwrap(), diff_by_scan(&left, &right).unwrap());
        prop_assert_eq!(right.diff(&left).unwrap(), diff_by_scan(&right, &left).unwrap());
        prop_assert_eq!(base.diff(&right).unwrap(), diff_by_scan(&base, &right).unwrap());

        // PreferRight: every key the right side changed since the base
        // takes its right-side state; every other key keeps the left's.
        let mut expect = left_model;
        for k in base_model.keys().chain(right_model.keys()) {
            match right_model.get(k) {
                Some(v) if base_model.get(k) != Some(v) => {
                    expect.insert(k.clone(), v.clone());
                }
                None => {
                    expect.remove(k);
                }
                Some(_) => {}
            }
        }
        let merged = merge_with_base(&base, &left, &right, MergeStrategy::PreferRight)
            .unwrap()
            .merged;
        let got: BTreeMap<Vec<u8>, Vec<u8>> =
            merged.scan().unwrap().into_iter().map(|e| (e.key.to_vec(), e.value.to_vec())).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn proofs_verify_for_arbitrary_content(raw in arb_entries(60)) {
        let entries = to_entries(&raw);
        let m = model(&raw);
        let mut idx = PosFactory(PosParams::default()).empty(MemStore::new_shared());
        idx.batch_insert(entries).unwrap();
        let root = idx.root();
        for (k, v) in m.iter().take(5) {
            let proof = idx.prove(k).unwrap();
            let verdict = siri::verify_anchored_membership(&siri::PosProofScheme, root, k, &proof);
            prop_assert_eq!(verdict.value().map(|b| b.as_ref()), Some(v.as_slice()));
        }
        let proof = idx.prove(b"\xff\xff\xff absent").unwrap();
        prop_assert!(matches!(
            siri::verify_anchored_membership(&siri::PosProofScheme, root, b"\xff\xff\xff absent", &proof),
            siri::ProofVerdict::Absent
        ));
    }

    /// Anchored range proofs are *complete*: for arbitrary content on a
    /// sharded branch and an arbitrary window, the verified entry list is
    /// byte-for-byte the cursor scan over the same window — nothing
    /// dropped, nothing invented, nothing reordered across shards.
    #[test]
    fn range_proofs_match_the_cursor_scan(
        raw in arb_entries(60),
        lo in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
        hi in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
    ) {
        use std::ops::Bound;

        use siri::{Forkbase, Session, ShardingPolicy, WriteBatch};

        let engine = Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::pinned(3),
            0,
        );
        let mut batch = WriteBatch::new();
        for (k, v) in &raw {
            batch.put(k.clone(), v.clone());
        }
        Session::commit(&engine, "master", batch).unwrap();
        let digest = Session::branch_digest(&engine, "master").unwrap();

        let (start, end) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let sb = Bound::Included(&start[..]);
        let eb = Bound::Excluded(&end[..]);
        let scanned: Vec<siri::Entry> = Session::range(&engine, "master", sb, eb)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();

        let (root, proof) = Session::prove_range(&engine, "master", sb, eb).unwrap();
        prop_assert_eq!(root, digest, "range proofs must anchor at the branch digest");
        let verdict =
            siri::verify_anchored_range(&siri::PosProofScheme, digest, sb, eb, &proof);
        let entries = verdict.entries().unwrap_or_else(|| panic!("rejected: {verdict:?}"));
        prop_assert_eq!(entries, scanned.as_slice());
    }
}
