//! MPT-specific property tests with adversarial key shapes: shared
//! prefixes, keys that are prefixes of other keys, empty keys, and
//! high-nibble/low-nibble boundary patterns — everything that stresses
//! branch/extension/leaf restructuring.

use std::collections::BTreeMap;

use proptest::prelude::*;
use siri_core::{verify_anchored_membership, Entry, MemStore, SiriIndex};
use siri_mpt::{MerklePatriciaTrie, MptProofScheme};

/// Keys drawn from a tiny alphabet with short lengths — maximizes prefix
/// collisions and extension splits.
fn arb_prefixy_entries() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                prop_oneof![Just(0x00u8), Just(0x01), Just(0x10), Just(0xff)],
                0..5,
            ),
            proptest::collection::vec(proptest::num::u8::ANY, 1..8),
        ),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn trie_matches_model_under_prefix_stress(raw in arb_prefixy_entries()) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = raw.iter().cloned().collect();
        let mut trie = MerklePatriciaTrie::new(MemStore::new_shared());
        trie.batch_insert(raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect())
            .unwrap();
        prop_assert_eq!(trie.len().unwrap(), model.len());
        for (k, v) in &model {
            let got = trie.get(k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        // Scan equals the model, sorted.
        let scan = trie.scan().unwrap();
        let expect: Vec<Entry> =
            model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect();
        prop_assert_eq!(scan, expect);
    }

    #[test]
    fn trie_root_is_insertion_order_invariant(raw in arb_prefixy_entries(), seed in 0u64..500) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = raw.iter().cloned().collect();
        let entries: Vec<Entry> =
            model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect();
        let mut shuffled = entries.clone();
        let n = shuffled.len();
        for i in (1..n).rev() {
            let j = (seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64)
                % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut a = MerklePatriciaTrie::new(MemStore::new_shared());
        a.batch_insert(entries).unwrap();
        let mut b = MerklePatriciaTrie::new(MemStore::new_shared());
        for e in shuffled {
            b.insert(&e.key, e.value).unwrap();
        }
        prop_assert_eq!(a.root(), b.root());
    }

    #[test]
    fn proofs_hold_under_prefix_stress(raw in arb_prefixy_entries()) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = raw.iter().cloned().collect();
        let mut trie = MerklePatriciaTrie::new(MemStore::new_shared());
        trie.batch_insert(raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect())
            .unwrap();
        let root = trie.root();
        for (k, v) in model.iter().take(8) {
            let proof = trie.prove(k).unwrap();
            let verdict = verify_anchored_membership(&MptProofScheme, root, k, &proof);
            prop_assert_eq!(verdict.value().map(|b| b.as_ref()), Some(v.as_slice()));
        }
        // A key guaranteed absent (longer than any generated key).
        let absent = vec![0x42u8; 9];
        let proof = trie.prove(&absent).unwrap();
        prop_assert!(matches!(
            verify_anchored_membership(&MptProofScheme, root, &absent, &proof),
            siri_core::ProofVerdict::Absent
        ));
    }

    #[test]
    fn structural_diff_equals_reference(l in arb_prefixy_entries(), r in arb_prefixy_entries()) {
        let store = MemStore::new_shared();
        let mut a = MerklePatriciaTrie::new(store.clone());
        a.batch_insert(l.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()).unwrap();
        let mut b = MerklePatriciaTrie::new(store);
        b.batch_insert(r.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()).unwrap();
        let structural = a.diff(&b).unwrap();
        let reference = siri_core::diff_by_scan(&a, &b).unwrap();
        prop_assert_eq!(structural, reference);
    }
}
