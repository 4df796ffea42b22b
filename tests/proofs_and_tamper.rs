//! Tamper evidence across all structures: proofs verify, forgeries fail,
//! and corrupted stores are caught by verification (failure injection).

use std::sync::Arc;

use siri::workloads::YcsbConfig;
use siri::{
    verify_anchored_membership, Entry, MbtProofScheme, MemStore, MerkleBucketTree,
    MerklePatriciaTrie, MptProofScheme, MvmbParams, MvmbProofScheme, MvmbTree, PosParams,
    PosProofScheme, PosTree, ProofVerdict, SharedStore, SiriIndex,
};

fn dataset(n: usize) -> Vec<Entry> {
    YcsbConfig::default().dataset(n)
}

macro_rules! proof_suite {
    ($name:ident, $ty:ty, $scheme:expr, $make:expr) => {
        #[test]
        fn $name() {
            let mem = Arc::new(MemStore::new());
            let store: SharedStore = mem.clone();
            let make: fn(SharedStore) -> $ty = $make;
            let mut idx = make(store);
            let entries = dataset(1_500);
            idx.batch_insert(entries.clone()).unwrap();
            let root = idx.root();
            let ycsb = YcsbConfig::default();

            // Present keys verify to the right value.
            for i in (0..1_500u64).step_by(333) {
                let key = ycsb.key(i);
                let proof = idx.prove(&key).unwrap();
                match verify_anchored_membership(&$scheme, root, &key, &proof) {
                    ProofVerdict::Present(v) => {
                        assert_eq!(v, idx.get(&key).unwrap().unwrap(), "key {i}")
                    }
                    other => panic!("expected Present for key {i}, got {other:?}"),
                }
            }

            // Absent keys verify as absent — never as present.
            let absent = b"absolutely-not-a-key";
            let proof = idx.prove(absent).unwrap();
            assert_eq!(
                verify_anchored_membership(&$scheme, root, absent, &proof),
                ProofVerdict::Absent
            );

            // Any single-bit flip anywhere in the proof is caught.
            let key = ycsb.key(777);
            let good = idx.prove(&key).unwrap();
            for page in 0..good.len() {
                for bit in [0usize, 9, 100] {
                    let mut bad = good.clone();
                    bad.tamper(page, bit);
                    if bad == good {
                        continue; // tamper hit an identical bit pattern
                    }
                    assert!(
                        !verify_anchored_membership(&$scheme, root, &key, &bad).is_valid(),
                        "tampered page {page} bit {bit} accepted"
                    );
                }
            }

            // Proofs do not transfer across versions.
            let mut v2 = idx.clone();
            v2.insert(&key, bytes::Bytes::from_static(b"rewritten")).unwrap();
            assert!(verify_anchored_membership(&$scheme, v2.root(), &key, &good).value().is_none());

            // Failure injection: corrupt the root page in the store; a
            // freshly generated proof no longer verifies against the
            // trusted digest.
            assert!(mem.corrupt_page(&root, 42));
            match idx.prove(&key) {
                Ok(proof) => {
                    assert!(!verify_anchored_membership(&$scheme, root, &key, &proof).is_valid());
                }
                Err(_) => {} // decode failure is also a detection
            }
        }
    };
}

proof_suite!(pos_tree_proofs, PosTree, PosProofScheme, |s| PosTree::new(s, PosParams::default()));
proof_suite!(mpt_proofs, MerklePatriciaTrie, MptProofScheme, |s| MerklePatriciaTrie::new(s));
proof_suite!(mbt_proofs, MerkleBucketTree, MbtProofScheme, |s| MerkleBucketTree::new(s, 128, 8)
    .unwrap());
proof_suite!(mvmb_proofs, MvmbTree, MvmbProofScheme, |s| MvmbTree::new(s, MvmbParams::default()));

/// Regression (ISSUE 10 headline): on a sharded branch, `Session::prove`
/// used to anchor at the *collapsed* logical root, which differs from
/// `branch_digest()` — the manifest digest that is the only hash a light
/// client holds (for MVMB+ the collapsed root is not even derivable from
/// the shard sub-roots). Proofs must anchor at the published digest.
#[test]
fn sharded_branch_proofs_anchor_at_branch_digest() {
    use siri::{
        Forkbase, MbtFactory, MptFactory, MvmbFactory, PosFactory, Session, ShardingPolicy,
        WriteBatch,
    };

    fn check<F: siri::IndexFactory>(factory: F) {
        let scheme = factory.scheme();
        let engine =
            Forkbase::with_sharding(factory, MemStore::new_shared(), ShardingPolicy::pinned(4), 0);
        let mut batch = WriteBatch::new();
        for i in (0u16..=255).step_by(3) {
            let key = vec![i as u8, (i / 3) as u8];
            batch.put(key.clone(), format!("v{i}").into_bytes());
        }
        Session::commit(&engine, "master", batch).unwrap();
        assert_eq!(engine.shard_count("master").unwrap(), 4, "branch must actually shard");
        let digest = Session::branch_digest(&engine, "master").unwrap();

        let key = [99u8, 33];
        let (root, proof) = Session::prove(&engine, "master", &key).unwrap();
        assert_eq!(
            root, digest,
            "prove must anchor at the published branch digest, not the collapsed root"
        );
        assert!(
            proof.root_page_matches(digest),
            "first proof page must hash to the branch digest (the shard manifest)"
        );

        // And the anchored verifier accepts it end-to-end: membership …
        match siri::verify_anchored_membership(scheme, digest, &key, &proof) {
            ProofVerdict::Present(v) => assert_eq!(v.as_ref(), b"v99"),
            other => {
                panic!("{}: expected Present over the manifest, got {other:?}", scheme.structure())
            }
        }
        // … non-membership …
        let (_, absent) = Session::prove(&engine, "master", b"no-such-key").unwrap();
        assert_eq!(
            siri::verify_anchored_membership(scheme, digest, b"no-such-key", &absent),
            ProofVerdict::Absent,
            "{}: non-membership over the manifest",
            scheme.structure()
        );
        // … a cross-shard range (spans all four sub-roots) …
        use std::ops::Bound;
        let (rr, range) =
            Session::prove_range(&engine, "master", Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(rr, digest);
        let verdict =
            siri::verify_anchored_range(scheme, digest, Bound::Unbounded, Bound::Unbounded, &range);
        let entries = verdict
            .entries()
            .unwrap_or_else(|| panic!("{}: range proof rejected: {verdict:?}", scheme.structure()));
        assert_eq!(entries.len(), 86, "{}: full scan entry count", scheme.structure());
        // … and a batch that routes to several shards.
        let keys: Vec<siri::Bytes> = [[3u8, 1], [99, 33], [201, 67], [7, 7]]
            .iter()
            .map(|k| siri::Bytes::copy_from_slice(k))
            .collect();
        let (br, batch_proof) = Session::prove_batch(&engine, "master", &keys).unwrap();
        assert_eq!(br, digest);
        match siri::verify_anchored_batch(scheme, digest, &keys, &batch_proof) {
            siri::BatchVerdict::Verified(vs) => {
                assert!(matches!(vs[0], ProofVerdict::Present(_)));
                assert!(matches!(vs[1], ProofVerdict::Present(_)));
                assert!(matches!(vs[2], ProofVerdict::Present(_)));
                assert_eq!(vs[3], ProofVerdict::Absent);
            }
            other => panic!("{}: batch proof rejected: {other:?}", scheme.structure()),
        }
    }

    check(PosFactory(PosParams::default()));
    check(MptFactory);
    check(MbtFactory { buckets: 64, fanout: 4 });
    check(MvmbFactory(MvmbParams::default()));
}

/// Tamper matrix: {membership, non-membership, range, batched} × all four
/// structures, proven over a sharded branch and verified through the
/// anchored path. Runs over [`siri::env_store`], so the CI file-store leg
/// exercises the same matrix against the durable backend. Every proof
/// page participates in verification (`PagePool::all_used`), so a single
/// flipped bit anywhere — manifest page included — must be fatal.
#[test]
fn anchored_tamper_matrix_rejects_every_bit_flip() {
    use std::ops::Bound;

    use siri::{
        env_store, Forkbase, MbtFactory, MptFactory, MvmbFactory, PosFactory, Proof, Session,
        ShardingPolicy, WriteBatch,
    };

    fn check<F: siri::IndexFactory>(factory: F) {
        let scheme = factory.scheme();
        let engine = Forkbase::with_sharding(factory, env_store(), ShardingPolicy::pinned(4), 0);
        let mut batch = WriteBatch::new();
        for i in (0u16..=255).step_by(5) {
            batch.put(vec![i as u8, 7], format!("val{i}").into_bytes());
        }
        Session::commit(&engine, "master", batch).unwrap();
        let digest = Session::branch_digest(&engine, "master").unwrap();

        let present = [120u8, 7];
        let batch_keys: Vec<siri::Bytes> = [[10u8, 7], [120, 7], [255, 255]]
            .iter()
            .map(|k| siri::Bytes::copy_from_slice(k))
            .collect();
        let (_, membership) = Session::prove(&engine, "master", &present).unwrap();
        let (_, non_membership) = Session::prove(&engine, "master", b"no-such-key").unwrap();
        let (_, range) = Session::prove_range(
            &engine,
            "master",
            Bound::Included(&[50u8][..]),
            Bound::Excluded(&[200u8][..]),
        )
        .unwrap();
        let (_, batched) = Session::prove_batch(&engine, "master", &batch_keys).unwrap();

        type Valid<'a> = Box<dyn Fn(&Proof) -> bool + 'a>;
        let keys = &batch_keys;
        let cases: Vec<(&str, Proof, Valid)> = vec![
            (
                "membership",
                membership,
                Box::new(move |p| {
                    siri::verify_anchored_membership(scheme, digest, &present, p).is_valid()
                }),
            ),
            (
                "non-membership",
                non_membership,
                Box::new(move |p| {
                    siri::verify_anchored_membership(scheme, digest, b"no-such-key", p).is_valid()
                }),
            ),
            (
                "range",
                range,
                Box::new(move |p| {
                    siri::verify_anchored_range(
                        scheme,
                        digest,
                        Bound::Included(&[50u8][..]),
                        Bound::Excluded(&[200u8][..]),
                        p,
                    )
                    .is_valid()
                }),
            ),
            (
                "batched",
                batched,
                Box::new(move |p| siri::verify_anchored_batch(scheme, digest, keys, p).is_valid()),
            ),
        ];

        for (label, good, valid) in &cases {
            assert!(valid(good), "{}: untampered {label} proof must verify", scheme.structure());
            for page in 0..good.len() {
                for bit in [0usize, 9, 100] {
                    let mut bad = good.clone();
                    bad.tamper(page, bit);
                    if bad == *good {
                        continue; // tamper hit an identical bit pattern
                    }
                    assert!(
                        !valid(&bad),
                        "{}: tampered {label} proof (page {page}, bit {bit}) accepted",
                        scheme.structure()
                    );
                }
            }
        }
    }

    check(PosFactory(PosParams::default()));
    check(MptFactory);
    check(MbtFactory { buckets: 16, fanout: 4 });
    check(MvmbFactory(MvmbParams::default()));
}

#[test]
fn digests_bind_the_entire_content() {
    // Two indexes differing in one byte anywhere must differ in root.
    let entries = dataset(500);
    let mut a = PosTree::new(MemStore::new_shared(), PosParams::default());
    a.batch_insert(entries.clone()).unwrap();
    let mut tweaked = entries;
    let mut v = tweaked[250].value.to_vec();
    v[0] ^= 1;
    tweaked[250].value = bytes::Bytes::from(v);
    let mut b = PosTree::new(MemStore::new_shared(), PosParams::default());
    b.batch_insert(tweaked).unwrap();
    assert_ne!(a.root(), b.root());
}
