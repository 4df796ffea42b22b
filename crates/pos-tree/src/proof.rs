//! POS-Tree Merkle proofs: the shared key-routed walks of
//! [`siri_core::routed`] over POS-Tree pages, plugged into the anchored
//! verifiers through [`PosProofScheme`].

use std::ops::Bound;

use siri_core::{routed, Entry, PagePool, ProofScheme, ProofVerdict};
use siri_crypto::Hash;

use crate::node::Node;

/// POS-Tree's [`ProofScheme`] — the dyn-safe handle clients verify with.
pub struct PosProofScheme;

impl ProofScheme for PosProofScheme {
    fn structure(&self) -> &'static str {
        "pos-tree"
    }

    fn verify_key_pages(&self, root: Hash, key: &[u8], pool: &mut PagePool) -> ProofVerdict {
        routed::verify_key_pages::<Node>(root, key, pool)
    }

    fn verify_range_pages(
        &self,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        pool: &mut PagePool,
        out: &mut Vec<Entry>,
    ) -> Result<(), &'static str> {
        routed::verify_range_pages::<Node>(root, start, end, pool, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PosParams, PosTree};
    use siri_core::{verify_anchored_membership, MemStore, Proof, SiriIndex};

    fn verify(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict {
        verify_anchored_membership(&PosProofScheme, root, key, proof)
    }

    fn tree() -> PosTree {
        let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
        t.batch_insert(
            (0..2000)
                .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence_and_absence() {
        let t = tree();
        let p = t.prove(b"key01234").unwrap();
        match verify(t.root(), b"key01234", &p) {
            ProofVerdict::Present(v) => assert_eq!(v.len(), 100),
            other => panic!("expected Present, got {other:?}"),
        }
        let p = t.prove(b"key01234x").unwrap();
        assert_eq!(verify(t.root(), b"key01234x", &p), ProofVerdict::Absent);
    }

    #[test]
    fn tamper_detection_everywhere() {
        let t = tree();
        let proof = t.prove(b"key00999").unwrap();
        assert!(proof.len() >= 2);
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 21);
            assert!(!verify(t.root(), b"key00999", &p).is_valid(), "page {page}");
        }
    }

    #[test]
    fn proofs_bound_to_root_version() {
        let t = tree();
        let v1 = t.clone();
        let mut v2 = t;
        v2.insert(b"key00999", bytes::Bytes::from_static(b"new")).unwrap();
        let p1 = v1.prove(b"key00999").unwrap();
        // The old proof must not verify the key against the *new* root.
        let verdict = verify(v2.root(), b"key00999", &p1);
        assert!(!verdict.is_valid());
    }

    #[test]
    fn empty_tree_proofs() {
        let t = PosTree::new(MemStore::new_shared(), PosParams::default());
        let p = t.prove(b"any").unwrap();
        assert_eq!(verify(t.root(), b"any", &p), ProofVerdict::Absent);
    }
}
