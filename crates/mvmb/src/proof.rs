//! MVMB+-Tree proofs: the shared key-routed walks of
//! [`siri_core::routed`] over MVMB+ pages, plugged into the anchored
//! verifiers through [`MvmbProofScheme`]. The baseline gets the same
//! verified-read surface as the SIRI structures, which is essential on
//! sharded branches (its collapsed root is not derivable from the shard
//! sub-roots, so manifest-anchored proofs are the *only* sound ones).

use std::ops::Bound;

use siri_core::{routed, Entry, PagePool, ProofScheme, ProofVerdict};
use siri_crypto::Hash;

use crate::node::Node;

/// MVMB+-Tree's [`ProofScheme`].
pub struct MvmbProofScheme;

impl ProofScheme for MvmbProofScheme {
    fn structure(&self) -> &'static str {
        "mvmb+-tree"
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
    use crate::{MvmbParams, MvmbTree};
    use bytes::Bytes;
    use siri_core::{verify_anchored_membership, MemStore, Proof, SiriIndex};

    fn verify(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict {
        verify_anchored_membership(&MvmbProofScheme, root, key, proof)
    }

    fn tree() -> MvmbTree {
        let mut t = MvmbTree::new(MemStore::new_shared(), MvmbParams::default());
        t.batch_insert(
            (0..200)
                .map(|i| {
                    Entry::new(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
                })
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence_and_absence() {
        let t = tree();
        let p = t.prove(b"key0123").unwrap();
        assert_eq!(
            verify(t.root(), b"key0123", &p),
            ProofVerdict::Present(Bytes::from_static(b"v123"))
        );
        let p = t.prove(b"key0123a").unwrap();
        assert_eq!(verify(t.root(), b"key0123a", &p), ProofVerdict::Absent);
    }

    #[test]
    fn tampering_detected_at_every_level() {
        let t = tree();
        let proof = t.prove(b"key0050").unwrap();
        assert!(proof.len() >= 2, "need a multi-level tree");
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 7);
            assert!(!verify(t.root(), b"key0050", &p).is_valid());
        }
    }

    #[test]
    fn empty_tree_proofs() {
        let t = MvmbTree::new(MemStore::new_shared(), MvmbParams::default());
        let p = t.prove(b"anything").unwrap();
        assert_eq!(verify(t.root(), b"anything", &p), ProofVerdict::Absent);
        // Forged non-empty proof against the empty root:
        let forged = Proof::new(vec![Bytes::from_static(b"junk")]);
        assert!(!verify(t.root(), b"anything", &forged).is_valid());
    }

    #[test]
    fn proof_bound_to_queried_key() {
        let t = tree();
        let p = t.prove(b"key0002").unwrap();
        // Verifying a different key against this path must not produce a
        // false Present.
        let verdict = verify(t.root(), b"key0199", &p);
        assert!(verdict.value().is_none());
    }
}
