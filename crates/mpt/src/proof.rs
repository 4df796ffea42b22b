//! MPT proofs: the node path from the root toward the key, as in §2.3
//! ("a proof of data, which contains the nodes on the path to the root").
//!
//! Absence is provable too: the path ends at the node that demonstrates
//! divergence (a leaf with a different tail, a branch with an empty slot,
//! or an extension whose run the key does not share).

use std::ops::Bound;

use bytes::Bytes;
use siri_core::{
    bounds_contain, Entry, IndexError, PagePool, Proof, ProofScheme, ProofVerdict, Result,
    SiriIndex,
};
use siri_crypto::Hash;
use siri_encoding::Nibbles;

use crate::node::Node;
use crate::MerklePatriciaTrie;

pub(crate) fn prove(trie: &MerklePatriciaTrie, key: &[u8]) -> Result<Proof> {
    let mut pages = Vec::new();
    if trie.root().is_zero() {
        return Ok(Proof::new(pages));
    }
    let nibbles = Nibbles::from_key(key);
    let mut offset = 0usize;
    let mut hash = trie.root();
    loop {
        let page = trie.store().try_get(&hash)?.ok_or(IndexError::MissingPage(hash))?;
        let node = Node::decode(&page)?;
        pages.push(page);
        match node {
            Node::Leaf { .. } => return Ok(Proof::new(pages)),
            Node::Extension { path, child } => {
                if !nibbles.suffix(offset).starts_with(&path) {
                    return Ok(Proof::new(pages)); // divergence proves absence
                }
                offset += path.len();
                hash = child;
            }
            Node::Branch { children, .. } => {
                if offset == nibbles.len() {
                    return Ok(Proof::new(pages));
                }
                match children[nibbles.at(offset) as usize] {
                    Some(child) => {
                        offset += 1;
                        hash = child;
                    }
                    None => return Ok(Proof::new(pages)), // empty slot proves absence
                }
            }
        }
    }
}

/// The shared range-pruning predicate: does the subtree at nibble-path
/// `prefix` overlap `[start, end)`? Both the prover (deciding which pages
/// to ship) and the verifier (deciding which children to demand) call
/// this, so a boundary subtree can never be included by one side and
/// skipped by the other. Nibble order equals byte order, so slicing both
/// the prefix and the bound key to their common length decides
/// entirely-below / entirely-above; ties are conservatively included —
/// over-inclusion costs proof bytes, never soundness.
pub(crate) fn subtree_overlaps(prefix: &Nibbles, start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
    let p = prefix.as_slice();
    if let Bound::Included(a) | Bound::Excluded(a) = start {
        let na = Nibbles::from_key(a);
        let m = p.len().min(na.len());
        if p[..m] < na.as_slice()[..m] {
            return false; // diverges below the start key: every key is < a
        }
    }
    if let Bound::Included(b) | Bound::Excluded(b) = end {
        let nb = Nibbles::from_key(b);
        let m = p.len().min(nb.len());
        if p[..m] > nb.as_slice()[..m] {
            return false; // diverges above the end key: every key is > b
        }
        if m == nb.len() && p.len() > m && p[..m] == nb.as_slice()[..m] {
            // The prefix strictly extends the end key: every key below is
            // a proper extension of `b`, hence sorts after it.
            return false;
        }
    }
    true
}

/// One key's root→terminal re-walk through a shared page pool. Terminates
/// without a depth counter: extensions have non-empty paths (the decoder
/// enforces it) and branches consume a nibble, so the offset strictly
/// grows toward the key's length.
pub(crate) fn verify_key_pages(root: Hash, key: &[u8], pool: &mut PagePool) -> ProofVerdict {
    if root.is_zero() {
        return ProofVerdict::Absent;
    }
    let nibbles = Nibbles::from_key(key);
    let mut offset = 0usize;
    let mut expected = root;
    loop {
        let Some(page) = pool.get(&expected) else {
            return ProofVerdict::Invalid("missing page in proof");
        };
        match Node::decode(&page) {
            Ok(Node::Leaf { path, value }) => {
                return if nibbles.suffix(offset) == path {
                    ProofVerdict::Present(value)
                } else {
                    ProofVerdict::Absent
                };
            }
            Ok(Node::Extension { path, child }) => {
                if !nibbles.suffix(offset).starts_with(&path) {
                    return ProofVerdict::Absent;
                }
                offset += path.len();
                expected = child;
            }
            Ok(Node::Branch { children, value }) => {
                if offset == nibbles.len() {
                    return match value {
                        Some(v) => ProofVerdict::Present(v),
                        None => ProofVerdict::Absent,
                    };
                }
                match children[nibbles.at(offset) as usize] {
                    Some(child) => {
                        offset += 1;
                        expected = child;
                    }
                    None => return ProofVerdict::Absent,
                }
            }
            Err(_) => return ProofVerdict::Invalid("page undecodable"),
        }
    }
}

/// Re-walk every subtree overlapping the bounds through the pool,
/// appending in-bounds entries in key order (a branch's own value sorts
/// before all of its children's keys; children walk in nibble order).
pub(crate) fn verify_range_pages(
    root: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    pool: &mut PagePool,
    out: &mut Vec<Entry>,
) -> core::result::Result<(), &'static str> {
    if root.is_zero() {
        return Ok(());
    }
    walk_range(root, Nibbles::empty(), start, end, pool, out)
}

fn walk_range(
    hash: Hash,
    prefix: Nibbles,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    pool: &mut PagePool,
    out: &mut Vec<Entry>,
) -> core::result::Result<(), &'static str> {
    let Some(page) = pool.get(&hash) else {
        return Err("missing page in proof");
    };
    match Node::decode(&page).map_err(|_| "page undecodable")? {
        Node::Leaf { path, value } => {
            let key = prefix.concat(&path).to_key().ok_or("odd-length key in leaf")?;
            if bounds_contain(start, end, &key) {
                out.push(Entry::new(key, value));
            }
            Ok(())
        }
        Node::Extension { path, child } => {
            let cp = prefix.concat(&path);
            if subtree_overlaps(&cp, start, end) {
                walk_range(child, cp, start, end, pool, out)?;
            }
            Ok(())
        }
        Node::Branch { children, value } => {
            if let Some(v) = value {
                let key = prefix.to_key().ok_or("branch value at odd nibble position")?;
                if bounds_contain(start, end, &key) {
                    out.push(Entry::new(key, v));
                }
            }
            for (i, child) in children.iter().enumerate() {
                if let Some(child) = child {
                    let cp = prefix.join(i as u8, &Nibbles::empty());
                    if subtree_overlaps(&cp, start, end) {
                        walk_range(*child, cp, start, end, pool, out)?;
                    }
                }
            }
            Ok(())
        }
    }
}

/// Prover-side range walk: same traversal as [`walk_range`] reading from
/// the store, pushing each page once by content hash. Descent is never
/// skipped for already-pushed pages — an identical page can recur at a
/// different nibble prefix where the pruning decisions differ.
pub(crate) fn collect_range_pages(
    trie: &MerklePatriciaTrie,
    hash: Hash,
    prefix: Nibbles,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    seen: &mut std::collections::HashSet<Hash>,
    pages: &mut Vec<Bytes>,
) -> Result<()> {
    let page = trie.store().try_get(&hash)?.ok_or(IndexError::MissingPage(hash))?;
    let node = Node::decode(&page)?;
    if seen.insert(hash) {
        pages.push(page);
    }
    match node {
        Node::Leaf { .. } => Ok(()),
        Node::Extension { path, child } => {
            let cp = prefix.concat(&path);
            if subtree_overlaps(&cp, start, end) {
                collect_range_pages(trie, child, cp, start, end, seen, pages)?;
            }
            Ok(())
        }
        Node::Branch { children, .. } => {
            for (i, child) in children.iter().enumerate() {
                if let Some(child) = child {
                    let cp = prefix.join(i as u8, &Nibbles::empty());
                    if subtree_overlaps(&cp, start, end) {
                        collect_range_pages(trie, *child, cp, start, end, seen, pages)?;
                    }
                }
            }
            Ok(())
        }
    }
}

/// MPT's [`ProofScheme`].
pub struct MptProofScheme;

impl ProofScheme for MptProofScheme {
    fn structure(&self) -> &'static str {
        "mpt"
    }

    fn verify_key_pages(&self, root: Hash, key: &[u8], pool: &mut PagePool) -> ProofVerdict {
        verify_key_pages(root, key, pool)
    }

    fn verify_range_pages(
        &self,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        pool: &mut PagePool,
        out: &mut Vec<Entry>,
    ) -> core::result::Result<(), &'static str> {
        verify_range_pages(root, start, end, pool, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::{verify_anchored_membership, Entry, MemStore};

    fn verify(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict {
        verify_anchored_membership(&MptProofScheme, root, key, proof)
    }

    fn trie() -> MerklePatriciaTrie {
        let mut t = MerklePatriciaTrie::new(MemStore::new_shared());
        t.batch_insert(
            (0..150)
                .map(|i| {
                    Entry::new(format!("addr{i:03}").into_bytes(), format!("bal{i}").into_bytes())
                })
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence() {
        let t = trie();
        let p = t.prove(b"addr099").unwrap();
        assert_eq!(
            verify(t.root(), b"addr099", &p),
            ProofVerdict::Present(Bytes::from_static(b"bal99"))
        );
    }

    #[test]
    fn absence_variants() {
        let t = trie();
        for key in [&b"addr999"[..], b"zzz", b"addr0991", b"addr09"] {
            let p = t.prove(key).unwrap();
            assert_eq!(
                verify(t.root(), key, &p),
                ProofVerdict::Absent,
                "key {:?}",
                String::from_utf8_lossy(key)
            );
        }
    }

    #[test]
    fn every_page_is_tamper_sensitive() {
        let t = trie();
        let proof = t.prove(b"addr077").unwrap();
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 11);
            assert!(!verify(t.root(), b"addr077", &p).is_valid(), "page {page}");
        }
    }

    #[test]
    fn proof_not_transferable_to_other_keys() {
        let t = trie();
        let p = t.prove(b"addr001").unwrap();
        let verdict = verify(t.root(), b"addr002", &p);
        assert!(verdict.value().is_none(), "must not prove a different key present");
    }

    #[test]
    fn empty_trie_proof() {
        let t = MerklePatriciaTrie::new(MemStore::new_shared());
        let p = t.prove(b"k").unwrap();
        assert_eq!(verify(t.root(), b"k", &p), ProofVerdict::Absent);
    }

    #[test]
    fn truncated_proof_rejected() {
        let t = trie();
        let p = t.prove(b"addr077").unwrap();
        assert!(p.len() >= 2);
        let truncated = Proof::new(p.pages()[..p.len() - 1].to_vec());
        assert!(!verify(t.root(), b"addr077", &truncated).is_valid());
    }
}
