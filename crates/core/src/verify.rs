//! Anchored proof verification — the structure-agnostic half of the
//! verified-read contract.
//!
//! The per-index crates know how to walk their own page encodings; this
//! module knows what every proof shares:
//!
//! * **Anchoring** — the first proof page must hash to the trusted branch
//!   digest. On a sharded branch that digest addresses a
//!   [`ShardManifest`] page, so the manifest *is* the first page and each
//!   per-shard sub-proof anchors at the sub-root the (now-verified)
//!   manifest names. An unsharded digest addresses an index root page
//!   directly and the walk starts there.
//! * **The page pool** — range and batch proofs are page *sets*, not
//!   single paths: interior pages shared by several keys (or several
//!   shards — MBT's empty-bucket pages are byte-identical across shards)
//!   appear once. [`PagePool`] indexes pages by content hash, lets walks
//!   fetch the same page repeatedly, and tracks usage: a proof is complete
//!   iff every page a walk needs is present *and* every supplied page was
//!   used at least once. Under that rule any single-bit flip is fatal —
//!   the flipped page both breaks the hash link that referenced it and
//!   becomes an unreferenced leftover.
//! * **Global ordering** — range results must be strictly ascending across
//!   shard sub-walks, which also rejects duplicated or reordered entries.
//!
//! Provers and verifiers must agree on which subtrees a range touches;
//! [`child_overlaps`] is that shared pruning predicate for max-key-routed
//! structures (POS-Tree, MVMB+). It is deliberately conservative on
//! boundaries: an over-included subtree costs proof bytes, never
//! soundness, as long as both sides over-include identically.

use std::collections::HashMap;
use std::ops::Bound;

use bytes::Bytes;
use siri_crypto::{sha256, Hash};

use crate::shard::ShardManifest;
use crate::{Entry, Proof, ProofVerdict};

/// Content-addressed page set built from a proof's pages, with per-page
/// usage tracking (see the module docs for the completeness rule).
pub struct PagePool {
    pages: HashMap<Hash, (Bytes, bool)>,
}

impl PagePool {
    /// Index `pages` by content hash. Duplicate pages are rejected —
    /// honest provers deduplicate, so a repeat is either waste or padding
    /// smuggled past the all-used check.
    pub fn build(pages: &[Bytes]) -> Result<PagePool, &'static str> {
        let mut map = HashMap::with_capacity(pages.len());
        for p in pages {
            if map.insert(sha256(p), (p.clone(), false)).is_some() {
                return Err("duplicate page in proof");
            }
        }
        Ok(PagePool { pages: map })
    }

    /// Fetch a page by content hash, marking it used. Repeated fetches are
    /// fine — identical pages legitimately recur at different tree
    /// positions. The returned page is guaranteed to hash to `hash` (that
    /// is its index), so callers never re-hash.
    pub fn get(&mut self, hash: &Hash) -> Option<Bytes> {
        self.pages.get_mut(hash).map(|(page, used)| {
            *used = true;
            page.clone()
        })
    }

    /// Did every supplied page participate in some walk?
    pub fn all_used(&self) -> bool {
        self.pages.values().all(|(_, used)| *used)
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// The structure-specific verification walks, behind a dyn-safe trait so a
/// client can verify proofs for whatever structure the server runs without
/// compiling against it generically. Implementations are stateless unit
/// structs (`MptProofScheme`, `MbtProofScheme`, …), one per index crate.
pub trait ProofScheme: Send + Sync {
    /// Structure name as reported by `SiriIndex::kind` / factory `name`.
    fn structure(&self) -> &'static str;

    /// Re-walk one key's root→leaf path through a [`PagePool`] — the
    /// membership and batched-proof primitive (a batch's paths share
    /// interior pages).
    fn verify_key_pages(&self, root: Hash, key: &[u8], pool: &mut PagePool) -> ProofVerdict;

    /// Re-walk every subtree of `root` overlapping `[start, end)` through
    /// a [`PagePool`], appending the in-bounds entries in key order. A
    /// missing or undecodable page is an error; bounds filtering and
    /// ordering of `out` across calls is the caller's (the anchored
    /// verifier's) concern.
    fn verify_range_pages(
        &self,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        pool: &mut PagePool,
        out: &mut Vec<Entry>,
    ) -> Result<(), &'static str>;
}

/// Outcome of verifying a range proof: either the *complete* entry set of
/// `[start, end)` under the trusted digest, or a reason the proof is bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeVerdict {
    /// The proof is valid: these are exactly the entries in the range.
    Complete(Vec<Entry>),
    /// The proof does not verify against the digest.
    Invalid(&'static str),
}

impl RangeVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, RangeVerdict::Complete(_))
    }

    pub fn entries(&self) -> Option<&[Entry]> {
        match self {
            RangeVerdict::Complete(entries) => Some(entries),
            RangeVerdict::Invalid(_) => None,
        }
    }

    pub fn into_entries(self) -> Option<Vec<Entry>> {
        match self {
            RangeVerdict::Complete(entries) => Some(entries),
            RangeVerdict::Invalid(_) => None,
        }
    }
}

/// Outcome of verifying a batched multi-key proof: one per-key verdict in
/// input order, or a reason the shared page set is bad. Per-key verdicts
/// are only `Present`/`Absent` — any structural invalidity rejects the
/// whole proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVerdict {
    Verified(Vec<ProofVerdict>),
    Invalid(&'static str),
}

impl BatchVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, BatchVerdict::Verified(_))
    }

    pub fn verdicts(&self) -> Option<&[ProofVerdict]> {
        match self {
            BatchVerdict::Verified(v) => Some(v),
            BatchVerdict::Invalid(_) => None,
        }
    }
}

/// Is `key` inside `[start, end)`-style bounds?
pub fn bounds_contain(start: Bound<&[u8]>, end: Bound<&[u8]>, key: &[u8]) -> bool {
    let after_start = match start {
        Bound::Unbounded => true,
        Bound::Included(a) => key >= a,
        Bound::Excluded(a) => key > a,
    };
    let before_end = match end {
        Bound::Unbounded => true,
        Bound::Included(b) => key <= b,
        Bound::Excluded(b) => key < b,
    };
    after_start && before_end
}

/// Shared range-pruning predicate for max-key-routed structures: does the
/// child subtree covering keys in `(prev_max, max_key]` overlap the query
/// bounds? Both the prover (deciding which pages to ship) and the verifier
/// (deciding which children to demand) call this, so they can never
/// disagree about a boundary subtree.
pub fn child_overlaps(
    prev_max: Option<&[u8]>,
    max_key: &[u8],
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
) -> bool {
    let below_start = match start {
        Bound::Unbounded => false,
        Bound::Included(a) => max_key < a,
        Bound::Excluded(a) => max_key <= a,
    };
    let above_end = match end {
        Bound::Unbounded => false,
        Bound::Included(b) | Bound::Excluded(b) => prev_max.is_some_and(|p| p >= b),
    };
    !below_start && !above_end
}

/// Anchor check shared by the anchored verifiers: hash the first page
/// against the trusted digest, then classify it — a manifest page
/// (sharded branch: route sub-walks at the manifest's sub-roots over the
/// remaining pages) or an index root page (unsharded: walk everything from
/// the digest itself).
fn anchor(digest: Hash, proof: &Proof) -> Result<Option<(ShardManifest, &[Bytes])>, &'static str> {
    let pages = proof.pages();
    let Some(first) = pages.first() else {
        return Err("empty proof for a non-empty digest");
    };
    if sha256(first) != digest {
        return Err("proof does not anchor at the trusted digest");
    }
    if ShardManifest::is_manifest(first) {
        let manifest = ShardManifest::decode(first).map_err(|_| "manifest page undecodable")?;
        Ok(Some((manifest, &pages[1..])))
    } else {
        Ok(None)
    }
}

/// Anchor `proof` at a non-zero `digest`, pool the pages below the
/// anchor, run `walk` over them — with the manifest on a sharded branch —
/// and require every pooled page to have been used.
fn walk_anchored<T>(
    digest: Hash,
    proof: &Proof,
    walk: impl FnOnce(&mut PagePool, Option<&ShardManifest>) -> Result<T, &'static str>,
) -> Result<T, &'static str> {
    let (manifest, pages) = match anchor(digest, proof)? {
        None => (None, proof.pages()),
        Some((manifest, rest)) => (Some(manifest), rest),
    };
    let mut pool = PagePool::build(pages)?;
    let out = walk(&mut pool, manifest.as_ref())?;
    pool.all_used().then_some(out).ok_or("unused pages in proof")
}

/// Walk each key's path from its sub-root (its shard's root, or the
/// digest itself when unsharded) through one shared pool. Any structural
/// invalidity rejects the whole proof.
fn verify_keys<K: AsRef<[u8]>>(
    scheme: &dyn ProofScheme,
    digest: Hash,
    keys: &[K],
    proof: &Proof,
) -> Result<Vec<ProofVerdict>, &'static str> {
    if digest.is_zero() {
        return if proof.is_empty() {
            Ok(vec![ProofVerdict::Absent; keys.len()])
        } else {
            Err("non-empty proof for an empty digest")
        };
    }
    walk_anchored(digest, proof, |pool, manifest| {
        let router = manifest.map(ShardManifest::router);
        let mut verdicts = Vec::with_capacity(keys.len());
        for key in keys {
            let key = key.as_ref();
            let root = match (manifest, &router) {
                (Some(m), Some(r)) => m.roots[r.shard_of(key)],
                _ => digest,
            };
            let verdict = if root.is_zero() {
                ProofVerdict::Absent
            } else {
                scheme.verify_key_pages(root, key, pool)
            };
            if let ProofVerdict::Invalid(why) = verdict {
                return Err(why);
            }
            verdicts.push(verdict);
        }
        Ok(verdicts)
    })
}

/// Verify a membership/non-membership proof against a trusted *branch
/// digest* — manifest or bare root, the caller does not need to know which
/// (that is the point: `branch_digest` is the only hash a light client
/// holds). The key's path is re-walked through a [`PagePool`], and every
/// supplied page must lie on it.
pub fn verify_anchored_membership(
    scheme: &dyn ProofScheme,
    digest: Hash,
    key: &[u8],
    proof: &Proof,
) -> ProofVerdict {
    match verify_keys(scheme, digest, &[key], proof) {
        Ok(mut verdicts) => verdicts.pop().unwrap_or(ProofVerdict::Invalid("no verdict")),
        Err(why) => ProofVerdict::Invalid(why),
    }
}

/// Verify a range proof against a trusted branch digest: on success the
/// verdict carries *exactly* the entries of `[start, end)` — nothing
/// missing (every needed page must be present and every supplied page
/// used), nothing extra (bounds filtering + strict global ordering).
pub fn verify_anchored_range(
    scheme: &dyn ProofScheme,
    digest: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    proof: &Proof,
) -> RangeVerdict {
    if digest.is_zero() {
        return if proof.is_empty() {
            RangeVerdict::Complete(Vec::new())
        } else {
            RangeVerdict::Invalid("non-empty proof for an empty digest")
        };
    }
    let walked = walk_anchored(digest, proof, |pool, manifest| {
        let mut out = Vec::new();
        match manifest {
            None => scheme.verify_range_pages(digest, start, end, pool, &mut out)?,
            Some(manifest) => {
                let (lo, hi) = manifest.router().covering(start, end);
                for root in &manifest.roots[lo..=hi] {
                    if !root.is_zero() {
                        scheme.verify_range_pages(*root, start, end, pool, &mut out)?;
                    }
                }
            }
        }
        Ok(out)
    });
    match walked {
        Err(why) => RangeVerdict::Invalid(why),
        Ok(out) if out.windows(2).any(|w| w[0].key >= w[1].key) => {
            RangeVerdict::Invalid("range entries out of order")
        }
        Ok(out) => RangeVerdict::Complete(out),
    }
}

/// Verify a batched multi-key proof against a trusted branch digest. The
/// page set is shared: each key's path re-walks through the pool, and the
/// all-used rule rejects padding. Verdicts come back in `keys` order.
pub fn verify_anchored_batch(
    scheme: &dyn ProofScheme,
    digest: Hash,
    keys: &[Bytes],
    proof: &Proof,
) -> BatchVerdict {
    if keys.is_empty() {
        return if proof.is_empty() {
            BatchVerdict::Verified(Vec::new())
        } else {
            BatchVerdict::Invalid("pages for an empty key set")
        };
    }
    match verify_keys(scheme, digest, keys, proof) {
        Ok(verdicts) => BatchVerdict::Verified(verdicts),
        Err(why) => BatchVerdict::Invalid(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_usage_and_rejects_duplicates() {
        let a = Bytes::from_static(b"page a");
        let b = Bytes::from_static(b"page b");
        let mut pool = PagePool::build(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(!pool.all_used());
        assert_eq!(pool.get(&sha256(&a)).unwrap(), a);
        // Repeated gets are allowed (identical pages recur across shards).
        assert_eq!(pool.get(&sha256(&a)).unwrap(), a);
        assert!(!pool.all_used());
        assert_eq!(pool.get(&sha256(&b)).unwrap(), b);
        assert!(pool.all_used());
        assert!(pool.get(&sha256(b"absent")).is_none());
        assert!(PagePool::build(&[a.clone(), a]).is_err(), "duplicates rejected");
    }

    #[test]
    fn bounds_contain_matches_range_semantics() {
        use Bound::*;
        assert!(bounds_contain(Unbounded, Unbounded, b"k"));
        assert!(bounds_contain(Included(b"k"), Excluded(b"m"), b"k"));
        assert!(!bounds_contain(Excluded(b"k"), Unbounded, b"k"));
        assert!(!bounds_contain(Unbounded, Excluded(b"k"), b"k"));
        assert!(bounds_contain(Unbounded, Included(b"k"), b"k"));
    }

    #[test]
    fn child_overlap_is_conservative_on_boundaries() {
        use Bound::*;
        // Subtree covers (None, "m"]: overlaps anything not strictly above.
        assert!(child_overlaps(None, b"m", Unbounded, Unbounded));
        assert!(child_overlaps(None, b"m", Included(b"m"), Unbounded));
        assert!(!child_overlaps(None, b"m", Excluded(b"m"), Unbounded));
        assert!(!child_overlaps(None, b"m", Included(b"n"), Unbounded));
        // Subtree covers ("m", "z"]: starts after the end bound ⇒ skip.
        assert!(!child_overlaps(Some(b"m"), b"z", Unbounded, Excluded(b"m")));
        assert!(!child_overlaps(Some(b"m"), b"z", Unbounded, Included(b"m")));
        assert!(child_overlaps(Some(b"m"), b"z", Unbounded, Included(b"n")));
    }

    #[test]
    fn zero_digest_anchoring() {
        struct NoScheme;
        impl ProofScheme for NoScheme {
            fn structure(&self) -> &'static str {
                "none"
            }
            fn verify_key_pages(&self, _: Hash, _: &[u8], _: &mut PagePool) -> ProofVerdict {
                unreachable!("zero digests never reach the scheme")
            }
            fn verify_range_pages(
                &self,
                _: Hash,
                _: Bound<&[u8]>,
                _: Bound<&[u8]>,
                _: &mut PagePool,
                _: &mut Vec<Entry>,
            ) -> Result<(), &'static str> {
                unreachable!()
            }
        }
        let empty = Proof::new(Vec::new());
        let junk = Proof::new(vec![Bytes::from_static(b"junk")]);
        assert_eq!(
            verify_anchored_membership(&NoScheme, Hash::ZERO, b"k", &empty),
            ProofVerdict::Absent
        );
        assert!(!verify_anchored_membership(&NoScheme, Hash::ZERO, b"k", &junk).is_valid());
        assert_eq!(
            verify_anchored_range(
                &NoScheme,
                Hash::ZERO,
                Bound::Unbounded,
                Bound::Unbounded,
                &empty
            ),
            RangeVerdict::Complete(Vec::new())
        );
        let keys = vec![Bytes::from_static(b"k")];
        assert_eq!(
            verify_anchored_batch(&NoScheme, Hash::ZERO, &keys, &empty),
            BatchVerdict::Verified(vec![ProofVerdict::Absent])
        );
        assert!(!verify_anchored_batch(&NoScheme, Hash::ZERO, &keys, &junk).is_valid());
        assert_eq!(
            verify_anchored_batch(&NoScheme, Hash::ZERO, &[], &empty),
            BatchVerdict::Verified(Vec::new())
        );
    }
}
