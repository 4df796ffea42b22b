//! The unified index interface — one API over MPT, MBT, POS-Tree and the
//! MVMB+-Tree baseline, mirroring the paper's operation set (§3.1, §4.1):
//! `put`/`del` via atomic [`WriteBatch`] commits, `get`, streaming range
//! scans, comparison (diff), merge, plus the page-set accessor feeding the
//! deduplication metrics.

use std::collections::HashSet;
use std::ops::Bound;

use bytes::Bytes;

use siri_crypto::{sha256, Hash};
use siri_store::{PageSet, SharedStore};

use crate::cursor::{prefix_successor, EntryCursor};
use crate::{DiffEntry, Entry, IndexError, Proof, Result, WriteBatch};

/// Instrumentation captured by [`SiriIndex::get_traced`].
///
/// Feeds two of the paper's plots directly: the traversed-height histogram
/// (Figure 9) and the MBT load-vs-scan breakdown (Figure 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupTrace {
    /// Pages fetched from the store along the path (tree height, counting
    /// the leaf/bucket page). Node-cache hits count too: the page was
    /// *needed*, it just wasn't re-fetched (see `cache_hits`).
    pub pages_loaded: u32,
    /// Levels traversed root→leaf, counting both ends.
    pub height: u32,
    /// Entries examined inside the final leaf/bucket (binary search probes
    /// count the entries they touch).
    pub leaf_entries_scanned: u32,
    /// Nanoseconds spent fetching + decoding pages ("load time", Fig. 13).
    pub load_nanos: u64,
    /// Nanoseconds spent searching within the leaf ("scan time", Fig. 13).
    pub scan_nanos: u64,
    /// Path nodes served from the index's decoded-node cache — no store
    /// access, no decode (the §5.6.1 hit-ratio lever, per lookup).
    pub cache_hits: u32,
    /// Path nodes that had to be fetched from the store and decoded.
    pub cache_misses: u32,
}

/// The SIRI index interface (paper §3, §4).
///
/// # Versioning model
///
/// A value implementing `SiriIndex` is a lightweight *handle*:
/// `(store, root hash, parameters)`. Updates rewrite the copy-on-write
/// spine inside the shared store and swap the handle's root. Cloning a
/// handle therefore snapshots a version for free, and any number of
/// versions coexist in one store, sharing pages — the paper's immutability
/// model.
///
/// # Write model
///
/// All mutation flows through [`SiriIndex::commit`]: a [`WriteBatch`] of
/// puts and deletes is resolved per key (last op wins) and applied in one
/// copy-on-write pass, yielding exactly one new version. `insert`,
/// `delete` and `batch_insert` are thin single-op / puts-only wrappers.
///
/// # Read model
///
/// All enumeration flows through [`SiriIndex::range`]: a lazy
/// [`EntryCursor`] that walks the tree leaf-by-leaf through the decoded-
/// node cache and yields entries in key order. `scan` and `scan_prefix`
/// are bound-sugar over it; nothing in the read path materializes the
/// dataset.
///
/// # Contract
///
/// * `commit` with batch `B` must leave the index equal to applying `B`'s
///   operations one by one (later operations on a key win); deleting an
///   absent key is a no-op.
/// * For the three SIRI structures (MPT, MBT, POS-Tree), the root hash must
///   be a pure function of the *surviving* key/value set — *Structurally
///   Invariant*. In particular, delete-then-reinsert restores the identical
///   root. The MVMB+ baseline deliberately violates this.
/// * `range` yields entries sorted by key (MBT merge-sorts its buckets on
///   the fly, reflecting that hashing destroys global order).
pub trait SiriIndex: Clone + Send + Sync {
    /// Short structure name, e.g. `"pos-tree"` — used in reports.
    fn kind(&self) -> &'static str;

    /// The shared page store this handle operates on.
    fn store(&self) -> &SharedStore;

    /// Content address of the root page; [`Hash::ZERO`] for an empty index.
    /// This is the tamper-evident digest of the entire dataset.
    fn root(&self) -> Hash;

    /// A handle to a *different version* of this index sharing everything
    /// else — store, parameters and the decoded-node cache. Cheaper than
    /// a factory `open` (which allocates a fresh cache) and the right way
    /// to follow a moving head: versions of one lineage share most pages,
    /// so re-rooting keeps the cache warm.
    fn at_root(&self, root: Hash) -> Self;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>>;

    /// Point lookup with instrumentation (Figures 9 and 13).
    fn get_traced(&self, key: &[u8]) -> Result<(Option<Bytes>, LookupTrace)>;

    /// Apply a [`WriteBatch`] of puts and deletes atomically in one
    /// copy-on-write pass, returning the new root digest. Operations on the
    /// same key resolve to the last occurrence; deleting an absent key is a
    /// no-op. Clone the handle first to keep the old version.
    fn commit(&mut self, batch: WriteBatch) -> Result<Hash>;

    /// Insert or overwrite one record — a one-put [`WriteBatch`].
    fn insert(&mut self, key: &[u8], value: Bytes) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(Bytes::copy_from_slice(key), value);
        self.commit(batch).map(drop)
    }

    /// Remove one record — a one-delete [`WriteBatch`]. Removing an absent
    /// key leaves the root unchanged.
    fn delete(&mut self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(Bytes::copy_from_slice(key));
        self.commit(batch).map(drop)
    }

    /// Insert or overwrite a batch of records — a puts-only [`WriteBatch`].
    /// Duplicate keys inside the batch resolve to the last occurrence.
    fn batch_insert(&mut self, entries: Vec<Entry>) -> Result<()> {
        self.commit(WriteBatch::from_entries(entries)).map(drop)
    }

    /// Stream all entries with keys inside `(start, end)` in key order,
    /// lazily — the unified read path behind `scan` and `scan_prefix`.
    /// The cursor walks leaf-by-leaf through the decoded-node cache; errors
    /// surface as `Err` items.
    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor;

    /// All entries whose keys start with `prefix`, in key order — sugar for
    /// [`SiriIndex::range`] over `[prefix, prefix-successor)`.
    fn scan_prefix(&self, prefix: &[u8]) -> EntryCursor {
        match prefix_successor(prefix) {
            Some(end) => self.range(Bound::Included(prefix), Bound::Excluded(&end)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// All entries, sorted by key, materialized. Prefer iterating
    /// [`SiriIndex::range`] when the result does not need to be held whole.
    fn scan(&self) -> Result<Vec<Entry>> {
        self.range(Bound::Unbounded, Bound::Unbounded).collect()
    }

    /// Number of records. The default drains a cursor (no sort, but still
    /// O(N) page walks); implementations override when they can count from
    /// node metadata or leaf traversal without decoding values.
    fn len(&self) -> Result<usize> {
        let mut n = 0usize;
        for entry in self.range(Bound::Unbounded, Bound::Unbounded) {
            entry?;
            n += 1;
        }
        Ok(n)
    }

    fn is_empty(&self) -> bool {
        self.root().is_zero()
    }

    /// The page set P(I) reachable from the root — input to the
    /// deduplication metrics (§4.2).
    fn page_set(&self) -> PageSet;

    /// Structural diff (paper §4.1.3): every key present in exactly one
    /// side or with different values on the two sides. Implementations
    /// exploit structural invariance by skipping identical subtree hashes.
    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>>;

    /// Produce a Merkle proof for `key` (present or absent).
    fn prove(&self, key: &[u8]) -> Result<Proof>;

    /// Produce a range proof: the page set whose verification yields
    /// *exactly* the entries in `[start, end)` (see
    /// [`crate::verify_anchored_range`]). Pages are deduplicated by
    /// content hash. The default refuses — the four real structures
    /// override it.
    fn prove_range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Proof> {
        let _ = (start, end);
        Err(IndexError::Unsupported("range proofs"))
    }

    /// Produce one proof for many keys, deduplicating the interior pages
    /// their paths share (see [`crate::verify_anchored_batch`]): each
    /// key's membership proof, with every page kept once by content hash.
    fn prove_batch(&self, keys: &[Bytes]) -> Result<Proof> {
        let mut pages = Vec::new();
        let mut seen = HashSet::new();
        for key in keys {
            for page in self.prove(key)?.into_pages() {
                if seen.insert(sha256(&page)) {
                    pages.push(page);
                }
            }
        }
        Ok(Proof::new(pages))
    }
}
