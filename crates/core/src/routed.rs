//! Key-routed Merkle trees — the walks POS-Tree and the MVMB+-Tree share.
//!
//! Both structures route by each child's maximum key ("a sequence of split
//! keys and cryptographic hashes of the nodes in the lower layer") and
//! differ only in how node boundaries are chosen: content-defined
//! chunking for POS-Tree, fixed-fanout splits for the MVMB+ baseline. So
//! everything above the page codec lives here, written once and
//! monomorphised per structure:
//!
//! * the child reference [`ChildRef`] and the routing rule [`route`];
//! * point lookup ([`get_traced`]);
//! * proof generation ([`prove`], [`prove_range`]) and the [`PagePool`]
//!   verifier walks ([`verify_key_pages`], [`verify_range_pages`]), which
//!   share one descent with the prover so the two can never disagree
//!   about which pages a key or a range needs;
//! * the lazily positioned in-order [`Cursor`] behind range scans and
//!   POS-Tree's hash-first diff, and [`range`], its bounded stream.
//!
//! A crate plugs in by implementing [`RoutedNode`] for its decoded page.
//! It keeps its codec, its boundary policy (builder and update path) and
//! its diff strategy.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use siri_crypto::Hash;
use siri_store::{NodeCache, NodeStore, SharedStore};

use crate::cursor::{before_start, own_bound, past_end, start_seek_key};
use crate::verify::{bounds_contain, child_overlaps};
use crate::{Entry, EntryCursor, IndexError, LookupTrace, PagePool, Proof, ProofVerdict, Result};

/// Reference to a child node: the maximum key in its subtree and its
/// digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildRef {
    pub max_key: Bytes,
    pub hash: Hash,
}

/// Route a key to a child slot: the first child whose `max_key >= key`,
/// clamping beyond-max keys to the rightmost child (so inserts of new
/// maxima descend correctly).
pub fn route(children: &[ChildRef], key: &[u8]) -> usize {
    match children.binary_search_by(|c| c.max_key.as_ref().cmp(key)) {
        Ok(i) => i,
        Err(i) => i.min(children.len().saturating_sub(1)),
    }
}

/// What a decoded page holds.
pub enum NodeView<'a> {
    Internal(&'a [ChildRef]),
    Leaf(&'a [Entry]),
}

/// A decoded page of a key-routed tree.
pub trait RoutedNode: Sized + Send + Sync + 'static {
    /// Zero-copy decode: keys and values are refcounted slices of `page`.
    fn decode_zc(page: &Bytes) -> Result<Self>;

    fn view(&self) -> NodeView<'_>;

    /// The page's level (leaves are 0) when the codec stores one; `None`
    /// for codecs that do not, which skips the cursor's level checks.
    fn level(&self) -> Option<u32>;
}

/// Fetch and decode a node through the decoded-node cache (a cache of
/// capacity 0 decodes on every fetch). The flag reports a cache hit (no
/// store access, no decode).
pub fn load<N: RoutedNode>(
    store: &dyn NodeStore,
    cache: &NodeCache<N>,
    hash: &Hash,
) -> Result<(Arc<N>, bool)> {
    cache.get_or_load(hash, || {
        let page = store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
        N::decode_zc(&page)
    })
}

/// The one root→leaf descent behind lookups, proofs and proof checks:
/// the leaf that would hold `key`, or `None` when the tree is empty or an
/// internal node shows the key exceeds every key below it. Termination
/// needs no depth counter: every page hashes to the digest that
/// referenced it, so a cycle would be a SHA-256 fixpoint.
fn find_leaf<N: RoutedNode, L: Borrow<N>>(
    root: Hash,
    key: &[u8],
    mut load: impl FnMut(&Hash) -> Result<L>,
) -> Result<Option<L>> {
    let mut hash = root;
    while !hash.is_zero() {
        let node = load(&hash)?;
        hash = match node.borrow().view() {
            NodeView::Leaf(_) => return Ok(Some(node)),
            NodeView::Internal(children) => {
                let last =
                    children.last().ok_or(IndexError::CorruptStructure("empty internal node"))?;
                if key > last.max_key.as_ref() {
                    break;
                }
                children[route(children, key)].hash
            }
        };
    }
    Ok(None)
}

fn leaf_entries<N: RoutedNode>(node: &N) -> &[Entry] {
    match node.view() {
        NodeView::Leaf(entries) => entries,
        NodeView::Internal(_) => &[],
    }
}

/// Point lookup through the decoded-node cache, with instrumentation.
pub fn get_traced<N: RoutedNode>(
    store: &dyn NodeStore,
    cache: &NodeCache<N>,
    root: Hash,
    key: &[u8],
) -> Result<(Option<Bytes>, LookupTrace)> {
    let mut trace = LookupTrace::default();
    let load_start = Instant::now();
    let leaf = find_leaf::<N, _>(root, key, |hash| {
        let (node, cached) = load(store, cache, hash)?;
        trace.pages_loaded += 1;
        trace.height += 1;
        if cached {
            trace.cache_hits += 1;
        } else {
            trace.cache_misses += 1;
        }
        Ok(node)
    })?;
    trace.load_nanos = load_start.elapsed().as_nanos() as u64;
    let Some(leaf) = leaf else {
        return Ok((None, trace));
    };
    let scan_start = Instant::now();
    let entries = leaf_entries(&*leaf);
    let (mut lo, mut hi) = (0usize, entries.len());
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        trace.leaf_entries_scanned += 1;
        match entries[mid].key.as_ref().cmp(key) {
            std::cmp::Ordering::Equal => {
                found = Some(entries[mid].value.clone());
                break;
            }
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    trace.scan_nanos = scan_start.elapsed().as_nanos() as u64;
    Ok((found, trace))
}

/// Membership proof: the pages of `key`'s root→leaf path. When an
/// internal node already shows the key exceeds every stored key, the path
/// stops there.
pub fn prove<N: RoutedNode>(store: &dyn NodeStore, root: Hash, key: &[u8]) -> Result<Proof> {
    let mut pages = Vec::new();
    find_leaf::<N, N>(root, key, |hash| {
        let page = store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
        let node = N::decode_zc(&page)?;
        pages.push(page);
        Ok(node)
    })?;
    Ok(Proof::new(pages))
}

/// Re-walk one key's root→leaf path through a shared page pool — the
/// membership and batched-proof primitive.
pub fn verify_key_pages<N: RoutedNode>(
    root: Hash,
    key: &[u8],
    pool: &mut PagePool,
) -> ProofVerdict {
    let leaf = find_leaf::<N, N>(root, key, |hash| {
        let page = pool.get(hash).ok_or(IndexError::MissingPage(*hash))?;
        N::decode_zc(&page)
    });
    match leaf {
        Ok(None) => ProofVerdict::Absent,
        Ok(Some(leaf)) => {
            let entries = leaf_entries(&leaf);
            match entries.binary_search_by(|e| e.key.as_ref().cmp(key)) {
                Ok(i) => ProofVerdict::Present(entries[i].value.clone()),
                Err(_) => ProofVerdict::Absent,
            }
        }
        Err(e) => ProofVerdict::Invalid(rejection(&e)),
    }
}

/// Why a walk over proof pages failed, as a verdict reason.
fn rejection(e: &IndexError) -> &'static str {
    match e {
        IndexError::MissingPage(_) => "missing page in proof",
        IndexError::CorruptStructure(why) => why,
        _ => "page undecodable",
    }
}

/// Visit every subtree of `hash` overlapping the bounds, in key order,
/// handing each leaf's entries to `on_leaf`. The prover and the verifier
/// both run this walk, pruning with the shared [`child_overlaps`]
/// predicate, so a boundary subtree is never included by one side and
/// skipped by the other.
fn walk_range<N: RoutedNode>(
    hash: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    load: &mut impl FnMut(&Hash) -> Result<N>,
    on_leaf: &mut impl FnMut(&[Entry]),
) -> Result<()> {
    let node = load(&hash)?;
    match node.view() {
        NodeView::Leaf(entries) => on_leaf(entries),
        NodeView::Internal(children) => {
            let mut prev: Option<&[u8]> = None;
            for c in children {
                if child_overlaps(prev, &c.max_key, start, end) {
                    walk_range(c.hash, start, end, load, on_leaf)?;
                }
                prev = Some(&c.max_key);
            }
        }
    }
    Ok(())
}

/// Range proof: every page the range walk visits, each pushed once by
/// content hash. Descent is not skipped for already-pushed pages — dedup
/// applies to the page list only, so the walk stays the verifier's.
pub fn prove_range<N: RoutedNode>(
    store: &dyn NodeStore,
    root: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
) -> Result<Proof> {
    let mut pages = Vec::new();
    let mut seen = HashSet::new();
    if !root.is_zero() {
        let mut load = |hash: &Hash| -> Result<N> {
            let page = store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
            let node = N::decode_zc(&page)?;
            if seen.insert(*hash) {
                pages.push(page);
            }
            Ok(node)
        };
        walk_range::<N>(root, start, end, &mut load, &mut |_| {})?;
    }
    Ok(Proof::new(pages))
}

/// Re-walk every subtree of `root` overlapping the bounds through the
/// pool, appending in-bounds entries in key order.
pub fn verify_range_pages<N: RoutedNode>(
    root: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    pool: &mut PagePool,
    out: &mut Vec<Entry>,
) -> std::result::Result<(), &'static str> {
    if root.is_zero() {
        return Ok(());
    }
    let mut load = |hash: &Hash| -> Result<N> {
        let page = pool.get(hash).ok_or(IndexError::MissingPage(*hash))?;
        N::decode_zc(&page)
    };
    let mut on_leaf = |entries: &[Entry]| {
        out.extend(entries.iter().filter(|e| bounds_contain(start, end, &e.key)).cloned())
    };
    walk_range(root, start, end, &mut load, &mut on_leaf).map_err(|e| rejection(&e))
}

struct Frame<N> {
    /// Always an internal node.
    node: Arc<N>,
    /// The node's level (≥ 1) when the codec stores one; its children sit
    /// one level lower.
    level: Option<u32>,
    idx: usize,
}

impl<N: RoutedNode> Frame<N> {
    fn children(&self) -> &[ChildRef] {
        match self.node.view() {
            NodeView::Internal(children) => children,
            NodeView::Leaf(_) => unreachable!("frames hold internal nodes only"),
        }
    }
}

/// In-order cursor over one tree version that exposes the nodes starting
/// at the current position, so callers can skip whole shared subtrees
/// without reading them.
///
/// The cursor is *lazily positioned*. At a node boundary the position is
/// the start of the node in the current child slot of the deepest loaded
/// node: the cursor knows that node's digest (from its parent's child
/// list) and, where the codec stores levels, its level (one below the
/// parent's), but has not fetched it. A page is fetched only when an
/// entry must be read ([`Cursor::peek`]) or the walk asks to look inside
/// the pending node ([`Cursor::descend`]).
///
/// Nodes are held as `Arc`s straight out of the tree's decoded-node
/// cache, and the cursor owns its store and cache handles, so it is
/// `'static` and can outlive the index handle that spawned it.
pub struct Cursor<N> {
    store: SharedStore,
    cache: Arc<NodeCache<N>>,
    root: Hash,
    /// Loaded internal nodes from the root down, each at the child slot
    /// that holds the position; empty when the root is a leaf.
    stack: Vec<Frame<N>>,
    /// The loaded leaf holding the position and the entry index in it.
    /// `None` while the position is the start of the unloaded node in the
    /// top frame's current slot.
    leaf: Option<(Arc<N>, usize)>,
    done: bool,
}

impl<N: RoutedNode> Cursor<N> {
    /// A cursor at the first entry, with node loads through `cache`. The
    /// root is loaded here; everything below it is loaded on demand.
    pub fn new(store: SharedStore, cache: Arc<NodeCache<N>>, root: Hash) -> Result<Self> {
        let mut c = Cursor::at_root(store, cache, root);
        if !c.done {
            c.descend()?;
        }
        Ok(c)
    }

    /// A cursor at the first entry with key ≥ `key` (exhausted if there is
    /// none). O(log N): loads one root→leaf path.
    pub fn seek(
        store: SharedStore,
        cache: Arc<NodeCache<N>>,
        root: Hash,
        key: &[u8],
    ) -> Result<Self> {
        let mut c = Cursor::at_root(store, cache, root);
        while !c.done {
            c.descend()?;
            if let Some((node, idx)) = &mut c.leaf {
                *idx = leaf_entries(&**node).partition_point(|e| e.key.as_ref() < key);
                if *idx >= leaf_entries(&**node).len() {
                    // Key is beyond this leaf (can only happen on the
                    // rightmost spine): move on.
                    c.next_node();
                }
                break;
            }
            if let Some(f) = c.stack.last_mut() {
                f.idx = route(f.children(), key);
            }
        }
        Ok(c)
    }

    fn at_root(store: SharedStore, cache: Arc<NodeCache<N>>, root: Hash) -> Self {
        Cursor { store, cache, root, stack: Vec::new(), leaf: None, done: root.is_zero() }
    }

    /// Level of the pending (unloaded) node at the position, or `None`
    /// when a leaf is loaded, the cursor is done, or the codec stores no
    /// levels.
    pub fn pending_level(&self) -> Option<u32> {
        if self.done || self.leaf.is_some() {
            return None;
        }
        self.stack.last().and_then(|f| f.level).map(|l| l - 1)
    }

    /// Load the node in the current slot. An internal node becomes a frame
    /// on its first child; a leaf becomes the current leaf at its first
    /// entry. Where the codec stores levels, checks the page's level
    /// against its parent's.
    pub fn descend(&mut self) -> Result<()> {
        debug_assert!(!self.done && self.leaf.is_none());
        let expected = self.stack.last().and_then(|f| f.level).map(|l| l - 1);
        let (node, _) = load(self.store.as_ref(), &self.cache, &self.start_hash(0))?;
        let level = node.level();
        if expected.is_some_and(|e| level.is_some_and(|l| l != e)) {
            return Err(IndexError::CorruptStructure("level mismatch"));
        }
        match node.view() {
            NodeView::Leaf(entries) => {
                if entries.is_empty() {
                    return Err(IndexError::CorruptStructure("empty stored leaf"));
                }
                self.leaf = Some((node, 0));
            }
            NodeView::Internal(children) => {
                if children.is_empty() {
                    return Err(IndexError::CorruptStructure("empty internal node"));
                }
                if level == Some(0) {
                    return Err(IndexError::CorruptStructure("level mismatch"));
                }
                self.stack.push(Frame { node, level, idx: 0 });
            }
        }
        Ok(())
    }

    /// Descend until a leaf holds the position (or the cursor is done).
    fn settle(&mut self) -> Result<()> {
        while !self.done && self.leaf.is_none() {
            self.descend()?;
        }
        Ok(())
    }

    /// The entry at the current position, loading its leaf if needed.
    pub fn peek(&mut self) -> Result<Option<&Entry>> {
        self.settle()?;
        Ok(self.leaf.as_ref().and_then(|(node, idx)| leaf_entries(&**node).get(*idx)))
    }

    /// Move to the next entry. Stepping off the end of a leaf reads
    /// nothing: the cursor then waits, unloaded, at the start of the next
    /// node.
    pub fn advance(&mut self) -> Result<()> {
        self.settle()?;
        let Some((node, idx)) = &mut self.leaf else {
            return Ok(());
        };
        *idx += 1;
        if *idx >= leaf_entries(&**node).len() {
            self.next_node();
        }
        Ok(())
    }

    /// Move past the node in the current slot to the start of the next
    /// one, climbing out of exhausted frames. Reads nothing.
    fn next_node(&mut self) {
        self.leaf = None;
        while let Some(f) = self.stack.last_mut() {
            f.idx += 1;
            if f.idx < f.children().len() {
                return;
            }
            self.stack.pop();
        }
        self.done = true;
    }

    /// How many nodes start at the current position: the node in the
    /// current slot, then each enclosing node (up to the root) whose first
    /// entry is the position. Zero mid-leaf and when done.
    pub fn start_depth(&self) -> usize {
        if self.done || matches!(self.leaf, Some((_, idx)) if idx > 0) {
            return 0;
        }
        1 + self.stack.iter().rev().take_while(|f| f.idx == 0).count()
    }

    /// Digest of the `k`-th node starting at the position, innermost
    /// first (`k < start_depth()`); known without reading any page.
    pub fn start_hash(&self, k: usize) -> Hash {
        match (self.stack.len() - k).checked_sub(1) {
            Some(i) => {
                let f = &self.stack[i];
                f.children()[f.idx].hash
            }
            None => self.root,
        }
    }

    /// Skip the `k`-th node starting at the position (see
    /// [`Cursor::start_hash`]) and its whole subtree, reading nothing.
    pub fn skip_start(&mut self, k: usize) {
        debug_assert!(k < self.start_depth());
        self.stack.truncate(self.stack.len() - k);
        self.next_node();
    }

    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// Stream the entries of `(start, end)` in key order: a [`Cursor`] seeked
/// to the start bound, wrapped to skip an exclusive-start match and to
/// stop at the first key past the end bound. Seek failures surface as the
/// stream's first item.
pub fn range<N: RoutedNode>(
    store: SharedStore,
    cache: Arc<NodeCache<N>>,
    root: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
) -> EntryCursor {
    let start = own_bound(start);
    match Cursor::seek(store, cache, root, start_seek_key(&start)) {
        Ok(cursor) => {
            EntryCursor::new(RangeIter { cursor, start, end: own_bound(end), done: false })
        }
        Err(e) => EntryCursor::fail(e),
    }
}

struct RangeIter<N> {
    cursor: Cursor<N>,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    done: bool,
}

impl<N: RoutedNode> RangeIter<N> {
    /// The entry at the position, and move past it. Only the peek reads
    /// pages, so an entry is never lost to a failing fetch of the next
    /// leaf: that error surfaces on the following call.
    fn step(&mut self) -> Result<Option<Entry>> {
        let entry = self.cursor.peek()?.cloned();
        self.cursor.advance()?;
        Ok(entry)
    }
}

impl<N: RoutedNode> Iterator for RangeIter<N> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.step() {
                // Exclusive start: skip the seeked-to match.
                Ok(Some(entry)) if before_start(&self.start, &entry.key) => continue,
                Ok(Some(entry)) if !past_end(&self.end, &entry.key) => return Some(Ok(entry)),
                Ok(_) => self.done = true,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}
