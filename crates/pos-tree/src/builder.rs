//! Bottom-up tree construction: boundary judges and the per-level builder
//! pipeline.
//!
//! Each level of the tree has a [`LevelBuilder`] holding the items of the
//! node currently being formed. When the boundary judge fires (or the
//! forced maximum is hit), the node is sealed, stored, and its
//! [`ChildRef`] cascades as an item into the builder one level up — the
//! "bottom-up build order" whose batching advantage §5.2/§5.3.1 highlight.
//!
//! Builders also support *pass-through*: an untouched old node can be
//! re-used wholesale when every builder at its level and below is sitting
//! exactly on a node boundary. Because chunking state resets at node
//! starts, the chunker would provably reproduce the same node — this is
//! what makes incremental updates O(polylog) instead of O(N) while keeping
//! the tree Structurally Invariant.

use bytes::Bytes;
use siri_core::routed::ChildRef;
use siri_core::{entry_codec, Entry, Result};
use siri_crypto::{GearHash, Hash, RollingHash, GEAR_WINDOW};
use siri_encoding::{ByteWriter, Scratch};
use siri_store::SharedStore;

use crate::node::Node;
use crate::params::{ChunkerKind, InternalChunking, PosParams, SplitPolicy};

/// Leaves queued for one multi-lane hash+store round. Small enough that a
/// resync flush mid-update wastes little batching, large enough to fill the
/// SHA-256 lanes on a fresh build.
const LEAF_BATCH: usize = 8;

/// An item flowing through a level: an entry (level 0) or a child piece.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    Entry(Entry),
    Ref(ChildRef),
}

impl Item {
    pub fn key(&self) -> &Bytes {
        match self {
            Item::Entry(e) => &e.key,
            Item::Ref(p) => &p.max_key,
        }
    }
}

/// Content-defined boundary detector for one level.
enum Judge {
    /// Roll a window over item bytes; fire when the low `bits` of the
    /// fingerprint are all ones (the paper's example pattern).
    Roller { roller: RollingHash, mask: u64 },
    /// Gear fast path: implicit 64-byte window, one table lookup + shift +
    /// add per byte, boundary tested on the fingerprint's *high* bits, and
    /// min-chunk cut-point skipping (FastCDC): no byte before `min_test`
    /// can end a node, so bytes more than a gear window before it are not
    /// even hashed. `fed` counts bytes since the node start, which keeps the
    /// decision a pure function of the node-local stream — the structural-
    /// invariance requirement.
    Gear { gear: GearHash, mask: u64, min_test: usize, fed: usize },
    /// Test the low bits of the child digest directly (§3.4.3's
    /// optimization for internal layers).
    HashBits { mask: u64 },
}

impl Judge {
    fn leaf(params: &PosParams) -> Judge {
        Judge::rolling(params, params.leaf_pattern_bits)
    }

    fn internal(params: &PosParams) -> Judge {
        match params.internal_chunking {
            InternalChunking::HashPattern => {
                Judge::HashBits { mask: (1u64 << params.internal_pattern_bits) - 1 }
            }
            InternalChunking::RollingWindow => Judge::rolling(params, params.internal_pattern_bits),
        }
    }

    /// Sliding-window judge firing with probability 2^-bits per byte.
    fn rolling(params: &PosParams, bits: u32) -> Judge {
        match params.chunker {
            ChunkerKind::Buzhash => {
                Judge::Roller { roller: RollingHash::new(params.window), mask: (1u64 << bits) - 1 }
            }
            ChunkerKind::Gear => Judge::Gear {
                gear: GearHash::new(),
                mask: GearHash::mask_high(bits),
                // Expected node 2^bits bytes; skip the first quarter (but
                // never less than the warm-up window).
                min_test: ((1usize << bits) / 4).max(GEAR_WINDOW as usize),
                fed: 0,
            },
        }
    }

    /// Feed one item; true if a boundary fires at (or within) it.
    /// `buf` is a caller-owned scratch for item serialization, reused
    /// across every item of the level.
    fn feed(&mut self, item: &Item, buf: &mut ByteWriter) -> bool {
        if let Judge::HashBits { mask } = self {
            return match item {
                Item::Ref(p) => p.hash.low64() & *mask == *mask,
                Item::Entry(_) => unreachable!("hash judge on leaf level"),
            };
        }
        // Serialize once; both rolling judges consume the same byte stream
        // (entry framing for leaves, max_key ++ digest for refs — exactly
        // the bytes the node codec will emit).
        buf.clear();
        match item {
            Item::Entry(e) => entry_codec::write_entry(buf, e),
            Item::Ref(p) => {
                buf.put_raw(&p.max_key);
                buf.put_raw(p.hash.as_bytes());
            }
        }
        let mut fired = false;
        match self {
            Judge::Roller { roller, mask } => {
                for &b in buf.as_slice() {
                    roller.push(b);
                    // Only a fully-populated window counts: a cold
                    // window right after a node boundary would make the
                    // decision depend on too few bytes — in the worst
                    // case firing deterministically inside a repeated
                    // max-key prefix and growing an unbounded tower of
                    // single-child nodes.
                    if roller.is_warm() && roller.fingerprint() & *mask == *mask {
                        fired = true;
                    }
                }
            }
            Judge::Gear { gear, mask, min_test, fed } => {
                for &b in buf.as_slice() {
                    *fed += 1;
                    // Bytes ending more than a gear window before the first
                    // testable position can never influence a tested
                    // fingerprint — skip the hash entirely.
                    if *fed + GEAR_WINDOW as usize <= *min_test {
                        continue;
                    }
                    gear.push(b);
                    if *fed >= *min_test && gear.is_warm() && gear.fingerprint() & *mask == *mask {
                        fired = true;
                    }
                }
            }
            Judge::HashBits { .. } => unreachable!("handled above"),
        }
        fired
    }

    fn reset(&mut self) {
        match self {
            Judge::Roller { roller, .. } => roller.reset(),
            Judge::Gear { gear, fed, .. } => {
                gear.reset();
                *fed = 0;
            }
            Judge::HashBits { .. } => {}
        }
    }
}

/// A node sealed by the chunker but not yet hashed or stored: its encoded
/// page plus the max key its parent reference needs. Queued so sibling
/// leaves can be hashed together through the multi-lane SHA-256 backend.
pub struct DeferredSeal {
    pub max_key: Bytes,
    pub page: Bytes,
}

/// Builds the nodes of one level.
pub struct LevelBuilder {
    level: u32,
    salt: u64,
    judge: Judge,
    items: Vec<Item>,
    bytes_in_node: usize,
    forced_max: Option<usize>,
    /// Judge serialization scratch, reused across items (no per-entry
    /// allocation on the feed path).
    feed_buf: ByteWriter,
    /// Page encoding scratch for immediate seals: dedup hits never
    /// materialize an owned page at all.
    page_buf: Scratch,
}

impl LevelBuilder {
    pub fn new(level: u32, salt: u64, params: &PosParams) -> Self {
        let judge = if level == 0 { Judge::leaf(params) } else { Judge::internal(params) };
        let forced_max = match params.split_policy {
            SplitPolicy::Pattern => None,
            SplitPolicy::ForcedSplice { max_node_bytes } => Some(max_node_bytes),
        };
        LevelBuilder {
            level,
            salt,
            judge,
            items: Vec::new(),
            bytes_in_node: 0,
            forced_max,
            feed_buf: ByteWriter::new(),
            page_buf: Scratch::new(),
        }
    }

    /// No node currently under construction.
    pub fn at_boundary(&self) -> bool {
        self.items.is_empty()
    }

    pub fn pending_items(&self) -> &[Item] {
        &self.items
    }

    /// Feed and buffer one item; true when a boundary fires at it.
    fn absorb(&mut self, item: Item) -> bool {
        let fired = self.judge.feed(&item, &mut self.feed_buf);
        self.bytes_in_node += match &item {
            Item::Entry(e) => entry_codec::entry_encoded_len(e),
            Item::Ref(p) => p.max_key.len() + Hash::LEN,
        };
        self.items.push(item);
        fired || self.forced_max.is_some_and(|max| self.bytes_in_node >= max)
    }

    /// Push one item; returns the sealed node's piece if a boundary fired.
    pub fn push(&mut self, item: Item, store: &SharedStore) -> Result<Option<ChildRef>> {
        if self.absorb(item) {
            Ok(Some(self.seal(store)?))
        } else {
            Ok(None)
        }
    }

    /// Push one item, deferring storage: a fired boundary yields the
    /// encoded page for the caller to hash/store in a batch.
    pub fn push_deferred(&mut self, item: Item) -> Option<DeferredSeal> {
        if self.absorb(item) {
            Some(self.seal_deferred())
        } else {
            None
        }
    }

    /// Seal the trailing node at end of stream, if any.
    pub fn finish(&mut self, store: &SharedStore) -> Result<Option<ChildRef>> {
        if self.items.is_empty() {
            Ok(None)
        } else {
            Ok(Some(self.seal(store)?))
        }
    }

    /// Deferred-storage counterpart of [`LevelBuilder::finish`].
    pub fn finish_deferred(&mut self) -> Option<DeferredSeal> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.seal_deferred())
        }
    }

    /// Drain the buffered items into a node and reset chunker state.
    fn take_node(&mut self) -> Node {
        let items = std::mem::take(&mut self.items);
        self.bytes_in_node = 0;
        self.judge.reset();
        if self.level == 0 {
            let entries = items
                .into_iter()
                .map(|i| match i {
                    Item::Entry(e) => e,
                    Item::Ref(_) => unreachable!("ref at leaf level"),
                })
                .collect();
            Node::Leaf { salt: self.salt, entries }
        } else {
            let children = items
                .into_iter()
                .map(|i| match i {
                    Item::Ref(p) => p,
                    Item::Entry(_) => unreachable!("entry at internal level"),
                })
                .collect();
            Node::Internal { salt: self.salt, level: self.level, children }
        }
    }

    fn seal(&mut self, store: &SharedStore) -> Result<ChildRef> {
        let node = self.take_node();
        let max_key = node.max_key().expect("sealed nodes are non-empty");
        let w = self.page_buf.start();
        w.reserve_total(node.encoded_len());
        node.encode_into(w);
        let hash = store.try_put_raw(self.page_buf.bytes())?;
        Ok(ChildRef { max_key, hash })
    }

    fn seal_deferred(&mut self) -> DeferredSeal {
        let node = self.take_node();
        let max_key = node.max_key().expect("sealed nodes are non-empty");
        DeferredSeal { max_key, page: node.encode() }
    }
}

/// The full builder pipeline, one [`LevelBuilder`] per level, with cascade
/// and pass-through plumbing.
pub struct Builders<'a> {
    store: &'a SharedStore,
    params: &'a PosParams,
    salt: u64,
    levels: Vec<LevelBuilder>,
    /// Leaves sealed by the chunker but not yet hashed/stored. Drained in
    /// stream order through one `try_put_many` per batch so sibling pages
    /// hit the multi-lane SHA-256 backend together.
    pending_leaves: Vec<DeferredSeal>,
}

impl<'a> Builders<'a> {
    pub fn new(store: &'a SharedStore, params: &'a PosParams, salt: u64) -> Self {
        Builders { store, params, salt, levels: Vec::new(), pending_leaves: Vec::new() }
    }

    fn ensure_level(&mut self, level: u32) {
        while self.levels.len() <= level as usize {
            self.levels.push(LevelBuilder::new(self.levels.len() as u32, self.salt, self.params));
        }
    }

    /// Feed one item into `level`, cascading sealed nodes upward. Sealed
    /// leaves queue for batched hashing; anything entering level 1 or above
    /// drains the queue first so items arrive in stream order.
    pub fn push(&mut self, level: u32, item: Item) -> Result<()> {
        if level == 0 {
            self.ensure_level(0);
            if let Some(sealed) = self.levels[0].push_deferred(item) {
                self.pending_leaves.push(sealed);
                if self.pending_leaves.len() >= LEAF_BATCH {
                    self.flush_leaves()?;
                }
            }
            return Ok(());
        }
        self.flush_leaves()?;
        self.ensure_level(level);
        if let Some(piece) = self.levels[level as usize].push(item, self.store)? {
            self.push(level + 1, Item::Ref(piece))?;
        }
        Ok(())
    }

    /// Hash and store every queued leaf in one multi-lane round, then
    /// cascade their references upward in stream order.
    fn flush_leaves(&mut self) -> Result<()> {
        if self.pending_leaves.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending_leaves);
        let pages: Vec<Bytes> = batch.iter().map(|s| s.page.clone()).collect();
        let hashes = self.store.try_put_many(&pages)?;
        for (sealed, hash) in batch.into_iter().zip(hashes) {
            // Re-entrant push(1, ..) sees an empty queue, so this cannot
            // loop.
            self.push(1, Item::Ref(ChildRef { max_key: sealed.max_key, hash }))?;
        }
        Ok(())
    }

    /// Non-mutating boundary check; only meaningful once queued leaves have
    /// been drained (their cascade can still close or reopen upper nodes).
    fn boundaries_clean(&self, level: u32) -> bool {
        self.levels.iter().take(level as usize + 1).all(LevelBuilder::at_boundary)
    }

    /// All builders at `level` and below sit exactly on node boundaries —
    /// the pass-through precondition. Drains the leaf queue first so the
    /// answer reflects the true pipeline state.
    pub fn clean_below(&mut self, level: u32) -> Result<bool> {
        self.flush_leaves()?;
        Ok(self.boundaries_clean(level))
    }

    /// Re-use an untouched old node of `level` wholesale. Caller must have
    /// checked [`Builders::clean_below`]`(level)`.
    pub fn pass_through(&mut self, level: u32, piece: ChildRef) -> Result<()> {
        self.flush_leaves()?;
        debug_assert!(self.boundaries_clean(level), "pass-through requires clean builders");
        self.push(level + 1, Item::Ref(piece))
    }

    /// Seal every trailing node bottom-up and collapse to the root piece.
    /// `None` means the tree is empty.
    ///
    /// Invariant exploited: whenever the *top* builder holds exactly one
    /// pending child reference once all lower levels are sealed, that child
    /// is the root — wrapping it would create a useless single-child chain
    /// (and break structural invariance, since chain length would depend on
    /// history).
    pub fn finalize(mut self) -> Result<Option<ChildRef>> {
        // Seal the trailing leaf and drain the queue so level 1 holds every
        // leaf reference before the upward sweep.
        if let Some(l0) = self.levels.first_mut() {
            if let Some(sealed) = l0.finish_deferred() {
                self.pending_leaves.push(sealed);
            }
        }
        self.flush_leaves()?;
        let mut level = 1usize;
        while level < self.levels.len() {
            let is_top = level + 1 == self.levels.len();
            if is_top {
                if let [Item::Ref(piece)] = self.levels[level].pending_items() {
                    return Ok(Some(piece.clone()));
                }
            }
            if let Some(piece) = self.levels[level].finish(self.store)? {
                self.push(level as u32 + 1, Item::Ref(piece))?;
            }
            level += 1;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::MemStore;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n).map(|i| Entry::new(format!("key{i:06}").into_bytes(), vec![0xAB; 100])).collect()
    }

    fn build(store: &SharedStore, params: &PosParams, es: &[Entry]) -> Option<ChildRef> {
        let mut b = Builders::new(store, params, 0);
        for e in es {
            b.push(0, Item::Entry(e.clone())).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn empty_build_yields_none() {
        let store = MemStore::new_shared();
        assert!(build(&store, &PosParams::default(), &[]).is_none());
    }

    #[test]
    fn single_entry_yields_single_leaf_root() {
        let store = MemStore::new_shared();
        let es = entries(1);
        let piece = build(&store, &PosParams::default(), &es).unwrap();
        let node = Node::decode(&store.get(&piece.hash).unwrap()).unwrap();
        assert!(matches!(node, Node::Leaf { .. }));
    }

    #[test]
    fn large_build_produces_multiple_levels_with_expected_node_sizes() {
        let store = MemStore::new_shared();
        let es = entries(4000); // ~430 KB of payload, ~1 KB target nodes
        let root = build(&store, &PosParams::default(), &es).unwrap();
        let root_node = Node::decode(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(root_node, Node::Internal { .. }));

        // Expected leaf size 2^10 = 1024 bytes; check the average is within
        // a loose band (probabilistic balance, §3.4.3).
        let stats = store.stats();
        let avg_page = stats.unique_bytes as f64 / stats.unique_pages as f64;
        assert!(
            avg_page > 300.0 && avg_page < 4000.0,
            "average page size {avg_page} outside sanity band"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let s1 = MemStore::new_shared();
        let s2 = MemStore::new_shared();
        let es = entries(2000);
        let r1 = build(&s1, &PosParams::default(), &es).unwrap();
        let r2 = build(&s2, &PosParams::default(), &es).unwrap();
        assert_eq!(r1.hash, r2.hash);
    }

    #[test]
    fn forced_split_caps_node_size() {
        let store = MemStore::new_shared();
        let params = PosParams::forced_split();
        let es = entries(500);
        let root = build(&store, &params, &es).unwrap();
        // Walk all leaves; none may exceed max_node_bytes by more than one
        // entry's worth.
        let SplitPolicy::ForcedSplice { max_node_bytes } = params.split_policy else {
            unreachable!()
        };
        let mut stack = vec![root.hash];
        while let Some(h) = stack.pop() {
            let page = store.get(&h).unwrap();
            match Node::decode(&page).unwrap() {
                Node::Internal { children, .. } => stack.extend(children.iter().map(|c| c.hash)),
                Node::Leaf { entries, .. } => {
                    let bytes: usize =
                        entries.iter().map(siri_core::entry_codec::entry_encoded_len).sum();
                    assert!(bytes <= max_node_bytes + 200, "leaf overflow: {bytes}");
                }
            }
        }
    }

    #[test]
    fn gear_chunker_produces_sane_node_sizes() {
        use crate::params::ChunkerKind;
        let store = MemStore::new_shared();
        let es = entries(4000);
        let params = PosParams::default().with_chunker(ChunkerKind::Gear);
        let root = build(&store, &params, &es).unwrap();
        let root_node = Node::decode(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(root_node, Node::Internal { .. }));
        // Same 2^10 expected leaf size as buzhash (the skip-ahead removes
        // sub-minimum chunks but the boundary probability is unchanged).
        let stats = store.stats();
        let avg_page = stats.unique_bytes as f64 / stats.unique_pages as f64;
        assert!(
            avg_page > 300.0 && avg_page < 4000.0,
            "gear average page size {avg_page} outside sanity band"
        );
    }

    #[test]
    fn gear_with_rolling_window_internals_builds() {
        use crate::params::ChunkerKind;
        let store = MemStore::new_shared();
        let es = entries(3000);
        let params = PosParams::noms().with_chunker(ChunkerKind::Gear);
        let root = build(&store, &params, &es).unwrap();
        let node = Node::decode(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(node, Node::Internal { .. }));
    }

    #[test]
    fn rolling_window_internal_chunking_also_builds() {
        let store = MemStore::new_shared();
        let es = entries(3000);
        let root = build(&store, &PosParams::noms(), &es).unwrap();
        let node = Node::decode(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(node, Node::Internal { .. }));
    }
}
