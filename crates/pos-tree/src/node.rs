//! POS-Tree page codec.
//!
//! * **Leaf** (level 0): a run of sorted entries — one pattern-aware
//!   partition of the bottom data layer (Figure 5).
//! * **Internal**: a run of `(split key, child digest)` pairs, where the
//!   split key is the maximum key of the child's subtree, "a sequence of
//!   split keys and cryptographic hashes of the nodes in the lower layer".
//!
//! Every page carries the tree level (so equal content at different heights
//! cannot collide) and a `salt` that is 0 in normal operation. The salt
//! exists solely for the §5.5.2 ablation: bumping it per version makes
//! every page byte-unique, which is exactly "forcibly copying all nodes in
//! the tree" under content addressing.

use bytes::Bytes;
use siri_core::routed::{ChildRef, NodeView, RoutedNode};
use siri_core::{entry_codec, Entry, IndexError, Result};
use siri_crypto::Hash;
use siri_encoding::{ByteReader, ByteWriter, CodecError};

const TAG_LEAF: u8 = 0x21;
const TAG_INTERNAL: u8 = 0x22;

/// Decoded POS-Tree page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Leaf { salt: u64, entries: Vec<Entry> },
    Internal { salt: u64, level: u32, children: Vec<ChildRef> },
}

impl Node {
    pub fn encode(&self) -> Bytes {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len());
        Bytes::from(w.into_vec())
    }

    /// Exact byte length of [`Node::encode`]'s output — pages are sized to
    /// their final length in one allocation.
    pub fn encoded_len(&self) -> usize {
        use siri_encoding::varint;
        match self {
            Node::Leaf { salt, entries } => {
                1 + varint::len(*salt) + entry_codec::entries_encoded_len(entries)
            }
            Node::Internal { salt, level, children } => {
                1 + varint::len(*salt)
                    + varint::len(*level as u64)
                    + varint::len(children.len() as u64)
                    + children
                        .iter()
                        .map(|c| varint::len(c.max_key.len() as u64) + c.max_key.len() + Hash::LEN)
                        .sum::<usize>()
            }
        }
    }

    /// Serialize into an existing writer — entries stream straight into the
    /// page buffer instead of transiting a temporary `Vec`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Node::Leaf { salt, entries } => {
                w.put_u8(TAG_LEAF);
                w.put_varint(*salt);
                entry_codec::encode_entries_into(w, entries);
            }
            Node::Internal { salt, level, children } => {
                w.put_u8(TAG_INTERNAL);
                w.put_varint(*salt);
                w.put_varint(*level as u64);
                w.put_varint(children.len() as u64);
                for c in children {
                    w.put_bytes(&c.max_key);
                    w.put_raw(c.hash.as_bytes());
                }
            }
        }
    }

    /// Copying decode (tests, diagnostics, store walks).
    pub fn decode(page: &[u8]) -> Result<Node> {
        Self::decode_zc(&Bytes::copy_from_slice(page))
    }

    /// Zero-copy decode: keys and values are refcounted slices of the page
    /// — the hot read path.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let mut r = ByteReader::new(page);
        match r.get_u8()? {
            TAG_LEAF => {
                let salt = r.get_varint()?;
                let entries = entry_codec::decode_entries_zc(page, r.offset())?;
                if entries.windows(2).any(|w| w[0].key >= w[1].key) {
                    return Err(IndexError::CorruptStructure("unsorted leaf"));
                }
                Ok(Node::Leaf { salt, entries })
            }
            TAG_INTERNAL => {
                let salt = r.get_varint()?;
                let level = r.get_varint()? as u32;
                let count = r.get_varint()?;
                if count == 0 || count > page.len() as u64 {
                    return Err(CodecError::BadLength { what: "child count" }.into());
                }
                let mut children = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let klen = r.get_varint()? as usize;
                    let koff = r.offset();
                    r.get_raw(klen)?;
                    let max_key = page.slice(koff..koff + klen);
                    let hash = Hash::from_slice(r.get_raw(Hash::LEN)?)
                        .ok_or(IndexError::CorruptStructure("bad child digest length"))?;
                    children.push(ChildRef { max_key, hash });
                }
                r.finish()?;
                if children.windows(2).any(|w| w[0].max_key >= w[1].max_key) {
                    return Err(IndexError::CorruptStructure("unsorted internal node"));
                }
                Ok(Node::Internal { salt, level, children })
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child digests referenced by a page — the store-walk decoder.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        match Node::decode(page) {
            Ok(Node::Internal { children, .. }) => children.into_iter().map(|c| c.hash).collect(),
            _ => Vec::new(),
        }
    }

    pub fn max_key(&self) -> Option<Bytes> {
        match self {
            Node::Leaf { entries, .. } => entries.last().map(|e| e.key.clone()),
            Node::Internal { children, .. } => children.last().map(|c| c.max_key.clone()),
        }
    }
}

impl RoutedNode for Node {
    fn decode_zc(page: &Bytes) -> Result<Node> {
        Node::decode_zc(page)
    }

    fn view(&self) -> NodeView<'_> {
        match self {
            Node::Leaf { entries, .. } => NodeView::Leaf(entries),
            Node::Internal { children, .. } => NodeView::Internal(children),
        }
    }

    fn level(&self) -> Option<u32> {
        match self {
            Node::Leaf { .. } => Some(0),
            Node::Internal { level, .. } => Some(*level),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::routed::route;
    use siri_crypto::sha256;

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    fn p(k: &str, s: &str) -> ChildRef {
        ChildRef { max_key: Bytes::copy_from_slice(k.as_bytes()), hash: sha256(s.as_bytes()) }
    }

    #[test]
    fn round_trips() {
        let leaf = Node::Leaf { salt: 0, entries: vec![e("a", "1"), e("b", "2")] };
        assert_eq!(Node::decode(&leaf.encode()).unwrap(), leaf);
        let internal =
            Node::Internal { salt: 3, level: 2, children: vec![p("m", "x"), p("z", "y")] };
        assert_eq!(Node::decode(&internal.encode()).unwrap(), internal);
    }

    #[test]
    fn salt_changes_bytes() {
        let a = Node::Leaf { salt: 0, entries: vec![e("a", "1")] }.encode();
        let b = Node::Leaf { salt: 1, entries: vec![e("a", "1")] }.encode();
        assert_ne!(a, b, "salted pages must not deduplicate");
    }

    #[test]
    fn level_distinguishes_pages() {
        let a = Node::Internal { salt: 0, level: 1, children: vec![p("k", "c")] }.encode();
        let b = Node::Internal { salt: 0, level: 2, children: vec![p("k", "c")] }.encode();
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_corruption() {
        assert!(Node::decode(&[0x99]).is_err());
        let unsorted = Node::Leaf { salt: 0, entries: vec![e("b", "1"), e("a", "2")] };
        assert!(Node::decode(&unsorted.encode()).is_err());
        let internal = Node::Internal { salt: 0, level: 1, children: vec![p("a", "x")] };
        let enc = internal.encode();
        assert!(Node::decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn routing_clamps() {
        let children = vec![p("f", "1"), p("m", "2")];
        assert_eq!(route(&children, b"a"), 0);
        assert_eq!(route(&children, b"f"), 0);
        assert_eq!(route(&children, b"zzz"), 1);
    }
}
