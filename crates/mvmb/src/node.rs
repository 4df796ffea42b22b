//! MVMB+-Tree page codec.
//!
//! Internal nodes route by the *maximum key* of each child subtree (the
//! same split-key convention POS-Tree uses, Figure 5), so the two
//! structures differ only in how node boundaries are chosen — exactly the
//! comparison the paper draws. Children are referenced by content hash
//! instead of pointers; "we replace the pointers stored in index nodes
//! with the hash of their immediate children" (§5.2).

use bytes::Bytes;
use siri_core::routed::{ChildRef, NodeView, RoutedNode};
use siri_core::{entry_codec, Entry, IndexError, Result};
use siri_crypto::Hash;
use siri_encoding::{ByteReader, ByteWriter, CodecError};

const TAG_INTERNAL: u8 = 0x11;
const TAG_LEAF: u8 = 0x12;

/// Decoded MVMB+-Tree page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Internal(Vec<ChildRef>),
    Leaf(Vec<Entry>),
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
            Node::Internal(children) => {
                1 + varint::len(children.len() as u64)
                    + children
                        .iter()
                        .map(|c| varint::len(c.max_key.len() as u64) + c.max_key.len() + Hash::LEN)
                        .sum::<usize>()
            }
            Node::Leaf(entries) => 1 + entry_codec::entries_encoded_len(entries),
        }
    }

    /// Serialize into an existing writer — entries stream straight into the
    /// page buffer instead of transiting a temporary `Vec`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Node::Internal(children) => {
                w.put_u8(TAG_INTERNAL);
                w.put_varint(children.len() as u64);
                for c in children {
                    w.put_bytes(&c.max_key);
                    w.put_raw(c.hash.as_bytes());
                }
            }
            Node::Leaf(entries) => {
                w.put_u8(TAG_LEAF);
                entry_codec::encode_entries_into(w, entries);
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
            TAG_INTERNAL => {
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
                Ok(Node::Internal(children))
            }
            TAG_LEAF => {
                let entries = entry_codec::decode_entries_zc(page, r.offset())?;
                if entries.windows(2).any(|w| w[0].key >= w[1].key) {
                    return Err(IndexError::CorruptStructure("unsorted leaf"));
                }
                Ok(Node::Leaf(entries))
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child hashes referenced by a page — the store-walk decoder.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        match Node::decode(page) {
            Ok(Node::Internal(children)) => children.into_iter().map(|c| c.hash).collect(),
            _ => Vec::new(),
        }
    }

    /// Max key of this node's content (used when building parents).
    pub fn max_key(&self) -> Option<Bytes> {
        match self {
            Node::Internal(children) => children.last().map(|c| c.max_key.clone()),
            Node::Leaf(entries) => entries.last().map(|e| e.key.clone()),
        }
    }
}

impl RoutedNode for Node {
    fn decode_zc(page: &Bytes) -> Result<Node> {
        Node::decode_zc(page)
    }

    fn view(&self) -> NodeView<'_> {
        match self {
            Node::Internal(children) => NodeView::Internal(children),
            Node::Leaf(entries) => NodeView::Leaf(entries),
        }
    }

    /// MVMB+ pages store no level.
    fn level(&self) -> Option<u32> {
        None
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

    fn cr(k: &str, seed: &str) -> ChildRef {
        ChildRef { max_key: Bytes::copy_from_slice(k.as_bytes()), hash: sha256(seed.as_bytes()) }
    }

    #[test]
    fn round_trips() {
        let leaf = Node::Leaf(vec![e("a", "1"), e("b", "2")]);
        assert_eq!(Node::decode(&leaf.encode()).unwrap(), leaf);
        let internal = Node::Internal(vec![cr("m", "c1"), cr("z", "c2")]);
        assert_eq!(Node::decode(&internal.encode()).unwrap(), internal);
    }

    #[test]
    fn max_key() {
        assert_eq!(Node::Leaf(vec![e("a", "1"), e("q", "2")]).max_key().unwrap().as_ref(), b"q");
        assert_eq!(
            Node::Internal(vec![cr("m", "x"), cr("z", "y")]).max_key().unwrap().as_ref(),
            b"z"
        );
        assert!(Node::Leaf(Vec::new()).max_key().is_none());
    }

    #[test]
    fn routing() {
        let children = vec![cr("f", "1"), cr("m", "2"), cr("t", "3")];
        assert_eq!(route(&children, b"a"), 0);
        assert_eq!(route(&children, b"f"), 0, "boundary key belongs left");
        assert_eq!(route(&children, b"g"), 1);
        assert_eq!(route(&children, b"m"), 1);
        assert_eq!(route(&children, b"t"), 2);
        assert_eq!(route(&children, b"zz"), 2, "beyond max clamps right");
    }

    #[test]
    fn decode_rejects_disorder_and_bad_tags() {
        let bad_leaf = Node::Leaf(vec![e("b", "1"), e("a", "1")]);
        assert!(Node::decode(&bad_leaf.encode()).is_err());
        let bad_internal = Node::Internal(vec![cr("z", "1"), cr("a", "2")]);
        assert!(Node::decode(&bad_internal.encode()).is_err());
        assert!(Node::decode(&[0x55]).is_err());
        assert!(Node::decode(&[TAG_INTERNAL, 0]).is_err(), "zero children");
    }
}
