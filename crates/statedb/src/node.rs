//! Trie node representation and its canonical RLP codec.
//!
//! The three Ethereum node kinds — leaf, extension and branch — encode to
//! RLP lists; a node whose encoding is shorter than 32 bytes is embedded
//! *inline* in its parent, otherwise the parent stores its keccak hash
//! and the raw bytes live in the [`crate::store::NodeStore`].

use crate::nibbles::{hp_decode, hp_encode_into};
use mtpu_primitives::rlp::{self, Item};
use mtpu_primitives::B256;
use std::fmt;

/// A reference from a node to one of its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Link {
    /// A committed child that is not loaded: only the keccak hash of its
    /// encoding is known, as in a trie reopened from a persistent store.
    Hash(B256),
    /// A committed child kept in memory: its hash plus the decoded node.
    /// Commit leaves every node it hashes in this state, so the next
    /// block walks and mutates it without a store read.
    Clean(B256, Box<Node>),
    /// An in-memory child that is not hashed: freshly mutated, or decoded
    /// from an inline (sub-32-byte) embedding in its parent.
    Node(Box<Node>),
}

/// A branch's 16 child slots, one per next nibble. Boxed so a resident
/// leaf or extension does not pay for a branch-sized [`Node`].
pub type Children = Box<[Option<Link>; 16]>;

/// One Merkle Patricia Trie node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Terminates a key: remaining path + value.
    Leaf {
        /// Remaining key nibbles (may be empty).
        path: Vec<u8>,
        /// Stored value (never empty; empty insert means delete).
        value: Vec<u8>,
    },
    /// Compresses a shared path segment above a branch.
    Extension {
        /// Shared key nibbles (never empty).
        path: Vec<u8>,
        /// The node the segment leads to.
        child: Link,
    },
    /// A 16-way fan-out plus an optional value for keys ending here.
    Branch {
        /// One slot per next-nibble.
        children: Children,
        /// Value of the key that terminates at this node, if any.
        value: Option<Vec<u8>>,
    },
}

/// Error produced while decoding a stored node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// Underlying RLP was malformed.
    Rlp(rlp::DecodeError),
    /// RLP was valid but not a 2- or 17-item trie node shape.
    Shape(&'static str),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Rlp(e) => write!(f, "invalid node rlp: {e}"),
            NodeError::Shape(what) => write!(f, "invalid node shape: {what}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl Node {
    /// Appends this node's canonical RLP encoding to `out`. Hashed
    /// children ([`Link::Hash`], [`Link::Clean`]) encode as their 32-byte
    /// hash and every [`Link::Node`] child is embedded inline, so callers
    /// must commit each child whose encoding reaches 32 bytes first.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match self {
            Node::Leaf { path, value } => {
                write_path(path, true, out);
                rlp::write_bytes(value, out);
            }
            Node::Extension { path, child } => {
                write_path(path, false, out);
                write_link(child, out);
            }
            Node::Branch { children, value } => {
                for child in children.iter() {
                    match child {
                        Some(link) => write_link(link, out),
                        None => out.push(EMPTY_STRING),
                    }
                }
                rlp::write_bytes(value.as_deref().unwrap_or_default(), out);
            }
        }
        rlp::wrap_list(out, start);
    }

    /// Decodes a node from its raw RLP bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError`] for malformed RLP or a non-node shape.
    pub fn decode(raw: &[u8]) -> Result<Node, NodeError> {
        let item = rlp::decode(raw).map_err(NodeError::Rlp)?;
        Node::from_item(&item)
    }

    /// Decodes a node from an already-parsed RLP item (used for inline
    /// children, which are lists embedded in the parent's encoding).
    pub fn from_item(item: &Item) -> Result<Node, NodeError> {
        let items = item.as_list().ok_or(NodeError::Shape("expected list"))?;
        match items.len() {
            2 => {
                let hp = items[0]
                    .as_bytes()
                    .ok_or(NodeError::Shape("path must be bytes"))?;
                let (path, is_leaf) =
                    hp_decode(hp).ok_or(NodeError::Shape("bad hex-prefix path"))?;
                if is_leaf {
                    let value = items[1]
                        .as_bytes()
                        .ok_or(NodeError::Shape("leaf value must be bytes"))?;
                    Ok(Node::Leaf {
                        path,
                        value: value.to_vec(),
                    })
                } else {
                    Ok(Node::Extension {
                        path,
                        child: decode_link(&items[1])?
                            .ok_or(NodeError::Shape("extension child missing"))?,
                    })
                }
            }
            17 => {
                let mut children = Children::default();
                for (i, slot) in children.iter_mut().enumerate() {
                    *slot = decode_link(&items[i])?;
                }
                let value = items[16]
                    .as_bytes()
                    .ok_or(NodeError::Shape("branch value must be bytes"))?;
                Ok(Node::Branch {
                    children,
                    value: if value.is_empty() {
                        None
                    } else {
                        Some(value.to_vec())
                    },
                })
            }
            _ => Err(NodeError::Shape("node list must have 2 or 17 items")),
        }
    }
}

/// RLP of the empty byte string: an absent branch child.
const EMPTY_STRING: u8 = 0x80;

/// Writes a hex-prefixed path as an RLP byte string. At most 33 bytes,
/// so the header is always the one-byte short form, and a lone flag
/// byte (< 0x80) encodes as itself.
fn write_path(path: &[u8], is_leaf: bool, out: &mut Vec<u8>) {
    let len = 1 + path.len() / 2;
    if len > 1 {
        out.push(0x80 + len as u8);
    }
    hp_encode_into(path, is_leaf, out);
}

fn write_link(link: &Link, out: &mut Vec<u8>) {
    match link {
        Link::Hash(h) | Link::Clean(h, _) => rlp::write_bytes(h.as_bytes(), out),
        Link::Node(n) => n.encode_into(out),
    }
}

fn decode_link(item: &Item) -> Result<Option<Link>, NodeError> {
    match item {
        Item::Bytes(b) if b.is_empty() => Ok(None),
        Item::Bytes(b) if b.len() == 32 => {
            let mut h = [0u8; 32];
            h.copy_from_slice(b);
            Ok(Some(Link::Hash(B256::new(h))))
        }
        Item::Bytes(_) => Err(NodeError::Shape("child ref must be empty or 32 bytes")),
        Item::List(_) => Ok(Some(Link::Node(Box::new(Node::from_item(item)?)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(node: &Node) -> Vec<u8> {
        let mut out = Vec::new();
        node.encode_into(&mut out);
        out
    }

    #[test]
    fn leaf_round_trips() {
        let n = Node::Leaf {
            path: vec![0xa, 0xb, 0xc],
            value: b"value".to_vec(),
        };
        let raw = encode(&n);
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn extension_with_hash_child_round_trips() {
        let n = Node::Extension {
            path: vec![0x1, 0x2],
            child: Link::Hash(B256::keccak(b"child")),
        };
        let raw = encode(&n);
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn branch_with_inline_leaf_round_trips() {
        let leaf = Node::Leaf {
            path: vec![0x3],
            value: vec![0x7f],
        };
        let mut children = Children::default();
        children[4] = Some(Link::Node(Box::new(leaf)));
        children[9] = Some(Link::Hash(B256::keccak(b"big")));
        let n = Node::Branch {
            children,
            value: Some(vec![0x01]),
        };
        // The inline leaf encodes under 32 bytes, so it embeds directly.
        let raw = encode(&n);
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    /// The streaming encoder writes the same bytes as `rlp::encode` of
    /// the node's item tree, across the long-header boundaries: a value
    /// and a list payload past 55 bytes, and a clean child encoding as
    /// its hash.
    #[test]
    fn streaming_encoder_matches_item_encoding() {
        use crate::nibbles::hp_encode;
        let hash = B256::keccak(b"clean");
        let long_leaf = Node::Leaf {
            path: (0..61).map(|i| i % 16).collect(),
            value: vec![0xab; 70],
        };
        assert_eq!(
            encode(&long_leaf),
            rlp::encode(&Item::List(vec![
                Item::bytes(hp_encode(
                    &(0..61).map(|i| i % 16).collect::<Vec<u8>>(),
                    true
                )),
                Item::bytes(vec![0xab; 70]),
            ]))
        );
        let mut children = Children::default();
        children[0] = Some(Link::Clean(hash, Box::new(long_leaf)));
        children[15] = Some(Link::Hash(hash));
        let branch = Node::Branch {
            children,
            value: None,
        };
        let mut items = vec![Item::bytes(Vec::new()); 17];
        items[0] = Item::bytes(hash.as_bytes().to_vec());
        items[15] = Item::bytes(hash.as_bytes().to_vec());
        assert_eq!(encode(&branch), rlp::encode(&Item::List(items)));
        let ext = Node::Extension {
            path: Vec::new(),
            child: Link::Clean(hash, Box::new(branch)),
        };
        assert_eq!(
            encode(&ext),
            rlp::encode(&Item::List(vec![
                Item::bytes(vec![0x00]),
                Item::bytes(hash.as_bytes().to_vec()),
            ]))
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            Node::decode(&[0x80]),
            Err(NodeError::Shape("expected list"))
        ));
        let three = rlp::encode_list(&[Item::uint(1), Item::uint(2), Item::uint(3)]);
        assert!(matches!(Node::decode(&three), Err(NodeError::Shape(_))));
        assert!(matches!(Node::decode(&[0xff]), Err(NodeError::Rlp(_))));
    }
}
