//! B+-tree indexes mapping (composite) key values to RID postings.
//!
//! The tree is an in-memory node-based B+-tree (fixed fan-out) over
//! [`Value`] keys, supporting duplicates (a posting list per key), unique
//! constraints, point lookups and range scans. Starburst-era links (direct
//! tuple pointers) correspond to the RID postings here.
//!
//! Deletion is *lazy*: removing the last RID of a key removes the key from
//! its leaf but does not rebalance the tree; empty leaves are skipped by
//! scans. This is a standard engineering trade-off (many production systems
//! defer structural deletion) and bounded here because workloads rebuild
//! indexes on bulk reorganisation.

use std::ops::Bound;

use crate::error::{Result, StorageError};
use crate::tuple::Rid;
use crate::value::Value;

/// Maximum keys per node; nodes split at `ORDER` keys.
const ORDER: usize = 32;

/// A composite index key.
pub type Key = Vec<Value>;

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<Key>,
        postings: Vec<Vec<Rid>>,
    },
    Internal {
        keys: Vec<Key>,
        children: Vec<Node>,
    },
}

impl Node {
    fn new_leaf() -> Node {
        Node::Leaf {
            keys: Vec::new(),
            postings: Vec::new(),
        }
    }
}

/// Result of inserting into a subtree: possibly a split (separator + right).
enum InsertResult {
    Done,
    Split(Key, Box<Node>),
}

/// An ordered secondary index.
pub struct BTreeIndex {
    root: Box<Node>,
    unique: bool,
    len: usize,
}

impl BTreeIndex {
    /// Create an empty index; `unique` enforces one RID per key.
    pub fn new(unique: bool) -> Self {
        BTreeIndex {
            root: Box::new(Node::new_leaf()),
            unique,
            len: 0,
        }
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. Fails with [`StorageError::UniqueViolation`] if the
    /// index is unique and the key is already present.
    pub fn insert(&mut self, key: Key, rid: Rid) -> Result<()> {
        match Self::insert_rec(&mut self.root, key, rid, self.unique)? {
            InsertResult::Done => {}
            InsertResult::Split(sep, right) => {
                // Grow the tree: new root with two children.
                let old_root = std::mem::replace(&mut self.root, Box::new(Node::new_leaf()));
                *self.root = Node::Internal {
                    keys: vec![sep],
                    children: vec![*old_root, *right],
                };
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(node: &mut Node, key: Key, rid: Rid, unique: bool) -> Result<InsertResult> {
        match node {
            Node::Leaf { keys, postings } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        if unique {
                            return Err(StorageError::UniqueViolation(format_key(&key)));
                        }
                        postings[i].push(rid);
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        postings.insert(i, vec![rid]);
                    }
                }
                if keys.len() > ORDER {
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_postings = postings.split_off(mid);
                    let sep = right_keys[0].clone();
                    Ok(InsertResult::Split(
                        sep,
                        Box::new(Node::Leaf {
                            keys: right_keys,
                            postings: right_postings,
                        }),
                    ))
                } else {
                    Ok(InsertResult::Done)
                }
            }
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                match Self::insert_rec(&mut children[idx], key, rid, unique)? {
                    InsertResult::Done => Ok(InsertResult::Done),
                    InsertResult::Split(sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, *right);
                        if keys.len() > ORDER {
                            let mid = keys.len() / 2;
                            // Separator moves up; right node gets keys after mid.
                            let sep_up = keys[mid].clone();
                            let right_keys = keys.split_off(mid + 1);
                            keys.pop(); // remove sep_up from left
                            let right_children = children.split_off(mid + 1);
                            Ok(InsertResult::Split(
                                sep_up,
                                Box::new(Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                }),
                            ))
                        } else {
                            Ok(InsertResult::Done)
                        }
                    }
                }
            }
        }
    }

    /// Remove one (key, rid) entry. Returns whether it existed.
    pub fn delete(&mut self, key: &Key, rid: Rid) -> bool {
        let removed = Self::delete_rec(&mut self.root, key, rid);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn delete_rec(node: &mut Node, key: &Key, rid: Rid) -> bool {
        match node {
            Node::Leaf { keys, postings } => match keys.binary_search(key) {
                Ok(i) => {
                    let p = &mut postings[i];
                    if let Some(pos) = p.iter().position(|r| *r == rid) {
                        p.swap_remove(pos);
                        if p.is_empty() {
                            keys.remove(i);
                            postings.remove(i);
                        }
                        true
                    } else {
                        false
                    }
                }
                Err(_) => false,
            },
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                Self::delete_rec(&mut children[idx], key, rid)
            }
        }
    }

    /// Exact-match lookup: all RIDs for `key`.
    pub fn get(&self, key: &Key) -> Vec<Rid> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf { keys, postings } => {
                    return match keys.binary_search(key) {
                        Ok(i) => postings[i].clone(),
                        Err(_) => Vec::new(),
                    };
                }
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = &children[idx];
                }
            }
        }
    }

    /// Range scan over keys with standard bounds; yields `(key, rid)` in key
    /// order (RIDs within a key in insertion order).
    pub fn range(&self, lo: Bound<&Key>, hi: Bound<&Key>) -> Vec<(Key, Rid)> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, lo, hi, &mut out);
        out
    }

    fn within_lo(key: &Key, lo: Bound<&Key>) -> bool {
        match lo {
            Bound::Unbounded => true,
            Bound::Included(k) => key >= k,
            Bound::Excluded(k) => key > k,
        }
    }

    fn within_hi(key: &Key, hi: Bound<&Key>) -> bool {
        match hi {
            Bound::Unbounded => true,
            Bound::Included(k) => key <= k,
            Bound::Excluded(k) => key < k,
        }
    }

    fn range_rec(node: &Node, lo: Bound<&Key>, hi: Bound<&Key>, out: &mut Vec<(Key, Rid)>) {
        match node {
            Node::Leaf { keys, postings } => {
                for (k, p) in keys.iter().zip(postings) {
                    if !Self::within_lo(k, lo) {
                        continue;
                    }
                    if !Self::within_hi(k, hi) {
                        break;
                    }
                    for rid in p {
                        out.push((k.clone(), *rid));
                    }
                }
            }
            Node::Internal { keys, children } => {
                // Child i holds keys in [keys[i-1], keys[i]); visit it only
                // if that interval can intersect [lo, hi].
                for (i, child) in children.iter().enumerate() {
                    // Skip if everything in the child is below `lo`:
                    // child keys < keys[i], so child is useless when
                    // keys[i] <= lo (for both Included and Excluded lo).
                    if i < keys.len() {
                        let below_lo = match lo {
                            Bound::Unbounded => false,
                            Bound::Included(l) | Bound::Excluded(l) => &keys[i] <= l,
                        };
                        if below_lo {
                            continue;
                        }
                    }
                    // Skip if everything in the child is above `hi`:
                    // child keys >= keys[i-1], so child is useless when
                    // keys[i-1] > hi (Included) or >= hi (Excluded).
                    if i > 0 {
                        let above_hi = match hi {
                            Bound::Unbounded => false,
                            Bound::Included(h) => &keys[i - 1] > h,
                            Bound::Excluded(h) => &keys[i - 1] >= h,
                        };
                        if above_hi {
                            break;
                        }
                    }
                    Self::range_rec(child, lo, hi, out);
                }
            }
        }
    }

    /// Number of distinct keys (full traversal; used for ANALYZE).
    pub fn distinct_keys(&self) -> usize {
        fn rec(node: &Node) -> usize {
            match node {
                Node::Leaf { keys, .. } => keys.len(),
                Node::Internal { children, .. } => children.iter().map(rec).sum(),
            }
        }
        rec(&self.root)
    }

    /// Tree height (1 = just a leaf). Exposed for tests and cost modelling.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &*self.root;
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }
}

fn format_key(key: &Key) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: i64) -> Key {
        vec![Value::Int(i)]
    }

    fn rid(i: u64) -> Rid {
        Rid::new(i, 0)
    }

    #[test]
    fn insert_and_lookup_small() {
        let mut idx = BTreeIndex::new(false);
        for i in 0..10 {
            idx.insert(k(i), rid(i as u64)).unwrap();
        }
        assert_eq!(idx.get(&k(5)), vec![rid(5)]);
        assert_eq!(idx.get(&k(99)), vec![]);
    }

    #[test]
    fn splits_maintain_order_large() {
        let mut idx = BTreeIndex::new(false);
        // Insert shuffled to force interior splits.
        let mut keys: Vec<i64> = (0..5000).collect();
        // Deterministic shuffle.
        let mut s = 12345u64;
        for i in (1..keys.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s % (i as u64 + 1)) as usize;
            keys.swap(i, j);
        }
        for &i in &keys {
            idx.insert(k(i), rid(i as u64)).unwrap();
        }
        assert!(idx.height() > 1, "5000 keys should split the root");
        for i in 0..5000 {
            assert_eq!(idx.get(&k(i)), vec![rid(i as u64)], "key {i}");
        }
        let all = idx.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 5000);
        assert!(
            all.windows(2).all(|w| w[0].0 <= w[1].0),
            "range scan sorted"
        );
    }

    #[test]
    fn duplicates_accumulate_postings() {
        let mut idx = BTreeIndex::new(false);
        idx.insert(k(1), rid(1)).unwrap();
        idx.insert(k(1), rid(2)).unwrap();
        idx.insert(k(1), rid(3)).unwrap();
        let mut rids = idx.get(&k(1));
        rids.sort();
        assert_eq!(rids, vec![rid(1), rid(2), rid(3)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = BTreeIndex::new(true);
        idx.insert(k(1), rid(1)).unwrap();
        assert!(matches!(
            idx.insert(k(1), rid(2)),
            Err(StorageError::UniqueViolation(_))
        ));
    }

    #[test]
    fn delete_entries() {
        let mut idx = BTreeIndex::new(false);
        for i in 0..100 {
            idx.insert(k(i % 10), rid(i as u64)).unwrap();
        }
        assert!(idx.delete(&k(3), rid(3)));
        assert!(!idx.delete(&k(3), rid(3)), "double delete");
        assert!(!idx.delete(&k(55), rid(1)), "missing key");
        assert_eq!(idx.len(), 99);
        // Deleting all rids of key 4 removes the key.
        for i in 0..100u64 {
            if i % 10 == 4 {
                assert!(idx.delete(&k(4), rid(i)));
            }
        }
        assert_eq!(idx.get(&k(4)), vec![]);
    }

    #[test]
    fn range_bounds() {
        let mut idx = BTreeIndex::new(false);
        for i in 0..100 {
            idx.insert(k(i), rid(i as u64)).unwrap();
        }
        let r = idx.range(Bound::Included(&k(10)), Bound::Excluded(&k(20)));
        let got: Vec<i64> = r.iter().map(|(key, _)| key[0].as_int().unwrap()).collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        let r = idx.range(Bound::Excluded(&k(95)), Bound::Unbounded);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let mut idx = BTreeIndex::new(false);
        idx.insert(vec![Value::Int(1), Value::Str("b".into())], rid(1))
            .unwrap();
        idx.insert(vec![Value::Int(1), Value::Str("a".into())], rid(2))
            .unwrap();
        idx.insert(vec![Value::Int(0), Value::Str("z".into())], rid(3))
            .unwrap();
        let all = idx.range(Bound::Unbounded, Bound::Unbounded);
        let rids: Vec<Rid> = all.iter().map(|(_, r)| *r).collect();
        assert_eq!(rids, vec![rid(3), rid(2), rid(1)]);
    }

    #[test]
    fn string_keys() {
        let mut idx = BTreeIndex::new(false);
        for (i, name) in ["ARC", "HDC", "YKT", "ALM"].iter().enumerate() {
            idx.insert(vec![Value::Str(name.to_string())], rid(i as u64))
                .unwrap();
        }
        assert_eq!(idx.get(&vec![Value::Str("ARC".into())]), vec![rid(0)]);
        assert_eq!(idx.get(&vec![Value::Str("SJC".into())]), vec![]);
    }
}
