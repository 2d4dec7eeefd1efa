//! B+-tree indexes mapping (composite) key values to RID postings.
//!
//! The tree is an in-memory node-based B+-tree (fixed fan-out) over
//! [`Value`] keys, supporting duplicates (a posting list per key) and point
//! lookups; uniqueness is enforced by [`crate::Table`] against live
//! versions. Starburst-era links (direct tuple pointers) correspond to the
//! RID postings here.
//!
//! Every key of one tree has the same width, the number of indexed columns,
//! taken from the first key inserted. A node keeps its keys flat, in one
//! contiguous `Vec<Value>` of `width` values per key, and binary-searches
//! key slices in place, so a comparison never chases a per-key allocation.
//!
//! Deletion is *lazy*: removing the last RID of a key removes the key from
//! its leaf but does not rebalance the tree; empty leaves are skipped by
//! scans. This is a standard engineering trade-off (many production systems
//! defer structural deletion) and bounded here because workloads rebuild
//! indexes on bulk reorganisation.

use std::cmp::Ordering;

use crate::tuple::Rid;
use crate::value::Value;

/// Maximum keys per node; nodes split at `ORDER` keys.
const ORDER: usize = 32;

/// A composite index key.
pub type Key = Vec<Value>;

/// A node's keys are `keys[i * width..(i + 1) * width]`: a leaf holds one
/// per posting list, an internal node one fewer than its children.
#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<Value>,
        postings: Vec<Vec<Rid>>,
    },
    Internal {
        keys: Vec<Value>,
        children: Vec<Node>,
    },
}

/// An empty leaf.
impl Default for Node {
    fn default() -> Node {
        Node::Leaf {
            keys: Vec::new(),
            postings: Vec::new(),
        }
    }
}

/// Binary search the first `n` keys of width `w` packed in `keys`.
fn search(keys: &[Value], w: usize, n: usize, key: &[Value]) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match keys[mid * w..(mid + 1) * w].cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The child of an internal node with `n` keys that may hold `key`: child
/// `i` holds the keys in `[keys[i - 1], keys[i])`.
fn route(keys: &[Value], w: usize, n: usize, key: &[Value]) -> usize {
    match search(keys, w, n, key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// An ordered secondary index; `default()` is an empty one.
#[derive(Default)]
pub struct BTreeIndex {
    root: Node,
    /// Values per key, fixed by the first insert.
    width: usize,
    len: usize,
}

impl BTreeIndex {
    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry; a key already present gains `rid` at the end of its
    /// postings. Panics if `key`'s width differs from the tree's.
    pub fn insert(&mut self, key: Key, rid: Rid) {
        if self.len == 0 && self.height() == 1 {
            self.width = key.len();
        }
        assert_eq!(key.len(), self.width, "index key width");
        if let Some((sep, right)) = Self::insert_rec(&mut self.root, self.width, key, rid) {
            // Grow the tree: new root with two children.
            let left = std::mem::take(&mut self.root);
            self.root = Node::Internal {
                keys: sep,
                children: vec![left, right],
            };
        }
        self.len += 1;
    }

    /// Insert into a subtree; a split returns its separator and right half.
    fn insert_rec(node: &mut Node, w: usize, key: Key, rid: Rid) -> Option<(Key, Node)> {
        match node {
            Node::Leaf { keys, postings } => {
                match search(keys, w, postings.len(), &key) {
                    Ok(i) => postings[i].push(rid),
                    Err(i) => {
                        keys.splice(i * w..i * w, key);
                        postings.insert(i, vec![rid]);
                    }
                }
                if postings.len() <= ORDER {
                    return None;
                }
                let mid = postings.len() / 2;
                let right_keys = keys.split_off(mid * w);
                let sep = right_keys[..w].to_vec();
                let right_postings = postings.split_off(mid);
                Some((
                    sep,
                    Node::Leaf {
                        keys: right_keys,
                        postings: right_postings,
                    },
                ))
            }
            Node::Internal { keys, children } => {
                let idx = route(keys, w, children.len() - 1, &key);
                let (sep, right) = Self::insert_rec(&mut children[idx], w, key, rid)?;
                keys.splice(idx * w..idx * w, sep);
                children.insert(idx + 1, right);
                if children.len() - 1 <= ORDER {
                    return None;
                }
                // The middle key moves up; the right node gets the keys after it.
                let mid = (children.len() - 1) / 2;
                let right_keys = keys.split_off((mid + 1) * w);
                let sep_up = keys.split_off(mid * w);
                let right_children = children.split_off(mid + 1);
                Some((
                    sep_up,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                ))
            }
        }
    }

    /// Remove one (key, rid) entry. Returns whether it existed.
    pub fn delete(&mut self, key: &[Value], rid: Rid) -> bool {
        let w = self.width;
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf { keys, postings } => {
                    let Ok(i) = search(keys, w, postings.len(), key) else {
                        return false;
                    };
                    let p = &mut postings[i];
                    let Some(pos) = p.iter().position(|r| *r == rid) else {
                        return false;
                    };
                    p.swap_remove(pos);
                    if p.is_empty() {
                        keys.drain(i * w..(i + 1) * w);
                        postings.remove(i);
                    }
                    self.len -= 1;
                    return true;
                }
                Node::Internal { keys, children } => {
                    let idx = route(keys, w, children.len() - 1, key);
                    node = &mut children[idx];
                }
            }
        }
    }

    /// Exact-match lookup: all RIDs for `key`, borrowed from the tree. A key
    /// of another width than the tree's matches nothing (no stored key
    /// slice compares equal to it).
    pub fn get(&self, key: &[Value]) -> &[Rid] {
        let w = self.width;
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { keys, postings } => {
                    return match search(keys, w, postings.len(), key) {
                        Ok(i) => &postings[i],
                        Err(_) => &[],
                    };
                }
                Node::Internal { keys, children } => {
                    node = &children[route(keys, w, children.len() - 1, key)];
                }
            }
        }
    }

    /// Tree height (1 = just a leaf). Exposed for tests and cost modelling.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn k(i: i64) -> Key {
        vec![Value::Int(i)]
    }

    fn rid(i: u64) -> Rid {
        Rid::new(i, 0)
    }

    /// A seeded linear congruential generator.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        /// An INT, DOUBLE, VARCHAR or NULL value; `Int(v)` and `Double(v)`
        /// are one key under `Value`'s order.
        fn value(&mut self) -> Value {
            let v = self.below(1500) as i64;
            match self.below(5) {
                0 => Value::Int(v),
                1 => Value::Double(v as f64),
                2 => Value::Double(v as f64 + 0.5),
                3 => Value::Str(format!("s{v}")),
                _ => Value::Null,
            }
        }
    }

    /// Every key with its postings, in leaf order.
    fn entries(idx: &BTreeIndex) -> Vec<(Key, Vec<Rid>)> {
        fn walk(node: &Node, w: usize, out: &mut Vec<(Key, Vec<Rid>)>) {
            match node {
                Node::Leaf { keys, postings } => {
                    for (i, p) in postings.iter().enumerate() {
                        out.push((keys[i * w..(i + 1) * w].to_vec(), p.clone()));
                    }
                }
                Node::Internal { children, .. } => children.iter().for_each(|c| walk(c, w, out)),
            }
        }
        let mut out = Vec::new();
        walk(&idx.root, idx.width, &mut out);
        out
    }

    #[test]
    fn insert_and_lookup_small() {
        let mut idx = BTreeIndex::default();
        for i in 0..10 {
            idx.insert(k(i), rid(i as u64));
        }
        assert_eq!(idx.get(&k(5)), [rid(5)]);
        assert_eq!(idx.get(&k(99)), []);
    }

    #[test]
    fn splits_maintain_order_large() {
        let mut idx = BTreeIndex::default();
        // Insert shuffled to force interior splits.
        let mut keys: Vec<i64> = (0..5000).collect();
        let mut lcg = Lcg(12345);
        for i in (1..keys.len()).rev() {
            keys.swap(i, lcg.below(i as u64 + 1) as usize);
        }
        for &i in &keys {
            idx.insert(k(i), rid(i as u64));
        }
        assert!(idx.height() > 2, "5000 keys should split an internal node");
        for i in 0..5000 {
            assert_eq!(idx.get(&k(i)), [rid(i as u64)], "key {i}");
        }
        let all = entries(&idx);
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "leaves sorted");
    }

    #[test]
    fn duplicates_accumulate_postings() {
        let mut idx = BTreeIndex::default();
        for i in 1..=3 {
            idx.insert(k(1), rid(i));
        }
        assert_eq!(idx.get(&k(1)), [rid(1), rid(2), rid(3)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(entries(&idx).len(), 1);
    }

    #[test]
    fn delete_entries() {
        let mut idx = BTreeIndex::default();
        for i in 0..100 {
            idx.insert(k(i % 10), rid(i as u64));
        }
        assert!(idx.delete(&k(3), rid(3)));
        assert!(!idx.delete(&k(3), rid(3)), "double delete");
        assert!(!idx.delete(&k(55), rid(1)), "missing key");
        assert_eq!(idx.len(), 99);
        // Deleting all rids of key 4 removes the key.
        for i in (4..100u64).step_by(10) {
            assert!(idx.delete(&k(4), rid(i)));
        }
        assert_eq!(idx.get(&k(4)), []);
        assert_eq!(entries(&idx).len(), 9);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let mut idx = BTreeIndex::default();
        idx.insert(vec![Value::Int(1), Value::Str("b".into())], rid(1));
        idx.insert(vec![Value::Int(1), Value::Str("a".into())], rid(2));
        idx.insert(vec![Value::Int(0), Value::Str("z".into())], rid(3));
        let rids: Vec<Rid> = entries(&idx).into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(rids, vec![rid(3), rid(2), rid(1)]);
    }

    #[test]
    fn string_keys() {
        let mut idx = BTreeIndex::default();
        for (i, name) in ["ARC", "HDC", "YKT", "ALM"].iter().enumerate() {
            idx.insert(vec![Value::Str(name.to_string())], rid(i as u64));
        }
        assert_eq!(idx.get(&[Value::Str("ARC".into())]), [rid(0)]);
        assert_eq!(idx.get(&[Value::Str("SJC".into())]), []);
    }

    /// Delete a random entry of `live` from the tree and the model.
    fn delete_one(
        idx: &mut BTreeIndex,
        model: &mut BTreeMap<Key, Vec<Rid>>,
        live: &mut Vec<(Key, Rid)>,
        lcg: &mut Lcg,
    ) {
        let (key, r) = live.swap_remove(lcg.below(live.len() as u64) as usize);
        assert!(idx.delete(&key, r));
        let p = model.get_mut(&key).unwrap();
        p.swap_remove(p.iter().position(|x| *x == r).unwrap());
        if p.is_empty() {
            model.remove(&key);
            assert_eq!(idx.get(&key), [], "an emptied key");
        }
    }

    /// Seeded random inserts, deletes and probes against a `BTreeMap`
    /// model at key widths 1 to 3, until internal nodes split; then every
    /// entry is deleted, emptying each key, and the emptied tree reused.
    #[test]
    fn random_operations_match_a_btreemap_model() {
        for width in 1..=3 {
            let mut lcg = Lcg(0x9e37_79b9_7f4a_7c15 ^ width as u64);
            let (mut idx, mut model, mut live) = (
                BTreeIndex::default(),
                BTreeMap::<Key, Vec<Rid>>::new(),
                Vec::new(),
            );
            let check = |idx: &BTreeIndex, model: &BTreeMap<Key, Vec<Rid>>| {
                let want: Vec<_> = model.iter().map(|(k, p)| (k.clone(), p.clone())).collect();
                assert_eq!(entries(idx), want, "width {width}");
                assert_eq!(idx.len(), model.values().map(Vec::len).sum::<usize>());
            };
            for op in 0..12_000u64 {
                let key: Key = (0..width).map(|_| lcg.value()).collect();
                match lcg.below(10) {
                    0..=5 => {
                        idx.insert(key.clone(), rid(op));
                        model.entry(key.clone()).or_default().push(rid(op));
                        live.push((key.clone(), rid(op)));
                    }
                    6 | 7 if !live.is_empty() => {
                        delete_one(&mut idx, &mut model, &mut live, &mut lcg)
                    }
                    8 => assert!(!idx.delete(&key, rid(u64::MAX))),
                    _ => {}
                }
                let want = model.get(&key).map_or(&[][..], Vec::as_slice);
                assert_eq!(idx.get(&key), want, "width {width}, op {op}");
                assert_eq!(idx.get(&key[1..]), [], "a narrower probe");
                let wide: Key = key.iter().cloned().chain([Value::Int(0)]).collect();
                assert_eq!(idx.get(&wide), [], "a wider probe");
                assert!(!idx.delete(&wide, rid(0)));
                if op % 1000 == 999 {
                    check(&idx, &model);
                }
            }
            assert!(idx.height() >= 3, "width {width}: internal nodes split");
            let (ints, doubles) = (vec![Value::Int(7); width], vec![Value::Double(7.0); width]);
            assert_eq!(idx.get(&ints), idx.get(&doubles));
            while !live.is_empty() {
                delete_one(&mut idx, &mut model, &mut live, &mut lcg);
            }
            check(&idx, &model);
            assert!(idx.is_empty());
            let key = vec![Value::Str("back".into()); width];
            idx.insert(key.clone(), rid(1));
            assert_eq!(idx.get(&key), [rid(1)]);
        }
    }
}
