//! A small, fast, non-cryptographic hasher for the executor's internal
//! hash tables (join build sides, aggregate groups, DISTINCT sets), and
//! `KeyTable`, the flat key table aggregate groups are numbered by.
//!
//! These tables are keyed once per input row, so hasher throughput sits on
//! the hot path of every hash join and aggregation. std's default SipHash
//! is HashDoS-resistant but several times slower on the short keys we hash
//! here; the tables never outlive one query and are never keyed by
//! attacker-chosen collision targets at scale, so an FxHash-style
//! multiply-xor hash is the right trade.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use xnf_storage::Value;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style word-at-a-time hasher (rotate, xor, multiply).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Avalanche finisher: the multiply above only propagates entropy
        // upward, but our key bytes often carry their entropy in the HIGH
        // bits (e.g. integer Values hash as f64 bits, whose low mantissa
        // bits are zero) while hashbrown indexes buckets by the LOW bits.
        // Fold the high bits back down before handing the hash out.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the executor hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the executor hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The executor hash of a key: its values' own `Hash`, so `Int(1)` and
/// `Double(1.0)` hash alike, as `Value`'s equality needs.
pub(crate) fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// A slot of [`KeyTable::slots`] that holds no id.
const EMPTY: u32 = u32::MAX;

/// Distinct keys of one width, numbered densely in insertion order.
///
/// The keys live back to back in one flat `Vec<Value>` (key `id` is
/// `keys[id * width..][..width]`), each with its stored hash, and a
/// power-of-two array of `u32` ids is probed linearly from the hash. A new
/// key's values move into the arena, so interning allocates only when the
/// arena or the slot array grows. Keys compare with `Value`'s equality:
/// `Int(1)` and `Double(1.0)` are one key, and NULLs equal each other.
/// Width 0 is allowed: its one key is the empty key.
pub(crate) struct KeyTable {
    width: usize,
    keys: Vec<Value>,
    hashes: Vec<u64>,
    /// Ids by hash, at most half full; `EMPTY` where none.
    slots: Vec<u32>,
}

impl KeyTable {
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Key `id`'s values.
    pub(crate) fn key(&self, id: usize) -> &[Value] {
        &self.keys[id * self.width..(id + 1) * self.width]
    }

    /// The id of `key`, and whether it is new. A new key's values are moved
    /// into the table, leaving NULLs in `key`.
    pub(crate) fn intern(&mut self, key: &mut [Value]) -> (usize, bool) {
        self.intern_hashed(hash_key(key), key)
    }

    /// [`KeyTable::intern`] with `key`'s hash already known.
    pub(crate) fn intern_hashed(&mut self, hash: u64, key: &mut [Value]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.width);
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            let id = id as usize;
            if self.hashes[id] == hash && self.key(id) == key {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.len();
        assert!(id < EMPTY as usize, "more distinct keys than a u32 numbers");
        self.slots[slot] = id as u32;
        self.hashes.push(hash);
        self.keys
            .extend(key.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        (id, true)
    }

    /// Move every key of `other`, in its id order, into this table by its
    /// stored hash; entry `i` of the result is the id `other`'s key `i`
    /// has here, and whether it is new.
    pub(crate) fn absorb(&mut self, mut other: KeyTable) -> Vec<(usize, bool)> {
        debug_assert_eq!(other.width, self.width);
        let width = self.width;
        (0..other.len())
            .map(|id| {
                let key = &mut other.keys[id * width..(id + 1) * width];
                self.intern_hashed(other.hashes[id], key)
            })
            .collect()
    }

    /// Double the slot array (16 slots at first) and re-place every id.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        let mask = size - 1;
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_and_is_deterministic() {
        let hash_of = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash_of(b"abcdefgh"), hash_of(b"abcdefgh"));
        assert_ne!(hash_of(b"abcdefgh"), hash_of(b"abcdefgi"));
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
        // Tail handling: same prefix, different short tails.
        assert_ne!(hash_of(b"123456789"), hash_of(b"12345678X"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(vec![i, i * 2], i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get([500i64, 1000i64].as_slice()), Some(&500));
    }

    /// SplitMix64: a seeded stream of draws below `bound`.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        }

        /// A value from a small domain, so keys repeat: INT and DOUBLE
        /// over overlapping numbers (`Int(1)` and `Double(1.0)` are one
        /// value), VARCHAR and NULL.
        fn value(&mut self) -> Value {
            let n = self.below(12);
            match self.below(8) {
                0 => Value::Null,
                1 | 2 => Value::Double(n as f64),
                3 => Value::Double(n as f64 + 0.5),
                4 | 5 => Value::Str(format!("s{n}")),
                _ => Value::Int(n as i64),
            }
        }
    }

    /// `KeyTable` against a `HashMap` model over seeded keys of widths 0–3:
    /// the same ids, dense and in insertion order, the same stored keys, and
    /// growth through several doublings of the slot array.
    #[test]
    fn key_table_matches_a_map_model() {
        for width in 0..=3 {
            for seed in 0..4 {
                let mut draws = Draws(seed * 10 + width as u64);
                let mut table = KeyTable::new(width);
                let mut model: HashMap<Vec<Value>, usize> = HashMap::new();
                let mut firsts: Vec<Vec<Value>> = Vec::new();
                for _ in 0..6_000 {
                    let key: Vec<Value> = (0..width).map(|_| draws.value()).collect();
                    let mut probe = key.clone();
                    let (id, new) = table.intern(&mut probe);
                    let want = *model.entry(key.clone()).or_insert(firsts.len());
                    assert_eq!((id, new), (want, want == firsts.len()), "key {key:?}");
                    if new {
                        assert!(probe.iter().all(Value::is_null), "a new key moves in");
                        firsts.push(key);
                    }
                }
                assert_eq!(table.len(), model.len());
                for (id, key) in firsts.iter().enumerate() {
                    assert!(table.key(id).iter().zip(key).all(|(a, b)| {
                        std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
                    }));
                    assert_eq!(table.key(id).len(), width);
                }
                if width == 0 {
                    assert_eq!(table.len(), 1, "the empty key is the one key");
                }
                if width == 3 {
                    // 16 slots at first: eight doublings or more.
                    assert!(table.slots.len() >= 4_096, "{} keys", table.len());
                }
            }
        }
    }

    #[test]
    fn key_table_equates_int_and_double_and_groups_nulls() {
        let mut table = KeyTable::new(2);
        let one = |a: Value, b: Value| vec![a, b];
        assert_eq!(
            table.intern(&mut one(Value::Int(1), Value::Null)),
            (0, true)
        );
        assert_eq!(
            table.intern(&mut one(Value::Double(1.0), Value::Null)),
            (0, false)
        );
        assert_eq!(
            table.intern(&mut one(Value::Double(1.5), Value::Null)),
            (1, true)
        );
        assert_eq!(
            table.intern(&mut one(Value::Int(1), Value::Int(0))),
            (2, true)
        );
        assert!(matches!(table.key(0), [Value::Int(1), Value::Null]));

        // Absorbing keeps the receiver's ids and numbers new keys after them.
        let mut other = KeyTable::new(2);
        other.intern(&mut one(Value::Str("x".into()), Value::Null));
        other.intern(&mut one(Value::Double(1.0), Value::Int(0)));
        assert_eq!(table.absorb(other), vec![(3, true), (2, false)]);
        assert!(matches!(table.key(3), [Value::Str(s), Value::Null] if s == "x"));
    }
}
