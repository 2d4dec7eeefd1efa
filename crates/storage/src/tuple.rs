//! Tuples (rows) and their binary on-page encoding.
//!
//! The codec is a simple self-describing format: a one-byte tag per value
//! followed by a fixed or length-prefixed payload. It is compact enough for
//! realistic page-occupancy experiments and fully round-trips every [`Value`].

use crate::error::{Result, StorageError};
use crate::value::Value;

/// Record id: physical address of a stored tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: u64,
    pub slot: u16,
}

impl Rid {
    pub fn new(page: u64, slot: u16) -> Self {
        Rid { page, slot }
    }
}

/// A row of values. `Tuple` is deliberately a thin wrapper over `Vec<Value>`
/// so the executor can treat rows as slices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tuple {
    pub values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Approximate byte footprint (used by the shipping simulation).
    pub fn byte_size(&self) -> usize {
        self.values.iter().map(Value::byte_size).sum()
    }

    /// Encode this tuple to bytes, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_values(&self.values, out);
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() + self.len() + 2);
        self.encode_into(&mut out);
        out
    }

    /// Decode a tuple previously produced by [`Tuple::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Tuple> {
        Self::decode_cols(bytes, None)
    }

    /// [`Tuple::decode`] materializing only the columns `cols` names (see
    /// [`decode_values_cols`]); `None` keeps every column.
    pub fn decode_cols(bytes: &[u8], cols: Option<&[usize]>) -> Result<Tuple> {
        let (values, rest) = decode_values_cols(bytes, cols)?;
        if !rest.is_empty() {
            return Err(StorageError::Corrupt("trailing bytes after tuple"));
        }
        Ok(Tuple::new(values))
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Encode a slice of values: u16 count, then tagged payloads.
pub fn encode_values(values: &[Value], out: &mut Vec<u8>) {
    debug_assert!(values.len() <= u16::MAX as usize);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(false) => out.push(TAG_BOOL_FALSE),
            Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        }
    }
}

/// Decode values; returns the values and the remaining bytes.
pub fn decode_values(bytes: &[u8]) -> Result<(Vec<Value>, &[u8])> {
    decode_values_cols(bytes, None)
}

/// [`decode_values`] materializing only the columns at the ascending
/// positions `cols` (`None` keeps every column). A skipped column decodes
/// to [`Value::Null`] in its own slot, so no position shifts, and its
/// payload is still bounds-, tag- and UTF-8-checked: a corrupt record fails
/// the same way whichever columns a reader keeps.
pub fn decode_values_cols<'b>(
    bytes: &'b [u8],
    cols: Option<&[usize]>,
) -> Result<(Vec<Value>, &'b [u8])> {
    let corrupt = || StorageError::Corrupt("truncated tuple");
    if bytes.len() < 2 {
        return Err(corrupt());
    }
    let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let mut rest = &bytes[2..];
    let mut values = Vec::with_capacity(count);
    // The next kept position still to come (`cols` ascends).
    let mut kept = cols.map(|c| c.iter().copied().peekable());
    for i in 0..count {
        let keep = match &mut kept {
            None => true,
            Some(it) => it.next_if_eq(&i).is_some(),
        };
        let (tag, r) = rest.split_first().ok_or_else(corrupt)?;
        rest = r;
        let mut payload = |len: usize| -> Result<&'b [u8]> {
            if rest.len() < len {
                return Err(corrupt());
            }
            let (b, r) = rest.split_at(len);
            rest = r;
            Ok(b)
        };
        let v = match *tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(
                payload(8)?.try_into().expect("8-byte payload"),
            )),
            TAG_DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(
                payload(8)?.try_into().expect("8-byte payload"),
            ))),
            TAG_STR => {
                let len = u32::from_le_bytes(payload(4)?.try_into().expect("4-byte length"));
                let s = std::str::from_utf8(payload(len as usize)?)
                    .map_err(|_| StorageError::Corrupt("invalid utf-8 in string value"))?;
                // The one allocation a skipped column would cost.
                if keep {
                    Value::Str(s.to_string())
                } else {
                    Value::Null
                }
            }
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            _ => return Err(StorageError::Corrupt("unknown value tag")),
        };
        values.push(if keep { v } else { Value::Null });
    }
    Ok((values, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &Tuple) {
        let enc = t.encode();
        let dec = Tuple::decode(&enc).unwrap();
        assert_eq!(t, &dec);
    }

    #[test]
    fn codec_roundtrips_all_types() {
        roundtrip(&Tuple::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::Double(3.5),
            Value::Str("hello, wörld".into()),
            Value::Bool(true),
            Value::Bool(false),
        ]));
        roundtrip(&Tuple::new(vec![]));
        roundtrip(&Tuple::new(vec![Value::Str(String::new())]));
    }

    #[test]
    fn codec_rejects_truncation() {
        let t = Tuple::new(vec![Value::Int(7), Value::Str("abc".into())]);
        let enc = t.encode();
        for cut in 0..enc.len() {
            assert!(
                Tuple::decode(&enc[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn codec_rejects_trailing_garbage() {
        let mut enc = Tuple::new(vec![Value::Int(7)]).encode();
        enc.push(0xAB);
        assert!(Tuple::decode(&enc).is_err());
    }

    /// Every column mask of a tuple holding each value kind.
    fn masks(width: usize) -> Vec<Vec<usize>> {
        (0..1u32 << width)
            .map(|bits| (0..width).filter(|i| bits & (1 << i) != 0).collect())
            .collect()
    }

    #[test]
    fn masked_decode_nulls_skipped_columns_only() {
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::Str("hello, wörld".into()),
            Value::Null,
            Value::Double(3.5),
            Value::Bool(true),
            Value::Str(String::new()),
        ]);
        let enc = t.encode();
        assert_eq!(Tuple::decode_cols(&enc, None).unwrap(), t);
        for cols in masks(t.len()) {
            let got = Tuple::decode_cols(&enc, Some(&cols)).unwrap();
            assert_eq!(got.len(), t.len(), "mask {cols:?} kept every slot");
            for (i, v) in got.values.iter().enumerate() {
                if cols.contains(&i) {
                    // Byte-identical to the full decode, not merely equal.
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    encode_values(std::slice::from_ref(v), &mut a);
                    encode_values(std::slice::from_ref(&t[i]), &mut b);
                    assert_eq!(a, b, "mask {cols:?}, kept column {i}");
                } else {
                    assert!(v.is_null(), "mask {cols:?}, skipped column {i}: {v:?}");
                }
            }
        }
    }

    #[test]
    fn masked_decode_rejects_corruption_in_kept_and_skipped_columns() {
        // [Int(7), Str("abc"), Bool(true)] lays out as: count @0..2, INT
        // tag @2 + payload @3..11, STR tag @11 + length @12..16 + bytes
        // @16..19, BOOL tag @19.
        let enc = Tuple::new(vec![
            Value::Int(7),
            Value::Str("abc".into()),
            Value::Bool(true),
        ])
        .encode();
        assert_eq!(enc.len(), 20);
        let mut bad_utf8 = enc.clone();
        bad_utf8[17] = 0xFF;
        let mut bad_tag = enc.clone();
        bad_tag[11] = 0x7F;
        let mut trailing = enc.clone();
        trailing.push(0);
        for cols in masks(3) {
            let cols = Some(cols.as_slice());
            for cut in 0..enc.len() {
                assert!(
                    Tuple::decode_cols(&enc[..cut], cols).is_err(),
                    "mask {cols:?}, cut at {cut}"
                );
            }
            for (what, bytes) in [
                ("invalid utf-8", &bad_utf8),
                ("unknown tag", &bad_tag),
                ("trailing bytes", &trailing),
            ] {
                assert!(
                    matches!(
                        Tuple::decode_cols(bytes, cols),
                        Err(StorageError::Corrupt(_))
                    ),
                    "{what} accepted under mask {cols:?}"
                );
            }
        }
    }

    #[test]
    fn nan_and_negative_zero_roundtrip() {
        roundtrip(&Tuple::new(vec![Value::Double(f64::NAN)]));
        roundtrip(&Tuple::new(vec![Value::Double(-0.0)]));
    }
}
