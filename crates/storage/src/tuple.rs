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
/// the same way whichever columns a reader keeps. A page read behind a
/// [`Gate`] (see [`crate::HeapFile::scan_page_snapshot`]) runs the same
/// checks through the same walk, before the gate decides.
pub fn decode_values_cols<'b>(
    bytes: &'b [u8],
    cols: Option<&[usize]>,
) -> Result<(Vec<Value>, &'b [u8])> {
    let mut values = Vec::with_capacity(column_count(bytes));
    let rest = walk_cols_into(bytes, cols, &mut values)?;
    Ok((values, rest))
}

/// The column count an encoded tuple declares (0 when it is too short to
/// declare one), before the walk checks it.
fn column_count(bytes: &[u8]) -> usize {
    bytes
        .get(..2)
        .map_or(0, |c| u16::from_le_bytes([c[0], c[1]]) as usize)
}

/// The walk of [`decode_values_cols`], appending the values to `out`.
fn walk_cols_into<'b>(
    bytes: &'b [u8],
    cols: Option<&[usize]>,
    out: &mut Vec<Value>,
) -> Result<&'b [u8]> {
    // The next kept position still to come (`cols` ascends).
    let mut kept = cols.map(|c| c.iter().copied().peekable());
    walk_values(bytes, |i, raw| {
        let keep = match &mut kept {
            None => true,
            Some(it) => it.next_if_eq(&i).is_some(),
        };
        out.push(if keep { raw.value() } else { Value::Null });
    })
}

/// [`Tuple::decode_cols`] appending the record's values to `out`, a flat
/// buffer of rows, instead of into a tuple of its own. Returns the record's
/// width; on an error `out` is left as it was.
pub(crate) fn decode_cols_into(
    bytes: &[u8],
    cols: Option<&[usize]>,
    out: &mut Vec<Value>,
) -> Result<usize> {
    let start = out.len();
    let walked = match walk_cols_into(bytes, cols, out) {
        Ok(rest) if !rest.is_empty() => Err(StorageError::Corrupt("trailing bytes after tuple")),
        walked => walked,
    };
    match walked {
        Ok(_) => Ok(out.len() - start),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// One column of an encoded tuple, checked but not yet materialized: a
/// string borrows its validated bytes, so a column nobody keeps costs no
/// allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RawValue<'b> {
    Null,
    Int(i64),
    Double(f64),
    Str(&'b str),
    Bool(bool),
}

impl RawValue<'_> {
    fn value(self) -> Value {
        match self {
            RawValue::Null => Value::Null,
            RawValue::Int(i) => Value::Int(i),
            RawValue::Double(d) => Value::Double(d),
            RawValue::Str(s) => Value::Str(s.to_string()),
            RawValue::Bool(b) => Value::Bool(b),
        }
    }
}

/// Split `len` payload bytes off the front of `rest`.
fn take<'b>(rest: &mut &'b [u8], len: usize) -> Result<&'b [u8]> {
    if rest.len() < len {
        return Err(StorageError::Corrupt("truncated tuple"));
    }
    let (b, r) = rest.split_at(len);
    *rest = r;
    Ok(b)
}

/// The one walk over an encoded tuple: check every column (bounds, tag,
/// UTF-8) and hand it to `f` with its position. Returns the bytes after
/// the last column.
fn walk_values<'b>(bytes: &'b [u8], mut f: impl FnMut(usize, RawValue<'b>)) -> Result<&'b [u8]> {
    let mut rest = bytes;
    let count = take(&mut rest, 2)?;
    let count = u16::from_le_bytes([count[0], count[1]]) as usize;
    for i in 0..count {
        let tag = take(&mut rest, 1)?[0];
        let raw = match tag {
            TAG_NULL => RawValue::Null,
            TAG_INT => RawValue::Int(i64::from_le_bytes(
                take(&mut rest, 8)?.try_into().expect("8-byte payload"),
            )),
            TAG_DOUBLE => RawValue::Double(f64::from_bits(u64::from_le_bytes(
                take(&mut rest, 8)?.try_into().expect("8-byte payload"),
            ))),
            TAG_STR => {
                let len =
                    u32::from_le_bytes(take(&mut rest, 4)?.try_into().expect("4-byte length"));
                RawValue::Str(
                    std::str::from_utf8(take(&mut rest, len as usize)?)
                        .map_err(|_| StorageError::Corrupt("invalid utf-8 in string value"))?,
                )
            }
            TAG_BOOL_FALSE => RawValue::Bool(false),
            TAG_BOOL_TRUE => RawValue::Bool(true),
            _ => return Err(StorageError::Corrupt("unknown value tag")),
        };
        f(i, raw);
    }
    Ok(rest)
}

/// A predicate a page read decides on each visible record before it
/// materializes the record (see [`crate::HeapFile::scan_page_snapshot`]).
/// `cols` are the ascending positions `accept` reads: it sees a row of the
/// record's width holding those columns, every other column `NULL`.
pub struct Gate<'g> {
    pub cols: &'g [usize],
    pub accept: &'g mut dyn FnMut(&[Value]) -> bool,
}

/// What a page read behind a [`Gate`] keeps from one record to the next
/// (see [`decode_gated_into`]).
#[derive(Default)]
pub(crate) struct GateScratch<'b> {
    /// The current record's columns, checked but not materialized.
    raw: Vec<RawValue<'b>>,
    /// Where the slot a rejected record left at the tail of the buffer
    /// starts: the next record reuses it.
    slot: Option<usize>,
}

impl GateScratch<'_> {
    /// Drop the slot a rejected record left, so `out` holds accepted rows
    /// only (the end of a page).
    pub(crate) fn close(&mut self, out: &mut Vec<Value>) {
        if let Some(start) = self.slot.take() {
            out.truncate(start);
        }
    }
}

/// [`decode_cols_into`] behind a gate. One walk checks every column
/// exactly as [`decode_values_cols`] does, so a corrupt record fails with
/// [`StorageError::Corrupt`] whatever the gate would say. Only the gate's
/// columns are then decoded, into the record's own slot at the tail of
/// `out` (its width of values, every other column `NULL`), and the gate
/// decides on that slot. A rejected record allocated nothing beyond the
/// gate's own string columns; its slot stays open for the next record,
/// whose gate columns overwrite it, until [`GateScratch::close`] truncates
/// it. An accepted record keeps its slot: only the kept columns (`cols`,
/// `None` = all) the gate did not read are filled in from the walk, and a
/// gate column `cols` does not keep reads `NULL` again, so each value is
/// materialized once. Returns the accepted record's width.
pub(crate) fn decode_gated_into<'b>(
    bytes: &'b [u8],
    cols: Option<&[usize]>,
    gate: &mut Gate<'_>,
    scratch: &mut GateScratch<'b>,
    out: &mut Vec<Value>,
) -> Result<Option<usize>> {
    let raw = &mut scratch.raw;
    raw.clear();
    raw.reserve(column_count(bytes));
    let rest = walk_values(bytes, |_, v| raw.push(v))?;
    if !rest.is_empty() {
        return Err(StorageError::Corrupt("trailing bytes after tuple"));
    }
    let width = raw.len();
    let start = match scratch.slot {
        Some(start) if out.len() - start == width => start,
        _ => {
            scratch.close(out);
            out.extend((0..width).map(|_| Value::Null));
            out.len() - width
        }
    };
    scratch.slot = Some(start);
    let (row, raw) = (&mut out[start..], &scratch.raw);
    for &c in gate.cols.iter().filter(|&&c| c < width) {
        row[c] = raw[c].value();
    }
    if !(gate.accept)(row) {
        return Ok(None);
    }
    scratch.slot = None;
    let read = |c: &usize| gate.cols.binary_search(c).is_ok();
    match cols {
        None => {
            let unread = raw.iter().enumerate().filter(|(c, _)| !read(c));
            unread.for_each(|(c, v)| row[c] = v.value());
        }
        Some(cols) => {
            for &c in cols.iter().filter(|&c| *c < width && !read(c)) {
                row[c] = raw[c].value();
            }
            let unkept = gate.cols.iter().filter(|c| cols.binary_search(c).is_err());
            for &c in unkept.filter(|&c| *c < width) {
                row[c] = Value::Null;
            }
        }
    }
    Ok(Some(width))
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
        let corrupt = |r: Result<Option<Tuple>>| matches!(r, Err(StorageError::Corrupt(_)));
        for cols in masks(3) {
            let cols = Some(cols.as_slice());
            for cut in 0..enc.len() {
                assert!(
                    corrupt(Tuple::decode_cols(&enc[..cut], cols).map(Some)),
                    "mask {cols:?}, cut at {cut}"
                );
            }
            for (what, bytes) in [
                ("invalid utf-8", &bad_utf8),
                ("unknown tag", &bad_tag),
                ("trailing bytes", &trailing),
            ] {
                assert!(
                    corrupt(Tuple::decode_cols(bytes, cols).map(Some)),
                    "{what} accepted under mask {cols:?}"
                );
            }
            // A gated read fails alike, whichever columns the gate reads
            // and whatever it would decide: the walk checks the whole
            // record before the gate runs.
            for gate_cols in masks(3) {
                for verdict in [true, false] {
                    let read = |bytes: &[u8]| gated(bytes, cols, &gate_cols, verdict).1;
                    for cut in 0..enc.len() {
                        assert!(
                            corrupt(read(&enc[..cut])),
                            "mask {cols:?}, gate {gate_cols:?} -> {verdict}, cut at {cut}"
                        );
                    }
                    for (what, bytes) in [
                        ("invalid utf-8", &bad_utf8),
                        ("unknown tag", &bad_tag),
                        ("trailing bytes", &trailing),
                    ] {
                        assert!(
                            corrupt(read(bytes)),
                            "{what} accepted under mask {cols:?}, gate {gate_cols:?} -> {verdict}"
                        );
                    }
                }
            }
        }
    }

    /// [`decode_gated_into`] of `bytes` behind a gate over `gate_cols`
    /// that answers `verdict`: the rows the gate saw, and the result. The
    /// record lands after a row already in the buffer, which it must leave
    /// as it was.
    fn gated(
        bytes: &[u8],
        cols: Option<&[usize]>,
        gate_cols: &[usize],
        verdict: bool,
    ) -> (Vec<Vec<Value>>, Result<Option<Tuple>>) {
        let mut seen = Vec::new();
        let mut accept = |row: &[Value]| {
            seen.push(row.to_vec());
            verdict
        };
        let mut gate = Gate {
            cols: gate_cols,
            accept: &mut accept,
        };
        let before = vec![Value::Str("before".into())];
        let mut out = before.clone();
        let mut scratch = GateScratch::default();
        let got = decode_gated_into(bytes, cols, &mut gate, &mut scratch, &mut out);
        scratch.close(&mut out);
        assert_eq!(
            out[..1],
            before[..],
            "the row ahead of the record is untouched"
        );
        let got = got.map(|width| {
            width.map(|w| {
                assert_eq!(out.len(), 1 + w, "the accepted record fills its slot");
                Tuple::new(out.split_off(1))
            })
        });
        if !matches!(got, Ok(Some(_))) {
            assert_eq!(out, before, "a rejected or corrupt record leaves no trace");
        }
        (seen, got)
    }

    #[test]
    fn gated_decode_shows_the_gate_its_columns_and_keeps_cols_on_accept() {
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::Str("hello, wörld".into()),
            Value::Null,
            Value::Double(3.5),
            Value::Bool(true),
        ]);
        let enc = t.encode();
        let only = |cols: &[usize]| -> Vec<Value> {
            (0..t.len())
                .map(|i| match cols.contains(&i) {
                    true => t[i].clone(),
                    false => Value::Null,
                })
                .collect()
        };
        for gate_cols in masks(t.len()) {
            for cols in masks(t.len()).into_iter().map(Some).chain([None]) {
                let (seen, got) = gated(&enc, cols.as_deref(), &gate_cols, true);
                assert_eq!(seen, vec![only(&gate_cols)], "gate {gate_cols:?}");
                assert_eq!(
                    got.unwrap(),
                    Some(Tuple::decode_cols(&enc, cols.as_deref()).unwrap()),
                    "gate {gate_cols:?}, mask {cols:?}"
                );
                let (seen, got) = gated(&enc, cols.as_deref(), &gate_cols, false);
                assert_eq!(seen.len(), 1);
                assert_eq!(got.unwrap(), None, "a rejected record materializes nothing");
            }
        }
        // One scratch across records: each record's gate row holds its own
        // values only.
        let other = Tuple::new(vec![Value::Int(1), Value::Str("x".into())]).encode();
        let mut seen = Vec::new();
        let mut accept = |row: &[Value]| {
            seen.push(row.to_vec());
            false
        };
        let mut gate = Gate {
            cols: &[0],
            accept: &mut accept,
        };
        let (mut scratch, mut out) = (GateScratch::default(), Vec::new());
        for bytes in [&enc, &other, &enc] {
            decode_gated_into(bytes, None, &mut gate, &mut scratch, &mut out).unwrap();
        }
        scratch.close(&mut out);
        assert!(out.is_empty());
        assert_eq!(
            seen,
            vec![only(&[0]), vec![Value::Int(1), Value::Null], only(&[0]),]
        );
    }

    #[test]
    fn gated_records_fill_one_buffer_with_the_accepted_ones_only() {
        let rows: Vec<Tuple> = (0..6)
            .map(|i| {
                let s = Value::Str(format!("s{i}"));
                Tuple::new(vec![Value::Int(i), s, Value::Double(i as f64)])
            })
            .collect();
        // The gate reads column 0 and accepts ids 1, 2 and 5: rejects
        // before, between and after accepts, and a reject that ends the
        // page.
        for cols in [None, Some(&[1, 2][..]), Some(&[0, 2][..])] {
            let (mut seen, mut scratch) = (Vec::new(), GateScratch::default());
            let mut out = vec![Value::Str("ahead".into())];
            let mut accept = |row: &[Value]| {
                seen.push(row.to_vec());
                matches!(row[0], Value::Int(1 | 2 | 5))
            };
            let mut gate = Gate {
                cols: &[0],
                accept: &mut accept,
            };
            let encoded: Vec<Vec<u8>> = rows.iter().map(Tuple::encode).collect();
            let widths: Vec<Option<usize>> = encoded
                .iter()
                .map(|b| decode_gated_into(b, cols, &mut gate, &mut scratch, &mut out).unwrap())
                .collect();
            scratch.close(&mut out);
            let accepted = [1, 2, 5];
            for (i, w) in widths.iter().enumerate() {
                assert_eq!(*w, accepted.contains(&i).then_some(3), "row {i}");
            }
            let mut want = vec![Value::Str("ahead".into())];
            for &i in &accepted {
                want.extend(Tuple::decode_cols(&encoded[i], cols).unwrap().values);
            }
            assert_eq!(out, want, "cols {cols:?}");
            let shown: Vec<Vec<Value>> = (0..6)
                .map(|i| vec![Value::Int(i), Value::Null, Value::Null])
                .collect();
            assert_eq!(seen, shown, "each record's slot holds its own gate column");
        }
    }

    #[test]
    fn decoding_into_a_buffer_appends_or_leaves_it_as_it_was() {
        let t = Tuple::new(vec![Value::Int(7), Value::Str("abc".into())]);
        let enc = t.encode();
        let mut out = vec![Value::Null];
        assert_eq!(decode_cols_into(&enc, Some(&[1]), &mut out).unwrap(), 2);
        assert_eq!(out, [Value::Null, Value::Null, Value::Str("abc".into())]);
        for cut in 0..enc.len() {
            let got = decode_cols_into(&enc[..cut], None, &mut out);
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "cut at {cut}");
            assert_eq!(out.len(), 3, "a corrupt record appends nothing");
        }
    }

    #[test]
    fn nan_and_negative_zero_roundtrip() {
        roundtrip(&Tuple::new(vec![Value::Double(f64::NAN)]));
        roundtrip(&Tuple::new(vec![Value::Double(-0.0)]));
    }
}
