//! Row batches: the unit of data flow between operators.
//!
//! The paper's "table queue" evaluation (Sect. 3.1) moves *streams* of
//! tuples between QEP operators. We vectorize that stream: operators
//! exchange [`RowBatch`] chunks (default capacity
//! [`xnf_plan::DEFAULT_BATCH_SIZE`] rows) instead of single rows, so the
//! per-tuple virtual dispatch and bookkeeping of classic Volcano pulls
//! amortise over a whole chunk.
//!
//! A batch is one flat, row-major buffer of values with a row width and an
//! explicit row count (so zero-width rows still count): row `i` is the
//! slice `values[i * width..(i + 1) * width]`. A scan decodes each accepted
//! record straight into the buffer of the batch it is filling, a filter
//! compacts its batch in place and a join appends `left ++ right` as two
//! slices, so the streaming path allocates per batch, never per row. Only
//! materialization points (join build tables, sorts, aggregate results and
//! the final query result) hold rows of their own.
//!
//! ```
//! use xnf_exec::RowBatch;
//! use xnf_storage::Value;
//!
//! let mut batch = RowBatch::new(2);
//! batch.push(&[Value::Int(1), Value::Int(10)]);
//! batch.push(&[Value::Int(2), Value::Int(20)]);
//! batch.retain_indices(&[false, true]);
//! assert_eq!(batch.len(), 1);
//! assert_eq!(&batch[0], &[Value::Int(2), Value::Int(20)][..]);
//!
//! // Rows of no columns still count.
//! let mut empty = RowBatch::new(0);
//! empty.push(&[]);
//! empty.push(&[]);
//! assert_eq!((empty.len(), empty.columns()), (2, 0));
//! ```

pub use xnf_plan::DEFAULT_BATCH_SIZE;

use xnf_storage::Value;

use crate::eval::Row;

/// A chunk of rows of one width (`columns`), stored row-major in one
/// buffer. Producers never emit empty batches, so `None` from
/// [`crate::Operator::next_batch`] is the only end-of-stream signal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBatch {
    /// Row `i` is `values[i * width..(i + 1) * width]`.
    values: Vec<Value>,
    width: usize,
    /// Rows held: explicit, since zero-width rows hold no values.
    len: usize,
}

impl RowBatch {
    /// An empty batch of `columns`-wide rows.
    pub fn new(columns: usize) -> RowBatch {
        RowBatch {
            values: Vec::new(),
            width: columns,
            len: 0,
        }
    }

    /// An empty batch of `columns`-wide rows with room for `rows` rows.
    pub fn with_capacity(columns: usize, rows: usize) -> RowBatch {
        RowBatch {
            values: Vec::with_capacity(columns * rows),
            width: columns,
            len: 0,
        }
    }

    /// Move owned rows into one batch (width taken from the first row).
    pub fn from_rows(rows: Vec<Row>) -> RowBatch {
        let width = rows.first().map_or(0, Vec::len);
        let mut batch = RowBatch::with_capacity(width, rows.len());
        rows.into_iter().for_each(|row| batch.push_owned(row));
        batch
    }

    /// Row width of this batch.
    pub fn columns(&self) -> usize {
        self.width
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of a {}-row batch", self.len);
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Row `i`, to move its values out.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [Value] {
        assert!(i < self.len, "row {i} of a {}-row batch", self.len);
        &mut self.values[i * self.width..(i + 1) * self.width]
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Make room for `rows` more rows.
    pub fn reserve(&mut self, rows: usize) {
        self.values.reserve(rows * self.width);
    }

    /// The first row pushed into an empty batch sets its width; every later
    /// one must match it.
    fn start_row(&mut self, width: usize) {
        if self.len == 0 {
            self.width = width;
        }
        debug_assert_eq!(
            width, self.width,
            "row width {width} pushed into {}-column batch",
            self.width
        );
    }

    /// Append a copy of `row`.
    pub fn push(&mut self, row: &[Value]) {
        self.start_row(row.len());
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Append `row`, moving its values.
    pub fn push_owned(&mut self, row: Row) {
        self.start_row(row.len());
        self.values.extend(row);
        self.len += 1;
    }

    /// Append `row`, moving its values out and leaving `NULL`s behind.
    pub(crate) fn push_taken(&mut self, row: &mut [Value]) {
        self.start_row(row.len());
        let taken = row.iter_mut().map(|v| std::mem::replace(v, Value::Null));
        self.values.extend(taken);
        self.len += 1;
    }

    /// Append the row `left ++ right` (a join's output row).
    pub fn push_joined(&mut self, left: &[Value], right: &[Value]) {
        self.start_row(left.len() + right.len());
        self.values.extend_from_slice(left);
        self.values.extend_from_slice(right);
        self.len += 1;
    }

    /// Append one row whose `columns()` values `fill` pushes onto the
    /// buffer. When `fill` fails, nothing is appended.
    pub fn push_with<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<Value>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.values.len();
        if let Err(e) = fill(&mut self.values) {
            self.values.truncate(start);
            return Err(e);
        }
        debug_assert_eq!(self.values.len() - start, self.width, "row width");
        self.len += 1;
        Ok(())
    }

    /// The buffer itself, for a producer that appends whole rows to it and
    /// then reports them with [`RowBatch::appended`] (a scan decoding
    /// records straight into the batch it fills).
    pub(crate) fn buffer(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Count `rows` rows a producer appended through [`RowBatch::buffer`].
    pub(crate) fn appended(&mut self, rows: usize) {
        self.len += rows;
        debug_assert_eq!(self.values.len(), self.len * self.width, "whole rows");
    }

    /// Move every row of `other` onto the end of this batch.
    pub fn append(&mut self, mut other: RowBatch) {
        if self.len == 0 {
            self.width = other.width;
        }
        debug_assert_eq!(
            other.width, self.width,
            "appending a batch of another width"
        );
        self.values.append(&mut other.values);
        self.len += other.len;
    }

    /// Move the rows out, one owned row each (for materialization points).
    pub fn into_rows(self) -> Vec<Row> {
        let width = self.width;
        let mut values = self.values.into_iter();
        (0..self.len)
            .map(|_| values.by_ref().take(width).collect())
            .collect()
    }

    /// Keep only the rows `keep` decides `true` for, compacting the buffer
    /// in place. On an error the rows kept so far stay and the rest are
    /// dropped.
    pub fn try_retain<E>(
        &mut self,
        mut keep: impl FnMut(&[Value]) -> Result<bool, E>,
    ) -> Result<(), E> {
        let w = self.width;
        let mut kept = 0;
        let mut result = Ok(());
        for i in 0..self.len {
            match keep(&self.values[i * w..(i + 1) * w]) {
                Ok(false) => continue,
                Ok(true) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            if kept != i {
                let (head, tail) = self.values.split_at_mut(i * w);
                head[kept * w..(kept + 1) * w].swap_with_slice(&mut tail[..w]);
            }
            kept += 1;
        }
        self.truncate(kept);
        result
    }

    /// Keep only the rows whose flag in `keep` (one per row) is set.
    pub fn retain_indices(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let mut keep = keep.iter();
        let flag = |_: &[Value]| keep.next().copied().ok_or(());
        self.try_retain(flag).expect("one flag per row");
    }

    /// Truncate to at most `n` rows (LIMIT support).
    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.values.truncate(n * self.width);
            self.len = n;
        }
    }

    /// Split off the rows from `at` on into a batch of their own.
    pub(crate) fn split_off(&mut self, at: usize) -> RowBatch {
        let tail = RowBatch {
            values: self.values.split_off(at * self.width),
            width: self.width,
            len: self.len - at,
        };
        self.len = at;
        tail
    }
}

impl std::ops::Index<usize> for RowBatch {
    type Output = [Value];
    fn index(&self, i: usize) -> &[Value] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Str(format!("s{i}"))]
    }

    #[test]
    fn retain_and_truncate() {
        let mut batch = RowBatch::from_rows((0..6).map(row).collect());
        batch.retain_indices(&[true, false, true, false, true, false]);
        assert_eq!(batch.len(), 3);
        assert_eq!(&batch[1], &row(2)[..]);
        batch.truncate(2);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn batch_iteration_preserves_order() {
        let batch = RowBatch::from_rows(vec![row(1), row(2), row(3)]);
        assert_eq!(batch.columns(), 2);
        let slices: Vec<&[Value]> = batch.iter().collect();
        assert_eq!(slices, [&row(1)[..], &row(2)[..], &row(3)[..]]);
        assert_eq!(batch.into_rows(), vec![row(1), row(2), row(3)]);
    }

    #[test]
    fn retain_and_truncate_compare_strings_by_value() {
        let mut batch = RowBatch::new(2);
        (0..9).for_each(|i| batch.push(&row(i)));
        batch.retain_indices(&[false, true, true, false, false, true, false, true, false]);
        assert_eq!(batch.into_rows(), vec![row(1), row(2), row(5), row(7)]);

        let mut batch = RowBatch::from_rows((0..9).map(row).collect());
        let keep = |r: &[Value]| Ok::<_, ()>(r[0].as_int().unwrap() % 3 != 0);
        batch.try_retain(keep).unwrap();
        assert_eq!(batch.len(), 6);
        batch.truncate(4);
        batch.truncate(7);
        assert_eq!(batch.into_rows(), vec![row(1), row(2), row(4), row(5)]);
    }

    #[test]
    fn a_failing_retain_keeps_the_rows_decided_before_it() {
        let mut batch = RowBatch::from_rows((0..6).map(row).collect());
        let keep = |r: &[Value]| match r[0].as_int().unwrap() {
            4 => Err("boom"),
            i => Ok(i % 2 == 1),
        };
        assert_eq!(batch.try_retain(keep), Err("boom"));
        assert_eq!(batch.into_rows(), vec![row(1), row(3)]);
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let mut batch = RowBatch::new(0);
        (0..5).for_each(|_| batch.push(&[]));
        assert_eq!((batch.len(), batch.columns()), (5, 0));
        assert_eq!(batch.iter().count(), 5);
        batch.retain_indices(&[true, false, true, true, false]);
        assert_eq!(batch.len(), 3);
        let tail = batch.split_off(1);
        assert_eq!((batch.len(), tail.len()), (1, 2));
        batch.append(tail);
        assert_eq!(batch.into_rows(), vec![Vec::<Value>::new(); 3]);
        assert_eq!(RowBatch::from_rows(vec![vec![], vec![]]).len(), 2);
    }

    #[test]
    fn joined_rows_split_and_append() {
        let mut batch = RowBatch::new(4);
        for i in 0..4 {
            batch.push_joined(&row(i), &row(10 + i));
        }
        let tail = batch.split_off(3);
        assert_eq!((batch.len(), tail.len()), (3, 1));
        assert_eq!(&tail[0][2..], &row(13)[..]);
        let failed = batch.push_with(|v| {
            v.push(Value::Int(0));
            Err(())
        });
        assert_eq!((failed, batch.len()), (Err(()), 3));
        batch.append(tail);
        let rows: Vec<Vec<Value>> = batch.iter().map(<[Value]>::to_vec).collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], [row(3), row(13)].concat());
    }
}
