//! Row batches: the unit of data flow between operators.
//!
//! The paper's "table queue" evaluation (Sect. 3.1) moves *streams* of
//! tuples between QEP operators. We vectorize that stream: operators
//! exchange [`RowBatch`] chunks (default capacity
//! [`xnf_plan::DEFAULT_BATCH_SIZE`] rows) instead of single rows, so the
//! per-tuple virtual dispatch and bookkeeping of classic Volcano pulls
//! amortise over a whole chunk:
//!
//! ```
//! use xnf_exec::RowBatch;
//! use xnf_storage::Value;
//!
//! let mut batch = RowBatch::from_rows(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
//! batch.retain_indices(&[false, true]);
//! assert_eq!(batch.rows(), &[vec![Value::Int(2)]]);
//! ```

pub use xnf_plan::DEFAULT_BATCH_SIZE;

use crate::eval::Row;

/// A column-count-aware chunk of rows. Every row has the same width
/// (`columns`); producers never emit empty batches, so `None` from
/// [`crate::Operator::next_batch`] is the only end-of-stream signal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBatch {
    rows: Vec<Row>,
    columns: usize,
}

impl RowBatch {
    /// An empty batch of `columns`-wide rows with room for `capacity` rows.
    pub fn with_capacity(columns: usize, capacity: usize) -> RowBatch {
        RowBatch {
            rows: Vec::with_capacity(capacity),
            columns,
        }
    }

    /// Wrap pre-built rows (width taken from the first row).
    pub fn from_rows(rows: Vec<Row>) -> RowBatch {
        let columns = rows.first().map(|r| r.len()).unwrap_or(0);
        RowBatch { rows, columns }
    }

    /// Row width of this batch.
    pub fn columns(&self) -> usize {
        self.columns
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row; debug-asserts the width invariant.
    pub fn push(&mut self, row: Row) {
        debug_assert!(
            self.columns == row.len() || self.rows.is_empty(),
            "row width {} pushed into {}-column batch",
            row.len(),
            self.columns
        );
        if self.rows.is_empty() {
            self.columns = row.len();
        }
        self.rows.push(row);
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Keep only the rows whose index passes `keep` (used by batch filters).
    pub fn retain_indices(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.rows.len());
        let mut i = 0;
        self.rows.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Truncate to at most `n` rows (LIMIT support).
    pub fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
    }
}

impl IntoIterator for RowBatch {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a RowBatch {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl std::ops::Index<usize> for RowBatch {
    type Output = Row;
    fn index(&self, i: usize) -> &Row {
        &self.rows[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_storage::Value;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Int(i * 10)]
    }

    #[test]
    fn retain_and_truncate() {
        let mut batch = RowBatch::from_rows((0..6).map(row).collect());
        batch.retain_indices(&[true, false, true, false, true, false]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1], row(2));
        batch.truncate(2);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn batch_iteration_preserves_order() {
        let batch = RowBatch::from_rows(vec![row(1), row(2), row(3)]);
        assert_eq!(batch.columns(), 2);
        let rows: Vec<Row> = batch.into_iter().collect();
        assert_eq!(rows, vec![row(1), row(2), row(3)]);
    }
}
