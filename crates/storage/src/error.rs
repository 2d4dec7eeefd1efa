//! Error type for the storage layer.

use std::fmt;

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id was out of range for the disk file.
    PageOutOfRange(u64),
    /// A record id pointed at a missing or deleted slot.
    InvalidRid {
        page: u64,
        slot: u16,
    },
    /// A tuple was too large to fit in a page.
    TupleTooLarge(usize),
    /// Every frame of a buffer-pool shard was pinned and the requesting
    /// thread held a pin itself, so it could not wait for one to free up:
    /// the pool is smaller than one operation's simultaneous pins.
    BufferPoolExhausted,
    /// Catalog name collisions / lookups.
    DuplicateTable(String),
    DuplicateIndex(String),
    UnknownTable(String),
    UnknownIndex(String),
    UnknownColumn {
        table: String,
        column: String,
    },
    /// Value/type mismatch while encoding or evaluating.
    TypeMismatch {
        expected: &'static str,
        got: &'static str,
    },
    /// Arity mismatch between a tuple and its schema.
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    /// Corrupt on-page or serialized data.
    Corrupt(&'static str),
    /// Violation of a uniqueness constraint on an index.
    UniqueViolation(String),
    /// Transaction misuse (e.g. commit without begin).
    TxnState(&'static str),
    /// First-writer-wins row conflict: another transaction already wrote
    /// (updated or deleted) the row this transaction tried to write.
    WriteConflict {
        table: String,
    },
    /// An operating-system I/O failure (page file or write-ahead log). The
    /// message is carried as a string so the error stays `Clone + Eq`.
    Io(String),
    /// A page read failed its trailer checksum: a crash landed inside the
    /// 8 KiB write and left a torn (half-old, half-new) image that the
    /// double-write buffer could not repair. Never served as data.
    TornPage {
        page: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfRange(p) => write!(f, "page {p} out of range"),
            StorageError::InvalidRid { page, slot } => {
                write!(f, "invalid rid ({page},{slot})")
            }
            StorageError::TupleTooLarge(n) => write!(f, "tuple of {n} bytes exceeds page capacity"),
            StorageError::BufferPoolExhausted => {
                write!(
                    f,
                    "buffer pool exhausted: every frame of a shard is pinned and the \
                     requesting thread holds a pin itself (the pool is smaller than one \
                     operation's simultaneous pins)"
                )
            }
            StorageError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
            StorageError::DuplicateIndex(i) => write!(f, "index '{i}' already exists"),
            StorageError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            StorageError::UnknownIndex(i) => write!(f, "unknown index '{i}'"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            StorageError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} columns, tuple has {got}"
                )
            }
            StorageError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            StorageError::UniqueViolation(k) => write!(f, "unique constraint violated for key {k}"),
            StorageError::TxnState(s) => write!(f, "transaction state error: {s}"),
            StorageError::WriteConflict { table } => {
                write!(
                    f,
                    "write conflict on table '{table}': row already written by a \
                     concurrent transaction"
                )
            }
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
            StorageError::TornPage { page } => {
                write!(
                    f,
                    "torn page {page}: trailer checksum mismatch and no valid \
                     double-write copy to restore from"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
