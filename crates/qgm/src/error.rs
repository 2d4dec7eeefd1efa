//! Semantic-analysis errors.

use std::fmt;

use xnf_sql::ParseError;
use xnf_storage::StorageError;

/// Errors raised while building or transforming QGM graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum QgmError {
    /// Unknown table/view referenced in FROM or OUT OF.
    UnknownTable(String),
    /// Unknown column (with binding context).
    UnknownColumn(String),
    /// A column name resolves against several quantifiers.
    AmbiguousColumn(String),
    /// Unknown binding (alias / component name) in a qualified reference.
    UnknownBinding(String),
    /// XNF-specific semantic violations (duplicate component, bad partner,
    /// missing roots, ...).
    Xnf(String),
    /// Generic unsupported-construct error.
    Unsupported(String),
    /// Underlying parse error (the view reader parses stored text).
    Parse(ParseError),
    /// Underlying storage/catalog error.
    Storage(StorageError),
}

impl fmt::Display for QgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QgmError::UnknownTable(t) => write!(f, "unknown table or view '{t}'"),
            QgmError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            QgmError::AmbiguousColumn(c) => write!(f, "ambiguous column '{c}'"),
            QgmError::UnknownBinding(b) => write!(f, "unknown table alias or component '{b}'"),
            QgmError::Xnf(m) => write!(f, "XNF semantic error: {m}"),
            QgmError::Unsupported(m) => write!(f, "unsupported: {m}"),
            QgmError::Parse(e) => write!(f, "{e}"),
            QgmError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QgmError {}

impl From<ParseError> for QgmError {
    fn from(e: ParseError) -> Self {
        QgmError::Parse(e)
    }
}

impl From<StorageError> for QgmError {
    fn from(e: StorageError) -> Self {
        QgmError::Storage(e)
    }
}

pub type Result<T> = std::result::Result<T, QgmError>;
