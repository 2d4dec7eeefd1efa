//! Rewrite errors.

use std::fmt;

use xnf_qgm::QgmError;

/// Errors raised by rewrite rules or the XNF lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// Structural invariant violated mid-rewrite (a bug, surfaced loudly).
    Corrupt(String),
    /// Underlying semantic error.
    Qgm(QgmError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Corrupt(m) => write!(f, "rewrite invariant violated: {m}"),
            RewriteError::Qgm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<QgmError> for RewriteError {
    fn from(e: QgmError) -> Self {
        RewriteError::Qgm(e)
    }
}

pub type Result<T> = std::result::Result<T, RewriteError>;
