//! # composite-views — reproduction of "Composite-Object Views in
//! Relational DBMS: An Implementation Perspective" (Pirahesh, Mitschang,
//! Südkamp & Lindsay, Information Systems 19(1), 1994)
//!
//! This is the umbrella crate: it re-exports the public API of the
//! workspace crates. See the README for the architecture overview; `cargo
//! run --release -p xnf-bench --bin experiments` reproduces the paper's
//! tables and figures.

pub use xnf_core::*;

/// The layered crates, re-exported for direct access.
pub mod layers {
    pub use xnf_exec as exec;
    pub use xnf_plan as plan;
    pub use xnf_qgm as qgm;
    pub use xnf_rewrite as rewrite;
    pub use xnf_sql as sql;
    pub use xnf_storage as storage;
}
