//! # xnf-qgm — the Query Graph Model and its semantic builders
//!
//! QGM is the internal representation Starburst compiles queries into
//! (Sect. 3.2 of the paper); this crate provides:
//!
//! - [`graph`]: boxes (Select / BaseTable / GroupBy / Union / Top and the
//!   paper's **XNF operator**), quantifiers with F/E/Semi/Anti kinds, heads
//!   and predicates;
//! - [`expr`]: resolved scalar expressions over quantifier columns;
//! - [`builder`]: SQL semantic routines (AST → NF QGM), with view expansion,
//!   correlation, EXISTS/IN quantifier construction and OR-to-UNION;
//! - [`xnf_builder`]: the XNF semantic routines (phases 0–3 of Sect. 4.1);
//! - [`views`]: the one reader of stored view text and the one XNF-view
//!   inliner, shared with write-back and materialized-view maintenance;
//! - [`display`]: ASCII dumps used to reproduce the paper's QGM figures.
//!
//! Entry points: [`build_select_query`] (SQL AST → QGM, with view
//! expansion — materialized views substitute their backing table instead
//! of their definition) and [`build_xnf_query`] (XNF AST → QGM with the
//! XNF operator box).
//!
//! ```
//! use std::sync::Arc;
//! use xnf_qgm::build_select_query;
//! use xnf_sql::{parse_select};
//! use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema};
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16));
//! let catalog = Catalog::new(pool);
//! catalog
//!     .create_table("EMP", Schema::from_pairs(&[("eno", DataType::Int)]))
//!     .unwrap();
//! let select = parse_select("SELECT eno FROM EMP WHERE eno = 1").unwrap();
//! let qgm = build_select_query(&catalog, &select).unwrap();
//! assert!(qgm.top.is_some(), "a Top box delivers the result stream");
//! ```

pub mod builder;
pub mod display;
pub mod error;
pub mod expr;
pub mod graph;
pub mod views;
pub mod xnf_builder;

pub use builder::{attach_top, build_select_query, literal_value, Builder, Scope};
pub use error::{QgmError, Result};
pub use expr::{QunId, ScalarExpr};
pub use graph::{
    BoxId, BoxKind, GroupByBox, HeadColumn, OrderSpec, OutputDesc, OutputKind, Qgm, QgmBox,
    Quantifier, QunKind, Reach, SelectBox, UnionBox, XnfBox, XnfComponent, XnfComponentKind,
    ROWID_COL,
};
pub use views::{inline_xnf_views, view_body};
pub use xnf_builder::{build_xnf_query, schema_graph_has_cycle};

#[cfg(test)]
mod builder_tests;
