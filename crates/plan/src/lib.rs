//! # xnf-plan — plan optimization and refinement
//!
//! The "plan optimization" stage of the paper's pipeline (Sect. 4.4 /
//! Fig. 2): lowers rewritten (NF) QGM graphs into executable physical
//! plans ([`physical::Qep`]) — shared-subexpression materialisation
//! ("table queues", Fig. 6), access-path selection, DP join ordering,
//! hash (semi)joins, aggregate lowering, the tuple-at-a-time
//! correlated-subquery operator kept for the naive baseline of Fig. 3, and
//! a last pass recording the columns each scan must decode.
//! Materialized-view references plan as [`PhysPlan::MatViewScan`]
//! (`matview scan` in EXPLAIN) or index lookups over backing storage.
//!
//! Entry point: [`plan_query`] (QGM → [`Qep`]), with knobs in
//! [`PlanOptions`]; `Qep::explain` renders the EXPLAIN text documented in
//! `docs/EXPLAIN.md`.
//!
//! ```
//! use std::sync::Arc;
//! use xnf_plan::{plan_query, PlanOptions};
//! use xnf_qgm::build_select_query;
//! use xnf_sql::parse_select;
//! use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema};
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16));
//! let catalog = Catalog::new(pool);
//! catalog
//!     .create_table("EMP", Schema::from_pairs(&[("eno", DataType::Int)]))
//!     .unwrap();
//! let s = parse_select("SELECT eno FROM EMP WHERE eno = 7").unwrap();
//! let qgm = build_select_query(&catalog, &s).unwrap();
//! let qep = plan_query(&catalog, &qgm, PlanOptions::default()).unwrap();
//! assert!(qep.explain().contains("SeqScan(EMP)"));
//! ```

pub mod error;
mod parallelize;
pub mod physical;
pub mod planner;
mod prune;

pub use error::{PlanError, Result};
pub use physical::{
    AggSpec, PhysExpr, PhysPlan, Qep, QepOutput, SharedId, SortSpec, DEFAULT_BATCH_SIZE,
};
pub use planner::{plan_query, PlanOptions, DEFAULT_PARALLEL_MIN_PAGES};

#[cfg(test)]
mod planner_tests;
