//! # xnf-exec — the Query Evaluation System (QES)
//!
//! Vectorized, pipelined interpretation of query evaluation plans. The
//! paper's "table queue evaluation" (Sect. 3.1) moves streams of tuples
//! between QEP operators; this engine moves those streams as
//! [`RowBatch`] chunks (default 1024 rows, tunable via
//! `PlanOptions::batch_size`) instead of one row per pull:
//!
//! - every operator implements [`Operator::next_batch`] — there is no
//!   row-at-a-time `next()`; virtual dispatch, predicate/projection setup
//!   and allocator traffic amortise over a whole chunk;
//! - scans stream batches straight off heap pages
//!   (`HeapFile::scan_page`) and index postings — a scan holds at most one
//!   page of tuples, so `LIMIT`-style early termination stops reading the
//!   base table instead of materialising it;
//! - shared subplans (the multi-query "table queues" of Fig. 6) are
//!   materialised once as `Vec<RowBatch>` and re-streamed chunk-at-a-time
//!   by every consumer;
//! - correlated subqueries (the naive pre-rewrite strategy) still
//!   re-instantiate their subplan per outer tuple — that per-tuple cost is
//!   exactly what the E-to-F rewrite removes, and keeping it measurable is
//!   the point of the Fig. 3 baseline.
//!
//! Pipeline granularity is observable: [`ExecStats::batches_emitted`] and
//! [`ExecStats::peak_batch_rows`] count the chunks delivered at the
//! pipeline sinks.
//!
//! Queries are **intra-query parallel** when the planner asks for it
//! (`PlanOptions::dop > 1`): plan subtrees rooted at `ExchangeGather` /
//! `ParallelHashAggregate` nodes run as morsel-driven parallel regions —
//! `dop` worker threads pull heap-page morsels from a shared dispenser,
//! run their own copy of the worker pipeline over a cloned MVCC snapshot,
//! and the coordinator merges their streams back into serial row order
//! (see the [`parallel`] module docs). At `dop = 1` (the default on a
//! single-core host) plans and execution are exactly the serial pipeline
//! described above.
//!
//! Reads are **snapshot-aware**: every run resolves one MVCC
//! [`Snapshot`](xnf_storage::Snapshot) — either the visibility handle the
//! caller pinned through [`OuterCtx`] (reads inside an open transaction) or
//! a fresh latest-committed snapshot — and every scan and index lookup
//! filters tuple versions against it. [`ExecStats::snapshot_seq`] records
//! which snapshot ran; [`ExecStats::rows_skipped_visibility`] counts the
//! versions the checks hid.
//!
//! Entry points: [`execute_qep`] / [`execute_qep_with_params`] (all output
//! streams of a QEP) and [`execute_qep_with_visibility`] (pin a snapshot).
//! Scans of materialized-view backing tables (`matview scan` nodes) execute
//! exactly like base-table scans — the catalog resolves the view name to
//! its backing storage.
//!
//! ```
//! use std::sync::Arc;
//! use xnf_exec::execute_qep;
//! use xnf_plan::{plan_query, PlanOptions};
//! use xnf_qgm::build_select_query;
//! use xnf_sql::parse_select;
//! use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema, Tuple, Value};
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16));
//! let catalog = Catalog::new(pool);
//! let emp = catalog
//!     .create_table("EMP", Schema::from_pairs(&[("eno", DataType::Int)]))
//!     .unwrap();
//! emp.insert(&Tuple::new(vec![Value::Int(7)])).unwrap();
//! let s = parse_select("SELECT eno FROM EMP").unwrap();
//! let qgm = build_select_query(&catalog, &s).unwrap();
//! let qep = plan_query(&catalog, &qgm, PlanOptions::default()).unwrap();
//! let result = execute_qep(&catalog, &qep).unwrap();
//! assert_eq!(result.try_table().unwrap().rows, vec![vec![Value::Int(7)]]);
//! ```

pub mod batch;
pub mod engine;
pub mod error;
pub mod eval;
pub mod hash;
pub mod ops;
pub mod parallel;

pub use batch::{BatchBuilder, RowBatch, DEFAULT_BATCH_SIZE};
pub use engine::{
    execute_qep, execute_qep_with_params, execute_qep_with_visibility, QueryResult, StreamResult,
};
pub use error::{ExecError, Result};
pub use eval::{
    eval, filter_batch, like_match, passes, passes_batch, project_batch, truthy, CompiledPreds,
    OuterCtx, Params, Row, Visibility,
};
pub use ops::{build_operator, drain, ExecStats, Operator, Runtime};

#[cfg(test)]
mod exec_tests;
