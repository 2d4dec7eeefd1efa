//! # xnf-core — composite-object views over relational data
//!
//! The public API of the reproduction of Pirahesh, Mitschang, Südkamp &
//! Lindsay, *Composite-Object Views in Relational DBMS: An Implementation
//! Perspective* (Information Systems 19(1), 1994):
//!
//! - [`Database`] — an embedded Starburst-style RDBMS with the XNF
//!   extension: SQL and `OUT OF … TAKE …` composite-object queries share
//!   one compilation pipeline (parser → QGM → rewrite → plan → QES),
//!   recursive COs (cyclic schema graphs, Sect. 2) included;
//! - [`Session`] / [`Prepared`] — prepared statements with `?` parameter
//!   binding over a shared, DDL-aware LRU plan cache: compile once, bind
//!   and execute many times (SQL and CO queries alike). Sessions are also
//!   the unit of transaction ownership: `begin`/`commit`/`rollback` with
//!   MVCC snapshot isolation, so concurrent sessions (one per thread over
//!   a shared `Arc<Database>`; `Database: Send + Sync`) hold independent
//!   transactions and writers conflict first-writer-wins instead of
//!   corrupting each other — see `docs/TRANSACTIONS.md`;
//! - [`Workspace`] / [`CoCache`] — the client-side XNF cache: heterogeneous
//!   CO streams swizzled into pointer-linked components with independent
//!   and dependent cursors, path expressions, updates + write-back, and
//!   disk persistence for long transactions;
//! - [`client_server`] — the workstation/server shipping simulation used by
//!   the evaluation (crossings, bytes, exposure; page vs object vs query
//!   shipping);
//! - [`matview`] — `CREATE MATERIALIZED VIEW` (SQL and XNF bodies) with
//!   incremental delta maintenance: DML produces per-table delta batches
//!   that are applied directly (selection/projection views), to group rows
//!   (single-table aggregates), as in-place node and connection edits (CO
//!   views with node keys), or by full recompute (`REFRESH MATERIALIZED
//!   VIEW` / everything else). Hot COs are
//!   served from stored streams by [`Session::fetch_co`] and
//!   [`Database::fetch_co_point`].
//!
//! A [`Session`] is the one way to run a statement: [`Session::execute`],
//! [`Session::query`], [`Session::execute_batch`], [`Session::fetch_co`]
//! and [`Session::write_back`] run in autocommit until [`Session::begin`].
//! [`run_sessions`] drives many sessions over one shared database, one
//! thread each.
//!
//! ```
//! use xnf_core::{Database, Value};
//!
//! let db = Database::new();
//! let session = db.session();
//! session
//!     .execute_batch(
//!         "CREATE TABLE DEPT (dno INT, dname VARCHAR(20), loc VARCHAR(10));
//!          CREATE TABLE EMP (eno INT, ename VARCHAR(20), edno INT);
//!          INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'apps', 'HDC');
//!          INSERT INTO EMP VALUES (10, 'mia', 1), (11, 'ben', 2)",
//!     )
//!     .unwrap();
//!
//! // Prepare once: the parameterized point query compiles to a plan held
//! // in the shared cache; each execute just binds and runs.
//! let mut by_eno = session.prepare("SELECT ename FROM EMP WHERE eno = ?").unwrap();
//! by_eno.bind(&[Value::Int(10)]).unwrap();
//! let r = by_eno.query().unwrap();
//! assert_eq!(r.try_table().unwrap().rows[0][0], Value::Str("mia".into()));
//! by_eno.bind(&[Value::Int(11)]).unwrap();
//! assert_eq!(
//!     by_eno.query().unwrap().try_table().unwrap().rows[0][0],
//!     Value::Str("ben".into()),
//! );
//!
//! // Composite-object queries prepare the same way — here parameterized
//! // over the department location in the TAKE restriction.
//! let mut co_q = session
//!     .prepare(
//!         "OUT OF xdept AS (SELECT * FROM DEPT),
//!                 xemp AS EMP,
//!                 employment AS (RELATE xdept VIA EMPLOYS, xemp
//!                                WHERE xdept.dno = xemp.edno)
//!          TAKE * WHERE xdept.loc = ?",
//!     )
//!     .unwrap();
//! co_q.bind(&[Value::Str("ARC".into())]).unwrap();
//! let co = co_q.fetch_co().unwrap();
//! let dept = co.workspace.independent("xdept").unwrap().next().unwrap();
//! let employees: Vec<String> = dept
//!     .children("employment")
//!     .unwrap()
//!     .map(|e| e.get_str("ename").unwrap().to_string())
//!     .collect();
//! assert_eq!(employees, vec!["mia"]);
//! ```

pub mod cache;
pub mod client_server;
pub mod co;
pub mod db;
pub mod error;
pub mod matview;
pub mod persist;
pub mod session;
pub mod writeback;

pub use cache::{
    Change, Component, DependentCursor, IndependentCursor, Relationship, TupleId, TupleRef,
    Workspace,
};
pub use client_server::{
    navigational_extract, simulate_shipping, FetchStrategy, NavLevel, Server, ShippingPolicy,
    ShippingReport, TransportCost, TransportStats,
};
pub use co::CoCache;
pub use db::{Database, DbConfig, ExecOutcome};
pub use error::{Result, XnfError};
pub use persist::{load_from_file, load_workspace, save_to_file, save_workspace};
pub use session::{run_sessions, PlanCacheStats, Prepared, Session, SessionStats};
pub use writeback::{derive_co_schema, BaseMap, CoSchema, CompMeta, RelMeta};

// Re-export the lower layers for power users and the bench harness.
pub use xnf_exec::{ExecStats, QueryResult, RowBatch, StreamResult, DEFAULT_BATCH_SIZE};
pub use xnf_plan::{PlanOptions, Qep};
pub use xnf_rewrite::{RewriteOptions, RewriteReport};
pub use xnf_storage::{
    DataType, DiskStats, FaultPlan, GcStats, RecoveryReport, StorageError, TableVacuumReport,
    TempDir, VacuumReport, Value, WalStats,
};

// Compile-time concurrency contract: one `Database` is shared across
// threads behind an `Arc`, and `Session`s move into worker threads. A
// future `Cell`/`Rc`/raw-pointer regression in either type must fail to
// *build*, not flake under load — these assertions are the tripwire.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Database>();
    assert_send::<Session<'static>>();
    assert_send::<Prepared<'static>>();
};

#[cfg(test)]
mod core_tests;
#[cfg(test)]
mod matview_tests;
#[cfg(test)]
mod session_tests;
