//! # xnf-storage — the storage substrate (Starburst "CORE" analog)
//!
//! This crate provides the relational storage engine underneath the XNF
//! composite-object layer, reproducing the substrate that the paper's system
//! inherits from Starburst:
//!
//! - [`value`] / [`schema`] / [`mod@tuple`]: typed values, schemas, row codec;
//! - [`page`]: 8 KiB slotted pages carrying a `page_lsn`;
//! - [`disk`]: the page store — in-memory for experiments, file-backed for
//!   durable databases — with exact I/O accounting;
//! - [`buffer`]: a sharded buffer pool — LRU, except that pages a
//!   sequential scan brings in enter cold, and a miss refills its victim's
//!   frame in place — enforcing WAL-before-data at eviction;
//! - [`heap`]: RID-addressed heap files;
//! - [`index`]: B+-tree secondary indexes (composite keys held flat per
//!   node, point lookups that borrow their postings);
//! - [`catalog`]: tables with maintained indexes + view definitions,
//!   including materialized views' backing storage ([`MatView`]);
//! - [`delta`]: before/after row images captured by DML for incremental
//!   materialized-view maintenance, tagged per transaction;
//! - [`stats`]: ANALYZE-style statistics for the cost-based planner;
//! - [`txn`]: MVCC-lite transactions — txn ids, a global commit counter,
//!   snapshots (registered live for GC), first-writer-wins write conflicts
//!   and physical undo;
//! - [`vacuum`]: MVCC garbage collection — the live-snapshot low-watermark,
//!   dead-version reclamation, header freezing and commit-stamp pruning;
//! - [`wal`]: the write-ahead log — LSN-stamped physiological records,
//!   group commit, fuzzy checkpoints;
//! - [`recovery`]: ARIES-style restart — analysis, redo from the last
//!   checkpoint, undo of loser transactions;
//! - [`codec`] / [`tempdir`]: shared binary primitives for the durable
//!   formats, and self-cleaning directories for file-backed tests.
//!
//! The paper treats this layer as given ("transaction, recovery, and
//! storage management … totally unchanged", Sect. 6); the entry point is
//! [`Catalog`], which names tables, views and materialized-view backing
//! storage:
//!
//! ```
//! use std::sync::Arc;
//! use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema, Tuple, Value};
//!
//! let catalog = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16)));
//! let t = catalog
//!     .create_table("EMP", Schema::from_pairs(&[("eno", DataType::Int)]))
//!     .unwrap();
//! t.create_index("emp_pk", vec![0], true).unwrap();
//! let rid = t.insert(&Tuple::new(vec![Value::Int(7)])).unwrap();
//! assert_eq!(t.get(rid).unwrap(), Tuple::new(vec![Value::Int(7)]));
//! ```

pub mod buffer;
pub mod catalog;
pub mod codec;
pub mod delta;
pub mod disk;
pub mod error;
pub mod heap;
pub mod index;
pub mod morsel;
pub mod page;
pub mod recovery;
pub mod schema;
pub mod stats;
pub mod tempdir;
pub mod tuple;
pub mod txn;
pub mod vacuum;
pub mod value;
pub mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use catalog::{
    Catalog, GcClaim, IndexDef, MatView, MatViewStream, Table, TableId, ViewDef, ViewKind,
};
pub use delta::{DeltaBatch, DeltaRow};
pub use disk::{DiskManager, DiskStats, FaultPlan, PageId};
pub use error::{Result, StorageError};
pub use heap::{HeapFile, Postings, ScanOrder, VisiblePage};
pub use index::BTreeIndex;
pub use morsel::MorselDispenser;
pub use page::{stamp_trailer, trailer_matches, Page, PAGE_SIZE, PAGE_TRAILER};
pub use recovery::{recover, RecoveryReport};
pub use schema::{Column, Schema};
pub use stats::{ColumnStats, StatsBuilder, TableStats};
pub use tempdir::TempDir;
pub use tuple::{Gate, Rid, Tuple};
pub use txn::{Snapshot, Transaction, TxnId, TxnManager, TxnState, VersionHdr, FROZEN};
pub use vacuum::{GcStats, TableVacuumReport, VacuumReport, VersionCensus};
pub use value::{DataType, Value};
pub use wal::{CheckpointSnap, IndexSnap, TableSnap, TxnSnap, ViewSnap, Wal, WalRecord, WalStats};
