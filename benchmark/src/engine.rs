//! The benchmark's single point of contact with the engine: no other file
//! of this package names an engine crate.
//!
//! Statements run through `Session` / `Prepared` only. `Database` is used
//! to open an instance, hand out sessions, serve `fetch_co_point`,
//! checkpoint, vacuum and read the counter surfaces. The traced pass also
//! calls each layer's public entry point by hand (`parse_statement` →
//! `build_*_query` → `rewrite` → `plan_query` → `execute_qep_with_params` →
//! `Workspace::from_result`), with a span around each call.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use xnf_core::{Database, DbConfig};
use xnf_exec::execute_qep_with_params;
use xnf_plan::{plan_query, Qep};
use xnf_qgm::{build_select_query, build_xnf_query};
use xnf_rewrite::rewrite;
use xnf_sql::{parse_statement, Statement};
use xnf_storage::{Rid, Wal, WalRecord};

pub use xnf_core::{CoCache, Prepared, QueryResult, Session, Value, Workspace, XnfError};
pub use xnf_storage::PAGE_SIZE;

use crate::trace::Tracer;

pub type Result<T> = std::result::Result<T, XnfError>;

/// Every cumulative counter the engine exposes, flattened. Difference two
/// snapshots with [`Counters::since`] to get a window's activity.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub maint_roots: u64,
    pub maint_nodes_reused: u64,
    pub maint_us: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_batches: u64,
    pub wal_commits: u64,
    pub wal_checkpoints: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub disk_dw_batches: u64,
    pub disk_pages_verified: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub buf_evictions: u64,
    pub buf_dirty_writebacks: u64,
    pub gc_runs: u64,
    pub gc_versions_reclaimed: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            maint_roots: self.maint_roots - before.maint_roots,
            maint_nodes_reused: self.maint_nodes_reused - before.maint_nodes_reused,
            maint_us: self.maint_us - before.maint_us,
            wal_records: self.wal_records - before.wal_records,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_batches: self.wal_batches - before.wal_batches,
            wal_commits: self.wal_commits - before.wal_commits,
            wal_checkpoints: self.wal_checkpoints - before.wal_checkpoints,
            disk_reads: self.disk_reads - before.disk_reads,
            disk_writes: self.disk_writes - before.disk_writes,
            disk_dw_batches: self.disk_dw_batches - before.disk_dw_batches,
            disk_pages_verified: self.disk_pages_verified - before.disk_pages_verified,
            buf_hits: self.buf_hits - before.buf_hits,
            buf_misses: self.buf_misses - before.buf_misses,
            buf_evictions: self.buf_evictions - before.buf_evictions,
            buf_dirty_writebacks: self.buf_dirty_writebacks - before.buf_dirty_writebacks,
            gc_runs: self.gc_runs - before.gc_runs,
            gc_versions_reclaimed: self.gc_versions_reclaimed - before.gc_versions_reclaimed,
        }
    }
}

/// What restart recovery did when an instance was opened from disk.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recovery {
    pub records_scanned: u64,
    pub redo_applied: u64,
}

/// One database instance under `DbConfig::default()` (plus `data_dir` for
/// the durable workload): 1024 buffer pages, fsync on every commit,
/// double-write on, 4 MiB checkpoint interval, dop = host parallelism.
pub struct Engine {
    db: Database,
}

impl Engine {
    pub fn in_memory() -> Engine {
        Engine {
            db: Database::with_config(DbConfig::default()),
        }
    }

    /// Open (creating or recovering) the file-backed database in `dir`.
    pub fn durable(dir: &Path) -> Result<Engine> {
        Ok(Engine {
            db: Database::open(dir)?,
        })
    }

    pub fn session(&self) -> Session<'_> {
        self.db.session()
    }

    pub fn fetch_co_point(&self, view: &str, key: i64) -> Result<CoCache> {
        self.db.fetch_co_point(view, &Value::Int(key))
    }

    pub fn checkpoint(&self) -> Result<()> {
        self.db.checkpoint()
    }

    /// Vacuum every heap; returns the versions reclaimed.
    pub fn vacuum(&self) -> Result<u64> {
        Ok(self.db.vacuum(None)?.versions_reclaimed())
    }

    pub fn dop(&self) -> usize {
        self.db.config().plan.dop
    }

    pub fn buffer_pages(&self) -> usize {
        self.db.config().buffer_pages
    }

    pub fn recovery(&self) -> Option<Recovery> {
        self.db.recovery_report().map(|r| Recovery {
            records_scanned: r.records_scanned,
            redo_applied: r.redo_applied,
        })
    }

    pub fn counters(&self) -> Counters {
        let plan = self.db.plan_cache_stats();
        let maint = self.db.maint_stats();
        let wal = self.db.wal_stats().unwrap_or_default();
        let disk = self.db.integrity_stats();
        let buf = self.db.catalog().buffer_pool().stats();
        let gc = self.db.gc_stats();
        Counters {
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            maint_roots: maint.mv_roots_respliced,
            maint_nodes_reused: maint.mv_nodes_reused,
            maint_us: maint.mv_maint_us,
            wal_records: wal.records,
            wal_bytes: wal.bytes_logged,
            wal_fsyncs: wal.fsyncs,
            wal_batches: wal.group_commit_batches,
            wal_commits: wal.group_commit_commits,
            wal_checkpoints: wal.checkpoints,
            disk_reads: disk.reads,
            disk_writes: disk.writes,
            disk_dw_batches: disk.dw_batches,
            disk_pages_verified: disk.pages_verified,
            buf_hits: buf.hits,
            buf_misses: buf.misses,
            buf_evictions: buf.evictions,
            buf_dirty_writebacks: buf.dirty_writebacks,
            gc_runs: gc.vacuum_runs,
            gc_versions_reclaimed: gc.versions_reclaimed,
        }
    }

    /// Run the front end on `text` by hand, one span per layer. Statements
    /// that are not queries stop after the parse and return `None`.
    pub fn compile_by_hand(
        &self,
        text: &str,
        t: &mut Tracer,
        parent: Option<usize>,
        op: u64,
    ) -> Result<Option<HandPlan>> {
        let stmt = t.span("sql.parse", parent, op, || parse_statement(text))?;
        let catalog = self.db.catalog();
        let mut qgm = match &stmt {
            Statement::Select(s) => {
                t.span("qgm.build", parent, op, || build_select_query(catalog, s))?
            }
            Statement::Xnf(q) => t.span("qgm.build", parent, op, || build_xnf_query(catalog, q))?,
            _ => return Ok(None),
        };
        let config = self.db.config();
        let report = t.span("rewrite.rewrite", parent, op, || {
            rewrite(&mut qgm, config.rewrite)
        })?;
        let qep = t.span("plan.plan", parent, op, || {
            plan_query(catalog, &qgm, config.plan)
        })?;
        Ok(Some(HandPlan {
            qep,
            rules_fired: report.total(),
        }))
    }

    /// Execute a hand-compiled plan against the latest committed state.
    pub fn execute_by_hand(
        &self,
        plan: &HandPlan,
        params: &[Value],
        t: &mut Tracer,
        parent: Option<usize>,
        op: u64,
    ) -> Result<QueryResult> {
        let params = Arc::new(params.to_vec());
        Ok(t.span("exec.execute", parent, op, || {
            execute_qep_with_params(self.db.catalog(), &plan.qep, params)
        })?)
    }
}

/// A query compiled by [`Engine::compile_by_hand`].
pub struct HandPlan {
    qep: Qep,
    pub rules_fired: u64,
}

/// Swizzle a CO result into a navigable workspace (the client-cache layer).
pub fn swizzle(
    result: &QueryResult,
    t: &mut Tracer,
    parent: Option<usize>,
    op: u64,
) -> Result<Workspace> {
    t.span("core.cache.swizzle", parent, op, || {
        Workspace::from_result(result)
    })
}

pub fn is_conflict(e: &XnfError) -> bool {
    e.is_write_conflict()
}

/// Value-identity form of a composite object: the set of component rows
/// and the set of (parent row, child row) pairs per relationship, with
/// positional tuple ids cancelled out. Two extractions of the same CO are
/// equal here however their streams were ordered or shared.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CoCanon {
    pub rows: BTreeSet<(String, String)>,
    pub links: BTreeSet<(String, String, String)>,
}

impl CoCanon {
    pub fn absorb(&mut self, ws: &Workspace) {
        for c in &ws.components {
            let name = c.name.to_ascii_lowercase();
            for t in ws.independent(&c.name).expect("own component") {
                self.rows
                    .insert((name.clone(), format!("{:?}", t.values())));
            }
        }
        for r in &ws.relationships {
            let name = r.name.to_ascii_lowercase();
            for conn in r.connections() {
                self.links.insert((
                    name.clone(),
                    format!("{:?}", ws.components[r.parent].row(conn[0])),
                    format!("{:?}", ws.components[r.children[0]].row(conn[1])),
                ));
            }
        }
    }
}

/// A throw-away log file driven directly, to time the floor under a commit:
/// one buffered append, and one flush-and-fsync.
pub struct ScratchWal {
    wal: Wal,
    record: WalRecord,
}

impl ScratchWal {
    pub fn create(path: &Path, record_bytes: usize) -> Result<ScratchWal> {
        let (wal, _) = Wal::open(path, true)?;
        Ok(ScratchWal {
            wal,
            record: WalRecord::Install {
                table: 1,
                rid: Rid::new(1, 0),
                record: vec![0xA5; record_bytes],
            },
        })
    }

    pub fn append(&self) {
        self.wal.append(&self.record);
    }

    pub fn flush(&self) -> Result<()> {
        Ok(self.wal.flush_for_commit()?)
    }
}

/// Executor counters summed over the results of a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTotals {
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub batches_emitted: u64,
    pub rows_skipped_visibility: u64,
    pub parallel_regions: u64,
    pub morsels_dispatched: u64,
}

impl ExecTotals {
    pub fn add(&mut self, r: &QueryResult) {
        self.rows_scanned += r.stats.rows_scanned;
        self.rows_emitted += r.stats.rows_emitted;
        self.batches_emitted += r.stats.batches_emitted;
        self.rows_skipped_visibility += r.stats.rows_skipped_visibility;
        self.parallel_regions += r.stats.parallel_regions;
        self.morsels_dispatched += r.stats.morsels_dispatched;
    }

    pub fn merge(&mut self, o: &ExecTotals) {
        self.rows_scanned += o.rows_scanned;
        self.rows_emitted += o.rows_emitted;
        self.batches_emitted += o.batches_emitted;
        self.rows_skipped_visibility += o.rows_skipped_visibility;
        self.parallel_regions += o.parallel_regions;
        self.morsels_dispatched += o.morsels_dispatched;
    }
}
