//! Vectorized operators: each interprets one QEP node, pulling *batches* of
//! rows from its inputs on demand (the paper's "table queue evaluation",
//! Sect. 3.1, with streams chunked into [`RowBatch`]es so per-tuple virtual
//! dispatch amortises over a whole chunk).

use std::collections::HashSet;
use std::sync::Arc;

use xnf_plan::{AggSpec, PhysExpr, PhysPlan, DEFAULT_BATCH_SIZE};
use xnf_sql::AggFunc;
use xnf_storage::{Catalog, IndexDef, Rid, ScanOrder, Table, Value};

use crate::batch::{BatchBuilder, RowBatch};
use crate::error::{ExecError, Result};
use crate::eval::{eval, filter_batch, passes, truthy, CompiledPreds, OuterCtx, Row};
use crate::hash::{FxHashMap, FxHashSet};

/// Execution statistics (per engine run).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scans (base, index and shared).
    pub rows_scanned: u64,
    /// Correlated subquery instantiations (the naive path's cost driver).
    pub subquery_invocations: u64,
    /// Rows emitted by all output streams.
    pub rows_emitted: u64,
    /// Batches delivered at pipeline sinks (output streams and shared
    /// table-queue materialisations).
    pub batches_emitted: u64,
    /// Largest single batch observed at a sink (pipeline granularity).
    pub peak_batch_rows: u64,
    /// Commit-stamp of the MVCC snapshot this run read against (0 = the
    /// initial, pre-first-commit state).
    pub snapshot_seq: u64,
    /// Tuple versions scans and index lookups skipped because the snapshot
    /// could not see them (uncommitted, superseded, or committed after the
    /// snapshot was taken).
    pub rows_skipped_visibility: u64,
    /// Dead tuple versions physically reclaimed by garbage collection
    /// during this run (non-zero only for `VACUUM` statements).
    pub gc_versions_reclaimed: u64,
    /// Version headers rewritten to the committed-forever sentinel by GC
    /// during this run (non-zero only for `VACUUM` statements).
    pub gc_versions_frozen: u64,
    /// Commit-stamp entries pruned behind the live-snapshot low-watermark
    /// during this run (non-zero only for `VACUUM` statements).
    pub gc_stamps_pruned: u64,
    /// Write-ahead-log bytes this run appended (zero for pure reads and on
    /// in-memory databases, which have no log).
    pub wal_bytes_logged: u64,
    /// Log fsyncs this run forced (group commit batches many commits into
    /// one, so this is usually far below the commit count).
    pub wal_fsyncs: u64,
    /// Parallel regions (gather / partial-aggregate roots) this run
    /// executed. Zero for fully serial plans (dop = 1).
    pub parallel_regions: u64,
    /// Worker pipelines spawned across all parallel regions of this run.
    pub parallel_workers: u64,
    /// Page morsels parallel scans claimed and processed (past-the-end
    /// probes excluded).
    pub morsels_dispatched: u64,
    /// Composite-object root keys re-extracted by materialized-view
    /// maintenance (one per root subtree spliced into a view's streams).
    pub mv_roots_respliced: u64,
    /// Stored view nodes maintenance kept because they were value-identical
    /// to (or in-place updatable into) the re-extracted result, instead of
    /// being deleted and re-derived.
    pub mv_nodes_reused: u64,
    /// Wall-clock microseconds spent in commit-time view maintenance
    /// (precompute + stamp-ordered apply).
    pub mv_maint_us: u64,
    /// Page reads whose torn-page trailer checksum was verified (file
    /// backend; zero on in-memory databases).
    pub pages_verified: u64,
    /// Torn in-place pages restored from the double-write buffer at open.
    pub torn_pages_repaired: u64,
    /// Double-write batches fsynced ahead of their in-place page writes.
    pub dw_batches: u64,
}

impl ExecStats {
    /// Record one sink-side batch.
    pub fn note_batch(&mut self, rows: usize) {
        self.batches_emitted += 1;
        self.peak_batch_rows = self.peak_batch_rows.max(rows as u64);
    }

    /// Fold a parallel worker's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.subquery_invocations += other.subquery_invocations;
        self.rows_emitted += other.rows_emitted;
        self.batches_emitted += other.batches_emitted;
        self.peak_batch_rows = self.peak_batch_rows.max(other.peak_batch_rows);
        self.snapshot_seq = self.snapshot_seq.max(other.snapshot_seq);
        self.rows_skipped_visibility += other.rows_skipped_visibility;
        self.gc_versions_reclaimed += other.gc_versions_reclaimed;
        self.gc_versions_frozen += other.gc_versions_frozen;
        self.gc_stamps_pruned += other.gc_stamps_pruned;
        self.wal_bytes_logged += other.wal_bytes_logged;
        self.wal_fsyncs += other.wal_fsyncs;
        self.parallel_regions += other.parallel_regions;
        self.parallel_workers += other.parallel_workers;
        self.morsels_dispatched += other.morsels_dispatched;
        self.mv_roots_respliced += other.mv_roots_respliced;
        self.mv_nodes_reused += other.mv_nodes_reused;
        self.mv_maint_us += other.mv_maint_us;
        self.pages_verified += other.pages_verified;
        self.torn_pages_repaired += other.torn_pages_repaired;
        self.dw_batches += other.dw_batches;
    }
}

/// Shared runtime state threaded through the operator tree.
pub struct Runtime<'a> {
    pub catalog: &'a Catalog,
    /// Materialised shared subplans (by [`xnf_plan::SharedId`]): each is a
    /// table queue stored as a batch sequence.
    pub shared: Vec<Arc<Vec<RowBatch>>>,
    /// Correlation bindings for `Outer` references.
    pub outer: OuterCtx,
    pub stats: ExecStats,
    /// Target rows per streamed batch (from the QEP; ≥ 1).
    pub batch_size: usize,
    /// The MVCC snapshot every scan and index lookup of this run filters
    /// against: the visibility handle from the evaluation context when the
    /// caller pinned one (reads inside an open transaction), otherwise a
    /// fresh latest-committed snapshot (autocommit statement reads).
    pub snapshot: xnf_storage::Snapshot,
}

impl<'a> Runtime<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_ctx(catalog, OuterCtx::new())
    }

    /// A runtime with prepared-statement parameter bindings available to
    /// every operator via the evaluation context.
    pub fn with_params(catalog: &'a Catalog, params: crate::eval::Params) -> Self {
        Self::with_ctx(catalog, OuterCtx::with_params(params))
    }

    /// A runtime over an explicit evaluation context (parameters +
    /// visibility handle).
    pub fn with_ctx(catalog: &'a Catalog, outer: OuterCtx) -> Self {
        let snapshot = outer
            .visibility()
            .clone()
            .unwrap_or_else(|| catalog.latest_snapshot());
        let stats = ExecStats {
            snapshot_seq: snapshot.seq,
            ..ExecStats::default()
        };
        Runtime {
            catalog,
            shared: Vec::new(),
            outer,
            stats,
            batch_size: DEFAULT_BATCH_SIZE,
            snapshot,
        }
    }
}

/// A demand-driven batch operator. `None` signals end-of-stream; produced
/// batches are never empty.
pub trait Operator {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>>;
}

/// Instantiate the operator tree for a plan.
pub fn build_operator(plan: &PhysPlan) -> Box<dyn Operator> {
    match plan {
        PhysPlan::Values { rows } => Box::new(ValuesOp {
            rows: rows.clone(),
            done: false,
        }),
        PhysPlan::SeqScan { table, filter } => Box::new(SeqScanOp {
            table: table.clone(),
            filter: filter.clone(),
            table_ref: None,
            page_idx: 0,
            pending: BatchBuilder::default(),
            done: false,
        }),
        // A matview scan is a seq scan of the view's backing table: the
        // catalog resolves the view name to its backing storage.
        PhysPlan::MatViewScan { view, filter } => Box::new(SeqScanOp {
            table: view.clone(),
            filter: filter.clone(),
            table_ref: None,
            page_idx: 0,
            pending: BatchBuilder::default(),
            done: false,
        }),
        PhysPlan::IndexEq {
            table,
            index,
            key,
            filter,
        } => Box::new(IndexEqOp {
            table: table.clone(),
            index: index.clone(),
            key: key.clone(),
            filter: filter.clone(),
            cursor: None,
        }),
        PhysPlan::IndexNlJoin {
            left,
            table,
            index,
            key,
            filter,
            residual,
        } => Box::new(IndexNlJoinOp {
            left: build_operator(left),
            table: table.clone(),
            index: index.clone(),
            key: key.clone(),
            filter: filter.clone(),
            residual: residual.clone(),
            probe: None,
            current: None,
        }),
        PhysPlan::IndexSemiJoin {
            table,
            index,
            filter,
            inner,
            inner_key,
        } => Box::new(IndexSemiJoinOp {
            table: table.clone(),
            index: index.clone(),
            filter: filter.clone(),
            inner: build_operator(inner),
            inner_key: inner_key.clone(),
            cursor: None,
        }),
        PhysPlan::SharedScan { id } => Box::new(SharedScanOp {
            id: *id,
            batch_idx: 0,
            row_offset: 0,
        }),
        PhysPlan::Filter { input, preds } => Box::new(FilterOp {
            input: build_operator(input),
            preds: preds.clone(),
        }),
        PhysPlan::Project { input, exprs } => Box::new(ProjectOp {
            input: build_operator(input),
            exprs: exprs.clone(),
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => Box::new(HashJoinOp {
            left: build_operator(left),
            right: build_operator(right),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            residual: residual.clone(),
            table: None,
            probe: None,
        }),
        PhysPlan::NlJoin { left, right, preds } => Box::new(NlJoinOp {
            left: build_operator(left),
            right: build_operator(right),
            preds: preds.clone(),
            right_buf: None,
            current: None,
        }),
        PhysPlan::HashSemiJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => Box::new(HashSemiJoinOp {
            outer: build_operator(outer),
            inner: build_operator(inner),
            outer_keys: outer_keys.clone(),
            inner_keys: inner_keys.clone(),
            residual: residual.clone(),
            table: None,
        }),
        PhysPlan::NlSemiJoin {
            outer,
            inner,
            preds,
        } => Box::new(NlSemiJoinOp {
            outer: build_operator(outer),
            inner: build_operator(inner),
            preds: preds.clone(),
            inner_buf: None,
        }),
        PhysPlan::SubqueryFilter {
            input,
            subplan,
            bindings,
            anti,
        } => Box::new(SubqueryFilterOp {
            input: build_operator(input),
            subplan: (**subplan).clone(),
            bindings: bindings.clone(),
            anti: *anti,
        }),
        PhysPlan::HashAggregate {
            input,
            group,
            aggs,
            having,
            output,
        } => Box::new(HashAggregateOp {
            input: build_operator(input),
            group: group.clone(),
            aggs: aggs.clone(),
            having: having.clone(),
            output: output.clone(),
            results: None,
            idx: 0,
        }),
        PhysPlan::HashDistinct { input } => Box::new(HashDistinctOp {
            input: build_operator(input),
            seen: FxHashSet::default(),
        }),
        PhysPlan::UnionAll { inputs } => Box::new(UnionAllOp {
            inputs: inputs.iter().map(|p| build_operator(p)).collect(),
            idx: 0,
        }),
        PhysPlan::Sort { input, specs } => Box::new(SortOp {
            input: build_operator(input),
            specs: specs.clone(),
            buf: None,
            idx: 0,
        }),
        PhysPlan::Limit { input, n } => Box::new(LimitOp {
            input: build_operator(input),
            n: *n,
            taken: 0,
        }),
        PhysPlan::ExchangeGather { input, dop } => Box::new(
            crate::parallel::ExchangeGatherOp::new((**input).clone(), *dop),
        ),
        PhysPlan::ParallelHashAggregate {
            input,
            group,
            aggs,
            having,
            output,
            dop,
        } => Box::new(crate::parallel::ParallelHashAggregateOp::new(
            (**input).clone(),
            group.clone(),
            aggs.clone(),
            having.clone(),
            output.clone(),
            *dop,
        )),
        // Worker-pipeline-only nodes: these execute inside a parallel
        // region (see `crate::parallel`); reaching one here means the
        // planner emitted a region body without its root.
        PhysPlan::ParallelSeqScan { .. }
        | PhysPlan::ExchangeHashPartition { .. }
        | PhysPlan::ParallelHashJoin { .. } => Box::new(InvalidPlanOp {
            msg: "parallel worker operator outside a parallel region",
        }),
    }
}

/// Placeholder for plan nodes that are only valid inside a parallel
/// region: errors on first pull instead of panicking at build time.
struct InvalidPlanOp {
    msg: &'static str,
}

impl Operator for InvalidPlanOp {
    fn next_batch(&mut self, _rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        Err(ExecError::Type(self.msg.to_string()))
    }
}

/// Drain an operator into a flat row vector.
pub fn drain(op: &mut dyn Operator, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(rt)? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------

struct ValuesOp {
    rows: Vec<Vec<PhysExpr>>,
    done: bool,
}

impl Operator for ValuesOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.done || self.rows.is_empty() {
            return Ok(None);
        }
        self.done = true;
        let mut batch = RowBatch::with_capacity(
            self.rows.first().map(|r| r.len()).unwrap_or(0),
            self.rows.len(),
        );
        for exprs in &self.rows {
            let mut row = Vec::with_capacity(exprs.len());
            for e in exprs {
                row.push(eval(e, &[], &rt.outer, &[])?);
            }
            batch.push(row);
        }
        Ok(Some(batch))
    }
}

struct SeqScanOp {
    table: String,
    filter: Vec<PhysExpr>,
    table_ref: Option<Arc<Table>>,
    /// Next heap page to pull (scans stream page-at-a-time; the whole table
    /// is never buffered in the operator).
    page_idx: usize,
    pending: BatchBuilder,
    done: bool,
}

impl Operator for SeqScanOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        if self.table_ref.is_none() {
            self.table_ref = Some(rt.catalog.table(&self.table)?);
            self.pending = BatchBuilder::new(0, rt.batch_size);
        }
        let t = self.table_ref.as_ref().unwrap().clone();
        // Classify the residual filter once per emitted batch; each decoded
        // tuple is then tested inline while pages stream through.
        let compiled = CompiledPreds::compile(&self.filter);
        loop {
            if let Some(full) = self.pending.take_full() {
                return Ok(Some(full));
            }
            match t.scan_page_snapshot(self.page_idx, &rt.snapshot)? {
                None => {
                    self.done = true;
                    return Ok(self.pending.take_rest());
                }
                Some((page, skipped)) => {
                    self.page_idx += 1;
                    rt.stats.rows_scanned += page.len() as u64;
                    rt.stats.rows_skipped_visibility += skipped;
                    for (_, tuple) in page {
                        if compiled.is_empty() || compiled.matches(&tuple.values, &rt.outer)? {
                            self.pending.push(tuple.values);
                        }
                    }
                }
            }
        }
    }
}

/// The one index-probe path, shared by [`IndexEqOp`], [`IndexNlJoinOp`]
/// and [`IndexSemiJoinOp`]: an index of a table, opened once per operator,
/// plus the order a scan of the table visits its rows.
struct IndexProbe {
    table: Arc<Table>,
    def: IndexDef,
    order: ScanOrder,
}

impl IndexProbe {
    fn open(rt: &Runtime<'_>, table: &str, index: &str) -> Result<IndexProbe> {
        let table = rt.catalog.table(table)?;
        let def = table
            .index_def(index)
            .ok_or_else(|| ExecError::Type(format!("unknown index '{index}'")))?;
        let order = table.scan_order();
        Ok(IndexProbe { table, def, order })
    }

    /// The postings of `keys`, sorted into heap scan order. A key holding
    /// a NULL matches nothing (SQL equality) and is not probed.
    fn cursor(&self, mut keys: Vec<Vec<Value>>) -> Result<ProbeCursor> {
        keys.retain(|k| !k.iter().any(Value::is_null));
        let mut postings = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let rids = self.table.index_lookup(&self.def.name, key)?;
            postings.extend(rids.into_iter().map(|rid| (rid, i)));
        }
        // Stable, so a RID posted under several keys (a stale posting
        // beside the live one) keeps its entries together, in key order.
        postings.sort_by_key(|&(rid, _)| self.order.key(rid));
        Ok(ProbeCursor {
            keys,
            postings,
            pos: 0,
            last_hit: None,
        })
    }
}

/// One probe's postings, resolved in heap scan order on demand.
struct ProbeCursor {
    keys: Vec<Vec<Value>>,
    /// `(rid, index into keys)`.
    postings: Vec<(Rid, usize)>,
    pos: usize,
    /// The last RID that resolved to a row: a RID found under several keys
    /// is emitted once.
    last_hit: Option<Rid>,
}

impl ProbeCursor {
    /// Resolve postings under the run's snapshot until `out` holds `limit`
    /// rows or the postings run out. Postings cover every tuple version
    /// (and may dangle after a concurrent rollback reclaims one); only
    /// versions that are visible to the snapshot and still carry the
    /// probed key count as scanned rows, the rest as skipped.
    fn fill(
        &mut self,
        probe: &IndexProbe,
        rt: &mut Runtime<'_>,
        filter: &CompiledPreds<'_>,
        limit: usize,
        out: &mut Vec<Row>,
    ) -> Result<()> {
        while out.len() < limit && self.pos < self.postings.len() {
            let (rid, k) = self.postings[self.pos];
            self.pos += 1;
            if self.last_hit == Some(rid) {
                continue;
            }
            let Some(tuple) =
                probe
                    .table
                    .resolve_posting(rid, &rt.snapshot, &probe.def, &self.keys[k])?
            else {
                rt.stats.rows_skipped_visibility += 1;
                continue;
            };
            self.last_hit = Some(rid);
            rt.stats.rows_scanned += 1;
            if filter.is_empty() || filter.matches(&tuple.values, &rt.outer)? {
                out.push(tuple.values);
            }
        }
        Ok(())
    }

    /// The next batch of resolved rows, `None` once the postings run out.
    fn next_batch(
        &mut self,
        probe: &IndexProbe,
        rt: &mut Runtime<'_>,
        filter: &[PhysExpr],
    ) -> Result<Option<RowBatch>> {
        let mut rows = Vec::new();
        let limit = rt.batch_size;
        self.fill(probe, rt, &CompiledPreds::compile(filter), limit, &mut rows)?;
        Ok((!rows.is_empty()).then(|| RowBatch::from_rows(rows)))
    }
}

struct IndexEqOp {
    table: String,
    index: String,
    key: Vec<PhysExpr>,
    filter: Vec<PhysExpr>,
    cursor: Option<(IndexProbe, ProbeCursor)>,
}

impl Operator for IndexEqOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.cursor.is_none() {
            let mut key = Vec::with_capacity(self.key.len());
            for e in &self.key {
                key.push(eval(e, &[], &rt.outer, &[])?);
            }
            let probe = IndexProbe::open(rt, &self.table, &self.index)?;
            let cursor = probe.cursor(vec![key])?;
            self.cursor = Some((probe, cursor));
        }
        let (probe, cursor) = self.cursor.as_mut().expect("probed above");
        cursor.next_batch(probe, rt, &self.filter)
    }
}

struct IndexNlJoinOp {
    left: Box<dyn Operator>,
    table: String,
    index: String,
    key: PhysExpr,
    filter: Vec<PhysExpr>,
    residual: Vec<PhysExpr>,
    probe: Option<IndexProbe>,
    /// Left batch still being expanded (and the next row to probe in it),
    /// as in [`HashJoinOp`].
    current: Option<(RowBatch, usize)>,
}

impl Operator for IndexNlJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.probe.is_none() {
            self.probe = Some(IndexProbe::open(rt, &self.table, &self.index)?);
        }
        let probe = self.probe.as_ref().expect("opened above");
        let filter = CompiledPreds::compile(&self.filter);
        let mut matches = Vec::new();
        let mut out = RowBatch::with_capacity(0, rt.batch_size);
        loop {
            if self.current.is_none() {
                match self.left.next_batch(rt)? {
                    None => break,
                    Some(lbatch) => self.current = Some((lbatch, 0)),
                }
            }
            let (lbatch, idx) = self.current.as_mut().expect("pulled above");
            while *idx < lbatch.len() && out.len() < rt.batch_size {
                let lrow = &lbatch[*idx];
                *idx += 1;
                let key = eval(&self.key, lrow, &rt.outer, &[])?;
                let mut cursor = probe.cursor(vec![vec![key]])?;
                cursor.fill(probe, rt, &filter, usize::MAX, &mut matches)?;
                for rrow in matches.drain(..) {
                    let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
                    combined.extend(lrow.iter().cloned());
                    combined.extend(rrow);
                    out.push(combined);
                }
            }
            if *idx >= lbatch.len() {
                self.current = None;
            }
            if out.len() >= rt.batch_size {
                filter_batch(&self.residual, &mut out, &rt.outer)?;
                if !out.is_empty() {
                    return Ok(Some(out));
                }
            }
        }
        filter_batch(&self.residual, &mut out, &rt.outer)?;
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

struct IndexSemiJoinOp {
    table: String,
    index: String,
    filter: Vec<PhysExpr>,
    inner: Box<dyn Operator>,
    inner_key: PhysExpr,
    cursor: Option<(IndexProbe, ProbeCursor)>,
}

impl Operator for IndexSemiJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.cursor.is_none() {
            // Drain the inner side into its distinct keys, then probe once
            // per key.
            let mut seen = FxHashSet::default();
            let mut keys = Vec::new();
            while let Some(batch) = self.inner.next_batch(rt)? {
                for row in batch.iter() {
                    let key = eval(&self.inner_key, row, &rt.outer, &[])?;
                    if seen.insert(key.clone()) {
                        keys.push(vec![key]);
                    }
                }
            }
            let probe = IndexProbe::open(rt, &self.table, &self.index)?;
            let cursor = probe.cursor(keys)?;
            self.cursor = Some((probe, cursor));
        }
        let (probe, cursor) = self.cursor.as_mut().expect("probed above");
        cursor.next_batch(probe, rt, &self.filter)
    }
}

struct SharedScanOp {
    id: usize,
    batch_idx: usize,
    /// Running rowid of the first tuple of the next batch.
    row_offset: usize,
}

impl Operator for SharedScanOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        let shared = Arc::clone(
            rt.shared
                .get(self.id)
                .ok_or_else(|| ExecError::Type(format!("shared result cse{} missing", self.id)))?,
        );
        let Some(src) = shared.get(self.batch_idx) else {
            return Ok(None);
        };
        self.batch_idx += 1;
        rt.stats.rows_scanned += src.len() as u64;
        // Emit [rowid, cols...] — the system-generated identifier CO
        // connection streams project (Sect. 5.0).
        let mut out = RowBatch::with_capacity(src.columns() + 1, src.len());
        for (i, row) in src.iter().enumerate() {
            let mut with_id = Vec::with_capacity(row.len() + 1);
            with_id.push(Value::Int((self.row_offset + i) as i64));
            with_id.extend(row.iter().cloned());
            out.push(with_id);
        }
        self.row_offset += src.len();
        Ok(Some(out))
    }
}

pub(crate) struct FilterOp {
    pub(crate) input: Box<dyn Operator>,
    pub(crate) preds: Vec<PhysExpr>,
}

impl Operator for FilterOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        while let Some(mut batch) = self.input.next_batch(rt)? {
            filter_batch(&self.preds, &mut batch, &rt.outer)?;
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

pub(crate) struct ProjectOp {
    pub(crate) input: Box<dyn Operator>,
    pub(crate) exprs: Vec<PhysExpr>,
}

impl Operator for ProjectOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        match self.input.next_batch(rt)? {
            None => Ok(None),
            Some(batch) => Ok(Some(crate::eval::project_batch(
                &self.exprs,
                &batch,
                &rt.outer,
            )?)),
        }
    }
}

/// Join keys with SQL semantics: any NULL key never matches.
pub(crate) fn key_of(
    exprs: &[PhysExpr],
    row: &[Value],
    outer: &OuterCtx,
) -> Result<Option<Vec<Value>>> {
    let mut key = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = eval(e, row, outer, &[])?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// [`key_of`] into a reusable buffer (probe sides evaluate one key per
/// input row; reusing the scratch vector avoids a heap allocation per
/// probe). Returns `false` when any key value is NULL (no match).
pub(crate) fn key_into(
    exprs: &[PhysExpr],
    row: &[Value],
    outer: &OuterCtx,
    buf: &mut Vec<Value>,
) -> Result<bool> {
    buf.clear();
    for e in exprs {
        let v = eval(e, row, outer, &[])?;
        if v.is_null() {
            return Ok(false);
        }
        buf.push(v);
    }
    Ok(true)
}

/// The build side shared by [`HashJoinOp`] and [`HashSemiJoinOp`]: a hash
/// table from join-key values to the build rows (or to key presence only,
/// when the consumer needs no row payload).
struct JoinTable {
    map: FxHashMap<Vec<Value>, Vec<Row>>,
}

impl JoinTable {
    /// Drain `input` batch-at-a-time and index its rows by `keys`. With
    /// `keep_rows == false` only key presence is recorded (residual-free
    /// semijoins never look at the matched rows).
    fn build(
        input: &mut dyn Operator,
        rt: &mut Runtime<'_>,
        keys: &[PhysExpr],
        keep_rows: bool,
    ) -> Result<JoinTable> {
        let mut map: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
        while let Some(batch) = input.next_batch(rt)? {
            for row in batch {
                if let Some(key) = key_of(keys, &row, &rt.outer)? {
                    let bucket = map.entry(key).or_default();
                    if keep_rows {
                        bucket.push(row);
                    }
                }
            }
        }
        Ok(JoinTable { map })
    }

    fn get(&self, key: &[Value]) -> Option<&[Row]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    fn contains(&self, key: &[Value]) -> bool {
        self.map.contains_key(key)
    }
}

struct HashJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_keys: Vec<PhysExpr>,
    right_keys: Vec<PhysExpr>,
    residual: Vec<PhysExpr>,
    /// Build side (right input), keyed.
    table: Option<JoinTable>,
    /// Probe batch still being expanded (and the next row to probe in it),
    /// so high-fanout joins flush output near `batch_size` instead of
    /// materialising one input batch's full match set.
    probe: Option<(RowBatch, usize)>,
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.table.is_none() {
            self.table = Some(JoinTable::build(
                self.right.as_mut(),
                rt,
                &self.right_keys,
                true,
            )?);
        }
        let mut key = Vec::with_capacity(self.left_keys.len());
        let mut out = RowBatch::with_capacity(0, rt.batch_size);
        loop {
            if self.probe.is_none() {
                match self.left.next_batch(rt)? {
                    None => break,
                    Some(lbatch) => self.probe = Some((lbatch, 0)),
                }
            }
            let (lbatch, idx) = self.probe.as_mut().unwrap();
            let table = self.table.as_ref().unwrap();
            while *idx < lbatch.len() && out.len() < rt.batch_size {
                let lrow = &lbatch[*idx];
                *idx += 1;
                if !key_into(&self.left_keys, lrow, &rt.outer, &mut key)? {
                    continue;
                }
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for rrow in matches {
                    let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
                    combined.extend(lrow.iter().cloned());
                    combined.extend(rrow.iter().cloned());
                    out.push(combined);
                }
            }
            if *idx >= lbatch.len() {
                self.probe = None;
            }
            if out.len() >= rt.batch_size {
                filter_batch(&self.residual, &mut out, &rt.outer)?;
                if !out.is_empty() {
                    return Ok(Some(out));
                }
            }
        }
        filter_batch(&self.residual, &mut out, &rt.outer)?;
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

struct NlJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    preds: Vec<PhysExpr>,
    right_buf: Option<Vec<Row>>,
    /// Left rows still to be expanded against the buffered right side.
    current: Option<(RowBatch, usize)>,
}

impl Operator for NlJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.right_buf.is_none() {
            self.right_buf = Some(drain(self.right.as_mut(), rt)?);
        }
        loop {
            // Expand one left row at a time to bound the combined batch at
            // the right side's cardinality.
            if let Some((lbatch, idx)) = &mut self.current {
                while *idx < lbatch.len() {
                    let lrow = &lbatch[*idx];
                    *idx += 1;
                    let right = self.right_buf.as_ref().unwrap();
                    let mut out = RowBatch::with_capacity(0, right.len().min(rt.batch_size));
                    for rrow in right {
                        let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
                        combined.extend(lrow.iter().cloned());
                        combined.extend(rrow.iter().cloned());
                        out.push(combined);
                    }
                    filter_batch(&self.preds, &mut out, &rt.outer)?;
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                self.current = None;
            }
            match self.left.next_batch(rt)? {
                None => return Ok(None),
                Some(lbatch) => self.current = Some((lbatch, 0)),
            }
        }
    }
}

struct HashSemiJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    outer_keys: Vec<PhysExpr>,
    inner_keys: Vec<PhysExpr>,
    residual: Vec<PhysExpr>,
    table: Option<JoinTable>,
}

impl Operator for HashSemiJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.table.is_none() {
            // Residual-free semijoins only need key presence.
            let keep_rows = !self.residual.is_empty();
            self.table = Some(JoinTable::build(
                self.inner.as_mut(),
                rt,
                &self.inner_keys,
                keep_rows,
            )?);
        }
        let mut key = Vec::with_capacity(self.outer_keys.len());
        while let Some(mut obatch) = self.outer.next_batch(rt)? {
            let table = self.table.as_ref().unwrap();
            let mut keep = Vec::with_capacity(obatch.len());
            for orow in obatch.iter() {
                let matched = match key_into(&self.outer_keys, orow, &rt.outer, &mut key)? {
                    false => false,
                    true if self.residual.is_empty() => table.contains(&key),
                    true => {
                        let mut hit = false;
                        for irow in table.get(&key).unwrap_or(&[]) {
                            let mut combined = Vec::with_capacity(orow.len() + irow.len());
                            combined.extend(orow.iter().cloned());
                            combined.extend(irow.iter().cloned());
                            if passes(&self.residual, &combined, &rt.outer)? {
                                hit = true;
                                break;
                            }
                        }
                        hit
                    }
                };
                keep.push(matched);
            }
            obatch.retain_indices(&keep);
            if !obatch.is_empty() {
                return Ok(Some(obatch));
            }
        }
        Ok(None)
    }
}

struct NlSemiJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    preds: Vec<PhysExpr>,
    inner_buf: Option<Vec<Row>>,
}

impl Operator for NlSemiJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.inner_buf.is_none() {
            self.inner_buf = Some(drain(self.inner.as_mut(), rt)?);
        }
        while let Some(mut obatch) = self.outer.next_batch(rt)? {
            let inner = self.inner_buf.as_ref().unwrap();
            let mut keep = Vec::with_capacity(obatch.len());
            for orow in obatch.iter() {
                let mut matched = false;
                for irow in inner {
                    let mut combined = Vec::with_capacity(orow.len() + irow.len());
                    combined.extend(orow.iter().cloned());
                    combined.extend(irow.iter().cloned());
                    if passes(&self.preds, &combined, &rt.outer)? {
                        matched = true;
                        break;
                    }
                }
                keep.push(matched);
            }
            obatch.retain_indices(&keep);
            if !obatch.is_empty() {
                return Ok(Some(obatch));
            }
        }
        Ok(None)
    }
}

struct SubqueryFilterOp {
    input: Box<dyn Operator>,
    subplan: PhysPlan,
    bindings: Vec<(usize, usize, usize)>,
    anti: bool,
}

impl Operator for SubqueryFilterOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        while let Some(mut batch) = self.input.next_batch(rt)? {
            let mut keep = Vec::with_capacity(batch.len());
            for row in batch.iter() {
                // Bind the outer quantifiers, remembering shadowed entries.
                let mut saved: Vec<(usize, Option<Row>)> = Vec::with_capacity(self.bindings.len());
                for (qun, offset, width) in &self.bindings {
                    let slice = row[*offset..*offset + *width].to_vec();
                    saved.push((*qun, rt.outer.insert(*qun, slice)));
                }
                rt.stats.subquery_invocations += 1;
                let mut sub = build_operator(&self.subplan);
                let has_row = sub.next_batch(rt)?.is_some();
                // Restore bindings.
                for (qun, old) in saved {
                    match old {
                        Some(v) => {
                            rt.outer.insert(qun, v);
                        }
                        None => {
                            rt.outer.remove(&qun);
                        }
                    }
                }
                keep.push(has_row != self.anti);
            }
            batch.retain_indices(&keep);
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Aggregate accumulator.
pub(crate) enum Acc {
    Count(i64),
    Sum {
        ints: i64,
        doubles: f64,
        any_double: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub(crate) fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                ints: 0,
                doubles: 0.0,
                any_double: false,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) passes None-as-row-marker via Some(non-null);
                // COUNT(expr) skips NULLs (handled by caller passing None).
                if v.is_some() {
                    *n += 1;
                }
            }
            Acc::Sum {
                ints,
                doubles,
                any_double,
                seen,
            } => {
                if let Some(v) = v {
                    *seen = true;
                    match v {
                        Value::Int(i) => *ints += *i,
                        Value::Double(d) => {
                            *doubles += *d;
                            *any_double = true;
                        }
                        other => {
                            return Err(ExecError::Type(format!("SUM of {}", other.type_name())))
                        }
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(v) = v {
                    *sum += v.as_double().map_err(ExecError::from)?;
                    *n += 1;
                }
            }
            Acc::Min(m) => {
                if let Some(v) = v {
                    if m.as_ref().map(|cur| v < cur).unwrap_or(true) {
                        *m = Some(v.clone());
                    }
                }
            }
            Acc::Max(m) => {
                if let Some(v) = v {
                    if m.as_ref().map(|cur| v > cur).unwrap_or(true) {
                        *m = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold another partial accumulator of the same kind into this one
    /// (parallel partial→final aggregation). COUNT/MIN/MAX and integer SUM
    /// merge exactly; SUM/AVG over doubles inherit floating-point
    /// non-associativity (documented in docs/EXPLAIN.md).
    pub(crate) fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += *b,
            (
                Acc::Sum {
                    ints,
                    doubles,
                    any_double,
                    seen,
                },
                Acc::Sum {
                    ints: i2,
                    doubles: d2,
                    any_double: a2,
                    seen: s2,
                },
            ) => {
                *ints += *i2;
                *doubles += *d2;
                *any_double |= *a2;
                *seen |= *s2;
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += *s2;
                *n += *n2;
            }
            (Acc::Min(m), Acc::Min(o)) => {
                if let Some(v) = o {
                    if m.as_ref().map(|cur| v < cur).unwrap_or(true) {
                        *m = Some(v.clone());
                    }
                }
            }
            (Acc::Max(m), Acc::Max(o)) => {
                if let Some(v) = o {
                    if m.as_ref().map(|cur| v > cur).unwrap_or(true) {
                        *m = Some(v.clone());
                    }
                }
            }
            _ => debug_assert!(false, "merging mismatched accumulators"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::Sum {
                ints,
                doubles,
                any_double,
                seen,
            } => {
                if !*seen {
                    Value::Null
                } else if *any_double {
                    Value::Double(*doubles + *ints as f64)
                } else {
                    Value::Int(*ints)
                }
            }
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Double(*sum / *n as f64)
                }
            }
            Acc::Min(m) | Acc::Max(m) => m.clone().unwrap_or(Value::Null),
        }
    }
}

pub(crate) struct GroupState {
    pub(crate) accs: Vec<Acc>,
    pub(crate) distinct_seen: Vec<Option<HashSet<Value>>>,
}

/// Fold one input row into a group's accumulators.
pub(crate) fn update_state(
    state: &mut GroupState,
    aggs: &[AggSpec],
    row: &[Value],
    outer: &OuterCtx,
) -> Result<()> {
    for (i, spec) in aggs.iter().enumerate() {
        let arg_val = match &spec.arg {
            None => Some(Value::Bool(true)), // COUNT(*): every row
            Some(e) => {
                let v = eval(e, row, outer, &[])?;
                if v.is_null() {
                    None
                } else {
                    Some(v)
                }
            }
        };
        let Some(v) = arg_val else { continue };
        if let Some(seen) = &mut state.distinct_seen[i] {
            if !seen.insert(v.clone()) {
                continue;
            }
        }
        state.accs[i].update(Some(&v))?;
    }
    Ok(())
}

/// Fresh accumulator state for one group.
pub(crate) fn fresh_state(aggs: &[AggSpec]) -> GroupState {
    GroupState {
        accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
        distinct_seen: aggs
            .iter()
            .map(|a| {
                if a.distinct {
                    Some(HashSet::new())
                } else {
                    None
                }
            })
            .collect(),
    }
}

/// Streaming group-by accumulator, shared by the serial
/// [`HashAggregateOp`] and the parallel partial-aggregation workers
/// (each worker folds its morsels into one of these; the coordinator
/// merges the partials with [`merge_group_state`]).
pub(crate) struct GroupAcc<'p> {
    group: &'p [PhysExpr],
    aggs: &'p [AggSpec],
    groups: FxHashMap<Vec<Value>, GroupState>,
    /// Grand-total fast path (no GROUP BY): one accumulator state, no
    /// per-row key construction or hashing.
    grand: Option<GroupState>,
    /// When every aggregate is a plain COUNT(*), whole batches fold in as
    /// a single length addition — the fully vectorized case.
    all_plain_counts: bool,
    saw_input: bool,
}

impl<'p> GroupAcc<'p> {
    pub(crate) fn new(group: &'p [PhysExpr], aggs: &'p [AggSpec]) -> GroupAcc<'p> {
        GroupAcc {
            group,
            aggs,
            groups: FxHashMap::default(),
            grand: if group.is_empty() {
                Some(fresh_state(aggs))
            } else {
                None
            },
            all_plain_counts: group.is_empty()
                && aggs
                    .iter()
                    .all(|a| matches!(a.func, AggFunc::Count) && a.arg.is_none() && !a.distinct),
            saw_input: false,
        }
    }

    /// Fold one input batch into the per-group states.
    pub(crate) fn fold(&mut self, batch: &RowBatch, outer: &OuterCtx) -> Result<()> {
        self.saw_input = true;
        if let Some(state) = self.grand.as_mut() {
            if self.all_plain_counts {
                for acc in &mut state.accs {
                    if let Acc::Count(n) = acc {
                        *n += batch.len() as i64;
                    }
                }
            } else {
                for row in batch.iter() {
                    update_state(state, self.aggs, row, outer)?;
                }
            }
        } else {
            for row in batch.iter() {
                let mut key = Vec::with_capacity(self.group.len());
                for g in self.group {
                    key.push(eval(g, row, outer, &[])?);
                }
                let state = match self.groups.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(fresh_state(self.aggs))
                    }
                };
                update_state(state, self.aggs, row, outer)?;
            }
        }
        Ok(())
    }

    /// The accumulated per-group states plus whether any input arrived.
    pub(crate) fn finish(self) -> (FxHashMap<Vec<Value>, GroupState>, bool) {
        let mut groups = self.groups;
        if let Some(state) = self.grand {
            if self.saw_input {
                groups.insert(Vec::new(), state);
            }
        }
        (groups, self.saw_input)
    }
}

/// Merge a worker's partial group state into the final one. DISTINCT
/// aggregates union the seen-value sets and rebuild the accumulator from
/// the union — folding the two partial accumulators directly would
/// double-count values both workers saw.
pub(crate) fn merge_group_state(
    into: &mut GroupState,
    mut from: GroupState,
    aggs: &[AggSpec],
) -> Result<()> {
    for (i, spec) in aggs.iter().enumerate() {
        if spec.distinct {
            let mut merged = into.distinct_seen[i].take().unwrap_or_default();
            if let Some(theirs) = from.distinct_seen[i].take() {
                merged.extend(theirs);
            }
            let mut acc = Acc::new(spec.func);
            for v in &merged {
                acc.update(Some(v))?;
            }
            into.accs[i] = acc;
            into.distinct_seen[i] = Some(merged);
        } else {
            into.accs[i].merge(&from.accs[i]);
        }
    }
    Ok(())
}

/// Final aggregation step shared by the serial and parallel paths: the
/// empty-input grand-total row (COUNT = 0, SUM = NULL, ...), HAVING over
/// [group values] with agg slots, the output expressions, and the
/// deterministic result sort.
pub(crate) fn finalize_groups(
    mut groups: FxHashMap<Vec<Value>, GroupState>,
    saw_input: bool,
    group_is_empty: bool,
    aggs: &[AggSpec],
    having: &[PhysExpr],
    output: &[PhysExpr],
    outer: &OuterCtx,
) -> Result<Vec<Row>> {
    if groups.is_empty() && group_is_empty && !saw_input {
        groups.insert(Vec::new(), fresh_state(aggs));
    }
    let mut rows = Vec::with_capacity(groups.len());
    for (key, state) in groups {
        let agg_vals: Vec<Value> = state.accs.iter().map(|a| a.finish()).collect();
        let mut ok = true;
        for h in having {
            if !truthy(&eval(h, &key, outer, &agg_vals)?) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let mut out = Vec::with_capacity(output.len());
        for e in output {
            out.push(eval(e, &key, outer, &agg_vals)?);
        }
        rows.push(out);
    }
    // Deterministic order for tests: sort rows by value.
    rows.sort();
    Ok(rows)
}

struct HashAggregateOp {
    input: Box<dyn Operator>,
    group: Vec<PhysExpr>,
    aggs: Vec<AggSpec>,
    having: Vec<PhysExpr>,
    output: Vec<PhysExpr>,
    results: Option<Vec<Row>>,
    idx: usize,
}

impl HashAggregateOp {
    /// Consume the whole input (batch-at-a-time) and compute the grouped
    /// aggregate rows.
    fn materialize(&mut self, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
        let mut acc = GroupAcc::new(&self.group, &self.aggs);
        while let Some(batch) = self.input.next_batch(rt)? {
            acc.fold(&batch, &rt.outer)?;
        }
        let (groups, saw_input) = acc.finish();
        finalize_groups(
            groups,
            saw_input,
            self.group.is_empty(),
            &self.aggs,
            &self.having,
            &self.output,
            &rt.outer,
        )
    }
}

impl Operator for HashAggregateOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.results.is_none() {
            let rows = self.materialize(rt)?;
            self.results = Some(rows);
        }
        let rows = self.results.as_ref().unwrap();
        if self.idx >= rows.len() {
            return Ok(None);
        }
        let end = (self.idx + rt.batch_size).min(rows.len());
        let batch = RowBatch::from_rows(rows[self.idx..end].to_vec());
        self.idx = end;
        Ok(Some(batch))
    }
}

struct HashDistinctOp {
    input: Box<dyn Operator>,
    seen: FxHashSet<Vec<Value>>,
}

impl Operator for HashDistinctOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        while let Some(mut batch) = self.input.next_batch(rt)? {
            let mut keep = Vec::with_capacity(batch.len());
            for row in batch.iter() {
                keep.push(self.seen.insert(row.clone()));
            }
            batch.retain_indices(&keep);
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

struct UnionAllOp {
    inputs: Vec<Box<dyn Operator>>,
    idx: usize,
}

impl Operator for UnionAllOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        while self.idx < self.inputs.len() {
            if let Some(batch) = self.inputs[self.idx].next_batch(rt)? {
                return Ok(Some(batch));
            }
            self.idx += 1;
        }
        Ok(None)
    }
}

struct SortOp {
    input: Box<dyn Operator>,
    specs: Vec<xnf_plan::SortSpec>,
    buf: Option<Vec<Row>>,
    idx: usize,
}

impl Operator for SortOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.buf.is_none() {
            let mut rows = drain(self.input.as_mut(), rt)?;
            let specs = self.specs.clone();
            rows.sort_by(|a, b| {
                for s in &specs {
                    let ord = a[s.col].total_cmp(&b[s.col]);
                    let ord = if s.desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.buf = Some(rows);
        }
        let rows = self.buf.as_ref().unwrap();
        if self.idx >= rows.len() {
            return Ok(None);
        }
        let end = (self.idx + rt.batch_size).min(rows.len());
        let batch = RowBatch::from_rows(rows[self.idx..end].to_vec());
        self.idx = end;
        Ok(Some(batch))
    }
}

struct LimitOp {
    input: Box<dyn Operator>,
    n: u64,
    taken: u64,
}

impl Operator for LimitOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.taken >= self.n {
            return Ok(None);
        }
        match self.input.next_batch(rt)? {
            None => Ok(None),
            Some(mut batch) => {
                let remaining = (self.n - self.taken) as usize;
                batch.truncate(remaining);
                self.taken += batch.len() as u64;
                Ok(Some(batch))
            }
        }
    }
}
