//! Vectorized operators: each interprets one QEP node, pulling *batches* of
//! rows from its inputs on demand (the paper's "table queue evaluation",
//! Sect. 3.1, with streams chunked into [`RowBatch`]es so per-tuple virtual
//! dispatch amortises over a whole chunk).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use xnf_plan::{AggSpec, PhysExpr, PhysPlan, DEFAULT_BATCH_SIZE};
use xnf_sql::AggFunc;
use xnf_storage::{Catalog, Gate, IndexDef, Postings, Table, Value};

use crate::batch::RowBatch;
use crate::error::{ExecError, Result};
use crate::eval::{eval, filter_batch, passes, truthy, CompiledPreds, OuterCtx, Row};
use crate::hash::{FxHashMap, FxHashSet, KeyTable};

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
    /// Rows `ExchangeGather` regions passed from their workers to the
    /// coordinator (aggregate regions gather group tables, not rows).
    pub rows_gathered: u64,
    /// Retired: always 0. Counted composite-object root subtrees that
    /// maintenance re-extracted and diff-spliced, a mechanism in-place
    /// edits replaced.
    pub mv_roots_respliced: u64,
    /// Retired: always 0. Counted stored nodes the diff splice kept.
    pub mv_nodes_reused: u64,
    /// Stored view nodes maintenance wrote in place: rewritten by key,
    /// inserted or removed.
    pub mv_nodes_rewritten: u64,
    /// Stored view connections maintenance inserted or deleted in place.
    pub mv_links_edited: u64,
    /// Materialized views maintenance recomputed from their definition,
    /// because their strategy could not place a commit's delta.
    pub mv_recomputes: u64,
    /// Wall-clock microseconds spent in commit-time view maintenance
    /// (coalesce + locked apply).
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
        self.rows_gathered += other.rows_gathered;
        self.mv_roots_respliced += other.mv_roots_respliced;
        self.mv_nodes_reused += other.mv_nodes_reused;
        self.mv_nodes_rewritten += other.mv_nodes_rewritten;
        self.mv_links_edited += other.mv_links_edited;
        self.mv_recomputes += other.mv_recomputes;
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
        // A matview scan is a seq scan of the view's backing table: the
        // catalog resolves the view name to its backing storage.
        PhysPlan::SeqScan {
            table,
            filter,
            cols,
        }
        | PhysPlan::MatViewScan {
            view: table,
            filter,
            cols,
        } => Box::new(SeqScanOp::new(Scan::new(table, filter, cols, None))),
        PhysPlan::IndexEq {
            table,
            index,
            key,
            filter,
        } => Box::new(IndexScanOp::new(
            table,
            index,
            filter,
            ProbeKeys::Key(key.clone()),
        )),
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
            matches: RowBatch::default(),
            last_out: 0,
        }),
        PhysPlan::IndexSemiJoin {
            table,
            index,
            filter,
            inner,
            inner_key,
        } => {
            let keys = ProbeKeys::Inner(build_operator(inner), inner_key.clone());
            Box::new(IndexScanOp::new(table, index, filter, keys))
        }
        PhysPlan::SharedScan { id, cols } => Box::new(SharedScanOp {
            id: *id,
            cols: cols.clone(),
            batch_idx: 0,
            row_offset: 0,
        }),
        PhysPlan::Filter { input, preds } => {
            Box::new(FilterOp::new(build_operator(input), preds.clone()))
        }
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
            right: Some(build_operator(right)),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            residual: residual.clone(),
            table: None,
            probe: None,
            last_out: 0,
        }),
        PhysPlan::NlJoin { left, right, preds } => Box::new(NlJoinOp {
            left: build_operator(left),
            right: build_operator(right),
            preds: preds.clone(),
            right_buf: None,
            current: None,
        }),
        // A residual-free semijoin over a scan is that scan, gated by the
        // probe (see `Scan`).
        PhysPlan::HashSemiJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } if residual.is_empty()
            && matches!(
                **outer,
                PhysPlan::SeqScan { .. } | PhysPlan::MatViewScan { .. }
            ) =>
        {
            let (PhysPlan::SeqScan {
                table,
                filter,
                cols,
            }
            | PhysPlan::MatViewScan {
                view: table,
                filter,
                cols,
            }) = &**outer
            else {
                unreachable!("matched above")
            };
            let probe = FusedProbe {
                keys: outer_keys.clone(),
                table: ProbeTable::Build(build_operator(inner), inner_keys.clone()),
            };
            Box::new(SeqScanOp::new(Scan::new(table, filter, cols, Some(probe))))
        }
        PhysPlan::HashSemiJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => Box::new(HashSemiJoinOp {
            outer: build_operator(outer),
            inner: Some(build_operator(inner)),
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
            sorted: None,
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
        PhysPlan::ParallelSeqScan { .. } => Box::new(InvalidPlanOp {
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

/// Drain an operator into one batch holding all of its rows.
pub fn drain(op: &mut dyn Operator, rt: &mut Runtime<'_>) -> Result<RowBatch> {
    let mut out = RowBatch::default();
    while let Some(batch) = op.next_batch(rt)? {
        out.append(batch);
    }
    Ok(out)
}

/// Move up to `batch_size` of a materialized operator's remaining result
/// rows into one batch of `width`-wide rows; `None` once they run out.
pub(crate) fn next_chunk(
    rows: &mut std::vec::IntoIter<Row>,
    width: usize,
    batch_size: usize,
) -> Option<RowBatch> {
    let n = rows.len().min(batch_size);
    let mut batch = RowBatch::with_capacity(width, n);
    rows.take(n).for_each(|row| batch.push_owned(row));
    (!batch.is_empty()).then_some(batch)
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
            batch.push_with(|row| {
                for e in exprs {
                    row.push(eval(e, &[], &rt.outer, &[])?);
                }
                Ok::<(), ExecError>(())
            })?;
        }
        Ok(Some(batch))
    }
}

/// A residual-free hash semijoin fused onto the scan of its outer input:
/// the scan probes the build table with each record's `keys` before it
/// decodes the record.
pub(crate) struct FusedProbe {
    pub(crate) keys: Vec<PhysExpr>,
    pub(crate) table: ProbeTable,
}

/// A fused probe's join table.
pub(crate) enum ProbeTable {
    /// The build input and its keys, drained on the scan's first read.
    Build(Box<dyn Operator>, Vec<PhysExpr>),
    /// Built: by that first read, or, in a region worker, by the
    /// coordinator.
    Built(Arc<JoinTable>),
}

/// The heap read both scan operators share: a `SeqScan`'s or
/// `ParallelSeqScan`'s table, filter and columns, and the semijoin probe
/// fused onto it, if any.
///
/// The filter and the probe run as the page read's [`Gate`]: each visible
/// record's slot at the tail of the open run holds the columns they read,
/// they decide on it, and only an accepted record is materialized, from
/// the same walk. `rows_scanned` still counts every visible row. A scan
/// with neither reads ungated, every visible record decoded straight into
/// the run.
pub(crate) struct Scan {
    table: String,
    filter: Vec<PhysExpr>,
    /// The columns to decode (`None` = all); see `PhysPlan::SeqScan`.
    cols: Option<Vec<usize>>,
    probe: Option<FusedProbe>,
    /// Resolved on the first read.
    open: Option<OpenScan>,
}

struct OpenScan {
    table: Arc<Table>,
    filter: CompiledPreds,
    /// The fused probe's keys and build table.
    probe: Option<(Vec<PhysExpr>, Arc<JoinTable>)>,
    /// The kept columns the filter and the probe keys read, ascending.
    /// A column the scan does not keep stays `NULL`, as in a decoded row.
    gate_cols: Vec<usize>,
    /// Each accepted row's position among the page's rows that passed the
    /// filter (fused probe only), and the probe's key: reused per page.
    positions: Vec<usize>,
    key: Vec<Value>,
}

impl Scan {
    pub(crate) fn new(
        table: &str,
        filter: &[PhysExpr],
        cols: &Option<Vec<usize>>,
        probe: Option<FusedProbe>,
    ) -> Scan {
        Scan {
            table: table.to_string(),
            filter: filter.to_vec(),
            cols: cols.clone(),
            probe,
            open: None,
        }
    }

    /// Build the probe's table (first, as the semijoin did before pulling
    /// its outer input), then resolve the table and compile the filter.
    fn open(&mut self, rt: &mut Runtime<'_>) -> Result<OpenScan> {
        let probe = match &mut self.probe {
            None => None,
            Some(p) => {
                if let ProbeTable::Build(input, keys) = &mut p.table {
                    let built = JoinTable::build(input.as_mut(), rt, keys, false)?;
                    p.table = ProbeTable::Built(Arc::new(built));
                }
                let ProbeTable::Built(table) = &p.table else {
                    unreachable!("built above")
                };
                Some((p.keys.clone(), Arc::clone(table)))
            }
        };
        let mut read = BTreeSet::new();
        self.filter.iter().for_each(|e| e.add_cols(&mut read));
        probe
            .iter()
            .flat_map(|(keys, _)| keys)
            .for_each(|e| e.add_cols(&mut read));
        let kept = |c: &usize| self.cols.as_ref().is_none_or(|cols| cols.contains(c));
        Ok(OpenScan {
            table: rt.catalog.table(&self.table)?,
            filter: CompiledPreds::compile(&self.filter, &rt.outer)?,
            probe,
            gate_cols: read.into_iter().filter(kept).collect(),
            positions: Vec::new(),
            key: Vec::new(),
        })
    }

    /// Read page `idx` through the gate straight into the open run of
    /// `runs`, which then cuts it into batches, counting the page's visible
    /// and skipped versions; `false` past the end.
    pub(crate) fn read_page(
        &mut self,
        idx: usize,
        rt: &mut Runtime<'_>,
        runs: &mut Runs,
    ) -> Result<bool> {
        if self.open.is_none() {
            self.open = Some(self.open(rt)?);
        }
        let OpenScan {
            table,
            filter,
            probe,
            gate_cols,
            positions,
            key,
        } = self.open.as_mut().expect("opened above");
        let cols = self.cols.as_deref();
        let decides = !filter.is_empty() || probe.is_some();
        let mut passed = 0;
        positions.clear();
        let outer = &rt.outer;
        let mut decide = |row: &[Value]| -> Result<bool> {
            if !filter.matches(row, outer)? {
                return Ok(false);
            }
            passed += 1;
            let Some((keys, table)) = &*probe else {
                return Ok(true);
            };
            let hit = key_into(keys, row, outer, key)? && table.contains(key);
            if hit {
                positions.push(passed - 1);
            }
            Ok(hit)
        };
        // The decision answers yes or no; the first evaluation error is
        // kept and rejects every later row.
        let mut err = None;
        let mut accept = |row: &[Value]| {
            err.is_none()
                && decide(row).unwrap_or_else(|e| {
                    err = Some(e);
                    false
                })
        };
        let gate = decides.then_some(Gate {
            cols: gate_cols,
            accept: &mut accept,
        });
        let width = table.schema.len();
        let out = runs.buffer(width);
        let page = table.scan_page_snapshot(idx, &rt.snapshot, cols, gate, out, None)?;
        if let Some(e) = err {
            return Err(e);
        }
        let Some(page) = page else {
            return Ok(false);
        };
        if page.rows > 0 && page.width != width {
            let what = "records wider or narrower than their table";
            return Err(ExecError::Storage(xnf_storage::StorageError::Corrupt(what)));
        }
        rt.stats.rows_scanned += page.visible;
        rt.stats.rows_skipped_visibility += page.skipped;
        let passed = if decides { passed } else { page.rows };
        let positions = probe.is_some().then_some(positions.as_slice());
        runs.settle(page.rows, positions, passed, rt.batch_size);
        Ok(true)
    }
}

/// Cuts a scan's accepted rows into the batches its plan emits: one per
/// `batch_size` rows that passed the filter, holding the accepted rows
/// among them, and none where none was accepted. Without a fused probe
/// every passing row is accepted, so these are plain full batches; with
/// one, they are exactly the batches the semijoin would keep of them.
///
/// A page read appends its accepted rows straight into the open run; the
/// run is cut where the next batch begins, so a batch's values are never
/// copied row by row.
#[derive(Default)]
pub(crate) struct Runs {
    /// Rows that passed the filter so far.
    passed: usize,
    /// The run `open` collects for.
    run: usize,
    open: RowBatch,
    /// Rows the last page appended: the room the next read reserves.
    last_page: usize,
    ready: VecDeque<RowBatch>,
}

impl Runs {
    /// The buffer the next page read appends its `width`-wide rows to.
    fn buffer(&mut self, width: usize) -> &mut Vec<Value> {
        if self.open.is_empty() {
            self.open = RowBatch::new(width);
        }
        self.open.reserve(self.last_page);
        self.open.buffer()
    }

    /// Take in the `n` rows a page read just appended, `passed` of its
    /// rows having passed the filter, and cut the run where a batch ends.
    /// `positions` holds each appended row's position among the passing
    /// rows; `None` when every passing row was appended.
    fn settle(&mut self, n: usize, positions: Option<&[usize]>, passed: usize, batch_size: usize) {
        self.open.appended(n);
        self.last_page = n;
        // The open run's index of the page's row `from`.
        let (mut at, mut from) = (self.open.len() - n, 0);
        let mut cut_at = (self.run + 1) * batch_size;
        for i in 0..n {
            let pos = self.passed + positions.map_or(i, |p| p[i]);
            if pos >= cut_at {
                let rest = self.open.split_off(at + i - from);
                let full = std::mem::replace(&mut self.open, rest);
                self.emit(full);
                (at, from) = (0, i);
                self.run = pos / batch_size;
                cut_at = (self.run + 1) * batch_size;
            }
        }
        self.passed += passed;
        if self.passed >= cut_at {
            self.cut();
            self.run = self.passed / batch_size;
        }
    }

    /// The next batch once every read is done: the cut ones in order, then
    /// the open run (queued batches cost a queue; a lone run does not).
    fn finish(&mut self) -> Option<RowBatch> {
        let open = &mut self.open;
        let last = || Some(std::mem::take(open)).filter(|b| !b.is_empty());
        self.ready.pop_front().or_else(last)
    }

    /// Close the open run and start counting afresh (end of the scan, or
    /// of a morsel: batches never span morsels).
    pub(crate) fn end(&mut self) {
        self.cut();
        self.passed = 0;
        self.run = 0;
    }

    fn cut(&mut self) {
        let open = std::mem::take(&mut self.open);
        self.emit(open);
    }

    fn emit(&mut self, batch: RowBatch) {
        if !batch.is_empty() {
            self.ready.push_back(batch);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<RowBatch> {
        self.ready.pop_front()
    }
}

struct SeqScanOp {
    scan: Scan,
    /// Next heap page to pull (scans stream page-at-a-time; the whole table
    /// is never buffered in the operator).
    page_idx: usize,
    runs: Runs,
    done: bool,
}

impl SeqScanOp {
    fn new(scan: Scan) -> SeqScanOp {
        SeqScanOp {
            scan,
            page_idx: 0,
            runs: Runs::default(),
            done: false,
        }
    }
}

impl Operator for SeqScanOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        loop {
            if let Some(batch) = self.runs.pop() {
                return Ok(Some(batch));
            }
            if self.done {
                return Ok(None);
            }
            if self.scan.read_page(self.page_idx, rt, &mut self.runs)? {
                self.page_idx += 1;
            } else {
                self.done = true;
                self.runs.end();
            }
        }
    }
}

/// The one index-probe path, shared by [`IndexScanOp`] and
/// [`IndexNlJoinOp`]: an index of a table and the filter over its
/// rows, opened once per operator. Postings become rows only through
/// [`Table::read_postings`], one page's run at a time, with the filter as
/// the read's gate, as a scan's filter is.
struct IndexProbe {
    table: Arc<Table>,
    def: IndexDef,
    filter: CompiledPreds,
    /// The columns the filter reads, ascending.
    gate_cols: Vec<usize>,
}

impl IndexProbe {
    fn open(rt: &Runtime<'_>, table: &str, index: &str, filter: &[PhysExpr]) -> Result<IndexProbe> {
        let table = rt.catalog.table(table)?;
        let def = table
            .index_def(index)
            .ok_or_else(|| ExecError::Type(format!("unknown index '{index}'")))?;
        let mut read = BTreeSet::new();
        filter.iter().for_each(|e| e.add_cols(&mut read));
        Ok(IndexProbe {
            table,
            def,
            filter: CompiledPreds::compile(filter, &rt.outer)?,
            gate_cols: read.into_iter().collect(),
        })
    }

    /// The postings of `keys` (a key holding a NULL is not probed).
    fn gather(&self, keys: Vec<Vec<Value>>) -> Result<Postings> {
        Ok(self.table.gather_postings(&self.def.name, keys)?)
    }

    /// Read the next page's run of `postings` under the run's snapshot,
    /// appending the rows the filter accepts to `out`; returns how many, or
    /// `None` once the postings run out.
    fn read(
        &self,
        postings: &mut Postings,
        rt: &mut Runtime<'_>,
        out: &mut Vec<Value>,
    ) -> Result<Option<usize>> {
        // As in a scan, the first evaluation error rejects every later row.
        let mut err = None;
        let mut accept = |row: &[Value]| {
            err.is_none()
                && self.filter.matches(row, &rt.outer).unwrap_or_else(|e| {
                    err = Some(e);
                    false
                })
        };
        let gate = (!self.filter.is_empty()).then_some(Gate {
            cols: &self.gate_cols,
            accept: &mut accept,
        });
        let snap = &rt.snapshot;
        let run = self
            .table
            .read_postings(&self.def, postings, snap, gate, out, None)?;
        if let Some(e) = err {
            return Err(e);
        }
        let Some(run) = run else {
            return Ok(None);
        };
        if run.rows > 0 && run.width != self.table.schema.len() {
            let what = "records wider or narrower than their table";
            return Err(ExecError::Storage(xnf_storage::StorageError::Corrupt(what)));
        }
        rt.stats.rows_scanned += run.visible;
        rt.stats.rows_skipped_visibility += run.skipped;
        Ok(Some(run.rows))
    }
}

/// `IndexEq` and `IndexSemiJoin`: the probe's postings read as a stream,
/// each page's run cut into batches by [`Runs`] as a sequential scan's
/// pages are, and read only when a batch is wanted, so a `LIMIT` above
/// stops the reading.
struct IndexScanOp {
    table: String,
    index: String,
    filter: Vec<PhysExpr>,
    keys: ProbeKeys,
    /// Opened on the first call.
    open: Option<(IndexProbe, Postings)>,
    runs: Runs,
    done: bool,
}

/// Where an index scan's keys come from.
enum ProbeKeys {
    /// `IndexEq`'s one key.
    Key(Vec<PhysExpr>),
    /// `IndexSemiJoin`'s semi side and its key, drained into its distinct
    /// keys before the probe.
    Inner(Box<dyn Operator>, PhysExpr),
}

impl IndexScanOp {
    fn new(table: &str, index: &str, filter: &[PhysExpr], keys: ProbeKeys) -> IndexScanOp {
        IndexScanOp {
            table: table.to_string(),
            index: index.to_string(),
            filter: filter.to_vec(),
            keys,
            open: None,
            runs: Runs::default(),
            done: false,
        }
    }
}

impl ProbeKeys {
    fn eval(&mut self, rt: &mut Runtime<'_>) -> Result<Vec<Vec<Value>>> {
        let (inner, inner_key) = match self {
            ProbeKeys::Key(key) => {
                let key = key.iter().map(|e| eval(e, &[], &rt.outer, &[]));
                return Ok(vec![key.collect::<Result<_>>()?]);
            }
            ProbeKeys::Inner(inner, key) => (inner, key),
        };
        let mut seen = FxHashSet::default();
        let mut keys = Vec::new();
        while let Some(batch) = inner.next_batch(rt)? {
            for row in batch.iter() {
                let key = eval(inner_key, row, &rt.outer, &[])?;
                if seen.insert(key.clone()) {
                    keys.push(vec![key]);
                }
            }
        }
        Ok(keys)
    }
}

impl Operator for IndexScanOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.open.is_none() {
            let keys = self.keys.eval(rt)?;
            let probe = IndexProbe::open(rt, &self.table, &self.index, &self.filter)?;
            let postings = probe.gather(keys)?;
            self.open = Some((probe, postings));
        }
        let (probe, postings) = self.open.as_mut().expect("opened above");
        while !self.done {
            if let Some(batch) = self.runs.pop() {
                return Ok(Some(batch));
            }
            let out = self.runs.buffer(probe.table.schema.len());
            match probe.read(postings, rt, out)? {
                Some(rows) => self.runs.settle(rows, None, rows, rt.batch_size),
                None => self.done = true,
            }
        }
        Ok(self.runs.finish())
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
    /// One left row's matches, reused from probe to probe.
    matches: RowBatch,
    /// Rows of the last batch emitted: the room the next one reserves.
    last_out: usize,
}

impl Operator for IndexNlJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.probe.is_none() {
            let probe = IndexProbe::open(rt, &self.table, &self.index, &self.filter)?;
            self.matches = RowBatch::new(probe.table.schema.len());
            self.probe = Some(probe);
        }
        let probe = self.probe.as_ref().expect("opened above");
        let matches = &mut self.matches;
        let mut out = RowBatch::new(0);
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
                let mut postings = probe.gather(vec![vec![key]])?;
                matches.truncate(0);
                while let Some(rows) = probe.read(&mut postings, rt, matches.buffer())? {
                    matches.appended(rows);
                }
                if out.is_empty() && !matches.is_empty() {
                    out = RowBatch::with_capacity(lrow.len() + matches.columns(), self.last_out);
                }
                for rrow in matches.iter() {
                    out.push_joined(lrow, rrow);
                }
            }
            if *idx >= lbatch.len() {
                self.current = None;
            }
            if out.len() >= rt.batch_size {
                filter_batch(&self.residual, &mut out, &rt.outer)?;
                if !out.is_empty() {
                    self.last_out = out.len();
                    return Ok(Some(out));
                }
            }
        }
        filter_batch(&self.residual, &mut out, &rt.outer)?;
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

struct SharedScanOp {
    id: usize,
    /// The only slots to fill (slot 0 = rowid); `None` fills every slot.
    cols: Option<Vec<usize>>,
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
        // connection streams project (Sect. 5.0). Slots outside `cols` stay
        // NULL: only what the consumer reads is cloned.
        let mut out = RowBatch::with_capacity(src.columns() + 1, src.len());
        for (i, row) in src.iter().enumerate() {
            let rowid = Value::Int((self.row_offset + i) as i64);
            match &self.cols {
                None => out.push_joined(&[rowid], row),
                Some(cols) => out.push_with(|with_id| {
                    let start = with_id.len();
                    with_id.resize(start + row.len() + 1, Value::Null);
                    for &c in cols {
                        with_id[start + c] = match c {
                            0 => rowid.clone(),
                            _ => row[c - 1].clone(),
                        };
                    }
                    Ok::<(), ExecError>(())
                })?,
            }
        }
        self.row_offset += src.len();
        Ok(Some(out))
    }
}

pub(crate) struct FilterOp {
    input: Box<dyn Operator>,
    preds: Vec<PhysExpr>,
    /// `preds`, compiled on the first pull.
    compiled: Option<CompiledPreds>,
}

impl FilterOp {
    pub(crate) fn new(input: Box<dyn Operator>, preds: Vec<PhysExpr>) -> FilterOp {
        FilterOp {
            input,
            preds,
            compiled: None,
        }
    }
}

impl Operator for FilterOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.compiled.is_none() {
            self.compiled = Some(CompiledPreds::compile(&self.preds, &rt.outer)?);
        }
        let preds = self.compiled.as_ref().expect("compiled above");
        while let Some(mut batch) = self.input.next_batch(rt)? {
            preds.retain(&mut batch, &rt.outer)?;
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
fn key_of(exprs: &[PhysExpr], row: &[Value], outer: &OuterCtx) -> Result<Option<Vec<Value>>> {
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
fn key_into(
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
pub(crate) struct JoinTable {
    map: FxHashMap<Vec<Value>, Vec<Row>>,
}

impl JoinTable {
    /// Drain `input` batch-at-a-time and index its rows by `keys`. With
    /// `keep_rows == false` only key presence is recorded (residual-free
    /// semijoins never look at the matched rows).
    pub(crate) fn build(
        input: &mut dyn Operator,
        rt: &mut Runtime<'_>,
        keys: &[PhysExpr],
        keep_rows: bool,
    ) -> Result<JoinTable> {
        let mut map: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
        while let Some(batch) = input.next_batch(rt)? {
            for row in batch.into_rows() {
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

/// Hash equi-join: `left` probes a table built from `right`. Output
/// batches flush at `batch_size` and at the end of each probe batch, never
/// across probe batches, so inside a parallel region every output batch
/// derives from one morsel (the gather merges by morsel tag).
pub(crate) struct HashJoinOp {
    pub(crate) left: Box<dyn Operator>,
    /// Build input, drained into `table` on the first pull. `None` in a
    /// region worker, whose table the coordinator built.
    pub(crate) right: Option<Box<dyn Operator>>,
    pub(crate) left_keys: Vec<PhysExpr>,
    pub(crate) right_keys: Vec<PhysExpr>,
    pub(crate) residual: Vec<PhysExpr>,
    /// Build side (right input), keyed; one table shared read-only by all
    /// of a region's workers.
    pub(crate) table: Option<Arc<JoinTable>>,
    /// Probe batch still being expanded (and the next row to probe in it),
    /// so high-fanout joins flush output near `batch_size` instead of
    /// materialising one input batch's full match set.
    pub(crate) probe: Option<(RowBatch, usize)>,
    /// Rows of the last batch emitted: the room the next one reserves, so
    /// output buffers grow with what the join emits.
    pub(crate) last_out: usize,
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.table.is_none() {
            let right = self
                .right
                .as_mut()
                .expect("a join without a prebuilt table has its input");
            let table = JoinTable::build(right.as_mut(), rt, &self.right_keys, true)?;
            self.table = Some(Arc::new(table));
        }
        let table = self.table.as_deref().expect("built above");
        let mut key = Vec::with_capacity(self.left_keys.len());
        let mut out = RowBatch::new(0);
        loop {
            if self.probe.is_none() {
                match self.left.next_batch(rt)? {
                    None => return Ok(None),
                    Some(lbatch) => self.probe = Some((lbatch, 0)),
                }
            }
            let (lbatch, idx) = self.probe.as_mut().unwrap();
            while *idx < lbatch.len() && out.len() < rt.batch_size {
                let lrow = &lbatch[*idx];
                *idx += 1;
                if !key_into(&self.left_keys, lrow, &rt.outer, &mut key)? {
                    continue;
                }
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                if out.is_empty() {
                    let width = lrow.len() + matches[0].len();
                    out = RowBatch::with_capacity(width, self.last_out);
                }
                for rrow in matches {
                    out.push_joined(lrow, rrow);
                }
            }
            if *idx >= lbatch.len() {
                self.probe = None;
            }
            filter_batch(&self.residual, &mut out, &rt.outer)?;
            if !out.is_empty() {
                self.last_out = out.len();
                return Ok(Some(out));
            }
        }
    }
}

struct NlJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    preds: Vec<PhysExpr>,
    right_buf: Option<RowBatch>,
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
                    let mut out =
                        RowBatch::with_capacity(lrow.len() + right.columns(), right.len());
                    for rrow in right.iter() {
                        out.push_joined(lrow, rrow);
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

/// Hash semijoin: keeps the `outer` rows whose key (and residual) finds a
/// match in a table built from `inner`. Emits one batch per non-empty
/// input batch and never merges batches, so inside a parallel region every
/// output batch derives from one morsel (the gather merges by morsel tag).
pub(crate) struct HashSemiJoinOp {
    pub(crate) outer: Box<dyn Operator>,
    /// Build input, drained into `table` on the first pull. `None` in a
    /// region worker, whose table the coordinator built.
    pub(crate) inner: Option<Box<dyn Operator>>,
    pub(crate) outer_keys: Vec<PhysExpr>,
    pub(crate) inner_keys: Vec<PhysExpr>,
    pub(crate) residual: Vec<PhysExpr>,
    /// Build side (inner input), keyed; one table shared read-only by all
    /// of a region's workers.
    pub(crate) table: Option<Arc<JoinTable>>,
}

impl HashSemiJoinOp {
    /// Does the build table need its rows? Residual-free semijoins only
    /// need key presence.
    pub(crate) fn keep_rows(residual: &[PhysExpr]) -> bool {
        !residual.is_empty()
    }
}

impl Operator for HashSemiJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.table.is_none() {
            let inner = self
                .inner
                .as_mut()
                .expect("a semijoin without a prebuilt table has its input");
            let keep_rows = HashSemiJoinOp::keep_rows(&self.residual);
            let table = JoinTable::build(inner.as_mut(), rt, &self.inner_keys, keep_rows)?;
            self.table = Some(Arc::new(table));
        }
        let table = self.table.as_deref().expect("built above");
        let mut key = Vec::with_capacity(self.outer_keys.len());
        let mut pair = Vec::new();
        while let Some(mut obatch) = self.outer.next_batch(rt)? {
            obatch.try_retain(|orow| {
                Ok::<bool, ExecError>(
                    match key_into(&self.outer_keys, orow, &rt.outer, &mut key)? {
                        false => false,
                        true if self.residual.is_empty() => table.contains(&key),
                        true => {
                            let inner = table.get(&key).unwrap_or(&[]);
                            any_pair_passes(&self.residual, orow, inner, &mut pair, &rt.outer)?
                        }
                    },
                )
            })?;
            if !obatch.is_empty() {
                return Ok(Some(obatch));
            }
        }
        Ok(None)
    }
}

/// Does `preds` pass on any row `left ++ right`, `right` one of `rights`?
/// Each pair is checked in the one scratch row `pair`.
fn any_pair_passes<R: AsRef<[Value]>>(
    preds: &[PhysExpr],
    left: &[Value],
    rights: impl IntoIterator<Item = R>,
    pair: &mut Vec<Value>,
    outer: &OuterCtx,
) -> Result<bool> {
    for right in rights {
        pair.clear();
        pair.extend_from_slice(left);
        pair.extend_from_slice(right.as_ref());
        if passes(preds, pair, outer)? {
            return Ok(true);
        }
    }
    Ok(false)
}

struct NlSemiJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    preds: Vec<PhysExpr>,
    inner_buf: Option<RowBatch>,
}

impl Operator for NlSemiJoinOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.inner_buf.is_none() {
            self.inner_buf = Some(drain(self.inner.as_mut(), rt)?);
        }
        let mut pair = Vec::new();
        while let Some(mut obatch) = self.outer.next_batch(rt)? {
            let inner = self.inner_buf.as_ref().unwrap();
            obatch.try_retain(|orow| {
                any_pair_passes(&self.preds, orow, inner.iter(), &mut pair, &rt.outer)
            })?;
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
            batch.try_retain(|row| {
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
                Ok::<bool, ExecError>(has_row != self.anti)
            })?;
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

/// Streaming group-by accumulator, shared by the serial
/// [`HashAggregateOp`] and the parallel partial-aggregation workers (each
/// worker folds its morsels into one of these; the coordinator absorbs the
/// partials in worker order with [`GroupAcc::absorb`]).
///
/// Groups are the ids of one [`KeyTable`], and group `g`'s accumulators
/// are `accs[g * n..][..n]` for `n` aggregates. Without GROUP BY the grand
/// total is group 0, the empty key, from the start, so an empty input
/// still yields its row (COUNT = 0, SUM = NULL, ...).
pub(crate) struct GroupAcc<'p> {
    group: &'p [PhysExpr],
    aggs: &'p [AggSpec],
    keys: KeyTable,
    accs: Vec<Acc>,
    /// `(group, aggregate, value)` for each value a DISTINCT aggregate
    /// has counted (never allocated when no aggregate is DISTINCT).
    seen: FxHashSet<(usize, usize, Value)>,
    /// The probe key, reused from row to row.
    key: Vec<Value>,
    /// When every aggregate is a plain COUNT(*), whole batches fold in as
    /// a single length addition — the fully vectorized case.
    all_plain_counts: bool,
}

impl<'p> GroupAcc<'p> {
    pub(crate) fn new(group: &'p [PhysExpr], aggs: &'p [AggSpec]) -> GroupAcc<'p> {
        let mut acc = GroupAcc {
            group,
            aggs,
            keys: KeyTable::new(group.len()),
            accs: Vec::new(),
            seen: FxHashSet::default(),
            key: Vec::with_capacity(group.len()),
            all_plain_counts: group.is_empty()
                && aggs
                    .iter()
                    .all(|a| matches!(a.func, AggFunc::Count) && a.arg.is_none() && !a.distinct),
        };
        if group.is_empty() {
            acc.group_of_key();
        }
        acc
    }

    /// The group of the key in `self.key`, created with fresh
    /// accumulators when new.
    fn group_of_key(&mut self) -> usize {
        let (g, new) = self.keys.intern(&mut self.key);
        if new {
            self.accs.extend(self.aggs.iter().map(|a| Acc::new(a.func)));
        }
        g
    }

    /// Fold one input batch into the per-group accumulators.
    pub(crate) fn fold(&mut self, batch: &RowBatch, outer: &OuterCtx) -> Result<()> {
        if self.group.is_empty() {
            if self.all_plain_counts {
                for acc in &mut self.accs {
                    if let Acc::Count(n) = acc {
                        *n += batch.len() as i64;
                    }
                }
            } else {
                for row in batch.iter() {
                    self.update(0, row, outer)?;
                }
            }
            return Ok(());
        }
        for row in batch.iter() {
            self.key.clear();
            for g in self.group {
                self.key.push(eval(g, row, outer, &[])?);
            }
            let g = self.group_of_key();
            self.update(g, row, outer)?;
        }
        Ok(())
    }

    /// Fold one input row into group `g`'s accumulators.
    fn update(&mut self, g: usize, row: &[Value], outer: &OuterCtx) -> Result<()> {
        let n = self.aggs.len();
        for (i, spec) in self.aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Bool(true), // COUNT(*): every row
                Some(e) => match eval(e, row, outer, &[])? {
                    Value::Null => continue,
                    v => v,
                },
            };
            if spec.distinct && !self.seen.insert((g, i, v.clone())) {
                continue;
            }
            self.accs[g * n + i].update(Some(&v))?;
        }
        Ok(())
    }

    /// Absorb a worker's partial table. Its keys move in by their stored
    /// hash; a group new here takes the partial's accumulators as they
    /// are, and an existing one merges them. A DISTINCT aggregate instead
    /// counts the partial's values this group has not seen: merging two
    /// partial counts would count a value both workers saw twice.
    pub(crate) fn absorb(&mut self, other: GroupAcc<'_>) -> Result<()> {
        let n = self.aggs.len();
        let ids = self.keys.absorb(other.keys);
        let mut theirs = other.accs.into_iter();
        for &(g, new) in &ids {
            let part = theirs.by_ref().take(n);
            if new {
                self.accs.extend(part);
                continue;
            }
            for ((i, spec), acc) in self.aggs.iter().enumerate().zip(part) {
                if !spec.distinct {
                    self.accs[g * n + i].merge(&acc);
                }
            }
        }
        for (o, i, v) in other.seen {
            let (g, new) = ids[o];
            let entry = (g, i, v);
            if !new && !self.seen.contains(&entry) {
                self.accs[g * n + i].update(Some(&entry.2))?;
            }
            self.seen.insert(entry);
        }
        Ok(())
    }
}

/// Final aggregation step shared by the serial and parallel paths: HAVING
/// over [group values] with agg slots, the output expressions, and the
/// deterministic result sort.
pub(crate) fn finalize_groups(
    acc: GroupAcc<'_>,
    having: &[PhysExpr],
    output: &[PhysExpr],
    outer: &OuterCtx,
) -> Result<Vec<Row>> {
    let n = acc.aggs.len();
    let mut agg_vals = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(acc.keys.len());
    'groups: for g in 0..acc.keys.len() {
        let key = acc.keys.key(g);
        agg_vals.clear();
        agg_vals.extend(acc.accs[g * n..(g + 1) * n].iter().map(Acc::finish));
        for h in having {
            if !truthy(&eval(h, key, outer, &agg_vals)?) {
                continue 'groups;
            }
        }
        let mut out = Vec::with_capacity(output.len());
        for e in output {
            out.push(eval(e, key, outer, &agg_vals)?);
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
    /// The result rows still to emit, computed on the first pull.
    results: Option<std::vec::IntoIter<Row>>,
}

impl HashAggregateOp {
    /// Consume the whole input (batch-at-a-time) and compute the grouped
    /// aggregate rows.
    fn materialize(&mut self, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
        let mut acc = GroupAcc::new(&self.group, &self.aggs);
        while let Some(batch) = self.input.next_batch(rt)? {
            acc.fold(&batch, &rt.outer)?;
        }
        finalize_groups(acc, &self.having, &self.output, &rt.outer)
    }
}

impl Operator for HashAggregateOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.results.is_none() {
            self.results = Some(self.materialize(rt)?.into_iter());
        }
        let rows = self.results.as_mut().expect("materialized above");
        Ok(next_chunk(rows, self.output.len(), rt.batch_size))
    }
}

struct HashDistinctOp {
    input: Box<dyn Operator>,
    seen: FxHashSet<Vec<Value>>,
}

impl Operator for HashDistinctOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        while let Some(mut batch) = self.input.next_batch(rt)? {
            let seen = &mut self.seen;
            let first = |row: &[Value]| {
                Ok::<_, ExecError>(!seen.contains(row) && seen.insert(row.to_vec()))
            };
            batch.try_retain(first)?;
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
    /// The drained input and the rows' sorted order, built on the first
    /// pull; each pull moves the next `batch_size` rows of that order out.
    sorted: Option<(RowBatch, std::vec::IntoIter<usize>)>,
}

impl Operator for SortOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.sorted.is_none() {
            let rows = drain(self.input.as_mut(), rt)?;
            // A stable sort of the row order; the rows move only once, into
            // their output batch.
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| {
                let (a, b) = (&rows[a], &rows[b]);
                for s in &self.specs {
                    let ord = a[s.col].total_cmp(&b[s.col]);
                    let ord = if s.desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = Some((rows, order.into_iter()));
        }
        let (rows, order) = self.sorted.as_mut().expect("sorted above");
        let n = order.len().min(rt.batch_size);
        let mut batch = RowBatch::with_capacity(rows.columns(), n);
        for i in order.take(n) {
            batch.push_taken(rows.row_mut(i));
        }
        Ok((!batch.is_empty()).then_some(batch))
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
