//! Morsel-driven parallel region execution.
//!
//! A *parallel region* is the subtree under an `ExchangeGather` or
//! `ParallelHashAggregate` plan node: a worker pipeline of parallel scans,
//! fused filters/projections and hash-join and hash-semijoin probes.
//! Executing a region:
//!
//! 1. **Prepare** (coordinator): walk the pipeline; give every
//!    `ParallelSeqScan` a shared [`MorselDispenser`] and build every
//!    `HashJoin`'s and `HashSemiJoin`'s table — the coordinator drains the
//!    build input (the join's right, the semijoin's inner) *in serial row
//!    order* into one ordinary `JoinTable`, with rows kept exactly when the
//!    serial operator keeps them, so bucket match order equals the serial
//!    build's.
//! 2. **Run** (workers): `dop` threads each instantiate their own copy of
//!    the pipeline over a cloned MVCC snapshot and pull page morsels from
//!    the shared dispensers until the table is exhausted. Every worker's
//!    `HashJoinOp` / `HashSemiJoinOp` probes its one shared table; a
//!    residual-free semijoin over the region's scan probes it from inside
//!    the scan's gate, before each record is decoded.
//! 3. **Merge** (coordinator): gather regions tag every worker batch with
//!    the page index it came from and K-way-merge the per-worker streams
//!    by that tag — dispensers hand out pages in increasing order, so each
//!    worker's stream is already sorted and the merged output has exactly
//!    the serial plan's row order. Aggregate regions instead merge the
//!    workers' partial group tables (partial→final aggregation) and sort
//!    the finished rows like the serial operator does.
//!
//! Worker `ExecStats` fold into the coordinator's via the existing
//! [`ExecStats::merge`]. Region results are byte-identical to the serial
//! plan's except for SUM/AVG over doubles, where morsel assignment decides
//! floating-point addition order (non-associative; see docs/EXPLAIN.md).
//!
//! Threads never outlive a region: `Runtime` borrows the catalog, so the
//! whole region runs to completion inside a [`std::thread::scope`] on the
//! root's first pull and streams its buffered result afterwards. The
//! planner keeps streaming `Limit`s serial, so no early-out is lost.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use xnf_plan::{AggSpec, PhysExpr, PhysPlan};
use xnf_storage::MorselDispenser;

use crate::batch::RowBatch;
use crate::error::{ExecError, Result};
use crate::eval::Row;
use crate::ops::{
    build_operator, finalize_groups, next_chunk, ExecStats, FilterOp, FusedProbe, GroupAcc,
    HashJoinOp, HashSemiJoinOp, JoinTable, Operator, ProbeTable, ProjectOp, Runs, Runtime, Scan,
};

/// Bounded channel depth (in batches) between a worker and the gather.
const CHANNEL_DEPTH: usize = 4;

/// Resources a region's workers share, collected by the coordinator before
/// the workers spawn: one morsel dispenser per parallel scan and one build
/// table per hash join or semijoin, in plan traversal order (workers
/// rebuild the identical tree, so the orders agree).
struct RegionResources {
    dispensers: Vec<Arc<MorselDispenser>>,
    tables: Vec<Arc<JoinTable>>,
}

fn prepare_region(rt: &mut Runtime<'_>, pipeline: &PhysPlan) -> Result<RegionResources> {
    let mut res = RegionResources {
        dispensers: Vec::new(),
        tables: Vec::new(),
    };
    collect_resources(rt, pipeline, &mut res)?;
    Ok(res)
}

fn collect_resources(
    rt: &mut Runtime<'_>,
    plan: &PhysPlan,
    res: &mut RegionResources,
) -> Result<()> {
    match plan {
        PhysPlan::ParallelSeqScan { .. } => {
            res.dispensers.push(Arc::new(MorselDispenser::new()));
            Ok(())
        }
        PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } => {
            collect_resources(rt, input, res)
        }
        PhysPlan::HashJoin {
            left,
            right,
            right_keys,
            ..
        } => {
            // Probe first: traversal order must match the worker builder.
            collect_resources(rt, left, res)?;
            build_table(rt, right, right_keys, true, res)
        }
        PhysPlan::HashSemiJoin {
            outer,
            inner,
            inner_keys,
            residual,
            ..
        } => {
            // Outer first, as for the join's probe side.
            collect_resources(rt, outer, res)?;
            let keep_rows = HashSemiJoinOp::keep_rows(residual);
            build_table(rt, inner, inner_keys, keep_rows, res)
        }
        other => Err(ExecError::Type(format!(
            "unexpected operator in parallel worker pipeline: {}",
            other.explain().lines().next().unwrap_or("?")
        ))),
    }
}

/// Drain a join's build input on the coordinator, in serial row order, into
/// the region's next shared table.
fn build_table(
    rt: &mut Runtime<'_>,
    input: &PhysPlan,
    keys: &[PhysExpr],
    keep_rows: bool,
    res: &mut RegionResources,
) -> Result<()> {
    let mut build = build_operator(input);
    let table = JoinTable::build(build.as_mut(), rt, keys, keep_rows)?;
    res.tables.push(Arc::new(table));
    Ok(())
}

/// Per-worker state threaded through [`build_worker_pipeline`].
struct WorkerCtx<'r> {
    res: &'r RegionResources,
    next_dispenser: usize,
    next_table: usize,
    /// The page index of the morsel the pipeline's scan is currently
    /// draining — the gather driver reads it after every root batch to tag
    /// the batch for the ordered merge. `Rc` because the whole pipeline
    /// lives on one worker thread.
    morsel: Rc<Cell<u64>>,
}

impl WorkerCtx<'_> {
    /// A morsel scan over the next dispenser in traversal order.
    fn scan(&mut self, scan: Scan) -> ParallelSeqScanOp {
        let dispenser = Arc::clone(&self.res.dispensers[self.next_dispenser]);
        self.next_dispenser += 1;
        ParallelSeqScanOp {
            scan,
            dispenser,
            morsel: Rc::clone(&self.morsel),
            runs: Runs::default(),
            done: false,
        }
    }

    /// The next join table in traversal order.
    fn next_table(&mut self) -> Arc<JoinTable> {
        let table = Arc::clone(&self.res.tables[self.next_table]);
        self.next_table += 1;
        table
    }
}

/// Instantiate one worker's copy of a region pipeline.
fn build_worker_pipeline(plan: &PhysPlan, ctx: &mut WorkerCtx<'_>) -> Result<Box<dyn Operator>> {
    match plan {
        PhysPlan::ParallelSeqScan {
            table,
            filter,
            cols,
        } => Ok(Box::new(ctx.scan(Scan::new(table, filter, cols, None)))),
        PhysPlan::Filter { input, preds } => Ok(Box::new(FilterOp::new(
            build_worker_pipeline(input, ctx)?,
            preds.clone(),
        ))),
        PhysPlan::Project { input, exprs } => Ok(Box::new(ProjectOp {
            input: build_worker_pipeline(input, ctx)?,
            exprs: exprs.clone(),
        })),
        PhysPlan::HashJoin {
            left,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let left = build_worker_pipeline(left, ctx)?;
            Ok(Box::new(HashJoinOp {
                left,
                right: None,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
                table: Some(ctx.next_table()),
                probe: None,
                last_out: 0,
            }))
        }
        // A residual-free semijoin over a scan is that scan, gated by the
        // probe of the coordinator's table (see `Scan`).
        PhysPlan::HashSemiJoin {
            outer,
            outer_keys,
            residual,
            ..
        } if residual.is_empty() && matches!(**outer, PhysPlan::ParallelSeqScan { .. }) => {
            let PhysPlan::ParallelSeqScan {
                table,
                filter,
                cols,
            } = &**outer
            else {
                unreachable!("matched above")
            };
            let probe = FusedProbe {
                keys: outer_keys.clone(),
                table: ProbeTable::Built(ctx.next_table()),
            };
            Ok(Box::new(ctx.scan(Scan::new(
                table,
                filter,
                cols,
                Some(probe),
            ))))
        }
        PhysPlan::HashSemiJoin {
            outer,
            outer_keys,
            inner_keys,
            residual,
            ..
        } => {
            let outer = build_worker_pipeline(outer, ctx)?;
            Ok(Box::new(HashSemiJoinOp {
                outer,
                inner: None,
                outer_keys: outer_keys.clone(),
                inner_keys: inner_keys.clone(),
                residual: residual.clone(),
                table: Some(ctx.next_table()),
            }))
        }
        other => Err(ExecError::Type(format!(
            "unexpected operator in parallel worker pipeline: {}",
            other.explain().lines().next().unwrap_or("?")
        ))),
    }
}

/// Worker-side morsel scan: claims page indices from the shared dispenser
/// and emits each page's surviving rows as one or more batches. Batches
/// never span morsels (unlike the serial scan, which cuts its batches
/// across pages) — that invariant is what lets the gather stage order
/// batches by page index.
struct ParallelSeqScanOp {
    scan: Scan,
    dispenser: Arc<MorselDispenser>,
    morsel: Rc<Cell<u64>>,
    runs: Runs,
    done: bool,
}

impl Operator for ParallelSeqScanOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        loop {
            if let Some(batch) = self.runs.pop() {
                return Ok(Some(batch));
            }
            if self.done {
                return Ok(None);
            }
            let idx = self.dispenser.claim();
            if self.scan.read_page(idx, rt, &mut self.runs)? {
                self.morsel.set(idx as u64);
                rt.stats.morsels_dispatched += 1;
                self.runs.end();
            } else {
                self.done = true;
            }
        }
    }
}

/// A worker-to-coordinator message in a gather region.
enum WorkerMsg {
    /// One output batch, tagged with the page index it derives from.
    Batch(u64, RowBatch),
    /// Worker finished; its stats fold into the coordinator's.
    Done(ExecStats),
    Fail(ExecError),
}

fn recv_next(
    rx: &Receiver<WorkerMsg>,
    stats: &mut ExecStats,
    err: &mut Option<ExecError>,
) -> Option<(u64, RowBatch)> {
    match rx.recv() {
        Ok(WorkerMsg::Batch(seq, batch)) => Some((seq, batch)),
        Ok(WorkerMsg::Done(s)) => {
            stats.merge(&s);
            None
        }
        Ok(WorkerMsg::Fail(e)) => {
            err.get_or_insert(e);
            None
        }
        Err(_) => None,
    }
}

/// A fresh worker runtime: same catalog, shared results, batch size and
/// parameter/correlation context as the coordinator, with every read
/// pinned to the coordinator's snapshot (snapshot-correct parallelism).
fn worker_runtime<'a>(rt: &Runtime<'a>) -> Runtime<'a> {
    let mut octx = rt.outer.clone();
    octx.set_visibility(Some(rt.snapshot.clone()));
    let mut wrt = Runtime::with_ctx(rt.catalog, octx);
    wrt.shared = rt.shared.clone();
    wrt.batch_size = rt.batch_size;
    wrt
}

/// Run a gather region to completion: `dop` workers over `pipeline`, then
/// a K-way merge of their seq-tagged streams back into serial row order.
pub(crate) fn run_gather_region(
    rt: &mut Runtime<'_>,
    pipeline: &PhysPlan,
    dop: usize,
) -> Result<Vec<RowBatch>> {
    let dop = dop.max(1);
    let res = prepare_region(rt, pipeline)?;
    rt.stats.parallel_regions += 1;
    rt.stats.parallel_workers += dop as u64;

    let mut merged: Vec<RowBatch> = Vec::new();
    let mut folded = ExecStats::default();
    let mut first_err: Option<ExecError> = None;
    std::thread::scope(|scope| {
        let mut rxs: Vec<Receiver<WorkerMsg>> = Vec::with_capacity(dop);
        for _ in 0..dop {
            let (tx, rx) = sync_channel::<WorkerMsg>(CHANNEL_DEPTH);
            rxs.push(rx);
            let res = &res;
            let mut wrt = worker_runtime(rt);
            scope.spawn(move || {
                let morsel = Rc::new(Cell::new(0u64));
                let run = (|| -> Result<()> {
                    let mut ctx = WorkerCtx {
                        res,
                        next_dispenser: 0,
                        next_table: 0,
                        morsel: Rc::clone(&morsel),
                    };
                    let mut op = build_worker_pipeline(pipeline, &mut ctx)?;
                    while let Some(batch) = op.next_batch(&mut wrt)? {
                        if tx.send(WorkerMsg::Batch(morsel.get(), batch)).is_err() {
                            break; // Coordinator bailed; stop quietly.
                        }
                    }
                    Ok(())
                })();
                let _ = match run {
                    Ok(()) => tx.send(WorkerMsg::Done(wrt.stats)),
                    Err(e) => tx.send(WorkerMsg::Fail(e)),
                };
            });
        }
        // K-way merge by morsel tag. Each worker's stream is sorted (its
        // dispenser claims only increase), so taking the smallest head
        // reproduces the serial page order; a page's batches all come from
        // one worker, in emission order.
        let mut heads: Vec<Option<(u64, RowBatch)>> = rxs
            .iter()
            .map(|rx| recv_next(rx, &mut folded, &mut first_err))
            .collect();
        loop {
            let min = heads
                .iter()
                .enumerate()
                .filter_map(|(w, h)| h.as_ref().map(|(seq, _)| (*seq, w)))
                .min();
            let Some((_, w)) = min else { break };
            let (_, batch) = heads[w].take().unwrap();
            rt.stats.rows_gathered += batch.len() as u64;
            merged.push(batch);
            heads[w] = recv_next(&rxs[w], &mut folded, &mut first_err);
        }
    });
    rt.stats.merge(&folded);
    match first_err {
        Some(e) => Err(e),
        None => Ok(merged),
    }
}

/// Run an aggregate region to completion: `dop` workers fold their morsels
/// into partial group tables; the coordinator absorbs the partials, in
/// worker order, into the first one.
fn run_agg_region<'p>(
    rt: &mut Runtime<'_>,
    pipeline: &PhysPlan,
    group: &'p [PhysExpr],
    aggs: &'p [AggSpec],
    dop: usize,
) -> Result<GroupAcc<'p>> {
    let dop = dop.max(1);
    let res = prepare_region(rt, pipeline)?;
    rt.stats.parallel_regions += 1;
    rt.stats.parallel_workers += dop as u64;

    let partials: Vec<Result<(GroupAcc<'p>, ExecStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..dop)
            .map(|_| {
                let res = &res;
                let mut wrt = worker_runtime(rt);
                scope.spawn(move || -> Result<(GroupAcc<'p>, ExecStats)> {
                    let mut ctx = WorkerCtx {
                        res,
                        next_dispenser: 0,
                        next_table: 0,
                        morsel: Rc::new(Cell::new(0)),
                    };
                    let mut op = build_worker_pipeline(pipeline, &mut ctx)?;
                    let mut acc = GroupAcc::new(group, aggs);
                    while let Some(batch) = op.next_batch(&mut wrt)? {
                        acc.fold(&batch, &wrt.outer)?;
                    }
                    Ok((acc, wrt.stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("aggregate worker panicked"))
            .collect()
    });

    let mut merged: Option<GroupAcc<'p>> = None;
    for partial in partials {
        let (acc, stats) = partial?;
        rt.stats.merge(&stats);
        match merged.as_mut() {
            Some(into) => into.absorb(acc)?,
            None => merged = Some(acc),
        }
    }
    Ok(merged.expect("an aggregate region runs at least one worker"))
}

/// Region root operator for gather regions: runs the region to completion
/// on first pull and streams the merged batches.
pub(crate) struct ExchangeGatherOp {
    pipeline: PhysPlan,
    dop: usize,
    buffered: Option<VecDeque<RowBatch>>,
}

impl ExchangeGatherOp {
    pub(crate) fn new(pipeline: PhysPlan, dop: usize) -> ExchangeGatherOp {
        ExchangeGatherOp {
            pipeline,
            dop,
            buffered: None,
        }
    }
}

impl Operator for ExchangeGatherOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.buffered.is_none() {
            let batches = run_gather_region(rt, &self.pipeline, self.dop)?;
            self.buffered = Some(batches.into());
        }
        Ok(self.buffered.as_mut().unwrap().pop_front())
    }
}

/// Region root operator for partial→final parallel aggregation. Merges the
/// workers' partial tables, then finishes (HAVING, output expressions,
/// deterministic sort) exactly like the serial `HashAggregateOp`.
pub(crate) struct ParallelHashAggregateOp {
    input: PhysPlan,
    group: Vec<PhysExpr>,
    aggs: Vec<AggSpec>,
    having: Vec<PhysExpr>,
    output: Vec<PhysExpr>,
    dop: usize,
    /// The result rows still to emit, computed on the first pull.
    results: Option<std::vec::IntoIter<Row>>,
}

impl ParallelHashAggregateOp {
    pub(crate) fn new(
        input: PhysPlan,
        group: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        having: Vec<PhysExpr>,
        output: Vec<PhysExpr>,
        dop: usize,
    ) -> ParallelHashAggregateOp {
        ParallelHashAggregateOp {
            input,
            group,
            aggs,
            having,
            output,
            dop,
            results: None,
        }
    }
}

impl Operator for ParallelHashAggregateOp {
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<RowBatch>> {
        if self.results.is_none() {
            let acc = run_agg_region(rt, &self.input, &self.group, &self.aggs, self.dop)?;
            let rows = finalize_groups(acc, &self.having, &self.output, &rt.outer)?;
            self.results = Some(rows.into_iter());
        }
        let rows = self.results.as_mut().expect("finalized above");
        Ok(next_chunk(rows, self.output.len(), rt.batch_size))
    }
}
