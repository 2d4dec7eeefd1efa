//! Parallel plan selection: rewrite a serial physical plan into
//! morsel-driven parallel regions.
//!
//! The pass is bottom-up. A *worker pipeline* grows from a
//! [`PhysPlan::ParallelSeqScan`] leaf (any base-table or matview scan over
//! at least [`PlanOptions::parallel_min_pages`] heap pages): `Filter` and
//! `Project` fuse straight into it, and so do a `HashJoin` whose probe
//! (left) side is a worker pipeline and a `HashSemiJoin` whose outer side
//! is one. Their build input (the join's right, the semijoin's inner)
//! stays serial, closed with its own gather if it parallelizes: at run
//! time the coordinator builds one table from it and every worker probes
//! that table. A `HashAggregate` over a worker pipeline becomes the region
//! root [`PhysPlan::ParallelHashAggregate`] (partial→final aggregation).
//! Every other operator is a serial boundary: an open worker pipeline
//! below it is closed with an [`PhysPlan::ExchangeGather`], whose
//! morsel-order merge keeps the gathered row order identical to the
//! serial plan's.
//!
//! Deliberately serial:
//! - `Limit` without a blocking `Sort` below it — the serial scan's
//!   early-out is worth more than parallel reads that get thrown away;
//! - `SubqueryFilter` subplans — they re-instantiate per outer tuple;
//! - `SharedScan` — common subexpressions are already materialised once
//!   (their *producing* plans parallelize on their own);
//! - `IndexEq` — point lookups have nothing to fan out;
//! - `IndexNlJoin` and `IndexSemiJoin` — the planner picks them only when
//!   their probes touch a small share of the indexed table, so there is no
//!   scan to split; their driver side (left / inner) is closed with its
//!   own gather if it parallelizes.

use crate::physical::PhysPlan;
use crate::planner::PlanOptions;
use xnf_storage::Catalog;

/// Rewrite `plan` in place, introducing parallel regions where profitable.
/// A no-op when `options.dop <= 1`.
pub(crate) fn parallelize(catalog: &Catalog, plan: &mut PhysPlan, options: &PlanOptions) {
    if options.dop <= 1 {
        return;
    }
    let owned = std::mem::replace(plan, PhysPlan::Values { rows: Vec::new() });
    *plan = close(go(catalog, owned, options), options.dop);
}

/// A partially rewritten subtree: either an open worker pipeline (its
/// leaves are parallel scans; it still needs a region root) or a finished
/// serial plan.
enum Lowered {
    Pipeline(PhysPlan),
    Serial(PhysPlan),
}

impl Lowered {
    /// Wrap the subtree in `f`, keeping it open or finished as it was.
    fn map(self, f: impl FnOnce(PhysPlan) -> PhysPlan) -> Lowered {
        match self {
            Lowered::Pipeline(p) => Lowered::Pipeline(f(p)),
            Lowered::Serial(s) => Lowered::Serial(f(s)),
        }
    }
}

/// Close an open worker pipeline with its gather region root.
fn close(l: Lowered, dop: usize) -> PhysPlan {
    match l {
        Lowered::Pipeline(p) => PhysPlan::ExchangeGather {
            input: Box::new(p),
            dop,
        },
        Lowered::Serial(p) => p,
    }
}

/// Is a scan of `name` (base table or matview backing table) big enough to
/// feed several workers? Uses the live heap page count, not ANALYZE stats,
/// so freshly loaded tables qualify without a stats pass.
fn scan_parallelizable(catalog: &Catalog, name: &str, options: &PlanOptions) -> bool {
    catalog
        .table(name)
        .map(|t| t.page_count() >= options.parallel_min_pages.max(1))
        .unwrap_or(false)
}

fn go(cat: &Catalog, plan: PhysPlan, o: &PlanOptions) -> Lowered {
    let dop = o.dop;
    match plan {
        PhysPlan::SeqScan {
            table,
            filter,
            cols,
        } if scan_parallelizable(cat, &table, o) => Lowered::Pipeline(PhysPlan::ParallelSeqScan {
            table,
            filter,
            cols,
        }),
        PhysPlan::MatViewScan { view, filter, cols } if scan_parallelizable(cat, &view, o) => {
            Lowered::Pipeline(PhysPlan::ParallelSeqScan {
                table: view,
                filter,
                cols,
            })
        }
        PhysPlan::Filter { input, preds } => go(cat, *input, o).map(|p| PhysPlan::Filter {
            input: Box::new(p),
            preds,
        }),
        PhysPlan::Project { input, exprs } => go(cat, *input, o).map(|p| PhysPlan::Project {
            input: Box::new(p),
            exprs,
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let right = Box::new(close(go(cat, *right, o), dop));
            go(cat, *left, o).map(|p| PhysPlan::HashJoin {
                left: Box::new(p),
                right,
                left_keys,
                right_keys,
                residual,
            })
        }
        PhysPlan::HashAggregate {
            input,
            group,
            aggs,
            having,
            output,
        } => match go(cat, *input, o) {
            Lowered::Pipeline(p) => Lowered::Serial(PhysPlan::ParallelHashAggregate {
                input: Box::new(p),
                group,
                aggs,
                having,
                output,
                dop,
            }),
            Lowered::Serial(s) => Lowered::Serial(PhysPlan::HashAggregate {
                input: Box::new(s),
                group,
                aggs,
                having,
                output,
            }),
        },
        PhysPlan::Sort { input, specs } => Lowered::Serial(PhysPlan::Sort {
            input: Box::new(close(go(cat, *input, o), dop)),
            specs,
        }),
        PhysPlan::HashDistinct { input } => Lowered::Serial(PhysPlan::HashDistinct {
            // The gather's morsel-order merge preserves the serial row
            // order, so first-occurrence DISTINCT semantics are unchanged.
            input: Box::new(close(go(cat, *input, o), dop)),
        }),
        PhysPlan::UnionAll { inputs } => Lowered::Serial(PhysPlan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(|i| close(go(cat, i, o), dop))
                .collect(),
        }),
        PhysPlan::NlJoin { left, right, preds } => Lowered::Serial(PhysPlan::NlJoin {
            left: Box::new(close(go(cat, *left, o), dop)),
            right: Box::new(close(go(cat, *right, o), dop)),
            preds,
        }),
        PhysPlan::HashSemiJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => {
            let inner = Box::new(close(go(cat, *inner, o), dop));
            go(cat, *outer, o).map(|p| PhysPlan::HashSemiJoin {
                outer: Box::new(p),
                inner,
                outer_keys,
                inner_keys,
                residual,
            })
        }
        PhysPlan::IndexNlJoin {
            left,
            table,
            index,
            key,
            filter,
            residual,
        } => Lowered::Serial(PhysPlan::IndexNlJoin {
            left: Box::new(close(go(cat, *left, o), dop)),
            table,
            index,
            key,
            filter,
            residual,
        }),
        PhysPlan::IndexSemiJoin {
            table,
            index,
            filter,
            inner,
            inner_key,
        } => Lowered::Serial(PhysPlan::IndexSemiJoin {
            table,
            index,
            filter,
            inner: Box::new(close(go(cat, *inner, o), dop)),
            inner_key,
        }),
        PhysPlan::NlSemiJoin {
            outer,
            inner,
            preds,
        } => Lowered::Serial(PhysPlan::NlSemiJoin {
            outer: Box::new(close(go(cat, *outer, o), dop)),
            inner: Box::new(close(go(cat, *inner, o), dop)),
            preds,
        }),
        PhysPlan::SubqueryFilter {
            input,
            subplan,
            bindings,
            anti,
        } => Lowered::Serial(PhysPlan::SubqueryFilter {
            input: Box::new(close(go(cat, *input, o), dop)),
            // The subplan re-instantiates per outer tuple; spawning a
            // worker fleet per tuple would be a pessimisation.
            subplan,
            bindings,
            anti,
        }),
        PhysPlan::Limit { input, n } => {
            // Parallel scans read whole pages ahead of the merge, so a
            // streaming Limit keeps its serial early-out. A blocking Sort
            // below the Limit already reads everything — descend into it.
            let input = match *input {
                sort @ PhysPlan::Sort { .. } => close(go(cat, sort, o), dop),
                other => other,
            };
            Lowered::Serial(PhysPlan::Limit {
                input: Box::new(input),
                n,
            })
        }
        // Serial leaves (and any plan this pass already processed).
        other => Lowered::Serial(other),
    }
}
