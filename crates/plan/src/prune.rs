//! Scan column pruning: record on every full scan the columns its plan
//! reads, so the heap decodes only those, and on every `SharedScan` the
//! slots its consumers read, so it clones only those.
//!
//! The pass is top-down and runs last, after parallel plan selection. Each
//! node learns which of its output slots its consumers read and passes on
//! what it reads of its inputs: a filter adds its predicates' columns, a
//! join splits the set between its inputs at the left input's width and
//! adds its keys and residual, an aggregate reads only its group and
//! argument expressions, and a sort adds its keys. Operators that compare or
//! bind whole rows — `HashDistinct`, `UnionAll`, `NlJoin`,
//! `SubqueryFilter` (its input and its subplan) — read every column, and so
//! does every plan root: the output streams and the shared (cse) producers.
//! A scan records its set as `cols` only when it is strictly narrower than
//! the table, and a `SharedScan` (slot 0 = rowid) only when it skips some
//! column of the shared result; a skipped slot reads as `NULL`, so no `#n`
//! anywhere in the plan changes. A shared producer still computes every
//! column, whatever its consumers read.

use std::collections::BTreeSet;

use xnf_storage::Catalog;

use crate::physical::{PhysExpr, PhysPlan, QepOutput};

/// The output slots a node's consumers read; `None` = every slot.
type Need = Option<BTreeSet<usize>>;

/// Record scan column sets on every plan of a QEP. Shared plans come in
/// dependency order, so each one's width is known before a later plan
/// scans it.
pub(crate) fn prune_scans(catalog: &Catalog, shared: &mut [PhysPlan], outputs: &mut [QepOutput]) {
    let mut cx = Pruner {
        catalog,
        shared_widths: Vec::with_capacity(shared.len()),
    };
    for plan in shared.iter_mut() {
        cx.prune(plan, None);
        let width = cx.width(plan);
        cx.shared_widths.push(width);
    }
    for out in outputs {
        cx.prune(&mut out.plan, None);
    }
}

struct Pruner<'a> {
    catalog: &'a Catalog,
    /// Output width of each shared plan pruned so far (`None` = unknown).
    shared_widths: Vec<Option<usize>>,
}

/// `need` plus the slots `exprs` read (still every slot if `need` was).
fn with_cols<'e>(need: Need, exprs: impl IntoIterator<Item = &'e PhysExpr>) -> Need {
    need.map(|mut set| {
        exprs.into_iter().for_each(|e| e.add_cols(&mut set));
        set
    })
}

/// Exactly the slots `exprs` read.
fn cols_of<'e>(exprs: impl IntoIterator<Item = &'e PhysExpr>) -> Need {
    with_cols(Some(BTreeSet::new()), exprs)
}

/// Split a need over a combined `left ++ right` row at the left width.
/// Unknown width: both sides keep every column.
fn split(need: Need, left_width: Option<usize>) -> (Need, Need) {
    match (need, left_width) {
        (Some(set), Some(w)) => {
            let (l, r): (BTreeSet<usize>, BTreeSet<usize>) = set.into_iter().partition(|&c| c < w);
            (Some(l), Some(r.into_iter().map(|c| c - w).collect()))
        }
        _ => (None, None),
    }
}

/// The union of two needs (`None` absorbs).
fn union(a: Need, b: Need) -> Need {
    match (a, b) {
        (Some(mut a), Some(b)) => {
            a.extend(b);
            Some(a)
        }
        _ => None,
    }
}

impl Pruner<'_> {
    fn table_width(&self, name: &str) -> Option<usize> {
        self.catalog.table(name).ok().map(|t| t.schema.len())
    }

    /// Output row width of a `SharedScan` of shared plan `id`: its rowid
    /// and the shared plan's columns.
    fn shared_scan_width(&self, id: usize) -> Option<usize> {
        self.shared_widths.get(id).copied().flatten().map(|w| w + 1)
    }

    /// Output row width of `plan`, if known.
    fn width(&self, plan: &PhysPlan) -> Option<usize> {
        match plan {
            PhysPlan::Values { rows } => Some(rows.first().map_or(0, Vec::len)),
            PhysPlan::SeqScan { table, .. }
            | PhysPlan::ParallelSeqScan { table, .. }
            | PhysPlan::MatViewScan { view: table, .. }
            | PhysPlan::IndexEq { table, .. }
            | PhysPlan::IndexSemiJoin { table, .. } => self.table_width(table),
            PhysPlan::SharedScan { id, .. } => self.shared_scan_width(*id),
            PhysPlan::Filter { input, .. }
            | PhysPlan::HashDistinct { input }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::SubqueryFilter { input, .. }
            | PhysPlan::ExchangeGather { input, .. }
            | PhysPlan::HashSemiJoin { outer: input, .. }
            | PhysPlan::NlSemiJoin { outer: input, .. } => self.width(input),
            PhysPlan::Project { exprs, .. } => Some(exprs.len()),
            PhysPlan::HashAggregate { output, .. }
            | PhysPlan::ParallelHashAggregate { output, .. } => Some(output.len()),
            PhysPlan::HashJoin { left, right, .. } | PhysPlan::NlJoin { left, right, .. } => {
                Some(self.width(left)? + self.width(right)?)
            }
            PhysPlan::IndexNlJoin { left, table, .. } => {
                Some(self.width(left)? + self.table_width(table)?)
            }
            PhysPlan::UnionAll { inputs } => inputs.first().and_then(|p| self.width(p)),
        }
    }

    /// Record scan column sets below `plan`, whose consumers read `need`.
    fn prune(&self, plan: &mut PhysPlan, need: Need) {
        match plan {
            PhysPlan::SeqScan {
                table,
                filter,
                cols,
            }
            | PhysPlan::ParallelSeqScan {
                table,
                filter,
                cols,
            }
            | PhysPlan::MatViewScan {
                view: table,
                filter,
                cols,
            } => {
                let width = self.table_width(table);
                *cols = with_cols(need, filter.iter())
                    .filter(|set| width.is_some_and(|w| set.len() < w))
                    .map(|set| set.into_iter().collect());
            }
            PhysPlan::SharedScan { id, cols } => {
                // Recorded only when some column of the shared result goes
                // unread: the rowid alone is not worth a `cols`.
                let width = self.shared_scan_width(*id);
                *cols = need
                    .filter(|set| width.is_some_and(|w| (1..w).any(|c| !set.contains(&c))))
                    .map(|set| set.into_iter().collect());
            }
            PhysPlan::Values { .. } | PhysPlan::IndexEq { .. } => {}
            PhysPlan::Filter { input, preds } => self.prune(input, with_cols(need, preds.iter())),
            PhysPlan::Project { input, exprs } => {
                let read = match need {
                    None => cols_of(exprs.iter()),
                    Some(set) => cols_of(set.iter().filter_map(|&i| exprs.get(i))),
                };
                self.prune(input, read);
            }
            PhysPlan::Limit { input, .. } | PhysPlan::ExchangeGather { input, .. } => {
                self.prune(input, need)
            }
            PhysPlan::Sort { input, specs } => {
                let need = need.map(|mut set| {
                    set.extend(specs.iter().map(|s| s.col));
                    set
                });
                self.prune(input, need);
            }
            PhysPlan::HashAggregate {
                input, group, aggs, ..
            }
            | PhysPlan::ParallelHashAggregate {
                input, group, aggs, ..
            } => {
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                self.prune(input, cols_of(group.iter().chain(args)));
            }
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let (l, r) = split(with_cols(need, residual.iter()), self.width(left));
                self.prune(left, with_cols(l, left_keys.iter()));
                self.prune(right, with_cols(r, right_keys.iter()));
            }
            PhysPlan::IndexNlJoin {
                left,
                key,
                residual,
                ..
            } => {
                let (l, _) = split(with_cols(need, residual.iter()), self.width(left));
                self.prune(left, with_cols(l, [&*key]));
            }
            PhysPlan::IndexSemiJoin {
                inner, inner_key, ..
            } => self.prune(inner, cols_of([&*inner_key])),
            PhysPlan::HashSemiJoin {
                outer,
                inner,
                outer_keys,
                inner_keys,
                residual,
            } => {
                // Only the outer row is emitted: `need` is over it alone.
                let (o, i) = split(cols_of(residual.iter()), self.width(outer));
                self.prune(outer, with_cols(union(need, o), outer_keys.iter()));
                self.prune(inner, with_cols(i, inner_keys.iter()));
            }
            PhysPlan::NlSemiJoin {
                outer,
                inner,
                preds,
            } => {
                let (o, i) = split(cols_of(preds.iter()), self.width(outer));
                self.prune(outer, union(need, o));
                self.prune(inner, i);
            }
            PhysPlan::NlJoin { left, right, .. } => {
                self.prune(left, None);
                self.prune(right, None);
            }
            PhysPlan::SubqueryFilter { input, subplan, .. } => {
                self.prune(input, None);
                self.prune(subplan, None);
            }
            PhysPlan::HashDistinct { input } => self.prune(input, None),
            PhysPlan::UnionAll { inputs } => inputs.iter_mut().for_each(|p| self.prune(p, None)),
        }
    }
}
