//! Physical plans and physical expressions.
//!
//! A physical expression references *slots* of the current row (and, for
//! correlated subqueries, columns of outer rows through a binding context).
//! A physical plan is a tree of operators that the execution engine
//! interprets under the **batch protocol**: every operator exchanges
//! [`RowBatch`] chunks of rows (`Operator::next_batch` in `xnf-exec`,
//! default [`DEFAULT_BATCH_SIZE`] rows per chunk, tunable through
//! [`PlanOptions::batch_size`]) rather than single tuples, so virtual
//! dispatch and per-operator set-up amortise over a whole chunk. A chunk
//! is one flat row-major buffer, so moving rows through the streaming
//! operators allocates per chunk, not per row.
//!
//! Shared subexpressions ("table queues" in Starburst terminology) appear
//! as [`PhysPlan::SharedScan`] nodes referring to a materialised batch
//! sequence that the execution engine computes once. Shared scans expose
//! the tuple's position as a leading *rowid* column — the system-generated
//! identifier that CO connection streams project (Sect. 5.0 of the paper).
//! Queries over materialized views plan as [`PhysPlan::MatViewScan`] (or
//! [`PhysPlan::IndexEq`] over the backing table when a maintenance index
//! matches), surfacing in EXPLAIN as `matview scan`.
//!
//! [`RowBatch`]: ../xnf_exec/batch/struct.RowBatch.html
//! [`PlanOptions::batch_size`]: crate::PlanOptions#structfield.batch_size

use std::collections::BTreeSet;
use std::fmt;

use xnf_qgm::QunId;
use xnf_sql::{AggFunc, BinOp, ScalarFunc, UnaryOp};
use xnf_storage::Value;

/// Identifier of a shared (materialised) subplan.
pub type SharedId = usize;

/// Default row capacity of one execution batch: operators exchange
/// `RowBatch`-sized chunks instead of single rows, so virtual dispatch
/// and per-operator bookkeeping amortise over this many tuples.
/// Tunable per query via [`crate::PlanOptions::batch_size`].
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A physical scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    Literal(Value),
    /// Positional parameter, resolved from the execution-time binding table.
    Param(usize),
    /// Slot in the operator's current row.
    Col(usize),
    /// Correlated reference resolved from the outer-binding context.
    Outer {
        qun: QunId,
        col: usize,
    },
    Unary {
        op: UnaryOp,
        expr: Box<PhysExpr>,
    },
    Binary {
        left: Box<PhysExpr>,
        op: BinOp,
        right: Box<PhysExpr>,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Func {
        func: ScalarFunc,
        args: Vec<PhysExpr>,
    },
    /// Reference to an aggregate result slot (inside HashAggregate output
    /// expressions only).
    AggRef(usize),
}

impl PhysExpr {
    pub fn col(i: usize) -> PhysExpr {
        PhysExpr::Col(i)
    }

    /// Add the row slots this expression reads to `set`.
    pub fn add_cols(&self, set: &mut BTreeSet<usize>) {
        match self {
            PhysExpr::Col(i) => {
                set.insert(*i);
            }
            PhysExpr::Literal(_)
            | PhysExpr::Param(_)
            | PhysExpr::Outer { .. }
            | PhysExpr::AggRef(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Like { expr, .. } => expr.add_cols(set),
            PhysExpr::Binary { left, right, .. } => {
                left.add_cols(set);
                right.add_cols(set);
            }
            PhysExpr::InList { expr, list, .. } => {
                expr.add_cols(set);
                list.iter().for_each(|e| e.add_cols(set));
            }
            PhysExpr::Func { args, .. } => args.iter().for_each(|e| e.add_cols(set)),
        }
    }
}

impl fmt::Display for PhysExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysExpr::Literal(v) => write!(f, "{v}"),
            PhysExpr::Param(i) => write!(f, "?{i}"),
            PhysExpr::Col(i) => write!(f, "#{i}"),
            PhysExpr::Outer { qun, col } => write!(f, "outer(q{qun}.c{col})"),
            PhysExpr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => write!(f, "-{expr}"),
            PhysExpr::Unary {
                op: UnaryOp::Not,
                expr,
            } => write!(f, "NOT({expr})"),
            PhysExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            PhysExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "{expr} {}LIKE '{pattern}'",
                    if *negated { "NOT " } else { "" }
                )
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(",")
                )
            }
            PhysExpr::Func { func, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{func}({})", items.join(","))
            }
            PhysExpr::AggRef(i) => write!(f, "agg#{i}"),
        }
    }
}

/// Aggregate computation spec for [`PhysPlan::HashAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument expression over the input row; `None` = COUNT(*).
    pub arg: Option<PhysExpr>,
    pub distinct: bool,
}

/// Sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSpec {
    pub col: usize,
    pub desc: bool,
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Constant relation (used for FROM-less selects).
    Values {
        rows: Vec<Vec<PhysExpr>>,
    },
    /// Full scan of a base table with a residual filter. `cols` lists (in
    /// ascending order) the only columns the filter and the scan's
    /// consumers read, when those are fewer than the table has: the scan
    /// decodes just those and leaves `NULL` in every other slot, so slot
    /// numbers never change. `None` decodes every column.
    SeqScan {
        table: String,
        filter: Vec<PhysExpr>,
        cols: Option<Vec<usize>>,
    },
    /// Equality index lookup: `key` expressions are execution-time
    /// constants (literals or `?` parameters), evaluated once per run;
    /// residual filter applies after. Rows come in heap scan order, so the
    /// lookup returns what the filtered [`PhysPlan::SeqScan`] it replaces
    /// would, in the same order.
    IndexEq {
        table: String,
        index: String,
        key: Vec<PhysExpr>,
        filter: Vec<PhysExpr>,
    },
    /// Scan of a materialised shared subplan. Emits `[rowid, cols...]`.
    /// `cols` lists (in ascending order) the only slots its consumers read,
    /// slot 0 being the rowid, when they skip some column of the shared
    /// result: the scan copies just those and leaves `NULL` in every other
    /// slot, so slot numbers never change. `None` copies every slot.
    SharedScan {
        id: SharedId,
        cols: Option<Vec<usize>>,
    },
    /// Full scan of a materialized view's backing table with a residual
    /// filter — same runtime behaviour as [`PhysPlan::SeqScan`] (the name
    /// resolves through the catalog's backing-table fallback), but labelled
    /// `matview scan` in EXPLAIN so plans show where stored view contents
    /// are served from. `cols` as for `SeqScan`.
    MatViewScan {
        view: String,
        filter: Vec<PhysExpr>,
        cols: Option<Vec<usize>>,
    },
    Filter {
        input: Box<PhysPlan>,
        preds: Vec<PhysExpr>,
    },
    Project {
        input: Box<PhysPlan>,
        exprs: Vec<PhysExpr>,
    },
    /// Hash equi-join; output row = left ++ right.
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        /// Residual predicates over the combined row.
        residual: Vec<PhysExpr>,
    },
    /// Nested-loops join with an arbitrary predicate over the combined row.
    NlJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        preds: Vec<PhysExpr>,
    },
    /// Index nested-loops equi-join; output row = left ++ right, like the
    /// [`PhysPlan::HashJoin`] over a `SeqScan(table)` right leg it
    /// replaces. For each left row, `key` (over the left row) probes the
    /// single-column `index`; the matching table rows that pass `filter`
    /// (over the table row) come in heap scan order, and `residual` applies
    /// over the combined row.
    IndexNlJoin {
        left: Box<PhysPlan>,
        table: String,
        index: String,
        key: PhysExpr,
        filter: Vec<PhysExpr>,
        residual: Vec<PhysExpr>,
    },
    /// Hash semijoin: emits outer rows with an inner match.
    HashSemiJoin {
        outer: Box<PhysPlan>,
        inner: Box<PhysPlan>,
        outer_keys: Vec<PhysExpr>,
        /// Keys over the inner row.
        inner_keys: Vec<PhysExpr>,
        /// Residual over outer ++ inner (must hold for a match).
        residual: Vec<PhysExpr>,
    },
    /// Index semijoin: emits the rows of `table` whose indexed column
    /// equals some `inner_key` value of the inner rows, like the
    /// [`PhysPlan::HashSemiJoin`] over a `SeqScan(table)` outer it
    /// replaces. The inner side is drained into a distinct key set, the
    /// single-column `index` is probed once per key, and the rows that pass
    /// `filter` come in heap scan order.
    IndexSemiJoin {
        table: String,
        index: String,
        filter: Vec<PhysExpr>,
        inner: Box<PhysPlan>,
        inner_key: PhysExpr,
    },
    /// Nested-loops semijoin for non-equi conditions.
    NlSemiJoin {
        outer: Box<PhysPlan>,
        inner: Box<PhysPlan>,
        preds: Vec<PhysExpr>,
    },
    /// Tuple-at-a-time correlated subquery evaluation: for every input row,
    /// execute `subplan` with the row's leg values bound in the context; the
    /// row passes if the subplan yields (anti: does not yield) a row.
    /// This is the *naive* strategy of Sect. 3.2 that E-to-F replaces.
    SubqueryFilter {
        input: Box<PhysPlan>,
        subplan: Box<PhysPlan>,
        /// `(qun, offset, width)`: which slice of the input row binds which
        /// outer quantifier for the subplan's `Outer` references.
        bindings: Vec<(QunId, usize, usize)>,
        anti: bool,
    },
    /// Hash aggregation. Output row = group values ++ aggregate results,
    /// then `output` expressions produce the head (AggRef(i) = agg slot i);
    /// `having` filters on the same basis.
    HashAggregate {
        input: Box<PhysPlan>,
        group: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        having: Vec<PhysExpr>,
        output: Vec<PhysExpr>,
    },
    HashDistinct {
        input: Box<PhysPlan>,
    },
    /// Concatenation of inputs (UNION ALL); wrap in HashDistinct for UNION.
    UnionAll {
        inputs: Vec<PhysPlan>,
    },
    Sort {
        input: Box<PhysPlan>,
        specs: Vec<SortSpec>,
    },
    Limit {
        input: Box<PhysPlan>,
        n: u64,
    },
    /// Morsel-driven parallel scan of a base table (or a materialized
    /// view's backing table): N workers pull page morsels from a shared
    /// atomic dispenser and run their copy of the enclosing worker
    /// pipeline over them. Valid only inside a parallel region rooted at
    /// [`PhysPlan::ExchangeGather`] or [`PhysPlan::ParallelHashAggregate`].
    /// `cols` as for `SeqScan`.
    ParallelSeqScan {
        table: String,
        filter: Vec<PhysExpr>,
        cols: Option<Vec<usize>>,
    },
    /// Parallel-region root: runs `input` (a worker pipeline of parallel
    /// scans, filters, projections and hash-join probes) on `dop`
    /// workers and merges their batch streams in morsel order, so the
    /// gathered output has exactly the serial plan's row order.
    ExchangeGather {
        input: Box<PhysPlan>,
        dop: usize,
    },
    /// Parallel-region root for partial→final aggregation: `dop` workers
    /// fold their morsels into partial per-group accumulator tables; the
    /// coordinator merges the partials, then applies HAVING and the output
    /// expressions exactly like [`PhysPlan::HashAggregate`].
    ParallelHashAggregate {
        input: Box<PhysPlan>,
        group: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        having: Vec<PhysExpr>,
        output: Vec<PhysExpr>,
        dop: usize,
    },
}

impl PhysPlan {
    /// Pretty EXPLAIN output.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(0, &mut s);
        s
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::Values { rows } => {
                let _ = writeln!(out, "{pad}Values({} rows)", rows.len());
            }
            PhysPlan::SeqScan {
                table,
                filter,
                cols,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}SeqScan({table}) filter={}{}",
                    fmt_preds(filter),
                    fmt_cols(cols)
                );
            }
            PhysPlan::IndexEq {
                table,
                index,
                key,
                filter,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexEq({table}.{index}) key={} filter={}",
                    fmt_exprs(key),
                    fmt_preds(filter)
                );
            }
            PhysPlan::SharedScan { id, cols } => {
                let _ = writeln!(out, "{pad}SharedScan(cse{id}){}", fmt_cols(cols));
            }
            PhysPlan::MatViewScan { view, filter, cols } => {
                let _ = writeln!(
                    out,
                    "{pad}matview scan({view}) filter={}{}",
                    fmt_preds(filter),
                    fmt_cols(cols)
                );
            }
            PhysPlan::Filter { input, preds } => {
                let _ = writeln!(out, "{pad}Filter {}", fmt_preds(preds));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Project { input, exprs } => {
                let _ = writeln!(out, "{pad}Project {}", fmt_exprs(exprs));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin l={} r={} residual={}",
                    fmt_exprs(left_keys),
                    fmt_exprs(right_keys),
                    fmt_preds(residual)
                );
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PhysPlan::NlJoin { left, right, preds } => {
                let _ = writeln!(out, "{pad}NlJoin {}", fmt_preds(preds));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PhysPlan::IndexNlJoin {
                left,
                table,
                index,
                key,
                filter,
                residual,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexNlJoin({table}.{index}) l=[{key}] filter={} residual={}",
                    fmt_preds(filter),
                    fmt_preds(residual)
                );
                left.explain_into(depth + 1, out);
            }
            PhysPlan::IndexSemiJoin {
                table,
                index,
                filter,
                inner,
                inner_key,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexSemiJoin({table}.{index}) i=[{inner_key}] filter={}",
                    fmt_preds(filter)
                );
                inner.explain_into(depth + 1, out);
            }
            PhysPlan::HashSemiJoin {
                outer,
                inner,
                outer_keys,
                inner_keys,
                residual,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashSemiJoin o={} i={} residual={}",
                    fmt_exprs(outer_keys),
                    fmt_exprs(inner_keys),
                    fmt_preds(residual)
                );
                outer.explain_into(depth + 1, out);
                inner.explain_into(depth + 1, out);
            }
            PhysPlan::NlSemiJoin {
                outer,
                inner,
                preds,
            } => {
                let _ = writeln!(out, "{pad}NlSemiJoin {}", fmt_preds(preds));
                outer.explain_into(depth + 1, out);
                inner.explain_into(depth + 1, out);
            }
            PhysPlan::SubqueryFilter {
                input,
                subplan,
                anti,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}SubqueryFilter{} (tuple-at-a-time)",
                    if *anti { " NOT" } else { "" }
                );
                input.explain_into(depth + 1, out);
                subplan.explain_into(depth + 1, out);
            }
            PhysPlan::HashAggregate {
                input, group, aggs, ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate group={} aggs={}",
                    fmt_exprs(group),
                    aggs.len()
                );
                input.explain_into(depth + 1, out);
            }
            PhysPlan::HashDistinct { input } => {
                let _ = writeln!(out, "{pad}HashDistinct");
                input.explain_into(depth + 1, out);
            }
            PhysPlan::UnionAll { inputs } => {
                let _ = writeln!(out, "{pad}UnionAll({})", inputs.len());
                for i in inputs {
                    i.explain_into(depth + 1, out);
                }
            }
            PhysPlan::Sort { input, specs } => {
                let keys: Vec<String> = specs
                    .iter()
                    .map(|s| format!("#{}{}", s.col, if s.desc { " DESC" } else { "" }))
                    .collect();
                let _ = writeln!(out, "{pad}Sort {}", keys.join(", "));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Limit { input, n } => {
                let _ = writeln!(out, "{pad}Limit {n}");
                input.explain_into(depth + 1, out);
            }
            PhysPlan::ParallelSeqScan {
                table,
                filter,
                cols,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}ParallelSeqScan({table}) filter={}{}",
                    fmt_preds(filter),
                    fmt_cols(cols)
                );
            }
            PhysPlan::ExchangeGather { input, dop } => {
                let _ = writeln!(out, "{pad}ExchangeGather(dop={dop}) merge=morsel-order");
                input.explain_into(depth + 1, out);
            }
            PhysPlan::ParallelHashAggregate {
                input,
                group,
                aggs,
                dop,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}ParallelHashAggregate(dop={dop}) group={} aggs={}",
                    fmt_exprs(group),
                    aggs.len()
                );
                input.explain_into(depth + 1, out);
            }
        }
    }

    /// Count operator nodes of a given kind name (used by experiments).
    pub fn count_ops(&self, pred: &mut impl FnMut(&PhysPlan) -> bool) -> usize {
        let mut n = if pred(self) { 1 } else { 0 };
        match self {
            PhysPlan::Values { .. }
            | PhysPlan::SeqScan { .. }
            | PhysPlan::IndexEq { .. }
            | PhysPlan::SharedScan { .. }
            | PhysPlan::MatViewScan { .. }
            | PhysPlan::ParallelSeqScan { .. } => {}
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::HashDistinct { input }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::HashAggregate { input, .. }
            | PhysPlan::ExchangeGather { input, .. }
            | PhysPlan::ParallelHashAggregate { input, .. }
            | PhysPlan::IndexNlJoin { left: input, .. }
            | PhysPlan::IndexSemiJoin { inner: input, .. } => n += input.count_ops(pred),
            PhysPlan::HashJoin { left, right, .. } | PhysPlan::NlJoin { left, right, .. } => {
                n += left.count_ops(pred) + right.count_ops(pred);
            }
            PhysPlan::HashSemiJoin { outer, inner, .. }
            | PhysPlan::NlSemiJoin { outer, inner, .. } => {
                n += outer.count_ops(pred) + inner.count_ops(pred);
            }
            PhysPlan::SubqueryFilter { input, subplan, .. } => {
                n += input.count_ops(pred) + subplan.count_ops(pred);
            }
            PhysPlan::UnionAll { inputs } => {
                for i in inputs {
                    n += i.count_ops(pred);
                }
            }
        }
        n
    }
}

fn fmt_exprs(es: &[PhysExpr]) -> String {
    let v: Vec<String> = es.iter().map(|e| e.to_string()).collect();
    format!("[{}]", v.join(", "))
}

fn fmt_preds(es: &[PhysExpr]) -> String {
    if es.is_empty() {
        "[]".to_string()
    } else {
        fmt_exprs(es)
    }
}

/// A scan's ` cols=[…]` suffix; empty when it decodes every column.
fn fmt_cols(cols: &Option<Vec<usize>>) -> String {
    match cols {
        Some(c) => format!(" cols={c:?}"),
        None => String::new(),
    }
}

/// A complete executable query: shared subplans (in dependency order — a
/// shared plan may reference lower-numbered shared ids only) plus the output
/// streams.
#[derive(Debug, Clone)]
pub struct Qep {
    /// Materialised common subexpressions ("table queues").
    pub shared: Vec<PhysPlan>,
    /// Output streams in delivery order, with their descriptors.
    pub outputs: Vec<QepOutput>,
    /// Row capacity of the batches the executor streams between operators
    /// (and materialises table queues in).
    pub batch_size: usize,
    /// Degree of parallelism the plans were compiled for: worker count of
    /// every parallel region. 1 = fully serial plans (no parallel
    /// operators).
    pub dop: usize,
    /// A recursive CO's reachability, applied by the executor once the
    /// outputs ran (copied from [`xnf_qgm::Qgm::reach`]).
    pub reach: Option<xnf_qgm::Reach>,
}

/// One output stream of a QEP.
#[derive(Debug, Clone)]
pub struct QepOutput {
    pub name: String,
    pub kind: xnf_qgm::OutputKind,
    pub plan: PhysPlan,
    /// Column names of the stream.
    pub columns: Vec<String>,
}

impl Qep {
    pub fn explain(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "mode: batch pipeline (batch_size={})\n",
            self.batch_size
        ));
        // Worker count of every parallel region below; 1 = fully serial
        // plans.
        s.push_str(&format!("dop: {}\n", self.dop));
        // Every scan/index lookup of a run filters tuple versions against
        // one MVCC snapshot (the executor reports which via
        // `ExecStats::snapshot_seq` / `rows_skipped_visibility`).
        s.push_str("visibility: snapshot (MVCC begin/end stamps)\n");
        // A recursive CO: the executor keeps what the roots reach.
        if let Some(r) = &self.reach {
            s.push_str(&format!(
                "reach: roots=[{}] hidden=[{}]\n",
                r.roots.join(", "),
                r.hidden.join(", ")
            ));
        }
        for (i, p) in self.shared.iter().enumerate() {
            s.push_str(&format!("shared cse{i}:\n"));
            s.push_str(&p.explain());
        }
        for o in &self.outputs {
            s.push_str(&format!("output '{}' ({:?}):\n", o.name, o.kind));
            s.push_str(&o.plan.explain());
        }
        s
    }
}
