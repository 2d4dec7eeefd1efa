//! Plan optimization and refinement: lowered (NF) QGM → executable QEP.
//!
//! This stage reproduces Starburst's plan optimizer at the granularity the
//! paper relies on:
//!
//! - **common subexpressions**: boxes referenced more than once (the XNF
//!   component derivations) are materialised once as shared "table queues"
//!   and scanned by all consumers — the multi-query optimization of Fig. 6;
//! - **access-path selection**: base-table legs with constant equality
//!   predicates use B-tree indexes when available;
//! - **join-order optimization**: System-R style dynamic programming over
//!   the ForEach legs of a box (greedy fallback beyond 12 legs), choosing
//!   hash joins for equi-predicates and nested loops otherwise;
//! - **set-oriented existential evaluation**: `Semi` quantifier groups plan
//!   as hash semijoins; unconverted `E` quantifiers plan as per-tuple
//!   correlated subquery filters (the naive strategy of Fig. 3a);
//! - **index joins**: a base-table leg with an index on its equi-join
//!   column is driven from the small side by index probes — an index
//!   nested-loops join, or an index semijoin for the child leg of a Fig. 5b
//!   path box — when the probes are well below a scan of the leg
//!   (`INDEX_PROBE_MARGIN`). The DP prices such a leg as its probes, so a
//!   root-restricted CO extraction reads rows in proportion to its result.

use std::collections::HashMap;
use std::sync::Arc;

use xnf_qgm::{BoxId, BoxKind, Qgm, QunId, QunKind, ScalarExpr, ROWID_COL};
use xnf_sql::BinOp;
use xnf_storage::{Catalog, Table};

use crate::error::{PlanError, Result};
use crate::physical::{AggSpec, PhysExpr, PhysPlan, Qep, QepOutput, SharedId, SortSpec};

/// Planner knobs (used by the experiments for ablations).
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Use index access paths: `IndexEq` for constant equality predicates,
    /// and index joins — `IndexNlJoin` / `IndexSemiJoin` — that drive an
    /// indexed base-table leg from a small, already-computed side when the
    /// probes are well below a scan of the leg. `false` plans every join as
    /// a hash (or nested-loops) join over full scans. Cardinality estimates
    /// do not depend on it: they draw on ANALYZE's distinct-value counts
    /// either way.
    pub use_indexes: bool,
    /// Materialise shared boxes once (false = re-plan per consumer; the
    /// "no common subexpression" ablation for Table 1 measurements).
    pub share_common_subexpressions: bool,
    /// Row capacity of the executor's streaming batches (clamped to ≥ 1).
    pub batch_size: usize,
    /// Degree of parallelism: the worker count of parallel regions,
    /// clamped to ≥ 1. Defaults to `std::thread::available_parallelism()`;
    /// 1 compiles fully serial plans (no parallel operators are ever
    /// introduced).
    pub dop: usize,
    /// Minimum heap page count before a scan is worth parallelizing
    /// (morsel = one page, so tiny tables can't feed several workers).
    /// Clamped to ≥ 1; point lookups and small fixtures stay serial at the
    /// default of [`DEFAULT_PARALLEL_MIN_PAGES`].
    pub parallel_min_pages: usize,
}

/// Default [`PlanOptions::parallel_min_pages`]: below this many heap pages
/// a parallel scan's spawn/merge overhead outweighs the work.
pub const DEFAULT_PARALLEL_MIN_PAGES: usize = 8;

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            use_indexes: true,
            share_common_subexpressions: true,
            batch_size: crate::physical::DEFAULT_BATCH_SIZE,
            dop: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            parallel_min_pages: DEFAULT_PARALLEL_MIN_PAGES,
        }
    }
}

/// Plan a rewritten (XNF-free) QGM graph into a QEP.
pub fn plan_query(catalog: &Catalog, qgm: &Qgm, options: PlanOptions) -> Result<Qep> {
    if qgm.count_kind("XNF") > 0 {
        return Err(PlanError::Corrupt(
            "XNF operator reached the planner; run rewrite first".into(),
        ));
    }
    let mut p = Planner {
        catalog,
        qgm,
        options,
        shared_ids: HashMap::new(),
        shared_plans: Vec::new(),
        card_memo: HashMap::new(),
    };
    p.assign_shared()?;

    let mut outputs = Vec::new();
    for o in &qgm.outputs {
        let body = qgm.quns[o.qun].ranges_over;
        let mut plan = p.consumer_plan(body)?;
        // Table outputs honour ORDER BY / LIMIT.
        if matches!(o.kind, xnf_qgm::OutputKind::Table) {
            if !qgm.order_by.is_empty() {
                plan = PhysPlan::Sort {
                    input: Box::new(plan),
                    specs: qgm
                        .order_by
                        .iter()
                        .map(|s| SortSpec {
                            col: s.col,
                            desc: s.desc,
                        })
                        .collect(),
                };
            }
            if let Some(n) = qgm.limit {
                plan = PhysPlan::Limit {
                    input: Box::new(plan),
                    n,
                };
            }
        }
        outputs.push(QepOutput {
            name: o.name.clone(),
            kind: o.kind.clone(),
            plan,
            columns: qgm
                .boxed(body)
                .head
                .iter()
                .map(|h| h.name.clone())
                .collect(),
        });
    }
    let mut shared = p.shared_plans;
    // Parallel plan selection runs as a separate bottom-up pass, a no-op at
    // dop 1, so that dop = 1 reproduces the serial plans exactly.
    for plan in shared
        .iter_mut()
        .chain(outputs.iter_mut().map(|o| &mut o.plan))
    {
        crate::parallelize::parallelize(catalog, plan, &options);
    }
    Ok(Qep {
        shared,
        outputs,
        batch_size: options.batch_size.max(1),
        dop: options.dop.max(1),
    })
}

/// Per-leg lowering info: how a quantifier's columns map into the combined
/// row of its owning box's plan.
#[derive(Debug, Clone, Copy)]
struct LegMap {
    offset: usize,
    /// 1 for shared scans (leading rowid), 0 otherwise.
    col_base: usize,
    width: usize,
    has_rowid: bool,
}

struct Planner<'a> {
    catalog: &'a Catalog,
    qgm: &'a Qgm,
    options: PlanOptions,
    shared_ids: HashMap<BoxId, SharedId>,
    shared_plans: Vec<PhysPlan>,
    card_memo: HashMap<BoxId, f64>,
}

impl<'a> Planner<'a> {
    // ---------------------------------------------------------------
    // shared subexpressions
    // ---------------------------------------------------------------

    /// Decide which boxes to materialise and build their plans in
    /// dependency order.
    fn assign_shared(&mut self) -> Result<()> {
        let reachable = self.qgm.reachable_boxes();
        let refs = self.qgm.ref_counts();
        // Boxes whose rowid pseudo-column is observed must be materialised.
        let mut rowid_needed = vec![false; self.qgm.boxes.len()];
        for b in &self.qgm.boxes {
            let mut mark = |e: &ScalarExpr| {
                let _ = e.map_cols(&mut |q, c| {
                    if c == ROWID_COL {
                        if let Some(qq) = self.qgm.quns.get(q) {
                            rowid_needed[qq.ranges_over] = true;
                        }
                    }
                    ScalarExpr::Col { qun: q, col: c }
                });
            };
            for h in &b.head {
                mark(&h.expr);
            }
            for p in &b.preds {
                mark(p);
            }
        }
        let mut candidates: Vec<BoxId> = self
            .qgm
            .boxes
            .iter()
            .filter(|b| {
                reachable[b.id]
                    && !matches!(b.kind, BoxKind::BaseTable { .. } | BoxKind::Top)
                    && (rowid_needed[b.id]
                        || (self.options.share_common_subexpressions && refs[b.id] > 1))
            })
            .map(|b| b.id)
            .collect();
        candidates.sort();
        // Build plans depth-first so dependencies get lower ids.
        for b in candidates {
            self.ensure_shared(b)?;
        }
        Ok(())
    }

    fn ensure_shared(&mut self, b: BoxId) -> Result<SharedId> {
        if let Some(&id) = self.shared_ids.get(&b) {
            return Ok(id);
        }
        // Reserve the id after building (dependencies first), but guard
        // against cycles with a sentinel.
        let plan = self.plan_box(b)?;
        if let Some(&id) = self.shared_ids.get(&b) {
            // A dependency loop would have inserted it; keep the first.
            return Ok(id);
        }
        let id = self.shared_plans.len();
        self.shared_plans.push(plan);
        self.shared_ids.insert(b, id);
        Ok(id)
    }

    /// Plan a consumer's view of a box: a shared box becomes a SharedScan
    /// with the rowid column projected away; anything else plans inline.
    fn consumer_plan(&mut self, b: BoxId) -> Result<PhysPlan> {
        if self.shared_ids.contains_key(&b) || self.should_share(b) {
            let id = self.ensure_shared(b)?;
            let arity = self.qgm.boxed(b).head.len();
            let exprs = (0..arity).map(|i| PhysExpr::Col(i + 1)).collect();
            return Ok(PhysPlan::Project {
                input: Box::new(PhysPlan::SharedScan { id }),
                exprs,
            });
        }
        self.plan_box(b)
    }

    fn should_share(&self, b: BoxId) -> bool {
        if matches!(
            self.qgm.boxed(b).kind,
            BoxKind::BaseTable { .. } | BoxKind::Top
        ) {
            return false;
        }
        self.options.share_common_subexpressions && self.qgm.ref_counts()[b] > 1
    }

    // ---------------------------------------------------------------
    // box planning
    // ---------------------------------------------------------------

    fn plan_box(&mut self, b: BoxId) -> Result<PhysPlan> {
        match &self.qgm.boxed(b).kind {
            BoxKind::BaseTable { table, .. } => Ok(self.table_scan(table.clone(), vec![])),
            BoxKind::Select(_) => self.plan_select(b),
            BoxKind::GroupBy(_) => self.plan_group_by(b),
            BoxKind::Union(_) => self.plan_union(b),
            BoxKind::Xnf(_) => Err(PlanError::Corrupt("XNF box in planner".into())),
            BoxKind::Top => Err(PlanError::Corrupt("Top box is not plannable".into())),
        }
    }

    /// Full scan of a named stored table: a plain `SeqScan` for base
    /// tables, a `matview scan` when the name resolves to a materialized
    /// view's backing storage (planner substitution made the view reference
    /// a BaseTable box over the backing table).
    fn table_scan(&self, table: String, filter: Vec<PhysExpr>) -> PhysPlan {
        if self.catalog.is_matview_backing(&table) {
            PhysPlan::MatViewScan {
                view: table,
                filter,
            }
        } else {
            PhysPlan::SeqScan { table, filter }
        }
    }

    fn plan_union(&mut self, b: BoxId) -> Result<PhysPlan> {
        let bx = self.qgm.boxed(b);
        let all = match &bx.kind {
            BoxKind::Union(u) => u.all,
            _ => unreachable!(),
        };
        let mut inputs = Vec::new();
        for &q in &bx.quns {
            let target = self.qgm.quns[q].ranges_over;
            inputs.push(self.consumer_plan(target)?);
        }
        let plan = PhysPlan::UnionAll { inputs };
        Ok(if all {
            plan
        } else {
            PhysPlan::HashDistinct {
                input: Box::new(plan),
            }
        })
    }

    fn plan_group_by(&mut self, b: BoxId) -> Result<PhysPlan> {
        let bx = self.qgm.boxed(b).clone();
        let group_exprs = match &bx.kind {
            BoxKind::GroupBy(g) => g.group_by.clone(),
            _ => unreachable!(),
        };
        if bx.quns.len() != 1 {
            return Err(PlanError::Corrupt(
                "GroupBy box must have exactly one quantifier".into(),
            ));
        }
        let q = bx.quns[0];
        let target = self.qgm.quns[q].ranges_over;
        let input = self.consumer_plan(target)?;
        let legs = HashMap::from([(
            q,
            LegMap {
                offset: 0,
                col_base: 0,
                width: self.qgm.boxed(target).head.len(),
                has_rowid: false,
            },
        )]);

        // Lower grouping expressions over the input row.
        let group: Vec<PhysExpr> = group_exprs
            .iter()
            .map(|e| self.lower(e, &legs))
            .collect::<Result<_>>()?;

        // Extract aggregates from head + having.
        let mut aggs: Vec<(String, AggSpec)> = Vec::new();
        let mut output = Vec::with_capacity(bx.head.len());
        for h in &bx.head {
            output.push(self.lower_agg_expr(&h.expr, &legs, &group, &mut aggs)?);
        }
        let mut having = Vec::with_capacity(bx.preds.len());
        for p in &bx.preds {
            having.push(self.lower_agg_expr(p, &legs, &group, &mut aggs)?);
        }
        Ok(PhysPlan::HashAggregate {
            input: Box::new(input),
            group,
            aggs: aggs.into_iter().map(|(_, a)| a).collect(),
            having,
            output,
        })
    }

    /// Lower an expression that may contain aggregates: aggregates become
    /// `AggRef` slots; non-aggregate subexpressions matching a grouping
    /// expression become references to the group slots of the synthetic
    /// aggregate output row `[group values..., agg results...]`.
    fn lower_agg_expr(
        &mut self,
        e: &ScalarExpr,
        legs: &HashMap<QunId, LegMap>,
        group: &[PhysExpr],
        aggs: &mut Vec<(String, AggSpec)>,
    ) -> Result<PhysExpr> {
        if let ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } = e
        {
            let sig = e.signature();
            if let Some(pos) = aggs.iter().position(|(s, _)| *s == sig) {
                return Ok(PhysExpr::AggRef(pos));
            }
            let lowered_arg = match arg {
                Some(a) => Some(self.lower(a, legs)?),
                None => None,
            };
            aggs.push((
                sig,
                AggSpec {
                    func: *func,
                    arg: lowered_arg,
                    distinct: *distinct,
                },
            ));
            return Ok(PhysExpr::AggRef(aggs.len() - 1));
        }
        // Non-aggregate: try to match a grouping expression wholesale.
        if !e.contains_agg() {
            let lowered = self.lower(e, legs)?;
            if let Some(pos) = group.iter().position(|g| *g == lowered) {
                return Ok(PhysExpr::Col(pos));
            }
            // Literals pass through; anything else must decompose.
            if let PhysExpr::Literal(_) = lowered {
                return Ok(lowered);
            }
        }
        // Decompose structurally.
        Ok(match e {
            ScalarExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.lower_agg_expr(expr, legs, group, aggs)?),
            },
            ScalarExpr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(self.lower_agg_expr(left, legs, group, aggs)?),
                op: *op,
                right: Box::new(self.lower_agg_expr(right, legs, group, aggs)?),
            },
            ScalarExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.lower_agg_expr(expr, legs, group, aggs)?),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(self.lower_agg_expr(expr, legs, group, aggs)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(self.lower_agg_expr(expr, legs, group, aggs)?),
                list: list
                    .iter()
                    .map(|x| self.lower_agg_expr(x, legs, group, aggs))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            ScalarExpr::Func { func, args } => PhysExpr::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|x| self.lower_agg_expr(x, legs, group, aggs))
                    .collect::<Result<_>>()?,
            },
            other => {
                return Err(PlanError::Unsupported(format!(
                    "expression '{other}' must appear in GROUP BY"
                )))
            }
        })
    }

    // ---------------------------------------------------------------
    // SELECT box planning: legs, predicates, join order, semi blocks
    // ---------------------------------------------------------------

    fn plan_select(&mut self, b: BoxId) -> Result<PhysPlan> {
        let bx = self.qgm.boxed(b).clone();
        let mut f_legs = Vec::new();
        let mut semi_legs = Vec::new();
        let mut e_legs = Vec::new();
        for &q in &bx.quns {
            match self.qgm.quns[q].kind {
                QunKind::Foreach => f_legs.push(q),
                QunKind::Semi => semi_legs.push(q),
                QunKind::Existential => e_legs.push((q, false)),
                QunKind::Anti => e_legs.push((q, true)),
            }
        }

        // Partition the predicates.
        let mut leg_filters: HashMap<QunId, Vec<ScalarExpr>> = HashMap::new();
        let mut join_preds: Vec<ScalarExpr> = Vec::new();
        let mut semi_preds: Vec<ScalarExpr> = Vec::new();
        let mut post_preds: Vec<ScalarExpr> = Vec::new();
        for p in &bx.preds {
            let quns = p.quns();
            let local: Vec<QunId> = quns
                .iter()
                .copied()
                .filter(|q| bx.quns.contains(q))
                .collect();
            let touches_semi = local.iter().any(|q| semi_legs.contains(q));
            if local.is_empty() {
                post_preds.push(p.clone());
            } else if local.len() == 1 && quns.len() == 1 {
                // Single-quantifier predicates become leg filters even on
                // semi legs, so scans see their selections.
                leg_filters.entry(local[0]).or_default().push(p.clone());
            } else if touches_semi {
                semi_preds.push(p.clone());
            } else {
                join_preds.push(p.clone());
            }
        }

        // Plan the F-part.
        let (mut plan, legs) = if f_legs.is_empty() {
            (PhysPlan::Values { rows: vec![vec![]] }, HashMap::new())
        } else {
            self.plan_join(&f_legs, &leg_filters, &join_preds)?
        };

        // Semi block.
        if !semi_legs.is_empty() {
            plan = self.plan_semi_block(plan, &legs, &semi_legs, &leg_filters, &semi_preds)?;
        } else if !semi_preds.is_empty() {
            return Err(PlanError::Corrupt(
                "semi predicates without semi legs".into(),
            ));
        }

        // Naive existential / anti legs: tuple-at-a-time subquery filters.
        for (q, anti) in e_legs {
            let target = self.qgm.quns[q].ranges_over;
            let subplan = self.consumer_plan(target)?;
            let bindings: Vec<(QunId, usize, usize)> = legs
                .iter()
                .map(|(&lq, m)| (lq, m.offset + m.col_base, m.width - m.col_base))
                .collect();
            plan = PhysPlan::SubqueryFilter {
                input: Box::new(plan),
                subplan: Box::new(subplan),
                bindings,
                anti,
            };
        }

        // Residual (outer-only) predicates.
        if !post_preds.is_empty() {
            let preds: Vec<PhysExpr> = post_preds
                .iter()
                .map(|p| self.lower(p, &legs))
                .collect::<Result<_>>()?;
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                preds,
            };
        }

        // Head projection. An identity head (every input column passed
        // through in order) would clone each row for nothing — skip it and
        // let the input stream flow straight through.
        let exprs: Vec<PhysExpr> = bx
            .head
            .iter()
            .map(|h| self.lower(&h.expr, &legs))
            .collect::<Result<_>>()?;
        let input_width: usize = legs.values().map(|m| m.width).sum();
        let identity = !exprs.is_empty()
            && exprs.len() == input_width
            && exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, PhysExpr::Col(c) if *c == i));
        if !identity {
            plan = PhysPlan::Project {
                input: Box::new(plan),
                exprs,
            };
        }

        if bx.as_select().map(|s| s.distinct).unwrap_or(false) {
            plan = PhysPlan::HashDistinct {
                input: Box::new(plan),
            };
        }
        Ok(plan)
    }

    /// Plan one leg (quantifier) with its pushed-down filters. Returns the
    /// plan and the leg's LegMap *relative to offset 0*.
    fn plan_leg(&mut self, q: QunId, filters: &[ScalarExpr]) -> Result<(PhysPlan, LegMap)> {
        let target = self.qgm.quns[q].ranges_over;
        let target_box = self.qgm.boxed(target);
        // Shared target: SharedScan with leading rowid.
        if self.shared_ids.contains_key(&target) || self.should_share(target) {
            let id = self.ensure_shared(target)?;
            let width = target_box.head.len() + 1;
            let map = LegMap {
                offset: 0,
                col_base: 1,
                width,
                has_rowid: true,
            };
            let mut plan = PhysPlan::SharedScan { id };
            if !filters.is_empty() {
                let legs = HashMap::from([(q, map)]);
                let preds = filters
                    .iter()
                    .map(|p| self.lower(p, &legs))
                    .collect::<Result<_>>()?;
                plan = PhysPlan::Filter {
                    input: Box::new(plan),
                    preds,
                };
            }
            return Ok((plan, map));
        }
        // Base table: access-path selection.
        if let BoxKind::BaseTable { table, schema } = &target_box.kind {
            let table = table.clone();
            let width = schema.len();
            let map = LegMap {
                offset: 0,
                col_base: 0,
                width,
                has_rowid: false,
            };
            let legs = HashMap::from([(q, map)]);
            let mut key_cols: Vec<(usize, PhysExpr)> = Vec::new();
            let mut residual: Vec<PhysExpr> = Vec::new();
            for p in filters {
                if self.options.use_indexes {
                    if let Some((col, key)) = self.const_eq_on(q, p) {
                        key_cols.push((col, key));
                        continue;
                    }
                }
                residual.push(self.lower(p, &legs)?);
            }
            if !key_cols.is_empty() {
                let t = self.catalog.table(&table)?;
                // Try each single-column index over one of the keyed columns.
                for (col, lit) in &key_cols {
                    if let Some(def) = t.find_index(&[*col]) {
                        let mut rest: Vec<PhysExpr> = key_cols
                            .iter()
                            .filter(|(c, _)| c != col)
                            .map(|(c, l)| PhysExpr::Binary {
                                left: Box::new(PhysExpr::Col(*c)),
                                op: BinOp::Eq,
                                right: Box::new(l.clone()),
                            })
                            .collect();
                        rest.extend(residual.clone());
                        return Ok((
                            PhysPlan::IndexEq {
                                table,
                                index: def.name,
                                key: vec![lit.clone()],
                                filter: rest,
                            },
                            map,
                        ));
                    }
                }
                // No usable index: fold keys back into the scan filter.
                for (c, l) in key_cols {
                    residual.push(PhysExpr::Binary {
                        left: Box::new(PhysExpr::Col(c)),
                        op: BinOp::Eq,
                        right: Box::new(l),
                    });
                }
            }
            return Ok((self.table_scan(table, residual), map));
        }
        // Derived leg: plan recursively, filters on top.
        let width = target_box.head.len();
        let map = LegMap {
            offset: 0,
            col_base: 0,
            width,
            has_rowid: false,
        };
        let mut plan = self.plan_box(target)?;
        if !filters.is_empty() {
            let legs = HashMap::from([(q, map)]);
            let preds = filters
                .iter()
                .map(|p| self.lower(p, &legs))
                .collect::<Result<_>>()?;
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                preds,
            };
        }
        Ok((plan, map))
    }

    /// Is `p` an equality between a column of `q` and an execution-time
    /// constant (literal or parameter)? Returns (column, key expression) —
    /// parameters qualify because index keys are evaluated at `eval` time,
    /// when the binding table is available.
    fn const_eq_on(&self, q: QunId, p: &ScalarExpr) -> Option<(usize, PhysExpr)> {
        fn as_const(e: &ScalarExpr) -> Option<PhysExpr> {
            match e {
                ScalarExpr::Literal(v) => Some(PhysExpr::Literal(v.clone())),
                ScalarExpr::Param(i) => Some(PhysExpr::Param(*i)),
                _ => None,
            }
        }
        if let ScalarExpr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = p
        {
            match (&**left, &**right) {
                (ScalarExpr::Col { qun, col }, other) if *qun == q => {
                    as_const(other).map(|k| (*col, k))
                }
                (other, ScalarExpr::Col { qun, col }) if *qun == q => {
                    as_const(other).map(|k| (*col, k))
                }
                _ => None,
            }
        } else {
            None
        }
    }

    /// Join the F legs with DP ordering; returns the combined plan and the
    /// final LegMap per quantifier.
    fn plan_join(
        &mut self,
        f_legs: &[QunId],
        leg_filters: &HashMap<QunId, Vec<ScalarExpr>>,
        join_preds: &[ScalarExpr],
    ) -> Result<(PhysPlan, HashMap<QunId, LegMap>)> {
        // Plan each leg.
        let mut leg_plans = Vec::with_capacity(f_legs.len());
        for &q in f_legs {
            let empty = Vec::new();
            let filters = leg_filters.get(&q).unwrap_or(&empty);
            leg_plans.push(self.plan_leg(q, filters)?);
        }
        // Choose an order.
        let block = self.join_block(f_legs, &leg_plans, leg_filters, join_preds);
        let order: Vec<usize> = if f_legs.len() <= 1 {
            (0..f_legs.len()).collect()
        } else if f_legs.len() <= 12 {
            self.dp_order(&block)
        } else {
            self.greedy_order(f_legs, join_preds)
        };
        let (probes, _) = self.replay(&block, &order);

        // Assemble left-deep join tree in `order`, computing leg offsets.
        let mut legs: HashMap<QunId, LegMap> = HashMap::new();
        let first = order[0];
        let (mut plan, mut m0) = (leg_plans[first].0.clone(), leg_plans[first].1);
        m0.offset = 0;
        legs.insert(f_legs[first], m0);
        let mut width = m0.width;
        let mut used: Vec<QunId> = vec![f_legs[first]];
        let mut applied = vec![false; join_preds.len()];

        for (&idx, probe) in order[1..].iter().zip(&probes[1..]) {
            let q = f_legs[idx];
            let (leg_plan, mut lm) = (leg_plans[idx].0.clone(), leg_plans[idx].1);
            lm.offset = width;
            legs.insert(q, lm);
            used.push(q);
            width += lm.width;

            // Predicates now fully bound.
            let mut keys: Vec<(PhysExpr, PhysExpr, usize)> = Vec::new();
            let mut residual: Vec<PhysExpr> = Vec::new();
            for (pi, p) in join_preds.iter().enumerate() {
                if applied[pi] {
                    continue;
                }
                let quns = p.quns();
                let local: Vec<QunId> = quns
                    .iter()
                    .copied()
                    .filter(|x| f_legs.contains(x))
                    .collect();
                if !local.iter().all(|x| used.contains(x)) || !local.contains(&q) {
                    continue;
                }
                applied[pi] = true;
                // Equi key: one side references only earlier legs, the other
                // only the new leg.
                if let ScalarExpr::Binary {
                    left,
                    op: BinOp::Eq,
                    right,
                } = p
                {
                    let lq = left.quns();
                    let rq = right.quns();
                    let left_old = lq.iter().all(|x| *x != q) && !lq.is_empty();
                    let right_new = !rq.is_empty() && rq.iter().all(|x| *x == q);
                    let left_new = !lq.is_empty() && lq.iter().all(|x| *x == q);
                    let right_old = rq.iter().all(|x| *x != q) && !rq.is_empty();
                    if left_old && right_new {
                        keys.push((
                            self.lower(left, &legs)?,
                            self.lower_local(right, q, &leg_plans[idx].1)?,
                            pi,
                        ));
                        continue;
                    }
                    if left_new && right_old {
                        keys.push((
                            self.lower(right, &legs)?,
                            self.lower_local(left, q, &leg_plans[idx].1)?,
                            pi,
                        ));
                        continue;
                    }
                }
                residual.push(self.lower(p, &legs)?);
            }
            plan = equi_join(plan, leg_plan, keys, residual, lm.offset, probe.as_ref());
        }
        // Any join predicate not yet applied (e.g. references a single leg
        // plus outer correlation) becomes a filter.
        let leftovers: Vec<PhysExpr> = join_preds
            .iter()
            .enumerate()
            .filter(|(pi, _)| !applied[*pi])
            .map(|(_, p)| self.lower(p, &legs))
            .collect::<Result<_>>()?;
        if !leftovers.is_empty() {
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                preds: leftovers,
            };
        }
        Ok((plan, legs))
    }

    /// Greedy join order: start from the smallest leg, repeatedly add the
    /// leg with the lowest estimated joined cardinality.
    fn greedy_order(&mut self, f_legs: &[QunId], join_preds: &[ScalarExpr]) -> Vec<usize> {
        let cards: Vec<f64> = f_legs.iter().map(|&q| self.leg_card(q)).collect();
        let n = f_legs.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        remaining.sort_by(|&a, &b| cards[a].total_cmp(&cards[b]));
        let mut order = vec![remaining.remove(0)];
        while !remaining.is_empty() {
            // Prefer legs connected by a predicate to the current set.
            let connected_pos = remaining.iter().position(|&idx| {
                join_preds.iter().any(|p| {
                    let quns = p.quns();
                    quns.contains(&f_legs[idx])
                        && quns.iter().any(|x| order.iter().any(|&o| f_legs[o] == *x))
                })
            });
            let pos = connected_pos.unwrap_or(0);
            order.push(remaining.remove(pos));
        }
        order
    }

    /// The join problem over `legs` (planned as `plans`, with their
    /// pushed-down `leg_filters`) under `preds`. A leg's cardinality counts
    /// its filters, so a filtered leg can drive probes.
    fn join_block(
        &mut self,
        legs: &[QunId],
        plans: &[(PhysPlan, LegMap)],
        leg_filters: &HashMap<QunId, Vec<ScalarExpr>>,
        preds: &[ScalarExpr],
    ) -> JoinBlock {
        let mut cards = Vec::with_capacity(legs.len());
        for &q in legs {
            let mut card = self.leg_card(q);
            for p in leg_filters.get(&q).into_iter().flatten() {
                card *= self
                    .const_eq_on(q, p)
                    .and_then(|(col, _)| self.column_eq_selectivity(q, col))
                    .unwrap_or_else(|| pred_selectivity(p));
            }
            cards.push(card.max(1.0));
        }
        let pred_legs = preds
            .iter()
            .map(|p| {
                p.quns()
                    .iter()
                    .filter_map(|x| legs.iter().position(|l| l == x))
                    .collect()
            })
            .collect();
        let probes = legs
            .iter()
            .zip(plans)
            .map(|(&q, (plan, _))| self.probe_keys(q, plan, legs, preds))
            .collect();
        JoinBlock {
            cards,
            pred_legs,
            probes,
        }
    }

    /// The predicates a leg can be index-probed through: equalities
    /// between a column of the leg — a plain base-table scan with a
    /// single-column index on that column — and an expression over other
    /// legs of the block. Empty unless `use_indexes` is on.
    fn probe_keys(
        &self,
        q: QunId,
        plan: &PhysPlan,
        legs: &[QunId],
        preds: &[ScalarExpr],
    ) -> Vec<ProbeKey> {
        let PhysPlan::SeqScan { table, .. } = plan else {
            return Vec::new();
        };
        let mut keys = Vec::new();
        for (pred, p) in preds.iter().enumerate() {
            let ScalarExpr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } = p
            else {
                continue;
            };
            let (col, other) = match (&**left, &**right) {
                (ScalarExpr::Col { qun, col }, other) if *qun == q => (*col, other),
                (other, ScalarExpr::Col { qun, col }) if *qun == q => (*col, other),
                _ => continue,
            };
            let oq = other.quns();
            if col == ROWID_COL || oq.is_empty() || oq.iter().any(|x| *x == q || !legs.contains(x))
            {
                continue;
            }
            if let Some(target) = self.probe_target(table, col) {
                keys.push(ProbeKey { pred, target });
            }
        }
        keys
    }

    /// The single-column index on `table.col`, priced for probing from
    /// ANALYZE's statistics, when `use_indexes` is on. A never-analyzed
    /// table is never probed: nothing is known of a key's fan-out.
    fn probe_target(&self, table: &str, col: usize) -> Option<ProbeTarget> {
        if !self.options.use_indexes {
            return None;
        }
        let t = self.catalog.table(table).ok()?;
        let stats = t.stats();
        if stats.columns.is_empty() {
            return None;
        }
        let def = t.find_index(&[col])?;
        let scan_rows = stats.row_count as f64;
        Some(ProbeTarget {
            index: def.name,
            per_key: scan_rows * stats.eq_selectivity(col),
            scan_rows,
        })
    }

    /// System-R style DP over leg subsets (left-deep, hash-join aware).
    fn dp_order(&mut self, block: &JoinBlock) -> Vec<usize> {
        let cards = &block.cards;
        let n = cards.len();
        // best[mask] = (cost, card, order)
        let mut best: Vec<Option<(f64, f64, Vec<usize>)>> = vec![None; 1 << n];
        for i in 0..n {
            best[1 << i] = Some((cards[i], cards[i], vec![i]));
        }
        for mask in 1..(1usize << n) {
            let Some((cost, card, order)) = best[mask].clone() else {
                continue;
            };
            for add in 0..n {
                if mask & (1 << add) != 0 {
                    continue;
                }
                let nm = mask | (1 << add);
                let step = block.step(|l| mask & (1 << l) != 0, card, add);
                let new_cost = cost + step.read_cost + step.card * step.penalty;
                let mut new_order = order.clone();
                new_order.push(add);
                let better = match &best[nm] {
                    None => true,
                    Some((c, _, _)) => new_cost < *c,
                };
                if better {
                    best[nm] = Some((new_cost, step.card, new_order));
                }
            }
        }
        best[(1 << n) - 1]
            .clone()
            .map(|(_, _, o)| o)
            .unwrap_or_else(|| (0..n).collect())
    }

    /// Walk a chosen join order: the probe key of every step that reads
    /// its leg by index probes (`None` for the first leg and for legs read
    /// by a scan), and the estimated cardinality of the whole join.
    fn replay(&self, block: &JoinBlock, order: &[usize]) -> (Vec<Option<ProbeKey>>, f64) {
        let mut joined = vec![false; block.cards.len()];
        joined[order[0]] = true;
        let mut card = block.cards[order[0]];
        let mut probes = vec![None];
        for &add in &order[1..] {
            let step = block.step(|l| joined[l], card, add);
            probes.push(step.probe.cloned());
            card = step.card;
            joined[add] = true;
        }
        (probes, card)
    }

    /// Rough cardinality of a leg (for ordering decisions only).
    fn leg_card(&mut self, q: QunId) -> f64 {
        let b = self.qgm.quns[q].ranges_over;
        self.box_card(b)
    }

    /// The base table and column a quantifier's column passes through to
    /// unchanged (through Select heads), if any.
    fn base_column(&self, q: QunId, col: usize) -> Option<(Arc<Table>, usize)> {
        let bx = self.qgm.boxed(self.qgm.quns[q].ranges_over);
        match &bx.kind {
            BoxKind::BaseTable { table, .. } => Some((self.catalog.table(table).ok()?, col)),
            BoxKind::Select(_) if col != ROWID_COL => match &bx.head.get(col)?.expr {
                ScalarExpr::Col { qun, col }
                    if bx.quns.contains(qun) && self.qgm.quns[*qun].kind == QunKind::Foreach =>
                {
                    self.base_column(*qun, *col)
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// ANALYZE's equality selectivity of a quantifier's column, when it is
    /// an analyzed base-table column.
    fn column_eq_selectivity(&self, q: QunId, col: usize) -> Option<f64> {
        let (t, col) = self.base_column(q, col)?;
        let stats = t.stats();
        (!stats.columns.is_empty()).then(|| stats.eq_selectivity(col))
    }

    /// Selectivity of a Select box's predicates with ANALYZE's statistics:
    /// `col = literal|?` takes the column's equality selectivity, and each
    /// Semi leg joined by an equality to an F-leg column scales the box by
    /// `min(1, card(semi) / ndv(col))` — a semijoin keeps at most the rows
    /// whose key one of the semi side's rows carries. Other predicates keep
    /// their shape-based estimate.
    fn select_selectivity(&mut self, b: BoxId) -> f64 {
        let qgm = self.qgm;
        let mut sel = 1.0;
        let mut credited = Vec::new();
        for p in &qgm.boxed(b).preds {
            sel *= self
                .stats_selectivity(b, p, &mut credited)
                .unwrap_or_else(|| pred_selectivity(p));
        }
        sel
    }

    /// [`Planner::select_selectivity`] of one predicate of box `b`; `None`
    /// when statistics do not apply. `credited` lists the Semi legs that
    /// already scaled the box.
    fn stats_selectivity(
        &mut self,
        b: BoxId,
        p: &ScalarExpr,
        credited: &mut Vec<QunId>,
    ) -> Option<f64> {
        let qgm = self.qgm;
        let bx = qgm.boxed(b);
        let kind_in_box =
            |q: QunId, kind: QunKind| bx.quns.contains(&q) && qgm.quns[q].kind == kind;
        let ScalarExpr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = p
        else {
            return None;
        };
        for (a, other) in [(&**left, &**right), (&**right, &**left)] {
            let ScalarExpr::Col { qun, col } = a else {
                continue;
            };
            if !kind_in_box(*qun, QunKind::Foreach) {
                continue;
            }
            let Some(eq_sel) = self.column_eq_selectivity(*qun, *col) else {
                continue;
            };
            if matches!(other, ScalarExpr::Literal(_) | ScalarExpr::Param(_)) {
                return Some(eq_sel);
            }
            if let [s] = other.quns()[..] {
                if kind_in_box(s, QunKind::Semi) {
                    if credited.contains(&s) {
                        return Some(1.0);
                    }
                    credited.push(s);
                    let semi_card = self.box_card(qgm.quns[s].ranges_over);
                    return Some((semi_card * eq_sel).min(1.0));
                }
            }
        }
        None
    }

    fn box_card(&mut self, b: BoxId) -> f64 {
        if let Some(&c) = self.card_memo.get(&b) {
            return c;
        }
        self.card_memo.insert(b, 1000.0); // cycle guard
        let bx = self.qgm.boxed(b);
        let card = match &bx.kind {
            BoxKind::BaseTable { table, .. } => self
                .catalog
                .table(table)
                .map(|t| (t.stats().row_count as f64).max(1.0))
                .unwrap_or(1000.0),
            BoxKind::Select(_) => {
                let mut c = 1.0;
                for &q in &bx.quns {
                    if self.qgm.quns[q].kind == QunKind::Foreach {
                        c *= self.box_card(self.qgm.quns[q].ranges_over);
                    }
                }
                (c * self.select_selectivity(b)).max(1.0)
            }
            BoxKind::GroupBy(_) => {
                let input = bx
                    .quns
                    .first()
                    .map(|&q| self.box_card(self.qgm.quns[q].ranges_over))
                    .unwrap_or(1.0);
                (input / 2.0).max(1.0)
            }
            BoxKind::Union(_) => bx
                .quns
                .iter()
                .map(|&q| self.box_card(self.qgm.quns[q].ranges_over))
                .sum(),
            _ => 1000.0,
        };
        self.card_memo.insert(b, card);
        card
    }

    // ---------------------------------------------------------------
    // semi blocks
    // ---------------------------------------------------------------

    /// Plan the existential (Semi) block: join the semi legs on their
    /// internal predicates, then semijoin the outer plan against them.
    fn plan_semi_block(
        &mut self,
        outer: PhysPlan,
        outer_legs: &HashMap<QunId, LegMap>,
        semi_legs: &[QunId],
        leg_filters: &HashMap<QunId, Vec<ScalarExpr>>,
        semi_preds: &[ScalarExpr],
    ) -> Result<PhysPlan> {
        // Split semi predicates: internal (only semi legs) vs connecting.
        let mut internal = Vec::new();
        let mut connecting = Vec::new();
        for p in semi_preds {
            let quns = p.quns();
            if quns.iter().all(|q| semi_legs.contains(q)) {
                internal.push(p.clone());
            } else {
                connecting.push(p.clone());
            }
        }
        // Join semi legs (greedy order: as listed, joined via internal preds).
        let mut leg_plans = Vec::with_capacity(semi_legs.len());
        for &q in semi_legs {
            let empty = Vec::new();
            let filters = leg_filters.get(&q).unwrap_or(&empty);
            leg_plans.push(self.plan_leg(q, filters)?);
        }
        let block = self.join_block(semi_legs, &leg_plans, leg_filters, &internal);
        let listed: Vec<usize> = (0..semi_legs.len()).collect();
        let (probes, inner_card) = self.replay(&block, &listed);
        let mut inner_legs: HashMap<QunId, LegMap> = HashMap::new();
        let mut inner_plan: Option<PhysPlan> = None;
        let mut width = 0;
        let mut applied = vec![false; internal.len()];
        for ((&q, (leg_plan, lm)), probe) in semi_legs.iter().zip(leg_plans).zip(&probes) {
            let mut lm = lm;
            lm.offset = width;
            inner_legs.insert(q, lm);
            width += lm.width;
            inner_plan = Some(match inner_plan {
                None => leg_plan,
                Some(prev) => {
                    // Apply internal preds bound by adding q.
                    let mut keys = Vec::new();
                    let mut residual = Vec::new();
                    for (pi, p) in internal.iter().enumerate() {
                        if applied[pi] {
                            continue;
                        }
                        let quns = p.quns();
                        if !quns.iter().all(|x| inner_legs.contains_key(x)) || !quns.contains(&q) {
                            continue;
                        }
                        applied[pi] = true;
                        if let ScalarExpr::Binary {
                            left,
                            op: BinOp::Eq,
                            right,
                        } = p
                        {
                            let lq = left.quns();
                            let rq = right.quns();
                            let l_new = !lq.is_empty() && lq.iter().all(|x| *x == q);
                            let r_new = !rq.is_empty() && rq.iter().all(|x| *x == q);
                            // The new leg's side is lowered relative to the
                            // leg itself: the join evaluates it over the
                            // leg's own rows.
                            let shift = -(lm.offset as isize);
                            if r_new && !l_new {
                                keys.push((
                                    self.lower(left, &inner_legs)?,
                                    self.lower_with_offset(right, &inner_legs, shift)?,
                                    pi,
                                ));
                                continue;
                            }
                            if l_new && !r_new {
                                keys.push((
                                    self.lower(right, &inner_legs)?,
                                    self.lower_with_offset(left, &inner_legs, shift)?,
                                    pi,
                                ));
                                continue;
                            }
                        }
                        residual.push(self.lower(p, &inner_legs)?);
                    }
                    equi_join(prev, leg_plan, keys, residual, lm.offset, probe.as_ref())
                }
            });
        }
        let inner_plan = inner_plan.expect("semi block with legs");
        // Leftover internal preds (if any) as filter over the inner join.
        let leftovers: Vec<PhysExpr> = internal
            .iter()
            .enumerate()
            .filter(|(pi, _)| !applied[*pi])
            .map(|(_, p)| self.lower(p, &inner_legs))
            .collect::<Result<_>>()?;
        let inner_plan = if leftovers.is_empty() {
            inner_plan
        } else {
            PhysPlan::Filter {
                input: Box::new(inner_plan),
                preds: leftovers,
            }
        };

        // Connecting predicates: equi keys vs residual. Residuals evaluate
        // over outer ++ inner, with inner slots shifted by outer width.
        let outer_width: usize = outer_legs.values().map(|m| m.width).sum();
        let mut outer_keys = Vec::new();
        let mut inner_keys = Vec::new();
        let mut residual = Vec::new();
        for p in &connecting {
            if let ScalarExpr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } = p
            {
                let l_outer = left.quns().iter().all(|x| outer_legs.contains_key(x));
                let r_inner = right.quns().iter().all(|x| inner_legs.contains_key(x));
                let l_inner = left.quns().iter().all(|x| inner_legs.contains_key(x));
                let r_outer = right.quns().iter().all(|x| outer_legs.contains_key(x));
                if l_outer && r_inner && !left.quns().is_empty() && !right.quns().is_empty() {
                    outer_keys.push(self.lower(left, outer_legs)?);
                    inner_keys.push(self.lower(right, &inner_legs)?);
                    continue;
                }
                if l_inner && r_outer && !left.quns().is_empty() && !right.quns().is_empty() {
                    outer_keys.push(self.lower(right, outer_legs)?);
                    inner_keys.push(self.lower(left, &inner_legs)?);
                    continue;
                }
            }
            // Residual over combined row: outer legs keep offsets, inner
            // legs shift by outer_width.
            let mut combined = outer_legs.clone();
            for (q, m) in &inner_legs {
                let mut m2 = *m;
                m2.offset += outer_width;
                combined.insert(*q, m2);
            }
            residual.push(self.lower(p, &combined)?);
        }
        // A base-table outer keyed on one indexed column: probe it once per
        // distinct inner key instead of scanning it, when that is cheap.
        if let (PhysPlan::SeqScan { table, filter }, [PhysExpr::Col(col)], [inner_key], true) = (
            &outer,
            &outer_keys[..],
            &inner_keys[..],
            residual.is_empty(),
        ) {
            if let Some(target) = self
                .probe_target(table, *col)
                .filter(|t| t.affordable(inner_card))
            {
                return Ok(PhysPlan::IndexSemiJoin {
                    table: table.clone(),
                    index: target.index,
                    filter: filter.clone(),
                    inner: Box::new(inner_plan),
                    inner_key: inner_key.clone(),
                });
            }
        }
        Ok(if outer_keys.is_empty() {
            PhysPlan::NlSemiJoin {
                outer: Box::new(outer),
                inner: Box::new(inner_plan),
                preds: residual,
            }
        } else {
            PhysPlan::HashSemiJoin {
                outer: Box::new(outer),
                inner: Box::new(inner_plan),
                outer_keys,
                inner_keys,
                residual,
            }
        })
    }

    // ---------------------------------------------------------------
    // expression lowering
    // ---------------------------------------------------------------

    /// Lower an expression against a leg map; unknown quantifiers become
    /// `Outer` (correlation) references.
    fn lower(&self, e: &ScalarExpr, legs: &HashMap<QunId, LegMap>) -> Result<PhysExpr> {
        self.lower_with_offset(e, legs, 0)
    }

    fn lower_with_offset(
        &self,
        e: &ScalarExpr,
        legs: &HashMap<QunId, LegMap>,
        shift: isize,
    ) -> Result<PhysExpr> {
        Ok(match e {
            ScalarExpr::Literal(v) => PhysExpr::Literal(v.clone()),
            ScalarExpr::Param(i) => PhysExpr::Param(*i),
            ScalarExpr::Col { qun, col } => match legs.get(qun) {
                Some(m) => {
                    if *col == ROWID_COL {
                        if !m.has_rowid {
                            return Err(PlanError::Corrupt(
                                "rowid of a non-materialised quantifier".into(),
                            ));
                        }
                        PhysExpr::Col((m.offset as isize + shift) as usize)
                    } else {
                        PhysExpr::Col(
                            (m.offset as isize + m.col_base as isize + *col as isize + shift)
                                as usize,
                        )
                    }
                }
                None => PhysExpr::Outer {
                    qun: *qun,
                    col: *col,
                },
            },
            ScalarExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.lower_with_offset(expr, legs, shift)?),
            },
            ScalarExpr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(self.lower_with_offset(left, legs, shift)?),
                op: *op,
                right: Box::new(self.lower_with_offset(right, legs, shift)?),
            },
            ScalarExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.lower_with_offset(expr, legs, shift)?),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(self.lower_with_offset(expr, legs, shift)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(self.lower_with_offset(expr, legs, shift)?),
                list: list
                    .iter()
                    .map(|x| self.lower_with_offset(x, legs, shift))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            ScalarExpr::Func { func, args } => PhysExpr::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|x| self.lower_with_offset(x, legs, shift))
                    .collect::<Result<_>>()?,
            },
            ScalarExpr::Agg { .. } => {
                return Err(PlanError::Corrupt("aggregate outside GroupBy box".into()))
            }
        })
    }

    /// Lower an expression that references only leg `q`, relative to the
    /// leg's own row (offset 0).
    fn lower_local(&self, e: &ScalarExpr, q: QunId, m: &LegMap) -> Result<PhysExpr> {
        let mut local = *m;
        local.offset = 0;
        let legs = HashMap::from([(q, local)]);
        self.lower(e, &legs)
    }
}

/// An index-probe plan must be this many times cheaper than the scan it
/// replaces: estimated probes × (1 + postings per key) × margin ≤ rows the
/// scan reads. The 1 prices the probe itself; the margin absorbs estimation
/// error, since a misjudged probe plan reads rows one random fetch at a
/// time.
const INDEX_PROBE_MARGIN: f64 = 4.0;

/// A single-column index of a base table, priced for probing.
#[derive(Debug, Clone)]
struct ProbeTarget {
    index: String,
    /// Estimated postings per probed key.
    per_key: f64,
    /// Estimated rows a scan of the table reads.
    scan_rows: f64,
}

impl ProbeTarget {
    /// Is probing the index `probes` times well below a scan of the table?
    fn affordable(&self, probes: f64) -> bool {
        probes * (1.0 + self.per_key) * INDEX_PROBE_MARGIN <= self.scan_rows
    }
}

/// A left-deep join problem: the legs' cardinality estimates, the legs
/// each predicate references, and how each leg could be index-probed.
struct JoinBlock {
    cards: Vec<f64>,
    /// Per predicate, the legs (by position) it references.
    pred_legs: Vec<Vec<usize>>,
    /// Per leg, the predicates it can be index-probed through.
    probes: Vec<Vec<ProbeKey>>,
}

/// An equality between an indexed column of a base-table leg and an
/// expression over other legs of its join block.
#[derive(Debug, Clone)]
struct ProbeKey {
    /// Position of the predicate in the block.
    pred: usize,
    target: ProbeTarget,
}

/// The price of adding one leg to a left-deep join prefix.
struct Step<'b> {
    /// Rows read to add the leg: its scan, or its index probes.
    read_cost: f64,
    /// Estimated cardinality of the extended prefix.
    card: f64,
    /// 10 for a cartesian product, else 1.
    penalty: f64,
    /// The probe key when the leg is read by index probes.
    probe: Option<&'b ProbeKey>,
}

impl JoinBlock {
    /// Price adding leg `add` to a prefix (the legs `in_prefix` holds for)
    /// of estimated cardinality `card`. A leg with an index on a column
    /// the prefix binds is read by probes — one per prefix row — when that
    /// is [`ProbeTarget::affordable`]; otherwise it is scanned.
    fn step(&self, in_prefix: impl Fn(usize) -> bool, card: f64, add: usize) -> Step<'_> {
        let n = self.cards.len();
        // Predicates bound by adding `add`.
        let bound: Vec<usize> = (0..self.pred_legs.len())
            .filter(|&p| {
                let local = &self.pred_legs[p];
                local.contains(&add) && local.iter().all(|&l| l == add || in_prefix(l))
            })
            .collect();
        // Discourage cartesian products.
        let penalty = if !bound.is_empty() || n == 1 {
            1.0
        } else {
            10.0
        };
        let probe = self.probes[add]
            .iter()
            .filter(|k| bound.contains(&k.pred))
            .filter(|k| k.target.affordable(card))
            .min_by(|a, b| a.target.per_key.total_cmp(&b.target.per_key));
        let mut sel = 1.0;
        for &p in &bound {
            if probe.map(|k| k.pred) != Some(p) {
                sel *= 0.1;
            }
        }
        match probe {
            Some(k) => Step {
                read_cost: card * (1.0 + k.target.per_key),
                card: (card * k.target.per_key * sel).max(1.0),
                penalty,
                probe,
            },
            None => {
                let add_card = self.cards[add];
                Step {
                    read_cost: add_card,
                    card: (card * add_card * sel).max(1.0),
                    penalty,
                    probe,
                }
            }
        }
    }
}

/// Join leg plan `right`, whose columns start at slot `offset` of the
/// combined row, onto `left` on the equi `keys` — `(left key, right key
/// over the leg's own row, predicate)` — plus `residual` over the combined
/// row. The leg is read by index probes when the planner picked `probe`
/// for it (the other keys then join the residual); otherwise this is a
/// hash join, or nested loops without keys.
fn equi_join(
    left: PhysPlan,
    right: PhysPlan,
    mut keys: Vec<(PhysExpr, PhysExpr, usize)>,
    mut residual: Vec<PhysExpr>,
    offset: usize,
    probe: Option<&ProbeKey>,
) -> PhysPlan {
    if let (Some(probe), PhysPlan::SeqScan { table, filter }) = (probe, &right) {
        if let Some(k) = keys.iter().position(|(_, _, p)| *p == probe.pred) {
            let (key, _, _) = keys.remove(k);
            for (l, r, _) in keys {
                residual.push(PhysExpr::Binary {
                    left: Box::new(l),
                    op: BinOp::Eq,
                    right: Box::new(shift_cols(&r, offset as isize)),
                });
            }
            return PhysPlan::IndexNlJoin {
                left: Box::new(left),
                table: table.clone(),
                index: probe.target.index.clone(),
                key,
                filter: filter.clone(),
                residual,
            };
        }
    }
    if keys.is_empty() {
        PhysPlan::NlJoin {
            left: Box::new(left),
            right: Box::new(right),
            preds: residual,
        }
    } else {
        PhysPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: keys.iter().map(|(l, _, _)| l.clone()).collect(),
            right_keys: keys.iter().map(|(_, r, _)| r.clone()).collect(),
            residual,
        }
    }
}

/// Shift every `Col` slot in a lowered expression by `delta`.
fn shift_cols(e: &PhysExpr, delta: isize) -> PhysExpr {
    match e {
        PhysExpr::Col(i) => PhysExpr::Col((*i as isize + delta) as usize),
        PhysExpr::Literal(v) => PhysExpr::Literal(v.clone()),
        PhysExpr::Param(i) => PhysExpr::Param(*i),
        PhysExpr::Outer { qun, col } => PhysExpr::Outer {
            qun: *qun,
            col: *col,
        },
        PhysExpr::Unary { op, expr } => PhysExpr::Unary {
            op: *op,
            expr: Box::new(shift_cols(expr, delta)),
        },
        PhysExpr::Binary { left, op, right } => PhysExpr::Binary {
            left: Box::new(shift_cols(left, delta)),
            op: *op,
            right: Box::new(shift_cols(right, delta)),
        },
        PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
            expr: Box::new(shift_cols(expr, delta)),
            negated: *negated,
        },
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => PhysExpr::Like {
            expr: Box::new(shift_cols(expr, delta)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        PhysExpr::InList {
            expr,
            list,
            negated,
        } => PhysExpr::InList {
            expr: Box::new(shift_cols(expr, delta)),
            list: list.iter().map(|x| shift_cols(x, delta)).collect(),
            negated: *negated,
        },
        PhysExpr::Func { func, args } => PhysExpr::Func {
            func: *func,
            args: args.iter().map(|x| shift_cols(x, delta)).collect(),
        },
        PhysExpr::AggRef(i) => PhysExpr::AggRef(*i),
    }
}

/// Shape-based predicate selectivity: the estimate for a predicate that
/// ANALYZE's statistics do not cover.
fn pred_selectivity(p: &ScalarExpr) -> f64 {
    match p {
        ScalarExpr::Binary { op: BinOp::Eq, .. } => 0.1,
        ScalarExpr::Binary {
            op: BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq,
            ..
        } => 0.33,
        ScalarExpr::Binary {
            op: BinOp::NotEq, ..
        } => 0.9,
        ScalarExpr::Like { .. } => 0.25,
        ScalarExpr::InList { list, .. } => (0.1 * list.len() as f64).min(1.0),
        _ => 0.5,
    }
}
