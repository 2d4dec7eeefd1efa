//! Semantic analysis: SQL AST → QGM.
//!
//! This reproduces the first compilation stage of Fig. 2: name resolution
//! against the catalog, view expansion, and construction of the initial QGM
//! graph. Existential subqueries become `E` quantifiers (Fig. 3a); `NOT
//! EXISTS` becomes an `Anti` quantifier; `IN (SELECT …)` becomes an `E`
//! quantifier with the membership predicate pushed into the subquery box.
//! Disjunctions containing subqueries are split into UNION branches
//! (OR-to-UNION), which is what lets the Table 1 baseline express
//! multi-path reachability in plain SQL.

use std::collections::HashMap;

use xnf_sql::{BinOp, Expr, Literal, OrderItem, Select, SelectItem, TableRef, UnaryOp, ViewBody};
use xnf_storage::{Catalog, Value, ViewDef, ViewKind};

use crate::error::{QgmError, Result};
use crate::expr::{QunId, ScalarExpr};
use crate::graph::{
    BoxId, BoxKind, GroupByBox, HeadColumn, OrderSpec, OutputDesc, OutputKind, Qgm, QunKind,
    SelectBox, UnionBox,
};
use crate::views::view_body;

/// Maximum view-expansion depth (guards against self-referential views).
const MAX_VIEW_DEPTH: u32 = 32;

/// Build a QGM graph for a SELECT statement (adds the Top box).
pub fn build_select_query(catalog: &Catalog, select: &Select) -> Result<Qgm> {
    let mut b = Builder::new(catalog);
    let body = b.select_to_box(select, &Scope::root())?;
    let mut qgm = b.finish();
    attach_top(&mut qgm, body, select)?;
    Ok(qgm)
}

/// Attach a Top box delivering `body` as a single relational stream, and
/// resolve ORDER BY / LIMIT against the body head.
pub fn attach_top(qgm: &mut Qgm, body: BoxId, select: &Select) -> Result<()> {
    let top = qgm.add_box(BoxKind::Top, "top");
    let tq = qgm.add_qun(top, QunKind::Foreach, body, "out");
    qgm.top = Some(top);
    qgm.outputs.push(OutputDesc {
        qun: tq,
        name: "result".into(),
        kind: OutputKind::Table,
    });
    qgm.order_by = resolve_order_by(qgm, body, &select.order_by)?;
    qgm.limit = select.limit;
    Ok(())
}

fn resolve_order_by(qgm: &Qgm, body: BoxId, items: &[OrderItem]) -> Result<Vec<OrderSpec>> {
    let head = &qgm.boxed(body).head;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let col = match &item.expr {
            Expr::Literal(Literal::Int(i)) => {
                let i = *i;
                if i < 1 || i as usize > head.len() {
                    return Err(QgmError::Unsupported(format!(
                        "ORDER BY position {i} out of range"
                    )));
                }
                (i - 1) as usize
            }
            // A qualified key picks its own binding's column when select
            // items share a name (`SELECT r1.a, r2.a … ORDER BY r2.a`).
            Expr::Column { qualifier, name } => qualifier
                .as_deref()
                .and_then(|q| {
                    head.iter().position(|h| {
                        h.name.eq_ignore_ascii_case(name)
                            && matches!(&h.expr, ScalarExpr::Col { qun, .. }
                                if qgm.quns[*qun].name.eq_ignore_ascii_case(q))
                    })
                })
                .or_else(|| head.iter().position(|h| h.name.eq_ignore_ascii_case(name)))
                .ok_or_else(|| {
                    QgmError::Unsupported(format!(
                        "ORDER BY column '{name}' must appear in the select list"
                    ))
                })?,
            other => {
                return Err(QgmError::Unsupported(format!(
                    "ORDER BY expression '{other}' must be a column or position"
                )))
            }
        };
        out.push(OrderSpec {
            col,
            desc: item.desc,
        });
    }
    Ok(out)
}

/// Name-resolution scope: bindings of this query block, chained to outer
/// blocks for correlation.
pub struct Scope<'p> {
    bindings: Vec<(String, QunId)>,
    parent: Option<&'p Scope<'p>>,
}

impl<'p> Scope<'p> {
    pub fn root() -> Scope<'static> {
        Scope {
            bindings: Vec::new(),
            parent: None,
        }
    }

    fn child(&'p self) -> Scope<'p> {
        Scope {
            bindings: Vec::new(),
            parent: Some(self),
        }
    }

    pub fn add_binding(&mut self, name: &str, qun: QunId) -> Result<()> {
        if self
            .bindings
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            return Err(QgmError::Xnf(format!("duplicate table alias '{name}'")));
        }
        self.bindings.push((name.to_string(), qun));
        Ok(())
    }
}

/// The semantic builder. Holds the QGM under construction plus a base-table
/// box cache so every reference to the same stored table shares one box
/// (QGM treats base tables as single entities with many quantifiers).
pub struct Builder<'a> {
    catalog: &'a Catalog,
    pub qgm: Qgm,
    base_boxes: HashMap<String, BoxId>,
    view_depth: u32,
}

impl<'a> Builder<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Builder {
            catalog,
            qgm: Qgm::new(),
            base_boxes: HashMap::new(),
            view_depth: 0,
        }
    }

    pub fn finish(self) -> Qgm {
        self.qgm
    }

    /// Get or create the BaseTable box for a stored table.
    pub fn base_table_box(&mut self, name: &str) -> Result<BoxId> {
        let key = name.to_ascii_uppercase();
        if let Some(&b) = self.base_boxes.get(&key) {
            return Ok(b);
        }
        let table = self
            .catalog
            .table(name)
            .map_err(|_| QgmError::UnknownTable(name.to_string()))?;
        let schema = table.schema.clone();
        let id = self.qgm.add_box(
            BoxKind::BaseTable {
                table: table.name.clone(),
                schema,
            },
            &table.name,
        );
        self.base_boxes.insert(key, id);
        Ok(id)
    }

    /// Build a box tree for `select`, resolving names against `outer` for
    /// correlation. Returns the box delivering the query's head.
    pub fn select_to_box(&mut self, select: &Select, outer: &Scope<'_>) -> Result<BoxId> {
        if !select.unions.is_empty() {
            let mut branches = Vec::with_capacity(select.unions.len() + 1);
            let mut first = select.clone();
            first.unions.clear();
            // UNION is left-associative with mixed ALL handled pairwise; we
            // conservatively use `all = every branch ALL` (mixed chains are
            // rejected for clarity).
            let alls: Vec<bool> = select.unions.iter().map(|(a, _)| *a).collect();
            let all = if alls.iter().all(|&a| a) {
                true
            } else if alls.iter().all(|&a| !a) {
                false
            } else {
                return Err(QgmError::Unsupported(
                    "mixed UNION / UNION ALL chains".to_string(),
                ));
            };
            branches.push(self.select_to_box(&first, outer)?);
            for (_, s) in &select.unions {
                branches.push(self.select_to_box(s, outer)?);
            }
            return self.union_of(branches, all);
        }
        self.select_core_to_box(select, outer)
    }

    /// Build a UNION box over already-built branches.
    pub fn union_of(&mut self, branches: Vec<BoxId>, all: bool) -> Result<BoxId> {
        let arity = self.qgm.boxed(branches[0]).head.len();
        for &b in &branches[1..] {
            if self.qgm.boxed(b).head.len() != arity {
                return Err(QgmError::Unsupported(
                    "UNION branches must have equal arity".to_string(),
                ));
            }
        }
        let ub = self.qgm.add_box(BoxKind::Union(UnionBox { all }), "union");
        let mut first_qun = None;
        for (i, b) in branches.iter().enumerate() {
            let q = self.qgm.add_qun(ub, QunKind::Foreach, *b, format!("u{i}"));
            if i == 0 {
                first_qun = Some(q);
            }
        }
        let fq = first_qun.unwrap();
        let names: Vec<String> = self
            .qgm
            .boxed(branches[0])
            .head
            .iter()
            .map(|h| h.name.clone())
            .collect();
        for (i, name) in names.into_iter().enumerate() {
            self.qgm.boxes[ub].head.push(HeadColumn {
                name,
                expr: ScalarExpr::col(fq, i),
            });
        }
        Ok(ub)
    }

    fn select_core_to_box(&mut self, select: &Select, outer: &Scope<'_>) -> Result<BoxId> {
        // OR-to-UNION pre-pass: a top-level disjunction containing subqueries
        // cannot stay a scalar predicate (subqueries become quantifiers), so
        // split the block.
        if let Some(w) = &select.where_clause {
            if let Expr::Binary { op: BinOp::Or, .. } = w {
                let disjuncts = collect_disjuncts(w);
                if disjuncts.iter().any(|d| contains_subquery(d)) {
                    let mut branches = Vec::with_capacity(disjuncts.len());
                    for d in &disjuncts {
                        let mut branch = select.clone();
                        branch.where_clause = Some((*d).clone());
                        branches.push(self.select_core_to_box(&branch, outer)?);
                    }
                    // OR-to-UNION uses set semantics (duplicates collapse),
                    // the standard requirement for this rewrite.
                    return self.union_of(branches, false);
                }
            }
        }

        let sel_box = self
            .qgm
            .add_box(BoxKind::Select(SelectBox::default()), "select");
        let mut scope = outer.child();

        // FROM clause + explicit JOINs.
        let mut join_preds: Vec<Expr> = Vec::new();
        for tref in &select.from {
            self.add_table_ref(sel_box, tref, &mut scope, outer)?;
        }
        for j in &select.joins {
            self.add_table_ref(sel_box, &j.table, &mut scope, outer)?;
            join_preds.push(j.on.clone());
        }
        if select.from.is_empty() && !select.items.is_empty() {
            // SELECT without FROM: constants only (used by tests/examples).
        }

        // WHERE + ON predicates.
        if let Some(w) = &select.where_clause {
            if w.contains_aggregate() {
                return Err(QgmError::Unsupported(format!("aggregate in WHERE: {w}")));
            }
            for c in w.conjuncts() {
                self.add_predicate(sel_box, c, &scope)?;
            }
        }
        for p in &join_preds {
            for c in p.conjuncts() {
                self.add_predicate(sel_box, c, &scope)?;
            }
        }

        // Aggregation?
        let has_group = !select.group_by.is_empty()
            || select.having.is_some()
            || select.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });
        if has_group {
            return self.build_group_by(sel_box, select, &scope);
        }

        // Plain projection head.
        let items = self.expand_items(&select.items, &scope)?;
        for (name, expr) in items {
            self.qgm.boxes[sel_box].head.push(HeadColumn { name, expr });
        }
        if let BoxKind::Select(s) = &mut self.qgm.boxes[sel_box].kind {
            s.distinct = select.distinct;
        }
        Ok(sel_box)
    }

    /// Expand the select list into (name, expr) pairs.
    fn expand_items(
        &mut self,
        items: &[SelectItem],
        scope: &Scope<'_>,
    ) -> Result<Vec<(String, ScalarExpr)>> {
        let mut out = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for (name, qun) in &scope.bindings {
                        let arity = self.qgm.arity_of_qun(*qun);
                        for col in 0..arity {
                            let cname = self.head_name_of(*qun, col);
                            let _ = name;
                            out.push((cname, ScalarExpr::col(*qun, col)));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let qun = scope
                        .bindings
                        .iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case(q))
                        .map(|(_, q)| *q)
                        .ok_or_else(|| QgmError::UnknownBinding(q.clone()))?;
                    let arity = self.qgm.arity_of_qun(qun);
                    for col in 0..arity {
                        out.push((self.head_name_of(qun, col), ScalarExpr::col(qun, col)));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let e = self.resolve_expr(expr, scope)?;
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| default_name(expr, out.len()));
                    out.push((name, e));
                }
            }
        }
        Ok(out)
    }

    fn head_name_of(&self, qun: QunId, col: usize) -> String {
        self.qgm.boxes[self.qgm.quns[qun].ranges_over].head[col]
            .name
            .clone()
    }

    /// Add one FROM-clause reference as a quantifier of `owner`.
    fn add_table_ref(
        &mut self,
        owner: BoxId,
        tref: &TableRef,
        scope: &mut Scope<'_>,
        outer: &Scope<'_>,
    ) -> Result<()> {
        match tref {
            TableRef::Named { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name);
                let over = if self.catalog.has_table(name) {
                    self.base_table_box(name)?
                } else if let Some(view) = self.catalog.view(name) {
                    if view.kind == ViewKind::Xnf {
                        return Err(QgmError::Unsupported(format!(
                            "XNF view '{name}' cannot appear in FROM; query it with OUT OF"
                        )));
                    }
                    if view.materialized {
                        // Materialized-view substitution: instead of
                        // expanding the definition, reference the backing
                        // table (resolved through the catalog's fallback),
                        // so the query plans as a batched scan of stored
                        // contents — `matview scan` in EXPLAIN.
                        self.base_table_box(name)?
                    } else {
                        self.expand_sql_view(&view)?
                    }
                } else {
                    return Err(QgmError::UnknownTable(name.clone()));
                };
                let q = self.qgm.add_qun(owner, QunKind::Foreach, over, binding);
                scope.add_binding(binding, q)?;
            }
            TableRef::Derived { select, alias } => {
                let over = self.select_to_box(select, outer)?;
                self.qgm.boxes[over].label = alias.clone();
                let q = self
                    .qgm
                    .add_qun(owner, QunKind::Foreach, over, alias.as_str());
                scope.add_binding(alias, q)?;
            }
        }
        Ok(())
    }

    /// Expand a stored SQL view into a box.
    fn expand_sql_view(&mut self, view: &ViewDef) -> Result<BoxId> {
        if self.view_depth >= MAX_VIEW_DEPTH {
            return Err(QgmError::Unsupported(
                "view expansion too deep (cycle?)".to_string(),
            ));
        }
        self.view_depth += 1;
        let result = match view_body(view) {
            Ok(ViewBody::Select(select)) => self.select_to_box(&select, &Scope::root()),
            Ok(ViewBody::Xnf(_)) => Err(QgmError::Unsupported(
                "stored view text is not a SELECT".to_string(),
            )),
            Err(e) => Err(e),
        };
        self.view_depth -= 1;
        result
    }

    /// Add one WHERE conjunct: either a scalar predicate or a subquery
    /// (quantifier-producing) construct.
    pub fn add_predicate(
        &mut self,
        owner: BoxId,
        conjunct: &Expr,
        scope: &Scope<'_>,
    ) -> Result<()> {
        match conjunct {
            Expr::Exists { subquery, negated } => {
                let sub = self.select_to_box(subquery, scope)?;
                let kind = if *negated {
                    QunKind::Anti
                } else {
                    QunKind::Existential
                };
                self.qgm.add_qun(owner, kind, sub, "sq");
                Ok(())
            }
            // A WHERE conjunct only filters, so `NOT (x IN …)` keeps the
            // same rows as `x NOT IN …`; likewise for EXISTS and for the
            // negated forms.
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } if matches!(**expr, Expr::Exists { .. } | Expr::InSubquery { .. }) => {
                let mut flipped = (**expr).clone();
                if let Expr::Exists { negated, .. } | Expr::InSubquery { negated, .. } =
                    &mut flipped
                {
                    *negated = !*negated;
                }
                self.add_predicate(owner, &flipped, scope)
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let outer_e = self.resolve_expr(expr, scope)?;
                let sub = self.select_to_box(subquery, scope)?;
                if self.qgm.boxed(sub).head.len() != 1 {
                    return Err(QgmError::Unsupported(
                        "IN subquery must produce exactly one column".to_string(),
                    ));
                }
                // Membership predicate lives inside the subquery box,
                // expressed over its own head expression (correlation to the
                // outer expression).
                let head_expr = self.qgm.boxed(sub).head[0].expr.clone();
                let eq = ScalarExpr::eq(head_expr.clone(), outer_e.clone());
                let (pred, kind) = if *negated {
                    // `x NOT IN (S)` holds only if `x = y` is false for every
                    // y in S: a NULL on either side makes the comparison
                    // unknown, which disqualifies x just like a match does.
                    let is_null = |e: ScalarExpr| ScalarExpr::IsNull {
                        expr: Box::new(e),
                        negated: false,
                    };
                    let pred =
                        ScalarExpr::or(ScalarExpr::or(eq, is_null(head_expr)), is_null(outer_e));
                    (pred, QunKind::Anti)
                } else {
                    (eq, QunKind::Existential)
                };
                self.qgm.boxes[sub].preds.push(pred);
                self.qgm.add_qun(owner, kind, sub, "sq");
                Ok(())
            }
            other => {
                let e = self.resolve_expr(other, scope)?;
                self.qgm.boxes[owner].preds.push(e);
                Ok(())
            }
        }
    }

    /// Build the GroupBy box layered over the SPJ select box.
    fn build_group_by(
        &mut self,
        sel_box: BoxId,
        select: &Select,
        scope: &Scope<'_>,
    ) -> Result<BoxId> {
        // The SPJ box exposes every column of every binding; the GroupBy box
        // references them through one quantifier.
        let mut flat: Vec<(QunId, usize)> = Vec::new();
        for (_, qun) in &scope.bindings {
            for col in 0..self.qgm.arity_of_qun(*qun) {
                flat.push((*qun, col));
            }
        }
        for &(qun, col) in &flat {
            let name = self.head_name_of(qun, col);
            self.qgm.boxes[sel_box].head.push(HeadColumn {
                name,
                expr: ScalarExpr::col(qun, col),
            });
        }

        let gb = self
            .qgm
            .add_box(BoxKind::GroupBy(GroupByBox::default()), "groupby");
        let gq = self.qgm.add_qun(gb, QunKind::Foreach, sel_box, "g");

        // Re-home a resolved expression from SPJ quantifiers onto gq.
        let rehome = |e: &ScalarExpr, flat: &[(QunId, usize)]| -> Result<ScalarExpr> {
            let mut err = None;
            let out = e.map_cols(&mut |q, c| match flat
                .iter()
                .position(|&(fq, fc)| fq == q && fc == c)
            {
                Some(i) => ScalarExpr::col(gq, i),
                None => {
                    err = Some(QgmError::Unsupported(
                        "correlated column inside aggregate block".to_string(),
                    ));
                    ScalarExpr::col(gq, 0)
                }
            });
            match err {
                Some(e) => Err(e),
                None => Ok(out),
            }
        };

        let mut group_exprs = Vec::new();
        for g in &select.group_by {
            let e = self.resolve_expr(g, scope)?;
            group_exprs.push(rehome(&e, &flat)?);
        }

        // Head items.
        let mut head = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let resolved = self.resolve_expr(expr, scope)?;
                    let e = rehome(&resolved, &flat)?;
                    if !e.contains_agg() {
                        // Must be one of the grouping expressions.
                        let sig = e.signature();
                        if !group_exprs.iter().any(|g| g.signature() == sig) {
                            return Err(QgmError::Unsupported(format!(
                                "non-aggregate select item '{expr}' must appear in GROUP BY"
                            )));
                        }
                    }
                    let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                    head.push(HeadColumn { name, expr: e });
                }
                _ => {
                    return Err(QgmError::Unsupported(
                        "wildcard select items cannot be combined with GROUP BY".to_string(),
                    ))
                }
            }
        }
        self.qgm.boxes[gb].head = head;
        if let Some(h) = &select.having {
            let resolved = self.resolve_expr(h, scope)?;
            let e = rehome(&resolved, &flat)?;
            self.qgm.boxes[gb].preds.push(e);
        }
        if let BoxKind::GroupBy(g) = &mut self.qgm.boxes[gb].kind {
            g.group_by = group_exprs;
        }
        Ok(gb)
    }

    /// Resolve an AST expression into a [`ScalarExpr`] under `scope`.
    pub fn resolve_expr(&mut self, e: &Expr, scope: &Scope<'_>) -> Result<ScalarExpr> {
        Ok(match e {
            Expr::Literal(l) => ScalarExpr::Literal(literal_value(l)),
            Expr::Param(i) => ScalarExpr::Param(*i),
            Expr::Column { qualifier, name } => self.resolve_column(qualifier.as_deref(), name, scope)?,
            Expr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(self.resolve_expr(expr, scope)?),
            },
            Expr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(self.resolve_expr(left, scope)?),
                op: *op,
                right: Box::new(self.resolve_expr(right, scope)?),
            },
            Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.resolve_expr(expr, scope)?),
                negated: *negated,
            },
            Expr::Like { expr, pattern, negated } => ScalarExpr::Like {
                expr: Box::new(self.resolve_expr(expr, scope)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => {
                // Desugar to comparisons.
                let x = self.resolve_expr(expr, scope)?;
                let lo = self.resolve_expr(low, scope)?;
                let hi = self.resolve_expr(high, scope)?;
                let ge = ScalarExpr::Binary {
                    left: Box::new(x.clone()),
                    op: BinOp::GtEq,
                    right: Box::new(lo),
                };
                let le =
                    ScalarExpr::Binary { left: Box::new(x), op: BinOp::LtEq, right: Box::new(hi) };
                let both = ScalarExpr::and(ge, le);
                if *negated {
                    ScalarExpr::Unary { op: UnaryOp::Not, expr: Box::new(both) }
                } else {
                    both
                }
            }
            Expr::InList { expr, list, negated } => ScalarExpr::InList {
                expr: Box::new(self.resolve_expr(expr, scope)?),
                list: list.iter().map(|e| self.resolve_expr(e, scope)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Func { func, args } => ScalarExpr::Func {
                func: *func,
                args: args.iter().map(|e| self.resolve_expr(e, scope)).collect::<Result<_>>()?,
            },
            Expr::Agg { func, arg, distinct } => ScalarExpr::Agg {
                func: *func,
                arg: match arg {
                    Some(a) => Some(Box::new(self.resolve_expr(a, scope)?)),
                    None => None,
                },
                distinct: *distinct,
            },
            Expr::Exists { .. } | Expr::InSubquery { .. } => {
                return Err(QgmError::Unsupported(
                    "subqueries are only supported as top-level WHERE conjuncts (optionally under NOT) or in OR chains"
                        .to_string(),
                ))
            }
        })
    }

    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        scope: &Scope<'_>,
    ) -> Result<ScalarExpr> {
        let mut s: Option<&Scope<'_>> = Some(scope);
        while let Some(cur) = s {
            if let Some(q) = qualifier {
                if let Some((_, qun)) = cur.bindings.iter().find(|(n, _)| n.eq_ignore_ascii_case(q))
                {
                    let b = &self.qgm.boxes[self.qgm.quns[*qun].ranges_over];
                    let col = b
                        .head_index(name)
                        .ok_or_else(|| QgmError::UnknownColumn(format!("{q}.{name}")))?;
                    return Ok(ScalarExpr::col(*qun, col));
                }
            } else {
                let mut hits = Vec::new();
                for (_, qun) in &cur.bindings {
                    let b = &self.qgm.boxes[self.qgm.quns[*qun].ranges_over];
                    if let Some(col) = b.head_index(name) {
                        hits.push(ScalarExpr::col(*qun, col));
                    }
                }
                match hits.len() {
                    1 => return Ok(hits.pop().unwrap()),
                    0 => {}
                    _ => return Err(QgmError::AmbiguousColumn(name.to_string())),
                }
            }
            s = cur.parent;
        }
        match qualifier {
            Some(q) => Err(QgmError::UnknownBinding(q.to_string())),
            None => Err(QgmError::UnknownColumn(name.to_string())),
        }
    }
}

/// Convert an AST literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Double(*x),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

fn default_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        _ => format!("c{ordinal}"),
    }
}

fn collect_disjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let mut v = collect_disjuncts(left);
            v.extend(collect_disjuncts(right));
            v
        }
        other => vec![other],
    }
}

fn contains_subquery(e: &Expr) -> bool {
    match e {
        Expr::Exists { .. } | Expr::InSubquery { .. } => true,
        Expr::Unary { expr, .. } => contains_subquery(expr),
        Expr::Binary { left, right, .. } => contains_subquery(left) || contains_subquery(right),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => contains_subquery(expr),
        Expr::Between {
            expr, low, high, ..
        } => contains_subquery(expr) || contains_subquery(low) || contains_subquery(high),
        Expr::InList { expr, list, .. } => {
            contains_subquery(expr) || list.iter().any(contains_subquery)
        }
        _ => false,
    }
}
