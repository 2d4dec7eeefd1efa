//! Materialized views with incremental delta maintenance.
//!
//! `CREATE MATERIALIZED VIEW` stores a view's contents in backing heap
//! tables (one per output stream) and keeps them fresh as base tables
//! change, instead of re-extracting on every fetch:
//!
//! - **relational views** materialize their single result stream; queries
//!   over the view plan as `matview scan` (or index lookups) of the backing
//!   table;
//! - **composite-object (XNF) views** materialize every node and
//!   connection stream. Node rows carry a stable `__coid` surrogate;
//!   connection rows store surrogate pairs, so stored streams survive
//!   incremental splicing (heap positions do not).
//!   [`Session::fetch_co`](crate::Session::fetch_co) loads the workspace
//!   straight from storage, and
//!   [`Database::fetch_co_point`] serves a single CO subtree in one pass
//!   over the stored streams, each page pinned once — the "hot CO from
//!   stored state" serving path.
//!
//! Maintenance is driven by [`DeltaBatch`]es captured at the DML layer and
//! chooses, per view, the cheapest strategy the definition admits:
//!
//! 1. **direct** — selection/projection of one base table: the delta images
//!    are filtered, projected and applied row-by-row to the backing table;
//! 2. **grouped aggregation** — `GROUP BY` over one base table with
//!    `COUNT(*)` / `SUM(int col)` outputs: each delta image adjusts its
//!    group's stored row in place (insert on first member, delete when the
//!    count reaches zero), instead of recomputing the whole aggregate;
//! 3. **keyed re-extraction** — join views whose equality predicates chain
//!    every leg to an output column (the *partition key*): affected key
//!    values are computed from the delta, stored rows with those keys are
//!    deleted (index lookup), and the definition is re-evaluated with a
//!    `key = value` restriction so the planner can use base-table indexes;
//!    for CO views the affected *root keys* are found by walking the
//!    relationship predicates (foreign keys and connect tables) from the
//!    changed row up to the root, then only those subtrees are re-extracted
//!    and *diffed* against the stored streams — value-identical nodes are
//!    kept (XNF's union-distinct object sharing), changed nodes are updated
//!    in place preserving their surrogate, and only genuinely new or
//!    vanished branches are written;
//! 4. **in-place edits** — the O(1) cases of 3, for components with a node
//!    key (a unique NOT NULL index the component projects): a value-only
//!    update rewrites the one stored node with that key; an inserted
//!    component row whose parents are stored (found by their node keys)
//!    inserts one node and its connections; an inserted connect-table row
//!    between two stored nodes inserts one connection; and an update that
//!    moves a row to another stored parent through a foreign key rewrites
//!    the node and swaps its one connection. Nothing is re-extracted.
//!    Any other delta row (a delete, a root insert, a row that would make
//!    an older subtree reachable) sends the whole commit to 3;
//! 5. **full recompute** — the fallback for everything else (non-groupable
//!    aggregation, DISTINCT, nested views, recursive COs), and what
//!    `REFRESH MATERIALIZED VIEW` always does.
//!
//! Commit-time propagation runs in one phase (see `maintain`): the
//! committing thread coalesces its delta chains, takes the maintenance
//! lock, commits, and applies the delta to every dependent view — the
//! in-place edits of strategy 4, or the keyed re-extraction and structural
//! diff (`splice`) of strategy 3. Every read reaches latest-committed
//! data, so commits apply one after another in commit-stamp order and the
//! result is serial maintenance in that order.
//!
//! All strategies bump the view's freshness epoch
//! ([`xnf_storage::MatView::epoch`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use xnf_exec::{eval, truthy, ExecStats, OuterCtx, Params, QueryResult, Row, StreamResult};
use xnf_qgm::{inline_xnf_views, view_body, OutputKind};
use xnf_sql::{
    AggFunc, BinOp, Expr, Literal, Select, SelectItem, Statement, TableRef, ViewBody, XnfDef,
    XnfQuery, XnfRelationship, XnfTake,
};
use xnf_storage::{
    Column, DataType, DeltaBatch, DeltaRow, MatView, Rid, Schema, Snapshot, Table, Tuple, Value,
    ViewKind,
};

use crate::cache::Workspace;
use crate::co::CoCache;
use crate::db::Database;
use crate::error::{Result, XnfError};
use crate::writeback::{analyze_simple_view, derive_co_schema, BaseMap, CoSchema, RelMeta};

/// Name of the surrogate column leading every materialized node stream.
pub const SURROGATE_COL: &str = "__coid";

// ---------------------------------------------------------------------------
// maintenance plans
// ---------------------------------------------------------------------------

/// How one materialized view is maintained. Derived from the stored
/// definition text, cached per catalog generation on the [`Database`].
pub(crate) struct MaintPlan {
    pub name: String,
    /// Base tables (normalized names) whose deltas can change this view.
    pub deps: HashSet<String>,
    /// Views (normalized names) the definition expands; dropping one is
    /// refused while this view exists.
    pub views: HashSet<String>,
    /// Nesting depth over other views (maintenance runs shallow-first, so a
    /// view over another materialized view sees fresh contents).
    pub depth: u32,
    pub body: BodyPlan,
}

pub(crate) enum BodyPlan {
    Sql {
        select: Select,
        strategy: SqlStrategy,
    },
    Xnf(XnfInfo),
}

pub(crate) enum SqlStrategy {
    /// Selection/projection of one base table: apply delta rows directly.
    Direct {
        /// Normalized base table name.
        table: String,
        /// Backing column `i` maps to base column `base_cols[i]`.
        base_cols: Vec<usize>,
        /// Selection predicate over the base row.
        filter: Option<Expr>,
    },
    /// Join view with a partition key: delete-by-key + keyed re-extraction.
    Keyed {
        /// `(normalized table, base column)` pairs: a delta on `table`
        /// yields affected key `row[column]`.
        sources: Vec<(String, usize)>,
        /// The key's AST expression (a qualified column of the definition),
        /// used to build the `key = value` re-extraction restriction.
        key_expr: Expr,
        /// Backing column holding the key (delete-by-key via `mv_key`).
        key_out: usize,
    },
    /// `GROUP BY` over one base table with `COUNT(*)` / `SUM(int col)`
    /// outputs: each delta image adjusts its group's stored row in place.
    GroupedAgg {
        /// Normalized base table name.
        table: String,
        /// `(base column, output position)` per grouping column.
        groups: Vec<(usize, usize)>,
        /// `(base column or None for COUNT(*), output position)` per
        /// aggregate output. At least one COUNT(*) tracks group liveness.
        aggs: Vec<(Option<usize>, usize)>,
        /// Selection predicate over the base row.
        filter: Option<Expr>,
    },
    /// Any delta triggers a full recompute.
    Full,
}

/// Parsed structure of a materialized CO view.
pub(crate) struct XnfInfo {
    /// Definition with XNF view references inlined.
    pub flat: XnfQuery,
    /// `flat` as text: the stored definition, and the query a CO served
    /// from storage re-fetches.
    pub text: Arc<str>,
    /// Updatability metadata (component base maps, relationship classes),
    /// shared with the COs served from storage.
    pub co: Arc<CoSchema>,
    /// Component names in stream order.
    pub comps: Vec<String>,
    /// Relationship definitions in stream order.
    pub rels: Vec<XnfRelationship>,
    /// Present when the view supports keyed (incremental) maintenance.
    pub key: Option<CoKey>,
    /// Per component, in stream order, when `key` is present (else empty).
    pub nodes: Vec<NodeFacts>,
}

/// What keyed maintenance knows about one component's stored nodes.
pub(crate) struct NodeFacts {
    /// Cache columns of the component's node key: a unique index on its
    /// base table whose columns are all NOT NULL and all projected, so at
    /// most one stored node carries each key value. `None` when the base
    /// table has no such index; its updates then always splice.
    pub key: Option<Vec<usize>>,
    /// Base columns whose change can move a connection, once per use: the
    /// columns any relationship reads, plus the root key column on the
    /// root. A use is `Some((rel, parent))` when it is the child column of
    /// the incoming foreign-key relationship `rel` whose parent component's
    /// node key is that relationship's parent column alone, so that a
    /// change of it moves the node to the one stored parent with the new
    /// value; any other use is `None`.
    pub links: Vec<(usize, Option<(usize, usize)>)>,
    /// Selection predicate, compiled against the base table.
    pub filter: Option<xnf_plan::PhysExpr>,
}

/// Root-partitioning of a keyed CO view.
pub(crate) struct CoKey {
    /// Component index of the root (the component no relationship points to).
    pub root: usize,
    /// Cache column of the root holding the partition key.
    pub root_key_col: usize,
}

impl XnfInfo {
    fn comp_index(&self, name: &str) -> Option<usize> {
        self.comps.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Base mapping of component `c` of a keyed view.
    fn base(&self, c: usize) -> &BaseMap {
        self.co.components[c]
            .base
            .as_ref()
            .expect("keyed components are base-mapped")
    }

    /// `(relationship, parent component, child component, metadata)` of
    /// every relationship whose endpoints resolve, in stream order.
    fn edges(&self) -> impl Iterator<Item = (usize, usize, usize, &RelMeta)> + '_ {
        self.rels
            .iter()
            .zip(&self.co.relationships)
            .enumerate()
            .filter_map(|(ri, (rel, meta))| {
                let p = self.comp_index(&rel.parent)?;
                Some((ri, p, self.comp_index(&rel.children[0])?, meta))
            })
    }

    /// Is cache column `col` alone the node key of component `c`?
    fn keyed_by(&self, c: usize, col: usize) -> bool {
        self.nodes[c].key.as_deref() == Some(&[col][..])
    }

    /// Topological order of components (parents before children).
    fn topo(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.comps.len()];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for r in &self.rels {
            let Some(p) = self.comp_index(&r.parent) else {
                continue;
            };
            for ch in &r.children {
                if let Some(c) = self.comp_index(ch) {
                    edges.push((p, c));
                    indeg[c] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..self.comps.len()).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(self.comps.len());
        while let Some(n) = queue.pop() {
            order.push(n);
            for &(p, c) in &edges {
                if p == n {
                    indeg[c] -= 1;
                    if indeg[c] == 0 {
                        queue.push(c);
                    }
                }
            }
        }
        order
    }
}

// ---------------------------------------------------------------------------
// DDL: CREATE MATERIALIZED VIEW / REFRESH
// ---------------------------------------------------------------------------

/// Execute `CREATE MATERIALIZED VIEW name AS body`: register the definition
/// plus backing storage, populate through the batch executor, and build the
/// maintenance indexes.
pub(crate) fn create_materialized(db: &Database, name: &str, body: &ViewBody) -> Result<()> {
    match body {
        ViewBody::Select(s) => {
            let strategy = analyze_sql_strategy(db, s);
            let result = db.run_query(&Statement::Select(s.clone()), Params::default(), None)?;
            let stream = result.try_table()?;
            let schema = any_schema(&stream.columns);
            db.catalog().create_materialized_view(
                name,
                ViewKind::Sql,
                &s.to_string(),
                vec![(name.to_string(), schema)],
            )?;
            if let Err(e) = fill_sql_backing(db, name, &strategy, &stream.rows) {
                let _ = db.catalog().drop_view(name);
                return Err(e);
            }
            Ok(())
        }
        ViewBody::Xnf(q) => {
            let info = analyze_xnf(db, q)?;
            let result =
                db.run_query(&Statement::Xnf(info.flat.clone()), Params::default(), None)?;
            let mut streams = Vec::with_capacity(result.streams.len());
            for s in &result.streams {
                let schema = match s.kind {
                    OutputKind::Connection { .. } => any_schema(&s.columns),
                    _ => {
                        let mut cols = vec![Column::new(SURROGATE_COL, DataType::Int)];
                        cols.extend(
                            s.columns
                                .iter()
                                .map(|c| Column::new(c.as_str(), DataType::Any)),
                        );
                        Schema::new(cols)
                    }
                };
                streams.push((s.name.clone(), schema));
            }
            db.catalog()
                .create_materialized_view(name, ViewKind::Xnf, &info.text, streams)?;
            if let Err(e) = fill_xnf_backing(db, name, &info, &result) {
                let _ = db.catalog().drop_view(name);
                return Err(e);
            }
            Ok(())
        }
    }
}

/// `REFRESH MATERIALIZED VIEW name`: full recompute of the backing storage,
/// serialized against commit-time maintenance by the maintenance lock.
pub(crate) fn refresh(db: &Database, name: &str) -> Result<()> {
    let view = db
        .catalog()
        .view(name)
        .filter(|v| v.materialized)
        .ok_or_else(|| XnfError::Api(format!("'{name}' is not a materialized view")))?;
    let plans = db.matview_plans()?;
    let plan = plans
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(&view.name))
        .ok_or_else(|| XnfError::Api(format!("no maintenance plan for '{name}'")))?;
    let _m = db.maintenance_lock().lock();
    repopulate(db, plan)
}

/// Full recompute: fresh backing tables, re-run the definition, rebuild the
/// maintenance indexes.
fn repopulate(db: &Database, plan: &MaintPlan) -> Result<()> {
    db.catalog().reset_matview_storage(&plan.name)?;
    match &plan.body {
        BodyPlan::Sql { select, strategy } => {
            let result =
                db.run_query(&Statement::Select(select.clone()), Params::default(), None)?;
            let stream = result.try_table()?;
            fill_sql_backing(db, &plan.name, strategy, &stream.rows)?;
        }
        BodyPlan::Xnf(info) => {
            let result =
                db.run_query(&Statement::Xnf(info.flat.clone()), Params::default(), None)?;
            fill_xnf_backing(db, &plan.name, info, &result)?;
        }
    }
    let mv = expect_matview(db, &plan.name)?;
    mv.bump_epoch();
    Ok(())
}

/// Backing stream `name` of materialized view `mv`.
fn backing_stream(mv: &MatView, name: &str) -> Result<Arc<Table>> {
    mv.stream(name)
        .ok_or_else(|| XnfError::Api(format!("missing backing stream '{name}'")))
}

fn expect_matview(db: &Database, name: &str) -> Result<Arc<MatView>> {
    db.catalog()
        .matview(name)
        .ok_or_else(|| XnfError::Api(format!("missing backing storage for matview '{name}'")))
}

/// All-`Any` schema over the given column names (executor output is
/// dynamically typed).
fn any_schema(columns: &[String]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| Column::new(c.as_str(), DataType::Any))
            .collect(),
    )
}

/// Populate a relational view's backing table and create the maintenance
/// index its strategy needs.
fn fill_sql_backing(db: &Database, name: &str, strategy: &SqlStrategy, rows: &[Row]) -> Result<()> {
    let mv = expect_matview(db, name)?;
    let backing = mv
        .stream(name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{name}'")))?;
    for row in rows {
        backing.insert(&Tuple::new(row.clone()))?;
    }
    match strategy {
        SqlStrategy::Keyed { key_out, .. } => ensure_index(&backing, "mv_key", *key_out, false)?,
        // Group rows are located through their first grouping output.
        SqlStrategy::GroupedAgg { groups, .. } => {
            ensure_index(&backing, "mv_key", groups[0].1, false)?
        }
        _ => {}
    }
    backing.analyze()?;
    Ok(())
}

/// Populate a CO view's backing streams (node rows get fresh surrogates,
/// connection rows translate stream positions to surrogates) and create
/// the maintenance indexes.
fn fill_xnf_backing(db: &Database, name: &str, info: &XnfInfo, result: &QueryResult) -> Result<()> {
    let mv = expect_matview(db, name)?;
    // Pass 1: node streams, recording position → surrogate.
    let mut surr: HashMap<String, Vec<i64>> = HashMap::new();
    for s in &result.streams {
        if matches!(s.kind, OutputKind::Connection { .. }) {
            continue;
        }
        let backing = backing_stream(&mv, &s.name)?;
        let start = mv.alloc_surrogates(s.rows.len() as i64);
        let mut ids = Vec::with_capacity(s.rows.len());
        for (pos, row) in s.rows.iter().enumerate() {
            let id = start + pos as i64;
            let mut values = Vec::with_capacity(row.len() + 1);
            values.push(Value::Int(id));
            values.extend(row.iter().cloned());
            backing.insert(&Tuple::new(values))?;
            ids.push(id);
        }
        surr.insert(s.name.to_ascii_lowercase(), ids);
        ensure_index(&backing, "mv_coid", 0, true)?;
        if backing.schema.len() > 1 {
            ensure_index(&backing, "mv_v0", 1, false)?;
        }
        backing.analyze()?;
    }
    // Pass 2: connection streams.
    for s in &result.streams {
        let OutputKind::Connection {
            parent, children, ..
        } = &s.kind
        else {
            continue;
        };
        let backing = backing_stream(&mv, &s.name)?;
        let pids = &surr[&parent.to_ascii_lowercase()];
        let cids: Vec<&Vec<i64>> = children
            .iter()
            .map(|c| &surr[&c.to_ascii_lowercase()])
            .collect();
        for row in &s.rows {
            let mut values = Vec::with_capacity(row.len());
            values.push(Value::Int(pids[row[0].as_int()? as usize]));
            for (slot, v) in row[1..].iter().enumerate() {
                values.push(Value::Int(cids[slot][v.as_int()? as usize]));
            }
            backing.insert(&Tuple::new(values))?;
        }
        for col in 0..backing.schema.len() {
            ensure_index(&backing, &format!("mv_c{col}"), col, false)?;
        }
        backing.analyze()?;
    }
    // Root-key index for keyed maintenance and point fetches.
    if let Some(key) = &info.key {
        if let Some(backing) = mv.stream(&info.comps[key.root]) {
            ensure_index(&backing, "mv_rootkey", 1 + key.root_key_col, false)?;
        }
    }
    // Node-key index for in-place rewrites (usually `mv_v0` already is one).
    for (comp, facts) in info.comps.iter().zip(&info.nodes) {
        if let (Some(key), Some(backing)) = (&facts.key, mv.stream(comp)) {
            ensure_index(&backing, "mv_nodekey", 1 + key[0], false)?;
        }
    }
    Ok(())
}

/// Create a single-column index if an equivalent one does not exist yet.
fn ensure_index(table: &Arc<Table>, name: &str, col: usize, unique: bool) -> Result<()> {
    if table.find_index(&[col]).is_some() {
        return Ok(());
    }
    table.create_index(name, vec![col], unique)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// plan analysis
// ---------------------------------------------------------------------------

/// Build maintenance plans for every materialized view, sorted so views
/// over other views maintain after their inputs.
pub(crate) fn build_plans(db: &Database) -> Result<Vec<Arc<MaintPlan>>> {
    let mut plans = Vec::new();
    for name in db.catalog().view_names() {
        let Some(view) = db.catalog().view(&name) else {
            continue;
        };
        if !view.materialized {
            continue;
        }
        let body = view_body(&view)?;
        let mut reads = Reads::default();
        let depth = match &body {
            ViewBody::Select(s) => collect_select_deps(db, s, &mut reads, 0)?,
            ViewBody::Xnf(q) => collect_xnf_deps(db, q, &mut reads)?,
        };
        let body_plan = match body {
            ViewBody::Select(s) => {
                let strategy = analyze_sql_strategy(db, &s);
                BodyPlan::Sql {
                    select: s,
                    strategy,
                }
            }
            ViewBody::Xnf(q) => BodyPlan::Xnf(analyze_xnf(db, &q)?),
        };
        plans.push(Arc::new(MaintPlan {
            name: view.name.clone(),
            deps: reads.tables,
            views: reads.views,
            depth,
            body: body_plan,
        }));
    }
    plans.sort_by_key(|p| p.depth);
    Ok(plans)
}

/// What a view definition reads: base tables and expanded views
/// (normalized names).
#[derive(Default)]
struct Reads {
    tables: HashSet<String>,
    views: HashSet<String>,
}

/// Collect what a SELECT reads (views expanded, subqueries walked) into
/// `reads`; returns its view-nesting depth.
fn collect_select_deps(
    db: &Database,
    select: &Select,
    reads: &mut Reads,
    depth: u32,
) -> Result<u32> {
    if depth > 16 {
        return Err(XnfError::Api("view nesting too deep".to_string()));
    }
    let mut nesting = 0;
    let mut table_refs: Vec<&TableRef> = select.from.iter().collect();
    table_refs.extend(select.joins.iter().map(|j| &j.table));
    for tref in table_refs {
        match tref {
            TableRef::Named { name, .. } => {
                if db.catalog().has_table(name) {
                    reads.tables.insert(name.to_ascii_uppercase());
                } else if let Some(view) = db.catalog().view(name) {
                    let ViewBody::Select(inner) = view_body(&view)? else {
                        return Err(XnfError::Api(format!("view '{name}' is not relational")));
                    };
                    reads.views.insert(name.to_ascii_uppercase());
                    let vd = collect_select_deps(db, &inner, reads, depth + 1)?;
                    nesting = nesting.max(vd + 1);
                }
            }
            TableRef::Derived { select, .. } => {
                nesting = nesting.max(collect_select_deps(db, select, reads, depth + 1)?);
            }
        }
    }
    let mut subs: Vec<&Select> = Vec::new();
    for e in select.where_clause.iter().chain(&select.having) {
        subs.extend(subselects(e));
    }
    subs.extend(select.unions.iter().map(|(_, u)| u));
    for sub in subs {
        nesting = nesting.max(collect_select_deps(db, sub, reads, depth + 1)?);
    }
    Ok(nesting)
}

/// Collect what an `OUT OF` query reads into `reads`; returns its
/// view-nesting depth.
fn collect_xnf_deps(db: &Database, q: &XnfQuery, reads: &mut Reads) -> Result<u32> {
    let flat = inline_xnf_views(db.catalog(), q)?;
    let mut nesting = 0;
    for def in &flat.defs {
        match def {
            XnfDef::Table { select, .. } => {
                nesting = nesting.max(collect_select_deps(db, select, reads, 0)?);
            }
            XnfDef::Relationship(r) => {
                for (t, _) in &r.using {
                    if db.catalog().has_table(t) {
                        reads.tables.insert(t.to_ascii_uppercase());
                    }
                }
            }
            XnfDef::ViewRef { .. } => unreachable!("inlined"),
        }
    }
    Ok(nesting)
}

/// Subqueries appearing in an expression.
fn subselects(e: &Expr) -> Vec<&Select> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Select>) {
        match e {
            Expr::InSubquery { expr, subquery, .. } => {
                walk(expr, out);
                out.push(subquery);
            }
            Expr::Exists { subquery, .. } => out.push(subquery),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                walk(expr, out)
            }
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, out);
                walk(low, out);
                walk(high, out);
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, out);
                for x in list {
                    walk(x, out);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    walk(a, out);
                }
            }
            Expr::Agg { arg: Some(a), .. } => walk(a, out),
            _ => {}
        }
    }
    walk(e, &mut out);
    out
}

fn expr_has_subquery(e: &Expr) -> bool {
    !subselects(e).is_empty()
}

/// Choose the cheapest maintenance strategy a relational definition admits.
fn analyze_sql_strategy(db: &Database, select: &Select) -> SqlStrategy {
    let subquery_free = select
        .where_clause
        .as_ref()
        .is_none_or(|w| !expr_has_subquery(w))
        && select.joins.iter().all(|j| !expr_has_subquery(&j.on));
    if !subquery_free
        || !select.unions.is_empty()
        || select.limit.is_some()
        || select.having.is_some()
        || select.distinct
    {
        return SqlStrategy::Full;
    }
    if !select.group_by.is_empty() {
        return analyze_grouped_agg(db, select).unwrap_or(SqlStrategy::Full);
    }

    // Selection/projection of one base table?
    if select.joins.is_empty() && select.from.len() == 1 {
        if let Some(base) = analyze_simple_view(db, select) {
            return SqlStrategy::Direct {
                table: base.table.to_ascii_uppercase(),
                base_cols: base.columns,
                filter: select.where_clause.clone(),
            };
        }
    }

    // Keyed join view: every leg a base table, equality classes chaining a
    // head column to a column of every leg.
    let mut bindings: Vec<(String, Arc<Table>)> = Vec::new();
    let mut trefs: Vec<&TableRef> = select.from.iter().collect();
    trefs.extend(select.joins.iter().map(|j| &j.table));
    for tref in &trefs {
        match tref {
            TableRef::Named { name, alias } => {
                if !db.catalog().has_table(name) {
                    return SqlStrategy::Full;
                }
                let Ok(t) = db.catalog().table(name) else {
                    return SqlStrategy::Full;
                };
                bindings.push((alias.clone().unwrap_or_else(|| name.clone()), t));
            }
            TableRef::Derived { .. } => return SqlStrategy::Full,
        }
    }
    if bindings.is_empty() {
        return SqlStrategy::Full;
    }

    // Resolve a column reference to (binding, column ordinal).
    let resolve = |qualifier: Option<&str>, name: &str| -> Option<(usize, usize)> {
        match qualifier {
            Some(q) => {
                let b = bindings
                    .iter()
                    .position(|(n, _)| n.eq_ignore_ascii_case(q))?;
                Some((b, bindings[b].1.schema.index_of(name)?))
            }
            None => {
                let mut hits = bindings
                    .iter()
                    .enumerate()
                    .filter_map(|(i, (_, t))| t.schema.index_of(name).map(|c| (i, c)));
                let first = hits.next()?;
                if hits.next().is_some() {
                    return None;
                }
                Some(first)
            }
        }
    };

    // Union-find over (binding, column) driven by equality conjuncts.
    let mut ids: HashMap<(usize, usize), usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut id_of = |bc: (usize, usize), parent: &mut Vec<usize>| -> usize {
        *ids.entry(bc).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        })
    };
    let mut conjuncts: Vec<&Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        conjuncts.extend(w.conjuncts());
    }
    for j in &select.joins {
        conjuncts.extend(j.on.conjuncts());
    }
    for c in &conjuncts {
        if let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        {
            if let (
                Expr::Column {
                    qualifier: ql,
                    name: nl,
                },
                Expr::Column {
                    qualifier: qr,
                    name: nr,
                },
            ) = (&**left, &**right)
            {
                if let (Some(a), Some(b)) = (resolve(ql.as_deref(), nl), resolve(qr.as_deref(), nr))
                {
                    let (ia, ib) = (id_of(a, &mut parent), id_of(b, &mut parent));
                    let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
                    parent[ra] = rb;
                }
            }
        }
    }

    // Expand the head into output positions, tracking plain column refs.
    let mut head: Vec<Option<(usize, usize, Expr)>> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (b, (name, t)) in bindings.iter().enumerate() {
                    for c in 0..t.schema.len() {
                        head.push(Some((b, c, Expr::qcol(name, &t.schema.column(c).name))));
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let Some(b) = bindings.iter().position(|(n, _)| n.eq_ignore_ascii_case(q)) else {
                    return SqlStrategy::Full;
                };
                for c in 0..bindings[b].1.schema.len() {
                    head.push(Some((
                        b,
                        c,
                        Expr::qcol(&bindings[b].0, &bindings[b].1.schema.column(c).name),
                    )));
                }
            }
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Column { qualifier, name } => match resolve(qualifier.as_deref(), name) {
                    Some((b, c)) => head.push(Some((b, c, expr.clone()))),
                    None => head.push(None),
                },
                _ => head.push(None),
            },
        }
    }

    // First head position whose class covers every binding becomes the key.
    for (pos, entry) in head.iter().enumerate() {
        let Some((b, c, expr)) = entry else { continue };
        let Some(&kid) = ids.get(&(*b, *c)) else {
            continue;
        };
        let kroot = find(&mut parent, kid);
        let mut sources: Vec<(String, usize)> = Vec::new();
        let mut covered: HashSet<usize> = HashSet::new();
        for (&(bb, cc), &iid) in &ids {
            if find(&mut parent, iid) == kroot {
                covered.insert(bb);
                sources.push((bindings[bb].1.name.to_ascii_uppercase(), cc));
            }
        }
        if covered.len() == bindings.len() {
            sources.sort();
            sources.dedup();
            return SqlStrategy::Keyed {
                sources,
                key_expr: expr.clone(),
                key_out: pos,
            };
        }
    }
    SqlStrategy::Full
}

/// Does a grouped definition qualify for in-place aggregate maintenance?
/// Requirements: one base table, no joins/ORDER BY, plain-column GROUP BY,
/// every output either a grouping column or `COUNT(*)` / `SUM(int col)`,
/// at least one `COUNT(*)` (it tracks group liveness), and every grouping
/// column present in the output (so a delta image can locate its group).
/// `SUM` is restricted to integer columns: integer arithmetic is exactly
/// invertible, so the maintained value can never drift from a recompute
/// the way floating-point accumulation order would let it.
fn analyze_grouped_agg(db: &Database, select: &Select) -> Option<SqlStrategy> {
    if !select.joins.is_empty() || select.from.len() != 1 || !select.order_by.is_empty() {
        return None;
    }
    let TableRef::Named { name, alias } = &select.from[0] else {
        return None;
    };
    if !db.catalog().has_table(name) {
        return None;
    }
    let table = db.catalog().table(name).ok()?;
    let binding = alias.clone().unwrap_or_else(|| name.clone());
    let resolve = |e: &Expr| -> Option<usize> {
        let Expr::Column { qualifier, name } = e else {
            return None;
        };
        if qualifier
            .as_deref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(&binding))
        {
            return None;
        }
        table.schema.index_of(name)
    };
    let mut group_cols: Vec<usize> = Vec::new();
    for g in &select.group_by {
        group_cols.push(resolve(g)?);
    }
    if group_cols.is_empty() {
        return None;
    }
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut aggs: Vec<(Option<usize>, usize)> = Vec::new();
    let mut has_count = false;
    for (pos, item) in select.items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = item else {
            return None;
        };
        match expr {
            Expr::Agg {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            } => {
                has_count = true;
                aggs.push((None, pos));
            }
            Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(a),
                distinct: false,
            } => {
                let c = resolve(a)?;
                if table.schema.column(c).ty != DataType::Int {
                    return None;
                }
                aggs.push((Some(c), pos));
            }
            e => {
                let c = resolve(e)?;
                if !group_cols.contains(&c) {
                    return None;
                }
                groups.push((c, pos));
            }
        }
    }
    if !has_count || groups.is_empty() {
        return None;
    }
    if !group_cols
        .iter()
        .all(|c| groups.iter().any(|(gc, _)| gc == c))
    {
        return None;
    }
    Some(SqlStrategy::GroupedAgg {
        table: name.to_ascii_uppercase(),
        groups,
        aggs,
        filter: select.where_clause.clone(),
    })
}

/// Analyze a CO definition; `key` is `Some` when keyed maintenance applies
/// (binary FK/connect-table relationships over simple components with a
/// consistent root key, `TAKE *`).
fn analyze_xnf(db: &Database, q: &XnfQuery) -> Result<XnfInfo> {
    let flat = inline_xnf_views(db.catalog(), q)?.into_owned();
    let co = Arc::new(derive_co_schema(db, &flat)?);
    let comps: Vec<String> = flat
        .defs
        .iter()
        .filter_map(|d| match d {
            XnfDef::Table { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    let rels: Vec<XnfRelationship> = flat
        .defs
        .iter()
        .filter_map(|d| match d {
            XnfDef::Relationship(r) => Some(r.clone()),
            _ => None,
        })
        .collect();

    let mut info = XnfInfo {
        text: flat.to_string().into(),
        flat,
        co,
        comps,
        rels,
        key: None,
        nodes: Vec::new(),
    };
    info.key = derive_co_key(&info);
    if info.key.is_some() {
        info.nodes = derive_node_facts(db, &info)?;
    }
    Ok(info)
}

/// Node key, link columns and compiled filter of every component of a
/// keyed CO view.
fn derive_node_facts(db: &Database, info: &XnfInfo) -> Result<Vec<NodeFacts>> {
    let key = info.key.as_ref().expect("keyed plan");
    let mut tables = Vec::with_capacity(info.comps.len());
    let mut keys = Vec::with_capacity(info.comps.len());
    for c in 0..info.comps.len() {
        let base = info.base(c);
        let table = db.catalog().table(&base.table)?;
        let cache_col = |b: usize| base.columns.iter().position(|&x| x == b);
        keys.push(
            table
                .index_defs()
                .into_iter()
                .filter(|ix| {
                    ix.unique && ix.columns.iter().all(|&b| !table.schema.column(b).nullable)
                })
                .filter_map(|ix| ix.columns.iter().map(|&b| cache_col(b)).collect())
                .min_by_key(|cols: &Vec<usize>| cols.len()),
        );
        tables.push(table);
    }
    let mut nodes = Vec::with_capacity(info.comps.len());
    for (c, (table, node_key)) in tables.iter().zip(&keys).enumerate() {
        let base = info.base(c);
        let mut links = Vec::new();
        if c == key.root {
            links.push((base.columns[key.root_key_col], None));
        }
        for (ri, p, child, meta) in info.edges() {
            let (parent_col, child_col) = link_cols(meta);
            if p == c {
                links.push((base.columns[parent_col], None));
            }
            if child == c {
                let fk = matches!(meta, RelMeta::ForeignKey { .. });
                let moves = fk && keys[p].as_deref() == Some(&[parent_col][..]);
                links.push((base.columns[child_col], moves.then_some((ri, p))));
            }
        }
        nodes.push(NodeFacts {
            key: node_key.clone(),
            links,
            filter: component_filter(info, c, table)?,
        });
    }
    Ok(nodes)
}

/// `(parent column, child column)` of a keyed view's relationship: the
/// cache columns its predicate equates, through a connect table or not.
fn link_cols(meta: &RelMeta) -> (usize, usize) {
    match meta {
        RelMeta::ForeignKey {
            parent_col,
            child_col,
            ..
        }
        | RelMeta::ConnectTable {
            parent_col,
            child_col,
            ..
        } => (*parent_col, *child_col),
        RelMeta::General { .. } => unreachable!("keyed plans exclude general relationships"),
    }
}

fn derive_co_key(info: &XnfInfo) -> Option<CoKey> {
    if !matches!(info.flat.take, XnfTake::All) {
        return None;
    }
    // A global restriction would have to be re-evaluated during the
    // index-walk re-extraction; keep those on the full-recompute path.
    if info.flat.restriction.is_some() {
        return None;
    }
    if info.comps.is_empty() {
        return None;
    }
    // Component derivations must be directly evaluable against base rows:
    // single-table selection/projection (base-mapped), subquery-free
    // WHERE, no LIMIT.
    for def in &info.flat.defs {
        let XnfDef::Table { select, .. } = def else {
            continue;
        };
        if select.limit.is_some() || select.where_clause.as_ref().is_some_and(expr_has_subquery) {
            return None;
        }
    }
    // Every component must be a simple (base-mapped) view and every
    // relationship a binary FK / connect-table pattern.
    if info.co.components.iter().any(|c| c.base.is_none()) {
        return None;
    }
    if info
        .co
        .relationships
        .iter()
        .any(|r| matches!(r, RelMeta::General { .. }))
    {
        return None;
    }
    // Root = the component no relationship points to; must be unique.
    let mut is_child = vec![false; info.comps.len()];
    for r in &info.rels {
        for ch in &r.children {
            if let Some(c) = info.comp_index(ch) {
                is_child[c] = true;
            } else {
                return None;
            }
        }
        info.comp_index(&r.parent)?;
    }
    let roots: Vec<usize> = (0..info.comps.len()).filter(|&i| !is_child[i]).collect();
    let [root] = roots.as_slice() else {
        return None;
    };
    // Every relationship rooted at `root` must key on the same root column.
    let mut root_key_col: Option<usize> = None;
    for (r, meta) in info.rels.iter().zip(&info.co.relationships) {
        if info.comp_index(&r.parent) != Some(*root) {
            continue;
        }
        let pc = match meta {
            RelMeta::ForeignKey { parent_col, .. } | RelMeta::ConnectTable { parent_col, .. } => {
                *parent_col
            }
            RelMeta::General { .. } => return None,
        };
        match root_key_col {
            None => root_key_col = Some(pc),
            Some(existing) if existing == pc => {}
            Some(_) => return None,
        }
    }
    Some(CoKey {
        root: *root,
        root_key_col: root_key_col.unwrap_or(0),
    })
}

// ---------------------------------------------------------------------------
// delta propagation
// ---------------------------------------------------------------------------

/// Work the maintenance pipeline did for one commit, surfaced through the
/// `ExecStats` maintenance counters and EXPLAIN's `maintenance:` header.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MaintCounters {
    /// CO root keys whose subtrees were diffed and re-spliced.
    pub roots_respliced: u64,
    /// Stored nodes kept across a splice — by value-identity sharing or by
    /// an in-place update preserving the surrogate — instead of being
    /// deleted and re-inserted.
    pub nodes_reused: u64,
    /// Stored nodes written in place (overwritten by key or inserted),
    /// without a splice.
    pub nodes_rewritten: u64,
    /// Stored connections inserted or deleted in place, without a splice.
    pub links_edited: u64,
}

/// Propagate one commit's (coalesced) delta batch through every dependent
/// materialized view. The caller holds the maintenance lock and has
/// committed, so every read here sees latest-committed data, this commit
/// included, and commits apply one after another in stamp order — the
/// result is serial maintenance in commit-stamp order.
pub(crate) fn maintain(db: &Database, delta: &DeltaBatch) -> Result<MaintCounters> {
    let mut counters = MaintCounters::default();
    if delta.is_empty() {
        return Ok(counters);
    }
    let plans = db.matview_plans()?;
    for plan in plans.iter() {
        if !delta.touches_any(plan.deps.iter().map(|s| s.as_str())) {
            continue;
        }
        match &plan.body {
            BodyPlan::Sql {
                strategy:
                    SqlStrategy::Direct {
                        table,
                        base_cols,
                        filter,
                    },
                ..
            } => apply_direct(db, plan, table, base_cols, filter.as_ref(), delta)?,
            BodyPlan::Sql {
                strategy:
                    SqlStrategy::GroupedAgg {
                        table,
                        groups,
                        aggs,
                        filter,
                    },
                ..
            } => apply_grouped(db, plan, table, groups, aggs, filter.as_ref(), delta)?,
            BodyPlan::Sql {
                select,
                strategy:
                    SqlStrategy::Keyed {
                        sources,
                        key_expr,
                        key_out,
                    },
            } => apply_sql_keyed(db, plan, select, sources, key_expr, *key_out, delta)?,
            BodyPlan::Xnf(info) if info.key.is_some() => {
                apply_co_keyed(db, plan, info, delta, &mut counters)?
            }
            _ => repopulate(db, plan)?,
        }
        expect_matview(db, &plan.name)?.bump_epoch();
    }
    Ok(counters)
}

/// Direct maintenance of a selection/projection view: filter + project the
/// delta images and apply them to the backing table.
fn apply_direct(
    db: &Database,
    plan: &MaintPlan,
    table: &str,
    base_cols: &[usize],
    filter: Option<&Expr>,
    delta: &DeltaBatch,
) -> Result<()> {
    let mv = expect_matview(db, &plan.name)?;
    let backing = mv
        .stream(&plan.name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{}'", plan.name)))?;
    let base = db.catalog().table(table)?;
    let pred = match filter {
        Some(f) => Some(crate::db::table_expr(&base.schema, &base.name, f)?),
        None => None,
    };
    let outer = OuterCtx::new();
    let passes = |row: &[Value]| -> Result<bool> {
        match &pred {
            Some(p) => Ok(truthy(&eval(p, row, &outer, &[])?)),
            None => Ok(true),
        }
    };
    let project = |row: &[Value]| -> Row { base_cols.iter().map(|&c| row[c].clone()).collect() };

    for d in delta.rows(table) {
        let old = match d.before() {
            Some(t) if passes(&t.values)? => Some(project(&t.values)),
            _ => None,
        };
        let new = match d.after() {
            Some(t) if passes(&t.values)? => Some(project(&t.values)),
            _ => None,
        };
        if let (Some(o), Some(n)) = (&old, &new) {
            if rows_eq(o, n) {
                continue;
            }
        }
        if let Some(o) = old {
            if !remove_row_by_value(&backing, &o, 0)? {
                // The stored image diverged from what the delta implies:
                // repair with a full recompute.
                return repopulate(db, plan);
            }
        }
        if let Some(n) = new {
            backing.insert(&Tuple::new(n))?;
        }
    }
    Ok(())
}

/// Grouped-aggregate maintenance: each delta image adjusts its group's
/// stored row in place (COUNT/SUM arithmetic over before/after images),
/// inserting on a group's first member and deleting when its count returns
/// to zero. The in-place [`Table::update`] keeps the row's surrogate rid
/// and is atomic for readers, so concurrent snapshot scans always see a
/// complete aggregate row. Anything the exact arithmetic cannot invert
/// (NULL group keys, non-integer sum inputs, overflow, divergence from the
/// stored image) falls back to a full recompute.
fn apply_grouped(
    db: &Database,
    plan: &MaintPlan,
    table: &str,
    groups: &[(usize, usize)],
    aggs: &[(Option<usize>, usize)],
    filter: Option<&Expr>,
    delta: &DeltaBatch,
) -> Result<()> {
    let mv = expect_matview(db, &plan.name)?;
    let backing = mv
        .stream(&plan.name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{}'", plan.name)))?;
    let base = db.catalog().table(table)?;
    let pred = match filter {
        Some(f) => Some(crate::db::table_expr(&base.schema, &base.name, f)?),
        None => None,
    };
    let outer = OuterCtx::new();
    let width = backing.schema.len();
    let (probe_base, probe_out) = groups[0];
    let count_out = aggs
        .iter()
        .find(|(src, _)| src.is_none())
        .expect("grouped plans carry COUNT(*)")
        .1;
    // Backing rows are frozen and deleted physically, so one snapshot sees
    // this loop's own writes.
    let snap = backing.txns().snapshot_latest();
    for d in delta.rows(table) {
        for (img, sign) in [(d.before(), -1i64), (d.after(), 1i64)] {
            let Some(t) = img else { continue };
            match &pred {
                Some(p) if !truthy(&eval(p, &t.values, &outer, &[])?) => continue,
                _ => {}
            }
            let row = &t.values;
            let degraded = groups.iter().any(|(c, _)| row[*c].is_null())
                || aggs
                    .iter()
                    .any(|(c, _)| c.is_some_and(|c| !matches!(row[c], Value::Int(_))));
            if degraded {
                return repopulate(db, plan);
            }
            // Locate the group's stored row (mv_key index on the first
            // grouping output).
            let hit = first_match(&backing, probe_out, &row[probe_base], &snap, |stored| {
                Ok(groups
                    .iter()
                    .all(|(c, o)| stored.values[*o].total_cmp(&row[*c]).is_eq()))
            })?;
            match hit {
                Some((rid, stored)) => {
                    let mut vals = stored.values;
                    for (src, out) in aggs {
                        let dv = match src {
                            None => sign,
                            Some(c) => match row[*c] {
                                Value::Int(i) => i.wrapping_mul(sign),
                                _ => unreachable!("checked above"),
                            },
                        };
                        let Value::Int(cur) = vals[*out] else {
                            return repopulate(db, plan);
                        };
                        let Some(next) = cur.checked_add(dv) else {
                            return repopulate(db, plan);
                        };
                        vals[*out] = Value::Int(next);
                    }
                    match &vals[count_out] {
                        // Group count back to zero: the group vanished.
                        Value::Int(0) => {
                            backing.delete(rid)?;
                        }
                        Value::Int(n) if *n < 0 => {
                            // More removals than stored members: diverged.
                            return repopulate(db, plan);
                        }
                        _ => {
                            backing.update(rid, &Tuple::new(vals))?;
                        }
                    }
                }
                None if sign > 0 => {
                    let mut vals = vec![Value::Null; width];
                    for (c, o) in groups {
                        vals[*o] = row[*c].clone();
                    }
                    for (src, out) in aggs {
                        vals[*out] = match src {
                            None => Value::Int(1),
                            Some(c) => row[*c].clone(),
                        };
                    }
                    backing.insert(&Tuple::new(vals))?;
                }
                // Removing from a group we never stored: diverged.
                None => return repopulate(db, plan),
            }
        }
    }
    Ok(())
}

/// Affected key values of a relational keyed view under `delta`.
fn sql_keyed_keys(sources: &[(String, usize)], delta: &DeltaBatch) -> Vec<Value> {
    let mut keys = Vec::new();
    for (table, col) in sources {
        for d in delta.rows(table) {
            for img in [d.before(), d.after()].into_iter().flatten() {
                let v = img.values[*col].clone();
                if !v.is_null() {
                    keys.push(v);
                }
            }
        }
    }
    keys
}

/// Re-run a keyed view's definition restricted to one key value (the
/// equality lets the planner use base-table indexes).
fn run_keyed_select(
    db: &Database,
    select: &Select,
    key_expr: &Expr,
    k: &Value,
) -> Result<Vec<Row>> {
    let mut restricted = select.clone();
    let conjunct = Expr::eq(key_expr.clone(), Expr::Literal(value_literal(k)));
    restricted.where_clause = Some(match restricted.where_clause.take() {
        Some(w) => Expr::and(w, conjunct),
        None => conjunct,
    });
    let result = db.run_query(&Statement::Select(restricted), Params::default(), None)?;
    Ok(result.try_table()?.rows.clone())
}

/// Keyed maintenance of a relational join view: delete stored rows carrying
/// the affected keys, then insert each key's re-derived rows.
fn apply_sql_keyed(
    db: &Database,
    plan: &MaintPlan,
    select: &Select,
    sources: &[(String, usize)],
    key_expr: &Expr,
    key_out: usize,
    delta: &DeltaBatch,
) -> Result<()> {
    let keys = dedup_values(sql_keyed_keys(sources, delta));
    let mv = expect_matview(db, &plan.name)?;
    let backing = mv
        .stream(&plan.name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{}'", plan.name)))?;
    for k in &keys {
        // Delete-by-key (served by the `mv_key` index).
        let stale: Vec<Rid> = backing
            .find_by_value(key_out, k)?
            .into_iter()
            .map(|(rid, _)| rid)
            .collect();
        for rid in stale {
            backing.delete(rid)?;
        }
        for row in run_keyed_select(db, select, key_expr, k)? {
            backing.insert(&Tuple::new(row))?;
        }
    }
    Ok(())
}

/// Keyed maintenance of a CO view: the commit's in-place edits when it
/// has them; otherwise walk the delta up to affected root keys,
/// re-extract their subtrees and diff them against the stored streams.
fn apply_co_keyed(
    db: &Database,
    plan: &MaintPlan,
    info: &XnfInfo,
    delta: &DeltaBatch,
    counters: &mut MaintCounters,
) -> Result<()> {
    if let Some(edits) = in_place_edits(db, plan, info, delta)? {
        return apply_in_place(db, plan, info, edits, counters);
    }
    let keys = dedup_values(co_root_keys(db, info, delta)?);
    if keys.is_empty() {
        return Ok(());
    }
    if keys.iter().any(|k| k.is_null()) {
        // A NULL partition key cannot drive the equality index walks
        // (NULL never matches through sql_eq); recompute instead.
        return repopulate(db, plan);
    }
    counters.roots_respliced += keys.len() as u64;
    let sub = extract_subtrees(db, info, &keys)?;
    splice(db, plan, info, &keys, &sub, counters)
}

/// One write to a keyed CO view's stored streams that a commit implies
/// without a splice.
enum CoEdit {
    /// Overwrite stored node `rid` of component `comp`; `node` keeps the
    /// stored surrogate.
    Rewrite { comp: usize, rid: Rid, node: Tuple },
    /// Insert a node of component `comp`; its surrogate is drawn when the
    /// edits apply.
    Insert { comp: usize, row: Row },
    /// Insert the connection `parent → child` of relationship `rel`.
    Link {
        rel: usize,
        parent: Node,
        child: Node,
    },
    /// Delete stored connection `rid` of relationship `rel`.
    Unlink { rel: usize, rid: Rid },
}

/// A node a connection edit names: a stored node by its surrogate, or one
/// the same commit inserts by its position among the `Insert` edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Stored(i64),
    New(usize),
}

/// The in-place edits a commit's delta implies for a keyed CO view, or
/// `None` when the view must splice. Every delta row must be one of:
///
/// - an update of a component row that keeps the node key and the WHERE
///   answer, and whose changed link columns are all foreign keys to
///   parents with that column as node key: the stored node is rewritten,
///   and a moved node (it must be stored, and so must its new parent)
///   trades its old connection for one to the new parent;
/// - an insert of a non-root component row with a node key: if it passes
///   the WHERE and a parent is stored (or inserted by this commit), one
///   node and its connections are inserted. Every row of a child or
///   connect table that links to it must come from this commit, so that no
///   older row becomes reachable without its subtree;
/// - an insert into a connect table whose parent and child are keyed by
///   the linked columns: a stored parent and a stored child get the
///   connection, unless it is stored already. A child with no stored node
///   would become reachable, so that row splices.
///
/// Deletes, root inserts and anything else splice. A row no stored parent
/// reaches, or that the WHERE rejects, writes nothing.
fn in_place_edits(
    db: &Database,
    plan: &MaintPlan,
    info: &XnfInfo,
    delta: &DeltaBatch,
) -> Result<Option<Vec<CoEdit>>> {
    // Every table the delta touches is a component table or a connect
    // table, not both: a connect table's rows are connections.
    for table in &plan.deps {
        if delta.rows(table).is_empty() {
            continue;
        }
        let comp = (0..info.comps.len()).any(|c| info.base(c).table.eq_ignore_ascii_case(table));
        let connects = info.co.relationships.iter().any(|r| {
            matches!(r, RelMeta::ConnectTable { table: t, .. } if t.eq_ignore_ascii_case(table))
        });
        if comp == connects {
            return Ok(None);
        }
    }
    // Parents before children, so that a child finds a parent the same
    // commit inserts. A cyclic graph has no such order.
    let order = info.topo();
    if order.len() < info.comps.len() {
        return Ok(None);
    }
    let mut ed = Editor {
        db,
        info,
        delta,
        mv: expect_matview(db, &plan.name)?,
        snap: db.catalog().latest_snapshot(),
        outer: OuterCtx::new(),
        edits: Vec::new(),
        new_nodes: 0,
        inserted: HashMap::new(),
        linked: HashSet::new(),
    };
    for c in order {
        for d in delta.rows(&info.base(c).table) {
            let in_place = match d {
                DeltaRow::Update { old, new } => ed.update(c, &old.values, &new.values)?,
                DeltaRow::Insert(new) => ed.insert(c, &new.values)?,
                DeltaRow::Delete(_) => false,
            };
            if !in_place {
                return Ok(None);
            }
        }
    }
    for (ri, p, c, meta) in info.edges() {
        let RelMeta::ConnectTable { table, .. } = meta else {
            continue;
        };
        for d in delta.rows(table) {
            let DeltaRow::Insert(m) = d else {
                return Ok(None);
            };
            if !ed.connect(ri, p, c, meta, &m.values)? {
                return Ok(None);
            }
        }
    }
    Ok(Some(ed.edits))
}

/// The state of one [`in_place_edits`] pass. Each method classifies one
/// delta row, pushes its edits and returns `false` when the commit must
/// splice instead.
struct Editor<'a> {
    db: &'a Database,
    info: &'a XnfInfo,
    delta: &'a DeltaBatch,
    mv: Arc<MatView>,
    snap: Snapshot,
    outer: OuterCtx,
    edits: Vec<CoEdit>,
    /// `Insert` edits pushed so far.
    new_nodes: usize,
    /// `(component, node key)` → position of a node this commit inserts.
    inserted: HashMap<(usize, Value), usize>,
    /// Connections already pushed, each pushed once.
    linked: HashSet<(usize, Node, Node)>,
}

impl Editor<'_> {
    /// An updated component row: a value-only rewrite, or a move.
    fn update(&mut self, c: usize, old: &[Value], new: &[Value]) -> Result<bool> {
        let info = self.info;
        let (facts, base) = (&info.nodes[c], info.base(c));
        let same = |b: usize| old[b].total_cmp(&new[b]).is_eq();
        let Some(key) = &facts.key else {
            return Ok(false);
        };
        if !key.iter().all(|&k| same(base.columns[k])) {
            return Ok(false);
        }
        let mut moves = Vec::new();
        for &(b, rel) in &facts.links {
            match rel {
                _ if same(b) => {}
                Some((ri, p)) => moves.push((ri, p, b)),
                None => return Ok(false),
            }
        }
        let passes = passes_filter(&facts.filter, old, &self.outer)?;
        if passes != passes_filter(&facts.filter, new, &self.outer)? {
            return Ok(false);
        }
        if !passes || base.columns.iter().all(|&b| same(b)) {
            return Ok(true);
        }
        let row: Row = base.columns.iter().map(|&b| new[b].clone()).collect();
        let node_t = backing_stream(&self.mv, &info.comps[c])?;
        let hit = first_match(&node_t, 1 + key[0], &row[key[0]], &self.snap, |t| {
            Ok(key
                .iter()
                .all(|&k| t.values[1 + k].total_cmp(&row[k]).is_eq()))
        })?;
        let Some((rid, stored)) = hit else {
            // No root reaches the node; a move would make it reachable.
            return Ok(moves.is_empty());
        };
        let surrogate = stored.values[0].as_int()?;
        for (ri, p, b) in moves {
            let Some(to) = self.node(p, &new[b])? else {
                return Ok(false);
            };
            if let Some(Node::Stored(from)) = self.node(p, &old[b])? {
                let conn_t = backing_stream(&self.mv, &info.rels[ri].name)?;
                let pair = first_match(&conn_t, 1, &Value::Int(surrogate), &self.snap, |t| {
                    Ok(t.values[0].as_int()? == from)
                })?;
                if let Some((rid, _)) = pair {
                    self.edits.push(CoEdit::Unlink { rel: ri, rid });
                }
            }
            self.link(ri, to, Node::Stored(surrogate))?;
        }
        let mut values = Vec::with_capacity(row.len() + 1);
        values.push(Value::Int(surrogate));
        values.extend(row);
        self.edits.push(CoEdit::Rewrite {
            comp: c,
            rid,
            node: Tuple::new(values),
        });
        Ok(true)
    }

    /// An inserted component row.
    fn insert(&mut self, c: usize, new: &[Value]) -> Result<bool> {
        let info = self.info;
        let (facts, base) = (&info.nodes[c], info.base(c));
        let is_root = info.key.as_ref().is_some_and(|k| k.root == c);
        let Some(key) = facts.key.as_ref().filter(|_| !is_root) else {
            return Ok(false);
        };
        if !passes_filter(&facts.filter, new, &self.outer)? {
            return Ok(true);
        }
        let mut parents = Vec::new();
        for (ri, p, child, meta) in info.edges() {
            let (parent_col, child_col) = link_cols(meta);
            // The rows that would link the new node to children or
            // parents: `(table, column, the node's cache column)`.
            let linking = match meta {
                RelMeta::ConnectTable {
                    table,
                    m_parent_col,
                    m_child_col,
                    ..
                } => [
                    (p == c).then_some((table, *m_parent_col, parent_col)),
                    (child == c).then_some((table, *m_child_col, child_col)),
                ],
                _ => {
                    let cbase = info.base(child);
                    let fk = (&cbase.table, cbase.columns[child_col], parent_col);
                    [(p == c).then_some(fk), None]
                }
            };
            for (table, col, own) in linking.into_iter().flatten() {
                if !self.only_new_rows(table, col, &new[base.columns[own]])? {
                    return Ok(false);
                }
            }
            if child == c && matches!(meta, RelMeta::ForeignKey { .. }) {
                if !info.keyed_by(p, parent_col) {
                    return Ok(false);
                }
                if let Some(parent) = self.node(p, &new[base.columns[child_col]])? {
                    parents.push((ri, parent));
                }
            }
        }
        if parents.is_empty() {
            return Ok(true);
        }
        let row: Row = base.columns.iter().map(|&b| new[b].clone()).collect();
        let at = self.new_nodes;
        self.new_nodes += 1;
        if let [k] = key[..] {
            self.inserted.insert((c, row[k].clone()), at);
        }
        self.edits.push(CoEdit::Insert { comp: c, row });
        for (ri, parent) in parents {
            self.link(ri, parent, Node::New(at))?;
        }
        Ok(true)
    }

    /// An inserted connect-table row of relationship `ri` (`p` → `c`).
    fn connect(
        &mut self,
        ri: usize,
        p: usize,
        c: usize,
        meta: &RelMeta,
        m: &[Value],
    ) -> Result<bool> {
        let RelMeta::ConnectTable {
            parent_col,
            child_col,
            m_parent_col,
            m_child_col,
            ..
        } = meta
        else {
            unreachable!("called for connect tables")
        };
        if !self.info.keyed_by(p, *parent_col) || !self.info.keyed_by(c, *child_col) {
            return Ok(false);
        }
        let Some(parent) = self.node(p, &m[*m_parent_col])? else {
            return Ok(true);
        };
        let cv = &m[*m_child_col];
        if cv.is_null() {
            return Ok(true);
        }
        let Some(child) = self.node(c, cv)? else {
            return Ok(false);
        };
        self.link(ri, parent, child)?;
        Ok(true)
    }

    /// The node of component `c` whose single-column node key is `v`:
    /// inserted by this commit, or stored.
    fn node(&self, c: usize, v: &Value) -> Result<Option<Node>> {
        if v.is_null() {
            return Ok(None);
        }
        if let Some(&at) = self.inserted.get(&(c, v.clone())) {
            return Ok(Some(Node::New(at)));
        }
        let key = self.info.nodes[c].key.as_ref().expect("keyed component");
        let node_t = backing_stream(&self.mv, &self.info.comps[c])?;
        match first_match(&node_t, 1 + key[0], v, &self.snap, |_| Ok(true))? {
            Some((_, t)) => Ok(Some(Node::Stored(t.values[0].as_int()?))),
            None => Ok(None),
        }
    }

    /// Push connection `parent → child` of relationship `rel` unless it is
    /// pushed or stored already. A stored pair is probed from its child
    /// through a foreign key (one parent) and from its parent through a
    /// connect table (its links).
    fn link(&mut self, rel: usize, parent: Node, child: Node) -> Result<()> {
        if !self.linked.insert((rel, parent, child)) {
            return Ok(());
        }
        if let (Node::Stored(p), Node::Stored(c)) = (parent, child) {
            let fk = matches!(self.info.co.relationships[rel], RelMeta::ForeignKey { .. });
            let (from, want, other) = if fk { (1, p, c) } else { (0, c, p) };
            let conn_t = backing_stream(&self.mv, &self.info.rels[rel].name)?;
            let stored = first_match(&conn_t, from, &Value::Int(other), &self.snap, |t| {
                Ok(t.values[1 - from].as_int()? == want)
            })?;
            if stored.is_some() {
                return Ok(());
            }
        }
        self.edits.push(CoEdit::Link { rel, parent, child });
        Ok(())
    }

    /// Are the rows of `table` with `col = v` all inserted by this commit?
    fn only_new_rows(&self, table: &str, col: usize, v: &Value) -> Result<bool> {
        if v.is_null() {
            return Ok(true);
        }
        let t = self.db.catalog().table(table)?;
        let inserted = self
            .delta
            .rows(table)
            .iter()
            .filter(|d| matches!(d, DeltaRow::Insert(r) if r.values[col].total_cmp(v).is_eq()))
            .count();
        Ok(t.find_by_value(col, v)?.len() <= inserted)
    }
}

/// Write a commit's in-place edits in splice's order — connection deletes,
/// node rewrites, node inserts, connection inserts — so that a concurrent
/// reader's walk never reaches a subtree larger than its final shape.
fn apply_in_place(
    db: &Database,
    plan: &MaintPlan,
    info: &XnfInfo,
    edits: Vec<CoEdit>,
    counters: &mut MaintCounters,
) -> Result<()> {
    let mv = expect_matview(db, &plan.name)?;
    let stream = |name: &str| backing_stream(&mv, name);
    let inserts = edits
        .iter()
        .filter(|e| matches!(e, CoEdit::Insert { .. }))
        .count();
    let first = mv.alloc_surrogates(inserts as i64);
    let surrogate = |n: Node| match n {
        Node::Stored(s) => s,
        Node::New(at) => first + at as i64,
    };
    for e in &edits {
        if let CoEdit::Unlink { rel, rid } = e {
            stream(&info.rels[*rel].name)?.delete(*rid)?;
            counters.links_edited += 1;
        }
    }
    for e in &edits {
        if let CoEdit::Rewrite { comp, rid, node } = e {
            stream(&info.comps[*comp])?.update(*rid, node)?;
            counters.nodes_rewritten += 1;
        }
    }
    let new_rows = edits.iter().filter_map(|e| match e {
        CoEdit::Insert { comp, row } => Some((comp, row)),
        _ => None,
    });
    for (at, (comp, row)) in new_rows.enumerate() {
        let mut values = Vec::with_capacity(row.len() + 1);
        values.push(Value::Int(surrogate(Node::New(at))));
        values.extend(row.iter().cloned());
        stream(&info.comps[*comp])?.insert(&Tuple::new(values))?;
        counters.nodes_rewritten += 1;
    }
    for e in &edits {
        if let CoEdit::Link { rel, parent, child } = e {
            let pair = vec![
                Value::Int(surrogate(*parent)),
                Value::Int(surrogate(*child)),
            ];
            stream(&info.rels[*rel].name)?.insert(&Tuple::new(pair))?;
            counters.links_edited += 1;
        }
    }
    Ok(())
}

/// Affected root-key values of a delta batch: every changed image is walked
/// up the relationship graph (FK chains and connect tables, via base-table
/// indexes) to the root partition key.
fn co_root_keys(db: &Database, info: &XnfInfo, delta: &DeltaBatch) -> Result<Vec<Value>> {
    let mut keys = Vec::new();
    // Deltas on component base tables.
    for (idx, comp) in info.co.components.iter().enumerate() {
        let Some(base) = &comp.base else { continue };
        for d in delta.rows(&base.table) {
            for img in [d.before(), d.after()].into_iter().flatten() {
                keys_from_comp_row(db, info, idx, &img.values, &mut keys, 0)?;
            }
        }
    }
    // Deltas on connect (mapping) tables.
    for (rel, meta) in info.rels.iter().zip(&info.co.relationships) {
        let RelMeta::ConnectTable {
            table,
            parent_col,
            m_parent_col,
            ..
        } = meta
        else {
            continue;
        };
        let Some(parent) = info.comp_index(&rel.parent) else {
            continue;
        };
        for d in delta.rows(table) {
            for img in [d.before(), d.after()].into_iter().flatten() {
                keys_from_parent_link(
                    db,
                    info,
                    parent,
                    *parent_col,
                    img.values[*m_parent_col].clone(),
                    &mut keys,
                    0,
                )?;
            }
        }
    }
    Ok(keys)
}

/// Root keys reachable from one base row of component `comp`.
fn keys_from_comp_row(
    db: &Database,
    info: &XnfInfo,
    comp: usize,
    row: &[Value],
    out: &mut Vec<Value>,
    depth: u32,
) -> Result<()> {
    let key = info.key.as_ref().expect("keyed plan");
    if depth as usize > info.comps.len() + 2 {
        return Ok(());
    }
    let base = info.base(comp);
    if comp == key.root {
        out.push(row[base.columns[key.root_key_col]].clone());
        return Ok(());
    }
    for (rel, meta) in info.rels.iter().zip(&info.co.relationships) {
        if info.comp_index(&rel.children[0]) != Some(comp) {
            continue;
        }
        let Some(parent) = info.comp_index(&rel.parent) else {
            continue;
        };
        match meta {
            RelMeta::ForeignKey {
                parent_col,
                child_col,
                ..
            } => {
                let v = row[base.columns[*child_col]].clone();
                keys_from_parent_link(db, info, parent, *parent_col, v, out, depth)?;
            }
            RelMeta::ConnectTable {
                table,
                parent_col,
                child_col,
                m_parent_col,
                m_child_col,
                ..
            } => {
                let v = &row[base.columns[*child_col]];
                if v.is_null() {
                    continue;
                }
                let m = db.catalog().table(table)?;
                for (_, mrow) in m.find_by_value(*m_child_col, v)? {
                    keys_from_parent_link(
                        db,
                        info,
                        parent,
                        *parent_col,
                        mrow.values[*m_parent_col].clone(),
                        out,
                        depth,
                    )?;
                }
            }
            RelMeta::General { .. } => unreachable!("keyed plans exclude general relationships"),
        }
    }
    Ok(())
}

/// Continue the walk through a parent component linked on cache column
/// `parent_col` with value `v`.
fn keys_from_parent_link(
    db: &Database,
    info: &XnfInfo,
    parent: usize,
    parent_col: usize,
    v: Value,
    out: &mut Vec<Value>,
    depth: u32,
) -> Result<()> {
    let key = info.key.as_ref().expect("keyed plan");
    if v.is_null() {
        return Ok(());
    }
    if parent == key.root && parent_col == key.root_key_col {
        out.push(v);
        return Ok(());
    }
    let pbase = info.base(parent);
    let pt = db.catalog().table(&pbase.table)?;
    for (_, prow) in pt.find_by_value(pbase.columns[parent_col], &v)? {
        keys_from_comp_row(db, info, parent, &prow.values, out, depth + 1)?;
    }
    Ok(())
}

/// Diff the re-extracted subtrees of the affected roots against the stored
/// streams and apply only the differences; all of it runs under the
/// maintenance lock. Membership (which stored nodes belong exclusively to
/// the affected roots) follows the same cascade rule the old
/// delete-then-rederive path used — a node belongs when its every
/// connection comes from a member parent — so nodes also reachable from
/// unaffected roots are never touched. The test costs one probe per
/// candidate node, ending at the first connection from a non-member
/// parent: a shared node never reads past its first foreign connection,
/// whatever its fan-in, and an exclusive one reads only its own
/// connections, which lie inside the affected subtree. Each re-derived row is then matched to a member by
/// value (kept exactly as stored), to any other stored node
/// (XNF object sharing), or written over a vanished member in place,
/// keeping its surrogate ([`Table::update`] is atomic for readers); only
/// genuinely new branches insert and only vanished ones delete. Connection
/// streams diff the same way. Application order — connection deletes, node
/// deletes, node updates, node inserts, connection inserts — means a
/// concurrent reader's walk never reaches a subtree larger than its final
/// shape.
fn splice(
    db: &Database,
    plan: &MaintPlan,
    info: &XnfInfo,
    keys: &[Value],
    sub: &SubResult,
    counters: &mut MaintCounters,
) -> Result<()> {
    let key = info.key.as_ref().expect("keyed plan");
    let mv = expect_matview(db, &plan.name)?;
    let stream = |name: &str| backing_stream(&mv, name);
    let ncomps = info.comps.len();
    // Backing rows are frozen and deleted physically, so one snapshot sees
    // every write this splice makes.
    let snap = db.catalog().latest_snapshot();

    // Membership: surrogate → (rid, stored values sans surrogate), per
    // component. Phase A: root rows carrying an affected key.
    let mut members: Vec<HashMap<i64, (Rid, Row)>> = vec![HashMap::new(); ncomps];
    stream(&info.comps[key.root])?.scan_by_values(
        1 + key.root_key_col,
        keys,
        &snap,
        |rid, row| {
            members[key.root].insert(row.values[0].as_int()?, (rid, row.values[1..].to_vec()));
            Ok(true)
        },
    )?;

    // Phase B: cascade in topological order — a node joins the membership
    // when its every connection comes from a member parent.
    for c in info.topo() {
        if c == key.root {
            continue;
        }
        let mut candidates: HashSet<i64> = HashSet::new();
        for (rel, _) in rels_with_child(info, c) {
            let Some(p) = info.comp_index(&rel.parent) else {
                continue;
            };
            if members[p].is_empty() {
                continue;
            }
            let parents: Vec<Value> = members[p].keys().map(|&ps| Value::Int(ps)).collect();
            stream(&rel.name)?.scan_by_values(0, &parents, &snap, |_, crow| {
                candidates.insert(crow.values[1].as_int()?);
                Ok(true)
            })?;
        }
        let node_t = stream(&info.comps[c])?;
        for s in candidates {
            if members[c].contains_key(&s) {
                continue;
            }
            // Shared iff some connection comes from a non-member parent:
            // stop at the first one instead of reading the node's fan-in.
            let mut shared = false;
            for (rel, _) in rels_with_child(info, c) {
                let Some(p) = info.comp_index(&rel.parent) else {
                    continue;
                };
                let conn_t = stream(&rel.name)?;
                let foreign = first_match(&conn_t, 1, &Value::Int(s), &snap, |crow| {
                    Ok(!members[p].contains_key(&crow.values[0].as_int()?))
                })?;
                if foreign.is_some() {
                    shared = true;
                    break;
                }
            }
            if !shared {
                if let Some((rid, t)) =
                    first_match(&node_t, 0, &Value::Int(s), &snap, |_| Ok(true))?
                {
                    members[c].insert(s, (rid, t.values[1..].to_vec()));
                }
            }
        }
    }

    let member_surrs: Vec<HashSet<i64>> = members
        .iter()
        .map(|m| m.keys().copied().collect())
        .collect();

    // Match each re-derived row to a surrogate and collect the node-stream
    // differences (nothing is written yet).
    let mut assigned: Vec<Vec<i64>> = Vec::with_capacity(ncomps);
    let mut fresh: Vec<HashSet<i64>> = vec![HashSet::new(); ncomps];
    let mut node_deletes: Vec<Vec<Rid>> = vec![Vec::new(); ncomps];
    let mut node_updates: Vec<Vec<(Rid, Tuple)>> = vec![Vec::new(); ncomps];
    let mut node_inserts: Vec<Vec<Tuple>> = vec![Vec::new(); ncomps];
    for (c, rows) in sub.comp_rows.iter().enumerate() {
        let node_t = stream(&info.comps[c])?;
        let mut comp_members = std::mem::take(&mut members[c]);
        let mut by_value: HashMap<Row, Vec<i64>> = HashMap::new();
        for (s, (_, row)) in &comp_members {
            by_value.entry(row.clone()).or_default().push(*s);
        }
        let mut ids: Vec<i64> = Vec::with_capacity(rows.len());
        let mut unmatched: Vec<usize> = Vec::new();
        for (pos, row) in rows.iter().enumerate() {
            if let Some(s) = by_value.get_mut(row).and_then(Vec::pop) {
                // Unchanged member: keep it exactly as stored.
                comp_members.remove(&s);
                ids.push(s);
                counters.nodes_reused += 1;
                continue;
            }
            if let Some(s) = find_node_by_value(&node_t, row, &snap)? {
                if !member_surrs[c].contains(&s) {
                    // Object sharing with an unaffected subtree's node.
                    ids.push(s);
                    counters.nodes_reused += 1;
                    continue;
                }
            }
            ids.push(0); // placeholder; every unmatched slot is assigned below
            unmatched.push(pos);
        }
        // Changed branches: each remaining re-derived row overwrites one
        // vanished member in place, keeping its surrogate. Which member it
        // lands on only affects write churn, not correctness — the
        // connection diff below re-derives every pair from scratch.
        let mut leftovers: Vec<(i64, Rid)> = comp_members
            .into_iter()
            .map(|(s, (rid, _))| (s, rid))
            .collect();
        for &pos in &unmatched {
            let row = &rows[pos];
            let (s, overwrite) = match leftovers.pop() {
                Some((s, rid)) => (s, Some(rid)),
                None => (mv.alloc_surrogates(1), None),
            };
            let mut values = Vec::with_capacity(row.len() + 1);
            values.push(Value::Int(s));
            values.extend(row.iter().cloned());
            match overwrite {
                Some(rid) => {
                    node_updates[c].push((rid, Tuple::new(values)));
                    counters.nodes_reused += 1;
                }
                None => {
                    node_inserts[c].push(Tuple::new(values));
                    fresh[c].insert(s);
                }
            }
            ids[pos] = s;
        }
        // Members neither kept nor overwritten have vanished.
        for (_, rid) in leftovers {
            node_deletes[c].push(rid);
        }
        assigned.push(ids);
    }

    // Connection diff per relationship: stored pairs under a member parent
    // versus the re-derived pairs. (Member nodes have no other incoming
    // pairs — that is exactly what Phase B's cascade established — so this
    // enumeration covers every pair of the old subtrees.)
    let mut conn_deletes: Vec<Vec<Rid>> = vec![Vec::new(); info.rels.len()];
    let mut conn_inserts: Vec<Vec<(i64, i64, bool)>> = vec![Vec::new(); info.rels.len()];
    for (ri, rel) in info.rels.iter().enumerate() {
        let conn_t = stream(&rel.name)?;
        let p_idx = info
            .comp_index(&rel.parent)
            .ok_or_else(|| XnfError::Api(format!("unknown parent '{}'", rel.parent)))?;
        let c_idx = info
            .comp_index(&rel.children[0])
            .ok_or_else(|| XnfError::Api(format!("unknown child '{}'", rel.children[0])))?;
        let mut stored: HashMap<(i64, i64), Rid> = HashMap::new();
        let parents: Vec<Value> = member_surrs[p_idx]
            .iter()
            .map(|&ps| Value::Int(ps))
            .collect();
        conn_t.scan_by_values(0, &parents, &snap, |rid, crow| {
            stored.insert((crow.values[0].as_int()?, crow.values[1].as_int()?), rid);
            Ok(true)
        })?;
        let mut new_pairs: HashSet<(i64, i64)> = HashSet::new();
        for &(ppos, cpos) in &sub.conn_rows[ri] {
            new_pairs.insert((assigned[p_idx][ppos], assigned[c_idx][cpos]));
        }
        for (pair, rid) in &stored {
            if !new_pairs.contains(pair) {
                conn_deletes[ri].push(*rid);
            }
        }
        for (p, cs) in new_pairs {
            if stored.contains_key(&(p, cs)) {
                continue;
            }
            // A pair under a shared (non-member, non-fresh) parent was not
            // enumerated into `stored` and may already exist: probe before
            // inserting.
            let may_exist = !member_surrs[p_idx].contains(&p) && !fresh[p_idx].contains(&p);
            conn_inserts[ri].push((p, cs, may_exist));
        }
    }

    // Apply the diff: connection deletes, node deletes, in-place node
    // updates, node inserts, connection inserts.
    for (ri, rel) in info.rels.iter().enumerate() {
        let conn_t = stream(&rel.name)?;
        for rid in conn_deletes[ri].drain(..) {
            conn_t.delete(rid)?;
        }
    }
    for c in 0..ncomps {
        let node_t = stream(&info.comps[c])?;
        for rid in node_deletes[c].drain(..) {
            node_t.delete(rid)?;
        }
        for (rid, tuple) in node_updates[c].drain(..) {
            node_t.update(rid, &tuple)?;
        }
        for tuple in node_inserts[c].drain(..) {
            node_t.insert(&tuple)?;
        }
    }
    for (ri, rel) in info.rels.iter().enumerate() {
        let conn_t = stream(&rel.name)?;
        for (p, cs, may_exist) in conn_inserts[ri].drain(..) {
            if may_exist {
                let existing = first_match(&conn_t, 0, &Value::Int(p), &snap, |t| {
                    Ok(t.values[1].as_int().ok() == Some(cs))
                })?;
                if existing.is_some() {
                    continue;
                }
            }
            conn_t.insert(&Tuple::new(vec![Value::Int(p), Value::Int(cs)]))?;
        }
    }
    Ok(())
}

/// The re-extracted sub-universe of the affected roots: projected node
/// rows per component (value-deduplicated — XNF object sharing) and
/// connection pairs per relationship, in local positions.
struct SubResult {
    comp_rows: Vec<Vec<Row>>,
    conn_rows: Vec<Vec<(usize, usize)>>,
}

/// Derive the CO subtrees rooted at `keys` straight from the base tables:
/// root rows by key index lookup, then relationship predicates followed
/// child-ward through foreign-key / connect-table index paths, evaluating
/// each component's selection predicate and projection on the way. This is
/// the keyed re-extraction of incremental maintenance — cost proportional
/// to the affected subtrees, not to the base tables.
fn extract_subtrees(db: &Database, info: &XnfInfo, keys: &[Value]) -> Result<SubResult> {
    let key = info.key.as_ref().expect("keyed plan");
    let ncomps = info.comps.len();
    let mut sub = SubResult {
        comp_rows: vec![Vec::new(); ncomps],
        conn_rows: vec![Vec::new(); info.rels.len()],
    };
    // Per-component: base table, projection, compiled selection predicate.
    let mut bases = Vec::with_capacity(ncomps);
    for (c, facts) in info.nodes.iter().enumerate() {
        let base = info.base(c);
        let table = db.catalog().table(&base.table)?;
        bases.push((table, &base.columns, &facts.filter));
    }
    let outer = OuterCtx::new();
    // Value-identity dedup per component (hashed — Value's Hash/Eq follow
    // `total_cmp`, matching the executor's duplicate elimination).
    let mut seen: Vec<HashMap<Row, usize>> = vec![HashMap::new(); ncomps];
    let push_node =
        |sub: &mut SubResult, seen: &mut Vec<HashMap<Row, usize>>, c: usize, row: Row| -> usize {
            if let Some(&pos) = seen[c].get(&row) {
                return pos;
            }
            let pos = sub.comp_rows[c].len();
            sub.comp_rows[c].push(row.clone());
            seen[c].insert(row, pos);
            pos
        };

    // Seed the roots.
    let (root_t, root_cols, root_filter) = &bases[key.root];
    for k in keys {
        for (_, t) in root_t.find_by_value(root_cols[key.root_key_col], k)? {
            if passes_filter(root_filter, &t.values, &outer)? {
                let row: Row = root_cols.iter().map(|&i| t.values[i].clone()).collect();
                push_node(&mut sub, &mut seen, key.root, row);
            }
        }
    }

    // Walk child-ward in topological order: when a component is visited,
    // every relationship pointing at it has complete parent rows.
    let mut conn_seen: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); info.rels.len()];
    for c in info.topo() {
        for (ri, (rel, meta)) in info.rels.iter().zip(&info.co.relationships).enumerate() {
            if info.comp_index(&rel.children[0]) != Some(c) {
                continue;
            }
            let Some(p) = info.comp_index(&rel.parent) else {
                continue;
            };
            let (child_t, child_cols, child_filter) = &bases[c];
            let parent_rows = sub.comp_rows[p].clone();
            for (ppos, prow) in parent_rows.iter().enumerate() {
                match meta {
                    RelMeta::ForeignKey {
                        parent_col,
                        child_col,
                        ..
                    } => {
                        let v = &prow[*parent_col];
                        if v.is_null() {
                            continue;
                        }
                        for (_, t) in child_t.find_by_value(child_cols[*child_col], v)? {
                            if !passes_filter(child_filter, &t.values, &outer)? {
                                continue;
                            }
                            let row: Row =
                                child_cols.iter().map(|&i| t.values[i].clone()).collect();
                            let cpos = push_node(&mut sub, &mut seen, c, row);
                            if conn_seen[ri].insert((ppos, cpos)) {
                                sub.conn_rows[ri].push((ppos, cpos));
                            }
                        }
                    }
                    RelMeta::ConnectTable {
                        table,
                        parent_col,
                        child_col,
                        m_parent_col,
                        m_child_col,
                        ..
                    } => {
                        let v = &prow[*parent_col];
                        if v.is_null() {
                            continue;
                        }
                        let m = db.catalog().table(table)?;
                        for (_, mrow) in m.find_by_value(*m_parent_col, v)? {
                            let cv = &mrow.values[*m_child_col];
                            if cv.is_null() {
                                continue;
                            }
                            for (_, t) in child_t.find_by_value(child_cols[*child_col], cv)? {
                                if !passes_filter(child_filter, &t.values, &outer)? {
                                    continue;
                                }
                                let row: Row =
                                    child_cols.iter().map(|&i| t.values[i].clone()).collect();
                                let cpos = push_node(&mut sub, &mut seen, c, row);
                                if conn_seen[ri].insert((ppos, cpos)) {
                                    sub.conn_rows[ri].push((ppos, cpos));
                                }
                            }
                        }
                    }
                    RelMeta::General { .. } => {
                        unreachable!("keyed plans exclude general relationships")
                    }
                }
            }
        }
    }
    Ok(sub)
}

/// Compile one component's selection predicate against its base schema.
fn component_filter(
    info: &XnfInfo,
    comp: usize,
    table: &Arc<Table>,
) -> Result<Option<xnf_plan::PhysExpr>> {
    let name = &info.comps[comp];
    let def = info.flat.defs.iter().find_map(|d| match d {
        XnfDef::Table {
            name: n, select, ..
        } if n.eq_ignore_ascii_case(name) => Some(select),
        _ => None,
    });
    let Some(select) = def else { return Ok(None) };
    match &select.where_clause {
        Some(w) => Ok(Some(crate::db::table_expr(&table.schema, &table.name, w)?)),
        None => Ok(None),
    }
}

fn passes_filter(
    filter: &Option<xnf_plan::PhysExpr>,
    row: &[Value],
    outer: &OuterCtx,
) -> Result<bool> {
    match filter {
        Some(f) => Ok(truthy(&eval(f, row, outer, &[])?)),
        None => Ok(true),
    }
}

fn rels_with_child(
    info: &XnfInfo,
    child: usize,
) -> impl Iterator<Item = (&XnfRelationship, &RelMeta)> {
    info.rels
        .iter()
        .zip(&info.co.relationships)
        .filter(move |(r, _)| info.comp_index(&r.children[0]) == Some(child))
}

/// The first stored row of `t` with `col = v` that satisfies `pred`, read
/// under `snap`. Postings resolve one at a time and the probe stops at its
/// first hit, so it costs what it finds, not the key's whole fan-in.
fn first_match(
    t: &Table,
    col: usize,
    v: &Value,
    snap: &Snapshot,
    mut pred: impl FnMut(&Tuple) -> xnf_storage::Result<bool>,
) -> Result<Option<(Rid, Tuple)>> {
    let mut hit = None;
    t.scan_by_value(col, v, snap, |rid, tuple| {
        if pred(&tuple)? {
            hit = Some((rid, tuple));
            return Ok(false);
        }
        Ok(true)
    })?;
    Ok(hit)
}

/// Find a stored node row with exactly these values; returns its surrogate.
fn find_node_by_value(node_t: &Table, row: &Row, snap: &Snapshot) -> Result<Option<i64>> {
    let full_match =
        |t: &Tuple| -> bool { t.values.len() == row.len() + 1 && rows_eq(&t.values[1..], row) };
    if row.is_empty() {
        return Ok(None);
    }
    if row[0].is_null() {
        // NULL never matches through an index probe; fall back to a scan.
        let mut found = None;
        node_t.for_each_visible(snap, |_, t| {
            if full_match(&t) {
                found = Some(t.values[0].as_int()?);
                return Ok(false);
            }
            Ok(true)
        })?;
        return Ok(found);
    }
    match first_match(node_t, 1, &row[0], snap, |t| Ok(full_match(t)))? {
        Some((_, t)) => Ok(Some(t.values[0].as_int()?)),
        None => Ok(None),
    }
}

/// NULL-aware row equality (NULL equals NULL here: identity, not SQL
/// comparison — matching the executor's duplicate elimination).
fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.total_cmp(y).is_eq())
}

/// Remove one stored row equal to `row`; `probe_col` drives the index probe.
/// Returns whether a row was found.
fn remove_row_by_value(backing: &Arc<Table>, row: &Row, probe_col: usize) -> Result<bool> {
    let snap = backing.txns().snapshot_latest();
    if !row.is_empty() && !row[probe_col].is_null() {
        let hit = first_match(backing, probe_col, &row[probe_col], &snap, |t| {
            Ok(rows_eq(&t.values, row))
        })?;
        if let Some((rid, _)) = hit {
            backing.delete(rid)?;
            return Ok(true);
        }
        // Fall through to a scan: the probe may have missed only because
        // no index exists and sql_eq skipped NULLs elsewhere in the row.
    }
    let mut target = None;
    backing.for_each_visible(&snap, |rid, t| {
        if rows_eq(&t.values, row) {
            target = Some(rid);
            return Ok(false);
        }
        Ok(true)
    })?;
    match target {
        Some(rid) => {
            backing.delete(rid)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Order-preserving hashed dedup ([`Value`]'s `Hash`/`Eq` follow
/// `total_cmp`, so e.g. `Int(3)` and `Double(3.0)` collapse exactly as the
/// index probes treat them) — linear in the per-commit key count instead
/// of the quadratic scan a naive contains-check would cost.
fn dedup_values(vals: Vec<Value>) -> Vec<Value> {
    let mut seen: HashSet<Value> = HashSet::with_capacity(vals.len());
    vals.into_iter()
        .filter(|v| seen.insert(v.clone()))
        .collect()
}

fn value_literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(*i),
        Value::Double(d) => Literal::Float(*d),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
    }
}

// ---------------------------------------------------------------------------
// serving: workspace loads from stored streams
// ---------------------------------------------------------------------------

/// Load a materialized CO view's full workspace straight from its backing
/// streams (no extraction pipeline).
pub(crate) fn fetch_co_materialized(db: &Database, name: &str) -> Result<CoCache> {
    fetch_from_storage(db, name, None)
}

/// Serve one CO subtree (the root rows matching `key` plus everything
/// reachable from them) from a keyed materialized CO view, in one pass over
/// the stored streams (see [`point_rows`]).
pub(crate) fn fetch_co_point(db: &Database, name: &str, key_value: &Value) -> Result<CoCache> {
    fetch_from_storage(db, name, Some(key_value))
}

fn fetch_from_storage(db: &Database, name: &str, point_key: Option<&Value>) -> Result<CoCache> {
    let (plan, result) = load_streams(db, name, point_key)?;
    let BodyPlan::Xnf(info) = &plan.body else {
        unreachable!("load_streams returns CO plans only");
    };
    let workspace = Workspace::from_result(&result)?;
    Ok(CoCache {
        workspace,
        schema: Arc::clone(&info.co),
        query: Arc::clone(&info.text),
        params: xnf_exec::Params::default(),
    })
}

/// Read stored streams into a [`QueryResult`]-shaped value under one
/// snapshot, translating surrogates to stream positions. With `point_key`,
/// only the subtree(s) rooted at that key value are read (requires a keyed
/// view), in one pass: see [`point_rows`].
fn load_streams(
    db: &Database,
    name: &str,
    point_key: Option<&Value>,
) -> Result<(Arc<MaintPlan>, QueryResult)> {
    let view = db
        .catalog()
        .view(name)
        .filter(|v| v.materialized)
        .ok_or_else(|| XnfError::Api(format!("'{name}' is not a materialized view")))?;
    if view.kind != ViewKind::Xnf {
        return Err(XnfError::Api(format!(
            "'{name}' is a relational materialized view; query it with SELECT"
        )));
    }
    let plans = db.matview_plans()?;
    let plan = plans
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(&view.name))
        .map(Arc::clone)
        .ok_or_else(|| XnfError::Api(format!("no maintenance plan for '{name}'")))?;
    let BodyPlan::Xnf(info) = &plan.body else {
        return Err(XnfError::Api(format!("'{name}' is not a CO view")));
    };
    let mv = expect_matview(db, &plan.name)?;
    let stream = |name: &str| backing_stream(&mv, name);
    let snap = db.catalog().latest_snapshot();

    let (nodes, conns): StoredRows = match point_key {
        Some(k) => {
            let key = info.key.as_ref().ok_or_else(|| {
                XnfError::Api(format!(
                    "'{name}' does not support point fetches (no root partition key)"
                ))
            })?;
            point_rows(&mv, info, key, k, &snap)?
        }
        None => {
            let all = |name: &str| -> Result<Vec<Tuple>> {
                let mut rows = Vec::new();
                stream(name)?.for_each_visible(&snap, |_, t| {
                    rows.push(t);
                    Ok(true)
                })?;
                Ok(rows)
            };
            let nodes = info.comps.iter().map(|c| all(c));
            let conns = info.rels.iter().map(|r| all(&r.name));
            (nodes.collect::<Result<_>>()?, conns.collect::<Result<_>>()?)
        }
    };

    // Node streams: strip the surrogate column, record surrogate → position.
    let mut streams = Vec::new();
    let mut pos_of: HashMap<String, HashMap<i64, u32>> = HashMap::new();
    for (comp, stored) in info.comps.iter().zip(nodes) {
        let columns: Vec<String> = stream(comp)?
            .schema
            .columns()
            .iter()
            .skip(1)
            .map(|col| col.name.clone())
            .collect();
        let mut rows: Vec<Row> = Vec::with_capacity(stored.len());
        let mut positions: HashMap<i64, u32> = HashMap::with_capacity(stored.len());
        for mut t in stored {
            positions.insert(t.values.remove(0).as_int()?, rows.len() as u32);
            rows.push(t.values);
        }
        pos_of.insert(comp.to_ascii_lowercase(), positions);
        streams.push(StreamResult {
            name: comp.clone(),
            kind: OutputKind::Node,
            columns,
            rows,
        });
    }
    // Connection streams: surrogates → positions.
    for (rel, stored) in info.rels.iter().zip(conns) {
        let columns: Vec<String> = stream(&rel.name)?
            .schema
            .columns()
            .iter()
            .map(|col| col.name.clone())
            .collect();
        let ppos = &pos_of[&rel.parent.to_ascii_lowercase()];
        // One position map per child slot: n-ary relationships store one
        // surrogate column per child after the parent column.
        let cpos: Vec<&HashMap<i64, u32>> = rel
            .children
            .iter()
            .map(|ch| &pos_of[&ch.to_ascii_lowercase()])
            .collect();
        // A row whose endpoints were not all read is dropped.
        let position = |t: &Tuple| -> Option<Row> {
            let p = t.values[0].as_int().ok()?;
            let mut row = Vec::with_capacity(t.values.len());
            row.push(Value::Int(*ppos.get(&p)? as i64));
            for (slot, v) in t.values[1..].iter().enumerate() {
                let c = v.as_int().ok()?;
                row.push(Value::Int(*cpos.get(slot)?.get(&c)? as i64));
            }
            Some(row)
        };
        let rows: Vec<Row> = stored.iter().filter_map(position).collect();
        streams.push(StreamResult {
            name: rel.name.clone(),
            kind: OutputKind::Connection {
                relationship: rel.name.clone(),
                parent: rel.parent.clone(),
                children: rel.children.clone(),
                role: rel.role.clone(),
            },
            columns,
            rows,
        });
    }
    Ok((
        plan,
        QueryResult {
            streams,
            stats: ExecStats::default(),
        },
    ))
}

/// Stored rows of a CO view, surrogates included: per component, then per
/// relationship, in stream order.
type StoredRows = (Vec<Vec<Tuple>>, Vec<Vec<Tuple>>);

/// The stored rows of the subtree(s) whose root rows carry `key_value`:
/// per component its node rows in ascending surrogate order, per
/// relationship its connection rows in (parent, child) surrogate order.
/// One pass under `snap`: the walk that selects each component's
/// surrogates reads each relationship's connection rows once, by the
/// selected parents, and keeps them; every stream is read through one
/// [`Table::scan_by_values`], which pins each page it touches once.
fn point_rows(
    mv: &MatView,
    info: &XnfInfo,
    key: &CoKey,
    key_value: &Value,
    snap: &Snapshot,
) -> Result<StoredRows> {
    let surrogates = |sel: &BTreeSet<i64>| sel.iter().map(|&s| Value::Int(s)).collect::<Vec<_>>();
    let mut sel: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); info.comps.len()];
    backing_stream(mv, &info.comps[key.root])?.scan_by_values(
        1 + key.root_key_col,
        std::slice::from_ref(key_value),
        snap,
        |_, row| {
            sel[key.root].insert(row.values[0].as_int()?);
            Ok(true)
        },
    )?;
    let mut conns: Vec<Vec<Tuple>> = vec![Vec::new(); info.rels.len()];
    for c in info.topo() {
        for (ri, p, _, _) in info.edges().filter(|&(_, _, child, _)| child == c) {
            let parents = surrogates(&sel[p]);
            backing_stream(mv, &info.rels[ri].name)?.scan_by_values(
                0,
                &parents,
                snap,
                |_, t| {
                    sel[c].insert(t.values[1].as_int()?);
                    conns[ri].push(t);
                    Ok(true)
                },
            )?;
            conns[ri].sort_by(|a, b| a.values.cmp(&b.values));
        }
    }
    let nodes = info.comps.iter().zip(&sel).map(|(comp, s)| {
        let mut rows = Vec::with_capacity(s.len());
        backing_stream(mv, comp)?.scan_by_values(0, &surrogates(s), snap, |_, t| {
            rows.push(t);
            Ok(true)
        })?;
        rows.sort_by(|a, b| a.values[0].cmp(&b.values[0]));
        Ok(rows)
    });
    Ok((nodes.collect::<Result<_>>()?, conns))
}
