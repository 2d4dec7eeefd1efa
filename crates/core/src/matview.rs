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
//!   in-place edits (heap positions do not).
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
//!    group's stored row (insert on first member, delete when the count
//!    reaches zero), instead of recomputing the whole aggregate;
//! 3. **in-place edits** — keyed CO views (binary foreign-key and
//!    connect-table relationships over base-mapped components): every
//!    delta row becomes node-granular edits of the stored streams, naming
//!    nodes by their node key (a unique NOT NULL index the component
//!    projects). A value-only update rewrites one node; a move swaps one
//!    connection; a delete, or a key or filter change, removes a node, and
//!    a node no connection holds any more is removed in turn; an insert,
//!    a new image or a new link *reaches* its node and walks its children
//!    through the base tables (see `in_place_edits`). A delta that needs
//!    value identity across rows (a component without a node key, for one)
//!    recomputes the view instead;
//! 4. **full recompute** — the fallback for everything else (join views,
//!    non-groupable aggregation, DISTINCT, nested views, recursive COs), and
//!    what `REFRESH MATERIALIZED VIEW` always does.
//!
//! Backing streams are MVCC heaps like any base table. Maintenance is the
//! committing transaction's last step (see `maintain`): the committing
//! thread coalesces its delta chains, takes the maintenance lock and
//! applies the delta to every dependent view, reading latest-committed
//! data plus its own writes and writing backing rows as the transaction,
//! which then commits. Commits maintain one after another in commit-stamp
//! order, and a reader's snapshot sees a view exactly as of the commits it
//! sees in the base tables. `CREATE` alone writes frozen rows.
//!
//! All strategies bump the view's freshness epoch
//! ([`xnf_storage::MatView::epoch`]).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use xnf_exec::{passes, ExecStats, OuterCtx, Params, QueryResult, Row, StreamResult};
use xnf_plan::PhysExpr;
use xnf_qgm::{inline_xnf_views, view_body, OutputKind};
use xnf_sql::{
    AggFunc, Expr, Select, SelectItem, TableRef, ViewBody, XnfDef, XnfQuery, XnfRelationship,
    XnfTake,
};
use xnf_storage::{
    Column, DataType, DeltaBatch, DeltaRow, MatView, Rid, Schema, Snapshot, Table, Transaction,
    Tuple, Value, ViewKind,
};

use crate::cache::Workspace;
use crate::co::CoCache;
use crate::db::Database;
use crate::error::{Result, XnfError};
use crate::session::normalize_statement;
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
        /// Selection over the base row ([`Database::row_filter`]).
        filter: Vec<PhysExpr>,
    },
    /// `GROUP BY` over one base table with `COUNT(*)` / `SUM(int col)`
    /// outputs: each delta image adjusts its group's stored row.
    GroupedAgg {
        /// Normalized base table name.
        table: String,
        /// `(base column, output position)` per grouping column.
        groups: Vec<(usize, usize)>,
        /// `(base column or None for COUNT(*), output position)` per
        /// aggregate output. At least one COUNT(*) tracks group liveness.
        aggs: Vec<(Option<usize>, usize)>,
        /// Selection over the base row ([`Database::row_filter`]).
        filter: Vec<PhysExpr>,
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
    /// Present when the view supports in-place (incremental) maintenance.
    pub key: Option<CoKey>,
    /// Per component, in stream order, when `key` is present (else empty).
    pub nodes: Vec<NodeFacts>,
}

/// What keyed maintenance knows about one component's stored nodes.
pub(crate) struct NodeFacts {
    /// Cache columns of the component's node key: a unique index on its
    /// base table whose columns are all NOT NULL and all projected, so at
    /// most one stored node carries each key value. `None` when the base
    /// table has no such index; a delta on it then recomputes the view.
    pub key: Option<Vec<usize>>,
    /// Base columns whose change can move a connection, once per use: the
    /// columns any relationship reads, plus the root key column on the
    /// root. A use is `Some((rel, parent))` when it is the child column of
    /// the incoming foreign-key relationship `rel` whose parent component's
    /// node key is that relationship's parent column alone, so that a
    /// change of it moves the node to the one stored parent with the new
    /// value; any other use is `None`.
    pub links: Vec<(usize, Option<(usize, usize)>)>,
    /// Selection over the base row ([`Database::row_filter`]).
    pub filter: Vec<PhysExpr>,
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
            let result = run_definition(db, &s.to_string(), None)?;
            let stream = result.try_table()?;
            let schema = any_schema(&stream.columns);
            db.catalog().create_materialized_view(
                name,
                ViewKind::Sql,
                &s.to_string(),
                vec![(name.to_string(), schema)],
            )?;
            if let Err(e) = fill_sql_backing(db, name, &strategy, &stream.rows, insert_frozen) {
                let _ = db.catalog().drop_view(name);
                return Err(e);
            }
            Ok(())
        }
        ViewBody::Xnf(q) => {
            let info = analyze_xnf(db, q)?;
            let result = run_definition(db, &info.text, None)?;
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
            if let Err(e) = fill_xnf_backing(db, name, &info, &result, insert_frozen) {
                let _ = db.catalog().drop_view(name);
                return Err(e);
            }
            Ok(())
        }
    }
}

/// `REFRESH MATERIALIZED VIEW name`: full recompute of the backing storage,
/// in a transaction of its own, serialized against commit-time
/// maintenance by the maintenance lock.
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
    let txn = Transaction::begin(db.catalog().txns());
    db.commit_with(txn, |txn| repopulate(&mut Pass::new(db, txn), plan))
}

/// Full recompute: delete every backing row the pass sees, re-run the
/// definition under its snapshot and insert the result.
fn repopulate(p: &mut Pass, plan: &MaintPlan) -> Result<()> {
    let db = p.db;
    let mv = expect_matview(db, &plan.name)?;
    for s in mv.streams() {
        let mut rids = Vec::new();
        s.table.for_each_visible(&p.snap, |rid, _| {
            rids.push(rid);
            Ok(true)
        })?;
        for rid in rids {
            p.delete(&s.table, rid)?;
        }
    }
    let vis = Some(p.snap.clone());
    let insert = |t: &Arc<Table>, tuple: &Tuple| p.insert(t, tuple);
    match &plan.body {
        BodyPlan::Sql { select, strategy } => {
            let result = run_definition(db, &select.to_string(), vis)?;
            let stream = result.try_table()?;
            fill_sql_backing(db, &plan.name, strategy, &stream.rows, insert)?;
        }
        BodyPlan::Xnf(info) => {
            let result = run_definition(db, &info.text, vis)?;
            fill_xnf_backing(db, &plan.name, info, &result, insert)?;
        }
    }
    mv.bump_epoch();
    Ok(())
}

/// Run a view definition — SELECT text or flattened `OUT OF` text — under
/// `vis` (`None`: latest-committed data), compiled through the shared plan
/// cache: a view that recomputes compiles its definition once per catalog
/// generation.
fn run_definition(db: &Database, text: &str, vis: Option<Snapshot>) -> Result<QueryResult> {
    let (compiled, _) = db.compile_cached(&normalize_statement(text))?;
    db.run_body(&compiled.body, Params::default(), vis)
}

/// One transaction's maintenance or REFRESH. Reads run under `snap`:
/// latest-committed data plus the transaction's own writes. Backing rows
/// are written as the transaction: each version carries its id and enters
/// its undo log, so its commit stamp publishes view and base rows together
/// and its abort takes both back.
struct Pass<'a, 't> {
    db: &'a Database,
    snap: Snapshot,
    txn: &'t mut Transaction,
}

impl<'a, 't> Pass<'a, 't> {
    fn new(db: &'a Database, txn: &'t mut Transaction) -> Self {
        let snap = txn.write_snapshot();
        Pass { db, snap, txn }
    }

    fn insert(&mut self, t: &Arc<Table>, tuple: &Tuple) -> Result<()> {
        let rid = t.insert_txn(tuple, self.txn.id())?;
        self.txn.log_insert(t, rid);
        Ok(())
    }

    fn delete(&mut self, t: &Arc<Table>, rid: Rid) -> Result<()> {
        t.mark_delete_txn(rid, self.txn.id())?;
        self.txn.log_delete_at(t, rid);
        Ok(())
    }

    fn update(&mut self, t: &Arc<Table>, rid: Rid, new: &Tuple) -> Result<()> {
        let (_, new_rid) = t.update_txn(rid, new, self.txn.id())?;
        self.txn.log_update_at(t, rid, new_rid);
        Ok(())
    }
}

/// How `CREATE` fills backing rows: frozen, visible to every snapshot.
fn insert_frozen(t: &Arc<Table>, tuple: &Tuple) -> Result<()> {
    t.insert(tuple)?;
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
fn fill_sql_backing(
    db: &Database,
    name: &str,
    strategy: &SqlStrategy,
    rows: &[Row],
    mut insert: impl FnMut(&Arc<Table>, &Tuple) -> Result<()>,
) -> Result<()> {
    let mv = expect_matview(db, name)?;
    let backing = mv
        .stream(name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{name}'")))?;
    for row in rows {
        insert(&backing, &Tuple::new(row.clone()))?;
    }
    // Group rows are located through their first grouping output, and
    // direct rows removed by value through their first column.
    match strategy {
        SqlStrategy::GroupedAgg { groups, .. } => ensure_index(&backing, "mv_key", groups[0].1)?,
        SqlStrategy::Direct { .. } => ensure_index(&backing, "mv_key", 0)?,
        SqlStrategy::Full => {}
    }
    backing.analyze()?;
    Ok(())
}

/// Populate a CO view's backing streams (node rows get fresh surrogates,
/// connection rows translate stream positions to surrogates) and create
/// the maintenance indexes.
fn fill_xnf_backing(
    db: &Database,
    name: &str,
    info: &XnfInfo,
    result: &QueryResult,
    mut insert: impl FnMut(&Arc<Table>, &Tuple) -> Result<()>,
) -> Result<()> {
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
            insert(&backing, &Tuple::new(values))?;
            ids.push(id);
        }
        surr.insert(s.name.to_ascii_lowercase(), ids);
        // Surrogates are unique by allocation; a unique index would
        // re-read every superseded version of a node on each rewrite.
        ensure_index(&backing, "mv_coid", 0)?;
        if backing.schema.len() > 1 {
            ensure_index(&backing, "mv_v0", 1)?;
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
            insert(&backing, &Tuple::new(values))?;
        }
        for col in 0..backing.schema.len() {
            ensure_index(&backing, &format!("mv_c{col}"), col)?;
        }
        backing.analyze()?;
    }
    // Root-key index for point fetches.
    if let Some(key) = &info.key {
        if let Some(backing) = mv.stream(&info.comps[key.root]) {
            ensure_index(&backing, "mv_rootkey", 1 + key.root_key_col)?;
        }
    }
    // Node-key index for in-place rewrites (usually `mv_v0` already is one).
    for (comp, facts) in info.comps.iter().zip(&info.nodes) {
        if let (Some(key), Some(backing)) = (&facts.key, mv.stream(comp)) {
            ensure_index(&backing, "mv_nodekey", 1 + key[0])?;
        }
    }
    Ok(())
}

/// Create a single-column index if an equivalent one does not exist yet.
fn ensure_index(table: &Arc<Table>, name: &str, col: usize) -> Result<()> {
    if table.find_index(&[col]).is_some() {
        return Ok(());
    }
    table.create_index(name, vec![col], false)?;
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
            if let Ok(filter) = db.row_filter(select) {
                return SqlStrategy::Direct {
                    table: base.table.to_ascii_uppercase(),
                    base_cols: base.columns,
                    filter,
                };
            }
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
        filter: db.row_filter(select).ok()?,
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
    }
    let mut nodes = Vec::with_capacity(info.comps.len());
    for (c, node_key) in keys.iter().enumerate() {
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
            filter: component_filter(db, info, c)?,
        });
    }
    Ok(nodes)
}

/// `(parent column, child column)` of a keyed view's relationship.
fn link_cols(meta: &RelMeta) -> (usize, usize) {
    (meta.link_cols()).expect("keyed plans exclude general relationships")
}

fn derive_co_key(info: &XnfInfo) -> Option<CoKey> {
    if !matches!(info.flat.take, XnfTake::All) {
        return None;
    }
    // A global restriction would have to be re-evaluated during the
    // base-table walks of in-place edits; keep those on the full-recompute
    // path.
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
    /// Stored CO nodes written in place: rewritten by key, inserted or
    /// removed.
    pub nodes_rewritten: u64,
    /// Stored CO connections inserted or deleted in place.
    pub links_edited: u64,
    /// Views recomputed from their definition, whatever their strategy.
    pub recomputes: u64,
}

/// Propagate one transaction's (coalesced) delta batch through every
/// dependent materialized view, as the last step of `txn` before its
/// commit stamp. The caller holds the maintenance lock, so every commit
/// before this one has maintained and committed: the reads here see
/// latest-committed data plus `txn`'s own writes, the backing writes
/// belong to `txn`, and commits maintain one after another in stamp order.
/// A view whose strategy cannot place the delta is recomputed. An error
/// leaves the backing writes in `txn`, for its abort to take back.
pub(crate) fn maintain(
    db: &Database,
    txn: &mut Transaction,
    delta: &DeltaBatch,
) -> Result<MaintCounters> {
    let mut counters = MaintCounters::default();
    if delta.is_empty() {
        return Ok(counters);
    }
    let p = &mut Pass::new(db, txn);
    let plans = db.matview_plans()?;
    for plan in plans.iter() {
        if !delta.touches_any(plan.deps.iter().map(|s| s.as_str())) {
            continue;
        }
        let applied = match &plan.body {
            BodyPlan::Sql {
                strategy:
                    SqlStrategy::Direct {
                        table,
                        base_cols,
                        filter,
                    },
                ..
            } => apply_direct(p, plan, table, base_cols, filter, delta)?,
            BodyPlan::Sql {
                strategy:
                    SqlStrategy::GroupedAgg {
                        table,
                        groups,
                        aggs,
                        filter,
                    },
                ..
            } => apply_grouped(p, plan, table, groups, aggs, filter, delta)?,
            BodyPlan::Xnf(info) if info.key.is_some() => {
                match in_place_edits(p, plan, info, delta)? {
                    Some(edits) => {
                        apply_in_place(p, plan, info, edits, &mut counters)?;
                        true
                    }
                    None => false,
                }
            }
            _ => false,
        };
        if !applied {
            repopulate(p, plan)?;
            counters.recomputes += 1;
        }
        expect_matview(db, &plan.name)?.bump_epoch();
    }
    Ok(counters)
}

/// Direct maintenance of a selection/projection view: filter + project the
/// delta images and apply them to the backing table. `false` when the
/// stored image diverged from what the delta implies.
fn apply_direct(
    p: &mut Pass,
    plan: &MaintPlan,
    table: &str,
    base_cols: &[usize],
    filter: &[PhysExpr],
    delta: &DeltaBatch,
) -> Result<bool> {
    let mv = expect_matview(p.db, &plan.name)?;
    let backing = mv
        .stream(&plan.name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{}'", plan.name)))?;
    let outer = OuterCtx::new();
    let project = |row: &[Value]| -> Row { base_cols.iter().map(|&c| row[c].clone()).collect() };

    for d in delta.rows(table) {
        let old = match d.before() {
            Some(t) if passes(filter, &t.values, &outer)? => Some(project(&t.values)),
            _ => None,
        };
        let new = match d.after() {
            Some(t) if passes(filter, &t.values, &outer)? => Some(project(&t.values)),
            _ => None,
        };
        if let (Some(o), Some(n)) = (&old, &new) {
            if rows_eq(o, n) {
                continue;
            }
        }
        if let Some(o) = old {
            if !remove_row_by_value(p, &backing, &o)? {
                // The stored image diverged from what the delta implies.
                return Ok(false);
            }
        }
        if let Some(n) = new {
            p.insert(&backing, &Tuple::new(n))?;
        }
    }
    Ok(true)
}

/// Grouped-aggregate maintenance: the delta images' COUNT/SUM arithmetic
/// nets to one change per group, and each changed group's stored row is
/// written once: inserted for a new group, deleted when its count returns
/// to zero. Anything the exact arithmetic cannot invert (NULL group keys,
/// non-integer sum inputs, overflow, divergence from the stored image)
/// returns `false`, and the view is recomputed.
fn apply_grouped(
    p: &mut Pass,
    plan: &MaintPlan,
    table: &str,
    groups: &[(usize, usize)],
    aggs: &[(Option<usize>, usize)],
    filter: &[PhysExpr],
    delta: &DeltaBatch,
) -> Result<bool> {
    let mv = expect_matview(p.db, &plan.name)?;
    let backing = mv
        .stream(&plan.name)
        .ok_or_else(|| XnfError::Api(format!("missing backing table for '{}'", plan.name)))?;
    let outer = OuterCtx::new();
    // Per group key, the net change of each aggregate output.
    let mut net: BTreeMap<Vec<Value>, Vec<i64>> = BTreeMap::new();
    for d in delta.rows(table) {
        for (img, sign) in [(d.before(), -1i64), (d.after(), 1i64)] {
            let Some(t) = img else { continue };
            if !passes(filter, &t.values, &outer)? {
                continue;
            }
            let row = &t.values;
            let key: Vec<Value> = groups.iter().map(|(c, _)| row[*c].clone()).collect();
            if key.iter().any(Value::is_null) {
                return Ok(false);
            }
            let adds = net.entry(key).or_insert_with(|| vec![0; aggs.len()]);
            for ((src, _), add) in aggs.iter().zip(adds.iter_mut()) {
                let dv = match src.map(|c| &row[c]) {
                    None => sign,
                    Some(Value::Int(i)) => i.wrapping_mul(sign),
                    Some(_) => return Ok(false),
                };
                let Some(next) = add.checked_add(dv) else {
                    return Ok(false);
                };
                *add = next;
            }
        }
    }
    let count_out = aggs
        .iter()
        .find(|(src, _)| src.is_none())
        .expect("grouped plans carry COUNT(*)")
        .1;
    let probe_out = groups[0].1;
    for (key, adds) in net {
        if adds.iter().all(|&a| a == 0) {
            continue;
        }
        // Locate the group's stored row (mv_key index on the first grouping
        // output).
        let hit = first_match(&backing, probe_out, &key[0], &p.snap, |_, stored| {
            Ok(groups
                .iter()
                .zip(&key)
                .all(|((_, o), v)| stored.values[*o].total_cmp(v).is_eq()))
        })?;
        let mut vals = match &hit {
            Some((_, stored)) => stored.values.clone(),
            None => {
                let mut vals = vec![Value::Null; backing.schema.len()];
                for ((_, o), v) in groups.iter().zip(key) {
                    vals[*o] = v;
                }
                aggs.iter().for_each(|(_, o)| vals[*o] = Value::Int(0));
                vals
            }
        };
        for ((_, out), add) in aggs.iter().zip(adds) {
            let Value::Int(cur) = vals[*out] else {
                return Ok(false);
            };
            let Some(next) = cur.checked_add(add) else {
                return Ok(false);
            };
            vals[*out] = Value::Int(next);
        }
        match (&vals[count_out], hit) {
            // Group count back to zero: the group vanished.
            (Value::Int(0), Some((rid, _))) => p.delete(&backing, rid)?,
            (Value::Int(n), Some((rid, _))) if *n > 0 => {
                p.update(&backing, rid, &Tuple::new(vals))?
            }
            (Value::Int(n), None) if *n > 0 => p.insert(&backing, &Tuple::new(vals))?,
            // More removals than stored members, or a change to a group
            // never stored: diverged.
            _ => return Ok(false),
        }
    }
    Ok(true)
}

/// One write to a keyed CO view's stored streams.
enum CoEdit {
    /// Supersede stored node `rid` of component `comp`; `node` keeps the
    /// stored surrogate.
    Rewrite { comp: usize, rid: Rid, node: Tuple },
    /// Insert a node of component `comp`; its surrogate is drawn when the
    /// edits apply.
    Insert { comp: usize, row: Row },
    /// Delete stored node `rid` of component `comp`.
    Remove { comp: usize, rid: Rid },
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
/// `None` when the view must be recomputed. Nodes are named by their node
/// key, and the delta is classified in three passes:
///
/// 1. **What it takes away.** A deleted component row removes its stored
///    node, and so does an update that changes the node key, flips the
///    WHERE answer or changes a column a relationship reads. A value-only
///    update rewrites the stored node, keeping its surrogate. A *move* — a
///    changed foreign key to a parent keyed by that column — drops the
///    node's connection of that relationship. A deleted connect-table row
///    drops its connection unless another row still links the pair. A
///    removed node loses its connections in both directions.
/// 2. **What it adds.** An inserted row, the new image of a removed row
///    and an inserted connect-table row *reach* their nodes. A node with a
///    live parent (a root needs none) is inserted and linked to its
///    parents; then it walks its children through the base tables: a child
///    stored already is linked, and one stored nowhere is reached in turn.
///    A moved node is linked to its new parent.
/// 3. **Orphans.** A non-root node that lost a connection is removed when
///    no connection into it is left, stored or pending, counted over every
///    relationship into its component; the removal cascades. The check
///    stops at the first surviving connection, so a shared node's fan-in
///    costs nothing. Roots leave only through their own delete or filter.
///
/// Value identity across rows needs a recompute: a delta row on a
/// component without a node key, a reach that meets such a component's
/// row, a connect-table row whose ends are not keyed by the linked
/// columns, a table that is both a component and a connect table, and a
/// cyclic graph all return `None`.
fn in_place_edits(
    p: &Pass,
    plan: &MaintPlan,
    info: &XnfInfo,
    delta: &DeltaBatch,
) -> Result<Option<Vec<CoEdit>>> {
    for table in &plan.deps {
        if delta.rows(table).is_empty() {
            continue;
        }
        let comp = (0..info.comps.len()).any(|c| info.base(c).table.eq_ignore_ascii_case(table));
        let connects = info.co.relationships.iter().any(|r| {
            matches!(r, RelMeta::ConnectTable { table: t, .. } if t.eq_ignore_ascii_case(table))
        });
        if comp && connects {
            return Ok(None);
        }
    }
    // Parents before children, so that a parent's walk reaches its children
    // before their own delta rows do. A cyclic graph has no such order.
    let order = info.topo();
    if order.len() < info.comps.len() {
        return Ok(None);
    }
    let mut ed = Editor {
        db: p.db,
        info,
        root: info.key.as_ref().expect("keyed plan").root,
        mv: expect_matview(p.db, &plan.name)?,
        snap: &p.snap,
        outer: OuterCtx::new(),
        removed: HashMap::new(),
        unlinked: HashSet::new(),
        rewrites: Vec::new(),
        inserts: Vec::new(),
        inserted: Vec::new(),
        links: Vec::new(),
        linked: HashSet::new(),
        moves: Vec::new(),
        orphans: VecDeque::new(),
    };
    // Pass 1: what the delta takes away.
    let mut reach: Vec<(usize, &[Value])> = Vec::new();
    for &c in &order {
        let rows = delta.rows(&info.base(c).table);
        if !rows.is_empty() && info.nodes[c].key.is_none() {
            return Ok(None);
        }
        for d in rows {
            match d {
                DeltaRow::Insert(new) => reach.push((c, &new.values)),
                DeltaRow::Delete(old) => ed.take(c, &old.values)?,
                DeltaRow::Update { old, new } => {
                    if ed.update(c, &old.values, &new.values)? {
                        reach.push((c, &new.values));
                    }
                }
            }
        }
    }
    let connect_rows = info.edges().filter_map(|(ri, p, c, meta)| match meta {
        RelMeta::ConnectTable { table, .. } => Some((ri, p, c, meta, delta.rows(table))),
        _ => None,
    });
    let connect_rows: Vec<_> = connect_rows.collect();
    for &(ri, p, c, meta, rows) in &connect_rows {
        let (parent_col, child_col) = link_cols(meta);
        let keyed = info.keyed_by(p, parent_col) && info.keyed_by(c, child_col);
        if !rows.is_empty() && !keyed {
            return Ok(None);
        }
        for m in rows.iter().filter_map(DeltaRow::before) {
            ed.disconnect(ri, p, c, meta, &m.values)?;
        }
    }
    // Pass 2: what it adds.
    for (c, row) in reach {
        if !ed.reach(c, row, None)? {
            return Ok(None);
        }
    }
    for (rel, p, v, child) in std::mem::take(&mut ed.moves) {
        if let Some(parent) = ed.node(p, &v)? {
            ed.link(rel, parent, child)?;
        }
    }
    for &(ri, p, c, meta, rows) in &connect_rows {
        for m in rows.iter().filter_map(DeltaRow::after) {
            if !ed.connect(ri, p, c, meta, &m.values)? {
                return Ok(None);
            }
        }
    }
    // Pass 3: orphans.
    ed.cascade()?;
    Ok(Some(ed.finish()))
}

/// The state of one [`in_place_edits`] pass. Reads see latest-committed
/// data plus the committing transaction's writes through `snap`; nothing
/// is written until [`apply_in_place`].
struct Editor<'a> {
    db: &'a Database,
    info: &'a XnfInfo,
    /// The root component.
    root: usize,
    mv: Arc<MatView>,
    snap: &'a Snapshot,
    outer: OuterCtx,
    /// Stored nodes this commit removes: surrogate → (component, rid).
    removed: HashMap<i64, (usize, Rid)>,
    /// Stored connections this commit deletes: (relationship, rid).
    unlinked: HashSet<(usize, Rid)>,
    /// Stored nodes rewritten in place: (component, rid, new row).
    rewrites: Vec<(usize, Rid, Tuple)>,
    /// Nodes this commit inserts, by position; `None` once orphaned.
    inserts: Vec<Option<(usize, Row)>>,
    /// Per component, node key → position of a node this commit inserts.
    inserted: Vec<HashMap<Row, usize>>,
    /// Connections this commit inserts, each pushed once.
    links: Vec<(usize, Node, Node)>,
    /// Connections pushed or found stored, so each is resolved once.
    linked: HashSet<(usize, Node, Node)>,
    /// Moved nodes: (relationship, parent component, new parent key, node).
    moves: Vec<(usize, usize, Value, Node)>,
    /// Nodes that lost a connection, for the orphan check.
    orphans: VecDeque<(usize, Node)>,
}

impl Editor<'_> {
    fn stream(&self, name: &str) -> Result<Arc<Table>> {
        backing_stream(&self.mv, name)
    }

    /// Rows of base table `table` with `col = v`, as this commit left them.
    fn base_rows(&self, table: &str, col: usize, v: &Value) -> Result<Vec<Tuple>> {
        let mut rows = Vec::new();
        let t = self.db.catalog().table(table)?;
        t.scan_by_values(col, std::slice::from_ref(v), self.snap, |_, row| {
            rows.push(row);
            Ok(true)
        })?;
        Ok(rows)
    }

    /// The node key of component `c` (keyed) in base row `row`.
    fn key_of(&self, c: usize, row: &[Value]) -> Row {
        let columns = &self.info.base(c).columns;
        let key = self.info.nodes[c].key.as_ref().expect("keyed component");
        key.iter().map(|&k| row[columns[k]].clone()).collect()
    }

    /// Is node `n` still in the view, as far as this commit's edits go?
    fn live(&self, n: Node) -> bool {
        match n {
            Node::Stored(s) => !self.removed.contains_key(&s),
            Node::New(at) => self.inserts[at].is_some(),
        }
    }

    /// The stored node of component `c` with node key `key`, removed or
    /// not: its rid and surrogate.
    fn stored(&self, c: usize, key: &[Value]) -> Result<Option<(Rid, i64)>> {
        if key.iter().any(Value::is_null) {
            return Ok(None);
        }
        let cols = self.info.nodes[c].key.as_ref().expect("keyed component");
        let node_t = self.stream(&self.info.comps[c])?;
        let hit = first_match(&node_t, 1 + cols[0], &key[0], self.snap, |_, t| {
            Ok(cols
                .iter()
                .zip(key)
                .all(|(&k, v)| t.values[1 + k].total_cmp(v).is_eq()))
        })?;
        hit.map(|(rid, t)| Ok((rid, t.values[0].as_int()?)))
            .transpose()
    }

    /// The node of component `c` with node key `key` that this commit
    /// inserts, if it is live.
    fn new_node(&self, c: usize, key: &[Value]) -> Option<Node> {
        let at = *self.inserted.get(c)?.get(key)?;
        self.inserts[at].is_some().then_some(Node::New(at))
    }

    /// The live node of component `c` with node key `key`: inserted by
    /// this commit, or stored and not removed.
    fn find(&self, c: usize, key: &[Value]) -> Result<Option<Node>> {
        if let Some(n) = self.new_node(c, key) {
            return Ok(Some(n));
        }
        Ok(match self.stored(c, key)? {
            Some((_, s)) if !self.removed.contains_key(&s) => Some(Node::Stored(s)),
            _ => None,
        })
    }

    /// The live node of component `c` whose single-column node key is `v`.
    fn node(&self, c: usize, v: &Value) -> Result<Option<Node>> {
        self.find(c, std::slice::from_ref(v))
    }

    /// A component row's old image leaves the view, with every connection
    /// into its node.
    fn take(&mut self, c: usize, old: &[Value]) -> Result<()> {
        let Some((rid, s)) = self.stored(c, &self.key_of(c, old))? else {
            return Ok(());
        };
        let info = self.info;
        for (ri, ..) in info.edges().filter(|&(_, _, child, _)| child == c) {
            self.unlink_all(ri, 1, &[Value::Int(s)])?;
        }
        self.remove_stored(&[(c, s, rid)])
    }

    /// An updated component row: a rewrite, a move, or a new identity.
    /// Returns whether the new image must be reached.
    fn update(&mut self, c: usize, old: &[Value], new: &[Value]) -> Result<bool> {
        let info = self.info;
        let (facts, base) = (&info.nodes[c], info.base(c));
        let key = facts.key.as_ref().expect("keyed component");
        let same = |b: usize| old[b].total_cmp(&new[b]).is_eq();
        let selected = passes(&facts.filter, new, &self.outer)?;
        let kept = key.iter().all(|&k| same(base.columns[k]))
            && selected == passes(&facts.filter, old, &self.outer)?;
        let moves: Option<Vec<(usize, usize, usize)>> = facts
            .links
            .iter()
            .filter(|&&(b, _)| !same(b))
            .map(|&(b, rel)| rel.map(|(ri, p)| (ri, p, b)))
            .collect();
        let Some(moves) = moves.filter(|_| kept) else {
            // A new identity: the old node leaves and the new image is
            // reached.
            self.take(c, old)?;
            return Ok(selected);
        };
        let shown_same = base.columns.iter().all(|&b| same(b));
        if !selected || shown_same && moves.is_empty() {
            return Ok(false);
        }
        let Some((rid, s)) = self.stored(c, &self.key_of(c, new))? else {
            // No live parent held the node; a move may reach it.
            return Ok(!moves.is_empty());
        };
        let node = Node::Stored(s);
        for (rel, p, b) in moves {
            self.unlink_all(rel, 1, &[Value::Int(s)])?;
            self.orphans.push_back((c, node));
            self.moves.push((rel, p, new[b].clone(), node));
        }
        if !shown_same {
            let mut values = Vec::with_capacity(base.columns.len() + 1);
            values.push(Value::Int(s));
            values.extend(base.columns.iter().map(|&b| new[b].clone()));
            self.rewrites.push((c, rid, Tuple::new(values)));
        }
        Ok(false)
    }

    /// A deleted connect-table row of relationship `ri` (`p` → `c`).
    fn disconnect(
        &mut self,
        ri: usize,
        p: usize,
        c: usize,
        meta: &RelMeta,
        m: &[Value],
    ) -> Result<()> {
        let RelMeta::ConnectTable {
            table,
            m_parent_col,
            m_child_col,
            ..
        } = meta
        else {
            unreachable!("called for connect tables")
        };
        let (pv, cv) = (&m[*m_parent_col], &m[*m_child_col]);
        let parent = self.stored(p, std::slice::from_ref(pv))?;
        let child = self.stored(c, std::slice::from_ref(cv))?;
        let (Some((_, ps)), Some((_, cs))) = (parent, child) else {
            return Ok(());
        };
        let still = self
            .base_rows(table, *m_parent_col, pv)?
            .iter()
            .any(|t| t.values[*m_child_col].total_cmp(cv).is_eq());
        if still {
            return Ok(());
        }
        let conn_t = self.stream(&self.info.rels[ri].name)?;
        let pair = first_match(&conn_t, 0, &Value::Int(ps), self.snap, |rid, t| {
            Ok(t.values[1].as_int()? == cs && !self.unlinked.contains(&(ri, rid)))
        })?;
        if let Some((rid, _)) = pair {
            self.unlinked.insert((ri, rid));
            self.orphans.push_back((c, Node::Stored(cs)));
        }
        Ok(())
    }

    /// Reach component row `row` (a base-table image) of component `c`:
    /// through `via`, or through every live parent when `via` is `None`.
    /// A row that passes the WHERE and has a parent (or is a root) gets a
    /// node, unless it has one, and is linked to its parents; a new node
    /// walks its children. `false` when the view must be recomputed.
    fn reach(&mut self, c: usize, row: &[Value], via: Option<(usize, Node)>) -> Result<bool> {
        let facts = &self.info.nodes[c];
        if !passes(&facts.filter, row, &self.outer)? {
            return Ok(true);
        }
        if facts.key.is_none() {
            return Ok(false);
        }
        let key = self.key_of(c, row);
        let found = match via {
            // A stored node with a delta row's key belonged to an old
            // image, which pass 1 removed: only a walk can have reached it.
            None => self.new_node(c, &key),
            Some(_) => self.find(c, &key)?,
        };
        let mut parents: Vec<(usize, Node)> = via.into_iter().collect();
        if via.is_none() && !self.parents(c, row, &mut parents)? {
            return Ok(false);
        }
        let node = match found {
            Some(n) => n,
            None if parents.is_empty() && c != self.root => return Ok(true),
            None => {
                let at = self.inserts.len();
                let base = self.info.base(c);
                let cached = base.columns.iter().map(|&b| row[b].clone()).collect();
                self.inserts.push(Some((c, cached)));
                if self.inserted.len() <= c {
                    self.inserted.resize_with(c + 1, HashMap::new);
                }
                self.inserted[c].insert(key, at);
                Node::New(at)
            }
        };
        for (rel, parent) in parents {
            self.link(rel, parent, node)?;
        }
        if found.is_some() {
            return Ok(true);
        }
        self.walk(c, row, node)
    }

    /// Push the live parents of component row `row` over every
    /// relationship into `c`. `false` when a row links it to a parent
    /// component that is not keyed by the linked column.
    fn parents(&self, c: usize, row: &[Value], out: &mut Vec<(usize, Node)>) -> Result<bool> {
        let info = self.info;
        let base = info.base(c);
        for (ri, p, _, meta) in info.edges().filter(|&(_, _, child, _)| child == c) {
            let (parent_col, child_col) = link_cols(meta);
            let v = &row[base.columns[child_col]];
            if v.is_null() {
                continue;
            }
            let keyed = info.keyed_by(p, parent_col);
            match meta {
                RelMeta::ConnectTable {
                    table,
                    m_parent_col,
                    m_child_col,
                    ..
                } => {
                    for m in self.base_rows(table, *m_child_col, v)? {
                        let pv = &m.values[*m_parent_col];
                        if pv.is_null() {
                            continue;
                        }
                        if !keyed {
                            return Ok(false);
                        }
                        if let Some(n) = self.node(p, pv)? {
                            out.push((ri, n));
                        }
                    }
                }
                _ if keyed => {
                    if let Some(n) = self.node(p, v)? {
                        out.push((ri, n));
                    }
                }
                _ => {
                    let pbase = info.base(p);
                    let t = self.db.catalog().table(&pbase.table)?;
                    let hit =
                        first_match(&t, pbase.columns[parent_col], v, self.snap, |_, _| Ok(true))?;
                    if hit.is_some() {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Walk the children of new node `n` of component `c` (base row
    /// `row`): a live child is linked, any other child row is reached.
    fn walk(&mut self, c: usize, row: &[Value], n: Node) -> Result<bool> {
        let info = self.info;
        let base = info.base(c);
        for (ri, _, ch, meta) in info.edges().filter(|&(_, parent, _, _)| parent == c) {
            let (parent_col, child_col) = link_cols(meta);
            let v = &row[base.columns[parent_col]];
            if v.is_null() {
                continue;
            }
            let cbase = info.base(ch);
            let children = match meta {
                RelMeta::ConnectTable {
                    table,
                    m_parent_col,
                    m_child_col,
                    ..
                } => {
                    let mut children = Vec::new();
                    for m in self.base_rows(table, *m_parent_col, v)? {
                        let cv = &m.values[*m_child_col];
                        if cv.is_null() {
                            continue;
                        }
                        // A live child keyed by the linked column is linked
                        // without reading its base row.
                        if info.keyed_by(ch, child_col) {
                            if let Some(child) = self.node(ch, cv)? {
                                self.link(ri, n, child)?;
                                continue;
                            }
                        }
                        children.extend(self.base_rows(
                            &cbase.table,
                            cbase.columns[child_col],
                            cv,
                        )?);
                    }
                    children
                }
                _ => self.base_rows(&cbase.table, cbase.columns[child_col], v)?,
            };
            for t in children {
                if !self.reach(ch, &t.values, Some((ri, n)))? {
                    return Ok(false);
                }
            }
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
            child_col,
            m_parent_col,
            m_child_col,
            ..
        } = meta
        else {
            unreachable!("called for connect tables")
        };
        let cv = &m[*m_child_col];
        // A parent this commit inserts has walked every row linking it.
        let Some(parent @ Node::Stored(_)) = self.node(p, &m[*m_parent_col])? else {
            return Ok(true);
        };
        if cv.is_null() {
            return Ok(true);
        }
        if let Some(child) = self.node(c, cv)? {
            self.link(ri, parent, child)?;
            return Ok(true);
        }
        let cbase = self.info.base(c);
        for t in self.base_rows(&cbase.table, cbase.columns[*child_col], cv)? {
            if !self.reach(c, &t.values, Some((ri, parent)))? {
                return Ok(false);
            }
        }
        Ok(true)
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
            let conn_t = self.stream(&self.info.rels[rel].name)?;
            let stored = first_match(&conn_t, from, &Value::Int(other), self.snap, |rid, t| {
                Ok(t.values[1 - from].as_int()? == want && !self.unlinked.contains(&(rel, rid)))
            })?;
            if stored.is_some() {
                return Ok(());
            }
        }
        self.links.push((rel, parent, child));
        Ok(())
    }

    /// Delete the stored connections of relationship `rel` whose column
    /// `col` (0 parent, 1 child) holds one of the surrogates `nodes`, in
    /// one read; returns the surrogates at their other ends.
    fn unlink_all(&mut self, rel: usize, col: usize, nodes: &[Value]) -> Result<Vec<i64>> {
        let conn_t = self.stream(&self.info.rels[rel].name)?;
        let mut ends = Vec::new();
        conn_t.scan_by_values(col, nodes, self.snap, |rid, t| {
            if self.unlinked.insert((rel, rid)) {
                ends.push(t.values[1 - col].as_int()?);
            }
            Ok(true)
        })?;
        Ok(ends)
    }

    /// Remove the stored nodes `gone`, each `(component, surrogate, rid)`
    /// and with its incoming connections deleted already, with every
    /// connection out of them: one read per relationship, over the nodes
    /// of its parent component. The children at their other ends become
    /// orphan candidates.
    fn remove_stored(&mut self, gone: &[(usize, i64, Rid)]) -> Result<()> {
        let mut fresh = gone.to_vec();
        fresh.retain(|&(c, s, rid)| self.removed.insert(s, (c, rid)).is_none());
        let info = self.info;
        for (ri, parent, ch, _) in info.edges() {
            let of_parent = fresh.iter().filter(|n| n.0 == parent);
            let nodes: Vec<Value> = of_parent.map(|n| Value::Int(n.1)).collect();
            if !nodes.is_empty() {
                let children = self.unlink_all(ri, 0, &nodes)?;
                let orphans = children.into_iter().map(|child| (ch, Node::Stored(child)));
                self.orphans.extend(orphans);
            }
        }
        fresh.iter().for_each(|n| self.unhold(Node::Stored(n.1)));
        Ok(())
    }

    /// The children node `n`'s pending connections hold become orphan
    /// candidates.
    fn unhold(&mut self, n: Node) {
        for &(rel, parent, child) in &self.links {
            if parent == n {
                let ch = self.info.comp_index(&self.info.rels[rel].children[0]);
                self.orphans.extend(ch.map(|ch| (ch, child)));
            }
        }
    }

    /// Is node `n` held by a pending connection from a live parent?
    fn held_pending(&self, n: Node) -> bool {
        self.links
            .iter()
            .any(|&(_, parent, child)| child == n && self.live(parent))
    }

    /// The stored nodes among `wave` that a stored connection not deleted
    /// still leads into: one read per relationship, of the wave's nodes of
    /// its child component that no earlier relationship holds, stopping
    /// once every one of them is held.
    fn held_stored(&self, wave: &[(usize, Node)]) -> Result<HashSet<i64>> {
        let mut held = HashSet::new();
        for (ri, _, c, _) in self.info.edges() {
            let nodes: Vec<Value> = wave
                .iter()
                .filter_map(|&(wc, n)| match n {
                    Node::Stored(s) if wc == c && !held.contains(&s) => Some(Value::Int(s)),
                    _ => None,
                })
                .collect();
            if nodes.is_empty() {
                continue;
            }
            let mut open: HashSet<&Value> = nodes.iter().collect();
            let conn_t = self.stream(&self.info.rels[ri].name)?;
            conn_t.scan_by_values(1, &nodes, self.snap, |rid, t| {
                if !self.unlinked.contains(&(ri, rid)) {
                    open.remove(&t.values[1]);
                    held.insert(t.values[1].as_int()?);
                }
                Ok(!open.is_empty())
            })?;
        }
        Ok(held)
    }

    /// Remove every non-root node no connection holds any more, cascading.
    /// Candidates are checked wave by wave, first in, first out: a wave is
    /// the queue as it stands, and the orphans its removals make form the
    /// next one, so that a node shared by several removed parents is
    /// checked after they are removed. A node a connection still holds is
    /// queued again if that connection goes. Each wave reads in batches:
    /// one [`Table::scan_by_values`] per relationship for the stored
    /// connections that still hold its nodes, one per component for the
    /// rids of the nodes it removes, and one per relationship for the
    /// connections out of them.
    fn cascade(&mut self) -> Result<()> {
        while !self.orphans.is_empty() {
            let root = self.root;
            let wave: Vec<(usize, Node)> = std::mem::take(&mut self.orphans)
                .into_iter()
                .filter(|&(c, n)| c != root && self.live(n) && !self.held_pending(n))
                .collect();
            let held = self.held_stored(&wave)?;
            let mut gone: Vec<(usize, i64)> = Vec::new();
            for (c, n) in wave {
                if !self.live(n) {
                    continue;
                }
                match n {
                    Node::Stored(s) if !held.contains(&s) => gone.push((c, s)),
                    Node::Stored(_) => {}
                    Node::New(at) => {
                        self.inserts[at] = None;
                        self.unhold(n);
                    }
                }
            }
            let mut rids: HashMap<i64, Rid> = HashMap::new();
            for c in 0..self.info.comps.len() {
                let nodes: Vec<Value> = gone
                    .iter()
                    .filter(|&&(gc, _)| gc == c)
                    .map(|&(_, s)| Value::Int(s))
                    .collect();
                if nodes.is_empty() {
                    continue;
                }
                let (node_t, want) = (self.stream(&self.info.comps[c])?, rids.len() + nodes.len());
                node_t.scan_by_values(0, &nodes, self.snap, |rid, t| {
                    rids.insert(t.values[0].as_int()?, rid);
                    Ok(rids.len() < want)
                })?;
            }
            // `held_stored` found every incoming connection deleted.
            let gone: Vec<(usize, i64, Rid)> = gone
                .into_iter()
                .filter_map(|(c, s)| rids.get(&s).map(|&rid| (c, s, rid)))
                .collect();
            self.remove_stored(&gone)?;
        }
        Ok(())
    }

    /// The edits, without the ones a removal voided; inserted nodes are
    /// renumbered densely, in the order of their `Insert` edits.
    fn finish(self) -> Vec<CoEdit> {
        let mut next = 0;
        let position: Vec<Option<usize>> = self
            .inserts
            .iter()
            .map(|i| {
                i.as_ref().map(|_| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        let node = |n: Node| match n {
            Node::Stored(s) => (!self.removed.contains_key(&s)).then_some(n),
            Node::New(at) => position[at].map(Node::New),
        };
        let mut edits: Vec<CoEdit> = Vec::new();
        edits.extend(
            self.unlinked
                .iter()
                .map(|&(rel, rid)| CoEdit::Unlink { rel, rid }),
        );
        edits.extend(
            self.removed
                .values()
                .map(|&(comp, rid)| CoEdit::Remove { comp, rid }),
        );
        for (comp, rid, node) in self.rewrites {
            let s = node.values[0].as_int().expect("surrogate column");
            if !self.removed.contains_key(&s) {
                edits.push(CoEdit::Rewrite { comp, rid, node });
            }
        }
        edits.extend(
            self.inserts
                .into_iter()
                .flatten()
                .map(|(comp, row)| CoEdit::Insert { comp, row }),
        );
        for &(rel, parent, child) in &self.links {
            if let (Some(parent), Some(child)) = (node(parent), node(child)) {
                edits.push(CoEdit::Link { rel, parent, child });
            }
        }
        edits
    }
}

/// Write a commit's in-place edits as the committing transaction.
fn apply_in_place(
    p: &mut Pass,
    plan: &MaintPlan,
    info: &XnfInfo,
    edits: Vec<CoEdit>,
    counters: &mut MaintCounters,
) -> Result<()> {
    let mv = expect_matview(p.db, &plan.name)?;
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
    let mut inserted = 0;
    for e in &edits {
        match e {
            CoEdit::Unlink { rel, rid } => {
                p.delete(&stream(&info.rels[*rel].name)?, *rid)?;
                counters.links_edited += 1;
            }
            CoEdit::Remove { comp, rid } => {
                p.delete(&stream(&info.comps[*comp])?, *rid)?;
                counters.nodes_rewritten += 1;
            }
            CoEdit::Rewrite { comp, rid, node } => {
                p.update(&stream(&info.comps[*comp])?, *rid, node)?;
                counters.nodes_rewritten += 1;
            }
            CoEdit::Insert { comp, row } => {
                let mut values = Vec::with_capacity(row.len() + 1);
                values.push(Value::Int(surrogate(Node::New(inserted))));
                values.extend(row.iter().cloned());
                p.insert(&stream(&info.comps[*comp])?, &Tuple::new(values))?;
                inserted += 1;
                counters.nodes_rewritten += 1;
            }
            CoEdit::Link { rel, parent, child } => {
                let pair = vec![
                    Value::Int(surrogate(*parent)),
                    Value::Int(surrogate(*child)),
                ];
                p.insert(&stream(&info.rels[*rel].name)?, &Tuple::new(pair))?;
                counters.links_edited += 1;
            }
        }
    }
    Ok(())
}

/// One component's selection over its base row ([`Database::row_filter`]).
fn component_filter(db: &Database, info: &XnfInfo, comp: usize) -> Result<Vec<PhysExpr>> {
    let name = &info.comps[comp];
    let def = info.flat.defs.iter().find_map(|d| match d {
        XnfDef::Table {
            name: n, select, ..
        } if n.eq_ignore_ascii_case(name) => Some(select),
        _ => None,
    });
    match def {
        Some(select) => db.row_filter(select),
        None => Ok(Vec::new()),
    }
}

/// The first stored row of `t` with `col = v` that satisfies `pred`, read
/// under `snap`. The probe stops at the page of its first hit, so it costs
/// what it finds, not the key's whole fan-in.
fn first_match(
    t: &Table,
    col: usize,
    v: &Value,
    snap: &Snapshot,
    mut pred: impl FnMut(Rid, &Tuple) -> xnf_storage::Result<bool>,
) -> Result<Option<(Rid, Tuple)>> {
    let mut hit = None;
    t.scan_by_values(col, std::slice::from_ref(v), snap, |rid, tuple| {
        if pred(rid, &tuple)? {
            hit = Some((rid, tuple));
            return Ok(false);
        }
        Ok(true)
    })?;
    Ok(hit)
}

/// NULL-aware row equality (NULL equals NULL here: identity, not SQL
/// comparison — matching the executor's duplicate elimination).
fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.total_cmp(y).is_eq())
}

/// Remove one stored row equal to `row`, as the pass sees it, found
/// through its first column. Returns whether there was one.
fn remove_row_by_value(p: &mut Pass, backing: &Arc<Table>, row: &Row) -> Result<bool> {
    let mut target = None;
    let find = |rid, t: Tuple| {
        if rows_eq(&t.values, row) {
            target = Some(rid);
            return Ok(false);
        }
        Ok(true)
    };
    match row.first() {
        // `scan_by_values` matches with SQL equality, which NULL fails.
        Some(v) if !v.is_null() => {
            backing.scan_by_values(0, std::slice::from_ref(v), &p.snap, find)?
        }
        _ => backing.for_each_visible(&p.snap, find)?,
    }
    match target {
        Some(rid) => p.delete(backing, rid).map(|()| true),
        None => Ok(false),
    }
}

// ---------------------------------------------------------------------------
// serving: workspace loads from stored streams
// ---------------------------------------------------------------------------

/// Load a materialized CO view's workspace straight from its backing
/// streams as `snap` sees them (no extraction pipeline): the whole view,
/// or with `point_key` the subtree(s) rooted at that key value, in one
/// pass over the stored streams (see [`point_rows`]).
pub(crate) fn fetch_stored(
    db: &Database,
    name: &str,
    point_key: Option<&Value>,
    snap: &Snapshot,
) -> Result<CoCache> {
    let (plan, result) = load_streams(db, name, point_key, snap)?;
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

/// Read stored streams into a [`QueryResult`]-shaped value under `snap`,
/// translating surrogates to stream positions. With `point_key`, only the
/// subtree(s) rooted at that key value are read (requires a keyed view),
/// in one pass: see [`point_rows`].
fn load_streams(
    db: &Database,
    name: &str,
    point_key: Option<&Value>,
    snap: &Snapshot,
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

    let (nodes, conns): StoredRows = match point_key {
        Some(k) => {
            let key = info.key.as_ref().ok_or_else(|| {
                XnfError::Api(format!(
                    "'{name}' does not support point fetches (no root partition key)"
                ))
            })?;
            point_rows(&mv, info, key, k, snap)?
        }
        None => {
            let all = |name: &str| -> Result<Vec<Tuple>> {
                let mut rows = Vec::new();
                stream(name)?.for_each_visible(snap, |_, t| {
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
