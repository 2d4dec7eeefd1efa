//! Updatability analysis and write-back (Sect. 2 "CO update operators").
//!
//! Node updates are view updates: a component defined by a *simple* view
//! (selection/projection of one base table) maps its changes straight back
//! to that table. Relationships defined "based on simple foreign keys or
//! connect tables" support connect/disconnect by updating the foreign key
//! or inserting/deleting mapping-table rows. Richer definitions (joins,
//! aggregation, arbitrary predicates) are readable but not updatable —
//! precisely the paper's rule.
//!
//! Identification of base rows uses optimistic match-by-value over all
//! mapped columns (the cache has no RIDs); a vanished base row surfaces as
//! a conflict error and aborts the write-back transaction.

use std::collections::HashMap;
use std::sync::Arc;

use xnf_qgm::inline_xnf_views;
use xnf_sql::{BinOp, Expr, SelectItem, TableRef, XnfDef, XnfQuery, XnfRelationship};
use xnf_storage::{Rid, Table, Tuple, Value};

use crate::cache::{Change, TupleId, Workspace};
use crate::db::Database;
use crate::error::{Result, XnfError};

/// How a component maps back to base data.
#[derive(Debug, Clone)]
pub struct CompMeta {
    pub name: String,
    /// `Some` iff the component is a simple (updatable) view.
    pub base: Option<BaseMap>,
}

/// Mapping of an updatable component onto its base table.
#[derive(Debug, Clone)]
pub struct BaseMap {
    pub table: String,
    /// For each cache column: the base-table column ordinal.
    pub columns: Vec<usize>,
    /// For each cache column: its name, as the QGM heads the component
    /// (the alias, else the base column name).
    pub names: Vec<String>,
}

/// How a relationship maps back to base data.
#[derive(Debug, Clone)]
pub enum RelMeta {
    /// Predicate `parent.key = child.fk`: connect/disconnect update the
    /// child's foreign-key column.
    ForeignKey {
        name: String,
        /// Cache column of the parent holding the key value.
        parent_col: usize,
        /// Cache column of the child holding the FK (must be base-mapped).
        child_col: usize,
    },
    /// `USING m WHERE parent.a = m.x AND m.y = child.b`: connect inserts a
    /// mapping row, disconnect deletes it.
    ConnectTable {
        name: String,
        table: String,
        parent_col: usize,
        child_col: usize,
        /// Mapping-table column ordinals for the parent/child sides.
        m_parent_col: usize,
        m_child_col: usize,
    },
    /// Anything richer: readable, not updatable.
    General { name: String },
}

impl RelMeta {
    pub fn name(&self) -> &str {
        match self {
            RelMeta::ForeignKey { name, .. }
            | RelMeta::ConnectTable { name, .. }
            | RelMeta::General { name } => name,
        }
    }
}

/// Updatability metadata for a cached CO.
#[derive(Debug, Clone, Default)]
pub struct CoSchema {
    pub components: Vec<CompMeta>,
    pub relationships: Vec<RelMeta>,
}

impl CoSchema {
    pub fn component(&self, name: &str) -> Option<&CompMeta> {
        self.components
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn relationship(&self, name: &str) -> Option<&RelMeta> {
        self.relationships
            .iter()
            .find(|r| r.name().eq_ignore_ascii_case(name))
    }
}

/// Derive updatability metadata from an XNF query against a database's
/// catalog, inlining referenced XNF views.
pub fn derive_co_schema(db: &Database, q: &XnfQuery) -> Result<CoSchema> {
    let q = inline_xnf_views(db.catalog(), q)?;
    let mut schema = CoSchema::default();
    let mut comp_by_name: HashMap<String, usize> = HashMap::new();
    for def in &q.defs {
        match def {
            XnfDef::Table { name, select, .. } => {
                let base = analyze_simple_view(db, select);
                comp_by_name.insert(name.to_ascii_lowercase(), schema.components.len());
                schema.components.push(CompMeta {
                    name: name.clone(),
                    base,
                });
            }
            XnfDef::Relationship(rel) => {
                schema
                    .relationships
                    .push(analyze_relationship(db, rel, &schema, &comp_by_name));
            }
            XnfDef::ViewRef { .. } => unreachable!("inlined"),
        }
    }
    Ok(schema)
}

/// A component is updatable iff it is `SELECT [*|cols] FROM one_base_table
/// [WHERE ...]` with no joins, grouping, distinct or unions. (Also reused
/// by materialized-view maintenance to detect the direct-apply strategy.)
pub(crate) fn analyze_simple_view(db: &Database, select: &xnf_sql::Select) -> Option<BaseMap> {
    if select.from.len() != 1
        || !select.joins.is_empty()
        || !select.group_by.is_empty()
        || select.having.is_some()
        || !select.unions.is_empty()
        || select.distinct
    {
        return None;
    }
    let TableRef::Named { name, .. } = &select.from[0] else {
        return None;
    };
    // Views (including materialized ones, whose names resolve to backing
    // tables through the catalog fallback) are not direct update targets.
    if db.catalog().view(name).is_some() {
        return None;
    }
    let table = db.catalog().table(name).ok()?;
    let mut columns = Vec::new();
    let mut names = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                columns.extend(0..table.schema.len());
                names.extend(table.schema.columns().iter().map(|c| c.name.clone()));
            }
            SelectItem::Expr {
                expr: Expr::Column { name: c, .. },
                alias,
            } => {
                columns.push(table.schema.index_of(c)?);
                names.push(alias.clone().unwrap_or_else(|| c.clone()));
            }
            _ => return None,
        }
    }
    Some(BaseMap {
        table: table.name.clone(),
        columns,
        names,
    })
}

/// Classify a relationship as FK-based, connect-table-based or general.
fn analyze_relationship(
    db: &Database,
    rel: &XnfRelationship,
    schema: &CoSchema,
    comp_by_name: &HashMap<String, usize>,
) -> RelMeta {
    let general = RelMeta::General {
        name: rel.name.clone(),
    };
    if rel.children.len() != 1 {
        return general;
    }
    let child = &rel.children[0];
    let conjuncts = rel.predicate.conjuncts();

    // Column resolver: qualifier must be parent/child/using-alias.
    let side_of = |e: &Expr| -> Option<(char, String)> {
        if let Expr::Column {
            qualifier: Some(q),
            name,
        } = e
        {
            if q.eq_ignore_ascii_case(&rel.parent) {
                return Some(('p', name.clone()));
            }
            if q.eq_ignore_ascii_case(child) {
                return Some(('c', name.clone()));
            }
            if rel
                .using
                .first()
                .map(|(t, a)| q.eq_ignore_ascii_case(a.as_deref().unwrap_or(t)))
                .unwrap_or(false)
            {
                return Some(('m', name.clone()));
            }
        }
        None
    };
    let eq_sides = |e: &Expr| -> Option<((char, String), (char, String))> {
        if let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = e
        {
            Some((side_of(left)?, side_of(right)?))
        } else {
            None
        }
    };

    // Cache column of a base-mapped component, resolved against its output
    // names exactly as the QGM resolves `component.column`.
    let comp_col = |comp: &str, col: &str| -> Option<usize> {
        let idx = comp_by_name.get(&comp.to_ascii_lowercase())?;
        let base = schema.components[*idx].base.as_ref()?;
        base.names.iter().position(|n| n.eq_ignore_ascii_case(col))
    };

    if rel.using.is_empty() && conjuncts.len() == 1 {
        // FK pattern: parent.key = child.fk (either side order).
        if let Some((a, b)) = eq_sides(conjuncts[0]) {
            let (p, c) = match (a.0, b.0) {
                ('p', 'c') => (a.1, b.1),
                ('c', 'p') => (b.1, a.1),
                _ => return general,
            };
            if let (Some(pc), Some(cc)) = (comp_col(&rel.parent, &p), comp_col(child, &c)) {
                return RelMeta::ForeignKey {
                    name: rel.name.clone(),
                    parent_col: pc,
                    child_col: cc,
                };
            }
        }
        return general;
    }
    if rel.using.len() == 1 && conjuncts.len() == 2 {
        // Connect-table pattern: parent.a = m.x AND m.y = child.b.
        let (m_table, _) = &rel.using[0];
        let Some(table) = db.catalog().table(m_table).ok() else {
            return general;
        };
        let mut parent_side: Option<(String, String)> = None; // (parent col, m col)
        let mut child_side: Option<(String, String)> = None;
        for cj in &conjuncts {
            if let Some((a, b)) = eq_sides(cj) {
                match (a.0, b.0) {
                    ('p', 'm') => parent_side = Some((a.1, b.1)),
                    ('m', 'p') => parent_side = Some((b.1, a.1)),
                    ('c', 'm') => child_side = Some((a.1, b.1)),
                    ('m', 'c') => child_side = Some((b.1, a.1)),
                    _ => return general,
                }
            } else {
                return general;
            }
        }
        if let (Some((pcol, mx)), Some((ccol, my))) = (parent_side, child_side) {
            if let (Some(pc), Some(cc), Some(mp), Some(mc)) = (
                comp_col(&rel.parent, &pcol),
                comp_col(child, &ccol),
                table.schema.index_of(&mx),
                table.schema.index_of(&my),
            ) {
                return RelMeta::ConnectTable {
                    name: rel.name.clone(),
                    table: table.name.clone(),
                    parent_col: pc,
                    child_col: cc,
                    m_parent_col: mp,
                    m_child_col: mc,
                };
            }
        }
    }
    general
}

/// Apply the workspace's pending changes back to the database inside a
/// session's transaction scope (the body of [`crate::Session::write_back`]).
/// With an open session transaction the changes join it (isolated until
/// the session commits, undone by its rollback); otherwise a dedicated
/// transaction wraps the
/// write-back and commits — its deltas flowing through commit-time
/// materialized-view maintenance — on success, or rolls back cleanly on
/// conflict/error.
pub(crate) fn write_back_scoped(
    db: &Database,
    scope: crate::db::Scope<'_>,
    ws: &mut Workspace,
    schema: &CoSchema,
) -> Result<usize> {
    let changes = ws.take_changes();
    let mut scope = crate::db::WriteScope::open(db, scope);
    let result = apply_changes(db, &mut scope, ws, schema, &changes);
    match result {
        Ok(n) => {
            scope.finish()?;
            Ok(n)
        }
        Err(e) => {
            // A write-back that owns its transaction aborts it wholesale
            // (write conflicts included); inside a session transaction the
            // error propagates and the session decides.
            scope.abort_if_auto()?;
            // Restore the log so the caller may retry.
            ws.changes = changes;
            Err(e)
        }
    }
}

fn apply_changes(
    db: &Database,
    scope: &mut crate::db::WriteScope<'_>,
    ws: &Workspace,
    schema: &CoSchema,
    changes: &[Change],
) -> Result<usize> {
    let mut ops = 0;
    for change in changes {
        match change {
            Change::Update {
                comp,
                id: _,
                old,
                new,
            } => {
                let meta = &schema.components[*comp];
                let base = updatable(meta)?;
                update_base_row(db, scope, base, old, new)?;
                ops += 1;
            }
            Change::Insert { comp, id } => {
                let meta = &schema.components[*comp];
                let base = updatable(meta)?;
                let row = ws.components[*comp].row(*id);
                insert_base_row(db, scope, base, row)?;
                ops += 1;
            }
            Change::Delete { comp, id: _, old } => {
                let meta = &schema.components[*comp];
                let base = updatable(meta)?;
                delete_base_row(db, scope, base, old)?;
                ops += 1;
            }
            Change::Connect { rel, conn } => {
                apply_connect(db, scope, ws, schema, *rel, conn, true)?;
                ops += 1;
            }
            Change::Disconnect { rel, conn } => {
                apply_connect(db, scope, ws, schema, *rel, conn, false)?;
                ops += 1;
            }
        }
    }
    Ok(ops)
}

fn updatable(meta: &CompMeta) -> Result<&BaseMap> {
    meta.base.as_ref().ok_or_else(|| {
        XnfError::Api(format!(
            "component '{}' is not updatable (not a simple single-table view)",
            meta.name
        ))
    })
}

/// The first row of base table `table` whose `columns` equal `row`, but
/// for the positions in `skip`, with the table, read under the writing
/// scope's snapshot (so a write-back sees its own earlier changes and is
/// isolated from concurrent transactions). FK connect/disconnect skips the
/// FK column, whose cached value is stale by design (the cache records
/// re-wiring in the adjacency, not in the row image).
fn find_row(
    db: &Database,
    scope: &crate::db::WriteScope<'_>,
    table: &str,
    columns: &[usize],
    row: &[Value],
    skip: &[usize],
) -> Result<(Arc<Table>, Rid, Tuple)> {
    let t = db.catalog().table(table)?;
    let mut found = None;
    t.for_each_visible(&scope.snapshot(), |rid, tuple| {
        let matches = columns
            .iter()
            .zip(row)
            .enumerate()
            .all(|(i, (&b, v))| skip.contains(&i) || tuple.values[b].total_cmp(v).is_eq());
        if matches {
            found = Some((rid, tuple));
        }
        Ok(!matches)
    })?;
    let (rid, tuple) = found.ok_or_else(|| {
        XnfError::Api(format!(
            "write-back conflict: no row in '{table}' matches the cached image"
        ))
    })?;
    Ok((t, rid, tuple))
}

fn update_base_row(
    db: &Database,
    scope: &mut crate::db::WriteScope<'_>,
    base: &BaseMap,
    old: &[Value],
    new: &[Value],
) -> Result<()> {
    let (t, rid, mut tuple) = find_row(db, scope, &base.table, &base.columns, old, &[])?;
    for (&b, v) in base.columns.iter().zip(new) {
        tuple.values[b] = v.clone();
    }
    let (old_tuple, new_rid) = t.update_txn(rid, &tuple, scope.xid())?;
    scope.log_update(&t, rid, new_rid, old_tuple, &tuple);
    Ok(())
}

fn insert_base_row(
    db: &Database,
    scope: &mut crate::db::WriteScope<'_>,
    base: &BaseMap,
    row: &[Value],
) -> Result<()> {
    let t = db.catalog().table(&base.table)?;
    let mut values = vec![Value::Null; t.schema.len()];
    for (&b, v) in base.columns.iter().zip(row) {
        values[b] = v.clone();
    }
    let tuple = Tuple::new(values);
    let rid = t.insert_txn(&tuple, scope.xid())?;
    scope.log_insert(&t, rid, &tuple);
    Ok(())
}

fn delete_base_row(
    db: &Database,
    scope: &mut crate::db::WriteScope<'_>,
    base: &BaseMap,
    row: &[Value],
) -> Result<()> {
    let (t, rid, _) = find_row(db, scope, &base.table, &base.columns, row, &[])?;
    let old = t.mark_delete_txn(rid, scope.xid())?;
    scope.log_delete(&t, rid, old);
    Ok(())
}

fn apply_connect(
    db: &Database,
    scope: &mut crate::db::WriteScope<'_>,
    ws: &Workspace,
    schema: &CoSchema,
    rel: usize,
    conn: &[TupleId],
    connect: bool,
) -> Result<()> {
    let meta = &schema.relationships[rel];
    let r = &ws.relationships[rel];
    let parent_row = ws.components[r.parent].row(conn[0]);
    let child_row = ws.components[r.children[0]].row(conn[1]);
    match meta {
        RelMeta::ForeignKey {
            parent_col,
            child_col,
            ..
        } => {
            // Update the child's FK column to the parent key (or NULL). The
            // cached FK value may be stale (a preceding disconnect already
            // rewrote it in the base), so match ignoring the FK column.
            let child_meta = &schema.components[r.children[0]];
            let base = updatable(child_meta)?;
            let skip = [*child_col];
            let (t, rid, mut tuple) =
                find_row(db, scope, &base.table, &base.columns, child_row, &skip)?;
            tuple.values[base.columns[*child_col]] = if connect {
                parent_row[*parent_col].clone()
            } else {
                Value::Null
            };
            let (old_tuple, new_rid) = t.update_txn(rid, &tuple, scope.xid())?;
            scope.log_update(&t, rid, new_rid, old_tuple, &tuple);
            Ok(())
        }
        RelMeta::ConnectTable {
            table,
            parent_col,
            child_col,
            m_parent_col,
            m_child_col,
            ..
        } => {
            let t = db.catalog().table(table)?;
            if connect {
                let mut values = vec![Value::Null; t.schema.len()];
                values[*m_parent_col] = parent_row[*parent_col].clone();
                values[*m_child_col] = child_row[*child_col].clone();
                let tuple = Tuple::new(values);
                let rid = t.insert_txn(&tuple, scope.xid())?;
                scope.log_insert(&t, rid, &tuple);
            } else {
                // Delete one matching mapping row.
                let pair = [
                    parent_row[*parent_col].clone(),
                    child_row[*child_col].clone(),
                ];
                let columns = [*m_parent_col, *m_child_col];
                let (_, rid, _) = find_row(db, scope, table, &columns, &pair, &[])?;
                let old = t.mark_delete_txn(rid, scope.xid())?;
                scope.log_delete(&t, rid, old);
            }
            Ok(())
        }
        RelMeta::General { name } => Err(XnfError::Api(format!(
            "relationship '{name}' is not updatable (neither FK- nor connect-table-based)"
        ))),
    }
}
