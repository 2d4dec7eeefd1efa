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
//! Write-back has no row search or row writes of its own: each pending
//! change becomes one keyed DML statement — `UPDATE`, `INSERT` or `DELETE`
//! of the component's base row, an `UPDATE` of the child's foreign key, or
//! an `INSERT` / `DELETE` of a mapping row — that [`crate::Session::write_back`]
//! runs through the plan cache like any other statement. The cache has no
//! RIDs, so a statement finds its row by optimistic match over every mapped
//! column of the cached image (`c = ?`, or `c IS NULL` for a NULL), a column
//! with a unique one-column index first so the planner probes that index.
//! Each statement must affect exactly one row: none is a conflict (the base
//! row changed or vanished), several is an ambiguity (a keyless component
//! with duplicate rows); either fails the write-back.

use std::collections::HashMap;
use std::fmt::Write;

use xnf_qgm::inline_xnf_views;
use xnf_sql::{BinOp, Expr, SelectItem, TableRef, XnfDef, XnfQuery, XnfRelationship};
use xnf_storage::{Table, Value};

use crate::cache::{Change, Workspace};
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

    /// `(parent column, child column)`: the cache columns the relationship's
    /// predicate equates, through a connect table or not. `None` for a
    /// general relationship.
    pub fn link_cols(&self) -> Option<(usize, usize)> {
        match self {
            RelMeta::ForeignKey {
                parent_col,
                child_col,
                ..
            }
            | RelMeta::ConnectTable {
                parent_col,
                child_col,
                ..
            } => Some((*parent_col, *child_col)),
            RelMeta::General { .. } => None,
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

/// One pending change as the DML statement that applies it to base data.
pub(crate) struct Edit {
    /// The table the statement writes.
    table: String,
    /// Statement text, with a `?` for each of `params`.
    pub(crate) sql: String,
    pub(crate) params: Vec<Value>,
}

impl Edit {
    fn new(t: &Table, sql: String, values: Vec<(usize, Value)>) -> Edit {
        let params = values.into_iter().map(|(_, v)| v).collect();
        let table = t.name.clone();
        Edit { table, sql, params }
    }

    /// `UPDATE t SET c = ?, … WHERE …`: the row matching `image` takes `sets`.
    fn update(t: &Table, sets: Vec<(usize, Value)>, image: Vec<(usize, Value)>) -> Edit {
        let list: Vec<String> = (sets.iter())
            .map(|(c, _)| format!("{} = ?", t.schema.column(*c).name))
            .collect();
        let sql = format!("UPDATE {} SET {}", t.name, list.join(", "));
        Edit::new(t, sql, sets).matching(t, image)
    }

    /// `INSERT INTO t (c, …) VALUES (?, …)` of `row`'s columns.
    fn insert(t: &Table, row: Vec<(usize, Value)>) -> Edit {
        let names: Vec<&str> = (row.iter())
            .map(|(c, _)| t.schema.column(*c).name.as_str())
            .collect();
        let marks = vec!["?"; row.len()].join(", ");
        let sql = format!(
            "INSERT INTO {} ({}) VALUES ({marks})",
            t.name,
            names.join(", ")
        );
        Edit::new(t, sql, row)
    }

    /// `DELETE FROM t WHERE …` of the row matching `image`.
    fn delete(t: &Table, image: Vec<(usize, Value)>) -> Edit {
        Edit::new(t, format!("DELETE FROM {}", t.name), Vec::new()).matching(t, image)
    }

    /// Append the `WHERE` clause matching `image`: `c = ?` per value, `c IS
    /// NULL` per NULL, and a column carrying a unique one-column index
    /// first, since the planner probes the first indexed `c = ?`.
    fn matching(mut self, t: &Table, mut image: Vec<(usize, Value)>) -> Edit {
        let unique: Vec<usize> = (t.index_defs().into_iter())
            .filter(|d| d.unique && d.columns.len() == 1)
            .map(|d| d.columns[0])
            .collect();
        image.sort_by_key(|(c, v)| v.is_null() || !unique.contains(c));
        for (i, (c, v)) in image.into_iter().enumerate() {
            let name = &t.schema.column(c).name;
            let glue = if i == 0 { " WHERE" } else { " AND" };
            if v.is_null() {
                let _ = write!(self.sql, "{glue} {name} IS NULL");
            } else {
                let _ = write!(self.sql, "{glue} {name} = ?");
                self.params.push(v);
            }
        }
        self
    }

    /// The edit ran and touched `affected` rows: exactly one is required.
    pub(crate) fn check(&self, affected: usize) -> Result<()> {
        match affected {
            1 => Ok(()),
            0 => Err(XnfError::Api(format!(
                "write-back conflict: no row in '{}' matches the cached image",
                self.table
            ))),
            n => Err(XnfError::Api(format!(
                "write-back ambiguity: {n} rows in '{}' match the cached image",
                self.table
            ))),
        }
    }
}

/// The workspace's pending changes as edits, in log order. Refuses a
/// change to a component or relationship that is not updatable before any
/// edit runs.
pub(crate) fn edits(db: &Database, ws: &Workspace, schema: &CoSchema) -> Result<Vec<Edit>> {
    (ws.pending_changes().iter())
        .map(|change| edit(db, ws, schema, change))
        .collect()
}

fn edit(db: &Database, ws: &Workspace, schema: &CoSchema, change: &Change) -> Result<Edit> {
    let base = |comp: usize| -> Result<(&BaseMap, std::sync::Arc<Table>)> {
        let base = updatable(&schema.components[comp])?;
        Ok((base, db.catalog().table(&base.table)?))
    };
    // A cached row as (base column, value) pairs.
    let image = |base: &BaseMap, row: &[Value]| -> Vec<(usize, Value)> {
        (base.columns.iter().zip(row))
            .map(|(&c, v)| (c, v.clone()))
            .collect()
    };
    Ok(match change {
        Change::Update { comp, old, new, .. } => {
            let (base, t) = base(*comp)?;
            Edit::update(&t, image(base, new), image(base, old))
        }
        Change::Insert { comp, id } => {
            let (base, t) = base(*comp)?;
            Edit::insert(&t, image(base, ws.components[*comp].row(*id)))
        }
        Change::Delete { comp, old, .. } => {
            let (base, t) = base(*comp)?;
            Edit::delete(&t, image(base, old))
        }
        Change::Connect {
            rel, parent, child, ..
        }
        | Change::Disconnect {
            rel, parent, child, ..
        } => {
            let connect = matches!(change, Change::Connect { .. });
            let r = &ws.relationships[*rel];
            match &schema.relationships[*rel] {
                RelMeta::ForeignKey {
                    parent_col,
                    child_col,
                    ..
                } => {
                    // Set the child's FK column to the parent key (or NULL).
                    // The cached child row mirrors its base row: a connect
                    // or disconnect rewrites its FK column in the cache too.
                    let (base, t) = base(r.children[0])?;
                    let key = match connect {
                        true => parent[*parent_col].clone(),
                        false => Value::Null,
                    };
                    let fk = vec![(base.columns[*child_col], key)];
                    Edit::update(&t, fk, image(base, child))
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
                    let pair = vec![
                        (*m_parent_col, parent[*parent_col].clone()),
                        (*m_child_col, child[*child_col].clone()),
                    ];
                    match connect {
                        true => Edit::insert(&t, pair),
                        false => Edit::delete(&t, pair),
                    }
                }
                RelMeta::General { name } => {
                    return Err(XnfError::Api(format!(
                    "relationship '{name}' is not updatable (neither FK- nor connect-table-based)"
                )))
                }
            }
        }
    })
}

fn updatable(meta: &CompMeta) -> Result<&BaseMap> {
    meta.base.as_ref().ok_or_else(|| {
        XnfError::Api(format!(
            "component '{}' is not updatable (not a simple single-table view)",
            meta.name
        ))
    })
}
