//! The XNF cache: a client-side main-memory workspace holding a composite
//! object (Sect. 5, Fig. 7).
//!
//! The workspace is constructed from the heterogeneous output tuples of an
//! XNF query "by converting connections into pointers which allow traversing
//! the structure in any direction" — here: per-relationship adjacency
//! vectors (`forward` / `backward`), the swizzled form of the connection
//! tuples. Cursors (Sect. 5.2) come in two kinds: *independent* (all tuples
//! of a component) and *dependent* (children/parents of a tuple along a
//! relationship). Updates are recorded in a change log for write-back
//! (see [`crate::writeback`]).

use std::collections::HashMap;

use xnf_exec::{QueryResult, Row};
use xnf_qgm::OutputKind;
use xnf_storage::Value;

use crate::error::{Result, XnfError};

/// Identifier of a tuple within a component (its rowid in the CO).
pub type TupleId = u32;

/// One component table of a cached CO.
#[derive(Debug, Clone)]
pub struct Component {
    pub name: String,
    pub columns: Vec<String>,
    pub(crate) rows: Vec<Row>,
    /// Tombstones (client-side deletes).
    pub(crate) deleted: Vec<bool>,
    /// Rows at index >= this were inserted client-side since the fetch or
    /// the last write-back (exposed so host mappings can distinguish
    /// fetched from locally created tuples).
    pub base_len: usize,
}

impl Component {
    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.rows.len() - self.deleted.iter().filter(|&&d| d).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw row access (includes deleted slots; use cursors for iteration).
    pub fn row(&self, id: TupleId) -> &Row {
        &self.rows[id as usize]
    }

    pub fn is_deleted(&self, id: TupleId) -> bool {
        self.deleted[id as usize]
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }
}

/// A relationship of a cached CO with swizzled adjacency.
#[derive(Debug, Clone)]
pub struct Relationship {
    pub name: String,
    pub role: String,
    /// Component index of the parent.
    pub parent: usize,
    /// Component indexes of the children (n-ary relationships have several).
    pub children: Vec<usize>,
    /// Connection instances: `[parent_id, child_ids...]`.
    pub(crate) connections: Vec<Vec<TupleId>>,
    /// `forward[c][parent_id]` = child ids of child slot `c`.
    pub(crate) forward: Vec<Vec<Vec<TupleId>>>,
    /// `backward[c][child_id]` = parent ids.
    pub(crate) backward: Vec<Vec<Vec<TupleId>>>,
}

impl Relationship {
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Connection instances as `[parent_id, child_ids...]` tuples.
    pub fn connections(&self) -> &[Vec<TupleId>] {
        &self.connections
    }

    /// Whether tuple `id` has a connection as the parent (`child_side`
    /// false) or as the first child (`child_side` true).
    pub(crate) fn is_connected(&self, id: TupleId, child_side: bool) -> bool {
        let adj = match child_side {
            true => &self.backward[0],
            false => &self.forward[0],
        };
        adj.get(id as usize).is_some_and(|v| !v.is_empty())
    }
}

/// A cached composite object.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    pub components: Vec<Component>,
    pub relationships: Vec<Relationship>,
    pub(crate) comp_by_name: HashMap<String, usize>,
    pub(crate) rel_by_name: HashMap<String, usize>,
    pub(crate) changes: Vec<Change>,
}

/// One logged client-side change (for write-back). Each carries the row
/// images it needs as they were when the change was made, so the log
/// replays in order against the base tables. A row inserted in the
/// workspace is written once, at its final image: later updates of it, and
/// connects and disconnects that rewrite its foreign key, log nothing.
#[derive(Debug, Clone)]
pub enum Change {
    Update {
        comp: usize,
        id: TupleId,
        old: Row,
        new: Row,
    },
    Insert {
        comp: usize,
        id: TupleId,
    },
    Delete {
        comp: usize,
        id: TupleId,
        old: Row,
    },
    Connect {
        rel: usize,
        conn: Vec<TupleId>,
        parent: Row,
        child: Row,
    },
    Disconnect {
        rel: usize,
        conn: Vec<TupleId>,
        parent: Row,
        child: Row,
    },
}

impl Workspace {
    /// Build a workspace from the heterogeneous stream set of an XNF query:
    /// node streams become components, connection streams are swizzled into
    /// adjacency pointers.
    pub fn from_result(result: &QueryResult) -> Result<Workspace> {
        let mut ws = Workspace::default();
        // Pass 1: components.
        for s in &result.streams {
            match &s.kind {
                OutputKind::Node | OutputKind::Table => {
                    let idx = ws.components.len();
                    ws.comp_by_name.insert(s.name.to_ascii_lowercase(), idx);
                    ws.components.push(Component {
                        name: s.name.clone(),
                        columns: s.columns.clone(),
                        rows: s.rows.clone(),
                        deleted: vec![false; s.rows.len()],
                        base_len: s.rows.len(),
                    });
                }
                OutputKind::Connection { .. } => {}
            }
        }
        // Pass 2: relationships (requires components in place).
        for s in &result.streams {
            if let OutputKind::Connection {
                relationship,
                parent,
                children,
                role,
            } = &s.kind
            {
                let parent_idx = *ws
                    .comp_by_name
                    .get(&parent.to_ascii_lowercase())
                    .ok_or_else(|| XnfError::Api(format!("connection stream '{relationship}' references missing component '{parent}'")))?;
                let mut child_idxs = Vec::with_capacity(children.len());
                for c in children {
                    child_idxs.push(*ws.comp_by_name.get(&c.to_ascii_lowercase()).ok_or_else(
                        || {
                            XnfError::Api(format!(
                                "connection stream '{relationship}' references missing component '{c}'"
                            ))
                        },
                    )?);
                }
                let connections: Vec<Vec<TupleId>> = s
                    .rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|v| v.as_int().map(|i| i as TupleId).map_err(XnfError::from))
                            .collect::<Result<Vec<TupleId>>>()
                    })
                    .collect::<Result<_>>()?;
                let idx = ws.relationships.len();
                ws.rel_by_name
                    .insert(relationship.to_ascii_lowercase(), idx);
                let mut rel = Relationship {
                    name: relationship.clone(),
                    role: role.clone(),
                    parent: parent_idx,
                    children: child_idxs,
                    connections,
                    forward: Vec::new(),
                    backward: Vec::new(),
                };
                swizzle(&mut rel, &ws.components);
                ws.relationships.push(rel);
            }
        }
        Ok(ws)
    }

    // -- lookup -------------------------------------------------------

    pub fn component(&self, name: &str) -> Result<&Component> {
        self.comp_by_name
            .get(&name.to_ascii_lowercase())
            .map(|&i| &self.components[i])
            .ok_or_else(|| XnfError::Api(format!("no component '{name}' in cache")))
    }

    pub fn component_index(&self, name: &str) -> Result<usize> {
        self.comp_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| XnfError::Api(format!("no component '{name}' in cache")))
    }

    pub fn relationship(&self, name: &str) -> Result<&Relationship> {
        self.rel_by_name
            .get(&name.to_ascii_lowercase())
            .map(|&i| &self.relationships[i])
            .ok_or_else(|| XnfError::Api(format!("no relationship '{name}' in cache")))
    }

    pub fn relationship_index(&self, name: &str) -> Result<usize> {
        self.rel_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| XnfError::Api(format!("no relationship '{name}' in cache")))
    }

    /// Total number of live tuples across components.
    pub fn tuple_count(&self) -> usize {
        self.components.iter().map(|c| c.len()).sum()
    }

    /// Total number of connections across relationships.
    pub fn connection_count(&self) -> usize {
        self.relationships.iter().map(|r| r.connections.len()).sum()
    }

    // -- cursors --------------------------------------------------------

    /// Independent cursor over a component's live tuples.
    pub fn independent(&self, component: &str) -> Result<IndependentCursor<'_>> {
        let comp = self.component_index(component)?;
        Ok(IndependentCursor {
            ws: self,
            comp,
            pos: 0,
        })
    }

    /// Dependent cursor: children of `parent_id` along `relationship`
    /// (child slot 0 for binary relationships).
    pub fn children(&self, relationship: &str, parent_id: TupleId) -> Result<DependentCursor<'_>> {
        self.children_slot(relationship, parent_id, 0)
    }

    /// Children in a specific child slot of an n-ary relationship.
    pub fn children_slot(
        &self,
        relationship: &str,
        parent_id: TupleId,
        slot: usize,
    ) -> Result<DependentCursor<'_>> {
        let rel = self.relationship_index(relationship)?;
        let r = &self.relationships[rel];
        if slot >= r.children.len() {
            return Err(XnfError::Api(format!(
                "relationship '{relationship}' has {} child slots",
                r.children.len()
            )));
        }
        let ids: &[TupleId] = r
            .forward
            .get(slot)
            .and_then(|f| f.get(parent_id as usize))
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        Ok(DependentCursor {
            ws: self,
            comp: r.children[slot],
            ids,
            pos: 0,
        })
    }

    /// Dependent cursor in the reverse direction: parents of a child tuple.
    pub fn parents(&self, relationship: &str, child_id: TupleId) -> Result<DependentCursor<'_>> {
        self.parents_slot(relationship, child_id, 0)
    }

    pub fn parents_slot(
        &self,
        relationship: &str,
        child_id: TupleId,
        slot: usize,
    ) -> Result<DependentCursor<'_>> {
        let rel = self.relationship_index(relationship)?;
        let r = &self.relationships[rel];
        let ids: &[TupleId] = r
            .backward
            .get(slot)
            .and_then(|b| b.get(child_id as usize))
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        Ok(DependentCursor {
            ws: self,
            comp: r.parent,
            ids,
            pos: 0,
        })
    }

    /// Unswizzled child lookup: scans the connection table instead of
    /// following pointers. Exists for the swizzling ablation (E8).
    pub fn children_unswizzled(
        &self,
        relationship: &str,
        parent_id: TupleId,
    ) -> Result<Vec<TupleId>> {
        let rel = self.relationship_index(relationship)?;
        let r = &self.relationships[rel];
        Ok(r.connections
            .iter()
            .filter(|c| c[0] == parent_id)
            .map(|c| c[1])
            .collect())
    }

    /// Evaluate a path expression (Sect. 2): alternating component and
    /// relationship names separated by dots, e.g.
    /// `xdept.employment.xemp.empproperty.xskills`. Returns the distinct
    /// target ids reachable from the (live) source tuples.
    pub fn path(&self, path: &str) -> Result<Vec<TupleId>> {
        let segments: Vec<&str> = path.split('.').map(str::trim).collect();
        if segments.len() < 3 || segments.len().is_multiple_of(2) {
            return Err(XnfError::Api(
                "path must alternate component.relationship.component...".to_string(),
            ));
        }
        let src = self.component_index(segments[0])?;
        let mut current: Vec<TupleId> = self.components[src]
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.components[src].deleted[*i])
            .map(|(i, _)| i as TupleId)
            .collect();
        let mut current_comp = src;
        let mut i = 1;
        while i + 1 < segments.len() {
            let rel_name = segments[i];
            let target_name = segments[i + 1];
            let rel_idx = self.relationship_index(rel_name)?;
            let r = &self.relationships[rel_idx];
            // Forward or backward along this relationship?
            let target_idx = self.component_index(target_name)?;
            let (adj, next_comp): (&Vec<Vec<TupleId>>, usize) = if r.parent == current_comp {
                let slot = r
                    .children
                    .iter()
                    .position(|&c| c == target_idx)
                    .ok_or_else(|| {
                        XnfError::Api(format!(
                            "'{target_name}' is not a child of relationship '{rel_name}'"
                        ))
                    })?;
                (&r.forward[slot], r.children[slot])
            } else if r.children.contains(&current_comp) && r.parent == target_idx {
                let slot = r.children.iter().position(|&c| c == current_comp).unwrap();
                (&r.backward[slot], r.parent)
            } else {
                return Err(XnfError::Api(format!(
                    "relationship '{rel_name}' does not link '{}' to '{target_name}'",
                    self.components[current_comp].name
                )));
            };
            let mut seen = vec![false; self.components[next_comp].rows.len()];
            let mut next = Vec::new();
            for id in current {
                if let Some(ids) = adj.get(id as usize) {
                    for &t in ids {
                        if !seen[t as usize] && !self.components[next_comp].deleted[t as usize] {
                            seen[t as usize] = true;
                            next.push(t);
                        }
                    }
                }
            }
            next.sort();
            current = next;
            current_comp = next_comp;
            i += 2;
        }
        Ok(current)
    }

    // -- updates ---------------------------------------------------------
    //
    // The edit primitives behind `CoCache`'s edit methods, which add what
    // the CO's schema decides: the foreign-key columns a connect rewrites,
    // and the key columns an update may not change.

    /// Update one column of a cached tuple (logged for write-back).
    pub(crate) fn update_value(
        &mut self,
        component: &str,
        id: TupleId,
        column: &str,
        value: Value,
    ) -> Result<()> {
        let comp = self.component_index(component)?;
        let col = self.components[comp]
            .column_index(column)
            .ok_or_else(|| XnfError::Api(format!("no column '{column}' in '{component}'")))?;
        let c = &mut self.components[comp];
        if id as usize >= c.rows.len() || c.deleted[id as usize] {
            return Err(XnfError::Api(format!(
                "tuple {id} of '{component}' does not exist"
            )));
        }
        let old = c.rows[id as usize].clone();
        c.rows[id as usize][col] = value;
        let new = c.rows[id as usize].clone();
        if !self.inserted(comp, id) {
            self.changes.push(Change::Update { comp, id, old, new });
        }
        Ok(())
    }

    /// Whether tuple `id` of component `comp` was inserted in this
    /// workspace and is not yet written back.
    fn inserted(&self, comp: usize, id: TupleId) -> bool {
        id as usize >= self.components[comp].base_len
    }

    /// Insert a new tuple into a component (no connections yet).
    pub(crate) fn insert_row(&mut self, component: &str, row: Row) -> Result<TupleId> {
        let comp = self.component_index(component)?;
        let c = &mut self.components[comp];
        if row.len() != c.columns.len() {
            return Err(XnfError::Api(format!(
                "'{component}' expects {} columns, got {}",
                c.columns.len(),
                row.len()
            )));
        }
        let id = c.rows.len() as TupleId;
        c.rows.push(row);
        c.deleted.push(false);
        // Grow adjacency vectors that index this component.
        for r in &mut self.relationships {
            if r.parent == comp {
                for f in &mut r.forward {
                    f.push(Vec::new());
                }
            }
            for (slot, &child) in r.children.clone().iter().enumerate() {
                if child == comp {
                    r.backward[slot].push(Vec::new());
                }
            }
        }
        self.changes.push(Change::Insert { comp, id });
        Ok(id)
    }

    /// Delete a tuple (tombstoned locally; connections to it are dropped).
    pub(crate) fn delete_row(&mut self, component: &str, id: TupleId) -> Result<()> {
        let comp = self.component_index(component)?;
        let c = &mut self.components[comp];
        if id as usize >= c.rows.len() || c.deleted[id as usize] {
            return Err(XnfError::Api(format!(
                "tuple {id} of '{component}' does not exist"
            )));
        }
        c.deleted[id as usize] = true;
        let old = c.rows[id as usize].clone();
        // Disconnect every connection touching the tuple.
        let rel_count = self.relationships.len();
        for rel in 0..rel_count {
            let touching: Vec<Vec<TupleId>> = {
                let r = &self.relationships[rel];
                let parent_hit = r.parent == comp;
                r.connections
                    .iter()
                    .filter(|conn| {
                        (parent_hit && conn[0] == id)
                            || r.children
                                .iter()
                                .enumerate()
                                .any(|(s, &cc)| cc == comp && conn[s + 1] == id)
                    })
                    .cloned()
                    .collect()
            };
            for conn in touching {
                self.remove_connection(rel, &conn)?;
            }
        }
        self.changes.push(Change::Delete { comp, id, old });
        Ok(())
    }

    /// Connect a parent tuple to child tuple(s) along a relationship. `fk`
    /// is a foreign-key relationship's (parent key, child FK) columns.
    pub(crate) fn connect(
        &mut self,
        relationship: &str,
        conn: &[TupleId],
        fk: Option<(usize, usize)>,
    ) -> Result<()> {
        let rel = self.relationship_index(relationship)?;
        let r = &self.relationships[rel];
        if conn.len() != 1 + r.children.len() {
            return Err(XnfError::Api(format!(
                "relationship '{relationship}' connects 1 parent + {} children",
                r.children.len()
            )));
        }
        if r.connections.iter().any(|c| c == conn) {
            return Err(XnfError::Api("connection already exists".to_string()));
        }
        let comps = std::iter::once(r.parent).chain(r.children.iter().copied());
        if comps
            .zip(conn)
            .any(|(c, &id)| id as usize >= self.components[c].rows.len())
        {
            return Err(XnfError::Api(
                "connection names a missing tuple".to_string(),
            ));
        }
        let conn = conn.to_vec();
        let r = &mut self.relationships[rel];
        r.connections.push(conn.clone());
        for (slot, _) in r.children.clone().iter().enumerate() {
            let (p, c) = (conn[0] as usize, conn[slot + 1] as usize);
            grow_to(&mut r.forward[slot], p + 1);
            r.forward[slot][p].push(conn[slot + 1]);
            grow_to(&mut r.backward[slot], c + 1);
            r.backward[slot][c].push(conn[0]);
        }
        self.log_rewiring(rel, conn, fk, true);
        Ok(())
    }

    /// Disconnect a connection instance; `fk` as for [`Self::connect`].
    pub(crate) fn disconnect(
        &mut self,
        relationship: &str,
        conn: &[TupleId],
        fk: Option<(usize, usize)>,
    ) -> Result<()> {
        let rel = self.relationship_index(relationship)?;
        self.remove_connection(rel, conn)?;
        self.log_rewiring(rel, conn.to_vec(), fk, false);
        Ok(())
    }

    /// Log a connect or disconnect with the parent and child images as they
    /// are now. On a foreign-key relationship, first write the parent key
    /// (or NULL) into the cached child row; a child inserted in this
    /// workspace then carries the rewiring in its insert, and nothing is
    /// logged.
    fn log_rewiring(
        &mut self,
        rel: usize,
        conn: Vec<TupleId>,
        fk: Option<(usize, usize)>,
        connect: bool,
    ) {
        let r = &self.relationships[rel];
        let (pc, cc) = (r.parent, r.children[0]);
        let parent = self.components[pc].rows[conn[0] as usize].clone();
        let child = self.components[cc].rows[conn[1] as usize].clone();
        if let Some((key, fk)) = fk {
            self.components[cc].rows[conn[1] as usize][fk] = match connect {
                true => parent[key].clone(),
                false => Value::Null,
            };
            if self.inserted(cc, conn[1]) {
                return;
            }
        }
        let change = match connect {
            true => Change::Connect {
                rel,
                conn,
                parent,
                child,
            },
            false => Change::Disconnect {
                rel,
                conn,
                parent,
                child,
            },
        };
        self.changes.push(change);
    }

    fn remove_connection(&mut self, rel: usize, conn: &[TupleId]) -> Result<()> {
        let r = &mut self.relationships[rel];
        let pos = r
            .connections
            .iter()
            .position(|c| c == conn)
            .ok_or_else(|| XnfError::Api("connection does not exist".to_string()))?;
        r.connections.swap_remove(pos);
        for slot in 0..r.children.len() {
            let (p, c) = (conn[0] as usize, conn[slot + 1] as usize);
            if let Some(v) = r.forward[slot].get_mut(p) {
                if let Some(i) = v.iter().position(|&x| x == conn[slot + 1]) {
                    v.swap_remove(i);
                }
            }
            if let Some(v) = r.backward[slot].get_mut(c) {
                if let Some(i) = v.iter().position(|&x| x == conn[0]) {
                    v.swap_remove(i);
                }
            }
        }
        Ok(())
    }

    /// Pending (unsynced) changes.
    pub fn pending_changes(&self) -> &[Change] {
        &self.changes
    }

    /// The pending changes, once written back: every row is now a base row.
    pub(crate) fn take_changes(&mut self) -> Vec<Change> {
        for c in &mut self.components {
            c.base_len = c.rows.len();
        }
        std::mem::take(&mut self.changes)
    }
}

fn grow_to<T: Default + Clone>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// Rebuild adjacency for a deserialized relationship, validating ids.
pub(crate) fn reswizzle(rel: &mut Relationship, components: &[Component]) -> Result<()> {
    for conn in &rel.connections {
        if conn.len() != 1 + rel.children.len() {
            return Err(XnfError::Api(
                "corrupt cache image: connection arity".to_string(),
            ));
        }
        if conn[0] as usize >= components[rel.parent].rows.len() {
            return Err(XnfError::Api(
                "corrupt cache image: parent id out of range".to_string(),
            ));
        }
        for (slot, &c) in rel.children.iter().enumerate() {
            if conn[slot + 1] as usize >= components[c].rows.len() {
                return Err(XnfError::Api(
                    "corrupt cache image: child id out of range".to_string(),
                ));
            }
        }
    }
    swizzle(rel, components);
    Ok(())
}

/// Build the swizzled adjacency vectors of a relationship.
fn swizzle(rel: &mut Relationship, components: &[Component]) {
    let parent_n = components[rel.parent].rows.len();
    rel.forward = rel
        .children
        .iter()
        .map(|_| vec![Vec::new(); parent_n])
        .collect();
    rel.backward = rel
        .children
        .iter()
        .map(|&c| vec![Vec::new(); components[c].rows.len()])
        .collect();
    for conn in &rel.connections {
        for slot in 0..rel.children.len() {
            let (p, c) = (conn[0] as usize, conn[slot + 1] as usize);
            rel.forward[slot][p].push(conn[slot + 1]);
            rel.backward[slot][c].push(conn[0]);
        }
    }
}

/// Iterator over the live tuples of a component.
pub struct IndependentCursor<'w> {
    ws: &'w Workspace,
    comp: usize,
    pos: usize,
}

impl<'w> Iterator for IndependentCursor<'w> {
    type Item = TupleRef<'w>;

    fn next(&mut self) -> Option<TupleRef<'w>> {
        let c = &self.ws.components[self.comp];
        while self.pos < c.rows.len() {
            let id = self.pos as TupleId;
            self.pos += 1;
            if !c.deleted[id as usize] {
                return Some(TupleRef {
                    ws: self.ws,
                    comp: self.comp,
                    id,
                });
            }
        }
        None
    }
}

/// Iterator over the tuples connected to a given tuple by a relationship.
pub struct DependentCursor<'w> {
    ws: &'w Workspace,
    comp: usize,
    ids: &'w [TupleId],
    pos: usize,
}

impl<'w> Iterator for DependentCursor<'w> {
    type Item = TupleRef<'w>;

    fn next(&mut self) -> Option<TupleRef<'w>> {
        while self.pos < self.ids.len() {
            let id = self.ids[self.pos];
            self.pos += 1;
            if !self.ws.components[self.comp].deleted[id as usize] {
                return Some(TupleRef {
                    ws: self.ws,
                    comp: self.comp,
                    id,
                });
            }
        }
        None
    }
}

impl<'w> DependentCursor<'w> {
    pub fn count_remaining(self) -> usize {
        self.count()
    }
}

/// A reference to one cached tuple.
#[derive(Clone, Copy)]
pub struct TupleRef<'w> {
    ws: &'w Workspace,
    comp: usize,
    id: TupleId,
}

impl<'w> TupleRef<'w> {
    pub fn id(&self) -> TupleId {
        self.id
    }

    pub fn component_name(&self) -> &'w str {
        &self.ws.components[self.comp].name
    }

    /// All column values.
    pub fn values(&self) -> &'w [Value] {
        &self.ws.components[self.comp].rows[self.id as usize]
    }

    /// Column by name.
    pub fn get(&self, column: &str) -> Result<&'w Value> {
        let c = &self.ws.components[self.comp];
        let col = c
            .column_index(column)
            .ok_or_else(|| XnfError::Api(format!("no column '{column}' in '{}'", c.name)))?;
        Ok(&c.rows[self.id as usize][col])
    }

    /// String column by name, without the `'…'` quoting that
    /// `Value as Display` adds (callers should never have to match quoted
    /// strings).
    pub fn get_str(&self, column: &str) -> Result<&'w str> {
        self.get(column)?
            .as_str()
            .map_err(|e| self.type_err(column, e))
    }

    /// Integer column by name (Int, or a Double with no fractional part).
    pub fn get_int(&self, column: &str) -> Result<i64> {
        self.get(column)?
            .as_int()
            .map_err(|e| self.type_err(column, e))
    }

    /// Float column by name (Double, coercing from Int).
    pub fn get_f64(&self, column: &str) -> Result<f64> {
        self.get(column)?
            .as_double()
            .map_err(|e| self.type_err(column, e))
    }

    fn type_err(&self, column: &str, e: xnf_storage::StorageError) -> XnfError {
        XnfError::Api(format!(
            "column '{column}' of '{}': {e}",
            self.ws.components[self.comp].name
        ))
    }

    /// Children along a relationship (dependent cursor shortcut).
    pub fn children(&self, relationship: &str) -> Result<DependentCursor<'w>> {
        self.ws.children(relationship, self.id)
    }

    /// Parents along a relationship.
    pub fn parents(&self, relationship: &str) -> Result<DependentCursor<'w>> {
        self.ws.parents(relationship, self.id)
    }
}

impl Workspace {
    /// Render the instance graphs as indented text (used by the shell's
    /// `.co` command — the analog of the paper's graphical browser).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (ci, c) in self.components.iter().enumerate() {
            let _ = writeln!(s, "component {} ({} tuples):", c.name, c.len());
            for t in self.independent(&c.name).expect("component exists") {
                let vals: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                let _ = writeln!(s, "  [{}] {}", t.id(), vals.join(", "));
                for r in &self.relationships {
                    if r.parent == ci {
                        for (slot, &child) in r.children.iter().enumerate() {
                            for cid in self
                                .children_slot(&r.name, t.id(), slot)
                                .expect("valid relationship")
                            {
                                let _ = writeln!(
                                    s,
                                    "      -{}-> {}[{}]",
                                    r.role,
                                    self.components[child].name,
                                    cid.id()
                                );
                            }
                        }
                    }
                }
            }
        }
        s
    }

    /// Render the cached CO as a Graphviz DOT graph: one node per component
    /// tuple, one edge per connection, clustered by component. The paper's
    /// prototype had "a graphical browsing facility for the data in the
    /// cache" (Sect. 5.2); piping this through `dot -Tsvg` is ours.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph co {{");
        let _ = writeln!(s, "  rankdir=LR; node [shape=record, fontsize=10];");
        for (ci, c) in self.components.iter().enumerate() {
            let _ = writeln!(s, "  subgraph cluster_{ci} {{");
            let _ = writeln!(s, "    label=\"{}\";", c.name);
            for t in self.independent(&c.name).expect("component exists") {
                let label: Vec<String> = t
                    .values()
                    .iter()
                    .map(|v| v.to_string().replace('"', "'").replace('|', "/"))
                    .collect();
                let _ = writeln!(s, "    n{ci}_{} [label=\"{}\"];", t.id(), label.join(" | "));
            }
            let _ = writeln!(s, "  }}");
        }
        for r in &self.relationships {
            for conn in &r.connections {
                for (slot, &child) in r.children.iter().enumerate() {
                    let _ = writeln!(
                        s,
                        "  n{}_{} -> n{}_{} [label=\"{}\", fontsize=8];",
                        r.parent,
                        conn[0],
                        child,
                        conn[slot + 1],
                        r.role
                    );
                }
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use xnf_exec::{ExecStats, StreamResult};

    fn tiny_ws() -> Workspace {
        let result = QueryResult {
            streams: vec![
                StreamResult {
                    name: "a".into(),
                    kind: OutputKind::Node,
                    columns: vec!["k".into()],
                    rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                },
                StreamResult {
                    name: "b".into(),
                    kind: OutputKind::Node,
                    columns: vec!["k".into()],
                    rows: vec![vec![Value::Int(10)]],
                },
                StreamResult {
                    name: "ab".into(),
                    kind: OutputKind::Connection {
                        relationship: "ab".into(),
                        parent: "a".into(),
                        children: vec!["b".into()],
                        role: "links".into(),
                    },
                    columns: vec!["a_id".into(), "b_id".into()],
                    rows: vec![
                        vec![Value::Int(0), Value::Int(0)],
                        vec![Value::Int(1), Value::Int(0)],
                    ],
                },
            ],
            stats: ExecStats::default(),
        };
        Workspace::from_result(&result).unwrap()
    }

    #[test]
    fn text_rendering_lists_components_and_edges() {
        let ws = tiny_ws();
        let text = ws.to_text();
        assert!(text.contains("component a (2 tuples)"), "{text}");
        assert!(text.contains("-links-> b[0]"), "{text}");
    }

    #[test]
    fn dot_rendering_produces_graphviz() {
        let ws = tiny_ws();
        let dot = ws.to_dot();
        assert!(dot.starts_with("digraph co {"));
        assert_eq!(dot.matches("->").count(), 2, "{dot}");
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn insert_then_navigate_new_tuple() {
        let mut ws = tiny_ws();
        let id = ws.insert_row("b", vec![Value::Int(11)]).unwrap();
        ws.connect("ab", &[0, id], None).unwrap();
        let kids: Vec<u32> = ws.children("ab", 0).unwrap().map(|t| t.id()).collect();
        assert!(kids.contains(&id));
        // Deleting the new tuple drops its connections.
        ws.delete_row("b", id).unwrap();
        let kids: Vec<u32> = ws.children("ab", 0).unwrap().map(|t| t.id()).collect();
        assert!(!kids.contains(&id));
    }

    #[test]
    fn connect_rejects_bad_arity_and_duplicates() {
        let mut ws = tiny_ws();
        assert!(ws.connect("ab", &[0], None).is_err(), "arity check");
        assert!(ws.connect("ab", &[0, 0], None).is_err(), "duplicate");
        ws.disconnect("ab", &[0, 0], None).unwrap();
        ws.connect("ab", &[0, 0], None).unwrap();
    }
}
