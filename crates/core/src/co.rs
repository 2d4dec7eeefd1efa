//! `CoCache`: the client-side composite object — workspace + updatability
//! metadata + the query it came from (Fig. 7's picture in one type).

use std::sync::Arc;

use xnf_exec::{Params, Row};
use xnf_storage::Value;

use crate::cache::{Relationship, TupleId, Workspace};
use crate::db::Database;
use crate::error::{Result, XnfError};
use crate::session::Session;
use crate::writeback::{CoSchema, RelMeta};

/// A cached composite object with write-back support.
pub struct CoCache {
    pub workspace: Workspace,
    /// Updatability metadata, shared with the compiled statement (or the
    /// materialized view's maintenance plan) the CO came from.
    pub schema: Arc<CoSchema>,
    /// The originating `OUT OF` query text (for re-fetch).
    pub query: Arc<str>,
    /// Parameter bindings the CO was extracted with (empty for one-shot
    /// fetches); `refresh` re-executes under the same bindings.
    pub params: Params,
}

impl CoCache {
    // -- edits -----------------------------------------------------------
    //
    // Each edit changes the workspace and logs what write-back replays.
    // The CO's schema adds two rules. A connect or disconnect along a
    // foreign-key relationship writes the parent key (or NULL) into the
    // cached child row, so the row keeps mirroring its base row. And a
    // column a relationship joins on cannot change while the tuple is
    // connected along it: write-back does not cascade a key to the rows
    // that name the old one, so the connection would silently break.

    /// Update one column of a cached tuple. Refused for a key or foreign-key
    /// column that links the tuple to another: disconnect it first.
    pub fn update_value(
        &mut self,
        component: &str,
        id: TupleId,
        column: &str,
        value: Value,
    ) -> Result<()> {
        let ws = &self.workspace;
        let comp = ws.component_index(component)?;
        let col = ws.components[comp].column_index(column);
        let row = ws.components[comp].rows.get(id as usize);
        if let (Some(col), Some(row)) = (col, row) {
            let links =
                (ws.relationships.iter().zip(&self.schema.relationships)).find(|(r, meta)| {
                    meta.link_cols().is_some_and(|(pcol, ccol)| {
                        (r.parent == comp && pcol == col && r.is_connected(id, false))
                            || (r.children[0] == comp && ccol == col && r.is_connected(id, true))
                    })
                });
            if let Some((r, _)) = links.filter(|_| row[col] != value) {
                return Err(XnfError::Api(format!(
                    "column '{column}' of tuple {id} in '{component}' links it along '{}': \
                     disconnect it before changing the column",
                    r.name
                )));
            }
        }
        self.workspace.update_value(component, id, column, value)
    }

    /// Insert a new tuple into a component (no connections yet).
    pub fn insert_row(&mut self, component: &str, row: Row) -> Result<TupleId> {
        self.workspace.insert_row(component, row)
    }

    /// Delete a tuple (tombstoned locally; connections to it are dropped).
    pub fn delete_row(&mut self, component: &str, id: TupleId) -> Result<()> {
        self.workspace.delete_row(component, id)
    }

    /// Connect a parent tuple to child tuple(s) along a relationship. A
    /// foreign-key child has one parent: disconnect it from the old one
    /// first.
    pub fn connect(&mut self, relationship: &str, conn: &[TupleId]) -> Result<()> {
        let (r, fk) = self.relationship(relationship)?;
        if let (Some(_), Some(&child)) = (fk, conn.get(1)) {
            if r.is_connected(child, true) {
                return Err(XnfError::Api(format!(
                    "tuple {child} already has a parent along '{relationship}': \
                     disconnect it first"
                )));
            }
        }
        self.workspace.connect(relationship, conn, fk)
    }

    /// Disconnect a connection instance.
    pub fn disconnect(&mut self, relationship: &str, conn: &[TupleId]) -> Result<()> {
        let (_, fk) = self.relationship(relationship)?;
        self.workspace.disconnect(relationship, conn, fk)
    }

    /// A relationship of the workspace, and for a foreign-key one its
    /// (parent key, child FK) columns.
    fn relationship(&self, name: &str) -> Result<(&Relationship, Option<(usize, usize)>)> {
        let rel = self.workspace.relationship_index(name)?;
        let fk = match self.schema.relationships.get(rel) {
            Some(meta @ RelMeta::ForeignKey { .. }) => meta.link_cols(),
            _ => None,
        };
        Ok((&self.workspace.relationships[rel], fk))
    }

    /// Drop local state and re-extract the CO through `session` (and the
    /// plan cache), using the parameter bindings of the original fetch.
    /// Inside an open transaction the re-extraction reads its snapshot.
    pub fn refresh(&mut self, session: &Session<'_>) -> Result<()> {
        let fresh = session
            .prepare_bound(&self.query, &self.params)?
            .fetch_co()?;
        self.workspace = fresh.workspace;
        self.schema = fresh.schema;
        Ok(())
    }
}

impl Database {
    /// Serve one composite object from a **materialized** CO view: the root
    /// tuples whose partition key equals `key`, plus everything reachable
    /// from them, read from the stored streams in one pass, each page
    /// pinned once (no extraction, no full-view load). Nodes come back in
    /// ascending surrogate order and connections in (parent, child)
    /// surrogate order, all read under one snapshot of the latest commit.
    /// This is the hot-CO serving path.
    pub fn fetch_co_point(&self, view: &str, key: &xnf_storage::Value) -> Result<CoCache> {
        let snap = self.catalog().latest_snapshot();
        crate::matview::fetch_stored(self, view, Some(key), &snap)
    }
}
