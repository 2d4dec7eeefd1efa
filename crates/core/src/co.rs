//! `CoCache`: the client-side composite object — workspace + updatability
//! metadata + the query it came from (Fig. 7's picture in one type).

use std::sync::Arc;

use xnf_exec::Params;

use crate::cache::Workspace;
use crate::db::Database;
use crate::error::Result;
use crate::writeback::CoSchema;

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
    /// Push pending workspace changes back to the database (atomically);
    /// [`crate::Session::write_back`] on a fresh autocommit session.
    /// Returns the number of base-table operations performed.
    pub fn save(&mut self, db: &Database) -> Result<usize> {
        db.session().write_back(self)
    }

    /// Drop local state and re-extract the CO from the database through the
    /// plan cache, using the parameter bindings of the original fetch.
    pub fn refresh(&mut self, db: &Database) -> Result<()> {
        let fresh = db
            .session()
            .prepare_bound(&self.query, &self.params)?
            .fetch_co()?;
        self.workspace = fresh.workspace;
        self.schema = fresh.schema;
        Ok(())
    }
}

impl Database {
    /// Evaluate an XNF query or a stored XNF view (by name) into a
    /// client-side CO cache; [`crate::Session::fetch_co`] on a fresh
    /// autocommit session.
    pub fn fetch_co(&self, query_or_view: &str) -> Result<CoCache> {
        self.session().fetch_co(query_or_view)
    }

    /// Serve one composite object from a **materialized** CO view: the root
    /// tuples whose partition key equals `key`, plus everything reachable
    /// from them, read from the stored streams via index walks (no
    /// extraction, no full-view load). This is the hot-CO serving path.
    pub fn fetch_co_point(&self, view: &str, key: &xnf_storage::Value) -> Result<CoCache> {
        crate::matview::fetch_co_point(self, view, key)
    }
}
