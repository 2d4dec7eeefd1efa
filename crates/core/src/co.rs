//! `CoCache`: the client-side composite object — workspace + updatability
//! metadata + the query it came from (Fig. 7's picture in one type).

use std::sync::Arc;

use xnf_exec::Params;

use crate::cache::Workspace;
use crate::db::Database;
use crate::error::Result;
use crate::session::Session;
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
    /// surrogate order, all read under one snapshot. This is the hot-CO
    /// serving path.
    pub fn fetch_co_point(&self, view: &str, key: &xnf_storage::Value) -> Result<CoCache> {
        crate::matview::fetch_co_point(self, view, key)
    }
}
