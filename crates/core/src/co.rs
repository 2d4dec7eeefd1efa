//! `CoCache`: the client-side composite object — workspace + updatability
//! metadata + the query it came from (Fig. 7's picture in one type).

use xnf_exec::Params;
use xnf_sql::{Statement, ViewBody, XnfQuery};
use xnf_storage::ViewKind;

use crate::cache::Workspace;
use crate::db::Database;
use crate::error::{Result, XnfError};
use crate::session::normalize_statement;
use crate::writeback::{derive_co_schema, write_back, CoSchema};

/// A cached composite object with write-back support.
pub struct CoCache {
    pub workspace: Workspace,
    pub schema: CoSchema,
    /// The originating XNF query (for re-fetch).
    pub query: XnfQuery,
    /// Parameter bindings the CO was extracted with (empty for one-shot
    /// fetches); `refresh` re-executes under the same bindings.
    pub params: Params,
}

impl CoCache {
    /// Push pending workspace changes back to the database (atomically).
    /// Returns the number of base-table operations performed.
    pub fn save(&mut self, db: &Database) -> Result<usize> {
        write_back(db, &mut self.workspace, &self.schema)
    }

    /// Drop local state and re-extract the CO from the database, using the
    /// parameter bindings of the original fetch.
    pub fn refresh(&mut self, db: &Database) -> Result<()> {
        let result = db.run_query(
            &Statement::Xnf(self.query.clone()),
            self.params.clone(),
            None,
        )?;
        self.workspace = Workspace::from_result(&result)?;
        Ok(())
    }
}

impl Database {
    /// Evaluate an XNF query (text, `OUT OF ... TAKE ...`) or a stored XNF
    /// view (by name) and load the result into a client-side CO cache.
    /// Compilation goes through the shared plan cache, so repeated fetches
    /// of the same CO skip the parse→QGM→rewrite→plan pipeline. A
    /// **materialized** CO view loads straight from its backing streams —
    /// no extraction pipeline at all.
    pub fn fetch_co(&self, query_or_view: &str) -> Result<CoCache> {
        let text = if self.catalog().view(query_or_view).is_some() {
            let view = self.catalog().view(query_or_view).unwrap();
            if view.kind != ViewKind::Xnf {
                return Err(XnfError::Api(format!(
                    "'{query_or_view}' is a relational view, not a CO view"
                )));
            }
            if view.materialized {
                return crate::matview::fetch_co_materialized(self, query_or_view);
            }
            view.text
        } else {
            query_or_view.to_string()
        };
        let key = normalize_statement(&text);
        let (compiled, _) = self.compile_cached(&key)?;
        compiled.require_bound(".fetch_co()")?;
        let query = match compiled.stmt() {
            Statement::Xnf(q) => q.clone(),
            Statement::CreateView {
                body: ViewBody::Xnf(q),
                ..
            } => q.clone(),
            _ => {
                return Err(XnfError::Api(
                    "fetch_co expects an OUT OF query or XNF view".into(),
                ))
            }
        };
        let result = match compiled.stmt() {
            // The cached QEP covers the plain `OUT OF` form; the CREATE VIEW
            // wrapper compiles to a Statement body, so run its query direct.
            Statement::Xnf(_) => self
                .execute_compiled_scoped(&compiled, Params::default(), None)?
                .try_rows()?,
            _ => self.run_query(&Statement::Xnf(query.clone()), Params::default(), None)?,
        };
        let workspace = Workspace::from_result(&result)?;
        let schema = derive_co_schema(self, &query)?;
        Ok(CoCache {
            workspace,
            schema,
            query,
            params: Params::default(),
        })
    }

    /// Serve one composite object from a **materialized** CO view: the root
    /// tuples whose partition key equals `key`, plus everything reachable
    /// from them, read from the stored streams via index walks (no
    /// extraction, no full-view load). This is the hot-CO serving path.
    pub fn fetch_co_point(&self, view: &str, key: &xnf_storage::Value) -> Result<CoCache> {
        crate::matview::fetch_co_point(self, view, key)
    }
}
