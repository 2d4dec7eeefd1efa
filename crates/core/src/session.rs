//! Sessions, transactions, prepared statements and the shared plan cache.
//!
//! The paper's premise is that SQL and `OUT OF … TAKE …` CO queries share
//! one compilation pipeline (parser → QGM → rewrite → plan → QES). This
//! module makes that pipeline *prepare-once/execute-many*: a [`Session`]
//! compiles a statement into a [`Prepared`] handle holding the executable
//! QEP and a parameter signature; repeated executions bind new parameter
//! values and go straight to the QES. Compiled plans live in a shared LRU
//! cache keyed by normalized statement text and are invalidated through the
//! catalog's DDL generation counter, so `CREATE`/`DROP TABLE`/`VIEW` never
//! serves a stale plan.
//!
//! A session is also the **unit of transaction ownership** (the paper's
//! Sect. 3 multi-client model: each workstation holds its own unit of
//! work). [`Session::begin`] captures an MVCC snapshot and allocates a
//! transaction id; every statement the session runs until
//! [`Session::commit`] / [`Session::rollback`] reads against that snapshot
//! and writes versions tagged with that id. Different sessions on one
//! shared [`Database`] hold independent open transactions concurrently —
//! `Database` is `Send + Sync` and `Session` is `Send` by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use xnf_exec::{Params, QueryResult};
use xnf_plan::Qep;
use xnf_sql::{parse_statements, Statement};
use xnf_storage::{DeltaBatch, Snapshot, Transaction, Value, ViewKind};

use crate::cache::Workspace;
use crate::co::CoCache;
use crate::db::{scope_visibility, Database, Dml, ExecOutcome};
use crate::error::{Result, XnfError};
use crate::writeback::CoSchema;

// ---------------------------------------------------------------------------
// transaction state
// ---------------------------------------------------------------------------

/// The state of one open transaction: the storage-level transaction (id +
/// undo log), the snapshot captured at `BEGIN`, and the accumulated
/// base-table deltas awaiting materialized-view maintenance at COMMIT.
pub(crate) struct ActiveTxn {
    pub(crate) txn: Transaction,
    pub(crate) snapshot: Snapshot,
    pub(crate) delta: DeltaBatch,
}

impl ActiveTxn {
    /// Begin a transaction against `db`: allocate an id and capture the
    /// snapshot all of its reads will run against.
    pub(crate) fn begin(db: &Database) -> ActiveTxn {
        let txn = Transaction::begin(db.catalog().txns());
        let snapshot = txn.write_snapshot();
        let delta = DeltaBatch::for_txn(txn.id());
        ActiveTxn {
            txn,
            snapshot,
            delta,
        }
    }
}

/// A session's transaction slot, shared with the [`Prepared`] handles it
/// hands out so their executions join the session's open transaction.
pub(crate) type TxnSlot = Arc<Mutex<Option<ActiveTxn>>>;

// ---------------------------------------------------------------------------
// statement normalization
// ---------------------------------------------------------------------------

/// Normalize statement text into a plan-cache key: collapse whitespace runs
/// outside string literals, strip `--` comments and trailing semicolons.
/// Two spellings of the same statement share one cache slot; string
/// literals are preserved byte-for-byte.
pub fn normalize_statement(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut in_str = false;
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            if c == '\'' {
                in_str = false;
            }
            continue;
        }
        match c {
            '\'' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                in_str = true;
                out.push(c);
            }
            '-' if chars.peek() == Some(&'-') => {
                // Comment to end of line; acts as whitespace.
                for c2 in chars.by_ref() {
                    if c2 == '\n' {
                        break;
                    }
                }
                pending_space = true;
            }
            c if c.is_whitespace() => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    while out.ends_with(';') || out.ends_with(' ') {
        out.pop();
    }
    out
}

// ---------------------------------------------------------------------------
// compiled statements + plan cache
// ---------------------------------------------------------------------------

/// How a compiled statement executes.
#[derive(Debug, Clone)]
pub(crate) enum CompiledBody {
    /// SELECT or XNF query lowered to an executable QEP.
    Query(Arc<Qep>),
    /// INSERT, UPDATE or DELETE: its target, the planner's leaf over it and
    /// its lowered SET/VALUES expressions.
    Dml(Arc<Dml>),
    /// DDL: executed by interpreting the parsed statement.
    Statement,
}

/// A statement compiled down as far as its class allows, plus its parameter
/// signature and the catalog generation it was compiled against.
#[derive(Debug)]
pub struct CompiledStmt {
    pub(crate) stmt: Statement,
    pub(crate) body: CompiledBody,
    /// An `OUT OF` query's updatability metadata, derived with its plan and
    /// shared by every CO fetched through it.
    pub(crate) co_schema: Option<Arc<CoSchema>>,
    pub(crate) n_params: usize,
    pub(crate) generation: u64,
}

/// Refuse to run a statement with `n_params` placeholders when only
/// `bound` values are bound, naming the call that binds them.
fn require_bound(n_params: usize, bound: usize) -> Result<()> {
    if bound < n_params {
        return Err(XnfError::Api(format!(
            "statement has {} unbound parameter(s); use session().prepare(...).bind(...)",
            n_params - bound
        )));
    }
    Ok(())
}

impl CompiledStmt {
    pub fn param_count(&self) -> usize {
        self.n_params
    }

    /// The compiled CO metadata; refuses a statement that is not `OUT OF`.
    fn co_schema(&self) -> Result<Arc<CoSchema>> {
        self.co_schema.clone().ok_or_else(|| {
            XnfError::Api("fetch_co() expects an OUT OF query or XNF view".to_string())
        })
    }

    /// The one unbound-parameter check on the execute path: refuse to run
    /// when `bound` values leave some of the statement's `?` placeholders
    /// unbound, naming the call that binds them.
    pub(crate) fn require_bound(&self, bound: usize) -> Result<()> {
        require_bound(self.n_params, bound)
    }

    /// Does the statement return rows? SELECT, `OUT OF` and VACUUM (its
    /// report stream) do; DDL, DML, ANALYZE and REFRESH do not.
    fn returns_rows(&self) -> bool {
        matches!(
            self.stmt,
            Statement::Select(_) | Statement::Xnf(_) | Statement::Vacuum { .. }
        )
    }
}

/// Cumulative plan-cache counters (whole database, all sessions).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale entry).
    pub misses: u64,
    /// Entries dropped because the catalog generation moved past them.
    pub invalidations: u64,
    /// Full front-end compilations (parse → QGM → rewrite → plan).
    pub compiles: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

/// Capacity (statements) of the shared compiled-plan cache.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Shared LRU plan cache keyed by normalized statement text.
#[derive(Default)]
pub(crate) struct PlanCache {
    /// key → (compiled, last-used tick).
    entries: HashMap<String, (Arc<CompiledStmt>, u64)>,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Look up `key`, treating entries from older catalog generations as
    /// absent (and dropping them).
    pub fn get(&mut self, key: &str, current_generation: u64) -> Option<Arc<CompiledStmt>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((compiled, last_used)) if compiled.generation == current_generation => {
                *last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(compiled))
            }
            Some(_) => {
                self.entries.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    pub fn insert(&mut self, key: String, compiled: Arc<CompiledStmt>) {
        self.tick += 1;
        self.stats.compiles += 1;
        if self.entries.len() >= PLAN_CACHE_CAPACITY && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry (linear scan: the cache is
            // small and eviction is off the hot path).
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, (compiled, self.tick));
    }

    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Per-session cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// `prepare` calls answered from the shared plan cache.
    pub cache_hits: u64,
    /// `prepare` calls that had to compile.
    pub cache_misses: u64,
}

/// A lightweight connection handle: the unit of statement preparation and
/// of transaction ownership.
///
/// Sessions share the database's plan cache, so a statement prepared in one
/// session is a cache hit in every other — but each session holds its own
/// transaction slot, so concurrent sessions (one per thread over a shared
/// `Arc<Database>`) run isolated transactions. Obtain one with
/// [`Database::session`].
pub struct Session<'db> {
    db: &'db Database,
    hits: AtomicU64,
    misses: AtomicU64,
    /// This session's open transaction, if any. Shared (`Arc`) with the
    /// [`Prepared`] handles the session creates.
    txn: TxnSlot,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Database) -> Self {
        Session {
            db,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            txn: Arc::new(Mutex::new(None)),
        }
    }

    pub fn database(&self) -> &'db Database {
        self.db
    }

    // -- transactions -----------------------------------------------------

    /// Begin an explicit transaction: capture an MVCC snapshot (all reads
    /// until COMMIT/ROLLBACK run against it, plus this transaction's own
    /// writes) and allocate the transaction id its writes are tagged with.
    /// Other sessions' transactions proceed independently; writing a row
    /// another transaction already wrote fails with a write conflict
    /// (first-writer-wins) instead of blocking.
    pub fn begin(&self) -> Result<()> {
        let mut slot = self.txn.lock();
        if slot.is_some() {
            return Err(XnfError::Api(
                "a transaction is already active on this session".to_string(),
            ));
        }
        *slot = Some(ActiveTxn::begin(self.db));
        Ok(())
    }

    /// Commit this session's transaction: propagate its accumulated deltas
    /// — coalesced to their net effect — to dependent materialized views,
    /// then assign its commit stamp, which makes its base and view versions
    /// visible to new snapshots at once. Maintenance runs under the
    /// database's maintenance lock, reading latest-committed data plus this
    /// transaction's writes, so views observe transactions in commit order.
    /// A maintenance error rolls the whole transaction back and is
    /// returned.
    pub fn commit(&self) -> Result<()> {
        let active = self.txn.lock().take();
        match active {
            Some(active) => self.db.commit_active(active),
            None => Err(XnfError::Api(
                "no active transaction on this session".to_string(),
            )),
        }
    }

    /// Roll back this session's transaction: physically remove the versions
    /// it created and clear its delete marks. Its deltas are dropped —
    /// materialized views never saw them (maintenance runs at COMMIT only).
    pub fn rollback(&self) -> Result<()> {
        let active = self.txn.lock().take();
        match active {
            Some(active) => {
                active.txn.abort().map_err(XnfError::from)?;
                Ok(())
            }
            None => Err(XnfError::Api(
                "no active transaction on this session".to_string(),
            )),
        }
    }

    /// Is a transaction open on this session?
    pub fn in_transaction(&self) -> bool {
        self.txn.lock().is_some()
    }

    /// The snapshot this session's reads currently run against: the open
    /// transaction's begin-snapshot, or `None` (latest committed state) in
    /// autocommit.
    pub fn snapshot(&self) -> Option<Snapshot> {
        scope_visibility(&self.txn)
    }

    // -- statements -------------------------------------------------------

    /// Compile `text` (SQL or `OUT OF … TAKE …`) into a [`Prepared`]
    /// statement, reusing the shared plan cache when possible. `?`
    /// placeholders become positional parameters to [`Prepared::bind`].
    /// Executions of the handle join whatever transaction is open on this
    /// session at execution time.
    pub fn prepare(&self, text: &str) -> Result<Prepared<'db>> {
        let key: Arc<str> = normalize_statement(text).into();
        let (compiled, hit) = self.db.compile_cached(&key)?;
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Prepared {
            db: self.db,
            key,
            compiled,
            params: Params::default(),
            txn: Arc::clone(&self.txn),
        })
    }

    /// Prepare `text` and bind `params` (left unbound when empty, so the
    /// execute path's unbound-parameter check reports a missing binding).
    pub(crate) fn prepare_bound(&self, text: &str, params: &[Value]) -> Result<Prepared<'db>> {
        let mut prepared = self.prepare(text)?;
        if !params.is_empty() {
            prepared.bind(params)?;
        }
        Ok(prepared)
    }

    /// One-shot convenience: prepare (through the cache), bind, execute —
    /// inside this session's open transaction, if any.
    pub fn execute(&self, text: &str, params: &[Value]) -> Result<ExecOutcome> {
        self.prepare_bound(text, params)?.execute()
    }

    /// One-shot query convenience returning the result streams. Refuses a
    /// statement that returns no rows (see [`Prepared::query`]) before
    /// running it.
    pub fn query(&self, text: &str, params: &[Value]) -> Result<QueryResult> {
        self.prepare_bound(text, params)?.query()
    }

    /// Run semicolon-separated statements in order and return the last
    /// outcome. The statements bypass the plan cache and take no bindings:
    /// a batch containing a `?` placeholder is refused, with the same
    /// unbound-parameter error as [`Session::execute`], before any
    /// statement runs.
    ///
    /// Each statement runs in this session's transaction scope: inside
    /// [`Session::begin`] the whole batch joins the open transaction (so
    /// [`Session::rollback`] undoes all of it); in autocommit every
    /// statement commits on its own, so when a statement fails, the ones
    /// before it stay applied, it writes nothing, and the ones after it do
    /// not run.
    pub fn execute_batch(&self, text: &str) -> Result<ExecOutcome> {
        let placeholders = xnf_sql::lexer::lex(text)?
            .iter()
            .filter(|t| t.kind == xnf_sql::token::TokenKind::Placeholder)
            .count();
        require_bound(placeholders, 0)?;
        let mut last = ExecOutcome::Done;
        for stmt in parse_statements(text)? {
            last = self
                .db
                .execute_stmt_scoped(&stmt, &Params::default(), &self.txn)?;
        }
        Ok(last)
    }

    /// Evaluate an XNF query (`OUT OF … TAKE …` text) or a stored XNF view
    /// (by name) and load the result into a client-side CO cache.
    /// Compilation goes through the shared plan cache, so repeated fetches
    /// of the same CO skip the parse→QGM→rewrite→plan pipeline. Inside an
    /// open transaction the extraction reads that transaction's snapshot,
    /// its own uncommitted writes included.
    ///
    /// A **materialized** CO view loads straight from its backing streams —
    /// no extraction pipeline at all — under the same snapshot: inside a
    /// transaction it shows the view as of `begin` (without the
    /// transaction's own uncommitted writes, which reach views at commit).
    pub fn fetch_co(&self, query_or_view: &str) -> Result<CoCache> {
        let text = match self.db.catalog().view(query_or_view) {
            Some(view) if view.kind != ViewKind::Xnf => {
                return Err(XnfError::Api(format!(
                    "'{query_or_view}' is a relational view, not a CO view"
                )))
            }
            Some(view) if view.materialized => {
                let snap = self
                    .snapshot()
                    .unwrap_or_else(|| self.db.catalog().latest_snapshot());
                return crate::matview::fetch_stored(self.db, query_or_view, None, &snap);
            }
            Some(view) => view.text,
            None => query_or_view.to_string(),
        };
        self.prepare(&text)?.fetch_co()
    }

    /// Push a CO cache's pending changes back to the database inside this
    /// session's transaction scope. Each change runs as one keyed DML
    /// statement through [`Session::execute`] (see [`crate::writeback`])
    /// and must affect exactly one row. The statements join an open
    /// transaction; otherwise they run in one transaction of their own that
    /// commits, with materialized-view maintenance, or rolls back as a
    /// unit. A write-back that fails keeps its changes pending for a retry.
    /// Inside an open transaction what its statements wrote before the
    /// failure, an ambiguous statement's rows included, stays in that
    /// transaction for the caller to roll back. Returns the number of
    /// base-table operations performed.
    pub fn write_back(&self, co: &mut CoCache) -> Result<usize> {
        let edits = crate::writeback::edits(self.db, &co.workspace, &co.schema)?;
        let own = !self.in_transaction();
        if own {
            self.begin()?;
        }
        let applied = (edits.iter())
            .try_for_each(|edit| edit.check(self.execute(&edit.sql, &edit.params)?.affected()));
        if let Err(e) = applied {
            if own {
                self.rollback()?;
            }
            return Err(e);
        }
        if own {
            self.commit()?;
        }
        co.workspace.take_changes();
        Ok(edits.len())
    }

    /// This session's cache counters (prepare-time hits/misses).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared
// ---------------------------------------------------------------------------

/// A prepared statement: compiled plan + parameter signature + current
/// bindings. Re-validated against the catalog's DDL generation on every
/// execution, so dropping/recreating a table transparently recompiles.
/// Executions join the owning session's open transaction (the handle
/// shares its transaction slot).
pub struct Prepared<'db> {
    db: &'db Database,
    /// Normalized statement text (the plan-cache key).
    key: Arc<str>,
    compiled: Arc<CompiledStmt>,
    /// Current bindings, shared with the executor without re-copying.
    params: Params,
    /// The owning session's transaction slot.
    txn: TxnSlot,
}

impl<'db> Prepared<'db> {
    /// Number of `?` placeholders in the statement.
    pub fn param_count(&self) -> usize {
        self.compiled.n_params
    }

    /// The normalized statement text this handle was prepared from.
    pub fn text(&self) -> &str {
        &self.key
    }

    /// Bind positional parameter values (must match the placeholder count).
    pub fn bind(&mut self, params: &[Value]) -> Result<&mut Self> {
        if params.len() != self.compiled.n_params {
            return Err(XnfError::Api(format!(
                "statement takes {} parameter(s), {} bound",
                self.compiled.n_params,
                params.len()
            )));
        }
        self.params = Arc::new(params.to_vec());
        Ok(self)
    }

    /// Re-validate against DDL and execute with the current bindings.
    pub fn execute(&mut self) -> Result<ExecOutcome> {
        self.revalidate()?;
        self.compiled.require_bound(self.params.len())?;
        self.db
            .execute_compiled_scoped(&self.compiled, Arc::clone(&self.params), &self.txn)
    }

    /// Bind and execute in one call.
    pub fn execute_with(&mut self, params: &[Value]) -> Result<ExecOutcome> {
        self.bind(params)?;
        self.execute()
    }

    /// Execute, expecting result rows: SELECT, `OUT OF` or VACUUM (its
    /// report stream). Any other statement is refused before it runs.
    pub fn query(&mut self) -> Result<QueryResult> {
        if !self.compiled.returns_rows() {
            return Err(XnfError::Api(
                "query() expects SELECT or OUT OF".to_string(),
            ));
        }
        self.execute()?.try_rows()
    }

    /// For a prepared `OUT OF … TAKE …` query: execute and load the result
    /// into a client-side CO cache (the prepared counterpart of
    /// [`Session::fetch_co`]).
    pub fn fetch_co(&mut self) -> Result<CoCache> {
        // Refuse a statement that is not `OUT OF` before running it.
        self.compiled.co_schema()?;
        let result = self.query()?;
        Ok(CoCache {
            workspace: Workspace::from_result(&result)?,
            schema: self.compiled.co_schema()?,
            query: Arc::clone(&self.key),
            params: Arc::clone(&self.params),
        })
    }

    /// If DDL moved the catalog generation since this plan was compiled,
    /// recompile (through the shared cache).
    fn revalidate(&mut self) -> Result<()> {
        if self.compiled.generation != self.db.catalog().generation() {
            let n_before = self.compiled.n_params;
            let (compiled, _) = self.db.compile_cached(&self.key)?;
            if compiled.n_params != n_before {
                self.params = Params::default();
            }
            self.compiled = compiled;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// in-process concurrent driver (Sect. 3's many-workstations model)
// ---------------------------------------------------------------------------

/// Drive `sessions` concurrent sessions against one shared database,
/// thread-per-session: each thread opens its own [`Session`] (its own
/// transaction slot) and runs `work(session_index, &session)`; results are
/// returned in session order once every thread finishes.
///
/// This is the in-process stand-in for the paper's multi-workstation
/// processing model: many clients with independent units of work against
/// one shared RDBMS. Sessions see snapshot-isolated reads; concurrent
/// writers of the same row get first-writer-wins `WriteConflict`s.
///
/// ```
/// use std::sync::Arc;
/// use xnf_core::{run_sessions, Database, Value};
///
/// let db = Arc::new(Database::new());
/// db.session()
///     .execute_batch("CREATE TABLE T (id INT, v INT); INSERT INTO T VALUES (1, 10), (2, 20)")
///     .unwrap();
/// let counts = run_sessions(&db, 4, |_, session| {
///     session
///         .query("SELECT COUNT(*) FROM T", &[])
///         .unwrap()
///         .try_table()
///         .unwrap()
///         .rows[0][0]
///         .clone()
/// });
/// assert_eq!(counts, vec![Value::Int(2); 4]);
/// ```
pub fn run_sessions<R, F>(db: &Arc<Database>, sessions: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &Session<'_>) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let db = Arc::clone(db);
                let work = &work;
                scope.spawn(move || {
                    let session = db.session();
                    work(i, &session)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_only_outside_strings() {
        assert_eq!(
            normalize_statement("SELECT  *\n FROM   EMP  WHERE x = 'a  b' ; "),
            "SELECT * FROM EMP WHERE x = 'a  b'"
        );
        assert_eq!(
            normalize_statement("SELECT 1 -- trailing comment\n FROM t"),
            "SELECT 1 FROM t"
        );
        assert_eq!(normalize_statement("  SELECT 1;"), "SELECT 1");
    }

    #[test]
    fn equivalent_spellings_share_a_key() {
        let a = normalize_statement("SELECT * FROM EMP WHERE eno = ?");
        let b = normalize_statement("SELECT *\n  FROM EMP\n  WHERE eno = ?;");
        assert_eq!(a, b);
    }
}
