//! Unit tests for relational materialized views: DDL, planner
//! substitution, direct / grouped / full maintenance, refresh, guards.
//! (CO matview tests live in `tests/matview_equivalence.rs`, which can use
//! the fixture crate; only the ones that step inside a commit or read a
//! workspace's raw streams are here.)

use crate::db::Database;

fn items_db() -> Database {
    let db = Database::new();
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE ITEMS (id INT NOT NULL, grp INT, val INT);
         CREATE TABLE GROUPS (gid INT NOT NULL, flag INT);
         CREATE UNIQUE INDEX items_id ON ITEMS (id);
         CREATE INDEX items_grp ON ITEMS (grp);
         CREATE UNIQUE INDEX groups_gid ON GROUPS (gid);",
    )
    .unwrap();
    for g in 0..10 {
        s.execute(&format!("INSERT INTO GROUPS VALUES ({g}, {})", g % 2), &[])
            .unwrap();
    }
    for i in 0..100 {
        s.execute(
            &format!("INSERT INTO ITEMS VALUES ({i}, {}, {})", i % 10, i * 7 % 50),
            &[],
        )
        .unwrap();
    }
    s.execute("ANALYZE", &[]).unwrap();
    db
}

/// Sorted bag of a query's rows (for content comparison).
fn rows_of(db: &Database, sql: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = db
        .session()
        .query(sql, &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn direct_matview_tracks_dml() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20",
        &[],
    )
    .unwrap();
    let fresh = "SELECT id, val FROM ITEMS WHERE val < 20";
    assert_eq!(rows_of(&db, "SELECT * FROM small"), rows_of(&db, fresh));

    // Inserts in and out of the selection.
    s.execute("INSERT INTO ITEMS VALUES (200, 1, 5), (201, 1, 45)", &[])
        .unwrap();
    // Update moving a row across the predicate boundary both ways.
    s.execute("UPDATE ITEMS SET val = 49 WHERE id = 200", &[])
        .unwrap();
    s.execute("UPDATE ITEMS SET val = 3 WHERE id = 201", &[])
        .unwrap();
    // Delete.
    s.execute("DELETE FROM ITEMS WHERE id = 201", &[]).unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), rows_of(&db, fresh));

    let epoch = db.catalog().matview("small").unwrap().epoch();
    assert!(epoch >= 3, "maintenance bumped the epoch, got {epoch}");
}

#[test]
fn matview_scan_appears_in_explain_and_uses_indexes() {
    let db = items_db();
    db.session()
        .execute(
            "CREATE MATERIALIZED VIEW by_grp AS \
         SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid",
            &[],
        )
        .unwrap();
    let plan = db.explain("SELECT * FROM by_grp WHERE val > 10").unwrap();
    assert!(plan.contains("matview scan(by_grp)"), "got plan:\n{plan}");

    // A grouped view's maintenance index doubles as a point-query access
    // path. (A join view is recomputed and has none.)
    db.session()
        .execute(
            "CREATE MATERIALIZED VIEW grp_n AS \
             SELECT grp, COUNT(*) AS n FROM ITEMS GROUP BY grp",
            &[],
        )
        .unwrap();
    let point = db.explain("SELECT * FROM grp_n WHERE grp = 3").unwrap();
    assert!(
        point.contains("IndexEq(grp_n.mv_key)"),
        "got plan:\n{point}"
    );
}

#[test]
fn keyed_join_matview_tracks_dml_on_both_legs() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW by_grp AS \
         SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid",
        &[],
    )
    .unwrap();
    let fresh = "SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid";
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));

    // Fact-side churn.
    s.execute("INSERT INTO ITEMS VALUES (300, 4, 9)", &[])
        .unwrap();
    s.execute("UPDATE ITEMS SET grp = 5 WHERE id = 300", &[])
        .unwrap();
    s.execute("DELETE FROM ITEMS WHERE id = 17", &[]).unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));

    // Dimension-side churn (affects every row of the group).
    s.execute("UPDATE GROUPS SET flag = 7 WHERE gid = 3", &[])
        .unwrap();
    s.execute("DELETE FROM GROUPS WHERE gid = 9", &[]).unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));
}

#[test]
fn aggregate_matview_falls_back_to_full_recompute() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW grp_counts AS \
         SELECT grp, COUNT(*) AS n FROM ITEMS GROUP BY grp",
        &[],
    )
    .unwrap();
    let fresh = "SELECT grp, COUNT(*) AS n FROM ITEMS GROUP BY grp";
    assert_eq!(
        rows_of(&db, "SELECT * FROM grp_counts"),
        rows_of(&db, fresh)
    );
    s.execute("INSERT INTO ITEMS VALUES (400, 2, 1)", &[])
        .unwrap();
    s.execute("DELETE FROM ITEMS WHERE grp = 7", &[]).unwrap();
    assert_eq!(
        rows_of(&db, "SELECT * FROM grp_counts"),
        rows_of(&db, fresh)
    );
}

/// A grouped view's maintenance nets the delta per group and writes each
/// changed group's row once, as one new version: an exact number of
/// buffer-pool page accesses per statement, view maintenance included.
/// A one-row raise costs 6 (3 without the view), a move between groups 9
/// (3), and a raise of the 20 rows of one group 45 (42). Writing each
/// image's change on its own, in place, cost 9, 9 and 162.
#[test]
fn grouped_maintenance_writes_each_group_once() {
    let db = Database::new();
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE ITEMS (id INT NOT NULL, grp INT, val INT);
         CREATE UNIQUE INDEX items_id ON ITEMS (id);",
    )
    .unwrap();
    for i in 0..200 {
        s.execute(
            &format!("INSERT INTO ITEMS VALUES ({i}, {}, {i})", i % 10),
            &[],
        )
        .unwrap();
    }
    let def = "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM ITEMS GROUP BY grp";
    s.execute(&format!("CREATE MATERIALIZED VIEW per_grp AS {def}"), &[])
        .unwrap();
    let accesses = || {
        let st = db.catalog().buffer_pool().stats();
        st.hits + st.misses
    };
    let mut costs = Vec::new();
    for stmt in [
        "UPDATE ITEMS SET val = val + 1 WHERE id = 5",
        "UPDATE ITEMS SET grp = 3 WHERE id = 6",
        "UPDATE ITEMS SET val = val + 1 WHERE grp = 4",
    ] {
        let before = accesses();
        s.execute(stmt, &[]).unwrap();
        costs.push(accesses() - before);
    }
    assert_eq!(costs, [6, 9, 45]);
    assert_eq!(rows_of(&db, "SELECT * FROM per_grp"), rows_of(&db, def));
    assert_eq!(db.maint_stats().mv_recomputes, 0);
}

#[test]
fn refresh_and_drop_matview() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10",
        &[],
    )
    .unwrap();
    let before = db.catalog().matview("small").unwrap().epoch();
    s.execute("REFRESH MATERIALIZED VIEW small", &[]).unwrap();
    assert!(db.catalog().matview("small").unwrap().epoch() > before);
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        rows_of(&db, "SELECT id FROM ITEMS WHERE val < 10")
    );
    s.execute("DROP MATERIALIZED VIEW small", &[]).unwrap();
    assert!(db.catalog().matview("small").is_none());
    assert!(s.query("SELECT * FROM small", &[]).is_err());
    assert!(s.execute("REFRESH MATERIALIZED VIEW small", &[]).is_err());
}

#[test]
fn dml_against_matview_is_rejected() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10",
        &[],
    )
    .unwrap();
    for stmt in [
        "INSERT INTO small VALUES (1)",
        "UPDATE small SET id = 2",
        "DELETE FROM small",
    ] {
        let err = s.execute(stmt, &[]).unwrap_err().to_string();
        assert!(err.contains("cannot run DML against view"), "{stmt}: {err}");
    }
}

#[test]
fn create_matview_invalidates_cached_plans() {
    let db = items_db();
    let session = db.session();
    let mut q = session.prepare("SELECT COUNT(*) FROM ITEMS").unwrap();
    q.query().unwrap();
    let gen_before = db.catalog().generation();
    session
        .execute(
            "CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10",
            &[],
        )
        .unwrap();
    assert!(db.catalog().generation() > gen_before);
    // Re-executing revalidates against the new generation without error.
    q.query().unwrap();
}

#[test]
fn matviews_maintain_from_committed_deltas_only() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20",
        &[],
    )
    .unwrap();
    let before = rows_of(&db, "SELECT * FROM small");

    // Uncommitted DML must not reach the view: maintenance runs at COMMIT.
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (500, 0, 1)", &[])
        .unwrap();
    session
        .execute("DELETE FROM ITEMS WHERE val < 5", &[])
        .unwrap();
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        before,
        "view must not see uncommitted deltas"
    );
    session.rollback().unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), before);

    // The same work committed does reach the view, matching a full refresh.
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (500, 0, 1)", &[])
        .unwrap();
    session
        .execute("DELETE FROM ITEMS WHERE val < 5", &[])
        .unwrap();
    session.commit().unwrap();
    let incremental = rows_of(&db, "SELECT * FROM small");
    assert_ne!(incremental, before);
    s.execute("REFRESH MATERIALIZED VIEW small", &[]).unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), incremental);
}

#[test]
fn matview_created_mid_transaction_sees_the_commit() {
    // The view is created while a transaction holds uncommitted writes:
    // population cannot see them (they are uncommitted), but the deltas
    // captured before the view existed must still maintain it at COMMIT.
    let db = items_db();
    let s = db.session();
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("INSERT INTO ITEMS VALUES (600, 0, 1)", &[])
        .unwrap();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20",
        &[],
    )
    .unwrap();
    let new_row = vec!["Int(600)".to_string(), "Int(1)".to_string()];
    assert!(
        !rows_of(&db, "SELECT * FROM small").contains(&new_row),
        "population must not see uncommitted rows"
    );
    session.commit().unwrap();
    let committed = rows_of(&db, "SELECT * FROM small");
    assert!(
        committed.contains(&new_row),
        "commit-time maintenance must cover writes made before the view existed"
    );
    s.execute("REFRESH MATERIALIZED VIEW small", &[]).unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM small"), committed);
}

/// Session A reads a view and its definition inside `begin`; session B
/// then commits `write`. A's reads must stay what they were, and the view
/// must equal its definition each time: a view is read under the reader's
/// snapshot like a table. Once A's transaction ends, both show B's commit.
fn assert_read_under_snapshot<T: PartialEq + std::fmt::Debug>(
    db: &Database,
    read: impl Fn(&crate::Session) -> (T, T),
    write: &str,
) {
    let (a, b) = (db.session(), db.session());
    let before = read(&a);
    a.begin().unwrap();
    let (view, definition) = read(&a);
    assert_eq!(view, definition, "view != definition at begin");
    b.execute(write, &[]).unwrap();
    assert_eq!(
        read(&a),
        (view, definition),
        "`{write}` committed by another session moved this transaction's reads"
    );
    a.commit().unwrap();
    let (view, definition) = read(&a);
    assert_eq!(view, definition, "view != definition after `{write}`");
    assert_ne!((view, definition), before, "`{write}` changed nothing");
}

/// `SELECT` rows of `sql` in `session`'s scope, sorted.
fn session_rows(session: &crate::Session, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = session
        .query(sql, &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_direct_view_reads_under_the_transactions_snapshot() {
    let db = items_db();
    let def = "SELECT id, val FROM ITEMS WHERE val < 20";
    db.session()
        .execute(&format!("CREATE MATERIALIZED VIEW small AS {def}"), &[])
        .unwrap();
    assert_read_under_snapshot(
        &db,
        |s| (session_rows(s, "SELECT * FROM small"), session_rows(s, def)),
        "INSERT INTO ITEMS VALUES (700, 3, 1)",
    );
}

#[test]
fn a_grouped_view_reads_under_the_transactions_snapshot() {
    let db = items_db();
    let def = "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM ITEMS GROUP BY grp";
    db.session()
        .execute(&format!("CREATE MATERIALIZED VIEW per_grp AS {def}"), &[])
        .unwrap();
    assert_read_under_snapshot(
        &db,
        |s| {
            (
                session_rows(s, "SELECT * FROM per_grp"),
                session_rows(s, def),
            )
        },
        "INSERT INTO ITEMS VALUES (701, 10, 4)",
    );
}

#[test]
fn a_stored_co_fetch_reads_under_the_transactions_snapshot() {
    let db = deps_db();
    let def = db.catalog().view("deps").unwrap().text;
    let emps = |s: &crate::Session, co: &str| {
        let ws = s.fetch_co(co).unwrap().workspace;
        let mut rows: Vec<String> = ws
            .independent("xemp")
            .unwrap()
            .map(|t| format!("{:?}", t.values()))
            .collect();
        rows.sort();
        rows
    };
    assert_read_under_snapshot(
        &db,
        |s| (emps(s, "deps"), emps(s, &def)),
        "INSERT INTO EMP VALUES (4, 'zoe', 1, 400)",
    );
}

/// A maintenance error fails the commit and rolls the whole transaction
/// back: the base row, and the rows maintenance wrote to the views it
/// reached before the error, are gone. `cheap` maintains in place before
/// `quotients` recomputes and divides by zero. The next commit maintains
/// both views.
#[test]
fn a_maintenance_error_aborts_the_committing_transaction() {
    let db = items_db();
    let s = db.session();
    let cheap = "SELECT id, val FROM ITEMS WHERE val < 20";
    let quotients = "SELECT id, 1000 / (val + 1) AS q FROM ITEMS";
    for (name, def) in [("cheap", cheap), ("quotients", quotients)] {
        s.execute(&format!("CREATE MATERIALIZED VIEW {name} AS {def}"), &[])
            .unwrap();
    }
    let contents = || {
        [
            "SELECT * FROM ITEMS",
            "SELECT * FROM cheap",
            "SELECT * FROM quotients",
        ]
        .map(|q| rows_of(&db, q))
    };
    let before = contents();
    let counters = db.maint_stats();

    s.begin().unwrap();
    s.execute("INSERT INTO ITEMS VALUES (300, 1, -1)", &[])
        .unwrap();
    let err = s.commit().unwrap_err().to_string();
    assert!(err.contains("division by zero"), "{err}");
    assert!(!s.in_transaction());
    assert_eq!(contents(), before, "the failed commit left a trace");
    assert_eq!(db.maint_stats().mv_recomputes, counters.mv_recomputes);

    s.execute("INSERT INTO ITEMS VALUES (301, 1, 5)", &[])
        .unwrap();
    assert_eq!(rows_of(&db, "SELECT * FROM cheap"), rows_of(&db, cheap));
    assert_eq!(
        rows_of(&db, "SELECT * FROM quotients"),
        rows_of(&db, quotients)
    );
    assert_eq!(
        rows_of(&db, "SELECT * FROM ITEMS").len(),
        before[0].len() + 1
    );
    assert_eq!(db.maint_stats().mv_recomputes, counters.mv_recomputes + 1);
}

#[test]
fn drop_table_with_dependent_matview_is_rejected() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id FROM ITEMS WHERE val < 10",
        &[],
    )
    .unwrap();
    let err = s.execute("DROP TABLE ITEMS", &[]).unwrap_err().to_string();
    assert!(
        err.contains("materialized view 'small' depends on it"),
        "{err}"
    );
    // GROUPS is not a dependency; dropping it is fine.
    s.execute("DROP TABLE GROUPS", &[]).unwrap();
    // After dropping the view the table goes too.
    s.execute("DROP MATERIALIZED VIEW small", &[]).unwrap();
    s.execute("DROP TABLE ITEMS", &[]).unwrap();
}

#[test]
fn dml_equality_with_null_matches_nothing_even_with_index() {
    let db = items_db();
    let session = db.session();
    session
        .execute("INSERT INTO ITEMS (id, val) VALUES (700, 1)", &[])
        .unwrap();
    // grp is NULL for row 700 and ITEMS.grp is indexed: `grp = NULL` must
    // not take the index's NULL postings (three-valued logic).
    assert_eq!(
        session
            .execute("UPDATE ITEMS SET val = 9 WHERE grp = NULL", &[])
            .unwrap()
            .affected(),
        0
    );
    assert_eq!(
        session
            .execute("DELETE FROM ITEMS WHERE grp = NULL", &[])
            .unwrap()
            .affected(),
        0
    );
    // Nor does a `grp = ?` probe bound to NULL.
    assert_eq!(
        session
            .execute(
                "DELETE FROM ITEMS WHERE grp = ? AND id > 0",
                &[xnf_storage::Value::Null],
            )
            .unwrap()
            .affected(),
        0
    );
    let n = session
        .query("SELECT COUNT(*) FROM ITEMS WHERE id = 700", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n, 1, "the NULL-grp row survived");
}

#[test]
fn failed_multi_row_dml_applies_no_row_and_leaves_views_alone() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW small AS SELECT id, val FROM ITEMS WHERE val < 20",
        &[],
    )
    .unwrap();
    // The second row violates the unique index on id: the autocommit
    // statement is atomic, so its first row is rolled back with it and the
    // view never sees either.
    let err = s.execute("INSERT INTO ITEMS VALUES (800, 1, 5), (800, 1, 6)", &[]);
    assert!(err.is_err());
    assert!(rows_of(&db, "SELECT * FROM ITEMS WHERE id = 800").is_empty());
    assert_eq!(
        rows_of(&db, "SELECT * FROM small"),
        rows_of(&db, "SELECT id, val FROM ITEMS WHERE val < 20"),
    );
}

/// A join view recomputes on every commit that touches a leg, and the
/// recompute compiles its definition through the shared plan cache: once
/// the catalog settles, each one-row update adds exactly one hit (the
/// prepared UPDATE itself does not look the cache up again).
#[test]
fn join_view_recompute_hits_the_plan_cache() {
    let db = items_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW by_grp AS \
         SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid",
        &[],
    )
    .unwrap();
    let mut raise = s
        .prepare("UPDATE ITEMS SET val = val + 1 WHERE id = ?")
        .unwrap();
    raise.execute_with(&[xnf_storage::Value::Int(0)]).unwrap();
    let mut hits = Vec::new();
    for id in 1..=5 {
        let before = db.plan_cache_stats().hits;
        raise.execute_with(&[xnf_storage::Value::Int(id)]).unwrap();
        hits.push(db.plan_cache_stats().hits - before);
    }
    assert_eq!(hits, vec![1; 5]);
    assert_eq!(db.maint_stats().mv_recomputes, 6);
    let fresh = "SELECT i.grp, i.id, i.val, g.flag FROM ITEMS i, GROUPS g WHERE i.grp = g.gid";
    assert_eq!(rows_of(&db, "SELECT * FROM by_grp"), rows_of(&db, fresh));
}

/// The Fig. 1 departments and employees under a materialized CO view
/// `deps` (DEPT 0 with employee 1, DEPT 1 with employees 2 and 3), and a
/// reader of its stored employee rows.
fn deps_db() -> Database {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(20));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(20), edno INT, sal INT);
         CREATE UNIQUE INDEX dept_pk ON DEPT (dno);
         CREATE UNIQUE INDEX emp_pk ON EMP (eno);
         CREATE INDEX emp_dno ON EMP (edno);
         INSERT INTO DEPT VALUES (0, 'tools'), (1, 'apps');
         INSERT INTO EMP VALUES (1, 'mia', 0, 100), (2, 'ben', 1, 200), (3, 'ana', 1, 300);
         CREATE MATERIALIZED VIEW deps AS
           OUT OF xdept AS DEPT, xemp AS EMP,
                  employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
           TAKE *",
        )
        .unwrap();
    db
}

/// Sorted `(dname, employee row)` pairs of the stored `deps` view.
fn stored_emps(db: &Database) -> Vec<String> {
    let co = db.session().fetch_co("deps").unwrap();
    let mut rows: Vec<String> = co
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|t| {
            let dept: Vec<String> = t
                .parents("employment")
                .unwrap()
                .map(|d| format!("{:?}", d.values()[1]))
                .collect();
            format!("{dept:?} {:?}", t.values())
        })
        .collect();
    rows.sort();
    rows
}

/// Run the `pending` statements in one open transaction, then
/// `interposed` in autocommit, then `pending`'s commit: lock, `maintain`
/// and stamp, as `Database::commit_active` runs them. Through the public
/// API a commit's statements and its maintenance run back to back, so this
/// is the one way to land a commit between them. The interposed commit
/// must have written in place (`mv_nodes_rewritten` +1), and the stored
/// view, as `read` sees it, must then equal a REFRESH. Returns what `read`
/// saw.
fn pending_extraction_outrun_by(
    db: &Database,
    pending: &str,
    interposed: &str,
    read: fn(&Database) -> Vec<String>,
) -> Vec<String> {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use xnf_exec::Params;

    use crate::matview::maintain;
    use crate::session::ActiveTxn;

    let autocommit = db.session();
    let slot = Arc::new(Mutex::new(Some(ActiveTxn::begin(db))));
    for stmt in xnf_sql::parse_statements(pending).unwrap() {
        db.execute_stmt_scoped(&stmt, &Params::default(), &slot)
            .unwrap();
    }
    let active = slot.lock().take().unwrap();
    let delta = active.delta.coalesce();

    let rewritten = db.maint_stats().mv_nodes_rewritten;
    autocommit.execute(interposed, &[]).unwrap();
    assert_eq!(
        db.maint_stats().mv_nodes_rewritten,
        rewritten + 1,
        "`{interposed}` writes one node in place"
    );

    // The pending commit.
    db.commit_with(active.txn, |txn| maintain(db, txn, &delta))
        .unwrap();

    let incremental = read(db);
    autocommit
        .execute("REFRESH MATERIALIZED VIEW deps", &[])
        .unwrap();
    assert_eq!(
        incremental,
        read(db),
        "`{interposed}` under pending `{pending}`: stored CO diverged from REFRESH"
    );
    incremental
}

/// A commit that removes a node after an in-place rewrite keeps the
/// rewrite. Transaction B deletes employee 3 of department 1. Before B
/// commits, an autocommit raises employee 2 of the same department, which
/// rewrites that stored node in place. B's edits are classified under the
/// lock, after the raise; a department-1 subtree taken from B's own
/// snapshot would write the old salary back.
#[test]
fn in_place_rewrite_invalidates_a_pending_pre_lock_extraction() {
    let db = deps_db();
    let incremental = pending_extraction_outrun_by(
        &db,
        "DELETE FROM EMP WHERE eno = 3",
        "UPDATE EMP SET sal = sal + 5 WHERE eno = 2",
        stored_emps,
    );
    assert!(
        incremental.iter().any(|r| r.contains("205")),
        "{incremental:?}"
    );
}

/// An in-place hire, and then an in-place move, each survive a pending
/// removal in the department they touch: a subtree of department 1 taken
/// before them would delete the hired or moved employee's node.
#[test]
fn in_place_hire_and_move_invalidate_a_pending_pre_lock_extraction() {
    let db = deps_db();
    let hired = pending_extraction_outrun_by(
        &db,
        "DELETE FROM EMP WHERE eno = 3",
        "INSERT INTO EMP VALUES (4, 'zoe', 1, 400)",
        stored_emps,
    );
    assert!(
        hired
            .iter()
            .any(|r| r.contains("zoe") && r.contains("apps")),
        "{hired:?}"
    );
    let moved = pending_extraction_outrun_by(
        &db,
        "DELETE FROM EMP WHERE eno = 2",
        "UPDATE EMP SET edno = 1 WHERE eno = 1",
        stored_emps,
    );
    assert!(
        moved
            .iter()
            .any(|r| r.contains("mia") && r.contains("apps")),
        "{moved:?}"
    );
}

/// DEPT → EMP → SKILLS (through EMPSKILLS) under a materialized CO view
/// `deps`, with SKILLS keyed by `skills_pk`. Employee 1 (department 0)
/// links skill 10, employee 2 (department 1) links skill 20, and
/// employee 3 works in department 0 and has no skills.
fn skilled_deps_db() -> Database {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(20));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(20), edno INT, sal INT);
         CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(20));
         CREATE TABLE EMPSKILLS (eseno INT, essno INT);
         CREATE UNIQUE INDEX dept_pk ON DEPT (dno);
         CREATE UNIQUE INDEX emp_pk ON EMP (eno);
         CREATE INDEX emp_dno ON EMP (edno);
         CREATE UNIQUE INDEX skills_pk ON SKILLS (sno);
         CREATE INDEX es_eno ON EMPSKILLS (eseno);
         INSERT INTO DEPT VALUES (0, 'tools'), (1, 'apps');
         INSERT INTO EMP VALUES (1, 'mia', 0, 100), (2, 'ben', 1, 200), (3, 'ana', 0, 300);
         INSERT INTO SKILLS VALUES (10, 'rust'), (20, 'sql');
         INSERT INTO EMPSKILLS VALUES (1, 10), (2, 20);
         CREATE MATERIALIZED VIEW deps AS
           OUT OF xdept AS DEPT, xemp AS EMP, xskills AS SKILLS,
                  employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
                  empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                                  WHERE xemp.eno = es.eseno AND es.essno = xskills.sno)
           TAKE *",
        )
        .unwrap();
    db
}

/// Sorted `(skill row, linking employees)` pairs of the stored `deps` view.
fn stored_skills(db: &Database) -> Vec<String> {
    let co = db.session().fetch_co("deps").unwrap();
    let mut rows: Vec<String> = co
        .workspace
        .independent("xskills")
        .unwrap()
        .map(|t| {
            let mut emps: Vec<String> = t
                .parents("empproperty")
                .unwrap()
                .map(|e| format!("{:?}", e.values()[0]))
                .collect();
            emps.sort();
            format!("{:?} {emps:?}", t.values())
        })
        .collect();
    rows.sort();
    rows
}

/// A pending commit must not write a linked node's old values back.
/// Transaction B deletes employee 3 (department 0) and links employee 1 to
/// skill 20. Before B commits, an autocommit renames skill 20, which
/// rewrites its one stored node (under employee 2, department 1) in place.
/// B's link must then find that node by its key: a copy of skill 20 read
/// from B's snapshot holds `'sql'`, and storing it would make a second
/// skill-20 node.
#[test]
fn pending_splice_keeps_one_node_for_a_relinked_rewritten_skill() {
    let db = skilled_deps_db();
    let skills = pending_extraction_outrun_by(
        &db,
        "DELETE FROM EMP WHERE eno = 3; INSERT INTO EMPSKILLS VALUES (1, 20)",
        "UPDATE SKILLS SET sname = 'sql2' WHERE sno = 20",
        stored_skills,
    );
    let twenty: Vec<&String> = skills
        .iter()
        .filter(|r| r.starts_with("[Int(20),"))
        .collect();
    assert_eq!(twenty.len(), 1, "one skill-20 node: {skills:?}");
    assert!(
        twenty[0].contains("sql2") && twenty[0].contains("Int(1)") && twenty[0].contains("Int(2)"),
        "{skills:?}"
    );
}

/// A point fetch reads a department's nodes in the same order every time.
#[test]
fn point_fetch_streams_repeat_in_order() {
    let db = deps_db();
    let s = db.session();
    for e in 10..40 {
        s.execute(
            &format!("INSERT INTO EMP VALUES ({e}, 'e{e}', 1, {e})"),
            &[],
        )
        .unwrap();
    }
    let key = xnf_storage::Value::Int(1);
    let streams = |db: &Database| {
        let ws = db.fetch_co_point("deps", &key).unwrap().workspace;
        let nodes: Vec<_> = ws.components.iter().map(|c| c.rows.clone()).collect();
        let conns: Vec<_> = ws
            .relationships
            .iter()
            .map(|r| r.connections().to_vec())
            .collect();
        (nodes, conns)
    };
    let first = streams(&db);
    assert_eq!(first.0[1].len(), 32, "department 1's employees");
    for _ in 1..20 {
        assert_eq!(streams(&db), first);
    }
}
