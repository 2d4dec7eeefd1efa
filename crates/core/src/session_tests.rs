//! Tests for the Session API: prepared statements, parameter binding, the
//! shared plan cache and its DDL-generation invalidation.

use xnf_exec::Params;
use xnf_storage::Value;

use crate::co::CoCache;
use crate::db::Database;
use crate::error::XnfError;
use crate::session::{CompiledStmt, TxnSlot, PLAN_CACHE_CAPACITY};

fn emp_db() -> Database {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE DEPT (dno INT, dname VARCHAR(20), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT, ename VARCHAR(20), edno INT);
         INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'apps', 'HDC');
         INSERT INTO EMP VALUES (10, 'mia', 1), (11, 'ben', 2), (12, 'ana', 1)",
        )
        .unwrap();
    db
}

#[test]
fn prepared_select_executes_many_without_recompiling() {
    let db = emp_db();
    let session = db.session();
    let compiles_before = db.plan_cache_stats().compiles;

    let mut p = session
        .prepare("SELECT ename FROM EMP WHERE eno = ?")
        .unwrap();
    assert_eq!(p.param_count(), 1);

    p.bind(&[Value::Int(10)]).unwrap();
    let r1 = p.query().unwrap();
    assert_eq!(
        r1.try_table().unwrap().rows,
        vec![vec![Value::Str("mia".into())]]
    );

    p.bind(&[Value::Int(11)]).unwrap();
    let r2 = p.query().unwrap();
    assert_eq!(
        r2.try_table().unwrap().rows,
        vec![vec![Value::Str("ben".into())]]
    );

    // One compilation covered both executions.
    assert_eq!(db.plan_cache_stats().compiles, compiles_before + 1);

    // A second prepare of the same text (any spelling) is a cache hit.
    let p2 = session
        .prepare("SELECT ename\n  FROM EMP WHERE eno = ?;")
        .unwrap();
    assert_eq!(p2.param_count(), 1);
    let stats = session.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(db.plan_cache_stats().compiles, compiles_before + 1);
}

#[test]
fn prepared_point_query_uses_an_index() {
    let db = emp_db();
    db.session()
        .execute("CREATE INDEX emp_eno ON EMP (eno)", &[])
        .unwrap();
    let plan = db.explain("SELECT * FROM EMP WHERE eno = ?").unwrap();
    assert!(
        plan.contains("IndexEq"),
        "parameterized point query should use the index:\n{plan}"
    );
}

#[test]
fn prepared_co_query_binds_params() {
    let db = emp_db();
    let session = db.session();
    let compiles_before = db.plan_cache_stats().compiles;

    let mut p = session
        .prepare(
            "OUT OF xdept AS (SELECT * FROM DEPT),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp
                                   WHERE xdept.dno = xemp.edno)
             TAKE * WHERE xdept.loc = ?",
        )
        .unwrap();
    assert_eq!(p.param_count(), 1);

    p.bind(&[Value::Str("ARC".into())]).unwrap();
    let arc = p.query().unwrap();
    let arc_emps: Vec<i64> = arc
        .stream("xemp")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(arc_emps, vec![10, 12]);

    p.bind(&[Value::Str("HDC".into())]).unwrap();
    let hdc = p.query().unwrap();
    let hdc_emps: Vec<i64> = hdc
        .stream("xemp")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(hdc_emps, vec![11]);

    // Same compiled plan served both CO extractions.
    assert_eq!(db.plan_cache_stats().compiles, compiles_before + 1);

    // The prepared CO loads straight into the client-side cache too.
    p.bind(&[Value::Str("ARC".into())]).unwrap();
    let co = p.fetch_co().unwrap();
    assert_eq!(co.workspace.component("xdept").unwrap().len(), 1);
    assert_eq!(co.workspace.component("xemp").unwrap().len(), 2);
}

#[test]
fn parameterized_co_cache_refreshes_under_its_bindings() {
    let db = emp_db();
    let session = db.session();
    let mut p = session
        .prepare(
            "OUT OF xdept AS (SELECT * FROM DEPT),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp
                                   WHERE xdept.dno = xemp.edno)
             TAKE * WHERE xdept.loc = ?",
        )
        .unwrap();
    p.bind(&[Value::Str("ARC".into())]).unwrap();
    let mut co = p.fetch_co().unwrap();
    assert_eq!(co.workspace.component("xemp").unwrap().len(), 2);

    // New data arrives; refresh must re-execute under the ARC binding.
    session
        .execute("INSERT INTO EMP VALUES (15, 'joy', 1)", &[])
        .unwrap();
    co.refresh(&session).unwrap();
    assert_eq!(co.workspace.component("xemp").unwrap().len(), 3);

    // Session's one-shot fetch_co / query refuse unbound parameters with an
    // API error instead of a deep runtime binding failure.
    let text = "OUT OF xemp AS (SELECT * FROM EMP) TAKE * WHERE xemp.edno = ?";
    let err = match session.fetch_co(text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("fetch_co with unbound parameter must fail"),
    };
    assert!(err.contains("unbound parameter"), "got: {err}");
    let err = session.query(text, &[]).unwrap_err().to_string();
    assert!(err.contains("unbound parameter"), "got: {err}");
}

#[test]
fn plan_cache_invalidates_on_ddl() {
    let db = emp_db();
    let session = db.session();
    let mut p = session.prepare("SELECT * FROM EMP").unwrap();
    let before = p.query().unwrap();
    assert_eq!(
        before.try_table().unwrap().columns,
        vec!["eno", "ename", "edno"]
    );
    assert_eq!(before.try_table().unwrap().rows.len(), 3);

    // Drop and recreate EMP with a different schema: the prepared handle
    // must recompile, not replay the stale 3-column plan.
    session.execute("DROP TABLE EMP", &[]).unwrap();
    session
        .execute(
            "CREATE TABLE EMP (eno INT, ename VARCHAR(20), sal DOUBLE, active BOOLEAN)",
            &[],
        )
        .unwrap();
    session
        .execute("INSERT INTO EMP VALUES (20, 'zoe', 95.5, TRUE)", &[])
        .unwrap();

    let invalidations_before = db.plan_cache_stats().invalidations;
    let after = p.query().unwrap();
    assert_eq!(
        after.try_table().unwrap().columns,
        vec!["eno", "ename", "sal", "active"]
    );
    assert_eq!(
        after.try_table().unwrap().rows,
        vec![vec![
            Value::Int(20),
            Value::Str("zoe".into()),
            Value::Double(95.5),
            Value::Bool(true),
        ]]
    );
    assert!(db.plan_cache_stats().invalidations > invalidations_before);

    // Session's one-shot query sees the new schema through the cache as well.
    assert_eq!(
        session
            .query("SELECT * FROM EMP", &[])
            .unwrap()
            .try_table()
            .unwrap()
            .columns
            .len(),
        4
    );
}

#[test]
fn one_shot_calls_share_the_plan_cache() {
    let db = emp_db();
    let h0 = db.plan_cache_stats().hits;
    // Each call runs in its own fresh session: the hits cross sessions.
    db.session().query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    db.session()
        .query("SELECT  COUNT(*)  FROM EMP", &[])
        .unwrap(); // same key after normalization
    db.session().query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert!(db.plan_cache_stats().hits >= h0 + 2);
}

#[test]
fn parameterized_dml_round_trips() {
    let db = emp_db();
    let session = db.session();

    let mut ins = session.prepare("INSERT INTO EMP VALUES (?, ?, ?)").unwrap();
    assert_eq!(ins.param_count(), 3);
    for (eno, name, dno) in [(13, "kim", 2), (14, "lou", 1)] {
        let out = ins
            .execute_with(&[Value::Int(eno), Value::Str(name.into()), Value::Int(dno)])
            .unwrap();
        assert_eq!(out.affected(), 1);
    }

    let mut upd = session
        .prepare("UPDATE EMP SET edno = ? WHERE eno = ?")
        .unwrap();
    assert_eq!(
        upd.execute_with(&[Value::Int(2), Value::Int(14)])
            .unwrap()
            .affected(),
        1
    );

    let mut del = session.prepare("DELETE FROM EMP WHERE edno = ?").unwrap();
    assert_eq!(del.execute_with(&[Value::Int(2)]).unwrap().affected(), 3);

    let left: Vec<i64> = session
        .query("SELECT eno FROM EMP ORDER BY eno", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(left, vec![10, 12]);
}

/// INSERT, UPDATE and DELETE compile once, into what execution runs:
/// prepared handles compile each statement once over many executions, and
/// an execution reads nothing of the statement's AST. Run with an AST that
/// names a missing table, the compiled body still writes its row.
#[test]
fn prepared_dml_compiles_once_and_runs_without_its_ast() {
    let db = emp_db();
    let session = db.session();
    let compiles = db.plan_cache_stats().compiles;
    let mut ins = session.prepare("INSERT INTO EMP VALUES (?, ?, ?)").unwrap();
    let mut upd = session
        .prepare("UPDATE EMP SET edno = edno + 1 WHERE eno = ?")
        .unwrap();
    let mut del = session.prepare("DELETE FROM EMP WHERE eno = ?").unwrap();
    for eno in 20..25 {
        let row = [Value::Int(eno), Value::Str("new".into()), Value::Int(1)];
        assert_eq!(ins.execute_with(&row).unwrap().affected(), 1);
        assert_eq!(upd.execute_with(&[Value::Int(eno)]).unwrap().affected(), 1);
    }
    for eno in 20..25 {
        assert_eq!(del.execute_with(&[Value::Int(eno)]).unwrap().affected(), 1);
    }
    assert_eq!(db.plan_cache_stats().compiles, compiles + 3);

    let (compiled, _) = db
        .compile_cached("UPDATE EMP SET ename = 'max' WHERE eno = 10")
        .unwrap();
    let hollow = CompiledStmt {
        stmt: xnf_sql::parse_statement("DELETE FROM NOPE").unwrap(),
        body: compiled.body.clone(),
        co_schema: None,
        n_params: 0,
        generation: compiled.generation,
    };
    let out = db
        .execute_compiled_scoped(&hollow, Params::default(), &TxnSlot::default())
        .unwrap();
    assert_eq!(out.affected(), 1);
    let name = session
        .query("SELECT ename FROM EMP WHERE eno = 10", &[])
        .unwrap();
    assert_eq!(
        name.try_table().unwrap().rows,
        vec![vec![Value::Str("max".into())]]
    );
}

/// DML the front end cannot run row by row over its target, or that names
/// something that does not exist, fails typed on the cached and the batch
/// path alike, and writes no row.
#[test]
fn dml_refusals_fail_typed_and_write_nothing() {
    let db = emp_db();
    let session = db.session();
    session
        .execute(
            "CREATE VIEW arc AS SELECT * FROM DEPT WHERE loc = 'ARC'",
            &[],
        )
        .unwrap();
    let snapshot = |table: &str| {
        session
            .query(&format!("SELECT * FROM {table} ORDER BY 1"), &[])
            .unwrap()
            .try_table()
            .unwrap()
            .rows
            .clone()
    };
    let before = (snapshot("EMP"), snapshot("DEPT"));
    for stmt in [
        // A subquery or an aggregate in WHERE, SET or VALUES.
        "UPDATE EMP SET edno = 3 WHERE edno IN (SELECT dno FROM DEPT)",
        "DELETE FROM EMP WHERE EXISTS (SELECT * FROM DEPT WHERE dno = edno)",
        "UPDATE EMP SET ename = 'x' WHERE eno > (SELECT MAX(dno) FROM DEPT)",
        "DELETE FROM EMP WHERE COUNT(*) > 0",
        "UPDATE EMP SET edno = COUNT(*)",
        "UPDATE EMP SET edno = SUM(eno) WHERE eno = 10",
        "INSERT INTO EMP VALUES (13, 'kim', COUNT(*))",
        "UPDATE EMP SET edno = 1 IN (SELECT dno FROM DEPT)",
        "INSERT INTO EMP VALUES (13, 'kim', 1 IN (SELECT dno FROM DEPT))",
        // A view name.
        "UPDATE arc SET loc = 'X'",
        "DELETE FROM arc",
        "INSERT INTO arc VALUES (3, 'x', 'y')",
        // An unknown column.
        "UPDATE EMP SET nope = 1",
        "UPDATE EMP SET edno = nope",
        "DELETE FROM EMP WHERE nope = 1",
        "INSERT INTO EMP (eno, nope) VALUES (13, 1)",
        "INSERT INTO EMP VALUES (13, 'kim', nope)",
    ] {
        for err in [
            session.execute(stmt, &[]).unwrap_err(),
            session.execute_batch(stmt).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    XnfError::Api(_)
                        | XnfError::Parse(_)
                        | XnfError::Semantic(_)
                        | XnfError::Storage(_)
                ),
                "{stmt}: {err:?}"
            );
        }
    }
    assert_eq!((snapshot("EMP"), snapshot("DEPT")), before);
}

/// DML coerces an INT written to a DOUBLE column on SET and on INSERT,
/// literal or bound, and inside `begin` it finds the transaction's own
/// writes, by index probe and by scan.
#[test]
fn dml_coerces_ints_and_sees_its_transactions_writes() {
    let db = emp_db();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE PAY (eno INT, amount DOUBLE);
             CREATE INDEX pay_eno ON PAY (eno);
             INSERT INTO PAY VALUES (10, 1)",
        )
        .unwrap();
    session
        .prepare("INSERT INTO PAY VALUES (?, ?)")
        .unwrap()
        .execute_with(&[Value::Int(11), Value::Int(2)])
        .unwrap();
    session
        .execute("UPDATE PAY SET amount = ? WHERE eno = 11", &[Value::Int(3)])
        .unwrap();
    session
        .execute("UPDATE PAY SET amount = eno WHERE eno = 10", &[])
        .unwrap();
    let amounts = |session: &crate::Session<'_>| {
        session
            .query("SELECT eno, amount FROM PAY ORDER BY eno", &[])
            .unwrap()
            .try_table()
            .unwrap()
            .rows
            .clone()
    };
    assert_eq!(
        amounts(&session),
        vec![
            vec![Value::Int(10), Value::Double(10.0)],
            vec![Value::Int(11), Value::Double(3.0)],
        ]
    );

    session.begin().unwrap();
    session
        .execute("INSERT INTO PAY VALUES (12, 4)", &[])
        .unwrap();
    for (stmt, affected) in [
        ("UPDATE PAY SET amount = amount + 1 WHERE eno = 12", 1),
        ("UPDATE PAY SET amount = amount * 2 WHERE amount > 4", 2),
        ("DELETE FROM PAY WHERE eno = 10", 1),
    ] {
        let out = session.execute(stmt, &[]).unwrap();
        assert_eq!(out.affected(), affected, "{stmt}");
    }
    assert_eq!(
        amounts(&session),
        vec![
            vec![Value::Int(11), Value::Double(3.0)],
            vec![Value::Int(12), Value::Double(10.0)],
        ]
    );
    session.rollback().unwrap();
    assert_eq!(amounts(&session).len(), 2);
}

#[test]
fn bind_arity_is_checked() {
    let db = emp_db();
    let session = db.session();
    let mut p = session
        .prepare("SELECT * FROM EMP WHERE eno = ? AND edno = ?")
        .unwrap();
    assert_eq!(p.param_count(), 2);
    assert!(p.bind(&[Value::Int(1)]).is_err());
    assert!(p.execute().is_err(), "executing with no bindings must fail");
    p.bind(&[Value::Int(10), Value::Int(1)]).unwrap();
    assert_eq!(p.query().unwrap().try_table().unwrap().rows.len(), 1);

    // Session's one-shot query / execute refuse unbound parameters instead
    // of mis-executing.
    assert!(session
        .query("SELECT * FROM EMP WHERE eno = ?", &[])
        .is_err());
    assert!(session
        .execute("DELETE FROM EMP WHERE eno = ?", &[])
        .is_err());
}

#[test]
fn lru_keeps_the_cache_bounded() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE T (a INT)", &[]).unwrap();
    for i in 0..PLAN_CACHE_CAPACITY + 20 {
        s.query(&format!("SELECT a FROM T WHERE a = {i}"), &[])
            .unwrap();
    }
    assert!(db.plan_cache_len() <= PLAN_CACHE_CAPACITY);
    assert!(db.plan_cache_stats().evictions >= 20);
}

#[test]
fn try_rows_reports_non_query_outcomes() {
    let db = Database::new();
    let s = db.session();
    let out = s.execute("CREATE TABLE T (a INT)", &[]).unwrap();
    assert!(out.try_rows().is_err());
    let out = s.execute("INSERT INTO T VALUES (1)", &[]).unwrap();
    assert!(out.try_rows().is_err());
    let out = s.execute("SELECT * FROM T", &[]).unwrap();
    assert_eq!(out.try_rows().unwrap().try_table().unwrap().rows.len(), 1);
}

#[test]
fn typed_tuple_accessors_strip_quoting() {
    let db = emp_db();
    let s = db.session();
    s.execute("CREATE TABLE SAL (eno INT, amount DOUBLE)", &[])
        .unwrap();
    s.execute("INSERT INTO SAL VALUES (10, 101.5)", &[])
        .unwrap();
    let co = s
        .fetch_co(
            "OUT OF xemp AS EMP, xsal AS SAL,
                    pay AS (RELATE xemp VIA EARNS, xsal WHERE xemp.eno = xsal.eno)
             TAKE *",
        )
        .unwrap();
    let emp = co.workspace.independent("xemp").unwrap().next().unwrap();
    assert_eq!(emp.get_str("ename").unwrap(), "mia");
    assert_eq!(emp.get_int("eno").unwrap(), 10);
    let sal = emp.children("pay").unwrap().next().unwrap();
    assert_eq!(sal.get_f64("amount").unwrap(), 101.5);
    // Wrong-type and missing-column accesses fail cleanly.
    assert!(emp.get_str("eno").is_err());
    assert!(emp.get_int("nope").is_err());
}

#[test]
fn vacuum_runs_inside_and_outside_transactions() {
    let db = emp_db();
    let autocommit = db.session();
    for i in 0..10 {
        autocommit
            .execute(
                &format!("UPDATE EMP SET ename = 'x{i}' WHERE eno = 10"),
                &[],
            )
            .unwrap();
    }

    // Inside an open transaction: the session's own registered snapshot
    // holds the watermark, so VACUUM runs but must not disturb the
    // transaction's reads (its snapshot predates the churn below).
    let session = db.session();
    session.begin().unwrap();
    let before = session
        .query("SELECT ename FROM EMP WHERE eno = 10", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    autocommit
        .execute("UPDATE EMP SET ename = 'later' WHERE eno = 10", &[])
        .unwrap();
    let report = session.query("VACUUM", &[]).unwrap();
    assert_eq!(
        report.try_table().unwrap().columns[0],
        "table",
        "VACUUM returns its report stream through the session path"
    );
    let after = session
        .query("SELECT ename FROM EMP WHERE eno = 10", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(
        before, after,
        "VACUUM disturbed an open transaction's reads"
    );
    session.commit().unwrap();

    // Outside any transaction the backlog fully reclaims.
    let result = autocommit
        .execute("VACUUM EMP", &[])
        .unwrap()
        .try_rows()
        .unwrap();
    assert!(result.stats.gc_versions_reclaimed > 0);
    let t = db.catalog().table("EMP").unwrap();
    assert_eq!(
        t.version_census().unwrap().total_versions,
        3,
        "one version per live EMP row after vacuum"
    );

    // Session's one-shot query returns the same report stream.
    let report = autocommit.query("VACUUM", &[]).unwrap();
    assert_eq!(report.try_table().unwrap().columns[0], "table");
}

/// A heap that only ever receives inserts builds no reclaim pressure, but
/// its unfrozen headers pin the commit-stamp table; the opportunistic
/// vacuum freezes it once the stamps it pins reach their share of the
/// threshold, so the table stays bounded under a write storm elsewhere.
/// Selecting heaps by dead versions alone left 2 002 stamps here.
#[test]
fn auto_vacuum_freezes_an_insert_only_heap() {
    let db = Database::with_config(crate::db::DbConfig {
        auto_vacuum_threshold: 8,
        ..Default::default()
    });
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE T (a INT); CREATE TABLE U (k INT, v INT);
             INSERT INTO U VALUES (1, 0); INSERT INTO T VALUES (1)",
        )
        .unwrap();
    let mut update = session
        .prepare("UPDATE U SET v = v + 1 WHERE k = 1")
        .unwrap();
    let mut most = 0;
    for _ in 0..2_000 {
        update.execute().unwrap();
        most = most.max(db.catalog().txns().stamp_count());
    }
    // 16 stamps (`FREEZE_STAMPS_PER_PRESSURE`) per unit of the threshold.
    assert_eq!(most, 16 * 8, "the stamp table's peak");
    let t = db.catalog().table("T").unwrap();
    assert_eq!(t.gc().unfrozen(), 0, "T's insert was frozen");
}

#[test]
fn query_refuses_statements_without_rows_before_running_them() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch("CREATE TABLE T (a INT); INSERT INTO T VALUES (1), (2)")
        .unwrap();
    for text in [
        "DELETE FROM T",
        "UPDATE T SET a = 0",
        "INSERT INTO T VALUES (3)",
        "CREATE TABLE U (b INT)",
        "DROP TABLE T",
        "ANALYZE T",
    ] {
        let err = session.query(text, &[]).unwrap_err().to_string();
        assert!(err.contains("expects SELECT or OUT OF"), "{text}: {err}");
    }
    let mut refresh = session.prepare("REFRESH MATERIALIZED VIEW T").unwrap();
    assert!(refresh.query().is_err());

    // Nothing ran: T keeps both rows and U was never created.
    let rows = session
        .query("SELECT a FROM T ORDER BY a", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    assert!(db.catalog().table("U").is_err());
}

#[test]
fn unbound_parameters_get_one_message_on_every_execute_path() {
    let db = emp_db();
    let text = "DELETE FROM EMP WHERE eno = ?";
    let session = db.session();
    let via_session = session.execute(text, &[]).unwrap_err().to_string();
    let via_prepared = session
        .prepare(text)
        .unwrap()
        .execute()
        .unwrap_err()
        .to_string();
    assert!(
        via_session.contains("1 unbound parameter(s)"),
        "got: {via_session}"
    );
    assert_eq!(via_prepared, via_session);
    // A batch holding a placeholder is refused the same way, before any of
    // its statements runs.
    let via_batch = session
        .execute_batch(&format!("INSERT INTO EMP VALUES (13, 'kim', 2); {text}"))
        .unwrap_err()
        .to_string();
    assert_eq!(via_batch, via_session);
    assert_eq!(
        co_enos(&session.fetch_co(EMP_CO).unwrap()),
        vec![10, 11, 12]
    );
}

const EMP_CO: &str = "OUT OF xdept AS (SELECT * FROM DEPT),
                             xemp AS EMP,
                             employment AS (RELATE xdept VIA EMPLOYS, xemp
                                            WHERE xdept.dno = xemp.edno)
                      TAKE *";

/// The `eno`s of a fetched CO's `xemp` component, sorted.
fn co_enos(co: &CoCache) -> Vec<i64> {
    let mut enos: Vec<i64> = co
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|e| e.get_int("eno").unwrap())
        .collect();
    enos.sort_unstable();
    enos
}

#[test]
fn session_fetch_co_reads_the_open_transaction_snapshot() {
    let db = emp_db();
    let s = db.session();
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("INSERT INTO EMP VALUES (13, 'kim', 2)", &[])
        .unwrap();
    // Committed by another session after the begin: not in the snapshot.
    s.execute("INSERT INTO EMP VALUES (14, 'lou', 1)", &[])
        .unwrap();

    let inside = session.fetch_co(EMP_CO).unwrap();
    assert_eq!(co_enos(&inside), vec![10, 11, 12, 13]);

    session.rollback().unwrap();
    let after = s.fetch_co(EMP_CO).unwrap();
    assert_eq!(co_enos(&after), vec![10, 11, 12, 14]);
}

#[test]
fn session_fetch_co_by_view_name_serves_plain_and_materialized_views() {
    let db = emp_db();
    let session = db.session();
    session
        .execute_batch(&format!(
            "CREATE VIEW emp_co AS {EMP_CO}; CREATE MATERIALIZED VIEW emp_co_mv AS {EMP_CO}"
        ))
        .unwrap();
    for name in ["emp_co", "emp_co_mv"] {
        let co = session.fetch_co(name).unwrap();
        assert_eq!(co_enos(&co), vec![10, 11, 12], "{name}");
    }
}

#[test]
fn execute_batch_joins_an_open_transaction() {
    let db = emp_db();
    let session = db.session();
    session.begin().unwrap();
    session
        .execute_batch(
            "INSERT INTO EMP VALUES (13, 'kim', 2);
             UPDATE EMP SET ename = 'max' WHERE eno = 10;
             DELETE FROM EMP WHERE eno = 11",
        )
        .unwrap();
    // The batch's writes are the transaction's: visible inside it...
    let inside = session.fetch_co(EMP_CO).unwrap();
    assert_eq!(co_enos(&inside), vec![10, 12, 13]);
    // ...and undone, all three, by one rollback.
    session.rollback().unwrap();
    let after = session.fetch_co(EMP_CO).unwrap();
    assert_eq!(co_enos(&after), vec![10, 11, 12]);
    let name = session
        .query("SELECT ename FROM EMP WHERE eno = 10", &[])
        .unwrap();
    assert_eq!(
        name.try_table().unwrap().rows,
        vec![vec![Value::Str("mia".into())]]
    );
}

#[test]
fn execute_batch_in_autocommit_commits_each_statement() {
    let db = emp_db();
    let session = db.session();
    let err = session
        .execute_batch(
            "INSERT INTO EMP VALUES (13, 'kim', 2);
             DELETE FROM EMP WHERE eno = 11;
             INSERT INTO NOPE VALUES (1);
             INSERT INTO EMP VALUES (14, 'lou', 1)",
        )
        .unwrap_err();
    assert!(err.to_string().contains("NOPE"), "got: {err}");
    // The first two statements committed on their own; the fourth never ran.
    assert!(!session.in_transaction());
    let co = db.session().fetch_co(EMP_CO).unwrap();
    assert_eq!(co_enos(&co), vec![10, 12, 13]);
}

/// An autocommit statement is atomic: a multi-row INSERT whose second row
/// violates a unique index writes neither row. Inside an explicit
/// transaction there are no savepoints, so the row written before the
/// failure stays in the transaction until it commits or rolls back.
#[test]
fn failed_autocommit_insert_writes_no_row() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE T (id INT, v INT, s VARCHAR(10));
             CREATE UNIQUE INDEX t_id ON T (id);
             INSERT INTO T VALUES (1, 2, 'a')",
        )
        .unwrap();
    let ids = |s: &crate::session::Session<'_>| -> Vec<Value> {
        let r = s.query("SELECT id FROM T ORDER BY id", &[]).unwrap();
        r.try_table().unwrap().rows.concat()
    };
    let stmt = "INSERT INTO T VALUES (8, 5, 'h'), (1, 9, 'dup')";
    assert!(session.execute(stmt, &[]).is_err());
    assert!(session.execute_batch(stmt).is_err());
    assert_eq!(ids(&session), vec![Value::Int(1)]);

    session.begin().unwrap();
    assert!(session.execute(stmt, &[]).is_err());
    assert_eq!(ids(&session), vec![Value::Int(1), Value::Int(8)]);
    session.rollback().unwrap();
    assert_eq!(ids(&session), vec![Value::Int(1)]);
}

#[test]
fn stale_plan_never_served_across_view_ddl() {
    let db = emp_db();
    let s = db.session();
    s.execute(
        "CREATE VIEW arc_emps AS SELECT e.eno FROM EMP e, DEPT d \
                WHERE e.edno = d.dno AND d.loc = 'ARC'",
        &[],
    )
    .unwrap();
    let session = db.session();
    let mut p = session.prepare("SELECT * FROM arc_emps").unwrap();
    assert_eq!(p.query().unwrap().try_table().unwrap().rows.len(), 2);

    s.execute("DROP VIEW arc_emps", &[]).unwrap();
    s.execute(
        "CREATE VIEW arc_emps AS SELECT e.eno FROM EMP e WHERE e.edno = 2",
        &[],
    )
    .unwrap();
    let r = p.query().unwrap();
    assert_eq!(r.try_table().unwrap().rows, vec![vec![Value::Int(11)]]);
}
