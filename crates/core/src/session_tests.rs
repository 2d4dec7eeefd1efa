//! Tests for the Session API: prepared statements, parameter binding, the
//! shared plan cache and its DDL-generation invalidation.

use xnf_storage::Value;

use crate::db::{Database, DbConfig};

fn emp_db() -> Database {
    let db = Database::new();
    db.execute_batch(
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
    db.execute("CREATE INDEX emp_eno ON EMP (eno)").unwrap();
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
    db.execute("INSERT INTO EMP VALUES (15, 'joy', 1)").unwrap();
    co.refresh(&db).unwrap();
    assert_eq!(co.workspace.component("xemp").unwrap().len(), 3);

    // One-shot fetch_co / query refuse unbound parameters with an
    // API error instead of a deep runtime binding failure.
    let text = "OUT OF xemp AS (SELECT * FROM EMP) TAKE * WHERE xemp.edno = ?";
    let err = match db.fetch_co(text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("fetch_co with unbound parameter must fail"),
    };
    assert!(err.contains("unbound parameter"), "got: {err}");
    let err = db.query(text).unwrap_err().to_string();
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
    db.execute("DROP TABLE EMP").unwrap();
    db.execute("CREATE TABLE EMP (eno INT, ename VARCHAR(20), sal DOUBLE, active BOOLEAN)")
        .unwrap();
    db.execute("INSERT INTO EMP VALUES (20, 'zoe', 95.5, TRUE)")
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

    // One-shot calls see the new schema through the cache as well.
    assert_eq!(
        db.query("SELECT * FROM EMP")
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
    db.query("SELECT COUNT(*) FROM EMP").unwrap();
    db.query("SELECT  COUNT(*)  FROM EMP").unwrap(); // same key after normalization
    db.query("SELECT COUNT(*) FROM EMP").unwrap();
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

    let left: Vec<i64> = db
        .query("SELECT eno FROM EMP ORDER BY eno")
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(left, vec![10, 12]);
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

    // One-shot APIs refuse unbound parameters instead of mis-executing.
    assert!(db.query("SELECT * FROM EMP WHERE eno = ?").is_err());
    assert!(db.execute("DELETE FROM EMP WHERE eno = ?").is_err());
}

#[test]
fn lru_keeps_the_cache_bounded() {
    let db = Database::with_config(DbConfig {
        plan_cache_capacity: 4,
        ..Default::default()
    });
    db.execute("CREATE TABLE T (a INT)").unwrap();
    for i in 0..20 {
        db.query(&format!("SELECT a FROM T WHERE a = {i}")).unwrap();
    }
    assert!(db.plan_cache_len() <= 4);
    assert!(db.plan_cache_stats().evictions >= 16);
}

#[test]
fn try_rows_reports_non_query_outcomes() {
    let db = Database::new();
    let out = db.execute("CREATE TABLE T (a INT)").unwrap();
    assert!(out.try_rows().is_err());
    let out = db.execute("INSERT INTO T VALUES (1)").unwrap();
    assert!(out.try_rows().is_err());
    let out = db.execute("SELECT * FROM T").unwrap();
    assert_eq!(out.try_rows().unwrap().try_table().unwrap().rows.len(), 1);
}

#[test]
fn typed_tuple_accessors_strip_quoting() {
    let db = emp_db();
    db.execute("CREATE TABLE SAL (eno INT, amount DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO SAL VALUES (10, 101.5)").unwrap();
    let co = db
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
    for i in 0..10 {
        db.execute(&format!("UPDATE EMP SET ename = 'x{i}' WHERE eno = 10"))
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
    db.execute("UPDATE EMP SET ename = 'later' WHERE eno = 10")
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
    let result = db.execute("VACUUM EMP").unwrap().try_rows().unwrap();
    assert!(result.stats.gc_versions_reclaimed > 0);
    let t = db.catalog().table("EMP").unwrap();
    assert_eq!(
        t.version_census().unwrap().total_versions,
        3,
        "one version per live EMP row after vacuum"
    );
}

#[test]
fn stale_plan_never_served_across_view_ddl() {
    let db = emp_db();
    db.execute(
        "CREATE VIEW arc_emps AS SELECT e.eno FROM EMP e, DEPT d \
                WHERE e.edno = d.dno AND d.loc = 'ARC'",
    )
    .unwrap();
    let session = db.session();
    let mut p = session.prepare("SELECT * FROM arc_emps").unwrap();
    assert_eq!(p.query().unwrap().try_table().unwrap().rows.len(), 2);

    db.execute("DROP VIEW arc_emps").unwrap();
    db.execute("CREATE VIEW arc_emps AS SELECT e.eno FROM EMP e WHERE e.edno = 2")
        .unwrap();
    let r = p.query().unwrap();
    assert_eq!(r.try_table().unwrap().rows, vec![vec![Value::Int(11)]]);
}
