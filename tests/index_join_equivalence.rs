//! Index joins are a plan choice, not a semantics change: a root-restricted
//! composite-object fetch returns the same streams whether its child legs
//! are probed through their indexes (`IndexSemiJoin` / `IndexNlJoin`) or
//! scanned and hash-joined (`PlanOptions::use_indexes = false`), at every
//! dop and batch size, across stale index postings and under an older
//! snapshot. And with the probes, the rows such a fetch reads no longer
//! grow with the database.
//!
//! Node streams must match byte for byte (the probes return rows in heap
//! scan order, exactly as the scans they replace). Connection streams are
//! compared as multisets: the index plan may join a connection box's legs
//! in another order.

use std::sync::Arc;

use xnf_core::{Database, DbConfig, ExecStats, PlanOptions, QueryResult, Value};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};
use xnf_qgm::OutputKind;
use xnf_storage::Tuple;

/// The Fig. 1 CO of the departments `restriction` selects.
fn co(restriction: &str) -> String {
    format!(
        "{} WHERE {restriction}",
        DEPS_ARC.replace(" WHERE loc = 'ARC'", "")
    )
}

fn config(use_indexes: bool, dop: usize, batch_size: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            use_indexes,
            dop,
            batch_size,
            allow_oversubscribe: true,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Node streams identical in order; connection streams identical as
/// multisets.
fn assert_same_co(reference: &QueryResult, got: &QueryResult, context: &str) {
    assert_eq!(reference.streams.len(), got.streams.len(), "{context}");
    for (a, b) in reference.streams.iter().zip(&got.streams) {
        assert_eq!(a.name, b.name, "{context}");
        assert_eq!(a.columns, b.columns, "{context} / {}", a.name);
        if matches!(a.kind, OutputKind::Connection { .. }) {
            let (mut x, mut y) = (a.rows.clone(), b.rows.clone());
            x.sort();
            y.sort();
            assert_eq!(x, y, "{context} / {} (as multisets)", a.name);
        } else {
            assert_eq!(a.rows, b.rows, "{context} / {}", a.name);
        }
    }
}

/// Every database under test: the hash-plan reference first, then the
/// index plans at dop 1/2 × batch size 1/1024 (plus the hash plans at the
/// other settings, which must agree too).
fn databases() -> Vec<(String, Database)> {
    let scale = PaperScale {
        departments: 40,
        ..Default::default()
    };
    let mut dbs = Vec::new();
    for use_indexes in [false, true] {
        for dop in [1, 2] {
            for batch_size in [1024, 1] {
                let name = format!("use_indexes={use_indexes} dop={dop} batch={batch_size}");
                let db = build_paper_db_with(scale, config(use_indexes, dop, batch_size));
                // A department with no employees and no projects, and an
                // employee of department 3 holding skill 7 twice.
                db.execute_batch(
                    "INSERT INTO DEPT VALUES (777, 'empty', 'ARC');
                     INSERT INTO EMPSKILLS VALUES (61, 7);
                     INSERT INTO EMPSKILLS VALUES (61, 7);",
                )
                .unwrap();
                dbs.push((name, db));
            }
        }
    }
    dbs
}

/// Run `sql` (with `params`) on every database and compare each result with
/// the first one's; returns the reference result.
fn check_all(dbs: &[(String, Database)], sql: &str, params: &[Value]) -> QueryResult {
    let run = |db: &Database| db.session().query(sql, params).unwrap();
    let reference = run(&dbs[0].1);
    for (name, db) in &dbs[1..] {
        assert_same_co(&reference, &run(db), &format!("{name}: {sql} {params:?}"));
    }
    reference
}

fn stream_len(r: &QueryResult, name: &str) -> usize {
    r.stream(name).unwrap().rows.len()
}

#[test]
fn root_restricted_fetches_match_the_hash_plans() {
    let dbs = databases();
    // The index plans really are index plans, and the reference is not.
    let probe = co("xdept.dno = 3");
    for (name, db) in &dbs {
        let plan = db.explain(&probe).unwrap();
        let indexed = plan.contains("IndexSemiJoin(EMP.emp_dno)")
            && plan.contains("IndexNlJoin(EMPSKILLS.es_eno)");
        assert_eq!(
            indexed,
            name.contains("use_indexes=true"),
            "{name}:\n{plan}"
        );
    }

    let prepared = co("xdept.dno = ?");
    let existing = check_all(&dbs, &co("xdept.dno = 3"), &[]);
    assert_eq!(stream_len(&existing, "xemp"), 20);
    assert!(stream_len(&existing, "xskills") > 0);
    check_all(&dbs, &prepared, &[Value::Int(3)]);
    let missing = check_all(&dbs, &co("xdept.dno = -1"), &[]);
    assert_eq!(stream_len(&missing, "xdept"), 0);
    let empty = check_all(&dbs, &prepared, &[Value::Int(777)]);
    assert_eq!(stream_len(&empty, "xdept"), 1);
    assert_eq!(stream_len(&empty, "xemp"), 0);
    assert_eq!(stream_len(&empty, "employment"), 0);
    // A NULL key matches nothing, through an index or not.
    let null = check_all(&dbs, &prepared, &[Value::Null]);
    assert_eq!(stream_len(&null, "xdept"), 0);

    // Move department 3's employees to department 5 and one of 5's to 3:
    // the old versions keep their `emp_dno` postings under the old keys,
    // so the probes meet stale postings that must resolve to nothing.
    for (_, db) in &dbs {
        db.execute("UPDATE EMP SET edno = 5 WHERE edno = 3")
            .unwrap();
        db.execute("UPDATE EMP SET edno = 3 WHERE eno = 110")
            .unwrap();
        db.execute("UPDATE EMPSKILLS SET essno = 0 WHERE eseno = 110")
            .unwrap();
    }
    let moved = check_all(&dbs, &prepared, &[Value::Int(3)]);
    assert_eq!(stream_len(&moved, "xemp"), 1);
    let grown = check_all(&dbs, &co("xdept.dno = 5"), &[]);
    assert_eq!(stream_len(&grown, "xemp"), 39);
    check_all(&dbs, &co("xdept.loc = 'ARC'"), &[]);
}

#[test]
fn relational_index_joins_match_the_hash_plans() {
    let dbs = databases();
    for (sql, op) in [
        // Each matching employee's skills, probed through es_eno.
        (
            "SELECT e.ename, s.essno FROM EMP e, EMPSKILLS s WHERE e.eno = s.eseno AND e.edno = 3",
            "IndexNlJoin(EMPSKILLS.es_eno)",
        ),
        // Employees with skill 7: employee 61 holds it twice, so the inner
        // keys repeat, and each employee must still come out once.
        (
            "SELECT eno, ename FROM EMP WHERE EXISTS \
             (SELECT 1 FROM EMPSKILLS s WHERE s.eseno = EMP.eno AND s.essno = 7)",
            "IndexSemiJoin(EMP.emp_pk)",
        ),
    ] {
        let reference = dbs[0].1.query(sql).unwrap();
        let mut want = reference.try_table().unwrap().rows.clone();
        want.sort();
        assert!(!want.is_empty(), "{sql}");
        for (name, db) in &dbs[1..] {
            let plan = db.explain(sql).unwrap();
            assert_eq!(
                plan.contains(op),
                name.contains("use_indexes=true"),
                "{name}:\n{plan}"
            );
            let mut got = db.query(sql).unwrap().try_table().unwrap().rows.clone();
            got.sort();
            assert_eq!(got, want, "{name}: {sql}");
        }
    }
}

#[test]
fn index_probes_read_under_the_statement_snapshot() {
    for use_indexes in [false, true] {
        let db = build_paper_db_with(
            PaperScale {
                departments: 40,
                ..Default::default()
            },
            config(use_indexes, 1, 1024),
        );
        let sql = co("xdept.dno = 3");
        let reader = db.session();
        reader.begin().unwrap();
        let before = reader.query(&sql, &[]).unwrap();
        // Committed after the reader's snapshot: a new employee and a
        // move out of the department, both invisible to the reader.
        db.execute("INSERT INTO EMP VALUES (9000, 'late', 3, 50.0)")
            .unwrap();
        db.execute("INSERT INTO EMPSKILLS VALUES (9000, 1)")
            .unwrap();
        db.execute("UPDATE EMP SET edno = 4 WHERE eno = 60")
            .unwrap();
        let during = reader.query(&sql, &[]).unwrap();
        assert_same_co(&before, &during, &format!("use_indexes={use_indexes}"));
        reader.commit().unwrap();
        let after = db.query(&sql).unwrap();
        assert_eq!(
            stream_len(&after, "xemp"),
            stream_len(&before, "xemp"),
            "one in, one out"
        );
        assert_ne!(
            after.stream("xemp").unwrap().rows,
            before.stream("xemp").unwrap().rows
        );
    }
}

// ---------------------------------------------------------------------------
// proportionality: the rows a one-department fetch reads
// ---------------------------------------------------------------------------

/// The Fig. 1 schema with `depts` departments whose contents are a pure
/// function of the department (20 employees with 3 skills each, 5 projects
/// with 4 skills each, 200 skills), join-column indexes and ANALYZE. A
/// department's CO is the same at every database size.
fn sized_paper_db(depts: i64, use_indexes: bool) -> Database {
    let db = Database::with_config(config(use_indexes, 2, 1024));
    db.execute_batch(
        "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
         CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT);
         CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30));
         CREATE TABLE EMPSKILLS (eseno INT, essno INT);
         CREATE TABLE PROJSKILLS (pspno INT, pssno INT);",
    )
    .unwrap();
    let cat = db.catalog();
    let table = |name: &str| cat.table(name).unwrap();
    let insert = |t: &Arc<xnf_storage::Table>, values: Vec<Value>| {
        t.insert(&Tuple::new(values)).unwrap();
    };
    let (dept, emp, proj) = (table("DEPT"), table("EMP"), table("PROJ"));
    let (skills, es, ps) = (table("SKILLS"), table("EMPSKILLS"), table("PROJSKILLS"));
    for d in 0..depts {
        let loc = Value::Str(["ARC", "HDC", "YKT", "SJC", "ALM"][d as usize % 5].into());
        insert(
            &dept,
            vec![Value::Int(d), Value::Str(format!("dept-{d}")), loc],
        );
        for e in d * 20..(d + 1) * 20 {
            let sal = Value::Double(40.0 + (e % 120) as f64);
            insert(
                &emp,
                vec![
                    Value::Int(e),
                    Value::Str(format!("emp-{e}")),
                    Value::Int(d),
                    sal,
                ],
            );
            for k in 0..3 {
                insert(&es, vec![Value::Int(e), Value::Int((e * 7 + k * 61) % 200)]);
            }
        }
        for p in d * 5..(d + 1) * 5 {
            insert(
                &proj,
                vec![
                    Value::Int(p),
                    Value::Str(format!("proj-{p}")),
                    Value::Int(d),
                ],
            );
            for k in 0..4 {
                insert(
                    &ps,
                    vec![Value::Int(p), Value::Int((p * 11 + k * 37) % 200)],
                );
            }
        }
    }
    for s in 0..200 {
        insert(
            &skills,
            vec![Value::Int(s), Value::Str(format!("skill-{s}"))],
        );
    }
    db.execute_batch(
        "CREATE UNIQUE INDEX dept_pk ON DEPT (dno);
         CREATE UNIQUE INDEX emp_pk ON EMP (eno);
         CREATE INDEX emp_dno ON EMP (edno);
         CREATE INDEX proj_dno ON PROJ (pdno);
         CREATE UNIQUE INDEX skills_pk ON SKILLS (sno);
         CREATE INDEX es_eno ON EMPSKILLS (eseno);
         CREATE INDEX ps_pno ON PROJSKILLS (pspno);
         ANALYZE;",
    )
    .unwrap();
    db
}

/// Execution counters of department 3's CO fetch (prepared, as `co_serve`
/// runs it), plus the rows it emitted.
fn fetch_stats(db: &Database) -> ExecStats {
    let session = db.session();
    let mut fetch = session.prepare(&co("xdept.dno = ?")).unwrap();
    fetch.bind(&[Value::Int(3)]).unwrap();
    fetch.query().unwrap().stats
}

#[test]
fn one_department_fetch_reads_the_same_rows_at_any_database_size() {
    let small = fetch_stats(&sized_paper_db(40, true));
    let large = fetch_stats(&sized_paper_db(400, true));
    assert_eq!(small.rows_emitted, large.rows_emitted);
    assert_eq!(
        small.rows_scanned, large.rows_scanned,
        "a one-department fetch must not read more rows in a bigger database"
    );
    assert!(
        large.rows_scanned < 8 * large.rows_emitted,
        "{} rows scanned for {} emitted",
        large.rows_scanned,
        large.rows_emitted
    );
    for s in [&small, &large] {
        assert_eq!(s.parallel_regions, 0, "{s:?}");
        assert_eq!(s.morsels_dispatched, 0, "{s:?}");
    }

    // The hash plans scan every child table whole: their reads grow with
    // the database, which is what the pin above would catch.
    let small = fetch_stats(&sized_paper_db(40, false));
    let large = fetch_stats(&sized_paper_db(400, false));
    assert_eq!(small.rows_emitted, large.rows_emitted);
    assert!(
        large.rows_scanned > 5 * small.rows_scanned,
        "{large:?} vs {small:?}"
    );
}
