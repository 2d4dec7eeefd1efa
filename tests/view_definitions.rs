//! Stored view definitions and the metadata compiled from them.
//!
//! A view is read through one reader and XNF view references expand through
//! one inliner (`xnf_qgm::views`); a CO's updatability metadata compiles
//! with its statement. These tests pin that seam: materialized views track
//! the views they expand, relationship columns resolve by the component's
//! output names as the QGM resolves them, maintenance of a CO over an XNF
//! view agrees with a fresh fetch, and DDL invalidates the compiled
//! metadata together with the plan.

use composite_views::{CoCache, Database, RelMeta, Value};
use xnf_fixtures::{build_uniform_paper_db_with, DEPS_ARC};

/// Canonical value-identity form of a CO: per-component row sets and
/// per-relationship (parent row, child row) pair sets, sorted.
fn canon(co: &CoCache) -> Vec<(String, Vec<String>)> {
    let ws = &co.workspace;
    let mut out = Vec::new();
    for c in &ws.components {
        let mut rows: Vec<String> = ws
            .independent(&c.name)
            .unwrap()
            .map(|t| format!("{:?}", t.values()))
            .collect();
        rows.sort();
        rows.dedup();
        out.push((c.name.to_ascii_lowercase(), rows));
    }
    for r in &ws.relationships {
        let mut pairs: Vec<String> = r
            .connections()
            .iter()
            .map(|conn| {
                format!(
                    "{:?}->{:?}",
                    ws.components[r.parent].row(conn[0]),
                    ws.components[r.children[0]].row(conn[1])
                )
            })
            .collect();
        pairs.sort();
        pairs.dedup();
        out.push((r.name.to_ascii_lowercase(), pairs));
    }
    out.sort();
    out
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    let mut v: Vec<i64> = db
        .session()
        .query(sql, &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    v.sort();
    v
}

/// Departments D and employees E whose `edno` and `boss` columns both
/// name a department.
fn dept_emp_db() -> Database {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE D (dno INT NOT NULL, dname VARCHAR(10));
         CREATE TABLE E (eno INT NOT NULL, edno INT, boss INT);
         INSERT INTO D VALUES (1, 'd1'), (2, 'd2'), (3, 'd3');
         INSERT INTO E VALUES (10, 1, 2), (11, 2, 1), (12, 3, 3);",
        )
        .unwrap();
    db
}

#[test]
fn drop_view_with_dependent_matview_is_rejected() {
    let db = Database::new();
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE T (id INT, v INT);
         INSERT INTO T VALUES (1, 10), (2, 20);
         CREATE VIEW small AS SELECT id, v FROM T WHERE v < 100;
         CREATE MATERIALIZED VIEW m AS SELECT id, v FROM small;",
    )
    .unwrap();
    let err = s.execute("DROP VIEW small", &[]).unwrap_err().to_string();
    assert!(
        err.contains("cannot drop view 'small': materialized view 'm' depends on it"),
        "{err}"
    );
    // The view survived, so maintenance still reaches m through it.
    s.execute("INSERT INTO T VALUES (3, 30)", &[]).unwrap();
    assert_eq!(ints(&db, "SELECT id FROM m"), vec![1, 2, 3]);
    s.execute("REFRESH MATERIALIZED VIEW m", &[]).unwrap();
    // The base table under the view is a dependency too.
    let err = s.execute("DROP TABLE T", &[]).unwrap_err().to_string();
    assert!(err.contains("materialized view 'm' depends on it"), "{err}");
    // Dropping in dependency order works.
    s.execute("DROP MATERIALIZED VIEW m", &[]).unwrap();
    s.execute("DROP VIEW small", &[]).unwrap();
    s.execute("DROP TABLE T", &[]).unwrap();
}

#[test]
fn swapped_aliases_map_relationship_columns_by_output_name() {
    let db = dept_emp_db();
    let s = db.session();
    // `xe.edno` is the alias of base column `boss`.
    let co_query = "OUT OF xd AS (SELECT * FROM D),
                           xe AS (SELECT eno, boss AS edno, edno AS boss FROM E),
                           r AS (RELATE xd VIA HAS, xe WHERE xd.dno = xe.edno)
                    TAKE *";
    let co = s.fetch_co(co_query).unwrap();
    assert!(
        matches!(
            co.schema.relationship("r"),
            Some(RelMeta::ForeignKey { child_col: 1, .. })
        ),
        "{:?}",
        co.schema.relationship("r")
    );
    s.execute(&format!("CREATE MATERIALIZED VIEW mv AS {co_query}"), &[])
        .unwrap();
    s.execute("UPDATE E SET boss = 3 WHERE eno = 10", &[])
        .unwrap();
    assert_eq!(
        canon(&s.fetch_co("mv").unwrap()),
        canon(&s.fetch_co(co_query).unwrap()),
        "maintained CO diverged from a fresh fetch"
    );
}

#[test]
fn plain_alias_relationship_is_foreign_key_and_connects() {
    let db = dept_emp_db();
    let s = db.session();
    let mut co = s
        .fetch_co(
            "OUT OF xd AS (SELECT * FROM D),
                    xe AS (SELECT eno, edno AS dept FROM E),
                    r AS (RELATE xd VIA HAS, xe WHERE xd.dno = xe.dept)
             TAKE *",
        )
        .unwrap();
    assert!(
        matches!(
            co.schema.relationship("r"),
            Some(RelMeta::ForeignKey {
                parent_col: 0,
                child_col: 1,
                ..
            })
        ),
        "{:?}",
        co.schema.relationship("r")
    );
    // Move employee 10 from department 1 to department 3.
    let ws = &co.workspace;
    let id_of = |ws: &composite_views::Workspace, comp: &str, col: &str, v: i64| {
        ws.independent(comp)
            .unwrap()
            .find(|t| t.get(col).unwrap() == &Value::Int(v))
            .unwrap()
            .id()
    };
    let (d1, d3, e10) = (
        id_of(ws, "xd", "dno", 1),
        id_of(ws, "xd", "dno", 3),
        id_of(ws, "xe", "eno", 10),
    );
    co.disconnect("r", &[d1, e10]).unwrap();
    co.connect("r", &[d3, e10]).unwrap();
    s.write_back(&mut co).unwrap();
    assert_eq!(ints(&db, "SELECT edno FROM E WHERE eno = 10"), vec![3]);
}

#[test]
fn co_matview_over_an_xnf_view_matches_a_fresh_fetch() {
    let db = build_uniform_paper_db_with(40, Default::default());
    let s = db.session();
    s.execute(&format!("CREATE VIEW deps AS {DEPS_ARC}"), &[])
        .unwrap();
    s.execute("CREATE MATERIALIZED VIEW m AS OUT OF deps TAKE *", &[])
        .unwrap();
    let fresh = "OUT OF deps TAKE *";
    assert_eq!(
        canon(&s.fetch_co("m").unwrap()),
        canon(&s.fetch_co(fresh).unwrap())
    );
    s.execute("UPDATE EMP SET edno = 2 WHERE eno = 3", &[])
        .unwrap();
    let stored = s.fetch_co("m").unwrap();
    assert_eq!(stored.workspace.tuple_count(), 375);
    assert_eq!(canon(&stored), canon(&s.fetch_co(fresh).unwrap()));
}

#[test]
fn compiled_co_schema_follows_a_recreated_table() {
    let db = dept_emp_db();
    let session = db.session();
    let mut fetch = session
        .prepare(
            "OUT OF xd AS (SELECT * FROM D),
                    xe AS (SELECT eno, edno, boss FROM E),
                    r AS (RELATE xd VIA HAS, xe WHERE xd.dno = xe.edno)
             TAKE *",
        )
        .unwrap();
    fetch.fetch_co().unwrap();
    // Same columns, another order: every base ordinal moves.
    session
        .execute_batch(
            "DROP TABLE E;
         CREATE TABLE E (boss INT, edno INT, eno INT NOT NULL);
         INSERT INTO E VALUES (2, 1, 10), (1, 2, 11), (3, 3, 12);",
        )
        .unwrap();
    let mut co = fetch.fetch_co().unwrap();
    let ws = &co.workspace;
    let e10 = ws
        .independent("xe")
        .unwrap()
        .find(|t| t.get("eno").unwrap() == &Value::Int(10))
        .unwrap()
        .id();
    co.update_value("xe", e10, "boss", Value::Int(7)).unwrap();
    session.write_back(&mut co).unwrap();
    assert_eq!(ints(&db, "SELECT boss FROM E WHERE eno = 10"), vec![7]);
    assert_eq!(ints(&db, "SELECT edno FROM E WHERE eno = 10"), vec![1]);
}
