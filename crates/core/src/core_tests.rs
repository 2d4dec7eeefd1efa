//! Core API tests: Database facade, CO cache, cursors, write-back,
//! recursive COs, persistence and the shipping simulation.

use xnf_storage::Value;

use crate::cache::Workspace;
use crate::client_server::{
    simulate_shipping, FetchStrategy, Server, ShippingPolicy, TransportStats,
};
use crate::co::CoCache;
use crate::db::{Database, ExecOutcome};
use crate::error::XnfError;
use crate::persist::{load_workspace, save_workspace};
use crate::session::Session;
use crate::writeback::RelMeta;

fn fig1_db() -> Database {
    let db = Database::new();
    db.session().execute_batch(
        "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
         CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT);
         CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30));
         CREATE TABLE EMPSKILLS (eseno INT, essno INT);
         CREATE TABLE PROJSKILLS (pspno INT, pssno INT);
         INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, 'apps', 'HDC');
         INSERT INTO EMP VALUES (1, 'e1', 1, 100.0), (2, 'e2', 1, 120.0), (3, 'e3', 2, 90.0), (4, 'e4', 3, 80.0);
         INSERT INTO PROJ VALUES (1, 'p1', 1), (2, 'p2', 2), (3, 'p3', 3);
         INSERT INTO SKILLS VALUES (1, 's1'), (2, 's2'), (3, 's3'), (4, 's4'), (5, 's5');
         INSERT INTO EMPSKILLS VALUES (1, 1), (2, 3), (3, 3), (4, 2);
         INSERT INTO PROJSKILLS VALUES (1, 4), (2, 3), (2, 5);
         ANALYZE;",
    )
    .unwrap();
    db
}

const DEPS_ARC: &str = "\
OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
       xemp AS EMP,
       xproj AS PROJ,
       xskills AS SKILLS,
       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
       ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),
       empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                       WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),
       projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS ps
                        WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)
TAKE *";

// ---------------------------------------------------------------------------
// Database facade
// ---------------------------------------------------------------------------

#[test]
fn ddl_dml_roundtrip() {
    let db = fig1_db();
    let s = db.session();
    let r = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(4));

    let n = s
        .execute("UPDATE EMP SET sal = sal + 10 WHERE edno = 1", &[])
        .unwrap()
        .affected();
    assert_eq!(n, 2);
    let r = s.query("SELECT MAX(sal) FROM EMP", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Double(130.0));

    let n = s
        .execute("DELETE FROM EMP WHERE eno = 4", &[])
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    let r = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(3));
}

#[test]
fn transactions_rollback_dml() {
    let db = fig1_db();
    let s = db.session();
    let session = db.session();
    session.begin().unwrap();
    session
        .execute("DELETE FROM EMP WHERE edno = 1", &[])
        .unwrap();
    session
        .execute("INSERT INTO EMP VALUES (99, 'temp', 1, 1.0)", &[])
        .unwrap();
    session
        .execute("UPDATE EMP SET sal = 0.0 WHERE eno = 3", &[])
        .unwrap();
    session.rollback().unwrap();

    let r = s.query("SELECT COUNT(*), MAX(sal) FROM EMP", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(4));
    assert_eq!(r.try_table().unwrap().rows[0][1], Value::Double(120.0));

    session.begin().unwrap();
    session
        .execute("DELETE FROM EMP WHERE eno = 4", &[])
        .unwrap();
    session.commit().unwrap();
    let r = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(3));
}

#[test]
fn two_sessions_hold_independent_isolated_transactions() {
    // Regression for the old global-transaction-slot design, where one
    // session's BEGIN blocked every other session's (`Database::begin`
    // returned "a transaction is already active") and uncommitted writes
    // were visible to everyone.
    let db = fig1_db();
    let s1 = db.session();
    let s2 = db.session();

    s1.begin().unwrap();
    s2.begin().unwrap(); // used to fail on the shared slot
    assert!(s1.in_transaction() && s2.in_transaction());

    // s1 writes; s2 (snapshot taken at BEGIN) must not see it.
    s1.execute("INSERT INTO EMP VALUES (90, 'u1', 1, 1.0)", &[])
        .unwrap();
    let c1 = s1.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(c1.try_table().unwrap().rows[0][0], Value::Int(5));
    let c2 = s2.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(
        c2.try_table().unwrap().rows[0][0],
        Value::Int(4),
        "uncommitted insert leaked across sessions"
    );

    // s2 writes a different row; both transactions stay healthy.
    s2.execute("UPDATE EMP SET sal = 500.0 WHERE eno = 4", &[])
        .unwrap();
    let m1 = s1.query("SELECT MAX(sal) FROM EMP", &[]).unwrap();
    assert_eq!(m1.try_table().unwrap().rows[0][0], Value::Double(120.0));

    // Even after s1 commits, s2's snapshot stays put (snapshot isolation).
    s1.commit().unwrap();
    let c2 = s2.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert_eq!(c2.try_table().unwrap().rows[0][0], Value::Int(4));
    s2.commit().unwrap();

    // With both committed, a fresh read sees everything.
    let r = db
        .session()
        .query("SELECT COUNT(*), MAX(sal) FROM EMP", &[])
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(5));
    assert_eq!(r.try_table().unwrap().rows[0][1], Value::Double(500.0));
}

#[test]
fn write_write_conflict_is_first_writer_wins() {
    let db = fig1_db();
    let s1 = db.session();
    let s2 = db.session();
    s1.begin().unwrap();
    s2.begin().unwrap();

    s1.execute("UPDATE EMP SET sal = 1.0 WHERE eno = 1", &[])
        .unwrap();
    let err = s2
        .execute("UPDATE EMP SET sal = 2.0 WHERE eno = 1", &[])
        .unwrap_err()
        .to_string();
    assert!(err.contains("write conflict"), "{err}");

    // The conflicting session can roll back and the winner's value lands.
    s2.rollback().unwrap();
    s1.commit().unwrap();
    let r = db
        .session()
        .query("SELECT sal FROM EMP WHERE eno = 1", &[])
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Double(1.0));
}

#[test]
fn sql_views_expand_in_from() {
    let db = fig1_db();
    let s = db.session();
    s.execute(
        "CREATE VIEW arc_depts AS SELECT dno, dname FROM DEPT WHERE loc = 'ARC'",
        &[],
    )
    .unwrap();
    let r = s.query("SELECT COUNT(*) FROM arc_depts", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(2));
    // Join a view with a base table.
    let r = s
        .query(
            "SELECT e.ename FROM arc_depts d, EMP e WHERE e.edno = d.dno ORDER BY ename",
            &[],
        )
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows.len(), 3);
}

#[test]
fn xnf_views_are_stored_and_fetchable() {
    let db = fig1_db();
    let s = db.session();
    s.execute(&format!("CREATE VIEW deps_ARC AS {DEPS_ARC}"), &[])
        .unwrap();
    let co = s.fetch_co("deps_ARC").unwrap();
    assert_eq!(co.workspace.components.len(), 4);
    assert_eq!(co.workspace.relationships.len(), 4);

    // Inline the view in another XNF query (closure under composition).
    let r = s
        .query("OUT OF deps_ARC TAKE xdept, employment, xemp", &[])
        .unwrap();
    assert_eq!(r.streams.len(), 3);
}

#[test]
fn explain_produces_plan_text() {
    let db = fig1_db();
    let text = db.explain("SELECT * FROM EMP WHERE eno = 1").unwrap();
    assert!(text.contains("SeqScan(EMP)"), "{text}");
    let text = db.explain(DEPS_ARC).unwrap();
    assert!(
        text.contains("shared cse0"),
        "XNF plans share components:\n{text}"
    );
}

#[test]
fn errors_are_reported() {
    let db = fig1_db();
    let s = db.session();
    assert!(matches!(
        s.execute("SELECT * FROM NOPE", &[]),
        Err(XnfError::Semantic(_))
    ));
    assert!(matches!(
        s.execute("SELEC broken", &[]),
        Err(XnfError::Parse(_))
    ));
    assert!(s
        .execute("INSERT INTO DEPT (dno) VALUES (1, 2)", &[])
        .is_err());
}

// ---------------------------------------------------------------------------
// CO cache: cursors, navigation, path expressions
// ---------------------------------------------------------------------------

#[test]
fn cache_navigation_with_cursors() {
    let db = fig1_db();
    let co = db.session().fetch_co(DEPS_ARC).unwrap();
    let ws = &co.workspace;

    assert_eq!(ws.tuple_count(), 2 + 3 + 2 + 4);
    assert_eq!(ws.connection_count(), 3 + 2 + 3 + 3);

    // Independent cursor: browse departments.
    let names: Vec<String> = ws
        .independent("xdept")
        .unwrap()
        .map(|d| d.get("dname").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(names.len(), 2);

    // Dependent cursors: d1 employs e1, e2.
    let d1 = ws
        .independent("xdept")
        .unwrap()
        .find(|d| d.get("dno").unwrap() == &Value::Int(1))
        .unwrap();
    let mut emps: Vec<i64> = d1
        .children("employment")
        .unwrap()
        .map(|e| e.get("eno").unwrap().as_int().unwrap())
        .collect();
    emps.sort();
    assert_eq!(emps, vec![1, 2]);

    // Backward navigation: s3's parents through empproperty are e2, e3
    // (object sharing).
    let s3 = ws
        .independent("xskills")
        .unwrap()
        .find(|s| s.get("sno").unwrap() == &Value::Int(3))
        .unwrap();
    let mut owners: Vec<i64> = s3
        .parents("empproperty")
        .unwrap()
        .map(|e| e.get("eno").unwrap().as_int().unwrap())
        .collect();
    owners.sort();
    assert_eq!(owners, vec![2, 3]);

    // Unswizzled lookup agrees with the swizzled pointers.
    let mut un: Vec<u32> = ws.children_unswizzled("employment", d1.id()).unwrap();
    un.sort();
    let mut sw: Vec<u32> = d1.children("employment").unwrap().map(|t| t.id()).collect();
    sw.sort();
    assert_eq!(un, sw);
}

#[test]
fn path_expressions() {
    let db = fig1_db();
    let co = db.session().fetch_co(DEPS_ARC).unwrap();
    let ws = &co.workspace;

    // All skills reachable from departments through employees.
    let ids = ws
        .path("xdept.employment.xemp.empproperty.xskills")
        .unwrap();
    let mut skills: Vec<i64> = ids
        .iter()
        .map(|&id| {
            ws.component("xskills").unwrap().row(id)[0]
                .as_int()
                .unwrap()
        })
        .collect();
    skills.sort();
    assert_eq!(skills, vec![1, 3]);

    // Reverse step: skills to the projects needing them.
    let ids = ws.path("xskills.projproperty.xproj").unwrap();
    assert_eq!(ids.len(), 2);

    assert!(
        ws.path("xdept").is_err(),
        "paths need at least comp.rel.comp"
    );
    assert!(
        ws.path("xdept.employment.xproj").is_err(),
        "wrong target component"
    );
}

// ---------------------------------------------------------------------------
// Updates + write-back
// ---------------------------------------------------------------------------

#[test]
fn update_writes_back_to_base_table() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    let e1 = co
        .workspace
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(1))
        .unwrap()
        .id();
    co.update_value("xemp", e1, "sal", Value::Double(200.0))
        .unwrap();
    assert_eq!(co.workspace.pending_changes().len(), 1);
    let ops = s.write_back(&mut co).unwrap();
    assert_eq!(ops, 1);
    assert!(co.workspace.pending_changes().is_empty());

    let r = s.query("SELECT sal FROM EMP WHERE eno = 1", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Double(200.0));
}

#[test]
fn insert_delete_write_back() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    co.insert_row(
        "xemp",
        vec![
            Value::Int(9),
            "e9".into(),
            Value::Int(1),
            Value::Double(50.0),
        ],
    )
    .unwrap();
    let e3 = co
        .workspace
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(3))
        .unwrap()
        .id();
    co.delete_row("xemp", e3).unwrap();
    s.write_back(&mut co).unwrap();

    let r = s.query("SELECT eno FROM EMP ORDER BY eno", &[]).unwrap();
    let ids: Vec<i64> = r
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 4, 9]);
}

#[test]
fn fk_connect_disconnect_write_back() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();

    // employment is FK-based (xdept.dno = xemp.edno).
    assert!(matches!(
        co.schema.relationship("employment"),
        Some(RelMeta::ForeignKey { .. })
    ));

    // Move e3 from d2 to d1 in the cache.
    let ws = &co.workspace;
    let d1 = 0u32; // first ARC dept (dno=1) — stream order of DEPT scan
    let d2 = 1u32;
    let e3 = ws
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(3))
        .unwrap()
        .id();
    co.disconnect("employment", &[d2, e3]).unwrap();
    co.connect("employment", &[d1, e3]).unwrap();
    s.write_back(&mut co).unwrap();

    let r = s.query("SELECT edno FROM EMP WHERE eno = 3", &[]).unwrap();
    assert_eq!(
        r.try_table().unwrap().rows[0][0],
        Value::Int(1),
        "FK updated by connect"
    );
}

/// A CO's live rows per component and its connections as (parent row,
/// child row) per relationship, each sorted.
fn co_values(co: &CoCache) -> Vec<Vec<String>> {
    let ws = &co.workspace;
    let row = |comp: usize, id: u32| format!("{:?}", ws.components[comp].row(id));
    let comps = (ws.components.iter().enumerate()).map(|(i, c)| {
        (ws.independent(&c.name).unwrap())
            .map(|t| row(i, t.id()))
            .collect()
    });
    let rels = ws.relationships.iter().map(|r| {
        (r.connections().iter())
            .map(|conn| {
                format!(
                    "{} -> {}",
                    row(r.parent, conn[0]),
                    row(r.children[0], conn[1])
                )
            })
            .collect()
    });
    let mut out: Vec<Vec<String>> = comps.chain(rels).collect();
    out.iter_mut().for_each(|v| v.sort());
    out
}

fn emp_id(co: &CoCache, eno: i64) -> u32 {
    (co.workspace.independent("xemp").unwrap())
        .find(|e| e.get("eno").unwrap() == &Value::Int(eno))
        .unwrap()
        .id()
}

/// Write `co` back and check that a re-fetch gives the workspace back.
fn write_back_and_refetch(s: &Session<'_>, co: &mut CoCache) {
    s.write_back(co).unwrap();
    let refetched = s.fetch_co(DEPS_ARC).unwrap();
    assert_eq!(co_values(&refetched), co_values(co));
}

#[test]
fn insert_then_update_writes_back_the_final_row() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    let row = vec![Value::Int(9), "e9".into(), Value::Null, Value::Double(50.0)];
    let e9 = co.insert_row("xemp", row).unwrap();
    co.connect("employment", &[0, e9]).unwrap();
    co.update_value("xemp", e9, "sal", Value::Double(75.0))
        .unwrap();
    // The connect wrote the department's key into the cached FK, and the
    // insert carries both edits.
    assert_eq!(
        co.workspace.component("xemp").unwrap().row(e9)[2],
        Value::Int(1)
    );
    assert_eq!(co.workspace.pending_changes().len(), 1);
    write_back_and_refetch(&s, &mut co);
}

#[test]
fn move_then_update_writes_back_both() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    let e3 = emp_id(&co, 3);
    // A foreign-key child has one parent.
    let err = co.connect("employment", &[0, e3]).unwrap_err();
    assert!(
        matches!(&err, XnfError::Api(m) if m.contains("already has a parent")),
        "{err}"
    );
    co.disconnect("employment", &[1, e3]).unwrap();
    assert_eq!(
        co.workspace.component("xemp").unwrap().row(e3)[2],
        Value::Null
    );
    co.connect("employment", &[0, e3]).unwrap();
    co.update_value("xemp", e3, "sal", Value::Double(95.0))
        .unwrap();
    assert_eq!(co.workspace.pending_changes().len(), 3);
    write_back_and_refetch(&s, &mut co);
    let r = s
        .query("SELECT edno, sal FROM EMP WHERE eno = 3", &[])
        .unwrap();
    assert_eq!(
        r.try_table().unwrap().rows[0],
        vec![Value::Int(1), Value::Double(95.0)]
    );
}

/// A restored workspace edits as the fetched one did: the foreign-key
/// columns a move rewrites come from the CO's schema, not the image.
#[test]
fn move_then_update_after_save_and_load() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    let mut image = Vec::new();
    save_workspace(&co.workspace, &mut image).unwrap();
    co.workspace = load_workspace(&mut &image[..]).unwrap();
    let e3 = emp_id(&co, 3);
    co.disconnect("employment", &[1, e3]).unwrap();
    co.connect("employment", &[0, e3]).unwrap();
    co.update_value("xemp", e3, "sal", Value::Double(95.0))
        .unwrap();
    write_back_and_refetch(&s, &mut co);
}

/// Write-back does not cascade a key change to the foreign key or mapping
/// rows naming the old key, so a column a relationship joins on changes
/// only while the tuple is not connected along it.
#[test]
fn a_linking_column_changes_only_while_disconnected() {
    let db = fig1_db();
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    let refused = |r: Result<(), XnfError>| matches!(r, Err(XnfError::Api(m)) if m.contains("disconnect it before"));
    // An inserted employee connected through the EMPSKILLS connect table.
    let row = vec![Value::Int(9), "e9".into(), Value::Null, Value::Double(50.0)];
    let e9 = co.insert_row("xemp", row).unwrap();
    co.connect("employment", &[0, e9]).unwrap();
    co.connect("empproperty", &[e9, 0]).unwrap();
    assert!(refused(co.update_value("xemp", e9, "eno", Value::Int(10))));
    // An inserted department with an existing employee moved into it.
    let d9 = (co.insert_row("xdept", vec![Value::Int(9), "new".into(), "ARC".into()])).unwrap();
    let e3 = emp_id(&co, 3);
    co.disconnect("employment", &[1, e3]).unwrap();
    co.connect("employment", &[d9, e3]).unwrap();
    assert!(refused(co.update_value("xdept", d9, "dno", Value::Int(10))));
    assert!(refused(co.update_value("xemp", e3, "edno", Value::Int(1))));
    // Setting a linking column to its own value changes nothing.
    co.update_value("xdept", d9, "dno", Value::Int(9)).unwrap();
    // Once disconnected, the key may change, and the reconnect names it.
    co.disconnect("empproperty", &[e9, 0]).unwrap();
    co.update_value("xemp", e9, "eno", Value::Int(10)).unwrap();
    co.connect("empproperty", &[e9, 0]).unwrap();
    write_back_and_refetch(&s, &mut co);
    let r = s
        .query("SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = 10", &[])
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(1));
}

#[test]
fn connect_table_write_back() {
    let db = fig1_db();
    let session = db.session();
    let mut co = session.fetch_co(DEPS_ARC).unwrap();
    assert!(matches!(
        co.schema.relationship("empproperty"),
        Some(RelMeta::ConnectTable { .. })
    ));

    // Give e1 the shared skill s3 as well.
    let ws = &co.workspace;
    let e1 = ws
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(1))
        .unwrap()
        .id();
    let s3 = ws
        .independent("xskills")
        .unwrap()
        .find(|s| s.get("sno").unwrap() == &Value::Int(3))
        .unwrap()
        .id();
    co.connect("empproperty", &[e1, s3]).unwrap();
    session.write_back(&mut co).unwrap();

    let r = session
        .query("SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = 1", &[])
        .unwrap();
    assert_eq!(
        r.try_table().unwrap().rows[0][0],
        Value::Int(2),
        "mapping row inserted"
    );

    // And take it away again.
    let mut co = session.fetch_co(DEPS_ARC).unwrap();
    let ws = &co.workspace;
    let e1 = ws
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(1))
        .unwrap()
        .id();
    let s3 = ws
        .independent("xskills")
        .unwrap()
        .find(|s| s.get("sno").unwrap() == &Value::Int(3))
        .unwrap()
        .id();
    co.disconnect("empproperty", &[e1, s3]).unwrap();
    session.write_back(&mut co).unwrap();
    let r = session
        .query("SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = 1", &[])
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(1));
}

#[test]
fn non_updatable_components_are_rejected() {
    let db = fig1_db();
    let s = db.session();
    // A joined component is not updatable.
    let mut co = s
        .fetch_co(
            "OUT OF rich AS (SELECT e.eno, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno),
                    xemp AS EMP,
                    r AS (RELATE rich VIA links, xemp WHERE rich.eno = xemp.eno)
             TAKE *",
        )
        .unwrap();
    assert!(co.schema.component("rich").unwrap().base.is_none());
    co.update_value("rich", 0, "dname", "X".into()).unwrap();
    let err = s.write_back(&mut co).unwrap_err();
    assert!(matches!(err, XnfError::Api(m) if m.contains("not updatable")));
    // The failed save keeps the change pending for retry.
    assert_eq!(co.workspace.pending_changes().len(), 1);
}

#[test]
fn write_back_is_atomic_on_conflict() {
    let db = fig1_db();
    let session = db.session();
    let mut co = session.fetch_co(DEPS_ARC).unwrap();
    let e1 = co
        .workspace
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(1))
        .unwrap()
        .id();
    // First a valid update, then one that will conflict (base row changed
    // underneath the cache).
    co.update_value("xemp", e1, "sal", Value::Double(111.0))
        .unwrap();
    let e2 = co
        .workspace
        .independent("xemp")
        .unwrap()
        .find(|e| e.get("eno").unwrap() == &Value::Int(2))
        .unwrap()
        .id();
    co.update_value("xemp", e2, "sal", Value::Double(222.0))
        .unwrap();
    // Sabotage: change e2's base row so the optimistic match fails.
    session
        .execute("UPDATE EMP SET ename = 'changed' WHERE eno = 2", &[])
        .unwrap();

    let err = session.write_back(&mut co).unwrap_err();
    assert!(matches!(err, XnfError::Api(m) if m.contains("conflict")));
    // Atomicity: e1's update must have been rolled back.
    let r = session
        .query("SELECT sal FROM EMP WHERE eno = 1", &[])
        .unwrap();
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Double(100.0));
}

/// Each edit's statement matches the cached image with a column carrying
/// a unique one-column index first, so the planner probes that index; a
/// NULL matches as `IS NULL`, and does not go first.
#[test]
fn write_back_statements_lead_with_a_unique_key() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE T (a INT, n INT, k INT);
             CREATE INDEX t_n ON T (n);
             CREATE UNIQUE INDEX t_k ON T (k);
             INSERT INTO T VALUES (1, 7, 10), (2, 7, NULL)",
        )
        .unwrap();
    let mut co = session.fetch_co("OUT OF xt AS T TAKE *").unwrap();
    let ids: Vec<u32> = co
        .workspace
        .independent("xt")
        .unwrap()
        .map(|t| t.id())
        .collect();
    for &id in &ids {
        co.update_value("xt", id, "a", Value::Int(0)).unwrap();
    }
    let edits = crate::writeback::edits(&db, &co.workspace, &co.schema).unwrap();
    let sql: Vec<&str> = edits.iter().map(|e| e.sql.as_str()).collect();
    assert_eq!(
        sql,
        [
            "UPDATE T SET a = ?, n = ?, k = ? WHERE k = ? AND a = ? AND n = ?",
            "UPDATE T SET a = ?, n = ?, k = ? WHERE a = ? AND n = ? AND k IS NULL",
        ]
    );
    assert_eq!(edits[0].params.len(), 6);
    assert_eq!(session.write_back(&mut co).unwrap(), 2);
}

#[test]
fn write_back_refuses_an_edit_that_matches_two_base_rows() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE T (a INT, b INT);
             INSERT INTO T VALUES (1, 1), (1, 1), (2, 2)",
        )
        .unwrap();
    let rows = || {
        let r = session.query("SELECT a, b FROM T ORDER BY a", &[]).unwrap();
        r.try_table().unwrap().rows.clone()
    };
    let before = rows();
    let mut co = session.fetch_co("OUT OF xt AS T TAKE *").unwrap();
    let one = co
        .workspace
        .independent("xt")
        .unwrap()
        .find(|t| t.get("a").unwrap() == &Value::Int(1))
        .unwrap()
        .id();
    co.update_value("xt", one, "b", Value::Int(5)).unwrap();
    let err = session.write_back(&mut co).unwrap_err();
    assert!(
        matches!(&err, XnfError::Api(m) if m.contains("2 rows in 'T'")),
        "got: {err}"
    );
    assert_eq!(rows(), before);
    assert_eq!(co.workspace.pending_changes().len(), 1);
}

// ---------------------------------------------------------------------------
// Recursive composite objects
// ---------------------------------------------------------------------------

fn bom_db() -> Database {
    let db = Database::new();
    db.session().execute_batch(
        "CREATE TABLE PARTS (pid INT NOT NULL, pname VARCHAR(20));
         CREATE TABLE BOM (parent INT, child INT);
         INSERT INTO PARTS VALUES (1, 'engine'), (2, 'piston'), (3, 'ring'), (4, 'bolt'), (5, 'wheel');
         INSERT INTO BOM VALUES (1, 2), (2, 3), (2, 4), (3, 4), (5, 4);",
    )
    .unwrap();
    db
}

const BOM_CO: &str = "\
OUT OF ROOT asm AS (SELECT * FROM PARTS WHERE pid = 1),
       part AS PARTS,
       top_uses AS (RELATE asm VIA uses, part USING BOM b
                    WHERE asm.pid = b.parent AND b.child = part.pid),
       sub_uses AS (RELATE part VIA uses, part USING BOM b2
                    WHERE part.pid = b2.parent AND b2.child = uses.pid)
TAKE *";

#[test]
fn recursive_bom_fixpoint() {
    let db = bom_db();
    let r = db.session().query(BOM_CO, &[]).unwrap();
    // Reached parts: engine's transitive closure = piston, ring, bolt.
    // The wheel (5) and its BOM edge must NOT appear.
    let part = r.stream("part").unwrap();
    let mut ids: Vec<i64> = part.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3, 4]);

    let root = r.stream("asm").unwrap();
    assert_eq!(root.rows.len(), 1);

    // Edges within the closure: 2->3, 2->4, 3->4 (not 5->4).
    let sub = r.stream("sub_uses").unwrap();
    assert_eq!(sub.rows.len(), 3);
    // The closure ran through the executor's scans.
    assert!(r.stats.rows_scanned > 0, "{:?}", r.stats);

    // Build a cache over the recursive CO and navigate it.
    let ws = Workspace::from_result(&r).unwrap();
    let piston = ws
        .independent("part")
        .unwrap()
        .find(|p| p.get("pid").unwrap() == &Value::Int(2))
        .unwrap();
    let mut children: Vec<i64> = piston
        .children("sub_uses")
        .unwrap()
        .map(|c| c.get("pid").unwrap().as_int().unwrap())
        .collect();
    children.sort();
    assert_eq!(children, vec![3, 4]);
}

#[test]
fn recursive_cycle_terminates() {
    let db = bom_db();
    let s = db.session();
    // Introduce a cycle: bolt contains piston.
    s.execute("INSERT INTO BOM VALUES (4, 2)", &[]).unwrap();
    let r = s.query(BOM_CO, &[]).unwrap();
    let part = r.stream("part").unwrap();
    let mut ids: Vec<i64> = part.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3, 4], "fixpoint terminates despite the cycle");
    let sub = r.stream("sub_uses").unwrap();
    assert_eq!(sub.rows.len(), 4, "cycle edge 4->2 included");
}

/// TAKE projects a recursive CO's columns and streams, while reachability
/// still follows the relationships TAKE leaves out.
#[test]
fn recursive_take_projects_and_reaches_through_untaken_relationships() {
    let db = bom_db();
    let r = db
        .session()
        .query(&BOM_CO.replace("TAKE *", "TAKE asm, part(pid)"), &[])
        .unwrap();
    let names: Vec<&str> = r.streams.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["asm", "part"]);
    let part = r.stream("part").unwrap();
    assert_eq!(part.columns, ["pid"]);
    let mut ids: Vec<i64> = part.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3, 4]);
    assert_eq!(r.stream("asm").unwrap().columns.len(), 2);
}

/// A recursive CO prepares once and binds its `?` per execution.
#[test]
fn prepared_recursive_co_binds_parameters() {
    let db = bom_db();
    let session = db.session();
    let mut stmt = session
        .prepare(&BOM_CO.replace("pid = 1", "pid = ?"))
        .unwrap();
    for (root, want) in [(1, vec![2, 3, 4]), (5, vec![4]), (4, vec![])] {
        stmt.bind(&[Value::Int(root)]).unwrap();
        let r = stmt.query().unwrap();
        let part = r.stream("part").unwrap();
        let mut ids: Vec<i64> = part.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, want, "root {root}");
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

#[test]
fn workspace_persistence_roundtrip() {
    let db = fig1_db();
    let co = db.session().fetch_co(DEPS_ARC).unwrap();
    let mut buf = Vec::new();
    save_workspace(&co.workspace, &mut buf).unwrap();
    let loaded = load_workspace(&mut &buf[..]).unwrap();

    assert_eq!(loaded.tuple_count(), co.workspace.tuple_count());
    assert_eq!(loaded.connection_count(), co.workspace.connection_count());
    // Navigation still works after the round-trip (pointers re-swizzled).
    let d1 = loaded
        .independent("xdept")
        .unwrap()
        .find(|d| d.get("dno").unwrap() == &Value::Int(1))
        .unwrap();
    assert_eq!(d1.children("employment").unwrap().count(), 2);

    // Corrupt images are rejected.
    assert!(load_workspace(&mut &buf[..10]).is_err());
    let mut bad = buf.clone();
    bad[0] = b'Z';
    assert!(load_workspace(&mut &bad[..]).is_err());
}

// ---------------------------------------------------------------------------
// Client/server shipping
// ---------------------------------------------------------------------------

#[test]
fn fetch_strategies_count_crossings() {
    let db = fig1_db();
    let server = Server::new(db);

    let mut one_at_a_time = TransportStats::default();
    server
        .fetch(
            "SELECT * FROM EMP",
            FetchStrategy::TupleAtATime,
            &mut one_at_a_time,
        )
        .unwrap();

    let mut whole = TransportStats::default();
    server
        .fetch(
            "SELECT * FROM EMP",
            FetchStrategy::WholeCo { max_bytes: 1 << 20 },
            &mut whole,
        )
        .unwrap();

    // 4 tuples: 1 request + 4 + 1 EOF vs 1 request + 1 payload.
    assert_eq!(one_at_a_time.messages, 6);
    assert_eq!(whole.messages, 2);
    assert!(
        one_at_a_time.simulated_ms(Default::default()) > whole.simulated_ms(Default::default())
    );
}

#[test]
fn shipping_policies_trade_off_exposure() {
    let db = fig1_db();
    let table = db.catalog().table("EMP").unwrap();
    let rids: Vec<_> = {
        let mut v = Vec::new();
        table
            .for_each(|rid, t| {
                if t.values[2] == Value::Int(1) {
                    v.push(rid);
                }
                Ok(true)
            })
            .unwrap();
        v
    };
    // Request only (eno, ename) of d1's employees.
    let cols = [0usize, 1];

    let page = simulate_shipping(&table, &rids, &cols, ShippingPolicy::PageShipping).unwrap();
    let object = simulate_shipping(&table, &rids, &cols, ShippingPolicy::ObjectShipping).unwrap();
    let query = simulate_shipping(
        &table,
        &rids,
        &cols,
        ShippingPolicy::QueryShipping {
            block_bytes: 32 * 1024,
        },
    )
    .unwrap();

    // Page shipping moves whole pages and exposes co-located tuples.
    assert!(page.bytes >= 8192);
    assert_eq!(page.exposed_tuples, 2, "e3, e4 share the page");
    // Object shipping: no foreign tuples, but all attributes of requested
    // ones, one message per object.
    assert_eq!(object.exposed_tuples, 0);
    assert!(object.exposed_attributes > 0);
    assert_eq!(object.messages, rids.len() as u64);
    // Query shipping: least bytes, no exposure, single message.
    assert_eq!(query.exposed_tuples, 0);
    assert_eq!(query.exposed_attributes, 0);
    assert_eq!(query.messages, 1);
    assert!(query.bytes < object.bytes && object.bytes < page.bytes);
}

#[test]
fn doc_example_smoke() {
    // Mirrors the crate-level doc example.
    let db = Database::new();
    let s = db.session();
    s.execute(
        "CREATE TABLE DEPT (dno INT, dname VARCHAR(20), loc VARCHAR(10))",
        &[],
    )
    .unwrap();
    s.execute(
        "CREATE TABLE EMP (eno INT, ename VARCHAR(20), edno INT)",
        &[],
    )
    .unwrap();
    s.execute(
        "INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'apps', 'HDC')",
        &[],
    )
    .unwrap();
    s.execute("INSERT INTO EMP VALUES (10, 'mia', 1), (11, 'ben', 2)", &[])
        .unwrap();
    let outcome = s
        .execute(
            "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
             TAKE *",
            &[],
        )
        .unwrap();
    let ExecOutcome::Rows(r) = outcome else {
        panic!()
    };
    assert_eq!(r.stream("xemp").unwrap().rows.len(), 1);
}
