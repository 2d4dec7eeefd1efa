//! End-to-end execution tests: parse → QGM → rewrite → plan → execute on
//! the paper's Fig. 1 database.

use std::sync::Arc;

use xnf_plan::{plan_query, PlanOptions};
use xnf_qgm::{build_select_query, build_xnf_query, OutputKind};
use xnf_rewrite::{rewrite, RewriteOptions};
use xnf_sql::{parse_select, parse_xnf};
use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema, Tuple, Value};

use crate::engine::{execute_qep, QueryResult};

/// The Fig. 1 instance: two ARC departments (d1, d2) plus one elsewhere;
/// employees e1..e4 (e4 outside ARC); projects p1..p2; skills s1..s5 with
/// s2 attached to nobody (the paper's unreachable-skill example).
fn fig1_db() -> Catalog {
    let cat = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256)));
    let dept = cat
        .create_table(
            "DEPT",
            Schema::from_pairs(&[
                ("dno", DataType::Int),
                ("dname", DataType::Str),
                ("loc", DataType::Str),
            ]),
        )
        .unwrap();
    let emp = cat
        .create_table(
            "EMP",
            Schema::from_pairs(&[
                ("eno", DataType::Int),
                ("ename", DataType::Str),
                ("edno", DataType::Int),
                ("sal", DataType::Double),
            ]),
        )
        .unwrap();
    let proj = cat
        .create_table(
            "PROJ",
            Schema::from_pairs(&[
                ("pno", DataType::Int),
                ("pname", DataType::Str),
                ("pdno", DataType::Int),
            ]),
        )
        .unwrap();
    let skills = cat
        .create_table(
            "SKILLS",
            Schema::from_pairs(&[("sno", DataType::Int), ("sname", DataType::Str)]),
        )
        .unwrap();
    let es = cat
        .create_table(
            "EMPSKILLS",
            Schema::from_pairs(&[("eseno", DataType::Int), ("essno", DataType::Int)]),
        )
        .unwrap();
    let ps = cat
        .create_table(
            "PROJSKILLS",
            Schema::from_pairs(&[("pspno", DataType::Int), ("pssno", DataType::Int)]),
        )
        .unwrap();

    let rows: Vec<(i64, &str, &str)> =
        vec![(1, "tools", "ARC"), (2, "db", "ARC"), (3, "apps", "HDC")];
    for (dno, dname, loc) in rows {
        dept.insert(&Tuple::new(vec![dno.into(), dname.into(), loc.into()]))
            .unwrap();
    }
    // e1,e2 in d1; e3 in d2; e4 in d3 (not ARC).
    for (eno, ename, edno, sal) in [
        (1, "e1", 1, 100.0),
        (2, "e2", 1, 120.0),
        (3, "e3", 2, 90.0),
        (4, "e4", 3, 80.0),
    ] {
        emp.insert(&Tuple::new(vec![
            Value::Int(eno),
            ename.into(),
            Value::Int(edno),
            Value::Double(sal),
        ]))
        .unwrap();
    }
    // p1 in d1, p2 in d2, p3 in d3.
    for (pno, pname, pdno) in [(1, "p1", 1), (2, "p2", 2), (3, "p3", 3)] {
        proj.insert(&Tuple::new(vec![
            Value::Int(pno),
            pname.into(),
            Value::Int(pdno),
        ]))
        .unwrap();
    }
    for (sno, sname) in [(1, "s1"), (2, "s2"), (3, "s3"), (4, "s4"), (5, "s5")] {
        skills
            .insert(&Tuple::new(vec![Value::Int(sno), sname.into()]))
            .unwrap();
    }
    // Employee skills: e1->s1, e2->s3, e3->s3 (shared), e4->s2? No: s2 must
    // stay unreachable, so e4 (non-ARC) holds s2's only link.
    for (e, s) in [(1, 1), (2, 3), (3, 3), (4, 2)] {
        es.insert(&Tuple::new(vec![Value::Int(e), Value::Int(s)]))
            .unwrap();
    }
    // Project skills: p1->s4, p2->s3 (shared with employees), p2->s5.
    for (p, s) in [(1, 4), (2, 3), (2, 5)] {
        ps.insert(&Tuple::new(vec![Value::Int(p), Value::Int(s)]))
            .unwrap();
    }
    for t in ["DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS"] {
        cat.table(t).unwrap().analyze().unwrap();
    }
    cat
}

pub fn run_sql(cat: &Catalog, sql: &str) -> QueryResult {
    run_sql_opts(cat, sql, RewriteOptions::default(), PlanOptions::default())
}

pub fn run_sql_opts(
    cat: &Catalog,
    sql: &str,
    ropts: RewriteOptions,
    popts: PlanOptions,
) -> QueryResult {
    let ast = parse_select(sql).unwrap();
    let mut g = build_select_query(cat, &ast).unwrap();
    rewrite(&mut g, ropts).unwrap();
    let qep = plan_query(cat, &g, popts).unwrap();
    execute_qep(cat, &qep).unwrap()
}

pub fn run_xnf(cat: &Catalog, text: &str) -> QueryResult {
    let ast = parse_xnf(text).unwrap();
    let mut g = build_xnf_query(cat, &ast).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    let qep = plan_query(cat, &g, PlanOptions::default()).unwrap();
    execute_qep(cat, &qep).unwrap()
}

fn ints(result: &QueryResult, col: usize) -> Vec<i64> {
    let mut v: Vec<i64> = result
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[col].as_int().unwrap())
        .collect();
    v.sort();
    v
}

#[test]
fn select_with_filter() {
    let cat = fig1_db();
    let r = run_sql(&cat, "SELECT dno, dname FROM DEPT WHERE loc = 'ARC'");
    assert_eq!(ints(&r, 0), vec![1, 2]);
}

#[test]
fn row_at_a_time_chunking_matches_default() {
    // batch_size = 1 degenerates the pipeline to row-at-a-time delivery;
    // results must be identical and granularity stats must reflect it.
    let cat = fig1_db();
    for sql in [
        "SELECT dno, dname FROM DEPT WHERE loc = 'ARC'",
        "SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
        "SELECT edno, COUNT(*) FROM EMP GROUP BY edno",
    ] {
        let a = run_sql(&cat, sql);
        let b = run_sql_opts(
            &cat,
            sql,
            RewriteOptions::default(),
            PlanOptions {
                batch_size: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            a.try_table().unwrap().rows,
            b.try_table().unwrap().rows,
            "{sql}"
        );
        assert_eq!(b.stats.rows_emitted, a.stats.rows_emitted, "{sql}");
        assert_eq!(
            b.stats.batches_emitted, b.stats.rows_emitted,
            "one-row batches: {sql}"
        );
        assert!(b.stats.peak_batch_rows <= 1, "{sql}");
    }
}

#[test]
fn stats_report_pipeline_granularity() {
    let cat = fig1_db();
    let r = run_sql(&cat, "SELECT eno FROM EMP");
    assert_eq!(r.stats.rows_emitted, 4);
    assert!(r.stats.batches_emitted >= 1);
    assert!(r.stats.peak_batch_rows >= 1 && r.stats.peak_batch_rows <= 1024);
    // CO extraction delivers several streams (plus shared table queues),
    // each contributing sink batches.
    let co = run_xnf(&cat, DEPS_ARC);
    assert!(co.stats.batches_emitted >= co.streams.len() as u64);
}

#[test]
fn join_query() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
    );
    assert_eq!(ints(&r, 0), vec![1, 2, 3]);
}

#[test]
fn exists_rewritten_equals_naive() {
    let cat = fig1_db();
    let sql = "SELECT e.eno FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)";
    let fast = run_sql(&cat, sql);
    let naive = run_sql_opts(
        &cat,
        sql,
        RewriteOptions { e_to_f: false },
        PlanOptions::default(),
    );
    assert_eq!(ints(&fast, 0), vec![1, 2, 3]);
    assert_eq!(ints(&naive, 0), vec![1, 2, 3]);
    assert!(
        naive.stats.subquery_invocations >= 4,
        "naive mode runs per-tuple subqueries"
    );
    assert_eq!(
        fast.stats.subquery_invocations, 0,
        "rewritten mode is set-oriented"
    );
}

#[test]
fn not_exists_antijoin() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT d.dno FROM DEPT d WHERE NOT EXISTS (SELECT 1 FROM PROJ p WHERE p.pdno = d.dno)",
    );
    assert_eq!(ints(&r, 0), Vec::<i64>::new(), "every dept has a project");
    let r = run_sql(
        &cat,
        "SELECT s.sno FROM SKILLS s WHERE NOT EXISTS (SELECT 1 FROM EMPSKILLS e WHERE e.essno = s.sno)",
    );
    assert_eq!(ints(&r, 0), vec![4, 5]);
}

#[test]
fn in_subquery() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT ename FROM EMP WHERE edno IN (SELECT dno FROM DEPT WHERE loc = 'ARC') ORDER BY ename",
    );
    let names: Vec<&str> = r
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.as_str(),
            _ => panic!(),
        })
        .collect();
    assert_eq!(names, vec!["e1", "e2", "e3"]);
}

#[test]
fn group_by_having() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT edno, COUNT(*) AS n, AVG(sal) AS avgsal FROM EMP GROUP BY edno HAVING COUNT(*) > 1",
    );
    assert_eq!(r.try_table().unwrap().rows.len(), 1);
    let row = &r.try_table().unwrap().rows[0];
    assert_eq!(row[0], Value::Int(1));
    assert_eq!(row[1], Value::Int(2));
    assert_eq!(row[2], Value::Double(110.0));
}

#[test]
fn aggregates_without_group() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT COUNT(*), MIN(sal), MAX(sal), SUM(eno) FROM EMP",
    );
    let row = &r.try_table().unwrap().rows[0];
    assert_eq!(row[0], Value::Int(4));
    assert_eq!(row[1], Value::Double(80.0));
    assert_eq!(row[2], Value::Double(120.0));
    assert_eq!(row[3], Value::Int(10));
    // Empty input: COUNT 0, MIN NULL.
    let r = run_sql(&cat, "SELECT COUNT(*), MIN(sal) FROM EMP WHERE eno > 100");
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(0));
    assert!(r.try_table().unwrap().rows[0][1].is_null());
}

#[test]
fn count_distinct() {
    let cat = fig1_db();
    let r = run_sql(&cat, "SELECT COUNT(DISTINCT essno) FROM EMPSKILLS");
    assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(3));
}

#[test]
fn union_and_union_all() {
    let cat = fig1_db();
    let r = run_sql(
        &cat,
        "SELECT essno FROM EMPSKILLS UNION SELECT pssno FROM PROJSKILLS",
    );
    assert_eq!(ints(&r, 0), vec![1, 2, 3, 4, 5]);
    let r = run_sql(
        &cat,
        "SELECT essno FROM EMPSKILLS UNION ALL SELECT pssno FROM PROJSKILLS",
    );
    assert_eq!(r.try_table().unwrap().rows.len(), 7);
}

#[test]
fn order_by_and_limit() {
    let cat = fig1_db();
    let r = run_sql(&cat, "SELECT ename, sal FROM EMP ORDER BY sal DESC LIMIT 2");
    let names: Vec<String> = r
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["e2", "e1"]);
}

#[test]
fn or_of_exists_multipath() {
    let cat = fig1_db();
    // Skills reachable via ARC employees or ARC projects (the xskills
    // derivation, expressed in plain SQL).
    let r = run_sql(
        &cat,
        "SELECT s.sno FROM SKILLS s WHERE
           EXISTS (SELECT 1 FROM EMPSKILLS es, EMP e, DEPT d
                   WHERE es.essno = s.sno AND es.eseno = e.eno AND e.edno = d.dno AND d.loc = 'ARC')
           OR EXISTS (SELECT 1 FROM PROJSKILLS ps, PROJ p, DEPT d
                   WHERE ps.pssno = s.sno AND ps.pspno = p.pno AND p.pdno = d.dno AND d.loc = 'ARC')",
    );
    // s2 is only held by e4 (non-ARC): unreachable. s1,s3,s4,s5 reachable.
    assert_eq!(ints(&r, 0), vec![1, 3, 4, 5]);
}

#[test]
fn index_scan_matches_seq_scan() {
    let cat = fig1_db();
    let no_index = run_sql(&cat, "SELECT dno FROM DEPT WHERE loc = 'ARC'");
    cat.table("DEPT")
        .unwrap()
        .create_index("dept_loc", vec![2], false)
        .unwrap();
    let with_index = run_sql(&cat, "SELECT dno FROM DEPT WHERE loc = 'ARC'");
    assert_eq!(ints(&no_index, 0), ints(&with_index, 0));
}

// ---------------------------------------------------------------------------
// XNF end-to-end: the deps_ARC composite object of Fig. 1
// ---------------------------------------------------------------------------

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

#[test]
fn deps_arc_composite_object() {
    let cat = fig1_db();
    let r = run_xnf(&cat, DEPS_ARC);
    assert_eq!(r.streams.len(), 8);

    let get = |name: &str| r.stream(name).unwrap();

    // Nodes: reachability prunes non-ARC tuples and the orphan skill s2.
    let xdept: Vec<i64> = {
        let mut v: Vec<i64> = get("xdept")
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        v.sort();
        v
    };
    assert_eq!(xdept, vec![1, 2]);

    let mut xemp: Vec<i64> = get("xemp")
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    xemp.sort();
    assert_eq!(xemp, vec![1, 2, 3], "e4 is not reachable (non-ARC dept)");

    let mut xproj: Vec<i64> = get("xproj")
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    xproj.sort();
    assert_eq!(xproj, vec![1, 2]);

    let mut xskills: Vec<i64> = get("xskills")
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    xskills.sort();
    assert_eq!(
        xskills,
        vec![1, 3, 4, 5],
        "s2 is unreachable; s3 shared once"
    );

    // Connections: employment edges = (dept rowid, emp rowid) pairs.
    let employment = get("employment");
    assert!(matches!(employment.kind, OutputKind::Connection { .. }));
    assert_eq!(employment.rows.len(), 3);
    // Resolve rowids back to keys.
    let dept_rows = &get("xdept").rows;
    let emp_rows = &get("xemp").rows;
    let mut edges: Vec<(i64, i64)> = employment
        .rows
        .iter()
        .map(|r| {
            let d = dept_rows[r[0].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            let e = emp_rows[r[1].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            (d, e)
        })
        .collect();
    edges.sort();
    assert_eq!(edges, vec![(1, 1), (1, 2), (2, 3)]);

    // empproperty edges: e1->s1, e2->s3, e3->s3 (s3 shared by two parents).
    let empprop = get("empproperty");
    let skill_rows = &get("xskills").rows;
    let mut sedges: Vec<(i64, i64)> = empprop
        .rows
        .iter()
        .map(|r| {
            let e = emp_rows[r[0].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            let s = skill_rows[r[1].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            (e, s)
        })
        .collect();
    sedges.sort();
    assert_eq!(sedges, vec![(1, 1), (2, 3), (3, 3)]);

    // projproperty edges: p1->s4, p2->s3, p2->s5.
    let projprop = get("projproperty");
    let proj_rows = &get("xproj").rows;
    let mut pedges: Vec<(i64, i64)> = projprop
        .rows
        .iter()
        .map(|r| {
            let p = proj_rows[r[0].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            let s = skill_rows[r[1].as_int().unwrap() as usize][0]
                .as_int()
                .unwrap();
            (p, s)
        })
        .collect();
    pedges.sort();
    assert_eq!(pedges, vec![(1, 4), (2, 3), (2, 5)]);
}

#[test]
fn xnf_take_projection() {
    let cat = fig1_db();
    let r = run_xnf(
        &cat,
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE xdept(dname), employment, xemp(eno, ename)",
    );
    let xdept = r.stream("xdept").unwrap();
    assert_eq!(xdept.columns, vec!["dname"]);
    assert_eq!(xdept.rows.len(), 2);
    let xemp = r.stream("xemp").unwrap();
    assert_eq!(xemp.columns, vec!["eno", "ename"]);
    assert_eq!(xemp.rows.len(), 3);
}

#[test]
fn xnf_restriction() {
    let cat = fig1_db();
    let r = run_xnf(
        &cat,
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE * WHERE xemp.sal > 100",
    );
    let mut xemp: Vec<i64> = r
        .stream("xemp")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    xemp.sort();
    assert_eq!(xemp, vec![2], "only e2 earns more than 100");
    assert_eq!(r.stream("employment").unwrap().rows.len(), 1);
}

#[test]
fn xnf_matches_separate_sql_queries() {
    // The CO component tables must equal their single-query SQL derivations
    // (Fig. 6): same rows, one multi-output query vs. several queries.
    let cat = fig1_db();
    let co = run_xnf(&cat, DEPS_ARC);

    let sql_xemp = run_sql(
        &cat,
        "SELECT e.eno FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
    );
    let mut co_xemp: Vec<i64> = co
        .stream("xemp")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    co_xemp.sort();
    assert_eq!(co_xemp, ints(&sql_xemp, 0));

    let sql_xskills = run_sql(
        &cat,
        "SELECT s.sno FROM SKILLS s WHERE
           EXISTS (SELECT 1 FROM EMPSKILLS es, EMP e, DEPT d
                   WHERE es.essno = s.sno AND es.eseno = e.eno AND e.edno = d.dno AND d.loc = 'ARC')
           OR EXISTS (SELECT 1 FROM PROJSKILLS ps, PROJ p, DEPT d
                   WHERE ps.pssno = s.sno AND ps.pspno = p.pno AND p.pdno = d.dno AND d.loc = 'ARC')",
    );
    let mut co_sk: Vec<i64> = co
        .stream("xskills")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    co_sk.sort();
    assert_eq!(co_sk, ints(&sql_xskills, 0));
}

/// A multi-page EMP/DEPT instance big enough for morsel scheduling to do
/// real work (EMP spans several heap pages).
fn big_db() -> Catalog {
    let cat = Catalog::new(Arc::new(BufferPool::new(
        Arc::new(DiskManager::new()),
        1024,
    )));
    let dept = cat
        .create_table(
            "DEPT",
            Schema::from_pairs(&[
                ("dno", DataType::Int),
                ("dname", DataType::Str),
                ("loc", DataType::Str),
            ]),
        )
        .unwrap();
    let emp = cat
        .create_table(
            "EMP",
            Schema::from_pairs(&[
                ("eno", DataType::Int),
                ("ename", DataType::Str),
                ("edno", DataType::Int),
                ("sal", DataType::Double),
            ]),
        )
        .unwrap();
    for d in 0..16 {
        let loc = if d % 2 == 0 { "ARC" } else { "HDC" };
        dept.insert(&Tuple::new(vec![
            Value::Int(d),
            format!("dept{d}").into(),
            loc.into(),
        ]))
        .unwrap();
    }
    for e in 0..3000i64 {
        emp.insert(&Tuple::new(vec![
            Value::Int(e),
            format!("emp{e}").into(),
            Value::Int(e % 16),
            Value::Double((e % 331) as f64),
        ]))
        .unwrap();
    }
    cat
}

fn parallel_popts(dop: usize) -> PlanOptions {
    PlanOptions {
        dop,
        // Parallelize even the small test tables.
        parallel_min_pages: 1,
        ..Default::default()
    }
}

#[test]
fn parallel_scan_matches_serial_byte_for_byte() {
    let cat = big_db();
    assert!(
        cat.table("EMP").unwrap().page_count() >= 4,
        "fixture must span several pages"
    );
    let sql = "SELECT eno, ename FROM EMP WHERE sal > 200";
    let serial = run_sql_opts(
        &cat,
        sql,
        RewriteOptions::default(),
        PlanOptions {
            dop: 1,
            ..Default::default()
        },
    );
    for dop in [2, 4] {
        let par = run_sql_opts(&cat, sql, RewriteOptions::default(), parallel_popts(dop));
        // Same rows in the same order: the gather's morsel merge restores
        // serial page order exactly.
        assert_eq!(
            serial.try_table().unwrap().rows,
            par.try_table().unwrap().rows,
            "dop={dop}"
        );
        assert!(par.stats.parallel_regions >= 1, "dop={dop}");
        assert_eq!(par.stats.parallel_workers, dop as u64, "dop={dop}");
        assert!(
            par.stats.morsels_dispatched >= cat.table("EMP").unwrap().page_count() as u64,
            "dop={dop}"
        );
        assert_eq!(par.stats.rows_emitted, serial.stats.rows_emitted);
    }
}

#[test]
fn parallel_join_matches_serial() {
    let cat = big_db();
    let sql = "SELECT e.eno, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'";
    let serial = run_sql_opts(
        &cat,
        sql,
        RewriteOptions::default(),
        PlanOptions {
            dop: 1,
            ..Default::default()
        },
    );
    for dop in [2, 4] {
        let par = run_sql_opts(&cat, sql, RewriteOptions::default(), parallel_popts(dop));
        assert_eq!(
            serial.try_table().unwrap().rows,
            par.try_table().unwrap().rows,
            "dop={dop}"
        );
    }
}

#[test]
fn parallel_aggregate_matches_serial() {
    let cat = big_db();
    // Exact aggregates only: COUNT/MIN/MAX and int comparisons are
    // associative, so partial→final merging is bit-exact.
    for sql in [
        "SELECT edno, COUNT(*) FROM EMP GROUP BY edno",
        "SELECT edno, MIN(eno), MAX(eno) FROM EMP GROUP BY edno HAVING COUNT(*) > 10",
        "SELECT COUNT(*) FROM EMP WHERE sal > 100",
        "SELECT edno, COUNT(DISTINCT sal) FROM EMP GROUP BY edno",
    ] {
        let serial = run_sql_opts(
            &cat,
            sql,
            RewriteOptions::default(),
            PlanOptions {
                dop: 1,
                ..Default::default()
            },
        );
        for dop in [2, 4] {
            let par = run_sql_opts(&cat, sql, RewriteOptions::default(), parallel_popts(dop));
            assert_eq!(
                serial.try_table().unwrap().rows,
                par.try_table().unwrap().rows,
                "{sql} dop={dop}"
            );
        }
    }
}

#[test]
fn parallel_empty_result_and_empty_table() {
    let cat = big_db();
    let r = run_sql_opts(
        &cat,
        "SELECT eno FROM EMP WHERE sal > 100000",
        RewriteOptions::default(),
        parallel_popts(4),
    );
    assert!(r.try_table().unwrap().rows.is_empty());
    // Grand aggregate over an empty selection still yields its one row.
    let r = run_sql_opts(
        &cat,
        "SELECT COUNT(*) FROM EMP WHERE sal > 100000",
        RewriteOptions::default(),
        parallel_popts(4),
    );
    assert_eq!(r.try_table().unwrap().rows, vec![vec![Value::Int(0)]]);
}
