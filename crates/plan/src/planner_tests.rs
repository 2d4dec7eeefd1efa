//! Planner tests: plan shapes for the paper's queries.

use std::sync::Arc;

use xnf_qgm::{build_select_query, build_xnf_query};
use xnf_rewrite::{rewrite, RewriteOptions};
use xnf_sql::{parse_select, parse_xnf};
use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema};

use crate::physical::PhysPlan;
use crate::planner::{plan_query, PlanOptions};

fn paper_catalog() -> Catalog {
    let cat = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256)));
    cat.create_table(
        "DEPT",
        Schema::from_pairs(&[
            ("dno", DataType::Int),
            ("dname", DataType::Str),
            ("loc", DataType::Str),
        ]),
    )
    .unwrap();
    cat.create_table(
        "EMP",
        Schema::from_pairs(&[
            ("eno", DataType::Int),
            ("ename", DataType::Str),
            ("edno", DataType::Int),
            ("sal", DataType::Double),
        ]),
    )
    .unwrap();
    cat.create_table(
        "SKILLS",
        Schema::from_pairs(&[("sno", DataType::Int), ("sname", DataType::Str)]),
    )
    .unwrap();
    cat.create_table(
        "EMPSKILLS",
        Schema::from_pairs(&[("eseno", DataType::Int), ("essno", DataType::Int)]),
    )
    .unwrap();
    cat
}

fn plan_sql(cat: &Catalog, sql: &str, opts: PlanOptions) -> crate::physical::Qep {
    let q = parse_select(sql).unwrap();
    let mut g = build_select_query(cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    plan_query(cat, &g, opts).unwrap()
}

#[test]
fn simple_scan_plan() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT ename FROM EMP WHERE sal > 100",
        PlanOptions::default(),
    );
    assert_eq!(qep.outputs.len(), 1);
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("SeqScan(EMP)"), "{explain}");
    assert!(explain.contains("Project"), "{explain}");
    // Filter is pushed into the scan.
    assert!(explain.contains("filter=[(#3 > 100)]"), "{explain}");
}

#[test]
fn exists_plans_as_hash_semijoin() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("HashSemiJoin"), "{explain}");
    assert!(!explain.contains("SubqueryFilter"), "{explain}");
}

#[test]
fn naive_mode_plans_subquery_filter() {
    let cat = paper_catalog();
    let q = parse_select(
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
    )
    .unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions { e_to_f: false }).unwrap();
    let qep = plan_query(&cat, &g, PlanOptions::default()).unwrap();
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("SubqueryFilter"), "{explain}");
}

#[test]
fn index_access_path_selected() {
    let cat = paper_catalog();
    let t = cat.table("DEPT").unwrap();
    t.create_index("dept_loc", vec![2], false).unwrap();
    let qep = plan_sql(
        &cat,
        "SELECT * FROM DEPT WHERE loc = 'ARC'",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("IndexEq(DEPT.dept_loc)"), "{explain}");

    // With indexes disabled, back to a scan.
    let qep = plan_sql(
        &cat,
        "SELECT * FROM DEPT WHERE loc = 'ARC'",
        PlanOptions {
            use_indexes: false,
            ..Default::default()
        },
    );
    assert!(qep.outputs[0].plan.explain().contains("SeqScan(DEPT)"));
}

#[test]
fn join_plans_as_hash_join() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("HashJoin"), "{explain}");
}

#[test]
fn xnf_plan_materialises_shared_components() {
    let cat = paper_catalog();
    let q = parse_xnf(
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE *",
    )
    .unwrap();
    let mut g = build_xnf_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    let qep = plan_query(&cat, &g, PlanOptions::default()).unwrap();

    // Both components are shared (outputs + connection reference them).
    assert!(qep.shared.len() >= 2, "{}", qep.explain());
    assert_eq!(qep.outputs.len(), 3);
    // The connection plan scans both shared results.
    let conn = qep.outputs.iter().find(|o| o.name == "employment").unwrap();
    let shared_scans = conn
        .plan
        .count_ops(&mut |p| matches!(p, PhysPlan::SharedScan { .. }));
    assert_eq!(shared_scans, 2, "{}", conn.plan.explain());
}

#[test]
fn group_by_plan_shape() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT edno, COUNT(*) AS n, AVG(sal) FROM EMP GROUP BY edno HAVING COUNT(*) > 2",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("HashAggregate"), "{explain}");
}

#[test]
fn order_by_and_limit_wrap_table_output() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT ename, sal FROM EMP ORDER BY sal DESC LIMIT 3",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("Limit 3"), "{explain}");
    assert!(explain.contains("Sort #1 DESC"), "{explain}");
}

#[test]
fn union_plan_dedupes() {
    let cat = paper_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT eno FROM EMP UNION SELECT sno FROM SKILLS",
        PlanOptions::default(),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("UnionAll(2)"), "{explain}");
    assert!(explain.contains("HashDistinct"), "{explain}");
}

/// A catalog whose EMP/DEPT tables actually hold rows, so the
/// parallelize pass's live page-count gate opens.
fn populated_catalog() -> Catalog {
    let cat = paper_catalog();
    let emp = cat.table("EMP").unwrap();
    let dept = cat.table("DEPT").unwrap();
    for d in 0..10 {
        dept.insert(&xnf_storage::Tuple::new(vec![
            xnf_storage::Value::Int(d),
            xnf_storage::Value::Str(format!("D{d}")),
            xnf_storage::Value::Str("ARC".into()),
        ]))
        .unwrap();
    }
    for e in 0..200 {
        emp.insert(&xnf_storage::Tuple::new(vec![
            xnf_storage::Value::Int(e),
            xnf_storage::Value::Str(format!("E{e}")),
            xnf_storage::Value::Int(e % 10),
            xnf_storage::Value::Double(100.0 + e as f64),
        ]))
        .unwrap();
    }
    cat
}

fn parallel_opts(dop: usize) -> PlanOptions {
    PlanOptions {
        dop,
        // Parallelize even the small test tables.
        parallel_min_pages: 1,
        ..Default::default()
    }
}

#[test]
fn dop_one_reproduces_serial_plans_exactly() {
    let cat = populated_catalog();
    for sql in [
        "SELECT ename FROM EMP WHERE sal > 100",
        "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
        "SELECT edno, COUNT(*) FROM EMP GROUP BY edno",
    ] {
        // The serial reference pins dop 1 with the default page gate: the
        // default dop follows the host's core count.
        let serial = plan_sql(
            &cat,
            sql,
            PlanOptions {
                dop: 1,
                ..Default::default()
            },
        );
        let one = plan_sql(&cat, sql, parallel_opts(1));
        assert_eq!(serial.explain(), one.explain(), "{sql}");
        for word in ["Parallel", "Exchange", "Morsel"] {
            assert!(!one.explain().contains(word), "{sql}: {}", one.explain());
        }
        assert!(one.explain().contains("dop: 1\n"), "{}", one.explain());
    }
}

#[test]
fn parallel_scan_plan_shape() {
    let cat = populated_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT ename FROM EMP WHERE sal > 150",
        parallel_opts(4),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("ExchangeGather(dop=4)"), "{explain}");
    assert!(explain.contains("ParallelSeqScan(EMP)"), "{explain}");
    assert!(explain.contains("filter=[(#3 > 150)]"), "{explain}");
    assert!(qep.explain().contains("dop: 4\n"), "{}", qep.explain());
}

#[test]
fn parallel_join_plan_shape() {
    let cat = populated_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
        parallel_opts(4),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("ParallelHashJoin"), "{explain}");
    assert!(
        explain.contains("ExchangeHashPartition(dop=4)"),
        "{explain}"
    );
    assert!(explain.contains("ExchangeGather(dop=4)"), "{explain}");
    // No serial HashJoin remains on this single-join query.
    let serial_joins = qep.outputs[0]
        .plan
        .count_ops(&mut |p| matches!(p, PhysPlan::HashJoin { .. }));
    assert_eq!(serial_joins, 0, "{explain}");
}

#[test]
fn parallel_aggregate_plan_shape() {
    let cat = populated_catalog();
    let qep = plan_sql(
        &cat,
        "SELECT edno, COUNT(*) FROM EMP GROUP BY edno",
        parallel_opts(4),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(
        explain.contains("ParallelHashAggregate(dop=4)"),
        "{explain}"
    );
    assert!(explain.contains("ParallelSeqScan(EMP)"), "{explain}");
    // The aggregate IS the region root: no gather above or below it.
    assert!(!explain.contains("ExchangeGather"), "{explain}");
}

#[test]
fn small_tables_stay_serial() {
    let cat = populated_catalog();
    let opts = PlanOptions {
        dop: 4,
        parallel_min_pages: 1_000_000,
        ..Default::default()
    };
    let qep = plan_sql(&cat, "SELECT ename FROM EMP WHERE sal > 100", opts);
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("SeqScan(EMP)"), "{explain}");
    assert!(!explain.contains("Parallel"), "{explain}");
}

#[test]
fn dop_is_taken_as_given_whatever_the_host() {
    let cat = populated_catalog();
    for (dop, want) in [(0, 1), (1024, 1024)] {
        let qep = plan_sql(
            &cat,
            "SELECT ename FROM EMP WHERE sal > 100",
            parallel_opts(dop),
        );
        assert_eq!(qep.dop, want, "{}", qep.explain());
    }
}

#[test]
fn limit_without_sort_stays_serial_for_early_out() {
    let cat = populated_catalog();
    let qep = plan_sql(&cat, "SELECT ename FROM EMP LIMIT 5", parallel_opts(4));
    let explain = qep.outputs[0].plan.explain();
    assert!(!explain.contains("Parallel"), "{explain}");

    // But a blocking Sort under the Limit parallelizes its input.
    let qep = plan_sql(
        &cat,
        "SELECT ename, sal FROM EMP ORDER BY sal DESC LIMIT 5",
        parallel_opts(4),
    );
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("Limit 5"), "{explain}");
    assert!(explain.contains("ParallelSeqScan(EMP)"), "{explain}");
}

// ---------------------------------------------------------------------------
// Plans where hash is right: an analytic-shaped star, pinned to goldens.
// ---------------------------------------------------------------------------

/// The six `analytic` benchmark templates (five relational, one bulk XNF).
const STAR_TEMPLATES: [&str; 6] = [
    "SELECT COUNT(*), SUM(amount) FROM SALES WHERE day >= ? AND day < ?",
    "SELECT i.cat, COUNT(*), SUM(s.amount) FROM SALES s, ITEM i \
     WHERE s.item = i.item AND s.day >= ? GROUP BY i.cat",
    "SELECT c.region, i.cat, SUM(s.amount) FROM SALES s, ITEM i, CUST c \
     WHERE s.item = i.item AND s.cust = c.cust AND s.day >= ? GROUP BY c.region, i.cat",
    "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
     GROUP BY cust ORDER BY total DESC, cust LIMIT 10",
    "SELECT sale, amount FROM SALES WHERE day = ? ORDER BY sale",
    "OUT OF xc AS (SELECT * FROM CUST WHERE region = ?),
            xs AS SALES,
            xi AS ITEM,
            buys AS (RELATE xc VIA BUYS, xs WHERE xc.cust = xs.cust),
            sold AS (RELATE xs VIA SOLD, xi WHERE xs.item = xi.item)
     TAKE *",
];

/// A star built in the test: a fact table with `day` indexed and no index
/// on `item`/`cust`, dimensions with unique key indexes, all ANALYZEd.
fn star_catalog() -> Catalog {
    use xnf_storage::{Tuple, Value};
    let cat = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 512)));
    let sales = cat
        .create_table(
            "SALES",
            Schema::from_pairs(&[
                ("sale", DataType::Int),
                ("day", DataType::Int),
                ("item", DataType::Int),
                ("cust", DataType::Int),
                ("qty", DataType::Int),
                ("amount", DataType::Int),
                ("note", DataType::Str),
            ]),
        )
        .unwrap();
    let item = cat
        .create_table(
            "ITEM",
            Schema::from_pairs(&[
                ("item", DataType::Int),
                ("cat", DataType::Int),
                ("price", DataType::Int),
            ]),
        )
        .unwrap();
    let cust = cat
        .create_table(
            "CUST",
            Schema::from_pairs(&[
                ("cust", DataType::Int),
                ("region", DataType::Int),
                ("cname", DataType::Str),
            ]),
        )
        .unwrap();
    for k in 0..4000i64 {
        sales
            .insert(&Tuple::new(vec![
                Value::Int(k),
                Value::Int(k * 7 % 365),
                Value::Int(k * 13 % 100),
                Value::Int(k * 17 % 200),
                Value::Int(1 + k % 9),
                Value::Int(1 + k * 31 % 499),
                Value::Str(format!("{k:0>100}")),
            ]))
            .unwrap();
    }
    for k in 0..100i64 {
        item.insert(&Tuple::new(vec![
            Value::Int(k),
            Value::Int(k % 40),
            Value::Int(1 + k % 97),
        ]))
        .unwrap();
    }
    for k in 0..200i64 {
        cust.insert(&Tuple::new(vec![
            Value::Int(k),
            Value::Int(k % 25),
            Value::Str(format!("cust-{k}")),
        ]))
        .unwrap();
    }
    sales.create_index("sales_day", vec![1], false).unwrap();
    item.create_index("item_pk", vec![0], true).unwrap();
    cust.create_index("cust_pk", vec![0], true).unwrap();
    for t in [&sales, &item, &cust] {
        t.analyze().unwrap();
    }
    cat
}

fn plan_any(cat: &Catalog, text: &str, opts: PlanOptions) -> crate::physical::Qep {
    let mut g = if text.trim_start().starts_with("OUT OF") {
        build_xnf_query(cat, &parse_xnf(text).unwrap()).unwrap()
    } else {
        build_select_query(cat, &parse_select(text).unwrap()).unwrap()
    };
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    plan_query(cat, &g, opts).unwrap()
}

/// Every template's EXPLAIN at dop 2, one after another.
fn star_explains(opts: PlanOptions) -> String {
    let cat = star_catalog();
    let mut out = String::new();
    for sql in STAR_TEMPLATES {
        out.push_str(&plan_any(&cat, sql, opts).explain());
    }
    out
}

#[test]
fn star_templates_keep_their_hash_plans() {
    let opts = PlanOptions {
        dop: 2,
        ..Default::default()
    };
    let got = star_explains(opts);
    assert_eq!(
        got,
        include_str!("../testdata/star_plans_dop2.txt"),
        "{got}"
    );
}

/// The Fig. 1 schema with rows and join-column indexes: `depts`
/// departments of 20 employees and 5 projects each, ANALYZEd if `analyze`.
fn paper_co_catalog(depts: i64, analyze: bool) -> Catalog {
    use xnf_storage::{Tuple, Value};
    let cat = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 512)));
    let table = |name: &str, cols: &[(&str, DataType)]| {
        cat.create_table(name, Schema::from_pairs(cols)).unwrap()
    };
    let dept = table(
        "DEPT",
        &[
            ("dno", DataType::Int),
            ("dname", DataType::Str),
            ("loc", DataType::Str),
        ],
    );
    let emp = table(
        "EMP",
        &[
            ("eno", DataType::Int),
            ("ename", DataType::Str),
            ("edno", DataType::Int),
            ("sal", DataType::Double),
        ],
    );
    let proj = table(
        "PROJ",
        &[
            ("pno", DataType::Int),
            ("pname", DataType::Str),
            ("pdno", DataType::Int),
        ],
    );
    let skills = table(
        "SKILLS",
        &[("sno", DataType::Int), ("sname", DataType::Str)],
    );
    let es = table(
        "EMPSKILLS",
        &[("eseno", DataType::Int), ("essno", DataType::Int)],
    );
    let ps = table(
        "PROJSKILLS",
        &[("pspno", DataType::Int), ("pssno", DataType::Int)],
    );
    let row = |t: &Arc<xnf_storage::Table>, v: Vec<Value>| {
        t.insert(&Tuple::new(v)).unwrap();
    };
    for d in 0..depts {
        let loc = ["ARC", "HDC", "YKT", "SJC", "ALM"][d as usize % 5];
        row(
            &dept,
            vec![
                Value::Int(d),
                Value::Str(format!("dept-{d}")),
                Value::Str(loc.into()),
            ],
        );
        for e in d * 20..(d + 1) * 20 {
            row(
                &emp,
                vec![
                    Value::Int(e),
                    Value::Str(format!("emp-{e}")),
                    Value::Int(d),
                    Value::Double(40.0 + (e % 120) as f64),
                ],
            );
            for k in 0..3 {
                row(&es, vec![Value::Int(e), Value::Int((e * 7 + k * 61) % 200)]);
            }
        }
        for p in d * 5..(d + 1) * 5 {
            row(
                &proj,
                vec![
                    Value::Int(p),
                    Value::Str(format!("proj-{p}")),
                    Value::Int(d),
                ],
            );
            for k in 0..4 {
                row(
                    &ps,
                    vec![Value::Int(p), Value::Int((p * 11 + k * 37) % 200)],
                );
            }
        }
    }
    for s in 0..200 {
        row(
            &skills,
            vec![Value::Int(s), Value::Str(format!("skill-{s}"))],
        );
    }
    dept.create_index("dept_pk", vec![0], true).unwrap();
    emp.create_index("emp_pk", vec![0], true).unwrap();
    emp.create_index("emp_dno", vec![2], false).unwrap();
    proj.create_index("proj_dno", vec![2], false).unwrap();
    skills.create_index("skills_pk", vec![0], true).unwrap();
    es.create_index("es_eno", vec![0], false).unwrap();
    ps.create_index("ps_pno", vec![0], false).unwrap();
    if analyze {
        for t in [&dept, &emp, &proj, &skills, &es, &ps] {
            t.analyze().unwrap();
        }
    }
    cat
}

/// The Fig. 1 composite object; `restriction` is appended verbatim.
fn paper_co(restriction: &str) -> String {
    format!(
        "OUT OF xdept AS (SELECT * FROM DEPT),
                xemp AS EMP,
                xproj AS PROJ,
                xskills AS SKILLS,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
                ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),
                empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                                WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),
                projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS ps
                                 WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)
         TAKE * {restriction}"
    )
}

/// Statements over the paper schema whose plans the goldens pin.
fn paper_statements() -> Vec<String> {
    vec![
        paper_co("WHERE xdept.dno = ?"),
        paper_co("WHERE xdept.dno = 3"),
        paper_co("WHERE xdept.loc = 'ARC'"),
        paper_co(""),
        "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.dno = 3".into(),
        "SELECT e.ename, s.essno FROM EMP e, EMPSKILLS s WHERE e.eno = s.eseno AND e.edno = ?"
            .into(),
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.dno = 3)"
            .into(),
    ]
}

/// Every paper statement's EXPLAIN under `opts`.
fn paper_explains(opts: PlanOptions) -> String {
    let cat = paper_co_catalog(40, true);
    let mut out = String::new();
    for sql in paper_statements() {
        out.push_str(&plan_any(&cat, &sql, opts).explain());
    }
    out
}

/// Every paper statement's and star template's EXPLAIN under `opts`.
fn pinned_explains(opts: PlanOptions) -> String {
    let mut out = paper_explains(opts);
    out.push_str(&star_explains(opts));
    out
}

/// The default options are what the benchmark plans with: these goldens
/// pin the root-restricted CO fetch and its neighbours to their index-join
/// plans.
#[test]
fn default_options_keep_their_plans() {
    for dop in [1, 2] {
        let got = paper_explains(PlanOptions {
            dop,
            ..Default::default()
        });
        let want = match dop {
            1 => include_str!("../testdata/default_plans_dop1.txt"),
            _ => include_str!("../testdata/default_plans_dop2.txt"),
        };
        assert_eq!(got, want, "dop {dop}:\n{got}");
    }
}

#[test]
fn use_indexes_off_reproduces_hash_plans() {
    for dop in [1, 2] {
        let opts = PlanOptions {
            use_indexes: false,
            dop,
            ..Default::default()
        };
        let got = pinned_explains(opts);
        let want = match dop {
            1 => include_str!("../testdata/no_index_plans_dop1.txt"),
            _ => include_str!("../testdata/no_index_plans_dop2.txt"),
        };
        assert_eq!(got, want, "dop {dop}:\n{got}");
    }
}

fn index_join_count(qep: &crate::physical::Qep) -> usize {
    let mut count = 0;
    for plan in qep.shared.iter().chain(qep.outputs.iter().map(|o| &o.plan)) {
        count += plan.count_ops(&mut |p| {
            matches!(
                p,
                PhysPlan::IndexNlJoin { .. } | PhysPlan::IndexSemiJoin { .. }
            )
        });
    }
    count
}

#[test]
fn root_restricted_co_plans_index_joins() {
    let cat = paper_co_catalog(40, true);
    let qep = plan_any(
        &cat,
        &paper_co("WHERE xdept.dno = ?"),
        PlanOptions::default(),
    );
    let explain = qep.explain();
    for op in [
        "IndexSemiJoin(EMP.emp_dno)",
        "IndexSemiJoin(PROJ.proj_dno)",
        "IndexNlJoin(EMPSKILLS.es_eno)",
        "IndexNlJoin(PROJSKILLS.ps_pno)",
    ] {
        assert!(explain.contains(op), "{op}:\n{explain}");
    }
    // Nothing below the root reads EMP, PROJ, EMPSKILLS or PROJSKILLS whole.
    for table in ["EMP", "PROJ", "EMPSKILLS", "PROJSKILLS"] {
        assert!(
            !explain.contains(&format!("Scan({table})")),
            "{table}:\n{explain}"
        );
    }
    // The unrestricted CO reads everything anyway: hash joins stay.
    let all = plan_any(&cat, &paper_co(""), PlanOptions::default());
    assert_eq!(index_join_count(&all), 0, "{}", all.explain());
}

#[test]
fn never_analyzed_tables_are_never_probed() {
    let sql = paper_co("WHERE xdept.dno = 3");
    // Without statistics nothing is known about a key's fan-out: no index
    // joins at all, however big the tables.
    for depts in [2, 200] {
        let cat = paper_co_catalog(depts, false);
        for text in [sql.clone(), paper_co("")] {
            let qep = plan_any(&cat, &text, PlanOptions::default());
            assert_eq!(index_join_count(&qep), 0, "{}", qep.explain());
        }
    }
    // An analyzed root does not change that: one department would drive
    // the probes, but the children it would probe have no statistics.
    let cat = paper_co_catalog(200, false);
    cat.table("DEPT").unwrap().analyze().unwrap();
    let qep = plan_any(&cat, &sql, PlanOptions::default());
    assert_eq!(index_join_count(&qep), 0, "{}", qep.explain());
    // Once EMP is analyzed too, it is probed from the one department.
    cat.table("EMP").unwrap().analyze().unwrap();
    let qep = plan_any(&cat, &sql, PlanOptions::default());
    assert!(
        qep.explain().contains("IndexSemiJoin(EMP.emp_dno)"),
        "{}",
        qep.explain()
    );
}

/// One estimator whatever the access paths: with or without `use_indexes`
/// the leg filter `e.eno = 5` is priced from ANALYZE's distinct values (200
/// employees, so one row), and the join starts from DEPT ⋈ that employee
/// rather than from all of EMP ⋈ DEPT.
#[test]
fn use_indexes_leaves_the_estimates_alone() {
    let cat = populated_catalog();
    for t in ["DEPT", "EMP"] {
        cat.table(t).unwrap().analyze().unwrap();
    }
    let sql = "SELECT m.ename, e.ename FROM EMP m, DEPT d, EMP e \
               WHERE m.edno = d.dno AND d.dno = e.edno AND e.eno = 5";
    for use_indexes in [true, false] {
        let opts = PlanOptions {
            use_indexes,
            dop: 1,
            ..Default::default()
        };
        let explain = plan_sql(&cat, sql, opts).outputs[0].plan.explain();
        let scans: Vec<&str> = explain
            .lines()
            .map(str::trim)
            .filter(|l| l.contains("Scan("))
            .collect();
        assert_eq!(
            scans,
            [
                "SeqScan(DEPT) filter=[]",
                "SeqScan(EMP) filter=[(#0 = 5)]",
                "SeqScan(EMP) filter=[]"
            ],
            "use_indexes: {use_indexes}\n{explain}"
        );
    }
}
