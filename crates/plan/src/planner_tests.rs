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
    rewrite(
        &mut g,
        RewriteOptions {
            e_to_f: false,
            simplify: true,
        },
    )
    .unwrap();
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
        parallel_min_pages: 1,
        // Exercise real dop-2/4 plans even on a single-core test host.
        allow_oversubscribe: true,
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
        allow_oversubscribe: true,
        ..Default::default()
    };
    let qep = plan_sql(&cat, "SELECT ename FROM EMP WHERE sal > 100", opts);
    let explain = qep.outputs[0].plan.explain();
    assert!(explain.contains("SeqScan(EMP)"), "{explain}");
    assert!(!explain.contains("Parallel"), "{explain}");
}

#[test]
fn dop_clamps_to_host_cores_unless_oversubscribed() {
    let cat = populated_catalog();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let opts = PlanOptions {
        dop: 1024,
        parallel_min_pages: 1,
        ..Default::default()
    };
    let qep = plan_sql(&cat, "SELECT ename FROM EMP WHERE sal > 100", opts);
    assert_eq!(qep.dop, cores, "{}", qep.explain());

    // The escape hatch keeps the requested dop verbatim.
    let qep = plan_sql(
        &cat,
        "SELECT ename FROM EMP WHERE sal > 100",
        parallel_opts(1024),
    );
    assert_eq!(qep.dop, 1024, "{}", qep.explain());
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
