//! Dop 1, 2 and 4 over parts of the oracle corpus (`oracle/runner.rs`):
//! each statement equals the reference evaluator's answer at dop 1, and
//! every dop returns the same streams, byte for byte.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{oo1, paper, rs, rs_prepared, run_axis, semijoin_scans};

#[test]
fn random_fixture_identical_across_dops() {
    run_axis(&[rs, semijoin_scans], "dop");
}

#[test]
fn prepared_params_identical_across_dops() {
    run_axis(&[rs_prepared], "dop");
}

#[test]
fn paper_co_streams_identical_across_dops() {
    run_axis(&[paper], "dop");
}

#[test]
fn oo1_fixture_identical_across_dops() {
    run_axis(&[oo1], "dop");
}

/// The `analytic` bulk CO: each component derives in its own region, and a
/// semijoin probes inside its region, so the gathers pass the coordinator
/// only the rows each component keeps — for SALES, `xs`'s rows instead of
/// the whole table.
#[test]
fn bulk_co_gathers_only_semijoin_survivors() {
    let sql = runner::STAR_CO_BULK;
    let run = |dop| {
        let mut cfg = runner::config(true, dop, 1024);
        cfg.plan.parallel_min_pages = 1;
        let db = xnf_fixtures::build_star_db_with(3000, cfg);
        let session = db.session();
        let mut stmt = session.prepare(sql).unwrap();
        stmt.bind(&[xnf_core::Value::Int(3)]).unwrap();
        stmt.query().unwrap()
    };
    let (serial, parallel) = (run(1), run(2));
    runner::assert_same_result(&serial, &parallel, sql);
    let rows = |name| parallel.stream(name).unwrap().rows.len() as u64;
    // One region in 25 keeps about 1/25 of SALES.
    assert!(rows("xs") < 3000 / 20, "{}", rows("xs"));
    // CUST and ITEM clear `parallel_min_pages: 1` too: their components
    // are gathered on their own.
    let stats = &parallel.stats;
    assert_eq!(stats.parallel_regions, 3, "{stats:?}");
    assert_eq!(
        stats.rows_gathered,
        rows("xc") + rows("xs") + rows("xi"),
        "{stats:?}"
    );
}

/// Aggregate edge cases at dop 1 and 2 and at batch sizes 1, 7 and 1024,
/// against answers computed here from the generator: an empty input's
/// grand total (COUNT 0, SUM NULL) with and without a HAVING that rejects
/// it, NULL group keys forming one group, COUNT(DISTINCT) over values that
/// every page holds (so both workers see them), and MIN and MAX over
/// VARCHAR. At dop 2 each query over `T` plans a `ParallelHashAggregate`.
#[test]
fn aggregate_edge_semantics_hold_at_every_dop_and_batch_size() {
    use std::collections::{BTreeMap, BTreeSet};
    use xnf_core::Value;

    const N: i64 = 1_200;
    let g = |i: i64| (i % 5 != 0).then_some(i % 3);
    let v = |i: i64| i % 7;
    let s = |i: i64| format!("s{:04}", (i * 37) % N);
    let x = |i: i64| i % 11;

    // Per group (None is the NULL key): rows, DISTINCT v, MIN s, MAX s.
    let mut groups: BTreeMap<Option<i64>, (i64, BTreeSet<i64>, String, String)> = BTreeMap::new();
    for i in 0..N {
        let e = groups
            .entry(g(i))
            .or_insert_with(|| (0, BTreeSet::new(), s(i), s(i)));
        e.0 += 1;
        e.1.insert(v(i));
        e.2 = e.2.clone().min(s(i));
        e.3 = e.3.clone().max(s(i));
    }
    let key = |k: &Option<i64>| k.map_or(Value::Null, Value::Int);
    let grouped: Vec<Vec<Value>> = groups
        .iter()
        .map(|(k, (n, distinct, min, max))| {
            vec![
                key(k),
                Value::Int(*n),
                Value::Int(distinct.len() as i64),
                Value::Str(min.clone()),
                Value::Str(max.clone()),
            ]
        })
        .collect();
    let all: Vec<String> = (0..N).map(s).collect();
    let total = vec![
        Value::Int(7),
        Value::Str(all.iter().min().unwrap().clone()),
        Value::Str(all.iter().max().unwrap().clone()),
    ];
    let empty_total = vec![vec![Value::Int(0), Value::Null]];
    let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
        (
            "SELECT COUNT(*), SUM(x) FROM T WHERE x < 0",
            empty_total.clone(),
        ),
        (
            "SELECT COUNT(*), SUM(x) FROM T WHERE x < 0 HAVING COUNT(*) > 0",
            vec![],
        ),
        (
            "SELECT g, COUNT(*), COUNT(DISTINCT v), MIN(s), MAX(s) FROM T GROUP BY g",
            grouped,
        ),
        (
            "SELECT COUNT(DISTINCT v), MIN(s), MAX(s) FROM T",
            vec![total],
        ),
        ("SELECT COUNT(*), SUM(x) FROM E", empty_total),
        ("SELECT COUNT(*), SUM(x) FROM E HAVING COUNT(*) > 0", vec![]),
    ];

    let values: Vec<String> = (0..N)
        .map(|i| {
            let g = g(i).map_or("NULL".to_string(), |g| g.to_string());
            format!("({i}, {g}, {}, '{}', {}, 'pad-{i:036}')", v(i), s(i), x(i))
        })
        .collect();
    for dop in [1, 2] {
        for batch in [1, 7, 1024] {
            let mut cfg = runner::config(false, dop, batch);
            cfg.plan.parallel_min_pages = 1;
            let db = xnf_core::Database::with_config(cfg);
            let session = db.session();
            session
                .execute_batch(&format!(
                    "CREATE TABLE T (id INT NOT NULL, g INT, v INT, s VARCHAR(8), x INT, \
                     pad VARCHAR(40)); \
                     CREATE TABLE E (x INT); \
                     INSERT INTO T VALUES {}",
                    values.join(", ")
                ))
                .unwrap();
            assert!(db.catalog().table("T").unwrap().page_count() > 4);
            for (sql, want) in &cases {
                let context = format!("dop {dop}, batch {batch}: {sql}");
                if dop == 2 && sql.contains("FROM T") {
                    let plan = db.explain(sql).unwrap();
                    assert!(plan.contains("ParallelHashAggregate"), "{context}\n{plan}");
                }
                let got = session.query(sql, &[]).unwrap();
                let rows = &got.try_table().unwrap().rows;
                // Debug output tells `Int(0)` from `Double(0.0)`.
                assert_eq!(format!("{rows:?}"), format!("{want:?}"), "{context}");
            }
        }
    }
}
