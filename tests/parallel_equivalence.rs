//! Parallel-execution equivalence suite: morsel-driven parallel plans must
//! return byte-identical streams to the serial engine, at every degree of
//! parallelism, every pipeline chunking, and under concurrent writers.
//!
//! Strategy mirrors `batch_equivalence.rs`: fixture generators are
//! deterministic for a fixed seed, so building the same database under
//! different `PlanOptions { dop, batch_size }` values yields identical
//! data; the same statements must then yield identical `QueryResult`
//! streams (names, columns, rows — in order).
//!
//! All aggregate queries here use exact aggregates (COUNT / MIN / MAX /
//! integer SUM): floating-point SUM/AVG are not associative, so morsel
//! assignment could legally perturb their low bits (see docs/EXPLAIN.md).

use xnf_core::{Database, DbConfig, QueryResult, Value};
use xnf_fixtures::{
    build_oo1_db_with, build_paper_db_with, random_table, Oo1Config, PaperScale, RandomTableConfig,
    DEPS_ARC,
};
use xnf_plan::PlanOptions;

const DOPS: &[usize] = &[1, 2, 4];
const BATCH_SIZES: &[usize] = &[1, 7, 1024];

fn config(dop: usize, batch_size: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            dop,
            batch_size,
            // Force parallel plans even on small fixture tables (the whole
            // point is to prove dop 2/4 equivalent to serial wherever the
            // suite runs).
            parallel_min_pages: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn assert_same_result(reference: &QueryResult, got: &QueryResult, context: &str) {
    assert_eq!(
        reference.streams.len(),
        got.streams.len(),
        "stream count differs: {context}"
    );
    for (a, b) in reference.streams.iter().zip(&got.streams) {
        assert_eq!(a.name, b.name, "stream name differs: {context}");
        assert_eq!(
            a.columns, b.columns,
            "columns differ: {context} / {}",
            a.name
        );
        assert_eq!(a.rows, b.rows, "rows differ: {context} / {}", a.name);
    }
}

// ---------------------------------------------------------------------------
// random fixture: scans, joins, aggregates, subqueries
// ---------------------------------------------------------------------------

const RANDOM_QUERIES: &[&str] = &[
    "SELECT a, b, c FROM R",
    "SELECT a FROM R WHERE a < 10",
    "SELECT a FROM R WHERE a < 10 ORDER BY a",
    "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM R",
    "SELECT a, COUNT(*) FROM R GROUP BY a HAVING COUNT(*) > 1",
    "SELECT a, COUNT(DISTINCT b) FROM R GROUP BY a",
    "SELECT DISTINCT c FROM R",
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a",
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a ORDER BY r.a, s.b LIMIT 50",
    "SELECT COUNT(*) FROM R r, S s WHERE r.a = s.a AND r.b IS NOT NULL",
    "SELECT a FROM R WHERE a IN (SELECT a FROM S WHERE b > 5) ORDER BY a",
    "SELECT a FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE S.a = R.a) ORDER BY a",
    "SELECT r1.a, r2.a FROM R r1, R r2 WHERE r1.b = r2.b AND r1.a < r2.a",
    "SELECT a FROM R UNION SELECT a FROM S ORDER BY a",
    "SELECT a, b FROM R ORDER BY b DESC, a LIMIT 7",
];

fn build_random_db(cfg: DbConfig) -> Database {
    let db = Database::with_config(cfg);
    random_table(
        &db,
        "R",
        RandomTableConfig {
            rows: 500,
            domain: 25,
            null_p: 0.15,
            seed: 11,
        },
    );
    random_table(
        &db,
        "S",
        RandomTableConfig {
            rows: 300,
            domain: 25,
            null_p: 0.1,
            seed: 23,
        },
    );
    db
}

#[test]
fn random_fixture_identical_across_dops() {
    let reference_db = build_random_db(config(1, 1024));
    let reference: Vec<QueryResult> = RANDOM_QUERIES
        .iter()
        .map(|q| reference_db.query(q).unwrap())
        .collect();

    for &dop in DOPS {
        for &bs in BATCH_SIZES {
            if dop == 1 && bs == 1024 {
                continue; // that's the reference configuration
            }
            let db = build_random_db(config(dop, bs));
            for (q, expected) in RANDOM_QUERIES.iter().zip(&reference) {
                let got = db.query(q).unwrap();
                assert_same_result(expected, &got, &format!("dop={dop} batch_size={bs}: {q}"));
            }
        }
    }
}

#[test]
fn prepared_params_identical_across_dops() {
    let reference_db = build_random_db(config(1, 1024));
    let params: &[i64] = &[0, 3, 9, 24];
    let sql = "SELECT a, b, c FROM R WHERE a = ? ORDER BY b, c";
    let session = reference_db.session();
    let mut prepared = session.prepare(sql).unwrap();
    let reference: Vec<QueryResult> = params
        .iter()
        .map(|p| {
            prepared.bind(&[Value::Int(*p)]).unwrap();
            prepared.query().unwrap()
        })
        .collect();

    for &dop in &[2usize, 4] {
        let db = build_random_db(config(dop, 1024));
        let session = db.session();
        let mut prepared = session.prepare(sql).unwrap();
        for (p, expected) in params.iter().zip(&reference) {
            prepared.bind(&[Value::Int(*p)]).unwrap();
            let got = prepared.query().unwrap();
            assert_same_result(expected, &got, &format!("dop={dop}: param {p}"));
        }
    }
}

// ---------------------------------------------------------------------------
// paper fixture: CO extraction (multi-stream results)
// ---------------------------------------------------------------------------

#[test]
fn paper_co_streams_identical_across_dops() {
    let scale = PaperScale {
        departments: 12,
        employees_per_dept: 6,
        projects_per_dept: 3,
        skills: 40,
        ..Default::default()
    };
    let reference_db = build_paper_db_with(scale, config(1, 1024));
    let reference = reference_db.query(DEPS_ARC).unwrap();
    assert!(reference.streams.len() > 1, "CO result is multi-stream");

    for &dop in &[2usize, 4] {
        for &bs in &[7usize, 1024] {
            let db = build_paper_db_with(scale, config(dop, bs));
            let got = db.query(DEPS_ARC).unwrap();
            assert_same_result(&reference, &got, &format!("dop={dop} bs={bs}: DEPS_ARC"));
        }
    }
}

// ---------------------------------------------------------------------------
// oo1 fixture: larger scans + aggregation over the parts graph
// ---------------------------------------------------------------------------

#[test]
fn oo1_fixture_identical_across_dops() {
    let cfg = Oo1Config {
        parts: 800,
        ..Default::default()
    };
    let queries = [
        "SELECT COUNT(*) FROM OO1PARTS",
        "SELECT ptype, COUNT(*) FROM OO1PARTS GROUP BY ptype",
        "SELECT COUNT(*) FROM OO1PARTS p, OO1CONN c WHERE p.id = c.src AND c.length < 50",
        "SELECT p.id FROM OO1PARTS p WHERE p.x < 1000 ORDER BY p.id LIMIT 20",
        "SELECT ptype, MIN(x), MAX(y) FROM OO1PARTS GROUP BY ptype",
    ];
    let reference_db = build_oo1_db_with(cfg, config(1, 1024));
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| reference_db.query(q).unwrap())
        .collect();

    for &dop in &[2usize, 4] {
        let db = build_oo1_db_with(cfg, config(dop, 1024));
        for (q, expected) in queries.iter().zip(&reference) {
            let got = db.query(q).unwrap();
            assert_same_result(expected, &got, &format!("dop={dop}: {q}"));
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot correctness under concurrent writers
// ---------------------------------------------------------------------------

/// A parallel query inside an open transaction reads the transaction's
/// pinned snapshot on every worker: repeated reads are stable no matter
/// how many commits land in between, and they equal the pre-race serial
/// read of the same snapshot.
#[test]
fn parallel_reads_are_snapshot_stable_under_concurrent_writers() {
    let db = Database::with_config(config(4, 1024));
    db.execute("CREATE TABLE T (id INT NOT NULL, grp INT, payload INT)")
        .unwrap();
    let table = db.catalog().table("T").unwrap();
    for i in 0..2000i64 {
        table
            .insert(&xnf_storage::Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 16),
                Value::Int(i * 3),
            ]))
            .unwrap();
    }

    let queries = [
        "SELECT COUNT(*), MIN(id), MAX(id) FROM T",
        "SELECT grp, COUNT(*) FROM T GROUP BY grp",
        "SELECT id FROM T WHERE payload > 3000",
    ];

    let reader = db.session();
    reader.begin().unwrap();
    let before: Vec<QueryResult> = queries
        .iter()
        .map(|q| reader.query(q, &[]).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let writer_done = scope.spawn(|| {
            let writer = db.session();
            for round in 0..20 {
                writer.begin().unwrap();
                for k in 0..50i64 {
                    writer
                        .execute(
                            "INSERT INTO T VALUES (?, ?, ?)",
                            &[
                                Value::Int(1_000_000 + round * 50 + k),
                                Value::Int(round % 16),
                                Value::Int(7),
                            ],
                        )
                        .unwrap();
                }
                writer.commit().unwrap();
            }
        });

        // Race parallel reads against the committing writer: every read
        // must keep seeing exactly the reader transaction's snapshot.
        for pass in 0..10 {
            for (q, expected) in queries.iter().zip(&before) {
                let got = reader.query(q, &[]).unwrap();
                assert_same_result(expected, &got, &format!("pass {pass}: {q}"));
            }
        }
        writer_done.join().unwrap();
    });

    // Still pinned after the writer finished.
    for (q, expected) in queries.iter().zip(&before) {
        let got = reader.query(q, &[]).unwrap();
        assert_same_result(expected, &got, &format!("post-race: {q}"));
    }
    reader.commit().unwrap();

    // A fresh autocommit parallel read sees all 1000 committed inserts.
    let after = db.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(
        after.try_table().unwrap().rows,
        vec![vec![Value::Int(3000)]]
    );
}
