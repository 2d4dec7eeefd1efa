//! Batch-engine equivalence suite: the vectorized executor must return
//! byte-identical streams no matter how the pipeline is chunked.
//!
//! Strategy: every fixture generator is deterministic for a fixed seed, so
//! building the same database under different `PlanOptions::batch_size`
//! values yields identical data; running the same statements against each
//! must yield identical `QueryResult` streams (names, columns, rows — in
//! order). A handful of results are additionally checked against
//! brute-force recomputations from the raw inserted rows.

use xnf_core::{Database, DbConfig, QueryResult, Value};
use xnf_fixtures::{
    build_oo1_db_with, build_paper_db_with, random_table, Oo1Config, PaperScale, RandomTableConfig,
    DEPS_ARC,
};
use xnf_plan::PlanOptions;

/// Chunkings to sweep: degenerate row-at-a-time, an odd size that never
/// divides page or table cardinalities evenly, and the default.
const BATCH_SIZES: &[usize] = &[1, 7, 1024];

fn config_with_batch(batch_size: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            batch_size,
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
// random fixture: scans, joins, aggregates, subqueries, prepared params
// ---------------------------------------------------------------------------

const RANDOM_QUERIES: &[&str] = &[
    "SELECT a, b, c FROM R",
    "SELECT a FROM R WHERE a < 10 ORDER BY a",
    "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM R",
    "SELECT a, COUNT(*) FROM R GROUP BY a HAVING COUNT(*) > 1",
    "SELECT DISTINCT c FROM R",
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a ORDER BY r.a, s.b LIMIT 50",
    "SELECT COUNT(*) FROM R r, S s WHERE r.a = s.a AND r.b IS NOT NULL",
    "SELECT a FROM R WHERE a IN (SELECT a FROM S WHERE b > 5) ORDER BY a",
    "SELECT a FROM R WHERE EXISTS (SELECT 1 FROM S WHERE S.a = R.a AND S.b > 10) ORDER BY a",
    "SELECT a FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE S.a = R.a) ORDER BY a",
    "SELECT a, b FROM R ORDER BY b DESC, a LIMIT 7",
    "SELECT r1.a, r2.a FROM R r1, R r2 WHERE r1.b = r2.b AND r1.a < r2.a ORDER BY r1.a, r2.a",
    "SELECT a FROM R UNION SELECT a FROM S ORDER BY a",
];

fn build_random_db(batch_size: usize) -> (Database, Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let db = Database::with_config(config_with_batch(batch_size));
    let r_rows = random_table(
        &db,
        "R",
        RandomTableConfig {
            rows: 300,
            domain: 25,
            null_p: 0.15,
            seed: 11,
        },
    );
    let s_rows = random_table(
        &db,
        "S",
        RandomTableConfig {
            rows: 200,
            domain: 25,
            null_p: 0.1,
            seed: 23,
        },
    );
    (db, r_rows, s_rows)
}

#[test]
fn random_fixture_identical_across_batch_sizes() {
    let (reference_db, r_rows, s_rows) = build_random_db(BATCH_SIZES[BATCH_SIZES.len() - 1]);
    let reference: Vec<QueryResult> = RANDOM_QUERIES
        .iter()
        .map(|q| reference_db.query(q).unwrap())
        .collect();

    // Brute-force cross-checks against the raw inserted rows.
    let lt10 = r_rows
        .iter()
        .filter(|r| matches!(&r[0], Value::Int(a) if *a < 10))
        .count();
    assert_eq!(reference[1].try_table().unwrap().rows.len(), lt10);
    let join_count = r_rows
        .iter()
        .filter(|r| !r[1].is_null())
        .map(|r| s_rows.iter().filter(|s| s[0] == r[0]).count())
        .sum::<usize>();
    assert_eq!(
        reference[6].try_table().unwrap().rows[0][0],
        Value::Int(join_count as i64)
    );

    for &bs in &BATCH_SIZES[..BATCH_SIZES.len() - 1] {
        let (db, _, _) = build_random_db(bs);
        for (q, expected) in RANDOM_QUERIES.iter().zip(&reference) {
            let got = db.query(q).unwrap();
            assert_same_result(expected, &got, &format!("batch_size={bs}: {q}"));
        }
    }
}

#[test]
fn prepared_params_identical_across_batch_sizes() {
    let (reference_db, _, _) = build_random_db(1024);
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

    for &bs in &[1usize, 7] {
        let (db, _, _) = build_random_db(bs);
        let session = db.session();
        let mut prepared = session.prepare(sql).unwrap();
        for (p, expected) in params.iter().zip(&reference) {
            prepared.bind(&[Value::Int(*p)]).unwrap();
            let got = prepared.query().unwrap();
            assert_same_result(expected, &got, &format!("batch_size={bs}: param {p}"));
        }
    }
}

// ---------------------------------------------------------------------------
// paper fixture: CO extraction (multi-stream results)
// ---------------------------------------------------------------------------

#[test]
fn paper_co_streams_identical_across_batch_sizes() {
    let scale = PaperScale {
        departments: 12,
        employees_per_dept: 6,
        projects_per_dept: 3,
        skills: 40,
        ..Default::default()
    };
    let reference_db = build_paper_db_with(scale, config_with_batch(1024));
    let reference = reference_db.query(DEPS_ARC).unwrap();
    assert!(reference.streams.len() > 1, "CO result is multi-stream");

    for &bs in &[1usize, 7] {
        let db = build_paper_db_with(scale, config_with_batch(bs));
        let got = db.query(DEPS_ARC).unwrap();
        assert_same_result(&reference, &got, &format!("batch_size={bs}: DEPS_ARC"));
    }
}

// ---------------------------------------------------------------------------
// oo1 fixture: larger scans + aggregation over the parts graph
// ---------------------------------------------------------------------------

#[test]
fn oo1_fixture_identical_across_batch_sizes() {
    let cfg = Oo1Config {
        parts: 600,
        ..Default::default()
    };
    let queries = [
        "SELECT COUNT(*) FROM OO1PARTS",
        "SELECT ptype, COUNT(*) FROM OO1PARTS GROUP BY ptype",
        "SELECT COUNT(*) FROM OO1PARTS p, OO1CONN c WHERE p.id = c.src AND c.length < 50",
        "SELECT p.id FROM OO1PARTS p WHERE p.x < 1000 ORDER BY p.id LIMIT 20",
    ];
    let reference_db = build_oo1_db_with(cfg, config_with_batch(1024));
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| reference_db.query(q).unwrap())
        .collect();
    assert_eq!(
        reference[0].try_table().unwrap().rows[0][0],
        Value::Int(600)
    );

    for &bs in &[1usize, 7] {
        let db = build_oo1_db_with(cfg, config_with_batch(bs));
        for (q, expected) in queries.iter().zip(&reference) {
            let got = db.query(q).unwrap();
            assert_same_result(expected, &got, &format!("batch_size={bs}: {q}"));
        }
    }
}

// ---------------------------------------------------------------------------
// streaming behaviour: scans must not materialize whole tables
// ---------------------------------------------------------------------------

#[test]
fn limit_query_stops_scanning_early() {
    let db = Database::new();
    db.execute("CREATE TABLE BIG (id INT NOT NULL, payload INT)")
        .unwrap();
    let table = db.catalog().table("BIG").unwrap();
    const N: usize = 20_000;
    for i in 0..N {
        table
            .insert(&xnf_storage::Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int((i * 3) as i64),
            ]))
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    // Early LIMIT: the scan streams pages until one batch fills; it must
    // not touch anywhere near the whole table (the row engine it replaced
    // buffered all N rows before the limit applied).
    let r = db.query("SELECT id FROM BIG LIMIT 5").unwrap();
    assert_eq!(r.try_table().unwrap().rows.len(), 5);
    assert!(
        r.stats.rows_scanned < (N / 4) as u64,
        "LIMIT 5 scanned {} of {N} rows — scan is materializing the table",
        r.stats.rows_scanned
    );
    assert!(r.stats.batches_emitted >= 1);
    assert!(r.stats.peak_batch_rows <= 1024);

    // Contrast: a full aggregate really does scan everything.
    let full = db.query("SELECT COUNT(*) FROM BIG").unwrap();
    assert_eq!(full.try_table().unwrap().rows[0][0], Value::Int(N as i64));
    assert_eq!(full.stats.rows_scanned, N as u64);
}

#[test]
fn batch_size_knob_caps_scan_batches() {
    let db = Database::with_config(config_with_batch(10));
    db.execute("CREATE TABLE T (v INT)").unwrap();
    let table = db.catalog().table("T").unwrap();
    for i in 0..100 {
        table
            .insert(&xnf_storage::Tuple::new(vec![Value::Int(i)]))
            .unwrap();
    }
    let r = db.query("SELECT v FROM T").unwrap();
    assert_eq!(r.try_table().unwrap().rows.len(), 100);
    assert!(
        r.stats.peak_batch_rows <= 10,
        "peak batch {} exceeds configured size 10",
        r.stats.peak_batch_rows
    );
    assert!(r.stats.batches_emitted >= 10);
}

#[test]
fn explain_reports_batch_mode() {
    let db = Database::with_config(config_with_batch(256));
    db.execute("CREATE TABLE T (v INT)").unwrap();
    let explain = db.explain("SELECT v FROM T").unwrap();
    assert!(
        explain.contains("batch pipeline (batch_size=256)"),
        "{explain}"
    );
}
