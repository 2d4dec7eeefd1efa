//! One oracle for every plan-shape switch: the whole corpus of
//! `oracle/runner.rs`, checked against the reference evaluator of
//! `oracle/reference.rs`. Debug builds run the default cell and each
//! single-axis flip, release builds all 72 cells. Across the corpus every
//! axis must change some plan, and every operator the planner emits must
//! appear. The per-axis suites run parts of the same corpus on one axis.

#[path = "oracle/runner.rs"]
mod runner;

use std::collections::BTreeSet;

use runner::{all_cells, assert_same_result, co, config, run, Cell, CORPORA};
use xnf_core::{Database, DbConfig, ExecStats, PlanOptions, QueryResult, Value};
use xnf_fixtures::{build_paper_db_with, build_uniform_paper_db_with, PaperScale};

/// Every operator the planner emits for SQL and XNF statements.
const OPERATORS: &str = "SeqScan ParallelSeqScan MatViewScan IndexEq Values SharedScan Filter \
    Project HashDistinct Sort Limit HashAggregate ParallelHashAggregate ExchangeGather HashJoin \
    NlJoin IndexNlJoin HashSemiJoin NlSemiJoin IndexSemiJoin SubqueryFilter UnionAll";

#[test]
fn single_axis_flips_match_the_reference() {
    run_corpus(all_cells().filter(|c| c.flips().len() <= 1));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn full_product_matches_the_reference() {
    run_corpus(all_cells());
}

/// Run the whole corpus in `cells`: every axis flipped must change some
/// plan, every operator must be planned, some `HashJoin` and some
/// `HashSemiJoin`, one of them with a residual, must probe inside a
/// parallel region, and some recursive CO must plan its reachability.
fn run_corpus(cells: impl Iterator<Item = Cell>) {
    let cells: Vec<Cell> = cells.collect();
    let seen = run(&CORPORA, &cells);
    let axes: BTreeSet<_> = cells.iter().flat_map(|c| c.flips()).collect();
    assert_eq!(seen.axes, axes, "axes that changed no plan");
    let ops: BTreeSet<_> = OPERATORS.split_whitespace().map(String::from).collect();
    assert_eq!(seen.ops, ops, "operators no cell planned");
    assert!(
        seen.join_in_region,
        "no cell planned a HashJoin over a ParallelSeqScan inside a region"
    );
    assert!(
        seen.semijoin_in_region,
        "no cell planned a HashSemiJoin over a ParallelSeqScan inside a region"
    );
    assert!(
        seen.residual_semijoin_in_region,
        "no cell planned a HashSemiJoin with a residual inside a region"
    );
    assert!(seen.reach, "no cell planned a recursive CO's reachability");
    assert!(
        seen.fused_semijoin && seen.fused_semijoin_in_region,
        "no cell planned a residual-free HashSemiJoin over a scan, serial and parallel"
    );
    assert!(
        seen.fused_semijoin_with_filter,
        "no cell planned a residual-free HashSemiJoin over a filtered scan"
    );
}

fn config_with_batch(batch_size: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            batch_size,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn stream_len(r: &QueryResult, name: &str) -> usize {
    r.stream(name).unwrap().rows.len()
}

#[test]
fn limit_query_stops_scanning_early() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE BIG (id INT NOT NULL, payload INT)", &[])
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
    s.execute("ANALYZE", &[]).unwrap();

    // Early LIMIT: the scan streams pages until one batch fills; it must
    // not touch anywhere near the whole table (the row engine it replaced
    // buffered all N rows before the limit applied).
    let r = s.query("SELECT id FROM BIG LIMIT 5", &[]).unwrap();
    assert_eq!(r.try_table().unwrap().rows.len(), 5);
    assert!(
        r.stats.rows_scanned < (N / 4) as u64,
        "LIMIT 5 scanned {} of {N} rows — scan is materializing the table",
        r.stats.rows_scanned
    );
    assert!(r.stats.batches_emitted >= 1);
    assert!(r.stats.peak_batch_rows <= 1024);

    // Contrast: a full aggregate really does scan everything.
    let full = s.query("SELECT COUNT(*) FROM BIG", &[]).unwrap();
    assert_eq!(full.try_table().unwrap().rows[0][0], Value::Int(N as i64));
    assert_eq!(full.stats.rows_scanned, N as u64);
}

#[test]
fn batch_size_knob_caps_scan_batches() {
    let db = Database::with_config(config_with_batch(10));
    let s = db.session();
    s.execute("CREATE TABLE T (v INT)", &[]).unwrap();
    let table = db.catalog().table("T").unwrap();
    for i in 0..100 {
        table
            .insert(&xnf_storage::Tuple::new(vec![Value::Int(i)]))
            .unwrap();
    }
    let r = s.query("SELECT v FROM T", &[]).unwrap();
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
    db.session().execute("CREATE TABLE T (v INT)", &[]).unwrap();
    let explain = db.explain("SELECT v FROM T").unwrap();
    assert!(
        explain.contains("batch pipeline (batch_size=256)"),
        "{explain}"
    );
}

/// A parallel query inside an open transaction reads the transaction's
/// pinned snapshot on every worker: repeated reads are stable no matter
/// how many commits land in between, and they equal the pre-race serial
/// read of the same snapshot.
#[test]
fn parallel_reads_are_snapshot_stable_under_concurrent_writers() {
    let db = Database::with_config(config(true, 4, 1024));
    let autocommit = db.session();
    autocommit
        .execute(
            "CREATE TABLE T (id INT NOT NULL, grp INT, payload INT)",
            &[],
        )
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
    let after = autocommit.query("SELECT COUNT(*) FROM T", &[]).unwrap();
    assert_eq!(
        after.try_table().unwrap().rows,
        vec![vec![Value::Int(3000)]]
    );
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
        let autocommit = db.session();
        let sql = co("xdept.dno = 3");
        let reader = db.session();
        reader.begin().unwrap();
        let before = reader.query(&sql, &[]).unwrap();
        // Committed after the reader's snapshot: a new employee and a
        // move out of the department, both invisible to the reader.
        autocommit
            .execute("INSERT INTO EMP VALUES (9000, 'late', 3, 50.0)", &[])
            .unwrap();
        autocommit
            .execute("INSERT INTO EMPSKILLS VALUES (9000, 1)", &[])
            .unwrap();
        autocommit
            .execute("UPDATE EMP SET edno = 4 WHERE eno = 60", &[])
            .unwrap();
        let during = reader.query(&sql, &[]).unwrap();
        assert_same_result(&before, &during, &format!("use_indexes={use_indexes}"));
        reader.commit().unwrap();
        let after = autocommit.query(&sql, &[]).unwrap();
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

/// The uniform paper fixture (a department's CO is the same at every
/// database size) at dop 2.
fn sized_paper_db(depts: i64, use_indexes: bool) -> Database {
    build_uniform_paper_db_with(depts, config(use_indexes, 2, 1024))
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

/// Hand-computed answers, so that a reference bug cannot silently agree
/// with an engine bug. Rows are written `"1 N; 2 2"`, `N` for NULL.
mod reference_self_tests {
    use std::sync::Arc;

    use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema, Tuple, Value};

    use crate::runner::reference::{Reference, Row};

    fn rows(text: &str) -> Vec<Row> {
        let value = |v: &str| v.parse().map_or(Value::Null, Value::Int);
        let row = |r: &str| r.split_whitespace().map(value).collect();
        text.split(';')
            .map(row)
            .filter(|r: &Row| !r.is_empty())
            .collect()
    }

    /// Each stream of `sql` over all-INT `tables`, sorted unless ordered.
    fn answer(tables: &[(&str, &str, &str)], sql: &str) -> Vec<(String, Vec<Row>)> {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 16);
        let catalog = Catalog::new(Arc::new(pool));
        for (name, cols, data) in tables {
            let cols: Vec<(&str, DataType)> = cols.split(' ').map(|c| (c, DataType::Int)).collect();
            let schema = Schema::from_pairs(&cols);
            let table = catalog.create_table(name, schema).unwrap();
            for r in rows(data) {
                table.insert(&Tuple::new(r)).unwrap();
            }
        }
        let streams = Reference::new(&catalog, &[]).answer(sql).into_iter();
        streams
            .map(|mut s| {
                if s.ties.is_none() {
                    s.rows.sort();
                }
                (s.name, s.rows)
            })
            .collect()
    }

    /// `query => rows` over T(a, b), U(a) and G(k, v), by topic.
    const CASES: &str = "
        SELECT a FROM T WHERE b <> 2 => N
        SELECT a FROM T WHERE NOT (b = 2) => N
        SELECT a FROM T WHERE b = NULL =>
        SELECT b FROM T WHERE a IN (SELECT a FROM U) => 2
        SELECT b FROM T WHERE a NOT IN (SELECT a FROM U) =>
        SELECT a FROM T WHERE a NOT IN (SELECT a FROM U WHERE a > 0) => 1
        SELECT a FROM T t WHERE NOT EXISTS (SELECT 1 FROM U u WHERE u.a = t.a) => N; 1
        SELECT COUNT(*), COUNT(b), SUM(b), MIN(b), MAX(b) FROM T WHERE a > 9 => 0 0 N N N
        SELECT a, COUNT(*) FROM T WHERE a > 9 GROUP BY a =>
        SELECT k, COUNT(*), COUNT(v), COUNT(DISTINCT v), SUM(v) FROM G GROUP BY k => N 3 2 1 2; 1 3 3 2 8
        SELECT b FROM T UNION SELECT a FROM U ORDER BY b => N; 2; 3
        SELECT b FROM T UNION ALL SELECT a FROM U ORDER BY b DESC => 3; 2; 2; N; N";

    /// NULL in comparisons, IN and NOT EXISTS; aggregates over empty
    /// input; the NULL group, and COUNT(DISTINCT) skipping NULLs; UNION
    /// deduplication and NULL ordering.
    #[test]
    fn relational_answers() {
        let t = ("T", "a b", "1 N; 2 2; N 3");
        let tables = [
            t,
            ("U", "a", "2; N"),
            ("G", "k v", "N 1; N 1; N N; 1 2; 1 3; 1 3"),
        ];
        for (sql, want) in CASES
            .trim()
            .lines()
            .filter_map(|l| l.trim().split_once(" =>"))
        {
            let want = [("result".to_string(), rows(want))];
            assert_eq!(answer(&tables, sql), want, "{sql}");
        }
    }

    /// C 10 is reachable from both roots: one node with two parent
    /// connections, whose own child is connected once.
    #[test]
    fn co_child_reachable_along_two_paths() {
        let tables = [
            ("A", "id", "1"),
            ("B", "id", "2"),
            ("C", "id a b", "10 1 2; 11 1 99; 12 98 99"),
            ("D", "id c", "100 10"),
        ];
        let co = answer(
            &tables,
            "OUT OF xa AS A, xb AS B, xc AS C, xd AS D,
                    ra AS (RELATE xa VIA HAS, xc WHERE xa.id = xc.a),
                    rb AS (RELATE xb VIA HOLDS, xc WHERE xb.id = xc.b),
                    rd AS (RELATE xc VIA OWNS, xd WHERE xc.id = xd.c)
             TAKE *",
        );
        let want = [
            ("xa", "1"),
            ("xb", "2"),
            ("xc", "10 1 2; 11 1 99"),
            ("xd", "100 10"),
            ("ra", "1 10 1 2; 1 11 1 99"),
            ("rb", "2 10 1 2"),
            ("rd", "10 1 2 100 10"),
        ];
        assert_eq!(co, want.map(|(name, r)| (name.to_string(), rows(r))));
    }
}
