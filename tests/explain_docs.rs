//! Keeps `docs/EXPLAIN.md` honest: every operator name documented in its
//! operator table must actually be emitted by the system for some real
//! query. If an operator is renamed or removed, this test fails until the
//! documentation follows.

use xnf_core::{Database, DbConfig, RewriteOptions, TempDir};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};
use xnf_plan::PlanOptions;

const EXPLAIN_MD: &str = include_str!("../docs/EXPLAIN.md");

/// Backtick-quoted names from markdown table rows (`| \`Name\` | ... |`)
/// inside the section starting at `heading`.
fn documented_table_names(heading: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_section = false;
    for line in EXPLAIN_MD.lines() {
        if line.starts_with("## ") {
            in_section = line.trim_start_matches("## ").starts_with(heading);
            continue;
        }
        if !in_section {
            continue;
        }
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(end) = rest.find('`') else { continue };
        names.push(rest[..end].to_string());
    }
    assert!(
        !names.is_empty(),
        "table under '## {heading}' went missing from docs/EXPLAIN.md"
    );
    names
}

/// Operator names from the markdown operator table.
fn documented_operators() -> Vec<String> {
    let ops = documented_table_names("Operators");
    assert!(
        ops.len() >= 20,
        "operator table went missing from docs/EXPLAIN.md (found {ops:?})"
    );
    ops
}

/// The Fig. 1 CO of one department: DEPS_ARC with the root restricted to
/// `dno` instead of to a location.
fn root_restricted_deps(dno: i64) -> String {
    format!(
        "{} WHERE xdept.dno = {dno}",
        DEPS_ARC.replace(" WHERE loc = 'ARC'", "")
    )
}

/// Statements that together exercise the whole operator vocabulary.
fn explain_corpus(db: &Database) -> String {
    let mut out = String::new();
    for text in [
        // Values.
        "SELECT 1",
        // SeqScan + Filter-free scan, Sort, Limit.
        "SELECT eno FROM EMP ORDER BY eno DESC LIMIT 5",
        // IndexEq (emp_pk on eno).
        "SELECT ename FROM EMP WHERE eno = 7",
        // HashJoin + HashAggregate.
        "SELECT edno, COUNT(*) FROM EMP, DEPT WHERE edno = dno GROUP BY edno",
        // NlJoin (non-equi predicate).
        "SELECT COUNT(*) FROM DEPT d, PROJ p WHERE d.dno < p.pno",
        // HashSemiJoin (E-to-F).
        "SELECT dname FROM DEPT WHERE EXISTS \
         (SELECT 1 FROM EMP WHERE EMP.edno = DEPT.dno)",
        // NlSemiJoin (non-equi EXISTS).
        "SELECT dname FROM DEPT WHERE EXISTS \
         (SELECT 1 FROM EMP WHERE EMP.sal > DEPT.dno)",
        // SubqueryFilter NOT (NOT EXISTS keeps the tuple-at-a-time path).
        "SELECT dname FROM DEPT WHERE NOT EXISTS \
         (SELECT 1 FROM EMP WHERE EMP.edno = DEPT.dno)",
        // HashDistinct + UnionAll (UNION collapses duplicates).
        "SELECT dno FROM DEPT UNION SELECT edno FROM EMP",
        // Project appears across most of the above; DISTINCT for safety.
        "SELECT DISTINCT loc FROM DEPT",
        // SharedScan via the CO query's shared component derivations.
        DEPS_ARC,
        // matview scan + IndexEq over backing storage.
        "SELECT * FROM arc_demo WHERE sal > 10",
    ] {
        out.push_str(
            &db.explain(text)
                .unwrap_or_else(|e| panic!("corpus statement failed to compile: {text}: {e:?}")),
        );
    }
    out
}

#[test]
fn every_documented_operator_is_emitted() {
    let db = build_paper_db_with(
        PaperScale {
            departments: 8,
            employees_per_dept: 3,
            projects_per_dept: 2,
            skills: 10,
            ..Default::default()
        },
        DbConfig::default(),
    );
    db.execute(
        "CREATE MATERIALIZED VIEW arc_demo AS \
         SELECT d.dno, e.eno, e.ename, e.sal FROM DEPT d, EMP e \
         WHERE d.dno = e.edno AND d.loc = 'ARC'",
    )
    .unwrap();

    let mut corpus = explain_corpus(&db);
    // The E-to-F line keeps its hash semijoin: every DEPT row probes.
    assert!(corpus.contains("HashSemiJoin"), "{corpus}");

    // IndexSemiJoin + IndexNlJoin: the root-restricted CO drives its
    // indexed child legs from the one root row.
    let root_restricted = db
        .explain(&root_restricted_deps(3))
        .expect("root-restricted CO compiles");
    for op in [
        "IndexSemiJoin(EMP.emp_dno)",
        "IndexNlJoin(EMPSKILLS.es_eno)",
    ] {
        assert!(root_restricted.contains(op), "{op}:\n{root_restricted}");
    }
    corpus.push_str(&root_restricted);

    // SubqueryFilter needs the naive (no E-to-F) configuration.
    let naive = build_paper_db_with(
        PaperScale {
            departments: 4,
            employees_per_dept: 2,
            ..Default::default()
        },
        DbConfig {
            rewrite: RewriteOptions { e_to_f: false },
            ..Default::default()
        },
    );
    corpus.push_str(
        &naive
            .explain(
                "SELECT dname FROM DEPT WHERE EXISTS \
                 (SELECT 1 FROM EMP WHERE EMP.edno = DEPT.dno)",
            )
            .unwrap(),
    );

    // The parallel vocabulary needs dop > 1 and the page-count gate open.
    let parallel = build_paper_db_with(
        PaperScale {
            departments: 8,
            employees_per_dept: 3,
            ..Default::default()
        },
        DbConfig {
            plan: PlanOptions {
                dop: 4,
                parallel_min_pages: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    for text in [
        // ExchangeGather + ParallelSeqScan.
        "SELECT ename FROM EMP WHERE sal > 100",
        // ParallelHashAggregate + ParallelHashJoin + ExchangeHashPartition.
        "SELECT edno, COUNT(*) FROM EMP, DEPT WHERE edno = dno GROUP BY edno",
    ] {
        let plan = parallel.explain(text).unwrap();
        assert!(plan.contains("dop: 4\n"), "{plan}");
        corpus.push_str(&plan);
    }

    for op in documented_operators() {
        assert!(
            corpus.contains(&op),
            "docs/EXPLAIN.md documents operator `{op}`, but no corpus query \
             emitted it.\n--- corpus ---\n{corpus}"
        );
    }
    // And the header lines are real too.
    assert!(corpus.contains("mode: batch pipeline (batch_size="));
    // (The default dop tracks the host's core count, so only the header's
    // presence is asserted here; the dop=4 corpus above pins an exact value.)
    assert!(corpus.contains("\ndop: "), "dop header missing");
    assert!(corpus.contains("visibility: snapshot (MVCC begin/end stamps)"));
    assert!(corpus.contains("shared cse0:"));
    assert!(corpus.contains("durability: none (in-memory)"));
    assert!(
        corpus.contains(
            "maintenance: incremental (coalesce, diff splice, parallel re-extract, \
             stamp-ordered apply); mv_roots_respliced="
        ),
        "maintenance header missing"
    );
}

/// The `maintenance:` header's counters are real quantities: DML touching
/// a composite-object matview re-splices the affected root subtrees and
/// reuses the untouched stored nodes, and both the EXPLAIN header and
/// `Database::maint_stats()` must move with it.
#[test]
fn maintenance_counters_move_with_co_view_dml() {
    let db = build_paper_db_with(
        PaperScale {
            departments: 8,
            employees_per_dept: 3,
            skills: 6,
            skills_per_employee: 2,
            ..Default::default()
        },
        DbConfig::default(),
    );
    db.execute(&format!(
        "CREATE MATERIALIZED VIEW hot_deps AS {}",
        xnf_fixtures::DEPS_ARC
    ))
    .unwrap();

    // Pin a department into the view, then touch one of its employees:
    // the commit re-splices that department's subtree, reusing every node
    // the rename did not change.
    db.execute("UPDATE DEPT SET loc = 'ARC' WHERE dno = 1")
        .unwrap();
    let before = db.maint_stats();
    db.execute("UPDATE EMP SET ename = 'renamed' WHERE edno = 1")
        .unwrap();
    let after = db.maint_stats();
    assert!(
        after.mv_roots_respliced > before.mv_roots_respliced,
        "the employee update must re-splice its department's root subtree"
    );
    assert!(
        after.mv_nodes_reused > before.mv_nodes_reused,
        "the diff splice must reuse the subtree's unchanged nodes"
    );
    assert!(after.mv_maint_us > 0, "maintenance time must be accounted");

    // The EXPLAIN header reports exactly these cumulative counters.
    let plan = db.explain("SELECT 1").unwrap();
    assert!(
        plan.contains(&format!(
            "mv_roots_respliced={} mv_nodes_reused={} mv_maint_us=",
            after.mv_roots_respliced, after.mv_nodes_reused
        )),
        "EXPLAIN maintenance header diverged from maint_stats():\n{plan}"
    );
}

/// The other arm of the `durability:` header: a database opened on a data
/// directory reports its WAL mode (with the configured fsync setting), in
/// exactly the form docs/EXPLAIN.md documents.
#[test]
fn durable_database_reports_wal_durability_header() {
    let dir = TempDir::new("explain-docs-durable");
    let db = Database::open_with_config(DbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        wal_fsync: false,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    let plan = db.explain("SELECT * FROM T").unwrap();
    assert!(
        plan.contains("durability: wal (group commit, fsync=off, doublewrite=on)"),
        "missing/diverged durability header:\n{plan}"
    );
    // The integrity counters in the header are real: they mirror
    // Database::integrity_stats() (checksummed reads, DW batches).
    let integrity = db.integrity_stats();
    assert!(
        plan.contains(&format!(
            "pages_verified={} torn_pages_repaired={} dw_batches={}",
            integrity.pages_verified, integrity.torn_pages_repaired, integrity.dw_batches
        )),
        "EXPLAIN durability header diverged from integrity_stats():\n{plan}"
    );
    assert_eq!(
        integrity.torn_pages_repaired, 0,
        "clean open must repair nothing"
    );
    // The header follows the visibility line, as the docs show.
    let vis = plan.find("visibility:").unwrap();
    let dur = plan.find("durability:").unwrap();
    assert!(dur > vis, "durability header should follow visibility");

    // And the documented VACUUM-side stats are real: a pass with work to
    // do logs its reclaims, so `wal_bytes_logged` is nonzero here.
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    db.execute("UPDATE T SET id = 2 WHERE id = 1").unwrap();
    let result = db.execute("VACUUM").unwrap().try_rows().unwrap();
    assert!(
        result.stats.wal_bytes_logged > 0,
        "vacuum on a durable database must report its WAL traffic"
    );
}

/// The runtime side of the visibility header: `ExecStats` reports which
/// snapshot a run read against and how many tuple versions its checks
/// skipped — the quantities docs/EXPLAIN.md documents.
#[test]
fn exec_stats_surface_snapshot_and_visibility_skips() {
    let db = build_paper_db_with(PaperScale::default(), DbConfig::default());
    let before = db.query("SELECT COUNT(*) FROM EMP").unwrap();

    // Burn a few commits: the snapshot sequence must advance with them.
    db.execute("INSERT INTO EMP VALUES (9001, 'x', 1, 1.0)")
        .unwrap();
    db.execute("UPDATE EMP SET sal = 2.0 WHERE eno = 9001")
        .unwrap();
    let after = db.query("SELECT COUNT(*) FROM EMP").unwrap();
    assert!(
        after.stats.snapshot_seq > before.stats.snapshot_seq,
        "snapshot_seq must advance with commits: {} -> {}",
        before.stats.snapshot_seq,
        after.stats.snapshot_seq
    );
    // The UPDATE superseded a version; a full scan now skips it.
    assert!(
        after.stats.rows_skipped_visibility > 0,
        "superseded versions should be counted as visibility skips"
    );
}

/// docs/EXPLAIN.md § VACUUM documents the report stream's columns; the
/// real statement must produce exactly those, in order, and surface its
/// totals through the documented `ExecStats` fields.
#[test]
fn vacuum_report_columns_match_docs() {
    let documented = documented_table_names("VACUUM");

    let db = build_paper_db_with(PaperScale::default(), DbConfig::default());
    db.execute("UPDATE EMP SET sal = sal + 1.0 WHERE eno = 1")
        .unwrap();
    let result = db.execute("VACUUM").unwrap().try_rows().unwrap();
    let stream = result.try_table().unwrap();
    assert_eq!(
        stream.columns, documented,
        "docs/EXPLAIN.md § VACUUM columns diverged from the real output"
    );
    assert!(
        result.stats.gc_versions_reclaimed >= 1,
        "the superseded EMP version should have been reclaimed"
    );
    assert!(
        result.stats.gc_stamps_pruned >= 1,
        "the update's commit stamp should have been pruned"
    );
}
