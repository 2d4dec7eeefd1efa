//! Keeps `docs/EXPLAIN.md` honest: every operator name documented in its
//! operator table must actually be emitted by the system for some real
//! query. If an operator is renamed or removed, this test fails until the
//! documentation follows.

use xnf_core::{Database, DbConfig, RewriteOptions, TempDir};
use xnf_fixtures::{bom_co, build_bom, build_paper_db_with, build_uniform_paper_db_with};
use xnf_fixtures::{PaperScale, DEPS_ARC};
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
    db.session()
        .execute(
            "CREATE MATERIALIZED VIEW arc_demo AS \
         SELECT d.dno, e.eno, e.ename, e.sal FROM DEPT d, EMP e \
         WHERE d.dno = e.edno AND d.loc = 'ARC'",
            &[],
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
        // ParallelHashAggregate over a HashJoin that probes inside the region.
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
            "maintenance: incremental (coalesce, in-place edit, recompute fallback, \
             stamp-ordered apply); mv_nodes_rewritten="
        ),
        "maintenance header missing"
    );
}

/// docs/EXPLAIN.md documents a scan's `cols=[…]`: the `analytic` top-N
/// template reads `day` (its filter), `cust` (the group) and `amount` (the
/// SUM argument) of SALES' seven columns, so its scan decodes just those.
#[test]
fn top_n_scan_decodes_only_the_columns_it_reads() {
    let db = Database::with_config(DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    db.session()
        .execute(
            "CREATE TABLE SALES (sale INT, day INT, item INT, cust INT, qty INT, amount INT, \
                             note VARCHAR(100))",
            &[],
        )
        .unwrap();
    let plan = db
        .explain(
            "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
             GROUP BY cust ORDER BY total DESC, cust LIMIT 10",
        )
        .unwrap();
    assert!(
        plan.contains("SeqScan(SALES) filter=[(#1 >= ?0)] cols=[1, 3, 5]\n"),
        "{plan}"
    );
    assert!(
        EXPLAIN_MD.contains("cols=[1, 3, 5]"),
        "docs/EXPLAIN.md should show the top-N scan's cols"
    );
}

/// The `maintenance:` header's counters are real quantities: a value-only
/// update of a composite-object matview rewrites its one stored node in
/// place, a hire inserts its node and connection in place, a link to an
/// unkeyed skill recomputes the view, and both the EXPLAIN header and
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
    let session = db.session();
    session
        .execute(
            &format!(
                "CREATE MATERIALIZED VIEW hot_deps AS {}",
                xnf_fixtures::DEPS_ARC
            ),
            &[],
        )
        .unwrap();

    // Pin a department into the view, then rename one of its employees
    // (eno 3): the commit rewrites that one stored node and recomputes
    // nothing.
    session
        .execute("UPDATE DEPT SET loc = 'ARC' WHERE dno = 1", &[])
        .unwrap();
    let before = db.maint_stats();
    session
        .execute("UPDATE EMP SET ename = 'renamed' WHERE eno = 3", &[])
        .unwrap();
    let renamed = db.maint_stats();
    assert_eq!(
        renamed.mv_nodes_rewritten,
        before.mv_nodes_rewritten + 1,
        "the rename must rewrite the employee's stored node in place"
    );
    assert_eq!(
        renamed.mv_recomputes, before.mv_recomputes,
        "a value-only update must not recompute"
    );

    // A hire into the department inserts its node and its connection.
    session
        .execute("INSERT INTO EMP VALUES (900, 'hired', 1, 50.0)", &[])
        .unwrap();
    let hired = db.maint_stats();
    assert_eq!(
        (hired.mv_nodes_rewritten, hired.mv_links_edited),
        (renamed.mv_nodes_rewritten + 1, renamed.mv_links_edited + 1),
        "the hire must insert one node and one connection in place"
    );
    assert_eq!(
        hired.mv_recomputes, renamed.mv_recomputes,
        "an in-place hire must not recompute"
    );

    // A new link to a skill (SKILLS has no unique index here, so no node
    // key names the linked node) recomputes the view, and writes nothing
    // in place.
    session
        .execute("INSERT INTO EMPSKILLS VALUES (3, 5)", &[])
        .unwrap();
    let after = db.maint_stats();
    assert_eq!(
        after.mv_recomputes,
        hired.mv_recomputes + 1,
        "the keyless skill link must recompute the view"
    );
    assert_eq!(
        (after.mv_nodes_rewritten, after.mv_links_edited),
        (hired.mv_nodes_rewritten, hired.mv_links_edited),
        "a recomputed commit writes nothing in place"
    );
    assert_eq!(
        (after.mv_roots_respliced, after.mv_nodes_reused),
        (0, 0),
        "the splice counters are retired"
    );
    assert!(after.mv_maint_us > 0, "maintenance time must be accounted");

    // The EXPLAIN header reports exactly these cumulative counters.
    let plan = db.explain("SELECT 1").unwrap();
    assert!(
        plan.contains(&format!(
            "mv_nodes_rewritten={} mv_links_edited={} mv_recomputes={} mv_maint_us=",
            after.mv_nodes_rewritten, after.mv_links_edited, after.mv_recomputes
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
    let s = db.session();
    s.execute("CREATE TABLE T (id INT)", &[]).unwrap();
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
    s.execute("INSERT INTO T VALUES (1)", &[]).unwrap();
    s.execute("UPDATE T SET id = 2 WHERE id = 1", &[]).unwrap();
    let result = s.execute("VACUUM", &[]).unwrap().try_rows().unwrap();
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
    let s = db.session();
    let before = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();

    // Burn a few commits: the snapshot sequence must advance with them.
    s.execute("INSERT INTO EMP VALUES (9001, 'x', 1, 1.0)", &[])
        .unwrap();
    s.execute("UPDATE EMP SET sal = 2.0 WHERE eno = 9001", &[])
        .unwrap();
    let after = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
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

/// The parallel-region counters docs/EXPLAIN.md documents under the `dop:`
/// header are real quantities: one gather region over EMP at dop 4 runs
/// four workers, claims every EMP page once, and passes the coordinator
/// exactly the rows its filter kept.
#[test]
fn exec_stats_surface_parallel_region_counters() {
    for counter in [
        "parallel_regions",
        "parallel_workers",
        "morsels_dispatched",
        "rows_gathered",
    ] {
        assert!(
            EXPLAIN_MD.contains(&format!("`ExecStats::{counter}`")),
            "docs/EXPLAIN.md should document ExecStats::{counter}"
        );
    }
    let db = build_paper_db_with(
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
    let sql = "SELECT ename FROM EMP WHERE sal > 100";
    assert!(db.explain(sql).unwrap().contains("ExchangeGather(dop=4)"));
    let result = db.session().query(sql, &[]).unwrap();
    let stats = &result.stats;
    let kept = result.try_table().unwrap().rows.len() as u64;
    assert_eq!(stats.parallel_regions, 1, "{stats:?}");
    assert_eq!(stats.parallel_workers, 4, "{stats:?}");
    let pages = db.catalog().table("EMP").unwrap().page_count() as u64;
    assert_eq!(stats.morsels_dispatched, pages, "{stats:?}");
    assert_eq!(stats.rows_gathered, kept, "{stats:?}");
    assert!(kept > 0 && kept < stats.rows_scanned, "{stats:?}");
}

/// The `reach:` header of a recursive CO names its root streams and the
/// streams TAKE leaves out, after the instance headers and before the
/// plans; `rows_emitted` counts the candidates the outputs produced, hidden
/// streams included, not the rows the reachability pass kept.
#[test]
fn recursive_co_reports_its_reach_header() {
    assert!(EXPLAIN_MD.contains("- `reach: roots=[…] hidden=[…]`"));
    // Three layers of four parts; part 0's closure is parts 4, 5, 8, 9, 10.
    let db = build_bom(3, 4);
    let sql = bom_co("pid = 0").replace("TAKE *", "TAKE asm, part");
    let plan = db.explain(&sql).unwrap();
    let reach = plan
        .find("\nreach: roots=[asm] hidden=[top_uses, sub_uses]\n")
        .unwrap_or_else(|| panic!("reach header missing:\n{plan}"));
    assert!(plan.find("\nmaintenance: ").unwrap() < reach, "{plan}");
    assert!(reach < plan.find("\nshared cse0:").unwrap(), "{plan}");

    let result = db.session().query(&sql, &[]).unwrap();
    let delivered: Vec<usize> = result.streams.iter().map(|s| s.rows.len()).collect();
    assert_eq!(delivered, [1, 5]);
    // asm 1 + part 12 + top_uses 2 + sub_uses 16 candidates.
    assert_eq!(result.stats.rows_emitted, 1 + 12 + 2 + 16);
}

/// docs/EXPLAIN.md § VACUUM documents the report stream's columns; the
/// real statement must produce exactly those, in order, and surface its
/// totals through the documented `ExecStats` fields.
#[test]
fn vacuum_report_columns_match_docs() {
    let documented = documented_table_names("VACUUM");

    let db = build_paper_db_with(PaperScale::default(), DbConfig::default());
    let session = db.session();
    session
        .execute("UPDATE EMP SET sal = sal + 1.0 WHERE eno = 1", &[])
        .unwrap();
    let result = session.execute("VACUUM", &[]).unwrap().try_rows().unwrap();
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

/// The SQL and the EXPLAIN output of the captured example under the
/// `### {heading}` of docs/EXPLAIN.md: its first `sql` and `text` blocks.
fn captured_example(heading: &str) -> (String, String) {
    let at = EXPLAIN_MD
        .find(&format!("### {heading}"))
        .unwrap_or_else(|| panic!("docs/EXPLAIN.md lost the example '{heading}'"));
    let section = &EXPLAIN_MD[at..];
    let block = |lang: &str| {
        let fence = format!("```{lang}\n");
        let start = section.find(&fence).expect("example code block") + fence.len();
        let len = section[start..].find("```").expect("closed code block");
        section[start..start + len].to_string()
    };
    (block("sql"), block("text"))
}

/// The captured XNF examples are what `Database::explain` prints for their
/// statements, byte for byte, on the uniform Fig. 1 fixture of 40
/// departments at dop 1.
#[test]
fn captured_xnf_examples_match_explain() {
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = build_uniform_paper_db_with(40, config);
    for heading in ["XNF composite-object query", "Root-restricted XNF query"] {
        let (sql, want) = captured_example(heading);
        let got = db.explain(&sql).unwrap();
        assert_eq!(
            got, want,
            "docs/EXPLAIN.md '{heading}' is stale; EXPLAIN prints:\n{got}"
        );
    }
}
