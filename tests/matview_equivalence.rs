//! Materialized-view equivalence suite.
//!
//! Contract under test: after any stream of INSERT / UPDATE / DELETE
//! statements, every materialized view's stored contents equal a fresh
//! re-evaluation of its definition — the incremental maintenance path and
//! the recompute path must agree. Swept over the oo1 / paper / random
//! fixtures, with randomized seeded DML streams, and over executor batch
//! sizes 1 / 7 / 1024 (maintenance re-extraction runs through the batch
//! pipeline, so chunking must not change stored contents).
//!
//! Relational views compare as **bags** (sorted row multisets). CO views
//! compare with **object identity by value**: per-component row sets and
//! per-relationship (parent row → child row) value pairs. That is XNF's
//! union-distinct object-sharing semantics ("a tuple exists once however
//! many paths reach it") — surrogate and positional ids cancel out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::{CoCache, Database, DbConfig, Session, Value};
use xnf_fixtures::{
    build_oo1_db_with, build_paper_db_with, build_uniform_paper_db_with, random_table, Oo1Config,
    PaperScale, RandomTableConfig, DEPS_ARC, OO1_CO,
};
use xnf_plan::PlanOptions;
use xnf_storage::Tuple;

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

/// Sorted bag of a query's rows.
fn rows_of(db: &Database, sql: &str) -> Vec<Vec<String>> {
    rows_in(&db.session(), sql)
}

/// Sorted bag of a query's rows, read in `session`'s scope.
fn rows_in(session: &Session, sql: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = session
        .query(sql, &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

/// Named, sorted row sets (per component or per relationship).
type NamedSets = Vec<(String, Vec<String>)>;

/// Canonical value-identity form of a CO: sorted per-component row sets and
/// per-relationship (parent row, child row) pair sets.
fn canon(co: &CoCache) -> (NamedSets, NamedSets) {
    let ws = &co.workspace;
    let mut comps: Vec<(String, Vec<String>)> = ws
        .components
        .iter()
        .map(|c| {
            let mut rows: Vec<String> = ws
                .independent(&c.name)
                .unwrap()
                .map(|t| format!("{:?}", t.values()))
                .collect();
            rows.sort();
            rows.dedup();
            (c.name.to_ascii_lowercase(), rows)
        })
        .collect();
    comps.sort();
    let mut rels: Vec<(String, Vec<String>)> = ws
        .relationships
        .iter()
        .map(|r| {
            let mut pairs: Vec<String> = r
                .connections()
                .iter()
                .map(|conn| {
                    format!(
                        "{:?}->{:?}",
                        ws.components[r.parent].row(conn[0]),
                        ws.components[r.children[0]].row(conn[1])
                    )
                })
                .collect();
            pairs.sort();
            pairs.dedup();
            (r.name.to_ascii_lowercase(), pairs)
        })
        .collect();
    rels.sort();
    (comps, rels)
}

fn assert_co_matches(db: &Database, view: &str, definition: &str, ctx: &str) {
    let s = db.session();
    let stored = s.fetch_co(view).unwrap();
    let fresh = s.fetch_co(definition).unwrap();
    assert_eq!(canon(&stored), canon(&fresh), "CO view diverged: {ctx}");
}

fn assert_sql_matches(db: &Database, view: &str, definition: &str, ctx: &str) {
    assert_eq!(
        rows_of(db, &format!("SELECT * FROM {view}")),
        rows_of(db, definition),
        "relational view diverged: {ctx}"
    );
}

// ---------------------------------------------------------------------------
// paper fixture: the full CO stack under a randomized DML stream
// ---------------------------------------------------------------------------

fn paper_db(batch_size: usize) -> Database {
    build_paper_db_with(
        PaperScale {
            departments: 12,
            arc_fraction: 0.25,
            employees_per_dept: 4,
            projects_per_dept: 2,
            skills: 15,
            skills_per_employee: 2,
            skills_per_project: 1,
            seed: 11,
        },
        config_with_batch(batch_size),
    )
}

const PAPER_SQL_VIEW: &str =
    "SELECT d.dno, d.dname, d.loc, e.eno, e.ename, e.sal FROM DEPT d, EMP e \
     WHERE d.dno = e.edno AND d.loc = 'ARC'";
const PAPER_DIRECT_VIEW: &str = "SELECT eno, ename FROM EMP WHERE sal > 90";
const PAPER_AGG_VIEW: &str = "SELECT edno, COUNT(*) AS n FROM EMP GROUP BY edno";

/// One randomized DML statement over the paper schema. An insert may
/// repeat a key a unique index holds; the statement then fails.
fn paper_dml(rng: &mut StdRng) -> String {
    let dept = rng.gen_range(0..14); // occasionally nonexistent
    let eno = rng.gen_range(0..60);
    let sno = rng.gen_range(0..18); // occasionally nonexistent
    match rng.gen_range(0..16) {
        0 => format!(
            "INSERT INTO EMP VALUES ({}, 'ins-{eno}', {dept}, {}.5)",
            600 + eno,
            rng.gen_range(40..160)
        ),
        1 => format!("DELETE FROM EMP WHERE eno = {eno}"),
        2 => format!("UPDATE EMP SET edno = {dept} WHERE eno = {eno}"),
        3 => format!(
            "UPDATE EMP SET sal = {} WHERE eno = {eno}",
            rng.gen_range(40..160)
        ),
        4 => format!(
            "UPDATE DEPT SET loc = '{}' WHERE dno = {dept}",
            if rng.gen_bool(0.5) { "ARC" } else { "HDC" }
        ),
        5 => format!(
            "INSERT INTO EMPSKILLS VALUES ({eno}, {})",
            rng.gen_range(0..15)
        ),
        6 => format!("DELETE FROM EMPSKILLS WHERE eseno = {eno}"),
        7 => format!(
            "UPDATE SKILLS SET sname = 'renamed-{eno}' WHERE sno = {}",
            rng.gen_range(0..15)
        ),
        8 => format!("DELETE FROM PROJ WHERE pno = {}", rng.gen_range(0..24)),
        // A root insert: a department deleted earlier comes back with its
        // employees and projects.
        9 => format!(
            "INSERT INTO DEPT VALUES ({dept}, 'new-{dept}', '{}')",
            if rng.gen_bool(0.5) { "ARC" } else { "HDC" }
        ),
        10 => format!("DELETE FROM DEPT WHERE dno = {dept}"),
        11 => format!("INSERT INTO SKILLS VALUES ({sno}, 'new-{sno}')"),
        12 => format!("DELETE FROM SKILLS WHERE sno = {sno}"),
        13 => format!(
            "INSERT INTO PROJSKILLS VALUES ({}, {sno})",
            rng.gen_range(0..24)
        ),
        14 => format!(
            "DELETE FROM PROJSKILLS WHERE pspno = {}",
            rng.gen_range(0..24)
        ),
        _ => format!(
            "UPDATE EMP SET eno = {} WHERE eno = {eno}",
            600 + rng.gen_range(0..60)
        ),
    }
}

/// The table a `paper_dml` statement writes.
fn target_table(stmt: &str) -> &str {
    let rest = ["INSERT INTO ", "DELETE FROM ", "UPDATE "]
        .iter()
        .find_map(|verb| stmt.strip_prefix(verb))
        .expect("paper_dml statement");
    rest.split_whitespace().next().unwrap()
}

/// `paper_db` whose SKILLS table has a unique NOT NULL key, so that
/// connect-table links to stored skills can be edited in place.
fn paper_db_with_keyed_skills(batch_size: usize) -> Database {
    let db = paper_db(batch_size);
    db.session()
        .execute("CREATE UNIQUE INDEX skills_pk ON SKILLS (sno)", &[])
        .unwrap();
    db
}

/// Four views over `db`, a seeded random DML stream, and a check of every
/// view against its definition at a cadence and at the end. With `hires`,
/// each check is followed by a hire with one skill link and a third check.
/// Returns how often the CO view `hot_deps` was recomputed, counted over
/// the statements on tables no other view reads.
fn run_paper_stream(db: &Database, bs: usize, hires: bool) -> u64 {
    let s = db.session();
    s.execute(
        &format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"),
        &[],
    )
    .unwrap();
    s.execute(
        &format!("CREATE MATERIALIZED VIEW arc_people AS {PAPER_SQL_VIEW}"),
        &[],
    )
    .unwrap();
    s.execute(
        &format!("CREATE MATERIALIZED VIEW top_emps AS {PAPER_DIRECT_VIEW}"),
        &[],
    )
    .unwrap();
    s.execute(
        &format!("CREATE MATERIALIZED VIEW head_count AS {PAPER_AGG_VIEW}"),
        &[],
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(4242 + bs as u64);
    let mut co_recomputes = 0;
    for step in 0..40 {
        let stmt = paper_dml(&mut rng);
        let before = db.maint_stats().mv_recomputes;
        match s.execute(&stmt, &[]) {
            Ok(_) => {}
            Err(e) if e.to_string().contains("unique constraint violated") => {}
            Err(e) => panic!("`{stmt}`: {e}"),
        }
        if !matches!(target_table(&stmt), "EMP" | "DEPT") {
            co_recomputes += db.maint_stats().mv_recomputes - before;
        }
        // Full comparison is expensive; check at a cadence plus the end.
        if step % 8 == 7 || step == 39 {
            let ctx = format!("batch_size={bs} step={step} after `{stmt}`");
            assert_co_matches(db, "hot_deps", DEPS_ARC, &ctx);
            assert_sql_matches(db, "arc_people", PAPER_SQL_VIEW, &ctx);
            assert_sql_matches(db, "top_emps", PAPER_DIRECT_VIEW, &ctx);
            assert_sql_matches(db, "head_count", PAPER_AGG_VIEW, &ctx);
            // Then raise every employee (a value-only update of many
            // stored nodes at once) and check all four views again.
            s.execute("UPDATE EMP SET sal = sal + 1", &[]).unwrap();
            let ctx = format!("{ctx} and a raise of every employee");
            assert_co_matches(db, "hot_deps", DEPS_ARC, &ctx);
            assert_sql_matches(db, "arc_people", PAPER_SQL_VIEW, &ctx);
            assert_sql_matches(db, "top_emps", PAPER_DIRECT_VIEW, &ctx);
            assert_sql_matches(db, "head_count", PAPER_AGG_VIEW, &ctx);
            if hires {
                let eno = 700 + step;
                s.begin().unwrap();
                s.execute_batch(&format!(
                    "INSERT INTO EMP VALUES ({eno}, 'hire-{eno}', {}, 100.5); \
                     INSERT INTO EMPSKILLS VALUES ({eno}, {});",
                    step % 3,
                    step % 15
                ))
                .unwrap();
                s.commit().unwrap();
                let ctx = format!("{ctx} and hire {eno}");
                assert_co_matches(db, "hot_deps", DEPS_ARC, &ctx);
                assert_sql_matches(db, "arc_people", PAPER_SQL_VIEW, &ctx);
                assert_sql_matches(db, "top_emps", PAPER_DIRECT_VIEW, &ctx);
                assert_sql_matches(db, "head_count", PAPER_AGG_VIEW, &ctx);
            }
        }
    }
    co_recomputes
}

#[test]
fn paper_fixture_randomized_stream_all_batch_sizes() {
    for &bs in BATCH_SIZES {
        let db = paper_db(bs);
        let co_recomputes = run_paper_stream(&db, bs, false);
        // The stream must exercise both CO maintenance paths — in-place
        // edits, and the recompute that deltas on the keyless SKILLS and
        // PROJ need — so that a classifier routing every delta one way
        // fails here.
        let stats = db.maint_stats();
        assert!(
            stats.mv_nodes_rewritten > 0 && co_recomputes > 0,
            "batch_size={bs}: stream wrote {} nodes in place and recomputed the CO view {} times",
            stats.mv_nodes_rewritten,
            co_recomputes
        );
    }
}

/// The same stream with keyed SKILLS, and a hire after each check: skill
/// links and skill inserts and deletes take the in-place path too.
#[test]
fn paper_fixture_randomized_stream_with_keyed_skills() {
    for &bs in BATCH_SIZES {
        let db = paper_db_with_keyed_skills(bs);
        run_paper_stream(&db, bs, true);
        let stats = db.maint_stats();
        assert!(
            stats.mv_nodes_rewritten > 0 && stats.mv_links_edited > 0,
            "batch_size={bs}: stream wrote {} nodes and {} connections in place",
            stats.mv_nodes_rewritten,
            stats.mv_links_edited
        );
    }
}

#[test]
fn co_matview_matches_on_demand_extraction() {
    let db = paper_db(1024);
    db.session()
        .execute(
            &format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"),
            &[],
        )
        .unwrap();
    assert_co_matches(&db, "hot_deps", DEPS_ARC, "freshly populated");
}

#[test]
fn co_matview_incremental_maintenance_matches_reextraction() {
    let db = paper_db(1024);
    let s = db.session();
    s.execute(
        &format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"),
        &[],
    )
    .unwrap();

    // A mix of deltas touching every level of the CO: the root table, the
    // child tables, a connect table, and rows moving in/out of 'ARC'.
    for stmt in [
        "UPDATE EMP SET ename = 'renamed' WHERE eno = 1",
        "UPDATE DEPT SET loc = 'ARC' WHERE dno = 7",
        "UPDATE DEPT SET loc = 'YKT' WHERE dno = 0",
        "INSERT INTO EMP VALUES (900, 'new-hire', 1, 100.0)",
        "INSERT INTO EMPSKILLS VALUES (900, 3)",
        "DELETE FROM EMPSKILLS WHERE eseno = 5",
        "UPDATE EMP SET edno = 2 WHERE eno = 6",
        "DELETE FROM PROJ WHERE pno = 3",
        "UPDATE SKILLS SET sname = 'rare' WHERE sno = 3",
    ] {
        s.execute(stmt, &[]).unwrap();
    }
    assert_co_matches(&db, "hot_deps", DEPS_ARC, "after mixed DML");
    assert!(db.catalog().matview("hot_deps").unwrap().epoch() >= 9);
}

#[test]
fn co_matview_point_fetch_serves_one_subtree() {
    let db = paper_db(1024);
    let session = db.session();
    session
        .execute(
            &format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"),
            &[],
        )
        .unwrap();
    // Department 1 is in the ARC fraction (first 3 of 12 at 0.25).
    let co = db.fetch_co_point("hot_deps", &Value::Int(1)).unwrap();
    assert_eq!(co.workspace.component("xdept").unwrap().len(), 1);
    assert_eq!(
        co.workspace.component("xemp").unwrap().len(),
        4,
        "one department's employees only"
    );
    for e in co.workspace.independent("xemp").unwrap() {
        assert_eq!(e.parents("employment").unwrap().count(), 1);
    }
    // A key outside ARC yields an empty CO, not an error.
    let miss = db.fetch_co_point("hot_deps", &Value::Int(11)).unwrap();
    assert_eq!(miss.workspace.component("xdept").unwrap().len(), 0);

    // The point subtree agrees with a restricted on-demand extraction.
    let restricted = DEPS_ARC.replace("TAKE *", "TAKE * WHERE xdept.dno = 1");
    let fresh = session.fetch_co(&restricted).unwrap();
    assert_eq!(canon(&co), canon(&fresh));
}

// ---------------------------------------------------------------------------
// delta classification: in-place edit, no write, or recompute
// ---------------------------------------------------------------------------

/// DEPS_ARC with projections that leave EMP's key last and drop `sal` and
/// `loc`, so the node key is not the stream's first column.
const SLIM_ARC: &str = "\
OUT OF xdept AS (SELECT dno, dname FROM DEPT WHERE loc = 'ARC'),
       xemp AS (SELECT ename, edno, eno FROM EMP),
       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
TAKE *";

/// Which maintenance path one commit took.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// Stored nodes (`mv_nodes_rewritten`) and connections
    /// (`mv_links_edited`) written in place, nothing recomputed.
    InPlace { nodes: u64, links: u64 },
    /// Nothing written: no stored node is reached, or none changed.
    NoWrite,
    /// The view recomputed from its definition (`mv_recomputes` moves).
    Recompute,
}

/// Create `cv AS def` on `db`, run `setup` in autocommit, then `stmts` in
/// one transaction: the commit must take `path`, and the stored CO must
/// equal a fresh extraction and a REFRESH.
fn assert_path(db: &Database, def: &str, setup: &[&str], stmts: &[&str], path: Path, label: &str) {
    let s = db.session();
    s.execute(&format!("CREATE MATERIALIZED VIEW cv AS {def}"), &[])
        .unwrap();
    for stmt in setup {
        s.execute(stmt, &[]).unwrap();
    }
    let before = db.maint_stats();
    let session = db.session();
    session.begin().unwrap();
    for stmt in stmts {
        session.execute(stmt, &[]).unwrap();
    }
    session.commit().unwrap();
    let after = db.maint_stats();
    let nodes = after.mv_nodes_rewritten - before.mv_nodes_rewritten;
    let links = after.mv_links_edited - before.mv_links_edited;
    let recomputes = after.mv_recomputes - before.mv_recomputes;
    let took = match (nodes + links, recomputes) {
        (0, 0) => Path::NoWrite,
        (_, 0) => Path::InPlace { nodes, links },
        (0, _) => Path::Recompute,
        _ => panic!(
            "{label}: wrote {nodes} nodes and {links} connections and recomputed {recomputes} times"
        ),
    };
    assert_eq!(took, path, "{label}: {stmts:?}");
    assert_co_matches(db, "cv", def, label);
    let stored = canon(&s.fetch_co("cv").unwrap());
    s.execute("REFRESH MATERIALIZED VIEW cv", &[]).unwrap();
    assert_eq!(
        stored,
        canon(&s.fetch_co("cv").unwrap()),
        "{label}: incremental maintenance diverged from REFRESH"
    );
}

/// Each delta class takes its path, and the stored CO still equals a fresh
/// extraction and a REFRESH. In the paper fixture departments 0–2 are
/// 'ARC' (employees 0–11), EMP and DEPT have unique NOT NULL keys, and
/// SKILLS has no unique index. A key change, a move out of the view and a
/// filter flip remove nodes (and reach new ones) in place; a delta on the
/// keyless SKILLS, or on a connect table into it, recomputes the view.
#[test]
fn value_only_updates_rewrite_in_place_and_the_rest_splice() {
    // A skill employee 0 holds, so that renaming it reaches a stored root.
    let skill = paper_db(1024)
        .session()
        .query("SELECT essno FROM EMPSKILLS WHERE eseno = 0", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let skill_rename = format!("UPDATE SKILLS SET sname = 'rare' WHERE sno = {skill}");
    let rewrite = Path::InPlace { nodes: 1, links: 0 };
    let cases: Vec<(&str, &str, Vec<&str>, Path)> = vec![
        (
            "sal",
            DEPS_ARC,
            vec!["UPDATE EMP SET sal = sal + 7 WHERE eno = 1"],
            rewrite,
        ),
        (
            "ename",
            DEPS_ARC,
            vec!["UPDATE EMP SET ename = 'x' WHERE eno = 2"],
            rewrite,
        ),
        (
            "root dname",
            DEPS_ARC,
            vec!["UPDATE DEPT SET dname = 'd' WHERE dno = 1"],
            rewrite,
        ),
        (
            "ename, key last",
            SLIM_ARC,
            vec!["UPDATE EMP SET ename = 'x' WHERE eno = 2"],
            rewrite,
        ),
        (
            "unprojected sal",
            SLIM_ARC,
            vec!["UPDATE EMP SET sal = 1.5 WHERE eno = 1"],
            Path::NoWrite,
        ),
        (
            "non-ARC employee",
            DEPS_ARC,
            vec!["UPDATE EMP SET sal = 1.5 WHERE eno = 40"],
            Path::NoWrite,
        ),
        (
            "key eno",
            DEPS_ARC,
            vec!["UPDATE EMP SET eno = 700 WHERE eno = 2"],
            Path::InPlace { nodes: 3, links: 4 },
        ),
        (
            // A move between two stored departments.
            "link edno",
            DEPS_ARC,
            vec!["UPDATE EMP SET edno = 1 WHERE eno = 0"],
            Path::InPlace { nodes: 1, links: 2 },
        ),
        (
            "move out of the view",
            DEPS_ARC,
            vec!["UPDATE EMP SET edno = 5 WHERE eno = 0"],
            Path::InPlace { nodes: 2, links: 3 },
        ),
        (
            "filter loc",
            DEPS_ARC,
            vec!["UPDATE DEPT SET loc = 'HDC' WHERE dno = 1"],
            Path::InPlace {
                nodes: 10,
                links: 16,
            },
        ),
        (
            "no unique index",
            DEPS_ARC,
            vec![skill_rename.as_str()],
            Path::Recompute,
        ),
        (
            "connect table",
            DEPS_ARC,
            vec!["INSERT INTO EMPSKILLS VALUES (0, 14)"],
            Path::Recompute,
        ),
        (
            "mixed transaction",
            DEPS_ARC,
            vec![
                "UPDATE EMP SET sal = sal + 7 WHERE eno = 1",
                "UPDATE EMP SET edno = 2 WHERE eno = 5",
            ],
            Path::InPlace { nodes: 2, links: 2 },
        ),
    ];
    for (label, def, stmts, path) in cases {
        assert_path(&paper_db(1024), def, &[], &stmts, path, label);
    }
}

/// Hires, skill links, moves, root inserts and deletes edit the stored CO
/// in place: a new node walks its children, and a removed one orphans
/// theirs. A delta on the keyless PROJ, or on PROJSKILLS (whose parent is
/// PROJ), recomputes the view. In the uniform fixture over 10 departments, departments 0 and 5 are
/// 'ARC' (employees 0–19 and 100–119), employee `e` holds skills
/// `(7e + 61k) % 200` for k < 3, and SKILLS is keyed by `sno`. Skills 0,
/// 61 and 122 (employee 0's) are stored; skill 1 is held only outside
/// 'ARC'.
#[test]
fn inserts_and_moves_edit_in_place_and_the_rest_splice() {
    const HIRE: &str = "INSERT INTO EMP VALUES (1000, 'new', 0, 50.0)";
    const SKILLED: &str = "INSERT INTO EMPSKILLS VALUES (1000, 0), (1000, 61), (1000, 122)";
    let cases: Vec<(&str, Vec<&str>, Vec<&str>, Path)> = vec![
        (
            "hire with three skill links",
            vec![],
            vec![HIRE, SKILLED],
            Path::InPlace { nodes: 1, links: 4 },
        ),
        (
            "skill link of stored nodes",
            vec![],
            vec!["INSERT INTO EMPSKILLS VALUES (1, 0)"],
            Path::InPlace { nodes: 0, links: 1 },
        ),
        (
            "move between ARC departments",
            vec![],
            vec!["UPDATE EMP SET edno = 5 WHERE eno = 3"],
            Path::InPlace { nodes: 1, links: 2 },
        ),
        (
            "hire outside ARC",
            vec![],
            vec!["INSERT INTO EMP VALUES (1000, 'new', 1, 50.0)", SKILLED],
            Path::NoWrite,
        ),
        (
            "move out of ARC",
            vec![],
            vec!["UPDATE EMP SET edno = 1 WHERE eno = 3"],
            Path::InPlace { nodes: 4, links: 4 },
        ),
        (
            "root insert",
            vec![],
            vec!["INSERT INTO DEPT VALUES (10, 'new', 'ARC')"],
            Path::InPlace { nodes: 1, links: 0 },
        ),
        (
            "link to a skill stored nowhere",
            vec![],
            vec!["INSERT INTO EMPSKILLS VALUES (1, 1)"],
            Path::InPlace { nodes: 1, links: 1 },
        ),
        (
            "hire after its skill link",
            vec!["INSERT INTO EMPSKILLS VALUES (1000, 0)"],
            vec![HIRE],
            Path::InPlace { nodes: 1, links: 2 },
        ),
        (
            "delete EMP",
            vec![],
            vec!["DELETE FROM EMP WHERE eno = 3"],
            Path::InPlace { nodes: 4, links: 4 },
        ),
        (
            "delete DEPT",
            vec![],
            vec!["DELETE FROM DEPT WHERE dno = 5"],
            Path::InPlace {
                nodes: 90,
                links: 105,
            },
        ),
        (
            "delete PROJ",
            vec![],
            vec!["DELETE FROM PROJ WHERE pno = 2"],
            Path::Recompute,
        ),
        (
            "delete SKILLS",
            vec![],
            vec!["DELETE FROM SKILLS WHERE sno = 0"],
            Path::InPlace { nodes: 1, links: 2 },
        ),
        (
            "delete EMPSKILLS",
            vec![],
            vec!["DELETE FROM EMPSKILLS WHERE eseno = 3"],
            Path::InPlace { nodes: 3, links: 3 },
        ),
        (
            "delete PROJSKILLS",
            vec![],
            vec!["DELETE FROM PROJSKILLS WHERE pspno = 2"],
            Path::Recompute,
        ),
    ];
    for (label, setup, stmts, path) in cases {
        let db = build_uniform_paper_db_with(10, config_with_batch(1024));
        assert_path(&db, DEPS_ARC, &setup, &stmts, path, label);
    }
}

// ---------------------------------------------------------------------------
// shared-node fan-in: maintenance cost follows the CO, not the sharing
// ---------------------------------------------------------------------------

/// The skill department 0 shares with `fan_in` employees elsewhere.
const SHARED_SKILL: i64 = 1000;
/// First employee number of the foreign employees holding it.
const FOREIGN_ENO: i64 = 10_000;

/// A small paper database with SKILLS keyed by `sno`, plus one SKILLS node
/// linked from employee 0 (department 0) and from `fan_in` employees
/// spread over departments 1–3, under a keyed CO matview `fan_co` over
/// every department. Returns the database and the view's definition.
fn fan_in_db(fan_in: i64) -> (Database, String) {
    let db = build_paper_db_with(
        PaperScale {
            departments: 4,
            arc_fraction: 0.0,
            employees_per_dept: 3,
            projects_per_dept: 1,
            skills: 10,
            skills_per_employee: 1,
            skills_per_project: 1,
            seed: 5,
        },
        config_with_batch(1024),
    );
    let cat = db.catalog();
    let (emp, es) = (cat.table("EMP").unwrap(), cat.table("EMPSKILLS").unwrap());
    let link = |eno: i64| Tuple::new(vec![Value::Int(eno), Value::Int(SHARED_SKILL)]);
    cat.table("SKILLS")
        .unwrap()
        .insert(&Tuple::new(vec![
            Value::Int(SHARED_SKILL),
            Value::Str("shared".into()),
        ]))
        .unwrap();
    es.insert(&link(0)).unwrap();
    for i in 0..fan_in {
        let eno = FOREIGN_ENO + i;
        emp.insert(&Tuple::new(vec![
            Value::Int(eno),
            Value::Str(format!("far-{eno}")),
            Value::Int(1 + i % 3),
            Value::Double(50.0),
        ]))
        .unwrap();
        es.insert(&link(eno)).unwrap();
    }
    let def = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    db.session()
        .execute_batch(&format!(
            "CREATE UNIQUE INDEX skills_pk ON SKILLS (sno); \
             CREATE MATERIALIZED VIEW fan_co AS {def};"
        ))
        .unwrap();
    (db, def)
}

/// Buffer-pool page accesses (hits + misses) one statement costs,
/// commit-time maintenance included.
fn page_accesses(db: &Database, stmt: &str) -> u64 {
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    let before = accesses();
    db.session().execute(stmt, &[]).unwrap();
    accesses() - before
}

/// A new skill link of employee 0 is edited in place and must not read the
/// shared skill's links from other departments, so the commit costs the
/// same page accesses at fan-in 10 and 1000. A salary raise of the same
/// employee is value-only and rewrites its stored node. Then the shared
/// node turns exclusive and vanishes — each unlink's orphan check stops at
/// the first connection left — and incremental maintenance must track
/// REFRESH through every step.
#[test]
fn shared_node_fan_in_does_not_cost_maintenance() {
    const RAISE: &str = "UPDATE EMP SET sal = sal + 1 WHERE eno = 0";
    const LINK: &str = "INSERT INTO EMPSKILLS VALUES (0, 1)";
    let mut cost = Vec::new();
    for fan_in in [10, 1000] {
        let (db, def) = fan_in_db(fan_in);
        let s = db.session();
        let before = db.maint_stats();
        s.execute(RAISE, &[]).unwrap();
        let raised = db.maint_stats();
        assert_eq!(
            raised.mv_nodes_rewritten,
            before.mv_nodes_rewritten + 1,
            "the raise rewrites employee 0's stored node in place"
        );
        assert_eq!(
            raised.mv_recomputes, before.mv_recomputes,
            "the raise recomputes nothing"
        );
        assert_co_matches(&db, "fan_co", &def, &format!("fan-in {fan_in}: {RAISE}"));
        cost.push(page_accesses(&db, LINK));
        let linked = db.maint_stats();
        assert_eq!(
            (linked.mv_links_edited, linked.mv_recomputes),
            (raised.mv_links_edited + 1, raised.mv_recomputes),
            "the link inserts one connection in place"
        );
        assert_co_matches(&db, "fan_co", &def, &format!("fan-in {fan_in}: {LINK}"));
        if fan_in > 10 {
            continue;
        }
        let last = FOREIGN_ENO + fan_in - 1;
        for stmt in [
            format!("DELETE FROM EMPSKILLS WHERE eseno > {FOREIGN_ENO} AND eseno < {last}"),
            format!("DELETE FROM EMPSKILLS WHERE eseno = {FOREIGN_ENO}"),
            // The last foreign link: the skill is now department 0's alone.
            format!("DELETE FROM EMPSKILLS WHERE eseno = {last}"),
            // And department 0's link: the node vanishes.
            format!("DELETE FROM EMPSKILLS WHERE eseno = 0 AND essno = {SHARED_SKILL}"),
        ] {
            s.execute(&stmt, &[]).unwrap();
            assert_co_matches(&db, "fan_co", &def, &format!("fan-in {fan_in}: {stmt}"));
        }
        let stored = s.fetch_co("fan_co").unwrap();
        assert!(
            stored
                .workspace
                .independent("xskills")
                .unwrap()
                .all(|t| !format!("{:?}", t.values()).contains("shared")),
            "the unlinked shared skill left the view"
        );
    }
    assert!(
        cost[1].abs_diff(cost[0]) <= 8,
        "page accesses of one in-place link grew with the shared node's \
         fan-in: {} at 10, {} at 1000",
        cost[0],
        cost[1]
    );
}

// ---------------------------------------------------------------------------
// oo1 fixture: recursive CO → full-recompute maintenance path
// ---------------------------------------------------------------------------

#[test]
fn oo1_recursive_co_matview_full_recompute_path() {
    let cfg = Oo1Config {
        parts: 40,
        fanout: 2,
        seed: 3,
        ..Default::default()
    };
    for &bs in BATCH_SIZES {
        let db = build_oo1_db_with(cfg, config_with_batch(bs));
        let s = db.session();
        s.execute(
            &format!("CREATE MATERIALIZED VIEW parts_co AS {OO1_CO}"),
            &[],
        )
        .unwrap();
        assert_co_matches(&db, "parts_co", OO1_CO, "populated (recursive)");
        // Recursive COs maintain by full recompute; contents still track.
        s.execute("UPDATE OO1PARTS SET ptype = 'hot' WHERE id = 5", &[])
            .unwrap();
        s.execute("DELETE FROM OO1CONN WHERE src = 7", &[]).unwrap();
        s.execute("INSERT INTO OO1CONN VALUES (5, 9, 'new', 1)", &[])
            .unwrap();
        let ctx = format!("batch_size={bs} after oo1 DML");
        assert_co_matches(&db, "parts_co", OO1_CO, &ctx);
    }
}

// ---------------------------------------------------------------------------
// random fixture: direct + keyed self-join views under random DML
// ---------------------------------------------------------------------------

#[test]
fn random_fixture_randomized_stream_all_batch_sizes() {
    const DIRECT: &str = "SELECT a, c FROM R WHERE b IS NOT NULL";
    const KEYED: &str = "SELECT r.a, r.c, s.c AS c2 FROM R r, S s WHERE r.a = s.a";
    for &bs in BATCH_SIZES {
        let db = Database::with_config(config_with_batch(bs));
        let session = db.session();
        random_table(
            &db,
            "R",
            RandomTableConfig {
                rows: 60,
                domain: 12,
                null_p: 0.15,
                seed: 21,
            },
        );
        random_table(
            &db,
            "S",
            RandomTableConfig {
                rows: 30,
                domain: 12,
                null_p: 0.1,
                seed: 22,
            },
        );
        session
            .execute_batch("CREATE INDEX r_a ON R (a); CREATE INDEX s_a ON S (a);")
            .unwrap();
        session
            .execute(
                &format!("CREATE MATERIALIZED VIEW direct_r AS {DIRECT}"),
                &[],
            )
            .unwrap();
        session
            .execute(&format!("CREATE MATERIALIZED VIEW joined AS {KEYED}"), &[])
            .unwrap();

        let mut rng = StdRng::seed_from_u64(777 + bs as u64);
        for step in 0..50 {
            let table = if rng.gen_bool(0.7) { "R" } else { "S" };
            let a = rng.gen_range(0..12);
            let stmt = match rng.gen_range(0..4) {
                0 => format!(
                    "INSERT INTO {table} VALUES ({a}, {}, 's{}')",
                    rng.gen_range(0..12),
                    rng.gen_range(0..12)
                ),
                1 => format!("INSERT INTO {table} (a, c) VALUES ({a}, 'noB')"),
                2 => format!(
                    "UPDATE {table} SET b = {} WHERE a = {a}",
                    rng.gen_range(0..12)
                ),
                _ => format!("DELETE FROM {table} WHERE a = {a}"),
            };
            session.execute(&stmt, &[]).unwrap();
            if step % 10 == 9 {
                let ctx = format!("batch_size={bs} step={step} after `{stmt}`");
                assert_sql_matches(&db, "direct_r", DIRECT, &ctx);
                assert_sql_matches(&db, "joined", KEYED, &ctx);
            }
        }
        assert_sql_matches(&db, "direct_r", DIRECT, "final state");
        assert_sql_matches(&db, "joined", KEYED, "final state");
    }
}

// ---------------------------------------------------------------------------
// multi-statement transactions under concurrent committers
// ---------------------------------------------------------------------------

/// Randomized multi-statement transactions racing from several sessions:
/// each transaction batches 2–5 DML statements (whose per-statement deltas
/// coalesce into one net batch at COMMIT), some roll back, and commits
/// interleave, so a transaction's statements regularly run against a
/// snapshot that other committers have outrun by the time it commits and
/// maintains its views. Quiesced, every
/// view — CO in-place edits, SQL join (recomputed), direct, grouped aggregate — must
/// equal both its definition and a full REFRESH recompute. With `hires`,
/// every other transaction of a session is instead a hire with one skill
/// link plus a move of one of the session's own employees. A fifth
/// session reads until the writers are done: no point fetch of a
/// `hot_deps` department may fail or return more than one department root,
/// and inside each of its transactions every view equals its definition
/// under that transaction's snapshot, mid-storm.
fn concurrent_storm_matches_refresh(db: Database, hires: bool) -> Database {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use xnf_core::run_sessions;
    const WRITERS: usize = 4;
    // Hire `eno`s stay unique across sessions while `ROUNDS` < 100.
    const ROUNDS: usize = 60;

    let db = std::sync::Arc::new(db);
    let autocommit = db.session();
    for (name, def) in [
        ("hot_deps", DEPS_ARC),
        ("arc_people", PAPER_SQL_VIEW),
        ("top_emps", PAPER_DIRECT_VIEW),
        ("head_count", PAPER_AGG_VIEW),
    ] {
        autocommit
            .execute(&format!("CREATE MATERIALIZED VIEW {name} AS {def}"), &[])
            .unwrap();
    }

    let commits = AtomicU64::new(0);
    let writers_done = AtomicUsize::new(0);
    let fetches = AtomicU64::new(0);
    let snapshots = AtomicU64::new(0);
    run_sessions(&db, WRITERS + 1, |i, session| {
        let mut rng = StdRng::seed_from_u64(0xD1CE ^ (i as u64).wrapping_mul(7919));
        if i == WRITERS {
            loop {
                let done = writers_done.load(Ordering::Acquire) == WRITERS;
                let dno = Value::Int(rng.gen_range(0..14));
                let co = db
                    .fetch_co_point("hot_deps", &dno)
                    .unwrap_or_else(|e| panic!("point fetch of {dno:?} during the storm: {e}"));
                let roots = co.workspace.component("xdept").unwrap().len();
                assert!(roots <= 1, "point fetch of {dno:?} returned {roots} roots");
                fetches.fetch_add(1, Ordering::Relaxed);
                session.begin().unwrap();
                for (name, def) in [
                    ("arc_people", PAPER_SQL_VIEW),
                    ("top_emps", PAPER_DIRECT_VIEW),
                    ("head_count", PAPER_AGG_VIEW),
                ] {
                    assert_eq!(
                        rows_in(session, &format!("SELECT * FROM {name}")),
                        rows_in(session, def),
                        "{name} != its definition under a mid-storm snapshot"
                    );
                }
                assert_eq!(
                    canon(&session.fetch_co("hot_deps").unwrap()),
                    canon(&session.fetch_co(DEPS_ARC).unwrap()),
                    "hot_deps != its definition under a mid-storm snapshot"
                );
                session.commit().unwrap();
                snapshots.fetch_add(1, Ordering::Relaxed);
                if done {
                    return;
                }
            }
        }
        for round in 0..ROUNDS {
            let stmts: Vec<String> = if hires && round % 2 == 0 {
                let eno = 800 + 100 * i + round;
                vec![
                    format!(
                        "INSERT INTO EMP VALUES ({eno}, 'hire-{eno}', {}, 90.5)",
                        round % 3
                    ),
                    format!("INSERT INTO EMPSKILLS VALUES ({eno}, {})", round % 15),
                    format!("UPDATE EMP SET edno = {} WHERE eno = {i}", (i + round) % 3),
                ]
            } else {
                (0..rng.gen_range(2..=5))
                    .map(|_| paper_dml(&mut rng))
                    .collect()
            };
            session.begin().unwrap();
            let ran: Result<(), xnf_core::XnfError> = stmts
                .iter()
                .try_for_each(|s| session.execute(s, &[]).map(|_| ()));
            match ran {
                // Exercise rollback: dropped transactions must leave no
                // trace in any view.
                Ok(()) if rng.gen_bool(0.2) => session.rollback().unwrap(),
                Ok(()) => {
                    session.commit().unwrap();
                    commits.fetch_add(1, Ordering::Relaxed);
                }
                // Row races (first-writer-wins) and unique-key collisions
                // between racing sessions abort the transaction.
                Err(_) => session.rollback().unwrap(),
            }
        }
        writers_done.fetch_add(1, Ordering::Release);
    });
    assert!(
        commits.load(Ordering::Relaxed) >= 8,
        "storm committed too little to mean anything"
    );
    assert!(fetches.load(Ordering::Relaxed) > 0);
    assert!(snapshots.load(Ordering::Relaxed) > 0);

    let ctx = "after concurrent multi-statement transactions";
    assert_co_matches(&db, "hot_deps", DEPS_ARC, ctx);
    assert_sql_matches(&db, "arc_people", PAPER_SQL_VIEW, ctx);
    assert_sql_matches(&db, "top_emps", PAPER_DIRECT_VIEW, ctx);
    assert_sql_matches(&db, "head_count", PAPER_AGG_VIEW, ctx);

    // Incremental contents == full REFRESH recompute, view by view.
    for (name, def) in [
        ("arc_people", PAPER_SQL_VIEW),
        ("top_emps", PAPER_DIRECT_VIEW),
        ("head_count", PAPER_AGG_VIEW),
    ] {
        let incremental = rows_of(&db, &format!("SELECT * FROM {name}"));
        autocommit
            .execute(&format!("REFRESH MATERIALIZED VIEW {name}"), &[])
            .unwrap();
        assert_eq!(
            incremental,
            rows_of(&db, &format!("SELECT * FROM {name}")),
            "{name}: incremental maintenance diverged from REFRESH ({ctx})"
        );
        assert_sql_matches(&db, name, def, "post-REFRESH");
    }
    let stored = canon(&autocommit.fetch_co("hot_deps").unwrap());
    autocommit
        .execute("REFRESH MATERIALIZED VIEW hot_deps", &[])
        .unwrap();
    assert_eq!(
        stored,
        canon(&autocommit.fetch_co("hot_deps").unwrap()),
        "hot_deps: incremental maintenance diverged from REFRESH ({ctx})"
    );
    drop(autocommit);
    std::sync::Arc::into_inner(db).expect("sessions ended")
}

#[test]
fn multi_statement_txns_under_concurrent_committers_match_refresh() {
    concurrent_storm_matches_refresh(paper_db(1024), false);
}

/// The same storm with keyed SKILLS and hires, so that in-place hires,
/// links and moves race with in-place removals and root reaches of the same
/// departments, and with the recomputes that PROJ deltas need.
#[test]
fn multi_statement_txns_with_keyed_skills_under_concurrent_committers_match_refresh() {
    let db = concurrent_storm_matches_refresh(paper_db_with_keyed_skills(1024), true);
    let stats = db.maint_stats();
    assert!(
        stats.mv_nodes_rewritten > 0 && stats.mv_links_edited > 0 && stats.mv_recomputes > 0,
        "storm wrote {} nodes and {} connections in place and recomputed {} times",
        stats.mv_nodes_rewritten,
        stats.mv_links_edited,
        stats.mv_recomputes
    );
}
