//! Cross-crate integration tests: the full pipeline on the paper's running
//! example and the generated workloads.

use composite_views::{FetchStrategy, Server, TransportStats, Value, Workspace};
use xnf_fixtures::{build_oo1_db, build_paper_db, Oo1Config, PaperScale, DEPS_ARC, OO1_CO};

#[test]
fn deps_arc_full_pipeline_at_scale() {
    let scale = PaperScale {
        departments: 30,
        arc_fraction: 0.2,
        employees_per_dept: 10,
        projects_per_dept: 4,
        skills: 60,
        skills_per_employee: 2,
        skills_per_project: 3,
        seed: 99,
    };
    let db = build_paper_db(scale);
    let session = db.session();
    let co = session.fetch_co(DEPS_ARC).unwrap();
    let ws = &co.workspace;

    // Cardinalities: 6 ARC departments, each with its employees/projects.
    assert_eq!(ws.component("xdept").unwrap().len(), 6);
    assert_eq!(ws.component("xemp").unwrap().len(), 60);
    assert_eq!(ws.component("xproj").unwrap().len(), 24);

    // Reachability: every cached skill is reachable through some employee
    // or project; every EMPSKILLS edge of a cached employee is present.
    let expected_edges: i64 = session
        .query(
            "SELECT COUNT(*) FROM EMPSKILLS es WHERE es.eseno IN \
             (SELECT e.eno FROM EMP e WHERE e.edno IN \
              (SELECT d.dno FROM DEPT d WHERE d.loc = 'ARC'))",
            &[],
        )
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(
        ws.relationship("empproperty").unwrap().connection_count() as i64,
        expected_edges
    );

    // Every skill in the cache has at least one parent (reachability).
    for s in ws.independent("xskills").unwrap() {
        let via_emp = s.parents("empproperty").unwrap().count();
        let via_proj = s.parents("projproperty").unwrap().count();
        assert!(via_emp + via_proj > 0, "unreachable skill in cache");
    }
}

#[test]
fn xnf_equals_sql_derivation_everywhere() {
    // The CO node streams must match their relational derivations on
    // several seeds/scales (who-wins shape of Fig. 6, correctness side).
    for seed in [1, 2, 3] {
        let db = build_paper_db(PaperScale {
            departments: 12,
            arc_fraction: 0.3,
            employees_per_dept: 4,
            projects_per_dept: 2,
            skills: 15,
            skills_per_employee: 2,
            skills_per_project: 1,
            seed,
        });
        let s = db.session();
        let co = s.query(DEPS_ARC, &[]).unwrap();
        let sql_xemp = s
            .query(
                "SELECT e.eno FROM EMP e WHERE EXISTS \
                 (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno) ORDER BY eno",
                &[],
            )
            .unwrap();
        let mut co_xemp: Vec<i64> = co
            .stream("xemp")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        co_xemp.sort();
        let sql_ids: Vec<i64> = sql_xemp
            .try_table()
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(co_xemp, sql_ids, "seed {seed}");
    }
}

#[test]
fn oo1_cache_round_trips_through_persistence() {
    let db = build_oo1_db(Oo1Config {
        parts: 300,
        ..Default::default()
    });
    let co = db.session().fetch_co(OO1_CO).unwrap();
    let dir = std::env::temp_dir().join("xnf_oo1_cache.bin");
    composite_views::save_to_file(&co.workspace, &dir).unwrap();
    let loaded = composite_views::load_from_file(&dir).unwrap();
    assert_eq!(loaded.tuple_count(), co.workspace.tuple_count());
    assert_eq!(loaded.connection_count(), co.workspace.connection_count());
    // Same adjacency after re-swizzling.
    for id in [0u32, 7, 123] {
        let a: Vec<u32> = co
            .workspace
            .children("conn", id)
            .unwrap()
            .map(|t| t.id())
            .collect();
        let b: Vec<u32> = loaded
            .children("conn", id)
            .unwrap()
            .map(|t| t.id())
            .collect();
        assert_eq!(a, b);
    }
    let _ = std::fs::remove_file(dir);
}

#[test]
fn server_fetch_strategies_agree_on_content() {
    let db = build_paper_db(PaperScale {
        departments: 10,
        ..Default::default()
    });
    let server = Server::new(db);
    let mut s1 = TransportStats::default();
    let r1 = server
        .fetch(DEPS_ARC, FetchStrategy::TupleAtATime, &mut s1)
        .unwrap();
    let mut s2 = TransportStats::default();
    let r2 = server
        .fetch(
            DEPS_ARC,
            FetchStrategy::WholeCo {
                max_bytes: 64 * 1024,
            },
            &mut s2,
        )
        .unwrap();
    for (a, b) in r1.streams.iter().zip(&r2.streams) {
        assert_eq!(a.rows, b.rows, "strategy must not change data");
    }
    assert!(
        s1.messages > s2.messages * 10,
        "tuple-at-a-time crosses far more often"
    );
    // Byte payloads are identical up to framing.
    let ws = Workspace::from_result(&r2).unwrap();
    assert!(ws.tuple_count() > 0);
}

#[test]
fn updates_survive_round_trip_through_base_tables() {
    let db = build_paper_db(PaperScale {
        departments: 6,
        ..Default::default()
    });
    let s = db.session();
    let mut co = s.fetch_co(DEPS_ARC).unwrap();
    // Raise every cached employee by 5.0 and write back.
    let ids: Vec<u32> = co
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|t| t.id())
        .collect();
    let before: Vec<f64> = ids
        .iter()
        .map(|&id| {
            co.workspace.component("xemp").unwrap().row(id)[3]
                .as_double()
                .unwrap()
        })
        .collect();
    for &id in &ids {
        let old = co.workspace.component("xemp").unwrap().row(id)[3]
            .as_double()
            .unwrap();
        co.update_value("xemp", id, "sal", Value::Double(old + 5.0))
            .unwrap();
    }
    s.write_back(&mut co).unwrap();

    // Re-extract: the new CO must reflect the raises.
    let co2 = s.fetch_co(DEPS_ARC).unwrap();
    let after: Vec<f64> = co2
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|t| t.get("sal").unwrap().as_double().unwrap())
        .collect();
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert!((a - b - 5.0).abs() < 1e-9);
    }
}

#[test]
fn experiment_entry_points_run() {
    // Smoke-run the experiment library at tiny scales (the binary's `quick`
    // mode covers the rest).
    let db = build_paper_db(PaperScale {
        departments: 8,
        ..Default::default()
    });
    let t = xnf_bench::run_table1(&db);
    assert_eq!(t.sql_total, 23, "Table 1 SQL total must match the paper");
    assert_eq!(
        t.xnf_derivation.total(),
        7,
        "Table 1 XNF total must match the paper"
    );
    assert_eq!(t.xnf_derivation.joins, 6);
    assert_eq!(t.xnf_derivation.selections, 1);
    assert_eq!(t.redundant_vs_xnf(), 16);

    let pts = xnf_bench::experiments::fig3::run_fig3(&[400]);
    assert!(pts[0].speedup > 1.0, "rewrite must win: {:?}", pts[0]);

    let ship = xnf_bench::experiments::shipping::run_shipping(10);
    assert_eq!(ship.len(), 3);
    assert!(ship[2].report.bytes <= ship[1].report.bytes);

    // E9's quick sweep: parts reached, edges and rows scanned per point.
    let e9 = xnf_bench::experiments::recursion_exp::run_recursion(&[(4, 10), (6, 20)]);
    let counts: Vec<_> = e9
        .iter()
        .map(|p| (p.reached_parts, p.edges, p.rows_scanned))
        .collect();
    assert_eq!(counts, [(9, 10, 362), (20, 28, 1122)]);
}

#[test]
fn multiple_cos_share_one_database() {
    // "Different tools and applications may ask for different (not
    // necessarily disjoint) COs over the same common database" (Sect. 2).
    let db = build_paper_db(PaperScale {
        departments: 10,
        ..Default::default()
    });
    let s = db.session();
    let co_full = s.fetch_co(DEPS_ARC).unwrap();
    let co_slim = s
        .fetch_co(
            "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
             TAKE *",
        )
        .unwrap();
    assert_eq!(
        co_full.workspace.component("xdept").unwrap().len(),
        co_slim.workspace.component("xdept").unwrap().len()
    );
    // Plain SQL continues to work over the same data (upward compatibility).
    let r = s.query("SELECT COUNT(*) FROM EMP", &[]).unwrap();
    assert!(r.try_table().unwrap().rows[0][0].as_int().unwrap() > 0);
}

#[test]
fn prepared_statements_work_across_the_fixture_db() {
    let db = build_paper_db(PaperScale {
        departments: 10,
        ..Default::default()
    });
    let session = db.session();

    // The same prepared point query, many bindings, one compilation.
    let compiles_before = db.plan_cache_stats().compiles;
    let mut by_dept = session
        .prepare("SELECT COUNT(*) FROM EMP WHERE edno = ?")
        .unwrap();
    let mut total = 0i64;
    for dno in 0..10 {
        let r = by_dept
            .execute_with(&[Value::Int(dno)])
            .and_then(|o| o.try_rows())
            .unwrap();
        total += r.try_table().unwrap().rows[0][0].as_int().unwrap();
    }
    assert_eq!(db.plan_cache_stats().compiles, compiles_before + 1);

    let all: i64 = session
        .query("SELECT COUNT(*) FROM EMP", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(total, all, "per-department counts must sum to the total");

    // Prepared CO query through the server fixture's database.
    let mut co = session
        .prepare(
            "OUT OF xdept AS (SELECT * FROM DEPT),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp
                                   WHERE xdept.dno = xemp.edno)
             TAKE * WHERE xdept.loc = ?",
        )
        .unwrap();
    co.bind(&[Value::Str("ARC".into())]).unwrap();
    let first = co.query().unwrap();
    let second = co.query().unwrap();
    for (a, b) in first.streams.iter().zip(&second.streams) {
        assert_eq!(a.rows, b.rows, "re-execution must be deterministic");
    }
}

/// The root-restricted Fig. 1 fetch, prepared as `co_serve` runs it, reads
/// an exact number of rows on the uniform paper fixture. The count moves
/// whenever the plan reads more or less: a plan that shares the
/// pass-through box `xskills AS SKILLS` scans SKILLS once, re-streams it
/// to both skill paths and cannot probe its key, and reads 1113 rows.
#[test]
fn root_restricted_fetch_scans_an_exact_row_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let all = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    let session = db.session();
    let mut fetch = session
        .prepare(&format!("{all} WHERE xdept.dno = ?"))
        .unwrap();
    fetch.bind(&[Value::Int(3)]).unwrap();
    let stats = fetch.query().unwrap().stats;
    assert_eq!(
        (stats.rows_scanned, stats.rows_emitted),
        (733, 205),
        "{stats:?}"
    );
}

/// Canonical value-identity form of a CO: per-component row sets and
/// per-relationship (parent row, child row) pair sets, so that surrogates
/// and stream positions cancel out.
fn canon(ws: &Workspace) -> Vec<(String, Vec<String>)> {
    let mut sets: Vec<(String, Vec<String>)> = ws
        .components
        .iter()
        .map(|c| {
            let rows = ws.independent(&c.name).unwrap();
            (
                c.name.clone(),
                rows.map(|t| format!("{:?}", t.values())).collect(),
            )
        })
        .chain(ws.relationships.iter().map(|r| {
            let pairs = r.connections().iter().map(|conn| {
                format!(
                    "{:?}->{:?}",
                    ws.components[r.parent].row(conn[0]),
                    ws.components[r.children[0]].row(conn[1])
                )
            });
            (r.name.clone(), pairs.collect())
        }))
        .collect();
    for (_, rows) in &mut sets {
        rows.sort();
        rows.dedup();
    }
    sets.sort();
    sets
}

/// A point fetch of one department from the materialized Fig. 1 CO reads
/// each stored page it needs once: an exact number of buffer-pool page
/// accesses, below what extracting the same CO from the base tables costs,
/// and the same CO by value. The count moves whenever the fetch reads more
/// or less: resolving each of the department's ~100 nodes and ~100
/// connections under its own pin, and reading the connections twice,
/// costs 311. The extraction's count moves whenever its index probes read
/// more or less: resolving each posting under a pin of its own, rather
/// than each page's run of postings under one, cost 208.
#[test]
fn stored_point_fetch_reads_an_exact_page_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let all = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    let session = db.session();
    session
        .execute(&format!("CREATE MATERIALIZED VIEW deps AS {all}"), &[])
        .unwrap();
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    let mut fetch = session
        .prepare(&format!("{all} WHERE xdept.dno = ?"))
        .unwrap();
    fetch.bind(&[Value::Int(3)]).unwrap();
    let before = accesses();
    let fresh = fetch.fetch_co().unwrap();
    let extracted = accesses() - before;

    let before = accesses();
    let stored = db.fetch_co_point("deps", &Value::Int(3)).unwrap();
    let point = accesses() - before;
    assert_eq!((point, extracted), (11, 57));
    assert_eq!(canon(&stored.workspace), canon(&fresh.workspace));
}

/// A one-employee `DELETE` under the materialized Fig. 1 CO edits the
/// stored streams in place: it removes the employee's node and its four
/// connections, and checks its three skills for a connection left in one
/// batched read, stopping once each has one (all three are shared, so they
/// stay). That costs an exact number of buffer-pool page accesses,
/// statement included: 13 (18 when each of the five removals deleted its
/// row physically, reading it first, rather than marking its version
/// deleted; 22 when each skill was probed on its own; 20 when the
/// employee's three skill connections were read under a pin each), below
/// the 57 that extracting the
/// employee's whole department costs; re-extracting and diff-splicing the
/// department cost 432. The stored CO then equals a REFRESH.
#[test]
fn stored_co_delete_edits_an_exact_page_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let all = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    let session = db.session();
    session
        .execute(&format!("CREATE MATERIALIZED VIEW deps AS {all}"), &[])
        .unwrap();
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    // Employee 61 works in department 3; its skills are all shared.
    let before = accesses();
    session
        .execute("DELETE FROM EMP WHERE eno = 61", &[])
        .unwrap();
    let delete = accesses() - before;
    let stats = db.maint_stats();
    assert_eq!(
        (
            stats.mv_nodes_rewritten,
            stats.mv_links_edited,
            stats.mv_recomputes
        ),
        (1, 4, 0)
    );
    assert_eq!(delete, 13);
    let stored = canon(&session.fetch_co("deps").unwrap().workspace);
    session
        .execute("REFRESH MATERIALIZED VIEW deps", &[])
        .unwrap();
    assert_eq!(stored, canon(&session.fetch_co("deps").unwrap().workspace));
}

/// A whole department leaving `DEPS_ARC`, by a move to another location
/// and by a delete: the cascade removes the department's stored nodes (30
/// and 28; shared skills stay) and 105 connections wave by wave, each
/// wave's orphan checks, rid lookups and reads of the removed nodes'
/// outgoing connections batched through `Table::scan_by_values`. Each costs an exact number of buffer-pool page accesses,
/// statement included: 153 and 160. The second runs after a REFRESH,
/// whose superseded versions stay in the streams below the auto-vacuum
/// threshold, and its reads pass over them. Deleting each of the 135 and
/// 133 removed rows physically, reading it first, rather than marking its
/// version deleted, cost 288 and 282 (the REFRESH then left no old
/// versions); reading each removed node's outgoing connections with a read
/// of its own, not one per wave and relationship, 311 and 305; under a pin
/// each, 389 and 383; and probing one node at a time, 584 and 510. The
/// stored CO then equals a REFRESH.
#[test]
fn stored_co_department_exit_cascades_in_an_exact_page_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let session = db.session();
    session
        .execute(&format!("CREATE MATERIALIZED VIEW deps AS {DEPS_ARC}"), &[])
        .unwrap();
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    let mut costs = Vec::new();
    for stmt in [
        "UPDATE DEPT SET loc = 'HDC' WHERE dno = 5",
        "DELETE FROM DEPT WHERE dno = 10",
    ] {
        let (before, edits) = (accesses(), db.maint_stats());
        session.execute(stmt, &[]).unwrap();
        let after = db.maint_stats();
        costs.push((
            accesses() - before,
            after.mv_nodes_rewritten - edits.mv_nodes_rewritten,
            after.mv_links_edited - edits.mv_links_edited,
            after.mv_recomputes - edits.mv_recomputes,
        ));
        let stored = canon(&session.fetch_co("deps").unwrap().workspace);
        session
            .execute("REFRESH MATERIALIZED VIEW deps", &[])
            .unwrap();
        assert_eq!(
            stored,
            canon(&session.fetch_co("deps").unwrap().workspace),
            "{stmt}"
        );
    }
    assert_eq!(costs, vec![(153, 30, 105, 0), (160, 28, 105, 0)]);
}

/// Writing back one raised salary from a fetched Fig. 1 department runs
/// one keyed `UPDATE EMP … WHERE eno = ? AND …`, which probes EMP's unique
/// index: an exact number of buffer-pool page accesses, the same for an
/// employee on EMP's first page (61) and on its last (799). When
/// write-back found the row by a visible scan of EMP that stopped at it,
/// the two cost 3 and 8.
#[test]
fn co_write_back_update_costs_an_exact_page_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let all = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    let session = db.session();
    let mut fetch = session
        .prepare(&format!("{all} WHERE xdept.dno = ?"))
        .unwrap();
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    let mut costs = Vec::new();
    // Employee e works in department e / 20.
    for eno in [61, 799] {
        fetch.bind(&[Value::Int(eno / 20)]).unwrap();
        let mut co = fetch.fetch_co().unwrap();
        let emp = co
            .workspace
            .independent("xemp")
            .unwrap()
            .find(|t| t.get("eno").unwrap() == &Value::Int(eno))
            .unwrap();
        let (id, sal) = (emp.id(), emp.get("sal").unwrap().as_double().unwrap());
        co.update_value("xemp", id, "sal", Value::Double(sal + 1.0))
            .unwrap();
        let before = accesses();
        assert_eq!(session.write_back(&mut co).unwrap(), 1);
        costs.push(accesses() - before);
        let now = session
            .query(&format!("SELECT sal FROM EMP WHERE eno = {eno}"), &[])
            .unwrap();
        assert_eq!(
            now.try_table().unwrap().rows,
            vec![vec![Value::Double(sal + 1.0)]]
        );
    }
    assert_eq!(costs, vec![3, 3]);
}

/// DML plans like the SELECT that reads its rows, so any `col = ?`-style
/// conjunct over an indexed column takes the index: on 400 departments at
/// dop 1, the two-conjunct UPDATE and DELETE cost exactly the buffer-pool
/// page accesses of their one-conjunct forms, statement included. When
/// only a lone `col = const` WHERE took the index, the second conjunct
/// turned each into a full scan: 63 against 3 and 62 against 2.
#[test]
fn dml_with_a_residual_conjunct_costs_its_index_probe() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(400, config);
    let session = db.session();
    let accesses = || {
        let s = db.catalog().buffer_pool().stats();
        s.hits + s.misses
    };
    let costs = [
        "UPDATE EMP SET sal = sal + 1 WHERE eno = 61",
        "UPDATE EMP SET sal = sal + 1 WHERE eno = 62 AND sal >= 0",
        "DELETE FROM EMP WHERE eno = 63",
        "DELETE FROM EMP WHERE eno = 64 AND sal >= 0",
    ]
    .map(|stmt| {
        let before = accesses();
        assert_eq!(session.execute(stmt, &[]).unwrap().affected(), 1, "{stmt}");
        accesses() - before
    });
    assert_eq!(costs, [3, 3, 2, 2]);
}

/// A direct (selection/projection) view removes a changed row's old image
/// through its `mv_key` index on the view's first column, so an UPDATE of
/// the table's last row under it costs the same buffer-pool page accesses
/// over 200 rows as over 2 000. Without the index each removal scanned the
/// backing table up to the old image: 6 and 15.
#[test]
fn direct_view_update_costs_the_same_at_any_size() {
    use xnf_core::{DbConfig, PlanOptions};
    let cost = |rows: i64| {
        let config = DbConfig {
            plan: PlanOptions {
                dop: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let db = xnf_core::Database::with_config(config);
        let session = db.session();
        for stmt in [
            "CREATE TABLE T (id INT NOT NULL, v INT)",
            "CREATE UNIQUE INDEX t_id ON T (id)",
        ] {
            session.execute(stmt, &[]).unwrap();
        }
        let mut insert = session.prepare("INSERT INTO T VALUES (?, ?)").unwrap();
        for id in 0..rows {
            insert.bind(&[Value::Int(id), Value::Int(id % 7)]).unwrap();
            insert.execute().unwrap();
        }
        session
            .execute(
                "CREATE MATERIALIZED VIEW big AS SELECT id, v FROM T WHERE v >= 0",
                &[],
            )
            .unwrap();
        let accesses = || {
            let s = db.catalog().buffer_pool().stats();
            s.hits + s.misses
        };
        let before = accesses();
        let stmt = "UPDATE T SET v = v + 1 WHERE id = ?";
        let last = Value::Int(rows - 1);
        let outcome = session.execute(stmt, std::slice::from_ref(&last)).unwrap();
        assert_eq!(outcome.affected(), 1);
        let cost = accesses() - before;
        let view = session.query("SELECT v FROM big WHERE id = ?", &[last]);
        let want = Value::Int((rows - 1) % 7 + 1);
        assert_eq!(view.unwrap().try_table().unwrap().rows, vec![vec![want]]);
        cost
    };
    assert_eq!([cost(200), cost(2_000)], [6, 6]);
}

/// A CO view whose component reads `FROM DEPT d WHERE d.loc = 'ARC'`
/// compiles its filter from its own FROM, alias included: the view is
/// created, an employee's raise and delete and a department's exit are
/// edited in place, and the stored CO equals its REFRESH after each.
#[test]
fn aliased_component_co_matview_is_maintained_in_place() {
    let db = xnf_fixtures::build_uniform_paper_db_with(10, Default::default());
    let def = DEPS_ARC.replace(
        "(SELECT * FROM DEPT WHERE loc = 'ARC')",
        "(SELECT * FROM DEPT d WHERE d.loc = 'ARC')",
    );
    assert_ne!(def, DEPS_ARC);
    let session = db.session();
    session
        .execute(&format!("CREATE MATERIALIZED VIEW deps AS {def}"), &[])
        .unwrap();
    for stmt in [
        "UPDATE EMP SET sal = sal + 1 WHERE eno = 1",
        "DELETE FROM EMP WHERE eno = 2",
        "UPDATE DEPT SET loc = 'HDC' WHERE dno = 5",
    ] {
        session.execute(stmt, &[]).unwrap();
        let stored = canon(&session.fetch_co("deps").unwrap().workspace);
        session
            .execute("REFRESH MATERIALIZED VIEW deps", &[])
            .unwrap();
        assert_eq!(
            stored,
            canon(&session.fetch_co("deps").unwrap().workspace),
            "{stmt}"
        );
    }
    assert_eq!(db.maint_stats().mv_recomputes, 0);
}

/// A relational view over an aliased table maintains directly: an UPDATE
/// of its base table commits with `Ok`, not with an error raised after the
/// commit, and the view equals its REFRESH.
#[test]
fn aliased_direct_matview_is_maintained() {
    let db = xnf_fixtures::build_uniform_paper_db_with(2, Default::default());
    let session = db.session();
    session
        .execute(
            "CREATE MATERIALIZED VIEW pay AS SELECT e.eno, e.sal FROM EMP e WHERE e.sal > 0",
            &[],
        )
        .unwrap();
    let rows = || {
        let mut rows = session
            .query("SELECT * FROM pay", &[])
            .unwrap()
            .try_table()
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>();
        rows.sort();
        rows
    };
    session
        .execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 2", &[])
        .unwrap();
    assert_eq!(db.maint_stats().mv_recomputes, 0);
    let stored = rows();
    session
        .execute("REFRESH MATERIALIZED VIEW pay", &[])
        .unwrap();
    assert_eq!(stored, rows());
}

/// A `COUNT(*)` over a fact table larger than the buffer pool does not
/// flush the pool: the pages a scan brings in enter cold and cycle through
/// one frame per shard, so the pages of `SALES` the load left warm stay
/// resident and hit on every pass. The 2nd and 3rd scans each read the
/// same exact number of pages from disk: 133 of the table's 178, the 45
/// others hitting in frames the load left warm. Under plain LRU every pass
/// read all 178.
#[test]
fn scan_of_a_table_larger_than_the_pool_reads_an_exact_page_count() {
    use xnf_core::{DbConfig, PlanOptions};
    let config = DbConfig {
        buffer_pages: 64,
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::star::build_star_db_with(8_000, config);
    let sales_pages = db.catalog().table("SALES").unwrap().page_count() as u64;
    let session = db.session();
    let disk = db.catalog().buffer_pool().disk();
    let reads: Vec<u64> = (0..3)
        .map(|_| {
            let before = disk.stats().reads;
            let count = session.query("SELECT COUNT(*) FROM SALES", &[]).unwrap();
            assert_eq!(
                count.try_table().unwrap().rows[0][0].as_int().unwrap(),
                8_000
            );
            disk.stats().reads - before
        })
        .collect();
    assert_eq!(sales_pages, 178);
    assert_eq!(reads[1..], [133, 133]);
}
