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
    let co = db.fetch_co(DEPS_ARC).unwrap();
    let ws = &co.workspace;

    // Cardinalities: 6 ARC departments, each with its employees/projects.
    assert_eq!(ws.component("xdept").unwrap().len(), 6);
    assert_eq!(ws.component("xemp").unwrap().len(), 60);
    assert_eq!(ws.component("xproj").unwrap().len(), 24);

    // Reachability: every cached skill is reachable through some employee
    // or project; every EMPSKILLS edge of a cached employee is present.
    let expected_edges: i64 = db
        .query(
            "SELECT COUNT(*) FROM EMPSKILLS es WHERE es.eseno IN \
             (SELECT e.eno FROM EMP e WHERE e.edno IN \
              (SELECT d.dno FROM DEPT d WHERE d.loc = 'ARC'))",
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
        let co = db.query(DEPS_ARC).unwrap();
        let sql_xemp = db
            .query(
                "SELECT e.eno FROM EMP e WHERE EXISTS \
                 (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno) ORDER BY eno",
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
    let co = db.fetch_co(OO1_CO).unwrap();
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
    let mut co = db.fetch_co(DEPS_ARC).unwrap();
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
        co.workspace
            .update_value("xemp", id, "sal", Value::Double(old + 5.0))
            .unwrap();
    }
    co.save(&db).unwrap();

    // Re-extract: the new CO must reflect the raises.
    let co2 = db.fetch_co(DEPS_ARC).unwrap();
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
}

#[test]
fn multiple_cos_share_one_database() {
    // "Different tools and applications may ask for different (not
    // necessarily disjoint) COs over the same common database" (Sect. 2).
    let db = build_paper_db(PaperScale {
        departments: 10,
        ..Default::default()
    });
    let co_full = db.fetch_co(DEPS_ARC).unwrap();
    let co_slim = db
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
    let r = db.query("SELECT COUNT(*) FROM EMP").unwrap();
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

    let all: i64 = db
        .query("SELECT COUNT(*) FROM EMP")
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
