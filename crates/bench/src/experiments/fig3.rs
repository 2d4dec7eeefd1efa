//! E2 — Fig. 3: existential-subquery → join rewrite.
//!
//! Structural part: the three QGM stages (initial graph with the E
//! quantifier; after E-to-F conversion; after SELECT merge). Performance
//! part: executing the query with the rewrite disabled (tuple-at-a-time
//! subquery evaluation) versus enabled (set-oriented semijoin), sweeping
//! the employee count — the paper reports orders of magnitude (\[39\]).

use std::time::{Duration, Instant};

use xnf_core::{Database, DbConfig, PlanOptions, RewriteOptions};
use xnf_fixtures::{build_paper_db, PaperScale};
use xnf_qgm::display;

pub const FIG3_QUERY: &str = "SELECT e.eno, e.ename FROM EMP e WHERE EXISTS \
     (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)";

/// The three rewrite stages of Fig. 3 as QGM dumps.
pub fn fig3_stages(db: &Database) -> (String, String, String) {
    use xnf_qgm::build_select_query;
    use xnf_rewrite::{EToF, RemoveUnusedBoxes, Rule, RuleEngine, SelectMerge};
    use xnf_sql::parse_select;

    let ast = parse_select(FIG3_QUERY).unwrap();
    let initial = build_select_query(db.catalog(), &ast).unwrap();
    let a = display::render(&initial);

    // (b): E-to-F only.
    let mut g = initial.clone();
    let engine = RuleEngine::new(vec![Box::new(EToF) as Box<dyn Rule>]);
    engine.run(&mut g).unwrap();
    let b = display::render(&g);

    // (c): full rewrite (merge included).
    let mut g = initial;
    let engine = RuleEngine::new(vec![
        Box::new(EToF) as Box<dyn Rule>,
        Box::new(SelectMerge),
        Box::new(RemoveUnusedBoxes),
    ]);
    engine.run(&mut g).unwrap();
    let c = display::render(&g);
    (a, b, c)
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    pub employees: usize,
    pub naive: Duration,
    pub naive_subqueries: u64,
    pub rewritten: Duration,
    pub speedup: f64,
}

/// Run the naive-vs-rewritten sweep.
pub fn run_fig3(emp_counts: &[usize]) -> Vec<Fig3Point> {
    let mut out = Vec::new();
    for &n in emp_counts {
        let scale = PaperScale {
            departments: 40,
            arc_fraction: 0.1,
            employees_per_dept: n / 40,
            projects_per_dept: 1,
            skills: 10,
            skills_per_employee: 0,
            skills_per_project: 0,
            ..Default::default()
        };
        let db = build_paper_db(scale);
        let naive_db = rebuild_with(
            scale,
            DbConfig {
                rewrite: RewriteOptions { e_to_f: false },
                plan: PlanOptions::default(),
                ..Default::default()
            },
        );

        let t0 = Instant::now();
        let fast = db.session().query(FIG3_QUERY, &[]).unwrap();
        let rewritten = t0.elapsed();

        let t0 = Instant::now();
        let slow = naive_db.session().query(FIG3_QUERY, &[]).unwrap();
        let naive = t0.elapsed();

        assert_eq!(
            fast.try_table().unwrap().rows.len(),
            slow.try_table().unwrap().rows.len(),
            "rewrite must not change results"
        );
        out.push(Fig3Point {
            employees: n,
            naive,
            naive_subqueries: slow.stats.subquery_invocations,
            rewritten,
            speedup: super::speedup(naive, rewritten),
        });
    }
    out
}

/// Rebuild the paper database (same seed, identical data) under a custom
/// configuration — used to compare rewrite/planner modes fairly.
pub fn rebuild_with(scale: PaperScale, cfg: DbConfig) -> Database {
    let db = Database::with_config(cfg);
    let donor = build_paper_db(scale);
    for name in donor.catalog().table_names() {
        let t = donor.catalog().table(&name).unwrap();
        let nt = db.catalog().create_table(&name, t.schema.clone()).unwrap();
        t.for_each(|_, tuple| {
            nt.insert(&tuple).unwrap();
            Ok(true)
        })
        .unwrap();
        for idx in t.index_defs() {
            nt.create_index(&idx.name, idx.columns.clone(), idx.unique)
                .unwrap();
        }
        nt.analyze().unwrap();
    }
    db
}

pub fn render_fig3(points: &[Fig3Point]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 3 — existential subquery: naive (tuple-at-a-time) vs rewritten (semijoin)"
    );
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>14} {:>12} {:>10}",
        "employees", "naive ms", "subqueries", "rewritten ms", "speedup"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>10} {:>12.2} {:>14} {:>12.2} {:>9.1}x",
            p.employees,
            super::ms(p.naive),
            p.naive_subqueries,
            super::ms(p.rewritten),
            p.speedup
        );
    }
    let _ = writeln!(
        s,
        "(paper/[39]: orders of magnitude improvement from the rewrite)"
    );
    s
}
