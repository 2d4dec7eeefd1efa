//! E3 — Figs. 5/6: multi-query common-subexpression sharing.
//!
//! The same composite object is derived twice: as eight separate SQL
//! queries (single-component derivation, Fig. 6) and as one XNF query
//! (shared component derivations, Fig. 5b). Both produce the same data;
//! the XNF derivation avoids the replicated work Table 1 counts.

use std::time::{Duration, Instant};

use xnf_core::{Database, DbConfig, PlanOptions};
use xnf_fixtures::{PaperScale, DEPS_ARC};

use crate::table1::COMPONENT_QUERIES;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig56Point {
    pub departments: usize,
    pub sql_8_queries: Duration,
    pub sql_rows_scanned: u64,
    pub xnf_single_query: Duration,
    pub xnf_rows_scanned: u64,
    /// Pipeline granularity of the XNF run: batches delivered at sinks and
    /// the largest single batch (reported so the paper experiments can show
    /// how the vectorized engine chunks the table queues).
    pub xnf_batches: u64,
    pub xnf_peak_batch: u64,
    pub xnf_no_cse: Duration,
    pub speedup: f64,
}

pub fn run_fig56(dept_counts: &[usize]) -> Vec<Fig56Point> {
    let mut out = Vec::new();
    for &d in dept_counts {
        let scale = PaperScale {
            departments: d,
            ..Default::default()
        };
        let db = super::fig3::rebuild_with(scale, DbConfig::default());
        let s = db.session();

        // Eight separate queries.
        let t0 = Instant::now();
        let mut sql_scanned = 0;
        for (_, sql) in COMPONENT_QUERIES {
            let r = s.query(sql, &[]).unwrap();
            sql_scanned += r.stats.rows_scanned;
        }
        let sql_time = t0.elapsed();

        // One XNF query.
        let t0 = Instant::now();
        let r = s.query(DEPS_ARC, &[]).unwrap();
        let xnf_time = t0.elapsed();
        let xnf_scanned = r.stats.rows_scanned;
        let xnf_batches = r.stats.batches_emitted;
        let xnf_peak_batch = r.stats.peak_batch_rows;

        // Ablation: XNF without shared-subexpression materialisation.
        let no_cse_db = super::fig3::rebuild_with(
            scale,
            DbConfig {
                plan: PlanOptions {
                    share_common_subexpressions: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        let _ = no_cse_db.session().query(DEPS_ARC, &[]).unwrap();
        let no_cse_time = t0.elapsed();

        out.push(Fig56Point {
            departments: d,
            sql_8_queries: sql_time,
            sql_rows_scanned: sql_scanned,
            xnf_single_query: xnf_time,
            xnf_rows_scanned: xnf_scanned,
            xnf_batches,
            xnf_peak_batch,
            xnf_no_cse: no_cse_time,
            speedup: super::speedup(sql_time, xnf_time),
        });
    }
    out
}

pub fn render_fig56(points: &[Fig56Point]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figs. 5/6 — CO derivation: 8 separate SQL queries vs 1 XNF query (shared CSEs)"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:>10} {:>14} {:>9}",
        "depts",
        "SQL ms",
        "SQL rows",
        "XNF ms",
        "XNF rows",
        "batches",
        "peak rows",
        "XNF-noCSE ms",
        "speedup"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6} {:>12.2} {:>12} {:>12.2} {:>12} {:>9} {:>10} {:>14.2} {:>8.1}x",
            p.departments,
            super::ms(p.sql_8_queries),
            p.sql_rows_scanned,
            super::ms(p.xnf_single_query),
            p.xnf_rows_scanned,
            p.xnf_batches,
            p.xnf_peak_batch,
            super::ms(p.xnf_no_cse),
            p.speedup
        );
    }
    let _ = writeln!(
        s,
        "(the XNF derivation scans fewer rows because shared components are derived once)"
    );
    s
}

/// Correctness guard used by tests and the harness: the two derivations
/// agree on every component's key set.
pub fn verify_equivalence(db: &Database) {
    let s = db.session();
    let co = s.query(DEPS_ARC, &[]).unwrap();
    for (name, sql) in COMPONENT_QUERIES {
        let Some(stream) = co.stream(name) else {
            continue;
        };
        let direct = s.query(sql, &[]).unwrap();
        // Compare on the first column (component key).
        let mut a: Vec<String> = stream.rows.iter().map(|r| r[0].to_string()).collect();
        let mut b: Vec<String> = direct
            .try_table()
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        a.sort();
        b.sort();
        if matches!(
            co.stream(name).unwrap().kind,
            xnf_qgm::OutputKind::Node | xnf_qgm::OutputKind::Table
        ) {
            assert_eq!(a, b, "component {name} differs between derivations");
        }
    }
}
