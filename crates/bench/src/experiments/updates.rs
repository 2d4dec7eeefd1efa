//! E10 — CO updates (Sect. 2): cache-side updates with write-back vs
//! direct SQL updates, plus connect/disconnect translation.

use std::time::{Duration, Instant};

use xnf_fixtures::{build_paper_db, PaperScale, DEPS_ARC};
use xnf_storage::Value;

#[derive(Debug, Clone)]
pub struct UpdatePoint {
    pub updates: usize,
    pub cache_update_and_save: Duration,
    pub direct_sql: Duration,
    pub connects: usize,
    pub connect_time: Duration,
}

pub fn run_updates(departments: usize) -> UpdatePoint {
    let scale = PaperScale {
        departments,
        ..Default::default()
    };

    // Cache-side: update every cached employee's salary, then save once.
    let db = build_paper_db(scale);
    let session = db.session();
    let mut co = session.fetch_co(DEPS_ARC).unwrap();
    let ids: Vec<u32> = co
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|t| t.id())
        .collect();
    let t0 = Instant::now();
    for &id in &ids {
        let old = co.workspace.component("xemp").unwrap().row(id)[3].clone();
        let new = Value::Double(old.as_double().unwrap() + 1.0);
        co.update_value("xemp", id, "sal", new).unwrap();
    }
    let ops = session.write_back(&mut co).unwrap();
    let cache_time = t0.elapsed();
    assert_eq!(ops, ids.len());

    // Direct SQL: the same logical change in one set-oriented statement.
    let db2 = build_paper_db(scale);
    let session2 = db2.session();
    let t0 = Instant::now();
    session2
        .execute(
            "UPDATE EMP SET sal = sal + 1.0 WHERE edno IN (SELECT dno FROM DEPT WHERE loc = 'ARC')",
            &[],
        )
        .unwrap_or_else(|_| {
            // The dialect's UPDATE filter is table-local; fall back to a
            // two-step touch of the same rows.
            let arc: Vec<i64> = session2
                .query("SELECT dno FROM DEPT WHERE loc = 'ARC'", &[])
                .unwrap()
                .try_table()
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect();
            let list = arc
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            session2
                .execute(
                    &format!("UPDATE EMP SET sal = sal + 1.0 WHERE edno IN ({list})"),
                    &[],
                )
                .unwrap()
        });
    let direct_time = t0.elapsed();

    // Connect/disconnect: rewire 20 employees to the first ARC department.
    let db3 = build_paper_db(scale);
    let session3 = db3.session();
    let mut co3 = session3.fetch_co(DEPS_ARC).unwrap();
    let moves: Vec<(u32, u32, u32)> = {
        let ws = &co3.workspace;
        let mut v = Vec::new();
        for e in ws.independent("xemp").unwrap() {
            if v.len() >= 20 {
                break;
            }
            if let Some(parent) = e.parents("employment").unwrap().next() {
                if parent.id() != 0 {
                    v.push((parent.id(), e.id(), 0));
                }
            }
        }
        v
    };
    let t0 = Instant::now();
    for (old_parent, emp, new_parent) in &moves {
        co3.disconnect("employment", &[*old_parent, *emp]).unwrap();
        co3.connect("employment", &[*new_parent, *emp]).unwrap();
    }
    session3.write_back(&mut co3).unwrap();
    let connect_time = t0.elapsed();

    UpdatePoint {
        updates: ids.len(),
        cache_update_and_save: cache_time,
        direct_sql: direct_time,
        connects: moves.len(),
        connect_time,
    }
}

pub fn render_updates(p: &UpdatePoint) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "CO updates — cache write-back vs direct SQL");
    let _ = writeln!(
        s,
        "  {} salary updates via cache + save: {:>9.2} ms",
        p.updates,
        super::ms(p.cache_update_and_save)
    );
    let _ = writeln!(
        s,
        "  same change via one SQL UPDATE:     {:>9.2} ms",
        super::ms(p.direct_sql)
    );
    let _ = writeln!(
        s,
        "  {} connect/disconnect pairs + save: {:>9.2} ms (FK rewiring)",
        p.connects,
        super::ms(p.connect_time)
    );
    let _ = writeln!(
        s,
        "(write-back pays per-row view-update cost; set-oriented SQL stays cheaper — \n\
         the paper's trade-off between navigation-style and set-oriented manipulation)"
    );
    s
}
