//! Morsel-driven parallelism scaling: the same scan/filter, hash join,
//! grouped aggregate and CO extraction measured at dop 1/2/4/8. The
//! detected core count is printed first — read the numbers against it: dop
//! N should approach N× on scan-heavy shapes up to the core count; above it
//! the extra workers only add scheduling overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use xnf_core::{Database, DbConfig};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};
use xnf_plan::PlanOptions;
use xnf_storage::{Tuple, Value};

const ITEM_ROWS: usize = 100_000;
const GROUP_ROWS: usize = 1_000;

fn config(dop: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            dop,
            // The fixture tables are big enough that the default gate
            // would pass too, but pin it for stability.
            parallel_min_pages: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// ITEMS(id, grp, val) with 100k rows joined against GROUPS(gid, flag).
fn build_scan_db(dop: usize) -> Database {
    let db = Database::with_config(config(dop));
    db.execute_batch(
        "CREATE TABLE ITEMS (id INT NOT NULL, grp INT, val INT);
         CREATE TABLE GROUPS (gid INT NOT NULL, flag INT);",
    )
    .expect("schema");
    let items = db.catalog().table("ITEMS").unwrap();
    for i in 0..ITEM_ROWS {
        items
            .insert(&Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int((i % GROUP_ROWS) as i64),
                Value::Int((i * 7 % 1000) as i64),
            ]))
            .unwrap();
    }
    let groups = db.catalog().table("GROUPS").unwrap();
    for g in 0..GROUP_ROWS {
        groups
            .insert(&Tuple::new(vec![
                Value::Int(g as i64),
                Value::Int((g % 2) as i64),
            ]))
            .unwrap();
    }
    db.execute_batch("ANALYZE;").unwrap();
    db
}

fn bench_parallel(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("bench_parallel: detected {cores} core(s)");
    let dops: [usize; 4] = [1, 2, 4, 8];
    println!("bench_parallel: measuring dops {dops:?}");

    for &dop in &dops {
        let db = build_scan_db(dop);

        c.bench_function(&format!("par_scan_filter_100k_dop{dop}"), |b| {
            let session = db.session();
            b.iter(|| {
                let r = session
                    .query("SELECT COUNT(*) FROM ITEMS WHERE val < 500", &[])
                    .unwrap();
                black_box(r.streams[0].rows[0][0].clone());
            })
        });

        c.bench_function(&format!("par_hash_join_100k_dop{dop}"), |b| {
            let session = db.session();
            b.iter(|| {
                let r = session
                    .query(
                        "SELECT COUNT(*) FROM ITEMS i, GROUPS g \
                         WHERE i.grp = g.gid AND g.flag = 1",
                        &[],
                    )
                    .unwrap();
                black_box(r.streams[0].rows[0][0].clone());
            })
        });

        c.bench_function(&format!("par_group_agg_100k_dop{dop}"), |b| {
            let session = db.session();
            b.iter(|| {
                let r = session
                    .query(
                        "SELECT grp, COUNT(*), MIN(val), MAX(val) FROM ITEMS GROUP BY grp",
                        &[],
                    )
                    .unwrap();
                black_box(r.streams[0].rows.len());
            })
        });
    }

    // CO extraction: the paper-workload composite-object fetch.
    for &dop in &dops {
        let db = build_paper_db_with(
            PaperScale {
                departments: 40,
                employees_per_dept: 25,
                projects_per_dept: 5,
                skills: 60,
                ..Default::default()
            },
            config(dop),
        );
        c.bench_function(&format!("par_co_extraction_dop{dop}"), |b| {
            b.iter(|| {
                let r = db.query(DEPS_ARC).unwrap();
                black_box(r.streams.len());
            })
        });
    }
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
