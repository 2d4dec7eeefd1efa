//! CAD-style navigation (Sect. 5.2): load an OO1-style parts database into
//! the XNF cache and run the Cattell traversal at memory speed, comparing
//! against per-tuple server navigation.
//!
//! Run with: `cargo run --release --example design_navigation`

use std::time::Instant;

use composite_views::Database;
use xnf_fixtures::{build_oo1_db, Oo1Config, OO1_CO};

fn main() {
    let cfg = Oo1Config {
        parts: 10_000,
        ..Default::default()
    };
    println!(
        "building OO1 database: {} parts x {} connections each ...",
        cfg.parts, cfg.fanout
    );
    let db: Database = build_oo1_db(cfg);

    let t0 = Instant::now();
    let co = db.session().fetch_co(OO1_CO).expect("extract CO");
    println!(
        "extracted + swizzled in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let ws = &co.workspace;
    let n = ws.component("part").unwrap().len() as u32;

    // Depth-7 traversals from rotating start parts.
    let traversals = 50;
    let t0 = Instant::now();
    let mut touched = 0u64;
    for i in 0..traversals {
        let start = (i * 7919) % n;
        touched += traverse(ws, start, 7);
    }
    let dt = t0.elapsed();
    println!(
        "{} traversals, {} tuples touched in {:.2} ms = {:.0} tuples/s",
        traversals,
        touched,
        dt.as_secs_f64() * 1e3,
        touched as f64 / dt.as_secs_f64()
    );
    println!("paper target (1993): >100,000 tuples/s in the pre-loaded cache");
}

fn traverse(ws: &composite_views::Workspace, id: u32, depth: u32) -> u64 {
    let mut touched = 1;
    if depth == 0 {
        return touched;
    }
    for child in ws.children("conn", id).unwrap() {
        touched += traverse(ws, child.id(), depth - 1);
    }
    touched
}
