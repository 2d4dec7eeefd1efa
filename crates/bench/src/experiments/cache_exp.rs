//! E5 — Sect. 5.2: XNF cache traversal rate (the Cattell OO1 measurement).
//!
//! "Using the traversal operation from that benchmark, we could access in a
//! pre-loaded XNF cache more than 100,000 tuples per second which matches
//! the requirements for CAD applications." We rebuild the OO1 traversal:
//! from a random part, follow connections to depth 7 via dependent cursors,
//! counting every tuple touched. The same traversal through per-tuple
//! server queries gives the contrast the paper draws with RDBMS navigation.

use std::time::{Duration, Instant};

use xnf_core::{CoCache, Database, Workspace};
use xnf_fixtures::{build_oo1_db, Oo1Config, OO1_CO};

/// OO1 traversal via swizzled cache pointers. Returns tuples touched.
pub fn traverse_cache(ws: &Workspace, start: u32, depth: u32) -> u64 {
    fn rec(ws: &Workspace, id: u32, depth: u32, touched: &mut u64) {
        *touched += 1;
        if depth == 0 {
            return;
        }
        for child in ws.children("conn", id).unwrap() {
            rec(ws, child.id(), depth - 1, touched);
        }
    }
    let mut touched = 0;
    rec(ws, start, depth, &mut touched);
    touched
}

/// The same traversal by querying the server per node (index lookups).
pub fn traverse_server(db: &Database, start: i64, depth: u32) -> u64 {
    fn rec(db: &Database, id: i64, depth: u32, touched: &mut u64) {
        *touched += 1;
        if depth == 0 {
            return;
        }
        let q =
            format!("SELECT p.id FROM OO1PARTS p, OO1CONN c WHERE c.src = {id} AND c.dst = p.id");
        let children = db.session().query(&q, &[]).unwrap();
        for row in &children.try_table().unwrap().rows {
            rec(db, row[0].as_int().unwrap(), depth - 1, touched);
        }
    }
    let mut touched = 0;
    rec(db, start, depth, &mut touched);
    touched
}

#[derive(Debug, Clone)]
pub struct CachePoint {
    pub parts: usize,
    pub traversals: usize,
    pub depth: u32,
    pub cache_tuples: u64,
    pub cache_time: Duration,
    pub cache_tuples_per_sec: f64,
    pub server_tuples: u64,
    pub server_time: Duration,
    pub server_tuples_per_sec: f64,
}

pub fn run_cache(parts: usize, traversals: usize, depth: u32) -> CachePoint {
    let db = build_oo1_db(Oo1Config {
        parts,
        ..Default::default()
    });
    let co: CoCache = db.session().fetch_co(OO1_CO).unwrap();
    let ws = &co.workspace;
    let n = ws.component("part").unwrap().len() as u32;

    // Pre-loaded cache traversal.
    let t0 = Instant::now();
    let mut cache_tuples = 0;
    for i in 0..traversals {
        let start = (i as u32 * 7919) % n;
        cache_tuples += traverse_cache(ws, start, depth);
    }
    let cache_time = t0.elapsed();

    // Server-side navigation (fewer traversals; it is much slower).
    let server_traversals = traversals.clamp(1, 3);
    let t0 = Instant::now();
    let mut server_tuples = 0;
    for i in 0..server_traversals {
        let start = ((i as u32 * 7919) % n) as i64;
        server_tuples += traverse_server(&db, start, depth);
    }
    let server_time = t0.elapsed();

    CachePoint {
        parts,
        traversals,
        depth,
        cache_tuples,
        cache_time,
        cache_tuples_per_sec: cache_tuples as f64 / cache_time.as_secs_f64().max(1e-12),
        server_tuples,
        server_time,
        server_tuples_per_sec: server_tuples as f64 / server_time.as_secs_f64().max(1e-12),
    }
}

pub fn render_cache(p: &CachePoint) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Sect. 5.2 — OO1-style traversal (depth {}, {} parts)",
        p.depth, p.parts
    );
    let _ = writeln!(
        s,
        "  XNF cache:  {:>10} tuples in {:>9.2} ms = {:>12.0} tuples/s",
        p.cache_tuples,
        super::ms(p.cache_time),
        p.cache_tuples_per_sec
    );
    let _ = writeln!(
        s,
        "  server nav: {:>10} tuples in {:>9.2} ms = {:>12.0} tuples/s",
        p.server_tuples,
        super::ms(p.server_time),
        p.server_tuples_per_sec
    );
    let _ = writeln!(
        s,
        "  paper: >100,000 tuples/s in the pre-loaded cache (1993 hardware) — measured {}",
        if p.cache_tuples_per_sec > 100_000.0 {
            "PASS (far exceeded)"
        } else {
            "FAIL"
        }
    );
    s
}
