//! E9 — recursive composite objects (Sect. 2): the bill-of-materials
//! closure, compiled through the same pipeline as every CO, scaling in the
//! size of the part graph.

use std::time::{Duration, Instant};

use xnf_fixtures::{bom_co, build_bom};

#[derive(Debug, Clone)]
pub struct RecursionPoint {
    pub layers: usize,
    pub width: usize,
    pub reached_parts: usize,
    pub edges: usize,
    /// Rows the executor's scans read for the closure.
    pub rows_scanned: u64,
    pub time: Duration,
}

pub fn run_recursion(points: &[(usize, usize)]) -> Vec<RecursionPoint> {
    let mut out = Vec::new();
    for &(layers, width) in points {
        let db = build_bom(layers, width);
        let t0 = Instant::now();
        let r = db.session().query(&bom_co("pid = 0"), &[]).unwrap();
        let time = t0.elapsed();
        out.push(RecursionPoint {
            layers,
            width,
            reached_parts: r.stream("part").unwrap().rows.len(),
            edges: r.stream("sub_uses").unwrap().rows.len(),
            rows_scanned: r.stats.rows_scanned,
            time,
        });
    }
    out
}

pub fn render_recursion(points: &[RecursionPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Recursive CO — BOM closure: candidate streams + one reachability pass"
    );
    let _ = writeln!(
        s,
        "{:>8} {:>7} {:>10} {:>8} {:>10} {:>10}",
        "layers", "width", "reached", "edges", "scanned", "ms"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>8} {:>7} {:>10} {:>8} {:>10} {:>10.2}",
            p.layers,
            p.width,
            p.reached_parts,
            p.edges,
            p.rows_scanned,
            super::ms(p.time)
        );
    }
    s
}
