//! E8 — ablation: pointer swizzling in the cache.
//!
//! Sect. 5.1 builds the workspace "by converting connections into pointers";
//! Sect. 5.3 credits OODB pointer swizzling for main-memory navigation
//! speed. This ablation compares navigation through swizzled adjacency
//! against scanning the unswizzled connection table per step.

use std::time::{Duration, Instant};

use xnf_core::Workspace;
use xnf_fixtures::{build_oo1_db, Oo1Config, OO1_CO};

#[derive(Debug, Clone)]
pub struct SwizzlePoint {
    pub parts: usize,
    pub lookups: usize,
    pub swizzled: Duration,
    pub unswizzled: Duration,
    pub speedup: f64,
}

pub fn run_swizzle(parts: usize, lookups: usize) -> SwizzlePoint {
    let db = build_oo1_db(Oo1Config {
        parts,
        ..Default::default()
    });
    let co = db.session().fetch_co(OO1_CO).unwrap();
    let ws: &Workspace = &co.workspace;
    let n = ws.component("part").unwrap().len() as u32;

    // Swizzled: follow adjacency pointers.
    let t0 = Instant::now();
    let mut sum = 0u64;
    for i in 0..lookups {
        let id = (i as u32 * 2654435761) % n;
        for c in ws.children("conn", id).unwrap() {
            sum += c.id() as u64;
        }
    }
    let swizzled = t0.elapsed();

    // Unswizzled: scan the connection table per navigation.
    let t0 = Instant::now();
    let mut sum2 = 0u64;
    for i in 0..lookups {
        let id = (i as u32 * 2654435761) % n;
        for c in ws.children_unswizzled("conn", id).unwrap() {
            sum2 += c as u64;
        }
    }
    let unswizzled = t0.elapsed();
    assert_eq!(sum, sum2, "both navigation modes must agree");

    SwizzlePoint {
        parts,
        lookups,
        swizzled,
        unswizzled,
        speedup: super::speedup(unswizzled, swizzled),
    }
}

pub fn render_swizzle(p: &SwizzlePoint) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Swizzling ablation — {} parent→children navigations over {} parts:",
        p.lookups, p.parts
    );
    let _ = writeln!(
        s,
        "  swizzled pointers:   {:>9.3} ms",
        super::ms(p.swizzled)
    );
    let _ = writeln!(
        s,
        "  unswizzled scan:     {:>9.3} ms",
        super::ms(p.unswizzled)
    );
    let _ = writeln!(s, "  swizzling speedup:   {:>8.0}x", p.speedup);
    s
}
