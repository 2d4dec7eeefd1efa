//! A Cattell OO1-style parts database (the "Cattell benchmark" the paper
//! cites for its cache-traversal measurement, Sect. 5.2).
//!
//! OO1's structure: `N` parts; each part connects to exactly three other
//! parts, with 90% of connections landing within the closest 1% of part
//! ids (reference locality). The benchmark's *traversal* operation starts
//! from a random part and follows connections to depth 7, touching 3^7
//! (with revisits) parts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::{Database, DbConfig};
use xnf_storage::{Tuple, Value};

/// OO1 generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct Oo1Config {
    pub parts: usize,
    /// Outgoing connections per part (3 in OO1).
    pub fanout: usize,
    /// Fraction of connections within the locality window (0.9 in OO1).
    pub locality: f64,
    /// Locality window as a fraction of the id space (0.01 in OO1).
    pub window: f64,
    pub seed: u64,
}

impl Default for Oo1Config {
    fn default() -> Self {
        Oo1Config {
            parts: 20_000,
            fanout: 3,
            locality: 0.9,
            window: 0.01,
            seed: 7,
        }
    }
}

/// The XNF CO over the OO1 schema: all parts plus the connection
/// relationship (a recursive CO — parts connect to parts; with every part a
/// root, the full graph materialises).
pub const OO1_CO: &str = "\
OUT OF ROOT part AS (SELECT * FROM OO1PARTS),
       conn AS (RELATE part VIA connects, part USING OO1CONN c
                WHERE part.id = c.src AND c.dst = connects.id)
TAKE *";

/// Build the OO1 database: OO1PARTS(id, ptype, x, y) and
/// OO1CONN(src, dst, ctype, length).
pub fn build_oo1_db(cfg: Oo1Config) -> Database {
    build_oo1_db_with(cfg, DbConfig::default())
}

/// [`build_oo1_db`] under a custom [`DbConfig`]; deterministic for a fixed
/// seed.
pub fn build_oo1_db_with(cfg: Oo1Config, config: DbConfig) -> Database {
    let db = Database::with_config(config);
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE OO1PARTS (id INT NOT NULL, ptype VARCHAR(10), x INT, y INT);
         CREATE TABLE OO1CONN (src INT, dst INT, ctype VARCHAR(10), length INT);",
    )
    .expect("schema");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let parts = db.catalog().table("OO1PARTS").unwrap();
    let conns = db.catalog().table("OO1CONN").unwrap();
    let n = cfg.parts as i64;
    for id in 0..n {
        parts
            .insert(&Tuple::new(vec![
                Value::Int(id),
                Value::Str(format!("type{}", id % 10)),
                Value::Int(rng.gen_range(0..100_000)),
                Value::Int(rng.gen_range(0..100_000)),
            ]))
            .unwrap();
    }
    let window = ((cfg.parts as f64 * cfg.window).ceil() as i64).max(2);
    for src in 0..n {
        // OO1 connects each part to `fanout` *distinct* other parts.
        let mut used: Vec<i64> = Vec::with_capacity(cfg.fanout);
        for _ in 0..cfg.fanout {
            let dst = loop {
                let candidate = if rng.gen_bool(cfg.locality) {
                    // Close-by part (wrapping).
                    let delta = rng.gen_range(1..=window);
                    let sign = if rng.gen_bool(0.5) { 1 } else { -1 };
                    (src + sign * delta).rem_euclid(n)
                } else {
                    rng.gen_range(0..n)
                };
                if candidate != src && !used.contains(&candidate) {
                    break candidate;
                }
            };
            used.push(dst);
            conns
                .insert(&Tuple::new(vec![
                    Value::Int(src),
                    Value::Int(dst),
                    Value::Str(format!("c{}", rng.gen_range(0..10))),
                    Value::Int(rng.gen_range(1..100)),
                ]))
                .unwrap();
        }
    }
    s.execute_batch(
        "CREATE UNIQUE INDEX oo1_pk ON OO1PARTS (id);
         CREATE INDEX oo1_src ON OO1CONN (src);
         ANALYZE;",
    )
    .expect("indexes");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_exact_fanout() {
        let db = build_oo1_db(Oo1Config {
            parts: 200,
            ..Default::default()
        });
        let s = db.session();
        let r = s.query("SELECT COUNT(*) FROM OO1CONN", &[]).unwrap();
        assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(600));
        let r = s
            .query(
                "SELECT src, COUNT(*) AS n FROM OO1CONN GROUP BY src HAVING COUNT(*) <> 3",
                &[],
            )
            .unwrap();
        assert!(
            r.try_table().unwrap().rows.is_empty(),
            "every part has fanout 3"
        );
    }

    #[test]
    fn oo1_co_loads_into_cache() {
        let db = build_oo1_db(Oo1Config {
            parts: 150,
            ..Default::default()
        });
        let co = db.session().fetch_co(OO1_CO).unwrap();
        assert_eq!(co.workspace.component("part").unwrap().len(), 150);
        assert_eq!(
            co.workspace
                .relationship("conn")
                .unwrap()
                .connection_count(),
            450
        );
        // Depth-1 navigation from part 0 yields its 3 connections
        // (possibly fewer distinct parts).
        let c0 = co.workspace.children("conn", 0).unwrap().count();
        assert!((1..=3).contains(&c0));
    }
}
