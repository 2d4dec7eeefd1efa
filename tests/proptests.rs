//! Randomized tests over the core invariants (seeded, deterministic — the
//! offline stand-in for the original proptest suite):
//!
//! - the E-to-F rewrite never changes query results (Fig. 3 equivalence);
//! - XNF reachability equals independent graph reachability;
//! - the CO cache's swizzled adjacency equals the connection table;
//! - cache persistence round-trips;
//! - tuple codec round-trips arbitrary values (storage layer).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use composite_views::{Database, DbConfig, PlanOptions, RewriteOptions, Workspace};
use xnf_storage::{Tuple, Value};

const CASES: u64 = 48;

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..5) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(i64::MIN..i64::MAX)),
        2 => Value::Double(rng.gen_range(-1e12f64..1e12)),
        3 => {
            let n = rng.gen_range(0usize..24);
            Value::Str((0..n).map(|_| rng.gen_range(b'a'..=b'z') as char).collect())
        }
        _ => Value::Bool(rng.gen_range(0u32..2) == 1),
    }
}

#[test]
fn tuple_codec_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..64 {
        let n = rng.gen_range(0usize..12);
        let t = Tuple::new((0..n).map(|_| random_value(&mut rng)).collect());
        let enc = t.encode();
        let back = Tuple::decode(&enc).unwrap();
        assert_eq!(t, back);
    }
}

/// A small random parent/child/mapping database description.
#[derive(Debug, Clone)]
struct GraphDb {
    parents: Vec<(i64, bool)>, // (key, selected)
    children: Vec<(i64, i64)>, // (key, fk → parent key)
    mappings: Vec<(i64, i64)>, // (child key, leaf key)
    leaves: Vec<i64>,
}

fn random_graph_db(rng: &mut StdRng) -> GraphDb {
    let mut parents: Vec<(i64, bool)> = (0..rng.gen_range(1usize..10))
        .map(|_| (rng.gen_range(0i64..20), rng.gen_range(0u32..2) == 1))
        .collect();
    parents.sort();
    parents.dedup_by_key(|p| p.0);
    let children: Vec<(i64, i64)> = (0..rng.gen_range(0usize..40))
        .map(|_| (rng.gen_range(0i64..40), rng.gen_range(0i64..20)))
        .collect();
    let mappings: Vec<(i64, i64)> = (0..rng.gen_range(0usize..50))
        .map(|_| (rng.gen_range(0i64..40), rng.gen_range(0i64..15)))
        .collect();
    let mut leaves: Vec<i64> = (0..rng.gen_range(0usize..15))
        .map(|_| rng.gen_range(0i64..15))
        .collect();
    leaves.sort();
    leaves.dedup();
    GraphDb {
        parents,
        children,
        mappings,
        leaves,
    }
}

fn build(db: &GraphDb) -> Database {
    let d = Database::new();
    d.execute_batch(
        "CREATE TABLE P (pk INT, sel INT);
         CREATE TABLE C (ck INT, fk INT);
         CREATE TABLE M (mc INT, ml INT);
         CREATE TABLE L (lk INT)",
    )
    .unwrap();
    let p = d.catalog().table("P").unwrap();
    for (k, s) in &db.parents {
        p.insert(&Tuple::new(vec![Value::Int(*k), Value::Int(i64::from(*s))]))
            .unwrap();
    }
    let c = d.catalog().table("C").unwrap();
    for (ck, fk) in &db.children {
        c.insert(&Tuple::new(vec![Value::Int(*ck), Value::Int(*fk)]))
            .unwrap();
    }
    let m = d.catalog().table("M").unwrap();
    for (mc, ml) in &db.mappings {
        m.insert(&Tuple::new(vec![Value::Int(*mc), Value::Int(*ml)]))
            .unwrap();
    }
    let l = d.catalog().table("L").unwrap();
    for lk in &db.leaves {
        l.insert(&Tuple::new(vec![Value::Int(*lk)])).unwrap();
    }
    d
}

const GRAPH_CO: &str = "\
OUT OF xp AS (SELECT * FROM P WHERE sel = 1),
       xc AS C,
       xl AS L,
       pc AS (RELATE xp VIA owns, xc WHERE xp.pk = xc.fk),
       cl AS (RELATE xc VIA maps, xl USING M m
              WHERE xc.ck = m.mc AND m.ml = xl.lk)
TAKE *";

/// Reference reachability computed straight from the description.
fn reference_reachable(db: &GraphDb) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
    let roots: Vec<i64> = db
        .parents
        .iter()
        .filter(|(_, s)| *s)
        .map(|(k, _)| *k)
        .collect();
    // Children reachable: fk in roots. NOTE: duplicates in C are distinct
    // tuples; the cache keeps them distinct too, so compare multisets.
    let mut xc: Vec<i64> = db
        .children
        .iter()
        .filter(|(_, fk)| roots.contains(fk))
        .map(|(ck, _)| *ck)
        .collect();
    xc.sort();
    // Leaves reachable: lk in M.ml for reachable children's keys.
    let ck_set: Vec<i64> = xc.clone();
    let mut xl: Vec<i64> = db
        .leaves
        .iter()
        .copied()
        .filter(|lk| {
            db.mappings
                .iter()
                .any(|(mc, ml)| ml == lk && ck_set.contains(mc))
        })
        .collect();
    xl.sort();
    xl.dedup();
    let mut roots_sorted = roots;
    roots_sorted.sort();
    (roots_sorted, xc, xl)
}

/// XNF reachability — the core semantic invariant of the paper — equals
/// an independent graph-closure computation.
#[test]
fn reachability_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xAB1E);
    for case in 0..CASES {
        let desc = random_graph_db(&mut rng);
        let db = build(&desc);
        let result = db.query(GRAPH_CO).unwrap();
        let ws = Workspace::from_result(&result).unwrap();

        let (ref_roots, ref_children, ref_leaves) = reference_reachable(&desc);

        let mut got_roots: Vec<i64> = ws
            .independent("xp")
            .unwrap()
            .map(|t| t.get("pk").unwrap().as_int().unwrap())
            .collect();
        got_roots.sort();
        assert_eq!(got_roots, ref_roots, "case {case}");

        let mut got_children: Vec<i64> = ws
            .independent("xc")
            .unwrap()
            .map(|t| t.get("ck").unwrap().as_int().unwrap())
            .collect();
        got_children.sort();
        assert_eq!(got_children, ref_children, "case {case}");

        let mut got_leaves: Vec<i64> = ws
            .independent("xl")
            .unwrap()
            .map(|t| t.get("lk").unwrap().as_int().unwrap())
            .collect();
        got_leaves.sort();
        assert_eq!(got_leaves, ref_leaves, "case {case}");
    }
}

/// The naive (unrewritten) and rewritten pipelines agree on EXISTS /
/// NOT EXISTS / IN queries over random data.
#[test]
fn rewrite_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0xE2F);
    for _ in 0..CASES {
        let desc = random_graph_db(&mut rng);
        let fast = build(&desc);
        let naive = Database::with_config(DbConfig {
            rewrite: RewriteOptions { e_to_f: false },
            plan: PlanOptions::default(),
            ..Default::default()
        });
        // Same content.
        naive
            .execute_batch(
                "CREATE TABLE P (pk INT, sel INT);
                 CREATE TABLE C (ck INT, fk INT);
                 CREATE TABLE M (mc INT, ml INT);
                 CREATE TABLE L (lk INT)",
            )
            .unwrap();
        for t in ["P", "C", "M", "L"] {
            let src = fast.catalog().table(t).unwrap();
            let dst = naive.catalog().table(t).unwrap();
            src.for_each(|_, tuple| {
                dst.insert(&tuple).unwrap();
                Ok(true)
            })
            .unwrap();
        }
        for sql in [
            "SELECT c.ck FROM C c WHERE EXISTS (SELECT 1 FROM P p WHERE p.sel = 1 AND p.pk = c.fk)",
            "SELECT c.ck FROM C c WHERE NOT EXISTS (SELECT 1 FROM P p WHERE p.pk = c.fk)",
            "SELECT l.lk FROM L l WHERE l.lk IN (SELECT m.ml FROM M m)",
        ] {
            let mut a: Vec<i64> = fast
                .query(sql)
                .unwrap()
                .try_table()
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect();
            let mut b: Vec<i64> = naive
                .query(sql)
                .unwrap()
                .try_table()
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "query: {sql}");
        }
    }
}

/// Swizzled adjacency always equals the raw connection table, and
/// persistence round-trips the workspace.
#[test]
fn cache_pointers_match_connections() {
    let mut rng = StdRng::seed_from_u64(0x5172);
    for _ in 0..CASES {
        let desc = random_graph_db(&mut rng);
        let db = build(&desc);
        let result = db.query(GRAPH_CO).unwrap();
        let ws = Workspace::from_result(&result).unwrap();
        for rel in ["pc", "cl"] {
            let r = ws.relationship(rel).unwrap();
            let parent_n = ws.components[r.parent].len();
            for pid in 0..parent_n as u32 {
                let mut swizzled: Vec<u32> =
                    ws.children(rel, pid).unwrap().map(|t| t.id()).collect();
                swizzled.sort();
                let mut raw = ws.children_unswizzled(rel, pid).unwrap();
                raw.sort();
                assert_eq!(swizzled, raw);
            }
        }
        // Persistence round-trip.
        let mut buf = Vec::new();
        composite_views::save_workspace(&ws, &mut buf).unwrap();
        let back = composite_views::load_workspace(&mut &buf[..]).unwrap();
        assert_eq!(back.tuple_count(), ws.tuple_count());
        assert_eq!(back.connection_count(), ws.connection_count());
    }
}

/// Aggregates computed by the engine match a straight re-computation.
#[test]
fn aggregates_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xA99);
    for _ in 0..CASES {
        let desc = random_graph_db(&mut rng);
        let db = build(&desc);
        let r = db
            .query("SELECT fk, COUNT(*) AS n FROM C GROUP BY fk ORDER BY fk")
            .unwrap();
        let mut expect: std::collections::BTreeMap<i64, i64> = Default::default();
        for (_, fk) in &desc.children {
            *expect.entry(*fk).or_default() += 1;
        }
        let got: Vec<(i64, i64)> = r
            .try_table()
            .unwrap()
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = expect.into_iter().collect();
        assert_eq!(got, want);
    }
}
