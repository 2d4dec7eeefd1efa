//! Random tables for property-based testing, and a seeded query
//! generator over two of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::Database;
use xnf_storage::{Tuple, Value};

/// Configuration for a random two/three-column integer table.
#[derive(Debug, Clone, Copy)]
pub struct RandomTableConfig {
    pub rows: usize,
    /// Key domain (values drawn uniformly from `0..domain`).
    pub domain: i64,
    /// Probability of a NULL in nullable columns.
    pub null_p: f64,
    pub seed: u64,
}

impl Default for RandomTableConfig {
    fn default() -> Self {
        RandomTableConfig {
            rows: 100,
            domain: 20,
            null_p: 0.1,
            seed: 1,
        }
    }
}

/// Create table `name(a INT, b INT, c VARCHAR)` in `db` filled with random
/// data; returns the rows inserted.
pub fn random_table(db: &Database, name: &str, cfg: RandomTableConfig) -> Vec<Vec<Value>> {
    db.session()
        .execute(
            &format!("CREATE TABLE {name} (a INT, b INT, c VARCHAR(16))"),
            &[],
        )
        .expect("create random table");
    let table = db.catalog().table(name).unwrap();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut rows = Vec::with_capacity(cfg.rows);
    for _ in 0..cfg.rows {
        let a = Value::Int(rng.gen_range(0..cfg.domain));
        let b = if rng.gen_bool(cfg.null_p) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..cfg.domain))
        };
        let c = Value::Str(format!("s{}", rng.gen_range(0..cfg.domain)));
        let row = vec![a, b, c];
        table.insert(&Tuple::new(row.clone())).unwrap();
        rows.push(row);
    }
    table.analyze().unwrap();
    rows
}

/// `W`: seven columns of every kind, NULLs in all but the key `k`; `V`:
/// a smaller table `W` joins to. Kinds: `i` INT, `d` DOUBLE, `s` VARCHAR.
const W: [(&str, char); 7] = [
    ("k", 'i'),
    ("a", 'i'),
    ("b", 'i'),
    ("d", 'd'),
    ("s", 's'),
    ("t", 's'),
    ("u", 'i'),
];
const V: [(&str, char); 4] = [("id", 'i'), ("a", 'i'), ("name", 's'), ("w", 'd')];

fn random_value(rng: &mut StdRng, kind: char, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        return Value::Null;
    }
    match kind {
        'i' => Value::Int(rng.gen_range(0..20i64)),
        'd' => Value::Double(rng.gen_range(0..40i64) as f64 / 4.0),
        _ => Value::Str(format!("v{:0>24}", rng.gen_range(0..12i64))),
    }
}

/// Create and fill `W` (`w_rows`) and `V` (`v_rows`), then ANALYZE: the
/// tables [`random_wide_query`] reads.
pub fn random_wide_tables(db: &Database, w_rows: i64, v_rows: i64, seed: u64) {
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE W (k INT, a INT, b INT, d DOUBLE, s VARCHAR(30), t VARCHAR(30), u INT);
         CREATE TABLE V (id INT, a INT, name VARCHAR(30), w DOUBLE);",
        )
        .expect("create wide tables");
    let mut rng = StdRng::seed_from_u64(seed);
    for (name, cols, rows) in [("W", &W[..], w_rows), ("V", &V[..], v_rows)] {
        let table = db.catalog().table(name).unwrap();
        for k in 0..rows {
            let values = cols[1..].iter().map(|c| random_value(&mut rng, c.1, 0.15));
            let row = std::iter::once(Value::Int(k)).chain(values).collect();
            table.insert(&Tuple::new(row)).unwrap();
        }
    }
    session.execute("ANALYZE", &[]).expect("analyze");
}

/// A comparison of `alias.col` with a constant of its kind: a literal, or
/// a `?` whose binding is pushed onto `params`.
fn random_pred(
    rng: &mut StdRng,
    alias: &str,
    col: (&str, char),
    params: &mut Vec<Value>,
) -> String {
    let name = col.0;
    let op = ["=", "<>", "<", "<=", ">", ">="][rng.gen_range(0..6usize)];
    if rng.gen_bool(0.3) {
        let negated = if rng.gen_bool(0.5) { "NOT " } else { "" };
        return format!("{alias}.{name} IS {negated}NULL");
    }
    let constant = match random_value(rng, col.1, 0.05) {
        v if rng.gen_bool(0.5) => {
            params.push(v);
            "?".to_string()
        }
        Value::Str(s) => format!("'{s}'"),
        Value::Double(d) => format!("{d:.2}"),
        v => v.to_string(),
    };
    match rng.gen_bool(0.5) {
        true => format!("{alias}.{name} {op} {constant}"),
        false => format!("{constant} {op} {alias}.{name}"),
    }
}

/// A seeded random query over `W x` (alone or joined to `V y`) and its
/// `?` bindings: up to two comparisons or NULL tests, then a projection,
/// a DISTINCT, or a grouping with exact aggregates. LIMIT comes only
/// under an ORDER BY that lists every output column, so the rows it keeps
/// are determined.
pub fn random_wide_query(rng: &mut StdRng) -> (String, Vec<Value>) {
    let (mut params, join) = (Vec::new(), rng.gen_bool(0.4));
    let mut cols: Vec<(&str, (&str, char))> = W.iter().map(|&c| ("x", c)).collect();
    if join {
        cols.extend(V.iter().map(|&c| ("y", c)));
    }
    let pick = |rng: &mut StdRng| cols[rng.gen_range(0..cols.len())];
    let mut preds: Vec<String> = (0..rng.gen_range(0..3))
        .map(|_| {
            let (alias, col) = pick(rng);
            random_pred(rng, alias, col, &mut params)
        })
        .collect();
    if join {
        // Join on a random int column pair (both `a`, or a key).
        let on = ["x.a = y.a", "x.b = y.id", "x.u = y.a"][rng.gen_range(0..3usize)];
        preds.insert(0, on.to_string());
    }
    let from = if join { "W x, V y" } else { "W x" };
    let filter = match preds.is_empty() {
        true => String::new(),
        false => format!(" WHERE {}", preds.join(" AND ")),
    };
    let (distinct, select) = match rng.gen_range(0..4) {
        0 => {
            let g = ["x.a", "x.b", "x.u"][rng.gen_range(0..3usize)];
            let sql = format!(
                "SELECT {g}, COUNT(*), SUM(x.k), MAX(x.s) FROM {from}{filter} GROUP BY {g}"
            );
            return (sql, params);
        }
        1 => ("DISTINCT ", vec!["x.s".to_string()]),
        _ => {
            let n = rng.gen_range(1..4usize);
            let cols = (0..n)
                .map(|_| pick(rng))
                .map(|(a, (c, _))| format!("{a}.{c}"));
            ("", cols.collect())
        }
    };
    let order = match rng.gen_bool(0.3) {
        true => {
            let rest: String = select[1..].iter().map(|c| format!(", {c}")).collect();
            format!(" ORDER BY {} DESC{rest} LIMIT 17", select[0])
        }
        false => String::new(),
    };
    let sql = format!(
        "SELECT {distinct}{} FROM {from}{filter}{order}",
        select.join(", ")
    );
    (sql, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_table_inserts_rows() {
        let db = Database::new();
        let rows = random_table(&db, "R", RandomTableConfig::default());
        assert_eq!(rows.len(), 100);
        let r = db.session().query("SELECT COUNT(*) FROM R", &[]).unwrap();
        assert_eq!(r.try_table().unwrap().rows[0][0], Value::Int(100));
    }
}
