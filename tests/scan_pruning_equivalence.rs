//! Scan column pruning equivalence: a scan that decodes only the columns
//! its plan reads (`cols=[…]` in EXPLAIN) must return exactly what the same
//! plan returns with every column decoded.
//!
//! Each query is compiled once and run twice: as compiled, and after this
//! test walks the plan and resets every scan's `cols` to `None`. The two
//! runs must produce identical streams (names, columns, rows, in order), at
//! dop 1 and dop 2. The corpus covers the paper statements the plan goldens
//! pin, the six `analytic` star templates, a matview scan, a correlated
//! subquery and 200 seeded random projections, filters and joins over a
//! 7-column table holding NULLs and strings.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xnf_core::{Database, DbConfig, Qep};
use xnf_fixtures::{build_paper_db_with, PaperScale};
use xnf_plan::{PhysPlan, PlanOptions};
use xnf_storage::{Tuple, Value};

const DOPS: [usize; 2] = [1, 2];

fn config(dop: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            dop,
            // Parallel scans on the small fixtures too.
            parallel_min_pages: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Reset every scan's column set; returns how many scans had one.
fn clear_cols(plan: &mut PhysPlan) -> usize {
    match plan {
        PhysPlan::SeqScan { cols, .. }
        | PhysPlan::ParallelSeqScan { cols, .. }
        | PhysPlan::MatViewScan { cols, .. } => usize::from(cols.take().is_some()),
        PhysPlan::Values { .. } | PhysPlan::IndexEq { .. } | PhysPlan::SharedScan { .. } => 0,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::HashDistinct { input }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::HashAggregate { input, .. }
        | PhysPlan::ParallelHashAggregate { input, .. }
        | PhysPlan::ExchangeGather { input, .. }
        | PhysPlan::ExchangeHashPartition { input, .. }
        | PhysPlan::IndexNlJoin { left: input, .. }
        | PhysPlan::IndexSemiJoin { inner: input, .. } => clear_cols(input),
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::NlJoin { left, right, .. }
        | PhysPlan::ParallelHashJoin {
            probe: left,
            build: right,
            ..
        }
        | PhysPlan::HashSemiJoin {
            outer: left,
            inner: right,
            ..
        }
        | PhysPlan::NlSemiJoin {
            outer: left,
            inner: right,
            ..
        }
        | PhysPlan::SubqueryFilter {
            input: left,
            subplan: right,
            ..
        } => clear_cols(left) + clear_cols(right),
        PhysPlan::UnionAll { inputs } => inputs.iter_mut().map(clear_cols).sum(),
    }
}

/// Run `text` as compiled and unpruned and require identical streams.
/// Returns how many scans the compiled plan pruned.
fn check(db: &Database, text: &str, params: &[Value]) -> usize {
    let pruned: Qep = db.compile(text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
    let mut full = pruned.clone();
    let mut scans = 0;
    for plan in full
        .shared
        .iter_mut()
        .chain(full.outputs.iter_mut().map(|o| &mut o.plan))
    {
        scans += clear_cols(plan);
    }
    let run = |qep: &Qep| {
        xnf_exec::execute_qep_with_params(db.catalog(), qep, Arc::new(params.to_vec()))
            .unwrap_or_else(|e| panic!("{text}: {e:?}\n{}", qep.explain()))
    };
    let (got, want) = (run(&pruned), run(&full));
    assert_eq!(got.streams.len(), want.streams.len(), "{text}");
    for (g, w) in got.streams.iter().zip(&want.streams) {
        assert_eq!(g.name, w.name, "{text}");
        assert_eq!(g.columns, w.columns, "{text}");
        assert_eq!(
            g.rows,
            w.rows,
            "stream '{}' of {text}\n{}",
            g.name,
            pruned.explain()
        );
    }
    // The same rows were read either way.
    assert_eq!(got.stats.rows_scanned, want.stats.rows_scanned, "{text}");
    scans
}

// ---------------------------------------------------------------------------
// the paper statements
// ---------------------------------------------------------------------------

/// The Fig. 1 composite object; `restriction` is appended verbatim.
fn paper_co(restriction: &str) -> String {
    format!(
        "OUT OF xdept AS (SELECT * FROM DEPT),
                xemp AS EMP,
                xproj AS PROJ,
                xskills AS SKILLS,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
                ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),
                empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                                WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),
                projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS ps
                                 WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)
         TAKE * {restriction}"
    )
}

fn paper_db(dop: usize) -> Database {
    build_paper_db_with(
        PaperScale {
            departments: 12,
            employees_per_dept: 6,
            projects_per_dept: 3,
            skills: 40,
            ..Default::default()
        },
        config(dop),
    )
}

#[test]
fn paper_statements_identical_with_and_without_pruning() {
    let three = [Value::Int(3)];
    let statements: Vec<(String, &[Value])> = vec![
        (paper_co("WHERE xdept.dno = ?"), &three),
        (paper_co("WHERE xdept.dno = 3"), &[]),
        (paper_co("WHERE xdept.loc = 'ARC'"), &[]),
        (paper_co(""), &[]),
        (
            "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.dno = 3".into(),
            &[],
        ),
        (
            "SELECT e.ename, s.essno FROM EMP e, EMPSKILLS s \
             WHERE e.eno = s.eseno AND e.edno = ?"
                .into(),
            &three,
        ),
        (
            "SELECT * FROM EMP e WHERE EXISTS \
             (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.dno = 3)"
                .into(),
            &[],
        ),
    ];
    for dop in DOPS {
        let db = paper_db(dop);
        for (text, params) in &statements {
            check(&db, text, params);
        }
    }
}

/// A matview scan and a correlated (tuple-at-a-time) subquery whose
/// subplan reads its scans' filter columns through outer references.
#[test]
fn matview_and_correlated_subquery_identical_with_and_without_pruning() {
    for dop in DOPS {
        let db = paper_db(dop);
        db.execute(
            "CREATE MATERIALIZED VIEW emp_dept AS \
             SELECT e.eno, e.ename, e.sal, d.dno, d.dname, d.loc FROM EMP e, DEPT d \
             WHERE e.edno = d.dno",
        )
        .unwrap();
        let mv = "SELECT ename, dname FROM emp_dept WHERE sal > 90";
        let plan = db.explain(mv).unwrap();
        // At dop 2 the matview scan runs as a parallel scan of the backing
        // table.
        let scan = match dop {
            1 => "matview scan(emp_dept) filter=[(#2 > 90)] cols=[1, 2, 4]",
            _ => "ParallelSeqScan(emp_dept) filter=[(#2 > 90)] cols=[1, 2, 4]",
        };
        assert!(plan.contains(scan), "{plan}");
        assert!(check(&db, mv, &[]) > 0);

        let correlated = "SELECT d.dname FROM DEPT d WHERE NOT EXISTS \
             (SELECT 1 FROM EMP e, PROJ p \
              WHERE e.edno = p.pdno AND p.pdno = d.dno AND e.sal > 100)";
        let plan = db.explain(correlated).unwrap();
        assert!(plan.contains("SubqueryFilter NOT"), "{plan}");
        assert!(check(&db, correlated, &[]) > 0, "{plan}");
    }
}

// ---------------------------------------------------------------------------
// the analytic star templates
// ---------------------------------------------------------------------------

/// The six `analytic` benchmark templates with one binding each.
fn star_templates() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        (
            "SELECT COUNT(*), SUM(amount) FROM SALES WHERE day >= ? AND day < ?",
            vec![Value::Int(100), Value::Int(140)],
        ),
        (
            "SELECT i.cat, COUNT(*), SUM(s.amount) FROM SALES s, ITEM i \
             WHERE s.item = i.item AND s.day >= ? GROUP BY i.cat",
            vec![Value::Int(200)],
        ),
        (
            "SELECT c.region, i.cat, SUM(s.amount) FROM SALES s, ITEM i, CUST c \
             WHERE s.item = i.item AND s.cust = c.cust AND s.day >= ? GROUP BY c.region, i.cat",
            vec![Value::Int(200)],
        ),
        (
            "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
             GROUP BY cust ORDER BY total DESC, cust LIMIT 10",
            vec![Value::Int(200)],
        ),
        (
            "SELECT sale, amount FROM SALES WHERE day = ? ORDER BY sale",
            vec![Value::Int(7)],
        ),
        (
            "OUT OF xc AS (SELECT * FROM CUST WHERE region = ?),
                    xs AS SALES,
                    xi AS ITEM,
                    buys AS (RELATE xc VIA BUYS, xs WHERE xc.cust = xs.cust),
                    sold AS (RELATE xs VIA SOLD, xi WHERE xs.item = xi.item)
             TAKE *",
            vec![Value::Int(3)],
        ),
    ]
}

fn star_db(dop: usize) -> Database {
    let db = Database::with_config(config(dop));
    db.execute_batch(
        "CREATE TABLE SALES (sale INT, day INT, item INT, cust INT, qty INT, amount INT, \
                             note VARCHAR(100));
         CREATE TABLE ITEM (item INT, cat INT, price INT);
         CREATE TABLE CUST (cust INT, region INT, cname VARCHAR(20));",
    )
    .unwrap();
    let cat = db.catalog();
    let (sales, item, cust) = (
        cat.table("SALES").unwrap(),
        cat.table("ITEM").unwrap(),
        cat.table("CUST").unwrap(),
    );
    for k in 0..3000i64 {
        sales
            .insert(&Tuple::new(vec![
                Value::Int(k),
                Value::Int(k * 7 % 365),
                Value::Int(k * 13 % 100),
                Value::Int(k * 17 % 200),
                Value::Int(1 + k % 9),
                Value::Int(1 + k * 31 % 499),
                Value::Str(format!("{k:0>100}")),
            ]))
            .unwrap();
    }
    for k in 0..100i64 {
        item.insert(&Tuple::new(vec![
            Value::Int(k),
            Value::Int(k % 40),
            Value::Int(1 + k % 97),
        ]))
        .unwrap();
    }
    for k in 0..200i64 {
        cust.insert(&Tuple::new(vec![
            Value::Int(k),
            Value::Int(k % 25),
            Value::Str(format!("cust-{k}")),
        ]))
        .unwrap();
    }
    db.execute_batch(
        "CREATE INDEX sales_day ON SALES (day);
         CREATE UNIQUE INDEX item_pk ON ITEM (item);
         CREATE UNIQUE INDEX cust_pk ON CUST (cust);
         ANALYZE;",
    )
    .unwrap();
    db
}

#[test]
fn star_templates_identical_with_and_without_pruning() {
    for dop in DOPS {
        let db = star_db(dop);
        let mut pruned = 0;
        for (text, params) in star_templates() {
            pruned += check(&db, text, &params);
        }
        // The scan, join, 3-way join and top-N templates all prune SALES.
        assert!(pruned >= 4, "dop {dop}: {pruned} pruned scans");
    }
}

// ---------------------------------------------------------------------------
// seeded random projections, filters and joins
// ---------------------------------------------------------------------------

/// `W`: 7 columns of every kind, NULLs in all but the key.
const W_COLS: [(&str, Kind); 7] = [
    ("k", Kind::Int),
    ("a", Kind::Int),
    ("b", Kind::Int),
    ("d", Kind::Double),
    ("s", Kind::Str),
    ("t", Kind::Str),
    ("u", Kind::Int),
];
/// `V`: a smaller table `W` joins to.
const V_COLS: [(&str, Kind); 4] = [
    ("id", Kind::Int),
    ("a", Kind::Int),
    ("name", Kind::Str),
    ("w", Kind::Double),
];

#[derive(Clone, Copy)]
enum Kind {
    Int,
    Double,
    Str,
}

fn random_value(rng: &mut StdRng, kind: Kind, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        return Value::Null;
    }
    match kind {
        Kind::Int => Value::Int(rng.gen_range(0..20i64)),
        Kind::Double => Value::Double(rng.gen_range(0..40i64) as f64 / 4.0),
        Kind::Str => Value::Str(format!("v{:0>24}", rng.gen_range(0..12i64))),
    }
}

fn random_db(dop: usize) -> Database {
    let db = Database::with_config(config(dop));
    db.execute_batch(
        "CREATE TABLE W (k INT, a INT, b INT, d DOUBLE, s VARCHAR(30), t VARCHAR(30), u INT);
         CREATE TABLE V (id INT, a INT, name VARCHAR(30), w DOUBLE);",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    for (name, cols, rows) in [("W", &W_COLS[..], 600), ("V", &V_COLS[..], 150)] {
        let table = db.catalog().table(name).unwrap();
        for k in 0..rows {
            let row = cols
                .iter()
                .enumerate()
                .map(|(i, &(_, kind))| match i {
                    0 => Value::Int(k),
                    _ => random_value(&mut rng, kind, 0.15),
                })
                .collect();
            table.insert(&Tuple::new(row)).unwrap();
        }
    }
    db.execute("ANALYZE").unwrap();
    db
}

/// A comparison of `alias.col` against a constant of its kind: a literal,
/// or a `?` parameter pushed onto `params`.
fn random_pred(
    rng: &mut StdRng,
    alias: &str,
    (name, kind): (&str, Kind),
    params: &mut Vec<Value>,
) -> String {
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    let op = OPS[rng.gen_range(0..OPS.len())];
    if rng.gen_bool(0.3) {
        let negated = if rng.gen_bool(0.5) { "NOT " } else { "" };
        return format!("{alias}.{name} IS {negated}NULL");
    }
    let value = random_value(rng, kind, 0.05);
    let constant = if rng.gen_bool(0.5) {
        params.push(value);
        "?".to_string()
    } else {
        match value {
            Value::Null => "NULL".to_string(),
            Value::Str(s) => format!("'{s}'"),
            Value::Double(d) => format!("{d:.2}"),
            v => v.to_string(),
        }
    };
    if rng.gen_bool(0.5) {
        format!("{alias}.{name} {op} {constant}")
    } else {
        format!("{constant} {op} {alias}.{name}")
    }
}

/// One random query over `W` (alone or joined to `V`), and its bindings.
fn random_query(rng: &mut StdRng) -> (String, Vec<Value>) {
    let mut params = Vec::new();
    let join = rng.gen_bool(0.4);
    let mut cols: Vec<(&str, (&str, Kind))> = W_COLS.iter().map(|&c| ("x", c)).collect();
    if join {
        cols.extend(V_COLS.iter().map(|&c| ("y", c)));
    }
    let pick = |rng: &mut StdRng| cols[rng.gen_range(0..cols.len())];

    let mut preds: Vec<String> = (0..rng.gen_range(0..3))
        .map(|_| {
            let (alias, col) = pick(rng);
            random_pred(rng, alias, col, &mut params)
        })
        .collect();
    let from = if join {
        // Join on a random int column pair (both `a`, or a key).
        let on = ["x.a = y.a", "x.b = y.id", "x.u = y.a"][rng.gen_range(0..3usize)];
        preds.insert(0, on.to_string());
        "W x, V y"
    } else {
        "W x"
    };
    let select = match rng.gen_range(0..4) {
        // Grouped: an int column and exact aggregates over int columns.
        0 => {
            let group = ["x.a", "x.b", "x.u"][rng.gen_range(0..3usize)];
            return (
                format!(
                    "SELECT {group}, COUNT(*), SUM(x.k), MAX(x.s) FROM {from}{} GROUP BY {group}",
                    where_clause(&preds)
                ),
                params,
            );
        }
        1 => vec!["DISTINCT x.s".to_string()],
        _ => (0..rng.gen_range(1..4usize))
            .map(|_| {
                let (alias, (name, _)) = pick(rng);
                format!("{alias}.{name}")
            })
            .collect(),
    };
    let order = match rng.gen_bool(0.3) {
        true => format!(
            " ORDER BY {} DESC LIMIT 17",
            select[0].trim_start_matches("DISTINCT ")
        ),
        false => String::new(),
    };
    (
        format!(
            "SELECT {} FROM {from}{}{order}",
            select.join(", "),
            where_clause(&preds)
        ),
        params,
    )
}

fn where_clause(preds: &[String]) -> String {
    if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    }
}

#[test]
fn random_queries_identical_with_and_without_pruning() {
    for dop in DOPS {
        let db = random_db(dop);
        let mut rng = StdRng::seed_from_u64(7);
        let mut pruned_queries = 0;
        for _ in 0..200 {
            let (text, params) = random_query(&mut rng);
            if check(&db, &text, &params) > 0 {
                pruned_queries += 1;
            }
        }
        assert!(
            pruned_queries >= 100,
            "dop {dop}: only {pruned_queries} of 200 random queries pruned a scan"
        );
    }
}
