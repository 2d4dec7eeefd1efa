//! The oracle corpus and its runner, shared by `oracle.rs` and the
//! per-axis suites (`batch_equivalence`, `parallel_equivalence`,
//! `scan_pruning_equivalence`, `index_join_equivalence`). Each corpus
//! statement is answered by the reference evaluator of `reference.rs` (its
//! meaning, computed from the AST over visible rows) and by the engine in
//! each requested cell of dop × batch size × `use_indexes` ×
//! `share_common_subexpressions` × scan pruning (`cols` kept or cleared).
//! The default cell runs through `Session::prepare` / `bind` / `query` and
//! must equal the reference (rows as multisets, runs of equal ORDER BY
//! keys in order, connections as multisets of partner rows); every cell
//! must be byte-identical to it and scan as many rows with its scans'
//! `cols` cleared as kept. All aggregates are exact, so cells agree to the
//! bit.

// Each test binary runs a part of the corpus.
#![allow(dead_code)]

#[path = "reference.rs"]
pub mod reference;

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reference::{Reference, Stream};
use xnf_core::{Database, DbConfig, PlanOptions, QueryResult, Value};
use xnf_fixtures::{bom_co, build_bom_with, build_oo1_db_with, build_paper_db_with};
use xnf_fixtures::{build_star_db_with, random_table, random_wide_query, random_wide_tables};
use xnf_fixtures::{Oo1Config, PaperScale, RandomTableConfig, DEPS_ARC, OO1_CO};
use xnf_plan::{plan_query, PhysPlan, Qep};
use xnf_qgm::OutputKind;

/// A point of the plan-shape space: dop, batch size, `use_indexes`,
/// `share_common_subexpressions`, and scan pruning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell(usize, usize, bool, bool, bool);

const DEFAULT: Cell = Cell(1, 1024, true, true, true);

impl Cell {
    /// The `i`-th of the 72 cells.
    fn nth(i: usize) -> Cell {
        let (dop, batch) = ([1, 2, 4][i / 24], [1, 7, 1024][i / 8 % 3]);
        Cell(dop, batch, i & 4 == 0, i & 2 == 0, i & 1 == 0)
    }

    fn options(self) -> PlanOptions {
        PlanOptions {
            dop: self.0,
            batch_size: self.1,
            use_indexes: self.2,
            share_common_subexpressions: self.3,
            // Parallel plans on the small fixtures too.
            parallel_min_pages: 1,
        }
    }

    /// The axes on which this cell differs from the default.
    pub fn flips(self) -> Vec<&'static str> {
        let (c, d) = (self, DEFAULT);
        let diff = [c.0 != d.0, c.1 != d.1, c.2 != d.2, c.3 != d.3, c.4 != d.4];
        let axes = ["dop", "batch", "use_indexes", "cse", "pruning"].into_iter();
        axes.zip(diff).filter_map(|(a, d)| d.then_some(a)).collect()
    }
}

/// All 72 cells.
pub fn all_cells() -> impl Iterator<Item = Cell> {
    (0..72).map(Cell::nth)
}

/// A fixture database and the steps run against it.
pub type Corpus = fn() -> (Database, Vec<Step>);

/// The whole corpus.
pub const CORPORA: [Corpus; 11] = [
    paper,
    paper_matview,
    root_fetches,
    index_joins,
    star,
    oo1,
    bom,
    rs,
    rs_prepared,
    semijoin_scans,
    wv,
];

/// What the cells planned, across the corpus.
#[derive(Default)]
pub struct Seen {
    /// The axes that changed some plan.
    pub axes: BTreeSet<&'static str>,
    /// The operators planned.
    pub ops: BTreeSet<String>,
    /// A `HashJoin` probed a worker pipeline inside a parallel region.
    pub join_in_region: bool,
    /// A `HashSemiJoin` probed a worker pipeline inside a parallel region.
    pub semijoin_in_region: bool,
    /// ... and one of them had a residual, so its table kept its rows.
    pub residual_semijoin_in_region: bool,
    /// A residual-free `HashSemiJoin` over a scan, which runs as that
    /// scan gated by its probe: serial, and inside a parallel region.
    pub fused_semijoin: bool,
    pub fused_semijoin_in_region: bool,
    /// ... and one of them over a scan with a pushed-down filter.
    pub fused_semijoin_with_filter: bool,
    /// A recursive CO planned a QEP whose executor applies reachability.
    pub reach: bool,
}

/// Run every statement of `corpora` in `cells`, building each fixture once.
pub fn run(corpora: &[Corpus], cells: &[Cell]) -> Seen {
    let mut seen = Seen::default();
    for corpus in corpora {
        let (db, steps) = corpus();
        for step in steps {
            match step {
                Step::Query(sql, params) => check(&db, &sql, &params, cells, &mut seen),
                Step::Execute(sql) => {
                    db.session().execute_batch(sql).unwrap();
                }
            }
        }
    }
    seen
}

/// Run `corpora` in the default cell and each cell that flips only `axis`.
pub fn run_axis(corpora: &[Corpus], axis: &str) {
    let cells: Vec<Cell> = all_cells()
        .filter(|c| c.flips().iter().all(|a| *a == axis))
        .collect();
    run(corpora, &cells);
}

/// Call `f` on every operator of `qep`.
fn for_each_op(qep: &mut Qep, f: &mut dyn FnMut(&mut PhysPlan)) {
    fn walk(plan: &mut PhysPlan, f: &mut dyn FnMut(&mut PhysPlan)) {
        f(plan);
        match plan {
            PhysPlan::SeqScan { .. }
            | PhysPlan::ParallelSeqScan { .. }
            | PhysPlan::MatViewScan { .. }
            | PhysPlan::Values { .. }
            | PhysPlan::IndexEq { .. }
            | PhysPlan::SharedScan { .. } => {}
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::HashDistinct { input }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::HashAggregate { input, .. }
            | PhysPlan::ParallelHashAggregate { input, .. }
            | PhysPlan::ExchangeGather { input, .. }
            | PhysPlan::IndexNlJoin { left: input, .. }
            | PhysPlan::IndexSemiJoin { inner: input, .. } => walk(input, f),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::NlJoin { left, right, .. }
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
            } => {
                walk(left, f);
                walk(right, f);
            }
            PhysPlan::UnionAll { inputs } => inputs.iter_mut().for_each(|p| walk(p, f)),
        }
    }
    let plans = qep.outputs.iter_mut().map(|o| &mut o.plan);
    plans.chain(&mut qep.shared).for_each(|p| walk(p, f));
}

/// Is `plan` a worker pipeline: filters, projections and hash-join and
/// hash-semijoin probes over a `ParallelSeqScan`, with no region root in
/// between?
fn is_worker_pipeline(plan: &PhysPlan) -> bool {
    match plan {
        PhysPlan::ParallelSeqScan { .. } => true,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::HashJoin { left: input, .. }
        | PhysPlan::HashSemiJoin { outer: input, .. } => is_worker_pipeline(input),
        _ => false,
    }
}

/// Check `sql` against the reference in the default cell, then every cell
/// against the default cell and its pruning twin; `seen` collects the
/// axes that changed the plan and the operators planned.
fn check(db: &Database, sql: &str, params: &[Value], cells: &[Cell], seen: &mut Seen) {
    let want = Reference::new(db.catalog(), params).answer(sql);
    let session = db.session();
    let mut stmt = session.prepare(sql).unwrap();
    stmt.bind(params).unwrap();
    let base = stmt.query().unwrap();
    assert_matches(&want, &base, &format!("{sql} {params:?}"));
    let (qgm, _) = db.compile_to_qgm(sql).unwrap();
    // The cell's plan, noting the operators it holds.
    let mut plan = |cell: Cell| {
        let mut qep = plan_query(db.catalog(), &qgm, cell.options()).unwrap();
        seen.reach |= qep.reach.is_some();
        for_each_op(&mut qep, &mut |op| {
            let name = format!("{op:?}");
            seen.ops
                .insert(name[..name.find([' ', '(']).unwrap_or(name.len())].into());
            match op {
                PhysPlan::HashJoin { left, .. } => seen.join_in_region |= is_worker_pipeline(left),
                PhysPlan::HashSemiJoin {
                    outer, residual, ..
                } if is_worker_pipeline(outer) => {
                    seen.semijoin_in_region = true;
                    seen.residual_semijoin_in_region |= !residual.is_empty();
                }
                _ => {}
            }
            if let PhysPlan::HashSemiJoin {
                outer, residual, ..
            } = op
            {
                if let PhysPlan::SeqScan { filter, .. } | PhysPlan::ParallelSeqScan { filter, .. } =
                    &**outer
                {
                    let parallel = matches!(**outer, PhysPlan::ParallelSeqScan { .. });
                    let fused = residual.is_empty();
                    seen.fused_semijoin |= fused && !parallel;
                    seen.fused_semijoin_in_region |= fused && parallel;
                    seen.fused_semijoin_with_filter |= fused && !filter.is_empty();
                }
            }
            if let PhysPlan::SeqScan { cols, .. } | PhysPlan::ParallelSeqScan { cols, .. } = op {
                cols.take_if(|_| !cell.4);
            }
            if let PhysPlan::MatViewScan { cols, .. } | PhysPlan::SharedScan { cols, .. } = op {
                cols.take_if(|_| !cell.4);
            }
        });
        qep
    };
    let default_plan = format!("{:?}", plan(DEFAULT));
    let mut scanned = HashMap::new();
    for &cell in cells {
        let context = format!("{cell:?}: {sql} {params:?}");
        let qep = plan(cell);
        if cell.flips().len() == 1 && format!("{qep:?}") != default_plan {
            seen.axes.extend(cell.flips());
        }
        let params = Arc::new(params.to_vec());
        let got = xnf_exec::execute_qep_with_params(db.catalog(), &qep, params).unwrap();
        assert_same_result(&base, &got, &context);
        let rows = got.stats.rows_scanned;
        let twin = scanned.entry(Cell { 4: true, ..cell }).or_insert(rows);
        assert_eq!(*twin, rows, "pruning twins: {context}");
    }
}

/// Streams identical, in order: names, columns and rows.
pub fn assert_same_result(reference: &QueryResult, got: &QueryResult, context: &str) {
    assert_eq!(reference.streams.len(), got.streams.len(), "{context}");
    for (a, b) in reference.streams.iter().zip(&got.streams) {
        let (a, b) = (
            (&a.name, &a.columns, &a.rows),
            (&b.name, &b.columns, &b.rows),
        );
        assert_eq!(a, b, "{context}");
    }
}

/// `got` holds the rows the reference `want`s: runs of equal ORDER BY keys
/// (or whole unordered streams) as multisets, each connection resolved to
/// its partners' rows, values compared with their types.
fn assert_matches(want: &[Stream], got: &QueryResult, context: &str) {
    assert_eq!(want.len(), got.streams.len(), "{context}");
    for w in want {
        let g = got.stream(&w.name).unwrap();
        let mut rows: Vec<Vec<Value>> = match &g.kind {
            OutputKind::Connection {
                parent, children, ..
            } => {
                // Each partner id indexes the partner's stream.
                let partners = std::iter::once(parent).chain(children);
                let partners: Vec<_> = partners.map(|p| &got.stream(p).unwrap().rows).collect();
                let row = |ids: &Vec<Value>| -> Vec<Value> {
                    let rows = partners.iter().zip(ids);
                    rows.flat_map(|(rows, id)| rows[id.as_int().unwrap() as usize].clone())
                        .collect()
                };
                g.rows.iter().map(row).collect()
            }
            _ => g.rows.clone(),
        };
        let mut expected = w.rows.clone();
        assert_eq!(rows.len(), expected.len(), "'{}': {context}", w.name);
        let mut start = 0;
        for end in w.ties.clone().unwrap_or_else(|| vec![rows.len()]) {
            rows[start..end].sort();
            expected[start..end].sort();
            start = end;
        }
        // Debug output tells `Int(3)` from `Double(3.0)`, which `==` equates.
        let (rows, expected) = (format!("{rows:?}"), format!("{expected:?}"));
        assert_eq!(rows, expected, "'{}': {context}", w.name);
    }
}

/// A corpus entry: a statement and its bindings, or a fixture change.
pub enum Step {
    Query(String, Vec<Value>),
    Execute(&'static str),
}

fn q(sql: impl Into<String>, params: &[Value]) -> Step {
    Step::Query(sql.into(), params.to_vec())
}

/// The Fig. 1 CO of the departments `restriction` selects.
pub fn co(restriction: &str) -> String {
    let all = DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    format!("{all} WHERE {restriction}")
}

pub fn config(use_indexes: bool, dop: usize, batch_size: usize) -> DbConfig {
    DbConfig {
        plan: PlanOptions {
            use_indexes,
            dop,
            batch_size,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The Fig. 1 fixture at 12 departments.
fn paper_db() -> Database {
    let scale = PaperScale {
        departments: 12,
        employees_per_dept: 6,
        projects_per_dept: 3,
        skills: 40,
        ..Default::default()
    };
    build_paper_db_with(scale, config(true, 1, 1024))
}

/// DEPS_ARC and the statements the plan goldens pin, and a root fetch
/// that keeps half the skills: both skill paths read that box, so only the
/// cse rule shares it (a box that passes SKILLS through plans inline).
pub fn paper() -> (Database, Vec<Step>) {
    let three = [Value::Int(3)];
    let few_skills = co("xdept.dno = ?").replace(
        "xskills AS SKILLS",
        "xskills AS (SELECT * FROM SKILLS WHERE sno < 20)",
    );
    let steps =
        vec![
        q(DEPS_ARC, &[]),
        q(co("xdept.dno = ?"), &three),
        q(few_skills, &three),
        q(co("xdept.dno = 3"), &[]),
        q(co("xdept.loc = 'ARC'"), &[]),
        q(DEPS_ARC.replace(" WHERE loc = 'ARC'", ""), &[]),
        q("SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.dno = 3", &[]),
        q(
            "SELECT e.ename, s.essno FROM EMP e, EMPSKILLS s WHERE e.eno = s.eseno AND e.edno = ?",
            &three,
        ),
        q(
            "SELECT * FROM EMP e WHERE EXISTS \
             (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.dno = 3)",
            &[],
        ),
    ];
    (paper_db(), steps)
}

/// A matview scan, and a correlated (tuple-at-a-time) NOT EXISTS.
pub fn paper_matview() -> (Database, Vec<Step>) {
    let steps = vec![
        Step::Execute(
            "CREATE MATERIALIZED VIEW emp_dept AS SELECT e.eno, e.ename, e.sal, d.dno, d.dname, \
             d.loc FROM EMP e, DEPT d WHERE e.edno = d.dno",
        ),
        q("SELECT ename, dname FROM emp_dept WHERE sal > 90", &[]),
        q(
            "SELECT d.dname FROM DEPT d WHERE NOT EXISTS (SELECT 1 FROM EMP e, PROJ p \
             WHERE e.edno = p.pdno AND p.pdno = d.dno AND e.sal > 100)",
            &[],
        ),
    ];
    (paper_db(), steps)
}

/// The Fig. 1 fixture at 40 departments, plus an empty department, and
/// employee 61 of department 3 holding skill 7 twice, so probe keys repeat.
fn index_join_db() -> Database {
    let scale = PaperScale {
        departments: 40,
        ..Default::default()
    };
    let db = build_paper_db_with(scale, config(true, 1, 1024));
    db.session()
        .execute_batch(
            "INSERT INTO DEPT VALUES (777, 'empty', 'ARC');
         INSERT INTO EMPSKILLS VALUES (61, 7);
         INSERT INTO EMPSKILLS VALUES (61, 7);",
        )
        .unwrap();
    db
}

/// Root-restricted fetches, which index plans drive through index probes:
/// an existing, a missing and an empty department, and a NULL key; then,
/// after UPDATEs leave stale postings under the old keys, the moved rows.
pub fn root_fetches() -> (Database, Vec<Step>) {
    let key = co("xdept.dno = ?");
    let steps = vec![
        q(co("xdept.dno = 3"), &[]),
        q(&key, &[Value::Int(3)]),
        q(co("xdept.dno = -1"), &[]),
        q(&key, &[Value::Int(777)]),
        q(&key, &[Value::Null]),
        // Department 3's employees move to 5, and one of 5's to 3.
        Step::Execute(
            "UPDATE EMP SET edno = 5 WHERE edno = 3;
             UPDATE EMP SET edno = 3 WHERE eno = 110;
             UPDATE EMPSKILLS SET essno = 0 WHERE eseno = 110;",
        ),
        q(&key, &[Value::Int(3)]),
        q(co("xdept.dno = 5"), &[]),
        q(co("xdept.loc = 'ARC'"), &[]),
    ];
    (index_join_db(), steps)
}

/// Relational statements that index plans run as index joins.
pub fn index_joins() -> (Database, Vec<Step>) {
    let steps = vec![
        // Each matching employee's skills, probed through es_eno.
        q(
            "SELECT e.ename, s.essno FROM EMP e, EMPSKILLS s WHERE e.eno = s.eseno AND e.edno = 3",
            &[],
        ),
        // Employee 61 holds skill 7 twice, and must still come out once.
        q(
            "SELECT eno, ename FROM EMP WHERE EXISTS \
             (SELECT 1 FROM EMPSKILLS s WHERE s.eseno = EMP.eno AND s.essno = 7)",
            &[],
        ),
    ];
    (index_join_db(), steps)
}

/// The `analytic` bulk CO extraction: one region's customers, their sales
/// and the items sold.
pub const STAR_CO_BULK: &str = "OUT OF xc AS (SELECT * FROM CUST WHERE region = ?), xs AS SALES,
        xi AS ITEM,
        buys AS (RELATE xc VIA BUYS, xs WHERE xc.cust = xs.cust),
        sold AS (RELATE xs VIA SOLD, xi WHERE xs.item = xi.item)
    TAKE *";

/// The six `analytic` templates, one binding each.
pub fn star() -> (Database, Vec<Step>) {
    let (days, from_200) = ([Value::Int(100), Value::Int(140)], [Value::Int(200)]);
    let steps = vec![
        q(
            "SELECT COUNT(*), SUM(amount) FROM SALES WHERE day >= ? AND day < ?",
            &days,
        ),
        q(
            "SELECT i.cat, COUNT(*), SUM(s.amount) FROM SALES s, ITEM i \
             WHERE s.item = i.item AND s.day >= ? GROUP BY i.cat",
            &from_200,
        ),
        q(
            "SELECT c.region, i.cat, SUM(s.amount) FROM SALES s, ITEM i, CUST c \
             WHERE s.item = i.item AND s.cust = c.cust AND s.day >= ? GROUP BY c.region, i.cat",
            &from_200,
        ),
        q(
            "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
             GROUP BY cust ORDER BY total DESC, cust LIMIT 10",
            &from_200,
        ),
        q(
            "SELECT sale, amount FROM SALES WHERE day = ? ORDER BY sale",
            &[Value::Int(7)],
        ),
        q(STAR_CO_BULK, &[Value::Int(3)]),
    ];
    (build_star_db_with(3000, config(true, 1, 1024)), steps)
}

/// Scans and aggregation over the OO1 parts graph, and its recursive CO
/// over the parts a restriction keeps.
pub fn oo1() -> (Database, Vec<Step>) {
    let steps = [
        "SELECT COUNT(*) FROM OO1PARTS",
        "SELECT ptype, COUNT(*) FROM OO1PARTS GROUP BY ptype",
        "SELECT COUNT(*) FROM OO1PARTS p, OO1CONN c WHERE p.id = c.src AND c.length < 50",
        "SELECT p.id FROM OO1PARTS p WHERE p.x < 1000 ORDER BY p.id LIMIT 20",
        "SELECT ptype, MIN(x), MAX(y) FROM OO1PARTS GROUP BY ptype",
    ];
    let parts = Oo1Config {
        parts: 800,
        ..Default::default()
    };
    let db = build_oo1_db_with(parts, config(true, 1, 1024));
    let mut steps: Vec<Step> = steps.map(|s| q(s, &[])).into();
    steps.push(q(
        format!("{OO1_CO} WHERE part.x < ?"),
        &[Value::Int(30_000)],
    ));
    (db, steps)
}

/// Recursive COs over a four-layer BOM of six parts a layer (pids 0-23),
/// with one edge entered twice and a back-edge 20 -> 1 that closes a
/// cycle through the second root-layer part: the closure of two roots,
/// of one root by `?`, and of both without part 13.
pub fn bom() -> (Database, Vec<Step>) {
    let co = bom_co("pid = 0 OR pid = 3");
    let steps = vec![
        Step::Execute("INSERT INTO BOM VALUES (0, 6); INSERT INTO BOM VALUES (20, 1);"),
        q(&co, &[]),
        q(format!("{co} WHERE asm.pid = ?"), &[Value::Int(0)]),
        q(format!("{co} WHERE part.pid <> ?"), &[Value::Int(13)]),
    ];
    (build_bom_with(4, 6, config(true, 1, 1024)), steps)
}

/// Two random tables `R(a, b, c)` and `S(a, b, c)` with NULLs in `b`.
fn rs_db() -> Database {
    let db = Database::with_config(config(true, 1, 1024));
    for (name, rows, null_p, seed) in [("R", 500, 0.15, 11), ("S", 300, 0.1, 23)] {
        let domain = 25;
        random_table(
            &db,
            name,
            RandomTableConfig {
                rows,
                domain,
                null_p,
                seed,
            },
        );
    }
    db
}

/// Over `R` and `S`: scans, joins, aggregates, subqueries, UNION,
/// nested-loop join and semijoin shapes, and a FROM-less SELECT.
pub fn rs() -> (Database, Vec<Step>) {
    let steps = [
        "SELECT a, b, c FROM R",
        "SELECT a FROM R WHERE a < 10",
        "SELECT a FROM R WHERE a < 10 ORDER BY a",
        "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM R",
        "SELECT a, COUNT(*) FROM R GROUP BY a HAVING COUNT(*) > 1",
        "SELECT a, COUNT(DISTINCT b) FROM R GROUP BY a",
        "SELECT DISTINCT c FROM R",
        "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a",
        "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a ORDER BY r.a, s.b LIMIT 50",
        "SELECT COUNT(*) FROM R r, S s WHERE r.a = s.a AND r.b IS NOT NULL",
        "SELECT a FROM R WHERE a IN (SELECT a FROM S WHERE b > 5) ORDER BY a",
        "SELECT a FROM R WHERE EXISTS (SELECT 1 FROM S WHERE S.a = R.a AND S.b > 10) ORDER BY a",
        "SELECT a FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE S.a = R.a) ORDER BY a",
        // An equi key plus a residual: the semijoin's table keeps its rows.
        "SELECT a, b FROM R WHERE EXISTS (SELECT 1 FROM S WHERE S.a = R.a AND S.b > R.b)",
        "SELECT r1.a, r2.a FROM R r1, R r2 WHERE r1.b = r2.b AND r1.a < r2.a",
        "SELECT r1.a, r2.a FROM R r1, R r2 WHERE r1.b = r2.b AND r1.a < r2.a ORDER BY r1.a, r2.a",
        "SELECT a FROM R UNION SELECT a FROM S ORDER BY a",
        "SELECT a, b FROM R ORDER BY b DESC, a LIMIT 7",
        "SELECT r.a, s.a FROM R r, S s WHERE r.b < s.b AND s.a = 3 AND r.a = 4",
        "SELECT a FROM R WHERE EXISTS (SELECT 1 FROM S WHERE S.b > R.b AND S.a = 3)",
        // NOT IN under NULLs: S.b holds NULLs, so no R row qualifies; with
        // them filtered out, R's own NULL b still never qualifies.
        "SELECT a FROM R WHERE b NOT IN (SELECT b FROM S)",
        "SELECT a, b FROM R WHERE b NOT IN (SELECT b FROM S WHERE b IS NOT NULL AND a = 3)",
        "SELECT a, b FROM R WHERE NOT (b IN (SELECT b FROM S WHERE b IS NOT NULL AND a = 3))",
        "SELECT 1",
    ];
    (rs_db(), steps.map(|s| q(s, &[])).into())
}

/// Semijoins over a scan of `R`, which run as that scan gated by the
/// probe when residual-free: NULL outer and inner keys, duplicate inner
/// keys, a two-column probe, a residual (not fused), a probe over a scan
/// with a pushed-down filter, a prepared probe and an anti-join beside
/// them.
pub fn semijoin_scans() -> (Database, Vec<Step>) {
    let steps =
        vec![
        // R.b and S.b both hold NULLs: neither side's NULL ever matches.
        q("SELECT a, b FROM R WHERE b IN (SELECT b FROM S)", &[]),
        // S.a repeats every key about twelve times.
        q("SELECT a, c FROM R WHERE a IN (SELECT a FROM S)", &[]),
        q("SELECT a, b, c FROM R WHERE a IN (SELECT a FROM S WHERE c < 's3')", &[]),
        // Two equi keys: the gate reads two columns.
        q(
            "SELECT a, b, c FROM R WHERE EXISTS \
             (SELECT 1 FROM S WHERE S.a = R.a AND S.b = R.b)",
            &[],
        ),
        // A residual keeps the semijoin apart from the scan.
        q(
            "SELECT a, c FROM R WHERE EXISTS \
             (SELECT 1 FROM S WHERE S.a = R.a AND S.c < R.c)",
            &[],
        ),
        // The scan's own filter and the probe gate the same records.
        q(
            "SELECT a, b, c FROM R WHERE c < 's12' AND a IN (SELECT a FROM S WHERE b > 5)",
            &[],
        ),
        q(
            "SELECT a, b FROM R WHERE b IS NOT NULL AND c >= ? AND b IN (SELECT b FROM S)",
            &[Value::Str("s20".into())],
        ),
        q(
            "SELECT COUNT(*), SUM(b) FROM R WHERE a < 20 AND a IN (SELECT a FROM S WHERE b < 9)",
            &[],
        ),
        q(
            "SELECT a FROM R WHERE a < 5 AND NOT EXISTS (SELECT 1 FROM S WHERE S.a = R.a)",
            &[],
        ),
    ];
    (rs_db(), steps)
}

/// A prepared statement over `R` under four bindings.
pub fn rs_prepared() -> (Database, Vec<Step>) {
    let sql = "SELECT a, b, c FROM R WHERE a = ? ORDER BY b, c";
    let steps = [0, 3, 9, 24].map(|p| q(sql, &[Value::Int(p)]));
    (rs_db(), steps.into())
}

/// 200 seeded random projections, filters, joins and groupings over the
/// wide tables `W` and `V`, NULLs and strings included.
pub fn wv() -> (Database, Vec<Step>) {
    let db = Database::with_config(config(true, 1, 1024));
    random_wide_tables(&db, 600, 150, 29);
    let mut rng = StdRng::seed_from_u64(7);
    let steps = (0..200).map(|_| random_wide_query(&mut rng));
    (
        db,
        steps
            .map(|(sql, params)| Step::Query(sql, params))
            .collect(),
    )
}
