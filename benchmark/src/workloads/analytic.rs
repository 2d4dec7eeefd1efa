//! `analytic`: one client running set-oriented queries over a star schema
//! about three times the size of the buffer pool, at the engine's default
//! degree of parallelism.
//!
//! The executor's operators (scan, hash join, aggregate, sort, parallel
//! regions) and the heap scan with its visibility checks and buffer misses
//! do the work; the plan cache, commits, the log and view maintenance do
//! none. It reads the kind of heaps and indexes `durable_kv` writes, so a
//! write-path gain that bloats version chains or pages shows here as a
//! loss.
//!
//! Six prepared templates run in a fixed rotation with seeded parameters;
//! every result is compared with a naive evaluation done during set-up.

use std::collections::{BTreeMap, BTreeSet};

use super::{
    build_timed, closed_loop, frontend_metrics, median_us, peak_rss_mb, set_class_metrics,
    set_counter_metrics, set_exec_metrics, set_session_floor_metrics, set_span_median,
    set_trace_overhead, summarize, write_trace, ChildArgs, Client, ClientLog, Outcome,
};
use crate::engine::{
    swizzle, Engine, ExecTotals, HandPlan, Prepared, QueryResult, Result, Session, Value,
    Workspace, PAGE_SIZE,
};
use crate::gen::{Rng, StreamHash};
use crate::json::Json;

pub const CLIENTS: usize = 1;
pub const CLASSES: [&str; 6] = [
    "q_scan_agg",
    "q_join_group",
    "q_join3_group",
    "q_topn",
    "q_range",
    "q_co_bulk",
];
/// The relational templates make the primary lane: an odd number of
/// equally frequent classes, so the pooled median falls inside one
/// template's samples instead of on the gap between two.
const RELATIONAL: [u8; 5] = [0, 1, 2, 3, 4];
const Q_CO_BULK: u8 = 5;
/// Seeded parameter sets per template; the rotation cycles through them.
const PARAM_SETS: usize = 8;
/// Operations of a window of `RUN_SECONDS`, frozen at the commit that
/// introduced the benchmark: 48 rotations, six through every parameter
/// set.
const WINDOW_OPS: usize = 288;

const DAYS: i64 = 365;
const CATS: i64 = 40;
const REGIONS: i64 = 25;
const NOTE_LEN: usize = 100;

const SQL: [&str; 6] = [
    // ~10% of the days.
    "SELECT COUNT(*), SUM(amount) FROM SALES WHERE day >= ? AND day < ?",
    "SELECT i.cat, COUNT(*), SUM(s.amount) FROM SALES s, ITEM i \
     WHERE s.item = i.item AND s.day >= ? GROUP BY i.cat",
    "SELECT c.region, i.cat, SUM(s.amount) FROM SALES s, ITEM i, CUST c \
     WHERE s.item = i.item AND s.cust = c.cust AND s.day >= ? GROUP BY c.region, i.cat",
    "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
     GROUP BY cust ORDER BY total DESC, cust LIMIT 10",
    "SELECT sale, amount FROM SALES WHERE day = ? ORDER BY sale",
    // Set-oriented extraction of one region's customers with their sales
    // and the items sold: several output streams fed by shared subplans.
    "OUT OF xc AS (SELECT * FROM CUST WHERE region = ?),
            xs AS SALES,
            xi AS ITEM,
            buys AS (RELATE xc VIA BUYS, xs WHERE xc.cust = xs.cust),
            sold AS (RELATE xs VIA SOLD, xi WHERE xs.item = xi.item)
     TAKE *",
];

#[derive(Debug, Clone, Copy)]
struct Sale {
    day: i64,
    item: i64,
    cust: i64,
    amount: i64,
}

/// The generated star schema, kept for the naive evaluation.
struct Star {
    sales: Vec<Sale>,
    /// item → cat.
    cats: Vec<i64>,
    /// cust → region.
    regions: Vec<i64>,
}

impl Star {
    fn generate(rng: &mut Rng, sales: u64, items: u64, custs: u64) -> Star {
        Star {
            cats: (0..items).map(|_| rng.range(0, CATS)).collect(),
            regions: (0..custs).map(|_| rng.range(0, REGIONS)).collect(),
            sales: (0..sales)
                .map(|_| Sale {
                    day: rng.range(0, DAYS),
                    item: rng.below(items) as i64,
                    cust: rng.below(custs) as i64,
                    amount: rng.range(1, 500),
                })
                .collect(),
        }
    }

    fn load(&self, s: &Session<'_>) -> Result<()> {
        for ddl in [
            "CREATE TABLE SALES (sale INT NOT NULL, day INT, item INT, cust INT, \
             qty INT, amount INT, note VARCHAR(100))",
            "CREATE TABLE ITEM (item INT NOT NULL, cat INT, price INT)",
            "CREATE TABLE CUST (cust INT NOT NULL, region INT, cname VARCHAR(20))",
        ] {
            s.execute(ddl, &[])?;
        }
        s.begin()?;
        let mut ins = s.prepare("INSERT INTO SALES VALUES (?, ?, ?, ?, ?, ?, ?)")?;
        for (k, sale) in self.sales.iter().enumerate() {
            ins.execute_with(&[
                Value::Int(k as i64),
                Value::Int(sale.day),
                Value::Int(sale.item),
                Value::Int(sale.cust),
                Value::Int(1 + k as i64 % 9),
                Value::Int(sale.amount),
                Value::Str(format!("{k:0>NOTE_LEN$}")),
            ])?;
        }
        let mut ins = s.prepare("INSERT INTO ITEM VALUES (?, ?, ?)")?;
        for (k, cat) in self.cats.iter().enumerate() {
            ins.execute_with(&[
                Value::Int(k as i64),
                Value::Int(*cat),
                Value::Int(1 + k as i64 % 97),
            ])?;
        }
        let mut ins = s.prepare("INSERT INTO CUST VALUES (?, ?, ?)")?;
        for (k, region) in self.regions.iter().enumerate() {
            ins.execute_with(&[
                Value::Int(k as i64),
                Value::Int(*region),
                Value::Str(format!("cust-{k}")),
            ])?;
        }
        s.commit()?;
        for ddl in [
            "CREATE INDEX sales_day ON SALES (day)",
            "CREATE UNIQUE INDEX item_pk ON ITEM (item)",
            "CREATE UNIQUE INDEX cust_pk ON CUST (cust)",
            "ANALYZE",
        ] {
            s.execute(ddl, &[])?;
        }
        Ok(())
    }

    /// What template `q` must return for `params`, by naive evaluation.
    fn expect(&self, q: u8, params: &[i64]) -> Expected {
        let from = params[0];
        let since = self.sales.iter().enumerate().filter(|(_, s)| s.day >= from);
        match q {
            0 => {
                let hit: Vec<i64> = since
                    .filter(|(_, s)| s.day < params[1])
                    .map(|(_, s)| s.amount)
                    .collect();
                Expected::rows(false, vec![vec![hit.len() as i64, hit.iter().sum()]])
            }
            1 => {
                let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for (_, s) in since {
                    let g = groups.entry(self.cats[s.item as usize]).or_default();
                    g.0 += 1;
                    g.1 += s.amount;
                }
                Expected::rows(
                    false,
                    groups
                        .into_iter()
                        .map(|(c, (n, t))| vec![c, n, t])
                        .collect(),
                )
            }
            2 => {
                let mut groups: BTreeMap<(i64, i64), i64> = BTreeMap::new();
                for (_, s) in since {
                    let key = (self.regions[s.cust as usize], self.cats[s.item as usize]);
                    *groups.entry(key).or_default() += s.amount;
                }
                Expected::rows(
                    false,
                    groups
                        .into_iter()
                        .map(|((r, c), t)| vec![r, c, t])
                        .collect(),
                )
            }
            3 => {
                let mut totals: BTreeMap<i64, i64> = BTreeMap::new();
                for (_, s) in since {
                    *totals.entry(s.cust).or_default() += s.amount;
                }
                let mut top: Vec<(i64, i64)> = totals.into_iter().collect();
                top.sort_by_key(|&(cust, total)| (-total, cust));
                top.truncate(10);
                Expected::rows(true, top.into_iter().map(|(c, t)| vec![c, t]).collect())
            }
            4 => Expected::rows(
                true,
                self.sales
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.day == from)
                    .map(|(k, s)| vec![k as i64, s.amount])
                    .collect(),
            ),
            _ => {
                let mut custs = 0;
                let mut sales = 0;
                let mut items = BTreeSet::new();
                let mut sale_ids = 0i64;
                custs += self.regions.iter().filter(|r| **r == from).count();
                for (k, s) in self.sales.iter().enumerate() {
                    if self.regions[s.cust as usize] == from {
                        sales += 1;
                        sale_ids += k as i64;
                        items.insert(s.item);
                    }
                }
                Expected::Co {
                    custs,
                    sales,
                    items: items.len(),
                    sale_ids,
                }
            }
        }
    }
}

/// The checksum of a correct result.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Rows {
        count: usize,
        checksum: u64,
    },
    Co {
        custs: usize,
        sales: usize,
        items: usize,
        /// Sum of the `sale` keys extracted.
        sale_ids: i64,
    },
}

fn row_hash(row: &[i64]) -> u64 {
    let mut h = StreamHash::default();
    row.iter().for_each(|v| h.word(*v as u64));
    h.finish()
}

/// Order-sensitive when the query orders its result, else a sum of row
/// hashes so any row order passes.
fn checksum(ordered: bool, rows: impl Iterator<Item = Vec<i64>>) -> (usize, u64) {
    let mut count = 0;
    let mut acc = 0u64;
    for row in rows {
        count += 1;
        let h = row_hash(&row);
        acc = if ordered {
            acc.rotate_left(5) ^ h
        } else {
            acc.wrapping_add(h)
        };
    }
    (count, acc)
}

impl Expected {
    fn rows(ordered: bool, rows: Vec<Vec<i64>>) -> Expected {
        let (count, checksum) = checksum(ordered, rows.into_iter());
        Expected::Rows { count, checksum }
    }
}

fn ordered(q: u8) -> bool {
    q == 3 || q == 4
}

fn relational_result(q: u8, r: &QueryResult) -> Result<Expected> {
    let rows = &r.try_table()?.rows;
    let (count, checksum) = checksum(
        ordered(q),
        rows.iter()
            .map(|row| row.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect()),
    );
    Ok(Expected::Rows { count, checksum })
}

/// Parameters of every (template, set) pair.
fn parameters(seed: u64) -> Vec<Vec<Vec<i64>>> {
    let mut rng = Rng::lane(seed, 1);
    (0..CLASSES.len())
        .map(|q| {
            (0..PARAM_SETS)
                .map(|_| match q {
                    0 => {
                        let lo = rng.range(0, DAYS - DAYS / 10);
                        vec![lo, lo + DAYS / 10]
                    }
                    1..=3 => vec![rng.range(0, DAYS / 10)],
                    4 => vec![rng.range(0, DAYS)],
                    _ => vec![rng.range(0, REGIONS)],
                })
                .collect()
        })
        .collect()
}

pub fn stream_hash(params: &[Vec<Vec<i64>>]) -> u64 {
    let mut h = StreamHash::default();
    for p in params.iter().flatten().flatten() {
        h.word(*p as u64);
    }
    h.finish()
}

struct Analyst<'a> {
    eng: &'a Engine,
    session: Session<'a>,
    stmts: Vec<Prepared<'a>>,
    /// `Some` in the traced pass: plans compiled by hand, run by hand.
    hand: Option<Vec<HandPlan>>,
    params: &'a [Vec<Vec<i64>>],
    expected: &'a [Vec<Expected>],
    pos: usize,
    exec: ExecTotals,
}

impl<'a> Analyst<'a> {
    fn new(
        eng: &'a Engine,
        params: &'a [Vec<Vec<i64>>],
        expected: &'a [Vec<Expected>],
    ) -> Result<Analyst<'a>> {
        let session = eng.session();
        Ok(Analyst {
            eng,
            stmts: SQL
                .iter()
                .map(|sql| session.prepare(sql))
                .collect::<Result<Vec<_>>>()?,
            session,
            hand: None,
            params,
            expected,
            pos: 0,
            exec: ExecTotals::default(),
        })
    }

    fn run(
        &mut self,
        log: &mut ClientLog,
        root: Option<usize>,
        op: u64,
        q: u8,
        set: usize,
    ) -> Result<()> {
        let params: Vec<Value> = self.params[q as usize][set]
            .iter()
            .map(|p| Value::Int(*p))
            .collect();
        let got = match (&self.hand, log.tracer.as_mut()) {
            (Some(plans), Some(t)) => {
                let r = self
                    .eng
                    .execute_by_hand(&plans[q as usize], &params, t, root, op)?;
                self.exec.add(&r);
                if q == Q_CO_BULK {
                    co_result(&swizzle(&r, t, root, op)?)?
                } else {
                    relational_result(q, &r)?
                }
            }
            _ => {
                let stmt = &mut self.stmts[q as usize];
                stmt.bind(&params)?;
                if q == Q_CO_BULK {
                    co_result(&stmt.fetch_co()?.workspace)?
                } else {
                    relational_result(q, &stmt.query()?)?
                }
            }
        };
        let want = &self.expected[q as usize][set];
        log.check(got == *want, || {
            format!(
                "{}({params:?}) returned {got:?}, model has {want:?}",
                CLASSES[q as usize]
            )
        });
        Ok(())
    }
}

fn co_result(ws: &Workspace) -> Result<Expected> {
    let mut sale_ids = 0;
    for sale in ws.independent("xs")? {
        sale_ids += sale.get_int("sale")?;
    }
    Ok(Expected::Co {
        custs: ws.component("xc")?.len(),
        sales: ws.component("xs")?.len(),
        items: ws.component("xi")?.len(),
        sale_ids,
    })
}

impl Client for Analyst<'_> {
    fn step(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64) -> Option<u8> {
        let q = (self.pos % CLASSES.len()) as u8;
        let set = (self.pos / CLASSES.len()) % PARAM_SETS;
        self.pos += 1;
        if let Err(e) = self.run(log, root, op, q, set) {
            log.fail(format!("{}: {e}", CLASSES[q as usize]));
        }
        Some(q)
    }
}

pub fn run(args: &ChildArgs) -> Outcome {
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };
    let n_sales = args.sized(140_000, 1000);
    let mut warm = ClientLog::default();
    // Set-up: generate, load, index, ANALYZE, evaluate every (template,
    // parameter set) naively, and run every template once.
    let (eng, params, expected) = build_timed(args, &mut out, 3, |_| {
        let eng = Engine::in_memory();
        let star = Star::generate(
            &mut Rng::lane(args.seed, 0),
            n_sales,
            args.sized(3500, 50),
            args.sized(7000, 100),
        );
        star.load(&eng.session()).expect("load the star schema");
        let params = parameters(args.seed);
        let expected: Vec<Vec<Expected>> = params
            .iter()
            .enumerate()
            .map(|(q, sets)| sets.iter().map(|p| star.expect(q as u8, p)).collect())
            .collect();
        let mut analyst = Analyst::new(&eng, &params, &expected).expect("prepare the templates");
        for q in 0..CLASSES.len() as u8 {
            analyst.run(&mut warm, None, 0, q, 0).expect("warm-up");
        }
        drop(analyst);
        (eng, params, expected)
    });
    out.failed += warm.failed;
    out.failures.append(&mut warm.failures);
    let mut analyst = Analyst::new(&eng, &params, &expected).expect("prepare the templates");
    let session = eng.session();
    out.note(
        "stream_hash",
        Json::str(format!("{:016x}", stream_hash(&params))),
    );
    out.note("sales_rows", Json::Num(n_sales as f64));
    out.note("dop", Json::Num(eng.dop() as f64));

    // Whole rotations, in the half and the quarter of the traced run too.
    let window_ops = args.window_ops(WINDOW_OPS, 4 * CLASSES.len());
    if !args.trace {
        let window = closed_loop(
            std::slice::from_mut(&mut analyst),
            window_ops,
            args.window_cap(),
            false,
        );
        window.report_into(&mut out);
        summarize(&mut out, &window, &CLASSES, (&RELATIONAL, &[Q_CO_BULK]));
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    let reference = closed_loop(
        std::slice::from_mut(&mut analyst),
        window_ops / 2,
        args.window_cap(),
        false,
    );
    reference.report_into(&mut out);

    // The traced pass compiles each template by hand (those spans are the
    // front-end metrics' corpus too) and starts the rotation over.
    let mut scratch = crate::trace::Tracer::new(std::time::Instant::now());
    let plans: Vec<HandPlan> = SQL
        .iter()
        .map(|sql| {
            eng.compile_by_hand(sql, &mut scratch, None, 0)
                .expect("compile a template by hand")
                .expect("a query")
        })
        .collect();
    analyst.hand = Some(plans);
    analyst.pos = 0;
    let before = eng.counters();
    let mut traced = closed_loop(
        std::slice::from_mut(&mut analyst),
        window_ops / 4,
        args.window_cap(),
        true,
    );
    traced.report_into(&mut out);
    let in_traced = eng.counters().since(&before);
    let mut spans = traced.spans();

    set_class_metrics(
        &mut out,
        &reference,
        "exec.",
        &CLASSES,
        &RELATIONAL,
        &[Q_CO_BULK],
    );
    set_counter_metrics(&mut out, &in_traced, traced.attempted(), 0, 0);
    set_exec_metrics(&mut out, &analyst.exec);
    set_span_median(&mut out, &spans, "exec.execute_us", "exec.execute");
    set_span_median(
        &mut out,
        &spans,
        "core.cache.swizzle_us",
        "core.cache.swizzle",
    );
    let mut count = session
        .prepare("SELECT COUNT(*) FROM SALES")
        .expect("prepare");
    let scan_us = median_us(5, || {
        let _ = count.query();
    });
    out.set(
        "storage.heap.scan_rows_per_s",
        if scan_us > 0.0 {
            n_sales as f64 / (scan_us / 1e6)
        } else {
            0.0
        },
    );
    set_session_floor_metrics(&mut out, &analyst.session, SQL[0]);
    set_trace_overhead(&mut out, &reference, &traced);
    frontend_metrics(&mut out, &eng, &SQL.map(str::to_string), &mut spans);
    write_trace(args, &mut out, &spans);
    out.note(
        "data_over_pool_estimate",
        Json::Num(
            (n_sales as usize * (NOTE_LEN + 7 * 9 + 24)) as f64
                / (eng.buffer_pages() * PAGE_SIZE) as f64,
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_are_a_function_of_the_seed() {
        assert_eq!(stream_hash(&parameters(1)), stream_hash(&parameters(1)));
        assert_ne!(stream_hash(&parameters(1)), stream_hash(&parameters(2)));
        for (q, sets) in parameters(5).iter().enumerate() {
            assert_eq!(sets.len(), PARAM_SETS);
            assert!(sets.iter().all(|p| p.len() == if q == 0 { 2 } else { 1 }));
        }
    }

    #[test]
    fn naive_evaluation_agrees_with_itself() {
        let star = Star::generate(&mut Rng::new(2), 2000, 30, 60);
        // Every sale falls in exactly one category group.
        let Expected::Rows { count, .. } = star.expect(1, &[0]) else {
            panic!("relational template");
        };
        assert!(count <= CATS as usize && count > 0);
        // The top-10 list is ordered, so reversing the rows changes it.
        let rows = vec![vec![1, 50], vec![2, 40]];
        let forward = checksum(true, rows.clone().into_iter());
        let backward = checksum(true, rows.clone().into_iter().rev());
        assert_ne!(forward, backward);
        assert_eq!(
            checksum(false, rows.clone().into_iter()),
            checksum(false, rows.into_iter().rev())
        );
        // The bulk CO extracts each sale of the region once.
        let Expected::Co { sales, custs, .. } = star.expect(5, &[3]) else {
            panic!("CO template");
        };
        let in_region = star
            .sales
            .iter()
            .filter(|s| star.regions[s.cust as usize] == 3)
            .count();
        assert_eq!(sales, in_region);
        assert_eq!(custs, star.regions.iter().filter(|r| **r == 3).count());
    }
}
