//! `oltp_views`: two clients running short transactions over the Fig. 1
//! database while two materialized views are maintained at every commit.
//!
//! The same stored composite object `co_serve` only reads is here written
//! (spliced at commit) beside being read, so commit-time view maintenance,
//! MVCC row claims and conflicts, the maintenance lock and the shared plan
//! cache do most of the work; there is no log. A `co_point` gain that taxes
//! maintenance — or the reverse — shows here.
//!
//! Oracle contract: every write is additive (`sal = sal + ?`), a
//! uniquely-keyed insert, or an assignment to a row only one client ever
//! assigns; conflicted transactions retry until they commit; and the stream
//! decides which transactions roll back. So the final state is the model's
//! replay of the executed prefix of each client's stream, whatever the
//! interleaving.

use std::time::{Duration, Instant};

use super::paper::{co_all, emp_row, Emp, Paper, INSERT_EMP, INSERT_EMPSKILL, SKILLS_PER_EMP};
use super::{
    build_timed, closed_loop, frontend_metrics, median_us, peak_rss_mb, retry_conflicts,
    set_class_metrics, set_counter_metrics, set_exec_metrics, set_session_floor_metrics,
    set_span_median, set_trace_overhead, summarize, write_trace, ChildArgs, Client, ClientLog,
    Outcome,
};
use crate::engine::{CoCanon, Engine, ExecTotals, Prepared, Result, Session, Value};
use crate::gen::{Rng, StreamHash, Zipfian};
use crate::json::Json;

pub const CLIENTS: usize = 2;
pub const CLASSES: [&str; 6] = [
    "raise_pair",
    "hire",
    "reassign",
    "emp_lookup",
    "dept_pay",
    "co_point",
];
const RAISE_PAIR: u8 = 0;
const HIRE: u8 = 1;
const REASSIGN: u8 = 2;
const EMP_LOOKUP: u8 = 3;
const DEPT_PAY: u8 = 4;
const CO_POINT: u8 = 5;
const WRITES: [u8; 3] = [RAISE_PAIR, HIRE, REASSIGN];
/// Share of each class in the stream, in percent: 60 writes, 40 reads.
const MIX: [u64; 6] = [25, 20, 15, 15, 10, 15];
/// Percent of write transactions that ROLLBACK, decided in the stream.
const ROLLBACK_PCT: u64 = 5;
/// Employee choice is Zipfian with this skew, so a few departments are hot
/// and first-writer-wins retries are part of the workload.
const THETA: f64 = 0.8;
/// Operations of a window of `RUN_SECONDS`, both clients together, frozen
/// at the commit that introduced the benchmark. The table grows with every
/// hire, so work per operation depends on the position in the stream: a
/// fixed count is what keeps parent and change on the same work.
const WINDOW_OPS: usize = 7200;

const DEPT_PAY_VIEW: &str = "SELECT edno, COUNT(*) AS n, SUM(sal) AS total FROM EMP GROUP BY edno";
const RAISE: &str = "UPDATE EMP SET sal = sal + ? WHERE eno = ?";
const MOVE: &str = "UPDATE EMP SET edno = ? WHERE eno = ?";
const LOOKUP: &str = "SELECT eno, edno, sal FROM EMP WHERE eno = ?";
const PAY: &str = "SELECT n, total FROM dept_pay WHERE edno = ?";

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Move `amount` of salary from `b` to `a`: `SUM(sal)` is conserved.
    RaisePair {
        a: i64,
        b: i64,
        amount: i64,
        rollback: bool,
    },
    /// Insert an employee (key assigned here, unique across clients) and
    /// its three skill links.
    Hire {
        eno: i64,
        emp: Emp,
        rollback: bool,
    },
    /// Move an employee this client owns to another department: two CO
    /// roots change.
    Reassign {
        eno: i64,
        edno: i64,
        rollback: bool,
    },
    EmpLookup {
        eno: i64,
    },
    DeptPay {
        dno: i64,
    },
    CoPoint {
        dno: i64,
    },
}

/// Client `client`'s stream of `n` operations over `emps` initial
/// employees in `depts` departments.
pub fn generate(seed: u64, client: u64, n: usize, emps: u64, depts: u64, skills: u64) -> Vec<Op> {
    let mut rng = Rng::lane(seed, 10 + client);
    let zipf = Zipfian::new(emps, THETA);
    let mut hires = 0;
    (0..n)
        .map(|_| {
            let roll = rng.below(100);
            let rollback = rng.below(100) < ROLLBACK_PCT;
            let class = MIX
                .iter()
                .scan(0, |acc, share| {
                    *acc += share;
                    Some(*acc)
                })
                .position(|upto| roll < upto)
                .expect("shares add up to 100") as u8;
            match class {
                RAISE_PAIR => {
                    let a = zipf.next(&mut rng) as i64;
                    let b = (a + 1 + rng.below(emps - 1) as i64) % emps as i64;
                    Op::RaisePair {
                        a,
                        b,
                        amount: rng.range(1, 50),
                        rollback,
                    }
                }
                HIRE => {
                    hires += 1;
                    let picked = rng.distinct(SKILLS_PER_EMP, skills);
                    Op::Hire {
                        eno: (emps + (hires - 1) * CLIENTS as u64 + client) as i64,
                        emp: Emp {
                            edno: rng.below(depts) as i64,
                            sal: rng.range(400, 1600),
                            skills: std::array::from_fn(|i| picked[i] as i64),
                        },
                        rollback,
                    }
                }
                REASSIGN => {
                    // Client c owns the initial employees with eno ≡ c
                    // (mod CLIENTS): nobody else assigns their `edno`.
                    let z = zipf.next(&mut rng);
                    let eno = (z - z % CLIENTS as u64 + client).min(emps - CLIENTS as u64 + client);
                    Op::Reassign {
                        eno: eno as i64,
                        edno: rng.below(depts) as i64,
                        rollback,
                    }
                }
                EMP_LOOKUP => Op::EmpLookup {
                    eno: zipf.next(&mut rng) as i64,
                },
                DEPT_PAY => Op::DeptPay {
                    dno: rng.below(depts) as i64,
                },
                _ => Op::CoPoint {
                    dno: rng.below(depts) as i64,
                },
            }
        })
        .collect()
}

pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = StreamHash::default();
    let mut put = |words: &[i64]| words.iter().for_each(|w| h.word(*w as u64));
    for op in ops {
        match op {
            Op::RaisePair {
                a,
                b,
                amount,
                rollback,
            } => put(&[0, *a, *b, *amount, *rollback as i64]),
            Op::Hire { eno, emp, rollback } => {
                put(&[1, *eno, emp.edno, emp.sal, *rollback as i64]);
                put(&emp.skills);
            }
            Op::Reassign {
                eno,
                edno,
                rollback,
            } => put(&[2, *eno, *edno, *rollback as i64]),
            Op::EmpLookup { eno } => put(&[3, *eno]),
            Op::DeptPay { dno } => put(&[4, *dno]),
            Op::CoPoint { dno } => put(&[5, *dno]),
        }
    }
    h.finish()
}

/// Replay a committed operation into the model.
pub fn apply(model: &mut Paper, op: &Op) {
    match op {
        Op::RaisePair {
            a,
            b,
            amount,
            rollback: false,
        } => {
            model.emps.get_mut(a).expect("known employee").sal += amount;
            model.emps.get_mut(b).expect("known employee").sal -= amount;
        }
        Op::Hire {
            eno,
            emp,
            rollback: false,
        } => {
            let prev = model.emps.insert(*eno, emp.clone());
            assert!(prev.is_none(), "stream hired employee {eno} twice");
        }
        Op::Reassign {
            eno,
            edno,
            rollback: false,
        } => model.emps.get_mut(eno).expect("known employee").edno = *edno,
        _ => {}
    }
}

struct OltpClient<'a> {
    eng: &'a Engine,
    session: Session<'a>,
    raise: Prepared<'a>,
    hire: Prepared<'a>,
    link: Prepared<'a>,
    reassign: Prepared<'a>,
    lookup: Prepared<'a>,
    pay: Prepared<'a>,
    ops: &'a [Op],
    pos: usize,
    exec: ExecTotals,
}

/// Time `f` as a span under `root` when the pass is traced.
fn timed<T>(
    log: &mut ClientLog,
    name: &'static str,
    root: Option<usize>,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log.tracer.as_mut() {
        Some(t) => t.span(name, root, op, f),
        None => f(),
    }
}

impl<'a> OltpClient<'a> {
    fn new(eng: &'a Engine, ops: &'a [Op]) -> Result<OltpClient<'a>> {
        let session = eng.session();
        Ok(OltpClient {
            eng,
            raise: session.prepare(RAISE)?,
            hire: session.prepare(INSERT_EMP)?,
            link: session.prepare(INSERT_EMPSKILL)?,
            reassign: session.prepare(MOVE)?,
            lookup: session.prepare(LOOKUP)?,
            pay: session.prepare(PAY)?,
            session,
            ops,
            pos: 0,
            exec: ExecTotals::default(),
        })
    }

    /// One write transaction: begin, the statements, then commit or the
    /// rollback the stream decided; a write conflict anywhere rolls back
    /// and starts over.
    fn write_txn(
        &mut self,
        log: &mut ClientLog,
        root: Option<usize>,
        op: u64,
        rollback: bool,
        statements: &[(Stmt, Vec<Value>)],
    ) -> Result<()> {
        let done = retry_conflicts(log, |log| {
            timed(log, "core.session.begin", root, op, || self.session.begin())?;
            let body: Result<()> = statements.iter().try_for_each(|(which, params)| {
                let stmt = match which {
                    Stmt::Raise => &mut self.raise,
                    Stmt::Hire => &mut self.hire,
                    Stmt::Link => &mut self.link,
                    Stmt::Reassign => &mut self.reassign,
                };
                let affected = timed(log, "core.session.stmt", root, op, || {
                    stmt.execute_with(params)
                })?
                .affected();
                if affected != 1 {
                    log.fail(format!("{which:?} touched {affected} rows, not 1"));
                }
                Ok(())
            });
            match body {
                Ok(()) if rollback => timed(log, "core.session.rollback", root, op, || {
                    self.session.rollback()
                }),
                Ok(()) => timed(log, "core.session.commit", root, op, || {
                    self.session.commit()
                }),
                Err(e) => {
                    if self.session.in_transaction() {
                        let _ = self.session.rollback();
                    }
                    // A transaction that was going to roll back anyway has
                    // had its effect.
                    if rollback {
                        Ok(())
                    } else {
                        Err(e)
                    }
                }
            }
        });
        if done.is_ok() && !rollback {
            log.commits += 1;
        }
        done
    }

    fn run(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64, next: &Op) -> Result<()> {
        match next {
            Op::RaisePair {
                a,
                b,
                amount,
                rollback,
            } => {
                let stmts = [
                    (Stmt::Raise, vec![Value::Int(*amount), Value::Int(*a)]),
                    (Stmt::Raise, vec![Value::Int(-*amount), Value::Int(*b)]),
                ];
                self.write_txn(log, root, op, *rollback, &stmts)?;
                Ok(())
            }
            Op::Hire { eno, emp, rollback } => {
                let mut stmts = vec![(Stmt::Hire, emp_row(*eno, emp).to_vec())];
                for &k in &emp.skills {
                    stmts.push((Stmt::Link, vec![Value::Int(*eno), Value::Int(k)]));
                }
                self.write_txn(log, root, op, *rollback, &stmts)?;
                Ok(())
            }
            Op::Reassign {
                eno,
                edno,
                rollback,
            } => {
                let stmts = [(Stmt::Reassign, vec![Value::Int(*edno), Value::Int(*eno)])];
                self.write_txn(log, root, op, *rollback, &stmts)?;
                Ok(())
            }
            Op::EmpLookup { eno } => {
                let r = timed(log, "core.session.stmt", root, op, || {
                    self.lookup.bind(&[Value::Int(*eno)])?.query()
                })?;
                self.exec.add(&r);
                let rows = &r.try_table()?.rows;
                log.check(rows.len() == 1 && rows[0][0] == Value::Int(*eno), || {
                    format!("emp_lookup({eno}) returned {rows:?}")
                });
                Ok(())
            }
            Op::DeptPay { dno } => {
                let r = timed(log, "core.session.stmt", root, op, || {
                    self.pay.bind(&[Value::Int(*dno)])?.query()
                })?;
                self.exec.add(&r);
                // Exact contents are checked at quiesce; under concurrent
                // maintenance a group row can only be asserted well-formed.
                let rows = &r.try_table()?.rows;
                let sane = rows.len() <= 1
                    && rows.iter().all(
                        |r| matches!((&r[0], &r[1]), (Value::Int(n), Value::Int(_)) if *n >= 1),
                    );
                log.check(sane, || format!("dept_pay({dno}) returned {rows:?}"));
                Ok(())
            }
            Op::CoPoint { dno } => {
                let co = timed(log, "core.matview.fetch_co_point", root, op, || {
                    self.eng.fetch_co_point("dept_co", *dno)
                })?;
                let roots = co.workspace.component("xdept")?.len();
                log.check(roots <= 1, || format!("co_point({dno}) has {roots} roots"));
                Ok(())
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Stmt {
    Raise,
    Hire,
    Link,
    Reassign,
}

impl Op {
    fn class(&self) -> u8 {
        match self {
            Op::RaisePair { .. } => RAISE_PAIR,
            Op::Hire { .. } => HIRE,
            Op::Reassign { .. } => REASSIGN,
            Op::EmpLookup { .. } => EMP_LOOKUP,
            Op::DeptPay { .. } => DEPT_PAY,
            Op::CoPoint { .. } => CO_POINT,
        }
    }
}

impl Client for OltpClient<'_> {
    fn step(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64) -> Option<u8> {
        let ops = self.ops;
        let next = ops.get(self.pos)?;
        self.pos += 1;
        if let Err(e) = self.run(log, root, op, next) {
            log.fail(format!("{next:?}: {e}"));
        }
        Some(next.class())
    }
}

/// Every department's stored CO through `fetch_co_point`, checked against
/// the model's shapes, in value-identity form.
fn stored_co(eng: &Engine, model: &Paper, out: &mut Outcome, check_shapes: bool) -> CoCanon {
    let shapes = model.shapes();
    let mut canon = CoCanon::default();
    for (d, want) in shapes.iter().enumerate() {
        match eng.fetch_co_point("dept_co", d as i64) {
            Ok(co) => {
                let ws = &co.workspace;
                let got = (ws.tuple_count(), ws.connection_count());
                out.check(
                    !check_shapes || got == (want.tuples(), want.connections()),
                    || format!("quiesce: dept_co({d}) holds {got:?}, model has {want:?}"),
                );
                canon.absorb(ws);
            }
            Err(e) => out.fail(format!("quiesce: fetch_co_point({d}): {e}")),
        }
    }
    canon
}

fn int_rows(s: &Session<'_>, sql: &str) -> Result<Vec<Vec<i64>>> {
    let r = s.query(sql, &[])?;
    let mut rows: Vec<Vec<i64>> = r
        .try_table()?
        .rows
        .iter()
        .map(|row| row.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect())
        .collect();
    rows.sort_unstable();
    Ok(rows)
}

/// The quiesce differential: base tables, both views against the model
/// and against a REFRESH recompute. Returns the time REFRESH took.
fn quiesce(eng: &Engine, model: &Paper, out: &mut Outcome) -> Result<Duration> {
    let s = eng.session();
    let want: Vec<Vec<i64>> = model
        .emps
        .iter()
        .map(|(eno, e)| vec![*eno, e.edno, e.sal])
        .collect();
    let got = int_rows(&s, "SELECT eno, edno, sal FROM EMP")?;
    out.check(got == want, || {
        let diff = got.iter().zip(&want).find(|(g, w)| g != w);
        format!(
            "quiesce: EMP has {} rows, model {}; first difference {diff:?}",
            got.len(),
            want.len()
        )
    });
    let total: i64 = model.emps.values().map(|e| e.sal).sum();
    let sums = int_rows(&s, "SELECT COUNT(*), SUM(sal) FROM EMP")?;
    out.check(sums == [[model.emps.len() as i64, total]], || {
        format!(
            "quiesce: COUNT/SUM(sal) is {sums:?}, model has {} / {total}",
            model.emps.len()
        )
    });
    let links = int_rows(&s, "SELECT COUNT(*) FROM EMPSKILLS")?;
    out.check(
        links == [[(model.emps.len() * SKILLS_PER_EMP) as i64]],
        || format!("quiesce: EMPSKILLS has {links:?} rows"),
    );

    let want_pay: Vec<Vec<i64>> = model
        .pay()
        .into_iter()
        .map(|(d, (n, total))| vec![d, n, total])
        .collect();
    let pay = int_rows(&s, "SELECT edno, n, total FROM dept_pay")?;
    out.check(pay == want_pay, || {
        "quiesce: dept_pay differs from the model".to_string()
    });
    let co = stored_co(eng, model, out, true);

    let t = Instant::now();
    s.execute("REFRESH MATERIALIZED VIEW dept_pay", &[])?;
    s.execute("REFRESH MATERIALIZED VIEW dept_co", &[])?;
    let refresh = t.elapsed();
    let pay_again = int_rows(&s, "SELECT edno, n, total FROM dept_pay")?;
    out.check(pay == pay_again, || {
        "quiesce: maintained dept_pay differs from its REFRESH".to_string()
    });
    let co_again = stored_co(eng, model, out, false);
    out.check(co == co_again, || {
        format!(
            "quiesce: maintained dept_co differs from its REFRESH ({} / {} rows, {} / {} links)",
            co.rows.len(),
            co_again.rows.len(),
            co.links.len(),
            co_again.links.len()
        )
    });
    Ok(refresh)
}

pub fn run(args: &ChildArgs) -> Outcome {
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };
    let depts = args.sized(400, 4);
    let skills = args.sized(200, 8);
    let window_ops = args.window_ops(WINDOW_OPS, 4);
    // A traced run continues the streams after its reference window. Each
    // client's stream is as long as everything both run, so neither can
    // reach its end.
    let n_ops = if args.trace {
        window_ops / 2 + window_ops / 4
    } else {
        window_ops
    };
    let mut warm = ClientLog::default();
    // Set-up: generate, load, index, ANALYZE, create both views, generate
    // the streams, and run every prepared statement once (rolled back, so
    // the data is as loaded).
    let (eng, mut model, streams) = build_timed(args, &mut out, 5, |_| {
        let eng = Engine::in_memory();
        let model = Paper::generate(&mut Rng::lane(args.seed, 0), depts, skills);
        let s = eng.session();
        model.load(&s).expect("load the Fig. 1 database");
        s.execute(
            &format!("CREATE MATERIALIZED VIEW dept_co AS {}", co_all()),
            &[],
        )
        .expect("create dept_co");
        s.execute(
            &format!("CREATE MATERIALIZED VIEW dept_pay AS {DEPT_PAY_VIEW}"),
            &[],
        )
        .expect("create dept_pay");
        let emps = model.emps.len() as u64;
        let streams: Vec<Vec<Op>> = (0..CLIENTS as u64)
            .map(|c| generate(args.seed, c, n_ops, emps, depts, skills))
            .collect();
        let probes = [
            Op::RaisePair {
                a: 0,
                b: 1,
                amount: 1,
                rollback: true,
            },
            Op::Hire {
                eno: -1,
                emp: model.emps[&0].clone(),
                rollback: true,
            },
            Op::Reassign {
                eno: 0,
                edno: 0,
                rollback: true,
            },
            Op::EmpLookup { eno: 0 },
            Op::DeptPay { dno: 0 },
            Op::CoPoint { dno: 0 },
        ];
        let mut c = OltpClient::new(&eng, &probes).expect("prepare statements");
        for probe in &probes {
            c.run(&mut warm, None, 0, probe).expect("warm-up");
        }
        drop((c, s));
        (eng, model, streams)
    });
    out.failed += warm.failed;
    out.failures.append(&mut warm.failures);
    let mut clients: Vec<OltpClient<'_>> = streams
        .iter()
        .map(|ops| OltpClient::new(&eng, ops).expect("prepare statements"))
        .collect();
    let hashes: Vec<Json> = streams
        .iter()
        .map(|s| Json::str(format!("{:016x}", stream_hash(s))))
        .collect();
    out.note("stream_hash", Json::Arr(hashes));
    out.note("employees", Json::Num(model.emps.len() as f64));

    let before = eng.counters();
    let window = closed_loop(
        &mut clients,
        if args.trace {
            window_ops / 2
        } else {
            window_ops
        },
        args.window_cap(),
        false,
    );
    window.report_into(&mut out);
    let in_window = eng.counters().since(&before);
    out.note(
        "retries_per_commit",
        Json::Num(super::ratio(window.retries(), window.commits())),
    );
    out.note(
        "maint_us_per_commit",
        Json::Num(super::ratio(in_window.maint_us, window.commits())),
    );

    let mut traced = None;
    if args.trace {
        for c in &mut clients {
            c.exec = ExecTotals::default();
        }
        let before = eng.counters();
        let mut pass = closed_loop(&mut clients, window_ops / 4, args.window_cap(), true);
        pass.report_into(&mut out);
        let in_pass = eng.counters().since(&before);
        let spans = pass.spans();
        traced = Some((pass, in_pass, spans));
    } else {
        summarize(&mut out, &window, &CLASSES, (&WRITES, &[CO_POINT]));
        out.set("peak_rss_mb", peak_rss_mb());
    }
    let done: Vec<usize> = clients.iter().map(|c| c.pos).collect();
    out.note(
        "ops_done",
        Json::Arr(done.iter().map(|&n| Json::Num(n as f64)).collect()),
    );
    let mut exec = ExecTotals::default();
    for c in &clients {
        exec.merge(&c.exec);
    }
    drop(clients);

    for (ops, &n) in streams.iter().zip(&done) {
        for op in &ops[..n] {
            apply(&mut model, op);
        }
    }
    let idle_fetch_us = median_us(200, || {
        let _ = eng.fetch_co_point("dept_co", 0);
    });
    let refresh = match quiesce(&eng, &model, &mut out) {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("quiesce check could not run: {e}"));
            Duration::ZERO
        }
    };

    if let Some((pass, in_pass, mut spans)) = traced {
        set_class_metrics(
            &mut out,
            &window,
            "core.session.",
            &CLASSES,
            &WRITES,
            &[CO_POINT],
        );
        set_counter_metrics(
            &mut out,
            &in_pass,
            pass.attempted(),
            pass.commits(),
            pass.retries(),
        );
        set_exec_metrics(&mut out, &exec);
        set_span_median(
            &mut out,
            &spans,
            "core.session.stmt_us",
            "core.session.stmt",
        );
        set_span_median(
            &mut out,
            &spans,
            "core.session.commit_us",
            "core.session.commit",
        );
        out.set("core.matview.point_fetch_idle_us", idle_fetch_us);
        out.set("core.matview.refresh_us", refresh.as_secs_f64() * 1e6);
        let t = Instant::now();
        if let Err(e) = eng.vacuum() {
            out.fail(format!("vacuum at quiesce: {e}"));
        }
        out.set("storage.vacuum.vacuum_us", t.elapsed().as_secs_f64() * 1e6);
        set_session_floor_metrics(&mut out, &eng.session(), LOOKUP);
        set_trace_overhead(&mut out, &window, &pass);
        let corpus: Vec<String> = [RAISE, MOVE, INSERT_EMP, INSERT_EMPSKILL, LOOKUP, PAY]
            .map(str::to_string)
            .to_vec();
        frontend_metrics(&mut out, &eng, &corpus, &mut spans);
        write_trace(args, &mut out, &spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_seed_and_client() {
        let h = |seed, client| stream_hash(&generate(seed, client, 2000, 8000, 400, 200));
        assert_eq!(h(1, 0), h(1, 0));
        assert_ne!(h(1, 0), h(2, 0));
        assert_ne!(h(1, 0), h(1, 1));
    }

    #[test]
    fn clients_never_share_a_hired_key_or_a_reassigned_row() {
        let streams: Vec<Vec<Op>> = (0..2).map(|c| generate(9, c, 5000, 800, 40, 20)).collect();
        let mut hired = std::collections::BTreeSet::new();
        for (c, ops) in streams.iter().enumerate() {
            for op in ops {
                match op {
                    Op::Hire { eno, .. } => assert!(hired.insert(*eno), "eno {eno} hired twice"),
                    Op::Reassign { eno, .. } => {
                        assert_eq!(*eno as usize % CLIENTS, c);
                        assert!((0..800).contains(eno));
                    }
                    Op::RaisePair { a, b, .. } => assert_ne!(a, b),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn replay_conserves_salaries_and_skips_rollbacks() {
        let mut model = Paper::generate(&mut Rng::new(1), 40, 20);
        let before: i64 = model.emps.values().map(|e| e.sal).sum();
        let ops = generate(4, 0, 3000, 800, 40, 20);
        let mut hired = 0;
        for op in &ops {
            if let Op::Hire {
                emp,
                rollback: false,
                ..
            } = op
            {
                hired += emp.sal;
            }
            apply(&mut model, op);
        }
        let after: i64 = model.pay().values().map(|(_, t)| t).sum();
        assert_eq!(after, before + hired);
    }
}
