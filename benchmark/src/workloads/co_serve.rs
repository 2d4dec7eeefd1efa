//! `co_serve`: one client fetching and navigating composite objects.
//!
//! The paper's headline path. The Fig. 1 database fits the buffer pool and
//! nothing writes, so the executor and the client-cache swizzle do the work
//! in `co_fetch`, the front end adds its share in `adhoc`, and the write
//! path, the log and view maintenance do none: every write-path
//! optimisation should leave this workload where it is. With one client
//! the counts of the traced pass repeat exactly.

use std::hint::black_box;

use super::paper::{co_of_dept, Paper, Shape};
use super::{
    build_timed, closed_loop, frontend_metrics, peak_rss_mb, ratio, set_class_metrics,
    set_counter_metrics, set_exec_metrics, set_session_floor_metrics, set_span_median,
    set_trace_overhead, summarize, write_trace, ChildArgs, Client, ClientLog, Outcome,
};
use crate::engine::{swizzle, Engine, ExecTotals, HandPlan, Prepared, Result, Session, Value};
use crate::gen::{Rng, StreamHash};
use crate::json::Json;

pub const CLIENTS: usize = 1;
pub const CLASSES: [&str; 3] = ["co_fetch", "adhoc", "navigate"];
const CO_FETCH: u8 = 0;
const ADHOC: u8 = 1;
const NAVIGATE: u8 = 2;
/// Share of each class in the stream, in percent.
const MIX: [u64; 3] = [40, 25, 35];
/// The stream is read-only, so a client that reaches its end starts over.
const STREAM_OPS: usize = 4096;
/// Operations of a window of `RUN_SECONDS`, frozen at the commit that
/// introduced the benchmark.
const WINDOW_OPS: usize = 1200;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Prepared `OUT OF … TAKE * WHERE xdept.dno = ?`.
    CoFetch { dept: i64 },
    /// The same text with the literal inlined: a statement the plan cache
    /// has not seen (or has already evicted), compiled from scratch.
    Adhoc { dept: i64 },
    /// Walk the workspace fetched last.
    Navigate,
}

pub fn generate(seed: u64, depts: u64) -> Vec<Op> {
    let mut rng = Rng::lane(seed, 1);
    // Ad-hoc literals come round-robin from a permutation of every
    // department: with more departments than plan-cache slots, an LRU
    // cache never still holds the statement when its turn comes again.
    let cycle = Rng::lane(seed, 2).permutation(depts);
    let mut adhoc = 0;
    (0..STREAM_OPS)
        .map(|_| {
            let roll = rng.below(100);
            if roll < MIX[0] {
                Op::CoFetch {
                    dept: rng.below(depts) as i64,
                }
            } else if roll < MIX[0] + MIX[1] {
                adhoc += 1;
                Op::Adhoc {
                    dept: cycle[(adhoc - 1) % cycle.len()] as i64,
                }
            } else {
                Op::Navigate
            }
        })
        .collect()
}

pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = StreamHash::default();
    for op in ops {
        match *op {
            Op::CoFetch { dept } => {
                h.word(0);
                h.word(dept as u64);
            }
            Op::Adhoc { dept } => {
                h.word(1);
                h.word(dept as u64);
            }
            Op::Navigate => h.word(2),
        }
    }
    h.finish()
}

/// The workspace the next `navigate` walks, and whose department it is.
struct Current {
    dept: usize,
    ws: crate::engine::CoCache,
}

struct CoClient<'a> {
    eng: &'a Engine,
    session: Session<'a>,
    fetch: Prepared<'a>,
    /// `Some` in the traced pass: operations then go through the layers'
    /// public entry points by hand instead of through the session.
    hand: Option<HandPlan>,
    shapes: &'a [Shape],
    ops: &'a [Op],
    pos: usize,
    current: Current,
    exec: ExecTotals,
    cos: u64,
    co_tuples: u64,
    nav_tuples: u64,
}

impl<'a> CoClient<'a> {
    fn new(eng: &'a Engine, shapes: &'a [Shape], ops: &'a [Op]) -> Result<CoClient<'a>> {
        let session = eng.session();
        let mut fetch = session.prepare(&co_of_dept("?"))?;
        let ws = fetch.bind(&[Value::Int(0)])?.fetch_co()?;
        Ok(CoClient {
            eng,
            session,
            fetch,
            hand: None,
            shapes,
            ops,
            pos: 0,
            current: Current { dept: 0, ws },
            exec: ExecTotals::default(),
            cos: 0,
            co_tuples: 0,
            nav_tuples: 0,
        })
    }

    fn check_shape(
        &mut self,
        log: &mut ClientLog,
        what: &str,
        dept: i64,
        tuples: usize,
        conns: usize,
    ) {
        let want = self.shapes[dept as usize];
        log.check(
            tuples == want.tuples() && conns == want.connections(),
            || {
                format!(
                    "{what}(dept {dept}): {tuples} tuples / {conns} connections, model has {} / {}",
                    want.tuples(),
                    want.connections()
                )
            },
        );
        self.cos += 1;
        self.co_tuples += tuples as u64;
    }

    fn fetch(&mut self, log: &mut ClientLog, class: u8, dept: i64) -> Result<()> {
        let co = if class == CO_FETCH {
            self.fetch.bind(&[Value::Int(dept)])?.fetch_co()?
        } else {
            self.session
                .prepare(&co_of_dept(&dept.to_string()))?
                .fetch_co()?
        };
        let (t, c) = (co.workspace.tuple_count(), co.workspace.connection_count());
        self.check_shape(log, CLASSES[class as usize], dept, t, c);
        self.current = Current {
            dept: dept as usize,
            ws: co,
        };
        Ok(())
    }

    /// The same operation driven by hand, one span per layer.
    fn fetch_by_hand(
        &mut self,
        log: &mut ClientLog,
        root: Option<usize>,
        op: u64,
        class: u8,
        dept: i64,
    ) -> Result<()> {
        let t = log.tracer.as_mut().expect("traced pass");
        let adhoc;
        let (plan, params) = if class == CO_FETCH {
            (
                self.hand.as_ref().expect("traced pass"),
                vec![Value::Int(dept)],
            )
        } else {
            adhoc = self
                .eng
                .compile_by_hand(&co_of_dept(&dept.to_string()), t, root, op)?
                .expect("an XNF query");
            (&adhoc, Vec::new())
        };
        let result = self.eng.execute_by_hand(plan, &params, t, root, op)?;
        self.exec.add(&result);
        let ws = swizzle(&result, t, root, op)?;
        let (tuples, conns) = (ws.tuple_count(), ws.connection_count());
        self.current.dept = dept as usize;
        self.current.ws.workspace = ws;
        self.check_shape(log, CLASSES[class as usize], dept, tuples, conns);
        Ok(())
    }

    /// Independent cursor over the root, dependent cursors two levels down,
    /// and one path expression.
    fn navigate(&mut self, log: &mut ClientLog) -> Result<()> {
        let ws = &self.current.ws.workspace;
        let mut walked = 0usize;
        for dept in ws.independent("xdept")? {
            walked += 1;
            for emp in dept.children("employment")? {
                walked += 1;
                for skill in emp.children("empproperty")? {
                    black_box(skill.id());
                    walked += 1;
                }
            }
        }
        let reached = ws.path("xdept.ownership.xproj.projproperty.xskills")?.len();
        let want = self.shapes[self.current.dept];
        let want_walked = 1 + want.emps * (1 + super::paper::SKILLS_PER_EMP);
        log.check(walked == want_walked && reached == want.proj_skills, || {
            format!(
                "navigate(dept {}): walked {walked}, reached {reached}; model has {want_walked}, {}",
                self.current.dept, want.proj_skills
            )
        });
        self.nav_tuples += (walked + reached) as u64;
        Ok(())
    }
}

impl Client for CoClient<'_> {
    fn step(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64) -> Option<u8> {
        let next = self.ops[self.pos % self.ops.len()];
        self.pos += 1;
        let (class, done) = match next {
            Op::CoFetch { dept } | Op::Adhoc { dept } => {
                let class = if matches!(next, Op::CoFetch { .. }) {
                    CO_FETCH
                } else {
                    ADHOC
                };
                let done = if self.hand.is_some() {
                    self.fetch_by_hand(log, root, op, class, dept)
                } else {
                    self.fetch(log, class, dept)
                };
                (class, done)
            }
            Op::Navigate => {
                let span = log
                    .tracer
                    .as_mut()
                    .map(|t| t.begin("core.cache.navigate", root, op));
                let done = self.navigate(log);
                if let (Some(t), Some(id)) = (log.tracer.as_mut(), span) {
                    t.end(id);
                }
                (NAVIGATE, done)
            }
        };
        if let Err(e) = done {
            log.fail(format!("{}: {e}", CLASSES[class as usize]));
        }
        Some(class)
    }
}

pub fn run(args: &ChildArgs) -> Outcome {
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };
    let depts = args.sized(400, 4);
    let mut warm = ClientLog::default();
    // Set-up: generate, load, index, ANALYZE, evaluate the model, and run
    // every statement shape once.
    let (eng, shapes, ops) = build_timed(args, &mut out, 5, |_| {
        let eng = Engine::in_memory();
        let data = Paper::generate(&mut Rng::lane(args.seed, 0), depts, args.sized(200, 8));
        data.load(&eng.session()).expect("load the Fig. 1 database");
        let shapes = data.shapes();
        let ops = generate(args.seed, depts);
        let mut client = CoClient::new(&eng, &shapes, &ops).expect("prepare the CO query");
        client.fetch(&mut warm, CO_FETCH, 0).expect("warm-up fetch");
        client.navigate(&mut warm).expect("warm-up navigate");
        // The ad-hoc warm-up names a department that does not exist, so no
        // statement of the stream is in the plan cache when the window
        // opens.
        client
            .session
            .prepare(&co_of_dept("-1"))
            .and_then(|mut q| q.fetch_co())
            .expect("warm-up ad-hoc fetch");
        drop(client);
        (eng, shapes, ops)
    });
    out.failed += warm.failed;
    out.failures.append(&mut warm.failures);
    let mut client = CoClient::new(&eng, &shapes, &ops).expect("prepare the CO query");
    out.note(
        "stream_hash",
        Json::str(format!("{:016x}", stream_hash(&ops))),
    );
    out.note("departments", Json::Num(depts as f64));
    out.note("dop", Json::Num(eng.dop() as f64));

    let window_ops = args.window_ops(WINDOW_OPS, 4);
    if !args.trace {
        let window = closed_loop(
            std::slice::from_mut(&mut client),
            window_ops,
            args.window_cap(),
            false,
        );
        window.report_into(&mut out);
        summarize(&mut out, &window, &CLASSES, (&[CO_FETCH], &[ADHOC]));
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // Traced run: an untraced reference window of half the operations,
    // then a quarter of them from the start of the stream, driven by hand.
    let before = eng.counters();
    let reference = closed_loop(
        std::slice::from_mut(&mut client),
        window_ops / 2,
        args.window_cap(),
        false,
    );
    reference.report_into(&mut out);
    let in_reference = eng.counters().since(&before);
    let nav_ns: u64 = reference.logs[0]
        .samples
        .iter()
        .filter(|s| s.class == NAVIGATE)
        .map(|s| s.dur_ns)
        .sum();
    let nav_tuples = client.nav_tuples;

    let mut scratch = crate::trace::Tracer::new(std::time::Instant::now());
    client.hand = eng
        .compile_by_hand(&co_of_dept("?"), &mut scratch, None, 0)
        .expect("compile the CO query by hand");
    client.pos = 0;
    client.exec = ExecTotals::default();
    (client.cos, client.co_tuples) = (0, 0);
    let before = eng.counters();
    let mut traced = closed_loop(
        std::slice::from_mut(&mut client),
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
        "core.session.",
        &CLASSES,
        &[CO_FETCH],
        &[ADHOC],
    );
    set_counter_metrics(&mut out, &in_traced, traced.attempted(), 0, 0);
    // The traced pass bypasses the session, so the plan cache is only
    // exercised by the reference window.
    out.set(
        "core.session.plan_cache_hit_ratio",
        ratio(
            in_reference.plan_hits,
            in_reference.plan_hits + in_reference.plan_misses,
        ),
    );
    set_exec_metrics(&mut out, &client.exec);
    set_span_median(&mut out, &spans, "exec.execute_us", "exec.execute");
    set_span_median(
        &mut out,
        &spans,
        "core.cache.swizzle_us",
        "core.cache.swizzle",
    );
    out.set(
        "core.cache.tuples_per_co",
        ratio(client.co_tuples, client.cos),
    );
    out.set(
        "core.cache.navigate_tuples_per_s",
        if nav_ns == 0 {
            0.0
        } else {
            nav_tuples as f64 / (nav_ns as f64 / 1e9)
        },
    );
    set_session_floor_metrics(&mut out, &client.session, &co_of_dept("?"));
    set_trace_overhead(&mut out, &reference, &traced);
    frontend_metrics(
        &mut out,
        &eng,
        &[co_of_dept("?"), co_of_dept("7")],
        &mut spans,
    );
    write_trace(args, &mut out, &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        assert_eq!(
            stream_hash(&generate(1, 400)),
            stream_hash(&generate(1, 400))
        );
        assert_ne!(
            stream_hash(&generate(1, 400)),
            stream_hash(&generate(2, 400))
        );
    }

    #[test]
    fn adhoc_literals_cycle_through_every_department() {
        let ops = generate(3, 50);
        let adhoc: Vec<i64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Adhoc { dept } => Some(*dept),
                _ => None,
            })
            .collect();
        let mut first = adhoc[..50].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..50).collect::<Vec<_>>());
        assert_eq!(adhoc[..50], adhoc[50..100]);
    }
}
