//! The four workloads and the closed-loop driver they share.
//!
//! Every workload is a closed loop with a stated client count: a client
//! sends its next operation only after the previous one completed, because
//! the engine is an embedded library whose callers wait for each reply.
//! Operations come from a stream generated from the seed before the timed
//! window opens.

pub mod analytic;
pub mod co_serve;
pub mod durable_kv;
pub mod oltp_views;
pub mod paper;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::engine::{is_conflict, Result as EngineResult};
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};

/// What one workload process is asked to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// Table sizes are divided by this (1 for a measured run, 100 for
    /// `check`).
    pub shrink: u64,
}

/// `run_seconds` of `BENCHMARK.json`: the window length the workloads'
/// frozen operation counts were calibrated for on the reference host.
pub const RUN_SECONDS: f64 = 15.0;

impl ChildArgs {
    pub fn sized(&self, full: u64, floor: u64) -> u64 {
        (full / self.shrink).max(floor)
    }

    /// Operations in a window: the workload's frozen count for a window of
    /// `RUN_SECONDS`, in proportion to `--seconds`, rounded down to a
    /// multiple of `unit` (so that a half and a quarter of a window are
    /// whole rotations too). The same `--seconds` gives the same work on
    /// any host and any engine; nothing is scaled while the run goes.
    pub fn window_ops(&self, at_run_seconds: usize, unit: usize) -> usize {
        let ops = (at_run_seconds as f64 * self.seconds / RUN_SECONDS) as usize;
        (ops / unit).max(1) * unit
    }

    /// A window that has not finished its operations by then is stopped and
    /// fails the run: it did not measure the work it was asked to. Four
    /// times `--seconds`, so only a run several times slower than the
    /// calibration meets it, but never so long that the run outlasts the
    /// three minutes a driver gives it.
    pub fn window_cap(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 4.0).clamp(10.0, 150.0))
    }
}

/// What a workload process reports back.
#[derive(Default)]
pub struct Outcome {
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Per operation class: count and latency percentiles, for the printed
    /// report.
    pub classes: Vec<(String, LaneStats)>,
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// In the order `--workload all` runs them: `durable_kv` last, because it
/// ends by deleting some 150 MB of files, and a run started straight after
/// that was seen at half its speed.
pub const NAMES: [&str; 4] = ["co_serve", "oltp_views", "analytic", "durable_kv"];

/// The workloads `BENCHMARK.json` lists, whose end-to-end metrics carry
/// regression bounds. `durable_kv` runs, is checked and is reported like
/// the others, but is not gated. The benchmark contract has every listed
/// workload hold every end-to-end metric within its bound, and on the
/// reference box `durable_kv`'s throughput and write latency follow the
/// virtual disk's fsync speed: they spread by 19–92% within a set and
/// their medians move by a third between sets (`baseline/`). Only its
/// `peak_rss_mb` and write amplification repeat.
pub const GATED: [&str; 3] = ["co_serve", "oltp_views", "analytic"];

pub fn run(args: &ChildArgs) -> Outcome {
    match args.workload.as_str() {
        "co_serve" => co_serve::run(args),
        "oltp_views" => oltp_views::run(args),
        "durable_kv" => durable_kv::run(args),
        "analytic" => analytic::run(args),
        other => panic!("unknown workload '{other}'"),
    }
}

// ---------------------------------------------------------------------------
// closed-loop driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: u8,
    pub dur_ns: u64,
}

/// What one client recorded during one window.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub failures: Vec<String>,
    pub retries: u64,
    pub commits: u64,
    pub tracer: Option<Tracer>,
}

impl ClientLog {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// One closed-loop client: `step` runs the next operation of its stream
/// and returns its class, or `None` once the stream is used up. `root` is
/// the operation's root span when the pass is traced.
pub trait Client: Send {
    fn step(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64) -> Option<u8>;
}

pub struct Window {
    pub logs: Vec<ClientLog>,
    pub wall: Duration,
    /// Operations the window was to run.
    pub ops: usize,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.samples.len() as u64).sum()
    }

    pub fn retries(&self) -> u64 {
        self.logs.iter().map(|l| l.retries).sum()
    }

    pub fn commits(&self) -> u64 {
        self.logs.iter().map(|l| l.commits).sum()
    }

    /// Operations completed per second of window.
    pub fn throughput(&self) -> f64 {
        self.attempted() as f64 / self.wall.as_secs_f64()
    }

    pub fn spans(&mut self) -> Vec<Span> {
        crate::trace::merge(
            self.logs
                .iter_mut()
                .filter_map(|l| l.tracer.take())
                .collect(),
        )
    }

    /// Fold the window's failures into the outcome. A window cut short by
    /// its cap is one: its numbers are not of the work that was asked for.
    pub fn report_into(&self, out: &mut Outcome) {
        out.attempted += self.attempted();
        if self.attempted() < self.ops as u64 {
            out.fail(format!(
                "the window was stopped at its cap after {} of {} operations",
                self.attempted(),
                self.ops
            ));
        }
        for log in &self.logs {
            out.failed += log.failed;
            for f in &log.failures {
                if out.failures.len() < 16 {
                    out.failures.push(f.clone());
                }
            }
        }
    }
}

/// Drive `clients` in parallel, one thread each, until they have run `ops`
/// operations between them (or `cap` has passed). All clients start
/// together and draw on the one count, so they also end together, within
/// an operation; each times its own operations.
pub fn closed_loop<C: Client>(
    clients: &mut [C],
    ops: usize,
    cap: Duration,
    traced: bool,
) -> Window {
    let barrier = Barrier::new(clients.len() + 1);
    let claimed = AtomicUsize::new(0);
    let mut logs = Vec::new();
    let mut wall = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                let (barrier, claimed) = (&barrier, &claimed);
                scope.spawn(move || {
                    barrier.wait();
                    // Each client's clock starts as it leaves the barrier,
                    // within a scheduling quantum of the others'.
                    let epoch = Instant::now();
                    let mut log = ClientLog {
                        tracer: traced.then(|| Tracer::new(epoch)),
                        ..ClientLog::default()
                    };
                    let mut n = 0u64;
                    // The count only meters work out; it publishes nothing.
                    while claimed.fetch_add(1, Ordering::Relaxed) < ops && epoch.elapsed() < cap {
                        let op = ((id as u64) << 40) | n;
                        let root = log.tracer.as_mut().map(|t| t.begin("op", None, op));
                        let t0 = Instant::now();
                        let Some(class) = client.step(&mut log, root, op) else {
                            if let (Some(t), Some(r)) = (log.tracer.as_mut(), root) {
                                t.spans.truncate(r);
                            }
                            break;
                        };
                        let dur = t0.elapsed();
                        if let (Some(t), Some(r)) = (log.tracer.as_mut(), root) {
                            t.end(r);
                        }
                        log.samples.push(Sample {
                            class,
                            dur_ns: dur.as_nanos() as u64,
                        });
                        n += 1;
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        wall = start.elapsed();
    });
    Window { logs, wall, ops }
}

/// Run `body` until it commits, retrying first-writer-wins conflicts (the
/// body has rolled its transaction back). Backs off after a few tries: the
/// conflicting row is often held by a commit queued behind view
/// maintenance, and spinning against it only deepens the run queue.
pub fn retry_conflicts(
    log: &mut ClientLog,
    mut body: impl FnMut(&mut ClientLog) -> EngineResult<()>,
) -> EngineResult<()> {
    let mut tries = 0u32;
    loop {
        match body(log) {
            Ok(()) => return Ok(()),
            Err(e) if is_conflict(&e) && tries < 10_000 => {
                tries += 1;
                log.retries += 1;
                if tries < 4 {
                    std::thread::yield_now();
                } else {
                    let us = (20u64 << tries.min(10)).min(2_000);
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// summaries
// ---------------------------------------------------------------------------

/// Exact order statistics of one lane's raw per-operation samples over the
/// whole window.
#[derive(Debug, Default, Clone, Copy)]
pub struct LaneStats {
    pub count: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Latency statistics of the operations whose class is in `classes`.
pub fn lane_stats(window: &Window, classes: &[u8]) -> LaneStats {
    let mut durs: Vec<u64> = window
        .logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| classes.contains(&s.class))
        .map(|s| s.dur_ns)
        .collect();
    durs.sort_unstable();
    let at = |q: f64| percentile(&durs, q).map_or(0.0, us);
    LaneStats {
        count: durs.len() as u64,
        p50_us: at(0.50),
        p95_us: at(0.95),
        p99_us: at(0.99),
        p999_us: at(0.999),
        max_us: durs.last().copied().map_or(0.0, us),
    }
}

/// Fill the end-to-end throughput and lane metrics and the per-class table
/// from the timed window.
pub fn summarize(
    out: &mut Outcome,
    window: &Window,
    class_names: &[&str],
    (primary, secondary): (&[u8], &[u8]),
) {
    for (i, name) in class_names.iter().enumerate() {
        out.classes
            .push((name.to_string(), lane_stats(window, &[i as u8])));
    }
    let (p, s) = (lane_stats(window, primary), lane_stats(window, secondary));
    out.set("throughput_ops_s", window.throughput());
    out.set("primary_p50_us", p.p50_us);
    out.set("secondary_p50_us", s.p50_us);
    // The lanes' tails are per-layer metrics (`bench.*`, from the traced
    // run): they do not repeat within a tenth from run to run. The result
    // file keeps this window's for the record.
    out.note("primary_p95_us", Json::Num(p.p95_us));
    out.note("secondary_p95_us", Json::Num(s.p95_us));
    out.note("window_s", Json::Num(window.wall.as_secs_f64()));
}

/// Median duration, in microseconds, of `reps` runs of `f`.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut durs: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    durs.sort_unstable();
    percentile(&durs, 0.5).map_or(0.0, us)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------------
// per-layer metrics shared by the workloads (traced runs)
// ---------------------------------------------------------------------------

use crate::engine::{Counters, Engine, ExecTotals, Session, PAGE_SIZE};
use crate::trace::by_layer;

/// Span-id range of the statement-corpus pass, apart from client op ids.
const CORPUS_OP: u64 = 1 << 60;

/// Run the front end by hand over the workload's statement corpus and set
/// `sql.parse_us`, `qgm.build_us`, `rewrite.rewrite_us`, `plan.plan_us`
/// (median per call) and `rewrite.rules_fired` (per pass over the corpus).
/// Its spans are appended to `spans`.
pub fn frontend_metrics(out: &mut Outcome, eng: &Engine, corpus: &[String], spans: &mut Vec<Span>) {
    const REPS: u64 = 20;
    let mut t = Tracer::new(Instant::now());
    let mut rules = 0;
    for rep in 0..REPS {
        for (i, text) in corpus.iter().enumerate() {
            let op = CORPUS_OP | (rep << 20) | i as u64;
            let root = t.begin("frontend", None, op);
            match eng.compile_by_hand(text, &mut t, Some(root), op) {
                Ok(plan) if rep == 0 => rules += plan.map_or(0, |p| p.rules_fired),
                Ok(_) => {}
                Err(e) => out.fail(format!("front end rejected corpus statement {i}: {e}")),
            }
            t.end(root);
        }
    }
    let layers = by_layer(&t.spans);
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("qgm.build_us", "qgm.build"),
        ("rewrite.rewrite_us", "rewrite.rewrite"),
        ("plan.plan_us", "plan.plan"),
    ] {
        let v = layers
            .get(span)
            .and_then(|l| percentile(&l.durs, 0.5))
            .map_or(0.0, us);
        out.set(metric, v);
    }
    out.set("rewrite.rules_fired", rules as f64);
    crate::trace::append(spans, t);
}

/// Median duration of the spans called `span`, as metric `metric`.
pub fn set_span_median(out: &mut Outcome, spans: &[Span], metric: &str, span: &str) {
    let mut durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == span)
        .map(Span::dur_ns)
        .collect();
    durs.sort_unstable();
    out.set(metric, percentile(&durs, 0.5).map_or(0.0, us));
}

/// `<prefix><class>_p50_us` / `_p99_us` for every class and the tails of
/// the two end-to-end lanes, from the untraced reference window.
pub fn set_class_metrics(
    out: &mut Outcome,
    window: &Window,
    prefix: &str,
    class_names: &[&str],
    primary: &[u8],
    secondary: &[u8],
) {
    for (i, name) in class_names.iter().enumerate() {
        let l = lane_stats(window, &[i as u8]);
        out.set(&format!("{prefix}{name}_p50_us"), l.p50_us);
        out.set(&format!("{prefix}{name}_p99_us"), l.p99_us);
        out.classes.push((name.to_string(), l));
    }
    for (lane, classes) in [("primary", primary), ("secondary", secondary)] {
        let l = lane_stats(window, classes);
        out.set(&format!("bench.{lane}_p95_us"), l.p95_us);
        out.set(&format!("bench.{lane}_p99_us"), l.p99_us);
        out.set(&format!("bench.{lane}_p999_us"), l.p999_us);
        out.set(&format!("bench.{lane}_max_us"), l.max_us);
    }
}

/// Ratios from the engine's counter surfaces, differenced over a pass of
/// `ops` operations of which `commits` were committed write transactions.
pub fn set_counter_metrics(out: &mut Outcome, c: &Counters, ops: u64, commits: u64, retries: u64) {
    out.set(
        "core.session.plan_cache_hit_ratio",
        ratio(c.plan_hits, c.plan_hits + c.plan_misses),
    );
    out.set("core.session.retries_per_commit", ratio(retries, commits));
    out.set(
        "core.matview.maint_us_per_commit",
        ratio(c.maint_us, commits),
    );
    out.set(
        "core.matview.roots_respliced_per_commit",
        ratio(c.maint_roots, commits),
    );
    out.set(
        "core.matview.nodes_reused_per_root",
        ratio(c.maint_nodes_reused, c.maint_roots),
    );
    out.set("storage.vacuum.runs", c.gc_runs as f64);
    out.set(
        "storage.vacuum.versions_reclaimed_per_commit",
        ratio(c.gc_versions_reclaimed, commits),
    );
    out.set("storage.wal.bytes_per_commit", ratio(c.wal_bytes, commits));
    out.set(
        "storage.wal.records_per_commit",
        ratio(c.wal_records, commits),
    );
    out.set(
        "storage.wal.fsyncs_per_commit",
        ratio(c.wal_fsyncs, commits),
    );
    out.set(
        "storage.wal.group_commit_size",
        ratio(c.wal_commits, c.wal_batches),
    );
    out.set("storage.wal.checkpoints", c.wal_checkpoints as f64);
    out.set(
        "storage.buffer.hit_ratio",
        ratio(c.buf_hits, c.buf_hits + c.buf_misses),
    );
    out.set(
        "storage.buffer.evictions_per_op",
        ratio(c.buf_evictions, ops),
    );
    out.set(
        "storage.buffer.dirty_writebacks_per_op",
        ratio(c.buf_dirty_writebacks, ops),
    );
    out.set("storage.disk.page_reads_per_op", ratio(c.disk_reads, ops));
    out.set(
        "storage.disk.page_writes_per_commit",
        ratio(c.disk_writes, commits),
    );
    out.set("storage.disk.dw_batches", c.disk_dw_batches as f64);
    out.set(
        "storage.disk.pages_verified_per_op",
        ratio(c.disk_pages_verified, ops),
    );
}

/// Executor counters summed over a pass's query results.
pub fn set_exec_metrics(out: &mut Outcome, e: &ExecTotals) {
    out.set(
        "exec.rows_scanned_per_row_emitted",
        ratio(e.rows_scanned, e.rows_emitted),
    );
    out.set("exec.batches_emitted", e.batches_emitted as f64);
    out.set(
        "exec.rows_skipped_visibility",
        e.rows_skipped_visibility as f64,
    );
    out.set("exec.parallel_regions", e.parallel_regions as f64);
    out.set("exec.morsels_dispatched", e.morsels_dispatched as f64);
}

/// Session-level floors, timed with no other client running: `prepare` of
/// a cached statement (normalize + lookup under the cache mutex) and an
/// empty begin + rollback.
pub fn set_session_floor_metrics(out: &mut Outcome, s: &Session<'_>, cached_text: &str) {
    let mut ok = true;
    out.set(
        "core.session.prepare_cached_us",
        median_us(200, || ok &= s.prepare(cached_text).is_ok()),
    );
    out.set(
        "core.session.begin_us",
        median_us(200, || ok &= s.begin().is_ok() && s.rollback().is_ok()),
    );
    out.check(ok, || "session floor probes failed".to_string());
}

/// Throughput lost to tracing, in percent of the untraced reference.
pub fn set_trace_overhead(out: &mut Outcome, reference: &Window, traced: &Window) {
    let (base, with) = (reference.throughput(), traced.throughput());
    out.set("bench.reference_ops_s", base);
    out.set("bench.traced_ops", traced.attempted() as f64);
    out.set(
        "bench.trace_overhead_pct",
        if base > 0.0 {
            (1.0 - with / base) * 100.0
        } else {
            0.0
        },
    );
}

/// Bytes the engine wrote to storage per page write: the page itself and
/// its double-write image.
pub const BYTES_PER_PAGE_WRITE: u64 = 2 * PAGE_SIZE as u64;

/// Write a traced pass's spans to `<out>/<workload>.trace.json`.
pub fn write_trace(args: &ChildArgs, out: &mut Outcome, spans: &[Span]) {
    let path = args.out.join(format!("{}.trace.json", args.workload));
    let body = crate::trace::to_json(&args.workload, spans).compact();
    match std::fs::write(&path, body) {
        Ok(()) => out.note("trace_file", Json::str(path.display().to_string())),
        Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
    }
    let layers = by_layer(spans);
    out.note(
        "self_time_us",
        Json::Obj(
            layers
                .iter()
                .map(|(name, l)| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("spans", Json::Num(l.count as f64)),
                            ("total_us", Json::Num(us(l.total_ns))),
                            ("self_us", Json::Num(us(l.self_ns))),
                        ]),
                    )
                })
                .collect(),
        ),
    );
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// Build the workload's world `runs` times (once when traced), one database
/// after another in the workload's process, timing each build, and keep the
/// last; `setup_s` is the median. Each earlier world is torn down before
/// the next build's clock starts.
pub fn build_timed<W>(
    args: &ChildArgs,
    out: &mut Outcome,
    runs: usize,
    mut build: impl FnMut(usize) -> W,
) -> W {
    let runs = if args.trace { 1 } else { runs };
    let mut times = Vec::with_capacity(runs);
    let mut world = None;
    for i in 0..runs {
        drop(world.take());
        let t = Instant::now();
        world = Some(build(i));
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times).unwrap_or(0.0));
    out.note(
        "setups_s",
        Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
    );
    world.expect("at least one build")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose operations take no time and alternate two classes.
    struct Ticker(u64);

    impl Client for Ticker {
        fn step(&mut self, _: &mut ClientLog, _: Option<usize>, _: u64) -> Option<u8> {
            self.0 += 1;
            Some((self.0 % 2) as u8)
        }
    }

    fn args(seconds: f64) -> ChildArgs {
        ChildArgs {
            workload: String::new(),
            seed: 1,
            seconds,
            trace: false,
            out: PathBuf::new(),
            shrink: 1,
        }
    }

    #[test]
    fn clients_share_one_fixed_operation_count() {
        let mut clients = [Ticker(0), Ticker(0)];
        let w = closed_loop(&mut clients, 1001, Duration::from_secs(60), false);
        assert_eq!(w.attempted(), 1001);
        assert_eq!(clients[0].0 + clients[1].0, 1001);
        let mut out = Outcome::default();
        w.report_into(&mut out);
        assert_eq!((out.attempted, out.failed), (1001, 0));
    }

    #[test]
    fn a_window_stopped_at_its_cap_fails_the_run() {
        let mut clients = [Ticker(0)];
        let w = closed_loop(&mut clients, usize::MAX, Duration::from_millis(5), false);
        assert!(w.attempted() > 0);
        let mut out = Outcome::default();
        w.report_into(&mut out);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
    }

    #[test]
    fn window_operations_follow_seconds_in_whole_units() {
        assert_eq!(args(RUN_SECONDS).window_ops(1200, 4), 1200);
        assert_eq!(args(RUN_SECONDS / 2.0).window_ops(1200, 4), 600);
        // 288 * 10 / 15 = 192, a whole number of 24-operation units.
        assert_eq!(args(10.0).window_ops(288, 24), 192);
        assert_eq!(args(11.0).window_ops(288, 24), 192);
        // Never less than one unit.
        assert_eq!(args(0.01).window_ops(288, 24), 24);
    }

    #[test]
    fn lane_statistics_are_exact_over_the_whole_window() {
        let samples = (1..=200u64)
            .map(|i| Sample {
                class: (i % 2) as u8,
                dur_ns: i * 1_000,
            })
            .collect();
        let w = Window {
            logs: vec![ClientLog {
                samples,
                ..ClientLog::default()
            }],
            wall: Duration::from_secs(4),
            ops: 200,
        };
        // Class 0 holds the even durations 2, 4, …, 200 µs.
        let even = lane_stats(&w, &[0]);
        assert_eq!((even.count, even.p50_us, even.p95_us), (100, 100.0, 190.0));
        assert_eq!((even.p99_us, even.max_us), (198.0, 200.0));
        let both = lane_stats(&w, &[0, 1]);
        assert_eq!((both.count, both.p50_us, both.p95_us), (200, 100.0, 190.0));
        assert_eq!(w.throughput(), 50.0);
    }
}
