//! `durable_kv`: two clients issuing single-statement transactions against
//! a file-backed table about four times the size of the buffer pool.
//!
//! The log (append, group commit, fsync), the buffer pool (eviction,
//! write-back), the page file (double-write, checkpoints) and recovery do
//! most of the work; statements are prepared, so the front end is bypassed
//! and the executor is trivial. Two clients, so group commit has something
//! to group. Flush policy: fsync on every commit, double-write on,
//! automatic checkpoints live (all `DbConfig::default()`).
//!
//! At quiesce the data directory is copied as it stands — no checkpoint, so
//! the copy is what a SIGKILL would leave: the durable log plus whatever
//! pages happened to be written back — and reopened; every acknowledged
//! write must be there.
//!
//! Oracle contract: updates are additive, inserts carry keys unique across
//! clients, conflicted statements retry, so the final table is the model's
//! replay of the executed prefix of each stream under any interleaving.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{
    build_timed, closed_loop, frontend_metrics, peak_rss_mb, ratio, retry_conflicts,
    set_class_metrics, set_counter_metrics, set_exec_metrics, set_session_floor_metrics,
    set_span_median, set_trace_overhead, summarize, write_trace, ChildArgs, Client, ClientLog,
    Outcome, BYTES_PER_PAGE_WRITE,
};
use crate::engine::{
    Counters, Engine, ExecTotals, Prepared, Result, ScratchWal, Session, Value, PAGE_SIZE,
};
use crate::gen::{Rng, StreamHash, Zipfian};
use crate::json::Json;

pub const CLIENTS: usize = 2;
pub const CLASSES: [&str; 3] = ["update", "insert", "read"];
const UPDATE: u8 = 0;
const INSERT: u8 = 1;
const READ: u8 = 2;
/// Share of each class in the stream, in percent.
const MIX: [u64; 3] = [45, 10, 45];
/// Key choice is scrambled Zipfian with this skew: the hot keys' pages stay
/// in the pool, the tail's do not.
const THETA: f64 = 0.9;
/// Rows loaded before the window: about 32 MB against an 8 MiB pool.
const ROWS: u64 = 250_000;
const LOAD_BATCH: u64 = 1000;
const PAD_LEN: usize = 100;
/// User bytes of one row: two 8-byte integers and the pad.
const ROW_BYTES: u64 = 16 + PAD_LEN as u64;
/// `big_kv` selects rows above this; initial values are uniform in 0..1000.
const BIG: i64 = 900;
/// Operations of a window of `RUN_SECONDS`, both clients together, frozen
/// at the commit that introduced the benchmark. The table grows with every
/// insert and the log with every write, so work per operation depends on
/// the position in the stream: a fixed count is what keeps parent and
/// change on the same work.
const WINDOW_OPS: usize = 9600;

const UPDATE_SQL: &str = "UPDATE KV SET v0 = v0 + ? WHERE k = ?";
const INSERT_SQL: &str = "INSERT INTO KV VALUES (?, ?, ?)";
const READ_SQL: &str = "SELECT v0, pad FROM KV WHERE k = ?";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Update { k: i64, delta: i64 },
    Insert { k: i64, v0: i64 },
    Read { k: i64 },
}

pub fn generate(seed: u64, client: u64, n: usize, rows: u64) -> Vec<Op> {
    let mut rng = Rng::lane(seed, 20 + client);
    let zipf = Zipfian::new(rows, THETA);
    let mut inserts = 0;
    (0..n)
        .map(|_| {
            let roll = rng.below(100);
            if roll < MIX[0] {
                Op::Update {
                    k: zipf.next(&mut rng) as i64,
                    delta: rng.range(1, 11),
                }
            } else if roll < MIX[0] + MIX[1] {
                inserts += 1;
                Op::Insert {
                    k: (rows + (inserts - 1) * CLIENTS as u64 + client) as i64,
                    v0: rng.range(0, 1000),
                }
            } else {
                Op::Read {
                    k: zipf.next(&mut rng) as i64,
                }
            }
        })
        .collect()
}

pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = StreamHash::default();
    for op in ops {
        let words = match *op {
            Op::Update { k, delta } => [0, k, delta],
            Op::Insert { k, v0 } => [1, k, v0],
            Op::Read { k } => [2, k, 0],
        };
        words.iter().for_each(|w| h.word(*w as u64));
    }
    h.finish()
}

fn pad_of(k: i64) -> String {
    format!("{k:0>PAD_LEN$}")
}

/// k → v0 of every row that should exist.
pub type Model = BTreeMap<i64, i64>;

pub fn initial_model(seed: u64, rows: u64) -> Model {
    let mut rng = Rng::lane(seed, 0);
    (0..rows as i64).map(|k| (k, rng.range(0, 1000))).collect()
}

pub fn apply(model: &mut Model, op: &Op) {
    match *op {
        Op::Update { k, delta } => *model.get_mut(&k).expect("known key") += delta,
        Op::Insert { k, v0 } => {
            let prev = model.insert(k, v0);
            assert!(prev.is_none(), "stream inserted key {k} twice");
        }
        Op::Read { .. } => {}
    }
}

struct KvClient<'a> {
    session: Session<'a>,
    update: Prepared<'a>,
    insert: Prepared<'a>,
    read: Prepared<'a>,
    ops: &'a [Op],
    pos: usize,
    exec: ExecTotals,
}

impl<'a> KvClient<'a> {
    fn new(eng: &'a Engine, ops: &'a [Op]) -> Result<KvClient<'a>> {
        let session = eng.session();
        Ok(KvClient {
            update: session.prepare(UPDATE_SQL)?,
            insert: session.prepare(INSERT_SQL)?,
            read: session.prepare(READ_SQL)?,
            session,
            ops,
            pos: 0,
            exec: ExecTotals::default(),
        })
    }

    /// One write statement, retried on conflict. Untraced it autocommits;
    /// traced it runs as begin / statement / commit so the commit (log
    /// flush and fsync) gets its own span.
    fn write(
        &mut self,
        log: &mut ClientLog,
        root: Option<usize>,
        op: u64,
        insert: bool,
        params: &[Value],
    ) -> Result<()> {
        let (session, stmt) = (
            &self.session,
            if insert {
                &mut self.insert
            } else {
                &mut self.update
            },
        );
        retry_conflicts(log, |log| {
            let affected = match log.tracer.as_mut() {
                None => stmt.execute_with(params)?.affected(),
                Some(t) => {
                    t.span("core.session.begin", root, op, || session.begin())?;
                    match t.span("core.session.stmt", root, op, || stmt.execute_with(params)) {
                        Ok(done) => {
                            t.span("core.session.commit", root, op, || session.commit())?;
                            done.affected()
                        }
                        Err(e) => {
                            let _ = session.rollback();
                            return Err(e);
                        }
                    }
                }
            };
            log.check(affected == 1, || {
                format!("write {params:?} touched {affected} rows, not 1")
            });
            Ok(())
        })?;
        log.commits += 1;
        Ok(())
    }

    fn run(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64, next: Op) -> Result<()> {
        match next {
            Op::Update { k, delta } => {
                self.write(log, root, op, false, &[Value::Int(delta), Value::Int(k)])?;
                Ok(())
            }
            Op::Insert { k, v0 } => {
                let row = [Value::Int(k), Value::Int(v0), Value::Str(pad_of(k))];
                self.write(log, root, op, true, &row)?;
                Ok(())
            }
            Op::Read { k } => {
                self.read.bind(&[Value::Int(k)])?;
                let r = match log.tracer.as_mut() {
                    Some(t) => t.span("core.session.stmt", root, op, || self.read.query()),
                    None => self.read.query(),
                }?;
                self.exec.add(&r);
                // The other client may be adding to this key, so the value
                // has a floor, not an exact model value, until quiesce.
                let rows = &r.try_table()?.rows;
                let ok = rows.len() == 1
                    && matches!(&rows[0][0], Value::Int(v) if *v >= 0)
                    && rows[0][1] == Value::Str(pad_of(k));
                log.check(ok, || format!("read({k}) returned {rows:?}"));
                Ok(())
            }
        }
    }
}

impl Op {
    fn class(&self) -> u8 {
        match self {
            Op::Update { .. } => UPDATE,
            Op::Insert { .. } => INSERT,
            Op::Read { .. } => READ,
        }
    }
}

impl Client for KvClient<'_> {
    fn step(&mut self, log: &mut ClientLog, root: Option<usize>, op: u64) -> Option<u8> {
        let next = *self.ops.get(self.pos)?;
        self.pos += 1;
        if let Err(e) = self.run(log, root, op, next) {
            log.fail(format!("{next:?}: {e}"));
        }
        Some(next.class())
    }
}

fn load(eng: &Engine, model: &Model) -> Result<()> {
    let s = eng.session();
    s.execute(
        "CREATE TABLE KV (k INT NOT NULL, v0 INT, pad VARCHAR(100))",
        &[],
    )?;
    s.execute("CREATE UNIQUE INDEX kv_pk ON KV (k)", &[])?;
    s.execute(
        &format!("CREATE MATERIALIZED VIEW big_kv AS SELECT k, v0 FROM KV WHERE v0 > {BIG}"),
        &[],
    )?;
    let mut ins = s.prepare(INSERT_SQL)?;
    let mut in_txn = 0;
    for (&k, &v0) in model {
        if in_txn == 0 {
            s.begin()?;
        }
        ins.execute_with(&[Value::Int(k), Value::Int(v0), Value::Str(pad_of(k))])?;
        in_txn += 1;
        if in_txn == LOAD_BATCH {
            s.commit()?;
            in_txn = 0;
        }
    }
    if in_txn > 0 {
        s.commit()?;
    }
    Ok(())
}

fn pairs(s: &Session<'_>, sql: &str) -> Result<Vec<(i64, i64)>> {
    let r = s.query(sql, &[])?;
    let mut rows: Vec<(i64, i64)> = r
        .try_table()?
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_int().unwrap_or(i64::MIN),
                row[1].as_int().unwrap_or(i64::MIN),
            )
        })
        .collect();
    rows.sort_unstable();
    Ok(rows)
}

/// The table and the selection view against the model.
fn verify(eng: &Engine, model: &Model, out: &mut Outcome, when: &str) -> Result<()> {
    let s = eng.session();
    let got = pairs(&s, "SELECT k, v0 FROM KV")?;
    let want: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    out.check(got == want, || {
        let diff = got.iter().zip(&want).find(|(g, w)| g != w);
        format!(
            "{when}: KV has {} rows, model {}; first difference {diff:?}",
            got.len(),
            want.len()
        )
    });
    let big = pairs(&s, "SELECT k, v0 FROM big_kv")?;
    let want_big: Vec<(i64, i64)> = want.iter().copied().filter(|(_, v)| *v > BIG).collect();
    out.check(big == want_big, || {
        format!(
            "{when}: big_kv has {} rows, model {}",
            big.len(),
            want_big.len()
        )
    });
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes written to storage per user byte acknowledged: log bytes plus
/// every page write with its double-write image.
fn write_amp(c: &Counters, commits: u64) -> f64 {
    ratio(
        c.wal_bytes + c.disk_writes * BYTES_PER_PAGE_WRITE,
        commits * ROW_BYTES,
    )
}

/// The run's directories: one live database per set-up, the crash image
/// and a scratch log. Nothing is deleted while anything is being timed —
/// on a file system mounted with `discard`, freeing tens of megabytes slows
/// the machine for seconds — so everything goes at once when the run ends,
/// however it ends.
struct Dirs {
    base: PathBuf,
}

impl Dirs {
    fn live(&self, build: usize) -> PathBuf {
        self.base.join(format!("live-{build}"))
    }

    fn crash(&self) -> PathBuf {
        self.base.join("crash")
    }

    fn scratch_log(&self) -> PathBuf {
        self.base.join("scratch-wal.log")
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

pub fn run(args: &ChildArgs) -> Outcome {
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };
    let dirs = Dirs {
        base: args
            .out
            .join(format!("durable_kv-data-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dirs.base);
    std::fs::create_dir_all(&dirs.base).expect("create the data directory");

    let rows = args.sized(ROWS, 500);
    let window_ops = args.window_ops(WINDOW_OPS, 4);
    // A traced run continues the streams after its reference window. Each
    // client's stream is as long as everything both run, so neither can
    // reach its end.
    let n_ops = if args.trace {
        window_ops / 2 + window_ops / 4
    } else {
        window_ops
    };
    let mut last_build = 0;
    // Set-up: create, load in 1000-row transactions, generate the streams,
    // and run each statement once (the insert rolled back, the update
    // adding nothing, so the data is as loaded).
    let (eng, mut model, streams) = build_timed(args, &mut out, 3, |build| {
        last_build = build;
        let model = initial_model(args.seed, rows);
        let eng = Engine::durable(&dirs.live(build)).expect("create the database");
        load(&eng, &model).expect("load KV");
        // A bulk load ends with a checkpoint, so the window does not open
        // on the load's backlog of dirty pages (a stall of one to three
        // seconds at the first automatic checkpoint otherwise).
        eng.checkpoint().expect("checkpoint after the load");
        let streams: Vec<Vec<Op>> = (0..CLIENTS as u64)
            .map(|c| generate(args.seed, c, n_ops, rows))
            .collect();
        let mut c = KvClient::new(&eng, &[]).expect("prepare statements");
        c.session.begin().expect("warm-up");
        c.insert
            .execute_with(&[Value::Int(-1), Value::Int(0), Value::Str(pad_of(-1))])
            .expect("warm-up insert");
        c.session.rollback().expect("warm-up");
        c.update
            .execute_with(&[Value::Int(0), Value::Int(0)])
            .expect("warm-up update");
        c.read
            .bind(&[Value::Int(0)])
            .and_then(|r| r.query())
            .expect("warm-up read");
        drop(c);
        (eng, model, streams)
    });
    let live = dirs.live(last_build);
    let mut clients: Vec<KvClient<'_>> = streams
        .iter()
        .map(|ops| KvClient::new(&eng, ops).expect("prepare statements"))
        .collect();
    let hashes: Vec<Json> = streams
        .iter()
        .map(|s| Json::str(format!("{:016x}", stream_hash(s))))
        .collect();
    out.note("stream_hash", Json::Arr(hashes));
    out.note("rows", Json::Num(rows as f64));
    let page_file = std::fs::metadata(live.join("pages.db")).map_or(0, |m| m.len());
    out.note(
        "data_over_pool",
        Json::Num(page_file as f64 / (eng.buffer_pages() * PAGE_SIZE) as f64),
    );

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
        "write_amp",
        Json::Num(write_amp(&in_window, window.commits())),
    );
    out.note(
        "buffer_hit_ratio",
        Json::Num(ratio(
            in_window.buf_hits,
            in_window.buf_hits + in_window.buf_misses,
        )),
    );
    out.note("checkpoints", Json::Num(in_window.wal_checkpoints as f64));

    let mut traced = None;
    if args.trace {
        let before = eng.counters();
        let mut pass = closed_loop(&mut clients, window_ops / 4, args.window_cap(), true);
        pass.report_into(&mut out);
        let in_pass = eng.counters().since(&before);
        let spans = pass.spans();
        traced = Some((pass, in_pass, spans));
    } else {
        summarize(&mut out, &window, &CLASSES, (&[UPDATE, INSERT], &[READ]));
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

    // The crash image: the directory as it stands, no checkpoint first.
    let live_bytes = dir_bytes(&live);
    if let Err(e) = copy_dir(&live, &dirs.crash()) {
        out.fail(format!("cannot copy the data directory: {e}"));
    }
    if let Err(e) = verify(&eng, &model, &mut out, "quiesce") {
        out.fail(format!("quiesce check could not run: {e}"));
    }
    let s = eng.session();
    let before_refresh = pairs(&s, "SELECT k, v0 FROM big_kv");
    let t = Instant::now();
    let refreshed = s.execute("REFRESH MATERIALIZED VIEW big_kv", &[]);
    let refresh = t.elapsed();
    let same = match (
        &before_refresh,
        &refreshed,
        pairs(&s, "SELECT k, v0 FROM big_kv"),
    ) {
        (Ok(before), Ok(_), Ok(after)) => *before == after,
        _ => false,
    };
    out.check(same, || {
        "quiesce: maintained big_kv differs from its REFRESH".to_string()
    });

    if let Some((pass, in_pass, mut spans)) = traced {
        set_class_metrics(
            &mut out,
            &window,
            "core.session.",
            &CLASSES,
            &[UPDATE, INSERT],
            &[READ],
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
        out.set(
            "storage.disk.write_amp",
            write_amp(&in_pass, pass.commits()),
        );
        out.set(
            "storage.disk.space_amp",
            ratio(live_bytes, model.len() as u64 * ROW_BYTES),
        );
        out.set("core.matview.refresh_us", refresh.as_secs_f64() * 1e6);
        let t = Instant::now();
        if let Err(e) = eng.vacuum() {
            out.fail(format!("vacuum at quiesce: {e}"));
        }
        out.set("storage.vacuum.vacuum_us", t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        if let Err(e) = eng.checkpoint() {
            out.fail(format!("checkpoint at quiesce: {e}"));
        }
        out.set(
            "storage.disk.checkpoint_us",
            t.elapsed().as_secs_f64() * 1e6,
        );
        // The floor under a commit: one buffered append of a record of the
        // pass's mean size, and one flush with its fsync.
        let mean_record = ratio(in_pass.wal_bytes, in_pass.wal_records) as usize;
        match ScratchWal::create(&dirs.scratch_log(), mean_record.max(16)) {
            Ok(wal) => {
                out.set(
                    "storage.wal.append_us",
                    super::median_us(2000, || wal.append()),
                );
                let mut ok = true;
                out.set(
                    "storage.wal.flush_us",
                    super::median_us(50, || {
                        wal.append();
                        ok &= wal.flush().is_ok();
                    }),
                );
                out.check(ok, || "scratch log flush failed".to_string());
            }
            Err(e) => out.fail(format!("cannot open a scratch log: {e}")),
        }
        set_session_floor_metrics(&mut out, &s, READ_SQL);
        set_trace_overhead(&mut out, &window, &pass);
        let corpus = [UPDATE_SQL, INSERT_SQL, READ_SQL].map(str::to_string);
        frontend_metrics(&mut out, &eng, &corpus, &mut spans);
        write_trace(args, &mut out, &spans);
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    drop(s);
    drop(eng);

    // Restart from the crash image: open, then the first answered query.
    let t = Instant::now();
    match Engine::durable(&dirs.crash()) {
        Ok(reopened) => {
            let open = t.elapsed();
            let count = reopened
                .session()
                .query("SELECT COUNT(*) FROM KV", &[])
                .ok()
                .and_then(|r| r.try_table().ok()?.rows.first()?.first()?.as_int().ok());
            let restart = t.elapsed();
            out.check(count == Some(model.len() as i64), || {
                format!("restart: COUNT(*) is {count:?}, model has {}", model.len())
            });
            if let Err(e) = verify(&reopened, &model, &mut out, "restart") {
                out.fail(format!("restart check could not run: {e}"));
            }
            out.note("restart_s", Json::Num(restart.as_secs_f64()));
            if args.trace {
                let rec = reopened.recovery().unwrap_or_default();
                out.set("storage.recovery.restart_s", restart.as_secs_f64());
                out.set("storage.recovery.open_us", open.as_secs_f64() * 1e6);
                out.set(
                    "storage.recovery.records_scanned",
                    rec.records_scanned as f64,
                );
                out.set("storage.recovery.redo_applied", rec.redo_applied as f64);
            }
        }
        Err(e) => out.fail(format!("restart: cannot open the crash image: {e}")),
    }
    drop(dirs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_seed_and_client() {
        let h = |seed, client| stream_hash(&generate(seed, client, 2000, 10_000));
        assert_eq!(h(1, 0), h(1, 0));
        assert_ne!(h(1, 0), h(2, 0));
        assert_ne!(h(1, 0), h(1, 1));
    }

    #[test]
    fn inserted_keys_are_new_and_unique_across_clients() {
        let mut model = initial_model(3, 1000);
        for c in 0..CLIENTS as u64 {
            for op in generate(3, c, 4000, 1000) {
                // `apply` panics on a duplicate insert or an unknown key.
                apply(&mut model, &op);
            }
        }
        assert!(model.len() > 1000);
        assert!(model.values().all(|v| *v >= 0));
    }

    #[test]
    fn pad_is_fixed_width() {
        assert_eq!(pad_of(7).len(), PAD_LEN);
        assert_eq!(pad_of(123_456).len(), PAD_LEN);
        assert_ne!(pad_of(7), pad_of(8));
    }
}
