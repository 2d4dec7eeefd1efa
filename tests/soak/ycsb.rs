//! YCSB-style load: a read / update / insert / scan / RMW-transaction /
//! raise / CO-fetch mix over the public [`Session`] API, with
//! Zipfian or uniform key choice and N closed-loop client threads.
//!
//! **Determinism:** all randomness is spent at *stream-generation* time —
//! [`generate_stream`] turns (seed, config) into one global op sequence,
//! clients execute the subsequence `index % clients == client` in order,
//! and the in-memory [`YcsbModel`] replays the same stream in canonical
//! (index) order. Because updates are **additive** (`SET f0 = f0 + δ`),
//! inserts carry **unique keys**, and conflicted statements retry until
//! they commit, the engine's final state must equal the model's final
//! state under *any* interleaving and any client count — that is the
//! differential-oracle contract the quiesce check enforces.
//!
//! Continuous (mid-storm) checks are restricted to interleaving-independent
//! invariants: initial rows never disappear, derived columns are exact,
//! scans are ordered and complete over the immutable key range, repeatable
//! reads and read-your-writes hold inside RMW transactions, and the
//! materialized paper view, which the raises maintain, equals an on-demand
//! extraction under one snapshot. Raises add to the salaries of employees
//! in the view; the model leaves them out (floating-point sums depend on
//! their order), and the view checks are their oracle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::run_sessions;
use xnf_core::{Database, DbConfig, Session, TempDir, Value};
use xnf_fixtures::{build_paper_db_with, PaperScale, DEPS_ARC};

use super::keys::{KeyChooser, KeyDist};
use super::oracle::{abort_quietly, canon_co, retry_conflicts, rows_of, Violations};

/// Op-mix weights: a YCSB workload-B-ish read-heavy mix plus the
/// CO-serving classes the paper cares about, in the order
/// read, update, insert, scan, read-modify-write, raise, CO fetch.
const MIX: [u32; 7] = [51, 20, 5, 8, 7, 4, 5];
/// Rows per scan (`yk >= lo AND yk < lo + SCAN_LEN ORDER BY yk`).
const SCAN_LEN: i64 = 50;
/// Per-client cadence of the heavier continuous checks.
const CHECK_EVERY: u64 = 64;
/// Scale of the paper-schema fixture backing the raise and CO-fetch
/// classes.
const PAPER_DEPARTMENTS: usize = 8;
const EMPLOYEES_PER_DEPT: usize = 4;
/// Employees of the `hot_deps` view: the fixture places its first
/// `round(8 × 0.2) = 2` departments at ARC and numbers employees
/// department by department from 0.
const ARC_EMPLOYEES: i64 = 2 * EMPLOYEES_PER_DEPT as i64;

#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Initial USERTABLE rows (keys `0..records`). The hot working set.
    pub records: u64,
    /// Total operations across all clients.
    pub ops: u64,
    /// Closed-loop client threads.
    pub clients: usize,
    pub seed: u64,
    pub dist: KeyDist,
    /// Run against a WAL-backed on-disk database (group commit, fsync
    /// off) instead of in-memory.
    pub durable: bool,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 2_000,
            ops: 10_000,
            clients: 4,
            seed: 0x0005_EED1,
            dist: KeyDist::Zipfian(0.99),
            durable: false,
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum YcsbOp {
    Read {
        key: i64,
    },
    Update {
        key: i64,
        delta: i64,
    },
    Insert {
        key: i64,
    },
    Scan {
        lo: i64,
        len: i64,
    },
    /// BEGIN; read; read-again; additive update; read-back; COMMIT.
    Rmw {
        key: i64,
        delta: i64,
    },
    /// An additive salary change of an employee of the `hot_deps` view.
    Raise {
        eno: i64,
        delta: i64,
    },
    CoFetch {
        dept: i64,
    },
}

/// Derived column values: fixed functions of the key, exact-checkable at
/// any time regardless of interleaving.
pub fn derived_f1(key: i64) -> i64 {
    key * 7 + 3
}

pub fn derived_payload(key: i64) -> String {
    format!("payload-{key:08}")
}

/// Generate the full deterministic op stream for `cfg`. Independent of the
/// client count: partitioning happens at execution time.
pub fn generate_stream(cfg: &YcsbConfig) -> Vec<YcsbOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let chooser = KeyChooser::new(cfg.dist, cfg.records);
    let [read, update, insert, scan, rmw, raise, _] = MIX;
    let mut next_insert_key = cfg.records as i64;
    let mut ops = Vec::with_capacity(cfg.ops as usize);
    for _ in 0..cfg.ops {
        let roll = rng.gen_range(0..MIX.iter().sum::<u32>());
        let op = if roll < read {
            let inserted = next_insert_key - cfg.records as i64;
            if inserted > 0 && rng.gen_bool(0.1) {
                // Occasionally read back a previously generated insert key
                // (which may or may not have landed yet at execution time).
                YcsbOp::Read {
                    key: cfg.records as i64 + rng.gen_range(0..inserted),
                }
            } else {
                YcsbOp::Read {
                    key: chooser.next(&mut rng) as i64,
                }
            }
        } else if roll < read + update {
            YcsbOp::Update {
                key: chooser.next(&mut rng) as i64,
                delta: nonzero_delta(&mut rng),
            }
        } else if roll < read + update + insert {
            let key = next_insert_key;
            next_insert_key += 1;
            YcsbOp::Insert { key }
        } else if roll < read + update + insert + scan {
            YcsbOp::Scan {
                lo: rng.gen_range(0..cfg.records) as i64,
                len: SCAN_LEN,
            }
        } else if roll < read + update + insert + scan + rmw {
            YcsbOp::Rmw {
                key: chooser.next(&mut rng) as i64,
                delta: nonzero_delta(&mut rng),
            }
        } else if roll < read + update + insert + scan + rmw + raise {
            YcsbOp::Raise {
                eno: rng.gen_range(0..ARC_EMPLOYEES),
                delta: nonzero_delta(&mut rng),
            }
        } else {
            YcsbOp::CoFetch {
                dept: rng.gen_range(0..PAPER_DEPARTMENTS as i64),
            }
        };
        ops.push(op);
    }
    ops
}

/// Deltas span negative and positive so matview predicate membership
/// (`f0 > THRESHOLD`) flips both ways over a run.
fn nonzero_delta(rng: &mut StdRng) -> i64 {
    let d = rng.gen_range(-3..9i64);
    if d == 0 {
        5
    } else {
        d
    }
}

/// Matview predicate threshold (`rich_users` keeps rows with `f0 > 8`).
const RICH_THRESHOLD: i64 = 8;

/// In-memory model: `yk -> f0` (the additive column; `f1`/`payload` are
/// pure functions of the key).
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbModel {
    pub rows: BTreeMap<i64, i64>,
}

impl YcsbModel {
    pub fn load(records: u64) -> YcsbModel {
        YcsbModel {
            rows: (0..records as i64).map(|k| (k, 0)).collect(),
        }
    }

    /// Replay one op in canonical order. Read-only classes and raises are
    /// no-ops.
    pub fn apply(&mut self, op: &YcsbOp) {
        match op {
            YcsbOp::Update { key, delta } | YcsbOp::Rmw { key, delta } => {
                if let Some(f0) = self.rows.get_mut(key) {
                    *f0 += delta;
                }
            }
            YcsbOp::Insert { key } => {
                let prev = self.rows.insert(*key, 0);
                assert!(prev.is_none(), "stream generated a duplicate insert key");
            }
            YcsbOp::Read { .. }
            | YcsbOp::Scan { .. }
            | YcsbOp::Raise { .. }
            | YcsbOp::CoFetch { .. } => {}
        }
    }

    /// Replay a whole stream from the loaded state.
    pub fn replay(cfg: &YcsbConfig, stream: &[YcsbOp]) -> YcsbModel {
        let mut m = YcsbModel::load(cfg.records);
        for op in stream {
            m.apply(op);
        }
        m
    }

    /// Canonical engine-comparable form: the full USERTABLE contents.
    pub fn canonical_rows(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(k, f0)| {
                vec![
                    format!("{:?}", Value::Int(*k)),
                    format!("{:?}", Value::Int(*f0)),
                    format!("{:?}", Value::Int(derived_f1(*k))),
                    format!("{:?}", Value::Str(derived_payload(*k))),
                ]
            })
            .collect();
        rows.sort();
        rows
    }

    /// Expected `rich_users` matview contents.
    pub fn canonical_rich(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .filter(|(_, f0)| **f0 > RICH_THRESHOLD)
            .map(|(k, f0)| {
                vec![
                    format!("{:?}", Value::Int(*k)),
                    format!("{:?}", Value::Int(*f0)),
                ]
            })
            .collect();
        rows.sort();
        rows
    }
}

/// Build the YCSB database: paper fixture (CO-fetch class) + USERTABLE +
/// the materialized views the oracle checks. In durable mode the database
/// lives in a fresh temp data directory (WAL + group commit, fsync off);
/// the returned guard deletes it when dropped.
pub fn build_ycsb_db(cfg: &YcsbConfig) -> (Database, Option<TempDir>) {
    let (db_cfg, guard) = if cfg.durable {
        let dir = TempDir::new("ycsb-durable");
        let db_cfg = DbConfig {
            data_dir: Some(dir.path().to_path_buf()),
            wal_fsync: false,
            ..DbConfig::default()
        };
        (db_cfg, Some(dir))
    } else {
        (DbConfig::default(), None)
    };
    let db = build_paper_db_with(
        PaperScale {
            departments: PAPER_DEPARTMENTS,
            employees_per_dept: EMPLOYEES_PER_DEPT,
            projects_per_dept: 2,
            skills: 12,
            ..Default::default()
        },
        db_cfg,
    );
    let s = db.session();
    s.execute(
        "CREATE TABLE USERTABLE (yk INT NOT NULL, f0 INT, f1 INT, payload VARCHAR(64))",
        &[],
    )
    .expect("usertable");
    s.execute("CREATE INDEX usertable_yk ON USERTABLE (yk)", &[])
        .expect("usertable index");

    // Bulk-load in transactional batches (one commit per 1000 rows).
    let session = db.session();
    let mut ins = session
        .prepare("INSERT INTO USERTABLE VALUES (?, ?, ?, ?)")
        .expect("prepare insert");
    session.begin().expect("begin load");
    for k in 0..cfg.records as i64 {
        ins.execute_with(&[
            Value::Int(k),
            Value::Int(0),
            Value::Int(derived_f1(k)),
            Value::Str(derived_payload(k)),
        ])
        .expect("load row");
        if (k + 1) % 1000 == 0 {
            session.commit().expect("commit load batch");
            session.begin().expect("begin load batch");
        }
    }
    session.commit().expect("commit load");

    // Created after the bulk load so population is one pass, then
    // incrementally maintained under the storm.
    s.execute(&format!(
        "CREATE MATERIALIZED VIEW rich_users AS SELECT yk, f0 FROM USERTABLE WHERE f0 > {RICH_THRESHOLD}"
    ), &[])
    .expect("rich_users");
    s.execute(
        &format!("CREATE MATERIALIZED VIEW hot_deps AS {DEPS_ARC}"),
        &[],
    )
    .expect("hot_deps");
    (db, guard)
}

/// Result of one driver run.
pub struct YcsbRun {
    /// Operations the clients ran.
    pub ops: u64,
    /// Write-conflict retries spent.
    pub retries: u64,
    pub violations: Arc<Violations>,
    /// The model's final state.
    pub model: YcsbModel,
}

/// Execute the workload. Panics on harness errors; oracle divergences are
/// recorded in `violations` (and the quiesce check panics via
/// `assert_clean` only when the caller asks).
pub fn run_ycsb(cfg: &YcsbConfig) -> YcsbRun {
    assert!(cfg.clients > 0, "need at least one client");
    let (db, _data_dir) = build_ycsb_db(cfg);
    let db = Arc::new(db);
    let stream = Arc::new(generate_stream(cfg));
    let violations = Arc::new(Violations::new());
    let ops = AtomicU64::new(0);
    let retries = AtomicU64::new(0);

    run_sessions(&db, cfg.clients, |client, session| {
        let mut worker = YcsbWorker {
            cfg,
            session,
            violations: &violations,
            seen: 0,
        };
        for op in stream.iter().skip(client).step_by(cfg.clients) {
            retries.fetch_add(worker.run_op(op), Ordering::Relaxed);
            ops.fetch_add(1, Ordering::Relaxed);
        }
    });

    let model = YcsbModel::replay(cfg, &stream);
    quiesce_check(&db, &model, &violations);
    YcsbRun {
        ops: ops.into_inner(),
        retries: retries.into_inner(),
        violations,
        model,
    }
}

struct YcsbWorker<'a, 'db> {
    cfg: &'a YcsbConfig,
    session: &'a Session<'db>,
    violations: &'a Violations,
    /// Ops this client has executed (cadence counter for heavy checks).
    seen: u64,
}

impl YcsbWorker<'_, '_> {
    /// Execute one op; returns the conflict retries spent.
    fn run_op(&mut self, op: &YcsbOp) -> u64 {
        self.seen += 1;
        let v = self.violations;
        let session = self.session;
        match op {
            YcsbOp::Read { key } => {
                let rows = query_rows(
                    session,
                    "SELECT f0, f1, payload FROM USERTABLE WHERE yk = ?",
                    &[Value::Int(*key)],
                );
                if *key < self.cfg.records as i64 {
                    v.check(rows.len() == 1, || {
                        format!("read({key}): initial row missing ({} rows)", rows.len())
                    });
                }
                if let Some(row) = rows.first() {
                    v.check_eq(row[1].clone(), Value::Int(derived_f1(*key)), || {
                        format!("read({key}): derived f1")
                    });
                    v.check_eq(row[2].clone(), Value::Str(derived_payload(*key)), || {
                        format!("read({key}): derived payload")
                    });
                }
                0
            }
            YcsbOp::Update { key, delta } => {
                let ((), retries) = retry_conflicts(|| {
                    session
                        .execute(
                            "UPDATE USERTABLE SET f0 = f0 + ? WHERE yk = ?",
                            &[Value::Int(*delta), Value::Int(*key)],
                        )
                        .map(|_| ())
                });
                retries
            }
            YcsbOp::Insert { key } => {
                let ((), retries) = retry_conflicts(|| {
                    session
                        .execute(
                            "INSERT INTO USERTABLE VALUES (?, ?, ?, ?)",
                            &[
                                Value::Int(*key),
                                Value::Int(0),
                                Value::Int(derived_f1(*key)),
                                Value::Str(derived_payload(*key)),
                            ],
                        )
                        .map(|_| ())
                });
                retries
            }
            YcsbOp::Scan { lo, len } => {
                let rows = query_rows(
                    session,
                    "SELECT yk, f0 FROM USERTABLE WHERE yk >= ? AND yk < ? ORDER BY yk",
                    &[Value::Int(*lo), Value::Int(lo + len)],
                );
                let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
                v.check(keys.windows(2).all(|w| w[0] < w[1]), || {
                    format!("scan({lo},{len}): keys not strictly ascending")
                });
                v.check(keys.iter().all(|k| *k >= *lo && *k < lo + len), || {
                    format!("scan({lo},{len}): key outside range")
                });
                // Initial keys are never deleted: the immutable part of the
                // range must be fully present in any snapshot.
                let expect_initial = (lo + len).min(self.cfg.records as i64) - lo;
                let got_initial = keys
                    .iter()
                    .filter(|k| **k < self.cfg.records as i64)
                    .count() as i64;
                v.check_eq(got_initial, expect_initial.max(0), || {
                    format!("scan({lo},{len}): initial rows missing from snapshot")
                });
                0
            }
            YcsbOp::Rmw { key, delta } => {
                let ((), retries) = retry_conflicts(|| {
                    session.begin()?;
                    let body = (|| {
                        let v1 = read_f0(session, *key)?;
                        let v1_again = read_f0(session, *key)?;
                        v.check_eq(v1_again, v1, || {
                            format!("rmw({key}): repeatable read inside txn")
                        });
                        session.execute(
                            "UPDATE USERTABLE SET f0 = f0 + ? WHERE yk = ?",
                            &[Value::Int(*delta), Value::Int(*key)],
                        )?;
                        if let Some(before) = v1 {
                            let after = read_f0(session, *key)?;
                            v.check_eq(after, Some(before + delta), || {
                                format!("rmw({key}): read-your-writes inside txn")
                            });
                        }
                        Ok::<(), xnf_core::XnfError>(())
                    })();
                    match body {
                        Ok(()) => session.commit(),
                        Err(e) => {
                            abort_quietly(session);
                            Err(e)
                        }
                    }
                });
                retries
            }
            YcsbOp::Raise { eno, delta } => {
                let ((), retries) = retry_conflicts(|| {
                    session
                        .execute(
                            "UPDATE EMP SET sal = sal + ? WHERE eno = ?",
                            &[Value::Int(*delta), Value::Int(*eno)],
                        )
                        .map(|_| ())
                });
                retries
            }
            YcsbOp::CoFetch { dept } => {
                let co = session
                    .database()
                    .fetch_co_point("hot_deps", &Value::Int(*dept))
                    .expect("co point fetch");
                let roots = co.workspace.component("xdept").expect("xdept").len();
                v.check(roots <= 1, || {
                    format!("co_fetch({dept}): {roots} roots for one key")
                });
                if self.seen.is_multiple_of(CHECK_EVERY) {
                    // Heavier cadence check: under one snapshot, the stored
                    // CO equals an on-demand extraction.
                    session.begin().expect("begin co check");
                    let stored = session.fetch_co("hot_deps").expect("stored co");
                    let fresh = session.fetch_co(DEPS_ARC).expect("on-demand co");
                    session.commit().expect("commit co check");
                    v.check_eq(canon_co(&stored), canon_co(&fresh), || {
                        "co_fetch: hot_deps != on-demand extraction under one snapshot".to_string()
                    });
                }
                0
            }
        }
    }
}

fn query_rows(session: &Session<'_>, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
    session
        .query(sql, params)
        .expect("driver query failed")
        .try_table()
        .expect("one stream")
        .rows
        .clone()
}

fn read_f0(session: &Session<'_>, key: i64) -> Result<Option<i64>, xnf_core::XnfError> {
    let r = session.query("SELECT f0 FROM USERTABLE WHERE yk = ?", &[Value::Int(key)])?;
    let rows = &r.try_table().map_err(xnf_core::XnfError::from)?.rows;
    Ok(rows.first().map(|row| row[0].as_int().unwrap()))
}

/// Quiesced differential check: engine state must equal the model exactly.
fn quiesce_check(db: &Database, model: &YcsbModel, v: &Violations) {
    let s = db.session();
    // Full-table differential comparison.
    let engine = rows_of(db, "SELECT yk, f0, f1, payload FROM USERTABLE ORDER BY yk");
    v.check_eq(engine, model.canonical_rows(), || {
        "quiesce: USERTABLE diverged from the replayed model".to_string()
    });

    // Incrementally-maintained matview == model == full REFRESH.
    let incremental = rows_of(db, "SELECT * FROM rich_users");
    v.check_eq(incremental.clone(), model.canonical_rich(), || {
        "quiesce: rich_users matview diverged from the model".to_string()
    });
    s.execute("REFRESH MATERIALIZED VIEW rich_users", &[])
        .expect("refresh");
    v.check_eq(incremental, rows_of(db, "SELECT * FROM rich_users"), || {
        "quiesce: incremental rich_users != REFRESH recompute".to_string()
    });

    // Materialized CO view == on-demand extraction.
    let stored = s.fetch_co("hot_deps").expect("stored co");
    let fresh = s.fetch_co(DEPS_ARC).expect("on-demand co");
    v.check_eq(canon_co(&stored), canon_co(&fresh), || {
        "quiesce: hot_deps CO matview != on-demand extraction".to_string()
    });
}
