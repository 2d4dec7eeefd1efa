//! TPC-C-lite driver: a warehouse / district / customer / orders schema
//! with multi-statement transfer transactions, hot district rows,
//! matview-backed order summaries, a materialized district→customer→orders
//! composite-object view, and deliberate write-conflict pressure.
//!
//! **Oracle contract.** The seeded stream pre-decides everything that
//! affects final state: which transactions run, their amounts, their order
//! ids (globally unique, allocated at generation time), and which ones
//! deliberately ROLLBACK. All writes are either *additive* (balance and
//! ytd deltas, `d_next_o_id + 1`) or *uniquely-keyed inserts*, and
//! conflicted transactions retry until they commit — so the engine's final
//! state equals the in-memory model's replay of the committed stream under
//! any interleaving and any client count, which the quiesce check asserts
//! table-by-table. Mid-storm, clients continuously assert the
//! interleaving-independent invariants: the conserved total
//! `SUM(c_balance) + SUM(o_amount)` under a single snapshot, repeatable
//! reads and read-your-writes inside transactions (including reading back
//! a just-inserted order and a just-bumped `d_next_o_id`), the summary
//! matview equal to its base aggregation under one snapshot, and the exact
//! subtree shape of every stored-CO point fetch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::run_sessions;
use xnf_core::{Database, DbConfig, Session, TempDir, Value, XnfError};

use super::keys::{KeyChooser, KeyDist};
use super::oracle::{abort_quietly, canon_co, retry_conflicts, rows_of, Violations};

/// The district→customer→orders composite object (the CO-serving shape the
/// paper's evaluation revolves around), materialized as `dist_co`.
pub const DIST_CO: &str = "\
OUT OF xdist AS DISTRICT,
       xcust AS CUSTOMER,
       xord AS ORDERS,
       residency AS (RELATE xdist VIA HOUSES, xcust WHERE xdist.d_id = xcust.c_d_id),
       purchases AS (RELATE xcust VIA PLACED, xord WHERE xcust.c_id = xord.o_c_id)
TAKE *";

/// Transaction-mix weights, in the order transfer, new order, order
/// status, summary, CO fetch.
const MIX: [u32; 5] = [35, 35, 15, 10, 5];
const WAREHOUSES: u64 = 2;
const DISTRICTS_PER_W: u64 = 4;
const CUSTOMERS_PER_D: u64 = 25;
const DISTRICTS: u64 = WAREHOUSES * DISTRICTS_PER_W;
const CUSTOMERS: u64 = DISTRICTS * CUSTOMERS_PER_D;
/// Percent of write transactions that deliberately ROLLBACK (decided at
/// generation time, so the model can skip them exactly).
const ROLLBACK_PCT: u32 = 5;
/// Skew of customer choice (hot customers → hot district rows).
const CUSTOMER_DIST: KeyDist = KeyDist::Zipfian(0.8);
/// Per-client cadence of the heavier continuous checks.
const CHECK_EVERY: u64 = 48;

#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Total transactions across all clients.
    pub txns: u64,
    pub clients: usize,
    pub seed: u64,
    /// Run against a WAL-backed on-disk database (group commit, fsync
    /// off) instead of in-memory.
    pub durable: bool,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            txns: 6_000,
            clients: 4,
            seed: 0x0005_EED2,
            durable: false,
        }
    }
}

const INITIAL_BALANCE: i64 = 1_000;
const INITIAL_NEXT_O_ID: i64 = 1;

/// One generated transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TpccTxn {
    /// Move `amount` between two customers and bump the payer's district
    /// ytd (hot row) — conserves `SUM(c_balance)`.
    Transfer {
        from: i64,
        to: i64,
        amount: i64,
        district: i64,
        rollback: bool,
    },
    /// Allocate an order id, insert the order, debit the customer — moves
    /// `amount` from `c_balance` into `o_amount` (conserving the total).
    NewOrder {
        customer: i64,
        district: i64,
        warehouse: i64,
        o_id: i64,
        amount: i64,
        rollback: bool,
    },
    /// Read-only: customer balance (twice — repeatable read) + their order
    /// aggregate; at cadence, the conserved-sum snapshot check.
    OrderStatus { customer: i64 },
    /// Read the matview-backed per-district order summary.
    Summary { district: i64 },
    /// Point CO fetch of one district's customer/orders subtree.
    CoFetch { district: i64 },
}

impl TpccTxn {
    fn rollback(&self) -> bool {
        match self {
            TpccTxn::Transfer { rollback, .. } | TpccTxn::NewOrder { rollback, .. } => *rollback,
            _ => false,
        }
    }
}

/// Generate the full deterministic transaction stream.
pub fn generate_stream(cfg: &TpccConfig) -> Vec<TpccTxn> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let chooser = KeyChooser::new(CUSTOMER_DIST, CUSTOMERS);
    let [transfer, new_order, order_status, summary, _] = MIX;
    let customers = CUSTOMERS as i64;
    let mut next_o_id: i64 = 1;
    let mut txns = Vec::with_capacity(cfg.txns as usize);
    for _ in 0..cfg.txns {
        let roll = rng.gen_range(0..MIX.iter().sum::<u32>());
        let rollback = rng.gen_range(0..100u32) < ROLLBACK_PCT;
        let txn = if roll < transfer {
            let from = chooser.next(&mut rng) as i64;
            let to = (from + rng.gen_range(1..customers)) % customers;
            TpccTxn::Transfer {
                from,
                to,
                amount: rng.gen_range(1..50i64),
                district: from / CUSTOMERS_PER_D as i64,
                rollback,
            }
        } else if roll < transfer + new_order {
            let customer = chooser.next(&mut rng) as i64;
            let district = customer / CUSTOMERS_PER_D as i64;
            let o_id = next_o_id;
            next_o_id += 1;
            TpccTxn::NewOrder {
                customer,
                district,
                warehouse: district / DISTRICTS_PER_W as i64,
                o_id,
                amount: rng.gen_range(1..30i64),
                rollback,
            }
        } else if roll < transfer + new_order + order_status {
            TpccTxn::OrderStatus {
                customer: chooser.next(&mut rng) as i64,
            }
        } else if roll < transfer + new_order + order_status + summary {
            TpccTxn::Summary {
                district: rng.gen_range(0..DISTRICTS) as i64,
            }
        } else {
            TpccTxn::CoFetch {
                district: rng.gen_range(0..DISTRICTS) as i64,
            }
        };
        txns.push(txn);
    }
    txns
}

/// In-memory model of the committed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TpccModel {
    /// c_id → c_balance.
    pub balances: BTreeMap<i64, i64>,
    /// d_id → (d_ytd, d_next_o_id).
    pub districts: BTreeMap<i64, (i64, i64)>,
    /// o_id → (customer, district, warehouse, amount).
    pub orders: BTreeMap<i64, (i64, i64, i64, i64)>,
}

impl TpccModel {
    pub fn load() -> TpccModel {
        TpccModel {
            balances: (0..CUSTOMERS as i64)
                .map(|c| (c, INITIAL_BALANCE))
                .collect(),
            districts: (0..DISTRICTS as i64)
                .map(|d| (d, (0, INITIAL_NEXT_O_ID)))
                .collect(),
            orders: BTreeMap::new(),
        }
    }

    /// Replay one transaction; rollback-flagged ones are skipped exactly as
    /// the engine rolls them back.
    pub fn apply(&mut self, txn: &TpccTxn) {
        if txn.rollback() {
            return;
        }
        match txn {
            TpccTxn::Transfer {
                from,
                to,
                amount,
                district,
                ..
            } => {
                *self.balances.get_mut(from).unwrap() -= amount;
                *self.balances.get_mut(to).unwrap() += amount;
                self.districts.get_mut(district).unwrap().0 += amount;
            }
            TpccTxn::NewOrder {
                customer,
                district,
                warehouse,
                o_id,
                amount,
                ..
            } => {
                self.districts.get_mut(district).unwrap().1 += 1;
                let prev = self
                    .orders
                    .insert(*o_id, (*customer, *district, *warehouse, *amount));
                assert!(prev.is_none(), "stream generated a duplicate order id");
                *self.balances.get_mut(customer).unwrap() -= amount;
            }
            TpccTxn::OrderStatus { .. } | TpccTxn::Summary { .. } | TpccTxn::CoFetch { .. } => {}
        }
    }

    pub fn replay(stream: &[TpccTxn]) -> TpccModel {
        let mut m = TpccModel::load();
        for txn in stream {
            m.apply(txn);
        }
        m
    }

    /// Per district, `(order count, amount sum)`: what `ord_sum` holds.
    pub fn summary(&self) -> BTreeMap<i64, (i64, i64)> {
        let mut summary: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (_, d, _, a) in self.orders.values() {
            let e = summary.entry(*d).or_insert((0, 0));
            e.0 += 1;
            e.1 += a;
        }
        summary
    }

    /// The conserved quantity: money is only ever moved between customer
    /// balances and order amounts.
    pub fn conserved_total() -> i64 {
        CUSTOMERS as i64 * INITIAL_BALANCE
    }
}

/// Build and load the TPC-C-lite database. In durable mode the database
/// lives in a fresh temp data directory (WAL + group commit, fsync off);
/// the returned guard deletes it when dropped. District, customer and
/// order ids are globally unique, so each is declared a unique key: every
/// `dist_co` component then has a node key, and balance updates and new
/// orders edit the stored CO in place instead of re-splicing a district.
pub fn build_tpcc_db(cfg: &TpccConfig) -> (Database, Option<TempDir>) {
    let (db, guard) = if cfg.durable {
        let dir = TempDir::new("tpcc-durable");
        let db = Database::open_with_config(DbConfig {
            data_dir: Some(dir.path().to_path_buf()),
            wal_fsync: false,
            ..DbConfig::default()
        })
        .expect("open durable tpcc database");
        (db, Some(dir))
    } else {
        (Database::new(), None)
    };
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE WAREHOUSE (w_id INT NOT NULL, w_name VARCHAR(16));
         CREATE TABLE DISTRICT (d_id INT NOT NULL, d_w_id INT, d_ytd INT, d_next_o_id INT);
         CREATE TABLE CUSTOMER (c_id INT NOT NULL, c_d_id INT, c_w_id INT, c_balance INT);
         CREATE TABLE ORDERS (o_id INT NOT NULL, o_c_id INT, o_d_id INT, o_w_id INT, o_amount INT);
         CREATE UNIQUE INDEX district_id ON DISTRICT (d_id);
         CREATE UNIQUE INDEX customer_id ON CUSTOMER (c_id);
         CREATE INDEX customer_district ON CUSTOMER (c_d_id);
         CREATE UNIQUE INDEX orders_id ON ORDERS (o_id);
         CREATE INDEX orders_customer ON ORDERS (o_c_id);
         CREATE INDEX orders_district ON ORDERS (o_d_id);",
        )
        .expect("tpcc schema");

    session.begin().expect("begin load");
    for w in 0..WAREHOUSES as i64 {
        session
            .execute(
                "INSERT INTO WAREHOUSE VALUES (?, ?)",
                &[Value::Int(w), Value::Str(format!("wh-{w}"))],
            )
            .expect("warehouse");
    }
    let mut ins_d = session
        .prepare("INSERT INTO DISTRICT VALUES (?, ?, ?, ?)")
        .expect("prepare district");
    for d in 0..DISTRICTS as i64 {
        ins_d
            .execute_with(&[
                Value::Int(d),
                Value::Int(d / DISTRICTS_PER_W as i64),
                Value::Int(0),
                Value::Int(INITIAL_NEXT_O_ID),
            ])
            .expect("district");
    }
    let mut ins_c = session
        .prepare("INSERT INTO CUSTOMER VALUES (?, ?, ?, ?)")
        .expect("prepare customer");
    for c in 0..CUSTOMERS as i64 {
        let d = c / CUSTOMERS_PER_D as i64;
        ins_c
            .execute_with(&[
                Value::Int(c),
                Value::Int(d),
                Value::Int(d / DISTRICTS_PER_W as i64),
                Value::Int(INITIAL_BALANCE),
            ])
            .expect("customer");
    }
    session.commit().expect("commit load");

    // Matview-backed order summaries + the materialized CO view, created
    // post-load and incrementally maintained under the storm.
    session
        .execute(
            "CREATE MATERIALIZED VIEW ord_sum AS \
         SELECT o_d_id AS d, COUNT(*) AS n, SUM(o_amount) AS total FROM ORDERS GROUP BY o_d_id",
            &[],
        )
        .expect("ord_sum");
    session
        .execute(
            &format!("CREATE MATERIALIZED VIEW dist_co AS {DIST_CO}"),
            &[],
        )
        .expect("dist_co");
    (db, guard)
}

pub struct TpccRun {
    /// Transactions the clients ran.
    pub ops: u64,
    /// Write-conflict retries spent.
    pub retries: u64,
    pub violations: Arc<Violations>,
    /// The model's final state.
    pub model: TpccModel,
}

pub fn run_tpcc(cfg: &TpccConfig) -> TpccRun {
    assert!(cfg.clients > 0, "need at least one client");
    let (db, _data_dir) = build_tpcc_db(cfg);
    let db = Arc::new(db);
    let stream = Arc::new(generate_stream(cfg));
    let violations = Arc::new(Violations::new());
    let ops = AtomicU64::new(0);
    let retries = AtomicU64::new(0);

    run_sessions(&db, cfg.clients, |client, session| {
        let mut worker = TpccWorker {
            session,
            violations: &violations,
            seen: 0,
        };
        for txn in stream.iter().skip(client).step_by(cfg.clients) {
            retries.fetch_add(worker.run_txn(txn), Ordering::Relaxed);
            ops.fetch_add(1, Ordering::Relaxed);
        }
    });

    let model = TpccModel::replay(&stream);
    quiesce_check(&db, &model, &violations);
    TpccRun {
        ops: ops.into_inner(),
        retries: retries.into_inner(),
        violations,
        model,
    }
}

struct TpccWorker<'a, 'db> {
    session: &'a Session<'db>,
    violations: &'a Violations,
    seen: u64,
}

impl TpccWorker<'_, '_> {
    /// Run one transaction; returns the conflict retries spent.
    fn run_txn(&mut self, txn: &TpccTxn) -> u64 {
        self.seen += 1;
        match txn {
            TpccTxn::Transfer {
                from,
                to,
                amount,
                district,
                rollback,
            } => self.transfer(*from, *to, *amount, *district, *rollback),
            TpccTxn::NewOrder {
                customer,
                district,
                warehouse,
                o_id,
                amount,
                rollback,
            } => self.new_order(*customer, *district, *warehouse, *o_id, *amount, *rollback),
            TpccTxn::OrderStatus { customer } => self.order_status(*customer),
            TpccTxn::Summary { district } => self.summary(*district),
            TpccTxn::CoFetch { district } => self.co_fetch(*district),
        }
    }

    fn transfer(&self, from: i64, to: i64, amount: i64, district: i64, rollback: bool) -> u64 {
        let session = self.session;
        let ((), retries) = retry_conflicts(|| {
            session.begin()?;
            let body = (|| {
                session.execute(
                    "UPDATE CUSTOMER SET c_balance = c_balance - ? WHERE c_id = ?",
                    &[Value::Int(amount), Value::Int(from)],
                )?;
                session.execute(
                    "UPDATE CUSTOMER SET c_balance = c_balance + ? WHERE c_id = ?",
                    &[Value::Int(amount), Value::Int(to)],
                )?;
                // Hot row: every transfer from this district contends here.
                session.execute(
                    "UPDATE DISTRICT SET d_ytd = d_ytd + ? WHERE d_id = ?",
                    &[Value::Int(amount), Value::Int(district)],
                )?;
                Ok::<(), XnfError>(())
            })();
            match body {
                Ok(()) if rollback => session.rollback(),
                Ok(()) => session.commit(),
                Err(e) => {
                    abort_quietly(session);
                    // A deliberate-rollback txn that conflicted has already
                    // "happened" (its effects are discarded either way).
                    if rollback {
                        Ok(())
                    } else {
                        Err(e)
                    }
                }
            }
        });
        retries
    }

    fn new_order(
        &self,
        customer: i64,
        district: i64,
        warehouse: i64,
        o_id: i64,
        amount: i64,
        rollback: bool,
    ) -> u64 {
        let session = self.session;
        let v = self.violations;
        let ((), retries) = retry_conflicts(|| {
            session.begin()?;
            let body = (|| {
                let before = read_one_int(
                    session,
                    "SELECT d_next_o_id FROM DISTRICT WHERE d_id = ?",
                    district,
                )?;
                session.execute(
                    "UPDATE DISTRICT SET d_next_o_id = d_next_o_id + 1 WHERE d_id = ?",
                    &[Value::Int(district)],
                )?;
                let after = read_one_int(
                    session,
                    "SELECT d_next_o_id FROM DISTRICT WHERE d_id = ?",
                    district,
                )?;
                v.check_eq(after, before + 1, || {
                    format!("new_order(d{district}): read-your-writes on d_next_o_id")
                });
                session.execute(
                    "INSERT INTO ORDERS VALUES (?, ?, ?, ?, ?)",
                    &[
                        Value::Int(o_id),
                        Value::Int(customer),
                        Value::Int(district),
                        Value::Int(warehouse),
                        Value::Int(amount),
                    ],
                )?;
                session.execute(
                    "UPDATE CUSTOMER SET c_balance = c_balance - ? WHERE c_id = ?",
                    &[Value::Int(amount), Value::Int(customer)],
                )?;
                // Read-your-writes on the insert: the new order is visible
                // inside its own transaction.
                let got =
                    read_one_int(session, "SELECT o_amount FROM ORDERS WHERE o_id = ?", o_id)?;
                v.check_eq(got, amount, || {
                    format!("new_order({o_id}): inserted order not visible in-txn")
                });
                Ok::<(), XnfError>(())
            })();
            match body {
                Ok(()) if rollback => session.rollback(),
                Ok(()) => session.commit(),
                Err(e) => {
                    abort_quietly(session);
                    if rollback {
                        Ok(())
                    } else {
                        Err(e)
                    }
                }
            }
        });
        retries
    }

    fn order_status(&self, customer: i64) -> u64 {
        let session = self.session;
        let v = self.violations;
        session.begin().expect("begin read txn");
        let b1 = read_one_int(
            session,
            "SELECT c_balance FROM CUSTOMER WHERE c_id = ?",
            customer,
        )
        .expect("balance");
        let agg = session
            .query(
                "SELECT COUNT(*), SUM(o_amount) FROM ORDERS WHERE o_c_id = ?",
                &[Value::Int(customer)],
            )
            .expect("order agg");
        let row = &agg.try_table().expect("one stream").rows[0];
        let n_orders = row[0].as_int().unwrap();
        v.check(n_orders >= 0, || "order count negative".to_string());
        let b2 = read_one_int(
            session,
            "SELECT c_balance FROM CUSTOMER WHERE c_id = ?",
            customer,
        )
        .expect("balance again");
        v.check_eq(b2, b1, || {
            format!("order_status({customer}): repeatable read on c_balance")
        });
        if self.seen.is_multiple_of(CHECK_EVERY) {
            // Conserved total under one snapshot: every unit of money is in
            // a customer balance or an order amount.
            let balances = read_sum(session, "SELECT SUM(c_balance) FROM CUSTOMER").unwrap_or(0);
            let orders = read_sum(session, "SELECT SUM(o_amount) FROM ORDERS").unwrap_or(0);
            v.check_eq(balances + orders, TpccModel::conserved_total(), || {
                "order_status: conserved balance+orders total broken mid-storm".to_string()
            });
        }
        session.commit().expect("commit read txn");
        0
    }

    fn summary(&self, district: i64) -> u64 {
        let session = self.session;
        let v = self.violations;
        session.begin().expect("begin summary txn");
        let mv = query_opt_pair(
            session,
            "SELECT n, total FROM ord_sum WHERE d = ?",
            district,
        );
        let base = {
            let r = session
                .query(
                    "SELECT COUNT(*), SUM(o_amount) FROM ORDERS WHERE o_d_id = ?",
                    &[Value::Int(district)],
                )
                .expect("base agg");
            let row = &r.try_table().expect("one stream").rows[0];
            let n = row[0].as_int().unwrap();
            if n == 0 {
                None
            } else {
                Some((n, row[1].as_int().unwrap()))
            }
        };
        session.commit().expect("commit summary txn");
        // Maintenance commits with its base writes, so one snapshot sees
        // the matview exactly as current as the base tables.
        v.check_eq(mv, base, || {
            format!("summary(d{district}): ord_sum matview != base aggregation")
        });
        0
    }

    fn co_fetch(&self, district: i64) -> u64 {
        let co = self
            .session
            .database()
            .fetch_co_point("dist_co", &Value::Int(district))
            .expect("co point fetch");
        let roots = co.workspace.component("xdist").expect("xdist").len();
        let custs = co.workspace.component("xcust").expect("xcust").len() as u64;
        // A fetch reads one commit's view of the stored streams, and
        // customers never move between districts in this workload.
        self.violations
            .check_eq((roots, custs), (1, CUSTOMERS_PER_D), || {
                format!("co_fetch(d{district}): wrong (roots, customers) subtree shape")
            });
        0
    }
}

fn read_one_int(session: &Session<'_>, sql: &str, param: i64) -> Result<i64, XnfError> {
    let r = session.query(sql, &[Value::Int(param)])?;
    let rows = &r.try_table().map_err(XnfError::from)?.rows;
    assert_eq!(rows.len(), 1, "expected one row from `{sql}` ({param})");
    Ok(rows[0][0].as_int().expect("integer column"))
}

/// `SUM(...)` over a possibly-empty set: NULL folds to None.
fn read_sum(session: &Session<'_>, sql: &str) -> Option<i64> {
    let r = session.query(sql, &[]).expect("sum query");
    r.try_table().expect("one stream").rows[0][0].as_int().ok()
}

/// (n, total) from a keyed matview lookup; no row → None.
fn query_opt_pair(session: &Session<'_>, sql: &str, param: i64) -> Option<(i64, i64)> {
    let r = session.query(sql, &[Value::Int(param)]).expect("mv query");
    let binding = r.try_table().expect("one stream");
    binding
        .rows
        .first()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
}

/// Quiesced differential check: every table, the summary matview (against
/// both the model and a full REFRESH), the conserved total, and the
/// materialized CO view against on-demand extraction.
fn quiesce_check(db: &Database, model: &TpccModel, v: &Violations) {
    let s = db.session();
    let engine = rows_of(db, "SELECT c_id, c_balance FROM CUSTOMER ORDER BY c_id");
    let mut expect: Vec<Vec<String>> = model
        .balances
        .iter()
        .map(|(c, b)| {
            vec![
                format!("{:?}", Value::Int(*c)),
                format!("{:?}", Value::Int(*b)),
            ]
        })
        .collect();
    expect.sort();
    v.check_eq(engine, expect, || {
        "quiesce: CUSTOMER balances diverged from the replayed model".to_string()
    });

    let engine = rows_of(
        db,
        "SELECT d_id, d_ytd, d_next_o_id FROM DISTRICT ORDER BY d_id",
    );
    let mut expect: Vec<Vec<String>> = model
        .districts
        .iter()
        .map(|(d, (ytd, next))| {
            vec![
                format!("{:?}", Value::Int(*d)),
                format!("{:?}", Value::Int(*ytd)),
                format!("{:?}", Value::Int(*next)),
            ]
        })
        .collect();
    expect.sort();
    v.check_eq(engine, expect, || {
        "quiesce: DISTRICT ytd/next_o_id diverged from the replayed model".to_string()
    });

    let engine = rows_of(
        db,
        "SELECT o_id, o_c_id, o_d_id, o_w_id, o_amount FROM ORDERS ORDER BY o_id",
    );
    let mut expect: Vec<Vec<String>> = model
        .orders
        .iter()
        .map(|(o, (c, d, w, a))| {
            vec![
                format!("{:?}", Value::Int(*o)),
                format!("{:?}", Value::Int(*c)),
                format!("{:?}", Value::Int(*d)),
                format!("{:?}", Value::Int(*w)),
                format!("{:?}", Value::Int(*a)),
            ]
        })
        .collect();
    expect.sort();
    v.check_eq(engine, expect, || {
        "quiesce: ORDERS diverged from the replayed model".to_string()
    });

    // Conserved total on the final state.
    let balances: i64 = model.balances.values().sum();
    let orders: i64 = model.orders.values().map(|(_, _, _, a)| a).sum();
    v.check_eq(balances + orders, TpccModel::conserved_total(), || {
        "quiesce: model itself broke conservation (harness bug)".to_string()
    });

    // Summary matview: incremental == model == full REFRESH.
    let incremental = rows_of(db, "SELECT * FROM ord_sum");
    let mut expect: Vec<Vec<String>> = model
        .summary()
        .iter()
        .map(|(d, (n, total))| {
            vec![
                format!("{:?}", Value::Int(*d)),
                format!("{:?}", Value::Int(*n)),
                format!("{:?}", Value::Int(*total)),
            ]
        })
        .collect();
    expect.sort();
    v.check_eq(incremental.clone(), expect, || {
        "quiesce: ord_sum matview diverged from the model".to_string()
    });
    s.execute("REFRESH MATERIALIZED VIEW ord_sum", &[])
        .expect("refresh");
    v.check_eq(incremental, rows_of(db, "SELECT * FROM ord_sum"), || {
        "quiesce: incremental ord_sum != REFRESH recompute".to_string()
    });

    // Materialized CO view == on-demand extraction.
    let stored = s.fetch_co("dist_co").expect("stored co");
    let fresh = s.fetch_co(DIST_CO).expect("on-demand co");
    v.check_eq(canon_co(&stored), canon_co(&fresh), || {
        "quiesce: dist_co CO matview != on-demand extraction".to_string()
    });
}
