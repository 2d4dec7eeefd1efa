//! The `analytic` benchmark's star schema at test scale: a `SALES` fact
//! table over the `ITEM` and `CUST` dimensions, with the benchmark's
//! indexes and statistics.

use xnf_core::{Database, DbConfig};
use xnf_storage::{Tuple, Value};

/// Build `SALES(sale, day, item, cust, qty, amount, note)` with `sales`
/// rows (a 100-byte `note` each), `ITEM(item, cat, price)` with 100 and
/// `CUST(cust, region, cname)` with 200; deterministic.
pub fn build_star_db_with(sales: i64, config: DbConfig) -> Database {
    let db = Database::with_config(config);
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE SALES (sale INT, day INT, item INT, cust INT, qty INT, amount INT, \
                             note VARCHAR(100));
         CREATE TABLE ITEM (item INT, cat INT, price INT);
         CREATE TABLE CUST (cust INT, region INT, cname VARCHAR(20));",
    )
    .expect("schema");
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let fill = |table: &str, n: i64, row: &dyn Fn(i64) -> Vec<Value>| {
        let table = db.catalog().table(table).unwrap();
        for k in 0..n {
            table.insert(&Tuple::new(row(k))).unwrap();
        }
    };
    fill("SALES", sales, &|k| {
        let mut row = ints(&[k, k * 7 % 365, k * 13 % 100, k * 17 % 200, 1 + k % 9]);
        row.extend([
            Value::Int(1 + k * 31 % 499),
            Value::Str(format!("{k:0>100}")),
        ]);
        row
    });
    fill("ITEM", 100, &|k| ints(&[k, k % 40, 1 + k % 97]));
    fill("CUST", 200, &|k| {
        let mut row = ints(&[k, k % 25]);
        row.push(Value::Str(format!("cust-{k}")));
        row
    });
    s.execute_batch(
        "CREATE INDEX sales_day ON SALES (day);
         CREATE UNIQUE INDEX item_pk ON ITEM (item);
         CREATE UNIQUE INDEX cust_pk ON CUST (cust);
         ANALYZE;",
    )
    .expect("indexes");
    db
}
