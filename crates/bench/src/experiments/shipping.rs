//! E6 — Sect. 5.3: page vs object vs query shipping.
//!
//! For one request ("the eno/ename of every ARC employee") each policy is
//! simulated over the same stored table; the table reports messages, bytes,
//! exposed tuples/attributes and simulated time — quantifying the paper's
//! qualitative comparison (page shipping exposes co-located data; object
//! shipping multiplies messages "by an order of magnitude"; query shipping
//! ships only what was asked).

use xnf_core::{simulate_shipping, ShippingPolicy, ShippingReport, TransportCost};
use xnf_fixtures::{build_paper_db, PaperScale};
use xnf_storage::Value;

#[derive(Debug, Clone)]
pub struct ShippingRow {
    pub policy: &'static str,
    pub report: ShippingReport,
}

pub fn run_shipping(departments: usize) -> Vec<ShippingRow> {
    let db = build_paper_db(PaperScale {
        departments,
        ..Default::default()
    });
    let table = db.catalog().table("EMP").unwrap();
    // Request: employees of ARC departments (edno < #ARC by generator
    // construction), projected to (eno, ename).
    let arc: Vec<i64> = db
        .session()
        .query("SELECT dno FROM DEPT WHERE loc = 'ARC'", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    let mut rids = Vec::new();
    table
        .for_each(|rid, t| {
            if let Value::Int(d) = t.values[2] {
                if arc.contains(&d) {
                    rids.push(rid);
                }
            }
            Ok(true)
        })
        .unwrap();
    let cols = [0usize, 1];

    vec![
        ShippingRow {
            policy: "page shipping (ObjectStore-style)",
            report: simulate_shipping(&table, &rids, &cols, ShippingPolicy::PageShipping).unwrap(),
        },
        ShippingRow {
            policy: "object shipping (Versant-style)",
            report: simulate_shipping(&table, &rids, &cols, ShippingPolicy::ObjectShipping)
                .unwrap(),
        },
        ShippingRow {
            policy: "query shipping (RDBMS/XNF)",
            report: simulate_shipping(
                &table,
                &rids,
                &cols,
                ShippingPolicy::QueryShipping {
                    block_bytes: 32 * 1024,
                },
            )
            .unwrap(),
        },
    ]
}

pub fn render_shipping(rows: &[ShippingRow]) -> String {
    use std::fmt::Write;
    let cost = TransportCost::default();
    let mut s = String::new();
    let _ = writeln!(s, "Sect. 5.3 — shipping policies for one CO request");
    let _ = writeln!(
        s,
        "{:<36} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "policy", "msgs", "bytes", "exp.tuples", "exp.attrs", "sim ms"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<36} {:>8} {:>10} {:>12} {:>12} {:>9.2}",
            r.policy,
            r.report.messages,
            r.report.bytes,
            r.report.exposed_tuples,
            r.report.exposed_attributes,
            r.report.simulated_ms(cost)
        );
    }
    let _ = writeln!(
        s,
        "(paper: object shipping 'often increases the traffic … by an order of magnitude';\n\
         page shipping 'potentially can compromise security of the data';\n\
         RDBMS query shipping provides 'full integrity and security')"
    );
    s
}
