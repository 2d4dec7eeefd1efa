//! Prepared statements end to end: a `Session`, `?` parameter binding, the
//! shared DDL-aware plan cache, and a prepared composite-object query.
//!
//! Run with: `cargo run --example prepared_queries`

use composite_views::{Database, Value};

fn main() {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
         CREATE INDEX emp_eno ON EMP (eno);
         INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, 'apps', 'HDC');
         INSERT INTO EMP VALUES (1, 'e1', 1, 100.0), (2, 'e2', 1, 120.0),
                                (3, 'e3', 2, 90.0), (4, 'e4', 3, 80.0);",
        )
        .expect("schema + data");

    let session = db.session();

    // Parameterized DML: one compiled INSERT, many bindings.
    let mut hire = session
        .prepare("INSERT INTO EMP VALUES (?, ?, ?, ?)")
        .expect("prepare insert");
    for (eno, name, dno, sal) in [(5, "e5", 2, 105.0), (6, "e6", 3, 95.0)] {
        hire.execute_with(&[
            Value::Int(eno),
            Value::Str(name.into()),
            Value::Int(dno),
            Value::Double(sal),
        ])
        .expect("insert");
    }

    // Parameterized point query: prepared once, index-backed, executed for
    // every employee id.
    let mut by_eno = session
        .prepare("SELECT ename, sal FROM EMP WHERE eno = ?")
        .expect("prepare select");
    println!("employees by point lookup:");
    for eno in 1..=6 {
        let r = by_eno
            .execute_with(&[Value::Int(eno)])
            .and_then(|o| o.try_rows())
            .expect("execute");
        for row in &r.try_table().unwrap().rows {
            println!("  eno {eno}: {} earns {}", row[0], row[1]);
        }
    }

    // A prepared CO query: the whole OUT OF … TAKE … pipeline compiles
    // once; each bind re-extracts the composite object for a new location.
    let mut co_by_loc = session
        .prepare(
            "OUT OF xdept AS (SELECT * FROM DEPT),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp
                                   WHERE xdept.dno = xemp.edno)
             TAKE * WHERE xdept.loc = ?",
        )
        .expect("prepare CO query");
    for loc in ["ARC", "HDC"] {
        co_by_loc.bind(&[Value::Str(loc.into())]).expect("bind");
        let co = co_by_loc.fetch_co().expect("fetch CO");
        println!("\ncomposite object for loc = {loc}:");
        for dept in co.workspace.independent("xdept").expect("xdept") {
            println!("  {}", dept.get_str("dname").unwrap());
            for emp in dept.children("employment").expect("employment") {
                println!(
                    "    EMPLOYS {} (sal {})",
                    emp.get_str("ename").unwrap(),
                    emp.get_f64("sal").unwrap()
                );
            }
        }
    }

    let s = session.stats();
    let c = db.plan_cache_stats();
    println!(
        "\nsession: {} cache hit(s), {} miss(es); database: {} compiles, {} hits",
        s.cache_hits, s.cache_misses, c.compiles, c.hits
    );
}
