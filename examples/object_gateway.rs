//! The "seamless C++ interface" of Sect. 5.2 / the Object/SQL Gateway of
//! Sect. 6, in idiomatic Rust: cached CO tuples are materialised as typed
//! host-language objects, navigated through containers, edited, and the
//! changes written back to the relational base tables.
//!
//! Run with: `cargo run --example object_gateway`

use composite_views::{Database, TupleRef, Value};

/// A host-language view of an employee (the `class xemp` of the paper).
#[derive(Debug, Clone)]
struct Employee {
    id: u32,
    eno: i64,
    name: String,
    salary: f64,
}

impl Employee {
    /// The FromRow-style constructor the gateway generates per class.
    fn from_tuple(t: &TupleRef<'_>) -> Employee {
        Employee {
            id: t.id(),
            eno: t.get_int("eno").unwrap(),
            name: t.get_str("ename").unwrap().to_string(),
            salary: t.get_f64("sal").unwrap(),
        }
    }
}

fn main() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
         INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, 'apps', 'HDC');
         INSERT INTO EMP VALUES (1, 'mia', 1, 100.0), (2, 'ben', 1, 120.0),
                                (3, 'liv', 2, 90.0), (4, 'tom', 3, 80.0);",
        )
        .expect("schema+data");

    let mut co = session
        .fetch_co(
            "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                    xemp AS EMP,
                    employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
             TAKE *",
        )
        .expect("fetch CO");

    // The container class holding all Employee instances (paper: "a
    // container class … to allow browsing all employees").
    let employees: Vec<Employee> = co
        .workspace
        .independent("xemp")
        .unwrap()
        .map(|t| Employee::from_tuple(&t))
        .collect();
    println!("employee container: {employees:#?}");

    // Navigate objects: department of each employee.
    for e in &employees {
        let parents: Vec<String> = co
            .workspace
            .parents("employment", e.id)
            .unwrap()
            .map(|d| d.get_str("dname").unwrap().to_string())
            .collect();
        println!("#{} {} works in {}", e.eno, e.name, parents.join(", "));
    }

    // Edit through the object layer and write back (view update).
    let raise = employees.iter().find(|e| e.name == "mia").unwrap();
    co.update_value("xemp", raise.id, "sal", Value::Double(raise.salary * 1.1))
        .unwrap();
    let ops = session.write_back(&mut co).expect("write-back");
    println!("\nwrite-back applied {ops} base-table operation(s)");

    let check = session
        .query("SELECT sal FROM EMP WHERE eno = 1", &[])
        .unwrap();
    println!(
        "mia's salary in EMP is now {}",
        check.try_table().unwrap().rows[0][0]
    );

    // Rewire: move liv from 'db' to 'tools' (FK connect/disconnect).
    let liv = employees.iter().find(|e| e.name == "liv").unwrap();
    let old_dept = co
        .workspace
        .parents("employment", liv.id)
        .unwrap()
        .next()
        .unwrap()
        .id();
    co.disconnect("employment", &[old_dept, liv.id]).unwrap();
    co.connect("employment", &[0, liv.id]).unwrap();
    session.write_back(&mut co).expect("connect write-back");
    let check = session
        .query("SELECT edno FROM EMP WHERE eno = 3", &[])
        .unwrap();
    println!(
        "liv's department FK is now {}",
        check.try_table().unwrap().rows[0][0]
    );
}
