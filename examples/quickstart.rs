//! Quickstart: the paper's Fig. 1 end to end.
//!
//! Creates the DEPT/EMP/PROJ/SKILLS schema, defines the `deps_ARC`
//! composite-object view, fetches it into the client-side XNF cache and
//! prints the instance graphs — reproducing the right-hand side of Fig. 1.
//!
//! Run with: `cargo run --example quickstart`

use composite_views::{CoCache, Database};

fn main() {
    let db = Database::new();
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
         CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
         CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT);
         CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30));
         CREATE TABLE EMPSKILLS (eseno INT, essno INT);
         CREATE TABLE PROJSKILLS (pspno INT, pssno INT);",
    )
    .expect("schema");

    // The Fig. 1 instance: d1/d2 at ARC, employees e1..e4, skill s2 held
    // only by the non-ARC employee e4 (hence unreachable from the CO).
    s.execute_batch(
        "INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, 'apps', 'HDC');
         INSERT INTO EMP VALUES (1, 'e1', 1, 100.0), (2, 'e2', 1, 120.0),
                                (3, 'e3', 2, 90.0), (4, 'e4', 3, 80.0);
         INSERT INTO PROJ VALUES (1, 'p1', 1), (2, 'p2', 2), (3, 'p3', 3);
         INSERT INTO SKILLS VALUES (1, 's1'), (2, 's2'), (3, 's3'), (4, 's4'), (5, 's5');
         INSERT INTO EMPSKILLS VALUES (1, 1), (2, 3), (3, 3), (4, 2);
         INSERT INTO PROJSKILLS VALUES (1, 4), (2, 3), (2, 5);",
    )
    .expect("data");

    // The XNF view of Fig. 1, stored in the catalog.
    s.execute(
        "CREATE VIEW deps_ARC AS
         OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                xproj AS PROJ,
                xskills AS SKILLS,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
                ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),
                empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                                WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),
                projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS ps
                                 WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)
         TAKE *",
        &[],
    )
    .expect("view");

    // Extract the CO into the client cache and browse it with cursors.
    let co: CoCache = s.fetch_co("deps_ARC").expect("fetch");
    let ws = &co.workspace;
    println!("deps_ARC instance graphs (Fig. 1, right):\n");
    for dept in ws.independent("xdept").expect("xdept") {
        println!(
            "{} ({})",
            dept.get_str("dname").unwrap(),
            dept.get_int("dno").unwrap()
        );
        for emp in dept.children("employment").expect("employment") {
            println!("  EMPLOYS {}", emp.get_str("ename").unwrap());
            for skill in emp.children("empproperty").expect("empproperty") {
                println!("    POSSESSES {}", skill.get_str("sname").unwrap());
            }
        }
        for proj in dept.children("ownership").expect("ownership") {
            println!("  HAS {}", proj.get_str("pname").unwrap());
            for skill in proj.children("projproperty").expect("projproperty") {
                println!("    NEEDS {}", skill.get_str("sname").unwrap());
            }
        }
    }

    println!(
        "\ncomponents: {} tuples, {} connections (skill s2 is unreachable and absent)",
        ws.tuple_count(),
        ws.connection_count()
    );

    // Path expression: which skills do ARC departments need through their
    // projects?
    let ids = ws
        .path("xdept.ownership.xproj.projproperty.xskills")
        .expect("path");
    let names: Vec<String> = ids
        .iter()
        .map(|&id| ws.component("xskills").unwrap().row(id)[1].to_string())
        .collect();
    println!("skills needed by ARC projects: {}", names.join(", "));
}
