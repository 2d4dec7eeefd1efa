//! Path expressions, projection, restriction and CO composition (Sect. 2).
//!
//! Run with: `cargo run --example path_queries`

use composite_views::Database;
use xnf_fixtures::{build_paper_db, PaperScale};

fn main() {
    let db: Database = build_paper_db(PaperScale {
        departments: 8,
        arc_fraction: 0.25,
        employees_per_dept: 3,
        projects_per_dept: 2,
        skills: 12,
        skills_per_employee: 2,
        skills_per_project: 2,
        ..Default::default()
    });
    let session = db.session();

    // Store the full CO view once.
    session
        .execute(
            &format!("CREATE VIEW deps_ARC AS {}", xnf_fixtures::DEPS_ARC),
            &[],
        )
        .expect("view");

    // Projection: take only the employment subtree, with column projection
    // on the nodes.
    let slim = session
        .query(
            "OUT OF deps_ARC
             TAKE xdept(dno, dname), employment, xemp(eno, ename)",
            &[],
        )
        .expect("projection");
    println!("projected CO streams:");
    for s in &slim.streams {
        println!(
            "  {} ({} rows, columns {:?})",
            s.name,
            s.rows.len(),
            s.columns
        );
    }

    // Restriction: the same CO limited to well-paid employees.
    let rich = session
        .query(
            "OUT OF deps_ARC TAKE xdept, employment, xemp WHERE xemp.sal > 120.0",
            &[],
        )
        .expect("restriction");
    println!(
        "\nrestricted CO: {} well-paid employees (of {})",
        rich.stream("xemp").unwrap().rows.len(),
        slim.stream("xemp").unwrap().rows.len()
    );

    // Path expressions over the cache.
    let co = session.fetch_co("deps_ARC").expect("fetch");
    let ws = &co.workspace;
    let via_emp = ws
        .path("xdept.employment.xemp.empproperty.xskills")
        .unwrap();
    let via_proj = ws
        .path("xdept.ownership.xproj.projproperty.xskills")
        .unwrap();
    println!(
        "\nskills reachable via employees: {}, via projects: {} (of {} total)",
        via_emp.len(),
        via_proj.len(),
        ws.component("xskills").unwrap().len()
    );

    // Object sharing: skills reachable both ways exist once in the CO.
    let shared: Vec<u32> = via_emp
        .iter()
        .copied()
        .filter(|id| via_proj.contains(id))
        .collect();
    println!("skills shared by both paths: {}", shared.len());

    // EXPLAIN shows the shared component derivations ("table queues").
    println!(
        "\nEXPLAIN OUT OF deps_ARC TAKE * :\n{}",
        db.explain(xnf_fixtures::DEPS_ARC).unwrap()
    );
}
