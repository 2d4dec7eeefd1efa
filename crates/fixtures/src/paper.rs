//! The paper's Fig. 1 schema (DEPT, EMP, PROJ, SKILLS plus the EMPSKILLS /
//! PROJSKILLS mapping tables) generated at configurable scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::{Database, DbConfig};
use xnf_storage::{Tuple, Value};

/// Scale knobs for the generated database.
#[derive(Debug, Clone, Copy)]
pub struct PaperScale {
    pub departments: usize,
    /// Fraction of departments located at 'ARC' (the query's selectivity).
    pub arc_fraction: f64,
    pub employees_per_dept: usize,
    pub projects_per_dept: usize,
    pub skills: usize,
    pub skills_per_employee: usize,
    pub skills_per_project: usize,
    pub seed: u64,
}

impl Default for PaperScale {
    fn default() -> Self {
        PaperScale {
            departments: 50,
            arc_fraction: 0.2,
            employees_per_dept: 20,
            projects_per_dept: 5,
            skills: 200,
            skills_per_employee: 3,
            skills_per_project: 4,
            seed: 42,
        }
    }
}

/// The deps_ARC XNF query of Fig. 1.
pub const DEPS_ARC: &str = "\
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
TAKE *";

/// The deps_ARC query text (callers may want to tweak the location).
pub fn deps_arc_query(loc: &str) -> String {
    DEPS_ARC.replace("'ARC'", &format!("'{loc}'"))
}

const LOCATIONS: &[&str] = &["HDC", "YKT", "SJC", "ALM"];

const SCHEMA: &str = "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
     CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
     CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT);
     CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30));
     CREATE TABLE EMPSKILLS (eseno INT, essno INT);
     CREATE TABLE PROJSKILLS (pspno INT, pssno INT);";

/// Indexes on the join columns, then ANALYZE.
const INDEXES: &str = "CREATE UNIQUE INDEX dept_pk ON DEPT (dno);
     CREATE UNIQUE INDEX emp_pk ON EMP (eno);
     CREATE INDEX emp_dno ON EMP (edno);
     CREATE INDEX proj_dno ON PROJ (pdno);
     CREATE INDEX es_eno ON EMPSKILLS (eseno);
     CREATE INDEX ps_pno ON PROJSKILLS (pspno);
     ANALYZE;";

/// Build the paper schema at the given scale; statistics are analyzed and
/// indexes on the join columns are created.
pub fn build_paper_db(scale: PaperScale) -> Database {
    build_paper_db_with(scale, DbConfig::default())
}

/// [`build_paper_db`] under a custom [`DbConfig`] (used by the oracle
/// suite and the bench ablations). Generation is deterministic for a
/// fixed seed, so two databases built from the same scale hold identical
/// data.
pub fn build_paper_db_with(scale: PaperScale, config: DbConfig) -> Database {
    let db = if config.data_dir.is_some() {
        Database::open_with_config(config).expect("open durable paper fixture")
    } else {
        Database::with_config(config)
    };
    let session = db.session();
    session.execute_batch(SCHEMA).expect("schema");

    let mut rng = StdRng::seed_from_u64(scale.seed);
    let cat = db.catalog();
    let dept = cat.table("DEPT").unwrap();
    let emp = cat.table("EMP").unwrap();
    let proj = cat.table("PROJ").unwrap();
    let skills = cat.table("SKILLS").unwrap();
    let es = cat.table("EMPSKILLS").unwrap();
    let ps = cat.table("PROJSKILLS").unwrap();

    let n_arc = ((scale.departments as f64) * scale.arc_fraction).round() as usize;
    for d in 0..scale.departments {
        let loc = if d < n_arc {
            "ARC".to_string()
        } else {
            LOCATIONS[rng.gen_range(0..LOCATIONS.len())].to_string()
        };
        dept.insert(&Tuple::new(vec![
            Value::Int(d as i64),
            Value::Str(format!("dept-{d}")),
            Value::Str(loc),
        ]))
        .unwrap();
    }
    let mut eno = 0i64;
    for d in 0..scale.departments {
        for _ in 0..scale.employees_per_dept {
            emp.insert(&Tuple::new(vec![
                Value::Int(eno),
                Value::Str(format!("emp-{eno}")),
                Value::Int(d as i64),
                Value::Double(rng.gen_range(40.0..160.0)),
            ]))
            .unwrap();
            for _ in 0..scale.skills_per_employee {
                es.insert(&Tuple::new(vec![
                    Value::Int(eno),
                    Value::Int(rng.gen_range(0..scale.skills as i64)),
                ]))
                .unwrap();
            }
            eno += 1;
        }
    }
    let mut pno = 0i64;
    for d in 0..scale.departments {
        for _ in 0..scale.projects_per_dept {
            proj.insert(&Tuple::new(vec![
                Value::Int(pno),
                Value::Str(format!("proj-{pno}")),
                Value::Int(d as i64),
            ]))
            .unwrap();
            for _ in 0..scale.skills_per_project {
                ps.insert(&Tuple::new(vec![
                    Value::Int(pno),
                    Value::Int(rng.gen_range(0..scale.skills as i64)),
                ]))
                .unwrap();
            }
            pno += 1;
        }
    }
    for s in 0..scale.skills {
        skills
            .insert(&Tuple::new(vec![
                Value::Int(s as i64),
                Value::Str(format!("skill-{s}")),
            ]))
            .unwrap();
    }

    session.execute_batch(INDEXES).expect("indexes");
    db
}

/// The Fig. 1 schema with `depts` departments whose contents are a pure
/// function of the department (20 employees with 3 skills each, 5
/// projects with 4 skills each, 200 skills), join-column indexes and
/// ANALYZE. A department's CO is the same at every database size.
pub fn build_uniform_paper_db_with(depts: i64, config: DbConfig) -> Database {
    let db = Database::with_config(config);
    let session = db.session();
    session.execute_batch(SCHEMA).expect("schema");
    let table = |name: &str| db.catalog().table(name).unwrap();
    let insert = |t: &str, values: Vec<Value>| table(t).insert(&Tuple::new(values)).unwrap();
    let named = |i: i64, prefix: &str| vec![Value::Int(i), Value::Str(format!("{prefix}-{i}"))];
    for d in 0..depts {
        let loc = Value::Str(["ARC", "HDC", "YKT", "SJC", "ALM"][d as usize % 5].into());
        insert("DEPT", [named(d, "dept"), vec![loc]].concat());
        for e in d * 20..(d + 1) * 20 {
            let sal = Value::Double(40.0 + (e % 120) as f64);
            insert("EMP", [named(e, "emp"), vec![Value::Int(d), sal]].concat());
            for k in 0..3 {
                insert(
                    "EMPSKILLS",
                    vec![Value::Int(e), Value::Int((e * 7 + k * 61) % 200)],
                );
            }
        }
        for p in d * 5..(d + 1) * 5 {
            insert("PROJ", [named(p, "proj"), vec![Value::Int(d)]].concat());
            for k in 0..4 {
                insert(
                    "PROJSKILLS",
                    vec![Value::Int(p), Value::Int((p * 11 + k * 37) % 200)],
                );
            }
        }
    }
    for s in 0..200 {
        insert("SKILLS", named(s, "skill"));
    }
    let indexes = format!("CREATE UNIQUE INDEX skills_pk ON SKILLS (sno); {INDEXES}");
    session.execute_batch(&indexes).expect("indexes");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_cardinalities() {
        let scale = PaperScale {
            departments: 10,
            arc_fraction: 0.3,
            employees_per_dept: 4,
            projects_per_dept: 2,
            skills: 20,
            skills_per_employee: 2,
            skills_per_project: 1,
            seed: 7,
        };
        let db = build_paper_db(scale);
        let count = |sql: &str| -> i64 {
            db.session()
                .query(sql, &[])
                .unwrap()
                .try_table()
                .unwrap()
                .rows[0][0]
                .as_int()
                .unwrap()
        };
        assert_eq!(count("SELECT COUNT(*) FROM DEPT"), 10);
        assert_eq!(count("SELECT COUNT(*) FROM DEPT WHERE loc = 'ARC'"), 3);
        assert_eq!(count("SELECT COUNT(*) FROM EMP"), 40);
        assert_eq!(count("SELECT COUNT(*) FROM PROJ"), 20);
        assert_eq!(count("SELECT COUNT(*) FROM EMPSKILLS"), 80);
    }

    #[test]
    fn deps_arc_runs_at_scale() {
        let db = build_paper_db(PaperScale {
            departments: 20,
            employees_per_dept: 5,
            ..Default::default()
        });
        let session = db.session();
        let co = session.fetch_co(DEPS_ARC).unwrap();
        let n_arc = session
            .query("SELECT COUNT(*) FROM DEPT WHERE loc = 'ARC'", &[])
            .unwrap()
            .try_table()
            .unwrap()
            .rows[0][0]
            .as_int()
            .unwrap() as usize;
        assert_eq!(co.workspace.component("xdept").unwrap().len(), n_arc);
        assert_eq!(co.workspace.component("xemp").unwrap().len(), n_arc * 5);
        // Every cached employee's edno refers to an ARC department.
        let ws = &co.workspace;
        for e in ws.independent("xemp").unwrap() {
            assert_eq!(e.parents("employment").unwrap().count(), 1);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = build_paper_db(PaperScale::default());
        let b = build_paper_db(PaperScale::default());
        let q = "SELECT SUM(eno) FROM EMP";
        assert_eq!(
            a.session().query(q, &[]).unwrap().try_table().unwrap().rows[0][0],
            b.session().query(q, &[]).unwrap().try_table().unwrap().rows[0][0]
        );
    }
}
