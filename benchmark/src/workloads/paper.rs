//! The paper's Fig. 1 schema — DEPT, EMP, PROJ, SKILLS and the EMPSKILLS /
//! PROJSKILLS mapping tables — with its composite object, a seeded data
//! set, and the in-benchmark model of both. Shared by `co_serve` (which
//! only reads it) and `oltp_views` (which writes it under two views).

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{Result, Session, Value};
use crate::gen::Rng;

pub const SKILLS_PER_EMP: usize = 3;
pub const SKILLS_PER_PROJ: usize = 4;
pub const EMPS_PER_DEPT: u64 = 20;
pub const PROJS_PER_DEPT: u64 = 5;

/// The Fig. 1 composite object over every department.
const CO_BODY: &str = "\
OUT OF xdept AS (SELECT * FROM DEPT),
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

/// The CO of every department (the body of the `dept_co` view).
pub fn co_all() -> String {
    CO_BODY.to_string()
}

/// The CO of one department; `dno` is `?` or a literal.
pub fn co_of_dept(dno: &str) -> String {
    format!("{CO_BODY} WHERE xdept.dno = {dno}")
}

#[derive(Debug, Clone, PartialEq)]
pub struct Emp {
    pub edno: i64,
    pub sal: i64,
    pub skills: [i64; SKILLS_PER_EMP],
}

#[derive(Debug, Clone, PartialEq)]
pub struct Proj {
    pub pdno: i64,
    pub skills: [i64; SKILLS_PER_PROJ],
}

/// Tuple and connection counts of one department's composite object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Shape {
    pub emps: usize,
    pub projs: usize,
    /// Distinct skills reachable through employees or projects.
    pub skills: usize,
    /// Distinct skills reachable through projects alone.
    pub proj_skills: usize,
}

impl Shape {
    pub fn tuples(&self) -> usize {
        1 + self.emps + self.projs + self.skills
    }

    pub fn connections(&self) -> usize {
        self.emps * (1 + SKILLS_PER_EMP) + self.projs * (1 + SKILLS_PER_PROJ)
    }
}

/// The data set and, as transactions are replayed into it, the model.
#[derive(Debug, Clone, PartialEq)]
pub struct Paper {
    pub depts: u64,
    pub skills: u64,
    /// eno → employee.
    pub emps: BTreeMap<i64, Emp>,
    /// pno → project.
    pub projs: BTreeMap<i64, Proj>,
}

fn skill_set<const N: usize>(rng: &mut Rng, skills: u64) -> [i64; N] {
    let picked = rng.distinct(N, skills);
    std::array::from_fn(|i| picked[i] as i64)
}

impl Paper {
    pub fn generate(rng: &mut Rng, depts: u64, skills: u64) -> Paper {
        let mut emps = BTreeMap::new();
        let mut projs = BTreeMap::new();
        for d in 0..depts as i64 {
            for _ in 0..EMPS_PER_DEPT {
                let eno = emps.len() as i64;
                emps.insert(
                    eno,
                    Emp {
                        edno: d,
                        sal: rng.range(400, 1600),
                        skills: skill_set(rng, skills),
                    },
                );
            }
            for _ in 0..PROJS_PER_DEPT {
                let pno = projs.len() as i64;
                projs.insert(
                    pno,
                    Proj {
                        pdno: d,
                        skills: skill_set(rng, skills),
                    },
                );
            }
        }
        Paper {
            depts,
            skills,
            emps,
            projs,
        }
    }

    /// Create the tables, load them in one transaction, build the
    /// join-column indexes and ANALYZE.
    pub fn load(&self, s: &Session<'_>) -> Result<()> {
        for ddl in [
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10))",
            "CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal INT)",
            "CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT)",
            "CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30))",
            "CREATE TABLE EMPSKILLS (eseno INT, essno INT)",
            "CREATE TABLE PROJSKILLS (pspno INT, pssno INT)",
        ] {
            s.execute(ddl, &[])?;
        }
        const LOCS: [&str; 5] = ["ARC", "HDC", "YKT", "SJC", "ALM"];
        s.begin()?;
        let mut ins = s.prepare("INSERT INTO DEPT VALUES (?, ?, ?)")?;
        for d in 0..self.depts as i64 {
            ins.execute_with(&[
                Value::Int(d),
                Value::Str(format!("dept-{d}")),
                Value::Str(LOCS[d as usize % LOCS.len()].to_string()),
            ])?;
        }
        let mut ins = s.prepare("INSERT INTO SKILLS VALUES (?, ?)")?;
        for k in 0..self.skills as i64 {
            ins.execute_with(&[Value::Int(k), Value::Str(format!("skill-{k}"))])?;
        }
        let mut ins = s.prepare(INSERT_EMP)?;
        let mut link = s.prepare(INSERT_EMPSKILL)?;
        for (&eno, e) in &self.emps {
            ins.execute_with(&emp_row(eno, e))?;
            for &k in &e.skills {
                link.execute_with(&[Value::Int(eno), Value::Int(k)])?;
            }
        }
        let mut ins = s.prepare("INSERT INTO PROJ VALUES (?, ?, ?)")?;
        let mut link = s.prepare("INSERT INTO PROJSKILLS VALUES (?, ?)")?;
        for (&pno, p) in &self.projs {
            ins.execute_with(&[
                Value::Int(pno),
                Value::Str(format!("proj-{pno}")),
                Value::Int(p.pdno),
            ])?;
            for &k in &p.skills {
                link.execute_with(&[Value::Int(pno), Value::Int(k)])?;
            }
        }
        s.commit()?;
        for ddl in [
            "CREATE UNIQUE INDEX dept_pk ON DEPT (dno)",
            "CREATE UNIQUE INDEX emp_pk ON EMP (eno)",
            "CREATE INDEX emp_dno ON EMP (edno)",
            "CREATE INDEX proj_dno ON PROJ (pdno)",
            "CREATE UNIQUE INDEX skills_pk ON SKILLS (sno)",
            "CREATE INDEX es_eno ON EMPSKILLS (eseno)",
            "CREATE INDEX ps_pno ON PROJSKILLS (pspno)",
            "ANALYZE",
        ] {
            s.execute(ddl, &[])?;
        }
        Ok(())
    }

    /// The expected shape of every department's CO, by naive evaluation.
    pub fn shapes(&self) -> Vec<Shape> {
        let mut shapes = vec![Shape::default(); self.depts as usize];
        let mut reach: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); self.depts as usize];
        for p in self.projs.values() {
            shapes[p.pdno as usize].projs += 1;
            reach[p.pdno as usize].extend(p.skills);
        }
        for (shape, set) in shapes.iter_mut().zip(&reach) {
            shape.proj_skills = set.len();
        }
        for e in self.emps.values() {
            shapes[e.edno as usize].emps += 1;
            reach[e.edno as usize].extend(e.skills);
        }
        for (shape, set) in shapes.iter_mut().zip(&reach) {
            shape.skills = set.len();
        }
        shapes
    }

    /// `(COUNT(*), SUM(sal))` per department that has employees.
    pub fn pay(&self) -> BTreeMap<i64, (i64, i64)> {
        let mut pay: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for e in self.emps.values() {
            let p = pay.entry(e.edno).or_insert((0, 0));
            p.0 += 1;
            p.1 += e.sal;
        }
        pay
    }
}

pub const INSERT_EMP: &str = "INSERT INTO EMP VALUES (?, ?, ?, ?)";
pub const INSERT_EMPSKILL: &str = "INSERT INTO EMPSKILLS VALUES (?, ?)";

pub fn emp_row(eno: i64, e: &Emp) -> [Value; 4] {
    [
        Value::Int(eno),
        Value::Str(format!("emp-{eno}")),
        Value::Int(e.edno),
        Value::Int(e.sal),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_count_distinct_reachable_skills() {
        let mut p = Paper::generate(&mut Rng::new(5), 3, 12);
        assert_eq!(p.emps.len(), 60);
        assert_eq!(p.projs.len(), 15);
        let s = p.shapes();
        assert_eq!(s[0].emps, 20);
        assert_eq!(s[0].projs, 5);
        assert!(s[0].skills <= 12 && s[0].skills >= s[0].proj_skills);
        assert_eq!(s[0].connections(), 20 * 4 + 5 * 5);
        // Moving an employee moves its row and its skill links.
        p.emps.get_mut(&0).unwrap().edno = 2;
        let s2 = p.shapes();
        assert_eq!(s2[0].emps, 19);
        assert_eq!(s2[2].emps, 21);
        let total: i64 = p.pay().values().map(|(n, _)| n).sum();
        assert_eq!(total, 60);
    }
}
