//! Lens laws for CO write-back (Sect. 2 "CO update operators"), the
//! round-trip oracle of *Incremental Relational Lenses* (Horn, Perera,
//! Cheney) and *Re-looking at the View Update Problem*. Fetching the Fig. 1
//! CO is the view's `get`; writing a workspace back is its `put`.
//!
//! - **GetPut:** writing back a fetched CO unedited — with no changes, or
//!   with every employee set to its own image — leaves the base tables as
//!   they were.
//! - **PutGet:** after a seeded sequence of update, insert, delete, connect
//!   and disconnect edits and one write-back, re-fetching the CO gives the
//!   edited workspace back, compared in value-identity form: multisets of
//!   component rows and of connections as (parent row, child row) pairs.
//!
//! Both laws run on a keyless copy of Fig. 1, where every write-back
//! statement scans, and on `build_uniform_paper_db_with(40)`, where it
//! probes a unique index. The generator edits any live row, including one
//! it inserted, moved or re-keyed earlier in the same sequence. It re-keys
//! departments and employees too: a key that links other rows is refused
//! until they are disconnected, so it reconnects them under the new key.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xnf_core::{Change, CoCache, Database, DbConfig, Value, Workspace};
use xnf_fixtures::{build_uniform_paper_db_with, DEPS_ARC};

/// Fig. 1 with no index: write-back statements find their rows by scans.
fn fig1_db() -> Database {
    let db = Database::new();
    db.session()
        .execute_batch(
            "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(10));
             CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR(30), edno INT, sal DOUBLE);
             CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR(30), pdno INT);
             CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR(30));
             CREATE TABLE EMPSKILLS (eseno INT, essno INT);
             CREATE TABLE PROJSKILLS (pspno INT, pssno INT);
             INSERT INTO DEPT VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, 'apps', 'HDC');
             INSERT INTO EMP VALUES (1, 'e1', 1, 100.0), (2, 'e2', 1, 120.0), (3, 'e3', 2, 90.0), (4, 'e4', 3, 80.0);
             INSERT INTO PROJ VALUES (1, 'p1', 1), (2, 'p2', 2), (3, 'p3', 3);
             INSERT INTO SKILLS VALUES (1, 's1'), (2, 's2'), (3, 's3'), (4, 's4'), (5, 's5');
             INSERT INTO EMPSKILLS VALUES (1, 1), (2, 3), (3, 3), (4, 2);
             INSERT INTO PROJSKILLS VALUES (1, 4), (2, 3), (2, 5);
             ANALYZE;",
        )
        .unwrap();
    db
}

fn uniform_db() -> Database {
    build_uniform_paper_db_with(40, DbConfig::default())
}

const TABLES: &[&str] = &["DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS"];

/// Every base table as a sorted multiset of rows.
fn base_state(db: &Database) -> Vec<Vec<String>> {
    let session = db.session();
    TABLES
        .iter()
        .map(|t| {
            let r = session.query(&format!("SELECT * FROM {t}"), &[]).unwrap();
            let mut rows: Vec<String> = (r.try_table().unwrap().rows.iter())
                .map(|row| format!("{row:?}"))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// A CO in value-identity form: per component the sorted multiset of its
/// live rows, per relationship the sorted multiset of its connections as
/// (parent row, child row).
fn canon(co: &CoCache) -> Vec<(String, Vec<String>)> {
    let ws = &co.workspace;
    let row = |comp: usize, id: u32| format!("{:?}", ws.components[comp].row(id));
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for (i, c) in ws.components.iter().enumerate() {
        let rows = ws.independent(&c.name).unwrap().map(|t| row(i, t.id()));
        out.push((c.name.clone(), rows.collect()));
    }
    for r in &ws.relationships {
        let pairs = (r.connections().iter()).map(|conn| {
            format!(
                "{} -> {}",
                row(r.parent, conn[0]),
                row(r.children[0], conn[1])
            )
        });
        out.push((r.name.clone(), pairs.collect()));
    }
    for (_, rows) in &mut out {
        rows.sort();
    }
    out
}

fn ids(ws: &Workspace, comp: &str) -> Vec<u32> {
    ws.independent(comp).unwrap().map(|t| t.id()).collect()
}

/// Live parents of skill `s`, through either relationship that reaches it.
fn skill_parents(ws: &Workspace, s: u32) -> usize {
    ["empproperty", "projproperty"]
        .iter()
        .map(|r| ws.parents(r, s).unwrap().count())
        .sum()
}

/// Give tuple `id` of `comp` the key `key` in column `col`. The update is
/// refused while the key links children along `rels`, so disconnect them,
/// re-key, and reconnect them under the new key.
fn rekey(co: &mut CoCache, comp: &str, id: u32, col: &str, rels: &[&str], key: i64) {
    let links: Vec<(&str, u32)> = (rels.iter())
        .flat_map(|&r| (co.workspace.children(r, id).unwrap()).map(move |c| (r, c.id())))
        .collect();
    let refused = co.update_value(comp, id, col, Value::Int(key));
    assert_eq!(refused.is_err(), !links.is_empty(), "{refused:?}");
    for &(r, c) in &links {
        co.disconnect(r, &[id, c]).unwrap();
    }
    co.update_value(comp, id, col, Value::Int(key)).unwrap();
    for &(r, c) in &links {
        co.connect(r, &[id, c]).unwrap();
    }
}

/// Apply `n` seeded edits to `co`. Every edit keeps each live node
/// reachable from a department, as the re-fetched CO's are. Half the
/// employee updates, moves and re-keys pick an employee inserted, moved or
/// re-keyed earlier in the sequence, so rows are edited twice.
fn edit(co: &mut CoCache, seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = 10_000i64;
    let pick = |rng: &mut StdRng, v: &[u32]| v[rng.gen_range(0..v.len())];
    // Employees inserted, moved or re-keyed so far.
    let mut edited: Vec<u32> = Vec::new();
    for _ in 0..n {
        let ws = &co.workspace;
        let depts = ids(ws, "xdept");
        let emps = ids(ws, "xemp");
        let skills = ids(ws, "xskills");
        let projs = ids(ws, "xproj");
        edited.retain(|e| emps.contains(e));
        let pick_emp = |rng: &mut StdRng| match edited.is_empty() || rng.gen_bool(0.5) {
            true => pick(rng, &emps),
            false => pick(rng, &edited),
        };
        match rng.gen_range(0..7) {
            // Update a column that is neither a key nor a foreign key.
            0 => {
                let (comp, col, id) = match rng.gen_range(0..4) {
                    0 if !emps.is_empty() => ("xemp", "sal", pick_emp(&mut rng)),
                    1 => ("xdept", "dname", pick(&mut rng, &depts)),
                    2 => ("xproj", "pname", pick(&mut rng, &projs)),
                    _ => ("xskills", "sname", pick(&mut rng, &skills)),
                };
                let value = match col {
                    "sal" => Value::Double(rng.gen_range(1..500) as f64 + 0.5),
                    _ => Value::Str(format!("{col}-{}", rng.gen_range(0..1000))),
                };
                co.update_value(comp, id, col, value).unwrap();
            }
            // Insert an employee hired into a department, with a skill.
            1 => {
                let d = pick(&mut rng, &depts);
                let dno = ws.component("xdept").unwrap().row(d)[0].clone();
                fresh += 1;
                let row = vec![
                    Value::Int(fresh),
                    Value::Str(format!("hire-{fresh}")),
                    dno,
                    Value::Double(50.0),
                ];
                let e = co.insert_row("xemp", row).unwrap();
                edited.push(e);
                co.connect("employment", &[d, e]).unwrap();
                co.connect("empproperty", &[e, pick(&mut rng, &skills)])
                    .unwrap();
            }
            // Insert a skill, needed by a project.
            2 => {
                fresh += 1;
                let row = vec![Value::Int(fresh), Value::Str(format!("new-{fresh}"))];
                let s = co.insert_row("xskills", row).unwrap();
                co.connect("projproperty", &[pick(&mut rng, &projs), s])
                    .unwrap();
            }
            // Delete an employee none of whose skills would be orphaned.
            3 => {
                let victim = emps.iter().copied().find(|&e| {
                    let held: Vec<u32> = ws
                        .children("empproperty", e)
                        .unwrap()
                        .map(|s| s.id())
                        .collect();
                    held.iter().all(|&s| skill_parents(ws, s) > 1)
                });
                if let Some(e) = victim {
                    co.delete_row("xemp", e).unwrap();
                }
            }
            // Connect an employee to a skill they lack, or disconnect one
            // that someone else also holds.
            4 => {
                if emps.is_empty() {
                    continue;
                }
                let e = pick(&mut rng, &emps);
                let held: Vec<u32> = ws
                    .children("empproperty", e)
                    .unwrap()
                    .map(|s| s.id())
                    .collect();
                let shared = held.iter().copied().find(|&s| skill_parents(ws, s) > 1);
                match (rng.gen_bool(0.5), shared) {
                    (true, Some(s)) => co.disconnect("empproperty", &[e, s]).unwrap(),
                    _ => {
                        if let Some(&s) = skills.iter().find(|s| !held.contains(s)) {
                            co.connect("empproperty", &[e, s]).unwrap();
                        }
                    }
                }
            }
            // Move an employee to another department.
            5 => {
                if emps.is_empty() || depts.len() < 2 {
                    continue;
                }
                let e = pick_emp(&mut rng);
                let from = ws.parents("employment", e).unwrap().next().unwrap().id();
                let to = pick(&mut rng, &depts);
                if to != from {
                    co.disconnect("employment", &[from, e]).unwrap();
                    co.connect("employment", &[to, e]).unwrap();
                    edited.push(e);
                }
            }
            // Re-key a department (its employees' and projects' foreign
            // keys follow) or an employee (its skill mapping rows follow).
            _ => {
                fresh += 1;
                if emps.is_empty() || rng.gen_bool(0.5) {
                    let d = pick(&mut rng, &depts);
                    rekey(co, "xdept", d, "dno", &["employment", "ownership"], fresh);
                } else {
                    let e = pick_emp(&mut rng);
                    rekey(co, "xemp", e, "eno", &["empproperty"], fresh);
                    edited.push(e);
                }
            }
        }
    }
}

fn get_put(db: &Database) {
    let session = db.session();
    let before = base_state(db);
    let mut co = session.fetch_co(DEPS_ARC).unwrap();
    assert_eq!(session.write_back(&mut co).unwrap(), 0);
    assert_eq!(base_state(db), before);

    let emps = ids(&co.workspace, "xemp");
    for &e in &emps {
        let sal = co.workspace.component("xemp").unwrap().row(e)[3].clone();
        co.update_value("xemp", e, "sal", sal).unwrap();
    }
    assert_eq!(session.write_back(&mut co).unwrap(), emps.len());
    assert_eq!(base_state(db), before);
}

fn put_get(build: fn() -> Database, seeds: std::ops::Range<u64>, edits: usize) {
    let mut kinds = HashSet::new();
    for seed in seeds {
        let db = build();
        let session = db.session();
        let mut co = session.fetch_co(DEPS_ARC).unwrap();
        edit(&mut co, seed, edits);
        let changes = co.workspace.pending_changes();
        kinds.extend(changes.iter().map(|c| match c {
            Change::Update { .. } => "update",
            Change::Insert { .. } => "insert",
            Change::Delete { .. } => "delete",
            Change::Connect { .. } => "connect",
            Change::Disconnect { .. } => "disconnect",
        }));
        let n = changes.len();
        assert_eq!(session.write_back(&mut co).unwrap(), n, "seed {seed}");
        let refetched = session.fetch_co(DEPS_ARC).unwrap();
        assert_eq!(canon(&refetched), canon(&co), "seed {seed}");
    }
    assert_eq!(kinds.len(), 5, "the seeds exercise every kind of edit");
}

#[test]
fn get_put_on_keyless_fig1() {
    get_put(&fig1_db());
}

#[test]
fn get_put_on_keyed_uniform_db() {
    get_put(&uniform_db());
}

#[test]
fn put_get_on_keyless_fig1() {
    put_get(fig1_db, 0..8, 12);
}

#[test]
fn put_get_on_keyed_uniform_db() {
    put_get(uniform_db, 0..3, 40);
}
