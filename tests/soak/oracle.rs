//! Shared oracle plumbing: the violation recorder, the write-conflict
//! retry loop, and canonical forms for comparing engine state against the
//! in-memory model.
//!
//! The drivers are **model-based differential testers**: the same seeded
//! op stream that drives the engine also replays against a plain in-memory
//! model, and every divergence is recorded as an invariant violation
//! instead of panicking mid-storm — a run reports *all* of what broke, and
//! the test fails if the count is non-zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xnf_core::{CoCache, Database, Session, XnfError};

/// How many violation messages to keep verbatim (the count is unbounded).
const SAMPLE_CAP: usize = 32;

/// Thread-safe invariant check recorder shared by every client thread.
#[derive(Default)]
pub struct Violations {
    checks: AtomicU64,
    violations: AtomicU64,
    samples: Mutex<Vec<String>>,
}

impl Violations {
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert `cond`; on failure record (don't panic) so one violation
    /// doesn't hide the rest of the run's evidence.
    pub fn check(&self, cond: bool, msg: impl FnOnce() -> String) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if !cond {
            self.violations.fetch_add(1, Ordering::Relaxed);
            let mut samples = self.samples.lock().expect("a client thread panicked");
            if samples.len() < SAMPLE_CAP {
                samples.push(msg());
            }
        }
    }

    /// Record an equality check with a formatted diff on mismatch.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(
        &self,
        actual: T,
        expected: T,
        what: impl FnOnce() -> String,
    ) {
        let ok = actual == expected;
        self.check(ok, || {
            format!("{}: got {actual:?}, expected {expected:?}", what())
        });
    }

    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    pub fn count(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    pub fn samples(&self) -> Vec<String> {
        self.samples
            .lock()
            .expect("a client thread panicked")
            .clone()
    }

    /// Panic with every recorded sample if any check failed (the tests'
    /// quiesce entry point).
    pub fn assert_clean(&self, context: &str) {
        if self.count() > 0 {
            panic!(
                "{context}: {} invariant violation(s) over {} checks:\n  {}",
                self.count(),
                self.checks(),
                self.samples().join("\n  ")
            );
        }
    }
}

/// Run `body` until it commits, treating first-writer-wins write conflicts
/// as retryable (the transaction was rolled back by the body). Any other
/// error is a harness bug and propagates as a panic. Returns the number of
/// conflict retries spent.
///
/// Retries back off exponentially (bounded at 2 ms): under Zipfian-hot
/// contention the conflicting row is often locked by a transaction whose
/// commit is queued behind serialized matview maintenance, and spinning at
/// full speed against it is a livelock. The bound on futility is wall
/// clock, not a retry count — counts mean nothing across debug/release.
pub fn retry_conflicts<T>(mut body: impl FnMut() -> Result<T, XnfError>) -> (T, u64) {
    let mut retries = 0u64;
    let start = std::time::Instant::now();
    loop {
        match body() {
            Ok(v) => return (v, retries),
            Err(e) if e.is_write_conflict() => {
                retries += 1;
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(60),
                    "live-locked: {retries} write-conflict retries over 60s ({e})"
                );
                if retries < 4 {
                    std::thread::yield_now();
                } else {
                    let us = (20u64 << retries.min(10)).min(2_000);
                    std::thread::sleep(std::time::Duration::from_micros(us));
                }
            }
            Err(e) => panic!("driver statement failed with a non-conflict error: {e}"),
        }
    }
}

/// Roll back the session's open transaction if one survived an error.
pub fn abort_quietly(session: &Session<'_>) {
    if session.in_transaction() {
        let _ = session.rollback();
    }
}

// ---------------------------------------------------------------------------
// canonical forms
// ---------------------------------------------------------------------------

/// Sorted bag of a query's rows, `Debug`-rendered (engine-side canonical
/// relation state).
pub fn rows_of(db: &Database, sql: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = db
        .session()
        .query(sql, &[])
        .expect("oracle read failed")
        .try_table()
        .expect("oracle read expects one stream")
        .rows
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

/// Named, sorted row sets (per component or per relationship).
pub type NamedSets = Vec<(String, Vec<String>)>;

/// Canonical value-identity form of a CO: per-component row sets and
/// per-relationship (parent row → child row) pair sets — XNF's
/// union-distinct object-sharing semantics, with surrogate/positional ids
/// cancelled out (same construction as tests/matview_equivalence.rs).
pub fn canon_co(co: &CoCache) -> (NamedSets, NamedSets) {
    let ws = &co.workspace;
    let mut comps: NamedSets = ws
        .components
        .iter()
        .map(|c| {
            let mut rows: Vec<String> = ws
                .independent(&c.name)
                .unwrap()
                .map(|t| format!("{:?}", t.values()))
                .collect();
            rows.sort();
            rows.dedup();
            (c.name.to_ascii_lowercase(), rows)
        })
        .collect();
    comps.sort();
    let mut rels: NamedSets = ws
        .relationships
        .iter()
        .map(|r| {
            let mut pairs: Vec<String> = r
                .connections()
                .iter()
                .map(|conn| {
                    format!(
                        "{:?}->{:?}",
                        ws.components[r.parent].row(conn[0]),
                        ws.components[r.children[0]].row(conn[1])
                    )
                })
                .collect();
            pairs.sort();
            pairs.dedup();
            (r.name.to_ascii_lowercase(), pairs)
        })
        .collect();
    rels.sort();
    (comps, rels)
}
