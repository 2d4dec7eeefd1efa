//! Crash-recovery soak: a child process runs a concurrent transfer storm
//! against a durable database and is SIGKILLed mid-flight; the parent then
//! reopens the data directory and asserts the invariants `tests/
//! concurrency.rs` checks in-process — the conserved account sum and
//! materialized-view == full-REFRESH equivalence — now across a real
//! process death and ARIES restart.
//!
//! The child is this same test binary re-executed with `--exact
//! storm_child --ignored` and the data directory passed through the
//! `RECOVERY_SOAK_DIR` environment variable (without it, `storm_child`
//! no-ops, so plain `cargo test -- --ignored` never hangs). Rounds reuse
//! one directory: every round recovers the wreckage of the previous kill.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::{rngs::StdRng, Rng, SeedableRng};
use xnf_core::run_sessions;
use xnf_core::{Database, DbConfig, TempDir, Value, XnfError};

const ACCOUNTS: i64 = 16;
const INITIAL_BALANCE: i64 = 100;
const ENV_DIR: &str = "RECOVERY_SOAK_DIR";

/// Soak config: fsync off (kill -9 leaves OS-buffered writes intact; the
/// machine survives) and a deliberately *small* automatic checkpoint
/// interval, so the storm takes fuzzy checkpoints — and flushes dirty
/// pages — while being killed. A SIGKILL landing inside an 8 KiB page
/// write is exactly the torn-page shape the checksummed trailer +
/// double-write buffer (docs/DURABILITY.md) exist to survive, so the soak
/// keeps that surface live instead of avoiding it.
fn soak_config(dir: &Path) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.to_path_buf()),
        wal_fsync: false,
        checkpoint_interval: 256 * 1024,
        ..DbConfig::default()
    }
}

/// The child body: set up (first round only), signal readiness, then
/// transfer money between accounts from several sessions until killed.
#[test]
#[ignore = "child half of the crash soak; driven by kill_recover tests"]
fn storm_child() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let db = std::sync::Arc::new(Database::open_with_config(soak_config(&dir)).unwrap());
    let s = db.session();

    // First round creates the schema; later rounds inherit it (recovered).
    if s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .is_ok()
    {
        s.execute("CREATE INDEX acct_id ON ACCT (id)", &[]).unwrap();
        for i in 0..ACCOUNTS {
            s.execute(
                &format!("INSERT INTO ACCT VALUES ({i}, {INITIAL_BALANCE})"),
                &[],
            )
            .unwrap();
        }
        s.execute(
            "CREATE MATERIALIZED VIEW rich AS SELECT id, bal FROM ACCT WHERE bal > 50",
            &[],
        )
        .unwrap();
    }
    // Parent kills us any time after this marker appears.
    std::fs::write(dir.join("READY"), b"ready").unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    run_sessions(&db, 4, |i, session| {
        let mut rng = StdRng::seed_from_u64(0x50A4 ^ (i as u64));
        while Instant::now() < deadline {
            let from = rng.gen_range(0..ACCOUNTS);
            let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
            let amt = rng.gen_range(1..10i64);
            session.begin().unwrap();
            let moved: Result<(), XnfError> = (|| {
                session.execute(
                    "UPDATE ACCT SET bal = bal - ? WHERE id = ?",
                    &[Value::Int(amt), Value::Int(from)],
                )?;
                session.execute(
                    "UPDATE ACCT SET bal = bal + ? WHERE id = ?",
                    &[Value::Int(amt), Value::Int(to)],
                )?;
                Ok(())
            })();
            match moved {
                Ok(()) => session.commit().unwrap(),
                Err(e) => {
                    assert!(e.is_write_conflict(), "unexpected writer error: {e}");
                    session.rollback().unwrap();
                }
            }
        }
    });
}

/// Spawn the storm child on `dir`, let it run for `run_ms` past readiness,
/// SIGKILL it, then recover and assert every invariant.
fn kill_and_recover(dir: &Path, run_ms: u64) {
    let _ = std::fs::remove_file(dir.join("READY"));
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["storm_child", "--exact", "--ignored", "--nocapture"])
        .env(ENV_DIR, dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the child to finish setup (bounded; a wedged child fails).
    let ready_by = Instant::now() + Duration::from_secs(60);
    while !dir.join("READY").exists() {
        assert!(Instant::now() < ready_by, "storm child never became ready");
        if let Some(status) = child.try_wait().unwrap() {
            panic!("storm child exited before being killed: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(run_ms));
    child.kill().unwrap(); // SIGKILL: no destructors, no flush, no goodbye
    child.wait().unwrap();

    // Restart. Committed transfers conserve the total; the loser caught
    // mid-transfer is rolled back rather than leaking half a transfer.
    let db = Database::open_with_config(soak_config(dir)).unwrap();
    let s = db.session();
    let report = db.recovery_report().expect("soak db recovers");
    assert!(report.records_scanned > 0, "kill landed on an empty log");

    let r = s
        .query("SELECT COUNT(*), SUM(bal) FROM ACCT", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(
        r[0][0].as_int().unwrap(),
        ACCOUNTS,
        "accounts appeared/vanished"
    );
    assert_eq!(
        r[0][1].as_int().unwrap(),
        ACCOUNTS * INITIAL_BALANCE,
        "conserved sum broken across crash recovery"
    );

    // Materialized view contents equal a full recompute.
    let sorted = |db: &Database| {
        let mut rows = db
            .session()
            .query("SELECT * FROM rich", &[])
            .unwrap()
            .try_table()
            .unwrap()
            .rows
            .clone();
        rows.sort();
        rows
    };
    let recovered = sorted(&db);
    s.execute("REFRESH MATERIALIZED VIEW rich", &[]).unwrap();
    assert_eq!(
        recovered,
        sorted(&db),
        "matview diverged from REFRESH after crash"
    );

    // The survivor keeps working: one more conserving transfer round-trips.
    s.execute_batch(
        "UPDATE ACCT SET bal = bal - 5 WHERE id = 0; UPDATE ACCT SET bal = bal + 5 WHERE id = 1",
    )
    .unwrap();
    let r = s.query("SELECT SUM(bal) FROM ACCT", &[]).unwrap();
    assert_eq!(
        r.try_table().unwrap().rows[0][0].as_int().unwrap(),
        ACCOUNTS * INITIAL_BALANCE
    );
    // Put the money back so later rounds assert against the same total.
    s.execute_batch(
        "UPDATE ACCT SET bal = bal + 5 WHERE id = 0; UPDATE ACCT SET bal = bal - 5 WHERE id = 1",
    )
    .unwrap();
}

/// Seed kill delays from the clock: every CI run probes different crash
/// points, and any failure prints the delays needed to replay it.
fn kill_delays(rounds: usize, max_ms: u64) -> Vec<u64> {
    let seed = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let delays: Vec<u64> = (0..rounds).map(|_| rng.gen_range(10..max_ms)).collect();
    eprintln!("recovery_soak: kill delays {delays:?} (seed {seed})");
    delays
}

#[test]
fn kill_recover_smoke() {
    let dir = TempDir::new("recovery-soak-smoke");
    for delay in kill_delays(2, 150) {
        kill_and_recover(dir.path(), delay);
    }
}

/// The heavyweight soak: more rounds, longer storms, release-only (run by
/// the CI crash-recovery lane via `cargo test --release -- --ignored`).
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy crash soak: run in release CI")]
fn kill_recover_release_soak() {
    let dir = TempDir::new("recovery-soak-heavy");
    for delay in kill_delays(6, 700) {
        kill_and_recover(dir.path(), delay);
    }
}
