//! An interactive XNF shell: type SQL or `OUT OF … TAKE …` statements
//! terminated by `;` (including `VACUUM`). Dot-commands: `.help`, `.tables`, `.views`,
//! `.schema TABLE`, `.explain QUERY;`, `.co QUERY;` (fetch into a cache and
//! print the instance graphs), `.begin` / `.commit` / `.rollback` (one
//! transaction around the statements between them), `.wal`, `.checkpoint`,
//! `.quit`.
//!
//! Run with: `cargo run --bin xnf_shell` for an in-memory database, or
//! `cargo run --bin xnf_shell -- DIR` to open (or create) a durable,
//! write-ahead-logged database in `DIR` — work committed there survives
//! restarts, including crashed ones.

use std::io::{BufRead, Write};

use composite_views::{Database, ExecOutcome, QueryResult, Session};

fn main() {
    let db = match std::env::args().nth(1) {
        Some(dir) => match Database::open(&dir) {
            Ok(db) => {
                if let Some(r) = db.recovery_report() {
                    println!(
                        "opened '{dir}': {} log records replayed, {} winner txn(s), \
                         {} loser txn(s) rolled back",
                        r.records_scanned, r.winners, r.losers
                    );
                }
                db
            }
            Err(e) => {
                eprintln!("cannot open '{dir}': {e}");
                std::process::exit(1);
            }
        },
        None => Database::new(),
    };
    let session = db.session();
    println!("xnf shell — composite-object views over relational data");
    println!("type .help for commands; statements end with ';'\n");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print_prompt(buffer.is_empty());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !dot_command(&session, trimmed) {
                break;
            }
            print_prompt(true);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let stmt = buffer.trim().trim_end_matches(';').to_string();
            buffer.clear();
            run_statement(&session, &stmt);
        }
        print_prompt(buffer.is_empty());
    }
}

/// Print `ok`, or the error.
fn ok_or_error(done: composite_views::Result<()>) {
    match done {
        Ok(()) => println!("ok"),
        Err(e) => println!("error: {e}"),
    }
}

fn print_prompt(fresh: bool) {
    print!("{}", if fresh { "xnf> " } else { "  -> " });
    let _ = std::io::stdout().flush();
}

/// Returns false when the shell should exit.
fn dot_command(session: &Session<'_>, cmd: &str) -> bool {
    let db = session.database();
    let mut parts = cmd.splitn(2, ' ');
    match parts.next().unwrap_or("") {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(
                ".tables            list tables\n\
                 .views             list views\n\
                 .schema TABLE      show a table's columns\n\
                 .explain QUERY;    show the physical plan\n\
                 .co QUERY;         fetch a CO and print its instance graphs\n\
                 .begin             open a transaction (autocommit until then)\n\
                 .commit            commit it\n\
                 .rollback          roll it back\n\
                 .cache             show plan-cache statistics\n\
                 .gc                show garbage-collection statistics\n\
                 .wal               show write-ahead-log statistics\n\
                 .checkpoint        force a fuzzy checkpoint\n\
                 .quit              leave"
            );
        }
        ".begin" => ok_or_error(session.begin()),
        ".commit" => ok_or_error(session.commit()),
        ".rollback" => ok_or_error(session.rollback()),
        ".tables" => {
            for t in db.catalog().table_names() {
                println!("{t}");
            }
        }
        ".views" => {
            for v in db.catalog().view_names() {
                println!("{v}");
            }
        }
        ".schema" => match parts.next() {
            Some(name) => match db.catalog().table(name.trim()) {
                Ok(t) => {
                    for c in t.schema.columns() {
                        println!(
                            "{} {}{}",
                            c.name,
                            c.ty,
                            if c.nullable { "" } else { " NOT NULL" }
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .schema TABLE"),
        },
        ".explain" => match parts.next() {
            Some(q) => match db.explain(q.trim().trim_end_matches(';')) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .explain QUERY;"),
        },
        ".cache" => {
            let s = db.plan_cache_stats();
            println!(
                "plan cache: {} cached, {} hits, {} misses, {} compiles, \
                 {} invalidations, {} evictions",
                db.plan_cache_len(),
                s.hits,
                s.misses,
                s.compiles,
                s.invalidations,
                s.evictions
            );
        }
        ".gc" => {
            let g = db.gc_stats();
            println!(
                "gc: {} runs, {} versions reclaimed, {} frozen, \
                 {} stamps pruned, {} pages compacted; stamp table now {}, \
                 live snapshots {}",
                g.vacuum_runs,
                g.versions_reclaimed,
                g.versions_frozen,
                g.stamps_pruned,
                g.pages_compacted,
                db.catalog().txns().stamp_count(),
                db.catalog().txns().live_snapshot_count()
            );
        }
        ".wal" => match db.wal_stats() {
            Some(w) => {
                println!(
                    "wal: {} records, {} bytes logged, {} flushes, {} fsyncs, \
                     {} checkpoints",
                    w.records, w.bytes_logged, w.flushes, w.fsyncs, w.checkpoints
                );
                println!(
                    "     group commit: {} commits in {} batches (mean batch {:.2})",
                    w.group_commit_commits,
                    w.group_commit_batches,
                    w.group_commit_commits as f64 / w.group_commit_batches.max(1) as f64
                );
                println!(
                    "     last_lsn {} durable_lsn {} (lag {} bytes)",
                    w.last_lsn,
                    w.durable_lsn,
                    w.last_lsn - w.durable_lsn
                );
            }
            None => println!("in-memory database: no write-ahead log"),
        },
        ".checkpoint" => match db.checkpoint() {
            Ok(()) if db.wal_stats().is_some() => println!("checkpoint written"),
            Ok(()) => println!("in-memory database: nothing to checkpoint"),
            Err(e) => println!("error: {e}"),
        },
        ".co" => match parts.next() {
            Some(q) => match session.fetch_co(q.trim().trim_end_matches(';')) {
                Ok(co) => print!("{}", co.workspace.to_text()),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .co QUERY;"),
        },
        other => println!("unknown command '{other}' (try .help)"),
    }
    true
}

fn run_statement(session: &Session<'_>, stmt: &str) {
    if stmt.is_empty() {
        return;
    }
    match session.execute(stmt, &[]) {
        Ok(ExecOutcome::Done) => println!("ok"),
        Ok(ExecOutcome::Affected(n)) => println!("{n} row(s) affected"),
        Ok(ExecOutcome::Rows(result)) => print_result(&result),
        Err(e) => println!("error: {e}"),
    }
}

fn print_result(result: &QueryResult) {
    for stream in &result.streams {
        if result.streams.len() > 1 {
            println!("-- {} ({:?}) --", stream.name, stream.kind);
        }
        // Column widths.
        let mut widths: Vec<usize> = stream.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = stream
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let header: Vec<String> = stream
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", header.join(" | "));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-")
        );
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("{}", cells.join(" | "));
        }
        println!("({} row(s))", stream.rows.len());
    }
}
