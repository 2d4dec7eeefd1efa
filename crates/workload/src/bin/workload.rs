//! Workload harness CLI.
//!
//! ```text
//! workload ycsb  [--ops N] [--records N] [--clients N] [--seed N]
//!                [--dist uniform|zipfian[:THETA]] [--no-oracle] [--durable]
//! workload tpcc  [--txns N] [--clients N] [--seed N] [--no-oracle]
//!                [--durable]
//! ```
//!
//! `ycsb` / `tpcc` run one driver and print the latency table; with the
//! oracle on (default) a non-zero violation count exits 1. `--dop` is
//! accepted as an alias of `--clients`. `--durable` runs against a
//! WAL-backed on-disk database (fsync off) and reports under the distinct
//! `ycsb_durable` / `tpcc_lite_durable` driver keys. Performance numbers
//! of record come from the repository's `benchmark/` package.

use std::process::ExitCode;

use xnf_workload::keys::KeyDist;
use xnf_workload::{run_tpcc, run_ycsb, TpccConfig, YcsbConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: workload <ycsb|tpcc> [flags]");
        return ExitCode::FAILURE;
    };
    let flags = Flags::parse(&args[1..]);
    match cmd.as_str() {
        "ycsb" => cmd_ycsb(&flags),
        "tpcc" => cmd_tpcc(&flags),
        other => {
            eprintln!("unknown subcommand '{other}'");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--key value` / `--flag` parser.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a.trim_start_matches("--").to_string();
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            pairs.push((key, value));
        }
        Flags { pairs }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    /// `--clients`, with `--dop` accepted as an alias.
    fn clients(&self, default: usize) -> usize {
        match self.get("clients").or_else(|| self.get("dop")) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --clients: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }
}

fn cmd_ycsb(flags: &Flags) -> ExitCode {
    let mut cfg = YcsbConfig::default();
    cfg.records = flags.num("records", cfg.records);
    cfg.ops = flags.num("ops", cfg.ops);
    cfg.clients = flags.clients(cfg.clients);
    cfg.seed = flags.num("seed", cfg.seed);
    cfg.oracle = !flags.has("no-oracle");
    cfg.durable = flags.has("durable");
    if let Some(d) = flags.get("dist") {
        cfg.dist = KeyDist::parse(d).unwrap_or_else(|| {
            eprintln!("invalid --dist '{d}' (want uniform | zipfian[:THETA])");
            std::process::exit(2);
        });
    }
    let run = run_ycsb(&cfg);
    print!("{}", run.metrics.render(run.violations.count()));
    report_violations(run.metrics.driver, &run.violations, cfg.oracle)
}

fn cmd_tpcc(flags: &Flags) -> ExitCode {
    let mut cfg = TpccConfig::default();
    cfg.txns = flags.num("txns", cfg.txns);
    cfg.clients = flags.clients(cfg.clients);
    cfg.seed = flags.num("seed", cfg.seed);
    cfg.oracle = !flags.has("no-oracle");
    cfg.durable = flags.has("durable");
    let run = run_tpcc(&cfg);
    print!("{}", run.metrics.render(run.violations.count()));
    println!(
        "  maintenance: mv_nodes_rewritten={} mv_links_edited={} mv_recomputes={}",
        run.maint.mv_nodes_rewritten, run.maint.mv_links_edited, run.maint.mv_recomputes
    );
    report_violations(run.metrics.driver, &run.violations, cfg.oracle)
}

fn report_violations(
    driver: &str,
    violations: &xnf_workload::Violations,
    oracle: bool,
) -> ExitCode {
    if !oracle {
        return ExitCode::SUCCESS;
    }
    if violations.count() > 0 {
        eprintln!(
            "{driver}: {} invariant violation(s):\n  {}",
            violations.count(),
            violations.samples().join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    println!("{driver}: oracle clean ({} checks)", violations.checks());
    ExitCode::SUCCESS
}
