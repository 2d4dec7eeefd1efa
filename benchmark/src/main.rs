//! `xnf-benchmark`: the benchmark of record for the XNF engine.
//!
//! ```text
//! xnf-benchmark run [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! xnf-benchmark check
//! xnf-benchmark compare <setA> <setB>
//! ```
//!
//! `run` measures each workload in a fresh child process, prints every
//! metric by name with its unit, verifies the outputs against the
//! in-benchmark model, keeps a result file per run under `--out`, and ends
//! with one JSON line per workload (`correct`, `attempted`, `failed`,
//! `metrics`). See `README.md` beside this package.

mod compare;
mod engine;
mod gen;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::RunResult;
use workloads::{ChildArgs, Outcome};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => Flags::parse(&argv[1..], false).and_then(|f| run(&f)),
        Some("check") => check(),
        Some("compare") if argv.len() == 3 => {
            compare::compare(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("child") => Flags::parse(&argv[1..], true).map(|f| child(&f)),
        _ => Err(
            "usage: xnf-benchmark run [--workload <name>|all] [--seed N] [--seconds S] \
             [--trace 0|1] [--out DIR] | check | compare <setA> <setB>"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("xnf-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    shrink: u64,
}

impl Flags {
    /// `child` is true for a workload process, the only one that takes the
    /// `--shrink` that `check` passes: a `run` is always full size.
    fn parse(args: &[String], child: bool) -> Result<Flags, String> {
        let mut f = Flags {
            workload: "all".to_string(),
            seed: 1,
            seconds: workloads::RUN_SECONDS,
            trace: false,
            out: PathBuf::from(".bench_out"),
            shrink: 1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &String| format!("bad value '{v}' for {flag}");
            match flag.as_str() {
                "--workload" => f.workload = value()?.clone(),
                "--seed" => f.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    f.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if !(f.seconds > 0.0 && f.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".to_string());
                    }
                }
                "--trace" => {
                    f.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                    }
                }
                "--out" => f.out = PathBuf::from(value()?),
                "--shrink" if child => {
                    f.shrink = value().and_then(|v| v.parse().map_err(|_| bad(v)))?
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if f.workload != "all" && !workloads::NAMES.contains(&f.workload.as_str()) {
            return Err(format!(
                "unknown workload '{}' (one of {} or all)",
                f.workload,
                workloads::NAMES.join(", ")
            ));
        }
        Ok(f)
    }
}

/// A workload process: run the workload and print the outcome as one JSON
/// line.
fn child(f: &Flags) -> bool {
    let args = ChildArgs {
        workload: f.workload.clone(),
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        out: f.out.clone(),
        shrink: f.shrink,
    };
    let outcome = workloads::run(&args);
    println!("{}", outcome_to_json(&outcome).compact());
    outcome.failed == 0
}

fn outcome_to_json(o: &Outcome) -> Json {
    Json::obj(vec![
        ("clients", Json::Num(o.clients as f64)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "failures",
            Json::Arr(o.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "classes",
            Json::Obj(
                o.classes
                    .iter()
                    .map(|(k, l)| (k.clone(), report::lane_json(l)))
                    .collect(),
            ),
        ),
        ("info", Json::Obj(o.info.clone())),
    ])
}

fn outcome_from_json(j: &Json) -> Option<Outcome> {
    let num = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Outcome {
        clients: num("clients")? as usize,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        failures: j
            .get("failures")?
            .as_arr()?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
        metrics: j
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        classes: j
            .get("classes")?
            .as_obj()?
            .iter()
            .map(|(k, v)| (k.clone(), report::lane_from_json(v)))
            .collect(),
        info: j.get("info")?.as_obj()?.to_vec(),
    })
}

/// Start one workload process and collect its outcome. The process is
/// waited for before this returns, whatever it did.
fn spawn_child(f: &Flags, workload: &str) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &f.seed.to_string()])
        .args(["--seconds", &f.seconds.to_string()])
        .args(["--trace", if f.trace { "1" } else { "0" }])
        .args(["--shrink", &f.shrink.to_string()])
        .arg("--out")
        .arg(&f.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("cannot run the {workload} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| outcome_from_json(&j))
        .ok_or_else(|| {
            format!(
                "the {workload} process ended ({}) without a result",
                output.status
            )
        })
}

fn run(f: &Flags) -> Result<bool, String> {
    std::fs::create_dir_all(&f.out)
        .map_err(|e| format!("cannot create {}: {e}", f.out.display()))?;
    let names: Vec<&str> = match f.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in names {
        let result = RunResult {
            workload: name.to_string(),
            seed: f.seed,
            seconds: f.seconds,
            trace: f.trace,
            outcome: spawn_child(f, name)?,
        };
        result.print();
        let file = f.out.join(format!(
            "{name}-seed{}{}.json",
            f.seed,
            if f.trace { ".layers" } else { "" }
        ));
        std::fs::write(&file, result.to_json().pretty())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        println!("   result file: {}", file.display());
        all_correct &= result.correct();
        lines.push(result.contract_line());
    }
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// Every workload at a hundredth of its size, traced and untraced: a quick
/// proof that the harness and the oracles work.
fn check() -> Result<bool, String> {
    let out = PathBuf::from(".bench_out").join("check");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut ok = true;
    for trace in [false, true] {
        for name in workloads::NAMES {
            let f = Flags {
                workload: name.to_string(),
                seed: 7,
                seconds: 0.5,
                trace,
                out: out.clone(),
                shrink: 100,
            };
            let o = spawn_child(&f, name)?;
            println!(
                "check {name:<11} tracing {}: {} ops, {} failed",
                if trace { "on " } else { "off" },
                o.attempted,
                o.failed
            );
            for msg in &o.failures {
                println!("   FAILED: {msg}");
            }
            ok &= o.failed == 0 && o.attempted > 0;
        }
    }
    Ok(ok)
}
