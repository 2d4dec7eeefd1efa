//! `compare <setA> <setB>`: two sets of result files side by side.
//!
//! A set is a directory of `<workload>-seed<N>.json` files as `run` writes
//! them — one or more seeds per workload. Per workload and end-to-end
//! metric the medians of the two sets are compared against the bound
//! `BENCHMARK.json` fixes; the ratio's base is set A. Only the workloads
//! `BENCHMARK.json` lists can fail the comparison on a metric; wrong
//! outputs fail it on any workload. A listed workload or one of its metrics
//! that a set lacks fails it too: a run that crashed is not a run that held
//! its bounds.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::report::{Better, Metric, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::{GATED, NAMES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set's own run-to-run spread is wider than the bound, so the
    /// medians cannot show a change that small either way.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let widest = [spread(a), spread(b)]
        .into_iter()
        .flatten()
        .fold(0.0, f64::max);
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    if widest > bound {
        Verdict::Unresolved
    } else if worse_by(better, ma, mb) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One workload's runs in one set.
#[derive(Default)]
struct Runs {
    /// metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    files: usize,
    /// `--seconds` of the runs: it fixes the operation count, so runs of
    /// different lengths did different work.
    seconds: Vec<f64>,
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json")
            || name.ends_with(".layers.json")
            || name.ends_with(".trace.json")
        {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(metrics)) = (
            j.get("workload").and_then(Json::as_str),
            j.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        if j.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let runs = set.entry(workload.to_string()).or_default();
        for (k, v) in metrics {
            runs.values.entry(k.clone()).or_default().extend(v.as_f64());
        }
        runs.attempted += j.get("ops_attempted").and_then(Json::as_f64).unwrap_or(0.0);
        runs.failed += j.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        runs.seconds.extend(j.get("seconds").and_then(Json::as_f64));
        runs.files += 1;
    }
    if set.is_empty() {
        return Err(format!("{} holds no result files", dir.display()));
    }
    Ok(set)
}

fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

fn pct(x: Option<f64>) -> String {
    x.map_or("n/a".to_string(), |v| format!("{:.1}%", v * 100.0))
}

/// Print the comparison; `Ok(false)` when B is worse than A anywhere,
/// fails a larger share of its operations, or a set lacks a workload or a
/// metric.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let bounds = bounds()?;
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    println!(
        "A = {}   B = {}   (ratio = B / A)",
        a_dir.display(),
        b_dir.display()
    );
    let pass = compare_sets(&bounds, &a, &b);
    println!("\n{}", if pass { "no regression" } else { "REGRESSION" });
    Ok(pass)
}

type Set = BTreeMap<String, Runs>;

fn compare_sets(bounds: &BTreeMap<String, f64>, a: &Set, b: &Set) -> bool {
    let mut pass = true;
    for workload in NAMES {
        let gated = GATED.contains(&workload);
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            println!("\n{workload}: no result file in one of the sets: cannot compare");
            pass &= !gated;
            continue;
        };
        println!(
            "\n{workload}: {} run(s) in A, {} in B{}",
            ra.files,
            rb.files,
            if gated {
                ""
            } else {
                " — not gated: verdicts are for information"
            }
        );
        let lengths: Vec<f64> = ra.seconds.iter().chain(&rb.seconds).copied().collect();
        if lengths.len() != ra.files + rb.files || lengths.iter().any(|s| *s != lengths[0]) {
            println!("  the runs differ in --seconds, so in the work they did: cannot compare");
            pass &= !gated;
            continue;
        }
        println!(
            "  {:<20} {:>14} {:>14} {:>7} {:>6} {:>9} {:>9}  verdict",
            "metric", "A median", "B median", "ratio", "bound", "A spread", "B spread"
        );
        for m in &END_TO_END {
            let Metric { name, unit, better } = *m;
            let (Some(va), Some(vb), Some(&bound)) =
                (ra.values.get(name), rb.values.get(name), bounds.get(name))
            else {
                println!("  {name:<20} missing from a set or from BENCHMARK.json");
                pass &= !gated;
                continue;
            };
            if va.len() != ra.files || vb.len() != rb.files {
                println!("  {name:<20} missing from some runs");
                pass &= !gated;
                continue;
            }
            let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
            let v = verdict(better, bound, va, vb);
            pass &= !gated || v != Verdict::Worse;
            println!(
                "  {:<20} {:>14.3} {:>14.3} {:>7.3} {:>6} {:>9} {:>9}  {} ({unit}, {} is better)",
                name,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { mb / ma },
                pct(Some(bound)),
                pct(spread(va)),
                pct(spread(vb)),
                v.word(),
                better.word(),
            );
        }
        let rate = |r: &Runs| {
            if r.attempted == 0.0 {
                0.0
            } else {
                r.failed / r.attempted
            }
        };
        println!(
            "  ops failed / attempted: A {} / {}, B {} / {}",
            ra.failed, ra.attempted, rb.failed, rb.attempted
        );
        if rate(rb) > rate(ra) {
            println!("  B fails a larger share of its operations: worse");
            pass = false;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: 8% slower within a 10% bound is ok, 15% is worse.
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &[108.0, 108.5, 107.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &[115.0, 115.5, 114.5]),
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &[50.0, 50.5, 49.5]),
            Verdict::Ok
        );
        // Higher is better: a drop beyond the bound is worse.
        assert_eq!(
            verdict(Better::Higher, 0.10, &steady, &[85.0, 85.5, 84.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &steady, &[120.0, 121.0, 119.0]),
            Verdict::Ok
        );
        // A set that spreads wider than the bound resolves nothing.
        let noisy = [80.0, 100.0, 125.0, 90.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &noisy),
            Verdict::Unresolved
        );
        // A single run has no spread; the medians decide.
        assert_eq!(
            verdict(Better::Lower, 0.10, &[100.0], &[120.0]),
            Verdict::Worse
        );
    }

    /// Every workload, two runs each, every end-to-end metric at `value`.
    fn set_of(value: f64) -> Set {
        NAMES
            .iter()
            .map(|w| {
                let runs = Runs {
                    values: END_TO_END
                        .iter()
                        .map(|m| (m.name.to_string(), vec![value, value]))
                        .collect(),
                    attempted: 100.0,
                    failed: 0.0,
                    files: 2,
                    seconds: vec![15.0, 15.0],
                };
                (w.to_string(), runs)
            })
            .collect()
    }

    #[test]
    fn a_missing_workload_metric_or_run_length_fails_the_comparison() {
        let bounds: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.10))
            .collect();
        assert!(compare_sets(&bounds, &set_of(100.0), &set_of(100.0)));
        // A workload whose process crashed left no result file.
        let mut b = set_of(100.0);
        b.remove("analytic");
        assert!(!compare_sets(&bounds, &set_of(100.0), &b));
        // The workload that is not gated may be left out of a set.
        let mut b = set_of(100.0);
        b.remove("durable_kv");
        assert!(compare_sets(&bounds, &set_of(100.0), &b));
        // A metric absent from B is not a metric that held its bound.
        let mut b = set_of(100.0);
        b.get_mut("co_serve")
            .unwrap()
            .values
            .remove("primary_p50_us");
        assert!(!compare_sets(&bounds, &set_of(100.0), &b));
        // Runs of another length ran another number of operations.
        let mut b = set_of(100.0);
        b.get_mut("analytic").unwrap().seconds = vec![15.0, 5.0];
        assert!(!compare_sets(&bounds, &set_of(100.0), &b));
        // More failed operations in B is worse whatever the timings say.
        let mut b = set_of(100.0);
        b.get_mut("oltp_views").unwrap().failed = 1.0;
        assert!(!compare_sets(&bounds, &set_of(100.0), &b));
    }

    #[test]
    fn worse_by_has_its_base_in_a() {
        assert!((worse_by(Better::Lower, 200.0, 220.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 200.0, 180.0) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }
}
