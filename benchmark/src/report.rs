//! The metrics of record — names, units, directions — and the result
//! files and printed tables built from them. `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

use crate::json::Json;
use crate::workloads::{LaneStats, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the engine sees; every workload reports every one,
/// measured with tracing off. `primary` and `secondary` are the workload's
/// two headline operation classes (see [`lanes`]).
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    higher("throughput_ops_s", "1/s"),
    lower("primary_p50_us", "us"),
    lower("secondary_p50_us", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// The operation classes behind each workload's `primary_*` and
/// `secondary_*` metrics.
pub fn lanes(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "co_serve" => ("co_fetch", "adhoc"),
        "oltp_views" => (
            "write = raise_pair + hire + reassign",
            "co_fetch = co_point",
        ),
        "durable_kv" => ("write = update + insert", "read"),
        "analytic" => ("query = the five relational templates", "q_co_bulk"),
        _ => ("?", "?"),
    }
}

/// Single-layer metrics from the traced run. A workload reports 0 where a
/// metric does not apply to it.
pub const PER_LAYER: [Metric; 97] = [
    lower("sql.parse_us", "us"),
    lower("qgm.build_us", "us"),
    lower("rewrite.rewrite_us", "us"),
    lower("rewrite.rules_fired", "count"),
    lower("plan.plan_us", "us"),
    higher("core.session.plan_cache_hit_ratio", "ratio"),
    lower("core.session.prepare_cached_us", "us"),
    lower("core.session.begin_us", "us"),
    lower("core.session.stmt_us", "us"),
    lower("core.session.commit_us", "us"),
    lower("core.session.retries_per_commit", "ratio"),
    lower("core.session.co_fetch_p50_us", "us"),
    lower("core.session.co_fetch_p99_us", "us"),
    lower("core.session.adhoc_p50_us", "us"),
    lower("core.session.adhoc_p99_us", "us"),
    lower("core.session.navigate_p50_us", "us"),
    lower("core.session.navigate_p99_us", "us"),
    lower("core.session.raise_pair_p50_us", "us"),
    lower("core.session.raise_pair_p99_us", "us"),
    lower("core.session.hire_p50_us", "us"),
    lower("core.session.hire_p99_us", "us"),
    lower("core.session.reassign_p50_us", "us"),
    lower("core.session.reassign_p99_us", "us"),
    lower("core.session.emp_lookup_p50_us", "us"),
    lower("core.session.emp_lookup_p99_us", "us"),
    lower("core.session.dept_pay_p50_us", "us"),
    lower("core.session.dept_pay_p99_us", "us"),
    lower("core.session.co_point_p50_us", "us"),
    lower("core.session.co_point_p99_us", "us"),
    lower("core.session.update_p50_us", "us"),
    lower("core.session.update_p99_us", "us"),
    lower("core.session.insert_p50_us", "us"),
    lower("core.session.insert_p99_us", "us"),
    lower("core.session.read_p50_us", "us"),
    lower("core.session.read_p99_us", "us"),
    lower("exec.execute_us", "us"),
    lower("exec.rows_scanned_per_row_emitted", "ratio"),
    lower("exec.batches_emitted", "count"),
    lower("exec.rows_skipped_visibility", "count"),
    higher("exec.parallel_regions", "count"),
    lower("exec.morsels_dispatched", "count"),
    lower("exec.q_scan_agg_p50_us", "us"),
    lower("exec.q_scan_agg_p99_us", "us"),
    lower("exec.q_join_group_p50_us", "us"),
    lower("exec.q_join_group_p99_us", "us"),
    lower("exec.q_join3_group_p50_us", "us"),
    lower("exec.q_join3_group_p99_us", "us"),
    lower("exec.q_topn_p50_us", "us"),
    lower("exec.q_topn_p99_us", "us"),
    lower("exec.q_range_p50_us", "us"),
    lower("exec.q_range_p99_us", "us"),
    lower("exec.q_co_bulk_p50_us", "us"),
    lower("exec.q_co_bulk_p99_us", "us"),
    lower("core.cache.swizzle_us", "us"),
    higher("core.cache.navigate_tuples_per_s", "1/s"),
    lower("core.cache.tuples_per_co", "count"),
    lower("core.matview.maint_us_per_commit", "us"),
    lower("core.matview.roots_respliced_per_commit", "ratio"),
    higher("core.matview.nodes_reused_per_root", "ratio"),
    lower("core.matview.point_fetch_idle_us", "us"),
    lower("core.matview.refresh_us", "us"),
    lower("storage.vacuum.runs", "count"),
    lower("storage.vacuum.versions_reclaimed_per_commit", "ratio"),
    lower("storage.vacuum.vacuum_us", "us"),
    lower("storage.wal.bytes_per_commit", "B"),
    lower("storage.wal.records_per_commit", "ratio"),
    lower("storage.wal.fsyncs_per_commit", "ratio"),
    higher("storage.wal.group_commit_size", "ratio"),
    lower("storage.wal.checkpoints", "count"),
    lower("storage.wal.append_us", "us"),
    lower("storage.wal.flush_us", "us"),
    higher("storage.buffer.hit_ratio", "ratio"),
    lower("storage.buffer.evictions_per_op", "ratio"),
    lower("storage.buffer.dirty_writebacks_per_op", "ratio"),
    lower("storage.disk.page_reads_per_op", "ratio"),
    lower("storage.disk.page_writes_per_commit", "ratio"),
    lower("storage.disk.dw_batches", "count"),
    lower("storage.disk.pages_verified_per_op", "ratio"),
    lower("storage.disk.checkpoint_us", "us"),
    lower("storage.disk.space_amp", "ratio"),
    lower("storage.disk.write_amp", "ratio"),
    higher("storage.heap.scan_rows_per_s", "1/s"),
    lower("storage.recovery.records_scanned", "count"),
    lower("storage.recovery.redo_applied", "count"),
    lower("storage.recovery.open_us", "us"),
    lower("storage.recovery.restart_s", "s"),
    lower("bench.primary_p95_us", "us"),
    lower("bench.primary_p99_us", "us"),
    lower("bench.primary_p999_us", "us"),
    lower("bench.primary_max_us", "us"),
    lower("bench.secondary_p95_us", "us"),
    lower("bench.secondary_p99_us", "us"),
    lower("bench.secondary_p999_us", "us"),
    lower("bench.secondary_max_us", "us"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.traced_ops", "count"),
    lower("bench.reference_ops_s", "1/s"),
];

pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One run of one workload, as kept in `<out>/<workload>-seed<N>[.trace].json`.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub outcome: Outcome,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0
    }

    pub fn value(&self, m: &Metric) -> f64 {
        self.outcome.metrics.get(m.name).copied().unwrap_or(0.0)
    }

    /// The line the benchmark contract asks for: `correct`, `attempted`,
    /// `failed`, and every metric of this run's kind with its unit.
    pub fn contract_line(&self) -> String {
        let metrics = metrics_for(self.trace)
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(self.value(m))),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(self.outcome.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    pub fn to_json(&self) -> Json {
        let o = &self.outcome;
        let metrics = metrics_for(self.trace)
            .iter()
            .map(|m| (m.name.to_string(), Json::Num(self.value(m))))
            .collect();
        let classes = o
            .classes
            .iter()
            .map(|(name, l)| (name.clone(), lane_json(l)))
            .collect();
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("clients", Json::Num(o.clients as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(o.attempted as f64)),
            ("ops_failed", Json::Num(o.failed as f64)),
            (
                "failures",
                Json::Arr(o.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("classes", Json::Obj(classes)),
            ("info", Json::Obj(o.info.clone())),
        ])
    }

    /// Every metric by name with its unit, the per-class latency table, and
    /// any failed checks.
    pub fn print(&self) {
        let o = &self.outcome;
        let (primary, secondary) = lanes(&self.workload);
        println!(
            "== {} seed {} · {} client(s) · {:.1} s · tracing {}",
            self.workload,
            self.seed,
            o.clients,
            self.seconds,
            if self.trace { "on" } else { "off" }
        );
        println!("   primary = {primary}; secondary = {secondary}");
        println!(
            "   ops attempted {} · failed {} · {}",
            o.attempted,
            o.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUTS WRONG"
            }
        );
        for f in &o.failures {
            println!("   FAILED: {f}");
        }
        if !o.classes.is_empty() {
            println!(
                "   {:<14} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "class", "samples", "p50 us", "p95 us", "p99 us", "p99.9 us", "max us"
            );
            for (name, l) in &o.classes {
                println!(
                    "   {:<14} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                    name, l.count, l.p50_us, l.p95_us, l.p99_us, l.p999_us, l.max_us
                );
            }
        }
        for m in metrics_for(self.trace) {
            let v = self.value(m);
            if self.trace && v == 0.0 {
                continue;
            }
            println!("   {:<48} {:>16.4} {}", m.name, v, m.unit);
        }
        for (k, v) in &o.info {
            if k != "self_time_us" {
                println!("   {k}: {}", v.compact());
            }
        }
        if let Some(Json::Obj(layers)) = o
            .info
            .iter()
            .find(|(k, _)| k == "self_time_us")
            .map(|(_, v)| v)
        {
            println!(
                "   {:<24} {:>8} {:>14} {:>14}",
                "span", "count", "total us", "self us"
            );
            for (name, l) in layers {
                let f = |k: &str| l.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "   {:<24} {:>8} {:>14.1} {:>14.1}",
                    name,
                    f("spans"),
                    f("total_us"),
                    f("self_us")
                );
            }
        }
    }
}

pub fn lane_json(l: &LaneStats) -> Json {
    Json::obj(vec![
        ("samples", Json::Num(l.count as f64)),
        ("p50_us", Json::Num(l.p50_us)),
        ("p95_us", Json::Num(l.p95_us)),
        ("p99_us", Json::Num(l.p99_us)),
        ("p999_us", Json::Num(l.p999_us)),
        ("max_us", Json::Num(l.max_us)),
    ])
}

pub fn lane_from_json(j: &Json) -> LaneStats {
    let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    LaneStats {
        count: f("samples") as u64,
        p50_us: f("p50_us"),
        p95_us: f("p95_us"),
        p99_us: f("p99_us"),
        p999_us: f("p999_us"),
        max_us: f("max_us"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(j: &Json, key: &str) -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` (one directory up) names exactly the metrics and
    /// workloads this package reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let ours = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.word().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(names(&j, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names(&j, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::GATED);
        for m in j.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
