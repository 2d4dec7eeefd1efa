//! Per-op-class metrics collection and the driver's latency table.
//!
//! Each client thread records latencies into its own [`ClassRecorder`]
//! (no shared state on the op path); at quiesce the per-thread recorders
//! merge into one [`DriverMetrics`], which renders the human summary.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::hist::Histogram;

/// One thread's latency recorders, keyed by op class name.
#[derive(Default)]
pub struct ClassRecorder {
    classes: BTreeMap<&'static str, Histogram>,
}

impl ClassRecorder {
    pub fn record(&mut self, class: &'static str, elapsed: Duration) {
        self.classes
            .entry(class)
            .or_default()
            .record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// Aggregated metrics for one driver run.
pub struct DriverMetrics {
    pub driver: &'static str,
    pub elapsed: Duration,
    pub retries: u64,
    pub invariant_checks: u64,
    classes: BTreeMap<&'static str, Histogram>,
}

impl DriverMetrics {
    pub fn aggregate(
        driver: &'static str,
        recorders: Vec<ClassRecorder>,
        elapsed: Duration,
        retries: u64,
        invariant_checks: u64,
    ) -> DriverMetrics {
        let mut classes: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for rec in recorders {
            for (class, hist) in rec.classes {
                classes.entry(class).or_default().merge(&hist);
            }
        }
        DriverMetrics {
            driver,
            elapsed,
            retries,
            invariant_checks,
            classes,
        }
    }

    pub fn total_ops(&self) -> u64 {
        self.classes.values().map(|h| h.count()).sum()
    }

    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs
        }
    }

    pub fn class(&self, name: &str) -> Option<&Histogram> {
        self.classes.get(name)
    }

    /// Human-readable summary table (the CLI's per-run output).
    pub fn render(&self, violations: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} ops in {:.1} ms — {:.0} ops/s ({} conflict retries, {} invariant checks, {} violations)",
            self.driver,
            self.total_ops(),
            self.elapsed.as_secs_f64() * 1_000.0,
            self.ops_per_sec(),
            self.retries,
            self.invariant_checks,
            violations,
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9}",
            "class", "count", "ops/s", "p50 µs", "p95 µs", "p99 µs", "max µs"
        );
        let secs = self.elapsed.as_secs_f64();
        for (class, h) in &self.classes {
            let (p50, p95, p99) = h.percentiles_us();
            let _ = writeln!(
                out,
                "  {:<14} {:>9} {:>11.0} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                class,
                h.count(),
                if secs == 0.0 {
                    0.0
                } else {
                    h.count() as f64 / secs
                },
                p50,
                p95,
                p99,
                h.max_ns() as f64 / 1_000.0,
            );
        }
        out
    }
}
