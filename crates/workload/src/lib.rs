//! Oracle-checked workload harness for the XNF engine.
//!
//! Two deterministic, seeded drivers exercise the public [`xnf_core`]
//! `Session` API end to end:
//!
//! * [`ycsb`] — a YCSB-style key/value mix (read / additive update /
//!   insert / scan / read-modify-write / composite-object fetch) over a
//!   `USERTABLE`, with Zipfian or uniform key choice and N closed-loop
//!   client threads.
//! * [`tpcc`] — a TPC-C-lite warehouse/district/customer/orders schema
//!   with multi-statement transfer and new-order transactions, hot
//!   district rows, matview-backed order summaries, a materialized CO
//!   view, and deliberate write-conflict pressure.
//!
//! Both drivers run in **oracle mode** by default: the same seeded op
//! stream that drives the engine replays against an in-memory model
//! ([`ycsb::YcsbModel`], [`tpcc::TpccModel`]) and the run continuously
//! asserts interleaving-independent invariants (conserved sums,
//! repeatable reads, read-your-writes, CO shape) plus an exact
//! table-by-table differential check at quiesce. See [`oracle`] for the
//! shared machinery and the determinism-under-concurrency contract.
//!
//! [`metrics`] + [`hist`] collect per-op-class latency histograms for the
//! CLI's latency table. Performance of record is measured by the
//! repository's `benchmark/` package, not here.

pub mod hist;
pub mod keys;
pub mod metrics;
pub mod oracle;
pub mod tpcc;
pub mod ycsb;

pub use hist::Histogram;
pub use keys::{KeyChooser, KeyDist};
pub use metrics::{ClassRecorder, DriverMetrics};
pub use oracle::Violations;
pub use tpcc::{run_tpcc, TpccConfig, TpccRun};
pub use ycsb::{run_ycsb, YcsbConfig, YcsbRun};
