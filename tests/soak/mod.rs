//! Oracle-checked load generators for the XNF engine, driven by the `soak`
//! test target.
//!
//! Two deterministic, seeded generators exercise the public [`xnf_core`]
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
//! The same seeded op stream that drives the engine replays against an
//! in-memory model ([`ycsb::YcsbModel`], [`tpcc::TpccModel`]), and every
//! run asserts interleaving-independent invariants (conserved sums,
//! repeatable reads, read-your-writes, CO shape) plus an exact
//! table-by-table differential check at quiesce. See [`oracle`] for the
//! shared machinery. They time nothing: performance of record is
//! measured by the repository's `benchmark/` package.

pub mod keys;
pub mod oracle;
pub mod tpcc;
pub mod ycsb;
