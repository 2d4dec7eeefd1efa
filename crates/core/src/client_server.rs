//! Workstation/server shipping simulation (Sect. 3 processing model and the
//! Sect. 5.3 related-work comparison).
//!
//! The paper's performance arguments are about *crossings*: how many
//! messages flow between application and DBMS address spaces, how many
//! bytes, and what gets exposed. This module makes those quantities
//! measurable: a [`TransportCost`] counts messages and bytes and charges a
//! configurable latency per message plus a per-byte cost; fetch strategies
//! reproduce the design space:
//!
//! - [`FetchStrategy::TupleAtATime`] — classic SQL cursor: one crossing per
//!   tuple;
//! - [`FetchStrategy::Block`] — blocked cursor: `n` tuples per crossing;
//! - [`FetchStrategy::WholeCo`] — the XNF model: the server delivers the
//!   complete CO in one (or few, size-capped) crossings;
//!
//! and the shipping *policies* of Sect. 5.3 quantify what a page server, an
//! object server and a query (RDBMS) server move and expose for the same
//! request. The multi-client side of that model is
//! [`crate::session::run_sessions`].

use xnf_exec::QueryResult;
use xnf_storage::{Table, PAGE_SIZE};

use crate::db::Database;
use crate::error::Result;

/// Simulated network/IPC cost model.
#[derive(Debug, Clone, Copy)]
pub struct TransportCost {
    /// Fixed cost per message (process-boundary crossing), in microseconds.
    pub latency_us_per_message: f64,
    /// Per-byte transfer cost, in nanoseconds.
    pub ns_per_byte: f64,
}

impl Default for TransportCost {
    fn default() -> Self {
        // A 1993-vintage IPC/LAN: ~0.5 ms per crossing, ~10 MB/s transfer.
        TransportCost {
            latency_us_per_message: 500.0,
            ns_per_byte: 100.0,
        }
    }
}

/// Message/byte accounting for one simulated session.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TransportStats {
    pub messages: u64,
    pub bytes: u64,
}

impl TransportStats {
    pub fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Simulated wall-clock cost under a cost model.
    pub fn simulated_ms(&self, cost: TransportCost) -> f64 {
        (self.messages as f64 * cost.latency_us_per_message) / 1_000.0
            + (self.bytes as f64 * cost.ns_per_byte) / 1_000_000.0
    }
}

/// How query results cross from server to client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStrategy {
    /// One message per tuple (the traditional "one tuple at a time" API).
    TupleAtATime,
    /// One message per block of `n` tuples.
    Block(usize),
    /// Complete-CO delivery: one message per stream, split only when a
    /// message would exceed `max_bytes`.
    WholeCo { max_bytes: usize },
}

/// A simulated database server.
pub struct Server {
    db: Database,
}

impl Server {
    pub fn new(db: Database) -> Self {
        Server { db }
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Run a query on the server and ship its result under `strategy`,
    /// accounting crossings in `stats`. One request message is charged for
    /// the query text itself.
    pub fn fetch(
        &self,
        query: &str,
        strategy: FetchStrategy,
        stats: &mut TransportStats,
    ) -> Result<QueryResult> {
        stats.record(query.len());
        let result = self.db.session().query(query, &[])?;
        for stream in &result.streams {
            let tuple_sizes: Vec<usize> = stream
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.byte_size()).sum::<usize>() + 8)
                .collect();
            match strategy {
                FetchStrategy::TupleAtATime => {
                    for s in &tuple_sizes {
                        stats.record(*s);
                    }
                    // The final "no more rows" crossing.
                    stats.record(8);
                }
                FetchStrategy::Block(n) => {
                    let n = n.max(1);
                    for chunk in tuple_sizes.chunks(n) {
                        stats.record(chunk.iter().sum::<usize>());
                    }
                    if tuple_sizes.is_empty() {
                        stats.record(8);
                    }
                }
                FetchStrategy::WholeCo { max_bytes } => {
                    let cap = max_bytes.max(1);
                    let mut acc = 0usize;
                    let mut any = false;
                    for s in tuple_sizes {
                        if acc + s > cap && acc > 0 {
                            stats.record(acc);
                            acc = 0;
                        }
                        acc += s;
                        any = true;
                    }
                    if acc > 0 || !any {
                        stats.record(acc.max(8));
                    }
                }
            }
        }
        Ok(result)
    }
}

/// What a shipping policy moved and exposed for one request (Sect. 5.3).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ShippingReport {
    pub messages: u64,
    pub bytes: u64,
    /// Tuples the client received without having requested them
    /// (co-located tuples on shipped pages) — the security/integrity
    /// exposure the paper discusses.
    pub exposed_tuples: u64,
    /// Attribute values shipped beyond the requested projection.
    pub exposed_attributes: u64,
}

impl ShippingReport {
    pub fn simulated_ms(&self, cost: TransportCost) -> f64 {
        TransportStats {
            messages: self.messages,
            bytes: self.bytes,
        }
        .simulated_ms(cost)
    }
}

/// Policies from the related-work discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShippingPolicy {
    /// ObjectStore-style: ship every page containing a requested tuple.
    PageShipping,
    /// Versant-style: ship whole requested objects, one message each.
    ObjectShipping,
    /// RDBMS/XNF-style: ship only requested attributes, blocked into
    /// `block_bytes` messages.
    QueryShipping { block_bytes: usize },
}

/// Simulate shipping `rids`' tuples of `table`, projecting `columns`
/// (query shipping only ships those; the others expose more).
pub fn simulate_shipping(
    table: &Table,
    rids: &[xnf_storage::Rid],
    columns: &[usize],
    policy: ShippingPolicy,
) -> Result<ShippingReport> {
    let mut report = ShippingReport::default();
    match policy {
        ShippingPolicy::PageShipping => {
            // One message per distinct page; the whole page crosses.
            let mut pages: Vec<u64> = rids.iter().map(|r| r.page).collect();
            pages.sort_unstable();
            pages.dedup();
            report.messages = pages.len() as u64;
            report.bytes = pages.len() as u64 * PAGE_SIZE as u64;
            // Exposure: co-located live tuples that were not requested.
            let mut requested: Vec<xnf_storage::Rid> = rids.to_vec();
            requested.sort_unstable();
            let mut exposed_tuples = 0u64;
            let mut exposed_attrs = 0u64;
            table.for_each(|rid, tuple| {
                if pages.binary_search(&rid.page).is_ok() {
                    if requested.binary_search(&rid).is_err() {
                        exposed_tuples += 1;
                        exposed_attrs += tuple.len() as u64;
                    } else {
                        // Requested tuple: unprojected attributes still leak.
                        exposed_attrs += (tuple.len() - columns.len()) as u64;
                    }
                }
                Ok(true)
            })?;
            report.exposed_tuples = exposed_tuples;
            report.exposed_attributes = exposed_attrs;
        }
        ShippingPolicy::ObjectShipping => {
            for rid in rids {
                let t = table.get(*rid)?;
                report.messages += 1;
                report.bytes += t.byte_size() as u64 + 16;
                report.exposed_attributes += (t.len() - columns.len()) as u64;
            }
        }
        ShippingPolicy::QueryShipping { block_bytes } => {
            let cap = block_bytes.max(1);
            let mut acc = 0usize;
            for rid in rids {
                let t = table.get(*rid)?;
                let size: usize = columns
                    .iter()
                    .map(|&c| t.values[c].byte_size())
                    .sum::<usize>()
                    + 8;
                if acc + size > cap && acc > 0 {
                    report.messages += 1;
                    report.bytes += acc as u64;
                    acc = 0;
                }
                acc += size;
            }
            if acc > 0 {
                report.messages += 1;
                report.bytes += acc as u64;
            }
        }
    }
    Ok(report)
}

/// The fragmented, navigational extraction the paper's introduction warns
/// about: one query per parent instance, recursively. Used as the baseline
/// for the set-oriented extraction experiment (E4).
pub fn navigational_extract(
    server: &Server,
    stats: &mut TransportStats,
    root_query: &str,
    levels: &[NavLevel],
) -> Result<usize> {
    let roots = server.fetch(root_query, FetchStrategy::Block(1024), stats)?;
    let mut frontier: Vec<Vec<xnf_storage::Value>> = roots
        .try_table()
        .map_err(crate::error::XnfError::from)?
        .rows
        .clone();
    let mut total = frontier.len();
    for level in levels {
        let mut next = Vec::new();
        for parent in &frontier {
            let key = &parent[level.parent_key_col];
            let q = format!("{} {}", level.query_prefix, key);
            let children = server.fetch(&q, FetchStrategy::Block(1024), stats)?;
            next.extend(
                children
                    .try_table()
                    .map_err(crate::error::XnfError::from)?
                    .rows
                    .iter()
                    .cloned(),
            );
        }
        total += next.len();
        frontier = next;
    }
    Ok(total)
}

/// One parent→child navigation level: `query_prefix` must end with a
/// comparison against the parent key, e.g. `SELECT ... WHERE edno =`.
pub struct NavLevel {
    pub query_prefix: String,
    pub parent_key_col: usize,
}
