//! The execution engine: materialises shared subplans ("table queues") as
//! batch sequences and delivers the output streams of a QEP.

use std::sync::Arc;

use xnf_plan::{Qep, QepOutput};
use xnf_qgm::{OutputKind, Reach};
use xnf_storage::{Catalog, Value};

use crate::batch::RowBatch;
use crate::error::{ExecError, Result};
use crate::eval::{Params, Row};
use crate::ops::{build_operator, ExecStats, Runtime};

/// One delivered output stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    pub name: String,
    pub kind: OutputKind,
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

/// The complete result of a QEP: all output streams, in delivery order.
/// For a plain SQL query there is exactly one stream; for an XNF query the
/// streams form the heterogeneous CO result (node streams + connection
/// streams, Sect. 5.0).
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub streams: Vec<StreamResult>,
    pub stats: ExecStats,
}

impl QueryResult {
    /// The single relational result, or an error when this is a CO result
    /// with several streams (or none).
    pub fn try_table(&self) -> Result<&StreamResult> {
        match self.streams.as_slice() {
            [one] => Ok(one),
            streams => Err(ExecError::Api(format!(
                "expected a single relational stream, got {}",
                streams.len()
            ))),
        }
    }

    /// Find a stream by name.
    pub fn stream(&self, name: &str) -> Option<&StreamResult> {
        self.streams
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

/// Execute a QEP against a catalog.
pub fn execute_qep(catalog: &Catalog, qep: &Qep) -> Result<QueryResult> {
    execute_qep_with_params(catalog, qep, Params::default())
}

/// Materialise the QEP's shared subplans into the runtime, in id order
/// (ids are topologically sorted: a shared plan only references lower ids).
/// Each shared result is a table queue kept in batch form, so its consumers
/// re-stream it chunk-at-a-time.
fn materialize_shared(rt: &mut Runtime<'_>, qep: &Qep) -> Result<()> {
    for plan in &qep.shared {
        let mut op = build_operator(plan);
        let mut batches: Vec<RowBatch> = Vec::new();
        while let Some(batch) = op.next_batch(rt)? {
            rt.stats.note_batch(batch.len());
            batches.push(batch);
        }
        rt.shared.push(Arc::new(batches));
    }
    Ok(())
}

/// Execute a QEP with prepared-statement parameter bindings resolved at
/// `eval` time (the prepare-once/execute-many path). Reads run against a
/// fresh latest-committed snapshot.
pub fn execute_qep_with_params(
    catalog: &Catalog,
    qep: &Qep,
    params: Params,
) -> Result<QueryResult> {
    execute_qep_with_visibility(catalog, qep, params, None)
}

/// Execute a QEP with parameter bindings under an explicit visibility
/// handle: `Some(snapshot)` pins every scan and index lookup of the run to
/// that MVCC snapshot (reads inside an open transaction), `None` reads the
/// latest committed state (autocommit).
pub fn execute_qep_with_visibility(
    catalog: &Catalog,
    qep: &Qep,
    params: Params,
    visibility: crate::eval::Visibility,
) -> Result<QueryResult> {
    let mut rt = Runtime::with_ctx(
        catalog,
        crate::eval::OuterCtx::with_params_and_visibility(params, visibility),
    );
    rt.batch_size = qep.batch_size.max(1);
    materialize_shared(&mut rt, qep)?;
    let mut streams = Vec::with_capacity(qep.outputs.len());
    for out in &qep.outputs {
        streams.push(run_output(&mut rt, out)?);
    }
    if let Some(reach) = &qep.reach {
        apply_reach(&mut streams, reach)?;
    }
    let stats = rt.stats;
    Ok(QueryResult { streams, stats })
}

/// A connection stream as [`apply_reach`] walks it.
struct ConnIndex {
    stream: usize,
    /// The partners' streams, parent first.
    partners: Vec<usize>,
    /// (parent position, row index) of every connection, in order.
    by_parent: Vec<(usize, usize)>,
}

/// A recursive CO's fixpoint (Sect. 2) over its delivered candidate
/// streams: every row of a root stream is reached; a connection whose
/// parent is reached is kept and reaches its children. Kept node rows are
/// renumbered, the connections' partner positions rewritten to match, and
/// the streams TAKE left out are dropped.
fn apply_reach(streams: &mut Vec<StreamResult>, reach: &Reach) -> Result<()> {
    let find = |name: &str| {
        let at = streams
            .iter()
            .position(|s| s.name.eq_ignore_ascii_case(name));
        at.ok_or_else(|| ExecError::Api(format!("reach names no stream '{name}'")))
    };
    let pos = |v: &Value| -> Result<usize> { Ok(v.as_int()? as usize) };
    let mut conns: Vec<ConnIndex> = Vec::new();
    for (c, s) in streams.iter().enumerate() {
        if let OutputKind::Connection {
            parent, children, ..
        } = &s.kind
        {
            let partners = std::iter::once(parent).chain(children);
            let partners = partners.map(|p| find(p)).collect::<Result<Vec<_>>>()?;
            let by_parent = s.rows.iter().enumerate();
            let by_parent = by_parent.map(|(k, row)| Ok((pos(&row[0])?, k)));
            let mut by_parent = by_parent.collect::<Result<Vec<_>>>()?;
            by_parent.sort_unstable();
            conns.push(ConnIndex {
                stream: c,
                partners,
                by_parent,
            });
        }
    }

    // Reached node rows, and kept connection rows.
    let mut reached: Vec<Vec<bool>> = streams.iter().map(|s| vec![false; s.rows.len()]).collect();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in &reach.roots {
        let n = find(root)?;
        reached[n].fill(true);
        work.extend((0..streams[n].rows.len()).map(|r| (n, r)));
    }
    while let Some((n, r)) = work.pop() {
        for conn in conns.iter().filter(|c| c.partners[0] == n) {
            let (c, by_parent) = (conn.stream, &conn.by_parent);
            let from = by_parent.partition_point(|&(p, _)| p < r);
            for &(_, k) in by_parent[from..].iter().take_while(|(p, _)| *p == r) {
                reached[c][k] = true;
                for (&child, id) in conn.partners[1..].iter().zip(&streams[c].rows[k][1..]) {
                    let id = pos(id)?;
                    if !reached[child][id] {
                        reached[child][id] = true;
                        work.push((child, id));
                    }
                }
            }
        }
    }

    // Renumber the kept node rows; rewrite the kept connections to match.
    let mut renumbered: Vec<Vec<i64>> = vec![Vec::new(); streams.len()];
    for (i, s) in streams.iter_mut().enumerate() {
        let mut keep = reached[i].iter();
        s.rows.retain(|_| *keep.next().expect("one flag per row"));
        if s.kind == OutputKind::Node {
            // A kept row's new position: the kept rows before it.
            let mut kept = 0;
            renumbered[i] = reached[i]
                .iter()
                .map(|&r| {
                    kept += r as i64;
                    kept - 1
                })
                .collect();
        }
    }
    for conn in &conns {
        for row in &mut streams[conn.stream].rows {
            for (&p, id) in conn.partners.iter().zip(row.iter_mut()) {
                *id = Value::Int(renumbered[p][pos(id)?]);
            }
        }
    }
    streams.retain(|s| !reach.hidden.iter().any(|h| h.eq_ignore_ascii_case(&s.name)));
    Ok(())
}

fn run_output(rt: &mut Runtime<'_>, out: &QepOutput) -> Result<StreamResult> {
    let mut op = build_operator(&out.plan);
    let mut rows: Vec<Row> = Vec::new();
    while let Some(batch) = op.next_batch(rt)? {
        rt.stats.note_batch(batch.len());
        rt.stats.rows_emitted += batch.len() as u64;
        rows.extend(batch.into_rows());
    }
    Ok(StreamResult {
        name: out.name.clone(),
        kind: out.kind.clone(),
        columns: out.columns.clone(),
        rows,
    })
}
