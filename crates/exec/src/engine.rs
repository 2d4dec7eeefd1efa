//! The execution engine: materialises shared subplans ("table queues") as
//! batch sequences and delivers the output streams of a QEP.

use std::sync::Arc;

use xnf_plan::{Qep, QepOutput};
use xnf_qgm::OutputKind;
use xnf_storage::Catalog;

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
    let stats = rt.stats;
    Ok(QueryResult { streams, stats })
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
