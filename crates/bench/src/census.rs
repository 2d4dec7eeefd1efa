//! Operation census over physical plans — the measurement instrument for
//! the Table 1 reproduction.
//!
//! An *operation* is a selection (a filtered scan) or a join (hash/NL join,
//! semijoin, or per-tuple subquery filter). The paper counts "NF QGM
//! operations (mostly join)"; we count the corresponding physical operators
//! of the final QEP. Row-level attribution differs slightly from the
//! paper's table (they charge connection-output formation to relationship
//! rows; we charge per-path SKILLS joins to xskills) but the totals and the
//! XNF side reproduce exactly — run `cargo run --release -p xnf-bench --bin
//! experiments` and see the README.

use xnf_plan::{PhysPlan, Qep};

/// Census result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    pub selections: usize,
    pub joins: usize,
}

impl OpCensus {
    pub fn total(&self) -> usize {
        self.selections + self.joins
    }
}

impl std::ops::Add for OpCensus {
    type Output = OpCensus;
    fn add(self, o: OpCensus) -> OpCensus {
        OpCensus {
            selections: self.selections + o.selections,
            joins: self.joins + o.joins,
        }
    }
}

/// A scan with a filter: a selection at any dop.
fn is_filtered_scan(p: &PhysPlan) -> bool {
    matches!(
        p,
        PhysPlan::SeqScan { filter, .. } | PhysPlan::ParallelSeqScan { filter, .. }
            if !filter.is_empty()
    )
}

/// Count σ and ⋈ operators in one plan tree.
pub fn census_plan(plan: &PhysPlan) -> OpCensus {
    let selections = plan.count_ops(&mut |p| {
        is_filtered_scan(p)
            || matches!(p, PhysPlan::IndexEq { .. })
            || matches!(p, PhysPlan::Filter { .. })
            || matches!(
                p,
                PhysPlan::IndexNlJoin { filter, .. } | PhysPlan::IndexSemiJoin { filter, .. }
                    if !filter.is_empty()
            )
    });
    let joins = plan.count_ops(&mut |p| {
        matches!(
            p,
            PhysPlan::HashJoin { .. }
                | PhysPlan::NlJoin { .. }
                | PhysPlan::HashSemiJoin { .. }
                | PhysPlan::NlSemiJoin { .. }
                | PhysPlan::IndexNlJoin { .. }
                | PhysPlan::IndexSemiJoin { .. }
                | PhysPlan::SubqueryFilter { .. }
        )
    });
    OpCensus { selections, joins }
}

/// Census of a whole QEP. For XNF QEPs, connection streams are counted
/// separately: their joins are subject to the paper's *output optimization*
/// (the connection information is captured along the child derivation), so
/// the paper's Table 1 charges them zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct QepCensus {
    /// Shared component derivations + node output streams.
    pub derivation: OpCensus,
    /// Connection streams (captured under output optimization).
    pub connections: OpCensus,
}

pub fn census_qep(qep: &Qep) -> QepCensus {
    let mut c = QepCensus::default();
    for p in &qep.shared {
        c.derivation = c.derivation + census_plan(p);
    }
    for o in &qep.outputs {
        let part = census_plan(&o.plan);
        if matches!(o.kind, xnf_qgm::OutputKind::Connection { .. }) {
            c.connections = c.connections + part;
        } else {
            c.derivation = c.derivation + part;
        }
    }
    c
}

/// Structural signatures of every σ/⋈ operator in a plan, for detecting
/// replication across separately compiled queries (Fig. 6): the signature
/// of an operator is the normalized explain-text of its whole subtree.
pub fn op_signatures(plan: &PhysPlan, out: &mut Vec<String>) {
    let is_op = |p: &PhysPlan| {
        matches!(
            p,
            PhysPlan::HashJoin { .. }
                | PhysPlan::NlJoin { .. }
                | PhysPlan::HashSemiJoin { .. }
                | PhysPlan::NlSemiJoin { .. }
                | PhysPlan::IndexNlJoin { .. }
                | PhysPlan::IndexSemiJoin { .. }
                | PhysPlan::SubqueryFilter { .. }
        ) || is_filtered_scan(p)
            || matches!(p, PhysPlan::IndexEq { .. })
    };
    if is_op(plan) || matches!(plan, PhysPlan::Filter { .. }) {
        out.push(plan.explain());
    }
    match plan {
        PhysPlan::Values { .. }
        | PhysPlan::SeqScan { .. }
        | PhysPlan::ParallelSeqScan { .. }
        | PhysPlan::IndexEq { .. }
        | PhysPlan::SharedScan { .. }
        | PhysPlan::MatViewScan { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::HashDistinct { input }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::ExchangeGather { input, .. }
        | PhysPlan::HashAggregate { input, .. }
        | PhysPlan::ParallelHashAggregate { input, .. }
        | PhysPlan::IndexNlJoin { left: input, .. }
        | PhysPlan::IndexSemiJoin { inner: input, .. } => op_signatures(input, out),
        PhysPlan::HashJoin { left, right, .. } | PhysPlan::NlJoin { left, right, .. } => {
            op_signatures(left, out);
            op_signatures(right, out);
        }
        PhysPlan::HashSemiJoin { outer, inner, .. } | PhysPlan::NlSemiJoin { outer, inner, .. } => {
            op_signatures(outer, out);
            op_signatures(inner, out);
        }
        PhysPlan::SubqueryFilter { input, subplan, .. } => {
            op_signatures(input, out);
            op_signatures(subplan, out);
        }
        PhysPlan::UnionAll { inputs } => {
            for i in inputs {
                op_signatures(i, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_core::{DbConfig, PlanOptions};
    use xnf_fixtures::{build_paper_db, build_paper_db_with, PaperScale, DEPS_ARC};

    #[test]
    fn census_counts_scan_filters_and_joins() {
        let scale = PaperScale {
            departments: 5,
            ..Default::default()
        };
        let sql = "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'";
        let qep = build_paper_db(scale).compile(sql).unwrap();
        let c = census_plan(&qep.outputs[0].plan);
        assert_eq!(c.joins, 1);
        assert_eq!(c.selections, 1);

        // The census counts operations, not plan shapes: the same
        // statement planned with parallel scans counts the same.
        let parallel = build_paper_db_with(
            scale,
            DbConfig {
                plan: PlanOptions {
                    dop: 4,
                    parallel_min_pages: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let qep = parallel.compile(sql).unwrap();
        let plan = &qep.outputs[0].plan;
        assert!(
            plan.explain().contains("ParallelSeqScan"),
            "{}",
            plan.explain()
        );
        assert_eq!(census_plan(plan), c, "{}", plan.explain());

        // So does an XNF derivation whose semijoin probes inside a region.
        let dop1 = DbConfig {
            plan: PlanOptions {
                dop: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let serial = build_paper_db_with(scale, dop1).compile(DEPS_ARC).unwrap();
        let qep = parallel.compile(DEPS_ARC).unwrap();
        let in_region = qep.shared.iter().any(|p| {
            p.count_ops(&mut |p| {
                matches!(p, PhysPlan::ExchangeGather { input, .. }
                    if matches!(input.as_ref(), PhysPlan::HashSemiJoin { .. }))
            }) > 0
        });
        assert!(in_region, "{}", qep.explain());
        let (a, b) = (census_qep(&serial), census_qep(&qep));
        assert_eq!(a.derivation, b.derivation, "{}", qep.explain());
        assert_eq!(a.connections, b.connections, "{}", qep.explain());
    }

    #[test]
    fn signatures_detect_shared_subtrees() {
        let db = build_paper_db(PaperScale {
            departments: 5,
            ..Default::default()
        });
        let q1 = db.compile("SELECT * FROM DEPT WHERE loc = 'ARC'").unwrap();
        let q2 = db.compile("SELECT * FROM DEPT WHERE loc = 'ARC'").unwrap();
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        op_signatures(&q1.outputs[0].plan, &mut s1);
        op_signatures(&q2.outputs[0].plan, &mut s2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 1);
    }
}
