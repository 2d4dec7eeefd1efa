//! # xnf-rewrite — rule-based query rewrite (NF + XNF semantic rewrite)
//!
//! Reproduces the paper's two-component rewrite architecture (Sect. 4.4):
//! a shared [`engine`] runs both the **XNF semantic rewrite** (lowering the
//! XNF operator to NF QGM with reachability semijoins and shared component
//! derivations — Sect. 4.2) and the **NF rules** (E-to-F quantifier
//! conversion, SELECT merge, predicate pushdown, unused-box removal —
//! Sect. 3.2 / Fig. 3).
//!
//! Entry point: [`rewrite`] (in place over a QGM; returns a
//! [`RewriteReport`] of rule firings).
//!
//! ```
//! use std::sync::Arc;
//! use xnf_qgm::build_select_query;
//! use xnf_rewrite::{rewrite, RewriteOptions};
//! use xnf_sql::parse_select;
//! use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema};
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16));
//! let catalog = Catalog::new(pool);
//! catalog
//!     .create_table("EMP", Schema::from_pairs(&[("eno", DataType::Int)]))
//!     .unwrap();
//! let s = parse_select(
//!     "SELECT eno FROM EMP WHERE EXISTS (SELECT 1 FROM EMP e WHERE e.eno = EMP.eno)",
//! )
//! .unwrap();
//! let mut qgm = build_select_query(&catalog, &s).unwrap();
//! let report = rewrite(&mut qgm, RewriteOptions::default()).unwrap();
//! assert!(report.total() > 0, "E-to-F and friends fired");
//! ```

pub mod engine;
pub mod error;
pub mod rules_nf;
pub mod xnf_lowering;

pub use engine::{RewriteReport, Rule, RuleEngine};
pub use error::{Result, RewriteError};
pub use rules_nf::{
    nf_rules, nf_rules_no_etof, xnf_cleanup_rules, ConstantFolding, EToF, PredicatePushdown,
    RemoveUnusedBoxes, SelectMerge,
};
pub use xnf_lowering::xnf_semantic_rewrite;

use xnf_qgm::Qgm;

/// Rewrite options.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Apply the E-to-F (existential subquery → semijoin) conversion.
    /// Kept because disabling it reproduces Fig. 3's naive baseline.
    pub e_to_f: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions { e_to_f: true }
    }
}

/// Full rewrite pipeline: XNF semantic rewrite (when an XNF operator is
/// present), then NF rules to fixpoint.
pub fn rewrite(qgm: &mut Qgm, options: RewriteOptions) -> Result<RewriteReport> {
    xnf_semantic_rewrite(qgm)?;
    let rules = if options.e_to_f {
        nf_rules()
    } else {
        nf_rules_no_etof()
    };
    let engine = RuleEngine::new(rules);
    engine.run(qgm)
}

#[cfg(test)]
mod rewrite_tests;
