//! # xnf-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (Sect. 5).
//! The `experiments` binary (`cargo run --release -p xnf-bench --bin
//! experiments`, listed in the README) runs each experiment and prints
//! paper-style tables; the `benches/` directory holds the criterion
//! ablations the `benchmark/` package does not run yet (`bench_wal`,
//! `bench_vacuum`, `bench_parallel`).
//!
//! Entry points: [`run_table1`] / [`render_table1`] for the Table 1
//! reproduction, [`census_qep`] / [`op_signatures`] for plan-shape
//! counting.
//!
//! ```
//! use xnf_bench::census_qep;
//! use xnf_fixtures::{build_paper_db, PaperScale};
//!
//! let db = build_paper_db(PaperScale { departments: 5, ..Default::default() });
//! let qep = db.compile("SELECT COUNT(*) FROM EMP WHERE edno = 1").unwrap();
//! let census = census_qep(&qep);
//! assert!(census.derivation.selections > 0, "the filtered scan is counted");
//! ```

pub mod census;
pub mod experiments;
pub mod table1;

pub use census::{census_plan, census_qep, op_signatures, OpCensus, QepCensus};
pub use table1::{render_table1, run_table1, Table1, COMPONENT_QUERIES, PAPER_TABLE1};
