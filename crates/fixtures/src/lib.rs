//! # xnf-fixtures — workload generators for tests, examples and benchmarks
//!
//! - [`bom`]: a layered bill-of-materials parts graph and its recursive
//!   CO (Sect. 2);
//! - [`paper`]: the Fig. 1 DEPT/EMP/PROJ/SKILLS schema at arbitrary scale
//!   factors (the paper's running example, grown to measurable sizes);
//! - [`oo1`]: a Cattell OO1-style parts database (N parts, 3 connections
//!   each, locality of references) for the cache-traversal experiment of
//!   Sect. 5.2;
//! - [`random`]: small random tables for property-based testing, and
//!   seeded random queries over a wide pair of them;
//! - [`star`]: the `analytic` benchmark's star schema at test scale.
//!
//! All generators are deterministic for a fixed seed, so equivalence
//! suites can build identical databases under different engine
//! configurations (batch sizes, planner ablations) and compare results.
//!
//! ```
//! use xnf_fixtures::{build_paper_db, PaperScale, DEPS_ARC};
//!
//! let db = build_paper_db(PaperScale { departments: 10, ..Default::default() });
//! let co = db.session().fetch_co(DEPS_ARC).unwrap();
//! assert!(co.workspace.component("xdept").unwrap().len() > 0);
//! ```

pub mod bom;
pub mod oo1;
pub mod paper;
pub mod random;
pub mod star;

pub use bom::{bom_co, build_bom, build_bom_with};
pub use oo1::{build_oo1_db, build_oo1_db_with, Oo1Config, OO1_CO};
pub use paper::{
    build_paper_db, build_paper_db_with, build_uniform_paper_db_with, deps_arc_query, PaperScale,
    DEPS_ARC,
};
pub use random::{random_table, random_wide_query, random_wide_tables, RandomTableConfig};
pub use star::build_star_db_with;
