//! Heap allocations per statement, pinned exactly.
//!
//! The executor's streaming path (scan → filter → project → join probe →
//! aggregate fold) moves rows in flat [`RowBatch`](xnf_exec::RowBatch)
//! buffers, so a statement allocates per batch and per page, never per
//! row. These pins count every allocation a prepared statement's second
//! execution makes on the test's own thread, over the star fixture's 8 000
//! SALES rows (178 pages, resident) at dop 1, so the whole pipeline runs
//! on that thread. A per-row allocation anywhere in the pipeline adds
//! 8 000 or more to a count.
//!
//! Index probes allocate per page's run of postings, not per posting: the
//! rows a probe resolves are decoded straight into its batch.
//!
//! This file is its own test binary: the counting allocator below is the
//! global allocator of this binary only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xnf_core::{Database, DbConfig, PlanOptions};
use xnf_storage::Value;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's exit may allocate after its slot is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) this thread made while `f` ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn star() -> Database {
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::star::build_star_db_with(8_000, config);
    let pages = db.catalog().table("SALES").unwrap().page_count();
    assert_eq!(pages, 178, "the fixture's SALES spans 178 pages");
    db
}

/// The allocations of `sql`'s second and third executions, prepared once
/// (the first execution warms the plan and the pool), with the result's
/// row count.
fn counted(db: &Database, sql: &str, params: &[Value]) -> ([u64; 2], usize) {
    let session = db.session();
    let mut stmt = session.prepare(sql).unwrap();
    stmt.bind(params).unwrap();
    stmt.query().unwrap();
    let mut rows = 0;
    let counts = [(); 2].map(|_| {
        let (n, result) = allocations(|| stmt.query().unwrap());
        rows = result.try_table().unwrap().rows.len();
        n
    });
    (counts, rows)
}

#[test]
fn count_star_allocates_per_page_not_per_row() {
    let db = star();
    let (counts, rows) = counted(&db, "SELECT COUNT(*) FROM SALES", &[]);
    assert_eq!(rows, 1);
    assert_eq!(counts, [79; 2], "COUNT(*) over 8 000 rows");
}

/// The `analytic` workload's `q_topn` shape: about 200 groups. Group keys
/// live in one flat key table and accumulators in one array, so a group
/// costs its result row and nothing else; a key, an accumulator vector and
/// a DISTINCT vector of its own per group cost 1 265.
#[test]
fn top_n_allocates_per_page_and_group_not_per_row() {
    let db = star();
    let sql = "SELECT cust, SUM(amount) AS total FROM SALES WHERE day >= ? \
               GROUP BY cust ORDER BY total DESC, cust LIMIT 10";
    let (counts, rows) = counted(&db, sql, &[Value::Int(180)]);
    assert_eq!(rows, 10);
    assert_eq!(counts, [483; 2], "top-N over a filtered group-by");
}

/// The `q_join_group` shape: 40 groups over a hash join. Before its groups
/// were flattened as above, it cost 832.
#[test]
fn join_group_allocates_per_page_not_per_row() {
    let db = star();
    let sql = "SELECT i.cat, COUNT(*), SUM(s.amount) FROM SALES s, ITEM i \
               WHERE s.item = i.item AND s.day >= ? GROUP BY i.cat";
    let (counts, rows) = counted(&db, sql, &[Value::Int(180)]);
    assert_eq!(rows, 40);
    assert_eq!(counts, [685; 2], "a join feeding a group-by");
}

/// `sql` with `?` bound to `7`, as `EXPLAIN` needs it.
fn plan_of(db: &Database, sql: &str) -> String {
    db.explain(&sql.replace('?', "7")).unwrap()
}

/// The `analytic` workload's `q_range` shape: an index probe of one `day`,
/// 22 rows on 22 pages. Postings resolve straight into the batch the probe
/// emits; resolving each into a `Tuple` of its own first cost 100, about
/// one more allocation per row, and cloning the probed key's postings out
/// of the tree cost one more (79).
#[test]
fn index_probe_decodes_postings_into_its_batch() {
    let db = star();
    let sql = "SELECT sale, amount FROM SALES WHERE day = ? ORDER BY sale";
    assert!(plan_of(&db, sql).contains("IndexEq(SALES.sales_day)"));
    let (counts, rows) = counted(&db, sql, &[Value::Int(7)]);
    assert_eq!(rows, 22);
    assert_eq!(counts, [78; 2], "an index probe of 22 rows");
}

/// An index nested-loops join over that probe: each of its 22 rows probes
/// `CUST` by key, and the matches land in one reused buffer. Resolving
/// every posting of both probes into a `Tuple` of its own first cost 306;
/// cloning each probed key's postings out of the tree cost 263.
#[test]
fn index_join_decodes_postings_into_its_batches() {
    let db = star();
    let sql = "SELECT s.sale, c.cname FROM SALES s, CUST c \
               WHERE s.cust = c.cust AND s.day = ?";
    let plan = plan_of(&db, sql);
    assert!(plan.contains("IndexNlJoin(CUST.cust_pk)"), "{plan}");
    assert!(plan.contains("IndexEq(SALES.sales_day)"), "{plan}");
    let (counts, rows) = counted(&db, sql, &[Value::Int(7)]);
    assert_eq!(rows, 22);
    assert_eq!(counts, [240; 2], "an index join of 22 rows");
}

/// A point fetch of one department from the materialized Fig. 1 CO
/// (`DEPS_ARC` without its `loc` restriction): the department's node, its
/// ~100 descendants and their connections, found through index probes of
/// the backing streams. Cloning each probed key's postings out of the tree
/// cost 1 479.
#[test]
fn stored_point_fetch_allocates_an_exact_count() {
    let config = DbConfig {
        plan: PlanOptions {
            dop: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let db = xnf_fixtures::build_uniform_paper_db_with(40, config);
    let all = xnf_fixtures::DEPS_ARC.replace(" WHERE loc = 'ARC'", "");
    db.session()
        .execute(&format!("CREATE MATERIALIZED VIEW deps AS {all}"), &[])
        .unwrap();
    let fetch = || db.fetch_co_point("deps", &Value::Int(3)).unwrap();
    let tuples = fetch().workspace.tuple_count();
    let (count, co) = allocations(fetch);
    assert_eq!(co.workspace.tuple_count(), tuples);
    assert_eq!(count, 1_351, "a stored point fetch of one department");
}
