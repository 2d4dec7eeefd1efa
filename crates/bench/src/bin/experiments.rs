//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p xnf-bench --bin experiments            # all
//! cargo run --release -p xnf-bench --bin experiments -- table1  # one
//! ```

use xnf_bench::experiments::{
    cache_exp, extraction, fig3, fig56, pipeline, recursion_exp, shipping, swizzle, updates,
};
use xnf_bench::{render_table1, run_table1};
use xnf_fixtures::{build_paper_db, PaperScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all") || args == ["quick"];
    let want = |name: &str| all || args.iter().any(|a| a == name);
    // "quick" shrinks the sweeps (used by integration tests).
    let quick = args.iter().any(|a| a == "quick");

    if want("table1") {
        section("E1 / Table 1 — operation counts");
        let db = build_paper_db(PaperScale {
            departments: 10,
            ..Default::default()
        });
        let t = run_table1(&db);
        println!("{}", render_table1(&t));
    }

    if want("fig3") {
        section("E2 / Fig. 3 — existential subquery rewrite");
        let db = build_paper_db(PaperScale {
            departments: 5,
            ..Default::default()
        });
        let (a, b, c) = fig3::fig3_stages(&db);
        println!("-- (a) initial QGM graph --\n{a}");
        println!("-- (b) after E-to-F quantifier conversion --\n{b}");
        println!("-- (c) after SELECT merge --\n{c}");
        let sweep: &[usize] = if quick {
            &[400, 2000]
        } else {
            &[400, 2000, 10_000, 40_000]
        };
        println!("{}", fig3::render_fig3(&fig3::run_fig3(sweep)));
    }

    if want("fig56") {
        section("E3 / Figs. 5-6 — multi-query CSE sharing");
        let db = build_paper_db(PaperScale {
            departments: 20,
            ..Default::default()
        });
        fig56::verify_equivalence(&db);
        println!("(equivalence of both derivations verified)");
        let sweep: &[usize] = if quick {
            &[20, 50]
        } else {
            &[20, 50, 100, 200]
        };
        println!("{}", fig56::render_fig56(&fig56::run_fig56(sweep)));
    }

    if want("extraction") {
        section("E4 / Sect. 1 — set-oriented vs navigational extraction");
        let sweep: &[usize] = if quick { &[10, 25] } else { &[10, 25, 50, 100] };
        println!(
            "{}",
            extraction::render_extraction(&extraction::run_extraction(sweep))
        );
    }

    if want("cache") {
        section("E5 / Sect. 5.2 — cache traversal rate (OO1)");
        let (parts, traversals) = if quick { (2_000, 20) } else { (20_000, 100) };
        println!(
            "{}",
            cache_exp::render_cache(&cache_exp::run_cache(parts, traversals, 7))
        );
    }

    if want("shipping") {
        section("E6 / Sect. 5.3 — shipping policies");
        println!("{}", shipping::render_shipping(&shipping::run_shipping(50)));
    }

    if want("pipeline") {
        section("E7 / Fig. 7 — extract → swizzle → navigate → persist");
        let d = if quick { 25 } else { 100 };
        println!("{}", pipeline::render_pipeline(&pipeline::run_pipeline(d)));
    }

    if want("swizzle") {
        section("E8 — pointer swizzling ablation");
        let (parts, lookups) = if quick {
            (2_000, 20_000)
        } else {
            (20_000, 200_000)
        };
        println!(
            "{}",
            swizzle::render_swizzle(&swizzle::run_swizzle(parts, lookups))
        );
    }

    if want("recursion") {
        section("E9 — recursive CO closure");
        let sweep: &[(usize, usize)] = if quick {
            &[(4, 10), (6, 20)]
        } else {
            &[(4, 10), (6, 20), (8, 50), (10, 100)]
        };
        println!(
            "{}",
            recursion_exp::render_recursion(&recursion_exp::run_recursion(sweep))
        );
    }

    if want("updates") {
        section("E10 — CO updates and write-back");
        let d = if quick { 10 } else { 25 };
        println!("{}", updates::render_updates(&updates::run_updates(d)));
    }
}

fn section(title: &str) {
    println!("\n==========================================================================");
    println!("{title}");
    println!("==========================================================================\n");
}
