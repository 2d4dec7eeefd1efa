//! Tests reproducing the paper's rewrite figures structurally.

use std::sync::Arc;

use xnf_qgm::{build_select_query, build_xnf_query, display, OutputKind, QunKind};
use xnf_sql::{parse_select, parse_xnf};
use xnf_storage::{BufferPool, Catalog, DataType, DiskManager, Schema};

use crate::{rewrite, RewriteOptions};

fn paper_catalog() -> Catalog {
    let cat = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256)));
    cat.create_table(
        "DEPT",
        Schema::from_pairs(&[
            ("dno", DataType::Int),
            ("dname", DataType::Str),
            ("loc", DataType::Str),
        ]),
    )
    .unwrap();
    cat.create_table(
        "EMP",
        Schema::from_pairs(&[
            ("eno", DataType::Int),
            ("ename", DataType::Str),
            ("edno", DataType::Int),
            ("sal", DataType::Double),
        ]),
    )
    .unwrap();
    cat.create_table(
        "PROJ",
        Schema::from_pairs(&[
            ("pno", DataType::Int),
            ("pname", DataType::Str),
            ("pdno", DataType::Int),
        ]),
    )
    .unwrap();
    cat.create_table(
        "SKILLS",
        Schema::from_pairs(&[("sno", DataType::Int), ("sname", DataType::Str)]),
    )
    .unwrap();
    cat.create_table(
        "EMPSKILLS",
        Schema::from_pairs(&[("eseno", DataType::Int), ("essno", DataType::Int)]),
    )
    .unwrap();
    cat.create_table(
        "PROJSKILLS",
        Schema::from_pairs(&[("pspno", DataType::Int), ("pssno", DataType::Int)]),
    )
    .unwrap();
    cat
}

const DEPS_ARC: &str = "\
OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
       xemp AS EMP,
       xproj AS PROJ,
       xskills AS SKILLS,
       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
       ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),
       empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS es
                       WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),
       projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS ps
                        WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)
TAKE *";

/// Fig. 3: the existential subquery over DEPT is converted to a semijoin
/// and merged into the EMP select box — one box, two quantifiers (F EMP,
/// Semi DEPT), both predicates local.
#[test]
fn fig3_exists_to_join_and_merge() {
    let cat = paper_catalog();
    let q = parse_select(
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
    )
    .unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();

    // Initial graph (Fig. 3a): outer box has an E quantifier.
    let body = g.quns[g.outputs[0].qun].ranges_over;
    assert!(g
        .boxed(body)
        .quns
        .iter()
        .any(|&q| g.quns[q].kind == QunKind::Existential));

    let report = rewrite(&mut g, RewriteOptions::default()).unwrap();
    assert!(report.fired("e_to_f") >= 1, "E-to-F must fire");
    assert!(report.fired("select_merge") >= 1, "SELECT merge must fire");

    // Final graph (Fig. 3c): a single Select box joining EMP and DEPT.
    g.check().unwrap();
    let body = g.quns[g.outputs[0].qun].ranges_over;
    let b = g.boxed(body);
    assert_eq!(
        b.quns.len(),
        2,
        "one box, two quantifiers:\n{}",
        display::render(&g)
    );
    let kinds: Vec<QunKind> = b.quns.iter().map(|&q| g.quns[q].kind).collect();
    assert!(kinds.contains(&QunKind::Foreach) && kinds.contains(&QunKind::Semi));
    // Both the location restriction and the join predicate are local now.
    assert_eq!(b.preds.len(), 2);
    // Only EMP, DEPT and the select + top boxes remain.
    assert_eq!(g.count_kind("Select"), 1);
    assert_eq!(g.count_kind("BaseTable"), 2);
}

/// Without E-to-F the existential subquery survives (the naive baseline).
#[test]
fn fig3_naive_mode_keeps_existential() {
    let cat = paper_catalog();
    let q = parse_select(
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
    )
    .unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions { e_to_f: false }).unwrap();
    let has_existential = g.quns.iter().any(|q| q.kind == QunKind::Existential);
    assert!(
        has_existential,
        "naive mode must keep the E quantifier:\n{}",
        display::render(&g)
    );
}

/// Fig. 5: lowering deps_ARC. The xdept derivation is shared: it feeds its
/// own output stream, both child reachability semijoins and both connection
/// boxes — common subexpressions installed once (Fig. 6 / Table 1).
#[test]
fn fig5_deps_arc_lowering_shares_xdept() {
    let cat = paper_catalog();
    let q = parse_xnf(DEPS_ARC).unwrap();
    let mut g = build_xnf_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    g.check().unwrap();

    // 8 output streams: 4 node streams + 4 connection streams.
    assert_eq!(g.outputs.len(), 8);
    let nodes = g
        .outputs
        .iter()
        .filter(|o| o.kind == OutputKind::Node)
        .count();
    assert_eq!(nodes, 4);
    let conns = g
        .outputs
        .iter()
        .filter(|o| matches!(o.kind, OutputKind::Connection { .. }))
        .count();
    assert_eq!(conns, 4);

    // No XNF box survives.
    assert_eq!(g.count_kind("XNF"), 0);

    // The xdept box (Select over DEPT with the 'ARC' predicate) is
    // referenced by: its output qun, xemp path, xproj path, employment
    // connection, ownership connection = 5 references.
    let xdept = g
        .boxes
        .iter()
        .find(|b| b.label == "xdept" && b.is_select())
        .unwrap_or_else(|| panic!("xdept box missing:\n{}", display::render(&g)));
    let refs = g.ref_counts();
    assert_eq!(
        refs[xdept.id],
        5,
        "xdept must be shared 5 ways:\n{}",
        display::render(&g)
    );

    // xskills is derived per path and unioned (object sharing).
    let union_count = g.count_kind("Union");
    assert_eq!(
        union_count,
        1,
        "xskills should be the only union:\n{}",
        display::render(&g)
    );
}

/// A single-parent child lowers to exactly the Fig. 5b shape after NF
/// rewrite: Select { F EMP, Semi xdept } with the relationship predicate.
#[test]
fn fig5_child_shape() {
    let cat = paper_catalog();
    let q = parse_xnf(
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE *",
    )
    .unwrap();
    let mut g = build_xnf_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();

    let xemp_out = g.outputs.iter().find(|o| o.name == "xemp").unwrap();
    let body = g.quns[xemp_out.qun].ranges_over;
    let b = g.boxed(body);
    // After SELECT merge the EMP base table is joined directly.
    assert_eq!(b.quns.len(), 2, "{}", display::render(&g));
    let kinds: Vec<(QunKind, &str)> = b
        .quns
        .iter()
        .map(|&q| {
            (
                g.quns[q].kind,
                g.boxes[g.quns[q].ranges_over].label.as_str(),
            )
        })
        .collect();
    assert!(kinds.contains(&(QunKind::Foreach, "EMP")), "{kinds:?}");
    assert!(
        kinds
            .iter()
            .any(|(k, l)| *k == QunKind::Semi && *l == "xdept"),
        "{kinds:?}"
    );
}

/// A recursive schema graph lowers without path boxes: every node is its
/// own body, every relationship (taken or not) a connection stream, and
/// the graph names the roots and the streams TAKE leaves out.
#[test]
fn recursive_co_lowers_to_candidates_and_reach() {
    let cat = paper_catalog();
    cat.create_table(
        "PARTS",
        Schema::from_pairs(&[("pid", DataType::Int), ("pname", DataType::Str)]),
    )
    .unwrap();
    cat.create_table(
        "BOM",
        Schema::from_pairs(&[("parent", DataType::Int), ("child", DataType::Int)]),
    )
    .unwrap();
    let q = parse_xnf(
        "OUT OF ROOT asm AS (SELECT * FROM PARTS WHERE pid = 1),
                part AS PARTS,
                top_uses AS (RELATE asm VIA uses, part USING BOM b
                             WHERE asm.pid = b.parent AND b.child = part.pid),
                sub_uses AS (RELATE part VIA uses, part USING BOM b2
                             WHERE part.pid = b2.parent AND b2.child = uses.pid)
         TAKE asm, part(pid)",
    )
    .unwrap();
    let mut g = build_xnf_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    let reach = g
        .reach
        .clone()
        .expect("a recursive CO carries its reachability");
    assert_eq!(reach.roots, ["asm"]);
    assert_eq!(reach.hidden, ["top_uses", "sub_uses"]);
    let outputs: Vec<&str> = g.outputs.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(outputs, ["asm", "part", "top_uses", "sub_uses"]);
    assert_eq!(g.count_kind("XNF"), 0);
    assert_eq!(g.count_kind("Union"), 0, "no per-path union");
    let reachable = g.reachable_boxes();
    assert!(
        !g.boxes
            .iter()
            .any(|b| reachable[b.id] && b.label.contains("_via_")),
        "no path boxes:\n{}",
        display::render(&g)
    );
    // TAKE part(pid) projects through the order-preserving output box.
    let part = g.quns[g.outputs[1].qun].ranges_over;
    assert_eq!(g.boxed(part).label, "part_out");
    assert_eq!(g.boxed(part).head.len(), 1);
}

/// Predicate pushdown moves a derived-table filter into the derivation.
#[test]
fn pushdown_moves_filters_down() {
    let cat = paper_catalog();
    let q = parse_select("SELECT * FROM (SELECT eno, sal FROM EMP) e WHERE e.sal > 100").unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    let report = rewrite(&mut g, RewriteOptions::default()).unwrap();
    // Merge may subsume pushdown here; either way the final graph is a
    // single select over EMP with the predicate local.
    assert!(report.fired("select_merge") + report.fired("predicate_pushdown") >= 1);
    let body = g.quns[g.outputs[0].qun].ranges_over;
    assert_eq!(g.boxed(body).preds.len(), 1);
    assert_eq!(g.count_kind("Select"), 1);
}

/// SELECT merge must not fire on shared boxes (common subexpressions) —
/// sharing is exactly what the XNF derivation relies on.
#[test]
fn merge_respects_sharing() {
    let cat = paper_catalog();
    let q = parse_xnf(
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                xemp AS EMP,
                xproj AS PROJ,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),
                ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno)
         TAKE *",
    )
    .unwrap();
    let mut g = build_xnf_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    let xdept = g.boxes.iter().find(|b| b.label == "xdept" && b.is_select());
    assert!(
        xdept.is_some(),
        "shared xdept must survive merge:\n{}",
        display::render(&g)
    );
}

/// GroupBy boxes flow through the rewrite unharmed.
#[test]
fn group_by_survives_rewrite() {
    let cat = paper_catalog();
    let q = parse_select("SELECT edno, COUNT(*) AS n FROM EMP GROUP BY edno").unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    g.check().unwrap();
    assert_eq!(g.count_kind("GroupBy"), 1);
}

/// Constant folding removes tautologies and folds literal arithmetic.
#[test]
fn constant_folding_cleans_predicates() {
    let cat = paper_catalog();
    let q =
        parse_select("SELECT eno FROM EMP WHERE 1 = 1 AND sal > 50 + 50 AND NOT (2 > 3)").unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    let report = rewrite(&mut g, RewriteOptions::default()).unwrap();
    assert!(report.fired("constant_folding") >= 1);
    let body = g.quns[g.outputs[0].qun].ranges_over;
    // Only the real predicate survives, with the sum folded.
    assert_eq!(g.boxed(body).preds.len(), 1, "{}", display::render(&g));
    assert!(
        g.boxed(body).preds[0].to_string().contains("100"),
        "{}",
        display::render(&g)
    );
}

/// A contradiction folds to FALSE and stays (the executor yields no rows).
#[test]
fn contradiction_folds_to_false() {
    let cat = paper_catalog();
    let q = parse_select("SELECT eno FROM EMP WHERE 1 = 2").unwrap();
    let mut g = build_select_query(&cat, &q).unwrap();
    rewrite(&mut g, RewriteOptions::default()).unwrap();
    let body = g.quns[g.outputs[0].qun].ranges_over;
    assert_eq!(g.boxed(body).preds.len(), 1);
    assert_eq!(g.boxed(body).preds[0].to_string(), "false");
}
