//! Parser unit tests, including the full deps_ARC query from Fig. 1.

use crate::ast::*;
use crate::parser::*;

/// The paper's running example (Fig. 1), lightly normalised (balanced
/// parentheses; the published figure drops one opening paren).
pub const DEPS_ARC: &str = "\
CREATE VIEW deps_ARC AS
OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
       xemp AS EMP,
       xproj AS PROJ,
       xskills AS SKILLS,
       employment AS (RELATE xdept VIA EMPLOYS, xemp
                      WHERE xdept.dno = xemp.edno),
       ownership AS (RELATE xdept VIA HAS, xproj
                     WHERE xdept.dno = xproj.pdno),
       empproperty AS (RELATE xemp VIA POSSESSES, xskills
                       USING EMPSKILLS es
                       WHERE xemp.eno = es.eseno AND
                             es.essno = xskills.sno),
       projproperty AS (RELATE xproj VIA NEEDS, xskills
                        USING PROJSKILLS ps
                        WHERE xproj.pno = ps.pspno AND
                              ps.pssno = xskills.sno)
TAKE *";

#[test]
fn parses_simple_select() {
    let s = parse_select("SELECT a, b AS bb FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5").unwrap();
    assert_eq!(s.items.len(), 2);
    assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bb"));
    assert_eq!(s.from.len(), 1);
    assert!(s.where_clause.is_some());
    assert!(s.order_by[0].desc);
    assert_eq!(s.limit, Some(5));
}

#[test]
fn parses_implicit_alias_but_not_keywords() {
    let s = parse_select("SELECT e.eno FROM EMP e WHERE e.eno = 1").unwrap();
    assert_eq!(s.from[0].binding(), "e");
    // WHERE must not be eaten as an alias.
    assert!(s.where_clause.is_some());
}

#[test]
fn parses_exists_subquery() {
    let s = parse_select(
        "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)",
    )
    .unwrap();
    match s.where_clause.unwrap() {
        Expr::Exists {
            subquery,
            negated: false,
        } => {
            assert_eq!(subquery.from[0].binding(), "d");
        }
        other => panic!("expected EXISTS, got {other:?}"),
    }
}

#[test]
fn parses_not_exists_and_in() {
    let e = parse_expr("NOT EXISTS (SELECT 1 FROM T)").unwrap();
    assert!(matches!(
        e,
        Expr::Unary {
            op: UnaryOp::Not,
            ..
        }
    ));
    let e = parse_expr("x IN (1, 2, 3)").unwrap();
    assert!(matches!(e, Expr::InList { ref list, negated: false, .. } if list.len() == 3));
    let e = parse_expr("x NOT IN (SELECT y FROM T)").unwrap();
    assert!(matches!(e, Expr::InSubquery { negated: true, .. }));
}

#[test]
fn parses_aggregates_and_group_by() {
    let s =
        parse_select("SELECT dno, COUNT(*), AVG(sal) FROM EMP GROUP BY dno HAVING COUNT(*) > 2")
            .unwrap();
    assert_eq!(s.group_by.len(), 1);
    assert!(s.having.is_some());
    assert!(matches!(
        &s.items[1],
        SelectItem::Expr {
            expr: Expr::Agg {
                func: AggFunc::Count,
                arg: None,
                ..
            },
            ..
        }
    ));
}

#[test]
fn parses_joins_and_derived_tables() {
    let s = parse_select(
        "SELECT * FROM (SELECT dno FROM DEPT WHERE loc = 'ARC') d JOIN EMP e ON d.dno = e.edno",
    )
    .unwrap();
    assert!(matches!(&s.from[0], TableRef::Derived { alias, .. } if alias == "d"));
    assert_eq!(s.joins.len(), 1);
}

#[test]
fn parses_union() {
    let s =
        parse_select("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v").unwrap();
    assert_eq!(s.unions.len(), 2);
    assert!(s.unions[0].0, "first union is ALL");
    assert!(!s.unions[1].0);
}

#[test]
fn trailing_order_by_and_limit_apply_to_the_whole_union() {
    let s = parse_select("SELECT a FROM t UNION SELECT a FROM u ORDER BY a LIMIT 3").unwrap();
    assert_eq!(s.order_by.len(), 1);
    assert_eq!(s.limit, Some(3));
    assert!(s.unions[0].1.order_by.is_empty() && s.unions[0].1.limit.is_none());
    assert_eq!(parse_select(&s.to_string()).unwrap(), s);
}

#[test]
fn parses_ddl_and_dml() {
    let stmts = parse_statements(
        "CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR(30), loc VARCHAR(20));
         CREATE UNIQUE INDEX dept_pk ON DEPT (dno);
         INSERT INTO DEPT (dno, dname, loc) VALUES (1, 'tools', 'ARC'), (2, 'db', 'HDC');
         UPDATE DEPT SET loc = 'YKT' WHERE dno = 2;
         DELETE FROM DEPT WHERE dno = 1;
         ANALYZE DEPT;",
    )
    .unwrap();
    assert_eq!(stmts.len(), 6);
    assert!(matches!(&stmts[0], Statement::CreateTable { columns, .. }
        if columns.len() == 3 && columns[0].not_null && !columns[1].not_null));
    assert!(matches!(
        &stmts[1],
        Statement::CreateIndex { unique: true, .. }
    ));
    assert!(matches!(&stmts[2], Statement::Insert { rows, .. } if rows.len() == 2));
    assert!(matches!(&stmts[5], Statement::Analyze { table: Some(t) } if t == "DEPT"));
}

#[test]
fn parses_vacuum() {
    let stmts = parse_statements("VACUUM; VACUUM DEPT;").unwrap();
    assert_eq!(stmts.len(), 2);
    assert!(matches!(&stmts[0], Statement::Vacuum { table: None }));
    assert!(matches!(&stmts[1], Statement::Vacuum { table: Some(t) } if t == "DEPT"));
    // Case-insensitive keyword, like every other statement head.
    assert!(matches!(
        parse_statement("vacuum emp").unwrap(),
        Statement::Vacuum { table: Some(t) } if t == "emp"
    ));
}

#[test]
fn parses_deps_arc_view() {
    let stmt = parse_statement(DEPS_ARC).unwrap();
    let Statement::CreateView {
        name,
        body: ViewBody::Xnf(q),
        materialized: false,
    } = stmt
    else {
        panic!("expected XNF view");
    };
    assert_eq!(name, "deps_ARC");
    assert_eq!(q.defs.len(), 8);
    assert!(matches!(q.take, XnfTake::All));

    // Component tables.
    let tables: Vec<&str> = q
        .defs
        .iter()
        .filter_map(|d| match d {
            XnfDef::Table { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(tables, vec!["xdept", "xemp", "xproj", "xskills"]);

    // Relationships with roles and mapping tables.
    let rels: Vec<&XnfRelationship> = q
        .defs
        .iter()
        .filter_map(|d| match d {
            XnfDef::Relationship(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(rels.len(), 4);
    assert_eq!(rels[0].name, "employment");
    assert_eq!(rels[0].parent, "xdept");
    assert_eq!(rels[0].role, "EMPLOYS");
    assert_eq!(rels[0].children, vec!["xemp"]);
    assert!(rels[0].using.is_empty());
    assert_eq!(rels[2].name, "empproperty");
    assert_eq!(
        rels[2].using,
        vec![("EMPSKILLS".to_string(), Some("es".to_string()))]
    );
}

#[test]
fn parses_unparenthesised_relate() {
    // The figure's employment definition drops the opening paren; accept it.
    let q = parse_xnf(
        "OUT OF xdept AS DEPT, xemp AS EMP,
                employment AS RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno
         TAKE xdept, employment, xemp",
    )
    .unwrap();
    assert_eq!(q.defs.len(), 3);
    let XnfTake::Items(items) = &q.take else {
        panic!()
    };
    assert_eq!(items.len(), 3);
}

#[test]
fn parses_take_with_column_projection_and_restriction() {
    let q = parse_xnf(
        "OUT OF xdept AS DEPT, xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE xdept(dno, dname), employment, xemp
         WHERE xemp.sal > 100",
    )
    .unwrap();
    let XnfTake::Items(items) = &q.take else {
        panic!()
    };
    assert_eq!(
        items[0].columns.as_ref().unwrap(),
        &vec!["dno".to_string(), "dname".to_string()]
    );
    assert!(q.restriction.is_some());
}

#[test]
fn parses_root_marker_and_view_ref() {
    let q = parse_xnf(
        "OUT OF ROOT part AS (SELECT * FROM PARTS WHERE pid = 1),
                contains AS (RELATE part VIA uses, part USING BOM b
                             WHERE part.pid = b.parent AND b.child = part.pid)
         TAKE *",
    )
    .unwrap();
    assert!(matches!(&q.defs[0], XnfDef::Table { root: true, .. }));

    let q = parse_xnf("OUT OF deps_ARC TAKE xdept, xemp").unwrap();
    assert!(matches!(&q.defs[0], XnfDef::ViewRef { name } if name == "deps_ARC"));
}

#[test]
fn parses_nary_relationship() {
    let q = parse_xnf(
        "OUT OF a AS TA, b AS TB, c AS TC,
                r AS (RELATE a VIA links, b, c WHERE a.x = b.x AND a.y = c.y)
         TAKE *",
    )
    .unwrap();
    let XnfDef::Relationship(r) = &q.defs[3] else {
        panic!()
    };
    assert_eq!(r.children, vec!["b", "c"]);
}

#[test]
fn display_roundtrips_through_parser() {
    for sql in [
        "SELECT DISTINCT a, b FROM t WHERE (a = 1 AND b > 2) OR c IS NULL",
        "SELECT e.eno FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno)",
        "SELECT dno, COUNT(*) FROM EMP GROUP BY dno HAVING COUNT(*) > 1 ORDER BY dno",
        "SELECT a FROM t UNION ALL SELECT a FROM u",
    ] {
        let ast = parse_select(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_select(&printed).unwrap();
        assert_eq!(
            ast, reparsed,
            "roundtrip failed for: {sql}\nprinted: {printed}"
        );
    }
}

#[test]
fn xnf_display_roundtrips() {
    let q = parse_xnf(
        "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'), xemp AS EMP,
                employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
         TAKE xdept, employment, xemp(eno)",
    )
    .unwrap();
    let printed = q.to_string();
    let reparsed = parse_xnf(&printed).unwrap();
    assert_eq!(q, reparsed, "printed: {printed}");
}

#[test]
fn error_messages_carry_positions() {
    let err = parse_select("SELECT FROM t").unwrap_err();
    assert!(err.line >= 1 && err.col > 1);
    let err = parse_statement("CREATE SOMETHING x").unwrap_err();
    assert!(err.message.contains("TABLE, INDEX or VIEW"));
}

#[test]
fn rejects_scalar_subquery() {
    let err = parse_select("SELECT * FROM t WHERE a = (SELECT b FROM u)").unwrap_err();
    assert!(err.message.contains("scalar subqueries"));
}

#[test]
fn parses_between_like_arithmetic() {
    let e = parse_expr("a + 2 * b BETWEEN 1 AND 10").unwrap();
    assert!(matches!(e, Expr::Between { .. }));
    let e = parse_expr("name LIKE 'A%'").unwrap();
    assert!(matches!(e, Expr::Like { .. }));
    // Precedence: 1 + 2 * 3 parses as 1 + (2 * 3).
    let e = parse_expr("1 + 2 * 3").unwrap();
    match e {
        Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } => {
            assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
        }
        other => panic!("bad precedence: {other:?}"),
    }
}

#[test]
fn parses_materialized_view_ddl() {
    let stmt = parse_statement("CREATE MATERIALIZED VIEW mv AS SELECT a FROM t").unwrap();
    let Statement::CreateView {
        name,
        body: ViewBody::Select(_),
        materialized: true,
    } = stmt
    else {
        panic!("expected materialized SQL view, got {stmt:?}");
    };
    assert_eq!(name, "mv");

    // XNF bodies materialize too.
    let stmt =
        parse_statement("CREATE MATERIALIZED VIEW co AS OUT OF x AS (SELECT * FROM t) TAKE *")
            .unwrap();
    assert!(matches!(
        stmt,
        Statement::CreateView {
            body: ViewBody::Xnf(_),
            materialized: true,
            ..
        }
    ));

    let stmt = parse_statement("REFRESH MATERIALIZED VIEW mv").unwrap();
    assert!(matches!(stmt, Statement::RefreshView { name } if name == "mv"));

    let stmt = parse_statement("DROP MATERIALIZED VIEW mv").unwrap();
    assert!(matches!(stmt, Statement::DropView { name } if name == "mv"));

    // Errors keep their shape.
    assert!(parse_statement("CREATE MATERIALIZED TABLE t (a INT)").is_err());
    assert!(parse_statement("REFRESH VIEW mv").is_err());
    assert!(parse_statement("DROP MATERIALIZED TABLE t").is_err());
}
