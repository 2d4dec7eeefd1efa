//! XNF semantic analysis: XNF AST → XNF QGM (Sect. 4.1 of the paper).
//!
//! The four phases the paper describes map onto this module directly:
//!
//! 0. **QGM initialization** — install the XNF operator box and the Top box;
//! 1. **Derivation of XNF component tables** — each `OUT OF` definition
//!    builds a Select box (reusing the SQL semantic routines) inside the XNF
//!    box body; relationships build Select boxes over their partner
//!    component boxes (plus USING tables);
//! 2. **Component restrictions and XNF predicates** — restriction conjuncts
//!    attach to their component's box; reachability is marked ('R') on every
//!    non-root node by default;
//! 3. **Projection (TAKE)** — components are marked taken, with optional
//!    column projections.
//!
//! The result still contains the XNF operator; XNF semantic *rewrite*
//! (crate `xnf-rewrite`) lowers it to plain NF QGM.

use std::collections::{HashMap, HashSet};

use xnf_sql::{Expr, XnfDef, XnfQuery, XnfTake};
use xnf_storage::Catalog;

use crate::builder::{Builder, Scope};
use crate::error::{QgmError, Result};
use crate::expr::ScalarExpr;
use crate::graph::{BoxId, BoxKind, Qgm, QunKind, XnfBox, XnfComponent, XnfComponentKind};
use crate::views::inline_xnf_views;

/// Build the XNF QGM graph for an XNF query, inlining the XNF views it
/// references.
pub fn build_xnf_query(catalog: &Catalog, q: &XnfQuery) -> Result<Qgm> {
    let q = inline_xnf_views(catalog, q)?;
    let mut b = Builder::new(catalog);

    // Phase 0: the XNF operator box and the Top box.
    let xnf_box = b.qgm.add_box(
        BoxKind::Xnf(XnfBox {
            components: Vec::new(),
        }),
        "XNF",
    );
    let top = b.qgm.add_box(BoxKind::Top, "top");
    b.qgm.add_qun(top, QunKind::Foreach, xnf_box, "co");
    b.qgm.top = Some(top);

    // Phase 1: component derivations.
    let mut components: Vec<XnfComponent> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    collect_defs(&mut b, &q.defs, &mut components, &mut by_name)?;

    // Phase 2a: restriction predicates.
    if let Some(r) = &q.restriction {
        for conjunct in r.conjuncts() {
            attach_restriction(&mut b, &components, &by_name, conjunct)?;
        }
    }

    // Phase 2b: reachability defaults. Roots: explicitly marked components,
    // else nodes with no incoming relationship edge.
    let child_names: HashSet<String> = components
        .iter()
        .filter_map(|c| match &c.kind {
            XnfComponentKind::Relationship { children, .. } => Some(children.clone()),
            _ => None,
        })
        .flatten()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    let any_explicit_root = components
        .iter()
        .any(|c| matches!(c.kind, XnfComponentKind::Node { root: true, .. }));
    let mut have_root = false;
    for c in components.iter_mut() {
        if let XnfComponentKind::Node { root, reachable } = &mut c.kind {
            if !any_explicit_root {
                *root = !child_names.contains(&c.name.to_ascii_lowercase());
            }
            *reachable = !*root && child_names.contains(&c.name.to_ascii_lowercase());
            if *root {
                have_root = true;
            }
            if !*root && !child_names.contains(&c.name.to_ascii_lowercase()) {
                return Err(QgmError::Xnf(format!(
                    "component '{}' is neither a root nor the child of any relationship; it can never be reachable",
                    c.name
                )));
            }
        }
    }
    if !have_root {
        return Err(QgmError::Xnf(
            "composite object has no root component".to_string(),
        ));
    }

    // Phase 3: TAKE.
    match &q.take {
        XnfTake::All => {
            for c in components.iter_mut() {
                c.taken = true;
                c.projection = None;
            }
        }
        XnfTake::Items(items) => {
            for item in items {
                let idx = *by_name
                    .get(&item.name.to_ascii_lowercase())
                    .ok_or_else(|| {
                        QgmError::Xnf(format!("TAKE of unknown component '{}'", item.name))
                    })?;
                components[idx].taken = true;
                if let Some(cols) = &item.columns {
                    if matches!(components[idx].kind, XnfComponentKind::Relationship { .. }) {
                        return Err(QgmError::Xnf(format!(
                            "column projection applies to nodes, not relationship '{}'",
                            item.name
                        )));
                    }
                    let body = components[idx].body;
                    let mut ords = Vec::with_capacity(cols.len());
                    for cname in cols {
                        let ord = b.qgm.boxed(body).head_index(cname).ok_or_else(|| {
                            QgmError::Xnf(format!(
                                "component '{}' has no column '{}'",
                                item.name, cname
                            ))
                        })?;
                        ords.push(ord);
                    }
                    components[idx].projection = Some(ords);
                }
            }
            // A taken relationship needs its partners taken: connection
            // tuples reference partner tuple ids (Sect. 5.0).
            for c in components.clone() {
                if !c.taken {
                    continue;
                }
                if let XnfComponentKind::Relationship {
                    parent, children, ..
                } = &c.kind
                {
                    for p in std::iter::once(parent).chain(children.iter()) {
                        let idx = by_name[&p.to_ascii_lowercase()];
                        if !components[idx].taken {
                            return Err(QgmError::Xnf(format!(
                                "relationship '{}' is taken but its partner '{}' is not",
                                c.name, p
                            )));
                        }
                    }
                }
            }
        }
    }

    // Install the components into the XNF box and add quantifiers over each
    // component body (the XNF operator "incorporates n >= 1 incoming
    // tables", Sect. 4.1).
    let bodies: Vec<(String, BoxId)> = components
        .iter()
        .map(|c| (c.name.clone(), c.body))
        .collect();
    for (name, body) in bodies {
        b.qgm.add_qun(xnf_box, QunKind::Foreach, body, name);
    }
    if let BoxKind::Xnf(x) = &mut b.qgm.boxes[xnf_box].kind {
        x.components = components;
    }

    Ok(b.finish())
}

/// Collect the OUT OF definitions of an inlined query.
fn collect_defs(
    b: &mut Builder<'_>,
    defs: &[XnfDef],
    components: &mut Vec<XnfComponent>,
    by_name: &mut HashMap<String, usize>,
) -> Result<()> {
    for def in defs {
        match def {
            XnfDef::Table { name, select, root } => {
                let body = b.select_to_box(select, &Scope::root())?;
                b.qgm.boxes[body].label = name.clone();
                add_component(
                    components,
                    by_name,
                    XnfComponent {
                        name: name.clone(),
                        kind: XnfComponentKind::Node {
                            root: *root,
                            reachable: false,
                        },
                        body,
                        taken: false,
                        projection: None,
                    },
                )?;
            }
            XnfDef::Relationship(rel) => {
                // Partner component boxes must already exist.
                let parent_idx =
                    *by_name
                        .get(&rel.parent.to_ascii_lowercase())
                        .ok_or_else(|| {
                            QgmError::Xnf(format!(
                                "relationship '{}' references unknown parent '{}'",
                                rel.name, rel.parent
                            ))
                        })?;
                let mut child_idxs = Vec::new();
                for c in &rel.children {
                    let idx = *by_name.get(&c.to_ascii_lowercase()).ok_or_else(|| {
                        QgmError::Xnf(format!(
                            "relationship '{}' references unknown child '{}'",
                            rel.name, c
                        ))
                    })?;
                    if matches!(components[idx].kind, XnfComponentKind::Relationship { .. }) {
                        return Err(QgmError::Xnf(format!(
                            "relationship '{}' cannot have relationship '{}' as partner",
                            rel.name, c
                        )));
                    }
                    child_idxs.push(idx);
                }
                if matches!(
                    components[parent_idx].kind,
                    XnfComponentKind::Relationship { .. }
                ) {
                    return Err(QgmError::Xnf(format!(
                        "relationship '{}' cannot have relationship '{}' as parent",
                        rel.name, rel.parent
                    )));
                }

                // Build the relationship's Select box: quantifiers over the
                // partner component boxes and the USING base tables.
                let rbox = b
                    .qgm
                    .add_box(BoxKind::Select(Default::default()), rel.name.clone());
                let mut scope = Scope::root();
                let pq = b.qgm.add_qun(
                    rbox,
                    QunKind::Foreach,
                    components[parent_idx].body,
                    rel.parent.as_str(),
                );
                scope.add_binding(&rel.parent, pq)?;
                let mut child_quns = Vec::new();
                for (c, &idx) in rel.children.iter().zip(&child_idxs) {
                    // A self-relationship (child == parent) binds the child
                    // side under the role name.
                    let binding = if c.eq_ignore_ascii_case(&rel.parent) {
                        rel.role.clone()
                    } else {
                        c.clone()
                    };
                    let cq = b
                        .qgm
                        .add_qun(rbox, QunKind::Foreach, components[idx].body, &binding);
                    scope.add_binding(&binding, cq)?;
                    child_quns.push(cq);
                }
                for (t, alias) in &rel.using {
                    let bt = b.base_table_box(t)?;
                    let binding = alias.clone().unwrap_or_else(|| t.clone());
                    let uq = b.qgm.add_qun(rbox, QunKind::Foreach, bt, &binding);
                    scope.add_binding(&binding, uq)?;
                }
                for conjunct in rel.predicate.conjuncts() {
                    b.add_predicate(rbox, conjunct, &scope)?;
                }
                // Connection head: rowids of the partner tuples
                // ("connections … show the foreign keys of the partner
                // tuples they reference", Sect. 2 — we use system ids).
                use crate::graph::ROWID_COL;
                b.qgm.boxes[rbox].head.push(crate::graph::HeadColumn {
                    name: format!("{}_id", rel.parent),
                    expr: ScalarExpr::col(pq, ROWID_COL),
                });
                for (c, cq) in rel.children.iter().zip(&child_quns) {
                    b.qgm.boxes[rbox].head.push(crate::graph::HeadColumn {
                        name: format!("{c}_id"),
                        expr: ScalarExpr::col(*cq, ROWID_COL),
                    });
                }

                add_component(
                    components,
                    by_name,
                    XnfComponent {
                        name: rel.name.clone(),
                        kind: XnfComponentKind::Relationship {
                            parent: rel.parent.clone(),
                            role: rel.role.clone(),
                            children: rel.children.clone(),
                        },
                        body: rbox,
                        taken: false,
                        projection: None,
                    },
                )?;
            }
            XnfDef::ViewRef { .. } => unreachable!("build_xnf_query inlines view references"),
        }
    }
    Ok(())
}

fn add_component(
    components: &mut Vec<XnfComponent>,
    by_name: &mut HashMap<String, usize>,
    c: XnfComponent,
) -> Result<()> {
    let key = c.name.to_ascii_lowercase();
    if by_name.contains_key(&key) {
        return Err(QgmError::Xnf(format!(
            "duplicate component name '{}'",
            c.name
        )));
    }
    by_name.insert(key, components.len());
    components.push(c);
    Ok(())
}

/// Attach one restriction conjunct to the single component it references.
fn attach_restriction(
    b: &mut Builder<'_>,
    components: &[XnfComponent],
    by_name: &HashMap<String, usize>,
    conjunct: &Expr,
) -> Result<()> {
    let mut referenced: Vec<String> = Vec::new();
    collect_qualifiers(conjunct, &mut referenced);
    referenced.sort();
    referenced.dedup();
    if referenced.len() != 1 {
        return Err(QgmError::Xnf(format!(
            "restriction '{conjunct}' must reference exactly one component (found {})",
            referenced.len()
        )));
    }
    let idx = *by_name
        .get(&referenced[0].to_ascii_lowercase())
        .ok_or_else(|| {
            QgmError::Xnf(format!(
                "restriction on unknown component '{}'",
                referenced[0]
            ))
        })?;
    let body = components[idx].body;

    // Resolve the conjunct against the component's head columns: a reference
    // `xemp.sal` becomes the head expression for column `sal` of the body
    // box, so the predicate can be pushed straight into that box.
    let resolved = resolve_against_head(b, body, conjunct, &referenced[0])?;
    b.qgm.boxes[body].preds.push(resolved);
    Ok(())
}

fn resolve_against_head(
    b: &Builder<'_>,
    body: BoxId,
    e: &Expr,
    component: &str,
) -> Result<ScalarExpr> {
    use xnf_sql::Expr as E;
    Ok(match e {
        E::Literal(l) => ScalarExpr::Literal(crate::builder::literal_value(l)),
        E::Param(i) => ScalarExpr::Param(*i),
        E::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                if !q.eq_ignore_ascii_case(component) {
                    return Err(QgmError::Xnf(format!(
                        "restriction references multiple components ('{q}' and '{component}')"
                    )));
                }
            }
            let bx = b.qgm.boxed(body);
            let ord = bx.head_index(name).ok_or_else(|| {
                QgmError::Xnf(format!("component '{component}' has no column '{name}'"))
            })?;
            bx.head[ord].expr.clone()
        }
        E::Unary { op, expr } => ScalarExpr::Unary {
            op: *op,
            expr: Box::new(resolve_against_head(b, body, expr, component)?),
        },
        E::Binary { left, op, right } => ScalarExpr::Binary {
            left: Box::new(resolve_against_head(b, body, left, component)?),
            op: *op,
            right: Box::new(resolve_against_head(b, body, right, component)?),
        },
        E::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(resolve_against_head(b, body, expr, component)?),
            negated: *negated,
        },
        E::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: Box::new(resolve_against_head(b, body, expr, component)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        E::InList {
            expr,
            list,
            negated,
        } => ScalarExpr::InList {
            expr: Box::new(resolve_against_head(b, body, expr, component)?),
            list: list
                .iter()
                .map(|x| resolve_against_head(b, body, x, component))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        other => {
            return Err(QgmError::Xnf(format!(
                "unsupported restriction expression '{other}'"
            )))
        }
    })
}

fn collect_qualifiers(e: &Expr, out: &mut Vec<String>) {
    use xnf_sql::Expr as E;
    match e {
        E::Column {
            qualifier: Some(q), ..
        } => out.push(q.clone()),
        E::Column {
            qualifier: None, ..
        }
        | E::Literal(_)
        | E::Param(_) => {}
        E::Unary { expr, .. } | E::IsNull { expr, .. } | E::Like { expr, .. } => {
            collect_qualifiers(expr, out)
        }
        E::Binary { left, right, .. } => {
            collect_qualifiers(left, out);
            collect_qualifiers(right, out);
        }
        E::Between {
            expr, low, high, ..
        } => {
            collect_qualifiers(expr, out);
            collect_qualifiers(low, out);
            collect_qualifiers(high, out);
        }
        E::InList { expr, list, .. } => {
            collect_qualifiers(expr, out);
            for x in list {
                collect_qualifiers(x, out);
            }
        }
        E::InSubquery { expr, .. } => collect_qualifiers(expr, out),
        E::Exists { .. } => {}
        E::Agg { arg, .. } => {
            if let Some(a) = arg {
                collect_qualifiers(a, out);
            }
        }
        E::Func { args, .. } => {
            for a in args {
                collect_qualifiers(a, out);
            }
        }
    }
}

/// Detect cycles in an XNF box's schema graph (parent → child edges).
/// Recursive COs are legal XNF (Sect. 2); the XNF lowering leaves their
/// reachability to the executor (see [`crate::Reach`]).
pub fn schema_graph_has_cycle(xnf: &XnfBox) -> bool {
    // Build adjacency among node components.
    let mut idx: HashMap<String, usize> = HashMap::new();
    let mut nodes = Vec::new();
    for c in &xnf.components {
        if matches!(c.kind, XnfComponentKind::Node { .. }) {
            idx.insert(c.name.to_ascii_lowercase(), nodes.len());
            nodes.push(c.name.clone());
        }
    }
    let mut adj = vec![Vec::new(); nodes.len()];
    for c in &xnf.components {
        if let XnfComponentKind::Relationship {
            parent, children, ..
        } = &c.kind
        {
            if let Some(&p) = idx.get(&parent.to_ascii_lowercase()) {
                for ch in children {
                    if let Some(&cc) = idx.get(&ch.to_ascii_lowercase()) {
                        adj[p].push(cc);
                    }
                }
            }
        }
    }
    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn dfs(v: usize, adj: &[Vec<usize>], marks: &mut [Mark]) -> bool {
        marks[v] = Mark::Grey;
        for &w in &adj[v] {
            match marks[w] {
                Mark::Grey => return true,
                Mark::White => {
                    if dfs(w, adj, marks) {
                        return true;
                    }
                }
                Mark::Black => {}
            }
        }
        marks[v] = Mark::Black;
        false
    }
    let mut marks = vec![Mark::White; nodes.len()];
    for v in 0..nodes.len() {
        if marks[v] == Mark::White && dfs(v, &adj, &mut marks) {
            return true;
        }
    }
    false
}
