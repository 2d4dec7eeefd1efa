//! XNF semantic rewrite (Sect. 4.2, Fig. 5): replace the XNF operator by NF
//! boxes.
//!
//! For every non-root node component `N`, reachability is rewritten into a
//! semijoin of `N`'s own derivation against the *final* derivation of its
//! parent component, through the relationship predicate — exactly Fig. 5b:
//! the parent's derived table (e.g. `dept_arc`) is fed both to the output
//! and to the computation of the child component. A node reachable through
//! several relationships is derived per path and combined with a
//! duplicate-removing UNION (object sharing: a tuple exists once however
//! many paths reach it).
//!
//! Because every path/connection box *references the shared component
//! boxes* instead of re-deriving them, the multi-table XNF query graph gets
//! common-subexpression treatment for free (Fig. 6 / Table 1).
//!
//! Connection (relationship) streams are Select boxes joining the final
//! partner derivations and projecting the partners' ROWID pseudo-columns;
//! the CO cache uses those ids to swizzle pointers (Sect. 5).
//!
//! A recursive CO (Sect. 2: a cycle in the schema graph) iterates to a
//! fixed point, which no finite stack of semijoins expresses. Its nodes
//! stay their own derivations (restrictions attached), every relationship,
//! taken or not, gets its connection box over those candidates, and every
//! component becomes an output. The graph carries a [`Reach`] naming the
//! root streams and the ones TAKE leaves out; the executor applies it once
//! to the delivered streams.

use std::collections::HashMap;

use xnf_qgm::{
    schema_graph_has_cycle, BoxId, BoxKind, HeadColumn, OutputDesc, OutputKind, Qgm, QunId,
    QunKind, Reach, ScalarExpr, SelectBox, UnionBox, XnfBox, XnfComponent, XnfComponentKind,
    ROWID_COL,
};

use crate::error::{Result, RewriteError};

/// Apply the XNF semantic rewrite in place. No-op for graphs without an XNF
/// operator. A recursive CO delivers every component as candidates and
/// sets [`Qgm::reach`] (see the module docs).
pub fn xnf_semantic_rewrite(qgm: &mut Qgm) -> Result<()> {
    let Some((xnf_id, xnf)) = find_xnf(qgm) else {
        return Ok(());
    };
    let cyclic = schema_graph_has_cycle(&xnf);
    let components = xnf.components;

    // Index components and collect relationships per child.
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for (i, c) in components.iter().enumerate() {
        by_name.insert(c.name.to_ascii_lowercase(), i);
    }
    let rels: Vec<(usize, &XnfComponent)> = components
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.kind, XnfComponentKind::Relationship { .. }))
        .collect();

    // Topological order over nodes (parents before children). A recursive
    // CO has none: its nodes stay their own bodies.
    let order = if cyclic {
        let nodes = components.iter().enumerate();
        let nodes = nodes.filter(|(_, c)| matches!(c.kind, XnfComponentKind::Node { .. }));
        nodes.map(|(i, _)| i).collect()
    } else {
        topo_nodes(&components, &by_name)?
    };

    // Derive final boxes per node.
    let mut final_box: HashMap<String, BoxId> = HashMap::new();
    for &ni in &order {
        let node = &components[ni];
        let (root, _) = match node.kind {
            XnfComponentKind::Node { root, reachable } => (root, reachable),
            _ => unreachable!("order contains nodes only"),
        };
        if root || cyclic {
            final_box.insert(node.name.to_ascii_lowercase(), node.body);
            continue;
        }
        // Incoming relationships.
        let incoming: Vec<&XnfComponent> = rels
            .iter()
            .map(|(_, r)| *r)
            .filter(|r| match &r.kind {
                XnfComponentKind::Relationship { children, .. } => {
                    children.iter().any(|c| c.eq_ignore_ascii_case(&node.name))
                }
                _ => false,
            })
            .collect();
        debug_assert!(!incoming.is_empty(), "builder guarantees reachability");

        let node_name = components[ni].name.clone();
        let node_body = components[ni].body;
        let mut paths = Vec::with_capacity(incoming.len());
        let incoming: Vec<XnfComponent> = incoming.into_iter().cloned().collect();
        for rel in &incoming {
            let p = build_path_box(
                qgm,
                &components,
                &by_name,
                &final_box,
                &node_name,
                node_body,
                rel,
            )?;
            paths.push(p);
        }
        let fin = if paths.len() == 1 {
            paths[0]
        } else {
            // Object sharing: distinct union over the per-path derivations.
            let ub = qgm.add_box(
                BoxKind::Union(UnionBox { all: false }),
                format!("{node_name}_paths"),
            );
            let mut first = None;
            for (i, p) in paths.iter().enumerate() {
                let q = qgm.add_qun(ub, QunKind::Foreach, *p, format!("p{i}"));
                if i == 0 {
                    first = Some(q);
                }
            }
            let fq = first.unwrap();
            let names: Vec<String> = qgm
                .boxed(node_body)
                .head
                .iter()
                .map(|h| h.name.clone())
                .collect();
            for (i, name) in names.into_iter().enumerate() {
                qgm.boxes[ub].head.push(HeadColumn {
                    name,
                    expr: ScalarExpr::col(fq, i),
                });
            }
            ub
        };
        final_box.insert(node_name.to_ascii_lowercase(), fin);
    }

    // Connection boxes for taken relationships; a recursive CO's
    // reachability follows the untaken ones too.
    let mut conn_box: HashMap<String, BoxId> = HashMap::new();
    for (_, rel) in &rels {
        if !rel.taken && !cyclic {
            continue;
        }
        let cb = build_connection_box(qgm, &final_box, rel)?;
        conn_box.insert(rel.name.to_ascii_lowercase(), cb);
    }

    // Wire the Top box: node streams (definition order), then connections.
    let top = qgm
        .top
        .ok_or_else(|| RewriteError::Corrupt("XNF graph without Top".into()))?;
    qgm.boxes[top].quns.clear();
    qgm.outputs.clear();
    for c in &components {
        if !c.taken && !cyclic {
            continue;
        }
        match &c.kind {
            XnfComponentKind::Node { .. } => {
                let fin = final_box[&c.name.to_ascii_lowercase()];
                let over = match &c.projection {
                    None => fin,
                    Some(ords) => {
                        // The paper's 'output' boxes: a projection Select box
                        // over the component derivation. Order-preserving, so
                        // stream position still equals the component rowid.
                        let ob = qgm.add_box(
                            BoxKind::Select(SelectBox::default()),
                            format!("{}_out", c.name),
                        );
                        let q = qgm.add_qun(ob, QunKind::Foreach, fin, c.name.as_str());
                        let cols: Vec<(String, usize)> = ords
                            .iter()
                            .map(|&o| (qgm.boxed(fin).head[o].name.clone(), o))
                            .collect();
                        for (name, o) in cols {
                            qgm.boxes[ob].head.push(HeadColumn {
                                name,
                                expr: ScalarExpr::col(q, o),
                            });
                        }
                        ob
                    }
                };
                let tq = qgm.add_qun(top, QunKind::Foreach, over, c.name.as_str());
                qgm.outputs.push(OutputDesc {
                    qun: tq,
                    name: c.name.clone(),
                    kind: OutputKind::Node,
                });
            }
            XnfComponentKind::Relationship {
                parent,
                role,
                children,
            } => {
                let cb = conn_box[&c.name.to_ascii_lowercase()];
                let tq = qgm.add_qun(top, QunKind::Foreach, cb, c.name.as_str());
                qgm.outputs.push(OutputDesc {
                    qun: tq,
                    name: c.name.clone(),
                    kind: OutputKind::Connection {
                        relationship: c.name.clone(),
                        parent: parent.clone(),
                        children: children.clone(),
                        role: role.clone(),
                    },
                });
            }
        }
    }

    if cyclic {
        let roots = components
            .iter()
            .filter(|c| matches!(c.kind, XnfComponentKind::Node { root: true, .. }));
        let hidden = components.iter().filter(|c| !c.taken);
        qgm.reach = Some(Reach {
            roots: roots.map(|c| c.name.clone()).collect(),
            hidden: hidden.map(|c| c.name.clone()).collect(),
        });
    }

    // The XNF operator box is now unreferenced; physically remove it.
    let _ = xnf_id;
    qgm.compact();
    qgm.check().map_err(RewriteError::Corrupt)?;
    Ok(())
}

/// Locate and detach the XNF box payload.
fn find_xnf(qgm: &Qgm) -> Option<(BoxId, XnfBox)> {
    qgm.boxes.iter().find_map(|b| match &b.kind {
        BoxKind::Xnf(x) => Some((b.id, x.clone())),
        _ => None,
    })
}

/// Topological order of node components (Kahn's algorithm over the schema
/// graph).
fn topo_nodes(components: &[XnfComponent], by_name: &HashMap<String, usize>) -> Result<Vec<usize>> {
    let node_ids: Vec<usize> = components
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.kind, XnfComponentKind::Node { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut indegree: HashMap<usize, usize> = node_ids.iter().map(|&i| (i, 0)).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for c in components {
        if let XnfComponentKind::Relationship {
            parent, children, ..
        } = &c.kind
        {
            let p = by_name[&parent.to_ascii_lowercase()];
            for ch in children {
                let c = by_name[&ch.to_ascii_lowercase()];
                edges.push((p, c));
                *indegree.get_mut(&c).unwrap() += 1;
            }
        }
    }
    let mut queue: Vec<usize> = node_ids
        .iter()
        .copied()
        .filter(|i| indegree[i] == 0)
        .collect();
    let mut order = Vec::with_capacity(node_ids.len());
    while let Some(n) = queue.pop() {
        order.push(n);
        for &(p, c) in &edges {
            if p == n {
                let d = indegree.get_mut(&c).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
    }
    if order.len() != node_ids.len() {
        return Err(RewriteError::Corrupt("cyclic schema graph".into()));
    }
    Ok(order)
}

/// The quantifiers of a relationship body box, split positionally as the
/// XNF builder laid them out: parent, children..., using tables.
struct RelQuns {
    parent: QunId,
    children: Vec<QunId>,
    using: Vec<QunId>,
}

fn rel_quns(qgm: &Qgm, rel: &XnfComponent) -> Result<RelQuns> {
    let XnfComponentKind::Relationship { children, .. } = &rel.kind else {
        return Err(RewriteError::Corrupt("rel_quns on a node".into()));
    };
    let quns = &qgm.boxed(rel.body).quns;
    if quns.len() < 1 + children.len() {
        return Err(RewriteError::Corrupt(format!(
            "relationship '{}' body has too few quantifiers",
            rel.name
        )));
    }
    for &q in quns {
        if qgm.qun(q).kind != QunKind::Foreach {
            return Err(RewriteError::Corrupt(format!(
                "relationship '{}' predicates may not contain subqueries",
                rel.name
            )));
        }
    }
    Ok(RelQuns {
        parent: quns[0],
        children: quns[1..1 + children.len()].to_vec(),
        using: quns[1 + children.len()..].to_vec(),
    })
}

/// Build the per-path derivation box for `node` reachable via `rel`
/// (Fig. 5b): F over the node's own derivation, Semi over the parent's
/// final derivation (and over sibling partners / USING tables), with the
/// relationship predicate re-homed onto the new quantifiers.
fn build_path_box(
    qgm: &mut Qgm,
    components: &[XnfComponent],
    by_name: &HashMap<String, usize>,
    final_box: &HashMap<String, BoxId>,
    node_name: &str,
    node_body: BoxId,
    rel: &XnfComponent,
) -> Result<BoxId> {
    let XnfComponentKind::Relationship {
        parent, children, ..
    } = &rel.kind
    else {
        unreachable!()
    };
    let rq = rel_quns(qgm, rel)?;

    let p = qgm.add_box(
        BoxKind::Select(SelectBox::default()),
        format!("{node_name}_via_{}", rel.name),
    );

    // Map old (relationship-body) quantifiers to new ones in the path box.
    let mut qun_map: HashMap<QunId, QunId> = HashMap::new();

    // The node itself: the F leg. If the node appears several times among
    // the children (self-ish n-ary), the first occurrence is the F leg and
    // the rest are Semi legs.
    let f_qun = qgm.add_qun(p, QunKind::Foreach, node_body, node_name);

    // Parent: Semi over its final derivation (reachability).
    let parent_fin = *final_box
        .get(&parent.to_ascii_lowercase())
        .ok_or_else(|| RewriteError::Corrupt(format!("parent '{parent}' not derived yet")))?;
    let pq = qgm.add_qun(p, QunKind::Semi, parent_fin, parent.as_str());
    qun_map.insert(rq.parent, pq);

    let mut node_mapped = false;
    for (child_name, &old_q) in children.iter().zip(&rq.children) {
        if child_name.eq_ignore_ascii_case(node_name) && !node_mapped {
            qun_map.insert(old_q, f_qun);
            node_mapped = true;
        } else {
            // Sibling partner of an n-ary relationship: existential leg over
            // its own (pre-reachability) derivation.
            let sibling_idx = by_name[&child_name.to_ascii_lowercase()];
            let sq = qgm.add_qun(
                p,
                QunKind::Semi,
                components[sibling_idx].body,
                child_name.as_str(),
            );
            qun_map.insert(old_q, sq);
        }
    }
    for &old_q in &rq.using {
        let over = qgm.qun(old_q).ranges_over;
        let name = qgm.qun(old_q).name.clone();
        let uq = qgm.add_qun(p, QunKind::Semi, over, name);
        qun_map.insert(old_q, uq);
    }

    // Re-home the relationship predicates.
    let preds: Vec<ScalarExpr> = qgm.boxed(rel.body).preds.clone();
    for pred in preds {
        let mapped = pred.map_cols(&mut |q, c| {
            let nq = qun_map.get(&q).copied().unwrap_or(q);
            ScalarExpr::Col { qun: nq, col: c }
        });
        qgm.boxes[p].preds.push(mapped);
    }

    // Head: the node's own columns.
    let names: Vec<String> = qgm
        .boxed(node_body)
        .head
        .iter()
        .map(|h| h.name.clone())
        .collect();
    for (i, name) in names.into_iter().enumerate() {
        qgm.boxes[p].head.push(HeadColumn {
            name,
            expr: ScalarExpr::col(f_qun, i),
        });
    }
    Ok(p)
}

/// Build the connection box of a relationship: an F-join of the partners'
/// final derivations (plus USING tables) projecting partner ROWIDs.
fn build_connection_box(
    qgm: &mut Qgm,
    final_box: &HashMap<String, BoxId>,
    rel: &XnfComponent,
) -> Result<BoxId> {
    let XnfComponentKind::Relationship {
        parent, children, ..
    } = &rel.kind
    else {
        unreachable!()
    };
    let rq = rel_quns(qgm, rel)?;
    let cb = qgm.add_box(BoxKind::Select(SelectBox::default()), rel.name.clone());
    let mut qun_map: HashMap<QunId, QunId> = HashMap::new();

    let parent_fin = *final_box
        .get(&parent.to_ascii_lowercase())
        .ok_or_else(|| RewriteError::Corrupt(format!("parent '{parent}' not derived")))?;
    let pq = qgm.add_qun(cb, QunKind::Foreach, parent_fin, parent.as_str());
    qun_map.insert(rq.parent, pq);

    let mut child_quns = Vec::new();
    for (child_name, &old_q) in children.iter().zip(&rq.children) {
        let child_fin = *final_box
            .get(&child_name.to_ascii_lowercase())
            .ok_or_else(|| RewriteError::Corrupt(format!("child '{child_name}' not derived")))?;
        let cq = qgm.add_qun(cb, QunKind::Foreach, child_fin, child_name.as_str());
        qun_map.insert(old_q, cq);
        child_quns.push(cq);
    }
    for &old_q in &rq.using {
        let over = qgm.qun(old_q).ranges_over;
        let name = qgm.qun(old_q).name.clone();
        let uq = qgm.add_qun(cb, QunKind::Foreach, over, name);
        qun_map.insert(old_q, uq);
    }

    let preds: Vec<ScalarExpr> = qgm.boxed(rel.body).preds.clone();
    for pred in preds {
        let mapped = pred.map_cols(&mut |q, c| {
            let nq = qun_map.get(&q).copied().unwrap_or(q);
            ScalarExpr::Col { qun: nq, col: c }
        });
        qgm.boxes[cb].preds.push(mapped);
    }

    qgm.boxes[cb].head.push(HeadColumn {
        name: format!("{parent}_id"),
        expr: ScalarExpr::Col {
            qun: pq,
            col: ROWID_COL,
        },
    });
    for (child_name, cq) in children.iter().zip(&child_quns) {
        qgm.boxes[cb].head.push(HeadColumn {
            name: format!("{child_name}_id"),
            expr: ScalarExpr::Col {
                qun: *cq,
                col: ROWID_COL,
            },
        });
    }
    Ok(cb)
}
