//! Recursive composite objects (Sect. 2): a cycle in the schema graph
//! "defines a derivation rule that iterates along the cycle's relationships
//! to collect the tuples until a fixed point is reached".
//!
//! The standard XNF rewrite handles DAGs only; cyclic queries take this
//! semi-naive fixpoint path: every node's *candidate pool* is its body
//! query's result; roots are fully reached; a worklist propagates
//! reachability across relationships (hash-join indexed on the equality
//! conjuncts), recording connections as it goes. The output is the same
//! heterogeneous stream set a non-recursive XNF query produces, so the CO
//! cache is oblivious to how the CO was derived.

use std::collections::{HashMap, HashSet, VecDeque};

use xnf_exec::{eval, ExecStats, OuterCtx, QueryResult, Row, StreamResult};
use xnf_plan::PhysExpr;
use xnf_qgm::OutputKind;
use xnf_sql::{BinOp, Expr, Statement, XnfDef, XnfQuery, XnfRelationship, XnfTake};
use xnf_storage::Value;

use crate::db::Database;
use crate::error::{Result, XnfError};

/// Evaluate a (typically recursive) XNF query by fixpoint. `vis` pins every
/// read of the evaluation — node body queries and USING-table scans alike —
/// to one MVCC snapshot (the caller's open transaction, or a fresh
/// latest-committed snapshot), so the fixpoint never mixes states.
pub fn evaluate_recursive(
    db: &Database,
    q: &XnfQuery,
    vis: xnf_exec::Visibility,
) -> Result<QueryResult> {
    let snap = vis.unwrap_or_else(|| db.catalog().latest_snapshot());
    let mut defs = Vec::new();
    crate::writeback::flatten_defs(db, &q.defs, &mut defs, 0)?;

    // Gather nodes and relationships.
    struct Node {
        name: String,
        root: bool,
        columns: Vec<String>,
        rows: Vec<Row>,
        reached: Vec<bool>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut node_idx: HashMap<String, usize> = HashMap::new();
    let mut rels: Vec<&XnfRelationship> = Vec::new();
    for def in &defs {
        match def {
            XnfDef::Table { name, select, root } => {
                let result = db.run_query(
                    &Statement::Select((**select).clone()),
                    xnf_exec::Params::default(),
                    Some(snap.clone()),
                )?;
                let stream = result.try_table()?;
                node_idx.insert(name.to_ascii_lowercase(), nodes.len());
                nodes.push(Node {
                    name: name.clone(),
                    root: *root,
                    columns: stream.columns.clone(),
                    rows: stream.rows.clone(),
                    reached: vec![false; stream.rows.len()],
                });
            }
            XnfDef::Relationship(r) => {
                if r.children.len() != 1 {
                    return Err(XnfError::Api(
                        "recursive COs support binary relationships only".to_string(),
                    ));
                }
                rels.push(r);
            }
            XnfDef::ViewRef { .. } => unreachable!("flattened"),
        }
    }

    // Roots: explicit, else nodes without incoming edges.
    let has_explicit = defs
        .iter()
        .any(|d| matches!(d, XnfDef::Table { root: true, .. }));
    let children: HashSet<String> = rels
        .iter()
        .map(|r| r.children[0].to_ascii_lowercase())
        .collect();
    for n in nodes.iter_mut() {
        let auto_root = !children.contains(&n.name.to_ascii_lowercase());
        let is_root = if has_explicit { n.root } else { auto_root };
        n.root = is_root;
        if is_root {
            n.reached.iter_mut().for_each(|r| *r = true);
        }
    }
    if !nodes.iter().any(|n| n.root) {
        return Err(XnfError::Api(
            "recursive CO has no root component".to_string(),
        ));
    }

    // Pre-compile relationship join machinery.
    struct RelEngine {
        parent: usize,
        child: usize,
        /// Materialised USING tables.
        using_rows: Vec<Vec<Row>>,
        /// Per-step bound conjuncts: step i binds binding i (0 = parent is
        /// given; steps 1..=k are using tables; step k+1 is the child).
        /// Each step: (hash keys over new binding, hash map rows-by-key,
        /// residual filters).
        steps: Vec<JoinStep>,
    }
    struct JoinStep {
        /// For each key: expression over the *prefix* bindings.
        prefix_keys: Vec<CompiledExpr>,
        /// Hash of candidate row index by key values.
        index: HashMap<Vec<Value>, Vec<usize>>,
        /// Residual conjuncts evaluated over prefix ++ candidate.
        residual: Vec<CompiledExpr>,
    }
    /// A conjunct lowered over the concatenated binding row.
    #[derive(Clone)]
    struct CompiledExpr {
        expr: PhysExpr,
    }

    // Binding layout per relationship: [parent, using..., child].
    let mut engines: Vec<RelEngine> = Vec::new();
    for r in &rels {
        let parent = *node_idx
            .get(&r.parent.to_ascii_lowercase())
            .ok_or_else(|| XnfError::Api(format!("unknown parent '{}'", r.parent)))?;
        let child = *node_idx
            .get(&r.children[0].to_ascii_lowercase())
            .ok_or_else(|| XnfError::Api(format!("unknown child '{}'", r.children[0])))?;

        // Binding names: parent name; using aliases; child name (role name
        // when the child component equals the parent component).
        let child_binding = if r.children[0].eq_ignore_ascii_case(&r.parent) {
            r.role.clone()
        } else {
            r.children[0].clone()
        };
        let mut binding_names: Vec<String> = vec![r.parent.to_ascii_lowercase()];
        let mut binding_cols: Vec<Vec<String>> = vec![nodes[parent].columns.clone()];
        let mut using_rows: Vec<Vec<Row>> = Vec::new();
        for (t, alias) in &r.using {
            let table = db.catalog().table(t)?;
            binding_names.push(alias.as_deref().unwrap_or(t).to_ascii_lowercase());
            binding_cols.push(
                table
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
            );
            let mut rows = Vec::new();
            table.for_each_visible(&snap, |_, tuple| {
                rows.push(tuple.values);
                Ok(true)
            })?;
            using_rows.push(rows);
        }
        binding_names.push(child_binding.to_ascii_lowercase());
        binding_cols.push(nodes[child].columns.clone());

        // Resolve a column reference to (binding, col).
        let resolve = |qual: Option<&str>, name: &str| -> Result<(usize, usize)> {
            let q = qual.ok_or_else(|| {
                XnfError::Api(format!(
                    "recursive relationship '{}' requires qualified columns ('{name}')",
                    r.name
                ))
            })?;
            let b = binding_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(q))
                .ok_or_else(|| XnfError::Api(format!("unknown binding '{q}' in '{}'", r.name)))?;
            let c = binding_cols[b]
                .iter()
                .position(|n| n.eq_ignore_ascii_case(name))
                .ok_or_else(|| XnfError::Api(format!("unknown column '{q}.{name}'")))?;
            Ok((b, c))
        };

        // Lower a conjunct to a PhysExpr over the concatenated bindings.
        let widths: Vec<usize> = binding_cols.iter().map(|c| c.len()).collect();
        let offsets: Vec<usize> = widths
            .iter()
            .scan(0, |acc, w| {
                let o = *acc;
                *acc += w;
                Some(o)
            })
            .collect();
        let lower = |e: &Expr| -> Result<PhysExpr> {
            crate::db::lower_expr_with(e, &mut |q, n| {
                let (b, c) = resolve(q, n)?;
                Ok(PhysExpr::Col(offsets[b] + c))
            })
        };

        // Which bindings does a conjunct touch? (max binding index decides
        // the step that can evaluate it.)
        type ColResolver<'r> = dyn Fn(Option<&str>, &str) -> Result<(usize, usize)> + 'r;
        fn max_binding(e: &Expr, resolve: &ColResolver<'_>) -> Result<usize> {
            let mut m = 0;
            let mut stack = vec![e];
            while let Some(x) = stack.pop() {
                match x {
                    Expr::Column { qualifier, name } => {
                        let (b, _) = resolve(qualifier.as_deref(), name)?;
                        m = m.max(b);
                    }
                    Expr::Unary { expr, .. }
                    | Expr::IsNull { expr, .. }
                    | Expr::Like { expr, .. } => stack.push(expr),
                    Expr::Binary { left, right, .. } => {
                        stack.push(left);
                        stack.push(right);
                    }
                    Expr::Between {
                        expr, low, high, ..
                    } => {
                        stack.push(expr);
                        stack.push(low);
                        stack.push(high);
                    }
                    Expr::InList { expr, list, .. } => {
                        stack.push(expr);
                        for e in list {
                            stack.push(e);
                        }
                    }
                    Expr::Literal(_) => {}
                    other => {
                        return Err(XnfError::Api(format!(
                            "unsupported expression in recursive relationship: {other}"
                        )))
                    }
                }
            }
            Ok(m)
        }

        // Build one JoinStep per non-parent binding.
        let conjuncts = r.predicate.conjuncts();
        let mut steps = Vec::new();
        for step_binding in 1..binding_names.len() {
            let candidate_rows: &Vec<Row> = if step_binding < binding_names.len() - 1 {
                &using_rows[step_binding - 1]
            } else {
                &nodes[child].rows
            };
            let mut prefix_keys = Vec::new();
            let mut local_keys: Vec<usize> = Vec::new();
            let mut residual = Vec::new();
            for cj in &conjuncts {
                let mb = max_binding(cj, &resolve)?;
                if mb != step_binding {
                    continue;
                }
                // Equality `prefix_expr = binding.col` becomes a hash key.
                let mut as_key = None;
                if let Expr::Binary {
                    left,
                    op: BinOp::Eq,
                    right,
                } = cj
                {
                    let lb = max_binding(left, &resolve)?;
                    let rb = max_binding(right, &resolve)?;
                    if rb == step_binding && lb < step_binding {
                        if let Expr::Column { qualifier, name } = &**right {
                            let (b, c) = resolve(qualifier.as_deref(), name)?;
                            if b == step_binding {
                                as_key = Some((lower(left)?, c));
                            }
                        }
                    } else if lb == step_binding && rb < step_binding {
                        if let Expr::Column { qualifier, name } = &**left {
                            let (b, c) = resolve(qualifier.as_deref(), name)?;
                            if b == step_binding {
                                as_key = Some((lower(right)?, c));
                            }
                        }
                    }
                }
                match as_key {
                    Some((prefix_expr, col)) => {
                        prefix_keys.push(CompiledExpr { expr: prefix_expr });
                        local_keys.push(col);
                    }
                    None => residual.push(CompiledExpr { expr: lower(cj)? }),
                }
            }
            // Hash-index candidate rows by the local key columns.
            let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, row) in candidate_rows.iter().enumerate() {
                let key: Vec<Value> = local_keys.iter().map(|&c| row[c].clone()).collect();
                index.entry(key).or_default().push(i);
            }
            steps.push(JoinStep {
                prefix_keys,
                index,
                residual,
            });
        }
        engines.push(RelEngine {
            parent,
            child,
            using_rows,
            steps,
        });
    }

    // Semi-naive fixpoint.
    let mut connections: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rels.len()];
    let mut conn_seen: Vec<HashSet<(u32, u32)>> = vec![HashSet::new(); rels.len()];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for (ni, n) in nodes.iter().enumerate() {
        if n.root {
            for i in 0..n.rows.len() {
                queue.push_back((ni, i));
            }
        }
    }
    let outer = OuterCtx::new();
    while let Some((ni, pi)) = queue.pop_front() {
        for (ri, eng) in engines.iter().enumerate() {
            if eng.parent != ni {
                continue;
            }
            // Enumerate join matches starting from the parent row.
            let mut prefixes: Vec<Row> = vec![nodes[ni].rows[pi].clone()];
            for (si, step) in eng.steps.iter().enumerate() {
                let is_child_step = si == eng.steps.len() - 1;
                let mut next_prefixes = Vec::new();
                for prefix in &prefixes {
                    let key: Result<Vec<Value>> = step
                        .prefix_keys
                        .iter()
                        .map(|k| eval(&k.expr, prefix, &outer, &[]).map_err(XnfError::from))
                        .collect();
                    let key = key?;
                    let Some(matches) = step.index.get(&key) else {
                        continue;
                    };
                    for &ci in matches {
                        let cand_row: &Row = if is_child_step {
                            &nodes[eng.child].rows[ci]
                        } else {
                            &eng.using_rows[si][ci]
                        };
                        let mut combined = prefix.clone();
                        combined.extend(cand_row.iter().cloned());
                        let mut ok = true;
                        for rexpr in &step.residual {
                            if !xnf_exec::truthy(&eval(&rexpr.expr, &combined, &outer, &[])?) {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            continue;
                        }
                        if is_child_step {
                            if conn_seen[ri].insert((pi as u32, ci as u32)) {
                                connections[ri].push((pi as u32, ci as u32));
                            }
                            if !nodes[eng.child].reached[ci] {
                                nodes[eng.child].reached[ci] = true;
                                queue.push_back((eng.child, ci));
                            }
                        } else {
                            next_prefixes.push(combined);
                        }
                    }
                }
                if !is_child_step {
                    prefixes = next_prefixes;
                    if prefixes.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    // Compact reached tuples into output ids.
    let mut id_map: Vec<HashMap<u32, u32>> = Vec::with_capacity(nodes.len());
    let mut node_streams: Vec<StreamResult> = Vec::new();
    for n in &nodes {
        let mut map = HashMap::new();
        let mut rows = Vec::new();
        for (i, row) in n.rows.iter().enumerate() {
            if n.reached[i] {
                map.insert(i as u32, rows.len() as u32);
                rows.push(row.clone());
            }
        }
        id_map.push(map);
        node_streams.push(StreamResult {
            name: n.name.clone(),
            kind: OutputKind::Node,
            columns: n.columns.clone(),
            rows,
        });
    }

    // Assemble streams honoring TAKE.
    let taken: Option<HashSet<String>> = match &q.take {
        XnfTake::All => None,
        XnfTake::Items(items) => Some(items.iter().map(|i| i.name.to_ascii_lowercase()).collect()),
    };
    let is_taken = |name: &str| {
        taken
            .as_ref()
            .map(|t| t.contains(&name.to_ascii_lowercase()))
            .unwrap_or(true)
    };

    let mut streams = Vec::new();
    for s in node_streams {
        if is_taken(&s.name) {
            streams.push(s);
        }
    }
    for (ri, r) in rels.iter().enumerate() {
        if !is_taken(&r.name) {
            continue;
        }
        let eng = &engines[ri];
        let rows: Vec<Row> = connections[ri]
            .iter()
            .filter_map(|(p, c)| {
                let pid = id_map[eng.parent].get(p)?;
                let cid = id_map[eng.child].get(c)?;
                Some(vec![Value::Int(*pid as i64), Value::Int(*cid as i64)])
            })
            .collect();
        streams.push(StreamResult {
            name: r.name.clone(),
            kind: OutputKind::Connection {
                relationship: r.name.clone(),
                parent: r.parent.clone(),
                children: r.children.clone(),
                role: r.role.clone(),
            },
            columns: vec![format!("{}_id", r.parent), format!("{}_id", r.children[0])],
            rows,
        });
    }
    Ok(QueryResult {
        streams,
        stats: ExecStats::default(),
    })
}
