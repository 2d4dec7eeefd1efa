//! A naive reference evaluator for the oracle corpus. It reads only parsed
//! ASTs (`xnf_sql`) and the rows `Table::for_each_visible` returns
//! (`xnf_storage`), and evaluates each statement by definition: nested
//! loops over visible rows that check each WHERE conjunct as soon as the
//! aliases it names are bound, three-valued logic, grouping by value, and
//! views expanded to their stored definitions. A composite object is
//! evaluated per Sect. 2 of the paper: each component's rows under its
//! restrictions, the roots, the tuples reachable from them by a fixpoint
//! over the RELATE predicates (USING tables included), and one connection
//! per satisfying binding, as the parent's row followed by the children's.
//! It shares no code with the engine's QGM, rewrite, planner or executor,
//! and panics on SQL the corpus does not use.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use xnf_sql::{
    parse_statement, AggFunc, BinOp, Expr, Literal, OrderItem, Select, SelectItem, Statement,
    TableRef, UnaryOp, XnfDef, XnfQuery, XnfTake,
};
use xnf_storage::{Catalog, Snapshot, Value};

pub type Row = Vec<Value>;

/// One answer stream. Under ORDER BY, `ties` holds where each run of rows
/// with equal sort keys ends; otherwise the order is unspecified.
#[derive(Debug)]
pub struct Stream {
    pub name: String,
    pub rows: Vec<Row>,
    pub ties: Option<Vec<usize>>,
}

/// A relation: column names and rows.
struct Rel {
    cols: Vec<String>,
    rows: Vec<Row>,
}

impl Rel {
    fn source<'r>(&'r self, binding: &'r str) -> Source<'r> {
        (binding, &self.cols, &self.rows)
    }
}

/// A FROM item of a nested loop: binding name, columns and rows.
type Source<'r> = (&'r str, &'r [String], &'r [Row]);

/// A bound FROM item: its binding, columns, and current row, the
/// `index`-th of its rows.
#[derive(Clone, Copy)]
struct Bound<'r> {
    binding: &'r str,
    cols: &'r [String],
    row: &'r [Value],
    index: usize,
}

/// Name resolution: a query block's bound items, then the enclosing
/// block's (correlation).
#[derive(Clone, Copy)]
struct Env<'e> {
    bound: &'e [Bound<'e>],
    outer: Option<&'e Env<'e>>,
}

impl<'e> Env<'e> {
    fn lookup(&self, qualifier: Option<&str>, name: &str) -> &'e Value {
        let binds = |b: &&Bound| qualifier.is_none_or(|q| b.binding.eq_ignore_ascii_case(q));
        let col = |b: &Bound<'e>| b.cols.iter().position(|c| c.eq_ignore_ascii_case(name));
        let hit = self
            .bound
            .iter()
            .filter(binds)
            .find_map(|b| Some(&b.row[col(b)?]));
        hit.unwrap_or_else(|| self.outer.expect("unknown column").lookup(qualifier, name))
    }
}

/// Evaluates statements against the latest committed state of a catalog.
pub struct Reference<'a> {
    catalog: &'a Catalog,
    snap: Snapshot,
    params: &'a [Value],
    /// Base tables and views read so far, by upper-cased name.
    relations: RefCell<HashMap<String, Rc<Rel>>>,
}

impl<'a> Reference<'a> {
    pub fn new(catalog: &'a Catalog, params: &'a [Value]) -> Self {
        let (snap, relations) = (catalog.latest_snapshot(), RefCell::default());
        Reference {
            catalog,
            snap,
            params,
            relations,
        }
    }

    /// A SELECT's `result` stream, or an `OUT OF` query's node and
    /// connection streams.
    pub fn answer(&self, text: &str) -> Vec<Stream> {
        match parse_statement(text).unwrap() {
            Statement::Select(s) => {
                let (_, rows, ties) = self.query(&s, None);
                let name = "result".to_string();
                vec![Stream { name, rows, ties }]
            }
            Statement::Xnf(q) => self.composite_object(&q),
            other => panic!("not a query: {other:?}"),
        }
    }

    /// A view's definition evaluated, or a base table's visible rows.
    fn relation(&self, name: &str) -> Rc<Rel> {
        let key = name.to_ascii_uppercase();
        if let Some(rel) = self.relations.borrow().get(&key) {
            return Rc::clone(rel);
        }
        let rel = match self.catalog.view(name) {
            Some(view) => {
                let Ok(Statement::Select(s)) = parse_statement(&view.text) else {
                    panic!("view '{name}' is not a SELECT")
                };
                let (cols, rows, _) = self.query(&s, None);
                Rel { cols, rows }
            }
            None => {
                let table = self.catalog.table(name).unwrap();
                let cols = table
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                let mut rows = Vec::new();
                let push = |_, t: xnf_storage::Tuple| {
                    rows.push(t.values);
                    Ok(true)
                };
                table.for_each_visible(&self.snap, push).unwrap();
                Rel { cols, rows }
            }
        };
        let rel = Rc::new(rel);
        self.relations.borrow_mut().insert(key, Rc::clone(&rel));
        rel
    }

    /// Nested loops over `from`, checking each conjunct once the last item
    /// it names is bound (one holding a subquery once all are); `emit` gets
    /// every binding that passes them all.
    fn nested_loop<'r>(
        &self,
        from: &[Source<'r>],
        conjuncts: &[&Expr],
        outer: Option<&Env<'_>>,
        emit: &mut dyn FnMut(&[Bound<'r>]),
    ) {
        let mut levels: Vec<Vec<&Expr>> = vec![Vec::new(); from.len() + 1];
        for &c in conjuncts {
            let mut level = 0;
            let local = local_columns(c, &mut |q, name| {
                let binds = |(b, cols, _): &Source<'_>| {
                    q.is_none_or(|q| b.eq_ignore_ascii_case(q))
                        && cols.iter().any(|c| c.eq_ignore_ascii_case(name))
                };
                level = level.max(from.iter().position(binds).map_or(0, |i| i + 1));
            });
            levels[if local { level } else { from.len() }].push(c);
        }
        self.bind(from, &levels, outer, &mut Vec::new(), emit);
    }

    fn bind<'r>(
        &self,
        from: &[Source<'r>],
        levels: &[Vec<&Expr>],
        outer: Option<&Env<'_>>,
        bound: &mut Vec<Bound<'r>>,
        emit: &mut dyn FnMut(&[Bound<'r>]),
    ) {
        let env = Env { bound, outer };
        if levels[bound.len()]
            .iter()
            .any(|c| !self.holds(c, &env, None))
        {
            return;
        }
        let Some(&(binding, cols, rows)) = from.get(bound.len()) else {
            return emit(bound);
        };
        for (index, row) in rows.iter().enumerate() {
            bound.push(Bound {
                binding,
                cols,
                row,
                index,
            });
            self.bind(from, levels, outer, bound, emit);
            bound.pop();
        }
    }

    /// A SELECT with its UNION branches: output column names, rows, and
    /// the ORDER BY tie runs.
    fn query(
        &self,
        s: &Select,
        outer: Option<&Env<'_>>,
    ) -> (Vec<String>, Vec<Row>, Option<Vec<usize>>) {
        // A trailing ORDER BY / LIMIT orders and cuts the whole union.
        let last = s.unions.last().map_or(s, |(_, b)| b);
        let (order, limit) = match last.order_by.is_empty() && last.limit.is_none() {
            true => (&s.order_by, s.limit),
            false => (&last.order_by, last.limit),
        };
        let (names, mut keyed) = self.block(s, order, outer);
        if !s.unions.is_empty() {
            for (_, branch) in &s.unions {
                keyed.extend(self.block(branch, &[], outer).1);
            }
            if s.unions.iter().any(|(all, _)| !all) {
                let mut seen = HashSet::new();
                keyed.retain(|(row, _)| seen.insert(row.clone()));
            }
            for (row, keys) in &mut keyed {
                let at = |o: &OrderItem| output_column(&o.expr, &names).expect("UNION key");
                *keys = order.iter().map(|o| row[at(o)].clone()).collect();
            }
        }
        if order.is_empty() {
            assert!(limit.is_none(), "LIMIT without ORDER BY");
            return (names, keyed.into_iter().map(|(r, _)| r).collect(), None);
        }
        // NULL sorts lowest: first ascending, last descending.
        let cmp = |a: &Row, b: &Row| {
            let by = a.iter().zip(b).zip(order);
            let mut ords = by.map(|((x, y), o)| if o.desc { y.cmp(x) } else { x.cmp(y) });
            ords.find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        keyed.sort_by(|(_, a), (_, b)| cmp(a, b));
        keyed.truncate(limit.map_or(keyed.len(), |l| l as usize));
        let n = keyed.len();
        let ties = (1..=n).filter(|&i| i == n || cmp(&keyed[i - 1].1, &keyed[i].1).is_ne());
        let ties = Some(ties.collect());
        (names, keyed.into_iter().map(|(r, _)| r).collect(), ties)
    }

    /// One query block: FROM × WHERE, grouping, HAVING and the select list,
    /// with DISTINCT. Each output row comes with its `order` keys.
    fn block(
        &self,
        s: &Select,
        order: &[OrderItem],
        outer: Option<&Env<'_>>,
    ) -> (Vec<String>, Vec<(Row, Row)>) {
        assert!(s.joins.is_empty(), "the reference evaluates comma joins");
        let rels: Vec<(&str, Rc<Rel>)> = (s.from.iter())
            .map(|t| match t {
                TableRef::Named { name, .. } => (t.binding(), self.relation(name)),
                other => panic!("the reference does not evaluate {other:?}"),
            })
            .collect();
        let from: Vec<Source<'_>> = rels.iter().map(|(b, r)| r.source(b)).collect();
        let conjuncts = s
            .where_clause
            .iter()
            .flat_map(|w| w.conjuncts())
            .collect::<Vec<_>>();
        let mut matches: Vec<Vec<Bound<'_>>> = Vec::new();
        self.nested_loop(&from, &conjuncts, outer, &mut |b| matches.push(b.to_vec()));

        let names: Vec<String> = (s.items.iter())
            .flat_map(|item| match item {
                SelectItem::Wildcard => rels.iter().flat_map(|(_, r)| r.cols.clone()).collect(),
                SelectItem::Expr { alias: Some(a), .. } => vec![a.clone()],
                SelectItem::Expr {
                    expr: Expr::Column { name, .. },
                    ..
                } => vec![name.clone()],
                SelectItem::Expr { expr, .. } => vec![expr.to_string()],
                other => panic!("the reference does not evaluate {other:?}"),
            })
            .collect();
        let aggregates = |i: &SelectItem| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate());
        let grouped =
            !s.group_by.is_empty() || s.having.is_some() || s.items.iter().any(aggregates);
        // The bindings behind each output row: a group's, or one match.
        let groups: Vec<Vec<Vec<Bound<'_>>>> = if grouped {
            let mut groups: Vec<Vec<Vec<Bound<'_>>>> = Vec::new();
            let mut index: HashMap<Row, usize> = HashMap::new();
            for m in matches {
                let env = Env { bound: &m, outer };
                let key: Row = s
                    .group_by
                    .iter()
                    .map(|g| self.eval(g, &env, None))
                    .collect();
                let slot = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[slot].push(m);
            }
            if groups.is_empty() && s.group_by.is_empty() {
                // An ungrouped aggregate over no rows still yields one row.
                groups.push(Vec::new());
            }
            groups
        } else {
            matches.into_iter().map(|m| vec![m]).collect()
        };

        let mut keyed: Vec<(Row, Row)> = Vec::new();
        for group in &groups {
            let bound = group.first().map_or(&[][..], |b| b);
            let (env, group) = (Env { bound, outer }, grouped.then_some(group.as_slice()));
            if s.having.iter().any(|h| !self.holds(h, &env, group)) {
                continue;
            }
            let out: Row = (s.items.iter())
                .flat_map(|item| match item {
                    SelectItem::Expr { expr, .. } => vec![self.eval(expr, &env, group)],
                    _ => env.bound.iter().flat_map(|b| b.row.to_vec()).collect(),
                })
                .collect();
            // A key naming an output column reads it; any other key is
            // evaluated over the source row.
            let keys = order.iter().map(|o| match output_column(&o.expr, &names) {
                Some(i) => out[i].clone(),
                None => self.eval(&o.expr, &env, group),
            });
            let keys = keys.collect();
            keyed.push((out, keys));
        }
        if s.distinct {
            let mut seen = HashSet::new();
            keyed.retain(|(out, _)| seen.insert(out.clone()));
        }
        (names, keyed)
    }

    fn holds(&self, e: &Expr, env: &Env<'_>, group: Option<&[Vec<Bound<'_>>]>) -> bool {
        matches!(self.eval(e, env, group), Value::Bool(true))
    }

    /// Evaluate `e` in `env`; `group` holds the current group's bindings
    /// when the block aggregates. Predicates yield `Bool`, or `Null`
    /// (unknown).
    fn eval(&self, e: &Expr, env: &Env<'_>, group: Option<&[Vec<Bound<'_>>]>) -> Value {
        let eval = |e: &Expr| self.eval(e, env, group);
        match e {
            Expr::Literal(Literal::Null) => Value::Null,
            Expr::Literal(Literal::Int(i)) => Value::Int(*i),
            Expr::Literal(Literal::Float(f)) => Value::Double(*f),
            Expr::Literal(Literal::Str(s)) => Value::Str(s.clone()),
            Expr::Param(i) => self.params[*i].clone(),
            Expr::Column { qualifier, name } => env.lookup(qualifier.as_deref(), name).clone(),
            Expr::Unary { op, expr } => match (op, eval(expr)) {
                (UnaryOp::Not, v) => not3(v),
                (UnaryOp::Neg, Value::Int(i)) => Value::Int(-i),
                (UnaryOp::Neg, v) => panic!("the reference does not negate {v:?}"),
            },
            Expr::Binary { left, op, right } => match (op, eval(left), eval(right)) {
                (BinOp::And, l, r) => and3(l, r),
                (BinOp::Or, l, r) => or3(l, r),
                (op, l, r) => compare(&l, *op, &r),
            },
            Expr::IsNull { expr, negated } => Value::Bool(eval(expr).is_null() != *negated),
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let (v, (_, rows, _)) = (eval(expr), self.query(subquery, Some(env)));
                let eq = rows.iter().map(|r| compare(&v, BinOp::Eq, &r[0]));
                let found = eq.fold(Value::Bool(false), or3);
                match negated {
                    true => not3(found),
                    false => found,
                }
            }
            Expr::Exists { subquery, negated } => {
                Value::Bool(self.query(subquery, Some(env)).1.is_empty() == *negated)
            }
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                let rows = group.unwrap_or_else(|| panic!("{e} outside an aggregating block"));
                let mut seen = HashSet::new();
                let values = rows.iter().filter_map(|b| {
                    let v = match arg {
                        None => Value::Bool(true),
                        Some(a) => self.eval(a, &Env { bound: b, ..*env }, None),
                    };
                    (!v.is_null() && (!distinct || seen.insert(v.clone()))).then_some(v)
                });
                aggregate(*func, values.collect())
            }
            other => panic!("the reference does not evaluate {other}"),
        }
    }

    /// Sect. 2: component rows under their restrictions, the roots, and
    /// every tuple reachable from them, with its connections.
    fn composite_object(&self, q: &XnfQuery) -> Vec<Stream> {
        assert_eq!(q.take, XnfTake::All, "the reference evaluates TAKE *");
        let restriction = q.restriction.as_ref().map_or(Vec::new(), |r| r.conjuncts());
        let (mut nodes, mut rels) = (Vec::new(), Vec::new());
        for d in &q.defs {
            match d {
                XnfDef::Table { name, select, root } => {
                    let (cols, rows, _) = self.query(select, None);
                    // The restriction conjuncts naming this component.
                    let mine: Vec<&Expr> = (restriction.iter().copied())
                        .filter(|c| {
                            let mut named = false;
                            local_columns(c, &mut |q, _| {
                                named |= q.is_some_and(|q| q.eq_ignore_ascii_case(name))
                            });
                            named
                        })
                        .collect();
                    let (mut kept, all) = (Vec::new(), Rel { cols, rows });
                    let from = [all.source(name)];
                    self.nested_loop(&from, &mine, None, &mut |b| kept.push(b[0].row.to_vec()));
                    nodes.push((name.as_str(), Rel { rows: kept, ..all }, *root));
                }
                XnfDef::Relationship(r) => rels.push(r),
                XnfDef::ViewRef { name } => panic!("the reference does not inline {name}"),
            }
        }
        let node = |name: &str| nodes.iter().position(|n| n.0.eq_ignore_ascii_case(name));

        // The roots: the marked nodes, else every node no RELATE reaches.
        let marked = nodes.iter().any(|n| n.2);
        let children = rels.iter().flat_map(|r| &r.children);
        let child = |name: &str| children.clone().any(|c| c.eq_ignore_ascii_case(name));
        let mut reached: Vec<Vec<bool>> = Vec::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for (n, (name, rel, root)) in nodes.iter().enumerate() {
            let root = *root || !(marked || child(name));
            reached.push(vec![root; rel.rows.len()]);
            work.extend((0..rel.rows.len()).filter(|_| root).map(|i| (n, i)));
        }

        // The fixpoint: each newly reached tuple is bound, once, as the
        // parent of every relationship it heads.
        let mut connections: Vec<Vec<Row>> = vec![Vec::new(); rels.len()];
        while let Some((n, i)) = work.pop() {
            let (parent, rel, _) = &nodes[n];
            for (k, r) in rels.iter().enumerate() {
                if !r.parent.eq_ignore_ascii_case(parent) {
                    continue;
                }
                let using: Vec<(&str, Rc<Rel>)> = (r.using.iter())
                    .map(|(t, a)| (a.as_deref().unwrap_or(t), self.relation(t)))
                    .collect();
                let children: Vec<usize> = r.children.iter().map(|c| node(c).unwrap()).collect();
                let mut from = vec![(*parent, &rel.cols[..], std::slice::from_ref(&rel.rows[i]))];
                from.extend(using.iter().map(|(b, u)| u.source(b)));
                // A child that is the parent's own component binds under
                // the role name.
                for &c in &children {
                    let (name, candidates, _) = &nodes[c];
                    let own = name.eq_ignore_ascii_case(parent);
                    from.push(candidates.source(if own { &r.role } else { name }));
                }
                let mut found: Vec<Vec<Bound<'_>>> = Vec::new();
                self.nested_loop(&from, &r.predicate.conjuncts(), None, &mut |b| {
                    // The partners: the parent and the children, not USING.
                    let children = b[1 + using.len()..].iter().copied();
                    found.push(std::iter::once(b[0]).chain(children).collect())
                });
                for partners in found {
                    for (&c, b) in children.iter().zip(&partners[1..]) {
                        if !reached[c][b.index] {
                            reached[c][b.index] = true;
                            work.push((c, b.index));
                        }
                    }
                    connections[k].push(partners.iter().flat_map(|b| b.row.to_vec()).collect());
                }
            }
        }

        let stream = |name: &str, rows| Stream {
            name: name.to_string(),
            rows,
            ties: None,
        };
        let mut streams: Vec<Stream> = (nodes.iter().zip(&reached))
            .map(|((name, rel, _), reached)| {
                let rows = rel.rows.iter().zip(reached).filter(|(_, r)| **r);
                stream(name, rows.map(|(row, _)| row.clone()).collect())
            })
            .collect();
        let connections = rels.iter().zip(connections);
        streams.extend(connections.map(|(r, rows)| stream(&r.name, rows)));
        streams
    }
}

/// The output column an ORDER BY key names: a 1-based position, or a
/// bare output column name.
fn output_column(e: &Expr, names: &[String]) -> Option<usize> {
    match e {
        Expr::Literal(Literal::Int(i)) => Some(*i as usize - 1),
        Expr::Column {
            qualifier: None,
            name,
        } => names.iter().position(|n| n.eq_ignore_ascii_case(name)),
        _ => None,
    }
}

/// Call `f` with every column `e` names outside subqueries; false when
/// `e` holds a subquery (which may name any column).
fn local_columns(e: &Expr, f: &mut dyn FnMut(Option<&str>, &str)) -> bool {
    match e {
        Expr::Column { qualifier, name } => {
            f(qualifier.as_deref(), name);
            true
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => local_columns(expr, f),
        Expr::Binary { left, right, .. } => local_columns(left, f) & local_columns(right, f),
        Expr::InSubquery { .. } | Expr::Exists { .. } => false,
        _ => true,
    }
}

/// `l op r`, unknown when either side is NULL.
fn compare(l: &Value, op: BinOp, r: &Value) -> Value {
    let Some(ord) = l.sql_cmp(r) else {
        return Value::Null;
    };
    Value::Bool(match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        other => panic!("the reference does not evaluate {other}"),
    })
}

fn and3(l: Value, r: Value) -> Value {
    match (l, r) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn or3(l: Value, r: Value) -> Value {
    not3(and3(not3(l), not3(r)))
}

fn not3(v: Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::Null,
    }
}

/// Fold a group's non-NULL argument values.
fn aggregate(func: AggFunc, values: Vec<Value>) -> Value {
    let ints = values.iter().all(|v| matches!(v, Value::Int(_)));
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum if values.is_empty() => Value::Null,
        AggFunc::Sum if ints => Value::Int(values.iter().map(|v| v.as_int().unwrap()).sum()),
        AggFunc::Sum => Value::Double(values.iter().map(|v| v.as_double().unwrap()).sum()),
        AggFunc::Min => values.into_iter().min().unwrap_or(Value::Null),
        AggFunc::Max => values.into_iter().max().unwrap_or(Value::Null),
        AggFunc::Avg => panic!("the reference does not evaluate AVG"),
    }
}
