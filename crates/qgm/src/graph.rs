//! The Query Graph Model (QGM).
//!
//! QGM is Starburst's internal semantic network: queries are boxes (SELECT,
//! GROUP BY, UNION, base tables, the Top operator, and — the paper's
//! extension — the **XNF operator**) connected by *quantifiers*. A
//! quantifier ranges over a box and has a kind:
//!
//! - `F` (ForEach): contributes rows multiplicatively — an ordinary join leg;
//! - `E` (Existential): an existential subquery — evaluated per outer row
//!   unless rewritten;
//! - `Semi`: the result of the paper's *E-to-F quantifier conversion*
//!   (Sect. 3.2): set-oriented semijoin semantics, never multiplies rows;
//! - `Anti`: NOT EXISTS (anti-join).
//!
//! The head of a box lists its output columns as expressions over body
//! quantifiers. Predicates are conjunctive. Correlation is expressed by
//! predicates inside an inner box referring to outer quantifiers — exactly
//! the structure Figs. 3–5 of the paper draw.

use xnf_storage::Schema;

use crate::expr::{QunId, ScalarExpr};

/// Box identifier (index into [`Qgm::boxes`]).
pub type BoxId = usize;

/// Pseudo-column ordinal denoting "the row id of this quantifier's current
/// tuple in its materialised table". Used by connection (relationship)
/// streams so the CO cache can link component tuples. See Sect. 5.0 of the
/// paper ("each tuple has a system generated identifier").
pub const ROWID_COL: usize = usize::MAX;

/// Quantifier kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QunKind {
    Foreach,
    Existential,
    Semi,
    Anti,
}

impl QunKind {
    pub fn letter(self) -> &'static str {
        match self {
            QunKind::Foreach => "F",
            QunKind::Existential => "E",
            QunKind::Semi => "S",
            QunKind::Anti => "A",
        }
    }
}

/// A quantifier: a typed range variable over a box.
#[derive(Debug, Clone)]
pub struct Quantifier {
    pub id: QunId,
    pub kind: QunKind,
    pub ranges_over: BoxId,
    /// Binding name for diagnostics (alias / component name).
    pub name: String,
}

/// One output column of a box.
#[derive(Debug, Clone)]
pub struct HeadColumn {
    pub name: String,
    pub expr: ScalarExpr,
}

/// SELECT-box payload.
#[derive(Debug, Clone, Default)]
pub struct SelectBox {
    pub distinct: bool,
}

/// GROUP BY-box payload. Head expressions may contain aggregates; the
/// grouping expressions are listed here.
#[derive(Debug, Clone, Default)]
pub struct GroupByBox {
    pub group_by: Vec<ScalarExpr>,
}

/// UNION-box payload.
#[derive(Debug, Clone)]
pub struct UnionBox {
    /// `UNION ALL` when true; set semantics otherwise.
    pub all: bool,
}

/// The XNF operator's component descriptions (Sect. 4.1, Fig. 4).
#[derive(Debug, Clone)]
pub struct XnfBox {
    pub components: Vec<XnfComponent>,
}

/// Kind of an XNF component.
#[derive(Debug, Clone, PartialEq)]
pub enum XnfComponentKind {
    /// A node (component table). `root` marks CO anchors; `reachable` is the
    /// default reachability predicate for non-roots ('R' in Fig. 4).
    Node { root: bool, reachable: bool },
    /// A relationship with its parent, role and children.
    Relationship {
        parent: String,
        role: String,
        children: Vec<String>,
    },
}

/// One component of an XNF box.
#[derive(Debug, Clone)]
pub struct XnfComponent {
    pub name: String,
    pub kind: XnfComponentKind,
    /// The select box deriving this component (pre-reachability).
    pub body: BoxId,
    /// Whether TAKE includes this component.
    pub taken: bool,
    /// Column projection for taken nodes (ordinals into the body head).
    pub projection: Option<Vec<usize>>,
}

/// What an output stream of the Top box represents.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputKind {
    /// Plain relational result (SQL query).
    Table,
    /// An XNF node stream.
    Node,
    /// An XNF connection stream: instances of `relationship` linking a
    /// parent component tuple to one tuple of each child component (n-ary
    /// relationships have several children). Head = [parent rowid,
    /// child rowids...].
    Connection {
        relationship: String,
        parent: String,
        children: Vec<String>,
        role: String,
    },
}

/// Description of one Top-box output stream.
#[derive(Debug, Clone)]
pub struct OutputDesc {
    /// Quantifier (in the Top box) delivering this stream.
    pub qun: QunId,
    pub name: String,
    pub kind: OutputKind,
}

/// Reachability of a recursive CO (a cyclic schema graph, Sect. 2), which
/// the NF operators cannot express: every component is delivered as a
/// stream of candidates, and the executor keeps the node rows reachable
/// from the `roots` along connections whose parent is kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reach {
    /// Output names of the root node streams: all their rows are reached.
    pub roots: Vec<String>,
    /// Output names of the streams TAKE leaves out: reachability follows
    /// them, then they are dropped.
    pub hidden: Vec<String>,
}

/// Box kinds.
#[derive(Debug, Clone)]
pub enum BoxKind {
    /// A stored table. Head columns mirror the schema.
    BaseTable {
        table: String,
        schema: Schema,
    },
    Select(SelectBox),
    GroupBy(GroupByBox),
    Union(UnionBox),
    /// The XNF operator (removed by XNF semantic rewrite).
    Xnf(XnfBox),
    /// The single top operator: interface to the application.
    Top,
}

impl BoxKind {
    pub fn name(&self) -> &'static str {
        match self {
            BoxKind::BaseTable { .. } => "BaseTable",
            BoxKind::Select(_) => "Select",
            BoxKind::GroupBy(_) => "GroupBy",
            BoxKind::Union(_) => "Union",
            BoxKind::Xnf(_) => "XNF",
            BoxKind::Top => "Top",
        }
    }
}

/// A QGM box.
#[derive(Debug, Clone)]
pub struct QgmBox {
    pub id: BoxId,
    pub kind: BoxKind,
    /// Display label ("xdept", "employment", ...).
    pub label: String,
    pub head: Vec<HeadColumn>,
    /// Quantifiers belonging to this box's body, in join order preference.
    pub quns: Vec<QunId>,
    /// Conjunctive predicates over this box's (and outer) quantifiers.
    pub preds: Vec<ScalarExpr>,
}

impl QgmBox {
    pub fn head_index(&self, name: &str) -> Option<usize> {
        self.head
            .iter()
            .position(|h| h.name.eq_ignore_ascii_case(name))
    }

    pub fn is_select(&self) -> bool {
        matches!(self.kind, BoxKind::Select(_))
    }

    pub fn as_select(&self) -> Option<&SelectBox> {
        match &self.kind {
            BoxKind::Select(s) => Some(s),
            _ => None,
        }
    }
}

/// Ordering specification on the Top box.
#[derive(Debug, Clone)]
pub struct OrderSpec {
    /// Head-column ordinal of the (single) output stream.
    pub col: usize,
    pub desc: bool,
}

/// A complete query graph.
#[derive(Debug, Clone, Default)]
pub struct Qgm {
    pub boxes: Vec<QgmBox>,
    pub quns: Vec<Quantifier>,
    /// The Top box (present once construction finished).
    pub top: Option<BoxId>,
    /// Output streams of the Top box, in delivery order.
    pub outputs: Vec<OutputDesc>,
    /// ORDER BY on the (single) relational output.
    pub order_by: Vec<OrderSpec>,
    /// LIMIT on the (single) relational output.
    pub limit: Option<u64>,
    /// Set by the XNF lowering of a recursive CO.
    pub reach: Option<Reach>,
}

impl Qgm {
    pub fn new() -> Qgm {
        Qgm::default()
    }

    /// Add a box; returns its id. BaseTable boxes get their head populated
    /// from the schema (the expressions are placeholders — base-table heads
    /// are positional and never evaluated).
    pub fn add_box(&mut self, kind: BoxKind, label: impl Into<String>) -> BoxId {
        let id = self.boxes.len();
        let head = match &kind {
            BoxKind::BaseTable { schema, .. } => schema
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| HeadColumn {
                    name: c.name.clone(),
                    expr: ScalarExpr::Col {
                        qun: usize::MAX - 1,
                        col: i,
                    },
                })
                .collect(),
            _ => Vec::new(),
        };
        self.boxes.push(QgmBox {
            id,
            kind,
            label: label.into(),
            head,
            quns: Vec::new(),
            preds: Vec::new(),
        });
        id
    }

    /// Add a quantifier of `kind` in box `owner` ranging over `over`.
    pub fn add_qun(
        &mut self,
        owner: BoxId,
        kind: QunKind,
        over: BoxId,
        name: impl Into<String>,
    ) -> QunId {
        let id = self.quns.len();
        self.quns.push(Quantifier {
            id,
            kind,
            ranges_over: over,
            name: name.into(),
        });
        self.boxes[owner].quns.push(id);
        id
    }

    pub fn qun(&self, id: QunId) -> &Quantifier {
        &self.quns[id]
    }

    pub fn boxed(&self, id: BoxId) -> &QgmBox {
        &self.boxes[id]
    }

    /// The box that owns quantifier `q`, if any.
    pub fn owner_of(&self, q: QunId) -> Option<BoxId> {
        self.boxes
            .iter()
            .find(|b| b.quns.contains(&q))
            .map(|b| b.id)
    }

    /// Number of quantifiers ranging over each box (its "reference count").
    pub fn ref_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.boxes.len()];
        for (qid, q) in self.quns.iter().enumerate() {
            // Count only quantifiers still attached to some box.
            if self.owner_of(qid).is_some() {
                counts[q.ranges_over] += 1;
            }
        }
        counts
    }

    /// Boxes reachable from the Top box (used by unused-box removal).
    pub fn reachable_boxes(&self) -> Vec<bool> {
        let mut seen = vec![false; self.boxes.len()];
        let Some(top) = self.top else {
            return seen;
        };
        let mut stack = vec![top];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for &q in &self.boxes[b].quns {
                stack.push(self.quns[q].ranges_over);
            }
            // Correlated predicates may reference quantifiers of other boxes;
            // those boxes are reached via ownership, not here.
        }
        seen
    }

    /// Number of head columns the box ranged over by `q` exposes.
    pub fn arity_of_qun(&self, q: QunId) -> usize {
        self.boxes[self.quns[q].ranges_over].head.len()
    }

    /// Resolve the head-column name for `Col{qun, col}` references
    /// (diagnostics only).
    pub fn col_name(&self, q: QunId, col: usize) -> String {
        if col == ROWID_COL {
            return format!("{}#rowid", self.quns[q].name);
        }
        let b = &self.boxes[self.quns[q].ranges_over];
        match b.head.get(col) {
            Some(h) => format!("{}.{}", self.quns[q].name, h.name),
            None => format!("{}.c{}", self.quns[q].name, col),
        }
    }

    /// Count boxes by kind name (used by tests and the Table 1 experiment).
    pub fn count_kind(&self, kind: &str) -> usize {
        let reachable = self.reachable_boxes();
        self.boxes
            .iter()
            .filter(|b| reachable[b.id] && b.kind.name() == kind)
            .count()
    }

    /// Remove boxes unreachable from the Top box, compacting ids. This is
    /// the paper's "removal of unused boxes" clean-up rule (Sect. 4.4) made
    /// physical: box ids, quantifier ids, output descriptors and XNF
    /// component bodies are all remapped.
    pub fn compact(&mut self) {
        let reachable = self.reachable_boxes();
        // New box ids.
        let mut box_map = vec![usize::MAX; self.boxes.len()];
        let mut next = 0;
        for (i, r) in reachable.iter().enumerate() {
            if *r {
                box_map[i] = next;
                next += 1;
            }
        }
        // A quantifier survives iff its owner box survives (its target is
        // then reachable by construction).
        let mut qun_owner = vec![usize::MAX; self.quns.len()];
        for b in &self.boxes {
            for &q in &b.quns {
                qun_owner[q] = b.id;
            }
        }
        let mut qun_map = vec![usize::MAX; self.quns.len()];
        let mut new_quns = Vec::new();
        for (i, q) in self.quns.iter().enumerate() {
            let owner = qun_owner[i];
            if owner != usize::MAX && reachable[owner] && reachable[q.ranges_over] {
                qun_map[i] = new_quns.len();
                let mut q = q.clone();
                q.id = new_quns.len();
                q.ranges_over = box_map[q.ranges_over];
                new_quns.push(q);
            }
        }
        // Rebuild boxes.
        let old_boxes = std::mem::take(&mut self.boxes);
        for mut b in old_boxes {
            if !reachable[b.id] {
                continue;
            }
            b.id = box_map[b.id];
            b.quns = b
                .quns
                .iter()
                .filter(|&&q| qun_map[q] != usize::MAX)
                .map(|&q| qun_map[q])
                .collect();
            let remap = |e: &ScalarExpr| {
                e.map_cols(&mut |q, c| {
                    let nq = if q < qun_map.len() && qun_map[q] != usize::MAX {
                        qun_map[q]
                    } else {
                        q
                    };
                    ScalarExpr::Col { qun: nq, col: c }
                })
            };
            b.head = b
                .head
                .iter()
                .map(|h| HeadColumn {
                    name: h.name.clone(),
                    expr: remap(&h.expr),
                })
                .collect();
            b.preds = b.preds.iter().map(remap).collect();
            if let BoxKind::GroupBy(g) = &mut b.kind {
                g.group_by = g.group_by.iter().map(remap).collect();
            }
            if let BoxKind::Xnf(x) = &mut b.kind {
                for c in &mut x.components {
                    c.body = box_map[c.body];
                }
            }
            self.boxes.push(b);
        }
        self.quns = new_quns;
        self.top = self.top.map(|t| box_map[t]);
        self.outputs.retain(|o| qun_map[o.qun] != usize::MAX);
        for o in &mut self.outputs {
            o.qun = qun_map[o.qun];
        }
        debug_assert_eq!(self.check(), Ok(()));
    }

    /// Basic structural sanity checks (used by debug assertions and tests).
    pub fn check(&self) -> Result<(), String> {
        for (i, b) in self.boxes.iter().enumerate() {
            if b.id != i {
                return Err(format!("box {i} has wrong id {}", b.id));
            }
            for &q in &b.quns {
                if q >= self.quns.len() {
                    return Err(format!("box {i} references missing quantifier {q}"));
                }
                if self.quns[q].ranges_over >= self.boxes.len() {
                    return Err(format!("quantifier {q} ranges over missing box"));
                }
            }
        }
        // Each quantifier is owned by at most one box.
        let mut owners = vec![0usize; self.quns.len()];
        for b in &self.boxes {
            for &q in &b.quns {
                owners[q] += 1;
            }
        }
        if let Some(q) = owners.iter().position(|&c| c > 1) {
            return Err(format!("quantifier {q} owned by multiple boxes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_storage::{DataType, Value};

    fn base_schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)])
    }

    #[test]
    fn build_simple_graph() {
        let mut g = Qgm::new();
        let bt = g.add_box(
            BoxKind::BaseTable {
                table: "T".into(),
                schema: base_schema(),
            },
            "T",
        );
        let sel = g.add_box(BoxKind::Select(SelectBox::default()), "q");
        let q = g.add_qun(sel, QunKind::Foreach, bt, "t");
        g.boxes[sel].head.push(HeadColumn {
            name: "a".into(),
            expr: ScalarExpr::col(q, 0),
        });
        g.boxes[sel].preds.push(ScalarExpr::eq(
            ScalarExpr::col(q, 1),
            ScalarExpr::Literal(Value::Str("x".into())),
        ));
        let top = g.add_box(BoxKind::Top, "top");
        let tq = g.add_qun(top, QunKind::Foreach, sel, "out");
        g.top = Some(top);
        g.outputs.push(OutputDesc {
            qun: tq,
            name: "result".into(),
            kind: OutputKind::Table,
        });

        g.check().unwrap();
        assert_eq!(g.ref_counts()[bt], 1);
        assert_eq!(g.ref_counts()[sel], 1);
        let reach = g.reachable_boxes();
        assert!(reach.iter().all(|&r| r));
        assert_eq!(g.count_kind("Select"), 1);
        assert_eq!(g.col_name(q, 1), "t.b");
        assert_eq!(g.col_name(q, ROWID_COL), "t#rowid");
    }

    #[test]
    fn unreachable_boxes_detected() {
        let mut g = Qgm::new();
        let bt = g.add_box(
            BoxKind::BaseTable {
                table: "T".into(),
                schema: base_schema(),
            },
            "T",
        );
        let orphan = g.add_box(BoxKind::Select(SelectBox::default()), "orphan");
        let top = g.add_box(BoxKind::Top, "top");
        g.add_qun(top, QunKind::Foreach, bt, "t");
        g.top = Some(top);
        let reach = g.reachable_boxes();
        assert!(reach[bt]);
        assert!(!reach[orphan]);
    }

    #[test]
    fn compact_removes_unreachable_boxes() {
        let mut g = Qgm::new();
        let bt = g.add_box(
            BoxKind::BaseTable {
                table: "T".into(),
                schema: base_schema(),
            },
            "T",
        );
        let dead = g.add_box(BoxKind::Select(SelectBox::default()), "dead");
        let _dead_q = g.add_qun(dead, QunKind::Foreach, bt, "d");
        let sel = g.add_box(BoxKind::Select(SelectBox::default()), "live");
        let q = g.add_qun(sel, QunKind::Foreach, bt, "t");
        g.boxes[sel].head.push(HeadColumn {
            name: "a".into(),
            expr: ScalarExpr::col(q, 0),
        });
        let top = g.add_box(BoxKind::Top, "top");
        let tq = g.add_qun(top, QunKind::Foreach, sel, "out");
        g.top = Some(top);
        g.outputs.push(OutputDesc {
            qun: tq,
            name: "result".into(),
            kind: OutputKind::Table,
        });

        g.compact();
        g.check().unwrap();
        assert_eq!(g.boxes.len(), 3, "dead box dropped");
        assert_eq!(g.quns.len(), 2, "dead quantifier dropped");
        assert!(g.boxes.iter().all(|b| b.label != "dead"));
        // The output still resolves and the head still points at the scan.
        let out_qun = g.outputs[0].qun;
        let body = g.quns[out_qun].ranges_over;
        assert_eq!(g.boxed(body).label, "live");
        assert_eq!(g.boxed(body).head[0].expr.quns().len(), 1);
    }

    #[test]
    fn owner_lookup() {
        let mut g = Qgm::new();
        let bt = g.add_box(
            BoxKind::BaseTable {
                table: "T".into(),
                schema: base_schema(),
            },
            "T",
        );
        let sel = g.add_box(BoxKind::Select(SelectBox::default()), "s");
        let q = g.add_qun(sel, QunKind::Semi, bt, "t");
        assert_eq!(g.owner_of(q), Some(sel));
        assert_eq!(g.qun(q).kind, QunKind::Semi);
    }
}
