//! Abstract syntax trees for the SQL dialect and the XNF extension.
//!
//! The XNF constructor follows the paper's surface syntax (Fig. 1):
//!
//! ```sql
//! OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
//!        xemp  AS EMP,
//!        employment AS (RELATE xdept VIA EMPLOYS, xemp
//!                       WHERE xdept.dno = xemp.edno)
//! TAKE *
//! ```

use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Literal values in the AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// Scalar (non-aggregate) builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Upper,
    Lower,
    Length,
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Length => "LENGTH",
        };
        write!(f, "{s}")
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Literal),
    /// `?` — positional parameter, numbered left-to-right from 0 in parse
    /// order. Compiled as an opaque constant and bound at execution time.
    Param(usize),
    /// Column reference, optionally qualified: `alias.col` or `col`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr LIKE 'pattern'`.
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Select>,
        negated: bool,
    },
    /// `EXISTS (SELECT ...)`.
    Exists {
        subquery: Box<Select>,
        negated: bool,
    },
    /// Aggregate call; `COUNT(*)` is `Agg { func: Count, arg: None, .. }`.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// Scalar function call.
    Func {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinOp::And,
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinOp::Eq,
            right: Box::new(right),
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Does this expression contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } => false,
            Expr::Func { args, .. } => args.iter().any(|e| e.contains_aggregate()),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            // Parameters are numbered in textual order, so printing the bare
            // `?` round-trips: re-parsing assigns the same ordinals.
            Expr::Param(_) => write!(f, "?"),
            Expr::Column {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            Expr::Column {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => write!(f, "-{expr}"),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => write!(f, "NOT ({expr})"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::IsNull {
                expr,
                negated: false,
            } => write!(f, "{expr} IS NULL"),
            Expr::IsNull {
                expr,
                negated: true,
            } => write!(f, "{expr} IS NOT NULL"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "{expr} {}LIKE '{pattern}'",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                write!(
                    f,
                    "{expr} {}IN ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Exists { subquery, negated } => {
                write!(
                    f,
                    "{}EXISTS ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Agg {
                func, arg: None, ..
            } => write!(f, "{func}(*)"),
            Expr::Agg {
                func,
                arg: Some(a),
                distinct,
            } => {
                write!(f, "{func}({}{a})", if *distinct { "DISTINCT " } else { "" })
            }
            Expr::Func { func, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{func}({})", items.join(", "))
            }
        }
    }
}

/// One item in a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS name]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [AS alias]` — a base table or view.
    Named { name: String, alias: Option<String> },
    /// `(SELECT ...) AS alias` — a derived table (table expression).
    Derived { select: Box<Select>, alias: String },
}

impl TableRef {
    /// The binding name this reference introduces.
    pub fn binding(&self) -> &str {
        match self {
            TableRef::Named { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Derived { alias, .. } => alias,
        }
    }
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A SELECT query (possibly with UNION branches).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    /// UNION / UNION ALL continuations.
    pub unions: Vec<(bool /* all */, Select)>,
}

impl Select {
    pub fn empty() -> Select {
        Select {
            distinct: false,
            items: Vec::new(),
            from: Vec::new(),
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            unions: Vec::new(),
        }
    }
}

/// An explicit `JOIN ... ON ...` clause (inner joins only; the dialect's
/// outer-join needs are covered by XNF relationships).
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: Expr,
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let items: Vec<String> = self
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
                SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } => format!("{expr} AS {a}"),
                SelectItem::Expr { expr, alias: None } => expr.to_string(),
            })
            .collect();
        write!(f, "{}", items.join(", "))?;
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            let tables: Vec<String> = self
                .from
                .iter()
                .map(|t| match t {
                    TableRef::Named {
                        name,
                        alias: Some(a),
                    } => format!("{name} AS {a}"),
                    TableRef::Named { name, alias: None } => name.clone(),
                    TableRef::Derived { select, alias } => format!("({select}) AS {alias}"),
                })
                .collect();
            write!(f, "{}", tables.join(", "))?;
        }
        for j in &self.joins {
            let t = match &j.table {
                TableRef::Named {
                    name,
                    alias: Some(a),
                } => format!("{name} AS {a}"),
                TableRef::Named { name, alias: None } => name.clone(),
                TableRef::Derived { select, alias } => format!("({select}) AS {alias}"),
            };
            write!(f, " JOIN {t} ON {}", j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let g: Vec<String> = self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", g.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        for (all, s) in &self.unions {
            write!(f, " UNION {}{s}", if *all { "ALL " } else { "" })?;
        }
        if !self.order_by.is_empty() {
            let o: Vec<String> = self
                .order_by
                .iter()
                .map(|i| format!("{}{}", i.expr, if i.desc { " DESC" } else { "" }))
                .collect();
            write!(f, " ORDER BY {}", o.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: TypeName,
    pub not_null: bool,
}

/// Type names in DDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    Int,
    Double,
    Varchar,
    Boolean,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert {
        table: String,
        columns: Vec<String>,
        rows: Vec<Vec<Expr>>,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    CreateView {
        name: String,
        body: ViewBody,
        /// `CREATE MATERIALIZED VIEW`: the view's contents are stored in a
        /// backing table and kept fresh by incremental delta maintenance.
        materialized: bool,
    },
    DropTable {
        name: String,
    },
    DropView {
        name: String,
    },
    /// `REFRESH MATERIALIZED VIEW name`: full recompute of a materialized
    /// view's backing storage (the fallback when incremental maintenance is
    /// not applicable, and an explicit repair hammer).
    RefreshView {
        name: String,
    },
    Analyze {
        table: Option<String>,
    },
    /// `VACUUM [table]`: run MVCC garbage collection — reclaim dead tuple
    /// versions no live snapshot can see, freeze old committed versions and
    /// prune the commit-stamp table behind the live-snapshot low-watermark.
    /// With no table, every heap (base tables and materialized-view backing
    /// streams) is vacuumed; naming a materialized view vacuums all of its
    /// backing streams.
    Vacuum {
        table: Option<String>,
    },
    /// An XNF query at statement level.
    Xnf(XnfQuery),
}

/// The body of a CREATE VIEW: relational or XNF.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewBody {
    Select(Select),
    Xnf(XnfQuery),
}

// ---------------------------------------------------------------------------
// XNF AST
// ---------------------------------------------------------------------------

/// An XNF composite-object query: `OUT OF <defs> TAKE <take> [WHERE <restriction>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct XnfQuery {
    pub defs: Vec<XnfDef>,
    pub take: XnfTake,
    /// Optional restriction predicates; each conjunct must reference a single
    /// component (node or relationship) and is attached to its derivation.
    pub restriction: Option<Expr>,
}

/// A definition inside OUT OF.
#[derive(Debug, Clone, PartialEq)]
pub enum XnfDef {
    /// `name AS (SELECT ...)` or the shortcut `name AS BASETABLE`.
    Table {
        name: String,
        select: Box<Select>,
        root: bool,
    },
    /// `name AS (RELATE parent VIA role, child1 [, child2 ...]
    ///           [USING t1 a1, ...] WHERE pred)`.
    Relationship(XnfRelationship),
    /// `name` alone: include (inline) a previously defined XNF view.
    ViewRef { name: String },
}

/// A RELATE definition.
#[derive(Debug, Clone, PartialEq)]
pub struct XnfRelationship {
    pub name: String,
    pub parent: String,
    /// Role name from the VIA clause (e.g. EMPLOYS).
    pub role: String,
    /// One or more child components (n-ary relationships allowed).
    pub children: Vec<String>,
    /// Auxiliary tables from USING (e.g. mapping tables): (table, alias).
    pub using: Vec<(String, Option<String>)>,
    /// The relationship predicate.
    pub predicate: Expr,
}

/// The TAKE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum XnfTake {
    /// `TAKE *` — all components, all columns, all relationships.
    All,
    /// Explicit projection list.
    Items(Vec<XnfTakeItem>),
}

/// One projected element.
#[derive(Debug, Clone, PartialEq)]
pub struct XnfTakeItem {
    /// Component (node or relationship) name.
    pub name: String,
    /// Optional column projection for nodes: `xemp(eno, ename)`.
    pub columns: Option<Vec<String>>,
}

impl fmt::Display for XnfQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OUT OF ")?;
        let defs: Vec<String> = self
            .defs
            .iter()
            .map(|d| match d {
                XnfDef::Table { name, select, root } => {
                    format!("{}{name} AS ({select})", if *root { "ROOT " } else { "" })
                }
                XnfDef::Relationship(r) => {
                    let mut s = format!(
                        "{} AS (RELATE {} VIA {}, {}",
                        r.name,
                        r.parent,
                        r.role,
                        r.children.join(", ")
                    );
                    if !r.using.is_empty() {
                        let us: Vec<String> = r
                            .using
                            .iter()
                            .map(|(t, a)| match a {
                                Some(a) => format!("{t} {a}"),
                                None => t.clone(),
                            })
                            .collect();
                        s.push_str(&format!(" USING {}", us.join(", ")));
                    }
                    s.push_str(&format!(" WHERE {})", r.predicate));
                    s
                }
                XnfDef::ViewRef { name } => name.clone(),
            })
            .collect();
        write!(f, "{}", defs.join(", "))?;
        match &self.take {
            XnfTake::All => write!(f, " TAKE *")?,
            XnfTake::Items(items) => {
                let is: Vec<String> = items
                    .iter()
                    .map(|i| match &i.columns {
                        Some(cols) => format!("{}({})", i.name, cols.join(", ")),
                        None => i.name.clone(),
                    })
                    .collect();
                write!(f, " TAKE {}", is.join(", "))?;
            }
        }
        if let Some(r) = &self.restriction {
            write!(f, " WHERE {r}")?;
        }
        Ok(())
    }
}
