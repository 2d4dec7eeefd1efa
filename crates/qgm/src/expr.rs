//! Resolved scalar expressions over quantifier columns.
//!
//! Unlike the AST ([`xnf_sql::Expr`]), every column reference here is bound
//! to a quantifier and a column ordinal of the box that quantifier ranges
//! over. Subqueries never appear: EXISTS/IN are represented as quantifiers
//! during semantic analysis (Sect. 3.2 of the paper), which is exactly what
//! makes the E-to-F rewrite a pure graph transformation.

use std::fmt;

use xnf_sql::{AggFunc, BinOp, ScalarFunc, UnaryOp};
use xnf_storage::Value;

/// Quantifier identifier (index into [`crate::graph::Qgm::quns`]).
pub type QunId = usize;

/// A resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    Literal(Value),
    /// Positional parameter placeholder — an opaque constant during rewrite
    /// and planning, bound to a concrete [`Value`] at execution time.
    Param(usize),
    /// Column `col` of the box that quantifier `qun` ranges over.
    Col {
        qun: QunId,
        col: usize,
    },
    Unary {
        op: UnaryOp,
        expr: Box<ScalarExpr>,
    },
    Binary {
        left: Box<ScalarExpr>,
        op: BinOp,
        right: Box<ScalarExpr>,
    },
    IsNull {
        expr: Box<ScalarExpr>,
        negated: bool,
    },
    Like {
        expr: Box<ScalarExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<ScalarExpr>,
        list: Vec<ScalarExpr>,
        negated: bool,
    },
    Func {
        func: ScalarFunc,
        args: Vec<ScalarExpr>,
    },
    /// Aggregate — valid only in the head/predicates of a GroupBy box.
    Agg {
        func: AggFunc,
        arg: Option<Box<ScalarExpr>>,
        distinct: bool,
    },
}

impl ScalarExpr {
    pub fn col(qun: QunId, col: usize) -> ScalarExpr {
        ScalarExpr::Col { qun, col }
    }

    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(left),
            op: BinOp::Eq,
            right: Box::new(right),
        }
    }

    pub fn and(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(left),
            op: BinOp::And,
            right: Box::new(right),
        }
    }

    pub fn or(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(left),
            op: BinOp::Or,
            right: Box::new(right),
        }
    }

    /// All quantifiers referenced by this expression.
    pub fn referenced_quns(&self, out: &mut Vec<QunId>) {
        match self {
            ScalarExpr::Literal(_) | ScalarExpr::Param(_) => {}
            ScalarExpr::Col { qun, .. } => {
                if !out.contains(qun) {
                    out.push(*qun);
                }
            }
            ScalarExpr::Unary { expr, .. } => expr.referenced_quns(out),
            ScalarExpr::Binary { left, right, .. } => {
                left.referenced_quns(out);
                right.referenced_quns(out);
            }
            ScalarExpr::IsNull { expr, .. } => expr.referenced_quns(out),
            ScalarExpr::Like { expr, .. } => expr.referenced_quns(out),
            ScalarExpr::InList { expr, list, .. } => {
                expr.referenced_quns(out);
                for e in list {
                    e.referenced_quns(out);
                }
            }
            ScalarExpr::Func { args, .. } => {
                for e in args {
                    e.referenced_quns(out);
                }
            }
            ScalarExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_quns(out);
                }
            }
        }
    }

    pub fn quns(&self) -> Vec<QunId> {
        let mut v = Vec::new();
        self.referenced_quns(&mut v);
        v
    }

    /// Rewrite every column reference with `f` (used by box merge and the
    /// E-to-F conversion to re-home columns onto new quantifiers).
    pub fn map_cols(&self, f: &mut impl FnMut(QunId, usize) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Param(i) => ScalarExpr::Param(*i),
            ScalarExpr::Col { qun, col } => f(*qun, *col),
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.map_cols(f)),
            },
            ScalarExpr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(left.map_cols(f)),
                op: *op,
                right: Box::new(right.map_cols(f)),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_cols(f)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.map_cols(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.map_cols(f)),
                list: list.iter().map(|e| e.map_cols(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Func { func, args } => ScalarExpr::Func {
                func: *func,
                args: args.iter().map(|e| e.map_cols(f)).collect(),
            },
            ScalarExpr::Agg {
                func,
                arg,
                distinct,
            } => ScalarExpr::Agg {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.map_cols(f))),
                distinct: *distinct,
            },
        }
    }

    /// Does the expression contain an aggregate?
    pub fn contains_agg(&self) -> bool {
        match self {
            ScalarExpr::Agg { .. } => true,
            ScalarExpr::Literal(_) | ScalarExpr::Param(_) | ScalarExpr::Col { .. } => false,
            ScalarExpr::Unary { expr, .. }
            | ScalarExpr::IsNull { expr, .. }
            | ScalarExpr::Like { expr, .. } => expr.contains_agg(),
            ScalarExpr::Binary { left, right, .. } => left.contains_agg() || right.contains_agg(),
            ScalarExpr::InList { expr, list, .. } => {
                expr.contains_agg() || list.iter().any(|e| e.contains_agg())
            }
            ScalarExpr::Func { args, .. } => args.iter().any(|e| e.contains_agg()),
        }
    }

    /// Structural equality key used for common-subexpression detection and
    /// rule matching; `Display` is injective enough for our expression space.
    pub fn signature(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Param(i) => write!(f, "?{i}"),
            ScalarExpr::Col { qun, col } => write!(f, "q{qun}.c{col}"),
            ScalarExpr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => write!(f, "-{expr}"),
            ScalarExpr::Unary {
                op: UnaryOp::Not,
                expr,
            } => write!(f, "NOT({expr})"),
            ScalarExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::IsNull {
                expr,
                negated: false,
            } => write!(f, "{expr} IS NULL"),
            ScalarExpr::IsNull {
                expr,
                negated: true,
            } => write!(f, "{expr} IS NOT NULL"),
            ScalarExpr::Like {
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
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(",")
                )
            }
            ScalarExpr::Func { func, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{func}({})", items.join(","))
            }
            ScalarExpr::Agg {
                func, arg: None, ..
            } => write!(f, "{func}(*)"),
            ScalarExpr::Agg {
                func,
                arg: Some(a),
                distinct,
            } => {
                write!(f, "{func}({}{a})", if *distinct { "DISTINCT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_quns_deduplicates() {
        let e = ScalarExpr::and(
            ScalarExpr::eq(ScalarExpr::col(1, 0), ScalarExpr::col(2, 3)),
            ScalarExpr::eq(ScalarExpr::col(1, 1), ScalarExpr::Literal(Value::Int(5))),
        );
        assert_eq!(e.quns(), vec![1, 2]);
    }

    #[test]
    fn map_cols_rewrites_every_reference() {
        let e = ScalarExpr::eq(ScalarExpr::col(1, 0), ScalarExpr::col(2, 3));
        let moved = e.map_cols(&mut |q, c| ScalarExpr::col(q + 10, c));
        assert_eq!(moved.quns(), vec![11, 12]);
    }

    #[test]
    fn signatures_distinguish_expressions() {
        let a = ScalarExpr::eq(ScalarExpr::col(1, 0), ScalarExpr::Literal(Value::Int(5)));
        let b = ScalarExpr::eq(ScalarExpr::col(1, 0), ScalarExpr::Literal(Value::Int(6)));
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), a.clone().signature());
    }
}
