//! Physical expression evaluation with SQL three-valued logic.

use std::collections::HashMap;
use std::sync::Arc;

use xnf_plan::PhysExpr;
use xnf_qgm::QunId;
use xnf_sql::{BinOp, ScalarFunc, UnaryOp};
use xnf_storage::{Snapshot, Value};

use crate::error::{ExecError, Result};

/// A runtime row.
pub type Row = Vec<Value>;

/// Prepared-statement parameter bindings, positional. Shared (`Arc`) so the
/// parallel extraction path can hand the same table to every stream thread.
pub type Params = Arc<Vec<Value>>;

/// The visibility handle threaded through execution: the MVCC snapshot
/// scans and index lookups filter tuple versions against. `None` means
/// "latest committed state" (resolved per run by the engine).
pub type Visibility = Option<Snapshot>;

/// Evaluation context: correlation bindings (outer quantifier → its current
/// row), the parameter binding table for [`PhysExpr::Param`] slots, and the
/// visibility handle for snapshot-aware reads.
#[derive(Debug, Clone, Default)]
pub struct OuterCtx {
    rows: HashMap<QunId, Row>,
    params: Params,
    visibility: Visibility,
}

impl OuterCtx {
    pub fn new() -> Self {
        OuterCtx::default()
    }

    /// A context with parameter bindings (prepared-statement execution).
    pub fn with_params(params: Params) -> Self {
        OuterCtx {
            rows: HashMap::new(),
            params,
            visibility: None,
        }
    }

    /// A context with parameter bindings and an explicit snapshot (reads
    /// inside an open transaction).
    pub fn with_params_and_visibility(params: Params, visibility: Visibility) -> Self {
        OuterCtx {
            rows: HashMap::new(),
            params,
            visibility,
        }
    }

    /// The snapshot reads should filter against (if pinned to one).
    pub fn visibility(&self) -> &Visibility {
        &self.visibility
    }

    pub fn set_visibility(&mut self, visibility: Visibility) {
        self.visibility = visibility;
    }

    pub fn get(&self, qun: &QunId) -> Option<&Row> {
        self.rows.get(qun)
    }

    pub fn insert(&mut self, qun: QunId, row: Row) -> Option<Row> {
        self.rows.insert(qun, row)
    }

    pub fn remove(&mut self, qun: &QunId) -> Option<Row> {
        self.rows.remove(qun)
    }

    pub fn params(&self) -> &Params {
        &self.params
    }

    fn param(&self, i: usize) -> Result<&Value> {
        self.params.get(i).ok_or_else(|| {
            ExecError::MissingBinding(format!(
                "parameter ?{} (only {} bound)",
                i + 1,
                self.params.len()
            ))
        })
    }
}

/// Evaluate `expr` against `row` (and `outer` correlation bindings).
/// `aggs` resolves [`PhysExpr::AggRef`] slots inside aggregate output
/// expressions; pass `&[]` elsewhere.
pub fn eval(expr: &PhysExpr, row: &[Value], outer: &OuterCtx, aggs: &[Value]) -> Result<Value> {
    Ok(match expr {
        PhysExpr::Literal(v) => v.clone(),
        PhysExpr::Param(i) => outer.param(*i)?.clone(),
        PhysExpr::Col(i) => row.get(*i).cloned().ok_or_else(|| {
            ExecError::Type(format!("row has no slot #{i} (width {})", row.len()))
        })?,
        PhysExpr::Outer { qun, col } => {
            let r = outer
                .get(qun)
                .ok_or_else(|| ExecError::MissingBinding(format!("q{qun}")))?;
            r.get(*col)
                .cloned()
                .ok_or_else(|| ExecError::Type(format!("outer q{qun} has no column {col}")))?
        }
        PhysExpr::AggRef(i) => aggs
            .get(*i)
            .cloned()
            .ok_or_else(|| ExecError::Type(format!("no aggregate slot {i}")))?,
        PhysExpr::Unary { op, expr } => {
            let v = eval(expr, row, outer, aggs)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(
                        i.checked_neg()
                            .ok_or(ExecError::Arithmetic("negate overflow"))?,
                    ),
                    Value::Double(d) => Value::Double(-d),
                    other => {
                        return Err(ExecError::Type(format!(
                            "cannot negate {}",
                            other.type_name()
                        )))
                    }
                },
                UnaryOp::Not => match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => return Err(ExecError::Type(format!("NOT of {}", other.type_name()))),
                },
            }
        }
        PhysExpr::Binary { left, op, right } => {
            // Short-circuiting three-valued AND/OR.
            if *op == BinOp::And || *op == BinOp::Or {
                return eval_logical(*op, left, right, row, outer, aggs);
            }
            let l = eval(left, row, outer, aggs)?;
            let r = eval(right, row, outer, aggs)?;
            eval_binary(*op, l, r)?
        }
        PhysExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, outer, aggs)?;
            Value::Bool(v.is_null() != *negated)
        }
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, outer, aggs)?;
            match v {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Bool(like_match(&s, pattern) != *negated),
                other => return Err(ExecError::Type(format!("LIKE on {}", other.type_name()))),
            }
        }
        PhysExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, outer, aggs)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            let mut found = false;
            for e in list {
                let x = eval(e, row, outer, aggs)?;
                match v.sql_eq(&x) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if found {
                Value::Bool(!*negated)
            } else if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            }
        }
        PhysExpr::Func { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, outer, aggs)?);
            }
            eval_func(*func, &vals)?
        }
    })
}

fn eval_logical(
    op: BinOp,
    left: &PhysExpr,
    right: &PhysExpr,
    row: &[Value],
    outer: &OuterCtx,
    aggs: &[Value],
) -> Result<Value> {
    let l = eval(left, row, outer, aggs)?;
    let l = to_tri(l)?;
    match (op, l) {
        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = to_tri(eval(right, row, outer, aggs)?)?;
    Ok(match op {
        BinOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!(),
    })
}

fn to_tri(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(ExecError::Type(format!(
            "boolean expected, got {}",
            other.type_name()
        ))),
    }
}

fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let ord = match l.sql_cmp(&r) {
                None => return Ok(Value::Null),
                Some(o) => o,
            };
            let b = match op {
                Eq => ord.is_eq(),
                NotEq => !ord.is_eq(),
                Lt => ord.is_lt(),
                LtEq => ord.is_le(),
                Gt => ord.is_gt(),
                GtEq => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => {
                    let a = *a;
                    let b = *b;
                    let v = match op {
                        Add => a.checked_add(b),
                        Sub => a.checked_sub(b),
                        Mul => a.checked_mul(b),
                        Div => {
                            if b == 0 {
                                return Err(ExecError::Arithmetic("division by zero"));
                            }
                            a.checked_div(b)
                        }
                        Mod => {
                            if b == 0 {
                                return Err(ExecError::Arithmetic("modulo by zero"));
                            }
                            a.checked_rem(b)
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(
                        v.ok_or(ExecError::Arithmetic("integer overflow"))?,
                    ))
                }
                _ => {
                    let a = l
                        .as_double()
                        .map_err(|_| ExecError::Type(format!("arithmetic on {}", l.type_name())))?;
                    let b = r
                        .as_double()
                        .map_err(|_| ExecError::Type(format!("arithmetic on {}", r.type_name())))?;
                    let v = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => {
                            if b == 0.0 {
                                return Err(ExecError::Arithmetic("division by zero"));
                            }
                            a / b
                        }
                        Mod => a % b,
                        _ => unreachable!(),
                    };
                    Ok(Value::Double(v))
                }
            }
        }
        And | Or => unreachable!("handled by eval_logical"),
    }
}

fn eval_func(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    let arg = |i: usize| -> Result<&Value> {
        args.get(i)
            .ok_or_else(|| ExecError::Type(format!("{func} needs argument {i}")))
    };
    let v = arg(0)?;
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match func {
        ScalarFunc::Abs => match v {
            Value::Int(i) => Value::Int(
                i.checked_abs()
                    .ok_or(ExecError::Arithmetic("abs overflow"))?,
            ),
            Value::Double(d) => Value::Double(d.abs()),
            other => return Err(ExecError::Type(format!("ABS of {}", other.type_name()))),
        },
        ScalarFunc::Upper => Value::Str(v.as_str().map_err(ExecError::from)?.to_uppercase()),
        ScalarFunc::Lower => Value::Str(v.as_str().map_err(ExecError::from)?.to_lowercase()),
        ScalarFunc::Length => {
            Value::Int(v.as_str().map_err(ExecError::from)?.chars().count() as i64)
        }
    })
}

/// Does a predicate value count as a match? (TRUE only; NULL = UNKNOWN.)
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Evaluate a conjunction of predicates; short-circuits on a non-match.
pub fn passes(preds: &[PhysExpr], row: &[Value], outer: &OuterCtx) -> Result<bool> {
    for p in preds {
        if !truthy(&eval(p, row, outer, &[])?) {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// batch-at-a-time entry points
// ---------------------------------------------------------------------------
//
// Operators call these once per RowBatch, so predicate/projection dispatch
// (and the conjunction walk) is set up once per chunk instead of once per
// row — the vectorized counterparts of [`passes`] and per-row projection.

use crate::batch::RowBatch;

/// One conjunct classified for batch evaluation. Comparisons of a row slot
/// against a constant — a literal or a bound `?` parameter, the dominant
/// shape of scan filters and join residuals — run as tight `sql_cmp` loops
/// without re-entering the recursive interpreter for every row; everything
/// else falls back to [`eval`].
enum BatchPred {
    /// `#col <op> constant` (or the flipped spelling).
    ColLit {
        col: usize,
        op: BinOp,
        lit: Value,
    },
    General(PhysExpr),
}

/// A conjunction classified once and applied to many rows. A scan or index
/// probe compiles its filter once, on its first pull, and then tests every
/// decoded tuple inline. `#col op ?n` takes the constant path with the
/// parameter resolved at compile time, so compiling fails with
/// [`ExecError::MissingBinding`] when `?n` is unbound, as evaluating it
/// would.
pub struct CompiledPreds {
    preds: Vec<BatchPred>,
}

impl CompiledPreds {
    pub fn compile(preds: &[PhysExpr], outer: &OuterCtx) -> Result<CompiledPreds> {
        let preds = preds
            .iter()
            .map(|p| classify(p, outer))
            .collect::<Result<_>>()?;
        Ok(CompiledPreds { preds })
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Does `row` satisfy every conjunct? (NULL = UNKNOWN = no.)
    pub fn matches(&self, row: &[Value], outer: &OuterCtx) -> Result<bool> {
        for p in &self.preds {
            match p {
                BatchPred::ColLit { col, op, lit } => {
                    let v = row.get(*col).ok_or_else(|| {
                        ExecError::Type(format!("row has no slot #{col} (width {})", row.len()))
                    })?;
                    let ok = match v.sql_cmp(lit) {
                        None => false,
                        Some(ord) => cmp_matches(*op, ord),
                    };
                    if !ok {
                        return Ok(false);
                    }
                }
                BatchPred::General(p) => {
                    if !truthy(&eval(p, row, outer, &[])?) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Retain only the rows of `batch` that satisfy every conjunct,
    /// compacting it in place.
    pub fn retain(&self, batch: &mut RowBatch, outer: &OuterCtx) -> Result<()> {
        batch.try_retain(|row| self.matches(row, outer))
    }
}

fn classify(p: &PhysExpr, outer: &OuterCtx) -> Result<BatchPred> {
    use BinOp::*;
    let constant = |e: &PhysExpr| -> Result<Option<Value>> {
        Ok(match e {
            PhysExpr::Literal(v) => Some(v.clone()),
            PhysExpr::Param(i) => Some(outer.param(*i)?.clone()),
            _ => None,
        })
    };
    if let PhysExpr::Binary { left, op, right } = p {
        if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
            match (&**left, &**right) {
                (PhysExpr::Col(c), k) => {
                    if let Some(lit) = constant(k)? {
                        return Ok(BatchPred::ColLit {
                            col: *c,
                            op: *op,
                            lit,
                        });
                    }
                }
                (k, PhysExpr::Col(c)) => {
                    if let Some(lit) = constant(k)? {
                        // `constant op col` ≡ `col flip(op) constant`.
                        let flipped = match op {
                            Lt => Gt,
                            LtEq => GtEq,
                            Gt => Lt,
                            GtEq => LtEq,
                            other => *other,
                        };
                        return Ok(BatchPred::ColLit {
                            col: *c,
                            op: flipped,
                            lit,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    Ok(BatchPred::General(p.clone()))
}

fn cmp_matches(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        _ => unreachable!("classify only admits comparisons"),
    }
}

/// Retain only the rows of `batch` that satisfy every predicate in `preds`,
/// compiling them for this one batch. A no-op (no mask allocation) for an
/// empty conjunction.
pub fn filter_batch(preds: &[PhysExpr], batch: &mut RowBatch, outer: &OuterCtx) -> Result<()> {
    if preds.is_empty() || batch.is_empty() {
        return Ok(());
    }
    CompiledPreds::compile(preds, outer)?.retain(batch, outer)
}

/// Project every row of `batch` through `exprs` into a fresh batch, each
/// row's values written straight into its buffer.
pub fn project_batch(exprs: &[PhysExpr], batch: &RowBatch, outer: &OuterCtx) -> Result<RowBatch> {
    let mut out = RowBatch::with_capacity(exprs.len(), batch.len());
    for row in batch.iter() {
        out.push_with(|projected| {
            for e in exprs {
                projected.push(eval(e, row, outer, &[])?);
            }
            Ok::<(), ExecError>(())
        })?;
    }
    Ok(out)
}

/// SQL LIKE matcher: `%` = any sequence, `_` = any single character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => {
                // Try all split points (including empty).
                (0..=s.len()).any(|i| rec(&s[i..], rest))
            }
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> PhysExpr {
        PhysExpr::Literal(v.into())
    }

    fn b(l: PhysExpr, op: BinOp, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    fn ev(e: &PhysExpr) -> Value {
        eval(e, &[], &OuterCtx::new(), &[]).unwrap()
    }

    #[test]
    fn arithmetic_and_promotion() {
        assert_eq!(ev(&b(lit(2i64), BinOp::Add, lit(3i64))), Value::Int(5));
        assert_eq!(
            ev(&b(lit(2i64), BinOp::Mul, lit(2.5f64))),
            Value::Double(5.0)
        );
        assert_eq!(ev(&b(lit(7i64), BinOp::Div, lit(2i64))), Value::Int(3));
        assert!(eval(
            &b(lit(1i64), BinOp::Div, lit(0i64)),
            &[],
            &OuterCtx::new(),
            &[]
        )
        .is_err());
    }

    #[test]
    fn null_propagation() {
        let null = PhysExpr::Literal(Value::Null);
        assert_eq!(ev(&b(null.clone(), BinOp::Add, lit(1i64))), Value::Null);
        assert_eq!(ev(&b(null.clone(), BinOp::Eq, lit(1i64))), Value::Null);
        // Kleene logic.
        assert_eq!(
            ev(&b(null.clone(), BinOp::And, lit(false))),
            Value::Bool(false)
        );
        assert_eq!(ev(&b(null.clone(), BinOp::And, lit(true))), Value::Null);
        assert_eq!(
            ev(&b(null.clone(), BinOp::Or, lit(true))),
            Value::Bool(true)
        );
        assert_eq!(ev(&b(null, BinOp::Or, lit(false))), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev(&b(lit("a"), BinOp::Lt, lit("b"))), Value::Bool(true));
        assert_eq!(
            ev(&b(lit(2i64), BinOp::GtEq, lit(2.0f64))),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("ARC", "ARC"));
        assert!(like_match("ARCADE", "ARC%"));
        assert!(like_match("xARCx", "%ARC%"));
        assert!(like_match("AxC", "A_C"));
        assert!(!like_match("AxxC", "A_C"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_"));
    }

    #[test]
    fn in_list_three_valued() {
        let e = PhysExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(2i64), PhysExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Null, "no match but NULL present = UNKNOWN");
        let e = PhysExpr::InList {
            expr: Box::new(lit(2i64)),
            list: vec![lit(2i64), PhysExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn outer_references() {
        let mut outer = OuterCtx::new();
        outer.insert(7, vec![Value::Int(42)]);
        let e = PhysExpr::Outer { qun: 7, col: 0 };
        assert_eq!(eval(&e, &[], &outer, &[]).unwrap(), Value::Int(42));
        let missing = PhysExpr::Outer { qun: 8, col: 0 };
        assert!(matches!(
            eval(&missing, &[], &outer, &[]),
            Err(ExecError::MissingBinding(_))
        ));
    }

    #[test]
    fn param_references() {
        use std::sync::Arc;
        let ctx = OuterCtx::with_params(Arc::new(vec![Value::Int(7), Value::Str("x".into())]));
        assert_eq!(
            eval(&PhysExpr::Param(0), &[], &ctx, &[]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            eval(&PhysExpr::Param(1), &[], &ctx, &[]).unwrap(),
            Value::Str("x".into())
        );
        assert!(matches!(
            eval(&PhysExpr::Param(2), &[], &ctx, &[]),
            Err(ExecError::MissingBinding(_))
        ));
    }

    /// `#col op ?` (and `? op #col`) through the compiled fast path agrees
    /// with `eval` + `truthy` for every comparison, on NULL parameters,
    /// mixed numeric types, cross-type rank order and NULL columns.
    #[test]
    fn param_comparisons_take_the_fast_path_with_eval_semantics() {
        use std::sync::Arc;
        let cases = [
            (Value::Int(5), Value::Null),
            (Value::Int(5), Value::Double(5.0)),
            (Value::Int(5), Value::Double(4.5)),
            (Value::Double(2.5), Value::Int(3)),
            (Value::Str("a".into()), Value::Int(1)),
            (Value::Int(1), Value::Str("a".into())),
            (Value::Null, Value::Int(1)),
        ];
        let ops = [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ];
        for (col, param) in cases {
            let ctx = OuterCtx::with_params(Arc::new(vec![param.clone()]));
            let row = [Value::Int(0), col.clone()];
            for op in ops {
                for pred in [
                    b(PhysExpr::Col(1), op, PhysExpr::Param(0)),
                    b(PhysExpr::Param(0), op, PhysExpr::Col(1)),
                ] {
                    let compiled = CompiledPreds::compile(std::slice::from_ref(&pred), &ctx)
                        .expect("the parameter is bound");
                    assert!(
                        matches!(compiled.preds[..], [BatchPred::ColLit { .. }]),
                        "{pred} missed the fast path"
                    );
                    let want = truthy(&eval(&pred, &row, &ctx, &[]).unwrap());
                    assert_eq!(
                        compiled.matches(&row, &ctx).unwrap(),
                        want,
                        "{pred} with #1 = {col:?}, ?0 = {param:?}"
                    );
                }
            }
        }
        // An unbound parameter fails as evaluating it would.
        let pred = b(PhysExpr::Col(0), BinOp::Eq, PhysExpr::Param(1));
        let ctx = OuterCtx::with_params(Arc::new(vec![Value::Int(1)]));
        assert!(matches!(
            CompiledPreds::compile(&[pred], &ctx),
            Err(ExecError::MissingBinding(_))
        ));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            ev(&PhysExpr::Func {
                func: ScalarFunc::Upper,
                args: vec![lit("arc")]
            }),
            Value::Str("ARC".into())
        );
        assert_eq!(
            ev(&PhysExpr::Func {
                func: ScalarFunc::Length,
                args: vec![lit("héllo")]
            }),
            Value::Int(5)
        );
        assert_eq!(
            ev(&PhysExpr::Func {
                func: ScalarFunc::Abs,
                args: vec![lit(-3i64)]
            }),
            Value::Int(3)
        );
    }
}
