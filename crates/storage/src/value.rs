//! Runtime values and data types.
//!
//! The engine is dynamically typed at execution time (every column slot holds
//! a [`Value`]), but statically described by [`DataType`]s in the catalog.
//! Comparison follows SQL semantics except that `NULL` ordering is total
//! (NULL sorts first) so values can be used as B-tree keys; *predicate*
//! three-valued NULL semantics are enforced by the expression evaluator, not
//! here.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Result, StorageError};

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// Variable-length UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Accepts any runtime value. Used for derived storage whose column
    /// types are not declared in DDL (materialized-view backing tables):
    /// the rows are produced by the executor, which is dynamically typed.
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Any => write!(f, "ANY"),
        }
    }
}

/// A single runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// Name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "VARCHAR",
            Value::Bool(_) => "BOOLEAN",
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, coercing from Double when lossless.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Double(d) if d.fract() == 0.0 => Ok(*d as i64),
            other => Err(StorageError::TypeMismatch {
                expected: "INT",
                got: other.type_name(),
            }),
        }
    }

    /// Extract a float, coercing from Int.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(d) => Ok(*d),
            Value::Int(i) => Ok(*i as f64),
            other => Err(StorageError::TypeMismatch {
                expected: "DOUBLE",
                got: other.type_name(),
            }),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(StorageError::TypeMismatch {
                expected: "VARCHAR",
                got: other.type_name(),
            }),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(StorageError::TypeMismatch {
                expected: "BOOLEAN",
                got: other.type_name(),
            }),
        }
    }

    /// Check that this value may be stored in a column of type `ty`.
    ///
    /// NULL is storable in any column (nullability is checked by the catalog
    /// layer); Int is storable in a Double column (widening); `Any` columns
    /// (derived storage such as materialized-view backing tables) accept
    /// every value.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (_, DataType::Any)
                | (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Double)
                | (Value::Double(_), DataType::Double)
                | (Value::Str(_), DataType::Str)
                | (Value::Bool(_), DataType::Bool)
        )
    }

    /// SQL equality with numeric coercion; returns `None` when either side is
    /// NULL (three-valued logic: the evaluator maps this to UNKNOWN).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL ordering comparison; `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total ordering used for sorting and B-tree keys.
    ///
    /// NULL < Bool < numbers < strings; Int and Double compare numerically.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Double(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate in-memory footprint in bytes, used by the shipping
    /// simulation and the cost model.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Double that represent the same number must hash alike
            // because total_cmp treats them as equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_ne!(Value::Int(3), Value::Double(3.5));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Double(3.0)));
    }

    #[test]
    fn sql_eq_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Double(2.5),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert!(matches!(vals[1], Value::Bool(_)));
        assert_eq!(vals[2], Value::Double(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert!(matches!(vals[4], Value::Str(_)));
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Double));
        assert!(!Value::Double(1.0).conforms_to(DataType::Int));
        assert!(!Value::Str("x".into()).conforms_to(DataType::Bool));
    }

    #[test]
    fn coercing_accessors() {
        assert_eq!(Value::Double(4.0).as_int().unwrap(), 4);
        assert!(Value::Double(4.5).as_int().is_err());
        assert_eq!(Value::Int(4).as_double().unwrap(), 4.0);
        assert!(Value::Str("x".into()).as_bool().is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abc".into()).byte_size(), 7);
        assert_eq!(Value::Null.byte_size(), 1);
    }
}
