//! Typed values and predicates for the metadata catalog.

use std::cmp::Ordering;
use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Real,
    Text,
    Blob,
}

/// A dynamically-typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

impl Value {
    pub fn type_of(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Real(_) => Some(ColumnType::Real),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Blob(_) => Some(ColumnType::Blob),
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Real(_) => 1, // numerics compare together
            Value::Text(_) => 2,
            Value::Blob(_) => 3,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < numerics (Int/Real compared numerically) < Text
    /// < Blob. NaN sorts via `total_cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        let r = self.rank().cmp(&other.rank());
        if r != Ordering::Equal {
            return r;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            // Mixed / real numerics.
            (a, b) => {
                let (x, y) = (
                    a.as_real().unwrap_or(f64::NEG_INFINITY),
                    b.as_real().unwrap_or(f64::NEG_INFINITY),
                );
                x.total_cmp(&y)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Real(f64::from(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}

/// SQL-LIKE pattern matching: `%` matches any run, `_` any single char.
///
/// Iterative two-pointer matcher with greedy `%` backtracking — no
/// recursion (attacker patterns cannot blow the stack) and no slicing.
// mh-audit: no_panic_zone
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Most recent `%`: (pattern index after it, text index it last absorbed to).
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some('%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some('_') => {
                pi += 1;
                ti += 1;
            }
            Some(c) if t.get(ti) == Some(c) => {
                pi += 1;
                ti += 1;
            }
            _ => match star {
                // Backtrack: let the last `%` absorb one more char.
                Some((sp, st)) => {
                    pi = sp;
                    ti = st + 1;
                    star = Some((sp, st + 1));
                }
                None => return false,
            },
        }
    }
    while p.get(pi) == Some(&'%') {
        pi += 1;
    }
    pi == p.len()
}

/// A row predicate over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    True,
    Eq(String, Value),
    Ne(String, Value),
    Lt(String, Value),
    Le(String, Value),
    Gt(String, Value),
    Ge(String, Value),
    Like(String, String),
    IsNull(String),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate against a row described by a column-lookup closure.
    pub fn eval(&self, get: &dyn Fn(&str) -> Option<Value>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => get(c).is_some_and(|x| &x == v),
            Predicate::Ne(c, v) => get(c).is_some_and(|x| &x != v),
            Predicate::Lt(c, v) => get(c).is_some_and(|x| x < *v),
            Predicate::Le(c, v) => get(c).is_some_and(|x| x <= *v),
            Predicate::Gt(c, v) => get(c).is_some_and(|x| x > *v),
            Predicate::Ge(c, v) => get(c).is_some_and(|x| x >= *v),
            Predicate::Like(c, pat) => get(c)
                .and_then(|x| x.as_text().map(|t| like_match(pat, t)))
                .unwrap_or(false),
            Predicate::IsNull(c) => get(c).is_none_or(|x| x.is_null()),
            Predicate::And(a, b) => a.eval(get) && b.eval(get),
            Predicate::Or(a, b) => a.eval(get) || b.eval(get),
            Predicate::Not(a) => !a.eval(get),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_across_types() {
        assert!(Value::Null < Value::Int(0));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(1) < Value::Real(1.5));
        assert!(Value::Real(2.5) > Value::Int(2));
        assert!(Value::Int(100) < Value::Text("a".into()));
        assert!(Value::Text("abc".into()) < Value::Text("abd".into()));
        assert!(Value::Text("z".into()) < Value::Blob(vec![0]));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("alexnet_%", "alexnet_v1"));
        assert!(like_match("alexnet_%", "alexnet_")); // % matches empty
        assert!(!like_match("alexnet_%", "alexnet")); // _ needs a char
        assert!(like_match("%conv%", "my_conv_layer"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("exact", "exact"));
        assert!(!like_match("exact", "exac"));
    }

    #[test]
    fn predicate_eval() {
        let get = |c: &str| -> Option<Value> {
            match c {
                "name" => Some(Value::Text("alexnet-origin1".into())),
                "accuracy" => Some(Value::Real(0.57)),
                "id" => Some(Value::Int(3)),
                "note" => Some(Value::Null),
                _ => None,
            }
        };
        assert!(Predicate::Like("name".into(), "alexnet%".into()).eval(&get));
        assert!(Predicate::Gt("accuracy".into(), Value::Real(0.5)).eval(&get));
        assert!(Predicate::Eq("id".into(), Value::Int(3))
            .and(Predicate::Lt("accuracy".into(), Value::Real(0.6)))
            .eval(&get));
        assert!(Predicate::IsNull("note".into()).eval(&get));
        assert!(!Predicate::IsNull("id".into()).eval(&get));
        assert!(!Predicate::Not(Box::new(Predicate::True)).eval(&get));
        assert!(!Predicate::Eq("missing".into(), Value::Int(1)).eval(&get));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(1.5f32).as_real(), Some(1.5));
        assert_eq!(Value::Int(2).as_real(), Some(2.0));
    }
}
