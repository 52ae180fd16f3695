//! Expression evaluation over resolved rows.
//!
//! By execution time every `Expr::Column` has been rewritten to
//! `Expr::ColumnRef(i)` (an index into the operator's input row) and every
//! aggregate to `Expr::AggRef(i)`. Evaluation is fully dynamic-typed over
//! [`Value`], with SQL-ish NULL propagation: any arithmetic or comparison
//! with NULL yields NULL, and a NULL predicate is treated as false.

use crate::ast::{BinOp, Expr};
use veridb_common::{Error, Result, Row, Value};

/// Evaluate `expr` against `row`.
pub fn eval(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::ColumnRef(i) => {
            if *i >= row.len() {
                return Err(Error::Plan(format!(
                    "column reference {i} out of range for row of width {}",
                    row.len()
                )));
            }
            Ok(row[*i].clone())
        }
        Expr::AggRef(i) => {
            // Aggregate outputs are appended to the group row by the
            // aggregate operator; same access pattern as columns.
            if *i >= row.len() {
                return Err(Error::Plan(format!(
                    "aggregate reference {i} out of range for row of width {}",
                    row.len()
                )));
            }
            Ok(row[*i].clone())
        }
        Expr::Column { qualifier, name } => Err(Error::Plan(format!(
            "unresolved column {}{} reached execution",
            qualifier
                .as_deref()
                .map(|q| format!("{q}."))
                .unwrap_or_default(),
            name
        ))),
        Expr::Agg { .. } => Err(Error::Plan("unresolved aggregate reached execution".into())),
        Expr::Subquery(_) | Expr::InSubquery { .. } => {
            Err(Error::Plan("unlowered subquery reached execution".into()))
        }
        Expr::Neg(e) => match eval(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(Error::Type(format!("cannot negate {v}"))),
        },
        Expr::Not(e) => match eval_truth(e, row)? {
            Truth::True => Ok(Value::Int(0)),
            Truth::False => Ok(Value::Int(1)),
            Truth::Null => Ok(Value::Null),
        },
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row)?;
            let lo = eval(low, row)?;
            let hi = eval(high, row)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let within = cmp_values(&v, &lo)? >= std::cmp::Ordering::Equal
                && cmp_values(&v, &hi)? <= std::cmp::Ordering::Equal;
            Ok(bool_value(within != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row)?;
            let p = eval(pattern, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let hit = like_match(v.as_str()?, p.as_str()?);
            Ok(bool_value(hit != *negated))
        }
        Expr::Func { func, args } => {
            use crate::ast::ScalarFunc;
            let vals: Vec<Value> = args.iter().map(|a| eval(a, row)).collect::<Result<_>>()?;
            if vals.iter().any(|v| v.is_null()) {
                return Ok(Value::Null);
            }
            match func {
                ScalarFunc::Upper => Ok(Value::Str(vals[0].as_str()?.to_uppercase())),
                ScalarFunc::Lower => Ok(Value::Str(vals[0].as_str()?.to_lowercase())),
                ScalarFunc::Length => Ok(Value::Int(vals[0].as_str()?.chars().count() as i64)),
                ScalarFunc::Abs => match &vals[0] {
                    Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    v => Err(Error::Type(format!("ABS of non-numeric {v}"))),
                },
                ScalarFunc::Substr => {
                    if vals.len() < 2 || vals.len() > 3 {
                        return Err(Error::Type("SUBSTR takes 2 or 3 arguments".into()));
                    }
                    let sch: Vec<char> = vals[0].as_str()?.chars().collect();
                    // SQL semantics: 1-based start; clamp to bounds.
                    let start = (vals[1].as_i64()?.max(1) - 1) as usize;
                    let len = match vals.get(2) {
                        Some(n) => n.as_i64()?.max(0) as usize,
                        None => sch.len(),
                    };
                    let out: String = sch.iter().skip(start).take(len).collect();
                    Ok(Value::Str(out))
                }
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, row)?;
                if !iv.is_null() && cmp_values(&v, &iv)? == std::cmp::Ordering::Equal {
                    found = true;
                    break;
                }
            }
            Ok(bool_value(found != *negated))
        }
    }
}

/// Three-valued logic outcome of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (NULL involved).
    Null,
}

/// Evaluate `expr` as a predicate. SQL semantics: rows pass a filter only
/// on `True`.
pub fn eval_truth(expr: &Expr, row: &Row) -> Result<Truth> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => and3(left, right, row),
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => or3(left, right, row),
        Expr::Not(e) => Ok(match eval_truth(e, row)? {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Null => Truth::Null,
        }),
        other => match eval(other, row)? {
            Value::Null => Ok(Truth::Null),
            Value::Int(0) => Ok(Truth::False),
            Value::Int(_) => Ok(Truth::True),
            Value::Float(0.0) => Ok(Truth::False),
            Value::Float(_) => Ok(Truth::True),
            v => Err(Error::Type(format!("{v} is not a boolean"))),
        },
    }
}

/// Three-valued `left AND right`. Short-circuit: False AND x = False
/// without evaluating x (sound under three-valued logic and critical for
/// join predicates of the form `equi AND <expensive residual>`).
fn and3(left: &Expr, right: &Expr, row: &Row) -> Result<Truth> {
    Ok(match eval_truth(left, row)? {
        Truth::False => Truth::False,
        l => match (l, eval_truth(right, row)?) {
            (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Null,
        },
    })
}

/// Three-valued `left OR right`, short-circuiting on a True left side.
fn or3(left: &Expr, right: &Expr, row: &Row) -> Result<Truth> {
    Ok(match eval_truth(left, row)? {
        Truth::True => Truth::True,
        l => match (l, eval_truth(right, row)?) {
            (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Null,
        },
    })
}

/// True iff the predicate evaluates to `True` (filter semantics).
pub fn passes(expr: &Expr, row: &Row) -> Result<bool> {
    Ok(eval_truth(expr, row)? == Truth::True)
}

fn bool_value(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

/// Compare two non-null values, rejecting incomparable type mixes.
pub fn cmp_values(a: &Value, b: &Value) -> Result<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(_) | Float(_), Int(_) | Float(_)) | (Str(_), Str(_)) | (Date(_), Date(_)) => {
            Ok(a.cmp(b))
        }
        // Dates stored as ints compare against int literals.
        (Date(d), Int(i)) => Ok((*d as i64).cmp(i)),
        (Int(i), Date(d)) => Ok(i.cmp(&(*d as i64))),
        _ => Err(Error::Type(format!("cannot compare {a} with {b}"))),
    }
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, row: &Row) -> Result<Value> {
    if matches!(op, BinOp::And | BinOp::Or) {
        let truth = if op == BinOp::And {
            and3(left, right, row)?
        } else {
            or3(left, right, row)?
        };
        return Ok(match truth {
            Truth::True => Value::Int(1),
            Truth::False => Value::Int(0),
            Truth::Null => Value::Null,
        });
    }
    let l = eval(left, row)?;
    let r = eval(right, row)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = cmp_values(&l, &r)?;
        let b = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::Ne => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::Le => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::Ge => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(bool_value(b));
    }
    // Arithmetic: ints stay ints (except division), mixes go to float.
    match (op, &l, &r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
        (BinOp::Div, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                Ok(Value::Null) // SQL-ish: division by zero yields NULL
            } else {
                Ok(Value::Float(*a as f64 / *b as f64))
            }
        }
        (BinOp::Add, _, _) => Ok(Value::Float(l.as_f64()? + r.as_f64()?)),
        (BinOp::Sub, _, _) => Ok(Value::Float(l.as_f64()? - r.as_f64()?)),
        (BinOp::Mul, _, _) => Ok(Value::Float(l.as_f64()? * r.as_f64()?)),
        (BinOp::Div, _, _) => {
            let d = r.as_f64()?;
            if d == 0.0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(l.as_f64()? / d))
            }
        }
        _ => unreachable!("comparisons handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;

    fn row() -> Row {
        Row::new(vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::Str("abc".into()),
            Value::Null,
            Value::Date(100),
        ])
    }

    fn cref(i: usize) -> E {
        E::ColumnRef(i)
    }

    fn bin(op: BinOp, l: E, r: E) -> E {
        E::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic() {
        let r = row();
        assert_eq!(
            eval(&bin(BinOp::Add, cref(0), E::int(5)), &r).unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            eval(&bin(BinOp::Mul, cref(0), cref(1)), &r).unwrap(),
            Value::Float(25.0)
        );
        assert_eq!(
            eval(&bin(BinOp::Div, E::int(7), E::int(2)), &r).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            eval(&bin(BinOp::Div, E::int(7), E::int(0)), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&E::Neg(Box::new(cref(1))), &r).unwrap(),
            Value::Float(-2.5)
        );
    }

    #[test]
    fn comparisons_and_mixed_numeric() {
        let r = row();
        assert_eq!(
            eval(&bin(BinOp::Gt, cref(0), cref(1)), &r).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval(&bin(BinOp::Eq, cref(2), E::Literal("abc".into())), &r).unwrap(),
            Value::Int(1)
        );
        assert!(eval(&bin(BinOp::Lt, cref(2), E::int(5)), &r).is_err());
    }

    #[test]
    fn null_propagation() {
        let r = row();
        assert_eq!(
            eval(&bin(BinOp::Add, cref(3), E::int(1)), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Eq, cref(3), cref(3)), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_truth(&bin(BinOp::Eq, cref(3), E::int(1)), &r).unwrap(),
            Truth::Null
        );
        assert!(!passes(&bin(BinOp::Eq, cref(3), E::int(1)), &r).unwrap());
    }

    #[test]
    fn three_valued_logic() {
        let r = row();
        let null_pred = bin(BinOp::Eq, cref(3), E::int(1));
        let true_pred = bin(BinOp::Eq, cref(0), E::int(10));
        let false_pred = bin(BinOp::Eq, cref(0), E::int(11));
        // NULL OR TRUE = TRUE
        assert_eq!(
            eval_truth(&bin(BinOp::Or, null_pred.clone(), true_pred.clone()), &r).unwrap(),
            Truth::True
        );
        // NULL AND FALSE = FALSE
        assert_eq!(
            eval_truth(&bin(BinOp::And, null_pred.clone(), false_pred), &r).unwrap(),
            Truth::False
        );
        // NOT NULL = NULL
        assert_eq!(
            eval_truth(&E::Not(Box::new(null_pred.clone())), &r).unwrap(),
            Truth::Null
        );
        // Value-context `eval` agrees with `eval_truth` on all nine input
        // pairs of AND and of OR (the Kleene tables, False < Null < True).
        let operands = [
            (Truth::False, bin(BinOp::Eq, cref(0), E::int(11))),
            (Truth::Null, null_pred),
            (Truth::True, true_pred),
        ];
        let rank = |t: Truth| match t {
            Truth::False => 0,
            Truth::Null => 1,
            Truth::True => 2,
        };
        for (lt, l) in &operands {
            for (rt, rexpr) in &operands {
                for op in [BinOp::And, BinOp::Or] {
                    let e = bin(op, l.clone(), rexpr.clone());
                    let (lo, hi) = if rank(*lt) <= rank(*rt) {
                        (*lt, *rt)
                    } else {
                        (*rt, *lt)
                    };
                    let want = if op == BinOp::And { lo } else { hi };
                    assert_eq!(eval_truth(&e, &r).unwrap(), want, "{lt:?} {op:?} {rt:?}");
                    let value = match want {
                        Truth::True => Value::Int(1),
                        Truth::False => Value::Int(0),
                        Truth::Null => Value::Null,
                    };
                    assert_eq!(eval(&e, &r).unwrap(), value, "{lt:?} {op:?} {rt:?}");
                }
            }
        }
    }

    #[test]
    fn between_and_in() {
        let r = row();
        let between = E::Between {
            expr: Box::new(cref(0)),
            low: Box::new(E::int(5)),
            high: Box::new(E::int(15)),
            negated: false,
        };
        assert!(passes(&between, &r).unwrap());
        let not_between = E::Between {
            expr: Box::new(cref(0)),
            low: Box::new(E::int(5)),
            high: Box::new(E::int(15)),
            negated: true,
        };
        assert!(!passes(&not_between, &r).unwrap());

        let inlist = E::InList {
            expr: Box::new(cref(2)),
            list: vec![E::Literal("xyz".into()), E::Literal("abc".into())],
            negated: false,
        };
        assert!(passes(&inlist, &r).unwrap());
        let notin = E::InList {
            expr: Box::new(cref(2)),
            list: vec![E::Literal("xyz".into())],
            negated: true,
        };
        assert!(passes(&notin, &r).unwrap());
    }

    #[test]
    fn date_comparisons() {
        let r = row();
        assert!(passes(&bin(BinOp::Ge, cref(4), E::Literal(Value::Date(100))), &r).unwrap());
        assert!(passes(&bin(BinOp::Lt, cref(4), E::Literal(Value::Date(101))), &r).unwrap());
    }

    #[test]
    fn unresolved_columns_are_plan_errors() {
        let r = row();
        assert!(matches!(eval(&E::col("ghost"), &r), Err(Error::Plan(_))));
        assert!(matches!(eval(&E::ColumnRef(99), &r), Err(Error::Plan(_))));
    }
}

/// SQL LIKE matching: `%` matches any (possibly empty) run, `_` matches
/// exactly one character. Implemented with the classic two-pointer
/// backtracking algorithm (linear in practice, no regex engine needed).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            // Backtrack: let the last % absorb one more character.
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod like_tests {
    use super::like_match;

    #[test]
    fn like_basics() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("hello", "h_lo"));
        assert!(!like_match("hello", "hell"));
        assert!(!like_match("hello", "ello"));
    }

    #[test]
    fn like_multiple_wildcards_backtrack() {
        assert!(like_match("abcXdefXghi", "a%X%i"));
        assert!(like_match("aaab", "%ab"));
        assert!(!like_match("aaab", "%ba"));
        assert!(like_match("mississippi", "m%iss%ppi"));
        assert!(!like_match("mississippi", "m%iss%qpi"));
        assert!(like_match("Brand#12", "Brand#1_"));
    }
}
