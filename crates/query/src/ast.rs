//! Abstract syntax for the supported SQL subset.
//!
//! The subset covers everything the paper's evaluation runs — SPJA
//! queries (select-project-join-aggregate, §3.2) including TPC-H Q1/Q6/Q19
//! and the TPC-C transaction statements — plus the DDL/DML needed to
//! stand the schemas up.

use veridb_common::{ColumnType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [PRIMARY KEY] [CHAINED], …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions: `(name, type, chained)`. The first column
        /// (or the one marked PRIMARY KEY, which must be first) is the
        /// primary key.
        columns: Vec<(String, ColumnType, bool)>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Table name.
        table: String,
        /// One literal tuple per row.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE name SET col = expr, … [WHERE pred]`.
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE pred]`.
    Delete {
        /// Table name.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// A `SELECT` query.
    Select(SelectStmt),
    /// `EXPLAIN SELECT …`: render the physical plan instead of running.
    Explain(SelectStmt),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM tables (comma-joined or explicit `JOIN … ON`).
    pub from: Vec<TableRef>,
    /// `ON` predicates of explicit joins, in join order.
    pub join_on: Vec<Expr>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (over groups/aggregates).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<(Expr, bool)>, // (expr, descending)
    /// LIMIT.
    pub limit: Option<u64>,
}

/// One entry of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// An expression with an optional alias.
    Expr(Expr, Option<String>),
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (`FROM quote AS q`), defaulting to the table name.
    pub alias: String,
}

/// Scalar (non-aggregate) function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `UPPER(s)`.
    Upper,
    /// `LOWER(s)`.
    Lower,
    /// `LENGTH(s)` (characters).
    Length,
    /// `ABS(x)`.
    Abs,
    /// `SUBSTR(s, start [, len])` — 1-based start, like SQL.
    Substr,
}

impl ScalarFunc {
    /// Parse a scalar function name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_lowercase().as_str() {
            "upper" => Some(ScalarFunc::Upper),
            "lower" => Some(ScalarFunc::Lower),
            "length" => Some(ScalarFunc::Length),
            "abs" => Some(ScalarFunc::Abs),
            "substr" | "substring" => Some(ScalarFunc::Substr),
            _ => None,
        }
    }
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference: optional qualifier + name (pre-resolution).
    Column {
        /// Table / alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A resolved column (index into the operator's input row). Produced
    /// by the planner, never the parser.
    ColumnRef(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary negation (`-x`).
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IN (v1, v2, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// An aggregate call. Only valid in select lists / HAVING position.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// A resolved aggregate output (index into the aggregate operator's
    /// output). Produced by the planner.
    AggRef(usize),
    /// `expr [NOT] LIKE pattern` (`%` = any run, `_` = any one char).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression (usually a literal).
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// A scalar function call.
    Func {
        /// Which function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// An uncorrelated scalar subquery `(SELECT …)`; the planner lowers it
    /// to a literal before execution (§3.2's "nested queries" extension).
    Subquery(Box<SelectStmt>),
    /// `expr [NOT] IN (SELECT …)`; lowered to an IN-list by the planner.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The subquery producing the candidate set (one column).
        query: Box<SelectStmt>,
        /// `NOT IN`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience: column without qualifier.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_owned(),
        }
    }

    /// Convenience: literal integer.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Call `f` on each direct child, in source order. A subquery's body
    /// is a statement, not a child. This list and the one in
    /// [`try_map_children`](Self::try_map_children) are the only places
    /// that know which variants have children.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::ColumnRef(_)
            | Expr::AggRef(_)
            | Expr::Subquery(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Neg(x) | Expr::Not(x) | Expr::InSubquery { expr: x, .. } => f(x),
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(&mut f);
            }
            Expr::Agg { arg, .. } => arg.iter().for_each(|a| f(a)),
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Func { args, .. } => args.iter().for_each(&mut f),
        }
    }

    /// Rebuild this node with `f` applied to each direct child, in source
    /// order (the order [`for_each_child`](Self::for_each_child) visits).
    /// Children are replaced in place, so the node's boxes and lists are
    /// reused rather than reallocated.
    pub fn try_map_children<E>(
        mut self,
        mut f: impl FnMut(Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut map = |child: &mut Expr| -> Result<(), E> {
            let old = std::mem::replace(child, Expr::Literal(Value::Null));
            *child = f(old)?;
            Ok(())
        };
        match &mut self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::ColumnRef(_)
            | Expr::AggRef(_)
            | Expr::Subquery(_) => {}
            Expr::Binary { left, right, .. } => {
                map(left)?;
                map(right)?;
            }
            Expr::Neg(x) | Expr::Not(x) | Expr::InSubquery { expr: x, .. } => map(x)?,
            Expr::Between {
                expr, low, high, ..
            } => {
                map(expr)?;
                map(low)?;
                map(high)?;
            }
            Expr::InList { expr, list, .. } => {
                map(expr)?;
                list.iter_mut().try_for_each(&mut map)?;
            }
            Expr::Agg { arg, .. } => arg.iter_mut().try_for_each(|a| map(a))?,
            Expr::Like { expr, pattern, .. } => {
                map(expr)?;
                map(pattern)?;
            }
            Expr::Func { args, .. } => args.iter_mut().try_for_each(&mut map)?,
        }
        Ok(self)
    }

    /// Does this expression (transitively) contain an aggregate call?
    /// Subqueries are lowered before aggregate analysis, and their bodies
    /// are not children, so their aggregates don't count.
    pub fn contains_agg(&self) -> bool {
        if let Expr::Agg { .. } | Expr::AggRef(_) = self {
            return true;
        }
        let mut found = false;
        self.for_each_child(|c| found = found || c.contains_agg());
        found
    }

    /// Split a conjunction into its conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts (`None` for an empty list).
    pub fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(exprs.into_iter().fold(first, |acc, e| Expr::Binary {
            op: BinOp::And,
            left: Box::new(acc),
            right: Box::new(e),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting_round_trips() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Binary {
                op: BinOp::And,
                left: Box::new(Expr::col("a")),
                right: Box::new(Expr::col("b")),
            }),
            right: Box::new(Expr::col("c")),
        };
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        let back = Expr::conjoin(parts).unwrap();
        // Rebuild is left-assoc; splitting again yields the same parts.
        assert_eq!(back.split_conjuncts().len(), 3);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::col("x"))),
        };
        assert!(agg.contains_agg());
        let nested = Expr::Binary {
            op: BinOp::Mul,
            left: Box::new(agg),
            right: Box::new(Expr::int(2)),
        };
        assert!(nested.contains_agg());
        assert!(!Expr::col("x").contains_agg());
    }

    /// One instance of every variant, each child a distinct literal.
    fn one_of_each() -> Vec<Expr> {
        let n = |i: i64| Box::new(Expr::int(i));
        let sub = SelectStmt {
            distinct: false,
            items: vec![SelectItem::Expr(Expr::int(99), None)],
            from: vec![],
            join_on: vec![],
            filter: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        vec![
            Expr::int(0),
            Expr::col("a"),
            Expr::ColumnRef(3),
            Expr::Binary {
                op: BinOp::Add,
                left: n(1),
                right: n(2),
            },
            Expr::Neg(n(1)),
            Expr::Not(n(1)),
            Expr::Between {
                expr: n(1),
                low: n(2),
                high: n(3),
                negated: true,
            },
            Expr::InList {
                expr: n(1),
                list: vec![Expr::int(2), Expr::int(3), Expr::int(4)],
                negated: false,
            },
            Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(n(1)),
            },
            Expr::Agg {
                func: AggFunc::Count,
                arg: None,
            },
            Expr::AggRef(0),
            Expr::Like {
                expr: n(1),
                pattern: n(2),
                negated: false,
            },
            Expr::Func {
                func: ScalarFunc::Substr,
                args: vec![Expr::int(1), Expr::int(2), Expr::int(3)],
            },
            Expr::Subquery(Box::new(sub.clone())),
            Expr::InSubquery {
                expr: n(1),
                query: Box::new(sub),
                negated: true,
            },
        ]
    }

    #[test]
    fn child_walks_agree_on_every_variant() {
        let exprs = one_of_each();
        // Adding a variant breaks this match until the variant has an
        // instance above.
        let mut covered = [false; 14];
        for e in &exprs {
            covered[match e {
                Expr::Literal(_) => 0,
                Expr::Column { .. } => 1,
                Expr::ColumnRef(_) => 2,
                Expr::Binary { .. } => 3,
                Expr::Neg(_) => 4,
                Expr::Not(_) => 5,
                Expr::Between { .. } => 6,
                Expr::InList { .. } => 7,
                Expr::Agg { .. } => 8,
                Expr::AggRef(_) => 9,
                Expr::Like { .. } => 10,
                Expr::Func { .. } => 11,
                Expr::Subquery(_) => 12,
                Expr::InSubquery { .. } => 13,
            }] = true;
        }
        assert!(covered.iter().all(|&c| c), "{covered:?}");
        let arity = [0, 0, 0, 2, 1, 1, 3, 4, 1, 0, 0, 2, 3, 0, 1];
        for (e, arity) in exprs.into_iter().zip(arity) {
            let mut visited = Vec::new();
            e.for_each_child(|c| visited.push(c.clone()));
            let mut mapped = Vec::new();
            let same = e
                .clone()
                .try_map_children(|c| {
                    mapped.push(c.clone());
                    Ok::<_, ()>(c)
                })
                .unwrap();
            assert_eq!(visited.len(), arity, "{e:?}");
            assert_eq!(visited, mapped, "{e:?}");
            assert_eq!(same, e);
        }
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
