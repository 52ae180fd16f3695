//! Query planning: name resolution, predicate pushdown, access-path
//! selection, and join-algorithm choice.
//!
//! Compilation happens inside the enclave (§3.3): the client authenticates
//! the SQL text, and everything from parse to plan is trusted code, so no
//! plan-equivalence verification is needed.
//!
//! The planner builds a left-deep join tree in FROM order and resolves all
//! column references to *global* indices into the concatenated row, which
//! makes pushdown a simple index-range test:
//!
//! - single-table conjuncts are pushed to their scan, where bounds on
//!   chained columns become verified range scans / point lookups,
//! - equi-join conjuncts pick the join algorithm: an index nested-loop
//!   join when the inner table has a chain on its join column (the
//!   paper's Example 5.4), a merge join when both inputs arrive sorted on
//!   their join columns, a hash join otherwise,
//! - everything else stays as residual filters.

use crate::ast::{AggFunc, BinOp, Expr, SelectItem, SelectStmt};
use crate::engine::{PlanOptions, PreferredJoin};
use crate::parallel::driver_scan;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Bound;
use std::sync::Arc;
use veridb_common::{Error, Result, Value};
use veridb_storage::{Catalog, Table};

/// How a scan reaches its rows.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// Verified sequential scan (chain 0 order).
    Full,
    /// Verified range scan on a chain.
    Range {
        /// Chain index within the table.
        chain: usize,
        /// Lower bound on the chained column's value.
        lo: Bound<Value>,
        /// Upper bound on the chained column's value.
        hi: Bound<Value>,
    },
    /// Verified point lookup (primary key) or equality scan (secondary
    /// chain).
    Point {
        /// Chain index within the table.
        chain: usize,
        /// The key value.
        key: Value,
    },
}

/// A physical operator tree.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Leaf: verified access to one table.
    TableScan {
        /// The table.
        table: Arc<Table>,
        /// Access path.
        access: AccessPath,
        /// Residual predicate over the table's own columns (local refs).
        residual: Option<Expr>,
    },
    /// Filter over global-row input.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate over the input row.
        pred: Expr,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output column names.
        names: Vec<String>,
    },
    /// Index nested-loop join: for each outer row, a verified point /
    /// equality lookup on the inner table's chain.
    IndexNlJoin {
        /// Outer input.
        outer: Box<PhysicalPlan>,
        /// Inner table.
        inner: Arc<Table>,
        /// Chain of the inner join column.
        inner_chain: usize,
        /// Index of the join key within the outer row.
        outer_key: usize,
        /// Residual predicate over the concatenated row.
        residual: Option<Expr>,
    },
    /// Hash join on one equi-key pair.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Key index within the left row.
        left_key: usize,
        /// Key index within the right row.
        right_key: usize,
        /// Residual predicate over the concatenated row.
        residual: Option<Expr>,
    },
    /// Merge join over inputs sorted on their key columns.
    MergeJoin {
        /// Left input (sorted on `left_key`).
        left: Box<PhysicalPlan>,
        /// Right input (sorted on `right_key`).
        right: Box<PhysicalPlan>,
        /// Key index within the left row.
        left_key: usize,
        /// Key index within the right row.
        right_key: usize,
        /// Residual predicate over the concatenated row.
        residual: Option<Expr>,
    },
    /// Block nested-loop join (cartesian product + predicate): the
    /// fallback when no equi-join condition exists.
    BlockNlJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input (materialized).
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated row (`None` = cross).
        pred: Option<Expr>,
    },
    /// Duplicate elimination over the full output row (`SELECT DISTINCT`).
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Group-by expressions over the input row.
        group: Vec<Expr>,
        /// Aggregate calls: function + optional argument.
        aggs: Vec<(AggFunc, Option<Expr>)>,
    },
    /// Sort (materializing).
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Keys: expression over the input row + descending flag.
        keys: Vec<(Expr, bool)>,
    },
    /// Limit.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// Parallel-region marker: the subtree below is executed once per
    /// morsel (a key sub-range of its driving verified scan) by a pool of
    /// `workers` threads. Exchange never appears bare in a final plan — it
    /// is always consumed by an enclosing [`PhysicalPlan::Gather`] or by a
    /// parallel-aware [`PhysicalPlan::Aggregate`].
    Exchange {
        /// The per-morsel subtree.
        input: Box<PhysicalPlan>,
        /// Worker pool size this region was planned for (`0` = inherit
        /// from the execution context at open time).
        workers: usize,
    },
    /// Merge the per-morsel output streams of an [`PhysicalPlan::Exchange`]
    /// back into one stream, in morsel-index order. Because morsels tile
    /// the driving scan's key range in chain order, this merge reproduces
    /// the serial scan's row order exactly.
    Gather {
        /// The Exchange (parallel region) below.
        input: Box<PhysicalPlan>,
    },
    /// Parallel partitioned hash join, emitted by `parallelize` in place
    /// of [`PhysicalPlan::HashJoin`]. Build-side rows are hashed into a
    /// fixed number of partitions (per-morsel buckets concatenated in
    /// morsel order, so per-key row order equals the serial build's
    /// insertion order), the per-partition hash tables are built
    /// concurrently, and the probe side is scanned in parallel — output
    /// rows are merged in morsel/chunk order, making the result
    /// byte-identical to the serial HashJoin.
    PartitionedJoin {
        /// Left (probe) input. A morsel-partitionable region is kept
        /// unwrapped (the operator morselizes it itself); anything else
        /// is materialized and probed in fixed chunks.
        left: Box<PhysicalPlan>,
        /// Right (build) input, same convention as `left`.
        right: Box<PhysicalPlan>,
        /// Key index within the left row.
        left_key: usize,
        /// Key index within the right row.
        right_key: usize,
        /// Residual predicate over the concatenated row.
        residual: Option<Expr>,
        /// Worker pool size this join was planned for (`0` = inherit from
        /// the execution context at open time).
        workers: usize,
    },
}

impl PhysicalPlan {
    /// The input subplans, in order (left before right). An index
    /// nested-loop join's inner side is a table, not an input.
    pub fn inputs(&self) -> impl Iterator<Item = &PhysicalPlan> {
        let (first, second) = match self {
            PhysicalPlan::TableScan { .. } => (None, None),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::IndexNlJoin { outer: input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::Gather { input } => (Some(&**input), None),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::BlockNlJoin { left, right, .. }
            | PhysicalPlan::PartitionedJoin { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }

    /// The owning counterpart of [`PhysicalPlan::inputs`]: rebuild this
    /// node with `f` applied to each input, in the same order. Everything
    /// else — an index nested-loop join's inner table included — is kept.
    pub fn map_inputs(self, mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan) -> PhysicalPlan {
        let mut f = |b: Box<PhysicalPlan>| Box::new(f(*b));
        match self {
            leaf @ PhysicalPlan::TableScan { .. } => leaf,
            PhysicalPlan::Filter { input, pred } => PhysicalPlan::Filter {
                input: f(input),
                pred,
            },
            PhysicalPlan::Project {
                input,
                exprs,
                names,
            } => PhysicalPlan::Project {
                input: f(input),
                exprs,
                names,
            },
            PhysicalPlan::IndexNlJoin {
                outer,
                inner,
                inner_chain,
                outer_key,
                residual,
            } => PhysicalPlan::IndexNlJoin {
                outer: f(outer),
                inner,
                inner_chain,
                outer_key,
                residual,
            },
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => PhysicalPlan::HashJoin {
                left: f(left),
                right: f(right),
                left_key,
                right_key,
                residual,
            },
            PhysicalPlan::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => PhysicalPlan::MergeJoin {
                left: f(left),
                right: f(right),
                left_key,
                right_key,
                residual,
            },
            PhysicalPlan::BlockNlJoin { left, right, pred } => PhysicalPlan::BlockNlJoin {
                left: f(left),
                right: f(right),
                pred,
            },
            PhysicalPlan::Distinct { input } => PhysicalPlan::Distinct { input: f(input) },
            PhysicalPlan::Aggregate { input, group, aggs } => PhysicalPlan::Aggregate {
                input: f(input),
                group,
                aggs,
            },
            PhysicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
                input: f(input),
                keys,
            },
            PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit { input: f(input), n },
            PhysicalPlan::Exchange { input, workers } => PhysicalPlan::Exchange {
                input: f(input),
                workers,
            },
            PhysicalPlan::Gather { input } => PhysicalPlan::Gather { input: f(input) },
            PhysicalPlan::PartitionedJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
                workers,
            } => PhysicalPlan::PartitionedJoin {
                left: f(left),
                right: f(right),
                left_key,
                right_key,
                residual,
                workers,
            },
        }
    }

    /// Output width (number of columns) of this plan.
    pub fn width(&self) -> usize {
        match self {
            PhysicalPlan::TableScan { table, .. } => table.schema().len(),
            PhysicalPlan::Project { exprs, .. } => exprs.len(),
            PhysicalPlan::IndexNlJoin { outer, inner, .. } => outer.width() + inner.schema().len(),
            PhysicalPlan::Aggregate { group, aggs, .. } => group.len() + aggs.len(),
            _ => self.inputs().map(PhysicalPlan::width).sum(),
        }
    }

    /// A compact, indented rendering (EXPLAIN-style) for docs and tests.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let label = match self {
            PhysicalPlan::TableScan {
                table,
                access,
                residual,
            } => {
                let acc = match access {
                    AccessPath::Full => "SeqScan".to_string(),
                    AccessPath::Range { chain, .. } => format!("RangeScan(chain {chain})"),
                    AccessPath::Point { chain, key } => {
                        format!("IndexSearch(chain {chain} = {key})")
                    }
                };
                let filtered = if residual.is_some() {
                    " [filtered]"
                } else {
                    ""
                };
                format!("{acc} on {}{filtered}", table.name())
            }
            PhysicalPlan::Filter { .. } => "Filter".to_string(),
            PhysicalPlan::Project { names, .. } => format!("Project [{}]", names.join(", ")),
            PhysicalPlan::IndexNlJoin { inner, .. } => {
                format!("IndexNestedLoopJoin (inner: {})", inner.name())
            }
            PhysicalPlan::HashJoin { .. } => "HashJoin".to_string(),
            PhysicalPlan::MergeJoin { .. } => "MergeJoin".to_string(),
            PhysicalPlan::BlockNlJoin { .. } => "NestedLoopJoin".to_string(),
            PhysicalPlan::Aggregate { group, aggs, .. } => {
                format!("Aggregate [{} groups, {} aggs]", group.len(), aggs.len())
            }
            PhysicalPlan::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
            PhysicalPlan::Exchange { workers, .. } => format!("Exchange [{workers} workers]"),
            PhysicalPlan::Gather { .. } => "Gather".to_string(),
            PhysicalPlan::PartitionedJoin { workers, .. } => {
                format!("PartitionedHashJoin [{workers} workers]")
            }
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&label);
        out.push('\n');
        for input in self.inputs() {
            input.explain_into(depth + 1, out);
        }
    }
}

/// Rewrite `plan` for a `workers`-thread pool by inserting
/// Exchange/Gather pairs around morsel-partitionable subtrees.
///
/// - A partitionable pipeline becomes `Gather(Exchange(pipeline))`: the
///   morsel-order merge reproduces the serial row order, so downstream
///   operators (including MergeJoin, which needs chain order) are
///   unaffected.
/// - An `Aggregate` over a partitionable input becomes
///   `Aggregate(Exchange(input))`: the executor special-cases this shape,
///   computing per-morsel partial states and merging them in morsel order
///   at a barrier, so grouped aggregation parallelizes without first
///   funnelling every input row through a single Gather.
/// - Other operators recurse structurally
///   ([`PhysicalPlan::map_inputs`]); join children are wrapped
///   independently, so a hash join can build and probe from two parallel
///   regions.
///
/// `plan` is a serial plan: it holds no Exchange, Gather or
/// PartitionedJoin yet. With `workers <= 1` it is returned untouched,
/// bit-identical to the serial planner's output.
pub(crate) fn parallelize(plan: PhysicalPlan, workers: usize) -> PhysicalPlan {
    if workers <= 1 {
        return plan;
    }
    if driver_scan(&plan).is_some() {
        return PhysicalPlan::Gather {
            input: Box::new(PhysicalPlan::Exchange {
                input: Box::new(plan),
                workers,
            }),
        };
    }
    match plan {
        PhysicalPlan::Aggregate { input, group, aggs } if driver_scan(&input).is_some() => {
            PhysicalPlan::Aggregate {
                input: Box::new(PhysicalPlan::Exchange { input, workers }),
                group,
                aggs,
            }
        }
        // Hash joins become partitioned joins: the build side is hashed
        // into per-morsel partition buckets and the per-partition tables
        // built concurrently; the probe side runs in parallel too. A
        // partitionable child is left unwrapped (the join operator
        // morselizes it itself); other children (e.g. a nested join) are
        // parallelized recursively and materialized by the operator.
        PhysicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let side = |p: Box<PhysicalPlan>| {
                if driver_scan(&p).is_some() {
                    p
                } else {
                    Box::new(parallelize(*p, workers))
                }
            };
            PhysicalPlan::PartitionedJoin {
                left: side(left),
                right: side(right),
                left_key,
                right_key,
                residual,
                workers,
            }
        }
        other => other.map_inputs(|input| parallelize(input, workers)),
    }
}

/// A planned query: the operator tree plus output column names.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The physical plan (root emits the final projection).
    pub plan: PhysicalPlan,
    /// Output column names.
    pub columns: Vec<String>,
}

/// One table in the FROM clause, resolved.
struct FromTable {
    table: Arc<Table>,
    alias: String,
    /// Global index of this table's first column.
    offset: usize,
}

/// Resolution context for column names.
struct Scope {
    tables: Vec<FromTable>,
}

impl Scope {
    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for t in &self.tables {
            if let Some(q) = qualifier {
                if !q.eq_ignore_ascii_case(&t.alias) {
                    continue;
                }
            }
            if let Ok(idx) = t.table.schema().index_of(name) {
                if found.is_some() {
                    return Err(Error::Plan(format!("ambiguous column {name}")));
                }
                found = Some(t.offset + idx);
            }
        }
        found.ok_or_else(|| {
            Error::Plan(format!(
                "unknown column {}{}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))
        })
    }

    /// Rewrite `Column` nodes into `ColumnRef` global indices.
    fn resolve_expr(&self, e: Expr) -> Result<Expr> {
        match e {
            Expr::Column { qualifier, name } => Ok(Expr::ColumnRef(
                self.resolve_column(qualifier.as_deref(), &name)?,
            )),
            Expr::Subquery(_) | Expr::InSubquery { .. } => Err(Error::Plan(
                "subquery survived lowering (correlated subqueries are \
                 not supported)"
                    .into(),
            )),
            e => e.try_map_children(|c| self.resolve_expr(c)),
        }
    }
}

/// Column indices referenced by an expression.
fn collect_refs(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::ColumnRef(i) => out.push(*i),
        e => e.for_each_child(|c| collect_refs(c, out)),
    }
}

/// Apply `f` to the index of every `ColumnRef` (e.g. to move between
/// table-local and global indices).
fn map_refs(e: Expr, f: &impl Fn(usize) -> usize) -> Expr {
    match e {
        Expr::ColumnRef(i) => Expr::ColumnRef(f(i)),
        e => {
            let Ok(e) = e.try_map_children(|c| Ok::<_, Infallible>(map_refs(c, f)));
            e
        }
    }
}

/// Lower uncorrelated subqueries to literals by recursively planning and
/// executing them (§3.2's "nested queries" extension). A scalar subquery
/// must produce one column and at most one row; `IN (SELECT …)` must
/// produce one column.
fn lower_subqueries(e: Expr, catalog: &Catalog, opts: &PlanOptions) -> Result<Expr> {
    match e {
        Expr::Subquery(stmt) => {
            let planned = plan_select(catalog, *stmt, opts)?;
            let rows = crate::exec::run(&planned.plan)?;
            if planned.columns.len() != 1 {
                return Err(Error::Plan(format!(
                    "scalar subquery must return one column, got {}",
                    planned.columns.len()
                )));
            }
            match rows.len() {
                0 => Ok(Expr::Literal(Value::Null)),
                1 => Ok(Expr::Literal(rows[0][0].clone())),
                n => Err(Error::Plan(format!("scalar subquery returned {n} rows"))),
            }
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let planned = plan_select(catalog, *query, opts)?;
            let rows = crate::exec::run(&planned.plan)?;
            if planned.columns.len() != 1 {
                return Err(Error::Plan(format!(
                    "IN subquery must return one column, got {}",
                    planned.columns.len()
                )));
            }
            Ok(Expr::InList {
                expr: Box::new(lower_subqueries(*expr, catalog, opts)?),
                list: rows
                    .into_iter()
                    .map(|r| Expr::Literal(r[0].clone()))
                    .collect(),
                negated,
            })
        }
        e => e.try_map_children(|c| lower_subqueries(c, catalog, opts)),
    }
}

/// Plan a SELECT statement against the catalog.
pub fn plan_select(
    catalog: &Catalog,
    mut stmt: SelectStmt,
    opts: &PlanOptions,
) -> Result<PlannedQuery> {
    // Lower uncorrelated subqueries everywhere expressions occur.
    stmt.filter = match stmt.filter {
        Some(f) => Some(lower_subqueries(f, catalog, opts)?),
        None => None,
    };
    stmt.having = match stmt.having {
        Some(h) => Some(lower_subqueries(h, catalog, opts)?),
        None => None,
    };
    stmt.join_on = stmt
        .join_on
        .into_iter()
        .map(|e| lower_subqueries(e, catalog, opts))
        .collect::<Result<_>>()?;
    stmt.items = stmt
        .items
        .into_iter()
        .map(|item| -> Result<SelectItem> {
            Ok(match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr(e, a) => SelectItem::Expr(lower_subqueries(e, catalog, opts)?, a),
            })
        })
        .collect::<Result<_>>()?;
    // -- resolve FROM --------------------------------------------------------
    let mut tables = Vec::new();
    let mut offset = 0usize;
    let mut seen_alias: HashMap<String, ()> = HashMap::new();
    for tr in &stmt.from {
        if seen_alias.insert(tr.alias.clone(), ()).is_some() {
            return Err(Error::Plan(format!("duplicate alias {}", tr.alias)));
        }
        let table = catalog.table(&tr.table)?;
        let width = table.schema().len();
        tables.push(FromTable {
            table,
            alias: tr.alias.clone(),
            offset,
        });
        offset += width;
    }
    let scope = Scope { tables };

    // -- gather and resolve predicates ---------------------------------------
    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(f) = stmt.filter {
        conjuncts.extend(scope.resolve_expr(f)?.split_conjuncts());
    }
    for on in stmt.join_on {
        conjuncts.extend(scope.resolve_expr(on)?.split_conjuncts());
    }
    // Hoist factors common to every branch of an OR (A∧X ∨ A∧Y ⇒ A ∧ (…)).
    // TPC-H Q19's disjunction repeats its equi-join condition in every
    // branch; hoisting it lets the planner still pick a real join algorithm
    // while the full OR stays as a residual filter.
    let mut hoisted: Vec<Expr> = Vec::new();
    for c in &conjuncts {
        if let Expr::Binary { op: BinOp::Or, .. } = c {
            let branches = or_branches(c.clone());
            if branches.len() < 2 {
                continue;
            }
            let mut common: Vec<Expr> = branches[0].clone().split_conjuncts();
            for b in &branches[1..] {
                let parts = b.clone().split_conjuncts();
                common.retain(|x| parts.contains(x));
            }
            hoisted.extend(common);
        }
    }
    conjuncts.extend(hoisted);

    // -- partition conjuncts by the tables they touch -------------------------
    let table_range = |ti: usize| {
        let t = &scope.tables[ti];
        (t.offset, t.offset + t.table.schema().len())
    };
    let owner_of = |e: &Expr| -> Option<usize> {
        let mut refs = Vec::new();
        collect_refs(e, &mut refs);
        if refs.is_empty() {
            return None; // constant predicate: keep as residual on top
        }
        for ti in 0..scope.tables.len() {
            let (lo, hi) = table_range(ti);
            if refs.iter().all(|&r| r >= lo && r < hi) {
                return Some(ti);
            }
        }
        None
    };

    let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); scope.tables.len()];
    let mut multi: Vec<Expr> = Vec::new();
    for c in conjuncts {
        match owner_of(&c) {
            Some(ti) => per_table[ti].push(c),
            None => multi.push(c),
        }
    }

    // -- build scans with access paths ----------------------------------------
    let mut scans: Vec<PhysicalPlan> = Vec::new();
    for (ti, t) in scope.tables.iter().enumerate() {
        let local: Vec<Expr> = per_table[ti]
            .drain(..)
            .map(|e| map_refs(e, &|i| i - t.offset))
            .collect();
        scans.push(build_scan(&t.table, local)?);
    }

    // -- left-deep join tree in FROM order -------------------------------------
    let mut plan = scans.remove(0);
    let mut joined_width = scope.tables[0].table.schema().len();
    for (ti, right_scan) in scans.into_iter().enumerate() {
        let ti = ti + 1; // actual table index
        let (r_lo, r_hi) = table_range(ti);
        debug_assert_eq!(r_lo, joined_width);
        let right_width = r_hi - r_lo;

        // Find an equi-join conjunct connecting the joined prefix and this
        // table; pull applicable residuals too.
        let mut equi: Option<(usize, usize)> = None; // (left global, right global)
        let mut residuals: Vec<Expr> = Vec::new();
        let mut rest: Vec<Expr> = Vec::new();
        for c in multi.drain(..) {
            let mut refs = Vec::new();
            collect_refs(&c, &mut refs);
            let applicable = refs.iter().all(|&r| r < r_hi);
            if !applicable {
                rest.push(c);
                continue;
            }
            if equi.is_none() {
                if let Expr::Binary {
                    op: BinOp::Eq,
                    ref left,
                    ref right,
                } = c
                {
                    if let (Expr::ColumnRef(a), Expr::ColumnRef(b)) =
                        (left.as_ref(), right.as_ref())
                    {
                        let (a, b) = (*a, *b);
                        let pair = if a < r_lo && b >= r_lo && b < r_hi {
                            Some((a, b))
                        } else if b < r_lo && a >= r_lo && a < r_hi {
                            Some((b, a))
                        } else {
                            None
                        };
                        if let Some(p) = pair {
                            equi = Some(p);
                            continue; // consumed by the join itself
                        }
                    }
                }
            }
            residuals.push(c);
        }
        multi = rest;
        let residual = Expr::conjoin(residuals);

        plan = build_join(
            plan,
            right_scan,
            &scope.tables[ti].table,
            equi.map(|(l, r)| (l, r - r_lo)),
            residual,
            joined_width,
            opts,
        )?;
        joined_width += right_width;
    }

    // Leftover predicates (shouldn't exist, but constants land here).
    if let Some(f) = Expr::conjoin(multi) {
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            pred: f,
        };
    }

    // -- aggregation / projection -----------------------------------------------
    let group_exprs: Vec<Expr> = stmt
        .group_by
        .into_iter()
        .map(|g| scope.resolve_expr(g))
        .collect::<Result<_>>()?;

    let mut out_exprs: Vec<Expr> = Vec::new();
    let mut out_names: Vec<String> = Vec::new();
    for item in stmt.items {
        match item {
            SelectItem::Wildcard => {
                for t in &scope.tables {
                    for (ci, col) in t.table.schema().columns().iter().enumerate() {
                        out_exprs.push(Expr::ColumnRef(t.offset + ci));
                        out_names.push(col.name.clone());
                    }
                }
            }
            SelectItem::Expr(e, alias) => {
                let name = alias.unwrap_or_else(|| default_name(&e));
                out_exprs.push(scope.resolve_expr(e)?);
                out_names.push(name);
            }
        }
    }

    let has_aggs = !group_exprs.is_empty() || out_exprs.iter().any(|e| e.contains_agg());

    if has_aggs {
        // Collect aggregate calls (select list first, then HAVING) and
        // rewrite both over the aggregate operator's output row
        // [groups..., aggs...]. The rewrite rejects any column that is
        // neither grouped nor aggregated.
        let mut aggs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
        let rewritten: Vec<Expr> = out_exprs
            .into_iter()
            .map(|e| rewrite_for_agg(e, &group_exprs, &mut aggs))
            .collect::<Result<_>>()?;
        let having = match stmt.having {
            Some(h) => Some(rewrite_for_agg(
                scope.resolve_expr(h)?,
                &group_exprs,
                &mut aggs,
            )?),
            None => None,
        };
        plan = PhysicalPlan::Aggregate {
            input: Box::new(plan),
            group: group_exprs,
            aggs,
        };
        // HAVING filters groups before projection.
        if let Some(pred) = having {
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: rewritten,
            names: out_names.clone(),
        };
    } else {
        if stmt.having.is_some() {
            return Err(Error::Plan("HAVING requires GROUP BY or aggregates".into()));
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: out_exprs,
            names: out_names.clone(),
        };
    }

    if stmt.distinct {
        plan = PhysicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    // -- order by / limit (over the projected output) -----------------------------
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for (e, desc) in stmt.order_by {
            let key = resolve_order_key(e, &out_names, &scope)?;
            keys.push((key, desc));
        }
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(n) = stmt.limit {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }

    if opts.workers > 1 {
        plan = parallelize(plan, opts.workers);
    }

    Ok(PlannedQuery {
        plan,
        columns: out_names,
    })
}

/// ORDER BY keys resolve against the projected output: by alias/name, or
/// by 1-based position.
fn resolve_order_key(e: Expr, out_names: &[String], _scope: &Scope) -> Result<Expr> {
    match &e {
        Expr::Column {
            qualifier: None,
            name,
        } => {
            if let Some(i) = out_names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                return Ok(Expr::ColumnRef(i));
            }
            Err(Error::Plan(format!(
                "ORDER BY column {name} is not in the output"
            )))
        }
        Expr::Column {
            qualifier: Some(q),
            name,
        } => {
            let full = format!("{q}.{name}");
            if let Some(i) = out_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&full) || n.eq_ignore_ascii_case(name))
            {
                return Ok(Expr::ColumnRef(i));
            }
            Err(Error::Plan(format!(
                "ORDER BY column {full} is not in the output"
            )))
        }
        Expr::Literal(Value::Int(i)) if *i >= 1 && (*i as usize) <= out_names.len() => {
            Ok(Expr::ColumnRef(*i as usize - 1))
        }
        _ => Err(Error::Plan(
            "ORDER BY supports output column names or 1-based positions".into(),
        )),
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
        _ => "expr".to_string(),
    }
}

/// Rewrite a select expression for evaluation over the aggregate output
/// row `[groups..., aggs...]`, registering aggregate calls as it goes.
fn rewrite_for_agg(
    e: Expr,
    group_exprs: &[Expr],
    aggs: &mut Vec<(AggFunc, Option<Expr>)>,
) -> Result<Expr> {
    // A select expression that *is* a group expression references its slot.
    if let Some(i) = group_exprs.iter().position(|g| *g == e) {
        return Ok(Expr::ColumnRef(i));
    }
    match e {
        Expr::Agg { func, arg } => {
            let idx = group_exprs.len() + aggs.len();
            aggs.push((func, arg.map(|a| *a)));
            Ok(Expr::ColumnRef(idx))
        }
        // A bare column that is not (part of) a group expression cannot
        // appear outside an aggregate argument.
        Expr::ColumnRef(_) => Err(Error::Plan(
            "expression references a column that is neither grouped nor \
             aggregated"
                .into(),
        )),
        e => e.try_map_children(|c| rewrite_for_agg(c, group_exprs, aggs)),
    }
}

/// Build the scan for one table from its pushed-down (table-local)
/// conjuncts: extract bounds on chained columns, keep the rest as a
/// residual filter.
fn build_scan(table: &Arc<Table>, conjuncts: Vec<Expr>) -> Result<PhysicalPlan> {
    #[derive(Default, Clone)]
    struct ColBounds {
        lo: Option<(Value, bool)>, // (value, inclusive)
        hi: Option<(Value, bool)>,
        eq: Option<Value>,
    }
    let mut bounds: HashMap<usize, ColBounds> = HashMap::new();
    let mut residual: Vec<Expr> = Vec::new();

    let tighten_lo = |slot: &mut Option<(Value, bool)>, v: Value, inc: bool| {
        let better = match slot {
            None => true,
            Some((cur, cur_inc)) => v > *cur || (v == *cur && !inc && *cur_inc),
        };
        if better {
            *slot = Some((v, inc));
        }
    };
    let tighten_hi = |slot: &mut Option<(Value, bool)>, v: Value, inc: bool| {
        let better = match slot {
            None => true,
            Some((cur, cur_inc)) => v < *cur || (v == *cur && !inc && *cur_inc),
        };
        if better {
            *slot = Some((v, inc));
        }
    };

    for c in conjuncts {
        let mut consumed = false;
        if let Expr::Binary {
            op,
            ref left,
            ref right,
        } = c
        {
            if op.is_comparison() {
                let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::ColumnRef(i), Expr::Literal(v)) => (Some(*i), Some(v.clone()), op),
                    (Expr::Literal(v), Expr::ColumnRef(i)) => {
                        // flip the operator
                        let flipped = match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            other => other,
                        };
                        (Some(*i), Some(v.clone()), flipped)
                    }
                    _ => (None, None, op),
                };
                if let (Some(col), Some(lit)) = (col, lit) {
                    if table.chain_for_column(col).is_some() {
                        let b = bounds.entry(col).or_default();
                        match op {
                            BinOp::Eq => {
                                b.eq = Some(lit);
                                consumed = true;
                            }
                            BinOp::Lt => {
                                tighten_hi(&mut b.hi, lit, false);
                                consumed = true;
                            }
                            BinOp::Le => {
                                tighten_hi(&mut b.hi, lit, true);
                                consumed = true;
                            }
                            BinOp::Gt => {
                                tighten_lo(&mut b.lo, lit, false);
                                consumed = true;
                            }
                            BinOp::Ge => {
                                tighten_lo(&mut b.lo, lit, true);
                                consumed = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
        } else if let Expr::Between {
            ref expr,
            ref low,
            ref high,
            negated: false,
        } = c
        {
            if let (Expr::ColumnRef(i), Expr::Literal(lo), Expr::Literal(hi)) =
                (expr.as_ref(), low.as_ref(), high.as_ref())
            {
                if table.chain_for_column(*i).is_some() {
                    let b = bounds.entry(*i).or_default();
                    tighten_lo(&mut b.lo, lo.clone(), true);
                    tighten_hi(&mut b.hi, hi.clone(), true);
                    consumed = true;
                }
            }
        }
        if !consumed {
            residual.push(c);
        }
    }

    // Pick the best access path: equality beats range; among ranges prefer
    // two-sided, then the primary chain.
    let mut access = AccessPath::Full;
    let mut best_score = 0i32;
    for (&col, b) in &bounds {
        let chain = table.chain_for_column(col).expect("checked above");
        let score = if b.eq.is_some() {
            100
        } else {
            (b.lo.is_some() as i32) + (b.hi.is_some() as i32)
        } + if chain == 0 { 1 } else { 0 };
        if score > best_score {
            best_score = score;
            access = if let Some(eq) = &b.eq {
                AccessPath::Point {
                    chain,
                    key: eq.clone(),
                }
            } else {
                AccessPath::Range {
                    chain,
                    lo: match &b.lo {
                        None => Bound::Unbounded,
                        Some((v, true)) => Bound::Included(v.clone()),
                        Some((v, false)) => Bound::Excluded(v.clone()),
                    },
                    hi: match &b.hi {
                        None => Bound::Unbounded,
                        Some((v, true)) => Bound::Included(v.clone()),
                        Some((v, false)) => Bound::Excluded(v.clone()),
                    },
                }
            };
        }
    }
    // Bounds that were *not* chosen must be re-applied as residuals.
    for (&col, b) in &bounds {
        let covered = match &access {
            AccessPath::Point { chain, .. } | AccessPath::Range { chain, .. } => {
                table.chain_for_column(col) == Some(*chain)
            }
            AccessPath::Full => false,
        };
        if covered {
            continue;
        }
        if let Some(eq) = &b.eq {
            residual.push(Expr::Binary {
                op: BinOp::Eq,
                left: Box::new(Expr::ColumnRef(col)),
                right: Box::new(Expr::Literal(eq.clone())),
            });
        }
        if let Some((v, inc)) = &b.lo {
            residual.push(Expr::Binary {
                op: if *inc { BinOp::Ge } else { BinOp::Gt },
                left: Box::new(Expr::ColumnRef(col)),
                right: Box::new(Expr::Literal(v.clone())),
            });
        }
        if let Some((v, inc)) = &b.hi {
            residual.push(Expr::Binary {
                op: if *inc { BinOp::Le } else { BinOp::Lt },
                left: Box::new(Expr::ColumnRef(col)),
                right: Box::new(Expr::Literal(v.clone())),
            });
        }
    }

    Ok(PhysicalPlan::TableScan {
        table: Arc::clone(table),
        access,
        residual: Expr::conjoin(residual),
    })
}

/// Sortedness of a plan's output: `Some(col)` when the rows arrive ordered
/// by that output column.
fn sorted_on(plan: &PhysicalPlan) -> Option<usize> {
    match plan {
        PhysicalPlan::TableScan { table, access, .. } => match access {
            AccessPath::Full => Some(table.column_of_chain(0)),
            AccessPath::Range { chain, .. } => Some(table.column_of_chain(*chain)),
            AccessPath::Point { .. } => Some(0), // trivially sorted
        },
        PhysicalPlan::Filter { input, .. } => sorted_on(input),
        _ => None,
    }
}

/// Choose and build the join of `left` (global prefix) with a scan of
/// `right_table`.
fn build_join(
    left: PhysicalPlan,
    right_scan: PhysicalPlan,
    right_table: &Arc<Table>,
    equi: Option<(usize, usize)>, // (left global idx, right local idx)
    residual: Option<Expr>,
    left_width: usize,
    opts: &PlanOptions,
) -> Result<PhysicalPlan> {
    let Some((lkey, rkey_local)) = equi else {
        // No equi condition: block nested loop with the residual as the
        // join predicate.
        return Ok(PhysicalPlan::BlockNlJoin {
            left: Box::new(left),
            right: Box::new(right_scan),
            pred: residual,
        });
    };

    let inner_chain = right_table.chain_for_column(rkey_local);
    let can_merge = sorted_on(&left) == Some(lkey) && sorted_on(&right_scan) == Some(rkey_local);
    let prefer = opts.prefer_join;

    let use_merge = match prefer {
        PreferredJoin::Merge => true,
        PreferredJoin::Auto => false, // index NLJ is the paper's default
        _ => false,
    };
    if use_merge {
        // Merge join needs sorted inputs; sort explicitly when they are not.
        let left = if sorted_on(&left) == Some(lkey) {
            left
        } else {
            PhysicalPlan::Sort {
                input: Box::new(left),
                keys: vec![(Expr::ColumnRef(lkey), false)],
            }
        };
        let right = if sorted_on(&right_scan) == Some(rkey_local) {
            right_scan
        } else {
            PhysicalPlan::Sort {
                input: Box::new(right_scan),
                keys: vec![(Expr::ColumnRef(rkey_local), false)],
            }
        };
        return Ok(PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_key: lkey,
            right_key: rkey_local,
            residual,
        });
    }

    match prefer {
        PreferredJoin::Hash => Ok(PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right_scan),
            left_key: lkey,
            right_key: rkey_local,
            residual,
        }),
        PreferredJoin::NestedLoop => {
            // The paper's Q19 "NestedLoopJoin and materialize the Select
            // result on inner loop": a block nested-loop over the
            // materialized inner scan, with the equi condition folded into
            // the join predicate. (The index-driven nested loop is what
            // `Auto` picks; forcing NestedLoop means the compute-bound
            // variant the paper contrasts against MergeJoin.)
            Ok(PhysicalPlan::BlockNlJoin {
                left: Box::new(left),
                right: Box::new(right_scan),
                pred: {
                    let eq = Expr::Binary {
                        op: BinOp::Eq,
                        left: Box::new(Expr::ColumnRef(lkey)),
                        right: Box::new(Expr::ColumnRef(left_width + rkey_local)),
                    };
                    Some(match residual {
                        Some(r) => Expr::Binary {
                            op: BinOp::And,
                            left: Box::new(eq),
                            right: Box::new(r),
                        },
                        None => eq,
                    })
                },
            })
        }
        PreferredJoin::Auto | PreferredJoin::Merge => {
            // Auto: index NLJ when the inner chain exists and the inner
            // scan is a plain one; merge when both sides arrive sorted;
            // hash otherwise.
            if let Some(chain) = inner_chain {
                if let PhysicalPlan::TableScan {
                    residual: r,
                    access: AccessPath::Full,
                    ..
                } = &right_scan
                {
                    let inner_residual = r.clone().map(|e| map_refs(e, &|i| i + left_width));
                    let combined = match (residual.clone(), inner_residual) {
                        (Some(a), Some(b)) => Some(Expr::Binary {
                            op: BinOp::And,
                            left: Box::new(a),
                            right: Box::new(b),
                        }),
                        (a, b) => a.or(b),
                    };
                    return Ok(PhysicalPlan::IndexNlJoin {
                        outer: Box::new(left),
                        inner: Arc::clone(right_table),
                        inner_chain: chain,
                        outer_key: lkey,
                        residual: combined,
                    });
                }
            }
            if can_merge {
                return Ok(PhysicalPlan::MergeJoin {
                    left: Box::new(left),
                    right: Box::new(right_scan),
                    left_key: lkey,
                    right_key: rkey_local,
                    residual,
                });
            }
            Ok(PhysicalPlan::HashJoin {
                left: Box::new(left),
                right: Box::new(right_scan),
                left_key: lkey,
                right_key: rkey_local,
                residual,
            })
        }
    }
}

/// Flatten an OR tree into its branches.
fn or_branches(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let mut out = or_branches(*left);
            out.extend(or_branches(*right));
            out
        }
        other => vec![other],
    }
}

/// Expose the scan builder for planner unit tests.
#[doc(hidden)]
pub fn build_scan_for_test(table: &Arc<Table>, conjuncts: Vec<Expr>) -> Result<PhysicalPlan> {
    build_scan(table, conjuncts)
}
