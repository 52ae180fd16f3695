//! Volcano execution of physical plans (§5.4).
//!
//! Operators pull one tuple at a time. Leaf scans are the verification
//! points: they wrap the storage layer's verified access methods
//! ([`veridb_storage::VerifiedScan`] and the point-lookup path), so any
//! omission or forgery surfaces as an error from `next()` before a single
//! wrong tuple can flow upward. Interior operators run on verified inputs
//! inside the enclave and need no further checks — the paper's reduction.
//!
//! Intermediate state (hash tables, sort buffers) is modeled as
//! enclave-resident and registered against the EPC budget, reproducing the
//! §5.4 discussion of large intermediate states.

use crate::ast::{AggFunc, Expr};
use crate::expr::{cmp_values, eval, passes};
use crate::planner::{AccessPath, PhysicalPlan};
use crate::spill::{ExecContext, SpilledRows};
use std::collections::HashMap;
use std::sync::Arc;
use veridb_common::obs::{Metric, Metrics, OperatorKind};
use veridb_common::{Result, Row, Value};
use veridb_storage::{Table, VerifiedScan};

/// A pull-based operator.
pub trait Operator {
    /// Produce the next row, `None` when exhausted. Errors are
    /// verification alarms or evaluation failures and abort the query.
    fn next(&mut self) -> Result<Option<Row>>;
}

/// Instantiate the operator tree for a plan (no spilling).
pub fn open(plan: &PhysicalPlan) -> Result<Box<dyn Operator>> {
    open_ctx(plan, &ExecContext::default())
}

/// Instantiate the operator tree for a plan under an execution context
/// (spilling of large intermediate state per §5.4). Every operator is
/// wrapped in a `MeteredOp` that counts rows produced per operator kind
/// into the context's registry.
pub fn open_ctx(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
    let (kind, op): (OperatorKind, Box<dyn Operator>) = match plan {
        PhysicalPlan::TableScan {
            table,
            access,
            residual,
        } => (
            OperatorKind::Scan,
            Box::new(ScanOp::new(table, access, residual.clone())?),
        ),
        PhysicalPlan::Filter { input, pred } => (
            OperatorKind::Filter,
            Box::new(FilterOp {
                input: open_ctx(input, ctx)?,
                pred: pred.clone(),
            }),
        ),
        PhysicalPlan::Project { input, exprs, .. } => (
            OperatorKind::Project,
            Box::new(ProjectOp {
                input: open_ctx(input, ctx)?,
                exprs: exprs.clone(),
            }),
        ),
        PhysicalPlan::IndexNlJoin {
            outer,
            inner,
            inner_chain,
            outer_key,
            residual,
        } => (
            OperatorKind::IndexNlJoin,
            Box::new(IndexNlJoinOp {
                outer: open_ctx(outer, ctx)?,
                inner: Arc::clone(inner),
                inner_chain: *inner_chain,
                outer_key: *outer_key,
                residual: residual.clone(),
                pending: Vec::new(),
            }),
        ),
        PhysicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => (
            OperatorKind::HashJoin,
            Box::new(HashJoinOp::new(
                open_ctx(left, ctx)?,
                open_ctx(right, ctx)?,
                *left_key,
                *right_key,
                residual.clone(),
            )),
        ),
        // Parallel partitioned hash join (see `parallel`): build-side
        // morsels bucket rows by key hash, per-partition tables build
        // concurrently, probe runs in parallel — output byte-identical to
        // the serial HashJoin.
        PhysicalPlan::PartitionedJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
            workers,
        } => (
            OperatorKind::PartitionedJoin,
            Box::new(crate::parallel::PartitionedJoinOp::new(
                left,
                right,
                *left_key,
                *right_key,
                residual.clone(),
                *workers,
                ctx,
            )),
        ),
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => (
            OperatorKind::MergeJoin,
            Box::new(MergeJoinOp::new(
                open_ctx(left, ctx)?,
                open_ctx(right, ctx)?,
                *left_key,
                *right_key,
                residual.clone(),
            )),
        ),
        PhysicalPlan::BlockNlJoin { left, right, pred } => (
            OperatorKind::BlockNlJoin,
            Box::new(BlockNlJoinOp {
                left: open_ctx(left, ctx)?,
                right_plan: (**right).clone(),
                right_rows: None,
                current_left: None,
                right_pos: 0,
                pred: pred.clone(),
                ctx: ctx.clone(),
            }),
        ),
        // Parallel grouped aggregation: per-morsel partial states merged at
        // a barrier (see `parallel`), avoiding a row funnel through Gather.
        PhysicalPlan::Aggregate { input, group, aggs }
            if matches!(**input, PhysicalPlan::Exchange { .. }) =>
        {
            let PhysicalPlan::Exchange {
                input: region,
                workers,
            } = &**input
            else {
                unreachable!("guarded by matches! above");
            };
            (
                OperatorKind::Aggregate,
                Box::new(crate::parallel::ParallelAggregateOp::new(
                    region,
                    *workers,
                    group.clone(),
                    aggs.clone(),
                    ctx,
                )),
            )
        }
        PhysicalPlan::Aggregate { input, group, aggs } => (
            OperatorKind::Aggregate,
            Box::new(AggregateOp::new(
                open_ctx(input, ctx)?,
                group.clone(),
                aggs.clone(),
            )),
        ),
        PhysicalPlan::Sort { input, keys } => (
            OperatorKind::Sort,
            Box::new(SortOp::new(open_ctx(input, ctx)?, keys.clone(), ctx)),
        ),
        PhysicalPlan::Limit { input, n } => (
            OperatorKind::Limit,
            Box::new(LimitOp {
                input: open_ctx(input, ctx)?,
                remaining: *n,
            }),
        ),
        PhysicalPlan::Distinct { input } => (
            OperatorKind::Distinct,
            Box::new(DistinctOp {
                input: open_ctx(input, ctx)?,
                seen: std::collections::HashSet::new(),
            }),
        ),
        PhysicalPlan::Gather { input } => {
            let (region, workers) = match &**input {
                PhysicalPlan::Exchange { input, workers } => (&**input, *workers),
                // Gather over a non-Exchange input degenerates to a
                // single-morsel region (defensive; the planner never
                // emits this shape).
                other => (other, 1),
            };
            (
                OperatorKind::Gather,
                Box::new(crate::parallel::GatherOp::new(region, workers, ctx)),
            )
        }
        // A bare Exchange (not consumed by Gather or Aggregate) still
        // executes correctly: gather its morsels in order.
        PhysicalPlan::Exchange { input, workers } => (
            OperatorKind::Gather,
            Box::new(crate::parallel::GatherOp::new(input, *workers, ctx)),
        ),
    };
    Ok(Box::new(MeteredOp {
        inner: op,
        metrics: Arc::clone(&ctx.metrics),
        kind,
    }))
}

/// Transparent wrapper counting rows each operator produces, by kind.
/// One relaxed atomic increment per row.
struct MeteredOp {
    inner: Box<dyn Operator>,
    metrics: Arc<Metrics>,
    kind: OperatorKind,
}

impl Operator for MeteredOp {
    fn next(&mut self) -> Result<Option<Row>> {
        let row = self.inner.next()?;
        if row.is_some() {
            self.metrics
                .add_at(Metric::OperatorRows, self.kind as usize, 1);
        }
        Ok(row)
    }
}

/// Run a plan to completion (no spilling).
pub fn run(plan: &PhysicalPlan) -> Result<Vec<Row>> {
    run_ctx(plan, &ExecContext::default())
}

/// Run a plan to completion under an execution context.
pub fn run_ctx(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Vec<Row>> {
    let mut op = open_ctx(plan, ctx)?;
    let mut out = Vec::new();
    while let Some(row) = op.next()? {
        out.push(row);
    }
    Ok(out)
}

// ---- scans -----------------------------------------------------------------

enum ScanSource {
    /// Boxed: the cursor is several times the size of the point variant.
    Range(Box<VerifiedScan>),
    Point(std::vec::IntoIter<Row>),
}

/// Leaf scan over a table's verified access methods. A range source
/// batches on its own: [`VerifiedScan`] verifies a whole round of pages
/// per refill and pops already-verified rows until it is empty.
struct ScanOp {
    source: ScanSource,
    residual: Option<Expr>,
}

impl ScanOp {
    fn new(table: &Arc<Table>, access: &AccessPath, residual: Option<Expr>) -> Result<Self> {
        let source = match access {
            AccessPath::Full => ScanSource::Range(Box::new(table.seq_scan())),
            AccessPath::Range { chain, lo, hi } => {
                ScanSource::Range(Box::new(table.range_scan(*chain, lo.clone(), hi.clone())))
            }
            AccessPath::Point { chain, key } => {
                if *chain == 0 {
                    // Primary key: verified point lookup (§5.2 Index
                    // Search); 0 or 1 rows.
                    let rows = match table.get_by_pk(key)? {
                        Some(r) => vec![r],
                        None => vec![],
                    };
                    ScanSource::Point(rows.into_iter())
                } else {
                    // Secondary chain: verified equality scan.
                    ScanSource::Range(Box::new(table.scan_eq(*chain, key)))
                }
            }
        };
        Ok(ScanOp { source, residual })
    }
}

impl Operator for ScanOp {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            let row = match &mut self.source {
                ScanSource::Range(s) => s.next().transpose()?,
                ScanSource::Point(it) => it.next(),
            };
            let Some(row) = row else {
                return Ok(None);
            };
            match &self.residual {
                Some(pred) if !passes(pred, &row)? => continue,
                _ => return Ok(Some(row)),
            }
        }
    }
}

// ---- filter / project ---------------------------------------------------------

struct FilterOp {
    input: Box<dyn Operator>,
    pred: Expr,
}

impl Operator for FilterOp {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            if passes(&self.pred, &row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct ProjectOp {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
}

impl Operator for ProjectOp {
    fn next(&mut self) -> Result<Option<Row>> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(eval(e, &row)?);
                }
                Ok(Some(Row::new(out)))
            }
        }
    }
}

// ---- joins -----------------------------------------------------------------------

/// The paper's Example 5.4 join: pull outer tuples, then a verified
/// IndexSearch / equality scan on the inner table per tuple.
struct IndexNlJoinOp {
    outer: Box<dyn Operator>,
    inner: Arc<Table>,
    inner_chain: usize,
    outer_key: usize,
    residual: Option<Expr>,
    /// Joined rows awaiting emission for the current outer tuple.
    pending: Vec<Row>,
}

impl Operator for IndexNlJoinOp {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(outer_row) = self.outer.next()? else {
                return Ok(None);
            };
            let key = outer_row[self.outer_key].clone();
            if key.is_null() {
                continue; // NULL keys never join
            }
            let matches: Vec<Row> = if self.inner_chain == 0 {
                match self.inner.get_by_pk(&key)? {
                    Some(r) => vec![r],
                    None => vec![],
                }
            } else {
                self.inner.scan_eq(self.inner_chain, &key).collect_rows()?
            };
            for inner_row in matches {
                let joined = outer_row.joined(&inner_row);
                let keep = match &self.residual {
                    Some(p) => passes(p, &joined)?,
                    None => true,
                };
                if keep {
                    self.pending.push(joined);
                }
            }
            self.pending.reverse(); // preserve inner order
        }
    }
}

struct HashJoinOp {
    left: Box<dyn Operator>,
    right: Option<Box<dyn Operator>>,
    left_key: usize,
    right_key: usize,
    residual: Option<Expr>,
    table: HashMap<Value, Vec<Row>>,
    pending: Vec<Row>,
}

impl HashJoinOp {
    fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
    ) -> Self {
        HashJoinOp {
            left,
            right: Some(right),
            left_key,
            right_key,
            residual,
            table: HashMap::new(),
            pending: Vec::new(),
        }
    }

    fn build(&mut self) -> Result<()> {
        if let Some(mut right) = self.right.take() {
            while let Some(row) = right.next()? {
                let k = row[self.right_key].clone();
                if k.is_null() {
                    continue;
                }
                self.table.entry(k).or_default().push(row);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinOp {
    fn next(&mut self) -> Result<Option<Row>> {
        self.build()?;
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(lrow) = self.left.next()? else {
                return Ok(None);
            };
            let k = &lrow[self.left_key];
            if k.is_null() {
                continue;
            }
            if let Some(matches) = self.table.get(k) {
                for rrow in matches {
                    let joined = lrow.joined(rrow);
                    let keep = match &self.residual {
                        Some(p) => passes(p, &joined)?,
                        None => true,
                    };
                    if keep {
                        self.pending.push(joined);
                    }
                }
                self.pending.reverse();
            }
        }
    }
}

/// Merge join over sorted inputs; buffers one duplicate group of the right
/// side at a time (the "larger intermediate state" the paper mentions for
/// Q19's MergeJoin plan).
struct MergeJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: usize,
    right_key: usize,
    residual: Option<Expr>,
    rrow: Option<Row>,
    group: Vec<Row>,
    group_key: Option<Value>,
    emit: Vec<Row>,
}

impl MergeJoinOp {
    fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
    ) -> Self {
        MergeJoinOp {
            left,
            right,
            left_key,
            right_key,
            residual,
            rrow: None,
            group: Vec::new(),
            group_key: None,
            emit: Vec::new(),
        }
    }

    fn advance_right_group(&mut self, key: &Value) -> Result<()> {
        // Load the right-side duplicate group for `key` (right is sorted).
        if self.group_key.as_ref() == Some(key) {
            return Ok(());
        }
        self.group.clear();
        self.group_key = None;
        loop {
            if self.rrow.is_none() {
                self.rrow = self.right.next()?;
            }
            let Some(r) = &self.rrow else { break };
            let rk = &r[self.right_key];
            if rk.is_null() {
                self.rrow = None;
                continue;
            }
            match cmp_values(rk, key)? {
                std::cmp::Ordering::Less => {
                    self.rrow = None; // discard and advance
                }
                std::cmp::Ordering::Equal => {
                    self.group.push(self.rrow.take().expect("checked"));
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        if !self.group.is_empty() {
            self.group_key = Some(key.clone());
        }
        Ok(())
    }
}

impl Operator for MergeJoinOp {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.emit.pop() {
                return Ok(Some(row));
            }
            let Some(lrow) = self.left.next()? else {
                return Ok(None);
            };
            let lk = lrow[self.left_key].clone();
            if lk.is_null() {
                continue;
            }
            self.advance_right_group(&lk)?;
            if self.group_key.as_ref() == Some(&lk) {
                for rrow in &self.group {
                    let joined = lrow.joined(rrow);
                    let keep = match &self.residual {
                        Some(p) => passes(p, &joined)?,
                        None => true,
                    };
                    if keep {
                        self.emit.push(joined);
                    }
                }
                self.emit.reverse();
            }
        }
    }
}

/// Block nested-loop join: materializes the right side once (the paper's
/// Q19 "NestedLoopJoin and materialize the Select result on inner loop").
/// The materialization point spills to verified storage beyond the
/// context's threshold (§5.4), instead of paying SGX secure-swap costs.
struct BlockNlJoinOp {
    left: Box<dyn Operator>,
    right_plan: PhysicalPlan,
    right_rows: Option<SpilledRows>,
    current_left: Option<Row>,
    right_pos: usize,
    pred: Option<Expr>,
    ctx: ExecContext,
}

impl Operator for BlockNlJoinOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.right_rows.is_none() {
            let mut buf = SpilledRows::new(self.ctx.clone());
            let mut op = open_ctx(&self.right_plan, &self.ctx)?;
            while let Some(row) = op.next()? {
                buf.push(row)?;
            }
            self.right_rows = Some(buf);
        }
        let right = self.right_rows.as_ref().expect("materialized above");
        loop {
            if self.current_left.is_none() {
                self.current_left = self.left.next()?;
                self.right_pos = 0;
                if self.current_left.is_none() {
                    return Ok(None);
                }
            }
            let lrow = self.current_left.as_ref().expect("checked");
            while self.right_pos < right.len() {
                let rrow = right.get(self.right_pos)?;
                self.right_pos += 1;
                let joined = lrow.joined(&rrow);
                let keep = match &self.pred {
                    Some(p) => passes(p, &joined)?,
                    None => true,
                };
                if keep {
                    return Ok(Some(joined));
                }
            }
            self.current_left = None;
        }
    }
}

// ---- aggregation -----------------------------------------------------------------

/// Running state of one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum {
        acc: f64,
        any: bool,
        int_only: bool,
        int_acc: i64,
    },
    Avg {
        sum: f64,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                acc: 0.0,
                any: false,
                int_only: true,
                int_acc: 0,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    pub(crate) fn feed(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) feeds None→count all; COUNT(e) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(Value::Null) => {}
                    Some(_) => *n += 1,
                }
            }
            AggState::Sum {
                acc,
                any,
                int_only,
                int_acc,
            } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        match &v {
                            Value::Int(i) => {
                                *int_acc = int_acc.wrapping_add(*i);
                                *acc += *i as f64;
                            }
                            _ => {
                                *int_only = false;
                                *acc += v.as_f64()?;
                            }
                        }
                        *any = true;
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *sum += v.as_f64()?;
                        *count += 1;
                    }
                }
            }
            AggState::Min(slot) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match slot {
                            None => true,
                            Some(cur) => cmp_values(&v, cur)? == std::cmp::Ordering::Less,
                        };
                        if better {
                            *slot = Some(v);
                        }
                    }
                }
            }
            AggState::Max(slot) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match slot {
                            None => true,
                            Some(cur) => cmp_values(&v, cur)? == std::cmp::Ordering::Greater,
                        };
                        if better {
                            *slot = Some(v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold another partial state (same aggregate function, disjoint input
    /// partition) into this one. Callers merge partials in a fixed order
    /// (morsel-index order), so float accumulation is deterministic for a
    /// given morsel tiling.
    pub(crate) fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (
                AggState::Sum {
                    acc,
                    any,
                    int_only,
                    int_acc,
                },
                AggState::Sum {
                    acc: o_acc,
                    any: o_any,
                    int_only: o_int_only,
                    int_acc: o_int_acc,
                },
            ) => {
                *acc += o_acc;
                *any |= o_any;
                *int_only &= o_int_only;
                *int_acc = int_acc.wrapping_add(o_int_acc);
            }
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: o_sum,
                    count: o_count,
                },
            ) => {
                *sum += o_sum;
                *count += o_count;
            }
            (AggState::Min(slot), AggState::Min(other)) => {
                if let Some(v) = other {
                    let better = match slot {
                        None => true,
                        Some(cur) => cmp_values(&v, cur)? == std::cmp::Ordering::Less,
                    };
                    if better {
                        *slot = Some(v);
                    }
                }
            }
            (AggState::Max(slot), AggState::Max(other)) => {
                if let Some(v) = other {
                    let better = match slot {
                        None => true,
                        Some(cur) => cmp_values(&v, cur)? == std::cmp::Ordering::Greater,
                    };
                    if better {
                        *slot = Some(v);
                    }
                }
            }
            // Partials are built from the same aggregate list, so the
            // variants always line up.
            _ => unreachable!("merging mismatched aggregate states"),
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                acc,
                any,
                int_only,
                int_acc,
            } => {
                if !any {
                    Value::Null
                } else if int_only {
                    Value::Int(int_acc)
                } else {
                    Value::Float(acc)
                }
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

struct AggregateOp {
    input: Box<dyn Operator>,
    group: Vec<Expr>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    output: Option<std::vec::IntoIter<Row>>,
}

impl AggregateOp {
    fn new(input: Box<dyn Operator>, group: Vec<Expr>, aggs: Vec<(AggFunc, Option<Expr>)>) -> Self {
        AggregateOp {
            input,
            group,
            aggs,
            output: None,
        }
    }

    fn materialize(&mut self) -> Result<Vec<Row>> {
        let mut partial = GroupedPartial::default();
        partial.accumulate(self.input.as_mut(), &self.group, &self.aggs)?;
        partial.finish(&self.group, &self.aggs)
    }
}

/// Feed one input row's aggregate arguments into a group's states.
fn feed(states: &mut [AggState], aggs: &[(AggFunc, Option<Expr>)], row: &Row) -> Result<()> {
    for (state, (_, arg)) in states.iter_mut().zip(aggs) {
        let v = match arg {
            Some(e) => Some(eval(e, row)?),
            None => None,
        };
        state.feed(v)?;
    }
    Ok(())
}

/// Grouped aggregation state accumulated over one input partition:
/// per-group running [`AggState`]s plus first-seen group order. The serial
/// [`AggregateOp`] uses a single instance; the parallel aggregation path
/// builds one per morsel and merges them in morsel order.
#[derive(Debug, Default)]
pub(crate) struct GroupedPartial {
    /// Group keys in first-seen order (the executor's output order).
    pub(crate) order: Vec<Vec<Value>>,
    /// Per-group aggregate states.
    pub(crate) groups: HashMap<Vec<Value>, Vec<AggState>>,
}

impl GroupedPartial {
    /// Drain `input`, folding every row into this partial.
    pub(crate) fn accumulate(
        &mut self,
        input: &mut dyn Operator,
        group: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
    ) -> Result<()> {
        // One key buffer for the whole input: each row's key is written
        // over the previous one (a column's string reuses the buffer's
        // capacity) and looked up by slice, so only a new group allocates.
        let mut key = vec![Value::Null; group.len()];
        while let Some(row) = input.next()? {
            for (slot, g) in key.iter_mut().zip(group) {
                match g {
                    Expr::ColumnRef(i) if *i < row.len() => slot.clone_from(&row[*i]),
                    _ => *slot = eval(g, &row)?,
                }
            }
            match self.groups.get_mut(key.as_slice()) {
                Some(states) => feed(states, aggs, &row)?,
                None => {
                    let mut states: Vec<AggState> =
                        aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
                    feed(&mut states, aggs, &row)?;
                    self.order.push(key.clone());
                    self.groups.insert(key.clone(), states);
                }
            }
        }
        Ok(())
    }

    /// Fold another partition's partial into this one. Groups first seen
    /// in `other` are appended after this partial's groups, so merging
    /// partials in morsel order reproduces the serial first-seen order.
    pub(crate) fn merge(&mut self, other: GroupedPartial) -> Result<()> {
        let GroupedPartial { order, mut groups } = other;
        for key in order {
            let states = groups.remove(&key).expect("key recorded in order");
            match self.groups.get_mut(&key) {
                Some(mine) => {
                    for (m, s) in mine.iter_mut().zip(states) {
                        m.merge(s)?;
                    }
                }
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, states);
                }
            }
        }
        Ok(())
    }

    /// Emit the final rows (group key columns then aggregate values).
    pub(crate) fn finish(
        self,
        group: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
    ) -> Result<Vec<Row>> {
        let GroupedPartial { order, mut groups } = self;
        // Global aggregation over zero rows still emits one row of
        // identity values (COUNT(*)=0, SUM=NULL, …) per SQL semantics.
        if order.is_empty() && group.is_empty() {
            let states: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
            let mut row = Vec::new();
            row.extend(states.into_iter().map(|s| s.finish()));
            return Ok(vec![Row::new(row)]);
        }
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let states = groups.remove(&key).expect("inserted above");
            let mut row = key;
            row.extend(states.into_iter().map(|s| s.finish()));
            out.push(Row::new(row));
        }
        Ok(out)
    }
}

impl Operator for AggregateOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            self.output = Some(self.materialize()?.into_iter());
        }
        Ok(self.output.as_mut().expect("set above").next())
    }
}

// ---- sort / limit -------------------------------------------------------------------

struct SortOp {
    input: Box<dyn Operator>,
    keys: Vec<(Expr, bool)>,
    ctx: ExecContext,
    output: Option<std::vec::IntoIter<Row>>,
}

impl SortOp {
    fn new(input: Box<dyn Operator>, keys: Vec<(Expr, bool)>, ctx: &ExecContext) -> Self {
        SortOp {
            input,
            keys,
            ctx: ctx.clone(),
            output: None,
        }
    }
}

impl Operator for SortOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            let mut rows = Vec::new();
            while let Some(r) = self.input.next()? {
                rows.push(r);
            }
            // Large inputs under a worker pool take the parallel tail:
            // per-worker sorted runs + tournament-tree merge, byte-identical
            // to the serial stable sort (see `parallel::parallel_sort`).
            let sorted =
                if self.ctx.workers > 1 && rows.len() >= crate::parallel::PARALLEL_SORT_MIN_ROWS {
                    crate::parallel::parallel_sort(rows, &self.keys, self.ctx.workers, &self.ctx)?
                } else {
                    // Precompute sort keys; Value's total order handles NULLs
                    // (first) and floats (total_cmp).
                    let mut keyed: Vec<(Vec<Value>, Row)> = rows
                        .into_iter()
                        .map(|r| -> Result<(Vec<Value>, Row)> {
                            let ks = self
                                .keys
                                .iter()
                                .map(|(e, _)| eval(e, &r))
                                .collect::<Result<Vec<Value>>>()?;
                            Ok((ks, r))
                        })
                        .collect::<Result<_>>()?;
                    let descs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
                    keyed.sort_by(|(a, _), (b, _)| crate::parallel::cmp_sort_keys(a, b, &descs));
                    keyed.into_iter().map(|(_, r)| r).collect()
                };
            self.output = Some(sorted.into_iter());
        }
        Ok(self.output.as_mut().expect("set above").next())
    }
}

/// Hash-based duplicate elimination (`SELECT DISTINCT`).
struct DistinctOp {
    input: Box<dyn Operator>,
    seen: std::collections::HashSet<Row>,
}

impl Operator for DistinctOp {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct LimitOp {
    input: Box<dyn Operator>,
    remaining: u64,
}

impl Operator for LimitOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(r) => {
                self.remaining -= 1;
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }
}
