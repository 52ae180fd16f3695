//! Morsel-driven parallel execution of Exchange/Gather regions, the
//! partitioned hash join, and the parallel sort tail.
//!
//! A parallel region (the subtree under [`PhysicalPlan::Exchange`]) is a
//! scan-driven pipeline. The driving verified scan's key range is split
//! into **morsels** — contiguous sub-ranges sampled from the untrusted
//! index ([`Table::morsel_ranges`]) that tile the original range exactly —
//! and submitted as one **job** to the process-wide scheduler pool
//! ([`veridb_common::sched`]): morsel indices are seeded round-robin
//! across per-job lanes; an attached pool worker pops the front of its
//! own lane and, when empty, steals from the back of a victim's. Steals
//! are counted per lane (`query.worker*.steals`), so a skewed tiling
//! shows up in `.stats` as steal traffic instead of idle workers. The
//! pool is shared by every concurrent query in the process — its fixed
//! worker set bounds total threads, and the per-job `dop` cap (the
//! `--workers` knob) decides how much of it one query may occupy, so a
//! lone query gets the whole pool while many queries share it without
//! oversubscription. Workers finishing one query's region migrate to
//! another's (`query.cross_job_steals`), and scheduler admission latency
//! is visible as `query.sched_wait_us`.
//!
//! Verification is unchanged: each worker's leaf scan is an ordinary
//! [`VerifiedScan`](veridb_storage::VerifiedScan) over its sub-range, so
//! conditions 1–3 (§5.2) hold per morsel, and completeness of the whole
//! range follows from the tiling — the untrusted split points can skew
//! load balance but never correctness. Workers read through their own
//! batched cursors against the already-thread-safe wrcm partitions, so
//! RS/WS accounting stays balanced exactly as in the serial path.
//!
//! Determinism: the number of morsels is fixed by `MORSEL_TARGET`
//! (independent of the pool size) and results are merged in morsel-index
//! order, which equals the serial scan's chain order. Scheduling — which
//! worker runs which morsel, in what real-time order — never affects the
//! merge order, so work stealing preserves the guarantee: row order is
//! identical to serial execution for any worker count, and float
//! aggregates are bit-identical across worker counts ≥ 2 (partial-sum
//! association is fixed by the tiling, not by scheduling).
//!
//! The same scheduler backs two post-scan parallel operators:
//!
//! - `PartitionedJoinOp`: build-side morsels emit partition-hashed row
//!   buckets; buckets are concatenated in morsel order per partition (so
//!   every key's row list preserves the serial build's insertion order),
//!   the per-partition hash tables are built concurrently, and the probe
//!   side runs in parallel with outputs merged in morsel/chunk order —
//!   byte-identical to the serial [`HashJoin`](PhysicalPlan::HashJoin).
//! - `parallel_sort`: contiguous input chunks are key-precomputed and
//!   stably sorted as independent runs (spill-capable via
//!   [`SpilledRows`]), then merged through a tournament tree whose ties
//!   break on run index — reproducing a global stable sort exactly.

use crate::ast::{AggFunc, Expr};
use crate::exec::{open_ctx, GroupedPartial, Operator};
use crate::expr::{eval, passes};
use crate::planner::{AccessPath, PhysicalPlan};
use crate::spill::{ExecContext, SpilledRows};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use veridb_common::obs::{Metric, Metrics};
use veridb_common::sync::Mutex;
use veridb_common::{sched, Result, Row, Value};
use veridb_storage::Table;

/// Morsel count a parallel region aims for, independent of the worker
/// pool size. Keeping the tiling fixed makes results (including float
/// partial-sum rounding) identical for every pool size. The target is
/// deliberately several× the maximum pool size: finer morsels give the
/// work-stealing scheduler slack to rebalance skewed ranges (the
/// 256-row floor in [`Table::morsel_ranges`] still bounds the count for
/// small tables).
pub(crate) const MORSEL_TARGET: usize = 64;

/// Number of hash partitions a [`PartitionedJoinOp`] build fans into.
/// Fixed (power of two) so the partitioning is independent of the pool
/// size; partitions only group build rows into independently-buildable
/// tables and never affect output order.
pub(crate) const JOIN_PARTITIONS: usize = 32;

/// Probe-side chunk size when the probe input is not morsel-partitionable
/// (e.g. the output of a nested join) and is probed from a materialized
/// buffer instead. Chunk boundaries cannot affect the output: the probe
/// is a pure per-row map and chunks are concatenated in input order.
const PROBE_CHUNK_ROWS: usize = 1024;

/// Below this many rows a sort stays on the serial single-`sort_by` path
/// — run setup and merge bookkeeping would cost more than they save.
pub(crate) const PARALLEL_SORT_MIN_ROWS: usize = 1024;

/// The region's driving verified scan: the table plus the chain and key
/// range that morsels partition.
type DriverScan<'a> = (&'a Arc<Table>, usize, &'a Bound<Value>, &'a Bound<Value>);

/// The driving scan of `plan` when it is a morsel-partitionable pipeline:
/// a verified full or range scan, optionally under Filter/Project,
/// optionally driving an index nested-loop join (the "spine"). Such a
/// subtree can be re-instantiated per key sub-range of its driving scan
/// and executed by independent workers, with each worker's
/// [`VerifiedScan`](veridb_storage::VerifiedScan) proving completeness of
/// its own sub-range. `None` for anything else.
pub(crate) fn driver_scan(plan: &PhysicalPlan) -> Option<DriverScan<'_>> {
    match plan {
        PhysicalPlan::TableScan { table, access, .. } => match access {
            AccessPath::Full => Some((table, 0, &Bound::Unbounded, &Bound::Unbounded)),
            AccessPath::Range { chain, lo, hi } => Some((table, *chain, lo, hi)),
            AccessPath::Point { .. } => None,
        },
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            driver_scan(input)
        }
        PhysicalPlan::IndexNlJoin { outer, .. } => driver_scan(outer),
        _ => None,
    }
}

/// `plan` with its driving scan's access path narrowed to `[lo, hi]`.
/// Only the spine nodes are rebuilt; everything else is cloned.
fn with_driver_range(plan: &PhysicalPlan, lo: &Bound<Value>, hi: &Bound<Value>) -> PhysicalPlan {
    match plan {
        PhysicalPlan::TableScan {
            table,
            access,
            residual,
        } => {
            let chain = match access {
                AccessPath::Full => 0,
                AccessPath::Range { chain, .. } => *chain,
                // Point drivers are never morselized (driver_scan skips
                // them), so reaching here means "leave untouched".
                AccessPath::Point { .. } => return plan.clone(),
            };
            PhysicalPlan::TableScan {
                table: Arc::clone(table),
                access: AccessPath::Range {
                    chain,
                    lo: lo.clone(),
                    hi: hi.clone(),
                },
                residual: residual.clone(),
            }
        }
        PhysicalPlan::Filter { input, pred } => PhysicalPlan::Filter {
            input: Box::new(with_driver_range(input, lo, hi)),
            pred: pred.clone(),
        },
        PhysicalPlan::Project {
            input,
            exprs,
            names,
        } => PhysicalPlan::Project {
            input: Box::new(with_driver_range(input, lo, hi)),
            exprs: exprs.clone(),
            names: names.clone(),
        },
        PhysicalPlan::IndexNlJoin {
            outer,
            inner,
            inner_chain,
            outer_key,
            residual,
        } => PhysicalPlan::IndexNlJoin {
            outer: Box::new(with_driver_range(outer, lo, hi)),
            inner: Arc::clone(inner),
            inner_chain: *inner_chain,
            outer_key: *outer_key,
            residual: residual.clone(),
        },
        other => other.clone(),
    }
}

/// One plan instance per morsel, in chain (morsel-index) order. Falls back
/// to a single instance of the whole region when the driving scan cannot
/// be found or the table is too small to split.
fn morsel_plans(region: &PhysicalPlan) -> Vec<PhysicalPlan> {
    let Some((table, chain, lo, hi)) = driver_scan(region) else {
        return vec![region.clone()];
    };
    let ranges = table.morsel_ranges(chain, lo, hi, MORSEL_TARGET);
    if ranges.len() <= 1 {
        return vec![region.clone()];
    }
    ranges
        .iter()
        .map(|(l, h)| with_driver_range(region, l, h))
        .collect()
}

// ---- shared-pool work-stealing execution ------------------------------------------

/// Execute `work(0..n)` as one job on the process-wide scheduler pool
/// ([`sched`]) and return results in index order.
///
/// `dop` caps how many pool workers may execute this job concurrently
/// (the `--workers` knob); the pool itself is sized once per process, so
/// concurrent queries share a fixed set of threads instead of spawning
/// their own. Task indices are seeded round-robin across per-job lanes;
/// an attached worker pops the front of its own lane and steals from the
/// back of a victim's, exactly as the old per-query scoped pool did —
/// lane numbers feed the per-worker observability counters.
///
/// The closure returns `(result, rows_processed)`; row counts feed the
/// per-worker observability counters. With one task or a DOP of one the
/// closures run inline on the calling thread (no pool, no extra metrics).
/// The lowest-indexed recorded error aborts the region; workers stop
/// claiming new tasks once any error is recorded (or a task panics).
pub(crate) fn run_indexed<T, F>(n: usize, dop: usize, metrics: &Metrics, work: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<(T, u64)> + Sync,
{
    if n <= 1 || dop <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(work(i)?.0);
        }
        return Ok(out);
    }
    metrics.inc(Metric::ParallelRegions);
    metrics.add(Metric::MorselsDispatched, n as u64);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let stats = sched::run_job(n, dop, &|t: sched::JobTask| {
        if failed.load(Ordering::Relaxed) {
            // Another task already recorded an error; abort without
            // running (mirrors the old pre-claim failure check).
            return false;
        }
        let started = std::time::Instant::now();
        metrics.add_at(Metric::WorkerMorsels, t.lane, 1);
        if t.stolen {
            metrics.add_at(Metric::WorkerSteals, t.lane, 1);
            metrics.inc(Metric::MorselsStolen);
        }
        if t.cross_job {
            metrics.add_at(Metric::WorkerCrossSteals, t.lane, 1);
            metrics.inc(Metric::CrossJobSteals);
        }
        let result = work(t.index);
        let ok = result.is_ok();
        if let Ok((_, rows)) = &result {
            metrics.add_at(Metric::WorkerRows, t.lane, *rows);
        }
        metrics.add_at(
            Metric::WorkerBusyNs,
            t.lane,
            started.elapsed().as_nanos() as u64,
        );
        if !ok {
            failed.store(true, Ordering::Relaxed);
        }
        *slots[t.index].lock() = Some(result.map(|(value, _rows)| value));
        ok
    });
    metrics.record(Metric::SchedWaitUs, stats.sched_wait_us);
    let pct = (stats.workers_attached * 100) / stats.pool_size.max(1);
    metrics.set(Metric::PoolUtilization, pct as u64);
    // Lowest-indexed recorded error wins. Under work stealing an
    // abandoned (never-claimed) index can sit anywhere relative to the
    // error, so scan for errors before requiring every slot be filled.
    let mut out = Vec::with_capacity(n);
    let mut panicked = false;
    for slot in &slots {
        match slot.lock().take() {
            Some(Ok(value)) => out.push(value),
            Some(Err(e)) => return Err(e),
            // A missing slot with no recorded error means the task body
            // panicked inside the pool (the scheduler caught it and
            // failed the job without a result).
            None => panicked = true,
        }
    }
    if panicked || failed.load(Ordering::Relaxed) {
        return Err(veridb_common::Error::Plan(
            "parallel region aborted: a morsel task panicked on the scheduler pool".into(),
        ));
    }
    Ok(out)
}

/// Execute one closure per morsel plan via [`run_indexed`] and return the
/// per-morsel results in morsel-index order.
fn run_morsels<T, F>(
    plans: &[PhysicalPlan],
    pool: usize,
    ctx: &ExecContext,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&PhysicalPlan, &ExecContext) -> Result<(T, u64)> + Sync,
{
    run_indexed(plans.len(), pool, &ctx.metrics, |i| work(&plans[i], ctx))
}

/// Resolve the degree-of-parallelism cap for an operator: the execution
/// context's worker count when set, else the value recorded at plan
/// time. This caps how many *shared-pool* workers the operator's job may
/// occupy; it no longer sizes a private pool.
fn pool_size(ctx: &ExecContext, planned_workers: usize) -> usize {
    let p = if ctx.workers > 0 {
        ctx.workers
    } else {
        planned_workers
    };
    p.max(1)
}

/// Merge operator over a parallel region: materializes every morsel's
/// output via the worker pool on first `next()`, then streams the rows in
/// morsel-index order (= the serial scan's row order).
pub(crate) struct GatherOp {
    region: PhysicalPlan,
    /// Pool size recorded in the plan's Exchange node.
    planned_workers: usize,
    ctx: ExecContext,
    output: Option<std::vec::IntoIter<Row>>,
}

impl GatherOp {
    pub(crate) fn new(region: &PhysicalPlan, planned_workers: usize, ctx: &ExecContext) -> Self {
        GatherOp {
            region: region.clone(),
            planned_workers,
            ctx: ctx.clone(),
            output: None,
        }
    }
}

impl Operator for GatherOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            let plans = morsel_plans(&self.region);
            let pool = pool_size(&self.ctx, self.planned_workers);
            let per_morsel = run_morsels(&plans, pool, &self.ctx, |p, c| {
                let mut op = open_ctx(p, c)?;
                let mut rows = Vec::new();
                while let Some(r) = op.next()? {
                    rows.push(r);
                }
                let n = rows.len() as u64;
                Ok((rows, n))
            })?;
            let rows: Vec<Row> = per_morsel.into_iter().flatten().collect();
            self.output = Some(rows.into_iter());
        }
        Ok(self.output.as_mut().expect("set above").next())
    }
}

/// Counts rows an inner operator produces (for per-worker metrics).
struct CountingOp<'a> {
    inner: Box<dyn Operator>,
    n: &'a mut u64,
}

impl Operator for CountingOp<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        let r = self.inner.next()?;
        if r.is_some() {
            *self.n += 1;
        }
        Ok(r)
    }
}

/// Parallel grouped aggregation: each morsel accumulates a private
/// [`GroupedPartial`] (hash states + first-seen group order); the partials
/// are merged at the pool barrier in morsel order, reproducing the serial
/// executor's group order and (for a fixed tiling) its float rounding.
/// Rows never funnel through a single stream before being aggregated.
pub(crate) struct ParallelAggregateOp {
    region: PhysicalPlan,
    planned_workers: usize,
    group: Vec<Expr>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    ctx: ExecContext,
    output: Option<std::vec::IntoIter<Row>>,
}

impl ParallelAggregateOp {
    pub(crate) fn new(
        region: &PhysicalPlan,
        planned_workers: usize,
        group: Vec<Expr>,
        aggs: Vec<(AggFunc, Option<Expr>)>,
        ctx: &ExecContext,
    ) -> Self {
        ParallelAggregateOp {
            region: region.clone(),
            planned_workers,
            group,
            aggs,
            ctx: ctx.clone(),
            output: None,
        }
    }

    fn materialize(&self) -> Result<Vec<Row>> {
        let plans = morsel_plans(&self.region);
        let pool = pool_size(&self.ctx, self.planned_workers);
        let group = &self.group;
        let aggs = &self.aggs;
        let partials = run_morsels(&plans, pool, &self.ctx, |p, c| {
            let mut n: u64 = 0;
            let mut input = CountingOp {
                inner: open_ctx(p, c)?,
                n: &mut n,
            };
            let mut partial = GroupedPartial::default();
            partial.accumulate(&mut input, group, aggs)?;
            Ok((partial, n))
        })?;
        let mut merged = GroupedPartial::default();
        for p in partials {
            merged.merge(p)?;
        }
        merged.finish(group, aggs)
    }
}

impl Operator for ParallelAggregateOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            self.output = Some(self.materialize()?.into_iter());
        }
        Ok(self.output.as_mut().expect("set above").next())
    }
}

// ---- partitioned hash join ---------------------------------------------------------

type PartTable = HashMap<Value, Vec<Row>>;

/// Hash partition of one join-key value. Uses the std `DefaultHasher`
/// with its fixed default keys, so build and probe agree within a
/// process; the choice never leaks into results (partitions only group
/// rows into independently-built tables).
fn partition_of(v: &Value) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    (h.finish() as usize) & (JOIN_PARTITIONS - 1)
}

/// Bucket `rows` by join-key hash partition, preserving input order
/// within each bucket. Null keys are dropped — inner equi-join semantics,
/// exactly as the serial build skips them.
pub(crate) fn bucket_rows(rows: Vec<Row>, key: usize) -> Vec<Vec<Row>> {
    let mut buckets: Vec<Vec<Row>> = (0..JOIN_PARTITIONS).map(|_| Vec::new()).collect();
    for row in rows {
        let k = &row[key];
        if k.is_null() {
            continue;
        }
        buckets[partition_of(k)].push(row);
    }
    buckets
}

/// Build the per-partition hash tables from per-morsel bucket sets, in
/// parallel over partitions. Buckets are concatenated in morsel order
/// first, so each key's row vector preserves the build stream's order —
/// the serial HashJoin's insertion order — making probe output
/// byte-identical to serial execution.
pub(crate) fn build_partition_tables(
    morsel_buckets: Vec<Vec<Vec<Row>>>,
    key: usize,
    pool: usize,
    metrics: &Metrics,
) -> Result<Vec<PartTable>> {
    let mut parts: Vec<Vec<Row>> = (0..JOIN_PARTITIONS).map(|_| Vec::new()).collect();
    for buckets in morsel_buckets {
        for (p, rows) in buckets.into_iter().enumerate() {
            parts[p].extend(rows);
        }
    }
    // Ownership handoff to the pool: each build task takes its partition's
    // rows out of the shared cell exactly once.
    let cells: Vec<Mutex<Vec<Row>>> = parts.into_iter().map(Mutex::new).collect();
    run_indexed(JOIN_PARTITIONS, pool, metrics, |p| {
        let rows = std::mem::take(&mut *cells[p].lock());
        let n = rows.len() as u64;
        let mut table = PartTable::new();
        for row in rows {
            table.entry(row[key].clone()).or_default().push(row);
        }
        Ok((table, n))
    })
}

/// Probe one left row against the partition tables, appending joined rows
/// that pass the residual. Match order is the per-key build order, the
/// same order the serial HashJoin emits.
fn probe_one(
    lrow: &Row,
    tables: &[PartTable],
    left_key: usize,
    residual: &Option<Expr>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let k = &lrow[left_key];
    if k.is_null() {
        return Ok(());
    }
    if let Some(matches) = tables[partition_of(k)].get(k) {
        for rrow in matches {
            let joined = lrow.joined(rrow);
            let keep = match residual {
                Some(p) => passes(p, &joined)?,
                None => true,
            };
            if keep {
                out.push(joined);
            }
        }
    }
    Ok(())
}

/// Parallel partitioned hash join (see [`PhysicalPlan::PartitionedJoin`]).
///
/// Build: if the right input is morsel-partitionable its morsels run on
/// the pool, each emitting partition-hashed buckets; otherwise the input
/// is executed once (itself possibly parallel inside) and bucketed. The
/// per-partition tables are then built concurrently. Probe: partitionable
/// left inputs probe per morsel; others are materialized and probed in
/// fixed-size chunks. Both merge outputs in morsel/chunk order, so the
/// result is byte-identical to the serial HashJoin for any pool size.
pub(crate) struct PartitionedJoinOp {
    left: PhysicalPlan,
    right: PhysicalPlan,
    left_key: usize,
    right_key: usize,
    residual: Option<Expr>,
    planned_workers: usize,
    ctx: ExecContext,
    output: Option<std::vec::IntoIter<Row>>,
}

impl PartitionedJoinOp {
    pub(crate) fn new(
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
        planned_workers: usize,
        ctx: &ExecContext,
    ) -> Self {
        PartitionedJoinOp {
            left: left.clone(),
            right: right.clone(),
            left_key,
            right_key,
            residual,
            planned_workers,
            ctx: ctx.clone(),
            output: None,
        }
    }

    fn materialize(&self) -> Result<Vec<Row>> {
        let pool = pool_size(&self.ctx, self.planned_workers);
        let right_key = self.right_key;
        // Build phase: partition-hashed buckets per morsel, in morsel
        // order.
        let morsel_buckets: Vec<Vec<Vec<Row>>> = if driver_scan(&self.right).is_some() {
            let plans = morsel_plans(&self.right);
            run_morsels(&plans, pool, &self.ctx, |p, c| {
                let mut op = open_ctx(p, c)?;
                let mut rows = Vec::new();
                while let Some(r) = op.next()? {
                    rows.push(r);
                }
                let n = rows.len() as u64;
                Ok((bucket_rows(rows, right_key), n))
            })?
        } else {
            let mut op = open_ctx(&self.right, &self.ctx)?;
            let mut rows = Vec::new();
            while let Some(r) = op.next()? {
                rows.push(r);
            }
            vec![bucket_rows(rows, right_key)]
        };
        let tables = build_partition_tables(morsel_buckets, right_key, pool, &self.ctx.metrics)?;
        // Probe phase: outputs merged in morsel/chunk order = left input
        // order.
        let left_key = self.left_key;
        let residual = &self.residual;
        let tables = &tables;
        let per_chunk: Vec<Vec<Row>> = if driver_scan(&self.left).is_some() {
            let plans = morsel_plans(&self.left);
            run_morsels(&plans, pool, &self.ctx, |p, c| {
                let mut op = open_ctx(p, c)?;
                let mut out = Vec::new();
                let mut scanned: u64 = 0;
                while let Some(lrow) = op.next()? {
                    scanned += 1;
                    probe_one(&lrow, tables, left_key, residual, &mut out)?;
                }
                Ok((out, scanned))
            })?
        } else {
            let mut op = open_ctx(&self.left, &self.ctx)?;
            let mut lrows = Vec::new();
            while let Some(r) = op.next()? {
                lrows.push(r);
            }
            let chunks = lrows.len().div_ceil(PROBE_CHUNK_ROWS).max(1);
            let lrows = &lrows;
            run_indexed(chunks, pool, &self.ctx.metrics, |ci| {
                let lo = ci * PROBE_CHUNK_ROWS;
                let hi = ((ci + 1) * PROBE_CHUNK_ROWS).min(lrows.len());
                let mut out = Vec::new();
                for lrow in &lrows[lo..hi] {
                    probe_one(lrow, tables, left_key, residual, &mut out)?;
                }
                Ok((out, (hi - lo) as u64))
            })?
        };
        Ok(per_chunk.into_iter().flatten().collect())
    }
}

impl Operator for PartitionedJoinOp {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            self.output = Some(self.materialize()?.into_iter());
        }
        Ok(self.output.as_mut().expect("set above").next())
    }
}

// ---- parallel sort tail ------------------------------------------------------------

/// Compare two precomputed key vectors under per-key descending flags.
/// Value's total order handles NULLs (first) and floats (total_cmp).
pub(crate) fn cmp_sort_keys(a: &[Value], b: &[Value], descs: &[bool]) -> std::cmp::Ordering {
    for ((x, y), desc) in a.iter().zip(b.iter()).zip(descs) {
        let ord = x.cmp(y);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// One sorted run: precomputed sort keys (in run-sorted order) plus the
/// rows themselves in a spill-capable buffer — large runs overflow into
/// verified storage through the same [`SpilledRows`] machinery every
/// other materializing operator uses, so tampering with a spilled run is
/// caught by deferred verification like any base-table corruption.
struct SortRun {
    keys: Vec<Vec<Value>>,
    rows: SpilledRows,
}

/// Tournament tree (winner tree) over sorted runs: a complete binary
/// tree whose leaves are run cursors and whose internal nodes cache the
/// winning run of their subtree, giving O(log k) replay per emitted row.
/// Ties break on the lower run index; since runs are contiguous input
/// chunks, that reproduces a global stable sort's order exactly.
struct TournamentTree<'a> {
    runs: &'a [SortRun],
    descs: &'a [bool],
    pos: Vec<usize>,
    /// Leaves occupy `node[size..size+k]`; `node[1]` is the winner.
    /// `usize::MAX` marks an exhausted (or padding) slot.
    node: Vec<usize>,
    size: usize,
}

const EXHAUSTED: usize = usize::MAX;

impl<'a> TournamentTree<'a> {
    fn new(runs: &'a [SortRun], descs: &'a [bool]) -> Self {
        let k = runs.len();
        let size = k.next_power_of_two().max(1);
        let mut t = TournamentTree {
            runs,
            descs,
            pos: vec![0; k],
            node: vec![EXHAUSTED; 2 * size],
            size,
        };
        for (r, run) in runs.iter().enumerate() {
            t.node[size + r] = if run.keys.is_empty() { EXHAUSTED } else { r };
        }
        for n in (1..size).rev() {
            t.node[n] = t.winner(t.node[2 * n], t.node[2 * n + 1]);
        }
        t
    }

    fn winner(&self, a: usize, b: usize) -> usize {
        match (a, b) {
            (EXHAUSTED, other) | (other, EXHAUSTED) => other,
            (a, b) => {
                let ka = &self.runs[a].keys[self.pos[a]];
                let kb = &self.runs[b].keys[self.pos[b]];
                match cmp_sort_keys(ka, kb, self.descs) {
                    std::cmp::Ordering::Greater => b,
                    // Less or Equal: the lower run index wins ties (the
                    // leaf layout puts lower indices on the `a` side).
                    _ => a.min(b),
                }
            }
        }
    }

    /// Pop the globally next row, advancing its run's cursor and
    /// replaying the path from that leaf to the root.
    fn pop(&mut self) -> Result<Option<Row>> {
        let w = self.node[1];
        if w == EXHAUSTED {
            return Ok(None);
        }
        let row = self.runs[w].rows.get(self.pos[w])?;
        self.pos[w] += 1;
        let mut n = self.size + w;
        self.node[n] = if self.pos[w] >= self.runs[w].keys.len() {
            EXHAUSTED
        } else {
            w
        };
        while n > 1 {
            n /= 2;
            self.node[n] = self.winner(self.node[2 * n], self.node[2 * n + 1]);
        }
        Ok(Some(row))
    }
}

/// Sort `rows` by `keys` on the worker pool: contiguous chunks become
/// per-worker sorted runs (keys precomputed once, stable in-run sort,
/// spill-capable storage), merged through a tournament tree whose ties
/// break on run index. The output is byte-identical to the serial
/// stable `sort_by` for any pool size — chunk boundaries cannot be
/// observed because the merge is stable across runs in input order.
pub(crate) fn parallel_sort(
    mut rows: Vec<Row>,
    keys: &[(Expr, bool)],
    pool: usize,
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    let n = rows.len();
    let descs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
    let run_count = pool.min(n.div_ceil(PARALLEL_SORT_MIN_ROWS / 2)).max(1);
    // Carve contiguous chunks (ownership moves, no row clones).
    let chunk = n.div_ceil(run_count);
    let mut chunks: Vec<Vec<Row>> = Vec::with_capacity(run_count);
    for _ in 0..run_count {
        let rest = rows.split_off(chunk.min(rows.len()));
        chunks.push(std::mem::replace(&mut rows, rest));
    }
    let cells: Vec<Mutex<Vec<Row>>> = chunks.into_iter().map(Mutex::new).collect();
    let descs_ref = &descs;
    let mut runs = run_indexed(run_count, pool, &ctx.metrics, |r| {
        let chunk_rows = std::mem::take(&mut *cells[r].lock());
        let n = chunk_rows.len() as u64;
        let mut keyed: Vec<(Vec<Value>, Row)> = chunk_rows
            .into_iter()
            .map(|row| -> Result<(Vec<Value>, Row)> {
                let ks = keys
                    .iter()
                    .map(|(e, _)| eval(e, &row))
                    .collect::<Result<Vec<Value>>>()?;
                Ok((ks, row))
            })
            .collect::<Result<_>>()?;
        keyed.sort_by(|(a, _), (b, _)| cmp_sort_keys(a, b, descs_ref));
        let mut run = SortRun {
            keys: Vec::with_capacity(keyed.len()),
            rows: SpilledRows::new(ctx.clone()),
        };
        for (ks, row) in keyed {
            run.keys.push(ks);
            run.rows.push(row)?;
        }
        Ok((run, n))
    })?;
    if runs.len() == 1 {
        return runs.remove(0).rows.to_vec();
    }
    let mut tree = TournamentTree::new(&runs, &descs);
    let mut out = Vec::with_capacity(n);
    while let Some(row) = tree.pop()? {
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::rng::check;

    // ---- scheduler ----------------------------------------------------

    /// Skewed-range work-stealing on the shared pool: lane 0's seeded
    /// morsels are 10× the cost of everyone else's. Results must arrive
    /// in index order, every morsel is claimed exactly once, stealing
    /// must happen (a lone pool worker drains the other lanes by
    /// stealing; multiple workers steal lane 0's backlog), and — when the
    /// process pool really has `DOP` workers — no lane's claim count may
    /// exceed 2× the mean.
    #[test]
    fn skewed_work_is_stolen_and_claims_stay_balanced() {
        const N: usize = 32;
        const DOP: usize = 4;
        let m = Metrics::new();
        // Lane w is seeded indices i with i % DOP == w; make lane 0's
        // seed slow so other workers drain their own lanes and steal
        // from the back of lane 0's.
        let out = run_indexed(N, DOP, &m, |i| {
            let slow = i % DOP == 0;
            std::thread::sleep(std::time::Duration::from_millis(if slow { 10 } else { 1 }));
            Ok((i, 1))
        })
        .unwrap();
        assert_eq!(out, (0..N).collect::<Vec<_>>(), "index-order merge");
        let snap = m.snapshot();
        let total: u64 = snap.members(Metric::WorkerMorsels).iter().sum();
        assert_eq!(total, N as u64, "every morsel claimed exactly once");
        assert!(
            snap.get(Metric::MorselsStolen) > 0,
            "skewed seed must trigger stealing"
        );
        assert_eq!(
            snap.get(Metric::MorselsStolen),
            snap.members(Metric::WorkerSteals).iter().sum::<u64>(),
            "aggregate steal counter matches per-worker counts"
        );
        assert_eq!(
            snap.hist(Metric::SchedWaitUs).count,
            1,
            "one region records one scheduler wait sample"
        );
        // Claim balance needs real parallelism: with fewer pool workers
        // than DOP (e.g. a 1-core CI box) a single worker legitimately
        // claims most morsels through steals.
        if sched::pool_size() >= DOP {
            let mean = N as u64 / DOP as u64;
            for (w, &c) in snap
                .members(Metric::WorkerMorsels)
                .iter()
                .take(DOP)
                .enumerate()
            {
                assert!(
                    c <= 2 * mean,
                    "lane {w} claimed {c} morsels (> 2x mean {mean}): {:?}",
                    snap.members(Metric::WorkerMorsels)
                );
            }
        }
    }

    /// First-error-wins must survive stealing: whichever worker hits an
    /// error, the lowest-indexed recorded error is returned and workers
    /// stop claiming.
    #[test]
    fn lowest_indexed_error_wins_under_stealing() {
        use veridb_common::Error;
        let metrics = Metrics::new();
        let err = run_indexed::<usize, _>(16, 4, &metrics, |i| {
            if i >= 10 {
                Err(Error::InvalidArgument(format!("boom {i}")))
            } else {
                Ok((i, 1))
            }
        })
        .unwrap_err();
        let msg = format!("{err}");
        // Exactly which of 10..16 is recorded first depends on timing,
        // but the returned one must be the lowest *recorded* index, and
        // must always be an injected error.
        assert!(msg.contains("boom"), "unexpected error: {msg}");
    }

    /// A panicking task body must surface as a query error (the shared
    /// pool catches it and fails the job), never tear down pool workers.
    #[test]
    fn panicking_task_becomes_an_error_not_a_crash() {
        let metrics = Metrics::new();
        let err = run_indexed::<usize, _>(8, 4, &metrics, |i| {
            if i == 5 {
                panic!("morsel panic");
            }
            Ok((i, 1))
        })
        .unwrap_err();
        assert!(
            format!("{err}").contains("panicked"),
            "unexpected error: {err}"
        );
        // The pool survives and still runs work.
        let ok = run_indexed::<usize, _>(4, 2, &metrics, |i| Ok((i, 1))).unwrap();
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inline_path_skips_pool_and_metrics() {
        let m = Metrics::new();
        let out = run_indexed(5, 1, &m, |i| Ok((i * 2, 1))).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(m.snapshot().get(Metric::ParallelRegions), 0);
        assert_eq!(m.snapshot().get(Metric::MorselsDispatched), 0);
    }

    // ---- commutativity proptests over join build and sort merge -------

    fn int_rows(vals: &[(i64, i64)]) -> Vec<Row> {
        vals.iter()
            .map(|(k, p)| Row::new(vec![Value::Int(*k), Value::Int(*p)]))
            .collect()
    }

    /// Serial hash-join reference: build right in stream order, probe
    /// left in stream order, emit matches in per-key insertion order —
    /// the exact semantics of `exec::HashJoinOp`.
    fn serial_hash_join(left: &[Row], right: &[Row]) -> Vec<Row> {
        let mut table: HashMap<Value, Vec<Row>> = HashMap::new();
        for row in right {
            let k = row[0].clone();
            if k.is_null() {
                continue;
            }
            table.entry(k).or_default().push(row.clone());
        }
        let mut out = Vec::new();
        for lrow in left {
            let k = &lrow[0];
            if k.is_null() {
                continue;
            }
            if let Some(matches) = table.get(k) {
                for rrow in matches {
                    out.push(lrow.joined(rrow));
                }
            }
        }
        out
    }

    /// Partitioned build commutativity: bucketing the build rows by
    /// an arbitrary morsel split, building per-partition tables on a
    /// pool, and probing in chunks must reproduce the serial hash
    /// join byte-for-byte — for any split point, pool size, and key
    /// distribution (small key domain forces heavy duplicates).
    #[test]
    fn partitioned_join_build_matches_serial() {
        check(256, |rng| {
            let left = rng.vec(0..80, |r| (r.gen_range(0i64..16), r.gen_range(0i64..1000)));
            let right = rng.vec(0..80, |r| (r.gen_range(0i64..16), r.gen_range(0i64..1000)));
            let split = rng.gen_range(0usize..80);
            let pool = rng.gen_range(1usize..5);
            let left = int_rows(&left);
            let right = int_rows(&right);
            let expect = serial_hash_join(&left, &right);

            let split = split.min(right.len());
            let (a, b) = right.split_at(split);
            let morsel_buckets = vec![bucket_rows(a.to_vec(), 0), bucket_rows(b.to_vec(), 0)];
            let tables = build_partition_tables(morsel_buckets, 0, pool, &Metrics::new()).unwrap();
            let mut got = Vec::new();
            for lrow in &left {
                probe_one(lrow, &tables, 0, &None, &mut got).unwrap();
            }
            assert_eq!(got, expect);
        });
    }

    /// Sort-merge commutativity: chunked stable runs merged through
    /// the tournament tree must equal one global stable sort, for
    /// any chunking and any mix of ascending/descending keys with
    /// heavy duplicate keys (ties exercise run-index stability).
    #[test]
    fn parallel_sort_merge_matches_stable_sort() {
        check(256, |rng| {
            let vals = rng.vec(0..200, |r| (r.gen_range(0i64..8), r.gen_range(0i64..1000)));
            let pool = rng.gen_range(1usize..5);
            let desc = rng.gen_bool(0.5);
            let rows = int_rows(&vals);
            let keys = vec![(Expr::ColumnRef(0), desc)];
            let descs = vec![desc];

            // Serial reference: precomputed keys + stable sort_by.
            let mut keyed: Vec<(Vec<Value>, Row)> = rows
                .iter()
                .map(|r| (vec![r[0].clone()], r.clone()))
                .collect();
            keyed.sort_by(|(a, _), (b, _)| cmp_sort_keys(a, b, &descs));
            let expect: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();

            let got = parallel_sort(rows, &keys, pool, &ExecContext::default()).unwrap();
            assert_eq!(got, expect);
        });
    }

    /// The tournament tree must also be correct at run counts that are
    /// not powers of two and with exhausted/empty runs interleaved.
    #[test]
    fn tournament_tree_handles_ragged_runs() {
        let mk_run = |vals: &[i64]| {
            let mut run = SortRun {
                keys: Vec::new(),
                rows: SpilledRows::new(ExecContext::default()),
            };
            for v in vals {
                run.keys.push(vec![Value::Int(*v)]);
                run.rows.push(Row::new(vec![Value::Int(*v)])).unwrap();
            }
            run
        };
        let runs = vec![
            mk_run(&[1, 4, 9]),
            mk_run(&[]),
            mk_run(&[2, 2, 2, 2, 11]),
            mk_run(&[0]),
            mk_run(&[3, 5]),
        ];
        let descs = vec![false];
        let mut tree = TournamentTree::new(&runs, &descs);
        let mut got = Vec::new();
        while let Some(r) = tree.pop().unwrap() {
            got.push(match &r[0] {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            });
        }
        assert_eq!(got, vec![0, 1, 2, 2, 2, 2, 3, 4, 5, 9, 11]);
    }
}
