//! The parse → plan → execute entry point.

use crate::ast::{Expr, SelectItem, SelectStmt, Statement, TableRef};
use crate::exec;
use crate::expr::eval;
use crate::parser::parse;
use crate::planner::{plan_select, PlannedQuery};
use std::sync::Arc;
use veridb_common::sync::{Mutex, RwLock};
use veridb_common::{ColumnDef, Error, Metric, Result, Row, Schema, Value};
use veridb_storage::Catalog;

/// Statement kind tags for durability-log records. This is the only list:
/// `veridb-log` stores and MACs a record's kind byte but never interprets
/// it, so the values are part of the log's on-disk format.
pub mod stmt_kind {
    /// `CREATE TABLE`.
    pub const CREATE_TABLE: u8 = 1;
    /// `DROP TABLE`.
    pub const DROP_TABLE: u8 = 2;
    /// `INSERT`.
    pub const INSERT: u8 = 3;
    /// `UPDATE`.
    pub const UPDATE: u8 = 4;
    /// `DELETE`.
    pub const DELETE: u8 = 5;
}

/// Where the engine announces protected writes so they survive a crash.
///
/// The engine calls [`append`](DurabilitySink::append) *before* applying
/// a mutation, with its commit-order lock held — so the log's record
/// order is exactly the apply order — and expects the sink to only
/// buffer (no I/O under the lock). After the lock is released the engine
/// calls [`wait_durable`](DurabilitySink::wait_durable) and does not
/// report success to the client until the record is on stable storage
/// (group commit happens inside the sink).
///
/// Write-ahead discipline: a statement that *fails* during apply stays
/// in the log. Replay re-executes it and deterministically re-fails at
/// the same point, reproducing whatever partial effects the original
/// had — recovered state always equals pre-crash state for every
/// *acknowledged* statement, and errored statements were never
/// acknowledged.
pub trait DurabilitySink: Send + Sync {
    /// Buffer one statement; returns a ticket to wait on. Called with
    /// the commit-order lock held — must not block on I/O.
    fn append(&self, kind: u8, sql: &str) -> Result<u64>;
    /// Block until `ticket` is on stable storage.
    fn wait_durable(&self, ticket: u64) -> Result<()>;
}

/// The log-record kind for `stmt`, or `None` for reads (SELECT/EXPLAIN).
fn statement_kind(stmt: &Statement) -> Option<u8> {
    Some(match stmt {
        Statement::CreateTable { .. } => stmt_kind::CREATE_TABLE,
        Statement::DropTable { .. } => stmt_kind::DROP_TABLE,
        Statement::Insert { .. } => stmt_kind::INSERT,
        Statement::Update { .. } => stmt_kind::UPDATE,
        Statement::Delete { .. } => stmt_kind::DELETE,
        Statement::Select(_) | Statement::Explain(_) => return None,
    })
}

/// Join-algorithm preference, used by the Figure 12 Q19 experiment to
/// compare the MergeJoin and NestedLoopJoin plans the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreferredJoin {
    /// Planner decides: index nested-loop when the inner side has a chain
    /// on the join column, merge when inputs arrive sorted, hash otherwise.
    #[default]
    Auto,
    /// Force hash joins.
    Hash,
    /// Force merge joins (sorting inputs if needed).
    Merge,
    /// Force nested-loop joins (index-driven when possible, block
    /// nested-loop with a materialized inner otherwise).
    NestedLoop,
}

/// Planner options.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions {
    /// Join algorithm preference.
    pub prefer_join: PreferredJoin,
    /// Per-query degree of parallelism for morsel-driven execution —
    /// a cap on how many of the process-wide scheduler pool's workers
    /// one parallel region may occupy, not a thread count (no threads
    /// are created per query). `0` (the default) inherits the
    /// database DOP ([`QueryEngine::set_workers`]); `1` forces
    /// a serial plan with no Exchange/Gather nodes.
    pub workers: usize,
}

/// The outcome of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    fn affected(n: u64) -> QueryResult {
        QueryResult {
            columns: vec!["rows_affected".into()],
            rows: vec![Row::new(vec![Value::Int(n as i64)])],
        }
    }

    /// Render as an aligned text table (examples / debugging).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&format!("{}  ", "-".repeat(widths[i])));
        }
        out.push('\n');
        for row in rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// The in-enclave SQL engine bound to one catalog.
pub struct QueryEngine {
    catalog: Arc<Catalog>,
    /// Spill threshold for large intermediate state (bytes; 0 = disabled).
    /// When set, materialization points overflow into verified storage
    /// (§5.4) instead of growing enclave-resident buffers.
    spill_threshold: std::sync::atomic::AtomicUsize,
    /// Serializes mutations (and their log appends): DML was already
    /// effectively serial through the storage layer's per-table locks;
    /// this lock pins down a *total* order so the durability log's
    /// record order provably matches the apply order.
    commit_order: Mutex<()>,
    /// Durability sink, if the database is running durable.
    sink: RwLock<Option<Arc<dyn DurabilitySink>>>,
}

impl QueryEngine {
    /// Wrap a catalog.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        QueryEngine {
            catalog,
            spill_threshold: std::sync::atomic::AtomicUsize::new(0),
            commit_order: Mutex::new(()),
            sink: RwLock::new(None),
        }
    }

    /// Install (or remove, with `None`) the durability sink. Recovery
    /// installs it only *after* replay, so replayed statements are not
    /// re-logged.
    pub fn set_sink(&self, sink: Option<Arc<dyn DurabilitySink>>) {
        *self.sink.write() = sink;
    }

    /// Run `f` with the engine quiesced: the commit-order lock is held,
    /// so no mutation can start, finish, or append to the durability log
    /// while `f` observes the database (sealing a snapshot, shipping a
    /// log range whose tip must stay put, …). Reads are unaffected.
    pub fn quiesce<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _commit = self.commit_order.lock();
        f()
    }

    /// Enable (or disable with `None`) spilling of large intermediate
    /// state into verified storage.
    pub fn set_spill_threshold(&self, bytes: Option<usize>) {
        self.spill_threshold
            .store(bytes.unwrap_or(0), std::sync::atomic::Ordering::Relaxed);
    }

    /// Set the database's degree of parallelism (clamped to at least 1),
    /// kept in the catalog's [`VerifiedMemory`](veridb_wrcm::VerifiedMemory)
    /// and seeded from `VeriDbConfig::workers`. It caps how many
    /// shared-pool workers one query's parallel regions use — unless the
    /// query's [`PlanOptions::workers`] overrides it — and how many run a
    /// verification pass.
    pub fn set_workers(&self, workers: usize) {
        self.catalog.memory().set_workers(workers);
    }

    /// `opts` with `workers == 0` resolved to the database DOP.
    fn resolve_opts(&self, opts: &PlanOptions) -> PlanOptions {
        let mut o = *opts;
        if o.workers == 0 {
            o.workers = self.catalog.memory().workers();
        }
        o
    }

    fn exec_context(&self, workers: usize) -> crate::spill::ExecContext {
        let t = self
            .spill_threshold
            .load(std::sync::atomic::Ordering::Relaxed);
        let mut ctx = if t == 0 {
            crate::spill::ExecContext {
                mem: None,
                spill_threshold: None,
                metrics: Arc::clone(self.catalog.memory().metrics()),
                workers: 0,
            }
        } else {
            crate::spill::ExecContext::with_spill(Arc::clone(self.catalog.memory()), t)
        };
        ctx.workers = workers;
        ctx
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Execute one SQL statement with default planning options.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with(sql, &PlanOptions::default())
    }

    /// Execute one SQL statement.
    pub fn execute_with(&self, sql: &str, opts: &PlanOptions) -> Result<QueryResult> {
        self.catalog.memory().metrics().inc(Metric::QueriesExecuted);
        let opts = &self.resolve_opts(opts);
        let stmt = parse(sql)?;
        let Some(kind) = statement_kind(&stmt) else {
            // Reads never take the commit-order lock.
            return self.apply(stmt, opts);
        };
        let (sink, ticket, applied) = {
            let _commit = self.commit_order.lock();
            let sink = self.sink.read().clone();
            let ticket = match &sink {
                Some(s) => Some(s.append(kind, sql)?),
                None => None,
            };
            (sink, ticket, self.apply(stmt, opts))
        };
        let result = applied?;
        if let (Some(s), Some(t)) = (sink, ticket) {
            s.wait_durable(t)?;
        }
        Ok(result)
    }

    /// Execute one statement for log replay: no durability-sink append
    /// (the statement came *from* the log) and no commit-order lock (the
    /// caller already holds it via [`quiesce`](Self::quiesce), or is
    /// single-threaded recovery running before any client can connect).
    pub fn execute_replay(&self, sql: &str) -> Result<QueryResult> {
        let opts = &self.resolve_opts(&PlanOptions::default());
        self.apply(parse(sql)?, opts)
    }

    /// Apply one parsed statement against the catalog. Mutations must be
    /// called with the commit-order lock held (see `execute_with`).
    fn apply(&self, stmt: Statement, opts: &PlanOptions) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let defs: Vec<ColumnDef> = columns
                    .into_iter()
                    .map(|(n, ty, chained)| {
                        let mut d = ColumnDef::new(&n, ty);
                        d.chained = chained;
                        d
                    })
                    .collect();
                self.catalog.create_table(&name, Schema::new(defs)?)?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(&name)?;
                Ok(QueryResult::affected(0))
            }
            Statement::Insert { table, rows } => {
                let t = self.catalog.table(&table)?;
                let empty = Row::default();
                let mut n = 0;
                for exprs in rows {
                    let vals: Vec<Value> = exprs
                        .iter()
                        .map(|e| eval(e, &empty))
                        .collect::<Result<_>>()?;
                    t.insert(Row::new(vals))?;
                    n += 1;
                }
                Ok(QueryResult::affected(n))
            }
            Statement::Update {
                table,
                sets,
                filter,
            } => {
                let t = self.catalog.table(&table)?;
                let pk_col = t.schema().primary_key();
                let matching = self.matching_rows(&table, filter, opts)?;
                // Resolve SET expressions against the table's own columns.
                let set_cols: Vec<(usize, Expr)> = sets
                    .into_iter()
                    .map(|(c, e)| -> Result<(usize, Expr)> {
                        Ok((t.schema().index_of(&c)?, resolve_local(&t, e)?))
                    })
                    .collect::<Result<_>>()?;
                let mut n = 0;
                for row in matching {
                    let pk = row[pk_col].clone();
                    let mut failed = None;
                    t.update_with(&pk, |r| {
                        let mut vals = r.values().to_vec();
                        for (ci, e) in &set_cols {
                            match eval(e, r) {
                                Ok(v) => vals[*ci] = v,
                                Err(e) => {
                                    failed = Some(e);
                                    return;
                                }
                            }
                        }
                        *r = Row::new(vals);
                    })?;
                    if let Some(e) = failed {
                        return Err(e);
                    }
                    n += 1;
                }
                Ok(QueryResult::affected(n))
            }
            Statement::Delete { table, filter } => {
                let t = self.catalog.table(&table)?;
                let pk_col = t.schema().primary_key();
                let matching = self.matching_rows(&table, filter, opts)?;
                let mut n = 0;
                for row in matching {
                    t.delete(&row[pk_col])?;
                    n += 1;
                }
                Ok(QueryResult::affected(n))
            }
            Statement::Select(stmt) => {
                let PlannedQuery { plan, columns } = plan_select(&self.catalog, stmt, opts)?;
                let rows = exec::run_ctx(&plan, &self.exec_context(opts.workers))?;
                Ok(QueryResult { columns, rows })
            }
            Statement::Explain(stmt) => {
                let PlannedQuery { plan, .. } = plan_select(&self.catalog, stmt, opts)?;
                let rows = plan
                    .explain()
                    .lines()
                    .map(|l| Row::new(vec![Value::Str(l.to_owned())]))
                    .collect();
                Ok(QueryResult {
                    columns: vec!["plan".into()],
                    rows,
                })
            }
        }
    }

    /// Render a query's physical plan (EXPLAIN).
    pub fn explain(&self, sql: &str, opts: &PlanOptions) -> Result<String> {
        let opts = &self.resolve_opts(opts);
        match parse(sql)? {
            Statement::Select(stmt) => Ok(plan_select(&self.catalog, stmt, opts)?.plan.explain()),
            other => Err(Error::Plan(format!("cannot EXPLAIN {other:?}"))),
        }
    }

    /// Rows of `table` matching `filter`, fetched through the verified
    /// access paths (DML shares the read path's planning).
    fn matching_rows(
        &self,
        table: &str,
        filter: Option<Expr>,
        opts: &PlanOptions,
    ) -> Result<Vec<Row>> {
        let stmt = SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef {
                table: table.to_owned(),
                alias: table.to_owned(),
            }],
            join_on: vec![],
            filter,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        let PlannedQuery { plan, .. } = plan_select(&self.catalog, stmt, opts)?;
        exec::run_ctx(&plan, &self.exec_context(opts.workers))
    }
}

/// Resolve an expression's columns against one table's local schema.
fn resolve_local(table: &Arc<veridb_storage::Table>, e: Expr) -> Result<Expr> {
    match e {
        Expr::Column { name, .. } => Ok(Expr::ColumnRef(table.schema().index_of(&name)?)),
        Expr::Agg { .. } => Err(Error::Plan("aggregates are not allowed in SET".into())),
        Expr::Subquery(_) | Expr::InSubquery { .. } => {
            Err(Error::Plan("subqueries are not allowed in SET".into()))
        }
        e => e.try_map_children(|c| resolve_local(table, c)),
    }
}
