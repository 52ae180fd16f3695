//! # VeriDB — an SGX-based verifiable database
//!
//! A from-scratch Rust reproduction of *VeriDB: An SGX-based Verifiable
//! Database* (Zhou, Cai, Peng, Wang, Ma, Li — SIGMOD 2021).
//!
//! VeriDB is a relational database whose query results a distrustful
//! client can verify, built around one architectural idea: split the
//! verification of a cloud database into
//!
//! 1. a **data-intensive but logically simple storage layer**, protected
//!    by an offline memory-checking protocol whose per-operation cost is a
//!    small constant (two PRF evaluations), and
//! 2. a **logically complex but memory-light query engine**, protected by
//!    running inside an SGX enclave,
//!
//! connected by a thin, efficiently verifiable interface — the access
//! methods, whose `⟨key, nKey⟩` evidence proves both *integrity* and
//! *completeness* of everything the engine reads.
//!
//! This crate is the user-facing facade. The heavy lifting lives in the
//! layer crates, re-exported below:
//!
//! | Crate | Role |
//! |---|---|
//! | `veridb-enclave` | simulated SGX substrate: trust domain, EPC budget, call-gate costs, attestation, sealing, MACs |
//! | `veridb-wrcm` | write-read consistent memory: PRFs, RS/WS digests, slotted pages, the non-quiescent deferred verifier |
//! | `veridb-storage` | page-structured verifiable storage: chain records, verified tables, untrusted indexes |
//! | `veridb-query` | SQL front end, planner, volcano operators, authenticated query portal, client library |
//! | `veridb-mbtree` | the MB-Tree baseline the paper compares against |
//!
//! ## Quickstart
//!
//! ```
//! use veridb::{VeriDb, VeriDbConfig};
//!
//! let db = VeriDb::open(VeriDbConfig::default()).unwrap();
//! db.sql("CREATE TABLE quote (id INT PRIMARY KEY, count INT, price INT)").unwrap();
//! db.sql("INSERT INTO quote VALUES (1, 100, 100), (2, 100, 200)").unwrap();
//! let r = db.sql("SELECT id, count FROM quote WHERE id = 2").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! // Deferred verification: h(RS) must equal h(WS) across all partitions.
//! db.verify_now().unwrap();
//! ```

pub mod durable;
pub mod recovery;

pub use durable::DurableState;
pub use recovery::Replica;
pub use veridb_common::{
    ColumnDef, ColumnType, Error, Metric, Metrics, MetricsSnapshot, OperatorKind, PrfBackend,
    Result, Row, Schema, Value, VeriDbConfig,
};
pub use veridb_enclave::{Enclave, QuotingEnclave};
pub use veridb_log::{LogRecord, TableSnapshot, Wal};
pub use veridb_query::{
    Client, EndorsedResult, PlanOptions, PreferredJoin, QueryEngine, QueryPortal, QueryResult,
    SignedQuery,
};
pub use veridb_storage::{Catalog, Table};
pub use veridb_wrcm::{BackgroundVerifier, VerifiedMemory, VerifyReport};

use std::sync::Arc;
use veridb_common::sync::Mutex;

/// Simulated EPC budget in bytes: the usable enclave memory the paper
/// quotes (96 MB). Enclave-resident state beyond it charges simulated
/// page swaps.
const EPC_BUDGET: usize = 96 * 1024 * 1024;

/// An open VeriDB instance: enclave + verified memory + catalog + engine,
/// with an optional background verifier.
pub struct VeriDb {
    enclave: Enclave,
    mem: Arc<VerifiedMemory>,
    engine: Arc<QueryEngine>,
    verifier: Mutex<Option<BackgroundVerifier>>,
    config: VeriDbConfig,
    /// Durability subsystem (WAL + sealed epochs); `None` for the
    /// classic in-memory instance.
    durable: Option<Arc<durable::DurableState>>,
}

impl VeriDb {
    /// Open a database with OS-random enclave keys. Starts the background
    /// verifier if `config.verify_every_ops` is set. With
    /// `config.data_dir` set, routes to [`VeriDb::open_durable`]: the
    /// instance is WAL-backed and crash-recoverable, and its keys come
    /// from sealed entropy in the data directory instead of fresh OS
    /// randomness.
    pub fn open(config: VeriDbConfig) -> Result<VeriDb> {
        if config.data_dir.is_some() {
            return Self::open_durable(config);
        }
        let mut entropy = [0u8; 32];
        veridb_common::rng::os_random(&mut entropy);
        Self::open_with_entropy(config, "veridb", entropy)
    }

    /// Open with explicit enclave identity and key entropy (tests and
    /// recovery use this for determinism).
    pub fn open_with_entropy(
        config: VeriDbConfig,
        identity: &str,
        entropy: [u8; 32],
    ) -> Result<VeriDb> {
        config.validate()?;
        // One shared scheduler pool per process: request the configured
        // size (0 = auto: VERIDB_POOL → VERIDB_WORKERS → cores) before
        // anything submits work. The first open wins; conflicting later
        // sizes warn inside `configure`.
        let pool = veridb_common::sched::configure(if config.pool_threads > 0 {
            config.pool_threads
        } else {
            veridb_common::sched::default_pool_threads()
        });
        if config.workers > pool {
            static OVERSUBSCRIBE_WARNED: std::sync::Once = std::sync::Once::new();
            OVERSUBSCRIBE_WARNED.call_once(|| {
                eprintln!(
                    "warning: --workers {} exceeds the shared scheduler pool of {pool} threads; \
                     per-query parallelism is capped at the pool size (the legacy per-query \
                     pools that would have oversubscribed no longer exist)",
                    config.workers
                );
            });
        }
        let enclave = Enclave::create(identity, EPC_BUDGET, entropy);
        enclave.metrics().set(
            Metric::ShaHw,
            u64::from(veridb_common::sha256::hardware_accelerated()),
        );
        enclave.metrics().set(
            Metric::PrfHw,
            u64::from(veridb_wrcm::prf::hardware_accelerated()),
        );
        let mem = VerifiedMemory::new(enclave.clone(), &config);
        let catalog = Arc::new(Catalog::new(Arc::clone(&mem)));
        let engine = Arc::new(QueryEngine::new(catalog));
        let db = VeriDb {
            enclave,
            mem,
            engine,
            verifier: Mutex::new(None),
            config,
            durable: None,
        };
        if db.config.verify_every_ops.is_some() {
            db.start_verifier();
        }
        Ok(db)
    }

    /// Execute one SQL statement with default planning options.
    pub fn sql(&self, query: &str) -> Result<QueryResult> {
        self.engine.execute(query)
    }

    /// Execute one SQL statement with explicit planning options.
    pub fn sql_with(&self, query: &str, opts: &PlanOptions) -> Result<QueryResult> {
        self.engine.execute_with(query, opts)
    }

    /// Render the physical plan of a SELECT (EXPLAIN).
    pub fn explain(&self, query: &str, opts: &PlanOptions) -> Result<String> {
        self.engine.explain(query, opts)
    }

    /// The catalog of tables.
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.engine.catalog()
    }

    /// Direct handle to a table (for programmatic access beside SQL).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog().table(name)
    }

    /// The verified memory underneath (benchmarks, attack tests).
    pub fn memory(&self) -> &Arc<VerifiedMemory> {
        &self.mem
    }

    /// The enclave trust anchor.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// The query engine.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// The configuration this instance was opened with.
    pub fn config(&self) -> &VeriDbConfig {
        &self.config
    }

    /// Open an authenticated query portal for a client channel, with the
    /// replay-window capacity this instance was configured with
    /// (`replay_window` / `VERIDB_REPLAY_WINDOW`).
    pub fn portal(&self, channel: &str) -> QueryPortal {
        QueryPortal::with_replay_window(
            Arc::clone(&self.engine),
            Arc::clone(&self.mem),
            channel,
            self.config.replay_window,
        )
    }

    /// Set the database's degree of parallelism (DOP), overriding the
    /// `workers` value it was opened with: the cap on shared-pool workers
    /// for both morsel-driven query regions and [`VeriDb::verify_now`]'s
    /// partition passes. `1` reverts to serial plans and inline
    /// verification.
    pub fn set_workers(&self, workers: usize) {
        self.engine.set_workers(workers);
    }

    /// Run a full synchronous verification pass over every RSWS partition.
    /// At a DOP above one ([`VeriDb::set_workers`], seeded from
    /// `config.workers`) the per-partition passes run concurrently as one
    /// job on the shared scheduler pool (§3.3's "multiple verifiers");
    /// at DOP 1 they run inline on the caller.
    pub fn verify_now(&self) -> Result<VerifyReport> {
        self.mem.verify_now()
    }

    /// First verification failure observed, if any.
    pub fn poisoned(&self) -> Option<Error> {
        self.mem.poisoned()
    }

    /// Start the non-quiescent background verifier (idempotent).
    pub fn start_verifier(&self) {
        let mut v = self.verifier.lock();
        if v.is_none() {
            *v = Some(BackgroundVerifier::spawn(Arc::clone(&self.mem)));
        }
    }

    /// Stop the background verifier, returning its first failure if any.
    pub fn stop_verifier(&self) -> Option<Error> {
        self.verifier.lock().take().and_then(|v| v.stop())
    }

    /// The simulated SGX cost rows of the registry (`enclave.*`: PRF
    /// evaluations, ECalls, OCalls, EPC swaps, simulated cycles…) as
    /// `(name, value)` pairs.
    pub fn costs(&self) -> Vec<(&'static str, u64)> {
        let mut costs = self.metrics().counters();
        costs.retain(|(name, _)| name.starts_with("enclave."));
        costs
    }

    /// One sample of the `veridb-obs` registry: every layer's counters,
    /// the simulated SGX costs included. Cheap — a relaxed load per slot —
    /// and safe to poll continuously.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.enclave.metrics().snapshot()
    }

    /// Per-partition verification lag: `(epoch, protected ops since that
    /// partition's last epoch close)`.
    pub fn verification_lag(&self) -> Vec<(u64, u64)> {
        self.mem.verification_lag()
    }

    /// Enable (or disable with `None`) spilling of large query
    /// intermediate state into the verified storage instead of
    /// enclave-resident buffers — the §5.4 alternative to SGX secure swap.
    pub fn set_spill_threshold(&self, bytes: Option<usize>) {
        self.engine.set_spill_threshold(bytes);
    }
}

impl Drop for VeriDb {
    fn drop(&mut self) {
        let _ = self.stop_verifier();
        // Push buffered log records to disk; a clean shutdown should not
        // depend on the next commit's group-commit leader.
        if let Some(d) = &self.durable {
            let _ = d.wal().flush_all();
        }
    }
}

impl std::fmt::Debug for VeriDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VeriDb")
            .field("tables", &self.catalog().table_names())
            .field("pages", &self.mem.page_count())
            .field("partitions", &self.mem.partition_count())
            .finish()
    }
}
