//! Configuration for a VeriDB instance.
//!
//! Every knob the paper's evaluation turns is here, so the benchmark harness
//! can reproduce each figure by constructing configs rather than by forking
//! code paths:
//!
//! - Figure 9 sweeps `verify_rsws` / `verify_metadata`.
//! - Figure 10 sweeps `verify_every_ops` (one page scan per N operations).
//! - Figure 13 sweeps `rsws_partitions`.

/// A leftover selector for the RS/WS PRF; it selects nothing.
///
/// The set digests have one PRF, POLYVAL then AES-128
/// (`veridb_wrcm::prf`), and HMAC-SHA-256 no longer backs them. The type
/// and its one variant stay only because the end-to-end benchmark under
/// `wirebench/` names them (`PrfEngine::new(PrfBackend::HmacSha256, key)`
/// and the `prf` field of a config literal); they go with the next change
/// to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrfBackend {
    /// The one value; the name is historical.
    HmacSha256,
}

/// Tunables for a VeriDB instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VeriDbConfig {
    /// Page size in bytes for the untrusted page-structured storage.
    /// The paper assumes 8 KB pages (§4.3).
    pub page_size: usize,
    /// Number of ReadSet/WriteSet digest pairs. Pages are partitioned by id
    /// across the pairs; each pair has its own lock (§4.3 "Use multiple
    /// RSWSs to avoid lock contention").
    pub rsws_partitions: usize,
    /// Maintain the RS/WS digests at all. Disabling yields the evaluation's
    /// "Baseline" configuration (no verifiability).
    pub verify_rsws: bool,
    /// Include page-metadata maintenance (slot directory, header updates)
    /// in the RS/WS digests. The paper's §4.3 optimization excludes it,
    /// cutting RS/WS updates by 50–65% and overall overhead by ~20%.
    pub verify_metadata: bool,
    /// Background verifier cadence: perform one page scan per this many
    /// read/write operations. `None` disables non-quiescent verification
    /// (digests are still maintained; verification can be run manually).
    pub verify_every_ops: Option<u64>,
    /// Track touched pages in an in-enclave bitmap and only scan those
    /// (§4.3 "Avoid scanning unvisited pages during verification").
    pub track_touched_pages: bool,
    /// Compact pages as a side task of the verification scan (§4.3
    /// "Compact page during verification"). When false, deletes reclaim
    /// space eagerly (the expensive pre-optimization behaviour).
    pub compact_during_verification: bool,
    /// Inert: see [`PrfBackend`].
    pub prf: PrfBackend,
    /// Per-query degree-of-parallelism cap for intra-query parallelism
    /// (morsel-driven scans, joins, aggregation) and for synchronous
    /// verification passes: the maximum number of *shared-pool* workers
    /// one query's parallel region may occupy (it no longer sizes a
    /// private per-query pool — see `pool_threads`). `1` disables
    /// parallel execution entirely (plans carry no Exchange/Gather nodes
    /// and are bit-identical to the serial planner's output). The default
    /// honours the `VERIDB_WORKERS` environment variable so test/CI runs
    /// can sweep the knob without code changes.
    pub workers: usize,
    /// Size of the process-wide scheduler worker pool shared by every
    /// concurrent query (`veridb_common::sched`). `0` (the default) sizes
    /// it automatically: `VERIDB_POOL` if set, else `VERIDB_WORKERS`
    /// (preserving legacy single-knob deployments' thread budgets), else
    /// machine parallelism. The pool is created once per process on
    /// first use; the first database open wins and later conflicting
    /// sizes are warned about and ignored.
    pub pool_threads: usize,
    /// Ignored; nothing reads it. The enclave-resident cache it used to
    /// size was removed, and the field stays only so struct literals that
    /// still set it keep compiling. Due for removal with the next change
    /// to the benchmark harness.
    pub cell_cache_bytes: usize,
    /// Address the `veridb-net` server listens on when `veridb serve` is
    /// run without `--listen` (e.g. `"127.0.0.1:5433"`). `None` means the
    /// instance is not networked. Honours `VERIDB_LISTEN`.
    pub listen_addr: Option<String>,
    /// Maximum concurrent client connections the network server holds
    /// open; further accepts are back-pressured (left in the kernel
    /// backlog) until a slot frees. Honours `VERIDB_MAX_CONNS`.
    pub max_conns: usize,
    /// Per-connection socket read/write timeout in milliseconds for the
    /// network server and `RemoteClient`. Honours
    /// `VERIDB_NET_TIMEOUT_MS`.
    pub net_timeout_ms: u64,
    /// Maximum number of decoded QUERY frames queued for execution across
    /// all connections. When the queue is full, further queries are
    /// refused with a retryable `Overloaded` error instead of being
    /// buffered without bound. Honours `VERIDB_NET_QUEUE`.
    pub net_queue_depth: usize,
    /// Number of exactly-tracked query ids in each portal's replay filter
    /// (above the low watermark). Concurrent remote clients multiplexed
    /// over one channel need a wider window than the in-process default.
    /// Honours `VERIDB_REPLAY_WINDOW`.
    pub replay_window: usize,
    /// Directory for durable state: the MAC-chained write-ahead log,
    /// sealed snapshot manifests, the trusted monotonic counter and the
    /// sealed enclave seed. `None` (the default) keeps the instance purely
    /// in-memory, exactly as before the durability subsystem existed.
    /// Honours `VERIDB_DATA_DIR`.
    pub data_dir: Option<String>,
    /// Address of a primary to follow as a warm replica (`veridb serve
    /// --replica-of host:port`). The replica subscribes to the primary's
    /// endorsed log stream and applies every record through the same
    /// verified write path. `None` means standalone/primary.
    pub replica_of: Option<String>,
    /// Group-commit window in microseconds: how long the WAL flusher
    /// lingers to let more appends join one fsync. `0` degenerates to
    /// fsync-per-commit. Honours `VERIDB_GROUP_COMMIT_US`.
    pub group_commit_window_us: u64,
    /// Seal a snapshot + manifest (and bump the trusted counter) every
    /// this many durable log records, bounding recovery replay time.
    /// `0` disables automatic sealing (a seal still happens on clean
    /// recovery). Honours `VERIDB_SNAPSHOT_EVERY`.
    pub snapshot_every_records: u64,
    /// WAL segment rotation threshold in bytes. Honours
    /// `VERIDB_WAL_SEGMENT_BYTES`.
    pub wal_segment_bytes: u64,
}

/// `0` = auto: the scheduler resolves `VERIDB_POOL` → `VERIDB_WORKERS` →
/// machine parallelism at pool-start time (`sched::default_pool_threads`).
fn default_pool_threads() -> usize {
    0
}

fn default_workers() -> usize {
    match std::env::var("VERIDB_WORKERS") {
        Err(_) => 1,
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if (1..=64).contains(&n) => n,
            _ => {
                eprintln!(
                    "warning: invalid VERIDB_WORKERS value {s:?} (expected 1..=64); \
                     falling back to 1 worker"
                );
                1
            }
        },
    }
}

/// Default connection cap when `VERIDB_MAX_CONNS` is unset.
pub const DEFAULT_MAX_CONNS: usize = 64;
/// Default socket timeout when `VERIDB_NET_TIMEOUT_MS` is unset.
pub const DEFAULT_NET_TIMEOUT_MS: u64 = 5_000;
/// Default portal replay-window size when `VERIDB_REPLAY_WINDOW` is
/// unset (matches the pre-knob hardcoded window).
pub const DEFAULT_REPLAY_WINDOW: usize = 1024;
/// Default admission-queue depth when `VERIDB_NET_QUEUE` is unset: four
/// queued queries per default connection slot.
pub const DEFAULT_NET_QUEUE_DEPTH: usize = 256;

fn default_listen_addr() -> Option<String> {
    std::env::var("VERIDB_LISTEN")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Parse a bounded numeric env knob, warning (with the offending value
/// named) and falling back to the default when out of range — the same
/// contract `VERIDB_WORKERS` established.
fn env_knob<T: std::str::FromStr + PartialOrd + std::fmt::Display + Copy>(
    var: &str,
    lo: T,
    hi: T,
    default: T,
) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(s) => match s.parse::<T>() {
            Ok(n) if n >= lo && n <= hi => n,
            _ => {
                eprintln!(
                    "warning: invalid {var} value {s:?} (expected {lo}..={hi}); \
                     falling back to {default}"
                );
                default
            }
        },
    }
}

fn default_max_conns() -> usize {
    env_knob("VERIDB_MAX_CONNS", 1, 65_536, DEFAULT_MAX_CONNS)
}

fn default_net_timeout_ms() -> u64 {
    env_knob(
        "VERIDB_NET_TIMEOUT_MS",
        10,
        3_600_000,
        DEFAULT_NET_TIMEOUT_MS,
    )
}

fn default_replay_window() -> usize {
    env_knob("VERIDB_REPLAY_WINDOW", 1, 1 << 22, DEFAULT_REPLAY_WINDOW)
}

fn default_net_queue_depth() -> usize {
    env_knob("VERIDB_NET_QUEUE", 1, 1 << 20, DEFAULT_NET_QUEUE_DEPTH)
}

/// Default group-commit window when `VERIDB_GROUP_COMMIT_US` is unset:
/// long enough to batch concurrent commits, short next to a query.
pub const DEFAULT_GROUP_COMMIT_WINDOW_US: u64 = 100;
/// Default seal cadence when `VERIDB_SNAPSHOT_EVERY` is unset.
pub const DEFAULT_SNAPSHOT_EVERY_RECORDS: u64 = 10_000;
/// Default WAL segment size when `VERIDB_WAL_SEGMENT_BYTES` is unset.
pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

fn default_data_dir() -> Option<String> {
    std::env::var("VERIDB_DATA_DIR")
        .ok()
        .filter(|s| !s.is_empty())
}

fn default_group_commit_window_us() -> u64 {
    env_knob(
        "VERIDB_GROUP_COMMIT_US",
        0,
        1_000_000,
        DEFAULT_GROUP_COMMIT_WINDOW_US,
    )
}

fn default_snapshot_every_records() -> u64 {
    env_knob(
        "VERIDB_SNAPSHOT_EVERY",
        0,
        u64::MAX,
        DEFAULT_SNAPSHOT_EVERY_RECORDS,
    )
}

fn default_wal_segment_bytes() -> u64 {
    env_knob(
        "VERIDB_WAL_SEGMENT_BYTES",
        1 << 16,
        1 << 40,
        DEFAULT_WAL_SEGMENT_BYTES,
    )
}

impl Default for VeriDbConfig {
    fn default() -> Self {
        VeriDbConfig {
            page_size: 8 * 1024,
            rsws_partitions: 16,
            verify_rsws: true,
            verify_metadata: false,
            verify_every_ops: Some(1000),
            track_touched_pages: true,
            compact_during_verification: true,
            prf: PrfBackend::HmacSha256,
            workers: default_workers(),
            pool_threads: default_pool_threads(),
            cell_cache_bytes: 0,
            listen_addr: default_listen_addr(),
            max_conns: default_max_conns(),
            net_timeout_ms: default_net_timeout_ms(),
            net_queue_depth: default_net_queue_depth(),
            replay_window: default_replay_window(),
            data_dir: default_data_dir(),
            replica_of: None,
            group_commit_window_us: default_group_commit_window_us(),
            snapshot_every_records: default_snapshot_every_records(),
            wal_segment_bytes: default_wal_segment_bytes(),
        }
    }
}

impl VeriDbConfig {
    /// The evaluation's "Baseline": no verifiability machinery at all.
    pub fn baseline() -> Self {
        VeriDbConfig {
            verify_rsws: false,
            verify_metadata: false,
            verify_every_ops: None,
            ..Self::default()
        }
    }

    /// The evaluation's "RSWS" configuration: record verification on,
    /// page metadata excluded (the optimized default).
    pub fn rsws() -> Self {
        VeriDbConfig {
            verify_metadata: false,
            ..Self::default()
        }
    }

    /// The evaluation's "RSWS incl. metadata" configuration.
    pub fn rsws_with_metadata() -> Self {
        VeriDbConfig {
            verify_metadata: true,
            ..Self::default()
        }
    }

    /// Validate invariant constraints; called by the database constructor.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::Error;
        if self.page_size < 256 {
            return Err(Error::Config(format!(
                "page_size {} too small (min 256)",
                self.page_size
            )));
        }
        if self.page_size > u16::MAX as usize + 1 {
            return Err(Error::Config(format!(
                "page_size {} exceeds 64 KiB slot addressing",
                self.page_size
            )));
        }
        if self.rsws_partitions == 0 {
            return Err(Error::Config("rsws_partitions must be >= 1".into()));
        }
        if self.verify_every_ops == Some(0) {
            return Err(Error::Config("verify_every_ops must be >= 1".into()));
        }
        if !self.verify_rsws && self.verify_metadata {
            return Err(Error::Config("verify_metadata requires verify_rsws".into()));
        }
        if self.workers == 0 {
            return Err(Error::Config("workers must be >= 1".into()));
        }
        if self.pool_threads > crate::sched::MAX_POOL_THREADS {
            return Err(Error::Config(format!(
                "pool_threads {} exceeds the {} ceiling (0 = auto)",
                self.pool_threads,
                crate::sched::MAX_POOL_THREADS
            )));
        }
        if self.max_conns == 0 {
            return Err(Error::Config("max_conns must be >= 1".into()));
        }
        if self.net_timeout_ms == 0 {
            return Err(Error::Config("net_timeout_ms must be >= 1".into()));
        }
        if self.net_queue_depth == 0 {
            return Err(Error::Config("net_queue_depth must be >= 1".into()));
        }
        if self.net_queue_depth > 1 << 20 {
            return Err(Error::Config(format!(
                "net_queue_depth {} exceeds the 1M-frame ceiling",
                self.net_queue_depth
            )));
        }
        if self.replay_window == 0 {
            return Err(Error::Config("replay_window must be >= 1".into()));
        }
        if self.replay_window > 1 << 22 {
            return Err(Error::Config(format!(
                "replay_window {} exceeds the 4M-entry EPC-budget ceiling",
                self.replay_window
            )));
        }
        if let Some(dir) = &self.data_dir {
            if dir.is_empty() {
                return Err(Error::Config(
                    "data_dir must be a non-empty path (or None)".into(),
                ));
            }
        }
        if self.replica_of.is_some() && self.data_dir.is_none() {
            return Err(Error::Config(
                "replica_of requires data_dir (a replica persists the shipped log)".into(),
            ));
        }
        if self.group_commit_window_us > 1_000_000 {
            return Err(Error::Config(format!(
                "group_commit_window_us {} exceeds the 1s ceiling",
                self.group_commit_window_us
            )));
        }
        if self.wal_segment_bytes < 1 << 16 {
            return Err(Error::Config(format!(
                "wal_segment_bytes {} too small (min 64 KiB)",
                self.wal_segment_bytes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        VeriDbConfig::default().validate().unwrap();
        VeriDbConfig::baseline().validate().unwrap();
        VeriDbConfig::rsws().validate().unwrap();
        VeriDbConfig::rsws_with_metadata().validate().unwrap();
    }

    #[test]
    fn presets_match_paper_configurations() {
        assert!(!VeriDbConfig::baseline().verify_rsws);
        assert!(VeriDbConfig::rsws().verify_rsws);
        assert!(!VeriDbConfig::rsws().verify_metadata);
        assert!(VeriDbConfig::rsws_with_metadata().verify_metadata);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = VeriDbConfig::default();
        c.page_size = 64;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.page_size = 1 << 20;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.rsws_partitions = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.verify_every_ops = Some(0);
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::baseline();
        c.verify_metadata = true;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.workers = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.pool_threads = crate::sched::MAX_POOL_THREADS + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn pool_threads_zero_is_auto_and_validates() {
        let c = VeriDbConfig::default();
        assert_eq!(c.pool_threads, 0, "default is auto-sizing");
        let mut c = VeriDbConfig::default();
        c.pool_threads = crate::sched::MAX_POOL_THREADS;
        c.validate().unwrap();
    }

    #[test]
    fn net_knobs_validate() {
        let mut c = VeriDbConfig::default();
        c.max_conns = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.net_timeout_ms = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.replay_window = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.replay_window = (1 << 22) + 1;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.net_queue_depth = 0;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.net_queue_depth = (1 << 20) + 1;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.replay_window = 64;
        c.max_conns = 1;
        c.net_timeout_ms = 10;
        c.net_queue_depth = 4;
        c.listen_addr = Some("127.0.0.1:5433".into());
        c.validate().unwrap();
    }

    #[test]
    fn durability_knobs_validate() {
        let mut c = VeriDbConfig::default();
        c.data_dir = Some(String::new());
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.data_dir = None;
        c.replica_of = Some("127.0.0.1:5433".into());
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.group_commit_window_us = 2_000_000;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.wal_segment_bytes = 1024;
        assert!(c.validate().is_err());

        let mut c = VeriDbConfig::default();
        c.data_dir = Some("/tmp/veridb-data".into());
        c.replica_of = Some("127.0.0.1:5433".into());
        c.group_commit_window_us = 0;
        c.snapshot_every_records = 0;
        c.wal_segment_bytes = 1 << 16;
        c.validate().unwrap();
    }
}
