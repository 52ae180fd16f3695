//! `veridb-obs`: the metric registry of one VeriDB instance, hung off the
//! enclave (one metrics domain per trust domain). The simulated SGX cost
//! model (§2.1, §6.1) is part of it: the `enclave.*` rows.
//!
//! Each metric is **one row** of the table `registry!` declares below: an
//! id ([`Metric`]), a dotted name, a [`Kind`], a [`Family`] and a help
//! line. The rows index one array of relaxed atomics ([`Metrics`]), so
//! snapshot, delta ([`MetricsSnapshot::since`]), catalog
//! ([`MetricsSnapshot::counters`]) and the text renderer (`Display`) are
//! loops over the table. An update is one relaxed atomic with no on/off
//! branch, and a constant [`Metric`] folds to a constant array offset. A
//! snapshot is a relaxed load per slot: each exact, mutually
//! unsynchronized, which is the right trade for monitoring.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use Kind::{Counter, Derived, Gauge, Histogram};

/// Simulated cycles of one ECall (§2.1: "an ECall is expensive, which is
/// about 8000 cycles").
pub const ECALL_CYCLES: u64 = 8_000;

/// Simulated cycles of one OCall; published measurements put OCalls on a
/// par with ECalls.
pub const OCALL_CYCLES: u64 = 8_000;

/// Simulated cycles of one EPC page swap (§2.1: "a page swapping can
/// easily consume 40000 CPU cycles").
pub const EPC_SWAP_CYCLES: u64 = 40_000;

/// Per-worker metrics are kept for this many workers; worker `w` folds
/// onto slot `w % MAX_TRACKED_WORKERS` (aggregates stay exact, only the
/// per-worker attribution coarsens).
pub const MAX_TRACKED_WORKERS: usize = 8;

/// How a row's value behaves, and how [`MetricsSnapshot::since`] treats it.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A monotonic event count; deltas subtract.
    Counter,
    /// A last value, live count or high-water mark; deltas carry it.
    Gauge,
    /// Count, sum and max of samples; deltas subtract count and sum.
    Histogram,
    /// Computed from other rows of the same snapshot or delta; no storage.
    Derived(fn(&MetricsSnapshot) -> u64),
}

/// How many members a row expands to (labels replace `{}` in its name).
#[derive(Clone, Copy)]
pub enum Family {
    /// A single metric.
    One,
    /// One member per [`OperatorKind`], labelled by [`OperatorKind::name`].
    PerOperator,
    /// One member per tracked worker slot, labelled by its index.
    PerWorker,
}

impl Family {
    /// Number of members.
    pub const fn members(self) -> usize {
        match self {
            Family::One => 1,
            Family::PerOperator => OperatorKind::ALL.len(),
            Family::PerWorker => MAX_TRACKED_WORKERS,
        }
    }
}

/// One row of the descriptor table.
#[derive(Clone, Copy)]
pub struct Desc {
    /// Dotted name; `{}` marks where a family member's label goes.
    pub name: &'static str,
    /// Value semantics.
    pub kind: Kind,
    /// Member expansion.
    pub family: Family,
    /// One-line description.
    pub help: &'static str,
}

impl Desc {
    /// Atomic slots the row occupies.
    const fn width(&self) -> usize {
        let per_member = match self.kind {
            Counter | Gauge => 1,
            Histogram => 3,
            Derived(_) => 0,
        };
        per_member * self.family.members()
    }
}

/// Declares [`Metric`] and [`TABLE`] from one list, so they cannot drift.
macro_rules! registry {
    ($($id:ident: $kind:expr, $family:ident, $name:literal, $help:literal;)+) => {
        /// A registry row; its discriminant is its index in [`TABLE`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $id,)+
        }

        impl Metric {
            /// Every row, in table order.
            pub const ALL: &'static [Metric] = &[$(Metric::$id),+];
        }

        /// The descriptor table, in catalog order.
        pub const TABLE: &[Desc] = &[$(Desc {
            name: $name,
            kind: $kind,
            family: Family::$family,
            help: $help,
        }),+];
    };
}

registry! {
    ProtectedReads: Counter, One, "wrcm.protected_reads", "Protected point reads that ran the verified protocol.";
    ProtectedWrites: Counter, One, "wrcm.protected_writes", "Protected overwrites.";
    ProtectedInserts: Counter, One, "wrcm.protected_inserts", "Protected inserts.";
    ProtectedDeletes: Counter, One, "wrcm.protected_deletes", "Protected deletes.";
    BatchedReadCells: Counter, One, "wrcm.batched_read_cells", "Cells served by batched protected reads.";
    SingletonElements: Counter, One, "wrcm.singleton_elements", "Per-cell elements consumed into h(RS).";
    PagesAllocated: Counter, One, "wrcm.pages_allocated", "Fresh pages registered.";
    PagesReused: Counter, One, "wrcm.pages_reused", "Pages handed back out from the free list.";
    PagesReleased: Counter, One, "wrcm.pages_released", "Empty pages released to the free list.";
    PartLockWaitNs: Counter, One, "wrcm.part_lock_wait_ns", "Nanoseconds spent blocked on partition mutexes.";
    ScanSteps: Counter, One, "verify.scan_steps", "Verifier scan steps executed.";
    ScanStepNs: Histogram, One, "verify.scan_step_ns", "Wall-clock nanoseconds per verifier scan step.";
    EpochCloses: Counter, One, "verify.epoch_closes", "Partition epochs closed.";
    VerificationLagOps: Histogram, One, "verify.lag_ops", "Protected ops a partition accumulated before a busy epoch close (the verification lag).";
    PoisonEvents: Counter, One, "verify.poison_events", "Verification failures recorded (storage poisoned).";
    ScanBatchedRounds: Counter, One, "cursor.batched_rounds", "Cursor rounds served by the batched fast path.";
    ScanFallbackRounds: Counter, One, "cursor.fallback_rounds", "Cursor rounds that fell back to per-record resolution.";
    ScanBenignRetries: Counter, One, "cursor.benign_retries", "Benign-race retries inside the verified cursor.";
    QueriesExecuted: Counter, One, "query.executed", "Statements executed by the engine.";
    OperatorRows: Counter, PerOperator, "query.rows.{}", "Rows emitted, per operator class.";
    ParallelRegions: Counter, One, "query.parallel_regions", "Parallel regions executed.";
    MorselsDispatched: Counter, One, "query.morsels_dispatched", "Morsels dispatched to the worker pool.";
    MorselsStolen: Counter, One, "query.morsels_stolen", "Morsels run by a worker other than the one they were seeded to.";
    WorkerRows: Counter, PerWorker, "query.worker{}.rows", "Rows produced per worker slot.";
    WorkerBusyNs: Counter, PerWorker, "query.worker{}.busy_ns", "Busy nanoseconds per worker slot.";
    WorkerMorsels: Counter, PerWorker, "query.worker{}.morsels", "Morsels claimed per worker slot.";
    WorkerSteals: Counter, PerWorker, "query.worker{}.steals", "Morsels stolen per worker slot.";
    SchedWaitUs: Histogram, One, "query.sched_wait_us", "Microseconds from a parallel region's submission to its first task.";
    PoolUtilization: Gauge, One, "query.pool_utilization", "Percent of the shared pool attached to the latest parallel region.";
    CrossJobSteals: Counter, One, "query.cross_job_steals", "Tasks claimed right after a worker switched over from another job.";
    WorkerCrossSteals: Counter, PerWorker, "query.worker{}.cross_job_steals", "Cross-job steals per worker slot.";
    SpillEvents: Counter, One, "query.spill_events", "Row buffers that overflowed into verified storage.";
    SpillBytes: Counter, One, "query.spill_bytes", "Bytes spilled into verified storage.";
    ReplaysRejected: Counter, One, "portal.replays_rejected", "Queries rejected by the portal's replay filter.";
    NetAccepted: Counter, One, "net.accepted", "Client connections accepted.";
    NetRejected: Counter, One, "net.rejected", "Connections dropped before entering the query loop.";
    NetFramesIn: Counter, One, "net.frames_in", "Frames read off sockets.";
    NetFramesOut: Counter, One, "net.frames_out", "Frames written to sockets.";
    NetBytesIn: Counter, One, "net.bytes_in", "Bytes read off sockets.";
    NetBytesOut: Counter, One, "net.bytes_out", "Bytes written to sockets.";
    NetTimeouts: Counter, One, "net.timeouts", "Write stalls and idle-connection reaps.";
    NetFrameRejects: Counter, One, "net.frame_rejects", "Frames rejected by the untrusted framing layer.";
    NetAuthRejects: Counter, One, "net.auth_rejects", "Queries rejected for MAC or replay failures at the portal.";
    NetActiveConns: Gauge, One, "net.active_conns", "Connections inside the query loop.";
    NetOverloaded: Counter, One, "net.overloaded", "Queries refused with a retryable Overloaded error.";
    NetWorkerPanics: Counter, One, "net.worker_panics", "Executor turns that panicked (caught and counted).";
    NetQueued: Gauge, One, "net.queued", "Decoded QUERY frames queued for execution.";
    NetWireNs: Histogram, One, "net.wire_ns", "Server-side nanoseconds per query, frame in to response queued.";
    NetWritevFrames: Histogram, One, "net.writev_frames_per_call", "Frames coalesced into each writev call.";
    LogAppends: Counter, One, "log.appends", "Records appended to the write-ahead log.";
    LogAppendBytes: Counter, One, "log.append_bytes", "Framed bytes appended to the write-ahead log.";
    LogFsyncUs: Histogram, One, "log.fsync_us", "WAL fsync microseconds, one sample per group commit.";
    LogGroupCommitBatch: Histogram, One, "log.group_commit_batch", "Records made durable per fsync.";
    LogShipLagRecords: Gauge, One, "log.ship_lag_records", "Durable records the replica has not acknowledged yet.";
    LogShippedRecords: Counter, One, "log.shipped_records", "Records shipped to the replica.";
    SnapshotWritten: Counter, One, "snapshot.written", "Snapshots sealed.";
    SnapshotBytes: Counter, One, "snapshot.bytes", "Bytes written across sealed snapshots.";
    SnapshotReplays: Counter, One, "snapshot.replays", "Recoveries that replayed a snapshot and log tail.";
    SnapshotRollbacksRefused: Counter, One, "snapshot.rollbacks_refused", "Recoveries refused because the host offered rolled-back state.";
    PrfEvals: Counter, One, "enclave.prf_evals", "PRF evaluations for RS/WS digest updates (the dominant cost of §6.1).";
    Ecalls: Counter, One, "enclave.ecalls", "ECall boundary crossings.";
    EpcSwaps: Counter, One, "enclave.epc_swaps", "Simulated EPC page swaps charged by allocations beyond the budget.";
    EpcHighWaterBytes: Gauge, One, "enclave.epc_high_water_bytes", "Highest enclave-resident footprint in bytes.";
    Ocalls: Counter, One, "enclave.ocalls", "OCall boundary crossings.";
    VerifiedReads: Counter, One, "enclave.verified_reads", "Verified read primitives executed.";
    VerifiedWrites: Counter, One, "enclave.verified_writes", "Verified write primitives executed.";
    PagesScanned: Counter, One, "enclave.pages_scanned", "Pages re-read by the verifier.";
    SimulatedCycles: Derived(simulated_cycles), One, "enclave.simulated_cycles", "Simulated cycles of every boundary crossing and EPC swap.";
    ShaHw: Gauge, One, "enclave.sha_hw", "1 when SHA-256 runs on the CPU's SHA extensions, 0 on the portable body.";
    PrfHw: Gauge, One, "enclave.prf_hw", "1 when the RS/WS PRF runs on AES-NI and PCLMULQDQ, 0 on the portable body.";
}

fn simulated_cycles(s: &MetricsSnapshot) -> u64 {
    s.get(Metric::Ecalls) * ECALL_CYCLES
        + s.get(Metric::Ocalls) * OCALL_CYCLES
        + s.get(Metric::EpcSwaps) * EPC_SWAP_CYCLES
}

/// First atomic slot of each row.
const OFFSETS: [usize; TABLE.len()] = {
    let mut offsets = [0; TABLE.len()];
    let mut i = 1;
    while i < TABLE.len() {
        offsets[i] = offsets[i - 1] + TABLE[i - 1].width();
        i += 1;
    }
    offsets
};

/// Atomic slots in the whole registry.
const SLOTS: usize = OFFSETS[TABLE.len() - 1] + TABLE[TABLE.len() - 1].width();

impl Metric {
    /// The row's descriptor.
    pub fn desc(self) -> &'static Desc {
        &TABLE[self as usize]
    }

    /// Slot of family member `member`, folded onto the family's width.
    #[inline]
    fn slot(self, member: usize) -> usize {
        OFFSETS[self as usize] + member % self.desc().family.members()
    }
}

/// The live registry: one relaxed atomic per slot.
#[derive(Debug)]
pub struct Metrics {
    slots: [AtomicU64; SLOTS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: [const { AtomicU64::new(0) }; SLOTS],
        }
    }
}

impl Metrics {
    /// Fresh, zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one event, or raise a live-count gauge by one.
    #[inline]
    pub fn inc(&self, id: Metric) {
        self.add_at(id, 0, 1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, id: Metric, n: u64) {
        self.add_at(id, 0, n);
    }

    /// Count `n` events on family member `member` (folded onto the family).
    #[inline]
    pub fn add_at(&self, id: Metric, member: usize, n: u64) {
        if n != 0 {
            self.slots[id.slot(member)].fetch_add(n, Relaxed);
        }
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn set(&self, id: Metric, v: u64) {
        self.slots[id.slot(0)].store(v, Relaxed);
    }

    /// Raise a gauge to `v` if larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, id: Metric, v: u64) {
        self.slots[id.slot(0)].fetch_max(v, Relaxed);
    }

    /// Lower a live-count gauge by one, saturating so it never wraps.
    pub fn dec(&self, id: Metric) {
        let slot = &self.slots[id.slot(0)];
        let _ = slot.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Record one histogram sample.
    #[inline]
    pub fn record(&self, id: Metric, v: u64) {
        let s = id.slot(0);
        self.slots[s].fetch_add(1, Relaxed);
        self.slots[s + 1].fetch_add(v, Relaxed);
        self.slots[s + 2].fetch_max(v, Relaxed);
    }

    /// Current value of a counter, gauge or derived row.
    pub fn get(&self, id: Metric) -> u64 {
        match id.desc().kind {
            Derived(f) => f(&self.snapshot()),
            _ => self.slots[id.slot(0)].load(Relaxed),
        }
    }

    /// Copy every slot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            slots: std::array::from_fn(|i| self.slots[i].load(Relaxed)),
        }
    }
}

/// Count, sum and max of one histogram row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }
}

/// A point-in-time copy of every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    slots: [u64; SLOTS],
}

/// Every catalog line's dotted name, kind and slot, expanded once.
fn catalog() -> &'static [(String, Kind, usize)] {
    static CATALOG: OnceLock<Vec<(String, Kind, usize)>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut lines = Vec::new();
        for (desc, &start) in TABLE.iter().zip(&OFFSETS) {
            match (desc.kind, desc.family) {
                (Derived(_), _) => lines.push((desc.name.to_owned(), desc.kind, start)),
                (Histogram, _) => {
                    for (i, part) in ["count", "sum", "max"].into_iter().enumerate() {
                        lines.push((format!("{}.{part}", desc.name), desc.kind, start + i));
                    }
                }
                (_, Family::One) => lines.push((desc.name.to_owned(), desc.kind, start)),
                (_, family) => {
                    for i in 0..family.members() {
                        let label = match family {
                            Family::PerOperator => OperatorKind::ALL[i].name().to_owned(),
                            _ => i.to_string(),
                        };
                        lines.push((desc.name.replace("{}", &label), desc.kind, start + i));
                    }
                }
            }
        }
        lines
    })
}

impl MetricsSnapshot {
    /// Value of a counter, gauge or derived row.
    pub fn get(&self, id: Metric) -> u64 {
        self.get_at(id, 0)
    }

    /// Value of family member `member`.
    pub fn get_at(&self, id: Metric, member: usize) -> u64 {
        match id.desc().kind {
            Derived(f) => f(self),
            _ => self.slots[id.slot(member)],
        }
    }

    /// Every member of a family row, in member order.
    pub fn members(&self, id: Metric) -> Vec<u64> {
        (0..id.desc().family.members())
            .map(|i| self.get_at(id, i))
            .collect()
    }

    /// Count, sum and max of a histogram row.
    pub fn hist(&self, id: Metric) -> HistogramSnapshot {
        let s = id.slot(0);
        HistogramSnapshot {
            count: self.slots[s],
            sum: self.slots[s + 1],
            max: self.slots[s + 2],
        }
    }

    /// Protected operations: the table's first seven rows.
    pub fn protected_ops(&self) -> u64 {
        Metric::ALL[..7].iter().map(|&id| self.get(id)).sum()
    }

    /// `self - earlier`, row by row: counters subtract, gauges carry the
    /// later value, histograms subtract count and sum and carry max, and
    /// derived rows recompute from the delta's own components.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = *self;
        for (desc, &start) in TABLE.iter().zip(&OFFSETS) {
            let subtracted = match desc.kind {
                Counter => desc.width(),
                Histogram => 2,
                Gauge | Derived(_) => 0,
            };
            let then = &earlier.slots[start..];
            for (now, then) in out.slots[start..start + subtracted].iter_mut().zip(then) {
                *now = now.saturating_sub(*then);
            }
        }
        out
    }

    /// `(dotted name, value)` per catalog line; histograms give three.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        catalog()
            .iter()
            .map(|(name, kind, slot)| match kind {
                Derived(f) => (name.as_str(), f(self)),
                _ => (name.as_str(), self.slots[*slot]),
            })
            .collect()
    }

    /// The protected-op total, then every non-zero catalog line, on one line.
    pub fn summary_line(&self) -> String {
        let mut line = format!("ops={}", self.protected_ops());
        for (name, value) in self.counters() {
            if value != 0 {
                line.push_str(&format!(" {name}={value}"));
            }
        }
        line
    }
}

impl fmt::Display for MetricsSnapshot {
    /// One `name value` line per catalog line, then non-empty histogram means.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            writeln!(f, "{name} {value}")?;
        }
        for &id in Metric::ALL {
            if matches!(id.desc().kind, Histogram) && self.hist(id).count > 0 {
                writeln!(f, "{}.mean {:.1}", id.desc().name, self.hist(id).mean())?;
            }
        }
        Ok(())
    }
}

/// Declares [`OperatorKind`] with its metric labels.
macro_rules! operator_kinds {
    ($($kind:ident => $label:literal,)+) => {
        /// Query-operator classes metered by the executor; the variant
        /// order is the member order of `query.rows.<op>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum OperatorKind {
            $(#[doc = $label] $kind,)+
        }

        impl OperatorKind {
            /// Every variant, in member order.
            pub const ALL: &'static [OperatorKind] = &[$(OperatorKind::$kind),+];

            /// Stable metric label.
            pub fn name(self) -> &'static str {
                match self {
                    $(OperatorKind::$kind => $label,)+
                }
            }
        }
    };
}

operator_kinds! {
    Scan => "scan", Filter => "filter", Project => "project",
    IndexNlJoin => "index_nl_join", HashJoin => "hash_join", MergeJoin => "merge_join",
    BlockNlJoin => "block_nl_join", Aggregate => "aggregate", Sort => "sort",
    Limit => "limit", Distinct => "distinct", Gather => "gather",
    PartitionedJoin => "partitioned_join",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_follows_its_kinds_delta_rule() {
        let m = Metrics::new();
        let write_all = |n: u64| {
            for &id in Metric::ALL {
                let members = id.desc().family.members();
                match id.desc().kind {
                    // Members past the tracked window fold back onto it.
                    Counter => (0..members).for_each(|i| m.add_at(id, i + members, n)),
                    Gauge => m.set(id, n),
                    Histogram => m.record(id, n),
                    Derived(_) => {}
                }
            }
        };
        write_all(30);
        let before = m.snapshot();
        write_all(5);
        let (after, delta) = (m.snapshot(), m.snapshot().since(&before));
        for &id in Metric::ALL {
            let name = id.desc().name;
            match id.desc().kind {
                Counter => {
                    for i in 0..id.desc().family.members() {
                        let got = (after.get_at(id, i), delta.get_at(id, i));
                        assert_eq!(got, (35, 5), "{name}[{i}]");
                    }
                }
                Gauge => assert_eq!(delta.get(id), 5, "{name}: gauges carry"),
                Histogram => {
                    let h = delta.hist(id);
                    assert_eq!((h.count, h.sum, h.max), (1, 5, 30), "{name}");
                }
                Derived(_) => {} // checked below
            }
        }
    }

    #[test]
    fn catalog_is_the_golden_list_plus_the_appended_cost_rows() {
        let expected: Vec<&str> = include_str!("../../../tests/golden/stats_names.txt")
            .lines()
            .collect();
        let snap = Metrics::new().snapshot();
        let names: Vec<&str> = snap.counters().iter().map(|c| c.0).collect();
        assert_eq!(names, expected);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn derived_rows_recompute_in_snapshots_and_deltas() {
        let m = Metrics::new();
        m.add(Metric::Ecalls, 2);
        m.inc(Metric::Ocalls);
        let before = m.snapshot();
        m.add(Metric::EpcSwaps, 3);
        // The calls land before the snapshot, the swaps after it; the
        // delta prices only the swaps.
        assert_eq!(
            before.get(Metric::SimulatedCycles),
            2 * ECALL_CYCLES + OCALL_CYCLES
        );
        let delta = m.snapshot().since(&before);
        let cycles = 2 * ECALL_CYCLES + OCALL_CYCLES + 3 * EPC_SWAP_CYCLES;
        assert_eq!(m.get(Metric::SimulatedCycles), cycles);
        assert_eq!(delta.get(Metric::SimulatedCycles), 3 * EPC_SWAP_CYCLES);
    }

    #[test]
    fn display_renders_the_catalog_then_histogram_means() {
        let m = Metrics::new();
        m.record(Metric::ScanStepNs, 1234);
        m.add_at(Metric::OperatorRows, OperatorKind::Gather as usize, 4);
        let text = m.snapshot().to_string();
        assert!(text.starts_with("wrcm.protected_reads 0\n"));
        assert!(text.contains("\nquery.rows.gather 4\n"));
        assert!(text.ends_with("\nverify.scan_step_ns.mean 1234.0\n"));
        let summary = m.snapshot().summary_line();
        assert!(summary.ends_with(" verify.scan_step_ns.max=1234 query.rows.gather=4"));
    }
}
