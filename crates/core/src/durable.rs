//! Durable operation: WAL-backed crash recovery with rollback defense.
//!
//! Opening a database with `config.data_dir` set routes through
//! [`VeriDb::open_durable`], which wires the `veridb-log` subsystem under
//! the engine:
//!
//! 1. **Root entropy survives restarts.** The enclave's root secret is
//!    sealed to `enclave.seed.sealed` under the *fuse* sealing key
//!    ([`Enclave::fuse_seal_key`]) — the one key derivable before the
//!    enclave exists. A restarted server therefore derives the same WAL
//!    chain key, manifest sealing key, counter key, and client channel
//!    keys, so clients that pinned the enclave across the crash keep
//!    their pins (and their `SeqIntervals`).
//! 2. **Every committed mutation is logged.** A `WalSink` is installed
//!    as the engine's durability sink: records append (MAC-chained) under
//!    the commit-order lock, and the commit does not return until its
//!    record is fsynced (group commit inside the WAL).
//! 3. **Epochs are sealed.** Every `snapshot_every_records` durable
//!    records — and once at the end of every recovery — the engine is
//!    quiesced, the tables are snapshotted through the verified scan
//!    path, a manifest (snapshot hash + WAL tip + chain MAC + timestamp
//!    high-water + logical state fingerprint) is sealed to disk, and the
//!    trusted monotonic counter is bumped as the commit point.
//!
//! ## The recovery state machine
//!
//! ```text
//!    open counter ──── E = 0 ──► WAL has records? ──yes──► ROLLBACK
//!         │                          │ no                (counter deleted)
//!         E > 0                      ▼
//!         │                      fresh start (crash before/during the
//!         ▼                      first seal leaves only dangling files,
//!    manifest-E missing? ──────► which the next seal overwrites)
//!         │ no          yes ──► ROLLBACK (host hid the sealed epoch)
//!         ▼
//!    unseal manifest ── tamper ─► AUTH FAILED
//!         ▼
//!    snapshot hash mismatch? ──► ROLLBACK (substituted snapshot)
//!         ▼
//!    WAL shorter than manifest.last_lsn,
//!    or chain MAC at last_lsn differs? ──► ROLLBACK (truncated/forked log)
//!         ▼
//!    replay snapshot through the protected write path
//!         ▼
//!    verify_now(): fingerprint ≠ sealed fingerprint? ──► TAMPER
//!         ▼
//!    replay WAL tail (lsn > last_lsn) through the engine
//!         ▼
//!    advance timestamps past every high-water mark + the boot floor
//!         ▼
//!    seal epoch E+1 (files first, counter bump last), install the sink
//! ```
//!
//! Every refusal is loud: a host that substitutes older state gets
//! `RollbackDetected` or `AuthFailed`, never a silently stale database.

use crate::recovery::{replay_tables, snapshot_tables};
use crate::VeriDb;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use veridb_common::sync::Mutex;
use veridb_common::{Error, Metric, Metrics, Result, VeriDbConfig};
use veridb_enclave::mac::sha256;
use veridb_enclave::sealing::Sealer;
use veridb_enclave::Enclave;
use veridb_log::{
    decode_snapshot, encode_snapshot, EpochStore, LogRecord, Manifest, TrustedCounter, Wal,
    WalOptions, GENESIS_MAC,
};
use veridb_query::{DurabilitySink, QueryEngine};
use veridb_wrcm::VerifiedMemory;

/// Sealed root entropy, persisted so keys survive restarts. Public so a
/// warm replica can plant the primary's sealed blob before its first
/// durable open (both sides must derive identical keys).
pub const SEED_FILE: &str = "enclave.seed.sealed";
/// The enclave identity durable databases run under. Must be stable
/// across restarts — the fuse sealing key binds to it.
const DURABLE_IDENTITY: &str = "veridb";
/// Timestamps jump to `boot_epoch × 2^40` on every recovery, so even a
/// write the high-water tracking somehow missed can never collide with a
/// pre-crash sequence number.
const BOOT_EPOCH_SHIFT: u32 = 40;

/// Everything the durability subsystem keeps alive next to the engine.
pub struct DurableState {
    wal: Arc<Wal>,
    store: EpochStore,
    counter: Mutex<TrustedCounter>,
    manifest_sealer: Sealer,
    /// The sealed-seed file's bytes, handed to warm replicas so they can
    /// come up with the same enclave keys.
    seed_bytes: Vec<u8>,
    /// Durable LSN covered by the newest sealed epoch.
    last_seal_lsn: AtomicU64,
    /// Seal cadence in records (0 = only at recovery).
    snapshot_every: u64,
    /// Whether this instance accepts and logs its own writes (primary)
    /// or only applies shipped records (warm replica).
    primary: AtomicBool,
    /// Guards against concurrent cadence seals.
    sealing: AtomicBool,
    engine: Arc<QueryEngine>,
    mem: Arc<VerifiedMemory>,
    enclave: Enclave,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for DurableState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableState")
            .field("epoch", &self.epoch())
            .field("durable_lsn", &self.wal.durable_lsn())
            .field("primary", &self.primary.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl DurableState {
    /// The write-ahead log (shipping and tests read through this).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Current sealed epoch (= trusted counter value).
    pub fn epoch(&self) -> u64 {
        self.counter.lock().value()
    }

    /// The sealed root-entropy blob a warm replica needs before it can
    /// open its own data directory with matching keys. Sealed under the
    /// fuse key — useless to anyone who cannot launch the same enclave.
    pub fn seed_bytes(&self) -> &[u8] {
        &self.seed_bytes
    }

    /// Whether this instance logs its own writes (vs. replica mode).
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::Acquire)
    }

    /// Record how far a replica lags the durable tip (the
    /// `log.ship_lag_records` gauge).
    pub fn note_ship_lag(&self, acked_lsn: u64) {
        let durable = self.wal.durable_lsn();
        self.metrics
            .set(Metric::LogShipLagRecords, durable.saturating_sub(acked_lsn));
    }

    /// Seal a new epoch if the cadence says so. Called after commits and
    /// after applying shipped batches; cheap when there is nothing to do.
    fn maybe_seal(self: &Arc<Self>) -> Result<()> {
        if self.snapshot_every == 0 {
            return Ok(());
        }
        let durable = self.wal.durable_lsn();
        if durable.saturating_sub(self.last_seal_lsn.load(Ordering::Acquire)) < self.snapshot_every
        {
            return Ok(());
        }
        if self.sealing.swap(true, Ordering::AcqRel) {
            return Ok(()); // another committer is already sealing
        }
        let res = self.engine.quiesce(|| self.seal_epoch());
        self.sealing.store(false, Ordering::Release);
        res
    }

    /// Seal the current state as a new epoch. Caller must hold the
    /// engine's commit-order lock (via `quiesce`) or be single-threaded
    /// recovery: nothing may mutate between the WAL flush and the
    /// snapshot scan.
    fn seal_epoch(&self) -> Result<()> {
        let (last_lsn, chain_mac) = self.wal.flush_all()?;
        let snap = encode_snapshot(&snapshot_tables(self.engine.catalog())?);
        // The pass both checks h(RS)=h(WS) one more time and yields the
        // logical fingerprint the manifest pins.
        let report = self.mem.verify_now()?;
        let epoch = self.counter.lock().value() + 1;
        let manifest = Manifest {
            epoch,
            last_lsn,
            chain_mac,
            seq_high_water: self.enclave.current_timestamp(),
            snapshot_hash: sha256(&[&snap]),
            state_fingerprint: report.fingerprint,
        };
        self.store
            .write_epoch(&manifest, &self.manifest_sealer, &snap)?;
        // Commit point: only the counter bump makes the epoch real.
        self.counter.lock().advance_to(epoch)?;
        self.last_seal_lsn.store(last_lsn, Ordering::Release);
        self.metrics.inc(Metric::SnapshotWritten);
        self.metrics.add(Metric::SnapshotBytes, snap.len() as u64);
        Ok(())
    }
}

/// The engine's durability sink: forwards committed statements into the
/// WAL and triggers cadence seals once their records are durable.
struct WalSink {
    state: Weak<DurableState>,
}

impl WalSink {
    fn state(&self) -> Result<Arc<DurableState>> {
        self.state
            .upgrade()
            .ok_or_else(|| Error::Io("durability sink detached (database closed)".into()))
    }
}

impl DurabilitySink for WalSink {
    fn append(&self, kind: u8, sql: &str) -> Result<u64> {
        let st = self.state()?;
        let epoch = st.counter.lock().value();
        let seq = st.enclave.current_timestamp();
        st.wal.append(epoch, seq, kind, sql)
    }

    fn wait_durable(&self, ticket: u64) -> Result<()> {
        let st = self.state()?;
        st.wal.wait_durable(ticket)?;
        st.maybe_seal()
    }
}

/// Read the sealed root entropy from `dir`, creating it on first open.
/// Returns `(entropy, sealed file bytes)`.
fn load_or_create_seed(dir: &Path, fuse: &Sealer) -> Result<([u8; 32], Vec<u8>)> {
    let path = dir.join(SEED_FILE);
    match std::fs::read(&path) {
        Ok(bytes) => {
            let blob = veridb_enclave::sealing::SealedBlob::from_bytes(&bytes)?;
            let plain = fuse.unseal(&blob)?;
            let entropy: [u8; 32] = plain
                .as_slice()
                .try_into()
                .map_err(|_| Error::AuthFailed("sealed seed has the wrong length".into()))?;
            Ok((entropy, bytes))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut entropy = [0u8; 32];
            veridb_common::rng::os_random(&mut entropy);
            let mut nonce = [0u8; 16];
            veridb_common::rng::os_random(&mut nonce);
            let bytes = fuse.seal(&entropy, nonce).to_bytes();
            veridb_log::store::write_file_atomic(&path, &bytes)?;
            Ok((entropy, bytes))
        }
        Err(e) => Err(Error::Io(format!("read {}: {e}", path.display()))),
    }
}

impl VeriDb {
    /// Open a database whose state survives crashes: write-ahead logged,
    /// periodically sealed, and — crucially — *provably fresh* after a
    /// restart (see the module docs for the state machine). Requires
    /// `config.data_dir`; [`VeriDb::open`] routes here automatically when
    /// it is set. With `config.replica_of` also set the instance comes up
    /// in replica mode: it recovers its local state but does not log its
    /// own writes until [`promote`](VeriDb::promote)d.
    pub fn open_durable(config: VeriDbConfig) -> Result<VeriDb> {
        config.validate()?;
        let dir =
            PathBuf::from(config.data_dir.clone().ok_or_else(|| {
                Error::InvalidArgument("open_durable needs config.data_dir".into())
            })?);
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Io(format!("create data dir {}: {e}", dir.display())))?;
        let replica = config.replica_of.is_some();

        // (1) Same keys across restarts: recover the sealed root entropy.
        let fuse = Sealer::new(Enclave::fuse_seal_key(DURABLE_IDENTITY));
        let (entropy, seed_bytes) = load_or_create_seed(&dir, &fuse)?;
        let mut db = VeriDb::open_with_entropy(config, DURABLE_IDENTITY, entropy)?;
        let metrics = Arc::clone(db.enclave().metrics());

        // (2) Open the rollback anchors and the log.
        let counter = TrustedCounter::open(&dir, db.enclave().mac_key("trusted-counter"))?;
        let store = EpochStore::new(&dir)?;
        let manifest_sealer = Sealer::new(db.enclave().derive_key("manifest-seal"));
        let wal_opts = WalOptions {
            segment_bytes: db.config().wal_segment_bytes,
            group_commit_window: Duration::from_micros(db.config().group_commit_window_us),
        };
        let (wal, records) = Wal::open(
            &dir,
            db.enclave().mac_key("wal-chain"),
            wal_opts,
            Arc::clone(&metrics),
        )?;

        // (3) The recovery state machine.
        let epoch = counter.value();
        let mut last_seal_lsn = 0u64;
        if epoch == 0 {
            if !records.is_empty() {
                // Acknowledged writes exist on disk but the counter says
                // no epoch was ever sealed — every open seals one, so the
                // host deleted the counter to stage a rollback.
                metrics.inc(Metric::SnapshotRollbacksRefused);
                return Err(Error::RollbackDetected { sequence: 0 });
            }
            // Fresh directory (a crash before the first counter bump can
            // leave dangling snap/manifest files; the seal below makes
            // epoch 1 real and supersedes them).
        } else {
            let manifest = match store.read_manifest(epoch, &manifest_sealer) {
                Ok(m) => m,
                Err(e) => {
                    if matches!(e, Error::RollbackDetected { .. }) {
                        metrics.inc(Metric::SnapshotRollbacksRefused);
                    }
                    return Err(e);
                }
            };
            let snap_bytes = match store.read_snapshot(&manifest) {
                Ok(b) => b,
                Err(e) => {
                    if matches!(e, Error::RollbackDetected { .. }) {
                        metrics.inc(Metric::SnapshotRollbacksRefused);
                    }
                    return Err(e);
                }
            };
            // The WAL must still contain the exact prefix the snapshot
            // covers: at least last_lsn records, chained to the sealed
            // tip MAC. (`Wal::open` already verified the chain from
            // genesis, so one MAC equality pins the whole prefix.)
            let tip_matches = if manifest.last_lsn == 0 {
                manifest.chain_mac == GENESIS_MAC
            } else {
                records
                    .get(manifest.last_lsn as usize - 1)
                    .is_some_and(|r| r.mac == manifest.chain_mac)
            };
            if !tip_matches {
                metrics.inc(Metric::SnapshotRollbacksRefused);
                return Err(Error::RollbackDetected { sequence: epoch });
            }
            // Replay the snapshot through the protected write path …
            replay_tables(&db, decode_snapshot(&snap_bytes)?)?;
            metrics.inc(Metric::SnapshotReplays);
            // … and hold it against the sealed fingerprint before
            // touching the tail: same records, or loud failure.
            let report = db.memory().verify_now()?;
            if report.fingerprint != manifest.state_fingerprint {
                return Err(Error::TamperDetected(
                    "recovered snapshot's state fingerprint diverges from the sealed manifest"
                        .into(),
                ));
            }
            // Replay the tail. Statement errors are tolerated: a failed
            // statement stays in the log by write-ahead discipline, and
            // deterministic re-failure reproduces its (non-)effects.
            for rec in &records[manifest.last_lsn as usize..] {
                let _ = db.engine().execute_replay(&rec.sql);
                db.enclave().advance_timestamp_to(rec.seq_high_water);
            }
            db.enclave().advance_timestamp_to(manifest.seq_high_water);
            last_seal_lsn = manifest.last_lsn;
        }

        // (4) Boot floor: no sequence number can repeat across the crash
        // even if a high-water mark was somehow stale.
        let boot_epoch = epoch + 1;
        db.enclave()
            .advance_timestamp_to(boot_epoch.saturating_mul(1u64 << BOOT_EPOCH_SHIFT));

        let state = Arc::new(DurableState {
            wal: Arc::new(wal),
            store,
            counter: Mutex::new(counter),
            manifest_sealer,
            seed_bytes,
            last_seal_lsn: AtomicU64::new(last_seal_lsn),
            snapshot_every: db.config().snapshot_every_records,
            primary: AtomicBool::new(!replica),
            sealing: AtomicBool::new(false),
            engine: Arc::clone(db.engine()),
            mem: Arc::clone(db.memory()),
            enclave: db.enclave().clone(),
            metrics,
        });

        // (5) Seal the recovered state (files first, counter bump last)
        // so the *next* crash recovers from here, then start logging.
        state.seal_epoch()?;
        if !replica {
            db.engine().set_sink(Some(Arc::new(WalSink {
                state: Arc::downgrade(&state),
            })));
        }
        db.durable = Some(state);
        Ok(db)
    }

    /// The durability subsystem, if this instance was opened durable.
    pub fn durable(&self) -> Option<&Arc<DurableState>> {
        self.durable.as_ref()
    }

    /// Quiesce the engine and seal the current state as a new epoch now
    /// (tests, clean shutdown, operator request).
    pub fn seal_now(&self) -> Result<()> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| Error::InvalidArgument("not a durable database".into()))?;
        self.engine().quiesce(|| d.seal_epoch())
    }

    /// Apply a batch of shipped log records on a warm replica: verify
    /// each against the local chain, extend the local WAL byte-identical,
    /// and replay through the engine. Returns the new durable LSN (the
    /// value to ACK — records are never acknowledged before they are on
    /// the replica's own disk).
    pub fn apply_shipped(&self, recs: &[LogRecord]) -> Result<u64> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| Error::InvalidArgument("not a durable database".into()))?;
        if recs.is_empty() {
            return Ok(d.wal.durable_lsn());
        }
        let tip = self.engine().quiesce(|| {
            let mut tip = 0;
            for rec in recs {
                tip = d.wal.append_raw(rec)?;
                let _ = self.engine().execute_replay(&rec.sql);
                self.enclave().advance_timestamp_to(rec.seq_high_water);
            }
            Ok(tip)
        })?;
        d.wal.wait_durable(tip)?;
        d.maybe_seal()?;
        Ok(d.wal.durable_lsn())
    }

    /// Promote a warm replica to primary: start logging its own writes.
    /// Idempotent; a no-op on an instance that is already primary.
    pub fn promote(&self) -> Result<()> {
        let d = self
            .durable
            .as_ref()
            .ok_or_else(|| Error::InvalidArgument("not a durable database".into()))?;
        if d.primary.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.engine().set_sink(Some(Arc::new(WalSink {
            state: Arc::downgrade(d),
        })));
        // Fresh epoch at the promotion boundary: failover clients resume
        // against sealed state.
        self.seal_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "veridb-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config(dir: &Path) -> VeriDbConfig {
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        cfg.data_dir = Some(dir.display().to_string());
        // Keep commit latency negligible in tests.
        cfg.group_commit_window_us = 0;
        cfg
    }

    #[test]
    fn durable_round_trip_across_restart() {
        let dir = tmpdir("roundtrip");
        let key_probe;
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                .unwrap();
            db.sql("INSERT INTO t VALUES (1,'a'),(2,'b')").unwrap();
            db.sql("UPDATE t SET v = 'bb' WHERE id = 2").unwrap();
            db.sql("DELETE FROM t WHERE id = 1").unwrap();
            key_probe = db.enclave().derive_key("probe");
            // No clean seal: drop() only flushes the WAL, so reopen must
            // replay the tail beyond the recovery-time epoch.
        }
        let db = VeriDb::open(durable_config(&dir)).unwrap();
        assert_eq!(
            db.enclave().derive_key("probe"),
            key_probe,
            "sealed entropy must reproduce the same enclave keys"
        );
        let r = db.sql("SELECT id, v FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Str("bb".into()));
        db.verify_now().unwrap();
        // And the recovered instance keeps accepting durable writes.
        db.sql("INSERT INTO t VALUES (3,'c')").unwrap();
        assert!(db.durable().unwrap().wal().durable_lsn() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_epoch_skips_tail_replay() {
        let dir = tmpdir("sealed");
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY, n INT)")
                .unwrap();
            for i in 0..20 {
                db.sql(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
                    .unwrap();
            }
            db.seal_now().unwrap();
            let d = db.durable().unwrap();
            assert!(d.epoch() >= 2, "open + explicit seal = at least 2 epochs");
        }
        let db = VeriDb::open(durable_config(&dir)).unwrap();
        let r = db.sql("SELECT n FROM t WHERE id = 7").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(70));
        db.verify_now().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_counter_is_rollback_detected() {
        let dir = tmpdir("ctr-del");
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
            db.sql("INSERT INTO t VALUES (1)").unwrap();
        }
        std::fs::remove_file(dir.join("counter.bin")).unwrap();
        let err = VeriDb::open(durable_config(&dir)).unwrap_err();
        assert_eq!(err, Error::RollbackDetected { sequence: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hidden_manifest_is_rollback_detected() {
        let dir = tmpdir("man-del");
        let epoch;
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
            db.sql("INSERT INTO t VALUES (1)").unwrap();
            db.seal_now().unwrap();
            epoch = db.durable().unwrap().epoch();
        }
        // Host hides the newest sealed epoch, hoping for replay of an
        // older one.
        std::fs::remove_file(dir.join(format!("manifest-{epoch:020}.sealed"))).unwrap();
        let err = VeriDb::open(durable_config(&dir)).unwrap_err();
        assert_eq!(err, Error::RollbackDetected { sequence: epoch });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn substituted_snapshot_is_rollback_detected() {
        let dir = tmpdir("snap-sub");
        let (e1, e2);
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
            db.sql("INSERT INTO t VALUES (1)").unwrap();
            db.seal_now().unwrap();
            e1 = db.durable().unwrap().epoch();
            db.sql("INSERT INTO t VALUES (2)").unwrap();
            db.seal_now().unwrap();
            e2 = db.durable().unwrap().epoch();
        }
        assert!(e2 > e1);
        // Host swaps the old snapshot in under the new epoch's name.
        std::fs::copy(
            dir.join(format!("snap-{e1:020}.bin")),
            dir.join(format!("snap-{e2:020}.bin")),
        )
        .unwrap();
        let err = VeriDb::open(durable_config(&dir)).unwrap_err();
        assert_eq!(err, Error::RollbackDetected { sequence: e2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_wal_tail_is_rollback_detected() {
        let dir = tmpdir("wal-trunc");
        {
            let db = VeriDb::open(durable_config(&dir)).unwrap();
            db.sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
            for i in 0..10 {
                db.sql(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
            db.seal_now().unwrap();
        }
        // Host deletes the log wholesale; the sealed manifest still
        // demands its prefix.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        let err = VeriDb::open(durable_config(&dir)).unwrap_err();
        assert!(matches!(err, Error::RollbackDetected { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_replica_applies_shipped_records_and_promotes() {
        let pdir = tmpdir("ship-primary");
        let rdir = tmpdir("ship-replica");
        let primary = VeriDb::open(durable_config(&pdir)).unwrap();
        primary
            .sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        primary.sql("INSERT INTO t VALUES (1,'a'),(2,'b')").unwrap();

        // Seed hand-off: the replica gets the sealed entropy blob so it
        // derives the same keys (and can verify the shipped chain).
        std::fs::write(
            rdir.join(SEED_FILE),
            primary.durable().unwrap().seed_bytes(),
        )
        .unwrap();
        let mut rcfg = durable_config(&rdir);
        rcfg.replica_of = Some("unused:0".into());
        let replica = VeriDb::open(rcfg).unwrap();

        let recs = primary
            .durable()
            .unwrap()
            .wal()
            .records_from(1, 1024)
            .unwrap();
        assert!(!recs.is_empty());
        let acked = replica.apply_shipped(&recs).unwrap();
        assert_eq!(acked, recs.last().unwrap().lsn);
        let r = replica.sql("SELECT v FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("b".into()));

        // Failover: promote and keep writing durably.
        replica.promote().unwrap();
        replica.sql("INSERT INTO t VALUES (3,'c')").unwrap();
        assert_eq!(replica.sql("SELECT * FROM t").unwrap().rows.len(), 3);
        replica.verify_now().unwrap();
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}
