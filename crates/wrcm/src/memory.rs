//! The write-read consistent memory itself.
//!
//! [`VerifiedMemory`] is the meeting point of the two worlds:
//!
//! - **Untrusted state**: the [`RawPage`]s (and a free-space hint map).
//!   The host may mutate these arbitrarily — see [`crate::tamper`].
//! - **Enclave state**: per-partition [`PartitionState`] (digest pairs and
//!   per-page metadata), the PRF key, and the timestamp counter. These are
//!   only reachable through the protected operations below, which stand in
//!   for the SGX ECall surface of the paper's Algorithm 1/3.
//!
//! Every protected operation tags its reads for `h(RS)` and its writes
//! for `h(WS)` into one `DeltaBucket` under its page lock and folds it
//! through one point, `VerifiedMemory::commit`; the deferred verifier
//! ([`crate::verifier`]) closes epochs by scanning pages and checking
//! `h(RS) = h(WS)` per partition.
//!
//! Locking protocol: **one page mutex → one partition mutex**, everywhere,
//! batched reads included; no op holds two of either, and every op folds
//! before it releases its page lock (DESIGN.md §9).

use crate::delta::{self, DeltaBucket};
use crate::digest::SetDigest;
use crate::page::{RawPage, SlotId};
use crate::prf::{PrfEngine, KIND_DATA, KIND_META};
use crate::rsws::{PageMeta, PageScanState, PartitionState};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use veridb_common::obs::{Metric, Metrics};
use veridb_common::sync::{Mutex, RwLock};
use veridb_common::{Error, Result, VeriDbConfig};
use veridb_enclave::Enclave;

/// Address of one cell in verified memory: `(page, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellAddr {
    /// Page id.
    pub page: u64,
    /// Slot within the page.
    pub slot: SlotId,
}

impl CellAddr {
    /// The flat protocol address fed to the PRF. Page ids stay below
    /// 2^48 so this never collides.
    pub fn proto(&self) -> u64 {
        (self.page << 16) | self.slot as u64
    }
}

impl std::fmt::Display for CellAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// Summary of a full verification pass ([`VerifiedMemory::verify_now`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Pages processed (full reads + cached-digest carries).
    pub pages_processed: u64,
    /// Pages whose cells were actually re-read (touched since last scan).
    pub pages_read: u64,
    /// Epoch number of each partition after the pass.
    pub epochs: Vec<u64>,
    /// Logical state fingerprint: XOR of `sha256("cell-fp" ‖ payload)`
    /// over every live cell. Keyless and timestamp-free by design, so it
    /// is *not* a tamper defense (the PRF digests are) — it is an
    /// equality witness between two verified memories that should hold
    /// the same records, e.g. the live state at seal time and the state a
    /// crash recovery rebuilt by replay.
    pub fingerprint: [u8; 32],
}

/// Reusable scratch buffer for [`VerifiedMemory::read_page_batch`]: cell
/// payloads are packed back-to-back into one flat allocation instead of
/// one fresh `Vec<u8>` per cell, and the buffer's capacity survives across
/// batches. Entries appear in request order, a repeated slot once at its
/// first position; requested slots that are dead (tombstoned or out of
/// range) are skipped, not errors — callers detect them by comparing the
/// returned slot ids against their request.
#[derive(Debug, Default)]
pub struct ReadBatch {
    buf: Vec<u8>,
    /// `(slot, start, end)` of each cell actually read, into `buf`.
    cells: Vec<(SlotId, u32, u32)>,
}

impl ReadBatch {
    /// Empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all entries, keeping the allocations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.cells.clear();
    }

    /// Number of cells read into the batch.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the batch holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The `i`-th cell read, as `(slot, payload)`.
    pub fn get(&self, i: usize) -> Option<(SlotId, &[u8])> {
        let &(slot, start, end) = self.cells.get(i)?;
        Some((slot, &self.buf[start as usize..end as usize]))
    }

    /// Iterate the cells in request order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        self.cells
            .iter()
            .map(|&(slot, start, end)| (slot, &self.buf[start as usize..end as usize]))
    }

    fn push(&mut self, slot: SlotId, data: &[u8]) {
        let start = self.buf.len() as u32;
        self.buf.extend_from_slice(data);
        self.cells.push((slot, start, self.buf.len() as u32));
    }
}

/// Registry entry for one page: the untrusted bytes plus the scan state
/// protected ops and the verifier coordinate through without the
/// partition mutex.
#[derive(Clone)]
struct PageEntry {
    raw: Arc<Mutex<RawPage>>,
    scan: Arc<PageScanState>,
}

/// Write-read consistent memory: untrusted pages + enclave digest state.
pub struct VerifiedMemory {
    enclave: Enclave,
    cfg: VeriDbConfig,
    prf: PrfEngine,
    /// Enclave-resident partition states (digests + page metadata).
    parts: Vec<Mutex<PartitionState>>,
    /// Untrusted memory: the pages themselves, each with its shared scan
    /// state alongside.
    pages: RwLock<HashMap<u64, PageEntry>>,
    next_page_id: AtomicU64,
    /// Ids of released (empty) pages available for reuse. Pages stay
    /// registered — deregistering would strand their enclave metadata and
    /// tombstone digests — they are simply handed out again by
    /// [`Self::allocate_page`] before fresh ids are minted, oldest first.
    /// The per-page `freed` flag keeps double releases from pushing
    /// duplicate ids.
    free_pages: Mutex<VecDeque<u64>>,
    /// `veridb-obs` registry (shared with the enclave).
    metrics: Arc<Metrics>,
    /// Operation counter driving the background-verifier cadence.
    ops: AtomicU64,
    /// Tick channel to the background verifier, if one is attached.
    ticker: RwLock<Option<Sender<()>>>,
    /// Round-robin scan cursor (partition index) for the incremental
    /// background scanner. A plain atomic: the wrap at `usize::MAX` skews
    /// the round-robin once per 2^64 steps, which is harmless.
    scan_cursor: AtomicUsize,
    /// Per-partition pass locks: a partition's scan pass (page processing
    /// up to and including the epoch close) is exclusive, so concurrent
    /// verifiers (§3.3's "multiple verifiers … for disjoint sections")
    /// never double-close an epoch.
    scan_locks: Vec<Mutex<()>>,
    /// First verification failure observed, if any. Results must not be
    /// endorsed once this is set.
    poisoned: Mutex<Option<Error>>,
}

impl VerifiedMemory {
    /// Create a verified memory bound to `enclave`, configured by the
    /// memory-layer fields of `cfg`.
    pub fn new(enclave: Enclave, cfg: &VeriDbConfig) -> Arc<Self> {
        let prf = PrfEngine::new(cfg.prf, enclave.derive_key("rsws-prf"));
        let nparts = cfg.rsws_partitions.max(1);
        let parts = (0..nparts)
            .map(|_| Mutex::new(PartitionState::new()))
            .collect();
        let scan_locks = (0..nparts).map(|_| Mutex::new(())).collect();
        let metrics = Arc::clone(enclave.metrics());
        Arc::new(VerifiedMemory {
            enclave,
            cfg: cfg.clone(),
            prf,
            parts,
            pages: RwLock::new(HashMap::new()),
            next_page_id: AtomicU64::new(1),
            free_pages: Mutex::new(VecDeque::new()),
            metrics,
            ops: AtomicU64::new(0),
            ticker: RwLock::new(None),
            scan_cursor: AtomicUsize::new(0),
            scan_locks,
            poisoned: Mutex::new(None),
        })
    }

    /// The enclave backing this memory.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// The configuration this memory was created with.
    pub fn config(&self) -> &VeriDbConfig {
        &self.cfg
    }

    /// Number of RSWS partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of registered pages.
    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }

    /// Ids of all registered pages (snapshot).
    pub fn page_ids(&self) -> Vec<u64> {
        self.pages.read().keys().copied().collect()
    }

    /// The first verification failure observed, if any.
    pub fn poisoned(&self) -> Option<Error> {
        self.poisoned.lock().clone()
    }

    /// The `veridb-obs` registry this memory updates.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Live verification lag: `(epoch, ops_since_last_close)` for each
    /// partition. One partition-lock acquisition each — a diagnostics
    /// call, not a hot-path one.
    pub fn verification_lag(&self) -> Vec<(u64, u64)> {
        self.parts
            .iter()
            .map(|p| {
                let part = p.lock();
                (part.epoch, part.ops_since_close)
            })
            .collect()
    }

    /// Pages currently parked on the free list.
    pub fn free_page_count(&self) -> usize {
        self.free_pages.lock().len()
    }

    /// Attach the tick channel of a background verifier.
    pub fn set_ticker(&self, tx: Sender<()>) {
        *self.ticker.write() = Some(tx);
    }

    fn part_index(&self, page: u64) -> usize {
        (page % self.parts.len() as u64) as usize
    }

    fn get_page(&self, page: u64) -> Result<Arc<Mutex<RawPage>>> {
        self.pages
            .read()
            .get(&page)
            .map(|e| Arc::clone(&e.raw))
            .ok_or(Error::PageNotFound(page))
    }

    fn get_entry(&self, page: u64) -> Result<PageEntry> {
        self.pages
            .read()
            .get(&page)
            .cloned()
            .ok_or(Error::PageNotFound(page))
    }

    /// Lock partition `pi`, charging blocked time to
    /// `wrcm.part_lock_wait_ns` when the fast path misses.
    fn lock_part(&self, pi: usize) -> veridb_common::sync::MutexGuard<'_, PartitionState> {
        if let Some(part) = self.parts[pi].try_lock() {
            return part;
        }
        let started = std::time::Instant::now();
        let part = self.parts[pi].lock();
        self.metrics
            .add(Metric::PartLockWaitNs, started.elapsed().as_nanos() as u64);
        part
    }

    /// Count one operation toward the verifier cadence; emit a tick when
    /// the threshold is crossed.
    fn op_tick(&self) {
        self.op_tick_n(1);
    }

    /// Count `n` operations at once (batched paths pay one atomic update
    /// per batch, not per cell). Emits one tick per threshold crossing.
    pub(crate) fn op_tick_n(&self, n: u64) {
        let Some(every) = self.cfg.verify_every_ops else {
            return;
        };
        if n == 0 {
            return;
        }
        let after = self.ops.fetch_add(n, Ordering::Relaxed) + n;
        let crossings = after / every - (after - n) / every;
        if crossings > 0 {
            if let Some(tx) = self.ticker.read().as_ref() {
                for _ in 0..crossings {
                    let _ = tx.send(());
                }
            }
        }
    }

    // ---- page lifecycle ---------------------------------------------------

    /// Register a fresh, empty page (the storage layer's `Register`
    /// interface, §4.2), or hand back a previously released one. Returns
    /// its id.
    pub fn allocate_page(&self) -> u64 {
        // Pop through a call so the queue lock is released before the body.
        let pop_free = || self.free_pages.lock().pop_front();
        while let Some(id) = pop_free() {
            // A released page is empty but still registered (its enclave
            // metadata and tombstone digests stay live), so reuse is just
            // handing the id back out.
            let Ok(entry) = self.get_entry(id) else {
                continue;
            };
            entry.scan.unmark_freed();
            self.metrics.inc(Metric::PagesReused);
            return id;
        }
        let id = self.next_page_id.fetch_add(1, Ordering::Relaxed);
        let raw = Arc::new(Mutex::new(RawPage::new(id, self.cfg.page_size)));
        let scan = Arc::new(PageScanState::new(0));
        self.pages.write().insert(
            id,
            PageEntry {
                raw,
                scan: Arc::clone(&scan),
            },
        );
        if self.cfg.verify_rsws {
            let pi = self.part_index(id);
            let mut part = self.parts[pi].lock();
            // ~64 bytes of enclave-resident metadata per page (scan epoch,
            // touched bit, cached digests) — the §4.3 in-enclave tracking
            // structure, accounted against the EPC budget.
            let epc = self.enclave.epc().allocate(64).ok();
            scan.set_scan_epoch(part.epoch);
            part.pages.insert(id, PageMeta::with_scan(scan, epc));
        }
        self.metrics.inc(Metric::PagesAllocated);
        id
    }

    /// Return an **empty** page to the free list so a later
    /// [`Self::allocate_page`] reuses it instead of minting a new id.
    /// Scratch-page consumers (e.g. spill buffers) call this after
    /// deleting their cells; without it, every spilling query would grow
    /// [`Self::page_count`] forever.
    ///
    /// The page stays registered and keeps participating in verification
    /// scans — deregistering would strand its outstanding tombstone
    /// digests and unbalance the metadata sets. Fails with
    /// `InvalidArgument` if live cells remain; releasing an already-free
    /// page is a no-op.
    pub fn release_page(&self, page_id: u64) -> Result<()> {
        let entry = self.get_entry(page_id)?;
        let page = entry.raw.lock();
        if page.iter_live().next().is_some() {
            return Err(Error::InvalidArgument(format!(
                "release_page({page_id}): page has live cells"
            )));
        }
        drop(page);
        // The freed CAS is the dedup guard: only the releaser that wins it
        // pushes the id, so a double release never double-lists the page.
        if entry.scan.try_mark_freed() {
            self.free_pages.lock().push_back(page_id);
            self.metrics.inc(Metric::PagesReleased);
        }
        Ok(())
    }

    /// Free-space hint for allocation decisions (untrusted metadata; an
    /// adversarial answer can only cause routine `PageFull` errors, never
    /// an integrity violation).
    pub fn page_free_space(&self, page: u64) -> Result<usize> {
        let p = self.get_page(page)?;
        let g = p.lock();
        Ok(g.contiguous_free()
            .saturating_sub(crate::page::SLOT_ENTRY_BYTES + crate::page::CELL_HEADER_BYTES))
    }

    // ---- protected operations (Algorithm 1 / Algorithm 3 primitives) ------
    //
    // Each op computes its PRF tags under the page lock alone — tags depend
    // only on (addr, kind, data, ts), never on the epoch — pre-combined into
    // one `DeltaBucket`, and ends in `commit`, the one place digests are
    // folded (see DESIGN.md §9).

    /// Fold `b` into the digests of `page_id`'s partition: capture the
    /// page's routing epoch (the caller holds the page lock, under which
    /// the scan advances it), then fold into the partition state under its
    /// mutex — before the caller releases the page lock. Counts the
    /// bucket's PRF evaluations and consumed elements.
    fn commit(&self, scan: &PageScanState, page_id: u64, b: &DeltaBucket) {
        let se = scan.touch_and_capture();
        delta::apply_bucket(&mut self.lock_part(self.part_index(page_id)), se, b);
        self.metrics.add(Metric::PrfEvals, b.prf_evals);
        self.metrics.add(Metric::SingletonElements, b.singletons);
    }

    /// Protected read: returns the cell's data, folding the read into
    /// `h(RS)` and the virtual write-back (fresh timestamp) into `h(WS)`.
    pub fn read(&self, addr: CellAddr) -> Result<Vec<u8>> {
        let entry = self.get_entry(addr.page)?;
        let mut page = entry.raw.lock();

        if !self.cfg.verify_rsws {
            let (data, _) = page.read(addr.slot)?;
            let out = data.to_vec();
            drop(page);
            self.metrics.inc(Metric::ProtectedReads);
            self.op_tick();
            return Ok(out);
        }

        let data = page.read(addr.slot)?.0.to_vec();
        let mut b = DeltaBucket::new(1);
        let ts = self.enclave.next_timestamp();
        b.restamp(&self.prf, &mut page, addr.page, [addr.slot], ts)?;
        if self.cfg.verify_metadata {
            // Algorithm 3's Get reads the record pointer first.
            let ptr = page.slot_entry_bytes(addr.slot);
            let ts = self.enclave.next_timestamp();
            b.meta(&self.prf, &mut page, addr.page, addr.slot, Some(ptr), ts);
        }
        self.commit(&entry.scan, addr.page, &b);
        self.metrics.inc(Metric::VerifiedReads);
        self.metrics.inc(Metric::ProtectedReads);
        drop(page);
        self.op_tick();
        Ok(data)
    }

    /// Protected overwrite of an existing cell.
    pub fn write(&self, addr: CellAddr, data: &[u8]) -> Result<()> {
        let entry = self.get_entry(addr.page)?;
        let mut page = entry.raw.lock();
        let ts = self.enclave.next_timestamp();

        if !self.cfg.verify_rsws {
            page.write(addr.slot, data, ts)?;
            drop(page);
            self.metrics.inc(Metric::ProtectedWrites);
            self.op_tick();
            return Ok(());
        }

        // Consume the old cell in place: the rs tag is computed from the
        // borrowed bytes, so no copy of the old payload is ever made.
        let mut b = DeltaBucket::new(1);
        let (old, ts_old) = page.read(addr.slot)?;
        b.consume(&self.prf, addr.page, addr.slot, old, ts_old);
        let ptr = page.slot_entry_bytes(addr.slot);
        // Mutate first: a PageFull on a growing write must leave the
        // digests untouched.
        page.write(addr.slot, data, ts)?;
        b.produce(&self.prf, addr.page, addr.slot, data, ts);
        if self.cfg.verify_metadata {
            let ts = self.enclave.next_timestamp();
            b.meta(&self.prf, &mut page, addr.page, addr.slot, Some(ptr), ts);
        }
        self.commit(&entry.scan, addr.page, &b);
        self.metrics.inc(Metric::VerifiedWrites);
        self.metrics.inc(Metric::ProtectedWrites);
        drop(page);
        self.op_tick();
        Ok(())
    }

    /// Protected insert into a specific page. Fails with `PageFull` when
    /// the page cannot hold the cell (the caller allocates another page).
    pub fn insert_in(&self, page_id: u64, data: &[u8]) -> Result<CellAddr> {
        let entry = self.get_entry(page_id)?;
        let mut page = entry.raw.lock();
        let ts = self.enclave.next_timestamp();

        // If contiguous space is short but holes would cover it, compact
        // on demand (lazy mode defers this to the scan, but an insert that
        // would otherwise spill to a fresh page still prefers reclaiming).
        let needed = data.len() + crate::page::CELL_HEADER_BYTES + crate::page::SLOT_ENTRY_BYTES;
        if page.contiguous_free() < needed && page.free_after_compaction() >= needed {
            self.compact_locked(&mut page, page_id, &entry.scan);
        }

        let slot_count_before = page.slot_count();
        let slot = page.insert(data, ts)?;
        let addr = CellAddr {
            page: page_id,
            slot,
        };

        if !self.cfg.verify_rsws {
            drop(page);
            self.metrics.inc(Metric::ProtectedInserts);
            self.op_tick();
            return Ok(addr);
        }

        let mut b = DeltaBucket::new(1);
        b.produce(&self.prf, page_id, slot, data, ts);
        if self.cfg.verify_metadata {
            // A reused slot consumes its tombstone entry (0,0).
            let tombstone = (slot < slot_count_before).then_some([0; 4]);
            let ts = self.enclave.next_timestamp();
            b.meta(&self.prf, &mut page, page_id, slot, tombstone, ts);
        }
        self.commit(&entry.scan, page_id, &b);
        self.metrics.inc(Metric::VerifiedWrites);
        self.metrics.inc(Metric::ProtectedInserts);
        drop(page);
        self.op_tick();
        Ok(addr)
    }

    /// Protected delete. In eager-compaction mode (the pre-§4.3 baseline
    /// behaviour) the page is compacted immediately, paying a verified
    /// read+write per relocated record; in lazy mode the hole waits for
    /// the verification scan.
    pub fn delete(&self, addr: CellAddr) -> Result<()> {
        let entry = self.get_entry(addr.page)?;
        let mut page = entry.raw.lock();

        if !self.cfg.verify_rsws {
            page.delete(addr.slot)?;
            drop(page);
            self.metrics.inc(Metric::ProtectedDeletes);
            self.op_tick();
            return Ok(());
        }

        // The rs tag consumes the dying cell; computed from the borrowed
        // bytes before the tombstone lands, so nothing is copied.
        let mut b = DeltaBucket::new(1);
        let (old, ts_old) = page.read(addr.slot)?;
        b.consume(&self.prf, addr.page, addr.slot, old, ts_old);
        let ptr = page.slot_entry_bytes(addr.slot);
        page.delete(addr.slot)?;
        if self.cfg.verify_metadata {
            let ts = self.enclave.next_timestamp();
            b.meta(&self.prf, &mut page, addr.page, addr.slot, Some(ptr), ts);
        }
        self.commit(&entry.scan, addr.page, &b);
        self.metrics.inc(Metric::VerifiedWrites);
        self.metrics.inc(Metric::ProtectedDeletes);

        if !self.cfg.compact_during_verification && page.needs_compaction() {
            // Eager space reclamation: every surviving record is read and
            // re-written (fresh timestamp) — the §4.3 cost this design
            // later optimizes away.
            self.compact_verified_locked(&mut page, addr.page, &entry.scan)?;
        }
        drop(page);
        self.op_tick();
        Ok(())
    }

    // ---- batched protected reads ------------------------------------------

    /// Batched protected read: read up to `slots.len()` live cells of one
    /// page into `out`, doing for each what [`Self::read`] does — consume
    /// the cell's element under its old timestamp into `h(RS)` and insert
    /// it again under a fresh one into `h(WS)` (Algorithm 1, per cell).
    /// The fixed costs are paid once per batch instead of once per cell:
    ///
    /// - the page is looked up and locked once;
    /// - payloads land in `out`'s flat scratch buffer (no per-cell `Vec`);
    /// - the fresh timestamps are drawn as one consecutive run;
    /// - all PRF tags are computed under the page lock alone and
    ///   pre-combined (XOR) into one `DeltaBucket`, which commits like every
    ///   other op's: under the partition mutex, held for one epoch lookup
    ///   plus two 16-byte folds, before the page lock is released.
    ///
    /// Requested slots that are dead are skipped (nothing is folded for
    /// them, which is digest-neutral); callers detect skips by comparing
    /// `out`'s slot ids against the request. A duplicated slot is served
    /// and folded once, so a batch of k distinct live cells costs exactly
    /// 2k PRF evaluations (4k with metadata).
    pub fn read_page_batch(
        &self,
        page_id: u64,
        slots: &[SlotId],
        out: &mut ReadBatch,
    ) -> Result<()> {
        out.clear();
        let entry = self.get_entry(page_id)?;
        let mut page = entry.raw.lock();
        for &slot in slots {
            if out.cells.iter().any(|c| c.0 == slot) {
                continue;
            }
            if let Ok((data, _)) = page.read(slot) {
                out.push(slot, data);
            }
        }
        let n = out.len() as u64;
        if !self.cfg.verify_rsws || n == 0 {
            drop(page);
            self.metrics.add(Metric::BatchedReadCells, n);
            self.op_tick_n(slots.len() as u64);
            return Ok(());
        }

        let mut b = DeltaBucket::new(n);
        let ts = self.enclave.next_timestamp_block(n);
        let served = out.cells.iter().map(|c| c.0);
        b.restamp(&self.prf, &mut page, page_id, served, ts)?;
        if self.cfg.verify_metadata {
            let ts = self.enclave.next_timestamp_block(n);
            for (&(slot, ..), ts) in out.cells.iter().zip(ts..) {
                let ptr = page.slot_entry_bytes(slot);
                b.meta(&self.prf, &mut page, page_id, slot, Some(ptr), ts);
            }
        }
        self.commit(&entry.scan, page_id, &b);
        self.metrics.add(Metric::VerifiedReads, n);
        self.metrics.add(Metric::BatchedReadCells, n);
        drop(page);
        self.op_tick_n(slots.len() as u64);
        Ok(())
    }

    // ---- compaction helpers -----------------------------------------------

    /// Compact a locked page, folding the metadata updates (offset changes)
    /// if metadata verification is on. Record data and timestamps do not
    /// change, so the record digests are untouched — this is the "free"
    /// compaction of §4.3.
    fn compact_locked(&self, page: &mut RawPage, page_id: u64, scan: &PageScanState) {
        if !self.cfg.verify_rsws || !self.cfg.verify_metadata {
            page.compact();
            return;
        }
        let old: Vec<(SlotId, [u8; 4])> = page
            .live_slot_ids()
            .into_iter()
            .map(|s| (s, page.slot_entry_bytes(s)))
            .collect();
        page.compact();
        // Every directory change is tagged under the page lock, so the
        // commit folds once regardless of how many slots moved.
        let ts = self.enclave.next_timestamp_block(old.len() as u64);
        let mut b = DeltaBucket::default();
        for ((slot, ptr), ts) in old.into_iter().zip(ts..) {
            b.meta(&self.prf, page, page_id, slot, Some(ptr), ts);
        }
        self.commit(scan, page_id, &b);
    }

    /// Eager-mode compaction: verified read + re-timestamped write of every
    /// surviving record (the expensive behaviour §4.3 optimizes away).
    fn compact_verified_locked(
        &self,
        page: &mut RawPage,
        page_id: u64,
        scan: &PageScanState,
    ) -> Result<()> {
        let mut b = DeltaBucket::default();
        let live = page.live_slot_ids();
        let ts = self.enclave.next_timestamp_block(live.len() as u64);
        b.restamp(&self.prf, page, page_id, live, ts)?;
        self.compact_locked(page, page_id, scan);
        self.commit(scan, page_id, &b);
        Ok(())
    }

    // ---- verification (Algorithm 2, non-quiescent) --------------------------

    fn record_failure(&self, e: &Error) {
        let mut p = self.poisoned.lock();
        if p.is_none() {
            *p = Some(e.clone());
            self.metrics.inc(Metric::PoisonEvents);
        }
    }

    /// Process one page of partition `pi` for the in-flight pass: fold its
    /// contribution into `cur.rs` (closing the epoch's reads) and into
    /// `next.ws` (opening the next epoch's writes). Untouched pages use the
    /// cached digest (§4.3); touched pages are re-read, and compacted as a
    /// side task (§4.3). Returns whether the page's cells were re-read.
    fn process_page(&self, pi: usize, page_id: u64) -> Result<bool> {
        let entry = self.get_entry(page_id)?;
        let mut page = entry.raw.lock();

        // Compaction side-task, before computing the contribution.
        if self.cfg.compact_during_verification && page.needs_compaction() {
            self.compact_locked(&mut page, page_id, &entry.scan);
        }

        // Short partition lock: read the page's cached digests. Dropping
        // the lock before the (expensive) contribution computation is safe
        // because the caller holds this partition's pass lock — no other
        // verifier can process it — and we hold the page lock, so every
        // protected op on this page (the writers of its scan state and its
        // digest folds) is blocked until we are done.
        let (touched, cached, cached_meta, cached_fp) = {
            let part = self.parts[pi].lock();
            let part_epoch = part.epoch;
            if !part.pages.contains_key(&page_id) {
                return Err(Error::PageNotFound(page_id));
            }
            if entry.scan.scan_epoch() != part_epoch {
                return Ok(false); // already processed in this pass
            }
            let meta = &part.pages[&page_id];
            (
                entry.scan.touched(),
                meta.cached,
                meta.cached_meta,
                meta.cached_fp,
            )
        };

        let (c_data, c_meta, c_fp, was_read) = if touched || !self.cfg.track_touched_pages {
            let mut c = SetDigest::ZERO;
            let mut n = 0u64;
            let mut fp = [0u8; 32];
            for (slot, data, ts) in page.iter_live() {
                // The fingerprint witnesses *contents*, the digests
                // witness integrity.
                let h = veridb_enclave::mac::sha256(&[b"cell-fp", data]);
                for (a, b) in fp.iter_mut().zip(h.iter()) {
                    *a ^= b;
                }
                c.fold(&delta::tag(&self.prf, page_id, slot, KIND_DATA, data, ts));
                n += 1;
            }
            let mut cm = SetDigest::ZERO;
            if self.cfg.verify_metadata {
                for slot in 0..page.slot_count() {
                    let ptr = page.slot_entry_bytes(slot);
                    let ts = page.meta_ts(slot);
                    cm.fold(&delta::tag(&self.prf, page_id, slot, KIND_META, &ptr, ts));
                    n += 1;
                }
            }
            self.metrics.add(Metric::PrfEvals, n);
            self.metrics.inc(Metric::PagesScanned);
            (c, cm, fp, true)
        } else {
            (cached, cached_meta, cached_fp, false)
        };

        // Re-acquire the partition lock only for the folds and the state
        // flip; the page's state is unchanged since the read above (see
        // the safety note there). The scan-state flip happens with both
        // the page lock and the partition lock held, so an op's
        // touch_and_capture (page lock) can never interleave with it.
        let mut part = self.parts[pi].lock();
        part.cur.rs.fold(&c_data);
        part.next.ws.fold(&c_data);
        if self.cfg.verify_metadata {
            part.meta_cur.rs.fold(&c_meta);
            part.meta_next.ws.fold(&c_meta);
        }
        let epoch = part.epoch;
        let meta = part.pages.get_mut(&page_id).expect("checked above");
        meta.cached = c_data;
        meta.cached_meta = c_meta;
        meta.cached_fp = c_fp;
        entry.scan.clear_touched();
        entry.scan.set_scan_epoch(epoch + 1);
        Ok(was_read)
    }

    /// Try to close partition `pi`'s epoch; no-op if pages are pending.
    fn try_close_epoch(&self, pi: usize) -> Result<bool> {
        let mut part = self.parts[pi].lock();
        if part.next_pending_page().is_some() {
            return Ok(false);
        }
        let epoch = part.epoch;
        let lag = part.ops_since_close;
        if !part.close_epoch() {
            drop(part);
            let e = Error::VerificationFailed {
                partition: pi,
                epoch,
            };
            self.record_failure(&e);
            return Err(e);
        }
        drop(part);
        self.metrics.inc(Metric::EpochCloses);
        // Idle partitions close with zero accumulated ops constantly;
        // sampling only busy closes keeps the lag distribution about
        // actual verification debt.
        if lag > 0 {
            self.metrics.record(Metric::VerificationLagOps, lag);
        }
        Ok(true)
    }

    /// One unit of background-verifier work: scan a single page, closing
    /// partition epochs as passes complete. Returns `true` if a page was
    /// processed. Safe to call from multiple verifier threads (§3.3's
    /// "multiple verifiers"); work distribution is round-robin.
    pub fn scan_step(&self) -> Result<bool> {
        let t0 = std::time::Instant::now();
        let result = self.scan_step_inner();
        self.metrics.inc(Metric::ScanSteps);
        self.metrics
            .record(Metric::ScanStepNs, t0.elapsed().as_nanos() as u64);
        result
    }

    fn scan_step_inner(&self) -> Result<bool> {
        let pi = self.scan_cursor.fetch_add(1, Ordering::Relaxed) % self.parts.len();
        for offset in 0..self.parts.len() {
            let pi = (pi + offset) % self.parts.len();
            let _pass = self.scan_locks[pi].lock();
            let pending = { self.parts[pi].lock().next_pending_page() };
            if let Some(page_id) = pending {
                self.process_page(pi, page_id)?;
                return Ok(true);
            }
            self.try_close_epoch(pi)?;
        }
        Ok(false)
    }

    /// Run one complete pass over a single partition: process every
    /// pending page, then close the epoch. Holds the partition's pass
    /// lock throughout, so concurrent passes never double-close.
    fn run_partition_pass(&self, pi: usize) -> Result<(u64, u64)> {
        let _pass = self.scan_locks[pi].lock();
        let mut pages_processed = 0u64;
        let mut pages_read = 0u64;
        loop {
            let pending = { self.parts[pi].lock().next_pending_page() };
            match pending {
                Some(page_id) => {
                    let was_read = self.process_page(pi, page_id)?;
                    pages_processed += 1;
                    pages_read += u64::from(was_read);
                }
                None => break,
            }
        }
        self.try_close_epoch(pi)?;
        Ok((pages_processed, pages_read))
    }

    /// Run one complete verification pass over every partition,
    /// synchronously, with the configured number of concurrent verifiers
    /// (`VeriDbConfig::workers`). Returns a report, or the first verification
    /// failure.
    pub fn verify_now(&self) -> Result<VerifyReport> {
        self.verify_now_parallel(self.cfg.workers.max(1))
    }

    /// Verify with `threads` concurrent verifiers over disjoint
    /// partitions — the paper's §3.3 deployment option ("multiple
    /// verifiers may be employed to verify different (disjoint) sections
    /// of the memory for performance purposes").
    pub fn verify_now_parallel(&self, threads: usize) -> Result<VerifyReport> {
        let threads = threads.clamp(1, self.parts.len());
        let totals = Mutex::new((0u64, 0u64));
        let first_err: Mutex<Option<Error>> = Mutex::new(None);
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let pi = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if pi >= self.parts.len() {
                        return;
                    }
                    match self.run_partition_pass(pi) {
                        Ok((p, r)) => {
                            let mut t = totals.lock();
                            t.0 += p;
                            t.1 += r;
                        }
                        Err(e) => {
                            let mut slot = first_err.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_err.into_inner() {
            return Err(e);
        }
        let (pages_processed, pages_read) = totals.into_inner();
        let mut epochs = Vec::with_capacity(self.parts.len());
        let mut fingerprint = [0u8; 32];
        for p in self.parts.iter() {
            let part = p.lock();
            epochs.push(part.epoch);
            // Every page was just processed (or carried a still-valid
            // cached value), so XOR-ing the per-page fingerprints yields
            // the whole memory's.
            for meta in part.pages.values() {
                for (a, b) in fingerprint.iter_mut().zip(meta.cached_fp.iter()) {
                    *a ^= b;
                }
            }
        }
        Ok(VerifyReport {
            pages_processed,
            pages_read,
            epochs,
            fingerprint,
        })
    }

    // ---- tampering surface (attack tests) -----------------------------------

    /// Run `f` with direct mutable access to a page's raw state, bypassing
    /// every protection — this is the adversarial host's power. Test-only
    /// by convention; hidden from docs.
    #[doc(hidden)]
    pub fn with_page_mut<R>(&self, page: u64, f: impl FnOnce(&mut RawPage) -> R) -> Result<R> {
        let p = self.get_page(page)?;
        let mut g = p.lock();
        Ok(f(&mut g))
    }
}

impl std::fmt::Debug for VerifiedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedMemory")
            .field("pages", &self.page_count())
            .field("partitions", &self.parts.len())
            .field("poisoned", &self.poisoned.lock().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::PrfBackend;

    fn cfg() -> VeriDbConfig {
        VeriDbConfig {
            page_size: 1024,
            rsws_partitions: 4,
            verify_rsws: true,
            verify_metadata: false,
            verify_every_ops: None,
            track_touched_pages: true,
            compact_during_verification: true,
            prf: PrfBackend::HmacSha256,
            workers: 1,
            ..VeriDbConfig::default()
        }
    }

    fn mem_with(f: impl FnOnce(&mut VeriDbConfig)) -> Arc<VerifiedMemory> {
        let mut c = cfg();
        f(&mut c);
        let enclave = Enclave::create("mem-test", 1 << 22, [3u8; 32]);
        VerifiedMemory::new(enclave, &c)
    }

    fn mem() -> Arc<VerifiedMemory> {
        mem_with(|_| {})
    }

    #[test]
    fn insert_read_write_delete_cycle_verifies() {
        let m = mem();
        let p = m.allocate_page();
        let a = m.insert_in(p, b"one").unwrap();
        let b = m.insert_in(p, b"two").unwrap();
        assert_eq!(m.read(a).unwrap(), b"one");
        m.write(b, b"two-updated").unwrap();
        assert_eq!(m.read(b).unwrap(), b"two-updated");
        m.delete(a).unwrap();
        assert!(matches!(m.read(a), Err(Error::SlotNotFound { .. })));
        let report = m.verify_now().unwrap();
        assert!(report.pages_processed >= 1);
        // Multiple epochs in a row stay consistent.
        for _ in 0..3 {
            m.read(b).unwrap();
            m.verify_now().unwrap();
        }
    }

    #[test]
    fn released_pages_are_reused_not_reminted() {
        let m = mem();
        let p = m.allocate_page();
        let a = m.insert_in(p, b"scratch").unwrap();

        // A page with live cells refuses to be released.
        assert!(matches!(m.release_page(p), Err(Error::InvalidArgument(_))));

        m.delete(a).unwrap();
        m.release_page(p).unwrap();
        m.release_page(p).unwrap(); // double release is a no-op
        assert_eq!(m.free_page_count(), 1);
        let before = m.page_count();

        // The next allocation hands the same id back out and the page is
        // fully usable again.
        let p2 = m.allocate_page();
        assert_eq!(p2, p);
        assert_eq!(m.page_count(), before);
        assert_eq!(m.free_page_count(), 0);
        let b = m.insert_in(p2, b"recycled").unwrap();
        assert_eq!(m.read(b).unwrap(), b"recycled");
        m.verify_now().unwrap();
    }

    #[test]
    fn verification_lag_accumulates_and_resets_on_close() {
        let m = mem();
        let p = m.allocate_page();
        let a = m.insert_in(p, b"x").unwrap();
        for _ in 0..5 {
            m.read(a).unwrap();
        }
        let lag_before: u64 = m.verification_lag().iter().map(|&(_, ops)| ops).sum();
        assert!(lag_before >= 6); // insert + 5 reads
        m.verify_now().unwrap();
        let lag_after: u64 = m.verification_lag().iter().map(|&(_, ops)| ops).sum();
        assert_eq!(lag_after, 0);
        let snap = m.metrics().snapshot();
        assert!(snap.get(Metric::EpochCloses) >= 1);
        assert!(snap.hist(Metric::VerificationLagOps).sum >= lag_before);
        assert!(snap.get(Metric::ProtectedReads) >= 5);
        assert!(snap.get(Metric::ProtectedInserts) >= 1);
    }

    #[test]
    fn metadata_mode_full_cycle_verifies() {
        let m = mem_with(|c| c.verify_metadata = true);
        let p = m.allocate_page();
        let a = m.insert_in(p, b"alpha").unwrap();
        let b = m.insert_in(p, b"beta").unwrap();
        m.read(a).unwrap();
        m.write(a, b"alpha-longer-payload-forcing-relocation")
            .unwrap();
        m.delete(b).unwrap();
        // Reuse the tombstoned slot.
        let c2 = m.insert_in(p, b"gamma").unwrap();
        assert_eq!(c2.slot, b.slot);
        m.verify_now().unwrap();
        m.read(c2).unwrap();
        m.verify_now().unwrap();
    }

    #[test]
    fn eager_compaction_mode_verifies() {
        let m = mem_with(|c| c.compact_during_verification = false);
        let p = m.allocate_page();
        let mut addrs = Vec::new();
        for i in 0..12 {
            addrs.push(m.insert_in(p, format!("record-{i:02}").as_bytes()).unwrap());
        }
        // Delete every other record: each delete eagerly compacts.
        for a in addrs.iter().step_by(2) {
            m.delete(*a).unwrap();
        }
        for a in addrs.iter().skip(1).step_by(2) {
            assert!(m.read(*a).unwrap().starts_with(b"record-"));
        }
        m.verify_now().unwrap();
    }

    #[test]
    fn eager_compaction_counts_every_consumed_singleton() {
        // A delete that compacts a page with k survivors consumes the dying
        // cell and then every survivor as per-cell elements: 1 + k.
        let m = mem_with(|c| c.compact_during_verification = false);
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..5)
            .map(|i| m.insert_in(p, format!("k{i}").as_bytes()).unwrap())
            .collect();
        let before = m.metrics().get(Metric::SingletonElements);
        m.delete(addrs[0]).unwrap();
        assert_eq!(m.metrics().get(Metric::SingletonElements) - before, 1 + 4);
        m.verify_now().unwrap();
    }

    #[test]
    fn eager_compaction_with_metadata_verifies() {
        let m = mem_with(|c| {
            c.compact_during_verification = false;
            c.verify_metadata = true;
        });
        let p = m.allocate_page();
        let mut addrs = Vec::new();
        for i in 0..10 {
            addrs.push(m.insert_in(p, format!("rec-{i}").as_bytes()).unwrap());
        }
        for a in addrs.iter().step_by(2) {
            m.delete(*a).unwrap();
        }
        m.verify_now().unwrap();
    }

    #[test]
    fn spill_across_pages_with_on_demand_compaction() {
        let m = mem();
        let p = m.allocate_page();
        let mut addrs = Vec::new();
        loop {
            match m.insert_in(p, &[0xAB; 100]) {
                Ok(a) => addrs.push(a),
                Err(Error::PageFull { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // Free up holes, then insert again: on-demand compaction kicks in.
        let n = addrs.len();
        assert!(n >= 4);
        m.delete(addrs[0]).unwrap();
        m.delete(addrs[2]).unwrap();
        let re = m.insert_in(p, &[0xCD; 150]).unwrap();
        assert_eq!(m.read(re).unwrap(), vec![0xCD; 150]);
        m.verify_now().unwrap();
    }

    #[test]
    fn baseline_mode_skips_all_digest_work() {
        let m = mem_with(|c| c.verify_rsws = false);
        let p = m.allocate_page();
        let a = m.insert_in(p, b"x").unwrap();
        m.read(a).unwrap();
        m.write(a, b"y").unwrap();
        m.delete(a).unwrap();
        assert_eq!(m.metrics().get(Metric::PrfEvals), 0);
        // verify_now over empty enclave state trivially passes.
        m.verify_now().unwrap();
    }

    #[test]
    fn page_full_reported_for_oversized_cell() {
        let m = mem();
        let p = m.allocate_page();
        let huge = vec![0u8; 2000];
        assert!(matches!(m.insert_in(p, &huge), Err(Error::PageFull { .. })));
        // Failed insert must not corrupt the digests.
        m.verify_now().unwrap();
    }

    #[test]
    fn failed_growing_write_leaves_digests_consistent() {
        let m = mem();
        let p = m.allocate_page();
        let a = m.insert_in(p, b"small").unwrap();
        // Fill the page so the grow cannot relocate.
        while m.insert_in(p, &[0xEE; 90]).is_ok() {}
        let grown = vec![0u8; 500];
        assert!(m.write(a, &grown).is_err());
        assert_eq!(m.read(a).unwrap(), b"small");
        m.verify_now().unwrap();
    }

    #[test]
    fn many_pages_across_partitions_verify() {
        let m = mem();
        let mut addrs = Vec::new();
        for i in 0..16 {
            let p = m.allocate_page();
            for j in 0..5 {
                addrs.push(m.insert_in(p, format!("{i}-{j}").as_bytes()).unwrap());
            }
        }
        for a in &addrs {
            m.read(*a).unwrap();
        }
        let report = m.verify_now().unwrap();
        assert_eq!(report.pages_processed, 16);
        assert_eq!(report.epochs, vec![1, 1, 1, 1]);
    }

    #[test]
    fn untouched_pages_use_cached_digest() {
        let m = mem();
        let p1 = m.allocate_page();
        let p2 = m.allocate_page();
        let a = m.insert_in(p1, b"hot").unwrap();
        let _b = m.insert_in(p2, b"cold").unwrap();
        m.verify_now().unwrap();
        // Touch only p1.
        m.read(a).unwrap();
        let report = m.verify_now().unwrap();
        assert_eq!(report.pages_processed, 2);
        assert_eq!(report.pages_read, 1, "cold page must use its cache");
    }

    #[test]
    fn track_touched_disabled_reads_everything() {
        let m = mem_with(|c| c.track_touched_pages = false);
        let p1 = m.allocate_page();
        let p2 = m.allocate_page();
        m.insert_in(p1, b"a").unwrap();
        m.insert_in(p2, b"b").unwrap();
        m.verify_now().unwrap();
        let report = m.verify_now().unwrap();
        assert_eq!(report.pages_read, 2, "full-scan mode re-reads all pages");
    }

    #[test]
    fn scan_step_interleaved_with_ops() {
        let m = mem();
        let p = m.allocate_page();
        let a = m.insert_in(p, b"interleaved").unwrap();
        // Drive scan steps manually, interleaving reads.
        for _ in 0..40 {
            m.read(a).unwrap();
            m.scan_step().unwrap();
        }
        m.verify_now().unwrap();
    }

    #[test]
    fn concurrent_ops_with_concurrent_scans_stay_consistent() {
        let m = mem_with(|c| c.rsws_partitions = 8);
        let pages: Vec<u64> = (0..8).map(|_| m.allocate_page()).collect();
        let mut addrs = Vec::new();
        for &p in &pages {
            for j in 0..4 {
                addrs.push(m.insert_in(p, format!("seed-{p}-{j}").as_bytes()).unwrap());
            }
        }
        let stop = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4 {
            let m = Arc::clone(&m);
            let addrs = addrs.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = t;
                while stop.load(Ordering::Relaxed) == 0 {
                    let a = addrs[i % addrs.len()];
                    let _ = m.read(a);
                    let _ = m.write(a, format!("w{t}-{i}").as_bytes());
                    i += 7;
                }
            }));
        }
        // Scanner thread races the workers.
        let scanner = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    m.scan_step().unwrap();
                }
            })
        };
        // Let the race run until the workers have pushed a meaningful
        // amount of traffic through (bounded backoff, not a fixed sleep).
        let _ = veridb_common::backoff::Backoff::wait_for(
            || m.metrics().get(Metric::ProtectedReads) >= 5_000,
            2_000,
        );
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        scanner.join().unwrap();
        m.verify_now().unwrap();
        assert!(m.poisoned().is_none());
    }

    // ---- characterization: a fixed script, pinned ---------------------------

    /// Run a fixed script of every protected op on a fixed-key enclave
    /// and render what it leaves behind, before the closing `verify_now`
    /// (which must pass): per partition the epoch, `ops_since_close` and
    /// the first 8 bytes of its eight digests (`0` when zero), then the
    /// PRF evaluation count.
    fn characterize(verify_metadata: bool, eager: bool) -> Vec<String> {
        let c = VeriDbConfig {
            page_size: 1024,
            rsws_partitions: 4,
            verify_metadata,
            verify_every_ops: None,
            compact_during_verification: !eager,
            prf: PrfBackend::HmacSha256,
            workers: 1,
            ..VeriDbConfig::default()
        };
        let m = VerifiedMemory::new(Enclave::create("char-test", 1 << 22, [9u8; 32]), &c);
        let mut batch = ReadBatch::new();
        let at = |page, slot| CellAddr { page, slot };
        // Pages 1, 2 and 3 sit alone in partitions 1, 2 and 3, so the
        // verifier visits them in a fixed order.
        let (p1, p2, p3) = (m.allocate_page(), m.allocate_page(), m.allocate_page());
        let fill = |p: u64, tag: &str| -> Vec<SlotId> {
            (0..6)
                .map(|i| {
                    m.insert_in(p, format!("{tag}-{i}").as_bytes())
                        .unwrap()
                        .slot
                })
                .collect()
        };
        let (s1, s2) = (fill(p1, "one"), fill(p2, "two"));
        m.read(at(p1, s1[0])).unwrap();
        m.write(at(p1, s1[1]), b"one-1-updated").unwrap();
        m.delete(at(p1, s1[2])).unwrap();
        // A batch, its repeat, then a point read of one of its cells.
        let live = [s1[0], s1[1], s1[3], s1[4], s1[5]];
        m.read_page_batch(p1, &live, &mut batch).unwrap();
        m.read_page_batch(p1, &live, &mut batch).unwrap();
        m.read(at(p1, s1[4])).unwrap();
        // Overlapping batches around point ops.
        m.read_page_batch(p1, &[s1[0], s1[1], s1[3]], &mut batch)
            .unwrap();
        m.read_page_batch(p1, &[s1[1], s1[3], s1[4]], &mut batch)
            .unwrap();
        m.write(at(p1, s1[3]), b"one-3-updated").unwrap();
        m.read_page_batch(p1, &[s1[0], s1[5]], &mut batch).unwrap();
        m.delete(at(p1, s1[5])).unwrap();
        // Half a pass: partitions 0 and 1 close and page 2 is scanned, so
        // its later ops route to `next`.
        m.scan_step().unwrap();
        m.scan_step().unwrap();
        m.read(at(p1, s1[0])).unwrap();
        m.read_page_batch(p2, &s2, &mut batch).unwrap();
        m.read_page_batch(p2, &s2, &mut batch).unwrap();
        m.read_page_batch(p2, &s2[2..5], &mut batch).unwrap();
        m.write(at(p2, s2[3]), b"two-3-updated").unwrap();
        m.read(at(p2, s2[0])).unwrap();
        // Fill page 3, punch two holes, and insert into a reused slot
        // (compacting on demand in lazy mode).
        let mut s3 = Vec::new();
        while let Ok(a) = m.insert_in(p3, &[0xAB; 100]) {
            s3.push(a.slot);
        }
        m.delete(at(p3, s3[0])).unwrap();
        m.delete(at(p3, s3[2])).unwrap();
        m.insert_in(p3, &[0xCD; 150]).unwrap();

        let hex = |d: &SetDigest| match d.is_zero() {
            true => "0".to_string(),
            false => d.to_hex()[..16].to_string(),
        };
        let mut lines = Vec::new();
        for (pi, p) in m.parts.iter().enumerate() {
            let part = p.lock();
            lines.push(format!(
                "p{pi} e{} ops{} cur {} {} next {} {}",
                part.epoch,
                part.ops_since_close,
                hex(&part.cur.rs),
                hex(&part.cur.ws),
                hex(&part.next.rs),
                hex(&part.next.ws)
            ));
            lines.push(format!(
                "p{pi} meta_cur {} {} meta_next {} {}",
                hex(&part.meta_cur.rs),
                hex(&part.meta_cur.ws),
                hex(&part.meta_next.rs),
                hex(&part.meta_next.ws)
            ));
        }
        let met = m.metrics();
        lines.push(format!("prf_evals {}", met.get(Metric::PrfEvals)));
        m.verify_now().unwrap();
        lines
    }

    #[test]
    fn fixed_script_digests_and_counters_are_pinned() {
        let head = [
            "p0 e1 ops0 cur 0 0 next 0 0",
            "p0 meta_cur 0 0 meta_next 0 0",
        ];
        let rsws = [
            "p1 e1 ops1 cur 3a0051979867be2c 3f8981893c447701 next 0 0",
            "p1 meta_cur 0 0 meta_next 0 0",
            "p2 e0 ops23 cur 3390850ce2557bcb 3390850ce2557bcb next 49987fa91b3962a5 117b7b1593cb0196",
            "p2 meta_cur 0 0 meta_next 0 0",
            "p3 e0 ops11 cur 139224a486c568e1 b4fa8310691acfde next 0 0",
            "p3 meta_cur 0 0 meta_next 0 0",
            "prf_evals 115",
        ];
        let meta = [
            "p1 e1 ops1 cur 64afdb1381574099 53e5c028804040a9 next 0 0",
            "p1 meta_cur 5d274244ed9153f2 71cbea5f3673cff9 meta_next 0 0",
            "p2 e0 ops23 cur 016aaccd1a5ff2f6 016aaccd1a5ff2f6 next e39f9f83ab0d9fad ab650ab98ea0a099",
            "p2 meta_cur 7e63e1feb374e32b 7e63e1feb374e32b meta_next e5e7c15f9d37f750 993040edfde0159f",
            "p3 e0 ops11 cur d56f5eb5591f827f 6dfee9ee154e89a2 next 0 0",
            "p3 meta_cur 35c7886f09d824f6 aac9e6e5c52e2ce8 meta_next 0 0",
            "prf_evals 257",
        ];
        let eager_meta = [
            "p1 e1 ops1 cur f80d6dfe8b5aec83 af3930276f0b53a6 next 0 0",
            "p1 meta_cur d46449e103c66f49 4b5e6233b109455c meta_next 0 0",
            "p2 e0 ops23 cur 016aaccd1a5ff2f6 016aaccd1a5ff2f6 next 68e2cac41586f069 77d9d8814094fc22",
            "p2 meta_cur 7e63e1feb374e32b 7e63e1feb374e32b meta_next 363bb320c1a930df 2b5415101e951f00",
            "p3 e0 ops11 cur 1d56ca302543983e d24729d1202ab39c next 0 0",
            "p3 meta_cur 03c9e462b3c2b69a 9787317d5526579d meta_next 0 0",
            "prf_evals 325",
        ];
        for ((verify_metadata, eager), rest) in [
            ((false, false), rsws),
            ((true, false), meta),
            ((true, true), eager_meta),
        ] {
            let want: Vec<&str> = head.iter().chain(&rest).copied().collect();
            assert_eq!(characterize(verify_metadata, eager), want);
        }
    }

    // ---- batched operations ------------------------------------------------

    #[test]
    fn read_page_batch_matches_single_reads() {
        let m = mem();
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..8)
            .map(|i| m.insert_in(p, format!("cell-{i}").as_bytes()).unwrap())
            .collect();
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(p, &slots, &mut batch).unwrap();
        assert_eq!(batch.len(), addrs.len());
        for (i, (slot, data)) in batch.iter().enumerate() {
            assert_eq!(slot, addrs[i].slot);
            assert_eq!(data, format!("cell-{i}").as_bytes());
        }
        // The batch folded reads + write-backs exactly like single reads
        // would: interleave both paths and the digests must still balance.
        for a in &addrs {
            m.read(*a).unwrap();
        }
        m.read_page_batch(p, &slots, &mut batch).unwrap();
        m.verify_now().unwrap();
        m.read_page_batch(p, &slots, &mut batch).unwrap();
        m.verify_now().unwrap();
    }

    #[test]
    fn read_page_batch_skips_dead_slots() {
        let m = mem();
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..6)
            .map(|i| m.insert_in(p, format!("v{i}").as_bytes()).unwrap())
            .collect();
        m.delete(addrs[2]).unwrap();
        m.delete(addrs[4]).unwrap();
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(p, &slots, &mut batch).unwrap();
        let got: Vec<SlotId> = batch.iter().map(|(s, _)| s).collect();
        let want: Vec<SlotId> = [0usize, 1, 3, 5].iter().map(|&i| addrs[i].slot).collect();
        assert_eq!(got, want, "dead slots are skipped, order preserved");
        // Nothing was folded for the dead slots: digests still balance.
        m.verify_now().unwrap();
        // An all-dead request is an empty (but successful) batch.
        m.read_page_batch(p, &[addrs[2].slot, addrs[4].slot], &mut batch)
            .unwrap();
        assert!(batch.is_empty());
        m.verify_now().unwrap();
    }

    #[test]
    fn read_page_batch_with_metadata_verifies() {
        let m = mem_with(|c| c.verify_metadata = true);
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..5)
            .map(|i| m.insert_in(p, format!("m{i}").as_bytes()).unwrap())
            .collect();
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        for _ in 0..3 {
            m.read_page_batch(p, &slots, &mut batch).unwrap();
            assert_eq!(batch.len(), 5);
        }
        m.verify_now().unwrap();
    }

    #[test]
    fn read_page_batch_unknown_page_fails_cleanly() {
        let m = mem();
        let mut batch = ReadBatch::new();
        assert!(matches!(
            m.read_page_batch(999, &[0], &mut batch),
            Err(Error::PageNotFound(999))
        ));
        m.verify_now().unwrap();
    }

    #[test]
    fn point_ops_after_batch_read_verify() {
        let m = mem();
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..6)
            .map(|i| m.insert_in(p, format!("g{i}").as_bytes()).unwrap())
            .collect();
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(p, &slots, &mut batch).unwrap();
        // Each point primitive consumes the element the batch re-inserted.
        assert_eq!(m.read(addrs[0]).unwrap(), b"g0");
        m.write(addrs[1], b"g1-updated").unwrap();
        m.delete(addrs[2]).unwrap();
        m.verify_now().unwrap();
        // And the survivors are still readable through both paths.
        m.read_page_batch(p, &[addrs[3].slot, addrs[4].slot], &mut batch)
            .unwrap();
        assert_eq!(m.read(addrs[5]).unwrap(), b"g5");
        m.verify_now().unwrap();
    }

    #[test]
    fn overlapping_and_partial_batches_verify() {
        let m = mem();
        let p = m.allocate_page();
        let slots: Vec<SlotId> = (0..8)
            .map(|i| m.insert_in(p, format!("ov{i}").as_bytes()).unwrap().slot)
            .collect();
        let mut batch = ReadBatch::new();
        // Read the first half, then a window straddling cells read and
        // not read, then a strict subset of that window.
        m.read_page_batch(p, &slots[0..4], &mut batch).unwrap();
        m.read_page_batch(p, &slots[2..6], &mut batch).unwrap();
        assert_eq!(batch.len(), 4);
        m.read_page_batch(p, &slots[3..4], &mut batch).unwrap();
        assert_eq!(batch.len(), 1);
        m.verify_now().unwrap();
    }

    #[test]
    fn duplicate_slots_in_batch_are_deduped() {
        for verify_rsws in [true, false] {
            let m = mem_with(|c| c.verify_rsws = verify_rsws);
            let p = m.allocate_page();
            let a = m.insert_in(p, b"once").unwrap();
            let b = m.insert_in(p, b"twice").unwrap();
            let mut batch = ReadBatch::new();
            m.read_page_batch(p, &[a.slot, b.slot, a.slot, a.slot], &mut batch)
                .unwrap();
            let got: Vec<(SlotId, &[u8])> = batch.iter().collect();
            let want: [(SlotId, &[u8]); 2] = [(a.slot, b"once"), (b.slot, b"twice")];
            assert_eq!(got, want, "each cell once, first-request order");
            m.verify_now().unwrap();
        }
    }

    #[test]
    fn batch_read_cells_survive_compaction() {
        let m = mem();
        let p = m.allocate_page();
        let addrs: Vec<CellAddr> = (0..7)
            .map(|_| m.insert_in(p, &[0x42; 100]).unwrap())
            .collect();
        // Batch-read the tail cells, then punch holes in front of them.
        let tail: Vec<SlotId> = addrs[3..].iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(p, &tail, &mut batch).unwrap();
        m.delete(addrs[0]).unwrap();
        m.delete(addrs[1]).unwrap();
        m.delete(addrs[2]).unwrap();
        // Force an on-demand compaction; slot ids, data, and timestamps
        // are preserved, so every cell's element stays recomputable.
        let big = m.insert_in(p, &[0x77; 300]).unwrap();
        assert_eq!(m.read(big).unwrap(), vec![0x77; 300]);
        m.read_page_batch(p, &tail, &mut batch).unwrap();
        assert_eq!(batch.len(), tail.len());
        m.verify_now().unwrap();
    }

    #[test]
    fn repeated_batches_verify_with_metadata_mode() {
        let m = mem_with(|c| c.verify_metadata = true);
        let p = m.allocate_page();
        let slots: Vec<SlotId> = (0..6)
            .map(|i| m.insert_in(p, format!("md{i}").as_bytes()).unwrap().slot)
            .collect();
        let mut batch = ReadBatch::new();
        for _ in 0..3 {
            m.read_page_batch(p, &slots, &mut batch).unwrap();
        }
        m.write(
            CellAddr {
                page: p,
                slot: slots[2],
            },
            b"md2-upd",
        )
        .unwrap();
        m.verify_now().unwrap();
    }

    /// Writers, batched readers, and a verifier pool all racing: the
    /// epoch digests must still balance at the end, and no verification
    /// alarm may fire on an honest history.
    #[test]
    fn threaded_stress_batched_readers_writers_and_verifier_pool() {
        let m = mem_with(|c| {
            c.rsws_partitions = 8;
            c.verify_every_ops = Some(25);
        });
        let v = crate::verifier::BackgroundVerifier::spawn_pool(Arc::clone(&m), 2);
        let pages: Vec<u64> = (0..8).map(|_| m.allocate_page()).collect();
        let mut by_page: Vec<(u64, Vec<CellAddr>)> = Vec::new();
        for &p in &pages {
            let addrs = (0..6)
                .map(|j| m.insert_in(p, format!("seed-{p}-{j}").as_bytes()).unwrap())
                .collect();
            by_page.push((p, addrs));
        }
        let stop = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        // Writers: whole-page and single-cell overwrites.
        for t in 0..2 {
            let m = Arc::clone(&m);
            let by_page = by_page.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = t;
                while stop.load(Ordering::Relaxed) == 0 {
                    let (_, addrs) = &by_page[i % by_page.len()];
                    if i % 2 == 0 {
                        let data = format!("w{t}-{i}");
                        for a in addrs {
                            let _ = m.write(*a, data.as_bytes());
                        }
                    } else {
                        let _ = m.write(addrs[i % addrs.len()], format!("s{t}-{i}").as_bytes());
                    }
                    i += 3;
                }
            }));
        }
        // Batched readers.
        for t in 0..2 {
            let m = Arc::clone(&m);
            let by_page = by_page.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut batch = ReadBatch::new();
                let mut i = t;
                while stop.load(Ordering::Relaxed) == 0 {
                    let (page, addrs) = &by_page[i % by_page.len()];
                    let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
                    m.read_page_batch(*page, &slots, &mut batch).unwrap();
                    assert_eq!(batch.len(), slots.len());
                    i += 5;
                }
            }));
        }
        // Run the batched race until the readers have covered enough cells.
        let _ = veridb_common::backoff::Backoff::wait_for(
            || m.metrics().get(Metric::BatchedReadCells) >= 5_000,
            2_000,
        );
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(v.stop().is_none(), "honest run must not alarm");
        m.verify_now().unwrap();
        assert!(m.poisoned().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use veridb_common::rng::{check, Rng};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Read(usize),
        Write(usize, Vec<u8>),
        Delete(usize),
        Verify,
    }

    fn bytes(rng: &mut Rng) -> Vec<u8> {
        rng.vec(0..40, |r| r.next_u64() as u8)
    }

    /// Weighted 3:3:2:1:1.
    fn arb_op(rng: &mut Rng) -> Op {
        match rng.gen_range(0..10u8) {
            0..=2 => Op::Insert(bytes(rng)),
            3..=5 => Op::Read(rng.next_u64() as usize),
            6..=7 => Op::Write(rng.next_u64() as usize, bytes(rng)),
            8 => Op::Delete(rng.next_u64() as usize),
            _ => Op::Verify,
        }
    }

    /// Any honest op sequence, with verification passes interleaved at
    /// arbitrary points, never fails verification, and every read
    /// returns what the model expects.
    #[test]
    fn honest_histories_always_verify() {
        check(48, |rng| {
            let ops = rng.vec(0..80, arb_op);
            let verify_metadata = rng.gen_bool(0.5);
            let enclave = Enclave::create("prop-test", 1 << 22, [4u8; 32]);
            let m = VerifiedMemory::new(
                enclave,
                &VeriDbConfig {
                    page_size: 1024,
                    rsws_partitions: 2,
                    verify_rsws: true,
                    verify_metadata,
                    verify_every_ops: None,
                    track_touched_pages: true,
                    compact_during_verification: true,
                    workers: 1,
                    ..VeriDbConfig::default()
                },
            );
            let mut pages = vec![m.allocate_page()];
            let mut model: Vec<(CellAddr, Vec<u8>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(data) => {
                        let mut placed = None;
                        for &p in &pages {
                            if let Ok(a) = m.insert_in(p, &data) {
                                placed = Some(a);
                                break;
                            }
                        }
                        let addr = match placed {
                            Some(a) => a,
                            None => {
                                let p = m.allocate_page();
                                pages.push(p);
                                m.insert_in(p, &data).unwrap()
                            }
                        };
                        model.push((addr, data));
                    }
                    Op::Read(i) => {
                        if !model.is_empty() {
                            let (addr, expect) = &model[i % model.len()];
                            let got = m.read(*addr).unwrap();
                            assert_eq!(&got, expect);
                        }
                    }
                    Op::Write(i, data) => {
                        if !model.is_empty() {
                            let idx = i % model.len();
                            let addr = model[idx].0;
                            if m.write(addr, &data).is_ok() {
                                model[idx].1 = data;
                            }
                        }
                    }
                    Op::Delete(i) => {
                        if !model.is_empty() {
                            let idx = i % model.len();
                            let (addr, _) = model.remove(idx);
                            m.delete(addr).unwrap();
                        }
                    }
                    Op::Verify => {
                        m.verify_now().unwrap();
                    }
                }
            }
            m.verify_now().unwrap();
            for (addr, expect) in &model {
                assert_eq!(&m.read(*addr).unwrap(), expect);
            }
            m.verify_now().unwrap();
        });
    }

    #[derive(Debug, Clone)]
    enum BatchOp {
        /// Batch-read these slots of page `.0`: random subsets, with
        /// duplicates and dead or never-allocated slots.
        Batch(usize, Vec<SlotId>),
        Read(usize),
        Write(usize, Vec<u8>),
        Delete(usize),
        Insert(usize, Vec<u8>),
        ScanStep,
    }

    fn arb_batch_op(rng: &mut Rng) -> BatchOp {
        match rng.gen_range(0..10u8) {
            0..=3 => BatchOp::Batch(
                rng.gen_range(0..2usize),
                rng.vec(0..16, |r| r.gen_range(0..12u16)),
            ),
            4 => BatchOp::Read(rng.next_u64() as usize),
            5 => BatchOp::Write(rng.next_u64() as usize, bytes(rng)),
            6 => BatchOp::Delete(rng.next_u64() as usize),
            7 => BatchOp::Insert(rng.gen_range(0..2usize), bytes(rng)),
            _ => BatchOp::ScanStep,
        }
    }

    /// A batch read of k distinct live cells costs exactly 2k PRF
    /// evaluations (4k with metadata verification), returns each of them
    /// once with the model's payload, and any interleaving of batches,
    /// point ops and verifier steps verifies.
    #[test]
    fn batch_reads_cost_two_prfs_per_distinct_live_cell() {
        check(48, |rng| {
            let verify_metadata = rng.gen_bool(0.5);
            let ops = rng.vec(0..60, arb_batch_op);
            let enclave = Enclave::create("batch-prop", 1 << 22, [5u8; 32]);
            let m = VerifiedMemory::new(
                enclave,
                &VeriDbConfig {
                    page_size: 1024,
                    rsws_partitions: 2,
                    verify_metadata,
                    verify_every_ops: None,
                    workers: 1,
                    ..VeriDbConfig::default()
                },
            );
            let pages = [m.allocate_page(), m.allocate_page()];
            let mut model: Vec<(CellAddr, Vec<u8>)> = Vec::new();
            for (i, &p) in pages.iter().enumerate() {
                for j in 0..8 {
                    let data = format!("seed-{i}-{j}").into_bytes();
                    model.push((m.insert_in(p, &data).unwrap(), data));
                }
            }
            let mut batch = ReadBatch::new();
            for op in ops {
                match op {
                    BatchOp::Batch(pi, slots) => {
                        let page = pages[pi];
                        let mut want: Vec<(SlotId, &[u8])> = Vec::new();
                        for &slot in &slots {
                            let live = model.iter().find(|(a, _)| *a == CellAddr { page, slot });
                            if let Some((_, data)) = live {
                                if !want.iter().any(|w| w.0 == slot) {
                                    want.push((slot, data));
                                }
                            }
                        }
                        let before = m.metrics().get(Metric::PrfEvals);
                        m.read_page_batch(page, &slots, &mut batch).unwrap();
                        let spent = m.metrics().get(Metric::PrfEvals) - before;
                        let per_cell = if verify_metadata { 4 } else { 2 };
                        assert_eq!(spent, per_cell * want.len() as u64);
                        assert_eq!(batch.iter().collect::<Vec<_>>(), want);
                    }
                    BatchOp::Read(i) if !model.is_empty() => {
                        let (addr, expect) = &model[i % model.len()];
                        assert_eq!(&m.read(*addr).unwrap(), expect);
                    }
                    BatchOp::Write(i, data) if !model.is_empty() => {
                        let idx = i % model.len();
                        if m.write(model[idx].0, &data).is_ok() {
                            model[idx].1 = data;
                        }
                    }
                    BatchOp::Delete(i) if !model.is_empty() => {
                        let (addr, _) = model.remove(i % model.len());
                        m.delete(addr).unwrap();
                    }
                    BatchOp::Insert(pi, data) => {
                        if let Ok(addr) = m.insert_in(pages[pi], &data) {
                            model.push((addr, data));
                        }
                    }
                    BatchOp::ScanStep => {
                        m.scan_step().unwrap();
                    }
                    _ => {}
                }
            }
            m.verify_now().unwrap();
        });
    }
}
