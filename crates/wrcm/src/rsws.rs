//! Enclave-resident ReadSet/WriteSet state.
//!
//! Memory is partitioned across N digest pairs ("RSWSs" in the paper's
//! terminology, §4.3): page `p` belongs to partition `p mod N`, and each
//! partition has its own lock, so concurrent workers only contend when
//! touching pages of the same partition. Figure 13 sweeps N from 1 to 1024
//! to show contention collapsing as N grows.
//!
//! Each partition maintains **two** epoch pairs, `cur` and `next`, because
//! verification is non-quiescent (Algorithm 2): while a scan pass is in
//! flight, pages already scanned belong to the next epoch and route their
//! digest updates to `next`; unscanned pages still update `cur`. When every
//! page of the partition has been processed, `cur.rs == cur.ws` must hold —
//! the write-read consistency check — and `next` becomes `cur`.

use crate::digest::SetDigest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use veridb_enclave::EpcAllocation;

/// One `⟨h(RS), h(WS)⟩` accumulator pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RswsPair {
    /// XOR-aggregated digest of the ReadSet.
    pub rs: SetDigest,
    /// XOR-aggregated digest of the WriteSet.
    pub ws: SetDigest,
}

impl RswsPair {
    /// The write-read consistency condition `h(RS) = h(WS)`.
    pub fn is_consistent(&self) -> bool {
        self.rs == self.ws
    }

    /// Zero both digests.
    pub fn clear(&mut self) {
        *self = RswsPair::default();
    }
}

/// Lock-free per-page scan coordination state, shared (via `Arc`) between
/// the untrusted page registry and the enclave's [`PageMeta`].
///
/// Protected ops read/write it under the *page* lock only; the
/// verification scan updates it while holding both the page lock and the
/// partition lock. Keeping it out of [`PartitionState`] is what lets the
/// hot path capture a page's routing epoch and set its touched bit
/// without ever taking the partition mutex.
#[derive(Debug)]
pub struct PageScanState {
    /// Number of completed scans of this page. Equal to the partition's
    /// `epoch` when the page has not yet been processed in the current
    /// pass; `epoch + 1` once it has.
    scan_epoch: AtomicU64,
    /// Whether any verified op touched the page since its last scan
    /// (the §4.3 touched-page optimization; 1 bit/page in the paper).
    touched: AtomicBool,
    /// Whether the page currently sits on the free list (guards against
    /// double-release pushing a duplicate id).
    freed: AtomicBool,
}

impl PageScanState {
    /// Fresh state for a page registered at partition epoch `epoch`.
    pub fn new(epoch: u64) -> Self {
        PageScanState {
            scan_epoch: AtomicU64::new(epoch),
            touched: AtomicBool::new(false),
            freed: AtomicBool::new(false),
        }
    }

    /// The page's scan epoch (digest-pair routing key).
    pub fn scan_epoch(&self) -> u64 {
        self.scan_epoch.load(Ordering::Acquire)
    }

    /// Record a completed scan (or initial registration) of this page.
    pub fn set_scan_epoch(&self, epoch: u64) {
        self.scan_epoch.store(epoch, Ordering::Release);
    }

    /// Whether the page was touched since its last scan.
    pub fn touched(&self) -> bool {
        self.touched.load(Ordering::Acquire)
    }

    /// Clear the touched bit (scan completed with the page lock held).
    pub fn clear_touched(&self) {
        self.touched.store(false, Ordering::Release);
    }

    /// Mark the page touched and return its scan epoch, atomically enough
    /// for the protocol: callers hold the page lock, which is also held
    /// by the scan when it advances `scan_epoch`, so the captured epoch
    /// is exactly the one the op's folds must route by.
    pub fn touch_and_capture(&self) -> u64 {
        self.touched.store(true, Ordering::Release);
        self.scan_epoch.load(Ordering::Acquire)
    }

    /// Claim the free-list slot for this page. Returns `false` if the
    /// page is already on the free list (double release).
    pub fn try_mark_freed(&self) -> bool {
        self.freed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Take the page back off the free list (reallocation).
    pub fn unmark_freed(&self) {
        self.freed.store(false, Ordering::Release);
    }
}

/// Enclave-side bookkeeping for one registered page.
#[derive(Debug)]
pub struct PageMeta {
    /// Scan coordination state, shared with the page registry so the hot
    /// path reads it without the partition lock.
    pub scan: Arc<PageScanState>,
    /// XOR of the PRF images of the page's live cells as of the last scan.
    /// Valid only while `scan.touched() == false`; lets the scan process
    /// an untouched page in O(1) instead of re-reading it.
    pub cached: SetDigest,
    /// Same, for the slot-directory metadata cells (only maintained when
    /// metadata verification is on).
    pub cached_meta: SetDigest,
    /// XOR of `sha256("cell-fp" ‖ payload)` over the page's live cells as
    /// of the last scan — the page's contribution to the *logical state
    /// fingerprint* ([`crate::memory::VerifyReport::fingerprint`]).
    /// Unlike the PRF digests above it is keyless and timestamp-free, so
    /// two memories holding the same records fingerprint identically even
    /// when their write histories differ (e.g. live state vs. a
    /// crash-recovered replay of it).
    pub cached_fp: [u8; 32],
    /// EPC accounting guard for this page's enclave-resident metadata.
    pub epc: Option<EpcAllocation>,
}

impl PageMeta {
    /// Metadata for a freshly registered page at partition epoch `epoch`.
    pub fn new(epoch: u64, epc: Option<EpcAllocation>) -> Self {
        Self::with_scan(Arc::new(PageScanState::new(epoch)), epc)
    }

    /// Metadata wrapping an existing shared scan state (the registry owns
    /// the other reference).
    pub fn with_scan(scan: Arc<PageScanState>, epc: Option<EpcAllocation>) -> Self {
        PageMeta {
            scan,
            cached: SetDigest::ZERO,
            cached_meta: SetDigest::ZERO,
            cached_fp: [0u8; 32],
            epc,
        }
    }
}

/// The mutable state of one RSWS partition (kept behind a mutex by
/// [`crate::memory::VerifiedMemory`]).
#[derive(Debug)]
pub struct PartitionState {
    /// Completed verification epochs for this partition.
    pub epoch: u64,
    /// Digest pair of the epoch currently being closed.
    pub cur: RswsPair,
    /// Digest pair of the next epoch (receives updates for pages already
    /// scanned in the in-flight pass).
    pub next: RswsPair,
    /// Metadata digests, kept separate so the `verify_metadata` toggle is
    /// orthogonal to record verification (Figure 9's two RSWS configs).
    pub meta_cur: RswsPair,
    /// Metadata digest pair of the next epoch.
    pub meta_next: RswsPair,
    /// Per-page enclave metadata for the pages of this partition.
    pub pages: HashMap<u64, PageMeta>,
    /// Protected operations folded into this partition since its last
    /// epoch close — the "verification lag" the observability layer
    /// samples when the epoch closes. Reset by [`Self::close_epoch`].
    pub ops_since_close: u64,
}

impl PartitionState {
    /// Fresh partition at epoch 0.
    pub fn new() -> Self {
        PartitionState {
            epoch: 0,
            cur: RswsPair::default(),
            next: RswsPair::default(),
            meta_cur: RswsPair::default(),
            meta_next: RswsPair::default(),
            pages: HashMap::new(),
            ops_since_close: 0,
        }
    }

    /// The record-data digest pair a page with `scan_epoch` routes to.
    pub fn pair_for(&mut self, scan_epoch: u64) -> &mut RswsPair {
        if scan_epoch > self.epoch {
            &mut self.next
        } else {
            &mut self.cur
        }
    }

    /// The metadata digest pair a page with `scan_epoch` routes to.
    pub fn meta_pair_for(&mut self, scan_epoch: u64) -> &mut RswsPair {
        if scan_epoch > self.epoch {
            &mut self.meta_next
        } else {
            &mut self.meta_cur
        }
    }

    /// A page of this partition that has not been processed in the current
    /// pass, if any.
    pub fn next_pending_page(&self) -> Option<u64> {
        self.pages
            .iter()
            .find(|(_, m)| m.scan.scan_epoch() == self.epoch)
            .map(|(&id, _)| id)
    }

    /// Close the current epoch: check consistency, promote `next`.
    /// Returns whether both the data and metadata sets were consistent.
    pub fn close_epoch(&mut self) -> bool {
        let ok = self.cur.is_consistent() && self.meta_cur.is_consistent();
        self.cur = self.next;
        self.next.clear();
        self.meta_cur = self.meta_next;
        self.meta_next.clear();
        self.epoch += 1;
        self.ops_since_close = 0;
        ok
    }
}

impl Default for PartitionState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DIGEST_LEN;

    fn d(b: u8) -> SetDigest {
        SetDigest([b; DIGEST_LEN])
    }

    #[test]
    fn pair_consistency() {
        let mut p = RswsPair::default();
        assert!(p.is_consistent());
        p.ws.fold(&d(1));
        assert!(!p.is_consistent());
        p.rs.fold(&d(1));
        assert!(p.is_consistent());
    }

    #[test]
    fn pair_routing_by_scan_epoch() {
        let mut s = PartitionState::new();
        s.pair_for(0).ws.fold(&d(1)); // unscanned page → cur
        s.pair_for(1).ws.fold(&d(2)); // already-scanned page → next
        assert_eq!(s.cur.ws, d(1));
        assert_eq!(s.next.ws, d(2));
    }

    #[test]
    fn close_epoch_promotes_next() {
        let mut s = PartitionState::new();
        s.cur.rs.fold(&d(3));
        s.cur.ws.fold(&d(3));
        s.next.ws.fold(&d(4));
        s.ops_since_close = 42;
        assert!(s.close_epoch());
        assert_eq!(s.epoch, 1);
        assert_eq!(s.cur.ws, d(4));
        assert!(s.next.ws.is_zero());
        assert_eq!(s.ops_since_close, 0);
    }

    #[test]
    fn close_epoch_detects_inconsistency() {
        let mut s = PartitionState::new();
        s.cur.ws.fold(&d(5)); // a write never matched by a read
        assert!(!s.close_epoch());
    }

    #[test]
    fn pending_pages_tracked_by_scan_epoch() {
        let mut s = PartitionState::new();
        s.pages.insert(10, PageMeta::new(0, None));
        s.pages.insert(11, PageMeta::new(0, None));
        assert!(s.next_pending_page().is_some());
        for id in [10u64, 11] {
            s.pages.get_mut(&id).unwrap().scan.set_scan_epoch(1);
        }
        assert_eq!(s.next_pending_page(), None);
    }

    #[test]
    fn scan_state_touch_and_free_protocol() {
        let st = PageScanState::new(3);
        assert_eq!(st.scan_epoch(), 3);
        assert!(!st.touched());
        assert_eq!(st.touch_and_capture(), 3);
        assert!(st.touched());
        st.clear_touched();
        assert!(!st.touched());
        assert!(st.try_mark_freed());
        assert!(!st.try_mark_freed(), "double release must not re-free");
        st.unmark_freed();
        assert!(st.try_mark_freed());
    }
}
