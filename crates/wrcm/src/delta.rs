//! Digest contributions, thread-local digest deltas and per-worker
//! timestamp blocks.
//!
//! Every protected op tags its elements under the page lock into one
//! `DeltaBucket` (the PRF images destined for `h(RS)`/`h(WS)` and
//! their metadata twins, pre-combined by XOR, plus what they cost) and
//! commits it once, either under the partition mutex or into the
//! worker's `DeltaSlot`.
//!
//! The RS/WS digests are XOR-folds, which commute and associate: the
//! multiset equality `h(RS) = h(WS)` that Algorithm 2 checks is
//! order-independent, so a worker may accumulate its folds privately and
//! merge them into [`PartitionState`] later — once per morsel instead of
//! once per protected op. This is what turns the morsel-parallel scan
//! path shared-nothing: the hot loop touches only its page latch and its
//! own [`DeltaSlot`], never a partition mutex.
//!
//! Two invariants make the deferral sound (see DESIGN.md §14):
//!
//! 1. **Fold-before-unlatch.** An op folds into its slot *before*
//!    releasing the page lock, and captures the page's `scan_epoch` under
//!    that same lock. The verification scan processes a page under its
//!    page lock too, so any op that observed `scan_epoch == epoch`
//!    happened-before the scan of that page — and the epoch close drains
//!    every registered slot after the no-pending-pages check, so all
//!    `cur`-destined elements are present when `h(RS) = h(WS)` is tested.
//! 2. **Routing stability.** A bucket is keyed by the captured
//!    `scan_epoch`, and [`PartitionState::pair_for`] routes by
//!    `scan_epoch > epoch`. An epoch close promotes `next` to `cur`
//!    exactly as it bumps `epoch`, so a deferred merge lands in the same
//!    accumulator the direct fold would have reached.
//!
//! Timestamps are drawn in blocks ([`TsAlloc`], 1024 at a time) from the
//! enclave's global counter so the counter's cache line stops
//! ping-ponging between workers. Blocks are disjoint, so tuple
//! `(addr, ts)` uniqueness — all the replay argument needs — is
//! preserved; an abandoned block remainder is harmless because those
//! timestamps are never folded into any digest and never re-issued.

use crate::digest::SetDigest;
use crate::memory::CellAddr;
use crate::page::{RawPage, SlotId};
use crate::prf::{PrfEngine, KIND_DATA, KIND_META};
use crate::rsws::PartitionState;
use veridb_common::obs::{Metric, Metrics};
use veridb_common::sync::Mutex;
use veridb_common::Result;
use veridb_enclave::Enclave;

/// Timestamps drawn from the global counter per block refill.
pub(crate) const TS_BLOCK: u64 = 1024;

/// PRF image of the `kind` element at `(page, slot)`: `data` stamped `ts`.
pub(crate) fn tag(
    prf: &PrfEngine,
    page: u64,
    slot: SlotId,
    kind: u8,
    data: &[u8],
    ts: u64,
) -> SetDigest {
    prf.tag(CellAddr { page, slot }.proto(), kind, data, ts)
}

/// The digest contribution of protected ops, pre-combined under the page
/// lock: every op builds one and hands it to `VerifiedMemory::commit`,
/// and a [`DeltaSlot`] keeps one per `(partition, scan_epoch)` key.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DeltaBucket {
    /// XOR accumulator destined for the partition's `h(RS)`.
    pub rs: SetDigest,
    /// XOR accumulator destined for the partition's `h(WS)`.
    pub ws: SetDigest,
    /// Metadata-digest accumulators (zero unless `verify_metadata`).
    pub meta_rs: SetDigest,
    /// See [`Self::meta_rs`].
    pub meta_ws: SetDigest,
    /// Protected ops folded here (feeds `ops_since_close` on merge).
    pub ops: u64,
    /// PRF evaluations behind the four digests.
    pub prf_evals: u64,
    /// Per-cell elements consumed into `rs`.
    pub singletons: u64,
}

impl DeltaBucket {
    /// An empty contribution of `ops` protected ops.
    pub fn new(ops: u64) -> Self {
        DeltaBucket {
            ops,
            ..Self::default()
        }
    }

    /// Consume the per-cell element `(page, slot)` = `data` stamped `ts`.
    pub fn consume(&mut self, prf: &PrfEngine, page: u64, slot: SlotId, data: &[u8], ts: u64) {
        self.rs.fold(&tag(prf, page, slot, KIND_DATA, data, ts));
        self.prf_evals += 1;
        self.singletons += 1;
    }

    /// Insert the per-cell element `(page, slot)` = `data` stamped `ts`.
    pub fn produce(&mut self, prf: &PrfEngine, page: u64, slot: SlotId, data: &[u8], ts: u64) {
        self.ws.fold(&tag(prf, page, slot, KIND_DATA, data, ts));
        self.prf_evals += 1;
    }

    /// Re-stamp `slots` of `page` with consecutive timestamps from `ts`:
    /// consume each cell's outstanding element, then insert it again
    /// under its new timestamp.
    pub fn restamp(
        &mut self,
        prf: &PrfEngine,
        page: &mut RawPage,
        page_id: u64,
        slots: impl IntoIterator<Item = SlotId>,
        ts: u64,
    ) -> Result<()> {
        for (slot, ts_new) in slots.into_iter().zip(ts..) {
            let (data, ts_old) = page.read(slot)?;
            self.consume(prf, page_id, slot, data, ts_old);
            self.produce(prf, page_id, slot, data, ts_new);
            page.set_ts(slot, ts_new)?;
        }
        Ok(())
    }

    /// One slot-directory transition (Algorithm 3's metadata cells):
    /// consume `slot`'s previous entry `old` under its current metadata
    /// timestamp (`None`: the slot had no entry), then insert the entry
    /// the page holds now, stamped `ts`.
    pub fn meta(
        &mut self,
        prf: &PrfEngine,
        page: &mut RawPage,
        page_id: u64,
        slot: SlotId,
        old: Option<[u8; 4]>,
        ts: u64,
    ) {
        if let Some(old) = old {
            let ts_old = page.meta_ts(slot);
            self.meta_rs
                .fold(&tag(prf, page_id, slot, KIND_META, &old, ts_old));
            self.prf_evals += 1;
        }
        let new = page.slot_entry_bytes(slot);
        self.meta_ws
            .fold(&tag(prf, page_id, slot, KIND_META, &new, ts));
        self.prf_evals += 1;
        page.set_meta_ts(slot, ts);
    }

    /// Add another contribution to this one.
    fn merge(&mut self, o: &DeltaBucket) {
        self.rs.fold(&o.rs);
        self.ws.fold(&o.ws);
        self.meta_rs.fold(&o.meta_rs);
        self.meta_ws.fold(&o.meta_ws);
        self.ops += o.ops;
        self.prf_evals += o.prf_evals;
        self.singletons += o.singletons;
    }
}

/// One worker's pending digest folds, keyed by `(partition, scan_epoch)`.
///
/// The slot's mutex is effectively uncontended — only the owning worker
/// folds into it, and only a merge or an epoch close drains it — but it
/// is what makes the drained folds visible across threads. A handful of
/// live keys is typical (one partition per page the morsel spans, times
/// at most two scan epochs), so a linear-scanned `Vec` beats a map.
#[derive(Debug, Default)]
pub(crate) struct DeltaSlot {
    buckets: Mutex<Vec<((usize, u64), DeltaBucket)>>,
}

impl DeltaSlot {
    /// Fold one op's contribution into the `(pi, se)` bucket.
    pub fn fold(&self, pi: usize, se: u64, b: &DeltaBucket) {
        let mut buckets = self.buckets.lock();
        match buckets.iter_mut().find(|(k, _)| *k == (pi, se)) {
            Some((_, acc)) => acc.merge(b),
            None => buckets.push(((pi, se), *b)),
        }
    }

    /// Remove and return every bucket belonging to partition `pi`, as
    /// `(scan_epoch, bucket)`. The slot lock is released before return.
    pub fn drain_partition(&self, pi: usize) -> Vec<(u64, DeltaBucket)> {
        let mut buckets = self.buckets.lock();
        let mut out = Vec::new();
        buckets.retain(|&((p, se), b)| {
            if p == pi {
                out.push((se, b));
                false
            } else {
                true
            }
        });
        out
    }

    /// Partition indices with pending buckets, sorted and deduplicated.
    pub fn partitions(&self) -> Vec<usize> {
        let buckets = self.buckets.lock();
        let mut v: Vec<usize> = buckets.iter().map(|((p, _), _)| *p).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether no folds are pending.
    pub fn is_empty(&self) -> bool {
        self.buckets.lock().is_empty()
    }
}

/// Apply one drained bucket to a partition, exactly as the direct folds
/// would have: metadata pair first, then the record pair, both routed by
/// the captured `scan_epoch`.
pub(crate) fn apply_bucket(part: &mut PartitionState, se: u64, b: &DeltaBucket) {
    if !(b.meta_rs.is_zero() && b.meta_ws.is_zero()) {
        let mp = part.meta_pair_for(se);
        mp.rs.fold(&b.meta_rs);
        mp.ws.fold(&b.meta_ws);
    }
    let pair = part.pair_for(se);
    pair.rs.fold(&b.rs);
    pair.ws.fold(&b.ws);
    part.ops_since_close += b.ops;
}

/// Per-worker timestamp allocator: refills in blocks of [`TS_BLOCK`]
/// from the enclave's global counter, hands out consecutive runs.
#[derive(Debug, Default)]
pub(crate) struct TsAlloc {
    /// Next unissued timestamp of the current block.
    next: u64,
    /// One past the last timestamp of the current block.
    end: u64,
}

impl TsAlloc {
    /// Draw `n` consecutive timestamps, refilling from the global counter
    /// when the current block cannot satisfy the run. The skipped
    /// remainder of an abandoned block is never folded and never
    /// re-issued, so global timestamp uniqueness holds.
    pub fn take(&mut self, n: u64, enclave: &Enclave, metrics: &Metrics) -> u64 {
        if self.end - self.next < n {
            let block = n.max(TS_BLOCK);
            self.next = enclave.next_timestamp_block(block);
            self.end = self.next + block;
            metrics.inc(Metric::TsBlocksAllocated);
        }
        let t = self.next;
        self.next += n;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::rng::check;

    fn d(b: u8) -> SetDigest {
        SetDigest([b; 32])
    }

    fn bucket(rs: u8, ws: u8, ops: u64) -> DeltaBucket {
        DeltaBucket {
            rs: d(rs),
            ws: d(ws),
            ..DeltaBucket::new(ops)
        }
    }

    fn test_enclave() -> Enclave {
        Enclave::create("delta-test", 1 << 22, [6u8; 32])
    }

    #[test]
    fn slot_folds_accumulate_per_key() {
        let slot = DeltaSlot::default();
        slot.fold(0, 0, &bucket(1, 2, 1));
        slot.fold(0, 0, &bucket(4, 8, 2));
        slot.fold(1, 0, &bucket(16, 32, 1));
        assert_eq!(slot.partitions(), vec![0, 1]);
        let b0 = slot.drain_partition(0);
        assert_eq!(b0.len(), 1);
        assert_eq!(b0[0].0, 0);
        assert_eq!(b0[0].1.rs, d(1 ^ 4));
        assert_eq!(b0[0].1.ws, d(2 ^ 8));
        assert_eq!(b0[0].1.ops, 3);
        assert!(!slot.is_empty());
        let b1 = slot.drain_partition(1);
        assert_eq!(b1[0].1.rs, d(16));
        assert!(slot.is_empty());
    }

    #[test]
    fn buckets_key_on_scan_epoch() {
        let slot = DeltaSlot::default();
        slot.fold(3, 0, &bucket(1, 1, 1));
        slot.fold(3, 1, &bucket(2, 2, 1));
        let drained = slot.drain_partition(3);
        assert_eq!(drained.len(), 2, "distinct scan epochs stay separate");
    }

    #[test]
    fn apply_bucket_routes_like_pair_for() {
        // se == epoch → cur; se == epoch + 1 → next; metadata folds only
        // when the bucket carries any.
        let mut part = PartitionState::new();
        let mut b = DeltaBucket::default();
        b.rs.fold(&d(1));
        b.ws.fold(&d(2));
        b.ops = 5;
        apply_bucket(&mut part, 0, &b);
        assert_eq!(part.cur.rs, d(1));
        assert_eq!(part.cur.ws, d(2));
        assert!(part.next.rs.is_zero());
        assert_eq!(part.ops_since_close, 5);

        let mut b2 = DeltaBucket::default();
        b2.ws.fold(&d(4));
        b2.meta_rs.fold(&d(8));
        b2.meta_ws.fold(&d(8));
        apply_bucket(&mut part, 1, &b2);
        assert_eq!(part.next.ws, d(4));
        assert_eq!(part.meta_next.rs, d(8));
        assert!(part.meta_cur.rs.is_zero());
    }

    #[test]
    fn deferred_merge_lands_where_direct_fold_would_after_close() {
        // An op captured se = 1 (its page already scanned). Folded
        // directly before the close it reaches `next`, which the close
        // promotes to `cur`. Merged *after* the close (epoch now 1,
        // se == epoch) it must land in `cur` — the same accumulator.
        let mut direct = PartitionState::new();
        direct.pair_for(1).rs.fold(&d(7));
        direct.pair_for(1).ws.fold(&d(9));
        direct.close_epoch();

        let mut deferred = PartitionState::new();
        deferred.close_epoch();
        let mut b = DeltaBucket::default();
        b.rs.fold(&d(7));
        b.ws.fold(&d(9));
        apply_bucket(&mut deferred, 1, &b);

        assert_eq!(direct.cur, deferred.cur);
        assert_eq!(direct.next, deferred.next);
    }

    #[test]
    fn ts_alloc_issues_disjoint_monotone_runs() {
        let enclave = test_enclave();
        let mut a = TsAlloc::default();
        let mut b = TsAlloc::default();
        let ra = a.take(3, &enclave, enclave.metrics()); // block refill for a
        let rb = b.take(3, &enclave, enclave.metrics()); // block refill for b
        let ra2 = a.take(2, &enclave, enclave.metrics()); // continues a's block
        assert_eq!(ra2, ra + 3);
        // Blocks are disjoint: every timestamp either side hands out is
        // unique across allocators.
        let hand_a: Vec<u64> = (ra..ra + 5).collect();
        let hand_b: Vec<u64> = (rb..rb + 3).collect();
        for t in &hand_a {
            assert!(!hand_b.contains(t), "overlap at {t}");
        }
    }

    #[test]
    fn ts_alloc_oversized_run_gets_dedicated_block() {
        let enclave = test_enclave();
        let mut a = TsAlloc::default();
        let base = a.take(TS_BLOCK + 10, &enclave, enclave.metrics());
        let nxt = a.take(1, &enclave, enclave.metrics());
        // The oversized run consumed its whole dedicated block; the next
        // take refills.
        assert!(nxt >= base + TS_BLOCK + 10);
    }

    // Satellite regression: random interleaved protected-op folds applied
    // serially to a partition vs. sharded across N worker slots (in a
    // seeded interleaving) and then merged must produce byte-identical
    // digest pairs — the commutativity the shared-nothing path rests on.
    #[test]
    fn sharded_delta_merge_matches_serial_fold() {
        check(256, |rng| {
            let ops = rng.vec(1..64, |r| {
                let (mut rs, mut ws) = ([0u8; 32], [0u8; 32]);
                let pi = r.gen_range(0usize..4);
                let se = r.gen_range(0u64..2);
                r.fill_bytes(&mut rs);
                r.fill_bytes(&mut ws);
                (pi, se, rs, ws, r.gen_bool(0.5))
            });
            let workers = rng.gen_range(1usize..5);
            let mut serial: Vec<PartitionState> = (0..4).map(|_| PartitionState::new()).collect();
            let slots: Vec<DeltaSlot> = (0..workers).map(|_| DeltaSlot::default()).collect();

            for (i, (pi, se, rs, ws, with_meta)) in ops.iter().enumerate() {
                let rs = SetDigest(*rs);
                let ws = SetDigest(*ws);
                // Serial reference: direct fold under the partition lock.
                let part = &mut serial[*pi];
                if *with_meta {
                    let mp = part.meta_pair_for(*se);
                    mp.rs.fold(&rs);
                    mp.ws.fold(&ws);
                }
                let pair = part.pair_for(*se);
                pair.rs.fold(&rs);
                pair.ws.fold(&ws);
                part.ops_since_close += 1;
                // Sharded: the same op lands in worker (i mod workers)'s
                // thread-local slot.
                let (meta_rs, meta_ws) = match with_meta {
                    true => (rs, ws),
                    false => (SetDigest::ZERO, SetDigest::ZERO),
                };
                let b = DeltaBucket {
                    rs,
                    ws,
                    meta_rs,
                    meta_ws,
                    ..DeltaBucket::new(1)
                };
                slots[i % workers].fold(*pi, *se, &b);
            }

            let mut merged: Vec<PartitionState> = (0..4).map(|_| PartitionState::new()).collect();
            // Merge in an order unrelated to execution order.
            for slot in slots.iter().rev() {
                for pi in slot.partitions() {
                    for (se, b) in slot.drain_partition(pi) {
                        apply_bucket(&mut merged[pi], se, &b);
                    }
                }
            }

            for (s, m) in serial.iter().zip(&merged) {
                assert_eq!(s.cur, m.cur);
                assert_eq!(s.next, m.next);
                assert_eq!(s.meta_cur, m.meta_cur);
                assert_eq!(s.meta_next, m.meta_next);
                assert_eq!(s.ops_since_close, m.ops_since_close);
            }
        });
    }
}
