//! The verified range-scan cursor (§5.2 Range Scan, Figure 5).
//!
//! [`VerifiedScan`] walks a chain from the untrusted index's floor record
//! for the lower bound and verifies, incrementally, the three completeness
//! conditions of the paper:
//!
//! 1. the first record's key is `≤` the lower bound (left coverage),
//! 2. the walk only stops once the pending `nKey` exceeds the upper bound
//!    or reaches `⊤` (right coverage),
//! 3. each record's key equals its predecessor's `nKey` (gap-freedom).
//!
//! Any violation yields `Err(TamperDetected)` from the iterator. Records
//! outside the value bounds (the floor record, and the right-end witness)
//! are consumed for evidence but not emitted — exactly the `k2`/`k6`
//! records of the paper's Example 2.1/5.1.
//!
//! **Benign races**: a concurrent insert/delete can momentarily leave the
//! untrusted index out of sync with the chain (the cursor resolves an
//! `nKey` the splicer has not yet published, or one just removed). These
//! are indistinguishable from tampering *at that instant*, so the cursor
//! retries resolution a few times before raising the alarm. If the `nKey`
//! still does not resolve, the cursor re-reads the record that announced
//! it: when that record's verified `nKey` has moved on, a concurrent
//! splice removed or bypassed the key and the walk follows the new link;
//! when it has not, the inconsistency is reported as tampering.

use crate::chain::ChainKey;
use crate::record::StoredRecord;
use crate::table::Table;
use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;
use veridb_common::backoff::{Backoff, RETRY_ATTEMPTS};
use veridb_common::obs::{Metric, Metrics};
use veridb_common::{Error, Result, Row, Value};
use veridb_wrcm::{ReadBatch, SlotId};

/// How many `(key, addr)` bindings the cursor prefetches from the
/// untrusted index per batched round.
const SCAN_BATCH: usize = 32;

/// An iterator of verified rows over one chain of one table.
pub struct VerifiedScan {
    table: Arc<Table>,
    chain: usize,
    lo: Bound<Value>,
    hi: Bound<Value>,
    /// Key the next record must carry (condition 3); `None` before start.
    expected: Option<ChainKey>,
    /// Key of the record whose `nKey` is `expected`.
    prev: Option<ChainKey>,
    started: bool,
    done: bool,
    /// Records consumed (including evidence-only ones), for diagnostics.
    records_read: u64,
    /// Rows verified by the batched fast path, awaiting emission.
    ready: VecDeque<Row>,
    /// Reusable scratch for batched page reads (one flat buffer for the
    /// whole scan instead of a `Vec<u8>` per cell).
    scratch: ReadBatch,
    /// Per-round buffers of the batched fast path, reused across rounds:
    /// the decoded candidate records, the candidate indices sorted by
    /// page, and the slots of one page's run.
    recs: Vec<Option<StoredRecord>>,
    order: Vec<usize>,
    slots: Vec<SlotId>,
    /// Rounds served by the batched fast path (diagnostics for the
    /// batching benchmarks).
    batched_rounds: u64,
}

impl VerifiedScan {
    pub(crate) fn new(table: Arc<Table>, chain: usize, lo: Bound<Value>, hi: Bound<Value>) -> Self {
        VerifiedScan {
            table,
            chain,
            lo,
            hi,
            expected: None,
            prev: None,
            started: false,
            done: false,
            records_read: 0,
            ready: VecDeque::new(),
            scratch: ReadBatch::new(),
            recs: Vec::new(),
            order: Vec::new(),
            slots: Vec::new(),
            batched_rounds: 0,
        }
    }

    /// Number of records read from storage so far (evidence included).
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Number of rounds served by the batched fast path (diagnostics).
    pub fn batched_rounds(&self) -> u64 {
        self.batched_rounds
    }

    fn met(&self) -> &Metrics {
        self.table.memory().metrics()
    }

    /// Collect all remaining rows, failing on the first alarm.
    pub fn collect_rows(self) -> Result<Vec<Row>> {
        self.collect()
    }

    /// The chain-key query point for the lower bound: the scan starts at
    /// the floor of this key.
    fn lo_key(&self) -> ChainKey {
        match &self.lo {
            Bound::Unbounded => ChainKey::NegInf,
            // On a secondary chain the prefix (v) sorts below every (v, pk).
            Bound::Included(v) | Bound::Excluded(v) => ChainKey::val(v.clone()),
        }
    }

    /// Does a record's column value fall inside the requested bounds?
    fn value_in_bounds(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(l) => v >= l,
            Bound::Excluded(l) => v > l,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => v <= h,
            Bound::Excluded(h) => v < h,
        };
        lo_ok && hi_ok
    }

    /// Is a pending chain key already past the upper bound? If so the walk
    /// may stop: the previous record's `nKey` (= this key) witnesses right
    /// coverage (condition 2).
    fn past_upper(&self, key: &ChainKey) -> bool {
        match key {
            ChainKey::PosInf => true,
            ChainKey::Val(k) => match &self.hi {
                Bound::Unbounded => false,
                Bound::Included(h) => k.head() > h,
                Bound::Excluded(h) => k.head() >= h,
            },
            _ => false,
        }
    }

    /// Resolve a chain key to its record via the untrusted index, with
    /// verification and benign-race retries.
    fn resolve(&mut self, key: &ChainKey) -> Result<StoredRecord> {
        self.met().inc(Metric::ScanFallbackRounds);
        let mut last_err = None;
        let mut backoff = Backoff::new();
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                self.met().inc(Metric::ScanBenignRetries);
                backoff.wait();
            }
            let Some(addr) = self.table.index(self.chain).find_exact(key) else {
                last_err = Some(Error::TamperDetected(format!(
                    "range scan: chain {} is broken — the index cannot \
                     resolve nKey {key}; a record may have been omitted",
                    self.chain
                )));
                continue;
            };
            let rec = match self.table.read_record(addr) {
                Ok(r) => r,
                Err(Error::SlotNotFound { .. }) => {
                    last_err = Some(Error::TamperDetected(format!(
                        "range scan: index pointed {key} at a dead slot"
                    )));
                    continue;
                }
                Err(e) => return Err(e),
            };
            if rec.key(self.chain) != key {
                last_err = Some(Error::TamperDetected(format!(
                    "range scan: expected record keyed {key}, index returned \
                     one keyed {} (condition 3 violated)",
                    rec.key(self.chain)
                )));
                continue;
            }
            self.records_read += 1;
            return Ok(rec);
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// After `expected` failed to resolve: re-read the record that
    /// announced it, through verified memory. If its `nKey` is no longer
    /// `expected`, a concurrent delete (or insert) spliced the chain after
    /// the scan read it, and the walk continues from the new `nKey`. The
    /// re-read bytes are authentic, so an index that hides a live record
    /// cannot make the scan skip it: the predecessor still names it and
    /// the caller raises the alarm. `None` also covers a predecessor that
    /// is itself gone.
    fn relinked(&mut self, expected: &ChainKey) -> Result<Option<ChainKey>> {
        let prev = self.prev.clone().expect("set with expected");
        let Some(addr) = self.table.index(self.chain).find_exact(&prev) else {
            return Ok(None);
        };
        let rec = match self.table.read_record(addr) {
            Ok(r) => r,
            Err(Error::SlotNotFound { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let nkey = rec.nkey(self.chain);
        if rec.key(self.chain) != &prev || nkey == expected {
            return Ok(None);
        }
        self.met().inc(Metric::ScanBenignRetries);
        Ok(Some(nkey.clone()))
    }

    /// Locate the starting record: the floor of the lower bound
    /// (condition 1).
    fn start(&mut self) -> Result<StoredRecord> {
        let q = self.lo_key();
        let mut last_err = None;
        let mut backoff = Backoff::new();
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                self.met().inc(Metric::ScanBenignRetries);
                backoff.wait();
            }
            let Some(addr) = self.table.index(self.chain).find_floor(&q) else {
                last_err = Some(Error::TamperDetected(format!(
                    "range scan: index returned no floor for {q} (the ⊥ \
                     sentinel must always match)"
                )));
                continue;
            };
            let rec = match self.table.read_record(addr) {
                Ok(r) => r,
                Err(Error::SlotNotFound { .. }) => {
                    last_err = Some(Error::TamperDetected(
                        "range scan: floor candidate slot is dead".into(),
                    ));
                    continue;
                }
                Err(e) => return Err(e),
            };
            let key = rec.key(self.chain);
            if matches!(key, ChainKey::Absent) || key > &q {
                last_err = Some(Error::TamperDetected(format!(
                    "range scan: left end not covered — floor record keyed \
                     {key} exceeds the lower bound {q} (condition 1 violated)"
                )));
                continue;
            }
            self.records_read += 1;
            return Ok(rec);
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// Does a record keyed `key` carry a column value inside the bounds?
    /// (Sentinels and non-participants carry none.)
    fn emits(&self, key: &ChainKey) -> bool {
        key.as_val().is_some_and(|k| self.value_in_bounds(k.head()))
    }

    /// Batched fast path: ask the untrusted index for the next run of
    /// `(key, addr)` bindings, read the candidate cells page by page with
    /// one verified batch each ([`veridb_wrcm::VerifiedMemory::read_page_batch`]),
    /// then re-verify the chain conditions record by record. Soundness is
    /// unchanged: every emitted row still satisfies conditions 1–3 from
    /// the same `⟨key, nKey⟩` evidence, and the extra verified reads a
    /// stale hint causes are digest-neutral. Any divergence — a lying
    /// index, a concurrent splice, a dead slot — truncates the verified
    /// prefix without raising an alarm; the per-record path resumes from
    /// the last verified position and performs its own retry/alarm logic.
    fn try_fill_ready(&mut self, expected0: &ChainKey) -> Result<()> {
        let cands = self
            .table
            .index(self.chain)
            .next_entries(expected0, SCAN_BATCH);
        // The run is only usable if it starts exactly at the key the chain
        // evidence demands next.
        if cands.len() < 2 || &cands[0].0 != expected0 {
            return Ok(());
        }
        // Keys past the upper bound need not be read: the predecessor's
        // nKey witnesses right coverage (condition 2).
        let n = cands
            .iter()
            .position(|(k, _)| self.past_upper(k))
            .unwrap_or(cands.len());
        let cands = &cands[..n];
        if cands.len() < 2 {
            return Ok(());
        }

        // One verified batch read per distinct page, request order
        // preserved within each page: sort candidate indices by page, then
        // read each run of equal pages. The buffers are the scan's own and
        // keep their allocations across rounds.
        self.recs.clear();
        self.recs.resize_with(cands.len(), || None);
        self.order.clear();
        self.order.extend(0..cands.len());
        self.order.sort_unstable_by_key(|&i| (cands[i].1.page, i));
        let mem = self.table.memory();
        for run in self
            .order
            .chunk_by(|&a, &b| cands[a].1.page == cands[b].1.page)
        {
            self.slots.clear();
            self.slots.extend(run.iter().map(|&i| cands[i].1.slot));
            if mem
                .read_page_batch(cands[run[0]].1.page, &self.slots, &mut self.scratch)
                .is_err()
            {
                continue; // stale page hint: those candidates stay None
            }
            // Entries come back in request order with dead slots skipped;
            // align them against the request by slot id.
            let mut p = 0;
            for (&i, &slot) in run.iter().zip(&self.slots) {
                match self.scratch.get(p) {
                    Some((got, bytes)) if got == slot => {
                        p += 1;
                        // A decode failure here is indistinguishable from a
                        // concurrent splice reusing the slot mid-batch, so
                        // it must NOT alarm: leave the candidate None — the
                        // chain walk below truncates the verified prefix at
                        // it and the per-record path retries (and raises
                        // the alarm itself if the damage persists).
                        if let Ok(rec) = StoredRecord::decode(bytes) {
                            self.recs[i] = Some(rec);
                        }
                    }
                    _ => {} // dead slot: leave None for the fallback
                }
            }
        }

        // Walk the verified prefix: each record must carry the key the
        // previous record's nKey announced (condition 3).
        let mut expected = expected0.clone();
        let mut verified = 0u64;
        for (i, (key, _)) in cands.iter().enumerate() {
            if *key != expected {
                break; // index enumeration diverges from the chain
            }
            let Some(mut rec) = self.recs[i].take() else {
                break;
            };
            if rec.key(self.chain) != &expected {
                break; // stale binding: record moved or was replaced
            }
            self.records_read += 1;
            verified += 1;
            let emits = self.emits(&expected);
            expected = rec.chains.swap_remove(self.chain).1;
            if emits {
                self.ready.push_back(rec.row);
            }
            if self.past_upper(&expected) {
                break;
            }
        }
        if verified > 0 {
            self.expected = Some(expected);
            // The last verified record's key is its candidate's key.
            self.prev = Some(cands[verified as usize - 1].0.clone());
            self.batched_rounds += 1;
            self.met().inc(Metric::ScanBatchedRounds);
        }
        Ok(())
    }
}

impl Iterator for VerifiedScan {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Obtain the next record: either the starting floor or the chain
        // successor — by the batched fast path when the index can feed it,
        // record by record otherwise.
        loop {
            if let Some(row) = self.ready.pop_front() {
                return Some(Ok(row));
            }
            let mut rec = if !self.started {
                self.started = true;
                match self.start() {
                    Ok(r) => r,
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            } else {
                let expected = self.expected.clone().expect("set after start");
                if self.past_upper(&expected) {
                    self.done = true;
                    return None;
                }
                if let Err(e) = self.try_fill_ready(&expected) {
                    self.done = true;
                    return Some(Err(e));
                }
                if !self.ready.is_empty() || self.expected.as_ref() != Some(&expected) {
                    // The batch produced rows and/or advanced the cursor
                    // (possibly over evidence-only records); re-enter.
                    continue;
                }
                match self.resolve(&expected) {
                    Ok(r) => r,
                    Err(e) => {
                        let relinked = match e {
                            Error::TamperDetected(_) => self.relinked(&expected),
                            _ => Ok(None),
                        };
                        match relinked {
                            Ok(Some(next)) => {
                                self.expected = Some(next);
                                continue;
                            }
                            alarm => {
                                self.done = true;
                                return Some(Err(alarm.err().unwrap_or(e)));
                            }
                        }
                    }
                }
            };
            let (key, nkey) = rec.chains.swap_remove(self.chain);
            let emits = self.emits(&key);
            self.expected = Some(nkey);
            self.prev = Some(key);
            if emits {
                return Some(Ok(rec.row));
            }
            // Evidence-only record (floor below the range, or a value
            // outside an excluded bound): keep walking.
            if self.past_upper(self.expected.as_ref().expect("just set")) {
                self.done = true;
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::{ColumnDef, ColumnType, Schema, VeriDbConfig};
    use veridb_enclave::Enclave;
    use veridb_wrcm::VerifiedMemory;

    const ROWS: i64 = 100;

    fn table() -> Arc<Table> {
        let enclave = Enclave::create("cursor-test", 1 << 22, [6u8; 32]);
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let mem = VerifiedMemory::new(enclave, &cfg);
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Str),
        ])
        .unwrap();
        let t = Table::create(mem, "t", schema).unwrap();
        for i in 0..ROWS {
            t.insert(Row::new(vec![Value::Int(i), Value::Str(format!("v{i}"))]))
                .unwrap();
        }
        t
    }

    /// A scan that has emitted its first prefetched run and stopped where
    /// the next key is announced but not yet read. Returns the scan, the
    /// rows emitted so far and that key's id.
    fn scan_paused_before_unread_key(t: &Arc<Table>) -> (VerifiedScan, usize, Value) {
        let mut scan = t.seq_scan();
        let mut emitted = 0;
        loop {
            scan.next().unwrap().unwrap();
            emitted += 1;
            if scan.ready.is_empty() {
                break;
            }
        }
        let next = scan
            .expected
            .as_ref()
            .unwrap()
            .as_val()
            .unwrap()
            .head()
            .clone();
        (scan, emitted, next)
    }

    #[test]
    fn a_delete_between_reading_a_record_and_its_successor_does_not_alarm() {
        let t = table();
        let (scan, emitted, next) = scan_paused_before_unread_key(&t);
        t.delete(&next).unwrap();
        let rest = scan
            .collect_rows()
            .expect("an honest delete is not tampering");
        assert_eq!(emitted + rest.len(), ROWS as usize - 1);
        assert!(rest.iter().all(|r| r[0] != next), "the deleted row is gone");
        t.memory().verify_now().unwrap();
    }

    #[test]
    fn an_index_that_hides_a_live_record_still_alarms() {
        let t = table();
        let (scan, _, next) = scan_paused_before_unread_key(&t);
        t.index(0).remove(&ChainKey::val(next));
        let err = scan.collect_rows().unwrap_err();
        assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");
    }
}
