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
//! **One walk.** After the floor record, every round advances the walk
//! over a run of candidate `(key, addr)` bindings. The run is the
//! index's prefetch (`next_entries`) when that starts at the key the chain
//! names next; on a miss it is the single binding `find_exact` returns.
//! Either way the candidates are read page by page with one verified batch
//! each, every cell becomes a record at the table's one accept point, and
//! a record joins the walk only if it carries the key its predecessor's
//! `nKey` named. The first candidate that does not ends the round.
//!
//! **Benign races**: a concurrent insert/delete can momentarily leave the
//! untrusted index out of sync with the chain (the cursor resolves an
//! `nKey` the splicer has not yet published, or one just removed). These
//! are indistinguishable from tampering *at that instant*, so a
//! `find_exact` round is retried a few times before the alarm. If the
//! `nKey` still does not resolve, the cursor re-reads the record that
//! announced it: when that record's verified `nKey` has moved on, a
//! concurrent splice removed or bypassed the key and the walk follows the
//! new link; when it has not, the inconsistency is reported as tampering.

use crate::chain::ChainKey;
use crate::record::StoredRecord;
use crate::table::Table;
use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;
use veridb_common::backoff::{Backoff, RETRY_ATTEMPTS};
use veridb_common::obs::{Metric, Metrics};
use veridb_common::{Error, Result, Row, Value};
use veridb_wrcm::{CellAddr, ReadBatch, SlotId};

/// How many `(key, addr)` bindings the cursor prefetches from the
/// untrusted index per round.
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
    done: bool,
    /// Records consumed (including evidence-only ones), for diagnostics.
    records_read: u64,
    /// Verified rows awaiting emission.
    ready: VecDeque<Row>,
    /// Reusable scratch for page reads (one flat buffer for the whole
    /// scan instead of a `Vec<u8>` per cell).
    scratch: ReadBatch,
    /// Per-round buffers, reused across rounds: the accepted candidate
    /// records, the candidate indices sorted by page, and the slots of one
    /// page's run.
    recs: Vec<Option<StoredRecord>>,
    order: Vec<usize>,
    slots: Vec<SlotId>,
    /// Rounds whose candidates came from `next_entries` (diagnostics for
    /// the batching benchmarks).
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

    /// Number of rounds whose candidates came from the index's
    /// `next_entries` prefetch (diagnostics).
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
    fn start(&self) -> Result<StoredRecord> {
        let q = self.lo_key();
        let chain = self.chain;
        self.table.probe(
            Some(Metric::ScanBenignRetries),
            || {
                self.table.index(chain).find_floor(&q).ok_or_else(|| {
                    Error::TamperDetected(format!(
                        "range scan: index returned no floor for {q} (the ⊥ \
                         sentinel must always match)"
                    ))
                })
            },
            || Error::TamperDetected("range scan: floor candidate slot is dead".into()),
            |rec| {
                let key = rec.key(chain);
                if matches!(key, ChainKey::Absent) || key > &q {
                    return Err(Error::TamperDetected(format!(
                        "range scan: left end not covered — floor record keyed \
                         {key} exceeds the lower bound {q} (condition 1 violated)"
                    )));
                }
                Ok(rec)
            },
        )
    }

    /// Does a record keyed `key` carry a column value inside the bounds?
    /// (Sentinels and non-participants carry none.)
    fn emits(&self, key: &ChainKey) -> bool {
        key.as_val().is_some_and(|k| self.value_in_bounds(k.head()))
    }

    /// Take a verified record into the walk: queue its row if it lies
    /// inside the bounds, and expect its `nKey` next.
    fn advance(&mut self, mut rec: StoredRecord) {
        self.records_read += 1;
        let (key, nkey) = rec.chains.swap_remove(self.chain);
        if self.emits(&key) {
            self.ready.push_back(rec.row);
        }
        self.prev = Some(key);
        self.expect(nkey);
    }

    /// Make `key` the next key the chain demands; the walk is done once
    /// it lies past the upper bound.
    fn expect(&mut self, key: ChainKey) {
        self.done = self.past_upper(&key);
        self.expected = Some(key);
    }

    /// One round of the walk. The floor record starts it; afterwards the
    /// candidates are the index's prefetch when that starts at the
    /// expected key and holds at least two bindings inside the bounds
    /// (keys past the upper bound need not be read: the predecessor's
    /// `nKey` witnesses right coverage). A prefetch that cannot be used or
    /// advances nothing — stale, lying, or naming a page the table does
    /// not own — costs no alarm: the round falls back to the single
    /// binding `find_exact` returns, retried with backoff, and only that
    /// binding's failures are alarms.
    fn step(&mut self) -> Result<()> {
        let Some(expected) = self.expected.clone() else {
            let rec = self.start()?;
            self.advance(rec);
            return Ok(());
        };
        let mut cands = self
            .table
            .index(self.chain)
            .next_entries(&expected, SCAN_BATCH);
        let in_bounds = cands
            .iter()
            .position(|(k, _)| self.past_upper(k))
            .unwrap_or(cands.len());
        cands.truncate(in_bounds);
        if cands.len() >= 2 && cands[0].0 == expected && self.walk(&cands).unwrap_or(0) > 0 {
            self.batched_rounds += 1;
            self.met().inc(Metric::ScanBatchedRounds);
            return Ok(());
        }

        self.met().inc(Metric::ScanFallbackRounds);
        let mut backoff = Backoff::new();
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                self.met().inc(Metric::ScanBenignRetries);
                backoff.wait();
            }
            let Some(addr) = self.table.index(self.chain).find_exact(&expected) else {
                continue;
            };
            if self.walk(&[(expected.clone(), addr)])? > 0 {
                return Ok(());
            }
        }
        match self.relinked(&expected)? {
            Some(next) => {
                self.expect(next);
                Ok(())
            }
            None => Err(Error::TamperDetected(format!(
                "range scan: chain {} is broken — the index resolves nKey {expected} \
                 to no live record carrying it (condition 3 violated); a record may \
                 have been omitted",
                self.chain
            ))),
        }
    }

    /// Advance the walk over a run of candidate bindings, returning how
    /// many records joined it. The candidates are read with one verified
    /// batch per distinct page, request order preserved within each page,
    /// and each cell read passes the table's accept point; a failed read
    /// or a malformed record fails the round before any record joins. Then
    /// the walk follows the chain through the run: a candidate joins only
    /// if its binding and its record both carry the key the walk expects
    /// (condition 3), so a dead slot, a moved record or a divergent binding
    /// ends the run.
    fn walk(&mut self, cands: &[(ChainKey, CellAddr)]) -> Result<usize> {
        self.recs.clear();
        self.recs.resize_with(cands.len(), || None);
        self.order.clear();
        self.order.extend(0..cands.len());
        self.order.sort_unstable_by_key(|&i| (cands[i].1.page, i));
        for run in self
            .order
            .chunk_by(|&a, &b| cands[a].1.page == cands[b].1.page)
        {
            let page = cands[run[0]].1.page;
            self.slots.clear();
            self.slots.extend(run.iter().map(|&i| cands[i].1.slot));
            self.table
                .read_cells(page, &self.slots, &mut self.scratch)?;
            // Entries come back in request order with dead slots skipped;
            // align them against the request by slot id.
            let mut p = 0;
            for (&i, &slot) in run.iter().zip(&self.slots) {
                if let Some((got, bytes)) = self.scratch.get(p) {
                    if got == slot {
                        p += 1;
                        self.recs[i] = Some(self.table.accept(CellAddr { page, slot }, bytes)?);
                    }
                }
            }
        }

        let mut joined = 0;
        for (i, (key, _)) in cands.iter().enumerate() {
            if self.expected.as_ref() != Some(key) {
                break;
            }
            let Some(rec) = self.recs[i].take() else {
                break;
            };
            if rec.key(self.chain) != key {
                break;
            }
            self.advance(rec);
            joined += 1;
            if self.done {
                break;
            }
        }
        Ok(joined)
    }
}

impl Iterator for VerifiedScan {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.ready.pop_front() {
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.step() {
                self.done = true;
                return Some(Err(e));
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
