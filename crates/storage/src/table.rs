//! Verified relational tables over write-read consistent memory.
//!
//! A [`Table`] owns:
//!
//! - a set of untrusted pages in the [`VerifiedMemory`] holding its
//!   [`StoredRecord`]s,
//! - one untrusted [`IndexOracle`] per chained column, mapping chain keys
//!   to `(page, slot)` addresses,
//! - the chain bookkeeping of Definitions 4.2/5.2: per-chain sentinels and
//!   the `nKey` splicing performed by every insert and delete (Figure 6's
//!   worked example is a unit test below).
//!
//! Writers (insert/delete/update) are serialized per table by a structural
//! lock, so chain splices are atomic with respect to each other; readers
//! never take it — their safety comes from the evidence checks, with a
//! small retry loop absorbing the benign races documented on
//! [`crate::cursor::VerifiedScan`].

use crate::chain::ChainKey;
use crate::cursor::VerifiedScan;
use crate::evidence::{check_point, PointResult};
use crate::index::{ChainIndex, IndexOracle};
use crate::record::StoredRecord;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use veridb_common::backoff::{Backoff, RETRY_ATTEMPTS};
use veridb_common::obs::Metric;
use veridb_common::sync::Mutex;
use veridb_common::{Error, Result, Row, Schema, Value};
use veridb_wrcm::{CellAddr, VerifiedMemory};

/// A verified relational table.
pub struct Table {
    name: String,
    schema: Schema,
    /// Schema column index of each chain (chain 0 is the primary key).
    chain_cols: Vec<usize>,
    mem: Arc<VerifiedMemory>,
    /// One untrusted index per chain.
    indexes: Vec<Box<dyn IndexOracle>>,
    /// Pages owned by this table (untrusted allocation hint).
    pages: Mutex<Vec<u64>>,
    /// Serializes structural writes (chain splices).
    write_lock: Mutex<()>,
    row_count: AtomicU64,
}

impl Table {
    /// Create a table with honest untrusted indexes.
    pub fn create(mem: Arc<VerifiedMemory>, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let chains = schema.chained_columns();
        let indexes = chains
            .iter()
            .map(|_| Box::new(ChainIndex::new()) as Box<dyn IndexOracle>)
            .collect();
        Self::create_with_indexes(mem, name, schema, indexes)
    }

    /// Create a table with caller-provided index oracles (attack tests
    /// inject [`crate::index::MaliciousIndex`] here).
    pub fn create_with_indexes(
        mem: Arc<VerifiedMemory>,
        name: &str,
        schema: Schema,
        indexes: Vec<Box<dyn IndexOracle>>,
    ) -> Result<Arc<Table>> {
        let chain_cols = schema.chained_columns();
        if indexes.len() != chain_cols.len() {
            return Err(Error::Config(format!(
                "{} indexes supplied for {} chains",
                indexes.len(),
                chain_cols.len()
            )));
        }
        let table = Table {
            name: name.to_owned(),
            schema,
            chain_cols,
            mem,
            indexes,
            pages: Mutex::new(Vec::new()),
            write_lock: Mutex::new(()),
            row_count: AtomicU64::new(0),
        };
        // Materialize the per-chain sentinels ⟨⊥, ⊤, −⟩ (Figure 6a).
        for chain in 0..table.chain_cols.len() {
            let sentinel = StoredRecord::sentinel(chain, table.chain_cols.len());
            let addr = table.alloc_record(&sentinel.encode_to_vec())?;
            table.indexes[chain].upsert(ChainKey::NegInf, addr);
        }
        Ok(Arc::new(table))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.row_count.load(Ordering::Relaxed)
    }

    /// Number of chains (≥ 1; chain 0 is the primary key).
    pub fn chain_count(&self) -> usize {
        self.chain_cols.len()
    }

    /// The chain over schema column `col`, if one exists.
    pub fn chain_for_column(&self, col: usize) -> Option<usize> {
        self.chain_cols.iter().position(|&c| c == col)
    }

    /// Schema column carrying chain `chain`.
    pub fn column_of_chain(&self, chain: usize) -> usize {
        self.chain_cols[chain]
    }

    /// The verified memory this table lives in.
    pub fn memory(&self) -> &Arc<VerifiedMemory> {
        &self.mem
    }

    /// The untrusted index of a chain (used by cursors).
    pub(crate) fn index(&self, chain: usize) -> &dyn IndexOracle {
        self.indexes[chain].as_ref()
    }

    /// Pages owned by the table (diagnostics / benches).
    pub fn page_ids(&self) -> Vec<u64> {
        self.pages.lock().clone()
    }

    // ---- record plumbing ---------------------------------------------------

    /// The chain key of `row` in chain `chain`.
    pub fn chain_key(&self, chain: usize, row: &Row) -> ChainKey {
        let col = self.chain_cols[chain];
        let v = row[col].clone();
        if chain == 0 {
            ChainKey::val(v)
        } else {
            let pk = row[self.chain_cols[0]].clone();
            ChainKey::pair(v, pk)
        }
    }

    /// Allocate space for an encoded record, growing the page set on
    /// demand. Tries the most recently used pages first.
    fn alloc_record(&self, bytes: &[u8]) -> Result<CellAddr> {
        let mut pages = self.pages.lock();
        for &pid in pages.iter().rev().take(4) {
            match self.mem.insert_in(pid, bytes) {
                Ok(addr) => return Ok(addr),
                Err(Error::PageFull { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        let pid = self.mem.allocate_page();
        pages.push(pid);
        self.mem.insert_in(pid, bytes)
    }

    /// Read and decode the record at `addr` through the verified memory.
    ///
    /// A decode failure is classified as tampering: the enclave only ever
    /// writes well-formed records, so malformed bytes on the verified read
    /// path mean the host modified memory (the deferred scan will confirm
    /// with `VerificationFailed`, but the alarm is raisable immediately).
    pub(crate) fn read_record(&self, addr: CellAddr) -> Result<StoredRecord> {
        let bytes = self.mem.read(addr)?;
        StoredRecord::decode(&bytes)
            .map_err(|e| Error::TamperDetected(format!("malformed record at {addr}: {e}")))
    }

    /// Rewrite a record in place; relocate (and re-index all its chain
    /// keys) if its page cannot hold the grown encoding.
    fn rewrite_record(&self, addr: CellAddr, rec: &StoredRecord) -> Result<CellAddr> {
        let bytes = rec.encode_to_vec();
        match self.mem.write(addr, &bytes) {
            Ok(()) => Ok(addr),
            Err(Error::PageFull { .. }) => {
                let new_addr = self.alloc_record(&bytes)?;
                self.mem.delete(addr)?;
                for (chain, (key, _)) in rec.chains.iter().enumerate() {
                    if !matches!(key, ChainKey::Absent) {
                        self.indexes[chain].upsert(key.clone(), new_addr);
                    }
                }
                Ok(new_addr)
            }
            Err(e) => Err(e),
        }
    }

    // ---- write path ----------------------------------------------------------

    /// Insert a row (Algorithm 3's `Insert`, generalized to k chains):
    /// locates each chain's predecessor, verifies no duplicate, writes the
    /// new record, then splices every predecessor's `nKey`.
    pub fn insert(&self, row: Row) -> Result<CellAddr> {
        let row = Row::new(self.schema.check_row(row.into_values())?);
        let _g = self.write_lock.lock();
        self.insert_locked(row)
    }

    fn insert_locked(&self, row: Row) -> Result<CellAddr> {
        let keys: Vec<ChainKey> = (0..self.chain_cols.len())
            .map(|c| self.chain_key(c, &row))
            .collect();

        // 1. Find and read every chain's predecessor, grouping chains that
        //    share a predecessor record so each record is rewritten once.
        let mut pred_addrs: Vec<CellAddr> = Vec::with_capacity(keys.len());
        let mut groups: HashMap<CellAddr, Vec<usize>> = HashMap::new();
        for (chain, key) in keys.iter().enumerate() {
            let addr = self.indexes[chain].find_floor(key).ok_or_else(|| {
                Error::TamperDetected(format!(
                    "index of chain {chain} returned no candidate for {key} \
                     (the ⊥ sentinel must always match)"
                ))
            })?;
            pred_addrs.push(addr);
            groups.entry(addr).or_default().push(chain);
        }

        let mut preds: HashMap<CellAddr, StoredRecord> = HashMap::new();
        let mut nkeys: Vec<Option<ChainKey>> = vec![None; keys.len()];
        for (&addr, chains) in &groups {
            let rec = self.read_record(addr)?;
            for &chain in chains {
                let key = &keys[chain];
                let pk = rec.key(chain);
                let pnk = rec.nkey(chain);
                if pk == key || pnk == key {
                    return Err(Error::DuplicateKey(format!(
                        "{} (chain {chain} of table {})",
                        key, self.name
                    )));
                }
                if !(pk < key && key < pnk) {
                    return Err(Error::TamperDetected(format!(
                        "index of chain {chain} returned predecessor \
                         (key={pk}, nKey={pnk}) which does not bracket {key}"
                    )));
                }
                nkeys[chain] = Some(pnk.clone());
            }
            preds.insert(addr, rec);
        }

        // 2. Write the new record with nKey = predecessor's old nKey.
        let chains: Vec<(ChainKey, ChainKey)> = keys
            .iter()
            .cloned()
            .zip(nkeys.into_iter().map(|n| n.expect("filled above")))
            .collect();
        let rec = StoredRecord::new(chains, row);
        let addr = self.alloc_record(&rec.encode_to_vec())?;

        // 3. Publish the index entries before splicing so concurrent scans
        //    can always resolve a spliced-in nKey.
        for (chain, key) in keys.iter().enumerate() {
            self.indexes[chain].upsert(key.clone(), addr);
        }

        // 4. Splice each predecessor's nKey to the new key.
        for (pred_addr, chains) in groups {
            let rec = preds.get_mut(&pred_addr).expect("read above");
            for chain in chains {
                rec.set_nkey(chain, keys[chain].clone());
            }
            self.rewrite_record(pred_addr, rec)?;
        }

        self.row_count.fetch_add(1, Ordering::Relaxed);
        Ok(addr)
    }

    /// Delete the row with primary key `pk`. Returns the deleted row, or
    /// `KeyNotFound` (with verified absence) when no such row exists.
    pub fn delete(&self, pk: &Value) -> Result<Row> {
        let _g = self.write_lock.lock();
        self.delete_locked(pk)
    }

    fn delete_locked(&self, pk: &Value) -> Result<Row> {
        let key0 = ChainKey::val(pk.clone());
        let addr = match self.indexes[0].find_exact(&key0) {
            Some(a) => a,
            None => {
                // Verify the absence before reporting KeyNotFound.
                self.get_point(0, &key0)?;
                return Err(Error::KeyNotFound(pk.to_string()));
            }
        };
        let rec = self.read_record(addr)?;
        if rec.key(0) != &key0 {
            return Err(Error::TamperDetected(format!(
                "primary index points {key0} at a record keyed {}",
                rec.key(0)
            )));
        }

        // Find each chain's strict predecessor and splice it past us.
        let mut groups: HashMap<CellAddr, Vec<usize>> = HashMap::new();
        for chain in 0..self.chain_cols.len() {
            let key = rec.key(chain);
            let pred = self.indexes[chain].find_below(key).ok_or_else(|| {
                Error::TamperDetected(format!(
                    "index of chain {chain} has no predecessor for {key}"
                ))
            })?;
            groups.entry(pred).or_default().push(chain);
        }
        for (pred_addr, chains) in groups {
            let mut pred = self.read_record(pred_addr)?;
            for chain in chains {
                if pred.nkey(chain) != rec.key(chain) {
                    return Err(Error::TamperDetected(format!(
                        "chain {chain} predecessor's nKey {} does not point \
                         at the deleted key {}",
                        pred.nkey(chain),
                        rec.key(chain)
                    )));
                }
                pred.set_nkey(chain, rec.nkey(chain).clone());
            }
            self.rewrite_record(pred_addr, &pred)?;
        }
        for (chain, (key, _)) in rec.chains.iter().enumerate() {
            self.indexes[chain].remove(key);
        }
        self.mem.delete(addr)?;
        self.row_count.fetch_sub(1, Ordering::Relaxed);
        Ok(rec.row)
    }

    /// Update the row with primary key `pk` to `new_row`. If no chained
    /// column changes, this is an in-place data write; otherwise it is a
    /// delete followed by an insert (§4.2's `Update` semantics).
    pub fn update(&self, pk: &Value, new_row: Row) -> Result<()> {
        let new_row = Row::new(self.schema.check_row(new_row.into_values())?);
        let _g = self.write_lock.lock();
        let key0 = ChainKey::val(pk.clone());
        let addr = self.indexes[0]
            .find_exact(&key0)
            .ok_or_else(|| Error::KeyNotFound(pk.to_string()))?;
        let mut rec = self.read_record(addr)?;
        if rec.key(0) != &key0 {
            return Err(Error::TamperDetected(format!(
                "primary index points {key0} at a record keyed {}",
                rec.key(0)
            )));
        }
        let keys_unchanged =
            (0..self.chain_cols.len()).all(|c| &self.chain_key(c, &new_row) == rec.key(c));
        if keys_unchanged {
            rec.row = new_row;
            self.rewrite_record(addr, &rec)?;
            Ok(())
        } else {
            self.delete_locked(pk)?;
            self.insert_locked(new_row)?;
            Ok(())
        }
    }

    /// Read-modify-write helper: applies `f` to the current row and stores
    /// the result (in place when no chain key changes).
    pub fn update_with(&self, pk: &Value, f: impl FnOnce(&mut Row)) -> Result<()> {
        let _g = self.write_lock.lock();
        let key0 = ChainKey::val(pk.clone());
        let addr = self.indexes[0]
            .find_exact(&key0)
            .ok_or_else(|| Error::KeyNotFound(pk.to_string()))?;
        let mut rec = self.read_record(addr)?;
        if rec.key(0) != &key0 {
            return Err(Error::TamperDetected(format!(
                "primary index points {key0} at a record keyed {}",
                rec.key(0)
            )));
        }
        let mut row = rec.row.clone();
        f(&mut row);
        let row = Row::new(self.schema.check_row(row.into_values())?);
        let keys_unchanged =
            (0..self.chain_cols.len()).all(|c| &self.chain_key(c, &row) == rec.key(c));
        if keys_unchanged {
            rec.row = row;
            self.rewrite_record(addr, &rec)?;
            Ok(())
        } else {
            self.delete_locked(pk)?;
            self.insert_locked(row)?;
            Ok(())
        }
    }

    // ---- verified read path ---------------------------------------------------

    /// The verified index probe behind point lookups and scan cursors:
    /// ask the untrusted index (`lookup`, whose error names a miss), read
    /// the candidate record through verified memory, and return what
    /// `check` makes of it. Benign races with concurrent splices can
    /// momentarily misroute the index, so a miss, a dead slot
    /// (`dead_slot`'s error) or a failed check is retried with bounded
    /// backoff — counting each retry in `retries`, if given — before the
    /// last error is returned as the alarm.
    pub(crate) fn probe<T>(
        &self,
        retries: Option<Metric>,
        lookup: impl Fn() -> Result<CellAddr>,
        dead_slot: impl Fn() -> Error,
        check: impl Fn(StoredRecord) -> Result<T>,
    ) -> Result<T> {
        let mut last_err = None;
        let mut backoff = Backoff::new();
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                if let Some(m) = retries {
                    self.mem.metrics().inc(m);
                }
                backoff.wait();
            }
            let err = match lookup() {
                Err(e) => e,
                Ok(addr) => match self.read_record(addr) {
                    Ok(rec) => match check(rec) {
                        Ok(found) => return Ok(found),
                        Err(e) => e,
                    },
                    Err(Error::SlotNotFound { .. }) => dead_slot(),
                    Err(e) => return Err(e),
                },
            };
            last_err = Some(err);
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// Verified point lookup on any chain key (§5.2 Index Search). Returns
    /// the row with its proving record, or a verified absence.
    pub(crate) fn get_point(&self, chain: usize, q: &ChainKey) -> Result<PointResult> {
        self.probe(
            None,
            || {
                self.indexes[chain].find_floor(q).ok_or_else(|| {
                    Error::TamperDetected(format!(
                        "index of chain {chain} returned no candidate for {q}"
                    ))
                })
            },
            || Error::TamperDetected(format!("index of chain {chain} pointed {q} at a dead slot")),
            |rec| check_point(chain, q, rec),
        )
    }

    /// Verified primary-key lookup. `Ok(Some(row))` and `Ok(None)` are both
    /// *verified* answers; errors are alarms.
    pub fn get_by_pk(&self, pk: &Value) -> Result<Option<Row>> {
        let q = ChainKey::val(pk.clone());
        Ok(self.get_point(0, &q)?.row().cloned())
    }

    /// Verified primary-key lookup returning the evidence too.
    pub fn get_by_pk_with_evidence(&self, pk: &Value) -> Result<PointResult> {
        self.get_point(0, &ChainKey::val(pk.clone()))
    }

    /// Verified range scan on the chain over schema column
    /// `self.column_of_chain(chain)` (§5.2 Range Scan). Bounds are on the
    /// column's values.
    pub fn range_scan(
        self: &Arc<Self>,
        chain: usize,
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> VerifiedScan {
        VerifiedScan::new(Arc::clone(self), chain, lo, hi)
    }

    /// Verified full scan in primary-key order (a range scan over
    /// `(⊥, ⊤)`, as the paper's Example 5.4 treats SeqScan).
    pub fn seq_scan(self: &Arc<Self>) -> VerifiedScan {
        VerifiedScan::new(Arc::clone(self), 0, Bound::Unbounded, Bound::Unbounded)
    }

    /// Verified equality lookup on a secondary chain (all rows whose
    /// column equals `v`), implemented as the composite range
    /// `[(v), (v, ⊤))`.
    pub fn scan_eq(self: &Arc<Self>, chain: usize, v: &Value) -> VerifiedScan {
        VerifiedScan::new(
            Arc::clone(self),
            chain,
            Bound::Included(v.clone()),
            Bound::Included(v.clone()),
        )
    }

    /// Split the value range `[lo, hi]` of a chain into up to `target`
    /// contiguous sub-ranges ("morsels") that tile it exactly, by sampling
    /// split points from the untrusted index.
    ///
    /// Each morsel is later scanned by its own [`VerifiedScan`], which
    /// independently verifies conditions 1–3 over its sub-range; since the
    /// sub-ranges tile `[lo, hi]`, whole-range completeness follows without
    /// trusting the split points. A lying or stale index can only skew the
    /// split (hurting load balance, never correctness), and the enumeration
    /// walk is bounded so an adversarial oracle cannot trap the splitter in
    /// an infinite key stream.
    ///
    /// Boundaries are distinct column *values* strictly inside the range,
    /// so on secondary chains all duplicates of one value land in the same
    /// morsel and every row lands in exactly one.
    pub fn morsel_ranges(
        &self,
        chain: usize,
        lo: &Bound<Value>,
        hi: &Bound<Value>,
        target: usize,
    ) -> Vec<(Bound<Value>, Bound<Value>)> {
        const MIN_MORSEL_ROWS: usize = 256;
        const ENUM_CHUNK: usize = 256;
        let whole = vec![(lo.clone(), hi.clone())];
        let rows = self.row_count() as usize;
        if target <= 1 || rows < 2 * MIN_MORSEL_ROWS {
            return whole;
        }
        let stride = (rows / target).max(MIN_MORSEL_ROWS);

        let gt_lo = |v: &Value| match lo {
            Bound::Unbounded => true,
            Bound::Included(l) | Bound::Excluded(l) => v > l,
        };
        let lt_hi = |v: &Value| match hi {
            Bound::Unbounded => true,
            Bound::Included(h) | Bound::Excluded(h) => v < h,
        };

        let mut from = match lo {
            Bound::Unbounded => ChainKey::NegInf,
            // The single-value composite (v) sorts below every (v, pk), so
            // this resumes from the first entry of `v` on any chain.
            Bound::Included(v) | Bound::Excluded(v) => ChainKey::val(v.clone()),
        };
        let mut boundaries: Vec<Value> = Vec::new();
        let mut since_boundary = 0usize;
        let mut walked = 0usize;
        // Bound the walk: an honest index yields at most `rows` live keys;
        // tolerate some churn, then stop trusting the enumeration.
        let budget = rows.saturating_mul(2) + 1024;
        'walk: loop {
            let batch = self.indexes[chain].next_entries(&from, ENUM_CHUNK);
            if batch.is_empty() {
                break;
            }
            let batch_len = batch.len();
            for (key, _) in batch {
                // `next_entries` is inclusive of `from`: skip the resume key.
                if key <= from {
                    continue;
                }
                walked += 1;
                from = key.clone();
                let Some(composite) = key.as_val() else {
                    continue;
                };
                let head = composite.head();
                if !lt_hi(head) {
                    break 'walk; // past the upper bound: done sampling
                }
                since_boundary += 1;
                if since_boundary >= stride
                    && gt_lo(head)
                    && boundaries.last().map(|b| head > b).unwrap_or(true)
                {
                    boundaries.push(head.clone());
                    since_boundary = 0;
                }
                if walked >= budget {
                    break 'walk;
                }
            }
            if batch_len < ENUM_CHUNK {
                break;
            }
        }
        if boundaries.is_empty() {
            return whole;
        }
        let mut ranges = Vec::with_capacity(boundaries.len() + 1);
        let mut cur_lo = lo.clone();
        for b in boundaries {
            ranges.push((cur_lo, Bound::Excluded(b.clone())));
            cur_lo = Bound::Included(b);
        }
        ranges.push((cur_lo, hi.clone()));
        ranges
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("rows", &self.row_count())
            .field("chains", &self.chain_cols)
            .finish()
    }
}
