//! Untrusted per-chain indexes.
//!
//! The paper stores indexes in untrusted memory and stresses that they
//! "do not need to be verifiable" (§5.2): the index is only an *oracle*
//! proposing where a record might live; every answer is checked against
//! the `⟨key, nKey⟩` evidence read from verified memory. A lying index can
//! cause a detected tamper alarm or a spurious miss, never a wrong
//! accepted result.
//!
//! [`ChainIndex`] is the honest implementation (a `BTreeMap` under a
//! read-write lock). [`MaliciousIndex`] wraps any oracle and misbehaves on
//! demand, for the attack tests that prove the access-method checks catch
//! it.

use crate::chain::ChainKey;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use veridb_common::sync::RwLock;
use veridb_wrcm::CellAddr;

/// The oracle interface the access methods consult.
pub trait IndexOracle: Send + Sync {
    /// Address of the record with the largest chain key `<= key`
    /// (the paper's "largest key not exceeding a"). The chain sentinel
    /// guarantees such a record exists for any key `>= ⊥`.
    fn find_floor(&self, key: &ChainKey) -> Option<CellAddr>;

    /// Address of the record with the largest chain key strictly `< key`
    /// (the predecessor used by delete's splice).
    fn find_below(&self, key: &ChainKey) -> Option<CellAddr>;

    /// Address of the record with exactly this chain key.
    fn find_exact(&self, key: &ChainKey) -> Option<CellAddr>;

    /// Record (or update) a key → address binding.
    fn upsert(&self, key: ChainKey, addr: CellAddr);

    /// Remove a binding.
    fn remove(&self, key: &ChainKey);

    /// Number of bindings.
    fn len(&self) -> usize;

    /// True when no bindings exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prefetch hint for batched scans: up to `limit` `(key, address)`
    /// bindings in ascending key order, starting at the smallest key
    /// `>= from`. Purely advisory — the scan re-verifies every answer
    /// against the `⟨key, nKey⟩` chain evidence, so a lying or stale reply
    /// can only cost a `find_exact` round, never a wrong accepted result.
    /// The default returns nothing, so every round of a scan over an
    /// oracle that cannot enumerate in order reads one record.
    fn next_entries(&self, from: &ChainKey, limit: usize) -> Vec<(ChainKey, CellAddr)> {
        let _ = (from, limit);
        Vec::new()
    }

    /// Planning hint: the chain's first and last live keys, the `⊥`
    /// sentinel excluded (`None` for an empty chain). Purely advisory —
    /// the planner turns it into a row estimate that picks among verified
    /// plans, so a lying or stale reply can only pick a slower plan, never
    /// change an answer. The default returns nothing, which keeps the
    /// planner's estimate-free rule.
    fn key_bounds(&self) -> Option<(ChainKey, ChainKey)> {
        None
    }
}

/// A shared oracle answers as the one it shares, so a test can hand a
/// table an `Arc<MaliciousIndex>` and keep a handle that arms it.
impl<T: IndexOracle + ?Sized> IndexOracle for Arc<T> {
    fn find_floor(&self, key: &ChainKey) -> Option<CellAddr> {
        (**self).find_floor(key)
    }

    fn find_below(&self, key: &ChainKey) -> Option<CellAddr> {
        (**self).find_below(key)
    }

    fn find_exact(&self, key: &ChainKey) -> Option<CellAddr> {
        (**self).find_exact(key)
    }

    fn upsert(&self, key: ChainKey, addr: CellAddr) {
        (**self).upsert(key, addr)
    }

    fn remove(&self, key: &ChainKey) {
        (**self).remove(key)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn next_entries(&self, from: &ChainKey, limit: usize) -> Vec<(ChainKey, CellAddr)> {
        (**self).next_entries(from, limit)
    }

    fn key_bounds(&self) -> Option<(ChainKey, ChainKey)> {
        (**self).key_bounds()
    }
}

/// Honest untrusted index: an ordered map from chain key to cell address.
#[derive(Debug, Default)]
pub struct ChainIndex {
    map: RwLock<BTreeMap<ChainKey, CellAddr>>,
}

impl ChainIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IndexOracle for ChainIndex {
    fn find_floor(&self, key: &ChainKey) -> Option<CellAddr> {
        self.map
            .read()
            .range((Bound::Unbounded, Bound::Included(key.clone())))
            .next_back()
            .map(|(_, &a)| a)
    }

    fn find_below(&self, key: &ChainKey) -> Option<CellAddr> {
        self.map
            .read()
            .range((Bound::Unbounded, Bound::Excluded(key.clone())))
            .next_back()
            .map(|(_, &a)| a)
    }

    fn find_exact(&self, key: &ChainKey) -> Option<CellAddr> {
        self.map.read().get(key).copied()
    }

    fn upsert(&self, key: ChainKey, addr: CellAddr) {
        self.map.write().insert(key, addr);
    }

    fn remove(&self, key: &ChainKey) {
        self.map.write().remove(key);
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn next_entries(&self, from: &ChainKey, limit: usize) -> Vec<(ChainKey, CellAddr)> {
        // Sized up front: a range iterator gives no length hint, so
        // `collect` would grow the list several times per round.
        let map = self.map.read();
        let mut out = Vec::with_capacity(limit.min(map.len()));
        out.extend(
            map.range((Bound::Included(from.clone()), Bound::Unbounded))
                .take(limit)
                .map(|(k, &a)| (k.clone(), a)),
        );
        out
    }

    fn key_bounds(&self) -> Option<(ChainKey, ChainKey)> {
        let map = self.map.read();
        let mut live = map.range((Bound::Excluded(ChainKey::NegInf), Bound::Unbounded));
        let first = live.next()?.0;
        let last = live.next_back().map_or(first, |(k, _)| k);
        Some((first.clone(), last.clone()))
    }
}

/// Which lie a [`MaliciousIndex`] tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLie {
    /// Answer lookups with the address of a *different* (valid) record.
    WrongRecord(CellAddr),
    /// Pretend keys do not exist (return `None` for everything).
    DenyAll,
    /// For floor queries, return a record strictly *below* the true floor,
    /// trying to make a point search skip the real match.
    Undershoot,
}

/// An adversarial index wrapper for attack tests.
pub struct MaliciousIndex {
    inner: ChainIndex,
    lie: RwLock<Option<IndexLie>>,
    active: AtomicBool,
    /// Key bounds reported in place of the true ones, once armed.
    bounds_lie: RwLock<Option<(ChainKey, ChainKey)>>,
}

impl MaliciousIndex {
    /// Wrap a fresh honest index; behaves honestly until armed.
    pub fn new() -> Self {
        MaliciousIndex {
            inner: ChainIndex::new(),
            lie: RwLock::new(None),
            active: AtomicBool::new(false),
            bounds_lie: RwLock::new(None),
        }
    }

    /// Arm the given lie.
    pub fn arm(&self, lie: IndexLie) {
        *self.lie.write() = Some(lie);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Report `(first, last)` as the chain's key bounds, whatever the
    /// chain holds, until disarmed. This lie reaches only the planner's
    /// row estimates.
    pub fn lie_about_bounds(&self, first: ChainKey, last: ChainKey) {
        *self.bounds_lie.write() = Some((first, last));
    }

    /// Disarm every lie; behave honestly again.
    pub fn disarm(&self) {
        self.active.store(false, Ordering::Relaxed);
        *self.bounds_lie.write() = None;
    }
}

impl Default for MaliciousIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexOracle for MaliciousIndex {
    fn find_floor(&self, key: &ChainKey) -> Option<CellAddr> {
        if self.active.load(Ordering::Relaxed) {
            match *self.lie.read() {
                Some(IndexLie::WrongRecord(addr)) => return Some(addr),
                Some(IndexLie::DenyAll) => return None,
                Some(IndexLie::Undershoot) => {
                    // Return the floor of the floor's predecessor if any.
                    let m = self.inner.map.read();
                    let mut it = m.range((Bound::Unbounded, Bound::Included(key.clone())));
                    let _true_floor = it.next_back();
                    if let Some((_, &a)) = it.next_back() {
                        return Some(a);
                    }
                    return _true_floor.map(|(_, &a)| a);
                }
                None => {}
            }
        }
        self.inner.find_floor(key)
    }

    fn find_below(&self, key: &ChainKey) -> Option<CellAddr> {
        if self.active.load(Ordering::Relaxed) {
            match *self.lie.read() {
                Some(IndexLie::WrongRecord(addr)) => return Some(addr),
                Some(IndexLie::DenyAll) => return None,
                _ => {}
            }
        }
        self.inner.find_below(key)
    }

    fn find_exact(&self, key: &ChainKey) -> Option<CellAddr> {
        if self.active.load(Ordering::Relaxed) {
            match *self.lie.read() {
                Some(IndexLie::WrongRecord(addr)) => return Some(addr),
                Some(IndexLie::DenyAll) => return None,
                _ => {}
            }
        }
        self.inner.find_exact(key)
    }

    fn upsert(&self, key: ChainKey, addr: CellAddr) {
        self.inner.upsert(key, addr);
    }

    fn remove(&self, key: &ChainKey) {
        self.inner.remove(key);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn next_entries(&self, from: &ChainKey, limit: usize) -> Vec<(ChainKey, CellAddr)> {
        let mut entries = self.inner.next_entries(from, limit);
        if self.active.load(Ordering::Relaxed) {
            // The prefetch lies too, so attacks reach the batched walk:
            // the first binding keeps its key but names the armed address.
            match *self.lie.read() {
                Some(IndexLie::WrongRecord(addr)) => {
                    if let Some(first) = entries.first_mut() {
                        first.1 = addr;
                    }
                }
                Some(IndexLie::DenyAll) => entries.clear(),
                Some(IndexLie::Undershoot) | None => {}
            }
        }
        entries
    }

    fn key_bounds(&self) -> Option<(ChainKey, ChainKey)> {
        match &*self.bounds_lie.read() {
            Some(lie) => Some(lie.clone()),
            None => self.inner.key_bounds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::Value;

    fn addr(page: u64, slot: u16) -> CellAddr {
        CellAddr { page, slot }
    }

    fn k(v: i64) -> ChainKey {
        ChainKey::val(Value::Int(v))
    }

    #[test]
    fn floor_and_exact_lookups() {
        let idx = ChainIndex::new();
        idx.upsert(ChainKey::NegInf, addr(1, 0));
        idx.upsert(k(10), addr(1, 1));
        idx.upsert(k(20), addr(1, 2));

        assert_eq!(idx.find_floor(&k(5)), Some(addr(1, 0)));
        assert_eq!(idx.find_floor(&k(10)), Some(addr(1, 1)));
        assert_eq!(idx.find_floor(&k(15)), Some(addr(1, 1)));
        assert_eq!(idx.find_floor(&k(99)), Some(addr(1, 2)));
        assert_eq!(idx.find_exact(&k(20)), Some(addr(1, 2)));
        assert_eq!(idx.find_exact(&k(15)), None);
        assert_eq!(idx.find_floor(&ChainKey::PosInf), Some(addr(1, 2)));
    }

    #[test]
    fn remove_and_len() {
        let idx = ChainIndex::new();
        idx.upsert(k(1), addr(1, 1));
        idx.upsert(k(2), addr(1, 2));
        assert_eq!(idx.len(), 2);
        idx.remove(&k(1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.find_exact(&k(1)), None);
    }

    #[test]
    fn malicious_index_lies_then_recovers() {
        let idx = MaliciousIndex::new();
        idx.upsert(ChainKey::NegInf, addr(1, 0));
        idx.upsert(k(10), addr(1, 1));
        idx.upsert(k(20), addr(1, 2));

        idx.arm(IndexLie::WrongRecord(addr(9, 9)));
        assert_eq!(idx.find_exact(&k(10)), Some(addr(9, 9)));

        idx.arm(IndexLie::DenyAll);
        assert_eq!(idx.find_floor(&k(10)), None);

        idx.arm(IndexLie::Undershoot);
        assert_eq!(idx.find_floor(&k(20)), Some(addr(1, 1)));

        idx.lie_about_bounds(k(-5), k(500));
        assert_eq!(idx.key_bounds(), Some((k(-5), k(500))));

        idx.disarm();
        assert_eq!(idx.find_exact(&k(10)), Some(addr(1, 1)));
        assert_eq!(idx.key_bounds(), Some((k(10), k(20))));
    }

    #[test]
    fn key_bounds_skip_the_sentinel() {
        let idx = ChainIndex::new();
        assert_eq!(idx.key_bounds(), None);
        idx.upsert(ChainKey::NegInf, addr(1, 0));
        assert_eq!(idx.key_bounds(), None, "a chain of only ⊥ has no live key");
        idx.upsert(k(7), addr(1, 1));
        assert_eq!(idx.key_bounds(), Some((k(7), k(7))));
        idx.upsert(k(3), addr(1, 2));
        idx.upsert(k(42), addr(1, 3));
        assert_eq!(idx.key_bounds(), Some((k(3), k(42))));
    }
}
