//! Bounded replay filter for portal query ids.
//!
//! The portal must reject every replayed qid (§5.1's query authorization),
//! but an exact seen-set grows without bound — millions of queries would
//! exhaust the EPC budget the enclave-resident portal state is charged
//! against. [`ReplayWindow`] keeps memory constant with a classic
//! low-watermark + sliding-window scheme:
//!
//! - qids **at or below the watermark** are summarily treated as seen;
//! - qids **above the watermark** are tracked exactly in a bounded
//!   ordered set.
//!
//! When the exact set exceeds its capacity, the smallest tracked qid is
//! evicted and becomes the new watermark. The security direction is
//! one-sided and preserved: a replayed qid is *always* rejected (it is
//! either still tracked, or at/below the watermark). The trade-off is
//! liveness, not safety — a client that issues a *fresh* qid from far in
//! the past, after more than `capacity` newer qids, is falsely rejected
//! and must re-sign under a current qid. Monotonic qid allocation (what
//! [`crate::client::Client`] does) never hits this.

use std::collections::BTreeSet;

/// Default number of exactly-tracked qids above the watermark.
pub use veridb_common::config::DEFAULT_REPLAY_WINDOW;

/// A low-watermark + sliding-window replay filter over `u64` qids.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    /// Every qid `<=` this value counts as seen. `None` until the first
    /// eviction (initially nothing is filtered).
    watermark: Option<u64>,
    /// Exactly-tracked qids, all `>` watermark.
    recent: BTreeSet<u64>,
    capacity: usize,
}

impl ReplayWindow {
    /// A window tracking up to `capacity` qids exactly (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ReplayWindow {
            watermark: None,
            recent: BTreeSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// Has this qid been seen (exactly tracked, or at/below the
    /// watermark)?
    pub fn contains(&self, qid: u64) -> bool {
        self.watermark.is_some_and(|w| qid <= w) || self.recent.contains(&qid)
    }

    /// Record `qid` as seen. Returns `false` if it was already seen (a
    /// replay), `true` if newly recorded. Never forgets a recorded qid:
    /// eviction raises the watermark over it instead.
    pub fn insert(&mut self, qid: u64) -> bool {
        if self.contains(qid) {
            return false;
        }
        self.recent.insert(qid);
        while self.recent.len() > self.capacity {
            let evicted = self.recent.pop_first().expect("non-empty");
            self.watermark = Some(self.watermark.map_or(evicted, |w| w.max(evicted)));
        }
        true
    }

    /// The current low watermark (`None` before the first eviction).
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Number of exactly-tracked qids.
    pub fn tracked(&self) -> usize {
        self.recent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_window_accepts_then_rejects() {
        let mut w = ReplayWindow::new(8);
        assert!(!w.contains(5));
        assert!(w.insert(5));
        assert!(w.contains(5));
        assert!(!w.insert(5), "replay must be rejected");
        // qid 0 is valid while nothing has been evicted.
        assert!(w.insert(0));
        assert!(!w.insert(0));
    }

    #[test]
    fn eviction_raises_watermark_and_bounds_memory() {
        let mut w = ReplayWindow::new(4);
        for qid in 1..=100u64 {
            assert!(w.insert(qid));
            assert!(w.tracked() <= 4);
        }
        assert_eq!(w.watermark(), Some(96));
        assert_eq!(w.tracked(), 4);
    }

    #[test]
    fn every_inserted_qid_stays_rejected_across_the_watermark() {
        let mut w = ReplayWindow::new(4);
        for qid in 1..=100u64 {
            w.insert(qid);
        }
        // All of them — watermarked and tracked alike — read as seen.
        for qid in 1..=100u64 {
            assert!(w.contains(qid), "qid {qid} must still be rejected");
            assert!(!w.insert(qid));
        }
        // Fresh qids above the window are still accepted.
        assert!(w.insert(101));
    }

    #[test]
    fn stale_fresh_qid_below_watermark_is_falsely_rejected() {
        // The documented trade-off: safety over liveness.
        let mut w = ReplayWindow::new(2);
        for qid in [10u64, 20, 30, 40] {
            w.insert(qid);
        }
        assert!(w.watermark().unwrap() >= 20);
        // qid 15 was never inserted but falls under the watermark.
        assert!(w.contains(15));
        assert!(!w.insert(15));
    }

    #[test]
    fn out_of_order_inserts_keep_window_consistent() {
        let mut w = ReplayWindow::new(3);
        for qid in [50u64, 10, 40, 20, 30, 60] {
            w.insert(qid);
        }
        assert!(w.tracked() <= 3);
        for qid in [50u64, 10, 40, 20, 30, 60] {
            assert!(w.contains(qid));
        }
    }
}
