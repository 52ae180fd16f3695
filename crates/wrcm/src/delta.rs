//! Digest contributions of protected ops.
//!
//! Every protected op tags its elements under the page lock into one
//! `DeltaBucket` (the PRF images destined for `h(RS)`/`h(WS)` and
//! their metadata twins, pre-combined by XOR, plus what they cost) and
//! commits it once, under its partition mutex, before it releases the
//! page lock (`apply_bucket`, DESIGN.md §9).

use crate::digest::SetDigest;
use crate::memory::CellAddr;
use crate::page::{RawPage, SlotId};
use crate::prf::{PrfEngine, KIND_DATA, KIND_META};
use crate::rsws::PartitionState;
use veridb_common::Result;

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

/// The digest contribution of one protected op, pre-combined under the
/// page lock: every op builds one and hands it to `VerifiedMemory::commit`.
#[derive(Debug, Default)]
pub(crate) struct DeltaBucket {
    /// XOR accumulator destined for the partition's `h(RS)`.
    pub rs: SetDigest,
    /// XOR accumulator destined for the partition's `h(WS)`.
    pub ws: SetDigest,
    /// Metadata-digest accumulators (zero unless `verify_metadata`).
    pub meta_rs: SetDigest,
    /// See [`Self::meta_rs`].
    pub meta_ws: SetDigest,
    /// Protected ops folded here (feeds `ops_since_close`).
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
    /// under its new timestamp. One [`PrfEngine::tag_pair`] per cell
    /// hashes its bytes once for both elements.
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
            let addr = CellAddr {
                page: page_id,
                slot,
            }
            .proto();
            let (old, new) = prf.tag_pair(addr, KIND_DATA, data, ts_old, ts_new);
            self.rs.fold(&old);
            self.ws.fold(&new);
            self.prf_evals += 2;
            self.singletons += 1;
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
}

/// Apply one op's bucket to its partition: metadata pair first, then the
/// record pair, both routed by the page's captured `scan_epoch`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DIGEST_LEN;

    fn d(b: u8) -> SetDigest {
        SetDigest([b; DIGEST_LEN])
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
}
