//! The adversarial host's toolbox.
//!
//! The paper's threat model (§3.1) gives the service provider full control
//! over everything outside the enclave: it can "insert, alter or delete
//! arbitrary data in the database". This module exposes exactly those
//! powers against a [`VerifiedMemory`], bypassing every protected
//! primitive, so attack tests and examples can demonstrate that the
//! verification protocol *detects* each class of misbehavior:
//!
//! - [`overwrite_cell`] — direct modification of record bytes.
//! - [`replay_cell`] — revert a cell to a previously valid `(data, ts)`
//!   pair (the attack that breaks the timestamp-free abridged protocol).
//! - [`resurrect_cell`] — re-insert a deleted record's bytes.
//! - [`clobber_slot_directory`] — corrupt page metadata (detected only
//!   when metadata verification is enabled; §4.3 discusses this tradeoff).
//!
//! None of these functions touch the enclave digests — that is the point.

use crate::memory::{CellAddr, VerifiedMemory};
use crate::page::SlotId;
use veridb_common::Result;

/// Overwrite a live cell's data in place, keeping its length. Bypasses the
/// protocol entirely.
pub fn overwrite_cell(mem: &VerifiedMemory, addr: CellAddr, new_data: &[u8]) -> Result<()> {
    mem.with_page_mut(addr.page, |p| {
        let ts = p.read(addr.slot).map(|(_, t)| t)?;
        p.write(addr.slot, new_data, ts)
    })?
}

/// Record a cell's current `(data, ts)` for a later replay.
pub fn snapshot_cell(mem: &VerifiedMemory, addr: CellAddr) -> Result<(Vec<u8>, u64)> {
    mem.with_page_mut(addr.page, |p| {
        p.read(addr.slot).map(|(d, t)| (d.to_vec(), t))
    })?
}

/// Revert a cell to a previously captured `(data, ts)` pair — the rollback
/// / stale-read attack. With timestamps in the PRF input this is caught at
/// the next epoch close; without them it would XOR-cancel undetected.
pub fn replay_cell(
    mem: &VerifiedMemory,
    addr: CellAddr,
    old_data: &[u8],
    old_ts: u64,
) -> Result<()> {
    mem.with_page_mut(addr.page, |p| p.write(addr.slot, old_data, old_ts))?
}

/// Re-insert a deleted record's bytes into a specific free slot of a page,
/// bypassing the protocol (an "undelete" attack).
pub fn resurrect_cell(mem: &VerifiedMemory, page: u64, data: &[u8], ts: u64) -> Result<SlotId> {
    mem.with_page_mut(page, |p| p.insert(data, ts))?
}

/// Scribble over a slot-directory entry (page metadata).
pub fn clobber_slot_directory(mem: &VerifiedMemory, page: u64, slot: SlotId) -> Result<()> {
    mem.with_page_mut(page, |p| {
        let pos = crate::page::PAGE_HEADER_BYTES + crate::page::SLOT_ENTRY_BYTES * slot as usize;
        let buf = p.raw_buf_mut();
        if pos + 4 <= buf.len() {
            buf[pos] ^= 0xFF;
            buf[pos + 1] ^= 0x0F;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use veridb_common::{Error, PrfBackend, VeriDbConfig};
    use veridb_enclave::Enclave;

    fn mem(verify_metadata: bool) -> Arc<VerifiedMemory> {
        let enclave = Enclave::create("tamper-test", 1 << 22, [2u8; 32]);
        VerifiedMemory::new(
            enclave,
            &VeriDbConfig {
                page_size: 1024,
                rsws_partitions: 1,
                verify_rsws: true,
                verify_metadata,
                verify_every_ops: None,
                track_touched_pages: true,
                compact_during_verification: true,
                prf: PrfBackend::HmacSha256,
                workers: 1,
                ..VeriDbConfig::default()
            },
        )
    }

    #[test]
    fn honest_history_verifies() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"alpha").unwrap();
        let b = m.insert_in(page, b"beta").unwrap();
        assert_eq!(m.read(a).unwrap(), b"alpha");
        m.write(a, b"alpha2").unwrap();
        m.delete(b).unwrap();
        assert_eq!(m.read(a).unwrap(), b"alpha2");
        let report = m.verify_now().unwrap();
        assert_eq!(report.epochs, vec![1]);
        // And a second epoch over the carried state.
        m.read(a).unwrap();
        m.verify_now().unwrap();
    }

    #[test]
    fn direct_overwrite_detected_at_scan() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"honest").unwrap();
        overwrite_cell(&m, a, b"forged").unwrap();
        let err = m.verify_now().unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
        assert!(m.poisoned().is_some());
    }

    #[test]
    fn replay_of_stale_value_detected() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"version-1").unwrap();
        let (old_data, old_ts) = snapshot_cell(&m, a).unwrap();
        // Legitimate update to version 2...
        m.write(a, b"version-2").unwrap();
        // ...then the host reverts to the stale but once-valid pair.
        replay_cell(&m, a, &old_data, old_ts).unwrap();
        // A subsequent read returns stale data; deferred verification
        // catches it when the epoch closes.
        let got = m.read(a).unwrap();
        assert_eq!(got, b"version-1", "host successfully served stale data");
        let err = m.verify_now().unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
    }

    #[test]
    fn replay_detected_even_without_intervening_read() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"v1").unwrap();
        let (d, t) = snapshot_cell(&m, a).unwrap();
        m.write(a, b"v2").unwrap();
        replay_cell(&m, a, &d, t).unwrap();
        assert!(m.verify_now().is_err());
    }

    #[test]
    fn resurrecting_deleted_record_detected() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"to-be-deleted").unwrap();
        let (d, t) = snapshot_cell(&m, a).unwrap();
        m.delete(a).unwrap();
        resurrect_cell(&m, page, &d, t).unwrap();
        assert!(m.verify_now().is_err());
    }

    #[test]
    fn metadata_clobber_detected_only_with_metadata_verification() {
        // Without metadata verification the scan of record data reads via
        // the (corrupted) slot directory — corrupting an entry makes the
        // record unreadable or changes which bytes are read, which the
        // data digests catch; but a *consistent* metadata-only lie (e.g.
        // false free-space accounting) is invisible, as §4.3 concedes.
        let m = mem(true);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"payload").unwrap();
        clobber_slot_directory(&m, page, a.slot).unwrap();
        assert!(m.verify_now().is_err());
    }

    #[test]
    fn wasting_free_space_is_undetected_without_metadata_verification() {
        // §4.3's accepted blind spot: the host lies about free space. With
        // metadata verification OFF this is not an integrity violation.
        let m = mem(false);
        let page = m.allocate_page();
        let _a = m.insert_in(page, b"payload").unwrap();
        // Host corrupts the header's free-space bookkeeping only.
        m.with_page_mut(page, |p| {
            let buf = p.raw_buf_mut();
            buf[16] = 0xEE; // live_bytes low byte
        })
        .unwrap();
        // Record data digests are untouched: verification passes.
        m.verify_now().unwrap();
    }

    #[test]
    fn batched_read_of_tampered_cell_detected() {
        use crate::memory::ReadBatch;
        let m = mem(false);
        let page = m.allocate_page();
        let addrs: Vec<_> = (0..6)
            .map(|i| m.insert_in(page, format!("honest-{i}").as_bytes()).unwrap())
            .collect();
        m.verify_now().unwrap();
        // Host forges one cell in the middle of the batch.
        overwrite_cell(&m, addrs[3], b"forged!!!").unwrap();
        // The batched read happily returns the forged bytes (reads are
        // optimistic)...
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(page, &slots, &mut batch).unwrap();
        assert_eq!(batch.get(3).unwrap().1, b"forged!!!");
        // ...but it folded PRF(forged bytes, stale ts) into h(RS), which no
        // write ever produced: the epoch close must alarm.
        let err = m.verify_now().unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
        assert!(m.poisoned().is_some());
    }

    #[test]
    fn batched_read_of_replayed_cell_detected() {
        use crate::memory::ReadBatch;
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"v1").unwrap();
        let b = m.insert_in(page, b"other").unwrap();
        let (old, ts) = snapshot_cell(&m, a).unwrap();
        m.write(a, b"v2").unwrap();
        replay_cell(&m, a, &old, ts).unwrap();
        let mut batch = ReadBatch::new();
        m.read_page_batch(page, &[a.slot, b.slot], &mut batch)
            .unwrap();
        assert_eq!(batch.get(0).unwrap().1, b"v1", "stale value served");
        assert!(
            m.verify_now().is_err(),
            "replay must be caught at epoch close"
        );
    }

    #[test]
    fn batched_read_of_swapped_cells_detected() {
        // The host swaps two cells' (payload, ts) pairs between two batch
        // reads of the page. Each swapped cell is a once-valid element,
        // but under the other cell's address: the second batch consumes
        // PRF images no write produced, and the epoch close must alarm.
        use crate::memory::ReadBatch;
        let m = mem(false);
        let page = m.allocate_page();
        let addrs: Vec<_> = (0..4)
            .map(|i| m.insert_in(page, format!("cell-{i}").as_bytes()).unwrap())
            .collect();
        let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
        let mut batch = ReadBatch::new();
        m.read_page_batch(page, &slots, &mut batch).unwrap();
        let (d1, t1) = snapshot_cell(&m, addrs[1]).unwrap();
        let (d2, t2) = snapshot_cell(&m, addrs[2]).unwrap();
        replay_cell(&m, addrs[1], &d2, t2).unwrap();
        replay_cell(&m, addrs[2], &d1, t1).unwrap();
        m.read_page_batch(page, &slots, &mut batch).unwrap();
        assert_eq!(batch.get(1).unwrap().1, b"cell-2", "swapped value served");
        let err = m.verify_now().unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
        assert!(m.poisoned().is_some());
    }

    #[test]
    fn tamper_on_untouched_page_detected_on_next_touch_epoch() {
        let m = mem(false);
        let page = m.allocate_page();
        let a = m.insert_in(page, b"cold data").unwrap();
        m.verify_now().unwrap(); // epoch 1: page cached as clean
        overwrite_cell(&m, a, b"evil data").unwrap();
        // The page is untouched in epoch 2, so the cached digest carries
        // and the scan passes — detection is deferred...
        m.verify_now().unwrap();
        // ...until the tampered data influences a read.
        let _ = m.read(a).unwrap();
        assert!(m.verify_now().is_err());
    }
}
