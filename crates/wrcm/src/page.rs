//! Slotted pages in untrusted memory.
//!
//! The page layout follows the classic slotted-page design the paper
//! adopts (§4.2, "the structure of a VeriDB page resembles classic page
//! designs in database systems like Postgres"):
//!
//! ```text
//! +--------------------+ 0
//! | header (24 bytes)  |
//! +--------------------+ 24
//! | slot directory →   |   each entry: offset u16, data-len u16
//! |                    |
//! |   ... free ...     |
//! |                    |
//! | ← heap (cells)     |   each cell: ts u64, capacity u16, data bytes
//! +--------------------+ page_size
//! ```
//!
//! Records are addressed by `(page, slot)`; the slot directory maps slot →
//! heap offset. Deletes tombstone the slot and leave the heap bytes in
//! place (space reclaimed by [`RawPage::compact`], which VeriDB runs as a
//! side task of the verification scan, §4.3). Each cell carries the
//! protocol timestamp of its last write; the slot directory carries a
//! parallel metadata timestamp used only when metadata verification is on.
//!
//! Everything in this module is **untrusted state**: the host may mutate
//! the buffer arbitrarily (see [`crate::tamper`]). All methods are
//! therefore hardened to return errors, never panic, on corrupt layouts.

use veridb_common::{Error, Result};

/// Bytes reserved for the page header.
pub const PAGE_HEADER_BYTES: usize = 24;
/// Bytes per slot-directory entry (offset u16 + len u16).
pub const SLOT_ENTRY_BYTES: usize = 4;
/// Bytes of cell overhead preceding the data (ts u64 + capacity u16).
pub const CELL_HEADER_BYTES: usize = 10;
/// Magic tag at offset 0 of every registered page.
const PAGE_MAGIC: u32 = 0x5644_4250; // "VDBP"
/// Slot-directory offset value marking a free or tombstoned slot.
const SLOT_FREE: u16 = 0;

/// Index of a cell within a page.
pub type SlotId = u16;

/// One slotted page of untrusted memory.
pub struct RawPage {
    id: u64,
    buf: Vec<u8>,
    /// Metadata timestamps, one per slot (used when metadata verification
    /// is enabled; untrusted, like the rest of the page).
    meta_ts: Vec<u64>,
}

impl RawPage {
    /// Create an empty page of `size` bytes.
    pub fn new(id: u64, size: usize) -> Self {
        assert!(
            size >= 256 && size <= (u16::MAX as usize + 1),
            "page size out of range"
        );
        let mut buf = vec![0u8; size];
        buf[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[4..12].copy_from_slice(&id.to_le_bytes());
        let mut page = RawPage {
            id,
            buf,
            meta_ts: Vec::new(),
        };
        page.set_heap_top_usize(size); // heap grows down from the end
        page
    }

    /// Page id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Page size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    // ---- header accessors (u16 fields at fixed offsets) -----------------

    fn get_u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slot-directory entries (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        self.get_u16_at(12)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16_at(12, v);
    }

    /// Offset of the lowest heap byte in use. `size` when the heap is empty
    /// (`heap_top == size` means no cells allocated yet); allocation moves
    /// it downward. Stored as `size - heap_top` so a 64 KiB page stays
    /// addressable with u16 header fields.
    pub fn heap_top(&self) -> usize {
        self.heap_top_usize()
    }

    fn heap_top_usize(&self) -> usize {
        self.buf.len() - self.get_u16_at(14) as usize
    }

    fn set_heap_top_usize(&mut self, v: usize) {
        let stored = (self.buf.len() - v) as u16;
        self.set_u16_at(14, stored);
    }

    /// Total bytes of live cells (headers included).
    pub fn live_bytes(&self) -> u16 {
        self.get_u16_at(16)
    }

    fn set_live_bytes(&mut self, v: u16) {
        self.set_u16_at(16, v);
    }

    /// Number of live (non-tombstoned) slots.
    pub fn live_slots(&self) -> u16 {
        self.get_u16_at(18)
    }

    fn set_live_slots(&mut self, v: u16) {
        self.set_u16_at(18, v);
    }

    // ---- slot directory --------------------------------------------------

    fn slot_entry_pos(slot: SlotId) -> usize {
        PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES * slot as usize
    }

    fn slot_offset(&self, slot: SlotId) -> u16 {
        self.get_u16_at(Self::slot_entry_pos(slot))
    }

    fn slot_len(&self, slot: SlotId) -> u16 {
        self.get_u16_at(Self::slot_entry_pos(slot) + 2)
    }

    fn set_slot(&mut self, slot: SlotId, offset: u16, len: u16) {
        let pos = Self::slot_entry_pos(slot);
        self.set_u16_at(pos, offset);
        self.set_u16_at(pos + 2, len);
    }

    /// The raw 4-byte slot-directory entry — the "page metadata" datum that
    /// metadata verification folds into the digests.
    pub fn slot_entry_bytes(&self, slot: SlotId) -> [u8; 4] {
        let pos = Self::slot_entry_pos(slot);
        [
            self.buf[pos],
            self.buf[pos + 1],
            self.buf[pos + 2],
            self.buf[pos + 3],
        ]
    }

    /// Metadata timestamp of a slot-directory entry.
    pub fn meta_ts(&self, slot: SlotId) -> u64 {
        self.meta_ts.get(slot as usize).copied().unwrap_or(0)
    }

    /// Set the metadata timestamp of a slot-directory entry.
    pub fn set_meta_ts(&mut self, slot: SlotId, ts: u64) {
        let idx = slot as usize;
        if idx >= self.meta_ts.len() {
            self.meta_ts.resize(idx + 1, 0);
        }
        self.meta_ts[idx] = ts;
    }

    /// Whether `slot` exists and holds a live cell.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot_offset(slot) != SLOT_FREE
    }

    // ---- space accounting -------------------------------------------------

    fn directory_end(&self) -> usize {
        PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES * self.slot_count() as usize
    }

    /// Contiguous free bytes between the slot directory and the heap.
    pub fn contiguous_free(&self) -> usize {
        self.heap_top_usize().saturating_sub(self.directory_end())
    }

    /// Free bytes assuming a compaction ran (contiguous + reclaimable
    /// holes). This is the number the storage layer's allocator uses.
    pub fn free_after_compaction(&self) -> usize {
        let used = self.directory_end() + self.live_bytes() as usize;
        self.buf.len().saturating_sub(used)
    }

    /// Whether compaction would reclaim a meaningful amount of space.
    pub fn needs_compaction(&self) -> bool {
        self.free_after_compaction() > self.contiguous_free()
    }

    /// Can a cell of `data_len` bytes be inserted right now (without
    /// compaction)?
    pub fn fits(&self, data_len: usize) -> bool {
        let cell = CELL_HEADER_BYTES + data_len;
        // Worst case a fresh slot entry is also needed.
        self.contiguous_free() >= cell + SLOT_ENTRY_BYTES
    }

    // ---- cell operations ---------------------------------------------------

    fn find_free_slot(&self) -> Option<SlotId> {
        (0..self.slot_count()).find(|&s| self.slot_offset(s) == SLOT_FREE)
    }

    /// Insert a cell. Returns the assigned slot, or `Err(PageFull)`.
    ///
    /// This only manipulates untrusted bytes; the caller (the verified
    /// memory) is responsible for folding the event into the digests.
    pub fn insert(&mut self, data: &[u8], ts: u64) -> Result<SlotId> {
        let cell_size = CELL_HEADER_BYTES + data.len();
        let (slot, new_slot) = match self.find_free_slot() {
            Some(s) => (s, false),
            None => (self.slot_count(), true),
        };
        let dir_growth = if new_slot { SLOT_ENTRY_BYTES } else { 0 };
        if self.contiguous_free() < cell_size + dir_growth {
            return Err(Error::PageFull {
                page: self.id,
                needed: cell_size + dir_growth,
                available: self.contiguous_free(),
            });
        }
        if new_slot {
            self.set_slot_count(self.slot_count() + 1);
        }
        let offset = self.heap_top_usize() - cell_size;
        self.write_cell_at(offset, data, data.len() as u16, ts);
        self.set_heap_top_usize(offset);
        self.set_slot(slot, offset as u16, data.len() as u16);
        self.set_live_bytes(self.live_bytes() + cell_size as u16);
        self.set_live_slots(self.live_slots() + 1);
        Ok(slot)
    }

    fn write_cell_at(&mut self, offset: usize, data: &[u8], cap: u16, ts: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&ts.to_le_bytes());
        self.buf[offset + 8..offset + 10].copy_from_slice(&cap.to_le_bytes());
        self.buf[offset + 10..offset + 10 + data.len()].copy_from_slice(data);
    }

    fn cell_capacity(&self, offset: usize) -> u16 {
        self.get_u16_at(offset + 8)
    }

    /// Read a live cell: `(data, ts)`.
    pub fn read(&self, slot: SlotId) -> Result<(&[u8], u64)> {
        if slot >= self.slot_count() {
            return Err(Error::SlotNotFound {
                page: self.id,
                slot,
            });
        }
        let offset = self.slot_offset(slot) as usize;
        if offset == SLOT_FREE as usize {
            return Err(Error::SlotNotFound {
                page: self.id,
                slot,
            });
        }
        let len = self.slot_len(slot) as usize;
        if offset + CELL_HEADER_BYTES + len > self.buf.len() {
            return Err(Error::Codec(format!(
                "corrupt slot entry: page {} slot {slot} points past the page",
                self.id
            )));
        }
        let mut ts_bytes = [0u8; 8];
        ts_bytes.copy_from_slice(&self.buf[offset..offset + 8]);
        let ts = u64::from_le_bytes(ts_bytes);
        let data = &self.buf[offset + CELL_HEADER_BYTES..offset + CELL_HEADER_BYTES + len];
        Ok((data, ts))
    }

    /// Update only a live cell's timestamp (the read write-back of
    /// Algorithm 1 rewrites the timestamp, not the data).
    pub fn set_ts(&mut self, slot: SlotId, ts: u64) -> Result<()> {
        if !self.is_live(slot) {
            return Err(Error::SlotNotFound {
                page: self.id,
                slot,
            });
        }
        let offset = self.slot_offset(slot) as usize;
        self.buf[offset..offset + 8].copy_from_slice(&ts.to_le_bytes());
        Ok(())
    }

    /// Overwrite a live cell's data in place if it fits the cell's
    /// capacity, else re-allocate within the page. `Err(PageFull)` if the
    /// larger cell no longer fits.
    pub fn write(&mut self, slot: SlotId, data: &[u8], ts: u64) -> Result<()> {
        if !self.is_live(slot) {
            return Err(Error::SlotNotFound {
                page: self.id,
                slot,
            });
        }
        let offset = self.slot_offset(slot) as usize;
        let cap = self.cell_capacity(offset) as usize;
        let old_len = self.slot_len(slot) as usize;
        if data.len() <= cap {
            self.buf[offset..offset + 8].copy_from_slice(&ts.to_le_bytes());
            self.buf[offset + CELL_HEADER_BYTES..offset + CELL_HEADER_BYTES + data.len()]
                .copy_from_slice(data);
            self.set_slot(slot, offset as u16, data.len() as u16);
            // Capacity is unchanged; live byte accounting follows data len.
            let delta_old = CELL_HEADER_BYTES + old_len;
            let delta_new = CELL_HEADER_BYTES + data.len();
            self.set_live_bytes((self.live_bytes() as usize - delta_old + delta_new) as u16);
            return Ok(());
        }
        // Grow: allocate a fresh cell region; the old region becomes a hole.
        let cell_size = CELL_HEADER_BYTES + data.len();
        if self.contiguous_free() < cell_size {
            return Err(Error::PageFull {
                page: self.id,
                needed: cell_size,
                available: self.contiguous_free(),
            });
        }
        let new_offset = self.heap_top_usize() - cell_size;
        self.write_cell_at(new_offset, data, data.len() as u16, ts);
        self.set_heap_top_usize(new_offset);
        self.set_slot(slot, new_offset as u16, data.len() as u16);
        let delta_old = CELL_HEADER_BYTES + old_len;
        let delta_new = CELL_HEADER_BYTES + data.len();
        self.set_live_bytes((self.live_bytes() as usize - delta_old + delta_new) as u16);
        Ok(())
    }

    /// Tombstone a cell. The heap bytes become a hole for the next
    /// compaction (§4.3: deletes do not relocate records).
    pub fn delete(&mut self, slot: SlotId) -> Result<()> {
        if !self.is_live(slot) {
            return Err(Error::SlotNotFound {
                page: self.id,
                slot,
            });
        }
        let len = self.slot_len(slot) as usize;
        // Live-byte accounting uses data length; capacity slack was already
        // counted as a hole by live_bytes bookkeeping on shrinking writes.
        let cell_size = CELL_HEADER_BYTES + len;
        self.set_slot(slot, SLOT_FREE, 0);
        self.set_live_bytes(self.live_bytes() - cell_size as u16);
        self.set_live_slots(self.live_slots() - 1);
        Ok(())
    }

    /// Iterate live cells: `(slot, data, ts)`.
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotId, &[u8], u64)> + '_ {
        (0..self.slot_count()).filter_map(move |slot| {
            if self.slot_offset(slot) == SLOT_FREE {
                return None;
            }
            self.read(slot).ok().map(|(data, ts)| (slot, data, ts))
        })
    }

    /// Slots of live cells (stable under compaction).
    pub fn live_slot_ids(&self) -> Vec<SlotId> {
        (0..self.slot_count())
            .filter(|&s| self.slot_offset(s) != SLOT_FREE)
            .collect()
    }

    /// Compact the heap: rewrite live cells contiguously at the bottom of
    /// the page and reset capacities to data lengths. Slot ids (and thus
    /// protocol addresses) are unchanged; only offsets move, which is page
    /// *metadata*. Returns the number of bytes reclaimed.
    pub fn compact(&mut self) -> usize {
        let before = self.contiguous_free();
        // Gather live cells (slot, data, ts) ordered by descending offset so
        // we can repack from the end of the page without overlap hazards.
        let mut live: Vec<(SlotId, Vec<u8>, u64)> = Vec::new();
        for (slot, data, ts) in self.iter_live() {
            live.push((slot, data.to_vec(), ts));
        }
        let mut write_pos = self.buf.len();
        for (slot, data, ts) in &live {
            let cell_size = CELL_HEADER_BYTES + data.len();
            write_pos -= cell_size;
            self.write_cell_at(write_pos, data, data.len() as u16, *ts);
            self.set_slot(*slot, write_pos as u16, data.len() as u16);
        }
        self.set_heap_top_usize(write_pos);
        // live_bytes is now exact (capacity slack squeezed out).
        let exact: usize = live
            .iter()
            .map(|(_, d, _)| CELL_HEADER_BYTES + d.len())
            .sum();
        self.set_live_bytes(exact as u16);
        self.contiguous_free() - before
    }

    /// Direct mutable access to the raw buffer — the host's tampering
    /// surface, used by [`crate::tamper`] and attack tests only.
    #[doc(hidden)]
    pub fn raw_buf_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Direct read access to the raw buffer.
    #[doc(hidden)]
    pub fn raw_buf(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for RawPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawPage")
            .field("id", &self.id)
            .field("size", &self.buf.len())
            .field("slots", &self.slot_count())
            .field("live_slots", &self.live_slots())
            .field("contiguous_free", &self.contiguous_free())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> RawPage {
        RawPage::new(7, 1024)
    }

    #[test]
    fn insert_read_round_trip() {
        let mut p = page();
        let s = p.insert(b"hello world", 42).unwrap();
        let (data, ts) = p.read(s).unwrap();
        assert_eq!(data, b"hello world");
        assert_eq!(ts, 42);
        assert_eq!(p.live_slots(), 1);
    }

    #[test]
    fn multiple_inserts_get_distinct_slots() {
        let mut p = page();
        let a = p.insert(b"aaa", 1).unwrap();
        let b = p.insert(b"bbbb", 2).unwrap();
        let c = p.insert(b"c", 3).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(p.read(a).unwrap().0, b"aaa");
        assert_eq!(p.read(b).unwrap().0, b"bbbb");
        assert_eq!(p.read(c).unwrap().0, b"c");
    }

    #[test]
    fn page_full_is_reported() {
        let mut p = RawPage::new(1, 256);
        let big = vec![0xAAu8; 300];
        assert!(matches!(p.insert(&big, 1), Err(Error::PageFull { .. })));
        // Fill with small cells until full, then verify the error.
        let mut n = 0;
        loop {
            match p.insert(b"0123456789", 1) {
                Ok(_) => n += 1,
                Err(Error::PageFull { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(n > 0);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot_ids() {
        let mut p = page();
        let a = p.insert(b"aaa", 1).unwrap();
        let _b = p.insert(b"bbb", 2).unwrap();
        p.delete(a).unwrap();
        assert!(!p.is_live(a));
        assert!(matches!(p.read(a), Err(Error::SlotNotFound { .. })));
        assert_eq!(p.live_slots(), 1);
        // Next insert reuses the tombstoned slot id.
        let c = p.insert(b"ccc", 3).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn delete_then_compact_reclaims_space() {
        let mut p = RawPage::new(1, 512);
        let mut slots = Vec::new();
        while let Ok(s) = p.insert(&[0xCD; 40], 1) {
            slots.push(s);
        }
        let full_free = p.contiguous_free();
        // Delete every other record: holes, not contiguous space.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        assert_eq!(p.contiguous_free(), full_free, "deletes leave holes");
        assert!(p.needs_compaction());
        let reclaimed = p.compact();
        assert!(reclaimed > 0);
        assert!(!p.needs_compaction());
        // Survivors intact, same slot ids.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.read(*s).unwrap().0, &[0xCD; 40]);
        }
    }

    #[test]
    fn in_place_write_and_growing_write() {
        let mut p = page();
        let s = p.insert(b"0123456789", 1).unwrap();
        // shrink in place
        p.write(s, b"abc", 2).unwrap();
        assert_eq!(p.read(s).unwrap(), (&b"abc"[..], 2));
        // grow within capacity (10)
        p.write(s, b"abcdefghij", 3).unwrap();
        assert_eq!(p.read(s).unwrap(), (&b"abcdefghij"[..], 3));
        // grow past capacity: relocates inside the page
        p.write(s, b"abcdefghijklmnop", 4).unwrap();
        assert_eq!(p.read(s).unwrap(), (&b"abcdefghijklmnop"[..], 4));
    }

    #[test]
    fn set_ts_touches_only_the_timestamp() {
        let mut p = page();
        let s = p.insert(b"payload", 10).unwrap();
        p.set_ts(s, 99).unwrap();
        assert_eq!(p.read(s).unwrap(), (&b"payload"[..], 99));
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut p = page();
        let a = p.insert(b"a", 1).unwrap();
        let b = p.insert(b"b", 2).unwrap();
        let c = p.insert(b"c", 3).unwrap();
        p.delete(b).unwrap();
        let live: Vec<SlotId> = p.iter_live().map(|(s, _, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }

    #[test]
    fn meta_ts_tracks_per_slot() {
        let mut p = page();
        let s = p.insert(b"x", 1).unwrap();
        assert_eq!(p.meta_ts(s), 0);
        p.set_meta_ts(s, 5);
        assert_eq!(p.meta_ts(s), 5);
    }

    #[test]
    fn corrupt_slot_offset_is_an_error_not_a_panic() {
        let mut p = page();
        let s = p.insert(b"x", 1).unwrap();
        // Host scribbles an out-of-range offset into the slot directory.
        let pos = PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES * s as usize;
        p.raw_buf_mut()[pos..pos + 2].copy_from_slice(&0xFFF0u16.to_le_bytes());
        p.raw_buf_mut()[pos + 2..pos + 4].copy_from_slice(&100u16.to_le_bytes());
        assert!(p.read(s).is_err());
    }

    #[test]
    fn compact_preserves_timestamps() {
        let mut p = page();
        let a = p.insert(b"aa", 11).unwrap();
        let b = p.insert(b"bb", 22).unwrap();
        p.delete(a).unwrap();
        p.compact();
        assert_eq!(p.read(b).unwrap(), (&b"bb"[..], 22));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use std::collections::HashMap;
    use veridb_common::rng::{check, Rng};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(usize),
        Write(usize, Vec<u8>),
        Compact,
    }

    fn bytes(rng: &mut Rng) -> Vec<u8> {
        rng.vec(0..64, |r| r.next_u64() as u8)
    }

    fn arb_op(rng: &mut Rng) -> Op {
        match rng.gen_range(0..4u8) {
            0 => Op::Insert(bytes(rng)),
            1 => Op::Delete(rng.next_u64() as usize),
            2 => Op::Write(rng.next_u64() as usize, bytes(rng)),
            _ => Op::Compact,
        }
    }

    /// After any op sequence, every live slot reads back exactly what
    /// the model says it holds, and tombstoned slots error.
    #[test]
    fn page_matches_model() {
        check(256, |rng| {
            let ops = rng.vec(0..60, arb_op);
            let mut page = RawPage::new(1, 2048);
            let mut model: HashMap<SlotId, (Vec<u8>, u64)> = HashMap::new();
            let mut ts = 0u64;
            for op in ops {
                ts += 1;
                match op {
                    Op::Insert(data) => {
                        if let Ok(slot) = page.insert(&data, ts) {
                            // insert may reuse a tombstoned slot id
                            model.insert(slot, (data, ts));
                        }
                    }
                    Op::Delete(i) => {
                        let keys: Vec<SlotId> = model.keys().copied().collect();
                        if !keys.is_empty() {
                            let slot = keys[i % keys.len()];
                            page.delete(slot).unwrap();
                            model.remove(&slot);
                        }
                    }
                    Op::Write(i, data) => {
                        let keys: Vec<SlotId> = model.keys().copied().collect();
                        if !keys.is_empty() {
                            let slot = keys[i % keys.len()];
                            if page.write(slot, &data, ts).is_ok() {
                                model.insert(slot, (data, ts));
                            }
                        }
                    }
                    Op::Compact => {
                        page.compact();
                    }
                }
            }
            assert_eq!(page.live_slots() as usize, model.len());
            for (slot, (data, wts)) in &model {
                let (got, got_ts) = page.read(*slot).unwrap();
                assert_eq!(got, data.as_slice());
                assert_eq!(got_ts, *wts);
            }
        });
    }
}
