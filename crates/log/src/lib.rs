//! `veridb-log`: the durability subsystem.
//!
//! Everything the in-memory verified database needs to survive a crash —
//! and, crucially, to *prove* after a restart that the host did not roll
//! it back to an earlier state — lives here:
//!
//! - [`record`] — the log-record codec. Every protected write the engine
//!   commits becomes one logical record, MAC-chained to its predecessor
//!   under an enclave-derived key, framed with a length + CRC so a torn
//!   tail is detected byte-exactly and never misparsed.
//! - [`wal`] — the append-only segment store with leader/follower group
//!   commit: appends buffer under the commit lock, durability waits happen
//!   outside it, and the first waiter whose record is not yet on disk
//!   becomes the flusher for everyone (one `fsync` per batch).
//! - [`store`] — sealed epoch manifests, plaintext snapshots anchored by
//!   a hash inside the sealed manifest, the trusted monotonic counter that
//!   the rollback defense pivots on, and atomic file I/O helpers.
//!
//! The trust story mirrors the paper's §5.1: the disk is the host's, so
//! nothing on it is believed. Log records are believed because the MAC
//! chain verifies from genesis under a key only the enclave can derive;
//! the snapshot is believed because its hash is inside a sealed manifest;
//! and the *freshness* of the manifest is believed because its epoch must
//! equal the trusted monotonic counter — a host that re-offers an older
//! manifest, truncates the log below the manifest's recorded tip, or
//! swaps in a different snapshot gets a loud `RollbackDetected` /
//! `TamperDetected`, never a silently stale database.

pub mod record;
pub mod store;
pub mod wal;

pub use record::{scan_records, LogRecord, GENESIS_MAC, MAX_RECORD_BYTES};
pub use store::{
    decode_snapshot, encode_snapshot, EpochStore, Manifest, TableSnapshot, TrustedCounter,
};
pub use wal::{Wal, WalOptions};
