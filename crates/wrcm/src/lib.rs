//! Write-read consistent memory (§4.1 of the VeriDB paper).
//!
//! This crate is the foundation of VeriDB's verifiability: a region of
//! *untrusted* memory whose integrity is enforced by an offline memory
//! checker running inside the (simulated) enclave.
//!
//! # Protocol
//!
//! The checker is Blum et al.'s offline memory checking, in the
//! timestamped, non-quiescent form used by Concerto:
//!
//! - Every memory **cell** stores `(data, ts)` where `ts` is a timestamp
//!   drawn from the enclave's strictly increasing counter.
//! - The enclave keeps two XOR-aggregated digests per partition:
//!   `h(RS)` over all reads and `h(WS)` over all writes, where each
//!   element's contribution is `PRF_k(addr ‖ kind ‖ data ‖ ts)`
//!   (POLYVAL then AES-128, see [`prf`]).
//! - A protected **Read** folds the observed `(addr, data, ts)` into
//!   `h(RS)`, then *virtually writes back* the same data with a fresh
//!   timestamp, folding `(addr, data, ts')` into `h(WS)` (Algorithm 1).
//! - A protected **Write** folds the overwritten `(addr, old, ts)` into
//!   `h(RS)` and the new `(addr, new, ts')` into `h(WS)`.
//! - **Verification** (Algorithm 2) scans memory page by page, folding each
//!   live cell into the closing epoch's `h(RS)` and the opening epoch's
//!   `h(WS)`; at the end of a pass `h(RS) = h(WS)` must hold for the closed
//!   epoch, or the untrusted memory was modified behind the enclave's back.
//!
//! The timestamps are essential and *not* optional bookkeeping: without
//! them, a host that reverts a cell to an earlier value produces a read
//! that XOR-cancels against the earlier epoch's write and evades detection.
//! The paper's abridged Algorithm 1 omits them for space; Concerto and Blum
//! (both cited by the paper as the actual protocol) require them, and the
//! attack test in [`tamper`] demonstrates the replay being caught.
//!
//! # Paper optimizations implemented here (§4.3)
//!
//! - **Metadata exclusion**: slot-directory maintenance can be excluded
//!   from the digests (`verify_metadata = false`), halving digest updates.
//! - **Compaction during verification**: deletes leave holes; the
//!   verification scan compacts pages as a side task.
//! - **Touched-page tracking**: the enclave remembers which pages were
//!   touched since their last scan and carries an in-enclave cached digest
//!   for untouched pages instead of re-reading them.
//! - **Multiple RSWSs**: pages are partitioned across N digest pairs, each
//!   with its own lock, removing the global contention point.

pub mod delta;
pub mod digest;
pub mod memory;
pub mod page;
pub mod prf;
pub mod rsws;
pub mod tamper;
pub mod verifier;

pub use digest::SetDigest;
pub use memory::{CellAddr, PageOwner, ReadBatch, VerifiedMemory, VerifyReport};
pub use page::{RawPage, SlotId, PAGE_HEADER_BYTES};
pub use prf::PrfEngine;
pub use rsws::{PartitionState, RswsPair};
pub use verifier::BackgroundVerifier;
