//! VeriDB's page-structured verifiable storage layer (§4 of the paper).
//!
//! Built on top of the write-read consistent memory of `veridb-wrcm`, this
//! crate stores relational tables such that **the presence or absence of
//! any queried record is proved by a single record** (Definition 4.2):
//!
//! - Every record of a relation is stored as
//!   `⟨key₁, nKey₁, …, key_k, nKey_k, data⟩` where `nKeyᵢ` is the smallest
//!   key greater than `keyᵢ` in chain `i` (Definition 5.2 generalizes to
//!   one chain per indexed column).
//! - Each chain carries a sentinel record `⟨⊥, min(keys), −⟩` so that the
//!   emptiness of a prefix is also provable.
//! - The record `⟨k₁, k₂, data⟩` itself proves the existence of `k₁` and
//!   the absence of every key in `(k₁, k₂)` — because it was read from
//!   write-read consistent memory, the host cannot forge it.
//!
//! - Every record is read as its own table's cell: the enclave records
//!   which table (or spill buffer) it handed each page to and refuses a
//!   read that names another owner, so a record only ever proves things
//!   about its own table's chains.
//!
//! Point lookups and range scans return rows together with the evidence
//! checks of §5.2 already applied; any inconsistency (an untrusted index
//! pointing at the wrong record or at another table's, an omitted row, a
//! broken chain) surfaces as [`veridb_common::Error::TamperDetected`].
//!
//! The physical placement of records (which page, which slot) and the
//! per-chain indexes mapping keys to `(page, slot)` are **untrusted**: a
//! lying index can cause spurious errors but never an accepted wrong
//! answer.

pub mod catalog;
pub mod chain;
pub mod cursor;
pub mod evidence;
pub mod index;
pub mod record;
pub mod table;

pub use catalog::Catalog;
pub use chain::{ChainKey, CompositeKey};
pub use cursor::VerifiedScan;
pub use evidence::{PointEvidence, PointResult};
pub use index::{ChainIndex, IndexOracle, MaliciousIndex};
pub use record::StoredRecord;
pub use table::Table;
