//! The keyed pseudo-random function for set-digest contributions.
//!
//! Each memory event `(addr, kind, data, ts)` is mapped to a 32-byte PRF
//! image which is XOR-folded into `h(RS)` / `h(WS)`. The PRF is
//! HMAC-SHA-256, the collision-resistant keyed hash the paper's security
//! argument assumes. On a CPU with SHA extensions `common::sha256` runs it
//! on SHA-NI: the hardware hashing §6.1 anticipates ("by adopting hardware
//! solutions such as FPGA, the hash speed can be significantly
//! improved").
//!
//! The paper measures that RS/WS maintenance cost "is dominated almost
//! exclusively by PRF operations" — the `micro` bench's `prf` group and
//! Ablation 1 measure it.

use crate::digest::SetDigest;
use veridb_common::sha256::HmacSha256;
use veridb_common::PrfBackend;

/// Cell-kind domain separator: record payload cells.
pub const KIND_DATA: u8 = 0;
/// Cell-kind domain separator: page-metadata (slot directory) cells.
pub const KIND_META: u8 = 1;

/// The HMAC-SHA-256 PRF.
///
/// The keyed HMAC state (the ipad/opad key schedule — two SHA-256
/// compressions) is precomputed once at construction and `clone()`d per
/// tag, instead of being rebuilt from the raw key on every call.
#[derive(Clone)]
pub struct PrfEngine {
    mac: HmacSha256,
}

impl PrfEngine {
    /// Key the PRF with a 32-byte enclave-derived key and the configured
    /// backend (`PrfBackend` has the one variant `HmacSha256`).
    pub fn new(backend: PrfBackend, key: [u8; 32]) -> Self {
        let PrfBackend::HmacSha256 = backend;
        PrfEngine {
            mac: HmacSha256::new(&key),
        }
    }

    /// PRF image of one memory event: `HMAC(key, addr ‖ kind ‖ ts ‖ data)`.
    pub fn tag(&self, addr: u64, kind: u8, data: &[u8], ts: u64) -> SetDigest {
        let mut header = [0u8; 17];
        header[..8].copy_from_slice(&addr.to_le_bytes());
        header[8] = kind;
        header[9..].copy_from_slice(&ts.to_le_bytes());
        let mut mac = self.mac.clone();
        mac.update(&header);
        mac.update(data);
        SetDigest(mac.finalize())
    }
}

impl std::fmt::Debug for PrfEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrfEngine(…)") // never print key material
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf(key: u8) -> PrfEngine {
        PrfEngine::new(PrfBackend::HmacSha256, [key; 32])
    }

    #[test]
    fn backends_are_deterministic() {
        assert_eq!(
            prf(7).tag(42, KIND_DATA, b"payload", 9),
            prf(7).tag(42, KIND_DATA, b"payload", 9)
        );
    }

    #[test]
    fn any_field_change_changes_the_tag() {
        let p = prf(7);
        let base = p.tag(42, KIND_DATA, b"payload", 9);
        assert_ne!(base, p.tag(43, KIND_DATA, b"payload", 9), "addr");
        assert_ne!(base, p.tag(42, KIND_META, b"payload", 9), "kind");
        assert_ne!(base, p.tag(42, KIND_DATA, b"payloae", 9), "data");
        assert_ne!(base, p.tag(42, KIND_DATA, b"payload", 10), "ts");
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(prf(1).tag(1, 0, b"x", 1), prf(2).tag(1, 0, b"x", 1));
    }
}
