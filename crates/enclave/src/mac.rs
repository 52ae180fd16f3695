//! Message authentication codes and key derivation.
//!
//! VeriDB authenticates the client↔portal channel with MACs over a
//! pre-exchanged key (§5.1): each query carries `MAC_k(qid ‖ sql)` and each
//! result is endorsed with `MAC_k(qid ‖ seq ‖ result-digest)`. We use
//! HMAC-SHA-256, with constant-time verification.

use veridb_common::sha256::{HmacSha256, Sha256};

/// Length in bytes of a MAC tag.
pub const MAC_LEN: usize = 32;

/// A MAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; MAC_LEN]);

impl std::fmt::Debug for Mac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mac({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A symmetric MAC key. The raw bytes are module-private; the key can only
/// sign and verify.
///
/// The HMAC key schedule (two SHA-256 compressions) is done once here and
/// the keyed state cloned per signature, as `wrcm::PrfEngine` does.
#[derive(Clone)]
pub struct MacKey {
    key: [u8; 32],
    keyed: HmacSha256,
}

impl MacKey {
    /// Wrap raw key bytes.
    pub fn new(key: [u8; 32]) -> Self {
        MacKey {
            key,
            keyed: HmacSha256::new(&key),
        }
    }

    /// Compute `HMAC-SHA256(key, len ‖ parts[0] ‖ len ‖ parts[1] ‖ …)`.
    /// Each part is length-framed so concatenation ambiguity cannot forge
    /// across field boundaries.
    pub fn sign(&self, parts: &[&[u8]]) -> Mac {
        let mut mac = self.keyed.clone();
        for p in parts {
            mac.update(&(p.len() as u64).to_le_bytes());
            mac.update(p);
        }
        Mac(mac.finalize())
    }

    /// Export the raw key bytes as the simulated attested key-exchange
    /// payload. In real SGX the channel key would be established inside the
    /// attested TLS handshake; in this simulation the server hands the key
    /// to a client that has verified the enclave quote. The only caller is
    /// the attestation handshake — the key never appears in logs or Debug.
    pub fn key_exchange_bytes(&self) -> [u8; 32] {
        self.key
    }

    /// Verify `tag` over `parts` in constant time: every byte pair is
    /// XOR-folded, with no early exit on the first difference.
    pub fn verify(&self, parts: &[&[u8]], tag: &Mac) -> bool {
        let want = self.sign(parts);
        let diff = want
            .0
            .iter()
            .zip(&tag.0)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        std::hint::black_box(diff) == 0
    }
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MacKey(…)") // never print key bytes
    }
}

/// Derive a 32-byte sub-key: `SHA256(parent ‖ label)` through HMAC
/// (HKDF-style extract-and-expand collapsed to one step, which is fine for
/// fixed-length uniform parents).
pub fn derive_key(parent: &[u8; 32], label: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(parent);
    mac.update(label);
    mac.finalize()
}

/// SHA-256 convenience used by attestation and result digests.
pub fn sha256(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let k = MacKey::new([3u8; 32]);
        let tag = k.sign(&[b"hello", b"world"]);
        assert!(k.verify(&[b"hello", b"world"], &tag));
    }

    #[test]
    fn tampered_message_fails() {
        let k = MacKey::new([3u8; 32]);
        let tag = k.sign(&[b"hello"]);
        assert!(!k.verify(&[b"hellO"], &tag));
    }

    #[test]
    fn any_single_flipped_tag_bit_fails() {
        let k = MacKey::new([3u8; 32]);
        let tag = k.sign(&[b"hello"]);
        for bit in 0..MAC_LEN * 8 {
            let mut bad = tag;
            bad.0[bit / 8] ^= 1 << (bit % 8);
            assert!(!k.verify(&[b"hello"], &bad), "bit {bit}");
        }
    }

    #[test]
    fn tags_match_plain_hmac_sha256() {
        // The framing is part of the wire format: len(part) as u64 LE,
        // then the part, for every part.
        let k = MacKey::new([7u8; 32]);
        let mut plain = HmacSha256::new(&[7u8; 32]);
        plain.update(&3u64.to_le_bytes());
        plain.update(b"qid");
        assert_eq!(k.sign(&[b"qid"]).0, plain.finalize());
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = MacKey::new([3u8; 32]);
        let k2 = MacKey::new([4u8; 32]);
        let tag = k1.sign(&[b"hello"]);
        assert!(!k2.verify(&[b"hello"], &tag));
    }

    #[test]
    fn length_framing_prevents_boundary_shifts() {
        let k = MacKey::new([5u8; 32]);
        let tag = k.sign(&[b"ab", b"c"]);
        // Same concatenated bytes, different field split: must not verify.
        assert!(!k.verify(&[b"a", b"bc"], &tag));
        assert!(!k.verify(&[b"abc"], &tag));
    }

    #[test]
    fn key_derivation_is_deterministic_and_separated() {
        let parent = [9u8; 32];
        assert_eq!(derive_key(&parent, b"a"), derive_key(&parent, b"a"));
        assert_ne!(derive_key(&parent, b"a"), derive_key(&parent, b"b"));
        assert_ne!(derive_key(&parent, b"a"), derive_key(&[8u8; 32], b"a"));
    }

    #[test]
    fn debug_never_prints_key_material() {
        let k = MacKey::new([0xAB; 32]);
        let s = format!("{k:?}");
        assert!(!s.to_lowercase().contains("ab"));
    }
}
