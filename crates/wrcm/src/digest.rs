//! XOR-aggregated set digests.
//!
//! A [`SetDigest`] is the accumulator for `h(RS)` / `h(WS)`: the XOR-sum of
//! PRF images of set elements. XOR gives the two properties the protocol
//! needs: commutativity (elements arrive in any order under concurrency)
//! and self-inverse (folding the same element twice removes it, which is
//! how a read "consumes" the matching write).
//!
//! The paper stores 64-byte digest arrays; we use 16 bytes, one AES block
//! (the PRF's output, see [`crate::prf`]), so a fold is one 128-bit XOR.
//! The images never leave the enclave and the adversary learns only
//! whether a pass balanced, so 128 bits bound a forgery near 2⁻¹²⁸ per
//! attempt; the deviation and its argument are in DESIGN.md §2.

/// Byte length of a set digest.
pub const DIGEST_LEN: usize = 16;

/// An XOR-aggregated digest of a set of PRF images.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SetDigest(pub [u8; DIGEST_LEN]);

impl SetDigest {
    /// The identity element (empty set).
    pub const ZERO: SetDigest = SetDigest([0u8; DIGEST_LEN]);

    /// Fold another digest in (add or remove an element — XOR is its own
    /// inverse).
    pub fn fold(&mut self, other: &SetDigest) {
        self.0 = (u128::from_ne_bytes(self.0) ^ u128::from_ne_bytes(other.0)).to_ne_bytes();
    }

    /// `self XOR other` without mutation.
    pub fn folded(mut self, other: &SetDigest) -> SetDigest {
        self.fold(other);
        self
    }

    /// True for the empty-set digest.
    pub fn is_zero(&self) -> bool {
        u128::from_ne_bytes(self.0) == 0
    }

    /// Hex rendering for logs and evidence dumps.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for &b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0x0f) as usize] as char);
        }
        s
    }
}

impl std::fmt::Debug for SetDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SetDigest({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(b: u8) -> SetDigest {
        SetDigest([b; DIGEST_LEN])
    }

    #[test]
    fn xor_algebra() {
        let mut acc = SetDigest::ZERO;
        acc.fold(&d(0xAA));
        acc.fold(&d(0x55));
        assert_eq!(acc, d(0xFF));
        acc.fold(&d(0x55)); // removing restores
        assert_eq!(acc, d(0xAA));
        acc.fold(&d(0xAA));
        assert!(acc.is_zero());
    }

    #[test]
    fn fold_is_commutative() {
        let mut a = SetDigest::ZERO;
        a.fold(&d(1));
        a.fold(&d(2));
        a.fold(&d(3));
        let mut b = SetDigest::ZERO;
        b.fold(&d(3));
        b.fold(&d(1));
        b.fold(&d(2));
        assert_eq!(a, b);
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(SetDigest::ZERO.to_hex(), "0".repeat(2 * DIGEST_LEN));
        assert!(d(0xAB).to_hex().starts_with("abab"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use veridb_common::rng::{check, Rng};

    fn arb_digest(rng: &mut Rng) -> SetDigest {
        let mut d = [0u8; DIGEST_LEN];
        rng.fill_bytes(&mut d);
        SetDigest(d)
    }

    #[test]
    fn fold_self_inverse() {
        check(256, |rng| {
            let (a, b) = (arb_digest(rng), arb_digest(rng));
            let mut acc = a;
            acc.fold(&b);
            acc.fold(&b);
            assert_eq!(acc, a);
        });
    }

    #[test]
    fn fold_associative() {
        check(256, |rng| {
            let (a, b, c) = (arb_digest(rng), arb_digest(rng), arb_digest(rng));
            let left = a.folded(&b).folded(&c);
            let right = a.folded(&b.folded(&c));
            assert_eq!(left, right);
        });
    }

    #[test]
    fn to_hex_round_trips() {
        check(256, |rng| {
            let d = arb_digest(rng);
            let hex = d.to_hex();
            assert_eq!(hex.len(), DIGEST_LEN * 2);
            assert!(
                hex.bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()),
                "hex must be lowercase hexadecimal: {hex}"
            );
            let mut back = [0u8; DIGEST_LEN];
            for (i, pair) in hex.as_bytes().chunks(2).enumerate() {
                let nibble = |c: u8| {
                    if c.is_ascii_digit() {
                        c - b'0'
                    } else {
                        c - b'a' + 10
                    }
                };
                back[i] = (nibble(pair[0]) << 4) | nibble(pair[1]);
            }
            assert_eq!(SetDigest(back), d);
        });
    }

    #[test]
    fn to_hex_is_injective() {
        check(256, |rng| {
            let (a, b) = (arb_digest(rng), arb_digest(rng));
            assert_eq!(a.to_hex() == b.to_hex(), a == b);
        });
    }

    #[test]
    fn any_permutation_same_digest() {
        check(256, |rng| {
            let elems = rng.vec(0..16, arb_digest);
            let seed = rng.next_u64();
            let mut forward = SetDigest::ZERO;
            for e in &elems {
                forward.fold(e);
            }
            // a deterministic shuffle driven by the seed
            let mut shuffled = elems.clone();
            let mut s = seed;
            for i in (1..shuffled.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (s >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let mut backward = SetDigest::ZERO;
            for e in &shuffled {
                backward.fold(e);
            }
            assert_eq!(forward, backward);
        });
    }
}
