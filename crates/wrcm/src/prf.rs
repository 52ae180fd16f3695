//! The keyed pseudo-random function for set-digest contributions.
//!
//! Each memory event `(addr, kind, data, ts)` is mapped to a 16-byte PRF
//! image which is XOR-folded into `h(RS)` / `h(WS)`. The PRF is a
//! Carter–Wegman-style hash-then-encrypt:
//!
//! ```text
//! S     = POLYVAL(H, addr ‖ kind, data, ts, len(data))
//! image = AES-128_K(S)
//! ```
//!
//! POLYVAL is the GF(2¹²⁸) polynomial hash of RFC 8452 (AES-GCM-SIV). The
//! message is one header block (`addr` little-endian, then `kind`, zero
//! padded), `data` zero-padded to whole 16-byte blocks, one `ts` block and
//! one length block (the byte length of `data`, which tells `"x"` from
//! `"x\0"`). `H` and `K` are the two halves of the 32-byte enclave-derived
//! key. Because `ts` comes after the data, the hash state over
//! `addr ‖ kind ‖ data` does not depend on it: a verified read, which
//! consumes a cell under its old timestamp and re-inserts it under a new
//! one, hashes the cell once and finishes twice ([`PrfEngine::tag_pair`]).
//! DESIGN.md §2 gives the security argument.
//!
//! There are two bodies that compute the same thing. On an x86-64 CPU
//! with AES-NI and PCLMULQDQ (every SGX CPU has both) POLYVAL runs on
//! `pclmulqdq`, four blocks per reduction with `H¹..H⁴`, and the AES on
//! `aesenc`; anywhere else the portable body runs a carry-less multiply
//! built from integer products and a table AES, one block at a time. The CPU is
//! probed once and the answer cached ([`hardware_accelerated`]); nothing
//! configures the choice. The portable body is also the tests' oracle for
//! the hardware one, and both are pinned to the FIPS-197 and RFC 8452
//! vectors.
//!
//! The paper measures that RS/WS maintenance cost "is dominated almost
//! exclusively by PRF operations" — the `micro` bench's `prf` group and
//! Ablation 1 measure it.

use crate::digest::SetDigest;
use std::sync::OnceLock;
use veridb_common::PrfBackend;

/// Cell-kind domain separator: record payload cells.
pub const KIND_DATA: u8 = 0;
/// Cell-kind domain separator: page-metadata (slot directory) cells.
pub const KIND_META: u8 = 1;

/// POLYVAL and AES block size in bytes.
const BLOCK: usize = 16;

/// AES-128 round keys in FIPS-197 byte order (round 0 is the cipher key).
type RoundKeys = [[u8; BLOCK]; 11];

/// Whether the PRF runs on AES-NI and PCLMULQDQ in this process. The CPU
/// is probed on the first call and the answer cached.
pub fn hardware_accelerated() -> bool {
    static AES_CLMUL: OnceLock<bool> = OnceLock::new();
    *AES_CLMUL.get_or_init(cpu_has_aes_clmul)
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_aes_clmul() -> bool {
    is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_aes_clmul() -> bool {
    false
}

/// The PRF, keyed.
#[derive(Clone)]
pub struct PrfEngine {
    /// AES-128 round keys of `K`.
    aes: RoundKeys,
    /// `H¹..H⁴` under POLYVAL's product: `powers[i]` is `H^(i+1)`.
    powers: [u128; 4],
}

impl PrfEngine {
    /// Key the PRF with a 32-byte enclave-derived key: the first half is
    /// the AES key `K`, the second the hash key `H`. (`PrfBackend` has the
    /// one variant `HmacSha256`, which selects nothing; see its docs.)
    pub fn new(backend: PrfBackend, key: [u8; 32]) -> Self {
        let PrfBackend::HmacSha256 = backend;
        let (k, h) = key.split_at(BLOCK);
        let h = u128::from_le_bytes(h.try_into().expect("a 16-byte half"));
        let mut powers = [h; 4];
        for i in 1..4 {
            powers[i] = dot(powers[i - 1], h);
        }
        PrfEngine {
            aes: expand_key(k.try_into().expect("a 16-byte half")),
            powers,
        }
    }

    /// PRF image of one memory event `(addr, kind, data, ts)`.
    pub fn tag(&self, addr: u64, kind: u8, data: &[u8], ts: u64) -> SetDigest {
        let [t] = self.tags(addr, kind, data, [ts]);
        t
    }

    /// The images of one cell under two timestamps,
    /// `(tag(…, ts_old), tag(…, ts_new))`, hashing `addr ‖ kind ‖ data`
    /// once: a verified read's consumed and re-inserted elements. Counts
    /// as two PRF evaluations.
    pub fn tag_pair(
        &self,
        addr: u64,
        kind: u8,
        data: &[u8],
        ts_old: u64,
        ts_new: u64,
    ) -> (SetDigest, SetDigest) {
        let [old, new] = self.tags(addr, kind, data, [ts_old, ts_new]);
        (old, new)
    }

    /// The images of one cell under each timestamp of `ts`, on AES-NI and
    /// PCLMULQDQ when the CPU has them and on the portable body otherwise.
    fn tags<const N: usize>(
        &self,
        addr: u64,
        kind: u8,
        data: &[u8],
        ts: [u64; N],
    ) -> [SetDigest; N] {
        let header = u128::from(addr) | u128::from(kind) << 64;
        #[cfg(target_arch = "x86_64")]
        if hardware_accelerated() {
            // SAFETY: the CPU reports the aes and pclmulqdq features the
            // body is compiled for.
            return unsafe { x86::tags(self, header, data, ts) }.map(SetDigest);
        }
        tags_portable(self, header, data, ts).map(SetDigest)
    }
}

impl std::fmt::Debug for PrfEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrfEngine(…)") // never print key material
    }
}

// ---- portable body -----------------------------------------------------

/// The portable body: POLYVAL by Horner's rule, one block per product,
/// then the table AES. `header` is the header block: `addr` little-endian
/// in bytes 0..8, `kind` in byte 8.
fn tags_portable<const N: usize>(
    keys: &PrfEngine,
    header: u128,
    data: &[u8],
    ts: [u64; N],
) -> [[u8; BLOCK]; N] {
    let h = keys.powers[0];
    let mut s = dot(header, h);
    for chunk in data.chunks(BLOCK) {
        let mut block = [0u8; BLOCK];
        block[..chunk.len()].copy_from_slice(chunk);
        s = dot(s ^ u128::from_le_bytes(block), h);
    }
    let len = data.len() as u128;
    ts.map(|t| {
        encrypt(
            &keys.aes,
            dot(dot(s ^ u128::from(t), h) ^ len, h).to_le_bytes(),
        )
    })
}

/// POLYVAL's product in GF(2¹²⁸) (RFC 8452 §3): `a·b·x⁻¹²⁸` modulo
/// `x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1`, where bit `i` of the integer is the
/// coefficient of `xⁱ`.
fn dot(a: u128, b: u128) -> u128 {
    let (a0, a1) = (a as u64, (a >> 64) as u64);
    let (b0, b1) = (b as u64, (b >> 64) as u64);
    // Karatsuba: three 64-bit products.
    let lo = clmul64(a0, b0);
    let hi = clmul64(a1, b1);
    let mid = clmul64(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    reduce(lo ^ mid << 64, hi ^ mid >> 64)
}

/// The bits of a `u128` whose position is a multiple of 5.
const EVERY_FIFTH: u128 = {
    let (mut m, mut i) = (0u128, 0);
    while i < 128 {
        m |= 1 << i;
        i += 5;
    }
    m
};

/// Carry-less 64 × 64 → 128-bit product by integer multiplication. Both
/// operands are split into five classes of bits by position mod 5; each
/// class holds at most 13 bits, so a column of an integer product sums at
/// most 13 terms, its carries stay in the four columns above it, and the
/// columns of the class the product lands in hold exactly the parities
/// the carry-less product wants.
fn clmul64(a: u64, b: u64) -> u128 {
    let m = EVERY_FIFTH as u64;
    let split = |x: u64| [0, 1, 2, 3, 4].map(|c| u128::from(x & m << c));
    let (a, b) = (split(a), split(b));
    let mut r = 0;
    for class in 0..5 {
        let mut z = 0;
        for (i, a) in a.iter().enumerate() {
            z ^= a * b[(class + 5 - i) % 5];
        }
        r |= z & EVERY_FIFTH << class;
    }
    r
}

/// Montgomery reduction of the 256-bit `hi·x¹²⁸ + lo`: multiplies by
/// `x⁻¹²⁸` modulo P by twice adding the multiple of P that clears the
/// lowest 64 bits, then dropping the low half.
fn reduce(lo: u128, hi: u128) -> u128 {
    // P = x¹²⁸ + x⁶⁴·(x⁶³ + x⁶² + x⁵⁷) + 1; `c(d)` is d·(x⁶³ + x⁶² + x⁵⁷).
    let c = |d: u64| {
        let d = u128::from(d);
        d << 57 ^ d << 62 ^ d << 63
    };
    let d0 = lo as u64;
    let t = c(d0);
    let d1 = (lo >> 64) as u64 ^ t as u64;
    hi ^ t >> 64 ^ u128::from(d0) ^ c(d1) ^ u128::from(d1) << 64
}

/// The AES S-box, derived from the multiplicative inverse in GF(2⁸) and
/// the FIPS-197 affine map (`p` walks the powers of the generator 3, `q`
/// its inverse).
const SBOX: [u8; 256] = {
    let mut s = [0u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p ^= (p << 1) ^ if p & 0x80 != 0 { 0x1b } else { 0 };
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        s[p as usize] =
            q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4) ^ 0x63;
        if p == 1 {
            break;
        }
    }
    s[0] = 0x63;
    s
};

/// Multiplication by `x` in GF(2⁸).
fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

/// The AES-128 key schedule (FIPS-197 §5.2).
fn expand_key(key: [u8; BLOCK]) -> RoundKeys {
    let mut w = [[0u8; 4]; 44];
    for (i, word) in key.chunks_exact(4).enumerate() {
        w[i].copy_from_slice(word);
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t = [
                SBOX[t[1] as usize] ^ rcon,
                SBOX[t[2] as usize],
                SBOX[t[3] as usize],
                SBOX[t[0] as usize],
            ];
            rcon = xtime(rcon);
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ t[j];
        }
    }
    let mut rk = [[0u8; BLOCK]; 11];
    for (r, key) in rk.iter_mut().enumerate() {
        for (c, word) in w[4 * r..4 * r + 4].iter().enumerate() {
            key[4 * c..4 * c + 4].copy_from_slice(word);
        }
    }
    rk
}

/// The AES-128 cipher (FIPS-197 §5.1). It indexes a table by secret
/// bytes, so it runs only on CPUs without AES-NI.
fn encrypt(rk: &RoundKeys, block: [u8; BLOCK]) -> [u8; BLOCK] {
    let mut s = block;
    for (b, k) in s.iter_mut().zip(&rk[0]) {
        *b ^= k;
    }
    for (round, key) in rk.iter().enumerate().skip(1) {
        // SubBytes and ShiftRows: byte `r + 4c` takes row r from column
        // `c + r`.
        let mut t = [0u8; BLOCK];
        for (i, b) in t.iter_mut().enumerate() {
            let (r, c) = (i % 4, i / 4);
            *b = SBOX[s[r + 4 * ((c + r) % 4)] as usize];
        }
        if round < 10 {
            for col in t.chunks_exact_mut(4) {
                let [a0, a1, a2, a3] = [col[0], col[1], col[2], col[3]];
                let all = a0 ^ a1 ^ a2 ^ a3;
                col[0] ^= all ^ xtime(a0 ^ a1);
                col[1] ^= all ^ xtime(a1 ^ a2);
                col[2] ^= all ^ xtime(a2 ^ a3);
                col[3] ^= all ^ xtime(a3 ^ a0);
            }
        }
        for (b, (t, k)) in s.iter_mut().zip(t.iter().zip(key)) {
            *b = t ^ k;
        }
    }
    s
}

// ---- AES-NI + PCLMULQDQ body -------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PrfEngine, RoundKeys, BLOCK};
    use std::arch::x86_64::*;

    /// An unreduced sum of 128 × 128-bit carry-less products, kept as its
    /// low, middle (cross terms, straddling bit 64) and high parts.
    #[derive(Clone, Copy)]
    struct Wide {
        lo: __m128i,
        mid: __m128i,
        hi: __m128i,
    }

    /// A `u128` in an XMM register, bit `i` in lane bit `i`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sse2` (part of the x86-64 baseline).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn lane(x: u128) -> __m128i {
        _mm_set_epi64x((x >> 64) as i64, x as i64)
    }

    /// `acc + a·b`, unreduced.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn mul_add(acc: Wide, a: __m128i, b: __m128i) -> Wide {
        Wide {
            lo: _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00)),
            mid: _mm_xor_si128(
                acc.mid,
                _mm_xor_si128(
                    _mm_clmulepi64_si128(a, b, 0x01),
                    _mm_clmulepi64_si128(a, b, 0x10),
                ),
            ),
            hi: _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11)),
        }
    }

    /// `a·b`, unreduced.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn mul(a: __m128i, b: __m128i) -> Wide {
        let zero = _mm_setzero_si128();
        mul_add(
            Wide {
                lo: zero,
                mid: zero,
                hi: zero,
            },
            a,
            b,
        )
    }

    /// `w·x⁻¹²⁸` modulo POLYVAL's polynomial: the portable `reduce`, with
    /// each `d·(x⁶³ + x⁶² + x⁵⁷)` one `pclmulqdq` by `0xc2 << 56` and
    /// each fold's word move one swap of the halves.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn reduce(w: Wide) -> __m128i {
        let poly = _mm_set_epi64x(0, 0xc200_0000_0000_0000_u64 as i64);
        let lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
        let hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));
        let t = _mm_clmulepi64_si128(lo, poly, 0x00);
        let x = _mm_xor_si128(_mm_shuffle_epi32(lo, 0x4e), t);
        let t = _mm_clmulepi64_si128(x, poly, 0x00);
        _mm_xor_si128(hi, _mm_xor_si128(_mm_shuffle_epi32(x, 0x4e), t))
    }

    /// AES-128 of each block, the blocks interleaved round by round.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes`.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt<const N: usize>(rk: &RoundKeys, mut b: [__m128i; N]) -> [[u8; BLOCK]; N] {
        let key = |r: &[u8; BLOCK]| _mm_loadu_si128(r.as_ptr().cast());
        let k = key(&rk[0]);
        for x in &mut b {
            *x = _mm_xor_si128(*x, k);
        }
        for r in &rk[1..10] {
            let k = key(r);
            for x in &mut b {
                *x = _mm_aesenc_si128(*x, k);
            }
        }
        let k = key(&rk[10]);
        let mut out = [[0u8; BLOCK]; N];
        for (o, x) in out.iter_mut().zip(b) {
            _mm_storeu_si128(o.as_mut_ptr().cast(), _mm_aesenclast_si128(x, k));
        }
        out
    }

    /// The hardware body: POLYVAL with one reduction per four data blocks
    /// (`(S ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕ X₄·H`), the tail of up to four
    /// blocks in one more, and one per finish; then the AES of every
    /// finish in one interleaved run.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `pclmulqdq`.
    #[target_feature(enable = "aes,pclmulqdq")]
    pub(super) unsafe fn tags<const N: usize>(
        keys: &PrfEngine,
        header: u128,
        data: &[u8],
        ts: [u64; N],
    ) -> [[u8; BLOCK]; N] {
        #[cfg(test)]
        super::tests::HW_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = keys.powers;
        let h = [lane(p[0]), lane(p[1]), lane(p[2]), lane(p[3])];
        let mut s = reduce(mul(lane(header), h[0]));
        let mut quads = data.chunks_exact(4 * BLOCK);
        for q in &mut quads {
            let p = q.as_ptr().cast::<__m128i>();
            let mut w = mul(_mm_xor_si128(s, _mm_loadu_si128(p)), h[3]);
            w = mul_add(w, _mm_loadu_si128(p.add(1)), h[2]);
            w = mul_add(w, _mm_loadu_si128(p.add(2)), h[1]);
            w = mul_add(w, _mm_loadu_si128(p.add(3)), h[0]);
            s = reduce(w);
        }
        let rest = quads.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 4 * BLOCK];
            buf[..rest.len()].copy_from_slice(rest);
            let n = rest.len().div_ceil(BLOCK);
            let p = buf.as_ptr().cast::<__m128i>();
            let mut w = mul(_mm_xor_si128(s, _mm_loadu_si128(p)), h[n - 1]);
            for i in 1..n {
                w = mul_add(w, _mm_loadu_si128(p.add(i)), h[n - 1 - i]);
            }
            s = reduce(w);
        }
        let len = lane(data.len() as u128);
        let mut fin = [_mm_setzero_si128(); N];
        for (f, t) in fin.iter_mut().zip(ts) {
            let w = mul(_mm_xor_si128(s, lane(u128::from(t))), h[1]);
            *f = reduce(mul_add(w, len, h[0]));
        }
        encrypt(&keys.aes, fin)
    }

    /// POLYVAL's product on the hardware body (test oracle access).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[cfg(test)]
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn dot(a: u128, b: u128) -> u128 {
        let mut out = 0u128;
        _mm_storeu_si128(
            (&mut out as *mut u128).cast(),
            reduce(mul(lane(a), lane(b))),
        );
        out
    }

    /// AES-128 of one block on the hardware body (test oracle access).
    ///
    /// # Safety
    ///
    /// The CPU must support `aes`.
    #[cfg(test)]
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_one(rk: &RoundKeys, block: [u8; BLOCK]) -> [u8; BLOCK] {
        let [out] = encrypt(rk, [_mm_loadu_si128(block.as_ptr().cast())]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use veridb_common::rng::{check, Rng};

    /// Calls of the hardware body.
    pub(super) static HW_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn prf(key: u8) -> PrfEngine {
        PrfEngine::new(PrfBackend::HmacSha256, [key; 32])
    }

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        let mut out = [0u8; N];
        for (o, pair) in out.iter_mut().zip(s.as_bytes().chunks(2)) {
            *o = u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
        }
        out
    }

    fn el(s: &str) -> u128 {
        u128::from_le_bytes(unhex(s))
    }

    /// Whether this CPU can run the hardware body; the tests that need it
    /// pass vacuously elsewhere.
    fn hw() -> bool {
        hardware_accelerated()
    }

    /// POLYVAL's product the slow way: shift-and-add `a·b mod P`, then
    /// divide by `x` 128 times (adding P first when the constant term is
    /// set).
    fn dot_bitwise(a: u128, b: u128) -> u128 {
        const P_LOW: u128 = 1 << 127 | 1 << 126 | 1 << 121 | 1;
        let mut r = 0u128;
        for i in (0..128).rev() {
            let carry = r >> 127;
            r <<= 1;
            if carry == 1 {
                r ^= P_LOW;
            }
            if b >> i & 1 == 1 {
                r ^= a;
            }
        }
        for _ in 0..128 {
            r = if r & 1 == 1 {
                (r ^ P_LOW) >> 1 | 1 << 127
            } else {
                r >> 1
            };
        }
        r
    }

    #[test]
    fn dispatcher_takes_the_hardware_body_on_an_aes_cpu() {
        let before = HW_RUNS.load(Relaxed);
        prf(1).tag(1, KIND_DATA, b"abc", 1);
        // Other tests only add to the count, so a rise is this tag's.
        let ran_hw = HW_RUNS.load(Relaxed) > before;
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq") {
            assert!(hw() && ran_hw, "AES-NI CPU, but the portable body ran");
            return;
        }
        assert!(!hw() && !ran_hw);
    }

    // FIPS-197 Appendix C.1 (AES-128) and the S-box corners of §5.1.1.
    #[test]
    fn fips_197_aes128_vector() {
        assert_eq!((SBOX[0x00], SBOX[0x01], SBOX[0x53]), (0x63, 0x7c, 0xed));
        let rk = expand_key(unhex("000102030405060708090a0b0c0d0e0f"));
        let pt = unhex("00112233445566778899aabbccddeeff");
        let want: [u8; 16] = unhex("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(encrypt(&rk, pt), want);
        // FIPS-197 Appendix A.1: the last round key of 2b7e1516….
        let rk = expand_key(unhex("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(rk[10], unhex::<16>("d014f9a8c9ee2589e13f0cc8b6630ca6"));
        #[cfg(target_arch = "x86_64")]
        if hw() {
            let rk = expand_key(unhex("000102030405060708090a0b0c0d0e0f"));
            // SAFETY: `hw()` reports the aes feature.
            assert_eq!(unsafe { x86::encrypt_one(&rk, pt) }, want);
        }
    }

    // RFC 8452 Appendix A: POLYVAL(H, X_1, X_2).
    #[test]
    fn rfc_8452_polyval_vector() {
        let h = el("25629347589242761d31f826ba4b757b");
        let x1 = el("4f4f95668c83dfb6401762bb2d01a262");
        let x2 = el("d1a24ddd2721d006bbe45f20d3c9f362");
        let want = el("f7a3b47b846119fae5b7866cf5e5b77e");
        assert_eq!(dot(dot(x1, h) ^ x2, h), want);
        assert_eq!(dot_bitwise(dot_bitwise(x1, h) ^ x2, h), want);
        #[cfg(target_arch = "x86_64")]
        if hw() {
            // SAFETY: `hw()` reports the pclmulqdq feature.
            assert_eq!(unsafe { x86::dot(x86::dot(x1, h) ^ x2, h) }, want);
        }
    }

    #[test]
    fn field_products_match_the_bitwise_oracle() {
        let u128_of = |rng: &mut Rng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        check(256, |rng| {
            let (a, b) = (u128_of(rng), u128_of(rng));
            let want = dot_bitwise(a, b);
            assert_eq!(dot(a, b), want, "portable {a:032x} · {b:032x}");
            #[cfg(target_arch = "x86_64")]
            if hw() {
                // SAFETY: `hw()` reports the pclmulqdq feature.
                assert_eq!(unsafe { x86::dot(a, b) }, want, "hardware");
            }
        });
        // All-ones operands load every column of the carry-less multiply.
        assert_eq!(dot(u128::MAX, u128::MAX), dot_bitwise(u128::MAX, u128::MAX));
    }

    /// The two bodies agree on random keys, at every data length from 0 to
    /// 600 bytes: empty data, partial tails of every width, and both sides
    /// of each 64-byte aggregation step.
    #[test]
    fn hardware_and_portable_bodies_agree() {
        #[cfg(target_arch = "x86_64")]
        if hw() {
            check(8, |rng| {
                let (mut key, mut data) = ([0u8; 32], [0u8; 600]);
                rng.fill_bytes(&mut key);
                rng.fill_bytes(&mut data);
                let keys = PrfEngine::new(PrfBackend::HmacSha256, key);
                let (hdr, ts) = (rng.next_u64().into(), [rng.next_u64(), rng.next_u64()]);
                for len in 0..=data.len() {
                    let d = &data[..len];
                    // SAFETY: `hw()` reports the aes and pclmulqdq features.
                    let got = unsafe { x86::tags(&keys, hdr, d, ts) };
                    assert_eq!(got, tags_portable(&keys, hdr, d, ts), "len {len}");
                }
            });
        }
    }

    #[test]
    fn tag_pair_is_two_tags() {
        check(256, |rng| {
            let p = prf(rng.gen_range(0..=255u8));
            let data = rng.vec(0..300, |r| r.next_u64() as u8);
            let (addr, kind) = (rng.next_u64(), rng.gen_range(0..=1u8));
            let (old, new) = (rng.next_u64(), rng.next_u64());
            assert_eq!(
                p.tag_pair(addr, kind, &data, old, new),
                (p.tag(addr, kind, &data, old), p.tag(addr, kind, &data, new))
            );
        });
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
        // Zero padding is not data: the length block tells these apart.
        assert_ne!(base, p.tag(42, KIND_DATA, b"payload\0", 9), "trailing zero");
        assert_ne!(
            p.tag(42, KIND_DATA, b"", 9),
            p.tag(42, KIND_DATA, &[0; 16], 9)
        );
        // A timestamp is not an address.
        assert_ne!(p.tag(9, KIND_DATA, b"", 42), p.tag(42, KIND_DATA, b"", 9));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(prf(1).tag(1, 0, b"x", 1), prf(2).tag(1, 0, b"x", 1));
        // Either half of the key alone changes the image.
        let mut k = [1u8; 32];
        let base = PrfEngine::new(PrfBackend::HmacSha256, k).tag(1, 0, b"x", 1);
        k[0] ^= 1;
        assert_ne!(
            PrfEngine::new(PrfBackend::HmacSha256, k).tag(1, 0, b"x", 1),
            base
        );
        k[0] ^= 1;
        k[31] ^= 1;
        assert_ne!(
            PrfEngine::new(PrfBackend::HmacSha256, k).tag(1, 0, b"x", 1),
            base
        );
    }
}
