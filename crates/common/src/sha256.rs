//! SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).
//!
//! These sit inside the trust boundary: the HMAC is the PRF behind the
//! RS/WS digests and the portal MACs, and SHA-256 hashes attestation
//! measurements, result digests, snapshots and MB-Tree nodes.
//!
//! The compression function has two bodies that compute the same thing.
//! On an x86-64 CPU with the SHA extensions (SHA-NI, also available inside
//! SGX enclaves) it runs `sha256rnds2`/`sha256msg1`/`sha256msg2` and keeps
//! the state in XMM registers across a whole run of blocks; anywhere else
//! it runs the portable round loop. The CPU is probed once and the answer
//! cached ([`hardware_accelerated`]); nothing configures the choice. The
//! portable body is also the tests' oracle for the hardware one, and both
//! are pinned to the FIPS 180-4 and RFC 4231 vectors.

use std::sync::OnceLock;

/// SHA-256 block size in bytes (HMAC pads keys to this).
const BLOCK_LEN: usize = 64;
/// SHA-256 digest size in bytes.
const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression body: folds a run of whole 64-byte blocks (`blocks.len()`
/// is a multiple of [`BLOCK_LEN`]) into the state `h`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Whether SHA-256 runs on the CPU's SHA extensions in this process. The
/// CPU is probed on the first call and the answer cached.
pub fn hardware_accelerated() -> bool {
    static SHA_NI: OnceLock<bool> = OnceLock::new();
    *SHA_NI.get_or_init(cpu_has_sha_ni)
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_sha_ni() -> bool {
    false
}

/// The dispatched compression body: SHA-NI when the CPU has it, the
/// portable loop otherwise.
fn compress(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if hardware_accelerated() {
        // SAFETY: the CPU reports the sha, ssse3 and sse4.1 features the
        // body is compiled for.
        return unsafe { compress_sha_ni(h, blocks) };
    }
    compress_portable(h, blocks);
}

/// The portable compression body: the FIPS 180-4 round loop, one block at
/// a time.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for (k, w) in K.iter().zip(w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*k)
                .wrapping_add(w);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(s0.wrapping_add(maj));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
}

/// The SHA-NI compression body. The state lives in two registers in the
/// layout `sha256rnds2` wants, `abef` and `cdgh` (high lane first), for
/// the whole run of blocks; each `sha256rnds2` does two rounds, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
///
/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_sha_ni(h: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    #[cfg(test)]
    tests::SHA_NI_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    // Byte order of each 32-bit word, big-endian message to lanes.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let state = h.as_mut_ptr().cast::<__m128i>();
    let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state), 0xb1);
    let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.add(1)), 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let src = block.as_ptr().cast::<__m128i>();
        // w[i % 4] holds message words 4i..4i+4 for quad `i` of rounds.
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(src), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(src.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(src.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(src.add(3)), bswap),
        ];

        // Four rounds on message quad `$i`; `sched` first derives the quad
        // from the four before it (quads 4 to 15).
        macro_rules! quad {
            (@rounds $i:literal) => {{
                let k = _mm_loadu_si128(K.as_ptr().add(4 * $i).cast());
                let wk = _mm_add_epi32(w[$i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
            (sched $i:literal) => {{
                let (q0, q1, q2, q3) = ($i % 4, ($i + 1) % 4, ($i + 2) % 4, ($i + 3) % 4);
                let t = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[q0], w[q1]),
                    _mm_alignr_epi8(w[q3], w[q2], 4),
                );
                w[q0] = _mm_sha256msg2_epu32(t, w[q3]);
                quad!(@rounds $i)
            }};
            ($i:literal) => {
                quad!(@rounds $i)
            };
        }
        quad!(0);
        quad!(1);
        quad!(2);
        quad!(3);
        quad!(sched 4);
        quad!(sched 5);
        quad!(sched 6);
        quad!(sched 7);
        quad!(sched 8);
        quad!(sched 9);
        quad!(sched 10);
        quad!(sched 11);
        quad!(sched 12);
        quad!(sched 13);
        quad!(sched 14);
        quad!(sched 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(state, _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(state.add(1), _mm_alignr_epi8(dchg, feba, 8));
}

/// Incremental SHA-256.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            h: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Pad, finish and return the digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finish(compress)
    }

    /// Absorb `data` through `body`: top up a partial block, then hand
    /// every whole block of `data` to `body` in one run, in place.
    fn absorb(&mut self, mut data: &[u8], body: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            body(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            body(&mut self.h, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pad through `body` (one or two blocks, in one run) and return the
    /// digest.
    fn finish(mut self, body: Compress) -> [u8; DIGEST_LEN] {
        let n = self.buf_len;
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let end = if n < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        body(&mut self.h, &tail[..end]);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// HMAC-SHA-256 with the keyed state precomputed: `new` absorbs
/// `key ⊕ ipad` and `key ⊕ opad` (one compression each), so a clone of a
/// keyed value signs a message without redoing the key schedule.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Key a MAC. Keys longer than a block are hashed first (RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(key, compress)
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finish(compress)
    }

    /// Key a MAC, hashing through `body`.
    fn keyed(key: &[u8], body: Compress) -> Self {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::new();
            h.absorb(key, body);
            block[..DIGEST_LEN].copy_from_slice(&h.finish(body));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.absorb(&block.map(|b| b ^ 0x36), body);
        let mut outer = Sha256::new();
        outer.absorb(&block.map(|b| b ^ 0x5c), body);
        HmacSha256 { inner, outer }
    }

    /// Finish through `body`.
    fn finish(self, body: Compress) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.absorb(&self.inner.finish(body), body);
        outer.finish(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, Rng};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Calls of the SHA-NI body.
    pub(super) static SHA_NI_RUNS: AtomicUsize = AtomicUsize::new(0);

    /// Both bodies: the portable oracle and the dispatched one (SHA-NI on
    /// a CPU with the SHA extensions, see
    /// `dispatcher_takes_the_hardware_body_on_a_sha_cpu`).
    const PATHS: [(&str, Compress); 2] =
        [("portable", compress_portable), ("dispatched", compress)];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn digest_on(body: Compress, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for p in parts {
            h.absorb(p, body);
        }
        h.finish(body)
    }

    fn hmac_on(body: Compress, key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut m = HmacSha256::keyed(key, body);
        for p in parts {
            m.inner.absorb(p, body);
        }
        m.finish(body)
    }

    #[test]
    fn dispatcher_takes_the_hardware_body_on_a_sha_cpu() {
        let before = SHA_NI_RUNS.load(Relaxed);
        Sha256::digest(b"abc");
        // Other tests only add to the count, so a rise is this digest's.
        let ran_sha_ni = SHA_NI_RUNS.load(Relaxed) > before;
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") {
            assert!(
                hardware_accelerated() && ran_sha_ni,
                "SHA CPU, but the portable body ran"
            );
            return;
        }
        assert!(!hardware_accelerated() && !ran_sha_ni);
    }

    // FIPS 180-4 example vectors (NIST CSRC "SHA256.pdf", "SHA2_Additional").
    #[test]
    fn fips_180_4_vectors() {
        for (msg, want) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ] {
            assert_eq!(hex(&Sha256::digest(msg)), want, "{msg:?}");
            for (path, body) in PATHS {
                assert_eq!(hex(&digest_on(body, &[msg])), want, "{path}: {msg:?}");
            }
        }
    }

    #[test]
    fn one_million_a() {
        let chunk = [b'a'; 1000];
        for (path, body) in PATHS {
            assert_eq!(
                hex(&digest_on(body, &[&chunk[..]; 1000])),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
        // Byte-at-a-time through every padding boundary.
        for len in 50..=130 {
            let mut h = Sha256::new();
            for b in &data[..len] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data[..len]), "len {len}");
        }
    }

    /// `data` cut at up to four random points.
    fn random_split<'a>(rng: &mut Rng, data: &'a [u8]) -> Vec<&'a [u8]> {
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..=4usize))
            .map(|_| rng.gen_range(0..=data.len()))
            .collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            parts.push(&data[at..cut]);
            at = cut;
        }
        parts
    }

    #[test]
    fn dispatched_path_matches_the_portable_oracle() {
        check(300, |rng| {
            let mut data = vec![0u8; rng.gen_range(0..=1024usize)];
            rng.fill_bytes(&mut data);
            let mut key = vec![0u8; rng.gen_range(0..=100usize)];
            rng.fill_bytes(&mut key);
            let oracle = digest_on(compress_portable, &random_split(rng, &data));
            let mut h = Sha256::new();
            random_split(rng, &data).iter().for_each(|p| h.update(p));
            assert_eq!(h.finalize(), oracle, "digest of {} bytes", data.len());

            let oracle = hmac_on(compress_portable, &key, &random_split(rng, &data));
            let mut m = HmacSha256::new(&key);
            random_split(rng, &data).iter().for_each(|p| m.update(p));
            assert_eq!(m.finalize(), oracle, "tag of {} bytes", data.len());
        });
    }

    #[test]
    fn bodies_agree_on_chained_runs_of_blocks() {
        let mut rng = Rng::seed_from_u64(7);
        let (mut hw, mut portable) = (H0, H0);
        for _ in 0..200 {
            let mut run = vec![0u8; BLOCK_LEN * rng.gen_range(1..=4usize)];
            rng.fill_bytes(&mut run);
            compress(&mut hw, &run);
            compress_portable(&mut portable, &run);
            assert_eq!(hw, portable);
        }
    }

    // RFC 4231 §4.2–4.8, HMAC-SHA-256 column. Case 5 truncates its
    // output to 128 bits and is not a full-tag vector.
    #[test]
    fn rfc_4231_vectors() {
        let case4_key: Vec<u8> = (1..=25).collect();
        for (key, data, want) in [
            (
                &[0x0b; 20][..],
                &b"Hi There"[..],
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ] {
            assert_eq!(hmac(key, data), want, "key {} bytes", key.len());
            for (path, body) in PATHS {
                let got = hex(&hmac_on(body, key, &[data]));
                assert_eq!(got, want, "{path}: key {} bytes", key.len());
            }
        }
    }

    fn hmac(key: &[u8], data: &[u8]) -> String {
        let mut m = HmacSha256::new(key);
        m.update(data);
        hex(&m.finalize())
    }

    #[test]
    fn cloned_keyed_state_matches_fresh_key() {
        let keyed = HmacSha256::new(b"key");
        for msg in [&b""[..], b"a", &[7u8; 200]] {
            let mut a = keyed.clone();
            a.update(msg);
            assert_eq!(hex(&a.finalize()), hmac(b"key", msg));
        }
    }
}
