//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
//!
//! Shared by the network frame codec and the write-ahead-log record codec.
//! A CRC is *hygiene*, not integrity: it catches accidental corruption
//! (truncated writes, bit rot, torn tails) early and cheaply, but an
//! adversary can recompute it. Integrity always rests on MACs computed
//! inside the enclave trust domain.

/// CRC-32 over `data` (IEEE check value: `crc32(b"123456789") == 0xCBF43926`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 over the concatenation of `parts`, fed one after another with
/// no copy into a joined buffer (e.g. a frame's kind byte, then its
/// payload).
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    // Build the table on first use; 1 KiB, cheap to race.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for part in parts {
        for &b in *part {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
