//! The log-record codec and MAC chain.
//!
//! A record is *logical*: it carries the SQL statement the engine
//! committed, not page images. Replaying the statements through the same
//! protected write path rebuilds the verified state (including `h(WS)`)
//! deterministically, so the log doubles as the replication stream.
//!
//! On the wire / on disk each record is framed as
//!
//! ```text
//! len:u32 ‖ crc:u32 ‖ body
//! body = lsn:u64 ‖ epoch:u64 ‖ seq_high_water:u64 ‖ kind:u8 ‖ sql:bytes ‖ mac:32B
//! ```
//!
//! The CRC is hygiene (torn-tail detection on the host's disk); integrity
//! is the MAC chain: `mac_i = MAC(key, "wal-record" ‖ mac_{i-1} ‖ lsn ‖
//! epoch ‖ seq ‖ kind ‖ sql)` starting from [`GENESIS_MAC`]. A host that
//! reorders, drops, or edits any interior record breaks the chain for
//! every later record.

use veridb_common::codec::{put_bytes, put_u32, put_u64, Reader};
use veridb_common::crc::crc32;
use veridb_common::{Error, Result};
use veridb_enclave::mac::{Mac, MacKey, MAC_LEN};

/// A kind byte for the tests: `veridb_query::stmt_kind::INSERT`. Any
/// byte round-trips, since the log never interprets kinds.
#[cfg(test)]
pub(crate) const KIND_INSERT: u8 = 3;

/// Ceiling on one framed record body; anything larger in a length header
/// is treated as corruption, bounding allocation on hostile input.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// The chain anchor for the first record (lsn 1).
pub const GENESIS_MAC: Mac = Mac([0u8; MAC_LEN]);

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_OVERHEAD: usize = 8;

/// One MAC-chained logical log record.
#[derive(Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number, contiguous from 1.
    pub lsn: u64,
    /// Sealed epoch the record was appended under.
    pub epoch: u64,
    /// Enclave timestamp high-water mark at append time; recovery raises
    /// the restarted enclave's counter past the max so endorsement
    /// sequence numbers never repeat.
    pub seq_high_water: u64,
    /// The statement kind, one of the engine's `veridb_query::stmt_kind`
    /// values. The log stores and MACs it but never interprets it.
    pub kind: u8,
    /// The committed SQL statement, verbatim.
    pub sql: String,
    /// Chain MAC over this record and its predecessor's MAC.
    pub mac: Mac,
}

impl std::fmt::Debug for LogRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogRecord")
            .field("lsn", &self.lsn)
            .field("epoch", &self.epoch)
            .field("seq_high_water", &self.seq_high_water)
            .field("kind", &self.kind)
            .field("sql", &self.sql)
            .finish_non_exhaustive()
    }
}

impl LogRecord {
    /// The chain MAC for a record with the given fields following a
    /// predecessor whose MAC was `prev`.
    pub fn chain_mac(
        key: &MacKey,
        prev: &Mac,
        lsn: u64,
        epoch: u64,
        seq_high_water: u64,
        kind: u8,
        sql: &str,
    ) -> Mac {
        key.sign(&[
            b"wal-record",
            &prev.0,
            &lsn.to_le_bytes(),
            &epoch.to_le_bytes(),
            &seq_high_water.to_le_bytes(),
            &[kind],
            sql.as_bytes(),
        ])
    }

    /// Build a record chained onto `prev`.
    pub fn new_chained(
        key: &MacKey,
        prev: &Mac,
        lsn: u64,
        epoch: u64,
        seq_high_water: u64,
        kind: u8,
        sql: String,
    ) -> LogRecord {
        let mac = Self::chain_mac(key, prev, lsn, epoch, seq_high_water, kind, &sql);
        LogRecord {
            lsn,
            epoch,
            seq_high_water,
            kind,
            sql,
            mac,
        }
    }

    /// Whether this record's MAC correctly chains onto `prev` under `key`.
    pub fn verify_chain(&self, key: &MacKey, prev: &Mac) -> bool {
        key.verify(
            &[
                b"wal-record",
                &prev.0,
                &self.lsn.to_le_bytes(),
                &self.epoch.to_le_bytes(),
                &self.seq_high_water.to_le_bytes(),
                &[self.kind],
                self.sql.as_bytes(),
            ],
            &self.mac,
        )
    }

    /// Encode the body (everything after the frame header).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 * 3 + 1 + 4 + self.sql.len() + MAC_LEN);
        put_u64(&mut buf, self.lsn);
        put_u64(&mut buf, self.epoch);
        put_u64(&mut buf, self.seq_high_water);
        buf.push(self.kind);
        put_bytes(&mut buf, self.sql.as_bytes());
        buf.extend_from_slice(&self.mac.0);
        buf
    }

    /// Append the framed record (`len ‖ crc ‖ body`) to `out`.
    pub fn encode_framed(&self, out: &mut Vec<u8>) {
        let body = self.encode_body();
        put_u32(out, body.len() as u32);
        put_u32(out, crc32(&body));
        out.extend_from_slice(&body);
    }

    /// The framed record as a standalone byte vector.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_framed(&mut out);
        out
    }

    /// Decode a record body. Errors with [`Error::Codec`] on truncation,
    /// trailing garbage, or invalid UTF-8 — never panics.
    pub fn decode_body(body: &[u8]) -> Result<LogRecord> {
        let mut r = Reader::new(body);
        let lsn = r.get_u64()?;
        let epoch = r.get_u64()?;
        let seq_high_water = r.get_u64()?;
        let kind = r.get_u8()?;
        let sql = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| Error::Codec("log record sql is not UTF-8".into()))?;
        if r.remaining() != MAC_LEN {
            return Err(Error::Codec(format!(
                "log record mac is {} bytes, expected {MAC_LEN}",
                r.remaining()
            )));
        }
        let mut mac = [0u8; MAC_LEN];
        for b in mac.iter_mut() {
            *b = r.get_u8()?;
        }
        Ok(LogRecord {
            lsn,
            epoch,
            seq_high_water,
            kind,
            sql,
            mac: Mac(mac),
        })
    }
}

/// Scan a byte buffer of framed records, returning every cleanly decodable
/// record from the front plus the byte length of that clean prefix.
///
/// This never errors: the first frame that is truncated, oversized, fails
/// its CRC, or fails body decoding simply ends the scan. The caller decides
/// whether a short clean prefix is a legal torn tail (last segment only) or
/// evidence of tampering (any earlier segment).
pub fn scan_records(buf: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        let rest = &buf[off..];
        if rest.len() < FRAME_OVERHEAD {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES || rest.len() - FRAME_OVERHEAD < len {
            break;
        }
        let body = &rest[FRAME_OVERHEAD..FRAME_OVERHEAD + len];
        if crc32(body) != crc {
            break;
        }
        match LogRecord::decode_body(body) {
            Ok(rec) => {
                records.push(rec);
                off += FRAME_OVERHEAD + len;
            }
            Err(_) => break,
        }
    }
    (records, off)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MacKey {
        MacKey::new([7u8; 32])
    }

    fn rec(lsn: u64, prev: &Mac, sql: &str) -> LogRecord {
        LogRecord::new_chained(&key(), prev, lsn, 3, 100 + lsn, KIND_INSERT, sql.into())
    }

    #[test]
    fn framed_round_trip() {
        let r = rec(1, &GENESIS_MAC, "INSERT INTO t VALUES (1, 'x')");
        let bytes = r.to_framed_bytes();
        let (records, clean) = scan_records(&bytes);
        assert_eq!(clean, bytes.len());
        assert_eq!(records, vec![r]);
    }

    #[test]
    fn chain_verifies_and_breaks_on_edit() {
        let k = key();
        let r1 = rec(1, &GENESIS_MAC, "CREATE TABLE t (a INT)");
        let r2 = rec(2, &r1.mac, "INSERT INTO t VALUES (1)");
        assert!(r1.verify_chain(&k, &GENESIS_MAC));
        assert!(r2.verify_chain(&k, &r1.mac));
        // Wrong predecessor: chain broken.
        assert!(!r2.verify_chain(&k, &GENESIS_MAC));
        // Edited payload: chain broken.
        let mut evil = r2.clone();
        evil.sql = "INSERT INTO t VALUES (999)".into();
        assert!(!evil.verify_chain(&k, &r1.mac));
        // Different key: chain broken.
        assert!(!r1.verify_chain(&MacKey::new([8u8; 32]), &GENESIS_MAC));
    }

    #[test]
    fn scan_stops_at_crc_damage_and_never_reads_past_it() {
        let r1 = rec(1, &GENESIS_MAC, "a");
        let r2 = rec(2, &r1.mac, "b");
        let mut bytes = r1.to_framed_bytes();
        let first_len = bytes.len();
        r2.encode_framed(&mut bytes);
        // Flip a byte inside the second record's body.
        bytes[first_len + FRAME_OVERHEAD + 2] ^= 0xFF;
        let (records, clean) = scan_records(&bytes);
        assert_eq!(records, vec![r1]);
        assert_eq!(clean, first_len);
    }

    #[test]
    fn scan_rejects_oversized_length_header() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_RECORD_BYTES + 1) as u32);
        put_u32(&mut bytes, 0);
        bytes.extend_from_slice(&[0u8; 64]);
        let (records, clean) = scan_records(&bytes);
        assert!(records.is_empty());
        assert_eq!(clean, 0);
    }

    #[test]
    fn truncation_at_every_offset_yields_clean_prefix() {
        let r1 = rec(1, &GENESIS_MAC, "INSERT INTO t VALUES (1, 'hello')");
        let r2 = rec(2, &r1.mac, "UPDATE t SET a = 2");
        let mut bytes = r1.to_framed_bytes();
        let first_len = bytes.len();
        r2.encode_framed(&mut bytes);
        for cut in 0..bytes.len() {
            let (records, clean) = scan_records(&bytes[..cut]);
            if cut < first_len {
                assert!(records.is_empty(), "cut {cut}");
                assert_eq!(clean, 0, "cut {cut}");
            } else {
                assert_eq!(records.len(), 1, "cut {cut}");
                assert_eq!(clean, first_len, "cut {cut}");
            }
        }
    }

    #[test]
    fn decode_body_rejects_trailing_garbage() {
        let r = rec(1, &GENESIS_MAC, "x");
        let mut body = r.encode_body();
        body.push(0);
        assert!(LogRecord::decode_body(&body).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use veridb_common::rng::{check, Rng};

    const SQL_CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,'()=*";

    fn arb_record(rng: &mut Rng) -> LogRecord {
        let (lsn, epoch, seq) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let kind = rng.gen_range(1u8..=5);
        let sql = rng.string(SQL_CHARS, 0..201);
        LogRecord::new_chained(
            &MacKey::new([9u8; 32]),
            &GENESIS_MAC,
            lsn,
            epoch,
            seq,
            kind,
            sql,
        )
    }

    #[test]
    fn any_record_round_trips() {
        check(256, |rng| {
            let rec = arb_record(rng);
            let bytes = rec.to_framed_bytes();
            let (records, clean) = scan_records(&bytes);
            assert_eq!(clean, bytes.len());
            assert_eq!(records, vec![rec]);
        });
    }

    /// The satellite requirement: a stream of records truncated at
    /// *every* byte offset always yields exactly the records whose
    /// frames fit entirely in the prefix — clean-tail detection, no
    /// panic, no misparse, no phantom record.
    #[test]
    fn torn_tail_at_every_offset_is_detected() {
        check(256, |rng| {
            let sqls = rng.vec(1..6, |r| {
                r.string("abcdefghijklmnopqrstuvwxyz0123456789 ", 0..65)
            });
            let key = MacKey::new([5u8; 32]);
            let mut prev = GENESIS_MAC;
            let mut bytes = Vec::new();
            let mut ends = Vec::new();
            for (i, sql) in sqls.iter().enumerate() {
                let r = LogRecord::new_chained(
                    &key,
                    &prev,
                    i as u64 + 1,
                    0,
                    i as u64,
                    KIND_INSERT,
                    sql.clone(),
                );
                prev = r.mac;
                r.encode_framed(&mut bytes);
                ends.push(bytes.len());
            }
            for cut in 0..=bytes.len() {
                let (records, clean) = scan_records(&bytes[..cut]);
                let expect = ends.iter().filter(|&&e| e <= cut).count();
                assert_eq!(records.len(), expect, "cut {}", cut);
                let expect_clean = if expect == 0 { 0 } else { ends[expect - 1] };
                assert_eq!(clean, expect_clean, "cut {}", cut);
            }
        });
    }

    /// Random garbage after a clean prefix never panics: the clean
    /// records still decode, and the garbage only extends the scan if
    /// it happens to form a valid CRC'd frame (which we tolerate —
    /// the MAC chain, not the framing, is the integrity boundary).
    #[test]
    fn garbage_tail_never_panics() {
        check(256, |rng| {
            let tail = rng.vec(0..64, |r| r.next_u64() as u8);
            let key = MacKey::new([6u8; 32]);
            let r =
                LogRecord::new_chained(&key, &GENESIS_MAC, 1, 0, 0, KIND_INSERT, "insert".into());
            let mut bytes = r.to_framed_bytes();
            let clean_end = bytes.len();
            bytes.extend_from_slice(&tail);
            let (records, clean) = scan_records(&bytes);
            assert!(!records.is_empty());
            assert_eq!(records[0].clone(), r);
            assert!(clean >= clean_end);
        });
    }
}
