//! Untrusted wire framing: magic, version, length prefix, CRC.
//!
//! Every message travels as one frame:
//!
//! ```text
//! ┌───────┬─────────┬──────┬─────────┬─────────┬───────────┐
//! │ magic │ version │ kind │ len u32 │ crc u32 │ payload…  │
//! │ 4 B   │ 2 B     │ 1 B  │ 4 B     │ 4 B     │ len bytes │
//! └───────┴─────────┴──────┴─────────┴─────────┴───────────┘
//! ```
//!
//! The CRC covers `kind ‖ payload` and exists purely as *transport
//! hygiene*: it catches accidental corruption early and cheaply so the
//! connection can fail fast. It provides **no integrity** — an adversarial
//! host can recompute it after tampering. All integrity rests on the portal
//! MACs inside the payloads (see DESIGN.md §13). A frame that fails any
//! framing check surfaces as [`Error::Net`], a transport error, never as a
//! verification alarm.

use std::io::{Read, Write};
use veridb_common::{Error, Result};

/// Frame magic: identifies the VeriDB binary protocol.
pub const MAGIC: [u8; 4] = *b"VDBN";

/// Protocol version. Bumped on any incompatible framing or codec change.
pub const VERSION: u16 = 1;

/// Fixed header size: magic + version + kind + len + crc.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4 + 4;

/// Largest accepted payload. Caps memory a malicious peer can make the
/// receiver allocate from a single length prefix.
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// CRC-32 (IEEE 802.3 polynomial, reflected). Shared with the WAL record
/// codec via `veridb_common::crc`.
pub use veridb_common::crc::crc32;

/// The frame CRC: CRC-32 over `kind ‖ payload`, without joining them.
pub(crate) fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    veridb_common::crc::crc32_parts(&[&[kind], payload])
}

pub(crate) fn net_err(peer: &str, op: &str, detail: impl std::fmt::Display) -> Error {
    Error::Net {
        peer: peer.to_owned(),
        op: op.to_owned(),
        detail: detail.to_string(),
    }
}

/// Encode a frame into a fresh buffer (header + payload).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_crc(kind, payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame. I/O failures become [`Error::Net`] with `peer` context.
pub fn write_frame(w: &mut impl Write, peer: &str, kind: u8, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(net_err(
            peer,
            "write frame",
            format!(
                "payload {} exceeds frame cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    let buf = encode_frame(kind, payload);
    w.write_all(&buf)
        .and_then(|()| w.flush())
        .map_err(|e| net_err(peer, "write frame", e))
}

/// Read and validate one frame, returning `(kind, payload)`.
///
/// Any malformed header (wrong magic/version, oversized length) or CRC
/// mismatch is an [`Error::Net`] — the framing layer is untrusted, so these
/// are transport failures, not security alarms.
pub fn read_frame(r: &mut impl Read, peer: &str) -> Result<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)
        .map_err(|e| net_err(peer, "read frame header", e))?;
    parse_header(peer, &header).and_then(|(kind, len, crc)| {
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)
            .map_err(|e| net_err(peer, "read frame payload", e))?;
        if frame_crc(kind, &payload) != crc {
            return Err(net_err(peer, "read frame", "frame CRC mismatch"));
        }
        Ok((kind, payload))
    })
}

/// Validate a header, returning `(kind, payload_len, expected_crc)`.
fn parse_header(peer: &str, header: &[u8; HEADER_BYTES]) -> Result<(u8, usize, u32)> {
    if header[0..4] != MAGIC {
        return Err(net_err(peer, "read frame", "bad frame magic"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(net_err(
            peer,
            "read frame",
            format!("unsupported protocol version {version} (expected {VERSION})"),
        ));
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(net_err(
            peer,
            "read frame",
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let crc = u32::from_le_bytes([header[11], header[12], header[13], header[14]]);
    Ok((kind, len, crc))
}

/// Incremental frame decoder for non-blocking sockets.
///
/// The reactor feeds whatever bytes `read(2)` produced into [`extend`]
/// and drains complete frames with [`next_frame`]; partial headers and
/// payloads stay buffered across readiness events. Validation is
/// identical to [`read_frame`] (magic, version, length cap, CRC), and a
/// failure poisons the decoder — framing state is unrecoverable once the
/// byte stream desynchronizes, so the connection must be closed.
///
/// [`extend`]: FrameDecoder::extend
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// lazily so each readiness event is O(bytes read), not O(buffered).
    consumed: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// Fresh decoder with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing when the dead prefix dominates.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pop the next complete, validated frame, or `None` if more bytes
    /// are needed. After an `Err` the decoder is poisoned and every
    /// subsequent call returns the same framing failure.
    pub fn next_frame(&mut self, peer: &str) -> Result<Option<(u8, Vec<u8>)>> {
        if self.poisoned {
            return Err(net_err(
                peer,
                "read frame",
                "decoder poisoned by earlier framing error",
            ));
        }
        let avail = &self.buf[self.consumed..];
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&avail[..HEADER_BYTES]);
        let (kind, len, crc) = match parse_header(peer, &header) {
            Ok(h) => h,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        if avail.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        let payload = &avail[HEADER_BYTES..HEADER_BYTES + len];
        if frame_crc(kind, payload) != crc {
            self.poisoned = true;
            return Err(net_err(peer, "read frame", "frame CRC mismatch"));
        }
        let payload = payload.to_vec();
        self.consumed += HEADER_BYTES + len;
        Ok(Some((kind, payload)))
    }
}

/// Read one frame as raw bytes (header + payload) *without* CRC
/// validation. Used by the adversarial proxy, which must be able to carry
/// and tamper with frames it does not interpret.
pub fn read_raw_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    // Trust only the length field, bounded by the cap; the proxy forwards
    // garbage headers as-is and lets the endpoint reject them.
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds cap",
        ));
    }
    let mut buf = Vec::with_capacity(HEADER_BYTES + len);
    buf.extend_from_slice(&header);
    buf.resize(HEADER_BYTES + len, 0);
    r.read_exact(&mut buf[HEADER_BYTES..])?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_crc_equals_crc32_over_kind_then_payload() {
        veridb_common::rng::check(256, |rng| {
            let kind = rng.gen_range(0u8..=255);
            let payload = rng.vec(0..300, |r| r.gen_range(0u8..=255));
            let mut joined = vec![kind];
            joined.extend_from_slice(&payload);
            assert_eq!(frame_crc(kind, &payload), crc32(&joined));
        });
    }

    #[test]
    fn frame_round_trip() {
        let buf = encode_frame(7, b"hello frame");
        let mut cur = &buf[..];
        let (kind, payload) = read_frame(&mut cur, "test").unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello frame");
    }

    #[test]
    fn empty_payload_round_trip() {
        let buf = encode_frame(9, b"");
        let mut cur = &buf[..];
        let (kind, payload) = read_frame(&mut cur, "test").unwrap();
        assert_eq!(kind, 9);
        assert!(payload.is_empty());
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut buf = encode_frame(3, b"payload bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut cur = &buf[..];
        let err = read_frame(&mut cur, "test").unwrap_err();
        assert!(!err.is_security_violation(), "framing errors are transport");
        assert!(err.to_string().contains("CRC"));
    }

    #[test]
    fn corrupted_kind_fails_crc() {
        let mut buf = encode_frame(3, b"payload");
        buf[6] = 4; // kind is covered by the CRC
        let mut cur = &buf[..];
        assert!(read_frame(&mut cur, "test").is_err());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut buf = encode_frame(1, b"x");
        buf[0] = b'X';
        assert!(read_frame(&mut &buf[..], "t")
            .unwrap_err()
            .to_string()
            .contains("magic"));

        let mut buf = encode_frame(1, b"x");
        buf[4] = 0xFF;
        assert!(read_frame(&mut &buf[..], "t")
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = encode_frame(1, b"x");
        buf[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..], "t").unwrap_err();
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn truncated_frame_is_transport_error() {
        let buf = encode_frame(1, b"longer payload");
        let cut = &buf[..buf.len() - 4];
        let err = read_frame(&mut &cut[..], "t").unwrap_err();
        assert!(!err.is_security_violation());
    }

    #[test]
    fn decoder_reassembles_frames_from_arbitrary_splits() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(3, b"first"));
        stream.extend_from_slice(&encode_frame(4, b""));
        stream.extend_from_slice(&encode_frame(5, b"third payload"));
        // Feed the stream byte-at-a-time, 7-at-a-time, and all-at-once:
        // the decoded frame sequence must be identical.
        for chunk in [1usize, 7, stream.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.extend(piece);
                while let Some(f) = dec.next_frame("test").unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(
                got,
                vec![
                    (3u8, b"first".to_vec()),
                    (4u8, Vec::new()),
                    (5u8, b"third payload".to_vec()),
                ],
                "chunk size {chunk}"
            );
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn decoder_poisons_on_framing_error_and_stays_poisoned() {
        let mut bad = encode_frame(3, b"payload");
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // break the CRC
        let mut dec = FrameDecoder::new();
        dec.extend(&bad);
        assert!(dec.next_frame("test").is_err());
        // A valid frame after the poison is never surfaced: the stream
        // position is untrustworthy once framing fails.
        dec.extend(&encode_frame(4, b"good"));
        assert!(dec.next_frame("test").is_err());
    }

    #[test]
    fn decoder_rejects_bad_magic_before_buffering_payload() {
        let mut buf = encode_frame(1, b"x");
        buf[0] = b'X';
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        let err = dec.next_frame("test").unwrap_err();
        assert!(err.to_string().contains("magic"));
        assert!(!err.is_security_violation());
    }

    #[test]
    fn raw_frame_reads_tampered_bytes_verbatim() {
        let mut buf = encode_frame(2, b"abc");
        let raw = read_raw_frame(&mut &buf[..]).unwrap();
        assert_eq!(raw, buf);
        // Corrupt the CRC: raw read still carries the frame through.
        buf[11] ^= 0xFF;
        let raw = read_raw_frame(&mut &buf[..]).unwrap();
        assert_eq!(raw, buf);
    }
}
