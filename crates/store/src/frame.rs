//! On-disk frame format shared by the [`AlertStore`](crate::AlertStore)
//! segments and the [`SpoolQueue`](crate::SpoolQueue) segments.
//!
//! Every record is written as one *frame*:
//!
//! ```text
//! [payload length: u32 LE][CRC-32 of payload: u32 LE][payload bytes]
//! ```
//!
//! The checksum lets a reader distinguish a torn tail (the process died
//! mid-`write`) from an intact record: scanning stops at the first frame
//! whose header or payload is short or whose checksum mismatches, and the
//! segment is truncated back to the last byte of the last valid frame.

/// Bytes of frame header preceding each payload (length + checksum).
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on a single frame payload. Anything larger in a length
/// header is treated as corruption rather than an allocation request.
pub(crate) const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][i]` is the checksum state after byte `i` is
/// followed by `k` zero bytes — which lets [`crc32`] fold eight input
/// bytes per step instead of one.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, as used by zip/gzip/Ethernet) of `bytes`.
///
/// Exposed so sibling crates can checksum their own sidecar files with the
/// same algorithm the store uses for its frames.
///
/// # Examples
///
/// ```
/// // Standard check value for the ASCII string "123456789".
/// assert_eq!(divscrape_store::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(divscrape_store::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Starts a frame at the end of `out`: reserves the header and returns
/// where it begins. The caller appends the payload after it, then calls
/// [`finish_frame`] — so a payload assembled from parts is written once.
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    at
}

/// Completes the frame begun at `at`: everything after its header is the
/// payload, whose length and checksum are filled in in place.
pub(crate) fn finish_frame(out: &mut [u8], at: usize) {
    let (header, payload) = out[at..].split_at_mut(FRAME_HEADER_BYTES);
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD as usize);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Encodes `payload` as one frame (header + payload), appending to `out`.
pub(crate) fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.extend_from_slice(payload);
    finish_frame(out, at);
}

/// Total on-disk size of a frame holding `payload_len` payload bytes.
pub(crate) fn frame_len(payload_len: usize) -> u64 {
    (FRAME_HEADER_BYTES + payload_len) as u64
}

/// One step of a [`FrameScanner`].
#[derive(Debug)]
pub(crate) enum ScanStep<'a> {
    /// A complete, checksum-valid frame payload.
    Frame(&'a [u8]),
    /// Clean end of buffer: every byte belonged to a valid frame.
    End,
    /// Remaining bytes do not form a valid frame (short header, short
    /// payload, oversized length, or checksum mismatch) — a torn tail.
    Torn,
}

/// Sequential scanner over the frames in one segment's bytes.
#[derive(Debug)]
pub(crate) struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed by complete valid frames so far — the truncation
    /// point when the scan ends in [`ScanStep::Torn`].
    pub(crate) fn valid_len(&self) -> u64 {
        self.pos as u64
    }

    pub(crate) fn next_frame(&mut self) -> ScanStep<'a> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return ScanStep::End;
        }
        if rest.len() < FRAME_HEADER_BYTES {
            return ScanStep::Torn;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let sum = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME_PAYLOAD {
            return ScanStep::Torn;
        }
        let end = FRAME_HEADER_BYTES + len as usize;
        if rest.len() < end {
            return ScanStep::Torn;
        }
        let payload = &rest[FRAME_HEADER_BYTES..end];
        if crc32(payload) != sum {
            return ScanStep::Torn;
        }
        self.pos += end;
        ScanStep::Frame(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition [`crc32`] must agree with.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0–300 at every alignment 0–7 of a pseudo-random
    /// buffer: the eight-bytes-a-step kernel, its byte-wise tail and any
    /// mix of the two agree with the bit-by-bit definition.
    #[test]
    fn crc32_agrees_with_the_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..512)
            .map(|_| {
                // xorshift64: any fixed non-zero seed does.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let window = &noise[offset..offset + len];
                assert_eq!(
                    crc32(window),
                    crc32_reference(window),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn scanner_round_trips_frames() {
        let mut buf = Vec::new();
        encode_frame(b"first", &mut buf);
        encode_frame(b"", &mut buf);
        encode_frame(b"third record", &mut buf);
        let mut scanner = FrameScanner::new(&buf);
        assert!(matches!(scanner.next_frame(), ScanStep::Frame(b"first")));
        assert!(matches!(scanner.next_frame(), ScanStep::Frame(b"")));
        assert!(matches!(
            scanner.next_frame(),
            ScanStep::Frame(b"third record")
        ));
        assert!(matches!(scanner.next_frame(), ScanStep::End));
        assert_eq!(scanner.valid_len(), buf.len() as u64);
    }

    #[test]
    fn scanner_stops_at_torn_tail() {
        let mut buf = Vec::new();
        encode_frame(b"intact", &mut buf);
        let keep = buf.len() as u64;
        encode_frame(b"this one is cut short", &mut buf);
        buf.truncate(buf.len() - 5);
        let mut scanner = FrameScanner::new(&buf);
        assert!(matches!(scanner.next_frame(), ScanStep::Frame(b"intact")));
        assert!(matches!(scanner.next_frame(), ScanStep::Torn));
        assert_eq!(scanner.valid_len(), keep);
    }

    #[test]
    fn scanner_rejects_bit_flips() {
        let mut buf = Vec::new();
        encode_frame(b"payload under test", &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut scanner = FrameScanner::new(&buf);
        assert!(matches!(scanner.next_frame(), ScanStep::Torn));
        assert_eq!(scanner.valid_len(), 0);
    }

    #[test]
    fn scanner_rejects_absurd_lengths() {
        let mut buf = (MAX_FRAME_PAYLOAD + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 12]);
        let mut scanner = FrameScanner::new(&buf);
        assert!(matches!(scanner.next_frame(), ScanStep::Torn));
    }
}
