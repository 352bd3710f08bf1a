//! The LDNW wire protocol: framing, the frame vocabulary, and the
//! encode/decode pair.
//!
//! Normative byte-level spec: `docs/WIRE_FORMAT.md`. A connection is a
//! stream of length-prefixed frames:
//!
//! ```text
//! len u32 LE | body (len bytes)
//! body = "LDNW" | version u16 | fingerprint u64 | kind u8 | payload | fnv1a u64
//! ```
//!
//! The body is one instance of the workspace's unified checkpoint
//! container ([`ldp_primitives::codec`]), so every frame inherits the
//! container's hostile-input posture: magic and version checked first,
//! the checksum verified before any payload byte is interpreted, and
//! every read bounds-checked. The outer length prefix is capped at
//! [`MAX_FRAME_LEN`] *before* the read buffer grows, so a forged length
//! cannot force an allocation; batch cardinality claims are likewise
//! checked against [`MAX_WIRE_REPORTS`]/[`MAX_WIRE_INDICES`] and the
//! remaining payload length before the index buffers are allocated.
//!
//! A `Submit` body comes in two layouts (the layout byte after the
//! counts): a *list* of `u32` indices, or a *bitmap* of one `words ×
//! u64` row per report. [`encode_frame`] picks the bitmap exactly when
//! every report is strictly increasing and the bitmap is the smaller
//! body — dense supports (UE vectors, LOLOHA preimage sets) then cost
//! `dim` bits instead of 32 bits per index — so the choice is a property
//! of the batch and `decode_frame(encode_frame(f)) == f` always holds.
//!
//! The container fingerprint carries the [`config_fingerprint`] both
//! sides derive from their own protocol configuration, so every frame —
//! not just the handshake — pins the configuration it was produced
//! under.

use crate::error::{ErrorCode, NetError};
use ldp_ingest::ReportBatch;
use ldp_primitives::codec::{fnv1a, CodecReader, CodecWriter};
use ldp_runtime::Method;
use std::io::{Read, Write};

/// The wire container magic (registered in `docs/CHECKPOINT_FORMAT.md`
/// §3; `LDNW` frames live on sockets, never as files).
pub const WIRE_MAGIC: &[u8; 4] = b"LDNW";
/// Current wire protocol version. A daemon speaks exactly one version;
/// frames from the future are answered with a malformed-frame error so
/// old daemons fail closed (see `docs/WIRE_FORMAT.md` §2).
pub const WIRE_VERSION: u16 = 2;

/// Hard cap on a frame body's length, enforced against the length
/// prefix before any buffer is grown. Generous for the largest legal
/// submit ([`MAX_WIRE_INDICES`] indices ≈ 4 MiB) plus headroom for a
/// dense round-result estimate.
pub const MAX_FRAME_LEN: u32 = 1 << 23;
/// Most reports one submit frame may claim.
pub const MAX_WIRE_REPORTS: u32 = 1 << 16;
/// Most support indices one submit frame may claim (mirrors the ingest
/// transport's flush invariant).
pub const MAX_WIRE_INDICES: u32 = 1 << 20;
/// Largest estimate dimension a round-result frame may claim.
pub const MAX_WIRE_DIM: u32 = 1 << 24;
/// Widest bitmap row a bitmap-layout submit frame may claim: 2²⁶ words
/// are 2³² bit positions, so every set bit names a `u32` index.
pub const MAX_WIRE_WORDS: u32 = 1 << 26;

/// `Submit` layout byte: `report_count × end u32 | index_count × index u32`.
const LAYOUT_LIST: u8 = 0;
/// `Submit` layout byte: `words u32 | report_count × words × u64`.
const LAYOUT_BITMAP: u8 = 1;
/// Bytes of a `Submit` payload before its body: `seq u64 | key_base u64
/// | report_count u32 | index_count u32 | layout u8`.
const SUBMIT_HEADER_LEN: usize = 8 + 8 + 4 + 4 + 1;

/// The session id loadgen's control connection (round barriers and
/// shutdown, never submits) identifies itself with.
pub const CONTROL_WORKER: u32 = u32::MAX;

/// The protocol's frame vocabulary. Kind bytes are append-only.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → daemon handshake: pins the session id and the client's
    /// resolved configuration (the fingerprint rides in the container
    /// header; the explicit fields make mismatch diagnostics readable).
    Hello {
        /// Stable per-worker session id (dedup state survives restarts).
        worker_id: u32,
        /// Input domain size the client resolved its protocol over.
        k: u64,
        /// Aggregation dimension the client expects the daemon to run.
        dim: u64,
        /// Protocol registry name (`Method::name`).
        method: String,
    },
    /// Daemon → client handshake reply: where this session's submit
    /// sequence resumes (everything `≤ resume_seq` is already applied
    /// and durable or in-memory — do not resend).
    HelloAck {
        /// Echoed session id.
        worker_id: u32,
        /// High-water submit sequence already applied for this session.
        resume_seq: u64,
        /// The daemon's current collection round.
        round: u64,
    },
    /// Client → daemon report batch: contiguously keyed reports in the
    /// ingest transport's flat-index shape.
    Submit {
        /// Per-session monotone frame sequence number (from 1).
        seq: u64,
        /// Routing key of the first report; report `i` keys `base + i`.
        key_base: u64,
        /// The packed reports.
        batch: ReportBatch,
    },
    /// Daemon → client: the submit frame `seq` is applied. `durable_seq`
    /// is this session's high-water mark in the last durable checkpoint
    /// (0 before the first), letting a client bound its replay window.
    Ack {
        /// The applied submit sequence.
        seq: u64,
        /// Reports the frame carried (echoed for client-side accounting).
        reports: u32,
        /// This session's sequence in the last durable checkpoint.
        durable_seq: u64,
    },
    /// Client → daemon: barrier the round and return its estimate.
    /// Idempotent across a crash: re-ending the previous round replays
    /// the cached result instead of closing the new round early.
    EndRound {
        /// The round the client believes it is ending.
        round: u64,
    },
    /// Daemon → client: the finished round's merged outcome.
    RoundResult {
        /// The finished round.
        round: u64,
        /// Reports folded into the round.
        reports: u64,
        /// The protocol estimator over the merged counts.
        estimate: Vec<f64>,
    },
    /// Client → daemon: drain, checkpoint, and exit (the in-band
    /// equivalent of SIGTERM).
    Shutdown,
    /// Daemon → client: drain finished; the final checkpoint covers
    /// `reports` applied reports.
    ShutdownAck {
        /// Reports covered by the final checkpoint.
        reports: u64,
    },
    /// Either direction: a structured failure report. The daemon always
    /// answers a rejected frame with one of these before closing.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail (never report contents).
        detail: String,
    },
}

impl Frame {
    /// The frame's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::HelloAck { .. } => 1,
            Frame::Submit { .. } => 2,
            Frame::Ack { .. } => 3,
            Frame::EndRound { .. } => 4,
            Frame::RoundResult { .. } => 5,
            Frame::Shutdown => 6,
            Frame::ShutdownAck { .. } => 7,
            Frame::Error { .. } => 8,
        }
    }

    /// A static label for telemetry series.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Submit { .. } => "submit",
            Frame::Ack { .. } => "ack",
            Frame::EndRound { .. } => "end_round",
            Frame::RoundResult { .. } => "round_result",
            Frame::Shutdown => "shutdown",
            Frame::ShutdownAck { .. } => "shutdown_ack",
            Frame::Error { .. } => "error",
        }
    }
}

/// The configuration fingerprint both endpoints derive independently
/// and pin in every frame header: FNV-1a over the protocol identity
/// (method tag + name), the domain, the resolved aggregation dimension,
/// and the privacy budgets. Seeds are deliberately excluded — the
/// daemon never learns client seeds.
pub fn config_fingerprint(method: Method, k: u64, dim: u64, eps_inf: f64, eps_first: f64) -> u64 {
    let name = method.name().as_bytes();
    let mut bytes = Vec::with_capacity(name.len() + 32);
    bytes.extend_from_slice(name);
    bytes.extend_from_slice(&k.to_le_bytes());
    bytes.extend_from_slice(&dim.to_le_bytes());
    bytes.extend_from_slice(&eps_inf.to_le_bytes());
    bytes.extend_from_slice(&eps_first.to_le_bytes());
    fnv1a(&bytes)
}

/// Serializes one frame into a finished container body (length prefix
/// not included — [`write_frame`] adds it when the body hits a stream).
/// The writer is sized up front to the exact `Submit` and `RoundResult`
/// payloads, so a large frame is never regrown.
pub fn encode_frame(frame: &Frame, fingerprint: u64) -> Vec<u8> {
    let bitmap = match frame {
        Frame::Submit { batch, .. } => Bitmap::of(batch),
        _ => None,
    };
    let payload = match frame {
        Frame::Submit { batch, .. } => {
            SUBMIT_HEADER_LEN + bitmap.as_ref().map_or(list_len(batch), Bitmap::wire_len)
        }
        Frame::RoundResult { estimate, .. } => 8 + 8 + 4 + 8 * estimate.len(),
        _ => 0,
    };
    let mut w = CodecWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, fingerprint, 1 + payload);
    w.put_u8(frame.kind());
    match frame {
        Frame::Hello {
            worker_id,
            k,
            dim,
            method,
        } => {
            w.put_u32(*worker_id);
            w.put_u64(*k);
            w.put_u64(*dim);
            w.put_frame(method.as_bytes());
        }
        Frame::HelloAck {
            worker_id,
            resume_seq,
            round,
        } => {
            w.put_u32(*worker_id);
            w.put_u64(*resume_seq);
            w.put_u64(*round);
        }
        Frame::Submit {
            seq,
            key_base,
            batch,
        } => {
            w.put_u64(*seq);
            w.put_u64(*key_base);
            w.put_u32(u32::try_from(batch.report_count()).expect("report count fits u32"));
            w.put_u32(u32::try_from(batch.index_count()).expect("index count fits u32"));
            match &bitmap {
                Some(bitmap) => {
                    w.put_u8(LAYOUT_BITMAP);
                    w.put_u32(bitmap.words);
                    for &word in &bitmap.rows {
                        w.put_u64(word);
                    }
                }
                None => {
                    w.put_u8(LAYOUT_LIST);
                    for &end in batch.ends() {
                        w.put_u32(end);
                    }
                    for &index in batch.indices() {
                        w.put_u32(index);
                    }
                }
            }
        }
        Frame::Ack {
            seq,
            reports,
            durable_seq,
        } => {
            w.put_u64(*seq);
            w.put_u32(*reports);
            w.put_u64(*durable_seq);
        }
        Frame::EndRound { round } => {
            w.put_u64(*round);
        }
        Frame::RoundResult {
            round,
            reports,
            estimate,
        } => {
            w.put_u64(*round);
            w.put_u64(*reports);
            w.put_u32(u32::try_from(estimate.len()).expect("estimate dimension fits u32"));
            for &v in estimate {
                w.put_f64(v);
            }
        }
        Frame::Shutdown => {}
        Frame::ShutdownAck { reports } => {
            w.put_u64(*reports);
        }
        Frame::Error { code, detail } => {
            w.put_u8(code.as_u8());
            w.put_frame(detail.as_bytes());
        }
    }
    w.finish()
}

/// Body bytes of a list-layout `Submit`.
fn list_len(batch: &ReportBatch) -> usize {
    4 * (batch.report_count() + batch.index_count())
}

/// A `Submit` batch packed as bitmap rows: report `i`'s support is the
/// set bits of `rows[i * words..(i + 1) * words]` (bit `b` of word `j`
/// is index `64 j + b`).
struct Bitmap {
    words: u32,
    rows: Vec<u64>,
}

impl Bitmap {
    /// Packs `batch` as bitmap rows when that is legal (every report
    /// strictly increasing) and smaller than the list body. The row
    /// width comes from each report's last index, which is its largest
    /// when the report is increasing; the single packing pass proves the
    /// order and bails out to the list layout on the first violation.
    fn of(batch: &ReportBatch) -> Option<Self> {
        let top = batch.reports().filter_map(|report| report.last()).max()?;
        let words = top / 64 + 1;
        let row_len = usize::try_from(words).ok()?;
        let cells = batch.report_count().checked_mul(row_len)?;
        if 4 + cells.checked_mul(8)? >= list_len(batch) {
            return None;
        }
        let mut rows = vec![0u64; cells];
        for (row, report) in rows.chunks_exact_mut(row_len).zip(batch.reports()) {
            // The smallest index the next one may take (u64, so the
            // successor of u32::MAX does not wrap).
            let mut floor = 0u64;
            for &index in report {
                if u64::from(index) < floor {
                    return None;
                }
                *row.get_mut(usize::try_from(index / 64).ok()?)? |= 1 << (index % 64);
                floor = u64::from(index) + 1;
            }
        }
        Some(Self { words, rows })
    }

    /// Body bytes of the bitmap-layout `Submit`.
    fn wire_len(&self) -> usize {
        4 + 8 * self.rows.len()
    }
}

/// Deserializes a frame body produced by [`encode_frame`], returning the
/// header fingerprint alongside the frame. Every failure mode is a typed
/// [`NetError`]; cardinality claims are validated against the caps *and*
/// the remaining payload length before any index buffer is allocated.
pub fn decode_frame(body: &[u8]) -> Result<(u64, Frame), NetError> {
    let mut r = CodecReader::open(body, WIRE_MAGIC, WIRE_VERSION)?;
    let fingerprint = r.fingerprint();
    let kind = r.get_u8()?;
    let frame = match kind {
        0 => {
            let worker_id = r.get_u32()?;
            let k = r.get_u64()?;
            let dim = r.get_u64()?;
            let method = String::from_utf8(r.get_frame()?.to_vec())
                .map_err(|_| NetError::Protocol("method name is not UTF-8"))?;
            Frame::Hello {
                worker_id,
                k,
                dim,
                method,
            }
        }
        1 => Frame::HelloAck {
            worker_id: r.get_u32()?,
            resume_seq: r.get_u64()?,
            round: r.get_u64()?,
        },
        2 => {
            let seq = r.get_u64()?;
            let key_base = r.get_u64()?;
            let report_count = r.get_u32()?;
            let index_count = r.get_u32()?;
            if report_count > MAX_WIRE_REPORTS || index_count > MAX_WIRE_INDICES {
                return Err(NetError::OversizedBatch {
                    reports: report_count,
                    indices: index_count,
                });
            }
            let batch = match r.get_u8()? {
                LAYOUT_LIST => get_list(&mut r, report_count, index_count)?,
                LAYOUT_BITMAP => get_bitmap(&mut r, report_count, index_count)?,
                _ => return Err(NetError::BadBatch("unknown submit layout")),
            };
            Frame::Submit {
                seq,
                key_base,
                batch,
            }
        }
        3 => Frame::Ack {
            seq: r.get_u64()?,
            reports: r.get_u32()?,
            durable_seq: r.get_u64()?,
        },
        4 => Frame::EndRound {
            round: r.get_u64()?,
        },
        5 => {
            let round = r.get_u64()?;
            let reports = r.get_u64()?;
            let dim = r.get_u32()?;
            if dim > MAX_WIRE_DIM {
                return Err(NetError::OversizedBatch {
                    reports: 0,
                    indices: dim,
                });
            }
            if 8usize * dim as usize != r.remaining() {
                return Err(NetError::BadBatch(
                    "estimate dimension disagrees with payload length",
                ));
            }
            let mut estimate = Vec::with_capacity(dim as usize);
            for _ in 0..dim {
                estimate.push(r.get_f64()?);
            }
            Frame::RoundResult {
                round,
                reports,
                estimate,
            }
        }
        6 => Frame::Shutdown,
        7 => Frame::ShutdownAck {
            reports: r.get_u64()?,
        },
        8 => {
            let code = ErrorCode::from_u8(r.get_u8()?)?;
            let detail = String::from_utf8(r.get_frame()?.to_vec())
                .map_err(|_| NetError::Protocol("error detail is not UTF-8"))?;
            Frame::Error { code, detail }
        }
        other => return Err(NetError::UnknownKind(other)),
    };
    r.finish()?;
    Ok((fingerprint, frame))
}

/// Reads a list-layout `Submit` body whose counts are already capped.
fn get_list(
    r: &mut CodecReader<'_>,
    report_count: u32,
    index_count: u32,
) -> Result<ReportBatch, NetError> {
    let claimed = 4usize * (report_count as usize + index_count as usize);
    if claimed != r.remaining() {
        return Err(NetError::BadBatch(
            "batch counts disagree with payload length",
        ));
    }
    let mut ends = Vec::with_capacity(report_count as usize);
    for _ in 0..report_count {
        ends.push(r.get_u32()?);
    }
    let mut indices = Vec::with_capacity(index_count as usize);
    for _ in 0..index_count {
        indices.push(r.get_u32()?);
    }
    ReportBatch::from_parts(indices, ends).map_err(NetError::BadBatch)
}

/// Reads a bitmap-layout `Submit` body whose counts are already capped.
/// The row width, the payload length and the summed popcount are all
/// proven before the index buffer is sized from `index_count`.
fn get_bitmap(
    r: &mut CodecReader<'_>,
    report_count: u32,
    index_count: u32,
) -> Result<ReportBatch, NetError> {
    let words = r.get_u32()?;
    if words == 0 || words > MAX_WIRE_WORDS {
        return Err(NetError::BadBatch("bitmap width outside 1..=2^26 words"));
    }
    let row_bytes = u64::from(report_count)
        .checked_mul(u64::from(words))
        .and_then(|cells| cells.checked_mul(8));
    if row_bytes != Some(r.remaining() as u64) {
        return Err(NetError::BadBatch(
            "batch counts disagree with payload length",
        ));
    }
    let rows = r.take(r.remaining())?;
    let mut popcount = 0u64;
    let mut probe = CodecReader::raw(rows);
    while probe.remaining() > 0 {
        popcount += u64::from(probe.get_u64()?.count_ones());
    }
    if popcount != u64::from(index_count) {
        return Err(NetError::BadBatch(
            "bitmap popcount disagrees with index count",
        ));
    }
    let mut indices = Vec::with_capacity(index_count as usize);
    let mut ends = Vec::with_capacity(report_count as usize);
    let mut bits = CodecReader::raw(rows);
    for _ in 0..report_count {
        for word in 0..words {
            // word < 2^26, so 64 * word + 63 fits u32.
            let mut set = bits.get_u64()?;
            while set != 0 {
                indices.push(64 * word + set.trailing_zeros());
                set &= set - 1;
            }
        }
        ends.push(
            u32::try_from(indices.len())
                .map_err(|_| NetError::BadBatch("index count beyond u32"))?,
        );
    }
    ReportBatch::from_parts(indices, ends).map_err(NetError::BadBatch)
}

/// Writes one encoded body to a stream with its length prefix. The cap
/// is enforced here too, so an over-long locally built frame (e.g. an
/// estimate beyond [`MAX_WIRE_DIM`]) fails typed instead of poisoning
/// the peer.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(body.len()).map_err(|_| NetError::FrameTooLarge {
        len: u32::MAX,
        cap: MAX_FRAME_LEN,
    })?;
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            cap: MAX_FRAME_LEN,
        });
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame body into `buf` (reused across
/// frames — steady-state reading allocates nothing once the buffer has
/// grown to the connection's working size). Returns `Ok(false)` on a
/// clean end-of-stream at a frame boundary. The length claim is checked
/// against [`MAX_FRAME_LEN`] *before* the buffer grows.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, NetError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(NetError::Codec(
                ldp_primitives::codec::CodecError::Truncated,
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            cap: MAX_FRAME_LEN,
        });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_client::{ClientConfig, ClientPool, ReportSink};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Byte offset of a `Submit` body's layout byte: container header
    /// (14) + kind (1) + seq, key_base, report_count, index_count.
    const LAYOUT_AT: usize = 15 + 8 + 8 + 4 + 4;

    fn sample_frames() -> Vec<Frame> {
        let mut batch = ReportBatch::new();
        batch.push_report([0u32, 4, 9]);
        batch.push_report([2u32]);
        vec![
            Frame::Hello {
                worker_id: 3,
                k: 100,
                dim: 16,
                method: "BiLOLOHA".into(),
            },
            Frame::HelloAck {
                worker_id: 3,
                resume_seq: 42,
                round: 7,
            },
            Frame::Submit {
                seq: 43,
                key_base: 1024,
                batch,
            },
            Frame::Ack {
                seq: 43,
                reports: 2,
                durable_seq: 40,
            },
            Frame::EndRound { round: 7 },
            Frame::RoundResult {
                round: 7,
                reports: 5000,
                estimate: vec![0.25, -0.5, f64::NAN.copysign(-1.0), 0.0],
            },
            Frame::Shutdown,
            Frame::ShutdownAck { reports: 5000 },
            Frame::Error {
                code: ErrorCode::Draining,
                detail: "drain initiated".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips_with_its_fingerprint() {
        for frame in sample_frames() {
            let body = encode_frame(&frame, 0xABCD_EF01_2345_6789);
            let (fp, decoded) = decode_frame(&body).unwrap();
            assert_eq!(fp, 0xABCD_EF01_2345_6789, "{frame:?}");
            match (&frame, &decoded) {
                // NaN payloads round-trip bit-exactly but compare unequal.
                (
                    Frame::RoundResult { estimate: a, .. },
                    Frame::RoundResult { estimate: b, .. },
                ) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b));
                }
                _ => assert_eq!(frame, decoded),
            }
        }
    }

    #[test]
    fn frames_traverse_a_stream_with_length_prefixes() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            write_frame(&mut wire, &encode_frame(&frame, 7)).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let mut seen = 0;
        while read_frame(&mut cursor, &mut buf).unwrap() {
            decode_frame(&buf).unwrap();
            seen += 1;
        }
        assert_eq!(seen, sample_frames().len());
    }

    #[test]
    fn forged_length_is_rejected_before_the_buffer_grows() {
        let mut wire = Vec::from(u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(
            err,
            NetError::FrameTooLarge {
                len: u32::MAX,
                cap: MAX_FRAME_LEN
            }
        );
        assert_eq!(buf.capacity(), 0, "no allocation for a forged claim");
    }

    #[test]
    fn oversized_batch_claims_fail_before_allocation() {
        // A hand-built submit claiming u32::MAX reports in a tiny body.
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
        w.put_u8(2);
        w.put_u64(1); // seq
        w.put_u64(0); // key_base
        w.put_u32(u32::MAX); // report_count
        w.put_u32(3); // index_count
        w.put_u8(LAYOUT_LIST);
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::OversizedBatch {
                reports: u32::MAX,
                indices: 3
            }
        );
    }

    #[test]
    fn batch_counts_must_match_the_payload_exactly() {
        let mut w = CodecWriter::new(WIRE_MAGIC, WIRE_VERSION, 0);
        w.put_u8(2);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(2); // claims 2 reports…
        w.put_u32(1); // …and 1 index, but ships only one u32
        w.put_u8(LAYOUT_LIST);
        w.put_u32(1);
        let body = w.finish();
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::BadBatch("batch counts disagree with payload length")
        );
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let a = config_fingerprint(Method::BiLoloha, 100, 2, 1.0, 0.5);
        assert_eq!(a, config_fingerprint(Method::BiLoloha, 100, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::OLoloha, 100, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 101, 2, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 100, 4, 1.0, 0.5));
        assert_ne!(a, config_fingerprint(Method::BiLoloha, 100, 2, 2.0, 0.5));
    }

    /// The layout rule restated from the spec: the bitmap iff every
    /// report is strictly increasing and its body is strictly smaller.
    fn smaller_legal_layout(batch: &ReportBatch) -> u8 {
        let increasing = batch.reports().all(|r| r.windows(2).all(|p| p[0] < p[1]));
        let Some(&top) = batch.indices().iter().max() else {
            return LAYOUT_LIST;
        };
        let rows = batch.report_count() as u64;
        let list = 4 * (rows + batch.index_count() as u64);
        let bitmap = 4 + 8 * rows * (u64::from(top) / 64 + 1);
        if increasing && bitmap < list {
            LAYOUT_BITMAP
        } else {
            LAYOUT_LIST
        }
    }

    fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v.dedup();
        v
    }

    /// One report of a random shape: ascending dense, ascending sparse,
    /// unsorted, with duplicates, empty, or near the top of `u32`.
    fn arb_report(rng: &mut TestRng) -> Vec<u32> {
        let below = |rng: &mut TestRng, n: u64| u32::try_from(rng.below(n)).unwrap();
        let len = rng.below(40) as usize;
        match rng.below(6) {
            0 => (0..below(rng, 300)).filter(|_| rng.below(2) == 0).collect(),
            1 => sorted_dedup((0..len).map(|_| below(rng, 1 << 20)).collect()),
            2 => (0..len).map(|_| below(rng, 200)).collect(),
            3 => {
                let mut v = sorted_dedup((0..len).map(|_| below(rng, 64)).collect());
                if let Some(&x) = v.first() {
                    v.insert(0, x);
                }
                v
            }
            4 => Vec::new(),
            _ => sorted_dedup((0..len).map(|_| u32::MAX - below(rng, 4096)).collect()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every batch round-trips, and the encoder picks the smaller
        /// legal layout.
        #[test]
        fn submit_round_trips_in_the_smaller_legal_layout(
            reports in proptest::collection::vec(proptest::strategy::from_fn(arb_report), 0..24),
            dense in 0usize..3,
        ) {
            let mut batch = ReportBatch::new();
            for report in &reports {
                batch.push_report(report.iter().copied());
            }
            // Fold a third of the cases into ascending sets below 300:
            // dense batches, the ones that pick the bitmap.
            if dense == 0 {
                batch.clear();
                for report in &reports {
                    batch.push_report(sorted_dedup(report.iter().map(|&i| i % 300).collect()));
                }
            }
            let frame = Frame::Submit { seq: 9, key_base: 3, batch };
            let body = encode_frame(&frame, 1);
            let Frame::Submit { batch, .. } = &frame else { unreachable!() };
            prop_assert_eq!(body[LAYOUT_AT], smaller_legal_layout(batch));
            prop_assert_eq!(decode_frame(&body).unwrap(), (1, frame.clone()));
        }
    }

    #[test]
    fn the_bitmap_must_be_strictly_smaller_and_every_report_increasing() {
        // One report in one word: the bitmap body is 12 bytes, the list
        // body 4 × (1 + indices).
        for (report, layout) in [
            (vec![0u32, 5], LAYOUT_LIST), // 12 = 12: a tie keeps the list
            (vec![0, 5, 9], LAYOUT_BITMAP),
            (vec![5, 0, 9], LAYOUT_LIST),
            (vec![0, 5, 5], LAYOUT_LIST),
        ] {
            let mut batch = ReportBatch::new();
            batch.push_report(report.iter().copied());
            let frame = Frame::Submit {
                seq: 1,
                key_base: 0,
                batch,
            };
            let body = encode_frame(&frame, 0);
            assert_eq!(body[LAYOUT_AT], layout, "{report:?}");
            assert_eq!(decode_frame(&body).unwrap(), (0, frame));
        }
    }

    /// Collects one round's supports in submission order.
    struct Capture(Vec<Vec<u32>>);

    impl ReportSink for Capture {
        type Error = ();

        fn submit(&mut self, _user: u64, support: &[usize]) -> Result<(), ()> {
            self.0
                .push(support.iter().map(|&i| u32::try_from(i).unwrap()).collect());
            Ok(())
        }
    }

    /// The layout byte of every frame of one sanitized round, after
    /// asserting each frame round-trips.
    fn round_layouts(method: Method, k: u64) -> Vec<u8> {
        let cfg = ClientConfig::for_method(method, k, 1.0, 0.5).unwrap();
        let users = 300;
        let mut pool = ClientPool::new(cfg, 7, users).unwrap();
        let values: Vec<u64> = (0..users as u64).map(|u| (u * 37) % k).collect();
        let mut sinks = [Capture(Vec::new())];
        pool.sanitize_round_sinks(&values, &mut sinks).unwrap();
        let [Capture(reports)] = sinks;
        reports
            .chunks(crate::DEFAULT_FRAME_REPORTS)
            .map(|chunk| {
                let mut batch = ReportBatch::new();
                for report in chunk {
                    batch.push_report(report.iter().copied());
                }
                let frame = Frame::Submit {
                    seq: 1,
                    key_base: 0,
                    batch,
                };
                let body = encode_frame(&frame, 5);
                assert_eq!(decode_frame(&body).unwrap(), (5, frame), "{method:?}");
                body[LAYOUT_AT]
            })
            .collect()
    }

    #[test]
    fn every_method_round_trips_and_dense_supports_pick_the_bitmap() {
        for method in Method::all() {
            assert!(!round_layouts(method, 1024).is_empty(), "{method:?}");
        }
        for (method, k, layout) in [
            (Method::BiLoloha, 1024, LAYOUT_BITMAP),
            (Method::Rappor, 1024, LAYOUT_BITMAP),
            (Method::LGrr, 8192, LAYOUT_LIST),
        ] {
            assert!(
                round_layouts(method, k).iter().all(|&l| l == layout),
                "{method:?} at k = {k} must pick layout {layout}"
            );
        }
    }
}
