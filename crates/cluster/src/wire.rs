//! Binary wire format for the head ↔ master control protocol.
//!
//! The control plane is small and fixed-shape, so the codec is hand-rolled
//! little-endian (the workspace ships no serde format crate): one tag byte,
//! fixed fields, and chunk metadata in the same record layout as the
//! on-disk index. Used by [`crate::net`] to run the protocol over TCP.
//!
//! The decoder is hardened against a malicious or corrupted peer: length
//! prefixes are capped before any allocation, unknown tags are rejected,
//! and truncation surfaces as an error — garbage bytes can never panic or
//! balloon memory.
//!
//! One protocol version is spoken. A master opens with `Hello` and the head
//! answers `HelloAck` with the lower of the two sides' versions — a peer
//! below [`WIRE_VERSION`] is then dropped, not half-served. Work moves in
//! batches: `GetJobs{max}` is answered by a grant, and an `AckBatch` carrying
//! many completion/failure reports by one [`BatchReply`] (per-report
//! verdicts, revoked-lease notices and a piggybacked refill grant). Three
//! single-job frames remain beside them — `Failed`, `Ping`, `Bye` — under the
//! names [`Frame::Legacy`] and [`MasterToHead`], which the benchmark in
//! `ladder/` pins. Tags 1, 2 and 6, once a single-job RPC, are unknown tags.

use bytes::{Buf, BytesMut};
use cloudburst_core::{ByteSize, ChunkId, ChunkMeta, FileId, JobBatch, SiteId};
use std::io::{self, ErrorKind, Read, Write};

/// Messages a master sends to the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterToHead {
    /// Report a failed job.
    Failed {
        /// The failed job.
        job: ChunkId,
        /// Reporting site.
        site: SiteId,
    },
    /// Liveness beacon (fault-tolerant mode): resets the head's
    /// per-connection silence clock without requesting anything.
    Ping {
        /// Beaconing site.
        site: SiteId,
    },
    /// Orderly goodbye: the master is done.
    Bye,
}

const TAG_FAILED: u8 = 3;
const TAG_BYE: u8 = 4;
const TAG_GRANT: u8 = 5;
const TAG_PING: u8 = 7;

/// The most jobs a single grant frame may carry. Real grants are tens of
/// jobs; the cap bounds the decode allocation at ~2 MiB so a hostile length
/// prefix cannot balloon memory.
pub const MAX_GRANT_JOBS: usize = 1 << 16;

fn err(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

/// Append one master→head message to `out`.
pub(crate) fn put_to_head(out: &mut Vec<u8>, msg: &MasterToHead) {
    match *msg {
        MasterToHead::Failed { job, site } => {
            out.push(TAG_FAILED);
            out.extend_from_slice(&job.0.to_le_bytes());
            out.extend_from_slice(&site.0.to_le_bytes());
        }
        MasterToHead::Ping { site } => {
            out.push(TAG_PING);
            out.extend_from_slice(&site.0.to_le_bytes());
        }
        MasterToHead::Bye => out.push(TAG_BYE),
    }
}

/// Write one master→head message to a stream.
pub fn write_to_head(w: &mut impl Write, msg: &MasterToHead) -> io::Result<()> {
    let mut out = Vec::with_capacity(8);
    put_to_head(&mut out, msg);
    w.write_all(&out)?;
    w.flush()
}

/// Append a head→master grant (the reply to `GetJobs`) to `out`. Each job
/// record carries the causal span the head allocated for the execution, so
/// the slave-side telemetry of a TCP-mode run joins the head-side events in
/// one DAG (0 when the batch was built without tracking).
pub(crate) fn put_grant(out: &mut Vec<u8>, batch: &JobBatch) {
    out.reserve(7 + batch.jobs.len() * GRANT_RECORD);
    out.push(TAG_GRANT);
    out.push(u8::from(batch.stolen));
    out.push(u8::from(batch.terminal));
    out.extend_from_slice(&(batch.jobs.len() as u32).to_le_bytes());
    for (i, c) in batch.jobs.iter().enumerate() {
        out.extend_from_slice(&c.id.0.to_le_bytes());
        out.extend_from_slice(&c.file.0.to_le_bytes());
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.len.to_le_bytes());
        out.extend_from_slice(&c.n_units.to_le_bytes());
        out.extend_from_slice(&c.site.0.to_le_bytes());
        out.extend_from_slice(&batch.span_of(i).to_le_bytes());
    }
}

/// Bytes per job record in a grant frame.
const GRANT_RECORD: usize = 42;

/// Read a grant from a stream.
pub fn read_grant(r: &mut impl Read) -> io::Result<JobBatch> {
    read_grant_with(r, &mut Vec::new(), || None)
}

/// [`read_grant`] through `body`, the caller's scratch buffer for the
/// frame's bytes, and into the batch `spare` gives — one emptied for reuse —
/// when the grant has jobs: a reader that keeps both allocates nothing per
/// grant once they are grown.
fn read_grant_with(
    r: &mut impl Read,
    body: &mut Vec<u8>,
    spare: impl FnOnce() -> Option<JobBatch>,
) -> io::Result<JobBatch> {
    let mut head = [0u8; 7];
    r.read_exact(&mut head)?;
    if head[0] != TAG_GRANT {
        return Err(err(&format!("expected grant, got tag {}", head[0])));
    }
    let stolen = head[1] != 0;
    let terminal = head[2] != 0;
    let n = u32::from_le_bytes(head[3..7].try_into().expect("count")) as usize;
    if n > MAX_GRANT_JOBS {
        return Err(err("grant length prefix unreasonably large"));
    }
    if n == 0 {
        return Ok(JobBatch { stolen, ..JobBatch::empty(terminal) });
    }
    read_body(r, body, n * GRANT_RECORD)?;
    let mut buf = body.as_slice();
    let mut batch = spare().unwrap_or_else(|| JobBatch::empty(false));
    (batch.stolen, batch.terminal) = (stolen, terminal);
    let JobBatch { jobs, spans, .. } = &mut batch;
    jobs.clear();
    spans.clear();
    jobs.reserve(n);
    spans.reserve(n);
    for _ in 0..n {
        jobs.push(ChunkMeta {
            id: ChunkId(buf.get_u32_le()),
            file: FileId(buf.get_u32_le()),
            offset: buf.get_u64_le() as ByteSize,
            len: buf.get_u64_le() as ByteSize,
            n_units: buf.get_u64_le(),
            site: SiteId(buf.get_u16_le()),
        });
        spans.push(buf.get_u64_le());
    }
    Ok(batch)
}

/// Read the next `len` bytes of a stream into `body`, replacing what it held.
fn read_body(r: &mut impl Read, body: &mut Vec<u8>, len: usize) -> io::Result<()> {
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)
}

const TAG_HELLO: u8 = 8;
const TAG_HELLO_ACK: u8 = 9;
const TAG_GET_JOBS: u8 = 10;
const TAG_ACK_BATCH: u8 = 11;
const TAG_BATCH_REPLY: u8 = 12;

/// Bytes per report entry in an `AckBatch` frame (job u32 + ok u8).
const ACK_ENTRY: usize = 5;

/// Highest control-protocol version this build speaks.
pub const WIRE_VERSION: u16 = 2;

/// One completion/failure report inside an `AckBatch` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckEntry {
    /// The finished (or failed) job.
    pub job: ChunkId,
    /// `true` = completed, `false` = failed.
    pub ok: bool,
}

/// Any frame a master may send — what the head decodes. The single-job
/// frames (`Failed`, `Ping`, `Bye`) may come between batched ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A single-job frame.
    Legacy(MasterToHead),
    /// Opening handshake: announce the speaker and its prefetch window.
    Hello {
        /// The master's site.
        site: SiteId,
        /// Highest protocol version the master speaks.
        version: u16,
        /// The master's prefetch-credit window (jobs it is willing to hold).
        credit: u16,
    },
    /// Request up to `max` jobs in one grant (reply is a grant frame).
    GetJobs {
        /// Requesting site.
        site: SiteId,
        /// Upper bound on jobs in the reply grant.
        max: u16,
    },
    /// A batch of completion/failure reports; the head answers with one
    /// [`BatchReply`] carrying per-report verdicts, revoked-lease notices
    /// and a piggybacked refill grant of up to `want` jobs.
    AckBatch {
        /// Reporting site.
        site: SiteId,
        /// Refill credit: how many jobs the reply grant may carry (0 = the
        /// master only wants the verdicts, e.g. during shutdown).
        want: u16,
        /// The reports, in the order the verdicts must come back.
        entries: Vec<AckEntry>,
    },
}

/// The most revocation notices one [`BatchReply`] carries (its count is a
/// `u16`); the head keeps the rest for the site's next reply.
pub const MAX_REVOKED: usize = u16::MAX as usize;

/// The head's lockstep reply to an `AckBatch` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// Per-report merge verdicts, in `entries` order (`true` = merged;
    /// failure reports get `false`). Positional.
    pub verdicts: Vec<bool>,
    /// Jobs whose leases the head revoked (reaped or evacuated) since the
    /// last reply, oldest first and at most [`MAX_REVOKED`]: the master must
    /// drop any of these it still has queued.
    pub revoked: Vec<ChunkId>,
    /// Refill grant (empty + terminal once the pool is drained).
    pub grant: JobBatch,
}

/// Try to decode one master→head frame from the front of `buf`, consuming
/// its bytes. `Ok(None)` means the frame is incomplete — leave the bytes in
/// place and read more. Nothing is allocated until a frame's bytes have
/// fully arrived, and a `u16` entry count bounds `AckBatch` at ~320 KiB.
pub fn try_read_frame(buf: &mut BytesMut) -> io::Result<Option<Frame>> {
    let Some((frame, len)) = read_frame(buf)? else { return Ok(None) };
    buf.advance(len);
    Ok(Some(frame))
}

/// [`try_read_frame`] over bytes the caller keeps: the frame at the front of
/// `buf` and its length in bytes, for a reader that reuses one buffer.
pub(crate) fn read_frame(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    let Some(&tag) = buf.first() else { return Ok(None) };
    let need = match tag {
        TAG_PING => 3,
        TAG_FAILED => 7,
        TAG_BYE => 1,
        TAG_HELLO => 7,
        TAG_GET_JOBS => 5,
        TAG_ACK_BATCH => {
            if buf.len() < 7 {
                return Ok(None);
            }
            let n = u16::from_le_bytes([buf[5], buf[6]]) as usize;
            7 + n * ACK_ENTRY
        }
        other => return Err(err(&format!("unknown control tag {other}"))),
    };
    if buf.len() < need {
        return Ok(None);
    }
    let mut frame = &buf[1..need];
    let decoded = match tag {
        TAG_PING => Frame::Legacy(MasterToHead::Ping { site: SiteId(frame.get_u16_le()) }),
        TAG_FAILED => {
            let job = ChunkId(frame.get_u32_le());
            let site = SiteId(frame.get_u16_le());
            Frame::Legacy(MasterToHead::Failed { job, site })
        }
        TAG_BYE => Frame::Legacy(MasterToHead::Bye),
        TAG_HELLO => {
            let site = SiteId(frame.get_u16_le());
            let version = frame.get_u16_le();
            let credit = frame.get_u16_le();
            Frame::Hello { site, version, credit }
        }
        TAG_GET_JOBS => {
            let site = SiteId(frame.get_u16_le());
            let max = frame.get_u16_le();
            Frame::GetJobs { site, max }
        }
        TAG_ACK_BATCH => {
            let site = SiteId(frame.get_u16_le());
            let want = frame.get_u16_le();
            let n = frame.get_u16_le() as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let job = ChunkId(frame.get_u32_le());
                let ok = frame.get_u8() != 0;
                entries.push(AckEntry { job, ok });
            }
            Frame::AckBatch { site, want, entries }
        }
        _ => unreachable!("tag validated above"),
    };
    Ok(Some((decoded, need)))
}

/// Append an `AckBatch` frame to `out`.
///
/// # Panics
/// Panics when `entries` outgrows the frame's `u16` count.
pub(crate) fn put_ack_batch(out: &mut Vec<u8>, site: SiteId, want: u16, entries: &[AckEntry]) {
    let n = u16::try_from(entries.len()).expect("an AckBatch holds at most u16::MAX reports");
    out.reserve(7 + entries.len() * ACK_ENTRY);
    out.push(TAG_ACK_BATCH);
    out.extend_from_slice(&site.0.to_le_bytes());
    out.extend_from_slice(&want.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.job.0.to_le_bytes());
        out.push(u8::from(e.ok));
    }
}

/// Encode any frame (the inverse of [`try_read_frame`]).
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, frame);
    out
}

/// Append any frame to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Legacy(msg) => put_to_head(out, msg),
        Frame::Hello { site, version, credit } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&site.0.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&credit.to_le_bytes());
        }
        Frame::GetJobs { site, max } => {
            out.push(TAG_GET_JOBS);
            out.extend_from_slice(&site.0.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
        }
        Frame::AckBatch { site, want, entries } => put_ack_batch(out, *site, *want, entries),
    }
}

/// Open the handshake: announce `site` and the prefetch-credit window.
/// `version` is normally [`WIRE_VERSION`]; tests pass lower values to be
/// turned away.
pub fn write_hello(w: &mut impl Write, site: SiteId, version: u16, credit: u16) -> io::Result<()> {
    w.write_all(&encode_frame(&Frame::Hello { site, version, credit }))?;
    w.flush()
}

/// Append a `HelloAck` to `out`: the version the head will speak on this
/// connection (`min(WIRE_VERSION, theirs)`).
pub(crate) fn put_hello_ack(out: &mut Vec<u8>, version: u16) {
    out.push(TAG_HELLO_ACK);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Read the head's handshake answer: the negotiated protocol version.
pub fn read_hello_ack(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 3];
    r.read_exact(&mut b)?;
    if b[0] != TAG_HELLO_ACK {
        return Err(err(&format!("expected hello-ack, got tag {}", b[0])));
    }
    Ok(u16::from_le_bytes([b[1], b[2]]))
}

/// Request up to `max` jobs in one grant (reply is a grant frame).
pub fn write_get_jobs(w: &mut impl Write, site: SiteId, max: u16) -> io::Result<()> {
    w.write_all(&encode_frame(&Frame::GetJobs { site, max }))?;
    w.flush()
}

/// Send a batch of completion/failure reports; the head answers with one
/// [`BatchReply`].
pub fn write_ack_batch(
    w: &mut impl Write,
    site: SiteId,
    want: u16,
    entries: &[AckEntry],
) -> io::Result<()> {
    let mut out = Vec::new();
    put_ack_batch(&mut out, site, want, entries);
    w.write_all(&out)?;
    w.flush()
}

/// Append a [`BatchReply`] to `out`.
///
/// # Panics
/// Panics when it holds more than `u16::MAX` verdicts — one per report of an
/// `AckBatch`, whose count is a `u16` — or more than [`MAX_REVOKED`] notices.
pub(crate) fn put_batch_reply(out: &mut Vec<u8>, reply: &BatchReply) {
    let verdicts = u16::try_from(reply.verdicts.len()).expect("one verdict per AckBatch report");
    assert!(reply.revoked.len() <= MAX_REVOKED, "the head sends at most MAX_REVOKED notices");
    out.reserve(5 + reply.verdicts.len() + reply.revoked.len() * 4);
    out.push(TAG_BATCH_REPLY);
    out.extend_from_slice(&verdicts.to_le_bytes());
    out.extend(reply.verdicts.iter().map(|&v| u8::from(v)));
    out.extend_from_slice(&(reply.revoked.len() as u16).to_le_bytes());
    for job in &reply.revoked {
        out.extend_from_slice(&job.0.to_le_bytes());
    }
    put_grant(out, &reply.grant);
}

/// Read a [`BatchReply`] from a stream. Both length prefixes are `u16`, so
/// the decode allocation is bounded without a separate cap.
pub fn read_batch_reply(r: &mut impl Read) -> io::Result<BatchReply> {
    read_batch_reply_with(r, &mut Vec::new(), || None)
}

/// [`read_batch_reply`] through `body`, the caller's scratch buffer for the
/// frame's bytes, with the grant decoded into the batch `spare` gives when
/// it has jobs (see [`read_grant_with`]).
pub(crate) fn read_batch_reply_with(
    r: &mut impl Read,
    body: &mut Vec<u8>,
    spare: impl FnOnce() -> Option<JobBatch>,
) -> io::Result<BatchReply> {
    let mut head = [0u8; 3];
    r.read_exact(&mut head)?;
    if head[0] != TAG_BATCH_REPLY {
        return Err(err(&format!("expected batch reply, got tag {}", head[0])));
    }
    let n = u16::from_le_bytes([head[1], head[2]]) as usize;
    read_body(r, body, n)?;
    let verdicts = body.iter().map(|&b| b != 0).collect();
    let mut rb = [0u8; 2];
    r.read_exact(&mut rb)?;
    let n_revoked = u16::from_le_bytes(rb) as usize;
    read_body(r, body, n_revoked * 4)?;
    let revoked = body
        .chunks_exact(4)
        .map(|c| ChunkId(u32::from_le_bytes(c.try_into().expect("job id"))))
        .collect();
    let grant = read_grant_with(r, body, spare)?;
    Ok(BatchReply { verdicts, revoked, grant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn chunk(id: u32) -> ChunkMeta {
        ChunkMeta {
            id: ChunkId(id),
            file: FileId(id / 3),
            offset: u64::from(id) * 128,
            len: 128,
            n_units: 16,
            site: SiteId::CLOUD,
        }
    }

    fn grant_bytes(batch: &JobBatch) -> Vec<u8> {
        let mut out = Vec::new();
        put_grant(&mut out, batch);
        out
    }

    #[test]
    fn grants_roundtrip() {
        for (n, stolen, terminal) in [(0usize, false, true), (1, true, false), (5, false, false)] {
            let batch = JobBatch {
                jobs: (0..n as u32).map(chunk).collect(),
                spans: (0..n as u64).map(|i| 100 + i).collect(),
                stolen,
                terminal,
            };
            let mut cursor = Cursor::new(grant_bytes(&batch));
            assert_eq!(read_grant(&mut cursor).unwrap(), batch);
        }
    }

    #[test]
    fn untracked_grants_decode_with_zero_spans() {
        // A batch built without span tracking encodes span 0 per record and
        // decodes back to an explicit all-zero span list.
        let batch =
            JobBatch { jobs: vec![chunk(9)], spans: Vec::new(), stolen: true, terminal: false };
        let decoded = read_grant(&mut Cursor::new(grant_bytes(&batch))).unwrap();
        assert_eq!(decoded.jobs, batch.jobs);
        assert_eq!(decoded.spans, vec![0]);
        assert_eq!(decoded.span_of(0), 0);
    }

    #[test]
    fn truncated_grant_errors() {
        let batch = JobBatch {
            jobs: vec![chunk(1), chunk(2)],
            spans: vec![1, 2],
            stolen: false,
            terminal: false,
        };
        let bytes = grant_bytes(&batch);
        for cut in [0, 3, 8, bytes.len() - 1] {
            let mut cursor = Cursor::new(&bytes[..cut]);
            assert!(read_grant(&mut cursor).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn huge_grant_length_prefix_is_rejected_before_allocation() {
        // A hostile frame claiming u32::MAX jobs must error out, not
        // attempt a 100+ GiB allocation.
        let mut bytes = vec![TAG_GRANT, 0, 0];
        bytes.extend(u32::MAX.to_le_bytes());
        assert!(read_grant(&mut Cursor::new(bytes)).is_err());

        let mut just_over = vec![TAG_GRANT, 0, 0];
        just_over.extend(((MAX_GRANT_JOBS + 1) as u32).to_le_bytes());
        assert!(read_grant(&mut Cursor::new(just_over)).is_err());
    }

    #[test]
    fn frames_roundtrip_through_the_incremental_decoder() {
        let frames = [
            Frame::Hello { site: SiteId(3), version: WIRE_VERSION, credit: 256 },
            Frame::GetJobs { site: SiteId(3), max: 64 },
            Frame::AckBatch {
                site: SiteId(3),
                want: 32,
                entries: vec![
                    AckEntry { job: ChunkId(7), ok: true },
                    AckEntry { job: ChunkId(9), ok: false },
                ],
            },
            Frame::AckBatch { site: SiteId(0), want: 0, entries: Vec::new() },
            Frame::Legacy(MasterToHead::Failed { job: ChunkId(7), site: SiteId(3) }),
            Frame::Legacy(MasterToHead::Ping { site: SiteId(3) }),
            Frame::Legacy(MasterToHead::Bye),
        ];
        let mut buf = BytesMut::new();
        for f in &frames {
            buf.extend_from_slice(&encode_frame(f));
        }
        for f in &frames {
            assert_eq!(try_read_frame(&mut buf).unwrap().as_ref(), Some(f));
        }
        assert!(buf.is_empty());
        assert_eq!(try_read_frame(&mut buf).unwrap(), None, "empty buffer");
    }

    #[test]
    fn incremental_decoder_waits_for_whole_frames() {
        let frame = Frame::AckBatch {
            site: SiteId(1),
            want: 8,
            entries: (0..4).map(|i| AckEntry { job: ChunkId(i), ok: i % 2 == 0 }).collect(),
        };
        let bytes = encode_frame(&frame);
        let mut buf = BytesMut::new();
        // Feed one byte at a time: every prefix must yield None, never an
        // error or a partial frame, until the final byte lands.
        for (i, &b) in bytes.iter().enumerate() {
            buf.extend_from_slice(&[b]);
            if i + 1 < bytes.len() {
                assert_eq!(try_read_frame(&mut buf).unwrap(), None, "byte {i}");
            }
        }
        assert_eq!(try_read_frame(&mut buf).unwrap(), Some(frame));
    }

    #[test]
    fn incremental_decoder_rejects_unknown_tags_the_deleted_rpcs_among_them() {
        // 1, 2 and 6 were `Request`, `Complete` and its ack: a peer that
        // still sends them is refused at the tag, whatever follows it.
        for tag in [0xEEu8, 0, 1, 2, 6] {
            let mut buf = BytesMut::from(&[tag, 1, 2, 3, 4, 5, 6, 7][..]);
            let e = try_read_frame(&mut buf).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::InvalidData, "tag {tag}");
        }
        // A head→master frame where a grant is expected is no grant.
        assert!(read_grant(&mut Cursor::new(vec![TAG_BATCH_REPLY, 0, 0])).is_err());
    }

    #[test]
    fn hello_negotiation_roundtrips_and_caps_at_the_lower_version() {
        let mut bytes = Vec::new();
        write_hello(&mut bytes, SiteId(5), WIRE_VERSION, 128).unwrap();
        let mut buf = BytesMut::from(&bytes[..]);
        let hello = try_read_frame(&mut buf).unwrap().unwrap();
        assert_eq!(hello, Frame::Hello { site: SiteId(5), version: WIRE_VERSION, credit: 128 });
        // Head side answers min(ours, theirs).
        for (theirs, negotiated) in [(WIRE_VERSION, WIRE_VERSION), (1, 1), (99, WIRE_VERSION)] {
            let mut reply = Vec::new();
            put_hello_ack(&mut reply, WIRE_VERSION.min(theirs));
            assert_eq!(read_hello_ack(&mut Cursor::new(reply)).unwrap(), negotiated);
        }
        // A grant where a hello-ack is expected is rejected.
        let grant = grant_bytes(&JobBatch::empty(false));
        assert!(read_hello_ack(&mut Cursor::new(grant)).is_err());
    }

    #[test]
    fn batch_replies_roundtrip() {
        let replies = [
            BatchReply { verdicts: Vec::new(), revoked: Vec::new(), grant: JobBatch::empty(true) },
            BatchReply {
                verdicts: vec![true, false, true],
                revoked: vec![ChunkId(3), ChunkId(11)],
                grant: JobBatch {
                    jobs: vec![chunk(1), chunk(2)],
                    spans: vec![7, 8],
                    stolen: true,
                    terminal: false,
                },
            },
        ];
        for reply in &replies {
            let mut bytes = Vec::new();
            put_batch_reply(&mut bytes, reply);
            assert_eq!(&read_batch_reply(&mut Cursor::new(bytes)).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_batch_reply_errors() {
        let reply = BatchReply {
            verdicts: vec![true, true],
            revoked: vec![ChunkId(5)],
            grant: JobBatch {
                jobs: vec![chunk(4)],
                spans: vec![9],
                stolen: false,
                terminal: false,
            },
        };
        let mut bytes = Vec::new();
        put_batch_reply(&mut bytes, &reply);
        for cut in [0, 2, 4, bytes.len() - 1] {
            assert!(read_batch_reply(&mut Cursor::new(&bytes[..cut])).is_err(), "cut {cut}");
        }
    }
}
