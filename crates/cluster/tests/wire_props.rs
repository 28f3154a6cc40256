//! Frame-decoding robustness: a head node reads frames from remote site
//! masters over the wire, so arbitrary garbage bytes must never panic the
//! decoder, allocate unboundedly, or loop — every malformed input has to
//! come back as a clean `io::Error` (or clean EOF).

use bytes::BytesMut;
use cloudburst_cluster::wire::{
    encode_frame, read_batch_reply, read_grant, read_hello_ack, try_read_frame, AckEntry, Frame,
};
use cloudburst_core::{ChunkId, SiteId};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    #[test]
    fn garbage_never_panics_the_grant_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = read_grant(&mut Cursor::new(bytes));
    }

    #[test]
    fn every_tag_with_a_corrupt_body_errors_cleanly(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = vec![tag];
        buf.extend(&body);
        let _ = try_read_frame(&mut BytesMut::from(&buf[..]));
        let _ = read_grant(&mut Cursor::new(&buf[..]));
        let _ = read_hello_ack(&mut Cursor::new(&buf[..]));
        let _ = read_batch_reply(&mut Cursor::new(&buf[..]));
    }

    #[test]
    fn garbage_never_panics_the_incremental_frame_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut buf = BytesMut::from(&bytes[..]);
        // Every Ok(Some(_)) consumes at least the tag byte and Ok(None)
        // ends the loop, so this terminates; garbage must surface as a
        // clean Err, never a panic or a runaway allocation.
        while let Ok(Some(_)) = try_read_frame(&mut buf) {
            if buf.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn incremental_decoder_is_prefix_stable(
        site in any::<u16>(),
        want in any::<u16>(),
        jobs in prop::collection::vec((any::<u32>(), any::<bool>()), 0..16),
        cut_seed in any::<u32>(),
    ) {
        // Any prefix of a valid frame decodes to "incomplete", never an
        // error; the full frame round-trips exactly.
        let frame = Frame::AckBatch {
            site: SiteId(site),
            want,
            entries: jobs.iter().map(|&(j, ok)| AckEntry { job: ChunkId(j), ok }).collect(),
        };
        let bytes = encode_frame(&frame);
        let cut = cut_seed as usize % bytes.len();
        let mut partial = BytesMut::from(&bytes[..cut]);
        prop_assert!(matches!(try_read_frame(&mut partial), Ok(None)));
        let mut full = BytesMut::from(&bytes[..]);
        let decoded = try_read_frame(&mut full).unwrap();
        prop_assert_eq!(decoded, Some(frame));
        prop_assert!(full.is_empty());
    }

    #[test]
    fn garbage_never_panics_the_batch_reply_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = read_batch_reply(&mut Cursor::new(bytes));
    }

    #[test]
    fn garbage_never_panics_the_hello_ack_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = read_hello_ack(&mut Cursor::new(bytes));
    }
}
