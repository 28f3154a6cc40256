//! Property tests for the storage substrate: for any layout parameters and
//! placement, organizing a dataset and reading it back — whole, per chunk,
//! or through the multi-threaded range fetcher — reproduces the bytes
//! exactly; the binary index format round-trips any valid index.

use bytes::Bytes;
use cloudburst_core::{DataIndex, LayoutParams, SiteId};
use cloudburst_storage::{
    decode_index, encode_index, fetch_range_pooled, fraction_placement, organize, reassemble,
    ChunkStore, FetchConfig, FetcherPool, MemStore, RetryPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_layout() -> impl Strategy<Value = (LayoutParams, u64)> {
    (1u32..16, 1u64..20, 1u32..7, 1u64..200).prop_map(|(unit, upc, nf, n_chunk_ish)| {
        (LayoutParams { unit_size: unit, units_per_chunk: upc, n_files: nf }, n_chunk_ish * upc)
    })
}

fn dataset(units: u64, unit_size: u32, seed: u8) -> Bytes {
    let len = (units * u64::from(unit_size)) as usize;
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<_>>())
}

proptest! {
    #[test]
    fn organize_reassemble_roundtrip(
        (params, units) in arb_layout(),
        frac in 0.0f64..=1.0,
        seed in 0u8..255,
    ) {
        let data = dataset(units, params.unit_size, seed);
        let org = organize(&data, params, &mut fraction_placement(frac, params.n_files))
            .expect("organize");
        prop_assert_eq!(org.index.total_bytes() as usize, data.len());
        let back = reassemble(&org.index, &org.stores).expect("reassemble");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn every_chunk_reads_back_its_exact_bytes(
        (params, units) in arb_layout(),
        frac in 0.0f64..=1.0,
    ) {
        let data = dataset(units, params.unit_size, 7);
        let org = organize(&data, params, &mut fraction_placement(frac, params.n_files))
            .expect("organize");
        // Walk the dataset in index order and compare chunk-by-chunk.
        let mut at = 0usize;
        for f in &org.index.files {
            let store = org.store(f.site);
            for &cid in &f.chunks {
                let c = org.index.chunk(cid);
                let got = store.read(c.file, c.offset, c.len).expect("chunk read");
                prop_assert_eq!(&got[..], &data[at..at + c.len as usize]);
                at += c.len as usize;
            }
        }
        prop_assert_eq!(at, data.len());
    }

    #[test]
    fn fetch_range_equals_direct_read(
        len in 1usize..5000,
        offset_frac in 0.0f64..1.0,
        read_frac in 0.0f64..=1.0,
        threads in 1u32..9,
        min_range in 1u64..512,
        workers in 1usize..5,
    ) {
        let data = dataset(len as u64, 1, 3);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new(SiteId::LOCAL, vec![data.clone()]));
        let pool = FetcherPool::new(workers);
        let offset = ((len as f64) * offset_frac) as u64;
        let max_read = len as u64 - offset;
        let read = ((max_read as f64) * read_frac) as u64;
        let cfg = FetchConfig { threads, min_range };
        let file = cloudburst_core::FileId(0);
        let retry = RetryPolicy::default();
        let (got, retries) =
            fetch_range_pooled(|| &pool, &store, file, offset, read, cfg, &retry, None).expect("fetch");
        prop_assert_eq!(&got[..], &data[offset as usize..(offset + read) as usize]);
        prop_assert_eq!(retries, 0);
    }

    #[test]
    fn index_codec_roundtrips_any_valid_index(
        (params, units) in arb_layout(),
        frac in 0.0f64..=1.0,
    ) {
        let n_local = (frac * f64::from(params.n_files)).round() as u32;
        let index = DataIndex::build(units, params, |f| {
            if f.0 < n_local { SiteId::LOCAL } else { SiteId::CLOUD }
        }).expect("build");
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).expect("decode");
        prop_assert_eq!(back, index);
    }

    #[test]
    fn single_bitflip_never_decodes_silently(
        (params, units) in arb_layout(),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let index = DataIndex::build(units, params, |_| SiteId::LOCAL).expect("build");
        let mut bytes = encode_index(&index).to_vec();
        let pos = (((bytes.len() as f64) * flip_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        // Either the checksum/structure rejects it, or (astronomically
        // unlikely with FNV over these sizes) it decodes to a *different*
        // index — it must never silently decode to the same one.
        if let Ok(decoded) = decode_index(&bytes) {
            prop_assert_ne!(decoded, index);
        }
    }
}
