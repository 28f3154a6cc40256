//! Property tests for the data index: the sites a run needs stores for are
//! read off the files, and they are exactly the sites that host chunks.

use cloudburst_core::{DataIndex, FileId, LayoutParams, SiteId};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Over any layout and any placement of its files on up to four sites,
    /// `host_sites` — one look per file — names the sites `chunks_per_site`
    /// counts any chunk at, and no other.
    #[test]
    fn the_host_sites_are_the_sites_with_chunks(
        units in 1u64..2_000,
        unit_size in 1u32..64,
        units_per_chunk in 1u64..50,
        n_files in 1u32..12,
        homes in prop::collection::vec(0u16..4, 12),
    ) {
        let params = LayoutParams { unit_size, units_per_chunk, n_files };
        let place = |f: FileId| SiteId(homes[f.0 as usize]);
        let index = DataIndex::build(units, params, place).expect("valid index");
        let counted: BTreeSet<SiteId> = index
            .chunks_per_site()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(site, _)| site)
            .collect();
        prop_assert_eq!(index.host_sites(), counted);
    }
}
