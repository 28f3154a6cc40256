//! Routing of chunk retrievals to the store that hosts them, with WAN
//! charging for cross-site ("stolen") reads.
//!
//! A slave always asks the router for a chunk; the router finds the hosting
//! site's store, fetches with the configured number of retrieval threads
//! (on the slave's own thread when the chunk is one range), and — when
//! reader and host differ — pushes the bytes through the shared inter-site
//! throttle so concurrent thieves genuinely compete for WAN bandwidth.

use crate::error::RunError;
use bytes::Bytes;
use cloudburst_core::{ChunkMeta, SiteId};
use cloudburst_netsim::{Throttle, Topology};
use cloudburst_storage::{fetch_range_pooled, ChunkStore, FetchConfig, FetcherPool, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Outcome of one routed fetch.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The chunk's bytes.
    pub bytes: Bytes,
    /// Whether the read crossed sites.
    pub remote: bool,
    /// Transient storage failures absorbed below the chunk level (each a
    /// single range re-read, never a whole-chunk restart).
    pub retries: u64,
}

/// Concurrently fetching workers assumed until
/// [`StoreRouter::set_concurrency`] tells the router the real count.
const DEFAULT_READERS: usize = 4;

/// The runtime's view of every site's storage plus the links between sites.
///
/// Each hosting site may own one persistent [`FetcherPool`]: every chunk read
/// against that site's store that splits into ranges runs them on the pool,
/// so no fetch spawns or joins a thread of its own. A read that is one range
/// never touches a pool, and a router whose reads are all one range spawns
/// none. The pools are spawned once, by [`StoreRouter::set_concurrency`] —
/// or, for a caller that never says how many workers fetch, by the first
/// split read against the site.
pub struct StoreRouter {
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    pools: BTreeMap<SiteId, OnceLock<FetcherPool>>,
    /// Workers that may fetch at once, each with `fetch.threads` ranges.
    readers: usize,
    wan: BTreeMap<(SiteId, SiteId), Arc<Throttle>>,
    fetch: FetchConfig,
    retry: RetryPolicy,
    /// Coded redundancy: when on, a reader whose own store holds a chunk's
    /// file (a replica) is served locally — no WAN crossing, no throttle.
    replicated: bool,
}

impl StoreRouter {
    /// Build a router over per-site stores, charging cross-site reads
    /// against `topology`'s link between reader and host at `time_scale`.
    #[must_use]
    pub fn new(
        stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
        topology: &Topology,
        fetch: FetchConfig,
        time_scale: f64,
    ) -> StoreRouter {
        let mut wan = BTreeMap::new();
        let sites: Vec<SiteId> = stores.keys().copied().collect();
        for &reader in &sites {
            for &host in &sites {
                if reader != host {
                    let link = topology.link(reader.0, host.0);
                    wan.insert((reader, host), Arc::new(Throttle::new(link, time_scale)));
                }
            }
        }
        StoreRouter {
            stores,
            pools: sites.iter().map(|&s| (s, OnceLock::new())).collect(),
            readers: DEFAULT_READERS,
            wan,
            fetch,
            retry: RetryPolicy { max_retries: 0, ..RetryPolicy::default() },
            replicated: false,
        }
    }

    /// Spawn each site's fetcher pool, on this thread, for `readers`
    /// concurrently fetching workers. The runtime calls this with the total
    /// core count, before it spawns slaves and only when its largest chunk
    /// splits into ranges.
    pub fn set_concurrency(&mut self, readers: usize) {
        self.readers = readers;
        self.pools.values_mut().for_each(|pool| drop(pool.take()));
        for &site in self.pools.keys() {
            self.pool(site);
        }
    }

    /// `site`'s fetcher pool, spawned here if nothing spawned it yet: the
    /// one place a router spawns fetchers.
    fn pool(&self, site: SiteId) -> &FetcherPool {
        self.pools[&site].get_or_init(|| FetcherPool::new(self.pool_size()))
    }

    /// `site`'s fetcher pool, if one was spawned.
    #[cfg(test)]
    pub(crate) fn spawned(&self, site: SiteId) -> Option<&FetcherPool> {
        self.pools[&site].get()
    }

    /// `threads` ranges per chunk × every worker that may fetch at once, so
    /// a pool never serializes range reads of different workers.
    fn pool_size(&self) -> usize {
        (self.fetch.threads.max(1) as usize).saturating_mul(self.readers.max(1))
    }

    /// Set the transient-failure retry policy applied to every range read.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Enable replica-aware routing (coded redundancy, `r > 1`): a fetch is
    /// served from the reader's **own** store whenever it holds the chunk's
    /// file — zero WAN bytes — and falls back to the primary site otherwise.
    /// Off by default, keeping r = 1 routing bit-exact with the classic
    /// primary-site path.
    pub fn set_replicated(&mut self, on: bool) {
        self.replicated = on;
    }

    /// Fetch `chunk` on behalf of a worker at `reader`: one read on the
    /// calling thread, or concurrent range reads on the hosting site's
    /// persistent fetcher pool, reassembled zero-copy.
    pub fn fetch(&self, reader: SiteId, chunk: &ChunkMeta) -> Result<Fetched, RunError> {
        // Replica-aware host election: prefer the reader's own store when it
        // holds the chunk's byte range (a coded replica), so the read never
        // crosses the WAN.
        let host = if self.replicated && chunk.site != reader && self.has_replica(reader, chunk) {
            reader
        } else {
            chunk.site
        };
        let store = self.stores.get(&host).ok_or(RunError::NoStoreForSite(host))?;
        let (file, offset, len) = (chunk.file, chunk.offset, chunk.len);
        let pool = || self.pool(host);
        let (bytes, retries) =
            fetch_range_pooled(pool, store, file, offset, len, self.fetch, &self.retry, None)?;
        let remote = host != reader;
        if remote {
            if let Some(throttle) = self.wan.get(&(reader, host)) {
                throttle.transfer(bytes.len() as u64);
            }
        }
        Ok(Fetched { bytes, remote, retries })
    }

    /// Whether `reader`'s own store holds `chunk`'s full byte range.
    fn has_replica(&self, reader: SiteId, chunk: &ChunkMeta) -> bool {
        self.stores
            .get(&reader)
            .and_then(|s| s.file_len(chunk.file).ok())
            .is_some_and(|len| len >= chunk.offset + chunk.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::{ChunkId, FileId};
    use cloudburst_netsim::LinkSpec;
    use cloudburst_storage::MemStore;
    use std::time::Instant;

    fn chunk(site: SiteId, len: u64) -> ChunkMeta {
        ChunkMeta { id: ChunkId(0), file: FileId(0), offset: 0, len, n_units: len, site }
    }

    fn router(wan_bw: f64) -> StoreRouter {
        let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
        stores.insert(
            SiteId::LOCAL,
            Arc::new(MemStore::new(SiteId::LOCAL, vec![Bytes::from(vec![1u8; 4096])])),
        );
        stores.insert(
            SiteId::CLOUD,
            Arc::new(MemStore::new(SiteId::CLOUD, vec![Bytes::from(vec![2u8; 4096])])),
        );
        let topo =
            Topology::new().with_link(SiteId::LOCAL.0, SiteId::CLOUD.0, LinkSpec::new(0.0, wan_bw));
        StoreRouter::new(stores, &topo, FetchConfig::sequential(), 1e-3)
    }

    #[test]
    fn local_reads_are_not_remote() {
        let r = router(1e12);
        let f = r.fetch(SiteId::LOCAL, &chunk(SiteId::LOCAL, 100)).unwrap();
        assert!(!f.remote);
        assert_eq!(f.bytes, Bytes::from(vec![1u8; 100]));
    }

    #[test]
    fn cross_site_reads_are_remote_and_throttled() {
        // 4096 bytes at 4096 B/s = 1 modelled s = 1 ms real at 1e-3.
        let r = router(4096.0);
        let t = Instant::now();
        let f = r.fetch(SiteId::LOCAL, &chunk(SiteId::CLOUD, 4096)).unwrap();
        assert!(f.remote);
        assert_eq!(f.bytes, Bytes::from(vec![2u8; 4096]));
        assert!(t.elapsed().as_secs_f64() >= 0.8e-3, "WAN charge expected");
    }

    #[test]
    fn missing_store_is_reported() {
        let r = router(1e12);
        let orphan = chunk(SiteId(9), 10);
        assert!(matches!(
            r.fetch(SiteId::LOCAL, &orphan),
            Err(RunError::NoStoreForSite(SiteId(9)))
        ));
    }

    #[test]
    fn a_one_range_fetch_leaves_every_pool_unspawned() {
        // `new` spawns nothing, and a chunk too small to split — configured
        // sequential, or under `min_range` — is read on the caller's thread,
        // local or stolen: no pool is ever spawned for it.
        let sequential = router(1e12);
        sequential.fetch(SiteId::LOCAL, &chunk(SiteId::LOCAL, 100)).unwrap();
        sequential.fetch(SiteId::LOCAL, &chunk(SiteId::CLOUD, 4096)).unwrap();
        let mut small = router(1e12);
        small.fetch = FetchConfig::default();
        small.fetch(SiteId::CLOUD, &chunk(SiteId::LOCAL, 4096)).unwrap();
        for r in [&sequential, &small] {
            assert!([SiteId::LOCAL, SiteId::CLOUD].iter().all(|&s| r.spawned(s).is_none()));
        }
    }

    #[test]
    fn set_concurrency_spawns_every_sites_fetchers_once_for_its_split_reads() {
        // `threads` ranges for each of the readers, at every store site; a
        // split read finds that pool and spawns no other.
        let mut r = router(1e12);
        r.fetch = FetchConfig { threads: 4, min_range: 64 };
        r.set_concurrency(6);
        let before = r.spawned(SiteId::LOCAL).map(std::ptr::from_ref);
        for site in [SiteId::LOCAL, SiteId::CLOUD] {
            assert_eq!(r.spawned(site).map(FetcherPool::threads), Some(24), "{site}");
        }
        let f = r.fetch(SiteId::CLOUD, &chunk(SiteId::LOCAL, 4096)).unwrap();
        assert_eq!(f.bytes, Bytes::from(vec![1u8; 4096]));
        assert_eq!(r.spawned(SiteId::LOCAL).map(std::ptr::from_ref), before, "spawned again");
        // A caller that never says how many workers fetch gets the default,
        // for the site it reads from, at its first split read.
        let mut r = router(1e12);
        r.fetch = FetchConfig { threads: 4, min_range: 64 };
        r.fetch(SiteId::LOCAL, &chunk(SiteId::LOCAL, 4096)).unwrap();
        let threads = FetchConfig::default().threads as usize * DEFAULT_READERS;
        assert_eq!(r.spawned(SiteId::LOCAL).map(FetcherPool::threads), Some(threads));
        assert!(r.spawned(SiteId::CLOUD).is_none());
    }

    #[test]
    fn multi_range_fetches_run_on_the_pool_and_reassemble() {
        let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        stores.insert(
            SiteId::LOCAL,
            Arc::new(MemStore::new(SiteId::LOCAL, vec![Bytes::from(data.clone())])),
        );
        let mut r = StoreRouter::new(
            stores,
            &Topology::new(),
            FetchConfig { threads: 4, min_range: 64 },
            1e-3,
        );
        r.set_concurrency(6);
        let meta = ChunkMeta {
            id: ChunkId(0),
            file: FileId(0),
            offset: 128,
            len: 3000,
            n_units: 3000,
            site: SiteId::LOCAL,
        };
        let f = r.fetch(SiteId::LOCAL, &meta).unwrap();
        assert_eq!(f.bytes.as_ref(), &data[128..3128]);
    }

    #[test]
    fn replicated_routing_serves_replicas_locally() {
        // Both stores hold the same file (coded r = 2 placement).
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mk = || {
            let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
            for site in [SiteId::LOCAL, SiteId::CLOUD] {
                stores.insert(site, Arc::new(MemStore::new(site, vec![Bytes::from(data.clone())])));
            }
            let topo = Topology::new().with_link(
                SiteId::LOCAL.0,
                SiteId::CLOUD.0,
                LinkSpec::new(0.0, 1e12),
            );
            StoreRouter::new(stores, &topo, FetchConfig::sequential(), 1e-3)
        };
        let cloud_chunk = chunk(SiteId::CLOUD, 2048);
        // Off (the default): the cross-site read is remote as ever.
        let r = mk();
        assert!(r.fetch(SiteId::LOCAL, &cloud_chunk).unwrap().remote);
        // On: the local replica serves it with zero WAN bytes.
        let mut r = mk();
        r.set_replicated(true);
        let f = r.fetch(SiteId::LOCAL, &cloud_chunk).unwrap();
        assert!(!f.remote, "replica read must not count as remote");
        assert_eq!(f.bytes.as_ref(), &data[..2048]);
    }

    #[test]
    fn replicated_routing_falls_back_without_a_replica() {
        // The reader's store holds nothing: routing must behave classically
        // even with replication enabled.
        let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
        stores.insert(SiteId::LOCAL, Arc::new(MemStore::new(SiteId::LOCAL, vec![])));
        stores.insert(
            SiteId::CLOUD,
            Arc::new(MemStore::new(SiteId::CLOUD, vec![Bytes::from(vec![2u8; 4096])])),
        );
        let topo =
            Topology::new().with_link(SiteId::LOCAL.0, SiteId::CLOUD.0, LinkSpec::new(0.0, 1e12));
        let mut r = StoreRouter::new(stores, &topo, FetchConfig::sequential(), 1e-3);
        r.set_replicated(true);
        let f = r.fetch(SiteId::LOCAL, &chunk(SiteId::CLOUD, 1024)).unwrap();
        assert!(f.remote);
        assert_eq!(f.bytes, Bytes::from(vec![2u8; 1024]));
    }

    #[test]
    fn transient_store_faults_are_absorbed_and_counted() {
        use cloudburst_core::FaultPlan;
        use cloudburst_storage::ChaosStore;
        // The chaos store remembers attempts per range, so each half of the
        // test gets a fresh router over a fresh store.
        let fresh = || {
            let plan = FaultPlan {
                storage_error_rate: 1.0,
                storage_max_consecutive: 1,
                ..FaultPlan::seeded(7)
            };
            let inner: Arc<dyn ChunkStore> =
                Arc::new(MemStore::new(SiteId::LOCAL, vec![Bytes::from(vec![5u8; 256])]));
            let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
            stores.insert(SiteId::LOCAL, Arc::new(ChaosStore::new(inner, Arc::new(plan))));
            StoreRouter::new(stores, &Topology::new(), FetchConfig::sequential(), 1e-3)
        };

        // Without a retry policy the injected fault surfaces as an error.
        let r = fresh();
        assert!(r.fetch(SiteId::LOCAL, &chunk(SiteId::LOCAL, 256)).is_err());

        // With one, the fetch succeeds and reports the absorbed retries.
        let mut r = fresh();
        r.set_retry(RetryPolicy { max_retries: 3, base: 0.0, cap: 0.0, seed: 0 });
        let f = r.fetch(SiteId::LOCAL, &chunk(SiteId::LOCAL, 256)).unwrap();
        assert_eq!(f.bytes, Bytes::from(vec![5u8; 256]));
        assert!(f.retries > 0);
    }
}
