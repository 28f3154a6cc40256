//! The exposition text of one fixed metrics state, byte for byte: which
//! families there are and in what order, their HELP and TYPE lines, the order
//! of labels, and when a series exists at all. The live ledger's families are
//! rendered from what a head and its slaves publish; the two latency
//! histograms sit beside them in the same sorted family map. The ledger's
//! counter and gauge families pin both of those `# TYPE` renders.

use cloudburst_core::{
    BatchPolicy, DataIndex, JobPool, LayoutParams, Metrics, SiteId, SlaveSample,
};

#[test]
fn the_exposition_of_a_fixed_state_is_pinned() {
    let m = Metrics::on();
    // Eight one-unit chunks in two files: four homed locally, four in the cloud.
    let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 2 };
    let index =
        DataIndex::build(8, params, |f| if f.0 == 0 { SiteId::LOCAL } else { SiteId::CLOUD })
            .unwrap();
    let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(1));
    // The cloud drains its own shard, then steals one local job: merged
    // results of both kinds at the cloud.
    for _ in 0..5 {
        for job in pool.grant(SiteId::CLOUD, 1, 0.0).jobs {
            assert!(pool.complete(job.id, SiteId::CLOUD).is_merged());
        }
    }
    // The local site merges one job and keeps another in flight.
    for job in pool.grant(SiteId::LOCAL, 1, 0.0).jobs {
        assert!(pool.complete(job.id, SiteId::LOCAL).is_merged());
    }
    assert_eq!(pool.grant(SiteId::LOCAL, 1, 0.0).jobs.len(), 1);
    // The cloud dies: its merged results of both kinds are lost and requeued.
    pool.evacuate(SiteId::CLOUD);
    let head = m.ledger();
    head.publish_pool(&pool);

    let alive = m.ledger();
    let sample = SlaveSample {
        jobs: 3,
        remote_bytes: 4096,
        retries: 1,
        retrieval: 0.25,
        processing: 1.5,
        hand_offs: 2,
        handed: 7,
        settles: 1,
        settled: 3,
        dropped: 1,
        ..SlaveSample::default()
    };
    alive.publish_slave(SiteId::LOCAL, 0, &sample);
    let gone = m.ledger();
    gone.publish_slave(SiteId::CLOUD, 1, &SlaveSample { jobs: 5, ..sample });
    drop(gone);

    let h = m.histogram("cloudburst_fetch_seconds", "Fetches.", &[("site", "local")]);
    h.observe_secs(0.001);
    h.observe_secs(0.004);

    let text = m.registry().unwrap().render();
    assert_eq!(text, GOLDEN, "\n{text}");
}

const GOLDEN: &str = r#"# HELP cloudburst_fetch_seconds Fetches.
# TYPE cloudburst_fetch_seconds histogram
cloudburst_fetch_seconds_bucket{site="local",le="0.0010485750000000002"} 1
cloudburst_fetch_seconds_bucket{site="local",le="0.004194303"} 2
cloudburst_fetch_seconds_bucket{site="local",le="+Inf"} 2
cloudburst_fetch_seconds_sum{site="local"} 0.005
cloudburst_fetch_seconds_count{site="local"} 2
# HELP cloudburst_pool_grants_total Job leases granted by the head (speculative copies included).
# TYPE cloudburst_pool_grants_total counter
cloudburst_pool_grants_total{site="cloud"} 5
cloudburst_pool_grants_total{site="local"} 2
# HELP cloudburst_pool_in_flight Jobs currently leased to some site.
# TYPE cloudburst_pool_in_flight gauge
cloudburst_pool_in_flight 1
# HELP cloudburst_pool_jobs_merged_total Completions accepted for merging, by processing site and job kind.
# TYPE cloudburst_pool_jobs_merged_total counter
cloudburst_pool_jobs_merged_total{kind="local",site="cloud"} 4
cloudburst_pool_jobs_merged_total{kind="local",site="local"} 1
cloudburst_pool_jobs_merged_total{kind="stolen",site="cloud"} 1
# HELP cloudburst_pool_queue_depth Jobs waiting in the head's pool by data-home site (shard depth).
# TYPE cloudburst_pool_queue_depth gauge
cloudburst_pool_queue_depth{site="cloud"} 4
cloudburst_pool_queue_depth{site="local"} 2
# HELP cloudburst_pool_results_lost_total Merged results that died with an evacuated site's robj.
# TYPE cloudburst_pool_results_lost_total counter
cloudburst_pool_results_lost_total{kind="local",site="cloud"} 4
cloudburst_pool_results_lost_total{kind="stolen",site="cloud"} 1
# HELP cloudburst_pool_shard_stolen_from_total Jobs stolen out of a site's shard by other sites.
# TYPE cloudburst_pool_shard_stolen_from_total counter
cloudburst_pool_shard_stolen_from_total{site="local"} 1
# HELP cloudburst_pool_steals_total Cross-site (stolen) job grants.
# TYPE cloudburst_pool_steals_total counter
cloudburst_pool_steals_total{site="cloud"} 1
# HELP cloudburst_prefetch_dropped_total Granted jobs a slave dropped unprocessed because their execution was revoked (evacuation or a finished replica) while they waited in its batch or its pipeline.
# TYPE cloudburst_prefetch_dropped_total counter
cloudburst_prefetch_dropped_total{site="cloud"} 1
cloudburst_prefetch_dropped_total{site="local"} 1
# HELP cloudburst_slave_fetch_busy_seconds_total Wall time a slave (or its prefetcher) spent in chunk retrieval.
# TYPE cloudburst_slave_fetch_busy_seconds_total counter
cloudburst_slave_fetch_busy_seconds_total{site="cloud",worker="1"} 0.25
cloudburst_slave_fetch_busy_seconds_total{site="local",worker="0"} 0.25
# HELP cloudburst_slave_hand_offs_total Answers with jobs a site's slaves heard from its master.
# TYPE cloudburst_slave_hand_offs_total counter
cloudburst_slave_hand_offs_total{site="cloud"} 2
cloudburst_slave_hand_offs_total{site="local"} 2
# HELP cloudburst_slave_handed_jobs_total Jobs a site's master handed its slaves.
# TYPE cloudburst_slave_handed_jobs_total counter
cloudburst_slave_handed_jobs_total{site="cloud"} 7
cloudburst_slave_handed_jobs_total{site="local"} 7
# HELP cloudburst_slave_jobs_total Jobs a slave fully decoded and reduced.
# TYPE cloudburst_slave_jobs_total counter
cloudburst_slave_jobs_total{site="cloud",worker="1"} 5
cloudburst_slave_jobs_total{site="local",worker="0"} 3
# HELP cloudburst_slave_process_busy_seconds_total Wall time a slave spent decoding and reducing.
# TYPE cloudburst_slave_process_busy_seconds_total counter
cloudburst_slave_process_busy_seconds_total{site="cloud",worker="1"} 1.5
cloudburst_slave_process_busy_seconds_total{site="local",worker="0"} 1.5
# HELP cloudburst_slave_remote_bytes_total Bytes a slave fetched across sites (stolen reads).
# TYPE cloudburst_slave_remote_bytes_total counter
cloudburst_slave_remote_bytes_total{site="cloud",worker="1"} 4096
cloudburst_slave_remote_bytes_total{site="local",worker="0"} 4096
# HELP cloudburst_slave_retries_total Transient storage retries absorbed under a slave's fetches.
# TYPE cloudburst_slave_retries_total counter
cloudburst_slave_retries_total{site="cloud",worker="1"} 1
cloudburst_slave_retries_total{site="local",worker="0"} 1
# HELP cloudburst_slave_settled_jobs_total Jobs a site's slaves reported in exchanges for verdicts.
# TYPE cloudburst_slave_settled_jobs_total counter
cloudburst_slave_settled_jobs_total{site="cloud"} 3
cloudburst_slave_settled_jobs_total{site="local"} 3
# HELP cloudburst_slave_settles_total Exchanges in which a site's slaves reported jobs for verdicts.
# TYPE cloudburst_slave_settles_total counter
cloudburst_slave_settles_total{site="cloud"} 1
cloudburst_slave_settles_total{site="local"} 1
"#;
