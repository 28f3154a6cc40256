//! Property tests for the telemetry subsystem: under *any* interleaving of
//! pool operations the emitted event stream must be monotonic in time,
//! causally ordered (a merge is always preceded by a grant of the same
//! chunk), and informationally complete — the aggregator must be able to
//! rebuild the pool's own fault counters and per-site job counts from the
//! stream alone, replica facts under coded redundancy included.
//! Independently, for arbitrary synthesized per-slave measurements,
//! [`derive_report`] must agree with the direct assembly
//! ([`assemble_sites`]) up to nanosecond timestamp quantization.

use cloudburst_core::{
    assemble_sites, derive_report, ns_to_secs, secs_to_ns, BatchPolicy, ChunkId, DataIndex, Event,
    EventKind, JobPool, LayoutParams, LeaseConfig, Recorder, SiteId, SiteJobCounts, SiteSample,
    SlaveSample, Telemetry,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_index() -> impl Strategy<Value = DataIndex> {
    (1u32..8, 1u64..6, 1u64..5, 0.0f64..=1.0).prop_map(|(n_files, cpf, upc, frac)| {
        let total = u64::from(n_files) * cpf * upc;
        let n_local = (frac * f64::from(n_files)).round() as u32;
        DataIndex::build(total, LayoutParams { unit_size: 4, units_per_chunk: upc, n_files }, |f| {
            if f.0 < n_local {
                SiteId::LOCAL
            } else {
                SiteId::CLOUD
            }
        })
        .expect("valid index")
    })
}

/// One synthesized slave measurement plus the flags its fetch event carries.
type SlaveSpec = (f64, f64, f64, u64, bool, u64);

fn arb_slave() -> impl Strategy<Value = SlaveSpec> {
    (
        0.0f64..5.0,  // processing
        0.0f64..5.0,  // retrieval
        0.0f64..10.0, // finish
        1u64..100_000,
        any::<bool>(),
        0u64..4,
    )
}

/// One synthesized site: slaves, local merge, finish, local/stolen job counts.
type SiteSpec = (Vec<SlaveSpec>, f64, f64, u64, u64);

fn arb_site() -> impl Strategy<Value = SiteSpec> {
    (prop::collection::vec(arb_slave(), 1..4), 0.0f64..1.0, 0.0f64..20.0, 0u64..10, 0u64..10)
}

proptest! {
    /// The chaos-monkey property with a recorder attached: arbitrary
    /// interleavings of grants, completions, failures, lease reaps and an
    /// evacuation over three processing sites, with speculation or — when it
    /// is off and `r > 1` — coded replicas filling the idle polls. The
    /// stream must be monotonic, causally ordered, and the aggregator must
    /// rebuild the pool's own ledgers from it exactly.
    #[test]
    fn pool_event_stream_is_monotonic_causal_and_complete(
        index in arb_index(),
        ops in prop::collection::vec((0u8..5, any::<u8>(), any::<u16>()), 0..250),
        batch in 1usize..5,
        redundancy in 1u32..=3,
        speculate in any::<bool>(),
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(batch));
        let rec = Arc::new(Recorder::new());
        pool.set_sink(Telemetry::to(rec.clone()));
        pool.set_lease(LeaseConfig { base: 1.0, multiplier: 2.0, min: 0.5, max: 8.0 });
        pool.set_speculation(speculate);
        pool.set_redundancy(redundancy);
        pool.set_max_attempts(100);
        let sites = [SiteId::LOCAL, SiteId::CLOUD, SiteId(2)];
        let mut held: BTreeMap<SiteId, Vec<ChunkId>> =
            sites.iter().map(|&s| (s, Vec::new())).collect();
        let mut t = 0.0f64;
        for &(op, s, x) in &ops {
            t += 0.3;
            let site = sites[usize::from(s) % 3];
            match op {
                0 => {
                    let b = pool.grant(site, batch, t);
                    held.get_mut(&site).unwrap().extend(b.jobs.iter().map(|j| j.id));
                }
                1 | 2 => {
                    let h = held.get_mut(&site).unwrap();
                    if h.is_empty() {
                        continue;
                    }
                    let job = h.remove(usize::from(x) % h.len());
                    if op == 1 {
                        pool.complete_at(job, site, t);
                    } else {
                        pool.fail(job, site);
                    }
                }
                3 => {
                    pool.reap_expired(t);
                }
                4 => {
                    pool.evacuate(SiteId::CLOUD);
                    held.get_mut(&SiteId::CLOUD).unwrap().clear();
                }
                _ => unreachable!(),
            }
        }
        // Drive to completion from the always-surviving local site.
        let mut rounds = 0;
        while !pool.all_done() {
            t += 1.0;
            pool.reap_expired(t);
            let b = pool.grant(SiteId::LOCAL, batch, t);
            for j in &b.jobs {
                pool.complete_at(j.id, SiteId::LOCAL, t);
            }
            rounds += 1;
            prop_assert!(rounds < 20_000, "pool failed to reach a terminal state");
        }
        let mut events = rec.take();

        // Monotonic: the pool is a single clock; its stream never rewinds.
        for w in events.windows(2) {
            prop_assert!(
                w[0].at_ns <= w[1].at_ns,
                "stream went backwards: {} then {}", w[0], w[1]
            );
        }
        // Causal: every merged completion is preceded by a grant of the
        // same chunk (position-wise, which implies time-wise here).
        let mut granted: Vec<bool> = vec![false; index.n_chunks()];
        for e in &events {
            match e.kind {
                EventKind::JobGranted { .. } => {
                    granted[e.chunk.unwrap().0 as usize] = true;
                }
                EventKind::JobCompleted { merged: true, .. } => {
                    prop_assert!(
                        granted[e.chunk.unwrap().0 as usize],
                        "merged a never-granted chunk: {e}"
                    );
                }
                _ => {}
            }
        }
        // Complete: the aggregator rebuilds the pool's ledgers exactly.
        // (Site rows only materialize under a SiteFinished marker, which
        // the runtimes emit; stand in for them here.)
        for site in sites {
            events.push(Event::at(secs_to_ns(t), EventKind::SiteFinished).site(site));
        }
        let derived = derive_report(&events, "props");
        prop_assert_eq!(&derived.faults, pool.faults());
        if redundancy == 1 {
            let f = pool.faults();
            let coded = f.replica_grants + f.replica_wins + f.replica_fences + f.saved_refetches;
            prop_assert_eq!(coded, 0, "replica facts at r = 1");
        }
        for site in sites {
            let expected = pool.site_counts().get(&site).copied().unwrap_or_default();
            let got =
                derived.sites.get(&site).map_or_else(SiteJobCounts::default, |s| s.jobs);
            prop_assert_eq!(got, expected, "job counts diverged at {}", site);
        }
    }

    /// For arbitrary synthesized slave measurements, the event-derived
    /// report equals the live-accumulator arithmetic within nanosecond
    /// quantization: emitting events and aggregating them is lossless.
    #[test]
    fn derived_breakdown_matches_direct_assembly(
        specs in prop::collection::vec(arb_site(), 1..3),
        global_reduction in 0.0f64..2.0,
    ) {
        let mut events = Vec::new();
        let mut samples: BTreeMap<SiteId, SiteSample> = BTreeMap::new();
        let mut chunk = 0u32;
        for (i, (slaves, local_merge, finish, local, stolen)) in specs.iter().enumerate() {
            let site = SiteId(i as u16);
            let mut sample = SiteSample {
                slaves: Vec::new(),
                local_merge: *local_merge,
                finish: *finish,
                jobs: SiteJobCounts { local: *local, stolen: *stolen },
            };
            for (w, &(proc_s, retr_s, fin, bytes, remote, retries)) in slaves.iter().enumerate() {
                let w = w as u32;
                events.push(
                    Event::span(
                        0,
                        secs_to_ns(retr_s),
                        EventKind::ChunkFetched { bytes, remote, retries },
                    )
                    .site(site)
                    .worker(w),
                );
                events.push(
                    Event::span(secs_to_ns(retr_s), secs_to_ns(proc_s), EventKind::JobProcessed)
                        .site(site)
                        .worker(w),
                );
                events.push(
                    Event::at(secs_to_ns(fin), EventKind::SlaveFinished).site(site).worker(w),
                );
                sample.slaves.push(SlaveSample {
                    processing: ns_to_secs(secs_to_ns(proc_s)),
                    retrieval: ns_to_secs(secs_to_ns(retr_s)),
                    finish: ns_to_secs(secs_to_ns(fin)),
                    remote_bytes: if remote { bytes } else { 0 },
                    retries,
                    rereduced: 0,
                    jobs: 1,
                });
            }
            for k in 0..(local + stolen) {
                events.push(
                    Event::at(
                        secs_to_ns(*finish),
                        EventKind::JobCompleted { merged: true, late: false, stolen: k >= *local },
                    )
                    .site(site)
                    .chunk(ChunkId(chunk)),
                );
                chunk += 1;
            }
            events.push(
                Event::span(secs_to_ns(*finish), secs_to_ns(*local_merge), EventKind::SiteMerged)
                    .site(site),
            );
            events.push(Event::at(secs_to_ns(*finish), EventKind::SiteFinished).site(site));
            samples.insert(site, sample);
        }
        events.push(Event::span(0, secs_to_ns(global_reduction), EventKind::GlobalReduction));
        let total = samples.values().map(|s| s.finish).fold(0.0f64, f64::max) + global_reduction;
        events.push(Event::at(secs_to_ns(total), EventKind::RunFinished));

        let derived = derive_report(&events, "props");
        // Mirror the quantization the events go through, then compare the
        // two assemblies: merge durations round-trip through ns too.
        let quantized: BTreeMap<SiteId, SiteSample> = samples
            .into_iter()
            .map(|(site, mut s)| {
                s.local_merge = ns_to_secs(secs_to_ns(s.local_merge));
                s.finish = ns_to_secs(secs_to_ns(s.finish));
                (site, s)
            })
            .collect();
        let expected = assemble_sites(&quantized);
        prop_assert_eq!(derived.sites.len(), expected.len());
        let tol = 1e-6;
        for (site, want) in &expected {
            let got = &derived.sites[site];
            prop_assert_eq!(got.jobs, want.jobs);
            prop_assert_eq!(got.remote_bytes, want.remote_bytes);
            prop_assert_eq!(got.retries, want.retries);
            prop_assert!((got.breakdown.processing - want.breakdown.processing).abs() < tol);
            prop_assert!((got.breakdown.retrieval - want.breakdown.retrieval).abs() < tol);
            prop_assert!((got.breakdown.sync - want.breakdown.sync).abs() < tol);
            prop_assert!((got.finish_time - want.finish_time).abs() < tol);
            prop_assert!((got.idle - want.idle).abs() < tol);
        }
        prop_assert!((derived.global_reduction - global_reduction).abs() < tol);
        prop_assert!((derived.total_time - total).abs() < tol);
    }
}
