//! Property tests for the paper-scale simulator: for *any* environment
//! configuration (core counts, data skew) and cost-model perturbation, the
//! simulated schedule conserves jobs, never invents negative times, keeps
//! accounting identities, and is a deterministic function of its inputs —
//! and under any seeded fault plan on three sites, every chunk still ends
//! exactly once, merged or abandoned.

use cloudburst_core::{
    derive_report, secs_to_ns, EnvConfig, EventKind, FaultPlan, Recorder, SiteId, SiteOutage,
    SlowSite, SlowWorker, Telemetry, WorkerCrash,
};
use cloudburst_netsim::LinkSpec;
use cloudburst_sim::{
    simulate, simulate_multi_instrumented, AppModel, MultiEnv, ResourceSpec, SimParams, SiteSpec,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_env() -> impl Strategy<Value = EnvConfig> {
    (0.0f64..=1.0, 0u32..33, 0u32..33)
        .prop_filter("at least one core", |(_, l, c)| l + c > 0)
        .prop_map(|(frac, l, c)| EnvConfig::new("prop", frac, l, c))
}

fn arb_app() -> impl Strategy<Value = AppModel> {
    (0usize..3, 1.0f64..4.0, 10e-9f64..50e-6).prop_map(|(which, cloud_factor, cpu)| {
        let mut app = match which {
            0 => AppModel::knn(),
            1 => AppModel::kmeans(),
            _ => AppModel::pagerank(),
        };
        app.cloud_compute_factor = cloud_factor;
        app.compute_per_unit = cpu;
        app
    })
}

/// The campus cluster plus two clouds of different compute and storage
/// profiles, 20/40/40 % of the data: 2, 4 and 8 slaves.
fn three_sites() -> MultiEnv {
    let p = SimParams::paper();
    let env = EnvConfig::new("tri-cloud", 0.2, 16, 16);
    let mut three = MultiEnv::two_site(&env, &AppModel::knn(), &p);
    three.sites[0].cores_per_slave = 8;
    three.sites[1] = SiteSpec {
        cores_per_slave: 4,
        compute_factor: 1.2,
        data_fraction: 0.4,
        ..three.sites[1].clone()
    };
    three.sites.push(SiteSpec {
        site: SiteId(2),
        cores: 16,
        cores_per_slave: 2,
        compute_factor: 1.5,
        jitter: 0.2,
        store: ResourceSpec { channels: 16, link: LinkSpec::new(80e-3, 30e6) },
        data_fraction: 0.4,
    });
    three
}

/// A seeded fault plan for [`three_sites`]: a site outage at a random time,
/// up to two worker crashes, a slow worker, a slow site; and redundancy 1
/// or 2.
fn arb_chaos() -> impl Strategy<Value = (FaultPlan, u32)> {
    // At most one of each, drawn as a list of none or one.
    let site = || (0u16..3).prop_map(SiteId);
    let outage = (site(), 0.0f64..60.0).prop_map(|(site, at)| SiteOutage { site, at });
    let crash = (site(), 0u32..8, 0u64..4).prop_map(|(site, worker, after_jobs)| WorkerCrash {
        site,
        worker,
        after_jobs,
    });
    let slow = (site(), 0u32..8, 1.0f64..60.0)
        .prop_map(|(site, worker, delay_per_job)| SlowWorker { site, worker, delay_per_job });
    let slow_site = (site(), 1.0f64..8.0).prop_map(|(site, factor)| SlowSite { site, factor });
    (
        (any::<u64>(), prop::collection::vec(outage, 0..2), prop::collection::vec(crash, 0..3)),
        (prop::collection::vec(slow, 0..2), prop::collection::vec(slow_site, 0..2), 1u32..3),
    )
        .prop_map(|((seed, outage, worker_crash), (slow_workers, slow_sites, redundancy))| {
            let plan = FaultPlan {
                site_outage: outage.first().copied(),
                worker_crash,
                slow_workers,
                slow_sites,
                ..FaultPlan::seeded(seed)
            };
            (plan, redundancy)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_job_processed_exactly_once(app in arb_app(), env in arb_env()) {
        let params = SimParams::paper();
        let report = simulate(&app, &env, &params);
        prop_assert_eq!(report.total_jobs(), u64::from(params.n_chunks));
    }

    #[test]
    fn times_are_finite_and_consistent(app in arb_app(), env in arb_env()) {
        let report = simulate(&app, &env, &SimParams::paper());
        prop_assert!(report.total_time.is_finite() && report.total_time > 0.0);
        prop_assert!(report.global_reduction >= 0.0);
        for (site, s) in &report.sites {
            prop_assert!(s.finish_time > 0.0, "{site}");
            prop_assert!(s.idle >= 0.0, "{site}");
            prop_assert!(s.breakdown.processing >= 0.0);
            prop_assert!(s.breakdown.retrieval >= 0.0);
            prop_assert!(s.breakdown.sync >= 0.0);
            prop_assert!(
                s.finish_time <= report.total_time + 1e-9,
                "{site} finished after the run ended"
            );
        }
        // At most one site can have end-of-run idle time.
        let idles = report.sites.values().filter(|s| s.idle > 1e-9).count();
        prop_assert!(idles <= 1, "two sites idle simultaneously");
    }

    #[test]
    fn simulation_is_a_pure_function(app in arb_app(), env in arb_env()) {
        let params = SimParams::paper();
        prop_assert_eq!(simulate(&app, &env, &params), simulate(&app, &env, &params));
    }

    #[test]
    fn centralized_runs_never_steal(app in arb_app(), local in prop::bool::ANY, cores in 1u32..33) {
        let env = if local {
            EnvConfig::new("env-local", 1.0, cores, 0)
        } else {
            EnvConfig::new("env-cloud", 0.0, 0, cores)
        };
        let report = simulate(&app, &env, &SimParams::paper());
        prop_assert_eq!(report.total_stolen(), 0);
        prop_assert_eq!(report.sites.len(), 1);
    }

    #[test]
    fn remote_bytes_match_stolen_jobs(app in arb_app(), env in arb_env()) {
        let params = SimParams::paper();
        let report = simulate(&app, &env, &params);
        let chunk_bytes = params.dataset_bytes / u64::from(params.n_chunks);
        for (site, s) in &report.sites {
            // Every stolen job fetched roughly one chunk remotely (the last
            // chunk may be short).
            prop_assert!(
                s.remote_bytes <= s.jobs.stolen * (chunk_bytes + u64::from(app.unit_size)),
                "{site}: {} bytes for {} stolen jobs",
                s.remote_bytes,
                s.jobs.stolen
            );
            if s.jobs.stolen > 0 {
                prop_assert!(s.remote_bytes > 0, "{site} stole without fetching");
            }
        }
    }

    #[test]
    fn more_cores_never_slow_a_centralized_run(
        app in arb_app(),
        cores in 1u32..16,
    ) {
        let params = SimParams::paper();
        let small = simulate(&app, &EnvConfig::new("s", 1.0, cores, 0), &params);
        let big = simulate(&app, &EnvConfig::new("b", 1.0, cores * 2, 0), &params);
        prop_assert!(
            big.total_time <= small.total_time * 1.05,
            "doubling cores slowed the run: {} -> {}",
            small.total_time,
            big.total_time
        );
    }
}

proptest! {
    // 64 cases, or as many as `PROPTEST_CASES` asks for.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    /// Every chunk ends once — one merged completion that survived its
    /// site, or one abandonment — no site is granted anything after its
    /// outage, and the report is the recorded stream's fold and a pure
    /// function of the plan.
    #[test]
    fn chaos_ends_every_chunk_exactly_once(app in arb_app(), (plan, redundancy) in arb_chaos()) {
        let mut env = three_sites();
        env.chaos = Some(plan.clone());
        env.redundancy = redundancy;
        let rec = Arc::new(Recorder::new());
        let report = simulate_multi_instrumented(&app, &env, &Telemetry::to(rec.clone()));
        let events = rec.snapshot();
        // Per chunk: merged completions, less those lost with their site,
        // plus abandonments.
        let mut ends: BTreeMap<u32, i64> = BTreeMap::new();
        for e in &events {
            let delta = match e.kind {
                EventKind::JobCompleted { merged: true, .. } | EventKind::JobAbandoned => 1,
                EventKind::LostResult { .. } => -1,
                _ => continue,
            };
            *ends.entry(e.chunk.expect("a job event names its chunk").0).or_default() += delta;
        }
        prop_assert_eq!(ends.len(), 96, "{:?}", plan);
        prop_assert!(ends.values().all(|&n| n == 1), "{:?}: {:?}", plan, ends);
        let abandoned = report.faults.abandoned_jobs.len() as u64;
        prop_assert_eq!(report.total_jobs() + abandoned, 96, "{:?}", plan);
        if let Some(o) = plan.site_outage {
            let late = events.iter().filter(|e| {
                matches!(e.kind, EventKind::JobGranted { .. })
                    && e.site == Some(o.site)
                    && e.at_ns >= secs_to_ns(o.at)
            });
            prop_assert_eq!(late.count(), 0, "{:?}", plan);
        }
        prop_assert_eq!(&derive_report(&events, &env.name), &report);
        prop_assert_eq!(&simulate_multi_instrumented(&app, &env, &Telemetry::off()), &report);
    }
}
