//! Property tests for the metrics subsystem: whatever the live ledger holds
//! and whatever the latency histograms observe, the rendered Prometheus
//! exposition must be strictly parseable (no duplicate series, no malformed
//! lines, cumulative buckets), values must round-trip exactly, and
//! successive scrapes must satisfy the counter-monotonicity contract.
//! Alongside, edge-case tests pin the exporters' behavior on empty and
//! single-event streams.

use cloudburst_core::{
    check_monotonic, chrome_trace, events_to_jsonl, parse_exposition, BatchPolicy, DataIndex,
    Event, EventKind, JobPool, Json, LayoutParams, LiveLedger, Metrics, SiteId, SlaveSample,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// (worker, site index, jobs) — one slave's hand-off of `jobs` jobs, all
/// processed, published.
type SlaveSpec = (u32, u16, u64);
/// (site index, jobs) — one grant of the head's pool, published.
type GrantSpec = (u16, usize);
/// (name index, raw nanosecond observations) — one histogram batch.
type HistSpec = (usize, Vec<u64>);

/// Jobs in the head's pool, half homed at each of two sites.
const JOBS: u64 = 64;

fn hist_name(n: usize) -> String {
    format!("t_lat_{n}_seconds")
}

/// What a head and its slaves publish to one handle.
struct Publishers {
    metrics: Metrics,
    pool: JobPool,
    head: LiveLedger,
    slaves: BTreeMap<(SiteId, u32), (LiveLedger, SlaveSample)>,
}

impl Publishers {
    fn new(metrics: &Metrics) -> Publishers {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 2 };
        let home = |f: cloudburst_core::FileId| SiteId(f.0 as u16);
        let index = DataIndex::build(JOBS, params, home).unwrap();
        let pool = JobPool::from_index(&index, BatchPolicy::Fixed(1));
        let head = metrics.ledger();
        head.publish_pool(&pool);
        Publishers { metrics: metrics.clone(), pool, head, slaves: BTreeMap::new() }
    }

    /// Publish each slave's grown ledger and each grant, exactly as the
    /// runtimes do, and observe the histograms.
    fn apply(&mut self, slaves: &[SlaveSpec], grants: &[GrantSpec], hists: &[HistSpec]) {
        for &(worker, site, jobs) in slaves {
            let site = SiteId(site);
            let metrics = &self.metrics;
            let (ledger, sample) = (self.slaves.entry((site, worker)))
                .or_insert_with(|| (metrics.ledger(), SlaveSample::default()));
            sample.hand_offs += 1;
            sample.handed += jobs;
            sample.jobs += jobs;
            ledger.publish_slave(site, worker, sample);
        }
        for &(site, jobs) in grants {
            self.pool.grant(SiteId(site), jobs, 0.0);
            self.head.publish_pool(&self.pool);
        }
        for (n, obs) in hists {
            let h = self.metrics.histogram(&hist_name(*n), "test latency", &[]);
            for &v in obs {
                h.observe(v);
            }
        }
    }
}

fn arb_slaves() -> impl Strategy<Value = Vec<SlaveSpec>> {
    prop::collection::vec((0u32..3, 0u16..3, 0u64..1_000), 0..24)
}

fn arb_grants() -> impl Strategy<Value = Vec<GrantSpec>> {
    prop::collection::vec((0u16..2, 0usize..6), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ledger and histogram contents render to an exposition the strict
    /// parser accepts (it rejects duplicate series, malformed lines, and
    /// non-cumulative buckets), every counter/gauge/histogram-count value
    /// round-trips exactly, and a second scrape after further publishes
    /// never violates counter monotonicity.
    #[test]
    fn rendered_exposition_parses_and_scrapes_stay_monotonic(
        slaves in arb_slaves(),
        grants in arb_grants(),
        hists in prop::collection::vec(
            (0usize..2, prop::collection::vec(0u64..5_000_000_000, 0..8)),
            0..8,
        ),
        more in arb_slaves(),
        more_grants in arb_grants(),
    ) {
        let metrics = Metrics::on();
        let registry = metrics.registry().expect("metrics just enabled");
        let mut publishers = Publishers::new(&metrics);
        publishers.apply(&slaves, &grants, &hists);

        let first = registry.render();
        let parsed = parse_exposition(&first);
        prop_assert!(parsed.is_ok(), "first scrape rejected: {:?}\n{}", parsed, first);
        let e1 = parsed.unwrap();

        // Counters round-trip: a slave's series is its last publish, and a
        // site's the sum of its slaves'.
        let mut handed: BTreeMap<String, u64> = BTreeMap::new();
        for (&(site, worker), (_, sample)) in &publishers.slaves {
            let (site, worker) = (site.to_string(), worker.to_string());
            let got = e1.get("cloudburst_slave_jobs_total", &[("site", &site), ("worker", &worker)]);
            prop_assert_eq!(got, Some(sample.jobs as f64), "slave ({}, {})", site, worker);
            *handed.entry(site).or_default() += sample.handed;
        }
        for (site, want) in &handed {
            let got = e1.get("cloudburst_slave_handed_jobs_total", &[("site", site)]);
            prop_assert_eq!(got, Some(*want as f64), "site {}", site);
        }
        // Gauges round-trip: every job granted is in flight, every other
        // one waits in its shard.
        let in_flight = publishers.pool.in_flight() as f64;
        prop_assert_eq!(e1.get("cloudburst_pool_in_flight", &[]), Some(in_flight));
        let waiting = e1.sum_family("cloudburst_pool_queue_depth");
        prop_assert_eq!(waiting + in_flight, JOBS as f64);
        // Histogram counts round-trip through the bucket expansion.
        let mut want_obs: BTreeMap<usize, u64> = BTreeMap::new();
        for (n, obs) in &hists {
            *want_obs.entry(*n).or_default() += obs.len() as u64;
        }
        for (&n, &want) in &want_obs {
            let got = e1.get(&format!("{}_count", hist_name(n)), &[]);
            prop_assert_eq!(got, Some(want as f64), "histogram {} count", n);
        }

        // Second scrape after more publishes and repeated observations:
        // the counter families present earlier must never go backwards.
        publishers.apply(&more, &more_grants, &hists);
        let second = registry.render();
        let parsed = parse_exposition(&second);
        prop_assert!(parsed.is_ok(), "second scrape rejected: {:?}\n{}", parsed, second);
        let e2 = parsed.unwrap();
        let mono = check_monotonic(&e1, &e2);
        prop_assert!(mono.is_ok(), "scrapes not monotonic: {:?}", mono);
    }

    /// Percentile sanity on one histogram: quantiles are monotone in the
    /// rank, and the top quantile's bucket upper bound covers the maximum
    /// observed value.
    #[test]
    fn histogram_quantiles_are_monotone_and_cover_the_max(
        obs in prop::collection::vec(0u64..10_000_000_000, 1..80),
    ) {
        let h = Metrics::on().histogram("q_seconds", "probe", &[]);
        for &v in &obs {
            h.observe(v);
        }
        let probes = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let values: Vec<u64> = probes.iter().map(|&q| h.quantile_raw(q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", values);
        }
        let max = obs.iter().copied().max().expect("non-empty");
        prop_assert!(
            values[probes.len() - 1] >= max,
            "p100 {} below max observation {}", values[probes.len() - 1], max
        );
        prop_assert_eq!(h.count(), obs.len() as u64);
    }
}

#[test]
fn exporters_handle_an_empty_stream() {
    assert_eq!(events_to_jsonl(&[]), "");
    let text = chrome_trace(&[]).to_text();
    Json::parse(&text).expect("empty trace is valid JSON");
    assert!(text.contains("\"traceEvents\""), "missing traceEvents: {text}");
    assert!(text.contains("[]"), "empty stream should yield an empty event array: {text}");
}

#[test]
fn exporters_handle_a_single_event() {
    let make = || Event::span(1_000, 2_000, EventKind::JobProcessed).site(SiteId::LOCAL).worker(3);
    let jsonl = events_to_jsonl(&[make()]);
    assert_eq!(jsonl.lines().count(), 1, "one event, one line: {jsonl:?}");
    assert!(jsonl.ends_with('\n'), "JSONL lines are newline-terminated");
    Json::parse(jsonl.trim()).expect("event line is valid JSON");

    let text = chrome_trace(&[make()]).to_text();
    Json::parse(&text).expect("single-event trace is valid JSON");
    // A span event becomes a complete ("X") slice with its duration in µs,
    // plus a metadata row naming the worker's thread track.
    assert!(text.contains("\"ph\":\"X\""), "span should render as a complete event: {text}");
    assert!(text.contains("\"dur\":2"), "duration should be exported in µs: {text}");
    assert!(text.contains("slave 3"), "worker lane should be named: {text}");
}
