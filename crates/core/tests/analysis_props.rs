//! Property tests for the causal analysis layer: for *any* event stream —
//! structured runs shaped like the real runtime's output, or arbitrary
//! chaos-perturbed streams with fault events at random offsets — the
//! makespan attribution must be exhaustive (the seven categories sum to the
//! makespan within tolerance), every category must be non-negative, and the
//! critical path must never claim more time than the run took. The
//! sequence audit must accept every permutation of a complete stamp set and
//! reject any drop or duplication. The slave's ledger counts as WAN-class
//! exactly the fetches the analysis attributes to `wan_fetch`.

use cloudburst_core::{
    analyze, check_sequence, ns_to_secs, secs_to_ns, ChunkId, Event, EventKind, SiteId, SlaveSample,
};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// One synthesized job on a slave lane: fetch span, process span, and the
/// inter-job gap before it.
type JobSpec = (f64, f64, f64, bool);

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (0.0f64..0.5, 0.0f64..0.5, 0.0f64..0.2, any::<bool>())
}

/// One slave lane: its jobs in order.
fn arb_lane() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(arb_job(), 1..6)
}

/// One site: slave lanes plus a local-merge duration.
type SiteSpec = (Vec<Vec<JobSpec>>, f64);

fn arb_site() -> impl Strategy<Value = SiteSpec> {
    (prop::collection::vec(arb_lane(), 1..4), 0.0f64..0.3)
}

/// A chaos fault event at an arbitrary offset into the run.
type FaultSpec = (f64, u8);

fn fault_kind(sel: u8) -> EventKind {
    match sel % 6 {
        0 => EventKind::LeaseReaped,
        1 => EventKind::JobEvacuated,
        2 => EventKind::JobFailed,
        3 => EventKind::StorageRetry { retries: 2 },
        4 => EventKind::LostResult { stolen: false },
        _ => EventKind::SpeculationResolved { won: false },
    }
}

/// Build a run-shaped event stream from site specs: per-lane
/// fetch/process job chains with gaps, slave and site finish markers,
/// local merges, a global reduction, and a run-finished marker. Returns
/// the events and the synthesized makespan.
fn build_run(sites: &[SiteSpec], reduction: f64, faults: &[FaultSpec]) -> (Vec<Event>, f64) {
    let mut events = Vec::new();
    let mut site_ends = Vec::new();
    for (i, (lanes, merge)) in sites.iter().enumerate() {
        let site = SiteId(i as u16);
        let mut site_end = 0.0f64;
        let mut span = 1 + (i as u64) * 1000;
        for (w, jobs) in lanes.iter().enumerate() {
            let w = w as u32;
            let mut t = 0.0f64;
            for &(fetch, process, gap, remote) in jobs {
                t += gap;
                events.push(
                    Event::span(
                        secs_to_ns(t),
                        secs_to_ns(fetch),
                        EventKind::ChunkFetched { bytes: 100, remote, retries: 0 },
                    )
                    .site(site)
                    .worker(w)
                    .chunk(ChunkId(span as u32))
                    .span_id(span),
                );
                t += fetch;
                events.push(
                    Event::span(secs_to_ns(t), secs_to_ns(process), EventKind::JobProcessed)
                        .site(site)
                        .worker(w)
                        .span_id(span),
                );
                t += process;
                span += 1;
            }
            events.push(Event::at(secs_to_ns(t), EventKind::SlaveFinished).site(site).worker(w));
            site_end = site_end.max(t);
        }
        events.push(
            Event::span(secs_to_ns(site_end), secs_to_ns(*merge), EventKind::SiteMerged).site(site),
        );
        let site_end = site_end + merge;
        events.push(Event::at(secs_to_ns(site_end), EventKind::SiteFinished).site(site));
        site_ends.push(site_end);
    }
    let all_done = site_ends.iter().fold(0.0f64, |a, &b| a.max(b));
    events.push(Event::span(
        secs_to_ns(all_done),
        secs_to_ns(reduction),
        EventKind::GlobalReduction,
    ));
    let total = all_done + reduction;
    events.push(Event::at(secs_to_ns(total), EventKind::RunFinished));
    // Chaos perturbation: fault events at arbitrary offsets (scaled into
    // the run) flip gap classification between pool-wait and recovery but
    // must never break exhaustiveness.
    for &(frac, sel) in faults {
        events.push(Event::at(secs_to_ns(frac * total), fault_kind(sel)));
    }
    (events, total)
}

proptest! {
    /// On structured, run-shaped streams — with or without chaos faults —
    /// the attribution is exhaustive, non-negative, and the critical path
    /// fits inside the makespan.
    #[test]
    fn attribution_is_exhaustive_on_structured_runs(
        sites in prop::collection::vec(arb_site(), 1..4),
        reduction in 0.0f64..0.5,
        faults in prop::collection::vec((0.0f64..=1.0, any::<u8>()), 0..10),
    ) {
        let (events, total) = build_run(&sites, reduction, &faults);
        let run = analyze(&events).expect("structured stream analyzes");

        let attr = &run.attribution;
        prop_assert!((attr.makespan - total).abs() < TOL,
            "makespan {} != synthesized total {}", attr.makespan, total);
        prop_assert!(attr.agrees(),
            "categories sum to {} but makespan is {}", attr.total(), attr.makespan);
        for (name, secs) in attr.parts() {
            prop_assert!(secs >= 0.0, "negative category {name}: {secs}");
        }
        prop_assert!(run.critical_path_secs() <= attr.makespan + TOL,
            "critical path {} exceeds makespan {}", run.critical_path_secs(), attr.makespan);
        // The critical site is the last one to finish.
        let latest = (0..sites.len())
            .max_by(|&a, &b| {
                let end = |i: usize| {
                    let (lanes, merge): &SiteSpec = &sites[i];
                    lanes
                        .iter()
                        .map(|jobs| jobs.iter().map(|j| j.0 + j.1 + j.2).sum::<f64>())
                        .fold(0.0f64, f64::max)
                        + merge
                };
                end(a).total_cmp(&end(b))
            })
            .unwrap();
        if let Some(critical) = run.critical_site {
            // Ties between sites can legitimately resolve either way; only
            // assert when the synthesized winner is strictly latest.
            let end_of = |i: usize| {
                let (lanes, merge): &SiteSpec = &sites[i];
                lanes
                    .iter()
                    .map(|jobs| jobs.iter().map(|j| j.0 + j.1 + j.2).sum::<f64>())
                    .fold(0.0f64, f64::max)
                    + merge
            };
            let strictly_latest = (0..sites.len())
                .all(|i| i == latest || end_of(i) + TOL < end_of(latest));
            if strictly_latest {
                prop_assert_eq!(critical, SiteId(latest as u16));
            }
        }
    }

    /// On *arbitrary* streams — random kinds, timestamps, durations, sites,
    /// workers and span ids in any order — analysis must still return an
    /// exhaustive, non-negative attribution with a critical path no longer
    /// than the makespan. Nothing about a hostile stream may break the
    /// accounting identity.
    #[test]
    fn attribution_survives_arbitrary_chaos_streams(
        specs in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..10.0, 0u8..16, 0u16..3, 0u32..4, 0u64..20),
            1..120,
        ),
    ) {
        let events: Vec<Event> = specs
            .iter()
            .map(|&(at, dur, sel, site, worker, span)| {
                let kind = match sel {
                    0 => EventKind::JobGranted { stolen: false, speculative: false, replica: false },
                    1 => EventKind::JobStarted { stolen: true },
                    2 => EventKind::ChunkFetched { bytes: 7, remote: sel % 2 == 0, retries: 1 },
                    3 => EventKind::JobProcessed,
                    4 => EventKind::JobCompleted { merged: true, late: false, stolen: false },
                    5 => EventKind::SlaveFinished,
                    6 => EventKind::SiteMerged,
                    7 => EventKind::SiteFinished,
                    8 => EventKind::GlobalReduction,
                    9 => EventKind::RunFinished,
                    10 => EventKind::Heartbeat,
                    11 => EventKind::JobAbandoned,
                    12 => EventKind::SiteEvacuated,
                    _ => fault_kind(sel),
                };
                let mut e = Event::span(secs_to_ns(at), secs_to_ns(dur), kind)
                    .site(SiteId(site))
                    .worker(worker);
                if span > 0 {
                    e = e.span_id(span);
                }
                e
            })
            .collect();
        let run = analyze(&events).expect("non-empty stream analyzes");
        let attr = &run.attribution;
        prop_assert!(attr.agrees(),
            "categories sum to {} but makespan is {}", attr.total(), attr.makespan);
        for (name, secs) in attr.parts() {
            prop_assert!(secs >= 0.0, "negative category {name}: {secs}");
        }
        prop_assert!(run.critical_path_secs() <= attr.makespan + TOL,
            "critical path {} exceeds makespan {}", run.critical_path_secs(), attr.makespan);
    }

    /// One WAN-class rule: over a random lane of fetches — remote or not,
    /// by a slave at the local cluster, the cloud or a third site — the
    /// slave's ledger counts as WAN-class the fetches the analysis puts in
    /// `wan_fetch` when it sees each alone, and their seconds are the
    /// lane's `wan_fetch`; the rest of its retrieval is `local_fetch`.
    #[test]
    fn the_ledger_counts_the_fetches_analysis_calls_wan(
        site in 0u16..3,
        fetches in prop::collection::vec((1u64..1_000_000, any::<bool>(), 0u64..10_000), 1..40),
    ) {
        let site = SiteId(site);
        // A lane ending at `end`, closed as the runtime closes a run.
        let closed = |mut lane: Vec<Event>, end: u64| {
            lane.push(Event::at(end, EventKind::SlaveFinished).site(site).worker(0));
            lane.push(Event::at(end, EventKind::SiteMerged).site(site));
            lane.push(Event::at(end, EventKind::SiteFinished).site(site));
            lane.push(Event::at(end, EventKind::GlobalReduction));
            lane.push(Event::at(end, EventKind::RunFinished));
            lane
        };
        let mut lane = Vec::new();
        let mut t = 0;
        for &(dur, remote, gap) in &fetches {
            t += gap;
            let fetched = EventKind::ChunkFetched { bytes: 64, remote, retries: 0 };
            lane.push(Event::span(t, dur, fetched).site(site).worker(0));
            t += dur;
        }
        let (mut wan_fetches, mut wan_secs) = (0, 0.0);
        for e in &lane {
            let alone = analyze(&closed(vec![*e], e.at_ns + e.dur_ns)).expect("one fetch analyzes");
            if alone.attribution.wan_fetch > 0.0 {
                wan_fetches += 1;
                wan_secs += ns_to_secs(e.dur_ns);
            }
        }
        let mut ledger = SlaveSample::default();
        lane.iter().for_each(|e| ledger.apply(e));
        let attr = analyze(&closed(lane, t)).expect("the lane analyzes").attribution;

        prop_assert_eq!(ledger.wan_fetches, wan_fetches);
        prop_assert!((ledger.wan_secs - wan_secs).abs() < TOL, "{} vs {}", ledger.wan_secs, wan_secs);
        prop_assert!((ledger.wan_secs - attr.wan_fetch).abs() < TOL,
            "ledger {} vs analysis {}", ledger.wan_secs, attr.wan_fetch);
        prop_assert!((ledger.retrieval - ledger.wan_secs - attr.local_fetch).abs() < TOL,
            "ledger {} vs analysis {}", ledger.retrieval - ledger.wan_secs, attr.local_fetch);
    }

    /// The sequence audit accepts any delivery order of a complete stamp
    /// set and pinpoints any single drop or duplication.
    #[test]
    fn sequence_audit_accepts_permutations_and_rejects_drops(
        n in 1u64..200,
        victim in 0u64..200,
        shuffle in any::<u64>(),
    ) {
        let mut stamps: Vec<u64> = (1..=n).collect();
        // Cheap deterministic shuffle: index-mix swap pass.
        let len = stamps.len();
        for i in 0..len {
            let j = ((shuffle.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i as u64))
                % len as u64) as usize;
            stamps.swap(i, j);
        }
        let mk = |seqs: &[u64]| -> Vec<Event> {
            seqs.iter()
                .map(|&s| {
                    let mut e = Event::at(s, EventKind::Heartbeat);
                    e.seq = s;
                    e
                })
                .collect()
        };
        let ok = check_sequence(&mk(&stamps)).expect("complete set passes");
        prop_assert_eq!(ok.stamped, len);
        prop_assert_eq!(ok.max, n);

        let victim = victim % n;
        // Dropping the final stamp shrinks the set to a still-contiguous
        // 1..=n-1 — undetectable by design (the true max is unknowable), so
        // only interior drops are asserted on.
        if victim + 1 < n {
            let dropped: Vec<u64> =
                stamps.iter().copied().filter(|&s| s != victim + 1).collect();
            prop_assert!(check_sequence(&mk(&dropped)).is_err(), "drop went undetected");
        }
        let mut duplicated = stamps.clone();
        duplicated.push(victim + 1);
        prop_assert!(check_sequence(&mk(&duplicated)).is_err(), "duplicate went undetected");
    }
}
