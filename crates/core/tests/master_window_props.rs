//! Virtual-clock properties of the master's windowed grant requests.
//!
//! [`MasterPool`] is pure logic, so these tests are its transport: a tiny
//! discrete-event loop carries each request to a model head and its grant
//! back (one `latency` per leg), and model slaves come back for up to `want`
//! jobs — drawn anew for every request from `1 ..= max_want` — `gap × slaves`
//! seconds per job taken after they got the last ones. The head hands out `total` jobs in batches of
//! `batch`; once they are all out it answers "nothing right now" until the
//! last one completes, then "never again" — so every run ends in the
//! empty-non-terminal polling and the terminal grant the real head produces.
//!
//! Checked after every event: the conservation ledger balances, a slave is
//! handed `1 ..= want` jobs whenever the queue holds any and waits only on an
//! empty queue — so a parked slave is served as soon as one job lands — the
//! master never has more than a window plus one batch outstanding and, when
//! the master sizes its requests itself (the TCP transport, where the head
//! grants what it is asked for), each is for `1 ..= floor + window −
//! outstanding` jobs. Checked
//! per run: a single slave never waits once the window is warm and the head
//! has work; with jobs slower than the link and one job per hand-off there is
//! at most one request in flight and exactly the request count of the
//! blocking loop this machine replaced; with one job per hand-off the request
//! sequence is, time for time, the one this machine produced before a
//! hand-off had a size; a zero-latency link cannot busy-loop; and closing at any point hands back every job that
//! was granted and not dispatched.
//!
//! A failure prints the generated scenario, which replays it.

use cloudburst_core::master::{MAX_BDP_JOBS, POLL_CAP, POLL_MIN};
use cloudburst_core::{
    ChunkId, ChunkMeta, FileId, JobBatch, LocalJob, MasterPool, RequestId, SiteId, Take,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One generated run.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    /// One-way master↔head latency, seconds.
    latency: f64,
    /// Site-wide time between job requests when nobody waits, seconds.
    gap: f64,
    /// Jobs per (non-final) grant.
    batch: usize,
    slaves: usize,
    low_watermark: usize,
    total: usize,
    /// A slave asks for `1 ..= max_want` jobs, drawn per request from `seed`;
    /// 1 is the paper's one job per hand-off, [`MAX_BDP_JOBS`] the most a
    /// slave of the threaded runtime asks for.
    max_want: usize,
    seed: u64,
}

/// The head: `total` jobs in batches, then empty until all are complete.
/// Completion reports do not ride the master, so the head knows a job is
/// done the moment it is: `finish_times` holds every dispatched job's.
struct Head {
    total: usize,
    granted: usize,
    finish_times: Vec<f64>,
    /// When each request was answered, and for how many jobs it asked.
    requests: Vec<(f64, usize)>,
}

impl Head {
    fn new(sc: Scenario) -> Head {
        Head { total: sc.total, granted: 0, finish_times: Vec::new(), requests: Vec::new() }
    }

    /// Answer a request for up to `want` jobs.
    fn grant(&mut self, now: f64, want: usize) -> JobBatch {
        self.requests.push((now, want));
        let n = want.min(self.pending());
        if n == 0 {
            let completed = self.finish_times.iter().filter(|&&t| t <= now).count();
            return JobBatch::empty(completed == self.total);
        }
        let jobs = (self.granted..self.granted + n)
            .map(|i| ChunkMeta {
                id: ChunkId(i as u32),
                file: FileId(0),
                offset: 0,
                len: 1,
                n_units: 1,
                site: SiteId::CLOUD,
            })
            .collect();
        self.granted += n;
        JobBatch { jobs, spans: Vec::new(), stolen: false, terminal: false }
    }

    fn pending(&self) -> usize {
        self.total - self.granted
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A slave is free and asks for its next jobs.
    Arrive,
    /// A request reaches the head, asking for this many jobs.
    AtHead(RequestId, usize),
    Landed(RequestId),
    Retry,
}

/// A future-event list ordered by time, ties in scheduling order.
#[derive(Default)]
struct Agenda {
    events: Vec<(f64, u64, Ev)>,
    seq: u64,
}

impl Agenda {
    fn schedule(&mut self, at: f64, ev: Ev) {
        self.seq += 1;
        self.events.push((at, self.seq, ev));
    }

    fn pop(&mut self) -> Option<(f64, Ev)> {
        let next = (0..self.events.len()).min_by(|&a, &b| {
            let (a, b) = (&self.events[a], &self.events[b]);
            (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("times are finite")
        })?;
        let (at, _, ev) = self.events.swap_remove(next);
        Some((at, ev))
    }
}

/// What a run observed.
#[derive(Debug, Default)]
struct Trace {
    requests: u64,
    dispatches: u64,
    max_in_flight: usize,
    /// `(when, jobs the head still had)` for every slave that had to wait.
    parks: Vec<(f64, usize)>,
    /// When the second grant landed: both estimates exist from here on.
    warm_at: Option<f64>,
    /// When the head answered each request, and for how many jobs it asked.
    head_requests: Vec<(f64, usize)>,
    end: f64,
    events: u64,
}

/// The next `want` of a scenario's slaves (a 64-bit LCG, top bits).
fn next_want(state: &mut u64, max_want: usize) -> usize {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    1 + ((*state >> 33) as usize) % max_want
}

/// Drive a [`MasterPool`] through `sc` until every slave saw `Drained`, or —
/// with `close_after` — stop after that many events (the caller closes the
/// master). With `sized` the master says how many jobs each request is for
/// ([`MasterPool::ask`], as on the TCP transport) and the head grants that
/// many; without, the head grants `batch` (the channel head's own policy).
/// Panics on any per-event invariant violation.
fn run(sc: Scenario, close_after: Option<u64>, sized: bool) -> (MasterPool, Trace) {
    let mut pool = MasterPool::new(SiteId::CLOUD, sc.low_watermark);
    let mut head = Head::new(sc);
    let mut trace = Trace::default();
    let mut agenda = Agenda::default();
    let service = sc.gap * sc.slaves as f64;
    for i in 0..sc.slaves {
        // Staggered starts, so undisturbed slaves ask once per `gap`.
        agenda.schedule(sc.gap * i as f64, Ev::Arrive);
    }
    // The wants of the slaves waiting for a grant, and the buffers they
    // handed back, oldest first.
    let mut parked: VecDeque<(usize, Vec<LocalJob>)> = VecDeque::new();
    let mut wants = sc.seed;
    let mut finished = 0usize;
    let mut retry_at = 0.0;
    let mut landings = 0u32;

    while finished < sc.slaves {
        let (now, ev) = agenda.pop().expect("a live run always has a next event");
        trace.events += 1;
        assert!(trace.events < 200_000, "runaway event loop (busy loop?) in {sc:?}");
        if close_after.is_some_and(|n| trace.events > n) {
            break;
        }
        trace.end = now;
        // A slave that asked for `want` got its answer: each job keeps it
        // busy for `service`, and it is back when the last is done.
        let mut answered = |take: Take, want: usize, queued: usize| match take {
            Take::Jobs(jobs) => {
                assert_eq!(jobs.len(), want.min(queued), "want {want}, {queued} queued in {sc:?}");
                trace.dispatches += jobs.len() as u64;
                head.finish_times.extend((1..=jobs.len()).map(|i| now + service * i as f64));
                agenda.schedule(now + service * jobs.len() as f64, Ev::Arrive);
            }
            Take::Drained => finished += 1,
            Take::NeedRefill => unreachable!("a waiting slave is not answered"),
        };
        match ev {
            Ev::Arrive => {
                let (want, queued) = (next_want(&mut wants, sc.max_want), pool.queued());
                let mut buf = Vec::new();
                match pool.arrive(now, want, &mut buf) {
                    Take::NeedRefill => {
                        assert_eq!(queued, 0, "a slave waits with {queued} jobs queued in {sc:?}");
                        parked.push_back((want, buf));
                        trace.parks.push((now, head.pending()));
                    }
                    take => answered(take, want, queued),
                }
            }
            Ev::AtHead(id, want) => {
                pool.granted(id, head.grant(now, want));
                agenda.schedule(now + sc.latency, Ev::Landed(id));
            }
            Ev::Landed(id) => {
                pool.land(id, now);
                landings += 1;
                if landings == 2 {
                    trace.warm_at = Some(now);
                }
                while let Some((want, buf)) = parked.front_mut() {
                    let (want, queued) = (*want, pool.queued());
                    match pool.serve_parked(now, want, buf) {
                        Take::NeedRefill => break,
                        take => answered(take, want, queued),
                    }
                    parked.pop_front();
                }
                // Served as soon as one job lands: whoever still waits, waits
                // on an empty queue.
                assert!(parked.is_empty() || pool.queued() == 0, "{sc:?}");
            }
            Ev::Retry => {}
        }
        assert_eq!(pool.parked(), parked.len(), "parked count drifted in {sc:?}");
        loop {
            let (window, outstanding) = (pool.window(), pool.outstanding());
            let Some(id) = pool.next_request(now) else { break };
            trace.requests += 1;
            if sized {
                // Never nothing, never past the floor plus the window, and
                // what was asked for is what the window rule expects back.
                let floor = sc.slaves + 1;
                let ask = pool.ask(id, floor);
                assert!(
                    (1..=floor + window - outstanding).contains(&ask),
                    "asked for {ask}: floor {floor}, window {window}, {outstanding} outstanding \
                     in {sc:?}"
                );
                assert_eq!(pool.outstanding(), outstanding + ask, "{sc:?}");
                agenda.schedule(now + sc.latency, Ev::AtHead(id, ask));
                continue;
            }
            agenda.schedule(now + sc.latency, Ev::AtHead(id, sc.batch));
            // While the head has jobs to hoard (so every grant is a full
            // batch): never more than a window plus one batch outstanding.
            let outstanding = pool.queued() + pool.requests_in_flight() * sc.batch;
            assert!(
                head.pending() == 0 || outstanding <= pool.window() + sc.batch,
                "{outstanding} outstanding, window {} in {sc:?}",
                pool.window()
            );
        }
        trace.max_in_flight = trace.max_in_flight.max(pool.requests_in_flight());
        if let Some(at) = pool.retry_at().filter(|&at| at > now && at != retry_at) {
            retry_at = at;
            agenda.schedule(at, Ev::Retry);
        }
        assert!(pool.ledger().balanced(), "ledger {:?} in {sc:?}", pool.ledger());
    }
    trace.head_requests = head.requests;
    (pool, trace)
}

/// The loop this machine replaced, in the same virtual time: ask the head
/// and wait out both legs — serving nobody meanwhile — whenever a slave
/// finds the pool empty and, after serving one, whenever the pool is at the
/// watermark; poll a dry head with the 100 µs – 5 ms backoff. The blocking
/// pool was a queue and a drained flag, so the model keeps just those.
/// Returns the number of head requests.
fn blocking_loop_requests(sc: Scenario) -> u64 {
    let mut head = Head::new(sc);
    let (mut queued, mut drained) = (0usize, false);
    let service = sc.gap * sc.slaves as f64;
    // When each slave next asks; the master serves in arrival order and
    // never before it is free again.
    let mut arrivals: Vec<f64> = (0..sc.slaves).map(|i| sc.gap * i as f64).collect();
    let mut free_at = 0.0_f64;
    while !arrivals.is_empty() {
        let next = (0..arrivals.len())
            .min_by(|&a, &b| arrivals[a].partial_cmp(&arrivals[b]).expect("times are finite"))
            .expect("non-empty");
        let mut now = arrivals.swap_remove(next).max(free_at);
        // One blocking round trip starting at `now`; the head answers
        // after the first leg.
        let refill = |head: &mut Head, queued: &mut usize, drained: &mut bool, now: &mut f64| {
            let batch = head.grant(*now + sc.latency, sc.batch);
            *drained |= batch.is_empty() && batch.terminal;
            *queued += batch.len();
            *now += 2.0 * sc.latency;
        };
        let mut idle_wait = POLL_MIN;
        while queued == 0 && !drained {
            refill(&mut head, &mut queued, &mut drained, &mut now);
            if queued == 0 && !drained {
                now += idle_wait;
                idle_wait = (idle_wait * 2.0).min(POLL_CAP);
            }
        }
        if queued > 0 {
            queued -= 1;
            head.finish_times.push(now + service);
            arrivals.push(now + service);
            if !drained && queued <= sc.low_watermark {
                refill(&mut head, &mut queued, &mut drained, &mut now);
            }
        }
        free_at = now;
    }
    head.requests.len() as u64
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (0.0f64..0.05, any::<bool>()),
        1e-5f64..0.05,
        1usize..=8,
        1usize..=4,
        0usize..=3,
        1usize..400,
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |((latency, zero_latency), gap, batch, slaves, low_watermark, total, (sized, seed))| {
                Scenario {
                    latency: if zero_latency { 0.0 } else { latency },
                    gap,
                    batch,
                    slaves,
                    low_watermark,
                    total,
                    max_want: if sized { MAX_BDP_JOBS } else { 1 },
                    seed,
                }
            },
        )
}

proptest! {
    /// Any scenario runs to completion with the per-event invariants
    /// holding, dispatches every job exactly once, and — whatever the link —
    /// asks the head no more often than once per dispatch plus the polls
    /// the backoff allows.
    #[test]
    fn every_run_drains_conserves_and_never_busy_loops(sc in scenario()) {
        let (pool, trace) = run(sc, None, false);
        let ledger = pool.ledger();
        prop_assert_eq!(ledger.dispatched, sc.total as u64, "{:?}", sc);
        prop_assert_eq!(ledger.granted, sc.total as u64, "{:?}", sc);
        prop_assert_eq!(ledger.queued + ledger.in_flight + ledger.returned + ledger.dropped, 0);
        prop_assert_eq!(trace.dispatches, sc.total as u64);
        // Beyond one request per dispatch: whatever was in flight when the
        // head ran dry, and the polls of the dry head — the 100 µs → 5 ms
        // doubling takes 6 steps to reach the cap, then one poll per cap
        // and round trip at most.
        let polls = 8.0 + trace.end / (POLL_CAP + 2.0 * sc.latency);
        prop_assert!(
            (trace.requests as f64) <= (trace.dispatches + trace.max_in_flight as u64) as f64 + polls,
            "{} requests for {} dispatches over {:.4} s in {:?}",
            trace.requests, trace.dispatches, trace.end, sc
        );
    }

    /// One slave, a watermark of at least one job: once both estimates
    /// exist, no request for a job waits while the head still has any.
    #[test]
    fn a_warm_window_never_starves_a_slave_while_the_head_has_work(sc in scenario()) {
        let sc = Scenario { slaves: 1, low_watermark: sc.low_watermark.max(1), ..sc };
        let (_, trace) = run(sc, None, false);
        let Some(warm_at) = trace.warm_at else { return };
        // The estimates settle over the first few round trips and jobs.
        let settled = warm_at + 8.0 * (2.0 * sc.latency + sc.gap);
        for &(at, head_pending) in &trace.parks {
            prop_assert!(
                at < settled || head_pending == 0,
                "slave waited at {at:.5} (warm at {warm_at:.5}) with {head_pending} jobs \
                 at the head in {sc:?}"
            );
        }
    }

    /// Jobs slower than the link (with room for the poll backoff), taken
    /// one per hand-off as such jobs are: the window is the watermark alone,
    /// one request is in flight at a time, and the head sees exactly the
    /// requests of the blocking loop.
    #[test]
    fn slow_jobs_degenerate_to_the_blocking_loop(sc in scenario()) {
        let rtt = 2.0 * sc.latency;
        let sc = Scenario { gap: sc.gap.max(2.0 * rtt + 2.0 * POLL_CAP), max_want: 1, ..sc };
        let (pool, trace) = run(sc, None, false);
        prop_assert_eq!(pool.window(), sc.low_watermark, "{:?}", sc);
        prop_assert!(trace.max_in_flight <= 1, "{} in flight in {:?}", trace.max_in_flight, sc);
        prop_assert_eq!(trace.requests, blocking_loop_requests(sc), "{:?}", sc);
    }

    /// A master that sizes its own requests (the TCP transport) asks for at
    /// least one job and at most what tops it up to floor + window — checked
    /// at every request inside `run` — and still drains every job exactly
    /// once through a head that grants what it is asked for.
    #[test]
    fn sized_requests_stay_within_the_window_and_drain(sc in scenario()) {
        let (pool, trace) = run(sc, None, true);
        let ledger = pool.ledger();
        prop_assert_eq!(ledger.dispatched, sc.total as u64, "{:?}", sc);
        prop_assert_eq!(ledger.granted, sc.total as u64, "{:?}", sc);
        prop_assert_eq!(trace.dispatches, sc.total as u64);
    }

    /// Closing the master at any point hands back exactly the jobs it was
    /// granted and never dispatched: `granted = dispatched + returned`.
    #[test]
    fn closing_anywhere_hands_back_every_undispatched_job(
        sc in scenario(),
        cut in 0u64..600,
        sized in any::<bool>(),
    ) {
        let (mut pool, trace) = run(sc, Some(cut), sized);
        let before = pool.ledger();
        let handed_back = pool.close();
        let after = pool.ledger();
        prop_assert_eq!(handed_back.len() as u64, before.queued + before.in_flight, "{:?}", sc);
        prop_assert_eq!(after.granted, after.dispatched + after.returned, "{:?}", sc);
        prop_assert_eq!(after.queued + after.in_flight, 0);
        prop_assert_eq!(after.dispatched, trace.dispatches);
        let mut ids: Vec<u32> = handed_back.iter().map(|j| j.chunk.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), handed_back.len(), "a job was handed back twice in {:?}", sc);
        prop_assert_eq!(pool.next_request(trace.end), None, "a closed master asked again");
    }
}

/// Two hundred scenarios that do not depend on the property-test generator.
fn fixed_scenarios() -> Vec<Scenario> {
    let mut state = 0x5EED_u64;
    let mut next = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    (0..200)
        .map(|_| Scenario {
            latency: if next(4) == 0 { 0.0 } else { next(50_000) as f64 * 1e-6 },
            gap: (1 + next(50_000)) as f64 * 1e-6,
            batch: 1 + next(8) as usize,
            slaves: 1 + next(4) as usize,
            low_watermark: next(4) as usize,
            total: 1 + next(400) as usize,
            max_want: 1,
            seed: 0,
        })
        .collect()
}

/// One job per hand-off is the machine as it was before a hand-off had a
/// size: over [`fixed_scenarios`] the head is asked at the same instants, to
/// the bit, for the same numbers of jobs. The digests were recorded by this
/// harness driving that machine (`arrive(now)`, `serve_parked(now)`).
#[test]
fn one_job_per_hand_off_asks_the_head_exactly_as_before_hand_offs_had_a_size() {
    for (sized, requests, digest) in
        [(false, 16_713, 0x8720_b840_0752_0728_u64), (true, 14_171, 0xdde8_a3d2_4130_19f1)]
    {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut n = 0;
        for sc in fixed_scenarios() {
            let (_, trace) = run(sc, None, sized);
            for (at, want) in trace.head_requests {
                for word in [at.to_bits(), want as u64] {
                    h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
                }
                n += 1;
            }
        }
        assert_eq!((n, h), (requests, digest), "sized requests: {sized}");
    }
}
