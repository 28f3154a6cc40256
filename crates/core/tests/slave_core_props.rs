//! Virtual-clock properties of the slave's protocol state, [`SlaveCore`].
//!
//! These tests are its driver: one loop carries out every [`Step`] the way
//! the threaded runtime does, against a model master and a model fetch
//! executor, on a virtual clock. A request is answered after a random
//! latency with 1 ..= 80 jobs, with "drained", or with nothing (the master
//! is gone). At depth 1 a chunk is fetched inline; at depth 3 fetches queue
//! on a serial executor and land in order. Fetches fail, applications
//! panic, the head refuses completions and revokes jobs — in the batch,
//! while fetching, while open — and, per scenario, a failure ends the slave
//! (`FailFast`), a crash budget runs out, or the site dies.
//!
//! Checked: every granted job ends exactly once — reported complete, failed
//! back, dropped as revoked, or leaked, and leaked only by a crash or a
//! death; the first `want` is 1 and every `want` is in 1 ..= `MAX_BDP_JOBS`,
//! the bound of a master's window, and each ask hands back the emptied
//! buffer of the last batch, which the model master fills; a
//! settle comes before the open jobs span a quantum plus the job that
//! overran it, and nothing is open or unsaid when the slave blocks; after
//! leaving nothing is held.
//!
//! A failure prints the generated scenario, which replays it.

use cloudburst_core::master::MAX_BDP_JOBS;
use cloudburst_core::slave::{Owed, Step, QUANTUM};
use cloudburst_core::{ChunkId, ChunkMeta, FileId, LocalJob, Seconds, SiteId, SlaveCore, Take};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One generated run.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    depth: usize,
    ack_gated: bool,
    /// A failed job ends the slave.
    fail_fast: bool,
    crash_after: Option<u64>,
    /// The site dies before this step.
    death_at: Option<u32>,
    /// Per-mille chances per job of a failed fetch, of a panic, and per
    /// settled job of a refusal; per step of a revocation.
    fetch_err: u64,
    panic: u64,
    refuse: u64,
    revoke: u64,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
        (0u64..40, 0u64..4, 0u32..400, 0u32..4),
        (0u64..60, 0u64..60, 0u64..300, 0u64..80),
        any::<u64>(),
    )
        .prop_map(|((deep, ack_gated, fail_fast), (crash, c, death, d), rates, seed)| {
            let (fetch_err, panic, refuse, revoke) = rates;
            Scenario {
                depth: if deep { 3 } else { 1 },
                ack_gated,
                fail_fast,
                crash_after: (c == 0).then_some(crash),
                death_at: (d == 0).then_some(death),
                fetch_err,
                panic,
                refuse,
                revoke,
                seed,
            }
        })
}

/// The harness's own dice, apart from the strategy's.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn per_mille(&mut self, p: u64) -> bool {
        self.below(1000) < p
    }

    /// A duration from none to two quanta, often tiny.
    fn span(&mut self) -> Seconds {
        [0.0, 1e-6, 2e-5, 0.3 * QUANTUM, 0.7 * QUANTUM, 2.0 * QUANTUM][self.below(6) as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Reported,
    Failed,
    Dropped,
}

/// What the harness saw.
#[derive(Default)]
struct Trace {
    granted: Vec<ChunkId>,
    ends: BTreeMap<ChunkId, End>,
    wants: Vec<usize>,
    /// Ack-gated jobs processed and not yet in a settle: (job, began, ended).
    open: Vec<(ChunkId, Seconds, Seconds)>,
    /// Completions of a slave that is not ack-gated, not said yet.
    unsaid: Vec<ChunkId>,
    crashed: bool,
}

impl Trace {
    fn end(&mut self, job: ChunkId, how: End, sc: &Scenario) {
        let before = self.ends.insert(job, how);
        assert_eq!(before, None, "{job:?} ended twice ({before:?}, then {how:?}): {sc:?}");
    }

    fn reported(&mut self, jobs: &[ChunkId], sc: &Scenario) {
        for &job in jobs {
            self.end(job, End::Reported, sc);
        }
    }
}

struct Answer {
    at: Seconds,
    take: Option<Take>,
}

/// Drive one scenario to the end; the trace and the core.
fn run(sc: Scenario) -> (Trace, SlaveCore) {
    let mut dice = Dice(sc.seed);
    let mut core = SlaveCore::new(sc.depth, sc.ack_gated, sc.crash_after);
    let mut t = Trace::default();
    let mut now: Seconds = 0.0;
    let mut next_id = 0u32;
    let mut answer: Option<Answer> = None;
    // The executor: each job with when its fetch lands and whether it failed.
    let mut executor: VecDeque<(LocalJob, Seconds, bool)> = VecDeque::new();
    let mut revoked = BTreeSet::new();
    // Nothing the slave waits for is ready.
    let mut idle = false;
    let (mut dead, mut left, mut master_ended, mut fetches) = (false, false, false, 0u64);
    for step_no in 0u32.. {
        assert!(step_no < 200_000, "no progress: {sc:?}");
        if sc.death_at.is_some_and(|d| step_no >= d) {
            dead = true;
            break;
        }
        // Revoke one of the last hundred jobs granted: the live ones.
        if dice.per_mille(sc.revoke) && !t.granted.is_empty() {
            let n = t.granted.len() as u64;
            revoked.insert(t.granted[(n - 1 - dice.below(n.min(100))) as usize]);
        }
        let is_revoked = |job: ChunkId| revoked.contains(&job);
        let mut landed: Option<(LocalJob, bool)> = None;
        match core.poll(idle, is_revoked) {
            Step::Ask => {
                // An ask waited for at once goes out with nothing open.
                let waited_for = core.in_flight() == 0;
                assert!(!waited_for || t.open.is_empty(), "asks holding: {sc:?}");
                let (want, done, mut buf) = core.ask(now);
                assert!(!t.wants.is_empty() || want == 1, "the first want is 1: {sc:?}");
                assert!((1..=MAX_BDP_JOBS).contains(&want), "want {want}: {sc:?}");
                assert!(buf.is_empty(), "an ask hands back an emptied batch: {sc:?}");
                t.wants.push(want);
                assert_eq!(done, std::mem::take(&mut t.unsaid), "{sc:?}");
                t.reported(&done, &sc);
                let take = match dice.below(82) {
                    0 => Some(Take::Drained),
                    81 => None,
                    n => Some(Take::Jobs({
                        buf.extend((0..n).map(|_| {
                            next_id += 1;
                            let id = ChunkId(next_id);
                            t.granted.push(id);
                            let chunk = ChunkMeta {
                                id,
                                file: FileId(0),
                                offset: 0,
                                len: 1,
                                n_units: 1,
                                site: SiteId::LOCAL,
                            };
                            LocalJob { chunk, stolen: false, span: 0 }
                        }));
                        buf
                    })),
                };
                answer = Some(Answer { at: now + dice.span(), take });
            }
            Step::Fetch(job) => {
                fetches += 1;
                assert!(sc.crash_after.is_none_or(|k| fetches <= k), "past the budget: {sc:?}");
                let failed = dice.per_mille(sc.fetch_err);
                if sc.depth == 1 {
                    now += dice.span();
                    landed = Some((job, failed));
                } else {
                    let after = executor.back().map_or(now, |e| e.1.max(now));
                    executor.push_back((job, after + dice.span(), failed));
                }
            }
            Step::Dropped(job) => {
                assert!(revoked.contains(&job), "{job:?} dropped unrevoked: {sc:?}");
                t.end(job, End::Dropped, &sc);
            }
            Step::Settle(jobs) => settle(&mut t, &mut core, &mut dice, &sc, jobs, &revoked),
            Step::Done(jobs) => {
                assert_eq!(jobs, std::mem::take(&mut t.unsaid), "{sc:?}");
                t.reported(&jobs, &sc);
            }
            Step::Wait => {
                if answer.as_ref().is_some_and(|a| a.at <= now) {
                    let a = answer.take().expect("ready");
                    master_ended |= !matches!(a.take, Some(Take::Jobs(_)));
                    core.answer(a.take, now);
                } else if executor.front().is_some_and(|e| e.1 <= now) {
                    let (job, _, failed) = executor.pop_front().expect("ready");
                    landed = Some((job, failed));
                } else if !idle {
                    // Nothing is ready: poll again as idle before blocking.
                    idle = true;
                    continue;
                } else {
                    // Blocking: nothing open, nothing unsaid.
                    assert!(t.open.is_empty() && t.unsaid.is_empty(), "blocks holding: {sc:?}");
                    assert_eq!(core.in_flight(), executor.len(), "{sc:?}");
                    if let Some((job, at, failed)) = executor.pop_front() {
                        now = now.max(at);
                        landed = Some((job, failed));
                    } else {
                        let a = answer.take().expect("a slave waits on a fetch or an answer");
                        now = now.max(a.at);
                        master_ended |= !matches!(a.take, Some(Take::Jobs(_)));
                        core.answer(a.take, now);
                    }
                }
                idle = false;
            }
            Step::Leave => {
                left = true;
                break;
            }
        }
        let Some((job, fetch_failed)) = landed else { continue };
        let id = job.chunk.id;
        if !core.hand_off(id, is_revoked) {
            assert!(sc.depth > 1 && revoked.contains(&id), "{sc:?}");
            t.end(id, End::Dropped, &sc);
            continue;
        }
        if fetch_failed || dice.per_mille(sc.panic) {
            core.failed();
            t.end(id, End::Failed, &sc);
            if sc.fail_fast {
                break;
            }
            continue;
        }
        let began = now;
        now += dice.span();
        core.processed(id, 0..0, began, now);
        if sc.ack_gated {
            t.open.push((id, began, now));
        } else {
            t.unsaid.push(id);
        }
    }
    // The exit, as the driver takes it.
    if !dead {
        if let Some(jobs) = core.settle(|job| revoked.contains(&job)) {
            settle(&mut t, &mut core, &mut dice, &sc, jobs, &revoked);
        }
    }
    let mut owed = core.leave(dead);
    t.crashed = owed.is_none() && !dead;
    // A slave leaves of itself while its master still has work only when
    // its crash budget ran out; then it says nothing.
    let crash = left && !master_ended;
    assert_eq!(t.crashed, crash, "{sc:?}");
    assert!(!crash || sc.crash_after == Some(fetches), "{sc:?}");
    while let Some(o) = owed {
        assert_eq!(o.done, std::mem::take(&mut t.unsaid), "{sc:?}");
        t.reported(&o.done, &sc);
        for job in o.failed {
            t.end(job, End::Failed, &sc);
        }
        // A request still out is answered, and what it brings is owed too.
        let Some(a) = answer.take() else { break };
        core.answer(a.take, now);
        owed = core.leave(dead);
    }
    // Nothing is held after leaving: nothing in flight, and leaving again
    // owes nothing (a crashed worker owes nothing by construction).
    assert_eq!(core.in_flight(), 0, "{sc:?}");
    let again = core.leave(false);
    assert_eq!(again.is_none(), t.crashed, "{sc:?}");
    assert!(again.is_none_or(|o| o == Owed::default()), "held after leaving: {sc:?}");
    (t, core)
}

/// Carry one settle out: the open jobs it leaves out were revoked, the
/// quantum held, and the verdicts come back with refusals.
fn settle(
    t: &mut Trace,
    core: &mut SlaveCore,
    dice: &mut Dice,
    sc: &Scenario,
    jobs: Vec<ChunkId>,
    revoked: &BTreeSet<ChunkId>,
) {
    let open = std::mem::take(&mut t.open);
    assert!(!open.is_empty(), "a settle with nothing open: {sc:?}");
    // Every open job but the last ended within a quantum of the oldest's
    // start: the settle came no later than the job that overran it.
    let b0 = open[0].1;
    if let [.., before_last, _] = open.as_slice() {
        assert!(before_last.2 - b0 < QUANTUM, "open past a quantum: {open:?}, {sc:?}");
    }
    let said: Vec<ChunkId> = open.iter().map(|o| o.0).filter(|j| jobs.contains(j)).collect();
    assert_eq!(said, jobs, "a settle reports open jobs, in order: {sc:?}");
    for &(job, _, _) in &open {
        if jobs.contains(&job) {
            t.end(job, End::Reported, sc);
        } else {
            assert!(revoked.contains(&job), "{job:?} left out unrevoked: {sc:?}");
            t.end(job, End::Dropped, sc);
        }
    }
    let verdicts: Vec<bool> = jobs.iter().map(|_| !dice.per_mille(sc.refuse)).collect();
    let (all_merged, merged) = core.settled(&verdicts);
    let merged: Vec<ChunkId> = merged.map(|(job, _)| job).collect();
    let expected: Vec<ChunkId> =
        jobs.iter().zip(&verdicts).filter(|(_, &v)| v).map(|(&j, _)| j).collect();
    assert_eq!(merged, expected, "{sc:?}");
    let all = verdicts.iter().all(|&v| v) && jobs.len() == open.len();
    assert_eq!(all_merged, all, "{sc:?}");
}

proptest! {
    /// Every granted job ends exactly once; only a crash or a death leaks.
    #[test]
    fn every_granted_job_ends_exactly_once(sc in scenario()) {
        let (t, _) = run(sc);
        let leaked: Vec<ChunkId> =
            t.granted.iter().copied().filter(|j| !t.ends.contains_key(j)).collect();
        prop_assert!(
            leaked.is_empty() || t.crashed || sc.death_at.is_some(),
            "{} leaked without a crash or a death: {:?}", leaked.len(), sc
        );
        prop_assert!(t.ends.keys().all(|j| t.granted.contains(j)), "{:?}", sc);
    }

    /// With no crash, death or failure, every job is reported or dropped
    /// (revoked), and the run ends because the master said so.
    #[test]
    fn a_clean_run_reports_every_job_it_was_granted(sc in scenario()) {
        let sc = Scenario { crash_after: None, death_at: None, fetch_err: 0, panic: 0, ..sc };
        let (t, _) = run(sc);
        prop_assert_eq!(t.ends.len(), t.granted.len(), "{:?}", sc);
        prop_assert!(t.ends.values().all(|&e| e != End::Failed), "{:?}", sc);
        prop_assert!(!t.wants.is_empty(), "{:?}", sc);
    }
}
