//! `HeadCore` under a virtual clock and a random schedule of everything a
//! transport can hand it — policy-sized requests, `GetJobs` and `AckBatch`
//! frames, direct settles, failures, pings, goodbyes, connections that just
//! go away, and ticks — with leases that expire, speculation, and a
//! heartbeat timeout the schedule regularly outruns. Checked after every
//! step:
//!
//! * conservation — `pending + in_flight + merged + abandoned == n`, and the
//!   pool's merged count is the number of chunks this test was told `true`
//!   for by a site that is still alive;
//! * exactly-once — a chunk gets the verdict `true` at most once (again only
//!   after the site that merged it was evacuated, its result lost with it);
//! * fencing — a site the head declared dead is granted nothing;
//! * terminal soundness — a terminal grant only once every job is done;
//! * one grant policy on every transport (§III-B) — a grant holds at most the
//!   jobs asked for, all of one file and physically consecutive, and a stolen
//!   one at most `STEAL_BATCH_MAX`.
//!
//! A failure prints the seed that replays it.

use cloudburst_cluster::head_core::{HeadCore, Peer, Reply};
use cloudburst_cluster::wire::{AckEntry, Frame, MasterToHead};
use cloudburst_core::pool::STEAL_BATCH_MAX;
use cloudburst_core::{
    BatchPolicy, ChunkId, DataIndex, HeartbeatConfig, JobBatch, JobPool, LayoutParams, LeaseConfig,
    SiteId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SITES: [SiteId; 3] = [SiteId(0), SiteId(1), SiteId(2)];
const HEARTBEAT: HeartbeatConfig = HeartbeatConfig { interval: 0.005, timeout: 0.04 };

/// What a policy-sized `request` may grant: the pool's `BatchPolicy::Fixed`.
const POLICY_BATCH: usize = 2;

/// The head and what its peers know.
struct World {
    head: HeadCore,
    n: usize,
    now: f64,
    /// Per site: jobs granted to it that it has not reported on yet.
    held: Vec<Vec<ChunkId>>,
    /// Per site: its master said `Bye` or its connection went away.
    left: Vec<bool>,
    /// Which live site each chunk was merged at.
    merged_at: BTreeMap<ChunkId, SiteId>,
}

impl World {
    fn is_dead(&self, site: SiteId) -> bool {
        self.head.pool().is_dead(site)
    }

    fn take_grant(&mut self, s: usize, was_dead: bool, max: usize, batch: JobBatch) {
        assert!(!was_dead || batch.is_empty(), "{} was dead and got {batch:?}", SITES[s]);
        let cap = if batch.stolen { max.min(STEAL_BATCH_MAX) } else { max };
        assert!(batch.len() <= cap, "asked for {max}, got {batch:?}");
        for w in batch.jobs.windows(2) {
            assert!(w[0].file == w[1].file && w[1].id == w[0].id.next(), "a gap in {batch:?}");
        }
        if batch.terminal {
            assert!(batch.is_empty() && self.head.pool().all_done(), "terminal too early");
        }
        self.held[s].extend(batch.jobs.iter().map(|j| j.id));
    }

    fn take_verdicts(&mut self, s: usize, jobs: &[ChunkId], verdicts: &[bool]) {
        assert_eq!(jobs.len(), verdicts.len());
        for (&job, &merged) in jobs.iter().zip(verdicts) {
            if merged {
                let before = self.merged_at.insert(job, SITES[s]);
                assert_eq!(before, None, "{job} merged twice, now at {}", SITES[s]);
            }
        }
    }

    /// One step of the schedule.
    fn step(&mut self, op: u8, s: usize, arg: u16) {
        let (site, peer) = (SITES[s], Peer::from(SITES[s]));
        self.now += f64::from(arg % 4) * 5e-4;
        let now = self.now;
        let was_dead = self.is_dead(site);
        let k = (arg as usize % 3 + 1).min(self.held[s].len());
        match op {
            _ if self.left[s] => {}
            0 => {
                let batch = self.head.request(site, now);
                self.take_grant(s, was_dead, POLICY_BATCH, batch);
            }
            1 => {
                let max = arg % 5;
                let Reply::Grant(batch) =
                    self.head.on_frame(peer, Frame::GetJobs { site, max }, now)
                else {
                    panic!("GetJobs is answered by a grant")
                };
                self.take_grant(s, was_dead, usize::from(max), batch);
            }
            2 => {
                let jobs: Vec<ChunkId> = self.held[s].drain(..k).collect();
                let verdicts = self.head.settle(site, &jobs, now);
                self.take_verdicts(s, &jobs, &verdicts);
            }
            3 => {
                // Now and then every other entry reports a failure: verdict
                // `false`.
                let jobs: Vec<ChunkId> = self.held[s].drain(..k).collect();
                let entries: Vec<AckEntry> = (jobs.iter().enumerate())
                    .map(|(i, &job)| AckEntry {
                        job,
                        ok: (i as u16 + arg) & 1 == 0 || arg & 2 == 0,
                    })
                    .collect();
                let want = arg % 4;
                let frame = Frame::AckBatch { site, want, entries: entries.clone() };
                let Reply::Batch(reply) = self.head.on_frame(peer, frame, now) else {
                    panic!("AckBatch is answered by a BatchReply")
                };
                for (e, &merged) in entries.iter().zip(&reply.verdicts) {
                    assert!(e.ok || !merged, "a failure report was merged");
                }
                self.take_verdicts(s, &jobs, &reply.verdicts);
                self.held[s].retain(|job| !reply.revoked.contains(job));
                self.take_grant(s, was_dead, usize::from(want), reply.grant);
            }
            4 => {
                if let Some(job) = self.held[s].pop() {
                    self.head.on_frame(
                        peer,
                        Frame::Legacy(MasterToHead::Failed { job, site }),
                        now,
                    );
                }
            }
            5 => {
                self.head.on_frame(peer, Frame::Legacy(MasterToHead::Ping { site }), now);
            }
            6 => {
                // A master hands back what it holds before it leaves.
                for job in std::mem::take(&mut self.held[s]) {
                    self.head.on_frame(
                        peer,
                        Frame::Legacy(MasterToHead::Failed { job, site }),
                        now,
                    );
                }
                assert_eq!(
                    self.head.on_frame(peer, Frame::Legacy(MasterToHead::Bye), now),
                    Reply::Bye
                );
                self.left[s] = true;
            }
            7 => {
                self.head.on_disconnect(peer);
                self.left[s] = true;
            }
            _ => {
                self.now += f64::from(arg % 32) * 1e-3;
                for lost in self.head.on_tick(self.now) {
                    let s = SITES.iter().position(|&site| Peer::from(site) == lost).unwrap();
                    assert!(!self.left[s], "{} had left, and was declared silent", SITES[s]);
                }
            }
        }
        // What a dead site merged is lost with it.
        let pool = self.head.pool();
        let dead = pool.dead_sites();
        self.merged_at.retain(|_, site| !dead.contains(site));
        let (pending, in_flight, merged) = (pool.pending(), pool.in_flight(), pool.completed());
        assert_eq!(pending + in_flight + merged + pool.abandoned(), self.n);
        assert_eq!(merged, self.merged_at.len(), "the pool and the verdicts disagree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_schedule_conserves_jobs_merges_each_once_and_grants_nothing_to_the_dead(
        file_sites in prop::collection::vec(0usize..3, 1..5),
        chunks_per_file in 1u64..6,
        ops in prop::collection::vec((0u8..10, 0usize..3, any::<u16>()), 1..200),
    ) {
        let n_files = file_sites.len() as u32;
        let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files };
        let index = DataIndex::build(u64::from(n_files) * chunks_per_file, params, |f| {
            SITES[file_sites[f.0 as usize]]
        })
        .unwrap();
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(POLICY_BATCH));
        pool.set_lease(LeaseConfig { base: 0.01, min: 0.01, max: 0.02, ..LeaseConfig::default() });
        pool.set_speculation(true);
        pool.set_max_attempts(3);
        let mut world = World {
            head: HeadCore::new(pool, SITES.len(), Some(HEARTBEAT), true),
            n: index.n_chunks(),
            now: 0.0,
            held: vec![Vec::new(); SITES.len()],
            left: vec![false; SITES.len()],
            merged_at: BTreeMap::new(),
        };
        for &(op, s, arg) in &ops {
            world.step(op, s, arg);
        }
        let merged = world.merged_at.len() as u64;
        let report = world.head.finish();
        // `finish` evacuates the peers that never left, losing their merges.
        let kept: u64 = report.counts.values().map(|c| c.total()).sum();
        prop_assert!(kept <= merged && merged <= report.completions);
        prop_assert!(kept + report.abandoned <= world.n as u64);
    }
}
