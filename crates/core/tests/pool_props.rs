//! Property tests for the job pool: under *any* interleaving of requests
//! from any mixture of sites, every job is granted exactly once, completed
//! exactly once, batches are physically consecutive, and stealing only
//! happens when the requester has no local pending jobs. With fault
//! tolerance on, the same exactly-once guarantee must survive arbitrary
//! interleavings of grants of every size 1..=64, lease expiries, failures,
//! duplicate completions, and a mid-run site evacuation, with no terminal
//! grant before every job is done or abandoned.

use cloudburst_core::{
    BatchPolicy, ChunkId, Completion, DataIndex, JobPool, LayoutParams, LeaseConfig, SiteId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_index() -> impl Strategy<Value = DataIndex> {
    (1u32..8, 1u64..10, 1u64..5, 0.0f64..=1.0).prop_map(|(n_files, cpf, upc, frac)| {
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

proptest! {
    #[test]
    fn every_job_granted_and_completed_exactly_once(
        index in arb_index(),
        order in prop::collection::vec(prop::bool::ANY, 0..200),
        batch in 1usize..6,
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(batch));
        let mut seen = vec![0u32; index.n_chunks()];
        let mut i = 0;
        // Interleave requests from the two sites per the random order; when
        // the random stream runs out, round-robin until done.
        while !pool.all_done() {
            let site = if *order.get(i).unwrap_or(&(i % 2 == 0)) {
                SiteId::LOCAL
            } else {
                SiteId::CLOUD
            };
            i += 1;
            let b = pool.grant(site, batch, 0.0);
            if b.is_empty() {
                // Nothing pending: only legal when all jobs are assigned.
                prop_assert_eq!(pool.pending(), 0);
                // Avoid spinning forever if the pool is waiting on
                // completions of the other site's in-flight jobs.
            }
            for j in &b.jobs {
                seen[j.id.0 as usize] += 1;
                pool.complete(j.id, site);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "grants: {seen:?}");
        let total: u64 = pool.site_counts().values().map(|c| c.total()).sum();
        prop_assert_eq!(total, index.n_chunks() as u64);
    }

    #[test]
    fn batches_are_consecutive_within_one_file(
        index in arb_index(),
        batch in 1usize..8,
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(batch));
        while !pool.all_done() {
            let b = pool.grant(SiteId::LOCAL, batch, 0.0);
            for w in b.jobs.windows(2) {
                prop_assert_eq!(w[0].file, w[1].file);
                prop_assert_eq!(w[1].id, w[0].id.next());
                prop_assert_eq!(w[1].offset, w[0].end());
            }
            for j in &b.jobs {
                pool.complete(j.id, SiteId::LOCAL);
            }
        }
    }

    #[test]
    fn stealing_only_after_local_exhaustion(
        index in arb_index(),
        batch in 1usize..6,
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(batch));
        let mut local_pending: BTreeSet<u32> = index
            .chunks
            .iter()
            .filter(|c| c.site == SiteId::LOCAL)
            .map(|c| c.id.0)
            .collect();
        while !pool.all_done() {
            let b = pool.grant(SiteId::LOCAL, batch, 0.0);
            if b.stolen {
                prop_assert!(
                    local_pending.is_empty(),
                    "stole while local jobs pending: {local_pending:?}"
                );
            }
            for j in &b.jobs {
                local_pending.remove(&j.id.0);
                pool.complete(j.id, SiteId::LOCAL);
            }
        }
    }

    #[test]
    fn counts_split_local_vs_stolen_correctly(
        index in arb_index(),
    ) {
        let n_local_chunks =
            index.chunks.iter().filter(|c| c.site == SiteId::LOCAL).count() as u64;
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(2));
        // The local site processes everything.
        while !pool.all_done() {
            let b = pool.grant(SiteId::LOCAL, 2, 0.0);
            for j in &b.jobs {
                pool.complete(j.id, SiteId::LOCAL);
            }
        }
        let c = pool.site_counts()[&SiteId::LOCAL];
        prop_assert_eq!(c.local, n_local_chunks);
        prop_assert_eq!(c.stolen, index.n_chunks() as u64 - n_local_chunks);
    }

    /// The chaos-monkey property: random interleavings of grants of the
    /// case's batch size and of any size (`max` in 1..=64), completions each followed by its
    /// duplicate, failures, lease reaps and a cloud evacuation, then the
    /// surviving local site drains the rest. Each chunk must end up merged
    /// in exactly one *surviving* robj or abandoned — never both, never
    /// twice, never dropped — and no grant is terminal before that.
    #[test]
    fn chaotic_interleavings_merge_each_chunk_exactly_once(
        index in arb_index(),
        ops in prop::collection::vec((0u8..6, any::<u8>(), any::<u16>()), 0..250),
        batch in 1usize..5,
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(batch));
        pool.set_lease(LeaseConfig { base: 1.0, multiplier: 2.0, min: 0.5, max: 8.0 });
        pool.set_speculation(true);
        pool.set_max_attempts(100);
        let sites = [SiteId::LOCAL, SiteId::CLOUD];
        // Model of each site's robj: the chunks merged there. Leases a
        // worker loses (reaped) stay in `held` — the oblivious worker keeps
        // running and may report late, exactly as in the real runtime.
        let mut robj: BTreeMap<SiteId, BTreeSet<u32>> =
            sites.iter().map(|&s| (s, BTreeSet::new())).collect();
        let mut held: BTreeMap<SiteId, Vec<ChunkId>> =
            sites.iter().map(|&s| (s, Vec::new())).collect();
        let mut t = 0.0f64;
        for &(op, s, x) in &ops {
            t += 0.3;
            let site = sites[usize::from(s) % 2];
            match op {
                0 | 5 => {
                    let max = if op == 0 { batch } else { usize::from(x) % 64 + 1 };
                    let b = pool.grant(site, max, t);
                    prop_assert!(b.len() <= max, "granted {} jobs for max {max}", b.len());
                    prop_assert!(!b.terminal || pool.all_done(), "terminal grant too early");
                    held.get_mut(&site).unwrap().extend(b.jobs.iter().map(|j| j.id));
                }
                1 => {
                    let h = held.get_mut(&site).unwrap();
                    if h.is_empty() {
                        continue;
                    }
                    let job = h.remove(usize::from(x) % h.len());
                    if let Completion::Merged { preempted } = pool.complete_at(job, site, t) {
                        robj.get_mut(&site).unwrap().insert(job.0);
                        for s in preempted {
                            // Preempted executions are revoked and abort.
                            held.get_mut(&s).unwrap().retain(|&c| c != job);
                        }
                    }
                    let again = pool.complete_at(job, site, t);
                    prop_assert!(!again.is_merged(), "a repeated report of {job} merged");
                }
                2 => {
                    let h = held.get_mut(&site).unwrap();
                    if h.is_empty() {
                        continue;
                    }
                    let job = h.remove(usize::from(x) % h.len());
                    pool.fail(job, site);
                }
                3 => {
                    pool.reap_expired(t);
                }
                4 => {
                    // Mid-run spot revocation: the cloud dies, its robj —
                    // including every result merged there — is lost.
                    pool.evacuate(SiteId::CLOUD);
                    held.get_mut(&SiteId::CLOUD).unwrap().clear();
                    robj.get_mut(&SiteId::CLOUD).unwrap().clear();
                }
                _ => unreachable!(),
            }
        }
        // Drive to completion from the always-surviving local site.
        let mut rounds = 0;
        while !pool.all_done() {
            t += 1.0;
            pool.reap_expired(t);
            let b = pool.grant(SiteId::LOCAL, rounds % 64 + 1, t);
            prop_assert!(!b.terminal, "terminal grant with work left");
            for j in &b.jobs {
                if pool.complete_at(j.id, SiteId::LOCAL, t).is_merged() {
                    robj.get_mut(&SiteId::LOCAL).unwrap().insert(j.id.0);
                }
            }
            rounds += 1;
            prop_assert!(rounds < 20_000, "pool failed to reach a terminal state");
        }
        let local = &robj[&SiteId::LOCAL];
        let cloud = &robj[&SiteId::CLOUD];
        prop_assert!(local.is_disjoint(cloud), "a chunk merged at two surviving sites");
        let abandoned: BTreeSet<u32> =
            pool.abandoned_jobs().iter().map(|a| a.chunk.0).collect();
        let mut all: BTreeSet<u32> = local | cloud;
        prop_assert!(all.is_disjoint(&abandoned), "a chunk both merged and abandoned");
        all.extend(&abandoned);
        prop_assert_eq!(all.len(), index.n_chunks(), "a chunk was dropped");
        // The pool's own ledgers agree with the model.
        prop_assert_eq!(pool.completed() + pool.abandoned(), index.n_chunks());
        let counted: u64 = pool.site_counts().values().map(|c| c.total()).sum();
        prop_assert_eq!(counted, pool.completed() as u64);
    }

    /// First completion wins, in either order: a reaped lease's late result
    /// races the re-execution it was replaced by, and exactly one of the two
    /// reports merges.
    #[test]
    fn late_completion_after_reap_merges_exactly_once(
        index in arb_index(),
        late_first in any::<bool>(),
    ) {
        let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(1));
        pool.set_lease(LeaseConfig { base: 1.0, multiplier: 1.0, min: 1.0, max: 1.0 });
        pool.set_max_attempts(100);
        let job = pool.grant(SiteId::LOCAL, 1, 0.0).jobs[0].id;
        // The lease silently expires and is reaped; the oblivious local
        // worker keeps running.
        let reaped = pool.reap_expired(100.0);
        prop_assert!(reaped.contains(&(job, SiteId::LOCAL)));
        // Keep granting to the cloud until the reaped job is re-executed
        // there (other grants complete immediately to keep the pool moving).
        let mut regranted = false;
        while !regranted {
            let b = pool.grant(SiteId::CLOUD, 1, 100.0);
            prop_assert!(!b.is_empty(), "the reaped job was never re-granted");
            for j in &b.jobs {
                if j.id == job {
                    regranted = true;
                } else {
                    pool.complete_at(j.id, SiteId::CLOUD, 100.0);
                }
            }
        }
        // Both executions now report, in either order.
        let order = if late_first {
            [SiteId::LOCAL, SiteId::CLOUD]
        } else {
            [SiteId::CLOUD, SiteId::LOCAL]
        };
        let verdicts = order.map(|s| pool.complete_at(job, s, 101.0));
        prop_assert_eq!(verdicts.iter().filter(|c| c.is_merged()).count(), 1);
        prop_assert!(verdicts[0].is_merged(), "the first report must win the race");
        prop_assert!(pool.faults().lease_expiries >= 1);
        prop_assert!(pool.faults().duplicate_completions >= 1);
    }
}
