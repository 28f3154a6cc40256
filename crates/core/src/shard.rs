//! Sharded, thread-safe façade over the job pool for grant rates far past
//! the single-mutex design.
//!
//! The classic deployment wraps [`JobPool`] in one mutex and pays a lock
//! acquisition plus an `O(files)` policy scan *per grant* — microseconds
//! that do not matter at the paper's 96-job scale and dominate everything
//! at millions of tiny jobs. [`ShardedPool`] splits the *selection* of jobs
//! from the *registration* of their leases:
//!
//! * every data-home site gets a lock-free shard (a crossbeam
//!   [`SegQueue`]) holding its pending job ids in physical order, so the
//!   common case — a site draining its own data — pops candidates without
//!   any lock and takes the pool mutex **once per batch** to register the
//!   leases ([`JobPool::assign_ids`], which skips the policy scan because
//!   the shard already made the locality decision);
//! * work stealing happens only on local exhaustion, from the deepest
//!   other shard, capped at [`STEAL_BATCH_MAX`] and gated by the same
//!   rate-aware condition as the legacy path;
//! * everything rare — speculation, coded replica grants, the terminal
//!   verdict — falls through to the legacy [`JobPool::request_for_at`]
//!   under the lock, so those semantics are inherited, not re-implemented.
//!
//! Shard entries may go **stale**: a job granted through the legacy path,
//! completed late, or abandoned stays in its shard queue until popped and
//! is then skipped by `assign_ids`'s pending check. Conversely every job
//! the pool re-queues (failure, lease reap, evacuation) is replayed onto
//! its home shard through the pool's requeue log, so the invariant that
//! drives correctness is one-directional: *a shard always contains at
//! least the pending jobs of its site.* Shards drained dry therefore prove
//! the pending pool is empty, and the slow path's terminal verdict is
//! sound.
//!
//! All fault-tolerance operations (`complete`/`fail`/`reap`/`evacuate`)
//! delegate to the inner pool under the mutex, so leases, exactly-once
//! dedup, replica fencing and evacuation behave identically to the
//! unsharded pool — the property `core/tests/pool_shard_props.rs` checks
//! under random interleavings.

use crate::pool::{Completion, JobBatch, JobPool, STEAL_BATCH_MAX};
use crate::types::{ChunkId, SiteId};
use crossbeam::queue::SegQueue;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One site's lock-free queue of (probably) pending job ids.
#[derive(Default)]
struct Shard {
    q: SegQueue<ChunkId>,
    /// Entries currently queued (stale ones included) — a cheap victim-
    /// selection signal, not an exact pending count.
    len: AtomicUsize,
}

impl Shard {
    fn push(&self, id: ChunkId) {
        self.q.push(id);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    fn push_all(&self, ids: &[ChunkId]) {
        for &id in ids {
            self.push(id);
        }
    }

    /// Pop up to `max` entries. Each entry is popped exactly once across
    /// all threads, so `len` never underflows.
    fn pop_up_to(&self, max: usize) -> Vec<ChunkId> {
        let mut ids = Vec::new();
        while ids.len() < max {
            match self.q.pop() {
                Some(id) => {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    ids.push(id);
                }
                None => break,
            }
        }
        ids
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// A thread-safe, per-site-sharded wrapper around [`JobPool`] (see the
/// module docs for the design).
pub struct ShardedPool {
    inner: Mutex<JobPool>,
    shards: BTreeMap<SiteId, Shard>,
}

impl ShardedPool {
    /// Wrap `pool`, seeding one shard per data-home site with its pending
    /// jobs in physical order.
    #[must_use]
    pub fn new(mut pool: JobPool) -> ShardedPool {
        pool.set_shard_log(true);
        let mut shards: BTreeMap<SiteId, Shard> = BTreeMap::new();
        for (site, ids) in pool.pending_ids_by_site() {
            let shard = shards.entry(site).or_default();
            shard.push_all(&ids);
        }
        ShardedPool { inner: Mutex::new(pool), shards }
    }

    /// Unwrap the inner pool (for end-of-run report assembly).
    #[must_use]
    pub fn into_inner(self) -> JobPool {
        let mut pool = self.inner.into_inner();
        pool.set_shard_log(false);
        pool
    }

    /// Run `f` against the inner pool under the lock, replaying any jobs it
    /// re-queued back onto their home shards.
    pub fn with<T>(&self, f: impl FnOnce(&mut JobPool) -> T) -> T {
        let mut inner = self.inner.lock();
        let out = f(&mut inner);
        Self::push_requeued(&self.shards, &mut inner);
        out
    }

    /// Replay the pool's requeue log onto the home shards. Called with the
    /// lock held after every mutating delegate, so re-queued jobs are
    /// poppable again before the lock is released.
    fn push_requeued(shards: &BTreeMap<SiteId, Shard>, inner: &mut JobPool) {
        for id in inner.take_requeued() {
            if let Some(shard) = shards.get(&inner.home_of(id)) {
                shard.push(id);
            }
        }
    }

    /// Grant up to `max` jobs to `site`: lock-free pops from the site's own
    /// shard first, a capped steal from the deepest other shard on local
    /// exhaustion, and the legacy request path (speculation, coded
    /// replicas, terminal detection) when every shard is dry. `max == 0`
    /// reports the terminal state without granting.
    pub fn get_jobs(&self, site: SiteId, max: usize, now: f64) -> JobBatch {
        // Pop local candidates before taking the pool lock: the hot path
        // costs a few lock-free pops plus one short critical section that
        // registers the whole batch.
        let local = self.shards.get(&site).map_or_else(Vec::new, |sh| sh.pop_up_to(max));
        let mut inner = self.inner.lock();
        if max == 0 || inner.is_dead(site) {
            if let Some(sh) = self.shards.get(&site) {
                sh.push_all(&local); // untouched — still pending
            }
            return JobBatch::empty(inner.all_done());
        }
        let mut ids = local;
        loop {
            if !ids.is_empty() {
                let batch = inner.assign_ids(site, &ids, false, now);
                Self::push_requeued(&self.shards, &mut inner);
                if !batch.is_empty() {
                    return batch;
                }
            }
            // All candidates were stale; keep draining the local shard.
            ids = match self.shards.get(&site) {
                Some(sh) => sh.pop_up_to(max),
                None => Vec::new(),
            };
            if ids.is_empty() {
                break;
            }
        }
        // Local exhaustion: steal from the deepest other shard, in grants
        // capped like the legacy path and gated by the same rate condition.
        let steal_cap = max.min(STEAL_BATCH_MAX);
        let mut victims: Vec<(SiteId, &Shard)> =
            self.shards.iter().map(|(&s, sh)| (s, sh)).filter(|&(s, _)| s != site).collect();
        victims.sort_by_key(|&(s, sh)| (std::cmp::Reverse(sh.len()), s));
        for (owner, shard) in victims {
            if shard.len() == 0 || !inner.steal_pays_off(site, owner) {
                continue;
            }
            loop {
                let ids = shard.pop_up_to(steal_cap);
                if ids.is_empty() {
                    break;
                }
                let batch = inner.assign_ids(site, &ids, true, now);
                Self::push_requeued(&self.shards, &mut inner);
                if !batch.is_empty() {
                    return batch;
                }
            }
        }
        // Every shard is dry, so nothing is pending (shards are supersets
        // of the pending pool): the legacy path handles speculation, coded
        // replicas and the terminal verdict.
        let batch = inner.request_for_at(site, now);
        Self::push_requeued(&self.shards, &mut inner);
        batch
    }

    /// The policy-sized grant path (a channel master's request), under the
    /// lock.
    pub fn request_for_at(&self, site: SiteId, now: f64) -> JobBatch {
        self.with(|p| p.request_for_at(site, now))
    }

    /// Delegate of [`JobPool::complete_at`].
    pub fn complete_at(&self, job: ChunkId, site: SiteId, now: f64) -> Completion {
        self.with(|p| p.complete_at(job, site, now))
    }

    /// Delegate of [`JobPool::fail`].
    pub fn fail(&self, job: ChunkId, site: SiteId) -> bool {
        self.with(|p| p.fail(job, site))
    }

    /// Delegate of [`JobPool::reap_expired`]; re-queued jobs land back on
    /// their home shards before this returns.
    pub fn reap_expired(&self, now: f64) -> Vec<(ChunkId, SiteId)> {
        self.with(|p| p.reap_expired(now))
    }

    /// Delegate of [`JobPool::evacuate`].
    pub fn evacuate(&self, site: SiteId) {
        self.with(|p| p.evacuate(site));
    }

    /// Delegate of [`JobPool::all_done`].
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.inner.lock().all_done()
    }
}

impl std::fmt::Debug for ShardedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let depths: BTreeMap<SiteId, usize> =
            self.shards.iter().map(|(&s, sh)| (s, sh.len())).collect();
        f.debug_struct("ShardedPool").field("depths", &depths).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;
    use crate::pool::BatchPolicy;
    use crate::types::ChunkId;
    use std::collections::BTreeSet;

    fn index(
        n_files: u64,
        chunks_per_file: u64,
        split: impl FnMut(crate::types::FileId) -> SiteId,
    ) -> DataIndex {
        let total = n_files * chunks_per_file * 4;
        DataIndex::build(
            total,
            LayoutParams { unit_size: 8, units_per_chunk: 4, n_files: n_files as u32 },
            split,
        )
        .unwrap()
    }

    fn two_site_pool() -> ShardedPool {
        let idx = index(4, 8, |f| if f.0 < 2 { SiteId::LOCAL } else { SiteId::CLOUD });
        ShardedPool::new(JobPool::from_index(&idx, BatchPolicy::Fixed(4)))
    }

    #[test]
    fn grants_local_jobs_without_stealing_first() {
        let pool = two_site_pool();
        let batch = pool.get_jobs(SiteId::LOCAL, 4, 0.0);
        assert_eq!(batch.len(), 4);
        assert!(!batch.stolen);
        assert!(batch.jobs.iter().all(|j| j.site == SiteId::LOCAL));
    }

    #[test]
    fn every_job_granted_exactly_once_across_both_sites() {
        let pool = two_site_pool();
        let mut seen: BTreeSet<ChunkId> = BTreeSet::new();
        let mut grants = 0usize;
        for round in 0.. {
            let site = if round % 2 == 0 { SiteId::LOCAL } else { SiteId::CLOUD };
            let batch = pool.get_jobs(site, 3, round as f64 * 0.001);
            if batch.is_empty() {
                if batch.terminal {
                    break;
                }
                continue;
            }
            grants += 1;
            for j in &batch.jobs {
                assert!(seen.insert(j.id), "{} granted twice", j.id);
                assert!(pool.complete_at(j.id, site, round as f64 * 0.001).is_merged());
            }
        }
        assert_eq!(seen.len(), 32);
        assert!(grants >= 32 / 3);
        assert!(pool.all_done());
    }

    #[test]
    fn steals_are_capped_and_flagged() {
        let pool = two_site_pool();
        // Drain LOCAL's own shard completely.
        loop {
            let b = pool.get_jobs(SiteId::LOCAL, 16, 0.0);
            if b.stolen || b.is_empty() {
                // First stolen batch: local exhausted.
                assert!(b.stolen, "local exhaustion must steal, not stall");
                assert!(b.len() <= STEAL_BATCH_MAX);
                assert!(b.jobs.iter().all(|j| j.site == SiteId::CLOUD));
                break;
            }
            for j in &b.jobs {
                let _ = pool.complete_at(j.id, SiteId::LOCAL, 0.0);
            }
        }
    }

    #[test]
    fn failed_jobs_return_to_their_home_shard() {
        let pool = two_site_pool();
        let batch = pool.get_jobs(SiteId::LOCAL, 2, 0.0);
        let depth_after_grant = pool.shards[&SiteId::LOCAL].len();
        assert!(pool.fail(batch.jobs[0].id, SiteId::LOCAL));
        assert_eq!(pool.shards[&SiteId::LOCAL].len(), depth_after_grant + 1);
        // The re-queued job is grantable again through the fast path.
        let again = pool.get_jobs(SiteId::LOCAL, 16, 0.0);
        assert!(again.jobs.iter().any(|j| j.id == batch.jobs[0].id));
    }

    #[test]
    fn dead_site_gets_empty_grants_and_its_pops_are_returned() {
        let pool = two_site_pool();
        pool.evacuate(SiteId::CLOUD);
        let before = pool.shards[&SiteId::CLOUD].len();
        let batch = pool.get_jobs(SiteId::CLOUD, 8, 0.0);
        assert!(batch.is_empty());
        assert!(!batch.terminal);
        assert_eq!(pool.shards[&SiteId::CLOUD].len(), before, "pops must be handed back");
    }

    #[test]
    fn stale_entries_are_skipped_not_double_granted() {
        let pool = two_site_pool();
        // Grant through the legacy path: the granted ids stay queued in the
        // shard as stale entries.
        let legacy = pool.request_for_at(SiteId::LOCAL, 0.0);
        assert!(!legacy.is_empty());
        let legacy_ids: BTreeSet<ChunkId> = legacy.jobs.iter().map(|j| j.id).collect();
        // The sharded path must never re-grant them.
        let mut seen: BTreeSet<ChunkId> = BTreeSet::new();
        loop {
            let b = pool.get_jobs(SiteId::LOCAL, 64, 0.0);
            if b.is_empty() {
                break;
            }
            for j in &b.jobs {
                assert!(!legacy_ids.contains(&j.id), "{} granted twice", j.id);
                assert!(seen.insert(j.id));
                let _ = pool.complete_at(j.id, SiteId::LOCAL, 0.0);
            }
        }
    }

    #[test]
    fn zero_max_reports_terminal_state_without_granting() {
        let idx = index(1, 2, |_| SiteId::LOCAL);
        let pool = ShardedPool::new(JobPool::from_index(&idx, BatchPolicy::Fixed(8)));
        assert!(!pool.get_jobs(SiteId::LOCAL, 0, 0.0).terminal);
        let b = pool.get_jobs(SiteId::LOCAL, 8, 0.0);
        for j in &b.jobs {
            let _ = pool.complete_at(j.id, SiteId::LOCAL, 0.0);
        }
        let probe = pool.get_jobs(SiteId::LOCAL, 0, 0.0);
        assert!(probe.is_empty() && probe.terminal);
    }
}
