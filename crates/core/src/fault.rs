//! The failure model shared by every runtime: job leases, heartbeat
//! liveness, and the deterministic chaos plan.
//!
//! The paper's premise is elastic, revocable cloud resources (spot
//! instances, S3 over a WAN), so the middleware must treat *slaves dying
//! mid-job*, *whole sites being revoked mid-run*, and *bursty transient
//! storage errors* as ordinary events rather than aborts. Everything in this
//! module is pure data + deterministic arithmetic: the threaded runtime, the
//! TCP deployment mode, and the discrete-event simulator all consume the
//! same [`FaultPlan`], which is what makes failure experiments replayable —
//! the same seed produces the same faults, in virtual or real time.

use crate::types::{ChunkId, Seconds, SiteId};
use serde::{Deserialize, Serialize};

/// How job leases are sized (pool-clock seconds).
///
/// Every granted job carries a deadline. Until the head has observed a
/// site's processing rate the deadline is `now + base`; afterwards it is
/// `now + clamp(multiplier × ewma_job_duration(site), min, max)`, so slow
/// sites get proportionally longer leases and a dead worker's jobs are
/// reclaimed after a few multiples of a *normal* job, not a worst-case
/// constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaseConfig {
    /// Lease length before any duration sample exists for the site.
    pub base: Seconds,
    /// Multiple of the site's observed mean job duration.
    pub multiplier: f64,
    /// Shortest lease ever granted.
    pub min: Seconds,
    /// Longest lease ever granted.
    pub max: Seconds,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { base: 30.0, multiplier: 4.0, min: 0.5, max: 300.0 }
    }
}

impl LeaseConfig {
    /// The lease duration for a site whose mean job duration is `ewma`
    /// (`None` until the first completion).
    #[must_use]
    pub fn lease_for(&self, ewma: Option<Seconds>) -> Seconds {
        match ewma {
            Some(d) => (self.multiplier * d).clamp(self.min, self.max),
            None => self.base,
        }
    }
}

/// Master → head liveness beacons (real wall-clock seconds).
///
/// Any frame from a master is a beacon; an idle master sends an `AckBatch`
/// with no reports that asks for nothing, on either transport, and its reply
/// brings the site's pending revocation notices. A site silent for longer
/// than `timeout` is declared dead and evacuated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatConfig {
    /// How often a master beacons when otherwise idle.
    pub interval: Seconds,
    /// Silence after which the head evacuates the site.
    pub timeout: Seconds,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig { interval: 0.5, timeout: 2.0 }
    }
}

/// One site revoked at a point in time (a "spot revocation").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteOutage {
    /// The site that dies.
    pub site: SiteId,
    /// Seconds after the run starts (virtual time in the simulator, real
    /// time in the threaded runtimes).
    pub at: Seconds,
}

/// One worker slowed down — the straggler generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowWorker {
    /// Site of the slowed worker.
    pub site: SiteId,
    /// Worker index within the site (`0..cores`).
    pub worker: u32,
    /// Extra seconds this worker spends per job.
    pub delay_per_job: Seconds,
}

/// A whole site degraded by a rate factor — the site-wide straggler
/// generator the coded-redundancy ablation injects.
///
/// Unlike [`SlowWorker`]'s additive per-job delay, a slow site multiplies
/// every fetch and processing duration at the site by `factor`, modelling a
/// congested WAN link or an oversubscribed cloud zone rather than one bad
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowSite {
    /// The degraded site.
    pub site: SiteId,
    /// Multiplier on the site's fetch/process durations (`>= 1.0` slows it
    /// down; `1.0` is a no-op).
    pub factor: f64,
}

/// One worker that dies after taking its n-th job.
///
/// The crash happens *on take*: the worker exits holding a granted,
/// unreported job, which only lease reaping can recover. Work the worker
/// already completed (and had acknowledged) stays merged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerCrash {
    /// Site of the crashing worker.
    pub site: SiteId,
    /// Worker index within the site (`0..cores`).
    pub worker: u32,
    /// How many jobs the worker finishes before dying on its next take.
    pub after_jobs: u64,
}

/// A seeded, fully deterministic fault-injection plan.
///
/// The plan is data; each runtime interprets it at its own notion of time.
/// Replaying the same plan against the same environment produces the same
/// faults — and in the simulator, bit-identical reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision in the plan.
    pub seed: u64,
    /// Probability that any single storage range read fails transiently
    /// (connection reset). Decided per `(file, offset, attempt)`, so retries
    /// of the same range re-roll deterministically.
    pub storage_error_rate: f64,
    /// Cap on consecutive injected failures for one range, so a bounded
    /// retry budget always eventually succeeds. Zero means unlimited.
    pub storage_max_consecutive: u32,
    /// At most one whole-site revocation.
    pub site_outage: Option<SiteOutage>,
    /// Workers slowed per job (straggler injection).
    pub slow_workers: Vec<SlowWorker>,
    /// Whole sites degraded by a rate factor (site-wide stragglers).
    #[serde(default)]
    pub slow_sites: Vec<SlowSite>,
    /// Workers that crash after n jobs.
    pub worker_crash: Vec<WorkerCrash>,
}

impl FaultPlan {
    /// An empty plan with a seed: no faults until fields are filled in.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, storage_max_consecutive: 2, ..FaultPlan::default() }
    }

    /// True when the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storage_error_rate <= 0.0
            && self.site_outage.is_none()
            && self.slow_workers.is_empty()
            && self.slow_sites.iter().all(|s| s.factor <= 1.0)
            && self.worker_crash.is_empty()
    }

    /// Whether `site` is revoked at time `now`.
    #[must_use]
    pub fn site_dead(&self, site: SiteId, now: Seconds) -> bool {
        matches!(self.site_outage, Some(o) if o.site == site && now >= o.at)
    }

    /// Extra per-job delay for `worker` at `site` (0 when not slowed).
    #[must_use]
    pub fn worker_delay(&self, site: SiteId, worker: u32) -> Seconds {
        self.slow_workers
            .iter()
            .find(|s| s.site == site && s.worker == worker)
            .map_or(0.0, |s| s.delay_per_job)
    }

    /// The rate factor degrading `site` (1.0 when not slowed).
    #[must_use]
    pub fn site_slowdown(&self, site: SiteId) -> f64 {
        self.slow_sites.iter().find(|s| s.site == site).map_or(1.0, |s| s.factor.max(1.0))
    }

    /// After how many jobs `worker` at `site` crashes (None = never).
    #[must_use]
    pub fn crash_after(&self, site: SiteId, worker: u32) -> Option<u64> {
        self.worker_crash
            .iter()
            .find(|c| c.site == site && c.worker == worker)
            .map(|c| c.after_jobs)
    }

    /// Deterministic verdict: does the `attempt`-th read of the range at
    /// `(file, offset)` fail transiently under this plan?
    #[must_use]
    pub fn storage_read_fails(&self, file: u32, offset: u64, attempt: u32) -> bool {
        if self.storage_error_rate <= 0.0 {
            return false;
        }
        if self.storage_max_consecutive > 0 && attempt >= self.storage_max_consecutive {
            return false;
        }
        let h = det_hash(&[self.seed, 0x5707_AE5E, u64::from(file), offset, u64::from(attempt)]);
        det_unit(h) < self.storage_error_rate
    }
}

/// Mix words into one deterministic 64-bit hash (splitmix64 over a fold).
/// Shared by the chaos layer and the storage retry jitter so every
/// probabilistic decision is a pure function of the plan seed.
#[must_use]
pub fn det_hash(words: &[u64]) -> u64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        state ^= w.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = z ^ (z >> 31);
    }
    state
}

/// Map a hash to the unit interval `[0, 1)`.
#[must_use]
pub fn det_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A job permanently given up, with the site that last failed it (None when
/// it was never assigned, e.g. stranded by a total evacuation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbandonedJob {
    /// The abandoned chunk.
    pub chunk: ChunkId,
    /// The site whose failure (or death) doomed it, when known.
    pub last_site: Option<SiteId>,
}

impl std::fmt::Display for AbandonedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.last_site {
            Some(s) => write!(f, "{} (last failed by {s})", self.chunk),
            None => write!(f, "{} (never assigned)", self.chunk),
        }
    }
}

/// Fault-tolerance accounting the pool maintains; lands in
/// [`RunReport`](crate::stats::RunReport) and [`HeadReport`]s so failure
/// experiments can assert exactly what happened.
///
/// The exactly-once invariant is checkable from these counters: merged
/// completions equal the chunk count, and every surplus execution shows up
/// in `duplicate_completions`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Leases that expired and were reaped by the head.
    pub lease_expiries: u64,
    /// In-flight assignments revoked by site evacuation.
    pub evacuated_jobs: u64,
    /// Completed jobs whose results died with an evacuated site and were
    /// re-queued for re-execution.
    pub lost_results: u64,
    /// Speculative re-executions granted for straggler jobs.
    pub speculative_grants: u64,
    /// Speculative executions whose result won the completion race and was
    /// the one merged.
    #[serde(default)]
    pub speculative_wins: u64,
    /// Speculative executions released without merging — preempted by the
    /// original worker, reaped, evacuated, or failed.
    #[serde(default)]
    pub speculative_losses: u64,
    /// Replica executions granted under coded redundancy (`r > 1`): an idle
    /// site proactively picked up a copy of a job in flight elsewhere.
    #[serde(default)]
    pub replica_grants: u64,
    /// Replica executions that completed first and were the copy merged.
    #[serde(default)]
    pub replica_wins: u64,
    /// Sibling replica executions fenced (released unmerged) because another
    /// copy of the same chunk completed first.
    #[serde(default)]
    pub replica_fences: u64,
    /// Evacuation-triggered re-executions that read their chunk from a local
    /// replica instead of re-fetching it over the WAN (`r > 1` only).
    #[serde(default)]
    pub saved_refetches: u64,
    /// Completions rejected because another execution already merged the
    /// chunk (or the reporter was already declared dead).
    pub duplicate_completions: u64,
    /// Accepted jobs a slave reduced a second time because a job settled in
    /// the same exchange was refused or revoked: the price of a duplicate
    /// under batched verdicts.
    #[serde(default)]
    pub rereduced_jobs: u64,
    /// Completions accepted from a site whose lease had already been
    /// reaped — the original worker won the race after all.
    pub late_completions: u64,
    /// Jobs permanently abandoned, with the site that last failed each.
    pub abandoned_jobs: Vec<AbandonedJob>,
}

impl FaultCounters {
    /// True when no fault-path event occurred at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.lease_expiries == 0
            && self.evacuated_jobs == 0
            && self.lost_results == 0
            && self.speculative_grants == 0
            && self.speculative_wins == 0
            && self.speculative_losses == 0
            && self.replica_grants == 0
            && self.replica_wins == 0
            && self.replica_fences == 0
            && self.saved_refetches == 0
            && self.duplicate_completions == 0
            && self.rereduced_jobs == 0
            && self.late_completions == 0
            && self.abandoned_jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_hash_is_stable_and_sensitive() {
        let a = det_hash(&[1, 2, 3]);
        assert_eq!(a, det_hash(&[1, 2, 3]), "same words, same hash");
        assert_ne!(a, det_hash(&[1, 2, 4]));
        assert_ne!(a, det_hash(&[3, 2, 1]));
        let u = det_unit(a);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn lease_scales_with_observed_rate() {
        let c = LeaseConfig { base: 30.0, multiplier: 4.0, min: 0.5, max: 10.0 };
        assert_eq!(c.lease_for(None), 30.0);
        assert_eq!(c.lease_for(Some(1.0)), 4.0);
        assert_eq!(c.lease_for(Some(0.01)), 0.5, "clamped to min");
        assert_eq!(c.lease_for(Some(100.0)), 10.0, "clamped to max");
    }

    #[test]
    fn storage_failures_are_deterministic_and_bounded() {
        let mut plan = FaultPlan::seeded(7);
        plan.storage_error_rate = 0.5;
        plan.storage_max_consecutive = 2;
        let mut failures = 0;
        for file in 0..64u32 {
            for attempt in 0..4u32 {
                let v = plan.storage_read_fails(file, 0, attempt);
                assert_eq!(v, plan.storage_read_fails(file, 0, attempt), "deterministic");
                if attempt >= 2 {
                    assert!(!v, "capped after max_consecutive attempts");
                }
                failures += u64::from(v);
            }
        }
        assert!(failures > 0, "a 50% rate must fail somewhere in 128 rolls");
    }

    #[test]
    fn site_outage_applies_from_its_time() {
        let plan = FaultPlan {
            site_outage: Some(SiteOutage { site: SiteId::CLOUD, at: 2.0 }),
            ..FaultPlan::seeded(1)
        };
        assert!(!plan.site_dead(SiteId::CLOUD, 1.9));
        assert!(plan.site_dead(SiteId::CLOUD, 2.0));
        assert!(!plan.site_dead(SiteId::LOCAL, 5.0));
    }

    #[test]
    fn worker_lookups_match_specs() {
        let plan = FaultPlan {
            slow_workers: vec![SlowWorker { site: SiteId::LOCAL, worker: 1, delay_per_job: 0.5 }],
            worker_crash: vec![WorkerCrash { site: SiteId::CLOUD, worker: 0, after_jobs: 3 }],
            ..FaultPlan::seeded(1)
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.worker_delay(SiteId::LOCAL, 1), 0.5);
        assert_eq!(plan.worker_delay(SiteId::LOCAL, 0), 0.0);
        assert_eq!(plan.crash_after(SiteId::CLOUD, 0), Some(3));
        assert_eq!(plan.crash_after(SiteId::CLOUD, 1), None);
        assert!(FaultPlan::seeded(9).is_empty());
    }

    #[test]
    fn site_slowdown_defaults_to_unity_and_clamps_below_one() {
        let plan = FaultPlan {
            slow_sites: vec![
                SlowSite { site: SiteId::CLOUD, factor: 4.0 },
                SlowSite { site: SiteId::LOCAL, factor: 0.5 },
            ],
            ..FaultPlan::seeded(2)
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.site_slowdown(SiteId::CLOUD), 4.0);
        assert_eq!(plan.site_slowdown(SiteId::LOCAL), 1.0, "speedups are clamped away");
        assert_eq!(plan.site_slowdown(SiteId(7)), 1.0);
        // A no-op slowdown alone leaves the plan empty.
        let noop = FaultPlan {
            slow_sites: vec![SlowSite { site: SiteId::CLOUD, factor: 1.0 }],
            ..FaultPlan::seeded(2)
        };
        assert!(noop.is_empty());
    }
}
