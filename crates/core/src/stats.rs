//! Execution statistics in the exact shape the paper reports.
//!
//! Figures 3 and 4 decompose overall execution time into **processing**,
//! **data retrieval**, and **sync**; Table II additionally reports the
//! **global reduction** time, per-site **idle** time, and the **total
//! slowdown** vs. the centralized baseline; Table I reports per-site job
//! counts including stolen jobs.

use crate::fault::FaultCounters;
use crate::json::Json;
use crate::pool::SiteJobCounts;
use crate::types::{Seconds, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Stacked-bar decomposition of one site's (or one run's) execution time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Time spent in the reduction layer (`proc(e)` over unit groups).
    pub processing: Seconds,
    /// Time spent reading/retrieving chunks (local disk or remote store).
    pub retrieval: Seconds,
    /// Barrier wait + reduction-object exchange + waiting for the other
    /// cluster to finish ("sync. time" in the figures).
    pub sync: Seconds,
}

impl Breakdown {
    /// Total execution time represented by this breakdown.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.processing + self.retrieval + self.sync
    }

    /// Fraction of total time spent in sync (paper quotes e.g. "0.1% to
    /// 0.3%" for knn scalability).
    #[must_use]
    pub fn sync_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.sync / t
        } else {
            0.0
        }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.processing += rhs.processing;
        self.retrieval += rhs.retrieval;
        self.sync += rhs.sync;
    }
}

/// Everything measured for one site during one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteStats {
    /// Per-core-averaged breakdown for the site's stacked bar.
    pub breakdown: Breakdown,
    /// Wall-clock (or virtual) time from start until the site finished its
    /// last job and local combination.
    pub finish_time: Seconds,
    /// Time the site idled at the end waiting for the other cluster
    /// (Table II "Idle Time").
    pub idle: Seconds,
    /// Jobs processed, split into local vs stolen (Table I).
    pub jobs: SiteJobCounts,
    /// Bytes fetched from remote storage by this site's workers.
    pub remote_bytes: u64,
    /// Transient storage-read failures this site's workers absorbed by
    /// retrying below the chunk level (never surfaced to the head).
    pub retries: u64,
}

/// The complete result record for one run — one bar of Fig. 3/4 plus its
/// rows in Tables I and II.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Label of the environment configuration (e.g. `env-33/67`).
    pub env: String,
    /// Per-site statistics.
    pub sites: BTreeMap<SiteId, SiteStats>,
    /// Elapsed time of the global reduction phase (Table II).
    pub global_reduction: Seconds,
    /// End-to-end execution time.
    pub total_time: Seconds,
    /// Fault-tolerance accounting: lease expiries, evacuations, speculative
    /// re-executions, deduplicated completions. All-zero on a clean run.
    pub faults: FaultCounters,
}

impl RunReport {
    /// The overall stacked-bar breakdown: the maximum-finishing site's bar
    /// plus the global reduction folded into sync, which is how the paper's
    /// figures present a run.
    #[must_use]
    pub fn overall_breakdown(&self) -> Breakdown {
        let mut b = self
            .sites
            .values()
            .max_by(|a, b| a.finish_time.total_cmp(&b.finish_time))
            .map(|s| s.breakdown)
            .unwrap_or_default();
        b.sync += self.global_reduction;
        b
    }

    /// Total slowdown of this run relative to a baseline run (Table II),
    /// in seconds: `self.total_time - baseline.total_time`.
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunReport) -> Seconds {
        self.total_time - baseline.total_time
    }

    /// Slowdown as a fraction of the baseline total (paper: "the ratios of
    /// total slowdown with respect to the total execution times are 1.7%,
    /// 15.4% and 45.9%...").
    #[must_use]
    pub fn slowdown_ratio_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.total_time > 0.0 {
            (self.total_time - baseline.total_time) / baseline.total_time
        } else {
            0.0
        }
    }

    /// Total jobs processed across sites.
    #[must_use]
    pub fn total_jobs(&self) -> u64 {
        self.sites.values().map(|s| s.jobs.total()).sum()
    }

    /// Total stolen jobs across sites.
    #[must_use]
    pub fn total_stolen(&self) -> u64 {
        self.sites.values().map(|s| s.jobs.stolen).sum()
    }

    /// Total transient storage-read retries absorbed below the chunk level
    /// across sites.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.sites.values().map(|s| s.retries).sum()
    }
}

/// Scaling efficiency between a run on `n` cores and a run on `2n` cores:
/// `t_n / (2 * t_2n)`. A value of 1.0 is perfect linear scaling; the paper
/// reports an average of 81% per core-doubling.
#[must_use]
pub fn doubling_efficiency(t_small: Seconds, t_double: Seconds) -> f64 {
    if t_double > 0.0 {
        t_small / (2.0 * t_double)
    } else {
        0.0
    }
}

/// One slave's ledger, feeding [`assemble_sites`]: the fold of the slave's
/// own events by [`SlaveSample::apply`], the same function on a live slave
/// and in [`derive_report`](crate::telemetry::derive_report).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlaveSample {
    /// Seconds the slave spent in the reduction layer.
    pub processing: Seconds,
    /// Seconds the slave spent retrieving chunks.
    pub retrieval: Seconds,
    /// Run-clock time at which the slave processed its last job and exited.
    pub finish: Seconds,
    /// Bytes the slave fetched from remote storage.
    pub remote_bytes: u64,
    /// Bytes the slave fetched, from any store.
    pub fetched_bytes: u64,
    /// WAN-class fetches the slave made (`telemetry::wan_class`).
    pub wan_fetches: u64,
    /// Seconds the slave's WAN-class fetches took.
    pub wan_secs: Seconds,
    /// Transient storage-read failures absorbed under the slave's fetches.
    pub retries: u64,
    /// Accepted jobs the slave reduced a second time because a job settled
    /// in the same exchange was not.
    pub rereduced: u64,
    /// Jobs the slave fully decoded and reduced.
    pub jobs: u64,
    /// Answers with jobs the slave heard from its master.
    pub hand_offs: u64,
    /// Jobs those answers brought.
    pub handed: u64,
    /// Exchanges in which the slave reported open jobs for verdicts.
    pub settles: u64,
    /// Jobs those exchanges reported.
    pub settled: u64,
    /// Granted jobs the slave dropped unprocessed because their execution
    /// was revoked.
    pub dropped: u64,
}

/// Raw per-site measurements feeding [`assemble_sites`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSample {
    /// One sample per slave thread at the site.
    pub slaves: Vec<SlaveSample>,
    /// Seconds the site spent combining its workers' objects into one.
    pub local_merge: Seconds,
    /// Run-clock time at which the site finished everything, local
    /// combination included.
    pub finish: Seconds,
    /// Jobs the site was credited with (local vs stolen).
    pub jobs: SiteJobCounts,
}

/// Assemble per-site [`SiteStats`] from raw samples — the single place the
/// paper's time decomposition is computed.
///
/// Per site: `processing` and `retrieval` are per-core means; `sync` is the
/// mean intra-site barrier (waiting for the slowest sibling slave) plus the
/// local combination plus the end-of-run idle wait for the slowest *site*.
/// The site's remote bytes and retries are its slaves' summed. Both threaded
/// runtimes, the simulator and the telemetry aggregator
/// ([`crate::telemetry::derive_report`]) come here through
/// [`assemble_report`].
#[must_use]
pub fn assemble_sites(samples: &BTreeMap<SiteId, SiteSample>) -> BTreeMap<SiteId, SiteStats> {
    let compute_finish = samples.values().map(|s| s.finish).fold(0.0_f64, f64::max);
    let mut sites = BTreeMap::new();
    for (&site, sample) in samples {
        let n = sample.slaves.len().max(1) as f64;
        let site_compute_finish = sample.slaves.iter().map(|s| s.finish).fold(0.0_f64, f64::max);
        let mean_proc = sample.slaves.iter().map(|s| s.processing).sum::<f64>() / n;
        let mean_retr = sample.slaves.iter().map(|s| s.retrieval).sum::<f64>() / n;
        // Intra-site barrier: the average wait for the slowest sibling.
        let mean_barrier =
            sample.slaves.iter().map(|s| site_compute_finish - s.finish).sum::<f64>() / n;
        let idle = compute_finish - sample.finish;
        sites.insert(
            site,
            SiteStats {
                breakdown: Breakdown {
                    processing: mean_proc,
                    retrieval: mean_retr,
                    sync: mean_barrier + sample.local_merge + idle,
                },
                finish_time: sample.finish,
                idle,
                jobs: sample.jobs,
                remote_bytes: sample.slaves.iter().map(|s| s.remote_bytes).sum(),
                retries: sample.slaves.iter().map(|s| s.retries).sum(),
            },
        );
    }
    sites
}

/// The run report from the pool's fault ledger and the per-site samples —
/// the last step of the live runtimes and of
/// [`derive_report`](crate::telemetry::derive_report) alike. Re-reduced jobs
/// are the one fault-path number the slaves keep, not the pool: it is summed
/// from their samples here.
#[must_use]
pub fn assemble_report(
    env: &str,
    mut faults: FaultCounters,
    samples: &BTreeMap<SiteId, SiteSample>,
    global_reduction: Seconds,
    total_time: Seconds,
) -> RunReport {
    faults.rereduced_jobs = samples.values().flat_map(|s| &s.slaves).map(|s| s.rereduced).sum();
    RunReport {
        env: env.to_owned(),
        sites: assemble_sites(samples),
        global_reduction,
        total_time,
        faults,
    }
}

/// Serialize a [`Breakdown`] as a JSON object.
#[must_use]
pub fn breakdown_to_json(b: &Breakdown) -> Json {
    Json::obj()
        .field("processing", Json::F64(b.processing))
        .field("retrieval", Json::F64(b.retrieval))
        .field("sync", Json::F64(b.sync))
}

/// Serialize [`FaultCounters`] as a JSON object.
#[must_use]
pub fn faults_to_json(f: &FaultCounters) -> Json {
    let abandoned = f
        .abandoned_jobs
        .iter()
        .map(|a| {
            Json::obj()
                .field("chunk", Json::U64(u64::from(a.chunk.0)))
                .field("last_site", a.last_site.map_or(Json::Null, |s| Json::Str(s.to_string())))
        })
        .collect();
    Json::obj()
        .field("lease_expiries", Json::U64(f.lease_expiries))
        .field("evacuated_jobs", Json::U64(f.evacuated_jobs))
        .field("lost_results", Json::U64(f.lost_results))
        .field("speculative_grants", Json::U64(f.speculative_grants))
        .field("speculative_wins", Json::U64(f.speculative_wins))
        .field("speculative_losses", Json::U64(f.speculative_losses))
        .field("replica_grants", Json::U64(f.replica_grants))
        .field("replica_wins", Json::U64(f.replica_wins))
        .field("replica_fences", Json::U64(f.replica_fences))
        .field("saved_refetches", Json::U64(f.saved_refetches))
        .field("duplicate_completions", Json::U64(f.duplicate_completions))
        .field("rereduced_jobs", Json::U64(f.rereduced_jobs))
        .field("late_completions", Json::U64(f.late_completions))
        .field("abandoned", Json::Arr(abandoned))
}

/// Serialize a full [`RunReport`] as machine-readable JSON — the payload of
/// the CLI's `--stats-out` and the bench figure artifacts.
#[must_use]
pub fn report_to_json(r: &RunReport) -> Json {
    let sites = r
        .sites
        .iter()
        .map(|(site, s)| {
            Json::obj()
                .field("site", Json::Str(site.to_string()))
                .field("breakdown", breakdown_to_json(&s.breakdown))
                .field("finish_time", Json::F64(s.finish_time))
                .field("idle", Json::F64(s.idle))
                .field("jobs_local", Json::U64(s.jobs.local))
                .field("jobs_stolen", Json::U64(s.jobs.stolen))
                .field("remote_bytes", Json::U64(s.remote_bytes))
                .field("retries", Json::U64(s.retries))
        })
        .collect();
    Json::obj()
        .field("env", Json::Str(r.env.clone()))
        .field("total_time", Json::F64(r.total_time))
        .field("global_reduction", Json::F64(r.global_reduction))
        .field("overall", breakdown_to_json(&r.overall_breakdown()))
        .field("total_jobs", Json::U64(r.total_jobs()))
        .field("total_stolen", Json::U64(r.total_stolen()))
        .field("total_retries", Json::U64(r.total_retries()))
        .field("sites", Json::Arr(sites))
        .field("faults", faults_to_json(&r.faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(finish: Seconds, proc_: Seconds, retr: Seconds, sync: Seconds) -> SiteStats {
        SiteStats {
            breakdown: Breakdown { processing: proc_, retrieval: retr, sync },
            finish_time: finish,
            ..SiteStats::default()
        }
    }

    #[test]
    fn breakdown_total_and_sync_fraction() {
        let b = Breakdown { processing: 6.0, retrieval: 3.0, sync: 1.0 };
        assert_eq!(b.total(), 10.0);
        assert!((b.sync_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(Breakdown::default().sync_fraction(), 0.0);
    }

    #[test]
    fn breakdown_add_assign_accumulates() {
        let mut a = Breakdown { processing: 1.0, retrieval: 2.0, sync: 3.0 };
        a += Breakdown { processing: 0.5, retrieval: 0.5, sync: 0.5 };
        assert_eq!(a.total(), 7.5);
    }

    #[test]
    fn overall_breakdown_uses_slowest_site_plus_global_reduction() {
        let mut r = RunReport { global_reduction: 2.0, ..RunReport::default() };
        r.sites.insert(SiteId::LOCAL, stats(10.0, 7.0, 2.0, 1.0));
        r.sites.insert(SiteId::CLOUD, stats(12.0, 5.0, 6.0, 1.0));
        let b = r.overall_breakdown();
        assert_eq!(b.processing, 5.0); // cloud site finished last
        assert_eq!(b.sync, 3.0); // 1.0 + global reduction
    }

    #[test]
    fn slowdown_ratio_matches_definition() {
        let base = RunReport { total_time: 100.0, ..RunReport::default() };
        let run = RunReport { total_time: 115.5, ..RunReport::default() };
        assert!((run.slowdown_vs(&base) - 15.5).abs() < 1e-12);
        assert!((run.slowdown_ratio_vs(&base) - 0.155).abs() < 1e-12);
    }

    #[test]
    fn slowdown_ratio_of_zero_baseline_is_zero() {
        let base = RunReport::default();
        let run = RunReport { total_time: 5.0, ..RunReport::default() };
        assert_eq!(run.slowdown_ratio_vs(&base), 0.0);
    }

    #[test]
    fn job_totals_aggregate_sites() {
        let mut r = RunReport::default();
        r.sites.insert(
            SiteId::LOCAL,
            SiteStats { jobs: SiteJobCounts { local: 48, stolen: 9 }, ..SiteStats::default() },
        );
        r.sites.insert(
            SiteId::CLOUD,
            SiteStats { jobs: SiteJobCounts { local: 39, stolen: 0 }, ..SiteStats::default() },
        );
        assert_eq!(r.total_jobs(), 96);
        assert_eq!(r.total_stolen(), 9);
    }

    #[test]
    fn doubling_efficiency_is_one_for_perfect_scaling() {
        assert!((doubling_efficiency(10.0, 5.0) - 1.0).abs() < 1e-12);
        // 81% efficiency: doubling cores gives 1.62x speedup.
        assert!((doubling_efficiency(10.0, 10.0 / 1.62) - 0.81).abs() < 1e-12);
        assert_eq!(doubling_efficiency(10.0, 0.0), 0.0);
    }

    fn slave(processing: Seconds, retrieval: Seconds, finish: Seconds) -> SlaveSample {
        SlaveSample { processing, retrieval, finish, ..SlaveSample::default() }
    }

    #[test]
    fn assemble_sites_computes_the_paper_decomposition() {
        let mut samples = BTreeMap::new();
        samples.insert(
            SiteId::LOCAL,
            SiteSample {
                slaves: vec![
                    SlaveSample { remote_bytes: 256, ..slave(4.0, 1.0, 8.0) },
                    SlaveSample { retries: 2, ..slave(6.0, 3.0, 10.0) },
                ],
                local_merge: 0.5,
                finish: 10.5,
                jobs: SiteJobCounts { local: 5, stolen: 1 },
            },
        );
        samples.insert(
            SiteId::CLOUD,
            SiteSample {
                slaves: vec![slave(2.0, 9.0, 11.0)],
                local_merge: 0.0,
                finish: 12.0,
                jobs: SiteJobCounts { local: 4, stolen: 0 },
            },
        );
        let sites = assemble_sites(&samples);
        let local = &sites[&SiteId::LOCAL];
        assert!((local.breakdown.processing - 5.0).abs() < 1e-12, "mean over 2 slaves");
        assert!((local.breakdown.retrieval - 2.0).abs() < 1e-12);
        // barrier = ((10-8)+(10-10))/2 = 1.0; idle = 12 - 10.5 = 1.5.
        assert!((local.idle - 1.5).abs() < 1e-12);
        assert!((local.breakdown.sync - (1.0 + 0.5 + 1.5)).abs() < 1e-12);
        assert_eq!((local.remote_bytes, local.retries), (256, 2), "summed over the slaves");
        let cloud = &sites[&SiteId::CLOUD];
        assert_eq!(cloud.idle, 0.0, "slowest site never idles");
        assert_eq!(cloud.jobs.total(), 4);
    }

    #[test]
    fn assemble_sites_tolerates_a_slaveless_site() {
        let mut samples = BTreeMap::new();
        samples.insert(SiteId::LOCAL, SiteSample { finish: 1.0, ..SiteSample::default() });
        let sites = assemble_sites(&samples);
        assert_eq!(sites[&SiteId::LOCAL].breakdown.processing, 0.0);
    }

    #[test]
    fn report_json_round_trips_and_carries_the_tables() {
        let mut r = RunReport {
            env: "env-50/50".into(),
            global_reduction: 0.25,
            total_time: 12.5,
            ..RunReport::default()
        };
        r.faults.lease_expiries = 3;
        r.faults.abandoned_jobs = vec![crate::fault::AbandonedJob {
            chunk: crate::types::ChunkId(7),
            last_site: Some(SiteId::CLOUD),
        }];
        r.sites.insert(
            SiteId::LOCAL,
            SiteStats {
                breakdown: Breakdown { processing: 6.0, retrieval: 3.0, sync: 1.0 },
                finish_time: 10.0,
                idle: 0.5,
                jobs: SiteJobCounts { local: 48, stolen: 9 },
                remote_bytes: 4096,
                retries: 2,
            },
        );
        let j = report_to_json(&r);
        let text = j.to_text();
        let back = Json::parse(&text).expect("stats JSON parses");
        assert_eq!(back.get("env").unwrap().as_str(), Some("env-50/50"));
        assert_eq!(back.get("total_jobs").unwrap().as_f64(), Some(57.0));
        let sites = back.get("sites").unwrap().as_arr().unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].get("jobs_stolen").unwrap().as_f64(), Some(9.0));
        let faults = back.get("faults").unwrap();
        assert_eq!(faults.get("lease_expiries").unwrap().as_f64(), Some(3.0));
        let abandoned = faults.get("abandoned").unwrap().as_arr().unwrap();
        assert_eq!(abandoned[0].get("last_site").unwrap().as_str(), Some("cloud"));
    }
}
