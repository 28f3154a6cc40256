//! The paper-scale cloud-bursting scenario as a discrete-event simulation.
//!
//! The paper's two sites over [`crate::multi`], which runs the **exact**
//! protocol code the threaded runtime does — one
//! [`HeadCore`](cloudburst_cluster::HeadCore) over the [`JobPool`](cloudburst_core::JobPool), a
//! [`MasterPool`](cloudburst_core::MasterPool) per site and a [`SlaveCore`](cloudburst_core::SlaveCore) per slave —
//! against the cost model of [`crate::params`]. Every slave is an event-
//! driven actor: pull a job (paying control RPCs when the master refills),
//! occupy a storage channel for the chunk (plus the WAN pipe when the job
//! was stolen across sites), then compute for `units × cost × site-factor ×
//! jitter` seconds. The output is a [`RunReport`] in exactly the shape of
//! the paper's Figures 3–4 and Tables I–II.

use crate::model::AppModel;
use crate::params::SimParams;
use cloudburst_core::{EnvConfig, RunReport};

/// Simulate one run of `app` under `env` on the testbed `params`.
///
/// Deterministic: same inputs → identical report.
///
/// # Panics
/// Panics when the dataset is too small to form one chunk (misuse of the
/// harness, not a runtime condition).
#[must_use]
pub fn simulate(app: &AppModel, env: &EnvConfig, params: &SimParams) -> RunReport {
    crate::multi::simulate_multi(app, &crate::multi::MultiEnv::two_site(env, app, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::config::{paper_envs_even, scalability_envs};

    fn fast_params() -> SimParams {
        // The DES walks the same 96-job schedule regardless of dataset
        // size, so even full scale runs in microseconds of CPU.
        SimParams::paper()
    }

    #[test]
    fn simulation_is_deterministic() {
        let app = AppModel::knn();
        let env = EnvConfig::new("env-33/67", 0.33, 16, 16);
        let a = simulate(&app, &env, &fast_params());
        let b = simulate(&app, &env, &fast_params());
        assert_eq!(a, b);
    }

    #[test]
    fn every_job_is_processed_once() {
        for env in paper_envs_even(32) {
            let r = simulate(&AppModel::pagerank(), &env, &fast_params());
            assert_eq!(r.total_jobs(), 96, "{}", env.name);
        }
    }

    #[test]
    fn centralized_envs_have_no_stealing_and_no_idle() {
        let app = AppModel::knn();
        for env in &paper_envs_even(32)[..2] {
            let r = simulate(&app, env, &fast_params());
            assert_eq!(r.total_stolen(), 0, "{}", env.name);
            assert_eq!(r.sites.len(), 1);
            let s = r.sites.values().next().unwrap();
            assert_eq!(s.idle, 0.0);
        }
    }

    #[test]
    fn skew_increases_stealing() {
        let app = AppModel::knn();
        let envs = paper_envs_even(32);
        let stolen: Vec<u64> =
            envs[2..].iter().map(|e| simulate(&app, e, &fast_params()).total_stolen()).collect();
        assert!(
            stolen[0] <= stolen[1] && stolen[1] <= stolen[2],
            "stealing must grow with skew: {stolen:?}"
        );
        assert!(stolen[2] > 0, "env-17/83 must steal");
    }

    #[test]
    fn hybrid_runs_are_slower_than_local_baseline() {
        let app = AppModel::knn();
        let envs = paper_envs_even(32);
        let base = simulate(&app, &envs[0], &fast_params());
        for env in &envs[2..] {
            let r = simulate(&app, env, &fast_params());
            assert!(
                r.total_time >= base.total_time * 0.95,
                "{} ({}s) should not beat env-local ({}s) materially",
                env.name,
                r.total_time,
                base.total_time
            );
        }
    }

    #[test]
    fn slowdown_grows_with_skew() {
        let app = AppModel::knn();
        let envs = paper_envs_even(32);
        let base = simulate(&app, &envs[0], &fast_params());
        let ratios: Vec<f64> = envs[2..]
            .iter()
            .map(|e| simulate(&app, e, &fast_params()).slowdown_ratio_vs(&base))
            .collect();
        assert!(ratios[0] < ratios[1] && ratios[1] < ratios[2], "{ratios:?}");
    }

    #[test]
    fn pagerank_global_reduction_dwarfs_knn() {
        let env = EnvConfig::new("env-50/50", 0.5, 16, 16);
        let knn = simulate(&AppModel::knn(), &env, &fast_params());
        let pr = simulate(&AppModel::pagerank(), &env, &fast_params());
        assert!(
            pr.global_reduction > 10.0 * knn.global_reduction,
            "pagerank {} vs knn {}",
            pr.global_reduction,
            knn.global_reduction
        );
    }

    #[test]
    fn more_cores_scale_kmeans_well() {
        let app = AppModel::kmeans();
        let envs = scalability_envs(&[4, 8, 16]);
        let times: Vec<f64> =
            envs.iter().map(|e| simulate(&app, e, &fast_params()).total_time).collect();
        let e1 = cloudburst_core::doubling_efficiency(times[0], times[1]);
        let e2 = cloudburst_core::doubling_efficiency(times[1], times[2]);
        assert!(e1 > 0.7 && e2 > 0.7, "kmeans efficiencies {e1} {e2}");
    }

    #[test]
    fn breakdown_components_are_nonnegative_and_sum() {
        let r = simulate(
            &AppModel::pagerank(),
            &EnvConfig::new("env-17/83", 0.17, 16, 16),
            &fast_params(),
        );
        for (site, s) in &r.sites {
            assert!(s.breakdown.processing > 0.0, "{site}");
            assert!(s.breakdown.retrieval > 0.0, "{site}");
            assert!(s.breakdown.sync >= 0.0, "{site}");
            assert!(s.finish_time <= r.total_time);
        }
    }
}
