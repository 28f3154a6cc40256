//! Three-provider cloud bursting (paper §II: the solution "will also be
//! applicable if the data and/or processing power is spread across two
//! different cloud providers").
//!
//! A campus cluster plus two cloud providers with different compute,
//! storage, and pricing profiles hold 20/40/40% of a 12 GB dataset. The
//! example simulates pagerank across all three, shows how the scheduler
//! balances them, and prices each provider's share.
//!
//! ```text
//! cargo run --release --example tri_cloud
//! ```

use cloudburst_core::SiteId;
use cloudburst_netsim::LinkSpec;
use cloudburst_sim::{simulate_multi, AppModel, MultiEnv, ResourceSpec, SimParams, SiteSpec};

fn main() {
    let p = SimParams::paper();
    let app = AppModel::pagerank();

    let provider_b = SiteSpec {
        site: SiteId(2),
        cores: 16,
        cores_per_slave: 2,  // smaller instances
        compute_factor: 1.5, // slower cores
        jitter: 0.2,         // noisier neighborhood
        store: ResourceSpec { channels: 16, link: LinkSpec::new(80e-3, 30e6) },
        data_fraction: 0.4,
    };

    let env = MultiEnv {
        name: "tri-cloud".into(),
        sites: vec![
            SiteSpec {
                site: SiteId::LOCAL,
                cores: 16,
                cores_per_slave: p.local_cores_per_slave,
                compute_factor: 1.0,
                jitter: p.local_jitter,
                store: p.cluster_disk,
                data_fraction: 0.2,
            },
            SiteSpec {
                site: SiteId::CLOUD,
                cores: 16,
                cores_per_slave: p.cloud_cores_per_slave,
                compute_factor: app.cloud_compute_factor,
                jitter: p.cloud_jitter,
                store: p.s3,
                data_fraction: 0.4,
            },
            provider_b,
        ],
        wan: p.wan_bulk,
        control_latency: p.control_latency,
        robj_stream_bw: p.robj_stream_bw,
        merge_bw: p.merge_bw,
        seed: p.seed,
        dataset_bytes: p.dataset_bytes,
        n_files: p.n_files,
        n_chunks: p.n_chunks,
        rate_aware_stealing: true,
        chaos: None,
        speculation: false,
        redundancy: 1,
    };

    println!(
        "pagerank over 12 GB split 20/40/40 across cluster + two cloud providers\n\
         (16 cores each; provider B has smaller, slower, noisier instances)\n"
    );
    let report = simulate_multi(&app, &env);
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "site", "jobs", "stolen", "proc (s)", "retr (s)", "sync", "idle"
    );
    for (site, s) in &report.sites {
        println!(
            "{:<8} {:>6} {:>8} {:>10.1} {:>10.1} {:>8.1} {:>8.1}",
            site.to_string(),
            s.jobs.total(),
            s.jobs.stolen,
            s.breakdown.processing,
            s.breakdown.retrieval,
            s.breakdown.sync,
            s.idle
        );
    }
    println!(
        "\nglobal reduction {:.2}s (two remote sites exchange {} KB robjs)",
        report.global_reduction,
        app.robj_bytes / 1000
    );
    println!("total {:.1}s", report.total_time);

    // Compare against keeping everything on two sites.
    let two_site = {
        let mut e = env.clone();
        e.name = "cluster+aws only".into();
        e.sites.truncate(2);
        e.sites[0].data_fraction = 0.2;
        e.sites[1].data_fraction = 0.8;
        simulate_multi(&app, &e)
    };
    println!(
        "\nfor comparison, the same 32 cloud-ish cores concentrated on one provider: {:.1}s",
        two_site.total_time
    );
    let faster =
        if report.total_time < two_site.total_time { "three-provider" } else { "two-provider" };
    println!("-> {faster} layout wins for this profile");
}
