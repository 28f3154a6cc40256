//! `repro` — regenerate every table and figure of the paper from the
//! paper-scale simulation.
//!
//! ```text
//! cargo run --release -p cloudburst-bench --bin repro            # everything
//! cargo run --release -p cloudburst-bench --bin repro -- fig3b   # one artifact
//! ```
//!
//! Artifacts: `fig3a` `fig3b` `fig3c` `table1` `table2`
//! `fig4a` `fig4b` `fig4c` `summary` `cost` `trace` `ablation` `runtime`
//! `all` (default: `all`).
//! (`cost` is the time/dollar frontier from the authors' follow-up work,
//! not a figure of the SC'11 paper. `runtime` measures retrieval/compute
//! overlap of the real runtime on this machine, sweeps the makespan
//! attribution per pipeline depth, and rewrites `BENCH_runtime.json`;
//! `all` includes it, so the bench artifact always tracks the tree.)

use cloudburst_sim::figures::print_artifact;
use cloudburst_sim::{
    burst_frontier, simulate_multi, simulate_multi_traced, Activity, AppModel, MultiEnv,
    PricingModel, SimParams,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map_or("all", String::as_str);
    let params = SimParams::paper();

    let apps = AppModel::paper_trio();
    match what {
        "cost" => print_cost(&apps, &params),
        "trace" => print_trace(&params),
        "runtime" => print_runtime(),
        "ablation" => print_ablation(&params),
        "all" => {
            print_artifact("all", &params).expect("`all` is a paper artifact");
            print_cost(&apps, &params);
            print_trace(&params);
            print_ablation(&params);
            print_runtime();
        }
        paper => {
            if let Err(e) = print_artifact(paper, &params) {
                eprintln!("{e}; repro also prints: cost trace ablation runtime");
                std::process::exit(2);
            }
        }
    }
}

fn print_runtime() {
    use cloudburst_bench::overlap::{
        attribution_scenario, attribution_sweep, quantify, s3_heavy_scenario,
        write_runtime_artifact,
    };
    println!("\n=== Runtime overlap — pipelined slaves on the S3Sim-heavy knn scenario ===");
    println!("(real wall clock on this machine, not the paper-scale simulation)\n");
    let sc = s3_heavy_scenario(48, 2);
    let report = quantify(&sc, &[1, 2, 4], 3);
    println!("{:<8} {:>12} {:>10}", "depth", "seconds", "exact?");
    for run in &report.runs {
        println!("{:<8} {:>12.3} {:>10}", run.depth, run.seconds, run.result_ok);
    }
    println!(
        "\nend-to-end speedup, best pipelined depth over serial: {:.2}x  (chunks: {}, cloud cores: {})",
        report.speedup, report.chunks, report.cores
    );

    // Attribution sweep: a fetch-long corridor (p < f < 2p) where the
    // explain verdict must flip from WAN-bound (serial) to compute-bound
    // (pipelined). Traced with a recording sink and analyzed offline.
    println!("\n--- Makespan attribution per depth (single-stream fetch-long corridor) ---");
    let attr_sc = attribution_scenario(24);
    let sweep = attribution_sweep(&attr_sc, &[1, 2, 4]);
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "depth", "makespan", "wan_fetch", "compute", "dominant", "exact?"
    );
    for run in &sweep {
        let attr = &run.analysis.attribution;
        let (dominant, _) = attr.dominant();
        println!(
            "{:<8} {:>11.3}s {:>11.3}s {:>11.3}s {:>14} {:>8}",
            run.depth, attr.makespan, attr.wan_fetch, attr.compute, dominant, run.result_ok
        );
    }

    let out = write_runtime_artifact(&report, &sweep);
    println!("\nwrote {out}");
}

fn print_cost(apps: &[AppModel], params: &SimParams) {
    let pricing = PricingModel::aws_2011();
    println!(
        "\n=== Bursting time/cost frontier (8 local cores, 50% data local, AWS 2011 prices) ==="
    );
    println!(
        "{:<10} {:>11} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "app", "cloud cores", "time (s)", "compute $", "GETs $", "egress $", "total $"
    );
    for app in apps {
        for o in burst_frontier(app, 8, 0.5, &[8, 16, 32, 64], params, &pricing) {
            println!(
                "{:<10} {:>11} {:>10.1} {:>10.2} {:>9.4} {:>9.4} {:>9.2}",
                app.name,
                o.cloud_cores,
                o.time,
                o.cost.compute_cost,
                o.cost.request_cost,
                o.cost.egress_cost,
                o.cost.total()
            );
        }
    }
}

fn print_ablation(params: &SimParams) {
    use cloudburst_sim::figures::envs_for;
    println!(
        "\n=== Ablation — rate-aware stealing (paper: \"considers the rate of processing\") ==="
    );
    println!("hybrid total seconds, naive locality-greedy stealing vs rate-aware:\n");
    println!("{:<10} {:<11} {:>10} {:>12} {:>9}", "app", "env", "naive (s)", "rate-aware", "saved");
    for app in AppModel::paper_trio() {
        for env in envs_for(&app).into_iter().skip(2) {
            let mut naive_env = MultiEnv::two_site(&env, &app, params);
            naive_env.rate_aware_stealing = false;
            let naive = simulate_multi(&app, &naive_env).total_time;
            let aware = simulate_multi(&app, &MultiEnv::two_site(&env, &app, params)).total_time;
            println!(
                "{:<10} {:<11} {:>10.1} {:>12.1} {:>8.1}%",
                app.name,
                env.name,
                naive,
                aware,
                100.0 * (naive - aware) / naive
            );
        }
    }
}

fn print_trace(params: &SimParams) {
    // Per-slave Gantt of the knn env-17/83 run: watch the local cluster (the
    // first two rows) drain its files, then switch to stealing (R-heavy
    // tail) while the cloud streams steadily.
    let app = AppModel::knn();
    let env = cloudburst_core::EnvConfig::new("env-17/83", 0.17, 16, 16);
    let (report, timeline) = simulate_multi_traced(&app, &MultiEnv::two_site(&env, &app, params));
    println!(
        "\n=== Activity trace — knn env-17/83 (rows 0-1: cluster nodes, 2-5: EC2 instances) ==="
    );
    println!("legend: c = control RPC, R = retrieval, P = processing, blank = idle\n");
    print!(
        "{}",
        timeline.gantt(92, |k| match k {
            Activity::Control => 'c',
            Activity::Retrieval => 'R',
            Activity::Compute => 'P',
        })
    );
    let curve = timeline.utilization_curve(23);
    let bars: String = curve
        .iter()
        .map(|&u| match (u * 8.0) as usize {
            0 => ' ',
            1 => '.',
            2 | 3 => ':',
            4 | 5 => '|',
            _ => '#',
        })
        .collect();
    println!("\nfleet utilization over time: [{bars}]  (total {:.1}s)", report.total_time);
}
