//! End-to-end integration: every application, executed by the full threaded
//! cloud-bursting runtime over organized two-site data, must reproduce its
//! serial oracle exactly (knn/kmeans/wordcount) or to floating-point
//! reassociation error (pagerank).

use bytes::Bytes;
use cloudburst_apps::gen::{gen_clustered_points, gen_edges, gen_id_points, gen_words};
use cloudburst_apps::kmeans::{kmeans_oracle, KMeans};
use cloudburst_apps::knn::{knn_oracle, Knn};
use cloudburst_apps::pagerank::PageRank;
use cloudburst_apps::units::{dist2, Point};
use cloudburst_apps::wordcount::{wordcount_oracle, WordCount};
use cloudburst_cluster::{run_hybrid, FtConfig, RunOutcome, RuntimeConfig};
use cloudburst_core::{DataIndex, EnvConfig, LayoutParams, Reduction, SiteId};
use cloudburst_storage::{fraction_placement, organize, ChunkStore, FetchConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn hybrid_setup(
    data: &Bytes,
    unit_size: u32,
    local_frac: f64,
) -> (DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>) {
    let n_files = 6;
    let units = data.len() as u64 / u64::from(unit_size);
    let upc = (units / 18).max(1);
    let params = LayoutParams { unit_size, units_per_chunk: upc, n_files };
    let org = organize(data, params, &mut fraction_placement(local_frac, n_files)).unwrap();
    let stores = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    (org.index, stores)
}

fn run<R: Reduction>(
    app: &R,
    data: &Bytes,
    unit_size: u32,
    local_frac: f64,
    env: EnvConfig,
) -> RunOutcome<R::RObj> {
    run_with(app, data, unit_size, local_frac, RuntimeConfig::new(env, 1e-6))
}

fn run_with<R: Reduction>(
    app: &R,
    data: &Bytes,
    unit_size: u32,
    local_frac: f64,
    mut config: RuntimeConfig,
) -> RunOutcome<R::RObj> {
    let (index, stores) = hybrid_setup(data, unit_size, local_frac);
    config.fetch = FetchConfig { threads: 2, min_range: 256 };
    run_hybrid(app, &index, stores, &config).expect("hybrid run")
}

#[test]
fn knn_end_to_end_matches_oracle() {
    const D: usize = 4;
    let data = gen_id_points::<D>(6_000, 101);
    let app = Knn::<D>::new([0.3, 0.7, 0.5, 0.2], 12);
    let env = EnvConfig::new("env-33/67", 0.33, 3, 3);
    let out = run(&app, &data, (4 + 4 * D) as u32, 0.33, env);
    let expect = knn_oracle::<D>(&data, &app.query, 12);
    assert_eq!(out.result.0.into_sorted(), expect);
    assert_eq!(out.report.total_jobs(), out.head.completions);
    assert!(out.report.total_jobs() >= 18);
}

/// Clustered points snapped to a 2⁻¹² grid: every partial sum of a few
/// thousand of them is exact in `f64`, so the per-slave accumulators merge to
/// the same bits in any order and the runtime's result can be held to `==`.
fn gridded_points<const D: usize>(n: u32, k: usize, seed: u64) -> Bytes {
    let (data, _) = gen_clustered_points::<D>(n, k, 0.05, seed);
    let mut out = bytes::BytesMut::with_capacity(data.len());
    for rec in data.chunks_exact(Point::<D>::SIZE) {
        Point(Point::<D>::decode(rec).0.map(|x| (x * 4096.0).round() / 4096.0)).encode(&mut out);
    }
    out.freeze()
}

#[test]
fn kmeans_end_to_end_matches_oracle() {
    const D: usize = 3;
    let data = gridded_points::<D>(5_000, 5, 33);
    let centroids: Vec<[f64; D]> = (0..5).map(|i| [(f64::from(i) + 0.5) / 5.0; D]).collect();
    let app = KMeans::new(centroids.clone());
    let oracle = kmeans_oracle::<D>(&data, &centroids);
    assert_eq!(oracle.counts.iter().sum::<u64>(), 5_000);
    // The classic path reduces into the slave's accumulator; under FT every
    // job is reduced open into the default hooks' scratch object and merged
    // once accepted.
    for ft in [FtConfig::default(), FtConfig::enabled()] {
        let mut config = RuntimeConfig::new(EnvConfig::new("env-50/50", 0.5, 2, 2), 1e-6);
        config.ft = ft;
        let ft_on = config.ft.active();
        let out = run_with(&app, &data, (4 * D) as u32, 0.5, config);
        assert_eq!(out.result, oracle, "ft active: {ft_on}");
    }
}

/// The oracle is the reference arithmetic and nothing else: a double loop
/// over `units::dist2` with a strict `<`. The ladder checks every burst
/// against `kmeans_oracle`, so it must not come to share `reduce_group`'s
/// kernel.
#[test]
fn kmeans_oracle_is_the_plain_double_loop() {
    const D: usize = 3;
    let (data, _) = gen_clustered_points::<D>(2_000, 9, 0.05, 71);
    // Nine centroids (a tail tile in the kernel's layout), two of them equal.
    let mut centroids: Vec<[f64; D]> = (0..9).map(|i| [(f64::from(i) + 0.5) / 9.0; D]).collect();
    centroids[6] = centroids[2];
    let mut sums = vec![0f64; 9 * D];
    let mut counts = vec![0u64; 9];
    for rec in data.chunks_exact(Point::<D>::SIZE) {
        let p = Point::<D>::decode(rec).0;
        let (mut best, mut best_d) = (0, f64::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            let d = dist2(&p, c);
            if d < best_d {
                (best, best_d) = (i, d);
            }
        }
        for (d, &x) in p.iter().enumerate() {
            sums[best * D + d] += f64::from(x);
        }
        counts[best] += 1;
    }
    let oracle = kmeans_oracle::<D>(&data, &centroids);
    assert_eq!((oracle.sums, oracle.counts), (sums, counts));
}

#[test]
fn pagerank_end_to_end_matches_oracle() {
    let n_pages = 400;
    let data = gen_edges(n_pages, 4_000, 55);
    let outdeg = PageRank::outdegrees(&data, n_pages as usize);
    let ranks = vec![1.0 / f64::from(n_pages); n_pages as usize];
    let app = PageRank::new(&ranks, &outdeg, 0.85);
    let env = EnvConfig::new("env-17/83", 0.17, 3, 3);
    let out = run(&app, &data, 8, 0.17, env);
    // Oracle mass via serial reduction.
    let serial = cloudburst_core::reduce_serial(&app, [data.as_ref()]);
    for (a, b) in out.result.0.iter().zip(&serial.0) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let next = app.next_ranks(&out.result);
    assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn wordcount_end_to_end_matches_oracle() {
    let data = gen_words(8_000, 120, 77);
    let env = EnvConfig::new("env-cloud", 0.0, 0, 4);
    let out = run(&WordCount, &data, 16, 0.0, env);
    assert_eq!(out.result.as_string_counts(), wordcount_oracle(&data));
    // Centralized cloud: a single site, nothing stolen.
    assert_eq!(out.report.sites.len(), 1);
    assert_eq!(out.report.total_stolen(), 0);
}

#[test]
fn same_result_across_all_five_paper_environments() {
    const D: usize = 4;
    let data = gen_id_points::<D>(4_000, 5);
    let app = Knn::<D>::new([0.5; D], 8);
    let expect = knn_oracle::<D>(&data, &app.query, 8);
    let envs = [
        ("env-local", 1.0, 4, 0),
        ("env-cloud", 0.0, 0, 4),
        ("env-50/50", 0.5, 2, 2),
        ("env-33/67", 0.33, 2, 2),
        ("env-17/83", 0.17, 2, 2),
    ];
    for (name, frac, lc, cc) in envs {
        let env = EnvConfig::new(name, frac, lc, cc);
        let out = run(&app, &data, (4 + 4 * D) as u32, frac, env);
        assert_eq!(out.result.0.items(), expect.as_slice(), "{name} diverged");
    }
}

#[test]
fn head_counts_agree_with_site_reports() {
    let data = gen_words(4_000, 40, 3);
    let env = EnvConfig::new("env-33/67", 0.33, 2, 2);
    let out = run(&WordCount, &data, 16, 0.33, env);
    for (site, stats) in &out.report.sites {
        let head = out.head.counts.get(site).copied().unwrap_or_default();
        assert_eq!(stats.jobs, head, "{site} count mismatch");
    }
    assert_eq!(out.head.completions, out.report.total_jobs());
}

#[test]
fn pagerank_isolated_path_is_bit_equal_to_a_straight_reduce() {
    use cloudburst_cluster::FaultPolicy;
    use cloudburst_core::{EventKind, Recorder, Telemetry};
    let n_pages = 500;
    let data = gen_edges(n_pages, 6_000, 91);
    let outdeg = PageRank::outdegrees(&data, n_pages as usize);
    let ranks = vec![1.0 / f64::from(n_pages); n_pages as usize];
    let app = PageRank::new(&ranks, &outdeg, 0.85);
    let (index, stores) = hybrid_setup(&data, 8, 1.0);
    // The retry policy puts every job on the isolated path (reduced open
    // into the accumulator under the journal, accepted on success); one
    // worker makes the order of the `JobProcessed` events the order of the
    // reduce.
    let mut config = RuntimeConfig::new(EnvConfig::new("env-local", 1.0, 1, 0), 1e-6);
    config.fault_policy = FaultPolicy::Retry { max_attempts: 2 };
    let recorder = Arc::new(Recorder::new());
    config.telemetry = Telemetry::to(recorder.clone());
    let out = run_hybrid(&app, &index, stores.clone(), &config).expect("hybrid run");

    // What a run with no isolation folds: every chunk reduced straight into
    // one object, in processing order.
    let mut reference = app.make_robj();
    let mut items = Vec::new();
    let events = recorder.take();
    let processed: Vec<_> =
        events.iter().filter(|e| matches!(e.kind, EventKind::JobProcessed)).collect();
    assert_eq!(processed.len(), index.n_chunks());
    for event in processed {
        let chunk = &index.chunks[event.chunk.expect("job events name their chunk").0 as usize];
        let bytes = stores[&chunk.site].read(chunk.file, chunk.offset, chunk.len).unwrap();
        app.reduce_units(&mut reference, &bytes, &mut items);
    }
    let bits = |m: &cloudburst_apps::RankMass| m.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.result), bits(&reference));
}

#[test]
fn a_dataset_organized_in_other_units_is_refused_before_the_run() {
    use cloudburst_cluster::{check_units, RunError};
    // `KMeans<8>` reads 32-byte points; cut into 16-byte units, 63 to a
    // chunk, every chunk would end half-way through a point.
    let (data, centers) = gen_clustered_points::<8>(4_096, 4, 0.05, 5);
    let app = KMeans::new(centers.iter().map(|c| c.map(f64::from)).collect());
    let params = LayoutParams { unit_size: 16, units_per_chunk: 63, n_files: 2 };
    let org = organize(&data, params, &mut fraction_placement(0.5, 2)).unwrap();
    let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    let config = RuntimeConfig::new(EnvConfig::new("env-50/50", 0.5, 1, 1), 1e-6);
    match run_hybrid(&app, &org.index, stores, &config) {
        Err(RunError::InvalidConfig(why)) => {
            assert!(why.contains("16-byte") && why.contains("32-byte"), "{why}");
        }
        Err(e) => panic!("refused for another reason: {e}"),
        Ok(out) => panic!("ran, counting {} points", out.result.counts.iter().sum::<u64>()),
    }
    // Nor can an application of zero-byte units run over anything.
    assert!(matches!(check_units(0, &org.index), Err(RunError::InvalidConfig(_))));
    assert!(check_units(16, &org.index).is_ok());
}
