//! Cross-module tests on scaled-down workloads: determinism of the inputs,
//! transparency of the span decorators, and the correctness gate itself.

use crate::bench::SPECS;
use crate::spans::{span_stats, SpanLog};
use crate::workloads::{
    Backend, KMeansScenario, KnnScenario, Mode, PageRankScenario, Prepared, Scenario, Spec,
    GRANT_STORM, KMEANS_LOCAL, KNN_BURST, PAGERANK_FT,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The real workloads' shapes at a size a debug build runs in well under a
/// second, with modelled time compressed away.
fn small(spec: Spec, units_per_chunk: u64, n_chunks: u64, iterations: usize) -> Spec {
    Spec { units_per_chunk, n_chunks, iterations, time_scale: 1e-6, ..spec }
}

fn small_knn() -> Spec {
    small(KNN_BURST, 512, 24, 1)
}

fn small_kmeans() -> Spec {
    small(KMEANS_LOCAL, 256, 16, 3)
}

fn small_pagerank() -> Spec {
    // `gen_edges` emits at least one edge per page, so the dataset cannot
    // be smaller than the 400 000-page graph.
    small(PAGERANK_FT, 65_536, 8, 2)
}

fn small_storm() -> Spec {
    small(GRANT_STORM, 8, 400, 1)
}

fn ready<S: Scenario>(spec: Spec, seed: u64) -> Prepared<S> {
    let mut p = Prepared::<S>::setup(spec, seed).expect("set-up");
    p.compute_oracle();
    p
}

#[test]
fn same_seed_gives_the_same_bytes_and_any_seed_the_same_counts() {
    let a = Prepared::<KnnScenario>::setup(small_knn(), 7).expect("set-up");
    let b = Prepared::<KnnScenario>::setup(small_knn(), 7).expect("set-up");
    let c = Prepared::<KnnScenario>::setup(small_knn(), 8).expect("set-up");
    let all = usize::MAX;
    assert_eq!(a.data_prefix(all), b.data_prefix(all), "same seed, same dataset");
    assert_ne!(a.data_prefix(all), c.data_prefix(all), "another seed, another dataset");
    for p in [&a, &b, &c] {
        assert_eq!(p.index, a.index, "the index depends on sizes only");
        assert_eq!(p.index.n_chunks() as u64, p.spec.n_chunks);
        assert_eq!(p.index.total_units(), p.spec.total_units());
        assert_eq!(p.index.total_bytes(), p.spec.total_bytes());
    }
}

#[test]
fn frozen_sizes_match_their_descriptions() {
    let [knn, kmeans, pagerank, storm] = SPECS;
    // One third of knn's files are local, on disk; the rest sit in S3.
    assert_eq!((knn.local_store, knn.cloud_store), (Backend::File, Backend::S3Sim));
    assert_eq!((knn.local_fraction * f64::from(knn.n_files)).round() as u32, 2);
    assert!(!knn.ft && !knn.tcp && knn.iterations == 1 && knn.cores() == 2);
    // kmeans is env-local: no cloud core, no cloud data.
    assert_eq!((kmeans.local_cores, kmeans.cloud_cores, kmeans.local_fraction), (2, 0, 1.0));
    assert_eq!(kmeans.iterations, 10);
    // pagerank runs the FT stack over an even split.
    assert!(pagerank.ft && !pagerank.tcp && pagerank.local_fraction == 0.5);
    // The storm is the only TCP workload, and its jobs are tiny.
    assert!(storm.tcp && !storm.ft);
    assert_eq!(storm.units_per_chunk * u64::from(storm.unit_size), 160);
    for spec in SPECS {
        assert_eq!(
            spec.n_chunks % u64::from(spec.n_files),
            0,
            "{}: whole chunks per file",
            spec.name
        );
        assert!(
            spec.total_units() <= u64::from(u32::MAX),
            "{}: generators count in u32",
            spec.name
        );
    }
}

/// Plain and traced bursts both equal the serial oracle, so the decorators
/// change no result; and the traced burst's counts are the dataset's.
fn decorators_are_transparent<S: Scenario>(spec: Spec) {
    let p = ready::<S>(spec, 3);
    let plain = p.burst(&Mode::Plain);
    assert!(plain.correct, "{}: plain burst: {:?}", spec.name, plain.problem);
    assert_eq!((plain.attempted, plain.failed), (spec.jobs_per_burst(), 0));
    assert_eq!(plain.head_completions, spec.jobs_per_burst());

    let log = Arc::new(SpanLog::new());
    log.set_burst(1);
    let traced = p.burst(&Mode::Traced(&log));
    assert!(traced.correct, "{}: traced burst: {:?}", spec.name, traced.problem);
    assert_eq!(traced.head_completions, plain.head_completions);

    let spans = log.snapshot();
    assert!(spans.iter().all(|s| s.burst == 1));
    // Speculative copies under FT may decode a chunk twice; never fewer
    // than once.
    let decodes = span_stats(&spans, "app.decode").count;
    let units = log.units_decoded.load(Ordering::Relaxed);
    let bytes = log.bytes_read.load(Ordering::Relaxed);
    if spec.ft {
        assert!(
            decodes >= spec.jobs_per_burst()
                && units >= spec.total_units() * spec.iterations as u64
        );
    } else {
        assert_eq!(decodes, spec.jobs_per_burst());
        assert_eq!(units, spec.total_units() * spec.iterations as u64);
        assert_eq!(bytes, spec.bytes_per_burst());
    }
    assert!(span_stats(&spans, "store.read").count >= spec.jobs_per_burst());
    assert!(span_stats(&spans, "app.reduce_group").count >= decodes);
    assert!(
        span_stats(&spans, "robj.make").count >= u64::from(spec.cores()) * spec.iterations as u64
    );
}

#[test]
fn span_decorators_do_not_change_knn_over_file_and_s3_stores() {
    decorators_are_transparent::<KnnScenario>(small_knn());
}

#[test]
fn span_decorators_do_not_change_kmeans_iterations() {
    decorators_are_transparent::<KMeansScenario>(small_kmeans());
}

#[test]
fn span_decorators_do_not_change_pagerank_under_ft() {
    decorators_are_transparent::<PageRankScenario>(small_pagerank());
}

#[test]
fn span_decorators_do_not_change_the_tcp_storm() {
    decorators_are_transparent::<KnnScenario>(small_storm());
}

#[test]
fn a_wrong_oracle_fails_the_burst_and_counts_its_jobs() {
    // Oracle from seed 3's data, bursts over seed 4's: every iteration of
    // the burst must miss, and all its jobs must count as failed.
    let spec = small_kmeans();
    let mut wrong = Prepared::<KMeansScenario>::setup(spec, 3).expect("set-up");
    wrong.compute_oracle();
    let other = Prepared::<KMeansScenario>::setup(spec, 4).expect("set-up");
    let burst = wrong.with_data_of(other).burst(&Mode::Plain);
    assert!(!burst.correct);
    assert!(burst.problem.is_some());
    assert_eq!(burst.failed, spec.jobs_per_burst());
}
