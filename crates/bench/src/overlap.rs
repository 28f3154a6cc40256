//! The retrieval/compute overlap scenario: quantifies how much of a chunk's
//! S3 fetch a pipelined slave hides behind the previous chunk's processing.
//!
//! The scenario is knn-shaped — per-item compute comparable to the per-item
//! retrieval cost — with every byte cloud-resident behind [`S3SimStore`]'s
//! per-connection bandwidth/TTFB model. Per-item compute is *calibrated* on
//! the running machine so a chunk's processing roughly matches its ~4 ms
//! fetch: the fetch ≈ process regime is where depth-2 pipelining approaches
//! its ideal 2x, and where a regression is easiest to spot.

use bytes::Bytes;
use cloudburst_cluster::{run_hybrid, RuntimeConfig};
use cloudburst_core::combiners::Sum;
use cloudburst_core::{
    analyze, DataIndex, EnvConfig, Event, EventKind, FlightRecorder, Json, LayoutParams, Metrics,
    Recorder, Reduction, RunAnalysis, SiteId, SlaveSample, Telemetry,
};
use cloudburst_netsim::LinkSpec;
use cloudburst_storage::{
    fraction_placement, organize, ChunkStore, FetchConfig, S3Config, S3SimStore,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Units per chunk: 64 KiB chunks of u32 units.
pub const UNITS_PER_CHUNK: u64 = 16_384;

const SPIN_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// knn-style compute: sums u32 units while burning a calibrated number of
/// hash rounds per item (standing in for distance evaluation), so per-chunk
/// processing time is controllable while the result stays an exact,
/// order-free sum — ideal for checking pipelined-vs-serial equivalence.
pub struct SpinSum {
    /// Hash rounds burned per decoded item.
    pub spin: u32,
}

impl Reduction for SpinSum {
    type Item = u32;
    type RObj = Sum<u64>;
    fn make_robj(&self) -> Sum<u64> {
        Sum(0)
    }
    fn unit_size(&self) -> usize {
        4
    }
    fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
        out.extend(chunk.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
    }
    fn local_reduce(&self, robj: &mut Sum<u64>, item: &u32) {
        let mut x = u64::from(*item) | 1;
        for _ in 0..self.spin {
            x = x.wrapping_mul(SPIN_MIX).rotate_left(31);
        }
        black_box(x);
        robj.0 += u64::from(*item);
    }
}

/// Measure this machine's hash-round throughput and return the spin count
/// that makes `items_per_chunk` items take about `target` to process.
#[must_use]
pub fn calibrate_spin(target: Duration, items_per_chunk: u64) -> u32 {
    // Min over several short probes: a scheduler stall during one long
    // probe inflates the measured per-round cost and mis-calibrates the
    // whole scenario severalfold (observed ~4x on a noisy box); the floor
    // across probes is stall-immune.
    let probe: u64 = 400_000;
    let mut per_round = f64::INFINITY;
    for _ in 0..5 {
        let mut x = black_box(0x1234_5678u64);
        let start = Instant::now();
        for _ in 0..probe {
            x = x.wrapping_mul(SPIN_MIX).rotate_left(31);
        }
        black_box(x);
        per_round = per_round.min((start.elapsed().as_secs_f64() / probe as f64).max(1e-10));
    }
    let rounds = target.as_secs_f64() / per_round / items_per_chunk as f64;
    rounds.ceil().max(1.0) as u32
}

/// Dataset, stores, and calibrated app for one overlap measurement.
pub struct OverlapScenario {
    /// The organized dataset's index.
    pub index: DataIndex,
    /// Every chunk cloud-resident behind the S3 model.
    pub stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    /// The calibrated compute app.
    pub app: SpinSum,
    /// Ground-truth sum of every unit.
    pub expected: u64,
    /// Cloud cores to run with (the local cluster has none).
    pub cores: u32,
}

/// Build the S3Sim-heavy scenario: `n_chunks` 64 KiB chunks, all in the
/// cloud behind a simulated S3 (25 MB/s with 3 ms TTFB per connection,
/// 100 MB/s aggregate, real time: `time_scale` 1.0).
#[must_use]
pub fn s3_heavy_scenario(n_chunks: u32, cores: u32) -> OverlapScenario {
    let units = n_chunks * UNITS_PER_CHUNK as u32;
    let data = Bytes::from((0..units).flat_map(u32::to_le_bytes).collect::<Vec<u8>>());
    let expected = (0..units).map(u64::from).sum();
    let params = LayoutParams { unit_size: 4, units_per_chunk: UNITS_PER_CHUNK, n_files: 4 };
    let org = organize(&data, params, &mut fraction_placement(0.0, 4)).expect("organize");
    let s3 = S3SimStore::new(
        org.stores[&SiteId::CLOUD].clone(),
        S3Config {
            connection: LinkSpec::new(3e-3, 25e6),
            aggregate: LinkSpec::new(0.0, 100e6),
            max_connections: 64,
            time_scale: 1.0,
        },
    );
    let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    stores.insert(SiteId::CLOUD, Arc::new(s3));
    let app = SpinSum { spin: calibrate_spin(Duration::from_millis(4), UNITS_PER_CHUNK) };
    OverlapScenario { index: org.index, stores, app, expected, cores }
}

/// Build the attribution scenario: a deliberately fetch-long variant of the
/// S3Sim scenario sitting in the `p < f < 2p` corridor (per-chunk compute
/// `p`, single-stream fetch `f`). In that corridor the verdict *flips* with
/// pipelining: a serial slave's lane is fetch-dominated (`f > p`), while a
/// pipelined slave hides `p` of every fetch behind compute, leaving only
/// `f − p < p` exposed — so `cloudburst explain` must call the depth-1 run
/// WAN-bound and the depth-2+ runs compute-bound. One cloud core and one
/// fetch stream keep the lane serial so the corridor arithmetic holds.
#[must_use]
pub fn attribution_scenario(n_chunks: u32) -> OverlapScenario {
    let units = n_chunks * UNITS_PER_CHUNK as u32;
    let data = Bytes::from((0..units).flat_map(u32::to_le_bytes).collect::<Vec<u8>>());
    let expected = (0..units).map(u64::from).sum();
    let params = LayoutParams { unit_size: 4, units_per_chunk: UNITS_PER_CHUNK, n_files: 4 };
    let org = organize(&data, params, &mut fraction_placement(0.0, 4)).expect("organize");
    // Single-stream fetch: 6 ms TTFB + 64 KiB / 25 MB/s ≈ 8.6 ms = f.
    let s3 = S3SimStore::new(
        org.stores[&SiteId::CLOUD].clone(),
        S3Config {
            connection: LinkSpec::new(6e-3, 25e6),
            aggregate: LinkSpec::new(0.0, 100e6),
            max_connections: 64,
            time_scale: 1.0,
        },
    );
    let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    stores.insert(SiteId::CLOUD, Arc::new(s3));
    // p ≈ 6.5 ms: inside (f/2, f) = (4.3 ms, 8.6 ms). Biased toward the
    // upper half of the corridor because calibration undershoots a little
    // under load and the effective f runs slightly over the model's 8.6 ms
    // — both of which shrink the compute margin at depth 2.
    let app = SpinSum { spin: calibrate_spin(Duration::from_micros(6500), UNITS_PER_CHUNK) };
    OverlapScenario { index: org.index, stores, app, expected, cores: 1 }
}

/// One traced-and-analyzed run of the attribution scenario.
#[derive(Debug, Clone)]
pub struct DepthAttribution {
    /// Pipeline depth used.
    pub depth: usize,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
    /// Whether the result matched the ground truth exactly.
    pub result_ok: bool,
    /// The run's event stream analyzed: attribution, critical path, DAG.
    pub analysis: RunAnalysis,
}

/// Execute the attribution scenario once at `depth` with a recording
/// telemetry sink, then analyze the captured event stream.
///
/// # Panics
/// The run and the analysis must both succeed.
#[must_use]
pub fn explain_at_depth(sc: &OverlapScenario, depth: usize) -> DepthAttribution {
    let env = EnvConfig::new("knn-s3heavy", 0.0, 0, sc.cores);
    let mut config = RuntimeConfig::new(env, 1.0);
    // One fetch stream so a chunk's fetch pays the full single-connection
    // TTFB — the `f` the corridor is tuned around.
    config.fetch = FetchConfig { threads: 1, min_range: 64 * 1024 };
    config.unit_group = 2048;
    config.pipeline_depth = depth;
    let recorder = Arc::new(Recorder::new());
    config.telemetry = Telemetry::to(recorder.clone());
    let start = Instant::now();
    let out = run_hybrid(&sc.app, &sc.index, sc.stores.clone(), &config).expect("attribution run");
    let seconds = start.elapsed().as_secs_f64();
    let analysis = analyze(&recorder.take()).expect("analyze attribution run");
    DepthAttribution { depth, seconds, result_ok: out.result.0 == sc.expected, analysis }
}

/// Run the attribution scenario at every depth and analyze each run.
#[must_use]
pub fn attribution_sweep(sc: &OverlapScenario, depths: &[usize]) -> Vec<DepthAttribution> {
    depths.iter().map(|&d| explain_at_depth(sc, d)).collect()
}

/// Serialize an attribution sweep as the `attribution` section of
/// `BENCH_runtime.json`. Category keys are deliberately not benchmark
/// metric names, so `bench-diff` reports them as informational rather than
/// gating on them (attribution shares move with machine load).
#[must_use]
pub fn attribution_json(sweep: &[DepthAttribution]) -> Json {
    let runs = sweep
        .iter()
        .map(|r| {
            let (dominant, _) = r.analysis.attribution.dominant();
            Json::obj()
                .field("depth", Json::U64(r.depth as u64))
                .field("result_ok", Json::Bool(r.result_ok))
                .field("dominant", Json::Str(dominant.into()))
                .field("attribution_agrees", Json::Bool(r.analysis.attribution.agrees()))
                .field("breakdown", r.analysis.attribution.to_json())
        })
        .collect();
    Json::obj()
        .field("scenario", Json::Str("single-stream fetch-long corridor (p < f < 2p)".to_owned()))
        .field("runs", Json::Arr(runs))
}

/// One timed end-to-end run at a pipeline depth.
#[derive(Debug, Clone, Copy)]
pub struct DepthRun {
    /// Pipeline depth used.
    pub depth: usize,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
    /// Whether the result matched the scenario's ground truth exactly.
    pub result_ok: bool,
}

/// Execute the scenario once at `depth` and time it end to end.
#[must_use]
pub fn run_at_depth(sc: &OverlapScenario, depth: usize) -> DepthRun {
    run_at_depth_with(sc, depth, &Metrics::off())
}

/// [`run_at_depth`] with a caller-supplied live-metrics handle — the
/// instrument behind the `metrics_overhead` quantification and the
/// fetch/process latency percentiles in `BENCH_runtime.json`.
#[must_use]
pub fn run_at_depth_with(sc: &OverlapScenario, depth: usize, metrics: &Metrics) -> DepthRun {
    let env = EnvConfig::new("knn-s3heavy", 0.0, 0, sc.cores);
    let mut config = RuntimeConfig::new(env, 1.0);
    config.fetch = FetchConfig { threads: 4, min_range: 8 * 1024 };
    config.unit_group = 2048;
    config.pipeline_depth = depth;
    config.metrics = metrics.clone();
    let start = Instant::now();
    let out = run_hybrid(&sc.app, &sc.index, sc.stores.clone(), &config).expect("overlap run");
    DepthRun {
        depth,
        seconds: start.elapsed().as_secs_f64(),
        result_ok: out.result.0 == sc.expected,
    }
}

/// [`run_at_depth`] with a caller-supplied telemetry handle — the
/// instrument behind the `flight_recorder_overhead` quantification: the
/// full event stream is emitted and teed into the bounded ring, exactly
/// what an always-on `--flight-recorder-cap` run pays.
#[must_use]
pub fn run_at_depth_traced(sc: &OverlapScenario, depth: usize, telemetry: &Telemetry) -> DepthRun {
    let env = EnvConfig::new("knn-s3heavy", 0.0, 0, sc.cores);
    let mut config = RuntimeConfig::new(env, 1.0);
    config.fetch = FetchConfig { threads: 4, min_range: 8 * 1024 };
    config.unit_group = 2048;
    config.pipeline_depth = depth;
    config.telemetry = telemetry.clone();
    let start = Instant::now();
    let out = run_hybrid(&sc.app, &sc.index, sc.stores.clone(), &config).expect("overlap run");
    DepthRun {
        depth,
        seconds: start.elapsed().as_secs_f64(),
        result_ok: out.result.0 == sc.expected,
    }
}

/// p50/p95/p99 of a latency distribution, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencyQuantiles {
    /// Read the three quantiles from a live-metrics histogram.
    #[must_use]
    pub fn of(h: &cloudburst_core::Histogram) -> LatencyQuantiles {
        LatencyQuantiles { p50: h.quantile(0.50), p95: h.quantile(0.95), p99: h.quantile(0.99) }
    }

    /// Serialize as a `{"p50": .., "p95": .., "p99": ..}` object.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::obj()
            .field("p50", Json::F64(self.p50))
            .field("p95", Json::F64(self.p95))
            .field("p99", Json::F64(self.p99))
    }
}

/// Per-chunk fetch and process latency percentiles of one metered run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyReport {
    /// Chunk retrieval latency (`cloudburst_fetch_seconds`).
    pub fetch: LatencyQuantiles,
    /// Chunk reduction latency (`cloudburst_process_seconds`).
    pub process: LatencyQuantiles,
}

/// Fold two quantile reports to their pointwise floor.
fn min_quantiles(a: LatencyQuantiles, b: LatencyQuantiles) -> LatencyQuantiles {
    LatencyQuantiles { p50: a.p50.min(b.p50), p95: a.p95.min(b.p95), p99: a.p99.min(b.p99) }
}

/// Per-quantile floor of [`latency_report`] across several sub-window
/// registries. The bench cycles its metered reps through a pool of
/// registries: a scheduler stall inflates the tail of whichever window it
/// lands in, and the floor across windows discards it — the same
/// noise-rejection the rest of the bench gets from min-of-batches.
#[must_use]
pub fn latency_floor(groups: &[Metrics]) -> LatencyReport {
    groups
        .iter()
        .map(latency_report)
        .reduce(|a, b| LatencyReport {
            fetch: min_quantiles(a.fetch, b.fetch),
            process: min_quantiles(a.process, b.process),
        })
        .expect("at least one metrics group")
}

/// Read the scenario's fetch/process percentiles out of a metrics handle
/// that instrumented one or more runs (the cloud site hosts every chunk in
/// the overlap scenario, so its histograms see every job).
#[must_use]
pub fn latency_report(metrics: &Metrics) -> LatencyReport {
    let labels: &[(&str, &str)] = &[("site", "cloud")];
    let fetch = metrics.histogram(
        "cloudburst_fetch_seconds",
        "Per-chunk retrieval latency (ranged reads plus WAN charge).",
        labels,
    );
    let process = metrics.histogram(
        "cloudburst_process_seconds",
        "Per-chunk decode-and-reduce latency.",
        labels,
    );
    LatencyReport { fetch: LatencyQuantiles::of(&fetch), process: LatencyQuantiles::of(&process) }
}

/// The quantified overlap: best-of-`reps` wall time per depth plus the
/// end-to-end speedup of the best pipelined depth over the serial baseline.
#[derive(Debug, Clone)]
pub struct OverlapReport {
    /// Best-of-reps run per depth, in the order the depths were given.
    pub runs: Vec<DepthRun>,
    /// Serial (depth 1) time over the best pipelined (depth >= 2) time.
    pub speedup: f64,
    /// Every run at every depth matched the ground truth exactly.
    pub all_equal: bool,
    /// Chunks in the dataset.
    pub chunks: u64,
    /// Cloud cores used.
    pub cores: u32,
    /// Attributed live-metrics overhead at the fastest pipelined depth:
    /// 1 + (histogram observes per metered run × microbenchmarked
    /// per-site cost) ÷ median bare wall time. verify.sh gates this at
    /// <= 1.01 (1%).
    pub metrics_overhead: f64,
    /// Attributed flight-recorder overhead: 1 + (events emitted per
    /// recorded run × microbenchmarked per-emit cost) ÷ median bare wall
    /// time — the cost of full event emission teed into the bounded ring,
    /// gated at <= 1.01 alongside `metrics_overhead`.
    pub flight_recorder_overhead: f64,
    /// Fetch/process latency percentiles from the metered runs.
    pub latency: LatencyReport,
}

/// Run every depth `reps` times, keep each depth's fastest run, and report
/// the speedup of the best pipelined depth over the serial baseline.
///
/// # Panics
/// `depths` must contain depth 1 (the baseline) and at least one depth >= 2.
#[must_use]
pub fn quantify(sc: &OverlapScenario, depths: &[usize], reps: u32) -> OverlapReport {
    let mut runs: Vec<DepthRun> = Vec::new();
    let mut all_equal = true;
    for &depth in depths {
        let mut best: Option<DepthRun> = None;
        for _ in 0..reps.max(1) {
            let r = run_at_depth(sc, depth);
            all_equal &= r.result_ok;
            best = Some(match best {
                Some(b) if b.seconds <= r.seconds => b,
                _ => r,
            });
        }
        runs.push(best.expect("at least one rep"));
    }
    let serial = runs.iter().find(|r| r.depth <= 1).expect("depth-1 baseline").seconds;
    let best = runs
        .iter()
        .filter(|r| r.depth >= 2)
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .copied()
        .expect("a pipelined depth");
    // Metered pass: interleave bare, metered, and flight-recorded runs at
    // a *fixed* pipelined depth — the smallest depth >= 2, not whichever
    // depth won the sweep. Deeper pipelines overlap more compute on a
    // small box, so their latency tails are structurally fatter; when two
    // depths are within noise of each other, gating latency at "best
    // depth" compares different queueing regimes across invocations. The
    // order rotates so positional bias cancels, and the instrumentation
    // cost is *attributed* instead of wall-clock-differenced: overhead =
    // 1 + volume × unit-cost ÷ median bare time. On a noisy box, per-run wall clock
    // swings ±10% with scheduler preemption and host steal — a
    // differential measurement cannot resolve the ~0.1% effect under a 1%
    // gate no matter how it is aggregated (minima, medians, and
    // paired-CPU-time ratios were all observed to swing ±3% across
    // invocations). The attributed estimate is immune to that noise yet
    // stays regression-sensitive: the volumes are exact per-run counts
    // from the instrumented runs themselves, so a recording path that
    // slows to ~2 µs/event pushes the ratio past the 1.01 gate. The
    // instrumented runs still execute here — they feed `all_equal` (the
    // result must stay exact under metering) and the latency histograms.
    // Each metered rep gets its own registry so every latency quantile can
    // be read as the floor across per-run windows: a stall inflates only
    // the window it lands in, and with ~25 windows at least one run's tail
    // is stall-free with near certainty, so the reported p99 is the clean
    // one rather than whichever stall the shared histogram caught.
    let metered_depth =
        depths.iter().copied().filter(|&d| d >= 2).min().expect("a pipelined depth");
    let triplets = reps.max(25);
    let groups: Vec<Metrics> = (0..triplets).map(|_| Metrics::on()).collect();
    let ring = Arc::new(FlightRecorder::new(4096));
    let flight = Telemetry::to(ring.clone());
    let mut bare_times = Vec::new();
    for i in 0..triplets {
        for k in 0..3 {
            match (i + k) % 3 {
                0 => {
                    let r = run_at_depth(sc, metered_depth);
                    all_equal &= r.result_ok;
                    bare_times.push(r.seconds);
                }
                1 => {
                    let m = &groups[i as usize % groups.len()];
                    let r = run_at_depth_with(sc, metered_depth, m);
                    all_equal &= r.result_ok;
                }
                _ => {
                    let r = run_at_depth_traced(sc, metered_depth, &flight);
                    all_equal &= r.result_ok;
                }
            }
        }
    }
    let t_bare = median(&mut bare_times);
    // Each observation comes with the publish of the slave's ledger that
    // its note makes, which the microbenchmarked per-site cost bundles in.
    let observes_per_run = groups.iter().map(observations).sum::<f64>() / f64::from(triplets);
    let events_per_run = ring.total_recorded() as f64 / f64::from(triplets);
    OverlapReport {
        runs,
        speedup: serial / best.seconds,
        all_equal,
        chunks: sc.index.n_chunks() as u64,
        cores: sc.cores,
        metrics_overhead: 1.0 + observes_per_run * per_observe_site_seconds() / t_bare,
        flight_recorder_overhead: 1.0 + events_per_run * per_event_emit_seconds() / t_bare,
        latency: latency_floor(&groups),
    }
}

/// Every histogram a metered run observes into: a chunk's fetch and its
/// processing, one observation each.
const HISTOGRAMS: [&str; 2] = ["cloudburst_fetch_seconds", "cloudburst_process_seconds"];

/// The observations the runs metered by `metrics` made, all histograms.
fn observations(metrics: &Metrics) -> f64 {
    let registry = metrics.registry().expect("metrics are on");
    HISTOGRAMS.iter().map(|name| registry.total(name, &[]) as f64).sum()
}

/// Floor cost of one `Telemetry::emit` teed into a flight ring: seq stamp,
/// sink dispatch, and the ring's lock-plus-slot-write. Min-of-batches so a
/// scheduler stall cannot inflate the estimate.
fn per_event_emit_seconds() -> f64 {
    let tee = Telemetry::to(Arc::new(FlightRecorder::new(4096)));
    const BATCH: u32 = 100_000;
    let mut best = f64::INFINITY;
    for round in 0..10u64 {
        let start = Instant::now();
        for i in 0..u64::from(BATCH) {
            tee.emit(Event::at(round * u64::from(BATCH) + i, EventKind::JobProcessed));
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(BATCH));
    }
    best
}

/// Floor cost of one metering site shaped like the runtime's per-chunk
/// instrumentation: each of a chunk's two notes — its fetch and its
/// processing — observes a latency histogram and publishes the slave's
/// ledger, so a metered chunk costs two of these.
fn per_observe_site_seconds() -> f64 {
    let metrics = Metrics::on();
    let lat = metrics.histogram("attrib_seconds", "attribution microbench", &[]);
    let ledger = metrics.ledger();
    let mut sample = SlaveSample::default();
    const SITES: u32 = 50_000;
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let start = Instant::now();
        for i in 0..u64::from(SITES) {
            sample.jobs += 1;
            lat.observe(i);
            ledger.publish_slave(SiteId::CLOUD, 0, &sample);
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(SITES));
    }
    best
}

/// Median of a non-empty sample (sorts in place; even counts average the
/// middle pair).
fn median(sample: &mut [f64]) -> f64 {
    sample.sort_by(f64::total_cmp);
    let n = sample.len();
    if n % 2 == 1 {
        sample[n / 2]
    } else {
        0.5 * (sample[n / 2 - 1] + sample[n / 2])
    }
}

/// Serialize an [`OverlapReport`] as the `BENCH_runtime.json` document.
#[must_use]
pub fn overlap_json(r: &OverlapReport) -> Json {
    let depths = r
        .runs
        .iter()
        .map(|d| {
            Json::obj()
                .field("depth", Json::U64(d.depth as u64))
                .field("seconds", Json::F64(d.seconds))
                .field("result_ok", Json::Bool(d.result_ok))
        })
        .collect();
    Json::obj()
        .field("scenario", Json::Str("knn-style S3Sim-heavy overlap".to_owned()))
        .field("chunks", Json::U64(r.chunks))
        .field("cores", Json::U64(u64::from(r.cores)))
        .field("depths", Json::Arr(depths))
        .field("speedup", Json::F64(r.speedup))
        .field("results_equal_at_every_depth", Json::Bool(r.all_equal))
        .field("metrics_overhead", Json::F64(r.metrics_overhead))
        .field("flight_recorder_overhead", Json::F64(r.flight_recorder_overhead))
        .field("fetch_seconds", r.latency.fetch.to_json())
        .field("process_seconds", r.latency.process.to_json())
}

/// Write the overlap document — plus the attribution sweep, when one was
/// run — where `BENCH_RUNTIME_OUT` points (default: `BENCH_runtime.json`
/// at the workspace root) and return the path.
///
/// # Panics
/// The output file must be writable.
pub fn write_runtime_artifact(r: &OverlapReport, sweep: &[DepthAttribution]) -> String {
    let out = std::env::var("BENCH_RUNTIME_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json").to_owned()
    });
    let mut doc = overlap_json(r);
    if !sweep.is_empty() {
        doc = doc.field("attribution", attribution_json(sweep));
    }
    let mut text = doc.to_text();
    text.push('\n');
    std::fs::write(&out, text).expect("write BENCH_runtime.json");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_results_are_exact_at_depths_1_and_2() {
        // Tiny version of the bench scenario: correctness only, not timing.
        let sc = s3_heavy_scenario(6, 2);
        for depth in [1usize, 2] {
            assert!(run_at_depth(&sc, depth).result_ok, "depth {depth} diverged");
        }
    }

    #[test]
    fn attribution_sweep_analyzes_each_depth_exhaustively() {
        // Tiny dataset: structure only. Which category dominates at each
        // depth is machine- and load-dependent at this size, so the
        // dominance flip is asserted on the full-size sweep's artifact by
        // verify.sh, not here.
        let sc = attribution_scenario(4);
        let sweep = attribution_sweep(&sc, &[1, 2]);
        assert_eq!(sweep.len(), 2);
        for run in &sweep {
            assert!(run.result_ok, "depth {} diverged", run.depth);
            let attr = &run.analysis.attribution;
            assert!(attr.agrees(), "depth {}: categories miss the makespan", run.depth);
            assert!(attr.wan_fetch > 0.0, "depth {}: no WAN fetch attributed", run.depth);
            assert!(attr.compute > 0.0, "depth {}: no compute attributed", run.depth);
            assert!(
                run.analysis.critical_path_secs() <= attr.makespan + 1e-9,
                "depth {}: critical path exceeds makespan",
                run.depth
            );
        }
        let text = attribution_json(&sweep).to_text();
        for key in ["\"dominant\"", "\"breakdown\"", "\"wan_fetch\"", "\"attribution_agrees\""] {
            assert!(text.contains(key), "attribution artifact is missing {key}");
        }
    }

    #[test]
    fn every_histogram_a_metered_run_observes_is_counted() {
        let sc = s3_heavy_scenario(4, 2);
        let metrics = Metrics::on();
        assert!(run_at_depth_with(&sc, 2, &metrics).result_ok);
        let text = metrics.registry().unwrap().render();
        let exp = cloudburst_core::parse_exposition(&text).unwrap();
        let counted: f64 = exp
            .types
            .iter()
            .filter(|(_, kind)| kind.as_str() == "histogram")
            .map(|(name, _)| exp.sum_family(&format!("{name}_count")))
            .sum();
        assert!(counted > 0.0);
        assert_eq!(observations(&metrics), counted, "{text}");
    }

    #[test]
    fn quantify_reports_every_depth_and_a_finite_speedup() {
        let sc = s3_heavy_scenario(4, 2);
        let report = quantify(&sc, &[1, 2], 1);
        assert_eq!(report.runs.len(), 2);
        assert!(report.all_equal);
        assert!(report.speedup.is_finite() && report.speedup > 0.0);
        // The metered pass ran: overhead is a sane ratio and the latency
        // histograms saw every chunk of the run.
        assert!(report.metrics_overhead.is_finite() && report.metrics_overhead > 0.0);
        assert!(
            report.flight_recorder_overhead.is_finite() && report.flight_recorder_overhead > 0.0
        );
        assert!(report.latency.fetch.p50 > 0.0, "fetch p50 missing");
        assert!(report.latency.fetch.p99 >= report.latency.fetch.p50);
        assert!(report.latency.process.p99 >= report.latency.process.p50);
        let text = overlap_json(&report).to_text();
        for key in [
            "\"speedup\"",
            "\"metrics_overhead\"",
            "\"flight_recorder_overhead\"",
            "\"fetch_seconds\"",
            "\"p99\"",
        ] {
            assert!(text.contains(key), "artifact is missing {key}");
        }
    }
}
