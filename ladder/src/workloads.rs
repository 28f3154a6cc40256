//! The four workloads: what each generates, how it is organised across the
//! two sites, which runtime configuration defines it, and the serial oracle
//! every burst is checked against.
//!
//! Every size is a constant — there is no run-time calibration — so job,
//! unit and byte counts repeat exactly from run to run and seed to seed.
//! The seed drives data generation only.

use crate::api::{
    decode_index, encode_index, fraction_placement, gen_clustered_points, gen_edges, gen_id_points,
    kmeans_oracle, knn_oracle, organize, reduce_serial, run_hybrid, run_hybrid_tcp, ChunkStore,
    DataIndex, EnvConfig, FileStore, FtConfig, KMeans, KMeansObj, Knn, KnnObj, LayoutParams,
    MemStore, Merge, Metrics, Neighbor, PageRank, RankMass, Reduction, RunError, RunOutcome,
    RuntimeConfig, S3Config, S3SimStore, SiteId, Telemetry,
};
use crate::spans::{SpanApp, SpanLog, SpanStore};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The stores of one prepared dataset, keyed by site.
pub type Stores = BTreeMap<SiteId, Arc<dyn ChunkStore>>;

/// Which backend holds a site's files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory files.
    Mem,
    /// Files in a scratch directory under the working directory.
    File,
    /// In-memory files behind the simulated-S3 timing model.
    S3Sim,
}

/// The application a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// `Knn<4>`, k = 10.
    Knn,
    /// `KMeans<8>`, k = 32.
    KMeans,
    /// `PageRank` over 400 000 pages.
    PageRank,
}

/// The frozen definition of one workload. Only `env`, `time_scale`, `ft` and
/// the entry point (`tcp`) reach the `RuntimeConfig`; every other runtime
/// knob keeps `RuntimeConfig::new`'s default.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the ladder (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Which application and oracle it runs.
    pub app: AppKind,
    /// Bytes per data unit.
    pub unit_size: u32,
    /// Units per chunk (one chunk is one job).
    pub units_per_chunk: u64,
    /// Chunks in the dataset.
    pub n_chunks: u64,
    /// Files the dataset is cut into (placement granularity).
    pub n_files: u32,
    /// Share of the files placed at the local cluster.
    pub local_fraction: f64,
    /// Backend of the local site's store.
    pub local_store: Backend,
    /// Backend of the cloud site's store.
    pub cloud_store: Backend,
    /// Slave cores at the local cluster.
    pub local_cores: u32,
    /// Slave cores in the cloud.
    pub cloud_cores: u32,
    /// Modelled-to-real time compression of every network charge.
    pub time_scale: f64,
    /// Whether the fault-tolerance stack (`FtConfig::enabled()`) is on.
    pub ft: bool,
    /// `run_hybrid_tcp` (default batched v2 wire) instead of `run_hybrid`.
    pub tcp: bool,
    /// Framework runs per burst (iterations fed forward).
    pub iterations: usize,
}

impl Spec {
    /// Units in the whole dataset.
    pub fn total_units(&self) -> u64 {
        self.units_per_chunk * self.n_chunks
    }

    /// Bytes in the whole dataset.
    pub fn total_bytes(&self) -> u64 {
        self.total_units() * u64::from(self.unit_size)
    }

    /// Jobs one burst merges: every chunk once per iteration.
    pub fn jobs_per_burst(&self) -> u64 {
        self.n_chunks * self.iterations as u64
    }

    /// Dataset bytes one burst reads: the dataset once per iteration.
    pub fn bytes_per_burst(&self) -> u64 {
        self.total_bytes() * self.iterations as u64
    }

    /// Slave cores across both sites.
    pub fn cores(&self) -> u32 {
        self.local_cores + self.cloud_cores
    }

    fn layout(&self) -> LayoutParams {
        LayoutParams {
            unit_size: self.unit_size,
            units_per_chunk: self.units_per_chunk,
            n_files: self.n_files,
        }
    }

    /// The runtime configuration of this workload: defaults plus the fields
    /// that define it.
    pub fn config(&self) -> RuntimeConfig {
        let env =
            EnvConfig::new(self.name, self.local_fraction, self.local_cores, self.cloud_cores);
        let mut config = RuntimeConfig::new(env, self.time_scale);
        if self.ft {
            config.ft = FtConfig::enabled();
        }
        config
    }
}

/// `knn-burst-3367`: I/O-bound k-NN over ~192 MiB, a third on the local
/// cluster's disk and two thirds in simulated S3, one core per site.
pub const KNN_BURST: Spec = Spec {
    name: "knn-burst-3367",
    why: "I/O-bound k-NN, 1/3 on local disk and 2/3 in simulated S3: storage, netsim, router and the steal policy decide the makespan; apps and the control plane do almost nothing",
    app: AppKind::Knn,
    unit_size: 20,
    units_per_chunk: 104_800,
    n_chunks: 36,
    n_files: 6,
    local_fraction: 0.33,
    local_store: Backend::File,
    cloud_store: Backend::S3Sim,
    local_cores: 1,
    cloud_cores: 1,
    time_scale: 1.0,
    ft: false,
    tcp: false,
    iterations: 1,
};

/// `kmeans-local`: compute-bound k-means (k = 32, 8 dimensions) over
/// 160 MiB in local memory, two local cores, ten Lloyd iterations.
pub const KMEANS_LOCAL: Spec = Spec {
    name: "kmeans-local",
    why: "compute-bound k-means in local memory, 10 iterations: apps decode/reduce is nearly all the time, the control for every framework-side change and where a per-run fixed cost shows",
    app: AppKind::KMeans,
    unit_size: 32,
    units_per_chunk: 2_048,
    n_chunks: 2_560,
    n_files: 8,
    local_fraction: 1.0,
    local_store: Backend::Mem,
    cloud_store: Backend::Mem,
    local_cores: 2,
    cloud_cores: 0,
    time_scale: 1e-9,
    ft: false,
    tcp: false,
    iterations: 10,
};

/// `pagerank-ft-5050`: PageRank with a 3.2 MB reduction object under the
/// full fault-tolerance stack, data split evenly, one core per site.
pub const PAGERANK_FT: Spec = Spec {
    name: "pagerank-ft-5050",
    why: "3.2 MB reduction object under the full FT stack: the per-job ack-gated scratch object and its merge dominate; a classic-path gain that costs the FT path shows here",
    app: AppKind::PageRank,
    unit_size: 8,
    units_per_chunk: 4_096,
    n_chunks: 2_048,
    n_files: 8,
    local_fraction: 0.5,
    local_store: Backend::Mem,
    cloud_store: Backend::Mem,
    local_cores: 1,
    cloud_cores: 1,
    time_scale: 0.02,
    ft: true,
    tcp: false,
    iterations: 5,
};

/// `grant-storm-tcp`: 250 000 eight-unit jobs through the TCP control
/// plane with every modelled delay compressed away.
pub const GRANT_STORM: Spec = Spec {
    name: "grant-storm-tcp",
    why: "60k tiny jobs over the TCP control plane: pool/shard grants, wire framing, the reactor head and per-job bookkeeping are the whole cost; storage and apps do little",
    app: AppKind::Knn,
    unit_size: 20,
    units_per_chunk: 8,
    n_chunks: 60_000,
    n_files: 8,
    local_fraction: 0.5,
    local_store: Backend::Mem,
    cloud_store: Backend::Mem,
    local_cores: 1,
    cloud_cores: 1,
    time_scale: 1e-9,
    ft: false,
    tcp: true,
    iterations: 1,
};

/// Pages in the PageRank graph: 8 bytes each in the reduction object, the
/// paper's "~3 MB".
pub const PAGERANK_PAGES: u32 = 400_000;
const PAGERANK_DAMPING: f64 = 0.85;
const KMEANS_K: usize = 32;
const KNN_K: usize = 10;

/// What an application contributes to a workload: its dataset, the
/// per-iteration application value, and the oracle.
pub trait Scenario: Send + Sync + Sized + 'static {
    /// The Generalized-Reduction application.
    type App: Reduction;
    /// What one iteration hands the next (centroids, ranks, nothing).
    type State: Clone + Send + Sync;

    /// Generate the dataset for `seed` and whatever the scenario derives
    /// from it once (query point, initial centroids, out-degrees).
    fn generate(spec: &Spec, seed: u64) -> (Bytes, Self);
    /// The state the first iteration starts from.
    fn initial(&self) -> Self::State;
    /// The application for one iteration.
    fn app(&self, state: &Self::State) -> Self::App;
    /// Fold an iteration's result into the next iteration's state.
    fn advance(
        &self,
        state: &Self::State,
        app: &Self::App,
        result: &<Self::App as Reduction>::RObj,
    ) -> Self::State;
    /// The expected result of one iteration from `state`, computed serially
    /// over `slices` (the dataset cut at unit boundaries, in order).
    fn oracle(&self, state: &Self::State, slices: &[Bytes]) -> <Self::App as Reduction>::RObj;
    /// Whether a runtime result equals the oracle's, to the application's
    /// stated tolerance.
    fn matches(
        &self,
        expected: &<Self::App as Reduction>::RObj,
        got: &<Self::App as Reduction>::RObj,
    ) -> bool;
}

/// k-NN: one query point, exact top-k.
pub struct KnnScenario {
    query: [f32; 4],
}

impl Scenario for KnnScenario {
    type App = Knn<4>;
    type State = ();

    fn generate(spec: &Spec, seed: u64) -> (Bytes, KnnScenario) {
        let data = gen_id_points::<4>(spec.total_units() as u32, seed);
        // The query is part of the input: derived from the seed, away from
        // the cube's corners.
        let f = |i: u64| {
            0.25 + 0.5 * (((seed.wrapping_mul(2_654_435_761) >> (8 * i)) & 0xff) as f32 / 255.0)
        };
        (data, KnnScenario { query: [f(0), f(1), f(2), f(3)] })
    }

    fn initial(&self) {}

    fn app(&self, _: &()) -> Knn<4> {
        Knn::new(self.query, KNN_K)
    }

    fn advance(&self, _: &(), _: &Knn<4>, _: &KnnObj) {}

    fn oracle(&self, state: &(), slices: &[Bytes]) -> KnnObj {
        // `knn_oracle` sorts everything it is given; running it per slice
        // and folding the per-slice winners through the same total order
        // yields exactly the global top-k without a dataset-sized vector.
        let mut obj = self.app(state).make_robj();
        for slice in slices {
            for n in knn_oracle(slice, &self.query, KNN_K) {
                obj.0.observe(n);
            }
        }
        obj
    }

    fn matches(&self, expected: &KnnObj, got: &KnnObj) -> bool {
        let sorted = |o: &KnnObj| -> Vec<Neighbor> { o.clone().0.into_sorted() };
        sorted(expected) == sorted(got)
    }
}

/// k-means: centroids fed forward, counts exact, sums to 1e-6.
pub struct KMeansScenario {
    initial: Vec<[f64; 8]>,
}

impl Scenario for KMeansScenario {
    type App = KMeans<8>;
    type State = Vec<[f64; 8]>;

    fn generate(spec: &Spec, seed: u64) -> (Bytes, KMeansScenario) {
        let (data, _) = gen_clustered_points::<8>(spec.total_units() as u32, KMEANS_K, 0.08, seed);
        // Point i is drawn around centre i mod k, so the first k points
        // start one centroid inside every cluster.
        let initial = data[..KMEANS_K * 32]
            .chunks_exact(32)
            .map(|rec| {
                let mut c = [0f64; 8];
                for (x, raw) in c.iter_mut().zip(rec.chunks_exact(4)) {
                    *x = f64::from(f32::from_le_bytes(raw.try_into().expect("4-byte coordinate")));
                }
                c
            })
            .collect();
        (data, KMeansScenario { initial })
    }

    fn initial(&self) -> Vec<[f64; 8]> {
        self.initial.clone()
    }

    fn app(&self, state: &Vec<[f64; 8]>) -> KMeans<8> {
        KMeans::new(state.clone())
    }

    fn advance(&self, state: &Vec<[f64; 8]>, _: &KMeans<8>, result: &KMeansObj) -> Vec<[f64; 8]> {
        result.new_centroids(state)
    }

    fn oracle(&self, state: &Vec<[f64; 8]>, slices: &[Bytes]) -> KMeansObj {
        // One serial `kmeans_oracle` per slice on two threads (halving the
        // untimed oracle cost), merged in slice order.
        let (left, right) = slices.split_at(slices.len() / 2);
        let run = |part: &[Bytes]| {
            let mut acc = KMeansObj::zeros(state.len(), 8);
            for slice in part {
                acc.merge(kmeans_oracle(slice, state));
            }
            acc
        };
        let (mut a, b) = std::thread::scope(|s| {
            let right = s.spawn(|| run(right));
            (run(left), right.join().expect("oracle thread panicked"))
        });
        a.merge(b);
        a
    }

    fn matches(&self, expected: &KMeansObj, got: &KMeansObj) -> bool {
        expected.counts == got.counts
            && expected.sums.len() == got.sums.len()
            && expected
                .sums
                .iter()
                .zip(&got.sums)
                .all(|(e, g)| (e - g).abs() <= 1e-6 * e.abs().max(1.0))
    }
}

/// PageRank: rank vector fed forward, 1e-9 per page against `reduce_serial`.
pub struct PageRankScenario {
    outdeg: Vec<u32>,
}

impl Scenario for PageRankScenario {
    type App = PageRank;
    type State = Vec<f64>;

    fn generate(spec: &Spec, seed: u64) -> (Bytes, PageRankScenario) {
        let data = gen_edges(PAGERANK_PAGES, spec.total_units() as u32, seed);
        let outdeg = PageRank::outdegrees(&data, PAGERANK_PAGES as usize);
        (data, PageRankScenario { outdeg })
    }

    fn initial(&self) -> Vec<f64> {
        vec![1.0 / f64::from(PAGERANK_PAGES); PAGERANK_PAGES as usize]
    }

    fn app(&self, state: &Vec<f64>) -> PageRank {
        PageRank::new(state, &self.outdeg, PAGERANK_DAMPING)
    }

    fn advance(&self, _: &Vec<f64>, app: &PageRank, result: &RankMass) -> Vec<f64> {
        app.next_ranks(result)
    }

    fn oracle(&self, state: &Vec<f64>, slices: &[Bytes]) -> RankMass {
        reduce_serial(&self.app(state), slices)
    }

    fn matches(&self, expected: &RankMass, got: &RankMass) -> bool {
        expected.0.len() == got.0.len()
            && expected.0.iter().zip(&got.0).all(|(e, g)| (e - g).abs() <= 1e-9)
    }
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub generate_s: f64,
    /// `organize`: cutting into files/chunks and placing them.
    pub organize_s: f64,
    /// `encode_index`.
    pub index_encode_s: f64,
    /// `decode_index`.
    pub index_decode_s: f64,
    /// Store construction (file writes, S3 model).
    pub stores_s: f64,
    /// Everything above, end to end.
    pub total_s: f64,
}

/// A scratch directory removed on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload ready to burst: data generated, organised and behind stores.
pub struct Prepared<S: Scenario> {
    /// The frozen sizes and configuration.
    pub spec: Spec,
    scenario: S,
    data: Bytes,
    /// The index the head builds its pool from (round-tripped through the
    /// binary index format, as a deployment would read it).
    pub index: DataIndex,
    /// One store per site that hosts data.
    pub stores: Stores,
    /// How long set-up took, by stage.
    pub setup: SetupTimes,
    /// Per-iteration oracle results, filled by [`Prepared::compute_oracle`].
    expected: Vec<<S::App as Reduction>::RObj>,
    _scratch: Option<ScratchDir>,
}

/// Everything the ladder writes besides its outputs goes under this
/// directory of the working directory; `main` removes it once it is empty.
pub const SCRATCH_DIR: &str = ".ladder_scratch";

/// Unique-per-process scratch directory counter (set-up runs several times).
static SCRATCH_SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

fn build_store(
    backend: Backend,
    site: SiteId,
    files: Vec<Bytes>,
    time_scale: f64,
    scratch: &mut Option<ScratchDir>,
) -> Result<Arc<dyn ChunkStore>, String> {
    Ok(match backend {
        Backend::Mem => Arc::new(MemStore::new(site, files)),
        Backend::S3Sim => {
            Arc::new(S3SimStore::new(MemStore::new(site, files), S3Config::paper(time_scale)))
        }
        Backend::File => {
            let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::current_dir()
                .map_err(|e| format!("no working directory: {e}"))?
                .join(SCRATCH_DIR)
                .join(format!("{}-{seq}", std::process::id()));
            let store = FileStore::create(site, &dir, &files)
                .map_err(|e| format!("cannot write {}: {e}", dir.display()))?;
            *scratch = Some(ScratchDir(dir));
            Arc::new(store)
        }
    })
}

/// A dataset cut and placed: the index plus, per hosting site, its files as
/// a vector indexed by *global* file id (ids the site does not host stay
/// empty) — the shape `MemStore` and `FileStore` address files by.
pub struct Organized {
    /// Layout metadata.
    pub index: DataIndex,
    /// Files per hosting site.
    pub files: BTreeMap<SiteId, Vec<Bytes>>,
}

/// `organize` `data` with `spec`'s unit and chunk size into `n_files` files
/// placed by `spec.local_fraction`.
pub fn organize_dense(data: &Bytes, spec: &Spec, n_files: u32) -> Result<Organized, String> {
    let layout = LayoutParams { n_files, ..spec.layout() };
    let mut place = fraction_placement(spec.local_fraction, n_files);
    let organized = organize(data, layout, &mut place)?;
    let mut files: BTreeMap<SiteId, Vec<Bytes>> = BTreeMap::new();
    for fm in &organized.index.files {
        let bytes = organized.stores[&fm.site]
            .read(fm.id, 0, fm.len)
            .map_err(|e| format!("organized store: {e}"))?;
        files.entry(fm.site).or_insert_with(|| vec![Bytes::new(); organized.index.files.len()])
            [fm.id.0 as usize] = bytes;
    }
    Ok(Organized { index: organized.index, files })
}

impl<S: Scenario> Prepared<S> {
    /// Generate, organise, round-trip the index and build the stores. This
    /// whole function is what `setup_s` times; the oracle is separate.
    pub fn setup(spec: Spec, seed: u64) -> Result<Prepared<S>, String> {
        let t0 = Instant::now();
        let (data, scenario) = S::generate(&spec, seed);
        let generate_s = t0.elapsed().as_secs_f64();
        if data.len() as u64 != spec.total_bytes() {
            return Err(format!(
                "generator produced {} bytes, spec says {}",
                data.len(),
                spec.total_bytes()
            ));
        }

        let t = Instant::now();
        let organized = organize_dense(&data, &spec, spec.n_files)?;
        let organize_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let encoded = encode_index(&organized.index);
        let index_encode_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = decode_index(&encoded).map_err(|e| format!("index round trip: {e}"))?;
        let index_decode_s = t.elapsed().as_secs_f64();
        if index != organized.index {
            return Err("index changed across encode/decode".into());
        }
        if index.n_chunks() as u64 != spec.n_chunks {
            return Err(format!(
                "index has {} chunks, spec says {}",
                index.n_chunks(),
                spec.n_chunks
            ));
        }

        let t = Instant::now();
        let mut scratch = None;
        let mut stores: Stores = BTreeMap::new();
        for (site, mut files) in organized.files {
            let backend = if site == SiteId::LOCAL { spec.local_store } else { spec.cloud_store };
            if backend == Backend::File {
                // A directory store discovers files densely from id 0, and
                // `fraction_placement` gives the local site the first ids.
                files.truncate(index.files.iter().filter(|f| f.site == site).count());
            }
            stores.insert(site, build_store(backend, site, files, spec.time_scale, &mut scratch)?);
        }
        let stores_s = t.elapsed().as_secs_f64();

        let setup = SetupTimes {
            generate_s,
            organize_s,
            index_encode_s,
            index_decode_s,
            stores_s,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok(Prepared {
            spec,
            scenario,
            data,
            index,
            stores,
            setup,
            expected: Vec::new(),
            _scratch: scratch,
        })
    }

    /// The dataset cut into at most 16 MiB unit-aligned slices, in order.
    fn slices(&self) -> Vec<Bytes> {
        let unit = self.spec.unit_size as usize;
        let step = (16 << 20) / unit * unit;
        (0..self.data.len())
            .step_by(step)
            .map(|at| self.data.slice(at..(at + step).min(self.data.len())))
            .collect()
    }

    /// Compute the per-iteration expected results with the serial oracle.
    /// Not part of set-up time.
    pub fn compute_oracle(&mut self) {
        let slices = self.slices();
        let mut state = self.scenario.initial();
        self.expected.clear();
        for _ in 0..self.spec.iterations {
            let app = self.scenario.app(&state);
            let expected = self.scenario.oracle(&state, &slices);
            state = self.scenario.advance(&state, &app, &expected);
            self.expected.push(expected);
        }
    }
}

/// How a burst is instrumented.
pub enum Mode<'a> {
    /// Nothing attached: the end-to-end measurement.
    Plain,
    /// Stores and application wrapped in span decorators.
    Traced(&'a Arc<SpanLog>),
    /// The runtime's own telemetry and live metrics switched on.
    Observed(Telemetry, Metrics),
}

/// What one burst produced.
#[derive(Debug, Clone, Default)]
pub struct Burst {
    /// Wall time, call to globally reduced result, summed over iterations.
    pub wall_s: f64,
    /// User + system CPU time the process spent during the burst.
    pub cpu_s: f64,
    /// Jobs the burst had to merge (chunks × iterations).
    pub attempted: u64,
    /// Jobs failed, abandoned, or belonging to an iteration whose result
    /// missed its oracle or whose run returned an error.
    pub failed: u64,
    /// Every iteration matched its oracle and merged every chunk once.
    pub correct: bool,
    /// First problem met, for the log.
    pub problem: Option<String>,
    /// Head: batch requests served.
    pub head_requests: u64,
    /// Head: completions merged.
    pub head_completions: u64,
    /// Head: failure reports.
    pub head_failures: u64,
    /// Head: jobs abandoned.
    pub head_abandoned: u64,
    /// Jobs processed away from their data.
    pub stolen: u64,
    /// Bytes fetched across sites.
    pub remote_bytes: u64,
    /// Σ over slaves of time in chunk retrieval.
    pub retrieval_s: f64,
    /// Σ over slaves of time in decode + reduce.
    pub processing_s: f64,
    /// Σ over sites of barrier wait + local combination + end-of-run idle.
    pub sync_s: f64,
    /// Time in the global reduction phase.
    pub global_reduction_s: f64,
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn proc_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// The workload's entry point: `run_hybrid_tcp` or `run_hybrid`.
pub fn run_once<R: Reduction>(
    app: &R,
    index: &DataIndex,
    stores: Stores,
    config: &RuntimeConfig,
    tcp: bool,
) -> Result<RunOutcome<R::RObj>, RunError> {
    if tcp {
        run_hybrid_tcp(app, index, stores, config)
    } else {
        run_hybrid(app, index, stores, config)
    }
}

impl<S: Scenario> Prepared<S> {
    fn absorb<O>(&self, burst: &mut Burst, outcome: &RunOutcome<O>) {
        burst.head_requests += outcome.head.requests;
        burst.head_completions += outcome.head.completions;
        burst.head_failures += outcome.head.failures;
        burst.head_abandoned += outcome.head.abandoned;
        burst.failed += outcome.head.failures + outcome.head.abandoned;
        burst.stolen += outcome.report.total_stolen();
        burst.global_reduction_s += outcome.report.global_reduction;
        for (&site, stats) in &outcome.report.sites {
            let cores = f64::from(if site == SiteId::LOCAL {
                self.spec.local_cores
            } else {
                self.spec.cloud_cores
            });
            burst.remote_bytes += stats.remote_bytes;
            burst.retrieval_s += stats.breakdown.retrieval * cores;
            burst.processing_s += stats.breakdown.processing * cores;
            burst.sync_s += stats.breakdown.sync;
        }
    }

    /// Run one burst — `spec.iterations` framework runs, each fed the
    /// previous result — and check every iteration against the oracle.
    pub fn burst(&self, mode: &Mode<'_>) -> Burst {
        assert_eq!(self.expected.len(), self.spec.iterations, "compute_oracle first");
        let mut config = self.spec.config();
        if let Mode::Observed(telemetry, metrics) = mode {
            config.telemetry = telemetry.clone();
            config.metrics = metrics.clone();
        }
        let stores: Stores = match mode {
            Mode::Traced(log) => self
                .stores
                .iter()
                .map(|(&s, st)| {
                    (
                        s,
                        Arc::new(SpanStore::new(Arc::clone(st), Arc::clone(log)))
                            as Arc<dyn ChunkStore>,
                    )
                })
                .collect(),
            _ => self.stores.clone(),
        };

        let mut burst =
            Burst { attempted: self.spec.jobs_per_burst(), correct: true, ..Burst::default() };
        let miss = |burst: &mut Burst, what: String| {
            burst.correct = false;
            burst.failed += self.spec.n_chunks;
            burst.problem.get_or_insert(what);
        };
        let cpu0 = proc_cpu_s();
        let mut state = self.scenario.initial();
        for (iter, expected) in self.expected.iter().enumerate() {
            let app = self.scenario.app(&state);
            // The timed region is exactly the framework call.
            let (wall, result, app) = match mode {
                Mode::Traced(log) => {
                    let traced = SpanApp::new(app, Arc::clone(log));
                    let t = Instant::now();
                    let out =
                        run_once(&traced, &self.index, stores.clone(), &config, self.spec.tcp);
                    let wall = t.elapsed().as_secs_f64();
                    let out = out.map(|o| RunOutcome {
                        result: o.result.inner,
                        report: o.report,
                        head: o.head,
                    });
                    (wall, out, traced.into_inner())
                }
                _ => {
                    let t = Instant::now();
                    let out = run_once(&app, &self.index, stores.clone(), &config, self.spec.tcp);
                    (t.elapsed().as_secs_f64(), out, app)
                }
            };
            burst.wall_s += wall;
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    miss(&mut burst, format!("iteration {iter}: run failed: {e}"));
                    break;
                }
            };
            self.absorb(&mut burst, &outcome);
            if outcome.head.completions != self.spec.n_chunks {
                miss(
                    &mut burst,
                    format!(
                        "iteration {iter}: head merged {} completions, dataset has {} chunks",
                        outcome.head.completions, self.spec.n_chunks
                    ),
                );
            } else if !self.scenario.matches(expected, &outcome.result) {
                miss(
                    &mut burst,
                    format!("iteration {iter}: result differs from the serial oracle"),
                );
            }
            // Feed the oracle's result forward, not the runtime's: the two
            // agree to the tolerance just checked, and starting every
            // iteration from exactly the state its oracle started from keeps
            // the comparison exact (no last-bit drift flipping a k-means
            // assignment three iterations later).
            state = self.scenario.advance(&state, &app, expected);
        }
        burst.cpu_s = proc_cpu_s() - cpu0;
        burst.failed = burst.failed.min(burst.attempted);
        burst
    }

    /// The application of the first iteration (what the probes exercise).
    pub fn first_app(&self) -> S::App {
        self.scenario.app(&self.scenario.initial())
    }

    /// The first `n` bytes of the dataset, for probes that need real data.
    pub fn data_prefix(&self, n: usize) -> Bytes {
        self.data.slice(..n.min(self.data.len()))
    }
}

#[cfg(test)]
impl<S: Scenario> Prepared<S> {
    /// Test hook: keep this value's oracle but burst over `other`'s dataset.
    pub fn with_data_of(self, other: Prepared<S>) -> Prepared<S> {
        Prepared { expected: self.expected, ..other }
    }
}
