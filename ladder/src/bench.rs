//! One workload run: set-up, warm-up burst, timed bursts, and — in a traced
//! run — the in-situ burst, the observed burst and the probes.
//!
//! End-to-end metrics come from untraced bursts only. A traced run repeats
//! a few untraced bursts of its own so that `trace.overhead_ratio` and
//! `obs.overhead_ratio` compare bursts of one process.

use crate::api::{Metrics, Recorder, Telemetry};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{burst_self_frac, span_stats, Span, SpanLog};
use crate::stats::{median, rel_iqr, rel_range};
use crate::workloads::{
    AppKind, Burst, KMeansScenario, KnnScenario, Mode, PageRankScenario, Prepared, Scenario,
    SetupTimes, Spec, GRANT_STORM, KMEANS_LOCAL, KNN_BURST, PAGERANK_FT,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Every workload, in ladder order.
pub const SPECS: [Spec; 4] = [KNN_BURST, KMEANS_LOCAL, PAGERANK_FT, GRANT_STORM];

/// Wall time one burst was sized to at the seed commit. `--seconds` buys
/// `seconds / NOMINAL_BURST_S` timed bursts (at least `MIN_TIMED_BURSTS`):
/// a fixed amount of work, not a deadline, so job counts — and the memory a
/// run retains per burst — do not depend on how fast the box is today.
const NOMINAL_BURST_S: f64 = 3.5;
const MIN_TIMED_BURSTS: usize = 3;

/// Times an untraced run repeats set-up after the cold one (`setup_s` is the
/// median): enough repeats to generate ~256 MB in all, so a 10 MB dataset is
/// set up 15 times and a 170 MB one 5 times. A constant of the workload, like
/// every size.
fn setup_repeats(spec: &Spec) -> usize {
    ((256 << 20) / spec.total_bytes() as usize).clamp(5, 15)
}

/// A prepared workload with its application type erased.
pub trait Bench {
    /// Stage times of the set-up that produced this value.
    fn setup_times(&self) -> SetupTimes;
    /// Compute the serial oracle every burst is checked against.
    fn compute_oracle(&mut self);
    /// Run and check one burst.
    fn burst(&self, mode: &Mode<'_>) -> Burst;
    /// The probes whose input is the workload's application, index or stores.
    fn probes(&self) -> Result<BTreeMap<&'static str, f64>, String>;
}

impl<S: Scenario> Bench for Prepared<S> {
    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn compute_oracle(&mut self) {
        Prepared::compute_oracle(self);
    }

    fn burst(&self, mode: &Mode<'_>) -> Burst {
        Prepared::burst(self, mode)
    }

    fn probes(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let spec = &self.spec;
        let chunk_len = (spec.units_per_chunk * u64::from(spec.unit_size)) as usize;
        let app = self.first_app();
        let mut m = BTreeMap::new();
        let budget = Duration::from_millis(700);
        m.insert(
            "fetch.chunk.us_p50",
            probes::fetch_chunk_us_p50(&self.index, &self.stores, budget),
        );
        m.insert(
            "fetch.reassemble.ns_per_kib",
            probes::reassemble_ns_per_kib(spec, &self.data_prefix(64 * chunk_len)),
        );
        m.insert("throttle.oversleep_frac", probes::throttle_oversleep_frac(spec));
        let (local, remote) = probes::router_fetch_us_p50(spec, &self.index, &self.stores, budget);
        m.insert("router.fetch_local.us_p50", local);
        m.insert("router.fetch_remote.us_p50", remote);
        m.insert("tree_reduce.ms", probes::tree_reduce_ms(&app, &self.data_prefix(chunk_len)));
        let (build_ms, grant_ns) = probes::pool_build_and_grant(&self.index);
        m.insert("pool.build_ms", build_ms);
        m.insert("pool.grant.ns_per_job", grant_ns);
        m.insert("wire.frame.ns", probes::wire_frame_ns());
        let rtt = probes::grant_rtt(&self.index, Duration::from_millis(1_500))
            .map_err(|e| format!("grant probe: {e}"))?;
        m.insert("grant.rtt.us_p50", rtt.us_p50);
        m.insert("grant.rtt.us_p99", rtt.us_p99);
        m.insert("grant.per_s", rtt.per_s);
        m.insert(
            "run.fixed_ms",
            probes::run_fixed_ms(spec, &app, &self.data_prefix(2 * chunk_len))?,
        );
        m.insert("telemetry.emit.ns", probes::telemetry_emit_ns());
        m.insert("metrics.observe.ns", probes::metrics_observe_ns());
        Ok(m)
    }
}

/// Look a workload up by name.
pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

/// Set a workload up for `seed`.
pub fn prepare(spec: Spec, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match spec.app {
        AppKind::Knn => Box::new(Prepared::<KnnScenario>::setup(spec, seed)?),
        AppKind::KMeans => Box::new(Prepared::<KMeansScenario>::setup(spec, seed)?),
        AppKind::PageRank => Box::new(Prepared::<PageRankScenario>::setup(spec, seed)?),
    })
}

/// Peak resident set of this process, decimal MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// The value as measured.
    pub value: f64,
    /// Relative spread of the repeats behind it, `(Q3 − Q1) / median`; 0 for
    /// a single measurement or a count.
    pub spread: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Data seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Every burst matched its oracle and merged every chunk exactly once.
    pub correct: bool,
    /// Jobs attempted over all bursts of the run.
    pub attempted: u64,
    /// Jobs failed, abandoned or in a mismatching burst.
    pub failed: u64,
    /// Wall time of each untraced timed burst, seconds.
    pub burst_walls: Vec<f64>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Reported>,
    /// First problem met, if any.
    pub problem: Option<String>,
    /// Spans of the in-situ burst (traced runs only).
    pub spans: Vec<Span>,
}

struct Tally {
    correct: bool,
    attempted: u64,
    failed: u64,
    problem: Option<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally { correct: true, attempted: 0, failed: 0, problem: None }
    }

    fn add(&mut self, what: &str, burst: &Burst) {
        self.correct &= burst.correct;
        self.attempted += burst.attempted;
        self.failed += burst.failed;
        if let (None, Some(p)) = (&self.problem, &burst.problem) {
            self.problem = Some(format!("{what} burst: {p}"));
        }
    }
}

/// `n` plain bursts, one at a time.
fn timed_bursts(bench: &dyn Bench, n: usize, tally: &mut Tally) -> Vec<Burst> {
    let mut bursts: Vec<Burst> = Vec::new();
    while bursts.len() < n {
        let burst = bench.burst(&Mode::Plain);
        tally.add("timed", &burst);
        eprintln!(
            "  burst {}: {:.4} s wall, {:.2} s cpu{}",
            bursts.len() + 1,
            burst.wall_s,
            burst.cpu_s,
            if burst.correct { "" } else { "  ** MISMATCH **" }
        );
        bursts.push(burst);
    }
    bursts
}

/// The untraced run: `setup_s` from repeated set-ups, then a warm-up burst
/// and timed bursts one at a time (closed loop, one client).
pub fn run_untraced(spec: Spec, seed: u64, seconds: f64) -> Result<RunRecord, String> {
    // The first set-up is cold (page cache, first-touch faults) and is the
    // warm-up of the set-up measurement, exactly as the first burst is of
    // the burst measurement.
    let mut bench = prepare(spec, seed)?;
    eprintln!("  cold set-up: {:.4} s", bench.setup_times().total_s);
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < setup_repeats(&spec) {
        // Drop the previous dataset first so the peak stays one dataset.
        drop(bench);
        bench = prepare(spec, seed)?;
        let t = bench.setup_times();
        eprintln!(
            "  set-up {}: {:.4} s (generate {:.4}, organize {:.4}, index {:.4}+{:.4}, stores {:.4})",
            setups.len() + 1,
            t.total_s,
            t.generate_s,
            t.organize_s,
            t.index_encode_s,
            t.index_decode_s,
            t.stores_s
        );
        setups.push(t.total_s);
    }
    bench.compute_oracle();

    let mut tally = Tally::new();
    let warm = bench.burst(&Mode::Plain);
    tally.add("warm-up", &warm);
    eprintln!("  warm-up: {:.4} s", warm.wall_s);
    let n = ((seconds / NOMINAL_BURST_S).round() as usize).max(MIN_TIMED_BURSTS);
    let bursts = timed_bursts(bench.as_ref(), n, &mut tally);

    let walls: Vec<f64> = bursts.iter().map(|b| b.wall_s).collect();
    let makespan = median(&walls).expect("timed bursts");
    let spread = rel_iqr(&walls);
    let mut metrics = BTreeMap::new();
    metrics.insert("makespan_s", Reported { value: makespan, spread });
    metrics
        .insert("jobs_per_s", Reported { value: spec.jobs_per_burst() as f64 / makespan, spread });
    metrics.insert(
        "mb_per_s",
        Reported { value: spec.bytes_per_burst() as f64 / 1e6 / makespan, spread },
    );
    metrics.insert("peak_rss_mb", Reported { value: peak_rss_mb(), spread: 0.0 });
    metrics.insert(
        "setup_s",
        Reported { value: median(&setups).expect("set-ups"), spread: rel_iqr(&setups) },
    );
    debug_assert!(END_TO_END.iter().all(|d| metrics.contains_key(d.name)));
    Ok(RunRecord {
        workload: spec.name,
        seed,
        traced: false,
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        burst_walls: walls,
        metrics,
        problem: tally.problem,
        spans: Vec::new(),
    })
}

/// The traced run: an untraced burst, one burst through the span decorators,
/// another untraced burst (the two are the base), one with the runtime's own
/// telemetry and metrics on, then the probes.
pub fn run_traced(spec: Spec, seed: u64) -> Result<RunRecord, String> {
    let mut bench = prepare(spec, seed)?;
    let setup = bench.setup_times();
    bench.compute_oracle();

    let mut tally = Tally::new();
    let warm = bench.burst(&Mode::Plain);
    tally.add("warm-up", &warm);
    eprintln!("  warm-up: {:.4} s", warm.wall_s);
    // The two base bursts bracket the traced one, so a box that is speeding
    // up or slowing down over the minute moves base and traced alike.
    let mut plain = timed_bursts(bench.as_ref(), 1, &mut tally);

    let log = Arc::new(SpanLog::new());
    log.set_burst(1);
    let start_ns = log.now_ns();
    let traced = bench.burst(&Mode::Traced(&log));
    let end_ns = log.now_ns();
    tally.add("traced", &traced);
    eprintln!("  traced burst: {:.4} s", traced.wall_s);
    let spans = log.snapshot();

    plain.extend(timed_bursts(bench.as_ref(), 1, &mut tally));
    let walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
    let base = median(&walls).expect("untraced bursts");
    let last = plain.last().expect("untraced bursts");

    let recorder = Arc::new(Recorder::new());
    let observed = bench.burst(&Mode::Observed(Telemetry::to(recorder.clone()), Metrics::on()));
    tally.add("observed", &observed);
    eprintln!("  observed burst: {:.4} s, {} events", observed.wall_s, recorder.len());
    drop(recorder);

    let mut values: BTreeMap<&'static str, f64> = bench.probes()?;

    let reads = span_stats(&spans, "store.read");
    values.insert("store.read.busy_s", reads.busy_s);
    values.insert("store.read.count", reads.count as f64);
    values.insert("store.read.bytes", log.bytes_read.load(Ordering::Relaxed) as f64);
    values.insert("store.read.us_p50", reads.us_p50);
    values.insert("store.read.us_p90", reads.us_p90);
    values.insert("organize.s", setup.organize_s);
    values.insert("index.encode_s", setup.index_encode_s);
    values.insert("index.decode_s", setup.index_decode_s);
    values.insert("router.remote_bytes", last.remote_bytes as f64);
    values.insert("jobs.stolen", last.stolen as f64);
    let units = log.units_decoded.load(Ordering::Relaxed) as f64;
    let decode = span_stats(&spans, "app.decode");
    let reduce = span_stats(&spans, "app.reduce_group");
    values.insert("app.decode.busy_s", decode.busy_s);
    values.insert("app.decode.ns_per_unit", decode.busy_s * 1e9 / units.max(1.0));
    values.insert("app.reduce_group.busy_s", reduce.busy_s);
    values.insert("app.reduce_group.ns_per_unit", reduce.busy_s * 1e9 / units.max(1.0));
    values.insert("app.units", units);
    let make = span_stats(&spans, "robj.make");
    let merge = span_stats(&spans, "robj.merge");
    values.insert("robj.make.count", make.count as f64);
    values.insert("robj.make.busy_s", make.busy_s);
    values.insert("robj.merge.count", merge.count as f64);
    values.insert("robj.merge.busy_s", merge.busy_s);
    values.insert("robj.merge.us_p50", merge.us_p50);
    values.insert("site.sync_s", last.sync_s);
    values.insert("global_reduction.s", last.global_reduction_s);
    values.insert("head.requests", last.head_requests as f64);
    values.insert("head.completions", last.head_completions as f64);
    values.insert("head.failures", last.head_failures as f64);
    values.insert("head.abandoned", last.head_abandoned as f64);
    values.insert("slave.retrieval_s", last.retrieval_s);
    values.insert("slave.processing_s", last.processing_s);
    values.insert(
        "slave.overhead_frac",
        1.0 - (last.retrieval_s + last.processing_s) / (last.wall_s * f64::from(spec.cores())),
    );
    values.insert("obs.overhead_ratio", observed.wall_s / base);
    values.insert(
        "proc.cpu_s",
        median(&plain.iter().map(|b| b.cpu_s).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    values.insert("makespan.spread", rel_range(&walls));
    values.insert("burst.self_frac", burst_self_frac(&spans, start_ns, end_ns));
    values.insert("trace.overhead_ratio", traced.wall_s / base);

    let mut metrics = BTreeMap::new();
    for def in PER_LAYER {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
        metrics.insert(def.name, Reported { value, spread: 0.0 });
    }
    Ok(RunRecord {
        workload: spec.name,
        seed,
        traced: true,
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        burst_walls: walls,
        metrics,
        problem: tally.problem,
        spans,
    })
}
