//! The metric names the ladder prints — the same tables `BENCHMARK.json`
//! carries (a unit test holds the two together).

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees. Measured on untraced bursts only.
pub const END_TO_END: &[MetricDef] = &[
    e2e("makespan_s", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("mb_per_s", "MB/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, layer = module. No bounds: they explain, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    // storage, in situ (SpanStore)
    layer("store.read.busy_s", "s", "lower"),
    layer("store.read.count", "count", "lower"),
    layer("store.read.bytes", "B", "lower"),
    layer("store.read.us_p50", "us", "lower"),
    layer("store.read.us_p90", "us", "lower"),
    // storage, probes
    layer("fetch.chunk.us_p50", "us", "lower"),
    layer("fetch.reassemble.ns_per_kib", "ns/KiB", "lower"),
    layer("organize.s", "s", "lower"),
    layer("index.encode_s", "s", "lower"),
    layer("index.decode_s", "s", "lower"),
    // netsim, probe
    layer("throttle.oversleep_frac", "ratio", "lower"),
    // cluster::router, probes and report
    layer("router.fetch_local.us_p50", "us", "lower"),
    layer("router.fetch_remote.us_p50", "us", "lower"),
    layer("router.remote_bytes", "B", "lower"),
    layer("jobs.stolen", "count", "lower"),
    // apps, in situ (SpanApp)
    layer("app.decode.busy_s", "s", "lower"),
    layer("app.decode.ns_per_unit", "ns", "lower"),
    layer("app.reduce_group.busy_s", "s", "lower"),
    layer("app.reduce_group.ns_per_unit", "ns", "lower"),
    layer("app.units", "count", "lower"),
    // core::reduction, in situ (SpanApp::make_robj, SpanRObj::merge) and probe
    layer("robj.make.count", "count", "lower"),
    layer("robj.make.busy_s", "s", "lower"),
    layer("robj.merge.count", "count", "lower"),
    layer("robj.merge.busy_s", "s", "lower"),
    layer("robj.merge.us_p50", "us", "lower"),
    layer("tree_reduce.ms", "ms", "lower"),
    // cluster, report
    layer("site.sync_s", "s", "lower"),
    layer("global_reduction.s", "s", "lower"),
    // core::pool / core::shard, probe
    layer("pool.build_ms", "ms", "lower"),
    layer("pool.grant.ns_per_job", "ns", "lower"),
    // cluster::wire, probe
    layer("wire.frame.ns", "ns", "lower"),
    // cluster::reactor / cluster::net, probe
    layer("grant.rtt.us_p50", "us", "lower"),
    layer("grant.rtt.us_p99", "us", "lower"),
    layer("grant.per_s", "1/s", "higher"),
    // cluster, report (HeadReport)
    layer("head.requests", "count", "lower"),
    layer("head.completions", "count", "higher"),
    layer("head.failures", "count", "lower"),
    layer("head.abandoned", "count", "lower"),
    // cluster::runtime, report and probe
    layer("slave.retrieval_s", "s", "lower"),
    layer("slave.processing_s", "s", "lower"),
    layer("slave.overhead_frac", "ratio", "lower"),
    layer("run.fixed_ms", "ms", "lower"),
    // core::telemetry / core::metrics, probes and a measured differential
    layer("telemetry.emit.ns", "ns", "lower"),
    layer("metrics.observe.ns", "ns", "lower"),
    layer("obs.overhead_ratio", "ratio", "lower"),
    // process
    layer("proc.cpu_s", "s", "lower"),
    layer("makespan.spread", "ratio", "lower"),
    // the tracing itself
    layer("burst.self_frac", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];
