//! `cloudburst` — command-line front end for the framework.
//!
//! ```text
//! cloudburst generate <app> --out <file> [--units N] [--seed S] [app options]
//! cloudburst organize --data <file> --unit-size N --out <dir>
//!                     [--chunk-units N] [--files N] [--local-frac F]
//! cloudburst info     --org <dir>
//! cloudburst run      <app> --org <dir> [--local-cores N] [--cloud-cores N]
//!                     [--retry N] [--time-scale F] [app options]
//! cloudburst simulate [artifact]
//! ```
//!
//! `organize` lays a raw dataset out as on-disk stores (`<dir>/local/`,
//! `<dir>/cloud/`) plus the binary index (`<dir>/dataset.idx`); `run` then
//! executes any of the bundled applications over it with the threaded
//! cloud-bursting runtime. `simulate` regenerates the paper's evaluation
//! artifacts (same as the `repro` binary).

use bytes::Bytes;
use cloudburst::prelude::*;
use cloudburst_apps::gen;
use cloudburst_apps::kmeans::KMeans;
use cloudburst_apps::knn::Knn;
use cloudburst_apps::pagerank::PageRank;
use cloudburst_cluster::FaultPolicy;
use cloudburst_core::{
    analyze, check_sequence, chrome_trace, derive_report, diff_benchmarks, events_to_jsonl,
    http_get, http_get_status, ns_since, parse_events_jsonl, parse_exposition, report_to_json,
    ConsoleSink, Direction, Event, EventKind, EventSink, Exposition, FlightRecorder, HealthConfig,
    HealthDetector, HealthMonitor, HealthSample, Json, JsonlSink, LedgerTotals, LogLevel, Metrics,
    MetricsServer, Recorder, Registry, RouteHandler, SiteTotals, Telemetry,
};
use cloudburst_sim::{cost_of_usage, CostReport, PricingModel};
use cloudburst_storage::{organize_redundant, read_index_meta, write_index_redundant, SiteStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIM: usize = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("organize") => cmd_organize(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("check-json") => cmd_check_json(&args[1..]),
        Some("check-metrics") => cmd_check_metrics(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `cloudburst help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "cloudburst — data-intensive computing with cloud bursting

USAGE:
  cloudburst generate <knn|kmeans|pagerank|wordcount> --out FILE
             [--units N] [--seed S] [--pages N] [--clusters K] [--vocab V]
  cloudburst organize --data FILE --unit-size N --out DIR
             [--chunk-units N] [--files N] [--local-frac F] [--redundancy R]
  cloudburst info --org DIR
  cloudburst run <knn|kmeans|pagerank|wordcount> --org DIR
             [--local-cores N] [--cloud-cores N] [--retry N] [--time-scale F]
             [--pipeline-depth D] [--ft] [--chaos SPEC]
             [--stats-out FILE] [--events-out FILE] [--trace-out FILE]
             [--log-level off|info|debug] [--metrics-addr ADDR] [--watch]
             [--metrics-out FILE] [--flight-recorder-cap N] [--health SPEC]
             [--k K] [--pages N] [--iterations I] [--damping D]
  cloudburst simulate [fig3a|fig3b|fig3c|fig4a|fig4b|fig4c|table1|table2|summary|all]
  cloudburst check-json FILE [--seq]
  cloudburst check-metrics <FILE|http://HOST:PORT/metrics>
             [--retries N] [--against-stats STATS.json]
  cloudburst health <http://HOST:PORT>  fetch and render a live /healthz verdict
  cloudburst explain EVENTS.jsonl [--stats STATS.json] [--json OUT.json]
  cloudburst bench-diff OLD.json NEW.json [--threshold PCT]

OBSERVABILITY:
  --stats-out FILE   write the final run report as a JSON document (includes
                     the dollar-cost accounting block)
  --events-out FILE  write the telemetry event log as JSONL (one event/line)
  --trace-out FILE   write a Chrome trace_event document; open it in
                     chrome://tracing or https://ui.perfetto.dev to see
                     per-slave swimlanes (steals, reaps, speculation)
  --log-level LEVEL  stream events to stderr: `info` shows fault-path
                     events only, `debug` shows everything (default off)
  --metrics-addr A   serve live metrics in Prometheus text format on
                     http://A/metrics (e.g. 127.0.0.1:9184; port 0 picks a
                     free port, printed to stderr). Scrape mid-run with
                     curl or `cloudburst check-metrics`
  --metrics-out FILE write the final metrics exposition (Prometheus text,
                     accumulated over every iteration) to FILE at exit; it
                     turns live metrics on, and `check-metrics FILE
                     --against-stats STATS` diffs it against --stats-out
  --watch            print a live status line to stderr every 250 ms:
                     per-site throughput, utilization, steal counts,
                     per-shard queue depth and imbalance, a straggler
                     alert, head connection churn/wake-ups (TCP mode), and
                     the running dollar cost of the burst
  --flight-recorder-cap N
                     capacity of the always-on in-memory flight recorder
                     (default 4096 events, 0 disables): a bounded ring that
                     keeps the last N telemetry events for /debug/events
                     and the black-box crash dump. On panic or a fatal run
                     error the window is dumped to crash-<ts>/ as
                     events.jsonl + metrics.prom + health.json, in the
                     shapes `explain` and `check-metrics` consume
  --health SPEC      tune the health detectors behind /healthz, as
                     comma-separated key=value clauses: straggler=RATIO
                     imbalance=RATIO reaps=PER_SEC wan=FACTOR trip=N
                     clear=N (hysteresis: trip after N bad ticks, clear
                     after N good ones)
  --metrics-addr also mounts the live introspection plane next to /metrics:
                     /healthz       machine-readable verdict (503 = degraded)
                     /debug/pool    global + per-shard pool depths, steals
                     /debug/sites   per-site throughput, drain ETA, the
                                    master's grant round trip / window /
                                    starved time, head connection accounting
                     /debug/events?last=N  flight-recorder tail as JSONL
  health URL         fetch a run's /healthz and render the verdict; exits
                     non-zero when any detector is tripped
  check-json FILE    validate that FILE parses as JSON or JSONL (used by
                     verify.sh to smoke-test the artifacts above); event
                     JSONL additionally gets a delivery-sequence audit —
                     gaps or duplicates in the stamped `seq` numbers prove
                     events were dropped or corrupted. The audit is
                     set-based, so the interleaved streams of v2 batched
                     runs audit identically. With --seq the audit is
                     mandatory: a stream with no stamped events fails
  explain EVENTS     reconstruct a run from its --events-out artifact:
                     rebuild the causal span DAG, walk the critical chain
                     (last site, last slave), and attribute the whole
                     makespan to WAN fetch / local fetch / compute / pool
                     wait / recovery / reduction / idle — with a verdict
                     naming the bottleneck. --stats cross-checks a
                     --stats-out document: the makespan (5% drift) and,
                     exactly, the fault block and per-site job, byte and
                     retry counts folded from the events (single-run
                     commands, as for check-metrics); --json writes the
                     machine-readable analysis. Exits non-zero when the
                     categories fail to account for the makespan
  bench-diff A B     compare two benchmark artifacts (e.g. the committed
                     BENCH_runtime.json vs a fresh one) leaf by leaf and
                     fail on any latency/speedup regression beyond
                     --threshold percent (default 10)
  check-metrics SRC  validate a Prometheus exposition (file or live URL):
                     format, no duplicate series, core counters nonzero;
                     with --against-stats, diff the scrape's job/steal/
                     byte/retry totals against a --stats-out document
                     (single-run commands: iterative apps accumulate
                     metrics across iterations while stats cover the last)

PIPELINING:
  --pipeline-depth D  jobs in flight per slave (default 1). Depth 2+ gives
                      each slave a fetch executor so the next chunk's
                      retrieval overlaps the current chunk's processing;
                      results are identical at every depth

CODED REDUNDANCY:
  --redundancy R  (organize) replicate every file onto R sites. `run` picks
                  the factor up from the index automatically: replicated
                  chunks are served from the reader's own store, idle sites
                  get proactive replica copies of straggling chunks (first
                  finished copy wins, siblings are fenced), and evacuated
                  work re-executes from local replicas with zero WAN
                  re-fetches. R=1 (default) is the classic single-copy run

FAULT TOLERANCE:
  --ft           enable leases, speculation, heartbeats and storage retries
  --chaos SPEC   inject deterministic faults (implies --ft). SPEC is a
                 comma-separated list of clauses:
                   seed=N            rng seed for storage faults (default 0)
                   storage=RATE      transient storage error rate (0.0-1.0)
                   outage=SITE@T     kill SITE (local|cloud|N) T seconds in
                   slow=SITE:W:SECS  delay worker W at SITE per job
                   slow=SITE:FACTOR  slow every worker at SITE by FACTOR×
                   crash=SITE:W:N    crash worker W at SITE after N jobs
                   hb=I:T            heartbeat interval/timeout in seconds
                                     (shorten to recover outages in short runs)
                   lease=B:MIN:MAX:M lease sizing (base, min, max seconds and
                                     the EWMA multiplier; shorten so crashed
                                     workers' jobs are reaped in short runs)

EXAMPLE:
  cloudburst generate kmeans --out /tmp/points.bin --units 200000
  cloudburst organize --data /tmp/points.bin --unit-size 16 \\
             --out /tmp/organized --local-frac 0.33
  cloudburst run kmeans --org /tmp/organized --local-cores 4 --cloud-cores 4
  cloudburst run wordcount --org /tmp/organized \\
             --chaos 'storage=0.05,outage=cloud@1.0'"
    );
}

/// Minimal `--flag value` parser: returns the value after `flag`.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn opt_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match opt(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value `{v}` for {flag}")),
    }
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    opt(args, flag).ok_or_else(|| format!("missing required option {flag}"))
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("generate: missing application name")?;
    let out = PathBuf::from(required(args, "--out")?);
    let units: u32 = opt_parse(args, "--units", 100_000)?;
    let seed: u64 = opt_parse(args, "--seed", 42)?;
    let (data, unit_size) = match app.as_str() {
        "knn" => (gen::gen_id_points::<DIM>(units, seed), 4 + 4 * DIM),
        "kmeans" => {
            let k: usize = opt_parse(args, "--clusters", 8)?;
            if k == 0 {
                return Err("--clusters must be at least 1".to_owned());
            }
            let (data, _) = gen::gen_clustered_points::<DIM>(units, k, 0.03, seed);
            (data, 4 * DIM)
        }
        "pagerank" => {
            let pages: u32 = opt_parse(args, "--pages", units / 20 + 2)?;
            (gen::gen_edges(pages, units, seed), 8)
        }
        "wordcount" => {
            let vocab: u32 = opt_parse(args, "--vocab", 10_000)?;
            (gen::gen_words(units, vocab, seed), 16)
        }
        other => return Err(format!("unknown application `{other}`")),
    };
    std::fs::write(&out, &data).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} units of {} bytes, {} bytes total)",
        out.display(),
        data.len() / unit_size,
        unit_size,
        data.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// organize
// ---------------------------------------------------------------------------

fn cmd_organize(args: &[String]) -> Result<(), String> {
    let data_path = PathBuf::from(required(args, "--data")?);
    let out = PathBuf::from(required(args, "--out")?);
    let unit_size: u32 =
        required(args, "--unit-size")?.parse().map_err(|_| "invalid --unit-size")?;
    let chunk_units: u64 = opt_parse(args, "--chunk-units", 4096)?;
    let n_files: u32 = opt_parse(args, "--files", 8)?;
    let local_frac: f64 = opt_parse(args, "--local-frac", 0.5)?;
    let redundancy: u32 = opt_parse(args, "--redundancy", 1)?;

    let raw =
        std::fs::read(&data_path).map_err(|e| format!("reading {}: {e}", data_path.display()))?;
    let data = Bytes::from(raw);
    let params = LayoutParams { unit_size, units_per_chunk: chunk_units, n_files };
    let org = organize_redundant(
        &data,
        params,
        &mut fraction_placement(local_frac, n_files),
        redundancy,
    )?;

    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    for (site, name) in [(SiteId::LOCAL, "local"), (SiteId::CLOUD, "cloud")] {
        let dir = out.join(name);
        write_site_store(&org.store(site), site, &dir, &org.index)?;
    }
    write_index_redundant(&org.index, org.redundancy, out.join("dataset.idx"))
        .map_err(|e| e.to_string())?;
    println!(
        "organized {} bytes into {} chunks / {} files ({:.0}% local) under {}",
        data.len(),
        org.index.n_chunks(),
        org.index.files.len(),
        100.0 * org.index.byte_fraction_at(SiteId::LOCAL),
        out.display()
    );
    if org.redundancy > 1 {
        println!("coded redundancy r={}: every file replicated across the sites", org.redundancy);
    }
    Ok(())
}

/// Persist a site's files to `dir` using the global `data-<fileid>.bin`
/// naming so `FileStore` can address them by global file id.
fn write_site_store(
    store: &SiteStore,
    _site: SiteId,
    dir: &Path,
    index: &DataIndex,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    use cloudburst_storage::ChunkStore as _;
    for fid in store.file_ids() {
        let len = index.file(fid).len;
        let bytes = store.read(fid, 0, len).map_err(|e| e.to_string())?;
        let path = dir.join(cloudburst_storage::file::file_name(fid.0));
        std::fs::write(path, &bytes).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A `FileStore`-like view over a site directory holding a *subset* of the
/// global files (addressed by global file id).
fn open_site_dir(site: SiteId, dir: &Path, index: &DataIndex) -> Result<SiteStore, String> {
    let mut store = SiteStore::new(site);
    for f in &index.files {
        let path = dir.join(cloudburst_storage::file::file_name(f.id.0));
        // Primary files are required; anything else found on disk is a
        // coded-redundancy replica written by `organize --redundancy` and
        // is loaded so the replica-aware router can serve it locally.
        if f.site != site && !path.exists() {
            continue;
        }
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        if bytes.len() as u64 != f.len {
            return Err(format!(
                "{}: expected {} bytes per the index, found {}",
                path.display(),
                f.len,
                bytes.len()
            ));
        }
        store.insert(f.id, Bytes::from(bytes));
    }
    Ok(store)
}

// ---------------------------------------------------------------------------
// info
// ---------------------------------------------------------------------------

fn cmd_info(args: &[String]) -> Result<(), String> {
    let org = PathBuf::from(required(args, "--org")?);
    let (index, redundancy) =
        read_index_meta(org.join("dataset.idx")).map_err(|e| e.to_string())?;
    println!("index: {}", org.join("dataset.idx").display());
    if redundancy > 1 {
        println!("  redundancy     : {redundancy} (coded placement)");
    }
    println!("  unit size      : {} bytes", index.params.unit_size);
    println!("  units per chunk: {}", index.params.units_per_chunk);
    println!("  total units    : {}", index.total_units());
    println!("  total bytes    : {}", index.total_bytes());
    println!("  chunks (jobs)  : {}", index.n_chunks());
    println!("  files          : {}", index.files.len());
    for (site, n) in index.chunks_per_site() {
        println!("  {site:<6}: {n} chunks, {:.1}% of bytes", 100.0 * index.byte_fraction_at(site));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("run: missing application name")?.clone();
    if app == "kmeans" || app == "knn" {
        // Checked before anything is set up, so a bad value is a usage error.
        app_k(&app, args)?;
    }
    let org_dir = PathBuf::from(required(args, "--org")?);
    let local_cores: u32 = opt_parse(args, "--local-cores", 2)?;
    let cloud_cores: u32 = opt_parse(args, "--cloud-cores", 2)?;
    if local_cores == 0 && cloud_cores == 0 {
        return Err("--local-cores and --cloud-cores are both 0: a run needs a core".to_owned());
    }
    let retry: u8 = opt_parse(args, "--retry", 0)?;
    let time_scale: f64 = opt_parse(args, "--time-scale", 1e-4)?;
    // Every modelled link is a `Throttle`, which needs a positive scale.
    if !(time_scale.is_finite() && time_scale > 0.0) {
        return Err(format!("--time-scale must be finite and > 0, got {time_scale}"));
    }
    let pipeline_depth: usize = opt_parse(args, "--pipeline-depth", 1)?;

    // The index records whether the organizer replicated the data; the run
    // picks the coded-redundancy machinery up automatically from it.
    let (index, redundancy) =
        read_index_meta(org_dir.join("dataset.idx")).map_err(|e| e.to_string())?;
    // An application reading records of another size would cut them apart.
    // The run refuses it too, but only once its black box is set up.
    cloudburst_cluster::check_units(app_unit_size(&app)?, &index)
        .map_err(|e| format!("--org: {e} (was it organized for another application?)"))?;
    let local_frac = index.byte_fraction_at(SiteId::LOCAL);
    let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    let hosts = index.host_sites();
    for (site, name) in [(SiteId::LOCAL, "local"), (SiteId::CLOUD, "cloud")] {
        if hosts.contains(&site) {
            let store = open_site_dir(site, &org_dir.join(name), &index)?;
            stores.insert(site, Arc::new(store));
        }
    }

    let env = EnvConfig::new(
        &format!("cli-({local_cores},{cloud_cores})"),
        local_frac,
        local_cores,
        cloud_cores,
    );
    let mut config = RuntimeConfig::new(env, time_scale);
    // The run would refuse it too, but only once its black box is set up.
    config.validate(&index).map_err(|e| format!("--time-scale: {e}"))?;
    config.pipeline_depth = pipeline_depth.max(1);
    config.redundancy = redundancy;
    if retry > 0 {
        config.fault_policy = FaultPolicy::Retry { max_attempts: retry };
    }
    let chaos_spec = opt(args, "--chaos");
    if args.iter().any(|a| a == "--ft") || chaos_spec.is_some() {
        config.ft = cloudburst_cluster::FtConfig::enabled();
    }
    if let Some(spec) = chaos_spec {
        let (plan, hb, lease) = parse_chaos(spec)?;
        config.ft.chaos = Some(Arc::new(plan));
        if let Some(hb) = hb {
            config.ft.heartbeat = Some(hb);
        }
        if let Some(lease) = lease {
            config.ft.lease = Some(lease);
        }
        // Chaos without a retry budget would abort on the first injected
        // fault, defeating the point of the demonstration.
        if config.fault_policy == FaultPolicy::FailFast {
            config.fault_policy = FaultPolicy::Retry { max_attempts: 3 };
        }
    }

    let stats_out = opt(args, "--stats-out").map(PathBuf::from);
    let events_out = opt(args, "--events-out").map(PathBuf::from);
    let trace_out = opt(args, "--trace-out").map(PathBuf::from);
    let log_level = match opt(args, "--log-level") {
        None => None,
        Some(v) => LogLevel::parse(v)
            .ok_or_else(|| format!("invalid --log-level `{v}` (off|info|debug)"))?,
    };
    let flight_cap: usize = opt_parse(args, "--flight-recorder-cap", 4096)?;
    let health_config = match opt(args, "--health") {
        None => HealthConfig::default(),
        Some(spec) => HealthConfig::parse_spec(spec)?,
    };
    // The Chrome trace needs the full event history; `--events-out` streams
    // through a line-buffered JSONL sink instead, so a killed run still
    // leaves whole, parseable lines on disk.
    let recorder = trace_out.is_some().then(|| Arc::new(Recorder::new()));
    let events_sink = match &events_out {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlSink::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        )),
    };
    let flight = Arc::new(FlightRecorder::new(flight_cap));
    let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
    if flight_cap > 0 {
        sinks.push(flight.clone() as Arc<dyn EventSink>);
    }
    if let Some(r) = &recorder {
        sinks.push(r.clone() as Arc<dyn EventSink>);
    }
    if let Some(s) = &events_sink {
        sinks.push(s.clone() as Arc<dyn EventSink>);
    }
    if let Some(level) = log_level {
        sinks.push(Arc::new(ConsoleSink::new(level)));
    }
    config.telemetry = Telemetry::fanout(sinks);

    let metrics_addr = opt(args, "--metrics-addr").map(str::to_owned);
    let metrics_out = opt(args, "--metrics-out").map(PathBuf::from);
    let watch = args.iter().any(|a| a == "--watch");
    if metrics_addr.is_some() || metrics_out.is_some() || watch {
        config.metrics = Metrics::on();
    }
    let health = Arc::new(Mutex::new(HealthMonitor::new(health_config, config.telemetry.clone())));
    let meter = CostMeter::new(&config, &index);
    // Keep the server handle alive for the whole command; Drop stops the
    // listener and joins its thread.
    let _server = match &metrics_addr {
        Some(addr) => {
            let registry = config.metrics.registry().expect("metrics just enabled");
            let routes = debug_routes(&registry, &flight, &health);
            let server = MetricsServer::bind_with_routes(registry, addr, routes)
                .map_err(|e| format!("binding metrics server on {addr}: {e}"))?;
            eprintln!("serving metrics on http://{}/metrics", server.local_addr());
            eprintln!("introspection: /healthz /debug/pool /debug/sites /debug/events?last=N");
            Some(server)
        }
        None => None,
    };
    // The black box: on panic (hook below) or a fatal run error, dump the
    // flight-recorder window, the final metrics exposition and the health
    // timeline to crash-<ts>/ for post-mortem `explain`/`check-metrics`.
    let black_box = Arc::new(BlackBox {
        flight: flight.clone(),
        registry: config.metrics.registry(),
        health: health.clone(),
        events_sink: events_sink.clone(),
    });
    let hook_box = Arc::clone(&black_box);
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        hook_box.dump_to_stderr("panic");
        previous_hook(info);
    }));
    let run_started = Instant::now();
    let sampler = LiveMetrics::start(
        &config.metrics,
        config.telemetry.clone(),
        health.clone(),
        watch,
        config.env.clone(),
        meter,
    );

    let run_result = execute_app(&app, args, &index, stores, &config);
    // Stop the sampler before the final registry read so the last `--watch`
    // line never interleaves with the report.
    drop(sampler);
    let report = match run_result {
        Ok(report) => report,
        Err(e) => {
            // A fatal fault (chaos-induced or real) leaves a post-mortem.
            black_box.dump_to_stderr("run failed");
            return Err(e);
        }
    };
    if let Some((report, egress)) = report {
        let elapsed = run_started.elapsed().as_secs_f64();
        let reads = meter.cloud_chunks * passes(&app, args)? as u64;
        let cost = meter.price(elapsed, reads, egress);
        print_report(&report, &cost);
        let monitor = health.lock().map_err(|_| "health monitor poisoned".to_owned())?;
        if monitor.total_trips() > 0 {
            eprintln!("health: {} detector trip(s) during the run", monitor.total_trips());
        }
        let health_doc = monitor.to_json();
        drop(monitor);
        if let Some(sink) = &events_sink {
            sink.flush();
            println!("wrote event log (JSONL) to {}", sink.path().display());
        }
        write_run_artifacts(
            &report,
            &cost,
            &health_doc,
            config.metrics.registry().as_deref(),
            recorder.as_deref(),
            stats_out.as_deref(),
            trace_out.as_deref(),
            metrics_out.as_deref(),
        )?;
    }
    Ok(())
}

/// The size of the records `app` reads, asked of the application itself.
fn app_unit_size(app: &str) -> Result<usize, String> {
    Ok(match app {
        "wordcount" => Reduction::unit_size(&WordCount),
        "knn" => Reduction::unit_size(&Knn::<DIM>::new([0.5; DIM], 1)),
        "kmeans" => Reduction::unit_size(&KMeans::<DIM>::new(vec![[0.5; DIM]])),
        "pagerank" => Reduction::unit_size(&PageRank::new(&[1.0], &[1], 0.85)),
        other => return Err(format!("unknown application `{other}`")),
    })
}

/// `run kmeans|knn --k`: the number of centroids or neighbors, at least one.
fn app_k(app: &str, args: &[String]) -> Result<usize, String> {
    let (default, what) = if app == "knn" { (10, "a neighbor") } else { (8, "a centroid") };
    match opt_parse(args, "--k", default)? {
        0 => Err(format!("--k must be at least 1 ({app} needs {what})")),
        k => Ok(k),
    }
}

/// Execute the chosen application over the organized dataset, returning the
/// (last iteration's) report and the bytes that left the cloud over every
/// iteration. Split out of [`cmd_run`] so every fatal path
/// funnels through one place where the black box is written.
fn execute_app(
    app: &str,
    args: &[String],
    index: &DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    config: &RuntimeConfig,
) -> Result<Option<(RunReport, u64)>, String> {
    // What left the cloud over every iteration: the egress the run is
    // priced by.
    let mut egress = 0;
    let mut pass = |report: RunReport| {
        egress += cloud_egress(report.sites.iter().map(|(&site, s)| (site, s.remote_bytes)));
        report
    };
    let report = match app {
        "wordcount" => {
            let out = run_hybrid(&WordCount, index, stores, config).map_err(|e| e.to_string())?;
            let mut counts: Vec<(String, u64)> =
                out.result.as_string_counts().into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            println!("total words: {}", out.result.total());
            for (w, c) in counts.iter().take(10) {
                println!("  {w:<16} {c}");
            }
            Some(pass(out.report))
        }
        "knn" => {
            let k = app_k(app, args)?;
            let knn = Knn::<DIM>::new([0.5; DIM], k);
            let out = run_hybrid(&knn, index, stores, config).map_err(|e| e.to_string())?;
            println!("{k} nearest neighbors of {:?}:", knn.query);
            for n in out.result.0.into_sorted() {
                println!("  point {:<10} dist² {:.6}", n.id, n.dist2());
            }
            Some(pass(out.report))
        }
        "kmeans" => {
            let k = app_k(app, args)?;
            let iterations = passes(app, args)?;
            let mut centroids: Vec<[f64; DIM]> =
                (0..k).map(|i| [(i as f64 + 0.5) / k as f64; DIM]).collect();
            let mut last_report = None;
            for iter in 1..=iterations {
                let km = KMeans::new(centroids.clone());
                let out =
                    run_hybrid(&km, index, stores.clone(), config).map_err(|e| e.to_string())?;
                centroids = out.result.new_centroids(&centroids);
                println!("iteration {iter}: {:.3}s", out.report.total_time);
                last_report = Some(pass(out.report));
            }
            println!("final centroids:");
            for c in &centroids {
                println!(
                    "  [{}]",
                    c.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ")
                );
            }
            last_report
        }
        "pagerank" => {
            let iterations = passes(app, args)?;
            let damping: f64 = opt_parse(args, "--damping", 0.85)?;
            // Page count: one past the largest id seen in the edge list.
            let n_pages = max_page(index, &stores)? + 1;
            let all_edges = read_all(index, &stores)?;
            let outdeg = PageRank::outdegrees(&all_edges, n_pages as usize);
            let mut ranks = vec![1.0 / f64::from(n_pages); n_pages as usize];
            let mut last_report = None;
            for iter in 1..=iterations {
                let pr = PageRank::new(&ranks, &outdeg, damping);
                let out =
                    run_hybrid(&pr, index, stores.clone(), config).map_err(|e| e.to_string())?;
                ranks = pr.next_ranks(&out.result);
                println!(
                    "iteration {iter}: {:.3}s (robj {} bytes)",
                    out.report.total_time,
                    out.result.byte_size()
                );
                last_report = Some(pass(out.report));
            }
            let mut top: Vec<(usize, f64)> = ranks.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            println!("top pages:");
            for (p, r) in top.iter().take(10) {
                println!("  page {p:<8} rank {r:.6}");
            }
            last_report
        }
        other => return Err(format!("unknown application `{other}`")),
    };
    Ok(report.map(|report| (report, egress)))
}

/// Everything the black-box crash dump needs, shared between the panic hook
/// and the fatal-error path of `run`.
struct BlackBox {
    flight: Arc<FlightRecorder>,
    registry: Option<Arc<Registry>>,
    health: Arc<Mutex<HealthMonitor>>,
    events_sink: Option<Arc<JsonlSink>>,
}

impl BlackBox {
    /// Flush the streaming event log and write
    /// `crash-<ts>/{events.jsonl,metrics.prom,health.json}`: the flight
    /// recorder's window in the shape `explain` consumes, the final metrics
    /// exposition in the shape `check-metrics` consumes, and the health
    /// verdict + transition timeline.
    fn dump(&self) -> Result<PathBuf, String> {
        if let Some(sink) = &self.events_sink {
            sink.flush();
        }
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let dir = PathBuf::from(format!("crash-{ts}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let write = |name: &str, text: String| -> Result<(), String> {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write("events.jsonl", events_to_jsonl(&self.flight.snapshot()))?;
        if let Some(registry) = &self.registry {
            write("metrics.prom", registry.render())?;
        }
        // A poisoned monitor means some thread panicked mid-observe; the
        // verdict up to that tick is still the best post-mortem we have.
        let health = match self.health.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut text = health.to_json().to_text();
        text.push('\n');
        write("health.json", text)?;
        Ok(dir)
    }

    /// Best-effort dump for contexts that must not fail (the panic hook).
    fn dump_to_stderr(&self, why: &str) {
        match self.dump() {
            Ok(dir) => eprintln!("{why}: black box written to {}/", dir.display()),
            Err(e) => eprintln!("{why}: black box write failed: {e}"),
        }
    }
}

/// The live introspection plane mounted next to `/metrics` when
/// `--metrics-addr` is given.
fn debug_routes(
    registry: &Arc<Registry>,
    flight: &Arc<FlightRecorder>,
    health: &Arc<Mutex<HealthMonitor>>,
) -> Vec<(String, RouteHandler)> {
    let mut routes: Vec<(String, RouteHandler)> = Vec::new();
    let h = Arc::clone(health);
    routes.push((
        "/healthz".to_owned(),
        Box::new(move |_q| {
            let Ok(monitor) = h.lock() else {
                return (
                    "503 Service Unavailable",
                    "application/json",
                    "{\"status\":\"poisoned\"}\n".to_owned(),
                );
            };
            let status = if monitor.is_healthy() { "200 OK" } else { "503 Service Unavailable" };
            let mut body = monitor.verdict_json().to_text();
            body.push('\n');
            (status, "application/json", body)
        }),
    ));
    let reg = Arc::clone(registry);
    routes.push((
        "/debug/pool".to_owned(),
        Box::new(move |_q| {
            let mut body = pool_debug_json(&reg.ledger()).to_text();
            body.push('\n');
            ("200 OK", "application/json", body)
        }),
    ));
    let reg = Arc::clone(registry);
    // Rates need a delta: remember the previous scrape per route instance.
    let last_scrape: Mutex<Option<(Instant, LedgerTotals)>> = Mutex::new(None);
    routes.push((
        "/debug/sites".to_owned(),
        Box::new(move |_q| {
            let ledger = reg.ledger();
            let now = Instant::now();
            let prev = match last_scrape.lock() {
                Ok(mut guard) => guard.replace((now, ledger.clone())),
                Err(_) => None,
            };
            let prev_view = prev
                .as_ref()
                .map(|(at, ledger)| (now.saturating_duration_since(*at).as_secs_f64(), ledger));
            let mut body = sites_debug_json(&ledger, prev_view).to_text();
            body.push('\n');
            ("200 OK", "application/json", body)
        }),
    ));
    let fr = Arc::clone(flight);
    routes.push((
        "/debug/events".to_owned(),
        Box::new(move |query| {
            let n = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("last="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(256);
            ("200 OK", "application/x-ndjson", events_to_jsonl(&fr.last(n)))
        }),
    ));
    routes
}

/// The `/debug/pool` document: global and per-shard pool state, read off
/// the live ledger (the live pool itself is internal to the runtime).
fn pool_debug_json(ledger: &LedgerTotals) -> Json {
    let shards = ledger
        .sites
        .iter()
        .map(|(site, s)| {
            Json::obj()
                .field("site", Json::Str(site.to_string()))
                .field("queue", Json::U64(s.depth))
                .field("jobs", Json::U64(s.jobs))
                .field("steals", Json::U64(s.steals))
                .field("stolen_from", Json::U64(s.stolen_from))
        })
        .collect();
    let all = ledger.all();
    Json::obj()
        .field("queue_depth", Json::U64(all.depth))
        .field("in_flight", Json::U64(ledger.in_flight))
        .field("grants", Json::U64(all.grants))
        .field("completions", Json::U64(all.jobs))
        .field("steals", Json::U64(all.steals))
        .field("lease_reaps", Json::U64(all.lease_reaps))
        .field("imbalance", Json::F64(imbalance(ledger).unwrap_or(1.0)))
        .field("shards", Json::Arr(shards))
}

/// The deepest shard against the mean depth, the ratio the imbalance
/// detector judges: `None` with one shard or none waiting.
fn imbalance(ledger: &LedgerTotals) -> Option<f64> {
    let depths: Vec<u64> = ledger.sites.values().map(|s| s.depth).collect();
    let total: u64 = depths.iter().sum();
    let max = depths.iter().copied().max().unwrap_or(0);
    (depths.len() > 1 && total > 0).then(|| max as f64 * depths.len() as f64 / total as f64)
}

/// The `/debug/sites` document: per-site throughput (over the window since
/// the previous scrape), the slaves' exchanges with their master, and the
/// drain ETA.
fn sites_debug_json(ledger: &LedgerTotals, prev: Option<(f64, &LedgerTotals)>) -> Json {
    let outstanding = ledger.all().depth + ledger.in_flight;
    let mut total_rate = 0.0;
    let mut sites = Vec::new();
    for (&site, cur) in &ledger.sites {
        let mut entry = Json::obj()
            .field("site", Json::Str(site.to_string()))
            .field("jobs", Json::U64(cur.jobs))
            .field("steals", Json::U64(cur.steals))
            .field("queue", Json::U64(cur.depth))
            .field("busy_secs", Json::F64(cur.busy_secs))
            .field("hand_offs", Json::U64(cur.hand_offs))
            .field("settles", Json::U64(cur.settles));
        // How many jobs a slave takes per hand-off and reports per exchange
        // it waits on for verdicts.
        for (name, jobs, exchanges) in [
            ("jobs_per_hand_off", cur.handed, cur.hand_offs),
            ("jobs_per_settle", cur.settled, cur.settles),
        ] {
            if exchanges > 0 {
                entry = entry.field(name, Json::F64(jobs as f64 / exchanges as f64));
            }
        }
        if let Some((dt, p)) = prev {
            if dt > 0.0 {
                let rate = jobs_since(p, site, cur) as f64 / dt;
                total_rate += rate;
                entry = entry.field("rate_jobs_per_sec", Json::F64(rate));
            }
        }
        sites.push(entry);
    }
    let out =
        Json::obj().field("outstanding", Json::U64(outstanding)).field("sites", Json::Arr(sites));
    if total_rate > 0.0 {
        return out.field("eta_secs", Json::F64(outstanding as f64 / total_rate));
    }
    out
}

/// The jobs `site`'s slaves completed since `prev`.
fn jobs_since(prev: &LedgerTotals, site: SiteId, cur: &SiteTotals) -> u64 {
    cur.jobs.saturating_sub(prev.sites.get(&site).map_or(0, |p| p.jobs))
}

/// Whether `site` may be named a straggler: it has cores and holds a lease.
/// A site without either completes nothing, which says nothing of its pace.
fn straggler_candidate(env: &EnvConfig, site: SiteId, cur: &SiteTotals) -> bool {
    env.cores_at(site) > 0 && cur.leased > 0
}

/// The health sampler's per-core completion rates since `prev`, `dt`
/// seconds ago, of the sites that may be named a straggler.
fn site_rates(ledger: &LedgerTotals, prev: &LedgerTotals, dt: f64, env: &EnvConfig) -> Vec<f64> {
    (ledger.sites.iter())
        .filter(|&(&site, cur)| straggler_candidate(env, site, cur))
        .map(|(&site, cur)| {
            jobs_since(prev, site, cur) as f64 / (dt * f64::from(env.cores_at(site)))
        })
        .collect()
}

/// The health detectors' reading of the live ledger at `at_ns`, `dt`
/// seconds after `prev`: outstanding and completed jobs, reaps, shard
/// depths, per-core rates, and the slaves' WAN-class fetches and their
/// seconds, both counted off the same fetches.
fn health_sample(
    ledger: &LedgerTotals,
    prev: &LedgerTotals,
    at_ns: u64,
    dt: f64,
    env: &EnvConfig,
) -> HealthSample {
    let all = ledger.all();
    HealthSample {
        at_ns,
        outstanding: all.depth + ledger.in_flight,
        completions: all.jobs,
        lease_reaps: all.lease_reaps,
        shard_depths: ledger.sites.values().map(|s| s.depth).collect(),
        site_rates: site_rates(ledger, prev, dt, env),
        wan_fetch_secs: all.wan_secs,
        wan_fetch_jobs: all.wan_fetches,
    }
}

/// `cloudburst health <url>`: fetch a run's `/healthz` verdict and render
/// it; exits non-zero when any detector is tripped.
fn cmd_health(args: &[String]) -> Result<(), String> {
    let src = args.first().ok_or("health: missing URL (e.g. http://127.0.0.1:9184)")?;
    let url = if src.ends_with("/healthz") {
        src.clone()
    } else {
        format!("{}/healthz", src.trim_end_matches('/'))
    };
    let (code, body) = http_get_status(&url, Duration::from_secs(2))
        .map_err(|e| format!("fetching {url}: {e}"))?;
    let doc = Json::parse(body.trim()).map_err(|e| format!("{url}: {e}"))?;
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("unknown").to_owned();
    println!("{url}: {status} (HTTP {code})");
    if let Some(detectors) = doc.get("detectors").and_then(Json::as_arr) {
        for d in detectors {
            let name = d.get("detector").and_then(Json::as_str).unwrap_or("?");
            let tripped = matches!(d.get("tripped"), Some(Json::Bool(true)));
            let trips = d.get("trips").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let value = d.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let threshold = d.get("threshold").and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  {name:<16} {:<8} trips {trips:<3} value {value:<10.3} threshold {threshold:.3}",
                if tripped { "TRIPPED" } else { "ok" }
            );
        }
    }
    if status != "healthy" {
        return Err(format!("run is {status}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// live metrics: the background sampler behind --metrics-addr / --watch
// ---------------------------------------------------------------------------

/// The one rule a run is priced by, live and in its `cost` block: the cloud's
/// instances for the time so far, a GET for each of the `FetchConfig::parts`
/// ranges of every read of a cloud-hosted chunk (priced per 10k), and the
/// bytes the other sites fetched across sites as egress (per GiB).
#[derive(Clone, Copy)]
struct CostMeter {
    pricing: PricingModel,
    cloud_cores: u32,
    /// Cloud-hosted chunks, and the GETs one read of each of them takes.
    cloud_chunks: u64,
    gets_per_pass: u64,
}

impl CostMeter {
    fn new(config: &RuntimeConfig, index: &DataIndex) -> CostMeter {
        let cloud = index.chunks.iter().filter(|c| c.site == SiteId::CLOUD);
        let (cloud_chunks, gets_per_pass) =
            cloud.fold((0, 0), |(n, gets), c| (n + 1, gets + config.fetch.parts(c.len)));
        let (pricing, cloud_cores) = (PricingModel::aws_2011(), config.env.cloud_cores);
        CostMeter { pricing, cloud_cores, cloud_chunks, gets_per_pass }
    }

    /// The cost of `elapsed` seconds in which `reads` cloud-hosted chunks
    /// were read and `egress` bytes left the cloud. The GETs are exact when
    /// every chunk was read as often as every other, as at the end of a pass
    /// that read none twice: retries below the chunk are not counted.
    fn price(&self, elapsed: f64, reads: u64, egress: u64) -> CostReport {
        let gets = (self.gets_per_pass * reads).checked_div(self.cloud_chunks).unwrap_or(0);
        cost_of_usage(&self.pricing, self.cloud_cores, elapsed, gets, egress)
    }

    /// The run so far, off the live ledger: the cloud-hosted chunks read are
    /// the cloud's grants of its own shard and the steals out of it.
    fn so_far(&self, ledger: &LedgerTotals, elapsed: f64) -> CostReport {
        let cloud = ledger.sites.get(&SiteId::CLOUD).copied().unwrap_or_default();
        let reads = cloud.grants.saturating_sub(cloud.steals) + cloud.stolen_from;
        let egress = cloud_egress(ledger.sites.iter().map(|(&site, s)| (site, s.remote_bytes)));
        self.price(elapsed, reads, egress)
    }
}

/// The bytes that left the cloud: what the other sites fetched across sites,
/// of each site's remote bytes.
fn cloud_egress(remote_bytes: impl Iterator<Item = (SiteId, u64)>) -> u64 {
    remote_bytes.filter(|&(site, _)| site != SiteId::CLOUD).map(|(_, bytes)| bytes).sum()
}

/// The background sampler: every 250 ms it reads the live ledger, emits a
/// `MetricsSnapshot` telemetry event (so traces and metrics share one
/// timeline), and — under `--watch` — prints a live status line. Drop stops
/// and joins the thread.
struct LiveMetrics {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveMetrics {
    fn start(
        metrics: &Metrics,
        telemetry: Telemetry,
        health: Arc<Mutex<HealthMonitor>>,
        watch: bool,
        env: EnvConfig,
        meter: CostMeter,
    ) -> Option<LiveMetrics> {
        let registry = metrics.registry()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("live-metrics".into())
            .spawn(move || {
                sampler_loop(&registry, &telemetry, &health, watch, &env, &meter, &stop2);
            })
            .ok()?;
        Some(LiveMetrics { stop, thread: Some(thread) })
    }
}

impl Drop for LiveMetrics {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn sampler_loop(
    registry: &Registry,
    telemetry: &Telemetry,
    health: &Mutex<HealthMonitor>,
    watch: bool,
    env: &EnvConfig,
    meter: &CostMeter,
    stop: &AtomicBool,
) {
    const TICK: Duration = Duration::from_millis(250);
    let epoch = Instant::now();
    let mut prev = LedgerTotals::default();
    let mut prev_at = epoch;
    // The tick that sees the stop (`Release` in `Drop`, `Acquire` here) reads
    // the finished run, so the last line shows what the run's artifacts do.
    let mut last = false;
    while !last {
        std::thread::sleep(TICK);
        last = stop.load(Ordering::Acquire);
        let now = Instant::now();
        let ledger = registry.ledger();
        let all = ledger.all();
        let at_ns = ns_since(epoch);
        let dt = now.saturating_duration_since(prev_at).as_secs_f64().max(1e-9);
        telemetry.emit(Event::at(
            at_ns,
            EventKind::MetricsSnapshot {
                grants: all.grants,
                steals: all.steals,
                completions: all.jobs,
                queue_depth: all.depth,
                bytes: all.fetched_bytes,
            },
        ));
        // Feed the health detectors the same tick the watch line renders.
        // The monitor differentiates across ticks itself.
        let sample = health_sample(&ledger, &prev, at_ns, dt, env);
        let tripped = health.lock().map(|mut monitor| {
            monitor.observe(&sample);
            monitor.tripped()
        });
        if watch {
            let elapsed = now.saturating_duration_since(epoch).as_secs_f64();
            let tripped = tripped.unwrap_or_default();
            let line = watch_line(&ledger, &prev, dt, elapsed, env, &tripped, meter);
            eprintln!("{line}");
        }
        prev = ledger;
        prev_at = now;
    }
}

/// Render one `--watch` status line: overall progress, per-site throughput
/// and utilization, the straggler while the health monitor's detector for it
/// is `tripped`, and the running dollar meter with the GETs and egress it
/// prices.
#[allow(clippy::too_many_arguments)]
fn watch_line(
    ledger: &LedgerTotals,
    prev: &LedgerTotals,
    dt: f64,
    elapsed: f64,
    env: &EnvConfig,
    tripped: &[HealthDetector],
    meter: &CostMeter,
) -> String {
    let all = ledger.all();
    let mut line = format!(
        "[watch {elapsed:6.2}s] done {} ({} stolen) queue {} in-flight {}",
        all.jobs, all.steals, all.depth, ledger.in_flight
    );
    // (site, jobs/s, per-core jobs/s) over the last tick, of the sites that
    // may be named a straggler.
    let mut rates: Vec<(SiteId, f64, f64)> = Vec::new();
    for (&site, cur) in &ledger.sites {
        let p = prev.sites.get(&site).copied().unwrap_or_default();
        let site_cores = env.cores_at(site);
        let per_core = dt * f64::from(site_cores.max(1));
        let rate = jobs_since(prev, site, cur) as f64 / dt;
        let util = ((cur.busy_secs - p.busy_secs) / per_core).clamp(0.0, 1.0);
        line.push_str(&format!(
            " | {site} {rate:.0} j/s {:.0}% busy q {}",
            100.0 * util,
            cur.depth
        ));
        if cur.stolen_from > p.stolen_from {
            line.push_str(&format!(" (-{} stolen)", cur.stolen_from - p.stolen_from));
        }
        if straggler_candidate(env, site, cur) {
            rates.push((site, rate, rate / f64::from(site_cores)));
        }
    }
    // Shard imbalance: healthy stealing keeps this near 1; a big ratio while
    // work remains means one site's backlog is not draining (or being
    // stolen) fast enough.
    if let Some(ratio) = imbalance(ledger) {
        line.push_str(&format!(" | shard imb {ratio:.1}x"));
    }
    // Straggler watch: while the health monitor's straggler detector is
    // tripped (its threshold and hysteresis, the `/healthz` verdict), name
    // the site with the lowest per-core rate and estimate the drain time of
    // the remaining jobs at the current aggregate rate.
    let outstanding = all.depth + ledger.in_flight;
    let straggling = tripped.contains(&HealthDetector::Straggler) && rates.len() > 1;
    let slowest = rates.iter().min_by(|a, b| a.2.total_cmp(&b.2));
    if let Some(slow) = slowest.filter(|_| straggling && outstanding > 0) {
        let total_rate: f64 = rates.iter().map(|r| r.1).sum();
        let eta = outstanding as f64 / total_rate;
        let eta = if total_rate > 0.0 { format!("eta {eta:.1}s") } else { "stalled".to_owned() };
        line.push_str(&format!(" | straggler {} ({eta})", slow.0));
    }
    let cost = meter.so_far(ledger, elapsed);
    line.push_str(&format!(
        " | ${:.4} ({} GETs, {} B egress)",
        cost.total(),
        cost.get_requests,
        cost.egress_bytes
    ));
    line
}

/// How many times `app` reads the dataset: once per iteration of an
/// iterative application, once otherwise.
fn passes(app: &str, args: &[String]) -> Result<usize, String> {
    match app {
        "kmeans" | "pagerank" => opt_parse(args, "--iterations", 10),
        _ => Ok(1),
    }
}

/// The `cost` block attached to `--stats-out` documents.
fn cost_to_json(c: &CostReport) -> Json {
    Json::obj()
        .field("instances", Json::U64(u64::from(c.instances)))
        .field("instance_hours", Json::U64(c.instance_hours))
        .field("compute_cost", Json::F64(c.compute_cost))
        .field("get_requests", Json::U64(c.get_requests))
        .field("request_cost", Json::F64(c.request_cost))
        .field("egress_bytes", Json::U64(c.egress_bytes))
        .field("egress_cost", Json::F64(c.egress_cost))
        .field("total", Json::F64(c.total()))
}

/// Write the machine-readable run artifacts (`--stats-out`, `--trace-out`,
/// `--metrics-out`; `--events-out` streams through its sink during the run).
/// For iterative applications the event artifacts cover every iteration of
/// the command, each clocked from its own run epoch, and the metrics
/// exposition accumulates across iterations. The stats document carries the
/// health verdict + transition timeline as a `health` block.
#[allow(clippy::too_many_arguments)]
fn write_run_artifacts(
    report: &RunReport,
    cost: &CostReport,
    health: &Json,
    registry: Option<&Registry>,
    recorder: Option<&Recorder>,
    stats_out: Option<&Path>,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
) -> Result<(), String> {
    let write = |path: &Path, text: String, what: &str| -> Result<(), String> {
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {what} to {}", path.display());
        Ok(())
    };
    if let Some(path) = stats_out {
        let mut text = report_to_json(report)
            .field("cost", cost_to_json(cost))
            .field("health", health.clone())
            .to_text();
        text.push('\n');
        write(path, text, "run stats (JSON)")?;
    }
    if let Some(path) = trace_out {
        let events = recorder.map(Recorder::snapshot).unwrap_or_default();
        let mut text = chrome_trace(&events).to_text();
        text.push('\n');
        write(path, text, "Chrome trace (open in chrome://tracing or Perfetto)")?;
    }
    // `--metrics-out` turns live metrics on itself.
    if let (Some(path), Some(registry)) = (metrics_out, registry) {
        write(path, registry.render(), "metrics exposition (Prometheus 0.0.4)")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// check-json
// ---------------------------------------------------------------------------

/// Validate that a file parses as a single JSON document or as JSONL (one
/// object per line) — the smoke test verify.sh runs over every artifact the
/// `run` command can emit.
fn cmd_check_json(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(args.first().ok_or("check-json: missing FILE")?);
    // `--seq` makes the delivery-sequence audit mandatory: the file must be
    // an event stream with stamped sequence numbers, not just valid JSON.
    // The audit itself is order-insensitive (a set check over `seq`), so it
    // covers v2 batched-mode streams, whose racing shard emitters interleave
    // freely in the file.
    let strict_seq = args.iter().any(|a| a == "--seq");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if text.trim().is_empty() {
        return Err(format!("{}: empty file", path.display()));
    }
    if Json::parse(text.trim()).is_ok() && !strict_seq {
        println!("{}: valid JSON document", path.display());
        return Ok(());
    }
    let mut objects = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        Json::parse(line)
            .map_err(|e| format!("{}:{}: invalid JSON: {e}", path.display(), i + 1))?;
        objects += 1;
    }
    println!("{}: valid JSONL ({objects} objects)", path.display());

    // If the lines are telemetry events, audit the per-sink delivery
    // sequence: the stamped `seq` numbers must form a contiguous 1..=max
    // set, so a gap or duplicate proves events were dropped or doubled
    // somewhere between emission and the file.
    match parse_events_jsonl(&text) {
        Ok((events, _skipped)) if !events.is_empty() => {
            let audit = check_sequence(&events).map_err(|e| format!("{}: {e}", path.display()))?;
            if audit.stamped == 0 {
                if strict_seq {
                    return Err(format!(
                        "{}: --seq requires stamped sequence numbers, found none",
                        path.display()
                    ));
                }
                println!("{}: no stamped sequence numbers (audit skipped)", path.display());
            } else {
                println!(
                    "{}: delivery sequence complete ({} stamped events, max seq {})",
                    path.display(),
                    audit.stamped,
                    audit.max
                );
            }
        }
        Ok(_) => {
            if strict_seq {
                return Err(format!(
                    "{}: --seq requires a telemetry event stream, found none",
                    path.display()
                ));
            }
        }
        Err(e) => {
            if strict_seq {
                return Err(format!("{}: {e}", path.display()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

/// One-line bottleneck advice per dominant attribution category.
fn verdict_for(category: &str) -> &'static str {
    match category {
        "wan_fetch" => {
            "WAN-class retrieval dominates: deepen the pipeline (--pipeline-depth), \
             raise fetcher parallelism, or replicate hot chunks locally \
             (organize --redundancy)."
        }
        "local_fetch" => {
            "local retrieval dominates: the disks, not the WAN, are the bottleneck — \
             raise fetcher parallelism or chunk size."
        }
        "compute" => {
            "compute-bound: retrieval is fully hidden behind processing — add cores \
             (or slaves) to go faster; deeper pipelining will not help."
        }
        "pool_wait" => {
            "workers wait between jobs: the master already hides the head round trip \
             behind a window of requests, and a slave takes a quantum of jobs per \
             hand-off (see cloudburst_slave_handed_jobs_total over \
             cloudburst_slave_hand_offs_total) and reports them together — riding its \
             next request or, under fault tolerance or coded replicas, in one verdict \
             exchange per hand-off (see cloudburst_slave_settled_jobs_total over \
             cloudburst_slave_settles_total) — so what is left is one blocking exchange \
             per millisecond of work, and the second reduce of a refused job's \
             batch-mates (faults: re-reduced) — use larger chunks, or raise the head's \
             batch size if the masters do starve."
        }
        "recovery" => {
            "fault recovery dominates: leases, evacuations or retries are eating the \
             run — check the chaos/lease configuration."
        }
        "reduction" => {
            "reduction dominates: merging reduction objects is the long pole — \
             shrink the reduction object or use coded/tree reduction."
        }
        _ => {
            "phase-barrier idle dominates: sites finish at very different times — \
             rebalance placement or enable work stealing."
        }
    }
}

/// Reconstruct a run from its `--events-out` artifact and attribute the
/// makespan: span DAG, critical chain, exhaustive time breakdown, verdict.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(args.first().ok_or("explain: missing EVENTS.jsonl")?);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let (events, skipped) =
        parse_events_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if skipped > 0 {
        eprintln!("explain: note: skipped {skipped} event(s) of unknown kind");
    }
    let run = analyze(&events).map_err(|e| format!("{}: {e}", path.display()))?;
    let attr = &run.attribution;

    println!("explain {}: {} events, makespan {:.4}s", path.display(), run.events, attr.makespan);

    // Optional cross-check against the run's --stats-out document: both are
    // clocked from the same epoch, so the stats' total_time and the event
    // stream's makespan must agree closely, and the ledgers folded from the
    // events must be the document's.
    if let Some(stats_path) = opt(args, "--stats") {
        let stats_text = std::fs::read_to_string(stats_path)
            .map_err(|e| format!("reading {stats_path}: {e}"))?;
        let stats = Json::parse(stats_text.trim()).map_err(|e| format!("{stats_path}: {e}"))?;
        let total = stats
            .get("total_time")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{stats_path}: no numeric `total_time` field"))?;
        let drift = (total - attr.makespan).abs();
        if drift > 0.05 * total.max(attr.makespan).max(1e-9) {
            return Err(format!(
                "{stats_path}: stats total_time {total:.4}s disagrees with event makespan \
                 {:.4}s (drift {drift:.4}s > 5%)",
                attr.makespan
            ));
        }
        diff_ledgers(&events, &stats).map_err(|e| format!("{stats_path}: {e}"))?;
        println!(
            "  stats cross-check: total_time {total:.4}s agrees (drift {drift:.6}s), fault and \
             per-site ledgers match exactly"
        );
    }

    println!("  where the time went:");
    for (name, secs) in attr.parts() {
        let share = if attr.makespan > 0.0 { 100.0 * secs / attr.makespan } else { 0.0 };
        let bar_len = (share / 2.5).round().clamp(0.0, 40.0) as usize;
        println!("    {name:<11} {secs:>9.4}s  {share:>5.1}%  {}", "#".repeat(bar_len));
    }
    println!(
        "  attribution total {:.4}s vs makespan {:.4}s ({})",
        attr.total(),
        attr.makespan,
        if attr.agrees() { "agrees" } else { "DISAGREES" }
    );
    let site = run.critical_site.map_or_else(|| "-".to_string(), |s| s.to_string());
    let worker = run.critical_worker.map_or_else(|| "-".to_string(), |w| w.to_string());
    println!(
        "  critical chain: site {site}, slave {worker} — busy {:.4}s across {} segment(s)",
        run.critical_path_secs(),
        run.critical_path.len()
    );
    println!(
        "  spans: {} tracked, {} duplicate execution(s), lineage depth {}",
        run.dag.len(),
        run.dag.duplicates(),
        run.dag.depth()
    );
    let (dominant, dominant_secs) = attr.dominant();
    let dominant_share =
        if attr.makespan > 0.0 { 100.0 * dominant_secs / attr.makespan } else { 0.0 };
    println!("  verdict: {dominant} is dominant ({dominant_share:.1}% of the makespan)");
    println!("           {}", verdict_for(dominant));

    if let Some(out) = opt(args, "--json") {
        let mut text = run.to_json().to_text();
        text.push('\n');
        std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
        println!("  wrote machine-readable analysis to {out}");
    }

    if !attr.agrees() {
        return Err(format!(
            "explain: attribution accounts for {:.4}s of a {:.4}s makespan — the \
             categories must sum to the makespan",
            attr.total(),
            attr.makespan
        ));
    }
    Ok(())
}

/// The exact-match contract between an `--events-out` artifact and the
/// `--stats-out` document of the same run: the report folded from the events
/// ([`derive_report`], the functions the live run tallied with) has the
/// document's fault block and, per site, its job counts, remote bytes and
/// retries. Valid for single-run commands, like `check-metrics
/// --against-stats`: an iterative app's events span every iteration while
/// its stats cover the last.
fn diff_ledgers(events: &[Event], stats: &Json) -> Result<(), String> {
    let derived = report_to_json(&derive_report(events, ""));
    let same = |what: &str, ours: &Json, theirs: &Json, key: &str| {
        let text = |v: Option<&Json>| v.map_or("nothing".to_owned(), Json::to_text);
        match (ours.get(key), theirs.get(key)) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (a, b) => Err(format!(
                "{what} `{key}`: the events say {}, the stats say {}",
                text(a),
                text(b)
            )),
        }
    };
    let theirs = stats.get("faults").ok_or("stats document lacks a `faults` block")?;
    if let Some(ours @ Json::Obj(fields)) = derived.get("faults") {
        fields.iter().try_for_each(|(key, _)| same("faults", ours, theirs, key))?;
    }
    let sites = |doc: &Json| doc.get("sites").and_then(Json::as_arr).unwrap_or_default().to_vec();
    let (ours, theirs) = (sites(&derived), sites(stats));
    if ours.len() != theirs.len() {
        return Err(format!("the events name {} site(s), the stats {}", ours.len(), theirs.len()));
    }
    for (ours, theirs) in ours.iter().zip(&theirs) {
        let what = format!("site {}", ours.get("site").and_then(Json::as_str).unwrap_or("?"));
        ["site", "jobs_local", "jobs_stolen", "remote_bytes", "retries"]
            .into_iter()
            .try_for_each(|key| same(&what, ours, theirs, key))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// bench-diff
// ---------------------------------------------------------------------------

/// Diff two benchmark artifacts leaf by leaf and fail on regressions.
fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    let old_path = args.first().ok_or("bench-diff: missing OLD.json")?;
    let new_path = args.get(1).ok_or("bench-diff: missing NEW.json")?;
    let threshold_pct: f64 = opt_parse(args, "--threshold", 10.0)?;
    if !(threshold_pct.is_finite() && threshold_pct >= 0.0) {
        return Err(format!("bench-diff: bad --threshold {threshold_pct}"));
    }
    let threshold = threshold_pct / 100.0;

    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;

    let deltas = diff_benchmarks(&old, &new);
    if deltas.is_empty() {
        return Err(format!(
            "bench-diff: {old_path} and {new_path} share no numeric leaves to compare"
        ));
    }

    let mut regressions = 0usize;
    println!("bench-diff {old_path} -> {new_path} (threshold {threshold_pct}%):");
    for d in &deltas {
        let change = d.change();
        let marker = if d.is_regression(d.gate_threshold(threshold)) {
            regressions += 1;
            "REGRESSION"
        } else {
            match d.direction {
                Direction::Neutral => "info",
                _ => "ok",
            }
        };
        let pct =
            if change.is_finite() { format!("{:+.1}%", 100.0 * change) } else { "inf".into() };
        println!("  {:<28} {:>12.5} -> {:>12.5}  {:>8}  {}", d.path, d.old, d.new, pct, marker);
    }
    if regressions > 0 {
        return Err(format!(
            "bench-diff: {regressions} regression(s) beyond {threshold_pct}% — see above"
        ));
    }
    println!("bench-diff: no regressions beyond {threshold_pct}% across {} leaves", deltas.len());
    Ok(())
}

// ---------------------------------------------------------------------------
// check-metrics
// ---------------------------------------------------------------------------

/// Read a Prometheus exposition from a file or a live `http://` endpoint.
fn load_exposition_text(src: &str) -> Result<String, String> {
    if src.starts_with("http://") {
        http_get(src, Duration::from_secs(2)).map_err(|e| format!("scraping {src}: {e}"))
    } else {
        std::fs::read_to_string(src).map_err(|e| format!("reading {src}: {e}"))
    }
}

/// Counter families any real run must have moved; `check-metrics` refuses a
/// scrape where one of them is still zero.
const CORE_FAMILIES: &[&str] = &[
    "cloudburst_pool_grants_total",
    "cloudburst_pool_jobs_merged_total",
    "cloudburst_slave_jobs_total",
    "cloudburst_slave_fetch_busy_seconds_total",
];

/// Validate a metrics scrape: the text must parse as exposition format
/// 0.0.4 (the parser rejects duplicate series and malformed lines), and the
/// core counter families must be live. With `--retries N` the whole check
/// is retried (for scraping a just-started run); with `--against-stats`
/// the scrape's per-site totals are diffed against a `--stats-out` document
/// — exact equality, since both sides are fed from the same code points.
fn cmd_check_metrics(args: &[String]) -> Result<(), String> {
    let src = args.first().ok_or("check-metrics: missing FILE or http:// URL")?;
    let retries: u32 = opt_parse(args, "--retries", 0)?;

    let mut attempt = 0;
    let exp = loop {
        let outcome = load_exposition_text(src).and_then(|text| {
            let exp = parse_exposition(&text).map_err(|e| format!("{src}: {e}"))?;
            for family in CORE_FAMILIES {
                if exp.sum_family(family) <= 0.0 {
                    return Err(format!(
                        "{src}: core counter family `{family}` is missing or zero"
                    ));
                }
            }
            Ok(exp)
        });
        match outcome {
            Ok(exp) => break exp,
            Err(e) if attempt < retries => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(300));
                eprintln!("check-metrics: retry {attempt}/{retries} after: {e}");
            }
            Err(e) => return Err(e),
        }
    };

    if let Some(stats_path) = opt(args, "--against-stats") {
        let text = std::fs::read_to_string(stats_path)
            .map_err(|e| format!("reading {stats_path}: {e}"))?;
        let stats = Json::parse(text.trim()).map_err(|e| format!("{stats_path}: {e}"))?;
        diff_against_stats(&exp, &stats).map_err(|e| format!("{src} vs {stats_path}: {e}"))?;
        println!("{src}: totals match {stats_path} exactly");
    }
    println!("{src}: valid exposition ({} series), core counters live", exp.series.len());
    Ok(())
}

/// The exact-match contract between a scrape and a `--stats-out` document:
/// for every site, merged-minus-lost completions equal the report's job
/// counts per kind, and the slaves' remote-byte / retry counters equal the
/// report's. Valid for single-run commands (wordcount, knn); iterative
/// apps accumulate metrics across iterations while stats cover the last.
fn diff_against_stats(exp: &Exposition, stats: &Json) -> Result<(), String> {
    let u64_field = |obj: &Json, key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("stats document lacks numeric `{key}`"))
    };
    let sites =
        stats.get("sites").and_then(Json::as_arr).ok_or("stats document lacks a `sites` array")?;
    let remote_bytes = exp.by_label("cloudburst_slave_remote_bytes_total", "site");
    let retries = exp.by_label("cloudburst_slave_retries_total", "site");
    for entry in sites {
        let site =
            entry.get("site").and_then(Json::as_str).ok_or("stats site entry lacks `site`")?;
        for (kind, key) in [("local", "jobs_local"), ("stolen", "jobs_stolen")] {
            let labels: &[(&str, &str)] = &[("kind", kind), ("site", site)];
            let merged = exp.get("cloudburst_pool_jobs_merged_total", labels).unwrap_or(0.0);
            let lost = exp.get("cloudburst_pool_results_lost_total", labels).unwrap_or(0.0);
            let expected = u64_field(entry, key)?;
            let got = (merged - lost).round() as u64;
            if got != expected {
                return Err(format!(
                    "site {site} {kind} jobs: scrape says {got} (merged {merged} - lost {lost}), stats say {expected}"
                ));
            }
        }
        for (what, key, sums) in
            [("remote bytes", "remote_bytes", &remote_bytes), ("retries", "retries", &retries)]
        {
            let expected = u64_field(entry, key)?;
            let got = sums.get(site).copied().unwrap_or(0.0).round() as u64;
            if got != expected {
                return Err(format!("site {site} {what}: scrape says {got}, stats say {expected}"));
            }
        }
    }
    Ok(())
}

/// Parse a `--chaos` spec — comma-separated `key=value` clauses layered over
/// an empty seeded plan, e.g. `seed=7,storage=0.05,outage=cloud@1.5`. The
/// optional `hb=INTERVAL:TIMEOUT` and `lease=BASE:MIN:MAX:MULT` clauses tune
/// the failure detectors so outages and crashes can be demonstrated to
/// recover within a short run.
#[allow(clippy::type_complexity)]
fn parse_chaos(
    spec: &str,
) -> Result<
    (
        cloudburst_core::FaultPlan,
        Option<cloudburst_core::HeartbeatConfig>,
        Option<cloudburst_core::LeaseConfig>,
    ),
    String,
> {
    use cloudburst_core::{
        FaultPlan, HeartbeatConfig, LeaseConfig, SiteOutage, SlowSite, SlowWorker, WorkerCrash,
    };
    fn site(s: &str) -> Result<SiteId, String> {
        match s {
            "local" => Ok(SiteId::LOCAL),
            "cloud" => Ok(SiteId::CLOUD),
            n => n.parse().map(SiteId).map_err(|_| format!("unknown site `{n}`")),
        }
    }
    fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("invalid {what} `{v}` in --chaos"))
    }
    /// A time, delay, factor or rate: finite and >= 0, or > 0 when `positive`.
    fn real(clause: &str, v: &str, what: &str, positive: bool) -> Result<f64, String> {
        let x: f64 = num(v, what)?;
        if x.is_finite() && if positive { x > 0.0 } else { x >= 0.0 } {
            return Ok(x);
        }
        let bound = if positive { "> 0" } else { ">= 0" };
        Err(format!("chaos clause `{clause}`: {what} `{v}` is not finite and {bound}"))
    }
    fn triple(v: &str) -> Result<(&str, &str, &str), String> {
        let mut it = v.splitn(3, ':');
        match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), Some(c)) => Ok((a, b, c)),
            _ => Err(format!("chaos clause `{v}` wants SITE:WORKER:VALUE")),
        }
    }
    let mut plan = FaultPlan::seeded(0);
    let mut hb = None;
    let mut lease = None;
    for clause in spec.split(',').filter(|c| !c.is_empty()) {
        let (key, val) = clause
            .split_once('=')
            .ok_or_else(|| format!("chaos clause `{clause}` is not key=value"))?;
        match key {
            "seed" => plan.seed = num(val, "seed")?,
            "storage" => {
                plan.storage_error_rate = real(clause, val, "storage error rate", false)?;
                if plan.storage_error_rate > 1.0 {
                    return Err(format!("chaos clause `{clause}`: a rate is at most 1"));
                }
            }
            "outage" => {
                let (s, at) = val
                    .split_once('@')
                    .ok_or_else(|| format!("outage clause `{val}` wants SITE@SECONDS"))?;
                let at = real(clause, at, "outage time", false)?;
                plan.site_outage = Some(SiteOutage { site: site(s)?, at });
            }
            "slow" => {
                // Two forms, told apart by field count: SITE:FACTOR slows a
                // whole site multiplicatively, SITE:WORKER:SECS delays one
                // worker per job.
                match val.split(':').count() {
                    2 => {
                        let (s, f) = val.split_once(':').expect("two fields");
                        let factor = real(clause, f, "slowdown factor", false)?;
                        plan.slow_sites.push(SlowSite { site: site(s)?, factor });
                    }
                    3 => {
                        let (s, w, d) = triple(val)?;
                        plan.slow_workers.push(SlowWorker {
                            site: site(s)?,
                            worker: num(w, "worker index")?,
                            delay_per_job: real(clause, d, "delay", false)?,
                        });
                    }
                    _ => {
                        return Err(format!(
                            "slow clause `{val}` wants SITE:FACTOR or SITE:WORKER:SECS"
                        ));
                    }
                }
            }
            "crash" => {
                let (s, w, n) = triple(val)?;
                plan.worker_crash.push(WorkerCrash {
                    site: site(s)?,
                    worker: num(w, "worker index")?,
                    after_jobs: num(n, "job count")?,
                });
            }
            "hb" => {
                let (i, t) = val
                    .split_once(':')
                    .ok_or_else(|| format!("hb clause `{val}` wants INTERVAL:TIMEOUT"))?;
                hb = Some(HeartbeatConfig {
                    interval: real(clause, i, "heartbeat interval", true)?,
                    timeout: real(clause, t, "heartbeat timeout", true)?,
                });
            }
            "lease" => {
                let parts: Vec<&str> = val.split(':').collect();
                let [b, min, max, m] = parts.as_slice() else {
                    return Err(format!("lease clause `{val}` wants BASE:MIN:MAX:MULT"));
                };
                lease = Some(LeaseConfig {
                    base: real(clause, b, "lease base", false)?,
                    min: real(clause, min, "lease min", false)?,
                    max: real(clause, max, "lease max", false)?,
                    multiplier: real(clause, m, "lease multiplier", false)?,
                });
            }
            other => return Err(format!("unknown chaos clause `{other}`")),
        }
    }
    Ok((plan, hb, lease))
}

/// Print the end-of-run report: a compact per-site table (jobs, steals,
/// utilization, phase breakdown, remote bytes), the run totals, the fault
/// summary, and the dollar-cost accounting.
fn print_report(report: &RunReport, cost: &CostReport) {
    println!("--- run report ({}) ---", report.env);
    println!(
        "  {:<6} {:>6} {:>7} {:>6} {:>9} {:>9} {:>8} {:>12}",
        "site", "jobs", "stolen", "util%", "proc(s)", "retr(s)", "sync(s)", "remote-bytes"
    );
    for (site, s) in &report.sites {
        let busy = s.breakdown.total();
        let util = if busy + s.idle > 0.0 { 100.0 * busy / (busy + s.idle) } else { 0.0 };
        println!(
            "  {:<6} {:>6} {:>7} {:>6.1} {:>9.3} {:>9.3} {:>8.3} {:>12}",
            site.to_string(),
            s.jobs.total(),
            s.jobs.stolen,
            util,
            s.breakdown.processing,
            s.breakdown.retrieval,
            s.breakdown.sync,
            s.remote_bytes
        );
    }
    println!(
        "  global reduction {:.4}s | total {:.3}s",
        report.global_reduction, report.total_time
    );
    println!(
        "  cost: ${:.4} = compute ${:.4} ({} instance{} / {} billed h) \
         + requests ${:.4} ({} GETs) + egress ${:.4} ({} bytes)",
        cost.total(),
        cost.compute_cost,
        cost.instances,
        if cost.instances == 1 { "" } else { "s" },
        cost.instance_hours,
        cost.request_cost,
        cost.get_requests,
        cost.egress_cost,
        cost.egress_bytes
    );
    let f = &report.faults;
    if !f.is_quiet() || report.total_retries() > 0 {
        println!(
            "  faults: {} lease expiries | {} evacuated | {} lost results | \
             {} speculative ({} won, {} lost) | {} duplicates ({} re-reduced) | {} late | \
             {} abandoned | {} storage retries",
            f.lease_expiries,
            f.evacuated_jobs,
            f.lost_results,
            f.speculative_grants,
            f.speculative_wins,
            f.speculative_losses,
            f.duplicate_completions,
            f.rereduced_jobs,
            f.late_completions,
            f.abandoned_jobs.len(),
            report.total_retries()
        );
    }
    if f.replica_grants + f.replica_wins + f.replica_fences + f.saved_refetches > 0 {
        println!(
            "  coded: {} replica grants ({} won, {} fenced) | {} re-fetches saved",
            f.replica_grants, f.replica_wins, f.replica_fences, f.saved_refetches
        );
    }
}

fn read_all(
    index: &DataIndex,
    stores: &BTreeMap<SiteId, Arc<dyn ChunkStore>>,
) -> Result<Bytes, String> {
    let mut out = Vec::with_capacity(index.total_bytes() as usize);
    for f in &index.files {
        let store = stores.get(&f.site).ok_or_else(|| format!("no store for {}", f.site))?;
        let bytes = store.read(f.id, 0, f.len).map_err(|e| e.to_string())?;
        out.extend_from_slice(&bytes);
    }
    Ok(Bytes::from(out))
}

fn max_page(
    index: &DataIndex,
    stores: &BTreeMap<SiteId, Arc<dyn ChunkStore>>,
) -> Result<u32, String> {
    let mut max = 0u32;
    let all = read_all(index, stores)?;
    for rec in all.chunks_exact(8) {
        let e = cloudburst_apps::units::Edge::decode(rec);
        max = max.max(e.src).max(e.dst);
    }
    Ok(max)
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

/// Regenerate paper artifacts in-process, as `repro` prints them.
fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let artifact = args.first().map_or("all", String::as_str);
    cloudburst_sim::figures::print_artifact(artifact, &cloudburst_sim::SimParams::paper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::SlaveSample;

    /// The meter of a run whose data is all at the local site.
    fn no_cloud_data() -> CostMeter {
        let pricing = PricingModel::aws_2011();
        CostMeter { pricing, cloud_cores: 1, cloud_chunks: 0, gets_per_pass: 0 }
    }

    #[test]
    fn chaos_specs_with_numbers_out_of_range_are_refused_by_clause() {
        // Every spec verify.sh runs with parses.
        for spec in [
            "seed=5,storage=0.2,slow=cloud:0:0.5,crash=local:1:2,lease=0.004:0.004:0.02:8,hb=0.05:30",
            "seed=7,outage=cloud@0.02,hb=0.005:0.03",
            "seed=5,outage=cloud@0.1,slow=local:0:0.02,hb=0.01:0.25",
            "seed=5,lease=0.0005:0.0005:0.001:1,slow=cloud:40",
            "storage=0,storage=1,slow=cloud:0,outage=local@0",
        ] {
            assert!(parse_chaos(spec).is_ok(), "{spec}: {:?}", parse_chaos(spec).err());
        }
        for clause in [
            "slow=local:0:inf",
            "slow=local:0:-1",
            "slow=local:0:nan",
            "slow=cloud:NaN",
            "slow=cloud:-2",
            "hb=inf:1",
            "hb=0.1:0",
            "hb=0:1",
            "hb=-1:1",
            "storage=nan",
            "storage=-1",
            "storage=2",
            "outage=cloud@nan",
            "outage=cloud@-1",
            "outage=cloud@inf",
            "lease=0.1:0.1:inf:2",
            "lease=0.1:-0.1:1:2",
        ] {
            let err = parse_chaos(&format!("seed=1,{clause}")).expect_err(clause);
            assert!(err.contains(&format!("`{clause}`")), "{clause}: the message names it: {err}");
        }
    }

    #[test]
    fn pool_wait_advice_names_what_is_left_of_the_grant_path() {
        let advice = verdict_for("pool_wait");
        assert!(advice.contains("one verdict exchange per hand-off"), "{advice}");
        assert!(advice.contains("fault tolerance"), "{advice}");
        for family in [
            "cloudburst_slave_hand_offs_total",
            "cloudburst_slave_handed_jobs_total",
            "cloudburst_slave_settles_total",
            "cloudburst_slave_settled_jobs_total",
        ] {
            assert!(advice.contains(family), "{advice}");
        }
        assert!(advice.contains("re-reduced"), "{advice}");
        // Neither a request for jobs nor a verdict is a per-job cost any more.
        assert!(!advice.contains("per-job"), "{advice}");
        assert!(advice.contains("batch size"), "{advice}");
        // The request window sizes itself; the watermark is only its floor.
        assert!(!advice.contains("watermark"), "{advice}");
    }

    #[test]
    fn the_watch_line_names_a_straggler_only_while_the_detector_is_tripped() {
        // Local runs 7 jobs a second per core, the cloud 3: 0.6 of the mean,
        // slow, but whether that is a straggler is the health monitor's call.
        let mut ledger = LedgerTotals { in_flight: 10, ..LedgerTotals::default() };
        for (site, jobs) in [(SiteId::LOCAL, 7), (SiteId::CLOUD, 3)] {
            ledger.sites.insert(site, SiteTotals { jobs, leased: 5, ..SiteTotals::default() });
        }
        let prev = LedgerTotals::default();
        let (env, meter) = (EnvConfig::new("watch", 0.5, 1, 1), no_cloud_data());
        let line = |tripped: &[HealthDetector]| {
            watch_line(&ledger, &prev, 1.0, 1.0, &env, tripped, &meter)
        };
        let quiet = line(&[HealthDetector::QueueStall]);
        assert!(!quiet.contains("straggler"), "{quiet}");
        let tripped = line(&[HealthDetector::Straggler]);
        assert!(tripped.contains("straggler cloud (eta 1.0s)"), "{tripped}");
    }

    #[test]
    fn a_site_without_cores_is_no_straggler_on_the_watch_line() {
        // The cloud has jobs waiting and no cores to run them: it completes
        // nothing, and that names no straggler, tripped detector or not.
        let mut ledger = LedgerTotals { in_flight: 2, ..LedgerTotals::default() };
        let local = SiteTotals { jobs: 7, leased: 2, ..SiteTotals::default() };
        ledger.sites.insert(SiteId::LOCAL, local);
        ledger.sites.insert(SiteId::CLOUD, SiteTotals { depth: 8, ..SiteTotals::default() });
        let (prev, meter) = (LedgerTotals::default(), no_cloud_data());
        let (env, tripped) = (EnvConfig::new("watch", 0.5, 3, 0), [HealthDetector::Straggler]);
        let line = watch_line(&ledger, &prev, 1.0, 1.0, &env, &tripped, &meter);
        assert!(line.contains("| cloud 0 j/s 0% busy q 8"), "{line}");
        assert!(!line.contains("straggler"), "{line}");
    }

    #[test]
    fn a_site_that_ran_out_of_work_is_no_straggler() {
        // Both sites have cores. The cloud drained its shard and holds no
        // lease while the local site works through its last jobs: the cloud
        // completes nothing, and that is no pace to compare with anyone's.
        let mut prev = LedgerTotals::default();
        prev.sites.insert(SiteId::CLOUD, SiteTotals { jobs: 9, ..SiteTotals::default() });
        let mut ledger = LedgerTotals { in_flight: 2, ..prev.clone() };
        let local = SiteTotals { jobs: 6, leased: 2, ..SiteTotals::default() };
        ledger.sites.insert(SiteId::LOCAL, local);
        let env = EnvConfig::new("drained", 0.5, 3, 3);
        assert_eq!(site_rates(&ledger, &prev, 1.0, &env), [2.0], "the local site's alone");
        let mut monitor = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        for tick in 1..=4 {
            monitor.observe(&HealthSample {
                at_ns: tick * 250_000_000,
                outstanding: 2,
                completions: 15 + tick,
                site_rates: site_rates(&ledger, &prev, 1.0, &env),
                ..HealthSample::default()
            });
        }
        assert!(!monitor.tripped().contains(&HealthDetector::Straggler));
        let (tripped, meter) = ([HealthDetector::Straggler], no_cloud_data());
        let line = watch_line(&ledger, &prev, 1.0, 1.0, &env, &tripped, &meter);
        assert!(!line.contains("straggler"), "{line}");
    }

    #[test]
    fn the_wan_detectors_inputs_are_the_wan_class_fetches_the_run_logged() {
        // The cloud hosts a tenth of the data and has as many cores as the
        // local site: it runs dry first and steals, so the run makes LAN
        // reads, the cloud's reads of its own S3-class store and stolen ones.
        let data = gen::gen_words(40_000, 64, 7);
        let params = LayoutParams { unit_size: 16, units_per_chunk: 256, n_files: 10 };
        let org = organize(&data, params, &mut fraction_placement(0.9, 10)).unwrap();
        let stores = (org.stores.iter())
            .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
            .collect();
        let env = EnvConfig::new("wan-sample", 0.9, 2, 2);
        let mut config = RuntimeConfig::new(env.clone(), 1e-6);
        config.metrics = Metrics::on();
        let recorder = Arc::new(Recorder::new());
        config.telemetry = Telemetry::to(recorder.clone());
        let out = run_hybrid(&WordCount, &org.index, stores, &config).unwrap();
        assert!(out.report.total_stolen() > 0, "the run was to steal");

        let ledger = config.metrics.registry().expect("metrics are on").ledger();
        let sample = health_sample(&ledger, &LedgerTotals::default(), 0, 1.0, &env);
        let events = recorder.take();
        let wan: Vec<(bool, u64)> = (events.iter())
            .filter_map(|e| match e.kind {
                EventKind::ChunkFetched { remote, .. } => Some((remote, e.site, e.dur_ns)),
                _ => None,
            })
            .filter(|&(remote, site, _)| cloudburst_core::wan_class(site, remote))
            .map(|(remote, _, dur_ns)| (remote, dur_ns))
            .collect();
        assert!(wan.iter().any(|w| w.0) && wan.iter().any(|w| !w.0), "both kinds of WAN read");
        assert_eq!(sample.wan_fetch_jobs, wan.len() as u64);
        let secs: f64 = wan.iter().map(|&(_, dur_ns)| cloudburst_core::ns_to_secs(dur_ns)).sum();
        let drift = (sample.wan_fetch_secs - secs).abs();
        assert!(drift < 1e-9, "{} s counted, {secs} s logged", sample.wan_fetch_secs);
    }

    #[test]
    fn debug_sites_shows_each_sites_hand_offs_and_settles() {
        let metrics = Metrics::on();
        // Two cloud slaves: 80 jobs in two hand-offs, 30 settled in three
        // exchanges. The local slave has heard nothing yet.
        let exchanges = |hand_offs, handed, settles, settled| SlaveSample {
            hand_offs,
            handed,
            settles,
            settled,
            ..SlaveSample::default()
        };
        let slaves: Vec<_> = (0..3).map(|_| metrics.ledger()).collect();
        slaves[0].publish_slave(SiteId::CLOUD, 0, &exchanges(1, 64, 2, 24));
        slaves[1].publish_slave(SiteId::CLOUD, 1, &exchanges(1, 16, 1, 6));
        slaves[2].publish_slave(SiteId::LOCAL, 0, &SlaveSample::default());
        let registry = metrics.registry().expect("metrics are on");
        let doc = sites_debug_json(&registry.ledger(), None);
        let sites = doc.get("sites").and_then(Json::as_arr).expect("sites array");
        let field = |i: usize, name| sites[i].get(name).and_then(Json::as_f64);
        // Sites in id order: local, then cloud.
        assert_eq!(field(1, "hand_offs"), Some(2.0));
        assert_eq!(field(1, "jobs_per_hand_off"), Some(40.0));
        assert_eq!(field(1, "settles"), Some(3.0));
        assert_eq!(field(1, "jobs_per_settle"), Some(10.0));
        assert_eq!((field(0, "hand_offs"), field(0, "jobs_per_hand_off")), (Some(0.0), None));
        assert!(doc.get("head").is_none() && sites[1].get("master").is_none(), "{}", doc.to_text());
    }
}
