//! Probes: public functions of one layer timed in isolation, single caller,
//! on the workload's own index, stores and application. Each returns a
//! median or a mean over enough repeats to be steady, and each is bounded
//! in wall time so the traced stage stays short whatever the workload's
//! `time_scale`.

use crate::api::{
    encode_frame, fetch_chunk_pooled, read_batch_reply, read_grant, read_hello_ack, serve_head,
    tree_reduce, try_read_frame, write_ack_batch, write_get_jobs, write_hello, AckEntry,
    BatchPolicy, ChunkId, ChunkMeta, ChunkStore, DataIndex, Event, EventKind, FetchConfig,
    FetcherPool, Frame, JobPool, LinkSpec, MasterToHead, MemStore, Metrics, Recorder, Reduction,
    RetryPolicy, ShardedPool, SiteId, StoreRouter, Telemetry, Throttle, Topology, WIRE_VERSION,
};
use crate::stats::{median, percentile};
use crate::workloads::{organize_dense, run_once, Spec, Stores};
use bytes::{Bytes, BytesMut};
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs asked for per grant exchange in the pool and wire probes.
const GRANT_BATCH: usize = 32;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn no_retry() -> RetryPolicy {
    RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
}

/// Chunks hosted in the cloud, or every chunk when nothing is.
fn far_chunks(index: &DataIndex) -> Vec<ChunkMeta> {
    let cloud: Vec<ChunkMeta> =
        index.chunks.iter().filter(|c| c.site == SiteId::CLOUD).copied().collect();
    if cloud.is_empty() {
        index.chunks.clone()
    } else {
        cloud
    }
}

/// `fetch.chunk.us_p50`: `fetch_chunk_pooled` with the default
/// `FetchConfig` over the cloud-hosted chunks, for at most `budget`.
pub fn fetch_chunk_us_p50(index: &DataIndex, stores: &Stores, budget: Duration) -> f64 {
    let pool = FetcherPool::new(FetchConfig::default().threads as usize);
    let began = Instant::now();
    let mut samples = Vec::new();
    for chunk in far_chunks(index) {
        let t = Instant::now();
        let got = fetch_chunk_pooled(
            &pool,
            &stores[&chunk.site],
            &chunk,
            FetchConfig::default(),
            &no_retry(),
            None,
        );
        samples.push(us(t.elapsed()));
        black_box(got.expect("probe fetch failed"));
        if began.elapsed() >= budget {
            break;
        }
    }
    median(&samples).unwrap_or(0.0)
}

/// `fetch.reassemble.ns_per_kib`: what the pooled, range-splitting fetch
/// path costs over a direct `read` of the same chunk from a `MemStore`, per
/// KiB, at the workload's chunk size. `data` is a dataset prefix.
pub fn reassemble_ns_per_kib(spec: &Spec, data: &Bytes) -> f64 {
    let chunk_len = spec.units_per_chunk * u64::from(spec.unit_size);
    let n = (data.len() as u64 / chunk_len).clamp(1, 64);
    let file = data.slice(..(n * chunk_len) as usize);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new(SiteId::LOCAL, vec![file]));
    let chunks: Vec<ChunkMeta> = (0..n)
        .map(|i| ChunkMeta {
            id: ChunkId(i as u32),
            file: crate::api::FileId(0),
            offset: i * chunk_len,
            len: chunk_len,
            n_units: spec.units_per_chunk,
            site: SiteId::LOCAL,
        })
        .collect();
    let pool = FetcherPool::new(FetchConfig::default().threads as usize);
    // Enough rounds for ~64 MiB (or 50 000 tiny chunks) through each path.
    let rounds = ((64 << 20) / (n * chunk_len)).clamp(1, 50_000 / n + 1);
    let time = |pooled: bool| {
        let t = Instant::now();
        for _ in 0..rounds {
            for c in &chunks {
                if pooled {
                    let got = fetch_chunk_pooled(
                        &pool,
                        &store,
                        c,
                        FetchConfig::default(),
                        &no_retry(),
                        None,
                    );
                    black_box(got.expect("probe fetch failed"));
                } else {
                    black_box(store.read(c.file, c.offset, c.len).expect("probe read failed"));
                }
            }
        }
        t.elapsed().as_secs_f64()
    };
    // Warm both paths once, then measure.
    time(true);
    let direct = time(false);
    let pooled = time(true);
    let kib = (rounds * n * chunk_len) as f64 / 1024.0;
    (pooled - direct) * 1e9 / kib
}

/// `throttle.oversleep_frac`: real time blocked in `Throttle::transfer`
/// over the modelled time × `time_scale`, minus one, for WAN transfers of
/// the workload's chunk size.
pub fn throttle_oversleep_frac(spec: &Spec) -> f64 {
    let link: LinkSpec = Topology::paper_testbed().link(SiteId::LOCAL.0, SiteId::CLOUD.0);
    let bytes = spec.units_per_chunk * u64::from(spec.unit_size);
    let ideal = link.transfer_time(bytes) * spec.time_scale;
    let n = ((0.3 / ideal.max(1e-9)) as usize).clamp(3, 2_000);
    let throttle = Throttle::new(link, spec.time_scale);
    let t = Instant::now();
    for _ in 0..n {
        black_box(throttle.transfer(bytes));
    }
    t.elapsed().as_secs_f64() / (ideal * n as f64) - 1.0
}

/// `router.fetch_local.us_p50` and `router.fetch_remote.us_p50`:
/// `StoreRouter::fetch` as a reader at the chunk's own site and at the
/// other site (WAN charge included), each for at most `budget`.
pub fn router_fetch_us_p50(
    spec: &Spec,
    index: &DataIndex,
    stores: &Stores,
    budget: Duration,
) -> (f64, f64) {
    let mut router = StoreRouter::new(
        stores.clone(),
        &Topology::paper_testbed(),
        FetchConfig::default(),
        spec.time_scale,
    );
    router.set_concurrency(spec.cores() as usize);
    let other = |s: SiteId| if s == SiteId::LOCAL { SiteId::CLOUD } else { SiteId::LOCAL };
    let run = |remote: bool| {
        let began = Instant::now();
        let mut samples = Vec::new();
        for chunk in index.chunks.iter().take(2_000) {
            let reader = if remote { other(chunk.site) } else { chunk.site };
            let t = Instant::now();
            let got = router.fetch(reader, chunk);
            samples.push(us(t.elapsed()));
            let got = got.expect("probe fetch failed");
            assert_eq!(got.remote, remote, "router misjudged locality");
            black_box(got);
            if began.elapsed() >= budget {
                break;
            }
        }
        median(&samples).unwrap_or(0.0)
    };
    (run(false), run(true))
}

/// `tree_reduce.ms`: `tree_reduce` of four reduction objects of the
/// workload's application, each holding one chunk's worth of work.
pub fn tree_reduce_ms<R: Reduction>(app: &R, chunk: &[u8]) -> f64 {
    let mut items = Vec::new();
    app.decode(chunk, &mut items);
    let mut samples = Vec::new();
    for _ in 0..9 {
        let parts: Vec<R::RObj> = (0..4)
            .map(|_| {
                let mut robj = app.make_robj();
                app.reduce_group(&mut robj, &items);
                robj
            })
            .collect();
        let t = Instant::now();
        black_box(tree_reduce(parts));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples).unwrap_or(0.0)
}

/// `pool.build_ms` and `pool.grant.ns_per_job`: build the sharded pool from
/// the workload's index, then drain it with `get_jobs(32)` + `complete_at`,
/// the two sites taking turns.
pub fn pool_build_and_grant(index: &DataIndex) -> (f64, f64) {
    let t = Instant::now();
    let pool = ShardedPool::new(JobPool::from_index(index, BatchPolicy::default_adaptive(2)));
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let sites = [SiteId::LOCAL, SiteId::CLOUD];
    let mut done = 0usize;
    let mut calls = 0usize;
    let t = Instant::now();
    while done < index.n_chunks() && calls < 4 * index.n_chunks() + 16 {
        let site = sites[calls % 2];
        calls += 1;
        let batch = pool.get_jobs(site, GRANT_BATCH, 0.0);
        for job in &batch.jobs {
            black_box(pool.complete_at(job.id, site, 0.0));
        }
        done += batch.jobs.len();
        if batch.terminal {
            break;
        }
    }
    let grant_ns = t.elapsed().as_secs_f64() * 1e9 / done.max(1) as f64;
    assert_eq!(done, index.n_chunks(), "pool probe did not drain the index");
    (build_ms, grant_ns)
}

/// `wire.frame.ns`: `encode_frame` + `try_read_frame` of one 32-entry
/// `AckBatch`.
pub fn wire_frame_ns() -> f64 {
    let entries: Vec<AckEntry> =
        (0..GRANT_BATCH as u32).map(|i| AckEntry { job: ChunkId(i), ok: true }).collect();
    let frame = Frame::AckBatch { site: SiteId::CLOUD, want: GRANT_BATCH as u16, entries };
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        let bytes = encode_frame(black_box(&frame));
        let mut buf = BytesMut::from(&bytes[..]);
        let back = try_read_frame(&mut buf).expect("well-formed frame");
        black_box(back.expect("complete frame"));
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

/// Grant round-trip figures from the loopback probe.
pub struct GrantRtt {
    /// Median `AckBatch` → `BatchReply` round trip, µs.
    pub us_p50: f64,
    /// 99th percentile of the same, µs (0 below 1 000 exchanges).
    pub us_p99: f64,
    /// Jobs granted per second of exchange time.
    pub per_s: f64,
}

/// `grant.rtt.*` and `grant.per_s`: `serve_head` on loopback and one v2
/// client (`write_hello`, then `AckBatch { want: 32 }` exchanges that
/// acknowledge the previous grant) draining the workload's index, repeated
/// until 1 000 exchanges are in hand or `budget` is spent.
pub fn grant_rtt(index: &DataIndex, budget: Duration) -> std::io::Result<GrantRtt> {
    let began = Instant::now();
    let mut rtts_us: Vec<f64> = Vec::new();
    let mut jobs = 0u64;
    let mut in_exchange = Duration::ZERO;
    while rtts_us.len() < 1_000 && (rtts_us.is_empty() || began.elapsed() < budget) {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let pool = JobPool::from_index(index, BatchPolicy::default_adaptive(2));
        let report = std::thread::scope(|scope| -> std::io::Result<_> {
            let head = scope.spawn(|| serve_head(&listener, pool, 1));
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let site = SiteId::LOCAL;
            write_hello(&mut writer, site, WIRE_VERSION, GRANT_BATCH as u16)?;
            if read_hello_ack(&mut reader)? != WIRE_VERSION {
                return Err(std::io::Error::other("head refused wire v2"));
            }
            write_get_jobs(&mut writer, site, GRANT_BATCH as u16)?;
            let mut grant = read_grant(&mut reader)?;
            loop {
                jobs += grant.jobs.len() as u64;
                if grant.jobs.is_empty() && grant.terminal {
                    break;
                }
                let entries: Vec<AckEntry> =
                    grant.jobs.iter().map(|j| AckEntry { job: j.id, ok: true }).collect();
                let t = Instant::now();
                write_ack_batch(&mut writer, site, GRANT_BATCH as u16, &entries)?;
                let reply = read_batch_reply(&mut reader)?;
                let rtt = t.elapsed();
                rtts_us.push(us(rtt));
                in_exchange += rtt;
                grant = reply.grant;
            }
            writer.write_all(&encode_frame(&Frame::Legacy(MasterToHead::Bye)))?;
            writer.flush()?;
            head.join().map_err(|_| std::io::Error::other("head thread panicked"))?
        })?;
        if report.completions != index.n_chunks() as u64 {
            return Err(std::io::Error::other(format!(
                "grant probe merged {} of {} jobs",
                report.completions,
                index.n_chunks()
            )));
        }
    }
    Ok(GrantRtt {
        us_p50: median(&rtts_us).unwrap_or(0.0),
        us_p99: percentile(&rtts_us, 99.0).unwrap_or(0.0),
        per_s: jobs as f64 / in_exchange.as_secs_f64().max(1e-9),
    })
}

/// `telemetry.emit.ns`: one `Telemetry::emit` into a `Recorder` sink.
pub fn telemetry_emit_ns() -> f64 {
    let telemetry = Telemetry::to(Arc::new(Recorder::new()));
    let n = 200_000u64;
    let t = Instant::now();
    for i in 0..n {
        telemetry.emit(
            Event::span(i, 1, EventKind::JobProcessed)
                .site(SiteId::LOCAL)
                .worker(0)
                .chunk(ChunkId(i as u32)),
        );
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// `metrics.observe.ns`: one `Histogram::observe` on a live registry.
pub fn metrics_observe_ns() -> f64 {
    let metrics = Metrics::on();
    let hist = metrics.histogram("ladder_probe_seconds", "Probe histogram.", &[("site", "local")]);
    let n = 2_000_000u64;
    let t = Instant::now();
    for i in 0..n {
        hist.observe(black_box(i * 37 % 1_000_000));
    }
    black_box(hist.count());
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// `run.fixed_ms`: the median wall time of the workload's entry point over
/// a two-chunk in-memory dataset — thread spawn, pool and router build,
/// control-plane hand-shake, global reduction and teardown, with next to no
/// data work.
pub fn run_fixed_ms<R: Reduction>(spec: &Spec, app: &R, two_chunks: &Bytes) -> Result<f64, String> {
    let organized = organize_dense(two_chunks, spec, 2)?;
    let stores: Stores = organized
        .files
        .into_iter()
        .map(|(site, files)| (site, Arc::new(MemStore::new(site, files)) as Arc<dyn ChunkStore>))
        .collect();
    let config = spec.config();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let out = run_once(app, &organized.index, stores.clone(), &config, spec.tcp);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        out.map_err(|e| format!("fixed-cost probe: {e}"))?;
    }
    Ok(median(&samples).unwrap_or(0.0))
}
