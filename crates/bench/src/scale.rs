//! The grants-at-scale benchmark behind `repro -- scale`: a million tiny
//! jobs pushed through the head's grant engine by thousands of simulated
//! slaves, on both control planes, with and without v2 batching.
//!
//! Four modes, two per runtime:
//!
//! * `channel_single`  — the channel head ([`run_head`]) serving one job
//!   per `RequestJobs` round trip (`BatchPolicy::Fixed(1)`): the per-RPC
//!   baseline of the paper's original design.
//! * `channel_batched` — the sharded pool's lock-free fast path
//!   ([`ShardedPool::get_jobs`]) driven in-process: the pool-side ceiling
//!   with no transport cost at all.
//! * `tcp_single`      — the poll-reactor head over real sockets, v1
//!   protocol, one `Request` → grant → `Complete` cycle per job.
//! * `tcp_batched`     — the same reactor, v2 protocol: `Hello` handshake,
//!   then `AckBatch{want}` exchanges that piggyback a window of acks on
//!   every refill request.
//!
//! Every mode must fully drain its pool and reproduce an order-independent
//! checksum over the granted job ids (`checksum_ok`), so the speedups are
//! earned on bit-exact work, not dropped grants. The TCP modes drive all
//! slave connections in waves from one thread — at most one outstanding
//! exchange per connection — which both bounds client memory and mirrors
//! how a real master paces the head.
//!
//! The single-job modes run a smaller dataset (per-RPC at 10^6 jobs would
//! dominate wall time); rates are steady-state grants/sec, so the
//! comparison across dataset sizes is fair.

use crate::overlap::LatencyQuantiles;
use cloudburst_cluster::wire::{
    encode_frame, encode_to_head, read_batch_reply, read_grant, read_hello_ack, write_get_jobs,
    write_hello, write_to_head, AckEntry, Frame, MasterToHead, WIRE_VERSION,
};
use cloudburst_cluster::{run_head, serve_head, HeadMsg};
use cloudburst_core::{
    BatchPolicy, ChunkId, DataIndex, JobBatch, JobPool, Json, LayoutParams, ShardedPool, SiteId,
};
use crossbeam::channel::{bounded, unbounded};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Instant;

/// Fibonacci-hash multiplier for the order-independent grant checksum.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Checksum contribution of one granted job id.
fn mix(id: ChunkId) -> u64 {
    (u64::from(id.0) + 1).wrapping_mul(MIX)
}

/// The checksum a mode must reproduce after draining `n_jobs` chunks
/// (ids `0..n_jobs`), in any order, each exactly once.
#[must_use]
pub fn reference_checksum(n_jobs: u64) -> u64 {
    (0..n_jobs).fold(0u64, |acc, i| acc.wrapping_add((i + 1).wrapping_mul(MIX)))
}

/// Workload shape for one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    /// `true` for the CI-sized smoke shape.
    pub quick: bool,
    /// Jobs drained by the batched modes.
    pub jobs_batched: u64,
    /// Jobs drained by the single-job baselines (smaller at full scale:
    /// per-RPC at a million jobs would dominate wall time).
    pub jobs_single: u64,
    /// Number of sites jobs are homed across.
    pub n_sites: u16,
    /// Simulated slave connections in the TCP modes.
    pub n_slaves: usize,
    /// v2 prefetch-credit window (jobs per batched exchange).
    pub window: u16,
}

impl ScaleParams {
    /// The paper-scale shape: 10^6 tiny jobs, 2048 simulated slaves.
    #[must_use]
    pub fn full() -> ScaleParams {
        ScaleParams {
            quick: false,
            jobs_batched: 1_000_000,
            jobs_single: 100_000,
            n_sites: 32,
            n_slaves: 2048,
            window: 64,
        }
    }

    /// The smoke shape for `verify.sh`: 10k jobs, 64 slaves.
    #[must_use]
    pub fn quick() -> ScaleParams {
        ScaleParams {
            quick: true,
            jobs_batched: 10_000,
            jobs_single: 10_000,
            n_sites: 8,
            n_slaves: 64,
            window: 32,
        }
    }
}

/// One mode's measured outcome.
#[derive(Debug, Clone, Copy)]
pub struct ModeResult {
    /// Stable mode label used in the JSON artifact.
    pub mode: &'static str,
    /// Jobs granted (== drained when `checksum_ok`).
    pub jobs: u64,
    /// Grant exchanges (round trips for RPC modes, `get_jobs` calls
    /// in-process).
    pub exchanges: u64,
    /// Wall-clock seconds for the drain.
    pub seconds: f64,
    /// Jobs granted per second — the headline rate.
    pub grants_per_sec: f64,
    /// Per-exchange grant latency quantiles, nanoseconds.
    pub grant_latency_ns: LatencyQuantiles,
    /// Every job granted exactly once, every grant completed and merged.
    pub checksum_ok: bool,
}

/// The full four-mode comparison.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Shape the run used.
    pub params: ScaleParams,
    /// Results in order: `channel_single`, `channel_batched`,
    /// `tcp_single`, `tcp_batched`.
    pub modes: Vec<ModeResult>,
    /// `channel_batched` grants/sec over `channel_single`.
    pub speedup_channel: f64,
    /// `tcp_batched` grants/sec over `tcp_single`.
    pub speedup_tcp: f64,
}

/// `n_jobs` one-unit chunks spread over `n_sites` files, one file per site.
fn scale_index(n_jobs: u64, n_sites: u16) -> DataIndex {
    DataIndex::build(
        n_jobs,
        LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: u32::from(n_sites) },
        |f| SiteId((f.0 % u32::from(n_sites)) as u16),
    )
    .expect("scale index must build")
}

/// Raw measurements of one mode's drain.
struct RawRun {
    jobs: u64,
    checksum: u64,
    seconds: f64,
    lats: Vec<u64>,
    /// Head-side (or verdict-side) completion count matched the grant count.
    completions_ok: bool,
}

fn finish(mode: &'static str, n_jobs: u64, mut raw: RawRun) -> ModeResult {
    let checksum_ok =
        raw.completions_ok && raw.jobs == n_jobs && raw.checksum == reference_checksum(n_jobs);
    raw.lats.sort_unstable();
    let q = |p: f64| -> f64 {
        if raw.lats.is_empty() {
            return 0.0;
        }
        let rank = ((p * raw.lats.len() as f64).ceil() as usize).clamp(1, raw.lats.len());
        raw.lats[rank - 1] as f64
    };
    ModeResult {
        mode,
        jobs: raw.jobs,
        exchanges: raw.lats.len() as u64,
        seconds: raw.seconds,
        grants_per_sec: if raw.seconds > 0.0 { raw.jobs as f64 / raw.seconds } else { 0.0 },
        grant_latency_ns: LatencyQuantiles { p50: q(0.50), p95: q(0.95), p99: q(0.99) },
        checksum_ok,
    }
}

// ---------------------------------------------------------------- channel

fn run_channel_single(n_jobs: u64, n_sites: u16) -> RawRun {
    let idx = scale_index(n_jobs, n_sites);
    let pool = JobPool::from_index(&idx, BatchPolicy::Fixed(1));
    let (tx, rx) = unbounded();
    let head = thread::spawn(move || run_head(pool, rx));

    let mut checksum = 0u64;
    let mut jobs = 0u64;
    let mut lats = Vec::with_capacity(n_jobs as usize + 64);
    let mut stalls = 0u64;
    let mut turn = 0usize;
    let start = Instant::now();
    loop {
        let site = SiteId((turn % n_sites as usize) as u16);
        turn += 1;
        let (btx, brx) = bounded(1);
        let t0 = Instant::now();
        tx.send(HeadMsg::RequestJobs { site, reply: btx }).expect("head hung up early");
        let batch = brx.recv().expect("head dropped a grant reply");
        lats.push(t0.elapsed().as_nanos() as u64);
        if batch.is_empty() {
            if batch.terminal {
                break;
            }
            stalls += 1;
            assert!(stalls < n_jobs + 100_000, "channel single-job drain stopped progressing");
            continue;
        }
        for j in &batch.jobs {
            checksum = checksum.wrapping_add(mix(j.id));
            jobs += 1;
            tx.send(HeadMsg::Complete { jobs: vec![j.id], site, reply: None })
                .expect("head hung up");
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(tx);
    let report = head.join().expect("channel head panicked");
    RawRun { jobs, checksum, seconds, lats, completions_ok: report.completions == n_jobs }
}

fn run_channel_batched(n_jobs: u64, n_sites: u16, window: u16) -> RawRun {
    let idx = scale_index(n_jobs, n_sites);
    let pool = ShardedPool::new(JobPool::from_index(&idx, BatchPolicy::Fixed(window as usize)));

    let mut checksum = 0u64;
    let mut jobs = 0u64;
    let mut merged = 0u64;
    let mut lats = Vec::with_capacity((n_jobs / u64::from(window.max(1))) as usize + 64);
    let mut stalls = 0u64;
    let mut turn = 0usize;
    let start = Instant::now();
    loop {
        let site = SiteId((turn % n_sites as usize) as u16);
        turn += 1;
        let now = start.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let batch = pool.get_jobs(site, window as usize, now);
        lats.push(t0.elapsed().as_nanos() as u64);
        if batch.is_empty() {
            if batch.terminal {
                break;
            }
            stalls += 1;
            assert!(stalls < n_jobs + 100_000, "sharded-pool drain stopped progressing");
            continue;
        }
        for j in &batch.jobs {
            checksum = checksum.wrapping_add(mix(j.id));
            jobs += 1;
            if pool.complete_at(j.id, site, now).is_merged() {
                merged += 1;
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    RawRun { jobs, checksum, seconds, lats, completions_ok: merged == n_jobs }
}

// -------------------------------------------------------------------- tcp

/// One simulated slave: a blocking socket the wave driver keeps at most one
/// outstanding exchange on.
struct SlaveConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    site: SiteId,
    held: Vec<ChunkId>,
    sent_at: Instant,
    done: bool,
}

fn connect_slaves(addr: SocketAddr, n_slaves: usize, n_sites: u16) -> Vec<SlaveConn> {
    (0..n_slaves)
        .map(|s| {
            let stream = TcpStream::connect(addr).expect("connect simulated slave");
            stream.set_nodelay(true).expect("set nodelay");
            let reader = BufReader::new(stream.try_clone().expect("clone slave socket"));
            SlaveConn {
                stream,
                reader,
                site: SiteId((s % n_sites as usize) as u16),
                held: Vec::new(),
                sent_at: Instant::now(),
                done: false,
            }
        })
        .collect()
}

/// Absorb one grant: count and checksum its jobs, or retire the connection
/// on a terminal empty grant. Returns jobs granted.
fn absorb(conn: &mut SlaveConn, batch: &JobBatch, checksum: &mut u64, active: &mut usize) -> u64 {
    if batch.is_empty() {
        if batch.terminal {
            write_to_head(&mut conn.stream, &MasterToHead::Bye).expect("send bye");
            conn.done = true;
            *active -= 1;
        }
        return 0;
    }
    for j in &batch.jobs {
        *checksum = checksum.wrapping_add(mix(j.id));
        conn.held.push(j.id);
    }
    batch.jobs.len() as u64
}

fn run_tcp_single(n_jobs: u64, n_sites: u16, n_slaves: usize) -> RawRun {
    let idx = scale_index(n_jobs, n_sites);
    let pool = JobPool::from_index(&idx, BatchPolicy::Fixed(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind head");
    let addr = listener.local_addr().expect("head addr");
    let head = thread::spawn(move || serve_head(&listener, pool, n_slaves));
    let mut conns = connect_slaves(addr, n_slaves, n_sites);

    let mut checksum = 0u64;
    let mut jobs = 0u64;
    let mut lats = Vec::with_capacity(n_jobs as usize + n_slaves);
    let mut active = conns.len();
    let mut waves = 0u64;
    let start = Instant::now();
    while active > 0 {
        waves += 1;
        assert!(waves <= n_jobs * 4 + 10_000, "tcp single-job drain stopped progressing");
        for c in conns.iter_mut().filter(|c| !c.done) {
            // One buffered syscall per wave: acks for everything held, then
            // the next request.
            let mut out = Vec::with_capacity(16 * (c.held.len() + 1));
            for job in c.held.drain(..) {
                let msg = MasterToHead::Complete { job, site: c.site, want_ack: false };
                out.extend_from_slice(&encode_to_head(&msg));
            }
            out.extend_from_slice(&encode_to_head(&MasterToHead::Request { site: c.site }));
            c.stream.write_all(&out).expect("write request wave");
            c.sent_at = Instant::now();
        }
        for c in conns.iter_mut().filter(|c| !c.done) {
            let batch = read_grant(&mut c.reader).expect("read grant");
            lats.push(c.sent_at.elapsed().as_nanos() as u64);
            jobs += absorb(c, &batch, &mut checksum, &mut active);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(conns);
    let report = head.join().expect("reactor head panicked").expect("reactor head errored");
    RawRun { jobs, checksum, seconds, lats, completions_ok: report.completions == n_jobs }
}

fn run_tcp_batched(n_jobs: u64, n_sites: u16, n_slaves: usize, window: u16) -> RawRun {
    let idx = scale_index(n_jobs, n_sites);
    let pool = JobPool::from_index(&idx, BatchPolicy::Fixed(window as usize));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind head");
    let addr = listener.local_addr().expect("head addr");
    let head = thread::spawn(move || serve_head(&listener, pool, n_slaves));
    let mut conns = connect_slaves(addr, n_slaves, n_sites);

    // Handshake wave: every connection negotiates v2 before the clock runs.
    for c in &mut conns {
        write_hello(&mut c.stream, c.site, WIRE_VERSION, window).expect("send hello");
    }
    for c in &mut conns {
        let v = read_hello_ack(&mut c.reader).expect("read hello ack");
        assert_eq!(v, WIRE_VERSION, "head must negotiate the batched protocol");
    }

    let mut checksum = 0u64;
    let mut jobs = 0u64;
    let mut merged = 0u64;
    let mut revoked = 0u64;
    let mut lats = Vec::with_capacity((n_jobs / u64::from(window.max(1))) as usize + n_slaves);
    let mut active = conns.len();
    let mut waves = 0u64;
    let start = Instant::now();

    // Opening wave: a bare GetJobs primes every connection's window.
    for c in conns.iter_mut() {
        write_get_jobs(&mut c.stream, c.site, window).expect("send get-jobs");
        c.sent_at = Instant::now();
    }
    for c in conns.iter_mut() {
        let batch = read_grant(&mut c.reader).expect("read opening grant");
        lats.push(c.sent_at.elapsed().as_nanos() as u64);
        jobs += absorb(c, &batch, &mut checksum, &mut active);
    }

    while active > 0 {
        waves += 1;
        assert!(waves <= n_jobs * 4 + 10_000, "tcp batched drain stopped progressing");
        for c in conns.iter_mut().filter(|c| !c.done) {
            let entries: Vec<AckEntry> =
                c.held.drain(..).map(|job| AckEntry { job, ok: true }).collect();
            let frame = Frame::AckBatch { site: c.site, want: window, entries };
            c.stream.write_all(&encode_frame(&frame)).expect("write ack batch");
            c.sent_at = Instant::now();
        }
        for c in conns.iter_mut().filter(|c| !c.done) {
            let reply = read_batch_reply(&mut c.reader).expect("read batch reply");
            lats.push(c.sent_at.elapsed().as_nanos() as u64);
            merged += reply.verdicts.iter().filter(|&&v| v).count() as u64;
            revoked += reply.revoked.len() as u64;
            // Contract: drop revoked jobs before absorbing the refill. The
            // held set was just drained into acks, so with fault tolerance
            // off (as here) there is nothing to drop — but honor it anyway.
            for r in &reply.revoked {
                c.held.retain(|&j| j != *r);
            }
            jobs += absorb(c, &reply.grant, &mut checksum, &mut active);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(conns);
    let report = head.join().expect("reactor head panicked").expect("reactor head errored");
    let completions_ok = merged == n_jobs && revoked == 0 && report.completions == n_jobs;
    RawRun { jobs, checksum, seconds, lats, completions_ok }
}

// ----------------------------------------------------------- entry + json

/// Run all four modes and assemble the comparison.
#[must_use]
pub fn run_scale(params: &ScaleParams) -> ScaleReport {
    let p = *params;
    let modes = vec![
        finish("channel_single", p.jobs_single, run_channel_single(p.jobs_single, p.n_sites)),
        finish(
            "channel_batched",
            p.jobs_batched,
            run_channel_batched(p.jobs_batched, p.n_sites, p.window),
        ),
        finish("tcp_single", p.jobs_single, run_tcp_single(p.jobs_single, p.n_sites, p.n_slaves)),
        finish(
            "tcp_batched",
            p.jobs_batched,
            run_tcp_batched(p.jobs_batched, p.n_sites, p.n_slaves, p.window),
        ),
    ];
    let rate =
        |label: &str| modes.iter().find(|m| m.mode == label).map_or(0.0, |m| m.grants_per_sec);
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let speedup_channel = div(rate("channel_batched"), rate("channel_single"));
    let speedup_tcp = div(rate("tcp_batched"), rate("tcp_single"));
    ScaleReport { params: p, modes, speedup_channel, speedup_tcp }
}

/// Serialize a [`ScaleReport`] for `BENCH_scale.json`.
#[must_use]
pub fn scale_json(r: &ScaleReport) -> Json {
    let modes = r
        .modes
        .iter()
        .map(|m| {
            Json::obj()
                .field("mode", Json::Str(m.mode.to_owned()))
                .field("jobs", Json::U64(m.jobs))
                .field("exchanges", Json::U64(m.exchanges))
                .field("seconds", Json::F64(m.seconds))
                .field("grants_per_sec", Json::F64(m.grants_per_sec))
                .field("grant_latency_ns", m.grant_latency_ns.to_json())
                .field("checksum_ok", Json::Bool(m.checksum_ok))
        })
        .collect();
    Json::obj()
        .field("bench", Json::Str("scale".to_owned()))
        .field("quick", Json::Bool(r.params.quick))
        .field("jobs_batched", Json::U64(r.params.jobs_batched))
        .field("jobs_single", Json::U64(r.params.jobs_single))
        .field("n_sites", Json::U64(u64::from(r.params.n_sites)))
        .field("n_slaves", Json::U64(r.params.n_slaves as u64))
        .field("window", Json::U64(u64::from(r.params.window)))
        .field("modes", Json::Arr(modes))
        .field(
            "speedup",
            Json::obj()
                .field("channel", Json::F64(r.speedup_channel))
                .field("tcp", Json::F64(r.speedup_tcp)),
        )
        .field("all_checksums_ok", Json::Bool(r.modes.iter().all(|m| m.checksum_ok)))
}

/// Write the artifact where `BENCH_SCALE_OUT` points (default:
/// `BENCH_scale.json` at the workspace root) and return the path.
///
/// # Panics
/// The output file must be writable.
pub fn write_scale_artifact(r: &ScaleReport) -> String {
    let out = std::env::var("BENCH_SCALE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").to_owned()
    });
    let mut text = scale_json(r).to_text();
    text.push('\n');
    std::fs::write(&out, text).expect("write BENCH_scale.json");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_run_is_bit_exact_in_every_mode() {
        let p = ScaleParams {
            quick: true,
            jobs_batched: 2_000,
            jobs_single: 2_000,
            n_sites: 4,
            n_slaves: 16,
            window: 16,
        };
        let r = run_scale(&p);
        assert_eq!(r.modes.len(), 4);
        for m in &r.modes {
            assert_eq!(m.jobs, 2_000, "{} must drain the whole pool", m.mode);
            assert!(m.checksum_ok, "{} lost or duplicated grants", m.mode);
            assert!(m.exchanges > 0 && m.seconds > 0.0);
        }
        // Batched modes move the same work in far fewer exchanges.
        let ex = |label: &str| r.modes.iter().find(|m| m.mode == label).map_or(0, |m| m.exchanges);
        assert!(ex("tcp_batched") < ex("tcp_single"));
        assert!(ex("channel_batched") < ex("channel_single"));
    }
}
