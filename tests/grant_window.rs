//! The simulator and the threaded runtime run the same master
//! (`cloudburst_core::MasterPool`), so on a configuration where the master's
//! request window is what decides the outcome they must tell the same story.
//!
//! The configuration: 1 200 jobs of one millisecond, half at each of two
//! single-core sites, the head with the local cluster and the cloud master
//! 40 ms away — jobs 80 times shorter than the grant round trip.
//!
//! A master that waits out the round trip feeds its cloud slave at most one
//! batch of ≤ 8 jobs per 80 ms + 8 × 1 ms, an eleventh of the slave's speed.
//! The local slave finishes its own 600 jobs in 0.6 s and then steals cloud
//! chunks at 41 ms of WAN apiece; the two meet after about 110 steals and
//! 5.4 s (0.6 + 0.042 S = 0.011 (600 − S)); the last commit with that master
//! measured 6.2 s and 129 steals here, and its DES — whose head grants
//! batches of ≤ 2 — predicted 13.0 s and 299. With the round trip hidden
//! behind a window of requests both slaves run at full speed: 0.6 s of jobs,
//! one 80 ms round trip of start-up, and steals only where the two sites'
//! ends do not line up. Both the DES's prediction and a real `run_hybrid`
//! must land on that side — steals fall, makespan falls — and near each
//! other; so must `run_hybrid_tcp`, whose master drives the same state
//! machine over a socket.

use bytes::Bytes;
use cloudburst_cluster::{run_hybrid, run_hybrid_tcp, RuntimeConfig};
use cloudburst_core::{EnvConfig, LayoutParams, Merge, Reduction, ReductionObject, SiteId};
use cloudburst_netsim::LinkSpec;
use cloudburst_sim::multi::{simulate_multi, MultiEnv, SiteSpec};
use cloudburst_sim::{AppModel, ResourceSpec};
use cloudburst_storage::{fraction_placement, organize, ChunkStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: u32 = 1_200;
const UNITS_PER_CHUNK: u64 = 64;
const JOB_SECS: f64 = 1e-3;
const ONE_WAY: f64 = 40e-3;

/// What the blocking master makes of this configuration (derived above).
const BLOCKING_MAKESPAN: f64 = 5.4;
const BLOCKING_STEALS: u64 = 110;

/// Sums little-endian `u32` units; every chunk takes [`JOB_SECS`] to decode.
struct SleepySum;

#[derive(Debug, PartialEq)]
struct Sum(u64);

impl Merge for Sum {
    fn merge(&mut self, other: Sum) {
        self.0 += other.0;
    }
}

impl ReductionObject for Sum {
    fn byte_size(&self) -> usize {
        8
    }
}

impl Reduction for SleepySum {
    type Item = u32;
    type RObj = Sum;
    fn make_robj(&self) -> Sum {
        Sum(0)
    }
    fn unit_size(&self) -> usize {
        4
    }
    fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
        std::thread::sleep(Duration::from_secs_f64(JOB_SECS));
        out.extend(chunk.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
    }
    fn local_reduce(&self, robj: &mut Sum, item: &u32) {
        robj.0 += u64::from(*item);
    }
}

/// `(makespan, stolen jobs)` of the real runtime on the configuration, the
/// control plane over channels or over loopback TCP.
fn measured(tcp: bool) -> (f64, u64) {
    let units = u64::from(CHUNKS) * UNITS_PER_CHUNK;
    let data = Bytes::from((0..units as u32).flat_map(u32::to_le_bytes).collect::<Vec<u8>>());
    let params = LayoutParams { unit_size: 4, units_per_chunk: UNITS_PER_CHUNK, n_files: 8 };
    let org = organize(&data, params, &mut fraction_placement(0.5, 8)).unwrap();
    let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    // Real time: the paper test bed's 40 ms WAN is the control link.
    let config = RuntimeConfig::new(EnvConfig::new("tiny-jobs", 0.5, 1, 1), 1.0);
    assert_eq!(config.topology.link(SiteId::LOCAL.0, SiteId::CLOUD.0).latency, ONE_WAY);
    let run = if tcp { run_hybrid_tcp } else { run_hybrid };
    let out = run(&SleepySum, &org.index, stores, &config).unwrap();
    assert_eq!(out.result.0, (0..units).sum::<u64>());
    assert_eq!(out.head.completions, u64::from(CHUNKS));
    (out.report.total_time, out.report.total_stolen())
}

/// `(makespan, stolen jobs)` the DES predicts for it.
fn predicted() -> (f64, u64) {
    let chunk_bytes = UNITS_PER_CHUNK * 4;
    let app = AppModel {
        name: "tiny-jobs".into(),
        unit_size: 4,
        compute_per_unit: JOB_SECS / UNITS_PER_CHUNK as f64,
        cloud_compute_factor: 1.0,
        robj_bytes: 8,
    };
    // In-memory stores: reads cost microseconds.
    let memory = ResourceSpec { channels: 4, link: LinkSpec::new(1e-6, 1e9) };
    let site = |site: SiteId| SiteSpec {
        site,
        cores: 1,
        cores_per_slave: 1,
        compute_factor: 1.0,
        jitter: 0.0,
        store: memory,
        data_fraction: 0.5,
    };
    let env = MultiEnv {
        name: "tiny-jobs".into(),
        sites: vec![site(SiteId::LOCAL), site(SiteId::CLOUD)],
        wan: ResourceSpec { channels: 4, link: LinkSpec::new(ONE_WAY, 50e6) },
        control_latency: ONE_WAY,
        robj_stream_bw: 4e6,
        merge_bw: 2e9,
        seed: 7,
        dataset_bytes: u64::from(CHUNKS) * chunk_bytes,
        n_files: 8,
        n_chunks: CHUNKS,
        // The runtime is given no steal costs either.
        rate_aware_stealing: false,
        chaos: None,
        speculation: false,
        redundancy: 1,
    };
    let report = simulate_multi(&app, &env);
    assert_eq!(report.total_jobs(), u64::from(CHUNKS));
    (report.total_time, report.total_stolen())
}

#[test]
fn des_and_runtime_agree_that_the_grant_round_trip_is_hidden() {
    let (sim_makespan, sim_steals) = predicted();
    let (run_makespan, run_steals) = measured(false);
    for (who, makespan, steals) in
        [("DES", sim_makespan, sim_steals), ("runtime", run_makespan, run_steals)]
    {
        assert!(
            makespan < BLOCKING_MAKESPAN / 2.0,
            "{who}: {makespan:.2} s is not clear of the blocking master's {BLOCKING_MAKESPAN} s"
        );
        assert!(
            steals < BLOCKING_STEALS / 2,
            "{who}: {steals} steals, the blocking master causes about {BLOCKING_STEALS}"
        );
    }
    // The prediction tracks the measurement: the runtime adds thread
    // hand-offs and sleep overshoot to every 1 ms job (1.14 s against the
    // DES's 0.83 s on an idle box), the DES adds nothing.
    assert!(
        sim_makespan <= run_makespan * 1.1 && run_makespan <= sim_makespan * 3.0,
        "DES {sim_makespan:.2} s vs runtime {run_makespan:.2} s"
    );
}

/// The TCP master is the same state machine behind a socket. Its lockstep
/// predecessor slept out one 80 ms exchange per finished job and took 17 s
/// here, worse than the blocking channel master; this one has to land where
/// the channel master does.
#[test]
fn the_tcp_master_hides_the_grant_round_trip_too() {
    let (makespan, steals) = measured(true);
    assert!(
        makespan < BLOCKING_MAKESPAN / 2.0,
        "TCP: {makespan:.2} s is not clear of the blocking master's {BLOCKING_MAKESPAN} s"
    );
    assert!(
        steals < BLOCKING_STEALS / 2,
        "TCP: {steals} steals, the blocking master causes about {BLOCKING_STEALS}"
    );
}
