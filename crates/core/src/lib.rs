//! # cloudburst-core
//!
//! The core of **cloudburst**, a framework for data-intensive computing with
//! cloud bursting — a Rust reproduction of Bicer, Chiu & Agrawal (SC 2011).
//!
//! This crate holds everything both runtimes (the threaded
//! `cloudburst-cluster` runtime and the paper-scale discrete-event simulator
//! in `cloudburst-sim`) share:
//!
//! * the **Generalized Reduction** programming model ([`reduction`]) — a
//!   MapReduce variant that fuses map, combine and reduce into a single
//!   `proc(e)` step over a mergeable *reduction object*, avoiding the
//!   intermediate-pair memory, sorting, grouping and shuffling costs of
//!   classic MapReduce;
//! * the ready-made accumulator library ([`combiners`]);
//! * the **files → chunks → units** data-organization model ([`layout`],
//!   [`index`]);
//! * the head node's global **job pool** with locality-aware consecutive
//!   batching and inter-cluster **work stealing** behind one sized grant
//!   ([`pool`]), the per-site master pool ([`master`]) and the slave's
//!   protocol state ([`slave`]);
//! * the experiment **environment configurations** ([`config`]) and the
//!   **statistics model** matching the paper's figures and tables
//!   ([`stats`]);
//! * the **failure model** ([`fault`]): job leases, heartbeat liveness and
//!   the deterministic chaos-injection plan shared by the threaded runtime,
//!   the TCP deployment and the simulator;
//! * the **telemetry layer** ([`telemetry`]): a typed event taxonomy with a
//!   lock-cheap sink trait, JSONL / Chrome-trace exporters, and an
//!   aggregator that re-derives the paper-shaped statistics from the event
//!   stream — plus the dependency-free JSON value ([`json`]) the exporters
//!   and the `--stats-out` artifacts are written with;
//! * the **live metrics layer** ([`metrics`]): sharded atomic counters,
//!   gauges and bounded log-linear histograms behind a one-branch-when-off
//!   handle, with a Prometheus text-exposition registry, a strict
//!   exposition parser/validator, and a dependency-free `/metrics` HTTP
//!   listener;
//! * the **health plane** ([`health`]): streaming anomaly detectors
//!   (straggler, shard imbalance, lease-reap storm, WAN regression, queue
//!   stall) with trip/clear hysteresis feeding the `/healthz` endpoint,
//!   typed `health-transition` telemetry events, and the black-box crash
//!   dump;
//! * the **causal analysis layer** ([`analysis`]): span-DAG reconstruction
//!   from any events JSONL, critical-path extraction, an exhaustive
//!   makespan attribution (WAN fetch / local fetch / compute / pool wait /
//!   recovery / reduction / idle), and cross-run benchmark diffing — the
//!   engine behind `cloudburst explain` and `cloudburst bench-diff`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod combiners;
pub mod config;
pub mod fault;
pub mod health;
pub mod index;
pub mod json;
pub mod layout;
pub mod master;
pub mod metrics;
pub mod pool;
pub mod reduction;
pub mod slave;
pub mod stats;
pub mod telemetry;
pub mod types;

pub use analysis::{
    analyze, check_sequence, diff_benchmarks, parse_events_jsonl, Attribution, BenchDelta,
    Direction, PathSegment, RunAnalysis, SeqCheck, SpanDag, SpanNode,
};
pub use config::EnvConfig;
pub use fault::{
    AbandonedJob, FaultCounters, FaultPlan, HeartbeatConfig, LeaseConfig, SiteOutage, SlowSite,
    SlowWorker, WorkerCrash,
};
pub use health::{
    HealthConfig, HealthDetector, HealthMonitor, HealthSample, HealthTransitionRecord,
};
pub use index::DataIndex;
pub use json::Json;
pub use layout::{ChunkMeta, FileMeta, LayoutParams};
pub use master::{ask_size, Ledger, LocalJob, MasterPool, RequestId, Take};
pub use metrics::{
    check_monotonic, http_get, http_get_status, parse_exposition, Counter, Exposition, Gauge,
    Histogram, LedgerTotals, LiveLedger, Metrics, MetricsServer, Registry, RouteHandler,
    RouteResponse, SiteTotals,
};
pub use pool::Completion;
pub use pool::{BatchPolicy, JobBatch, JobPool, ShardedPool, SiteJobCounts};
pub use reduction::{global_reduce, reduce_serial, tree_reduce, Merge, Reduction, ReductionObject};
pub use slave::SlaveCore;
pub use stats::{
    assemble_report, assemble_sites, doubling_efficiency, report_to_json, Breakdown, RunReport,
    SiteSample, SiteStats, SlaveSample,
};
pub use telemetry::{
    chrome_trace, derive_report, events_to_jsonl, ns_between, ns_since, ns_to_secs, secs_to_ns,
    ConsoleSink, Event, EventKind, EventSink, FlightRecorder, JsonlSink, LogLevel, PoolTally,
    Recorder, Telemetry,
};
pub use types::{ByteSize, ChunkId, FileId, NodeId, Seconds, SiteId};
