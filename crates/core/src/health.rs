//! Streaming health detectors over a live run's telemetry and metrics.
//!
//! The sampler thread (or any periodic observer) folds each tick's counter
//! snapshot into a [`HealthSample`] and feeds it to a [`HealthMonitor`]. The
//! monitor runs five streaming anomaly detectors — straggler-ETA blowout,
//! shard-imbalance ratio, lease-reap storm, WAN fetch-latency regression
//! against the run's own baseline, and queue stall — each with trip/clear
//! hysteresis so a single noisy tick never flaps the verdict. Every state
//! change emits a typed [`EventKind::HealthTransition`] telemetry event and
//! is appended to an in-memory timeline that the `/healthz` endpoint and the
//! black-box crash dump serialize as JSON.

use crate::json::Json;
use crate::telemetry::{Event, EventKind, Telemetry};

/// The anomaly detectors the health plane runs, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthDetector {
    /// Slowest site's per-core completion rate fell far below the mean.
    Straggler,
    /// Max shard queue depth far exceeds the mean depth.
    ShardImbalance,
    /// Lease reaps per second above threshold (mass worker loss or
    /// deadlines sized far too tight).
    ReapStorm,
    /// Per-job WAN fetch latency regressed against this run's own
    /// first-window baseline.
    WanRegression,
    /// Outstanding work exists but nothing completed this tick.
    QueueStall,
}

impl HealthDetector {
    /// Every detector, in display order.
    pub const ALL: [HealthDetector; 5] = [
        HealthDetector::Straggler,
        HealthDetector::ShardImbalance,
        HealthDetector::ReapStorm,
        HealthDetector::WanRegression,
        HealthDetector::QueueStall,
    ];

    /// Stable machine-readable name, used in events, JSON, and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HealthDetector::Straggler => "straggler-eta",
            HealthDetector::ShardImbalance => "shard-imbalance",
            HealthDetector::ReapStorm => "lease-reap-storm",
            HealthDetector::WanRegression => "wan-regression",
            HealthDetector::QueueStall => "queue-stall",
        }
    }

    /// Inverse of [`HealthDetector::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<HealthDetector> {
        HealthDetector::ALL.into_iter().find(|d| d.label() == s)
    }

    fn index(self) -> usize {
        match self {
            HealthDetector::Straggler => 0,
            HealthDetector::ShardImbalance => 1,
            HealthDetector::ReapStorm => 2,
            HealthDetector::WanRegression => 3,
            HealthDetector::QueueStall => 4,
        }
    }
}

/// Thresholds and hysteresis widths for the detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Trip [`HealthDetector::Straggler`] when the slowest site's per-core
    /// rate is below this fraction of the mean per-core rate.
    pub straggler_ratio: f64,
    /// Trip [`HealthDetector::ShardImbalance`] when max/mean shard depth
    /// exceeds this ratio.
    pub imbalance_ratio: f64,
    /// Trip [`HealthDetector::ReapStorm`] when lease reaps per second
    /// exceed this rate.
    pub reaps_per_sec: f64,
    /// Trip [`HealthDetector::WanRegression`] when per-job WAN fetch
    /// latency exceeds this multiple of the run's baseline window.
    pub wan_factor: f64,
    /// Consecutive bad ticks before a detector trips.
    pub trip_after: u32,
    /// Consecutive good ticks before a tripped detector clears.
    pub clear_after: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            straggler_ratio: 0.5,
            imbalance_ratio: 4.0,
            reaps_per_sec: 2.0,
            wan_factor: 2.0,
            trip_after: 2,
            clear_after: 2,
        }
    }
}

impl HealthConfig {
    /// Parse a `--health` spec: comma-separated `key=value` clauses over
    /// `straggler`, `imbalance`, `reaps`, `wan`, `trip`, `clear`. Unset
    /// keys keep their defaults.
    ///
    /// # Errors
    /// Unknown keys, unparseable values and thresholds that are negative or
    /// not finite are rejected with a message naming the offending clause.
    pub fn parse_spec(spec: &str) -> Result<HealthConfig, String> {
        let mut config = HealthConfig::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("health clause `{clause}`: expected key=value"))?;
            // Every threshold is a ratio, rate or factor: finite and >= 0.
            let f = || match value.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
                Ok(_) => Err(format!("health clause `{clause}`: `{value}` is not finite and >= 0")),
                Err(_) => Err(format!("health clause `{clause}`: bad number `{value}`")),
            };
            match key {
                "straggler" => config.straggler_ratio = f()?,
                "imbalance" => config.imbalance_ratio = f()?,
                "reaps" => config.reaps_per_sec = f()?,
                "wan" => config.wan_factor = f()?,
                "trip" => {
                    config.trip_after = value
                        .parse()
                        .map_err(|_| format!("health clause `{clause}`: bad count `{value}`"))?;
                }
                "clear" => {
                    config.clear_after = value
                        .parse()
                        .map_err(|_| format!("health clause `{clause}`: bad count `{value}`"))?;
                }
                other => return Err(format!("unknown health key `{other}`")),
            }
        }
        if config.trip_after == 0 || config.clear_after == 0 {
            return Err("health trip/clear counts must be >= 1".to_owned());
        }
        Ok(config)
    }
}

/// One tick's worth of run signals, as cumulative counters plus current
/// gauges; the monitor differentiates across consecutive samples itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSample {
    /// Nanoseconds since the run epoch.
    pub at_ns: u64,
    /// Jobs granted but not yet completed, plus queued jobs.
    pub outstanding: u64,
    /// Cumulative completed jobs.
    pub completions: u64,
    /// Cumulative lease reaps.
    pub lease_reaps: u64,
    /// Current per-shard queue depths (order is irrelevant).
    pub shard_depths: Vec<u64>,
    /// Per-core completion rates of the active sites over the last tick
    /// (jobs/sec/core); the caller leaves out the sites that cannot be
    /// stragglers: those with zero cores and those holding no lease.
    pub site_rates: Vec<f64>,
    /// Cumulative WAN (cloud) fetch busy seconds.
    pub wan_fetch_secs: f64,
    /// Cumulative WAN (cloud) fetch requests.
    pub wan_fetch_jobs: u64,
}

/// One recorded detector state change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransitionRecord {
    /// Nanoseconds since the run epoch, from the triggering sample.
    pub at_ns: u64,
    /// Which detector changed state.
    pub detector: HealthDetector,
    /// `true` = tripped, `false` = cleared.
    pub tripped: bool,
    /// The observed value that drove the transition.
    pub value: f64,
    /// The configured threshold the value was compared against.
    pub threshold: f64,
}

impl HealthTransitionRecord {
    /// Serialize as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("at_ns", Json::U64(self.at_ns))
            .field("detector", Json::Str(self.detector.label().to_owned()))
            .field("tripped", Json::Bool(self.tripped))
            .field("value", Json::F64(self.value))
            .field("threshold", Json::F64(self.threshold))
    }
}

/// Per-detector hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct DetectorState {
    tripped: bool,
    consecutive_bad: u32,
    consecutive_good: u32,
    trips: u64,
    last_value: f64,
    last_threshold: f64,
}

/// One detector's instantaneous reading on a tick.
#[derive(Debug, Clone, Copy)]
struct Reading {
    bad: bool,
    value: f64,
    threshold: f64,
}

/// Minimum jobs a WAN window must contain before its mean latency is
/// trusted — as the regression baseline or as a comparison window.
const WAN_MIN_JOBS: u64 = 8;
/// Minimum max-depth before shard imbalance is considered meaningful;
/// a 4-vs-0 split on a draining queue is noise, not skew.
const IMBALANCE_MIN_DEPTH: u64 = 8;

/// Streaming monitor: folds [`HealthSample`]s, runs every detector with
/// hysteresis, emits [`EventKind::HealthTransition`] events, and keeps the
/// timeline + current verdict for `/healthz` and the black-box dump.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    telemetry: Telemetry,
    states: [DetectorState; 5],
    timeline: Vec<HealthTransitionRecord>,
    prev: Option<HealthSample>,
    wan_baseline: Option<f64>,
    ticks: u64,
}

impl HealthMonitor {
    /// A monitor with the given thresholds, emitting transitions through
    /// `telemetry` (pass [`Telemetry::off`] to keep it silent).
    #[must_use]
    pub fn new(config: HealthConfig, telemetry: Telemetry) -> HealthMonitor {
        HealthMonitor {
            config,
            telemetry,
            states: [DetectorState::default(); 5],
            timeline: Vec::new(),
            prev: None,
            wan_baseline: None,
            ticks: 0,
        }
    }

    /// Fold one tick. The first sample only seeds the deltas; detectors
    /// start judging from the second sample on.
    pub fn observe(&mut self, sample: &HealthSample) {
        self.ticks += 1;
        let Some(prev) = self.prev.replace(sample.clone()) else {
            return;
        };
        let dt = (sample.at_ns.saturating_sub(prev.at_ns)) as f64 / 1e9;
        if dt <= 0.0 {
            return;
        }
        let readings = [
            (HealthDetector::Straggler, self.straggler(sample)),
            (HealthDetector::ShardImbalance, self.imbalance(sample)),
            (HealthDetector::ReapStorm, self.reap_storm(&prev, sample, dt)),
            (HealthDetector::WanRegression, self.wan_regression(&prev, sample)),
            (HealthDetector::QueueStall, self.queue_stall(&prev, sample)),
        ];
        for (detector, reading) in readings {
            self.fold(detector, reading, sample.at_ns);
        }
    }

    fn straggler(&self, s: &HealthSample) -> Reading {
        let rates: Vec<f64> = s.site_rates.iter().copied().filter(|r| r.is_finite()).collect();
        let n = rates.len();
        if n < 2 || s.outstanding == 0 {
            return Reading { bad: false, value: 1.0, threshold: self.config.straggler_ratio };
        }
        let mean = rates.iter().sum::<f64>() / n as f64;
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = if mean > 0.0 { min / mean } else { 1.0 };
        Reading {
            bad: mean > 0.0 && ratio < self.config.straggler_ratio,
            value: ratio,
            threshold: self.config.straggler_ratio,
        }
    }

    fn imbalance(&self, s: &HealthSample) -> Reading {
        let n = s.shard_depths.len();
        let max = s.shard_depths.iter().copied().max().unwrap_or(0);
        if n < 2 || max < IMBALANCE_MIN_DEPTH {
            return Reading { bad: false, value: 1.0, threshold: self.config.imbalance_ratio };
        }
        let mean = s.shard_depths.iter().sum::<u64>() as f64 / n as f64;
        let ratio = if mean > 0.0 { max as f64 / mean } else { n as f64 };
        Reading {
            bad: ratio > self.config.imbalance_ratio,
            value: ratio,
            threshold: self.config.imbalance_ratio,
        }
    }

    fn reap_storm(&self, prev: &HealthSample, s: &HealthSample, dt: f64) -> Reading {
        let rate = s.lease_reaps.saturating_sub(prev.lease_reaps) as f64 / dt;
        Reading {
            bad: rate > self.config.reaps_per_sec,
            value: rate,
            threshold: self.config.reaps_per_sec,
        }
    }

    fn wan_regression(&mut self, prev: &HealthSample, s: &HealthSample) -> Reading {
        let threshold = self.config.wan_factor;
        let jobs = s.wan_fetch_jobs.saturating_sub(prev.wan_fetch_jobs);
        if jobs < WAN_MIN_JOBS {
            return Reading { bad: false, value: 1.0, threshold };
        }
        let secs = (s.wan_fetch_secs - prev.wan_fetch_secs).max(0.0);
        let per_job = secs / jobs as f64;
        let Some(baseline) = self.wan_baseline else {
            // First trustworthy window becomes the run's own baseline.
            self.wan_baseline = Some(per_job.max(1e-9));
            return Reading { bad: false, value: 1.0, threshold };
        };
        let factor = per_job / baseline;
        Reading { bad: factor > threshold, value: factor, threshold }
    }

    fn queue_stall(&self, prev: &HealthSample, s: &HealthSample) -> Reading {
        let completed = s.completions.saturating_sub(prev.completions);
        Reading {
            bad: s.outstanding > 0 && completed == 0,
            value: completed as f64,
            threshold: 1.0,
        }
    }

    fn fold(&mut self, detector: HealthDetector, r: Reading, at_ns: u64) {
        let config = self.config;
        let state = &mut self.states[detector.index()];
        state.last_value = r.value;
        state.last_threshold = r.threshold;
        if r.bad {
            state.consecutive_bad += 1;
            state.consecutive_good = 0;
        } else {
            state.consecutive_good += 1;
            state.consecutive_bad = 0;
        }
        let flip = if state.tripped {
            state.consecutive_good >= config.clear_after
        } else {
            state.consecutive_bad >= config.trip_after
        };
        if !flip {
            return;
        }
        state.tripped = !state.tripped;
        if state.tripped {
            state.trips += 1;
        }
        let record = HealthTransitionRecord {
            at_ns,
            detector,
            tripped: state.tripped,
            value: r.value,
            threshold: r.threshold,
        };
        self.timeline.push(record);
        self.telemetry.emit(Event::at(
            at_ns,
            EventKind::HealthTransition {
                detector,
                tripped: record.tripped,
                value: record.value,
                threshold: record.threshold,
            },
        ));
    }

    /// Currently tripped detectors, in display order.
    #[must_use]
    pub fn tripped(&self) -> Vec<HealthDetector> {
        HealthDetector::ALL.into_iter().filter(|d| self.states[d.index()].tripped).collect()
    }

    /// `true` while no detector is tripped.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.states.iter().all(|s| !s.tripped)
    }

    /// Total trips across every detector over the run's lifetime.
    #[must_use]
    pub fn total_trips(&self) -> u64 {
        self.states.iter().map(|s| s.trips).sum()
    }

    /// Every recorded transition, oldest first.
    #[must_use]
    pub fn timeline(&self) -> &[HealthTransitionRecord] {
        &self.timeline
    }

    /// The machine-readable `/healthz` verdict.
    #[must_use]
    pub fn verdict_json(&self) -> Json {
        let detectors = HealthDetector::ALL
            .into_iter()
            .map(|d| {
                let s = self.states[d.index()];
                Json::obj()
                    .field("detector", Json::Str(d.label().to_owned()))
                    .field("tripped", Json::Bool(s.tripped))
                    .field("trips", Json::U64(s.trips))
                    .field("value", Json::F64(s.last_value))
                    .field("threshold", Json::F64(s.last_threshold))
            })
            .collect();
        Json::obj()
            .field(
                "status",
                Json::Str(if self.is_healthy() { "healthy" } else { "degraded" }.to_owned()),
            )
            .field("ticks", Json::U64(self.ticks))
            .field("total_trips", Json::U64(self.total_trips()))
            .field("detectors", Json::Arr(detectors))
    }

    /// The full health document: verdict plus transition timeline — the
    /// shape written to the black box as `health.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.verdict_json().field(
            "timeline",
            Json::Arr(self.timeline.iter().map(HealthTransitionRecord::to_json).collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recorder;
    use std::sync::Arc;

    fn sample(at_secs: u64, outstanding: u64, completions: u64) -> HealthSample {
        HealthSample {
            at_ns: at_secs * 1_000_000_000,
            outstanding,
            completions,
            ..HealthSample::default()
        }
    }

    #[test]
    fn queue_stall_trips_after_hysteresis_and_clears_after_hysteresis() {
        let recorder = Arc::new(Recorder::new());
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::to(recorder.clone()));
        m.observe(&sample(0, 10, 0)); // seeds deltas only
        m.observe(&sample(1, 10, 0)); // bad x1 — below trip_after
        assert!(m.is_healthy(), "one bad tick must not trip");
        m.observe(&sample(2, 10, 0)); // bad x2 — trips
        assert_eq!(m.tripped(), vec![HealthDetector::QueueStall]);
        m.observe(&sample(3, 5, 5)); // good x1 — still tripped
        assert!(!m.is_healthy(), "one good tick must not clear");
        m.observe(&sample(4, 0, 10)); // good x2 — clears
        assert!(m.is_healthy());
        assert_eq!(m.total_trips(), 1);
        // Exactly two transitions, trip then clear, both as telemetry events.
        let events = recorder.snapshot();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            EventKind::HealthTransition { detector: HealthDetector::QueueStall, tripped: true, .. }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::HealthTransition {
                detector: HealthDetector::QueueStall,
                tripped: false,
                ..
            }
        ));
        assert_eq!(m.timeline().len(), 2);
    }

    #[test]
    fn straggler_trips_on_sustained_slow_site_and_ignores_single_site() {
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        let tick = |at: u64, rates: Vec<f64>| HealthSample {
            at_ns: at * 1_000_000_000,
            outstanding: 100,
            completions: at * 10,
            site_rates: rates,
            ..HealthSample::default()
        };
        m.observe(&tick(0, vec![10.0, 10.0]));
        m.observe(&tick(1, vec![10.0, 1.0]));
        m.observe(&tick(2, vec![10.0, 1.0]));
        assert!(m.tripped().contains(&HealthDetector::Straggler), "1 vs 10 per-core must trip");
        // A single active site can never be a straggler relative to itself.
        let mut single = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        single.observe(&tick(0, vec![1.0]));
        single.observe(&tick(1, vec![1.0]));
        single.observe(&tick(2, vec![1.0]));
        assert!(single.is_healthy());
    }

    #[test]
    fn shard_imbalance_needs_nontrivial_depth() {
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        let tick = |at: u64, depths: Vec<u64>| HealthSample {
            at_ns: at * 1_000_000_000,
            outstanding: 100,
            completions: at,
            shard_depths: depths,
            ..HealthSample::default()
        };
        // max/mean is bounded by the shard count (a shard is one site's
        // pending depth), so skew only registers across several sites.
        m.observe(&tick(0, vec![4, 0, 0, 0, 0]));
        m.observe(&tick(1, vec![4, 0, 0, 0, 0]));
        m.observe(&tick(2, vec![4, 0, 0, 0, 0]));
        assert!(m.is_healthy(), "shallow queues are noise, not skew");
        m.observe(&tick(3, vec![400, 2, 2, 2, 2]));
        m.observe(&tick(4, vec![400, 2, 2, 2, 2]));
        assert!(m.tripped().contains(&HealthDetector::ShardImbalance));
    }

    #[test]
    fn reap_storm_rate_is_per_second_not_per_tick() {
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        let tick = |at_ns: u64, reaps: u64| HealthSample {
            at_ns,
            outstanding: 10,
            completions: at_ns / 1_000_000,
            lease_reaps: reaps,
            ..HealthSample::default()
        };
        // 1 reap per 250 ms tick = 4/sec > default 2/sec.
        m.observe(&tick(0, 0));
        m.observe(&tick(250_000_000, 1));
        m.observe(&tick(500_000_000, 2));
        assert!(m.tripped().contains(&HealthDetector::ReapStorm));
        // 1 reap per 1 s tick = 1/sec stays healthy.
        let mut calm = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        calm.observe(&tick(0, 0));
        calm.observe(&tick(1_000_000_000, 1));
        calm.observe(&tick(2_000_000_000, 2));
        assert!(calm.is_healthy());
    }

    #[test]
    fn wan_regression_is_judged_against_the_runs_own_baseline() {
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        let tick = |at: u64, jobs: u64, secs: f64| HealthSample {
            at_ns: at * 1_000_000_000,
            outstanding: 100,
            completions: at,
            wan_fetch_jobs: jobs,
            wan_fetch_secs: secs,
            ..HealthSample::default()
        };
        m.observe(&tick(0, 0, 0.0));
        m.observe(&tick(1, 100, 0.4)); // baseline window: 4 ms/job
        m.observe(&tick(2, 200, 0.8)); // 4 ms/job — healthy
        assert!(m.is_healthy());
        m.observe(&tick(3, 300, 1.8)); // 10 ms/job = 2.5x baseline, bad x1
        m.observe(&tick(4, 400, 2.8)); // bad x2 — trips
        assert!(m.tripped().contains(&HealthDetector::WanRegression));
        // Tiny windows are never judged (nor do they seed the baseline).
        let mut sparse = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        sparse.observe(&tick(0, 0, 0.0));
        sparse.observe(&tick(1, 2, 10.0));
        sparse.observe(&tick(2, 4, 20.0));
        assert!(sparse.is_healthy());
    }

    #[test]
    fn verdict_and_timeline_serialize_with_the_expected_keys() {
        let mut m = HealthMonitor::new(HealthConfig::default(), Telemetry::off());
        m.observe(&sample(0, 10, 0));
        m.observe(&sample(1, 10, 0));
        m.observe(&sample(2, 10, 0));
        let text = m.to_json().to_text();
        for key in
            ["\"status\"", "\"degraded\"", "\"detectors\"", "\"timeline\"", "\"queue-stall\""]
        {
            assert!(text.contains(key), "health document is missing {key}: {text}");
        }
    }

    #[test]
    fn spec_parser_rejects_thresholds_that_are_not_finite_and_non_negative() {
        for (spec, ok) in [
            ("straggler=0", true),
            ("wan=2.5", true),
            ("reaps=inf", false),
            ("imbalance=NaN", false),
            ("straggler=-0.5", false),
            ("wan=-inf", false),
            ("reaps=1e400", false),
        ] {
            let parsed = HealthConfig::parse_spec(spec);
            assert_eq!(parsed.is_ok(), ok, "{spec}: {parsed:?}");
            if let Err(e) = parsed {
                assert!(e.contains(&format!("`{spec}`")), "{spec}: the message names it: {e}");
            }
        }
    }

    #[test]
    fn spec_parser_overrides_only_named_keys_and_rejects_junk() {
        let c = HealthConfig::parse_spec("straggler=0.25,trip=3").expect("valid spec");
        assert!((c.straggler_ratio - 0.25).abs() < 1e-12);
        assert_eq!(c.trip_after, 3);
        assert_eq!(c.clear_after, HealthConfig::default().clear_after);
        assert!((c.wan_factor - HealthConfig::default().wan_factor).abs() < 1e-12);
        assert!(HealthConfig::parse_spec("bogus=1").is_err());
        assert!(HealthConfig::parse_spec("straggler=abc").is_err());
        assert!(HealthConfig::parse_spec("trip=0").is_err());
        assert_eq!(
            HealthConfig::parse_spec("").expect("empty = defaults"),
            HealthConfig::default()
        );
    }

    #[test]
    fn detector_labels_round_trip_through_parse() {
        for d in HealthDetector::ALL {
            assert_eq!(HealthDetector::parse(d.label()), Some(d));
        }
        assert_eq!(HealthDetector::parse("nope"), None);
    }
}
