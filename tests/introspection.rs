//! End-to-end tests of the observability plane: the strict `--seq` delivery
//! audit over a v2 batched-wire run's event stream, and the crash-safety of
//! the line-buffered `--events-out` writer — a SIGKILLed run must leave a
//! log of whole, parseable JSONL records (the black-box property: nothing
//! buffered beyond the final line is lost to the page cache).

use bytes::Bytes;
use cloudburst_apps::gen::gen_words;
use cloudburst_apps::wordcount::WordCount;
use cloudburst_cluster::{run_hybrid_tcp, RuntimeConfig};
use cloudburst_core::{
    check_sequence, events_to_jsonl, DataIndex, EnvConfig, Json, LayoutParams, Recorder, SiteId,
    Telemetry,
};
use cloudburst_storage::{fraction_placement, organize, ChunkStore, FetchConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn setup(data: &Bytes, frac: f64) -> (DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>) {
    let params = LayoutParams { unit_size: 16, units_per_chunk: 256, n_files: 6 };
    let org = organize(data, params, &mut fraction_placement(frac, 6)).unwrap();
    let stores = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    (org.index, stores)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cloudburst-introspection-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A v2 batched-wire TCP run's event stream — grants, acks and completions
/// interleaved across per-site batch frames — must still carry a gap-free
/// delivery sequence, and the CLI's strict `check-json --seq` audit must
/// accept the JSONL it serializes to.
#[test]
fn batched_v2_stream_passes_strict_seq_audit() {
    let data = gen_words(6_000, 80, 31);
    let (index, stores) = setup(&data, 0.5);
    let rec = Arc::new(Recorder::new());
    let mut config = RuntimeConfig::new(EnvConfig::new("v2-audit", 0.5, 2, 2), 1e-6);
    config.fetch = FetchConfig { threads: 2, min_range: 256 };
    config.telemetry = Telemetry::to(rec.clone());
    run_hybrid_tcp(&WordCount, &index, stores, &config).expect("v2 run");

    let events = rec.take();
    assert!(!events.is_empty(), "a v2 run must emit telemetry");
    let audit = check_sequence(&events).expect("batched stream must be gap-free");
    assert!(audit.stamped > 0, "events must carry stamped delivery seqs");
    assert_eq!(audit.stamped as u64, audit.max, "no delivery number may be missing");

    // The same stream through the CLI's strict audit: `check-json --seq`
    // must pass on the serialized file and report the delivery count.
    let dir = scratch("v2");
    let log = dir.join("events.jsonl");
    std::fs::write(&log, events_to_jsonl(&events)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cloudburst"))
        .args(["check-json", log.to_str().unwrap(), "--seq"])
        .output()
        .expect("run check-json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "check-json --seq failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("delivery sequence complete"), "unexpected output: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `check-json --seq` is strict by design: a document with no stamped
/// event stream (a stats artifact, say) passes the lax audit but must be
/// rejected under `--seq` instead of passing vacuously.
#[test]
fn strict_seq_audit_rejects_streams_without_seqs() {
    let dir = scratch("noseq");
    let doc = dir.join("stats.json");
    std::fs::write(&doc, "{\"app\":\"wordcount\",\"total_time\":1.5}\n").unwrap();
    let lax = Command::new(env!("CARGO_BIN_EXE_cloudburst"))
        .args(["check-json", doc.to_str().unwrap()])
        .output()
        .expect("run check-json");
    assert!(lax.status.success(), "lax audit must accept a stats document");
    let strict = Command::new(env!("CARGO_BIN_EXE_cloudburst"))
        .args(["check-json", doc.to_str().unwrap(), "--seq"])
        .output()
        .expect("run check-json --seq");
    assert!(!strict.status.success(), "--seq must refuse a seq-less document");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a live run mid-flight and re-parse its `--events-out` log: the
/// line-buffered writer must leave only whole JSONL records — every
/// complete line parses, carries the `at_ns`/`kind` shape, and plenty of
/// them made it to disk before the SIGKILL.
#[test]
fn killed_run_leaves_whole_line_jsonl() {
    let bin = env!("CARGO_BIN_EXE_cloudburst");
    let dir = scratch("kill");
    let data = dir.join("words.bin");
    let org = dir.join("org");
    let log = dir.join("events.jsonl");

    let gen = Command::new(bin)
        .args(["generate", "wordcount", "--units", "400000", "--vocab", "500"])
        .arg("--out")
        .arg(&data)
        .output()
        .expect("generate");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let orgz = Command::new(bin)
        .args(["organize", "--unit-size", "16", "--chunk-units", "2048", "--files", "8"])
        .args(["--local-frac", "0.5"])
        .arg("--data")
        .arg(&data)
        .arg("--out")
        .arg(&org)
        .output()
        .expect("organize");
    assert!(orgz.status.success(), "{}", String::from_utf8_lossy(&orgz.stderr));

    // Slow enough (wall-clock seconds) that the kill lands mid-run.
    let mut child = Command::new(bin)
        .args(["run", "wordcount", "--local-cores", "2", "--cloud-cores", "2"])
        .args(["--time-scale", "2.0"])
        .arg("--org")
        .arg(&org)
        .arg("--events-out")
        .arg(&log)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn run");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    child.kill().expect("SIGKILL the run");
    let _ = child.wait();

    let text = std::fs::read_to_string(&log).expect("events log must exist after a kill");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 10,
        "expected a substantial stream before the kill, got {} lines",
        lines.len()
    );
    // Every line the OS persisted must be a whole record. A SIGKILL can
    // truncate the final write mid-line, so the last line alone may fail
    // to parse — never any earlier one.
    let mut parsed = 0usize;
    for (i, line) in lines.iter().enumerate() {
        match Json::parse(line) {
            Ok(j) => {
                assert!(j.get("at_ns").is_some(), "line {} lacks at_ns: {line}", i + 1);
                assert!(j.get("kind").is_some(), "line {} lacks kind: {line}", i + 1);
                parsed += 1;
            }
            Err(e) => {
                assert_eq!(
                    i,
                    lines.len() - 1,
                    "only the final line may be torn, line {} is not JSON ({e}): {line}",
                    i + 1
                );
            }
        }
    }
    assert!(parsed >= 10, "too few whole records survived: {parsed}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A site run with no cores is no straggler: it processes nothing because it
/// has nothing to process with. A run that leaves the cloud without cores
/// (its shard drained by the local site's steals) must never trip the
/// straggler detector behind `/healthz`, nor name the cloud on a `--watch`
/// line.
#[test]
fn a_site_without_cores_is_never_named_a_straggler() {
    let bin = env!("CARGO_BIN_EXE_cloudburst");
    let dir = scratch("zero-cores");
    let data = dir.join("words.bin");
    let org = dir.join("org");
    let stats = dir.join("stats.json");
    let gen = Command::new(bin)
        .args(["generate", "wordcount", "--units", "150000", "--vocab", "500"])
        .arg("--out")
        .arg(&data)
        .output()
        .expect("generate");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let orgz = Command::new(bin)
        .args(["organize", "--unit-size", "16", "--chunk-units", "4096", "--files", "8"])
        .args(["--local-frac", "0.4"])
        .arg("--data")
        .arg(&data)
        .arg("--out")
        .arg(&org)
        .output()
        .expect("organize");
    assert!(orgz.status.success(), "{}", String::from_utf8_lossy(&orgz.stderr));

    // About two seconds: several 250 ms health ticks, enough for the
    // straggler detector's hysteresis to trip if a rate of 0 reached it.
    let run = Command::new(bin)
        .args(["run", "wordcount", "--local-cores", "3", "--cloud-cores", "0"])
        .args(["--time-scale", "2.0", "--watch"])
        .arg("--org")
        .arg(&org)
        .arg("--stats-out")
        .arg(&stats)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(stderr.lines().filter(|l| l.starts_with("[watch ")).count() >= 4, "{stderr}");
    assert!(!stderr.contains("straggler"), "{stderr}");
    let doc = Json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
    let detectors = doc.get("health").and_then(|h| h.get("detectors")).and_then(Json::as_arr);
    let straggler = detectors
        .into_iter()
        .flatten()
        .find(|d| d.get("detector").and_then(Json::as_str) == Some("straggler-eta"))
        .expect("the straggler detector's verdict");
    assert_eq!(straggler.get("trips").and_then(Json::as_f64), Some(0.0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cost` block prices a run's GETs the same whether or not live metrics
/// are on: read off the store counters, or by the runtime's read rule — each
/// cloud chunk in `FetchConfig::parts` ranged GETs, once per pass. The data
/// is eight whole chunks of 256 KiB, each read in four ranges.
#[test]
fn the_cost_block_counts_the_same_gets_with_metrics_on_or_off() {
    let bin = env!("CARGO_BIN_EXE_cloudburst");
    let dir = scratch("gets");
    let cli = |args: &[&str]| {
        let out = Command::new(bin).current_dir(&dir).args(args).output().expect("cloudburst");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    let gets = |stats: &str| {
        let doc = Json::parse(std::fs::read_to_string(dir.join(stats)).unwrap().trim()).unwrap();
        let cost = doc.get("cost").expect("a cost block");
        cost.get("get_requests").and_then(Json::as_f64).expect("get_requests") as u64
    };
    let wordcount: &[&str] = &["run", "wordcount", "--org", "org"];
    let kmeans: &[&str] = &["run", "kmeans", "--org", "org", "--k", "2", "--iterations", "2"];
    for (app, run, passes) in [("wordcount", wordcount, 1), ("kmeans", kmeans, 2)] {
        cli(&["generate", app, "--out", "data.bin", "--units", "131072"]);
        let _ = std::fs::remove_dir_all(dir.join("org"));
        let layout = ["--unit-size", "16", "--chunk-units", "16384", "--files", "4"];
        cli(&[&["organize", "--data", "data.bin", "--out", "org"][..], &layout].concat());
        cli(&[run, &["--stats-out", "off.json"]].concat());
        cli(&[run, &["--metrics-out", "on.prom", "--stats-out", "on.json"]].concat());
        let off = gets("off.json");
        assert_eq!(off, gets("on.json"), "{app}");
        assert!(off > 0 && off % (4 * passes) == 0, "{app}: {off} GETs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
