//! Bad command-line values are usage errors: the `cloudburst` binary says
//! what is wrong and exits 2, without panicking or leaving a crash black box.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cloudburst-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cloudburst(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cloudburst"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run cloudburst")
}

/// Exit 2 with `error: …` naming `flag`, no panic, no `crash-*` directory.
fn assert_usage_error(dir: &Path, out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("error:") && stderr.contains(flag), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let crashes = std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("crash-"))
        .count();
    assert_eq!(crashes, 0, "a usage error must not leave a black box");
}

#[test]
fn generate_kmeans_with_zero_clusters_is_a_usage_error() {
    let dir = scratch("gen0");
    let out = cloudburst(&dir, &["generate", "kmeans", "--out", "points.bin", "--clusters", "0"]);
    assert_usage_error(&dir, &out, "--clusters");
    assert!(!dir.join("points.bin").exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_kmeans_with_zero_centroids_is_a_usage_error() {
    let dir = scratch("run0");
    let gen = cloudburst(&dir, &["generate", "kmeans", "--out", "points.bin", "--units", "2000"]);
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let org = cloudburst(
        &dir,
        &["organize", "--data", "points.bin", "--unit-size", "16", "--out", "org"],
    );
    assert!(org.status.success(), "{}", String::from_utf8_lossy(&org.stderr));
    let out = cloudburst(&dir, &["run", "kmeans", "--org", "org", "--k", "0"]);
    assert_usage_error(&dir, &out, "--k");
    // The same dataset runs with a centroid.
    let ok = cloudburst(&dir, &["run", "kmeans", "--org", "org", "--k", "1", "--iterations", "1"]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small k-NN dataset organized at `dir/org`, half of it at each site.
fn knn_org(dir: &Path) {
    let gen = cloudburst(dir, &["generate", "knn", "--out", "points.bin", "--units", "2000"]);
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let org =
        cloudburst(dir, &["organize", "--data", "points.bin", "--unit-size", "20", "--out", "org"]);
    assert!(org.status.success(), "{}", String::from_utf8_lossy(&org.stderr));
}

#[test]
fn run_with_no_cores_anywhere_is_a_usage_error() {
    let dir = scratch("cores0");
    knn_org(&dir);
    let out = cloudburst(
        &dir,
        &["run", "knn", "--org", "org", "--local-cores", "0", "--cloud-cores", "0"],
    );
    assert_usage_error(&dir, &out, "--local-cores");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_a_time_scale_no_link_can_be_slept_at_is_a_usage_error() {
    let dir = scratch("scale");
    knn_org(&dir);
    // Finite and positive, but the link between the two sites, stretched by
    // it, outlasts any `Duration`.
    let out = cloudburst(&dir, &["run", "knn", "--org", "org", "--time-scale", "1e300"]);
    assert_usage_error(&dir, &out, "--time-scale");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_over_a_dataset_organized_for_another_application_is_a_usage_error() {
    let dir = scratch("units");
    // k-NN's 20-byte records read as k-means's 16-byte points, and the
    // other way round, would cut every record apart.
    knn_org(&dir);
    for app in ["kmeans", "wordcount", "pagerank"] {
        let out = cloudburst(&dir, &["run", app, "--org", "org"]);
        assert_usage_error(&dir, &out, "--org");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("20-byte units"), "{app}: {stderr}");
    }
    let out = cloudburst(&dir, &["run", "knn", "--org", "org"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_knn_with_zero_neighbors_is_a_usage_error() {
    let dir = scratch("knn0");
    knn_org(&dir);
    let out = cloudburst(&dir, &["run", "knn", "--org", "org", "--k", "0"]);
    assert_usage_error(&dir, &out, "--k");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_knn_with_more_neighbors_than_points_lists_every_point() {
    let dir = scratch("knnbig");
    knn_org(&dir);
    // `k` bounds the answer; it must not size an allocation.
    let out = cloudburst(&dir, &["run", "knn", "--org", "org", "--k", "100000000000"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout.lines().filter(|l| l.trim_start().starts_with("point ")).count(), 2000);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flight_recorder_cap_beyond_memory_is_only_a_bound() {
    let dir = scratch("flightcap");
    knn_org(&dir);
    // The cap bounds the window; it must not size an allocation.
    for cap in ["100000000000", "18446744073709551615"] {
        let out = cloudburst(&dir, &["run", "knn", "--org", "org", "--flight-recorder-cap", cap]);
        assert!(out.status.success(), "{cap}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_the_metrics_out_flag() {
    let dir = scratch("help");
    let out = cloudburst(&dir, &["help"]);
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    let (synopsis, options) = usage.split_once("OBSERVABILITY:").expect("an OBSERVABILITY block");
    assert!(synopsis.contains("[--metrics-out FILE]"), "{usage}");
    assert!(options.contains("\n  --metrics-out FILE "), "{usage}");
    let _ = std::fs::remove_dir_all(&dir);
}
