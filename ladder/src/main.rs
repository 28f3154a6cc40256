//! The burst ladder: one end-to-end + per-layer benchmark of the real
//! threaded runtime. See `README.md` beside this crate.
//!
//! ```text
//! ladder [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
//! ladder all [--seed N] [--seconds S] [--out FILE]
//! ladder list
//! ladder compare A.json B.json
//! ```
//!
//! `run` prints progress on stderr and, as the last line of stdout, one JSON
//! object `{correct, attempted, failed, metrics}`; it exits non-zero when a
//! burst missed its oracle.

mod api;
mod bench;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  ladder [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
  ladder all [--seed N] [--seconds S] [--out FILE]
  ladder list
  ladder compare A.json B.json";

/// Default `--seconds`: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(flags.seconds.is_finite() && flags.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => flags.out = Some(value()?),
            "--spans" => flags.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `run`: one workload, one process. Returns whether every burst was correct.
fn run(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let spec = bench::spec_named(name)
        .ok_or_else(|| format!("unknown workload {name}; `ladder list` names them"))?;
    eprintln!(
        "{name}: seed {}, {} s, {}, {} hardware threads",
        flags.seed,
        flags.seconds,
        if flags.trace { "traced" } else { "untraced" },
        report::nproc()
    );
    let record = if flags.trace {
        bench::run_traced(spec, flags.seed)?
    } else {
        bench::run_untraced(spec, flags.seed, flags.seconds)?
    };
    eprint!("{}", report::table(&record));
    if let Some(path) = &flags.out {
        write_file(path, &report::record_json(&record).to_text())?;
    }
    if let Some(path) = &flags.spans {
        write_file(path, &report::spans_csv(&record))?;
    }
    println!("{}", report::driver_line(&record));
    Ok(record.correct && record.failed == 0)
}

/// `all`: every workload untraced then traced, each in a process of its own
/// (so `peak_rss_mb` is per workload), gathered into one run set.
fn all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let scratch = std::path::PathBuf::from(workloads::SCRATCH_DIR);
    let mut runs = Vec::new();
    let mut clean = true;
    for spec in bench::SPECS {
        for trace in ["0", "1"] {
            let part =
                scratch.join(format!("all-{}-{}-{trace}.json", std::process::id(), spec.name));
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", spec.name, "--trace", trace])
                .args(["--seed", &flags.seed.to_string(), "--seconds", &flags.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            clean &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{} --trace {trace} left no record: {e}", spec.name))?;
            let _ = std::fs::remove_file(&part);
            runs.push(api::Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?);
        }
    }
    let set = api::Json::obj()
        .field("seed", api::Json::U64(flags.seed))
        .field("seconds", api::Json::F64(flags.seconds))
        .field("nproc", api::Json::U64(report::nproc()))
        .field("runs", api::Json::Arr(runs));
    match &flags.out {
        Some(path) => write_file(path, &set.to_text())?,
        None => println!("{}", set.to_text()),
    }
    Ok(clean)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", report::list());
            Ok(true)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else { return Err(USAGE.into()) };
            let read = |p: &String| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
            };
            let (table, clean) = report::compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            Ok(clean)
        }
        Some("all") => all(&parse_flags(&args[1..])?),
        Some("run") => run(&parse_flags(&args[1..])?),
        // The driver appends its flags straight after the command.
        Some(flag) if flag.starts_with("--") => run(&parse_flags(args)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = dispatch(&args);
    // Gone only when empty: a parent `all` still holds its children's records.
    let _ = std::fs::remove_dir(workloads::SCRATCH_DIR);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::from(2)
        }
    }
}
