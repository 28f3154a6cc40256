//! What the ladder writes and reads: the one-line result the driver parses,
//! the fuller per-run record, run sets (`all`), and `compare`.

use crate::api::Json;
use crate::bench::{RunRecord, SPECS};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The repository's `BENCHMARK.json`, compiled in so `list`, `compare` and
/// the unit tests read the same bounds the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `name → {value, unit[, spread]}` for every metric of a run.
fn metrics_json(record: &RunRecord, with_spread: bool) -> Json {
    record.metrics.iter().fold(Json::obj(), |obj, (name, reported)| {
        let unit = def_of(name).map_or("", |d| d.unit);
        let mut m = Json::obj()
            .field("value", Json::F64(reported.value))
            .field("unit", Json::Str(unit.into()));
        if with_spread {
            m = m.field("spread", Json::F64(reported.spread));
        }
        obj.field(name, m)
    })
}

/// The driver's result object: exactly `correct`, `attempted`, `failed` and
/// `metrics` (`name → {value, unit}`).
pub fn driver_line(record: &RunRecord) -> String {
    Json::obj()
        .field("correct", Json::Bool(record.correct))
        .field("attempted", Json::U64(record.attempted))
        .field("failed", Json::U64(record.failed))
        .field("metrics", metrics_json(record, false))
        .to_text()
}

/// The full record of one run, as stored in a run set.
pub fn record_json(record: &RunRecord) -> Json {
    let walls = &record.burst_walls;
    Json::obj()
        .field("workload", Json::Str(record.workload.into()))
        .field("seed", Json::U64(record.seed))
        .field("traced", Json::Bool(record.traced))
        .field("nproc", Json::U64(nproc()))
        .field("correct", Json::Bool(record.correct))
        .field("attempted", Json::U64(record.attempted))
        .field("failed", Json::U64(record.failed))
        .field("problem", record.problem.clone().map_or(Json::Null, Json::Str))
        .field(
            "untraced_bursts",
            Json::obj()
                .field("n", Json::U64(walls.len() as u64))
                .field("wall_s", Json::Arr(walls.iter().map(|&w| Json::F64(w)).collect()))
                .field("min_s", Json::F64(walls.iter().copied().fold(f64::MAX, f64::min)))
                .field("max_s", Json::F64(walls.iter().copied().fold(f64::MIN, f64::max))),
        )
        .field("metrics", metrics_json(record, true))
}

/// Hardware threads the process may use.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Every span of a traced burst as CSV: `name,thread,start_ns,end_ns,burst`.
pub fn spans_csv(record: &RunRecord) -> String {
    let mut out = String::from("name,thread,start_ns,end_ns,burst\n");
    for s in &record.spans {
        let _ = writeln!(out, "{},{},{},{},{}", s.name, s.thread, s.start_ns, s.end_ns, s.burst);
    }
    out
}

/// A human-readable table of one run, for stderr.
pub fn table(record: &RunRecord) -> String {
    let mut out = String::new();
    let walls = &record.burst_walls;
    let _ = writeln!(
        out,
        "{} seed {} ({}): {} untraced bursts, min {:.4} s, max {:.4} s; attempted {}, failed {}, correct {}",
        record.workload,
        record.seed,
        if record.traced { "traced" } else { "untraced" },
        walls.len(),
        walls.iter().copied().fold(f64::MAX, f64::min),
        walls.iter().copied().fold(f64::MIN, f64::max),
        record.attempted,
        record.failed,
        record.correct
    );
    for (name, reported) in &record.metrics {
        let unit = def_of(name).map_or("", |d| d.unit);
        let _ = writeln!(out, "  {name:<30} {:>16.6} {unit}", reported.value);
    }
    if let Some(p) = &record.problem {
        let _ = writeln!(out, "  problem: {p}");
    }
    out
}

/// `list`: every workload and metric name with unit, direction and bound.
pub fn list() -> String {
    let mut out = String::new();
    for spec in SPECS {
        let _ = writeln!(out, "workload {} — {}", spec.name, spec.why);
    }
    for d in END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} [{}] better={} bound={}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    for d in PER_LAYER {
        let _ = writeln!(out, "per_layer {} [{}] better={}", d.name, d.unit, d.better);
    }
    out
}

/// The end-to-end bounds and directions, read from `BENCHMARK.json`.
fn bounds_from_benchmark() -> Result<Vec<(String, bool, f64)>, String> {
    let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let e2e = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?;
    e2e.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((name.to_owned(), better == "lower", bound))
        })
        .collect()
}

/// `metric → (value, spread)` of one untraced record.
type Row = BTreeMap<String, (f64, f64)>;

/// The untraced records in a set, by workload.
fn e2e_of(set: &Json) -> Result<BTreeMap<String, Row>, String> {
    let runs = set.get("runs").and_then(Json::as_arr).ok_or("run set has no runs array")?;
    let mut out = BTreeMap::new();
    for run in runs {
        if run.get("traced") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: run without metrics"));
        };
        let mut by_name = BTreeMap::new();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
            by_name.insert(name.clone(), (value, spread));
        }
        out.insert(workload.to_owned(), by_name);
    }
    Ok(out)
}

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Pass,
    /// B is worse than A by more than the bound.
    Regress,
    /// The bursts inside A or B spread wider than the bound: no call.
    Unresolved,
}

/// Judge one row. `worse_by` is the share of A's value by which B is worse.
pub fn verdict(a: (f64, f64), b: (f64, f64), lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let worse_by = if lower_is_better { (b.0 - a.0) / a.0 } else { (a.0 - b.0) / a.0 };
    let v = if a.1.max(b.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (v, worse_by)
}

/// `compare A B`: apply `BENCHMARK.json`'s bounds to two run sets of the
/// same workloads. Returns the table and whether every row passed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = e2e_of(&Json::parse(a_text).map_err(|e| format!("first set: {e}"))?)?;
    let b = e2e_of(&Json::parse(b_text).map_err(|e| format!("second set: {e}"))?)?;
    let bounds = bounds_from_benchmark()?;
    let mut out = String::new();
    let mut clean = true;
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for spec in SPECS {
        for (name, lower, bound) in &bounds {
            let row = a
                .get(spec.name)
                .and_then(|m| m.get(name))
                .zip(b.get(spec.name).and_then(|m| m.get(name)));
            let Some((&va, &vb)) = row else {
                clean = false;
                let _ =
                    writeln!(out, "{:<18} {:<12} missing from one of the sets", spec.name, name);
                continue;
            };
            let (v, worse_by) = verdict(va, vb, *lower, *bound);
            clean &= v == Verdict::Pass;
            let _ = writeln!(
                out,
                "{:<18} {:<12} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                spec.name,
                name,
                va.0,
                vb.0,
                worse_by * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn named(bench: &Json, key: &str) -> Vec<Json> {
        bench.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no {key}")).to_vec()
    }

    fn text<'a>(m: &'a Json, key: &str) -> &'a str {
        m.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no {key}"))
    }

    #[test]
    fn benchmark_json_and_list_name_the_same_things() {
        let bench = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = list();

        let workloads = named(&bench, "workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, spec) in workloads.iter().zip(SPECS) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            assert!(valid_name(spec.name));
            assert!(listed.contains(&format!("workload {} ", spec.name)));
        }

        let e2e = named(&bench, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(m, "name"), d.name);
            assert_eq!(text(m, "unit"), d.unit);
            assert_eq!(text(m, "better"), d.better);
            assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound);
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
            assert!(listed.contains(&format!("end_to_end {} [", d.name)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));

        let layers = named(&bench, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(m, "name"), d.name);
            assert_eq!(text(m, "unit"), d.unit);
            assert_eq!(text(m, "better"), d.better);
            assert!(listed.contains(&format!("per_layer {} [", d.name)));
        }

        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "{} is used twice", d.name);
        }
        for spec in SPECS {
            assert!(seen.insert(spec.name), "{} is used twice", spec.name);
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 10 % slower against a 7 % bound regresses.
        assert_eq!(verdict((10.0, 0.01), (11.0, 0.01), true, 0.07).0, Verdict::Regress);
        assert_eq!(verdict((10.0, 0.01), (10.5, 0.01), true, 0.07).0, Verdict::Pass);
        // Faster is never a regression.
        assert_eq!(verdict((10.0, 0.01), (5.0, 0.01), true, 0.07).0, Verdict::Pass);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict((100.0, 0.0), (90.0, 0.0), false, 0.07).0, Verdict::Regress);
        assert_eq!(verdict((100.0, 0.0), (120.0, 0.0), false, 0.07).0, Verdict::Pass);
        // A run whose own bursts spread wider than the bound decides nothing.
        assert_eq!(verdict((10.0, 0.09), (10.0, 0.01), true, 0.07).0, Verdict::Unresolved);
        assert_eq!(verdict((10.0, 0.01), (20.0, 0.30), true, 0.07).0, Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_run_sets() {
        let set = |makespan: f64| {
            let mut runs = Vec::new();
            for spec in SPECS {
                let mut metrics = Json::obj();
                for d in END_TO_END {
                    let v = if d.name == "makespan_s" { makespan } else { 5.0 };
                    metrics = metrics.field(
                        d.name,
                        Json::obj().field("value", Json::F64(v)).field("spread", Json::F64(0.01)),
                    );
                }
                runs.push(
                    Json::obj()
                        .field("workload", Json::Str(spec.name.into()))
                        .field("traced", Json::Bool(false))
                        .field("metrics", metrics),
                );
                // A traced record of the same workload is ignored.
                runs.push(
                    Json::obj()
                        .field("workload", Json::Str(spec.name.into()))
                        .field("traced", Json::Bool(true))
                        .field("metrics", Json::obj()),
                );
            }
            Json::obj().field("runs", Json::Arr(runs)).to_text()
        };
        let (table, clean) = compare(&set(4.0), &set(4.1)).expect("well-formed sets");
        assert!(clean, "{table}");
        let (table, clean) = compare(&set(4.0), &set(8.0)).expect("well-formed sets");
        assert!(!clean);
        assert_eq!(table.matches("REGRESS").count(), SPECS.len(), "{table}");
        assert!(compare("{}", &set(4.0)).is_err());
    }
}
