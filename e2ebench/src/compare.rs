//! `e2ebench compare`: summarises saved run outputs.
//!
//! ```text
//! e2ebench compare RUN...              # median, quartiles, spread per metric
//! e2ebench compare BASE... --vs NEW... # and the change of the median
//! ```
//!
//! Each file holds the standard output of one run. Results are grouped by
//! workload and mode. Files whose host fingerprints differ are refused:
//! a before/after pair must come from one harness on one host.

use crate::host::Fingerprint;
use crate::stats::{median, quartiles};
use bb_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One run's parsed output.
#[derive(Debug)]
struct Run {
    host: Fingerprint,
    group: String,
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_run(text: &str) -> Result<Run, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines.last().ok_or("empty output")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let detail_line = lines
        .iter()
        .rev()
        .find(|l| l.starts_with("{\"detail\""))
        .ok_or("no detail line")?;
    let detail = json::parse(detail_line).map_err(|e| format!("detail line: {e}"))?;
    let detail = detail
        .as_object("run")
        .ok()
        .and_then(|m| m.get("detail"))
        .and_then(|d| d.as_object("detail").ok())
        .ok_or("detail line has no detail object")?;
    let host = detail
        .get("host")
        .and_then(Fingerprint::from_json)
        .ok_or("detail line has no host fingerprint")?;
    let workload = detail
        .get("workload")
        .and_then(|w| w.as_string("workload").ok())
        .ok_or("detail line has no workload")?;
    let traced = matches!(detail.get("trace"), Some(Json::Bool(true)));
    let result = result.as_object("result").map_err(|e| e.to_string())?;
    let correct = matches!(result.get("correct"), Some(Json::Bool(true)));
    let mut metrics = BTreeMap::new();
    let listed = result
        .get("metrics")
        .ok_or("result has no metrics")?
        .as_object("metrics")
        .map_err(|e| e.to_string())?;
    for (name, m) in listed {
        let m = m.as_object(name).map_err(|e| e.to_string())?;
        let value = m
            .get("value")
            .ok_or("metric without value")?
            .as_f64(name)
            .map_err(|e| e.to_string())?;
        let unit = m
            .get("unit")
            .ok_or("metric without unit")?
            .as_string(name)
            .map_err(|e| e.to_string())?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(Run {
        host,
        group: format!("{workload} trace={}", u8::from(traced)),
        correct,
        metrics,
    })
}

fn load(paths: &[String]) -> Result<Vec<Run>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            parse_run(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Refuses sets whose fingerprints differ.
fn same_host(runs: &[&Run]) -> Result<(), String> {
    match runs.split_first() {
        Some((first, rest)) => match rest.iter().find(|r| r.host != first.host) {
            Some(other) => Err(format!(
                "mixed host fingerprints: {:?} vs {:?}",
                first.host, other.host
            )),
            None => Ok(()),
        },
        None => Err("no runs given".to_string()),
    }
}

/// `[median, q1, q3]` of one metric over runs.
fn summary(runs: &[&Run], metric: &str) -> Option<[f64; 3]> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.get(metric))
        .map(|m| m.0)
        .collect();
    let med = median(&values)?;
    let q = quartiles(&values).unwrap_or([med; 3]);
    Some([med, q[0], q[2]])
}

fn spread(s: [f64; 3]) -> f64 {
    if s[0] == 0.0 {
        0.0
    } else {
        (s[2] - s[1]) / s[0]
    }
}

/// Entry point of the subcommand.
pub fn main(argv: &[String]) -> ExitCode {
    let (base, new) = match argv.iter().position(|a| a == "--vs") {
        Some(i) => (&argv[..i], Some(&argv[i + 1..])),
        None => (argv, None),
    };
    let (base, new) = match (load(base), new.map(load).transpose()) {
        (Ok(b), Ok(n)) => (b, n.unwrap_or_default()),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2ebench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let everything: Vec<&Run> = base.iter().chain(&new).collect();
    if let Err(e) = same_host(&everything) {
        eprintln!("e2ebench compare: refused: {e}");
        return ExitCode::from(2);
    }
    let bad = everything.iter().filter(|r| !r.correct).count();
    if bad > 0 {
        println!("warning: {bad} run(s) reported correct=false");
    }
    let mut groups: Vec<&str> = everything.iter().map(|r| r.group.as_str()).collect();
    groups.sort_unstable();
    groups.dedup();
    for group in groups {
        let b: Vec<&Run> = base.iter().filter(|r| r.group == group).collect();
        let n: Vec<&Run> = new.iter().filter(|r| r.group == group).collect();
        println!(
            "== {group}: {} run(s){}",
            b.len(),
            if new.is_empty() {
                String::new()
            } else {
                format!(" vs {}", n.len())
            }
        );
        let mut names: Vec<(&String, &String)> = b
            .iter()
            .chain(&n)
            .flat_map(|r| r.metrics.iter().map(|(k, v)| (k, &v.1)))
            .collect();
        names.sort_unstable();
        names.dedup();
        for (name, unit) in names {
            let line =
                match (summary(&b, name), summary(&n, name)) {
                    (Some(s), None) => format!(
                        "median {:>12.4} {unit:<7} q1 {:>12.4} q3 {:>12.4} spread {:>6.2}%",
                        s[0],
                        s[1],
                        s[2],
                        spread(s) * 100.0
                    ),
                    (Some(s), Some(t)) => format!(
                    "base {:>12.4} new {:>12.4} {unit:<7} change {:>+7.2}% spreads {:.2}% / {:.2}%",
                    s[0],
                    t[0],
                    if s[0] == 0.0 { 0.0 } else { (t[0] / s[0] - 1.0) * 100.0 },
                    spread(s) * 100.0,
                    spread(t) * 100.0
                ),
                    (None, Some(t)) => format!("new only {:>12.4} {unit}", t[0]),
                    (None, None) => continue,
                };
            println!("  {name:<28} {line}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(cpu: &str, value: f64) -> String {
        format!(
            "setup_s 1.0 s\n{{\"detail\":{{\"host\":{{\"cpu_model\":\"{cpu}\",\"nproc\":2,\"profile\":\"release\",\"rustc\":\"rustc 1.0\"}},\"trace\":false,\"workload\":\"blur_vga\"}}}}\n{{\"attempted\":3,\"correct\":true,\"failed\":0,\"metrics\":{{\"setup_s\":{{\"unit\":\"s\",\"value\":{value}}}}}}}\n"
        )
    }

    #[test]
    fn parses_a_run_output() {
        let run = parse_run(&output("X", 1.5)).unwrap();
        assert!(run.correct);
        assert_eq!(run.group, "blur_vga trace=0");
        assert_eq!(run.metrics["setup_s"], (1.5, "s".to_string()));
        assert_eq!(run.host.nproc, 2);
    }

    #[test]
    fn refuses_mixed_fingerprints() {
        let a = parse_run(&output("X", 1.0)).unwrap();
        let b = parse_run(&output("Y", 1.0)).unwrap();
        let c = parse_run(&output("X", 2.0)).unwrap();
        assert!(same_host(&[&a, &c]).is_ok());
        assert!(same_host(&[&a, &b]).is_err());
        assert!(same_host(&[]).is_err());
    }

    #[test]
    fn summary_reports_median_and_quartile_spread() {
        let runs: Vec<Run> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|v| parse_run(&output("X", *v)).unwrap())
            .collect();
        let refs: Vec<&Run> = runs.iter().collect();
        let s = summary(&refs, "setup_s").unwrap();
        assert_eq!(s, [3.0, 1.5, 4.5]);
        assert!((spread(s) - 1.0).abs() < 1e-12);
        assert_eq!(summary(&refs, "missing"), None);
    }
}
