//! End-to-end and per-layer benchmark of the Background Buster stack.
//!
//! ```text
//! e2ebench --workload <forensic_qqvga|blur_vga|live_qvga> --seed N --seconds S --trace <0|1>
//! e2ebench compare RESULT_FILE... [--vs RESULT_FILE...]
//! ```
//!
//! A run generates its inputs from the seed, sets up three times, warms
//! up, measures for at least `S` seconds on one thread, checks every
//! operation's output, and prints every metric by name and unit. Its last
//! stdout line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it carries the host fingerprint, the sample
//! count behind each timed metric and the run's notes. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
//! `compare` summarises saved outputs of several runs and refuses to mix
//! results from different hosts or builds.

mod blur;
mod common;
mod compare;
mod forensic;
mod host;
mod kernels;
mod live;
mod openloop;
mod stats;

use bb_telemetry::json::{to_compact_string, Json};
use common::Sheet;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Every untraced run prints all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("cpu_ms_per_frame", "ms"),
    ("peak_rss_mb", "MB"),
    ("rbrr_pct", "%"),
];

/// Per-layer metrics: name and unit. Every traced run prints all; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.render_s", "s"),
    ("callsim.composite_s", "s"),
    ("datasets.dictionary_s", "s"),
    ("video.encode_s", "s"),
    ("video.load_ms", "ms"),
    ("video.ingest_mpix_s", "Mpix/s"),
    ("video.container_mb", "MB"),
    ("core.reconstruct_ms", "ms"),
    ("core.resolve_reference_ms", "ms"),
    ("core.segmenter_fit_ms", "ms"),
    ("core.color_model_ms", "ms"),
    ("core.pass1_ms", "ms"),
    ("core.pass2_ms", "ms"),
    ("core.deblur_ms", "ms"),
    ("core.accumulate_ms", "ms"),
    ("core.px_removed_pct", "%"),
    ("core.px_leak_pct", "%"),
    ("core.workers_busy_pct", "%"),
    ("core.pool_speedup", "x"),
    ("session.push_ms", "ms"),
    ("session.lock_ms", "ms"),
    ("session.state_kb", "KB"),
    ("session.checkpoint_ms", "ms"),
    ("session.checkpoint_kb", "KB"),
    ("session.resume_ms", "ms"),
    ("kernel.vb_mask_ns_px", "ns/px"),
    ("kernel.bb_mask_ns_px", "ns/px"),
    ("kernel.vc_mask_ns_px", "ns/px"),
    ("kernel.deblur_ns_px", "ns/px"),
    ("kernel.label_ns_px", "ns/px"),
    ("kernel.accumulate_ns_px", "ns/px"),
    ("attacks.location_ms", "ms"),
    ("attacks.location_pairs", "count"),
    ("attacks.tracking_ms", "ms"),
    ("attacks.tracking_windows", "count"),
    ("attacks.text_ms", "ms"),
    ("attacks.generic_ms", "ms"),
    ("attacks.share_pct", "%"),
    ("attacks.top1_pct", "%"),
    ("serve.round_ms", "ms"),
    ("serve.wire_decode_us", "us"),
    ("serve.hol_wait_ms_p99", "ms"),
    ("serve.evictions", "count"),
    ("serve.resumes", "count"),
    ("serve.thrash_ratio", "ratio"),
    ("serve.denied", "count"),
    ("serve.open_ms", "ms"),
    ("serve.close_ms", "ms"),
    ("serve.peak_live_mb", "MB"),
    ("serve.busy_pct", "%"),
    ("loadgen.gen_lag_ms_p99", "ms"),
    ("loadgen.late_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Forensic time-to-verdict over a pool of recorded calls.
    ForensicQqvga,
    /// VGA blur-residue reconstruction on the worker pool.
    BlurVga,
    /// Open-loop live push latency under eviction.
    LiveQvga,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "forensic_qqvga" => Some(Workload::ForensicQqvga),
            "blur_vga" => Some(Workload::BlurVga),
            "live_qvga" => Some(Workload::LiveQvga),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ForensicQqvga => "forensic_qqvga",
            Workload::BlurVga => "blur_vga",
            Workload::LiveQvga => "live_qvga",
        }
    }
}

/// Parsed command line of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| "--workload must be forensic_qqvga, blur_vga or live_qvga".to_string())?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn object(entries: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Object(entries.into_iter().collect())
}

/// Prints the metric lines, the detail line and the result line.
fn report(args: &Args, mut sheet: Sheet) -> bool {
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in list {
        let value = match sheet.values.get(name) {
            Some(v) if v.is_finite() => *v,
            // A missing per-layer metric is a layer the workload does not
            // exercise; an end-to-end one is a broken run.
            None if args.trace => 0.0,
            other => {
                sheet.violate(format!("metric {name} is {other:?}"));
                0.0
            }
        };
        let samples = sheet
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("{name:<28} {value:>14.4} {unit}{samples}");
        metrics.insert(
            name.to_string(),
            object([
                ("value".to_string(), Json::Number(value)),
                ("unit".to_string(), Json::String(unit.to_string())),
            ]),
        );
    }
    for v in &sheet.violations {
        eprintln!("check failed: {v}");
    }
    let correct = sheet.violations.is_empty() && sheet.failed == 0 && sheet.attempted > 0;
    let detail = object([
        ("host".to_string(), host::Fingerprint::current().to_json()),
        (
            "workload".to_string(),
            Json::String(args.workload.name().to_string()),
        ),
        ("seed".to_string(), Json::Number(args.seed as f64)),
        ("seconds".to_string(), Json::Number(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "samples".to_string(),
            object(
                sheet
                    .samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Number(*n as f64))),
            ),
        ),
        (
            "notes".to_string(),
            object(
                sheet
                    .notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::String(v.clone()))),
            ),
        ),
        (
            "violations".to_string(),
            Json::Array(sheet.violations.iter().cloned().map(Json::String).collect()),
        ),
    ]);
    println!(
        "{}",
        to_compact_string(&object([("detail".to_string(), detail)]))
    );
    let result = object([
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::Number(sheet.attempted as f64),
        ),
        ("failed".to_string(), Json::Number(sheet.failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    println!("{}", to_compact_string(&result));
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let sheet = match args.workload {
        Workload::ForensicQqvga => forensic::run(&args),
        Workload::BlurVga => blur::run(&args),
        Workload::LiveQvga => live::run(&args),
    };
    if report(&args, sheet) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload live_qvga --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::LiveQvga);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 30.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload blur_vga --seconds 1",
            "--workload blur_vga --seed 1 --seconds 0",
            "--workload blur_vga --seed 1 --seconds 1 --trace 2",
            "--workload blur_vga --seed 1 --seconds 1 --extra 1",
            "--workload blur_vga --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_and_units_fit_the_result_schema() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }
}
