//! Host readings: process CPU time, peak resident memory and the host
//! fingerprint stamped into every result.

use bb_telemetry::json::Json;
use std::collections::BTreeMap;

/// User + system CPU of the whole process (all threads, live and exited)
/// in clock ticks, from the text of `/proc/self/stat`.
///
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the *last* `)`: after it come field 3 (state)
/// onwards, which puts utime (field 14) at index 11 and stime (15) at 12.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB, from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// The CPU model from the text of `/proc/cpuinfo` (`model name`, or the
/// `Hardware`/`CPU part` lines some ARM kernels print instead).
pub fn parse_cpu_model(cpuinfo: &str) -> String {
    for key in ["model name", "Hardware", "CPU part"] {
        for line in cpuinfo.lines() {
            if let Some((k, v)) = line.split_once(':') {
                if k.trim() == key && !v.trim().is_empty() {
                    return v.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of the `/proc` CPU counters.
fn ticks_per_second() -> f64 {
    // SAFETY: sysconf takes an integer selector and reads no memory of
    // ours; any selector is valid input (unknown ones return -1).
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / ticks_per_second()
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything that must match before two results may be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
}

impl Fingerprint {
    /// The fingerprint of this process's host and build.
    pub fn current() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Fingerprint {
            nproc: nproc(),
            cpu_model: parse_cpu_model(&cpuinfo),
            rustc: env!("E2EBENCH_RUSTC").to_string(),
            profile: env!("E2EBENCH_PROFILE").to_string(),
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("nproc".to_string(), Json::Number(self.nproc as f64));
        m.insert(
            "cpu_model".to_string(),
            Json::String(self.cpu_model.clone()),
        );
        m.insert("rustc".to_string(), Json::String(self.rustc.clone()));
        m.insert("profile".to_string(), Json::String(self.profile.clone()));
        Json::Object(m)
    }

    /// Parses the object written by [`Fingerprint::to_json`].
    pub fn from_json(value: &Json) -> Option<Fingerprint> {
        let m = value.as_object("host").ok()?;
        Some(Fingerprint {
            nproc: m.get("nproc")?.as_u64("nproc").ok()? as usize,
            cpu_model: m.get("cpu_model")?.as_string("cpu_model").ok()?.to_string(),
            rustc: m.get("rustc")?.as_string("rustc").ok()?.to_string(),
            profile: m.get("profile")?.as_string("profile").ok()?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_sums_utime_and_stime() {
        let stat = "4242 (e2ebench) R 1 4242 4242 0 -1 4194304 812 0 0 0 \
                    1534 211 0 0 20 0 3 0 98765 123456789 4567 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1534 + 211));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_the_command_name() {
        let stat = "7 (a (weird) name) S 1 7 7 0 -1 0 0 0 0 0 40 2 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("7 (truncated) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn stat_parser_reads_this_process() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&stat).is_some());
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes() {
        let status =
            "Name:\te2ebench\nVmPeak:\t  300000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_model_prefers_model_name() {
        let info = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n";
        assert_eq!(parse_cpu_model(info), "Intel(R) Xeon(R) CPU @ 2.20GHz");
        assert_eq!(parse_cpu_model("CPU part\t: 0xd0c\n"), "0xd0c");
        assert_eq!(parse_cpu_model(""), "unknown");
    }

    #[test]
    fn fingerprint_round_trips_through_json() {
        let fp = Fingerprint::current();
        assert_eq!(Fingerprint::from_json(&fp.to_json()), Some(fp));
    }
}
