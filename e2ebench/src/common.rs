//! Pieces every workload shares: seeds, hashing, timers, the per-run work
//! directory and the metric sheet a workload fills in.

use crate::host;
use crate::stats::{pooled_quantile, tail_support};
use crate::Args;
use bb_core::pipeline::Reconstruction;
use bb_core::ReconstructorConfig;
use bb_telemetry::RunReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// No timed metric may rest on fewer per-operation samples than this.
pub const MIN_SAMPLES: usize = 30;

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs bytes.
    pub fn bytes(mut self, data: &[u8]) -> Fnv {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a reconstruction's observable output: the recovered
/// background, the recovered mask and the RBRR.
pub fn recon_hash(recon: &Reconstruction) -> u64 {
    let mut h = Fnv::new();
    for p in recon.background.pixels() {
        h = h.bytes(&[p.r, p.g, p.b]);
    }
    let (_, height) = recon.recovered.dims();
    for y in 0..height {
        for w in recon.recovered.row_words(y) {
            h = h.bytes(&w.to_le_bytes());
        }
    }
    h.bytes(&recon.rbrr().to_bits().to_le_bytes()).finish()
}

/// The experiments' reconstructor settings (µ tolerance 14, φ scaled with
/// the frame height) at the given worker count.
pub fn recon_config(height: usize, parallelism: usize) -> ReconstructorConfig {
    ReconstructorConfig::builder()
        .tau(14)
        .phi((height / 24).max(2))
        .parallelism(parallelism)
        .build()
        .expect("the experiment reconstructor config is valid")
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `build` [`SETUP_REPS`] times from scratch, keeping the last
/// result; returns it with every repetition's duration in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition first so each one starts from the
        // same heap state.
        drop(last.take());
        let (built, secs) = timed(&mut build);
        times.push(secs);
        last = Some(built);
    }
    (last.expect("at least one set-up repetition"), times)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leave no empty parent behind either; fails harmlessly when
        // another run still uses it.
        std::fs::remove_dir(".bench_work").ok();
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Sheet {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-operation sample counts behind the timed metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Extra facts recorded with the result (tail percentile, rates, …).
    pub notes: BTreeMap<&'static str, String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed (or that were refused).
    pub failed: u64,
    /// Run-level invariant violations.
    pub violations: Vec<String>,
}

impl Sheet {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a metric value with the sample count it rests on.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records a note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a violated run-level invariant.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Core-stage per-layer metrics from a traced report, as milliseconds
    /// per reconstructed call, plus the mask-layer pixel shares.
    pub fn core_stages(&mut self, report: &RunReport, calls: f64, frame_px: f64) {
        let per_call_ms = |stage: &str| {
            report
                .stages
                .get(stage)
                .map_or(0.0, |s| s.total_ns as f64 / 1e6 / calls)
        };
        for (metric, stage) in [
            ("core.reconstruct_ms", "reconstruct"),
            ("core.resolve_reference_ms", "resolve_reference"),
            ("core.segmenter_fit_ms", "reconstruct/segmenter_fit"),
            ("core.color_model_ms", "reconstruct/color_model"),
            ("core.pass1_ms", "reconstruct/pass1"),
            ("core.pass2_ms", "reconstruct/pass2"),
            ("core.deblur_ms", "reconstruct/deblur"),
            ("core.accumulate_ms", "reconstruct/accumulate"),
        ] {
            self.set(metric, per_call_ms(stage));
        }
        let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
        let share = |pixels: &str, frames: &str| {
            let total = counter(frames) * frame_px;
            if total > 0.0 {
                counter(pixels) * 100.0 / total
            } else {
                0.0
            }
        };
        self.set(
            "core.px_removed_pct",
            share("pixels/removed", "frames/pass1"),
        );
        self.set("core.px_leak_pct", share("pixels/leak", "frames/pass2"));
        // Worker utilisation over the pooled stages: busy time summed over
        // workers against stage wall time × workers.
        let (mut busy, mut capacity) = (0.0, 0.0);
        for stage in ["pass1", "pass2", "deblur"] {
            let (Some(b), Some(span)) = (
                report.stages.get(&format!("workers/{stage}/busy")),
                report.stages.get(&format!("reconstruct/{stage}")),
            ) else {
                continue;
            };
            if span.calls == 0 {
                continue;
            }
            busy += b.total_ns as f64;
            capacity += span.total_ns as f64 * b.calls as f64 / span.calls as f64;
        }
        if capacity > 0.0 {
            self.set("core.workers_busy_pct", busy * 100.0 / capacity);
        }
    }
}

/// Per-call wall times of a closed loop, seconds, one group per pool call.
pub struct ClosedLoop {
    /// Calls timed without tracing.
    pub untraced: Vec<Vec<f64>>,
    /// Calls timed with tracing (traced runs only).
    pub traced: Vec<Vec<f64>>,
    /// Input frames processed while measuring.
    pub frames: usize,
    /// Process CPU seconds spent while measuring.
    pub cpu_s: f64,
}

/// Replays a pool of `calls` calls one at a time, in whole rounds, until
/// `args.seconds` have passed and at least [`MIN_SAMPLES`] calls were
/// timed; an untraced run also waits for ten samples beyond the calls'
/// `tail_q`-quantiles. A traced run traces every other round, so both
/// halves see the whole pool. `call(i, traced)` runs pool call `i` and
/// returns whether its output matched the reference and how many input
/// frames it processed.
pub fn closed_loop(
    calls: usize,
    args: &Args,
    tail_q: f64,
    sheet: &mut Sheet,
    mut call: impl FnMut(usize, bool) -> (bool, usize),
) -> ClosedLoop {
    let mut lp = ClosedLoop {
        untraced: vec![Vec::new(); calls],
        traced: vec![Vec::new(); calls],
        frames: 0,
        cpu_s: 0.0,
    };
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    for round in 0usize.. {
        let traced = args.trace && round % 2 == 1;
        for i in 0..calls {
            let ((ok, frames), secs) = timed(|| call(i, traced));
            sheet.check(ok);
            lp.frames += frames;
            let groups = if traced {
                &mut lp.traced
            } else {
                &mut lp.untraced
            };
            groups[i].push(secs);
        }
        let timed_calls: usize = lp.untraced.iter().chain(&lp.traced).map(Vec::len).sum();
        let enough = if args.trace {
            round % 2 == 1
        } else {
            tail_support(&lp.untraced, tail_q) >= 10
        };
        if enough && timed_calls >= MIN_SAMPLES && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    lp.cpu_s = host::process_cpu_s() - cpu0;
    lp
}

impl ClosedLoop {
    /// Pool-mean of the untraced calls' `q`-quantiles, seconds.
    pub fn untraced_quantile(&self, q: f64) -> f64 {
        pooled_quantile(&self.untraced, q).expect("untraced calls ran")
    }

    /// Records the end-to-end metrics an untraced closed loop measures.
    pub fn end_to_end(&self, tail_q: f64, sheet: &mut Sheet) {
        let n = self.untraced.iter().map(Vec::len).sum();
        sheet.set_sampled("latency_ms_p50", self.untraced_quantile(0.5) * 1e3, n);
        sheet.set_sampled("latency_ms_tail", self.untraced_quantile(tail_q) * 1e3, n);
        sheet.note("tail_percentile", tail_q * 100.0);
        let frames = self.frames;
        sheet.set_sampled("cpu_ms_per_frame", self.cpu_s * 1e3 / frames as f64, frames);
        sheet.set("peak_rss_mb", host::peak_rss_mb());
    }

    /// Records `trace.overhead_pct` of a traced closed loop.
    pub fn trace_overhead(&self, sheet: &mut Sheet) {
        let traced = pooled_quantile(&self.traced, 0.5).expect("traced calls ran");
        sheet.set(
            "trace.overhead_pct",
            overhead_pct(traced, self.untraced_quantile(0.5)),
        );
    }
}

/// `traced / untraced − 1` in percent: the telemetry overhead.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_time() {
        assert!((overhead_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(0.98, 1.0) + 2.0).abs() < 1e-9);
    }
}
