//! `live_qvga`: an operator's per-frame latency on a live service.
//!
//! Open loop: [`CALLERS`] concurrent callers each send 320×240 frames at
//! 30 fps to one `ReconServer` on a single scheduler thread, whatever the
//! server's backlog. Every frame reaches the server as BBWS wire bytes that
//! were encoded during set-up and are decoded when the frame is due. Calls
//! last [`CALL_FRAMES`] frames and a caller starts its next call as soon as
//! one closes; joins are staggered, so session locks recur throughout the
//! run. The resident budget sits below the combined `state_bytes()` the
//! schedule demands at its peaks, so sessions are evicted to BBSC
//! checkpoints and resumed in every run. No attacks and no deblur run.

use crate::common::{
    mix, overhead_pct, recon_config, recon_hash, repeated_setup, timed, Sheet, WorkDir,
};
use crate::host;
use crate::openloop::{Due, OpenLoop, RealClock, Record};
use crate::stats::{median, percentile};
use crate::Args;
use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile};
use bb_core::{MaskRetention, Reconstructor, ReconstructorConfig, VbSource};
use bb_datasets::DatasetConfig;
use bb_imaging::Frame;
use bb_serve::wire::{self, Message, WireDecoder};
use bb_serve::{ReconServer, ServeConfig, ServeError};
use bb_telemetry::{RunReport, Telemetry};
use bb_video::VideoStream;
use std::path::Path;

/// The tail quantile reported as `latency_ms_tail`.
pub const TAIL_Q: f64 = 0.99;

/// Concurrent callers, sized so the scheduler thread is busy about half
/// of wall time on the reference host.
pub const CALLERS: usize = 24;

/// Frames per call.
pub const CALL_FRAMES: usize = 120;

const WIDTH: usize = 320;
const HEIGHT: usize = 240;
const FPS: f64 = 30.0;
/// Frames a session buffers before it locks.
const WARMUP_FRAMES: usize = 20;
/// Callers are spread over this many send phases within a frame period.
const GROUPS: usize = 6;
/// Distinct calls the callers replay.
const POOL_CLIPS: [&str; 2] = ["e2-p1-s4-active", "e2-p2-s4-active"];
/// The budget is this quantile of the combined session state the schedule
/// demands over one join cycle: above it, sessions are evicted.
const BUDGET_QUANTILE: f64 = 0.9;
/// Session replays for the `session.*` per-layer metrics.
const REPLAYS: usize = 5;

fn period() -> f64 {
    1.0 / FPS
}

fn prototype_config() -> ReconstructorConfig {
    ReconstructorConfig {
        warmup_frames: WARMUP_FRAMES,
        mask_retention: MaskRetention::None,
        ..recon_config(HEIGHT, 1)
    }
}

/// Frame index (from the loop epoch) at which caller `c` first joins.
fn join_frame(c: usize) -> usize {
    c * CALL_FRAMES / CALLERS
}

/// When caller `c`'s first frame is due, seconds from the loop epoch.
fn first_due(c: usize) -> f64 {
    join_frame(c) as f64 * period() + (c % GROUPS) as f64 * period() / GROUPS as f64
}

/// Combined session state over one join cycle in steady state, given the
/// state of a session after each number of pushed frames (`by_frames[p]`,
/// locked from `by_frames.len() - 1` on).
fn demand_profile(by_frames: &[usize]) -> Vec<f64> {
    let locked = by_frames.len() - 1;
    (0..CALL_FRAMES)
        .map(|f| {
            (0..CALLERS)
                .map(|c| {
                    let offset = join_frame(c) % CALL_FRAMES;
                    let pushed = (f + CALL_FRAMES - offset) % CALL_FRAMES + 1;
                    by_frames[pushed.min(locked)] as f64
                })
                .sum()
        })
        .collect()
}

struct Pool {
    wire: Vec<Vec<u8>>,
    budget: usize,
    prototype: Reconstructor,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    render: f64,
    composite: f64,
    encode: f64,
}

fn build(seed: u64) -> (Pool, SetupTimes) {
    let cfg = DatasetConfig {
        width: WIDTH,
        height: HEIGHT,
        e2_frames: CALL_FRAMES,
        ..DatasetConfig::default()
    };
    let catalog = bb_datasets::e2_catalog(&cfg);
    let vb = BackgroundId::Beach.realize(WIDTH, HEIGHT);
    let mut t = SetupTimes::default();
    let mut wire = Vec::new();
    let mut first_call = None;
    for (i, id) in POOL_CLIPS.iter().enumerate() {
        let clip = catalog
            .iter()
            .find(|c| c.id == *id)
            .expect("the catalog holds the clip");
        let (gt, s) = timed(|| clip.render(&cfg).expect("catalog clips render"));
        t.render += s;
        let (call, s) = timed(|| {
            CallSim::new(&gt)
                .vb(vb.clone())
                .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
                .lighting(clip.lighting)
                .seed(mix(seed, 300 + i as u64))
                .run()
                .expect("catalog calls composite")
        });
        t.composite += s;
        let (bytes, s) = timed(|| wire::encode_call(i as u64, &call.video));
        t.encode += s;
        wire.push(bytes);
        first_call.get_or_insert(call.video);
    }
    let prototype = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(WIDTH, HEIGHT)),
        prototype_config(),
    );
    // Size the budget from the state a real session holds after each
    // pushed frame, up to and past its lock.
    let video = first_call.expect("the pool is non-empty");
    let mut probe = prototype.session();
    let mut by_frames = vec![probe.state_bytes()];
    for frame in video.iter().take(WARMUP_FRAMES) {
        probe
            .push_frame(frame)
            .expect("the probe session accepts frames");
        by_frames.push(probe.state_bytes());
    }
    let demand = demand_profile(&by_frames);
    let budget = percentile(&demand, BUDGET_QUANTILE).expect("the cycle is non-empty") as usize;
    (
        Pool {
            wire,
            budget,
            prototype,
        },
        t,
    )
}

/// Decodes a pool call's wire bytes back into frames.
fn decode_call(bytes: &[u8]) -> VideoStream {
    let mut decoder = WireDecoder::new(bytes).expect("pool wire decodes");
    let mut frames = Vec::new();
    while let Some(msg) = decoder.next_message().expect("pool wire decodes") {
        if let Message::Frame { rgb, .. } = msg {
            frames.push(wire::frame_from_rgb(&rgb, WIDTH, HEIGHT).expect("pool frames fit"));
        }
    }
    VideoStream::from_frames(frames, FPS).expect("pool calls are non-empty")
}

struct Slot<'a> {
    decoder: Option<WireDecoder<'a>>,
    pool_index: usize,
    session: Option<u64>,
    calls: u64,
}

/// Generator state shared by every round of one open-loop phase.
struct Ctx<'a> {
    pool: &'a Pool,
    reference: &'a [(u64, f64)],
    server: ReconServer,
    slots: Vec<Slot<'a>>,
    seed_offset: usize,
    served_rbrr: Vec<Option<f64>>,
    decode_s: Vec<f64>,
    open_s: Vec<f64>,
    close_s: Vec<f64>,
    denied: u64,
}

impl<'a> Ctx<'a> {
    /// Decodes the next due frame of every caller in `batch`, opening and
    /// closing sessions on the way, and pushes the frames in one round.
    fn round(&mut self, batch: &[Due], sheet: &mut Sheet, record: bool) {
        let mut pushes: Vec<(u64, Vec<Frame>)> = Vec::with_capacity(batch.len());
        for d in batch {
            loop {
                let slot = &mut self.slots[d.caller];
                if slot.decoder.is_none() {
                    slot.pool_index =
                        (d.caller + slot.calls as usize + self.seed_offset) % self.pool.wire.len();
                    slot.decoder = Some(
                        WireDecoder::new(&self.pool.wire[slot.pool_index])
                            .expect("pool wire decodes"),
                    );
                    slot.calls += 1;
                }
                let decoder = slot.decoder.as_mut().expect("set above");
                let (msg, decode) = timed(|| decoder.next_message().expect("pool wire decodes"));
                match msg {
                    Some(Message::Open { width, height, .. }) => {
                        let id = ((d.caller as u64) << 32) | slot.calls;
                        let (opened, secs) = timed(|| self.server.open_session(id, width, height));
                        // A refused or failed open leaves the call without
                        // a session; its frames then count as failed.
                        slot.session = opened.as_ref().ok().map(|()| id);
                        if let Err(ServeError::AdmissionDenied { .. }) = opened {
                            self.denied += 1;
                        }
                        if record {
                            self.open_s.push(secs);
                        }
                    }
                    Some(Message::Frame { rgb, .. }) => {
                        let (frame, convert) = timed(|| {
                            wire::frame_from_rgb(&rgb, WIDTH, HEIGHT).expect("pool frames fit")
                        });
                        if record {
                            self.decode_s.push(decode + convert);
                        }
                        match slot.session {
                            Some(id) => pushes.push((id, vec![frame])),
                            None => sheet.check(false),
                        }
                        break;
                    }
                    Some(Message::Close { .. }) | None => {
                        slot.decoder = None;
                        let index = slot.pool_index;
                        if let Some(id) = slot.session.take() {
                            let (closed, secs) = timed(|| self.server.close_session(id));
                            if record {
                                self.close_s.push(secs);
                            }
                            // serve == batch: the served call must equal the
                            // batch reconstruction of the same frames.
                            let ok = closed.is_ok_and(|r| {
                                let same = recon_hash(&r) == self.reference[index].0;
                                if same {
                                    self.served_rbrr[index] = Some(r.rbrr());
                                }
                                same
                            });
                            sheet.check(ok);
                        }
                    }
                }
            }
        }
        let pushed = pushes.len();
        match self.server.push_many(pushes) {
            Ok(results) => {
                for (_, result) in results {
                    sheet.check(result.is_ok());
                }
            }
            // A server-wide failure (spill I/O) fails every frame of the round.
            Err(_) => (0..pushed).for_each(|_| sheet.check(false)),
        }
    }
}

/// What one open-loop phase measured over its recorded window.
struct Phase {
    record: Record,
    decode_s: Vec<f64>,
    open_s: Vec<f64>,
    close_s: Vec<f64>,
    evictions: u64,
    resumes: u64,
    denied: u64,
    cpu_s: f64,
    window_s: f64,
    peak_live_bytes: usize,
    served_rbrr: Vec<Option<f64>>,
    report: RunReport,
}

/// Ramps every caller in, then records `seconds` of steady state.
fn drive(
    pool: &Pool,
    reference: &[(u64, f64)],
    seed: u64,
    seconds: f64,
    telemetry: Option<Telemetry>,
    spill: &Path,
    sheet: &mut Sheet,
) -> Phase {
    let config = ServeConfig {
        budget_bytes: pool.budget,
        max_sessions: CALLERS,
        scheduler_workers: 1,
        ..ServeConfig::new(spill)
    };
    let mut server = ReconServer::new(pool.prototype.clone(), config).expect("spill dir opens");
    if let Some(t) = &telemetry {
        server = server.with_telemetry(t.clone());
    }
    let mut ctx = Ctx {
        pool,
        reference,
        server,
        slots: (0..CALLERS)
            .map(|_| Slot {
                decoder: None,
                pool_index: 0,
                session: None,
                calls: 0,
            })
            .collect(),
        seed_offset: (mix(seed, 2) % pool.wire.len() as u64) as usize,
        served_rbrr: vec![None; pool.wire.len()],
        decode_s: Vec::new(),
        open_s: Vec::new(),
        close_s: Vec::new(),
        denied: 0,
    };
    let mut clock = RealClock::start();
    let mut schedule = OpenLoop::new((0..CALLERS).map(first_due).collect(), period());
    // Every caller has joined and locked its first call by then.
    let ramp = (CALL_FRAMES + WARMUP_FRAMES) as f64 * period();
    schedule.run_until(&mut clock, ramp, None, |_, batch| {
        ctx.round(batch, sheet, false)
    });
    let before = ctx.server.stats();
    let denied_before = ctx.denied;
    let report_before = telemetry
        .as_ref()
        .map(Telemetry::report)
        .unwrap_or_default();
    let cpu0 = host::process_cpu_s();
    let mut record = Record::default();
    schedule.run_until(&mut clock, ramp + seconds, Some(&mut record), |_, batch| {
        ctx.round(batch, sheet, true)
    });
    let cpu_s = host::process_cpu_s() - cpu0;
    let after = ctx.server.stats();
    Phase {
        record,
        decode_s: ctx.decode_s,
        open_s: ctx.open_s,
        close_s: ctx.close_s,
        evictions: after.evicted - before.evicted,
        resumes: after.resumed - before.resumed,
        denied: ctx.denied - denied_before,
        cpu_s,
        window_s: seconds,
        peak_live_bytes: after.peak_live_bytes,
        served_rbrr: ctx.served_rbrr,
        report: report_delta(
            &telemetry.map(|t| t.report()).unwrap_or_default(),
            &report_before,
        ),
    }
}

/// Stage totals and counters recorded between two snapshots of one
/// telemetry sink (histograms are left out).
pub fn report_delta(after: &RunReport, before: &RunReport) -> RunReport {
    let mut delta = RunReport::default();
    for (name, s) in &after.stages {
        let b = before.stages.get(name).copied().unwrap_or_default();
        let mut d = *s;
        d.calls -= b.calls;
        d.total_ns -= b.total_ns;
        delta.stages.insert(name.clone(), d);
    }
    for (name, n) in &after.counters {
        let b = before.counters.get(name).copied().unwrap_or(0);
        delta.counters.insert(name.clone(), n - b);
    }
    delta
}

/// Run-level invariants every phase must meet.
fn check_phase(phase: &Phase, sheet: &mut Sheet) {
    if phase.evictions == 0 {
        sheet.violate("the budget never forced an eviction");
    }
    if phase.resumes == 0 {
        sheet.violate("no evicted session was resumed");
    }
    if phase.record.late_pct() > 1.0 {
        eprintln!(
            "warning: {:.2}% of frames started more than a frame period late; the host is overloaded",
            phase.record.late_pct()
        );
    }
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// Replays the public session API on one pool call: the locking push,
/// post-lock pushes, checkpoint and resume.
fn session_replays(pool: &Pool, video: &VideoStream, sheet: &mut Sheet) {
    let (mut lock, mut push, mut ckpt, mut resume) = (vec![], vec![], vec![], vec![]);
    let (mut state, mut ckpt_bytes) = (0, 0);
    for _ in 0..REPLAYS {
        let mut session = pool.prototype.session();
        for (i, frame) in video.iter().enumerate() {
            let (out, secs) = timed(|| session.push_frame(frame));
            out.expect("replayed frames are accepted");
            if i + 1 == WARMUP_FRAMES {
                lock.push(secs);
            } else if i + 1 > WARMUP_FRAMES {
                push.push(secs);
            }
        }
        state = session.state_bytes();
        let (bytes, secs) = timed(|| session.checkpoint());
        ckpt.push(secs);
        ckpt_bytes = bytes.len();
        let (resumed, secs) = timed(|| pool.prototype.resume_session(&bytes));
        resumed.expect("checkpoints resume");
        resume.push(secs);
    }
    let med = |v: &[f64]| ms(median(v).expect("replays ran"));
    sheet.set_sampled("session.push_ms", med(&push), push.len());
    sheet.set_sampled("session.lock_ms", med(&lock), lock.len());
    sheet.set("session.state_kb", state as f64 / 1024.0);
    sheet.set_sampled("session.checkpoint_ms", med(&ckpt), ckpt.len());
    sheet.set("session.checkpoint_kb", ckpt_bytes as f64 / 1024.0);
    sheet.set_sampled("session.resume_ms", med(&resume), resume.len());
}

/// Runs the workload.
pub fn run(args: &Args) -> Sheet {
    let mut sheet = Sheet::default();
    let dir = WorkDir::create("live").expect("the working directory is writable");
    let ((pool, setup), setup_times) = repeated_setup(|| build(args.seed));
    sheet.set_sampled(
        "setup_s",
        median(&setup_times).expect("set-up ran"),
        setup_times.len(),
    );
    sheet.note("callers", CALLERS);
    sheet.note("rate_fps", CALLERS as f64 * FPS);
    sheet.note(
        "budget_mb",
        format!("{:.2}", pool.budget as f64 / (1 << 20) as f64),
    );

    // Warmup and reference: the batch reconstruction of every pool call.
    let reference: Vec<(u64, f64)> = pool
        .wire
        .iter()
        .map(|bytes| {
            let r = pool
                .prototype
                .reconstruct(&decode_call(bytes))
                .expect("pool calls reconstruct");
            (recon_hash(&r), r.rbrr())
        })
        .collect();

    let finish_rbrr = |phase: &Phase, sheet: &mut Sheet| {
        if phase.served_rbrr.iter().any(Option::is_none) {
            sheet.violate("a pool call never completed");
        }
        let done: Vec<f64> = phase.served_rbrr.iter().flatten().copied().collect();
        if !done.is_empty() {
            sheet.set("rbrr_pct", done.iter().sum::<f64>() / done.len() as f64);
        }
    };

    if !args.trace {
        let phase = drive(
            &pool,
            &reference,
            args.seed,
            args.seconds,
            None,
            &dir.path().join("spill"),
            &mut sheet,
        );
        check_phase(&phase, &mut sheet);
        finish_rbrr(&phase, &mut sheet);
        let lat_ms: Vec<f64> = phase.record.latency_s.iter().map(|&s| ms(s)).collect();
        let frames = lat_ms.len();
        sheet.set_sampled(
            "latency_ms_p50",
            median(&lat_ms).expect("frames ran"),
            frames,
        );
        sheet.set_sampled(
            "latency_ms_tail",
            percentile(&lat_ms, TAIL_Q).expect("frames ran"),
            frames,
        );
        sheet.note("tail_percentile", TAIL_Q * 100.0);
        sheet.set_sampled("cpu_ms_per_frame", ms(phase.cpu_s) / frames as f64, frames);
        sheet.set("peak_rss_mb", host::peak_rss_mb());
        sheet.note("evictions", phase.evictions);
        sheet.note("resumes", phase.resumes);
        let busy: f64 = phase.record.round_s.iter().sum();
        sheet.note("busy_pct", format!("{:.1}", busy * 100.0 / phase.window_s));
        return sheet;
    }

    // Traced: an untraced half and a traced half, each ramped in afresh.
    let half = args.seconds / 2.0;
    let plain = drive(
        &pool,
        &reference,
        args.seed,
        half,
        None,
        &dir.path().join("spill-a"),
        &mut sheet,
    );
    check_phase(&plain, &mut sheet);
    let tel = Telemetry::enabled();
    let traced = drive(
        &pool,
        &reference,
        args.seed,
        half,
        Some(tel),
        &dir.path().join("spill-b"),
        &mut sheet,
    );
    check_phase(&traced, &mut sheet);
    finish_rbrr(&traced, &mut sheet);

    sheet.set("synth.render_s", setup.render);
    sheet.set("callsim.composite_s", setup.composite);
    sheet.set("video.encode_s", setup.encode);
    let rec = &traced.record;
    let frames = rec.frames();
    sheet.core_stages(
        &traced.report,
        frames as f64 / CALL_FRAMES as f64,
        (WIDTH * HEIGHT) as f64,
    );
    let med_ms = |v: &[f64]| median(v).map_or(0.0, ms);
    sheet.set_sampled("serve.round_ms", med_ms(&rec.round_s), rec.round_s.len());
    sheet.set_sampled(
        "serve.wire_decode_us",
        median(&traced.decode_s).map_or(0.0, |s| s * 1e6),
        traced.decode_s.len(),
    );
    sheet.set_sampled(
        "serve.hol_wait_ms_p99",
        percentile(&rec.wait_s, 0.99).map_or(0.0, ms),
        rec.wait_s.len(),
    );
    sheet.set("serve.evictions", traced.evictions as f64);
    sheet.set("serve.resumes", traced.resumes as f64);
    sheet.set(
        "serve.thrash_ratio",
        traced.evictions as f64 / frames as f64,
    );
    sheet.set("serve.denied", traced.denied as f64);
    sheet.set_sampled("serve.open_ms", med_ms(&traced.open_s), traced.open_s.len());
    sheet.set_sampled(
        "serve.close_ms",
        med_ms(&traced.close_s),
        traced.close_s.len(),
    );
    sheet.set(
        "serve.peak_live_mb",
        traced.peak_live_bytes as f64 / (1 << 20) as f64,
    );
    sheet.set(
        "serve.busy_pct",
        rec.round_s.iter().sum::<f64>() * 100.0 / traced.window_s,
    );
    sheet.set_sampled(
        "loadgen.gen_lag_ms_p99",
        percentile(&rec.wake_lag_s, 0.99).map_or(0.0, ms),
        rec.wake_lag_s.len(),
    );
    sheet.set("loadgen.late_pct", rec.late_pct());
    let p50 = |r: &Record| median(&r.latency_s).expect("frames ran");
    sheet.set(
        "trace.overhead_pct",
        overhead_pct(p50(rec), p50(&plain.record)),
    );

    let video = decode_call(&pool.wire[0]);
    session_replays(&pool, &video, &mut sheet);
    let vb = BackgroundId::Beach
        .realize(WIDTH, HEIGHT)
        .frame_at(0, WIDTH, HEIGHT);
    crate::kernels::replay(
        &video,
        &vb,
        pool.prototype.config(),
        crate::blur::RADIUS,
        &mut sheet,
    );
    sheet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_delta_subtracts_stage_totals_and_counters() {
        let tel = bb_telemetry::Telemetry::enabled();
        tel.record_duration("stage", std::time::Duration::from_nanos(100));
        tel.add("count", 2);
        let before = tel.report();
        tel.record_duration("stage", std::time::Duration::from_nanos(50));
        tel.record_duration("late", std::time::Duration::from_nanos(7));
        tel.add("count", 3);
        let d = report_delta(&tel.report(), &before);
        assert_eq!(d.stages["stage"].calls, 1);
        assert_eq!(d.stages["stage"].total_ns, 50);
        assert_eq!(d.stages["late"].total_ns, 7);
        assert_eq!(d.counters["count"], 3);
    }

    #[test]
    fn joins_are_staggered_over_one_call_and_spread_over_phases() {
        let joins: Vec<usize> = (0..CALLERS).map(join_frame).collect();
        assert!(
            joins.windows(2).all(|w| w[0] < w[1]),
            "joins strictly increase"
        );
        assert!(*joins.last().unwrap() < CALL_FRAMES);
        for c in 0..CALLERS {
            let phase = first_due(c) - join_frame(c) as f64 * period();
            assert!((0.0..period()).contains(&phase));
        }
    }

    #[test]
    fn demand_profile_walks_every_caller_through_a_whole_call() {
        // Warmup state grows 10 per frame, locked state is 1000.
        let mut by_frames: Vec<usize> = (0..WARMUP_FRAMES).map(|p| 10 * p).collect();
        by_frames.push(1000);
        let demand = demand_profile(&by_frames);
        assert_eq!(demand.len(), CALL_FRAMES);
        // Over one cycle each caller sits once at every progress 1..=L.
        let per_call: usize = (1..=CALL_FRAMES)
            .map(|p| by_frames[p.min(WARMUP_FRAMES)])
            .sum();
        assert_eq!(demand.iter().sum::<f64>(), (CALLERS * per_call) as f64);
        // Staggered joins keep some callers warming at every frame.
        assert!(demand.iter().all(|&d| d < (CALLERS * 1000) as f64));
    }
}
