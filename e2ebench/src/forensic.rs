//! `forensic_qqvga`: an analyst's time-to-verdict on recorded calls.
//!
//! Closed loop, one call at a time, cycling in whole rounds through the
//! five E2 calls of participant 0 (four passive, one active) at the corpus
//! geometry, 160×120 × 240 frames. Each call is rendered, composited over
//! the beach catalog image by the Zoom-like profile and saved as a BBV2
//! container during set-up. A timed call mmap-loads the container,
//! reconstructs it with known-image identification on one worker, ranks
//! the 200-entry location dictionary, tracks each object of the room and
//! runs the generic-object and text attacks. The attacks are most of the
//! work, so core and codec changes should not move this workload.

use crate::common::{
    closed_loop, mix, recon_config, recon_hash, repeated_setup, timed, Fnv, Sheet, WorkDir,
};
use crate::stats::{median, pooled_quantile};
use crate::Args;
use bb_attacks::{
    LocationDictionary, LocationInference, ObjectDetector, ObjectTracker, TextReader,
};
use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile};
use bb_core::{Reconstructor, VbSource};
use bb_datasets::DatasetConfig;
use bb_imaging::Frame;
use bb_telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// The tail quantile reported as `latency_ms_tail`.
pub const TAIL_Q: f64 = 0.75;

/// The pool: every E2 call of this participant.
const PARTICIPANT: &str = "e2-p0-";

/// Exemplars per class for the generic-object detector (the full-run
/// setting of the Fig 14 experiment).
const DETECTOR_EXEMPLARS: usize = 16;

struct Entry {
    label: String,
    path: PathBuf,
    templates: Vec<Frame>,
    frames: usize,
    pixels: usize,
    container_bytes: usize,
}

struct Pool {
    /// Holds the containers; removed with the pool.
    _files: WorkDir,
    entries: Vec<Entry>,
    dictionary: LocationDictionary,
    recon: Reconstructor,
    detector: ObjectDetector,
    reader: TextReader,
    tracker: ObjectTracker,
    location: LocationInference,
}

/// Set-up time by layer, seconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    render: f64,
    composite: f64,
    dictionary: f64,
    encode: f64,
}

/// Builds the pool; set-up repetition `rep` writes its containers to a
/// directory of its own. Rewriting the previous repetition's files in place
/// would make ext4 flush them on close (`auto_da_alloc`), which turned the
/// encode step from 0.06 s into an erratic 0.6–0.9 s.
fn build(seed: u64, rep: usize) -> (Pool, SetupTimes) {
    let cfg = DatasetConfig::default();
    let files =
        WorkDir::create(&format!("forensic{rep}")).expect("the working directory is writable");
    let mut t = SetupTimes::default();
    let mut clips: Vec<_> = bb_datasets::e2_catalog(&cfg)
        .into_iter()
        .filter(|c| c.id.starts_with(PARTICIPANT))
        .collect();
    let rotate = (mix(seed, 1) % clips.len() as u64) as usize;
    clips.rotate_left(rotate);
    let vb = BackgroundId::Beach.realize(cfg.width, cfg.height);
    let mut entries = Vec::with_capacity(clips.len());
    for (i, clip) in clips.iter().enumerate() {
        let (gt, s) = timed(|| clip.render(&cfg).expect("catalog clips render"));
        t.render += s;
        let (call, s) = timed(|| {
            CallSim::new(&gt)
                .vb(vb.clone())
                .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
                .lighting(clip.lighting)
                .seed(mix(seed, 100 + i as u64))
                .run()
                .expect("catalog calls composite")
        });
        t.composite += s;
        let path = files.path().join(format!("call-{i}.bbv"));
        let (bytes, s) = timed(|| {
            let bytes = bb_video::v2::encode(&call.video, bb_video::v2::DEFAULT_STRIPE)
                .expect("calls encode");
            std::fs::write(&path, &bytes).expect("the work directory is writable");
            bytes.len()
        });
        t.encode += s;
        entries.push(Entry {
            label: clip.room_label(),
            path,
            templates: clip
                .room
                .objects
                .iter()
                .map(|o| ObjectTracker::soften_template(&o.template()))
                .collect(),
            frames: call.video.len(),
            pixels: cfg.width * cfg.height,
            container_bytes: bytes,
        });
    }
    let (dictionary, s) = timed(|| {
        LocationDictionary::new(bb_datasets::dictionary(&cfg)).expect("dictionary is non-empty")
    });
    t.dictionary = s;
    let pool = Pool {
        _files: files,
        entries,
        dictionary,
        recon: Reconstructor::new(
            VbSource::KnownImages(background::catalog_images(cfg.width, cfg.height)),
            recon_config(cfg.height, 1),
        ),
        detector: ObjectDetector::train(DETECTOR_EXEMPLARS, cfg.seed),
        reader: TextReader::default(),
        tracker: ObjectTracker::default(),
        location: LocationInference::default(),
    };
    (pool, t)
}

/// What one call concluded; equal verdicts mean equal outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    digest: u64,
    rbrr: f64,
    top1: bool,
}

/// Benchmark-side timers around each layer of a call, seconds, one group
/// per pool call (like the end-to-end latency).
struct Layers {
    load: Vec<Vec<f64>>,
    location: Vec<Vec<f64>>,
    tracking: Vec<Vec<f64>>,
    text: Vec<Vec<f64>>,
    generic: Vec<Vec<f64>>,
    attacks_total: f64,
    call_total: f64,
}

impl Layers {
    fn new(calls: usize) -> Layers {
        Layers {
            load: vec![Vec::new(); calls],
            location: vec![Vec::new(); calls],
            tracking: vec![Vec::new(); calls],
            text: vec![Vec::new(); calls],
            generic: vec![Vec::new(); calls],
            attacks_total: 0.0,
            call_total: 0.0,
        }
    }
}

fn analyse(
    pool: &Pool,
    entry: &Entry,
    recon: &Reconstructor,
    tel: &Telemetry,
    layers: Option<(&mut Layers, usize)>,
) -> Verdict {
    let start = Instant::now();
    let (video, t_load) =
        timed(|| bb_core::ingest::load_video(&entry.path, 1, tel).expect("containers load"));
    let reconstruction = recon.reconstruct(&video).expect("calls reconstruct");
    let (bg, rec) = (&reconstruction.background, &reconstruction.recovered);
    let (ranking, t_loc) = timed(|| pool.location.rank(bg, rec, &pool.dictionary, tel));
    let (matches, t_trk) = timed(|| {
        entry
            .templates
            .iter()
            .map(|t| pool.tracker.search(bg, rec, t, tel))
            .collect::<Vec<_>>()
    });
    let (detections, t_gen) = timed(|| pool.detector.detect(bg, rec, tel));
    let (findings, t_txt) = timed(|| pool.reader.read(bg, rec, tel));
    if let Some((l, i)) = layers {
        l.load[i].push(t_load);
        l.location[i].push(t_loc);
        l.tracking[i].push(t_trk);
        l.generic[i].push(t_gen);
        l.text[i].push(t_txt);
        l.attacks_total += t_loc + t_trk + t_gen + t_txt;
        l.call_total += start.elapsed().as_secs_f64();
    }
    let top1 = ranking.as_ref().is_ok_and(|r| r.in_top_k(&entry.label, 1));
    let attacks = format!("{ranking:?}|{matches:?}|{detections:?}|{findings:?}");
    Verdict {
        digest: Fnv::new()
            .bytes(&recon_hash(&reconstruction).to_le_bytes())
            .bytes(attacks.as_bytes())
            .finish(),
        rbrr: reconstruction.rbrr(),
        top1,
    }
}

/// Pool-mean of per-call medians in milliseconds, with the sample count.
fn pooled_ms(groups: &[Vec<f64>]) -> (f64, usize) {
    let n = groups.iter().map(Vec::len).sum();
    (pooled_quantile(groups, 0.5).map_or(0.0, |s| s * 1e3), n)
}

/// Runs the workload.
pub fn run(args: &Args) -> Sheet {
    let mut sheet = Sheet::default();
    let mut rep = 0;
    let ((pool, setup), setup_times) = repeated_setup(|| {
        rep += 1;
        build(args.seed, rep)
    });
    sheet.set_sampled(
        "setup_s",
        median(&setup_times).expect("set-up ran"),
        setup_times.len(),
    );

    let recon = &pool.recon;
    let untraced = Telemetry::disabled();
    // Warmup: one untimed pass over the pool, which is also the reference
    // every timed call must reproduce.
    let reference: Vec<Verdict> = pool
        .entries
        .iter()
        .map(|e| analyse(&pool, e, recon, &untraced, None))
        .collect();
    let n = reference.len() as f64;
    sheet.set(
        "rbrr_pct",
        reference.iter().map(|v| v.rbrr).sum::<f64>() / n,
    );
    let top1 = reference.iter().filter(|v| v.top1).count() as f64 * 100.0 / n;
    sheet.note("top1_pct", format!("{top1:.1}"));

    let traced_tel = Telemetry::enabled();
    let traced_recon = recon.clone().with_telemetry(traced_tel.clone());
    let pool_len = pool.entries.len();
    let mut layers = Layers::new(pool_len);
    let lp = closed_loop(pool_len, args, TAIL_Q, &mut sheet, |i, traced| {
        let entry = &pool.entries[i];
        let verdict = if traced {
            analyse(
                &pool,
                entry,
                &traced_recon,
                &traced_tel,
                Some((&mut layers, i)),
            )
        } else {
            analyse(&pool, entry, recon, &untraced, None)
        };
        (verdict == reference[i], entry.frames)
    });
    if !args.trace {
        lp.end_to_end(TAIL_Q, &mut sheet);
        return sheet;
    }

    sheet.set("synth.render_s", setup.render);
    sheet.set("callsim.composite_s", setup.composite);
    sheet.set("datasets.dictionary_s", setup.dictionary);
    sheet.set("video.encode_s", setup.encode);
    let calls = lp.traced.iter().map(Vec::len).sum::<usize>() as f64;
    let (load_ms, loads) = pooled_ms(&layers.load);
    sheet.set_sampled("video.load_ms", load_ms, loads);
    let mean_px = pool
        .entries
        .iter()
        .map(|e| (e.pixels * e.frames) as f64)
        .sum::<f64>()
        / pool_len as f64;
    sheet.set("video.ingest_mpix_s", mean_px / 1e6 / (load_ms / 1e3));
    sheet.set(
        "video.container_mb",
        pool.entries
            .iter()
            .map(|e| e.container_bytes as f64)
            .sum::<f64>()
            / pool_len as f64
            / 1e6,
    );
    let report = traced_tel.report();
    sheet.core_stages(&report, calls, pool.entries[0].pixels as f64);
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let (ms, n) = pooled_ms(&layers.location);
    sheet.set_sampled("attacks.location_ms", ms, n);
    sheet.set(
        "attacks.location_pairs",
        counter("attacks/location/variants") / calls * counter("attacks/location/entries_scored")
            / calls,
    );
    let (ms, n) = pooled_ms(&layers.tracking);
    sheet.set_sampled("attacks.tracking_ms", ms, n);
    sheet.set(
        "attacks.tracking_windows",
        counter("attacks/tracking/windows_scored") / calls,
    );
    let (ms, n) = pooled_ms(&layers.text);
    sheet.set_sampled("attacks.text_ms", ms, n);
    let (ms, n) = pooled_ms(&layers.generic);
    sheet.set_sampled("attacks.generic_ms", ms, n);
    sheet.set(
        "attacks.share_pct",
        layers.attacks_total * 100.0 / layers.call_total,
    );
    sheet.set("attacks.top1_pct", top1);
    lp.trace_overhead(&mut sheet);
    let video =
        bb_core::ingest::load_video(&pool.entries[0].path, 1, &untraced).expect("containers load");
    let (w, h) = video.dims();
    let vb = BackgroundId::Beach.realize(w, h).frame_at(0, w, h);
    crate::kernels::replay(&video, &vb, recon.config(), crate::blur::RADIUS, &mut sheet);
    sheet
}
