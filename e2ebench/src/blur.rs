//! `blur_vga`: reconstruction against the platforms' default blur mode at
//! the paper's VGA scale.
//!
//! Closed loop, one call at a time: participant 0's active E2 call at
//! 640×480 × 90 frames, composited with `VbMode::Blur { radius: 4 }` by the
//! Zoom-like profile and reconstructed with `ReconMode::BlurResidue` on a
//! worker pool of `nproc` threads. No attacks run. The working set is far
//! past L2 and the Van Cittert deblur dominates, so this is where deblur
//! and worker-pool changes show and attack changes must not.

use crate::common::{closed_loop, mix, recon_config, recon_hash, repeated_setup, timed, Sheet};
use crate::host;
use crate::stats::median;
use crate::Args;
use bb_callsim::{BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode};
use bb_core::{ReconMode, Reconstructor, ReconstructorConfig, VbSource};
use bb_datasets::DatasetConfig;
use bb_telemetry::Telemetry;
use bb_video::VideoStream;

/// The tail quantile reported as `latency_ms_tail`.
pub const TAIL_Q: f64 = 0.65;

/// The platform's blur radius, also the deconvolution kernel.
pub const RADIUS: usize = 4;

const WIDTH: usize = 640;
const HEIGHT: usize = 480;
const FRAMES: usize = 90;
const CLIP: &str = "e2-p0-s4-active";

/// Set-up time by layer, seconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    render: f64,
    composite: f64,
}

fn build(seed: u64) -> (VideoStream, SetupTimes) {
    let cfg = DatasetConfig {
        width: WIDTH,
        height: HEIGHT,
        e2_frames: FRAMES,
        ..DatasetConfig::default()
    };
    let clip = bb_datasets::e2_catalog(&cfg)
        .into_iter()
        .find(|c| c.id == CLIP)
        .expect("the catalog holds the clip");
    let (gt, render) = timed(|| clip.render(&cfg).expect("catalog clips render"));
    let (call, composite) = timed(|| {
        CallSim::new(&gt)
            .vb(VbMode::Blur { radius: RADIUS })
            .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
            .lighting(clip.lighting)
            .seed(mix(seed, 200))
            .run()
            .expect("the call composites")
    });
    (call.video, SetupTimes { render, composite })
}

fn config(parallelism: usize) -> ReconstructorConfig {
    ReconstructorConfig {
        mode: ReconMode::BlurResidue { radius: RADIUS },
        ..recon_config(HEIGHT, parallelism)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Sheet {
    let mut sheet = Sheet::default();
    let ((video, setup), setup_times) = repeated_setup(|| build(args.seed));
    sheet.set_sampled(
        "setup_s",
        median(&setup_times).expect("set-up ran"),
        setup_times.len(),
    );

    let workers = host::nproc();
    let recon = Reconstructor::new(VbSource::UnknownImage, config(workers));
    // Warmup: one untimed call, which is also the reference.
    let reference = recon.reconstruct(&video).expect("the call reconstructs");
    let want = recon_hash(&reference);
    sheet.set("rbrr_pct", reference.rbrr());

    let traced_tel = Telemetry::enabled();
    let traced_recon = recon.clone().with_telemetry(traced_tel.clone());
    let lp = closed_loop(1, args, TAIL_Q, &mut sheet, |_, traced| {
        let r = if traced { &traced_recon } else { &recon };
        let out = r.reconstruct(&video).expect("the call reconstructs");
        (recon_hash(&out) == want, video.len())
    });
    sheet.note("workers", workers);
    if !args.trace {
        lp.end_to_end(TAIL_Q, &mut sheet);
        return sheet;
    }

    sheet.set("synth.render_s", setup.render);
    sheet.set("callsim.composite_s", setup.composite);
    let report = traced_tel.report();
    let calls = lp.traced.iter().map(Vec::len).sum::<usize>() as f64;
    sheet.core_stages(&report, calls, (WIDTH * HEIGHT) as f64);
    lp.trace_overhead(&mut sheet);
    // One call on a single worker against the pool's median.
    let single = Reconstructor::new(VbSource::UnknownImage, config(1));
    let (out, one_worker) = timed(|| single.reconstruct(&video).expect("the call reconstructs"));
    sheet.check(recon_hash(&out) == want);
    sheet.set("core.pool_speedup", one_worker / lp.untraced_quantile(0.5));
    let vb = BackgroundId::Beach
        .realize(WIDTH, HEIGHT)
        .frame_at(0, WIDTH, HEIGHT);
    crate::kernels::replay(&video, &vb, recon.config(), RADIUS, &mut sheet);
    sheet
}
