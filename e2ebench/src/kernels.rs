//! Benchmark-side replays of the public per-frame kernels on a workload's
//! own frames, reported in nanoseconds per pixel. They say which kernel a
//! change moved without adding spans inside the program.

use crate::common::Sheet;
use crate::stats::median;
use bb_core::bbmask::bb_mask;
use bb_core::pipeline::DEBLUR_ITERATIONS;
use bb_core::vbmask::vb_mask;
use bb_core::vcmask::{vc_mask_with_model, CallerColorModel};
use bb_core::{ReconstructionCanvas, ReconstructorConfig};
use bb_imaging::components::{label, Connectivity};
use bb_imaging::filter::deblur_box;
use bb_imaging::{Frame, Mask};
use bb_segment::PersonSegmenter;
use bb_video::VideoStream;
use std::hint::black_box;
use std::time::Instant;

/// Frames replayed per pass, spread evenly over the call.
const FRAMES: usize = 8;
/// Passes over those frames; each kernel reports the median sample.
const PASSES: usize = 3;

fn ns_per_px<T>(px: f64, samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    samples.push(start.elapsed().as_nanos() as f64 / px);
    out
}

/// Replays VBM, BBM, VCM, component labelling, Van Cittert deblur and
/// residue accumulation on frames of `video`, against the virtual image
/// `reference`, and records `kernel.*_ns_px` on `sheet`.
pub fn replay(
    video: &VideoStream,
    reference: &Frame,
    config: &ReconstructorConfig,
    blur_radius: usize,
    sheet: &mut Sheet,
) {
    let (w, h) = video.dims();
    let px = (w * h) as f64;
    let step = (video.len() / FRAMES).max(1);
    let frames: Vec<&Frame> = video.iter().step_by(step).take(FRAMES).collect();
    let segmenter = PersonSegmenter::fit(video);
    let valid = Mask::full(w, h);
    let candidates: Vec<Mask> = frames
        .iter()
        .map(|f| {
            let vbm = vb_mask(f, reference, &valid, config.tau).expect("frame and reference agree");
            vbm.union(&bb_mask(&vbm, config.phi))
                .expect("masks agree")
                .complement()
        })
        .collect();
    let pairs: Vec<(&Frame, &Mask)> = frames.iter().copied().zip(candidates.iter()).collect();
    let model = CallerColorModel::fit(&pairs, config.vc.refine_bits);

    let mut samples: [Vec<f64>; 6] = Default::default();
    let [vbm_ns, bbm_ns, vcm_ns, label_ns, deblur_ns, accumulate_ns] = &mut samples;
    for _ in 0..PASSES {
        let mut canvas = ReconstructionCanvas::new(w, h);
        for frame in &frames {
            let vbm = ns_per_px(px, vbm_ns, || {
                vb_mask(frame, reference, &valid, config.tau).expect("frame and reference agree")
            });
            let bbm = ns_per_px(px, bbm_ns, || bb_mask(&vbm, config.phi));
            let candidates = vbm.union(&bbm).expect("masks agree").complement();
            let vc = ns_per_px(px, vcm_ns, || {
                vc_mask_with_model(&segmenter, frame, &candidates, &config.vc, model.as_ref())
            });
            let leak = candidates.subtract(&vc.vcm).expect("masks agree");
            ns_per_px(px, label_ns, || label(&leak, Connectivity::Eight));
            ns_per_px(px, deblur_ns, || {
                deblur_box(frame, blur_radius, DEBLUR_ITERATIONS)
            });
            ns_per_px(px, accumulate_ns, || {
                canvas
                    .accumulate(frame, &leak)
                    .expect("canvas matches the frame")
            });
        }
    }
    for (name, s) in [
        "kernel.vb_mask_ns_px",
        "kernel.bb_mask_ns_px",
        "kernel.vc_mask_ns_px",
        "kernel.label_ns_px",
        "kernel.deblur_ns_px",
        "kernel.accumulate_ns_px",
    ]
    .into_iter()
    .zip(&samples)
    {
        sheet.set_sampled(name, median(s).expect("kernel samples"), s.len());
    }
}
