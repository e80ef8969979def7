//! The open-loop frame generator behind `live_qvga`.
//!
//! Every caller sends one frame per period whether or not the server kept
//! up, so a stall shows as latency on the frames queued behind it. Each
//! frame is timed from the moment it was *due*, not from when the generator
//! got round to it. The loop is written against a [`Clock`] so its
//! arithmetic can be tested on a synthetic clock.

use std::time::{Duration, Instant};

/// A source of time for the loop.
pub trait Clock {
    /// Seconds since the loop's epoch.
    fn now(&self) -> f64;
    /// Blocks until `now() >= t`; may overshoot.
    fn sleep_until(&mut self, t: f64);
}

/// Wall-clock time since construction.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is now.
    pub fn start() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let ahead = t - self.now();
        if ahead > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ahead));
        }
    }
}

/// One frame due from one caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Caller index.
    pub caller: usize,
    /// When the frame was due, in clock seconds.
    pub due: f64,
}

/// Timings of the frames served while recording.
#[derive(Debug, Default)]
pub struct Record {
    /// Per frame: return of the round that served it − its due time.
    pub latency_s: Vec<f64>,
    /// Per frame: start of the round that served it − its due time (the
    /// head-of-line wait behind earlier rounds).
    pub wait_s: Vec<f64>,
    /// Per wake-up: how late the generator woke for the frame it slept
    /// towards (timer overshoot; not caused by the server).
    pub wake_lag_s: Vec<f64>,
    /// Per round: its duration.
    pub round_s: Vec<f64>,
    /// Frames whose round started more than one period after they were due.
    pub late: usize,
}

impl Record {
    /// Frames recorded.
    pub fn frames(&self) -> usize {
        self.latency_s.len()
    }

    /// Share of recorded frames that were late, in percent.
    pub fn late_pct(&self) -> f64 {
        if self.latency_s.is_empty() {
            0.0
        } else {
            self.late as f64 * 100.0 / self.latency_s.len() as f64
        }
    }
}

/// Per-caller schedule state.
pub struct OpenLoop {
    next_due: Vec<f64>,
    period: f64,
}

impl OpenLoop {
    /// Callers whose first frames are due at `first_due`, each sending one
    /// frame per `period` seconds afterwards.
    pub fn new(first_due: Vec<f64>, period: f64) -> OpenLoop {
        assert!(period > 0.0, "the frame period must be positive");
        OpenLoop {
            next_due: first_due,
            period,
        }
    }

    /// Serves every frame due before `until`. Each round sleeps to the
    /// earliest due frame when it lies ahead, gathers every frame due by
    /// the time the round starts (one per caller, oldest first) and hands
    /// them to `serve`. With `record`, each served frame's timings are
    /// appended to it.
    pub fn run_until<C: Clock>(
        &mut self,
        clock: &mut C,
        until: f64,
        mut record: Option<&mut Record>,
        mut serve: impl FnMut(&mut C, &[Due]),
    ) {
        loop {
            let next = self.next_due.iter().copied().fold(f64::INFINITY, f64::min);
            if next >= until {
                return;
            }
            if clock.now() < next {
                clock.sleep_until(next);
                if let Some(rec) = record.as_deref_mut() {
                    rec.wake_lag_s.push((clock.now() - next).max(0.0));
                }
            }
            let start = clock.now();
            let mut batch: Vec<Due> = self
                .next_due
                .iter()
                .enumerate()
                .filter(|(_, &due)| due <= start && due < until)
                .map(|(caller, &due)| Due { caller, due })
                .collect();
            batch.sort_by(|a, b| a.due.total_cmp(&b.due));
            for d in &batch {
                self.next_due[d.caller] += self.period;
            }
            serve(clock, &batch);
            let end = clock.now();
            if let Some(rec) = record.as_deref_mut() {
                rec.round_s.push(end - start);
                for d in &batch {
                    rec.latency_s.push(end - d.due);
                    rec.wait_s.push(start - d.due);
                    if start - d.due > self.period {
                        rec.late += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic clock: sleeping jumps to the target plus a fixed
    /// overshoot, serving advances time by whatever the test charges.
    struct FakeClock {
        t: f64,
        overshoot: f64,
    }

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.t
        }
        fn sleep_until(&mut self, t: f64) {
            self.t = self.t.max(t + self.overshoot);
        }
    }

    const EPS: f64 = 1e-9;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn an_instant_server_sees_zero_latency_and_serves_every_frame() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        let mut lp = OpenLoop::new(vec![0.0, 0.01], 0.1);
        let mut rec = Record::default();
        lp.run_until(&mut clock, 0.95, Some(&mut rec), |_, _| {});
        assert_eq!(rec.frames(), 20, "two callers × ten periods");
        assert!(rec.latency_s.iter().all(|&l| close(l, 0.0)));
        assert!(rec.wake_lag_s.iter().all(|&l| close(l, 0.0)));
        assert_eq!(rec.late, 0);
    }

    #[test]
    fn latency_runs_from_the_due_time_to_the_end_of_the_round() {
        // Two callers due together; each frame costs 10 ms of service.
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        let mut lp = OpenLoop::new(vec![0.0, 0.0], 1.0 / 30.0);
        let mut rec = Record::default();
        lp.run_until(&mut clock, 0.49, Some(&mut rec), |c, batch| {
            c.t += 0.010 * batch.len() as f64;
        });
        assert_eq!(rec.frames(), 30);
        assert!(rec.latency_s.iter().all(|&l| close(l, 0.020)));
        assert!(rec.wait_s.iter().all(|&w| close(w, 0.0)));
        assert!(rec.round_s.iter().all(|&r| close(r, 0.020)));
    }

    #[test]
    fn generator_lag_is_the_wake_overshoot_and_counts_in_latency() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.002,
        };
        let mut lp = OpenLoop::new(vec![0.05], 0.1);
        let mut rec = Record::default();
        lp.run_until(&mut clock, 1.0, Some(&mut rec), |c, _| c.t += 0.001);
        assert_eq!(rec.frames(), 10);
        assert!(rec.wake_lag_s.iter().all(|&l| close(l, 0.002)));
        assert!(rec.latency_s.iter().all(|&l| close(l, 0.003)));
        assert!(rec.wait_s.iter().all(|&w| close(w, 0.002)));
    }

    #[test]
    fn a_stall_delays_the_frames_queued_behind_it() {
        // One caller at 10 fps; the second frame's service stalls 250 ms.
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        let mut lp = OpenLoop::new(vec![0.0], 0.1);
        let mut rec = Record::default();
        let mut served = 0;
        lp.run_until(&mut clock, 0.6, Some(&mut rec), |c, _| {
            served += 1;
            c.t += if served == 2 { 0.25 } else { 0.01 };
        });
        // Due 0.0 → 0.01; due 0.1 → 0.35; due 0.2 and 0.3 queue behind the
        // stall and are served one per round at 0.36 and 0.37; due 0.4, 0.5
        // are back on schedule.
        let expect = [0.01, 0.25, 0.16, 0.07, 0.01, 0.01];
        assert_eq!(rec.frames(), expect.len());
        for (got, want) in rec.latency_s.iter().zip(expect) {
            assert!(close(*got, want), "latency {got} != {want}");
        }
        // Only the frame due at 0.2 started more than a period late.
        assert_eq!(rec.late, 1);
        assert!(close(rec.late_pct(), 100.0 / 6.0));
        // Back-to-back rounds did not sleep, so the generator logged no lag
        // for them.
        assert_eq!(rec.wake_lag_s.len(), 3);
    }

    #[test]
    fn nothing_is_recorded_without_a_record_and_schedules_carry_over() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        let mut lp = OpenLoop::new(vec![0.0], 0.1);
        let mut first = 0;
        lp.run_until(&mut clock, 0.45, None, |_, b| first += b.len());
        let mut rec = Record::default();
        lp.run_until(&mut clock, 0.95, Some(&mut rec), |_, _| {});
        assert_eq!(first, 5);
        assert_eq!(
            rec.frames(),
            5,
            "the second window starts where the first ended"
        );
    }
}
