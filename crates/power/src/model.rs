//! Analytic board-power model.
//!
//! `P(t) = P_idle + P_active·[device busy] + P_sm·u(t)^α + Σ P_dma·[engine busy]`
//!
//! where `u(t)` is thread occupancy (resident threads / capacity) and
//! `α < 1` makes dynamic power *saturating* in occupancy — the property
//! behind the paper's observation that "the power consumption of the
//! GPU does not increase linearly as the level of concurrency
//! increases" (contribution 4). `P_active` models the clock ramp that
//! any running kernel pays regardless of size.

use hq_des::record::TimeSeries;
use hq_des::time::{Dur, SimTime};
use hq_gpu::result::SimResult;

/// Board power model parameters (Watts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Idle board power with clocks parked.
    pub p_idle: f64,
    /// Additional power once any SMX is active (clock ramp, memory
    /// controller, fan step).
    pub p_active: f64,
    /// Dynamic SM power at full occupancy.
    pub p_sm: f64,
    /// Occupancy exponent (`< 1` ⇒ saturating).
    pub alpha: f64,
    /// Power per busy DMA engine.
    pub p_dma: f64,
    /// Clock-down hysteresis: after activity ends, the board keeps
    /// paying `p_active` for this long (GPUs take tens of milliseconds
    /// to drop clocks, so microsecond launch gaps never reach idle
    /// power).
    pub clock_hold: Dur,
}

impl PowerModel {
    /// Parameters fitted to the Tesla K20's envelope (TDP 225 W, idle
    /// ~25 W) with a strongly saturating occupancy curve.
    pub fn tesla_k20() -> Self {
        PowerModel {
            p_idle: 25.0,
            p_active: 100.0,
            p_sm: 35.0,
            alpha: 0.3,
            p_dma: 8.0,
            clock_hold: Dur::from_ms(10),
        }
    }

    /// Instantaneous power for an occupancy fraction and engine states.
    pub fn power(&self, occupancy: f64, dma_busy: [bool; 2]) -> f64 {
        let u = occupancy.clamp(0.0, 1.0);
        let mut p = self.p_idle;
        if u > 0.0 {
            p += self.p_active + self.p_sm * u.powf(self.alpha);
        }
        for busy in dma_busy {
            if busy {
                p += self.p_dma;
            }
        }
        p
    }

    /// The 0/1 "clocks ramped" indicator derived from any device
    /// activity (SMX occupancy or a busy DMA engine), extended by the
    /// clock-down hysteresis [`PowerModel::clock_hold`].
    ///
    /// One pass over the merged change points of the three sources,
    /// with one cursor per series.
    pub fn activity_with_hold(&self, result: &SimResult) -> TimeSeries {
        let mut occ = Cursor::new(&result.resident_threads);
        let mut dma = result.dma_busy.each_ref().map(Cursor::new);
        let mut out = TimeSeries::new();
        let mut hold_until: Option<SimTime> = None;
        let mut t = SimTime::ZERO;
        loop {
            occ.seek(t);
            dma.iter_mut().for_each(|c| c.seek(t));
            // A pending clock-down that landed before this stamp takes
            // effect. The device is idle at it: the hold restarts at
            // every idle stamp and ends at an active one, so no change
            // point lies between the stamp that set it and this one.
            if let Some(h) = hold_until {
                if h < t {
                    out.set(h, 0.0);
                }
            }
            let active = occ.value() > 0.0 || dma[0].value() > 0.5 || dma[1].value() > 0.5;
            if active {
                out.set(t, 1.0);
                hold_until = None;
            } else if out.points().last().is_some_and(|&(_, v)| v > 0.0) {
                // Activity just ended; clocks stay up for the hold
                // window.
                hold_until = Some(t + self.clock_hold);
            } else {
                out.set(t, 0.0);
            }
            match next_stamp(std::iter::once(&occ).chain(&dma)) {
                Some(next) => t = next,
                None => break,
            }
        }
        if let Some(h) = hold_until {
            if h < result.makespan {
                out.set(h, 0.0);
            }
        }
        out
    }

    /// Build the full power step-function for a finished simulation by
    /// merging the change points of the occupancy, DMA and (held)
    /// activity series in one pass, one cursor per series.
    pub fn power_series(&self, result: &SimResult) -> TimeSeries {
        let cap = result.device.max_resident_threads() as f64;
        let activity = self.activity_with_hold(result);
        let mut occ = Cursor::new(&result.resident_threads);
        let mut held = Cursor::new(&activity);
        let mut dma = result.dma_busy.each_ref().map(Cursor::new);
        let mut out = TimeSeries::new();
        let mut t = SimTime::ZERO;
        loop {
            occ.seek(t);
            held.seek(t);
            dma.iter_mut().for_each(|c| c.seek(t));
            let occ_frac = occ.value() / cap.max(1.0);
            let mut p = self.p_idle;
            if held.value() > 0.5 {
                p += self.p_active;
            }
            if occ_frac > 0.0 {
                p += self.p_sm * occ_frac.clamp(0.0, 1.0).powf(self.alpha);
            }
            for c in &dma {
                if c.value() > 0.5 {
                    p += self.p_dma;
                }
            }
            out.set(t, p);
            match next_stamp([&occ, &held].into_iter().chain(&dma)) {
                Some(next) => t = next,
                None => break,
            }
        }
        out
    }
}

/// A step series read forward in time: after [`Cursor::seek`] to `t`,
/// [`Cursor::value`] is the series' value at `t`.
struct Cursor<'a> {
    points: &'a [(SimTime, f64)],
    /// Change points at or before the last instant sought.
    passed: usize,
}

impl<'a> Cursor<'a> {
    fn new(series: &'a TimeSeries) -> Self {
        Cursor {
            points: series.points(),
            passed: 0,
        }
    }

    /// Pass every change point at or before `t`.
    #[inline]
    fn seek(&mut self, t: SimTime) {
        while self.points.get(self.passed).is_some_and(|&(pt, _)| pt <= t) {
            self.passed += 1;
        }
    }

    /// The value at the last instant sought; 0 before the first change
    /// point.
    #[inline]
    fn value(&self) -> f64 {
        self.passed.checked_sub(1).map_or(0.0, |i| self.points[i].1)
    }

    /// The first change point not yet passed.
    #[inline]
    fn next(&self) -> Option<SimTime> {
        self.points.get(self.passed).map(|&(t, _)| t)
    }
}

/// The earliest change point any cursor has not yet passed.
fn next_stamp<'a, 'b: 'a>(cursors: impl IntoIterator<Item = &'a Cursor<'b>>) -> Option<SimTime> {
    cursors.into_iter().filter_map(Cursor::next).min()
}

/// The sort-and-search construction the merge pass replaced: collect
/// every change point, sort and dedup them, and look each series up by
/// binary search at every stamp. Kept as the oracle the merge pass is
/// compared against.
#[cfg(test)]
impl PowerModel {
    /// The 0/1 "clocks ramped" indicator derived from any device
    /// activity (SMX occupancy or a busy DMA engine), extended by the
    /// clock-down hysteresis [`PowerModel::clock_hold`].
    pub(crate) fn activity_with_hold_reference(&self, result: &SimResult) -> TimeSeries {
        // Collect activity on/off transitions from all three sources.
        let mut stamps: Vec<SimTime> = vec![SimTime::ZERO];
        stamps.extend(result.resident_threads.points().iter().map(|&(t, _)| t));
        for s in &result.dma_busy {
            stamps.extend(s.points().iter().map(|&(t, _)| t));
        }
        stamps.sort_unstable();
        stamps.dedup();
        let is_active = |t: SimTime| {
            result.resident_threads.value_at(t).unwrap_or(0.0) > 0.0
                || result.dma_busy[0].value_at(t).unwrap_or(0.0) > 0.5
                || result.dma_busy[1].value_at(t).unwrap_or(0.0) > 0.5
        };
        let mut out = TimeSeries::new();
        let mut hold_until: Option<SimTime> = None;
        let mut prev: Option<SimTime> = None;
        for t in stamps {
            // If a pending clock-down landed before this stamp, emit it.
            if let (Some(h), Some(_)) = (hold_until, prev) {
                if h < t && !is_active(h) {
                    out.set(h, 0.0);
                }
            }
            if is_active(t) {
                out.set(t, 1.0);
                hold_until = None;
            } else {
                // Activity just ended (or never started); clocks stay
                // up for the hold window.
                if out.value_at(t).unwrap_or(0.0) > 0.0 {
                    hold_until = Some(t + self.clock_hold);
                } else {
                    out.set(t, 0.0);
                }
            }
            prev = Some(t);
        }
        if let Some(h) = hold_until {
            if h < result.makespan {
                out.set(h, 0.0);
            }
        }
        out
    }

    /// Build the full power step-function for a finished simulation by
    /// merging the change points of the occupancy, DMA and (held)
    /// activity series.
    pub(crate) fn power_series_reference(&self, result: &SimResult) -> TimeSeries {
        let cap = result.device.max_resident_threads() as f64;
        let activity = self.activity_with_hold_reference(result);
        let mut stamps: Vec<SimTime> = vec![SimTime::ZERO];
        stamps.extend(result.resident_threads.points().iter().map(|&(t, _)| t));
        stamps.extend(activity.points().iter().map(|&(t, _)| t));
        for s in &result.dma_busy {
            stamps.extend(s.points().iter().map(|&(t, _)| t));
        }
        stamps.sort_unstable();
        stamps.dedup();
        let mut out = TimeSeries::new();
        for t in stamps {
            let occ = result.resident_threads.value_at(t).unwrap_or(0.0) / cap.max(1.0);
            let dma = [
                result.dma_busy[0].value_at(t).unwrap_or(0.0) > 0.5,
                result.dma_busy[1].value_at(t).unwrap_or(0.0) > 0.5,
            ];
            let clocked = activity.value_at(t).unwrap_or(0.0) > 0.5;
            let mut p = self.p_idle;
            if clocked {
                p += self.p_active;
            }
            if occ > 0.0 {
                p += self.p_sm * occ.clamp(0.0, 1.0).powf(self.alpha);
            }
            for busy in dma {
                if busy {
                    p += self.p_dma;
                }
            }
            out.set(t, p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_power_when_nothing_runs() {
        let m = PowerModel::tesla_k20();
        assert_eq!(m.power(0.0, [false, false]), 25.0);
    }

    #[test]
    fn any_activity_pays_clock_ramp() {
        let m = PowerModel::tesla_k20();
        let tiny = m.power(0.01, [false, false]);
        assert!(
            tiny > m.p_idle + m.p_active,
            "even 1% occupancy ramps clocks: {tiny}"
        );
    }

    #[test]
    fn power_is_saturating_not_linear() {
        let m = PowerModel::tesla_k20();
        let p10 = m.power(0.10, [false, false]);
        let p100 = m.power(1.0, [false, false]);
        // 10x the occupancy must cost far less than 10x the dynamic power.
        let dyn10 = p10 - m.p_idle;
        let dyn100 = p100 - m.p_idle;
        assert!(
            dyn100 / dyn10 < 1.5,
            "saturation: {dyn100}/{dyn10} should be < 1.5"
        );
        assert!(p100 > p10, "still monotone");
    }

    #[test]
    fn power_within_device_envelope() {
        let m = PowerModel::tesla_k20();
        let peak = m.power(1.0, [true, true]);
        assert!(peak <= 225.0, "peak {peak} exceeds K20 TDP");
        assert!(peak >= 150.0, "peak {peak} implausibly low");
    }

    #[test]
    fn dma_engines_add_independently() {
        let m = PowerModel::tesla_k20();
        let base = m.power(0.5, [false, false]);
        assert_eq!(m.power(0.5, [true, false]), base + m.p_dma);
        assert_eq!(m.power(0.5, [true, true]), base + 2.0 * m.p_dma);
    }

    #[test]
    fn occupancy_clamped() {
        let m = PowerModel::tesla_k20();
        assert_eq!(m.power(7.0, [false, false]), m.power(1.0, [false, false]));
        assert_eq!(m.power(-3.0, [false, false]), m.power(0.0, [false, false]));
    }
}
