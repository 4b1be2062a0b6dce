//! Time-weighted series recorders.
//!
//! [`TimeSeries`] records a step function of simulated time (e.g. the
//! device power draw or the number of occupied SMX block slots) and can
//! integrate it — that is exactly how the reproduction computes GPU
//! energy (`E = ∫ P dt`, paper §V-D) and time-weighted utilization.

use crate::time::{Dur, SimTime};

/// A right-continuous step function sampled at change points.
///
/// `set(t, v)` declares that the value is `v` from time `t` until the
/// next change. Updates must be in non-decreasing time order; equal
/// timestamps overwrite (the last write wins), matching how a DES
/// processes several state changes at one instant.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Declare the value `v` starting at time `t`.
    ///
    /// Panics in debug builds if `t` precedes the previous change point.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.points.last_mut() {
            debug_assert!(t >= last_t, "TimeSeries updated out of order");
            if last_t == t {
                *last_v = v;
                return;
            }
            if *last_v == v {
                return; // no change; keep the series compact
            }
        }
        self.points.push((t, v));
    }

    /// Value at time `t` (the most recent change at or before `t`);
    /// `None` before the first change point.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Integral of the step function over `[a, b]`.
    ///
    /// The value before the first change point is taken as the first
    /// recorded value (so integrating a series that starts "late" does
    /// not silently drop area); an empty series integrates to zero.
    pub fn integrate(&self, a: SimTime, b: SimTime) -> f64 {
        if self.points.is_empty() || b <= a {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cur_t = a;
        let mut cur_v = self.points[0].1;
        for &(pt, pv) in &self.points {
            if pt <= a {
                cur_v = pv;
                continue;
            }
            if pt >= b {
                break;
            }
            acc += cur_v * (pt - cur_t).as_ns() as f64;
            cur_t = pt;
            cur_v = pv;
        }
        acc += cur_v * (b - cur_t).as_ns() as f64;
        acc / 1e9 // value·seconds
    }

    /// Time-weighted mean over `[a, b]`; zero if the window is empty.
    pub fn mean_over(&self, a: SimTime, b: SimTime) -> f64 {
        let w = (b.since(a)).as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.integrate(a, b) / w
        }
    }

    /// Maximum recorded value in `[a, b]` (values active in the window,
    /// including one carried in from before `a`). `None` if empty.
    pub fn max_over(&self, a: SimTime, b: SimTime) -> Option<f64> {
        if self.points.is_empty() || b <= a {
            return None;
        }
        let mut best: Option<f64> = self.value_at(a);
        for &(pt, pv) in &self.points {
            if pt > a && pt < b {
                best = Some(best.map_or(pv, |m| m.max(pv)));
            }
        }
        best.or(Some(self.points[0].1))
    }

    /// Change points `(t, v)`, ascending.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Rebuild a series from previously recorded change points (the
    /// [`TimeSeries::points`] output). Unlike [`TimeSeries::set`] this
    /// applies no overwrite/dedup normalization, so a recorded series
    /// round-trips bit-exactly — which is what a persisted-results
    /// cache needs. Panics in debug builds if `points` is not in
    /// non-decreasing time order.
    pub fn from_points(points: Vec<(SimTime, f64)>) -> Self {
        debug_assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "TimeSeries points out of order"
        );
        TimeSeries { points }
    }

    /// Sample the step function at a fixed period over `[a, b)`,
    /// mimicking a polling sensor such as NVML (paper: 15 ms period,
    /// oversampled at 66.7 Hz).
    pub fn sample(&self, a: SimTime, b: SimTime, period: Dur) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        if period.is_zero() {
            return out;
        }
        let mut t = a;
        while t < b {
            if let Some(v) = self.value_at(t) {
                out.push((t, v));
            }
            t += period;
        }
        out
    }
}

/// Tracks a busy/idle indicator and reports the busy fraction.
///
/// Used for DMA-engine and SMX utilization accounting.
#[derive(Clone, Debug, Default)]
pub struct Utilization {
    series: TimeSeries,
    busy_since: Option<SimTime>,
}

impl Utilization {
    /// New recorder, initially idle.
    pub fn new() -> Self {
        Utilization {
            series: TimeSeries::new(),
            busy_since: None,
        }
    }

    /// Mark busy starting at `t`; idempotent if already busy.
    pub fn busy(&mut self, t: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(t);
            self.series.set(t, 1.0);
        }
    }

    /// Mark idle starting at `t`; idempotent if already idle.
    pub fn idle(&mut self, t: SimTime) {
        if self.busy_since.is_some() {
            self.busy_since = None;
            self.series.set(t, 0.0);
        }
    }

    /// Busy fraction of the window `[a, b]` in `[0,1]`.
    pub fn busy_fraction(&self, a: SimTime, b: SimTime) -> f64 {
        self.series.mean_over(a, b)
    }

    /// Total busy time accumulated in `[a, b]`.
    pub fn busy_time(&self, a: SimTime, b: SimTime) -> Dur {
        Dur::from_secs_f64(self.series.integrate(a, b))
    }

    /// The underlying 0/1 step function (for power models that need the
    /// indicator at arbitrary instants, not just window aggregates).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn set_and_value_at() {
        let mut s = TimeSeries::new();
        s.set(t(10), 1.0);
        s.set(t(20), 3.0);
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.value_at(t(10)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(1.0));
        assert_eq!(s.value_at(t(20)), Some(3.0));
        assert_eq!(s.value_at(t(1000)), Some(3.0));
    }

    #[test]
    fn equal_timestamp_overwrites() {
        let mut s = TimeSeries::new();
        s.set(t(10), 1.0);
        s.set(t(10), 2.0);
        assert_eq!(s.points().len(), 1);
        assert_eq!(s.value_at(t(10)), Some(2.0));
    }

    #[test]
    fn redundant_values_are_compacted() {
        let mut s = TimeSeries::new();
        s.set(t(10), 1.0);
        s.set(t(20), 1.0);
        assert_eq!(s.points().len(), 1);
    }

    #[test]
    fn integrate_step_function() {
        let mut s = TimeSeries::new();
        s.set(t(0), 2.0);
        s.set(t(1_000_000_000), 4.0); // 2.0 for 1s, then 4.0
        let e = s.integrate(t(0), t(2_000_000_000));
        assert!((e - 6.0).abs() < 1e-9, "2*1 + 4*1 = 6, got {e}");
    }

    #[test]
    fn integrate_partial_window() {
        let mut s = TimeSeries::new();
        s.set(t(0), 10.0);
        s.set(t(100), 0.0);
        // window [50, 150]: 10 over 50ns + 0 over 50ns
        let e = s.integrate(t(50), t(150));
        assert!((e - 10.0 * 50e-9).abs() < 1e-15);
    }

    #[test]
    fn integrate_empty_and_degenerate() {
        let s = TimeSeries::new();
        assert_eq!(s.integrate(t(0), t(100)), 0.0);
        let mut s2 = TimeSeries::new();
        s2.set(t(0), 5.0);
        assert_eq!(s2.integrate(t(50), t(50)), 0.0);
    }

    #[test]
    fn mean_and_max_over_window() {
        let mut s = TimeSeries::new();
        s.set(t(0), 1.0);
        s.set(t(500), 3.0);
        let m = s.mean_over(t(0), t(1000));
        assert!((m - 2.0).abs() < 1e-9);
        assert_eq!(s.max_over(t(0), t(1000)), Some(3.0));
        assert_eq!(s.max_over(t(600), t(1000)), Some(3.0));
        assert_eq!(s.max_over(t(10), t(20)), Some(1.0));
    }

    #[test]
    fn sampling_mimics_polling_sensor() {
        let mut s = TimeSeries::new();
        s.set(t(0), 1.0);
        s.set(t(30), 2.0);
        let samples = s.sample(t(0), t(60), Dur::from_ns(15));
        assert_eq!(
            samples,
            vec![(t(0), 1.0), (t(15), 1.0), (t(30), 2.0), (t(45), 2.0)]
        );
        assert!(s.sample(t(0), t(60), Dur::ZERO).is_empty());
    }

    #[test]
    fn utilization_busy_fraction() {
        let mut u = Utilization::new();
        u.busy(t(0));
        u.busy(t(10)); // idempotent
        u.idle(t(250));
        u.idle(t(260)); // idempotent
        u.busy(t(500));
        u.idle(t(750));
        let f = u.busy_fraction(t(0), t(1000));
        assert!((f - 0.5).abs() < 1e-9, "got {f}");
        assert_eq!(u.busy_time(t(0), t(1000)).as_ns(), 500);
    }
}
