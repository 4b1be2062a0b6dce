//! Simulated time.
//!
//! Time is a `u64` count of nanoseconds since simulation start. One
//! nanosecond of resolution comfortably covers the scales in the paper:
//! driver calls are microseconds, kernels are micro- to milliseconds and
//! whole workloads are seconds, all well inside `u64` range
//! (~584 years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as an "infinitely far"
    /// sentinel for idle horizons).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is actually later (callers comparing unordered stamps).
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<Dur> {
        self.0.checked_sub(earlier.0).map(Dur)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from a float number of seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration addition.
    #[inline]
    pub fn saturating_add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }

    /// Scale by a float factor, rounding to nanoseconds; clamps negative
    /// or non-finite factors to zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Dur {
        if !k.is_finite() || k <= 0.0 {
            return Dur::ZERO;
        }
        Dur((self.0 as f64 * k).round() as u64)
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulated time overflowed u64 nanoseconds"),
        )
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        Dur(self
            .0
            .checked_sub(rhs.0)
            .expect("subtracted a later SimTime from an earlier one"))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self
            .0
            .checked_add(rhs.0)
            .expect("duration overflowed u64 nanoseconds"))
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self
            .0
            .checked_sub(rhs.0)
            .expect("duration subtraction underflowed"))
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

/// Render an instant with an auto-selected unit (`ns`, `µs`, `ms`, `s`).
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Dur(self.0).fmt(f)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}µs", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.4}s", ns as f64 / 1e9)
        }
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dur({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Dur::from_us(1).as_ns(), 1_000);
        assert_eq!(Dur::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(Dur::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(Dur::from_secs_f64(0.5).as_ns(), 500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_ns(100) + Dur::from_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!(t - SimTime::from_ns(100), Dur::from_ns(50));
        assert_eq!(SimTime::from_ns(10).since(SimTime::from_ns(30)), Dur::ZERO);
        assert_eq!(
            SimTime::from_ns(10).checked_since(SimTime::from_ns(30)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn strict_sub_panics_on_misorder() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        assert_eq!(Dur::from_ns(100).mul_f64(1.5).as_ns(), 150);
        assert_eq!(Dur::from_ns(100).mul_f64(-3.0), Dur::ZERO);
        assert_eq!(Dur::from_ns(3).mul_f64(0.5).as_ns(), 2); // rounds to even-nearest
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::from_ns(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_us(12)), "12.00µs");
        assert_eq!(format!("{}", Dur::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.0000s");
    }

    #[test]
    fn sum_and_minmax() {
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total.as_ns(), 6);
        assert_eq!(Dur::from_ns(4).max(Dur::from_ns(7)).as_ns(), 7);
        assert_eq!(SimTime::from_ns(4).min(SimTime::from_ns(7)).as_ns(), 4);
    }
}
