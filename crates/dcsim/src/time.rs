//! Simulation time.
//!
//! All simulation time in this workspace is an absolute count of nanoseconds
//! since the start of the run, held in a [`Nanos`] newtype. One nanosecond of
//! resolution is sufficient for 100 Gbps links (12.5 bytes per nanosecond):
//! a 1000-byte frame serializes in exactly 80 ns. Sub-nanosecond residue from
//! non-divisible rates is accumulated by the link model in fractional bytes
//! rather than by widening the clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulation time (or a duration), in nanoseconds.
///
/// `Nanos` is used for both instants and durations. Additive and scaling
/// arithmetic **saturates** at `u64::MAX`: the far-future sentinel
/// [`Nanos::MAX`] flows through deadline math (`MAX + rtt` must stay MAX,
/// not wrap to the past and fire an event at time zero). Subtraction still
/// panics on underflow in debug builds — a negative duration is always a
/// logic bug worth catching loudly; use [`Nanos::saturating_sub`] where
/// clamping at zero is the intended semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub(crate) u64);

impl Nanos {
    /// Time zero — the start of every simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as an "infinitely far" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SEC: Nanos = Nanos(1_000_000_000);

    /// Construct from a raw nanosecond count.
    ///
    /// The only way to build one outside `dcsim` (fields are private to
    /// `dcsim`, so the tuple constructor does not compile there): grep
    /// finds every point where an untyped integer becomes a time.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from whole microseconds (saturating).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds (saturating).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturating).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    ///
    /// Used for "how much later is a than b, if at all" computations such as
    /// queueing-delay estimates where measurement jitter could otherwise
    /// underflow.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// `self / rhs` as a dimensionless `f64` (a slowdown, a delay ratio),
    /// computed as `self as f64 / rhs as f64`.
    #[inline]
    pub fn ratio(self, rhs: Nanos) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// The smaller of two instants.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    /// Saturating: `Nanos::MAX + d == Nanos::MAX`, so "never" deadlines
    /// survive offset arithmetic instead of wrapping into the past.
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    /// Saturating, for the same reason as `Add`.
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: u64) -> Nanos {
        Nanos(self.0 % rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= 1_000_000_000 {
            write!(f, "{:.3}s", n as f64 / 1e9)
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", n as f64 / 1e6)
        } else if n >= 1_000 {
            write!(f, "{:.3}us", n as f64 / 1e3)
        } else {
            write!(f, "{n}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = Nanos(500);
        let b = Nanos(200);
        assert_eq!(a + b, Nanos(700));
        assert_eq!(a - b, Nanos(300));
        assert_eq!(a * 3, Nanos(1500));
        assert_eq!(a / 5, Nanos(100));
        assert_eq!((a + b) % 300, Nanos(100));
    }

    #[test]
    fn add_and_mul_saturate_at_max() {
        assert_eq!(Nanos::MAX + Nanos(1), Nanos::MAX);
        let mut t = Nanos::MAX;
        t += Nanos::SEC;
        assert_eq!(t, Nanos::MAX);
        assert_eq!(Nanos::MAX * 2, Nanos::MAX);
        assert_eq!(Nanos::from_secs(u64::MAX), Nanos::MAX);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Nanos(10).saturating_sub(Nanos(20)), Nanos::ZERO);
        assert_eq!(Nanos(20).saturating_sub(Nanos(10)), Nanos(10));
    }

    #[test]
    fn float_views() {
        assert!((Nanos(1_500).as_micros_f64() - 1.5).abs() < 1e-12);
        assert!((Nanos(2_500_000).as_millis_f64() - 2.5).abs() < 1e-12);
        assert!((Nanos(750_000_000).as_secs_f64() - 0.75).abs() < 1e-12);
        assert_eq!(Nanos(3).ratio(Nanos(4)), 0.75);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(999)), "999ns");
        assert_eq!(format!("{}", Nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", Nanos(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", Nanos(3_000_000_000)), "3.000s");
    }

    #[test]
    fn min_max_and_sum() {
        assert_eq!(Nanos(3).max(Nanos(5)), Nanos(5));
        assert_eq!(Nanos(3).min(Nanos(5)), Nanos(3));
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
