//! Virtual time: instants and durations with nanosecond resolution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
///
/// `SimTime` is a monotonically non-decreasing virtual clock; it has no
/// relation to wall-clock time. Arithmetic with [`SimDuration`] is saturating
/// on underflow and panics on overflow (an overflow indicates a runaway
/// simulation, not a recoverable condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant exceeds `u64::MAX` nanoseconds. (A plain `*`
    /// here would wrap silently in release builds, turning a runaway
    /// instant into a bogus *early* one.)
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime::from_millis overflow"),
        }
    }

    /// Creates an instant `s` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant exceeds `u64::MAX` nanoseconds.
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime::from_secs overflow"),
        }
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a floating-point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration exceeds `u64::MAX` nanoseconds; like the
    /// other constructors it must not wrap in release builds.
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_micros overflow"),
        }
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration exceeds `u64::MAX` nanoseconds.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_millis overflow"),
        }
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration exceeds `u64::MAX` nanoseconds.
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_secs overflow"),
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// The duration it takes to serialize `bytes` bytes onto a link running
    /// at `bits_per_sec`.
    ///
    /// Returns [`SimDuration::ZERO`] for an infinitely fast (`0`) rate, which
    /// callers use to express "no bandwidth limit".
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> Self {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // bit-nanoseconds fit u64 for every frame and disk transfer (up to
        // ~2.3 GB); the u128 division is kept for anything larger.
        const BIT_NANOS_PER_BYTE: u64 = 8 * 1_000_000_000;
        match (bytes as u64).checked_mul(BIT_NANOS_PER_BYTE) {
            Some(bit_nanos) => SimDuration(bit_nanos / bits_per_sec),
            None => SimDuration(
                (bytes as u128 * BIT_NANOS_PER_BYTE as u128 / bits_per_sec as u128) as u64,
            ),
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(t.as_micros(), 3_000);
        assert_eq!((t - SimTime::ZERO).as_millis(), 3);
        assert_eq!(
            t - SimDuration::from_millis(1),
            SimTime::from_nanos(2_000_000)
        );
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_nanos(40));
    }

    #[test]
    fn transmission_delay_matches_line_rate() {
        // 1500 bytes at 1 Gbps = 12 microseconds.
        let d = SimDuration::transmission(1500, 1_000_000_000);
        assert_eq!(d.as_micros(), 12);
        // Zero rate means "unlimited".
        assert_eq!(SimDuration::transmission(1 << 20, 0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn constructors_accept_boundary_values() {
        // The largest inputs that still fit u64 nanoseconds.
        assert_eq!(
            SimTime::from_millis(u64::MAX / 1_000_000).as_nanos(),
            (u64::MAX / 1_000_000) * 1_000_000
        );
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000_000_000).as_nanos(),
            (u64::MAX / 1_000_000_000) * 1_000_000_000
        );
        assert_eq!(
            SimDuration::from_micros(u64::MAX / 1_000).as_nanos(),
            (u64::MAX / 1_000) * 1_000
        );
    }

    #[test]
    #[should_panic(expected = "from_millis overflow")]
    fn time_from_millis_overflow_panics() {
        let _ = SimTime::from_millis(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "from_secs overflow")]
    fn time_from_secs_overflow_panics() {
        let _ = SimTime::from_secs(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "from_micros overflow")]
    fn duration_from_micros_overflow_panics() {
        let _ = SimDuration::from_micros(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "from_millis overflow")]
    fn duration_from_millis_overflow_panics() {
        let _ = SimDuration::from_millis(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "from_secs overflow")]
    fn duration_from_secs_overflow_panics() {
        let _ = SimDuration::from_secs(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    fn duration_sum_and_scale() {
        let parts = [SimDuration::from_micros(1), SimDuration::from_micros(2)];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total.as_micros(), 3);
        assert_eq!((total * 2).as_micros(), 6);
        assert_eq!((total / 3).as_micros(), 1);
    }
}
