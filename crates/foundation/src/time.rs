//! The deterministic simulation clock.
//!
//! Everything in this reproduction — the OSEK-like kernel, the bus, the RTE,
//! the ECM protocol and the trusted-server pusher — advances on an explicit
//! [`Tick`] counter instead of wall-clock time.  One tick corresponds to one
//! basic scheduling quantum of the simulated platform (think 1 ms on the
//! Raspberry Pi test platform of the paper); the exact wall-clock meaning is
//! irrelevant because only relative comparisons are ever reported.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in scheduling quanta since start-up.
///
/// # Example
/// ```
/// use dynar_foundation::time::Tick;
///
/// let t0 = Tick::ZERO;
/// let t1 = t0.advance(5);
/// assert_eq!(t1 - t0, 5);
/// assert!(t1.is_after(t0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The start of simulated time.
    pub const ZERO: Tick = Tick(0);

    /// Creates a tick from a raw quantum count.
    pub fn new(ticks: u64) -> Self {
        Tick(ticks)
    }

    /// Returns the raw quantum count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the tick `delta` quanta later.
    #[must_use]
    pub fn advance(self, delta: u64) -> Tick {
        Tick(self.0.saturating_add(delta))
    }

    /// Returns `true` if `self` is strictly later than `other`.
    pub fn is_after(self, other: Tick) -> bool {
        self.0 > other.0
    }

    /// The number of quanta elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn elapsed_since(self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;

    fn add(self, rhs: u64) -> Tick {
        self.advance(rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        *self = self.advance(rhs);
    }
}

impl Sub<Tick> for Tick {
    type Output = u64;

    fn sub(self, rhs: Tick) -> u64 {
        self.elapsed_since(rhs)
    }
}

impl From<u64> for Tick {
    fn from(ticks: u64) -> Self {
        Tick::new(ticks)
    }
}

/// A monotonically increasing clock handing out [`Tick`] values.
///
/// # Example
/// ```
/// use dynar_foundation::time::Clock;
///
/// let mut clock = Clock::new();
/// assert_eq!(clock.now().as_u64(), 0);
/// clock.step();
/// clock.step_by(4);
/// assert_eq!(clock.now().as_u64(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: Tick,
}

impl Clock {
    /// Creates a clock positioned at [`Tick::ZERO`].
    pub fn new() -> Self {
        Clock { now: Tick::ZERO }
    }

    /// The current simulated time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advances the clock by one quantum and returns the new time.
    pub fn step(&mut self) -> Tick {
        self.step_by(1)
    }

    /// Advances the clock by `delta` quanta and returns the new time.
    pub fn step_by(&mut self, delta: u64) -> Tick {
        self.now = self.now.advance(delta);
        self.now
    }
}

/// A wall-clock source of [`Tick`] values, for the actor runtime and other
/// real-time frontends.
///
/// The deterministic planes never touch this: everything below the
/// federation keeps advancing on explicit ticks.  A `WallClock` sits at the
/// *boundary* and maps elapsed real time onto the same tick axis by dividing
/// it into fixed quanta, so tick-denominated protocol state (retry budgets,
/// announce periods, partition heal times) keeps its meaning when driven by
/// real threads instead of a simulated loop.
///
/// # Example
/// ```
/// use std::time::Duration;
/// use dynar_foundation::time::WallClock;
///
/// let clock = WallClock::new(Duration::from_millis(1));
/// let t0 = clock.now();
/// assert!(clock.now() >= t0, "wall-clock ticks are monotonic");
/// assert_eq!(clock.until_tick(t0), Duration::ZERO, "the past is due now");
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    start: std::time::Instant,
    quantum: std::time::Duration,
}

impl WallClock {
    /// Creates a clock where one [`Tick`] spans `quantum` of real time,
    /// starting at [`Tick::ZERO`] now.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum — it would map every instant to tick
    /// infinity.
    pub fn new(quantum: std::time::Duration) -> Self {
        assert!(!quantum.is_zero(), "wall-clock quantum must be non-zero");
        WallClock {
            start: std::time::Instant::now(),
            quantum,
        }
    }

    /// The real-time span of one tick.
    pub fn quantum(&self) -> std::time::Duration {
        self.quantum
    }

    /// The current wall-clock time, in ticks since the clock was created.
    pub fn now(&self) -> Tick {
        let elapsed = self.start.elapsed();
        Tick::new((elapsed.as_nanos() / self.quantum.as_nanos().max(1)) as u64)
    }

    /// How long to sleep until `tick` is reached ([`Duration::ZERO`] if it
    /// already passed).
    ///
    /// [`Duration::ZERO`]: std::time::Duration::ZERO
    pub fn until_tick(&self, tick: Tick) -> std::time::Duration {
        let due = self
            .quantum
            .saturating_mul(u32::try_from(tick.as_u64()).unwrap_or(u32::MAX));
        due.saturating_sub(self.start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_arithmetic() {
        let t = Tick::new(10);
        assert_eq!((t + 5).as_u64(), 15);
        assert_eq!(t - Tick::new(4), 6);
        assert_eq!(Tick::new(4) - t, 0, "subtraction saturates");
    }

    #[test]
    fn advance_saturates_at_max() {
        let t = Tick::new(u64::MAX);
        assert_eq!(t.advance(10), t);
    }

    #[test]
    fn ordering_and_is_after() {
        assert!(Tick::new(2).is_after(Tick::new(1)));
        assert!(!Tick::new(1).is_after(Tick::new(1)));
        assert!(Tick::new(1) < Tick::new(2));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut clock = Clock::new();
        let mut last = clock.now();
        for _ in 0..100 {
            let next = clock.step();
            assert!(next.is_after(last));
            last = next;
        }
    }

    #[test]
    fn add_assign_matches_step_by() {
        let mut t = Tick::ZERO;
        t += 7;
        let mut clock = Clock::new();
        clock.step_by(7);
        assert_eq!(t, clock.now());
    }

    #[test]
    fn display_formats_with_prefix() {
        assert_eq!(Tick::new(42).to_string(), "t42");
    }

    #[test]
    fn wall_clock_advances_and_schedules() {
        let clock = WallClock::new(std::time::Duration::from_micros(100));
        let t0 = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = clock.now();
        assert!(t1.is_after(t0), "real time maps onto increasing ticks");
        assert_eq!(clock.until_tick(t0), std::time::Duration::ZERO);
        let far = t1.advance(10_000);
        let wait = clock.until_tick(far);
        assert!(wait > std::time::Duration::ZERO);
        assert!(wait <= std::time::Duration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn wall_clock_rejects_zero_quantum() {
        let _ = WallClock::new(std::time::Duration::ZERO);
    }
}
